"""The two exception types that `cli.main` maps to exit codes."""


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class NumericalError(Exception):
    """Numerical failure: divergence, non-finite values (CLI exit code 3)."""
