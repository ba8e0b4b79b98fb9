import os

import numpy as np
import pytest

from specweight.factor_graph import FactorTable, basis_from_factors
from specweight.predictor import LogisticFallback, RecurrentClassifier
from specweight.synth import SynthSpec, generate


def small_gru_factory(feature_width, rng):
    return RecurrentClassifier(feature_width, hidden=8, fc=4, rng=rng)


def logistic_factory(feature_width, rng):
    return LogisticFallback(feature_width, rng)


class FailsIn:
    """A picklable model factory that fails in the process that made it
    (`where="caller"`) or only in the others (`where="worker"`), by raising
    `error` or, for an int, exiting with that code; elsewhere it builds
    `small_gru_factory`'s model."""

    def __init__(self, where, error):
        self.pid, self.where, self.error = os.getpid(), where, error

    def __call__(self, feature_width, rng):
        if (os.getpid() == self.pid) == (self.where == "caller"):
            if isinstance(self.error, int):
                os._exit(self.error)
            raise self.error
        return small_gru_factory(feature_width, rng)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def tiny_cohort():
    """60 subjects, 6 features: group-dependent label noise, fast to train on."""
    spec = SynthSpec(n_subjects=60, feature_width=6, seed=11)
    data, factors, groups = generate(spec)
    return data, factors, groups


@pytest.fixture(scope="session")
def random_factor_table():
    rng = np.random.default_rng(42)
    return FactorTable(rng.normal(size=(40, 3)), ("a", "b", "c"))


@pytest.fixture(scope="session")
def small_basis(random_factor_table):
    basis, info = basis_from_factors(random_factor_table, k=6, m=8)
    return basis, info
