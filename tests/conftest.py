import os

import numpy as np
import pytest

from specweight.errors import NumericalError
from specweight.factor_graph import FactorTable, basis_from_factors
from specweight.predictor import RecurrentClassifier, _as_batch, _sigmoid
from specweight.synth import SynthSpec, generate


class LogisticFallback:
    """Logistic regression on the final visit; same interface as the GRU.

    A test double: property suites that need dozens of training runs exercise
    the full training machinery with it without paying for backprop through
    time. Its own tests are `test_predictor.py::TestLogisticFallback`.
    """

    def __init__(self, feature_width: int, rng: np.random.Generator | None = None):
        if feature_width < 1:
            raise ValueError("feature_width must be >= 1")
        self.feature_width = feature_width
        rng = rng if rng is not None else np.random.default_rng(0)
        bound = 1.0 / np.sqrt(feature_width)
        self.w = rng.uniform(-bound, bound, size=feature_width)
        self.b = rng.uniform(-bound, bound, size=1)

    @property
    def n_params(self) -> int:
        return self.feature_width + 1

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.w, self.b])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.w = flat[:-1].copy()
        self.b = flat[-1:].copy()

    def forward(self, sequences):
        last = np.array([x[-1] for x in _as_batch(sequences, self.feature_width)])
        logits = last @ self.w + self.b[0]
        if not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite activation in forward pass")
        p = _sigmoid(logits)
        return p, (last, p)

    def backward(self, cache, d_prob) -> np.ndarray:
        last, p = cache
        dlogit = np.broadcast_to(np.asarray(d_prob, dtype=np.float64), p.shape) * p * (1.0 - p)
        return np.concatenate([dlogit @ last, [dlogit.sum()]])


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


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """Every test, pooled or not, ends with no child process of its own."""
    yield
    assert_no_child_process()


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
