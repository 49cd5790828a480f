import warnings

import numpy as np
import pytest

from hilbertcone import PositiveVector, SimplexPoint

# Hypothesis imports this module to report a failing example.  Its import warns
# (mypy_extensions.TypedDict is deprecated), and under filterwarnings = error that
# warning would abort the run with INTERNALERROR instead of naming the failure.
# Imported here once, the module is cached before any test runs.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_positive(rng, n, spread=3.0):
    """Full-support positive vector with log-uniform components."""
    return PositiveVector(tuple(np.exp(rng.uniform(-spread, spread, size=n))))


def random_simplex(rng, n, spread=3.0):
    w = np.exp(rng.uniform(-spread, spread, size=n))
    w = w / w.sum()
    return SimplexPoint(tuple(w / w.sum()))


def random_allowable(rng, n, zero_frac=0.0):
    """Random allowable matrix; zero_frac of the entries are zeroed when possible."""
    a = np.exp(rng.uniform(-2.0, 2.0, size=(n, n)))
    if zero_frac > 0.0:
        mask = rng.random((n, n)) < zero_frac
        a[mask] = 0.0
        for i in range(n):  # repair empty rows/columns
            if a[i].sum() == 0:
                a[i, rng.integers(n)] = 1.0
            if a[:, i].sum() == 0:
                a[rng.integers(n), i] = 1.0
    return a
