"""Birkhoff contraction coefficients for nonnegative matrices and grid kernels.

The coefficient is the T-distance of the projective diameter,
``tau(A) = tanh(Delta/4)``, where ``Delta = -log phi`` and ``phi(A) = min
A[i,k]*A[j,l] / (A[j,k]*A[i,l])`` is the minimal cross-ratio.  With
``L = log A``, the quadruple minimum is an O(n^3) pass of oscillations

    -log phi = max_{i<j} osc(L[i] - L[j]) = max_{i<j} H(row_i, row_j),

which stays tractable for n in the thousands; the exhaustive O(n^4) scan is a
test oracle only.  Each matrix or kernel runs the pass once and caches it for
phi, tau and the diameter.  The pass is an exact branch and bound: the rows are
sorted by descending oscillation ``hi - lo``, and a pair is skipped only when
the float bound ``fl(fl(hi_i - lo_j) - fl(lo_i - hi_j))``, which rounding
cannot push below ``osc(L_i - L_j)``, is at most the best value so far, so the
result is the unpruned maximum bit for bit.  A matrix small enough for one
block (square n <= 40) skips the sort.  The zero conventions (0/0 -> 1,
0/positive -> 0) are resolved before taking any logarithm: for an allowable
matrix a single zero entry already forces phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    PositiveVector,
    SimplexPoint,
    _hilbert_weights,
    _t,
    _tv,
    _unit_mass,
    hilbert_distance,  # not called here; kept so that contraction.hilbert_distance resolves
    osc,
)
from .errors import CertificationError, DimensionError, DomainError, ValidationError

__all__ = [
    "NonnegMatrix",
    "GridKernel",
    "ContractionReport",
    "MarkovStep",
    "MarkovRun",
    "birkhoff_phi",
    "birkhoff_tau",
    "projective_diameter",
    "kernel_apply",
    "verify_contraction",
    "markov_converge",
]

# markov_converge keeps every row, about 390 B a step (147 MB of RSS at 300,000 steps), so
# 1,000,000 steps need ~0.4 GB.  More are refused before the walk: a huge count ends in one
# error line, not in an out-of-memory kill.
_MAX_STEPS = 1_000_000
# verify_contraction holds up to seven trials x n float arrays at once, 48-56 B per trial
# and component (ru_maxrss grows by 80 MB from 250,000 to 1,000,000 trials at n=2, and by
# 69 MB from 2,000 to 8,000 trials at n=250), so 10,000,000 need ~0.56 GB.  More are
# refused before the draw.
_MAX_DRAWS = 10_000_000


@dataclass(frozen=True, eq=False)
class NonnegMatrix:
    """An allowable nonnegative matrix: every row and column has a positive entry."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionError("matrix must be at least 1x1")
        for bad, what in ((~np.isfinite(a), "not finite"), (a < 0, "negative")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValidationError(f"entry at ({i}, {j}) is {what}: {float(a[i, j])!r}")
        # Tested with any, not sum: a sum of finite entries can overflow to inf.
        if not (a > 0).any(axis=1).all():
            raise ValidationError("matrix is not allowable: a row is identically zero")
        if not (a > 0).any(axis=0).all():
            raise ValidationError("matrix is not allowable: a column is identically zero")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _diameter(self) -> float:
        """-log phi, or inf when phi = 0 (any zero entry of an allowable matrix)."""
        a = self.entries
        if (a == 0).any():
            return math.inf
        k = int(np.argmax(a != a.T))  # first entry, in C order, where A and A.T differ
        # Pass on the one smaller there, so phi(A) == phi(A.T) exactly; C-order logs are faster.
        return _pairwise_diameter(np.log(a.T if a.flat[k] > a.T.flat[k] else a, order="C"))


def _as_matrix(a) -> NonnegMatrix:
    return a if isinstance(a, NonnegMatrix) else NonnegMatrix(np.asarray(a, dtype=float))


@dataclass(frozen=True, eq=False)
class GridKernel:
    """A strictly positive kernel density on a grid, stored as log values.

    ``log_values[i, j] = log kappa(a_grid[i], x_grid[j])``.  Both grids only
    need to be strictly increasing: :func:`kernel_apply` takes masses on
    ``x_grid``, so no quadrature weight enters.
    """

    log_values: np.ndarray
    a_grid: np.ndarray
    x_grid: np.ndarray

    def __post_init__(self) -> None:
        lv = np.array(self.log_values, dtype=float)
        ag = np.array(self.a_grid, dtype=float)
        xg = np.array(self.x_grid, dtype=float)
        if lv.ndim != 2:
            raise DimensionError("log_values must be a 2-D array")
        m, p = lv.shape
        if m < 2 or p < 2:
            raise ValidationError("kernel grid needs at least 2 points on each axis")
        if ag.shape != (m,) or xg.shape != (p,):
            raise DimensionError("grid lengths must match the log_values shape")
        for name, arr in (("log kernel values", lv), ("a_grid", ag), ("x_grid", xg)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} must be finite")
        # Then no difference of two log values overflows in the diameter pass; an
        # oscillation of such differences, up to twice the span, can (see _diameter).
        if not math.isfinite(float(lv.max()) - float(lv.min())):
            raise ValidationError("log kernel values must span a finite range (max - min)")
        if not ((ag[1:] > ag[:-1]).all() and (xg[1:] > xg[:-1]).all()):  # no difference to overflow
            raise ValidationError("grids must be strictly increasing")
        for name, arr in (("log_values", lv), ("a_grid", ag), ("x_grid", xg)):
            arr.setflags(write=False)  # the cached diameter relies on it
            object.__setattr__(self, name, arr)

    @cached_property
    def _diameter(self) -> float:
        with np.errstate(over="ignore"):  # an oscillation that overflows leaves the maximum inf
            d = _pairwise_diameter(self.log_values)
        if d == math.inf:
            raise DomainError("kernel diameter -log phi is past float range; "
                              "rescale the log values")
        return d


def _pairwise_diameter(L: np.ndarray) -> float:
    """max over row pairs i < j of osc(L[i] - L[j]): -log phi of exp(L), never -0.0."""
    m, p = L.shape
    # Rows [i, i+b) against later rows, about 2**16 differences (512 KB) a block:
    # amortises numpy's per-call cost on small matrices, one row at a time on
    # large ones.  osc(L[i] - L[j]) == osc(L[j] - L[i]) bit for bit.
    b = max(1, (1 << 16) // (m * p))
    if b >= m - 1:  # one block: nothing to prune, so no sort and no bounds
        return float(osc(L[:b, None, :] - L[None, :, :]).max())
    # The bound is exact: L[i,k] - L[j,k] <= hi[i] - lo[j] for every k, and float
    # rounding is monotone, so every float difference lies between
    # fl(lo[i] - hi[j]) and fl(hi[i] - lo[j]), and osc(L[i] - L[j]) <=
    # fl(fl(hi[i] - lo[j]) - fl(lo[i] - hi[j])).  A pair is skipped only when
    # that bound is <= the best value so far, so the maximum over the pairs
    # evaluated is the maximum over all pairs, bit for bit.
    hi, lo = L.max(axis=1), L.min(axis=1)
    # Descending hi - lo (stable), so that the later rows whose bound beats the
    # best value form a prefix, up to rounding: a block runs to the last of them.
    order = np.argsort(lo - hi, kind="stable")
    L, hi, lo = L[order], hi[order], lo[order]
    best = 0.0
    for i in range(0, m - 1, b):
        bound = (hi[i:i + b, None] - lo[None, i:]) - (lo[i:i + b, None] - hi[None, i:])
        beats = np.flatnonzero((bound > best).any(axis=0))
        if beats.size:
            k = i + int(beats[-1]) + 1
            best = max(best, float(osc(L[i:i + b, None, :] - L[None, i:k, :]).max()))
    return best


def _diameter_of(A) -> float:
    """-log phi of a GridKernel, or of A as a NonnegMatrix."""
    return A._diameter if isinstance(A, GridKernel) else _as_matrix(A)._diameter


def birkhoff_phi(A) -> float:
    """Minimal cross-ratio phi(A) in [0, 1]; zero iff a matrix A has a zero entry.

    A grid kernel's phi is in (0, 1], and is 0.0 only where exp(-Delta) underflows.
    """
    return math.exp(-_diameter_of(A))


def birkhoff_tau(A) -> float:
    """Birkhoff coefficient tanh(Delta/4) of a matrix or grid kernel, Delta its diameter.

    Equal to (1 - sqrt(phi)) / (1 + sqrt(phi)), a quotient that cancels at small Delta.
    """
    return _t(_diameter_of(A))


def projective_diameter(A) -> float:
    """Diameter -log phi of the cone image; inf iff a matrix A has a zero entry."""
    return _diameter_of(A)


def kernel_apply(K: GridKernel, mu: PositiveVector) -> PositiveVector:
    """Push the masses mu through the kernel: out[i] = sum_k kappa(a_i, x_k) mu[k]."""
    p = K.log_values.shape[1]
    if len(mu) != p:
        raise DimensionError(f"measure has length {len(mu)}, kernel expects {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(K.log_values) @ np.asarray(mu.weights)
    # A positive kernel maps a nonzero measure to a positive vector, so an entry that is
    # not finite and > 0 (min propagates nan) overflowed or underflowed.
    if not (0.0 < out.min() and out.max() < math.inf):
        raise DomainError("kernel image is past float range; rescale the log values")
    return PositiveVector(tuple(out))


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a randomized check of T(Ax, Ay) <= tau(A) T(x, y)."""

    tau: float
    phi: float
    diameter: float
    trials: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-10


def verify_contraction(A, trials: int, seed: int) -> ContractionReport:
    """Sample random positive pairs and measure the worst contraction violation.

    Components are drawn as exp(uniform(-3, 3)) from numpy's seeded
    default_rng (PCG64), so identical seeds give identical reports.  ``trials * n``
    is at most 10,000,000.
    """
    A = _as_matrix(A)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    n = A.n
    if trials * n > _MAX_DRAWS:
        raise ValidationError(f"trials * n must be <= {_MAX_DRAWS}, got {trials} * {n}")
    d = A._diameter
    tau = _t(d)
    rng = np.random.default_rng(seed)
    X = np.exp(rng.uniform(-3.0, 3.0, size=(trials, n)))
    Y = np.exp(rng.uniform(-3.0, 3.0, size=(trials, n)))
    t_xy = np.tanh(osc(np.log(Y) - np.log(X)) / 4.0)
    with np.errstate(over="ignore", divide="ignore"):  # such images are rejected below
        LAX, LAY = np.log(X @ A.entries.T), np.log(Y @ A.entries.T)
    if not (np.isfinite(LAX).all() and np.isfinite(LAY).all()):
        raise DomainError("A x overflows or underflows a float for a sampled x; rescale A")
    t_axy = np.tanh(osc(LAY - LAX) / 4.0)
    max_violation = float((t_axy - tau * t_xy).max())
    return ContractionReport(
        tau=tau,
        phi=math.exp(-d),
        diameter=d,
        trials=trials,
        max_violation=max_violation,
    )


class MarkovStep(NamedTuple):
    step: int
    hilbert: float
    t: float
    tv: float
    certified_bound: float


@dataclass(frozen=True)
class MarkovRun:
    """Per-step distances to the stationary distribution, with certified decay."""

    steps: tuple[MarkovStep, ...]
    stationary: SimplexPoint
    tau: float
    nonexpansive_only: bool  # tau == 1: the bound degenerates to non-expansiveness


def _iterates(mu0: SimplexPoint, P: NonnegMatrix) -> Iterator[tuple[float, ...]]:
    """The unit masses of mu_1, mu_2, ... of mu_{k+1} = mu_k P."""
    cur = np.asarray(mu0.weights)
    while True:
        cur = cur @ P.entries
        cur = cur / cur.sum()
        yield _unit_mass(cur.tolist())


def markov_converge(P, mu0: SimplexPoint, steps: int) -> MarkovRun:
    """Track H, T, and TV to the stationary distribution over ``steps`` iterations.

    The chain evolves as mu_{k+1} = mu_k P; the operator acting on measures
    is P^T on column vectors, and the cross-ratio minimum is transpose
    invariant, so tau(P) certifies H(mu_k, pi) <= tau^k H(mu_0, pi).  pi is
    the first iterate mu_K with H(mu_{K-1}, mu_K) < 1e-13; the one walk that
    finds it also gives the table's rows, mu_1 .. mu_K kept and later ones made.
    ``steps`` is at most 1,000,000.
    """
    P = _as_matrix(P)
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if steps > _MAX_STEPS:
        raise ValidationError(f"steps must be <= {_MAX_STEPS}, got {steps}")
    with np.errstate(over="ignore"):  # a row sum that overflows is inf and fails the check
        row_sums = P.entries.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-10:
        raise ValidationError("matrix is not row-stochastic within 1e-10")
    if len(mu0) != P.n:
        raise DimensionError(f"mu0 has length {len(mu0)}, matrix is {P.n}x{P.n}")

    tau = birkhoff_tau(P)

    walk = _iterates(mu0, P)
    prev, kept = _unit_mass(mu0.weights), []
    for k, mass in enumerate(islice(walk, 100_000), 1):
        h = _hilbert_weights(prev, mass)
        if k <= steps:
            kept.append(mass)
        if h < 1e-13:
            break
        prev = mass
    else:
        raise DomainError(f"no stationary distribution in 100000 steps (last step H={h!r})")
    pi = SimplexPoint(mass)  # the weights normalize() gives for mu_K

    later = islice(walk, steps - len(kept))
    # (H, tv) to pi of mu_0 .. mu_steps
    dists = [(_hilbert_weights(mw, mass), _tv(mw, mass))
             for mw in chain([mu0.weights], kept, later)]
    h0 = dists[0][0]
    rows: list[MarkovStep] = []
    for k, (hk, tv) in enumerate(dists):
        if math.isinf(h0):
            # 0 * inf: a rank-one chain hits pi exactly after one step.
            bound = math.inf if (tau > 0.0 or k == 0) else 0.0
        else:
            bound = (tau**k) * h0
        if math.isfinite(bound) and hk > bound + 1e-9:
            raise CertificationError(f"step {k}: H={hk!r} exceeds certified bound {bound!r}")
        rows.append(MarkovStep(k, hk, _t(hk), tv, bound))
    return MarkovRun(tuple(rows), pi, tau, nonexpansive_only=(tau >= 1.0))
