"""Birkhoff contraction coefficients for nonnegative matrices and grid kernels.

The coefficient ``tau(A) = (1 - sqrt(phi)) / (1 + sqrt(phi))`` comes from the
minimal cross-ratio ``phi(A) = min A[i,k]*A[j,l] / (A[j,k]*A[i,l])``.  With
``L = log A``, the quadruple minimum is an O(n^3) pass of oscillations

    -log phi = max_{i<j} osc(L[i] - L[j]) = max_{i<j} H(row_i, row_j),

the projective diameter, which stays tractable for n in the thousands; the
exhaustive O(n^4) scan is kept only as a test oracle.  The zero conventions
(0/0 -> 1, 0/positive -> 0) are resolved before taking any logarithm: for an
allowable matrix a single zero entry already forces phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ExtendedDistance,
    INFINITE,
    PositiveVector,
    SimplexPoint,
    _hilbert_weights,
    hilbert_distance,
    normalize,
    osc,
    t_distance,
)
from .errors import CertificationError, DimensionError, ValidationError

__all__ = [
    "NonnegMatrix",
    "GridKernel",
    "ContractionReport",
    "MarkovStep",
    "MarkovRun",
    "birkhoff_phi",
    "birkhoff_tau",
    "projective_diameter",
    "grid_kernel_phi",
    "grid_kernel_tau",
    "kernel_apply",
    "verify_contraction",
    "markov_converge",
]


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
        if not np.isfinite(a).all():
            raise ValidationError("matrix entries must be finite")
        if (a < 0).any():
            i, j = np.argwhere(a < 0)[0]
            raise ValidationError(f"negative entry at ({i}, {j})")
        if (a.sum(axis=1) == 0).any():
            raise ValidationError("matrix is not allowable: a row is identically zero")
        if (a.sum(axis=0) == 0).any():
            raise ValidationError("matrix is not allowable: a column is identically zero")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_matrix(a) -> NonnegMatrix:
    return a if isinstance(a, NonnegMatrix) else NonnegMatrix(np.asarray(a, dtype=float))


@dataclass(frozen=True, eq=False)
class GridKernel:
    """A strictly positive kernel density on a grid, stored as log values.

    ``log_values[i, j] = log kappa(a_grid[i], x_grid[j])``.  The output grid
    must be uniformly spaced since :func:`kernel_apply` integrates the
    reference measure with uniform weights.
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
        if not np.isfinite(lv).all():
            raise ValidationError("log kernel values must be finite")
        if not (np.diff(ag) > 0).all() or not (np.diff(xg) > 0).all():
            raise ValidationError("grids must be strictly increasing")
        steps = np.diff(ag)
        if np.ptp(steps) > 1e-9 * steps[0]:
            raise ValidationError("output grid must be uniformly spaced")
        for arr in (lv, ag, xg):
            arr.setflags(write=False)
        object.__setattr__(self, "log_values", lv)
        object.__setattr__(self, "a_grid", ag)
        object.__setattr__(self, "x_grid", xg)

    @property
    def shape(self) -> tuple[int, int]:
        return self.log_values.shape


def _pairwise_diameter(L: np.ndarray) -> float:
    """max over row pairs i < j of osc(L[i] - L[j]): -log phi of exp(L), never -0.0."""
    m, p = L.shape
    # Rows [i, i+b) against rows >= i, about 2**16 differences (512 KB) a block:
    # amortises numpy's per-call cost on small matrices, one row at a time on
    # large ones.  Pairs seen twice give the same value.
    b = max(1, (1 << 16) // (m * p))
    blocks = (osc(L[i:i + b, None, :] - L[None, i:, :]).max() for i in range(0, m - 1, b))
    return float(max(blocks, default=0.0))


def _diameter(A: NonnegMatrix) -> float:
    """-log phi(A), or inf when phi(A) = 0 (any zero entry of an allowable A)."""
    if (A.entries == 0).any():
        return math.inf
    L = np.log(A.entries)
    # Symmetrized so that phi(A) == phi(A.T) bit-for-bit.
    return max(_pairwise_diameter(L), _pairwise_diameter(L.T))


def _tau(d: float) -> float:
    s = math.exp(-d / 2.0)
    return (1.0 - s) / (1.0 + s)


def _extended(d: float) -> ExtendedDistance:
    return INFINITE if d == math.inf else ExtendedDistance(d)


def birkhoff_phi(A) -> float:
    """Minimal cross-ratio phi(A) in [0, 1]; zero iff A has a zero entry."""
    return math.exp(-_diameter(_as_matrix(A)))


def birkhoff_tau(A) -> float:
    """Birkhoff contraction coefficient (1 - sqrt(phi)) / (1 + sqrt(phi))."""
    return _tau(_diameter(_as_matrix(A)))


def projective_diameter(A) -> ExtendedDistance:
    """Diameter of the cone image, -log phi(A); Infinite unless A is strictly positive."""
    return _extended(_diameter(_as_matrix(A)))


def grid_kernel_phi(K: GridKernel) -> float:
    """Minimal kernel cross-ratio over grid quadruples, in (0, 1]."""
    return math.exp(-_pairwise_diameter(K.log_values))


def grid_kernel_tau(K: GridKernel) -> float:
    """Contraction coefficient of the discretized kernel operator, in [0, 1)."""
    return _tau(_pairwise_diameter(K.log_values))


def kernel_apply(K: GridKernel, mu: PositiveVector) -> PositiveVector:
    """Push mu through the kernel: out[i] = sum_k kappa(a_i, x_k) mu[k] * da."""
    m, p = K.shape
    if len(mu) != p:
        raise DimensionError(f"measure has length {len(mu)}, kernel expects {p}")
    da = float(K.a_grid[1] - K.a_grid[0])
    out = np.exp(K.log_values) @ np.asarray(mu.weights) * da
    return PositiveVector(tuple(out))


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a randomized check of T(Ax, Ay) <= tau(A) T(x, y)."""

    tau: float
    phi: float
    diameter: ExtendedDistance
    trials: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-10


def verify_contraction(A, trials: int, seed: int) -> ContractionReport:
    """Sample random positive pairs and measure the worst contraction violation.

    Components are drawn as exp(uniform(-3, 3)) from numpy's seeded
    default_rng (PCG64), so identical seeds give identical reports.
    """
    A = _as_matrix(A)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    d = _diameter(A)
    tau = _tau(d)
    rng = np.random.default_rng(seed)
    n = A.n
    X = np.exp(rng.uniform(-3.0, 3.0, size=(trials, n)))
    Y = np.exp(rng.uniform(-3.0, 3.0, size=(trials, n)))
    t_xy = np.tanh(osc(np.log(Y) - np.log(X)) / 4.0)
    t_axy = np.tanh(osc(np.log(Y @ A.entries.T) - np.log(X @ A.entries.T)) / 4.0)
    max_violation = float((t_axy - tau * t_xy).max())
    return ContractionReport(
        tau=tau,
        phi=math.exp(-d),
        diameter=_extended(d),
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


def _simplex_of(row: np.ndarray) -> SimplexPoint:
    return normalize(PositiveVector(tuple(row)))


def markov_converge(P, mu0: SimplexPoint, steps: int) -> MarkovRun:
    """Track H, T, and TV to the stationary distribution over ``steps`` iterations.

    The chain evolves as mu_{k+1} = mu_k P; the operator acting on measures
    is P^T on column vectors, and the cross-ratio minimum is transpose
    invariant, so tau(P) certifies H(mu_k, pi) <= tau^k H(mu_0, pi).
    """
    P = _as_matrix(P)
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    row_sums = P.entries.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-10:
        raise ValidationError("matrix is not row-stochastic within 1e-10")
    if len(mu0) != P.n:
        raise DimensionError(f"mu0 has length {len(mu0)}, matrix is {P.n}x{P.n}")

    tau = birkhoff_tau(P)

    cur = np.asarray(mu0.weights)
    for _ in range(100_000):
        nxt = cur @ P.entries
        nxt = nxt / nxt.sum()
        h = _hilbert_weights((cur / math.fsum(cur)).tolist(), (nxt / math.fsum(nxt)).tolist())
        cur = nxt
        if h < 1e-13:
            break
    pi = _simplex_of(cur)

    h0 = float(hilbert_distance(mu0, pi))
    rows: list[MarkovStep] = []
    mu = mu0
    arr = np.asarray(mu0.weights)
    for k in range(steps + 1):
        hk = float(hilbert_distance(mu, pi))
        if math.isinf(h0):
            # 0 * inf: a rank-one chain hits pi exactly after one step.
            bound = math.inf if (tau > 0.0 or k == 0) else 0.0
        else:
            bound = (tau**k) * h0
        if math.isfinite(bound) and hk > bound + 1e-9:
            raise CertificationError(f"step {k}: H={hk!r} exceeds certified bound {bound!r}")
        tv = sum(abs(a - b) for a, b in zip(mu.weights, pi.weights))
        rows.append(MarkovStep(k, hk, t_distance(mu, pi), tv, bound))
        arr = arr @ P.entries
        arr = arr / arr.sum()
        mu = _simplex_of(arr)
    return MarkovRun(tuple(rows), pi, tau, nonexpansive_only=(tau >= 1.0))
