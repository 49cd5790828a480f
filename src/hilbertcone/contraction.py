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
block (square n <= 40) skips the sort and the bounds: it takes every pair at
once, with the differences laid out column-major so that max and min reduce
over the first axis.  A matrix whose pass runs in several blocks runs it on
``log A`` or ``log A.T``, whichever has the smaller exact sum of row
oscillations, the narrower rows pruning more.  The zero conventions (0/0 -> 1,
0/positive -> 0) are resolved before taking any logarithm: for an allowable
matrix a single zero entry already forces phi = 0.  A valid matrix passes its
checks in two reductions (``min > 0``, ``max < inf``) and a valid kernel in one
span ``max - min``; only an input that fails them looks for the entry to name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, pairwise
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    PositiveVector,
    SimplexPoint,
    _check_entries,
    _floats,
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
_MAX_SEARCH = 100_000  # steps the stationary search walks before it refuses the chain
# verify_contraction runs its trials in blocks of about _BLOCK draws a side, so its memory
# is about one block (~2 MB) whatever the trial count.  The cap bounds its work instead:
# 10,000,000 draws a side take 1.2-1.3 s on a 2-vCPU x86 host (0.5 s at n=250).  More are
# refused before the draw.
_MAX_DRAWS = 10_000_000
_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class NonnegMatrix:
    """An allowable nonnegative matrix: every row and column has a positive entry."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _floats(self.entries, "entry", array=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionError("matrix must be at least 1x1")
        # Every entry finite and positive passes at the cost of two reductions (a nan fails
        # both); only a matrix that fails looks for its first fault.
        if not (a.min() > 0.0 and a.max() < math.inf):
            _check_entries(a, "entry", nonneg=True)
            # Tested with any, not sum: a sum of finite entries can overflow to inf.
            positive = a > 0
            for axis, line in ((1, "row"), (0, "column")):
                if not positive.any(axis=axis).all():
                    raise ValidationError(f"matrix is not allowable: a {line} is identically zero")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _diameter(self) -> float:
        """-log phi, or inf when phi = 0 (any zero entry of an allowable matrix)."""
        a = self.entries
        if a.min() == 0.0:  # the entries are finite and >= 0
            return math.inf
        n = a.shape[0]
        # The pass runs on the rows of log A or of log A.T, chosen by the pair {A, A.T}
        # alone, so phi(A) == phi(A.T) exactly.
        if _rows_per_block(n, n) < n - 1:
            # Several blocks: the orientation with the narrower rows, by the exact sum of
            # their oscillations, prunes more.  Row sums shift the rows of log P, which
            # cancels in L[i] - L[j], but widen every row of log P.T.
            L = np.log(a, order="C")
            rows, cols = math.fsum(osc(L)), math.fsum(osc(L.T))
            if rows != cols:
                return _pairwise_diameter(L if rows < cols else np.ascontiguousarray(L.T))
        # One block, or a tie: the one smaller at the first entry, in C order, where A and
        # A.T differ.  C-order logs are faster.
        k = int(np.argmax(a != a.T))
        return _pairwise_diameter(np.log(a.T if a.flat[k] > a.T.flat[k] else a, order="C"))


def _as_matrix(a) -> NonnegMatrix:
    return a if isinstance(a, NonnegMatrix) else NonnegMatrix(a)


@dataclass(frozen=True, eq=False)
class GridKernel:
    """A strictly positive kernel sampled on a grid, held only as its log values.

    ``log_values[i, j] = log kappa(a_i, x_j)``.  The sample points themselves play no
    part: Birkhoff's coefficient depends only on the values, and :func:`kernel_apply`
    takes masses on the x points, so no quadrature weight enters.
    """

    log_values: np.ndarray

    def __post_init__(self) -> None:
        lv = _floats(self.log_values, "log kernel value", array=True)
        if lv.ndim != 2:
            raise DimensionError("log_values must be a 2-D array")
        if min(lv.shape) < 2:
            raise ValidationError("kernel grid needs at least 2 points on each axis")
        # A finite span means every entry is finite; only a failed test looks for the entry.
        # Then no difference of two log values overflows in the diameter pass; an
        # oscillation of such differences, up to twice the span, can (see _diameter).
        if not math.isfinite(float(lv.max()) - float(lv.min())):
            _check_entries(lv, "log kernel value")
            raise ValidationError("log kernel values must span a finite range (max - min)")
        lv.setflags(write=False)  # the cached diameter relies on it
        object.__setattr__(self, "log_values", lv)

    @cached_property
    def _diameter(self) -> float:
        with np.errstate(over="ignore"):  # an oscillation that overflows leaves the maximum inf
            d = _pairwise_diameter(self.log_values)
        if d == math.inf:
            raise DomainError("kernel diameter -log phi is past float range; "
                              "rescale the log values")
        return d


def _rows_per_block(m: int, p: int) -> int:
    """Rows a block of the diameter pass of an m x p array takes: one block iff >= m - 1."""
    # About 2**16 differences (512 KB) a block: amortises numpy's per-call cost on
    # small matrices, one row at a time on large ones.
    return max(1, (1 << 16) // (m * p))


def _pairwise_diameter(L: np.ndarray) -> float:
    """max over row pairs i < j of osc(L[i] - L[j]): -log phi of exp(L), never -0.0."""
    m, p = L.shape
    # Rows [i, i+b) against later rows.  osc(L[i] - L[j]) == osc(L[j] - L[i]) bit for bit.
    b = _rows_per_block(m, p)
    if b >= m - 1:
        # One block: nothing to prune, so no sort and no bounds.  Every pair at once, as
        # D[k, i, j] = L[i, k] - L[j, k] from the columns of L, so that max and min reduce
        # over the first axis, m * m entries a step, not over a last axis only p long.  The
        # differences are the same and max and min are exact, so the bits are too.
        T = np.ascontiguousarray(L.T)
        D = T[:, :, None] - T[:, None, :]
        return float((D.max(axis=0) - D.min(axis=0)).max())
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
    default_rng (PCG64): the x of every trial take the first ``trials * n`` draws,
    and the y the next ``trials * n``.  ``trials * n`` is at most 10,000,000.  The
    trials run in blocks of ``max(1, 2**15 // n)``, so memory stays about 2 MB (ten
    arrays of one block) whatever ``trials`` is.  The maximum over the blocks is exact,
    but BLAS rounds a row of ``x A^T`` by how it splits the work, so identical seeds
    give identical reports only at a fixed BLAS thread count, and a run of several
    blocks can differ from one unblocked pass in the last bits.
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
    # uniform takes one 64-bit output a double, so y's generator skips x's trials * n.
    rx, ry = np.random.default_rng(seed), np.random.default_rng(seed)
    ry.bit_generator.advance(trials * n)
    rows = max(1, _BLOCK // n)
    max_violation = -math.inf
    for start in range(0, trials, rows):
        shape = (min(rows, trials - start), n)
        X = np.exp(rx.uniform(-3.0, 3.0, size=shape))
        Y = np.exp(ry.uniform(-3.0, 3.0, size=shape))
        t_xy = np.tanh(osc(np.log(Y) - np.log(X)) / 4.0)
        with np.errstate(over="ignore", divide="ignore"):  # such images are rejected below
            LAX, LAY = np.log(X @ A.entries.T), np.log(Y @ A.entries.T)
        if not (np.isfinite(LAX).all() and np.isfinite(LAY).all()):
            raise DomainError("A x overflows or underflows a float for a sampled x; rescale A")
        t_axy = np.tanh(osc(LAY - LAX) / 4.0)
        max_violation = max(max_violation, float((t_axy - tau * t_xy).max()))
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


def _iterates(mu0: SimplexPoint, P: NonnegMatrix) -> Iterator[tuple[float, ...]]:
    """The unit masses of mu_1, mu_2, ... of mu_{k+1} = mu_k P."""
    cur, A = np.asarray(mu0.weights), P.entries
    while True:
        # The bits of cur @ A and cur / cur.sum(), with less per-call dispatch: both products
        # are one BLAS gemv on contiguous arrays, and the divide writes into the new product.
        cur = cur.dot(A)
        cur /= np.add.reduce(cur)
        yield _unit_mass(cur.tolist())


def _stationary(P: NonnegMatrix, mu0: SimplexPoint, keep: int) -> tuple[tuple, Iterator]:
    """The unit masses of pi, the first iterate mu_K with H(mu_{K-1}, mu_K) < 1e-13, and of
    mu_1 .. mu_keep: the at most min(keep, K) the search passed, then the walk past mu_K."""
    walk, kept = _iterates(mu0, P), []
    pairs = pairwise(chain([_unit_mass(mu0.weights)], islice(walk, _MAX_SEARCH)))
    for k, (prev, mass) in enumerate(pairs, 1):
        if k <= keep:
            kept.append(mass)
        # One ratio mu_k[0] / mu_{k-1}[0] proves H(prev, mass) > 1e-13, so only the steps
        # near pi run the full H, and K and pi are those of H on every step.  Both are unit
        # masses that sum to 1 within 2u (see normalize): by the mediant inequality the
        # computed min ratio is at most 1 + 5u and the max at least 1 - 5u, so a ratio more
        # than 1e-12 from 1 leaves H > 9.9e-13 (> 5e-13 in the log-space form, which errs by
        # < 2e-13 an entry).  mass[0] = 0 < prev[0] is unequal supports: H = inf.
        if prev[0] > 0.0 and abs(mass[0] / prev[0] - 1.0) > 1e-12:
            continue
        if _hilbert_weights(prev, mass) < 1e-13:
            return mass, chain(kept, islice(walk, keep - len(kept)))
    h = _hilbert_weights(prev, mass)
    raise DomainError(f"no stationary distribution in {_MAX_SEARCH} steps (last step H={h!r})")


def _rows(mu0: SimplexPoint, masses, pi: tuple[float, ...], tau: float) -> Iterator[MarkovStep]:
    """A checked MarkovStep for mu_0, then for each of ``masses``: H, T and tv to pi and the
    bound tau^k H(mu_0, pi), h0 on row 0 (1.0 * h0, or inf), exceeded by at most 1e-9."""
    h0 = _hilbert_weights(mu0.weights, pi)
    yield MarkovStep(0, h0, _t(h0), _tv(mu0.weights, pi), h0)
    for k, mw in enumerate(masses, 1):
        hk = _hilbert_weights(mw, pi)
        if math.isinf(h0):
            # 0 * inf: a rank-one chain hits pi exactly after one step.
            bound = math.inf if tau > 0.0 else 0.0
        else:
            bound = (tau**k) * h0
        # bound is never nan, and no hk exceeds inf + 1e-9, so an inf bound always holds.
        if hk > bound + 1e-9:
            raise CertificationError(f"step {k}: H={hk!r} exceeds certified bound {bound!r}")
        yield MarkovStep(k, hk, _t(hk), _tv(mw, pi), bound)


def markov_converge(P, mu0: SimplexPoint, steps: int) -> MarkovRun:
    """Track H, T, and TV to the stationary distribution over ``steps`` iterations.

    The chain evolves as mu_{k+1} = mu_k P; the operator acting on measures
    is P^T on column vectors, and the cross-ratio minimum is transpose
    invariant, so tau(P) certifies H(mu_k, pi) <= tau^k H(mu_0, pi).  ``_stationary``
    owns the walk: the search for pi, its one-ratio shortcut and the refusal after
    100,000 steps.  ``_rows`` owns the table: each row, its bound and its certificate.
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
    pi, masses = _stationary(P, mu0, steps)  # pi: the weights normalize() gives for mu_K
    return MarkovRun(tuple(_rows(mu0, masses, pi, tau)), SimplexPoint(pi), tau)
