"""Hilbert projective metric and T-distance on the nonnegative orthant.

Rays in the orthant are represented by :class:`PositiveVector`; the metric
value lives in :class:`ExtendedDistance`, which keeps "infinite" as an
explicit tag rather than a floating-point ``inf`` so that the non-comparable
branch is always deliberate.

Every metric form is one batched primitive, :func:`osc`, the oscillation
``max(d) - min(d)`` of a log-ratio vector ``d``: H, T = tanh(H/4), the
log-density and theta-chart forms, and Birkhoff's ``-log phi``.

Ratio arithmetic runs in log-space whenever direct division would overflow
or underflow, which keeps the metric usable for weights of magnitude up to
``e**700`` in either direction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import truediv

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

__all__ = [
    "ExtendedDistance",
    "INFINITE",
    "PositiveVector",
    "SimplexPoint",
    "LogDensityVector",
    "beta",
    "log_beta",
    "hilbert_distance",
    "t_distance",
    "comparable",
    "normalize",
    "theta_seminorm",
    "hilbert_from_log_densities",
    "osc",
]


@dataclass(frozen=True)
class ExtendedDistance:
    """A nonnegative real distance or the distinguished value Infinite."""

    value: float
    infinite: bool = False

    def __post_init__(self) -> None:
        if self.infinite:
            object.__setattr__(self, "value", math.inf)
            return
        v = float(self.value)
        if math.isnan(v) or not math.isfinite(v) or v < 0.0:
            raise ValidationError(f"finite distance must be >= 0 and finite, got {v!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_finite(self) -> bool:
        return not self.infinite

    def __float__(self) -> float:
        return math.inf if self.infinite else self.value

    def __repr__(self) -> str:
        return "ExtendedDistance.INFINITE" if self.infinite else f"ExtendedDistance({self.value!r})"


INFINITE = ExtendedDistance(0.0, infinite=True)


@dataclass(frozen=True)
class PositiveVector:
    """A ray representative in the nonnegative orthant.

    The support is the exact set ``{i : weights[i] > 0}``; no epsilon is
    applied, so callers who want to treat tiny weights as zero must quantize
    before constructing the vector.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = tuple(map(float, self.weights))
        if len(ws) < 2:
            raise ValidationError("vector needs at least 2 components")
        # Checked in bulk; the loop only names the first bad weight.
        if not (all(map(math.isfinite, ws)) and min(ws) >= 0.0):
            for i, w in enumerate(ws):
                if math.isnan(w) or not math.isfinite(w) or w < 0.0:
                    raise ValidationError(f"weight at index {i} must be finite and >= 0, got {w!r}")
        if not max(ws) > 0.0:
            raise ValidationError("at least one weight must be strictly positive")
        object.__setattr__(self, "weights", ws)

    # For a weight w >= 0, bool(w) is w > 0 (-0.0 included), so 0.0 in weights is
    # the test for a zero weight.
    @property
    def support(self) -> frozenset[int]:
        return frozenset(compress(range(len(self.weights)), self.weights))

    @property
    def full_support(self) -> bool:
        return 0.0 not in self.weights

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SimplexPoint(PositiveVector):
    """A probability vector: nonnegative weights summing to 1 within 1e-12."""

    def __post_init__(self) -> None:
        super().__post_init__()
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1 within 1e-12, got {total!r}")


@dataclass(frozen=True)
class LogDensityVector:
    """Log of a density w.r.t. the counting reference measure; all entries finite."""

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        es = tuple(float(e) for e in self.entries)
        if len(es) < 2:
            raise ValidationError("log-density vector needs at least 2 entries")
        for i, e in enumerate(es):
            if not math.isfinite(e):
                raise ValidationError(f"log-density entry at index {i} must be finite, got {e!r}")
        object.__setattr__(self, "entries", es)

    def __len__(self) -> int:
        return len(self.entries)


def _check_lengths(x: PositiveVector, y: PositiveVector) -> None:
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(y)}")


def log_beta(x: PositiveVector, y: PositiveVector) -> float | None:
    """log of the smallest r with r*x - y in the cone, or None when no such r exists.

    Finite exactly when support(y) is contained in support(x).
    """
    _check_lengths(x, y)
    if not y.support <= x.support:
        return None
    idx = sorted(y.support)
    r = [y.weights[i] / x.weights[i] for i in idx]
    if 0.0 < min(r) and max(r) < math.inf:
        return math.log(max(r))
    return max(math.log(y.weights[i]) - math.log(x.weights[i]) for i in idx)


def beta(x: PositiveVector, y: PositiveVector) -> ExtendedDistance:
    """Max ratio y[j]/x[j] over the support of x; Infinite when y escapes it.

    For ratios beyond float range, use :func:`log_beta` directly; this
    function raises DomainError rather than silently saturating.
    """
    lb = log_beta(x, y)
    if lb is None:
        return INFINITE
    try:
        b = math.exp(lb)
    except OverflowError:
        raise DomainError(f"beta = e^{lb!r} is past float range; use log_beta") from None
    return ExtendedDistance(b)


def osc(D) -> np.ndarray | float:
    """max - min over the last axis, batched over the others; H(x, y) = osc(log y - log x)."""
    D = np.asarray(D, dtype=float)
    return D.max(axis=-1) - D.min(axis=-1)


def _hilbert_weights(xw: Sequence[float], yw: Sequence[float]) -> float:
    """H between equal-length weight tuples (or lists); inf when the supports differ."""
    on = list(map(bool, xw))  # w > 0 for a weight w >= 0
    if on != list(map(bool, yw)):
        return math.inf
    # Canonical operand order makes symmetry exact, not just up to rounding.
    if yw < xw:
        xw, yw = yw, xw
    if not all(on):
        xw, yw = list(compress(xw, on)), list(compress(yw, on))
    # Python floats: converting to numpy costs more, and numpy warns on overflow.
    r = list(map(truediv, yw, xw))
    hi, lo = max(r), min(r)
    # Log-space when a ratio hit 0 or inf (nan if all did) or max/min overflows.
    if 0.0 < lo and hi / lo < math.inf:
        return math.log(hi / lo)
    return float(osc([math.log(b) - math.log(a) for a, b in zip(xw, yw)]))


def hilbert_distance(x: PositiveVector, y: PositiveVector) -> ExtendedDistance:
    """Hilbert projective distance log(beta(x,y) * beta(y,x)).

    Computed over the common support when the supports agree (vectors that
    vanish on the same indices live on the same face of the cone), Infinite
    otherwise.
    """
    _check_lengths(x, y)
    h = _hilbert_weights(x.weights, y.weights)
    return INFINITE if h == math.inf else ExtendedDistance(h)


def _t(h: float) -> float:
    """T from H: tanh(H/4), which is 1.0 at H = inf."""
    return math.tanh(h / 4.0)


def t_distance(x: PositiveVector, y: PositiveVector) -> float:
    """tanh(H/4) with tanh(inf) := 1; always in [0, 1]."""
    return _t(float(hilbert_distance(x, y)))


def comparable(x: PositiveVector, y: PositiveVector) -> bool:
    """True iff each vector is dominated by a positive multiple of the other."""
    _check_lengths(x, y)
    return x.support == y.support


def normalize(x: PositiveVector) -> SimplexPoint:
    """Scale x to unit total mass."""
    try:
        total = math.fsum(x.weights)
    except OverflowError as exc:
        raise DomainError("total mass overflows a float; rescale the weights") from exc
    return SimplexPoint(tuple(map(truediv, x.weights, repeat(total))))  # w / total


def theta_seminorm(f: LogDensityVector) -> float:
    """max(entries) - min(entries): the oscillation seminorm on log-densities."""
    return float(osc(f.entries))


def hilbert_from_log_densities(f: LogDensityVector, g: LogDensityVector) -> float:
    """H via the oscillation of the log-density difference.

    Agrees with :func:`hilbert_distance` on the exponentiated inputs; additive
    constants (reference-measure changes) cancel.
    """
    if len(f) != len(g):
        raise DimensionError(f"length mismatch: {len(f)} vs {len(g)}")
    return float(osc(np.subtract(f.entries, g.entries)))
