"""Hilbert projective metric and T-distance on the nonnegative orthant.

Rays in the orthant are represented by :class:`PositiveVector`; the metric
value is a float in [0, inf], ``inf`` exactly for a non-comparable pair.

The batched metric forms (log-density, theta chart, Birkhoff's ``-log phi``)
use one primitive, :func:`osc`, the oscillation ``max(d) - min(d)`` of a
log-ratio vector ``d``.  Scalar beta and H share one ratio pass on Python
floats, where numpy's per-call cost would dominate at small n.  It runs in
log-space (libm logs) whenever direct division would overflow or underflow,
which keeps the metric usable for weights up to ``e**700`` in either direction.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterable, Sequence, Sized
from dataclasses import dataclass
from itertools import compress, repeat
from operator import sub, truediv

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

__all__ = [
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


def _check_entries(values, noun: str, nonneg: bool = False) -> None:
    """Refuse the first entry that is not finite, else (with ``nonneg``) the first negative one.

    ``values`` is a 1-D or 2-D array, or a tuple of floats tested in pure Python (at small n,
    numpy's per-call cost would dominate).  Only a failed test looks for the entry.
    """
    if isinstance(values, tuple):
        if all(map(math.isfinite, values)) and not (nonneg and min(values) < 0.0):
            return
    elif np.isfinite(values).all() and not (nonneg and (values < 0.0).any()):
        return
    a = np.asarray(values, dtype=float)
    for bad, what in ((~np.isfinite(a), "not finite"), (a < 0.0, "negative")):
        if bad.any():
            at = tuple(map(int, np.argwhere(bad)[0]))
            where = f"index {at[0]}" if a.ndim == 1 else str(at)
            raise ValidationError(f"{noun} at {where} is {what}: {float(a[at])!r}")


def _not_numbers(values, noun: str) -> ValidationError:
    """The refusal of ``values`` that :func:`_floats` or :func:`osc` failed to convert: a str or
    bytes, else the first row whose length is not row 0's, else the first entry that is not a
    number, named as :func:`_check_entries` names it."""
    try:
        rows = list(values)
    except TypeError:
        rows = None
    if rows is None or isinstance(values, (str, bytes, bytearray)):
        return ValidationError(f"expected a sequence of numbers, got {reprlib.repr(values)}")
    if rows and all(isinstance(r, (list, tuple)) or getattr(r, "ndim", 0) == 1 for r in rows):
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                return ValidationError(f"ragged array: row {i} has {len(row)} entries, "
                                       f"expected {len(rows[0])}")
        entries = [((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row)]
    else:
        entries = [((i,), v) for i, v in enumerate(rows)]
    for at, v in entries:
        try:
            float(v)
        except (TypeError, ValueError):
            where = f"index {at[0]}" if len(at) == 1 else str(at)
            return ValidationError(f"{noun} at {where} is not a number: {reprlib.repr(v)}")
    return ValidationError(f"expected an array of numbers, got {reprlib.repr(values)}")


def _floats(values, noun: str, array: bool = False) -> tuple[float, ...] | np.ndarray:
    """``values`` as a tuple of floats, or as a new float array if ``array``; a str or bytes is
    refused, not read as its characters.  A tuple, the common case, skips that (slower) test."""
    if isinstance(values, tuple) or not isinstance(values, (str, bytes, bytearray)):
        try:
            return np.array(values, dtype=float) if array else tuple(map(float, values))
        except (TypeError, ValueError):
            pass
    raise _not_numbers(values, noun)


def _check_points(points, n: int, noun: str, of: str) -> np.ndarray:
    """``points`` as a float array, refused unless they are n finite, strictly increasing values."""
    xs = np.array(_floats(points, noun))
    if len(xs) != n:
        raise DimensionError(f"{len(xs)} {noun}s for {of} of length {n}")
    _check_entries(xs, noun)
    if not (xs[1:] > xs[:-1]).all():  # compared, not subtracted: a step can overflow
        i = int(np.argmax(xs[1:] <= xs[:-1])) + 1
        raise ValidationError(f"{noun}s must be strictly increasing: "
                              f"index {i} holds {float(xs[i])!r} after {float(xs[i - 1])!r}")
    return xs


@dataclass(frozen=True)
class PositiveVector:
    """A ray representative in the nonnegative orthant.

    The support is the exact set ``{i : weights[i] > 0}``; no epsilon is
    applied, so callers who want to treat tiny weights as zero must quantize
    before constructing the vector.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = _floats(self.weights, "weight")
        if len(ws) < 2:
            raise ValidationError("vector needs at least 2 components")
        _check_entries(ws, "weight", nonneg=True)
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
        try:
            total = math.fsum(self.weights)
        except OverflowError:  # the weights are finite and >= 0, so the sum is past float range
            total = math.inf
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1 within 1e-12, got {total!r}")


@dataclass(frozen=True)
class LogDensityVector:
    """Log of a density w.r.t. the counting reference measure; all entries finite."""

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        es = _floats(self.entries, "log-density entry")
        if len(es) < 2:
            raise ValidationError("log-density vector needs at least 2 entries")
        _check_entries(es, "log-density entry")
        object.__setattr__(self, "entries", es)

    def __len__(self) -> int:
        return len(self.entries)


def _check_lengths(x: Sized, y: Sized) -> None:
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(y)}")


def _beta_range(x: PositiveVector, y: PositiveVector) -> tuple[float, bool]:
    """(max y/x, False) over support(y), or (max log y - log x, True); inf off x's support."""
    _check_lengths(x, y)
    xw, yw = x.weights, y.weights
    if not all(compress(xw, yw)):  # x > 0 wherever y > 0; a weight w >= 0 is true iff w > 0
        return math.inf, True
    hi, _, in_logs = _ratio_range(list(compress(xw, yw)), list(compress(yw, yw)))
    return hi, in_logs


def log_beta(x: PositiveVector, y: PositiveVector) -> float:
    """log of the smallest r with r*x - y in the cone, or inf when no such r exists.

    Finite exactly when support(y) is contained in support(x).
    """
    hi, in_logs = _beta_range(x, y)
    return hi if in_logs else math.log(hi)


def beta(x: PositiveVector, y: PositiveVector) -> float:
    """Max ratio y[j]/x[j] over the support of x; inf when y escapes it.

    For ratios beyond float range, use :func:`log_beta` directly; this
    function raises DomainError rather than silently saturating.
    """
    hi, in_logs = _beta_range(x, y)
    if in_logs:
        try:
            hi = math.exp(hi)
        except OverflowError:
            raise DomainError(f"beta = e^{hi!r} is past float range; use log_beta") from None
    return hi


def osc(D) -> np.ndarray | float:
    """max - min over the last axis, batched over the others; H(x, y) = osc(log y - log x)."""
    if isinstance(D, (str, bytes, bytearray)):  # numpy would read "12" as the number 12
        raise _not_numbers(D, "entry")
    try:
        D = np.asarray(D, dtype=float)
    except (TypeError, ValueError):
        raise _not_numbers(D, "entry") from None
    if not (D.shape and D.shape[-1]):  # numpy reduces a 0-d array over axis -1 to itself
        raise ValidationError(f"expected an entry on the last axis, got shape {D.shape}")
    return D.max(axis=-1) - D.min(axis=-1)


def _ratio_range(xw: Sequence[float], yw: Sequence[float]) -> tuple[float, float, bool]:
    """max and min of y/x over positive weights, or of libm log y - log x if ``in_logs``."""
    r = list(map(truediv, yw, xw))
    hi, lo = max(r), min(r)
    # Log-space when a ratio hit 0 or inf (nan if all did) or max/min overflows.
    if 0.0 < lo and hi / lo < math.inf:
        return hi, lo, False
    d = [math.log(b) - math.log(a) for a, b in zip(xw, yw)]
    return max(d), min(d), True


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
    hi, lo, in_logs = _ratio_range(xw, yw)
    return hi - lo if in_logs else math.log(hi / lo)


def hilbert_distance(x: PositiveVector, y: PositiveVector) -> float:
    """Hilbert projective distance log(beta(x,y) * beta(y,x)).

    Computed over the common support when the supports agree (vectors that
    vanish on the same indices live on the same face of the cone), inf
    otherwise.
    """
    _check_lengths(x, y)
    return _hilbert_weights(x.weights, y.weights)


def _t(h: float) -> float:
    """T from H: tanh(H/4), which is 1.0 at H = inf."""
    return math.tanh(h / 4.0)


def _tv(aw: Iterable[float], bw: Iterable[float]) -> float:
    """The ell^1 distance between two weight sequences, correctly rounded by ``fsum``."""
    return math.fsum(map(abs, map(sub, aw, bw)))


def t_distance(x: PositiveVector, y: PositiveVector) -> float:
    """tanh(H/4) with tanh(inf) := 1; always in [0, 1]."""
    return _t(hilbert_distance(x, y))


def comparable(x: PositiveVector, y: PositiveVector) -> bool:
    """True iff each vector is dominated by a positive multiple of the other."""
    _check_lengths(x, y)
    return list(map(bool, x.weights)) == list(map(bool, y.weights))


def _unit_mass(ws: Sequence[float]) -> tuple[float, ...]:
    """w / fsum(ws) for each weight w, by IEEE division: the weights of normalize()."""
    try:
        total = math.fsum(ws)
    except OverflowError as exc:
        raise DomainError("total mass overflows a float; rescale the weights") from exc
    return tuple(map(truediv, ws, repeat(total)))


def normalize(x: PositiveVector) -> SimplexPoint:
    """Scale x to unit total mass.

    The SimplexPoint is built without its checks, which the quotients always pass.  x holds
    n >= 2 finite weights w >= 0, one positive, so their exact sum S is positive.
    ``_unit_mass`` refuses an S past float range, else divides by ``T = fsum = S(1 + e)``,
    |e| <= u = 2**-53.  So each quotient ``fl(w / T)`` is finite and >= 0, and that of the
    largest w, at least 1/(n(1 + u)), is positive.  Each is ``(w / T)(1 + d)``, |d| <= u,
    or within 2**-1075 of ``w / T`` where it is subnormal, so the quotients sum exactly to
    ``(1 + d')/(1 + e)``, |d'| <= u, up to n 2**-1075: within 2u of 1, and their fsum
    within 3u, far inside SimplexPoint's 1e-12.
    """
    p = object.__new__(SimplexPoint)
    object.__setattr__(p, "weights", _unit_mass(x.weights))
    return p


def _osc_of_difference(f: Sequence[float], g: Sequence[float] | float) -> float:
    """osc(f - g), refused with DomainError where a difference overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves osc inf or nan
        h = float(osc(np.subtract(f, g)))
    if not math.isfinite(h):
        raise DomainError("oscillation of the log-densities is past float range")
    return h


def theta_seminorm(f: LogDensityVector) -> float:
    """max(entries) - min(entries): the oscillation seminorm on log-densities."""
    return _osc_of_difference(f.entries, 0.0)


def hilbert_from_log_densities(f: LogDensityVector, g: LogDensityVector) -> float:
    """H via the oscillation of the log-density difference.

    Agrees with :func:`hilbert_distance` on the exponentiated inputs; additive
    constants (reference-measure changes) cancel.
    """
    _check_lengths(f, g)
    return _osc_of_difference(f.entries, g.entries)
