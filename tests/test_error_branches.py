"""One error branch of each library type or entry point, with its type and message."""

import math
import re

import numpy as np
import pytest

from hilbertcone import (
    BallPolytope,
    DimensionError,
    GridKernel,
    LogDensityVector,
    NonnegMatrix,
    PositiveVector,
    SimplexPoint,
    ThetaVector,
    ValidationError,
    View,
    ball_vertices,
    birkhoff_phi,
    markov_converge,
    osc,
    projective_diameter,
    render_svg,
    theta_chart,
    verify_contraction,
    w1_exact_1d,
)
from hilbertcone.cli import parse_input

CHAIN = [[0.75, 0.25], [0.25, 0.75]]
U2 = SimplexPoint((0.5, 0.5))


def _ball_without_halfspaces():
    ball = ball_vertices(SimplexPoint((0.25, 0.25, 0.5)), 0.5)
    return BallPolytope(ball.center, ball.radius, ball.theta_vertices, ball.simplex_vertices, ())


CASES = {
    "unknown input kind": (lambda: parse_input("[1, 2]", "tensor"),
                           ValidationError, "unknown input kind 'tensor'"),
    "0x0 matrix": (lambda: NonnegMatrix(np.zeros((0, 0))),
                   DimensionError, "matrix must be at least 1x1"),
    "1-D kernel": (lambda: GridKernel(np.zeros(3)),
                   DimensionError, "log_values must be a 2-D array"),
    "no trials": (lambda: verify_contraction(CHAIN, 0, 0),
                  ValidationError, "trials must be >= 1"),
    "negative steps": (lambda: markov_converge(CHAIN, U2, -1),
                       ValidationError, "steps must be >= 0"),
    "mu0 of the wrong length": (lambda: markov_converge(CHAIN, SimplexPoint((0.2, 0.3, 0.5)), 3),
                                DimensionError, "mu0 has length 3, matrix is 2x2"),
    "simplex point whose total overflows": (
        lambda: SimplexPoint((1e308, 1e308)),
        ValidationError, "weights must sum to 1 within 1e-12, got inf"),
    "one log-density entry": (lambda: LogDensityVector((0.0,)),
                              ValidationError, "log-density vector needs at least 2 entries"),
    "chart index past n": (lambda: ThetaVector(3, (0.0, 0.0)),
                           ValidationError, "chart index 3 out of range 0..2"),
    "negative chart index": (lambda: ThetaVector(-1, (0.0, 0.0)),
                             ValidationError, "chart index -1 out of range 0..2"),
    "non-integer chart index": (lambda: ThetaVector(0.5, (1.0, 2.0)),
                                ValidationError, "chart index must be an integer, got 0.5"),
    "float chart index in theta_chart": (lambda: theta_chart(U2, 1.0), ValidationError,
                                         "chart index must be an integer, got 1.0"),
    "halfspace count": (_ball_without_halfspaces,
                        ValidationError, "ball on S^2 must have 6 halfspaces"),
    "rendering an S^3 ball": (
        lambda: render_svg([ball_vertices(SimplexPoint((0.25,) * 4), 0.5)], View.SIMPLEX_2D),
        DimensionError, "rendering is implemented for balls on S^2 only"),
}


def test_chart_index_is_an_integer():
    # operator.index decides: numpy integers pass, an integral float does not.
    assert ThetaVector(np.int64(1), (0.0,)).chart_index == 1
    assert theta_chart(U2, np.int32(1)).coords == (0.0,)
    with pytest.raises(ValidationError, match="must be an integer, got 1.0"):
        ThetaVector(1.0, (0.0,))


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_error_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


INF, NAN = math.inf, math.nan
U3 = SimplexPoint((0.25, 0.25, 0.5))
S4 = SimplexPoint((0.25,) * 4)

# Each input holds two bad entries; the refusal names the first (a non-finite entry
# before a negative one).
FIRST_BAD_ENTRY = {
    "weight not finite": (lambda: PositiveVector((1.0, INF, 2.0, NAN)),
                          "weight at index 1 is not finite: inf"),
    "weight negative": (lambda: PositiveVector((1.0, -1.0, 2.0, -3.0)),
                        "weight at index 1 is negative: -1.0"),
    "weight negative, then not finite": (lambda: PositiveVector((-1.0, 1.0, -INF)),
                                         "weight at index 2 is not finite: -inf"),
    "simplex weight": (lambda: SimplexPoint((0.5, NAN, 0.5, INF)),
                       "weight at index 1 is not finite: nan"),
    "log-density entry": (lambda: LogDensityVector((0.0, -INF, 1.0, INF)),
                          "log-density entry at index 1 is not finite: -inf"),
    "matrix entry not finite": (
        lambda: NonnegMatrix([[1.0, 1.0, NAN], [1.0, 1.0, 1.0], [INF, 1.0, 1.0]]),
        "entry at (0, 2) is not finite: nan"),
    "matrix entry negative": (
        lambda: NonnegMatrix([[1.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -3.0]]),
        "entry at (1, 1) is negative: -2.0"),
    "log kernel value": (lambda: GridKernel([[0.0, 0.0, 0.0], [0.0, 0.0, INF], [-INF, 0.0, 0.0]]),
                         "log kernel value at (1, 2) is not finite: inf"),
    "theta coordinate": (lambda: ThetaVector(0, (0.0, NAN, INF)),
                         "theta coordinate at index 1 is not finite: nan"),
    "support point not finite": (lambda: w1_exact_1d([0.0, INF, 2.0, NAN], S4, S4),
                                 "support point at index 1 is not finite: inf"),
    "support points not increasing": (
        lambda: w1_exact_1d([0.0, 2.0, 1.0, 0.5], S4, S4),
        "support points must be strictly increasing: index 2 holds 1.0 after 2.0"),
    "chart index of a theta vector": (lambda: ThetaVector(3, (0.0, 0.0)),
                                      "chart index 3 out of range 0..2"),
    "chart index of theta_chart": (lambda: theta_chart(U3, 3), "chart index 3 out of range 0..2"),
    "negative chart index of theta_chart": (lambda: theta_chart(U3, -1),
                                            "chart index -1 out of range 0..2"),
}


@pytest.mark.parametrize("call, message", FIRST_BAD_ENTRY.values(), ids=FIRST_BAD_ENTRY.keys())
def test_refusal_names_the_first_bad_entry(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


# Each input holds two entries that are not numbers (or two ragged rows); the refusal names
# the first, in the form above, where float() or numpy failed to convert the input.  A str or
# bytes is refused whole, not read as its characters, and osc refuses an empty last axis.
NOT_A_NUMBER = {
    "weight": (lambda: PositiveVector((1.0, "a", None)), "weight at index 1 is not a number: 'a'"),
    "weights not a sequence": (lambda: PositiveVector(5), "expected a sequence of numbers, got 5"),
    "log-density entry": (lambda: LogDensityVector((None, 1.0, "b")),
                          "log-density entry at index 0 is not a number: None"),
    "theta coordinate": (lambda: ThetaVector(0, ("a", "b")),
                         "theta coordinate at index 0 is not a number: 'a'"),
    "matrix entry": (lambda: NonnegMatrix([[1.0, 1.0], ["x", "y"]]),
                     "entry at (1, 0) is not a number: 'x'"),
    "ragged matrix": (lambda: NonnegMatrix([[1.0, 2.0], [3.0], [4.0]]),
                      "ragged array: row 1 has 1 entries, expected 2"),
    "ragged matrix through birkhoff_phi": (lambda: birkhoff_phi([[1.0, 2.0], [3.0], [4.0]]),
                                           "ragged array: row 1 has 1 entries, expected 2"),
    "log kernel value": (lambda: GridKernel([["a", "b"], ["c", "d"]]),
                         "log kernel value at (0, 0) is not a number: 'a'"),
    "ragged kernel": (lambda: GridKernel([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]]),
                      "ragged array: row 1 has 3 entries, expected 2"),
    "support point": (lambda: w1_exact_1d([0.0, "a", 2.0, None], S4, S4),
                      "support point at index 1 is not a number: 'a'"),
    "weights as str": (lambda: PositiveVector("12"), "expected a sequence of numbers, got '12'"),
    "weights as bytes": (lambda: PositiveVector(b"12"),
                         "expected a sequence of numbers, got b'12'"),
    "simplex weights as str": (lambda: SimplexPoint("1"),
                               "expected a sequence of numbers, got '1'"),
    "simplex weights as bytes": (lambda: SimplexPoint(b"1"),
                                 "expected a sequence of numbers, got b'1'"),
    "log-density entries as str": (lambda: LogDensityVector("123"),
                                   "expected a sequence of numbers, got '123'"),
    "log-density entries as bytes": (lambda: LogDensityVector(b"123"),
                                     "expected a sequence of numbers, got b'123'"),
    "theta coordinates as str": (lambda: ThetaVector(0, "12"),
                                 "expected a sequence of numbers, got '12'"),
    "theta coordinates as bytes": (lambda: ThetaVector(0, b"12"),
                                   "expected a sequence of numbers, got b'12'"),
    "support points as str": (lambda: w1_exact_1d("01", U2, U2),
                              "expected a sequence of numbers, got '01'"),
    "support points as bytes": (lambda: w1_exact_1d(b"01", U2, U2),
                                "expected a sequence of numbers, got b'01'"),
    "osc of a ragged list": (lambda: osc([[1.0, 2.0], [3.0], [4.0]]),
                             "ragged array: row 1 has 1 entries, expected 2"),
    "osc of non-numbers": (lambda: osc(["a", "b"]), "entry at index 0 is not a number: 'a'"),
    "osc of nothing": (lambda: osc([]), "expected an entry on the last axis, got shape (0,)"),
    "osc of a str": (lambda: osc("12"), "expected a sequence of numbers, got '12'"),
    "osc of bytes": (lambda: osc(b"12"), "expected a sequence of numbers, got b'12'"),
    "osc of a scalar": (lambda: osc(5.0), "expected an entry on the last axis, got shape ()"),
    "osc of a 0-d array": (lambda: osc(np.array(5.0)),
                           "expected an entry on the last axis, got shape ()"),
}


@pytest.mark.parametrize("call, message", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_refusal_names_the_first_entry_that_is_not_a_number(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def _ones_but(at, value, n=4):
    a = np.ones((n, n))
    a[at] = value
    return a


# A valid matrix passes its checks in two reductions and a valid kernel in one span; each input
# here fails them by one entry, and the full checker gives the message it gave before.
ONE_ENTRY_OFF = {
    "matrix entry nan, last": (lambda: NonnegMatrix(_ones_but((3, 3), NAN)),
                               ValidationError, "entry at (3, 3) is not finite: nan"),
    "matrix entry inf": (lambda: NonnegMatrix(_ones_but((1, 2), INF)),
                         ValidationError, "entry at (1, 2) is not finite: inf"),
    "matrix entry -inf": (lambda: NonnegMatrix(_ones_but((2, 0), -INF)),
                          ValidationError, "entry at (2, 0) is not finite: -inf"),
    "matrix entry negative": (lambda: NonnegMatrix(_ones_but((0, 3), -1e-300)),
                              ValidationError, "entry at (0, 3) is negative: -1e-300"),
    "zero that empties a row": (lambda: NonnegMatrix([[0.0, 0.0], [1.0, 1.0]]), ValidationError,
                                "matrix is not allowable: a row is identically zero"),
    "zero that empties a column": (lambda: NonnegMatrix([[0.0, 1.0], [0.0, 1.0]]),
                                   ValidationError,
                                   "matrix is not allowable: a column is identically zero"),
    "zero 1x1 matrix": (lambda: NonnegMatrix([[0.0]]), ValidationError,
                        "matrix is not allowable: a row is identically zero"),
    "log kernel value nan, last": (lambda: GridKernel(_ones_but((3, 3), NAN)),
                                   ValidationError, "log kernel value at (3, 3) is not finite: nan"),
    "log kernel value -inf": (lambda: GridKernel(_ones_but((0, 1), -INF)),
                              ValidationError, "log kernel value at (0, 1) is not finite: -inf"),
    "log kernel value inf beside an overflowing span": (
        lambda: GridKernel([[1.7e308, -1.7e308], [INF, 0.0]]),
        ValidationError, "log kernel value at (1, 0) is not finite: inf"),
    "overflowing span": (lambda: GridKernel([[1.7e308, -1.7e308], [0.0, 0.0]]), ValidationError,
                         "log kernel values must span a finite range (max - min)"),
}


@pytest.mark.parametrize("call, error, message", ONE_ENTRY_OFF.values(), ids=ONE_ENTRY_OFF.keys())
def test_one_entry_off_gets_the_full_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("value", [5e-324, 1.7e308, 0.0, -0.0])
def test_one_extreme_entry_is_accepted(value):
    # Subnormal and huge entries pass the two reductions; a zero fails them, is checked in
    # full and is accepted, with diameter inf.
    m = NonnegMatrix(_ones_but((3, 2), value))
    assert m.entries[3, 2] == value
    assert (projective_diameter(m) == INF) is (value == 0.0)
