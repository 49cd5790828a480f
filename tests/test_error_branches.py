"""One error branch of each library type or entry point, with its type and message."""

import re

import numpy as np
import pytest

from hilbertcone import (
    BallPolytope,
    DimensionError,
    GridKernel,
    LogDensityVector,
    NonnegMatrix,
    SimplexPoint,
    ThetaVector,
    ValidationError,
    View,
    ball_vertices,
    markov_converge,
    render_svg,
    theta_chart,
    verify_contraction,
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
    "1-D kernel": (lambda: GridKernel(np.zeros(3), np.arange(3.0), np.arange(3.0)),
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
                           ValidationError, "chart index 3 out of range for n=2"),
    "negative chart index": (lambda: ThetaVector(-1, (0.0, 0.0)),
                             ValidationError, "chart index -1 out of range for n=2"),
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
