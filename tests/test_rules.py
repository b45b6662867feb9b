"""The exact error of every validity rule: parameters and density matrices."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from lambda_capacity.channel import DensityMatrix, NotDensityMatrix, _density_checks
from lambda_capacity.lambda_system import PARAM_RULES, InvalidAlphas, InvalidAngle, LambdaParams

# one violating value per parameter rule, in rule order, then a point that
# breaks two rules: the earlier rule is the one reported
PARAM_CASES = [
    ({"gamma23": math.inf}, InvalidAlphas, "decay rates must be finite"),
    ({"gamma13": -1.0}, InvalidAlphas, "need gamma13, gamma23 >= 0 with a positive sum, got (-1.0, 1.0)"),
    ({"gamma_t": math.nan}, InvalidAlphas, "gamma_t must lie in [0, inf], got nan"),
    ({"phi": -math.inf}, InvalidAngle, "theta and phi must be finite, got (3.141592653589793, -inf)"),
    ({"chi": 3.0}, InvalidAngle, "chi must lie in [0, pi/2], got 3.0"),
    ({"delta_R": 0.2}, ValueError, "only zero two-photon detuning is supported"),
    ({"gamma13": 0.0, "gamma23": 0.0, "chi": -0.5}, InvalidAlphas,
     "need gamma13, gamma23 >= 0 with a positive sum, got (0.0, 0.0)"),
]

MAX = sys.float_info.max
# one violating matrix per density check, in check order, then one that breaks two
DENSITY_CASES = [
    (np.ones((2, 3)) / 2.0, "expected a 2x2 matrix, got shape (2, 3)"),
    (np.array([[0.5, math.nan], [0.0, 0.5]]), "matrix contains NaN or Inf entries"),
    (np.array([[0.5, 0.3], [0.1, 0.5]]), "Hermiticity deviation 2.000e-01"),
    (0.4 * np.eye(2), "trace (0.8+0j) is not 1"),
    (np.diag([1.5, -0.5]), "negative eigenvalue -5.000e-01"),
    (np.array([[0.7, 0.3], [0.1, 0.7]]), "Hermiticity deviation 2.000e-01"),
    # a coherence at the float limit: the lowest eigenvalue overflows to -inf, not NaN
    (np.array([[0.5, 1e308 + 1e308j], [1e308 - 1e308j, 0.5]]), "negative eigenvalue -1.414e+308"),
    (np.array([[0.5, MAX + MAX * 1j], [MAX - MAX * 1j, 0.5]]), "negative eigenvalue -inf"),
]


def test_cases_break_each_rule_in_turn():
    # case k breaks rule k alone
    defaults = vars(LambdaParams())
    for k, (values, _, _) in enumerate(PARAM_CASES[:len(PARAM_RULES)]):
        point = SimpleNamespace(**{**defaults, **values})
        assert [i for i, (_, _, holds) in enumerate(PARAM_RULES) if not holds(point)] == [k]
    # case k fails check k first (a non-finite matrix fails later checks too)
    for k, (matrix, _) in enumerate(DENSITY_CASES[1:5]):
        (a, b), (c, d) = np.asarray(matrix, dtype=complex).tolist()
        assert [i for i, (passes, _) in enumerate(_density_checks(a, b, c, d)) if not passes][0] == k


@pytest.mark.parametrize("values, error, message", PARAM_CASES)
def test_parameter_rule_messages(values, error, message):
    with pytest.raises(error) as caught:
        LambdaParams(**values)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("matrix, message", DENSITY_CASES)
def test_density_check_messages(matrix, message):
    with pytest.raises(NotDensityMatrix) as caught:
        DensityMatrix(matrix)
    assert type(caught.value) is NotDensityMatrix
    assert str(caught.value) == message

