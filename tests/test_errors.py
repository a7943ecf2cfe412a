"""The one table of single-number rules and the check that reads it."""

import math
import re
import sys

import numpy as np
import pytest

from cavlink import (
    InvalidInputError,
    MechanicalMode,
    add_noise,
    coupling_for_damping,
    electromechanical_damping,
    multi_mode_omit,
    s21,
)
from cavlink.errors import _RULES, _require

from conftest import merged_grid, reference_params

VALUES = (0.0, -0.0, 5e-324, 0.5, 1.0, sys.float_info.max, math.nan, math.inf, -math.inf)
# One verdict per entry of VALUES, in order: 1 passes the rule, 0 fails it.
EXPECTED = {
    "positive": "001111000",
    "non-negative": "111111000",
    "finite": "111111000",
    "in (0, 1)": "001100000",
    "in [0, 1]": "111110000",
    "in [0, 1)": "111100000",
}


def test_every_rule_is_expected():
    assert set(_RULES) == set(EXPECTED)


@pytest.mark.parametrize("rule", EXPECTED)
def test_rule_on_scalars_and_arrays(rule):
    expected = [flag == "1" for flag in EXPECTED[rule]]
    assert [bool(_RULES[rule](value)) for value in VALUES] == expected
    assert _RULES[rule](np.array(VALUES)).tolist() == expected


@pytest.mark.parametrize("rule", EXPECTED)
def test_require_refuses_exactly_what_the_rule_fails(rule):
    for value, flag in zip(VALUES, EXPECTED[rule]):
        if flag == "1":
            _require("x", value, rule)
        else:
            with pytest.raises(InvalidInputError, match=f"^x must be {re.escape(rule)}"):
                _require("x", value, rule)
    # an array passes only if every entry does
    passing = np.array([v for v, flag in zip(VALUES, EXPECTED[rule]) if flag == "1"])
    _require("x", passing, rule)
    with pytest.raises(InvalidInputError):
        _require("x", np.append(passing, math.nan), rule)


@pytest.mark.parametrize("args, message", [
    (("g", -1.0, "non-negative", "rad/s"), "g must be non-negative and finite (rad/s), got -1.0"),
    (("omega", math.inf, "positive"), "omega must be positive and finite, got inf"),
    (("shift", math.nan, "finite"), "shift must be finite, got nan"),
    (("fraction", 1.0, "in [0, 1)"), "fraction must be in [0, 1), got 1.0"),
], ids=["unit", "unbounded", "finite", "interval"])
def test_require_message(args, message):
    with pytest.raises(InvalidInputError) as caught:
        _require(*args)
    assert str(caught.value) == message


def test_non_finite_refusals_say_finite():
    """These four named the sign rule alone for a value that is non-finite."""
    params = reference_params()
    trace = s21(params, merged_grid(params))
    calls = [
        lambda: electromechanical_damping(math.inf, 1.0),
        lambda: coupling_for_damping(math.inf, 1.0),
        lambda: multi_mode_omit(params, (MechanicalMode(1e6),), (math.inf,), 1.0, trace.freqs),
        lambda: add_noise(trace, math.nan, 0),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="non-negative and finite"):
            call()
