import math

import pytest

from assertions import assert_within_error


def test_gap_within_a_finite_error_passes():
    assert_within_error(1e-9 - 1e-9j, 2e-9)
    assert_within_error(0.0, 0.0)


def test_gap_beyond_the_error_fails():
    with pytest.raises(AssertionError, match="exceeds"):
        assert_within_error(3e-9, 2e-9, note="(N, cusp)")


@pytest.mark.parametrize("error", [math.inf, math.nan])
def test_non_finite_error_fails(error):
    # |gap| <= inf holds for every gap, so a comparison against it checks nothing
    with pytest.raises(AssertionError, match="not finite"):
        assert_within_error(0.0, error)
