"""Assertions shared by the test modules."""

import math


def assert_within_error(gap, error, note=""):
    """|gap| <= error against a reported error, which must be finite: an
    infinite or NaN error bounds nothing, so the comparison fails instead of
    passing whatever the gap."""
    assert math.isfinite(error), f"the reported error {error!r} is not finite {note}"
    assert abs(gap) <= error, f"|gap| = {abs(gap):.3g} exceeds the reported error {error:.3g} {note}"
