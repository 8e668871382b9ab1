import hashlib

import numpy as np
import pytest

from rsmoments import lseries as ls
from rsmoments import shifted as sh
from rsmoments.specfun import DomainError


@pytest.fixture(scope="module")
def delta():
    return ls.delta_newform(44000)


def test_delta_fixture_matches_recorded_fingerprint(delta):
    # SHA-256 recorded from the Kronecker-substitution generator
    text = ",".join(map(str, delta.a_exact)).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "d939d8192fee59b96a1a041bd52e4d83395808344e8890d483cb061e233145e1"
    )


class TestShiftedD:
    def test_real_in_real_out(self, delta):
        v, _ = sh.shifted_D(2.5, 3, delta, delta, 10_000)
        assert abs(v.imag) < 1e-13 * abs(v)

    def test_truncations_within_bounds(self, delta):
        d1 = sh.shifted_D(2.5, 1, delta, delta, 10_000)
        d2 = sh.shifted_D(2.5, 1, delta, delta, 40_000)
        assert abs(d1.value - d2.value) <= d1.error + d2.error

    def test_large_shift_first_term_dominance(self, delta):
        # at large Re w the n = 1 term a(m+1) b(1) dominates
        m = 10_000
        w = 12.0
        val, _ = sh.shifted_D(w, m, delta, delta, 2_000)
        first = delta.a[m] * delta.a[0]
        assert abs(val - first) < 0.01 * abs(first)

    def test_region_check(self, delta):
        with pytest.raises(DomainError):
            sh.shifted_D(0.9, 1, delta, delta, 100)


class TestZSeries:
    REQ = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=1000, M_inner=1500)

    def test_dual_path_agreement(self, delta):
        z1 = sh.Z_series_double(self.REQ, delta, delta)
        z2 = sh.Z_series(self.REQ, delta, delta)
        assert abs(z1.value - z2.value) < 1e-10 * abs(z1.value)

    def test_region_flags(self, delta):
        bad = sh.ShiftedSeriesRequest(s=3.0, v=7.1, t=0.7, N=1, M_outer=10, M_inner=10)
        assert not bad.region_ok(12)
        with pytest.raises(DomainError):
            sh.Z_series(bad, delta, delta)

    def test_t_zero_weights_reduce_to_divisor_count(self):
        # at N = 1, t = 0 the outer weights are sigma_0(m)
        from rsmoments import arith

        w = sh._sigma_weights(1, 0.0, 200)
        for m in (1, 2, 6, 60, 200):
            assert abs(w[m - 1] - arith.sigma_complex(m, 0)) < 1e-12

    def test_monotone_tail(self, delta):
        r1 = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=1000, M_inner=1500)
        r2 = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=4000, M_inner=1500)
        za = sh.Z_series(r1, delta, delta)
        zb = sh.Z_series(r2, delta, delta)
        assert za.error >= 2.0 * zb.error


class TestM3:
    def test_dual_path(self, delta):
        m1 = sh.M3_series(2.2, 2.7, 0.7, delta, delta, 1, 800, 20_000)
        m2 = sh.M3_series_rearranged(2.2, 2.7, 0.7, delta, delta, 1, 800, 20_000)
        assert abs(m1.value - m2.value) < 1e-9 * abs(m1.value)

    def test_real_inputs_real_output(self, delta):
        m = sh.M3_series(2.2, 2.7, 0.0, delta, delta, 1, 200, 5_000)
        assert abs(m.value.imag) < 1e-12 * abs(m.value)

    def test_level_two_support(self):
        # at N = 2 the sigma weights keep every m (rad(2) = 2 divides all
        # multiplicity conditions trivially), but at N = 4 odd m drop out
        f = ls.divisor_model_newform(0.52, 12, 4, 6000)
        g = ls.divisor_model_newform(1.13, 12, 4, 6000)
        w4 = sh._sigma_weights(4, 0.7, 100)
        assert np.all(w4[::2] == 0)  # odd m (index m-1 even) vanish
        m = sh.M3_series(2.2, 2.7, 0.7, f, g, 4, 100, 4_000)
        assert np.isfinite(m.value.real)

    def test_region_check(self, delta):
        with pytest.raises(DomainError):
            sh.M3_series(0.9, 2.7, 0.7, delta, delta, 1, 10, 10)
