import math

import numpy as np
import pytest
from scipy.special import loggamma as _loggamma

from rsmoments import arith as ar
from rsmoments import lseries as ls
from rsmoments.arith import CuspLabel
from rsmoments.specfun import DomainError, NonConvergenceError, riemann_zeta


@pytest.fixture(scope="module")
def delta():
    return ls.delta_newform(20000)


def _fresh_weights(scale, c, h, sigma0=2.0):
    """``_mellin_weights`` without the contour cache: E built on every call."""

    def weights(log_ratio, length):
        vmax = max(9.7 * c, 0.5 * (math.pi * c * c + math.sqrt((math.pi * c * c) ** 2 + 336.0 * c * c)))
        v = np.arange(-vmax, vmax + h, h)
        w = sigma0 + 1j * v
        kern = np.exp(log_ratio(w) + w * w / (2.0 * c * c)) / w * (h / (2.0 * math.pi))
        x = scale * np.arange(1, length + 1, dtype=float)
        return kern @ np.exp(-np.outer(w, np.log(x)))

    return weights


def _cached_weights(scale, c, h):
    return lambda log_ratio, length: ls._mellin_weights(log_ratio, scale, length, c=c, h=h)


def _holo_afe(s, f, weights):
    """The AFE assembly of ``holo_L`` with the weights ``weights(log_ratio, length)``."""
    s = complex(s)
    a0 = (f.k - 1) / 2.0
    length = int(math.ceil((abs(s.imag) + f.k + 60.0) * 1.6))
    n = np.arange(1, length + 1, dtype=float)
    w1 = weights(lambda w: _loggamma(s + a0 + w) - _loggamma(s + a0), length)
    w2 = weights(lambda w: _loggamma(1.0 - s + a0 + w) - _loggamma(1.0 - s + a0), length)
    A = f.A(length)
    first = np.sum(A * np.exp(-s * np.log(n)) * w1)
    gr = np.exp(_loggamma(1.0 - s + a0) - _loggamma(s + a0))
    second = (
        (1j) ** f.k
        * np.exp((2.0 * s - 1.0) * math.log(2.0 * math.pi))
        * gr
        * np.sum(A * np.exp((s - 1.0) * np.log(n)) * w2)
    )
    return complex(first + second)


def _sym2_afe(s, f, weights):
    """The AFE assembly of ``sym2_L`` with the weights ``weights(log_ratio, length)``."""
    s = complex(s)
    k = f.k

    def log_gamma_factor(u):
        u = np.asarray(u, dtype=complex)
        return (
            -1.5 * u * math.log(math.pi)
            + _loggamma((u + 1.0) / 2.0)
            + _loggamma((u + k - 1.0) / 2.0)
            + _loggamma((u + k) / 2.0)
        )

    base1 = complex(log_gamma_factor(s))
    base2 = complex(log_gamma_factor(1.0 - s))
    length = int(math.ceil((abs(s.imag) + k + 40.0) ** 1.5 / 12.0)) + 120
    c = ls._sym2_coeffs(f, length)
    n = np.arange(1, length + 1, dtype=float)
    w1 = weights(lambda w: log_gamma_factor(s + w) - base1, length)
    w2 = weights(lambda w: log_gamma_factor(1.0 - s + w) - base2, length)
    gr = complex(np.exp(base2 - base1))
    first = np.sum(c * np.exp(-s * np.log(n)) * w1)
    second = gr * np.sum(c * np.exp((s - 1.0) * np.log(n)) * w2)
    return complex(first + second)


class TestDeltaGenerator:
    def test_small_coefficients(self, delta):
        a = delta.a_exact
        assert a[0] == 1
        assert a[1] == -24
        assert a[2] == 252
        assert a[3] == -1472
        assert a[5] == -6048

    def test_hecke_multiplicativity(self, delta):
        a = delta.a_exact
        assert a[5] == a[1] * a[2]  # a(6) = a(2) a(3)
        assert a[9] == a[1] * a[4]  # a(10) = a(2) a(5)
        assert a[11] == a[2] * a[3]  # a(12) = a(3) a(4)

    def test_against_naive_eta_expansion(self, delta):
        # independent O(M^2) expansion of q prod (1 - q^n)^24 up to q^13
        M = 13
        poly = [1] + [0] * M
        for nn in range(1, M + 1):
            for _ in range(24):
                new = poly[:]
                for i in range(M, nn - 1, -1):
                    new[i] -= poly[i - nn]
                poly = new
        for n in range(1, M):
            assert delta.a_exact[n - 1] == poly[n - 1]

    def test_deligne_bound_normalized(self, delta):
        A = delta.A(20000)
        n = np.arange(1, 20001)
        dcount = np.zeros(20000)
        for d in range(1, 20001):
            dcount[d - 1 :: d] += 1
        assert np.all(np.abs(A) <= dcount + 1e-9)


class TestLoaders:
    def test_newform_roundtrip(self, tmp_path, delta):
        path = tmp_path / "form.txt"
        M = 50
        lines = [f"1 12 {M}"] + [f"{n} {delta.a_exact[n - 1]}" for n in range(1, M + 1)]
        path.write_text("\n".join(lines) + "\n")
        f = ls.load_newform(path)
        assert f.N == 1 and f.k == 12 and f.M == M
        assert np.allclose(f.a, delta.a[:M])

    def test_rejects_bad_normalisation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 12 2\n1 2\n2 -24\n")
        with pytest.raises(ls.InvariantViolation) as err:
            ls.load_newform(path)
        assert "n=1" in str(err.value)

    def test_rejects_odd_or_small_weight(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 11 1\n1 1\n")
        with pytest.raises(ls.InvariantViolation):
            ls.load_newform(path)
        path.write_text("1 2 1\n1 1\n")
        with pytest.raises(ls.InvariantViolation):
            ls.load_newform(path)

    def test_maass_roundtrip(self, tmp_path):
        u = ls.synthetic_maass_form(N=2, L=1, r=9.53, m_max=64, seed=3)
        path = tmp_path / "maass.txt"
        lines = [f"2 1 {u.r} 0 64", f"{u.rho1} {u.lifts[1]} {u.lifts[2]}"]
        lines += [f"{n} {float(u.lam[n - 1])!r}" for n in range(1, 65)]
        path.write_text("\n".join(lines) + "\n")
        v = ls.load_maass_form(path)
        assert v.N == 2 and v.L == 1 and abs(v.r - 9.53) < 1e-12
        assert np.allclose(v.lam, u.lam)

    def test_cusp_expansion_roundtrip(self, tmp_path):
        path = tmp_path / "cusp.txt"
        path.write_text("4 2 1 3\n1 1.0 0.0\n2 -0.5 0.25\n3 0.125 0.0\n")
        ce = ls.load_cusp_expansion(path)
        assert ce.cusp == CuspLabel(4, 2, 1)
        assert ce.coeffs[1] == complex(-0.5, 0.25)


class TestReadOnlyCaches:
    def test_cached_arrays_reject_writes(self, delta):
        a = delta.a_exact[:40]
        src = np.array(a, dtype=float)
        f = ls.NewformData(N=1, k=12, a=src)
        src[1] = 0.0  # the form holds its own copy
        assert f.a[1] == -24.0
        ls.holo_L(0.5 + 3j, delta)
        arrays = [f.a, ls.delta_newform(20000).a, ls._sym2_coeffs(delta, 200)]
        for w, E in ls._CONTOURS.values():
            arrays += [w, E]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_form_data_holds_private_read_only_copies(self):
        lam = np.array([1.0, -0.5, 0.25, 0.75])
        u = ls.MaassFormData(N=1, L=1, r=9.53, parity=0, lam=lam, rho1=1.0, lifts={1: 1.0})
        coeffs = np.array([1.0, -0.5 + 0.25j, 0.125])
        ce = ls.CuspExpansionData(CuspLabel(4, 2, 1), coeffs)
        lam[1] = 5.0  # the caller's later writes do not reach the forms
        coeffs[1] = 5.0
        assert u.lam[1] == -0.5
        assert ce.coeffs[1] == -0.5 + 0.25j
        for arr in (u.lam, ce.coeffs):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestRankinSelberg:
    def test_positive_real_and_truncation_consistency(self, delta):
        v1, t1 = ls.rankin_selberg_L(2.0, delta, delta, m_max=10_000)
        v2, t2 = ls.rankin_selberg_L(2.0, delta, delta, m_max=20_000)
        assert v1.real > 0 and abs(v1.imag) < 1e-14
        assert abs(v1 - v2) <= t1 + t2

    def test_real_symmetry(self, delta):
        v, _ = ls.rankin_selberg_L(2.3, delta, delta)
        assert abs(v.imag) < 1e-13 * abs(v)

    def test_pole_path_at_one(self, delta):
        with pytest.raises(DomainError):
            ls.rankin_selberg_L(1.0, delta, delta)

    def test_residue_positive_and_consistent(self, delta):
        res, err = ls.residue_at_1(delta)
        assert res > 0
        # node-count stability within the reported error
        hs = (0.1, 0.05)
        vals = []
        for h in hs:
            v, _ = ls.rankin_selberg_L(1.0 + h, delta, delta)
            vals.append(h * v)
        from rsmoments.specfun import extrapolate_to_zero

        two_node = extrapolate_to_zero(hs, vals).real
        assert abs(two_node - res) <= err
        # and the accurate route lands inside the reported error too
        assert abs(res - ls.selfdual_rs_constants(delta)["residue"]) <= err


class TestHoloL:
    def test_real_argument_real_value(self, delta):
        v = ls.holo_L(1.5, delta)
        assert abs(v.imag) < 1e-12 * abs(v)

    def test_afe_matches_direct_in_overlap(self, delta):
        for s in (3.0, 2.8 + 7j, 3.3 - 2j):
            d = ls.holo_L(s, delta, method="direct")
            a = ls.holo_L(s, delta, method="afe")
            assert abs(d - a) < 1e-8 * abs(d)

    def test_completed_functional_equation_critical_line(self, delta):
        def lam(s):
            a0 = (delta.k - 1) / 2.0
            return np.exp(-(s + a0) * math.log(2 * math.pi) + _loggamma(s + a0)) * ls.holo_L(
                s, delta, method="afe"
            )

        for tau in (0.5, 7.0, 30.0, 90.0, 160.0):
            l1 = lam(0.5 + 1j * tau)
            l2 = (1j) ** delta.k * lam(0.5 - 1j * tau)
            assert abs(l1 - l2) < 1e-7 * max(abs(l1), 1e-30)

    @pytest.mark.parametrize("taus", [(160.0, 0.5), (0.5, 160.0)])
    def test_cached_contours_match_fresh(self, delta, taus):
        # the cache grows (or is only sliced) between the two points, with
        # the sym^2 contour filled in between; values match a fresh E exactly
        ls._CONTOURS.clear()
        for tau in taus:
            s = 0.5 + 1j * tau
            assert ls.holo_L(s, delta) == _holo_afe(s, delta, _fresh_weights(2.0 * math.pi, 3.0, 0.4))
            assert ls.sym2_L(s, delta) == _sym2_afe(s, delta, _fresh_weights(1.0, 4.0, 0.35))

    def test_insufficient_coefficients_reports_horizon(self):
        small = ls.delta_newform(256)
        with pytest.raises(ls.InsufficientCoefficientsError) as err:
            ls.holo_L(2.5, small, tol=1e-10, method="direct")
        assert err.value.needed > 256
        # in auto mode level 1 falls back to the (exact) functional-equation
        # route instead of failing
        v = ls.holo_L(2.5, small, tol=1e-10)
        big = ls.delta_newform(20000)
        assert abs(v - ls.holo_L(2.5, big, method="direct")) < 1e-8 * abs(v)


class TestSym2:
    def test_value_against_tabulated_petersson_norm(self, delta):
        # <delta, delta> = 1.0353620568043209e-6 (standard tabulated value);
        # the residue relation gives L(1, sym^2) = pi/2 (4 pi)^k <f,f>/G(k)
        ref = math.pi / 2 * (4 * math.pi) ** 12 * 1.0353620568043209e-6 / math.factorial(11)
        val = ls.sym2_L(1.0, delta).real
        assert abs(val - ref) < 1e-9 * ref

    def test_parameter_stability(self, delta):
        # independent smoothing parameters (c, h) must agree with sym2_L's
        # (4, 0.35); this also shows the contour cache keys on (c, h)
        for s in (1.37, 1.0, 0.5 + 2j, 0.5 + 0.3j, 1.1 - 3.5j):
            v = ls.sym2_L(s, delta)
            assert ls.sym2_L(s, delta) == v  # deterministic
            for c, h in ((3.5, 0.3), (3.0, 0.25)):
                other = _sym2_afe(s, delta, _cached_weights(1.0, c, h))
                assert abs(other - v) < 1e-12 * abs(v), (s, c, h)

    def test_coefficients_keyed_on_whole_array(self, delta):
        # agrees with delta in label, level, weight, length and the first 16
        # coefficients; a(17) differs (halved: sym^2 sees only a(p)^2)
        a = delta.a.copy()
        a[16] *= 0.5
        other = ls.NewformData(N=1, k=12, a=a, label=delta.label)
        v_delta = ls.sym2_L(1.37, delta)
        v_other = ls.sym2_L(1.37, other)
        assert v_other != v_delta
        ls._SYM2_CACHE.clear()
        assert ls.sym2_L(1.37, other) == v_other
        assert ls.sym2_L(1.37, delta) == v_delta

    def test_laurent_constants(self, delta):
        c = ls.selfdual_rs_constants(delta)
        # L(1 + x) ~ R/x + c0 + c1 x reproduced by actual values
        for x in (0.05, 0.025):
            lhs = ls.selfdual_rs_L(1.0 + x, delta)
            rhs = c["residue"] / x + c["finite_part"] + c["linear"] * x
            assert abs(lhs - rhs) < 5e-3 * abs(lhs) * x  # O(x^2) remainder


class TestCurlyLEisenstein:
    @pytest.mark.slow
    def test_direct_vs_factored_grid(self):
        # the spec grid: t in {0, 0.7}, r in {0.3, 1.1} (t = 0 exercises the
        # removable singularity of the local factors)
        for N in (1, 2):
            for cusp in ar.enumerate_cusps(N):
                for t in (0.0, 0.7):
                    for r in (0.3, 1.1):
                        d = ls.curly_L_eisenstein_direct(2.5, t, r, cusp, m_max=40_000)
                        fa = ls.curly_L_eisenstein_factored(2.5, t, 1j * r, cusp)
                        assert abs(d.value - fa) < 2e-6 * abs(fa), (N, cusp, t, r)

    def test_direct_vs_factored_quick(self):
        for N in (1, 2):
            for cusp in ar.enumerate_cusps(N):
                d = ls.curly_L_eisenstein_direct(2.5, 0.7, 0.3, cusp, m_max=40_000)
                fa = ls.curly_L_eisenstein_factored(2.5, 0.7, 0.3j, cusp)
                assert abs(d.value - fa) < 2e-6 * abs(fa), (N, cusp)

    def test_direct_region_check(self):
        with pytest.raises(DomainError):
            ls.curly_L_eisenstein_direct(1.2, 0.7, 0.3, CuspLabel(1, 1, 1), m_max=100)


class TestCurlyLMaass:
    def test_level_one_collapse(self):
        u = ls.synthetic_maass_form(N=1, L=1, r=5.1, m_max=50_000, seed=5)
        fa = ls.curly_L_maass_factored(2.5, 0.7, u)
        expect = (
            u.lifts[1]
            * u.rho1
            * ls.maass_L(2.5 + 0.7j, u)
            * ls.maass_L(2.5 - 0.7j, u)
        )
        assert abs(fa - expect) < 1e-12 * abs(expect)

    def test_t_zero_square(self):
        u = ls.synthetic_maass_form(N=1, L=1, r=5.1, m_max=50_000, seed=5)
        fa = ls.curly_L_maass_factored(2.5, 0.0, u)
        expect = u.lifts[1] * u.rho1 * ls.maass_L(2.5, u) ** 2
        assert abs(fa - expect) < 1e-12 * abs(expect)

    @pytest.mark.parametrize("N,L,seed", [(2, 1, 3), (4, 2, 11), (6, 1, 17)])
    def test_direct_vs_factored(self, N, L, seed):
        u = ls.synthetic_maass_form(N=N, L=L, r=7.7, m_max=200_000, seed=seed)
        d = ls.curly_L_maass_direct(2.5, 0.7, u)
        fa = ls.curly_L_maass_factored(2.5, 0.7, u)
        assert abs(d.value - fa) < 1e-8 * abs(fa)

    def test_t_zero_composite_level(self):
        u = ls.synthetic_maass_form(N=2, L=1, r=9.53, m_max=100_000, seed=3)
        d = ls.curly_L_maass_direct(2.5, 0.0, u)
        fa = ls.curly_L_maass_factored(2.5, 0.0, u)
        assert abs(d.value - fa) < 1e-7 * abs(fa)

    def test_displayed_local_factors_flagged(self):
        # the as-displayed local factors disagree with the direct sum at
        # composite level (the ord_p(N/d) = 1 cases lose their p-power
        # terms); the corrected factors are the production path and the
        # mismatch is pinned here so it stays visible
        u = ls.synthetic_maass_form(N=2, L=1, r=9.53, m_max=100_000, seed=3)
        d = ls.curly_L_maass_direct(2.5, 0.7, u).value
        from rsmoments.lseries import _lift_local_factor_display, _lam_at
        from rsmoments.arith import divisors

        lift_sum = sum(
            u.lifts[dd] * u.rho1 * dd ** (0.5 - 0.7j) * _lift_local_factor_display(u, dd, 2.5, 0.7)
            for dd in divisors(2)
        )
        displayed = (
            ls.maass_L(2.5 + 0.7j, u) * ls.maass_L(2.5 - 0.7j, u) * 2 ** (-2.5 - 0.7j) * lift_sum
        )
        assert abs(d - displayed) > 1e-2 * abs(d)


class TestDivisorModel:
    def test_closed_form_rankin_selberg(self):
        nu, mu = 0.52, 1.13
        for N in (1, 2):
            f = ls.divisor_model_newform(nu, 12, N, 4000)
            g = ls.divisor_model_newform(mu, 12, N, 4000)
            w = 2.6 + 0.4j
            direct, tail = ls.rankin_selberg_L(w, f, g, m_max=4000)
            closed = ls.divisor_model_rs_L(w, nu, mu, N)
            assert abs(direct - closed) < 1e-5 * abs(closed)

    def test_hecke_and_bounds(self):
        f = ls.divisor_model_newform(0.52, 12, 1, 500)
        A = f.A(500)
        assert abs(A[0] - 1.0) < 1e-14
        assert abs(A[5] - A[1] * A[2]) < 1e-12  # multiplicativity at 6 = 2*3
