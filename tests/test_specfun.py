import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmoments import specfun as sf
from rsmoments import arith as ar

from assertions import assert_within_error


RNG = np.random.default_rng(20260810)


class TestLogGamma:
    def test_against_mpmath_grid(self):
        pts = []
        for re in (-950.0, -10.3, -0.7, 0.3, 2.0, 55.0, 900.0):
            for im in (-9000.0, -300.0, -21.0, -3.0, 0.31, 5.0, 18.0, 450.0, 9999.0):
                pts.append(complex(re, im))
        pts = np.array(pts)
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mp.mpc(z.real, z.imag))) for z in pts])
        err = np.max(np.abs(sf.log_gamma(pts) - ref) / (1 + np.abs(ref)))
        assert err < 5e-14

    def test_gamma_values(self):
        assert abs(sf.complex_gamma(1.0) - 1.0) < 1e-14
        assert abs(sf.complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-14
        assert abs(sf.complex_gamma(5.0) - 24.0) < 1e-12

    def test_log_gamma_trivial_zeros(self):
        assert abs(sf.log_gamma(2.0)) < 1e-14
        assert abs(sf.log_gamma(1.0)) < 1e-14

    def test_recursion_from_base_point(self):
        # log_gamma(z+1) = log_gamma(z) + log z, walked up from a base point
        z0 = 10.0 + 100.0j
        up = sf.log_gamma(z0)
        for j in range(7):
            up = up + np.log(z0 + j)
        assert abs(up - sf.log_gamma(z0 + 7)) < 1e-10 * abs(up)

    def test_recursion_random_grid(self):
        z = RNG.uniform(0.5, 30, 60) + 1j * RNG.uniform(-40, 40, 60)
        lhs = sf.complex_gamma(z + 1)
        rhs = z * sf.complex_gamma(z)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12

    def test_reflection(self):
        z = RNG.uniform(0.05, 0.95, 40) + 1j * RNG.uniform(-8, 8, 40)
        lhs = sf.complex_gamma(z) * sf.complex_gamma(1 - z)
        rhs = math.pi / np.sin(math.pi * z)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10

    def test_pole_error(self):
        with pytest.raises(sf.PoleError):
            sf.log_gamma(-3.0)
        with pytest.raises(sf.PoleError):
            sf.complex_gamma(0.0)

    def test_branch_continuity_vertical_line(self):
        # no 2 pi jumps walking up a vertical line
        ys = np.linspace(-40, 40, 3001)
        vals = sf.log_gamma(2.5 + 1j * ys)
        assert np.max(np.abs(np.diff(vals.imag))) < 0.2


class TestTrigInLogs:
    # tan(pi u) = -cot(pi (u + 1/2)) and log cos(pi u) = log sin(pi (u + 1/2))
    # as the first-moment prefactors take them: on Re u = sigma_u (1.25 and
    # 1.45) and on the L+ residue abscissa Re u = sigma_v - k/2 = 1.1, out to
    # |Im u| = 300, where cos(pi u) ~ e^942 and tan(pi u) is i sign(Im u)
    # to double precision
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(re=st.sampled_from([1.1, 1.25, 1.45]), im=st.floats(-300.0, 300.0))
    def test_against_mpmath(self, re, im):
        u = complex(re, im)
        with mp.workdps(30):
            um = mp.mpc(re, im)
            tan = complex(mp.tan(mp.pi * um))
            log_cos = complex(mp.log(mp.cos(mp.pi * um)))
        assert abs(-sf._cot_pi(u + 0.5) - tan) <= 1e-13 * abs(tan)
        # Re cos(pi u) < 0 on these lines, so the principal log jumps only
        # across the real axis; the continuous branch sits 2 pi i below it
        # in the upper half plane (Im -> -pi Re u as Im u -> oo) and above it
        # in the lower
        branch = -2j * math.pi if im >= 0.0 else 2j * math.pi
        got = complex(sf._log_sin_pi(u + 0.5))
        assert abs(got - (log_cos + branch)) <= 1e-14 * (1.0 + abs(log_cos))


class TestDigamma:
    def test_against_mpmath(self):
        for z in (3.5 + 2j, 0.2 - 4j, -6.3 + 0.4j, 12 + 150j, 6 - 0.05j, 50 + 30j):
            v = sf.digamma_family(z)
            r = complex(mp.digamma(z))
            assert abs(v - r) <= 1e-10 * (1 + abs(r))

    def test_classical_values(self):
        assert abs(sf.digamma_family(1.0) + sf.EULER_GAMMA) < 1e-13

    def test_positive_real_zero(self):
        # psi's zero on the positive axis, where the relative error of any
        # route is unbounded: the absolute miss is the measure
        x0 = 1.4616321449683622
        with mp.workdps(30):
            ref = mp.digamma(mp.mpf(x0))
        assert abs(sf.digamma_family(x0) - complex(ref)) <= 1e-16

    def test_scalar_and_array_shapes_and_poles(self):
        assert type(sf.digamma_family(2.5)) is complex
        z = np.array([[0.5 + 1j, 3.0], [-2.5, 12.0 - 40j]])
        out = sf.digamma_family(z)
        assert out.shape == z.shape and out.dtype == complex
        assert out[1, 1] == sf.digamma_family(12.0 - 40j)
        for pole in (0.0, -3.0, np.array([1.0, -1.0])):
            with pytest.raises(sf.PoleError):
                sf.digamma_family(pole)

    def test_matches_log_gamma_difference(self):
        # finite difference of log_gamma at a deep complex point
        z = 50.0 + 30.0j
        h = 1e-4
        fd = (sf.log_gamma(z + h) - sf.log_gamma(z - h)) / (2 * h)
        assert abs(fd - sf.digamma_family(z)) < 1e-8


class TestZeta:
    def test_classical(self):
        assert abs(sf.riemann_zeta(2.0) - math.pi**2 / 6) < 1e-14
        assert abs(sf.riemann_zeta(0.0) + 0.5) < 1e-14

    def test_against_mpmath(self):
        for s in (2.0, 0.5 + 14.1j, -3.7 + 2j, 0.01 + 900j, 4 - 1000j, -12.5 - 88j, 0.25, 1.03, 1 + 0.004j):
            v = sf.riemann_zeta(s)
            r = complex(mp.zeta(s))
            assert abs(v - r) <= 1e-11 * (1 + abs(r)), s

    def test_first_nontrivial_zero_by_bisection(self):
        # locate the zero with an independent sign-change bisection of the
        # real-valued rotated function Z(t) = exp(i theta(t)) zeta(1/2 + it)
        def hardy_z(t):
            theta = np.imag(sf.log_gamma(0.25 + 0.5j * t)) - t / 2 * math.log(math.pi)
            return (np.exp(1j * theta) * sf.riemann_zeta(0.5 + 1j * t)).real

        lo, hi = 14.0, 14.2
        assert hardy_z(lo) * hardy_z(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if hardy_z(lo) * hardy_z(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert abs(sf.riemann_zeta(0.5 + 1j * root)) < 1e-4

    def test_pole(self):
        with pytest.raises(sf.PoleError):
            sf.riemann_zeta(1.0)

    def test_functional_equation_self_consistency(self):
        for _ in range(10):
            s = complex(RNG.uniform(0.05, 0.95), RNG.uniform(-100, 100))
            direct = sf.riemann_zeta(s)
            log_chi = (
                s * math.log(2.0)
                + (s - 1) * math.log(math.pi)
                + complex(sf._log_sin_pi(s / 2.0))
                + sf.log_gamma(1.0 - s)
            )
            via = complex(np.exp(log_chi)) * sf.riemann_zeta(1.0 - s)
            assert abs(direct - via) < 1e-9 * abs(direct)

    def test_abs_square_on_the_one_line(self):
        # continuous_part divides by |zeta(1 + 2ir)|^2, one zeta per node, in
        # place of zeta(1 + 2ir) zeta(1 - 2ir); the Laurent route included
        for r in np.concatenate([np.geomspace(1e-6, 0.1, 20), np.linspace(0.1, 62.0, 400)]):
            z = sf.riemann_zeta(1.0 + 2j * r)
            prod = z * sf.riemann_zeta(1.0 - 2j * r)
            assert abs(z.real * z.real + z.imag * z.imag - prod) <= 5e-16 * abs(prod), r

    def test_laurent_matches_mpmath_derivative(self):
        for x in (0.05, 0.02 + 0.03j, -0.04j):
            assert abs(sf.zeta_laurent(x, 0) - complex(mp.zeta(1 + x))) < 1e-11 * abs(complex(mp.zeta(1 + x)))
            assert abs(sf.zeta_laurent(x, 1) - complex(mp.zeta(1 + x, derivative=1))) < 1e-9 * abs(
                complex(mp.zeta(1 + x, derivative=1))
            )

    def test_against_30_digit_mpmath_grid(self):
        # the scalar route on Python floats, both half planes, |Im s| <= 130;
        # measured worst 1.2e-13 x max(|zeta|, 1), at |Im s| = 130
        with mp.workdps(30):
            for re in (-4.5, -2.0, -0.5, 0.0, 0.25, 0.5, 0.9, 1.1, 1.5, 2.0, 3.5, 8.0):
                for im in (-130.0, -57.3, -10.0, -1.0, 0.0, 0.4, 3.0, 14.1, 41.7, 90.0, 130.0):
                    s = complex(re, im)
                    if abs(s - 1.0) < 1e-3:
                        continue
                    ref = complex(mp.zeta(mp.mpc(re, im)))
                    assert abs(sf.riemann_zeta(s) - ref) <= 5e-13 * max(abs(ref), 1.0), s

    def test_stieltjes_table_matches_mpmath(self):
        assert len(sf._STIELTJES) == 12
        with mp.workdps(30):
            for n, g in enumerate(sf._STIELTJES):
                ref = mp.stieltjes(n)
                assert abs(g - ref) <= 1e-15 * abs(ref), n

    def test_bernoulli_table_matches_mpmath(self):
        # B_2 .. B_24 are exact reduced fractions; each B_2j / (2j)! lies
        # within 1 ulp of the 30-digit value
        assert len(sf._B2N_EXACT) == len(sf._B2N_OVER_FACT) == 12
        with mp.workdps(30):
            for j, (exact, b) in enumerate(zip(sf._B2N_EXACT, sf._B2N_OVER_FACT), 1):
                assert exact == tuple(int(x) for x in mp.bernfrac(2 * j)), 2 * j
                ref = float(mp.bernoulli(2 * j) / mp.factorial(2 * j))
                assert abs(b - ref) <= math.ulp(ref), 2 * j

    def test_hurwitz(self):
        for (s, a) in ((2.5 + 3j, 0.3), (0.2 - 40j, 1.0), (6.0, 0.125)):
            assert abs(sf.hurwitz_zeta(s, a) - complex(mp.zeta(s, a))) < 1e-11 * (
                1 + abs(complex(mp.zeta(s, a)))
            )


class TestZetaMemo:
    def test_signed_zero_imaginary_parts_have_the_same_bits(self):
        # the memo keys on s as a Python complex, where x + 0.0j == x - 0.0j;
        # both sides of the functional equation and the pole's neighbourhood
        fresh = sf._riemann_zeta.__wrapped__
        for x in (-12.5, -3.0, -1.0, -0.5, 0.0, 0.5, 0.9, 1.1, 1.19, 2.0, 3.7, 25.0):
            plus, minus = fresh(complex(x, 0.0)), fresh(complex(x, -0.0))
            assert (plus.real.hex(), plus.imag.hex()) == (minus.real.hex(), minus.imag.hex()), x

    def test_counts_hits_and_misses(self):
        sf._riemann_zeta.cache_clear()
        s = 0.5 + 14.134725j
        first = sf.riemann_zeta(s)
        assert sf._riemann_zeta.cache_info()[:2] == (0, 1)
        assert sf.riemann_zeta(s) == first == sf._riemann_zeta.__wrapped__(s)
        assert sf.riemann_zeta(np.complex128(s)) == first
        assert sf._riemann_zeta.cache_info()[:2] == (2, 1)
        # the functional-equation branch fills a second entry for zeta(1 - s)
        sf.riemann_zeta(-2.5 + 1j)
        info = sf._riemann_zeta.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 3, 3)

    def test_memo_stays_bounded(self):
        maxsize = sf._riemann_zeta.cache_info().maxsize
        assert maxsize is not None and maxsize <= 4096
        for j in range(maxsize + 50):
            sf.riemann_zeta(2.0 + 0.01j * j)
        assert sf._riemann_zeta.cache_info().currsize == maxsize


class TestDirichletL:
    def test_modulus_one_reduces_to_zeta(self):
        chi = ar.characters_mod(1)[0]
        for s in (2.0, 0.7 + 3j):
            assert abs(sf.dirichlet_L(s, chi) - sf.riemann_zeta(s)) < 1e-13

    def test_classical_closed_forms(self):
        chi3 = [c for c in ar.characters_mod(3) if not c.is_trivial][0]
        assert abs(sf.dirichlet_L(1.0, chi3) - math.pi / (3 * math.sqrt(3))) < 1e-13
        chi4 = [c for c in ar.characters_mod(4) if not c.is_trivial][0]
        catalan = 0.915965594177219015054603514932
        assert abs(sf.dirichlet_L(2.0, chi4) - catalan) < 1e-13

    def test_pole_for_trivial(self):
        chi = [c for c in ar.characters_mod(4) if c.is_trivial][0]
        with pytest.raises(sf.PoleError):
            sf.dirichlet_L(1.0, chi)

    def test_depleted(self):
        chi = ar.characters_mod(1)[0]
        v = ar.dirichlet_L_depleted(2.0, chi, 6)
        assert abs(v - (1 - 0.25) * (1 - 1 / 9) * math.pi**2 / 6) < 1e-13
        # chi mod 4 vanishes at 2, so only the factor at 3 comes off Catalan's constant
        chi4 = [c for c in ar.characters_mod(4) if not c.is_trivial][0]
        catalan = 0.915965594177219015054603514932
        v = ar.dirichlet_L_depleted(2.0, chi4, 6)
        assert abs(v - (1 + 1 / 9) * catalan) < 1e-13


class TestGaussSum:
    def test_trivial_mod_one(self):
        assert abs(sf.gauss_sum(ar.characters_mod(1)[0]) - 1.0) < 1e-15

    def test_odd_character_mod_four(self):
        chi4 = [c for c in ar.characters_mod(4) if not c.is_trivial][0]
        # direct 4-term sum: chi(1) e^{pi i/2} + chi(3) e^{3 pi i/2} = 2i
        assert abs(sf.gauss_sum(chi4) - 2j) < 1e-13

    def test_modulus_invariant(self):
        for q in range(2, 101):
            for chi in ar.characters_mod(q):
                if chi.is_primitive:
                    assert abs(abs(sf.gauss_sum(chi)) - math.sqrt(q)) < 1e-9


class TestBesselK:
    def test_half_order_closed_form(self):
        for y in (0.3, 1.0, 4.7, 20.0):
            expect = math.sqrt(math.pi / (2 * y)) * math.exp(-y)
            assert abs(sf.bessel_K(0.5, y) - expect) < 1e-12 * expect

    def test_mesh_refinement_oracle(self):
        v1 = sf.bessel_K(0.0, 1.0, rel_tol=1e-10)
        v2 = sf.bessel_K(0.0, 1.0, rel_tol=1e-13)
        assert abs(v1 - v2) < 1e-10 * abs(v2)

    def test_order_symmetry(self):
        for nu in (0.8, 2.3 + 1.1j, 5j):
            a = sf.bessel_K(nu, 2.2)
            b = sf.bessel_K(-nu, 2.2)
            assert abs(a - b) < 1e-12 * (1 + abs(a))

    def test_positivity_real_order(self):
        for nu in (0.0, 0.5, 3.3):
            for y in (0.2, 1.0, 9.0):
                v = sf.bessel_K(nu, y)
                assert v.real > 0 and abs(v.imag) < 1e-15 * v.real

    def test_against_mpmath_imaginary_order(self):
        for nu, y in ((9.53j, 3.0), (0.5j, 2.0), (-4.2 + 13j, 5.0)):
            v = sf.bessel_K(nu, y)
            r = complex(mp.besselk(nu, y))
            assert abs(v - r) < 1e-11 * (1 + abs(r))

    def test_domain_error(self):
        with pytest.raises(sf.DomainError):
            sf.bessel_K(0.5, -1.0)


class TestIntegrateLine:
    def test_gaussian(self):
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        val, err = sf.integrate_line(lambda r: np.exp(-r * r), spec, interval=(-9.0, 9.0))
        assert abs(val - math.sqrt(math.pi)) < 1e-12
        assert err < 1e-10

    def test_test_function_integral_vs_gaussian_oracle(self):
        # int h dr equals the two pure Gaussian integrals up to the bound
        # 0.75/(r^2+R) distortion of the rational factor
        from rsmoments.kernels import TestFunctionParams, h_eval

        p = TestFunctionParams(T=100.0, alpha=0.5, R=1.0)
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12)
        val, _ = sf.integrate_line(
            lambda r: h_eval(r, p), spec, interval=(0.0, p.T + 14 * p.bump_width)
        )
        val = 2 * val.real
        gaussians = 2.0 * math.sqrt(math.pi) * p.bump_width
        correction_bound = gaussians * 0.75 / (p.T - 12 * p.bump_width) ** 2
        assert abs(val - gaussians) <= 1e-6 * gaussians + correction_bound

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pole_inside_region_fails(self):
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=60)
        with pytest.raises(sf.NonConvergenceError):
            sf.integrate_line(lambda r: 1.0 / (r - 0.37), spec, interval=(0.0, 1.0))

    @staticmethod
    def _linear_scan(f, spec, a, b):
        """The adaptive loop as a linear scan with full re-sums every step."""

        def gk15(pa, pb):
            mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
            y = np.asarray(f(mid + half * sf._NODES), dtype=complex)
            i15 = half * complex(np.sum(sf._W15 * y))
            i7 = half * complex(np.sum(sf._W7 * y))
            return i15, abs(i15 - i7)

        val, err = gk15(a, b)
        panels = [(err, a, b, val)]
        for _ in range(spec.max_subdivisions):
            total = sum(p[3] for p in panels)
            total_err = sum(p[0] for p in panels)
            if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                return total, total_err
            worst = max(range(len(panels)), key=lambda i: (panels[i][0], -panels[i][1]))
            _, pa, pb, _ = panels.pop(worst)
            pm = 0.5 * (pa + pb)
            v1, e1 = gk15(pa, pm)
            v2, e2 = gk15(pm, pb)
            panels.append((e1, pa, pm, v1))
            panels.append((e2, pm, pb, v2))
        raise AssertionError("the reference loop did not converge")

    def test_heap_loop_matches_linear_scan(self):
        # the symmetric Lorentzian gives mirror panels with equal errors, so
        # the tie-break order shows in the order of the panels evaluated
        cases = [
            (lambda r: 1.0 / (r * r + 1e-4), (-4.0, 4.0)),  # Lorentzian
            (lambda r: np.exp(-r * r / 8.0 + 7j * r), (-20.0, 20.0)),  # oscillatory Gaussian
            (lambda r: np.abs(r - 0.3137) + 0j, (-1.0, 2.0)),  # kink
        ]
        spec = sf.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=2000)
        for f, (a, b) in cases:
            first_nodes = []  # one per 15-node panel, in evaluation order

            def recorded(x, f=f):
                first_nodes.extend(x[::15])
                return f(x)

            ref_val, ref_err = self._linear_scan(recorded, spec, a, b)
            ref_nodes = list(first_nodes)
            first_nodes.clear()
            val, err = sf.integrate_line(recorded, spec, interval=(a, b))
            assert first_nodes == ref_nodes and len(ref_nodes) > 20
            assert abs(val - ref_val) <= 1e-13 * abs(ref_val)
            assert abs(err - ref_err) <= 1e-13 * ref_err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_first_panel_converges(self):
        # the centre node of the first panel hits the singular point; once
        # the panel is split no node does
        def f(r):
            return np.where(r == 0.0, np.inf, np.exp(-r * r)) + 0j

        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        val, err = sf.integrate_line(f, spec, interval=(-6.0, 6.0))
        assert abs(val - math.sqrt(math.pi)) < 1e-12
        assert math.isfinite(err) and err < 1e-10

    @staticmethod
    def _linear_scan_from(f, spec, edges):
        """The adaptive loop as a linear scan with full re-sums every step,
        from one starting panel per pair of consecutive edges, all of them
        evaluated in one call of ``f``."""

        def gk15(lo, hi):
            lo, hi = np.asarray(lo), np.asarray(hi)
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            y = np.asarray(f((mid[:, None] + half[:, None] * sf._NODES).ravel()), dtype=complex)
            out = []
            for h, row in zip(half.tolist(), y.reshape(-1, 15)):
                i15 = h * complex(np.sum(sf._W15 * row))
                i7 = h * complex(np.sum(sf._W7 * row))
                out.append((i15, abs(i15 - i7)))
            return out

        panels = [(e, pa, pb, v) for pa, pb, (v, e) in zip(edges, edges[1:], gk15(edges[:-1], edges[1:]))]
        for _ in range(spec.max_subdivisions):
            total = sum(p[3] for p in panels)
            total_err = sum(p[0] for p in panels)
            if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                return total, total_err
            worst = max(range(len(panels)), key=lambda i: (panels[i][0], -panels[i][1]))
            _, pa, pb, _ = panels.pop(worst)
            pm = 0.5 * (pa + pb)
            (v1, e1), (v2, e2) = gk15([pa, pm], [pm, pb])
            panels.append((e1, pa, pm, v1))
            panels.append((e2, pm, pb, v2))
        raise AssertionError("the reference loop did not converge")

    @pytest.mark.parametrize("f, edges", [
        (lambda r: 1.0 / (r * r + 1e-4), (-4.0, -0.5, 4.0)),  # Lorentzian, uneven panels
        (lambda r: 1.0 / (r * r + 1e-4), (-4.0, -2.0, 0.0, 2.0, 4.0)),  # mirror panels
        (lambda r: np.exp(-r * r / 8.0 + 7j * r), (-20.0, -7.0, 1.0, 20.0)),  # oscillatory Gaussian
        (lambda r: np.abs(r - 0.3137) + 0j, (-1.0, -0.25, 0.5, 1.25, 2.0)),  # kink
    ])
    def test_multi_edge_start_matches_linear_scan(self, f, edges):
        spec = sf.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=2000)
        first_nodes = []  # one per 15-node panel, in evaluation order
        call_sizes = []

        def recorded(x):
            first_nodes.extend(x[::15])
            call_sizes.append(x.size)
            return f(x)

        ref = self._linear_scan_from(recorded, spec, edges)
        ref_nodes = list(first_nodes)
        first_nodes.clear()
        call_sizes.clear()
        val, err = sf.integrate_line(recorded, spec, interval=edges)
        assert first_nodes == ref_nodes and len(ref_nodes) > 20
        assert (val, err) == ref
        # every starting panel in the first call, then one split per call
        assert call_sizes[0] == 15 * (len(edges) - 1)
        assert set(call_sizes[1:]) == {30}

    @pytest.mark.parametrize("edges", [(), (1.0,), (0.0, 0.0), (1.0, 0.0), (0.0, 2.0, 1.0, 3.0),
                                       (0.0, 1.0, 1.0), (0.0, math.nan, 1.0)])
    def test_edges_must_increase_strictly(self, edges):
        with pytest.raises(ValueError):
            sf.integrate_line(np.exp, sf.QuadratureSpec(), interval=edges)

    @pytest.mark.parametrize("T, bumps", [
        # the three points bench/README.md records, as T and then
        # (centre, sigma, b) per bump: seed 6 fm-0-1, seed 8 fm-0-1, seed 9 fm-0-2
        (13.333, [(6.369, 0.465, -0.252), (-5.840, 0.290, -0.439), (-6.864, 0.520, 1.521)]),
        (13.434, [(-4.599, 0.334, -1.173), (7.032, 0.506, 0.016), (-7.448, 0.307, 0.032)]),
        (15.100, [(-12.767, 0.216, -0.187), (10.202, 0.326, 2.783), (-5.234, 0.218, 0.398)]),
    ])
    def test_narrow_bumps_resolved_by_scale_edges(self, T, bumps):
        # one starting panel over the window (about +-57) put all 15 nodes
        # where these bumps are below 1e-19; edges at the narrowest bump's
        # sigma resolve them at the first-moment pieces' tolerances
        def bump_sum(x):
            return sum(np.exp(-((x - c0) ** 2) / (2.0 * sg * sg) + 1j * b * x) for c0, sg, b in bumps)

        exact = sum(sg * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (b * sg) ** 2 + 1j * b * c0)
                    for c0, sg, b in bumps)
        edge = T + 12.0 * math.sqrt(T)
        sigma = min(sg for _, sg, _ in bumps)
        edges = np.linspace(-edge, edge, math.ceil(2.0 * edge / sigma) + 1)
        spec = sf.QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=2000)
        val, _ = sf.integrate_line(bump_sum, spec, interval=edges)
        assert abs(val - exact) <= 1e-8 * max(abs(exact), 1.0)


class TestToleranceRule:
    """QuadratureSpec's acceptance rule at its edges: an error equal to
    ``tolerance(value)`` passes, one ulp above it fails, and an error that is
    not a number fails, on the abs_tol side and on the rel_tol side."""

    @staticmethod
    def _rel_tol_for(tol, value):
        """A rel_tol whose product with |value| is exactly ``tol``."""
        lo = hi = tol / abs(value)
        for _ in range(4):  # the quotient's ulps on either side
            for cand in (lo, hi):
                if cand * abs(value) == tol:
                    return cand
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        raise AssertionError("no rel_tol gives this tolerance exactly")

    def test_method_at_its_edges(self):
        spec = sf.QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        for value in (0.0, 3e-3j, 3.0 + 4.0j, -7e4):
            tol = spec.tolerance(value)
            assert tol == max(1e-10, 1e-8 * abs(value))
            assert tol <= spec.tolerance(value)
            assert not math.nextafter(tol, math.inf) <= spec.tolerance(value)
            assert not math.nan <= spec.tolerance(value)

    @staticmethod
    def _calls(spec):
        """integrate_line's calls of 1/(r^2 + 0.1) on (0, 1), and its result."""
        calls = []

        def f(r):
            calls.append(r.size)
            return 1.0 / (r * r + 0.1) + 0j

        result = sf.integrate_line(f, spec, interval=(0.0, 1.0))
        return len(calls), result

    def test_integrate_line_at_its_edges(self):
        # the one starting panel's value and error, which it returns at once
        # when they pass, and splits otherwise
        calls, (v, e) = self._calls(sf.QuadratureSpec(abs_tol=1.0))
        assert calls == 1 and 0.0 < e < 1e-3 * abs(v)
        below = math.nextafter(e, 0.0)
        for at, above in (
            (sf.QuadratureSpec(rel_tol=1e-300, abs_tol=e), sf.QuadratureSpec(rel_tol=1e-300, abs_tol=below)),
            (sf.QuadratureSpec(rel_tol=self._rel_tol_for(e, v), abs_tol=0.0),
             sf.QuadratureSpec(rel_tol=self._rel_tol_for(below, v), abs_tol=0.0)),
        ):
            assert at.tolerance(v) == e and above.tolerance(v) == below
            assert self._calls(at) == (1, (v, e))
            assert self._calls(above)[0] > 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integrate_line_refuses_a_nan_error(self):
        spec = sf.QuadratureSpec(rel_tol=1e-300, abs_tol=math.inf, max_subdivisions=3)
        with pytest.raises(sf.NonConvergenceError) as info:
            sf.integrate_line(lambda r: np.full(r.shape, math.nan + 0j), spec, interval=(0.0, 1.0))
        assert math.isnan(info.value.error)


class TestIntegrateAlignedLattice:
    # int sum_qj c_qj exp(-(g - y)^2 / al - (g + y)^2 / be) dg over the line
    # is sum_qj c_qj sqrt(pi al be / (al + be)) exp(-4 y^2 / (al + be))
    @staticmethod
    def _gaussian_case(al, be, v_edges):
        rng = np.random.default_rng(7)
        y, _ = sf.gk15_panel_nodes(v_edges)
        c = rng.normal(size=y.size) + 1j * rng.normal(size=y.size)
        exact = np.sum(c * np.sqrt(math.pi * al * be / (al + be)) * np.exp(-4.0 * y * y / (al + be)))
        calls = []

        def log_pref(g):
            calls.append(g.size // 15)  # u-panels of this attempt
            return np.zeros(g.shape, dtype=complex)

        args = (log_pref, np.log(c), lambda x: -x * x / al + 0j, lambda x: -x * x / be + 0j, v_edges)
        return args, exact, calls

    def test_gaussian_closed_form(self):
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2000)
        args, exact, calls = self._gaussian_case(2.0, 3.0, np.linspace(-3.0, 3.0, 7))
        val, err = sf.integrate_aligned_lattice(*args, (-12.0, 12.0), spec)
        assert calls == [96]  # H_v = 1 gives m = 4: accepted at width 0.25
        assert abs(val - exact) <= 1e-12 * abs(exact)
        assert err <= 1e-12 * abs(val)

    def test_halves_the_u_panels_until_accepted(self):
        # width ~0.07 Gaussians: GK15 on 0.25-wide panels misses them
        spec = sf.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=2000)
        args, exact, calls = self._gaussian_case(0.01, 0.01, np.linspace(-0.75, 0.75, 4))
        val, err = sf.integrate_aligned_lattice(*args, (-2.0, 2.0), spec)
        assert len(calls) >= 2
        assert calls == [16 * 2**i for i in range(len(calls))]
        assert abs(val - exact) <= 1e-10 * abs(exact)

    def test_raises_past_max_subdivisions(self):
        spec = sf.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=20)
        args, exact, calls = self._gaussian_case(0.01, 0.01, np.linspace(-0.75, 0.75, 4))
        with pytest.raises(sf.NonConvergenceError) as info:
            sf.integrate_aligned_lattice(*args, (-2.0, 2.0), spec)
        assert calls == [16]
        assert info.value.error > 1e-10 * abs(info.value.value)

    def test_subtracted_pole_comes_back_in_closed_form(self):
        # any residues leave the value alone: what the integrand loses the
        # closed form returns over the same lattice window
        spec = sf.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=2000)
        args, exact, _ = self._gaussian_case(2.0, 3.0, np.linspace(-3.0, 3.0, 7))
        r = np.linspace(0.5, 1.5, 90) * np.exp(1j * np.linspace(0.0, 3.0, 90))
        val, _ = sf.integrate_aligned_lattice(*args, (-12.0, 12.0), spec, pole=(0.6, r))
        assert abs(val - exact) <= 1e-10 * abs(exact)

    @staticmethod
    def _noisy_case(monkeypatch):
        # a phase noise of 1e-9 in the prefactor puts the estimate on a floor
        # far above rel_tol 1e-12: the second width does not halve it
        args, exact, calls = TestIntegrateAlignedLattice._gaussian_case(
            2.0, 3.0, np.linspace(-3.0, 3.0, 7))
        log_pref = args[0]

        def noisy(g):
            return log_pref(g) + 1e-9j * np.sin(1e8 * g)

        handed = []

        def line(f, spec, interval=None):
            handed.append((f, spec, interval))
            return sf.ValueWithError(0.25 + 0.5j, 1e-9)

        monkeypatch.setattr(sf, "integrate_line", line)
        return (noisy,) + args[1:], exact, calls, handed

    def test_roundoff_floor_goes_to_integrate_line(self, monkeypatch):
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2000)
        args, _, calls, handed = self._noisy_case(monkeypatch)
        out = sf.integrate_aligned_lattice(*args, (-12.0, 12.0), spec)
        assert calls == [96, 192]
        assert out == (0.25 + 0.5j, 1e-9)
        [(f, spec_line, interval)] = handed
        assert spec_line is spec and interval == (-12.0, 12.0)
        # the adaptive loop gets the lattice's integrand, at any abscissae
        log_pref, log_c, log_km, log_kp, v_edges = args
        y, _ = sf.gk15_panel_nodes(v_edges)
        g = np.linspace(-4.0, 4.0, 9)
        direct = np.exp(log_pref(g)) * (
            np.exp(log_c + log_km(np.subtract.outer(g, y)) + log_kp(np.add.outer(g, y))).sum(axis=1))
        assert np.allclose(f(g), direct, rtol=1e-12, atol=0.0)

    def test_roundoff_floor_spreads_the_pole_closed_form(self, monkeypatch):
        # what the handed integrand loses to the subtracted poles comes back
        # as a constant density over the window: its integral is the value
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2000)
        args, exact, _, handed = self._noisy_case(monkeypatch)
        r = np.linspace(0.5, 1.5, 90) * np.exp(1j * np.linspace(0.0, 3.0, 90))
        sf.integrate_aligned_lattice(*args, (-12.0, 12.0), spec, pole=(0.6, r))
        [(f, _, interval)] = handed
        monkeypatch.undo()
        coarse = sf.QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14, max_subdivisions=2000)
        val, _ = sf.integrate_line(f, coarse, interval=interval)
        assert abs(val - exact) <= 1e-8 * abs(exact)

    def test_asymmetric_window_builds_rows_without_partner(self):
        # on (-7, 12) the table rows reach further right than left: the
        # rows past the leftmost row's mirror have no partner and are
        # evaluated, the rest of the right half are conjugates of rows on the
        # left.  abs_tol 0 leaves out only blocks whose bound is exactly 0
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=2000)
        args, exact, _ = self._gaussian_case(2.0, 3.0, np.linspace(-3.0, 3.0, 7))
        centres = {"minus": [], "plus": []}

        def recording(key, log_k):
            def f(x):
                if x.ndim == 3:  # table rows, not the two-point row bounds
                    centres[key].append(x[:, 7, 7])
                return log_k(x)
            return f

        log_pref, log_c, log_km, log_kp, v_edges = args
        val, err = sf.integrate_aligned_lattice(
            log_pref, log_c, recording("minus", log_km), recording("plus", log_kp), v_edges,
            (-7.0, 12.0), spec)
        assert abs(val - exact) <= 1e-12 * abs(exact)
        assert err <= 1e-12 * abs(val)
        for key in centres:
            x = np.concatenate(centres[key])  # the row centres, g -+ y at node pair (7, 7)
            assert x.min() < -9.0 and x.max() > 14.0
            assert x[x > 0.0].min() > -x.min()  # right half: only the rows without partner

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("outer", [np.subtract.outer, np.add.outer])
    def test_row_bounds_are_the_row_maxima(self, sign, outer):
        # Re log K monotone in |x| (decreasing for log Gamma(c + ix), growing
        # for its negative): a row's largest Re log K sits at its entry
        # nearest 0 or farthest from 0, the two the bound evaluates
        h, m = 0.25, 4
        pair = 0.5 * h * outer(sf._NODES, m * sf._NODES)
        base = (np.arange(-400, 401) + 0.5) * h

        def log_k(x):
            return sign * sf.log_gamma(0.7 + 1j * x)

        rows = log_k(base[:, None, None] + pair).real.reshape(len(base), -1).max(axis=1)
        assert np.allclose(sf._row_bounds(log_k, base, pair), rows, rtol=0.0, atol=1e-12)

    def test_skipped_blocks_go_to_the_error(self):
        # abs_tol below rel_tol |I| keeps the accepted width; its budget, a
        # share of abs_tol, leaves out the far blocks, and the error carries it
        args, exact, calls = self._gaussian_case(2.0, 3.0, np.linspace(-3.0, 3.0, 7))
        rows = []
        log_pref, log_c, log_km, log_kp, v_edges = args

        def counting(x):
            if x.ndim == 3:
                rows.append(len(x))
            return log_km(x)

        out = {}
        for abs_tol in (0.0, 1e-12):
            spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=abs_tol, max_subdivisions=2000)
            rows.clear()
            out[abs_tol] = sf.integrate_aligned_lattice(
                log_pref, log_c, counting, log_kp, v_edges, (-12.0, 12.0), spec), sum(rows)
        (full, full_rows), (cut, cut_rows) = out[0.0], out[1e-12]
        assert calls == [96, 96] and abs(exact) > 1.0
        assert cut_rows < full_rows
        added = cut.error - full.error
        assert 0.0 < added <= sf._LATTICE_SKIP * 1e-12 * (1.0 + 1e-9)
        assert abs(cut.value - full.value) <= added
        assert_within_error(cut.value - exact, cut.error + 1e-12 * abs(exact))

    def test_bench_point_evaluates_under_half_the_tables(self, monkeypatch):
        # the first-moment pieces at a bench point (n = 8, T = 14.8,
        # t = 0.4, 24 v-panels): each lattice evaluates log K- and log K+
        # on fewer than half of the n_rows x 225 entries of its tables
        from rsmoments import kernels, lseries, moments

        seen = []

        def counting(log_pref, log_c, log_km, log_kp, v_edges, window, spec, pole=None):
            count = {"panels": [], "minus": 0, "plus": 0}

            def counted(key, f):
                def g(x):
                    count[key] += x.size
                    return f(x)
                return g

            def pref(g):
                count["panels"].append(g.size // 15)
                return log_pref(g)

            out = sf.integrate_aligned_lattice(pref, log_c, counted("minus", log_km),
                                               counted("plus", log_kp), v_edges, window, spec, pole)
            n_v = len(v_edges) - 1
            m = math.ceil((v_edges[-1] - v_edges[0]) / n_v / sf._LATTICE_START_WIDTH - 1e-9)
            count["entries"] = sum((n_u + m * 2**i * (n_v - 1)) * 225
                                   for i, n_u in enumerate(count["panels"]))
            seen.append(count)
            return out

        monkeypatch.setattr(moments, "integrate_aligned_lattice", counting)
        delta = lseries.delta_newform(20000)
        kp = kernels.TestFunctionParams(T=14.8, alpha=0.5, R=1.0)
        ctx = moments.MomentContext(t=0.4, f=delta, g=delta, N=1,
                                    kernel=kernels.KernelContext(kp, t=0.4, k=12), s=2.5 + 0j)
        moments.first_moment_pieces(8, ctx, inner_panels=24)
        assert len(seen) == 2  # L^- and L^+
        for count in seen:
            assert count["minus"] < 0.5 * count["entries"]
            assert count["plus"] < 0.5 * count["entries"]

    def test_first_moment_gamma_lines_are_conjugate_even_and_monotone(self, monkeypatch):
        # the lattice's preconditions on the four log Gamma(c + ix) lines the
        # first-moment pieces pass: K(-x) = conj K(x) to the bit, also after
        # the row shift and exp the mirror copies, and Re log K monotone in |x|
        from rsmoments import kernels, lseries, moments

        lines = []

        def recording(log_pref, log_c, log_km, log_kp, *args, **kwargs):
            lines.extend((log_km, log_kp))
            return sf.ValueWithError(0.0j, 0.0)

        monkeypatch.setattr(moments, "integrate_aligned_lattice", recording)
        delta = lseries.delta_newform(400)
        kp = kernels.TestFunctionParams(T=14.8, alpha=0.5, R=1.0)
        ctx = moments.MomentContext(t=0.4, f=delta, g=delta, N=1,
                                    kernel=kernels.KernelContext(kp, t=0.4, k=12), s=2.5 + 0j)
        moments.first_moment_pieces(2, ctx, m_inner=100, inner_panels=6)
        assert len(lines) == 4
        rng = np.random.default_rng(5)
        x = np.concatenate([np.linspace(0.0, 600.0, 60001), rng.uniform(0.0, 600.0, 40000)])
        for log_k in lines:
            up, down = log_k(x), log_k(-x)
            assert np.array_equal(down.view(float), np.conj(up).view(float))
            shift = up.real.max()
            assert np.array_equal(np.exp(down - shift).view(float), np.conj(np.exp(up - shift)).view(float))
            re = up.real[:60001]
            steps = np.diff(re)
            assert np.all(steps <= 0.0) or np.all(steps >= 0.0)


def test_extrapolate_to_zero():
    h = [0.4, 0.2, 0.1, 0.05]
    vals = [1.0 + 3 * x + 2 * x**2 - x**3 for x in h]
    assert abs(sf.extrapolate_to_zero(h, vals) - 1.0) < 1e-12
