import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from rsmoments import specfun as sf
from rsmoments import arith as ar


RNG = np.random.default_rng(20260810)


class TestLogGamma:
    def test_against_scipy_grid(self):
        pts = []
        for re in (-950.0, -10.3, -0.7, 0.3, 2.0, 55.0, 900.0):
            for im in (-9000.0, -300.0, -21.0, -3.0, 0.31, 5.0, 18.0, 450.0, 9999.0):
                pts.append(complex(re, im))
        pts = np.array(pts)
        err = np.max(np.abs(sf.log_gamma(pts) - scipy_loggamma(pts)) / (1 + np.abs(scipy_loggamma(pts))))
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


class TestDigamma:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_against_mpmath(self, order):
        for z in (3.5 + 2j, 0.2 - 4j, -6.3 + 0.4j, 12 + 150j, 6 - 0.05j, 50 + 30j):
            v = sf.digamma_family(z, order)
            r = complex(mp.polygamma(order, z)) if order else complex(mp.digamma(z))
            assert abs(v - r) <= 1e-10 * (1 + abs(r))

    def test_classical_values(self):
        assert abs(sf.digamma_family(1.0, 0) + sf.EULER_GAMMA) < 1e-13
        assert abs(sf.digamma_family(1.0, 1) - math.pi**2 / 6) < 1e-12

    def test_matches_log_gamma_difference(self):
        # finite difference of log_gamma at a deep complex point
        z = 50.0 + 30.0j
        h = 1e-4
        fd = (sf.log_gamma(z + h) - sf.log_gamma(z - h)) / (2 * h)
        assert abs(fd - sf.digamma_family(z, 0)) < 1e-8

    def test_bad_order(self):
        with pytest.raises(sf.DomainError):
            sf.digamma_family(2.0, 4)


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

    def test_laurent_matches_mpmath_derivative(self):
        for x in (0.05, 0.02 + 0.03j, -0.04j):
            assert abs(sf.zeta_laurent(x, 0) - complex(mp.zeta(1 + x))) < 1e-11 * abs(complex(mp.zeta(1 + x)))
            assert abs(sf.zeta_laurent(x, 1) - complex(mp.zeta(1 + x, derivative=1))) < 1e-9 * abs(
                complex(mp.zeta(1 + x, derivative=1))
            )

    def test_hurwitz(self):
        for (s, a) in ((2.5 + 3j, 0.3), (0.2 - 40j, 1.0), (6.0, 0.125)):
            assert abs(sf.hurwitz_zeta(s, a) - complex(mp.zeta(s, a))) < 1e-11 * (
                1 + abs(complex(mp.zeta(s, a)))
            )


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
        v = sf.dirichlet_L_depleted(2.0, chi, 6)
        assert abs(v - (1 - 0.25) * (1 - 1 / 9) * math.pi**2 / 6) < 1e-13


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
        spec = sf.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, cutoff_radius=9.0)
        val, err = sf.integrate_line(lambda r: np.exp(-r * r), spec)
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

    def test_tail_bound_added(self):
        spec = sf.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, cutoff_radius=6.0)
        val, err = sf.integrate_line(
            lambda r: np.exp(-r * r), spec, tail_bound=lambda R: math.exp(-R * R)
        )
        assert err >= math.exp(-36.0)


def test_extrapolate_to_zero():
    h = [0.4, 0.2, 0.1, 0.05]
    vals = [1.0 + 3 * x + 2 * x**2 - x**3 for x in h]
    assert abs(sf.extrapolate_to_zero(h, vals) - 1.0) < 1e-12
