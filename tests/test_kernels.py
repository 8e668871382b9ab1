import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import loggamma

from rsmoments import kernels as kn
from rsmoments.specfun import (
    DomainError,
    PoleError,
    QuadratureSpec,
    gk15_panel_nodes,
    integrate_line,
)


PARAMS = kn.TestFunctionParams(T=80.0, alpha=0.5, R=1.0)


class TestTestFunction:
    def test_zero_at_half_i(self):
        assert abs(kn.h_eval(0.5j, PARAMS)) < 1e-15
        assert abs(kn.h_eval(-0.5j, PARAMS)) < 1e-15

    def test_even(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-3 * PARAMS.T, 3 * PARAMS.T, 64)
        assert np.max(np.abs(kn.h_eval(r, PARAMS) - kn.h_eval(-r, PARAMS))) < 1e-15

    def test_value_at_peak(self):
        p = kn.TestFunctionParams(T=50.0, alpha=0.5, R=1.0)
        expect = (1.0 + math.exp(-4 * 50.0)) * (50.0**2 + 0.25) / (50.0**2 + 1.0)
        assert abs(kn.h_eval(50.0, p) - expect) < 1e-13

    def test_real_route_matches_complex_route(self):
        # real r skips the complex arithmetic and returns a real value; both
        # routes carry the conditioning of exp(-x^2) at the window's edge
        rng = np.random.default_rng(8)
        for T, alpha, R in ((12.0, 0.4, 1.0), (80.0, 0.5, 3.0), (300.0, 0.65, 40.0)):
            p = kn.TestFunctionParams(T=T, alpha=alpha, R=R)
            lo, hi = p.window()
            r = rng.uniform(lo, hi, 200)
            real = kn.h_eval(r, p)
            cplx = kn.h_eval(r.astype(complex), p)
            assert real.dtype == np.float64
            assert np.all(np.abs(real - cplx) <= 6e-14 * np.abs(cplx))
        assert isinstance(kn.h_eval(50.0, PARAMS), float)
        assert isinstance(kn.h_eval(50.0 + 0.1j, PARAMS), complex)

    def test_strip_violation(self):
        with pytest.raises(kn.StripViolationError):
            kn.h_eval(1.0j, PARAMS)
        # internal continuation is available with the check off
        assert np.isfinite(kn.h_eval(1.0j + 3.0, PARAMS, enforce_strip=False))

    def test_tanh_pi_takes_complex_r(self):
        # it cast r to float, dropping Im r; numpy's complex tanh saturates
        points = [1.0 + 0.3j, -2.5 + 0.1j, 0.2 - 0.45j, 400.0 + 0.3j, -400.0 - 0.2j, 1000.0 + 0.25j]
        got = kn.tanh_pi(np.array(points))
        for r, value in zip(points, got):
            expect = cmath.tanh(math.pi * r)
            assert abs(value - expect) <= 4 * np.finfo(float).eps * abs(expect)
            assert kn.tanh_pi(r) == value
        real = np.linspace(-3.0, 3.0, 61)
        assert np.array_equal(kn.tanh_pi(real), np.tanh(math.pi * real))

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_T_refused(self, T):
        with pytest.raises(ValueError, match="finite T >= 10"):
            kn.TestFunctionParams(T=T, alpha=0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kn.TestFunctionParams(T=5.0, alpha=0.5)
        with pytest.raises(ValueError):
            kn.TestFunctionParams(T=50.0, alpha=0.7)
        with pytest.raises(ValueError):
            kn.TestFunctionParams(T=50.0, alpha=0.5, R=2501.0)

    def test_polynomial_decay_bound_on_shifted_line(self):
        for r in (2 * PARAMS.T + 1, 5 * PARAMS.T):
            v = abs(kn.h_eval(r + 0.4j, PARAMS, enforce_strip=False))
            assert v <= 100.0 / (abs(r) + 1.0) ** 2


class TestH0:
    CTX = kn.KernelContext(PARAMS, t=0.0, k=12)

    def test_x_zero_is_plain_integral(self):
        # at ix = 0 the gamma ratio is identically 1; compare the generic
        # path against the direct h r tanh integral
        def f(r):
            return kn.h_eval(r, PARAMS) * r * kn.tanh_pi(r)

        lo, hi = PARAMS.window()
        direct, _ = integrate_line(f, QuadratureSpec(rel_tol=1e-12), interval=(lo, hi))
        direct = 2.0 * direct / math.pi**2
        assert abs(kn.H0(0.0, self.CTX) - direct) < 1e-11 * abs(direct)

    def test_window_invariance(self):
        # value insensitive to pushing the cutoff past 10 T^alpha
        val12 = kn.H0(0.4j, self.CTX)
        w = 15.0 * PARAMS.bump_width

        def f(r):
            a = 6.0 + 0.4j
            from scipy.special import loggamma

            ratio = np.exp(
                loggamma(1j * r + a)
                + loggamma(-1j * r + a)
                - loggamma(1j * r + 6.0)
                - loggamma(-1j * r + 6.0)
            )
            return kn.h_eval(r, PARAMS) * r * kn.tanh_pi(r) * ratio

        wide, _ = integrate_line(
            f, QuadratureSpec(rel_tol=1e-12), interval=(max(0.0, PARAMS.T - w), PARAMS.T + w)
        )
        wide = 2.0 * wide / math.pi**2
        assert abs(val12 - wide) < 1e-9 * abs(wide)

    def test_full_line_agrees_with_doubled_half(self):
        # the integrand is even in r: brute integration over both bumps
        def f(r):
            a = 6.0 + 0.3j

            from scipy.special import loggamma

            ratio = np.exp(
                loggamma(1j * r + a)
                + loggamma(-1j * r + a)
                - loggamma(1j * r + 6.0)
                - loggamma(-1j * r + 6.0)
            )
            return kn.h_eval(r, PARAMS) * r * kn.tanh_pi(r) * ratio

        w = 12.0 * PARAMS.bump_width
        full, _ = integrate_line(
            f, QuadratureSpec(rel_tol=1e-12), interval=(-PARAMS.T - w, PARAMS.T + w)
        )
        full = full / math.pi**2
        assert abs(kn.H0(0.3j, self.CTX) - full) < 1e-9 * abs(full)

    def test_reality_at_t_zero_real_slot(self):
        # a real argument in the ix slot at t = 0 makes the gamma ratio
        # |G(k/2 + x + ir)|^2 / |G(k/2 + ir)|^2, so the integrand is real
        for slot in (0.0, -0.6, 1.2):
            v = kn.H0(slot, self.CTX)
            assert abs(v.imag) <= 1e-12 * max(abs(v.real), 1.0)
        # and conjugation pairs purely imaginary slots
        assert abs(kn.H0(0.7j, self.CTX) - np.conj(kn.H0(-0.7j, self.CTX))) < 1e-9

    def test_peak_ratio(self):
        p = kn.TestFunctionParams(T=300.0, alpha=0.5, R=1.0)
        ctx = kn.KernelContext(p, t=0.0, k=12)
        ratio = kn.H0(0.0, ctx).real / (2.0 * math.pi ** (-1.5) * 300.0**1.5)
        assert 0.9 < ratio < 1.1

    def test_decay_regime_sets_in(self):
        # the oscillation-damped size is exp(-(x T^(alpha-1) . T^alpha-ish)^2);
        # at alpha = 0.5, x = T^0.78 the stretched exponent is ~ 26 and the
        # 1e-8 T^(1+alpha) bound holds with a wide margin
        p = kn.TestFunctionParams(T=300.0, alpha=0.5, R=1.0)
        ctx = kn.KernelContext(p, t=0.0, k=12, quad=QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9))
        val = abs(kn.H0(1j * 300.0**0.78, ctx))
        assert val < 1e-8 * 300.0**1.5
        # and the size shrinks monotonically in |x| through the regime
        sizes = [abs(kn.H0(1j * 300.0**b, ctx)) for b in (0.7, 0.74, 0.78)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_window_edges_one_bump_width_apart(self):
        for T, alpha in ((30.0, 0.4), (80.0, 0.5), (300.0, 0.6), (12.0, 0.6)):
            p = kn.TestFunctionParams(T=T, alpha=alpha, R=1.0)
            edges = p.window_edges
            # built once per params, read-only, and the same as a fresh build
            assert p.window_edges is edges and not edges.flags.writeable
            assert np.array_equal(edges, kn.TestFunctionParams(T=T, alpha=alpha, R=1.0).window_edges)
            lo, hi = p.window()
            assert (edges[0], edges[-1]) == (lo, hi)
            assert np.all(np.diff(edges) > 0) and np.all(np.diff(edges) <= p.bump_width * (1 + 1e-12))
            if lo > 0.0:
                assert edges.size == 25  # 24 bump widths, whatever the roundoff of hi - lo

    @pytest.mark.parametrize("alpha", [0.4, 0.6])
    def test_against_fixed_panel_reference(self, alpha, monkeypatch):
        # a fixed 480-panel GK15 rule over the window (within 5e-14 of 960
        # panels on this grid); H0 starts from bump-width panels and needs
        # few integrand calls
        calls = []

        def counted(f, spec, interval):
            n = [0]

            def g(x):
                n[0] += 1
                return f(x)

            out = integrate_line(g, spec, interval=interval)
            calls.append(n[0])
            return out

        monkeypatch.setattr(kn, "integrate_line", counted)
        s = 0.75 + 0.9j
        for T in (30.0, 100.0, 300.0):
            p = kn.TestFunctionParams(T=T, alpha=alpha, R=1.0)
            x, w = gk15_panel_nodes(np.linspace(*p.window(), 481))
            for t in (0.1, 0.5, 1.6):
                ctx = kn.KernelContext(p, t=t, k=12)
                for ix in (0.0, -2j * t, -2 * s + 1, -2 * s + 1 - 2j * t):
                    f = kn._h0_integrand_factory(complex(ix), ctx)
                    ref = 2.0 * complex(np.sum(w * f(x))) / math.pi**2
                    assert abs(kn.H0(ix, ctx) - ref) <= 1e-12 * abs(ref), (T, t, ix)
        assert len(calls) == 36 and max(calls) <= 8

    def test_pole_detection(self):
        ctx = kn.KernelContext(PARAMS, t=0.0, k=4)
        with pytest.raises(PoleError):
            kn.H0(-2.0 - 80.0j + 0j, ctx)  # k/2 + Re(ix) = 0, crossing in window

    def test_pole_check_at_both_signs(self):
        # the poles of the ir and the -ir factor sit at r = -/+ Im(ix): both
        # signs of Im(ix) cross the window, and past its top neither does
        ctx = kn.KernelContext(PARAMS, t=0.0, k=4)
        lo, hi = PARAMS.window()
        assert hi < 200.0
        with pytest.raises(PoleError):
            kn._gamma_ratio_pole_check(-2.0 + 80.0j, ctx, lo, hi)
        kn._gamma_ratio_pole_check(-2.0 - 200.0j, ctx, lo, hi)

    def test_no_pole_at_a_non_integer_gamma_argument(self):
        # k/2 + Re(ix) = -0.5 is not a pole of the gamma factors, though
        # Im(ix) = 50 sits in the window, where -6 + 50j (a = 0) is one
        ctx = kn.KernelContext(kn.TestFunctionParams(T=50.0, alpha=0.5, R=1.0), t=0.0, k=12)
        assert np.isfinite(kn.H0(-6.5 + 50.0j, ctx))
        with pytest.raises(PoleError):
            kn.H0(-6.0 + 50.0j, ctx)


class TestKernelContext:
    def test_frozen(self):
        ctx = kn.KernelContext(PARAMS, t=0.3, k=12)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.t = 0.4
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.params = kn.TestFunctionParams(T=90.0, alpha=0.5)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_t_must_be_finite(self, t):
        # a NaN or infinite t ran H0 to max_subdivisions
        with pytest.raises(ValueError, match="t must be finite"):
            kn.KernelContext(PARAMS, t=t, k=12)

    def test_cache_keys_on_exact_argument(self):
        ctx = kn.KernelContext(PARAMS, t=0.3, k=12)
        at_zero = ctx.cached_H0(0)
        assert ctx.cached_H0(0.0) is at_zero
        near = ctx.cached_H0(1e-15j)
        assert near == kn.H0(1e-15j, ctx) and near is not at_zero
        assert len(ctx._h0_cache) == 2
        # the memo is no part of the context's value
        assert ctx == kn.KernelContext(PARAMS, t=0.3, k=12) and "_h0_cache" not in repr(ctx)


def _fresh_h0(ix, ctx):
    """H0 with every factor of its integrand computed on every call."""
    a = ctx.k / 2.0 + 1j * ctx.t

    def f(r):
        ratio = np.exp(loggamma(1j * r + ix + a) + loggamma(-1j * r + ix + a)
                       - loggamma(1j * r + a) - loggamma(-1j * r + a))
        return kn.h_eval(r, ctx.params) * r * kn.tanh_pi(r) * ratio

    val, _ = integrate_line(f, ctx.quad, interval=ctx.params.window_edges)
    return 2.0 * val / math.pi**2


class TestH0StartFactors:
    def test_bitwise_equal_to_fresh_integrand(self, monkeypatch):
        ctx = kn.KernelContext(PARAMS, t=0.3, k=12)
        calls = []
        line = kn.integrate_line

        def counting(f, spec, interval):
            def g(r):
                calls.append(len(r))
                return f(r)

            return line(g, spec, interval)

        fresh = []
        ix_free = kn._h0_ix_free

        def counting_ix_free(r, c):
            fresh.append(len(r))
            return ix_free(r, c)

        monkeypatch.setattr(kn, "integrate_line", counting)
        monkeypatch.setattr(kn, "_h0_ix_free", counting_ix_free)
        # the first call builds the starting nodes' factors, and 6i splits
        # panels, whose nodes compute their own
        for n, ix in enumerate((0.0, -0.6j, -1.8j, -3.0 - 0.6j, 6j)):
            calls.clear()
            fresh.clear()
            assert kn.H0(ix, ctx) == _fresh_h0(complex(ix), ctx), ix
            assert fresh == calls[:1 if n == 0 else 0] + calls[1:], ix
        assert len(calls) > 1

    def test_read_only_and_built_once(self):
        ctx = kn.KernelContext(PARAMS, t=0.3, k=12)
        kn.H0(0.4j, ctx)
        factors = ctx._h0_start_factors
        assert ctx._h0_start_factors is factors and len(factors) == 4
        for x in factors:
            with pytest.raises(ValueError):
                x[0] = 0.0
        assert len(ctx._h0_cache) == 0  # kept apart from the H0 values

    def test_not_shared_across_t_or_T(self):
        base = kn.KernelContext(PARAMS, t=0.3, k=12)
        other_t = kn.KernelContext(PARAMS, t=0.31, k=12)
        other_T = kn.KernelContext(kn.TestFunctionParams(T=81.0, alpha=0.5, R=1.0), t=0.3, k=12)
        twin = kn.KernelContext(PARAMS, t=0.3, k=12)
        for ctx in (base, other_t, other_T, twin):
            assert ctx.cached_H0(-0.6j) == _fresh_h0(-0.6j, ctx)
        mine = base._h0_start_factors
        for ctx in (other_t, other_T, twin):
            theirs = ctx._h0_start_factors
            assert all(x is not y for x, y in zip(mine, theirs))
        assert not np.array_equal(mine[1], other_t._h0_start_factors[1])
        assert not np.array_equal(mine[0], other_T._h0_start_factors[0])


class TestH0Derivative:
    def test_first_derivative_minus_vs_finite_difference(self):
        t = 0.37
        ctx = kn.KernelContext(PARAMS, t=t, k=12)
        d1 = kn.H0_derivative("minus", ctx)

        def g(sr):
            return kn.H0(-2 * (sr - 1j * t) + 1 - 2j * t, ctx)

        h = 1e-3
        fd = (g(0.5 - 2 * h) - 8 * g(0.5 - h) + 8 * g(0.5 + h) - g(0.5 + 2 * h)) / (12 * h)
        assert abs(d1 - fd) < 1e-5 * abs(fd)

    def test_first_derivative_plus_vs_finite_difference(self):
        t = 0.37
        ctx = kn.KernelContext(PARAMS, t=t, k=12)
        d1 = kn.H0_derivative("plus", ctx)

        def g(sr):
            return kn.H0(-2 * (sr + 1j * t) + 1, ctx)

        h = 1e-3
        fd = (g(0.5 - 2 * h) - 8 * g(0.5 - h) + 8 * g(0.5 + h) - g(0.5 + 2 * h)) / (12 * h)
        assert abs(d1 - fd) < 1e-5 * abs(fd)

    def test_half_line_doubling_consistency(self):
        # the displayed integrand is even in r; the implementation doubles
        # the positive window, so brute full-window integration must agree
        from scipy.special import loggamma
        from rsmoments.specfun import digamma_family

        ctx = kn.KernelContext(PARAMS, t=0.0, k=12)
        val = kn.H0_derivative("minus", ctx)

        def f(r):
            psi = digamma_family(1j * r + 6.0) + digamma_family(-1j * r + 6.0)
            return kn.h_eval(r, PARAMS) * r * kn.tanh_pi(r) * psi

        w = 12.0 * PARAMS.bump_width
        full, _ = integrate_line(
            f, QuadratureSpec(rel_tol=1e-12), interval=(-PARAMS.T - w, PARAMS.T + w)
        )
        full = -2.0 / math.pi**2 * full
        assert abs(val - full) < 1e-12 * abs(full) + 1e-12

    def test_order_validation(self):
        ctx = kn.KernelContext(PARAMS, t=0.3, k=12)
        with pytest.raises(DomainError):
            kn.H0_derivative("sideways", ctx)
