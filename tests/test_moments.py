import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from rsmoments import arith as ar
from rsmoments import lseries as ls
from rsmoments import moments as mo
from rsmoments.kernels import KernelContext, TestFunctionParams, h_eval
from rsmoments.specfun import (
    _W7,
    _W15,
    _log_sin_pi,
    DomainError,
    NonConvergenceError,
    PoleError,
    QuadratureSpec,
    ValueWithError,
    extrapolate_to_zero,
    gk15_panel_nodes,
    integrate_aligned_lattice,
    integrate_line,
    riemann_zeta,
)

NU, MU = 0.52, 1.13
KP = TestFunctionParams(T=50.0, alpha=0.5, R=1.0)


@pytest.fixture(scope="module")
def delta():
    return ls.delta_newform(20000)


def synthetic_ctx(N, s, t):
    f = ls.divisor_model_newform(NU, 12, N, 400)
    g = ls.divisor_model_newform(MU, 12, N, 400)

    def provider(cusp, w):
        return ls.divisor_model_rs_L(w, NU, MU, N)

    return mo.MomentContext(
        t=t, f=f, g=g, N=N, kernel=KernelContext(KP, t=t, k=12), s=s, rs_provider=provider
    )


def delta_ctx(s, t, T=50.0, delta_form=None):
    f = delta_form
    kp = TestFunctionParams(T=T, alpha=0.5, R=1.0)
    return mo.MomentContext(t=t, f=f, g=f, N=1, kernel=KernelContext(kp, t=t, k=12), s=s)


# levels where some a | N has gcd(a, N/a) > 1; N = 9 has two cusps at a = 3
LEVELS = (1, 2, 4, 6, 9, 12)


class TestMainTerm:
    @pytest.mark.parametrize("N", LEVELS)
    def test_assembly_identity(self, delta, N):
        for (t, tau) in ((0.3, 0.21), (0.7, -1.4), (1.7, 0.9)):
            ctx = synthetic_ctx(N, 0.5 + 1j * tau, t)
            m = mo.main_term(ctx)
            bd = mo.main_term_breakdown(ctx)
            assert abs(m - bd.assembled) < 1e-9 * abs(m)
        if N > 1:
            return
        ctx = delta_ctx(0.5 + 0.35j, 0.7, delta_form=delta)
        m = mo.main_term(ctx)
        bd = mo.main_term_breakdown(ctx)
        assert abs(m - bd.assembled) < 1e-9 * abs(m)

    def test_trig_identity_standalone(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            s = complex(rng.uniform(-1, 2), rng.uniform(-2, 2))
            t = rng.uniform(-2, 2)
            lhs = np.cos(math.pi * 1j * t) - np.cos(math.pi * (2 * s + 1j * t))
            rhs = 2 * np.sin(math.pi * (s + 1j * t)) * np.sin(math.pi * s)
            assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))

    def test_pole_guard(self, delta):
        ctx = delta_ctx(0.5 + 0j, 0.7, delta_form=delta)
        with pytest.raises(PoleError):
            mo.main_term(ctx)
        ctx2 = delta_ctx(0.5 - 0.7j, 0.7, delta_form=delta)  # f = g RS pole
        with pytest.raises(PoleError):
            mo.main_term(ctx2)

    def test_conjugation_symmetry(self):
        for (t, tau) in ((0.7, 0.9), (1.7, -0.4)):
            c1 = synthetic_ctx(2, 0.5 + 1j * tau, t)
            c2 = synthetic_ctx(2, np.conj(c1.s), -t)
            m1 = mo.main_term(c1)
            m2 = mo.main_term(c2)
            assert abs(m2 - np.conj(m1)) < 1e-10 * abs(m1)

    def test_missing_cusp_data(self, delta):
        # past level 1 every L-value, at every cusp, is the provider's
        f2 = ls.divisor_model_newform(NU, 12, 2, 400)
        g2 = ls.divisor_model_newform(MU, 12, 2, 400)
        ctx = mo.MomentContext(
            t=0.7, f=f2, g=g2, N=2, kernel=KernelContext(KP, t=0.7, k=12), s=0.5 + 0.9j
        )
        with pytest.raises(DomainError, match="rs_provider"):
            ctx.rs_L(ar.CuspLabel(2, 1, 1), 2.5)

    @pytest.mark.parametrize("N, same", [(1, False), (2, True), (2, False)])
    def test_without_a_provider_only_f_eq_g_at_level_one(self, N, same):
        # L(w, f x g~) has two sources: the provider, and zeta * sym^2 for
        # f = g at level 1; anything else is one DomainError naming the first
        f = ls.divisor_model_newform(NU, 12, N, 400)
        g = f if same else ls.divisor_model_newform(MU, 12, N, 400)
        ctx = mo.MomentContext(t=0.7, f=f, g=g, N=N, kernel=KernelContext(KP, t=0.7, k=12), s=0.5 + 0.9j)
        with pytest.raises(DomainError, match="rs_provider"):
            ctx.rs_L(None, 0.5 + 0.2j)
        with pytest.raises(DomainError, match="rs_provider"):
            mo.main_term(ctx)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 25: the divisor model at level 1 takes "
                       "the sym^2 route of a holomorphic form and returns a wrong value")
    def test_without_a_provider_a_divisor_model_raises_at_level_one(self):
        # f = g, N = 1 and no provider: the value zeta(w) L(w, sym^2 f) reads
        # the divisor model as a cusp form, and misses divisor_model_rs_L by
        # 250 %, 45 % and 280 % at w = 1/2 + 0.3i, 1 - 1.4i and 1/2 + 2i
        f = ls.divisor_model_newform(MU, 12, 1, 4000)
        ctx = mo.MomentContext(t=0.7, f=f, g=f, N=1, kernel=KernelContext(KP, t=0.7, k=12), s=0.5 + 0.9j)
        with pytest.raises(DomainError):
            ctx.rs_L(None, 0.5 + 0.3j)

    def test_equal_copy_routes_like_the_form(self, delta):
        # f = g is NewformData equality, not identity: a copy of delta takes
        # delta's sym^2 route, bit for bit
        copy = ls.NewformData(1, 12, delta.a)
        assert copy is not delta
        kernel = KernelContext(KP, t=0.7, k=12)
        s = 0.5 + 0.35j
        want = mo.main_term(mo.MomentContext(t=0.7, f=delta, g=delta, N=1, kernel=kernel, s=s))
        got = mo.main_term(mo.MomentContext(t=0.7, f=delta, g=copy, N=1, kernel=kernel, s=s))
        assert got == want

    def test_shared_label_is_not_f_eq_g(self):
        # a form with f's label but other coefficients is another form: the
        # f = g pole at s = 1/2 - it does not apply
        t = 0.7
        f = ls.divisor_model_newform(NU, 12, 1, 400)
        g = ls.NewformData(1, 12, ls.divisor_model_newform(MU, 12, 1, 400).a, label=f.label)

        def provider(cusp, w):
            return ls.divisor_model_rs_L(w, NU, MU, 1)

        ctx = mo.MomentContext(t=t, f=f, g=g, N=1, kernel=KernelContext(KP, t=t, k=12),
                               s=0.5 - 1j * t, rs_provider=provider)
        assert np.isfinite(mo.main_term(ctx))

    @pytest.mark.parametrize("k, kernel_t", [(16, 0.7), (12, 0.5)])
    def test_kernel_takes_the_forms_weight_and_t(self, delta, k, kernel_t):
        with pytest.raises(ValueError):
            mo.MomentContext(t=0.7, f=delta, g=delta, N=1,
                             kernel=KernelContext(KP, t=kernel_t, k=k), s=0.5 + 0.9j)

    def test_infinity_class_reaches_the_provider_as_none(self):
        N, t = 6, 0.7
        f = ls.divisor_model_newform(NU, 12, N, 400)
        g = ls.divisor_model_newform(MU, 12, N, 400)
        seen = []

        def provider(cusp, w):
            seen.append(cusp)
            return ls.divisor_model_rs_L(w, NU, MU, N)

        def ctx(s):
            kernel = KernelContext(KP, t=t, k=12)
            return mo.MomentContext(t=t, f=f, g=g, N=N, kernel=kernel, s=s, rs_provider=provider)

        mo.main_term(ctx(0.5 + 0.9j))
        mo.main_term_breakdown(ctx(0.5 + 0.9j))
        for which in ("fneq_minus", "fneq_plus"):
            mo.main_term_specialized(ctx(None), which)
        cusps = ar.enumerate_cusps(N)
        infinity = next(c for c in cusps if c.a == N)
        ctx(None).rs_L(infinity, 2.5)
        assert seen[-1] is None
        assert [c for c in cusps if c in seen] == [c for c in cusps if c.a != N]
        assert all(c is None or c.a != N for c in seen)

    def test_exponential_regime_dominance(self, delta):
        # at |t| = T^beta with beta > 1 - alpha only the two H0(0)-terms of
        # the s = 1/2 - it display survive; at level 1 they equal
        # 2 H0(0) |zeta(1-2it)|^2 L(1, f x g~) / zeta(2)
        T = 300.0
        kp = TestFunctionParams(T=T, alpha=0.6, R=1.0)
        t = T**0.75
        f = ls.divisor_model_newform(NU, 12, 1, 400)
        g = ls.divisor_model_newform(MU, 12, 1, 400)

        def provider(cusp, w):
            return ls.divisor_model_rs_L(w, NU, MU, 1)

        from rsmoments.specfun import QuadratureSpec

        ker = KernelContext(
            kp, t=t, k=12, quad=QuadratureSpec(rel_tol=1e-9, abs_tol=1e-8)
        )
        ctx = mo.MomentContext(t=t, f=f, g=g, N=1, kernel=ker, s=None, rs_provider=provider)
        from rsmoments.specfun import riemann_zeta

        full = mo.main_term_specialized(ctx, "fneq_minus")
        simple = (
            2.0
            * ctx.H0(0.0)
            * riemann_zeta(1 + 2j * t)
            * riemann_zeta(1 - 2j * t)
            * provider(None, 1.0)
            / riemann_zeta(2.0)
        )
        assert abs(full - simple) < 1e-8 * abs(full)


class TestInfinityBatch:
    """At level 1 with f = g a point's four sym^2 values are one batch, which
    main_term and main_term_breakdown both read; their assemblies stay apart."""

    def test_one_afe_batch_per_point(self, delta, monkeypatch):
        calls = []
        afe = ls._smoothed_afe

        def counting(*args, **kwargs):
            calls.append(1)
            return afe(*args, **kwargs)

        monkeypatch.setattr(ls, "_smoothed_afe", counting)
        ls._sym2_L.cache_clear()
        ctx = delta_ctx(0.5 + 0.83j, 0.61, delta_form=delta)
        mo.main_term(ctx)
        assert len(calls) == 1  # four distinct u, closed under u -> 1 - u: one batch
        mo.main_term_breakdown(ctx)
        assert len(calls) == 1

    def test_main_term_bits_do_not_depend_on_the_breakdown(self, delta):
        ctx = delta_ctx(0.5 - 1.37j, 0.94, delta_form=delta)
        ls._sym2_L.cache_clear()
        alone = mo.main_term(ctx)
        ls._sym2_L.cache_clear()
        mo.main_term_breakdown(ctx)
        after = mo.main_term(ctx)
        assert (alone.real.hex(), alone.imag.hex()) == (after.real.hex(), after.imag.hex())
        assert abs(alone - mo.main_term_breakdown(ctx).assembled) < 1e-9 * abs(alone)


class TestSpecialized:
    def test_fneq_agrees_with_generic(self):
        for t in (0.7, 1.3):
            ctx_m = synthetic_ctx(1, 0.5 - 1j * t, t)
            assert (
                abs(mo.main_term(ctx_m) - mo.main_term_specialized(ctx_m, "fneq_minus"))
                < 1e-9 * abs(mo.main_term(ctx_m))
            )
            ctx_p = synthetic_ctx(1, 0.5 + 1j * t, t)
            assert (
                abs(mo.main_term(ctx_p) - mo.main_term_specialized(ctx_p, "fneq_plus"))
                < 1e-9 * abs(mo.main_term(ctx_p))
            )

    @pytest.mark.parametrize("N", LEVELS[1:])
    def test_fneq_composite_level(self, N):
        for which, sgn in (("fneq_minus", -1), ("fneq_plus", +1)):
            t = 0.7
            ctx = synthetic_ctx(N, 0.5 + sgn * 1j * t, t)
            gen = mo.main_term(ctx)
            spec = mo.main_term_specialized(ctx, which)
            assert abs(gen - spec) < 1e-9 * abs(gen)
        # the f = g displays take sym^2 data, which exists at level 1 only
        for which in ("feq_minus", "feq_plus"):
            with pytest.raises(DomainError):
                mo.main_term_specialized(synthetic_ctx(N, None, 0.7), which)

    @pytest.mark.parametrize("which", ["feq_minus", "feq_plus"])
    def test_feq_displays_refuse_f_neq_g(self, which):
        # f's self-dual Laurent constants say nothing about L(w, f x g~), g != f
        with pytest.raises(DomainError, match="f = g"):
            mo.main_term_specialized(synthetic_ctx(1, None, 0.7), which)

    @pytest.mark.parametrize("which", ["fneq_minus", "fneq_plus"])
    def test_fneq_displays_refuse_f_eq_g(self, delta, which, monkeypatch):
        # L(w, f x f~) has its pole at w = 1, where these displays read it;
        # the refusal names the display before any H0 or L-value work
        ctx = delta_ctx(None, 0.7, delta_form=delta)

        def no_work(*args):
            pytest.fail("work started before f = g was refused")

        monkeypatch.setattr(ctx, "H0", no_work)
        monkeypatch.setattr(ctx, "rs_L", no_work)
        with pytest.raises(DomainError, match="f != g display"):
            mo.main_term_specialized(ctx, which)

    def test_feq_limits(self, delta):
        # Richardson limit of the generic path onto the displayed value
        for t, tol in ((0.1, 1e-5), (0.01, 1e-6)):
            ctx0 = delta_ctx(None, t, delta_form=delta)
            hs = (0.12, 0.08, 0.05, 0.03, 0.02)
            for which, sgn in (("feq_minus", -1), ("feq_plus", +1)):
                vals = [
                    mo.main_term(
                        delta_ctx(0.5 + sgn * 1j * t * (1 - h), t, delta_form=delta),
                        pole_guard=1e-9,
                    )
                    for h in hs
                ]
                lim = extrapolate_to_zero(hs, vals)
                spec = mo.main_term_specialized(ctx0, which)
                assert abs(lim - spec) < tol * abs(lim), (which, t)

    def test_misspelt_laurent_slot_rejected(self, delta, monkeypatch):
        ctx0 = delta_ctx(None, 0.7, delta_form=delta)
        # a misspelt display is rejected as such, before the level check
        # and before any H0 or sym^2 AFE work
        def no_work(*args):
            pytest.fail("work started before `which` was checked")

        monkeypatch.setattr(mo, "selfdual_rs_constants", no_work)
        for ctx in (ctx0, synthetic_ctx(2, None, 0.7)):
            monkeypatch.setattr(ctx, "H0", no_work)
            with pytest.raises(DomainError, match="unknown specialisation 'feq_minsu'"):
                mo.main_term_specialized(ctx, "feq_minsu")

    def test_t_zero_rejected(self, delta):
        with pytest.raises(PoleError):
            mo.main_term_specialized(delta_ctx(None, 0.0, delta_form=delta), "feq_minus")

    def test_t0_limit_node_stability(self, delta):
        def builder(t):
            return delta_ctx(None, t, T=100.0, delta_form=delta)

        a = mo.main_term_t0_limit(builder, "feq_minus", t_nodes=(0.04, 0.02, 0.01))
        b = mo.main_term_t0_limit(builder, "feq_minus", t_nodes=(0.02, 0.01, 0.005))
        c = mo.main_term_t0_limit(builder, "feq_plus", t_nodes=(0.04, 0.02, 0.01))
        assert a.imag == 0.0
        assert abs(a - b) < 1e-6 * abs(a)
        assert abs(a - c) < 1e-5 * abs(a)


class TestEulerIdentity:
    def test_exact(self):
        for N in (1, 2, 12, 36, 60):
            for t in (0.3, 1.7):
                lhs = mo.euler_identity_lhs(N, t)
                rhs = mo.euler_identity_rhs(N, t)
                assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.floats(-20.0, 20.0))
    def test_random_levels(self, N, t):
        lhs = mo.euler_identity_lhs(N, t)
        rhs = mo.euler_identity_rhs(N, t)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestLeadingCoeff:
    def test_level_one_factors(self):
        # degree 2: coefficient 4; degree 3: coefficient 8/3 (times the rest)
        base = math.pi ** (-1.5) * 2.0 / (math.pi**2 / 6.0)
        assert abs(mo.leading_coeff(2, 1, 1.0) - 4 * base) < 1e-14
        # t5 + t6 = R [F(x) - F(-x)]/x^3 has finite part R H0'''(0)/(3 zeta(2)), H0''' ~ (2 log T)^3 H0
        assert abs(mo.leading_coeff(3, 1, 1.0) - 8 / 3 * base) < 1e-14

    def test_positivity(self):
        for N in (1, 2, 6, 30):
            assert mo.leading_coeff(3, N, 0.7) > 0

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            mo.leading_coeff(4, 1, 1.0)


@pytest.fixture(scope="module")
def continuous_result(delta):
    kp = TestFunctionParams(T=80.0, alpha=0.5, R=1.0)
    ctx = mo.MomentContext(
        t=0.0, f=delta, g=delta, N=1, kernel=KernelContext(kp, t=0.0, k=12), s=0.5 + 0j
    )
    full = mo.continuous_part(ctx, points_per_unit=1.5)
    half = mo.continuous_part(ctx, points_per_unit=1.5, half_line=True)
    return full, half


class TestContinuous:
    @pytest.mark.parametrize("ppu", [-1.0, 0.0, math.nan, math.inf])
    def test_points_per_unit_must_be_positive_and_finite(self, delta, ppu, monkeypatch):
        # -1 and 0 were raised to the 8-panel minimum; nan and inf failed in math.ceil
        monkeypatch.setattr(mo, "holo_L", lambda *a, **k: pytest.fail("work started"))
        kp = TestFunctionParams(T=11.0, alpha=0.5, R=1.0)
        ctx = mo.MomentContext(
            t=0.5, f=delta, g=delta, N=1, kernel=KernelContext(kp, t=0.5, k=12), s=0.5 - 0.5j
        )
        with pytest.raises(DomainError, match="points_per_unit"):
            mo.continuous_part(ctx, points_per_unit=ppu)

    def test_half_line_doubling(self, continuous_result):
        full, half = continuous_result
        # same node layout mirrored: agreement is the evenness of the integrand
        assert abs(full.value - half.value) < 1e-10 * abs(full.value)

    def test_each_distinct_argument_evaluated_once(self, delta, monkeypatch):
        # the mirrored full line meets every f- and g-side argument twice;
        # the AFE sums each distinct u once, so both layouts sum as many
        kp = TestFunctionParams(T=11.0, alpha=0.5, R=1.0)
        ctx = mo.MomentContext(
            t=0.4, f=delta, g=delta, N=1, kernel=KernelContext(kp, t=0.4, k=12), s=0.5 - 0.4j
        )
        rows = []
        fold = ls._log_gamma

        def counting_fold(shifts):
            log_gamma, scale = fold(shifts)

            def counting(u, w):
                if np.ndim(w) == 0:  # the reference log g(u), once per summed u
                    rows.append(np.size(u))
                return log_gamma(u, w)

            return counting, scale

        monkeypatch.setattr(ls, "_log_gamma", counting_fold)
        full = mo.continuous_part(ctx, points_per_unit=1.0)
        n_full = sum(rows)
        rows.clear()
        half = mo.continuous_part(ctx, points_per_unit=1.0, half_line=True)
        assert sum(rows) == n_full > 0
        assert abs(full.value - half.value) < 1e-10 * abs(full.value)

    def test_one_batch_closed_under_reflection(self, delta, monkeypatch):
        # with f = g each integrand evaluation makes one holo_L call; at
        # s = 1/2 - it its arguments are closed under s -> 1 - s, so the AFE
        # sums each of its first sums once
        kp = TestFunctionParams(T=11.0, alpha=0.5, R=1.0)
        ctx = mo.MomentContext(
            t=0.4, f=delta, g=delta, N=1, kernel=KernelContext(kp, t=0.4, k=12), s=0.5 - 0.4j
        )
        evaluations, batches = [], []
        gk15 = mo._gk15

        def counting_gk15(f, *edges):
            def g(x):
                evaluations.append(len(x))
                return f(x)

            return gk15(g, *edges)

        def recording(s, f, method):
            batches.append(s)
            return ls.holo_L(s, f, method=method)

        monkeypatch.setattr(mo, "_gk15", counting_gk15)
        monkeypatch.setattr(mo, "holo_L", recording)
        for half_line in (False, True):
            evaluations.clear()
            batches.clear()
            mo.continuous_part(ctx, points_per_unit=1.0, half_line=half_line)
            assert len(batches) == len(evaluations) == 1
            assert np.array_equal(np.unique(batches[0]), np.unique(1.0 - batches[0]))

    def test_matches_two_batch_transcription(self, delta):
        # the f- and the g-side as two batches and zeta(1 + 2ir) zeta(1 - 2ir)
        # as a product: the integral before the sides were paired.  With
        # f != g continuous_part itself takes the sides as two batches
        kp = TestFunctionParams(T=11.0, alpha=0.5, R=1.0)
        t = 0.7
        hi = kp.T + 12.0 * kp.bump_width
        edges = np.linspace(0.0, hi, max(8, int(math.ceil(hi * 2.0 / 4.0))) + 1)
        for g in (delta, ls.divisor_model_newform(1.13, 12, 1, 400)):
            ctx = mo.MomentContext(
                t=t, f=delta, g=g, N=1, kernel=KernelContext(kp, t=t, k=12), s=0.5 - 1j * t
            )

            def integrand(r):
                ir = 1j * r
                lf1, lf2 = ls.holo_L(np.concatenate([0.5 + 1j * t + ir, 0.5 + 1j * t - ir]), delta,
                                     method="afe").reshape(2, -1)
                lg1, lg2 = ls.holo_L(np.concatenate([ctx.s + ir, ctx.s - ir]), g, method="afe").reshape(2, -1)
                zz = np.array([riemann_zeta(1.0 + 2.0 * x) * riemann_zeta(1.0 - 2.0 * x) for x in ir.tolist()])
                return h_eval(r, kp) * lf1 * lf2 * lg1 * lg2 / (math.pi * zz)

            want = 2.0 * sum(v for v, _ in mo._gk15(integrand, *edges))
            got = mo.continuous_part(ctx, points_per_unit=2.0, half_line=True).value
            assert abs(got - want) <= 1e-15 * abs(want), g is delta

    def test_real_at_symmetric_point(self, continuous_result):
        full, _ = continuous_result
        assert abs(full.value.imag) < 1e-8 * abs(full.value)

    def test_desk_scale_size(self, continuous_result):
        # the asymptotic bound T^{2 max(alpha,beta)+eps} carries a desk-scale
        # constant: measured |S| is 2.03 x T^{1.5} here
        full, _ = continuous_result
        assert abs(full.value) < 4.0 * 80.0**1.5

    def test_level_restriction(self, delta):
        f2 = ls.divisor_model_newform(NU, 12, 2, 400)
        ctx = mo.MomentContext(
            t=0.0, f=f2, g=f2, N=2, kernel=KernelContext(KP, t=0.0, k=12), s=0.5 + 0j
        )
        with pytest.raises(DomainError):
            mo.continuous_part(ctx)


class TestDiscreteMoment:
    def test_single_form_product_oracle(self, delta):
        u = ls.synthetic_maass_form(N=1, L=1, r=12.4, m_max=20000, seed=9)
        t = 0.4
        s = 2.5 + 0j
        # L(1/2 + it, f x u) has only the direct series, whose tail
        # certificate there is inf: at 2,500 and 20,000 terms it read
        # 0.709 + 0.150i and 0.800 + 0.915i, a truncation artefact
        with pytest.raises(DomainError):
            ls.rankin_selberg_maass(0.5 + 1j * t, delta, u)
        # the other factor, at conj(s) = 5/2, is in the direct region
        lg = ls.rankin_selberg_maass(np.conj(s), delta, u)
        assert np.isfinite(lg.value) and np.isfinite(lg.error)


_FM_QUAD = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=2000)


def _summed_spike_l_plus(n, ctx, sigma_u, m_inner, inner_panels, quad=integrate_line):
    """L^+ of the first-moment identity with its outer integrand taken as it
    stands: the v-node sum of Gamma(u - v + k/2)/Gamma(u + v + 1 - k/2),
    which spikes a = sigma_u - 1.1 off the u-line over every inner node.
    Returns (L^+, the raw outer integral)."""
    k, t, p = ctx.k, ctx.t, ctx.kernel.params
    it = 1j * t
    ghi = p.T + 12.0 * p.bump_width
    sigma_v = 1.0 + k / 2.0 + 0.1
    m_inner = min(m_inner, ctx.f.M - n)
    ms = np.arange(1, m_inner + 1)
    weights = ar.sigma_twisted_array(ctx.N, t, m_inner) * ctx.f.a[n : n + m_inner]
    rv_max = ghi + 40.0 / math.pi
    nodes, wts = gk15_panel_nodes(np.linspace(-rv_max, rv_max, inner_panels + 1))
    v = sigma_v + 1j * nodes
    inner = np.exp(np.multiply.outer(-v + it, np.log(ms))) @ weights
    core = np.exp(loggamma(v - it) + loggamma(v + it) + (v - k / 2.0) * math.log(n)) * inner

    def outer_plus(gam):
        u = sigma_u + 1j * gam
        pref = (
            h_eval(gam - 1j * sigma_u, p, enforce_strip=False)
            * u
            * np.exp(-_log_sin_pi(u + 0.5) - loggamma(-u + it + k / 2.0) - loggamma(u + it + k / 2.0))
        )
        gm = np.exp(
            loggamma(np.add.outer(u, -v) + k / 2.0) - loggamma(np.add.outer(u, v) + 1.0 - k / 2.0)
        )
        return pref * ((gm * core) @ wts) / (2.0 * math.pi)

    raw = quad(outer_plus, _FM_QUAD, interval=(-ghi, ghi)).value
    return (1j) ** k * np.exp(2.0 * it * math.log(2.0 * math.pi)) * (2.0 / math.pi) * raw, raw


def _uniform_gk15(f, spec, interval):
    """Composite GK15 on equal panels no wider than 0.25, halved until the
    panels' summed |I15 - I7| is within max(abs_tol, rel_tol |I|)."""
    lo, hi = interval
    panels = math.ceil((hi - lo) / 0.25)
    while panels <= spec.max_subdivisions:
        x, _ = gk15_panel_nodes(np.linspace(lo, hi, panels + 1))
        rows = np.asarray(f(x)).reshape(panels, 15)
        half = 0.5 * (hi - lo) / panels
        val = half * np.sum(rows @ _W15)
        err = half * np.sum(np.abs(rows @ (_W15 - _W7)))
        if err <= max(spec.abs_tol, spec.rel_tol * abs(val)):
            return ValueWithError(val, err)
        panels *= 2
    raise NonConvergenceError("_uniform_gk15 exhausted max_subdivisions")


class TestFirstMoment:
    def test_n1_lminus_empty(self, delta):
        ctx = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        _, lminus, _ = mo.first_moment_pieces(1, ctx, m_inner=4000, inner_panels=24)
        assert lminus == 0

    def test_m_piece_conjugation(self, delta):
        # the two summands of M swap under t -> -t (real coefficients)
        ctx_p = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        ctx_m = delta_ctx(2.5 + 0j, -0.37, T=12.0, delta_form=delta)
        m_p, _, _ = mo.first_moment_pieces(1, ctx_p, m_inner=64, inner_panels=8)
        m_m, _, _ = mo.first_moment_pieces(1, ctx_m, m_inner=64, inner_panels=8)
        assert abs(m_p - np.conj(m_m)) < 1e-10 * abs(m_p)

    def test_contour_validation(self, delta):
        ctx = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        with pytest.raises(DomainError):
            mo.first_moment_pieces(2, ctx, sigma_u=1.7)
        with pytest.raises(DomainError):
            mo.first_moment_pieces(2, ctx, sigma_0=-0.5)

    def test_sigma_u_left_of_the_gamma_poles_rejected(self, delta):
        # Gamma(u - v + k/2) has poles at Re u = sigma_v - k/2 = 1.1, so a
        # u-line at 1.05 is on the wrong side of them (at 24 inner panels it
        # returned L^+ = 46244 - 45277i; 1.3 and 1.45 agree on 0.4316 - 0.1227i)
        ctx = delta_ctx(2.5 + 0j, 0.5, T=12.0, delta_form=delta)
        with pytest.raises(DomainError):
            mo.first_moment_pieces(4, ctx, sigma_u=1.05)

    @pytest.mark.parametrize("n, sigma_u", [(2, 1.25), (8, 1.25), (4, 1.45)])
    def test_l_plus_matches_summed_spike_integrand(self, delta, n, sigma_u):
        ctx = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        _, _, lp = mo.first_moment_pieces(n, ctx, sigma_u=sigma_u, m_inner=400, inner_panels=6)
        ref, raw = _summed_spike_l_plus(n, ctx, sigma_u, 400, 6)
        tol = max(_FM_QUAD.abs_tol, _FM_QUAD.rel_tol * abs(raw)) * 2.0 / math.pi
        assert abs(lp - ref) <= tol

    def test_l_plus_pole_subtraction_cuts_evaluations(self, delta, monkeypatch):
        # any residue gives the same value (the subtracted part comes back in
        # closed form); only the right one leaves a smooth outer integrand.
        # Counted in u-panels of the accepted uniform rule: the lattice's for
        # the subtracted integrand, _uniform_gk15's for the summed spikes
        panels = {"lattice": 0, "summed_spike": 0}

        def counting(key, f):
            def g(x):
                panels[key] = x.size // 15
                return f(x)

            return g

        def counting_lattice(log_pref, *args, **kwargs):
            if "pole" not in kwargs:  # the L^- call
                return integrate_aligned_lattice(log_pref, *args, **kwargs)
            return integrate_aligned_lattice(counting("lattice", log_pref), *args, **kwargs)

        def counting_uniform(f, spec, interval):
            return _uniform_gk15(counting("summed_spike", f), spec, interval)

        monkeypatch.setattr(mo, "integrate_aligned_lattice", counting_lattice)
        ctx = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        mo.first_moment_pieces(2, ctx, m_inner=400, inner_panels=6)
        _summed_spike_l_plus(2, ctx, 1.25, 400, 6, quad=counting_uniform)
        assert 2 * panels["lattice"] < panels["summed_spike"]

    def test_l_plus_contour_independence(self, delta):
        # no pole lies between Re u = 1.3 and 1.45, so moving the u-line
        # changes only the quadrature error
        ctx = delta_ctx(2.5 + 0j, 0.5, T=12.0, delta_form=delta)
        _, _, lp1 = mo.first_moment_pieces(4, ctx, sigma_u=1.3, m_inner=400, inner_panels=12)
        _, _, lp2 = mo.first_moment_pieces(4, ctx, sigma_u=1.45, m_inner=400, inner_panels=12)
        assert abs(lp1 - lp2) <= 2.0 * _FM_QUAD.rel_tol * abs(lp1)

    def test_l_plus_finite_at_large_T(self, delta):
        # at T = 100 the inner nodes reach |Im v| = 233, where 1/Gamma in a
        # pole residue overflows unless it is formed in logs
        ctx = delta_ctx(2.5 + 0j, 0.37, T=100.0, delta_form=delta)
        with np.errstate(over="raise", invalid="raise"):
            _, _, lp = mo.first_moment_pieces(1, ctx, m_inner=200, inner_panels=8)
        assert np.isfinite(lp)

    def test_l_plus_finite_at_T_110(self, delta):
        # Gamma(u - v + k/2) / Gamma(u + v + 1 - k/2) alone overflows here;
        # the lattice forms it in logs and scales it with the other factors
        pieces = []
        for t in (0.37, -0.37):
            ctx = delta_ctx(2.5 + 0j, t, T=110.0, delta_form=delta)
            with np.errstate(over="raise", invalid="raise"):
                pieces.append(mo.first_moment_pieces(1, ctx, m_inner=200, inner_panels=8))
        lp, lp_conj = pieces[0][2], np.conj(pieces[1][2])
        assert np.isfinite(lp)
        assert abs(lp - lp_conj) <= _FM_QUAD.abs_tol

    @pytest.mark.parametrize("panels", [24, 72])
    def test_lattice_matches_integrate_line(self, delta, monkeypatch, panels):
        # the L^- and L^+ outer integrals against the adaptive loop at
        # rel_tol 1e-12 on the same integrand and window (the lattice's
        # overhangs it by less than a u-panel, where h is below e^-140),
        # with L^+'s subtracted poles integrated in closed form on both sides
        calls = []

        def recording(*args, **kwargs):
            out = integrate_aligned_lattice(*args, **kwargs)
            calls.append((args, kwargs.get("pole"), out.value))
            return out

        monkeypatch.setattr(mo, "integrate_aligned_lattice", recording)
        ctx = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        mo.first_moment_pieces(2, ctx, m_inner=400, inner_panels=panels)
        assert [pole is None for _, pole, _ in calls] == [True, False]
        # abs_tol 1e-3 of the pieces' own: L^- at n = 2 sits near it
        fine = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-13, max_subdivisions=20000)
        for (log_pref, log_c, log_km, log_kp, edges, (lo, hi), spec), pole, value in calls:
            y, _ = gk15_panel_nodes(edges)

            def outer(g):
                terms = log_c + log_km(np.subtract.outer(g, y)) + log_kp(np.add.outer(g, y))
                out = np.exp(log_pref(g)) * np.exp(terms).sum(axis=1)
                if pole is not None:
                    out -= (1.0 / (pole[0] + 1j * np.subtract.outer(g, y))) @ pole[1]
                return out

            ref = integrate_line(outer, fine, interval=(lo, hi)).value
            if pole is not None:
                a, r = pole
                ref += np.sum(r * -1j * np.log((a + 1j * (hi - y)) / (a + 1j * (lo - y))))
            assert abs(value - ref) <= max(spec.abs_tol, spec.rel_tol * abs(ref))

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(2, 8),
        st.floats(10.5, 16.0),
        st.floats(0.3, 1.0),
        st.integers(6, 12),
    )
    def test_pieces_at_minus_t_are_conjugates(self, delta, n, T, t, panels):
        # real coefficients: every piece at -t is the conjugate of the piece
        # at t, to the benchmark's bounds (1e-10 for M, 1e-8 for L^-+).  With
        # few v-panels at n = 8, L^+'s outer integral can sit on a roundoff
        # floor above its rel_tol, which the lattice hands to integrate_line;
        # where that cannot get under it either, both signs stop there
        pieces = []
        for tt in (t, -t):
            ctx = delta_ctx(2.5 + 0j, tt, T=T, delta_form=delta)
            try:
                pieces.append(mo.first_moment_pieces(n, ctx, m_inner=400, inner_panels=panels))
            except NonConvergenceError:
                pieces.append(None)
        if None in pieces:
            assert pieces == [None, None]
            return
        for a, b, tol in zip(*pieces, (1e-10, 1e-8, 1e-8)):
            assert abs(a - np.conj(b)) <= tol * abs(b)

    def test_l_plus_needs_a_coefficient_past_n(self):
        # at n = M, or with m_inner = 0, the inner series
        # sum_m a(n + m) ... has no terms and L^+ would read 0
        f = ls.divisor_model_newform(NU, 12, 1, 400)
        ctx = delta_ctx(2.5 + 0j, 0.5, T=12.0, delta_form=f)
        for n in (400, 401):
            with pytest.raises(ls.InsufficientCoefficientsError):
                mo.first_moment_pieces(n, ctx)
        with pytest.raises(DomainError):
            mo.first_moment_pieces(2, ctx, m_inner=0)
        mo.first_moment_pieces(399, ctx, m_inner=1, inner_panels=4)

    @pytest.mark.parametrize("panels", [0, -3])
    def test_refuses_fewer_than_one_panel(self, panels):
        # these escaped as a ZeroDivisionError from the lattice's h_v and as
        # numpy's ValueError from linspace
        f = ls.divisor_model_newform(NU, 12, 1, 400)
        ctx = delta_ctx(2.5 + 0j, 0.5, T=12.0, delta_form=f)
        with pytest.raises(DomainError, match="inner_panels"):
            mo.first_moment_pieces(2, ctx, inner_panels=panels)

    # 25 panels have a middle panel at y = 0, and at 160 the coarse x fine
    # grid of the panel mids (14 x 12) runs past the last panel
    @pytest.mark.parametrize("panels", [24, 25, 72, 160])
    @pytest.mark.parametrize("t", [0.4, -0.4])
    def test_factored_inner_sums_match_direct_exp(self, panels, t):
        # the L^+ inner sums at the bench's T, against one exp per (node, m);
        # the bound is float64 rounding of the sum's absolute terms
        n, m_inner = 2, 19_999
        # the last block of m is a partial one
        assert m_inner % (mo._INNER_BLOCK_BYTES // (16 * panels)) != 0
        delta = ls.delta_newform(n + m_inner)
        k = delta.k
        sigma_v = 1.0 + k / 2.0 + 0.1
        kp = TestFunctionParams(T=14.8, alpha=0.5, R=1.0)
        rv_max = kp.T + 12.0 * kp.bump_width + 40.0 / math.pi
        edges = np.linspace(-rv_max, rv_max, panels + 1)
        nodes, _ = gk15_panel_nodes(edges)
        w = ar.sigma_twisted_array(1, t, m_inner) * delta.a[n : n + m_inner]
        log_m = np.log(np.arange(1, m_inner + 1))
        direct = np.concatenate([  # 60 nodes at a time: 19 MB of exp
            np.exp(np.multiply.outer(-(sigma_v + 1j * y - 1j * t), log_m)) @ w
            for y in np.array_split(nodes, -(-len(nodes) // 60))
        ])
        got = mo._inner_sums(edges, sigma_v, t, w)
        scale = np.abs(w) @ np.exp(-sigma_v * log_m)
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct)) <= 64.0 * np.finfo(float).eps * scale

    def test_traced_peak_flat_in_panel_count(self, delta):
        # the L^+ inner series runs over blocks of m and the lattice stores
        # only the table rows it reads, so one call's traced peak stays put as
        # the v-panels grow: 7.8, 9.3 and 11.6 MB at 24, 72 and 160 panels,
        # where the whole inner factor P and full-height tables took 13.1,
        # 28.3 and 56.6 MB
        ctx = delta_ctx(2.5 + 0j, 0.5, T=15.07, delta_form=delta)
        for panels in (24, 72, 160):
            tracemalloc.start()
            try:
                mo.first_moment_pieces(8, ctx, inner_panels=panels)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6, panels

    def test_traced_peak_at_a_doubling_lattice(self, delta):
        # the bench's seed-31 fm-0-2 point: its L^+ lattice doubles to 2,142
        # rows a table and reads 558 K- and 1,490 K+ rows.  Built a v-panel
        # at a time, the tables hold 558 and 1,074 rows at most, and the
        # call peaks at 7.5 MB, where whole tables peaked at 15.7 MB
        ctx = delta_ctx(2.5 + 0j, 0.617, T=14.65, delta_form=delta)
        tracemalloc.start()
        try:
            mo.first_moment_pieces(8, ctx, inner_panels=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.0e6

    def test_quadrature_consistency(self, delta):
        ctx = delta_ctx(2.5 + 0j, 0.37, T=12.0, delta_form=delta)
        _, lm1, lp1 = mo.first_moment_pieces(6, ctx, m_inner=20000)
        _, lm2, lp2 = mo.first_moment_pieces(6, ctx, m_inner=20000, inner_panels=110)
        assert abs(lm1 - lm2) < 1e-6 * max(abs(lm1), 1e-10)
        assert abs(lp1 - lp2) < 1e-4 * abs(lp1)


class TestGrowthTrend:
    def test_trend_invariant(self, delta):
        # the ratio sequence varies by < 20% between consecutive T and moves
        # monotonically toward the leading coefficient (the acceptance
        # criterion adds T = 800 and closeness within 20% there; see
        # tests/test_acceptance.py)
        c = mo.leading_coeff(3, 1, ls.selfdual_rs_constants(delta)["residue"])
        ratios = []
        for T in (100.0, 200.0, 400.0):
            kp = TestFunctionParams(T=T, alpha=0.5, R=1.0)

            def builder(t, kp=kp):
                return mo.MomentContext(
                    t=t, f=delta, g=delta, N=1,
                    kernel=KernelContext(kp, t=t, k=12), s=None,
                )

            val = mo.main_term_t0_limit(builder, "feq_minus")
            ratios.append(val.real / (T**1.5 * math.log(T) ** 3))
        assert all(abs(r2 / r1 - 1) < 0.2 for r1, r2 in zip(ratios, ratios[1:]))
        dists = [abs(r - c) for r in ratios]
        assert dists[0] > dists[1] > dists[2]


class TestErrorExponent:
    def test_first_branch(self):
        assert mo.error_exponent(0.5, 0.2, +1, 12) == pytest.approx(0.25)
        assert mo.error_exponent(0.5, 0.2, -1, 12) == pytest.approx(0.25)
        # boundary beta = 1 - alpha belongs to the first branch
        assert mo.error_exponent(0.6, 0.4, +1, 12) == pytest.approx(0.4)

    def test_second_branch(self):
        assert mo.error_exponent(0.6, 0.7, +1, 12) == pytest.approx((1.2 - 0.7) * 6.5)

    def test_third_branch(self):
        alpha, beta = 0.55, 0.75
        delta = alpha - (2 * beta - 1)
        val = mo.error_exponent(alpha, beta, -1, 12)
        assert val == pytest.approx(1 - 1.5 * beta + delta * 6)

    def test_undefined_marker(self):
        assert mo.error_exponent(0.5, 0.9, -1, 12) is None
        assert mo.error_exponent(0.35, 0.95, +1, 12) is None

    def test_domain(self):
        with pytest.raises(DomainError):
            mo.error_exponent(0.2, 0.5, +1, 12)
