"""Seeded inputs and cross-checked items for the benchmark workloads.

An item is one cross-checked unit of work: it computes a value on its
primary path, computes the same quantity on an independent route, and
returns both with the tolerance that path states.  ``build(lib, name,
seed, seconds)`` draws a fixed batch of items from the seed alone; the
batch size depends on the workload and ``seconds`` only, never on how fast
the program runs, so two commits do the same work.

Inputs are stratified: item ``i`` of a cycle always draws from the same
sub-range, and the seed picks the point inside it.  Every seed therefore
gets the same mix of cheap and dear items, which keeps batch times
comparable across seeds.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Each workload runs two parts, each for half of ``seconds``: a 20 s part is
# too short to average out this host's swings in speed, and two parts per
# workload keep the budget of the runs a benchmark may make.
WORKLOADS = {
    "continuous-main-term": ("continuous", "main-term"),
    "first-moment-oracle": ("first-moment", "oracle"),
}

NU, MU = 0.52, 1.13  # divisor-model spectral parameters, as in the test suite
DELTA_M = 20000  # delta_newform horizon: the CLI and test-suite default
COMPOSITE_N = (2, 3, 4, 6)
# first-moment inner v-panels: 24 as in the n = 1 test, so that three
# cross-checked items fit a part; the outer adaptive loop is unchanged
INNER_PANELS = 24
ZERO_ORDER = (1, 12, 5, 8, 3, 10, 7, 2, 11, 6, 9, 4)  # oracle: levels of the cusp 0, in turn


@dataclass
class Check:
    """One comparison: ``value`` (primary path) against ``route`` at ``tol``.

    ``tol`` is relative to ``max(|route|, floor)``; ``floor`` > 0 turns the
    comparison absolute for routes that vanish identically.  ``ref_tol``
    (default ``tol``) holds ``value`` to the committed reference instead.
    """

    label: str
    value: complex
    route: complex
    tol: float
    floor: float = 0.0
    ref_tol: float | None = None

    def miss(self) -> float | None:
        """The relative miss when the check fails, else None."""
        scale = max(abs(self.route), self.floor)
        diff = abs(self.value - self.route)
        if not math.isfinite(diff) or diff > self.tol * scale:
            return diff / scale if scale else math.inf
        return None


@dataclass
class Item:
    id: str
    kind: str
    params: dict
    run: Callable[[], list]  # -> list[Check]


def _cycles(seconds: float, cycle_seconds: float) -> int:
    return max(1, round(seconds / cycle_seconds))


def _u(rng: random.Random, lo: float, hi: float, j: int, n: int) -> float:
    """A draw from stratum j of n equal parts of [lo, hi]."""
    w = (hi - lo) / n
    return lo + w * (j + rng.random())


def build(lib, name: str, seed: int, seconds: float) -> list:
    """The batch of items for workload ``name``; ``lib`` holds the modules."""
    parts = {
        "continuous": _continuous,
        "main-term": _main_term,
        "oracle": _oracle,
        "first-moment": _first_moment,
    }
    items = []
    for part in WORKLOADS[name]:
        rng = random.Random(f"{part}:{seed}")
        items += parts[part](lib, rng, seconds / len(WORKLOADS[name]))
    return items


# ---------------------------------------------------------------------------
# continuous: the continuous-spectrum integral at level 1 (smoothed AFE heavy)


def _continuous(lib, rng, seconds):
    mo, ker, ls = lib.moments, lib.kernels, lib.lseries
    delta = ls.delta_newform(DELTA_M)
    per_cycle = 3
    zero_slot = rng.randrange(per_cycle)
    items = []
    for c in range(_cycles(seconds, 24.0)):
        for j in range(per_cycle):
            T = 11.0 + 2.0 * j + rng.uniform(-0.5, 0.5)  # cost grows with T
            t = 0.0 if j == zero_slot else rng.uniform(0.3, 1.0)
            s = complex(0.5, -t)  # the CLI's s = 1/2 - i t' (tprime_sign = +1)
            r = rng.uniform(0.0, T)
            kp = ker.TestFunctionParams(T=T, alpha=0.5, R=1.0)
            ctx = mo.MomentContext(
                t=t, f=delta, g=delta, N=1, kernel=ker.KernelContext(kp, t=t, k=12), s=s
            )

            def run(ctx=ctx, t=t, r=r):
                v = mo.continuous_part(ctx, points_per_unit=2.0, half_line=True)
                # s = 1/2 - it pairs every f-side L-value with the conjugate
                # of a g-side one computed separately, so the integral is
                # real; 1e-8 is the test suite's bound on Im/|S|.  Against
                # the reference, each node multiplies four holo_L values at
                # holo_L's tol = 1e-8, so S may move by 4e-8.  The realness
                # test cannot see an error that conjugation leaves alone, so
                # the AFE is also held to the direct series at the node's
                # heights, in their overlap at Re w = 3 (the test suite's
                # AFE-against-direct test at its 1e-8).
                checks = [
                    Check("S", v.value, v.value.real, 1e-8, ref_tol=4e-8),
                    Check("S_error_finite", float(math.isfinite(v.error)), 1.0, 0.0),
                ]
                for label, w in (("L_afe_plus", complex(3.0, t + r)),
                                 ("L_afe_minus", complex(3.0, t - r))):
                    checks.append(Check(label, ls.holo_L(w, delta, method="afe"),
                                        ls.holo_L(w, delta, method="direct"), 1e-8))
                return checks

            items.append(Item(f"continuous-{c}-{j}", "continuous",
                              {"T": T, "t": t, "s": [s.real, s.imag], "r": r}, run))
    return items


# ---------------------------------------------------------------------------
# main-term: M(s, t) against its breakdown, the displays, and the t -> 0 limit


def _main_term(lib, rng, seconds):
    mo, ker, ls, sf = lib.moments, lib.kernels, lib.lseries, lib.specfun
    delta = ls.delta_newform(DELTA_M)
    syn = {N: (ls.divisor_model_newform(NU, 12, N, 400), ls.divisor_model_newform(MU, 12, N, 400))
           for N in (1,) + COMPOSITE_N}

    def provider_for(N):
        def provider(cusp, w):
            return ls.divisor_model_rs_L(w, NU, MU, N)
        return provider

    def kernel(T, t):
        return ker.KernelContext(ker.TestFunctionParams(T=T, alpha=0.5, R=1.0), t=t, k=12)

    def taus(t, n):
        # s = 1/2 + i tau, away from the poles at tau = 0 and tau = -+t
        out = []
        for j in range(n):
            while True:
                tau = _u(rng, -2.4, 2.4, j, n)
                if min(abs(tau), abs(tau - t), abs(tau + t)) > 0.05:
                    out.append(tau)
                    break
        return out

    def assembly(ctx):
        def run():
            m = mo.main_term(ctx)
            bd = mo.main_term_breakdown(ctx)
            return [Check("M", m, bd.assembled, 1e-9)]  # criterion 7
        return run

    items = []
    for c in range(_cycles(seconds, 1.4)):
        T = _u(rng, 30.0, 300.0, c % 4, 4)
        # three groups of four level-1 delta points, each group sharing one
        # kernel context (sym^2 AFE route); they are three fifths of all
        # items, so item_p50_s is a level-1 time well inside that cluster
        for grp in range(3):
            t = rng.uniform(0.3, 1.7)
            k1 = kernel(T, t)
            for j, tau in enumerate(taus(t, 4)):
                ctx = mo.MomentContext(t=t, f=delta, g=delta, N=1, kernel=k1, s=complex(0.5, tau))
                items.append(Item(f"mt-{c}-l1-{grp}{j}", "generic-level1",
                                  {"T": T, "t": t, "tau": tau}, assembly(ctx)))
        # four composite-level divisor-model points sharing one context
        t = rng.uniform(0.3, 1.7)
        k2 = kernel(T, t)
        for j, (N, tau) in enumerate(zip(COMPOSITE_N, taus(t, 4))):
            f, g = syn[N]
            ctx = mo.MomentContext(t=t, f=f, g=g, N=N, kernel=k2, s=complex(0.5, tau),
                                   rs_provider=provider_for(N))
            items.append(Item(f"mt-{c}-N{N}-{j}", "generic-composite",
                              {"T": T, "t": t, "tau": tau, "N": N}, assembly(ctx)))
        # f != g displays at s = 1/2 -+ it against the generic path there
        for which, sgn in (("fneq_minus", -1), ("fneq_plus", +1)):
            N = rng.choice((1,) + COMPOSITE_N)
            t = rng.uniform(0.3, 1.7)
            f, g = syn[N]
            kf = kernel(T, t)

            def run(N=N, t=t, f=f, g=g, kf=kf, which=which, sgn=sgn):
                prov = provider_for(N)
                gen = mo.main_term(mo.MomentContext(t=t, f=f, g=g, N=N, kernel=kf,
                                                    s=complex(0.5, sgn * t), rs_provider=prov))
                spec = mo.main_term_specialized(
                    mo.MomentContext(t=t, f=f, g=g, N=N, kernel=kf, s=None, rs_provider=prov), which)
                return [Check(which, spec, gen, 1e-9)]  # tests/test_moments.py TestSpecialized

            items.append(Item(f"mt-{c}-{which}", which, {"T": T, "t": t, "N": N}, run))
        # f = g display (psi-weighted H0 derivatives) against the Richardson
        # limit of the generic path, as in the feq-limit test at t = 0.1
        which, sgn = (("feq_minus", -1), ("feq_plus", +1))[c % 2]
        t = rng.uniform(0.08, 0.12)
        ke = kernel(T, t)

        def run(t=t, ke=ke, which=which, sgn=sgn):
            hs = (0.12, 0.08, 0.05, 0.03, 0.02)
            vals = [
                mo.main_term(mo.MomentContext(t=t, f=delta, g=delta, N=1, kernel=ke,
                                              s=complex(0.5, sgn * t * (1 - h))), pole_guard=1e-9)
                for h in hs
            ]
            lim = sf.extrapolate_to_zero(hs, vals)
            spec = mo.main_term_specialized(
                mo.MomentContext(t=t, f=delta, g=delta, N=1, kernel=ke, s=None), which)
            return [Check(which, spec, lim, 1e-5)]

        items.append(Item(f"mt-{c}-{which}", which, {"T": T, "t": t}, run))
        # the moment-table path M(1/2, 0): feq_minus limit against feq_plus
        if c % 4 == 0:
            Tl = _u(rng, 30.0, 300.0, (c // 4) % 4, 4)

            def run(Tl=Tl):
                def builder(tt):
                    return mo.MomentContext(t=tt, f=delta, g=delta, N=1, kernel=kernel(Tl, tt), s=None)
                a = mo.main_term_t0_limit(builder, "feq_minus", t_nodes=(0.04, 0.02, 0.01))
                b = mo.main_term_t0_limit(builder, "feq_plus", t_nodes=(0.04, 0.02, 0.01))
                return [Check("M_half_0", a, b, 1e-5)]  # TestSpecialized node test

            items.append(Item(f"mt-{c}-t0", "t0-limit", {"T": Tl}, run))
    return items


# ---------------------------------------------------------------------------
# oracle: tau at seeded cusps against the lattice oracle, twisted series,
# shifted series (eisenstein / arith / shifted; no AFE, no quadrature)


def _oracle(lib, rng, seconds):
    ar, ei, ls, sh = lib.arith, lib.eisenstein, lib.lseries, lib.shifted
    delta = ls.delta_newform(DELTA_M)
    cusps = {N: ar.enumerate_cusps(N) for N in range(1, 13)}
    zero = [cusps[N][0] for N in range(1, 13)]  # a = 1 comes first
    others = [c for N in range(2, 13) for c in cusps[N][1:]]

    def tau_item(cusp, s, n):
        def run():
            trunc = ei.LatticeTruncation(max_height=1600, fourier_y=0.5 / abs(n), fourier_points=128)
            v = ei.tau_oracle(cusp, s, n, trunc)
            w = ei.tau_cusp(cusp, s, n)
            # criterion 3: 1e-4 relative; a coefficient that vanishes
            # identically (|tau| < 1e-10) must come out below 1e-5
            if abs(w) < 1e-10:
                return [Check("tau", v, 0.0, 1.0, floor=1e-5)]
            return [Check("tau", w, v, 1e-4)]
        return run

    items = []
    for c in range(_cycles(seconds, 4.5)):
        # The cusp 0 (a = 1) has the most lattice rows and its cost varies
        # threefold with N, so it follows a fixed rotation over N = 1..12
        # and every seed visits the same levels, with three (s, n) requests
        # that share the cusp.  Three seeded cusps among all the others get
        # one request each.  Request j has |n| = j + 1 and complex s for
        # j = 1, so every seed gets the same mix of request shapes.
        zc = zero[ZERO_ORDER[c % len(ZERO_ORDER)] - 1]
        slots = [("zero", zc, j) for j in range(3)]
        slots += [("other", rng.choice(others), j) for j in range(3)]
        for kind, cusp, j in slots:
            s = complex(_u(rng, 1.2, 1.6, j, 3), rng.uniform(-1.0, 1.0) if j == 1 else 0.0)
            n = rng.choice((1, -1)) * (j + 1)
            items.append(Item(
                f"or-{c}-{kind}-{j}", f"tau-{kind}",
                {"N": cusp.N, "a": cusp.a, "c": cusp.c, "s": [s.real, s.imag], "n": n},
                tau_item(cusp, s, n)))
        # twisted series: direct (1e5 terms) against the Euler factorisation,
        # at criterion 4's s = 2.5 (see bench/README.md for s below it)
        N = rng.choice((1, 2, 3, 4))
        cusp = rng.choice(cusps[N])
        s, t, r = 2.5, rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.6)

        def run(cusp=cusp, s=s, t=t, r=r):
            d = ls.curly_L_eisenstein_direct(s, t, r, cusp, m_max=100_000)
            fa = ls.curly_L_eisenstein_factored(s, t, 1j * r, cusp)
            return [Check("curlyL", d.value, fa, 1e-6)]  # criterion 4

        items.append(Item(f"or-{c}-twist", "twisted",
                          {"N": N, "a": cusp.a, "c": cusp.c, "s": s, "t": t, "r": r}, run))
        # shifted series: raw against rearranged (criterion 11 at 1e-9)
        req = sh.ShiftedSeriesRequest(
            s=complex(rng.uniform(8.2, 8.5), rng.uniform(-0.8, 0.8)),
            v=complex(rng.uniform(7.0, 7.2), 0.0), t=rng.uniform(0.4, 1.0),
            N=1, M_outer=1500, M_inner=1500)

        def run(req=req):
            z1 = sh.Z_series_double(req, delta, delta)
            z2 = sh.Z_series(req, delta, delta)
            return [Check("Z", z2.value, z1.value, 1e-9)]

        items.append(Item(f"or-{c}-Z", "Z-series",
                          {"s": [req.s.real, req.s.imag], "v": req.v.real, "t": req.t}, run))
        s, w, t = rng.uniform(2.1, 2.4), rng.uniform(2.5, 2.9), rng.uniform(0.4, 1.0)

        def run(s=s, w=w, t=t):
            m1 = sh.M3_series(s, w, t, delta, delta, 1, 1000, 15000)
            m2 = sh.M3_series_rearranged(s, w, t, delta, delta, 1, 1000, 15000)
            return [Check("M3", m2.value, m1.value, 1e-9)]

        items.append(Item(f"or-{c}-M3", "M3-series", {"s": s, "w": w, "t": t}, run))
    return items


# ---------------------------------------------------------------------------
# first-moment: the double contour quadratures (adaptive integrate_line)


def _first_moment(lib, rng, seconds):
    mo, ker, ls, sf = lib.moments, lib.kernels, lib.lseries, lib.specfun
    delta = ls.delta_newform(DELTA_M)
    quad = sf.QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=2000)  # the pieces' own
    # The adaptive panel count grows with n (about 1,200 integrand calls at
    # n = 2, 1,800 at n = 8) far more than with T or t, so each cycle takes
    # one n from each third of [2, 8] by rotation and the seed draws T and
    # t.  n = 1 skips the L^- quadrature altogether; the test suite covers it.
    per_cycle = 3
    items = []
    for c in range(_cycles(seconds, 20.0)):
        for j in range(per_cycle):
            n = min(8, 2 + 3 * j + c % 3)
            T = 11.0 + 2.0 * ((j + c) % per_cycle) + rng.uniform(-0.5, 0.5)
            t = rng.uniform(0.3, 1.0)
            # bumps as wide as the pieces' own kernel bumps (T^alpha, 3.3 to
            # 3.9 here); see bench/README.md for narrower ones
            bumps = [(rng.uniform(-T, T), rng.uniform(1.5, 4.0), rng.uniform(-0.5, 0.5))
                     for _ in range(3)]

            kp = ker.TestFunctionParams(T=T, alpha=0.5, R=1.0)

            def ctx(tt, kp=kp):
                return mo.MomentContext(t=tt, f=delta, g=delta, N=1,
                                        kernel=ker.KernelContext(kp, t=tt, k=12), s=2.5 + 0j)

            def run(n=n, t=t, ctx=ctx, bumps=bumps, edge=T + 12.0 * kp.bump_width):
                # real coefficients: every piece at -t is the conjugate of
                # the piece at t (tests/test_moments.py m-piece test; the
                # quadratures are held to their own rel_tol 1e-8)
                p = mo.first_moment_pieces(n, ctx(t), inner_panels=INNER_PANELS)
                q = mo.first_moment_pieces(n, ctx(-t), inner_panels=INNER_PANELS)
                # conjugation cannot see an error of integrate_line that
                # both sides share, so the adaptive loop also integrates
                # three oscillating Gaussian bumps over the pieces' outer
                # window, at their tolerances, against the closed form
                # sum sigma sqrt(2 pi) exp(-b^2 sigma^2 / 2 + i b c)
                def bump_sum(x):
                    return sum(np.exp(-((x - c0) ** 2) / (2.0 * sg * sg) + 1j * b * x)
                               for c0, sg, b in bumps)

                g = sf.integrate_line(bump_sum, quad, interval=(-edge, edge))
                exact = sum(sg * math.sqrt(2.0 * math.pi) * cmath.exp(-0.5 * (b * sg) ** 2 + 1j * b * c0)
                            for c0, sg, b in bumps)
                return [
                    Check("M", p[0], q[0].conjugate(), 1e-10),
                    Check("L_minus", p[1], q[1].conjugate(), 1e-8),
                    Check("L_plus", p[2], q[2].conjugate(), 1e-8),
                    Check("bumps", g.value, exact, 1e-8, floor=1.0),
                ]

            items.append(Item(f"fm-{c}-{j}", "first-moment",
                              {"n": n, "T": T, "t": t, "bumps": bumps}, run))
    return items
