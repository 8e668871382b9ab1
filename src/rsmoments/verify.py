"""The acceptance suite: every headline criterion as a callable check.

Each check returns a :class:`CheckResult` carrying the measured numbers, the
threshold it was held to, and a pass flag.  ``run_suite`` executes a list of
checks and prints one PASS/FAIL line per criterion; the CLI ``verify``
command and the pytest acceptance module both consume this registry, so the
command line and the test suite can never drift apart.  The CLI's
``tau --oracle`` and ``moment-table`` tables are ``tau_against_oracle`` and
``moment_table``, the code criteria 3 and 10 run.

One criterion is implemented exactly as stated although its stated desk
parameters are not attainable (the measured value is reported alongside):
the exponential-decay bound on the kernel at (T=300, alpha=0.4, x=T^0.75)
asks for 1e-8 relative decay where the true stretched exponent is only
exp(-T^{2(beta+alpha-1)}) = exp(-300^0.3) ~ 4e-3.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import arith, eisenstein, lseries, moments, shifted
from .arith import CuspLabel, enumerate_cusps
from .kernels import H0, KernelContext, TestFunctionParams, h_eval
from .specfun import (
    QuadratureSpec,
    _log_zeta_chi,
    complex_gamma,
    extrapolate_to_zero,
    gauss_sum,
    riemann_zeta,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        nums = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in self.measured.items())
        return f"[{status}] {self.name}: {nums}"


def check_h0_peak() -> CheckResult:
    """Criterion 1: H0(0)/(2 pi^-3/2 T^1.5) in [0.9, 1.1] at T=300, runtime < 30 s."""
    t0 = time.time()
    p = TestFunctionParams(T=300.0, alpha=0.5, R=1.0)
    ctx = KernelContext(p, t=0.0, k=12)
    val = H0(0.0, ctx).real
    ratio = val / (2.0 * math.pi ** (-1.5) * 300.0**1.5)
    dt = time.time() - t0
    return CheckResult(
        "h0-peak-asymptotic",
        0.9 <= ratio <= 1.1 and dt < 30.0,
        {"ratio": ratio, "H0": val},
    )


def check_h0_decay() -> CheckResult:
    """Criterion 2: |H0(i T^0.75)| < 1e-8 T^{1+alpha} at T=300, alpha=0.4.

    Implemented exactly as stated; the stated tolerance is not attainable at
    these parameters (see the module docstring), so this check reports the
    honest measured value.
    """
    p = TestFunctionParams(T=300.0, alpha=0.4, R=1.0)
    ctx = KernelContext(
        p, t=0.0, k=12, quad=QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)
    )
    x = 300.0**0.75
    val = abs(H0(1j * x, ctx))
    thresh = 1e-8 * 300.0**1.4
    return CheckResult(
        "h0-exponential-decay",
        val < thresh,
        {"abs_H0": val, "threshold": thresh},
        detail="stretched exponent T^0.3 ~ 5.5 at T=300; bound unattainable as stated",
    )


def tau_against_oracle(cusp: CuspLabel, s, n: int, max_height: int) -> tuple:
    """Criterion 3 at one coefficient: tau_cusp(cusp, s, n), the lattice
    oracle summed to ``max_height``, whether tau vanishes identically, and
    |oracle - tau|, relative to |tau| where it does not vanish."""
    trunc = eisenstein.LatticeTruncation(max_height=max_height, fourier_y=0.5 / abs(n), fourier_points=128)
    oracle = eisenstein.tau_oracle(cusp, s, n, trunc)
    tau = eisenstein.tau_cusp(cusp, s, n)
    vanishes = abs(tau) < 1e-10
    gap = abs(oracle - tau)
    return tau, oracle, vanishes, (gap if vanishes else gap / abs(tau))


def check_eisenstein_oracle() -> CheckResult:
    """Criterion 3: tau formula vs lattice oracle, all cusps N in {1,2,3,4,6,9}."""
    t0 = time.time()
    worst = 0.0
    worst_case = None
    level1 = 0.0
    for N in (1, 2, 3, 4, 6, 9):
        for cusp in enumerate_cusps(N):
            for s in (1.2, 1.5):
                for n in (1, 2, 3):
                    _, _, vanishes, gap = tau_against_oracle(cusp, s, n, 1600)
                    if vanishes:  # the oracle must vanish too
                        gap = math.inf if gap > 1e-5 else 0.0
                    if gap > worst:
                        worst, worst_case = gap, (N, cusp.a, cusp.c, s, n)
    for s in (1.2, 1.5):
        for n in (1, 2, 3):
            v = eisenstein.tau_cusp(CuspLabel(1, 1, 1), s, n)
            w = eisenstein.tau_level_one(s, n)
            level1 = max(level1, abs(v - w) / abs(w))
    dt = time.time() - t0
    return CheckResult(
        "eisenstein-oracle",
        worst < 1e-4 and level1 < 1e-12 and dt < 300.0,
        {"worst_rel": worst, "level1_rel": level1, "worst_case": str(worst_case)},
    )


def check_twisted_factorization() -> CheckResult:
    """Criterion 4: direct vs factored twisted series, N <= 4, m <= 1e5."""
    worst = 0.0
    for N in (1, 2, 3, 4):
        for cusp in enumerate_cusps(N):
            d = lseries.curly_L_eisenstein_direct(2.5, 0.7, 0.3, cusp, m_max=100_000)
            fa = lseries.curly_L_eisenstein_factored(2.5, 0.7, 0.3j, cusp)
            worst = max(worst, abs(d.value - fa) / abs(fa))
    return CheckResult(
        "twisted-series-factorization",
        worst < 1e-6,
        {"worst_rel": worst},
    )


def check_euler_polynomial_zeros() -> CheckResult:
    """Criterion 5: euler_poly(s, it; 1-s+it) vanishes for a | N, a < N, N <= 30."""
    worst = 0.0
    for N in range(2, 31):
        for a in arith.divisors(N):
            if a == N:
                continue
            for t in (0.3, 1.7):
                for tau in (0.0, 0.6):
                    s = 0.8 + 1j * tau
                    worst = max(worst, abs(eisenstein.euler_poly(N, a, s, t, 1.0 - s + 1j * t)))
    return CheckResult("euler-polynomial-zeros", worst < 1e-12, {"worst_abs": worst})


def check_euler_identity() -> CheckResult:
    """Criterion 6: the divisor-sum Euler identity, N <= 60."""
    worst = 0.0
    for N in range(1, 61):
        for t in (0.3, 1.7):
            lhs = moments.euler_identity_lhs(N, t)
            rhs = moments.euler_identity_rhs(N, t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult("euler-product-identity", worst < 1e-12, {"worst_rel": worst})


def _assembly_contexts():
    """Grid contexts for the assembly and reduction checks."""
    f_delta = lseries.delta_newform(20000)
    kp = TestFunctionParams(T=50.0, alpha=0.5, R=1.0)
    nu, mu = 0.52, 1.13
    out = []
    for N in (1, 2):
        fsyn = lseries.divisor_model_newform(nu, 12, N, 400)
        gsyn = lseries.divisor_model_newform(mu, 12, N, 400)

        def provider(cusp, w, N=N):
            return lseries.divisor_model_rs_L(w, nu, mu, N)

        for t in (0.3, 0.7, 1.7):
            ker = KernelContext(kp, t=t, k=12)
            for tau in (0.21, 0.9, -1.4, 2.3):
                out.append(
                    moments.MomentContext(
                        t=t, f=fsyn, g=gsyn, N=N, kernel=ker,
                        s=0.5 + 1j * tau, rs_provider=provider,
                    )
                )
        if N == 1:
            for t in (0.3, 0.7):
                ker = KernelContext(kp, t=t, k=12)
                for tau in (0.35, 1.21):
                    out.append(
                        moments.MomentContext(
                            t=t, f=f_delta, g=f_delta, N=1, kernel=ker, s=0.5 + 1j * tau
                        )
                    )
    return out


def check_assembly() -> CheckResult:
    """Criterion 7: generic main term vs its three-piece breakdown."""
    worst = 0.0
    for ctx in _assembly_contexts():
        m = moments.main_term(ctx)
        bd = moments.main_term_breakdown(ctx)
        worst = max(worst, abs(m - bd.assembled) / abs(m))
    return CheckResult(
        "main-term-assembly",
        worst < 1e-9,
        {"worst_rel": worst},
        detail=(
            "breakdown pieces carry zeta^(N)(3-2s+-2it) denominators; the "
            "four-term form distributes those Euler factors into the per-cusp "
            "products over p | N/a and p | a -- the conventions reconcile exactly"
        ),
    )


def check_level1_reduction() -> CheckResult:
    """Criterion 8: the four-term main term against its level-1 display, 20 points."""
    z = riemann_zeta
    nu, mu = 0.52, 1.13
    kp = TestFunctionParams(T=50.0, alpha=0.5, R=1.0)
    f = lseries.divisor_model_newform(nu, 12, 1, 400)
    g = lseries.divisor_model_newform(mu, 12, 1, 400)

    def provider(cusp, w):
        return lseries.divisor_model_rs_L(w, nu, mu, 1)

    worst = 0.0
    taus = np.linspace(-2.2, 2.4, 10)
    for t in (0.3, 1.7):
        ker = KernelContext(kp, t=t, k=12)
        it = 1j * t
        for tau in taus:
            s = 0.5 + 1j * tau
            ctx = moments.MomentContext(
                t=t, f=f, g=g, N=1, kernel=ker, s=s, rs_provider=provider
            )
            m = moments.main_term(ctx)
            tp = 2.0 * math.pi
            h = ctx.H0
            rsl = provider
            m1 = (
                z(2 * s) * z(1 + 2 * it) * h(0.0) * rsl(None, s + 0.5 + it) / z(2 * s + 1 + 2 * it)
                + tp ** (4 * it) * z(2 * s) * z(1 - 2 * it) * h(-2 * it) * rsl(None, s + 0.5 - it) / z(2 * s + 1 - 2 * it)
                + tp ** (4 * s - 2 + 4 * it) * z(2 - 2 * s) * z(1 - 2 * it) * h(-2 * s + 1 - 2 * it) * rsl(None, 1.5 - s - it) / z(3 - 2 * s - 2 * it)
                + tp ** (4 * s - 2) * z(2 - 2 * s) * z(1 + 2 * it) * h(-2 * s + 1) * rsl(None, 1.5 - s + it) / z(3 - 2 * s + 2 * it)
            )
            worst = max(worst, abs(m - m1) / abs(m))
    return CheckResult("level1-reduction", worst < 1e-12, {"worst_rel": worst})


def check_pole_cancellation() -> CheckResult:
    """Criterion 9: generic-path limit vs the f = g display at t in {1e-2, 1e-3}."""
    f = lseries.delta_newform(20000)
    kp = TestFunctionParams(T=50.0, alpha=0.5, R=1.0)
    worst = 0.0
    for t in (1e-2, 1e-3):
        ker = KernelContext(kp, t=t, k=12)

        def ctx_at(s):
            return moments.MomentContext(t=t, f=f, g=f, N=1, kernel=ker, s=s)

        hs = (0.5, 0.35, 0.25, 0.18, 0.12)
        vals = [
            moments.main_term(ctx_at(0.5 - 1j * t * (1.0 - h)), pole_guard=1e-9)
            for h in hs
        ]
        lim = extrapolate_to_zero(hs, vals)
        spec_val = moments.main_term_specialized(ctx_at(None), "feq_minus")
        worst = max(worst, abs(lim - spec_val) / abs(lim))
    return CheckResult("pole-cancellation", worst < 1e-3, {"worst_rel": worst})


def moment_table(f: lseries.NewformData, T_grid, alpha: float, R: float) -> tuple:
    """Criterion 10's table for f = g: c = ``leading_coeff(3, ...)`` and a row
    (T, M, Re M / (T^{1+alpha} (log T)^3)) per T, the ratio that tends to c,
    with M = M(1/2, 0) the t -> 0 limit of the feq_minus display."""
    c = moments.leading_coeff(3, f.N, lseries.selfdual_rs_constants(f)["residue"])
    rows = []
    for T in T_grid:
        kp = TestFunctionParams(T=T, alpha=alpha, R=R)

        def builder(t, kp=kp):
            return moments.MomentContext(
                t=t, f=f, g=f, N=f.N, kernel=KernelContext(kp, t=t, k=f.k), s=None
            )

        val = moments.main_term_t0_limit(builder, "feq_minus", t_nodes=(0.04, 0.02, 0.01))
        rows.append((T, val, val.real / (T ** (1.0 + alpha) * math.log(T) ** 3)))
    return c, rows


def check_leading_coeff_trend() -> CheckResult:
    """Criterion 10: M(1/2, 0)/(T^1.5 (log T)^3) trend toward the leading coefficient.

    The ratio climbs monotonically toward c = ``leading_coeff(3, ...)`` and
    is ~0.84 c at T = 800; the (log T)^2 and lower terms of the
    log-polynomial close the remaining gap only slowly.
    """
    t0 = time.time()
    c, table = moment_table(lseries.delta_newform(20000), (100.0, 200.0, 400.0, 800.0), 0.5, 1.0)
    ratios = [ratio for _, _, ratio in table]
    dists = [abs(r - c) for r in ratios]
    monotone = all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    steps_ok = all(
        abs(r2 / r1 - 1.0) < 0.2 for r1, r2 in zip(ratios, ratios[1:])
    )
    within = abs(ratios[-1] / c - 1.0) < 0.2
    dt = time.time() - t0
    return CheckResult(
        "leading-coefficient-trend",
        monotone and steps_ok and within and dt < 600.0,
        {
            "ratios": "[" + ", ".join(f"{r:.4f}" for r in ratios) + "]",
            "leading_coeff": c,
            "final_over_c": ratios[-1] / c,
            "monotone": monotone,
        },
        detail="lower-order log T terms keep the ratio ~0.84c at T=800",
    )


def check_rearrangement() -> CheckResult:
    """Criterion 11: dual-path agreement for the shifted double series."""
    f = lseries.delta_newform(20000)
    req = shifted.ShiftedSeriesRequest(
        s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=1500, M_inner=1500
    )
    z1 = shifted.Z_series_double(req, f, f)
    z2 = shifted.Z_series(req, f, f)
    rz = abs(z1.value - z2.value) / abs(z1.value)
    m1 = shifted.M3_series(2.2, 2.7, 0.7, f, f, 1, 1000, 15000)
    m2 = shifted.M3_series_rearranged(2.2, 2.7, 0.7, f, f, 1, 1000, 15000)
    rm = abs(m1.value - m2.value) / abs(m1.value)
    return CheckResult(
        "shifted-series-rearrangement",
        rz < 1e-9 and rm < 1e-9,
        {"Z_rel": rz, "M3_rel": rm},
    )


def check_first_moment_partial_sum() -> CheckResult:
    """Criterion 12: the weighted partial sums of the first-moment kernel
    converge to M1(s, t) at Re s = 2.5."""
    z = riemann_zeta
    f = lseries.delta_newform(20000)
    t = 0.7
    s = 2.5 + 0.4j
    kp = TestFunctionParams(T=40.0, alpha=0.5, R=1.0)
    ker = KernelContext(kp, t=t, k=12)
    ctx = moments.MomentContext(t=t, f=f, g=f, N=1, kernel=ker, s=s)
    m1 = moments.main_term_breakdown(ctx).M1

    n_cut = 10_000
    n = np.arange(1, n_cut + 1, dtype=float)
    A = f.A(n_cut)
    h0_0 = ctx.H0(0.0)
    h0_m = ctx.H0(-2j * t)
    it = 1j * t
    m_vals = (
        z(1 + 2 * it) * A * n ** (-0.5 - it) * h0_0
        + (2 * math.pi) ** (4 * it) * z(1 - 2 * it) * A * n ** (-0.5 + it) * h0_m
    )
    bsum = complex(np.sum(np.conj(f.a[:n_cut]) * n ** (-s - (f.k - 1) / 2.0) * m_vals))
    partial = z(2 * s) * bsum
    rel = abs(partial - m1) / abs(m1)
    return CheckResult("first-moment-partial-sum", rel < 1e-4, {"rel_gap": rel})


def check_property_suites() -> CheckResult:
    """Criterion 13: the bundled identity properties (gamma, zeta, characters,
    h conditions, conjugation symmetry, sigma, cusps, cusp-sum symmetry)."""
    failures = []
    rng = np.random.default_rng(11)

    # gamma recursion and reflection
    zs = rng.uniform(0.3, 6.0, 40) + 1j * rng.uniform(-20.0, 20.0, 40)
    rec = max(
        abs(complex_gamma(zz + 1) - zz * complex_gamma(zz)) / abs(complex_gamma(zz + 1))
        for zz in zs
    )
    if rec > 1e-12:
        failures.append(f"gamma recursion {rec:.2e}")
    refl = 0.0
    for zz in zs:
        lhs = complex_gamma(zz) * complex_gamma(1.0 - zz)
        rhs = math.pi / np.sin(math.pi * zz)
        refl = max(refl, abs(lhs - rhs) / abs(rhs))
    if refl > 1e-10:
        failures.append(f"gamma reflection {refl:.2e}")

    # zeta functional-equation self-consistency in the strip: both zeta values
    # are Euler-Maclaurin ones there, so a wrong chi factor fails it
    worst_fe = 0.0
    for _ in range(12):
        s = rng.uniform(0.05, 0.95) + 1j * rng.uniform(-100.0, 100.0)
        direct = riemann_zeta(s)
        via_fe = complex(np.exp(_log_zeta_chi(s))) * riemann_zeta(1.0 - s)
        worst_fe = max(worst_fe, abs(direct - via_fe) / abs(direct))
    if worst_fe > 1e-9:
        failures.append(f"zeta FE {worst_fe:.2e}")

    # Gauss-sum modulus and orthogonality
    for q in range(2, 101):
        for chi in arith.characters_mod(q):
            if chi.is_primitive:
                g = gauss_sum(chi)
                if abs(abs(g) * abs(g) - q) > 1e-8 * q:
                    failures.append(f"gauss modulus q={q}")
                    break
            if not chi.is_trivial and abs(sum(chi.values)) > 1e-9:
                failures.append(f"orthogonality q={q}")
                break

    # h conditions
    p = TestFunctionParams(T=100.0, alpha=0.5, R=1.0)
    if abs(h_eval(0.5j, p)) > 1e-15 or abs(h_eval(-0.5j, p)) > 1e-15:
        failures.append("h(+-i/2) != 0")
    grid = rng.uniform(-3 * p.T, 3 * p.T, 50)
    if max(abs(h_eval(r, p) - h_eval(-r, p)) for r in grid) > 1e-15:
        failures.append("h evenness")
    for r in (2 * p.T + 1.0, 3 * p.T, 10 * p.T):
        hv = abs(h_eval(r + 0.4j, p))
        if hv > 200.0 / (abs(r) + 1.0) ** 2:
            failures.append(f"h decay bound at r={r}")

    # conjugation symmetry of the Eisenstein coefficients
    worst_conj = 0.0
    for N in (2, 3, 4, 6, 9):
        for cusp in enumerate_cusps(N):
            for r in (0.3, 1.1):
                for n in (1, -1, 2, -2):
                    lhs = np.conj(eisenstein.tau_cusp(cusp, 0.5 + 1j * r, n))
                    rhs = eisenstein.tau_cusp(cusp, 0.5 - 1j * r, -n)
                    worst_conj = max(worst_conj, abs(lhs - rhs) / (1 + abs(rhs)))
    if worst_conj > 1e-10:
        failures.append(f"tau conjugation {worst_conj:.2e}")

    # sigma multiplicativity
    for _ in range(60):
        m = int(rng.integers(1, 400))
        n = int(rng.integers(1, 400))
        if math.gcd(m, n) != 1:
            continue
        za = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = arith.sigma_complex(m * n, za)
        rhs = arith.sigma_complex(m, za) * arith.sigma_complex(n, za)
        if abs(lhs - rhs) > 1e-10 * (1 + abs(rhs)):
            failures.append(f"sigma multiplicativity at ({m},{n})")
            break

    # cusp counts
    for N in range(1, 201):
        expect = sum(arith.euler_phi(math.gcd(a, N // a)) for a in arith.divisors(N))
        cusps = enumerate_cusps(N)
        if len(cusps) != expect or any(math.gcd(c.c, N) != 1 for c in cusps):
            failures.append(f"cusp count N={N}")
            break

    # cusp-sum functional-equation symmetry at N <= 3
    worst_sym = 0.0
    for N in (1, 2, 3):
        for n in (1, 2):
            for r in (0.3, 1.1):
                plus = sum(
                    lseries.curly_L_eisenstein_factored(2.2, 0.6, 1j * r, cusp)
                    * eisenstein.tau_cusp(cusp, 0.5 + 1j * r, n)
                    for cusp in enumerate_cusps(N)
                )
                minus = sum(
                    lseries.curly_L_eisenstein_factored(2.2, 0.6, -1j * r, cusp)
                    * eisenstein.tau_cusp(cusp, 0.5 - 1j * r, n)
                    for cusp in enumerate_cusps(N)
                )
                worst_sym = max(worst_sym, abs(plus - minus) / max(abs(plus), 1e-30))
    if worst_sym > 1e-6:
        failures.append(f"cusp-sum symmetry {worst_sym:.2e}")

    return CheckResult(
        "property-suites",
        not failures,
        {"failures": "; ".join(failures) if failures else "none", "cusp_sum_sym": worst_sym},
    )


ALL_CHECKS = [
    check_h0_peak,
    check_h0_decay,
    check_eisenstein_oracle,
    check_twisted_factorization,
    check_euler_polynomial_zeros,
    check_euler_identity,
    check_assembly,
    check_level1_reduction,
    check_pole_cancellation,
    check_leading_coeff_trend,
    check_rearrangement,
    check_first_moment_partial_sum,
    check_property_suites,
]

SUITES = {
    "all": ALL_CHECKS,
    "identities": [
        check_euler_polynomial_zeros,
        check_euler_identity,
        check_assembly,
        check_level1_reduction,
        check_property_suites,
    ],
    "kernels": [check_h0_peak, check_h0_decay],
    "eisenstein": [check_eisenstein_oracle, check_twisted_factorization],
    "moments": [
        check_pole_cancellation,
        check_leading_coeff_trend,
        check_first_moment_partial_sum,
    ],
    "shifted": [check_rearrangement],
}


def run_suite(suite: str = "all"):
    """Run a named suite of checks, printing one line per check; returns the list of results."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for chk in SUITES[suite]:
        res = chk()
        results.append(res)
        print(res.line())
        if res.detail and not res.passed:
            print(f"       note: {res.detail}")
    return results
