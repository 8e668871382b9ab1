"""Main term of the second spectral moment and all of its specialisations.

The generic four-term main term at level N reads

    M(s, t) = z(2s) z(1+2it) H0(0) P1 L(s+1/2+it) / z(2s+1+2it)
            + (2pi)^{4it} z(2s) z(1-2it) H0(-2it) N^{-2it} P2
              L(s+1/2-it) / z(2s+1-2it)
            + (2pi)^{4s-2+4it} z(2-2s) z(1-2it) H0(-2s+1-2it) N^{-1/2-s-it}
              sum_cusps (a/g)^{-s+3/2-it} P3(a) L_a(3/2-s-it) / z(3-2s-2it)
            + (2pi)^{4s-2} z(2-2s) z(1+2it) H0(-2s+1) N^{1-2s} P4
              L(3/2-s+it) / z(3-2s+2it)

with Euler products P* over p | N, all Rankin-Selberg values L_a(w, f x g~)
supplied by the context (truncated direct sums, the accurate self-dual
zeta * sym^2 route at level 1, or a closed-form provider for synthetic
divisor-model data -- the assembly identities are linear in each L-value, so
any consistent provider exercises them).

An independent second path assembles the same quantity from its three
construction pieces M1 + M_Omega^+ + M_Omega^-, each transcribed from its
own display (with the cos/sin trigonometric prefactors); agreement of the
two paths is one of the headline acceptance checks.

The specialised displays at s = 1/2 -+ it (where f = g produces
pole cancellations against the Rankin-Selberg pole at 1) are transcribed
separately, including the psi-weighted kernel derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import loggamma as _loggamma

from . import arith, eisenstein, lseries
from .arith import CuspLabel, divisors, enumerate_cusps, euler_phi, prime_divisors
from .kernels import H0, H0_derivative, KernelContext, h_eval
from .lseries import (
    CuspExpansionData,
    NewformData,
    holo_L,
    rankin_selberg_L,
    rankin_selberg_maass,
    selfdual_rs_constants,
    selfdual_rs_L,
)
from .specfun import (
    DomainError,
    PoleError,
    QuadratureSpec,
    ValueWithError,
    extrapolate_to_zero,
    log_zeta_derivative,
    riemann_zeta,
)

__all__ = [
    "MissingCuspDataError",
    "MomentContext",
    "MainTermBreakdown",
    "main_term",
    "main_term_breakdown",
    "main_term_specialized",
    "main_term_t0_limit",
    "leading_coeff",
    "continuous_part",
    "discrete_moment_truncated",
    "first_moment_pieces",
    "error_exponent",
    "euler_identity_lhs",
    "euler_identity_rhs",
]

TWO_PI = 2.0 * math.pi
_V_BLOCK = 32  # v-nodes per block of the L^+ inner sum: 512 bytes of exp per m


class MissingCuspDataError(RuntimeError):
    """A composite-level cusp term needs ingested expansion data."""


@dataclass
class MomentContext:
    """Everything a main-term evaluation needs.

    ``rs_provider(cusp, w)`` overrides every Rankin-Selberg value (cusp is
    None for the infinity class); without it, infinity-class values use the
    accurate zeta * sym^2 route when f is g at level 1, and truncated direct
    sums otherwise (which require Re w > 1).
    """

    t: float
    f: NewformData
    g: NewformData
    N: int
    kernel: KernelContext
    s: complex | None = None
    tprime_sign: int = 1
    cusp_data: dict | None = None  # (a, c) -> (CuspExpansionData f, ... g)
    rs_provider: Callable | None = None
    rs_m_max: int = 100_000

    def __post_init__(self):
        if self.f.N != self.N or self.g.N != self.N:
            raise ValueError("forms must live at the context level")
        if self.f.k != self.g.k:
            raise ValueError("forms must share a weight")
        if self.tprime_sign not in (1, -1):
            raise ValueError("tprime_sign must be +-1")

    @property
    def k(self) -> int:
        return self.kernel.k

    def rs_L(self, cusp: CuspLabel | None, w) -> complex:
        w = complex(w)
        if self.rs_provider is not None:
            return complex(self.rs_provider(cusp, w))
        if cusp is None or cusp.a == self.N:
            if self.f is self.g and self.N == 1:
                return selfdual_rs_L(w, self.f)
            m_max = min(self.rs_m_max, self.f.M, self.g.M)
            return rankin_selberg_L(w, self.f, self.g, m_max=m_max).value
        if not self.cusp_data or (cusp.a, cusp.c) not in self.cusp_data:
            raise MissingCuspDataError(
                f"no expansion data for cusp a={cusp.a}, c={cusp.c} at level {self.N}"
            )
        fc, gc = self.cusp_data[(cusp.a, cusp.c)]
        m_max = min(self.rs_m_max, fc.coeffs.size, gc.coeffs.size)
        return rankin_selberg_L(
            w, self.f, self.g, cusp=cusp, fcusp=fc, gcusp=gc, m_max=m_max
        ).value

    def H0(self, ix) -> complex:
        return self.kernel.cached_H0(ix)


@dataclass
class MainTermBreakdown:
    """The three construction pieces and their sum."""

    M1: complex
    M_Omega_plus: complex
    M_Omega_minus: complex

    @property
    def assembled(self) -> complex:
        return self.M1 + self.M_Omega_plus + self.M_Omega_minus


def _pp(p: int, expo) -> complex:
    return complex(np.exp(complex(expo) * math.log(p)))


def _pole_guard(ctx: MomentContext, s: complex, guard: float):
    if abs(s - 0.5) < guard:
        raise PoleError("main term: zeta(2s) pole at s = 1/2; use the limit path")
    if ctx.f is ctx.g or ctx.f.label == ctx.g.label != "":
        for sgn in (+1.0, -1.0):
            if abs(s - (0.5 + sgn * 1j * ctx.t)) < guard:
                raise PoleError(
                    "main term: Rankin-Selberg pole at s = 1/2 -+ it for f = g; "
                    "use main_term_specialized"
                )


def main_term(ctx: MomentContext, pole_guard: float = 1e-4) -> complex:
    """The generic four-term main term at the context's (s, t)."""
    if ctx.s is None:
        raise DomainError("main_term needs ctx.s")
    s = complex(ctx.s)
    t = ctx.t
    it = 1j * t
    N = ctx.N
    _pole_guard(ctx, s, pole_guard)

    z2s = riemann_zeta(2.0 * s)
    z2ms = riemann_zeta(2.0 - 2.0 * s)
    z1p = riemann_zeta(1.0 + 2.0 * it)
    z1m = riemann_zeta(1.0 - 2.0 * it)

    p1 = p2 = p4 = 1.0 + 0.0j
    for p in prime_divisors(N):
        p1 *= (1 - _pp(p, -2 * s)) * (1 - _pp(p, -1 - 2 * it)) / (
            1 - _pp(p, -2 * s - 1 - 2 * it)
        )
        p2 *= (1 - 1.0 / p) * (1 - _pp(p, -2 * s)) / (1 - _pp(p, -2 * s - 1 + 2 * it))
        p4 *= (1 - _pp(p, -1 - 2 * it)) * (1 - 1.0 / p) / (
            1 - _pp(p, -3 + 2 * s - 2 * it)
        )

    term1 = (
        z2s
        * z1p
        * ctx.H0(0.0)
        * p1
        * ctx.rs_L(None, s + 0.5 + it)
        / riemann_zeta(2.0 * s + 1.0 + 2.0 * it)
    )
    term2 = (
        np.exp(4.0 * it * math.log(TWO_PI))
        * z2s
        * z1m
        * ctx.H0(-2.0 * it)
        * complex(np.exp(-2.0 * it * math.log(N)))
        * p2
        * ctx.rs_L(None, s + 0.5 - it)
        / riemann_zeta(2.0 * s + 1.0 - 2.0 * it)
    )

    cusp_sum = 0.0 + 0.0j
    for cusp in enumerate_cusps(N):
        a = cusp.a
        g = cusp.gcd_a
        w = complex(np.exp((-s + 1.5 - it) * math.log(a / g))) if a != g else 1.0
        loc = 1.0 + 0.0j
        for p in prime_divisors(N // a):
            loc *= (1 - _pp(p, 1 - 2 * s)) * (1 - _pp(p, -2 * it)) / (
                1 - _pp(p, -3 + 2 * s + 2 * it)
            )
        for p in prime_divisors(a):
            if (N // a) % p:
                loc *= (1 - 1.0 / p) ** 2 / (1 - _pp(p, -3 + 2 * s + 2 * it))
        arg_cusp = None if a == N else cusp
        cusp_sum += w * loc * ctx.rs_L(arg_cusp, 1.5 - s - it)
    term3 = (
        complex(np.exp((4 * s - 2 + 4 * it) * math.log(TWO_PI)))
        * z2ms
        * z1m
        * ctx.H0(-2.0 * s + 1.0 - 2.0 * it)
        * complex(np.exp((-0.5 - s - it) * math.log(N)))
        * cusp_sum
        / riemann_zeta(3.0 - 2.0 * s - 2.0 * it)
    )

    term4 = (
        complex(np.exp((4 * s - 2) * math.log(TWO_PI)))
        * z2ms
        * z1p
        * ctx.H0(-2.0 * s + 1.0)
        * complex(np.exp((1 - 2 * s) * math.log(N)))
        * p4
        * ctx.rs_L(None, 1.5 - s + it)
        / riemann_zeta(3.0 - 2.0 * s + 2.0 * it)
    )
    return complex(term1 + term2 + term3 + term4)


def _cusp_euler_poly_sum(ctx: MomentContext, s: complex, sign: int) -> complex:
    """sum over cusps of euler_poly(s, it; 1-s+sign*it)/prod(1-p^{1-2s+sign*2it})
    times L_a(3/2 - s + sign*it) / zeta^(N)(3 - 2s + sign*2it)."""
    t = ctx.t
    N = ctx.N
    acc = 0.0 + 0.0j
    zden = arith.zeta_depleted(3.0 - 2.0 * s + sign * 2j * t, N)
    for cusp in enumerate_cusps(N):
        pnorm = eisenstein.euler_poly_normalized(N, cusp.a, s, t, sign)
        arg_cusp = None if cusp.a == N else cusp
        acc += pnorm * ctx.rs_L(arg_cusp, 1.5 - s + sign * 1j * t)
    return acc / zden


def main_term_breakdown(ctx: MomentContext, pole_guard: float = 1e-4) -> MainTermBreakdown:
    """M1, M_Omega^+ and M_Omega^- from their own displays, plus the sum."""
    if ctx.s is None:
        raise DomainError("main_term_breakdown needs ctx.s")
    s = complex(ctx.s)
    t = ctx.t
    it = 1j * t
    N = ctx.N
    _pole_guard(ctx, s, pole_guard)

    # --- M1: the first-moment piece
    z2s = riemann_zeta(2.0 * s)
    p1 = p2 = 1.0 + 0.0j
    for p in prime_divisors(N):
        p1 *= (1 - _pp(p, -2 * s)) * (1 - _pp(p, -1 - 2 * it)) / (
            1 - _pp(p, -2 * s - 1 - 2 * it)
        )
        p2 *= (1 - 1.0 / p) * (1 - _pp(p, -2 * s)) / (1 - _pp(p, -2 * s - 1 + 2 * it))
    m1 = (
        z2s
        * riemann_zeta(1.0 + 2.0 * it)
        / riemann_zeta(2.0 * s + 1.0 + 2.0 * it)
        * p1
        * ctx.rs_L(None, s + 0.5 + it)
        * ctx.H0(0.0)
        + np.exp(4.0 * it * math.log(TWO_PI))
        * z2s
        * riemann_zeta(1.0 - 2.0 * it)
        / riemann_zeta(2.0 * s + 1.0 - 2.0 * it)
        * complex(np.exp(-2.0 * it * math.log(N)))
        * p2
        * ctx.rs_L(None, s + 0.5 - it)
        * ctx.H0(-2.0 * it)
    )

    s_plus = _cusp_euler_poly_sum(ctx, s, +1)
    s_minus = _cusp_euler_poly_sum(ctx, s, -1)
    h0_plus = ctx.H0(-2.0 * s + 1.0)
    h0_minus = ctx.H0(-2.0 * s + 1.0 - 2.0 * it)
    z2ms = riemann_zeta(2.0 - 2.0 * s)

    # --- M_Omega^+: residual piece of the shifted double series route
    pref_plus = (
        0.25
        * z2ms
        * complex(np.exp((2 * s - 1 + 2 * it) * math.log(TWO_PI)))
        / np.cos(math.pi * (s + 0.5))
    )
    m_omega_plus = pref_plus * (
        complex(np.exp((2 * s - 1 - 2 * it) * math.log(TWO_PI)))
        * riemann_zeta(1.0 + 2.0 * it)
        * np.cos(math.pi * (2 * s - it))
        / np.sin(math.pi * (s - it))
        * s_plus
        * h0_plus
        + complex(np.exp((2 * s - 1 + 2 * it) * math.log(TWO_PI)))
        * riemann_zeta(1.0 - 2.0 * it)
        * np.cos(math.pi * (2 * s + it))
        / np.sin(math.pi * (s + it))
        * s_minus
        * h0_minus
    )

    # --- M_Omega^-: residual piece of the Poincare-series route
    pref_minus = (
        0.5
        * z2ms
        * complex(np.exp((4 * s - 2 + 2 * it) * math.log(TWO_PI)))
        * np.cos(math.pi * it)
        / np.sin(math.pi * s)
    )
    m_omega_minus = pref_minus * (
        complex(np.exp(-2.0 * it * math.log(TWO_PI)))
        / np.sin(math.pi * (s - it))
        * riemann_zeta(1.0 + 2.0 * it)
        * 0.5
        * s_plus
        * h0_plus
        + complex(np.exp(2.0 * it * math.log(TWO_PI)))
        / np.sin(math.pi * (s + it))
        * riemann_zeta(1.0 - 2.0 * it)
        * 0.5
        * s_minus
        * h0_minus
    )
    return MainTermBreakdown(complex(m1), complex(m_omega_plus), complex(m_omega_minus))


# ---------------------------------------------------------------------------
# specialised displays at s = 1/2 -+ it


def euler_identity_lhs(N: int, t: float) -> complex:
    """sum_{a|N} a prod_{p|gcd(a,N/a)}(1-1/p) prod_{p|N/a}(1-p^{2it})(1-p^{-2it})
    prod_{p|a, p ndiv N/a}(1-1/p)^2."""
    out = 0.0 + 0.0j
    for a in divisors(N):
        g = math.gcd(a, N // a)
        term = a + 0.0j
        for p in prime_divisors(g):
            term *= 1.0 - 1.0 / p
        for p in prime_divisors(N // a):
            term *= (1.0 - _pp(p, 2j * t)) * (1.0 - _pp(p, -2j * t))
        for p in prime_divisors(a):
            if (N // a) % p:
                term *= (1.0 - 1.0 / p) ** 2
        out += term
    return out


def euler_identity_rhs(N: int, t: float) -> complex:
    """N prod_{p|N} (1-p^{-1+2it})(1-p^{-1-2it})."""
    out = N + 0.0j
    for p in prime_divisors(N):
        out *= (1.0 - _pp(p, -1.0 + 2j * t)) * (1.0 - _pp(p, -1.0 - 2j * t))
    return out


def _selfdual_constants(ctx: MomentContext) -> dict:
    if ctx.N != 1:
        raise DomainError("f = g specialisations require level 1 data here")
    return selfdual_rs_constants(ctx.f)


def main_term_specialized(ctx: MomentContext, which: str, l_slot: str = "finite_part") -> complex:
    """The closed-form value of the main term at s = 1/2 -+ t'.

    ``which`` is one of fneq_minus / fneq_plus / feq_minus / feq_plus (the
    f != g and f = g displays at s = 1/2 - it and s = 1/2 + it).  For the
    f = g displays, ``l_slot`` selects which Laurent coefficient of
    L(s, f x f~) at 1 feeds the derivative slot: the finite part c0 of
    R/x + c0 + c1 x (default; this is what the generic-path limit
    reproduces) or "linear" for c1.
    """
    t = ctx.t
    it = 1j * t
    N = ctx.N
    if abs(t) < 1e-12:
        raise PoleError("specialised displays are singular at t = 0; use the limit")

    zp = riemann_zeta(1.0 + 2.0 * it)
    zm = riemann_zeta(1.0 - 2.0 * it)
    z2 = riemann_zeta(2.0)
    two_pi_4it = complex(np.exp(4.0 * it * math.log(TWO_PI)))

    def prod_sym():
        out = 1.0 + 0.0j
        for p in prime_divisors(N):
            out *= (1 - _pp(p, -1 + 2 * it)) * (1 - _pp(p, -1 - 2 * it)) / (1 - p**-2)
        return out

    if which == "fneq_minus":
        h0_0 = ctx.H0(0.0)
        t1 = zm * zp * h0_0 * prod_sym() * ctx.rs_L(None, 1.0) / z2
        cusp_sum = 0.0 + 0.0j
        for cusp in enumerate_cusps(N):
            a, g = cusp.a, cusp.gcd_a
            term = (a / g) + 0.0j
            for p in prime_divisors(N // a):
                term *= (1 - _pp(p, 2 * it)) * (1 - _pp(p, -2 * it)) / (1 - p**-2)
            for p in prime_divisors(a):
                if (N // a) % p:
                    term *= (1.0 - 1.0 / p) / (1.0 + 1.0 / p)
            arg_cusp = None if a == N else cusp
            cusp_sum += term * ctx.rs_L(arg_cusp, 1.0)
        t2 = zp * zm * h0_0 / N * cusp_sum / z2
        t3 = (
            two_pi_4it
            * zm
            * zm
            * ctx.H0(-2.0 * it)
            * complex(np.exp(-2 * it * math.log(N)))
            * _prod_fneq(N, it, -1)
            * ctx.rs_L(None, 1.0 - 2.0 * it)
            / riemann_zeta(2.0 - 4.0 * it)
        )
        t4 = (
            complex(np.exp(-4.0 * it * math.log(TWO_PI)))
            * zp
            * zp
            * ctx.H0(2.0 * it)
            * complex(np.exp(2 * it * math.log(N)))
            * _prod_fneq(N, it, +1)
            * ctx.rs_L(None, 1.0 + 2.0 * it)
            / riemann_zeta(2.0 + 4.0 * it)
        )
        return complex(t1 + t2 + t3 + t4)

    if which == "fneq_plus":
        u1 = (
            2.0
            * two_pi_4it
            * zp
            * zm
            * ctx.H0(-2.0 * it)
            * complex(np.exp(-2 * it * math.log(N)))
            * _prod_u1(N, it)
            * ctx.rs_L(None, 1.0)
            / z2
        )
        u2 = (
            zp
            * zp
            * ctx.H0(0.0)
            * _prod_u2(N, it)
            * ctx.rs_L(None, 1.0 + 2.0 * it)
            / riemann_zeta(2.0 + 4.0 * it)
        )
        u3 = _fneq_plus_cusp_term(ctx, it)
        return complex(u1 + u2 + u3)

    consts = _selfdual_constants(ctx)
    res = consts["residue"]
    lder = consts[l_slot if l_slot in ("finite_part", "linear") else "finite_part"]

    if which == "feq_minus":
        h0_0 = ctx.H0(0.0)
        zz = zm * zp / z2
        t1 = -zz * H0_derivative("minus", 1, ctx.kernel) * prod_sym() * res
        inner = 0.0 + 0.0j
        for a in divisors(N):
            g = math.gcd(a, N // a)
            term = a + 0.0j
            for p in prime_divisors(N // a):
                term *= (1 - _pp(p, 2 * it)) * (1 - _pp(p, -2 * it))
            for p in prime_divisors(a):
                if (N // a) % p:
                    term *= (1 - 1.0 / p) ** 2
            for p in prime_divisors(g):
                term *= 1.0 - 1.0 / p
            log_fac = -math.log(a / g) + sum(
                2.0 * math.log(p) for p in prime_divisors(N // a)
            )
            inner += term * log_fac
        pr_inv = 1.0 + 0.0j
        for p in prime_divisors(N):
            pr_inv /= 1 - p**-2
        t2 = -zz * h0_0 / N * pr_inv * inner * res
        brace = (
            2.0 * log_zeta_derivative(1.0 - 2.0 * it)
            + 2.0 * log_zeta_derivative(1.0 + 2.0 * it)
            - 4.0 * log_zeta_derivative(2.0)
            - 4.0 * math.log(TWO_PI)
            + 2.0 * sum(math.log(p) / (1 - _pp(p, -1 + 2 * it)) for p in prime_divisors(N))
            + math.log(N)
        )
        t3 = zz * h0_0 * prod_sym() * brace * res
        t4 = 2.0 * zz * h0_0 * prod_sym() * lder
        t5 = (
            two_pi_4it
            * zm
            * zm
            * ctx.H0(-2.0 * it)
            * complex(np.exp(-2 * it * math.log(N)))
            * _prod_fneq(N, it, -1)
            * ctx.rs_L(None, 1.0 - 2.0 * it)
            / riemann_zeta(2.0 - 4.0 * it)
        )
        t6 = (
            complex(np.exp(-4.0 * it * math.log(TWO_PI)))
            * zp
            * zp
            * ctx.H0(2.0 * it)
            * complex(np.exp(2 * it * math.log(N)))
            * _prod_fneq(N, it, +1)
            * ctx.rs_L(None, 1.0 + 2.0 * it)
            / riemann_zeta(2.0 + 4.0 * it)
        )
        return complex(t1 + t2 + t3 + t4 + t5 + t6)

    if which == "feq_plus":
        zz = zp * zm / z2
        pr = _prod_u1(N, it)
        v1 = (
            -two_pi_4it
            * zz
            * H0_derivative("plus", 1, ctx.kernel)
            * complex(np.exp(-2 * it * math.log(N)))
            * pr
            * res
        )
        brace = (
            2.0 * log_zeta_derivative(1.0 + 2.0 * it)
            + 2.0 * log_zeta_derivative(1.0 - 2.0 * it)
            - 4.0 * log_zeta_derivative(2.0)
            - 4.0 * math.log(TWO_PI)
            + 2.0 * math.log(N)
            + 2.0
            * sum(
                math.log(p) * _pp(p, -1 - 2 * it) / (1 - _pp(p, -1 - 2 * it))
                for p in prime_divisors(N)
            )
        )
        h0m = ctx.H0(-2.0 * it)
        v2 = two_pi_4it * zz * h0m * complex(np.exp(-2 * it * math.log(N))) * pr * brace * res
        v3 = 2.0 * two_pi_4it * zz * h0m * complex(np.exp(-2 * it * math.log(N))) * pr * lder
        v4 = (
            zp
            * zp
            * ctx.H0(0.0)
            * _prod_u2(N, it)
            * ctx.rs_L(None, 1.0 + 2.0 * it)
            / riemann_zeta(2.0 + 4.0 * it)
        )
        v5 = _fneq_plus_cusp_term(ctx, it)
        return complex(v1 + v2 + v3 + v4 + v5)

    raise DomainError(f"unknown specialisation {which!r}")


def _prod_fneq(N: int, it: complex, sign: int) -> complex:
    """prod (1-1/p)(1-p^{-1-sign*2it}) / (1-p^{-2-sign*4it}) over p | N.

    With sign = -1 this is the -2it display product, with sign = +1 the
    conjugate one.
    """
    out = 1.0 + 0.0j
    for p in prime_divisors(N):
        out *= (1 - 1.0 / p) * (1 - _pp(p, -1 - sign * 2 * it)) / (
            1 - _pp(p, -2 - sign * 4 * it)
        )
    return out


def _prod_u1(N: int, it: complex) -> complex:
    out = 1.0 + 0.0j
    for p in prime_divisors(N):
        out *= (1 - 1.0 / p) * (1 - _pp(p, -1 - 2 * it)) / (1 - p**-2)
    return out


def _prod_u2(N: int, it: complex) -> complex:
    out = 1.0 + 0.0j
    for p in prime_divisors(N):
        out *= (1 - _pp(p, -1 - 2 * it)) ** 2 / (1 - _pp(p, -2 - 4 * it))
    return out


def _fneq_plus_cusp_term(ctx: MomentContext, it: complex) -> complex:
    N = ctx.N
    zm = riemann_zeta(1.0 - 2.0 * it)
    cusp_sum = 0.0 + 0.0j
    for cusp in enumerate_cusps(N):
        a, g = cusp.a, cusp.gcd_a
        term = complex(np.exp((1.0 - 2.0 * it) * math.log(a / g))) if a != g else 1.0
        for p in prime_divisors(N // a):
            term *= (1 - _pp(p, -2 * it)) ** 2 / (1 - _pp(p, -2 + 4 * it))
        for p in prime_divisors(a):
            if (N // a) % p:
                term *= (1 - 1.0 / p) ** 2 / (1 - _pp(p, -2 + 4 * it))
        arg_cusp = None if a == N else cusp
        cusp_sum += term * ctx.rs_L(arg_cusp, 1.0 - 2.0 * it)
    return complex(
        np.exp(8.0 * it * math.log(TWO_PI))
        * zm
        * zm
        * ctx.H0(-4.0 * it)
        * complex(np.exp((-1.0 - 2.0 * it) * math.log(N)))
        * cusp_sum
        / riemann_zeta(2.0 - 4.0 * it)
    )


def main_term_t0_limit(
    ctx_builder: Callable[[float], MomentContext],
    which: str = "feq_minus",
    t_nodes=(0.04, 0.02, 0.01),
    l_slot: str = "finite_part",
) -> complex:
    """M(1/2, 0) as the Richardson limit of the specialised closed form over t.

    Conjugation symmetry makes the real part of the value even in t and
    the (vanishing) imaginary part odd, so the extrapolation runs on the
    real part in the variable t^2; the returned value is real.
    """
    vals = [main_term_specialized(ctx_builder(t), which, l_slot=l_slot) for t in t_nodes]
    lim = extrapolate_to_zero([t * t for t in t_nodes], [v.real for v in vals])
    return complex(lim.real, 0.0)


def leading_coeff(d: int, N: int, special_value: float) -> float:
    """c = (2^{d+1}/d!) pi^{-3/2} (2/zeta(2)) prod_{p|N} (1-1/p)/(1+1/p) * special_value.

    ``special_value`` is L(1, f x g~) for f != g (d = 2) or the residue of
    L(s, f x f~) at 1 for f = g (d = 3); positivity is inherited.

    Derivation at N = 1, x = 2it, t -> 0: the (log T)^d term of the main
    term comes only from the pole pair of the specialised display, written
    with F(x) = H0(x) A(x), A smooth at 0 and A(0) = 1/zeta(2).  For d = 3
    that is t5 + t6 of ``feq_minus``, = R [F(x) - F(-x)] / x^3 (a triple
    pole); its finite part is R F'''(0)/3, led by R H0'''(0)/(3 zeta(2)).
    For d = 2 the pair t3 + t4 of ``fneq_minus`` is L(1) [F(x) + F(-x)] / x^2
    (a double pole), finite part led by L(1) H0''(0)/zeta(2).  In both,
    the symmetric difference leaves 2 H0^{(d)}(0)/d!, and with
    H0^{(d)}(0) ~ (2 log T)^d H0(0), H0(0) ~ 2 pi^{-3/2} T^{1+alpha} this
    is the 2^{d+1}/d! above.  A cubic fit of ``main_term_t0_limit`` for
    Delta over T = 100 ... 12800 gives 0.366 against c = 0.368.  The
    level-N product for d = 3 is not cross-checked: the f = g displays
    run at level 1 only.
    """
    if d not in (2, 3):
        raise DomainError("degree d must be 2 (f != g) or 3 (f = g)")
    out = 2.0**d * math.pi ** (-1.5) * 2.0 / (math.pi**2 / 6.0) * special_value
    for p in prime_divisors(N):
        out *= (1.0 - 1.0 / p) / (1.0 + 1.0 / p)
    return out * 2.0 / math.factorial(d)


# ---------------------------------------------------------------------------
# continuous part, discrete moment, first-moment pieces


def continuous_part(
    ctx: MomentContext, points_per_unit: float = 3.0, half_line: bool = False
) -> ValueWithError:
    """The r-integral of the continuous-spectrum piece at level 1.

    Integrand: h(r) L(1/2+it+ir, f) L(1/2+it-ir, f) L(s+ir, g~) L(s-ir, g~)
    / (pi zeta(1+2ir) zeta(1-2ir)) -- the identity
    Gamma(1/2+ir) Gamma(1/2-ir) cosh(pi r) = pi absorbs the weight.

    Composite Gauss-Kronrod panels on the h-support window; the reported
    error is the Kronrod estimate plus the certified Gaussian tail.  With
    ``half_line`` the integral is taken as 2 x the positive half (the
    integrand is even in r).
    """
    if ctx.N != 1:
        raise DomainError("continuous_part is the level-1 integral")
    if ctx.s is None:
        raise DomainError("continuous_part needs ctx.s")
    s = complex(ctx.s)
    t = ctx.t
    p = ctx.kernel.params

    f_cache: dict = {}
    g_cache: dict = {}

    def L_at(w, form, cache) -> complex:
        key = (round(w.real, 13), round(w.imag, 13))
        if key not in cache:
            cache[key] = holo_L(w, form)
        return cache[key]

    def integrand(r_arr):
        out = np.empty(len(r_arr), dtype=complex)
        for i, r in enumerate(r_arr):
            if abs(r) < 1e-12:
                out[i] = 0.0  # 1/(zeta(1+2ir) zeta(1-2ir)) vanishes like 4r^2
                continue
            ir = 1j * r
            lf1 = L_at(0.5 + 1j * t + ir, ctx.f, f_cache)
            lf2 = L_at(0.5 + 1j * t - ir, ctx.f, f_cache)
            lg1 = L_at(s + ir, ctx.g, g_cache)
            lg2 = L_at(s - ir, ctx.g, g_cache)
            zz = riemann_zeta(1.0 + 2.0 * ir) * riemann_zeta(1.0 - 2.0 * ir)
            out[i] = h_eval(r, p) * lf1 * lf2 * lg1 * lg2 / (math.pi * zz)
        return out

    w = 12.0 * p.bump_width
    hi = p.T + w
    # fixed composite GK15 panels on [0, hi], mirrored for the full line so
    # that half-line x 2 versus full-line compares the same node layout
    n_panels = max(8, int(math.ceil(hi * points_per_unit / 4.0)))
    half_edges = np.linspace(0.0, hi, n_panels + 1)
    if half_line:
        edges = half_edges
    else:
        edges = np.concatenate([-half_edges[::-1], half_edges[1:]])
    total = 0.0 + 0.0j
    err = 0.0
    from .specfun import _gk15

    for v, e in _gk15(integrand, *edges):
        total += v
        err += e
    if half_line:
        total *= 2.0
        err *= 2.0
    tail = math.exp(-140.0) * (abs(hi) + 1.0) ** 3
    return ValueWithError(complex(total), err + tail)


def _weight_over_cosh(r: float, p) -> float:
    """h(r)/cosh(pi r), computed in log space for large r."""
    hr = float(np.real(h_eval(r, p)))
    x = math.pi * abs(r)
    if x < 30.0:
        return hr / math.cosh(x)
    if hr == 0.0:
        return 0.0
    return math.copysign(
        math.exp(math.log(abs(hr)) - x + math.log(2.0) - math.log1p(math.exp(-2 * x))),
        hr,
    )


def discrete_moment_truncated(ctx: MomentContext, maass_list) -> complex:
    """sum_j h(r_j)/cosh(pi r_j) L(1/2+it, f x u_j) conj(L(conj(s), g x u_j)).

    Truncated: the supplied spectrum only.  Empty list gives 0.
    """
    if ctx.s is None:
        raise DomainError("discrete_moment_truncated needs ctx.s")
    s = complex(ctx.s)
    total = 0.0 + 0.0j
    for u in maass_list:
        wt = _weight_over_cosh(u.r, ctx.kernel.params)
        if wt == 0.0:
            continue
        lf = rankin_selberg_maass(0.5 + 1j * ctx.t, ctx.f, u).value
        lg = rankin_selberg_maass(np.conj(s), ctx.g, u).value
        total += wt * lf * np.conj(lg)
    return complex(total)


def _tan_pi_stable(u):
    """tan(pi u) for complex u, stable for large |Im u|."""
    x = np.real(u)
    y = np.imag(u)
    num = np.sin(2 * math.pi * x) + 1j * np.sinh(
        np.clip(2 * math.pi * y, -700, 700)
    )
    den = np.cos(2 * math.pi * x) + np.cosh(np.clip(2 * math.pi * y, -700, 700))
    out = num / den
    big = np.abs(y) > 100.0
    return np.where(big, 1j * np.sign(y), out)


def _log_cos_pi(u):
    """log cos(pi u) continuous off the real axis, overflow-safe."""
    y = np.imag(u)
    up = np.where(y >= 0, u, np.conj(u))
    # cos(pi u) = e^{-i pi u} (1 + e^{2 i pi u}) / 2 for Im u >= 0
    val = -1j * math.pi * up + np.log(1.0 + np.exp(2j * math.pi * up)) - math.log(2.0)
    return np.where(y >= 0, val, np.conj(val))


def first_moment_pieces(
    n: int,
    ctx: MomentContext,
    sigma_u: float = 1.25,
    sigma_0: float | None = None,
    m_inner: int = 20_000,
    inner_panels: int = 72,
):
    """(M, L^-, L^+) of the first-moment identity at argument n.

    M is the two-kernel closed form; L^-+ are the double contour quadratures
    over Re u = sigma_u and the stated v-lines, with the inner m-series
    truncated at ``m_inner``.  Contour placement is validated:
    1 < sigma_u < 3/2 and -k/2 < sigma_0 < -sigma_u.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    k = ctx.k
    t = ctx.t
    it = 1j * t
    N = ctx.N
    if not 1.0 < sigma_u < 1.5:
        raise DomainError("contour violation: need 1 < sigma_u < 3/2")
    if sigma_0 is None:
        sigma_0 = -k / 2.0 + 0.25
    if not -k / 2.0 < sigma_0 < -sigma_u:
        raise DomainError("contour violation: need -k/2 < sigma_0 < -sigma_u")

    A_n = float(ctx.f.A(n)[n - 1])
    phiN = euler_phi(N)
    m_piece = arith.zeta_depleted(1.0 + 2.0 * it, N) * A_n * n ** (-0.5 - it) * ctx.H0(
        0.0
    ) + (
        np.exp(4.0 * it * math.log(TWO_PI))
        * riemann_zeta(1.0 - 2.0 * it)
        * complex(np.exp(-2.0 * it * math.log(N)))
        * (phiN / N)
        * A_n
        * n ** (-0.5 + it)
        * ctx.H0(-2.0 * it)
    )

    p = ctx.kernel.params
    wwin = 12.0 * p.bump_width
    glo, ghi = -(p.T + wwin), p.T + wwin

    # ----- L^-: finite inner coefficient sum over m < n
    if n == 1:
        l_minus = 0.0 + 0.0j
    else:
        ms = np.arange(1, n)
        sig_nm = np.array([arith.sigma_twisted_N(int(n - m), N, t) for m in ms])
        am = ctx.f.a[: n - 1]

        # the v-integrand decays like exp(-pi(|Im v| - |t|)) here
        rv_max = abs(t) + 50.0 / math.pi
        nodes_m, wts_m = _panel_nodes(np.linspace(-rv_max, rv_max, int(inner_panels) + 1))
        v_m = sigma_0 + 1j * nodes_m
        # sum_m a(m) sigma(n-m; N) (n-m)^{-v+it-k/2}
        inner_minus = np.exp(
            np.multiply.outer(-v_m + it - k / 2.0, np.log(n - ms).astype(float))
        ) @ (am * sig_nm)
        core_m = (
            np.exp(_loggamma(k / 2.0 - it + v_m) + _loggamma(k / 2.0 + it + v_m))
            * np.exp(v_m * math.log(n))
            * inner_minus
        )

        def outer_minus(gam):
            u = sigma_u + 1j * gam
            hval = h_eval(gam - 1j * sigma_u, p, enforce_strip=False)
            pref = (
                hval
                * u
                * _tan_pi_stable(u)
                * np.exp(-_loggamma(u + it + k / 2.0) - _loggamma(-u + it + k / 2.0))
            )
            gm = (
                np.exp(
                    _loggamma(np.subtract.outer(u, v_m))
                    + _loggamma(np.subtract.outer(-u, v_m) + 0.0)
                )
            )
            inner_vals = (gm * core_m[None, :]) @ wts_m / (2.0 * math.pi)
            return pref * inner_vals

        quad = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=2000)
        from .specfun import integrate_line

        val, _ = integrate_line(outer_minus, quad, interval=(glo, ghi))
        l_minus = complex(
            -np.exp(2.0 * it * math.log(TWO_PI)) * np.cos(math.pi * it) / math.pi
            * (2.0 / math.pi)
            * val
        )

    # ----- L^+: infinite inner sum over m, v on Re v = 1 + k/2 + eps
    sigma_v = 1.0 + k / 2.0 + 0.1
    if n + m_inner > ctx.f.M:
        m_inner = ctx.f.M - n
    ms = np.arange(1, m_inner + 1)
    sig_m = arith.sigma_twisted_array(N, t, m_inner)
    anm = ctx.f.a[n : n + m_inner]
    # only polynomial decay until |Im v| passes the h-window top
    rv_max = ghi + 40.0 / math.pi
    edges = np.linspace(-rv_max, rv_max, int(inner_panels) + 1)
    nodes, wts = _panel_nodes(edges)
    v_nodes = sigma_v + 1j * nodes
    # sum_m sigma(m; N) a(n+m) m^{-v+it}, over blocks of v-nodes to bound
    # the memory; each node's m-sum stays one dot product over every m
    weights = sig_m * anm
    log_m = np.log(ms).astype(float)
    inner_plus_vals = np.concatenate([
        np.exp(np.multiply.outer(-v_nodes[i : i + _V_BLOCK] + it, log_m)) @ weights
        for i in range(0, len(v_nodes), _V_BLOCK)
    ])
    core_p = (
        np.exp(_loggamma(v_nodes - it) + _loggamma(v_nodes + it))
        * np.exp((v_nodes - k / 2.0) * math.log(n))
        * inner_plus_vals
    )

    def outer_plus(gam):
        u = sigma_u + 1j * gam
        hval = h_eval(gam - 1j * sigma_u, p, enforce_strip=False)
        pref = (
            hval
            * u
            * np.exp(
                -_log_cos_pi(u)
                - _loggamma(-u + it + k / 2.0)
                - _loggamma(u + it + k / 2.0)
            )
        )
        gm = np.exp(
            _loggamma(np.add.outer(u, -v_nodes) + k / 2.0)
            - _loggamma(np.add.outer(u, v_nodes) + 1.0 - k / 2.0)
        )
        return pref * ((gm * core_p[None, :]) @ wts) / (2.0 * math.pi)

    quad = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=2000)
    from .specfun import integrate_line

    val_p, _ = integrate_line(outer_plus, quad, interval=(glo, ghi))
    l_plus = complex(
        (1j) ** k * np.exp(2.0 * it * math.log(TWO_PI)) * (2.0 / math.pi) * val_p
    )
    return complex(m_piece), l_minus, l_plus


def _panel_nodes(edges):
    """Composite GK15 nodes and weights on the given panel edges."""
    from .specfun import _NODES, _W15

    nodes = []
    wts = []
    for aa, bb in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (aa + bb)
        half = 0.5 * (bb - aa)
        nodes.append(mid + half * _NODES)
        wts.append(half * _W15)
    return np.concatenate(nodes), np.concatenate(wts)


def error_exponent(alpha: float, beta: float, tprime_sign: int, k: int, delta=None):
    """The piecewise error exponent s(alpha, beta; t'); None when no case applies."""
    if not (1.0 / 3.0 < alpha < 2.0 / 3.0):
        raise DomainError("need 1/3 < alpha < 2/3")
    if not (0.0 <= beta < 1.0):
        raise DomainError("need 0 <= beta < 1")
    if beta < min(2.0 * alpha, 1.0 - alpha) or abs(beta - (1.0 - alpha)) < 1e-14:
        return (3.0 * alpha - 1.0) / 2.0
    if 1.0 - alpha < beta < 2.0 * alpha and tprime_sign == +1:
        return (2.0 * alpha - beta) * (k + 1.0) / 2.0
    if tprime_sign == -1 and 1.0 - alpha < beta < (alpha + 1.0) / 2.0:
        d = alpha - (2.0 * beta - 1.0) if delta is None else float(delta)
        if d > 0.0 and alpha < 2.0 / 3.0 and abs((2.0 * beta - 1.0 + d) - alpha) < 1e-12:
            return 1.0 - 1.5 * beta + d * k / 2.0
    return None
