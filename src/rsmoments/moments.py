"""Main term of the second spectral moment and all of its specialisations.

The generic four-term main term at level N reads

    M(s, t) = z(2s) z(1+2it) H0(0) P1 L(s+1/2+it) / z(2s+1+2it)
            + (2pi)^{4it} z(2s) z(1-2it) H0(-2it) N^{-2it} P2
              L(s+1/2-it) / z(2s+1-2it)
            + (2pi)^{4s-2+4it} z(2-2s) z(1-2it) H0(-2s+1-2it)
              (1/2) sum_cusps E_a(s, t) L_a(3/2-s-it) / z^(N)(3-2s-2it)
            + (2pi)^{4s-2} z(2-2s) z(1+2it) H0(-2s+1) N^{1-2s} P4
              L(3/2-s+it) / z(3-2s+2it)

with Euler products P* over p | N, each written where it is used, the cusp
factor E_a = 2 N^{-1/2-s-it} (a/g)^{-s+3/2-it} prod(...) of
``eisenstein.euler_poly_normalized_closed_minus``, the depleted zeta
z^(N) = ``arith.zeta_depleted``, and every complex power b^x from
``arith._pp``.  The Rankin-Selberg values L_a(w, f x g~), taken on and
left of Re w = 1, come from one of two sources: the context's
``rs_provider`` (a closed form for synthetic divisor-model data -- the
assembly identities are linear in each L-value, so any consistent provider
exercises them), or zeta(w) L(w, sym^2 f) when f = g at level 1.

An independent second path assembles the same quantity from its three
construction pieces M1 + M_Omega^+ + M_Omega^-, each transcribed from its
own display (with the cos/sin trigonometric prefactors, and the cusp factor
from ``eisenstein.euler_poly_normalized``); agreement of the two paths is
one of the headline acceptance checks.

The specialised displays at s = 1/2 -+ it (where f = g produces
pole cancellations against the Rankin-Selberg pole at 1) are transcribed
separately, including the psi-weighted kernel derivatives; each divides by
depleted zeta values and states only its own Euler factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import loggamma as _loggamma

from . import arith, eisenstein
from .arith import CuspLabel, _pp, divisors, enumerate_cusps, euler_phi, prime_divisors
from .kernels import H0_derivative, KernelContext, h_eval
from .lseries import (
    InsufficientCoefficientsError,
    NewformData,
    holo_L,
    selfdual_rs_constants,
    selfdual_rs_L,
)
from .specfun import (
    DomainError,
    PoleError,
    QuadratureSpec,
    ValueWithError,
    _NODES,
    _cot_pi,
    _gk15,
    _log_sin_pi,
    extrapolate_to_zero,
    gk15_panel_nodes,
    integrate_aligned_lattice,
    log_zeta_derivative,
    riemann_zeta,
)

TWO_PI = 2.0 * math.pi


@dataclass
class MomentContext:
    """Everything a main-term evaluation needs.

    L(w, f x g~) has two sources.  ``rs_provider(cusp, w)``, when given,
    supplies every value (cusp is None for the infinity class).  Without
    it, f = g at level 1 takes zeta(w) L(w, sym^2 f); any other context
    raises :class:`DomainError`.  f = g is decided once, by
    :class:`NewformData` equality (level, weight and coefficient digest).
    The kernel's weight and t are the form's and the context's.
    """

    t: float
    f: NewformData
    g: NewformData
    N: int
    kernel: KernelContext
    s: complex | None = None
    rs_provider: Callable | None = None

    def __post_init__(self):
        if self.f.N != self.N or self.g.N != self.N:
            raise ValueError("forms must live at the context level")
        if self.f.k != self.g.k:
            raise ValueError("forms must share a weight")
        if self.kernel.k != self.f.k or self.kernel.t != self.t:
            raise ValueError("the kernel must take the forms' weight and the context's t")

    @property
    def k(self) -> int:
        return self.kernel.k

    @property
    def f_eq_g(self) -> bool:
        """f = g: the rule of the f = g poles, displays and L-value route."""
        return self.f == self.g

    @property
    def _sym2_route(self) -> bool:
        return self.rs_provider is None and self.N == 1 and self.f_eq_g

    def rs_L(self, cusp: CuspLabel | None, w) -> complex:
        """L_a(w, f x g~) at ``cusp``.  None and a cusp with a = N both name
        the infinity class, which reaches ``rs_provider`` as None."""
        w = complex(w)
        if cusp is not None and cusp.is_infinity_class:
            cusp = None  # the infinity class
        if self.rs_provider is not None:
            return complex(self.rs_provider(cusp, w))
        if self._sym2_route:  # level 1 has only the infinity class
            return selfdual_rs_L(w, self.f)
        raise DomainError(f"L(w, f x g~) at level {self.N} needs an rs_provider: "
                          "only f = g at level 1 has its own route")

    def _point(self, guard: float) -> tuple:
        """The point s = ``ctx.s`` of ``main_term`` and ``main_term_breakdown``
        and its infinity-class L(w, f x g~) at w = s + 1/2 + it,
        s + 1/2 - it, 3/2 - s - it and 3/2 - s + it, in that order, which
        each route takes into its own assembly.

        s must be set and at least ``guard`` from the zeta(2s) pole at 1/2
        and, for f = g, from the Rankin-Selberg poles at 1/2 -+ it.  When
        f = g at level 1 (no provider) the four values are one
        ``selfdual_rs_L`` batch, so both routes read one sym^2 memo entry.
        Otherwise each value is ``rs_L``.
        """
        if self.s is None:
            raise DomainError("the main term needs ctx.s")
        s = complex(self.s)
        if abs(s - 0.5) < guard:
            raise PoleError("main term: zeta(2s) pole at s = 1/2; use the limit path")
        it = 1j * self.t
        if self.f_eq_g and min(abs(s - 0.5 - it), abs(s - 0.5 + it)) < guard:
            raise PoleError(
                "main term: Rankin-Selberg pole at s = 1/2 -+ it for f = g; "
                "use main_term_specialized"
            )
        ws = (s + 0.5 + it, s + 0.5 - it, 1.5 - s - it, 1.5 - s + it)
        if self._sym2_route:
            return s, tuple(selfdual_rs_L(np.array(ws), self.f))
        return s, tuple(self.rs_L(None, w) for w in ws)

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


# the least distance from the poles of ``MomentContext._point``: main_term's
# default, and main_term_breakdown's always
_POLE_GUARD = 1e-4


def main_term(ctx: MomentContext, pole_guard: float = _POLE_GUARD) -> complex:
    """The generic four-term main term at the context's (s, t)."""
    s, (l_plus, l_minus, l_dual_minus, l_dual_plus) = ctx._point(pole_guard)
    t = ctx.t
    it = 1j * t
    N = ctx.N
    z2s = riemann_zeta(2.0 * s)
    z2ms = riemann_zeta(2.0 - 2.0 * s)
    z1p = riemann_zeta(1.0 + 2.0 * it)
    z1m = riemann_zeta(1.0 - 2.0 * it)
    primes = prime_divisors(N)

    term1 = (
        z2s
        * z1p
        * ctx.H0(0.0)
        * math.prod(
            (1 - _pp(p, -2 * s)) * (1 - _pp(p, -1 - 2 * it)) / (1 - _pp(p, -2 * s - 1 - 2 * it))
            for p in primes
        )
        * l_plus
        / riemann_zeta(2.0 * s + 1.0 + 2.0 * it)
    )
    term2 = (
        _pp(TWO_PI, 4.0 * it)
        * z2s
        * z1m
        * ctx.H0(-2.0 * it)
        * _pp(N, -2.0 * it)
        * math.prod(
            (1 - 1.0 / p) * (1 - _pp(p, -2 * s)) / (1 - _pp(p, -2 * s - 1 + 2 * it))
            for p in primes
        )
        * l_minus
        / riemann_zeta(2.0 * s + 1.0 - 2.0 * it)
    )
    # euler_poly_normalized_closed_minus carries N^{-1/2-s-it} and a factor 2
    cusp_sum = sum(
        eisenstein.euler_poly_normalized_closed_minus(N, cusp.a, s, t)
        * (l_dual_minus if cusp.is_infinity_class else ctx.rs_L(cusp, 1.5 - s - it))
        for cusp in enumerate_cusps(N)
    )
    term3 = (
        _pp(TWO_PI, 4 * s - 2 + 4 * it)
        * z2ms
        * z1m
        * ctx.H0(-2.0 * s + 1.0 - 2.0 * it)
        * 0.5
        * cusp_sum
        / arith.zeta_depleted(3.0 - 2.0 * s - 2.0 * it, N)
    )
    term4 = (
        _pp(TWO_PI, 4 * s - 2)
        * z2ms
        * z1p
        * ctx.H0(-2.0 * s + 1.0)
        * _pp(N, 1 - 2 * s)
        * math.prod(
            (1 - _pp(p, -1 - 2 * it)) * (1 - 1.0 / p) / (1 - _pp(p, -3 + 2 * s - 2 * it))
            for p in primes
        )
        * l_dual_plus
        / riemann_zeta(3.0 - 2.0 * s + 2.0 * it)
    )
    return complex(term1 + term2 + term3 + term4)


def _cusp_euler_poly_sum(ctx: MomentContext, s: complex, sign: int, l_infinity: complex) -> complex:
    """sum over cusps of euler_poly(s, it; 1-s+sign*it)/prod(1-p^{1-2s+sign*2it})
    times L_a(3/2 - s + sign*it) / zeta^(N)(3 - 2s + sign*2it), where the
    infinity class's L_a is ``l_infinity``."""
    t = ctx.t
    N = ctx.N
    acc = 0.0 + 0.0j
    zden = arith.zeta_depleted(3.0 - 2.0 * s + sign * 2j * t, N)
    for cusp in enumerate_cusps(N):
        pnorm = eisenstein.euler_poly_normalized(N, cusp.a, s, t, sign)
        acc += pnorm * (l_infinity if cusp.is_infinity_class else ctx.rs_L(cusp, 1.5 - s + sign * 1j * t))
    return acc / zden


def main_term_breakdown(ctx: MomentContext) -> MainTermBreakdown:
    """M1, M_Omega^+ and M_Omega^- from their own displays, plus the sum."""
    s, (l_plus, l_minus, l_dual_minus, l_dual_plus) = ctx._point(_POLE_GUARD)
    it = 1j * ctx.t

    # --- M1: the first-moment piece
    z2s = riemann_zeta(2.0 * s)
    primes = prime_divisors(ctx.N)
    m1 = (
        z2s
        * riemann_zeta(1.0 + 2.0 * it)
        / riemann_zeta(2.0 * s + 1.0 + 2.0 * it)
        * math.prod(
            (1 - _pp(p, -2 * s)) * (1 - _pp(p, -1 - 2 * it)) / (1 - _pp(p, -2 * s - 1 - 2 * it))
            for p in primes
        )
        * l_plus
        * ctx.H0(0.0)
        + _pp(TWO_PI, 4.0 * it)
        * z2s
        * riemann_zeta(1.0 - 2.0 * it)
        / riemann_zeta(2.0 * s + 1.0 - 2.0 * it)
        * _pp(ctx.N, -2.0 * it)
        * math.prod(
            (1 - 1.0 / p) * (1 - _pp(p, -2 * s)) / (1 - _pp(p, -2 * s - 1 + 2 * it))
            for p in primes
        )
        * l_minus
        * ctx.H0(-2.0 * it)
    )

    s_plus = _cusp_euler_poly_sum(ctx, s, +1, l_dual_plus)
    s_minus = _cusp_euler_poly_sum(ctx, s, -1, l_dual_minus)
    h0_plus = ctx.H0(-2.0 * s + 1.0)
    h0_minus = ctx.H0(-2.0 * s + 1.0 - 2.0 * it)
    z2ms = riemann_zeta(2.0 - 2.0 * s)

    # --- M_Omega^+: residual piece of the shifted double series route
    pref_plus = (
        0.25
        * z2ms
        * _pp(TWO_PI, 2 * s - 1 + 2 * it)
        / np.cos(math.pi * (s + 0.5))
    )
    m_omega_plus = pref_plus * (
        _pp(TWO_PI, 2 * s - 1 - 2 * it)
        * riemann_zeta(1.0 + 2.0 * it)
        * np.cos(math.pi * (2 * s - it))
        / np.sin(math.pi * (s - it))
        * s_plus
        * h0_plus
        + _pp(TWO_PI, 2 * s - 1 + 2 * it)
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
        * _pp(TWO_PI, 4 * s - 2 + 2 * it)
        * np.cos(math.pi * it)
        / np.sin(math.pi * s)
    )
    m_omega_minus = pref_minus * (
        _pp(TWO_PI, -2.0 * it)
        / np.sin(math.pi * (s - it))
        * riemann_zeta(1.0 + 2.0 * it)
        * 0.5
        * s_plus
        * h0_plus
        + _pp(TWO_PI, 2.0 * it)
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
    return complex(
        sum(
            a
            * math.prod(1.0 - 1.0 / p for p in prime_divisors(math.gcd(a, N // a)))
            * _cusp_weight(N, a, t)
            for a in divisors(N)
        )
    )


def euler_identity_rhs(N: int, t: float) -> complex:
    """N prod_{p|N} (1-p^{-1+2it})(1-p^{-1-2it})."""
    return N * math.prod(
        (1.0 - _pp(p, -1.0 + 2j * t)) * (1.0 - _pp(p, -1.0 - 2j * t)) for p in prime_divisors(N)
    )


def _cusp_weight(N: int, a: int, t: float) -> complex:
    """The weight of the cusps 1/(ca) at s = 1/2 - it:
    prod_{p|N/a} (1-p^{2it})(1-p^{-2it}) prod_{p|a, p ndiv N/a} (1-1/p)^2."""
    return math.prod(
        (1.0 - _pp(p, 2j * t)) * (1.0 - _pp(p, -2j * t)) for p in prime_divisors(N // a)
    ) * math.prod((1.0 - 1.0 / p) ** 2 for p in prime_divisors(a) if (N // a) % p)


_DISPLAYS = ("fneq_minus", "fneq_plus", "feq_minus", "feq_plus")


def main_term_specialized(ctx: MomentContext, which: str) -> complex:
    """The closed-form value of the main term at s = 1/2 -+ t'.

    ``which`` is one of fneq_minus / fneq_plus / feq_minus / feq_plus (the
    f != g and f = g displays at s = 1/2 - it and s = 1/2 + it).  The f = g
    displays take the residue R and the finite part c0 of
    L(1 + x, f x f~) = R/x + c0 + O(x), which is what the generic-path
    limit reproduces; ``selfdual_rs_constants`` gives them for level 1 and
    raises :class:`DomainError` at any other level.  Each display raises
    :class:`DomainError` for the other case: f != g for the f = g displays,
    f = g for the f != g ones (L(w, f x f~) has its pole at w = 1).
    """
    if which not in _DISPLAYS:
        raise DomainError(f"unknown specialisation {which!r}")
    t = ctx.t
    it = 1j * t
    N = ctx.N
    if abs(t) < 1e-12:
        raise PoleError("specialised displays are singular at t = 0; use the limit")
    if which.startswith("fneq") and ctx.f_eq_g:
        raise DomainError(f"{which} is the f != g display; f and g are the same form")
    if which.startswith("feq") and not ctx.f_eq_g:
        raise DomainError(f"{which} is the f = g display; f and g differ")

    zp = riemann_zeta(1.0 + 2.0 * it)
    zm = riemann_zeta(1.0 - 2.0 * it)
    z2 = arith.zeta_depleted(2.0, N)
    two_pi_4it = _pp(TWO_PI, 4.0 * it)
    primes = prime_divisors(N)
    # the Euler products of the s = 1/2 - it and the s = 1/2 + it displays
    prod_minus = math.prod((1 - _pp(p, -1 + 2 * it)) * (1 - _pp(p, -1 - 2 * it)) for p in primes)
    prod_plus = math.prod((1 - 1.0 / p) * (1 - _pp(p, -1 - 2 * it)) for p in primes)

    if which == "fneq_minus":
        h0_0 = ctx.H0(0.0)
        t1 = zm * zp * h0_0 * prod_minus * ctx.rs_L(None, 1.0) / z2
        cusp_sum = sum(
            cusp.a / cusp.gcd_a * _cusp_weight(N, cusp.a, t) * ctx.rs_L(cusp, 1.0)
            for cusp in enumerate_cusps(N)
        )
        t2 = zp * zm * h0_0 / N * cusp_sum / z2
        t3, t4 = _minus_shift_terms(ctx, it, zp, zm, two_pi_4it)
        return complex(t1 + t2 + t3 + t4)

    if which == "fneq_plus":
        u1 = (
            2.0
            * two_pi_4it
            * zp
            * zm
            * ctx.H0(-2.0 * it)
            * _pp(N, -2 * it)
            * prod_plus
            * ctx.rs_L(None, 1.0)
            / z2
        )
        u2, u3 = _plus_tail_terms(ctx, it, zp, zm)
        return complex(u1 + u2 + u3)

    consts = selfdual_rs_constants(ctx.f)
    res = consts["residue"]
    c0 = consts["finite_part"]

    if which == "feq_minus":
        h0_0 = ctx.H0(0.0)
        zz = zm * zp / z2
        t1 = -zz * H0_derivative("minus", ctx.kernel) * prod_minus * res
        inner = 0.0 + 0.0j
        for a in divisors(N):
            g = math.gcd(a, N // a)
            log_fac = -math.log(a / g) + sum(
                2.0 * math.log(p) for p in prime_divisors(N // a)
            )
            inner += (
                a
                * math.prod(1.0 - 1.0 / p for p in prime_divisors(g))
                * _cusp_weight(N, a, t)
                * log_fac
            )
        t2 = -zz * h0_0 / N * inner * res
        brace = (
            2.0 * log_zeta_derivative(1.0 - 2.0 * it)
            + 2.0 * log_zeta_derivative(1.0 + 2.0 * it)
            - 4.0 * log_zeta_derivative(2.0)
            - 4.0 * math.log(TWO_PI)
            + 2.0 * sum(math.log(p) / (1 - _pp(p, -1 + 2 * it)) for p in primes)
            + math.log(N)
        )
        t3 = zz * h0_0 * prod_minus * brace * res
        t4 = 2.0 * zz * h0_0 * prod_minus * c0
        t5, t6 = _minus_shift_terms(ctx, it, zp, zm, two_pi_4it)
        return complex(t1 + t2 + t3 + t4 + t5 + t6)

    # which == "feq_plus"
    zz = zp * zm / z2
    v1 = (
        -two_pi_4it
        * zz
        * H0_derivative("plus", ctx.kernel)
        * _pp(N, -2 * it)
        * prod_plus
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
            for p in primes
        )
    )
    h0m = ctx.H0(-2.0 * it)
    v2 = two_pi_4it * zz * h0m * _pp(N, -2 * it) * prod_plus * brace * res
    v3 = 2.0 * two_pi_4it * zz * h0m * _pp(N, -2 * it) * prod_plus * c0
    v4, v5 = _plus_tail_terms(ctx, it, zp, zm)
    return complex(v1 + v2 + v3 + v4 + v5)


def _minus_shift_terms(ctx: MomentContext, it: complex, zp, zm, two_pi_4it):
    """The -2it and +2it shifted terms shared by the s = 1/2 - it displays.

    Returned as a pair so that each display sums its terms in written order.
    """
    N = ctx.N
    shifted_m = (
        two_pi_4it
        * zm
        * zm
        * ctx.H0(-2.0 * it)
        * _pp(N, -2 * it)
        * math.prod((1 - 1.0 / p) * (1 - _pp(p, -1 + 2 * it)) for p in prime_divisors(N))
        * ctx.rs_L(None, 1.0 - 2.0 * it)
        / arith.zeta_depleted(2.0 - 4.0 * it, N)
    )
    shifted_p = (
        _pp(TWO_PI, -4.0 * it)
        * zp
        * zp
        * ctx.H0(2.0 * it)
        * _pp(N, 2 * it)
        * math.prod((1 - 1.0 / p) * (1 - _pp(p, -1 - 2 * it)) for p in prime_divisors(N))
        * ctx.rs_L(None, 1.0 + 2.0 * it)
        / arith.zeta_depleted(2.0 + 4.0 * it, N)
    )
    return shifted_m, shifted_p


def _plus_tail_terms(ctx: MomentContext, it: complex, zp, zm):
    """The +2it term and the -4it cusp sum shared by the s = 1/2 + it displays.

    Returned as a pair so that each display sums its terms in written order.
    """
    N = ctx.N
    shifted = (
        zp
        * zp
        * ctx.H0(0.0)
        * math.prod((1 - _pp(p, -1 - 2 * it)) ** 2 for p in prime_divisors(N))
        * ctx.rs_L(None, 1.0 + 2.0 * it)
        / arith.zeta_depleted(2.0 + 4.0 * it, N)
    )
    cusp_sum = 0.0 + 0.0j
    for cusp in enumerate_cusps(N):
        a = cusp.a
        cusp_sum += (
            _pp(a / cusp.gcd_a, 1.0 - 2.0 * it)
            * math.prod((1 - _pp(p, -2 * it)) ** 2 for p in prime_divisors(N // a))
            * math.prod((1 - 1.0 / p) ** 2 for p in prime_divisors(a) if (N // a) % p)
            * ctx.rs_L(cusp, 1.0 - 2.0 * it)
        )
    cusp_term = (
        _pp(TWO_PI, 8.0 * it)
        * zm
        * zm
        * ctx.H0(-4.0 * it)
        * _pp(N, -1.0 - 2.0 * it)
        * cusp_sum
        / arith.zeta_depleted(2.0 - 4.0 * it, N)
    )
    return shifted, cusp_term


def main_term_t0_limit(
    ctx_builder: Callable[[float], MomentContext],
    which: str = "feq_minus",
    t_nodes=(0.04, 0.02, 0.01),
) -> complex:
    """M(1/2, 0) as the Richardson limit of the specialised closed form over t.

    Conjugation symmetry makes the real part of the value even in t and
    the (vanishing) imaginary part odd, so the extrapolation runs on the
    real part in the variable t^2; the returned value is real.
    """
    vals = [main_term_specialized(ctx_builder(t), which) for t in t_nodes]
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
# continuous part, first-moment pieces


def continuous_part(
    ctx: MomentContext, points_per_unit: float = 3.0, half_line: bool = False
) -> ValueWithError:
    """The r-integral of the continuous-spectrum piece at level 1.

    Integrand: h(r) L(1/2+it+ir, f) L(1/2+it-ir, f) L(s+ir, g~) L(s-ir, g~)
    / (pi zeta(1+2ir) zeta(1-2ir)), the denominator taken as
    pi |zeta(1+2ir)|^2 -- the identity
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
    if not 0.0 < points_per_unit < math.inf:
        raise DomainError("points_per_unit must be positive and finite")
    s = complex(ctx.s)
    t = ctx.t
    p = ctx.kernel.params

    def integrand(r_arr):
        # 1/(zeta(1+2ir) zeta(1-2ir)) vanishes like 4r^2: the node r = 0 stays 0
        out = np.zeros(len(r_arr), dtype=complex)
        live = np.abs(r_arr) >= 1e-12
        r = r_arr[live]
        ir = 1j * r
        f_side = np.concatenate([0.5 + 1j * t + ir, 0.5 + 1j * t - ir])
        g_side = np.concatenate([s + ir, s - ir])
        # with f = g both sides are one batch; at s = 1/2 - it it is closed
        # under s -> 1 - s, so the AFE sums each first sum D(u) once.
        # Realness stays a real check: L(conj u) takes D(conj u) and
        # D(1 - conj u), each its own sum, and these are the conjugates of
        # L(u)'s two sums only up to roundoff
        if ctx.f_eq_g:
            lf1, lf2, lg1, lg2 = holo_L(np.concatenate([f_side, g_side]), ctx.f, method="afe").reshape(4, -1)
        else:
            lf1, lf2 = holo_L(f_side, ctx.f, method="afe").reshape(2, -1)
            lg1, lg2 = holo_L(g_side, ctx.g, method="afe").reshape(2, -1)
        # zeta(1 - 2ir) = conj zeta(1 + 2ir) on the real line: one zeta per node
        z = np.array([riemann_zeta(1.0 + 2.0 * x) for x in ir.tolist()])
        out[live] = h_eval(r, p) * lf1 * lf2 * lg1 * lg2 / (math.pi * (z.real * z.real + z.imag * z.imag))
        return out

    hi = p.window()[1]
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
    for v, e in _gk15(integrand, *edges):
        total += v
        err += e
    if half_line:
        total *= 2.0
        err *= 2.0
    tail = math.exp(-140.0) * (abs(hi) + 1.0) ** 3
    return ValueWithError(complex(total), err + tail)


# bytes of the L^-+ inner sums' largest array, the panels x m factor P, per
# block of m: at 512 KiB one block is 1,365 m at 24 v-panels and 204 at 160,
# and the sums' memory stays near 2 MB at any panel count or m_inner
_INNER_BLOCK_BYTES = 1 << 19


def _inner_sums(edges, sigma: float, t: float, weights) -> np.ndarray:
    """sum_m weights[m-1] m^{-v+it} at the GK15 nodes v = sigma + iy of the
    equal panels ``edges``, in :func:`gk15_panel_nodes`' panel-major order:
    the inner sums of L^+ (sigma = sigma_v) and of L^- (sigma = sigma_0 + k/2).

    Node (p, j) is y = mid_p + h x_j, so m^{-v+it} = m^{-sigma + it - i mid_p}
    times m^{-i h x_j}: a panels x m factor P (weights folded in) and a
    15 x m factor Q, and the sums are the product P Q^T.  Each factor is
    built from the v-grid's structure:

    * mid_p = mid_{Fa} + 2hb for p = F a + b, with F about sqrt(panels),
      so P's row p is C_a D_b with C_a = m^{-sigma + it - i mid_{Fa}} and
      D_b = m^{-2ihb};
    * the nodes come in pairs x_{14-j} = -x_j with x_7 = 0, so Q's rows are
      7 exps, a row of ones and their conjugates.

    That is about 2 sqrt(panels) + 7 complex exp per m instead of
    15 * panels.  P, the largest array, takes panels x m x 16 bytes, so the
    sums run over blocks of m that keep it within ``_INNER_BLOCK_BYTES``.
    """
    n_p = len(edges) - 1
    logs = arith.log_table(len(weights))
    mids = 0.5 * (edges[:-1] + edges[1:])
    # from the whole span: edges[1] - edges[0] would carry the roundoff of
    # the edges, relative 1e-14 at 160 panels, into every 2hb
    h = 0.5 * (edges[-1] - edges[0]) / n_p
    n_fine = math.isqrt(n_p)
    coarse = -sigma + 1j * (t - mids[::n_fine])
    fine = -2j * h * np.arange(n_fine)
    half = -1j * h * _NODES[:7]
    step = max(1, _INNER_BLOCK_BYTES // (16 * n_p))
    out = np.zeros((n_p, 15), dtype=complex)
    for m0 in range(0, len(weights), step):
        log_m = logs[m0:m0 + step]
        C = np.exp(np.multiply.outer(coarse, log_m))
        C *= weights[m0:m0 + step]
        D = np.exp(np.multiply.outer(fine, log_m))
        P = (C[:, None, :] * D).reshape(-1, log_m.size)[:n_p]
        E = np.exp(np.multiply.outer(half, log_m))
        Q = np.concatenate([E, np.ones((1, log_m.size)), np.conj(E[::-1])])
        out += P @ Q.T
    return out.ravel()


# the first-moment outer quadratures' tolerances
_FM_QUAD = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=2000)


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
    over Re u = sigma_u and the v-lines Re v = sigma_0 (L^-) and
    Re v = sigma_v = 1 + k/2 + 0.1 (L^+), with ``inner_panels`` fixed
    composite GK15 panels in v, and u on the aligned lattice of
    :func:`integrate_aligned_lattice`.  The inner m-series reads a(n + m),
    so it stops at m = min(``m_inner``, M - n) for the form's M coefficients:
    19,998 terms for Delta at the horizon 20,000 and n = 2.
    Contour placement is validated: sigma_v - k/2 = 1.1 < sigma_u < 3/2
    (left of 1.1 the u-line has crossed the poles of Gamma(u - v + k/2))
    and -k/2 < sigma_0 < -sigma_u.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if m_inner < 1:
        raise DomainError("m_inner must be a positive integer")
    if inner_panels < 1:
        raise DomainError("inner_panels must be a positive integer")
    if n >= ctx.f.M:  # the L^+ inner series needs a(n + 1) at least
        raise InsufficientCoefficientsError(n + 1)
    k = ctx.k
    t = ctx.t
    it = 1j * t
    N = ctx.N
    # the L^+ v-line; Gamma(u - v + k/2) has its poles at Re u = sigma_v - k/2
    sigma_v = 1.0 + k / 2.0 + 0.1
    if not sigma_v - k / 2.0 < sigma_u < 1.5:
        raise DomainError(f"contour violation: need {sigma_v - k / 2.0:g} < sigma_u < 3/2")
    if sigma_0 is None:
        sigma_0 = -k / 2.0 + 0.25
    if not -k / 2.0 < sigma_0 < -sigma_u:
        raise DomainError("contour violation: need -k/2 < sigma_0 < -sigma_u")

    A_n = float(ctx.f.A(n)[n - 1])
    phiN = euler_phi(N)
    m_piece = arith.zeta_depleted(1.0 + 2.0 * it, N) * A_n * n ** (-0.5 - it) * ctx.H0(
        0.0
    ) + (
        _pp(TWO_PI, 4.0 * it)
        * riemann_zeta(1.0 - 2.0 * it)
        * _pp(N, -2.0 * it)
        * (phiN / N)
        * A_n
        * n ** (-0.5 + it)
        * ctx.H0(-2.0 * it)
    )
    hi = ctx.kernel.params.window()[1]
    window = (-hi, hi)
    l_minus = _l_minus(n, ctx, sigma_u, sigma_0, inner_panels, window)
    l_plus = _l_plus(n, ctx, sigma_u, sigma_v, m_inner, inner_panels, window)
    return complex(m_piece), l_minus, l_plus


def _l_minus(n, ctx, sigma_u, sigma_0, inner_panels, window) -> complex:
    """L^-: the finite inner sum over m < n, v on Re v = sigma_0."""
    if n == 1:
        return 0.0 + 0.0j
    k, t, p = ctx.k, ctx.t, ctx.kernel.params
    it = 1j * t
    # the v-integrand decays like exp(-pi(|Im v| - |t|)) here
    rv_max = abs(t) + 50.0 / math.pi
    edges = np.linspace(-rv_max, rv_max, int(inner_panels) + 1)
    nodes, wts = gk15_panel_nodes(edges)
    v = sigma_0 + 1j * nodes
    # sum_{m < n} a(m) sigma(n-m; N) (n-m)^{-v+it-k/2}, over j = n - m
    weights = arith.sigma_twisted_array(ctx.N, t, n - 1) * ctx.f.a[n - 2 :: -1]
    with np.errstate(divide="ignore"):
        log_c = (
            np.log(wts / TWO_PI)
            + _loggamma(k / 2.0 - it + v)
            + _loggamma(k / 2.0 + it + v)
            + v * math.log(n)
            + np.log(_inner_sums(edges, sigma_0 + k / 2.0, t, weights))
        )

    def log_pref(gam):
        u = sigma_u + 1j * gam
        # tan(pi u) = -cot(pi (u + 1/2)), which _cot_pi keeps finite at any |Im u|
        return (
            np.log(h_eval(gam - 1j * sigma_u, p, enforce_strip=False) * u * -_cot_pi(u + 0.5))
            - _loggamma(u + it + k / 2.0)
            - _loggamma(-u + it + k / 2.0)
        )

    # Gamma(u - v) Gamma(-u - v) with u - v = sigma_u - sigma_0 + i(gam - y)
    val = integrate_aligned_lattice(
        log_pref,
        log_c,
        lambda x: _loggamma(sigma_u - sigma_0 + 1j * x),
        lambda y: _loggamma(-sigma_u - sigma_0 - 1j * y),
        edges,
        window,
        _FM_QUAD,
    ).value
    return complex(
        -_pp(TWO_PI, 2.0 * it) * np.cos(math.pi * it) / math.pi
        * (2.0 / math.pi)
        * val
    )


def _l_plus(n, ctx, sigma_u, sigma_v, m_inner, inner_panels, window) -> complex:
    """L^+: the inner series over all m, v on Re v = sigma_v."""
    k, t, p = ctx.k, ctx.t, ctx.kernel.params
    it = 1j * t
    m_inner = min(m_inner, ctx.f.M - n)
    weights = arith.sigma_twisted_array(ctx.N, t, m_inner) * ctx.f.a[n : n + m_inner]
    # only polynomial decay until |Im v| passes the h-window top
    rv_max = window[1] + 40.0 / math.pi
    edges = np.linspace(-rv_max, rv_max, int(inner_panels) + 1)
    nodes, wts = gk15_panel_nodes(edges)
    v = sigma_v + 1j * nodes
    log_c = (
        np.log(wts / TWO_PI)
        + _loggamma(v - it)
        + _loggamma(v + it)
        + (v - k / 2.0) * math.log(n)
        + np.log(_inner_sums(edges, sigma_v, t, weights))
    )
    del weights  # the lattice below does not read the inner series

    def log_pref(gam):
        u = sigma_u + 1j * gam
        with np.errstate(divide="ignore"):  # h underflows to 0 far from its bumps
            log_h_u = np.log(h_eval(gam - 1j * sigma_u, p, enforce_strip=False) * u)
        return (
            # log cos(pi u) = log sin(pi (u + 1/2)), continuous in each half plane
            log_h_u - _log_sin_pi(u + 0.5) - _loggamma(-u + it + k / 2.0) - _loggamma(u + it + k / 2.0)
        )

    # Gamma(u - v + k/2) / Gamma(u + v + 1 - k/2) = Gamma(a + i(gam - y)) /
    # Gamma(b + i(gam + y)).  Singularity subtraction (Davis & Rabinowitz,
    # Methods of Numerical Integration, 2nd ed., sec. 2.12): Gamma(z) =
    # Gamma(z + 1)/z with z = a + i(gam - y_j), so every v-node puts a pole a
    # off the u-line.  Its part r_j/z leaves the outer integrand and comes
    # back integrated in closed form; r_j is the rest of the node's term at
    # z = 0 (gam = y_j + ia), formed in logs since 1/Gamma alone overflows at
    # large |y_j|.
    a = sigma_u - sigma_v + k / 2.0
    b = sigma_u + sigma_v + 1.0 - k / 2.0

    def log_k_plus(y):
        return -_loggamma(b + 1j * y)

    gam_r = nodes + 1j * a
    residues = np.exp(log_pref(gam_r) + log_c + log_k_plus(gam_r + nodes))
    val = integrate_aligned_lattice(
        log_pref,
        log_c,
        lambda x: _loggamma(a + 1j * x),
        log_k_plus,
        edges,
        window,
        _FM_QUAD,
        pole=(a, residues),
    ).value
    return complex((1j) ** k * _pp(TWO_PI, 2.0 * it) * (2.0 / math.pi) * val)


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
