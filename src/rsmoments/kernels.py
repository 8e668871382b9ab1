"""Spectral test function and moment kernels.

The test function is a pair of Gaussian bumps at +-T of width T^alpha,

    h(r) = (exp(-((r-T)/T^a)^2) + exp(-((r+T)/T^a)^2)) (r^2 + 1/4)/(r^2 + R),

with the rational factor forcing h(+-i/2) = 0.  The kernel

    H0(ix) = 1/pi^2 int h(r) r tanh(pi r)
             G(ir+ix+it+k/2) G(-ir+ix+it+k/2) /
             [G(ir+it+k/2) G(-ir+it+k/2)] dr

and its first s-derivative at s = 1/2 -+ it drive every main-term
evaluation.  The integrand is even in r, so the integral is taken as twice
the bump window around +T with a certified Gaussian bound for whatever is
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import loggamma as _loggamma

from .specfun import (
    DomainError,
    PoleError,
    QuadratureSpec,
    digamma_family,
    gk15_panel_nodes,
    integrate_line,
)

# Half-width of the integration window in units of T^alpha.  At 12 units the
# Gaussian has decayed to exp(-144).
WINDOW_UNITS = 12.0


class StripViolationError(ValueError):
    """h was evaluated outside its holomorphy strip |Im r| <= 1/2 + 0.1."""


@dataclass(frozen=True)
class TestFunctionParams:
    """Parameters (T, alpha, R) of the bump pair."""

    __test__ = False  # keep pytest from collecting the "Test" prefix

    T: float
    alpha: float
    R: float = 1.0

    def __post_init__(self):
        if self.T < 10.0:
            raise ValueError("need T >= 10")
        if not (1.0 / 3.0 < self.alpha < 2.0 / 3.0):
            raise ValueError("need 1/3 < alpha < 2/3")
        if not (1.0 <= self.R < self.T**2):
            raise ValueError("need 1 <= R < T^2")

    @property
    def bump_width(self) -> float:
        return self.T**self.alpha

    def window(self) -> tuple:
        """Positive-r integration window covering the +T bump."""
        w = WINDOW_UNITS * self.bump_width
        return (max(0.0, self.T - w), self.T + w)

    def window_edges(self) -> np.ndarray:
        """window() cut into equal panels at most one bump width wide, the
        starting panels of every H0-type quadrature; built once, read-only."""
        return self._window_edges

    @cached_property
    def _window_edges(self) -> np.ndarray:
        lo, hi = self.window()
        # the window's width in bump widths, free of the roundoff of (hi - lo) / w
        units = WINDOW_UNITS + min(self.T / self.bump_width, WINDOW_UNITS)
        edges = np.linspace(lo, hi, math.ceil(units) + 1)
        edges.flags.writeable = False
        return edges


@dataclass(frozen=True)
class KernelContext:
    """Everything H0-type integrals need: bump params, t, weight k, tolerances.

    Frozen, so that what it caches always belongs to its fields: the H0
    values in ``_h0_cache`` (left out of equality and the hash), and the
    half of H0's integrand that does not depend on ix in
    ``_h0_start_factors``.
    """

    params: TestFunctionParams
    t: float
    k: int
    quad: QuadratureSpec = field(default_factory=lambda: QuadratureSpec(rel_tol=1e-11))
    _h0_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 4 or self.k % 2:
            raise ValueError("weight k must be an even integer >= 4")

    def cached_H0(self, ix) -> complex:
        """H0(ix), computed once per exact argument."""
        key = complex(ix)
        if key not in self._h0_cache:
            self._h0_cache[key] = H0(key, self)
        return self._h0_cache[key]

    @cached_property
    def _h0_start_factors(self) -> tuple:
        """(r, log G(ir + a), log G(-ir + a), h(r) r tanh(pi r)), a = k/2 + it,
        on the GK15 nodes of ``params.window_edges()``, where every H0
        quadrature starts; built on first use, read-only."""
        r = gk15_panel_nodes(self.params.window_edges())[0]
        factors = (r, *_h0_ix_free(r, self))
        for x in factors:
            x.flags.writeable = False
        return factors


def h_eval(r, p: TestFunctionParams, enforce_strip: bool = True):
    """The test function h(r); r may be complex (or a numpy array).

    With ``enforce_strip`` the argument must stay in |Im r| <= 0.6, the strip
    where the defining conditions hold; internal contour work evaluates the
    same meromorphic expression with the check off.  A real r (the quadrature
    nodes) skips both the check and the complex arithmetic and gives a real
    value.  It is within 6e-14 relative of the complex route's, which is the
    conditioning of exp(-x^2) at the window's edge (x = 12) for either route.
    """
    r = np.asarray(r)
    real = np.isrealobj(r)
    if not real and enforce_strip and np.any(np.abs(r.imag) > 0.6):
        raise StripViolationError("h evaluated outside |Im r| <= 0.6")
    w = p.bump_width
    bumps = np.exp(-(((r - p.T) / w) ** 2)) + np.exp(-(((r + p.T) / w) ** 2))
    out = bumps * (r * r + 0.25) / (r * r + p.R)
    if out.ndim:
        return out
    return float(out) if real else complex(out)


def tanh_pi(r):
    """tanh(pi r), saturating (overflow-free) for large |r|."""
    return np.tanh(math.pi * np.asarray(r, dtype=float))


def _spectral_weight(r, ctx: KernelContext):
    """h(r) r tanh(pi r), the weight every H0-type integrand carries."""
    return h_eval(r, ctx.params) * r * tanh_pi(r)


def _gamma_ratio_pole_check(ix: complex, ctx: KernelContext, lo: float, hi: float):
    """Reject gamma-argument poles ir+ix+it+k/2 crossing the window."""
    a = ctx.k / 2.0 + complex(ix).real
    if a > 1e-9:
        return
    if abs(a - round(a)) > 1e-9:
        return
    # argument imag part: +-r + Im(ix) + t sweeps through zero?
    b = complex(ix).imag + ctx.t
    for sign in (1.0, -1.0):
        r0 = -b / sign
        if lo - 1e-9 <= abs(r0) <= hi + 1e-9:
            raise PoleError("gamma pole inside the H0 integration window")


def _h0_ix_free(r, ctx: KernelContext):
    """log G(ir + a), log G(-ir + a) (a = k/2 + it) and h(r) r tanh(pi r):
    the factors of H0's integrand that do not depend on ix."""
    a = ctx.k / 2.0 + 1j * ctx.t
    return _loggamma(1j * r + a), _loggamma(-1j * r + a), _spectral_weight(r, ctx)


def _h0_integrand_factory(ix: complex, ctx: KernelContext):
    a = ctx.k / 2.0 + 1j * ctx.t

    def f(r):
        start, lg_plus, lg_minus, weight = ctx._h0_start_factors
        if r.shape != start.shape or not np.array_equal(r, start):
            lg_plus, lg_minus, weight = _h0_ix_free(r, ctx)
        ratio = np.exp(_loggamma(1j * r + ix + a) + _loggamma(-1j * r + ix + a) - lg_plus - lg_minus)
        return weight * ratio

    return f


def H0(ix, ctx: KernelContext) -> complex:
    """The gamma-ratio kernel H0(ix; h) for the context's (T, alpha, R, t, k).

    ``ix`` is the complex argument occupying the ix slot (e.g. 0, -2it,
    -2s+1).  Integration runs over twice the positive bump window; the
    dropped region carries a certified exp(-144)-size bound.  On the
    starting nodes the integrand reads its ix-free factors from the
    context, which builds them once; nodes of split panels compute them
    afresh.  Either way the logs add in one order, so the value has the
    same bits as an integrand that computes everything afresh.
    """
    ix = complex(ix)
    lo, hi = ctx.params.window()
    _gamma_ratio_pole_check(ix, ctx, lo, hi)
    f = _h0_integrand_factory(ix, ctx)
    val, _ = integrate_line(f, ctx.quad, interval=ctx.params.window_edges())
    # everything below the window: |h| <= e^{-144} (plus the mirrored bump,
    # which on [0, lo] is smaller still), ratio growth is polynomial.
    return 2.0 * val / math.pi**2


def _psi_sum(r, shift, k):
    """psi(ir + shift + k/2) + psi(-ir + shift + k/2) on a real grid r."""
    a = k / 2.0 + shift
    return digamma_family(1j * r + a) + digamma_family(-1j * r + a)


def H0_derivative(variant: str, ctx: KernelContext) -> complex:
    """The displayed psi-weighted integral for the first s-derivative of H0.

    variant "minus": d/ds of H0(-2s+1-2it) at s = 1/2 - it; variant "plus":
    d/ds of H0(-2s+1) at s = 1/2 + it.  The "plus" integrand is H0's own
    integrand at ix = -2it times its psi-sum, so on the starting panels it
    reads the context's cached ix-free factors.
    """
    if variant not in ("minus", "plus"):
        raise DomainError("variant must be 'minus' or 'plus'")
    k = ctx.k
    t = ctx.t
    if variant == "minus":

        def f(r):
            return _spectral_weight(r, ctx) * _psi_sum(r, 1j * t, k)

    else:
        h0_at = _h0_integrand_factory(-2j * t, ctx)

        def f(r):
            return h0_at(r) * _psi_sum(r, -1j * t, k)

    val, _ = integrate_line(f, ctx.quad, interval=ctx.params.window_edges())
    return -4.0 / math.pi**2 * val
