"""Complex special functions and a reusable adaptive quadrature engine.

Everything downstream (Eisenstein coefficients, moment kernels, shifted
series) is built on the functions in this module:

* ``log_gamma`` / ``complex_gamma`` -- Stirling series after an argument
  shift, branch-continuous along vertical lines, so that ratios of gamma
  functions with large imaginary parts can be formed in log space.
* ``digamma_family`` -- psi and its first three derivatives for complex
  arguments (scipy only covers the complex case for order 0).
* ``riemann_zeta`` / ``hurwitz_zeta`` -- Euler-Maclaurin with a
  functional-equation fallback on the left half plane.
* ``dirichlet_L`` / ``gauss_sum`` -- character L-values via Hurwitz zeta.
* ``bessel_K`` -- K-Bessel of complex (notably purely imaginary) order
  through the integral 1/2 * int_0^oo exp(-y/2 (t+1/t)) t^nu dt/t, computed
  on the cosh line with a doubly-exponentially convergent trapezoid mesh.
* ``integrate_line`` -- adaptive Gauss-Kronrod for complex integrands on a
  finite or truncated line, returning a value together with an error
  estimate.

All functions are pure.  Cached tables (Bernoulli numbers, Gauss-Kronrod
nodes) are built once at import time and never mutated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import bernoulli as _bernoulli_table

__all__ = [
    "PoleError",
    "DomainError",
    "NonConvergenceError",
    "ValueWithError",
    "QuadratureSpec",
    "DirichletCharacter",
    "log_gamma",
    "complex_gamma",
    "digamma_family",
    "riemann_zeta",
    "hurwitz_zeta",
    "zeta_laurent",
    "zeta_derivative",
    "log_zeta_derivative",
    "dirichlet_L",
    "dirichlet_L_depleted",
    "gauss_sum",
    "bessel_K",
    "integrate_line",
    "extrapolate_to_zero",
]


class PoleError(ValueError):
    """Evaluation was requested at (or too close to) a pole."""


class DomainError(ValueError):
    """Argument outside the supported domain."""


class NonConvergenceError(RuntimeError):
    """Quadrature or series failed to reach the requested tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class ValueWithError(NamedTuple):
    """A computed value together with an estimated absolute error."""

    value: complex
    error: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation limits for the adaptive line quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 4000
    cutoff_radius: float = 50.0

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be a positive integer")
        if self.cutoff_radius <= 0:
            raise ValueError("cutoff_radius must be positive")


# Bernoulli numbers B_2, B_4, ..., B_28 (B_0 and odd indices dropped).
_B2N = _bernoulli_table(28)[2::2].copy()

EULER_GAMMA = 0.5772156649015328606


def _small_prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# log-gamma, gamma, polygamma


def _near_nonpositive_integer(z, tol=1e-12):
    zr = np.real(z)
    zi = np.imag(z)
    return (zr < 0.5) & (np.abs(zi) < tol) & (np.abs(zr - np.round(zr)) < tol)


def _log_sin_pi(z):
    """log(sin(pi z)), continuous in each open half plane, principal on (0,1)."""
    z = np.asarray(z, dtype=complex)
    upper = z.imag >= 0.0
    zu = np.where(upper, z, np.conj(z))
    # sin(pi z) = exp(-i pi z) (1 - exp(2 i pi z)) * i/2 for Im z >= 0
    val = (
        -1j * math.pi * zu
        + np.log(1.0 - np.exp(2j * math.pi * zu))
        + (1j * math.pi / 2.0 - math.log(2.0))
    )
    return np.where(upper, val, np.conj(val))


def _cot_pi(z):
    """cot(pi z), overflow-safe for large |Im z|."""
    z = np.asarray(z, dtype=complex)
    upper = z.imag >= 0.0
    zu = np.where(upper, z, np.conj(z))
    u = np.exp(2j * math.pi * zu)  # |u| <= 1
    val = -1j * (1.0 + u) / (1.0 - u)
    return np.where(upper, val, np.conj(val))


def _stirling_log_gamma(w):
    inv2 = 1.0 / (w * w)
    corr = np.zeros_like(w)
    inv_pow = 1.0 / w
    for j in range(1, 11):
        corr = corr + _B2N[j - 1] / (2 * j * (2 * j - 1)) * inv_pow
        inv_pow = inv_pow * inv2
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + corr


def log_gamma(z):
    """Principal-branch log Gamma(z), continuous along vertical lines.

    Stirling's series with 10 correction terms is applied after shifting the
    argument so that Re z >= 10 (no shift once |Im z| >= 25).  Arguments with
    Re z < 0.5 go through the reflection formula, with the sine logarithm
    taken continuously in each half plane.  Accepts scalars or numpy arrays.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    zf = np.atleast_1d(z_arr).astype(complex).ravel()
    if np.any(_near_nonpositive_integer(zf)):
        raise PoleError("log_gamma pole at non-positive integer argument")

    out = np.empty_like(zf)
    refl = zf.real < 0.5
    if np.any(refl):
        zr = zf[refl]
        out[refl] = (
            math.log(math.pi) - _log_sin_pi(zr) - _log_gamma_right(1.0 - zr)
        )
    if np.any(~refl):
        out[~refl] = _log_gamma_right(zf[~refl])
    res = out.reshape(np.atleast_1d(z_arr).shape)
    return complex(res.ravel()[0]) if scalar else res.reshape(z_arr.shape)


def _log_gamma_right(w):
    """log Gamma on Re w >= 0.5 via shift + Stirling (array in, array out)."""
    w = w.copy()
    shift_acc = np.zeros_like(w)
    needs = (w.real < 10.0) & (np.abs(w.imag) < 25.0)
    while np.any(needs):
        shift_acc[needs] += np.log(w[needs])
        w[needs] += 1.0
        needs = (w.real < 10.0) & (np.abs(w.imag) < 25.0)
    return _stirling_log_gamma(w) - shift_acc


def complex_gamma(z):
    """Gamma(z) via exp(log_gamma); underflows gracefully for large |Im z|."""
    return np.exp(log_gamma(z))


_PSI_SHIFT = 12.0


def _cot_pi_derivative(z, m):
    """d^m/dz^m of pi*cot(pi z) for m = 0..3."""
    c = _cot_pi(z)
    pi = math.pi
    if m == 0:
        return pi * c
    if m == 1:
        return -(pi**2) * (1.0 + c * c)
    if m == 2:
        return 2.0 * pi**3 * c * (1.0 + c * c)
    return -2.0 * pi**4 * (1.0 + 3.0 * c * c) * (1.0 + c * c)


def digamma_family(z, order: int = 0):
    """psi^(m)(z) for m in {0, 1, 2, 3} and complex z (vectorised).

    The downward recurrence psi^(m)(z) = psi^(m)(z+1) - (-1)^m m! z^-(m+1)
    moves the argument to Re z >= 12, where the asymptotic series applies;
    Re z < 0.5 is handled by the reflection formula.
    """
    if order not in (0, 1, 2, 3):
        raise DomainError("digamma_family supports orders 0..3")
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    zf = np.atleast_1d(z_arr).astype(complex).ravel()
    if np.any(_near_nonpositive_integer(zf)):
        raise PoleError("polygamma pole at non-positive integer argument")

    out = np.empty_like(zf)
    refl = zf.real < 0.5
    if np.any(refl):
        zr = zf[refl]
        out[refl] = (-1.0) ** order * _psi_right(1.0 - zr, order) - _cot_pi_derivative(
            zr, order
        )
    if np.any(~refl):
        out[~refl] = _psi_right(zf[~refl], order)
    return complex(out[0]) if scalar else out.reshape(z_arr.shape)


def _psi_right(w, m):
    w = w.copy()
    rec = np.zeros_like(w)
    sign = (-1.0) ** m * math.factorial(m)
    needs = (w.real < _PSI_SHIFT) & (np.abs(w.imag) < 30.0)
    while np.any(needs):
        rec[needs] -= sign * w[needs] ** (-(m + 1))
        w[needs] += 1.0
        needs = (w.real < _PSI_SHIFT) & (np.abs(w.imag) < 30.0)

    inv = 1.0 / w
    inv2 = inv * inv
    if m == 0:
        out = np.log(w) - 0.5 * inv
        term = inv2
        for j in range(1, 11):
            out -= _B2N[j - 1] / (2 * j) * term
            term = term * inv2
    elif m == 1:
        out = inv + 0.5 * inv2
        term = inv2 * inv
        for j in range(1, 11):
            out += _B2N[j - 1] * term
            term = term * inv2
    elif m == 2:
        out = -inv2 - inv2 * inv
        term = inv2 * inv2
        for j in range(1, 11):
            out -= (2 * j + 1) * _B2N[j - 1] * term
            term = term * inv2
    else:
        out = 2.0 * inv2 * inv + 3.0 * inv2 * inv2
        term = inv2 * inv2 * inv
        for j in range(1, 11):
            out += (2 * j + 1) * (2 * j + 2) * _B2N[j - 1] * term
            term = term * inv2
    return out + rec


# ---------------------------------------------------------------------------
# zeta and Dirichlet L


def hurwitz_zeta(s, a: float):
    """Hurwitz zeta(s, a) for 0 < a <= 1 by Euler-Maclaurin (12 B-terms)."""
    s = complex(s)
    if abs(s - 1.0) < 1e-14:
        raise PoleError("hurwitz_zeta pole at s = 1")
    if not 0.0 < a <= 1.0:
        raise DomainError("hurwitz_zeta expects 0 < a <= 1")
    n_terms = max(20, int(math.ceil(2.0 * abs(s.imag))))
    n = np.arange(n_terms, dtype=float) + a
    head = complex(np.sum(np.exp(-s * np.log(n))))
    big = n_terms + a
    val = head + big ** (1.0 - s) / (s - 1.0) + 0.5 * big ** (-s)
    poch = s  # (s)_{2j-1} for j = 1
    binv = big ** (-s - 1.0)  # big^{-s-2j+1} for j = 1
    for j in range(1, 13):
        val += _B2N[j - 1] / math.factorial(2 * j) * poch * binv
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        binv /= big * big
    return val


@lru_cache(maxsize=1)
def _stieltjes_constants():
    import mpmath as mp

    return tuple(float(mp.stieltjes(n)) for n in range(12))


def zeta_laurent(x, order: int = 0) -> complex:
    """zeta^(m)(1 + x) from the Stieltjes expansion, reliable for |x| <= 0.2.

    zeta(1+x) = 1/x + sum_n (-1)^n gamma_n x^n / n!.
    """
    x = complex(x)
    if abs(x) < 1e-14:
        raise PoleError("zeta pole at s = 1")
    g = _stieltjes_constants()
    if order == 0:
        out = 1.0 / x
        for n in range(len(g)):
            out += (-1.0) ** n * g[n] * x**n / math.factorial(n)
        return out
    if order == 1:
        out = -1.0 / (x * x)
        for n in range(1, len(g)):
            out += (-1.0) ** n * g[n] * x ** (n - 1) / math.factorial(n - 1)
        return out
    raise DomainError("zeta_laurent supports orders 0 and 1")


def riemann_zeta(s):
    """zeta(s) by Euler-Maclaurin; functional equation for Re s < 0.

    Near s = 1 the Stieltjes expansion takes over, which keeps values (and
    the derivative path) fully accurate right up against the pole.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-14:
        raise PoleError("zeta pole at s = 1")
    if abs(s - 1.0) < 0.2:
        return zeta_laurent(s - 1.0, 0)
    if s.real < 0.0:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s); formed in
        # log space so the sine growth cancels against the gamma decay.
        w = 1.0 - s
        log_chi = (
            s * math.log(2.0)
            + (s - 1.0) * math.log(math.pi)
            + complex(_log_sin_pi(s / 2.0))
            + log_gamma(w)
        )
        return complex(np.exp(log_chi)) * riemann_zeta(w)
    return hurwitz_zeta(s, 1.0)


def zeta_derivative(s, order: int = 1):
    """zeta^(m)(s) by high-order central differences (m = 1 or 2)."""
    s = complex(s)
    if order == 1 and abs(s - 1.0) < 0.2:
        return zeta_laurent(s - 1.0, 1)
    h = 1e-3
    if order == 1:
        vals = [riemann_zeta(s + k * h) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    if order == 2:
        vals = [riemann_zeta(s + k * h) for k in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
            12 * h * h
        )
    raise DomainError("zeta_derivative supports orders 1 and 2")


def log_zeta_derivative(s):
    """zeta'/zeta(s)."""
    return zeta_derivative(s, 1) / riemann_zeta(s)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q stored as a value table of length q.

    ``values[n]`` is chi(n) for n = 0..q-1; chi(n) = 0 iff gcd(n, q) > 1,
    |chi(n)| = 1 otherwise, and chi is completely multiplicative.
    """

    modulus: int
    values: tuple
    is_primitive: bool
    is_trivial: bool

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    def value_array(self, n):
        """Vectorised chi(n) for an integer numpy array."""
        idx = np.mod(np.asarray(n), self.modulus)
        return np.asarray(self.values, dtype=complex)[idx]

    def squared(self) -> "DirichletCharacter":
        """chi^2 as a character mod q (is_primitive left False)."""
        vals = tuple(v * v for v in self.values)
        trivial = all(abs(v - 1.0) < 1e-12 for v in vals if v != 0)
        return DirichletCharacter(self.modulus, vals, False, trivial)


def dirichlet_L(s, chi: DirichletCharacter):
    """L(s, chi) = q^-s sum_a chi(a) zeta_H(s, a/q).

    The pole at s = 1 is only present for the trivial character; for
    nontrivial chi at s = 1 the classical digamma formula is used instead of
    the (individually singular) Hurwitz values.
    """
    s = complex(s)
    q = chi.modulus
    if q == 1:
        return riemann_zeta(s)
    if abs(s - 1.0) < 1e-12:
        if chi.is_trivial:
            raise PoleError("L(s, chi_0) pole at s = 1")
        acc = 0.0 + 0.0j
        for a in range(1, q + 1):
            v = chi.values[a % q]
            if v != 0:
                acc += v * digamma_family(a / q, 0)
        return -acc / q
    acc = 0.0 + 0.0j
    for a in range(1, q + 1):
        v = chi.values[a % q]
        if v != 0:
            acc += v * hurwitz_zeta(s, a / q)
    return q ** (-s) * acc


def dirichlet_L_depleted(s, chi: DirichletCharacter, N: int):
    """L^(N)(s, chi): the Euler factors at primes p | N removed."""
    val = dirichlet_L(s, chi)
    for p in _small_prime_divisors(N):
        val *= 1.0 - chi(p) * p ** (-complex(s))
    return val


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_{n mod q} chi(n) e^{2 pi i n / q}."""
    q = chi.modulus
    n = np.arange(q)
    return complex(np.sum(np.asarray(chi.values) * np.exp(2j * math.pi * n / q)))


# ---------------------------------------------------------------------------
# K-Bessel


def bessel_K(nu, y: float, rel_tol: float = 1e-12):
    """K_nu(y) for y > 0 and complex order with |Re nu| <= 50.

    Writes the defining integral on the cosh line,
        K_nu(y) = 1/2 int_R exp(-y cosh u) exp(nu u) du,
    and applies the trapezoid rule, which converges doubly exponentially for
    this integrand.  The mesh is halved until two successive meshes agree.
    """
    if y <= 0.0:
        raise DomainError("bessel_K requires y > 0")
    nu = complex(nu)
    if abs(nu.real) > 50.0:
        raise DomainError("bessel_K supports |Re nu| <= 50")

    # Truncation point: exp(-y cosh U + |Re nu| U) below ~1e-20.
    target = 46.0
    u_max = 5.0
    for _ in range(4):
        u_max = math.acosh(max(2.0, (target + abs(nu.real) * u_max) / y)) + 0.5

    h = 0.5 / (1.0 + abs(nu.imag) / 6.0 + y / 40.0)
    prev = None
    for _ in range(12):
        u = np.arange(0.0, u_max, h)
        w = np.exp(-y * np.cosh(u)) * np.cosh(nu * u)
        w[0] *= 0.5
        val = complex(h * np.sum(w))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            return val
        prev = val
        h *= 0.5
    raise NonConvergenceError("bessel_K mesh refinement did not settle", prev)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod line quadrature

# 15-point Kronrod abscissae / weights and embedded 7-point Gauss weights
# (the classical QUADPACK dqk15 constants).
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_EPS = float(np.finfo(float).eps)
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_W15 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_W7 = np.zeros(15)
_W7[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15(f, *edges: float):
    """Gauss-Kronrod 7-15 on each panel between consecutive ``edges``.

    ``f`` is called once, on the nodes of every panel in order.  Returns one
    (I15, |I15 - I7|) per panel.  Non-finite integrand values propagate into
    a non-finite error estimate, which the adaptive driver treats as "not
    converged".
    """
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    out = []
    with np.errstate(invalid="ignore"):
        for h, row in zip(half.tolist(), y):
            i15 = h * complex(np.sum(_W15 * row))
            i7 = h * complex(np.sum(_W7 * row))
            out.append((i15, abs(i15 - i7)))
    return out


def _split_key(err: float, a: float, seq: int):
    """Heap key: the worst error first (an error that is not a number counts
    as the worst), then the smaller left end, then the older panel."""
    return (-err if err == err else -math.inf, a, seq)


def integrate_line(
    f: Callable,
    spec: QuadratureSpec,
    interval: tuple | None = None,
    tail_bound: Callable[[float], float] | None = None,
) -> ValueWithError:
    """Adaptive complex quadrature of ``f`` over a line segment.

    ``f`` must accept a numpy array of real abscissae and return complex
    values.  When ``interval`` is omitted the segment is
    [-cutoff_radius, cutoff_radius]; ``tail_bound``, if given, is called with
    the cutoff radius and must return a certified bound on the discarded
    tails, which is added to the reported error.  Subdivision is
    worst-interval-first with a deterministic tie-break, from a heap; both
    halves of a split panel come from one call of ``f``.

    The value and error are running totals between steps.  The convergence
    test runs on exact re-sums over the panels in creation order, made
    whenever the running error (with a bound on its rounding) is within
    twice the tolerance or a running total is not finite, and before
    returning or raising.

    Raises :class:`NonConvergenceError` when ``max_subdivisions`` panels do
    not reach max(abs_tol, rel_tol * |value|).
    """
    if interval is None:
        a, b = -spec.cutoff_radius, spec.cutoff_radius
    else:
        a, b = interval
    tail = float(tail_bound(spec.cutoff_radius)) if tail_bound is not None else 0.0

    [(val, err)] = _gk15(f, a, b)
    panels = {0: (a, b, val, err)}  # live panels by creation number

    def resum():
        return sum(p[2] for p in panels.values()), sum(p[3] for p in panels.values())

    heap = [_split_key(err, a, 0)]
    total, total_err, slack = val, err, 0.0
    for step in range(spec.max_subdivisions):
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if not (math.isfinite(total_err) and np.isfinite(total)) or total_err <= 2.0 * tol + slack:
            total, total_err = resum()
            slack = 0.0
            if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                return ValueWithError(total, total_err + tail)
        i = heapq.heappop(heap)[2]
        pa, pb, pval, perr = panels.pop(i)
        pm = 0.5 * (pa + pb)
        (v1, e1), (v2, e2) = _gk15(f, pa, pm, pb)
        panels[2 * step + 1] = (pa, pm, v1, e1)
        panels[2 * step + 2] = (pm, pb, v2, e2)
        heapq.heappush(heap, _split_key(e1, pa, 2 * step + 1))
        heapq.heappush(heap, _split_key(e2, pm, 2 * step + 2))
        total += v1 + v2 - pval
        # three roundings, each at most eps/2 of a partial sum below this bound
        slack += 2.0 * _EPS * (total_err + e1 + e2 + perr)
        total_err += e1 + e2 - perr
    total, total_err = resum()
    raise NonConvergenceError(
        "integrate_line exhausted max_subdivisions", total, total_err + tail
    )


def extrapolate_to_zero(steps: Sequence[float], values: Sequence[complex]) -> complex:
    """Neville polynomial extrapolation of values(h) to h -> 0."""
    h = list(map(float, steps))
    v = list(map(complex, values))
    n = len(v)
    for level in range(1, n):
        for i in range(n - level):
            v[i] = v[i + 1] + (v[i + 1] - v[i]) * h[i + level] / (h[i] - h[i + level])
    return v[0]
