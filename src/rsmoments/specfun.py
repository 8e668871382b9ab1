"""Complex special functions and a reusable adaptive quadrature engine.

Everything downstream (Eisenstein coefficients, moment kernels, shifted
series) is built on the functions in this module:

* ``log_gamma`` / ``complex_gamma`` -- scipy's principal-branch log Gamma
  with a pole check, so that ratios of gamma functions with large imaginary
  parts can be formed in log space.
* ``digamma_family`` -- scipy's psi for complex arguments, with the same
  pole check.
* ``_pp`` -- the package's one scalar complex power b^z = exp(z log b), b > 0.
* ``riemann_zeta`` / ``hurwitz_zeta`` -- Euler-Maclaurin with a
  functional-equation fallback on the left half plane.
* ``central_difference`` -- the fourth-order 4-point stencil, the one route
  to numerical first derivatives (zeta here, the symmetric-square
  L-function in ``lseries``).
* ``dirichlet_L`` / ``gauss_sum`` -- character L-values via Hurwitz zeta.
* ``bessel_K`` -- K-Bessel of complex (notably purely imaginary) order
  through the integral 1/2 * int_0^oo exp(-y/2 (t+1/t)) t^nu dt/t, computed
  on the cosh line with a doubly-exponentially convergent trapezoid mesh.
* ``integrate_line`` -- adaptive Gauss-Kronrod for complex integrands on a
  finite segment given by its edges, returning a value together with an
  error estimate.
* ``integrate_aligned_lattice`` -- the same GK15 rule on equal u-panels
  aligned with fixed v-panels, for double integrals whose kernels depend on
  g - y and g + y only (tabulated once per lattice, on the rows that reach
  the sum, half of them as conjugates of the other half).

All functions are pure.  Cached tables (Bernoulli numbers, Gauss-Kronrod
nodes) are built once at import time and never mutated, and ``riemann_zeta``
memoises its values in a bounded ``functools.lru_cache``.  Nothing here knows
about primes or divisors: integer arithmetic, and every L-value with Euler
factors removed, lives in ``arith``, which imports this module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import loggamma as _scipy_loggamma
from scipy.special import psi as _scipy_psi


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
    """Tolerances and the subdivision limit for the adaptive quadratures, and
    their acceptance rule (QUADPACK's, Piessens et al. 1983): an error passes
    when it is at most ``tolerance(value)``; one that is not a number fails."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not self.abs_tol >= 0:
            raise ValueError("abs_tol must be nonnegative")
        if not self.max_subdivisions >= 1:
            raise ValueError("max_subdivisions must be a positive integer")

    def tolerance(self, value) -> float:
        """max(abs_tol, rel_tol |value|), the largest error accepted for ``value``."""
        return max(self.abs_tol, self.rel_tol * abs(value))


# Bernoulli numbers B_2, B_4, ..., B_24 as exact (numerator, denominator)
# pairs (B_0 and odd indices dropped)
_B2N_EXACT = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)
# B_2j / (2j)! for j = 1..12 as Python floats (int / int is correctly
# rounded), so that the Euler-Maclaurin tail of a scalar zeta runs on Python
# complex arithmetic throughout
_B2N_OVER_FACT = tuple(n / (d * math.factorial(2 * j)) for j, (n, d) in enumerate(_B2N_EXACT, 1))

# Stieltjes constants gamma_0..gamma_11 (mpmath.stieltjes, rounded to double)
_STIELTJES = (
    0.5772156649015329,
    -0.07281584548367673,
    -0.00969036319287232,
    0.002053834420303346,
    0.0023253700654673,
    0.0007933238173010627,
    -0.0002387693454301996,
    -0.000527289567057751,
    -0.0003521233538030395,
    -3.439477441808805e-05,
    0.0002053328149090648,
    0.0002701844395439035,
)

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# log-gamma, gamma, digamma


def _near_nonpositive_integer(z):
    zr = np.real(z)
    zi = np.imag(z)
    return (zr < 0.5) & (np.abs(zi) < 1e-12) & (np.abs(zr - np.round(zr)) < 1e-12)


def _mirrored(fn):
    """fn taken on Im z >= 0 and carried to Im z < 0 by fn(z) = conj(fn(conj z))."""

    @wraps(fn)
    def mirrored(z):
        z = np.asarray(z, dtype=complex)
        upper = z.imag >= 0.0
        val = fn(np.where(upper, z, np.conj(z)))
        return np.where(upper, val, np.conj(val))

    return mirrored


@_mirrored
def _log_sin_pi(z):
    """log(sin(pi z)), continuous in each open half plane, principal on (0,1)."""
    # sin(pi z) = exp(-i pi z) (1 - exp(2 i pi z)) * i/2 for Im z >= 0
    return (
        -1j * math.pi * z
        + np.log(1.0 - np.exp(2j * math.pi * z))
        + (1j * math.pi / 2.0 - math.log(2.0))
    )


@_mirrored
def _cot_pi(z):
    """cot(pi z), overflow-safe for large |Im z|."""
    u = np.exp(2j * math.pi * z)  # |u| <= 1
    return -1j * (1.0 + u) / (1.0 - u)


def log_gamma(z):
    """Principal-branch log Gamma(z), continuous along vertical lines in Re z > 0.

    ``scipy.special.loggamma`` (branch cut on the negative real axis), with a
    :class:`PoleError` at the non-positive integers.  Returns a ``complex``
    for a scalar and an array for an array.
    """
    z_arr = np.asarray(z, dtype=complex)
    if np.any(_near_nonpositive_integer(z_arr)):
        raise PoleError("log_gamma pole at non-positive integer argument")
    out = _scipy_loggamma(z_arr)
    return complex(out) if z_arr.ndim == 0 else out


def complex_gamma(z):
    """Gamma(z) via exp(log_gamma); underflows gracefully for large |Im z|."""
    return np.exp(log_gamma(z))


def digamma_family(z):
    """psi(z) for complex z (vectorised).

    ``scipy.special.psi`` with a :class:`PoleError` at the non-positive
    integers.  Returns a ``complex`` for a scalar and an array for an array.
    """
    z_arr = np.asarray(z, dtype=complex)
    if np.any(_near_nonpositive_integer(z_arr)):
        raise PoleError("digamma pole at non-positive integer argument")
    out = _scipy_psi(z_arr)
    return complex(out) if z_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# complex powers, zeta and Dirichlet L


def _pp(b: float, z) -> complex:
    """b**z for any positive real base b and complex z: the package's one
    scalar complex power, exp(z log b)."""
    return complex(np.exp(complex(z) * math.log(b)))


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
    big_s = _pp(big, -s)
    val = head + big * big_s / (s - 1.0) + 0.5 * big_s
    poch = s  # (s)_{2j-1} for j = 1
    binv = big_s / big  # big^{-s-2j+1} for j = 1
    for j, b in enumerate(_B2N_OVER_FACT, 1):
        val += b * poch * binv
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        binv /= big * big
    return val


def zeta_laurent(x, order: int = 0) -> complex:
    """zeta^(m)(1 + x) from the Stieltjes expansion, reliable for |x| <= 0.2.

    zeta(1+x) = 1/x + sum_n (-1)^n gamma_n x^n / n!.
    """
    x = complex(x)
    if abs(x) < 1e-14:
        raise PoleError("zeta pole at s = 1")
    g = _STIELTJES
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

    Values are memoised by ``_riemann_zeta``, 1024 of them, keyed on s as a
    Python complex: a main-term point asks for zeta(2s), zeta(1 -+ 2it) and
    zeta(2s + 1 -+ 2it) on both of its routes.  The +0.0 and -0.0 imaginary
    parts of a real s share one entry; their values have the same bits.
    """
    return _riemann_zeta(complex(s))


@lru_cache(maxsize=1024)
def _riemann_zeta(s: complex) -> complex:
    """zeta(s) (see riemann_zeta); ``zeta_laurent`` raises at the pole."""
    if abs(s - 1.0) < 0.2:
        return zeta_laurent(s - 1.0, 0)
    if s.real < 0.0:
        return complex(np.exp(_log_zeta_chi(s))) * riemann_zeta(1.0 - s)
    return hurwitz_zeta(s, 1.0)


def _log_zeta_chi(s: complex) -> complex:
    """log chi(s) in zeta(s) = chi(s) zeta(1 - s), chi(s) = 2^s pi^(s-1)
    sin(pi s/2) Gamma(1-s); formed in log space so the sine growth cancels
    against the gamma decay."""
    return (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + complex(_log_sin_pi(s / 2.0))
        + log_gamma(1.0 - s)
    )


def central_difference(f: Callable, x):
    """f'(x) by the fourth-order 4-point central stencil of step 1e-3."""
    h = 1e-3
    vals = [f(x + k * h) for k in (-2, -1, 1, 2)]
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)


def zeta_derivative(s):
    """zeta'(s): the Stieltjes expansion near s = 1, else a central difference."""
    s = complex(s)
    if abs(s - 1.0) < 0.2:
        return zeta_laurent(s - 1.0, 1)
    return central_difference(riemann_zeta, s)


def log_zeta_derivative(s):
    """zeta'/zeta(s)."""
    return zeta_derivative(s) / riemann_zeta(s)


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
    at_one = abs(s - 1.0) < 1e-12
    if at_one and chi.is_trivial:
        raise PoleError("L(s, chi_0) pole at s = 1")
    acc = 0.0 + 0.0j
    for a in range(1, q + 1):
        v = chi.values[a % q]
        if v != 0:
            acc += v * (digamma_family(a / q) if at_one else hurwitz_zeta(s, a / q))
    return -acc / q if at_one else _pp(q, -s) * acc


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


def _panels(edges):
    """The GK15 nodes of the panels between consecutive ``edges``, one row
    per panel, and each panel's half width."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * _NODES, half


def _gk15(f, *edges: float):
    """Gauss-Kronrod 7-15 on each panel between consecutive ``edges``.

    ``f`` is called once, on the nodes of every panel in order.  Returns one
    (I15, |I15 - I7|) per panel.  Non-finite integrand values propagate into
    a non-finite error estimate, which the adaptive driver treats as "not
    converged".
    """
    x, half = _panels(edges)
    y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    with np.errstate(invalid="ignore"):
        # row-wise sums add each panel's terms in the same order as a 1-D sum
        i15 = (half * np.sum(_W15 * y, axis=1)).tolist()
        i7 = (half * np.sum(_W7 * y, axis=1)).tolist()
    # Python's abs: numpy's complex abs can differ from it in the last bit
    return [(a, abs(a - b)) for a, b in zip(i15, i7)]


def gk15_panel_nodes(edges):
    """Composite GK15 nodes and weights on the given panel edges, panel by
    panel: the nodes :func:`_gk15` (and so :func:`integrate_line`) evaluates
    on those edges, for callers that apply the rule with fixed panels."""
    x, half = _panels(edges)
    return x.ravel(), (half[:, None] * _W15).ravel()


# u-panel width the aligned lattice starts from (it halves it until accepted)
_LATTICE_START_WIDTH = 0.25
# table rows, and u-panels, the aligned lattice works on at once: its
# temporaries stay this small, so its memory is the table rows of the
# v-panels in flight at any width
_LATTICE_BLOCK = 64
# the summed bound of the lattice blocks left out, as a share of abs_tol: at
# 1e-3 the first-moment L^- moved by up to 4.7e-10 relative where |L^-| is
# near 3e-6, and 1e-5 costs no measurable time
_LATTICE_SKIP = 1e-5


def _row_scaled(logs):
    """exp(logs) as (rows scaled to modulus <= 1, log row scales): no row
    overflows, and a row of -inf logs is zeros with a -inf scale."""
    scale = np.max(logs.real.reshape(len(logs), -1), axis=1)
    shift = np.where(np.isfinite(scale), scale, 0.0)
    out = logs - shift.reshape((-1,) + (1,) * (logs.ndim - 1))
    return np.exp(out, out=out), scale


def _row_bounds(log_k, base, pair):
    """max Re log_k over each table row base[r] + pair, from two points a
    row: with Re log_k monotone in |x|, the entry nearest 0 and the entry
    farthest from 0 hold it."""
    ps = np.sort(pair.ravel())
    k = np.clip(np.searchsorted(ps, -base), 1, ps.size - 1)
    below, above = base + ps[k - 1], base + ps[k]
    first, last = base + ps[0], base + ps[-1]
    near = np.where(np.abs(below) <= np.abs(above), below, above)
    far = np.where(np.abs(first) >= np.abs(last), first, last)
    with np.errstate(invalid="ignore"):
        return np.max(log_k(np.stack([near, far])).real, axis=0)


def _panel_rows(log_k, base, pair, offset, keep, mirror):
    """Yield, for v-panel q = 0, 1, ..., the table rows that v-panel q reads
    as (tab, slot, scale): row r = p + offset[q] of each kept (p, q) is
    tab[slot[r]] with scale[r], :func:`_row_scaled` of log_k(base[r] + pair).

    A row is built when the first v-panel that reads it comes, and its slot
    is reused once the last one has passed, so tab holds only the rows of
    the panels in flight, at 3,600 bytes a row.  Row ``mirror`` - r holds
    the negated abscissae of row r, so it is the conjugate of row r with
    (i, j) reversed: a read row whose partner below it is read too is filled
    that way, so the partner is built by then and kept until then.  Each row
    is thus evaluated or mirrored as a whole table of the read rows would do
    it, and has that table's bits.
    """
    n_rows, n_v = len(base), len(offset)
    first = np.full(n_rows, n_v)
    last = np.full(n_rows, -1)
    p, q = np.nonzero(keep)
    np.minimum.at(first, p + offset[q], q)
    np.maximum.at(last, p + offset[q], q)
    del p, q
    source = np.arange(n_rows)
    r = np.flatnonzero(last >= 0)
    r = r[(mirror - r >= 0) & (mirror - r < r)]
    r = r[last[mirror - r] >= 0]
    source[r] = mirror - r
    first[mirror - r] = np.minimum(first[mirror - r], first[r])
    last[mirror - r] = np.maximum(last[mirror - r], first[r])
    built = np.flatnonzero(last >= 0)
    born = built[np.argsort(first[built], kind="stable")]  # by first panel, then by row
    dies = built[np.argsort(last[built], kind="stable")]
    born_at = np.searchsorted(first[born], np.arange(n_v + 1))
    dies_at = np.searchsorted(last[dies], np.arange(n_v + 1))
    tab = np.empty((int(np.max(born_at[1:] - dies_at[:-1], initial=0)), 15, 15), dtype=complex)
    free = list(range(len(tab)))
    slot = np.zeros(n_rows, dtype=np.intp)
    scale = np.full(n_rows, -np.inf)
    for q in range(n_v):
        if q:
            free += slot[dies[dies_at[q - 1]:dies_at[q]]].tolist()
        new = born[born_at[q]:born_at[q + 1]]
        slot[new] = [free.pop() for _ in range(new.size)]
        for mirrored in (False, True):
            todo = new[(source[new] != new) == mirrored]
            for b0 in range(0, todo.size, _LATTICE_BLOCK):
                r = todo[b0:b0 + _LATTICE_BLOCK]
                if mirrored:
                    tab[slot[r]] = np.conj(tab[slot[source[r]], ::-1, ::-1])
                    scale[r] = scale[source[r]]
                else:
                    tab[slot[r]], scale[r] = _row_scaled(log_k(base[r][:, None, None] + pair))
        yield tab, slot, scale


def integrate_aligned_lattice(
    log_pref: Callable,
    log_c,
    log_k_minus: Callable,
    log_k_plus: Callable,
    v_edges,
    window: tuple,
    spec: QuadratureSpec,
    pole: tuple | None = None,
) -> ValueWithError:
    """int pref(g) sum_{q,j} c_qj K-(g - y_qj) K+(g + y_qj) dg over ``window``.

    The y_qj are the GK15 nodes of the equal v-panels ``v_edges``, a grid
    centred on 0 (:func:`gk15_panel_nodes` order, which ``log_c`` follows).
    The g-rule is GK15 on u-panels of width H = H_v / m with edges on the
    v-panels' grid, covering ``window``.  On that lattice g - y depends only on
    (p - m q, i, j) and g + y only on (p + m q, i, j) for u-panel p, v-panel
    q and nodes i, j, so K- and K+ are tabulated over those rows, and
    v-panel q contracts a contiguous slice of each table.  ``log_pref``,
    ``log_c``, ``log_k_minus`` and ``log_k_plus`` give logs: every table is
    scaled per row, and only the P_u x P_v matrix of combined row scales is
    exponentiated, so no factor overflows on its own.

    Preconditions on each kernel K = exp(log_k): Re log_k(x) is monotone in
    |x|, and K(-x) = conj K(x) to the bit.  Both hold for +-log Gamma(c + ix)
    with real c (DLMF 5.8.3 writes |Gamma(c + ix) / Gamma(c)|^2 as a product
    of factors (1 + x^2 / (c + n)^2)^-1) and for real Gaussians.

    * **The bound.**  By the first, a table row's scale is Re log_k at its
      entry nearest 0 or farthest from 0, so two evaluations a row bound the
      rows before any table is built.  The block (p, q) then adds at most
      15 H exp(its pref, c, K- and K+ row scales summed) to the value.
    * **The budget.**  The blocks with the smallest bounds are left out while
      their summed bound stays within 1e-5 abs_tol, and that sum is added to
      the error.  Only the table rows the kept blocks read are built, each
      when the first v-panel that reads it comes, and a row's memory is
      reused once the last one has passed (:func:`_panel_rows`).  (The
      bounds can be loose by many orders, so the cut is absolute, never
      relative to the largest bound.)
    * **The mirror.**  By the second, where table row R - r holds the negated
      abscissae of row r (in both tables, since the v-grid is centred on 0),
      it is the conjugate of row r with (i, j) reversed; a needed row whose
      partner below it is needed too is filled that way, and any other is
      evaluated, so one code path serves every window.  A v-grid off the
      centre has no such partners, and is refused with :class:`DomainError`.

    ``pole = (a, r)`` subtracts sum_qj r_qj / (a + i(g - y_qj)) from the
    integrand and adds its integral over the lattice window back in closed
    form.

    m starts at ceil(H_v / 0.25) and doubles until the u-panels' summed
    |I15 - I7| plus the budget used is within ``spec.tolerance(I)``.
    Raises :class:`NonConvergenceError` once the u-panel count would pass
    ``spec.max_subdivisions``.  A doubling that does not halve that sum has
    met the integrand's roundoff floor, which finer lattices sit on too.  The
    integral then goes to :func:`integrate_line` on the same integrand at the
    same ``spec``: its adaptive loop splits only the worst panels, and can
    end below a floor that a uniform rule stays on.  Any pole's closed form
    is spread evenly over ``window`` there, so that rel_tol stays relative to
    the whole value.
    """
    v_edges = np.asarray(v_edges, dtype=float)
    n_v = len(v_edges) - 1
    e0 = float(v_edges[0])
    if e0 != -float(v_edges[-1]):
        raise DomainError("integrate_aligned_lattice needs a v-grid centred on 0")
    h_v = (float(v_edges[-1]) - e0) / n_v
    # positions are kept as h * (a multiple of 1/2) + node offsets, so
    # mirror nodes are exact negatives
    lo, hi = window
    log_c = np.asarray(log_c).ravel()
    c_t, c_scale = _row_scaled(log_c.reshape(n_v, 15))
    if pole is not None:
        a, r = pole
        r = np.asarray(r, dtype=complex).reshape(n_v, 15)
    y = gk15_panel_nodes(v_edges)[0]

    def closed_form(g_lo, g_hi):
        if pole is None:
            return 0.0
        # Im(g - y - ia) = -a on the whole window: no branch cut crossed
        return complex(np.sum(r.ravel() * -1j * (
            np.log(g_hi - y - 1j * a) - np.log(g_lo - y - 1j * a)
        )))

    density = closed_form(lo, hi) / (hi - lo)

    def integrand(g):
        """The integrand at any abscissae g, for integrate_line."""
        with np.errstate(invalid="ignore"):
            logs = (np.asarray(log_pref(g))[:, None] + log_c
                    + log_k_minus(np.subtract.outer(g, y)) + log_k_plus(np.add.outer(g, y)))
        tab, scale = _row_scaled(np.where(np.isnan(logs), -np.inf, logs))
        out = np.exp(scale) * tab.sum(axis=1)
        if pole is not None:
            out = out - (1.0 / (a + 1j * np.subtract.outer(g, y))) @ r.ravel() + density
        return out

    m = max(1, math.ceil(h_v / _LATTICE_START_WIDTH - 1e-9))
    val = err = None
    while True:
        h = h_v / m
        p_lo = math.floor((lo - e0) / h + 1e-9)
        p_hi = math.ceil((hi - e0) / h - 1e-9)
        n_u = p_hi - p_lo
        if n_u > spec.max_subdivisions:
            raise NonConvergenceError(
                "integrate_aligned_lattice exceeded max_subdivisions u-panels", val, err
            )
        k_lo = p_lo - 0.5 * m * n_v  # the first u-panel's left edge is h k_lo
        gam = h * ((np.arange(n_u) + k_lo + 0.5)[:, None] + 0.5 * _NODES)
        pref_t, pref_scale = _row_scaled(np.asarray(log_pref(gam.ravel())).reshape(n_u, 15))
        del gam
        # with p, q counted from the first v-edge, g - y sits on row
        # d - d_min for d = p - m q and g + y on row e - p_lo for e = p + m q;
        # row r's abscissae are base[r] + pair[i, j] for the node pair (i, j).
        # Both offsets are multiples of 1/2, so row R - r, R = -2 off, holds
        # exactly the negated abscissae of row r
        n_rows = n_u + m * (n_v - 1)
        pair_minus = 0.5 * h * np.subtract.outer(_NODES, m * _NODES)
        pair_plus = 0.5 * h * np.add.outer(_NODES, m * _NODES)
        off_minus = p_lo - m * (n_v - 1) + 0.5 * (1 - m)
        off_plus = k_lo + 0.5 * (1 - m * (n_v - 1))
        base_minus = (np.arange(n_rows) + off_minus) * h
        base_plus = (np.arange(n_rows) + off_plus) * h
        # v-panel q reads rows p + m (n_v - 1 - q) of K- and p + m q of K+
        offset_minus = m * (n_v - 1 - np.arange(n_v))
        offset_plus = m * np.arange(n_v)
        with np.errstate(invalid="ignore", over="ignore"):
            log_bound = (pref_scale[:, None] + c_scale[None, :]
                         + _row_bounds(log_k_minus, base_minus, pair_minus)[np.arange(n_u)[:, None] + offset_minus]
                         + _row_bounds(log_k_plus, base_plus, pair_plus)[np.arange(n_u)[:, None] + offset_plus])
            bound = 15.0 * h * np.exp(np.where(np.isnan(log_bound), -np.inf, log_bound))
        order = np.argsort(bound, axis=None)
        spent = np.cumsum(bound.ravel()[order])
        n_skip = int(np.searchsorted(spent, _LATTICE_SKIP * spec.abs_tol, side="right"))
        skipped = float(spent[n_skip - 1]) if n_skip else 0.0
        keep = np.ones(bound.shape, dtype=bool)
        keep.ravel()[order[:n_skip]] = False
        del log_bound, bound, order, spent
        k_minus = _panel_rows(log_k_minus, base_minus, pair_minus, offset_minus, keep, round(-2.0 * off_minus))
        k_plus = _panel_rows(log_k_plus, base_plus, pair_plus, offset_plus, keep, round(-2.0 * off_plus))
        # every sum below runs over q in ascending order
        f = np.zeros((n_u, 15), dtype=complex)
        for q, (km_t, km_slot, km_scale), (kp_t, kp_slot, kp_scale) in zip(range(n_v), k_minus, k_plus):
            dq, eq = offset_minus[q], offset_plus[q]
            kept = np.flatnonzero(keep[:, q])
            with np.errstate(invalid="ignore"):
                scales = pref_scale[kept] + c_scale[q] + km_scale[kept + dq] + kp_scale[kept + eq]
            scales = np.exp(np.where(np.isnan(scales), -np.inf, scales))  # -inf + inf: a zero row
            for b0 in range(0, kept.size, _LATTICE_BLOCK):
                p = kept[b0:b0 + _LATTICE_BLOCK]
                w = km_t[km_slot[p + dq]]
                w *= kp_t[kp_slot[p + eq]]
                f[p] += scales[b0:b0 + _LATTICE_BLOCK, None] * (w.reshape(-1, 15) @ c_t[q]).reshape(-1, 15)
            w = None  # gone before the next v-panel's rows are built
        k_minus = k_plus = km_t = kp_t = None  # the tables go before the pole rows come
        f *= pref_t
        if pole is not None:
            # the pole rows are made a block at a time from the top down, so
            # each u-panel still meets its v-panels in ascending order
            sub = np.zeros((n_u, 15), dtype=complex)
            for r1 in range(n_rows, 0, -_LATTICE_BLOCK):
                r0 = max(0, r1 - _LATTICE_BLOCK)
                poles = 1.0 / (a + 1j * (base_minus[r0:r1, None, None] + pair_minus))
                for q in range(n_v):
                    dq = m * (n_v - 1 - q)
                    s0, s1 = max(0, r0 - dq), min(n_u, r1 - dq)
                    if s0 < s1:
                        sub[s0:s1] += poles[s0 + dq - r0:s1 + dq - r0] @ r[q]
            f -= sub
            poles = sub = None
        closed = closed_form(h * k_lo, h * (k_lo + n_u))
        last_err = err
        with np.errstate(invalid="ignore"):
            val = complex(0.5 * h * np.sum(f @ _W15)) + closed
            err = float(0.5 * h * np.sum(np.abs(f @ (_W15 - _W7)))) + skipped
        if err <= spec.tolerance(val):
            return ValueWithError(val, err)
        if last_err is not None and err > 0.5 * last_err:
            return integrate_line(integrand, spec, interval=window)
        m *= 2


def _split_key(err: float, a: float, seq: int):
    """Heap key: the worst error first (an error that is not a number counts
    as the worst), then the smaller left end, then the older panel."""
    return (-err if err == err else -math.inf, a, seq)


def integrate_line(f: Callable, spec: QuadratureSpec, interval: Sequence[float]) -> ValueWithError:
    """Adaptive complex quadrature of ``f`` over a line segment.

    ``f`` must accept a numpy array of real abscissae and return complex
    values.  ``interval`` is a strictly increasing sequence of two or more
    edges; each pair of consecutive edges is a starting panel, and all of
    them come from one call of ``f``.  A single starting panel can miss
    features narrower than its node spacing, so a caller that knows the
    integrand's scale should pass edges that resolve it.  A caller that
    truncates an infinite line chooses the edges and owns the tails.
    Subdivision is worst-interval-first with a deterministic tie-break, from
    a heap; both halves of a split panel come from one call of ``f``.

    The value and error are running totals between steps.  The convergence
    test runs on exact re-sums over the panels in creation order, made
    whenever the running error (with a bound on its rounding) is within
    twice the tolerance or a running total is not finite, and always on the
    starting panels and after the last split.  The heap is built at the
    first split.

    Raises :class:`NonConvergenceError` when ``max_subdivisions`` splits do
    not bring the error within ``spec.tolerance(value)``.
    """
    edges = tuple(map(float, interval))
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("interval must be two or more strictly increasing edges")

    # live panels by creation number: the starting panels are 0..n0-1
    start = _gk15(f, *edges)
    panels = {i: (a, b, val, err) for i, (a, b, (val, err)) in enumerate(zip(edges, edges[1:], start))}
    n0 = len(panels)
    # running totals that are not numbers send the starting panels to the test
    total = total_err = math.nan
    slack = 0.0
    for step in range(spec.max_subdivisions + 1):
        last = step == spec.max_subdivisions
        if (last or not (math.isfinite(total_err) and np.isfinite(total))
                or total_err <= 2.0 * spec.tolerance(total) + slack):
            total = sum(p[2] for p in panels.values())
            total_err = sum(p[3] for p in panels.values())
            slack = 0.0
            if total_err <= spec.tolerance(total):
                return ValueWithError(total, total_err)
        if last:
            raise NonConvergenceError("integrate_line exhausted max_subdivisions", total, total_err)
        if step == 0:
            heap = [_split_key(err, a, i) for i, (a, _b, _val, err) in panels.items()]
            heapq.heapify(heap)
        i = heapq.heappop(heap)[2]
        pa, pb, pval, perr = panels.pop(i)
        pm = 0.5 * (pa + pb)
        (v1, e1), (v2, e2) = _gk15(f, pa, pm, pb)
        n1, n2 = n0 + 2 * step, n0 + 2 * step + 1
        panels[n1] = (pa, pm, v1, e1)
        panels[n2] = (pm, pb, v2, e2)
        heapq.heappush(heap, _split_key(e1, pa, n1))
        heapq.heappush(heap, _split_key(e2, pm, n2))
        total += v1 + v2 - pval
        # three roundings, each at most eps/2 of a partial sum below this bound
        slack += 2.0 * _EPS * (total_err + e1 + e2 + perr)
        total_err += e1 + e2 - perr


def extrapolate_to_zero(steps: Sequence[float], values: Sequence[complex]) -> complex:
    """Neville polynomial extrapolation of values(h) to h -> 0."""
    h = list(map(float, steps))
    v = list(map(complex, values))
    n = len(v)
    for level in range(1, n):
        for i in range(n - level):
            v[i] = v[i + 1] + (v[i + 1] - v[i]) * h[i + level] / (h[i] - h[i + level])
    return v[0]
