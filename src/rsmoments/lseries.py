"""Newform data, L-functions, and the factored twisted Dirichlet series.

Data types
----------
* :class:`NewformData` -- level, even weight k >= 4, integer (or synthetic
  real) Fourier coefficients a(n), with A(n) = a(n) n^{-(k-1)/2} on demand.
  A built-in generator produces the discriminant form of level 1 and weight
  12 from exact eta-power arithmetic.
* :class:`MaassFormData` -- spectral parameter, Hecke eigenvalues, lift
  coefficients of an oldform living above an inner level L | N, generated
  by ``synthetic_maass_form``.

Evaluators
----------
* ``_depleted_series`` -- the one truncated series
      zeta^(N)(2s) sum_{m <= M} c(m) m^{-s}
  with the divisor-bound tail certificate
  |zeta^(N)(2s)| scale sum_{n > M} d(n)^2 n^{-Re s} (``rankin_selberg_tail``,
  Nicolas-Robin, in ``_depleted_sum``), behind the Rankin-Selberg and direct
  Maass-twisted series; the direct Eisenstein-twisted series sums its terms
  in blocks and takes the same certificate from ``_depleted_sum``.
* ``rankin_selberg_L`` -- the infinity-class truncated Dirichlet series
  (direct region Re s > 1).  The main term
  takes L(w, f x g~) on and left of Re w = 1, so it does not use it: its
  two sources are a caller's provider and, for f = g at level 1,
  ``selfdual_rs_L`` = zeta(w) L(w, sym^2 f).
* ``_smoothed_afe`` -- the one smoothed approximate functional equation.
  An L-function is its Gamma_R shifts lambda_j (gamma factor
  prod_j Gamma_R(s + lambda_j), Gamma_R(s) = pi^{-s/2} G(s/2)), root number,
  coefficients, contour (c, h) and the box of s where its values are
  certified; ``_afe_batch`` holds s to the box, to a scalar or a 1-D
  array and the form to level 1.  The engine derives log gamma (each pair
  lambda, lambda + 1 folded into one log G), the x scale
  (2 pi)^{pairs} pi^{singles/2}, the degree (the number of shifts), the
  contour's growth and the sum length.  Its first sums carry the weights
      W(u, x) = 1/(2 pi i) int exp(logG(u+w) - logG(u)) x^{-w} e^{w^2/(2c^2)} dw/w
  on Re w = sigma0 past max(Re s, 1 - Re s), once per distinct u of S and
  1 - S, each by the trapezoid on one absolute lattice of nodes u + w =
  Re u + sigma0 + ihm: one log G table and one Dirichlet sum per distinct
  Re u, and a row-wise numpy sum per u.  The sums read (Xn)^{-sigma0-ihm}
  from one ``arith.SharedTable`` per (X, h, sigma0), sized to the largest
  request.
* ``holo_L`` -- direct sum for Re s > 1.2, else the AFE on the shifts
  (k-1)/2, (k+1)/2, in the box -7 < Re s < 8.
* ``sym2_L`` -- the AFE on the shifts 1, k - 1, k, in the box
  -3 < Re s < 4, |Im s| < 18.8, at a scalar or a 1-D array of s; powers
  L(s, f x f~) = zeta(s) L(s, sym^2 f) at level 1 and its Laurent constants
  at s = 1.  Its value batches (read-only) and Laurent constants are
  ``functools.lru_cache`` memos of 64 entries, keyed on the form, whose
  equality and hash go by (N, k, digest of a); its coefficients are one
  ``arith.SharedTable`` per form, from a memo of the same kind.
* ``curly_L_eisenstein`` / ``curly_L_maass`` -- both sides of the
  factorisation of the twisted series
      zeta^(N)(2s) sum sigma_{-2it}(m; N) m^{it} conj(coeff(m)) m^{-s},
  direct summation against the factored Euler-product form.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np
from scipy.special import loggamma as _loggamma

from . import arith, eisenstein
from .arith import (
    CuspLabel,
    _pp,
    divisors,
    ord_p,
    prime_divisors,
)
from .specfun import (
    DomainError,
    PoleError,
    ValueWithError,
    riemann_zeta,
    EULER_GAMMA,
    central_difference,
)


class InvariantViolation(ValueError):
    """Input data failed a structural invariant (reports the failing n)."""


class InsufficientCoefficientsError(RuntimeError):
    """More Fourier coefficients are required; reports how many."""

    def __init__(self, needed: int):
        super().__init__(f"need Fourier coefficients up to n = {needed}")
        self.needed = needed


# ---------------------------------------------------------------------------
# data types and loaders


@dataclass(frozen=True)
class NewformData:
    """A holomorphic newform: level N, even weight k >= 4, coefficients a(1..M).

    Frozen, since ``delta_newform`` hands every caller the same instance.
    ``a`` is a private read-only copy of the input, and ``digest`` a SHA-256
    of its bytes.  Equality and the hash go by (N, k, digest), so the
    ``lru_cache`` memos of the data derived from a form key on the form
    itself, and forms that differ in any coefficient never share an entry.
    """

    N: int
    k: int
    a: np.ndarray = field(compare=False)  # float64, index n-1
    a_exact: tuple | None = field(default=None, compare=False)  # exact integers when available
    label: str = field(default="", compare=False)
    digest: str = field(init=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        if self.N < 1:
            raise InvariantViolation("level must be an integer >= 1")
        if self.k < 4 or self.k % 2:
            raise InvariantViolation("weight must be an even integer >= 4")
        if self.a.size < 1 or abs(self.a[0] - 1.0) > 1e-12:
            raise InvariantViolation("newform normalisation a(1) = 1 violated at n=1")
        n = np.arange(1, self.a.size + 1, dtype=float)
        bound = arith.divisor_bound_table(self.a.size) * n ** ((self.k - 1) / 2.0)
        bad = np.nonzero(np.abs(self.a) > bound * (1.0 + 1e-9))[0]
        if bad.size:
            raise InvariantViolation(f"coefficient bound violated at n={bad[0] + 1}")
        object.__setattr__(self, "digest", hashlib.sha256(a.tobytes()).hexdigest())

    @property
    def M(self) -> int:
        return self.a.size

    def A(self, m_max: int | None = None) -> np.ndarray:
        """Normalised A(n) = a(n) n^{-(k-1)/2} for n = 1..m_max."""
        m_max = self.M if m_max is None else m_max
        if m_max > self.M:
            raise InsufficientCoefficientsError(m_max)
        n = np.arange(1, m_max + 1, dtype=float)
        return self.a[:m_max] * n ** (-(self.k - 1) / 2.0)


@dataclass
class MaassFormData:
    """A Maass form of level N lifted from a newform of inner level L | N.

    ``lam`` is a private read-only copy of the input.
    """

    N: int
    L: int
    r: float
    lam: np.ndarray  # Hecke eigenvalues lambda(1..M) of the inner newform
    rho1: float
    lifts: dict  # d | N/L -> c_L(r; d)

    def __post_init__(self):
        self.lam = np.array(self.lam, dtype=float)
        self.lam.flags.writeable = False
        if self.N % self.L:
            raise InvariantViolation("inner level must divide the level")
        if abs(self.lam[0] - 1.0) > 1e-12:
            raise InvariantViolation("lambda(1) = 1 violated at n=1")
        for d in divisors(self.N // self.L):
            if d not in self.lifts:
                raise InvariantViolation(f"missing lift coefficient for d={d}")

    @property
    def M(self) -> int:
        return self.lam.size

    @property
    def scale(self) -> float:
        """|rho1| (1 + sum_d |c_d| sqrt d): |rho(m)| is at most this times
        the largest |lambda(m/d)|."""
        return abs(self.rho1) * (1.0 + sum(abs(c) * math.sqrt(d) for d, c in self.lifts.items()))

    def rho(self, m_max: int) -> np.ndarray:
        """Fourier coefficients rho(1..m_max) of the lifted form."""
        if m_max > self.M:
            raise InsufficientCoefficientsError(m_max)
        out = np.zeros(m_max)
        for d, c in sorted(self.lifts.items()):
            out[d - 1 :: d] += c * math.sqrt(d) * self.rho1 * self.lam[: m_max // d]
        return out


def _integer_fields(line: str, count: int, what: str) -> list:
    """The ``count`` integer fields of ``line``; anything else is an
    invariant violation."""
    try:
        values = [int(v) for v in line.split()]
    except ValueError:
        values = []
    if len(values) != count:
        raise InvariantViolation(f"{what} must be {count} integers, got {line.strip()!r}")
    return values


def _indexed_lines(fh, M: int) -> list:
    """The value of each ``n a(n)`` line left in ``fh``, in index order.
    Each n in 1..M must appear exactly once; nothing is sized by M before
    the lines are read."""
    rows = {}
    for line in fh:
        if not line.strip():
            continue
        n, value = _integer_fields(line, 2, "a coefficient line 'n a(n)'")
        if not 1 <= n <= M:
            raise InvariantViolation(f"coefficient index {n} out of range 1..{M}")
        if n in rows:
            raise InvariantViolation(f"coefficient index {n} repeated")
        rows[n] = value
    if len(rows) != M:
        raise InvariantViolation(f"expected {M} coefficient lines, got {len(rows)}")
    return [rows[n] for n in range(1, M + 1)]


def load_newform(path) -> NewformData:
    """Read the text format: line 1 ``N k M``, then M lines ``n a(n)``, all
    integers; a malformed line raises :class:`InvariantViolation`."""
    with open(path) as fh:
        N, k, M = _integer_fields(fh.readline(), 3, "the header 'N k M'")
        if M < 1:  # a form has a(1) = 1 at least
            raise InvariantViolation(f"the header's coefficient count M must be >= 1, got {M}")
        exact = _indexed_lines(fh, M)
    return NewformData(N=N, k=k, a=np.array([float(v) for v in exact]), a_exact=tuple(exact))


# ---------------------------------------------------------------------------
# built-in generators


DELTA_HORIZON = 200_000  # delta_newform's largest m_max, set by its lift's margin


def _lift_mod_2_64(residue: np.ndarray, estimate: np.ndarray) -> tuple:
    """Integers from their uint64 residues mod 2^64 and float64 estimates:
    r + 2^64 round((estimate - r) / 2^64) with r the signed residue.  Exact
    while each estimate is within 2^63; a residual of 2^60 or more raises."""
    r = residue.view(np.int64)
    wraps = np.rint((estimate - r) / 2.0**64)
    if not np.all(np.abs(estimate - r - wraps * 2.0**64) < 2.0**60):
        raise InvariantViolation("an estimate is 2^60 or more from its residue mod 2^64")
    return tuple(x + (w << 64) for x, w in zip(r.tolist(), wraps.astype(np.int64).tolist()))


@lru_cache(maxsize=8)
def delta_newform(m_max: int = 20000) -> NewformData:
    """The level-1 weight-12 discriminant form, a(n) from q prod (1-q^n)^24.

    prod (1 - x^n)^24 is the 8th power of Jacobi's lacunary series
    eta^3 = sum_j (-1)^j (2j+1) x^{j(j+1)/2}.  eta^6 is summed exactly over
    pairs of its terms; six sparse products, one shifted multiply-add per
    term of eta^3, give tau(n) mod 2^64 in one wrapping uint64 row; two
    truncated FFT squarings of eta^6 estimate eta^24 in float64, and
    ``_lift_mod_2_64`` lifts each residue.  The estimate's FFT rounding (C.
    Percival, Math. Comp. 72, 2003, bounds it) was measured at 2^33.9 at most
    for m_max = 20,000 and 2^52.4 at DELTA_HORIZON = 200,000, under the lift's
    2^60 guard; a larger m_max raises DomainError before any allocation.
    """
    if not 1 <= m_max <= DELTA_HORIZON:
        raise DomainError(f"delta_newform needs 1 <= m_max <= {DELTA_HORIZON}")
    j = np.arange(math.isqrt(2 * m_max) + 1)
    j = j[j * (j + 1) // 2 < m_max]
    shifts, eta3 = j * (j + 1) // 2, (1 - 2 * (j % 2)) * (2 * j + 1)
    # eta^6 by pairs of terms; the float sums are exact, |coefficients| < 2^53
    eta6 = np.bincount(np.add.outer(shifts, shifts).ravel(), np.outer(eta3, eta3).ravel(),
                       m_max)[:m_max]
    power, coef = eta6.astype(np.int64).view(np.uint64), eta3.astype(np.uint64)
    for _ in range(6):
        acc = np.zeros_like(power)
        for e, c in zip(shifts.tolist(), coef):
            acc[e:] += c * power[: m_max - e]
        power = acc
    # the least 2^b, 3 2^b or 5 2^b >= 2 m_max - 1, where numpy's FFT is fastest
    n = min(c << int(-(-(2 * m_max - 1) // c) - 1).bit_length() for c in (1, 3, 5))
    estimate = eta6
    for _ in range(2):
        estimate = np.fft.irfft(np.fft.rfft(estimate, n) ** 2, n)[:m_max]
    exact = _lift_mod_2_64(power, estimate)
    return NewformData(N=1, k=12, a=np.array(exact, dtype=float), a_exact=exact, label="delta")


def divisor_model_newform(nu: float, k: int, N: int, m_max: int) -> NewformData:
    """Synthetic Hecke-consistent data A(n) = sum_{ad=n} (a/d)^{i nu} (real),
    formed as Re n^{-i nu} sum_{d|n} d^{2 i nu} by ``arith.divisor_sum_array``.

    Satisfies a(1) = 1, |A(n)| <= d(n) and full multiplicativity, and all its
    Rankin-Selberg convolutions against another such form reduce to products
    of zeta values, which makes it the natural test vehicle for the
    assembly identities at composite level.
    """
    logs = arith.log_table(m_max)
    lam = np.real(np.exp(-1j * nu * logs) * arith.divisor_sum_array(np.exp(2j * nu * logs)))
    n = np.arange(1, m_max + 1, dtype=float)
    a = lam * n ** ((k - 1) / 2.0)
    return NewformData(N=N, k=k, a=a, label=f"divisor-model nu={nu}")


def divisor_model_rs_L(w, nu: float, mu: float, N: int) -> complex:
    """Closed form of the Rankin-Selberg series for two divisor models:

    zeta^(N)(2w) sum lam_nu lam_mu n^{-w}
      = [zeta^(N)(2w)/zeta(2w)] * prod zeta(w +- i nu +- i mu).
    """
    w = complex(w)
    out = (
        riemann_zeta(w + 1j * (nu + mu))
        * riemann_zeta(w + 1j * (nu - mu))
        * riemann_zeta(w - 1j * (nu - mu))
        * riemann_zeta(w - 1j * (nu + mu))
    )
    for p in prime_divisors(N):
        out *= 1.0 - _pp(p, -2.0 * w)
    return complex(out)


def synthetic_maass_form(
    N: int, L: int, r: float, m_max: int, seed: int = 1
) -> MaassFormData:
    """Hecke-consistent synthetic Maass data from deterministic Satake angles."""
    rng = np.random.default_rng(seed)
    hecke = []  # lambda(p^e), e = 0, 1, ..., at the current p

    def local(p, e):
        if e == 1:
            theta = 2.0 * math.pi * rng.random()
            if L % p == 0:
                hecke[:] = [1.0, (1.0 if rng.random() < 0.5 else -1.0) / math.sqrt(p)]
            else:
                hecke[:] = [1.0, 2.0 * math.cos(theta)]
        elif L % p == 0:
            hecke.append(hecke[1] ** e)
        else:
            hecke.append(hecke[1] * hecke[-1] - hecke[-2])
        return hecke[-1]

    vals = arith.multiplicative_array(local, m_max)
    lifts = {d: (0.83 if d == 1 else -0.41 / math.sqrt(d)) for d in divisors(N // L)}
    return MaassFormData(
        N=N, L=L, r=r, lam=vals[1:], rho1=1.37, lifts=lifts
    )


# ---------------------------------------------------------------------------
# Rankin-Selberg convolutions (direct region)


def rankin_selberg_tail(sigma: float, m_from: int) -> float:
    """Bound on sum_{n > m_from} d(n)^2 n^{-sigma}: its terms up to n = 8
    exactly, and past max(m_from, 8) the integral of the Nicolas-Robin
    bound d(n)^2 <= n^eps, with eps taken where it is largest."""
    head = sum(len(divisors(n)) ** 2 * n ** -sigma for n in range(max(m_from, 0) + 1, 9))
    m_from = max(m_from, 8)
    eps = 2.0 * arith._NICOLAS_ROBIN / math.log(math.log(m_from))
    if sigma - eps <= 1.0:
        return math.inf
    return head + m_from ** (1.0 + eps - sigma) / (sigma - eps - 1.0)


def _depleted_series(coeffs, s: complex, N: int, scale: float) -> ValueWithError:
    """zeta^(N)(2s) sum_{m <= M} c(m) m^{-s} for c = ``coeffs`` of length M,
    the terms summed as c(m) exp(-s log m), with ``_depleted_sum``'s error."""
    series = complex(np.sum(coeffs * np.exp(-s * arith.log_table(coeffs.size))))
    return _depleted_sum(series, s, N, scale, coeffs.size)


def _depleted_sum(series: complex, s: complex, N: int, scale: float, M: int) -> ValueWithError:
    """zeta^(N)(2s) times ``series``, the sum of c(m) m^{-s} over m <= M, with the
    error |zeta^(N)(2s)| scale rankin_selberg_tail(Re s, M) for |c(m)| <= scale d(m)^2."""
    zN = arith.zeta_depleted(2.0 * s, N)
    return ValueWithError(complex(zN * series), abs(zN) * scale * rankin_selberg_tail(s.real, M))


def rankin_selberg_L(s, f: NewformData, g: NewformData, m_max: int | None = None) -> ValueWithError:
    """L(s, f x g~) = zeta^(N)(2s) sum a(n) conj(b(n)) n^{-k+1-s} at the
    infinity class, truncated.  The reported error is a divisor-bound tail
    certificate.
    """
    s = complex(s)
    if f.N != g.N or f.k != g.k:
        raise InvariantViolation("f and g must share level and weight")
    if s.real <= 1.0:
        raise DomainError("rankin_selberg_L direct summation needs Re s > 1")
    m_cap = min(f.M, g.M)
    if m_max is not None:
        if m_max > m_cap:
            raise InsufficientCoefficientsError(m_max)
        m_cap = m_max
    return _depleted_series(f.A(m_cap) * np.conj(g.A(m_cap)), s, f.N, 1.0)


# ---------------------------------------------------------------------------
# smoothed approximate functional equations


# an L-function of conductor 1 for _smoothed_afe: gamma factor
# prod_j Gamma_R(s + shifts[j]), Gamma_R(s) = pi^{-s/2} G(s/2); root number;
# coefficients c(1..length) as a function of length; contour (c, h); box
# (lo, hi, height), where lo < Re s < hi and |Im s| < height, of its values
_LData = namedtuple("_LData", "shifts root coeffs contour box")


def _log_gamma(shifts):
    """(log g, x scale X) of g = prod_j Gamma_R(s + shifts[j]).

    Gamma_R(z) Gamma_R(z + 1) = 2 (2 pi)^{-z} G(z) folds each pair of shifts
    lambda, lambda + 1 into one log G((u + lambda) + w); each shift left
    gives log G(((u + lambda) + w)/2).  log g(u, w) is log g(u + w) without
    a constant and the linear part, which X = (2 pi)^{pairs} pi^{rest/2}
    carries.
    """
    rest, pairs = list(shifts), []
    for lam in shifts:
        if lam in rest and lam + 1 in rest:
            rest.remove(lam)
            rest.remove(lam + 1)
            pairs.append(lam)

    def log_gamma(u, w):
        terms = [_loggamma(u + lam + w) for lam in pairs] + [_loggamma((u + lam + w) / 2.0) for lam in rest]
        return sum(terms[1:], terms[0])

    return log_gamma, (2.0 * math.pi) ** len(pairs) * math.pi ** (len(rest) / 2.0)


def _afe_length(u, desc: _LData) -> int:
    """max over u of ceil(prod_j ((|u + lambda_j| + 6)/(2 pi))^{1/2} e^{sqrt(2D)/c}), D = 40.

    Stirling's saddle point: Gamma_R(z + sigma)/Gamma_R(z) ~ (|z|/(2 pi))^{sigma/2},
    so the weight at n is about (Q/n)^sigma e^{sigma^2/(2c^2)} with
    Q = prod_j (|u + lambda_j|/(2 pi))^{1/2}, below e^{-D} at
    sigma = c^2 log(n/Q) from n = Q e^{sqrt(2D)/c} on; + 6 covers small
    |u + lambda|, where Stirling runs low.
    """
    size = np.ones(u.shape)
    for lam in desc.shifts:
        size = size * ((np.abs(u + lam) + 6.0) / (2.0 * math.pi))
    return max(1, math.ceil(math.sqrt(size.max(initial=0.0)) * math.exp(math.sqrt(80.0) / desc.contour[0])))


@lru_cache(maxsize=64)
def _lattice_table(scale: float, h: float, sigma0: float) -> arith.SharedTable:
    """The lattice table E(m, n) = (Xn)^{-sigma0 - ihm} at X = ``scale``, at
    row m and column n - 1 for m = 0, 1, ... and n = 1, 2, ...

    An entry is exp(-(sigma0 + ihm) log(Xn)), log n from ``arith.log_table``,
    so it depends on (m, n) alone and a slice of a grown table has a fresh
    table's bits.
    """

    def build(rows: int, cols: int) -> np.ndarray:
        E = np.multiply.outer(-(sigma0 + 1j * h * np.arange(rows)), math.log(scale) + arith.log_table(cols))
        np.exp(E, out=E)
        return E

    return arith.SharedTable(build)


def _lattice_series(a, scale: float, h: float, sigma0: float, lo: int, hi: int) -> np.ndarray:
    """F(m) = sum_n a(n) (Xn)^{-sigma0 - ihm} at X = ``scale`` for m = lo..hi
    and real a(1..length).

    E(m, n) = (Xn)^{-sigma0-ihm} does not depend on s, so its rows m >= 0
    are read from the shared table of (X, h, sigma0) (``_lattice_table``).
    As a is real, F(-m) = conj F(m), and F(m) is summed for m >= 0 only.
    """
    top = max(-lo, hi)
    bottom = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    E = _lattice_table(scale, h, sigma0).covering(top + 1, a.size)
    f = (E[bottom : top + 1, : a.size] * a).sum(axis=1)
    m = np.arange(lo, hi + 1)
    return np.where(m < 0, np.conj(f[abs(m) - bottom]), f[abs(m) - bottom])


# rows of u that the AFE works on at once: its (rows x slots) temporaries
# stay near 0.5 MB each (at 256 rows a 1,740-row holo_L batch peaked at
# 6.1 MB in tracemalloc, at 128 at 3.3 MB, and ran as fast)
_AFE_BLOCK = 128


def _smoothed_afe(s, desc: _LData):
    """L(s) = D(s) + root X^{2s-1} g(1-s)/g(s) D(1-s) at a 1-D array of s.

    An L-function is a description (Dokchitser, Computing special values of
    motivic L-functions, Exp. Math. 13, 2004; ``_LData``); the engine
    derives log g and the x scale X (``_log_gamma``), the degree d (the
    number of shifts) and the sum length (``_afe_length``: 40 to 219 terms
    for holo_L on Re s in {-6.9, -3, 1/2, 1.2, 4, 7.9} by |Im s| in {0, 3,
    10, 30, 45, 62}, 30 to 91 for sym2_L on {-2.9, -1.2, 1/2, 2, 3.9} by
    {0, 2, 5, 10, 14, 18.7}, where doubling it moves a value only at its
    floor).  The dual sum at s is the first sum at 1 - s (Rubinstein,
    Computational methods and experiments in analytic number theory, 2005),
    so D is summed once per distinct u of S and 1 - S, on Re w = sigma0 >
    max(Re s, 1 - Re s), where both series converge absolutely: 2 for
    -1 < Re s < 2, else the next integer above the largest Re u.

    D(u) = sum c(n) n^{-u} W(u, n) with the trapezoid weights
        W(u, n) = h/(2 pi) sum_w exp(log g(u + w) - log g(u)) (Xn)^{-w} e^{w^2/(2c^2)}/w,
    relative to g(1 - u) instead where u is a pole of g, which makes that
    dual term's g(1 - s)/g(s) one; a pole of g(s) is a trivial zero.  Row
    u = x + iy takes the nodes w = sigma0 + i(hm - y) of one absolute
    lattice, m from ceil((y - V)/h) to floor((y + V)/h), so u + w =
    x + sigma0 + ihm and n^{-u} (Xn)^{-w} = X^{iy} n^{-x} (Xn)^{-sigma0-ihm}:
        D(u) = X^{iy} sum_m K_u(m) F_x(m),   F_x(m) = sum c(n) n^{-x} (Xn)^{-sigma0-ihm}
    (``_lattice_series``).  Each distinct Re u takes one log g table over
    its rows' m and one F_x; the trapezoid keeps its accuracy
    for any shift of its nodes (Trefethen and Weideman, SIAM Review 56,
    2014).  The nodes reach V = min(c sqrt(2 (42 + (pi/4) d H)), vmax) from
    y, at the batch's height H = max |Im u|: vmax outlasts the Gaussian and
    the transient e^{pi |v|/2} growth of a degree-2 gamma ratio at any
    height, v^2/(2c^2) - pi v/2 >= 42, and each Gamma_R factor changes by
    at most e^{pi H/4} up to height H, so past the first bound the kernel
    is zero (those nodes held at most 4e-32 of sum |kernel| on 400 rows u
    with |Im u| <= H at H = 0.5 to 40, for holo_L and sym2_L).

    The batch shares one sum length, the largest its u need, and one V.
    Every row sums its terms by a row-wise numpy sum over the slots of its
    full contour, m from ceil((y - vmax)/h) on, int(2 vmax/h) + 2 of them,
    zero where a slot is not a node.  So the cut to V changes which terms
    are zero, but not how the sum groups them, and each D(u) has the same
    bits in any batch of the same length and height, in any split of its
    rows into blocks of at most ``_AFE_BLOCK``, and at any thread count.
    """
    if not s.size:
        return np.zeros(0, dtype=complex)
    index = {}
    inv = np.fromiter((index.setdefault(v, len(index)) for v in np.concatenate([s, 1.0 - s]).tolist()), int)
    u = np.array(list(index), dtype=complex)
    sigma0 = max(2.0, math.floor(u.real.max(initial=0.0)) + 1.0)
    log_gamma, scale = _log_gamma(desc.shifts)
    ref = log_gamma(u, 0.0)
    pole = ~np.isfinite(ref)
    if pole.any():
        ref[pole] = log_gamma(1.0 - u[pole], 0.0)
    coeffs = desc.coeffs(_afe_length(u, desc))
    log_n = arith.log_table(coeffs.size)
    c, h = desc.contour
    growth = math.pi / 4.0 * len(desc.shifts) * abs(u.imag).max(initial=0.0)
    vmax = max(9.7 * c, 0.5 * (math.pi * c * c + math.sqrt((math.pi * c * c) ** 2 + 336.0 * c * c)))
    reach = min(c * math.sqrt(2.0 * (42.0 + growth)), vmax)
    y = u.imag
    first = np.ceil((y - reach) / h).astype(int)
    last = np.floor((y + reach) / h).astype(int)
    # a row's slots start + j, j < slots, span its full contour, and only
    # those with k0 <= j < k1 can hold a node within the reach
    start = np.ceil((y - vmax) / h).astype(int)
    slots = int(2.0 * vmax / h) + 2
    k0, k1 = max(0, int((vmax - reach) / h) - 1), min(slots, int((vmax + reach) / h) + 2)
    # one log g table and one F_x per distinct Re u, laid end to end: a row
    # reads its node m at index m + shift
    parts = {}
    group = np.fromiter((parts.setdefault(x, len(parts)) for x in u.real.tolist()), int)
    tables, sums, shift = [], [], np.empty(len(parts), dtype=int)
    size = 0
    for i, x in enumerate(parts):
        lo, hi = int(first[group == i].min()), int(last[group == i].max())
        tables.append(log_gamma(x, sigma0 + 1j * h * np.arange(lo, hi + 1)))
        sums.append(_lattice_series(coeffs * np.exp(-x * log_n), scale, h, sigma0, lo, hi))
        shift[i] = size - lo
        size += hi - lo + 1
    table, sums, shift = np.concatenate(tables), np.concatenate(sums), shift[group]
    d = np.empty(u.shape, dtype=complex)
    for b in range(0, u.size, _AFE_BLOCK):
        rows = slice(b, b + _AFE_BLOCK)
        m = start[rows, None] + np.arange(k0, k1)
        live = (m >= first[rows, None]) & (m <= last[rows, None])
        at = np.clip(m, first[rows, None], last[rows, None]) + shift[rows, None]
        w = sigma0 + 1j * (h * m - y[rows, None])
        kern = np.exp(table[at] - ref[rows, None] + w * w / (2.0 * c * c)) / w * (h / (2.0 * math.pi))
        terms = np.zeros((m.shape[0], slots), dtype=complex)
        np.multiply(kern, sums[at], out=terms[:, k0:k1], where=live)
        d[rows] = np.exp(1j * y[rows] * math.log(scale)) * terms.sum(axis=1)
    at_s, at_dual = inv[:s.size], inv[s.size:]
    gr = np.exp(ref[at_dual] - ref[at_s])
    power = np.exp((2.0 * s - 1.0) * math.log(scale))
    # these products run on numpy scalars, as for a lone s: numpy's complex
    # array loop may fuse a multiply-add that its scalars do not
    out = d[at_s] + np.array([desc.root * e * g * dual for e, g, dual in zip(power, gr, d[at_dual])])
    out[pole[at_s]] = 0.0
    return out


def _afe_batch(s, f: NewformData, desc: _LData, name: str) -> np.ndarray:
    """s as the 1-D complex batch of ``_smoothed_afe`` on ``desc``, after the
    AFE's three rules: s is a scalar or a 1-D array, f has level 1, and
    every s lies in ``desc.box``; a :class:`DomainError` otherwise."""
    if np.ndim(s) > 1:
        raise DomainError(f"{name} takes a scalar or a 1-D array of s")
    if f.N != 1:
        raise DomainError(f"{name}'s AFE is implemented for level 1")
    batch = np.atleast_1d(np.asarray(s, dtype=complex))
    lo, hi, height = desc.box
    if not np.all((lo < batch.real) & (batch.real < hi) & (abs(batch.imag) < height)):
        raise DomainError(f"{name}'s AFE is certified for {lo:g} < Re s < {hi:g}, |Im s| < {height:g}")
    return batch


def _holo_data(f: NewformData) -> _LData:
    """holo_L's L-function: Gamma_C(s + (k-1)/2), root number i^k, A(n)."""
    return _LData(((f.k - 1) / 2.0, (f.k + 1) / 2.0), (1j) ** f.k, f.A, (3.0, 0.4), (-7.0, 8.0, math.inf))


def holo_L(s, f: NewformData, method: str = "auto"):
    """L(s, f) = sum A(n) n^{-s}: direct for Re s > 1.2, else smoothed AFE.

    The direct tail is sized by square-root cancellation of the coefficient
    partial sums (~ M^{1/2 - sigma}); if that estimate exceeds 1e-8 an
    insufficient-coefficients error reports the horizon it would take.  The
    AFE is ``_smoothed_afe`` on ``_holo_data``, level 1 only: for N > 1 in
    the strip an error is raised rather than guessing the Atkin-Lehner
    sign.  ``method`` forces a branch ("direct" / "afe"); "direct" raises
    :class:`DomainError` for Re s <= 1.2.

    The AFE's contour moves right with max(Re s, 1 - Re s) and its roundoff
    grows with it, so its domain is -7 < Re s < 8, outside which a
    :class:`DomainError` is raised.  There it is within 8.6e-11 of the
    20,000-term direct series for |Im s| <= 7.5 (left of Re s = 1/2, of the
    direct series at 1 - s through the functional equation; measured at
    Re s in {-6.99, -6.5, -6, 6, 6.5, 6.9, 7.5, 7.7, 7.99}); at |Im s| = 15
    that grows to 9.7e-11 at Re s = 6.9, 8.4e-10 at 7.5 and 1.3e-9 at 7.7.

    A 1-D array of s runs on the AFE route as one batch and gives an array;
    "direct", or any Re s > 1.2 under "auto", raises :class:`DomainError`.
    A batch closed under s -> 1 - s costs half of one without pairs (see
    ``_smoothed_afe``); a scalar s on the AFE route is the batch {s, 1 - s}.
    """
    if method not in ("auto", "direct", "afe"):
        raise DomainError("method must be auto, direct or afe")
    if np.ndim(s) and (method == "direct" or (method == "auto" and np.any(np.real(s) > 1.2))):
        raise DomainError("an array of s runs on the AFE route only, at Re s <= 1.2 under auto")
    if not np.ndim(s):
        s = complex(s)
        if method == "direct" and s.real <= 1.2:
            raise DomainError("holo_L direct summation needs Re s > 1.2")
        if method != "afe" and s.real > 1.2:
            if f.M ** (0.5 - s.real) * 3.0 <= 1e-8:
                return complex(np.sum(f.A() * np.exp(-s * arith.log_table(f.M))))
            if method == "direct" or f.N != 1:
                raise InsufficientCoefficientsError(int(math.ceil((1e-8 / 3.0) ** (1.0 / (0.5 - s.real)))))
            # else the AFE; from Re s = 8 on, where its domain ends, it needs
            # more coefficients than the direct sum
    desc = _holo_data(f)
    out = _smoothed_afe(_afe_batch(s, f, desc, "holo_L"), desc)
    return out if np.ndim(s) else complex(out[0])


@lru_cache(maxsize=64)
def _sym2_table(f: NewformData) -> arith.SharedTable:
    """The symmetric-square coefficients of f, c(m) at index m - 1.

    c is multiplicative; at p the Satake parameters of f are {alpha, 1/alpha}
    with alpha + 1/alpha = A(p), and c(p^e) = sum_{i+j+l=e} alpha^{2i}
    alpha^{-2l} (complete homogeneous in {alpha^2, 1, alpha^-2}).
    """

    def local(p, e):
        if p > f.M:
            raise InsufficientCoefficientsError(p)
        ap = float(f.a[p - 1]) * p ** (-(f.k - 1) / 2.0)
        alpha = (ap + np.sqrt(complex(ap * ap - 4.0))) / 2.0
        a2 = alpha * alpha
        b2 = 1.0 / a2
        acc = 0.0 + 0.0j
        for i in range(e + 1):
            for l in range(e - i + 1):
                acc += a2**i * b2**l
        return acc.real

    return arith.SharedTable(lambda size: arith.multiplicative_array(local, size)[1:])


def _sym2_coeffs(f: NewformData, m_max: int) -> np.ndarray:
    """Symmetric-square coefficients c(1..m_max) of f, read-only, from the
    form's one shared table (``_sym2_table``)."""
    if f.M < min(m_max, 2):
        raise InsufficientCoefficientsError(m_max)
    return _sym2_table(f).covering(m_max)[:m_max]


# |Im s| at which sym2_L's two smoothings first differ by more than 1e-8
# (relative) on the grid Re s in {-2.5, -1, 0, 1/2, 1, 2, 3.5}, |Im s| in
# 0, 0.1, ..., 22: 3.2e-8 at 1/2 + 18.8i, against at most 8.3e-9 below
_SYM2_HEIGHT = 18.8


def sym2_L(s, f: NewformData):
    """L(s, sym^2 f) for a level-1 newform: ``_smoothed_afe`` on ``_sym2_data``.

    The trapezoid's roundoff grows about tenfold per unit of the contour's
    sigma0, so the domain is -3 < Re s < 4 (within 5e-12 of the direct
    series at Re s = 3.99; main_term_breakdown at Re s = 5/2 evaluates L at
    Re s = 3 and -1).  Its two sums also cancel more with height: the spread
    between two smoothings first passes 1e-8 at |Im s| = 18.8
    (``_SYM2_HEIGHT``), reaches 1e-4 near 30, and from about 40 up the value
    is roundoff, so the domain is also |Im s| < 18.8.  Outside it a
    :class:`DomainError` is raised.  The engine's pole rule covers s = 2
    (the dual u = -1 is a pole of g) and the trivial zero at s = -1.

    A 1-D array of s runs as one batch and gives a read-only array; a scalar
    is the batch of one s.  Batches are memoised by ``_sym2_L``, 64 of them,
    keyed on f and the tuple of s as Python complex numbers, so the +0.0 and
    -0.0 parts of s share one entry, and a value is the same bits whenever
    the same tuple asks for it.
    """
    out = _sym2_L(tuple(_afe_batch(s, f, _sym2_data(f), "sym2_L").tolist()), f)
    return out if np.ndim(s) else complex(out[0])


@lru_cache(maxsize=64)
def _sym2_L(s: tuple, f: NewformData) -> np.ndarray:
    """L(s, sym^2 f) at a tuple of s by the smoothed AFE (see sym2_L), read-only."""
    out = _smoothed_afe(np.array(s, dtype=complex), _sym2_data(f))
    out.flags.writeable = False
    return out


def _sym2_data(f: NewformData) -> _LData:
    """sym2_L's L-function: shifts 1, k - 1 and k, root number 1."""
    box = (-3.0, 4.0, _SYM2_HEIGHT)
    return _LData((1.0, f.k - 1.0, float(f.k)), 1.0, partial(_sym2_coeffs, f), (4.0, 0.35), box)


def selfdual_rs_L(w, f: NewformData):
    """Accurate L(w, f x f~) = zeta(w) L(w, sym^2 f) for level 1.

    A scalar w gives a complex; a 1-D array of w is one ``sym2_L`` batch and
    gives a list of the products, each formed as for a scalar.
    """
    if not np.ndim(w):
        return riemann_zeta(w) * sym2_L(w, f)
    w = np.asarray(w, dtype=complex)
    return [riemann_zeta(x) * v for x, v in zip(w.tolist(), sym2_L(w, f).tolist())]


@lru_cache(maxsize=64)
def selfdual_rs_constants(f: NewformData) -> MappingProxyType:
    """Laurent data of L(s, f x f~) at s = 1 for a level-1 form.

    Returns {"residue": R, "finite_part": c0} in L(1 + x) = R/x + c0 + O(x),
    the two constants the f = g displays of the main term take.  They come
    from zeta(1+x) = 1/x + gamma + O(x) and the entire sym^2 factor, whose
    derivative is a central difference of its AFE values.  The mapping is
    read-only and memoised per form, 64 of them; sym2_L's level check
    raises :class:`DomainError` for a form of level N > 1.
    """
    L1 = sym2_L(1.0, f)
    L1p = central_difference(lambda w: sym2_L(w, f), 1.0)
    return MappingProxyType({
        "residue": complex(L1).real,
        "finite_part": complex(EULER_GAMMA * L1 + L1p).real,
    })


# ---------------------------------------------------------------------------
# the factored twisted Dirichlet series: Eisenstein case


# terms of the direct twisted series formed at once: a block's arrays take
# 256 KiB each, so at 10^5 terms the series' memory stays near 3 MB, most of
# it the divisor sums' kept coefficients (arith.divisor_sum_blocks)
_TWIST_BLOCK = 1 << 14


def curly_L_eisenstein_direct(s, t: float, r: float, cusp: CuspLabel, m_max: int = 100_000) -> ValueWithError:
    """zeta^(N)(2s) sum_m sigma_{-2it}(m;N) m^{it} conj(tau_a(1/2+ir, m)) m^{-s}.

    Direct summation; needs Re s > 3/2 and real r (the conjugated
    coefficient array is only available there).  The terms are formed
    ``_TWIST_BLOCK`` at a time from weights and coefficients with the bits
    of the whole arrays, and the series adds the blocks' sums in order.
    """
    s = complex(s)
    if s.real <= 1.5:
        raise DomainError("direct twisted series needs Re s > 3/2")
    bounds, logs = arith.divisor_bound_table(m_max), arith.log_table(m_max)

    def block_terms(lo, tau, sig):
        # |tau(m)| <= C d(m) empirically on the computed range
        bound = float(np.max(np.abs(tau) / bounds[lo : lo + tau.size]))
        # the terms conj(tau) sig m^{-s}, formed in place over the block's tau
        terms = np.conjugate(tau, out=tau)
        terms *= sig
        powers = logs[lo : lo + tau.size] * -s
        terms *= np.exp(powers, out=powers)
        return complex(np.sum(terms)), bound

    series, cbound = 0j, 0.0
    # map holds no block of terms once it is summed
    for block_sum, block_bound in map(block_terms, range(0, m_max, _TWIST_BLOCK),
                                      eisenstein.tau_cusp_blocks(cusp, 0.5 + 1j * r, m_max, _TWIST_BLOCK),
                                      arith.twisted_weight_blocks(cusp.N, t, m_max, _TWIST_BLOCK)):
        series += block_sum
        cbound = max(cbound, block_bound)
    return _depleted_sum(series, s, cusp.N, cbound if m_max else 1.0, m_max)


def curly_L_eisenstein_factored(s, t: float, z, cusp: CuspLabel) -> complex:
    """euler_poly * zeta(s+it+z) zeta(s-it+z) zeta(s+it-z) zeta(s-it-z)
    / (pi^{-1/2+z} Gamma(1/2-z) zeta^(N)(1-2z));  z occupies the ir slot."""
    s = complex(s)
    z = complex(z)
    it = 1j * t
    num = (
        riemann_zeta(s + it + z)
        * riemann_zeta(s - it + z)
        * riemann_zeta(s + it - z)
        * riemann_zeta(s - it - z)
    )
    den = (
        _pp(math.pi, z - 0.5)
        * np.exp(_loggamma(0.5 - z))
        * arith.zeta_depleted(1.0 - 2.0 * z, cusp.N)
    )
    return complex(eisenstein.euler_poly(cusp.N, cusp.a, s, t, z) * num / den)


# ---------------------------------------------------------------------------
# the factored twisted Dirichlet series: Maass case


def curly_L_maass_direct(s, t: float, u: MaassFormData) -> ValueWithError:
    """zeta^(N)(2s) sum_m sigma_{-2it}(m;N) m^{it} conj(rho(m)) m^{-s}."""
    s = complex(s)
    if s.real <= 1.5:
        raise DomainError("direct twisted series needs Re s > 3/2")
    return _depleted_series(arith.sigma_twisted_weights(u.N, t, u.M) * u.rho(u.M), s, u.N, u.scale)


def _lam_at(u: MaassFormData, idx: int) -> float:
    """lambda(idx) for idx >= 1."""
    if idx > u.M:
        raise InsufficientCoefficientsError(idx)
    return float(u.lam[idx - 1])


def _lift_local_factor(u: MaassFormData, d: int, s, t) -> complex:
    """Local factor euler_poly_d(s, it; u) of the Maass twisted series.

    Derived by carrying out the Euler-product factorisation of
    zeta^(N)(2s) sum sigma_{-2it}(m; N) m^{it} rho(m) m^{-s} with the lift
    rho(m) = rho1 sum_{d | (m, N/L)} c_d sqrt(d) lambda(m/d): per prime
    p | N with E = ord_p(N), delta = ord_p(d), u = p^{-2it},
    y_pm = p^{-s -+ it},

      local = p^{E(s-it)-1} p^{delta(it-s)} p^{it delta} / (1-u)
              * [ (u^{delta+2-E} - p u^{delta+1-E}) T(y+) + (p-1) T(y-) ]
              / (Lam(y+) Lam(y-)),

    Lam the local Hecke series (degree 2 for p not dividing L, degree 1
    otherwise) and T its tail sum_{e >= max(0, E-1-delta)} lambda(p^e) y^e.
    """
    s = complex(s)
    it = 1j * t
    N, L = u.N, u.L
    out = 1.0 + 0.0j
    for p in prime_divisors(N):
        E = ord_p(N, p)
        delta = ord_p(d, p)
        uu = _pp(p, -2.0 * it)
        if abs(1.0 - uu) < 1e-13:
            raise PoleError("Maass local factor needs t != 0 at composite level")
        yp = _pp(p, -s - it)
        ym = _pp(p, -s + it)
        lam_p = _lam_at(u, p)
        if L % p == 0:
            lam_loc_p = lambda y: 1.0 / (1.0 - lam_p * y)
        else:
            lam_loc_p = lambda y: 1.0 / (1.0 - lam_p * y + y * y)
        e0 = max(0, E - 1 - delta)

        def tail(y):
            head = sum(_lam_at(u, p**e) * y**e for e in range(e0))
            return lam_loc_p(y) - head

        s_tilde = (
            _pp(p, it * delta)
            / (1.0 - uu)
            * (
                (uu ** (delta + 2 - E) - p * uu ** (delta + 1 - E)) * tail(yp)
                + (p - 1.0) * tail(ym)
            )
        )
        out *= (
            _pp(p, E * (s - it) - 1.0)
            * _pp(p, delta * (it - s))
            * s_tilde
            / (lam_loc_p(yp) * lam_loc_p(ym))
        )
    return out


def maass_L(s, u: MaassFormData) -> complex:
    """L(s, u) = sum lambda(m) m^{-s} by direct summation (Re s > 1)."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("maass_L direct summation needs Re s > 1")
    val = complex(np.sum(u.lam * np.exp(-s * arith.log_table(u.M))))
    tail = rankin_selberg_tail(2.0 * s.real - 1.0, u.M)
    if tail > 1e-9 * max(1.0, abs(val)):
        raise InsufficientCoefficientsError(4 * u.M)
    return val


def curly_L_maass_factored(s, t: float, u: MaassFormData) -> complex:
    """L(s+it, u) L(s-it, u) N^{-s-it} sum_{d | N/L} c_L(d) rho1 d^{1/2-it} euler_poly_d.

    The local factors have removable singularities at t = 0 for composite
    level; there the symmetric small-t average is returned.
    """
    if u.N > 1 and abs(t) < arith._T_ZERO:
        return arith._small_t_average(lambda h: curly_L_maass_factored(s, h, u))
    s = complex(s)
    it = 1j * t
    lift_sum = 0.0 + 0.0j
    for d in divisors(u.N // u.L):
        lift_sum += (
            u.lifts[d]
            * u.rho1
            * _pp(d, 0.5 - it)
            * _lift_local_factor(u, d, s, t)
        )
    return complex(
        maass_L(s + it, u)
        * maass_L(s - it, u)
        * _pp(u.N, -s - it)
        * lift_sum
    )


def rankin_selberg_maass(s, f: NewformData, u: MaassFormData) -> ValueWithError:
    """zeta^(N)(2s) sum A(m) rho(m) m^{-s}, truncated with a tail certificate (Re s > 1)."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("rankin_selberg_maass direct summation needs Re s > 1")
    m_max = min(f.M, u.M)
    return _depleted_series(f.A(m_max) * u.rho(m_max), s, f.N, u.scale)
