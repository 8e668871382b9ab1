"""Newform data, L-functions, and the factored twisted Dirichlet series.

Data types
----------
* :class:`NewformData` -- level, even weight k >= 4, integer (or synthetic
  real) Fourier coefficients a(n), with A(n) = a(n) n^{-(k-1)/2} on demand.
  A built-in generator produces the discriminant form of level 1 and weight
  12 from exact eta-power arithmetic.
* :class:`MaassFormData` -- spectral parameter, Hecke eigenvalues, lift
  coefficients of an oldform living above an inner level L | N.
* :class:`CuspExpansionData` -- ingested Fourier coefficients of f at a cusp
  (the package never derives these symbolically).

Evaluators
----------
* ``rankin_selberg_L`` -- truncated Dirichlet series with a divisor-bound
  tail certificate (direct region Re s > 1).
* ``holo_L`` -- direct sum for Re s > 1.2, otherwise a smoothed approximate
  functional equation: the completed function is averaged against a
  Gaussian-in-w Mellin kernel, giving weights
      W(z, x) = 1/(2 pi i) int exp(logG(z+w) - logG(z)) x^{-w}
                 e^{w^2/(2 c^2)} dw / w
  on a fixed vertical contour; both sum lengths adapt until the weights are
  negligible.  Level 1 only (the root number i^k is the level-1 one).
  The contour matrix exp(-w log x) does not depend on s: ``_mellin_weights``
  keeps one read-only copy per (x scale, c, h, sigma0), grown by doubling,
  and each call reads its first ``length`` columns.
* ``sym2_L`` -- same machinery with the three-factor gamma of the symmetric
  square; powers the accurate self-dual Rankin-Selberg values
  L(s, f x f~) = zeta(s) L(s, sym^2 f) at level 1 and the residue /
  finite-part constants needed near s = 1.  Its coefficients are cached
  read-only per (k, digest of the whole a array, length).
* ``curly_L_eisenstein`` / ``curly_L_maass`` -- both sides of the
  factorisation of the twisted series
      zeta^(N)(2s) sum sigma_{-2it}(m; N) m^{it} conj(coeff(m)) m^{-s},
  direct summation against the factored Euler-product form.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import loggamma as _loggamma

from . import arith, eisenstein
from .arith import CuspLabel, divisor_count_upper, divisors, ord_p, prime_divisors
from .specfun import (
    DomainError,
    NonConvergenceError,
    PoleError,
    ValueWithError,
    riemann_zeta,
    EULER_GAMMA,
    _stieltjes_constants,
)

__all__ = [
    "InvariantViolation",
    "InsufficientCoefficientsError",
    "NewformData",
    "MaassFormData",
    "CuspExpansionData",
    "load_newform",
    "load_maass_form",
    "load_cusp_expansion",
    "delta_newform",
    "divisor_model_newform",
    "synthetic_maass_form",
    "rankin_selberg_L",
    "rankin_selberg_tail",
    "residue_at_1",
    "holo_L",
    "sym2_L",
    "selfdual_rs_L",
    "selfdual_rs_constants",
    "curly_L_eisenstein_direct",
    "curly_L_eisenstein_factored",
    "curly_L_maass_direct",
    "curly_L_maass_factored",
    "maass_L",
    "rankin_selberg_maass",
]


class InvariantViolation(ValueError):
    """Input data failed a structural invariant (reports the failing n)."""


class InsufficientCoefficientsError(RuntimeError):
    """More Fourier coefficients are required; reports how many."""

    def __init__(self, needed: int):
        super().__init__(f"need Fourier coefficients up to n = {needed}")
        self.needed = needed


# ---------------------------------------------------------------------------
# data types and loaders


@dataclass
class NewformData:
    """A holomorphic newform: level N, even weight k >= 4, coefficients a(1..M).

    ``a`` is a private read-only copy of the input, and ``digest`` a SHA-256
    of its bytes that keys the data derived from it.
    """

    N: int
    k: int
    a: np.ndarray  # float64, index n-1
    a_exact: tuple | None = None  # exact integers when available
    label: str = ""

    def __post_init__(self):
        self.a = np.array(self.a, dtype=float)
        self.a.flags.writeable = False
        if self.k < 4 or self.k % 2:
            raise InvariantViolation("weight must be an even integer >= 4")
        if self.a.size < 1 or abs(self.a[0] - 1.0) > 1e-12:
            raise InvariantViolation("newform normalisation a(1) = 1 violated at n=1")
        n = np.arange(1, self.a.size + 1, dtype=float)
        bound = divisor_count_upper(n) * n ** ((self.k - 1) / 2.0)
        bad = np.nonzero(np.abs(self.a) > bound * (1.0 + 1e-9))[0]
        if bad.size:
            raise InvariantViolation(f"coefficient bound violated at n={bad[0] + 1}")
        self.digest = hashlib.sha256(self.a.tobytes()).hexdigest()

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
    parity: int
    lam: np.ndarray  # Hecke eigenvalues lambda(1..M) of the inner newform
    rho1: float
    lifts: dict  # d | N/L -> c_L(r; d)

    def __post_init__(self):
        self.lam = np.array(self.lam, dtype=float)
        self.lam.flags.writeable = False
        if self.N % self.L:
            raise InvariantViolation("inner level must divide the level")
        if self.parity not in (0, 1):
            raise InvariantViolation("parity must be 0 or 1")
        if abs(self.lam[0] - 1.0) > 1e-12:
            raise InvariantViolation("lambda(1) = 1 violated at n=1")
        for d in divisors(self.N // self.L):
            if d not in self.lifts:
                raise InvariantViolation(f"missing lift coefficient for d={d}")

    @property
    def M(self) -> int:
        return self.lam.size

    def rho(self, m_max: int) -> np.ndarray:
        """Fourier coefficients rho(1..m_max) of the lifted form."""
        if m_max > self.M:
            raise InsufficientCoefficientsError(m_max)
        out = np.zeros(m_max)
        for d, c in sorted(self.lifts.items()):
            out[d - 1 :: d] += c * math.sqrt(d) * self.rho1 * self.lam[: m_max // d]
        return out


@dataclass
class CuspExpansionData:
    """Ingested Fourier coefficients of f | sigma_a at the cusp 1/(c a).

    ``coeffs`` is a private read-only copy of the input.
    """

    cusp: CuspLabel
    coeffs: np.ndarray  # complex, index n-1

    def __post_init__(self):
        self.coeffs = np.array(self.coeffs, dtype=complex)
        self.coeffs.flags.writeable = False
        if self.coeffs.size < 1:
            raise InvariantViolation("cusp expansion needs at least one coefficient")


def load_newform(path) -> NewformData:
    """Read the text format: line 1 ``N k M``, then M lines ``n a(n)``."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 3:
            raise InvariantViolation("header must be 'N k M'")
        N, k, M = map(int, head)
        a = np.zeros(M)
        exact = [0] * M
        seen = 0
        for line in fh:
            if not line.strip():
                continue
            n_str, v_str = line.split()
            n, v = int(n_str), int(v_str)
            if not 1 <= n <= M:
                raise InvariantViolation(f"coefficient index {n} out of range")
            a[n - 1] = float(v)
            exact[n - 1] = v
            seen += 1
        if seen != M:
            raise InvariantViolation(f"expected {M} coefficient lines, got {seen}")
    return NewformData(N=N, k=k, a=a, a_exact=tuple(exact))


def load_maass_form(path) -> MaassFormData:
    """Line 1 ``N L r epsilon M``; line 2 ``rho1 c_d ...``; then ``n lambda(n)``."""
    with open(path) as fh:
        N, L, r, eps, M = fh.readline().split()
        N, L, eps, M = int(N), int(L), int(eps), int(M)
        r = float(r)
        second = list(map(float, fh.readline().split()))
        ds = divisors(N // L)
        if len(second) != 1 + len(ds):
            raise InvariantViolation("second line must be rho1 followed by lifts")
        rho1, lifts = second[0], dict(zip(ds, second[1:]))
        lam = np.zeros(M)
        for line in fh:
            if not line.strip():
                continue
            n_str, v_str = line.split()
            lam[int(n_str) - 1] = float(v_str)
    return MaassFormData(N=N, L=L, r=r, parity=eps, lam=lam, rho1=rho1, lifts=lifts)


def load_cusp_expansion(path) -> CuspExpansionData:
    """Line 1 ``N a c M``, then M lines ``n re im``."""
    with open(path) as fh:
        N, a, c, M = map(int, fh.readline().split())
        coeffs = np.zeros(M, dtype=complex)
        for line in fh:
            if not line.strip():
                continue
            n_str, re_str, im_str = line.split()
            coeffs[int(n_str) - 1] = complex(float(re_str), float(im_str))
    return CuspExpansionData(CuspLabel(N, a, c), coeffs)


# ---------------------------------------------------------------------------
# built-in generators


def _kronecker_square(coeffs: list) -> list:
    """Exact square of an integer polynomial via Kronecker substitution."""
    n = len(coeffs)
    bound = max(1, max(abs(c) for c in coeffs))
    # coefficient of the square bounded by n * bound^2; pad to whole bytes
    bits = (n * bound * bound).bit_length() + 2
    nbytes = (bits + 7) // 8

    def pack(cs):
        buf = bytearray(nbytes * len(cs))
        for i, c in enumerate(cs):
            buf[i * nbytes : i * nbytes + nbytes] = int(c).to_bytes(nbytes, "little")
        return int.from_bytes(bytes(buf), "little")

    def unpack(val, length):
        raw = val.to_bytes(nbytes * length + nbytes, "little")
        return [
            int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(length)
        ]

    pos = [c if c > 0 else 0 for c in coeffs]
    neg = [-c if c < 0 else 0 for c in coeffs]
    out_len = 2 * n - 1
    pp = unpack(pack(pos) ** 2, out_len)
    nn = unpack(pack(neg) ** 2, out_len)
    pn = unpack(pack(pos) * pack(neg), out_len)
    return [pp[i] + nn[i] - 2 * pn[i] for i in range(out_len)]


@lru_cache(maxsize=8)
def _eta24(m_max: int) -> tuple:
    """Exact coefficients of prod (1 - x^n)^24 up to degree m_max."""
    # eta^3 is lacunary: sum (-1)^j (2j+1) x^{j(j+1)/2}
    e3 = [0] * (m_max + 1)
    j = 0
    while j * (j + 1) // 2 <= m_max:
        e3[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    e6 = _kronecker_square(e3)[: m_max + 1]
    e12 = _kronecker_square(e6)[: m_max + 1]
    e24 = _kronecker_square(e12)[: m_max + 1]
    return tuple(e24)


@lru_cache(maxsize=8)
def delta_newform(m_max: int = 20000) -> NewformData:
    """The level-1 weight-12 discriminant form, a(n) from q prod (1-q^n)^24."""
    e24 = _eta24(m_max - 1)
    exact = tuple(e24[: m_max])
    return NewformData(
        N=1, k=12, a=np.array(exact, dtype=float), a_exact=exact, label="delta"
    )


def divisor_model_newform(nu: float, k: int, N: int, m_max: int) -> NewformData:
    """Synthetic Hecke-consistent data A(n) = sum_{ad=n} (a/d)^{i nu} (real).

    Satisfies a(1) = 1, |A(n)| <= d(n) and full multiplicativity, and all its
    Rankin-Selberg convolutions against another such form reduce to products
    of zeta values, which makes it the natural test vehicle for the
    assembly identities at composite level.
    """
    n = np.arange(1, m_max + 1, dtype=float)
    lam = np.zeros(m_max)
    for d in range(1, m_max + 1):
        # contribution of the divisor pair (d, n/d): (d^2/n)^{i nu}
        idx = np.arange(d, m_max + 1, d, dtype=float)
        lam[d - 1 :: d] += np.real(np.exp(1j * nu * np.log(d * d / idx)))
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
        out *= 1.0 - np.exp(-2.0 * w * math.log(p))
    return complex(out)


def synthetic_maass_form(
    N: int, L: int, r: float, m_max: int, seed: int = 1, parity: int = 0
) -> MaassFormData:
    """Hecke-consistent synthetic Maass data from deterministic Satake angles."""
    rng = np.random.default_rng(seed)
    lam_p = {}
    for p in _primes_up_to(m_max):
        theta = 2.0 * math.pi * rng.random()
        if L % p == 0:
            lam_p[p] = (1.0 if rng.random() < 0.5 else -1.0) / math.sqrt(p)
        else:
            lam_p[p] = 2.0 * math.cos(theta)
    vals = np.ones(m_max + 1)
    for n in range(2, m_max + 1):
        p = _least_prime_factor(n)
        e = ord_p(n, p)
        pe = p**e
        if pe == n:
            if e == 1:
                vals[n] = lam_p[p]
            elif L % p == 0:
                vals[n] = lam_p[p] ** e
            else:
                vals[n] = lam_p[p] * vals[pe // p] - vals[pe // (p * p)]
        else:
            vals[n] = vals[pe] * vals[n // pe]
    lifts = {d: (0.83 if d == 1 else -0.41 / math.sqrt(d)) for d in divisors(N // L)}
    return MaassFormData(
        N=N, L=L, r=r, parity=parity, lam=vals[1:], rho1=1.37, lifts=lifts
    )


@lru_cache(maxsize=64)
def _primes_up_to(n: int) -> tuple:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


def _least_prime_factor(n: int) -> int:
    for p in _primes_up_to(int(n**0.5) + 1):
        if n % p == 0:
            return p
    return n


# ---------------------------------------------------------------------------
# Rankin-Selberg convolutions (direct region)


def rankin_selberg_tail(sigma: float, m_from: int, scale: float = 1.0) -> float:
    """Bound on sum_{n > m_from} d(n)^2 n^{-sigma} (Nicolas-Robin exponent)."""
    if m_from < 8:
        m_from = 8
    eps = 2.0 * 1.5379 * math.log(2.0) / math.log(math.log(m_from))
    if sigma - eps <= 1.0:
        return math.inf
    return scale * m_from ** (1.0 + eps - sigma) / (sigma - eps - 1.0)


def rankin_selberg_L(
    s,
    f: NewformData,
    g: NewformData,
    cusp: CuspLabel | None = None,
    fcusp: CuspExpansionData | None = None,
    gcusp: CuspExpansionData | None = None,
    m_max: int | None = None,
    tol: float | None = None,
) -> ValueWithError:
    """L_a(s, f x g~) = zeta^(N)(2s) sum a_a(n) conj(b_a(n)) n^{-k+1-s}, truncated.

    At the infinity-class cusp (``cusp`` None or a = N) the newform
    coefficients are used directly; otherwise both ingested cusp expansions
    are required.  The reported error is a divisor-bound tail certificate;
    with ``tol`` set, a certificate above it raises.
    """
    s = complex(s)
    if f.N != g.N or f.k != g.k:
        raise InvariantViolation("f and g must share level and weight")
    N, k = f.N, f.k
    if s.real <= 1.0:
        raise DomainError("rankin_selberg_L direct summation needs Re s > 1")
    if cusp is None or cusp.a == N:
        m_cap = min(f.M, g.M)
        if m_max is not None:
            if m_max > m_cap:
                raise InsufficientCoefficientsError(m_max)
            m_cap = m_max
        an = f.A(m_cap)
        bn = g.A(m_cap)
    else:
        if fcusp is None or gcusp is None or fcusp.cusp != cusp or gcusp.cusp != cusp:
            raise DomainError("cusp expansions for this cusp must be supplied")
        m_cap = min(fcusp.coeffs.size, gcusp.coeffs.size)
        if m_max is not None:
            if m_max > m_cap:
                raise InsufficientCoefficientsError(m_max)
            m_cap = m_max
        n = np.arange(1, m_cap + 1, dtype=float)
        an = fcusp.coeffs[:m_cap] * n ** (-(k - 1) / 2.0)
        bn = gcusp.coeffs[:m_cap] * n ** (-(k - 1) / 2.0)
    n = np.arange(1, m_cap + 1, dtype=float)
    series = complex(np.sum(an * np.conj(bn) * np.exp(-s * np.log(n))))
    zN = arith.zeta_depleted(2.0 * s, N)
    tail = abs(zN) * rankin_selberg_tail(s.real, m_cap)
    if tol is not None and tail > tol:
        raise NonConvergenceError(
            f"tail certificate {tail:.2e} exceeds tolerance {tol:.2e}",
            complex(zN * series),
            tail,
        )
    return ValueWithError(complex(zN * series), tail)


def residue_at_1(f: NewformData, m_max: int | None = None) -> tuple:
    """Res_{s=1} L(s, f x f~) by Richardson extrapolation of (s-1) L(s).

    Returns (value, error estimate); the estimate combines the extrapolation
    spread with the truncation certificates (which dominate: the direct
    series converges slowly this close to the pole).
    """
    hs = (0.1, 0.05, 0.025)
    vals, tails = [], []
    for h in hs:
        v, tail = rankin_selberg_L(1.0 + h, f, f, m_max=m_max)
        vals.append(h * v)
        tails.append(h * tail)
    from .specfun import extrapolate_to_zero

    extrap = extrapolate_to_zero(hs, vals)
    extrap2 = extrapolate_to_zero(hs[:2], vals[:2])
    err = abs(extrap - extrap2) + max(tails)
    val = extrap.real
    if val <= 0:
        raise NonConvergenceError("extrapolated residue not positive", val, err)
    return val, err


# ---------------------------------------------------------------------------
# smoothed approximate functional equations


# (x scale, c, h, sigma0) -> (w, E): the contour and E = exp(-w (x) log x)
# at x = scale * (1..cap), both read-only
_CONTOURS: dict = {}


def _mellin_weights(log_ratio, scale: float, length: int, c: float = 3.0, h: float = 0.4,
                    sigma0: float = 2.0):
    """W = 1/(2 pi i) int exp(log_ratio(w)) x^{-w} e^{w^2/(2c^2)} dw/w at x = scale * (1..length).

    ``log_ratio(w)`` must accept a numpy array of contour points
    w = sigma0 + i v and return log of the gamma-factor ratio.  The
    trapezoid cut must outlast not just the Gaussian but also the transient
    e^{pi |v|/2} growth of the gamma ratio while |v| < |Im z|, so it solves
    v^2/(2c^2) - pi v/2 >= 42.

    Neither w nor E = exp(-w (x) log x) depends on s, so both are cached in
    ``_CONTOURS`` under (scale, c, h, sigma0), read-only.  E's column count
    doubles until it covers ``length``, and a call uses the first ``length``
    columns, so the weights are those of a fresh E bit for bit.
    """
    key = (scale, c, h, sigma0)
    w, E = _CONTOURS.get(key, (None, None))
    if E is None or E.shape[1] < length:
        if w is None:
            vmax = max(9.7 * c, 0.5 * (math.pi * c * c + math.sqrt((math.pi * c * c) ** 2 + 336.0 * c * c)))
            w = sigma0 + 1j * np.arange(-vmax, vmax + h, h)
            w.flags.writeable = False
        cap = length if E is None else E.shape[1]
        while cap < length:
            cap *= 2
        E = np.exp(-np.outer(w, np.log(scale * np.arange(1, cap + 1, dtype=float))))
        E.flags.writeable = False
        _CONTOURS[key] = (w, E)
    kern = np.exp(log_ratio(w) + w * w / (2.0 * c * c)) / w * (h / (2.0 * math.pi))
    return kern @ E[:, :length]


def holo_L(s, f: NewformData, tol: float = 1e-8, method: str = "auto") -> complex:
    """L(s, f) = sum A(n) n^{-s}: direct for Re s > 1.2, else smoothed AFE.

    The direct tail is sized by square-root cancellation of the coefficient
    partial sums (~ M^{1/2 - sigma}); if that estimate exceeds ``tol`` an
    insufficient-coefficients error reports the horizon it would take.  The
    AFE path is the level-1 functional equation with root number i^k; for
    N > 1 in the strip an error is raised rather than guessing the
    Atkin-Lehner sign.  ``method`` forces a branch ("direct" / "afe").
    """
    s = complex(s)
    if method not in ("auto", "direct", "afe"):
        raise DomainError("method must be auto, direct or afe")
    if method != "afe" and s.real > 1.2:
        sig = s.real
        tail_est = f.M ** (0.5 - sig) * 3.0
        if tail_est > tol:
            if method == "direct" or f.N != 1:
                raise InsufficientCoefficientsError(
                    int(math.ceil((tol / 3.0) ** (1.0 / (0.5 - sig))))
                )
            # fall through to the AFE, which is exact at any argument
        else:
            n = np.arange(1, f.M + 1, dtype=float)
            return complex(np.sum(f.A() * np.exp(-s * np.log(n))))
    if f.N != 1:
        raise DomainError("holo_L inside the strip is implemented for level 1")
    a0 = (f.k - 1) / 2.0
    root = (1j) ** f.k  # (-1)^{k/2} for even k

    def ratio1(w):
        return _loggamma(s + a0 + w) - _loggamma(s + a0)

    def ratio2(w):
        return _loggamma(1.0 - s + a0 + w) - _loggamma(1.0 - s + a0)

    length = int(math.ceil((abs(s.imag) + f.k + 60.0) * 1.6))
    if length > f.M:
        raise InsufficientCoefficientsError(length)
    n = np.arange(1, length + 1, dtype=float)
    w1 = _mellin_weights(ratio1, 2.0 * math.pi, length)
    w2 = _mellin_weights(ratio2, 2.0 * math.pi, length)
    A = f.A(length)
    first = np.sum(A * np.exp(-s * np.log(n)) * w1)
    gr = np.exp(_loggamma(1.0 - s + a0) - _loggamma(s + a0))
    second = (
        root
        * np.exp((2.0 * s - 1.0) * math.log(2.0 * math.pi))
        * gr
        * np.sum(A * np.exp((s - 1.0) * np.log(n)) * w2)
    )
    return complex(first + second)


# (k, digest of a, length) -> read-only c(1..length), least recently used first
_SYM2_CACHE: dict = {}


def _sym2_coeffs(f: NewformData, m_max: int):
    """Symmetric-square coefficients c(1..m_max) of f, cached read-only.

    The key is (k, f.digest, m_max), so forms that differ in any coefficient
    never share an entry; the 64 most recently used entries are kept.
    """
    key = (f.k, f.digest, m_max)
    out = _SYM2_CACHE.pop(key, None)
    if out is None:
        out = _sym2_table(f, m_max)
        out.flags.writeable = False
    _SYM2_CACHE[key] = out
    if len(_SYM2_CACHE) > 64:
        del _SYM2_CACHE[next(iter(_SYM2_CACHE))]
    return out


def _sym2_table(f: NewformData, ln: int):
    """c(1..ln), computed afresh.

    c is multiplicative; at p the Satake parameters of f are {alpha, 1/alpha}
    with alpha + 1/alpha = A(p), and c(p^e) = sum_{i+j+l=e} alpha^{2i}
    alpha^{-2l} (complete homogeneous in {alpha^2, 1, alpha^-2}).
    """
    if f.M < min(ln, 2):
        raise InsufficientCoefficientsError(ln)
    vals = {1: 1.0}
    for p in _primes_up_to(ln):
        if p > f.M:
            raise InsufficientCoefficientsError(p)
        ap = float(f.a[p - 1]) * p ** (-(f.k - 1) / 2.0)
        alpha = (ap + np.sqrt(complex(ap * ap - 4.0))) / 2.0
        a2 = alpha * alpha
        b2 = 1.0 / a2
        pe = p
        e = 1
        while pe <= ln:
            acc = 0.0 + 0.0j
            for i in range(e + 1):
                for l in range(e - i + 1):
                    acc += a2**i * b2**l
            vals[pe] = acc.real
            pe *= p
            e += 1
    out = np.ones(ln)
    for n in range(2, ln + 1):
        p = _least_prime_factor(n)
        pe = p ** ord_p(n, p)
        out[n - 1] = vals[pe] * out[n // pe - 1]
    return out


def sym2_L(s, f: NewformData, deriv: int = 0) -> complex:
    """L(s, sym^2 f) for a level-1 newform by the smoothed AFE (entire, root +1).

    ``deriv`` = 1 or 2 returns d/ds or d^2/ds^2 by central differences of the
    AFE values (step 1e-3).
    """
    if f.N != 1:
        raise DomainError("sym2_L implemented for level 1")
    if deriv:
        h = 1e-3
        if deriv == 1:
            vs = [sym2_L(s + k * h, f) for k in (-2, -1, 1, 2)]
            return (vs[0] - 8 * vs[1] + 8 * vs[2] - vs[3]) / (12 * h)
        if deriv == 2:
            vs = [sym2_L(s + k * h, f) for k in (-2, -1, 0, 1, 2)]
            return (-vs[0] + 16 * vs[1] - 30 * vs[2] + 16 * vs[3] - vs[4]) / (
                12 * h * h
            )
        raise DomainError("deriv must be 0, 1 or 2")
    s = complex(s)
    k = f.k

    def log_gamma_factor(u):
        u = np.asarray(u, dtype=complex)
        return (
            -1.5 * u * math.log(math.pi)
            + _loggamma((u + 1.0) / 2.0)
            + _loggamma((u + k - 1.0) / 2.0)
            + _loggamma((u + k) / 2.0)
        )

    base1 = complex(log_gamma_factor(s))
    base2 = complex(log_gamma_factor(1.0 - s))

    def ratio1(w):
        return log_gamma_factor(s + w) - base1

    def ratio2(w):
        return log_gamma_factor(1.0 - s + w) - base2

    length = int(math.ceil((abs(s.imag) + k + 40.0) ** 1.5 / 12.0)) + 120
    c = _sym2_coeffs(f, length)
    n = np.arange(1, length + 1, dtype=float)
    w1 = _mellin_weights(ratio1, 1.0, length, c=4.0, h=0.35)
    w2 = _mellin_weights(ratio2, 1.0, length, c=4.0, h=0.35)
    gr = complex(np.exp(base2 - base1))
    first = np.sum(c * np.exp(-s * np.log(n)) * w1)
    second = gr * np.sum(c * np.exp((s - 1.0) * np.log(n)) * w2)
    return complex(first + second)


def selfdual_rs_L(w, f: NewformData) -> complex:
    """Accurate L(w, f x f~) = zeta(w) L(w, sym^2 f) for level 1."""
    return riemann_zeta(w) * sym2_L(w, f)


def selfdual_rs_constants(f: NewformData) -> dict:
    """Laurent data of L(s, f x f~) at s = 1 for a level-1 form.

    Returns {"residue": R, "finite_part": c0, "linear": c1} in
    L(1 + x) = R/x + c0 + c1 x + O(x^2), computed from
    zeta(1+x) = 1/x + gamma - gamma_1 x + ... and the entire sym^2 factor.
    """
    L1 = sym2_L(1.0, f)
    L1p = sym2_L(1.0, f, deriv=1)
    L1pp = sym2_L(1.0, f, deriv=2)
    g1 = _stieltjes_constants()[1]
    return {
        "residue": complex(L1).real,
        "finite_part": complex(EULER_GAMMA * L1 + L1p).real,
        "linear": complex(-g1 * L1 + EULER_GAMMA * L1p + 0.5 * L1pp).real,
    }


# ---------------------------------------------------------------------------
# the factored twisted Dirichlet series: Eisenstein case


def curly_L_eisenstein_direct(s, t: float, r: float, cusp: CuspLabel, m_max: int = 100_000) -> ValueWithError:
    """zeta^(N)(2s) sum_m sigma_{-2it}(m;N) m^{it} conj(tau_a(1/2+ir, m)) m^{-s}.

    Direct summation; needs Re s > 3/2 and real r (the conjugated
    coefficient array is only available there).
    """
    s = complex(s)
    if s.real <= 1.5:
        raise DomainError("direct twisted series needs Re s > 3/2")
    N = cusp.N
    tau = eisenstein.tau_cusp_array(cusp, 0.5 + 1j * r, m_max)
    sig = arith.sigma_twisted_array(N, t, m_max)
    m = np.arange(1, m_max + 1, dtype=float)
    series = complex(np.sum(sig * np.exp(1j * t * np.log(m)) * np.conj(tau) * m ** (-s)))
    zN = arith.zeta_depleted(2.0 * s, N)
    # |tau(m)| <= C d(m) empirically on the computed range
    dm = divisor_count_upper(m)
    cbound = float(np.max(np.abs(tau) / dm)) if m_max else 1.0
    tail = abs(zN) * cbound * rankin_selberg_tail(s.real, m_max)
    return ValueWithError(complex(zN * series), tail)


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
        np.exp((z - 0.5) * math.log(math.pi))
        * np.exp(_loggamma(0.5 - z))
        * arith.zeta_depleted(1.0 - 2.0 * z, cusp.N)
    )
    return complex(eisenstein.euler_poly(cusp.N, cusp.a, s, t, z) * num / den)


# ---------------------------------------------------------------------------
# the factored twisted Dirichlet series: Maass case


def curly_L_maass_direct(s, t: float, u: MaassFormData, m_max: int | None = None) -> ValueWithError:
    """zeta^(N)(2s) sum_m sigma_{-2it}(m;N) m^{it} conj(rho(m)) m^{-s}."""
    s = complex(s)
    if s.real <= 1.5:
        raise DomainError("direct twisted series needs Re s > 3/2")
    m_max = u.M if m_max is None else m_max
    rho = u.rho(m_max)
    sig = arith.sigma_twisted_array(u.N, t, m_max)
    m = np.arange(1, m_max + 1, dtype=float)
    series = complex(np.sum(sig * np.exp(1j * t * np.log(m)) * rho * m ** (-s)))
    zN = arith.zeta_depleted(2.0 * s, u.N)
    scale = abs(u.rho1) * (1.0 + sum(abs(c) * math.sqrt(d) for d, c in u.lifts.items()))
    tail = abs(zN) * scale * rankin_selberg_tail(s.real, m_max)
    return ValueWithError(complex(zN * series), tail)


def _lam_at(u: MaassFormData, idx: int) -> float:
    """lambda(p^j) with the convention lambda at negative powers = 0."""
    if idx < 1:
        return 0.0
    if idx > u.M:
        raise InsufficientCoefficientsError(idx)
    return float(u.lam[idx - 1])


def _lift_local_factor_display(u: MaassFormData, d: int, s, t) -> complex:
    """An earlier closed form of the Maass local factors that drops the
    p-power correction terms whenever ord_p(N/d) = 1 for p not dividing the
    inner level.  Kept so the mismatch stays pinned by a test; see
    :func:`_lift_local_factor` for the corrected factors."""
    s = complex(s)
    it = 1j * t
    N, L = u.N, u.L
    Nd = N // d
    out = 1.0 + 0.0j
    for p in prime_divisors(N):
        ep = ord_p(Nd, p)
        lp = math.log(p)

        def pw(expo):
            return complex(np.exp(complex(expo) * lp))

        if L % p == 0:
            out *= _lam_at(u, p ** (ep - 1)) * (-pw(-1.0 + s - it) + _lam_at(u, p))
        elif Nd % p == 0:
            big = (
                p
                - _lam_at(u, p) * pw(-s - it)
                - ((p - 1.0) * (1.0 + pw(-2.0 * it)) - pw(-4.0 * it))
                + pw(1.0 - 2.0 * s)
            )
            out *= big / p * _lam_at(u, p ** (ep - 2)) + _lam_at(u, p**ep)
        else:
            out *= (_lam_at(u, p) * pw(-s - it) - (1.0 + pw(-2.0 * it)) * pw(-2.0 * s)) / p
    return out


def _lift_local_factor(u: MaassFormData, d: int, s, t) -> complex:
    """Corrected local factor euler_poly_d(s, it; u) of the Maass twisted series.

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
        lp = math.log(p)

        def pw(expo):
            return complex(np.exp(complex(expo) * lp))

        uu = pw(-2.0 * it)
        if abs(1.0 - uu) < 1e-13:
            raise PoleError("Maass local factor needs t != 0 at composite level")
        yp = pw(-s - it)
        ym = pw(-s + it)
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
            pw(it * delta)
            / (1.0 - uu)
            * (
                (uu ** (delta + 2 - E) - p * uu ** (delta + 1 - E)) * tail(yp)
                + (p - 1.0) * tail(ym)
            )
        )
        out *= (
            pw(E * (s - it) - 1.0)
            * pw(delta * (it - s))
            * s_tilde
            / (lam_loc_p(yp) * lam_loc_p(ym))
        )
    return out


def maass_L(s, u: MaassFormData, tol: float = 1e-9) -> complex:
    """L(s, u) = sum lambda(m) m^{-s} by direct summation (Re s > 1)."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("maass_L direct summation needs Re s > 1")
    m = np.arange(1, u.M + 1, dtype=float)
    val = complex(np.sum(u.lam * np.exp(-s * np.log(m))))
    tail = rankin_selberg_tail(2.0 * s.real - 1.0, u.M)
    if tail > tol * max(1.0, abs(val)):
        raise InsufficientCoefficientsError(4 * u.M)
    return val


def curly_L_maass_factored(s, t: float, u: MaassFormData) -> complex:
    """L(s+it, u) L(s-it, u) N^{-s-it} sum_{d | N/L} c_L(d) rho1 d^{1/2-it} euler_poly_d.

    The local factors have removable singularities at t = 0 for composite
    level; there the symmetric small-t average is returned.
    """
    if u.N > 1 and abs(t) < 1e-9:
        h = 1e-5
        return 0.5 * (curly_L_maass_factored(s, h, u) + curly_L_maass_factored(s, -h, u))
    s = complex(s)
    it = 1j * t
    lift_sum = 0.0 + 0.0j
    for d in divisors(u.N // u.L):
        lift_sum += (
            u.lifts[d]
            * u.rho1
            * complex(np.exp((0.5 - it) * math.log(d)))
            * _lift_local_factor(u, d, s, t)
        )
    return complex(
        maass_L(s + it, u)
        * maass_L(s - it, u)
        * complex(np.exp((-s - it) * math.log(u.N)))
        * lift_sum
    )


def rankin_selberg_maass(s, f: NewformData, u: MaassFormData, m_max: int | None = None) -> ValueWithError:
    """zeta^(N)(2s) sum A(m) rho(m) m^{-s}, truncated with a tail certificate."""
    s = complex(s)
    m_max = min(f.M, u.M) if m_max is None else m_max
    A = f.A(m_max)
    rho = u.rho(m_max)
    m = np.arange(1, m_max + 1, dtype=float)
    val = complex(np.sum(A * rho * np.exp(-s * np.log(m))))
    zN = arith.zeta_depleted(2.0 * s, f.N)
    scale = abs(u.rho1) * (1.0 + sum(abs(c) * math.sqrt(d) for d, c in u.lifts.items()))
    tail = abs(zN) * scale * rankin_selberg_tail(max(s.real, 1.01), m_max)
    return ValueWithError(complex(zN * val), tail)
