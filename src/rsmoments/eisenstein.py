"""Fourier coefficients of Eisenstein series at the cusps of Gamma_0(N).

Two independent routes to the same numbers:

* ``tau_cusp`` evaluates the explicit character-sum formula for the
  coefficient tau_a(s, n) at the cusp 1/(c a): an outer sum over moduli
  q | gcd(a, N/a) and primitive characters mod q, a Gauss-sum prefactor,
  and an inner Moebius-weighted sum over l | a, b | N/a subject to
  gcd(b l, q) = 1 and b(a/(q l)) | n.

* ``eisenstein_oracle`` / ``tau_oracle`` compute the coset sum
  E_a(z, s) = sum Im(sigma_a^{-1} gamma z)^s directly and extract Fourier
  coefficients numerically with a trapezoid rule, dividing by
  sqrt(y) K_{s-1/2}(2 pi |n| y).

The oracle enumerates bottom rows (ct, dt) of sigma_a^{-1} Gamma_0(N): with
the scaling matrix built from [[1, 0], [c a, 1]] and the width
w = N / gcd(a^2, N), a pair with ct > 0 is a coset row iff a | ct and
inv(dt) * (-ct/a) * inv(c) = 1 holds modulo gcd(ct, N/a).  The inner sum
over a residue class d = d0 (mod ct) is evaluated in closed form through
its own Fourier expansion (a one-dimensional Poisson summation), which is
exact in d; only the row height ct is truncated, with a reported tail bound.

This module also houses the Euler polynomial euler_poly attached to the
factorisation of the twisted Dirichlet series over tau_a (consumed by
``lseries.curly_L_eisenstein``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import kv as _kv_real

from . import arith
from .arith import CuspLabel, divisors, euler_phi, mobius, ord_p, prime_divisors
from .specfun import (
    DirichletCharacter,
    DomainError,
    NonConvergenceError,
    PoleError,
    ValueWithError,
    bessel_K,
    complex_gamma,
    dirichlet_L_depleted,
    gauss_sum,
    riemann_zeta,
)

__all__ = [
    "EisensteinCoefficientRequest",
    "LatticeTruncation",
    "IllConditionedError",
    "LSeriesZeroError",
    "lambda_chi",
    "tau_cusp",
    "tau_cusp_array",
    "tau_level_one",
    "eisenstein_oracle",
    "tau_oracle",
    "euler_poly",
    "euler_poly_normalized",
]


class IllConditionedError(RuntimeError):
    """The K-Bessel divisor in the Fourier extraction underflowed."""


class LSeriesZeroError(RuntimeError):
    """A character L-value in a denominator is numerically zero."""


@dataclass(frozen=True)
class EisensteinCoefficientRequest:
    """A coefficient request: cusp, complex argument s, nonzero index n.

    The character-sum formula is valid wherever its L-denominators are
    finite; oracle comparisons additionally need Re s > 1 for the lattice
    sum to converge.
    """

    cusp: CuspLabel
    s: complex
    n: int

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("coefficient index n must be nonzero")

    def evaluate(self) -> complex:
        return tau_cusp(self.cusp, self.s, self.n)

    def evaluate_oracle(self, trunc: "LatticeTruncation") -> complex:
        return tau_oracle(self.cusp, self.s, self.n, trunc)


@dataclass(frozen=True)
class LatticeTruncation:
    """Cutoffs for the direct coset sum and the Fourier extraction."""

    max_height: int = 600
    fourier_y: float = 0.5
    fourier_points: int = 128

    def __post_init__(self):
        if self.max_height < 10:
            raise ValueError("max_height must be >= 10")
        p = self.fourier_points
        if p < 64 or (p & (p - 1)) != 0:
            raise ValueError("fourier_points must be a power of two >= 64")
        if self.fourier_y <= 0:
            raise ValueError("fourier_y must be positive")


# ---------------------------------------------------------------------------
# the explicit coefficient formula


def lambda_chi(n: int, s, chi: DirichletCharacter):
    """lambda_chi(n, s) = conj(chi(n)) |n|^{s-1/2} sum_{d | |n|} chi(d)^2 d^{1-2s}.

    Vanishes when gcd(n, q) > 1 (through chi(n) = 0).
    """
    if n == 0:
        raise DomainError("lambda_chi needs n != 0")
    s = complex(s)
    top = np.conj(chi(n))
    if top == 0:
        return 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for d in divisors(abs(n)):
        cd = chi(d)
        acc += cd * cd * d ** (1.0 - 2.0 * s)
    return complex(top * abs(n) ** (s - 0.5) * acc)


def _chi_prefactor(s, chi: DirichletCharacter, N: int):
    """q^{-s} tau(chi) / (pi^{-s} Gamma(s) L^{(N)}(2s, chi^2))."""
    q = chi.modulus
    lval = dirichlet_L_depleted(2.0 * s, chi.squared(), N)
    if abs(lval) < 1e-12:
        raise LSeriesZeroError("L^(N)(2s, chi^2) numerically zero")
    gam = complex_gamma(s)
    if not np.isfinite(gam) or abs(gam) == 0.0:
        raise PoleError("Gamma(s) not finite in tau_cusp prefactor")
    return q ** (-s) * gauss_sum(chi) * np.pi**s / (gam * lval)


def _inner_pairs(a: int, Na: int, q: int):
    """(l, b, e0 = a/(q l)) with l | a, b | N/a, gcd(b l, q) = 1, q l | a."""
    out = []
    for ell in divisors(a):
        if a % (q * ell) != 0:
            continue
        mu_l = mobius(ell)
        if mu_l == 0:
            continue
        for b in divisors(Na):
            mu_b = mobius(b)
            if mu_b == 0 or math.gcd(b * ell, q) != 1:
                continue
            out.append((ell, b, mu_l * mu_b, b * (a // (q * ell))))
    return out


def tau_cusp(cusp: CuspLabel, s, n: int) -> complex:
    """tau_{1/(c a)}(s, n) for n != 0 via the explicit character-sum formula."""
    if n == 0:
        raise DomainError("tau_cusp needs n != 0")
    s = complex(s)
    N, a, c = cusp.N, cusp.a, cusp.c
    g = cusp.gcd_a
    Na = N // a
    total = 0.0 + 0.0j
    for q in divisors(g):
        for chi in arith.characters_mod(q):
            if not chi.is_primitive:
                continue
            pref = np.conj(chi(-c)) * _chi_prefactor(s, chi, N)
            inner = 0.0 + 0.0j
            for ell, b, mu, e in _inner_pairs(a, Na, q):
                if n % e != 0:
                    continue
                lam = lambda_chi(n // e, s, chi)
                if lam == 0:
                    continue
                inner += mu * chi(ell * b) * (ell * b) ** (-s) * 2.0 * math.sqrt(e) * lam
            total += pref * inner
    return complex((N / g) ** (-s) / euler_phi(g) * total)


def tau_cusp_array(cusp: CuspLabel, s, m_max: int) -> np.ndarray:
    """tau_{1/(c a)}(s, m) for m = 1..m_max as a vector (index m-1).

    Sieve-based: one divisor-sum pass per character, then scatter over the
    arithmetic progressions e | m.
    """
    s = complex(s)
    N, a, c = cusp.N, cusp.a, cusp.c
    g = cusp.gcd_a
    Na = N // a
    m = np.arange(1, m_max + 1)
    out = np.zeros(m_max, dtype=complex)
    for q in divisors(g):
        for chi in arith.characters_mod(q):
            if not chi.is_primitive:
                continue
            pref = np.conj(chi(-c)) * _chi_prefactor(s, chi, N)
            # divisor sums sum_{d|m'} chi(d)^2 d^{1-2s} for all m' <= m_max
            divsum = np.zeros(m_max, dtype=complex)
            chi_sq = chi.squared()
            for d in range(1, m_max + 1):
                cd = chi_sq(d)
                if cd != 0:
                    divsum[d - 1 :: d] += cd * d ** (1.0 - 2.0 * s)
            lam = chi.value_array(m).conj() * m ** (s - 0.5) * divsum
            for ell, b, mu, e in _inner_pairs(a, Na, q):
                w = pref * mu * chi(ell * b) * (ell * b) ** (-s) * 2.0 * math.sqrt(e)
                out[e - 1 :: e] += w * lam[: m_max // e]
    return (N / g) ** (-s) / euler_phi(g) * out


def tau_level_one(s, n: int) -> complex:
    """Classical level-1 coefficient 2 pi^s |n|^{s-1/2} sigma_{1-2s}(|n|) / (Gamma(s) zeta(2s))."""
    s = complex(s)
    return complex(
        2.0
        * np.pi**s
        * abs(n) ** (s - 0.5)
        * arith.sigma_complex(abs(n), 1.0 - 2.0 * s)
        / (complex_gamma(s) * riemann_zeta(2.0 * s))
    )


# ---------------------------------------------------------------------------
# the lattice-sum oracle


@lru_cache(maxsize=512)
def _valid_rows(N: int, a: int, c: int, max_height: int):
    """Valid bottom rows of sigma_a^{-1} Gamma_0(N): list of (ct, array-of-d0).

    For ct > 0, d0 ranges over residues mod ct with gcd(d0, ct) = 1 such that
    alpha = inv(d0) mod ct is compatible with alpha = -(ct/a) inv(c) mod N/a.
    """
    Na = N // a
    rows = []
    for ct in range(a, max_height + 1, a):
        gmod = math.gcd(ct, Na)
        alpha1 = (-(ct // a) * pow(c, -1, Na)) % Na if Na > 1 else 0
        d0 = np.arange(ct)
        keep = np.gcd(d0, ct) == 1
        if gmod > 1:
            keep &= (alpha1 * d0 - 1) % gmod == 0
        good = d0[keep]
        if good.size:
            rows.append((ct, good))
    return tuple(rows)


def _ramanujan_sums(q, m) -> np.ndarray:
    """c_q(m) = sum_{d mod q, gcd(d, q) = 1} e(m d / q), q and m broadcast.

    Von Sterneck's closed form mu(q/g) phi(q) / phi(q/g), g = gcd(q, m), in
    exact integers.
    """
    q, m = np.broadcast_arrays(np.asarray(q, dtype=np.int64), np.asarray(m, dtype=np.int64))
    qg = q // np.gcd(q, m)
    top = int(q.max())
    mu = np.array([0] + [mobius(j) for j in range(1, top + 1)], dtype=np.int64)
    phi = np.array([0] + [euler_phi(j) for j in range(1, top + 1)], dtype=np.int64)
    return mu[qg] * (phi[q] // phi[qg])


_PHASE_KMAX = 80  # the default kmax of _bessel_row_weights


@lru_cache(maxsize=32)
def _row_phase_sums(N: int, a: int, c: int, max_height: int):
    """(ct, row size, S) over the rows of ``_valid_rows``, read-only.

    S[i, m - 1] = sum_{d0} e(m d0 / ct_i) for m = 1.._PHASE_KMAX.  A row with
    no congruence on d0 (gcd(ct, N/a) = 1) runs over every unit mod ct, so
    its sum is the Ramanujan sum c_ct(m); the other rows are summed directly.
    """
    rows = _valid_rows(N, a, c, max_height)
    cts = np.array([ct for ct, _ in rows], dtype=np.int64)
    sizes = np.array([len(d0s) for _, d0s in rows], dtype=float)
    mvec = np.arange(1, _PHASE_KMAX + 1)
    ph = _ramanujan_sums(cts[:, None], mvec[None, :]).astype(complex)
    for i, (ct, d0s) in enumerate(rows):
        if math.gcd(ct, N // a) > 1:
            ph[i] = np.exp(2j * math.pi * np.outer(mvec, d0s / ct)).sum(axis=1)
    for arr in (cts, sizes, ph):
        arr.flags.writeable = False
    return cts, sizes, ph


def _bessel_row_weights(s, y: float, kmax: int = _PHASE_KMAX):
    """m^{s-1/2} K_{s-1/2}(2 pi m y) for m = 1.. until negligible."""
    nu = complex(s) - 0.5
    vals = []
    for m in range(1, kmax + 1):
        arg = 2.0 * math.pi * m * y
        if abs(nu.imag) < 1e-14:
            kval = complex(_kv_real(nu.real, arg))
        else:
            kval = bessel_K(nu, arg)
        vals.append(m**complex(s - 0.5) * kval)
        if abs(vals[-1]) < 1e-19 * (1.0 + abs(vals[0])):
            break
    return np.asarray(vals)


def _eisenstein_x_profile(cusp: CuspLabel, y: float, s, trunc: LatticeTruncation):
    """(E(x_j + i y) on the trapezoid grid, tail bound) via exact row sums.

    x_j = j / P, j = 0..P-1.  Rows ct <= max_height enter exactly (the d-sum
    is done by its 1-d Fourier expansion); rows beyond carry the reported
    tail bound.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("lattice sum needs Re s > 1")
    N, a = cusp.N, cusp.a
    w = cusp.width
    P = trunc.fourier_points
    cts, sizes, ph = _row_phase_sums(N, a, cusp.c, trunc.max_height)

    gam_s = complex_gamma(s)
    const_a = math.sqrt(math.pi) * complex_gamma(s - 0.5) / gam_s * y ** (1.0 - 2.0 * s)
    kw = _bessel_row_weights(s, y)
    n_freq = len(kw)
    ctp = cts.astype(float) ** (-2.0 * s)
    const_sum = complex(ctp @ sizes) * const_a
    # the row phase sums sum_{d0} exp(2 pi i m d0 / ct), weighted by ct^{-2s}
    coeff_pos = 0.5 * (ctp @ ph[:, :n_freq])
    coeff_neg = 0.5 * (ctp @ np.conj(ph[:, :n_freq]))
    b_fac = 4.0 * np.pi**s / gam_s * y ** (0.5 - s)

    x = np.arange(P) / P
    osc = np.zeros(P, dtype=complex)
    for midx in range(n_freq):
        m = midx + 1
        e_pos = np.exp(2j * math.pi * m * x)
        osc += kw[midx] * (coeff_pos[midx] * e_pos + coeff_neg[midx] * np.conj(e_pos))
    values = const_sum + b_fac * osc
    if a == N:
        values = values + 1.0  # identity coset, w = 1 in that case
    values = values * (y / w) ** s

    # rows ct > H: per row <= ct * |const_a| * ct^{-2 Re s} (+ small K part)
    sig = s.real
    H = trunc.max_height
    tail = (
        abs((y / w) ** s)
        * (abs(const_a) + abs(b_fac) * float(np.sum(np.abs(kw))))
        * H ** (2.0 - 2.0 * sig)
        / (2.0 * sig - 2.0)
    )
    return values, tail


def eisenstein_oracle(cusp: CuspLabel, z: complex, s, trunc: LatticeTruncation) -> ValueWithError:
    """Truncated coset sum E_a(z, s) with a tail bound, Re s > 1.

    Rows of sigma_a^{-1} Gamma_0(N) up to ``max_height`` are summed; the
    residue-class d-sums are exact.  Raises on non-convergence when the tail
    bound exceeds the value scale.
    """
    s = complex(s)
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("z must lie in the upper half plane")
    if s.real <= 1.0:
        raise DomainError("eisenstein_oracle needs Re s > 1")
    N, a = cusp.N, cusp.a
    w = cusp.width
    y = z.imag
    x = z.real
    rows = _valid_rows(N, a, cusp.c, trunc.max_height)
    gam_s = complex_gamma(s)
    const_a = math.sqrt(math.pi) * complex_gamma(s - 0.5) / gam_s * y ** (1.0 - 2.0 * s)
    kw = _bessel_row_weights(s, y)
    b_fac = 4.0 * np.pi**s / gam_s * y ** (0.5 - s)
    total = 1.0 + 0.0j if a == N else 0.0 + 0.0j
    mvec = np.arange(1, len(kw) + 1)
    for ct, d0s in rows:
        d0a = np.asarray(d0s, dtype=float)
        u = x + d0a[:, None] / ct  # (d0, 1)
        osc = np.cos(2.0 * math.pi * mvec[None, :] * u)  # (d0, m)
        row = len(d0s) * const_a + b_fac * complex((osc @ kw).sum())
        total += ct ** (-2.0 * s) * row
    total *= (y / w) ** s
    sig = s.real
    H = trunc.max_height
    tail = (
        abs((y / w) ** s)
        * (abs(const_a) + abs(b_fac) * float(np.sum(np.abs(kw))))
        * H ** (2.0 - 2.0 * sig)
        / (2.0 * sig - 2.0)
    )
    if tail > 0.5 * abs(total) + 1.0:
        raise NonConvergenceError("lattice tail bound too large", total, tail)
    return ValueWithError(complex(total), tail)


def tau_oracle(cusp: CuspLabel, s, n: int, trunc: LatticeTruncation) -> complex:
    """Numerical Fourier extraction of tau_a(s, n) at height y = fourier_y.

    (1 / (sqrt(y) K_{s-1/2}(2 pi |n| y))) * int_0^1 E_a(x + i y, s)
    e^{-2 pi i n x} dx, the integral by the trapezoid rule on
    ``fourier_points`` samples.
    """
    if n == 0:
        raise DomainError("tau_oracle needs n != 0")
    s = complex(s)
    y = trunc.fourier_y
    nu = s - 0.5
    if abs(nu.imag) < 1e-14:
        kdiv = complex(_kv_real(nu.real, 2.0 * math.pi * abs(n) * y))
    else:
        kdiv = bessel_K(nu, 2.0 * math.pi * abs(n) * y)
    if abs(kdiv) < 1e-8:
        raise IllConditionedError(
            f"K_(s-1/2)(2 pi |n| y) = {abs(kdiv):.2e} underflows the 1e-8 floor"
        )
    values, _tail = _eisenstein_x_profile(cusp, y, s, trunc)
    P = trunc.fourier_points
    j = np.arange(P)
    coeff = complex(np.sum(values * np.exp(-2j * math.pi * (n % P) * j / P)) / P)
    return coeff / (math.sqrt(y) * kdiv)


def eisenstein_constant_term(cusp: CuspLabel, y: float, s, trunc: LatticeTruncation) -> complex:
    """int_0^1 E_a(x + i y, s) dx - delta_{a,N} y^s (the tau_a(s,0) y^{1-s} piece)."""
    values, _ = _eisenstein_x_profile(cusp, y, s, trunc)
    c0 = complex(np.mean(values))
    if cusp.a == cusp.N:
        c0 -= y ** complex(s)
    return c0


# ---------------------------------------------------------------------------
# the Euler polynomial euler_poly of the factored twisted series


def _pp(p: int, expo) -> complex:
    """p**expo for complex expo."""
    return complex(np.exp(complex(expo) * math.log(p)))


def _sigma_power(p: int, z, e: int) -> complex:
    """sigma_{2z}(p^e) = sum_{j=0..e} p^{2 z j}."""
    x = _pp(p, 2.0 * z)
    acc = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for _ in range(e):
        term *= x
        acc += term
    return acc


def _euler_poly_local(p: int, eN: int, ea: int, s, t, z) -> complex:
    """Local factor of euler_poly at p | N for the cusp parameter a with ord_p(a)=ea."""
    s = complex(s)
    z = complex(z)
    it = 1j * t
    eNa = eN - ea
    one_m_2it = 1.0 - _pp(p, -2.0 * it)
    if abs(one_m_2it) < 1e-13:
        raise PoleError("euler_poly local factor needs t != 0 (removable at t=0)")
    if ea >= 1 and eNa >= 1:
        zp = (
            (1.0 - _pp(p, -s - it - z))
            * (1.0 - _pp(p, -s + it - z))
            * (1.0 - _pp(p, -s - it + z))
            * (1.0 - _pp(p, -s + it + z))
        )
        sig = _sigma_power(p, z, eNa)
        brace1 = -1.0 + (
            1.0
            - _pp(p, -1.0 + 2.0 * z)
            + (
                _pp(p, -2.0 * it) * (1.0 - _pp(p, 1.0 + 2.0 * it)) * (1.0 - _pp(p, -s - it + z))
                + (p - 1.0) * (1.0 - _pp(p, -s + it + z))
            )
            / one_m_2it
        ) * _pp(p, -2.0 * z) * (sig - 1.0)
        term1 = zp * _pp(p, -(eNa - 1.0) * (s - it + z)) * brace1
        brace2 = (
            _pp(p, -4.0 * it)
            * (1.0 - _pp(p, 1.0 + 2.0 * it))
            * (1.0 - _pp(p, -1.0 + s + it + z))
            * (1.0 - _pp(p, -s + it - z))
            * (sig * (1.0 - _pp(p, -s - it - z)) + _pp(p, -s - it - z))
            + (p - 1.0)
            * (1.0 - _pp(p, -1.0 + s - it + z))
            * (1.0 - _pp(p, -s - it - z))
            * (sig * (1.0 - _pp(p, -s + it - z)) + _pp(p, -s + it - z))
        )
        term2 = (
            _pp(p, -eNa * (s - it + z))
            * (1.0 - _pp(p, -s - it + z))
            * (1.0 - _pp(p, -s + it + z))
            / one_m_2it
            * brace2
        )
        return term1 + term2
    if ea >= 1:  # p | a, p does not divide N/a
        return (
            _pp(p, -4.0 * it)
            * (1.0 - _pp(p, 1.0 + 2.0 * it))
            * (1.0 - _pp(p, -1.0 + s + it + z))
            * (1.0 - _pp(p, -s + it - z))
            * (1.0 - _pp(p, -s + it + z))
            + (p - 1.0)
            * (1.0 - _pp(p, -1.0 + s - it + z))
            * (1.0 - _pp(p, -s - it - z))
            * (1.0 - _pp(p, -s - it + z))
        ) / one_m_2it
    # p | N/a, p does not divide a
    brace = -(1.0 - _pp(p, -s + it - z)) * (1.0 - _pp(p, -s - it - z)) + (
        _pp(p, -2.0 * it)
        * (1.0 - _pp(p, 1.0 + 2.0 * it))
        * (1.0 - _pp(p, -s + it - z))
        * _pp(p, -s - it - z)
        + (p - 1.0) * (1.0 - _pp(p, -s - it - z)) * _pp(p, -s + it - z)
    ) / one_m_2it
    return (
        _pp(p, -(eNa - 1.0) * (s - it + z))
        * (1.0 - _pp(p, -s - it + z))
        * (1.0 - _pp(p, -s + it + z))
        * brace
    )


def euler_poly(N: int, a: int, s, t, z) -> complex:
    """The Euler polynomial euler_poly_{1/(c a)}(s, it; z); independent of c.

    z occupies the "ir" slot and may be any complex number (notably the
    specialisations z = 1 - s +- it).  The local factors carry removable
    (1 - p^{-2it}) denominators; at t = 0 the value is taken as the
    symmetric small-t average, which cancels the odd error term.
    """
    if N % a != 0:
        raise ValueError("euler_poly needs a | N")
    if N > 1 and abs(t) < 1e-9:
        h = 1e-5
        return 0.5 * (euler_poly(N, a, s, h, z) + euler_poly(N, a, s, -h, z))
    s = complex(s)
    z = complex(z)
    g = math.gcd(a, N // a)
    rad = 1
    for p in prime_divisors(N):
        rad *= p
    pref = (
        2.0
        * complex(np.exp(-2j * t * math.log(N))) / rad
        * complex((N / g) ** (-0.5 + z))
        * complex(a ** (-s + 0.5 + 1j * t))
        / euler_phi(g)
    )
    out = pref
    for p in prime_divisors(N):
        out *= _euler_poly_local(p, ord_p(N, p), ord_p(a, p), s, t, z)
    return complex(out)


def euler_poly_normalized(N: int, a: int, s, t, sign: int) -> complex:
    """euler_poly_{1/(c a)}(s, it; 1 - s + sign*it) / prod_{p|N} (1 - p^{1-2s+sign*2it})."""
    s = complex(s)
    z = 1.0 - s + sign * 1j * t
    denom = 1.0 + 0.0j
    for p in prime_divisors(N):
        denom *= 1.0 - _pp(p, 1.0 - 2.0 * s + sign * 2j * t)
    if abs(denom) < 1e-13 and N > 1:
        raise PoleError("normalising product vanishes")
    return euler_poly(N, a, s, t, z) / denom


def euler_poly_normalized_closed_minus(N: int, a: int, s, t) -> complex:
    """Closed form of euler_poly(s, it; 1-s-it)/prod(1-p^{1-2s-2it}):

    2 N^{-1/2-s-it} (a/gcd(a, N/a))^{-s+3/2-it}
    prod_{p | N/a} (1-p^{1-2s})(1-p^{-2it}) prod_{p|a, p ndiv N/a} (1-p^{-1})^2.
    """
    s = complex(s)
    it = 1j * t
    g = math.gcd(a, N // a)
    out = 2.0 * complex(N ** (-0.5 - s - it)) * complex((a / g) ** (-s + 1.5 - it))
    for p in prime_divisors(N // a):
        out *= (1.0 - _pp(p, 1.0 - 2.0 * s)) * (1.0 - _pp(p, -2.0 * it))
    for p in prime_divisors(a):
        if (N // a) % p != 0:
            out *= (1.0 - 1.0 / p) ** 2
    return complex(out)
