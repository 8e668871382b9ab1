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
Each row enters only through its phase sums sum_{d0} e(m d0 / ct), so one
evaluator, ``_eisenstein_x_profile``, gives E_a(x + i y) at any set of x:
the trapezoid grid for ``tau_oracle`` and ``eisenstein_constant_term``, the
single point x = Re z for ``eisenstein_oracle``.

The phase sums are exact closed forms, not sums over residues.  With
G = gcd(ct, N/a), a row's d0 are the units mod ct with d0 = d1 (mod G) for
the unit d1 = -c inv(ct/a) mod G (no row when gcd(ct/a, G) > 1), and

    sum_{d0} e(m d0 / ct) = sum_e mu(e) L e(m r_e / ct),   L = ct / (e G),

over squarefree e | ct with gcd(e, G) = 1 and L | m, r_e = 0 (mod e),
r_e = d1 (mod G) (von Sterneck's Ramanujan-sum argument, Hardy & Wright
section 16.6, when G = 1):

* [gcd(d0, ct) = 1] = sum_{e | gcd(d0, ct)} mu(e); no prime of G divides d0;
* for e prime to G the d0 left are r_e + e G Z mod ct, by the CRT;
* their geometric sum is L [L | m] e(m r_e / ct).

This module also houses the Euler polynomial euler_poly attached to the
factorisation of the twisted Dirichlet series over tau_a (consumed by
``lseries.curly_L_eisenstein_factored``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import kv as _kv_real

from . import arith
from .arith import (
    CuspLabel,
    _pp,
    dirichlet_L_depleted,
    divisors,
    euler_phi,
    mobius,
    ord_p,
    prime_divisors,
)
from .specfun import (
    DirichletCharacter,
    DomainError,
    NonConvergenceError,
    PoleError,
    ValueWithError,
    bessel_K,
    complex_gamma,
    gauss_sum,
    riemann_zeta,
)


class IllConditionedError(RuntimeError):
    """The K-Bessel divisor in the Fourier extraction underflowed."""


class LSeriesZeroError(RuntimeError):
    """A character L-value in a denominator is numerically zero."""


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


def _character_terms(cusp: CuspLabel, s: complex):
    """The outer sum of tau at ``cusp``: for each primitive chi mod q, q | gcd(a, N/a),
    the triple (chi, conj(chi(-c)) q^{-s} tau(chi) / (pi^{-s} Gamma(s) L^{(N)}(2s, chi^2)),
    ``_inner_pairs`` of q)."""
    for q in divisors(cusp.gcd_a):
        pairs = _inner_pairs(cusp.a, cusp.N // cusp.a, q)
        for chi in arith.characters_mod(q):
            if chi.is_primitive:
                yield chi, np.conj(chi(-cusp.c)) * _chi_prefactor(s, chi, cusp.N), pairs


def tau_cusp(cusp: CuspLabel, s, n: int) -> complex:
    """tau_{1/(c a)}(s, n) for n != 0 via the explicit character-sum formula."""
    if n == 0:
        raise DomainError("tau_cusp needs n != 0")
    s = complex(s)
    total = 0.0 + 0.0j
    for chi, pref, pairs in _character_terms(cusp, s):
        inner = 0.0 + 0.0j
        for ell, b, mu, e in pairs:
            if n % e != 0:
                continue
            lam = lambda_chi(n // e, s, chi)
            if lam == 0:
                continue
            inner += mu * chi(ell * b) * (ell * b) ** (-s) * 2.0 * math.sqrt(e) * lam
        total += pref * inner
    g = cusp.gcd_a
    return complex((cusp.N / g) ** (-s) / euler_phi(g) * total)


def tau_cusp_blocks(cusp: CuspLabel, s, m_max: int, block: int):
    """Yield tau_{1/(c a)}(s, m) for m = 1..m_max in blocks of ``block``
    values (the last may be shorter).

    Sieve-based: per character, the divisor sums of one
    ``arith.divisor_sum_blocks`` give lam(m') = conj(chi(m')) m'^{s-1/2}
    sum_{d|m'} chi(d)^2 d^{1-2s}, and each (l, b) pair of that character
    adds its weight times lam(m/e) at the m with e | m.  Past the first
    block, an e >= 2 reads lam at m' <= m_max // 2 from before, so those are
    kept.  The powers d^z, z = 1 - 2s, are d^{Re z} (cos + i sin)(Im z
    log d) with log d from ``arith.log_table``: CPython's complex power for a
    positive real base, so on the line Re s = 1/2 (Re z = 0, where d^{Re z}
    is not formed) they have its bits, and elsewhere numpy's real power
    moves them by about an ulp.  Every value has the same bits at any block
    size.
    """
    s = complex(s)
    z = 1.0 - 2.0 * s
    logs = arith.log_table(m_max)
    half = m_max // 2

    def coeffs_from(chi2, lo):
        # chi(d)^2 d^{1-2s} for d = lo+1..lo+block, with the phase, its sine
        # and its cosine formed in place
        d = np.arange(lo + 1, min(lo + block, m_max) + 1)
        coeffs = chi2.value_array(d)
        powers = np.empty(d.size, dtype=complex)
        np.multiply(logs[lo : lo + d.size], z.imag, out=powers.real)
        np.sin(powers.real, out=powers.imag)
        np.cos(powers.real, out=powers.real)
        if z.real != 0.0:
            modulus = np.power(d, z.real)
            powers.real *= modulus
            powers.imag *= modulus
        np.multiply(coeffs, powers, out=coeffs, where=coeffs != 0)
        return coeffs

    terms = []
    for chi, pref, pairs in _character_terms(cusp, s):
        weights = [(e, pref * mu * chi(ell * b) * (ell * b) ** (-s) * 2.0 * math.sqrt(e))
                   for ell, b, mu, e in pairs]
        sums = arith.divisor_sum_blocks(map(partial(coeffs_from, chi.squared()), range(0, m_max, block)), m_max)
        kept = np.empty(half, dtype=complex) if block < m_max and any(e > 1 for e, _ in weights) else None
        terms.append((chi, weights, sums, kept))
    g = cusp.gcd_a
    scale = (cusp.N / g) ** (-s) / euler_phi(g)

    def tau_from(lo):
        m = np.arange(lo + 1, min(lo + block, m_max) + 1)
        out = None  # made after the first lam, whose temporaries come first
        for chi, weights, sums, kept in terms:
            sums_m = next(sums)  # made before the factors, which would wait in memory
            lam = chi.value_array(m).conj() * m ** (s - 0.5) * sums_m
            del sums_m
            if out is None:
                out = np.zeros(m.size, dtype=complex)
            if kept is not None and lo < half:
                kept[lo : lo + lam.size] = lam[: half - lo]
            earlier = lam if lo == 0 else kept  # lam(m') at index m' - 1, m' <= m[-1] // 2
            for e, w in weights:
                if e == 1:
                    out += w * lam
                    continue
                first = -(lo + 1) % e  # the block index of the first multiple of e
                multiples, k0 = out[first::e], (lo + 1 + first) // e
                multiples += w * earlier[k0 - 1 : k0 - 1 + multiples.size]
        return scale * out

    yield from map(tau_from, range(0, m_max, block))  # map keeps no block alive once it is read


def tau_cusp_array(cusp: CuspLabel, s, m_max: int) -> np.ndarray:
    """tau_{1/(c a)}(s, m) for m = 1..m_max as a vector (index m-1):
    ``tau_cusp_blocks`` in one block."""
    return next(tau_cusp_blocks(cusp, s, m_max, max(m_max, 1)), np.zeros(0, dtype=complex))


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


_PHASE_KMAX = 80  # frequencies m of the row phase sums and of the Bessel row weights
_PHASE_ROWS = 256  # rows of the phase sums built at once: their temporaries stay near 1.3 MB


def _unit_inverse(u, g, order: int):
    """u^(order - 1) mod g elementwise: the inverse of each unit u mod g when phi(g) | order."""
    out = np.ones_like(u)
    base = u % g
    n = order - 1
    while n:
        if n & 1:
            out = out * base % g
        base = base * base % g
        n >>= 1
    return out % g


# Sized to its reuse: one entry is a complex (rows x 80) table, up to
# 2.07 MB at max_height 1600.  Over the bench's oracle part (24 calls a
# seed), the LRU reuse distances at seeds 0, 1, 2, 3, 7, 17, 31 and 45 were
# 0 for 8-9 reuses a seed (a cusp's three requests in a row), 1-5 for 1-4
# more, and 9 and 10 at seed 17.  Four entries kept 9-13 hits a seed against
# 10-13 at 32, where the memo held 11-14 entries (8.5-10.0 MB); a lost hit
# is one 8-15 ms rebuild.  Criterion 3 keeps its 80 hits and 16 misses.
@lru_cache(maxsize=4)
def _row_phase_sums(N: int, a: int, c: int, max_height: int):
    """(ct, row size, S) over the coset rows 0 < ct <= max_height, read-only.

    A row ct = a k with G = gcd(ct, N/a) runs over the units d0 mod ct with
    d0 = d1 (mod G), d1 = -c inv(k) mod G; it is absent when gcd(k, G) > 1
    (no unit d1), and otherwise holds phi(ct) / phi(G) residues.  Its phase
    sums S[i, m - 1] = sum_{d0} e(m d0 / ct_i), m = 1.._PHASE_KMAX, are

        S(ct, m) = sum_e mu(e) L e(m r_e / ct),   L = ct / (e G),

    over squarefree e | ct with gcd(e, G) = 1 and L | m, where r_e = 0 (mod e)
    and r_e = d1 (mod G):

    * [gcd(d0, ct) = 1] = sum_{e | gcd(d0, ct)} mu(e), and no prime of G
      divides d0 because d1 is a unit mod G;
    * for e prime to G the d0 left are r_e + e G Z mod ct (CRT);
    * their geometric sum is L [L | m] e(m r_e / ct).

    With m = L j the phase is e(j x_e / G), x_e = r_e / e = d1 inv(e) mod G.
    Only L <= _PHASE_KMAX contributes, so one pass per L builds every row.
    """
    Na = N // a
    k = np.arange(1, max_height // a + 1)
    G = np.gcd(a * k, Na)
    present = np.gcd(k, G) == 1
    k, G = k[present], G[present]
    cts = a * k
    mu, phi = arith.mobius_phi_arrays(max_height)
    sizes = (phi[cts] // phi[G]).astype(float)
    ph = np.zeros((cts.size, _PHASE_KMAX), dtype=complex)
    order = euler_phi(Na)  # a multiple of phi(G) for every G | N/a
    for L in range(1, _PHASE_KMAX + 1):
        rows = np.flatnonzero(cts % (L * G) == 0)
        g = G[rows]
        e = cts[rows] // (L * g)
        keep = (mu[e] != 0) & (np.gcd(e, g) == 1)
        rows, g, e = rows[keep], g[keep], e[keep]
        x = -c * _unit_inverse(k[rows] * e, g, order) % g
        j = np.arange(1, _PHASE_KMAX // L + 1)
        # _PHASE_ROWS rows at a time, so the phases' temporaries stay small
        for r0 in range(0, rows.size, _PHASE_ROWS):
            b = slice(r0, r0 + _PHASE_ROWS)
            phase = np.exp(2j * math.pi * (np.outer(x[b], j) % g[b, None]) / g[b, None])
            ph[rows[b], L - 1 :: L] += (mu[e[b]] * L)[:, None] * phase
    for arr in (cts, sizes, ph):
        arr.flags.writeable = False
    return cts, sizes, ph


def _bessel_k(nu: complex, y: float) -> complex:
    """K_nu(y): scipy's ``kv`` for real order, ``bessel_K`` otherwise."""
    if abs(nu.imag) < 1e-14:
        return complex(_kv_real(nu.real, y))
    return bessel_K(nu, y)


def _bessel_row_weights(s, y: float):
    """m^{s-1/2} K_{s-1/2}(2 pi m y) for m = 1.._PHASE_KMAX, until negligible."""
    nu = complex(s) - 0.5
    vals = []
    for m in range(1, _PHASE_KMAX + 1):
        kval = _bessel_k(nu, 2.0 * math.pi * m * y)
        vals.append(m**complex(s - 0.5) * kval)
        if abs(vals[-1]) < 1e-19 * (1.0 + abs(vals[0])):
            break
    return np.asarray(vals)


def _eisenstein_x_profile(cusp: CuspLabel, x, y: float, s, trunc: LatticeTruncation):
    """(E(x_j + i y) at every x_j of the array ``x``, tail bound) via exact row sums.

    Rows ct <= max_height enter exactly (the d-sum is done by its 1-d
    Fourier expansion); rows beyond carry the reported tail bound.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("lattice sum needs Re s > 1")
    w = cusp.width
    cts, sizes, ph = _row_phase_sums(cusp.N, cusp.a, cusp.c, trunc.max_height)

    gam_s = complex_gamma(s)
    const_a = math.sqrt(math.pi) * complex_gamma(s - 0.5) / gam_s * y ** (1.0 - 2.0 * s)
    kw = _bessel_row_weights(s, y)
    n_freq = len(kw)
    ctp = cts.astype(float) ** (-2.0 * s)
    const_sum = complex(ctp @ sizes) * const_a
    # the row phase sums sum_{d0} exp(2 pi i m d0 / ct), weighted by ct^{-2s};
    # coeff_neg conjugates their product, not a copy of the cached table
    coeff_pos = 0.5 * (ctp @ ph[:, :n_freq])
    coeff_neg = 0.5 * np.conj(np.conj(ctp) @ ph[:, :n_freq])
    b_fac = 4.0 * np.pi**s / gam_s * y ** (0.5 - s)

    osc = np.zeros(len(x), dtype=complex)
    for midx in range(n_freq):
        m = midx + 1
        e_pos = np.exp(2j * math.pi * m * x)
        osc += kw[midx] * (coeff_pos[midx] * e_pos + coeff_neg[midx] * np.conj(e_pos))
    values = const_sum + b_fac * osc
    if cusp.is_infinity_class:
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
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("z must lie in the upper half plane")
    values, tail = _eisenstein_x_profile(cusp, np.array([z.real]), z.imag, s, trunc)
    total = complex(values[0])
    if tail > 0.5 * abs(total) + 1.0:
        raise NonConvergenceError("lattice tail bound too large", total, tail)
    return ValueWithError(total, tail)


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
    kdiv = _bessel_k(s - 0.5, 2.0 * math.pi * abs(n) * y)
    if abs(kdiv) < 1e-8:
        raise IllConditionedError(
            f"K_(s-1/2)(2 pi |n| y) = {abs(kdiv):.2e} underflows the 1e-8 floor"
        )
    P = trunc.fourier_points
    j = np.arange(P)
    values, _tail = _eisenstein_x_profile(cusp, j / P, y, s, trunc)
    coeff = complex(np.sum(values * np.exp(-2j * math.pi * (n % P) * j / P)) / P)
    return coeff / (math.sqrt(y) * kdiv)


def eisenstein_constant_term(cusp: CuspLabel, y: float, s, trunc: LatticeTruncation) -> complex:
    """int_0^1 E_a(x + i y, s) dx - delta_{a,N} y^s (the tau_a(s,0) y^{1-s} piece)."""
    P = trunc.fourier_points
    values, _ = _eisenstein_x_profile(cusp, np.arange(P) / P, y, s, trunc)
    c0 = complex(np.mean(values))
    if cusp.is_infinity_class:
        c0 -= y ** complex(s)
    return c0


# ---------------------------------------------------------------------------
# the Euler polynomial euler_poly of the factored twisted series


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
        sig = arith.sigma_complex(p**eNa, 2.0 * z)  # sigma_{2z}(p^eNa)
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
    if N > 1 and abs(t) < arith._T_ZERO:
        return arith._small_t_average(lambda h: euler_poly(N, a, s, h, z))
    s = complex(s)
    z = complex(z)
    g = math.gcd(a, N // a)
    rad = math.prod(prime_divisors(N))
    pref = (
        2.0
        * _pp(N, -2j * t) / rad
        * _pp(N / g, -0.5 + z)
        * _pp(a, -s + 0.5 + 1j * t)
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

    It is ``moments.main_term``'s cusp factor; ``main_term_breakdown`` takes
    the same factor from :func:`euler_poly_normalized` instead.
    """
    s = complex(s)
    it = 1j * t
    g = math.gcd(a, N // a)
    out = 2.0 * _pp(N, -0.5 - s - it) * _pp(a / g, -s + 1.5 - it)
    for p in prime_divisors(N // a):
        out *= (1.0 - _pp(p, 1.0 - 2.0 * s)) * (1.0 - _pp(p, -2.0 * it))
    for p in prime_divisors(a):
        if (N // a) % p != 0:
            out *= (1.0 - 1.0 / p) ** 2
    return complex(out)
