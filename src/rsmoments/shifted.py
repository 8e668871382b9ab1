"""Direct-side shifted Dirichlet series.

Three families, all summed in their absolute-convergence regions with
recorded tail certificates:

* D(w; m)  = sum_{n >= 1} a(n+m) conj(b(n)) n^{-w-k+1},
* Z(s, v)  = zeta^(N)(2s) sum_{n,m} sigma_{-2it}(m;N) m^{it} a(n+m)
             conj(b(n)) / (m^v n^{s-v-1/2+k}),
* M3(s, w) = Gamma(k+w-1)/(4 pi)^{k+w-1} zeta^(N)(2s')
             sum_{m, n > m} a(n-m) conj(b(n)) sigma_{-2it}(m;N) m^{it}
             / (m^{s+(k-1)/2} n^{w+k-1}),   s' = s + w + k/2 - 1.

Z is evaluated both as the raw double sum and rearranged through D;
M3 both as the raw double sum and through its inner lower-shifted series
sum_{n > m} a(n-m) conj(b(n)) n^{-w-k+1} (an inner product against a
Poincare series, not the same series as D).  At matched truncations the
two paths traverse the same index set, so agreement tests the
rearrangement bookkeeping at floating precision.

The spectral expansions of Z and M3 need triple-product data that is out
of scope here; the region flags on :class:`ShiftedSeriesRequest` record
where the direct sums are valid so a spectral backend can slot in later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _loggamma

from . import arith
from .lseries import InsufficientCoefficientsError, NewformData
from .specfun import DomainError, ValueWithError

__all__ = [
    "ShiftedSeriesRequest",
    "shifted_D",
    "shifted_inner_lower",
    "Z_series",
    "Z_series_double",
    "M3_series",
    "M3_series_rearranged",
]


@dataclass(frozen=True)
class ShiftedSeriesRequest:
    """Arguments and truncation for the double series Z(s, v; it).

    ``region_ok`` records the absolute-convergence flags: Re(s) > Re(v) + 1
    with Re(v) = 1 + k/2 + eps for Z; Re(w) > 1 for the single series.
    """

    s: complex
    v: complex
    t: float
    N: int
    M_outer: int
    M_inner: int

    def region_ok(self, k: int) -> bool:
        return self.s.real > self.v.real + 1.0 and self.v.real > 1.0 + k / 2.0

    def require_region(self, k: int):
        if not self.region_ok(k):
            raise DomainError(
                "outside the absolute-convergence region: need "
                "Re(s) > Re(v)+1 and Re(v) > 1 + k/2"
            )


def _pair_tail(sig_n: float, n_from: int, extra: float = 1.0) -> float:
    """Bound on sum_{n > n_from} d(n)^2 n^{-sig_n} (divisor-bound certificate)."""
    if n_from < 8:
        n_from = 8
    eps = 2.0 * 1.5379 * math.log(2.0) / math.log(math.log(n_from))
    if sig_n - eps <= 1.0:
        return math.inf
    return extra * n_from ** (1.0 + eps - sig_n) / (sig_n - eps - 1.0)


def _envelope_tail(abs_terms: np.ndarray) -> float:
    """Tail estimate from the decay envelope of the computed outer terms.

    Fits |term(m)| <~ A m^{-c} to the running maximum over the last half of
    the range and extends geometrically; recorded with a safety factor of 3.
    This is an estimate (the fully rigorous divisor-function bound is often
    infinite at desk exponents), and it shrinks like M^{1-c} in the cutoff.
    """
    M = len(abs_terms)
    if M < 32:
        return math.inf
    # geometric block maxima over [M/8, M]: wide enough in log-scale to see
    # the trend through divisor-type fluctuations, robust to isolated spikes
    edges = np.unique(
        np.geomspace(max(8, M // 8), M, 13).astype(int)
    )
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        chunk = abs_terms[lo:hi]
        if chunk.size and chunk.max() > 0:
            xs.append(math.sqrt(lo * hi))
            ys.append(chunk.max())
    if len(xs) < 4:
        return 0.0
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    c = -slope
    if c <= 1.05:
        return math.inf
    a = math.exp(intercept)
    return 3.0 * a * M ** (1.0 - c) / (c - 1.0)


def shifted_D(w, m: int, f: NewformData, g: NewformData, n_max: int) -> ValueWithError:
    """D(w; m) = sum_{n <= n_max} a(n+m) conj(b(n)) n^{-w-k+1} + tail bound.

    Needs Re w > 1 (terms are <= d(n+m) d(n) (1+m/n)^{(k-1)/2} n^{-Re w}).
    """
    w = complex(w)
    if w.real <= 1.0:
        raise DomainError("shifted_D needs Re w > 1")
    if m < 1:
        raise DomainError("shift m must be >= 1")
    k = f.k
    if n_max + m > f.M or n_max > g.M:
        raise InsufficientCoefficientsError(n_max + m)
    n = np.arange(1, n_max + 1, dtype=float)
    terms = f.a[m : m + n_max] * np.conj(g.a[:n_max]) * np.exp(
        (-w - k + 1.0) * np.log(n)
    )
    val = complex(np.sum(terms))
    bulge = (1.0 + m / n_max) ** ((k - 1) / 2.0)
    tail = min(bulge * _pair_tail(w.real, n_max), _envelope_tail(np.abs(terms)))
    return ValueWithError(val, tail)


def shifted_inner_lower(w, m: int, f: NewformData, g: NewformData, n_max: int) -> ValueWithError:
    """sum_{n = m+1}^{m + n_max} a(n-m) conj(b(n)) n^{-w-k+1} + tail bound."""
    w = complex(w)
    if w.real <= 1.0:
        raise DomainError("shifted_inner_lower needs Re w > 1")
    k = f.k
    if n_max > f.M or n_max + m > g.M:
        raise InsufficientCoefficientsError(n_max + m)
    n = np.arange(m + 1, m + n_max + 1, dtype=float)
    terms = f.a[:n_max] * np.conj(g.a[m : m + n_max]) * np.exp(
        (-w - k + 1.0) * np.log(n)
    )
    val = complex(np.sum(terms))
    tail = min(_pair_tail(w.real, n_max + m), _envelope_tail(np.abs(terms)))
    return ValueWithError(val, tail)


def _sigma_weights(N: int, t: float, m_max: int) -> np.ndarray:
    m = np.arange(1, m_max + 1, dtype=float)
    return arith.sigma_twisted_array(N, t, m_max) * np.exp(1j * t * np.log(m))


def Z_series_double(req: ShiftedSeriesRequest, f: NewformData, g: NewformData) -> ValueWithError:
    """Z as the raw truncated double sum (n inner, m outer)."""
    req.require_region(f.k)
    s, v, t, N = complex(req.s), complex(req.v), req.t, req.N
    k = f.k
    Mo, Mi = req.M_outer, req.M_inner
    if Mi + Mo > f.M or Mi > g.M:
        raise InsufficientCoefficientsError(Mi + Mo)
    sig = _sigma_weights(N, t, Mo)
    n = np.arange(1, Mi + 1, dtype=float)
    n_pow = np.exp(-(s - v - 0.5 + k) * np.log(n)) * np.conj(g.a[:Mi])
    total = 0.0 + 0.0j
    outer_abs = np.zeros(Mo)
    for m in range(1, Mo + 1):
        if sig[m - 1] == 0:
            continue
        term = sig[m - 1] * m ** (-v) * np.dot(f.a[m : m + Mi], n_pow)
        total += term
        outer_abs[m - 1] = abs(term)
    zN = arith.zeta_depleted(2.0 * s, N)
    k_half = (k - 1) / 2.0
    tail = abs(zN) * (
        _pair_tail(s.real - v.real - 0.5 + k - k_half, Mi)
        + _envelope_tail(outer_abs)
    )
    return ValueWithError(complex(zN * total), tail)


def Z_series(req: ShiftedSeriesRequest, f: NewformData, g: NewformData) -> ValueWithError:
    """Z rearranged through the inner shifted series:

    zeta^(N)(2s) sum_m sigma_{-2it}(m; N) m^{it} m^{-v} D(s - v + 1/2; m)

    (the production path; at matched truncations it traverses the same
    finite index set as the double sum).
    """
    req.require_region(f.k)
    s, v, t, N = complex(req.s), complex(req.v), req.t, req.N
    w = s - v + 0.5
    Mo, Mi = req.M_outer, req.M_inner
    sig = _sigma_weights(N, t, Mo)
    total = 0.0 + 0.0j
    inner_tail_total = 0.0
    outer_abs = np.zeros(Mo)
    for m in range(1, Mo + 1):
        if sig[m - 1] == 0:
            continue
        d_val = shifted_D(w, m, f, g, Mi)
        weight = sig[m - 1] * m ** (-complex(v))
        total += weight * d_val.value
        outer_abs[m - 1] = abs(weight * d_val.value)
        inner_tail_total += abs(weight) * d_val.error
    zN = arith.zeta_depleted(2.0 * s, N)
    tail = abs(zN) * (inner_tail_total + _envelope_tail(outer_abs))
    return ValueWithError(complex(zN * total), tail)


def M3_series(s, w, t: float, f: NewformData, g: NewformData, N: int, M_outer: int, M_inner: int) -> ValueWithError:
    """The double series with prefactor Gamma(k+w-1)/(4 pi)^{k+w-1}."""
    s, w = complex(s), complex(w)
    if s.real <= 1.0 or w.real <= 1.0:
        raise DomainError("M3_series needs Re s > 1 and Re w > 1")
    k = f.k
    if M_inner > f.M or M_outer + M_inner > g.M:
        raise InsufficientCoefficientsError(M_outer + M_inner)
    sp = s + w + k / 2.0 - 1.0
    sig = _sigma_weights(N, t, M_outer)
    # n^{-w-k+1} for n = 1..M_outer+M_inner; row m reads n = m+1..m+M_inner
    n_pow = np.exp((-w - k + 1.0) * np.log(np.arange(1, M_outer + M_inner + 1, dtype=float)))
    total = 0.0 + 0.0j
    outer_abs = np.zeros(M_outer)
    for m in range(1, M_outer + 1):
        if sig[m - 1] == 0:
            continue
        term = sig[m - 1] * m ** (-(s + (k - 1) / 2.0)) * np.dot(
            f.a[:M_inner] * np.conj(g.a[m : m + M_inner]), n_pow[m : m + M_inner]
        )
        total += term
        outer_abs[m - 1] = abs(term)
    pref = np.exp(
        _loggamma(k + w - 1.0) - (k + w - 1.0) * math.log(4.0 * math.pi)
    ) * arith.zeta_depleted(2.0 * sp, N)
    tail = abs(pref) * (_pair_tail(w.real, M_inner) + _envelope_tail(outer_abs))
    return ValueWithError(complex(pref * total), tail)


def M3_series_rearranged(s, w, t: float, f: NewformData, g: NewformData, N: int, M_outer: int, M_inner: int) -> ValueWithError:
    """M3 through the inner lower-shifted series, term by term in m."""
    s, w = complex(s), complex(w)
    if s.real <= 1.0 or w.real <= 1.0:
        raise DomainError("M3_series needs Re s > 1 and Re w > 1")
    k = f.k
    sp = s + w + k / 2.0 - 1.0
    sig = _sigma_weights(N, t, M_outer)
    total = 0.0 + 0.0j
    inner_tail_total = 0.0
    outer_abs = np.zeros(M_outer)
    for m in range(1, M_outer + 1):
        if sig[m - 1] == 0:
            continue
        inner = shifted_inner_lower(w, m, f, g, M_inner)
        weight = sig[m - 1] * m ** (-(s + (k - 1) / 2.0))
        total += weight * inner.value
        outer_abs[m - 1] = abs(weight * inner.value)
        inner_tail_total += abs(weight) * inner.error
    pref = np.exp(
        _loggamma(k + w - 1.0) - (k + w - 1.0) * math.log(4.0 * math.pi)
    ) * arith.zeta_depleted(2.0 * sp, N)
    tail = abs(pref) * (inner_tail_total + _envelope_tail(outer_abs))
    return ValueWithError(complex(pref * total), tail)
