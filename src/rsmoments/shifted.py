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
rearrangement bookkeeping at floating precision.  Each series' two paths
share their set-up and sum their own terms: Z's request checks its region
and the coefficient lengths (``ShiftedSeriesRequest.require_region``), and
``_m3_setup`` gives both M3 paths their checked (s, w), outer weights and
prefactor Gamma(k+w-1)/(4 pi)^{k+w-1} zeta^(N)(2s').

The rearranged paths form the factor that carries n once per call, and
each shift's row is the dot of a sliding window onto it (or onto the
coefficients) with a fixed vector, every row at once, with no array of the
terms; the envelope's block maxima come from the moduli of the same two
factors, one fit serves all rows, and the weighted outer sum is accumulated
over m in order.  ``shifted_D`` and
``shifted_inner_lower`` are the one-row case of the same evaluation.  The
raw paths instead form every term, a block of rows at a time
(``_raw_rows``), and reach neither ``_window_dots`` nor ``_shift_rows``.

The spectral expansions of Z and M3 need triple-product data that is out
of scope here; the region flags on :class:`ShiftedSeriesRequest` record
where the direct sums are valid so a spectral backend can slot in later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import loggamma as _loggamma

from . import arith
from .lseries import InsufficientCoefficientsError, NewformData, rankin_selberg_tail
from .specfun import DomainError, ValueWithError

# |terms| per block of rows whose envelope maxima are taken (256 kB of
# floats), and partial sums per block of windowed dots
_BLOCK_TERMS = 1 << 15
# terms per block of rows of a raw double series: its real products are 1 MB
_RAW_TERMS = 1 << 17
# columns per partial dot of a window: numpy sums a strided matrix-vector
# product term by term, so its rounding grows with the columns summed at once
_DOT_COLUMNS = 128


@dataclass(frozen=True)
class ShiftedSeriesRequest:
    """Arguments and truncation for the double series Z(s, v; it).

    ``region_ok`` records the absolute-convergence flags: Re(s) > Re(v) + 1
    with Re(v) = 1 + k/2 + eps for Z; Re(w) > 1 for the single series.
    Both truncations must keep at least one term.
    """

    s: complex
    v: complex
    t: float
    N: int
    M_outer: int
    M_inner: int

    def __post_init__(self):
        _require_counts(M_outer=self.M_outer, M_inner=self.M_inner)

    def region_ok(self, k: int) -> bool:
        return self.s.real > self.v.real + 1.0 and self.v.real > 1.0 + k / 2.0

    def require_region(self, f: NewformData, g: NewformData):
        """Raise unless (s, v) is in ``region_ok``'s region for f's weight
        and f and g have the coefficients of the truncation."""
        if not self.region_ok(f.k):
            raise DomainError(
                "outside the absolute-convergence region: need "
                "Re(s) > Re(v)+1 and Re(v) > 1 + k/2"
            )
        if self.M_inner + self.M_outer > f.M or self.M_inner > g.M:
            raise InsufficientCoefficientsError(self.M_inner + self.M_outer)


def _require_counts(**counts):
    """Raise unless every named shift and truncation is at least 1."""
    if min(counts.values()) < 1:
        raise DomainError(f"{' and '.join(counts)} must be >= 1")


def _envelope_edges(M: int) -> np.ndarray:
    """Edges of geometric blocks over [M/8, M]; none when M < 32.

    Wide enough in log-scale to see the trend through divisor-type
    fluctuations, robust to isolated spikes.
    """
    if M < 32:
        return np.zeros(0, dtype=int)
    return np.unique(np.geomspace(max(8, M // 8), M, 13).astype(int))


def _block_maxima(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The maximum of each row of |terms| over each envelope block, the
    blocks between the columns ``edges`` and the last one to the row's end:
    ``_envelope_edges`` of the row length, less the first column's index
    when the rows start later."""
    if not edges.size:
        return np.zeros((len(rows), 0))
    return np.maximum.reduceat(rows, edges[:-1], axis=1)


def _envelope_fit(peaks: np.ndarray, edges: np.ndarray, M: int) -> np.ndarray:
    """Envelope tails of rows of M terms from their block maxima over
    ``edges = _envelope_edges(M)``, one per row.

    Fits |term(m)| <~ A m^{-c} to the block maxima and extends
    geometrically; recorded with a safety factor of 3.  This is an estimate
    (the fully rigorous divisor-function bound is often infinite at desk
    exponents), and it shrinks like M^{1-c} in the cutoff.  With fewer than
    four nonzero block maxima, or c <= 1.05, there is no envelope to extend
    and the estimate is infinite.
    """
    log_x = np.log(np.sqrt(edges[:-1] * edges[1:]))
    tails = np.full(len(peaks), math.inf)
    pos = peaks > 0
    fit = pos.sum(axis=1) >= 4
    # one least-squares line per pattern of nonzero blocks, a column per
    # row, in closed form: a LAPACK solve would map about 1 MB of pages that
    # the process keeps for good
    for pattern in np.unique(pos[fit], axis=0):
        sel = np.flatnonzero(fit & (pos == pattern).all(axis=1))
        x = log_x[pattern] - log_x[pattern].mean()
        y = np.log(peaks[sel][:, pattern])
        slope = (y @ x) / (x @ x)
        intercept = y.mean(axis=1) - slope * log_x[pattern].mean()
        c = -slope
        ok = c > 1.05
        tails[sel[ok]] = 3.0 * np.exp(intercept[ok]) * M ** (1.0 - c[ok]) / (c[ok] - 1.0)
    return tails


def _envelope_tail(abs_terms: np.ndarray) -> float:
    """Tail estimate from the decay envelope of the computed outer terms."""
    edges = _envelope_edges(len(abs_terms))
    return float(_envelope_fit(_block_maxima(abs_terms[None, :], edges), edges, len(abs_terms))[0])


def _window_dots(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j x[r + j] v[j] for every window start r, as dots of at most
    ``_DOT_COLUMNS`` columns whose partial sums are added pairwise, for
    ``_BLOCK_TERMS`` partial sums at a time."""
    windows = sliding_window_view(x, len(v))
    starts = range(0, len(v), _DOT_COLUMNS)
    out = np.empty(len(windows), dtype=np.result_type(x, v))
    step = max(1, _BLOCK_TERMS // len(starts))
    for lo in range(0, len(windows), step):
        rows = windows[lo : lo + step]
        parts = np.empty((len(rows), len(starts)), dtype=out.dtype)
        for i, c in enumerate(starts):
            parts[:, i] = rows[:, c : c + _DOT_COLUMNS] @ v[c : c + _DOT_COLUMNS]
        out[lo : lo + step] = parts.sum(axis=1)
    return out


def _shift_rows(w: complex, ms: np.ndarray, f: NewformData, g: NewformData, n_max: int, lower: bool):
    """Values and tail bounds of the shifted series at the increasing shifts ``ms``.

    Upper (D):  row m is sum_{n <= n_max} a(n+m) G(n),       G(n) = conj(b(n)) n^{-w-k+1};
    lower:      row m is sum_{j <= n_max} a(j) h(m+j),      h(n) = conj(b(n)) n^{-w-k+1}.
    The factor that carries n is formed once, over n = 1..n_max (G) or
    n = ms[0]+1..ms[-1]+n_max (h), and the rows are the sliding windows of h
    (or of a) dotted with the fixed vector a (or G) by :func:`_window_dots`,
    with no array of the terms.  The envelope's block maxima come
    from |h| |a| (or |a| |G|) over the columns from n_max/8 on, which are the
    ones :func:`_envelope_edges` reads, at most ``_BLOCK_TERMS`` at a time.
    Rows between the shifts are computed too and dropped.  The caller
    checks w, ms and the coefficient lengths.
    """
    k = f.k
    if not len(ms):
        return np.zeros(0, dtype=complex), np.zeros(0)
    first, last = int(ms[0]), int(ms[-1])
    span = last - first + 1
    if lower:
        h = np.conj(g.a[first : last + n_max]) * np.exp((-w - k + 1.0) * arith.log_table(last + n_max)[first:])
        values = _window_dots(h, f.a[:n_max])
        abs_slid, abs_fixed = np.abs(h), np.abs(f.a[:n_max])
        bounds = [rankin_selberg_tail(w.real, n_max + m) for m in ms.tolist()]
    else:
        G = np.conj(g.a[:n_max]) * np.exp((-w - k + 1.0) * arith.log_table(n_max))
        # real windows against a complex vector, as two real products, so
        # that no complex copy of the windows is made
        values = np.empty(span, dtype=complex)
        values.real = _window_dots(f.a[first : last + n_max], G.real)
        values.imag = _window_dots(f.a[first : last + n_max], G.imag)
        abs_slid, abs_fixed = np.abs(f.a[first : last + n_max]), np.abs(G)
        rs = rankin_selberg_tail(w.real, n_max)
        bounds = [(1.0 + m / n_max) ** ((k - 1) / 2.0) * rs for m in ms.tolist()]
    edges = _envelope_edges(n_max)
    peaks = np.zeros((span, max(0, edges.size - 1)))
    if edges.size:
        e0 = int(edges[0])
        abs_rows = sliding_window_view(abs_slid, n_max)[:, e0:]
        step = max(1, _BLOCK_TERMS // (n_max - e0))
        for lo in range(0, span, step):
            peaks[lo : lo + step] = _block_maxima(abs_rows[lo : lo + step] * abs_fixed[e0:], edges - e0)
    rows = ms - first
    return values[rows], np.minimum(bounds, _envelope_fit(peaks[rows], edges, n_max))


def _raw_rows(slid: np.ndarray, fixed: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """sum_j slid[r + j] fixed[j] powers[r + j] for r = 0..len(slid) - len(fixed).

    ``powers`` has the length of ``slid``, or that of ``fixed``, and then
    every row reads powers[j] in place of powers[r + j].  These are the
    inner sums of the raw double series, one row per outer index, term by
    term: each block of about ``_RAW_TERMS`` terms forms its rows' real
    products slid[r + j] fixed[j] and dots each row with the real and the
    imaginary part of its powers.
    """
    n = len(fixed)
    windows = sliding_window_view(slid, n)
    rows = len(windows)
    parts = [np.ascontiguousarray(p) for p in (powers.real, powers.imag)]
    if len(powers) == len(slid):
        parts = [sliding_window_view(p, n) for p in parts]
    else:
        parts = [np.broadcast_to(p, (rows, n)) for p in parts]
    out = np.empty(rows, dtype=complex)
    step = max(1, _RAW_TERMS // n)
    for lo in range(0, rows, step):
        block = slice(lo, lo + step)
        terms = windows[block] * fixed
        out.real[block] = np.einsum("ij,ij->i", terms, parts[0][block])
        out.imag[block] = np.einsum("ij,ij->i", terms, parts[1][block])
    return out


def shifted_D(w, m: int, f: NewformData, g: NewformData, n_max: int) -> ValueWithError:
    """D(w; m) = sum_{n <= n_max} a(n+m) conj(b(n)) n^{-w-k+1} + tail bound.

    Needs Re w > 1 (terms are <= d(n+m) d(n) (1+m/n)^{(k-1)/2} n^{-Re w}),
    m >= 1 and n_max >= 1.
    """
    w = complex(w)
    if w.real <= 1.0:
        raise DomainError("shifted_D needs Re w > 1")
    _require_counts(m=m, n_max=n_max)
    if n_max + m > f.M or n_max > g.M:
        raise InsufficientCoefficientsError(n_max + m)
    values, tails = _shift_rows(w, np.array([m]), f, g, n_max, lower=False)
    return ValueWithError(complex(values[0]), float(tails[0]))


def shifted_inner_lower(w, m: int, f: NewformData, g: NewformData, n_max: int) -> ValueWithError:
    """sum_{n = m+1}^{m + n_max} a(n-m) conj(b(n)) n^{-w-k+1} + tail bound.

    Needs Re w > 1, m >= 1 and n_max >= 1.
    """
    w = complex(w)
    if w.real <= 1.0:
        raise DomainError("shifted_inner_lower needs Re w > 1")
    _require_counts(m=m, n_max=n_max)
    if n_max > f.M or n_max + m > g.M:
        raise InsufficientCoefficientsError(n_max + m)
    values, tails = _shift_rows(w, np.array([m]), f, g, n_max, lower=True)
    return ValueWithError(complex(values[0]), float(tails[0]))


def _weighted_outer_sum(ms, values, errors, sig: np.ndarray, exponent: complex):
    """sum_m sig(m) m^exponent value(m) over the shifts ``ms``, in order, and its tail.

    The tail is the inner tails weighted by |sig(m) m^exponent| plus the
    envelope tail of the outer terms; both rearranged paths sum this way.
    """
    total = 0.0 + 0.0j
    inner_tail_total = 0.0
    outer_abs = np.zeros(len(sig))
    for m, value, err in zip(ms.tolist(), values.tolist(), errors.tolist()):
        weight = sig[m - 1] * m ** exponent
        total += weight * value
        outer_abs[m - 1] = abs(weight * value)
        inner_tail_total += abs(weight) * err
    return total, inner_tail_total + _envelope_tail(outer_abs)


def _raw_outer_sum(rows, sig: np.ndarray, exponent: complex):
    """sum_m sig(m) m^exponent row(m) over the m with sig(m) != 0, in order,
    and the envelope tail of its terms; both raw paths sum this way."""
    total = 0.0 + 0.0j
    outer_abs = np.zeros(len(sig))
    for m, row in enumerate(rows.tolist(), start=1):
        if sig[m - 1] == 0:
            continue
        term = sig[m - 1] * m ** exponent * row
        total += term
        outer_abs[m - 1] = abs(term)
    return total, _envelope_tail(outer_abs)


def Z_series_double(req: ShiftedSeriesRequest, f: NewformData, g: NewformData) -> ValueWithError:
    """Z as the raw truncated double sum (n inner, m outer).

    Row m is sum_{n <= M_inner} a(n+m) conj(b(n)) n^{-(s-v-1/2+k)}, term by
    term in blocks of rows (``_raw_rows``); the rows are weighted and summed
    over m in order.
    """
    req.require_region(f, g)
    s, v, N = complex(req.s), complex(req.v), req.N
    k = f.k
    Mo, Mi = req.M_outer, req.M_inner
    sig = arith.sigma_twisted_weights(N, req.t, Mo)
    n_pow = np.exp(-(s - v - 0.5 + k) * arith.log_table(Mi))
    rows = _raw_rows(f.a[1 : Mo + Mi], np.conj(g.a[:Mi]), n_pow)
    total, outer_tail = _raw_outer_sum(rows, sig, -v)
    zN = arith.zeta_depleted(2.0 * s, N)
    k_half = (k - 1) / 2.0
    tail = abs(zN) * (rankin_selberg_tail(s.real - v.real - 0.5 + k - k_half, Mi) + outer_tail)
    return ValueWithError(complex(zN * total), tail)


def Z_series(req: ShiftedSeriesRequest, f: NewformData, g: NewformData) -> ValueWithError:
    """Z rearranged through the inner shifted series:

    zeta^(N)(2s) sum_m sigma_{-2it}(m; N) m^{it} m^{-v} D(s - v + 1/2; m)

    (the production path; at matched truncations it traverses the same
    finite index set as the double sum).
    """
    req.require_region(f, g)
    s, v = complex(req.s), complex(req.v)
    sig = arith.sigma_twisted_weights(req.N, req.t, req.M_outer)
    ms = np.flatnonzero(sig) + 1
    rows = _shift_rows(s - v + 0.5, ms, f, g, req.M_inner, lower=False)
    total, tail = _weighted_outer_sum(ms, *rows, sig, -v)
    zN = arith.zeta_depleted(2.0 * s, req.N)
    return ValueWithError(complex(zN * total), abs(zN) * tail)


def _m3_setup(s, w, t: float, f: NewformData, g: NewformData, N: int, M_outer: int, M_inner: int):
    """M3's checked (s, w) and truncations, its outer weights sigma_{-2it}(m; N) for
    m <= M_outer and its prefactor Gamma(k+w-1)/(4 pi)^{k+w-1} zeta^(N)(2s'),
    s' = s + w + k/2 - 1."""
    s, w = complex(s), complex(w)
    if s.real <= 1.0 or w.real <= 1.0:
        raise DomainError("M3_series needs Re s > 1 and Re w > 1")
    _require_counts(M_outer=M_outer, M_inner=M_inner)
    k = f.k
    if M_inner > f.M or M_outer + M_inner > g.M:
        raise InsufficientCoefficientsError(M_outer + M_inner)
    sp = s + w + k / 2.0 - 1.0
    sig = arith.sigma_twisted_weights(N, t, M_outer)
    pref = np.exp(
        _loggamma(k + w - 1.0) - (k + w - 1.0) * math.log(4.0 * math.pi)
    ) * arith.zeta_depleted(2.0 * sp, N)
    return s, w, sig, pref


def M3_series(s, w, t: float, f: NewformData, g: NewformData, N: int, M_outer: int, M_inner: int) -> ValueWithError:
    """The double series with prefactor Gamma(k+w-1)/(4 pi)^{k+w-1}.

    Row m is sum_{j <= M_inner} a(j) conj(b(m+j)) (m+j)^{-w-k+1}, term by
    term in blocks of rows (``_raw_rows``); the rows are weighted and summed
    over m in order.
    """
    s, w, sig, pref = _m3_setup(s, w, t, f, g, N, M_outer, M_inner)
    k = f.k
    # n^{-w-k+1} for n = 2..M_outer+M_inner; row m reads n = m+1..m+M_inner
    n_pow = arith.log_table(M_outer + M_inner)[1:] * (-w - k + 1.0)
    np.exp(n_pow, out=n_pow)
    rows = _raw_rows(np.conj(g.a[1 : M_outer + M_inner]), f.a[:M_inner], n_pow)
    total, outer_tail = _raw_outer_sum(rows, sig, -(s + (k - 1) / 2.0))
    tail = abs(pref) * (rankin_selberg_tail(w.real, M_inner) + outer_tail)
    return ValueWithError(complex(pref * total), tail)


def M3_series_rearranged(s, w, t: float, f: NewformData, g: NewformData, N: int, M_outer: int, M_inner: int) -> ValueWithError:
    """M3 through the inner lower-shifted series, summed over m in order."""
    s, w, sig, pref = _m3_setup(s, w, t, f, g, N, M_outer, M_inner)
    ms = np.flatnonzero(sig) + 1
    total, tail = _weighted_outer_sum(
        ms, *_shift_rows(w, ms, f, g, M_inner, lower=True), sig, -(s + (f.k - 1) / 2.0)
    )
    return ValueWithError(complex(pref * total), abs(pref) * tail)
