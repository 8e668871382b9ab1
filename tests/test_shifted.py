import functools
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmoments import arith as ar
from rsmoments import lseries as ls
from rsmoments import shifted as sh
from rsmoments.specfun import DomainError, ValueWithError

from assertions import assert_within_error


def shift_row(w, m, f, g, n_max, lower=False):
    """D(w; m) (or, with ``lower``, the lower-shifted series at m) with its
    tail bound: the one-row case of ``_shift_rows``."""
    values, tails = sh._shift_rows(complex(w), np.array([m]), f, g, n_max, lower)
    return ValueWithError(complex(values[0]), float(tails[0]))


@pytest.fixture(scope="module")
def delta():
    return ls.delta_newform(44000)


def test_delta_fixture_matches_recorded_fingerprint(delta):
    # SHA-256 recorded from the Kronecker-substitution generator, and kept
    # by the multi-modular one and the mod-2^64 lift that followed it
    text = ",".join(map(str, delta.a_exact)).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "d939d8192fee59b96a1a041bd52e4d83395808344e8890d483cb061e233145e1"
    )


class TestShiftedD:
    def test_real_in_real_out(self, delta):
        v, _ = shift_row(2.5, 3, delta, delta, 10_000)
        assert abs(v.imag) < 1e-13 * abs(v)

    def test_truncations_within_bounds(self, delta):
        d1 = shift_row(2.5, 1, delta, delta, 10_000)
        d2 = shift_row(2.5, 1, delta, delta, 40_000)
        assert_within_error(d1.value - d2.value, d1.error + d2.error)

    def test_large_shift_first_term_dominance(self, delta):
        # at large Re w the n = 1 term a(m+1) b(1) dominates
        m = 10_000
        w = 12.0
        val, _ = shift_row(w, m, delta, delta, 2_000)
        first = delta.a[m] * delta.a[0]
        assert abs(val - first) < 0.01 * abs(first)


class TestZSeries:
    REQ = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=1000, M_inner=1500)

    def test_dual_path_agreement(self, delta):
        z1 = sh.Z_series_double(self.REQ, delta, delta)
        z2 = sh.Z_series(self.REQ, delta, delta)
        assert abs(z1.value - z2.value) < 1e-10 * abs(z1.value)

    def test_region_flags(self, delta):
        bad = sh.ShiftedSeriesRequest(s=3.0, v=7.1, t=0.7, N=1, M_outer=10, M_inner=10)
        assert not bad.region_ok(12)
        with pytest.raises(DomainError):
            sh.Z_series(bad, delta, delta)

    def test_t_zero_weights_reduce_to_divisor_count(self):
        # at N = 1, t = 0 the outer weights are sigma_0(m)
        w = ar.sigma_twisted_weights(1, 0.0, 200)
        for m in (1, 2, 6, 60, 200):
            assert abs(w[m - 1] - ar.sigma_complex(m, 0)) < 1e-12

    def test_no_outer_weight_gives_zero(self, delta):
        # sigma(1; 4) = 0, so at N = 4 and M_outer = 1 no shift is left
        req = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=4, M_outer=1, M_inner=100)
        assert sh.Z_series(req, delta, delta).value == 0.0
        assert sh.Z_series_double(req, delta, delta).value == 0.0

    def test_monotone_tail(self, delta):
        r1 = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=1000, M_inner=1500)
        r2 = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=4000, M_inner=1500)
        za = sh.Z_series(r1, delta, delta)
        zb = sh.Z_series(r2, delta, delta)
        assert za.error >= 2.0 * zb.error


class TestM3:
    def test_dual_path(self, delta):
        m1 = sh.M3_series(2.2, 2.7, 0.7, delta, delta, 1, 800, 20_000)
        m2 = sh.M3_series_rearranged(2.2, 2.7, 0.7, delta, delta, 1, 800, 20_000)
        assert abs(m1.value - m2.value) < 1e-9 * abs(m1.value)

    def test_real_inputs_real_output(self, delta):
        m = sh.M3_series(2.2, 2.7, 0.0, delta, delta, 1, 200, 5_000)
        assert abs(m.value.imag) < 1e-12 * abs(m.value)

    def test_level_two_support(self):
        # at N = 2 the sigma weights keep every m (rad(2) = 2 divides all
        # multiplicity conditions trivially), but at N = 4 odd m drop out
        f = ls.divisor_model_newform(0.52, 12, 4, 6000)
        g = ls.divisor_model_newform(1.13, 12, 4, 6000)
        w4 = ar.sigma_twisted_weights(4, 0.7, 100)
        assert np.all(w4[::2] == 0)  # odd m (index m-1 even) vanish
        m = sh.M3_series(2.2, 2.7, 0.7, f, g, 4, 100, 4_000)
        assert np.isfinite(m.value.real)

    def test_region_check(self, delta):
        with pytest.raises(DomainError):
            sh.M3_series(0.9, 2.7, 0.7, delta, delta, 1, 10, 10)


@functools.lru_cache(maxsize=None)
def _divisor_model_pair(N):
    """Divisor-model f and g of level N with the 900 coefficients the draws below need."""
    return ls.divisor_model_newform(0.52, 12, N, 900), ls.divisor_model_newform(1.13, 12, N, 900)


def _forms(N, delta):
    return (delta, delta) if N == 1 else _divisor_model_pair(N)


_IM = st.floats(-5.0, 5.0)
_T = st.floats(-2.0, 2.0)
_LEVEL = st.sampled_from((1, 2, 3, 4, 6))
_M_OUTER = st.integers(50, 300)
_M_INNER = st.integers(50, 600)
# a fixed sequence of draws keeps tier-1 runs reproducible
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


class TestRawAgainstRearranged:
    # at matched truncations both paths sum one finite index set, so at any
    # point, level and truncation they agree to roundoff (measured <= 4e-15)
    @_PROPERTY
    @given(st.floats(7.05, 8.5), st.floats(1.05, 2.5), _IM, _IM, _T, _LEVEL, _M_OUTER, _M_INNER)
    def test_Z(self, delta, v_re, gap, s_im, v_im, t, N, M_outer, M_inner):
        f, g = _forms(N, delta)
        req = sh.ShiftedSeriesRequest(s=complex(v_re + gap, s_im), v=complex(v_re, v_im), t=t, N=N,
                                      M_outer=M_outer, M_inner=M_inner)
        raw = sh.Z_series_double(req, f, g).value
        assert abs(sh.Z_series(req, f, g).value - raw) < 1e-12 * abs(raw)

    @_PROPERTY
    @given(st.floats(1.2, 3.0), st.floats(1.2, 3.0), _IM, _IM, _T, _LEVEL, _M_OUTER, _M_INNER)
    def test_M3(self, delta, s_re, w_re, s_im, w_im, t, N, M_outer, M_inner):
        f, g = _forms(N, delta)
        args = (complex(s_re, s_im), complex(w_re, w_im), t, f, g, N, M_outer, M_inner)
        raw = sh.M3_series(*args).value
        assert abs(sh.M3_series_rearranged(*args).value - raw) < 1e-12 * abs(raw)


def _Z_per_row(req, f, g):
    """Z's raw double sum as a loop over m, each row one dot of f's
    coefficients against the fixed conj(b(n)) n^{-(s-v-1/2+k)}."""
    s, v, k = complex(req.s), complex(req.v), f.k
    Mo, Mi = req.M_outer, req.M_inner
    sig = ar.sigma_twisted_weights(req.N, req.t, Mo)
    n_pow = np.exp(-(s - v - 0.5 + k) * np.log(np.arange(1, Mi + 1, dtype=float))) * np.conj(g.a[:Mi])
    total = 0.0 + 0.0j
    for m in range(1, Mo + 1):
        if sig[m - 1] != 0:
            total += sig[m - 1] * m ** (-v) * np.dot(f.a[m : m + Mi], n_pow)
    return ar.zeta_depleted(2.0 * s, req.N) * total


def _M3_per_row(s, w, t, f, g, N, M_outer, M_inner):
    """M3's raw double sum as a loop over m, each row one dot of its own
    product a(j) conj(b(m+j)) against (m+j)^{-w-k+1}."""
    s, w, sig, pref = sh._m3_setup(s, w, t, f, g, N, M_outer, M_inner)
    k = f.k
    n_pow = np.exp((-w - k + 1.0) * np.log(np.arange(1, M_outer + M_inner + 1, dtype=float)))
    total = 0.0 + 0.0j
    for m in range(1, M_outer + 1):
        if sig[m - 1] != 0:
            row = np.dot(f.a[:M_inner] * np.conj(g.a[m : m + M_inner]), n_pow[m : m + M_inner])
            total += sig[m - 1] * m ** (-(s + (k - 1) / 2.0)) * row
    return pref * total


class TestRawAgainstPerRowLoop:
    # the raw routes form their rows in blocks; a loop that dots one row at
    # a time sums the same terms, so the two agree to roundoff (measured
    # <= 1.2e-15).  With 1,000 terms a block holds three of the 40 rows, so
    # the blocks' seams and a short last block are crossed too.
    @pytest.fixture(params=[sh._RAW_TERMS, 1000], autouse=True)
    def raw_terms(self, request, monkeypatch):
        monkeypatch.setattr(sh, "_RAW_TERMS", request.param)

    @pytest.mark.parametrize("N", [1, 4])
    @pytest.mark.parametrize("s, v, t", [(8.3 + 0.5j, 7.1 + 0j, 0.7), (8.6 - 1.2j, 7.4 + 0.8j, -1.3)])
    def test_Z(self, delta, N, s, v, t):
        f, g = _forms(N, delta)
        req = sh.ShiftedSeriesRequest(s=s, v=v, t=t, N=N, M_outer=40, M_inner=300)
        ref = _Z_per_row(req, f, g)
        assert abs(sh.Z_series_double(req, f, g).value - ref) < 1e-14 * abs(ref)

    @pytest.mark.parametrize("N", [1, 4])
    @pytest.mark.parametrize("s, w, t", [(2.2, 2.7, 0.7), (1.6 + 2.1j, 2.3 - 3.4j, -0.4)])
    def test_M3(self, delta, N, s, w, t):
        f, g = _forms(N, delta)
        ref = _M3_per_row(s, w, t, f, g, N, 40, 300)
        assert abs(sh.M3_series(s, w, t, f, g, N, 40, 300).value - ref) < 1e-14 * abs(ref)

    def test_routes_share_no_row_evaluation(self):
        # follow, by name, every module function each entry point reaches:
        # the raw routes never reach the windowed dots of the rearranged ones,
        # nor these the raw rows, so raw against rearranged compares two routes
        def code_names(code):
            out = set(code.co_names)
            for const in code.co_consts:
                if inspect.iscode(const):
                    out |= code_names(const)
            return out

        def own_function(name):
            fn = getattr(sh, name, None)
            return fn if inspect.isfunction(fn) and fn.__module__ == sh.__name__ else None

        def reached(*entries):
            todo, seen = list(entries), set()
            while todo:
                name = todo.pop()
                if name not in seen:
                    seen.add(name)
                    todo += [n for n in code_names(own_function(name).__code__) if own_function(n)]
            return seen

        raw = reached("M3_series", "Z_series_double")
        rearranged = reached("M3_series_rearranged", "Z_series")
        assert "_raw_rows" in raw and {"_window_dots", "_shift_rows"} <= rearranged
        assert not raw & {"_window_dots", "_shift_rows"}
        assert "_raw_rows" not in rearranged


# Values at criterion 11's points as hex floats (value re, value im, tail),
# recorded from the windowed-dot evaluation (numpy 2.4, x86-64).  Values
# must match bit for bit; tails, which come from a least-squares fit, within
# 1e-13 relative.
CRIT11_Z = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=1500, M_inner=1500)
PINNED = {
    "Z": ("-0x1.689a6319ce253p+4", "0x1.48e6e72e1c2e9p-1", "0x1.75bc4b9b1740dp+1"),
    "M3": ("-0x1.a83c7fe4ad95dp-26", "-0x1.486672a805416p-90", "0x1.770bb4cc02c67p-40"),
    "D1": ("-0x1.94ed5f740397dp+4", "0x1.560578142b877p-1", "0x1.18ea205751a91p-4"),
    "D1500": ("0x1.6964000587ea8p+58", "-0x1.3fef845093799p+47", "0x1.3954a4d7087b9p-2"),
    "L1": ("-0x1.43d6da2b5c7adp-7", "0x0.0p+0", "0x1.1a04eae433bf4p-21"),
    "L1000": ("-0x1.d9e73d8ab4542p-31", "0x0.0p+0", "0x1.11e8778bab65cp-17"),
}


class TestPinnedValues:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_criterion_11_points(self, delta, name):
        w_z = CRIT11_Z.s - CRIT11_Z.v + 0.5
        r = {
            "Z": lambda: sh.Z_series(CRIT11_Z, delta, delta),
            "M3": lambda: sh.M3_series_rearranged(2.2, 2.7, 0.7, delta, delta, 1, 1000, 15000),
            "D1": lambda: shift_row(w_z, 1, delta, delta, 1500),
            "D1500": lambda: shift_row(w_z, 1500, delta, delta, 1500),
            "L1": lambda: shift_row(2.7, 1, delta, delta, 15000, lower=True),
            "L1000": lambda: shift_row(2.7, 1000, delta, delta, 15000, lower=True),
        }[name]()
        re, im, tail = (float.fromhex(x) for x in PINNED[name])
        assert r.value == complex(re, im)
        assert abs(r.error - tail) <= 1e-13 * tail


def _envelope_reference(abs_terms):
    """The envelope tail of one row, block by block."""
    M = len(abs_terms)
    if M < 32:
        return math.inf
    edges = np.unique(np.geomspace(max(8, M // 8), M, 13).astype(int))
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        chunk = abs_terms[lo:hi]
        if chunk.max() > 0:
            xs.append(math.sqrt(lo * hi))
            ys.append(chunk.max())
    if len(xs) < 4:
        return math.inf
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    c = -slope
    if c <= 1.05:
        return math.inf
    return 3.0 * math.exp(intercept) * M ** (1.0 - c) / (c - 1.0)


class TestEnvelopeTail:
    def _check_rows(self, rows):
        edges = sh._envelope_edges(rows.shape[1])
        got = sh._envelope_fit(sh._block_maxima(rows, edges), edges, rows.shape[1])
        assert got.shape == (len(rows),)
        for row, tail in zip(rows, got):
            ref = _envelope_reference(row)
            if math.isinf(ref):
                assert tail == sh._envelope_tail(row) == math.inf
            else:
                assert abs(tail - ref) <= 1e-13 * ref
                assert abs(sh._envelope_tail(row) - ref) <= 1e-13 * ref
        return got

    def test_rows_against_per_row_reference(self):
        rng = np.random.default_rng(11)
        m = np.arange(1, 1501, dtype=float)
        noise = rng.uniform(0.2, 1.0, (8, 1500))
        rows = noise * m ** -np.array([2.0, 3.5, 1.02, 1.0, 0.5, 2.0, 2.0, 2.0])[:, None]
        rows[5, 400:700] = 0.0  # some zero blocks: fitted over the rest
        rows[6, 187:1200] = 0.0  # three nonzero blocks left: no fit
        rows[7, 150:] = 0.0  # supported on the first 150 terms only
        got = self._check_rows(rows)
        assert np.all(np.isfinite(got[[0, 1, 5]]))
        assert np.all(np.isinf(got[2:5]))  # c <= 1.05
        assert np.all(np.isinf(got[6:]))

    def test_short_rows(self):
        rows = np.arange(1, 21, dtype=float)[None, :] ** -np.array([[2.0], [3.0]])
        assert np.all(np.isinf(self._check_rows(rows)))

    @pytest.mark.parametrize("lower", [False, True])
    def test_edges_built_once_per_call(self, delta, monkeypatch, lower):
        # 300 shifts of 1,500 terms run in seven blocks; their maxima and the
        # fit share one set of envelope edges
        calls = []
        edges = sh._envelope_edges
        monkeypatch.setattr(sh, "_envelope_edges", lambda M: calls.append(M) or edges(M))
        values, tails = sh._shift_rows(2.7 + 0.3j, np.arange(1, 301), delta, delta, 1500, lower)
        assert calls == [1500]
        assert values.shape == tails.shape == (300,) and np.all(np.isfinite(tails))

    def test_unsupported_tail_is_infinite_not_zero(self):
        row = np.zeros(1500)
        row[:150] = np.arange(1, 151, dtype=float) ** -2.0
        assert sh._envelope_tail(row) == math.inf

    def test_shifted_D_falls_back_to_rankin_selberg(self, delta):
        # b(n) = 0 beyond n = 150: every envelope block is zero, so the tail
        # is the Rankin-Selberg bound, not zero
        a = np.zeros(1500)
        a[:150] = delta.a[:150]
        g = ls.NewformData(N=1, k=12, a=a)
        w, m, n_max = 2.5, 3, 1500
        d = shift_row(w, m, delta, g, n_max)
        bulge = (1.0 + m / n_max) ** ((12 - 1) / 2.0)
        assert d.error == bulge * ls.rankin_selberg_tail(w, n_max) > 0.0


class TestCoefficientsCheckedFirst:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("work started before the coefficient check")

        monkeypatch.setattr(ar, "sigma_twisted_weights", fail)
        monkeypatch.setattr(sh, "_shift_rows", fail)

    @pytest.mark.parametrize("short", ["f", "g"])
    def test_Z_series(self, delta, short):
        req = sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1, M_outer=300, M_inner=500)
        cut = ls.NewformData(N=1, k=12, a=delta.a[: 799 if short == "f" else 499])
        f, g = (cut, delta) if short == "f" else (delta, cut)
        with pytest.raises(ls.InsufficientCoefficientsError):
            sh.Z_series(req, f, g)

    @pytest.mark.parametrize("short", ["f", "g"])
    def test_M3_series_rearranged(self, delta, short):
        cut = ls.NewformData(N=1, k=12, a=delta.a[: 499 if short == "f" else 799])
        f, g = (cut, delta) if short == "f" else (delta, cut)
        with pytest.raises(ls.InsufficientCoefficientsError):
            sh.M3_series_rearranged(2.2, 2.7, 0.7, f, g, 1, 300, 500)


class TestEmptyTruncationsRejected:
    # a truncation that keeps no term is refused before any work, not summed
    # to 0 with an infinite tail or left to fail inside numpy
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("work started before the truncation check")

        monkeypatch.setattr(ar, "sigma_twisted_weights", fail)
        monkeypatch.setattr(sh, "_shift_rows", fail)

    @pytest.mark.parametrize("M_outer, M_inner", [(0, 10), (10, 0), (-5, 10), (10, -3)])
    def test_request(self, M_outer, M_inner):
        with pytest.raises(DomainError, match="must be >= 1"):
            sh.ShiftedSeriesRequest(s=8.3 + 0.5j, v=7.1 + 0j, t=0.7, N=1,
                                    M_outer=M_outer, M_inner=M_inner)

    @pytest.mark.parametrize("path", ["M3_series", "M3_series_rearranged"])
    @pytest.mark.parametrize("M_outer, M_inner", [(0, 10), (10, 0), (-5, 10), (10, -3)])
    def test_M3(self, delta, path, M_outer, M_inner):
        with pytest.raises(DomainError, match="must be >= 1"):
            getattr(sh, path)(2.2, 2.7, 0.7, delta, delta, 1, M_outer, M_inner)
