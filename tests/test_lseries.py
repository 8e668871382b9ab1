import dataclasses
import hashlib
import math
import tracemalloc
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma as _loggamma

from rsmoments import arith as ar
from rsmoments import lseries as ls
from rsmoments.arith import CuspLabel
from rsmoments.specfun import DomainError, extrapolate_to_zero, riemann_zeta

from assertions import assert_within_error


@pytest.fixture(scope="module")
def delta():
    return ls.delta_newform(20000)


def _contour_end(c):
    """vmax, where the AFE's full contour ends: v^2/(2c^2) - pi v/2 >= 42 and v >= 9.7 c."""
    return max(9.7 * c, 0.5 * (math.pi * c * c + math.sqrt((math.pi * c * c) ** 2 + 336.0 * c * c)))


def _lattice_rows(u, ref, log_gamma, scale, coeffs, contour, sigma0, reach):
    """The first sums' trapezoid at each u = x + iy, one row at a time and
    with a fresh E: the slots m = ceil((y - vmax)/h) + j, j < int(2 vmax/h) + 2,
    of the full contour, the nodes among them w = sigma0 + i(hm - y) for m
    from ceil((y - reach)/h) to floor((y + reach)/h) with the kernel
    K(m) = h/(2 pi) exp(log_gamma(x, sigma0 + ihm) - ref + w^2/(2c^2))/w,
    zero at the other slots, and E(m, n) = (Xn)^{-sigma0-ihm}.  Yields
    (x, y, K, E)."""
    c, h = contour
    vmax = _contour_end(c)
    log_xn = math.log(scale) + ar.log_table(coeffs.size)
    for x, y, r in zip(u.real, u.imag, ref):
        m = math.ceil((y - vmax) / h) + np.arange(int(2.0 * vmax / h) + 2)
        live = (m >= math.ceil((y - reach) / h)) & (m <= math.floor((y + reach) / h))
        w = sigma0 + 1j * (h * m - y)
        kern = np.exp(log_gamma(x, sigma0 + 1j * h * m) - r + w * w / (2.0 * c * c)) / w * (h / (2.0 * math.pi))
        yield x, y, np.where(live, kern, 0.0), np.exp(-(sigma0 + 1j * h * m)[:, None] * log_xn)


def _lattice_sums(u, ref, log_gamma, scale, coeffs, contour, sigma0, reach):
    """D(u) = X^{iy} sum_m K(m) sum_n c(n) n^{-x} E(m, n) on ``_lattice_rows``,
    the phases applied as one array product, as the engine does (numpy's
    complex array loop may round a product otherwise than its scalars)."""
    log_n = ar.log_table(coeffs.size)
    sums = [np.sum(kern * np.sum(coeffs * np.exp(-x * log_n) * E, axis=1))
            for x, y, kern, E in _lattice_rows(u, ref, log_gamma, scale, coeffs, contour, sigma0, reach)]
    return np.exp(1j * u.imag * math.log(scale)) * np.array(sums)


def _fresh_setup(s, desc, length=None, full=False):
    """``_smoothed_afe``'s data at a scalar s on an L-function's description:
    log g and the x scale X from the engine's ``_log_gamma``, the rows u = s
    and 1 - s, each relative to g(u), or to g(1 - u) at a pole of g, the
    first ``length`` coefficients (the engine's sum length by default), the
    contour Re w = sigma0 past max(2, Re s, 1 - Re s), and the nodes' reach
    at the height |Im s| of a degree-d gamma factor (growth (pi/4) d |Im s|),
    or the contour end if ``full``.  Also returns the dual factor
    root X^{2s-1} g(1-s)/g(s)."""
    log_gamma, scale = ls._log_gamma(desc.shifts)
    s = complex(s)
    sigma0 = max(2.0, math.floor(max(s.real, 1.0 - s.real)) + 1.0)
    growth = math.inf if full else math.pi / 4.0 * len(desc.shifts) * abs(s.imag)
    u = np.array([s, 1.0 - s])
    ref = log_gamma(u, 0.0)
    ref = np.where(np.isfinite(ref), ref, log_gamma(1.0 - u, 0.0))
    coeffs = desc.coeffs(ls._afe_length(u, desc) if length is None else length)
    factor = desc.root * np.exp((2.0 * s - 1.0) * math.log(scale)) * np.exp(ref[1] - ref[0])
    c = desc.contour[0]
    reach = min(c * math.sqrt(2.0 * (42.0 + growth)), _contour_end(c))
    return (u, ref, log_gamma, scale, coeffs, desc.contour, sigma0, reach), factor


def _fresh_terms(s, desc, length=None):
    """The (2 x length) terms c(n) n^{-x} X^{iy} sum_m K(m) E(m, n) of the
    first sums at u = x + iy = s and 1 - s on ``_fresh_setup``'s data, and
    the dual factor."""
    args, factor = _fresh_setup(s, desc, length)
    coeffs, scale = args[4], args[3]
    log_n = ar.log_table(coeffs.size)
    terms = [np.exp(1j * y * math.log(scale)) * coeffs * np.exp(-x * log_n) * np.sum(kern[:, None] * E, axis=0)
             for x, y, kern, E in _lattice_rows(*args)]
    return np.array(terms), factor


def _fresh_afe(s, desc, full=False):
    """``_smoothed_afe`` at a scalar s, its first sums one row at a time with
    a fresh E (``_lattice_sums``): D(s) + root X^{2s-1} g(1-s)/g(s) D(1-s)."""
    args, factor = _fresh_setup(s, desc, full=full)
    first, dual = _lattice_sums(*args)
    return complex(first + factor * dual)


def _fresh_sym2(s, f):
    """sym2_L at a scalar s, computed afresh past its memo (the batch of one s)."""
    return complex(ls._sym2_L.__wrapped__((), (complex(s),), f)[0])


def _holo_lattice(f, sigma0=2.0):
    """The shared lattice table of holo_L's contour at sigma0."""
    desc = ls._holo_data(f)
    return ls._lattice_table(ls._log_gamma(desc.shifts)[1], desc.contour[1], sigma0)


def _other_contour(s, desc, c, h):
    """The AFE on ``desc`` with its contour's (c, h) replaced: a second smoothing."""
    return ls._smoothed_afe(s, desc._replace(contour=(c, h)))


def _first_plus_dual(s, f):
    """holo_L's AFE at a batch of s with a first and a dual sum per s, the
    dual sums relative to log G(1 - s + a0): the assembly that sums D(1 - s)
    again for every s, at the engine's length, contour and reach (degree 2,
    at the batch's height), each row on ``_lattice_sums``."""
    a0 = (f.k - 1) / 2.0
    length = ls._afe_length(np.concatenate([s, 1.0 - s]), ls._holo_data(f))
    reach = min(3.0 * math.sqrt(2.0 * (42.0 + math.pi / 2.0 * np.max(np.abs(s.imag)))), _contour_end(3.0))

    def sums(u):
        return _lattice_sums(u, _loggamma(u + a0), lambda x, w: _loggamma(x + a0 + w), 2.0 * math.pi,
                             f.A(length), (3.0, 0.4), 2.0, reach)

    gr = np.exp(_loggamma(1.0 - s + a0) - _loggamma(s + a0))
    return sums(s) + (1j) ** f.k * np.exp((2.0 * s - 1.0) * math.log(2.0 * math.pi)) * gr * sums(1.0 - s)


def _holo_incomplete_gamma(s, f, terms=80):
    """L(s, f) from the sharp-cutoff AFE in incomplete gamma functions, in mpmath at 60 digits.

    Lambda(z) = sum a(n) [G(z, 2 pi n) (2 pi n)^{-z} + i^k G(k - z, 2 pi n) (2 pi n)^{z-k}]
    at z = s + (k-1)/2 shares no weights, contour or sum length with
    holo_L's smoothed AFE.  At the points below it agrees with 160 terms at
    100 digits to every bit of the double.
    """
    with mp.workdps(60):
        z = mp.mpc(s.real, s.imag) + mp.mpf(f.k - 1) / 2
        root = (-1) ** (f.k // 2)
        lam = mp.fsum(
            a * (mp.gammainc(z, x) * x ** (-z) + root * mp.gammainc(f.k - z, x) * x ** (z - f.k))
            for a, x in ((f.a_exact[n - 1], 2 * mp.pi * n) for n in range(1, terms + 1))
        )
        return complex(lam * (2 * mp.pi) ** z / mp.gamma(z))


# Property tests draw a fixed sequence (derandomize), so tier-1 runs are
# reproducible: a fresh draw that landed next to a zero of L would fail a
# relative bound by luck, not through a fault.
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _sym2_log_gamma_two(u, k):
    """log of sym2_L's gamma factor in its two-factor (duplication) form, up to a constant."""
    u = np.asarray(u, dtype=complex)
    return (
        -u * (1.5 * math.log(math.pi) + math.log(2.0))
        + _loggamma((u + 1.0) / 2.0)
        + _loggamma(u + (k - 1.0))
    )


def _log_gamma_r(u, shifts):
    """log of prod Gamma_R(u + lambda) = prod pi^{-(u+lambda)/2} G((u+lambda)/2), the factors apart."""
    u = np.asarray(u, dtype=complex)
    return sum(-(u + lam) / 2.0 * math.log(math.pi) + _loggamma((u + lam) / 2.0) for lam in shifts)


def _assert_ramanujan_congruence(tau):
    """tau(n) = sigma_11(n) mod 691 for every n <= len(tau)."""
    M = len(tau)
    sigma = np.zeros(M + 1, dtype=np.int64)
    for d in range(1, M + 1):
        sigma[d::d] += pow(d, 11, 691)
    assert np.array_equal(np.array([a % 691 for a in tau], dtype=np.int64), sigma[1:] % 691)


class TestDeltaGenerator:
    def test_small_coefficients(self, delta):
        a = delta.a_exact
        assert a[0] == 1
        assert a[1] == -24
        assert a[2] == 252
        assert a[3] == -1472
        assert a[5] == -6048

    def test_hecke_multiplicativity(self, delta):
        a = delta.a_exact
        assert a[5] == a[1] * a[2]  # a(6) = a(2) a(3)
        assert a[9] == a[1] * a[4]  # a(10) = a(2) a(5)
        assert a[11] == a[2] * a[3]  # a(12) = a(3) a(4)

    def test_against_naive_eta_expansion(self, delta):
        # independent O(M^2) expansion of q prod (1 - q^n)^24 up to q^300
        M = 300
        poly = [1] + [0] * M
        for nn in range(1, M + 1):
            for _ in range(24):
                new = poly[:]
                for i in range(M, nn - 1, -1):
                    new[i] -= poly[i - nn]
                poly = new
        for n in range(1, M + 1):
            assert delta.a_exact[n - 1] == poly[n - 1]

    def test_ramanujan_congruence(self, delta):
        _assert_ramanujan_congruence(delta.a_exact)

    def test_ramanujan_congruence_at_44000(self):
        # the shifted-series tests' horizon, where their fixture's SHA-256 is
        # pinned (tests/test_shifted.py); the lift's estimate misses by 2^40.3
        _assert_ramanujan_congruence(ls.delta_newform(44000).a_exact)

    @pytest.mark.parametrize("m_max", [1, 2, 3, 2048, 2049, 2561, 4097, 19999])
    def test_shorter_expansions_are_prefixes(self, delta, m_max):
        # the FFT length steps 4096 -> 5120 at 2049, 5120 -> 6144 at 2561
        # and 8192 -> 10240 at 4097
        assert ls.delta_newform(m_max).a_exact == delta.a_exact[:m_max]

    def test_exact_at_the_horizon_limit(self):
        # the estimate's widest miss, 2^52.4, is at the limit; SHA-256 recorded
        # from the multi-modular generator, uncached so the process keeps no copy
        text = ",".join(map(str, ls.delta_newform.__wrapped__(ls.DELTA_HORIZON).a_exact)).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "c6ef5ac96da593db54deaa584e971b7d1ea1f6cc1f190997318053285b35dd89"
        )

    def test_lift_refuses_an_estimate_off_by_2_62(self, delta):
        exact = delta.a_exact
        residue = np.array([a % 2**64 for a in exact], dtype=np.uint64)
        estimate = np.array(exact, dtype=float)
        assert ls._lift_mod_2_64(residue, estimate + 2.0**59) == exact
        for n, off in ((0, 2.0**62), (19999, -(2.0**62)), (7, math.nan)):
            wrong = estimate.copy()
            wrong[n] += off
            with pytest.raises(ls.InvariantViolation, match="2\\^60"):
                ls._lift_mod_2_64(residue, wrong)

    def test_exact_hecke_relations(self, delta):
        # n = p^e r with p the least prime factor: tau(n) = tau(p^e) tau(r)
        # for r > 1, else tau(p^e) = tau(p) tau(p^{e-1}) - p^11 tau(p^{e-2})
        tau = (0,) + delta.a_exact
        M = 20000
        lpf = list(range(M + 1))
        for p in range(2, math.isqrt(M) + 1):
            if lpf[p] == p:
                for m in range(p * p, M + 1, p):
                    lpf[m] = min(lpf[m], p)
        for n in range(2, M + 1):
            p, pe = lpf[n], lpf[n]
            while n % (pe * p) == 0:
                pe *= p
            if pe < n:
                assert tau[n] == tau[pe] * tau[n // pe], n
            elif pe > p:
                assert tau[n] == tau[p] * tau[n // p] - p**11 * tau[n // p // p], n

    def test_coefficients_match_recorded_fingerprints(self, delta):
        # SHA-256 values recorded from the Kronecker-substitution generator
        text = ",".join(map(str, delta.a_exact)).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "fbfceb942d3b137c0329cec07ff42528f14aa052a46c390c2bf2fcbcb679254f"
        )
        assert delta.digest == "a48943899bc9cfafa041f02701f72cdd7c951f87d442cb09d4db655a88c993b9"

    def test_horizon_below_one_rejected(self):
        assert ls.delta_newform(1).a_exact == (1,)
        for m_max in (0, -3):
            with pytest.raises(DomainError):
                ls.delta_newform(m_max)

    def test_horizon_past_the_limit_rejected_before_allocating(self):
        assert ls.DELTA_HORIZON >= 200_000
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=str(ls.DELTA_HORIZON)):
                ls.delta_newform(ls.DELTA_HORIZON + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # one row of the horizon's length is 1.6 MB

    def test_fields_are_frozen(self, delta):
        for name, value in (("a", np.zeros(3)), ("label", "other"), ("N", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(delta, name, value)
        assert delta.N == 1 and delta.label == "delta" and delta.a[1] == -24.0

    def test_equality_and_hash_follow_level_weight_and_coefficients(self, delta):
        twin = ls.NewformData(N=1, k=12, a=delta.a, label="twin")
        assert twin == delta and hash(twin) == hash(delta) == hash(ls.delta_newform(20000))
        flipped = delta.a.copy()
        flipped[-1] = -flipped[-1]
        for other in (ls.NewformData(N=2, k=12, a=delta.a), ls.NewformData(N=1, k=14, a=delta.a),
                      ls.NewformData(N=1, k=12, a=flipped), ls.delta_newform(19999)):
            assert other != delta

    def test_deligne_bound_normalized(self, delta):
        A = delta.A(20000)
        n = np.arange(1, 20001)
        dcount = np.zeros(20000)
        for d in range(1, 20001):
            dcount[d - 1 :: d] += 1
        assert np.all(np.abs(A) <= dcount + 1e-9)


class TestLoaders:
    def test_newform_roundtrip(self, tmp_path, delta):
        path = tmp_path / "form.txt"
        M = 50
        lines = [f"1 12 {M}"] + [f"{n} {delta.a_exact[n - 1]}" for n in range(1, M + 1)]
        path.write_text("\n".join(lines) + "\n")
        f = ls.load_newform(path)
        assert f.N == 1 and f.k == 12 and f.M == M
        assert np.allclose(f.a, delta.a[:M])

    def test_rejects_bad_normalisation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 12 2\n1 2\n2 -24\n")
        with pytest.raises(ls.InvariantViolation) as err:
            ls.load_newform(path)
        assert "n=1" in str(err.value)

    def test_rejects_level_below_one(self, tmp_path):
        # a level-0 header used to load, and z-series summed it at --N 1
        path = tmp_path / "n0.txt"
        path.write_text("0 12 2\n1 1\n2 -24\n")
        with pytest.raises(ls.InvariantViolation, match="level"):
            ls.load_newform(path)

    def test_rejects_odd_or_small_weight(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 11 1\n1 1\n")
        with pytest.raises(ls.InvariantViolation):
            ls.load_newform(path)
        path.write_text("1 2 1\n1 1\n")
        with pytest.raises(ls.InvariantViolation):
            ls.load_newform(path)

    @pytest.mark.parametrize("count", [0, -5])
    def test_rejects_header_count_below_one(self, tmp_path, count):
        # "1 12 0" used to fail the a(1) = 1 check and "1 12 -5" to expect
        # -5 coefficient lines, where the header itself is at fault
        path = tmp_path / "form.txt"
        path.write_text(f"1 12 {count}\n")
        with pytest.raises(ls.InvariantViolation, match=f"coefficient count M must be >= 1, got {count}"):
            ls.load_newform(path)

    def test_header_count_allocates_nothing(self, tmp_path):
        # a header claiming 2^62 lines used to build a list of that many
        # slots first, and a bare MemoryError escaped
        path = tmp_path / "huge.txt"
        path.write_text("1 12 4611686018427387904\n1 1\n")
        with pytest.raises(ls.InvariantViolation, match="expected 4611686018427387904 coefficient lines, got 1"):
            ls.load_newform(path)

    # (loader, header with M = 3, one "n value..." line)
    LOADERS = {
        "newform": (ls.load_newform, "1 12 3\n", "{n} 1\n"),
    }

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("fields", [-1, 1], ids=["short", "long"])
    def test_rejects_header_of_wrong_length(self, tmp_path, loader, fields):
        # a header with a field too few or too many is an invariant
        # violation, not a bare ValueError from unpacking it
        load, header, line = self.LOADERS[loader]
        first, _, rest = header.partition("\n")
        head = first.split()
        head = head[:-1] if fields < 0 else head + ["1"]
        path = tmp_path / "data.txt"
        path.write_text(" ".join(head) + "\n" + rest + "".join(line.format(n=n) for n in (1, 2, 3)))
        with pytest.raises(ls.InvariantViolation):
            load(path)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize(
        "indices", [(0, 1, 2), (1, 2, 3, 4), (1, 3), (1, 2, 2)],
        ids=["zero", "past_M", "missing", "repeated"],
    )
    def test_rejects_corrupt_index_lines(self, tmp_path, loader, indices):
        # n = 0 used to land in the last slot, a missing line read as 0 and
        # a repeated line stood in for a missing one
        load, header, line = self.LOADERS[loader]
        path = tmp_path / "data.txt"
        path.write_text(header + "".join(line.format(n=n) for n in (1, 2, 3)))
        load(path)
        path.write_text(header + "".join(line.format(n=n) for n in indices))
        with pytest.raises(ls.InvariantViolation):
            load(path)

    @pytest.mark.parametrize(
        "text",
        ["1 12 2\n1 1\n2\n", "1 12 2\n1 1\n2 -24 7\n", "1 12 2\n1 1\n2 -24.5\n",
         "1 12 x\n1 1\n2 -24\n"],
        ids=["no_value", "two_values", "not_integer", "header_not_integer"],
    )
    def test_rejects_malformed_line(self, tmp_path, text):
        # each of these used to escape as a bare ValueError
        path = tmp_path / "form.txt"
        path.write_text(text)
        with pytest.raises(ls.InvariantViolation, match="integers"):
            ls.load_newform(path)


class TestReadOnlyCaches:
    def test_cached_arrays_reject_writes(self, delta):
        a = delta.a_exact[:40]
        src = np.array(a, dtype=float)
        f = ls.NewformData(N=1, k=12, a=src)
        src[1] = 0.0  # the form holds its own copy
        assert f.a[1] == -24.0
        ls.holo_L(0.5 + 3j, delta)
        arrays = [f.a, ls.delta_newform(20000).a, ls._sym2_coeffs(delta, 200)]
        arrays.append(_holo_lattice(delta).table)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_form_data_holds_private_read_only_copies(self):
        lam = np.array([1.0, -0.5, 0.25, 0.75])
        u = ls.MaassFormData(N=1, L=1, r=9.53, lam=lam, rho1=1.0, lifts={1: 1.0})
        lam[1] = 5.0  # the caller's later writes do not reach the form
        assert u.lam[1] == -0.5
        with pytest.raises(ValueError):
            u.lam[0] = 0.0


def _fresh_arith_table(monkeypatch, name):
    """An empty copy of arith's shared table ``name``, put in its place."""
    table = ar.SharedTable(getattr(ar, name).build)
    monkeypatch.setattr(ar, name, table)
    return table


class TestSharedTables:
    @pytest.fixture(params=["sieve", "log", "divisor_bound", "lattice", "sym2"])
    def table(self, request, monkeypatch, delta):
        """(the empty shared table, the view a caller takes of a shape, two
        shapes); the lattice table's second shape is wider in one axis and
        narrower in the other."""
        which = request.param
        if which == "sieve":
            return _fresh_arith_table(monkeypatch, "_spf"), lambda n: ar.smallest_prime_factors(n - 1), (40,), (300,)
        if which == "log":
            return _fresh_arith_table(monkeypatch, "_logs"), ar.log_table, (40,), (300,)
        if which == "divisor_bound":
            return _fresh_arith_table(monkeypatch, "_divisor_bounds"), ar.divisor_bound_table, (40,), (300,)
        if which == "lattice":
            ls._lattice_table.cache_clear()
            table = _holo_lattice(delta)
            return table, lambda rows, cols: table.covering(rows, cols)[:rows, :cols], (30, 200), (50, 100)
        ls._sym2_table.cache_clear()
        return ls._sym2_table(delta), partial(ls._sym2_coeffs, delta), (40,), (300,)

    def test_grows_to_the_covering_shape(self, table):
        shared, view, first, second = table
        before = view(*first)
        bits = before.tobytes()
        after = view(*second)
        grown = shared.table
        assert grown.shape == tuple(map(max, first, second))
        assert before.tobytes() == bits == view(*first).tobytes() == shared.build(*first).tobytes()
        assert after.tobytes() == shared.build(*second).tobytes()
        assert shared.table is grown  # a covered request builds nothing
        for arr in (before, after, grown):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0

    @pytest.mark.parametrize("heights", [(40.0, 10.0), (10.0, 40.0)])
    def test_lattice_table_is_its_largest_request(self, delta, monkeypatch, heights):
        # grown by doubling, it once held rows m <= 474 where m <= 269 were read
        requests = []
        lattice_series = ls._lattice_series

        def spy(a, scale, h, sigma0, lo, hi):
            requests.append((max(-lo, hi) + 1, a.size))
            return lattice_series(a, scale, h, sigma0, lo, hi)

        monkeypatch.setattr(ls, "_lattice_series", spy)
        ls._lattice_table.cache_clear()
        for y in heights:
            ls.holo_L(0.5 + 1j * y, delta)
        assert len(set(requests)) > 1
        assert _holo_lattice(delta).table.shape == tuple(map(max, *requests))


class TestRankinSelberg:
    def test_positive_real_and_truncation_consistency(self, delta):
        v1, t1 = ls.rankin_selberg_L(2.0, delta, delta, m_max=10_000)
        v2, t2 = ls.rankin_selberg_L(2.0, delta, delta, m_max=20_000)
        assert v1.real > 0 and abs(v1.imag) < 1e-14
        assert abs(v1 - v2) <= t1 + t2

    def test_real_symmetry(self, delta):
        v, _ = ls.rankin_selberg_L(2.3, delta, delta)
        assert abs(v.imag) < 1e-13 * abs(v)

    @pytest.mark.parametrize("sigma", [5.0, 8.0])
    @pytest.mark.parametrize("m_from", [0, 1, 2, 4, 7, 8, 20])
    def test_tail_bounds_the_true_tail(self, m_from, sigma):
        # sum_{n > M} d(n)^2 n^{-sigma} = zeta(sigma)^4 / zeta(2 sigma) - sum_{n <= M};
        # below M = 8 the bound once skipped the terms M < n <= 8
        with mp.workdps(30):
            head = mp.fsum(len(ar.divisors(n)) ** 2 * mp.mpf(n) ** -sigma for n in range(1, m_from + 1))
            true = float(mp.zeta(sigma) ** 4 / mp.zeta(2 * sigma) - head)
        assert ls.rankin_selberg_tail(sigma, m_from) >= true

    def test_pole_path_at_one(self, delta):
        with pytest.raises(DomainError):
            ls.rankin_selberg_L(1.0, delta, delta)

    def test_m_max_past_the_coefficients_raises(self):
        # the shorter form has 400 coefficients
        f = ls.divisor_model_newform(0.52, 12, 2, 400)
        g = ls.divisor_model_newform(1.13, 12, 2, 600)
        with pytest.raises(ls.InsufficientCoefficientsError) as exc:
            ls.rankin_selberg_L(2.5, f, g, m_max=401)
        assert exc.value.needed == 401
        assert np.isfinite(ls.rankin_selberg_L(2.5, f, g, m_max=400).value)


class TestHoloL:
    def test_real_argument_real_value(self, delta):
        v = ls.holo_L(1.5, delta)
        assert abs(v.imag) < 1e-12 * abs(v)

    def test_afe_matches_direct_in_overlap(self, delta):
        # the AFE's contour moves past Re s; on a fixed Re w = 2 these were
        # off by 6.8e-10 (s = 3), 4.6e-5 (s = 5), 1.7e3 (s = 7) and gave
        # 3.53 + 2.89i against 0.9945 at s = 6.5
        for s in (3.0, 2.8 + 7j, 3.3 - 2j, 4.0, 5.0, 6.0, 6.5, 7.0):
            d = ls.holo_L(s, delta, method="direct")
            a = ls.holo_L(s, delta, method="afe")
            assert abs(d - a) < 1e-11 * abs(d), s

    def test_afe_domain(self, delta):
        for s in (7.99, -6.99 + 1j):
            assert np.isfinite(ls.holo_L(s, delta, method="afe"))
        for s in (8.0, 8.5 + 2j, -7.0, -9.0 + 1j):
            with pytest.raises(DomainError):
                ls.holo_L(s, delta, method="afe")
        with pytest.raises(DomainError):
            ls.holo_L(np.array([0.5 + 1j, -7.5]), delta)
        # auto takes the direct sum there, as it always has
        assert ls.holo_L(9.0, delta) == ls.holo_L(9.0, delta, method="direct")

    def test_completed_functional_equation_critical_line(self, delta):
        def lam(s):
            a0 = (delta.k - 1) / 2.0
            return np.exp(-(s + a0) * math.log(2 * math.pi) + _loggamma(s + a0)) * ls.holo_L(
                s, delta, method="afe"
            )

        for tau in (0.5, 7.0, 30.0, 90.0, 160.0):
            l1 = lam(0.5 + 1j * tau)
            l2 = (1j) ** delta.k * lam(0.5 - 1j * tau)
            assert abs(l1 - l2) < 1e-7 * max(abs(l1), 1e-30)

    @pytest.mark.parametrize("taus", [(160.0, 0.5), (0.5, 160.0)])
    def test_cached_contours_match_fresh(self, delta, taus):
        # each description's E grows (or is only sliced) between the two
        # points, with the other one's filled in between; values match the
        # transcription's fresh E, and a cleared cache, exactly.  sym^2 stays
        # at heights where it is accurate (it returns roundoff from
        # |Im s| ~ 40 up), and still grows its E from 0.5 to 10
        def both(tau):
            return ls.holo_L(0.5 + 1j * tau, delta), ls.sym2_L(0.5 + 1j * min(tau, 10.0), delta)

        ls._lattice_table.cache_clear()
        ls._sym2_L.cache_clear()
        grown = [both(tau) for tau in taus]
        for tau, (v, v2) in zip(taus, grown):
            assert v == _fresh_afe(0.5 + 1j * tau, ls._holo_data(delta))
            assert v2 == _fresh_afe(0.5 + 1j * min(tau, 10.0), ls._sym2_data(delta))
            ls._lattice_table.cache_clear()
            ls._sym2_L.cache_clear()
            assert both(tau) == (v, v2)

    def test_direct_rejected_in_strip(self, delta):
        for s in (1.1 + 3j, 0.5 + 10j, 1.2):
            with pytest.raises(DomainError):
                ls.holo_L(s, delta, method="direct")

    def test_insufficient_coefficients_reports_horizon(self):
        small = ls.delta_newform(256)
        with pytest.raises(ls.InsufficientCoefficientsError) as err:
            ls.holo_L(2.5, small, method="direct")
        assert err.value.needed > 256
        # in auto mode level 1 falls back to the (exact) functional-equation
        # route instead of failing
        v = ls.holo_L(2.5, small)
        big = ls.delta_newform(20000)
        assert abs(v - ls.holo_L(2.5, big, method="direct")) < 1e-8 * abs(v)

    @pytest.mark.parametrize("s, tol", [
        (0.5 + 10j, 1e-10),  # measured 6.8e-14
        (0.3 + 30j, 1e-10),  # 2.6e-12
        (1.1 - 40j, 1e-10),  # 1.4e-11
        # 4.1e-9, where |L| = 0.024: the AFE still loses digits with height
        # (ROADMAP item 9); the absolute lattice moved the phase of its alias
        (0.5 + 55.21j, 1e-8),
    ])
    def test_against_incomplete_gamma_afe(self, delta, s, tol):
        # the functional-equation tests build both sides from the same two
        # sums and cannot see this error; this route shares nothing with them
        ref = _holo_incomplete_gamma(s, delta)
        assert abs(ls.holo_L(s, delta) - ref) < tol * abs(ref)

    @_PROPERTY
    @given(st.floats(-0.5, 1.5), st.floats(-40.0, 40.0))
    def test_conjugation_symmetry(self, delta, re, im):
        s = complex(re, im)
        v = ls.holo_L(s, delta)
        assert abs(ls.holo_L(s.conjugate(), delta) - v.conjugate()) < 1e-9 * abs(v)


class TestHoloLBatch:
    def test_matches_scalar_calls(self, delta):
        # one sum length for the batch moves a value only within the AFE's
        # own roundoff, which grows with |Im s| as its two sums cancel
        # (measured 1.5e-13 here, 2.5e-13 at |Im s| <= 70)
        rng = np.random.default_rng(3)
        s = rng.uniform(-0.5, 1.2, 120) + 1j * rng.uniform(-40.0, 40.0, 120)
        batch = ls.holo_L(s, delta)
        for si, b in zip(s, batch):
            v = ls.holo_L(si, delta)
            assert abs(b - v) < 2e-12 * max(abs(v), 1.0), si
        # a lone s is the batch {s, 1 - s}, bit for bit
        for si in s[:10]:
            assert ls.holo_L(np.array([si]), delta)[0] == ls.holo_L(si, delta)

    @_PROPERTY
    @given(st.lists(st.tuples(st.floats(-0.5, 1.2), st.floats(-40.0, 40.0)), min_size=1, max_size=6),
           st.lists(st.tuples(st.floats(-0.5, 1.2), st.floats(-40.0, 40.0)), max_size=4))
    def test_row_bits_do_not_depend_on_the_rest_of_the_batch(self, delta, rows, others):
        # the anchor is in every batch: its height sets the shared sum length,
        # and it keeps every batch at two first sums or more
        b = np.array([complex(0.3, 40.5)] + [complex(*x) for x in rows])
        alone = ls.holo_L(b, delta, method="afe")
        mixed = np.array([complex(*x) for x in others] + list(1.0 - b[::-1]) + list(b))
        paired = ls.holo_L(mixed, delta, method="afe")[-len(b):]
        assert alone.tobytes() == paired.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_bits_do_not_depend_on_the_block_split(self, delta, monkeypatch, block):
        # every D(u) is a row-wise numpy sum of its own terms, so a 600-row
        # batch has the same bytes in blocks of any size, one row included
        rng = np.random.default_rng(12)
        s = np.concatenate([rng.uniform(-0.5, 1.2, 200) + 1j * rng.uniform(-40.0, 40.0, 200),
                            0.5 + 1j * rng.uniform(-40.0, 40.0, 100)])
        want = ls.holo_L(s, delta, method="afe")
        monkeypatch.setattr(ls, "_AFE_BLOCK", block)
        assert ls.holo_L(s, delta, method="afe").tobytes() == want.tobytes()

    def test_paired_batch_matches_first_plus_dual_sums(self, delta):
        # closed under s -> 1 - s, the batch sums each first sum once; the
        # assembly that sums a dual sum for every s gives the same values
        rng = np.random.default_rng(6)
        half = rng.uniform(-0.5, 1.2, 60) + 1j * rng.uniform(-40.0, 40.0, 60)
        s = np.concatenate([half, 1.0 - half])
        got = ls.holo_L(s, delta, method="afe")
        want = _first_plus_dual(s, delta)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    def test_afe_matches_direct(self, delta):
        s = 3.0 + 1j * np.linspace(-30.0, 30.0, 13)
        for si, b in zip(s, ls.holo_L(s, delta, method="afe")):
            d = ls.holo_L(si, delta, method="direct")
            assert abs(b - d) < 1e-8 * abs(d), si

    def test_functional_equation_in_the_strip(self, delta):
        rng = np.random.default_rng(4)
        s = rng.uniform(-0.2, 1.2, 60) + 1j * rng.uniform(-40.0, 40.0, 60)
        a0 = (delta.k - 1) / 2.0

        def lam(z):
            return np.exp(-(z + a0) * math.log(2 * math.pi) + _loggamma(z + a0)) * ls.holo_L(z, delta)

        l1 = lam(s)
        l2 = (1j) ** delta.k * lam(1.0 - s)
        assert np.all(np.abs(l1 - l2) < 1e-12 * np.abs(l1))

    def test_domain(self, delta):
        with pytest.raises(DomainError):
            ls.holo_L(np.array([0.5 + 1j, 1.3]), delta)  # Re s > 1.2 under auto
        with pytest.raises(DomainError):
            ls.holo_L(np.array([2.5]), delta, method="direct")
        with pytest.raises(DomainError):
            ls.holo_L(np.full((2, 2), 0.5 + 1j), delta)
        # the box -7 < Re s < 8; a NaN part compares false with its bounds
        for bad in (-7.0, 8.0 + 1j, complex(math.nan, 1.0), complex(0.5, math.nan)):
            with pytest.raises(DomainError):
                ls.holo_L(bad, delta, method="afe")
        assert ls.holo_L(np.array([], dtype=complex), delta).shape == (0,)

    def test_memory_stays_flat(self, delta):
        # blocks of rows keep the temporaries near 1 MB each
        s = 0.5 + 1j * np.linspace(-60.0, 60.0, 2000)
        tracemalloc.start()
        try:
            ls.holo_L(s, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestTwoSmoothings:
    """Dokchitser's check: the AFE's value is free of the test function only
    when the description (shifts, root number, coefficients) obeys the
    functional equation, so two smoothings of one L-function test its
    description, not only the engine.  Unlike the functional-equation tests,
    the two values share no weights.  Each description has its negative
    control: with the root number flipped, the two smoothings must differ."""

    _HOLO = (ls._holo_data, (2.5, 0.35), 0.5 + 1j * np.arange(-39.6, 40.0, 1.5))
    _SYM2 = (ls._sym2_data, (3.5, 0.3), 0.5 + 1j * np.arange(-14.0, 14.1, 0.7))

    @pytest.mark.parametrize("data, contour, s", [
        # measured alone: 4.3e-14 at Im s = 5.4, 8.6e-13 at 20.4, 8.8e-12 at
        # 39.6; in this batch, whose sum length is set by its top, 1.0e-10 at -35.1
        _HOLO,
        # alone: 1.3e-14 at 5.4, 5.5e-12 at 10.4, 1.3e-10 at 15.3; in this batch 7.3e-12
        _SYM2,
        pytest.param(ls._sym2_data, (3.5, 0.3), np.array([0.5 + 40.37j]), marks=pytest.mark.xfail(
            strict=True, reason="sym2_L's two smoothings differ by 2.5e-3 here, and it returns "
                                "roundoff from about this height up (ROADMAP item 9)")),
    ], ids=["holo", "sym2", "sym2-height-40"])
    def test_spread_over_smoothings(self, delta, data, contour, s):
        desc = data(delta)
        one = ls._smoothed_afe(s, desc)
        other = _other_contour(s, desc, *contour)
        assert np.all(np.abs(one - other) < 1e-9 * np.abs(one))

    def test_flipped_root_number_fails(self, delta):
        # the negative control, on each description's batch above: with the
        # root number flipped the two smoothings differ by 0.017 to 15
        # relative (holo) and 0.035 to 0.67 (sym2)
        for data, contour, s in (self._HOLO, self._SYM2):
            desc = data(delta)
            flipped = desc._replace(root=-desc.root)
            one = ls._smoothed_afe(s, flipped)
            other = _other_contour(s, flipped, *contour)
            assert np.all(np.abs(one - other) > 1e-3 * np.abs(one)), data.__name__


class TestSym2:
    def test_value_against_tabulated_petersson_norm(self, delta):
        # <delta, delta> = 1.0353620568043209e-6 (standard tabulated value);
        # the residue relation gives L(1, sym^2) = pi/2 (4 pi)^k <f,f>/G(k)
        ref = math.pi / 2 * (4 * math.pi) ** 12 * 1.0353620568043209e-6 / math.factorial(11)
        val = ls.sym2_L(1.0, delta).real
        assert abs(val - ref) < 1e-9 * ref

    def test_parameter_stability(self, delta):
        # independent smoothing parameters (c, h) must agree with sym2_L's
        # (4, 0.35); this also shows the lattice cache keys on h
        for s in (1.37, 1.0, 0.5 + 2j, 0.5 + 0.3j, 1.1 - 3.5j):
            v = ls.sym2_L(s, delta)
            assert _fresh_sym2(s, delta) == v  # deterministic
            for c, h in ((3.5, 0.3), (3.0, 0.25)):
                other = _other_contour(np.array([complex(s)]), ls._sym2_data(delta), c, h)[0]
                assert abs(other - v) < 1e-12 * abs(v), (s, c, h)

    def test_coefficients_keyed_on_whole_array(self, delta):
        # agrees with delta in label, level, weight, length and the first 16
        # coefficients; a(17) differs (halved: sym^2 sees only a(p)^2)
        a = delta.a.copy()
        a[16] *= 0.5
        other = ls.NewformData(N=1, k=12, a=a, label=delta.label)
        v_delta = ls.sym2_L(1.37, delta)
        v_other = ls.sym2_L(1.37, other)
        assert v_other != v_delta
        ls._sym2_table.cache_clear()
        ls._sym2_L.cache_clear()
        assert ls.sym2_L(1.37, other) == v_other
        assert ls.sym2_L(1.37, delta) == v_delta

    def test_values_memoised_per_form_and_exact_s(self, delta):
        fresh = _fresh_sym2
        ls._sym2_L.cache_clear()
        s = 0.5 + 2.3j
        first = ls.sym2_L(s, delta)
        assert ls.sym2_L(s, delta) == first == fresh(s, delta)  # a hit is a fresh value's bits
        assert ls._sym2_L.cache_info().currsize == 1
        assert ls._sym2_L.cache_info().hits == 1
        # same weight, another digest: its own entry and its own value
        a = delta.a.copy()
        a[16] *= 0.5
        other = ls.NewformData(N=1, k=12, a=a, label=delta.label)
        assert other.k == delta.k and other.digest != delta.digest
        assert other != delta
        assert ls.sym2_L(s, other) == fresh(s, other) != first
        assert ls._sym2_L.cache_info().currsize == 2
        # +0.0 and -0.0 imaginary parts are equal as Python complex numbers,
        # and their fresh values have the same bits, so they share one entry
        for x in (-1.5, 1.37):
            plus, minus = complex(x, 0.0), complex(x, -0.0)
            n = ls._sym2_L.cache_info().currsize
            bits = {(v.real.hex(), v.imag.hex()) for v in (fresh(plus, delta), fresh(minus, delta))}
            assert len(bits) == 1
            assert ls.sym2_L(plus, delta) == fresh(plus, delta)
            assert ls.sym2_L(minus, delta) == fresh(minus, delta)
            assert ls._sym2_L.cache_info().currsize == n + 1

    def test_value_memo_stays_bounded(self, delta):
        assert ls._sym2_L.cache_info().maxsize == 64
        for j in range(80):
            ls.sym2_L(0.5 + 0.05j * j, delta)
        assert ls._sym2_L.cache_info().currsize == 64
        s = 0.5 + 0.05j * 79
        assert ls.sym2_L(s, delta) == _fresh_sym2(s, delta)

    def test_laurent_constants_cached_read_only(self, delta, monkeypatch):
        ls.selfdual_rs_constants.cache_clear()
        first = ls.selfdual_rs_constants(delta)

        def no_afe(*args):
            pytest.fail("sym2_L called on a cached form")

        monkeypatch.setattr(ls, "sym2_L", no_afe)
        again = ls.selfdual_rs_constants(delta)
        assert again is first
        with pytest.raises(TypeError):
            again["residue"] = 0.0
        monkeypatch.undo()
        ls.selfdual_rs_constants.cache_clear()
        fresh = ls.selfdual_rs_constants(delta)
        for key in ("residue", "finite_part"):
            assert fresh[key].hex() == first[key].hex()

    def test_two_factor_gamma_matches_three_factor(self, delta, monkeypatch):
        # the engine's fold, Gamma_R(z) Gamma_R(z + 1) = 2 (2 pi)^{-z} G(z)
        # with the linear part in the x scale, against the Gamma_R product
        # apart: sym^2's two factors G(z + k - 1) G((z + 1)/2) and three
        # Gamma_R, and holo_L's G(z + (k-1)/2) and two Gamma_R
        u0 = 1.3 + 0.2j
        u = np.array([0.5 + 3j, 2.7 - 40j, -0.4 + 12j, 3.1 + 0.5j])
        for desc in (ls._sym2_data(delta), ls._holo_data(delta)):
            log_gamma, scale = ls._log_gamma(desc.shifts)
            folded = log_gamma(u, 0.0) - u * math.log(scale) - (log_gamma(u0, 0.0) - u0 * math.log(scale))
            apart = _log_gamma_r(u, desc.shifts) - _log_gamma_r(u0, desc.shifts)
            assert np.all(np.abs(np.exp(folded - apart) - 1.0) < 1e-13), desc.shifts

        # the AFE on the product apart: x scale pi^{d/2}, the rest in the G's
        def apart(shifts):
            return (lambda u, w: _log_gamma_r(u + w, shifts) + (u + w) * len(shifts) / 2.0 * math.log(math.pi),
                    math.pi ** (len(shifts) / 2.0))

        for s in (1.0, 0.5 + 2j, 1.37, -0.5 + 1j, 1.9 - 4j):
            s_ = np.array([complex(s)])
            with monkeypatch.context() as m:
                m.setattr(ls, "_log_gamma", apart)
                v3 = ls._smoothed_afe(s_, ls._sym2_data(delta))[0]
            assert abs(ls.sym2_L(s, delta) - v3) < 1e-13 * abs(v3), s

    def test_right_of_the_strip_against_direct_series(self, delta):
        # on the contour Re w = 2 these were nan (s = 2) and off by 4.2e-6
        # (s = 3) and 1.8e-2 (s = 3.5); the 20,000-term direct series has a
        # tail near 1e-8 at Re s = 2 and below 1e-11 from Re s = 3
        c = ls._sym2_coeffs(delta, 20000)
        log_n = np.log(np.arange(1, 20001, dtype=float))
        for s, tol in ((2.0, 1e-7), (2.5 + 1j, 1e-8), (3.0, 1e-10), (3.5, 1e-10), (3.9 - 6j, 1e-10)):
            direct = complex(np.sum(c * np.exp(-s * log_n)))
            assert abs(ls.sym2_L(s, delta) - direct) < tol * abs(direct), s

    def test_left_of_the_strip_by_functional_equation(self, delta):
        # Lambda(s) = Lambda(1 - s) carries Re s = -1 (main_term_breakdown
        # at Re s = 5/2) and s = -1.5 over to the right of the strip
        for s in (-1.0 + 0.3j, -1.5, -1.5 + 2j, -2.5 + 1j):
            lhs = np.exp(_sym2_log_gamma_two(s, 12)) * ls.sym2_L(s, delta)
            rhs = np.exp(_sym2_log_gamma_two(1.0 - s, 12)) * ls.sym2_L(1.0 - s, delta)
            assert abs(lhs - rhs) < 1e-11 * abs(rhs), s

    @_PROPERTY
    @given(st.floats(-0.9, 1.9), st.floats(-15.0, 15.0))
    def test_conjugation_symmetry(self, delta, re, im):
        s = complex(re, im)
        v = ls.sym2_L(s, delta)
        assert abs(ls.sym2_L(s.conjugate(), delta) - v.conjugate()) < 1e-9 * abs(v)

    @_PROPERTY
    @given(st.floats(-0.9, 1.9), st.floats(-12.0, 12.0))
    def test_functional_equation_property(self, delta, re, im):
        s = complex(re, im)
        lhs = np.exp(_sym2_log_gamma_two(s, 12)) * ls.sym2_L(s, delta)
        rhs = np.exp(_sym2_log_gamma_two(1.0 - s, 12)) * ls.sym2_L(1.0 - s, delta)
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)

    def test_domain(self, delta):
        assert ls.sym2_L(-1.0, delta) == 0.0  # the gamma factor's pole: a trivial zero
        ls.sym2_L(0.5 + 18.7j, delta)
        # the two smoothings first differ by more than 1e-8 at 1/2 + 18.8i
        for s in (4.0, 12.0, 5.0 + 2j, -3.0, -3.5 + 1j, 0.5 + 18.8j, 1.0 - 25j, 0.5 + 40.37j,
                  complex(math.nan, 1.0), complex(0.5, math.nan)):
            with pytest.raises(DomainError):
                ls.sym2_L(s, delta)

    def test_spread_below_the_height_bound(self, delta):
        # _SYM2_HEIGHT's own grid: the two smoothings (4, 0.35) and (3.5, 0.3)
        # agree to 1e-8 below it (measured at most 8.3e-9, at 1/2 + 15.7i),
        # one s at a time as sym2_L's scalar calls are; 3.2e-8 at 1/2 + 18.8i
        desc = ls._sym2_data(delta)
        heights = 0.1 * np.arange(round(10 * ls._SYM2_HEIGHT))
        assert heights[-1] < ls._SYM2_HEIGHT <= heights[-1] + 0.1
        for re in (-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5):
            for im in heights:
                s = np.array([complex(re, im)])
                one = ls._smoothed_afe(s, desc)[0]
                other = _other_contour(s, desc, 3.5, 0.3)[0]
                assert abs(one - other) <= 1e-8 * abs(one), s

    def test_laurent_constants(self, delta):
        c = ls.selfdual_rs_constants(delta)
        # L(1 + x) - R/x = c0 + c1 x + O(x^2): Richardson over two steps
        # cancels the linear term and leaves c0
        xs = (0.05, 0.025)
        regular = [ls.selfdual_rs_L(1.0 + x, delta) - c["residue"] / x for x in xs]
        c0 = extrapolate_to_zero(xs, regular)
        assert abs(c0 - c["finite_part"]) < 5e-3 * c["residue"]


class TestSym2Batch:
    def test_main_term_batches_match_scalar_calls(self, delta):
        # the four infinity-class arguments of a main-term point, at the
        # bench's heights: measured at most 7e-16 apart
        rng = np.random.default_rng(8)
        for tau, t in zip(rng.uniform(-2.4, 2.4, 12), rng.uniform(0.3, 1.7, 12)):
            s, it = complex(0.5, tau), 1j * t
            ws = np.array([s + 0.5 + it, s + 0.5 - it, 1.5 - s - it, 1.5 - s + it])
            for w, b in zip(ws, ls.sym2_L(ws, delta)):
                v = ls.sym2_L(w, delta)
                assert abs(b - v) <= 1e-14 * abs(v), w

    def test_any_batch_matches_scalar_calls(self, delta):
        # a batch shares one sum length, set by its height, so a value moves
        # by the AFE's roundoff (measured 1.9e-13 at -0.75 + 0.02i, |L| = 0.09)
        rng = np.random.default_rng(9)
        for _ in range(6):
            s = rng.uniform(-0.9, 1.9, 6) + 1j * rng.uniform(-4.2, 4.2, 6)
            for w, b in zip(s, ls.sym2_L(s, delta)):
                v = ls.sym2_L(w, delta)
                assert abs(b - v) <= 1e-12 * abs(v), w

    def test_batch_is_one_read_only_memo_entry(self, delta):
        ls._sym2_L.cache_clear()
        s = np.array([1.2 + 0.7j, 0.3 - 2.1j, 1.2 + 0.7j])
        first = ls.sym2_L(s, delta)
        assert not first.flags.writeable
        assert first[0] == first[2]
        assert ls.sym2_L(list(s), delta) is first  # the same tuple of s: a hit
        assert ls._sym2_L.cache_info()[:2] == (1, 1)
        assert ls.sym2_L(np.array([], dtype=complex), delta).shape == (0,)
        with pytest.raises(DomainError):
            ls.sym2_L(np.full((2, 2), 0.5 + 1j), delta)
        for bad in (4.5, 0.5 - 19j):  # one s outside the domain fails the batch
            with pytest.raises(DomainError):
                ls.sym2_L(np.array([0.5 + 1j, bad]), delta)

    def test_checks_run_on_a_miss_only(self, delta, monkeypatch):
        # a hit skips the AFE's checks, and a refused s is never kept, so it
        # raises on every call
        checked = []
        checks = ls._afe_batch
        monkeypatch.setattr(ls, "_afe_batch", lambda s, *rest: checked.append(s) or checks(s, *rest))
        ls._sym2_L.cache_clear()
        first = ls.sym2_L(0.5 + 1j, delta)
        assert ls.sym2_L(0.5 + 1j, delta) == first
        assert len(checked) == 1
        for bad in (4.5, np.array([0.5 + 1j, 0.5 - 19j]), np.full((2, 2), 0.5 + 1j)):
            for _ in range(2):
                with pytest.raises(DomainError):
                    ls.sym2_L(bad, delta)
        assert len(checked) == 7
        assert ls._sym2_L.cache_info() == (1, 7, 64, 1)  # hits, misses, maxsize, size


class TestSumLength:
    """The engine's derived sum length n (``_afe_length``) on its probe
    grids: doubling it moves L by at most 1e-14 |L|, or by at most three
    times the spread of L over the lengths 1.2n, 1.5n and 1.7n, the AFE's
    roundoff floor at that point.

    Each L(m) sums the first m terms of one set of weights, computed once
    to 2n.  The step is h/2: the trapezoid's weights level off at its alias
    e^{-2 pi sigma0/h} times the residues left of the contour (2.3e-14 for
    holo_L at sigma0 = 2) instead of decaying, so on the description's own
    h every term past the cutoff adds that much, and L(2n) drifts from L(n)
    by up to 9.5e-12 at sym2's -2.9 + 18.7i."""

    @pytest.mark.parametrize("data, res, ims", [
        (ls._holo_data, (-6.9, -3.0, 0.5, 1.2, 4.0, 7.9), (0.0, 3.0, 10.0, 30.0, 45.0, 62.0)),
        (ls._sym2_data, (-2.9, -1.2, 0.5, 2.0, 3.9), (0.0, 2.0, 5.0, 10.0, 14.0, 18.7)),
    ], ids=["holo", "sym2"])
    def test_doubling_the_length_moves_only_roundoff(self, delta, data, res, ims):
        desc = data(delta)
        desc = desc._replace(contour=(desc.contour[0], desc.contour[1] / 2.0))
        for s in (complex(re, im) for re in res for im in ims):
            n = ls._afe_length(np.array([s, 1.0 - s]), desc)
            terms, factor = _fresh_terms(s, desc, 2 * n)
            value, *floor, doubled = (terms[0, :m].sum() + factor * terms[1, :m].sum()
                                      for m in (n, math.ceil(1.2 * n), math.ceil(1.5 * n),
                                                math.ceil(1.7 * n), 2 * n))
            spread = max(abs(a - b) for a in floor for b in floor)
            assert abs(doubled - value) <= max(1e-14 * abs(value), 3.0 * spread), s


class TestContourCut:
    @pytest.mark.parametrize("data, height, tol", [
        # measured at Re s = 0.2, 1/2, 1: 0 at every point, for both.  The
        # full contour's slots give every row's sum its grouping, and the
        # kernel past the cut is below half an ulp of the sum's terms
        (ls._holo_data, 0.0, 1e-14), (ls._holo_data, 4.0, 1e-14), (ls._holo_data, 10.0, 1e-14),
        (ls._holo_data, 20.0, 1e-14), (ls._holo_data, 40.0, 1e-14),
        (ls._sym2_data, 0.0, 1e-14), (ls._sym2_data, 4.0, 1e-14), (ls._sym2_data, 10.0, 1e-12),
        (ls._sym2_data, 20.0, 5e-9), (ls._sym2_data, 40.0, 1e-3),
    ], ids=lambda p: getattr(p, "__name__", p))
    def test_cut_matches_full_contour(self, delta, data, height, tol):
        desc = data(delta)
        for re in (0.2, 0.5, 1.0):
            s = complex(re, height)
            cut = ls._smoothed_afe(np.array([s]), desc)[0]
            full = _fresh_afe(s, desc, full=True)
            assert abs(cut - full) <= tol * abs(full), s

    def test_rows_follow_the_batch_height(self, delta, monkeypatch):
        # c sqrt(2 (42 + (pi/4) d H)) against the contour's vmax: a row of
        # sym^2 (c = 4, d = 3) takes 232 of the 397 or 398 nodes of its full
        # contour at the main term's H = 4.1, and a row of holo_L (c = 3,
        # d = 2) all 225 from H = 45.1 on.  Re s is not 1/2, so s and 1 - s
        # differ in Re u, and each log g table is the nodes of one row
        seen = []
        fold = ls._log_gamma

        def recording_fold(shifts):
            log_gamma, scale = fold(shifts)

            def recording(u, w):
                seen.append(np.size(w))
                return log_gamma(u, w)

            return recording, scale

        monkeypatch.setattr(ls, "_log_gamma", recording_fold)

        def rows(data, s):
            seen.clear()
            ls._smoothed_afe(s, data(delta))
            return max(seen)

        assert rows(ls._sym2_data, np.array([1.0 + 4.1j])) == 232
        assert rows(ls._sym2_data, np.array([1.0 + 4.1j, 0.2 - 300j])) == 398
        full = rows(ls._holo_data, np.array([0.3 + 100j]))
        assert full == 225
        assert rows(ls._holo_data, np.array([0.3 + 45.2j])) == full
        assert rows(ls._holo_data, np.array([0.3 + 44.0j])) < full


class TestCurlyLEisenstein:
    def test_direct_vs_factored_grid(self):
        # the spec grid: t in {0, 0.7}, r in {0.3, 1.1} (t = 0 exercises the
        # removable singularity of the local factors)
        for N in (1, 2):
            for cusp in ar.enumerate_cusps(N):
                for t in (0.0, 0.7):
                    for r in (0.3, 1.1):
                        d = ls.curly_L_eisenstein_direct(2.5, t, r, cusp, m_max=40_000)
                        fa = ls.curly_L_eisenstein_factored(2.5, t, 1j * r, cusp)
                        assert abs(d.value - fa) < 2e-6 * abs(fa), (N, cusp, t, r)

    def test_direct_vs_factored_quick(self):
        for N in (1, 2):
            for cusp in ar.enumerate_cusps(N):
                d = ls.curly_L_eisenstein_direct(2.5, 0.7, 0.3, cusp, m_max=40_000)
                fa = ls.curly_L_eisenstein_factored(2.5, 0.7, 0.3j, cusp)
                assert abs(d.value - fa) < 2e-6 * abs(fa), (N, cusp)
                assert_within_error(d.value - fa, d.error, note=(N, cusp))

    def test_direct_region_check(self):
        with pytest.raises(DomainError):
            ls.curly_L_eisenstein_direct(1.2, 0.7, 0.3, CuspLabel(1, 1, 1), m_max=100)

    @pytest.mark.parametrize("cusp", [CuspLabel(1, 1, 1), CuspLabel(4, 2, 1)], ids=["N1", "N4"])
    def test_traced_peak_at_full_length(self, cusp):
        # the terms are formed _TWIST_BLOCK at a time: 2.7 MB at N = 1 and
        # 3.5 MB at N = 4, most of it the divisor sums' kept coefficients,
        # where the whole-length arrays took 8.0 MB; the shared log and
        # divisor-bound tables are grown before the trace
        ar.log_table(100_000)
        ar.divisor_bound_table(100_000)
        tracemalloc.start()
        try:
            ls.curly_L_eisenstein_direct(2.5, 0.7, 0.3, cusp, m_max=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6


class TestCurlyLMaass:
    def test_level_one_collapse(self):
        u = ls.synthetic_maass_form(N=1, L=1, r=5.1, m_max=50_000, seed=5)
        fa = ls.curly_L_maass_factored(2.5, 0.7, u)
        expect = (
            u.lifts[1]
            * u.rho1
            * ls.maass_L(2.5 + 0.7j, u)
            * ls.maass_L(2.5 - 0.7j, u)
        )
        assert abs(fa - expect) < 1e-12 * abs(expect)

    def test_t_zero_square(self):
        u = ls.synthetic_maass_form(N=1, L=1, r=5.1, m_max=50_000, seed=5)
        fa = ls.curly_L_maass_factored(2.5, 0.0, u)
        expect = u.lifts[1] * u.rho1 * ls.maass_L(2.5, u) ** 2
        assert abs(fa - expect) < 1e-12 * abs(expect)

    @pytest.mark.parametrize("N,L,seed", [(2, 1, 3), (4, 2, 11), (6, 1, 17)])
    def test_direct_vs_factored(self, N, L, seed):
        u = ls.synthetic_maass_form(N=N, L=L, r=7.7, m_max=200_000, seed=seed)
        d = ls.curly_L_maass_direct(2.5, 0.7, u)
        fa = ls.curly_L_maass_factored(2.5, 0.7, u)
        assert abs(d.value - fa) < 1e-8 * abs(fa)
        assert_within_error(d.value - fa, d.error)

    def test_t_zero_composite_level(self):
        u = ls.synthetic_maass_form(N=2, L=1, r=9.53, m_max=100_000, seed=3)
        d = ls.curly_L_maass_direct(2.5, 0.0, u)
        fa = ls.curly_L_maass_factored(2.5, 0.0, u)
        assert abs(d.value - fa) < 1e-7 * abs(fa)


class TestDivisorModel:
    def test_closed_form_rankin_selberg(self):
        nu, mu = 0.52, 1.13
        for N in (1, 2):
            f = ls.divisor_model_newform(nu, 12, N, 4000)
            g = ls.divisor_model_newform(mu, 12, N, 4000)
            w = 2.6 + 0.4j
            direct, tail = ls.rankin_selberg_L(w, f, g, m_max=4000)
            closed = ls.divisor_model_rs_L(w, nu, mu, N)
            assert abs(direct - closed) < 1e-5 * abs(closed)
            assert abs(direct - closed) <= tail

    def test_hecke_and_bounds(self):
        f = ls.divisor_model_newform(0.52, 12, 1, 500)
        A = f.A(500)
        assert abs(A[0] - 1.0) < 1e-14
        assert abs(A[5] - A[1] * A[2]) < 1e-12  # multiplicativity at 6 = 2*3


def _sym2_coeffs_per_n(f, m_max):
    """The symmetric-square coefficients as a per-n loop over the sieve."""
    spf = ar.smallest_prime_factors(m_max).tolist()
    vals = {1: 1.0}
    for p in [q for q in range(2, m_max + 1) if spf[q] == q]:
        ap = float(f.a[p - 1]) * p ** (-(f.k - 1) / 2.0)
        alpha = (ap + np.sqrt(complex(ap * ap - 4.0))) / 2.0
        a2 = alpha * alpha
        b2 = 1.0 / a2
        pe, e = p, 1
        while pe <= m_max:
            acc = 0.0 + 0.0j
            for i in range(e + 1):
                for l in range(e - i + 1):
                    acc += a2**i * b2**l
            vals[pe] = acc.real
            pe *= p
            e += 1
    out = np.ones(m_max)
    for n in range(2, m_max + 1):
        p = spf[n]
        pe = p ** ar.ord_p(n, p)
        out[n - 1] = vals[pe] * out[n // pe - 1]
    return out


def _maass_hecke_per_n(L, m_max, seed):
    """synthetic_maass_form's lambda(1..m_max) as a per-n loop over the sieve."""
    rng = np.random.default_rng(seed)
    spf = ar.smallest_prime_factors(m_max).tolist()
    lam_p = {}
    for p in [q for q in range(2, m_max + 1) if spf[q] == q]:
        theta = 2.0 * math.pi * rng.random()
        if L % p == 0:
            lam_p[p] = (1.0 if rng.random() < 0.5 else -1.0) / math.sqrt(p)
        else:
            lam_p[p] = 2.0 * math.cos(theta)
    vals = np.ones(m_max + 1)
    for n in range(2, m_max + 1):
        p = spf[n]
        e = ar.ord_p(n, p)
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
    return vals[1:]


class TestMultiplicativeCoefficients:
    """The coefficient arrays that ``arith.multiplicative_array`` fills keep
    the bits of a per-n loop over the sieve."""

    def test_sym2_coeffs_bit_for_bit(self, delta):
        assert np.array_equal(ls._sym2_coeffs(delta, 2000), _sym2_coeffs_per_n(delta, 2000))

    @pytest.mark.parametrize("N, L", [(1, 1), (6, 2)])
    def test_synthetic_maass_bit_for_bit(self, N, L):
        u = ls.synthetic_maass_form(N=N, L=L, r=7.7, m_max=5000, seed=11)
        assert np.array_equal(u.lam, _maass_hecke_per_n(L, 5000, 11))

    def test_divisor_model_against_per_d_loop(self):
        # lambda(n) = sum_{d | n} (d^2 / n)^{i nu}, one divisor d at a time
        nu, m_max = 0.52, 3000
        lam = np.zeros(m_max)
        for d in range(1, m_max + 1):
            idx = np.arange(d, m_max + 1, d, dtype=float)
            lam[d - 1 :: d] += np.real(np.exp(1j * nu * np.log(d * d / idx)))
        got = ls.divisor_model_newform(nu, 12, 1, m_max).A(m_max)
        assert np.allclose(got, lam, rtol=0.0, atol=1e-13)
