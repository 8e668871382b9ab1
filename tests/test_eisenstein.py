import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmoments import arith as ar
from rsmoments import eisenstein as eis
from rsmoments.arith import CuspLabel
from rsmoments.specfun import DomainError, NonConvergenceError, complex_gamma, riemann_zeta

LEVEL1 = CuspLabel(1, 1, 1)


def _tau_array(cusp, s, m_max):
    """tau_{1/(c a)}(s, m) for m = 1..m_max (index m-1): tau_cusp_blocks in one block."""
    return next(eis.tau_cusp_blocks(cusp, s, m_max, m_max))


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


def _assert_rows_match_enumeration(N, a, c, max_height):
    """``_row_phase_sums`` against the residues of ``_valid_rows``, summed directly."""
    m = np.arange(1, eis._PHASE_KMAX + 1)
    rows = _valid_rows(N, a, c, max_height)
    cts, sizes, ph = eis._row_phase_sums(N, a, c, max_height)
    assert list(cts) == [ct for ct, _ in rows]
    assert list(sizes) == [len(d0s) for _, d0s in rows]
    for i, (ct, d0s) in enumerate(rows):
        brute = np.exp(2j * math.pi * np.outer(m, d0s / ct)).sum(axis=1)
        assert np.max(np.abs(ph[i] - brute)) < 1e-9
    return cts


class TestLambdaChi:
    def test_trivial_character_reduction(self):
        chi = ar.characters_mod(1)[0]
        for n in (1, 6, -10):
            s = 1.3 + 0.4j
            expect = abs(n) ** (s - 0.5) * ar.sigma_complex(abs(n), 1.0 - 2.0 * s)
            assert abs(eis.lambda_chi(n, s, chi) - expect) < 1e-13 * abs(expect)

    def test_vanishing_on_shared_factor(self):
        chi8 = [c for c in ar.characters_mod(8) if c.is_primitive][0]
        assert eis.lambda_chi(2, 1.1, chi8) == 0
        assert eis.lambda_chi(6, 1.1, chi8) == 0

    def test_explicit_divisor_loop_mod5(self):
        chi = [c for c in ar.characters_mod(5) if c.is_primitive][0]
        s = 1.3
        n = 6
        expect = np.conj(chi(6)) * 6 ** (s - 0.5) * sum(
            chi(d) ** 2 * d ** (1 - 2 * s) for d in (1, 2, 3, 6)
        )
        assert abs(eis.lambda_chi(n, s, chi) - expect) < 1e-13


class TestTauCusp:
    def test_level_one_closed_form(self):
        for s in (1.3, 1.5 + 0.4j, 2.0):
            for n in (1, 2, -3, 6):
                v = eis.tau_cusp(LEVEL1, s, n)
                w = eis.tau_level_one(s, n)
                assert abs(v - w) < 1e-12 * abs(w)

    def test_level_one_spec_value(self):
        v = eis.tau_cusp(LEVEL1, 1.3, 1)
        expect = 2 * math.pi**1.3 / (complex_gamma(1.3) * riemann_zeta(2.6))
        assert abs(v - expect) < 1e-13 * abs(expect)

    def test_conjugation_symmetry(self):
        for N in (2, 4, 6, 9, 12):
            for cusp in ar.enumerate_cusps(N):
                for r in (0.3, 1.1):
                    for n in (1, -1, 2, -2):
                        lhs = np.conj(eis.tau_cusp(cusp, 0.5 + 1j * r, n))
                        rhs = eis.tau_cusp(cusp, 0.5 - 1j * r, -n)
                        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))

    def test_divisibility_vanishing(self):
        # N = 4, a = 4: every admissible (l, b) pair leaves e in {2, 4}, so
        # the coefficient vanishes unless 2 | n
        cusp = CuspLabel(4, 4, 1)
        assert abs(eis.tau_cusp(cusp, 1.3, 1)) < 1e-15
        assert abs(eis.tau_cusp(cusp, 1.3, 3)) < 1e-15
        assert abs(eis.tau_cusp(cusp, 1.3, 2)) > 1e-3

    def test_array_matches_scalar(self):
        for cusp in (CuspLabel(4, 2, 1), CuspLabel(9, 3, 1), CuspLabel(6, 3, 1)):
            arr = _tau_array(cusp, 1.3 + 0.2j, 60)
            for m in (1, 2, 3, 7, 24, 60):
                v = eis.tau_cusp(cusp, 1.3 + 0.2j, m)
                assert abs(arr[m - 1] - v) < 1e-12 * (1 + abs(v))

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            eis.tau_cusp(LEVEL1, 1.3, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda N: st.sampled_from(ar.enumerate_cusps(N))),
        st.integers(1, 200),
        st.data(),
        st.floats(1.1, 1.6),
        st.floats(-3.0, 3.0),
    )
    def test_array_matches_scalar_property(self, cusp, m_max, data, re_s, im_s):
        s = complex(re_s, im_s)
        arr = _tau_array(cusp, s, m_max)
        for m in data.draw(st.lists(st.integers(1, m_max), min_size=1, max_size=4)):
            v = eis.tau_cusp(cusp, s, m)
            assert abs(arr[m - 1] - v) < 1e-12 * (1 + abs(v))


# SHA-256 of tau_cusp_blocks(CuspLabel(N, a, c), 1/2 + 0.37i, 10**5) in one
# block, recorded with every power m^z formed as exp(z log m) from
# arith.log_table (numpy 2.4, x86-64)
TAU_CUSP_SHA256 = {
    (1, 1, 1): "22f4ae9992ac6af30e3382de2ca48d700ab8cfb6637fdbbafe59d85e312bcaed",
    (2, 1, 1): "fde29e77fb1f467f039559d87b4727c8dbc509096027703aa13953b333276983",
    (2, 2, 1): "b4d9e10b0f9a06f390248d3e4e7a0802f1154a03757c95631676bd72426d282c",
    (4, 1, 1): "b83f69d883d8eefe8eb9a945e54e36d4154a59b2453794d59ec695b051b3eec9",
    (4, 2, 1): "227141cd55c3309414c03d3982d9a402d73b5b6138e549cd9ff8ec5061139a6b",
    (4, 4, 1): "4dada122f262e8d3d22526c68ace328c3cd69ebe49b8ab20724889a8af214e0f",
    (6, 1, 1): "ac6fb2e37c21b554bc77127dcb173067f6c16b120500ccaac6a6e913e9cd329d",
    (6, 2, 1): "703ab105d42cbb8b40a795bf81c9c9b1cc67f5f8cf688bdb28df7726594bec46",
    (6, 3, 1): "7e230987567454aa9918fa33c75793ac8fdc91f20cc5616cea19b4eec38af549",
    (6, 6, 1): "4e1cf7e228b73004dd939e91a88cdc3017d9b2e00aac71b0b02443da7454b643",
    (12, 1, 1): "b15918a629d057acc96486475bc837fdeee9939bcca06fc0ebd544ca84235543",
    (12, 2, 1): "8dbc506a1f40ad826d807816d2e43774c07551a5cbd846c389fb6113aa58c326",
    (12, 3, 1): "f72b2b87699ead0c669b00f61d106c0894d69407adc1d185ead7b1ff6adc992b",
    (12, 4, 1): "f04dd802771371192c8815a5ec6c4c5151b3e9c9ceff6689cf37867e76762e1a",
    (12, 6, 1): "54d9129365286f63d1ae04ee194ceb42f47429fdaa1d20c9bdef32920e2253d0",
    (12, 12, 1): "10a841d60cffa2460e07b5cd3da716926ac934d3d4bf9ca38682d3a870b36303",
}


@pytest.mark.parametrize("N, a, c", sorted(TAU_CUSP_SHA256))
def test_tau_cusp_array_bits_pinned(N, a, c):
    arr = _tau_array(CuspLabel(N, a, c), 0.5 + 0.37j, 100_000)
    assert hashlib.sha256(arr.tobytes()).hexdigest() == TAU_CUSP_SHA256[N, a, c]


@pytest.mark.parametrize("N, a, c", [(1, 1, 1), (4, 1, 1), (4, 2, 1), (12, 6, 1)])
def test_tau_cusp_blocks_bits_pinned(N, a, c):
    # the twisted series' block size: a block past the first reads lam at
    # m / e from the kept half of the range
    blocks = eis.tau_cusp_blocks(CuspLabel(N, a, c), 0.5 + 0.37j, 100_000, 1 << 14)
    assert hashlib.sha256(np.concatenate(list(blocks)).tobytes()).hexdigest() == TAU_CUSP_SHA256[N, a, c]


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("cusp", [CuspLabel(4, 2, 1), CuspLabel(9, 3, 1), CuspLabel(12, 6, 1)], ids=str)
def test_tau_cusp_blocks_match_the_array(cusp, block):
    # off the line Re s = 1/2 too, and with two characters at a = 3, N = 9
    whole = _tau_array(cusp, 1.3 + 0.2j, 1000)
    assert np.concatenate(list(eis.tau_cusp_blocks(cusp, 1.3 + 0.2j, 1000, block))).tobytes() == whole.tobytes()


class TestOracle:
    TR = eis.LatticeTruncation(max_height=400, fourier_y=0.5, fourier_points=128)

    def test_level_one_reality(self):
        v, tail = eis.eisenstein_oracle(LEVEL1, 0.3 + 1.1j, 1.7, self.TR)
        assert abs(v.imag) < 1e-10 * abs(v)
        assert tail < abs(v)

    def test_level_one_against_formula(self):
        v = eis.tau_oracle(LEVEL1, 1.3, 1, self.TR)
        w = eis.tau_cusp(LEVEL1, 1.3, 1)
        assert abs(v - w) < 1e-4 * abs(w)

    def test_level_three_cusp_against_formula(self):
        cusp = CuspLabel(3, 3, 1)
        trunc = eis.LatticeTruncation(max_height=800, fourier_y=0.25, fourier_points=128)
        v = eis.tau_oracle(cusp, 1.4, 2, trunc)
        w = eis.tau_cusp(cusp, 1.4, 2)
        assert abs(v - w) < 1e-4 * abs(w)

    @pytest.mark.parametrize("N", [1, 4, 6, 9])
    def test_complex_s_against_formula(self, N):
        # off the real axis K_{s-1/2} has complex order and comes from
        # bessel_K, not scipy's kv; criterion 3's truncation and 1e-4
        # (measured worst 2.8e-6, at the cusp 6/6 and s = 1.3 + 0.6i)
        for cusp in ar.enumerate_cusps(N):
            for s in (1.3 + 0.6j, 1.45 - 0.9j):
                for n in (1, -2):
                    trunc = eis.LatticeTruncation(max_height=1600, fourier_y=0.5 / abs(n), fourier_points=128)
                    v = eis.tau_oracle(cusp, s, n, trunc)
                    w = eis.tau_cusp(cusp, s, n)
                    if abs(w) < 1e-10:  # a coefficient that vanishes identically
                        assert abs(v) < 1e-5, (cusp, s, n)
                    else:
                        assert abs(v - w) < 1e-4 * abs(w), (cusp, s, n)

    def test_sign_of_n_symmetry_real_s(self):
        cusp = CuspLabel(2, 2, 1)
        a = eis.tau_oracle(cusp, 1.5, 1, self.TR)
        b = eis.tau_oracle(cusp, 1.5, -1, self.TR)
        assert abs(a - b) < 1e-8 * (1 + abs(a))

    def test_constant_term_level_one(self):
        # int_0^1 E(x+iy) dx - y^s = tau(s, 0) y^{1-s} with the classical
        # tau(s, 0) = sqrt(pi) G(s-1/2)/G(s) zeta(2s-1)/zeta(2s).
        # The n = 0 coefficient has no sign cancellation across rows, so it
        # converges at the raw H^(2-2s) rate; H = 1600 gives ~6e-5.
        s, y = 1.6, 0.9
        trunc = eis.LatticeTruncation(max_height=1600, fourier_y=0.5, fourier_points=128)
        c0 = eis.eisenstein_constant_term(LEVEL1, y, s, trunc)
        tau0 = (
            math.sqrt(math.pi)
            * complex_gamma(s - 0.5)
            / complex_gamma(s)
            * riemann_zeta(2 * s - 1)
            / riemann_zeta(2 * s)
        )
        assert abs(c0 - tau0 * y ** (1 - s)) < 2e-4 * abs(c0)

    def test_two_heights_consistent(self):
        cusp = CuspLabel(2, 2, 1)
        v1, t1 = eis.eisenstein_oracle(cusp, 1j, 1.5, eis.LatticeTruncation(max_height=200))
        v2, t2 = eis.eisenstein_oracle(cusp, 1j, 1.5, eis.LatticeTruncation(max_height=400))
        assert abs(v1 - v2) <= t1 + t2

    def test_ill_conditioned_extraction(self):
        trunc = eis.LatticeTruncation(max_height=200, fourier_y=3.0, fourier_points=128)
        with pytest.raises(eis.IllConditionedError):
            eis.tau_oracle(LEVEL1, 1.2, 9, trunc)

    def test_no_row_below_max_height(self):
        # rows start at ct = a: no row fits, only the identity coset (a = N)
        # and the tail bound are left
        trunc = eis.LatticeTruncation(max_height=10)
        for N, a in ((12, 12), (30, 15)):
            cts, sizes, ph = eis._row_phase_sums(N, a, 1, 10)
            assert cts.shape == sizes.shape == (0,) and ph.shape == (0, eis._PHASE_KMAX)
        top = CuspLabel(12, 12, 1)
        values, tail = eis._eisenstein_x_profile(top, np.array([0.1, 0.6]), 0.5, 1.4, trunc)
        assert np.all(np.abs(values - 0.5 ** 1.4) < 1e-15) and tail > 0
        assert abs(eis.tau_oracle(top, 1.4, 1, trunc)) < 1e-14
        mid = CuspLabel(30, 15, 1)
        _, tail = eis._eisenstein_x_profile(mid, np.array([0.3]), 1.0, 1.5, trunc)
        assert eis.eisenstein_oracle(mid, 0.3 + 1j, 1.5, trunc) == (0.0, tail)
        with pytest.raises(NonConvergenceError):
            eis.eisenstein_oracle(mid, 0.3 + 0.01j, 1.5, trunc)

    def test_memo_hit_copies_no_phase_table(self):
        # a copy of the cached phase sums' columns for n = 3 at y = 1/6 and
        # max_height 1600 takes 1.2 MB; a hit that reads them in place peaks
        # near 0.07 MB
        trunc = eis.LatticeTruncation(max_height=1600, fourier_y=0.5 / 3)
        eis.tau_oracle(LEVEL1, 1.3 + 0.2j, 3, trunc)
        tracemalloc.start()
        try:
            eis.tau_oracle(LEVEL1, 1.3 + 0.2j, 3, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            eis.eisenstein_oracle(LEVEL1, 1j, 0.9, self.TR)
        with pytest.raises(DomainError):
            eis.eisenstein_oracle(LEVEL1, 0.3 - 1j, 1.5, self.TR)


class TestRowPhaseSums:
    def test_closed_form_matches_row_sums(self):
        # the brute-force row sum over the residues d0 is the test oracle
        for N in range(1, 13):
            for cusp in ar.enumerate_cusps(N):
                _assert_rows_match_enumeration(N, cusp.a, cusp.c, 200)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 100), st.integers(10, 400), st.data())
    def test_closed_form_property(self, N, max_height, data):
        # reaches moduli G = gcd(ct, N/a) above 12 and prime powers (N = 64, 81)
        cusp = data.draw(st.sampled_from(ar.enumerate_cusps(N)))
        a, Na = cusp.a, N // cusp.a
        cts = _assert_rows_match_enumeration(N, a, cusp.c, max_height)
        present = [ct for ct in range(a, max_height + 1, a)
                   if math.gcd(ct // a, math.gcd(ct, Na)) == 1]
        assert list(cts) == present

    def test_cached_arrays_reject_writes(self):
        for arr in eis._row_phase_sums(6, 2, 1, 200):
            with pytest.raises(ValueError):
                arr[0] = 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.integers(1, eis._PHASE_KMAX))
    def test_von_sterneck_property(self, q, m):
        # at level one row q runs over every unit mod q: its sums are c_q(m)
        cts, _, ph = eis._row_phase_sums(1, 1, 1, 500)
        assert cts[q - 1] == q
        closed = ph[q - 1, m - 1]
        divisor_sum = sum(ar.mobius(q // d) * d for d in ar.divisors(math.gcd(q, m)))
        units = np.array([d for d in range(1, q + 1) if math.gcd(d, q) == 1])
        brute = np.exp(2j * math.pi * m * units / q).sum()
        assert closed == divisor_sum
        assert abs(brute - closed) < 1e-9

    def test_oracle_independent_of_character_formula(self):
        # follow, by name, every module function the oracle entry points reach
        forbidden = {"characters_mod", "_inner_pairs", "lambda_chi", "tau_cusp",
                     "tau_cusp_blocks", "_chi_prefactor", "_character_terms"}

        def code_names(code):
            out = set(code.co_names)
            for const in code.co_consts:
                if inspect.iscode(const):
                    out |= code_names(const)
            return out

        def own_function(name):
            fn = getattr(eis, name, None)
            fn = getattr(fn, "__wrapped__", fn)
            return fn if inspect.isfunction(fn) and fn.__module__ == eis.__name__ else None

        todo = ["tau_oracle", "eisenstein_oracle", "eisenstein_constant_term"]
        reached, used = set(), set()
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                names = code_names(own_function(name).__code__)
                used |= names
                todo += [n for n in names if own_function(n)]
        assert "_row_phase_sums" in reached
        assert not used & forbidden


class TestScrP:
    def test_corollary_zeros(self):
        for N in (2, 6, 12, 29, 30):
            for a in ar.divisors(N):
                if a == N:
                    continue
                for t in (0.3, 1.7):
                    s = 0.8 + 0.3j
                    assert abs(eis.euler_poly(N, a, s, t, 1.0 - s + 1j * t)) < 1e-12

    def test_a_equals_N_closed_form(self):
        for N in (2, 3, 4, 6, 9, 12, 30):
            for t in (0.3, 1.7):
                s = 0.8 + 0.3j
                lhs = eis.euler_poly_normalized(N, N, s, t, +1)
                rhs = 2.0 * N ** (1 - 2 * s)
                for p in ar.prime_divisors(N):
                    rhs *= (1 - p ** (-1.0 - 2j * t)) * (1 - 1.0 / p)
                assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_minus_specialisation_closed_form(self):
        for N in (2, 4, 6, 9):
            for a in ar.divisors(N):
                s = 0.5 + 0.9j
                t = 0.7
                lhs = eis.euler_poly_normalized(N, a, s, t, -1)
                rhs = eis.euler_poly_normalized_closed_minus(N, a, s, t)
                assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))
