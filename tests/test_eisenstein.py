import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmoments import arith as ar
from rsmoments import eisenstein as eis
from rsmoments.arith import CuspLabel
from rsmoments.specfun import DomainError, complex_gamma, riemann_zeta

LEVEL1 = CuspLabel(1, 1, 1)


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
            arr = eis.tau_cusp_array(cusp, 1.3 + 0.2j, 60)
            for m in (1, 2, 3, 7, 24, 60):
                v = eis.tau_cusp(cusp, 1.3 + 0.2j, m)
                assert abs(arr[m - 1] - v) < 1e-12 * (1 + abs(v))

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            eis.tau_cusp(LEVEL1, 1.3, 0)


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

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            eis.eisenstein_oracle(LEVEL1, 1j, 0.9, self.TR)
        with pytest.raises(DomainError):
            eis.eisenstein_oracle(LEVEL1, 0.3 - 1j, 1.5, self.TR)


class TestRowPhaseSums:
    def test_closed_form_matches_row_sums(self):
        # the brute-force row sum over the residues d0 is the test oracle
        m = np.arange(1, eis._PHASE_KMAX + 1)
        for N in range(1, 13):
            for cusp in ar.enumerate_cusps(N):
                rows = eis._valid_rows(N, cusp.a, cusp.c, 200)
                cts, sizes, ph = eis._row_phase_sums(N, cusp.a, cusp.c, 200)
                assert list(cts) == [ct for ct, _ in rows]
                assert list(sizes) == [len(d0s) for _, d0s in rows]
                for i, (ct, d0s) in enumerate(rows):
                    brute = np.exp(2j * math.pi * np.outer(m, d0s / ct)).sum(axis=1)
                    assert np.max(np.abs(ph[i] - brute)) < 1e-9

    def test_cached_arrays_reject_writes(self):
        for arr in eis._row_phase_sums(6, 2, 1, 200):
            with pytest.raises(ValueError):
                arr[0] = 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.integers(1, 200))
    def test_von_sterneck_property(self, q, m):
        closed = int(eis._ramanujan_sums(q, m))
        divisor_sum = sum(ar.mobius(q // d) * d for d in ar.divisors(math.gcd(q, m)))
        units = np.array([d for d in range(1, q + 1) if math.gcd(d, q) == 1])
        brute = np.exp(2j * math.pi * m * units / q).sum()
        assert closed == divisor_sum
        assert abs(brute - closed) < 1e-9

    def test_oracle_independent_of_character_formula(self):
        # follow, by name, every module function the oracle entry points reach
        forbidden = {"characters_mod", "_inner_pairs", "lambda_chi", "tau_cusp",
                     "tau_cusp_array", "_chi_prefactor"}

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
        assert {"_row_phase_sums", "_ramanujan_sums", "_valid_rows"} <= reached
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
