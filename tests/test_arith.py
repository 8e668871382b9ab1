import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmoments import arith as ar
from rsmoments.specfun import PoleError

RNG = np.random.default_rng(7)


class TestFactorize:
    def test_examples(self):
        assert ar.factorize(12) == ((2, 2), (3, 1))
        assert ar.factorize(1) == ()
        assert ar.factorize(97) == ((97, 1),)

    def test_reconstruction_random(self):
        for _ in range(200):
            n = int(RNG.integers(1, 10**9))
            f = ar.factorize(n)
            assert math.prod(p**e for p, e in f) == n
            ps = [p for p, _ in f]
            assert ps == sorted(ps)
            assert all(ar.is_prime(p) for p in ps)

    def test_large_semiprime(self):
        assert ar.factorize(1000003 * 999983) == ((999983, 1), (1000003, 1))

    def test_overflow(self):
        with pytest.raises(OverflowError):
            ar.factorize(2**63)


class TestSieve:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 200_000))
    def test_least_prime_factor_against_factorize(self, n):
        factors = ar.factorize(n)
        spf = ar.smallest_prime_factors(n)
        assert spf[n] == factors[0][0]
        assert (spf[n] == n) == (factors == ((n, 1),)) == ar.is_prime(n)

    def test_table_grows_and_rejects_writes(self):
        small = ar.smallest_prime_factors(10)
        size = ar._spf.table.size
        big = ar.smallest_prime_factors(size + 5)
        assert ar._spf.table.size == size + 6  # exactly m = 0..size + 5
        assert list(small) == [0, 0, 2, 3, 2, 5, 2, 7, 2, 3, 2]
        assert np.array_equal(big[: small.size], small)
        for arr in (small, big, ar._spf.table):
            with pytest.raises(ValueError):
                arr[4] = 3

    def test_mobius_phi_arrays_against_factorize(self):
        mu, phi = ar.mobius_phi_arrays(5000)
        assert mu[0] == phi[0] == 0
        assert list(mu[1:]) == [ar.mobius(m) for m in range(1, 5001)]
        assert list(phi[1:]) == [ar.euler_phi(m) for m in range(1, 5001)]


class TestMultiplicativeArray:
    @staticmethod
    def per_m_product(local, n, dtype):
        out = np.zeros(n + 1, dtype=dtype)
        for m in range(1, n + 1):
            value = dtype(1)
            for p, e in ar.factorize(m):
                value *= local(p, e)
            out[m] = value
        return out

    def test_float_local_against_factorize(self):
        # f(p^e) = e / p + cos(p e): no closed form the fill could shortcut
        def local(p, e):
            return e / p + math.cos(p * e)

        got = ar.multiplicative_array(local, 3000)
        assert got.dtype == np.float64 and got[0] == 0.0 and got[1] == 1.0
        assert np.allclose(got, self.per_m_product(local, 3000, np.float64), rtol=1e-14, atol=0.0)

    def test_int64_local_against_factorize(self):
        # the sum of the divisors, sigma(p^e) = (p^(e+1) - 1) / (p - 1)
        def local(p, e):
            return (p ** (e + 1) - 1) // (p - 1)

        got = ar.multiplicative_array(local, 3000, np.int64)
        assert got.dtype == np.int64
        assert np.array_equal(got, self.per_m_product(local, 3000, np.int64))
        assert got[12] == 28 and got[2999] == sum(ar.divisors(2999))

    def test_local_called_once_per_prime_power_in_order(self):
        calls = []
        ar.multiplicative_array(lambda p, e: calls.append((p, e)) or 1.0, 30)
        assert calls == [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                         (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1)]

    def test_smallest(self):
        assert np.array_equal(ar.multiplicative_array(lambda p, e: 2.0, 0), [0.0])
        assert np.array_equal(ar.multiplicative_array(lambda p, e: 2.0, 1), [0.0, 1.0])


class TestDivisorBoundTable:
    def test_values_are_divisor_count_upper(self):
        for n in (0, 1, 2, 3, 100_000, 7):
            table = ar.divisor_bound_table(n)
            assert table.tobytes() == ar.divisor_count_upper(np.arange(1, n + 1, dtype=float)).tobytes()

    def test_table_grows_and_rejects_writes(self):
        small = ar.divisor_bound_table(10)
        size = ar._divisor_bounds.table.size
        big = ar.divisor_bound_table(size + 5)
        assert ar._divisor_bounds.table.size == size + 5
        assert big.tobytes() == ar.divisor_count_upper(np.arange(1, size + 6, dtype=float)).tobytes()
        assert np.array_equal(ar.divisor_bound_table(10), small)
        for arr in (small, big, ar._divisor_bounds.table):
            with pytest.raises(ValueError):
                arr[1] = 0.5


class TestLogTable:
    def test_values_are_math_log(self):
        logs = ar.log_table(100_000)
        assert logs.shape == (100_000,)
        # bit for bit: np.log differs from math.log at some of these m
        assert logs.tolist() == [math.log(m) for m in range(1, 100_001)]
        assert ar.log_table(0).size == 0

    def test_table_grows_and_rejects_writes(self):
        small = ar.log_table(10)
        size = ar._logs.table.size
        big = ar.log_table(size + 5)
        assert ar._logs.table.size == size + 5
        after = ar.log_table(10)
        assert np.array_equal(big, np.fromiter(map(math.log, range(1, size + 6)), float))
        assert np.array_equal(after, small) and np.array_equal(big[:10], small)
        for arr in (small, big, after, big[3:7], ar._logs.table):
            with pytest.raises(ValueError):
                arr[1] = 0.5


class TestSigma:
    def test_examples(self):
        assert abs(ar.sigma_complex(6, 0) - 4) < 1e-14
        assert abs(ar.sigma_complex(6, 1) - 12) < 1e-14
        expect = 1 + 2 ** (-2j) + 4 ** (-2j)
        assert abs(ar.sigma_complex(4, -2j) - expect) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 2000),
        st.integers(1, 2000),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    def test_multiplicativity(self, m, n, z):
        while math.gcd(m, n) > 1:
            n //= math.gcd(m, n)
        lhs = ar.sigma_complex(m * n, z)
        rhs = ar.sigma_complex(m, z) * ar.sigma_complex(n, z)
        assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))

    def test_coprime_filter(self):
        # only divisors coprime to N survive
        assert abs(ar.sigma_complex(12, 1.0, 6) - 1.0) < 1e-14
        assert abs(ar.sigma_complex(12, 1.0, 2) - (1 + 3)) < 1e-14


class TestPM:
    def test_empty_product(self):
        assert ar.P_M(0.5 + 0.7j, 10, 1) == 1.0

    def test_prime_case_second_transcription(self):
        # independent transcription for M = p, ord_p(n) = 0, s = 1/2 + it
        p, t = 7, 0.63
        val = ar.P_M(0.5 + 1j * t, 5, p)
        expect = (p ** (-2j * t) * (1 - p ** (1 + 2j * t)) + p - 1) / (1 - p ** (-2j * t))
        assert abs(val - expect) < 1e-13

    def test_multiplicativity_in_M(self):
        s = 0.5 + 0.3j
        lhs = ar.P_M(s, 10, 12)
        rhs = ar.P_M(s, 10, 4) * ar.P_M(s, 10, 3)
        assert abs(lhs - rhs) < 1e-13 * abs(lhs)

    def test_denominator_zero(self):
        with pytest.raises(PoleError):
            ar.P_M(0.5, 3, 2)  # 1 - p^{1-2s} = 0 at s = 1/2


class TestSigmaTwisted:
    def test_level_one_reduction(self):
        for m in (1, 2, 17, 360, 9999):
            for t in (0.3, 0.7, 1.9):
                assert abs(ar.sigma_twisted_N(m, 1, t) - ar.sigma_complex(m, -2j * t)) < 1e-12

    def test_level_one_reduction_full_range(self):
        t = 0.7
        arr = ar.sigma_twisted_array(1, t, 10_000)
        for m in range(1, 10_001):
            v = ar.sigma_complex(m, -2j * t)
            assert abs(arr[m - 1] - v) < 1e-12 * (1 + abs(v))

    def test_support_condition(self):
        # N = 4: N/rad(N) = 2 must divide m
        assert ar.sigma_twisted_N(3, 4, 0.5) == 0
        assert ar.sigma_twisted_N(1, 4, 0.5) == 0
        assert abs(ar.sigma_twisted_N(2, 4, 0.5)) > 0

    def test_dual_transcription(self):
        # N = 2, m = 2, t = 0.7 written out by hand from the definition
        t = 0.7
        val = ar.sigma_twisted_N(2, 2, t)
        p_factor = (2 ** (-4j * t) * (1 - 2 ** (1 + 2j * t)) + 1) / (1 - 2 ** (-2j * t))
        expect = 2 ** (-2j * t) / 2 * p_factor * 1.0
        assert abs(val - expect) < 1e-14

    def test_array_matches_scalar(self):
        for N in (1, 2, 4, 6, 12):
            arr = ar.sigma_twisted_array(N, 0.7, 300)
            for m in (1, 2, 3, 8, 60, 300):
                v = ar.sigma_twisted_N(m, N, 0.7)
                assert abs(arr[m - 1] - v) < 1e-12 * (1 + abs(v))

    @pytest.mark.parametrize("t", [0.0, 1e-10])
    def test_array_matches_scalar_at_t_zero(self, t):
        # both take the removable local limits in place of P_N below |t| = 1e-9
        for N in (2, 4, 6, 8, 9, 12, 18):
            arr = ar.sigma_twisted_array(N, t, 300)
            for m in range(1, 301):
                v = ar.sigma_twisted_N(m, N, t)
                assert abs(arr[m - 1] - v) < 1e-12 * (1 + abs(v)), (N, m)

# SHA-256 of sigma_twisted_array(N, t, 10**5).tobytes(), recorded from the
# sieve that added d^{-2it} to the multiples of one d at a time (numpy 2.4,
# x86-64); the hyperbola split adds the same phases in the same order
SIGMA_TWISTED_SHA256 = {
    (1, 0.0): "d367f9ff035b83ec3c2008d06ac52eb71fe5f193cf92d003f926bc4ef46db94c",
    (1, 0.7): "192693c15a6e2b1fb27b36e00d86b6b445bc9e898f8167c1ccf505f7f938ff7d",
    (2, 0.0): "9156ae37f020245a3c8b4bb9e03972902449f886b72e92511150de28f1a5871c",
    (2, 0.7): "d1dd60903e4f6cb9834d1256f80d7aeeaec991ed6e3e57a3811b1c85866165ec",
    (3, 0.0): "ac64592dde30d8e0dcf2051253b556ea1eb0a3365120a0d67228ed52e7c81e9a",
    (3, 0.7): "3b6e04e4c98559768a7b5ba092d9a94ca2abdcf07bd35e69132d725739df86dd",
    (4, 0.0): "528de0c83d3fff2b7b225e92d24d57f9fccb297dec9643809ff47a0a7c7879ee",
    (4, 0.7): "98f67f8769154bb0b852626e83cd71d1814072355072966aa5a299442853ecb3",
    (5, 0.0): "bb1644a62387ab8aec85f2d4326cd9313df531545d07ce2e7bd5d86db9c9507c",
    (5, 0.7): "e0c4e1714b24a175814f6fa328ddb1914ca18098930fa5a824b0d8a08eb245e0",
    (6, 0.0): "91aa220ac5be7dd2f686bcd9a42ebc6c067c60b686f86b89f2c3650e6f69a0c7",
    (6, 0.7): "127179a587cf318d89dcd4b4eb94a600412127239cc981e795b599e77c4a66e6",
    (7, 0.0): "361d86edc26df5c709e375896417ed9c9e6ad970c5dcc9d2beb7e4d689e05bcc",
    (7, 0.7): "8e4a3a99a941df34c3265770b9b2cccdbeec97670c77cbb1fd0d2b7de1739891",
    (8, 0.0): "61b922305a2ebd1c721be4761beb580a90d381f4aaaebc227f017b7d32c9be42",
    (8, 0.7): "22ebee8fd3fe9dc001e792abe7ca6e148601bdedf761d7de807bb5e20609b44f",
    (9, 0.0): "4c66ecb4bdbca2a37a0dd188ef44d0c708d3ca6488ba16f1b76884d9729b0d06",
    (9, 0.7): "45b3a18f5bf48f120b70b101ac36aec934dbcb66d187ce02bb85eb57acf82de8",
    (10, 0.0): "f8ee49a62114819802b50976c2b02f2df3ffc3e71b9cfe2d5bf7df1e2b460a2b",
    (10, 0.7): "c3351cfb81aa7fc4bc025f499d6cbace21b60b8f6857c0fcf79b8614d055a8e3",
    (11, 0.0): "9b38746d2ad5ef221c948f361f8151acb4469913440af1bae04b8fa25720e265",
    (11, 0.7): "dc907dd07905acd643cf86403c78d9cdfcaa8ab947be9c97076a7db6abbdbf32",
    (12, 0.0): "51f8a2ebf442c1a5290d56804bf415660b5798851c9a6f51c54bfa04789111f2",
    (12, 0.7): "8c73d35a0ce61cf19e3cf5051dace36802878c8987ce418ec8c8ef181af76e70",
}


@pytest.mark.parametrize("N, t", sorted(SIGMA_TWISTED_SHA256))
def test_sigma_twisted_array_bits_pinned(N, t):
    arr = ar.sigma_twisted_array(N, t, 100_000)
    assert hashlib.sha256(arr.tobytes()).hexdigest() == SIGMA_TWISTED_SHA256[N, t]


class TestDivisorSumArray:
    @staticmethod
    def naive(coeffs):
        out = np.zeros(len(coeffs), dtype=complex)
        for d in range(1, len(coeffs) + 1):
            if coeffs[d - 1] != 0:
                out[d - 1 :: d] += coeffs[d - 1]
        return out

    @staticmethod
    def random_coeffs(m_max):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=m_max) + 1j * rng.normal(size=m_max)
        coeffs[rng.random(m_max) < 0.3] = 0.0
        coeffs[rng.random(m_max) < 0.05] = -0.0 - 0.0j
        return coeffs

    def test_matches_per_d_loop_across_blocks(self):
        # the j = 1 pass alone adds a run of about 70,000 coefficients
        coeffs = self.random_coeffs(70_000)
        # both add each m's terms in increasing d, so the bits agree; the
        # zeros (+0 and -0) that the runs add leave them alone
        assert ar.divisor_sum_array(coeffs).tobytes() == self.naive(coeffs).tobytes()

    @pytest.mark.parametrize("m_max", [1, 2, 3, 4, 9, 10])
    def test_matches_per_d_loop_around_the_root(self, m_max):
        # m_max at, just below and just above a square
        coeffs = self.random_coeffs(m_max)
        coeffs[0] = 0.5 - 2.0j  # kept even where the draw zeroes it
        assert ar.divisor_sum_array(coeffs).tobytes() == self.naive(coeffs).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 7, 64, 999, 1000])
    def test_blocks_match_one_block(self, block):
        # past the first block the sums read the kept c_d, d <= m_max // 2,
        # and still add each m's terms in increasing d
        coeffs = self.random_coeffs(1000)
        blocks = ar.divisor_sum_blocks((coeffs[lo : lo + block] for lo in range(0, 1000, block)), 1000)
        assert np.concatenate(list(blocks)).tobytes() == self.naive(coeffs).tobytes()

    @pytest.mark.parametrize("block", [1, 7, 64, 999])
    @pytest.mark.parametrize("N", [1, 4, 12])
    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_sigma_blocks_match_the_arrays(self, N, t, block):
        whole = ar.sigma_twisted_array(N, t, 1000)
        blocks = list(ar.sigma_twisted_blocks(N, t, 1000, block))
        assert [b.size for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        weights = np.concatenate(list(ar.twisted_weight_blocks(N, t, 1000, block)))
        assert weights.tobytes() == ar.sigma_twisted_weights(N, t, 1000).tobytes()

    def test_smallest_and_empty(self):
        assert np.array_equal(ar.divisor_sum_array([2.5 - 1j]), [2.5 - 1j])
        assert np.array_equal(ar.divisor_sum_array([0.0]), [0.0])
        assert ar.divisor_sum_array([]).size == 0

    def test_sigma_twisted_temporaries_do_not_grow_with_level(self):
        # P_N is a table over the few values of ord_p(m), not a full-length
        # complex array per prime
        def peak(N):
            ar.sigma_twisted_array(N, 0.7, 1000)
            tracemalloc.start()
            try:
                ar.sigma_twisted_array(N, 0.7, 100_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2) <= 1.5 * peak(1)


class TestZetaDepleted:
    def test_values(self):
        assert abs(ar.zeta_depleted(2.0, 1) - math.pi**2 / 6) < 1e-14
        assert abs(ar.zeta_depleted(2.0, 2) - math.pi**2 / 8) < 1e-14
        assert abs(ar.zeta_depleted(2.0, 6) - math.pi**2 / 9) < 1e-14

    def test_pole(self):
        with pytest.raises(PoleError):
            ar.zeta_depleted(1.0, 6)


def _cusp_equivalent(p1, q1, p2, q2, N):
    """Gamma_0(N)-equivalence of cusps p1/q1 ~ p2/q2 by orbit search.

    True when p2/q2 is within 14 generator steps of p1/q1.  The generators
    (T^{+-1} and the Gamma_0(N) lower-triangular [[1, 0], [+-N, 1]]) are
    closed under inverses, so that holds exactly when the radius-7 balls
    around the two cusps meet.
    """
    gens = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, N, 1), (1, 0, -N, 1))

    def norm(p, q):
        g = math.gcd(abs(p), abs(q)) or 1
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return (p, q)

    def ball(p, q):
        seen = {norm(p, q)}
        frontier = list(seen)
        for _ in range(7):
            new = []
            for (p, q) in frontier:
                for (a, b, c, d) in gens:
                    img = norm(a * p + b * q, c * p + d * q)
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            frontier = new
        return seen

    return not ball(p1, q1).isdisjoint(ball(p2, q2))


class TestCusps:
    def test_counts(self):
        for N in (1, 2, 3, 4, 6, 9, 12, 60, 200):
            cusps = ar.enumerate_cusps(N)
            expect = sum(ar.euler_phi(math.gcd(a, N // a)) for a in ar.divisors(N))
            assert len(cusps) == expect
            assert all(math.gcd(c.c, N) == 1 for c in cusps)

    def test_level_one_single_cusp(self):
        assert len(ar.enumerate_cusps(1)) == 1

    def test_prime_level_two_cusps(self):
        for p in (2, 3, 7, 31):
            assert len(ar.enumerate_cusps(p)) == 2

    def test_gamma0_4_count_via_orbit_oracle(self):
        # the three labels are pairwise inequivalent under word-generated orbits
        cusps = ar.enumerate_cusps(4)
        assert len(cusps) == 3
        reps = [(1, c.c * c.a) for c in cusps]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not _cusp_equivalent(*reps[i], *reps[j], N=4)
        # and 1/4 ~ infinity ~ represented by 1/0
        assert _cusp_equivalent(1, 4, 1, 0, 4)

    def test_representative_choice_deterministic(self):
        c1 = ar.enumerate_cusps(45)
        c2 = ar.enumerate_cusps(45)
        assert c1 == c2


class TestCharacters:
    def test_counts_and_primitive_counts(self):
        for q in (1, 3, 4, 5, 8, 9, 12, 16, 24, 105):
            chars = ar.characters_mod(q)
            assert len(chars) == ar.euler_phi(q)
            nprim = sum(c.is_primitive for c in chars)
            expect = sum(ar.mobius(q // d) * ar.euler_phi(d) for d in ar.divisors(q))
            assert nprim == max(expect, 0), q

    def test_q1_trivial(self):
        chars = ar.characters_mod(1)
        assert len(chars) == 1 and chars[0].is_trivial and chars[0].is_primitive

    def test_q3(self):
        chars = ar.characters_mod(3)
        assert len(chars) == 2
        assert sum(c.is_primitive for c in chars) == 1

    def test_q8_induced_enumeration(self):
        chars = ar.characters_mod(8)
        assert len(chars) == 4
        assert sum(c.is_primitive for c in chars) == 2

    def test_values_pinned(self):
        # every character's modulus, flags and values, in order, for q <= 100
        h = hashlib.sha256()
        for q in range(1, 101):
            for chi in ar.characters_mod(q):
                h.update(np.array([chi.modulus, chi.is_primitive, chi.is_trivial], dtype=np.int64).tobytes())
                h.update(np.array(chi.values, dtype=complex).tobytes())
        assert h.hexdigest() == "9a3240f6ac0ec27d74bead002fa411ea278128883d9826ed9aeae70b9e3225df"

    def test_orthogonality_and_multiplicativity(self):
        for q in (5, 8, 12):
            for chi in ar.characters_mod(q):
                vals = np.asarray(chi.values)
                if not chi.is_trivial:
                    assert abs(vals.sum()) < 1e-10
                assert abs(chi(1) - 1.0) < 1e-14
                for m in range(q):
                    for n in range(q):
                        assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-10
                on_units = [v for v in chi.values if v != 0]
                assert all(abs(abs(v) - 1.0) < 1e-12 for v in on_units)
