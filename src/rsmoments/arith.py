"""Integer and multiplicative arithmetic.

Factorisation, and the package's one builder for each arithmetic array over
m = 1..M: the smallest-prime-factor sieve (p is prime iff its entry is p),
the one table of log m (``log_table``), the one table of the divisor bound
(``divisor_bound_table``), multiplicative
arrays from their values at prime powers (``multiplicative_array``: mu,
phi, the sym^2 and synthetic Maass coefficients) and divisor sums
sum_{d | m} c_d by Dirichlet's hyperbola split (``divisor_sum_blocks``, in
blocks of m with the bits of one block: the twisted divisor sums, tau's
divisor sums, the divisor model).  Also the
scalar divisor sums that the arrays are held to, the local Euler
polynomials attached to a modulus, depleted zeta and depleted Dirichlet
L-values, the cusps of Gamma_0(N) in the 1/(c*a) parameterisation, and
the Dirichlet characters mod q, each unit's exponents read off the
generators of the cyclic factors of (Z/q)^* (``characters_mod``).

Every table that grows on demand (the sieve, log m and the divisor bound
here, the smoothed AFE's lattice tables and sym^2 coefficients in
``lseries``) is a ``SharedTable``: read-only, rebuilt at the smallest shape
that covers both its old shape and a request past it.

``factorize`` (trial division with a Pollard rho fallback, returning the
pairs (p, e)) and the sieve are independent routes to the same primes; the
tests hold one against the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import DirichletCharacter, DomainError, PoleError, _pp, dirichlet_L, riemann_zeta

# Witness set proving compositeness deterministically for all n < 3.3e24,
# comfortably covering the 2^63 - 1 input cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 40):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed for {n}")


@lru_cache(maxsize=200_000)
def factorize(n: int) -> tuple:
    """Exact factorisation n = prod p^e as the tuple of its pairs (p, e), in
    increasing p (empty at n = 1); trial division with a rho fallback.

    Accepts 1 <= n <= 2^63 - 1.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > 2**63 - 1:
        raise OverflowError("factorize supports n <= 2^63 - 1")
    fac = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= m and d < 100_000:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += wheel[i]
        i = (i + 1) % 8
    # what is left is 1, a prime, or a product of primes > 1e5
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            fac[v] = fac.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack.extend([d, v // d])
    return tuple(sorted(fac.items()))


class SharedTable:
    """A read-only table that one builder grows on demand for every caller.

    ``build(*shape)`` makes a fresh array of that shape, each entry a
    function of its index alone.  ``covering(*shape)`` returns the table
    once it covers ``shape`` on every axis: when it does not, the old table
    is dropped and the smallest shape that covers both is built, with no
    doubling, so the table is as large as the largest request and no larger.
    Callers slice what they need, and a slice of a grown table has a fresh
    table's bits.

    Exact growth rebuilds once per request past the table's end.  In a
    bench run that is rare: a ``continuous-main-term`` batch builds its
    three lattice tables eleven times in all and each other table at most
    four times, and a ``first-moment-oracle`` batch builds the log table,
    up to 100,000 entries, three times.  A scan in monotone height would rebuild ``holo_L``'s
    lattice table once per new row count, about 2 ms each at 270 x 217 on a
    2-vCPU x86-64 host.
    """

    def __init__(self, build):
        self.build = build
        self.table = None

    def covering(self, *shape) -> np.ndarray:
        if self.table is not None:
            if all(have >= want for have, want in zip(self.table.shape, shape)):
                return self.table
            shape = tuple(map(max, self.table.shape, shape))
            self.table = None  # the old table goes before the new one is built
        table = self.build(*shape)
        table.flags.writeable = False
        self.table = table
        return table


@SharedTable
def _spf(size: int) -> np.ndarray:
    """The smallest prime factor of m at index m = 0..size - 1 (0 at m = 0, 1)."""
    spf = np.zeros(size, dtype=np.int64)
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unmarked = spf == 0
    unmarked[:2] = False
    spf[unmarked] = np.flatnonzero(unmarked)
    return spf


def smallest_prime_factors(n: int) -> np.ndarray:
    """Read-only table of the smallest prime factor of m at index m = 0..n.

    Entries 0 and 1 are 0.  One sieve (a ``SharedTable``) serves every
    caller, and each call returns a view of its first n + 1 entries.
    """
    return _spf.covering(n + 1)[: n + 1]


@SharedTable
def _logs(size: int) -> np.ndarray:
    """math.log(m) at index m - 1, m = 1..size."""
    return np.fromiter(map(math.log, range(1, size + 1)), float, count=size)


def log_table(n: int) -> np.ndarray:
    """Read-only table of math.log(m) at index m - 1, m = 1..n.

    The values are math.log's.  np.log can differ from them in the last bit
    (at three m below 10^5 with numpy 2.4 on x86-64), and the phases and
    powers built from this table keep math.log's bits.  One table (a
    ``SharedTable``) serves every caller, and each call returns a view of
    its first n entries.  The twisted weights, the direct and smoothed
    Dirichlet series, the divisor model, the L- and L+ inner sums and the
    shifted and raw double series all read their log m from it.
    """
    return _logs.covering(n)[:n]


def multiplicative_array(local, n: int, dtype=float) -> np.ndarray:
    """f(m) for m = 0..n at index m (entry 0 is 0, f(1) = 1) of the
    multiplicative f with f(p^e) = ``local(p, e)``.

    ``local`` is called once per prime power p^e <= n, in increasing p and,
    for each p, in increasing e, so it may draw or recur in that order.
    From the shared sieve, m = q r with q the full power of m's smallest
    prime, and f(m) = f(q) f(r): one vectorised pass per distinct prime of
    m, each over the m whose r is already filled.
    """
    spf = smallest_prime_factors(n)
    m, p = np.arange(2, n + 1), spf[2:]
    out = np.zeros(n + 1, dtype=dtype)
    out[1:2] = 1
    for prime in m[p == m].tolist():
        q, e = prime, 1
        while q <= n:
            out[q] = local(prime, e)
            q *= prime
            e += 1
    q, r = p.copy(), m // p
    more = np.flatnonzero(spf[r] == p)
    while more.size:
        q[more] *= p[more]
        r[more] //= p[more]
        more = more[spf[r[more]] == p[more]]
    done = np.ones(n + 1, dtype=bool)  # filled: m < 2 and the prime powers
    done[2:] = r == 1
    todo = np.flatnonzero(r > 1)
    while todo.size:
        ready = done[r[todo]]
        fill = todo[ready]
        out[m[fill]] = out[q[fill]] * out[r[fill]]
        done[m[fill]] = True
        todo = todo[~ready]
    return out


def mobius_phi_arrays(n: int):
    """(mu, phi) as int64 arrays over m = 0..n at index m, entry 0 being 0:
    two ``multiplicative_array`` calls, from mu(p^e) = -[e = 1] and
    phi(p^e) = p^(e-1) (p - 1)."""
    mu = multiplicative_array(lambda p, e: -1 if e == 1 else 0, n, np.int64)
    phi = multiplicative_array(lambda p, e: p ** (e - 1) * (p - 1), n, np.int64)
    return mu, phi


def prime_divisors(n: int) -> tuple:
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> list:
    """All divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def ord_p(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# c in Nicolas and Robin's bound d(n) <= n^(c / log log n) for n >= 3
# (Canad. Math. Bull. 26, 1983)
_NICOLAS_ROBIN = 1.5379 * math.log(2.0)


def divisor_count_upper(n) -> float:
    """Rigorous bound d(n) <= n^(c / log log n) for n >= 3, c = ``_NICOLAS_ROBIN``."""
    n = np.asarray(n, dtype=float)
    small = n < 3.0
    safe = np.where(small, 3.0, n)
    expo = _NICOLAS_ROBIN / np.log(np.log(safe))
    return np.where(small, 2.0, safe**expo)


@SharedTable
def _divisor_bounds(size: int) -> np.ndarray:
    """divisor_count_upper(m) at index m - 1, m = 1..size."""
    return divisor_count_upper(np.arange(1, size + 1, dtype=float))


def divisor_bound_table(n: int) -> np.ndarray:
    """Read-only table of ``divisor_count_upper(m)`` at index m - 1, m = 1..n.

    One table (a ``SharedTable``) serves every caller, and each call returns
    a view of its first n entries, the bits of ``divisor_count_upper`` on
    m = 1..n.
    """
    return _divisor_bounds.covering(n)[:n]


# ---------------------------------------------------------------------------
# divisor sums and local polynomials


def sigma_complex(n: int, z, N: int = 1) -> complex:
    """sum_{d | n} d^z over the d prime to N (every d | n at N = 1), with
    p^z = ``_pp(p, z)``, summed geometrically over each prime power."""
    if n < 1:
        raise ValueError("sigma_complex requires n >= 1")
    z = complex(z)
    out = 1.0 + 0.0j
    for p, e in factorize(n):
        if N % p == 0:
            continue
        x = _pp(p, z) if z != 0 else 1.0
        # geometric sum 1 + x + ... + x^e
        acc = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for _ in range(e):
            term *= x
            acc += term
        out *= acc
    return out


def P_M(s, n: int, M: int) -> complex:
    """Local Euler product over p | M.

    P_M(s, n) = prod_{p|M} [p^{(1-2s)(ord_p(n)+1)} p^{-(1-2s)(ord_p(M)-1)}
                (1 - p^{2s}) + p - 1] / (1 - p^{1-2s}).
    """
    if M < 1:
        raise ValueError("P_M requires M >= 1")
    s = complex(s)
    out = 1.0 + 0.0j
    for p, eM in factorize(M):
        out *= _P_local(p, s, ord_p(n, p), eM)
    return complex(out)


def _P_local(p: int, s: complex, ord_n, ord_M: int):
    """The factor of P_M(s, n) at p | M, for an order ord_n = ord_p(n) or an
    array of them."""
    # a numpy scalar, so that a lone order rounds its powers and quotient as
    # an array of orders does
    x = np.complex128(_pp(p, 1.0 - 2.0 * s))
    denom = 1.0 - x
    if abs(denom) < 1e-12:
        raise PoleError(f"P_M denominator vanishes at p={p}")
    return (x ** (ord_n + 1) * x ** (-(ord_M - 1)) * (1.0 - _pp(p, 2.0 * s)) + p - 1.0) / denom


# |t| below which the local factors at p | N, whose zeros of 1 - p^{-2it}
# are removable, take their t -> 0 limit instead
_T_ZERO = 1e-9


def _P_local_limit(p: int, ord_n, ord_M: int):
    """t -> 0 limit of the local P factor at s = 1/2 + it, for an order or an
    array of them: the zero of 1 - p^{-2it} is removable, with value
    A(p-1) - p for A = ord_n + 2 - ord_M."""
    a = ord_n + 2 - ord_M
    return a * (p - 1.0) - p


def _small_t_average(f) -> complex:
    """The t -> 0 limit of ``f(t)`` where no closed form is at hand: the
    symmetric average (f(h) + f(-h))/2 at h = 1e-5, which cancels the odd
    error term."""
    return 0.5 * (f(1e-5) + f(-1e-5))


def sigma_twisted_N(m: int, N: int, t: float) -> complex:
    """Twisted divisor sum sigma_{-2it}(m; N).

    Equals N^{-2it}/rad(N) * P_N(1/2 + it, m) * sigma^{(N)}_{-2it}(m) when
    N/rad(N) divides m, and 0 otherwise.  At t = 0 the removable local
    limits replace the P factors.  One m at a time, from the definition:
    the independent route to ``sigma_twisted_array``.
    """
    if m < 1 or N < 1:
        raise ValueError("sigma_twisted_N requires m, N >= 1")
    rad = math.prod(prime_divisors(N))
    if m % (N // rad) != 0:
        return 0.0 + 0.0j
    # times 1/rad, the rounding of numpy's complex-by-real quotient, as
    # sigma_twisted_blocks forms it
    pref = _pp(N, -2j * t) * (1.0 / rad) if N > 1 else 1.0
    if abs(t) < _T_ZERO:
        ploc = 1.0
        for p, eM in factorize(N):
            ploc *= _P_local_limit(p, ord_p(m, p), eM)
    else:
        ploc = P_M(0.5 + 1j * t, m, N)
    return complex(pref * ploc * sigma_complex(m, -2j * t, N))


def divisor_sum_blocks(coeff_blocks, m_max: int):
    """An iterator over the blocks of sum_{d | m} c_d for m = lo+1..hi (index
    m-1-lo), one for each block c_{lo+1..hi} that ``coeff_blocks`` yields;
    the blocks cover d = 1..m_max in order, and each block of sums is made
    before the next block of c is drawn.

    Dirichlet's hyperbola split at r = isqrt(hi), all by strided adds in
    place: each nonzero c_d with d <= r goes to its multiples in the block,
    in increasing d; then for j = hi // (r + 1) down to 1 the c_d with
    r < d <= hi // j and j d in the block go to those j d.  So every sum adds
    its terms in increasing d, as a per-d loop does, whatever the blocks;
    the zero c_d of a run add +-0 to a sum that is never -0, which leaves
    its bits alone.  Past the first block only j = 1 reads the block's own
    c_d, and j >= 2 reads d <= hi // 2, so the c_d with d <= m_max // 2 are
    kept for the blocks that follow (none when one block covers m_max).
    """
    half = m_max // 2
    kept = None
    lo = 0

    def sums(coeffs):
        nonlocal kept, lo
        coeffs = np.asarray(coeffs, dtype=complex)
        hi = lo + coeffs.size
        if kept is None and hi < m_max:
            kept = np.empty(half, dtype=complex)
        if kept is not None and lo < half:
            kept[lo:min(hi, half)] = coeffs[: half - lo]
        table = coeffs if lo == 0 else kept  # c_d at index d - 1, d <= hi // 2
        out = _block_divisor_sums(coeffs, table, lo)
        lo = hi
        return out

    return map(sums, coeff_blocks)  # map keeps no block alive once it is read


def _block_divisor_sums(coeffs, table, lo: int) -> np.ndarray:
    """One block of ``divisor_sum_blocks``: the sums for m = lo+1..hi from the
    block's own c_{lo+1..hi} and ``table``, which holds c_d at index d - 1
    for every d <= hi // 2 and d <= isqrt(hi)."""
    hi = lo + coeffs.size
    root = math.isqrt(hi)
    out = np.zeros(coeffs.size, dtype=complex)
    ds = np.flatnonzero(table[:root]) + 1
    for d, start, c in zip(ds.tolist(), (-(lo + 1) % ds).tolist(), table[ds - 1].tolist()):
        out[start::d] += c
    # j >= 2: the run of d from max(r + 1, ceil((lo + 1) / j)) to hi // j
    js = np.arange(hi // (root + 1), 1, -1)
    firsts, lasts = np.maximum(root + 1, -(-(lo + 1) // js)), hi // js
    runs = firsts <= lasts
    for j, d0, d1 in zip(js[runs].tolist(), firsts[runs].tolist(), lasts[runs].tolist()):
        out[j * d0 - 1 - lo : j * d1 - lo : j] += table[d0 - 1 : d1]
    d0 = max(root + 1, lo + 1)  # j = 1: the term d = m
    out[d0 - 1 - lo :] += coeffs[d0 - 1 - lo :]
    return out


def divisor_sum_array(coeffs) -> np.ndarray:
    """sum_{d | m} c_d for m = 1..len(coeffs) (index m-1), with c_d =
    coeffs[d-1]: ``divisor_sum_blocks`` over one block."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return next(divisor_sum_blocks([coeffs], coeffs.size))


def sigma_twisted_blocks(N: int, t: float, m_max: int, block: int):
    """Yield sigma_{-2it}(m; N) for m = 1..m_max in blocks of ``block``
    values (the last may be shorter), sieve-based.

    The coefficients c_d = [(d, N) = 1] d^{-2it} are exp(-2it log d) with
    log d read from ``log_table``, and ``divisor_sum_blocks`` adds them up;
    for N > 1 the local factor P_N and the support condition follow.  Every
    value has the same bits at any block size: the products are formed out
    of place, since numpy's in-place complex product of a single value can
    round differently.
    """
    logs = log_table(m_max)
    primes = prime_divisors(N)

    def coeffs_from(lo):
        coeffs = logs[lo : lo + block] * (-2j * t)
        np.exp(coeffs, out=coeffs)
        for p in primes:
            coeffs[-(lo + 1) % p :: p] = 0.0
        return coeffs

    # P_N(1/2+it, m) from the prime-local formula.  It depends on m only
    # through the orders ord_p(m) <= log_p(m_max), p | N, so it is tabulated
    # over those few order tuples and read off per m through a mixed-radix
    # index; at t = 0 the removable local limit takes over.  m is in the
    # support, (N / rad N) | m, iff ord_p(m) >= e_p - 1 for every p^e_p || N.
    pn = np.ones(1, dtype=complex)
    support = np.ones(1, dtype=bool)
    radices = []
    for p, eM in factorize(N):
        radices.append((p, pn.size))
        top, q = 0, p  # ord_p(m) <= top for every m <= m_max
        while q <= m_max:
            top += 1
            q *= p
        ords = np.arange(top + 1)
        if abs(t) < _T_ZERO:
            local = _P_local_limit(p, ords, eM)
        else:
            local = _P_local(p, 0.5 + 1j * t, ords, eM)
        # entry o_p * radix + (index over the earlier primes)
        pn = np.ravel(pn[None, :] * local[:, None])
        support = np.ravel(support[None, :] & (ords >= eM - 1)[:, None])
    # N^{-2it} times 1/rad, the rounding of numpy's complex-by-real quotient,
    # and that scalar times the table (not the table times it): the pinned
    # bits of test_sigma_twisted_array_bits_pinned keep both
    pn = _pp(N, -2j * t) * (1.0 / math.prod(primes)) * pn

    def local_factor(lo, out):
        combo = np.zeros(out.size, dtype=np.int32)
        for p, radix in radices:
            q = p
            while q <= lo + out.size:
                combo[-(lo + 1) % q :: q] += radix  # ord_p(m) times the radix of p
                q *= p
        out = pn[combo] * out
        out[~support[combo]] = 0.0
        return out

    # map keeps no block alive once it is read
    starts = range(0, m_max, block)
    sums = divisor_sum_blocks(map(coeffs_from, starts), m_max)
    yield from sums if N == 1 else map(local_factor, starts, sums)


def sigma_twisted_array(N: int, t: float, m_max: int) -> np.ndarray:
    """sigma_{-2it}(m; N) for m = 1..m_max (index m-1): ``sigma_twisted_blocks``
    in one block."""
    return next(sigma_twisted_blocks(N, t, m_max, max(m_max, 1)), np.zeros(0, dtype=complex))


def twisted_weight_blocks(N: int, t: float, m_max: int, block: int):
    """Yield sigma_{-2it}(m; N) m^{it} for m = 1..m_max in blocks of
    ``block`` values: ``sigma_twisted_blocks`` times the phases m^{it}."""
    logs = log_table(m_max)

    def weighted(lo, out):
        phases = logs[lo : lo + out.size] * (1j * t)
        np.exp(phases, out=phases)
        return out * phases

    yield from map(weighted, range(0, m_max, block), sigma_twisted_blocks(N, t, m_max, block))


def sigma_twisted_weights(N: int, t: float, m_max: int) -> np.ndarray:
    """sigma_{-2it}(m; N) m^{it} for m = 1..m_max (index m-1): the outer
    weights of the twisted and shifted Dirichlet series, in one block."""
    return next(twisted_weight_blocks(N, t, m_max, max(m_max, 1)), np.zeros(0, dtype=complex))


def zeta_depleted(s, N: int) -> complex:
    """zeta^(N)(s) = prod_{p|N} (1 - p^{-s}) * zeta(s)."""
    s = complex(s)
    if abs(s - 1.0) < 1e-14:
        raise PoleError("zeta_depleted pole at s = 1")
    out = riemann_zeta(s)
    for p in prime_divisors(N):
        out *= 1.0 - _pp(p, -s)
    return complex(out)


def dirichlet_L_depleted(s, chi: DirichletCharacter, N: int):
    """L^(N)(s, chi): the Euler factors at primes p | N removed."""
    val = dirichlet_L(s, chi)
    for p in prime_divisors(N):
        val *= 1.0 - chi(p) * _pp(p, -s)
    return val


# ---------------------------------------------------------------------------
# cusps of Gamma_0(N)


@dataclass(frozen=True, order=True)
class CuspLabel:
    """The cusp 1/(c*a) of Gamma_0(N): a | N, c mod gcd(a, N/a), gcd(c, N)=1."""

    N: int
    a: int
    c: int

    def __post_init__(self):
        if self.N < 1 or self.a < 1:
            raise DomainError("cusp label needs N >= 1 and a >= 1")
        if self.N % self.a != 0:
            raise ValueError("cusp label needs a | N")
        if math.gcd(self.c, self.N) != 1:
            raise ValueError("cusp representative must satisfy gcd(c, N) = 1")

    @property
    def gcd_a(self) -> int:
        return math.gcd(self.a, self.N // self.a)

    @property
    def width(self) -> int:
        return self.N // math.gcd(self.a * self.a, self.N)

    @property
    def is_infinity_class(self) -> bool:
        return self.a == self.N


def enumerate_cusps(N: int) -> list:
    """One label per inequivalent cusp; count is sum_{a|N} phi(gcd(a, N/a)).

    For each admissible residue c mod gcd(a, N/a) the representative is the
    smallest positive member of the class coprime to N (stepping by the
    modulus), which makes the output deterministic.
    """
    if N < 1:
        raise DomainError("enumerate_cusps requires N >= 1")
    out = []
    for a in divisors(N):
        g = math.gcd(a, N // a)
        for c0 in range(1, g + 1):
            if math.gcd(c0, g) != 1:
                continue
            c = c0
            while math.gcd(c, N) != 1:
                c += g
            out.append(CuspLabel(N, a, c))
    return out


# ---------------------------------------------------------------------------
# Dirichlet characters from the unit-group structure


def _primitive_root(p: int, e: int) -> int:
    """Generator of (Z/p^e)^* for odd prime p."""
    phi_p = p - 1
    fac = prime_divisors(phi_p)
    g = 2
    while True:
        if math.gcd(g, p) == 1 and all(pow(g, phi_p // q, p) != 1 for q in fac):
            break
        g += 1
    if e == 1:
        return g
    # lift: g or g + p generates mod p^e
    if pow(g, phi_p, p * p) == 1:
        g += p
    return g


def _unit_group(q: int):
    """Generators and orders of (Z/q)^* via CRT over prime powers."""
    gens, orders = [], []
    for p, e in factorize(q):
        pe = p**e
        rest = q // pe
        inv_rest = pow(rest, -1, pe)
        def lift(x, pe=pe, rest=rest, inv_rest=inv_rest):
            # CRT: image x mod pe, 1 mod rest
            return (1 + rest * ((x - 1) * inv_rest % pe)) % q
        if p == 2:
            # -1 generates (Z/4)^*, and -1 and 5 generate (Z/2^e)^* for e >= 3
            if e >= 2:
                gens.append(lift(pe - 1))
                orders.append(2)
            if e >= 3:
                gens.append(lift(5))
                orders.append(2 ** (e - 2))
        else:
            g = _primitive_root(p, e)
            gens.append(lift(g))
            orders.append(p ** (e - 1) * (p - 1))
    return gens, orders


@lru_cache(maxsize=512)
def characters_mod(q: int) -> tuple:
    """All phi(q) Dirichlet characters mod q, with primitivity flags.

    The generators g_i of orders o_i of ``_unit_group`` make (Z/q)^* the
    direct product of their cyclic groups, so each unit is prod g_i^(v_i)
    mod q for exactly one v in prod [0, o_i).  The character of exponents e
    takes the value exp(2 pi i sum_i e_i v_i / o_i) there; the characters
    come in lexicographic order of e, the trivial one first.  chi is
    primitive iff it does not factor through (Z/(q/p))^* for any prime
    p | q.
    """
    if q < 1:
        raise ValueError("characters_mod requires q >= 1")
    if q == 1:
        return (DirichletCharacter(1, (1.0 + 0.0j,), True, True),)
    gens, orders = _unit_group(q)
    exponents = list(itertools.product(*map(range, orders)))
    units = [math.prod(pow(g, v, q) for g, v in zip(gens, vec)) % q for vec in exponents]
    chars = []
    for exps in exponents:
        values = [0.0 + 0.0j] * q
        for u, vec in zip(units, exponents):
            phase = sum(e * v / o for e, v, o in zip(exps, vec, orders))
            values[u] = complex(np.exp(2j * math.pi * phase))
        values = tuple(values)
        trivial = all(e == 0 for e in exps)
        # primitivity: chi is imprimitive iff chi(n) = 1 whenever
        # n = 1 mod q/p and gcd(n, q) = 1, for some prime p | q.
        primitive = not any(
            all(abs(values[n] - 1.0) < 1e-9 for n in range(1, q, q // p) if math.gcd(n, q) == 1)
            for p in prime_divisors(q)
        )
        chars.append(DirichletCharacter(q, values, primitive, trivial))
    return tuple(chars)
