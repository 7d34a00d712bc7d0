import math

import numpy as np
import pytest

from deletia.gf2k import GF2k, IRREDUCIBLE

# --- references: binary polynomials as ints, bit i the coefficient of x^i --


def clmul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def polydiv_gf2(a: int, b: int) -> tuple[int, int]:
    """(quotient, remainder) of binary polynomial division."""
    if b == 0:
        raise ZeroDivisionError
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_gcd_gf2(a: int, b: int) -> int:
    while b:
        a, b = b, polydiv_gf2(a, b)[1]
    return a


def poly_is_irreducible(f: int) -> bool:
    """Rabin test over GF(2): f of degree d is irreducible iff x^(2^d) = x
    (mod f) and gcd(x^(2^(d/p)) - x, f) = 1 for every prime p | d."""
    d = f.bit_length() - 1
    if d < 1:
        return False

    def xpow2e(e: int) -> int:
        # x^(2^e) mod f by repeated squaring of polynomials
        r = polydiv_gf2(0b10, f)[1]
        for _ in range(e):
            r = polydiv_gf2(clmul(r, r), f)[1]
        return r

    x_mod_f = polydiv_gf2(0b10, f)[1]
    if xpow2e(d) != x_mod_f:
        return False
    p, rem, primes = 2, d, []
    while p * p <= rem:
        if rem % p == 0:
            primes.append(p)
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        primes.append(rem)
    for p in primes:
        h = xpow2e(d // p) ^ x_mod_f
        if poly_gcd_gf2(h, f) != 1:
            return False
    return True


def gf_pow(F: GF2k, a: int, e: int) -> int:
    """a^e in F by square-and-multiply on F.mul."""
    r = 1
    while e:
        if e & 1:
            r = F.mul(r, a)
        a = F.mul(a, a)
        e >>= 1
    return r


def gf_inv(F: GF2k, a: int) -> int:
    """a^(2^k - 2), the inverse of a nonzero a."""
    return gf_pow(F, a, F.size - 2)


def brute_force_irreducible(f: int) -> bool:
    # oracle: no polynomial of degree 1..d/2 divides f
    d = f.bit_length() - 1
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 < 1:
            continue
        if polydiv_gf2(f, g)[1] == 0:
            return False
    return True


def test_table_entries_have_right_degree():
    for k, f in IRREDUCIBLE.items():
        assert f.bit_length() - 1 == k


@pytest.mark.parametrize("k", sorted(IRREDUCIBLE))
def test_table_entries_irreducible_rabin(k):
    assert poly_is_irreducible(IRREDUCIBLE[k])


@pytest.mark.parametrize("k", range(1, 11))
def test_rabin_agrees_with_trial_division(k):
    assert brute_force_irreducible(IRREDUCIBLE[k])
    if k >= 2:
        # zeroing the constant term makes x a factor
        assert not poly_is_irreducible((IRREDUCIBLE[k] >> 1) << 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_field_axioms_exhaustive(k):
    F = GF2k(k)
    for a in range(F.size):
        for b in range(F.size):
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(F.size):
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
    for a in range(1, F.size):
        assert F.mul(a, gf_inv(F, a)) == 1


@pytest.mark.parametrize("k", [8, 12, 16])
def test_field_axioms_random(k):
    F = GF2k(k)
    rng = np.random.default_rng(k)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(1, F.size, size=3))
        assert F.mul(a, gf_inv(F, a)) == 1
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
        assert gf_pow(F, a, F.size - 1) == 1  # Lagrange in the unit group


def test_poly_eval_matches_naive():
    F = GF2k(8)
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeffs = tuple(int(c) for c in rng.integers(0, 256, size=4))
        x = int(rng.integers(0, 256))
        want = 0
        for i, c in enumerate(coeffs):
            want ^= F.mul(c, gf_pow(F, x, i))
        assert F.poly_eval(coeffs, x) == want


@pytest.mark.parametrize("k", range(1, 9))
def test_mul_on_arrays_is_clmul_mod_poly_exhaustive(k):
    F = GF2k(k)
    a, b = np.divmod(np.arange(F.size * F.size), F.size)
    want = [polydiv_gf2(clmul(int(x), int(y)), F.poly)[1] for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == want
    assert [F.mul(int(x), int(y)) for x, y in zip(a, b)] == want


@pytest.mark.parametrize("k", range(1, 17))
def test_mul_on_arrays_is_clmul_mod_poly_random(k):
    F = GF2k(k)
    a, b = np.random.default_rng(k).integers(0, F.size, size=(2, 500))
    want = [polydiv_gf2(clmul(int(x), int(y)), F.poly)[1] for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == want
    assert F.mul(int(a[0]), b).tolist() == [F.mul(int(a[0]), int(y)) for y in b]


@pytest.mark.parametrize("k", sorted(IRREDUCIBLE))
def test_table_entries_are_primitive(k):
    """x has order 2^k - 1 modulo each polynomial, so its powers are every
    nonzero element and the log/antilog tables cover the field."""
    f, order = IRREDUCIBLE[k], (1 << k) - 1

    def x_pow(e: int) -> int:
        r, a = 1, polydiv_gf2(0b10, f)[1]
        while e:
            if e & 1:
                r = polydiv_gf2(clmul(r, a), f)[1]
            a = polydiv_gf2(clmul(a, a), f)[1]
            e >>= 1
        return r

    assert x_pow(order) == 1
    assert all(x_pow(order // p) != 1 for p in range(2, order + 1)
               if order % p == 0 and all(p % d for d in range(2, math.isqrt(p) + 1)))


def test_products_are_python_ints_on_ints():
    F = GF2k(8)
    for a, b in ((0, 0), (0, 7), (255, 1), (np.int64(3), 200)):
        got = F.mul(a, b)
        assert type(got) is int and got == polydiv_gf2(clmul(int(a), int(b)), F.poly)[1]
    assert type(F.poly_eval((1, 2, 3), 5)) is int
    assert F.mul(np.arange(4), 3).dtype == np.int64


def test_poly_eval_on_an_array_is_elementwise():
    for k, coeffs in [(4, (3, 0, 9, 1, 15, 6)), (9, (400, 17)), (16, (1, 65535, 2, 40000))]:
        F = GF2k(k)
        xs = np.arange(F.size)
        assert F.poly_eval(coeffs, xs).tolist() == [F.poly_eval(coeffs, int(x)) for x in xs]


def test_clmul_and_gcd():
    # (x+1)(x+1) = x^2+1 over GF(2)
    assert clmul(0b11, 0b11) == 0b101
    assert poly_gcd_gf2(0b101, 0b11) == 0b11  # x+1 divides x^2+1
