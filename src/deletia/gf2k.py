"""Arithmetic in GF(2^k) for k <= 16, elements as ints in [0, 2^k).

Multiplication is carry-less polynomial multiplication reduced modulo a
fixed irreducible polynomial per k (verified irreducible by the test suite);
``mul`` and ``poly_eval`` also act elementwise on int arrays.
"""

from __future__ import annotations

# modulus polynomials, bit i = coefficient of x^i
IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1011011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10001101111,
    11: 0b100000000101,
    12: 0b1000011101011,
    13: 0b10000000011011,
    14: 0b100000010101001,
    15: 0b1000000000110101,
    16: 0b10000000000101101,
}


class GF2k:
    """The field GF(2^k); addition is XOR, multiplication is clmul mod poly."""

    def __init__(self, k: int):
        if k not in IRREDUCIBLE:
            raise ValueError(f"k must be in 1..16, got {k}")
        self.k = k
        self.size = 1 << k
        self.poly = IRREDUCIBLE[k]

    def mul(self, a, b):
        """a * b for ints, or elementwise for int arrays (broadcast): b's
        bits from the top, doubling the running product mod poly."""
        k, poly = self.k, self.poly
        r = a & 0
        for i in range(k - 1, -1, -1):
            r = (r << 1) ^ poly * (r >> (k - 1)) ^ a * ((b >> i) & 1)
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^k)")
        return self.pow(a, self.size - 2)

    def poly_eval(self, coeffs: tuple[int, ...], x):
        """Horner evaluation of coeffs[0] + coeffs[1] x + ... in the field,
        at an int x or elementwise at an int array x."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc


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
