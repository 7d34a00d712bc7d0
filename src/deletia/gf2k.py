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

    def poly_eval(self, coeffs: tuple[int, ...], x):
        """Horner evaluation of coeffs[0] + coeffs[1] x + ... in the field,
        at an int x or elementwise at an int array x."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

