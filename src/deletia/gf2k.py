"""Arithmetic in GF(2^k) for k <= 16, elements as ints in [0, 2^k).

Multiplication is carry-less polynomial multiplication reduced modulo a
fixed irreducible polynomial per k. Each polynomial is also primitive, so x
generates the unit group (the test suite verifies both), and a product is
two lookups in the field's log/antilog tables; ``mul`` and ``poly_eval``
also act elementwise on int arrays.
"""

from __future__ import annotations

import functools

import numpy as np

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
        """a * b for ints, or elementwise for int arrays (broadcast): the
        antilog of log a + log b, where log 0 points past the powers of x
        into zeros."""
        exp, log = _log_tables(self.k)
        r = exp[log[a] + log[b]]
        return int(r) if isinstance(r, np.integer) else r

    def poly_eval(self, coeffs: tuple[int, ...], x):
        """Horner evaluation of coeffs[0] + coeffs[1] x + ... in the field,
        at an int x or elementwise at an int array x."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc


@functools.cache
def _log_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of GF(2^k) to the base x, built on a field's first product.

    With L = 2^k - 1, exp[i] = x^(i mod L) for i < 2L - 1 and 0 after, up to
    index 4L - 2; log[a] is a's exponent for a != 0 and log[0] = 2L - 1, so
    exp[log a + log b] is a * b with no branch for a zero factor. Both are
    read-only, as every caller shares them.
    """
    poly, order = IRREDUCIBLE[k], (1 << k) - 1
    powers = [1]
    for _ in range(order - 1):
        p = powers[-1] << 1
        powers.append(p ^ poly if p >> k else p)
    exp = np.zeros(4 * order - 1, dtype=np.int64)
    exp[:order] = powers
    exp[order:2 * order - 1] = powers[:-1]
    log = np.empty(order + 1, dtype=np.int64)
    log[0] = 2 * order - 1
    log[powers] = np.arange(order)
    exp.flags.writeable = log.flags.writeable = False
    return exp, log
