"""Exact arithmetic over Z_q: vectors, matrices, the short-vector rule,
Gaussian weight tables, gadget matrices, ISIS certificate verification, and
the 0/1 check for plaintext and challenge bits.

Entries are stored canonically in [0, q); all geometry (norms, Gaussian
weights) is computed on centered representatives in (-q/2, q/2].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

ENUM_GUARD = 1 << 22  # largest table / state size we agree to enumerate


class EnumerationTooLarge(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def centered(x: int, q: int) -> int:
    """Representative of x mod q in the interval (-q/2, q/2]."""
    x = x % q
    return x - q if 2 * x > q else x


def centered_array(a: np.ndarray, q: int) -> np.ndarray:
    a = np.asarray(a) % q
    return np.where(2 * a > q, a - q, a)


def _as_entries(x) -> np.ndarray:
    if isinstance(x, (ZqVector, ZqMatrix)):
        return x.entries
    return np.asarray(x, dtype=np.int64)


@dataclass(frozen=True)
class ZqVector:
    """Integer vector with entries canonically reduced mod q."""

    entries: np.ndarray
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"modulus must be >= 2, got {self.q}")
        e = np.asarray(self.entries, dtype=np.int64) % self.q
        if e.ndim != 1 or e.size == 0:
            raise ValueError("ZqVector needs a nonempty 1-d entry list")
        object.__setattr__(self, "entries", e)

    def __len__(self) -> int:
        return self.entries.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZqVector)
            and self.q == other.q
            and np.array_equal(self.entries, other.entries)
        )

    def dot(self, other: "ZqVector") -> int:
        self._check(other)
        return int(matmul_mod(self.entries, other.entries, self.q))

    def _check(self, other: "ZqVector"):
        if self.q != other.q or len(self) != len(other):
            raise DimensionMismatch("vector shape/modulus mismatch")


@dataclass(frozen=True)
class ZqMatrix:
    """Row-major integer matrix with entries canonically reduced mod q."""

    entries: np.ndarray
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"modulus must be >= 2, got {self.q}")
        e = np.asarray(self.entries, dtype=np.int64) % self.q
        if e.ndim != 2:
            raise ValueError("ZqMatrix needs a 2-d entry array")
        object.__setattr__(self, "entries", e)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZqMatrix)
            and self.q == other.q
            and np.array_equal(self.entries, other.entries)
        )

    def transpose(self) -> "ZqMatrix":
        return ZqMatrix(self.entries.T.copy(), self.q)

    def __matmul__(self, other):
        if isinstance(other, ZqVector):
            if other.q != self.q or self.cols != len(other):
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by vector of length {len(other)}"
                )
            out = matmul_mod(self.entries, other.entries[:, None], self.q)
            return ZqVector(out[:, 0], self.q)
        if isinstance(other, ZqMatrix):
            if other.q != self.q or self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            return ZqMatrix(matmul_mod(self.entries, other.entries, self.q), self.q)
        return NotImplemented

    def column(self, j: int) -> ZqVector:
        return ZqVector(self.entries[:, j].copy(), self.q)


_INT64_MAX = (1 << 63) - 1
_BOOL = np.dtype(bool)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q, exact at every modulus, as int64 entries in [0, q).

    An operand is reduced mod q only when some entry lies outside [0, q).
    The product is then the cheapest exact one for the operands' actual
    largest entries ma, mb and inner dimension n:
    - float64 (BLAS) when n ma mb < 2^53: every partial sum is an integer
      below 2^53, so it is exact in any summation order;
    - int64 in chunks of the inner dimension, reduced after each chunk, when
      one product plus a residue fits in int64;
    - Python ints otherwise (from q = 3037000501 on, (q - 1)^2 passes 2^63).
    """
    a, ma = _reduced(a, q)
    b, mb = _reduced(b, q)
    inner, top = a.shape[-1], ma * mb
    if inner * top < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % q
    room = _INT64_MAX - (int(q) - 1)
    if top > room:
        return np.asarray((a.astype(object) @ b.astype(object)) % q, dtype=np.int64)
    chunk = room // top  # residue + chunk products stay within int64

    def part(lo):  # the product over the chunk of the inner dimension from lo
        rows = b[lo:lo + chunk] if b.ndim == 1 else b[..., lo:lo + chunk, :]
        return a[..., lo:lo + chunk] @ rows

    acc = part(0) % q
    for lo in range(chunk, inner, chunk):
        acc = (acc + part(lo)) % q
    return acc


def _reduced(x, q: int) -> tuple[np.ndarray, int]:
    """x as int64 entries in [0, q), reduced only when some entry lies
    outside, and its largest entry (0 when empty). A bool array is kept as
    it is: its entries already lie in [0, q), and every product below
    converts it exactly (gadget bits go to the float64 GEMM in one step).
    The test is one identity check, so an int64 operand pays about 30 ns."""
    if getattr(x, "dtype", None) is not _BOOL:
        x = np.asarray(x, dtype=np.int64)
    if not x.size:
        return x, 0
    top = int(x.max())
    if top >= q or x.min() < 0:
        x = x % q
        top = int(x.max())
    return x, top


# ---------------------------------------------------------------------------
# Gaussian weights
# ---------------------------------------------------------------------------

def zq_box(q: int, w: int) -> np.ndarray:
    """All of Z_q^w as a (q^w, w) int64 array in row-major (mixed-radix) order."""
    _check_box(q, w)
    return np.indices((q,) * w, dtype=np.int64).reshape(w, -1).T


def _check_box(q: int, w: int) -> None:
    if q**w > ENUM_GUARD:
        raise EnumerationTooLarge(f"q^{w} = {q**w} exceeds {ENUM_GUARD}")


def zq_image_codes(A: np.ndarray, q: int) -> np.ndarray:
    """Mixed-radix code of A x mod q for every x of Z_q^w, flat in zq_box
    order, for the n x w entries A, or for each matrix of a stack of them
    (leading axes, which the codes keep).

    Each row's image is built slot by slot, gathering from a q x q table of
    (i + j) mod q rather than reducing a growing outer sum, so the box is
    never formed. The table is built only for w >= 2, where q^2 fits the box.
    """
    A = np.asarray(A, dtype=np.int64) % q
    *lead, n, w = A.shape
    A = A.reshape(-1, n, w)
    _check_box(q, w)
    small = np.min_scalar_type(q - 1)
    digits = np.arange(q, dtype=np.int64)
    residue = ((digits[:, None] + digits[None, :]) % q).astype(small) if w > 1 else None
    key = q * np.arange(len(A))[:, None]  # each key's first row in the stacked tables
    # the first row broadcasts this to the box; with no rows every code is 0
    codes = np.zeros((len(A), 1 if n else q**w), dtype=np.int64)
    for i in range(n):
        steps = digits * A[:, i, :, None] % q  # (keys, w, q): x_j a_j for each slot j
        img = steps[:, 0].astype(small)
        for j in range(1, w):
            # row v of each key's table holds v + x_j a_j mod q for every x_j
            tables = residue[:, steps[:, j]].swapaxes(0, 1).reshape(-1, q)
            img = tables.take(img + key, axis=0).reshape(len(A), -1)
        codes = codes * q + img
    return codes.reshape(*lead, -1)


def gaussian_box_weights(q: int, w: int, sigma: float) -> np.ndarray:
    """rho_sigma over Z_q^w on centered representatives, flat in zq_box order.

    The integer squared norms take at most w (q // 2)^2 + 1 values, so exp is
    taken once per norm and gathered; each entry is the same float as exp over
    the whole box. At w = 1 that table would outgrow the box, so the box's
    own norms are exponentiated instead.
    """
    _check_box(q, w)
    top = w * (q // 2) ** 2
    sq = (centered_array(np.arange(q, dtype=np.int64), q) ** 2).astype(np.min_scalar_type(top))
    nsq = sq
    for _ in range(w - 1):
        nsq = np.add.outer(nsq, sq).reshape(-1)
    if top >= nsq.size:
        return np.exp(-math.pi * nsq / sigma**2)
    return np.exp(-math.pi * np.arange(top + 1) / sigma**2).take(nsq)


def gaussian_pmf_1d(sigma: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, probs) of D_{Z_q, sigma}, windowed so large q stays cheap.

    Support is |x| <= sigma (the ball ||x|| <= sigma sqrt(m) at m = 1);
    values are centered representatives.
    """
    half = min(q // 2, int(math.floor(sigma)))
    vals = np.arange(-half, half + 1, dtype=np.int64)
    if q % 2 == 0 and half == q // 2:
        vals = vals[vals != -half]  # (-q/2, q/2] excludes -q/2
    w = np.exp(-math.pi * vals.astype(float) ** 2 / float(sigma) ** 2)
    return vals, w / w.sum()


# ---------------------------------------------------------------------------
# Structured Ajtai keys (Dual-Regev PKE, FHE and the SGC challenger)
# ---------------------------------------------------------------------------

def structured_ajtai_keygen(n: int, m: int, q: int, rngs: Sequence[np.random.Generator]
                            ) -> tuple[np.ndarray, np.ndarray]:
    """One key per generator: A = [Abar | Abar xbar mod q] with binary
    xbar, and trapdoor t = (-xbar, 1). Returns the stacked keys' entries,
    (keys, n, m) and (keys, m).

    A t = 0 (mod q) by construction; A is n x m, so xbar has m-1 bits. Each
    generator draws Abar, then xbar; the products are one stacked product.
    Key generation is classical, so it works at any parameter size.
    """
    abar = np.empty((len(rngs), n, m - 1), dtype=np.int64)
    xbar = np.empty((len(rngs), m - 1), dtype=np.int64)
    for i, rng in enumerate(rngs):
        abar[i] = rng.integers(0, q, size=(n, m - 1))
        xbar[i] = rng.integers(0, 2, size=m - 1)
    A = np.concatenate([abar, matmul_mod(abar, xbar[..., None], q)], axis=2)
    return A, np.concatenate([(-xbar) % q, np.ones((len(rngs), 1), dtype=np.int64)], axis=1)


# ---------------------------------------------------------------------------
# Gadget machinery
# ---------------------------------------------------------------------------

def gadget_width(q: int) -> int:
    return max(1, math.ceil(math.log2(q)))


@functools.lru_cache(maxsize=64)
def gadget_matrix(q: int, d: int) -> ZqMatrix:
    """G = [I | 2I | ... | 2^(K-1) I] with K = ceil(log2 q), shape d x dK.

    Built once per (q, d); every caller shares it, so its entries are
    read-only."""
    powers = np.array([1 << j for j in range(gadget_width(q))], dtype=np.int64)
    G = ZqMatrix(np.kron(powers, np.eye(d, dtype=np.int64)), q)
    G.entries.flags.writeable = False
    return G


def gadget_inverse(v, q: int, d: int) -> np.ndarray:
    """Binary decomposition u with G @ u = v (mod q).

    Accepts a length-d vector (returns shape (dK,)) or a d x N matrix
    (returns shape (dK, N)); entry j*d + i is bit j of row i, a bool, which
    matmul_mod takes as it is.
    """
    k = gadget_width(q)
    a = _as_entries(v) % q
    vec = a.ndim == 1
    if vec:
        a = a[:, None]
    if a.shape[0] != d:
        raise DimensionMismatch(f"expected {d} rows, got {a.shape[0]}")
    # bit j as a mask test: numpy's shifts check every count, masks do not
    out = ((a & (1 << np.arange(k))[:, None, None]) != 0).reshape(d * k, -1)
    return out[:, 0] if vec else out


def is_short(x, q: int, norm_bound_sq) -> np.ndarray:
    """||centered(x)||^2 <= norm_bound_sq along the last axis of x: one bool
    for a vector, one per row for a batch.

    The squared norms are integers, so they are compared with the floor of
    the (rational) bound: exact, with no float tie to flip a verdict.
    """
    c = centered_array(np.asarray(x, dtype=np.int64), q)
    return np.vecdot(c, c) <= math.floor(norm_bound_sq)


def isis_verify(A, y, pi, *, norm_bound_sq: Fraction, q: int | None = None):
    """Check A @ pi == y (mod q) and that pi is short (is_short): a bool for
    one witness, one bool per row for a stack of them.

    A is a ZqMatrix or the entries of n x m matrices (..., n, m), y a
    ZqVector or n-vector entries (..., n), pi a ZqVector, a list of
    ZqVectors or m-vector entries (..., m), all read mod q; the leading axes
    broadcast, so one A or y can serve every witness. The moduli the
    arguments carry, and q where given, must be one: DimensionMismatch
    otherwise, and for shapes that do not fit.
    """
    moduli = set() if q is None else {q}
    A, y, pi = (_stacked(v, moduli) for v in (A, y, pi))
    if len(moduli) != 1:
        raise DimensionMismatch("modulus mismatch")
    (q,) = moduli
    if A.ndim < 2 or A.shape[-1] != pi.shape[-1] or A.shape[-2] != y.shape[-1]:
        raise DimensionMismatch("shape mismatch in isis_verify")
    ok = np.all(matmul_mod(A, pi[..., None], q)[..., 0] == y % q, axis=-1) \
        & is_short(pi, q, norm_bound_sq)
    return bool(ok) if ok.ndim == 0 else ok


def _stacked(x, moduli: set) -> np.ndarray:
    """The entries of a ZqVector or ZqMatrix, of a list of ZqVectors (one
    row each) or of an int array, adding each modulus carried to
    ``moduli``."""
    if isinstance(x, (ZqVector, ZqMatrix)):
        moduli.add(x.q)
        return x.entries
    if isinstance(x, list) and x and isinstance(x[0], ZqVector):
        moduli.update(v.q for v in x)
        if len({len(v) for v in x}) != 1:
            raise DimensionMismatch("shape mismatch in isis_verify")
        return np.stack([v.entries for v in x])
    return np.asarray(x, dtype=np.int64)


def check_bit(b, name: str = "b") -> int:
    """A plaintext or challenge bit as an int; anything but 0 or 1 raises
    ValueError naming it, rather than being wrapped mod 2."""
    if b not in (0, 1):
        raise ValueError(f"bit {name} must be 0 or 1, got {b!r}")
    return int(b)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
