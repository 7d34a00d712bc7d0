"""Dual-Regev public-key encryption with publicly-verifiable deletion,
simulated exactly on the state-vector core.

The ciphertext register is the forward q-ary Fourier transform of the
phased Gaussian coset state over {x : A x = y}. Encryption evaluates it as
the exact dual sum over s of Z_q^n (Poisson summation over Z_q, with the
exact DFT of the one-slot Gaussian), which equals that transform. Deletion
measures the register in the Fourier basis, slot by slot
(qsim.measure_register with the inverse DFT's rows), which draws what
measuring the inverse transform draws, so the certificate lands in the
coset exactly (A pi = y with probability 1). Under the
forward-transform convention the matching literal ciphertext sum carries
phase w^{+<s,y>} and plaintext offset +b*(0,..,0,floor(q/2)), with the
coset-side phase negated; see dual_ciphertext_sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import qsim
from .zqcore import (
    ZqMatrix,
    ZqVector,
    _check_box,
    centered_array,
    check_bit,
    gaussian_box_weights,
    isis_verify,
    structured_ajtai_keygen,
    zq_box,
    zq_image_codes,
)


@dataclass(frozen=True)
class DRParams:
    """(n, m, q, sigma) with sigma^2 kept exact for norm-bound comparisons."""

    n: int
    m: int
    q: int
    sigma_sq: Fraction

    def __post_init__(self):
        for name, low in (("n", 1), ("m", 1), ("q", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.sigma_sq <= 0:
            raise ValueError(f"sigma^2 must be > 0, got {self.sigma_sq}")

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.sigma_sq))

    @property
    def alpha(self) -> float:
        return 1.0 / self.sigma

    @property
    def width(self) -> int:
        return self.m + 1

    def cert_bound_sq(self) -> Fraction:
        # ||pi|| <= sqrt(m+1) / (sqrt(2) alpha) = sigma sqrt((m+1)/2)
        return Fraction(self.width, 2) * self.sigma_sq


def dr_params(n: int, m: int, q: int, sigma=None, *, sigma_sq=None) -> DRParams:
    if sigma_sq is None:
        sigma_sq = Fraction(sigma) ** 2
    return DRParams(n, m, q, Fraction(sigma_sq))


@dataclass
class DRKeys:
    pk: ZqMatrix  # A, n x (m+1)
    sk: ZqVector  # (-xbar, 1)
    params: DRParams


@dataclass
class DRCiphertext:
    vk: tuple[ZqMatrix, ZqVector]  # (A, y)
    state: qsim.QState  # (m+1) q-ary slots, segment "X"


def dr_keygen(params: DRParams, rng: np.random.Generator) -> DRKeys:
    """A = [Abar | Abar xbar mod q] with binary xbar, sk = (-xbar, 1).

    Key generation is classical, so it works at any parameter size; the
    q^(m+1) enumeration guard applies when a ciphertext state is built.
    """
    A, sk = structured_ajtai_keygen(params.n, params.width, params.q, [rng])
    return DRKeys(pk=ZqMatrix(A[0], params.q), sk=ZqVector(sk[0], params.q), params=params)


def image_masses(A: np.ndarray, q: int, sigma: float) -> np.ndarray:
    """The rho_sigma^2 mass of {x : A x = y} for every y of Z_q^n, flat in
    mixed-radix order, for the n x w entries A or for each matrix of a
    stack of them (leading axes): the pushforward of rho_sigma^2 under
    x -> A x.

    It is a cyclic convolution over Z_q^n, one slot at a time: slot i moves
    mass from y to y + x_i a_i with weight rho_sigma(x_i)^2. No q^w table
    is built, and only positive terms are added.
    """
    A = np.asarray(A, dtype=np.int64)
    *lead, n, w = A.shape
    A = A.reshape(-1, 1, 1, n, w)
    x = np.arange(q, dtype=np.int64)[:, None, None, None]
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # source[k, x_i, y, i]: the flat index, in key k's row of the masses, of
    # the code of y - x_i a_i, for every y and every slot i
    source = ((zq_box(q, n)[..., None] - x * A) % q).swapaxes(-1, -2) @ radix
    source += np.arange(0, len(A) * q**n, q**n)[:, None, None, None]
    sq = gaussian_box_weights(q, 1, sigma) ** 2
    mass = np.zeros((len(A), q**n))
    mass[:, 0] = 1.0
    for i in range(w):
        mass = sq @ mass.reshape(-1)[source[..., i]]
    return mass.reshape(*lead, q**n)


def _digits(codes: np.ndarray, q: int, n: int) -> np.ndarray:
    """The Z_q^n vectors of mixed-radix codes, one row per code."""
    return codes[:, None] // q ** np.arange(n - 1, -1, -1) % q


def _registers(q: int, w: int, amps: np.ndarray) -> list[qsim.QState]:
    """One register on w q-ary slots (segment "X") per row of ``amps``,
    each a view of its row."""
    layout = qsim.RegisterLayout([("X", (q,) * w)])
    return [qsim.QState(layout, a) for a in amps.astype(np.complex128, copy=False)]


def gen_gauss(A: np.ndarray, q: int, sigma: float, rngs: Sequence[np.random.Generator]
              ) -> tuple[list[qsim.QState], np.ndarray]:
    """GenGauss for each key of the stack A (keys, n, w) over Z_q, key i
    drawing from rngs[i]: Gaussian superposition, coherent A.x into Y,
    measure Y.

    Returns the residual Gaussian coset states on segment "X" and the
    images, one row per key. The image register is measured immediately,
    so y is drawn from image_masses and the normalised coset amplitudes
    rho_sigma(x) / sqrt(mass(y)) are written directly: the same channel as
    preparing the Gaussian on X, computing A x into Y and measuring Y.
    """
    A = np.asarray(A, dtype=np.int64)
    _check_box(q, A.shape[2])
    mass = image_masses(A, q, sigma)
    # measure each key's image register: y with probability mass(y) / total
    codes = qsim.draw_rows(mass / mass.sum(axis=1, keepdims=True), rngs)
    scale = np.sqrt(mass[np.arange(len(codes)), codes])
    amps = np.where(zq_image_codes(A, q) == codes[:, None],
                    gaussian_box_weights(q, A.shape[2], sigma) / scale[:, None], 0.0)
    return _registers(q, A.shape[2], amps), _digits(codes, q, A.shape[1])


def plaintext_offset(params: DRParams, b: int) -> np.ndarray:
    g = np.zeros(params.width, dtype=np.int64)
    g[-1] = check_bit(b) * (params.q // 2)
    return g


def _dual_sum(A: ZqMatrix, y: np.ndarray, g: np.ndarray, table: np.ndarray,
              scale=1.0) -> np.ndarray:
    """scale * sum_s w^{-<s,y>} prod_i table[k_i - g_i + (A^T s)_i] over s of
    Z_q^n, for every k of Z_q^w flat in zq_box order, one row per row of y
    (registers, n) and g (registers, w), and of scale where it is an array.

    One complex GEMM per register, of inner dimension q^n, in one stacked
    matmul: for each s the product over the first half of the slots (times
    the phase) and over the last half are rows of two Khatri-Rao factors,
    and k = (k_first, k_last).
    """
    q, w = A.q, A.cols
    s = zq_box(q, A.rows)
    shift = (s @ A.entries - np.asarray(g, dtype=np.int64)[:, None, :]) % q
    # slot factors: factors[r, s, i, k_i] = table[k_i - g_{r,i} + (A^T s)_i]
    factors = table[(shift[..., None] + np.arange(q)) % q]
    phase = np.asarray(scale)[..., None] * np.exp(-2j * np.pi * ((y @ s.T) % q) / q)
    half = w // 2
    first = _khatri_rao(phase[..., None], factors[..., :half, :])
    last = _khatri_rao(np.ones((*phase.shape, 1)), factors[..., half:, :])
    return (first.swapaxes(1, 2) @ last).reshape(len(phase), -1)


def _khatri_rao(start: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of start with factors[..., i, :] for each
    i, over the rows of the last axis but one."""
    out = start
    for i in range(factors.shape[-2]):
        out = (out[..., :, None] * factors[..., i, None, :]).reshape(*out.shape[:-1], -1)
    return out


def coset_encrypt(A: ZqMatrix, sigma: float, g: np.ndarray, rng: np.random.Generator
                  ) -> tuple[list[qsim.QState], np.ndarray]:
    """Ciphertext registers for one key, one per row of the plaintext
    offsets g (registers, w): the forward Fourier transform of the GenGauss
    coset over {x : A x = y} with the plaintext phase w^{<x, -g>}. Returns
    the states and the images y, one row per register, drawn from the one
    generator in row order.

    Each register is evaluated as the exact dual sum

        q^{-n} mass(y)^{-1/2} sum_s w^{-<s,y>} prod_i R(k_i - g_i + (A^T s)_i)

    with R the DFT of the one-slot Gaussian (real, as rho_sigma is even),
    and y is drawn as gen_gauss draws it, so the channel is the same. The
    image masses and the slot table are the key's, built once.
    """
    q, n, w = A.q, A.rows, A.cols
    _check_box(q, w)
    _check_box(q, n)
    mass = image_masses(A.entries, q, sigma)
    p = mass / mass.sum()
    codes = np.array([qsim.draw_index(p, rng) for _ in g], dtype=np.int64)
    y = _digits(codes, q, n)
    slot = (qsim._dft_matrix(q) @ gaussian_box_weights(q, 1, sigma)).real
    amps = _dual_sum(A, y, g, slot, scale=1 / (q**n * np.sqrt(mass[codes])))
    return _registers(q, w, amps), y


def coset_delete(states: Sequence[qsim.QState], q: int, rng: np.random.Generator
                 ) -> list[ZqVector]:
    """Deletion of ciphertext registers: measure every slot in the Fourier
    basis, the rows of the inverse DFT, one slot at a time, the registers
    in order from the one generator. Each outcome is what measuring
    qsim.qft_inverse(state) draws, with no state-sized transform, and it
    lies in the register's coset."""
    values = qsim.measure_register(states, rng, qsim._dft_matrix(q).conj().T)
    return [ZqVector(v, q) for v in values]


def dr_encrypt(keys: DRKeys, b: int, rng: np.random.Generator) -> DRCiphertext:
    """Enc: GenGauss coset, plaintext phase, forward Fourier transform."""
    g = plaintext_offset(keys.params, b)
    (state,), y = coset_encrypt(keys.pk, keys.params.sigma, g[None], rng)
    return DRCiphertext(vk=(keys.pk, ZqVector(y[0], keys.pk.q)), state=state)


def dr_decrypt(keys: DRKeys, ct: DRCiphertext, rng: np.random.Generator) -> int:
    """Dec: measure, form centered(c . sk), decide against q/4 (tie -> 1)."""
    c = ZqVector(qsim.measure_register([ct.state], rng)[0], keys.params.q)
    return int(decide_decryption(c.dot(keys.sk), keys.params.q))


def decide_decryption(v, q: int) -> np.ndarray:
    """The decoder's rule on v = c . sk mod q, one value or an array: 0 where
    |centered(v)| < q/4, else 1 (a tie decides 1)."""
    return (4 * np.abs(centered_array(v, q)) >= q).astype(np.int64)


def dr_delete(ct: DRCiphertext, rng: np.random.Generator) -> ZqVector:
    """Del: measure all slots in the Fourier basis (see coset_delete)."""
    return coset_delete([ct.state], ct.vk[0].q, rng)[0]


def dr_verify(vk: tuple[ZqMatrix, ZqVector], pi: ZqVector, params: DRParams) -> bool:
    A, y = vk
    return isis_verify(A, y, pi, norm_bound_sq=params.cert_bound_sq())


# ---------------------------------------------------------------------------
# Literal ciphertext sum (the paper-formula reference construction)
# ---------------------------------------------------------------------------

def dual_ciphertext_sum(A: ZqMatrix, y: ZqVector, g: np.ndarray, sigma: float
                        ) -> qsim.QState:
    """The ciphertext register evaluated directly as the double Gaussian sum

        sum_s sum_e rho_{q/sigma}(e) w^{+<s,y>} |s^T A + e^T + g>,

    normalized, for the register that coset_encrypt(A, sigma, g) builds: a
    PKE ciphertext (g = b.(0,..,0,floor(q/2))) or one FHE column (A^T,
    g = x.g_j). The phase sign is pinned to +<s,y> to match the forward
    Fourier transform; the opposite sign is the same state with negated
    coordinates. Several FHE columns jointly are the Kronecker product.
    The sum over e at k is rho_{q/sigma}(k - s^T A - g), so with s -> -s
    it is the dual sum with the slot table rho_{q/sigma}. For y outside the
    image of A the sum is zero and there is no state: raises ValueError.
    """
    q, w = A.q, A.cols
    if not np.any(zq_image_codes(A.entries, q) == np.ravel_multi_index(tuple(y.entries),
                                                                        (q,) * A.rows)):
        raise ValueError(f"y = {y.entries.tolist()} is outside the image of A")
    amps = _dual_sum(A, y.entries[None], np.asarray(g)[None], gaussian_box_weights(q, 1, q / sigma))
    return _registers(q, w, amps)[0].normalized()
