"""Dual-Regev public-key encryption with publicly-verifiable deletion,
simulated exactly on the state-vector core.

Encryption prepares the Gaussian coset state over {x : A x = y}, applies
the plaintext phase, and applies the forward q-ary Fourier transform;
deletion applies the inverse transform and measures, so the certificate
lands in the coset exactly (A pi = y with probability 1). Under the
forward-transform convention the matching literal ciphertext sum carries
phase w^{+<s,y>} and plaintext offset +b*(0,..,0,floor(q/2)), with the
coset-side phase negated; see dual_ciphertext_sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qsim
from .zqcore import (
    ZqMatrix,
    ZqVector,
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
    A, sk = structured_ajtai_keygen(params.n, params.width, params.q, rng)
    return DRKeys(pk=A, sk=sk, params=params)


def gen_gauss(A: ZqMatrix, sigma: float, rng: np.random.Generator
              ) -> tuple[qsim.QState, ZqVector]:
    """GenGauss: Gaussian superposition, coherent A.x into Y, measure Y.

    Returns the residual Gaussian coset state on segment "X" and the image.
    The image register is measured immediately, so y is drawn from the
    pushforward of rho_sigma^2 under x -> A x (read off the image codes, no
    box is built) and the normalised coset amplitudes
    rho_sigma(x) / sqrt(mass(y)) are written directly: the same channel as
    preparing the Gaussian on X, computing A x into Y and measuring Y.
    """
    n, w, q = A.rows, A.cols, A.q
    weights = gaussian_box_weights(q, w, sigma)
    ycodes = zq_image_codes(A)
    mass = np.bincount(ycodes, weights=weights**2, minlength=q**n)
    code = int(rng.choice(len(mass), p=mass / mass.sum()))
    members = np.flatnonzero(ycodes == code)
    values = weights[members] / math.sqrt(mass[code])
    # free the box-sized tables first, so the state can take their place
    del weights, ycodes
    amps = np.zeros(q**w, dtype=np.complex128)
    amps[members] = values
    coset = qsim.QState(qsim.RegisterLayout([("X", (q,) * w)]), amps)
    return coset, ZqVector(np.asarray(np.unravel_index(code, (q,) * n)), q)


def plaintext_offset(params: DRParams, b: int) -> np.ndarray:
    g = np.zeros(params.width, dtype=np.int64)
    g[-1] = check_bit(b) * (params.q // 2)
    return g


def coset_encrypt(A: ZqMatrix, sigma: float, g: np.ndarray, rng: np.random.Generator
                  ) -> tuple[qsim.QState, ZqVector]:
    """One ciphertext register: the GenGauss coset over {x : A x = y}, the
    plaintext phase w^{<x, -g>} when g != 0, then the forward Fourier
    transform. Returns the state and the image y."""
    coset, y = gen_gauss(A, sigma, rng)
    if np.any(g % A.q):
        coset = qsim.phase_oracle(coset, "X", tuple((-g) % A.q))
    return qsim.qft(coset, "X"), y


def coset_delete(state: qsim.QState, q: int, rng: np.random.Generator) -> ZqVector:
    """Deletion of one ciphertext register: inverse Fourier transform, then
    measure all slots; the outcome lies in the register's coset."""
    out = qsim.measure(qsim.qft_inverse(state, "X"), "X", rng)
    return ZqVector(np.asarray(out.value), q)


def dr_encrypt(keys: DRKeys, b: int, rng: np.random.Generator) -> DRCiphertext:
    """Enc: GenGauss coset, plaintext phase, forward Fourier transform."""
    g = plaintext_offset(keys.params, b)
    state, y = coset_encrypt(keys.pk, keys.params.sigma, g, rng)
    return DRCiphertext(vk=(keys.pk, y), state=state)


def dr_decrypt(keys: DRKeys, ct: DRCiphertext, rng: np.random.Generator) -> int:
    """Dec: measure, form centered(c . sk), decide against q/4 (tie -> 1)."""
    out = qsim.measure(ct.state, "X", rng)
    c = ZqVector(np.asarray(out.value), keys.params.q)
    return int(decide_decryption(c.dot(keys.sk), keys.params.q))


def decide_decryption(v, q: int) -> np.ndarray:
    """The decoder's rule on v = c . sk mod q, one value or an array: 0 where
    |centered(v)| < q/4, else 1 (a tie decides 1)."""
    return (4 * np.abs(centered_array(v, q)) >= q).astype(np.int64)


def dr_delete(ct: DRCiphertext, rng: np.random.Generator) -> ZqVector:
    """Del: inverse Fourier transform, measure all slots."""
    return coset_delete(ct.state, ct.vk[0].q, rng)


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
    """
    q, w = A.q, A.cols
    layout = qsim.RegisterLayout([("X", (q,) * w)])
    rho_e = gaussian_box_weights(q, w, q / sigma)
    digits = zq_box(q, w)
    radix = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
    amps = np.zeros(q**w, dtype=np.complex128)
    omega = np.exp(2j * np.pi / q)
    for s in zq_box(q, A.rows):
        sA = (s @ A.entries) % q
        phase = omega ** (int(np.dot(s, y.entries)) % q)
        target = ((digits + sA[None, :] + g[None, :]) % q) @ radix
        amps[target] += phase * rho_e
    return qsim.QState(layout, amps).normalized()

