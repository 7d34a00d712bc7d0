"""Dual-Regev leveled FHE with publicly-verifiable deletion.

Fresh ciphertexts exist in two modes: per-column quantum states (the
ciphertext sum factorizes over gadget columns, so Enc/Del/Vrfy simulate
exactly column by column), and a classical computational-basis sample
C = A S + E + x G used for homomorphic NAND evaluation. The NAND unitary
permutes basis states and decryption is basis-diagonal, so classical
evaluation is distribution-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qsim
from .dualregev import (
    DRParams,
    coset_delete,
    coset_encrypt,
    decide_decryption,
)
from .zqcore import (
    ZqMatrix,
    ZqVector,
    centered,
    check_bit,
    gadget_inverse,
    gadget_matrix,
    gadget_width,
    gaussian_pmf_1d,
    isis_verify,
    matmul_mod,
    structured_ajtai_keygen,
)


@dataclass(frozen=True)
class FHEParams(DRParams):
    """The PKE parameters of every column plus the NAND-depth bound L."""

    depth: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    @property
    def ncols(self) -> int:
        return self.width * gadget_width(self.q)  # N = (m+1) ceil(log2 q)


def fhe_params(n: int, m: int, q: int, sigma=None, depth: int = 1,
               *, sigma_sq=None) -> FHEParams:
    if sigma_sq is None:
        sigma_sq = Fraction(sigma) ** 2
    return FHEParams(n, m, q, Fraction(sigma_sq), depth)


@dataclass
class FHEKeys:
    pk: ZqMatrix  # A, (m+1) x n
    sk: ZqVector  # (-xbar, 1)
    params: FHEParams


@dataclass
class FHECiphertextQ:
    vk: tuple[ZqMatrix, ZqMatrix]  # (A, Y) with Y n x N
    columns: list[qsim.QState]  # N states, each over (m+1) q-ary slots


@dataclass
class FHECiphertextC:
    matrix: ZqMatrix  # (m+1) x N


def fhe_keygen(params: FHEParams, rng: np.random.Generator) -> FHEKeys:
    """A = [Abar | Abar xbar mod q]^T in Z_q^{(m+1) x n}, sk = (-xbar, 1)."""
    A, sk = structured_ajtai_keygen(params.n, params.width, params.q, [rng])
    return FHEKeys(pk=ZqMatrix(A[0], params.q).transpose(), sk=ZqVector(sk[0], params.q),
                   params=params)


def fhe_encrypt_q(keys: FHEKeys, x: int, rng: np.random.Generator) -> FHECiphertextQ:
    """Per-column quantum encryption: column j carries plaintext offset x.g_j.

    Column j is the dual-Regev state for the coset {v : A^T v = y_j}. The
    PKE's coset_encrypt builds all N columns at once, drawing y_j from the
    generator in column order.
    """
    params = keys.params
    offset = check_bit(x, "x") * gadget_matrix(params.q, params.width).entries
    cols, ys = coset_encrypt(keys.pk.transpose(), params.sigma, offset.T, rng)
    return FHECiphertextQ(vk=(keys.pk, ZqMatrix(ys.T, params.q)), columns=cols)


def fhe_encrypt_c(keys: FHEKeys, x: int, rng: np.random.Generator) -> FHECiphertextC:
    """Classical sample C = A S + E + x G with E ~ D_{Z_q, q/(sqrt(2) sigma)}
    per entry, the computational-basis distribution of fhe_encrypt_q."""
    params = keys.params
    x = check_bit(x, "x")
    q, w, N, n = params.q, params.width, params.ncols, params.n
    S = rng.integers(0, q, size=(n, N))
    vals, probs = gaussian_pmf_1d(params.q / (math.sqrt(2) * params.sigma), q)
    E = vals[rng.choice(len(vals), p=probs, size=(w, N))]
    G = gadget_matrix(q, w)
    C = (matmul_mod(keys.pk.entries, S, q) + E + x * G.entries) % q
    return FHECiphertextC(matrix=ZqMatrix(C, q))


def fhe_eval_nand(c0: FHECiphertextC, c1: FHECiphertextC) -> FHECiphertextC:
    """NAND: G - C0 . G^{-1}(C1) mod q (the Z = 0 slice of U_NAND)."""
    q = c0.matrix.q
    if c1.matrix.q != q or c0.matrix.entries.shape != c1.matrix.entries.shape:
        raise ValueError("ciphertext shape/modulus mismatch")
    w, N = c0.matrix.rows, c0.matrix.cols
    G = gadget_matrix(q, w)
    bits = gadget_inverse(c1.matrix, q, w)  # N x N binary
    out = (G.entries - matmul_mod(c0.matrix.entries, bits, q)) % q
    return FHECiphertextC(matrix=ZqMatrix(out, q))


def fhe_decrypt(keys: FHEKeys, ct: FHECiphertextC) -> int:
    """sk . c, centered, thresholded at q/4 (tie decides 1), for c the last
    row's gadget column whose entry 2^j has the largest centered size:
    2^(K-1), or 2^(K-2) where 2^(K-1) centers smaller (q below 1.5 2^(K-1)).
    That size is at least q/3, so x 2^j stands clear of the noise at every q."""
    q, rows = keys.params.q, ct.matrix.rows
    k = gadget_width(q)
    j = k - 1 if k == 1 or abs(centered(1 << (k - 1), q)) >= 1 << (k - 2) else k - 2
    return int(decide_decryption(ct.matrix.column(j * rows + rows - 1).dot(keys.sk), q))


def fhe_measure_q(ct: FHECiphertextQ, rng: np.random.Generator) -> FHECiphertextC:
    """Computational-basis measurement of all columns, in column order."""
    A, _ = ct.vk
    return FHECiphertextC(matrix=ZqMatrix(qsim.measure_register(ct.columns, rng).T, A.q))


def fhe_delete(ct: FHECiphertextQ, rng: np.random.Generator) -> list[ZqVector]:
    """Per-column Fourier-basis measurement, in column order (see coset_delete)."""
    return coset_delete(ct.columns, ct.vk[0].q, rng)


def fhe_verify(vk: tuple[ZqMatrix, ZqMatrix], pis: list[ZqVector],
               params: FHEParams) -> bool:
    """Accept iff A^T pi_i = y_i and ||pi_i|| is short (is_short), for every
    column: one isis_verify over the stacked certificates. A certificate of
    another modulus or length raises DimensionMismatch."""
    A, Y = vk
    if len(pis) != Y.cols:
        return False
    return bool(np.all(isis_verify(A.transpose(), Y.entries.T, pis, q=Y.q,
                                   norm_bound_sq=params.cert_bound_sq())))


def nand_tree_eval(keys: FHEKeys, leaves: list[int], rng: np.random.Generator
                   ) -> tuple[int, int]:
    """Encrypt 2^L leaf bits classically, fold a balanced NAND tree, decrypt.

    Returns (decrypted, expected) where expected folds plain NANDs.
    """
    if len(leaves) & (len(leaves) - 1):
        raise ValueError("leaf count must be a power of two")
    cts = [fhe_encrypt_c(keys, b, rng) for b in leaves]
    vals = list(leaves)
    while len(cts) > 1:
        cts = [fhe_eval_nand(cts[i], cts[i + 1]) for i in range(0, len(cts), 2)]
        vals = [1 - (vals[i] & vals[i + 1]) for i in range(0, len(vals), 2)]
    return fhe_decrypt(keys, cts[0]), vals[0]


def validate_noise_window(params: FHEParams) -> list[tuple[str, str, str]]:
    """The parameter inequalities as (name, status, detail) rows.

    sqrt(8(m+1)) <= alpha q <= q / (sqrt(8) (m+1) (N+1)^L) must hold (fail
    otherwise); the stronger theorem-level lower bound sqrt(8(m+1)N) and the
    leftover-hash condition m >= 2n log2 q are reported as warnings.
    """
    rows = []
    aq = params.alpha * params.q
    w, N, L = params.width, params.ncols, params.depth
    lo = math.sqrt(8 * w)
    hi = params.q / (math.sqrt(8) * w * (N + 1) ** L)
    if lo <= aq <= hi:
        rows.append(("fhe-noise-window", "pass",
                     f"{lo:.4g} <= alpha*q = {aq:.4g} <= {hi:.4g}"))
    elif aq < lo:
        rows.append(("fhe-noise-window", "fail",
                     f"alpha*q = {aq:.4g} < sqrt(8(m+1)) = {lo:.4g}"))
    else:
        rows.append(("fhe-noise-window", "fail",
                     f"alpha*q = {aq:.4g} > q/(sqrt(8)(m+1)(N+1)^L) = {hi:.4g} at L={L}"))
    lo_thm = math.sqrt(8 * w * N)
    rows.append(("fhe-noise-lower-thm", "pass" if aq >= lo_thm else "warn",
                 f"alpha*q = {aq:.4g} vs sqrt(8(m+1)N) = {lo_thm:.4g}"))
    lhl = 2 * params.n * math.log2(params.q)
    rows.append(("leftover-hash", "pass" if params.m >= lhl else "warn",
                 f"m = {params.m} vs 2n log2 q = {lhl:.4g}"))
    return rows
