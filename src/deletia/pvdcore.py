"""Canonical quantum bit commitments with publicly-verifiable deletion,
PKE with PVD from trapdoor phase-recoverability, and the generic hybrid
compiler that encrypts the trapdoor under any auxiliary encryptor.

A commitment or ciphertext is a list of independent fiber blocks

    |psi_{h,y_i,b}> = sum_{x : h(x)=y_i} (-1)^{b.M[h](x)} |x> / sqrt(|fiber|)

plus the measured images; the classical parts (h, y_i) are carried as
metadata, not qudits, since every execution path measures them first.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qsim
from .hashfam import HashFamily, fiber_state, superposition_invert

MAX_REPS = 8


@dataclass
class CommitmentPair:
    """R-side measured vk plus the C-side quantum preimage blocks."""

    family: HashFamily
    key: object
    images: list
    blocks: list[qsim.QState]
    bit: int


@dataclass
class PVDKeys:
    family: HashFamily
    key: object  # pk = h
    trapdoor: object  # sk = td
    recover_threshold: float  # c
    recover_gap: float  # eps
    reps: int


@dataclass
class PVDCiphertext:
    images: list
    blocks: list[qsim.QState]


def _sample_blocks(family: HashFamily, key, b: int, reps: int, rng: np.random.Generator
                   ) -> tuple[list, list[qsim.QState]]:
    """reps times: prepare sum_x (-1)^{b M(x)} |x>|h(x)>, measure the image
    register. Returns (images, blocks)."""
    # image measurement via classical pushforward of the uniform weights
    t = family.table(key)
    order = t.repr_order()
    probs = np.bincount(t.image_ids, minlength=len(t.ys))[order].astype(float)
    images = [t.ys[order[int(rng.choice(len(order), p=probs / probs.sum()))]]
              for _ in range(reps)]
    return images, [fiber_state(family, key, y, signed_bit=b % 2) for y in images]


def commit(family: HashFamily, b: int, reps: int, rng: np.random.Generator
           ) -> CommitmentPair:
    """lambda independent signed-fiber blocks under one sampled h."""
    if family.measure is None:
        raise ValueError("commitment needs a family with a measurement predicate")
    if not 1 <= reps <= MAX_REPS:
        raise ValueError(f"reps must be 1..{MAX_REPS}")
    key, _ = family.sample(rng)
    images, blocks = _sample_blocks(family, key, b, reps, rng)
    return CommitmentPair(family=family, key=key, images=images, blocks=blocks, bit=b % 2)


def open_accept_prob(pair: CommitmentPair, claim_b: int) -> float:
    """Exact acceptance probability of opening as claim_b: the product of
    squared overlaps with the claimed blocks."""
    p = 1.0
    for y, block in zip(pair.images, pair.blocks):
        target = fiber_state(pair.family, pair.key, y, signed_bit=claim_b % 2)
        p *= abs(np.vdot(target.amps, block.amps)) ** 2
    return p


def open_verify(pair: CommitmentPair, claim_b: int | None,
                rng: np.random.Generator) -> bool:
    """Sampled opening: project every block onto the claimed fiber state
    (claim_b None claims the committed bit)."""
    claim = pair.bit if claim_b is None else claim_b % 2
    for y, block in zip(pair.images, pair.blocks):
        target = fiber_state(pair.family, pair.key, y, signed_bit=claim)
        p = qsim.project_prob(block, "X", target)
        if rng.random() >= p:
            return False
    return True


def block_overlap(family: HashFamily, key, y) -> float:
    """<psi_{h,y,1}|psi_{h,y,0}> = (A0 - A1) / (A0 + A1), from the states."""
    s0 = fiber_state(family, key, y, signed_bit=0)
    s1 = fiber_state(family, key, y, signed_bit=1)
    return float(np.vdot(s1.amps, s0.amps).real)


def commit_ver(family: HashFamily, key, images: list, pis: list) -> bool:
    """Ver: h(x_i) = y_i for every block."""
    if len(pis) != len(images):
        return False
    return all(family.eval(key, x) == y for x, y in zip(pis, images))


# ---------------------------------------------------------------------------
# PKE with PVD from trapdoor phase-recoverability
# ---------------------------------------------------------------------------

def calibrate_recover(family: HashFamily, key) -> tuple[float, float, float]:
    """(p0, p1, c): exact Recover->0 probabilities on b=0 and b=1 blocks.

    p_b averages |<psi_{h,y,0}|psi_{h,y,b}>|^2 over the image distribution
    of a uniform input; the shipped threshold is the midpoint c = (p0+p1)/2.
    """
    t = family.table(key)
    counts = np.bincount(t.image_ids)
    total = len(t.values)
    _, first = np.unique(t.image_ids, return_index=True)
    p1 = 0.0
    for j in np.argsort(first):  # images in order of first appearance
        p1 += (int(counts[j]) / total) * block_overlap(family, key, t.ys[j]) ** 2
    p0 = 1.0
    return p0, p1, (p0 + p1) / 2


def pvd_keygen(family: HashFamily, rng: np.random.Generator, reps: int = 8) -> PVDKeys:
    if family.invert is None:
        raise ValueError("PKE with PVD needs a trapdoor-invertible family")
    if family.measure is None:
        raise ValueError("PKE with PVD needs a measurement predicate")
    key, td = family.sample(rng)
    p0, p1, c = calibrate_recover(family, key)
    return PVDKeys(family=family, key=key, trapdoor=td,
                   recover_threshold=c, recover_gap=(p0 - p1) / 2, reps=reps)


def pvd_encrypt(keys: PVDKeys, b: int, rng: np.random.Generator) -> PVDCiphertext:
    images, blocks = _sample_blocks(keys.family, keys.key, b, keys.reps, rng)
    return PVDCiphertext(images=images, blocks=blocks)


def recover(keys: PVDKeys, y, block: qsim.QState, rng: np.random.Generator
            ) -> tuple[int, qsim.QState]:
    """Two-outcome projective measurement {|psi0><psi0|, I - |psi0><psi0|}
    with |psi0> rebuilt from the trapdoor; outcome 0 on success."""
    target = superposition_invert(keys.family, keys.key, keys.trapdoor, y)
    p = qsim.project_prob(block, "X", target)
    if rng.random() < p:
        _, post = qsim.project(block, "X", target)
        return 0, post
    # complement outcome: renormalized (I - P)|block>
    tv = target.amps / np.linalg.norm(target.amps)
    ov = np.vdot(tv, block.amps)
    residual = block.amps - ov * tv
    return 1, qsim.QState(block.layout, residual / np.linalg.norm(residual))


def pvd_decrypt(keys: PVDKeys, ct: PVDCiphertext, rng: np.random.Generator) -> int:
    zeros = 0
    for i, (y, block) in enumerate(zip(ct.images, ct.blocks)):
        bit, post = recover(keys, y, block, rng)
        ct.blocks[i] = post
        zeros += bit == 0
    return 0 if zeros / keys.reps > keys.recover_threshold else 1


def pvd_delete(ct: PVDCiphertext | CommitmentPair, family: HashFamily,
               rng: np.random.Generator) -> list:
    """Measure every block in the standard basis; the outcomes are pi. A
    commitment is deleted the same way."""
    pis = []
    for i, block in enumerate(ct.blocks):
        out = qsim.measure(block, "X", rng)
        pis.append(family.domain.from_register(out.value))
        ct.blocks[i] = out.post_state
    return pis


def pvd_verify(family: HashFamily, key, images: list, pis: list) -> bool:
    return commit_ver(family, key, images, pis)


# ---------------------------------------------------------------------------
# Generic hybrid compiler: ciphertext carries aux_encrypt(td)
# ---------------------------------------------------------------------------

@dataclass
class HybridCiphertext:
    images: list
    blocks: list[qsim.QState]
    aux_ct: bytes


@dataclass
class HybridScheme:
    """PKE with PVD whose public artifacts include an encryption of the
    trapdoor under a pluggable classical encryptor (ABE/FHE/WE stand-ins)."""

    base: PVDKeys
    aux_encrypt: Callable[[bytes], bytes]
    aux_decrypt: Callable[[bytes], bytes]

    def encrypt(self, b: int, rng: np.random.Generator) -> HybridCiphertext:
        ct = pvd_encrypt(self.base, b, rng)
        aux_ct = self.aux_encrypt(pickle.dumps(self.base.trapdoor))
        return HybridCiphertext(images=ct.images, blocks=ct.blocks, aux_ct=aux_ct)

    def decrypt(self, ct: HybridCiphertext, rng: np.random.Generator) -> int:
        td = pickle.loads(self.aux_decrypt(ct.aux_ct))
        keys = PVDKeys(family=self.base.family, key=self.base.key, trapdoor=td,
                       recover_threshold=self.base.recover_threshold,
                       recover_gap=self.base.recover_gap, reps=self.base.reps)
        return pvd_decrypt(keys, PVDCiphertext(ct.images, ct.blocks), rng)

    def delete(self, ct: HybridCiphertext, rng: np.random.Generator) -> list:
        return pvd_delete(PVDCiphertext(ct.images, ct.blocks), self.base.family, rng)

    def verify(self, images: list, pis: list) -> bool:
        return pvd_verify(self.base.family, self.base.key, images, pis)


def hybrid_compile(base: PVDKeys, aux_encrypt: Callable[[bytes], bytes],
                   aux_decrypt: Callable[[bytes], bytes]) -> HybridScheme:
    """Wrap a PVD scheme so its trapdoor ships under the given encryptor.

    The deletion path never touches the aux component.
    """
    return HybridScheme(base=base, aux_encrypt=aux_encrypt, aux_decrypt=aux_decrypt)


def stream_cipher(seed: int) -> tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]:
    """Toy seeded stream cipher (XOR keystream); the shipped aux encryptor."""

    def xor(data: bytes) -> bytes:
        ks = np.random.default_rng(seed).integers(0, 256, size=len(data), dtype=np.uint8)
        return bytes(np.frombuffer(data, dtype=np.uint8) ^ ks)

    return xor, xor
