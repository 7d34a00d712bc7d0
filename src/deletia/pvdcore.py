"""Canonical quantum bit commitments with publicly-verifiable deletion, and
PKE with PVD from trapdoor phase-recoverability.

A commitment or ciphertext is lambda independent fiber blocks

    |psi_{h,y_i,b}> = sum_{x : h(x)=y_i} (-1)^{b.M[h](x)} |x> / sqrt(|fiber|)

held as one (lambda, D) stack of amplitude rows on the domain's register,
plus the measured images; the classical parts (h, y_i) are carried as
metadata, not qudits, since every execution path measures them first. Each
protocol step (building, opening, recovering, measuring and verifying the
blocks) is one array step over the stack, and the blocks draw from the one
generator in block order, as one block after another would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qsim
from .hashfam import HashFamily, fiber_state, superposition_invert
from .zqcore import check_bit

MAX_REPS = 8
# The amplitudes of the fiber blocks ``calibrate_recover`` stacks at once.
_CALIBRATE_CELLS = 1 << 16


@dataclass
class CommitmentPair:
    """R-side measured vk plus the C-side quantum preimage blocks."""

    family: HashFamily
    key: object
    images: list
    blocks: np.ndarray  # (reps, D): block i's amplitudes on the domain's register
    bit: int


@dataclass
class PVDKeys:
    family: HashFamily
    key: object  # pk = h
    trapdoor: object  # sk = td
    recover_threshold: float  # c
    reps: int


@dataclass
class PVDCiphertext:
    images: list
    blocks: np.ndarray  # (reps, D), as in CommitmentPair


def _sample_blocks(family: HashFamily, key, b: int, reps: int, rng: np.random.Generator
                   ) -> tuple[list, np.ndarray]:
    """reps times: prepare sum_x (-1)^{b M(x)} |x>|h(x)>, measure the image
    register. Returns (images, blocks)."""
    # image measurement via classical pushforward of the uniform weights
    t = family.table(key)
    probs = np.bincount(t.image_ids).astype(float)  # by row, images in repr order
    probs /= probs.sum()
    images = [t.ys[qsim.draw_index(probs, rng)] for _ in range(reps)]
    return images, fiber_state(family, key, images, signed_bit=b)


def commit(family: HashFamily, b: int, reps: int, rng: np.random.Generator
           ) -> CommitmentPair:
    """lambda independent signed-fiber blocks under one sampled h."""
    if not family.measured:
        raise ValueError("commitment needs a family with a measurement predicate")
    if not 1 <= reps <= MAX_REPS:
        raise ValueError(f"reps must be 1..{MAX_REPS}")
    b = check_bit(b)
    key, _ = family.sample(rng)
    images, blocks = _sample_blocks(family, key, b, reps, rng)
    return CommitmentPair(family=family, key=key, images=images, blocks=blocks, bit=b)


def open_accept_prob(pair: CommitmentPair, claim_b: int) -> float:
    """Exact acceptance probability of opening as claim_b: the product of
    squared overlaps with the claimed blocks, folded in block order, each
    overlap summed by np.vdot."""
    claim_b = check_bit(claim_b, "claim_b")
    targets = fiber_state(pair.family, pair.key, pair.images, signed_bit=claim_b)
    p = 1.0
    for target, block in zip(targets, pair.blocks):
        p *= abs(np.vdot(target, block)) ** 2
    return p


def commit_ver(family: HashFamily, key, images: list, pis: list) -> bool:
    """Ver: h(x_i) = y_i for every block, one compare against the key's
    table; an x_i outside the domain fails."""
    if len(pis) != len(images) or not all(family.domain.contains(x) for x in pis):
        return False
    return np.array_equal(family.table(key).images[np.array(pis, dtype=np.int64)], images)


# ---------------------------------------------------------------------------
# PKE with PVD from trapdoor phase-recoverability
# ---------------------------------------------------------------------------

def calibrate_recover(family: HashFamily, key) -> tuple[float, float, float]:
    """(p0, p1, c): exact Recover->0 probabilities on b=0 and b=1 blocks.

    p_b averages |<psi_{h,y,0}|psi_{h,y,b}>|^2 over the image distribution
    of a uniform input, folded over the images in order of first appearance
    with each overlap summed by np.vdot; the shipped threshold is the
    midpoint c = (p0+p1)/2. The images' blocks are stacked a chunk of rows
    at a time.
    """
    t = family.table(key)
    counts = np.bincount(t.image_ids)
    total = len(t.images)
    _, first = np.unique(t.image_ids, return_index=True)
    order = np.argsort(first).tolist()  # images in order of first appearance
    step = max(1, _CALIBRATE_CELLS // total)
    p1 = 0.0
    for lo in range(0, len(order), step):
        rows = order[lo:lo + step]
        ys = [t.ys[j] for j in rows]
        s0, s1 = (fiber_state(family, key, ys, signed_bit=b) for b in (0, 1))
        for j, a, b in zip(rows, s1, s0):
            p1 += (int(counts[j]) / total) * float(np.vdot(a, b).real) ** 2
    p0 = 1.0
    return p0, p1, (p0 + p1) / 2


def pvd_keygen(family: HashFamily, rng: np.random.Generator, reps: int = 8) -> PVDKeys:
    if not 1 <= reps <= MAX_REPS:
        raise ValueError(f"reps must be 1..{MAX_REPS}, got {reps}")
    if family.invert is None:
        raise ValueError("PKE with PVD needs a trapdoor-invertible family")
    if not family.measured:
        raise ValueError("PKE with PVD needs a measurement predicate")
    key, td = family.sample(rng)
    _, _, c = calibrate_recover(family, key)
    return PVDKeys(family=family, key=key, trapdoor=td, recover_threshold=c, reps=reps)


def pvd_encrypt(keys: PVDKeys, b: int, rng: np.random.Generator) -> PVDCiphertext:
    images, blocks = _sample_blocks(keys.family, keys.key, check_bit(b), keys.reps, rng)
    return PVDCiphertext(images=images, blocks=blocks)


def pvd_decrypt(keys: PVDKeys, ct: PVDCiphertext, rng: np.random.Generator) -> int:
    """Recover on every block: the two-outcome projective measurement
    {|psi0><psi0|, I - |psi0><psi0|} with |psi0> rebuilt from the trapdoor,
    outcome 0 on success, drawn in block order. The blocks are left in
    their post-measurement states. Decrypts 0 when the share of 0 outcomes
    exceeds the threshold."""
    target = superposition_invert(keys.family, keys.key, keys.trapdoor, ct.images)
    tv = target / qsim.row_norms(target)[:, None]
    # <psi0|block>, each summed as the (1, D) @ (D,) product of a projection
    ov = (ct.blocks[:, None, :] @ tv.conj()[:, :, None])[:, 0, 0]
    p = np.square(np.abs(ov))
    zero = rng.random(len(p)) < p
    if (p[zero] < qsim.PROJECT_EPS).any():
        raise qsim.ZeroProbabilityProjection(
            f"projection probability {float(p[zero].min())} < {qsim.PROJECT_EPS}")
    post = np.empty_like(ct.blocks)
    post[zero] = ov[zero, None] * tv[zero] / np.sqrt(p[zero])[:, None]
    # complement outcome: renormalized (I - P)|block>, with np.vdot's overlap
    one = ~zero
    ov1 = np.array([np.vdot(a, b) for a, b in zip(tv[one], ct.blocks[one])], dtype=complex)
    residual = ct.blocks[one] - ov1[:, None] * tv[one]
    post[one] = residual / qsim.row_norms(residual)[:, None]
    ct.blocks = post
    return 0 if np.count_nonzero(zero) / keys.reps > keys.recover_threshold else 1


def pvd_delete(ct: PVDCiphertext | CommitmentPair, family: HashFamily,
               rng: np.random.Generator) -> list:
    """Measure every block in the standard basis, in block order; the
    outcomes are pi (a value is its own register index). A commitment is
    deleted the same way."""
    pis, ct.blocks = qsim.measure_rows(ct.blocks, [rng] * len(ct.blocks))
    return pis.tolist()


def pvd_verify(family: HashFamily, key, images: list, pis: list) -> bool:
    return commit_ver(family, key, images, pis)
