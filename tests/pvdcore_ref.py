"""The per-block and per-run OWF-based PVD protocol: each fiber block of a
commitment or ciphertext, and each run of the TCR game, on its own qsim
state, as ``src/`` ran them before it played them in batches. The batched
code must give the same images, amplitudes, probabilities, bits,
certificates and transcripts, and leave every generator in the same state;
the tests check it against these references."""
import numpy as np

from deletia import qsim
from deletia.hashfam import TCRTranscript
from deletia.pvdcore import MAX_REPS, CommitmentPair, PVDCiphertext, PVDKeys
from deletia.zqcore import check_bit
from qsim_ref import prepare_weighted, project


def _layout(family):
    return qsim.RegisterLayout([("X", (2,) * family.domain.bits)])


def from_register(reg) -> int:
    """The value of big-endian qubit outcomes: a bit domain's value is its
    own register index."""
    v = 0
    for b in reg:
        v = (v << 1) | (b & 1)
    return v


def fiber_state(family, key, y, signed_bit=0) -> qsim.QState:
    """Fiber superposition sum_x (+/-)^(b*M(x)) |x> by enumeration."""
    t = family.table(key)
    pre = np.flatnonzero(t.fiber_mask(y))
    if not pre.size:
        raise ValueError(f"empty fiber for {y!r}")
    w = np.ones(pre.size)
    if check_bit(signed_bit, "signed_bit") and family.measured:
        w = np.where(t.mvals[pre] != 0, -w, w)
    amps = np.zeros(_layout(family).dim, dtype=np.complex128)
    amps[pre] = w
    return qsim.QState(_layout(family), amps).normalized()


def superposition_invert(family, key, td, y) -> qsim.QState:
    """Uniform superposition over the preimages of y, via the trapdoor."""
    pre = family.invert(key, td, y)
    if not pre:
        raise ValueError(f"empty preimage set for {y!r}")
    w = np.zeros(_layout(family).dim)
    w[pre] = 1.0
    return prepare_weighted(_layout(family), "X", w)


def sample_blocks(family, key, b, reps, rng):
    t = family.table(key)
    probs = np.bincount(t.image_ids).astype(float)
    probs /= probs.sum()
    images = [t.ys[qsim.draw_index(probs, rng)] for _ in range(reps)]
    return images, [fiber_state(family, key, y, signed_bit=b) for y in images]


def commit(family, b, reps, rng):
    """A CommitmentPair whose blocks are a list of QStates."""
    assert family.measured and 1 <= reps <= MAX_REPS
    key, _ = family.sample(rng)
    images, blocks = sample_blocks(family, key, check_bit(b), reps, rng)
    return CommitmentPair(family=family, key=key, images=images, blocks=blocks, bit=b)


def open_accept_prob(pair, claim_b):
    p = 1.0
    for y, block in zip(pair.images, pair.blocks):
        target = fiber_state(pair.family, pair.key, y, signed_bit=claim_b)
        p *= abs(np.vdot(target.amps, block.amps)) ** 2
    return p


def block_overlap(family, key, y) -> float:
    """<psi_{h,y,1}|psi_{h,y,0}> = (A0 - A1) / (A0 + A1), from the states."""
    s0 = fiber_state(family, key, y, signed_bit=0)
    s1 = fiber_state(family, key, y, signed_bit=1)
    return float(np.vdot(s1.amps, s0.amps).real)


def commit_ver(family, key, images, pis) -> bool:
    if len(pis) != len(images):
        return False
    return all(family.eval(key, x) == y for x, y in zip(pis, images))


def calibrate_recover(family, key):
    t = family.table(key)
    counts = np.bincount(t.image_ids)
    total = len(t.images)
    _, first = np.unique(t.image_ids, return_index=True)
    p1 = 0.0
    for j in np.argsort(first):
        p1 += (int(counts[j]) / total) * block_overlap(family, key, t.ys[j]) ** 2
    return 1.0, p1, (1.0 + p1) / 2


def pvd_keygen(family, rng, reps=8):
    key, td = family.sample(rng)
    _, _, c = calibrate_recover(family, key)
    return PVDKeys(family=family, key=key, trapdoor=td, recover_threshold=c, reps=reps)


def pvd_encrypt(keys, b, rng):
    return PVDCiphertext(*sample_blocks(keys.family, keys.key, check_bit(b), keys.reps, rng))


def recover(keys, y, block, rng):
    """Two-outcome projective measurement {|psi0><psi0|, I - |psi0><psi0|}
    with |psi0> rebuilt from the trapdoor; outcome 0 on success."""
    target = superposition_invert(keys.family, keys.key, keys.trapdoor, y)
    p = qsim.project_prob(block, "X", target)
    if rng.random() < p:
        _, post = project(block, "X", target)
        return 0, post
    tv = target.amps / np.linalg.norm(target.amps)
    ov = np.vdot(tv, block.amps)
    residual = block.amps - ov * tv
    return 1, qsim.QState(block.layout, residual / np.linalg.norm(residual))


def pvd_decrypt(keys, ct, rng):
    zeros = 0
    for i, (y, block) in enumerate(zip(ct.images, ct.blocks)):
        bit, post = recover(keys, y, block, rng)
        ct.blocks[i] = post
        zeros += bit == 0
    return 0 if zeros / keys.reps > keys.recover_threshold else 1


def pvd_delete(ct, family, rng):
    pis = []
    for i, block in enumerate(ct.blocks):
        out = qsim.measure(block, "X", rng)
        pis.append(from_register(out.value))
        ct.blocks[i] = out.post_state
    return pis


def tcr_game(family, adversary, rng, aux=None) -> TCRTranscript:
    """One run; ``adversary`` is one of the per-run adversaries below."""
    key, td = family.sample(rng)
    t = family.table(key)
    layout = _layout(family)
    state = prepare_weighted(layout, "X", np.ones(layout.dim))
    probs = qsim.marginal_probs(state, "X")
    py = np.bincount(t.image_ids, weights=probs, minlength=len(t.ys))
    j = qsim.draw_index(py / py.sum(), rng)
    y = t.ys[j]
    idx = np.flatnonzero(t.image_ids == j)
    fiber_amps = np.zeros(layout.dim, dtype=np.complex128)
    fiber_amps[idx] = state.amps[idx]
    state = qsim.QState(layout, fiber_amps).normalized()
    if not family.measured:
        out = qsim.measure(state, "X", rng)
        v = from_register(out.value)
        state = out.post_state
    else:
        mvals = t.mvals[idx]
        sides = np.bincount(mvals, weights=np.abs(state.amps[idx]) ** 2, minlength=2)
        v = int(rng.random() < sides[1] / (sides[0] + sides[1]))
        kept = np.zeros(layout.dim, dtype=np.complex128)
        keep = idx[mvals == v]
        kept[keep] = state.amps[keep]
        state = qsim.QState(layout, kept).normalized()
    aux_value = aux(td) if aux is not None else None
    answer = adversary(family, key, y, state, rng, aux_value)
    win = (answer is not None and family.eval(key, answer) == y
           and family.measure(key, answer) != v)
    return TCRTranscript(y=y, v=v, answer=answer, win=win, key=key)


def brute_force_tcr_adversary(family, key, y, state, rng, aux=None):
    pre = family.fiber(key, y)
    return pre[int(rng.integers(0, len(pre)))] if pre else None


def honest_tcr_adversary(family, key, y, state, rng, aux=None):
    out = qsim.measure(state, "X", rng)
    return from_register(out.value)


def garbage_tcr_adversary(family, key, y, state, rng, aux=None):
    outside = np.flatnonzero(~family.table(key).fiber_mask(y))
    return int(outside[0]) if outside.size else None


TCR_ADVERSARIES = {"brute-force-inverter": brute_force_tcr_adversary,
                   "honest-deleter": honest_tcr_adversary,
                   "garbage-certifier": garbage_tcr_adversary}
