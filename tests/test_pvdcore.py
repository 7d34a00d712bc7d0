import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest

from deletia import hashfam, pvdcore, qsim
from deletia.hashfam import (
    balance_estimate,
    chor_goldreich_family,
    compose_balanced,
    fdelta_family,
    fiber_split,
    toy_regular_owf,
)
from deletia.pvdcore import (
    block_overlap,
    calibrate_recover,
    commit,
    commit_ver,
    hybrid_compile,
    open_accept_prob,
    open_verify,
    pvd_decrypt,
    pvd_delete,
    pvd_encrypt,
    pvd_keygen,
    pvd_verify,
    recover,
    stream_cipher,
)


def balanced_family():
    return fdelta_family(toy_regular_owf(6, 2))


def trapdoor_family():
    comp = compose_balanced(toy_regular_owf(8, 2), chor_goldreich_family(6, 6, 4))
    return fdelta_family(comp)


def test_commit_b0_blocks_are_positive_uniform():
    rng = np.random.default_rng(0)
    fam = balanced_family()
    pair = commit(fam, 0, 3, rng)
    assert len(pair.blocks) == 3
    for y, block in zip(pair.images, pair.blocks):
        fiber = fam.fiber(pair.key, y)
        nz = block.amps[np.abs(block.amps) > 1e-12]
        assert len(nz) == len(fiber)
        np.testing.assert_allclose(nz, 1 / math.sqrt(len(fiber)), atol=1e-12)


def test_block_overlap_formula_exhaustive():
    rng = np.random.default_rng(1)
    fam = trapdoor_family()
    key, _ = fam.sample(rng)
    images = {fam.eval(key, x) for x in fam.domain.values()}
    for y in images:
        a0, a1 = fiber_split(fam, key, y)
        want = (a0 - a1) / (a0 + a1)
        assert block_overlap(fam, key, y) == pytest.approx(want, abs=1e-12)


def test_open_honest_and_cross():
    rng = np.random.default_rng(2)
    fam = balanced_family()
    for b in (0, 1):
        pair = commit(fam, b, 4, rng)
        assert open_accept_prob(pair, b) == pytest.approx(1.0, abs=1e-10)
        # manual product of per-block overlaps
        want = 1.0
        for y in pair.images:
            want *= block_overlap(fam, pair.key, y) ** 2
        assert open_accept_prob(pair, 1 - b) == pytest.approx(want, abs=1e-9)
        assert open_verify(pair, b, np.random.default_rng(3))


def test_open_verify_needs_a_generator():
    pair = commit(balanced_family(), 0, 2, np.random.default_rng(2))
    with pytest.raises(TypeError):
        open_verify(pair, 0)
    runs = [open_verify(pair, 1, np.random.default_rng(9)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_cross_open_bounded_by_balance():
    rng = np.random.default_rng(3)
    fam = trapdoor_family()
    report = balance_estimate(fam, delta=None, trials=80,
                              rng=np.random.default_rng(4))
    reps = 5
    for seed in range(10):
        pair = commit(fam, 0, reps, np.random.default_rng(seed))
        cross = open_accept_prob(pair, 1)
        ratios = [abs(block_overlap(fam, pair.key, y)) for y in pair.images]
        if all(r <= 1 - report.delta_hat + 1e-12 for r in ratios):
            assert cross <= (1 - report.delta_hat) ** (2 * reps) + 1e-9


def test_tampered_block_changes_cross_behavior():
    rng = np.random.default_rng(5)
    fam = balanced_family()
    pair = commit(fam, 0, 3, rng)
    flipped = qsim.apply_phase_fn(
        pair.blocks[0], "X",
        lambda xr: -1.0 if fam.measure(pair.key, fam.domain.from_register(
            xr if isinstance(xr, tuple) else (xr,))) else 1.0)
    pair.blocks[0] = flipped
    # block 0 now opens as bit 1: the honest-open product drops to 0,
    # recomputed exactly
    assert open_accept_prob(pair, 0) == pytest.approx(0.0, abs=1e-12)
    one_side = block_overlap(fam, pair.key, pair.images[1]) ** 2 \
        * block_overlap(fam, pair.key, pair.images[2]) ** 2
    assert open_accept_prob(pair, 1) == pytest.approx(one_side, abs=1e-9)


def test_commit_delete_verifies_100_seeds():
    fam = balanced_family()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pair = commit(fam, seed % 2, 3, rng)
        pis = pvd_delete(pair, pair.family, rng)
        assert commit_ver(fam, pair.key, pair.images, pis)


def test_commit_ver_rejects_wrong_block():
    rng = np.random.default_rng(6)
    fam = balanced_family()
    pair = commit(fam, 0, 3, rng)
    pis = pvd_delete(pair, pair.family, rng)
    bad = list(pis)
    bad[1] = next(x for x in fam.domain.values()
                  if fam.eval(pair.key, x) != pair.images[1])
    assert not commit_ver(fam, pair.key, pair.images, bad)
    assert not commit_ver(fam, pair.key, pair.images, pis[:-1])


def test_post_deletion_view_identical_across_bits():
    # exact joint law of (y_i, x_i) per block: phases have unit modulus
    fam = balanced_family()
    key, _ = fam.sample(np.random.default_rng(7))
    total = fam.domain.size
    no_states = np.zeros((0, 0), dtype=np.complex128)
    views = {}
    for b in (0, 1):
        p, label = [], []
        ys = sorted({fam.eval(key, x) for x in fam.domain.values()}, key=repr)
        for j, y in enumerate(ys):
            fiber = fam.fiber(key, y)
            py = len(fiber) / total
            block = hashfam.fiber_state(fam, key, y, signed_bit=b)
            probs = qsim.marginal_probs(block, "X")
            for x in fiber:
                i = block.layout.value_index("X", fam.domain.to_register(x))
                p.append(py * probs[i])
                label.append(j * block.layout.dim + i)  # the view (y, x)
        views[b] = qsim.Ensemble.from_columns(p, label, -1, no_states)
    assert qsim.ensemble_trace_distance(views[0], views[1]) <= 1e-10


# --- PKE with PVD -------------------------------------------------------

def test_pvd_keygen_calibration_midpoint():
    fam = trapdoor_family()
    keys = pvd_keygen(fam, np.random.default_rng(8), reps=6)
    p0, p1, c = calibrate_recover(fam, keys.key)
    assert p0 == 1.0
    assert c == pytest.approx((p0 + p1) / 2)
    assert keys.recover_threshold == pytest.approx(c)


def test_calibrate_recover_reads_the_domain_table():
    fam = trapdoor_family()
    key, _ = fam.sample(np.random.default_rng(8))
    calls = []
    evalf = fam.eval
    fam.eval = lambda k, x: calls.append(x) or evalf(k, x)
    p0, p1, _ = calibrate_recover(fam, key)
    assert calls == []
    assert p0 == 1.0 and 0.0 <= p1 < 1.0


def test_calibrate_recover_sums_images_in_order_of_first_appearance():
    # the threshold is compared against zeros / reps, so it must not move in
    # the last digit: p1 is folded over images as a domain walk first meets them
    for fam in (balanced_family(), trapdoor_family()):
        for seed in range(10):
            key, _ = fam.sample(np.random.default_rng(seed))
            counts = {}
            for x in fam.domain.values():
                y = fam.eval(key, x)
                counts[y] = counts.get(y, 0) + 1
            p1 = 0.0
            for y, c in counts.items():
                p1 += (c / sum(counts.values())) * block_overlap(fam, key, y) ** 2
            assert calibrate_recover(fam, key) == (1.0, p1, (1.0 + p1) / 2)


def test_recover_is_projective_two_outcome():
    rng = np.random.default_rng(9)
    fam = trapdoor_family()
    keys = pvd_keygen(fam, rng, reps=4)
    ct = pvd_encrypt(keys, 1, rng)
    y, block = ct.images[0], ct.blocks[0]
    target = hashfam.superposition_invert(fam, keys.key, keys.trapdoor, y)
    p_succ = qsim.project_prob(block, "X", target)
    bit0, post0 = recover(keys, y, block.copy(), np.random.default_rng(1))
    # outcome probabilities complement each other and post-states are the
    # orthogonal decomposition
    assert 0.0 <= p_succ <= 1.0
    got = {0: None, 1: None}
    for seed in range(40):
        bit, post = recover(keys, y, block.copy(), np.random.default_rng(seed))
        got[bit] = post
        if all(v is not None for v in got.values()):
            break
    if got[0] is not None and got[1] is not None:
        assert abs(np.vdot(got[0].amps, got[1].amps)) < 1e-9


def test_pvd_b0_decrypts_zero_always():
    rng = np.random.default_rng(10)
    fam = trapdoor_family()
    keys = pvd_keygen(fam, rng, reps=6)
    for seed in range(50):
        ct = pvd_encrypt(keys, 0, np.random.default_rng(seed))
        assert pvd_decrypt(keys, ct, np.random.default_rng(seed + 1)) == 0


def test_pvd_b1_on_exactly_balanced_family():
    # balanced fibers: overlap 0, so Recover->0 never fires on b=1 blocks
    rng = np.random.default_rng(11)
    fam = fdelta_family(toy_regular_owf(6, 2))
    keys = pvd_keygen(fam, rng, reps=8)
    assert keys.recover_threshold == pytest.approx(0.5)
    ok = 0
    for seed in range(100):
        ct = pvd_encrypt(keys, 1, np.random.default_rng(seed))
        ok += pvd_decrypt(keys, ct, np.random.default_rng(1000 + seed)) == 1
    assert ok / 100 >= 0.99


def test_pvd_delete_always_verifies():
    rng = np.random.default_rng(12)
    fam = trapdoor_family()
    keys = pvd_keygen(fam, rng, reps=5)
    for seed in range(50):
        ct = pvd_encrypt(keys, seed % 2, np.random.default_rng(seed))
        pis = pvd_delete(ct, fam, np.random.default_rng(seed + 7))
        assert pvd_verify(fam, keys.key, ct.images, pis)


def test_pvd_requires_trapdoor_and_measurement():
    with pytest.raises(ValueError):
        pvd_keygen(toy_regular_owf(6, 2), np.random.default_rng(0))  # no M
    no_inv = hashfam.HashFamily(
        name="no-inv", domain=hashfam.BitDomain(4), range_bits=3,
        sample=lambda rng: (None, None), eval=lambda k, x: x >> 1,
        measure=lambda k, x: x & 1)
    with pytest.raises(ValueError):
        pvd_keygen(no_inv, np.random.default_rng(0))


# --- hybrid compiler -----------------------------------------------------

def test_hybrid_roundtrip_100_trials():
    rng = np.random.default_rng(13)
    fam = trapdoor_family()
    base = pvd_keygen(fam, rng, reps=6)
    enc, dec = stream_cipher(42)
    scheme = hybrid_compile(base, enc, dec)
    ok = 0
    for t in range(100):
        b = t % 2
        ct = scheme.encrypt(b, rng)
        ok += scheme.decrypt(ct, rng) == b
    assert ok == 100


def test_hybrid_deletion_ignores_aux():
    rng = np.random.default_rng(14)
    fam = trapdoor_family()
    base = pvd_keygen(fam, rng, reps=4)
    enc, dec = stream_cipher(7)
    scheme = hybrid_compile(base, enc, dec)
    ct = scheme.encrypt(1, rng)
    ct.aux_ct = b"corrupted garbage"  # deletion path never touches it
    pis = scheme.delete(ct, rng)
    assert scheme.verify(ct.images, pis)


def test_hybrid_aux_trapdoor_inverts_like_the_key_trapdoor():
    rng = np.random.default_rng(16)
    fam = trapdoor_family()
    base = pvd_keygen(fam, rng, reps=2)
    enc, dec = stream_cipher(3)
    td = pickle.loads(dec(hybrid_compile(base, enc, dec).encrypt(0, rng).aux_ct))
    inverted = 0
    for y in range(1 << fam.range_bits):
        pre = fam.invert(base.key, td, y)
        assert pre == fam.invert(base.key, base.trapdoor, y)
        inverted += bool(pre)
    assert inverted > 0


def test_hybrid_accepts_external_encryptor_callbacks():
    rng = np.random.default_rng(15)
    fam = trapdoor_family()
    base = pvd_keygen(fam, rng, reps=4)
    log = []

    def enc(data: bytes) -> bytes:
        log.append("enc")
        return bytes(reversed(data))

    def dec(data: bytes) -> bytes:
        log.append("dec")
        return bytes(reversed(data))

    scheme = hybrid_compile(base, enc, dec)
    ct = scheme.encrypt(0, rng)
    assert scheme.decrypt(ct, rng) == 0
    assert log == ["enc", "dec"]
