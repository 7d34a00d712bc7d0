import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from deletia import configs, hashfam, pvdcore, qsim
from deletia.hashfam import (
    balance_estimate,
    chor_goldreich_family,
    compose_balanced,
    fdelta_family,
    fiber_split,
    toy_regular_owf,
)
from deletia.pvdcore import (
    calibrate_recover,
    commit,
    commit_ver,
    open_accept_prob,
    pvd_decrypt,
    pvd_delete,
    pvd_encrypt,
    pvd_keygen,
    pvd_verify,
)
import pvdcore_ref
from pvdcore_ref import block_overlap, recover
from qsim_ref import apply_phase_fn
from test_games import table_family


def balanced_family():
    return fdelta_family(toy_regular_owf(6, 2))


def trapdoor_family():
    comp = compose_balanced(toy_regular_owf(8, 2), chor_goldreich_family(6, 6, 4))
    return fdelta_family(comp)


def test_commit_b0_blocks_are_positive_uniform():
    rng = np.random.default_rng(0)
    fam = balanced_family()
    pair = commit(fam, 0, 3, rng)
    assert pair.blocks.shape == (3, fam.domain.size)
    for y, block in zip(pair.images, pair.blocks):
        fiber = fam.fiber(pair.key, y)
        nz = block[np.abs(block) > 1e-12]
        assert len(nz) == len(fiber)
        np.testing.assert_allclose(nz, 1 / math.sqrt(len(fiber)), atol=1e-12)


def test_block_overlap_formula_exhaustive():
    rng = np.random.default_rng(1)
    fam = trapdoor_family()
    key, _ = fam.sample(rng)
    images = {fam.eval(key, x) for x in range(fam.domain.size)}
    for y in images:
        a0, a1 = fiber_split(*fam.tabulate(key), y)
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
    t = fam.table(pair.key)
    phase = np.where(t.mvals != 0, -1.0, 1.0)
    layout = qsim.RegisterLayout([("X", (2,) * fam.domain.bits)])
    flipped = apply_phase_fn(qsim.QState(layout, pair.blocks[0]), "X", phase)
    pair.blocks[0] = flipped.amps
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
    bad[1] = next(x for x in range(fam.domain.size)
                  if fam.eval(pair.key, x) != pair.images[1])
    assert not commit_ver(fam, pair.key, pair.images, bad)
    assert not commit_ver(fam, pair.key, pair.images, pis[:-1])


def test_commit_ver_rejects_certificates_outside_the_domain():
    fam = balanced_family()
    pair = commit(fam, 0, 6, np.random.default_rng(3))
    # each negative int would index the toy table from its end at a preimage's row
    aliases = [-48, -60, -28, -60, -28, -56]
    assert not commit_ver(fam, pair.key, pair.images, aliases)
    assert not commit_ver(fam, pair.key, pair.images, [64] * 6)
    assert not pvd_verify(fam, pair.key, pair.images, aliases)
    assert commit_ver(fam, pair.key, pair.images, [x + 64 for x in aliases])


def test_post_deletion_view_identical_across_bits():
    # exact joint law of (y_i, x_i) per block: phases have unit modulus
    fam = balanced_family()
    key, _ = fam.sample(np.random.default_rng(7))
    total = fam.domain.size
    no_states = np.zeros((0, 0), dtype=np.complex128)
    views = {}
    for b in (0, 1):
        p, label = [], []
        ys = sorted({fam.eval(key, x) for x in range(fam.domain.size)}, key=repr)
        for j, y in enumerate(ys):
            fiber = fam.fiber(key, y)
            py = len(fiber) / total
            (block,) = hashfam.fiber_state(fam, key, [y], signed_bit=b)
            probs = np.abs(block) ** 2
            for x in fiber:  # a bit domain's value is its register index
                p.append(py * probs[x])
                label.append(j * len(block) + x)  # the view (y, x)
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
            for x in range(fam.domain.size):
                y = fam.eval(key, x)
                counts[y] = counts.get(y, 0) + 1
            p1 = 0.0
            for y, c in counts.items():
                p1 += (c / sum(counts.values())) * block_overlap(fam, key, y) ** 2
            assert calibrate_recover(fam, key) == (1.0, p1, (1.0 + p1) / 2)


def test_calibrate_recover_in_chunks_matches_the_per_image_fold():
    # 512 images of 4 096 values: the blocks are stacked 16 rows at a time
    fam = fdelta_family(toy_regular_owf(12, 2))
    key, _ = fam.sample(np.random.default_rng(2))
    assert len(fam.table(key).ys) * fam.domain.size > 16 * pvdcore._CALIBRATE_CELLS
    assert calibrate_recover(fam, key) == pvdcore_ref.calibrate_recover(fam, key)


def test_recover_is_projective_two_outcome():
    rng = np.random.default_rng(9)
    fam = trapdoor_family()
    keys = pvd_keygen(fam, rng, reps=4)
    ct = pvd_encrypt(keys, 1, rng)
    layout = qsim.RegisterLayout([("X", (2,) * fam.domain.bits)])
    y, block = ct.images[0], qsim.QState(layout, ct.blocks[0])
    (target,) = hashfam.superposition_invert(fam, keys.key, keys.trapdoor, [y])
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
        sample=lambda rng: (None, None),
        tabulate=lambda k: (np.arange(16) >> 1, np.arange(16) & 1), measured=True)
    with pytest.raises(ValueError):
        pvd_keygen(no_inv, np.random.default_rng(0))



@pytest.mark.parametrize("reps", [0, -2, pvdcore.MAX_REPS + 1])
def test_pvd_keygen_rejects_reps_outside_1_to_max(reps):
    # commit makes the same check; zero blocks would divide by zero in
    # pvd_decrypt, and a negative count would verify an empty ciphertext
    with pytest.raises(ValueError, match=f"reps must be 1..{pvdcore.MAX_REPS}, got {reps}"):
        pvd_keygen(trapdoor_family(), np.random.default_rng(0), reps=reps)


@pytest.mark.parametrize("b", [2, -1])
def test_out_of_range_bits_raise_by_name(b):
    # a bit outside {0, 1} is an error, not a bit mod 2
    fam = balanced_family()
    with pytest.raises(ValueError, match=f"bit b must be 0 or 1, got {b}"):
        commit(fam, b, 2, np.random.default_rng(0))
    pair = commit(fam, 1, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"bit claim_b must be 0 or 1, got {b}"):
        open_accept_prob(pair, b)
    with pytest.raises(ValueError, match=f"bit signed_bit must be 0 or 1, got {b}"):
        hashfam.fiber_state(fam, pair.key, pair.images[:1], signed_bit=b)
    keys = pvd_keygen(trapdoor_family(), np.random.default_rng(0), reps=2)
    with pytest.raises(ValueError, match=f"bit b must be 0 or 1, got {b}"):
        pvd_encrypt(keys, b, np.random.default_rng(0))


# --- the batched blocks against the per-block protocol ---------------------

def roundtrip_family():
    """``pvd roundtrip``'s family: fibers of several sizes, split unevenly."""
    comp = compose_balanced(toy_regular_owf(6, 2), chor_goldreich_family(6, 4, 3))
    return fdelta_family(comp)


def _amps(blocks) -> np.ndarray:
    return np.array([b.amps for b in blocks])


def _check_lifecycle(fam, seed: int, reps: int, case):
    """Commit, open, delete and verify, then keygen, encrypt, decrypt,
    delete and verify, batched and per block from the same seeds: equal
    images, amplitudes, probabilities, bits, post-states and certificates,
    and each generator left in the same state."""
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    b = seed % 2
    pair, ref = commit(fam, b, reps, got), pvdcore_ref.commit(fam, b, reps, want)
    assert pair.images == ref.images and np.array_equal(pair.blocks, _amps(ref.blocks)), case
    for claim in (0, 1):
        assert open_accept_prob(pair, claim) == pvdcore_ref.open_accept_prob(ref, claim), case
    pis = pvd_delete(pair, fam, got)
    assert pis == pvdcore_ref.pvd_delete(ref, fam, want), case
    assert np.array_equal(pair.blocks, _amps(ref.blocks)), case
    outside = next((x for x in range(fam.domain.size)
                    if fam.eval(pair.key, x) != pair.images[-1]), -1)
    for cert in (pis, pis[:-1] + [outside], pis[:-1] + [fam.domain.size], pis[:-1]):
        assert commit_ver(fam, pair.key, pair.images, cert) == \
            pvdcore_ref.commit_ver(fam, pair.key, pair.images, cert), case
    keys, ref_keys = pvd_keygen(fam, got, reps=reps), pvdcore_ref.pvd_keygen(fam, want, reps=reps)
    assert calibrate_recover(fam, keys.key) == pvdcore_ref.calibrate_recover(fam, keys.key), case
    assert keys.recover_threshold == ref_keys.recover_threshold, case
    for bit in (0, 1):
        ct, ref_ct = pvd_encrypt(keys, bit, got), pvdcore_ref.pvd_encrypt(ref_keys, bit, want)
        assert ct.images == ref_ct.images and np.array_equal(ct.blocks, _amps(ref_ct.blocks)), case
        assert pvd_decrypt(keys, ct, got) == pvdcore_ref.pvd_decrypt(ref_keys, ref_ct, want), case
        assert np.array_equal(ct.blocks, _amps(ref_ct.blocks)), case
        pis = pvd_delete(ct, fam, got)
        assert pis == pvdcore_ref.pvd_delete(ref_ct, fam, want), case
        assert np.array_equal(ct.blocks, _amps(ref_ct.blocks)), case
        assert pvd_verify(fam, keys.key, ct.images, pis), case
    assert got.random() == want.random(), case


@pytest.mark.parametrize("name", ["balanced", "trapdoor", "roundtrip"])
def test_batched_blocks_match_the_per_block_protocol(name):
    fam = {"balanced": balanced_family, "trapdoor": trapdoor_family,
           "roundtrip": roundtrip_family}[name]()
    for reps in range(1, pvdcore.MAX_REPS + 1):
        for seed in range(6):
            _check_lifecycle(fam, 100 * reps + seed, reps, (name, reps, seed))


def _fiber_family(images: np.ndarray, mvals: np.ndarray) -> hashfam.HashFamily:
    """A one-key measured family on the table ``images``, inverted by
    reading each fiber off the table."""
    fam = table_family(images, mvals)
    return dataclasses.replace(fam, invert=lambda key, td, y: fam.fiber(key, y))


@given(st.data(), st.integers(1, 5), st.integers(1, pvdcore.MAX_REPS), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_batched_blocks_match_the_per_block_protocol_on_any_table(data, bits, reps, seed):
    """Fibers of any sizes, split by M in any way, and every lambda: every
    summation order of the overlaps and norms."""
    n = 1 << bits
    images = np.array(data.draw(st.lists(st.integers(0, data.draw(st.integers(0, n - 1))),
                                         min_size=n, max_size=n)))
    mvals = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    _check_lifecycle(_fiber_family(images, mvals), seed, reps, (images, mvals))


def test_block_stacks_refuse_an_image_without_a_fiber():
    fam = balanced_family()
    key, td = fam.sample(np.random.default_rng(0))
    y = fam.table(key).ys[0]
    with pytest.raises(ValueError, match="empty fiber for 99"):
        hashfam.fiber_state(fam, key, [y, 99])
    with pytest.raises(ValueError, match="empty preimage set"):
        hashfam.superposition_invert(fam, key, td, [y, 99])


# --- the exact decryption error ------------------------------------------

def _wrong_given_b1(keys: pvdcore.PVDKeys) -> tuple[Fraction, Fraction]:
    """(p1, Pr[Dec = 0 | b = 1]) from the key's table: p1 = sum_y
    (A0 - A1)^2 / (D F), and the error is Pr[Bin(reps, p1) zeros decide 0],
    the zero counts k with k / reps above the shipped threshold."""
    t = keys.family.table(keys.key)
    d = len(t.images)
    p1 = sum(Fraction((a0 - a1) ** 2, d * (a0 + a1))
             for a0, a1 in (fiber_split(t.images, t.mvals, y) for y in t.ys))
    n = keys.reps
    wrong = sum(math.comb(n, k) * p1 ** k * (1 - p1) ** (n - k)
                for k in range(n + 1) if k / n > keys.recover_threshold)
    return p1, wrong


def _binomial_range(n: int, p: Fraction, alpha: float = 1e-6) -> tuple[float, float]:
    """The central range of Bin(n, p) that a count leaves with probability
    at most alpha."""
    return stats.binom.interval(1 - alpha, n, float(p))


def test_batched_decryption_matches_the_exact_error():
    """On ``pvd roundtrip``'s family and seed-0 key, b = 1 blocks recover
    to 0 at the rate p1 and b = 1 decrypts wrongly at Pr[Bin(8, p1) > 8c],
    both exact Fractions from the key's table; seeded decryptions stay
    inside the binomial laws' 1e-6 ranges."""
    keys = pvd_keygen(roundtrip_family(), np.random.default_rng(0), reps=configs.PVD_REPS)
    p1, wrong = _wrong_given_b1(keys)
    assert (p1, wrong) == (Fraction(37, 210),
                           Fraction(639755350777439, 108065312460000000))
    assert abs(calibrate_recover(keys.family, keys.key)[1] - p1) <= 1e-15
    rng, trials, zeros, errors = np.random.default_rng(1), 1500, 0, 0
    for _ in range(trials):
        ct = pvd_encrypt(keys, 1, rng)
        target = hashfam.superposition_invert(keys.family, keys.key, keys.trapdoor, ct.images)
        errors += pvd_decrypt(keys, ct, rng) == 0
        # outcome 0 leaves a block on its target, outcome 1 orthogonal to it
        overlaps = np.einsum("ij,ij->i", target.conj(), ct.blocks)
        zeros += int(np.count_nonzero(np.abs(overlaps) > 0.5))
    lo, hi = _binomial_range(trials * keys.reps, p1)
    assert lo <= zeros <= hi, (zeros, lo, hi)
    lo, hi = _binomial_range(trials, wrong)
    assert lo <= errors <= hi, (errors, lo, hi)


def test_criterion_10_family_decrypts_b1_without_error():
    # every fiber of fdelta(toy_regular_owf(6, 2)) splits evenly: p1 = 0, so
    # no b = 1 block ever recovers to 0
    keys = pvd_keygen(balanced_family(), np.random.default_rng(0), reps=8)
    assert _wrong_given_b1(keys) == (0, 0)
