import dataclasses
import math
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from deletia import hashfam, qsim
from deletia.gf2k import GF2k
from deletia.hashfam import (
    BitDomain,
    HashFamily,
    balance_estimate,
    brute_force_tcr_adversary,
    chor_goldreich_family,
    compose_balanced,
    fdelta_family,
    fiber_split,
    garbage_tcr_adversary,
    honest_tcr_adversary,
    superposition_invert,
    tcr_game,
    toy_regular_owf,
    two_to_one_family,
)
from deletia.zqcore import structured_ajtai_keygen
import pvdcore_ref
from qsim_ref import value_index
from test_games import table_family


def identity_bits_family(bits: int) -> HashFamily:
    """f(x) = x on {0,1}^bits (used to pin the f_Delta examples)."""
    dom = BitDomain(bits)
    return HashFamily(
        name="identity", domain=dom, range_bits=bits,
        sample=lambda rng: (None, None),
        tabulate=lambda key: (np.arange(dom.size), None),
        invert=lambda key, td, y: [y],
        descriptor={"family": "identity"},
    )


def reference(desc: dict, key, x) -> tuple:
    """(h(x), M[h](x) or None) one value at a time, from the family's
    definition rather than its table."""
    kind = desc["family"]
    if kind == "identity":
        return x, None
    if kind == "two-to-one":
        return x >> 1, None
    if kind == "toy-regular-owf":
        return int(key[x >> desc["r"]]), None
    if kind == "chor-goldreich":
        shift = desc["field_bits"] - desc["out_bits"]
        return GF2k(desc["field_bits"]).poly_eval(key, x) >> shift, None
    if kind == "compose":
        okey, ukey = key
        return reference(desc["uhash"], ukey, reference(desc["owf"], okey, x)[0])
    if kind == "fdelta":
        bkey, delta = key
        z = reference(desc["base"], bkey, x)[0]
        return min(z, z ^ delta), int(z > z ^ delta)
    raise ValueError(kind)


def big_endian(x: int, bits: int) -> tuple[int, ...]:
    """The register digits of bit string x, most significant first."""
    return tuple((x >> (bits - 1 - i)) & 1 for i in range(bits))


# --- structured Ajtai keygen (zqcore) -----------------------------------

def test_structured_ajtai_trapdoor():
    # 100 keys at once, each the key its generator draws alone
    rngs = [np.random.default_rng(seed) for seed in range(100)]
    keys, trapdoors = structured_ajtai_keygen(2, 4, 13, rngs)
    assert keys.shape == (100, 2, 4) and trapdoors.shape == (100, 4)
    for seed, (A, t) in enumerate(zip(keys, trapdoors)):
        assert ((A @ t) % 13).tolist() == [0, 0]
        assert t[-1] == 1
        assert set(t[:-1].tolist()) <= {0, 12}
        (one,), (one_t,) = structured_ajtai_keygen(2, 4, 13, [np.random.default_rng(seed)])
        assert np.array_equal(one, A) and np.array_equal(one_t, t)


def test_structured_ajtai_last_column_nearly_uniform():
    # leftover-hash heuristic at m > 2n log q: chi^2 should not reject
    q, m, n = 5, 6, 1
    counts = Counter()
    for seed in range(2000):
        (A,), _ = structured_ajtai_keygen(n, m, q, [np.random.default_rng(seed)])
        counts[int(A[0, -1])] += 1
    obs = [counts[v] for v in range(q)]
    assert stats.chisquare(obs).pvalue > 1e-3


# --- toy regular OWF ---------------------------------------------------

def test_toy_regular_owf_exact_regularity():
    fam = toy_regular_owf(8, 2)
    rng = np.random.default_rng(0)
    key, td = fam.sample(rng)
    hist = Counter(fam.eval(key, x) for x in range(fam.domain.size))
    assert set(hist.values()) == {4}  # point mass at 2^r
    for y in hist:
        pre = fam.invert(key, td, y)
        assert len(pre) == 4
        assert all(fam.eval(key, x) == y for x in pre)


def test_toy_regular_owf_inverse_matches_dict_reference():
    for m, r, range_bits in ((6, 2, None), (5, 1, 6), (6, 1, 8)):
        fam = toy_regular_owf(m, r, range_bits)
        ell = fam.range_bits
        for seed in range(4):
            table, td = fam.sample(np.random.default_rng(seed))
            draw = np.random.default_rng(seed).permutation(1 << ell)[: 1 << (m - r)]
            assert np.array_equal(table, draw)
            ref = {int(v): u for u, v in enumerate(table)}
            unpickled = pickle.loads(pickle.dumps(td))
            for y in range(-2, (1 << ell) + 2):
                u = ref.get(y)
                want = [] if u is None else [(u << r) | j for j in range(1 << r)]
                assert fam.invert(table, td, y) == want, (m, r, range_bits, y)
                assert fam.invert(table, unpickled, np.int64(y)) == want


def test_toy_regular_owf_resampling_is_deterministic():
    fam = toy_regular_owf(6, 1)
    k1, _ = fam.sample(np.random.default_rng(7))
    k2, _ = fam.sample(np.random.default_rng(7))
    assert np.array_equal(k1, k2)


# --- f_Delta -----------------------------------------------------------

def test_fdelta_lexicographic_example():
    # Delta = 01, f(x) = 10: eval = 10 (since 10 < 11), predicate = 0
    base = identity_bits_family(2)
    fam = fdelta_family(base)
    key = (None, 0b01)
    assert fam.eval(key, 0b10) == 0b10
    assert fam.measure(key, 0b10) == 0


def test_fdelta_collision_law():
    base = identity_bits_family(3)
    fam = fdelta_family(base)
    for delta in range(1, 8):
        key = (None, delta)
        for x in range(8):
            xp = x ^ delta  # f(x) xor f(xp) = delta for the identity base
            assert fam.eval(key, x) == fam.eval(key, xp)
            assert fam.measure(key, x) != fam.measure(key, xp)


def test_fdelta_merges_every_image_pair():
    fam = fdelta_family(toy_regular_owf(8, 2))
    rng = np.random.default_rng(1)
    key, _ = fam.sample(rng)
    (base_key, delta) = key
    base = toy_regular_owf(8, 2)
    outputs = {}
    for x in range(256):
        z = base.eval(base_key, x)
        outputs.setdefault(min(z, z ^ delta), set()).add(z)
    for out, pair in outputs.items():
        assert pair <= {out, out ^ delta}
        got = {base.eval(base_key, x) for x in range(256)
               if fam.eval(key, x) == out}
        assert got == pair


def test_fdelta_predicate_splits_colliding_pairs_exhaustively():
    fam = fdelta_family(toy_regular_owf(6, 2))
    key, _ = fam.sample(np.random.default_rng(3))
    base_key, delta = key
    base = toy_regular_owf(6, 2)
    for x in range(64):
        for xp in range(64):
            if x == xp:
                continue
            fx, fxp = base.eval(base_key, x), base.eval(base_key, xp)
            if fam.eval(key, x) == fam.eval(key, xp) and fx != fxp:
                assert fam.measure(key, x) != fam.measure(key, xp)


# --- Chor-Goldreich ----------------------------------------------------

def test_cg_degree_one_unique_preimage():
    fam = chor_goldreich_family(2, 4, 4)  # n = k: full field output
    from deletia.gf2k import GF2k

    F = GF2k(4)
    key = (5, 3)  # p(x) = 5 + 3x
    inv3 = next(a for a in range(F.size) if F.mul(3, a) == 1)
    for y in range(16):
        pre = fam.invert(key, None, y)
        assert pre == [F.mul(y ^ 5, inv3)]


def test_cg_t_universality_monte_carlo():
    # the two points by the arithmetic of the family's tabulate, since
    # eval would tabulate all 2^k values of each fresh key
    t, k, n = 2, 8, 4
    fam = chor_goldreich_family(t, k, n)
    gf = GF2k(k)
    rng = np.random.default_rng(0)
    x1, x2, y1, y2 = 17, 200, 5, 11
    hits = 0
    trials = 100_000
    for _ in range(trials):
        key, _ = fam.sample(rng)
        if gf.poly_eval(key, x1) >> (k - n) == y1 and gf.poly_eval(key, x2) >> (k - n) == y2:
            hits += 1
    p = 2.0 ** (-n * t)
    sd = math.sqrt(p * (1 - p) * trials)
    assert abs(hits - p * trials) <= 3 * sd


def test_cg_superposition_invert_support_exhaustive():
    fam = chor_goldreich_family(3, 8, 5)
    rng = np.random.default_rng(2)
    key, td = fam.sample(rng)
    image_counts = Counter(fam.eval(key, x) for x in range(256))
    y = next(iter(image_counts))
    pre = set(fam.invert(key, td, y))
    assert pre == {x for x in range(256) if fam.eval(key, x) == y}
    lay = qsim.RegisterLayout([("X", (2,) * fam.domain.bits)])
    state = qsim.QState(lay, superposition_invert(fam, key, td, [y])[0])
    probs = qsim.marginal_probs(state, "X")
    for x in range(256):
        p = probs[value_index(lay, "X", big_endian(x, 8))]
        if x in pre:
            assert p == pytest.approx(1 / len(pre), abs=1e-10)
        else:
            assert p == pytest.approx(0.0, abs=1e-12)


def test_cg_empty_preimage_raises():
    fam = chor_goldreich_family(1, 4, 2)  # constant polynomial
    key = (7,)  # p(x) = 7 always: output 7 >> 2 = 1
    assert fam.invert(key, None, 1) == list(range(16))
    with pytest.raises(ValueError):
        superposition_invert(fam, key, None, [1, 2])


# --- composition and balance -------------------------------------------

def test_compose_eval_bit_for_bit():
    owf = toy_regular_owf(8, 2)
    uh = chor_goldreich_family(4, 6, 4)
    comp = compose_balanced(owf, uh)
    rng = np.random.default_rng(5)
    key, _ = comp.sample(rng)
    okey, ukey = key
    for x in range(256):
        assert comp.eval(key, x) == uh.eval(ukey, owf.eval(okey, x))


def test_compose_domain_mismatch_rejected():
    with pytest.raises(ValueError):
        compose_balanced(toy_regular_owf(8, 2), chor_goldreich_family(4, 5, 4))
    with pytest.raises(ValueError):
        compose_balanced(toy_regular_owf(8, 2), chor_goldreich_family(4, 6, 6))


def test_balance_exactly_regular_plus_bijective_uhash():
    # bijective base through f_Delta: every merged fiber splits evenly
    fam = fdelta_family(toy_regular_owf(10, 3))
    rng = np.random.default_rng(0)
    report = balance_estimate(fam, delta=0.5, trials=60, rng=rng)
    assert report.fraction_ok == 1.0
    assert all(r == 0.0 for r in report.ratios)
    key, _ = fam.sample(rng)
    y = fam.eval(key, 0)
    a0, a1 = fiber_split(*fam.tabulate(key), y)
    assert a0 == a1 == 8  # both merged images carry 2^r preimages


def test_balance_composed_family():
    comp = compose_balanced(toy_regular_owf(10, 3), chor_goldreich_family(6, 7, 5))
    fam = fdelta_family(comp)
    rng = np.random.default_rng(1)
    report = balance_estimate(fam, delta=None, trials=120, rng=rng)
    assert report.fraction_ok >= 0.99


def test_balance_degenerate_constant_uhash():
    owf = toy_regular_owf(6, 2)
    const = HashFamily(
        name="const", domain=BitDomain(4), range_bits=2,
        sample=lambda rng: (None, None), tabulate=lambda key: (np.zeros(16, dtype=int), None))
    comp = compose_balanced(owf, const)
    fam = fdelta_family(comp)
    rng = np.random.default_rng(2)
    report = balance_estimate(fam, delta=0.25, trials=40, rng=rng)
    assert report.fraction_ok == 0.0  # one-sided fibers: ratio reaches 1
    assert max(report.ratios) == 1.0


def test_balance_singleton_side_counts_as_violation():
    # injective base into a larger range: merged pairs usually miss one side
    fam = fdelta_family(toy_regular_owf(6, 0, range_bits=7))
    rng = np.random.default_rng(3)
    report = balance_estimate(fam, delta=0.3, trials=80, rng=rng)
    assert any(r == 1.0 for r in report.ratios)
    assert report.fraction_ok < 1.0


def test_balance_requires_measurement():
    with pytest.raises(ValueError):
        balance_estimate(toy_regular_owf(6, 2), 0.5, 5, np.random.default_rng(0))


@pytest.mark.parametrize("trials", [0, -1])
def test_balance_requires_a_trial(trials):
    fam = fdelta_family(toy_regular_owf(6, 2))
    with pytest.raises(ValueError, match="trials"):
        balance_estimate(fam, None, trials, np.random.default_rng(0))


# --- TCR game ----------------------------------------------------------

def test_tcr_honest_adversary_never_wins():
    fam = fdelta_family(toy_regular_owf(6, 2))
    rngs = [np.random.default_rng(seed) for seed in range(40)]
    assert not any(tr.win for tr in tcr_game(fam, honest_tcr_adversary, rngs))


def test_tcr_garbage_adversary_never_wins():
    fam = fdelta_family(toy_regular_owf(6, 2))
    rngs = [np.random.default_rng(seed) for seed in range(20)]
    assert not any(tr.win for tr in tcr_game(fam, garbage_tcr_adversary, rngs))


def test_tcr_brute_force_wins_half_on_balanced_family():
    fam = fdelta_family(toy_regular_owf(6, 2))
    wins = 0
    trials = 2000
    rng = np.random.default_rng(0)
    for _ in range(trials):
        wins += tcr_game(fam, brute_force_tcr_adversary, [rng])[0].win
    sd = math.sqrt(trials * 0.25)
    assert abs(wins - trials / 2) <= 3 * sd


def test_tcr_identity_measurement_win_is_distinct_preimage():
    fam = two_to_one_family(3)
    rng = np.random.default_rng(0)
    wins = sum(tcr_game(fam, brute_force_tcr_adversary, [rng])[0].win
               for _ in range(400))
    # uniform preimage of a 2-to-1 image differs from the measured one w.p. 1/2
    assert abs(wins - 200) <= 3 * math.sqrt(400 * 0.25)


def test_tcr_aux_trapdoor_leak_enables_cross_fiber_preimages():
    fam = fdelta_family(toy_regular_owf(6, 2))
    calls = []

    def leak(td):
        calls.append(td)
        return td

    def aux_adversary(family, ch, rngs, aux):
        # unbounded stage with the leaked trapdoor: walk the other side
        answers = []
        for key, mvals, y, x, td in zip(ch.keys, ch.mvals, ch.ys,
                                        qsim.measure_rows(ch.states, rngs)[0], aux):
            answers.append(next((w for w in family.invert(key, td, y)
                                 if mvals[w] != mvals[x]), None))
        return answers

    rngs = [np.random.default_rng(seed) for seed in range(50)]
    trs = tcr_game(fam, aux_adversary, rngs, aux=leak)
    assert len(calls) == 50  # aux callback invoked exactly once per run
    assert all(tr.win for tr in trs)  # balanced fibers always have the other side


def count_calls(fam: HashFamily, *names: str) -> Counter:
    """Wrap the family's per-value callables so that their calls are counted."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(fam, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        setattr(fam, name, counted)
    return calls


def test_tcr_game_reads_the_domain_table():
    # the challenger and the win check work on the runs' stacked key tables,
    # so no per-value callable is evaluated, answers included
    fam = fdelta_family(toy_regular_owf(6, 2))
    calls = count_calls(fam, "eval", "measure")
    trs = tcr_game(fam, brute_force_tcr_adversary,
                   [np.random.default_rng(seed) for seed in range(20)])
    assert all(tr.answer is not None for tr in trs)
    assert calls == {}


def test_tcr_answers_outside_the_domain_never_win():
    # x - 64 would index the toy table from its end, at x's own row
    fam = fdelta_family(toy_regular_owf(6, 2))

    def negative_alias(family, ch, rngs, aux):
        return [x - 64 for x in brute_force_tcr_adversary(family, ch, rngs, aux)]

    trs = tcr_game(fam, negative_alias, [np.random.default_rng(s) for s in range(20)])
    assert not any(tr.win for tr in trs)


def _check_tcr_batch(fam, adv_name: str, seeds, case) -> list:
    """One batch of TCR runs against the per-run game from the same seeds:
    equal (y, v, answer, win) and keys, the same handed registers bit for
    bit, and every generator's next draw equal. Returns the batch's
    transcripts."""
    handed, rngs = [], [np.random.default_rng(s) for s in seeds]

    def batched(family, ch, rngs, aux):
        handed.extend(ch.states)
        return hashfam.TCR_ADVERSARIES[adv_name](family, ch, rngs, aux)

    def per_run(family, key, y, state, rng, aux):
        handed.append(state.amps)
        return pvdcore_ref.TCR_ADVERSARIES[adv_name](family, key, y, state, rng, aux)

    got = tcr_game(fam, batched, rngs)
    for s, rng, tr, state in zip(seeds, rngs, got, handed[:len(got)]):
        ref_rng = np.random.default_rng(s)
        want = pvdcore_ref.tcr_game(fam, per_run, ref_rng)
        assert (tr.y, tr.v, tr.answer, tr.win) == (want.y, want.v, want.answer, want.win), \
            (case, s)
        assert np.array_equal(state, handed[-1]), (case, s)
        assert type(tr.answer) is type(want.answer) and type(tr.win) is bool, (case, s)
        assert pickle.dumps(tr.key) == pickle.dumps(want.key), (case, s)
        assert rng.random() == ref_rng.random(), (case, s)
    return got


@pytest.mark.parametrize("adv", sorted(hashfam.TCR_ADVERSARIES))
def test_batched_tcr_matches_the_per_run_game(adv):
    """The CLI's f_Delta family (a fresh key per run), an unmeasured 2-to-1
    family and an uneven composed f_Delta family, in batches of 1, 7 and 64
    runs."""
    families = {"fdelta-toy-6-2": fdelta_family(toy_regular_owf(6, 2)),
                "two-to-one-3": two_to_one_family(3),
                "compose": fdelta_family(compose_balanced(
                    toy_regular_owf(6, 2), chor_goldreich_family(6, 4, 3)))}
    for name, fam in families.items():
        for size in (1, 7, 64):
            trs = _check_tcr_batch(fam, adv, range(1000 * size, 1000 * size + size),
                                   (name, adv, size))
        if adv == "brute-force-inverter":  # the batch holds both verdicts
            assert {tr.win for tr in trs} == {False, True}, name


@given(st.data(), st.integers(1, 5), st.integers(1, 3), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_batched_tcr_matches_the_per_run_game_on_any_table(data, bits, keys, measured, seed):
    """Each run samples one of a few tables, with fibers of any sizes under
    a measured or the identity M: image columns absent from some runs'
    tables, and every summation order."""
    n = 1 << bits
    tables = []
    for _ in range(keys):
        top = data.draw(st.integers(0, n - 1))
        images = np.array(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
        mvals = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))) \
            if measured else None
        tables.append((images, mvals))
    fam = dataclasses.replace(table_family(*tables[0]), keys=None, tabulate=tables.__getitem__,
                              sample=lambda rng: (int(rng.integers(0, keys)), None))
    for adv in sorted(hashfam.TCR_ADVERSARIES):
        _check_tcr_batch(fam, adv, range(seed, seed + 9), adv)


def test_eval_and_measure_are_none_outside_the_domain():
    cases = [(fdelta_family(toy_regular_owf(6, 2)),
              [-1, -64, 64, 2**70, 1.0, "1", None, (1,), (0, 1)]),
             (two_to_one_family(3), [-2, 8, np.int64(-1), np.float64(1), [1]])]
    for fam, outside in cases:
        key, _ = fam.sample(np.random.default_rng(0))
        for x in outside:
            assert fam.eval(key, x) is None and fam.measure(key, x) is None, (fam.name, x)


def test_tcr_without_aux_matches_plain_game():
    fam = fdelta_family(toy_regular_owf(6, 2))
    (t1,) = tcr_game(fam, brute_force_tcr_adversary, [np.random.default_rng(9)])
    (t2,) = tcr_game(fam, brute_force_tcr_adversary, [np.random.default_rng(9)], aux=None)
    assert (t1.y, t1.v, t1.answer, t1.win) == (t2.y, t2.v, t2.answer, t2.win)


def test_family_resampling_determinism():
    fam = fdelta_family(toy_regular_owf(8, 2))
    (k1, d1), _ = fam.sample(np.random.default_rng(3)), None
    (k2, d2) = fam.sample(np.random.default_rng(3))
    assert np.array_equal(k1[0][0], k2[0][0]) and k1[1] == k2[1]


def test_family_descriptor_replay():
    from deletia.hashfam import family_from_descriptor

    fams = [
        toy_regular_owf(8, 2),
        two_to_one_family(3),
        chor_goldreich_family(4, 6, 4),
        fdelta_family(toy_regular_owf(6, 2)),
        compose_balanced(toy_regular_owf(8, 2), chor_goldreich_family(4, 6, 4)),
    ]
    for fam in fams:
        rebuilt = family_from_descriptor(fam.descriptor)
        assert rebuilt.name == fam.name
        assert rebuilt.domain.size == fam.domain.size
        k1, _ = fam.sample(np.random.default_rng(11))
        k2, _ = rebuilt.sample(np.random.default_rng(11))
        xs = range(min(16, fam.domain.size))
        assert [fam.eval(k1, x) for x in xs] == [rebuilt.eval(k2, x) for x in xs]


def test_table_matches_eval_and_measure():
    uhash = chor_goldreich_family(2, 5, 3)
    families = [
        two_to_one_family(4), toy_regular_owf(6, 2), chor_goldreich_family(3, 5, 3),
        fdelta_family(toy_regular_owf(6, 1)), fdelta_family(identity_bits_family(3)),
        compose_balanced(toy_regular_owf(6, 1, 5), uhash),
        fdelta_family(compose_balanced(toy_regular_owf(6, 1, 5), uhash)),
    ]
    for fam in families:
        values = range(fam.domain.size)
        for seed in range(3):
            key, _ = fam.sample(np.random.default_rng(seed))
            t = fam.table(key)
            assert len(t.images) == len(t.mvals) == fam.domain.size
            want = [reference(fam.descriptor, key, x) for x in values]
            assert [t.ys[i] for i in t.image_ids] == [y for y, _ in want]
            assert [fam.eval(key, x) for x in values] == [y for y, _ in want]
            assert len(set(t.ys)) == len(t.ys)
            assert t.ys == sorted(t.ys, key=repr)
            assert all(type(y) is int for y in t.ys)
            if fam.measured:
                assert t.mvals.tolist() == [m for _, m in want]
                assert [fam.measure(key, x) for x in values] == [m for _, m in want]
            else:
                assert [fam.measure(key, x) for x in values] == list(values)
            y = t.ys[-1]
            assert fam.fiber(key, y) == [x for x in values if fam.eval(key, x) == y]


@given(st.integers(1, 7), st.sampled_from([1, 2, 64, 256, 10**9]), st.booleans(),
       st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_a_value_is_its_own_index_in_a_bit_table(bits, spread, measured, seed):
    """On random images and M-values: a fiber's least value heads its row,
    eval, measure and fiber read the arrays at the value itself, fiber_split
    agrees with bincounts over the image rows (for a measured family), and
    nothing outside the domain has an image or an M-value."""
    rng = np.random.default_rng(seed)
    n = 1 << bits
    images = rng.integers(0, spread, size=n)
    mvals = rng.integers(0, 2, size=n) if measured else None
    fam = HashFamily(name="random-table", domain=BitDomain(bits), range_bits=bits,
                     sample=lambda rng: ("k", None), tabulate=lambda key: (images, mvals),
                     measured=measured)
    t = fam.table("k")
    _, fib = t.fibers
    fiber_of = [np.flatnonzero(images == y).tolist() for y in t.ys]
    assert fib[:, 0].tolist() == [min(f) for f in fiber_of]
    assert [r[r >= 0].tolist() for r in fib] == fiber_of
    assert [fam.fiber("k", y) for y in t.ys] == fiber_of
    assert [fam.eval("k", x) for x in range(n)] == images.tolist()
    want_m = mvals.tolist() if measured else list(range(n))
    assert [fam.measure("k", x) for x in range(n)] == want_m
    if measured:
        a1 = np.bincount(t.image_ids, weights=mvals, minlength=len(t.ys))
        a = np.bincount(t.image_ids, minlength=len(t.ys))
        assert [fiber_split(images, mvals, y) for y in t.ys] == \
            [(int(c - b), int(b)) for c, b in zip(a, a1)]
    for x in (-1, -n, n, np.int64(-1), 0.0, 1.5, np.float64(0), (0,), (0, 1), None):
        assert fam.eval("k", x) is None and fam.measure("k", x) is None, x


def _ranked_reference(images):
    """ys and image_ids by one sort of the whole image array, then with the
    distinct images put in repr order and each value given its image's row."""
    uniq, inverse = np.unique(images, return_inverse=True)
    ys = uniq.tolist()
    order = sorted(range(len(ys)), key=lambda j: repr(ys[j]))
    row = np.empty(len(order), dtype=np.int64)
    row[order] = np.arange(len(order))
    return [ys[j] for j in order], row[inverse.reshape(-1)]


def _lazy_rank_tables():
    """Tables of int images that cross digit counts (9/10, 99/100, 999/1000),
    ranked densely and, with a sparse or negative image, by sorting; and the
    images of the shipped families."""
    rng = np.random.default_rng(7)
    dense = rng.choice([0, 3, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1100], size=600)
    tables = {"dense": dense, "dense-all": np.arange(1024)[::-1] % 1001,
              "sparse": np.where(dense > 500, dense * 10**6, dense),
              "negative": dense - 100}
    tables = {name: hashfam.DomainTable(im, np.zeros(len(im), dtype=np.int64), None, True, None)
              for name, im in tables.items()}
    for fam in (chor_goldreich_family(3, 10, 7), fdelta_family(toy_regular_owf(10, 2))):
        key, _ = fam.sample(np.random.default_rng(1))
        tables[fam.name] = fam.table(key)
    return tables


@pytest.mark.parametrize("name", list(_lazy_rank_tables()))
def test_lazy_ranks_match_a_sorted_reference(name):
    t = _lazy_rank_tables()[name]
    ys, ids = _ranked_reference(t.images)
    assert t.ys == ys and all(type(y) is int for y in t.ys)
    assert t.image_ids.tolist() == ids.tolist()
    present = ys[len(ys) // 2]
    assert t.fiber_mask(present).tolist() == (ids == len(ys) // 2).tolist()
    outside = [max(ys) + 1, min(ys) - 1, 10**30, (present,) * 2, None]
    absent = next((y for y in range(min(ys), max(ys)) if y not in ys), None)
    assert absent is not None or name not in ("dense", "sparse", "negative")  # the others are onto
    for y in [absent, *outside] if absent is not None else outside:
        assert not t.fiber_mask(y).any(), y


def _fibers_by_argsort(row, ny):
    """(pos, fib) with the values ordered by an int64 stable argsort."""
    counts = np.bincount(row, minlength=ny)
    by_row = np.argsort(row, kind="stable")
    pos = np.empty_like(row)
    pos[by_row] = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    fib = np.full((ny, counts.max()), -1)
    fib[row, pos] = np.arange(len(row))
    return pos, fib


@pytest.mark.parametrize("n", [1, 5, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 17, 1 << 22])
def test_stable_argsort_by_16_bit_digits_is_argsort(n):
    rng = np.random.default_rng(n)
    for ids in (rng.integers(0, n, size=3000), np.full(7, n - 1), rng.permutation(min(n, 1 << 18))):
        assert hashfam._stable_argsort(ids, n).tolist() == \
            np.argsort(ids, kind="stable").tolist()


def test_fibers_match_the_argsort_order():
    rng = np.random.default_rng(11)
    images = {"one-element fibers": rng.permutation(1 << 17),  # more than 2^16 rows
              "mixed": rng.integers(0, 1 << 17, size=1 << 18),
              "few rows": rng.integers(0, 300, size=5000)}
    for name, im in images.items():
        t = hashfam.DomainTable(im, np.zeros(len(im), dtype=np.int64), None, True, None)
        pos, fib = t.fibers
        want_pos, want_fib = _fibers_by_argsort(t.image_ids, len(t.ys))
        assert np.array_equal(pos, want_pos) and np.array_equal(fib, want_fib), name
    assert len(t.ys) <= 300 and fib.shape[1] > 1


def _balance_reference(family, trials, rng):
    """The fiber ratios of balance_estimate by per-value eval and measure."""
    ratios = []
    for _ in range(trials):
        key, _ = family.sample(rng)
        values = range(family.domain.size)
        y = family.eval(key, values[int(rng.integers(0, len(values)))])
        sides = [family.measure(key, x) for x in values if family.eval(key, x) == y]
        ratios.append(abs(len(sides) - 2 * sum(sides)) / len(sides))
    return ratios


def test_percentile_995_is_numpys_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in [*range(1, 260), 1000, 2001]:
        for vals in (rng.random(n), rng.choice([0.0, 1 / 3, 0.5, 1.0], size=n),
                     rng.random(n) * 10.0 ** rng.integers(-20, 1, size=n)):
            got = hashfam._percentile_995(vals.tolist())
            assert repr(got) == repr(float(np.percentile(vals, 99.5))), n


def test_balance_ratios_match_the_per_value_reference():
    const = HashFamily(name="const", domain=BitDomain(4), range_bits=2,
                       sample=lambda rng: (None, None),
                       tabulate=lambda key: (np.zeros(16, dtype=int), None))
    for fam in (fdelta_family(toy_regular_owf(10, 2)),
                fdelta_family(compose_balanced(toy_regular_owf(6, 2), const)),
                fdelta_family(toy_regular_owf(6, 0, range_bits=7))):  # ratios 0 and 1
        report = balance_estimate(fam, None, 12, np.random.default_rng(4))
        assert report.ratios == _balance_reference(fam, 12, np.random.default_rng(4)), fam.name


def test_balance_estimate_matches_fiber_enumeration():
    fam = fdelta_family(compose_balanced(toy_regular_owf(6, 1, 5),
                                         chor_goldreich_family(2, 5, 3)))
    report = balance_estimate(fam, None, 30, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    dom = range(fam.domain.size)
    want = []
    for _ in range(30):
        key, _ = fam.sample(rng)
        y = fam.eval(key, dom[int(rng.integers(0, len(dom)))])
        sides = [fam.measure(key, x) for x in dom if fam.eval(key, x) == y]
        want.append(abs(len(sides) - 2 * sum(sides)) / len(sides))
    assert report.ratios == want
    assert max(want) > 0  # the composed family has unbalanced fibers


def test_table_cache_keeps_the_last_key_by_identity():
    fam = toy_regular_owf(4, 1)
    k1, _ = fam.sample(np.random.default_rng(0))
    t1 = fam.table(k1)
    assert fam.table(k1) is t1
    k2 = k1.copy()  # equal but unhashable: a new entry replaces the old one
    t2 = fam.table(k2)
    assert t2 is not t1 and t2.image_ids.tolist() == t1.image_ids.tolist()
    assert fam.table(k1) is not t1
    assert fam.fiber(k1, 99) == []


def test_table_cache_keys_on_the_weights_by_identity():
    fam = fdelta_family(toy_regular_owf(4, 1))
    key, _ = fam.sample(np.random.default_rng(0))

    def skewed(x):
        return 1.0 + x % 3

    t = fam.table(key, skewed)
    assert fam.table(key, skewed) is t
    assert t.weights.tolist() == [w / sum(map(skewed, range(16))) for w in map(skewed, range(16))]
    again = fam.table(key, lambda x: 1.0 + x % 3)  # equal weights, a new object
    assert again is not t and again.weights.tolist() == t.weights.tolist()
    uniform = fam.table(key)
    assert uniform is not again and uniform.dist is None
    assert fam.table(key) is uniform and fam.table(key, None) is uniform
    assert uniform.weights.tolist() == [1 / 16] * 16


def test_balance_estimate_keeps_no_table_per_sampled_key():
    uhash = chor_goldreich_family(2, 9, 5)
    fam = fdelta_family(compose_balanced(toy_regular_owf(10, 1, 9), uhash))
    tracemalloc.start()
    try:
        balance_estimate(fam, None, 5, np.random.default_rng(0))
        before = tracemalloc.get_traced_memory()[0]
        balance_estimate(fam, None, 35, np.random.default_rng(1))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 60_000  # one 4 KiB value table per key would be 120 KB


def test_bit_domain_enumeration_matches_the_per_value_path():
    # the tables enumerate the values 0, 1, ...: each is its own register
    # index, through value_index on its big-endian digits one value at a time
    for bits in range(1, 13):
        dom = BitDomain(bits)
        layout = qsim.RegisterLayout([("X", (2,) * bits)])
        digits = [big_endian(x, bits) for x in range(dom.size)]
        assert [value_index(layout, "X", d) for d in digits] == list(range(dom.size))


def test_table_beyond_the_old_fiber_guard_matches_eval():
    """A 2^17-value domain, above the 2^16 bound that hashfam had of its own,
    is tabulated under zqcore.ENUM_GUARD and agrees with the per-value
    reference."""
    fam = fdelta_family(toy_regular_owf(17, 2))
    key, _ = fam.sample(np.random.default_rng(3))
    t = fam.table(key)
    assert len(t.images) == 1 << 17
    for x in np.random.default_rng(4).integers(0, 1 << 17, size=300).tolist():
        y, m = reference(fam.descriptor, key, x)
        assert t.ys[t.image_ids[x]] == y == fam.eval(key, x)
        assert t.mvals[x] == m == fam.measure(key, x)


def test_table_refuses_a_domain_over_the_enumeration_guard():
    def untouched(*_):
        raise AssertionError("enumerated a domain over the guard")

    fam = HashFamily(name="wide", domain=BitDomain(23), range_bits=1,
                     sample=lambda rng: (0, None), tabulate=untouched)
    assert BitDomain(23).size == 2 * hashfam.ENUM_GUARD
    with pytest.raises(ValueError, match="domain too large to enumerate"):
        fam.table(0)
    with pytest.raises(ValueError, match="domain too large to enumerate"):
        fam.fiber(0, 0)
