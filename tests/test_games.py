import contextlib
import dataclasses
import functools
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from deletia import cli, configs, games, hashfam, qsim
from deletia.dualregev import dr_keygen, dr_params
from deletia.games import (
    ADVERSARIES,
    BRUTE_FORCE_INVERTER,
    GARBAGE_CERTIFIER,
    HONEST_DELETER,
    NOOP_CERTIFIER,
    OVERLAP_PROJECTOR,
    ev_target_collapse_ensembles,
    ev_target_collapse_exp,
    fact35_check,
    hybrid_ladder_exact,
    hybrid_ladder_mc,
    random_fact35_instance,
    sgc_honest_ensembles,
    strong_gauss_collapse_exp,
    target_collapse_advantage_exact,
    target_collapse_exp,
)
from deletia.hashfam import (
    BitDomain,
    HashFamily,
    chor_goldreich_family,
    compose_balanced,
    fdelta_family,
    toy_regular_owf,
    two_to_one_family,
)
from deletia.qsim import ensemble_trace_distance
from deletia.zqcore import ZqVector, centered_array, check_bit, zq_box
import dualregev_ref
from qsim_ref import controlled_phase_fn, drop_segment, project


FAM = two_to_one_family(3)


# --- target collapsing ----------------------------------------------------

def _runs(trials: int, offset: int = 0, stride: int = 2) -> tuple[list[int], list]:
    """Runs (t, b) for t < trials and b in (0, 1), in that order: their bits
    and generators, run (t, b) seeded offset + t * stride + b."""
    bs = [b for _ in range(trials) for b in (0, 1)]
    return bs, [np.random.default_rng(offset + t * stride + b)
                for t in range(trials) for b in (0, 1)]


def _ones(bs, bits) -> dict:
    return {b: sum(bit for c, bit in zip(bs, bits) if c == b) for b in (0, 1)}


def test_tc_random_guesser_has_no_advantage():
    trials = 2000
    bs, rngs = _runs(trials)
    wins = _ones(bs, target_collapse_exp(FAM, None, games.RANDOM_GUESSER, bs, rngs))
    adv = abs(wins[0] - wins[1]) / trials
    sd = math.sqrt(2 * 0.25 / trials)
    assert adv <= 3 * sd


def test_tc_overlap_projector_exact_matches_monte_carlo():
    exact = target_collapse_advantage_exact(FAM, None, OVERLAP_PROJECTOR)
    assert exact == pytest.approx(0.5, abs=1e-12)  # 2-to-1 fibers, identity M
    trials = 2000
    bs, rngs = _runs(trials, 10_000)
    wins = _ones(bs, target_collapse_exp(FAM, None, OVERLAP_PROJECTOR, bs, rngs))
    mc = abs(wins[0] - wins[1]) / trials
    sd = math.sqrt(2 * 0.25 / trials)
    assert abs(mc - exact) <= 3 * sd


def test_tc_binary_measurement_family_exact_value():
    fam = fdelta_family(toy_regular_owf(4, 1))
    fam.keys = lambda: [fam.sample(np.random.default_rng(s)) for s in range(6)]
    exact = target_collapse_advantage_exact(fam, None, OVERLAP_PROJECTOR)
    # balanced fibers: measured mixture overlaps the positive state at 1/2
    assert exact == pytest.approx(0.5, abs=1e-9)


# --- certified everlasting target collapsing --------------------------------

def test_evtc_honest_deleter_advantage_exactly_zero():
    e0, e1 = ev_target_collapse_ensembles(FAM, None, HONEST_DELETER)
    assert ensemble_trace_distance(e0, e1) <= 1e-10


def test_evtc_garbage_certifier_fallback_masks_bit():
    e0, e1 = ev_target_collapse_ensembles(FAM, None, GARBAGE_CERTIFIER)
    assert ensemble_trace_distance(e0, e1) <= 1e-10
    # chi^2: with the uniform fallback, b' is independent of b
    counts = {(b, bp): 0 for b in (0, 1) for bp in (0, 1)}
    for tr in ev_target_collapse_exp(FAM, None, GARBAGE_CERTIFIER, *_runs(2500)):
        counts[(tr.b, tr.verdict)] += 1
    table = np.array([[counts[(0, 0)], counts[(0, 1)]],
                      [counts[(1, 0)], counts[(1, 1)]]])
    assert stats.chi2_contingency(table).pvalue > 1e-3


def test_evtc_brute_force_validity_rate_matches_counting():
    # uniform-domain guesses are valid with probability sum_y P(y) |fiber|/|dom|
    dom_size = FAM.domain.size
    key = FAM.keys()[0][0]
    fibers = {}
    for x in range(dom_size):
        fibers.setdefault(FAM.eval(key, x), []).append(x)
    expect = sum((len(f) / dom_size) * (len(f) / dom_size) for f in fibers.values())
    trials = 3000
    valid = sum(tr.outputs["valid"] for tr in ev_target_collapse_exp(
        FAM, None, BRUTE_FORCE_INVERTER, [t % 2 for t in range(trials)],
        [np.random.default_rng(t) for t in range(trials)]))
    sd = math.sqrt(trials * expect * (1 - expect))
    assert abs(valid - expect * trials) <= 4 * sd


def test_evtc_transcripts_replay_byte_identical():
    a, = ev_target_collapse_exp(FAM, None, HONEST_DELETER, [1],
                                [np.random.default_rng(99)], seeds=[99])
    b, = ev_target_collapse_exp(FAM, None, HONEST_DELETER, [1],
                                [np.random.default_rng(99)], seeds=[99])
    assert json.dumps(dataclasses.asdict(a)) == json.dumps(dataclasses.asdict(b))


# --- the hybrid ladder ------------------------------------------------------

def test_ladder_paper_relations_for_overlap_projector():
    res = hybrid_ladder_exact(FAM, OVERLAP_PROJECTOR)
    adv0, adv1, adv2, adv3 = res.adv
    assert adv2 <= 1e-10
    assert abs(adv1 - adv0 / 2) <= 1e-9
    assert adv0 == pytest.approx(0.5, abs=1e-12)


def test_ladder_honest_deleter_projection_succeeds():
    res = hybrid_ladder_exact(FAM, HONEST_DELETER)
    assert res.proj_success[3] == pytest.approx(1.0, abs=1e-12)
    assert res.proj_success[2] == pytest.approx(1.0, abs=1e-10)
    assert max(res.adv) <= 1e-10


def test_ladder_relations_on_binary_measurement_family():
    fam = fdelta_family(toy_regular_owf(4, 1))
    fam.keys = lambda: [fam.sample(np.random.default_rng(s)) for s in range(4)]
    res = hybrid_ladder_exact(fam, OVERLAP_PROJECTOR)
    adv0, adv1, adv2, _ = res.adv
    assert adv2 <= 1e-10
    assert abs(adv1 - adv0 / 2) <= 1e-9


def test_ladder_monte_carlo_agrees_with_exact():
    res = hybrid_ladder_exact(FAM, OVERLAP_PROJECTOR)
    trials = 600
    for exp in (0, 1, 2):
        bs, rngs = _runs(trials, 40_000 + exp * 2, stride=8)
        wins = _ones(bs, hybrid_ladder_mc(FAM, OVERLAP_PROJECTOR, exp, bs, rngs))
        mc = abs(wins[0] - wins[1]) / trials
        sd = math.sqrt(2 * 0.25 / trials)
        assert abs(mc - res.adv[exp]) <= 4 * sd


def test_ladder_needs_enumerable_keys():
    fam = toy_regular_owf(4, 1)
    with pytest.raises(ValueError, match="no enumerable key space"):
        hybrid_ladder_exact(fam, HONEST_DELETER)


# --- strong Gaussian collapsing ---------------------------------------------

def test_sgc_honest_deleter_valid_and_advantage_zero():
    params = configs.SGC_DESK
    valid = 0
    trials = 100
    for tr in strong_gauss_collapse_exp(params, HONEST_DELETER, [t % 2 for t in range(trials)],
                                        [np.random.default_rng(t) for t in range(trials)]):
        valid += tr.outputs["valid"]
        if tr.outputs["valid"]:
            assert tr.outputs["trapdoor"] is not None
    assert valid / trials >= 0.99
    e0, e1 = sgc_honest_ensembles(params, np.random.default_rng(5))
    assert ensemble_trace_distance(e0, e1) <= 1e-10


def test_sgc_labels_code_image_witness_and_validity():
    params = configs.SGC_DESK
    q = params.q
    e0, e1 = sgc_honest_ensembles(params, np.random.default_rng(5))
    A = dr_keygen(params, np.random.default_rng(5)).pk
    box = zq_box(q, params.width)
    assert np.array_equal(e0.branches, e1.branches)
    for i, (_, code, state) in enumerate(e0.branches.tolist()):
        rest, valid = divmod(code, 2)
        image, idx = divmod(rest, len(box))
        c = centered_array(box[i], q)
        assert (idx, state) == (i, -1)
        assert image == int(np.polyval((A.entries @ box[i]) % q, q))  # digits, first row high
        assert valid == (Fraction(int(c @ c)) <= params.cert_bound_sq())
    assert abs(e0.branches["p"].sum() - 1.0) <= 1e-12


def test_sgc_noop_certifier_gets_random_bit():
    params = configs.SGC_DESK
    outs = {0: 0, 1: 0}
    invalid = 0
    for tr in strong_gauss_collapse_exp(params, NOOP_CERTIFIER, [t % 2 for t in range(600)],
                                        [np.random.default_rng(t) for t in range(600)]):
        nonzero_image = any(tr.outputs["y"])
        # w = 0 is a valid witness only when the image is zero
        assert tr.outputs["valid"] == (not nonzero_image)
        if not tr.outputs["valid"]:
            invalid += 1
            outs[tr.verdict] += 1
    assert invalid >= 100
    sd = math.sqrt(invalid * 0.25)
    assert abs(outs[0] - invalid / 2) <= 4 * sd


@pytest.mark.parametrize("b", [2, -1])
def test_out_of_range_challenge_bit_raises(b):
    # the games' bit b is the challenger's, not one to reduce mod 2
    match = f"bit b must be 0 or 1, got {b}"
    # in a batch, a bad bit raises before any run draws
    bs, rngs = [0, b, 1], [np.random.default_rng(s) for s in range(3)]
    with pytest.raises(ValueError, match=match):
        target_collapse_exp(FAM, None, HONEST_DELETER, bs, rngs)
    with pytest.raises(ValueError, match=match):
        ev_target_collapse_exp(FAM, None, HONEST_DELETER, bs, rngs)
    for exp in range(4):
        with pytest.raises(ValueError, match=match):
            hybrid_ladder_mc(FAM, OVERLAP_PROJECTOR, exp, bs, rngs)
    with pytest.raises(ValueError, match=match):
        strong_gauss_collapse_exp(configs.SGC_DESK, HONEST_DELETER, bs, rngs)
    assert [g.random() for g in rngs] == [np.random.default_rng(s).random() for s in range(3)]


def test_sgc_trapdoor_annihilates_matrix():
    params = configs.SGC_DESK
    released = 0
    runs = strong_gauss_collapse_exp(params, HONEST_DELETER, [t % 2 for t in range(30)],
                                     [np.random.default_rng(t) for t in range(30)])
    for t, tr in enumerate(runs):
        if tr.outputs["trapdoor"] is None:
            continue
        released += 1
        # the run draws its key first, so its seed rebuilds A
        A = dr_keygen(params, np.random.default_rng(t)).pk
        trapdoor = ZqVector(tr.outputs["trapdoor"], params.q)
        assert trapdoor.entries[-1] == params.q - 1  # (xbar, -1)
        assert not (A @ trapdoor).entries.any()
    assert released >= 25


def test_sgc_witness_norm_bound_enforced():
    params = dr_params(n=1, m=2, q=7, sigma=2)
    # the desk instance: width 3, ||w||^2 <= sigma^2 (m + 1) / 2 = 6, exactly
    assert params == configs.SGC_DESK
    assert params.width == 3 and params.cert_bound_sq() == 6
    (tr,) = strong_gauss_collapse_exp(params, HONEST_DELETER, [0], [np.random.default_rng(0)])
    w = np.asarray(tr.outputs["w"])
    c = np.where(2 * w > params.q, w - params.q, w)
    if tr.outputs["valid"]:
        assert int(c @ c) <= 6


def _sgc_batch(adv):
    return lambda bs, rngs, seeds: [dataclasses.asdict(tr) for tr in strong_gauss_collapse_exp(
        configs.SGC_DESK, adv, bs, rngs, seeds)]


def _sgc_reference(adv):
    return lambda b, rng, seed: dataclasses.asdict(dualregev_ref.strong_gauss_collapse_exp(
        configs.SGC_DESK, adv, b, rng, seed))


@pytest.mark.parametrize("adv", [HONEST_DELETER, NOOP_CERTIFIER], ids=lambda a: a.name)
def test_batched_sgc_matches_the_per_run_protocol(adv):
    """Batches of 1, 7, 64 and 178 runs (seeds 0-249, b = seed mod 2), and
    batches of b = 0 or b = 1 alone, give the per-run protocol's transcripts
    and leave every generator in its state."""
    for lo, hi in ((0, 1), (1, 8), (8, 72), (72, 250)):
        seeds = list(range(lo, hi))
        got = _check_batch(_sgc_batch(adv), _sgc_reference(adv), [s % 2 for s in seeds], seeds,
                           (adv.name, lo))
    if adv is NOOP_CERTIFIER:  # w = 0 is valid only on a zero image: the batch mixes both
        assert {tr["outputs"]["valid"] for tr in got} == {False, True}
    for b in (0, 1):
        _check_batch(_sgc_batch(adv), _sgc_reference(adv), [b] * 20, list(range(1000, 1020)),
                     (adv.name, b))


def test_sgc_checks_the_adversary_before_any_run_draws():
    rngs = [np.random.default_rng(s) for s in range(3)]
    with pytest.raises(ValueError, match="overlap-projector not scripted for this game"):
        strong_gauss_collapse_exp(configs.SGC_DESK, OVERLAP_PROJECTOR, [0, 1, 0], rngs)
    assert [g.random() for g in rngs] == [np.random.default_rng(s).random() for s in range(3)]
    assert strong_gauss_collapse_exp(configs.SGC_DESK, HONEST_DELETER, [], []) == []


# --- Fact 3.5 ----------------------------------------------------------------

def test_fact35_commuting_case_both_sides_vanish():
    I2 = np.eye(2)
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    D = np.diag([1.0, 0.0])  # commutes with both projectors
    psi = np.array([1.0, 0.0])
    res = fact35_check(D, [P0, P1], psi)
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
    assert res.holds


def test_fact35_plus_projector_case():
    # D = |+><+|, Pi_0 = |0><0|, Pi_1 = |1><1|, psi = |0>: lhs = 1/4 and the
    # inner term ||D psi||^2 - sum_i ||D Pi_i psi||^2 vanishes, so rhs = 0
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    D = np.outer(plus, plus)
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    psi = np.array([1.0, 0.0])
    res = fact35_check(D, [P0, P1], psi)
    assert res.lhs == pytest.approx(0.25, abs=1e-12)
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
    assert res.holds


def test_fact35_random_instances():
    rng = np.random.default_rng(0)
    for t in range(300):
        nproj = int(rng.integers(2, 5))
        dim = int(rng.integers(nproj + 1, 9))
        D, pis, psi = random_fact35_instance(rng, dim, nproj)
        res = fact35_check(D, pis, psi)
        assert res.holds, (t, res.lhs, res.rhs)


def test_fact35_rejects_bad_inputs():
    P0 = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        fact35_check(np.eye(2), [P0, P0], np.array([1.0, 0.0]))
    P1 = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        fact35_check(np.eye(3)[:2, :2], [P0], np.array([0.0, 1.0]))


# --- shared plumbing ----------------------------------------------------------

def test_adversary_registry_names():
    assert set(ADVERSARIES) == {
        "honest-deleter", "random-guesser", "brute-force-inverter",
        "overlap-projector", "garbage-certifier", "noop",
    }


def test_exact_and_mc_agree_for_honest_deleter_exp0():
    res = hybrid_ladder_exact(FAM, HONEST_DELETER)
    trials = 500
    bs, rngs = _runs(trials, 70_000)
    wins = _ones(bs, hybrid_ladder_mc(FAM, HONEST_DELETER, 0, bs, rngs))
    mc = abs(wins[0] - wins[1]) / trials
    assert abs(mc - res.adv[0]) <= 4 * math.sqrt(2 * 0.25 / trials)


def test_tcr_exp_aux_plumbing():
    fam = fdelta_family(toy_regular_owf(6, 2))
    (tr_plain,) = hashfam.tcr_game(fam, hashfam.brute_force_tcr_adversary,
                                   [np.random.default_rng(4)])
    (tr_match,) = hashfam.tcr_game(fam, hashfam.brute_force_tcr_adversary,
                                   [np.random.default_rng(4)])
    assert (tr_plain.y, tr_plain.v, tr_plain.answer) == \
        (tr_match.y, tr_match.v, tr_match.answer)
    seen = []

    def leak(td):
        seen.append(td)
        return td

    hashfam.tcr_game(fam, hashfam.brute_force_tcr_adversary,
                     [np.random.default_rng(5)], aux=leak)
    assert len(seen) == 1


def test_interleaved_families_keep_their_tables(monkeypatch):
    """Each family memoises its own last table, so ladders that alternate two
    families tabulate and group each key once."""
    builds = {"fibers": 0, "m_groups": 0}
    for name in builds:
        def counted(table, _build=vars(hashfam.DomainTable)[name].func, _name=name):
            builds[_name] += 1
            return _build(table)
        prop = functools.cached_property(counted)
        prop.__set_name__(hashfam.DomainTable, name)
        monkeypatch.setattr(hashfam.DomainTable, name, prop)
    fams = [two_to_one_family(5), two_to_one_family(6)]
    tabulated = [0, 0]
    for i, fam in enumerate(fams):
        def tabulate(key, _fn=fam.tabulate, _i=i):
            tabulated[_i] += 1
            return _fn(key)
        fam.tabulate = tabulate
    runs = [[repr(hybrid_ladder_exact(f, adv)) for f in fams
             for adv in (OVERLAP_PROJECTOR, HONEST_DELETER)] for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert tabulated == [1, 1]
    assert builds == {"fibers": 2, "m_groups": 2}


# --- pinned exact values ------------------------------------------------------

PINNED_GOLDEN = "tests/golden/ladder_prob1.json"


def _pinned_families():
    fdelta = fdelta_family(toy_regular_owf(4, 1))
    fdelta.keys = lambda: [fdelta.sample(np.random.default_rng(s)) for s in range(4)]
    return {"two-to-one-3": two_to_one_family(3), "two-to-one-5": two_to_one_family(5),
            "fdelta-toy-4-1": fdelta}


def pinned_values() -> dict:
    """prob1 and proj_success of the exact ladder and the EVTC ensemble trace
    distance, for every scripted adversary on three small families."""
    out = {}
    for fname, fam in _pinned_families().items():
        for aname, adv in sorted(ADVERSARIES.items()):
            res = hybrid_ladder_exact(fam, adv)
            e0, e1 = ev_target_collapse_ensembles(fam, None, adv)
            out[f"{fname}/{aname}"] = {
                "prob1": res.prob1,
                "proj_success": {str(e): p for e, p in res.proj_success.items()},
                "evtc_td": ensemble_trace_distance(e0, e1),
            }
    return out


def test_exact_values_match_pinned_golden():
    with open(PINNED_GOLDEN) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(pinned_values()))
    assert got.keys() == want.keys()
    for case, vals in want.items():
        assert got[case]["prob1"] == vals["prob1"], case
        assert got[case]["proj_success"] == vals["proj_success"], case
        # The pinned trace distances were summed over labels in set order,
        # which varies with string hashing between processes (0.125 in one,
        # 0.12500000000000003 in another), so they are pinned to 1e-15.
        assert abs(got[case]["evtc_td"] - vals["evtc_td"]) <= 1e-15, case


# --- the batched ladder against the scalar enumeration ------------------------

class _RefDom:
    """The per-y view of one key's domain table that the scalar references
    enumerate: images by their position j in the table's ``ys``, every state
    on the whole domain. The D-weights and the repr order of y are computed
    here, not read from the table."""

    def __init__(self, family, key, dist):
        self.family = family
        self.table = family.table(key, dist)
        self.values = range(len(self.table.images))
        self.mbits = self.table.mbits
        self.sign = self.table.sign
        d = np.array([1.0 if dist is None else dist(x) for x in self.values])
        self.weights = d / d.sum()

    def y_distribution(self) -> list[tuple[int, float]]:
        """(position j of y in the table's ys, Pr[y]) in repr order of y."""
        ys = self.table.ys
        py = np.bincount(self.table.image_ids, weights=self.weights, minlength=len(ys))
        return [(j, py[j]) for j in sorted(range(len(ys)), key=lambda j: repr(ys[j]))]

    def fiber(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.table.image_ids == j)

    def psi_y(self, j: int) -> np.ndarray:
        amps = np.where(self.table.image_ids == j, np.sqrt(self.weights), 0.0)
        return amps / np.linalg.norm(amps)

    def value(self, pi: int | None):
        return None if pi is None else self.values[pi]

    def valid(self, pi: int | None, j: int) -> bool:
        return pi is not None and bool(self.table.image_ids[pi] == j)

    def lexfirst(self, j: int) -> int:
        return int(min(self.fiber(j), key=self.values.__getitem__))

    def garbage(self, j: int) -> int | None:
        outside = np.flatnonzero(self.table.image_ids != j)
        return int(outside[0]) if outside.size else None

    def m_branches(self, j: int) -> list[tuple[int, float, np.ndarray]]:
        """Outcomes of measuring M on psi_y, in repr order of the outcome:
        (index of a value with that outcome, prob, post vector)."""
        psi = self.psi_y(j)
        identity = not self.family.measured
        groups: dict[object, list[int]] = {}
        for i in self.fiber(j):
            v = self.values[i] if identity else int(self.table.mvals[i])
            groups.setdefault(v, []).append(int(i))
        out = []
        for v in sorted(groups.keys(), key=repr):
            idxs = groups[v]
            p = float(np.cumsum(psi[idxs] ** 2)[-1])
            if p <= 0:
                continue
            post = np.zeros_like(psi)
            post[idxs] = psi[idxs]
            out.append((idxs[0], p, post / math.sqrt(p)))
        return out


def _ref_cert_branches(adv, dom, j, mass):
    """(prob, pi, measured X index or None) branches of the first stage on a
    state whose X marginal is ``mass``; None leaves the state untouched."""
    if adv.cert == "measure":
        return [(float(p), i, i) for i, p in enumerate(mass) if p > 1e-15]
    if adv.cert == "lexfirst":
        return [(1.0, dom.lexfirst(j), None)]
    if adv.cert == "uniform-domain":
        n = len(dom.values)
        return [(1.0 / n, i, None) for i in range(n)]
    if adv.cert == "garbage":
        return [(1.0, dom.garbage(j), None)]
    if adv.cert == "zero":
        return [(1.0, 0, None)]
    raise ValueError(f"unknown cert mode {adv.cert}")


def _ref_residual(rows, col, pc):
    """The state after a certificate branch. Measuring X of a pure X state
    leaves the basis state |x>; a C-by-X state (..., 2, D) keeps its C
    amplitudes on the measured column, renormalised."""
    if col is None:
        return rows
    res = np.zeros_like(rows)
    res[..., col] = 1.0 if rows.ndim == 1 else rows[..., col] / math.sqrt(pc)
    return res


def _ref_fold(total, columns):
    """total plus the (nz, branches) stacked columns, z-major, left to right."""
    if not columns:
        return total
    terms = np.stack(columns, axis=1).ravel()
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _ref_c_register_terms(adv, dom, sign, j, psi, rows, w0, wk, with_exp1):
    """Per-z Pr[out=1] terms of the C-by-X states ``rows`` (nz, 2, D)."""
    terms = {"exp1b0": [], "exp1b1": [], "proj": [], "succ": [], "valid": []}
    nz = len(rows)
    mass = np.sum(np.abs(rows[0]) ** 2, axis=0)
    for pc, pi, col in _ref_cert_branches(adv, dom, j, mass):
        w = w0 * pc * wk
        if not dom.valid(pi, j):
            for name in ("exp1b0", "exp1b1", "proj"):
                terms[name].append(np.full(nz, w * 0.5))
            continue
        res, target = (rows, psi) if col is None else \
            (rows[..., [col]] / math.sqrt(pc), psi[[col]])
        pr_c = np.sum(np.abs(res) ** 2, axis=-1)
        for b in (0, 1) if with_exp1 else ():
            pb = pr_c[:, b]
            ok = pb > 1e-15
            xv = res[:, b] / np.sqrt(np.where(ok, pb, 1.0))[:, None]
            guess = np.where(ok, games._guess_p1(adv, target, xv), 0.5)
            terms[f"exp1b{b}"].append(w * (pb * guess + (1 - pb) * 0.5))
        merged = (res[:, 0] + sign[:, pi][:, None] * res[:, 1]) / math.sqrt(2)
        ps = np.sum(np.abs(merged) ** 2, axis=-1)
        ok = ps > 1e-15
        guess = games._guess_p1(adv, target, merged / np.sqrt(np.where(ok, ps, 1.0))[:, None])
        succ = np.where(ok, ps * (0.5 * guess + 0.25), 0.0)
        terms["proj"].append(w * (succ + (1 - ps) * 0.5))
        terms["succ"].append(w * ps)
        terms["valid"].append(np.full(nz, w))
    return terms


def _ladder_reference(family, adversary, dist=None):
    """The ladder by the scalar enumeration over (key, y), with every state
    on the whole domain: Exp0 branch by branch, Exp1-Exp3 for all z at once."""
    keys = games._keys_for_exact(family)
    wk = 1.0 / len(keys)
    p1 = {(e, b): 0.0 for e in range(4) for b in (0, 1)}
    proj_mass = {2: [0.0, 0.0], 3: [0.0, 0.0]}
    s2 = math.sqrt(2)
    for key, _ in keys:
        dom = _RefDom(family, key, dist)
        sign = dom.sign(np.arange(1 << dom.mbits)[:, None])
        wz = 1.0 / len(sign)
        for j, py in dom.y_distribution():
            psi = dom.psi_y(j)
            mbranches = dom.m_branches(j)
            for b in (0, 1):
                starts = [(1.0, psi)] if b == 0 else [(pv, post) for _, pv, post in mbranches]
                for pv, xvec in starts:
                    for pc, pi, col in _ref_cert_branches(adversary, dom, j,
                                                            np.abs(xvec) ** 2):
                        guess = 0.5
                        if dom.valid(pi, j):
                            guess = games._guess_p1(adversary, psi,
                                                    _ref_residual(xvec, col, pc))
                        p1[(0, b)] += wk * (py * pv * pc) * guess
            rows = np.stack([np.broadcast_to(psi, sign.shape), sign * psi], axis=1) / s2
            t12 = _ref_c_register_terms(adversary, dom, sign, j, psi, rows, py * wz, wk, True)
            for b in (0, 1):
                p1[(1, b)] = _ref_fold(p1[(1, b)], t12[f"exp1b{b}"])
                p1[(2, b)] = _ref_fold(p1[(2, b)], t12["proj"])
            t3 = {"proj": [], "succ": [], "valid": []}
            for i0, pv, post in mbranches:
                rows3 = np.stack([np.broadcast_to(post, sign.shape),
                                  sign[:, i0][:, None] * post], axis=1) / s2
                terms = _ref_c_register_terms(adversary, dom, sign, j, psi, rows3,
                                              py * wz * pv, wk, False)
                for name in t3:
                    t3[name] += terms[name]
            for b in (0, 1):
                p1[(3, b)] = _ref_fold(p1[(3, b)], t3["proj"])
            for e, t in ((2, t12), (3, t3)):
                proj_mass[e][0] = _ref_fold(proj_mass[e][0], t["succ"])
                proj_mass[e][1] = _ref_fold(proj_mass[e][1], t["valid"])
    prob1 = {f"exp{e}b{b}": p1[(e, b)] for e in range(4) for b in (0, 1)}
    proj = {e: (proj_mass[e][0] / proj_mass[e][1] if proj_mass[e][1] else 1.0) for e in (2, 3)}
    return prob1, proj


def _sampled_keys(fam, n=3):
    fam.keys = lambda: [fam.sample(np.random.default_rng(s)) for s in range(n)]
    return fam


def _skewed(x):
    return 1.0 + (x % 5)


def _small_fiber_families():
    """Fibers of 2, and of 2 and 4 (range_bits 6 leaves some pairs unmerged)."""
    fams = {f"two-to-one-{b}": two_to_one_family(b) for b in range(3, 8)}
    fams["fdelta-toy-5-1-r6"] = _sampled_keys(fdelta_family(toy_regular_owf(5, 1, range_bits=6)))
    return fams


def _large_fiber_families():
    """Fibers of 8 and of 16."""
    return {"fdelta-toy-6-2": _sampled_keys(fdelta_family(toy_regular_owf(6, 2))),
            "fdelta-cg": _sampled_keys(fdelta_family(compose_balanced(
                toy_regular_owf(6, 1), chor_goldreich_family(2, 5, 3))))}


@pytest.mark.parametrize("dist", [None, _skewed], ids=["uniform", "skewed"])
def test_batched_ladder_matches_scalar_reference(dist):
    for tol, fams in ((0.0, _small_fiber_families()), (1e-15, _large_fiber_families())):
        for fname, fam in fams.items():
            for aname, adv in sorted(ADVERSARIES.items()):
                want_p1, want_proj = _ladder_reference(fam, adv, dist)
                res = hybrid_ladder_exact(fam, adv, dist)
                case = (fname, aname)
                if tol == 0.0:
                    assert res.prob1 == want_p1, case
                    assert res.proj_success == want_proj, case
                else:
                    for k, v in want_p1.items():
                        assert abs(res.prob1[k] - v) <= tol, (case, k)
                    for e, v in want_proj.items():
                        assert abs(res.proj_success[e] - v) <= tol, (case, e)


def test_ladder_relations_at_scale():
    fams = {"two-to-one-8": two_to_one_family(8), **_large_fiber_families()}
    for fname, fam in fams.items():
        for adv in (OVERLAP_PROJECTOR, HONEST_DELETER):
            adv0, adv1, adv2, _ = hybrid_ladder_exact(fam, adv).adv
            assert adv2 <= 1e-12, (fname, adv.name)
            assert abs(adv1 - adv0 / 2) <= 1e-12, (fname, adv.name)


def test_ladder_does_not_depend_on_the_chunk_bound(monkeypatch):
    fams = {"two-to-one-5": two_to_one_family(5), "two-to-one-6": two_to_one_family(6),
            "fdelta-toy-8-2": _sampled_keys(fdelta_family(toy_regular_owf(8, 2)), n=1)}
    # one row per chunk, the bound's old value, its value, one chunk per key
    bounds = [1, 1 << 13, games._LADDER_CELLS, 1 << 40]
    for fname, fam in fams.items():
        for aname, adv in sorted(ADVERSARIES.items()):
            got = []
            for cells in bounds:
                monkeypatch.setattr(games, "_LADDER_CELLS", cells)
                res = hybrid_ladder_exact(fam, adv)
                got.append((repr(res.adv), repr(res.prob1), repr(res.proj_success)))
            assert got == got[:1] * len(bounds), (fname, aname)


def _padded_fold(totals, terms):
    """The fold with every row padded with +0.0 to the longest term."""
    flat = [t[0][t[1]].ravel() if isinstance(t, tuple) else t.ravel() for t in terms]
    stack = np.zeros((len(terms), 1 + max(len(f) for f in flat)))
    stack[:, 0] = totals
    for row, f in zip(stack, flat):
        row[1:1 + len(f)] = f
    return np.cumsum(stack, axis=1)[:, -1]


def test_fold_per_term_size_is_the_padded_fold():
    rng = np.random.default_rng(3)
    for _ in range(50):
        terms = []
        for _ in range(int(rng.integers(1, 9))):
            shape = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-17, 3, size=shape)
            if rng.random() < 0.5:
                terms.append((a, rng.integers(0, len(a), size=int(rng.integers(1, 9)))))
            else:
                terms.append(a)
        totals = rng.standard_normal(len(terms))
        got, want = games._fold(totals, terms), _padded_fold(totals, terms)
        assert got.tobytes() == want.tobytes()


# --- the z-class ladder against the per-z ladder -------------------------------

def _scalar_fold(total: float, terms: np.ndarray) -> float:
    """total plus every entry of ``terms``, strictly left to right in C order,
    as a scalar loop adds them."""
    flat = np.array(terms, dtype=np.float64).ravel()
    if flat.size == 0:
        return total
    flat[0] += total
    return float(np.cumsum(flat, out=flat)[-1])


def _per_z_ladder(family, adversary, dist=None):
    """The batched ladder as it was before z-sign classes: every term
    evaluated once per z, and each of the ten sums folded on its own."""
    keys = games._keys_for_exact(family)
    wk = 1.0 / len(keys)
    acc = dict.fromkeys(("exp0b0", "exp0b1", "exp1b0", "exp1b1", "proj2", "succ2",
                         "valid2", "proj3", "succ3", "valid3"), 0.0)

    for key, _ in keys:
        dom = family.table(key, dist)
        _, fib = dom.fibers
        py_all, psi_all = dom.fiber_states
        post_all, pv_all, i0_all = dom.m_groups
        z = np.arange(1 << dom.mbits)[None, :, None]
        wz = 1.0 / z.size
        ny, nf = fib.shape
        nv = pv_all.shape[1]
        nk = len(dom.images) if adversary.cert == "uniform-domain" else 1
        step = max(1, (1 << 13) // (z.size * nv * max(nk, nf * nf)))
        for lo in range(0, ny, step):
            rows = np.arange(lo, min(lo + step, ny))
            py, psi, post, pv = py_all[rows], psi_all[rows], post_all[rows], pv_all[rows]
            spi = dom.sign(z, fib[rows][:, None, :])  # (Y, Z, F)
            acc["exp0b0"] = _scalar_fold(acc["exp0b0"], games._exp0_terms(
                adversary, dom, rows, py, psi[:, None], np.ones((len(rows), 1)), psi, wk))
            acc["exp0b1"] = _scalar_fold(acc["exp0b1"], games._exp0_terms(
                adversary, dom, rows, py, post, pv, psi, wk))
            # Exp1 and Exp2 share the joint state (|0>psi + |1>Z_z psi)/sqrt2
            t12 = games._c_register_terms(adversary, dom, rows, psi[:, None], spi[:, :, None],
                                          z[..., None], psi, (py * wz)[:, None], wk)
            # Exp3: measure M first, then the same C machinery
            s3 = dom.sign(z, i0_all[rows][:, None, :])[..., None]
            t3 = games._c_register_terms(adversary, dom, rows, post, s3, z[..., None], psi,
                                         (py * wz)[:, None] * pv, wk)

            def every_z(a):  # terms that do not depend on z come with one
                return np.broadcast_to(a, (len(rows), z.size) + a.shape[2:])

            for name in ("exp1b0", "exp1b1"):
                acc[name] = _scalar_fold(acc[name], every_z(t12[name]))
            for e, t in ((2, t12), (3, t3)):
                for name in ("proj", "succ", "valid"):
                    acc[f"{name}{e}"] = _scalar_fold(acc[f"{name}{e}"], every_z(t[name]))

    p1 = {(e, b): acc[f"exp{e}b{b}"] if e < 2 else acc[f"proj{e}"]
          for e in range(4) for b in (0, 1)}
    advs = tuple(abs(p1[(e, 0)] - p1[(e, 1)]) for e in range(4))
    proj = {e: (acc[f"succ{e}"] / acc[f"valid{e}"] if acc[f"valid{e}"] else 1.0)
            for e in (2, 3)}
    return games.LadderResult(adv=advs, prob1={f"exp{e}b{b}": p1[(e, b)]
                                               for e in range(4) for b in (0, 1)},
                              proj_success=proj)


def _sign_class_families():
    """Identity-M families (2^bits values of z; fibers of 2 and, composed, of
    16) and f_Delta families (fibers of 4 to 16, two values of z)."""
    fams = {f"two-to-one-{b}": two_to_one_family(b) for b in range(2, 10)}
    fams["compose-6-cg-2"] = _sampled_keys(compose_balanced(
        toy_regular_owf(6, 1), chor_goldreich_family(2, 5, 2)))
    for m, r in ((4, 1), (5, 1), (6, 2), (7, 2), (8, 3)):
        fams[f"fdelta-toy-{m}-{r}"] = _sampled_keys(fdelta_family(toy_regular_owf(m, r)))
    return fams


@pytest.mark.parametrize("dist", [None, _skewed], ids=["uniform", "skewed"])
def test_sign_class_ladder_matches_the_per_z_ladder(dist):
    for fname, fam in _sign_class_families().items():
        for aname, adv in sorted(ADVERSARIES.items()):
            if adv.cert == "uniform-domain" and fam.domain.size > 1 << 7:
                continue  # one branch per domain value: O(D^2 2^bits) terms
            want = _per_z_ladder(fam, adv, dist)
            got = hybrid_ladder_exact(fam, adv, dist)
            case = (fname, aname)
            assert repr(got.adv) == repr(want.adv), case
            assert repr(got.prob1) == repr(want.prob1), case
            assert repr(got.proj_success) == repr(want.proj_success), case


def test_sign_classes_group_cells_by_row_and_signs():
    rng = np.random.default_rng(0)
    for nf in (1, 3, 8, 9, 17):  # one, and more than one, byte of signs
        spi = rng.choice([-1.0, 1.0], size=(3, 16, nf))
        spi[:, 8:] = spi[:, :8]  # every class has two members at least
        real = np.ones((3, nf), dtype=bool)
        real[2, nf // 2:] = False  # a row with padding: its signs there do not count
        cls, rep = games._z_classes(spi, real)
        cells = [(y, tuple(spi[y, z][real[y]])) for y in range(3) for z in range(16)]
        assert len(rep) == len(set(cells))
        for i, cell in enumerate(cells):
            assert cells[rep[cls[i]]] == cell


# --- the fiber-column EVTC ensembles and exact TC against the per-y enumeration

def _evtc_reference(family, dist, adv):
    """The EVTC ensembles by the per-y enumeration as lists of (weight,
    label (key index, repr(y), repr(pi), valid), residual or None), every
    residual a state on the whole X register."""
    ens = {0: [], 1: []}
    keys = games._keys_for_exact(family)
    wk = 1.0 / len(keys)
    layout = qsim.RegisterLayout([("X", (2,) * family.domain.bits)])

    def residual_state(vec, dom):  # a bit domain's values are their register indices
        return qsim.QState(layout, np.asarray(vec, dtype=np.complex128))

    for ki, (key, _) in enumerate(keys):
        dom = _RefDom(family, key, dist)
        for j, py in dom.y_distribution():
            start = {0: [(1.0, dom.psi_y(j))]}
            start[1] = [(pv, post) for _, pv, post in dom.m_branches(j)]
            for b in (0, 1):
                for pv, xvec in start[b]:
                    for pc, pi, col in _ref_cert_branches(adv, dom, j, np.abs(xvec) ** 2):
                        valid = dom.valid(pi, j)
                        label = (ki, repr(dom.table.ys[j]), repr(dom.value(pi)), valid)
                        st = residual_state(_ref_residual(xvec, col, pc), dom) if valid else None
                        ens[b].append((wk * py * pv * pc, label, st))
    return ens[0], ens[1]


def _array_form(*lists):
    """List ensembles in array form: labels coded in order of first
    appearance, one row of the shared table per branch state."""
    codes, rows, cols = {}, [], []
    for branches in lists:
        state = []
        for _, _, st in branches:
            state.append(-1 if st is None else len(rows))
            if st is not None:
                rows.append(st.amps)
        cols.append(([p for p, _, _ in branches],
                     [codes.setdefault(lb, len(codes)) for _, lb, _ in branches], state))
    table = np.array(rows, dtype=np.complex128) if rows else np.zeros((0, 0), np.complex128)
    return [qsim.Ensemble.from_columns(*c, table) for c in cols]


def _decoded_branches(ens, family, dist):
    """(weight, (key index, repr(y), repr(pi), valid), fiber-column state or
    None) per branch of an array-form EVTC ensemble, the label decoded from
    its code (key index * D + y's row) * (D + 1) + pi + 1."""
    doms = [family.table(key, dist) for key, _ in games._keys_for_exact(family)]
    n = len(doms[0].images)
    out = []
    for p, code, s in ens.branches.tolist():
        rest, pi = divmod(code, n + 1)
        ki, r = divmod(rest, n)
        dom, pi = doms[ki], pi - 1
        valid = pi >= 0 and bool(dom.image_ids[pi] == r)
        label = (ki, repr(dom.ys[r]), repr(None if pi < 0 else pi), valid)
        out.append((p, label, None if s < 0 else ens.states[s]))
    return out


def _tc_reference(family, dist, adversary):
    """The exact TC advantage by the per-y enumeration."""
    totals = {0: 0.0, 1: 0.0}
    keys = games._keys_for_exact(family)
    for key, _ in keys:
        dom = _RefDom(family, key, dist)
        for j, py in dom.y_distribution():
            psi = dom.psi_y(j)
            totals[0] += py * games._guess_p1(adversary, psi, psi)
            for _, pv, post in dom.m_branches(j):
                totals[1] += py * pv * games._guess_p1(adversary, psi, post)
    return abs(totals[0] - totals[1]) / len(keys)


def _assert_ensemble_matches(got, want, family, dist, tol, case):
    """Same decoded labels in the same order; weights, and each fiber-column
    residual embedded into the whole register through its fiber, within
    ``tol`` (``tol`` = 0: repr-equal weights and equal states)."""
    got = _decoded_branches(got, family, dist)
    assert [lb for _, lb, _ in got] == [lb for _, lb, _ in want], case
    fibers = {}
    for ki, (key, _) in enumerate(games._keys_for_exact(family)):
        dom = family.table(key, dist)
        fib = dom.fibers[1]
        for r, y in enumerate(dom.ys):
            fibers[(ki, repr(y))] = fib[r][fib[r] >= 0]
    for (p, label, st), (q, _, ref) in zip(got, want):
        if tol == 0.0:
            assert repr(float(p)) == repr(float(q)), (case, label)
        else:
            assert abs(p - q) <= tol, (case, label)
        assert (st is None) == (ref is None), (case, label)
        if st is None:
            continue
        cols = fibers[label[:2]]
        embedded = np.zeros_like(ref.amps)
        embedded[cols] = st[:len(cols)]
        assert not st[len(cols):].any(), (case, label)
        assert np.max(np.abs(embedded - ref.amps)) <= tol, (case, label)


@pytest.mark.parametrize("dist", [None, _skewed], ids=["uniform", "skewed"])
def test_fiber_column_evtc_matches_per_y_reference(dist):
    for large, fams in ((False, _small_fiber_families()), (True, _large_fiber_families())):
        # under skewed weights, psi_y on 8- and 16-wide fibers is normalised
        # over the fiber columns here and over the whole register by the
        # reference, which moves it by an ulp
        tol = 1e-15 if large and dist is not None else 0.0
        for fname, fam in fams.items():
            for aname, adv in sorted(ADVERSARIES.items()):
                case = (fname, aname)
                e0, e1 = ev_target_collapse_ensembles(fam, dist, adv)
                r0, r1 = _evtc_reference(fam, dist, adv)
                _assert_ensemble_matches(e0, r0, fam, dist, tol, case)
                _assert_ensemble_matches(e1, r1, fam, dist, tol, case)
                td = ensemble_trace_distance(e0, e1)
                want = ensemble_trace_distance(*_array_form(r0, r1))
                assert abs(td - want) <= 1e-15, case
                got = target_collapse_advantage_exact(fam, dist, adv)
                want = _tc_reference(fam, dist, adv)
                if tol == 0.0:
                    assert repr(got) == repr(float(want)), case
                else:
                    assert abs(got - want) <= tol, case


def test_evtc_at_scale_on_fiber_columns():
    fam = _sampled_keys(fdelta_family(toy_regular_owf(12, 2)), n=2)
    for adv in (HONEST_DELETER, GARBAGE_CERTIFIER):
        assert ensemble_trace_distance(*ev_target_collapse_ensembles(fam, None, adv)) <= 1e-10
    # the overlap projector keeps psi_y against its M-dephased mixture: the
    # TD is sum_y Pr[y] sqrt(p0 p1) = sum_y sqrt(A0 A1) / |domain|, per key
    closed = 0.0
    for key, _ in fam.keys():
        for y in sorted({fam.eval(key, x) for x in range(fam.domain.size)}):
            a0, a1 = hashfam.fiber_split(*fam.tabulate(key), y)
            closed += math.sqrt(a0 * a1) / fam.domain.size
    closed /= len(fam.keys())
    assert closed == 0.5
    td = ensemble_trace_distance(*ev_target_collapse_ensembles(fam, None, OVERLAP_PROJECTOR))
    assert abs(td - closed) <= 1e-12


# --- pinned Monte Carlo draws -------------------------------------------------

MC_GOLDEN = "tests/golden/mc_games.json"


# a measured certificate with a projecting second stage: the one pairing in
# which a sampled run's bit depends on the measured residual
MEASURING_PROJECTOR = games.Adversary("measuring-projector", "measure", "project0")


def mc_values() -> dict:
    """Sampled-game outputs: the CLI's tc / evtc / ladder stdout for every
    scripted adversary at seed 1 with the trial counts of the mc-protocols
    benchmark, and the API's transcripts and bits under uniform and skewed
    weights, interleaved so that consecutive runs change the weights and the
    adversary, on a family that samples a fresh key per run and on the
    single-key 2-to-1 family."""
    out = {}
    for exp, trials in (("tc", 20), ("evtc", 20), ("ladder", 5)):
        for aname in sorted(ADVERSARIES):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["game", "run", "--exp", exp, "--adv", aname,
                                 "--trials", str(trials), "--seed", "1"])
            out[f"cli/{exp}/{aname}"] = [code, stdout.getvalue()]
    advs = sorted([*ADVERSARIES.values(), MEASURING_PROJECTOR], key=lambda a: a.name)
    for fname, fam in (("fdelta-toy-6-2", fdelta_family(toy_regular_owf(6, 2))),
                       ("two-to-one-3", two_to_one_family(3))):
        for seed in range(4):
            for adv in advs:
                for b in (0, 1):
                    for dname, dist in (("uniform", None), ("skewed", _skewed)):
                        rng = np.random.default_rng(100 * seed + b)
                        tr, = ev_target_collapse_exp(fam, dist, adv, [b], [rng], seeds=[seed])
                        bit, = target_collapse_exp(fam, dist, adv, [b],
                                                   [np.random.default_rng(100 * seed + 2 + b)])
                        out[f"api/{fname}/{dname}/{adv.name}/{seed}/{b}"] = [
                            dataclasses.asdict(tr), bit]
                    out[f"api/{fname}/ladder/{adv.name}/{seed}/{b}"] = [
                        hybrid_ladder_mc(fam, adv, e, [b],
                                         [np.random.default_rng(100 * seed + 10 * e + b)])[0]
                        for e in range(4)]
    return out


def test_monte_carlo_draws_match_pinned_golden():
    with open(MC_GOLDEN) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(mc_values()))
    assert got.keys() == want.keys()
    for case, vals in want.items():
        assert got[case] == vals, case


# --- the sampled games against the per-run protocol on qsim states -------------
#
# The verbatim reference: one run at a time, every state on the whole C-by-X
# register, with the qsim operations the protocol names. The batched games
# must give the same bits and transcripts and leave every generator in the
# same state.

def _ref_pick(p, rng):
    k = np.flatnonzero(p)
    return int(k[qsim.draw_index(p[k] / p[k].sum(), rng)])


def _ref_sample_challenge(family, dist, b, rng):
    key, _ = family.sample(rng)
    dom = family.table(key, dist)
    py, psi = dom.fiber_states
    r = qsim.draw_index(py, rng)
    if check_bit(b):
        post, pv, _ = dom.m_groups
        return dom, r, post[r, _ref_pick(pv[r], rng)]
    return dom, r, psi[r]


def _ref_sample_certificate(adv, dom, r, mass, rng):
    full = np.zeros(dom.fibers[1].shape[1])
    full[:len(mass)] = mass
    pc, pi, fpos, valid = (a.ravel() for a in np.broadcast_arrays(
        *games._ladder_branches(adv, dom, np.array([r]), full[None, None])))
    k = _ref_pick(pc, rng)
    return int(pi[k]), int(fpos[k]) if adv.cert == "measure" else None, bool(valid[k])


def _ref_tc(family, dist, adversary, b, rng):
    dom, r, xvec = _ref_sample_challenge(family, dist, b, rng)
    return int(rng.random() < games._guess_p1(adversary, dom.fiber_states[1][r], xvec))


def _ref_evtc(family, dist, adv_pair, b, rng, seed=0):
    dom, r, xvec = _ref_sample_challenge(family, dist, b, rng)
    pi, col, valid = _ref_sample_certificate(adv_pair, dom, r, np.abs(xvec) ** 2, rng)
    if valid:
        residual = xvec if col is None else np.eye(len(xvec))[col]
        bprime = int(rng.random() < games._guess_p1(adv_pair, dom.fiber_states[1][r], residual))
    else:
        bprime = int(rng.integers(0, 2))
    return games.GameTranscript(
        experiment="evtc", seed=seed, b=b, adversary=adv_pair.name,
        outputs={"y": repr(dom.ys[r]), "pi": repr(None if pi < 0 else pi),
                 "valid": bool(valid), "b_prime": bprime},
        verdict=bprime)


def _ref_ladder(family, adversary, exp, b, rng):
    b = check_bit(b)
    if exp == 0:
        return _ref_evtc(family, None, adversary, b, rng).verdict
    dom, r, psi = _ref_sample_challenge(family, None, 0, rng)
    fib = dom.fibers[1][r]
    reg = fib[fib >= 0]
    target = psi = psi[:len(reg)]
    layout = qsim.RegisterLayout([("C", (2,)), ("X", (2,) * family.domain.bits)])

    def c_state(rows):
        amps = np.zeros((2, layout.dim // 2), dtype=np.complex128)
        amps[:, reg] = rows
        return qsim.QState(layout, amps)

    z = int(rng.integers(0, 1 << dom.mbits))
    if exp == 3:
        post, pv, _ = dom.m_groups
        psi = post[r, _ref_pick(pv[r], rng), :len(reg)]
    state = controlled_phase_fn(c_state(np.stack([psi, psi]) / math.sqrt(2)), "C", "X",
                                dom.sign(z))
    rows = state.amps.reshape(2, -1)[:, reg]
    mass = np.sum(np.abs(rows) ** 2, axis=0)
    pi, col, valid = _ref_sample_certificate(adversary, dom, r, mass, rng)
    if not valid:
        return int(rng.integers(0, 2))
    if col is not None:
        kept = np.zeros_like(rows)
        kept[:, col] = rows[:, col] / math.sqrt(mass[col])
        rows = kept
    state = c_state(rows)
    if exp >= 2:
        phi = np.array([1.0, dom.sign(z, pi)]) / math.sqrt(2)
        if rng.random() >= qsim.project_prob(state, "C", phi):
            return int(rng.integers(0, 2))
        _, state = project(state, "C", phi)
    out = qsim.measure(state, "C", rng)
    if out.value[0] != b:
        return int(rng.integers(0, 2))
    xvec = drop_segment(out.post_state, "C", out.value).amps[reg]
    return int(rng.random() < games._guess_p1(adversary, target, xvec))


def _kept_by_content(fam):
    """An f_Delta family over a toy OWF that keeps each table by its key's
    content: a batch and its per-run reference draw equal keys from equal
    seeds, and so build each table once."""
    tables, build = {}, fam.table

    def table(key, dist=None):
        at = (key[0].tobytes(), key[1], dist)
        if at not in tables:
            tables[at] = build(key, dist)
        return tables[at]

    fam.table = table
    return fam


def _batch_families():
    """Two single-key families, whose runs form one group, and one that
    samples a fresh key per run, whose runs form groups of one."""
    return {"two-to-one-3": two_to_one_family(3), "two-to-one-5": two_to_one_family(5),
            "fdelta-toy-6-2": _kept_by_content(fdelta_family(toy_regular_owf(6, 2)))}


def _check_batch(play, reference, bs, seeds, case) -> list:
    """The batch ``play(bs, rngs, seeds)`` against ``reference(b, rng,
    seed)`` run by run: equal results, and every generator's next draw
    equal. Returns the batch's results."""
    rngs = [np.random.default_rng(s) for s in seeds]
    got = play(bs, rngs, seeds)
    for b, s, rng, res in zip(bs, seeds, rngs, got):
        ref_rng = np.random.default_rng(s)
        assert res == reference(b, ref_rng, s), (case, s, b)
        assert rng.random() == ref_rng.random(), (case, s, b)
    return got


# every scripted adversary, and a measured certificate with a projecting second stage
_BATCH_ADVERSARIES = sorted([*ADVERSARIES.values(), MEASURING_PROJECTOR], key=lambda a: a.name)
_BATCH = [s % 2 for s in range(200)], list(range(200))  # (b, seed): 200 seeds, b = seed mod 2


@pytest.mark.parametrize("dist", [None, _skewed], ids=["uniform", "skewed"])
def test_batched_tc_and_evtc_match_the_per_run_protocol(dist):
    for fname, fam in _batch_families().items():
        for adv in _BATCH_ADVERSARIES:
            case = (fname, adv.name)
            _check_batch(lambda bs, rngs, _: target_collapse_exp(fam, dist, adv, bs, rngs),
                         lambda b, rng, _: _ref_tc(fam, dist, adv, b, rng), *_BATCH, case)
            got = _check_batch(
                lambda bs, rngs, seeds: [dataclasses.asdict(t) for t in ev_target_collapse_exp(
                    fam, dist, adv, bs, rngs, seeds=seeds)],
                lambda b, rng, s: dataclasses.asdict(_ref_evtc(fam, dist, adv, b, rng, seed=s)),
                *_BATCH, case)
            if adv.cert in ("uniform-domain", "zero"):  # the batch mixes both kinds of run
                assert {tr["outputs"]["valid"] for tr in got} == {False, True}, case
            if dist is None:  # Exp0 is the experiment, and the per-run Exp0 its verdict
                assert hybrid_ladder_mc(fam, adv, 0, _BATCH[0], [
                    np.random.default_rng(s) for s in _BATCH[1]]) == [tr["verdict"] for tr in got]


def test_pick_divides_each_row_by_the_sum_of_its_nonzero_entries(monkeypatch):
    """qsim.draw_weights draws from each row divided by p[k].sum() over its
    nonzero entries k, bit for bit, as the per-run pick does; a sum over the
    whole row, zeros included, adds in another order from 8 entries on."""
    rng = np.random.default_rng(5)
    p = rng.random((300, 40)) * (rng.random((300, 40)) < rng.random((300, 1)))
    p[:, 0] += 1e-3
    seen = []
    draw_rows = qsim.draw_rows
    monkeypatch.setattr(qsim, "draw_rows", lambda w, rngs: seen.append(w) or draw_rows(w, rngs))
    qsim.draw_weights(p, [np.random.default_rng(s) for s in range(len(p))])
    for row, got in zip(p, seen[0]):
        k = np.flatnonzero(row)
        want = np.zeros_like(row)
        want[k] = row[k] / row[k].sum()
        assert got.tobytes() == want.tobytes()


def test_batched_ladder_matches_the_per_run_protocol():
    for fname, fam in _batch_families().items():
        for adv in _BATCH_ADVERSARIES:
            for exp in (1, 2, 3):  # Exp0 with the EVTC runs above
                _check_batch(lambda bs, rngs, _: hybrid_ladder_mc(fam, adv, exp, bs, rngs),
                             lambda b, rng, _: _ref_ladder(fam, adv, exp, b, rng),
                             *_BATCH, (fname, adv.name, exp))


def table_family(images: np.ndarray, mvals: np.ndarray | None) -> HashFamily:
    """A one-key family whose function is the table ``images`` over
    {0,1}^bits (its length is 2^bits), measured by ``mvals`` or, without
    them, by the identity M. Every run samples the one key, so a batch's
    runs form one group."""
    bits = len(images).bit_length() - 1
    return HashFamily(name="table", domain=BitDomain(bits), range_bits=bits,
                      sample=lambda rng: ("table", None),
                      tabulate=lambda key: (images, mvals), measured=mvals is not None,
                      keys=lambda: [("table", None)])


@given(st.data(), st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_batched_games_match_the_per_run_protocol_on_any_table(data, bits, seed):
    """On arbitrary tables (fibers of any sizes, so padded fiber columns, and
    any M partition) under uniform or arbitrary weights, one batch of 12
    runs of a drawn adversary gives the per-run protocol's TC bits, EVTC
    transcripts and Exp1-Exp3 bits, and leaves every generator in its
    state."""
    n = 1 << bits
    ints = st.lists(st.integers(0, data.draw(st.integers(1, n))), min_size=n, max_size=n)
    images = np.array(data.draw(ints))
    mvals = np.array(data.draw(ints)) if data.draw(st.booleans()) else None
    fam = table_family(images, mvals)
    if data.draw(st.booleans()):
        w = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        dist = w.__getitem__
    else:
        dist = None
    adv = data.draw(st.sampled_from(_BATCH_ADVERSARIES))
    bs = data.draw(st.lists(st.integers(0, 1), min_size=12, max_size=12))
    seeds = [seed + i for i in range(12)]
    _check_batch(lambda bs, rngs, _: target_collapse_exp(fam, dist, adv, bs, rngs),
                 lambda b, rng, _: _ref_tc(fam, dist, adv, b, rng), bs, seeds, "tc")
    _check_batch(lambda bs, rngs, seeds: [dataclasses.asdict(t) for t in ev_target_collapse_exp(
        fam, dist, adv, bs, rngs, seeds=seeds)],
        lambda b, rng, s: dataclasses.asdict(_ref_evtc(fam, dist, adv, b, rng, seed=s)),
        bs, seeds, "evtc")
    for exp in (1, 2, 3):
        _check_batch(lambda bs, rngs, _: hybrid_ladder_mc(fam, adv, exp, bs, rngs),
                     lambda b, rng, _: _ref_ladder(fam, adv, exp, b, rng), bs, seeds, exp)
