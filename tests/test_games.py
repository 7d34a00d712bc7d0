import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from deletia import cli, configs, games, hashfam, qsim
from deletia.games import (
    ADVERSARIES,
    BRUTE_FORCE_INVERTER,
    GARBAGE_CERTIFIER,
    HONEST_DELETER,
    NOOP_CERTIFIER,
    OVERLAP_PROJECTOR,
    SGCParams,
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
    chor_goldreich_family,
    compose_balanced,
    fdelta_family,
    toy_regular_owf,
    two_to_one_family,
)
from deletia.qsim import ensemble_trace_distance
from deletia.zqcore import ZqVector, centered_array, structured_ajtai_keygen, zq_box


FAM = two_to_one_family(3)


# --- target collapsing ----------------------------------------------------

def test_tc_random_guesser_has_no_advantage():
    wins = {0: 0, 1: 0}
    trials = 2000
    for t in range(trials):
        for b in (0, 1):
            rng = np.random.default_rng(t * 2 + b)
            wins[b] += target_collapse_exp(FAM, None, games.RANDOM_GUESSER, b, rng)
    adv = abs(wins[0] - wins[1]) / trials
    sd = math.sqrt(2 * 0.25 / trials)
    assert adv <= 3 * sd


def test_tc_overlap_projector_exact_matches_monte_carlo():
    exact = target_collapse_advantage_exact(FAM, None, OVERLAP_PROJECTOR)
    assert exact == pytest.approx(0.5, abs=1e-12)  # 2-to-1 fibers, identity M
    trials = 2000
    wins = {0: 0, 1: 0}
    for t in range(trials):
        for b in (0, 1):
            rng = np.random.default_rng(10_000 + t * 2 + b)
            wins[b] += target_collapse_exp(FAM, None, OVERLAP_PROJECTOR, b, rng)
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
    for t in range(2500):
        for b in (0, 1):
            tr = ev_target_collapse_exp(FAM, None, GARBAGE_CERTIFIER, b,
                                        np.random.default_rng(t * 2 + b))
            counts[(b, tr.verdict)] += 1
    table = np.array([[counts[(0, 0)], counts[(0, 1)]],
                      [counts[(1, 0)], counts[(1, 1)]]])
    assert stats.chi2_contingency(table).pvalue > 1e-3


def test_evtc_brute_force_validity_rate_matches_counting():
    # uniform-domain guesses are valid with probability sum_y P(y) |fiber|/|dom|
    dom_size = FAM.domain.size
    key = FAM.keys()[0][0]
    fibers = {}
    for x in FAM.domain.values():
        fibers.setdefault(FAM.eval(key, x), []).append(x)
    expect = sum((len(f) / dom_size) * (len(f) / dom_size) for f in fibers.values())
    valid = 0
    trials = 3000
    for t in range(trials):
        tr = ev_target_collapse_exp(FAM, None, BRUTE_FORCE_INVERTER, t % 2,
                                    np.random.default_rng(t))
        valid += tr.outputs["valid"]
    sd = math.sqrt(trials * expect * (1 - expect))
    assert abs(valid - expect * trials) <= 4 * sd


def test_evtc_transcripts_replay_byte_identical():
    a = ev_target_collapse_exp(FAM, None, HONEST_DELETER, 1,
                               np.random.default_rng(99), seed=99)
    b = ev_target_collapse_exp(FAM, None, HONEST_DELETER, 1,
                               np.random.default_rng(99), seed=99)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


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
        wins = {0: 0, 1: 0}
        for t in range(trials):
            for b in (0, 1):
                rng = np.random.default_rng(40_000 + t * 8 + exp * 2 + b)
                wins[b] += hybrid_ladder_mc(FAM, OVERLAP_PROJECTOR, exp, b, rng)
        mc = abs(wins[0] - wins[1]) / trials
        sd = math.sqrt(2 * 0.25 / trials)
        assert abs(mc - res.adv[exp]) <= 4 * sd


def test_ladder_needs_enumerable_keys():
    fam = hashfam.ajtai_family(1, 2, 5, 3.0)
    with pytest.raises(ValueError):
        hybrid_ladder_exact(fam, HONEST_DELETER)


# --- strong Gaussian collapsing ---------------------------------------------

def test_sgc_honest_deleter_valid_and_advantage_zero():
    params = configs.SGC_DESK
    valid = 0
    trials = 100
    for t in range(trials):
        tr = strong_gauss_collapse_exp(params, HONEST_DELETER, t % 2,
                                       np.random.default_rng(t))
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
    A, _ = structured_ajtai_keygen(params.n, params.m, q, np.random.default_rng(5))
    box = zq_box(q, params.m)
    assert np.array_equal(e0.branches, e1.branches)
    for i, (_, code, state) in enumerate(e0.branches.tolist()):
        rest, valid = divmod(code, 2)
        image, idx = divmod(rest, len(box))
        c = centered_array(box[i], q)
        assert (idx, state) == (i, -1)
        assert image == int(np.polyval((A.entries @ box[i]) % q, q))  # digits, first row high
        assert valid == (Fraction(int(c @ c)) <= params.witness_bound_sq())
    assert abs(e0.branches["p"].sum() - 1.0) <= 1e-12


def test_sgc_noop_certifier_gets_random_bit():
    params = configs.SGC_DESK
    outs = {0: 0, 1: 0}
    invalid = 0
    for t in range(600):
        tr = strong_gauss_collapse_exp(params, NOOP_CERTIFIER, t % 2,
                                       np.random.default_rng(t))
        nonzero_image = any(tr.outputs["y"])
        # w = 0 is a valid witness only when the image is zero
        assert tr.outputs["valid"] == (not nonzero_image)
        if not tr.outputs["valid"]:
            invalid += 1
            outs[tr.verdict] += 1
    assert invalid >= 100
    sd = math.sqrt(invalid * 0.25)
    assert abs(outs[0] - invalid / 2) <= 4 * sd


def test_sgc_trapdoor_annihilates_matrix():
    params = configs.SGC_DESK
    for t in range(30):
        tr = strong_gauss_collapse_exp(params, HONEST_DELETER, 0,
                                       np.random.default_rng(t))
        if tr.outputs["trapdoor"] is None:
            continue
        # re-derive A from the transcript is not possible; check via keygen
    from deletia.zqcore import structured_ajtai_keygen
    for seed in range(30):
        A, t_vec = structured_ajtai_keygen(params.n, params.m, params.q,
                                           np.random.default_rng(seed))
        flipped = ZqVector((-t_vec.entries) % params.q, params.q)  # (xbar, -1)
        assert not (A @ flipped).entries.any()


def test_sgc_witness_norm_bound_enforced():
    params = SGCParams(n=1, m=3, q=7, sigma_sq=configs.SGC_DESK.sigma_sq)
    # direct check of the exact-rational bound: ||w||^2 <= sigma^2 m / 2 = 6
    assert params.witness_bound_sq() == 6
    tr = strong_gauss_collapse_exp(params, HONEST_DELETER, 0,
                                   np.random.default_rng(0))
    w = np.asarray(tr.outputs["w"])
    c = np.where(2 * w > params.q, w - params.q, w)
    if tr.outputs["valid"]:
        assert int(c @ c) <= 6


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
    wins = {0: 0, 1: 0}
    for t in range(trials):
        for b in (0, 1):
            rng = np.random.default_rng(70_000 + t * 2 + b)
            wins[b] += hybrid_ladder_mc(FAM, HONEST_DELETER, 0, b, rng)
    mc = abs(wins[0] - wins[1]) / trials
    assert abs(mc - res.adv[0]) <= 4 * math.sqrt(2 * 0.25 / trials)


def test_tcr_exp_aux_plumbing():
    fam = fdelta_family(toy_regular_owf(6, 2))
    tr_plain = hashfam.tcr_game(fam, hashfam.brute_force_tcr_adversary,
                                np.random.default_rng(4))
    tr_match = hashfam.tcr_game(fam, hashfam.brute_force_tcr_adversary,
                                np.random.default_rng(4))
    assert (tr_plain.y, tr_plain.v, tr_plain.answer) == \
        (tr_match.y, tr_match.v, tr_match.answer)
    seen = []

    def leak(td):
        seen.append(td)
        return td

    hashfam.tcr_game(fam, hashfam.brute_force_tcr_adversary,
                     np.random.default_rng(5), aux=leak)
    assert len(seen) == 1


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

class _RefDom(games._Dom):
    """The per-y view of one key's domain table that the scalar references
    enumerate: images by their position j in ``ys``, every state on the whole
    domain."""

    def y_distribution(self) -> list[tuple[int, float]]:
        """(position j of y in the table's ys, Pr[y]) in repr order of y."""
        py = np.bincount(self.table.image_ids, weights=self.weights,
                         minlength=len(self.table.ys))
        return [(j, py[j]) for j in self.table.repr_order()]

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
        identity = self.family.measure is None
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


# --- the fiber-column EVTC ensembles and exact TC against the per-y enumeration

def _evtc_reference(family, dist, adv):
    """The EVTC ensembles by the per-y enumeration as lists of (weight,
    label (key index, repr(y), repr(pi), valid), residual or None), every
    residual a state on the whole X register."""
    ens = {0: [], 1: []}
    keys = games._keys_for_exact(family)
    wk = 1.0 / len(keys)
    layout = qsim.RegisterLayout([("X", family.domain.register_dims())])

    def residual_state(vec, dom):
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[dom.table.reg_index] = vec
        return qsim.QState(layout, amps)

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
    doms = [games._Dom(family, key, dist) for key, _ in games._keys_for_exact(family)]
    n = len(doms[0].values)
    out = []
    for p, code, s in ens.branches.tolist():
        rest, pi = divmod(code, n + 1)
        ki, r = divmod(rest, n)
        dom, pi = doms[ki], pi - 1
        valid = pi >= 0 and bool(dom.fibers[0][pi] == r)
        label = (ki, repr(dom.ys[r]), repr(None if pi < 0 else dom.values[pi]), valid)
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
        dom = games._Dom(family, key, dist)
        fib = dom.fibers[2]
        for r, j in enumerate(dom.table.repr_order()):
            fibers[(ki, repr(dom.table.ys[j]))] = dom.table.reg_index[fib[r][fib[r] >= 0]]
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
        for y in sorted({fam.eval(key, x) for x in fam.domain.values()}):
            a0, a1 = hashfam.fiber_split(fam, key, y)
            closed += math.sqrt(a0 * a1) / fam.domain.size
    closed /= len(fam.keys())
    assert closed == 0.5
    td = ensemble_trace_distance(*ev_target_collapse_ensembles(fam, None, OVERLAP_PROJECTOR))
    assert abs(td - closed) <= 1e-12


# --- pinned Monte Carlo draws -------------------------------------------------

MC_GOLDEN = "tests/golden/mc_games.json"


# a measured certificate with a projecting second stage: the one pairing in
# which a sampled run's bit depends on the measured residual
MEASURING_PROJECTOR = games.Adversary("measuring-projector", "test", "measure", "project0")


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
                        tr = ev_target_collapse_exp(fam, dist, adv, b, rng, seed=seed)
                        bit = target_collapse_exp(fam, dist, adv, b,
                                                  np.random.default_rng(100 * seed + 2 + b))
                        out[f"api/{fname}/{dname}/{adv.name}/{seed}/{b}"] = [tr.to_json(), bit]
                    out[f"api/{fname}/ladder/{adv.name}/{seed}/{b}"] = [
                        hybrid_ladder_mc(fam, adv, e, b, np.random.default_rng(100 * seed + 10 * e + b))
                        for e in range(4)]
    return out


def test_monte_carlo_draws_match_pinned_golden():
    with open(MC_GOLDEN) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(mc_values()))
    assert got.keys() == want.keys()
    for case, vals in want.items():
        assert got[case] == vals, case
