"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured quantity and runtime."""

import itertools
import math
import time

import numpy as np
import pytest

from deletia import cli, configs, dualfhe as fhe, dualregev as dr, games, hashfam, pvdcore, qsim
from deletia.qsim import ensemble_trace_distance
from deletia.zqcore import gadget_matrix
from pvdcore_ref import block_overlap


def report(name: str, ok: bool, detail: str, t0: float, budget: float):
    dt = time.time() - t0
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({dt:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert dt < budget, f"{name} exceeded its {budget}s budget ({dt:.1f}s)"


def test_criterion_1_pauli_twirl_identity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        nq = 2 + trial % 2
        layout = qsim.RegisterLayout([("X", (2,) * nq)])
        states = [qsim.QState(layout, (lambda a: a / np.linalg.norm(a))(
            rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)))
            for _ in range(3)]
        w = rng.random(3)
        rho = qsim.DensityOp.mixture(list(zip(w / w.sum(), states)))
        out = qsim.pauli_twirl_channel(rho, "X")
        # oracle: keep only the diagonal of the twirled segment
        want = np.diag(np.diag(rho.matrix))
        worst = max(worst, float(np.max(np.abs(out.matrix - want))))
    report("criterion 1 (Pauli-Z twirl)", worst < 1e-12,
           f"max entry error {worst:.2e} over 50 densities", t0, 5)


def test_criterion_2_duality_lemma():
    t0 = time.time()
    params = configs.DR_EXACT
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        keys = dr.dr_keygen(params, rng)
        for b in (0, 1):
            ct = dr.dr_encrypt(keys, b, np.random.default_rng(seed + 50))
            ref = dr.dual_ciphertext_sum(ct.vk[0], ct.vk[1],
                                         dr.plaintext_offset(params, b), params.sigma)
            worst = max(worst, qsim.trace_distance(ct.state, ref))
    report("criterion 2 (duality at n=1,m=2,q=13,sigma=3)", worst <= 0.05,
           f"max TD {worst:.4f} <= 0.05", t0, 30)


def test_criterion_3_dual_regev_pke():
    t0 = time.time()
    params = configs.DR_ROUNDTRIP
    rng = np.random.default_rng(0)
    keys = dr.dr_keygen(params, rng)
    correct = 0
    for t in range(200):
        b = t % 2
        correct += dr.dr_decrypt(keys, dr.dr_encrypt(keys, b, rng), rng) == b
    accepted = 0
    for t in range(200):
        ct = dr.dr_encrypt(keys, t % 2, rng)
        accepted += dr.dr_verify(ct.vk, dr.dr_delete(ct, rng), params)
    # exact certificate-distribution comparison on a shared image
    exact_keys = dr.dr_keygen(configs.DR_EXACT, np.random.default_rng(1))
    ct0 = dr.dr_encrypt(exact_keys, 0, np.random.default_rng(9))
    ct1 = dr.dr_encrypt(exact_keys, 1, np.random.default_rng(9))
    d0 = qsim.marginal_probs(qsim.qft_inverse(ct0.state, "X"), "X")
    d1 = qsim.marginal_probs(qsim.qft_inverse(ct1.state, "X"), "X")
    tv = 0.5 * float(np.abs(d0 - d1).sum())
    ok = correct / 200 >= 0.95 and accepted / 200 >= 0.99 and tv <= 1e-10
    report("criterion 3 (Dual-Regev PKE)", ok,
           f"correct {correct}/200, deletion accepted {accepted}/200, cert TV {tv:.2e}",
           t0, 120)


def test_criterion_4_dual_regev_fhe():
    t0 = time.time()
    # classical NAND at validator-passing parameters
    rows = {n: s for n, s, _ in fhe.validate_noise_window(configs.FHE_CLASSICAL)}
    assert rows["fhe-noise-window"] == "pass" and rows["fhe-noise-lower-thm"] == "pass"
    rng = np.random.default_rng(0)
    keys = fhe.fhe_keygen(configs.FHE_CLASSICAL, rng)
    nand_ok = 0
    for t in range(100):
        leaves = [int(v) for v in rng.integers(0, 2, size=4)]
        dec, exp = fhe.nand_tree_eval(keys, leaves, rng)
        nand_ok += dec == exp
    # per-column quantum delete / verify
    qkeys = fhe.fhe_keygen(configs.FHE_QUANTUM, np.random.default_rng(1))
    rng_q = np.random.default_rng(2)
    acc = 0
    for t in range(100):
        ct = fhe.fhe_encrypt_q(qkeys, t % 2, rng_q)
        acc += fhe.fhe_verify(ct.vk, fhe.fhe_delete(ct, rng_q), configs.FHE_QUANTUM)
    # tensor-product equivalence at (n=1, m=1, q=5)
    tkeys = fhe.fhe_keygen(configs.FHE_TENSOR, np.random.default_rng(3))
    worst_td = 0.0
    for x in (0, 1):
        ct = fhe.fhe_encrypt_q(tkeys, x, np.random.default_rng(4 + x))
        A, Y = ct.vk
        G = gadget_matrix(A.q, A.rows)
        # the literal joint sum over two columns factorizes into column sums
        refs = [dr.dual_ciphertext_sum(A.transpose(), Y.column(j), x * G.entries[:, j],
                                       configs.FHE_TENSOR.sigma) for j in (0, 4)]
        layout = qsim.RegisterLayout([("C0", (A.q,) * A.rows), ("C1", (A.q,) * A.rows)])
        joint = qsim.QState(layout, np.kron(refs[0].amps, refs[1].amps))
        kron = qsim.QState(layout, np.kron(ct.columns[0].amps, ct.columns[4].amps))
        worst_td = max(worst_td, qsim.trace_distance(kron, joint))
    ok = nand_ok == 100 and acc / 100 >= 0.98 and worst_td <= 0.05
    report("criterion 4 (Dual-Regev FHE)", ok,
           f"NAND {nand_ok}/100 at depth 2, delete/verify {acc}/100, tensor TD {worst_td:.4f}",
           t0, 180)


def test_criterion_5_hybrid_ladder_relations():
    t0 = time.time()
    fam = hashfam.two_to_one_family(3)
    res = games.hybrid_ladder_exact(fam, games.OVERLAP_PROJECTOR)
    adv0, adv1, adv2, _ = res.adv
    ok = adv2 <= 1e-10 and abs(adv1 - adv0 / 2) <= 1e-9
    report("criterion 5 (hybrid ladder)", ok,
           f"Adv(Exp2) = {adv2:.2e}, Adv(Exp1) = {adv1:.6f} vs Adv(Exp0)/2 = {adv0 / 2:.6f}",
           t0, 60)


def test_criterion_6_certified_everlasting_zero_advantage():
    t0 = time.time()
    fam = hashfam.two_to_one_family(3)
    e0, e1 = games.ev_target_collapse_ensembles(fam, None, games.HONEST_DELETER)
    td_evtc = ensemble_trace_distance(e0, e1)
    s0, s1 = games.sgc_honest_ensembles(configs.SGC_DESK, np.random.default_rng(5))
    td_sgc = ensemble_trace_distance(s0, s1)
    ok = td_evtc <= 1e-10 and td_sgc <= 1e-10
    report("criterion 6 (certified everlasting)", ok,
           f"honest-deleter TD: experiment {td_evtc:.2e}, strong-collapse {td_sgc:.2e}",
           t0, 60)


def test_criterion_7_projector_inequality():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = math.inf
    all_hold = True
    for _ in range(1000):
        nproj = int(rng.integers(2, 5))
        dim = int(rng.integers(nproj + 1, 9))
        D, pis, psi = games.random_fact35_instance(rng, dim, nproj)
        res = games.fact35_check(D, pis, psi)
        worst = min(worst, res.lhs - res.rhs)
        all_hold &= res.holds
    # analytic cases
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    res1 = games.fact35_check(np.outer(plus, plus),
                              [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                              np.array([1.0, 0.0]))
    res2 = games.fact35_check(np.diag([1.0, 0.0]),
                              [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                              np.array([1.0, 0.0]))
    analytic_ok = (abs(res1.lhs - 0.25) < 1e-12 and abs(res1.rhs) < 1e-12
                   and res1.holds and abs(res2.lhs) < 1e-12
                   and abs(res2.rhs) < 1e-12 and res2.holds)
    ok = all_hold and worst >= -1e-9 and analytic_ok
    report("criterion 7 (projector inequality)", ok,
           f"1000 instances hold, worst slack {worst:.3e}", t0, 30)


def test_criterion_8_commitment_binding():
    t0 = time.time()
    fam = hashfam.fdelta_family(hashfam.toy_regular_owf(8, 2))
    reps = 6
    bal = hashfam.balance_estimate(fam, delta=None, trials=100,
                                   rng=np.random.default_rng(0))
    worst_eq = 0.0
    worst_honest = 1.0
    bound_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pair = pvdcore.commit(fam, 0, reps, rng)
        cross = pvdcore.open_accept_prob(pair, 1)
        product = 1.0
        for y in pair.images:
            product *= block_overlap(fam, pair.key, y) ** 2
        worst_eq = max(worst_eq, abs(cross - product))
        worst_honest = min(worst_honest, pvdcore.open_accept_prob(pair, 0))
        bound_ok &= cross <= (1 - bal.delta_hat) ** (2 * reps) + 1e-9
    ok = worst_eq < 1e-9 and bound_ok and worst_honest >= 1 - 1e-9
    report("criterion 8 (commitment binding)", ok,
           f"cross-open equals product to {worst_eq:.2e}, bounded by "
           f"(1-{bal.delta_hat:.3f})^{2 * reps}, honest >= {worst_honest:.12f}",
           t0, 60)


def test_criterion_9_balance_property():
    t0 = time.time()
    comp = hashfam.compose_balanced(hashfam.toy_regular_owf(10, 3),
                                    hashfam.chor_goldreich_family(6, 7, 5))
    fam = hashfam.fdelta_family(comp)
    assert fam.domain.size <= 2**12
    rep = hashfam.balance_estimate(fam, delta=None, trials=150,
                                   rng=np.random.default_rng(0))
    ok = rep.fraction_ok >= 0.99
    report("criterion 9 (balance property)", ok,
           f"fraction_ok {rep.fraction_ok:.4f} at measured delta {rep.delta_hat:.4f}",
           t0, 120)


def test_criterion_10_pke_from_phase_recoverability():
    t0 = time.time()
    fam = hashfam.fdelta_family(hashfam.toy_regular_owf(6, 2))
    keys = pvdcore.pvd_keygen(fam, np.random.default_rng(0), reps=8)
    # b = 0: every block projects back onto itself with probability 1
    p0, p1, _ = pvdcore.calibrate_recover(fam, keys.key)
    dec0_ok = p0 == 1.0
    for seed in range(60):
        ct = pvdcore.pvd_encrypt(keys, 0, np.random.default_rng(seed))
        dec0_ok &= pvdcore.pvd_decrypt(keys, ct, np.random.default_rng(seed)) == 0
    dec1 = 0
    for seed in range(100):
        ct = pvdcore.pvd_encrypt(keys, 1, np.random.default_rng(1000 + seed))
        dec1 += pvdcore.pvd_decrypt(keys, ct, np.random.default_rng(2000 + seed)) == 1
    del_ok = True
    for seed in range(60):
        ct = pvdcore.pvd_encrypt(keys, seed % 2, np.random.default_rng(seed))
        pis = pvdcore.pvd_delete(ct, fam, np.random.default_rng(seed + 5))
        del_ok &= pvdcore.pvd_verify(fam, keys.key, ct.images, pis)
    ok = dec0_ok and dec1 / 100 >= 0.99 and del_ok
    report("criterion 10 (PKE from phase recoverability)", ok,
           f"b=0 exact (p0 = {p0}), b=1 freq {dec1}/100, deletion always verifies",
           t0, 120)


def test_criterion_11_determinism(capsys):
    t0 = time.time()
    commands = [
        ["dr", "roundtrip", "--seed", "7"],
        ["fhe", "delete-roundtrip", "--seed", "4"],
        ["commit", "demo", "--seed", "3"],
        ["pvd", "roundtrip", "--seed", "5"],
        ["game", "run", "--exp", "ladder", "--adv", "overlap-projector",
         "--exact", "--seed", "1", "--trials", "0"],
        ["game", "run", "--exp", "sgc", "--adv", "honest-deleter",
         "--trials", "20", "--seed", "2"],
        ["validate", "--scheme", "fhe", "--n", "2", "--m", "8",
         "--q", "260000011", "--sigma", "1857142.94", "--depth", "2"],
    ]
    identical = True
    for argv in commands:
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        identical &= first == second
    with capsys.disabled():
        report("criterion 11 (determinism)", identical,
               f"{len(commands)} commands byte-identical on re-run", t0, 120)
