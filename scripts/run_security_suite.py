#!/usr/bin/env python3
"""Run every security experiment once and print a compact summary table:
the exact hybrid-ladder advantages, certified-everlasting trace distances,
strong Gaussian-collapsing statistics, and the projector-inequality stress
test. A quick way to see the headline relations without pytest.

Usage: python scripts/run_security_suite.py [--seed 0] [--trials 200]
"""

import argparse
import math

import numpy as np

from deletia import cli, configs, games, hashfam
from deletia.qsim import ensemble_trace_distance


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    fam = hashfam.two_to_one_family(3)
    print("== hybrid ladder (exact, overlap-projector on the 2-to-1 family) ==")
    res = games.hybrid_ladder_exact(fam, games.OVERLAP_PROJECTOR)
    for i, a in enumerate(res.adv):
        print(f"  Adv(Exp{i}) = {a:.12f}")
    print(f"  Adv(Exp1) - Adv(Exp0)/2 = {res.adv[1] - res.adv[0] / 2:+.2e}")

    print("== certified-everlasting target collapsing (honest deleter) ==")
    e0, e1 = games.ev_target_collapse_ensembles(fam, None, games.HONEST_DELETER)
    print(f"  output-ensemble trace distance = {ensemble_trace_distance(e0, e1):.2e}")

    print("== strong Gaussian collapsing ==")
    params = configs.SGC_DESK
    valid = 0
    for lo in range(0, args.trials, cli._BATCH_RUNS):  # one block of runs live at a time
        trials = range(lo, min(lo + cli._BATCH_RUNS, args.trials))
        runs = games.strong_gauss_collapse_exp(
            params, games.HONEST_DELETER, [t % 2 for t in trials],
            [np.random.default_rng(args.seed + t) for t in trials])
        valid += sum(tr.outputs["valid"] for tr in runs)
    print(f"  honest witness validity: {valid}/{args.trials}")
    s0, s1 = games.sgc_honest_ensembles(params, np.random.default_rng(args.seed))
    print(f"  view trace distance = {ensemble_trace_distance(s0, s1):.2e}")

    print("== projector inequality stress ==")
    rng = np.random.default_rng(args.seed)
    worst = math.inf
    for _ in range(1000):
        nproj = int(rng.integers(2, 5))
        dim = int(rng.integers(nproj + 1, 9))
        D, pis, psi = games.random_fact35_instance(rng, dim, nproj)
        r = games.fact35_check(D, pis, psi)
        worst = min(worst, r.lhs - r.rhs)
        assert r.holds
    print(f"  1000 random instances hold; worst slack = {worst:.3e}")


if __name__ == "__main__":
    main()
