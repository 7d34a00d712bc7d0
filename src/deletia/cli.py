"""deletia: demos, experiment batches, and parameter validation.

JSON goes to stdout, a short human summary to stderr. Exit codes: 0 ok,
1 verdict failure, 2 config error. DELETIA_SEED overrides any seed.

Each command declares only the flags it reads (``build_parser``). Its
parameter flags, the ones among ``CONFIG_KEYS``, may also come from a
``--config`` file of ``key = value`` lines: a key that is not one of the
command's parameter flags exits 2, and a flag on the command line beats
the file. A lattice command runs its shipped parameter set from
``configs`` with each given n, m, q, sigma and depth put in.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import configs, dualfhe, dualregev, games, hashfam, pvdcore, qsim

# Every parameter flag and config-file key, with its type.
CONFIG_KEYS = {"n": int, "m": int, "q": int, "sigma": float, "depth": int,
               "trials": int, "reps": int}


def _rng(seed: int, offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed + offset)


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve(args) -> None:
    """Fill in each parameter flag not given on the command line from the
    ``--config`` file, else from the command's default (None: the field of
    its shipped parameter set); DELETIA_SEED overrides ``--seed``."""
    given = configs.parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in given:
        if key not in args.keys:
            raise ValueError(f"unknown config key {key!r}")
    for key in args.keys:
        if getattr(args, key) is None:
            setattr(args, key, CONFIG_KEYS[key](given[key]) if key in given
                    else args.defaults.get(key))
    if getattr(args, "trials", 0) < 0:
        raise ValueError(f"trials must be >= 0, got {args.trials}")
    if "DELETIA_SEED" in os.environ:
        args.seed = int(os.environ["DELETIA_SEED"])


def _params(base, args):
    """``base`` with each n, m, q, depth and sigma (as sigma^2) that ``args`` gives."""
    fields = {k: getattr(args, k) for k in ("n", "m", "q", "depth")
              if getattr(args, k, None) is not None}
    sigma = getattr(args, "sigma", None)
    if sigma is not None:
        if not (sigma > 0 and sigma * sigma < math.inf):
            raise ValueError(f"sigma must be > 0 with a finite square, got {sigma}")
        fields["sigma_sq"] = Fraction(sigma) ** 2
    return replace(base, **fields)


# ---------------------------------------------------------------------------
# dr / fhe / commit / pvd demos
# ---------------------------------------------------------------------------

def cmd_dr_roundtrip(args) -> int:
    params = _params(configs.DR_ROUNDTRIP, args)
    rng = _rng(args.seed)
    keys = dualregev.dr_keygen(params, rng)
    b = int(rng.integers(0, 2)) if args.bit is None else args.bit
    decrypted = dualregev.dr_decrypt(keys, dualregev.dr_encrypt(keys, b, rng), rng)
    ct = dualregev.dr_encrypt(keys, b, rng)
    pi = dualregev.dr_delete(ct, rng)
    verified = dualregev.dr_verify(ct.vk, pi, params)
    _emit({"b": b, "decrypted": decrypted, "cert": pi.entries.tolist(),
           "verified": bool(verified)})
    _note(f"dr roundtrip: b={b} decrypted={decrypted} verified={verified}")
    return 0 if (decrypted == b and verified) else 1


def cmd_fhe_nand_tree(args) -> int:
    params, trials = _params(configs.FHE_CLASSICAL, args), args.trials
    rng = _rng(args.seed)
    keys = dualfhe.fhe_keygen(params, rng)
    records, all_ok = [], True
    for t in range(trials):
        leaves = [int(v) for v in rng.integers(0, 2, size=1 << params.depth)]
        dec, exp = dualfhe.nand_tree_eval(keys, leaves, rng)
        ok = dec == exp
        all_ok &= ok
        records.append({"trial": t, "leaves": leaves, "decrypted": dec,
                        "expected": exp, "ok": ok})
    _emit({"scheme": "fhe", "depth": params.depth, "trials": trials,
           "all_ok": all_ok, "records": records})
    _note(f"fhe nand-tree: {sum(r['ok'] for r in records)}/{trials} correct")
    return 0 if all_ok else 1


def cmd_fhe_delete_roundtrip(args) -> int:
    params = _params(configs.FHE_QUANTUM, args)
    rng = _rng(args.seed)
    keys = dualfhe.fhe_keygen(params, rng)
    x = int(rng.integers(0, 2)) if args.bit is None else args.bit
    measured = dualfhe.fhe_measure_q(dualfhe.fhe_encrypt_q(keys, x, rng), rng)
    decrypted = dualfhe.fhe_decrypt(keys, measured)
    ct = dualfhe.fhe_encrypt_q(keys, x, rng)
    pis = dualfhe.fhe_delete(ct, rng)
    verified = dualfhe.fhe_verify(ct.vk, pis, params)
    _emit({"x": x, "decrypted": decrypted,
           "certs": [p.entries.tolist() for p in pis], "verified": bool(verified)})
    _note(f"fhe delete-roundtrip: x={x} decrypted={decrypted} verified={verified}")
    return 0 if (decrypted == x and verified) else 1


def _default_bbm_family() -> hashfam.HashFamily:
    return hashfam.fdelta_family(hashfam.toy_regular_owf(6, 2))


def cmd_commit_demo(args) -> int:
    rng = _rng(args.seed)
    fam = _default_bbm_family()
    b = int(rng.integers(0, 2)) if args.bit is None else args.bit
    pair = pvdcore.commit(fam, b, configs.COMMIT_REPS, rng)
    honest = pvdcore.open_accept_prob(pair, b)
    cross = pvdcore.open_accept_prob(pair, 1 - b)
    pis = pvdcore.pvd_delete(pair, pair.family, rng)
    verified = pvdcore.commit_ver(fam, pair.key, pair.images, pis)
    _emit({"bit": b, "honest_open_prob": honest, "cross_open_prob": cross,
           "cert": pis, "verified": bool(verified)})
    _note(f"commit demo: bit={b} honest={honest:.6f} cross={cross:.3e} verified={verified}")
    return 0 if (verified and honest > 1 - 1e-9) else 1


def cmd_pvd_roundtrip(args) -> int:
    rng = _rng(args.seed)
    comp = hashfam.compose_balanced(
        hashfam.toy_regular_owf(6, 2), hashfam.chor_goldreich_family(6, 4, 3))
    fam = hashfam.fdelta_family(comp)
    keys = pvdcore.pvd_keygen(fam, rng, reps=args.reps)
    b = int(rng.integers(0, 2)) if args.bit is None else args.bit
    decrypted = pvdcore.pvd_decrypt(keys, pvdcore.pvd_encrypt(keys, b, rng), rng)
    ct = pvdcore.pvd_encrypt(keys, b, rng)
    pis = pvdcore.pvd_delete(ct, fam, rng)
    verified = pvdcore.pvd_verify(fam, keys.key, ct.images, pis)
    _emit({"b": b, "decrypted": decrypted, "threshold": keys.recover_threshold,
           "cert": pis, "verified": bool(verified)})
    _note(f"pvd roundtrip: b={b} decrypted={decrypted} verified={verified}")
    return 0 if (decrypted == b and verified) else 1


# ---------------------------------------------------------------------------
# game run
# ---------------------------------------------------------------------------

# A sampled game (tcr included) plays at most this many runs at once. Each
# run holds its own generator (about 1 KB), so a batch of them bounds the
# memory of any --trials.
_BATCH_RUNS = 1024


def _play_bits(play, trials: int, seed: int, rows: list[dict],
               stride: int = 2, base: int = 0) -> list[int]:
    """Play a bit-output game ``trials`` times for each b in (0, 1) and
    return the ones per b. Run (t, b) draws from a generator seeded with
    ``seed + base + t*stride + b``. The runs, in (t, b) order, go to
    ``play(bs, rngs, run_seeds)`` in batches of at most ``_BATCH_RUNS``; it
    returns each run's (guess, verdict), and each run appends one CSV row."""
    ones = [0, 0]
    for lo in range(0, 2 * trials, _BATCH_RUNS):
        runs = [divmod(i, 2) for i in range(lo, min(lo + _BATCH_RUNS, 2 * trials))]
        seeds = [seed + base + t * stride + b for t, b in runs]
        played = play([b for _, b in runs], [_rng(s) for s in seeds], seeds)
        for (t, b), run_seed, (guess, verdict) in zip(runs, seeds, played):
            ones[b] += guess
            rows.append({"trial": t, "seed": run_seed, "b": b,
                         "verdict": verdict, "guess": guess})
    return ones


def _bit_report(ones: list[int], trials: int) -> dict:
    """The advantage |p0 - p1| with its normal-approximation ci, and the counts."""
    p0, p1 = ones[0] / trials, ones[1] / trials
    ci = 1.96 * math.sqrt(p0 * (1 - p0) / trials + p1 * (1 - p1) / trials)
    return {"advantage": abs(p0 - p1), "ci": ci,
            "counts": {"b0_ones": ones[0], "b1_ones": ones[1]}}


def _exact_report(exp: str, fam, adv: games.Adversary, seed: int) -> dict:
    """The exact advantage with ci 0.0, and for the ladder every Exp's
    advantage and the projection success rates; no trials are played."""
    if exp == "ladder":
        res = games.hybrid_ladder_exact(fam, adv)
        return {**{f"adv{i}": res.adv[i] for i in range(4)}, "advantage": res.adv[0],
                "ci": 0.0, "proj_success": res.proj_success}
    if exp == "tc":
        advantage = games.target_collapse_advantage_exact(fam, None, adv)
    elif exp == "evtc":
        advantage = qsim.ensemble_trace_distance(
            *games.ev_target_collapse_ensembles(fam, None, adv))
    elif adv is not games.HONEST_DELETER:
        raise ValueError(f"experiment 'sgc' has an exact mode only for "
                         f"{games.HONEST_DELETER.name!r}, not {adv.name!r}")
    else:
        advantage = qsim.ensemble_trace_distance(
            *games.sgc_honest_ensembles(configs.SGC_DESK, _rng(seed)))
    return {"advantage": advantage, "ci": 0.0}


def _transcript_bits(tr: games.GameTranscript) -> tuple[int, bool]:
    return tr.verdict, tr.outputs["valid"]


def cmd_game_run(args) -> int:
    exp, seed, trials = args.exp, args.seed, args.trials
    if args.exact and exp in ("tcr", "fact35"):
        raise ValueError(f"experiment {exp!r} has no exact mode; drop --exact")
    adv = games.ADVERSARIES.get(args.adv)
    if adv is None:
        raise ValueError(f"unknown adversary {args.adv!r}; "
                         f"known: {sorted(games.ADVERSARIES)}")
    if exp == "tcr" and args.adv not in hashfam.TCR_ADVERSARIES:
        raise ValueError(f"experiment 'tcr' plays only {sorted(hashfam.TCR_ADVERSARIES)}, "
                         f"not {args.adv!r}")
    # the hash family each experiment plays on; sgc and fact35 use none
    fam = (_default_bbm_family() if exp == "tcr" else
           hashfam.two_to_one_family(3) if exp in ("tc", "evtc", "ladder") else None)
    report = {"exp": exp, "adv": args.adv, "seed": seed,
              "trials": trials, "exact": bool(args.exact)}
    rows, code = [], 0
    if args.exact:
        report.update(_exact_report(exp, fam, adv, seed))
    elif trials == 0:
        report.update({"advantage": None, "ci": 0.0, "counts": {}})
    elif exp == "tc":
        ones = _play_bits(lambda bs, rngs, _: [
            (bit, "") for bit in games.target_collapse_exp(fam, None, adv, bs, rngs)],
            trials, seed, rows)
        report.update(_bit_report(ones, trials))
    elif exp == "evtc":
        ones = _play_bits(lambda bs, rngs, seeds: [
            _transcript_bits(tr) for tr in games.ev_target_collapse_exp(fam, None, adv, bs, rngs,
                                                                        seeds=seeds)],
            trials, seed, rows)
        report.update(_bit_report(ones, trials))
    elif exp == "sgc":
        ones = _play_bits(lambda bs, rngs, seeds: [
            _transcript_bits(tr) for tr in games.strong_gauss_collapse_exp(
                configs.SGC_DESK, adv, bs, rngs, seeds)], trials, seed, rows)
        report.update(_bit_report(ones, trials))
        valid = sum(row["verdict"] for row in rows)
        report["counts"]["valid"] = valid
        report["valid_rate"] = valid / (2 * trials)
    elif exp == "ladder":
        exps = []
        for e in range(4):
            ones = _play_bits(lambda bs, rngs, _: [
                (bit, "") for bit in games.hybrid_ladder_mc(fam, adv, e, bs, rngs)],
                trials, seed, rows, stride=8, base=2 * e)
            exps.append(_bit_report(ones, trials))
        report.update({f"adv{e}": r["advantage"] for e, r in enumerate(exps)})
        report.update({"advantage": exps[0]["advantage"], "ci": exps[0]["ci"],
                       "counts": {f"exp{e}": r["counts"] for e, r in enumerate(exps)}})
    elif exp == "tcr":
        wins = 0
        for lo in range(0, trials, _BATCH_RUNS):
            runs = range(lo, min(lo + _BATCH_RUNS, trials))
            played = hashfam.tcr_game(fam, hashfam.TCR_ADVERSARIES[args.adv],
                                      [_rng(seed, t) for t in runs])
            for t, tr in zip(runs, played):
                wins += tr.win
                rows.append({"trial": t, "seed": seed + t, "b": "",
                             "verdict": tr.win, "guess": repr(tr.answer)})
        report.update({"win_rate": wins / trials, "ci": 0.0, "advantage": wins / trials,
                       "counts": {"wins": wins, "losses": trials - wins}})
    else:  # fact35
        rng, worst, holds = _rng(seed), math.inf, True
        for t in range(trials):
            nproj = int(rng.integers(2, 5))
            dim = int(rng.integers(nproj + 1, 9))
            res = games.fact35_check(*games.random_fact35_instance(rng, dim, nproj))
            worst = min(worst, res.lhs - res.rhs)
            holds &= res.holds
            rows.append({"trial": t, "seed": seed, "b": "",
                         "verdict": res.holds, "guess": f"{res.lhs - res.rhs:.3e}"})
        report.update({"advantage": 0.0, "ci": 0.0, "all_hold": holds,
                       "worst_slack": worst})
        code = 0 if holds else 1
    if args.out:  # before the report, so a run that cannot write prints none
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["trial", "seed", "b", "verdict", "guess"])
            writer.writeheader()
            writer.writerows(rows)
    _emit(report)
    _note(f"game {exp}: advantage={report['advantage']} ci={report['ci']}")
    return code


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    params = _params(configs.VALIDATE_DEFAULTS, args)
    rows = configs.validate_scheme(args.scheme, params)
    report = {"scheme": args.scheme,
              "params": {"n": params.n, "m": params.m, "q": params.q,
                         "sigma": params.sigma, "depth": params.depth},
              "checks": [{"name": n, "status": s, "detail": d} for n, s, d in rows]}
    _emit(report)
    for name, status, detail in rows:
        _note(f"{status.upper():5s} {name}: {detail}")
    return 2 if any(s == "fail" for _, s, _ in rows) else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``deletia`` parser, built once per process and shared by every
    ``main`` call: parsing leaves it unchanged, and no caller may add to it."""
    ap = argparse.ArgumentParser(prog="deletia")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(group, name, fn, keys=(), bit=False, **defaults):
        """A subcommand with --seed, the parameter flags ``keys`` (with
        --config when there are any), and --bit if it encrypts one bit.
        ``defaults`` holds the keys not taken from a shipped parameter set."""
        p = group.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        if keys:
            p.add_argument("--config", "--params", dest="config", default=None)
        for key in keys:
            p.add_argument(f"--{key}", type=CONFIG_KEYS[key], default=None)
        if bit:
            p.add_argument("--bit", type=int, choices=(0, 1), default=None)
        p.set_defaults(fn=fn, keys=keys, defaults=defaults)
        return p

    def group(name):
        return sub.add_parser(name).add_subparsers(dest="sub", required=True)

    lattice = ("n", "m", "q", "sigma")
    command(group("dr"), "roundtrip", cmd_dr_roundtrip, lattice, bit=True)
    fhe = group("fhe")
    command(fhe, "nand-tree", cmd_fhe_nand_tree, (*lattice, "depth", "trials"), trials=10)
    command(fhe, "delete-roundtrip", cmd_fhe_delete_roundtrip, lattice, bit=True)
    command(group("commit"), "demo", cmd_commit_demo, bit=True)
    command(group("pvd"), "roundtrip", cmd_pvd_roundtrip, ("reps",), bit=True,
            reps=configs.PVD_REPS)

    p = command(group("game"), "run", cmd_game_run, ("trials",), trials=200)
    p.add_argument("--exp", required=True,
                   choices=["tc", "tcr", "evtc", "ladder", "sgc", "fact35"])
    p.add_argument("--adv", default="honest-deleter")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=None)

    # validate draws nothing, but it takes --seed so that one seeded command
    # line per command works for all of them (bench/workloads.py sends one).
    p = command(sub, "validate", cmd_validate, (*lattice, "depth"))
    p.add_argument("--scheme", choices=["dr", "fhe"], default="dr")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
