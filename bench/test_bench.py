"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
CYCLE_LENGTH = {"exact-games": 4, "dr-pke": 4, "mc-protocols": 11}
EXACT_METRICS = {"qsim.peak_dim", "games.ensemble_branches", "hashfam.eval_per_domain_value"}


def traced_run(workload: str) -> dict:
    """One traced run of exactly one op cycle per phase; its full report."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return json.loads((run.RESULTS / f"{workload}-seed{SEED}-trace1.json").read_text())


@pytest.mark.parametrize("workload", sorted(CYCLE_LENGTH))
def test_traced_counts_and_gate_outputs_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)

    def exact(report):
        return {k: m["value"] for k, m in report["metrics"].items()
                if k.endswith(".calls") or k in EXACT_METRICS}

    assert exact(first) == exact(second)
    assert first["detail"]["calls"] == second["detail"]["calls"]
    # advantages, certificates and CLI stdout, op by op
    assert first["outputs"] == second["outputs"]
    assert len(first["outputs"]) == CYCLE_LENGTH[workload]


def test_missing_function_is_reported_absent(monkeypatch):
    from deletia import dualregev, qsim, zqcore

    monkeypatch.setitem(tracer.REPORTED, "qsim", tracer.REPORTED["qsim"] + ["no_such_fn"])
    original_qft, original_verify = qsim.qft, zqcore.isis_verify
    t = tracer.Tracer()
    t.install()
    try:
        assert "qsim.no_such_fn" in t.absent
        assert qsim.qft is not original_qft
        assert dualregev.isis_verify is zqcore.isis_verify  # imported copies too
        values, absent = run.per_layer(
            [{"name": "qsim.no_such_fn.calls"}, {"name": "qsim.qft.calls"}],
            t, run.Phase(0), 1.0)
    finally:
        t.uninstall()
    assert absent == ["qsim.no_such_fn.calls"]
    assert values["qsim.no_such_fn.calls"] == 0
    assert qsim.qft is original_qft and dualregev.isis_verify is original_verify


def test_gates_reject_wrong_outputs():
    games = workloads.ExactGames()
    games.setup()
    bad_ladder = [SimpleNamespace(adv=(0.5, 0.25, 0.0, 0.0)),
                  SimpleNamespace(adv=(0.5, 0.3, 1e-6, 0.0))]
    errors, _, _ = games.check("ladder-overlap", bad_ladder)
    assert len(errors) == 2
    assert games.check("evtc", (256, 1e-6))[0]
    assert games.check("balance", SimpleNamespace(ratios=[0.0, 0.5], delta_hat=0.5,
                                                  fraction_ok=0.5))[0]

    pke = workloads.DualRegevPKE()
    pke.setup()
    raw = pke.call("small-b0", np.random.default_rng(1))
    assert pke.check("small-b0", raw)[0] == []
    assert pke.check("small-b0", {**raw, "verified": not raw["verified"]})[0]

    cli = workloads.CLIProtocols()
    cli.setup()
    ok = cli.call("dr roundtrip", np.random.default_rng(3))
    assert cli.check("dr roundtrip", ok)[0] == []
    # the certificate the command verified, checked against the key it used
    (A, y), pi, params = ok["verify_calls"][0]
    moved = {**ok, "verify_calls": [((A, replace(y, entries=(y.entries + 1) % y.q)), pi,
                                     params)]}
    assert any("outside its coset" in e for e in cli.check("dr roundtrip", moved)[0])
    assert cli.check("dr roundtrip", {**ok, "verify_calls": []})[0]
    # verified=false is only explained by a certificate over the norm bound
    assert cli.check("dr roundtrip", {**ok, "rc": 1, "stdout": ok["stdout"].replace(
        '"verified": true', '"verified": false')})[0]
    assert cli.check("commit demo", {**ok, "stdout": "not json"})[0]
    assert cli.check("validate --scheme", {**ok, "rc": 2, "stdout": "{}"})[0]


def test_long_certificates_beyond_the_seed_rate_fail_the_run():
    pke = workloads.DualRegevPKE()
    pke.setup()
    honest = pke.call("small-b0", np.random.default_rng(1))
    # a certificate in its coset but over the norm bound
    A, y = honest["vk"]
    pi = replace(honest["pi"], entries=np.full_like(honest["pi"].entries, A.q // 2))
    y = replace(y, entries=(A.entries @ pi.entries) % A.q)
    long_op = {**honest, "vk": (A, y), "pi": pi, "verified": False}
    errors, _, counts = pke.check("small-b0", long_op)
    assert errors == [] and counts["dualregev.cert_rejections"] == 1

    def run_ops(ops):
        replay = workloads.DualRegevPKE()
        replay.params = pke.params
        replay.call = lambda kind, rng: ops.pop(0)
        phase = run.Phase(0)
        for i in range(len(ops)):
            run.run_op(replay, phase, 1, i, "small-b0")
        assert phase.failures == []
        return run.rate_failures(replay, [phase])

    # one long certificate in 40 ops is within the seed rate ...
    assert run_ops([long_op] + [honest] * 39) == []
    # ... every certificate long is not, and each such op fails
    failures = run_ops([long_op] * 40)
    assert len(failures) == 40 and "cert_rejections" in failures[0]["errors"][0]


def test_event_limit():
    assert run.event_limit(1, 0.03) == 1
    assert run.event_limit(24, 0.03) < 12
    assert run.event_limit(180, 0.005) < 10


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, it exits
    nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-protocols", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_op_that_raises_or_misses_a_field_is_a_failed_op():
    class Broken(workloads.Workload):
        cycle = ["raises", "unreadable"]

        def call(self, kind, rng):
            if kind == "raises":
                raise ValueError("boom")
            return {}

        def check(self, kind, raw):
            return [], {"value": raw["missing"]}, {}

    phase = run.run_phase(Broken(), 1, 0, 0.0)
    assert phase.ops == 2
    assert [f["kind"] for f in phase.failures] == ["raises", "unreadable"]
