"""deletia benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload exact-games --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it times whole op cycles untraced for ``--seconds`` and
reports the end-to-end metrics named in BENCHMARK.json. With ``--trace 1``
it runs the same ops untraced and then traced, for about half the time
each, and reports the per-layer metrics (per op) and the tracing overhead.
Every op passes through the workload's correctness gates; any gate failure
makes the command exit 1. The last stdout line is the JSON result; the full
report, with the environment and every op's gate output, goes to
``.bench_results/`` in the checkout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
# qsim.qft runs on BLAS tensordot; one thread is faster than two at these
# sizes on a 2-core machine and keeps run-to-run spread low.
BLAS_THREADS = 1
# Set-ups per run: this process plus probe processes, each started before
# one of the equal slices of the timed phase, so that the median samples the
# machine over the same span as the timed metrics.
SETUP_SAMPLES = 9
WARMUP_INDEX = 1 << 30  # inputs of the untimed warm-up op (the cycle's first kind)
# Chance that a correct program fails a run's event-rate gate for one op kind.
EVENT_FALSE_ALARM = 1e-6


@dataclass
class Phase:
    """Ops run back to back, with latencies, gate results and counts."""

    start_index: int
    latencies: list = field(default_factory=list)  # (kind, seconds)
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # (op, kind, name) of rate-limited events
    eval_ratios: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def extend(self, other: "Phase") -> None:
        """Append a phase that continued this one."""
        self.latencies += other.latencies
        self.failures += other.failures
        self.outputs += other.outputs
        self.events += other.events
        self.eval_ratios += other.eval_ratios
        for name, value in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.elapsed += other.elapsed


def op_rng(seed: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, index])


def run_op(workload, phase: Phase, seed: int, index: int, kind: str, tracer=None) -> None:
    rng = op_rng(seed, index)
    evals = tracer.calls["hashfam.eval"] if tracer else 0
    if tracer:
        tracer.op = index
    start = time.perf_counter()
    try:
        raw = workload.call(kind, rng)
        latency = time.perf_counter() - start
        errors, output, counts = workload.check(kind, raw)
    except Exception:  # an op that raises, or whose output the gates cannot read, failed
        phase.latencies.append((kind, time.perf_counter() - start))
        phase.failures.append({"op": index, "kind": kind, "errors": [traceback.format_exc()]})
        return
    phase.latencies.append((kind, latency))
    phase.outputs.append({"op": index, "kind": kind, **output})
    if errors:
        phase.failures.append({"op": index, "kind": kind, "errors": errors})
    for name, value in counts.items():
        phase.counts[name] = phase.counts.get(name, 0) + value
        if value and name in workload.event_rates:
            phase.events.append((index, kind, name))
    work = workload.domain_work(kind)
    if tracer and work:
        phase.eval_ratios.append((tracer.calls["hashfam.eval"] - evals) / work)


def run_phase(workload, seed: int, start_index: int, seconds: float, tracer=None) -> Phase:
    """Run ops from start_index in whole cycles until ``seconds`` have
    passed (at least one cycle)."""
    phase = Phase(start_index)
    n = len(workload.cycle)
    begin = time.perf_counter()
    deadline = begin + seconds
    index = start_index
    while True:
        done = index - start_index
        if done and done % n == 0 and time.perf_counter() >= deadline:
            break
        run_op(workload, phase, seed, index, workload.cycle[index % n], tracer)
        index += 1
    phase.elapsed = time.perf_counter() - begin
    return phase


def event_limit(ops: int, rate: float) -> int:
    """The most events in ``ops`` ops that a per-op rate of ``rate`` explains:
    the smallest k with P(Binomial(ops, rate) > k) <= EVENT_FALSE_ALARM."""
    tail = 1.0
    for k in range(ops + 1):
        tail -= math.comb(ops, k) * rate**k * (1 - rate) ** (ops - k)
        if tail <= EVENT_FALSE_ALARM:
            return k
    return ops


def rate_failures(workload, phases: list[Phase]) -> list[dict]:
    """Failed ops for events (decryption errors, long certificates) that occur
    in more ops of one kind than the workload's seed rate explains."""
    ops = Counter(kind for p in phases for kind, _ in p.latencies)
    events = defaultdict(list)
    for p in phases:
        for index, kind, name in p.events:
            events[kind, name].append(index)
    failures = []
    for (kind, name), indices in events.items():
        rate = workload.event_rates[name]
        limit = event_limit(ops[kind], rate)
        if len(indices) > limit:
            error = (f"{name}: {len(indices)} of {ops[kind]} ops, more than the {limit} "
                     f"that a rate of {rate} explains")
            failures += [{"op": i, "kind": kind, "errors": [error]} for i in indices]
    return failures


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "seed": seed, "machine": platform.machine()}


def probe_setup(args) -> float:
    """Set-up time of a fresh process running this script in probe mode."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(phase: Phase, setup_samples: list[float]) -> dict:
    lat_ms = [s * 1000 for _, s in phase.latencies]
    by_kind = latency_summary(phase)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": phase.ops / phase.elapsed,
        # every op kind's median weighs the same, so each kind moves it
        "op_p50_ms": statistics.fmean(k["p50_ms"] for k in by_kind.values()),
        "op_p90_ms": quantile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(spec: list[dict], tracer, phase: Phase, overhead: float
              ) -> tuple[dict, list[str]]:
    """Per-op values of the named per-layer metrics, and those absent."""
    ops = max(phase.ops, 1)
    special = {
        "qsim.peak_dim": tracer.peak_dim,
        "hashfam.eval_per_domain_value": (statistics.fmean(phase.eval_ratios)
                                          if phase.eval_ratios else 0.0),
        "trace.overhead": overhead,
    }
    values, absent = {}, []
    for m in spec:
        name = m["name"]
        base, _, stat = name.rpartition(".")
        if name in special:
            value = special[name]
        elif stat == "calls":
            value = tracer.calls[base] / ops
        elif stat == "self_ms" and "." in base:
            value = tracer.self_s[base] * 1000 / ops
        elif stat == "self_ms":
            value = tracer.layer_self_s(base) * 1000 / ops
        else:
            value = phase.counts.get(name, 0) / ops
        if base in tracer.absent:
            absent.append(name)
        values[name] = value
    return values, absent


def latency_summary(phase: Phase) -> dict:
    by_kind: dict = {}
    for kind, s in phase.latencies:
        by_kind.setdefault(kind, []).append(s * 1000)
    return {k: {"n": len(v), "p50_ms": statistics.median(v)} for k, v in by_kind.items()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("DELETIA_SEED", None)  # it would override every per-op --seed
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import deletia
    except ImportError as exc:
        print(f"error: cannot import deletia from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(deletia.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported deletia from {deletia.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.setup()
    warmup = Phase(WARMUP_INDEX)
    run_op(workload, warmup, args.seed, WARMUP_INDEX, workload.cycle[0])
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:  # gate failures are reported by the parent's own warm-up
        print(json.dumps({"setup_s": setup_s}))
        return 0

    RESULTS.mkdir(exist_ok=True)
    detail: dict = {}
    if args.trace == 0:
        setup_samples = [setup_s]
        phase = Phase(0)
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(probe_setup(args))
            phase.extend(run_phase(workload, args.seed, phase.ops,
                                   args.seconds / (SETUP_SAMPLES - 1)))
        metrics = end_to_end(phase, setup_samples)
        detail["setup_samples_s"] = setup_samples
        phases = [warmup, phase]
    else:
        from tracer import Tracer

        untraced = run_phase(workload, args.seed, 0, 0.45 * args.seconds)
        tracer = Tracer()
        tracer.install()
        for fam in workload.families():
            tracer.count_calls(fam, "eval", "hashfam.eval")
            tracer.count_calls(fam, "measure", "hashfam.measure")
        try:
            phase = run_phase(workload, args.seed, untraced.start_index + untraced.ops,
                              0.45 * args.seconds, tracer)
        finally:
            tracer.uninstall()
        overhead = (phase.ops / phase.elapsed) / (untraced.ops / untraced.elapsed)
        metrics, absent = per_layer(spec["per_layer"], tracer, phase, overhead)
        tracer.write_spans(RESULTS / f"spans-{args.workload}.jsonl")
        detail.update({"absent": absent, "untraced_ops_per_s": untraced.ops / untraced.elapsed,
                       "traced_ops_per_s": phase.ops / phase.elapsed,
                       "calls": dict(tracer.calls),
                       "self_ms": {k: v * 1000 for k, v in tracer.self_s.items()}})
        phases = [warmup, untraced, phase]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    attempted = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failures] + rate_failures(workload, phases)
    failed = len({f["op"] for f in failures})
    counts: dict = {}
    for p in phases:
        for name, value in p.counts.items():
            counts[name] = counts.get(name, 0) + value
    detail.update({"ops": phase.ops, "attempted": attempted, "failed": failed,
                   "failed_ratio": failed / attempted, "counts": counts,
                   "latency_by_kind": latency_summary(phase)})
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "detail": detail, "failures": failures, "outputs": phase.outputs}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))

    for f in failures:
        print(f"FAILED op {f['op']} ({f['kind']}): {'; '.join(f['errors'])}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"ops {phase.ops}, failed_ratio {detail['failed_ratio']:.3g}, "
          f"counts {counts}, report {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
