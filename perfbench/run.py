"""roamauth benchmark: seeded handshake and attack-matrix workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one single-process, closed-loop workload (one client, no threads) from
the sources under ``src/`` for about S seconds, checks every output, and
prints the metrics by name and unit.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run measures a third of the time untraced, then repeats the same units with
every public ``roamauth`` function wrapped in a span, and reports per-layer
metrics.  Results, the environment and the raw spans go to ``.bench_out/``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("handshake-p256", "handshake-toy", "attack-matrix-p256")
SETUP_REPEATS = 11

# Per-call baselines (ms) from the ROADMAP probe table, Python 3.11.7.
ROADMAP_BASELINE_MS = {
    "k*G": 4.4, "k*Q": 4.4, "sign_over": 3.8, "verify_over": 9.3,
    "proposed foreign-auth": 89.0,
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import roamauth.attacks; print(time.perf_counter() - t)"
)


def import_roamauth() -> None:
    """Put this checkout's ``src`` first on the path, refusing to run
    against any other copy of the package."""
    if not (SRC / "roamauth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no roamauth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import roamauth

    if Path(roamauth.__file__).resolve().parent != (SRC / "roamauth").resolve():
        raise SystemExit(f"perfbench: imported roamauth from {roamauth.__file__}, not {SRC}")


@dataclass
class Phase:
    """One pass over a workload: timed samples plus check results.

    Samples are kept as machine integers (ns per unit, by label) so that the
    benchmark's own memory does not grow with the speed of the program.
    """

    samples: dict[str, array] = field(default_factory=dict)
    groups: array = field(default_factory=lambda: array("q"))
    units: int = 0  # timed units run, failed ones included
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def timed_ns(self) -> int:
        return sum(sum(a) for a in self.samples.values())

    @property
    def count(self) -> int:
        return sum(len(a) for a in self.samples.values())


def run_phase(workload, state, seed: int, *, seconds: float | None = None,
              units: int | None = None, tracer=None) -> Phase:
    """Run the untimed warm-up units, then whole groups of timed units until
    ``seconds`` have been measured or ``units`` units have run."""
    phase = Phase()
    digest = hashlib.sha256()

    def timed(call):
        frame = tracer.begin("bench.unit") if tracer is not None else None
        t0 = time.perf_counter_ns()
        try:
            result = call()
        finally:
            ns = time.perf_counter_ns() - t0
            if frame is not None:
                tracer.end(frame)
        return result, ns

    def one(i: int):
        if tracer is not None:
            tracer.session = i
        try:
            r = workload.run_unit(state, seed, i, timed, i < workload.digest_units)
        except Exception as exc:  # a crash is a failed unit, not a dead benchmark
            phase.attempted += 1
            phase.failed += 1
            phase.failures.append(f"unit {i} raised {type(exc).__name__}: {exc}")
            return None
        digest.update(r.digest)
        phase.attempted += r.checked
        phase.failed += r.failed
        phase.failures += r.failures
        return r

    for i in range(workload.warmup):
        one(i)
    if tracer is not None:
        tracer.reset()
    i = workload.warmup
    start = time.perf_counter()
    while True:
        group_ns = 0
        for _ in range(workload.group):
            r = one(i)
            i += 1
            if r is not None:
                phase.samples.setdefault(r.label, array("q")).append(r.ns)
                group_ns += r.ns
        phase.groups.append(group_ns)
        phase.units = i - workload.warmup
        if (units is not None and phase.units >= units) or (
                units is None and time.perf_counter() - start >= seconds):
            break
    phase.digest = digest.hexdigest()
    return phase


def setup_times(workload, seed: int, repeats: int):
    """Times of ``repeats`` set-ups, each the import time (in a fresh
    interpreter) plus the workload's suite and world set-up; returns (times,
    last state).  The previous state is dropped before each build, so only
    one is ever live."""
    times = []
    state = None
    for _ in range(repeats):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        state = None
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(float(probe.stdout) + time.perf_counter() - t0)
    return times, state


def environment(workload, seed: int) -> dict:
    import cryptography

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "roamauth").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "workload": workload.name,
        "pool": workload.pool_shape(),
    }


def world_build_stats(tracer) -> tuple[int, int]:
    names = tracer.names("harness.world_build.")
    return tracer.count(*names), tracer.total_ns(*names)


def run_traced(workload, state, seed: int, seconds: float):
    """Untraced third of the time, then the same units traced.  Returns (phases, metrics,
    extra report fields)."""
    import metrics
    from spans import Tracer, install, leftover_wrappers

    plain = run_phase(workload, state, seed, seconds=seconds / 3)
    tracer = Tracer()
    inst = install(tracer)
    try:
        frame = tracer.begin("bench.setup")
        traced_state = workload.setup(seed)
        tracer.end(frame)
        setup_builds = world_build_stats(tracer)
        traced = run_phase(workload, traced_state, seed, units=plain.units,
                           tracer=tracer)
    finally:
        inst.restore()
    unit_builds = world_build_stats(tracer)
    builds = (setup_builds[0] + unit_builds[0], setup_builds[1] + unit_builds[1])

    leftovers = leftover_wrappers()
    if leftovers:
        traced.failed += 1
        traced.failures.append(f"wrappers left after restore: {leftovers}")
    if traced.digest != plain.digest:
        traced.failed += 1
        traced.failures.append("traced run changed the determinism digest")

    overhead = traced.timed_ns / plain.timed_ns
    layer = metrics.per_layer(tracer, traced.count, overhead, builds)
    calls = metrics.per_call_means(tracer)
    fa = plain.samples.get("proposed/foreign-auth")
    if fa:
        calls["proposed foreign-auth"] = statistics.fmean(fa) / 1e6
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, session in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "session": session}) + "\n")
    extra = {
        "per_call_ms": {k: {"measured": v, "roadmap_baseline": ROADMAP_BASELINE_MS[k]}
                        for k, v in calls.items()},
        "traced_units": traced.count,
        "attack_times": metrics.attack_times(tracer, traced.count),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return [plain, traced], layer, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_roamauth()
    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup, state = setup_times(workload, args.seed, SETUP_REPEATS // 2 + 1)
    env = environment(workload, args.seed)
    report: dict = {"env": env, "trace": args.trace, "seconds": args.seconds}

    if args.trace:
        phases, values, extra = run_traced(workload, state, args.seed, args.seconds)
        report.update(extra)
    else:
        phase = run_phase(workload, state, args.seed, seconds=args.seconds)
        phases = [phase]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The other set-up repeats run after the measured phase, so that one
        # slow spell of the host at start-up does not set the median.
        state = None
        setup += setup_times(workload, args.seed, SETUP_REPEATS // 2)[0]
        setup_s = statistics.median(setup)
        focus = "proposed/foreign-auth" if workload.unit == "session" else None
        e2e = metrics.end_to_end(phase.samples, phase.groups, setup_s, rss_mb, focus)
        values = {k: (v, metrics.E2E_UNITS[k]) for k, v in e2e.items()}
        p95 = e2e["session_p95_ms"] * 1e6
        report["samples"] = {
            "units": phase.count, "groups": len(phase.groups),
            "above_p95": sum(ns > p95 for a in phase.samples.values() for ns in a),
            "foreign_auth": len(phase.samples.get("proposed/foreign-auth", ())),
        }

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f for p in phases for f in p.failures]
    report.update({
        "digest": phases[0].digest,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    })
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"unit {workload.unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest sha256:{report['digest']}")
    for k, (v, u) in values.items():
        print(f"  {k:<42} {v:>14.6g} {u}")
    print(f"  {'failed_ratio':<42} {report['failed_ratio']:>14.6g} failed/attempted "
          f"({failed}/{attempted})")
    for k, v in report.get("per_call_ms", {}).items():
        print(f"  per-call {k:<33} {v['measured']:>14.4f} ms "
              f"(ROADMAP baseline {v['roadmap_baseline']} ms)")
    for k, v in report.get("attack_times", {}).items():
        print(f"  {k:<42} {v:>14.6g} {'1/s' if k.endswith('_per_s') else 'ms'}")
    if "samples" in report:
        print("  samples " + json.dumps(report["samples"]))
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print(f"results {result_path.relative_to(ROOT)}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
