"""Tests of the benchmark itself: span arithmetic, wrap coverage, restore,
cross-process determinism, and refusal to run without sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from roamauth import attacks, harness  # noqa: E402
from roamauth.curve import TOY  # noqa: E402
from roamauth.suite import CryptoSuite  # noqa: E402
from spans import WRAP_POINTS, Tracer, install, leftover_wrappers  # noqa: E402

# Bindings made by `from module import name`; a wrapper installed only where
# the function is defined would miss every call through these.
BY_VALUE_SITES = (
    "roamauth.suite:encode_concat",
    "roamauth.wire:encode_concat",
    "roamauth.wire:decode_concat",
    "roamauth.encoding:point_from_bytes",
    "roamauth.encoding:point_to_bytes",
    "roamauth.harness:counting",
)


def test_self_time_on_synthetic_nested_trace():
    # a [0, 100] holds b [10, 40] (which holds c [20, 30]) and d [50, 90]
    ticks = iter([0, 10, 20, 30, 40, 50, 90, 100])
    t = Tracer(clock=lambda: next(ticks))
    a = t.begin("x.a")
    b = t.begin("x.b")
    c = t.begin("y.c")
    t.end(c)
    t.end(b)
    d = t.begin("y.d")
    t.end(d, raised=True)
    t.end(a)

    assert t.stats["x.a"] == [1, 30, 100, 0]
    assert t.stats["x.b"] == [1, 20, 30, 0]
    assert t.stats["y.c"] == [1, 10, 10, 0]
    assert t.stats["y.d"] == [1, 40, 40, 1]
    assert t.layer_self_ns("x") == 50 and t.layer_self_ns("y") == 50
    ids = {name: sid for sid, name, *_ in t.spans}
    parents = {name: parent for _, name, _, _, parent, _ in t.spans}
    assert parents == {"y.c": ids["x.b"], "x.b": ids["x.a"], "y.d": ids["x.a"], "x.a": 0}


def test_out_of_order_close_is_an_error():
    t = Tracer()
    outer = t.begin("x.outer")
    t.begin("x.inner")
    with pytest.raises(RuntimeError):
        t.end(outer)


@pytest.fixture(scope="module")
def smoke():
    """One session of every cell of the mix plus a small toy attack matrix,
    with every wrap point installed (and removed before any test runs)."""
    tracer = Tracer()
    inst = install(tracer)
    try:
        suite = CryptoSuite(TOY)
        pool = workloads.build_pool(suite, seed=3)
        results = []
        for i, (scheme, scenario, rounds, _n) in enumerate(workloads.MIX):
            spec = workloads.SessionSpec(scheme, scenario, rounds, i % workloads.TRIPLES, i)
            res = harness.run_session(suite, scheme, scenario, random.Random(i),
                                      world=workloads.world_for(pool, spec),
                                      update_rounds=rounds)
            results.append((spec, res))
        matrix = attacks.run_attack_matrix(suite, random.Random(9), trials=4)
    finally:
        inst.restore()
    return tracer, inst.patches, results, matrix


def test_smoke_sessions_pass_their_checks(smoke):
    _, _, results, _ = smoke
    for spec, res in results:
        assert workloads.check_session(spec, res) == []


def test_every_wrap_point_records_a_span(smoke):
    tracer, patches, _, _ = smoke
    calls: dict[str, int] = {}
    for _owner, _attr, _original, site, target in patches:
        calls[target] = calls.get(target, 0) + tracer.sites[site]
    assert set(calls) == {p.target for p in WRAP_POINTS}
    assert [target for target, n in calls.items() if n == 0] == []
    for point in WRAP_POINTS:
        if point.namer is None:
            assert tracer.count(point.name) >= 1, point.name
    assert tracer.count("curve.mul_g") and tracer.count("curve.mul_q")
    assert len(tracer.names("attacks.game.")) == len(attacks.ATTACK_NAMES)


def test_by_value_bindings_are_wrapped_and_reached(smoke):
    tracer, _, _, _ = smoke
    for site in BY_VALUE_SITES:
        assert tracer.sites.get(site, 0) >= 1, site


def test_every_patched_attribute_is_restored():
    tracer = Tracer()
    inst = install(tracer)
    try:
        harness.run_session(CryptoSuite(TOY), "proposed", "foreign-auth", random.Random(1))
    finally:
        inst.restore()
    assert inst.patches
    for owner, attr, original, _site, _target in inst.patches:
        assert owner.__dict__[attr] is original, f"{owner}.{attr}"
    assert leftover_wrappers() == []
    recorded = tracer.count("harness.run_session")
    harness.run_session(CryptoSuite(TOY), "proposed", "foreign-auth", random.Random(2))
    assert tracer.count("harness.run_session") == recorded


def _run_bench(cwd: Path, *args: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _digest(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


def test_same_seed_same_digest_across_processes():
    args = ("--workload", "handshake-toy", "--seed", "7", "--seconds", "0.3", "--trace", "0")
    first = _run_bench(ROOT, *args, hashseed="1")
    second = _run_bench(ROOT, *args, hashseed="2")
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    assert _digest(first.stdout) == _digest(second.stdout)
    assert json.loads(first.stdout.splitlines()[-1])["correct"] is True
    other = _run_bench(ROOT, *args[:3], "8", *args[4:])
    assert _digest(other.stdout) != _digest(first.stdout)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "handshake-toy", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
