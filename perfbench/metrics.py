"""End-to-end and per-layer metrics, by name and unit.

End-to-end metrics come from the untraced run.  Per-layer metrics come from
the traced run's span aggregates and are normalised per unit of work (one
session on the handshake workloads, one full attack matrix on the matrix
workload), so runs of different lengths compare directly.
"""

from __future__ import annotations

import statistics

from roamauth.attacks import ATTACK_NAMES

from spans import Tracer

E2E_UNITS = {
    "sessions_per_s": "sessions/s",
    "session_p50_ms": "ms",
    "session_p95_ms": "ms",
    "foreign_auth_p50_ms": "ms",
    "matrix_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(samples: dict, groups, setup_s: float, peak_rss_mb: float,
               focus: str | None) -> dict[str, float]:
    """``samples`` maps a unit label to the ns of each timed unit with that
    label; ``groups`` holds the summed ns of each timed group (a block of
    the mix, or one matrix).  ``focus`` is the label whose median is
    ``foreign_auth_p50_ms``; None means every unit (the matrix workload,
    where the unit is the matrix)."""
    ms = [ns / 1e6 for a in samples.values() for ns in a]
    focus_ms = ms if focus is None else [ns / 1e6 for ns in samples[focus]]
    return {
        "sessions_per_s": len(ms) / (sum(ms) / 1e3),
        "session_p50_ms": statistics.median(ms),
        "session_p95_ms": p95(ms),
        "foreign_auth_p50_ms": statistics.median(focus_ms),
        "matrix_s": statistics.median(groups) / 1e9,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(t: Tracer, units: int, overhead_ratio: float,
              world_build: tuple[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run of ``units`` units.

    ``world_build`` is (calls, total ns) of the harness world builders,
    taken over the traced set-up and the traced units together.
    """
    def per(x: float) -> float:
        return x / units

    def ms(ns: float) -> float:
        return ns / 1e6 / units

    unit_ns = t.total_ns("bench.unit")
    mul_g, mul_q = "curve.mul_g", "curve.mul_q"
    decode = ("curve.point_from_bytes", "curve.validate_point", "curve.is_on_curve")
    sign = ("suite.sign_over", "suite.issue_certificate")
    hash_ = ("suite.hash160", "suite.hash_fields")
    enc = ("encoding.encode_concat", "encoding.encode_field")
    dec = ("encoding.decode_concat", "encoding.field_bytes", "encoding.field_point")
    prop_steps = [n for n in t.names("proposed.") if not n.startswith("proposed.setup.")]
    mun_steps = t.names("mun.")
    steps = prop_steps + mun_steps

    m: dict[str, tuple[float, str]] = {
        "curve.mul_g.count": (per(t.count(mul_g)), "count"),
        "curve.mul_g.self_ms": (ms(t.self_ns(mul_g)), "ms"),
        "curve.mul_q.count": (per(t.count(mul_q)), "count"),
        "curve.mul_q.self_ms": (ms(t.self_ns(mul_q)), "ms"),
        "curve.point_add.self_ms": (ms(t.self_ns("curve.point_add")), "ms"),
        "curve.decode.self_ms": (ms(t.self_ns(*decode)), "ms"),
        "curve.share": (_ratio(t.layer_self_ns("curve"), unit_ns), "ratio"),
        "suite.sign.count": (per(t.count(*sign)), "count"),
        "suite.sign.self_ms": (ms(t.self_ns(*sign)), "ms"),
        "suite.verify.count": (per(t.count("suite.verify_over")), "count"),
        "suite.verify.self_ms": (ms(t.self_ns("suite.verify_over")), "ms"),
        "suite.verify.reject_ratio": (
            _ratio(t.counters.get("suite.verify.rejects", 0), t.count("suite.verify_over")),
            "ratio"),
        "suite.vcert.count": (per(t.count("suite.verify_certificate")), "count"),
        "suite.vcert.self_ms": (ms(t.self_ns("suite.verify_certificate")), "ms"),
        "suite.hash.count": (per(t.count("suite.hash160")), "count"),
        "suite.hash.self_ms": (ms(t.self_ns(*hash_)), "ms"),
        "suite.aead.self_ms": (ms(t.self_ns("suite.ae_encrypt", "suite.ae_decrypt")), "ms"),
        "suite.kdf_mac.self_ms": (ms(t.self_ns("suite.kdf_point", "suite.mac160")), "ms"),
        "suite.share": (_ratio(t.layer_self_ns("suite"), unit_ns), "ratio"),
        "encoding.encode.count": (per(t.count("encoding.encode_concat")), "count"),
        "encoding.encode.self_ms": (ms(t.self_ns(*enc)), "ms"),
        "encoding.encode.bytes": (per(t.counters.get("encoding.encode.bytes", 0)), "bytes"),
        "encoding.decode.self_ms": (ms(t.self_ns(*dec)), "ms"),
        "encoding.share": (_ratio(t.layer_self_ns("encoding"), unit_ns), "ratio"),
        "wire.serialize.self_ms": (ms(t.self_ns("wire.serialize")), "ms"),
        "wire.deserialize.self_ms": (ms(t.self_ns("wire.deserialize")), "ms"),
        "wire.messages.count": (per(t.count("wire.serialize")), "count"),
        "wire.bytes": (per(t.counters.get("wire.bytes", 0)), "bytes"),
        "wire.share": (_ratio(t.layer_self_ns("wire"), unit_ns), "ratio"),
        "instrument.record.count": (per(t.count("instrument.record")), "count"),
        "instrument.record.self_ms": (ms(t.self_ns("instrument.record")), "ms"),
        "instrument.counting.self_ms": (ms(t.self_ns("instrument.counting")), "ms"),
        "harness.bus.self_ms": (ms(t.self_ns("harness.bus")), "ms"),
        "harness.driver.self_ms": (ms(t.self_ns("harness.run_session")), "ms"),
        "harness.honest_step.self_ms": (ms(t.self_ns("harness.honest_step")), "ms"),
        "harness.measure_costs.self_ms": (ms(t.self_ns("harness.measure_costs")), "ms"),
        "harness.world_build.ms": (_ratio(world_build[1] / 1e6, world_build[0]), "ms"),
        "harness.aborts.count": (per(t.counters.get("harness.aborts", 0)), "count"),
        "harness.share": (_ratio(t.layer_self_ns("harness"), unit_ns), "ratio"),
    }
    for scheme in ("proposed", "mun"):
        for party in ("MU", "FA", "HA"):
            m[f"{scheme}.{party}.self_ms"] = (
                ms(t.self_ns(*t.names(f"{scheme}.{party}."))), "ms")
    m["proposed.steps.count"] = (per(t.count(*prop_steps)), "count")
    m["mun.steps.count"] = (per(t.count(*mun_steps)), "count")
    m["mun.HA.hash_per_auth"] = (
        _ratio(t.counters.get("mun.HA.auth_hashes", 0), t.count("mun.HA.mun_ha_auth")),
        "count")
    # Attack games are reported as shares of unit time, not in ms: on the
    # handshake workloads no game runs, and a time that reads 0 on every
    # run is not a measurement.  Their ms are in ``attack_times``.
    for name in ATTACK_NAMES:
        m[f"attacks.{name}.share"] = (_ratio(t.total_ns("attacks.game." + name), unit_ns),
                                      "ratio")
    m["attacks.sessions.count"] = (per(t.counters.get("attacks.sessions", 0)), "count")
    m["attacks.abort_ratio"] = (_ratio(t.raised(*steps), t.count(*steps)), "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.unattributed.self_ms"] = (ms(t.self_ns("bench.unit")), "ms")
    return m


def attack_times(t: Tracer, units: int) -> dict[str, float]:
    """Inclusive ms per unit of each attack game, and the offline-guessing
    rate in candidates per second; empty when no game ran."""
    if not t.names("attacks.game."):
        return {}
    out = {f"attacks.{name}.ms": t.total_ns("attacks.game." + name) / 1e6 / units
           for name in ATTACK_NAMES}
    out["attacks.offline-guess.candidates_per_s"] = _ratio(
        t.counters.get("attacks.offline-guess.candidates", 0),
        t.total_ns("attacks.attack_offline_guessing") / 1e9)
    return out


def per_call_means(t: Tracer) -> dict[str, float]:
    """Inclusive mean ms per call of the primitives in the ROADMAP baseline."""
    def mean(name: str) -> float:
        return _ratio(t.total_ns(name) / 1e6, t.count(name))

    return {
        "k*G": mean("curve.mul_g"),
        "k*Q": mean("curve.mul_q"),
        "sign_over": mean("suite.sign_over"),
        "verify_over": mean("suite.verify_over"),
    }
