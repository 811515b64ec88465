"""Harness-level guarantees: deterministic transcripts, sound bit accounting,
exact round counts, instrumented operation tables, and the functionality
matrix."""

import copy
import json
import random
from collections import Counter

import pytest

from roamauth import curve as ec
from roamauth import harness, instrument, wire
from roamauth import mun as mun_mod
from roamauth import proposed as prop
from roamauth.attacks import AttackOutcome
from roamauth.curve import INFINITY, Point
from roamauth.harness import (
    CostReport,
    Transcript,
    UnsupportedScenario,
    build_proposed_world,
    functionality_matrix,
    measure_costs,
    measure_features,
    run_session,
)


# ---------------------------------------------------------------------------
# determinism


SUPPORTED = [
    ("proposed", "foreign-auth"),
    ("proposed", "home-auth"),
    ("proposed", "key-update"),
    ("proposed", "password-change"),
    ("proposed", "registration"),
    ("mun", "foreign-auth"),
    ("mun", "key-update"),
    ("mun", "registration"),
]


@pytest.mark.parametrize("scheme,scenario", SUPPORTED)
def test_identical_seed_gives_identical_transcript_bytes(toy_suite, scheme, scenario):
    r1 = run_session(toy_suite, scheme, scenario, random.Random(1234), update_rounds=2)
    r2 = run_session(toy_suite, scheme, scenario, random.Random(1234), update_rounds=2)
    assert r1.transcript.to_binary() == r2.transcript.to_binary()
    assert r1.transcript.to_jsonl() == r2.transcript.to_jsonl()
    r3 = run_session(toy_suite, scheme, scenario, random.Random(4321), update_rounds=2)
    if scenario != "registration":  # registration bytes vary only via rng
        assert r3.transcript.to_binary() != r1.transcript.to_binary()


def test_scenario_spec_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "spec.json"
    good = {"scheme": "proposed", "scenario": "key-update", "seed": 4, "curve": "toy",
            "update_rounds": 2}
    path.write_text(json.dumps(good))
    assert harness.ScenarioSpec.load(str(path)) == harness.ScenarioSpec(**good)
    bad_files = [
        [good],
        "proposed",
        {"scenario": "key-update"},
        {"scheme": "proposed"},
        {**good, "rounds": 2},
        {**good, "scheme": "nope"},
        {**good, "scenario": "nope"},
        {**good, "curve": "nope"},
        {**good, "curve": 1},
        {**good, "seed": "4"},
        {**good, "seed": True},
        {**good, "seed": 4.0},
        {**good, "update_rounds": "x"},
        {**good, "update_rounds": True},
        {**good, "update_rounds": 0},
        {**good, "update_rounds": -2},
    ]
    for raw in bad_files:
        path.write_text(json.dumps(raw))
        with pytest.raises(harness.HarnessError):
            harness.ScenarioSpec.load(str(path))


@pytest.mark.parametrize("rounds", [0, -2, True, 1.0, "2"])
def test_run_session_rejects_bad_update_rounds(toy_suite, rounds):
    with pytest.raises(harness.HarnessError, match="update_rounds"):
        run_session(toy_suite, "proposed", "key-update", random.Random(1), update_rounds=rounds)


# ---------------------------------------------------------------------------
# round counts


def test_round_counts_exact(toy_suite):
    assert run_session(toy_suite, "proposed", "foreign-auth", random.Random(1)).report.rounds == 4
    assert run_session(toy_suite, "mun", "foreign-auth", random.Random(1)).report.rounds == 5
    assert run_session(toy_suite, "proposed", "home-auth", random.Random(1)).report.rounds == 2
    upd = run_session(toy_suite, "proposed", "key-update", random.Random(1), update_rounds=3)
    for i in (1, 2, 3):
        assert upd.report.phase_rounds[f"update-{i}"] == 2
    mupd = run_session(toy_suite, "mun", "key-update", random.Random(1), update_rounds=2)
    for i in (1, 2):
        assert mupd.report.phase_rounds[f"update-{i}"] == 2


def test_mun_has_no_home_flow(toy_suite):
    with pytest.raises(UnsupportedScenario):
        run_session(toy_suite, "mun", "home-auth", random.Random(1))
    with pytest.raises(UnsupportedScenario):
        run_session(toy_suite, "mun", "password-change", random.Random(1))


# ---------------------------------------------------------------------------
# bit accounting


def test_nominal_bit_widths_per_message(toy_suite):
    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(2))
    by_kind = {m["kind"]: m["bits"] for m in res.report.message_bits}
    assert by_kind == {
        "login-request": 2528,
        "foreign-challenge": 3072,
        "home-answer": 2048,
        "login-accept": 1344,
    }
    assert res.report.mobile_bits == 2528 + 1344 == 3872
    assert res.report.paper_bits == 3808
    assert res.report.bits_delta == 64


def test_mun_bit_accounting(toy_suite):
    res = run_session(toy_suite, "mun", "foreign-auth", random.Random(2))
    by_kind = {m["kind"]: m["bits"] for m in res.report.message_bits}
    assert by_kind == {
        "mun-login": 448,
        "mun-forward": 448,
        "mun-home-reply": 320,
        "mun-foreign-reply": 1632,
        "mun-client-finish": 1184,
    }
    assert res.report.mobile_bits == 448 + 1632 + 1184 == 3264
    assert res.report.paper_bits == 4192


@pytest.mark.parametrize("scheme,scenario,points", [
    ("proposed", "foreign-auth", 4),  # A and C of the login request, B of the challenge and accept
    ("proposed", "registration", 1),  # C of the card-issue frame on the secure channel
    ("mun", "foreign-auth", 2),
])
def test_each_received_group_element_is_validated_once(toy_suite, monkeypatch,
                                                       scheme, scenario, points):
    # each point of a delivered frame reaches is_on_curve once, in the decoder
    sending: list[list] = []  # the points is_on_curve saw in the send under way
    delivered: list[tuple] = []  # (points of the delivered frame, points checked)
    on_curve, send = ec.is_on_curve, harness.MessageBus.send

    def spy_on_curve(cp, pt):
        if sending:
            sending[-1].append(pt)
        return on_curve(cp, pt)

    def spy_send(self, *args, **kwargs):
        sending.append([])
        try:
            msg = send(self, *args, **kwargs)
        finally:
            seen = sending.pop()
        delivered.append(([v for v in vars(msg).values() if type(v) is Point], seen))
        return msg

    monkeypatch.setattr(ec, "is_on_curve", spy_on_curve)
    monkeypatch.setattr(harness.MessageBus, "send", spy_send)
    assert run_session(toy_suite, scheme, scenario, random.Random(6)).outcome["success"]
    assert sum(len(frame) for frame, _seen in delivered) == points
    for frame, seen in delivered:
        assert Counter(seen) == Counter(frame)


def test_report_total_equals_sum_of_message_bits(toy_suite):
    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(4))
    mobile = [m for m in res.report.message_bits if "MU" in (m["sender"], m["receiver"])]
    assert res.report.mobile_bits == sum(m["bits"] for m in mobile)


def test_empty_transcript_zero_report(toy_suite):
    t = Transcript("proposed", "foreign-auth", "toy-751")
    rep = measure_costs(t, {})
    assert rep.rounds == 0
    assert rep.mobile_bits == 0
    assert rep.message_bits == []


# ---------------------------------------------------------------------------
# instrumented operation counts


EXPECTED_PROPOSED_OPS = {
    "MU": {"xor": 2, "hash": 6, "mul": 3, "mul_pre": 2},
    "FA": {"hash": 1, "mul": 3, "mul_pre": 1, "esym": 1, "dsym": 1,
           "gsign": 1, "vsign": 1, "kdf": 1, "vcert": 1},
    "HA": {"xor": 1, "hash": 4, "mul": 2, "esym": 1, "dsym": 1,
           "gsign": 1, "vsign": 1, "kdf": 1, "vcert": 1},
}


def test_proposed_op_counts_match_published_table(toy_suite):
    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(5))
    for party, expected in EXPECTED_PROPOSED_OPS.items():
        measured = {k: v for k, v in res.report.op_counts[party].items() if v}
        assert measured == expected, party
    # the paper's own eight columns, exactly
    paper = res.report.paper_ops
    for party in ("MU", "FA", "HA"):
        for col, val in paper[party].items():
            assert res.report.op_counts[party][col] == val, (party, col)


def test_mun_op_counts(toy_suite):
    res = run_session(toy_suite, "mun", "foreign-auth", random.Random(5))
    assert {k: v for k, v in res.report.op_counts["MU"].items() if v} == {
        "xor": 2, "hash": 4, "mul": 2, "mul_pre": 1, "mac": 1}
    assert {k: v for k, v in res.report.op_counts["FA"].items() if v} == {
        "xor": 2, "hash": 3, "mul": 2, "mul_pre": 1, "mac": 1}
    assert {k: v for k, v in res.report.op_counts["HA"].items() if v} == {
        "xor": 3, "hash": 3}


@pytest.mark.parametrize("scheme,scenario", SUPPORTED)
def test_instrumentation_complete_during_sessions(toy_suite, scheme, scenario):
    instrument.reset_unattributed()
    res = run_session(toy_suite, scheme, scenario, random.Random(6), update_rounds=2)
    assert res.outcome["success"]
    assert instrument.unattributed_ops() == 0


def test_card_local_checks_are_billed_to_the_user(toy_suite):
    # registration ends with the card's local check, two hashes; a password
    # change re-checks the old password on the new card before logging in
    registration = run_session(toy_suite, "proposed", "registration", random.Random(6))
    change = run_session(toy_suite, "proposed", "password-change", random.Random(6))
    assert registration.report.op_counts["MU"]["hash"] == 3
    assert change.report.op_counts["MU"]["hash"] == 12


# ---------------------------------------------------------------------------
# step context: an honest step is a counted step


def test_nested_counting_restores_the_outer_counter_after_a_raise(toy_suite):
    outer, inner = instrument.OpCounts(), instrument.OpCounts()
    instrument.reset_unattributed()
    with instrument.counting(outer):
        with pytest.raises(RuntimeError):
            with instrument.counting(inner):
                toy_suite.hash_fields([b"inner"])
                raise RuntimeError("step failed")
        toy_suite.hash_fields([b"outer"])
    toy_suite.hash_fields([b"after"])
    assert (inner.hash, outer.hash) == (1, 1)
    assert instrument.unattributed_ops() == 1
    assert not harness.in_honest_step()


def test_nested_counting_binds_and_restores_each_counter():
    outer, inner = instrument.OpCounts(), instrument.OpCounts()
    assert instrument.active_counter() is None
    with instrument.counting(outer) as bound:
        assert bound is outer and instrument.active_counter() is outer
        with instrument.counting(inner) as bound_inner:
            assert bound_inner is inner and instrument.active_counter() is inner
        assert instrument.active_counter() is outer
        with pytest.raises(KeyError):
            with instrument.counting(inner):
                raise KeyError("inner step")
        assert instrument.active_counter() is outer
    assert instrument.active_counter() is None


def test_record_outside_any_block_is_unattributed():
    instrument.reset_unattributed()
    instrument.record("hash")
    instrument.record("mul", pre=True)
    assert instrument.unattributed_ops() == 2
    instrument.reset_unattributed()
    assert instrument.unattributed_ops() == 0


def test_record_pre_marks_only_multiplications():
    ops = instrument.OpCounts()
    instrument.reset_unattributed()
    with instrument.counting(ops):
        instrument.record("mul", pre=True)
        instrument.record("mul")
        instrument.record("hash", pre=True)
        instrument.record("vcert")
    assert ops.as_dict() == {**instrument.OpCounts().as_dict(),
                             "mul": 2, "mul_pre": 1, "hash": 1, "vcert": 1}
    assert instrument.unattributed_ops() == 0


def test_op_counts_dict_keys_follow_the_field_order():
    # the cost-report JSON bytes are written in this order
    ops = instrument.OpCounts(**{name: i for i, name in enumerate(instrument.OpCounts._fields)})
    assert list(ops.as_dict()) == list(instrument.OpCounts._fields)
    assert list(ops.as_dict().values()) == list(range(len(ops.as_dict())))


STEP_FUNCTIONS = {
    "proposed": (prop, ("login_begin", "fa_process_login", "ha_process", "fa_finish",
                        "mu_finish")),
    "mun": (mun_mod, ("mun_login", "mun_fa_forward", "mun_ha_auth",
                      "mun_fa_respond", "mun_mu_respond", "mun_fa_verify")),
}


@pytest.mark.parametrize("scheme", ["proposed", "mun"])
def test_adversary_hook_runs_outside_honest_steps(toy_suite, monkeypatch, scheme):
    seen: list[tuple[str, bool]] = []

    def hook(sender, receiver, kind, raw):
        seen.append(("hook " + kind, harness.in_honest_step()))
        return raw

    module, names = STEP_FUNCTIONS[scheme]
    for name in names:
        def spy(*args, _fn=getattr(module, name), _name=name):
            seen.append((_name, harness.in_honest_step()))
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)

    res = run_session(toy_suite, scheme, "foreign-auth", random.Random(12), adversary=hook)
    assert res.outcome["success"]
    assert [name for name, _ in seen if not name.startswith("hook")] == list(names)
    hooks = [honest for name, honest in seen if name.startswith("hook")]
    assert hooks == [False] * (len(names) - 1)  # one frame between consecutive steps
    assert all(honest for name, honest in seen if not name.startswith("hook"))


@pytest.mark.parametrize("scheme,scenario", SUPPORTED)
def test_every_open_frame_reaches_the_hook_outside_honest_steps(toy_suite, scheme, scenario):
    honest: list[bool] = []

    def hook(sender, receiver, kind, raw):
        honest.append(harness.in_honest_step())
        return raw

    res = run_session(toy_suite, scheme, scenario, random.Random(12), adversary=hook,
                      update_rounds=2)
    assert res.outcome["success"]
    assert honest == [False] * sum(not e.secure for e in res.transcript.entries)


@pytest.mark.parametrize("scheme,error", [("proposed", "ConfirmMismatch"),
                                          ("mun", "MunAuthError")])
def test_tampered_refresh_aborts_its_own_round(toy_suite, scheme, error):
    refreshes: list[str] = []

    def flip_second_refresh_tag(sender, receiver, kind, raw):
        if kind.endswith("refresh-response"):
            refreshes.append(kind)
            if len(refreshes) == 2:
                raw = raw[:-1] + bytes([raw[-1] ^ 1])  # the tag is the last field
        return raw

    res = run_session(toy_suite, scheme, "key-update", random.Random(14),
                      adversary=flip_second_refresh_tag, update_rounds=3)
    assert not res.outcome["success"]
    assert (res.outcome["error"], res.outcome["party"]) == (error, "MU")
    assert res.transcript.entries[-1].phase == "update-2"
    assert len(refreshes) == 2


# ---------------------------------------------------------------------------
# played roles: the adversary runs a party's steps inside the session


def _as_honest(fn, args):
    return fn(*args)


@pytest.mark.parametrize("scheme,party", [("proposed", "MU"), ("proposed", "FA"),
                                          ("proposed", "HA"), ("mun", "MU"),
                                          ("mun", "FA"), ("mun", "HA")])
def test_a_played_party_is_billed_nothing_and_its_frames_are_recorded(toy_suite, scheme,
                                                                       party):
    honest = run_session(toy_suite, scheme, "foreign-auth", random.Random(40))
    played = run_session(toy_suite, scheme, "foreign-auth", random.Random(40),
                         play={party: _as_honest})
    assert played.outcome == honest.outcome and played.outcome["success"]
    assert set(played.report.op_counts[party].values()) == {0}
    for other in {"MU", "FA", "HA"} - {party}:
        assert played.report.op_counts[other] == honest.report.op_counts[other]
    assert any(e.sender == party for e in played.transcript.entries)
    assert played.transcript == honest.transcript


def test_a_played_identity_point_is_refused_at_the_bus(toy_suite):
    def identity_challenge(fn, args):
        m2, fa_sess = fn(*args)  # the session ends at the home agent
        return m2.replace(foreign_eph=INFINITY), fa_sess

    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(41),
                      play={"FA": identity_challenge})
    assert res.outcome["abort"] == ("undeliverable message: foreign-challenge: "
                                    "point at infinity rejected")
    assert (res.outcome["error"], res.outcome["party"]) == ("EncodingError", "HA")
    assert [e.kind for e in res.transcript.entries] == ["login-request"]


def test_honest_step_without_a_counter_is_not_unattributed(toy_suite):
    instrument.reset_unattributed()
    with harness.honest_step():
        assert harness.in_honest_step()
        toy_suite.hash_fields([b"x"])
    assert instrument.unattributed_ops() == 0
    assert not harness.in_honest_step()


# ---------------------------------------------------------------------------
# transcript serialization


def test_transcript_jsonl_roundtrip(toy_suite):
    t = run_session(toy_suite, "proposed", "foreign-auth", random.Random(7)).transcript
    assert Transcript.from_jsonl(t.to_jsonl()) == t


def test_transcript_messages_reparse(toy_suite):
    t = run_session(toy_suite, "proposed", "foreign-auth", random.Random(8)).transcript
    kinds = [wire.deserialize(toy_suite.cp, e.payload).KIND for e in t.entries]
    assert kinds == ["login-request", "foreign-challenge", "home-answer", "login-accept"]


@pytest.mark.parametrize("scheme,scenario", SUPPORTED)
def test_loaded_transcript_keeps_its_canonical_bytes(toy_suite, scheme, scenario):
    t = run_session(toy_suite, scheme, scenario, random.Random(7), update_rounds=2).transcript
    assert Transcript.from_jsonl(t.to_jsonl()).to_binary() == t.to_binary()


@pytest.mark.parametrize("scheme", ["proposed", "mun"])
def test_transcript_jsonl_rejects_malformed_files(toy_suite, scheme):
    t = run_session(toy_suite, scheme, "foreign-auth", random.Random(7)).transcript
    text = t.to_jsonl()
    header, *entries = [json.loads(ln) for ln in text.splitlines()]

    def dump(*records) -> str:
        return "\n".join(json.dumps(r) for r in records) + "\n"

    def edited(key, value) -> str:
        return dump(header, {**entries[0], key: value}, *entries[1:])

    assert Transcript.from_jsonl(dump(header, *entries)) == t
    for cut in range(1, len(text)):
        if "\n" not in text[cut - 1 : cut + 1]:  # a cut at a line end leaves whole lines
            with pytest.raises(harness.HarnessError, match="not JSON"):
                Transcript.from_jsonl(text[:cut])
    for bad in ("", "\n \n", "[]\n"):
        with pytest.raises(harness.HarnessError, match="empty|keys"):
            Transcript.from_jsonl(bad)
    renamed = dict(entries[0])
    renamed["type"] = renamed.pop("kind")
    missing = dict(entries[0])
    del missing["bits"]
    for rec in (renamed, missing, {**entries[0], "extra": 1}):
        with pytest.raises(harness.HarnessError, match="keys"):
            Transcript.from_jsonl(dump(header, rec, *entries[1:]))
    with pytest.raises(harness.HarnessError, match="keys"):
        Transcript.from_jsonl(dump({**header, "seed": 7}, *entries))
    for key, value in (("secure", 2), ("secure", 0), ("bits", True), ("bits", "96"),
                       ("i", 0.0), ("kind", None)):
        with pytest.raises(harness.HarnessError, match=f"field '{key}'"):
            Transcript.from_jsonl(edited(key, value))
    for payload in ("zz", "abc", "AB", " " + entries[0]["hex"]):
        with pytest.raises(harness.HarnessError, match="lowercase hex"):
            Transcript.from_jsonl(edited("hex", payload))
    with pytest.raises(harness.HarnessError, match="out of sequence"):
        Transcript.from_jsonl(dump(header, entries[1], entries[0], *entries[2:]))
    with pytest.raises(harness.HarnessError, match="out of sequence"):
        Transcript.from_jsonl(dump(header, *entries[1:]))


def test_cost_report_json_roundtrip(toy_suite):
    rep = run_session(toy_suite, "proposed", "foreign-auth", random.Random(9)).report
    again = CostReport.from_json(rep.to_json())
    assert again == rep
    assert "3808" in rep.to_json()
    csv_text = rep.comm_csv()
    assert "3872" in csv_text and "3808" in csv_text and "64" in csv_text


# ---------------------------------------------------------------------------
# adversary hook


def test_adversary_hook_can_tamper(toy_suite):
    def flip_accept(sender, receiver, kind, raw):
        if kind == "login-accept":
            raw = raw[:-1] + bytes([raw[-1] ^ 1])
        return raw

    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(10),
                      adversary=flip_accept)
    assert not res.outcome["success"]
    assert "ConfirmMismatch" in res.outcome["abort"]
    assert (res.outcome["error"], res.outcome["party"]) == ("ConfirmMismatch", "MU")


def test_tampering_a_point_field_aborts_cleanly(toy_suite):
    # Corrupting point bytes makes the message unparseable; the session must
    # abort with an outcome, not crash.
    def flip_point(sender, receiver, kind, raw):
        if kind == "login-request":
            body = bytearray(raw)
            body[8] ^= 0xFF  # inside the first (point) field payload
            return bytes(body)
        return raw

    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(11),
                      adversary=flip_point)
    assert not res.outcome["success"]
    assert "undeliverable" in res.outcome["abort"] or "Validation" in res.outcome["abort"]
    assert res.outcome["error"] in ("EncodingError", "CurveError", "ValidationError")
    assert res.outcome["party"] == "FA"  # the receiver of the corrupted login request


def test_wrong_password_aborts_at_the_user_before_any_traffic(toy_suite):
    world = build_proposed_world(toy_suite, random.Random(13))
    world.mu = prop.MUState(world.mu.user_id, b"wrong-password", world.mu.card)
    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(13), world=world)
    assert (res.outcome["error"], res.outcome["party"]) == ("LocalVerificationError", "MU")
    assert res.transcript.entries == []


# ---------------------------------------------------------------------------
# feature measurement and the functionality matrix


def _fake_outcomes(pattern: dict[str, dict[str, bool]]):
    return {
        name: {
            scheme: AttackOutcome(name, scheme, succeeded, {}, "synthetic")
            for scheme, succeeded in per.items()
        }
        for name, per in pattern.items()
    }


EXPECTED_ATTACK_PATTERN = {
    "mu-impersonation": {"proposed": False, "mun": True},
    "fa-impersonation": {"proposed": False, "mun": True},
    "ha-impersonation": {"proposed": False, "mun": True},
    "offline-guess": {"proposed": False, "mun": True},
    "insider": {"proposed": False, "mun": True},
    "traceability": {"proposed": False, "mun": True},
    "replay": {"proposed": False, "mun": True},
    "forward-secrecy": {"proposed": False, "mun": False},
}


def test_measure_features(toy_suite):
    feats = measure_features(toy_suite, random.Random(11))
    assert feats["no-verification-table"] == {"proposed": True, "mun": False}
    assert feats["local-verification"] == {"proposed": True, "mun": False}
    assert feats["password-change"] == {"proposed": True, "mun": False}
    assert feats["home-network-auth"] == {"proposed": True, "mun": False}


def test_functionality_matrix_values(toy_suite):
    feats = measure_features(toy_suite, random.Random(12))
    matrix = functionality_matrix(_fake_outcomes(EXPECTED_ATTACK_PATTERN), feats)
    by_key = {row["key"]: row for row in matrix.rows}
    assert len(matrix.rows) == 13
    for row in matrix.rows:
        assert row["measured"]["proposed"] == "Yes"
    assert by_key["forward-secrecy"]["measured"]["mun"] == "Yes"
    assert by_key["anonymity"]["measured"]["mun"] == "No"
    # the single expected measured-vs-published disagreement
    flagged = [r["key"] for r in matrix.rows if r["flag"]]
    assert flagged == ["no-verification-table"]
    assert by_key["no-verification-table"]["reported"]["mun"] == "Yes"
    assert by_key["no-verification-table"]["measured"]["mun"] == "No"


# The matrix rows each attack measures: its own row, plus mutual-auth for
# the three impersonations.
ATTACK_ROWS = {
    "mu-impersonation": ("resist-mu-impersonation", "mutual-auth"),
    "fa-impersonation": ("resist-fa-impersonation", "mutual-auth"),
    "ha-impersonation": ("resist-ha-impersonation", "mutual-auth"),
    "offline-guess": ("resist-offline-guessing",),
    "insider": ("resist-insider",),
    "traceability": ("anonymity",),
    "replay": ("resist-replay",),
    "forward-secrecy": ("forward-secrecy",),
}


@pytest.mark.parametrize("attack", sorted(ATTACK_ROWS))
def test_matrix_flags_any_disagreement_instead_of_hiding_it(toy_suite, attack):
    feats = measure_features(toy_suite, random.Random(13))
    pattern = copy.deepcopy(EXPECTED_ATTACK_PATTERN)
    pattern[attack]["proposed"] = True  # pretend the attack broke the scheme
    matrix = functionality_matrix(_fake_outcomes(pattern), feats)
    by_key = {row["key"]: row for row in matrix.rows}
    for key in ATTACK_ROWS[attack]:
        assert by_key[key]["measured"]["proposed"] == "No"
        assert by_key[key]["flag"] is not None


def test_matrix_marks_quoted_columns(toy_suite):
    feats = measure_features(toy_suite, random.Random(14))
    matrix = functionality_matrix(_fake_outcomes(EXPECTED_ATTACK_PATTERN), feats)
    text = matrix.to_csv()
    assert "paper-reported, not measured" in text
    for label in ("Wu", "Chang", "Li-Lee"):
        assert any(label.lower() in c for c in text.splitlines()[0].lower().split(","))


# ---------------------------------------------------------------------------
# worlds


def test_world_build_is_deterministic(toy_suite):
    w1 = build_proposed_world(toy_suite, random.Random(15))
    w2 = build_proposed_world(toy_suite, random.Random(15))
    assert w1.ha == w2.ha
    assert w1.mu == w2.mu


def test_session_ephemerals_are_wiped(toy_suite):
    # the finishing steps wipe the user and foreign session scalars
    world = build_proposed_world(toy_suite, random.Random(16))
    rng = random.Random(17)
    m1, mu_sess = prop.login_begin(toy_suite, world.mu, rng)
    m2, fa_sess = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    m3 = prop.ha_process(toy_suite, world.ha, m2, rng)
    m4, _ = prop.fa_finish(toy_suite, world.fa, fa_sess, m3)
    prop.mu_finish(toy_suite, world.mu, mu_sess, m4)
    assert mu_sess.eph_priv is None
    assert fa_sess.eph_priv is None
