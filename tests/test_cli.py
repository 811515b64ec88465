"""Command-line contract: exit codes form the shell-level test surface."""

import json
import shutil

import pytest

from roamauth import harness
from roamauth.cli import (
    EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, build_parser, load_dictionary, main, outcome_record,
)


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def card(tmp_path):
    path = tmp_path / "alice.card"
    assert run("register", "--id", "alice", "--password", "hunter2",
               "--seed", "3", "--curve", "toy", "--out", str(path)) == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# register


def test_register_refuses_overwrite_without_force(card, tmp_path):
    assert run("register", "--id", "alice", "--password", "hunter2",
               "--seed", "3", "--curve", "toy", "--out", str(card)) == EXIT_USAGE
    assert run("register", "--id", "alice", "--password", "hunter2",
               "--seed", "3", "--curve", "toy", "--out", str(card), "--force") == EXIT_OK


def test_register_empty_password_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.card"
    assert run("register", "--id", "a", "--password", "", "--curve", "toy",
               "--out", str(out)) == EXIT_USAGE
    assert "error: password must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_card_file_roundtrips(card, toy_suite):
    from roamauth.cli import load_card

    loaded, label, seed = load_card(toy_suite, card)
    assert label == "alice"
    assert seed == 3
    assert len(loaded.masked_key) == 20
    assert loaded.card_salt is not None


# ---------------------------------------------------------------------------
# handshake


def test_handshake_with_card_succeeds(card, tmp_path):
    out = tmp_path / "runs"
    assert run("handshake", "--scheme", "proposed", "--scenario", "foreign-auth",
               "--curve", "toy", "--seed", "5", "--card", str(card),
               "--password", "hunter2", "--out", str(out)) == EXIT_OK
    assert (out / "proposed-foreign-auth-transcript.jsonl").exists()
    assert (out / "proposed-foreign-auth-cost.json").exists()
    assert (out / "proposed-foreign-auth-comm.csv").exists()


def test_handshake_writes_every_file(tmp_path):
    out = tmp_path / "runs"
    assert run("handshake", "--scheme", "mun", "--curve", "toy", "--out", str(out)) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        f"mun-foreign-auth-{suffix}"
        for suffix in ("comm.csv", "cost.json", "ops.csv", "transcript.jsonl")
    ]


def test_curve_comes_from_the_command_line_only(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"curve": "toy"}))
    monkeypatch.setenv("ROAMAUTH_CONFIG", str(config))
    out = tmp_path / "runs"
    assert run("handshake", "--out", str(out)) == EXIT_OK
    assert json.loads((out / "proposed-foreign-auth-cost.json").read_text())["curve"] == "p256"


def test_handshake_with_wrong_password_aborts_locally(card, tmp_path):
    out = tmp_path / "runs"
    assert run("handshake", "--scheme", "proposed", "--scenario", "foreign-auth",
               "--curve", "toy", "--seed", "5", "--card", str(card),
               "--password", "wrong", "--out", str(out)) == EXIT_MISMATCH


def test_handshake_deterministic_under_seed(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("handshake", "--scheme", "mun", "--curve", "toy",
                   "--seed", "77", "--out", str(out)) == EXIT_OK
        outs.append((out / "mun-foreign-auth-transcript.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_handshake_tamper_flag_gives_nonzero_exit(tmp_path):
    assert run("handshake", "--scheme", "proposed", "--curve", "toy", "--seed", "5",
               "--tamper", "login-accept", "--out", str(tmp_path / "r")) == EXIT_MISMATCH


@pytest.mark.parametrize("scheme,scenario,kind", [
    ("proposed", "foreign-auth", "login-acept"),   # misspelt
    ("proposed", "foreign-auth", "mun-login"),     # never sent by this run
    ("proposed", "registration", "reg-request"),   # secure channel, not on the open bus
])
def test_handshake_tamper_without_a_frame_is_usage_error(tmp_path, capsys, scheme, scenario, kind):
    out = tmp_path / "r"
    assert run("handshake", "--scheme", scheme, "--scenario", scenario, "--curve", "toy",
               "--seed", "5", "--tamper", kind, "--out", str(out)) == EXIT_USAGE
    assert f"no open {kind} frame to tamper with" in capsys.readouterr().err
    assert not out.exists()


def test_handshake_card_with_mun_is_usage_error(card, tmp_path, capsys):
    out = tmp_path / "r"
    assert run("handshake", "--scheme", "mun", "--curve", "toy", "--card", str(card),
               "--password", "hunter2", "--out", str(out)) == EXIT_USAGE
    assert "--card applies to the proposed scheme only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("given", ["--card", "--password"])
def test_handshake_card_or_password_alone_is_usage_error(card, tmp_path, capsys, given):
    out = tmp_path / "r"
    value = str(card) if given == "--card" else "hunter2"
    assert run("handshake", "--curve", "toy", "--seed", "5", given, value,
               "--out", str(out)) == EXIT_USAGE
    assert "error: --card and --password must be given together" in capsys.readouterr().err
    assert not out.exists()


def test_handshake_unsupported_scenario(tmp_path):
    assert run("handshake", "--scheme", "mun", "--scenario", "home-auth",
               "--curve", "toy", "--seed", "5", "--out", str(tmp_path / "r")) == EXIT_USAGE


def test_handshake_scenario_file(tmp_path):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({
        "scheme": "proposed", "scenario": "key-update",
        "seed": 12, "curve": "toy", "update_rounds": 2,
    }))
    out = tmp_path / "runs"
    assert run("handshake", "--scenario-file", str(spec), "--out", str(out)) == EXIT_OK
    text = (out / "proposed-key-update-transcript.jsonl").read_text()
    assert "update-2" in text
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scheme": "nope", "scenario": "foreign-auth"}))
    assert run("handshake", "--scenario-file", str(bad), "--out", str(out)) == EXIT_USAGE


def test_scenario_file_help_names_every_field_it_overrides():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    action = next(a for a in sub.choices["handshake"]._actions if a.dest == "scenario_file")
    for name in harness.ScenarioSpec._fields:
        assert name.replace("_", "-") in action.help, name


@pytest.mark.parametrize("fields", [
    {"scheme": "proposed", "scenario": "foreign-auth", "curve": "nope"},
    {"scheme": "proposed", "scenario": "key-update", "curve": "toy", "update_rounds": "x"},
    {"scheme": "proposed", "scenario": "key-update", "curve": "toy", "update_rounds": 0},
    {"scheme": "proposed", "scenario": "foreign-auth", "curve": "toy", "seed": True},
])
def test_handshake_bad_scenario_file_is_usage_error(tmp_path, capsys, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fields))
    assert run("handshake", "--scenario-file", str(bad), "--out", str(tmp_path / "r")) == EXIT_USAGE
    assert "bad scenario file" in capsys.readouterr().err
    bad.write_text(json.dumps([fields]))
    assert run("handshake", "--scenario-file", str(bad), "--out", str(tmp_path / "r")) == EXIT_USAGE


@pytest.mark.parametrize("rounds", ["0", "-2", "x"])
def test_handshake_update_rounds_below_one_is_usage_error(tmp_path, rounds):
    with pytest.raises(SystemExit) as exc:
        run("handshake", "--scenario", "key-update", "--curve", "toy",
            "--update-rounds", rounds, "--out", str(tmp_path / "r"))
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# attack


def test_attack_unknown_name_is_usage_error(tmp_path):
    assert run("attack", "--attack", "does-not-exist", "--scheme", "mun",
               "--expect", "success") == EXIT_USAGE


def test_attack_expectations(tmp_path):
    out = tmp_path / "o.json"
    assert run("attack", "--attack", "offline-guess", "--scheme", "mun",
               "--curve", "toy", "--expect", "success", "--seed", "5",
               "--out", str(out)) == EXIT_OK
    rec = json.loads(out.read_text())
    assert (rec["curve"], rec["grants"]) == ("toy-751", [])
    assert rec["outcome"]["succeeded"] is True
    # The same attack cannot succeed against the proposed scheme.
    assert run("attack", "--attack", "offline-guess", "--scheme", "proposed",
               "--expect", "failure", "--seed", "5") == EXIT_OK
    # A wrong expectation exits nonzero (--allow-toy bypasses the guard so
    # the attack actually runs and the verdict mismatch is what fails).
    assert run("attack", "--attack", "offline-guess", "--scheme", "mun",
               "--curve", "toy", "--expect", "failure", "--allow-toy",
               "--seed", "5") == EXIT_MISMATCH


def test_attack_security_assertion_refused_on_toy(tmp_path):
    assert run("attack", "--attack", "replay", "--scheme", "proposed",
               "--curve", "toy", "--expect", "failure") == EXIT_USAGE
    assert run("attack", "--attack", "replay", "--scheme", "proposed",
               "--curve", "toy", "--expect", "failure", "--allow-toy") == EXIT_OK


def test_attack_oracle_on_toy_demonstrates_reduction(tmp_path):
    assert run("attack", "--attack", "replay", "--scheme", "proposed",
               "--curve", "toy", "--expect", "success", "--cdl-oracle",
               "--seed", "6") == EXIT_OK


@pytest.mark.parametrize("scheme", ["proposed", "mun"])
@pytest.mark.parametrize("attack", ["mu-impersonation", "replay", "forward-secrecy"])
def test_attack_oracle_on_p256_is_usage_error(tmp_path, capsys, attack, scheme):
    out = tmp_path / "o.json"
    assert run("attack", "--attack", attack, "--scheme", scheme, "--curve", "p256",
               "--cdl-oracle", "--expect", "success", "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "discrete-log oracle" in err
    assert not out.exists()


def test_attack_with_dictionary_file(tmp_path, toy_suite):
    import random

    from roamauth.attacks import make_adapter

    adapter = make_adapter("mun", toy_suite, random.Random(5))
    dict_path = tmp_path / "words.txt"
    lines = ["password123", adapter.world.cred.password_digest.hex(), "letmein"]
    dict_path.write_text("\n".join(lines) + "\n")
    words = load_dictionary(dict_path)
    assert adapter.world.cred.password_digest in words
    assert b"password123" in words
    assert run("attack", "--attack", "offline-guess", "--scheme", "mun",
               "--curve", "toy", "--expect", "success", "--seed", "5",
               "--dict", str(dict_path)) == EXIT_OK


def test_attack_empty_dictionary_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    out = tmp_path / "o.json"
    assert run("attack", "--attack", "offline-guess", "--scheme", "mun", "--curve", "toy",
               "--dict", str(empty), "--expect", "failure", "--allow-toy",
               "--out", str(out)) == EXIT_USAGE
    assert "holds no candidates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_attack_trials_below_one_is_usage_error(trials):
    with pytest.raises(SystemExit) as exc:
        run("attack", "--attack", "traceability", "--scheme", "mun", "--curve", "toy",
            "--expect", "success", "--trials", trials)
    assert exc.value.code == EXIT_USAGE


def test_traceability_game_needs_a_trial(toy_suite):
    import random

    from roamauth.attacks import attack_traceability, make_adapter

    adapter = make_adapter("mun", toy_suite, random.Random(5))
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least one trial"):
            attack_traceability(adapter, random.Random(5), trials)


def test_attack_unreadable_dictionary_is_usage_error(tmp_path, capsys):
    assert run("attack", "--attack", "offline-guess", "--scheme", "mun", "--curve", "toy",
               "--expect", "success", "--dict", str(tmp_path / "missing.txt")) == EXIT_USAGE
    assert "cannot read dictionary" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"caf\xe9\n")
    assert run("attack", "--attack", "offline-guess", "--scheme", "mun", "--curve", "toy",
               "--expect", "success", "--dict", str(latin1)) == EXIT_USAGE


# ---------------------------------------------------------------------------
# report


def test_report_missing_inputs_is_a_clear_error(tmp_path, capsys):
    assert run("report", "--runs-dir", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "rep")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_report_on_the_toy_curve_needs_allow_toy(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    rep = tmp_path / "rep"
    assert run("report", "--runs-dir", str(runs), "--out", str(rep),
               "--curve", "toy") == EXIT_USAGE
    assert "pass --allow-toy to override" in capsys.readouterr().err
    assert not rep.exists()


def test_report_requires_all_artifacts(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    assert run("report", "--runs-dir", str(runs), "--out", str(tmp_path / "rep"),
               "--curve", "toy", "--allow-toy") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "missing prior run artifacts" in err


def test_report_refuses_a_cost_report_under_another_name(tmp_path, capsys):
    runs = tmp_path / "runs"
    for scheme in ("proposed", "mun"):
        assert run("handshake", "--scheme", scheme, "--curve", "toy", "--seed", "9",
                   "--out", str(runs)) == EXIT_OK
    mun = (runs / "mun-foreign-auth-cost.json").read_text()
    (runs / "proposed-foreign-auth-cost.json").write_text(mun)
    rep = tmp_path / "rep"
    assert run("report", "--runs-dir", str(runs), "--out", str(rep),
               "--curve", "toy", "--allow-toy") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad run artifact" in err and "proposed-foreign-auth-cost.json" in err
    assert not rep.exists()


def _toy_runs(runs, toy_suite, trials: int):
    """Fill `runs` with every artifact `report` reads, from seeded toy runs:
    both schemes' foreign-auth cost reports and all sixteen attack outcomes."""
    import random

    from roamauth import attacks as atk

    for scheme in ("proposed", "mun"):
        assert run("handshake", "--scheme", scheme, "--curve", "toy",
                   "--seed", "9", "--out", str(runs)) == EXIT_OK
    for name, per in atk.run_attack_matrix(toy_suite, random.Random(11), trials=trials).items():
        for scheme, outcome in per.items():
            (runs / f"attack-{name}-{scheme}.json").write_text(
                outcome_record(toy_suite, outcome, []))


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory, toy_suite):
    runs = tmp_path_factory.mktemp("toy") / "runs"
    _toy_runs(runs, toy_suite, trials=1)
    return runs


def test_report_refuses_cost_reports_of_another_curve(toy_runs, tmp_path, capsys):
    rep = tmp_path / "rep"
    assert run("report", "--runs-dir", str(toy_runs), "--out", str(rep)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad run artifact" in err and "not p256" in err
    assert not rep.exists()


@pytest.mark.parametrize("name,edits", [
    ("attack-replay-mun2.json", {"succeeded": False}),   # a copy under another name
    ("attack-replay-munx.json", {"scheme": "munx"}),     # an unknown scheme
    ("attack-replay-typo-mun.json", {"attack": "replay-typo"}),  # an unknown attack
])
def test_report_refuses_an_outcome_it_cannot_vouch_for(toy_runs, tmp_path, capsys, name, edits):
    rec = json.loads((toy_runs / "attack-replay-mun.json").read_text())
    extra = toy_runs / name
    extra.write_text(json.dumps({**rec, "outcome": {**rec["outcome"], **edits}}))
    try:
        assert run("report", "--runs-dir", str(toy_runs), "--out", str(tmp_path / "rep"),
                   "--curve", "toy", "--allow-toy") == EXIT_USAGE
    finally:
        extra.unlink()
    err = capsys.readouterr().err
    assert "bad run artifact" in err and name in err
    assert not (tmp_path / "rep").exists()


def test_report_refuses_a_toy_outcome_under_a_p256_report(toy_runs, tmp_path, capsys):
    runs = tmp_path / "runs"
    for scheme in ("proposed", "mun"):
        assert run("handshake", "--scheme", scheme, "--seed", "9", "--out", str(runs)) == EXIT_OK
    name = "attack-replay-proposed.json"
    (runs / name).write_text((toy_runs / name).read_text())
    assert run("report", "--runs-dir", str(runs), "--out", str(tmp_path / "rep")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad run artifact" in err and name in err and "toy-751, not p256" in err
    assert not (tmp_path / "rep").exists()


def test_report_refuses_an_outcome_run_with_the_oracle(toy_runs, tmp_path, capsys):
    runs = tmp_path / "runs"
    shutil.copytree(toy_runs, runs)
    out = runs / "attack-replay-proposed.json"
    assert run("attack", "--attack", "replay", "--scheme", "proposed", "--curve", "toy",
               "--cdl-oracle", "--expect", "success", "--seed", "6", "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["grants"] == ["cdl-oracle"]
    assert run("report", "--runs-dir", str(runs), "--out", str(tmp_path / "rep"),
               "--curve", "toy", "--allow-toy") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad run artifact" in err and out.name in err and "granted cdl-oracle" in err
    assert not (tmp_path / "rep").exists()


def test_full_report_pipeline(tmp_path, toy_suite):
    runs = tmp_path / "runs"
    # toy artifacts keep this fast; the acceptance suite checks the verdicts
    # on the production curve
    _toy_runs(runs, toy_suite, trials=40)
    rep = tmp_path / "rep"
    assert run("report", "--runs-dir", str(runs), "--out", str(rep),
               "--curve", "toy", "--allow-toy", "--seed", "11") == EXIT_OK
    table3 = (rep / "table3_communication.csv").read_text()
    assert "4" in table3 and "5" in table3
    assert "3872" in table3 and "3808" in table3
    table4 = (rep / "table4_operations.csv").read_text()
    assert "MU" in table4 and "HA" in table4
    table5 = (rep / "table5_functionality.csv").read_text()
    assert "paper-reported, not measured" in table5
    matrix = json.loads((rep / "table5_functionality.json").read_text())
    by_key = {r["key"]: r for r in matrix["rows"]}
    assert all(r["measured"]["proposed"] == "Yes" for r in matrix["rows"])
    assert by_key["no-verification-table"]["flag"] is not None
    assert sorted(p.name for p in rep.iterdir()) == [
        "table3_communication.csv", "table4_operations.csv",
        "table5_functionality.csv", "table5_functionality.json",
    ]


@pytest.mark.parametrize("command", ["register", "handshake", "attack", "report"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, toy_runs, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {
        "register": ["register", "--id", "a", "--password", "x", "--curve", "toy",
                     "--out", str(tmp_path), "--force"],
        "handshake": ["handshake", "--curve", "toy", "--out", str(afile)],
        "attack": ["attack", "--attack", "replay", "--scheme", "proposed", "--curve", "toy",
                   "--expect", "success", "--out", str(afile / "x.json")],
        "report": ["report", "--runs-dir", str(toy_runs), "--curve", "toy", "--allow-toy",
                   "--out", str(afile)],
    }[command]
    capsys.readouterr()
    assert run(*argv) == EXIT_USAGE
    assert "error: cannot write output" in capsys.readouterr().err
