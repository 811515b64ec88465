"""Every JSON file roamauth reads goes through one strict record check.

The property tests feed each loader - scenario file, JSON-lines transcript,
card file, cost report and attack outcome - two kinds of input: arbitrary
JSON values, and a valid record from a seeded toy run with one value, at any
depth, replaced by arbitrary JSON.  Each input loads (and a loaded cost
report still renders both tables), or raises `HarnessError`; nothing else
escapes.  The CLI commands that read these files exit 2 when their loader
refuses the file.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamauth import attacks, cli
from roamauth.curve import TOY
from roamauth.harness import CostReport, HarnessError, ScenarioSpec, Transcript, run_session
from roamauth.suite import CryptoSuite

SUITE = CryptoSuite(TOY)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """(path, value) for the value and every value nested in it."""
    yield prefix, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _replace(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


@st.composite
def _inputs(draw, record):
    """Arbitrary JSON, or (three times as often) `record` with one value below
    the top replaced.  Whether that value is an object or list, or a scalar,
    is drawn first, so that the few nested values are not swamped by the many
    scalars."""
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON)
    nested = draw(st.booleans())
    paths = [p for p, v in _paths(record) if p and isinstance(v, (dict, list)) == nested]
    paths = paths or [p for p, _ in _paths(record) if p]  # a flat record
    return _replace(record, draw(st.sampled_from(paths)), draw(JSON))


def _jsonl(value) -> str:
    lines = value if isinstance(value, list) else [value]
    return "\n".join(json.dumps(v) for v in lines) + "\n"


def _quiet(argv) -> tuple[int, str]:
    """Exit code and stderr of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A runs directory holding every artifact `roamauth report` needs, a card
    file, and the valid record behind each loader, all from seeded toy runs."""
    root = tmp_path_factory.mktemp("records")
    runs = root / "runs"
    for scheme in ("proposed", "mun"):
        assert _quiet(["handshake", "--scheme", scheme, "--curve", "toy", "--seed", 9,
                       "--out", runs])[0] == cli.EXIT_OK
    matrix = attacks.run_attack_matrix(SUITE, random.Random(11), trials=40)
    for name, per in matrix.items():
        for scheme, outcome in per.items():
            (runs / f"attack-{name}-{scheme}.json").write_text(
                cli.outcome_record(SUITE, outcome, []))
    card = root / "alice.card"
    assert _quiet(["register", "--id", "alice", "--password", "hunter2", "--seed", 3,
                   "--curve", "toy", "--out", card])[0] == cli.EXIT_OK
    transcript = run_session(SUITE, "proposed", "foreign-auth", random.Random(7)).transcript
    records = {
        "scenario": {"scheme": "proposed", "scenario": "foreign-auth", "seed": 4,
                     "curve": "toy", "update_rounds": 2},
        "transcript": [json.loads(ln) for ln in transcript.to_jsonl().splitlines()],
        "card": json.loads(card.read_text()),
        "cost": json.loads((runs / "proposed-foreign-auth-cost.json").read_text()),
        "outcome": json.loads((runs / "attack-replay-proposed.json").read_text()),
    }
    return root, runs, records


def _path(work, loader: str):
    """Where an input for `loader` is written: the report artifacts live in
    the runs directory, so that `roamauth report` reads them."""
    root, runs, _ = work
    return {"cost": runs / "proposed-foreign-auth-cost.json",
            "outcome": runs / "attack-replay-proposed.json"}.get(loader, root / f"{loader}.json")


def _load(path, loader: str) -> bool:
    """True if the loader accepts the file, False if it refuses it as it
    should; any other exception propagates."""
    try:
        if loader == "scenario":
            ScenarioSpec.load(str(path))
        elif loader == "transcript":
            Transcript.from_jsonl(path.read_text())
        elif loader == "card":
            cli.load_card(SUITE, path)
        elif loader == "cost":
            report = cli.load_cost_report(SUITE, path)
            report.comm_csv()
            report.ops_csv()
        else:
            cli.load_outcome(path, SUITE)
    except HarnessError:
        return False
    return True


def _command(work, loader: str):
    """The CLI run that reads the `loader` input, and the text of its refusal."""
    root, runs, _ = work
    report = ["report", "--runs-dir", runs, "--out", root / "rep", "--curve", "toy",
              "--allow-toy", "--seed", 11]
    return {
        "scenario": (["handshake", "--scenario-file", _path(work, loader), "--out", root / "hs"],
                     "bad scenario file"),
        "card": (["handshake", "--curve", "toy", "--seed", 5, "--password", "hunter2",
                  "--card", _path(work, loader), "--out", root / "hs"], "cannot load card"),
        "cost": (report, "bad run artifact"),
        "outcome": (report, "bad run artifact"),
    }.get(loader)


def _check(work, loader: str, value) -> bool:
    """Write `value` as the `loader` input; it must load or be refused, and
    the CLI that reads it must exit 2 exactly when it is refused.  Returns
    whether it loaded."""
    path = _path(work, loader)
    original = path.read_text() if path.exists() else None
    path.write_text(_jsonl(value) if loader == "transcript" else json.dumps(value))
    try:
        loaded = _load(path, loader)
        command = _command(work, loader)
        if command is None:
            return loaded
        code, err = _quiet(command[0])
    finally:
        if original is not None:
            path.write_text(original)
    if loaded:
        assert code != cli.EXIT_USAGE, err
    else:
        assert code == cli.EXIT_USAGE and command[1] in err, err
    return loaded


LOADERS = ("scenario", "transcript", "card", "cost", "outcome")


def test_valid_records_load(work):
    for loader in LOADERS:
        assert _check(work, loader, work[2][loader]), loader


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_inputs_load_or_are_refused_with_exit_2(work, loader, data):
    _check(work, loader, data.draw(_inputs(work[2][loader])))


# ---------------------------------------------------------------------------
# inputs that ended in a traceback or a misleading verdict before the check


def _card_edits(card: dict) -> list:
    point = card["home_dh_pub"]
    off_curve = point[:-1] + ("0" if point[-1] != "0" else "1")
    return [
        [1],
        {**card, "masked_key": 5},
        {**card, "world_seed": "7"},
        {**card, "world_seed": True},
        {**card, "home_dh_pub": "00"},            # the identity point
        {**card, "home_dh_pub": off_curve},
        {**card, "home_dh_pub": "zz"},
        {**card, "card_salt": "00"},              # a 1-byte salt
        {**card, "masked_key": card["masked_key"][:-2]},
        {**card, "home_id": card["home_id"] + "00"},
        {**card, "curve": "p256"},
        {**card, "user_label": "\ud800"},
    ]


def test_probed_cards_are_refused(work):
    for value in _card_edits(work[2]["card"]):
        assert not _check(work, "card", value), value


@pytest.mark.parametrize("loader,value", [
    ("outcome", {"attack": "replay"}),
    ("outcome", {"attack": "replay", "scheme": "proposed", "succeeded": 1, "evidence": {},
                 "detail": ""}),
    ("cost", []),
    ("cost", {}),
    ("cost", {"scheme": "mun"}),
])
def test_probed_artifacts_are_refused(work, loader, value):
    assert not _check(work, loader, value)


def test_probed_cost_report_fields_are_refused(work):
    cost = work[2]["cost"]
    for key, value in (("message_bits", [1]), ("message_bits", [{}]), ("op_counts", {"MU": 1}),
                       ("paper_ops", {"MU": {"xor": "2"}}), ("phase_rounds", {"main": None}),
                       ("notes", "rule"), ("rounds", True), ("curve", "p256")):
        assert not _check(work, "cost", {**cost, key: value}), key
    assert _check(work, "cost", {**cost, "paper_ops": None, "paper_bits": None,
                                 "bits_delta": None})


def _survives_binary(value) -> bool:
    """Whether `from_jsonl` accepts `value`; if it does, `to_binary` must
    write the transcript's canonical bytes."""
    try:
        t = Transcript.from_jsonl(_jsonl(value))
    except HarnessError:
        return False
    assert t.to_binary()
    return True


@st.composite
def _edge_edits(draw, lines):
    """The transcript `lines` with one entry's `bits`, or one name, set near
    the edge of what the canonical bytes hold (a uint32; 65535 UTF-8 bytes)."""
    line = draw(st.integers(0, len(lines) - 1))
    names = [k for k, v in lines[line].items() if type(v) is str and k != "hex"]
    key = draw(st.sampled_from(names + ["bits"] * (line > 0)))
    if key == "bits":
        value = draw(st.integers(-2, 2) | st.integers((1 << 32) - 2, (1 << 32) + 2)
                     | st.integers())
    else:
        char = draw(st.sampled_from("x\u00e9\u20ac\U0001d11e"))  # 1 to 4 UTF-8 bytes
        value = char * (0xFFFF // len(char.encode()) + draw(st.integers(-2, 2)))
    edited = [dict(rec) for rec in lines]
    edited[line][key] = value
    return edited


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_transcripts_from_jsonl_survive_the_binary_format(work, data):
    lines = work[2]["transcript"]
    _survives_binary(data.draw(_inputs(lines) | _edge_edits(lines)))


def test_transcript_values_the_binary_format_cannot_hold_are_refused(work):
    header, first, *rest = work[2]["transcript"]
    for key, value, ok in (("bits", -1, False), ("bits", 1 << 32, False),
                           ("bits", 0, True), ("bits", (1 << 32) - 1, True),
                           ("sender", "x" * 70000, False), ("sender", "x" * 0xFFFF, True),
                           ("phase", "\u00e9" * 0x8000, False), ("kind", "\u00e9" * 0x7FFF, True)):
        assert _survives_binary([header, {**first, key: value}, *rest]) == ok, (key, value)
    assert not _survives_binary([{**header, "curve": "x" * 0x10000}, first, *rest])


def test_records_that_are_not_json_are_refused():
    for text in ("", "{", "[" * 100_000, '{"scheme": "\\ud800"}'):
        with pytest.raises(HarnessError, match="not JSON"):
            CostReport.from_json(text)

