"""Session driver, transcript capture, and cost accounting.

Parties exchange immutable messages over an in-memory bus; every delivery
is serialized to wire bytes, optionally run past an adversary hook, re-parsed
with its group elements validated, and recorded in the transcript.
Operation counters are bound per party around each protocol step, so the
per-party cost tables come from instrumented primitive calls rather than
hand bookkeeping.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, get_type_hints

from . import mun as mun_mod
from . import proposed as prop
from . import wire
from .curve import PROFILES, CurveError, Point
from .encoding import EncodingError
from .instrument import OpCounts, active_counter, counting
from .suite import CryptoSuite, KeyPair, identity_from_label

MU, FA, HA = "MU", "FA", "HA"


class HarnessError(Exception):
    pass


class UnsupportedScenario(HarnessError):
    """Scheme does not define this flow (e.g. at-home login for mun)."""


SCENARIOS = ("registration", "foreign-auth", "home-auth", "key-update", "password-change")
SCHEMES = ("proposed", "mun")


def strict_record(text: str, schema: dict, what: str, optional=frozenset()) -> dict:
    """Parse `text` as one JSON object with exactly the keys of `schema`, less
    any in `optional`, each value of its exact type; anything else raises
    `HarnessError`.  A schema value is a type (bool is not an int) or a nested
    schema: a dict of exact keys, `{str: s}` for any keys, `[s]` for a list,
    or `(s, None)` for `s` or null."""
    try:
        rec = json.loads(text)
        json.dumps(rec, ensure_ascii=False).encode()  # refuses lone surrogates
    except (ValueError, RecursionError) as exc:
        raise HarnessError(f"{what} is not JSON: {exc}") from exc

    def check(value, schema, path: str, optional=frozenset()) -> None:
        if isinstance(schema, tuple):
            if value is None:
                return
            schema = schema[0]
        record = isinstance(schema, dict) and str not in schema
        if record and (type(value) is not dict
                       or not schema.keys() - optional <= value.keys() <= schema.keys()):
            found = sorted(value) if type(value) is dict else type(value).__name__
            where = f"{what} field {path!r}" if path else what
            raise HarnessError(f"{where} has keys {found}, expected {sorted(schema)}")
        expected = type(schema) if isinstance(schema, (dict, list)) else schema
        if type(value) is not expected:
            raise HarnessError(f"{what} field {path!r} is {type(value).__name__}, "
                               f"expected {expected.__name__}")
        if isinstance(schema, (dict, list)):
            for key, item in value.items() if expected is dict else enumerate(value):
                sub = schema[key] if record else schema[str] if expected is dict else schema[0]
                check(item, sub, f"{path}.{key}" if path else key)

    check(rec, schema, "", optional)
    return rec


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative scenario definition, loadable from a small JSON file."""

    scheme: str
    scenario: str
    seed: int = 0
    curve: str = "p256"
    update_rounds: int = 1

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Read a scenario JSON object with the fields' keys and types (those
        with a default may be left out).  Any other record, an unknown scheme,
        scenario or curve, or update_rounds below 1 raise `HarnessError`."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = strict_record(fh.read(), get_type_hints(cls), "scenario file",
                                {f.name for f in fields(cls) if f.default is not MISSING})
        spec = cls(**raw)
        if spec.scheme not in SCHEMES:
            raise HarnessError(f"unknown scheme {spec.scheme!r}")
        if spec.scenario not in SCENARIOS:
            raise HarnessError(f"unknown scenario {spec.scenario!r}")
        if spec.curve not in PROFILES:
            raise HarnessError(f"unknown curve {spec.curve!r}; expected one of {sorted(PROFILES)}")
        if spec.update_rounds < 1:
            raise HarnessError(f"update_rounds {spec.update_rounds} is below 1")
        return spec


# ---------------------------------------------------------------------------
# honest-step marking (used by the adversary-confinement audit)
#
# An honest step is a counted step: the harness binds a party's counter around
# each step, and no adversary code runs inside a counting block (bus hooks run
# in `MessageBus.send`, between steps).


def honest_step():
    """Mark the dynamic extent of an honest party's protocol step that attack
    code calls outside `run_session`; its operations are billed to a scratch
    counter.  Only what no session can drive uses it: the traceability game's
    first flights and second user, and the proposed scheme's HA-impersonation
    game, which retries `fa_finish` on one foreign session."""
    return counting(OpCounts())


def in_honest_step() -> bool:
    return active_counter() is not None


# ---------------------------------------------------------------------------
# transcripts


@dataclass(frozen=True)
class TranscriptEntry:
    sender: str
    receiver: str
    kind: str
    payload: bytes
    bits: int           # nominal width accounting (see wire.PARAM_BITS)
    phase: str = "main"
    secure: bool = False  # sent over the registration secure channel


_JSONL_HEADER = {"scheme": str, "scenario": str, "curve": str}
_JSONL_ENTRY = {"i": int, "sender": str, "receiver": str, "kind": str, "phase": str,
                "secure": bool, "bits": int, "hex": str}


@dataclass
class Transcript:
    scheme: str
    scenario: str
    curve: str
    entries: list[TranscriptEntry] = field(default_factory=list)

    def message(self, suite: CryptoSuite, index: int):
        """Re-parse one captured wire payload."""
        return wire.deserialize(suite.cp, self.entries[index].payload)

    # -- export -------------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "scheme": self.scheme,
                    "scenario": self.scenario,
                    "curve": self.curve,
                }
            )
        ]
        for i, e in enumerate(self.entries):
            lines.append(
                json.dumps(
                    {
                        "i": i,
                        "sender": e.sender,
                        "receiver": e.receiver,
                        "kind": e.kind,
                        "phase": e.phase,
                        "secure": e.secure,
                        "bits": e.bits,
                        "hex": e.payload.hex(),
                    }
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """Parse `to_jsonl` output; a line that is not JSON, a missing or extra
        key, a value of the wrong type or one `to_binary` cannot write (a name
        over 65535 UTF-8 bytes, `bits` outside [0, 2**32)), a payload that is
        not lowercase hex, an index out of sequence or empty text raise
        `HarnessError`."""

        def record(line: str, schema: dict) -> dict:
            rec = strict_record(line, schema, "transcript line")
            for key, value in rec.items():
                if key != "hex" and type(value) is str and len(value.encode()) > 0xFFFF:
                    raise HarnessError(f"transcript field {key!r} is over 65535 UTF-8 bytes")
            if not 0 <= rec.get("bits", 0) < 1 << 32:
                raise HarnessError(f"transcript field 'bits' is {rec['bits']}, not a uint32")
            return rec

        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise HarnessError("empty transcript")
        header = record(lines[0], _JSONL_HEADER)
        t = cls(header["scheme"], header["scenario"], header["curve"])
        for i, ln in enumerate(lines[1:]):
            rec = record(ln, _JSONL_ENTRY)
            if rec["i"] != i:
                raise HarnessError(f"entry index {rec['i']} out of sequence (expected {i})")
            try:
                payload = bytes.fromhex(rec["hex"])
            except ValueError:
                payload = None
            if payload is None or payload.hex() != rec["hex"]:
                raise HarnessError(f"payload of entry {i} is not lowercase hex")
            t.entries.append(TranscriptEntry(rec["sender"], rec["receiver"], rec["kind"],
                                             payload, rec["bits"], rec["phase"], rec["secure"]))
        return t

    def to_binary(self) -> bytes:
        def pstr(s: str) -> bytes:
            raw = s.encode()
            return len(raw).to_bytes(2, "big") + raw

        out = [b"RATR\x01", pstr(self.scheme), pstr(self.scenario), pstr(self.curve)]
        out.append(len(self.entries).to_bytes(4, "big"))
        for e in self.entries:
            out.append(pstr(e.sender))
            out.append(pstr(e.receiver))
            out.append(pstr(e.kind))
            out.append(pstr(e.phase))
            out.append(bytes([e.secure]))
            out.append(e.bits.to_bytes(4, "big"))
            out.append(len(e.payload).to_bytes(4, "big") + e.payload)
        return b"".join(out)

    @classmethod
    def from_binary(cls, data: bytes) -> "Transcript":
        """Parse `to_binary` output; a short read, trailing bytes, a name that
        is not UTF-8 or a secure flag other than 0/1 raise `HarnessError`."""
        if data[:5] != b"RATR\x01":
            raise HarnessError("bad transcript magic")
        pos = 5

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(data):
                raise HarnessError(f"transcript truncated at byte {len(data)}")
            pos += n
            return data[pos - n : pos]

        def uint(width: int) -> int:
            return int.from_bytes(take(width), "big")

        def pstr() -> str:
            try:
                return take(uint(2)).decode()
            except UnicodeDecodeError as exc:
                raise HarnessError(f"transcript name is not UTF-8: {exc}") from exc

        t = cls(pstr(), pstr(), pstr())
        for _ in range(uint(4)):
            sender, receiver, kind, phase = pstr(), pstr(), pstr(), pstr()
            secure = uint(1)
            if secure > 1:
                raise HarnessError(f"secure flag {secure} is neither 0 nor 1")
            bits = uint(4)
            payload = take(uint(4))
            t.entries.append(TranscriptEntry(sender, receiver, kind, payload, bits, phase,
                                             bool(secure)))
        if pos != len(data):
            raise HarnessError(f"{len(data) - pos} trailing bytes after the transcript")
        return t


AdversaryHook = Callable[[str, str, str, bytes], bytes]
Strategy = Callable[[Callable, tuple], object]


class MessageBus:
    """Serializing in-memory channel with transcript capture.

    Deliveries go through wire bytes and back, so a session exercises the
    full codec; an adversary hook may rewrite the bytes in flight.  Every
    group element of a delivered frame is validated here, before the frame is
    recorded, so no protocol step rechecks one (`CurveError` on failure).
    """

    def __init__(self, suite: CryptoSuite, transcript: Transcript,
                 adversary: AdversaryHook | None = None):
        self.suite = suite
        self.transcript = transcript
        self.adversary = adversary

    def send(self, sender: str, receiver: str, msg, *, phase: str = "main",
             secure: bool = False):
        raw = wire.serialize(self.suite.cp, msg)
        if self.adversary is not None and not secure:
            raw = self.adversary(sender, receiver, msg.KIND, raw)
        delivered = wire.deserialize(self.suite.cp, raw)
        if type(delivered) is not type(msg):
            # the receiver's step expects the kind that was sent
            raise EncodingError(f"expected {msg.KIND}, got {delivered.KIND}")
        for value in vars(delivered).values():
            if type(value) is Point:
                self.suite.validate_point(value)
        self.transcript.entries.append(
            TranscriptEntry(
                sender=sender,
                receiver=receiver,
                kind=delivered.KIND,
                payload=raw,
                bits=wire.nominal_bits(delivered),
                phase=phase,
                secure=secure,
            )
        )
        return delivered


# ---------------------------------------------------------------------------
# worlds


@dataclass
class ProposedWorld:
    ca: KeyPair
    ha: prop.HAKeyMaterial
    fa: prop.FAKeyMaterial
    mu: prop.MUState


@dataclass
class MunWorld:
    ha: mun_mod.MunHAState
    fa: mun_mod.MunFAState
    cred: mun_mod.MunCredentials


DEFAULT_PASSWORD = b"correct-horse-battery"


def build_proposed_world(
    suite: CryptoSuite,
    rng: random.Random,
    user_label: str = "mu-001",
    password: bytes = DEFAULT_PASSWORD,
) -> ProposedWorld:
    ca = prop.make_root_ca(suite, rng)
    ha = prop.setup_home_agent(suite, identity_from_label("ha.example"), ca, rng)
    fa = prop.setup_foreign_agent(suite, identity_from_label("fa.example"), ca, rng)
    user_id = identity_from_label(user_label)
    req, salt = prop.register_request(suite, user_id, password, rng)
    card = prop.card_finalize(prop.register_issue(suite, ha, req), salt)
    return ProposedWorld(ca, ha, fa, prop.MUState(user_id, password, card))


def build_mun_world(
    suite: CryptoSuite, rng: random.Random, user_label: str = "mu-001"
) -> MunWorld:
    ha = mun_mod.MunHAState(identity_from_label("ha.example"))
    fa = mun_mod.MunFAState(identity_from_label("fa.example"))
    client_nonce = suite.rand_bytes(rng, mun_mod.NONCE_BYTES)
    cred = mun_mod.mun_register(suite, ha, identity_from_label(user_label), client_nonce, rng)
    return MunWorld(ha, fa, cred)


# ---------------------------------------------------------------------------
# cost accounting


PAPER_COMM = {
    # published communication-cost table rows for the two implemented schemes
    "proposed": {"bits": 3808, "rounds": 4},
    "mun": {"bits": 4192, "rounds": 5},
}

PAPER_OPS = {
    # published computational-cost table rows ("pre" = precomputable share)
    "proposed": {
        MU: {"xor": 2, "hash": 6, "mul": 3, "mul_pre": 2},
        FA: {"hash": 1, "mul": 3, "mul_pre": 1, "esym": 1, "dsym": 1, "gsign": 1, "vsign": 1},
        HA: {"xor": 1, "hash": 4, "mul": 2, "mul_pre": 0, "esym": 1, "dsym": 1, "gsign": 1, "vsign": 1},
    },
    "mun": {
        MU: {"xor": 2, "hash": 4, "mul": 2, "mul_pre": 1, "esym": 1},
        FA: {"xor": 2, "hash": 3, "mul": 2, "mul_pre": 1, "esym": 1},
        HA: {"xor": 3, "hash": 3},
    },
}

COUNTING_NOTES = [
    "rule: mobile bits = sum of nominal field widths over messages the mobile user sends or receives",
    "rule: a digest computed as the immediate input of signature generation/verification is billed to Gsign/Vsign, not Hash",
    "rule: point-to-key derivation (kdf), keyed MACs (mac), and certificate checks (vcert) are tracked separately; the published table folds MACs into Esym and does not itemize the others",
    "rule: point validation at message ingress is transport-layer work and is not billed",
]


_COST_REPORT = {
    "scheme": str, "scenario": str, "curve": str, "rule": str, "rounds": int,
    "phase_rounds": {str: int}, "mobile_bits": int, "paper_bits": (int, None),
    "paper_rounds": (int, None), "bits_delta": (int, None),
    "message_bits": [{"kind": str, "sender": str, "receiver": str, "bits": int}],
    "op_counts": {str: {str: int}}, "paper_ops": ({str: {str: int}}, None), "notes": [str],
}


@dataclass
class CostReport:
    scheme: str
    scenario: str
    curve: str
    rule: str
    rounds: int
    phase_rounds: dict[str, int]
    mobile_bits: int
    paper_bits: int | None
    paper_rounds: int | None
    message_bits: list[dict]
    op_counts: dict[str, dict[str, int]]
    paper_ops: dict[str, dict[str, int]] | None
    notes: list[str]

    @property
    def bits_delta(self) -> int | None:
        if self.paper_bits is None:
            return None
        return self.mobile_bits - self.paper_bits

    def to_json(self) -> str:
        data = dict(self.__dict__)
        data["bits_delta"] = self.bits_delta
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CostReport":
        """Parse `to_json` output; any other record raises `HarnessError`."""
        data = strict_record(text, _COST_REPORT, "cost report")
        del data["bits_delta"]
        return cls(**data)

    def comm_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["scheme", "rounds (measured)", "rounds (paper)",
                    "mobile bits (measured)", "mobile bits (paper)", "delta"])
        w.writerow([self.scheme, self.rounds, self.paper_rounds,
                    self.mobile_bits, self.paper_bits, self.bits_delta])
        w.writerow([])
        w.writerow(["kind", "sender", "receiver", "bits"])
        for m in self.message_bits:
            w.writerow([m["kind"], m["sender"], m["receiver"], m["bits"]])
        return buf.getvalue()

    def ops_csv(self) -> str:
        cols = ["xor", "hash", "mul", "mul_pre", "esym", "dsym", "gsign", "vsign",
                "kdf", "mac", "vcert"]
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["party"] + [f"{c} (measured)" for c in cols]
                   + [f"{c} (paper)" for c in cols[:8]])
        for party in (MU, FA, HA):
            if party not in self.op_counts:
                continue
            measured = self.op_counts[party]
            paper = (self.paper_ops or {}).get(party, {})
            w.writerow([party] + [measured.get(c, 0) for c in cols]
                       + [paper.get(c, "n/a") for c in cols[:8]])
        return buf.getvalue()


def measure_costs(transcript: Transcript, op_counts: dict[str, OpCounts]) -> CostReport:
    """Aggregate a transcript plus instrumented counters into a report; bits
    are the nominal per-field widths (`wire.PARAM_BITS`)."""
    open_entries = [e for e in transcript.entries if not e.secure]
    mobile = [e for e in open_entries if MU in (e.sender, e.receiver)]
    phase_rounds: dict[str, int] = {}
    for e in transcript.entries:
        phase_rounds[e.phase] = phase_rounds.get(e.phase, 0) + 1

    paper = PAPER_COMM.get(transcript.scheme) if transcript.scenario == "foreign-auth" else None
    paper_ops = PAPER_OPS.get(transcript.scheme) if transcript.scenario == "foreign-auth" else None
    return CostReport(
        scheme=transcript.scheme,
        scenario=transcript.scenario,
        curve=transcript.curve,
        rule="nominal",
        rounds=len(transcript.entries),
        phase_rounds=phase_rounds,
        mobile_bits=sum(e.bits for e in mobile),
        paper_bits=paper["bits"] if paper else None,
        paper_rounds=paper["rounds"] if paper else None,
        message_bits=[
            {"kind": e.kind, "sender": e.sender, "receiver": e.receiver, "bits": e.bits}
            for e in open_entries
        ],
        op_counts={party: c.as_dict() for party, c in op_counts.items()},
        paper_ops=paper_ops,
        notes=list(COUNTING_NOTES),
    )


# ---------------------------------------------------------------------------
# session driver


@dataclass
class SessionResult:
    transcript: Transcript
    report: CostReport
    outcome: dict


def run_session(
    suite: CryptoSuite,
    scheme: str,
    scenario: str,
    rng: random.Random,
    *,
    world=None,
    adversary: AdversaryHook | None = None,
    update_rounds: int = 1,
    play: dict[str, Strategy] | None = None,
) -> SessionResult:
    """Execute one scenario end to end and account for it.

    The scenario's flow yields one `(sender, receiver, fn, args)` hop per step:
    this loop runs `fn(*args)` under the sender's counter and, if `receiver`
    is not None, sends the step's message (the result, or its first item) over
    the bus and hands the flow the result with the delivered message in its
    place.  A bare string yielded by the flow names the phase of later frames;
    frames of the "registration" phase go over the secure channel.

    `play` maps a party to the adversary strategy that plays its role: a hop
    of that party runs `strategy(fn, args)` in place of `fn(*args)`, outside
    any counting block, and its frame goes over the bus like any other (it is
    decoded, validated and recorded, and billed to no party).

    The outcome dict always carries "success"; on an abort it carries, instead
    of keys, the reason ("abort"), the exception class ("error") and the
    aborting party ("party": the party whose step raised, else the receiver of
    the frame that could not be delivered).
    """
    if scheme not in SCHEMES:
        raise HarnessError(f"unknown scheme {scheme!r}")
    if scenario not in SCENARIOS:
        raise HarnessError(f"unknown scenario {scenario!r}")
    if scheme == "mun" and scenario in ("home-auth", "password-change"):
        raise UnsupportedScenario(f"the mun scheme does not define {scenario}")
    if type(update_rounds) is not int or update_rounds < 1:
        raise HarnessError(f"update_rounds must be an int >= 1, got {update_rounds!r}")

    transcript = Transcript(scheme, scenario, suite.cp.name)
    bus = MessageBus(suite, transcript, adversary)
    counters = {MU: OpCounts(), FA: OpCounts(), HA: OpCounts()}
    party: str | None = None  # sender of the running step, or receiver of the frame in flight

    def aborted(reason: str, exc: Exception) -> dict:
        return {"success": False, "abort": reason, "error": type(exc).__name__, "party": party}

    if world is None:
        # Pre-session setup (CA, agents, victim registration) is attributed
        # to its own counter and excluded from the per-party session tables.
        with counting(OpCounts()):
            world = (build_proposed_world if scheme == "proposed" else build_mun_world)(suite, rng)

    flow = (_proposed_flow if scheme == "proposed" else _mun_flow)(
        suite, world, scenario, rng, update_rounds)
    phase, result = "main", None
    try:
        while True:
            hop = flow.send(result)
            if type(hop) is str:
                phase, result = hop, None
                continue
            sender, receiver, fn, args = hop
            party = sender
            if play and sender in play:
                result = play[sender](fn, args)
            else:
                with counting(counters[sender]):
                    result = fn(*args)
            if receiver is not None:
                party = receiver
                pair = type(result) is tuple
                sent = bus.send(sender, receiver, result[0] if pair else result,
                                phase=phase, secure=phase == "registration")
                result = (sent, *result[1:]) if pair else sent
    except StopIteration as done:
        outcome = done.value
    except (prop.SchemeError, mun_mod.MunError) as exc:
        outcome = aborted(f"{type(exc).__name__}: {exc}", exc)
    except (EncodingError, CurveError) as exc:
        # message corrupted in flight to the point of not parsing
        outcome = aborted(f"undeliverable message: {exc}", exc)

    return SessionResult(transcript, measure_costs(transcript, counters), outcome)


def _key_outcome(mu_key: prop.SessionKey | None, peer_key: prop.SessionKey | None,
                 peer: str = "fa_key") -> dict:
    """Both keys, hex; a played party may end holding none (None)."""
    mu_hex, peer_hex = (k.value.hex() if k else None for k in (mu_key, peer_key))
    return {"success": mu_hex is not None and mu_hex == peer_hex, "mu_key": mu_hex,
            peer: peer_hex}


def _key_update(suite, rng, update_rounds: int, steps, mu, fa, key):
    """Refresh rounds after the setup login; `steps` are the scheme's (init,
    respond, confirm) functions and `key` reads the session key of a state."""
    init, respond, confirm = steps
    keys = [(key(mu).value.hex(), key(fa).value.hex())]
    ok = key(mu).value == key(fa).value
    for i in range(1, update_rounds + 1):
        yield f"update-{i}"
        um1, secret = yield MU, FA, init, (suite, rng)
        um2, fa = yield FA, MU, respond, (suite, um1, fa, rng)
        mu = yield MU, None, confirm, (suite, secret, um2, mu)
        keys.append((key(mu).value.hex(), key(fa).value.hex()))
        ok = ok and key(mu).value == key(fa).value
    return {"success": ok, "keys": keys, "epochs": key(mu).epoch}


def _proposed_flow(suite, world: ProposedWorld, scenario: str, rng, update_rounds: int):
    mu = world.mu
    if scenario == "registration":
        yield "registration"
        req, salt = yield MU, HA, prop.register_request, (suite, mu.user_id, mu.password, rng)
        card = yield HA, None, prop.register_issue, (suite, world.ha, req)
        issue = yield HA, MU, prop.CardIssue, (card.masked_key, card.login_verifier,
                                               card.home_dh_pub, card.home_id)
        card = prop.SmartCard(issue.masked_key, issue.login_verifier, issue.home_dh_pub,
                              issue.home_id)
        card = yield MU, None, prop.card_finalize, (card, salt)
        mu = prop.MUState(mu.user_id, mu.password, card)
        ok = yield MU, None, prop.local_verify, (suite, mu)
        world.mu = mu
        return {"success": ok}
    if scenario == "home-auth":
        m1, mu_sess = yield MU, HA, prop.home_login, (suite, mu, rng)
        hm2, ha_key = yield HA, MU, prop.home_ha_respond, (suite, world.ha, m1, rng)
        mu_key = yield MU, None, prop.home_mu_confirm, (suite, mu, mu_sess, hm2)
        return _key_outcome(mu_key, ha_key, "ha_key")
    if scenario == "password-change":
        new_password = b"pw-" + suite.rand_bytes(rng, 8).hex().encode()
        card = yield MU, None, prop.password_change, (suite, mu, new_password, rng)
        old_rejected = not (yield MU, None, prop.local_verify,
                            (suite, prop.MUState(mu.user_id, mu.password, card)))
        world.mu = prop.MUState(mu.user_id, new_password, card)
        outcome = _key_outcome(*(yield from _proposed_login(suite, world, rng)))
        return {**outcome, "success": old_rejected and outcome["success"],
                "old_password_rejected": old_rejected}
    if scenario == "key-update":
        yield "setup"
    mu_key, fa_key = yield from _proposed_login(suite, world, rng)
    if scenario == "foreign-auth":
        return _key_outcome(mu_key, fa_key)
    steps = (prop.key_update_init, prop.key_update_respond, prop.key_update_confirm)
    return (yield from _key_update(suite, rng, update_rounds, steps, mu_key, fa_key,
                                   lambda k: k))


def _proposed_login(suite, world: ProposedWorld, rng):
    m1, mu_sess = yield MU, FA, prop.login_begin, (suite, world.mu, rng)
    m2, fa_sess = yield FA, HA, prop.fa_process_login, (suite, world.fa, m1, rng)
    m3 = yield HA, FA, prop.ha_process, (suite, world.ha, m2, rng)
    m4, fa_key = yield FA, MU, prop.fa_finish, (suite, world.fa, fa_sess, m3)
    mu_key = yield MU, None, prop.mu_finish, (suite, world.mu, mu_sess, m4)
    return mu_key, fa_key


def _mun_flow(suite, world: MunWorld, scenario: str, rng, update_rounds: int):
    if scenario == "registration":
        yield "registration"
        client_nonce = suite.rand_bytes(rng, mun_mod.NONCE_BYTES)
        user_id = identity_from_label("mu-extra")
        req = yield MU, HA, mun_mod.MunRegRequest, (user_id, client_nonce)
        cred = yield HA, None, mun_mod.mun_register, (suite, world.ha, req.user_id,
                                                      req.client_nonce, rng)
        yield HA, MU, mun_mod.MunRegReply, (cred.user_alias, cred.password_digest,
                                            cred.home_nonce, cred.home_id)
        return {"success": user_id in world.ha.registry}
    if scenario == "key-update":
        yield "setup"
    mu_chan, fa_chan = yield from _mun_login(suite, world, rng)
    if scenario == "foreign-auth":
        return _key_outcome(mu_chan.key, fa_chan.key)
    steps = (mun_mod.mun_update_init, mun_mod.mun_update_respond, mun_mod.mun_update_confirm)
    return (yield from _key_update(suite, rng, update_rounds, steps, mu_chan, fa_chan,
                                   lambda c: c.key))


def _mun_login(suite, world: MunWorld, rng):
    m1 = yield MU, FA, mun_mod.mun_login, (world.cred,)
    m2, fa_sess = yield FA, HA, mun_mod.mun_fa_forward, (suite, world.fa, m1, rng)
    m3 = yield HA, FA, mun_mod.mun_ha_auth, (suite, world.ha, m2)
    m4, fa_sess = yield FA, MU, mun_mod.mun_fa_respond, (suite, world.fa, m3, fa_sess, rng)
    m5, mu_chan = yield MU, FA, mun_mod.mun_mu_respond, (suite, world.cred, m4, rng)
    fa_chan = yield FA, None, mun_mod.mun_fa_verify, (suite, m5, fa_sess)
    return mu_chan, fa_chan


# ---------------------------------------------------------------------------
# functionality matrix


MATRIX_ROWS = [
    ("anonymity", "User's anonymity"),
    ("mutual-auth", "Proper mutual authentication"),
    ("resist-mu-impersonation", "Resist MU impersonation attack"),
    ("resist-fa-impersonation", "Resist FA impersonation attack"),
    ("resist-ha-impersonation", "Resist HA impersonation attack"),
    ("resist-replay", "Resist replay attack"),
    ("forward-secrecy", "Perfect forward secrecy"),
    ("resist-offline-guessing", "Resist off-line password guessing attack"),
    ("resist-insider", "Resist insider attack"),
    ("no-verification-table", "No verification table"),
    ("local-verification", "Local password verification"),
    ("password-change", "Correct password change"),
    ("home-network-auth", "Authentication when user is in the home network"),
]

# Published feature matrix, column order: proposed, Wu, Chang, He (i), He (ii),
# mun, Li-Lee.  Schemes other than the two implemented here are quoted, never
# measured.
REPORTED_FEATURES: dict[str, dict[str, str]] = {
    "anonymity":                {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "No", "he-ii": "No", "mun": "No", "li-lee": "Yes"},
    "mutual-auth":              {"proposed": "Yes", "wu": "No", "chang": "Yes", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "Yes"},
    "resist-mu-impersonation":  {"proposed": "Yes", "wu": "No", "chang": "Yes", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "Yes"},
    "resist-fa-impersonation":  {"proposed": "Yes", "wu": "Yes", "chang": "Yes", "he-i": "Yes", "he-ii": "Yes", "mun": "No", "li-lee": "Yes"},
    "resist-ha-impersonation":  {"proposed": "Yes", "wu": "Yes", "chang": "Yes", "he-i": "Yes", "he-ii": "Yes", "mun": "No", "li-lee": "Yes"},
    "resist-replay":            {"proposed": "Yes", "wu": "No", "chang": "Yes", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "No"},
    "forward-secrecy":          {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "No", "he-ii": "No", "mun": "Yes", "li-lee": "Yes"},
    "resist-offline-guessing":  {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "Yes"},
    "resist-insider":           {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "Yes"},
    "no-verification-table":    {"proposed": "Yes", "wu": "Yes", "chang": "No", "he-i": "Yes", "he-ii": "No", "mun": "Yes", "li-lee": "Yes"},
    "local-verification":       {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "Yes", "he-ii": "Yes", "mun": "No", "li-lee": "No"},
    "password-change":          {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "Yes"},
    "home-network-auth":        {"proposed": "Yes", "wu": "No", "chang": "No", "he-i": "Yes", "he-ii": "No", "mun": "No", "li-lee": "No"},
}

QUOTED_COLUMNS = ("wu", "chang", "he-i", "he-ii", "li-lee")
MEASURED_COLUMNS = ("proposed", "mun")

# Rows measured by attacks: a row reads "No" when any of its attacks succeeded.
ROW_ATTACKS = {
    "anonymity": ("traceability",),
    "mutual-auth": ("mu-impersonation", "fa-impersonation", "ha-impersonation"),
    "resist-mu-impersonation": ("mu-impersonation",),
    "resist-fa-impersonation": ("fa-impersonation",),
    "resist-ha-impersonation": ("ha-impersonation",),
    "resist-replay": ("replay",),
    "forward-secrecy": ("forward-secrecy",),
    "resist-offline-guessing": ("offline-guess",),
    "resist-insider": ("insider",),
}


def measure_features(suite: CryptoSuite, rng: random.Random) -> dict[str, dict[str, bool]]:
    """Live checks for the structural matrix rows (verification table,
    local verification, password change, home-network flow)."""
    out: dict[str, dict[str, bool]] = {}

    pw = build_proposed_world(suite, rng)
    mw = build_mun_world(suite, rng)
    # verification table: does the home agent hold per-user records after
    # registration?  (The proposed HA has no such field at all.)
    out["no-verification-table"] = {
        "proposed": not any(
            isinstance(getattr(pw.ha, f.name), dict)
            for f in pw.ha.__dataclass_fields__.values()
        ),
        "mun": len(mw.ha.registry) == 0,
    }

    # local verification: a wrong password must abort before any traffic.
    # The card check runs before any random draw, so `rng` is left as it was.
    bad_mu = prop.MUState(pw.mu.user_id, b"wrong-password", pw.mu.card)
    local = run_session(suite, "proposed", "foreign-auth", rng,
                        world=ProposedWorld(pw.ca, pw.ha, pw.fa, bad_mu))
    out["local-verification"] = {
        "proposed": (local.outcome.get("error") == "LocalVerificationError"
                     and not local.transcript.entries),
        "mun": False,  # the scheme defines no card-local check before login
    }

    # password change followed by a full handshake with the new password.
    res = run_session(suite, "proposed", "password-change", rng)
    out["password-change"] = {"proposed": bool(res.outcome["success"]), "mun": False}

    # home-network authentication flow.
    home = run_session(suite, "proposed", "home-auth", rng)
    mun_supported = True
    try:
        run_session(suite, "mun", "home-auth", rng)
    except UnsupportedScenario:
        mun_supported = False
    out["home-network-auth"] = {
        "proposed": bool(home.outcome["success"]),
        "mun": mun_supported,
    }
    return out


@dataclass
class MatrixReport:
    rows: list[dict]
    notes: list[str]

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows, "notes": self.notes}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["feature", "proposed (measured)", "mun (measured)"]
            + [f"{c} (paper-reported, not measured)" for c in QUOTED_COLUMNS]
            + ["flag"]
        )
        for row in self.rows:
            w.writerow(
                [row["label"], row["measured"]["proposed"], row["measured"]["mun"]]
                + [row["reported"][c] for c in QUOTED_COLUMNS]
                + [row["flag"] or ""]
            )
        return buf.getvalue()


def functionality_matrix(
    attack_outcomes: dict[str, dict[str, object]],
    feature_results: dict[str, dict[str, bool]],
) -> MatrixReport:
    """Assemble the feature matrix: measured values for the two implemented
    schemes beside the published values, flagging any disagreement rather
    than silently adopting the published number."""
    rows = []
    for key, label in MATRIX_ROWS:
        measured: dict[str, str] = {}
        for scheme in MEASURED_COLUMNS:
            if key in ROW_ATTACKS:
                broken = any(attack_outcomes[a][scheme].succeeded for a in ROW_ATTACKS[key])
                measured[scheme] = "No" if broken else "Yes"
            else:
                measured[scheme] = "Yes" if feature_results[key][scheme] else "No"
        reported = REPORTED_FEATURES[key]
        flag = None
        mismatches = [s for s in MEASURED_COLUMNS if measured[s] != reported[s]]
        if mismatches:
            flag = (
                f"measured disagrees with the published value for {', '.join(mismatches)}"
            )
        rows.append(
            {"key": key, "label": label, "measured": measured, "reported": reported, "flag": flag}
        )
    notes = [
        "columns other than 'proposed' and 'mun' are paper-reported, not measured",
        "the runnable mun implementation keeps a registration table (its published "
        "description is not executable without one), so the verification-table row "
        "is expected to be flagged",
    ]
    return MatrixReport(rows, notes)
