"""Wire codec: kind-id table, canonical decoding, and what a byte-level
adversary on the bus can reach.

The property tests mutate, truncate, extend and resize fields of captured
frames of every message kind of both schemes on the toy curve.  (a) Every
frame `deserialize` accepts re-serializes to the same bytes.  (b) A session
whose traffic is rewritten never raises; it ends in a classified abort or a
success with equal keys, and for the proposed scheme any change to the
delivered bytes aborts, except a signature replaced by another one that
verifies (the 727-element toy group admits one by chance about once in n
tries, and ECDSA's (r, n - s) on any curve).
"""

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamauth import mun as mun_mod
from roamauth import proposed as prop
from roamauth import wire
from roamauth.curve import INFINITY, P256, TOY
from roamauth.encoding import EncodingError, decode_concat, encode_field
from roamauth.harness import run_session
from roamauth.record import FrozenInstanceError
from roamauth.suite import Certificate, CryptoSuite

SUITE = CryptoSuite(TOY)

KIND_IDS = {
    prop.RegRequest: 1, prop.CardIssue: 2, prop.LoginRequest: 3,
    prop.ForeignChallenge: 4, prop.HomeAnswer: 5, prop.LoginAccept: 6,
    prop.HomeAccept: 7, prop.RefreshRequest: 8, prop.RefreshResponse: 9,
    mun_mod.MunRegRequest: 10, mun_mod.MunRegReply: 11, mun_mod.MunLogin: 12,
    mun_mod.MunForward: 13, mun_mod.MunHomeReply: 14, mun_mod.MunForeignReply: 15,
    mun_mod.MunClientFinish: 16, mun_mod.MunRefreshRequest: 17,
    mun_mod.MunRefreshResponse: 18,
}

CLASSES = {cls.KIND: cls for cls in wire._BY_ID.values()}

SUPPORTED = [
    ("proposed", "registration"), ("proposed", "foreign-auth"), ("proposed", "home-auth"),
    ("proposed", "key-update"), ("proposed", "password-change"),
    ("mun", "registration"), ("mun", "foreign-auth"), ("mun", "key-update"),
]
# Registration runs over the secure channel, which the adversary hook never sees.
ATTACKABLE = [case for case in SUPPORTED if case[1] != "registration"]


@cache
def honest_entries(scheme: str, scenario: str) -> tuple:
    res = run_session(SUITE, scheme, scenario, random.Random(5))
    assert res.outcome["success"]
    return tuple(res.transcript.entries)


def all_frames() -> list[bytes]:
    return [e.payload for case in SUPPORTED for e in honest_entries(*case)]


def _replace_field(raw: bytes, index: int, payload: bytes | None) -> bytes:
    """Re-frame `raw` with field `index` given a new payload (None drops it)."""
    fields = decode_concat(raw[1:])
    tag = fields[index][0]
    fields[index:index + 1] = [] if payload is None else [(tag, payload)]
    return raw[:1] + b"".join(encode_field(f) for f in fields)


def _flip(data: bytes, pos_mask: tuple[int, int]) -> bytes:
    pos, mask = pos_mask
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def _flips(data: bytes) -> st.SearchStrategy[bytes]:
    return st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)).map(
        lambda pm: _flip(data, pm))


def mutations(raw: bytes) -> st.SearchStrategy[bytes]:
    """Half field-level (flip, substitute, resize or drop one field, keeping
    the framing valid), half frame-level (flip, truncate, extend, re-kind)."""
    payloads = [p for _, p in decode_concat(raw[1:])]

    def field_ops(i: int) -> st.SearchStrategy[bytes]:
        p = payloads[i]
        return st.one_of(
            _flips(p),
            st.binary(min_size=len(p), max_size=len(p)),
            st.tuples(st.integers(0, len(p)), st.binary(max_size=6)).map(
                lambda cut_pad: p[:cut_pad[0]] + cut_pad[1]),
            st.none(),
        ).map(lambda new: _replace_field(raw, i, new))

    frame_ops = st.one_of(
        _flips(raw),
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.binary(max_size=24).map(lambda b: raw + encode_field(b)),
        st.binary(min_size=1, max_size=6).map(lambda b: raw + b),
        st.integers(0, 255).map(lambda k: bytes([k]) + raw[1:]),
    )
    return st.one_of(st.integers(0, len(payloads) - 1).flatmap(field_ops), frame_ops)


def _only_signatures_differ(original: bytes, mutated: bytes) -> bool:
    old = wire.deserialize(SUITE.cp, original)
    new = wire.deserialize(SUITE.cp, mutated)
    return type(old) is type(new) and all(
        getattr(old, name) == getattr(new, name)
        for name, kind in zip(old._fields, old._kinds) if kind != "sig"
    )


def _keys_agree(outcome: dict) -> bool:
    if "keys" in outcome:
        return all(mu == other for mu, other in outcome["keys"])
    return outcome["mu_key"] == outcome.get("fa_key", outcome.get("ha_key"))


# ---------------------------------------------------------------------------
# kind ids and registration


def test_kind_ids_are_explicit_and_stable():
    seen = {}
    for case in SUPPORTED:
        for e in honest_entries(*case):
            seen[e.kind] = e.payload[0]
    assert seen == {cls.KIND: kid for cls, kid in KIND_IDS.items()}
    for cls, kid in KIND_IDS.items():
        assert wire._BY_ID[kid] is cls


def test_duplicate_kind_id_is_refused():
    with pytest.raises(ValueError, match="duplicate"):
        class Clash(wire.Message, kind_id=3, kind="clash"):
            tag: bytes = "hash"
    assert wire._BY_ID[3] is prop.LoginRequest


def test_every_field_needs_a_cost_kind():
    with pytest.raises(ValueError, match="Bare.tag: unknown wire field kind None"):
        class Bare(wire.Message, kind_id=200, kind="bare"):
            tag: bytes
    with pytest.raises(ValueError, match="unknown wire field kind 'blob'"):
        class Blob(wire.Message, kind_id=200, kind="blob"):
            tag: bytes = "blob"
    assert 200 not in wire._BY_ID


def test_nominal_bits_follow_the_field_specs():
    bits = {e.kind: e.bits for case in SUPPORTED for e in honest_entries(*case)}
    assert bits["login-request"] == 2528 and bits["login-accept"] == 1344
    assert bits["mun-login"] == 160 + 128 + 160
    assert bits["foreign-challenge"] == 3 * 1024


def test_nonce_width_is_one_constant():
    assert mun_mod.NONCE_BYTES == wire.FIXED_BYTES["nonce"] == 16


def test_messages_are_immutable_values():
    """Every registered kind, on an instance from an honest transcript: equal
    and hash-equal to its wire round trip, unequal to another kind, frozen,
    built alike by keyword and by position, refusing a missing or an extra
    field, and copied with changes by `replace`."""
    messages = {}
    for case in SUPPORTED:
        for e in honest_entries(*case):
            messages.setdefault(e.kind, wire.deserialize(SUITE.cp, e.payload))
    assert {type(m) for m in messages.values()} == set(KIND_IDS)
    ordered = list(messages.values())
    for i, msg in enumerate(ordered):
        cls, fields = type(msg), dict(vars(msg))
        copy = wire.deserialize(SUITE.cp, wire.serialize(SUITE.cp, msg))
        assert copy is not msg and copy == msg and hash(copy) == hash(msg)
        assert msg != ordered[i - 1] and not msg == ordered[i - 1]
        name, value = next(iter(fields.items()))
        with pytest.raises(FrozenInstanceError):
            setattr(msg, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(msg, name)
        assert cls(**fields) == cls(*fields.values()) == msg
        for args, kwargs in (([*fields.values()][:-1], {}), ([*fields.values(), value], {}),
                             ([], {**fields, "extra": value}), ([value], fields)):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        changed = msg.replace(**{name: ordered[i - 1]})
        assert changed != msg and getattr(changed, name) is ordered[i - 1]
        assert vars(changed) == {**fields, name: ordered[i - 1]}
        assert vars(msg) == fields and msg == copy
        with pytest.raises(TypeError):
            msg.replace(extra=value)


# ---------------------------------------------------------------------------
# probes: malformed frames end in classified aborts


def _attack_once(scheme, scenario, kind, rewrite):
    def adversary(sender, receiver, msg_kind, raw):
        return rewrite(raw) if msg_kind == kind else raw

    return run_session(SUITE, scheme, scenario, random.Random(8), adversary=adversary).outcome


@pytest.mark.parametrize("scheme,scenario,kind", [
    ("proposed", "foreign-auth", "login-request"),
    ("proposed", "foreign-auth", "login-accept"),
    ("mun", "foreign-auth", "mun-login"),
    ("mun", "foreign-auth", "mun-home-reply"),
    ("mun", "foreign-auth", "mun-foreign-reply"),
])
def test_truncated_and_extended_frames_abort(scheme, scenario, kind):
    def drop_last(raw):
        fields = decode_concat(raw[1:])
        return raw[:1] + b"".join(encode_field(f) for f in fields[:-1])

    for rewrite in (drop_last, lambda raw: raw + encode_field(b"extra")):
        outcome = _attack_once(scheme, scenario, kind, rewrite)
        assert outcome["abort"].startswith("undeliverable message"), outcome


@pytest.mark.parametrize("scheme,kind,index", [
    ("proposed", "login-request", 1),   # masked identity
    ("proposed", "login-request", 3),   # user tag
    ("mun", "mun-login", 2),            # alias
    ("mun", "mun-home-reply", 1),       # password tag
    ("proposed", "foreign-challenge", 2),  # foreign agent signature
    ("proposed", "home-answer", 1),        # home agent signature
])
def test_wrong_width_fields_abort(scheme, kind, index):
    expected = 2 * TOY.scalar_bytes if CLASSES[kind]._kinds[index] == "sig" else 20
    for width in (0, expected - 1, expected + 1):
        outcome = _attack_once(scheme, "foreign-auth", kind,
                               lambda raw: _replace_field(raw, index, bytes(width)))
        assert f"bytes, expected {expected}" in outcome["abort"], outcome
        assert outcome["error"] == "EncodingError", outcome


@pytest.mark.parametrize("kind,index", [("login-request", 4), ("home-accept", 2)])
def test_home_auth_checks_the_echoed_home_id(kind, index):
    outcome = _attack_once("proposed", "home-auth", kind,
                           lambda raw: _replace_field(raw, index, bytes(20)))
    assert outcome["abort"].startswith("SessionMismatch"), outcome


def test_relabelled_kind_of_the_same_shape_aborts():
    # mun-login and mun-forward are both (identity, nonce, hash)
    outcome = _attack_once("mun", "foreign-auth", "mun-login",
                           lambda raw: bytes([KIND_IDS[mun_mod.MunForward]]) + raw[1:])
    assert outcome["abort"] == "undeliverable message: expected mun-login, got mun-forward"
    assert (outcome["error"], outcome["party"]) == ("EncodingError", "FA")


def _open_point_fields() -> list[tuple]:
    """(scheme, scenario, kind, field index, receiver) for every point field of
    every open frame kind an attackable scenario sends."""
    cases = {}
    for scheme, scenario in ATTACKABLE:
        for e in honest_entries(scheme, scenario):
            for index, kind in enumerate(CLASSES[e.kind]._kinds):
                if kind == "point" and not e.secure:
                    cases.setdefault((scheme, scenario, e.kind, index), e.receiver)
    return [(*case, receiver) for case, receiver in cases.items()]


@pytest.mark.parametrize("scheme,scenario,kind,index,receiver", _open_point_fields())
def test_identity_point_is_refused_at_the_bus(scheme, scenario, kind, index, receiver):
    def adversary(sender, to, msg_kind, raw):
        return _replace_field(raw, index, b"\x00") if msg_kind == kind else raw

    res = run_session(SUITE, scheme, scenario, random.Random(8), adversary=adversary)
    assert res.outcome["abort"] == f"undeliverable message: {kind}: point at infinity rejected"
    assert (res.outcome["error"], res.outcome["party"]) == ("EncodingError", receiver)
    assert kind not in [e.kind for e in res.transcript.entries]


def _identity_key(cert: Certificate) -> Certificate:
    return Certificate(cert.subject_id, INFINITY, cert.signature)


def _sealed_identity(case):
    """A played agent that seals the identity point into its payload: as the
    user's point or its certificate key (foreign agent), or as the user's
    point or its certificate key in the answer (home agent)."""
    def play(fn, args):
        if case == "foreign-user-point":
            suite, fa, m1, rng = args
            return fn(suite, fa, m1.replace(user_eph=INFINITY), rng)
        if case == "foreign-cert-key":
            suite, fa, m1, rng = args
            return fn(suite, fa.replace(cert=_identity_key(fa.cert)), m1, rng)
        if fn is not prop.ha_process:
            return fn(*args)
        suite, ha, m2, rng = args
        sym_key, user_eph, cert, _tag, _masked = prop.open_wrap(suite, ha.dh.priv, m2)
        cert_bytes = (_identity_key(ha.cert) if case == "home-cert-key"
                      else ha.cert).to_bytes(suite.cp)
        return prop.home_answer(suite, sym_key, ha.signer.priv, cert_bytes, cert.subject_id,
                                INFINITY if case == "home-user-point" else user_eph,
                                m2.foreign_eph, bytes(20), rng)
    return play


@pytest.mark.parametrize("curve", [TOY, P256], ids=["toy", "p256"])
@pytest.mark.parametrize("case,player,receiver", [
    ("foreign-user-point", "FA", "HA"), ("foreign-cert-key", "FA", "HA"),
    ("home-user-point", "HA", "FA"), ("home-cert-key", "HA", "FA"),
])
def test_identity_point_in_a_sealed_payload_or_certificate_aborts(curve, case, player,
                                                                   receiver):
    res = run_session(CryptoSuite(curve), "proposed", "foreign-auth", random.Random(9),
                      play={player: _sealed_identity(case)})
    assert res.outcome["abort"].startswith("DecryptionFailure: "), res.outcome
    assert res.outcome["abort"].endswith(": point at infinity rejected"), res.outcome
    assert (res.outcome["error"], res.outcome["party"]) == ("DecryptionFailure", receiver)


def test_deserialize_rejects_an_off_curve_point_as_encoding_error():
    raw = honest_entries("proposed", "foreign-auth")[0].payload
    point = decode_concat(raw[1:])[0][1]
    bad = point[:-1] + bytes([point[-1] ^ 1])
    with pytest.raises(EncodingError, match="login-request"):
        wire.deserialize(SUITE.cp, _replace_field(raw, 0, bad))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data())
def test_accepted_frames_are_canonical(data):
    raw = data.draw(st.sampled_from(all_frames()))
    mutated = data.draw(mutations(raw))
    try:
        msg = wire.deserialize(SUITE.cp, mutated)
    except EncodingError:
        return
    assert wire.serialize(SUITE.cp, msg) == mutated


@pytest.mark.parametrize("scheme,scenario", ATTACKABLE)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_rewritten_sessions_abort_or_agree(scheme, scenario, data):
    open_count = sum(not e.secure for e in honest_entries(scheme, scenario))
    target = data.draw(st.integers(0, open_count - 1))
    seen = []

    def adversary(sender, receiver, kind, raw):
        if len(seen) == target:
            mutated = data.draw(mutations(raw))
            seen.append((raw, mutated))
            return mutated
        seen.append(None)
        return raw

    outcome = run_session(SUITE, scheme, scenario, random.Random(5),
                          adversary=adversary).outcome
    if "abort" in outcome:
        assert outcome["success"] is False
        return
    assert outcome["success"] and _keys_agree(outcome), outcome
    if scheme == "proposed":
        original, mutated = seen[target]
        assert mutated == original or _only_signatures_differ(original, mutated)
