"""Adversary strategies against both schemes.

The expected verdict pattern is established on the production curve; the
toy curve is used only to demonstrate that the verdicts flip once the
discrete-log assumption is removed.  An access-audit harness checks that
attack code touches party secrets only inside honest protocol steps or
through explicitly granted views.
"""

import inspect
import json
import random

import pytest

from roamauth import attacks, harness, instrument, wire
from roamauth import mun as mun_mod
from roamauth import proposed as prop
from roamauth.attacks import (
    ATTACK_NAMES,
    AdversaryView,
    attack_fa_impersonation,
    attack_ha_impersonation,
    attack_insider,
    attack_mu_impersonation,
    attack_offline_guessing,
    attack_replay_session_key,
    attack_traceability,
    default_dictionary,
    link_pair,
    make_adapter,
    run_attack,
    run_attack_matrix,
    surveil,
)
from roamauth.curve import TOY, point_to_bytes
from roamauth.suite import CryptoSuite


@pytest.fixture(scope="module")
def matrix(p256_suite):
    return run_attack_matrix(p256_suite, random.Random(0xA11CE), trials=200)


# ---------------------------------------------------------------------------
# the full verdict pattern


EXPECTED = {
    "mu-impersonation": {"proposed": False, "mun": True},
    "fa-impersonation": {"proposed": False, "mun": True},
    "ha-impersonation": {"proposed": False, "mun": True},
    "offline-guess": {"proposed": False, "mun": True},
    "insider": {"proposed": False, "mun": True},
    "traceability": {"proposed": False, "mun": True},
    "replay": {"proposed": False, "mun": True},
    "forward-secrecy": {"proposed": False, "mun": False},
}


def test_matrix_pattern(matrix):
    got = {name: {s: o.succeeded for s, o in per.items()} for name, per in matrix.items()}
    assert got == EXPECTED


def test_success_evidence_is_sound(matrix):
    # Key-based successes must show byte-equal keys with the honest party.
    for name, per in matrix.items():
        for outcome in per.values():
            if outcome.succeeded and "adversary_key" in outcome.evidence:
                assert outcome.evidence["adversary_key"] is not None
                assert outcome.evidence["adversary_key"] == outcome.evidence["honest_party_key"]


def test_traceability_accuracies(matrix):
    assert matrix["traceability"]["mun"].evidence["accuracy"] == 1.0
    acc = matrix["traceability"]["proposed"].evidence["accuracy"]
    assert 0.4 <= acc <= 0.6
    assert matrix["traceability"]["proposed"].evidence["trials"] == 200


@pytest.mark.parametrize("scheme", ["proposed", "mun"])
def test_traceability_bills_every_op_to_an_honest_step(toy_suite, scheme):
    adapter = make_adapter(scheme, toy_suite, random.Random(7))
    instrument.reset_unattributed()
    attack_traceability(adapter, random.Random(8), trials=20)
    assert instrument.unattributed_ops() == 0


def test_outcome_json_roundtrip(matrix):
    raw = matrix["offline-guess"]["mun"].to_json()
    rec = json.loads(raw)
    assert rec["attack"] == "offline-guess"
    assert rec["scheme"] == "mun"
    assert rec["succeeded"] is True


# ---------------------------------------------------------------------------
# per-strategy details (cheap toy-curve runs where hardness is irrelevant)


def test_empty_view_fails_gracefully(toy_suite, rng):
    for scheme in ("proposed", "mun"):
        adapter = make_adapter(scheme, toy_suite, rng)
        empty = AdversaryView(public_material=adapter.public_material())
        assert not attack_mu_impersonation(adapter, empty, rng).succeeded
        assert not attack_replay_session_key(adapter, empty, rng).succeeded


def test_mun_mu_impersonation_uses_fresh_nonce(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    view = surveil(adapter, rng)
    outcome = attack_mu_impersonation(adapter, view, rng)
    assert outcome.succeeded
    original = adapter.world.cred.home_nonce.hex()
    assert outcome.evidence["forged_home_nonce"] != original


def test_proposed_replay_completes_but_yields_no_key(p256_suite):
    rng = random.Random(21)
    adapter = make_adapter("proposed", p256_suite, rng)
    view = surveil(adapter, rng)
    outcome = attack_replay_session_key(adapter, view, rng)
    assert not outcome.succeeded
    assert outcome.evidence["handshake_completed"] is True
    assert outcome.evidence["adversary_key"] is None
    assert outcome.evidence["honest_party_key"] is not None


def test_proposed_fa_impersonation_rejection_reasons(p256_suite):
    rng = random.Random(22)
    adapter = make_adapter("proposed", p256_suite, rng)
    view = surveil(adapter, rng)
    outcome = attack_fa_impersonation(adapter, view, rng)
    assert not outcome.succeeded
    assert "random-signature: SignatureInvalid" in outcome.detail
    assert "spliced-signature: SignatureInvalid" in outcome.detail


def test_proposed_ha_impersonation_decrypts_but_cannot_sign(p256_suite):
    rng = random.Random(23)
    adapter = make_adapter("proposed", p256_suite, rng)
    view = surveil(adapter, rng, sessions=0)
    outcome = attack_ha_impersonation(adapter, view, rng)
    assert not outcome.succeeded
    assert outcome.evidence["wrap_decrypted"] is True  # ECDH half is substitutable
    assert "CertificateInvalid" in outcome.detail
    assert "SignatureInvalid" in outcome.detail


def test_proposed_ha_impersonation_accepted_forgery_is_a_break_on_toy():
    # Toy ECDSA reduces digests into a 727-element group, so at seed 24 the
    # forged signature under the real certificate happens to verify.  The
    # rogue client then holds the foreign agent's session key.
    rng = random.Random(24)
    adapter = make_adapter("proposed", CryptoSuite(TOY), rng)
    view = surveil(adapter, rng, sessions=0)
    outcome = attack_ha_impersonation(adapter, view, rng)
    assert outcome.succeeded
    assert "real-certificate-forged-signature" in outcome.detail
    assert outcome.evidence["handshake_completed"] is True
    assert outcome.evidence["adversary_key"] == outcome.evidence["honest_party_key"]
    assert outcome.evidence["adversary_key"] is not None


def test_mun_ha_impersonation_serves_rogue_client(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    view = surveil(adapter, rng, sessions=0)
    outcome = attack_ha_impersonation(adapter, view, rng)
    assert outcome.succeeded
    assert "fabricated" in outcome.detail


# ---------------------------------------------------------------------------
# offline guessing


def test_mun_offline_guess_recovers_exact_password(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    view = surveil(adapter, rng)
    dictionary = default_dictionary(adapter, rng, size=1000)
    outcome = attack_offline_guessing(adapter, view, dictionary, rng)
    assert outcome.succeeded
    assert outcome.evidence["recovered_password"] == adapter.world.cred.password_digest.hex()
    assert outcome.evidence["confirmable_candidates"] == 1


def test_mun_offline_guess_fails_without_true_password(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    view = surveil(adapter, rng)
    dictionary = [b"nope-%d" % i for i in range(500)]
    outcome = attack_offline_guessing(adapter, view, dictionary, rng)
    assert not outcome.succeeded
    assert outcome.evidence["confirmable_candidates"] == 0


def test_empty_dictionary_is_not_replaced_by_the_default(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    outcome = run_attack("offline-guess", adapter, rng, dictionary=[])
    assert not outcome.succeeded
    assert outcome.evidence["dictionary_size"] == 0


def test_proposed_offline_guess_blocked_even_with_card(toy_suite, rng):
    adapter = make_adapter("proposed", toy_suite, rng)
    view = surveil(adapter, rng, steal_card=True)
    assert view.stolen_card is not None
    dictionary = default_dictionary(adapter, rng, size=1000)
    assert adapter.true_password() in dictionary
    outcome = attack_offline_guessing(adapter, view, dictionary, rng)
    assert not outcome.succeeded
    assert outcome.evidence["confirmable_candidates"] == 0
    assert "user_id" in outcome.evidence["verifier_missing_inputs"]
    assert "login_ephemeral_dh_point" in outcome.evidence["verifier_missing_inputs"]


# ---------------------------------------------------------------------------
# insider


def test_mun_insider_reads_password_and_impersonates(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    view = surveil(adapter, rng, sessions=0, insider=True)
    outcome = attack_insider(adapter, view, default_dictionary(adapter, rng, 100), rng)
    assert outcome.succeeded
    assert outcome.evidence["recovered_password"] == adapter.world.cred.password_digest.hex()


def test_proposed_insider_sees_only_salted_hash(toy_suite, rng):
    adapter = make_adapter("proposed", toy_suite, rng)
    view = surveil(adapter, rng, sessions=0, insider=True)
    assert set(view.insider_registration) == {"user_id", "masked_pw"}
    dictionary = default_dictionary(adapter, rng, 1000)
    outcome = attack_insider(adapter, view, dictionary, rng)
    assert not outcome.succeeded
    assert outcome.evidence["confirmable_candidates"] == 0


def test_proposed_insider_with_stolen_card_reduces_to_offline_guessing(toy_suite, rng):
    # Delegation case: an insider who also steals the card gains exactly the
    # offline-guessing position, which is itself blocked.
    adapter = make_adapter("proposed", toy_suite, rng)
    view = surveil(adapter, rng, steal_card=True, insider=True)
    outcome = attack_offline_guessing(
        adapter, view, default_dictionary(adapter, rng, 500), rng
    )
    assert not outcome.succeeded


# ---------------------------------------------------------------------------
# linker


def test_link_pair_on_mun_is_deterministic(toy_suite, rng):
    adapter = make_adapter("mun", toy_suite, rng)
    same1 = adapter.first_flight(rng, "primary")
    same2 = adapter.first_flight(rng, "primary")
    other = adapter.first_flight(rng, "other")
    assert link_pair(same1, same2)
    assert not link_pair(same1, other)


def test_link_pair_on_proposed_never_links(p256_suite):
    rng = random.Random(24)
    adapter = make_adapter("proposed", p256_suite, rng)
    flights = [adapter.first_flight(rng, "primary") for _ in range(4)]
    for i in range(len(flights)):
        for j in range(i + 1, len(flights)):
            assert not link_pair(flights[i], flights[j])


def _decoded_projection(scheme, cp, raw):
    """The user's fields read from the fully decoded first flight."""
    m1 = wire.deserialize(cp, raw)
    if scheme == "proposed":
        return (point_to_bytes(cp, m1.user_eph), m1.masked_id, m1.user_tag)
    return (m1.home_nonce, m1.user_alias)


@pytest.mark.parametrize("curve", ["toy", "p256"])
@pytest.mark.parametrize("scheme", ["proposed", "mun"])
def test_link_pair_agrees_with_the_decoded_fields(scheme, curve, request):
    # Both users share a home agent and decoding is canonical, so frame
    # equality decides as equality of the user's decoded fields does.
    suite = request.getfixturevalue(f"{curve}_suite")
    rng = random.Random(41)
    adapter = make_adapter(scheme, suite, rng)
    flights = [adapter.first_flight(rng, "primary" if i % 2 else "other") for i in range(50)]
    fields = [_decoded_projection(scheme, suite.cp, raw) for raw in flights]
    linked = 0
    for i in range(len(flights)):
        for j in range(i + 1, len(flights)):
            assert link_pair(flights[i], flights[j]) == (fields[i] == fields[j])
            linked += fields[i] == fields[j]
    if scheme == "mun":
        assert linked


# ---------------------------------------------------------------------------
# toy curve with the discrete-log oracle: the reduction made visible


def test_oracle_flips_replay_verdict_on_toy_curve(toy_suite):
    rng = random.Random(25)
    adapter = make_adapter("proposed", toy_suite, rng)
    without = run_attack("replay", adapter, rng, cdl=False)
    assert not without.succeeded
    with_oracle = run_attack("replay", adapter, rng, cdl=True)
    assert with_oracle.succeeded
    assert with_oracle.evidence["adversary_key"] == with_oracle.evidence["honest_party_key"]


def test_oracle_breaks_forward_secrecy_on_toy_curve(toy_suite):
    rng = random.Random(26)
    for scheme in ("proposed", "mun"):
        adapter = make_adapter(scheme, toy_suite, rng)
        outcome = run_attack("forward-secrecy", adapter, rng, cdl=True)
        assert outcome.succeeded, scheme


@pytest.mark.parametrize("scheme", ["proposed", "mun"])
def test_oracle_refused_on_p256_before_any_session(p256_suite, scheme):
    rng = random.Random(31)
    adapter = make_adapter(scheme, p256_suite, rng)
    state = rng.getstate()
    for name in ("mu-impersonation", "replay", "forward-secrecy"):
        with pytest.raises(ValueError, match="discrete-log oracle"):
            run_attack(name, adapter, rng, cdl=True)
    assert rng.getstate() == state  # no session drew from it


@pytest.mark.parametrize("call,error,match", [
    (lambda suite, rng: harness.run_session(suite, "munx", "foreign-auth", rng),
     harness.HarnessError, "unknown scheme 'munx'"),
    (lambda suite, rng: harness.run_session(suite, "proposed", "roaming", rng),
     harness.HarnessError, "unknown scenario 'roaming'"),
    (lambda suite, rng: make_adapter("munx", suite, rng), ValueError, "unknown scheme 'munx'"),
    (lambda suite, rng: run_attack("replay-typo", make_adapter("mun", suite, rng), rng),
     ValueError, "unknown attack 'replay-typo'"),
], ids=["session-scheme", "session-scenario", "adapter-scheme", "attack-name"])
def test_unknown_names_are_refused(toy_suite, call, error, match):
    with pytest.raises(Exception, match=match) as raised:
        call(toy_suite, random.Random(32))
    assert raised.type is error


def test_forward_secrecy_holds_with_secrets_but_no_oracle(p256_suite):
    rng = random.Random(27)
    for scheme in ("proposed", "mun"):
        adapter = make_adapter(scheme, p256_suite, rng)
        outcome = run_attack("forward-secrecy", adapter, rng, cdl=False)
        assert not outcome.succeeded, scheme
        assert outcome.evidence["handshake_completed"]


def test_proposed_forward_secrecy_recovers_identity_only(p256_suite):
    # Long-term secrets do unmask who was talking, just not the key.
    rng = random.Random(28)
    adapter = make_adapter("proposed", p256_suite, rng)
    outcome = run_attack("forward-secrecy", adapter, rng)
    assert outcome.evidence["recovered_user_id"] == adapter.world.mu.user_id.hex()
    assert not outcome.succeeded


def test_home_flow_replay_answered_but_key_needs_discrete_log(toy_suite):
    # At-home variant of the replay attack: the home agent happily answers a
    # replayed request, but the only route from that answer to the session
    # key runs through the login ephemeral - shown by recovering it with the
    # small-group discrete log and landing exactly on the agent's key.
    from roamauth import proposed as prop
    from roamauth import wire
    from roamauth.curve import brute_force_dlog, scalar_mul

    rng = random.Random(30)
    adapter = make_adapter("proposed", toy_suite, rng)
    world = adapter.world
    with harness.honest_step():
        m1, _sess = prop.home_login(toy_suite, world.mu, rng)
    captured = wire.serialize(toy_suite.cp, m1)

    replayed = wire.deserialize(toy_suite.cp, captured)
    with harness.honest_step():
        hm2, ha_key = prop.home_ha_respond(toy_suite, world.ha, replayed, rng)
    assert hm2 is not None  # no replay detection at the home agent

    a = brute_force_dlog(toy_suite.cp, replayed.user_eph)
    assert a is not None
    shared = scalar_mul(toy_suite.cp, a, hm2.home_eph)
    assert toy_suite.hash_fields([shared]) == ha_key.value


def test_mun_fa_impersonation_runs_the_foreign_agents_own_steps(toy_suite, monkeypatch):
    # The mun foreign agent holds no secret, so the adversary plays it by
    # running its real steps under a state of its own built from the public id.
    rng = random.Random(44)
    adapter = make_adapter("mun", toy_suite, rng)
    view = surveil(adapter, rng)
    calls = []
    for name in ("mun_fa_forward", "mun_fa_respond", "mun_fa_verify"):
        def spy(*args, _fn=getattr(mun_mod, name), _name=name):
            states = [a for a in args if isinstance(a, mun_mod.MunFAState)]
            calls.append((_name, harness.in_honest_step(), states))
            return _fn(*args)
        monkeypatch.setattr(mun_mod, name, spy)

    assert attack_fa_impersonation(adapter, view, rng).succeeded
    assert [name for name, _honest, _states in calls] == [
        "mun_fa_forward", "mun_fa_respond", "mun_fa_verify"]
    assert not any(honest for _name, honest, _states in calls)
    states = [state for _name, _honest, st in calls for state in st]
    assert len(states) == 2
    assert all(s is not adapter.world.fa and s == adapter.world.fa for s in states)


def _spy_helpers(monkeypatch, names):
    """Replace each named `proposed` helper with a spy that logs (name, whether
    it ran inside an honest step, args, result)."""
    calls = []
    for name in names:
        def spy(*args, _fn=getattr(prop, name), _name=name):
            result = _fn(*args)
            calls.append((_name, harness.in_honest_step(), args, result))
            return result
        monkeypatch.setattr(prop, name, spy)
    return calls


def test_proposed_fa_impersonation_wraps_with_the_schemes_helper(toy_suite, monkeypatch):
    # The played foreign agent seals the victim's login with `foreign_wrap`,
    # and the home agent opens that very ciphertext for both forged challenges.
    rng = random.Random(45)
    adapter = make_adapter("proposed", toy_suite, rng)
    view = surveil(adapter, rng)
    calls = _spy_helpers(monkeypatch, ("foreign_wrap", "open_wrap"))

    assert not attack_fa_impersonation(adapter, view, rng).succeeded
    wraps = [res for name, honest, _a, res in calls if name == "foreign_wrap" and not honest]
    assert len(wraps) == 1 and not any(n == "foreign_wrap" and h for n, h, _a, _r in calls)
    opened = [args[2].enc_for_home for name, honest, args, _r in calls
              if name == "open_wrap" and honest]
    assert opened == [wraps[0][0], wraps[0][0]]  # random and spliced signature


def test_proposed_ha_impersonation_answers_with_the_schemes_helpers(toy_suite, monkeypatch):
    # The fake home agent opens the wrap with `open_wrap` and builds each
    # forged answer with `home_answer`; those answers are what `fa_finish` gets.
    rng = random.Random(23)
    adapter = make_adapter("proposed", toy_suite, rng)
    view = surveil(adapter, rng, sessions=0)
    calls = _spy_helpers(monkeypatch, ("foreign_wrap", "open_wrap", "home_answer"))
    finished = []
    fa_finish = prop.fa_finish
    monkeypatch.setattr(prop, "fa_finish", lambda *a: finished.append(a[3]) or fa_finish(*a))

    assert not attack_ha_impersonation(adapter, view, rng).succeeded
    assert [(name, honest) for name, honest, _a, _r in calls] == [
        ("foreign_wrap", True), ("open_wrap", False), ("home_answer", False),
        ("home_answer", False)]
    answers = [res for name, _h, _a, res in calls if name == "home_answer"]
    assert len(finished) == 2 and all(m3 is a for m3, a in zip(finished, answers))


def test_no_view_built_by_run_attack_holds_the_session_key(monkeypatch):
    # The forward-secrecy judge compares against the observed session's key;
    # the adversary is asked to rebuild that key, so its view must not hold it.
    seen = []
    for name in ("attack_mu_impersonation", "attack_fa_impersonation",
                 "attack_ha_impersonation", "attack_offline_guessing", "attack_insider",
                 "attack_replay_session_key", "attack_forward_secrecy"):
        def spy(adapter, view, *rest, _fn=getattr(attacks, name), _name=name):
            seen.append((_name, view, rest))
            return _fn(adapter, view, *rest)
        monkeypatch.setattr(attacks, name, spy)

    suite, rng = CryptoSuite(TOY), random.Random(45)
    for scheme in ("proposed", "mun"):
        adapter = make_adapter(scheme, suite, rng)
        for name in ATTACK_NAMES:
            run_attack(name, adapter, rng, trials=4)

    assert len(seen) == 14
    for _name, view, _rest in seen:
        assert "session_key" not in view.public_material
    judged = [rest[-1] for name, _view, rest in seen if name == "attack_forward_secrecy"]
    assert len(judged) == 2 and all(type(key) is bytes for key in judged)
    for key in judged:
        assert all(key not in view.public_material.values() for _n, view, _r in seen)


# ---------------------------------------------------------------------------
# adversary confinement audit


SECRET_FIELDS = {
    "proposed": {
        "ha": ("master_secret", "dh", "signer"),
        "fa": ("signer",),
        "mu": ("password", "card"),
    },
    "mun": {
        "ha": ("registry", "aliases"),
        "cred": ("password_digest", "home_nonce", "user_alias", "user_id"),
    },
}


class AuditedParty:
    """Attribute proxy that records reads of secret fields together with
    whether they happened inside an honest protocol step."""

    def __init__(self, target, secret_names, log, label):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_secret_names", secret_names)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_label", label)

    def __getattr__(self, name):
        if name in object.__getattribute__(self, "_secret_names"):
            object.__getattribute__(self, "_log").append(
                (object.__getattribute__(self, "_label"), name, harness.in_honest_step())
            )
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_target"), name, value)


@pytest.mark.parametrize("scheme", ["proposed", "mun"])
def test_attack_code_reads_secrets_only_in_honest_steps_or_grants(toy_suite, scheme):
    rng = random.Random(29)
    adapter = make_adapter(scheme, toy_suite, rng)
    log: list[tuple[str, str, bool]] = []
    fields = SECRET_FIELDS[scheme]
    if scheme == "proposed":
        adapter.world.ha = AuditedParty(adapter.world.ha, fields["ha"], log, "ha")
        adapter.world.fa = AuditedParty(adapter.world.fa, fields["fa"], log, "fa")
        adapter.world.mu = AuditedParty(adapter.world.mu, fields["mu"], log, "mu")
    else:
        adapter.world.ha = AuditedParty(adapter.world.ha, fields["ha"], log, "ha")
        adapter.world.cred = AuditedParty(adapter.world.cred, fields["cred"], log, "cred")

    # Run the impersonation, insider and replay strategies (the ones that
    # interleave adversary computation with honest steps) under audit.  Views
    # are built first and the grant-time reads are discarded from the log.
    view = surveil(adapter, rng, insider=True)
    del log[:]
    attack_mu_impersonation(adapter, view, rng)
    attack_fa_impersonation(adapter, view, rng)
    attack_ha_impersonation(adapter, view, rng)
    attack_insider(adapter, view, [b"guess"], rng)
    attack_replay_session_key(adapter, view, rng)
    offenders = [(who, name) for who, name, honest in log if not honest]
    assert offenders == [], f"secret reads outside honest steps: {offenders}"
    assert any(honest for _who, _name, honest in log)  # honest steps did read secrets


# ---------------------------------------------------------------------------
# honest steps receive what the bus delivered


# Games whose honest steps all run in `run_session`, the adversary playing roles.
PLAYED_GAMES = {
    ("proposed", "mu-impersonation"), ("proposed", "fa-impersonation"),
    ("proposed", "replay"), ("mun", "mu-impersonation"), ("mun", "fa-impersonation"),
    ("mun", "ha-impersonation"), ("mun", "insider"), ("mun", "replay"),
}
# The steps attack code still calls by hand with a message it built itself:
# the proposed HA-impersonation game retries `fa_finish` on one foreign
# session, which no session can do (`fa_process_login` wraps the rogue login
# with `foreign_wrap`).  The traceability game's first flights take no frame,
# and its second user registers through the `registration` flow.
HAND_WRITTEN = {
    ("proposed", "ha-impersonation", "fa_process_login"),
    ("proposed", "ha-impersonation", "foreign_wrap"),
    ("proposed", "ha-impersonation", "fa_finish"),
}


def test_honest_steps_receive_only_frames_the_bus_delivered(monkeypatch):
    delivered: dict[int, object] = {}  # holds each frame, so no id is reused
    send = harness.MessageBus.send

    def record_delivery(self, *args, **kwargs):
        msg = send(self, *args, **kwargs)
        delivered[id(msg)] = msg
        return msg

    monkeypatch.setattr(harness.MessageBus, "send", record_delivery)
    game: list[str] = []
    received: set[tuple[str, str, str, bool]] = set()
    for module in (prop, mun_mod):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                def spy(*args, _fn=fn, _name=name):
                    if harness.in_honest_step():
                        for arg in args:
                            if hasattr(type(arg), "KIND"):
                                received.add((*game, _name, delivered.get(id(arg)) is arg))
                    return _fn(*args)
                monkeypatch.setattr(module, name, spy)

    suite, rng = CryptoSuite(TOY), random.Random(2013)  # the frozen toy matrix
    for scheme in ("proposed", "mun"):
        adapter = make_adapter(scheme, suite, rng)
        for name in ATTACK_NAMES:
            game[:] = scheme, name
            run_attack(name, adapter, rng, trials=200)

    assert {(s, a, step) for s, a, step, via_bus in received if not via_bus} == HAND_WRITTEN
    assert {(s, a) for s, a, _step, via_bus in received if via_bus} >= PLAYED_GAMES
