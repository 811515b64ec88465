"""Protocol-level tests for the anonymous ECC scheme.

Most flows run on the toy curve for speed (the step logic is identical);
anything that relies on negligible collision probability runs on P-256.
White-box assertions (recomputing card fields from the home agent's master
secret) are marked as such - the protocol itself never exposes these values.
"""

import dataclasses
import random

import pytest

from roamauth import proposed as prop
from roamauth.harness import build_proposed_world, run_session
from roamauth.suite import identity_from_label


@pytest.fixture()
def world(toy_suite, rng):
    return build_proposed_world(toy_suite, rng)


def _foreign_chain(suite, world, rng):
    m1, mu_sess = prop.login_begin(suite, world.mu, rng)
    m2, fa_sess = prop.fa_process_login(suite, world.fa, m1, rng)
    m3 = prop.ha_process(suite, world.ha, m2, rng)
    m4, fa_key = prop.fa_finish(suite, world.fa, fa_sess, m3)
    mu_key = prop.mu_finish(suite, world.mu, mu_sess, m4)
    return m1, m2, m3, m4, mu_sess, fa_sess, mu_key, fa_key


# ---------------------------------------------------------------------------
# registration


def test_register_request_deterministic_under_seed(toy_suite):
    uid = identity_from_label("u")
    r1, salt1 = prop.register_request(toy_suite, uid, b"pw", random.Random(4))
    r2, salt2 = prop.register_request(toy_suite, uid, b"pw", random.Random(4))
    assert (r1, salt1) == (r2, salt2)


def test_register_request_never_leaks_password_bytes(toy_suite):
    r = random.Random(5)
    uid = identity_from_label("u")
    cp = toy_suite.cp
    from roamauth import wire

    for _ in range(1000):
        password = r.randbytes(12)
        req, _salt = prop.register_request(toy_suite, uid, password, r)
        assert password not in wire.serialize(cp, req)


def test_register_request_salting(toy_suite, rng):
    uid = identity_from_label("u")
    r1, _ = prop.register_request(toy_suite, uid, b"same-pw", rng)
    r2, _ = prop.register_request(toy_suite, uid, b"same-pw", rng)
    assert r1.masked_pw != r2.masked_pw


def test_register_request_rejects_bad_identity(toy_suite, rng):
    with pytest.raises(prop.ValidationError):
        prop.register_request(toy_suite, b"short", b"pw", rng)
    with pytest.raises(prop.ValidationError):
        prop.register_request(toy_suite, identity_from_label("u"), b"", rng)


def test_card_fields_recompute_from_master_secret(toy_suite, world):
    # White-box: with the home agent's secret, the card equations must hold.
    mu, ha = world.mu, world.ha
    card = mu.card
    masked_pw = toy_suite.hash_fields([mu.password, card.card_salt])
    id_key = toy_suite.hash_fields([mu.user_id, ha.master_secret])
    assert toy_suite.xor160(card.masked_key, masked_pw) == id_key
    assert toy_suite.hash_fields([mu.user_id, masked_pw]) == card.login_verifier
    assert card.home_dh_pub == ha.dh.pub


def test_card_finalize(toy_suite, world, rng):
    bare = dataclasses.replace(world.mu.card, card_salt=None)
    salt = rng.randbytes(prop.CARD_SALT_BYTES)
    done = prop.card_finalize(bare, salt)
    assert done.card_salt == salt
    assert prop.card_finalize(done, salt) == done
    other = prop.card_finalize(bare, rng.randbytes(prop.CARD_SALT_BYTES))
    assert other != done
    with pytest.raises(prop.ValidationError):
        prop.card_finalize(bare, b"too-short")


def test_home_agent_keeps_no_user_records(toy_suite, rng):
    ha_before = build_proposed_world(toy_suite, rng).ha
    for i in range(5):
        req, _ = prop.register_request(
            toy_suite, identity_from_label(f"user-{i}"), b"pw", rng
        )
        prop.register_issue(toy_suite, ha_before, req)
    # frozen dataclass with fixed fields: nothing per-user can accumulate
    assert dataclasses.fields(ha_before) == dataclasses.fields(prop.HAKeyMaterial)
    assert not any(
        isinstance(getattr(ha_before, f.name), (dict, list, set))
        for f in dataclasses.fields(ha_before)
    )


# ---------------------------------------------------------------------------
# local verification


def test_local_verify_correct_and_wrong(toy_suite, world):
    assert prop.local_verify(toy_suite, world.mu)
    wrong_pw = prop.MUState(world.mu.user_id, b"wrong", world.mu.card)
    assert not prop.local_verify(toy_suite, wrong_pw)
    wrong_id = prop.MUState(identity_from_label("imposter"), world.mu.password, world.mu.card)
    assert not prop.local_verify(toy_suite, wrong_id)


def test_wrong_password_aborts_without_message(toy_suite, world, rng):
    bad = prop.MUState(world.mu.user_id, b"wrong", world.mu.card)
    with pytest.raises(prop.LocalVerificationError):
        prop.login_begin(toy_suite, bad, rng)


# ---------------------------------------------------------------------------
# foreign-network login


def test_login_request_carries_the_id_key(toy_suite, world, rng):
    # White-box: N recovered in the login step equals h(ID || master secret).
    _, mu_sess = prop.login_begin(toy_suite, world.mu, rng)
    expected = toy_suite.hash_fields([world.mu.user_id, world.ha.master_secret])
    assert mu_sess.id_key == expected


def test_consecutive_logins_differ_everywhere(p256_suite):
    world = build_proposed_world(p256_suite, random.Random(6))
    rng = random.Random(7)
    m1a, _ = prop.login_begin(p256_suite, world.mu, rng)
    m1b, _ = prop.login_begin(p256_suite, world.mu, rng)
    assert m1a.user_eph != m1b.user_eph
    assert m1a.masked_id != m1b.masked_id
    assert m1a.user_tag != m1b.user_tag


def test_honest_chain_agrees(toy_suite, world, rng):
    *_msgs, mu_key, fa_key = _foreign_chain(toy_suite, world, rng)
    assert mu_key.value == fa_key.value
    assert mu_key.epoch == 0


def test_foreign_challenge_decryptable_by_home_agent(toy_suite, world, rng):
    # White-box: the wrap key is kdf(c * B).
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    from roamauth.curve import scalar_mul

    key = toy_suite.kdf_point(scalar_mul(toy_suite.cp, world.ha.dh.priv, m2.foreign_eph))
    plain = toy_suite.ae_decrypt(key, m2.enc_for_home)
    assert m1.user_tag in plain


def test_foreign_signature_verifies(toy_suite, world, rng):
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    from roamauth.suite import Signature

    sig = Signature.from_bytes(toy_suite.cp, m2.foreign_sig)
    assert toy_suite.verify_over(
        world.fa.signer.pub, [m1.user_eph, m1.user_tag, m1.masked_id], sig
    )


def test_short_certificate_subject_in_the_payload_is_a_decryption_failure(
        toy_suite, world, rng):
    # White-box: re-seal the foreign payload with a 19-byte certificate subject.
    from roamauth.curve import scalar_mul

    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    cert = world.fa.cert
    short = toy_suite.encode([cert.subject_id[:19], cert.public_key,
                              cert.signature.to_bytes(toy_suite.cp)])
    key = toy_suite.kdf_point(scalar_mul(toy_suite.cp, world.ha.dh.priv, m2.foreign_eph))
    sealed = toy_suite.ae_encrypt(
        key, toy_suite.encode([m1.user_eph, short, m1.user_tag, m1.masked_id]), rng)
    with pytest.raises(prop.DecryptionFailure, match="certificate: identity field of 19"):
        prop.ha_process(toy_suite, world.ha, dataclasses.replace(m2, enc_for_home=sealed), rng)


def test_ha_rejects_forged_signature(toy_suite, world, rng):
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    forged = dataclasses.replace(m2, foreign_sig=rng.randbytes(len(m2.foreign_sig)))
    with pytest.raises(prop.SignatureInvalid):
        prop.ha_process(toy_suite, world.ha, forged, rng)


def test_ha_rejects_wrong_user_tag(toy_suite, world, rng):
    # A login built with a bad tag (e.g. wrong password upstream) must fail
    # the home agent's recomputation, after FA processing succeeded.
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    bad_m1 = dataclasses.replace(m1, user_tag=rng.randbytes(20))
    m2, _ = prop.fa_process_login(toy_suite, world.fa, bad_m1, rng)
    with pytest.raises(prop.UserAuthFailure):
        prop.ha_process(toy_suite, world.ha, m2, rng)


def test_ha_rejects_tampered_wrap(toy_suite, world, rng):
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    broken = bytearray(m2.enc_for_home)
    broken[10] ^= 0xFF
    with pytest.raises(prop.DecryptionFailure):
        prop.ha_process(toy_suite, world.ha, dataclasses.replace(m2, enc_for_home=bytes(broken)), rng)


def test_ha_rejects_uncertified_agent(toy_suite, world, rng):
    # An agent certified by a different root cannot pass.
    other_ca = prop.make_root_ca(toy_suite, rng)
    rogue_fa = prop.setup_foreign_agent(toy_suite, identity_from_label("rogue"), other_ca, rng)
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, rogue_fa, m1, rng)
    with pytest.raises(prop.CertificateInvalid):
        prop.ha_process(toy_suite, world.ha, m2, rng)


def test_fa_rejects_tampered_answer(toy_suite, world, rng):
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, fa_sess = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    m3 = prop.ha_process(toy_suite, world.ha, m2, rng)
    broken = bytearray(m3.enc_for_foreign)
    broken[5] ^= 0x10
    with pytest.raises(prop.DecryptionFailure):
        prop.fa_finish(toy_suite, world.fa, fa_sess,
                       dataclasses.replace(m3, enc_for_foreign=bytes(broken)))


def test_fa_rejects_signature_by_wrong_key(toy_suite, world, rng):
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, fa_sess = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    m3 = prop.ha_process(toy_suite, world.ha, m2, rng)
    imposter = toy_suite.keygen(rng)
    bad_sig = toy_suite.sign_over(imposter.priv, [b"anything"])
    with pytest.raises(prop.SignatureInvalid):
        prop.fa_finish(toy_suite, world.fa, fa_sess,
                       dataclasses.replace(m3, home_sig=bad_sig.to_bytes(toy_suite.cp)))


def test_fa_rejects_session_mismatch(toy_suite, world, rng):
    # Answer from one session delivered into another: echoed A/B disagree.
    m1a, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2a, sess_a = prop.fa_process_login(toy_suite, world.fa, m1a, rng)
    m3a = prop.ha_process(toy_suite, world.ha, m2a, rng)
    m1b, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2b, sess_b = prop.fa_process_login(toy_suite, world.fa, m1b, rng)
    with pytest.raises((prop.SessionMismatch, prop.DecryptionFailure)):
        prop.fa_finish(toy_suite, world.fa, sess_b, m3a)


# Field-list edits to a sealed payload, applied to its raw (tag, payload)
# fields, which encode to the same bytes as the values they hold.
SEALED_EDITS = {
    "wrong-width": lambda raw: raw[:-1] + [(raw[-1][0], raw[-1][1][:-1])],
    "extra-field": lambda raw: raw + [raw[-1]],
    "missing-field": lambda raw: raw[:-1],
}


def _reseal(suite, key, plain, edit, signer, signed, rng):
    """Edit the field list of `plain`, then encrypt it under `key` and sign the
    fields at positions `signed` with `signer`, as a certified agent would."""
    from roamauth.encoding import decode_concat

    raw = edit(decode_concat(plain))
    sig = suite.sign_over(signer, [raw[i] for i in signed if i < len(raw)])
    return suite.ae_encrypt(key, suite.encode(raw), rng), sig.to_bytes(suite.cp)


@pytest.mark.parametrize("edit", sorted(SEALED_EDITS))
def test_ha_rejects_noncanonical_sealed_payload(toy_suite, world, rng, edit):
    # White-box: re-sealed under the wrap key kdf(c * B) and signed with the
    # certified foreign agent's key, so only the field list is wrong.
    from roamauth.curve import scalar_mul

    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, _ = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    key = toy_suite.kdf_point(scalar_mul(toy_suite.cp, world.ha.dh.priv, m2.foreign_eph))
    enc, sig = _reseal(toy_suite, key, toy_suite.ae_decrypt(key, m2.enc_for_home),
                       SEALED_EDITS[edit], world.fa.signer.priv, (0, 2, 3), rng)
    with pytest.raises(prop.DecryptionFailure):
        prop.ha_process(toy_suite, world.ha,
                        dataclasses.replace(m2, enc_for_home=enc, foreign_sig=sig), rng)


@pytest.mark.parametrize("edit", sorted(SEALED_EDITS))
def test_fa_rejects_noncanonical_sealed_payload(toy_suite, world, rng, edit):
    # White-box: re-sealed under the session's wrap key and signed with the
    # home agent's key, so only the field list is wrong.
    m1, _ = prop.login_begin(toy_suite, world.mu, rng)
    m2, fa_sess = prop.fa_process_login(toy_suite, world.fa, m1, rng)
    m3 = prop.ha_process(toy_suite, world.ha, m2, rng)
    plain = toy_suite.ae_decrypt(fa_sess.sym_key, m3.enc_for_foreign)
    enc, sig = _reseal(toy_suite, fa_sess.sym_key, plain, SEALED_EDITS[edit],
                       world.ha.signer.priv, (1, 4), rng)
    with pytest.raises(prop.DecryptionFailure):
        prop.fa_finish(toy_suite, world.fa, fa_sess,
                       dataclasses.replace(m3, enc_for_foreign=enc, home_sig=sig))


def test_short_masked_id_from_a_broken_agent_key_aborts_the_session(toy_suite, world):
    # On the toy curve the adversary recovers the foreign agent's signing key
    # from its public certificate, then replaces the challenge with one that
    # carries a 19-byte masked identity.  The home agent must abort, not crash.
    from roamauth import wire
    from roamauth.curve import brute_force_dlog, scalar_mul

    cp, forge_rng = toy_suite.cp, random.Random(31)
    fa_priv = brute_force_dlog(cp, world.fa.cert.public_key)
    seen = {}

    def hook(sender, receiver, kind, raw):
        if kind == prop.LoginRequest.KIND:
            seen["m1"] = wire.deserialize(cp, raw)
        if kind != prop.ForeignChallenge.KIND:
            return raw
        m1 = seen["m1"]
        b = toy_suite.rand_scalar(forge_rng)
        key = toy_suite.kdf_point(scalar_mul(cp, b, m1.home_dh_pub))
        fields = [m1.user_eph, world.fa.cert.to_bytes(cp), m1.user_tag, m1.masked_id[:-1]]
        enc = toy_suite.ae_encrypt(key, toy_suite.encode(fields), forge_rng)
        sig = toy_suite.sign_over(fa_priv, [fields[0], *fields[2:]])
        forged = prop.ForeignChallenge(scalar_mul(cp, b, cp.generator), enc, sig.to_bytes(cp))
        return wire.serialize(cp, forged)

    res = run_session(toy_suite, "proposed", "foreign-auth", random.Random(30), world=world,
                      adversary=hook)
    assert not res.outcome["success"]
    assert (res.outcome["error"], res.outcome["party"]) == ("DecryptionFailure", "HA")


@pytest.mark.parametrize("field", ["foreign_eph", "foreign_id", "confirm_tag"])
def test_login_accept_binding(p256_suite, field):
    # Mutating any accept field must break the user's confirmation check.
    world = build_proposed_world(p256_suite, random.Random(8))
    rng = random.Random(9)
    m1, mu_sess = prop.login_begin(p256_suite, world.mu, rng)
    m2, fa_sess = prop.fa_process_login(p256_suite, world.fa, m1, rng)
    m3 = prop.ha_process(p256_suite, world.ha, m2, rng)
    m4, _ = prop.fa_finish(p256_suite, world.fa, fa_sess, m3)
    if field == "foreign_eph":
        substituted = p256_suite.scalar_mul(5, p256_suite.cp.generator)
        bad = dataclasses.replace(m4, foreign_eph=substituted)
    elif field == "foreign_id":
        bad = dataclasses.replace(m4, foreign_id=identity_from_label("evil-fa"))
    else:
        bad = dataclasses.replace(m4, confirm_tag=bytes(20))
    with pytest.raises(prop.ConfirmMismatch):
        prop.mu_finish(p256_suite, world.mu, mu_sess, bad)


# ---------------------------------------------------------------------------
# session-key refresh


def test_key_update_chain(toy_suite, world, rng):
    *_m, mu_key, fa_key = _foreign_chain(toy_suite, world, rng)
    um1, a1 = prop.key_update_init(toy_suite, rng)
    um2, fa_k1 = prop.key_update_respond(toy_suite, um1, fa_key, rng)
    mu_k1 = prop.key_update_confirm(toy_suite, a1, um2, mu_key)
    assert mu_k1.value == fa_k1.value
    assert mu_k1.epoch == 1
    assert mu_k1.value != mu_key.value


def test_key_update_rejects_attacker_without_previous_key(toy_suite, world, rng):
    *_m, mu_key, _fa_key = _foreign_chain(toy_suite, world, rng)
    um1, a1 = prop.key_update_init(toy_suite, rng)
    fake_prev = prop.SessionKey(rng.randbytes(20), 0)
    um2, _ = prop.key_update_respond(toy_suite, um1, fake_prev, rng)
    with pytest.raises(prop.ConfirmMismatch):
        prop.key_update_confirm(toy_suite, a1, um2, mu_key)


def test_two_updates_give_three_distinct_keys(toy_suite, world, rng):
    *_m, mu_key, fa_key = _foreign_chain(toy_suite, world, rng)
    keys = [mu_key.value]
    for _ in range(2):
        um1, a_i = prop.key_update_init(toy_suite, rng)
        um2, fa_key = prop.key_update_respond(toy_suite, um1, fa_key, rng)
        mu_key = prop.key_update_confirm(toy_suite, a_i, um2, mu_key)
        assert mu_key.value == fa_key.value
        keys.append(mu_key.value)
    assert len(set(keys)) == 3


# ---------------------------------------------------------------------------
# password change


def test_password_change_end_to_end(toy_suite, world, rng):
    new_card = prop.password_change(toy_suite, world.mu, b"new-password", rng)
    renewed = prop.MUState(world.mu.user_id, b"new-password", new_card)
    assert prop.local_verify(toy_suite, renewed)
    world.mu = renewed
    *_m, mu_key, fa_key = _foreign_chain(toy_suite, world, rng)
    assert mu_key.value == fa_key.value


def test_password_change_invalidates_old_password(toy_suite, world, rng):
    new_card = prop.password_change(toy_suite, world.mu, b"new-password", rng)
    stale = prop.MUState(world.mu.user_id, world.mu.password, new_card)
    assert not prop.local_verify(toy_suite, stale)


def test_password_change_preserves_id_key(toy_suite, world, rng):
    # White-box: Q_new xor h(PW_new || salt_new) still equals h(ID || y).
    new_card = prop.password_change(toy_suite, world.mu, b"new-password", rng)
    masked_new = toy_suite.hash_fields([b"new-password", new_card.card_salt])
    id_key = toy_suite.hash_fields([world.mu.user_id, world.ha.master_secret])
    assert toy_suite.xor160(new_card.masked_key, masked_new) == id_key


def test_password_change_rejects_wrong_old_password(toy_suite, world, rng):
    bad = prop.MUState(world.mu.user_id, b"wrong", world.mu.card)
    with pytest.raises(prop.LocalVerificationError):
        prop.password_change(toy_suite, bad, b"new", rng)


# ---------------------------------------------------------------------------
# home-network login


def test_home_chain_agrees(toy_suite, world, rng):
    m1, mu_sess = prop.home_login(toy_suite, world.mu, rng)
    hm2, ha_key = prop.home_ha_respond(toy_suite, world.ha, m1, rng)
    mu_key = prop.home_mu_confirm(toy_suite, world.mu, mu_sess, hm2)
    assert mu_key.value == ha_key.value


def test_home_replayed_login_is_answered_but_useless(toy_suite, world, rng):
    # The home agent has no replay detection; the protection is that the
    # replayer cannot derive the key (exercised in the attack suite).
    m1, _ = prop.home_login(toy_suite, world.mu, rng)
    hm2_first, _ = prop.home_ha_respond(toy_suite, world.ha, m1, rng)
    hm2_replay, _ = prop.home_ha_respond(toy_suite, world.ha, m1, rng)
    assert hm2_first.confirm_tag != hm2_replay.confirm_tag  # fresh U each time


def test_home_tampered_ephemeral_rejected(toy_suite, world, rng):
    m1, mu_sess = prop.home_login(toy_suite, world.mu, rng)
    hm2, _ = prop.home_ha_respond(toy_suite, world.ha, m1, rng)
    substitute = toy_suite.scalar_mul(7, toy_suite.cp.generator)
    bad = dataclasses.replace(hm2, home_eph=substitute)
    if bad.home_eph == hm2.home_eph:  # pragma: no cover - astronomically unlikely
        pytest.skip("substitute collided with the real ephemeral")
    with pytest.raises(prop.ConfirmMismatch):
        prop.home_mu_confirm(toy_suite, world.mu, mu_sess, bad)


def test_home_ha_rejects_unknown_user_tag(toy_suite, world, rng):
    m1, _ = prop.home_login(toy_suite, world.mu, rng)
    bad = dataclasses.replace(m1, user_tag=rng.randbytes(20))
    with pytest.raises(prop.UserAuthFailure):
        prop.home_ha_respond(toy_suite, world.ha, bad, rng)


# ---------------------------------------------------------------------------
# transcript-level anonymity


def test_user_identity_never_on_the_wire(p256_suite):
    world = build_proposed_world(p256_suite, random.Random(10))
    res = run_session(p256_suite, "proposed", "foreign-auth", random.Random(11), world=world)
    assert res.outcome["success"]
    for entry in res.transcript.entries:
        assert world.mu.user_id not in entry.payload


def test_session_fields_pairwise_distinct_across_logins(p256_suite):
    world = build_proposed_world(p256_suite, random.Random(12))
    rng = random.Random(13)
    seen_eph, seen_masked, seen_tag = set(), set(), set()
    for _ in range(20):
        m1, _ = prop.login_begin(p256_suite, world.mu, rng)
        eph = (m1.user_eph.x, m1.user_eph.y)
        assert eph not in seen_eph
        assert m1.masked_id not in seen_masked
        assert m1.user_tag not in seen_tag
        seen_eph.add(eph)
        seen_masked.add(m1.masked_id)
        seen_tag.add(m1.user_tag)
