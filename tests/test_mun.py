"""Protocol-level tests for the mun scheme: it must work for honest parties
and faithfully exhibit the weaknesses the attack suite demonstrates."""

import functools
import hashlib
import hmac
import random

import pytest

from roamauth import mun, wire
from roamauth.curve import P256, TOY, scalar_mul
from roamauth.harness import HA, PAPER_OPS, build_mun_world, run_session
from roamauth.instrument import OpCounts, counting
from roamauth.suite import CryptoSuite, identity_from_label


@pytest.fixture()
def world(toy_suite, rng):
    return build_mun_world(toy_suite, rng)


def _chain(suite, world, rng):
    m1 = mun.mun_login(world.cred)
    m2, sess = mun.mun_fa_forward(suite, world.fa, m1, rng)
    m3 = mun.mun_ha_auth(suite, world.ha, m2)
    m4, sess = mun.mun_fa_respond(suite, world.fa, m3, sess, rng)
    m5, mu_chan = mun.mun_mu_respond(suite, world.cred, m4, rng)
    fa_chan = mun.mun_fa_verify(suite, m5, sess)
    return m1, m2, m3, m4, m5, mu_chan, fa_chan


# ---------------------------------------------------------------------------
# registration


def test_alias_definition_holds(toy_suite, world):
    cred = world.cred
    assert toy_suite.xor160(cred.user_alias, cred.home_id) == toy_suite.hash_fields(
        [cred.user_id, cred.password_digest]
    )


def test_registration_deterministic_under_seed(toy_suite):
    ha1 = mun.MunHAState(identity_from_label("ha"))
    ha2 = mun.MunHAState(identity_from_label("ha"))
    uid = identity_from_label("u")
    c1 = mun.mun_register(toy_suite, ha1, uid, b"\x01" * 16, random.Random(3))
    c2 = mun.mun_register(toy_suite, ha2, uid, b"\x01" * 16, random.Random(3))
    assert c1 == c2


def test_thousand_users_get_distinct_aliases(toy_suite, rng):
    ha = mun.MunHAState(identity_from_label("ha"))
    aliases = set()
    for i in range(1000):
        cred = mun.mun_register(
            toy_suite, ha, identity_from_label(f"u{i}"), rng.randbytes(16), rng
        )
        aliases.add(cred.user_alias)
    assert len(aliases) == 1000
    assert len(ha.registry) == 1000  # the table the scheme cannot do without


def test_home_agent_records_the_password(toy_suite, world):
    # The registry stores exactly what an insider can read.
    assert world.ha.registry[world.cred.user_id] == world.cred.password_digest


# ---------------------------------------------------------------------------
# authentication


def test_honest_chain_agrees(toy_suite, world, rng):
    *_m, mu_chan, fa_chan = _chain(toy_suite, world, rng)
    assert mu_chan.key.value == fa_chan.key.value
    assert mu_chan.shared_point == fa_chan.shared_point


@pytest.mark.parametrize("curve", [TOY, P256], ids=lambda cp: cp.name)
def test_home_tag_and_client_finish_match_the_published_equations(curve):
    suite, rng = CryptoSuite(curve), random.Random(47)
    G = curve.generator

    def h(*items):  # the scheme's h: SHA-256 over the canonical encoding, 160 bits
        return hashlib.sha256(suite.encode(items)).digest()[:20]

    def xor(*parts):
        return bytes(functools.reduce(lambda x, y: x ^ y, column) for column in zip(*parts))

    for _ in range(40 if curve is TOY else 4):
        foreign_id, nonce, alias, pw_tag = (rng.randbytes(n) for n in (20, 16, 20, 20))
        # S_HA = h(ID_FA || N_FA) xor r_MU xor P_HA
        assert mun.home_tag(suite, foreign_id, nonce, alias, pw_tag) == xor(
            h(foreign_id, nonce), alias, pw_tag)

        a = rng.randrange(1, curve.n)
        m4 = mun.MunForeignReply(rng.randbytes(20), scalar_mul(curve, a, G),
                                 rng.randbytes(20), foreign_id, nonce)
        clone = random.Random()
        clone.setstate(rng.getstate())
        b = clone.randrange(1, curve.n)  # the draw client_finish makes
        m5, chan = mun.client_finish(suite, m4, rng)
        # {bP, f_K(N_FA || bP)} with K = h(abP), the key the foreign agent derives from aP
        assert m5.client_eph == scalar_mul(curve, b, G)
        assert chan.shared_point == scalar_mul(curve, a, m5.client_eph)
        assert chan.key.value == h(chan.shared_point)
        assert m5.finish_mac == hmac.new(chan.key.value, suite.encode([nonce, m5.client_eph]),
                                         hashlib.sha256).digest()[:20]


def test_login_message_is_static(toy_suite, world):
    m1a = mun.mun_login(world.cred)
    m1b = mun.mun_login(world.cred)
    assert m1a == m1b  # nothing fresh: the traceability weakness


def test_replayed_login_accepted_by_home_agent(toy_suite, world, rng):
    # Verbatim replay of a previous first flight passes the alias check.
    m1 = mun.mun_login(world.cred)
    m2, _ = mun.mun_fa_forward(toy_suite, world.fa, m1, rng)
    assert mun.mun_ha_auth(toy_suite, world.ha, m2) is not None
    m2_again, _ = mun.mun_fa_forward(toy_suite, world.fa, m1, rng)
    assert mun.mun_ha_auth(toy_suite, world.ha, m2_again) is not None


def test_unknown_alias_rejected(toy_suite, world, rng):
    m2 = mun.MunForward(world.fa.foreign_id, rng.randbytes(16), rng.randbytes(20))
    with pytest.raises(mun.MunUnknownUser):
        mun.mun_ha_auth(toy_suite, world.ha, m2)


def test_home_agent_bills_the_published_row_at_any_registry_size(toy_suite, world, rng):
    """The alias index finds any of 64 users with the published count (hash
    3, xor 3), where a registry scan hashed once per user tried."""
    creds = [mun.mun_register(toy_suite, world.ha, identity_from_label(f"u{i}"),
                              rng.randbytes(16), rng) for i in range(63)]
    for cred in (world.cred, creds[0], creds[31], creds[-1]):
        m2, _ = mun.mun_fa_forward(toy_suite, world.fa, mun.mun_login(cred), rng)
        ops = OpCounts()
        with counting(ops):
            mun.mun_ha_auth(toy_suite, world.ha, m2)
        billed = {op: n for op, n in ops.as_dict().items() if n}
        assert billed == PAPER_OPS["mun"][HA] == {"xor": 3, "hash": 3}


def test_stale_alias_rejected_after_reregistration(toy_suite, world, rng):
    """Re-registering a user gives a new password and alias; the old alias
    stays in the index but no longer recomputes from the registry."""
    old = mun.mun_login(world.cred)
    new = mun.mun_register(toy_suite, world.ha, world.cred.user_id, rng.randbytes(16), rng)
    assert new.user_alias != old.user_alias
    m2, _ = mun.mun_fa_forward(toy_suite, world.fa, old, rng)
    with pytest.raises(mun.MunUnknownUser):
        mun.mun_ha_auth(toy_suite, world.ha, m2)
    m2, _ = mun.mun_fa_forward(toy_suite, world.fa, mun.mun_login(new), rng)
    assert mun.mun_ha_auth(toy_suite, world.ha, m2) is not None


def test_foreign_agents_tag_check_is_vacuous(toy_suite, world, rng):
    # For ANY filler value P', the pair (h(ID_FA||N_FA) xor r xor P', P')
    # passes the foreign agent's comparison: it recomputes the same formula
    # from the received parts.
    m1 = mun.mun_login(world.cred)
    for _ in range(20):
        m2, sess = mun.mun_fa_forward(toy_suite, world.fa, m1, rng)
        filler = rng.randbytes(20)
        fake_tag = toy_suite.xor160(
            toy_suite.xor160(
                toy_suite.hash_fields([m2.foreign_id, m2.foreign_nonce]),
                m2.user_alias,
            ),
            filler,
        )
        m4, _ = mun.mun_fa_respond(
            toy_suite, world.fa, mun.MunHomeReply(fake_tag, filler), sess, rng
        )
        assert m4.bundle_home_tag == fake_tag


def test_user_detects_wrong_foreign_tag(toy_suite, world, rng):
    *_m123, m4, _m5, _mu, _fa = _chain(toy_suite, world, rng)
    bad = m4.replace(foreign_tag=rng.randbytes(20))
    with pytest.raises(mun.MunAuthError):
        mun.mun_mu_respond(toy_suite, world.cred, bad, rng)


def test_fa_detects_wrong_finish_mac(toy_suite, world, rng):
    m1 = mun.mun_login(world.cred)
    m2, sess = mun.mun_fa_forward(toy_suite, world.fa, m1, rng)
    m3 = mun.mun_ha_auth(toy_suite, world.ha, m2)
    m4, sess = mun.mun_fa_respond(toy_suite, world.fa, m3, sess, rng)
    m5, _ = mun.mun_mu_respond(toy_suite, world.cred, m4, rng)
    bad = m5.replace(finish_mac=rng.randbytes(20))
    with pytest.raises(mun.MunAuthError):
        mun.mun_fa_verify(toy_suite, bad, sess)


def test_fa_verify_refuses_a_session_without_ephemeral(toy_suite, world, rng):
    *_m1234, m5, _mu, _fa = _chain(toy_suite, world, rng)
    fresh = mun.MunFASession(rng.randbytes(16), world.cred.home_nonce, world.cred.user_alias)
    with pytest.raises(mun.MunError, match="no ephemeral key"):
        mun.mun_fa_verify(toy_suite, m5, fresh)


def test_fa_aborts_on_a_tampered_home_reply(toy_suite):
    # The flip lands in the reply's last field, P_HA.  The user recomputes the
    # tags from its own password, so only the foreign agent's check sees it.
    def flip_pw_tag(sender, receiver, kind, raw):
        return raw[:-1] + bytes([raw[-1] ^ 0x01]) if kind == "mun-home-reply" else raw

    res = run_session(toy_suite, "mun", "foreign-auth", random.Random(4), adversary=flip_pw_tag)
    assert (res.outcome["party"], res.outcome["error"]) == ("FA", "MunAuthError")
    assert "home tag mismatch" in res.outcome["abort"]


def test_registration_session_leaves_credentials_that_log_in(toy_suite, world, rng):
    victim = world.cred
    res = run_session(toy_suite, "mun", "registration", rng, world=world)
    assert res.outcome == {"success": True}
    cred = world.cred
    assert cred != victim and cred.user_id == identity_from_label("mu-extra")
    assert world.ha.registry[cred.user_id] == cred.password_digest
    login = run_session(toy_suite, "mun", "foreign-auth", rng, world=world)
    assert login.outcome["success"]
    assert login.transcript.entries[0].payload == wire.serialize(
        toy_suite.cp, mun.mun_login(cred))


def test_harness_run(toy_suite, rng):
    res = run_session(toy_suite, "mun", "foreign-auth", rng)
    assert res.outcome["success"]
    assert res.report.rounds == 5


# ---------------------------------------------------------------------------
# session-key update


def test_update_round(toy_suite, world, rng):
    *_m, mu_chan, fa_chan = _chain(toy_suite, world, rng)
    um1, b1 = mun.mun_update_init(toy_suite, rng)
    um2, fa_next = mun.mun_update_respond(toy_suite, um1, fa_chan, rng)
    mu_next = mun.mun_update_confirm(toy_suite, b1, um2, mu_chan)
    assert mu_next.key.value == fa_next.key.value
    assert mu_next.key.epoch == 1
    assert mu_next.key.value != mu_chan.key.value


def test_update_rejected_without_previous_point(toy_suite, world, rng):
    *_m, mu_chan, _fa_chan = _chain(toy_suite, world, rng)
    um1, b1 = mun.mun_update_init(toy_suite, rng)
    fake_prev = mun.MunChannel(
        mu_chan.key, toy_suite.scalar_mul(3, toy_suite.cp.generator)
    )
    um2, _ = mun.mun_update_respond(toy_suite, um1, fake_prev, rng)
    with pytest.raises(mun.MunAuthError):
        mun.mun_update_confirm(toy_suite, b1, um2, mu_chan)


def test_three_update_rounds_distinct_keys(toy_suite, world, rng):
    *_m, mu_chan, fa_chan = _chain(toy_suite, world, rng)
    keys = {mu_chan.key.value}
    for _ in range(3):
        um1, b_i = mun.mun_update_init(toy_suite, rng)
        um2, fa_chan = mun.mun_update_respond(toy_suite, um1, fa_chan, rng)
        mu_chan = mun.mun_update_confirm(toy_suite, b_i, um2, mu_chan)
        assert mu_chan.key.value == fa_chan.key.value
        keys.add(mu_chan.key.value)
    assert len(keys) == 4
