"""Nonce-and-hash roaming-authentication scheme (the "mun" scheme).

Reference implementation of the earlier scheme this project's attack suite
targets.  It is kept faithful to its published form, including the flaws the
attacks demonstrate: the login triple {ID_HA, N_HA, r_MU} is static per
user, the home agent never authenticates the foreign agent, the foreign
agent's tag check is vacuous, and the home agent hands the user a password
it generated itself.

One knowing deviation is required to make the scheme runnable at all: the
home agent keeps a (user id, password digest) registry, indexed by alias,
because the wire messages carry nothing else that names the user.  The
published description both asserts there is no such table and requires the
home agent to recompute a per-user value (not both satisfiable); it recomputes
the matched user's alias once, so it bills the published row at any size.
"""

from __future__ import annotations

import hmac
import random

from .curve import Point
from .proposed import SessionKey
from .record import Factory, Record
from .suite import CryptoSuite
from .wire import NONCE_BYTES, Message


class MunError(Exception):
    """Base class for aborts in the mun scheme."""


class MunUnknownUser(MunError):
    """No registered user matches the presented alias."""


class MunAuthError(MunError):
    """A tag or MAC comparison failed."""


# ---------------------------------------------------------------------------
# state


class MunHAState(Record):
    """Home agent with its registration table and alias index (see module docstring)."""

    home_id: bytes
    registry: dict[bytes, bytes] = Factory(dict)  # user_id -> password digest
    aliases: dict[bytes, bytes] = Factory(dict)  # r_MU -> user_id


class MunFAState(Record, frozen=True):
    foreign_id: bytes


class MunCredentials(Record, frozen=True):
    """What the user walks away with after registration (no smart card)."""

    user_id: bytes
    user_alias: bytes       # r_MU = h(ID || PW) xor ID_HA
    password_digest: bytes  # PW_MU = h(N_MU || N_HA), chosen by the HA
    home_nonce: bytes       # N_HA
    home_id: bytes


class MunFASession(Record):
    """Foreign-agent per-login state."""

    foreign_nonce: bytes
    home_nonce: bytes
    user_alias: bytes
    eph_priv: int | None = None


class MunChannel(Record, frozen=True):
    """Established MU-FA channel: key plus the shared point that the next
    refresh round must prove knowledge of."""

    key: SessionKey
    shared_point: Point


# ---------------------------------------------------------------------------
# messages


class MunRegRequest(Message, kind_id=10, kind="mun-reg-request"):
    user_id: bytes = "identity"
    client_nonce: bytes = "nonce"


class MunRegReply(Message, kind_id=11, kind="mun-reg-reply"):
    user_alias: bytes = "hash"
    password_digest: bytes = "hash"
    home_nonce: bytes = "nonce"
    home_id: bytes = "identity"


class MunLogin(Message, kind_id=12, kind="mun-login"):
    """First flight {ID_HA, N_HA, r_MU}; identical bytes every session."""

    home_id: bytes = "identity"
    home_nonce: bytes = "nonce"
    user_alias: bytes = "hash"


class MunForward(Message, kind_id=13, kind="mun-forward"):
    foreign_id: bytes = "identity"
    foreign_nonce: bytes = "nonce"
    user_alias: bytes = "hash"


class MunHomeReply(Message, kind_id=14, kind="mun-home-reply"):
    home_tag: bytes = "hash"  # S_HA = h(ID_FA || N_FA) xor r_MU xor P_HA
    pw_tag: bytes = "hash"    # P_HA = h(PW || N_FA)


class MunForeignReply(Message, kind_id=15, kind="mun-foreign-reply"):
    """FA -> MU flight {S_FA, aP, (S_HA || ID_FA || N_FA)}; the trailing
    bundle is plain concatenation, not encryption."""

    foreign_tag: bytes = "hash"  # S_FA = h(S_HA || N_FA || N_HA)
    foreign_eph: Point = "point"  # a * P
    bundle_home_tag: bytes = "hash"
    bundle_foreign_id: bytes = "identity"
    bundle_foreign_nonce: bytes = "nonce"


class MunClientFinish(Message, kind_id=16, kind="mun-client-finish"):
    client_eph: Point = "point"  # b * P
    finish_mac: bytes = "hash"   # f_K(N_FA || bP)


class MunRefreshRequest(Message, kind_id=17, kind="mun-refresh-request"):
    client_eph: Point = "point"


class MunRefreshResponse(Message, kind_id=18, kind="mun-refresh-response"):
    responder_eph: Point = "point"
    confirm_mac: bytes = "hash"  # f_{K_i}(new shared point || previous shared point)


# ---------------------------------------------------------------------------
# registration


def user_alias(suite: CryptoSuite, user_id: bytes, password_digest: bytes,
               home_id: bytes) -> bytes:
    """r_MU = h(ID || PW) xor ID_HA, the alias the home agent looks its user up by."""
    return suite.xor160(suite.hash_fields([user_id, password_digest]), home_id)


def mun_register(
    suite: CryptoSuite,
    ha: MunHAState,
    user_id: bytes,
    client_nonce: bytes,
    rng: random.Random,
) -> MunCredentials:
    """Home agent invents the user's password from the two nonces and hands
    everything back; it also records the pair and indexes it by alias."""
    home_nonce = suite.rand_bytes(rng, NONCE_BYTES)
    password_digest = suite.hash_fields([client_nonce, home_nonce])
    alias = user_alias(suite, user_id, password_digest, ha.home_id)
    ha.registry[user_id] = password_digest
    ha.aliases[alias] = user_id
    return MunCredentials(user_id, alias, password_digest, home_nonce, ha.home_id)


# ---------------------------------------------------------------------------
# authentication and key establishment


def home_tag(suite: CryptoSuite, foreign_id: bytes, foreign_nonce: bytes, user_alias: bytes,
             pw_tag: bytes) -> bytes:
    """S_HA = h(ID_FA || N_FA) xor r_MU xor P_HA, the home agent's tag over
    the forward; the foreign agent and the user recompute it."""
    return suite.xor160(
        suite.xor160(suite.hash_fields([foreign_id, foreign_nonce]), user_alias), pw_tag)


def mun_login(cred: MunCredentials) -> MunLogin:
    """First flight; nothing fresh in it, which is exactly the traceability
    problem demonstrated by the attack suite."""
    return MunLogin(cred.home_id, cred.home_nonce, cred.user_alias)


def mun_fa_forward(
    suite: CryptoSuite, fa: MunFAState, m1: MunLogin, rng: random.Random
) -> tuple[MunForward, MunFASession]:
    foreign_nonce = suite.rand_bytes(rng, NONCE_BYTES)
    msg = MunForward(fa.foreign_id, foreign_nonce, m1.user_alias)
    return msg, MunFASession(foreign_nonce, m1.home_nonce, m1.user_alias)


def mun_ha_auth(suite: CryptoSuite, ha: MunHAState, m2: MunForward) -> MunHomeReply:
    """Look the alias up and recompute it (a stale alias fails), then build
    the reply tags.  Note the reply contains h(PW || N_FA) in the clear."""
    user_id = ha.aliases.get(m2.user_alias)
    password_digest = ha.registry.get(user_id)
    if (password_digest is None
            or user_alias(suite, user_id, password_digest, ha.home_id) != m2.user_alias):
        raise MunUnknownUser("no registered user matches the presented alias")
    pw_tag = suite.hash_fields([password_digest, m2.foreign_nonce])
    return MunHomeReply(home_tag(suite, m2.foreign_id, m2.foreign_nonce, m2.user_alias, pw_tag),
                        pw_tag)


def mun_fa_respond(
    suite: CryptoSuite,
    fa: MunFAState,
    m3: MunHomeReply,
    session: MunFASession,
    rng: random.Random,
) -> tuple[MunForeignReply, MunFASession]:
    """Recompute the home tag from the reply's own fields and compare; the
    check is tautological (it holds for any well-formed pair), which the
    home-agent-impersonation attack exploits."""
    check = home_tag(suite, fa.foreign_id, session.foreign_nonce, session.user_alias, m3.pw_tag)
    if not hmac.compare_digest(check, m3.home_tag):
        raise MunAuthError("home tag mismatch")
    foreign_tag = suite.hash_fields([m3.home_tag, session.foreign_nonce, session.home_nonce])
    a = suite.rand_scalar(rng)
    eph_pub = suite.scalar_mul(a, suite.cp.generator, precomputable=True)
    session.eph_priv = a
    msg = MunForeignReply(
        foreign_tag, eph_pub, m3.home_tag, fa.foreign_id, session.foreign_nonce
    )
    return msg, session


def mun_mu_respond(
    suite: CryptoSuite, cred: MunCredentials, m4: MunForeignReply, rng: random.Random
) -> tuple[MunClientFinish, MunChannel]:
    """User recomputes both tags from its own password, then completes the
    key exchange."""
    pw_tag = suite.hash_fields([cred.password_digest, m4.bundle_foreign_nonce])
    expected = home_tag(suite, m4.bundle_foreign_id, m4.bundle_foreign_nonce,
                        cred.user_alias, pw_tag)
    foreign_tag = suite.hash_fields([expected, m4.bundle_foreign_nonce, cred.home_nonce])
    if not hmac.compare_digest(foreign_tag, m4.foreign_tag):
        raise MunAuthError("foreign tag mismatch; agents not authenticated")
    return client_finish(suite, m4, rng)


def login_channel(suite: CryptoSuite, priv: int, pub: Point) -> MunChannel:
    """The login key h(x * Y) and shared point x * Y, from either end's ephemeral."""
    shared = suite.scalar_mul(priv, pub)
    return MunChannel(SessionKey(suite.hash_fields([shared])), shared)


def client_finish(suite: CryptoSuite, m4: MunForeignReply,
                  rng: random.Random) -> tuple[MunClientFinish, MunChannel]:
    """The user's last flight {bP, f_K(N_FA || bP)} with K = h(b * aP); it
    needs no secret of the user."""
    b = suite.rand_scalar(rng)
    client_eph = suite.scalar_mul(b, suite.cp.generator, precomputable=True)
    channel = login_channel(suite, b, m4.foreign_eph)
    finish_mac = suite.mac160(channel.key.value,
                              suite.encode([m4.bundle_foreign_nonce, client_eph]))
    return MunClientFinish(client_eph, finish_mac), channel


def mun_fa_verify(
    suite: CryptoSuite, m5: MunClientFinish, session: MunFASession
) -> MunChannel:
    if session.eph_priv is None:
        raise MunError("foreign session has no ephemeral key")
    channel = login_channel(suite, session.eph_priv, m5.client_eph)
    expected = suite.mac160(channel.key.value,
                            suite.encode([session.foreign_nonce, m5.client_eph]))
    if not hmac.compare_digest(expected, m5.finish_mac):
        raise MunAuthError("finish MAC mismatch; user not authenticated")
    return channel


# ---------------------------------------------------------------------------
# session-key update


def mun_update_init(suite: CryptoSuite, rng: random.Random) -> tuple[MunRefreshRequest, int]:
    b_i = suite.rand_scalar(rng)
    return MunRefreshRequest(suite.scalar_mul(b_i, suite.cp.generator, precomputable=True)), b_i


def mun_update_respond(
    suite: CryptoSuite, m: MunRefreshRequest, prev: MunChannel, rng: random.Random
) -> tuple[MunRefreshResponse, MunChannel]:
    a_i = suite.rand_scalar(rng)
    responder_eph = suite.scalar_mul(a_i, suite.cp.generator, precomputable=True)
    shared = suite.scalar_mul(a_i, m.client_eph)
    key = SessionKey(suite.hash_fields([shared]), prev.key.epoch + 1)
    confirm = suite.mac160(key.value, suite.encode([shared, prev.shared_point]))
    return MunRefreshResponse(responder_eph, confirm), MunChannel(key, shared)


def mun_update_confirm(
    suite: CryptoSuite, b_i: int, m: MunRefreshResponse, prev: MunChannel
) -> MunChannel:
    shared = suite.scalar_mul(b_i, m.responder_eph)
    key = SessionKey(suite.hash_fields([shared]), prev.key.epoch + 1)
    expected = suite.mac160(key.value, suite.encode([shared, prev.shared_point]))
    if not hmac.compare_digest(expected, m.confirm_mac):
        raise MunAuthError("refresh MAC mismatch; keeping previous key")
    return MunChannel(key, shared)
