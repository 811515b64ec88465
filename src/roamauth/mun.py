"""Nonce-and-hash roaming-authentication scheme (the "mun" scheme).

Reference implementation of the earlier scheme this project's attack suite
targets.  It is kept faithful to its published form, including the flaws the
attacks demonstrate: the login triple {ID_HA, N_HA, r_MU} is static per
user, the home agent never authenticates the foreign agent, the foreign
agent's tag check is vacuous, and the home agent hands the user a password
it generated itself.

One knowing deviation is required to make the scheme runnable at all: the
home agent keeps a (user id, password digest) registry and identifies login
attempts by scanning it for a matching alias, because the wire messages
carry nothing else that names the user.  The published description both
asserts there is no such table and requires the home agent to recompute a
per-user value, which is not satisfiable simultaneously.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass, field
from typing import ClassVar

from .curve import Point
from .proposed import SessionKey
from .suite import CryptoSuite
from .wire import NONCE_BYTES, register_message, wire_field


class MunError(Exception):
    """Base class for aborts in the mun scheme."""


class MunUnknownUser(MunError):
    """No registered user matches the presented alias."""


class MunAuthError(MunError):
    """A tag or MAC comparison failed."""


# ---------------------------------------------------------------------------
# state


@dataclass
class MunHAState:
    """Home agent with its registration table (see module docstring)."""

    home_id: bytes
    registry: dict[bytes, bytes] = field(default_factory=dict)  # user_id -> password digest


@dataclass(frozen=True)
class MunFAState:
    foreign_id: bytes


@dataclass(frozen=True)
class MunCredentials:
    """What the user walks away with after registration (no smart card)."""

    user_id: bytes
    user_alias: bytes       # r_MU = h(ID || PW) xor ID_HA
    password_digest: bytes  # PW_MU = h(N_MU || N_HA), chosen by the HA
    home_nonce: bytes       # N_HA
    home_id: bytes


@dataclass
class MunFASession:
    """Foreign-agent per-login state."""

    foreign_nonce: bytes
    home_nonce: bytes
    user_alias: bytes
    eph_priv: int | None = None
    eph_pub: Point | None = None


@dataclass(frozen=True)
class MunChannel:
    """Established MU-FA channel: key plus the shared point that the next
    refresh round must prove knowledge of."""

    key: SessionKey
    shared_point: Point


# ---------------------------------------------------------------------------
# messages


@register_message(10)
@dataclass(frozen=True)
class MunRegRequest:
    KIND: ClassVar[str] = "mun-reg-request"

    user_id: bytes = wire_field("identity")
    client_nonce: bytes = wire_field("nonce")


@register_message(11)
@dataclass(frozen=True)
class MunRegReply:
    KIND: ClassVar[str] = "mun-reg-reply"

    user_alias: bytes = wire_field("hash")
    password_digest: bytes = wire_field("hash")
    home_nonce: bytes = wire_field("nonce")
    home_id: bytes = wire_field("identity")


@register_message(12)
@dataclass(frozen=True)
class MunLogin:
    """First flight {ID_HA, N_HA, r_MU}; identical bytes every session."""

    KIND: ClassVar[str] = "mun-login"

    home_id: bytes = wire_field("identity")
    home_nonce: bytes = wire_field("nonce")
    user_alias: bytes = wire_field("hash")


@register_message(13)
@dataclass(frozen=True)
class MunForward:
    KIND: ClassVar[str] = "mun-forward"

    foreign_id: bytes = wire_field("identity")
    foreign_nonce: bytes = wire_field("nonce")
    user_alias: bytes = wire_field("hash")


@register_message(14)
@dataclass(frozen=True)
class MunHomeReply:
    KIND: ClassVar[str] = "mun-home-reply"

    home_tag: bytes = wire_field("hash")  # S_HA = h(ID_FA || N_FA) xor r_MU xor P_HA
    pw_tag: bytes = wire_field("hash")    # P_HA = h(PW || N_FA)


@register_message(15)
@dataclass(frozen=True)
class MunForeignReply:
    """FA -> MU flight {S_FA, aP, (S_HA || ID_FA || N_FA)}; the trailing
    bundle is plain concatenation, not encryption."""

    KIND: ClassVar[str] = "mun-foreign-reply"

    foreign_tag: bytes = wire_field("hash")  # S_FA = h(S_HA || N_FA || N_HA)
    foreign_eph: Point = wire_field("point")  # a * P
    bundle_home_tag: bytes = wire_field("hash")
    bundle_foreign_id: bytes = wire_field("identity")
    bundle_foreign_nonce: bytes = wire_field("nonce")


@register_message(16)
@dataclass(frozen=True)
class MunClientFinish:
    KIND: ClassVar[str] = "mun-client-finish"

    client_eph: Point = wire_field("point")  # b * P
    finish_mac: bytes = wire_field("hash")   # f_K(N_FA || bP)


@register_message(17)
@dataclass(frozen=True)
class MunRefreshRequest:
    KIND: ClassVar[str] = "mun-refresh-request"

    client_eph: Point = wire_field("point")


@register_message(18)
@dataclass(frozen=True)
class MunRefreshResponse:
    KIND: ClassVar[str] = "mun-refresh-response"

    responder_eph: Point = wire_field("point")
    confirm_mac: bytes = wire_field("hash")  # f_{K_i}(new shared point || previous shared point)


# ---------------------------------------------------------------------------
# registration


def mun_register(
    suite: CryptoSuite,
    ha: MunHAState,
    user_id: bytes,
    client_nonce: bytes,
    rng: random.Random,
) -> MunCredentials:
    """Home agent invents the user's password from the two nonces and hands
    everything back; it also records the pair it will later scan for."""
    home_nonce = suite.rand_bytes(rng, NONCE_BYTES)
    password_digest = suite.hash_fields([client_nonce, home_nonce])
    user_alias = suite.xor160(suite.hash_fields([user_id, password_digest]), ha.home_id)
    ha.registry[user_id] = password_digest
    return MunCredentials(user_id, user_alias, password_digest, home_nonce, ha.home_id)


# ---------------------------------------------------------------------------
# authentication and key establishment


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
    """Scan the registry for the alias, then build the reply tags.  Note the
    reply contains h(PW || N_FA) in the clear."""
    password_digest = None
    for user_id, digest in ha.registry.items():
        if suite.xor160(suite.hash_fields([user_id, digest]), ha.home_id) == m2.user_alias:
            password_digest = digest
            break
    if password_digest is None:
        raise MunUnknownUser("no registered user matches the presented alias")
    pw_tag = suite.hash_fields([password_digest, m2.foreign_nonce])
    home_tag = suite.xor160(
        suite.xor160(
            suite.hash_fields([m2.foreign_id, m2.foreign_nonce]), m2.user_alias
        ),
        pw_tag,
    )
    return MunHomeReply(home_tag, pw_tag)


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
    check = suite.xor160(
        suite.xor160(
            suite.hash_fields([fa.foreign_id, session.foreign_nonce]),
            session.user_alias,
        ),
        m3.pw_tag,
    )
    if not hmac.compare_digest(check, m3.home_tag):
        raise MunAuthError("home tag mismatch")
    foreign_tag = suite.hash_fields([m3.home_tag, session.foreign_nonce, session.home_nonce])
    a = suite.rand_scalar(rng)
    eph_pub = suite.scalar_mul(a, suite.cp.generator, precomputable=True)
    session.eph_priv = a
    session.eph_pub = eph_pub
    msg = MunForeignReply(
        foreign_tag, eph_pub, m3.home_tag, fa.foreign_id, session.foreign_nonce
    )
    return msg, session


def mun_mu_respond(
    suite: CryptoSuite, cred: MunCredentials, m4: MunForeignReply, rng: random.Random
) -> tuple[MunClientFinish, MunChannel]:
    """User recomputes both tags from its own password, then completes the
    key exchange."""
    home_tag = suite.xor160(
        suite.xor160(
            suite.hash_fields([m4.bundle_foreign_id, m4.bundle_foreign_nonce]),
            cred.user_alias,
        ),
        suite.hash_fields([cred.password_digest, m4.bundle_foreign_nonce]),
    )
    foreign_tag = suite.hash_fields([home_tag, m4.bundle_foreign_nonce, cred.home_nonce])
    if not hmac.compare_digest(foreign_tag, m4.foreign_tag):
        raise MunAuthError("foreign tag mismatch; agents not authenticated")
    b = suite.rand_scalar(rng)
    client_eph = suite.scalar_mul(b, suite.cp.generator, precomputable=True)
    shared = suite.scalar_mul(b, m4.foreign_eph)
    key = SessionKey(suite.hash_fields([shared]))
    finish_mac = suite.mac160(key.value, suite.encode([m4.bundle_foreign_nonce, client_eph]))
    return MunClientFinish(client_eph, finish_mac), MunChannel(key, shared)


def mun_fa_verify(
    suite: CryptoSuite, m5: MunClientFinish, session: MunFASession
) -> MunChannel:
    if session.eph_priv is None:
        raise MunError("foreign session has no ephemeral key")
    shared = suite.scalar_mul(session.eph_priv, m5.client_eph)
    key = SessionKey(suite.hash_fields([shared]))
    expected = suite.mac160(key.value, suite.encode([session.foreign_nonce, m5.client_eph]))
    if not hmac.compare_digest(expected, m5.finish_mac):
        raise MunAuthError("finish MAC mismatch; user not authenticated")
    return MunChannel(key, shared)


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
