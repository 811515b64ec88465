"""Anonymous ECC roaming-authentication scheme (the "proposed" scheme).

Three parties: a mobile user (MU) holding a smart card, the foreign agent
(FA) of the visited network, and the user's home agent (HA).  Five flows:

* registration - MU sends its identity and a salted password hash over a
  secure channel; HA answers with a card {Q, H, C, ID_HA} and keeps no
  per-user record.  MU adds the salt to the card.
* foreign-network login - four messages MU->FA->HA->FA->MU.  The user's
  identity travels only masked (XOR with a hash of an ephemeral ECDH
  point), HA unmasks it and vouches for the user; FA and HA authenticate
  each other with certificates and signatures; MU and FA end with the
  shared key h(abP).
* session-key refresh - two messages between MU and FA; each new key is
  confirmed with a tag bound to the previous key.
* password change - card-local, no network traffic.
* home-network login - two messages MU->HA->MU when the user is at home.

Every step is a pure function of (party state, message, rng) and either
returns the next message or raises a scheme error; nothing is transmitted
after a failed check.  A step gets a message whose field widths the wire
decoder and whose group elements the bus have already checked.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass, replace
from typing import ClassVar

from .curve import CurveError, Point
from .encoding import EncodingError
from .suite import (
    DIGEST_BYTES,
    AuthenticationError,
    Certificate,
    CryptoSuite,
    KeyPair,
    Signature,
)
from .wire import register_message, unpack, wire_field

CARD_SALT_BYTES = 16  # 128-bit card salt


class SchemeError(Exception):
    """Base class for protocol aborts; the session sends nothing after one."""


class ValidationError(SchemeError):
    """An argument check failed: identity width, empty password or card salt
    width.  Received frames are checked before a step runs (`harness.MessageBus`
    validates group elements, `wire.unpack` field widths)."""


class LocalVerificationError(SchemeError):
    """Card-local identity/password check failed; no message is emitted."""


class DecryptionFailure(SchemeError):
    """Encrypted payload did not authenticate or did not parse."""


class CertificateInvalid(SchemeError):
    """Certificate rejected by the root CA check or subject mismatch."""


class SignatureInvalid(SchemeError):
    """Protocol signature failed verification."""


class UserAuthFailure(SchemeError):
    """The user proof did not match the home agent's recomputation."""


class ConfirmMismatch(SchemeError):
    """A confirmation tag did not match; the peer is not authenticated."""


class SessionMismatch(SchemeError):
    """Echoed session values disagree with the live session."""


# ---------------------------------------------------------------------------
# party state


@dataclass(frozen=True)
class HAKeyMaterial:
    """Home-agent long-term state: identity, hashing master secret, static
    ECDH pair (the card carries its public half), and a certified signing
    key.  Deliberately contains no per-user storage."""

    home_id: bytes
    master_secret: bytes
    dh: KeyPair
    signer: KeyPair
    cert: Certificate
    ca_pub: Point


@dataclass(frozen=True)
class FAKeyMaterial:
    foreign_id: bytes
    signer: KeyPair
    cert: Certificate
    ca_pub: Point


@dataclass(frozen=True)
class SmartCard:
    """Issued credential record {Q, H, C, ID_HA} plus the user-added salt."""

    masked_key: bytes        # Q = h(ID || y) xor h(PW || salt)
    login_verifier: bytes    # H = h(ID || h(PW || salt))
    home_dh_pub: Point       # C = c * P
    home_id: bytes
    card_salt: bytes | None = None


@dataclass(frozen=True)
class MUState:
    user_id: bytes
    password: bytes
    card: SmartCard


@dataclass
class UserSession:
    """Mobile-user ephemerals for one login; the finishing step wipes them."""

    eph_priv: int | None
    user_eph: Point
    dh_point: Point        # a * C, shared with the home agent
    id_key: bytes          # h(ID || y), recovered from the card

    def wipe(self) -> None:
        self.eph_priv = None


@dataclass
class ForeignSession:
    """Foreign-agent ephemerals for one login; `fa_finish` wipes them."""

    eph_priv: int | None
    foreign_eph: Point
    sym_key: bytes         # derived from b * C, shared with the home agent
    user_eph: Point
    masked_id: bytes
    user_tag: bytes
    home_id: bytes

    def wipe(self) -> None:
        self.eph_priv = None


@dataclass(frozen=True)
class SessionKey:
    value: bytes
    epoch: int = 0


# ---------------------------------------------------------------------------
# messages


@register_message(1)
@dataclass(frozen=True)
class RegRequest:
    KIND: ClassVar[str] = "reg-request"

    user_id: bytes = wire_field("identity")
    masked_pw: bytes = wire_field("hash")  # h(PW || salt)


@register_message(2)
@dataclass(frozen=True)
class CardIssue:
    KIND: ClassVar[str] = "card-issue"

    masked_key: bytes = wire_field("hash")
    login_verifier: bytes = wire_field("hash")
    home_dh_pub: Point = wire_field("point")
    home_id: bytes = wire_field("identity")


@register_message(3)
@dataclass(frozen=True)
class LoginRequest:
    """First flight {A, DID, C, V1, ID_HA}; carries no plaintext identity."""

    KIND: ClassVar[str] = "login-request"

    user_eph: Point = wire_field("point")       # A = a * P
    masked_id: bytes = wire_field("identity")   # DID = ID xor h(a * C)
    home_dh_pub: Point = wire_field("point")    # C, so FA can run ECDH toward HA
    user_tag: bytes = wire_field("hash")        # V1 = h(N || aC || ID_HA)
    home_id: bytes = wire_field("identity")


@register_message(4)
@dataclass(frozen=True)
class ForeignChallenge:
    """FA -> HA flight {B, W2, V2}."""

    KIND: ClassVar[str] = "foreign-challenge"

    foreign_eph: Point = wire_field("point")    # B = b * P
    enc_for_home: bytes = wire_field("sym")     # E_{k(bC)}[A, Cert_FA, V1, DID]
    foreign_sig: bytes = wire_field("sig")      # signature over h(A, V1, DID)


@register_message(5)
@dataclass(frozen=True)
class HomeAnswer:
    """HA -> FA flight {W3, V3}."""

    KIND: ClassVar[str] = "home-answer"

    enc_for_foreign: bytes = wire_field("sym")  # E_{k(cB)}[ID_FA, Cert_HA, A, B, W1]
    home_sig: bytes = wire_field("sig")         # signature over h(Cert_HA, W1)


@register_message(6)
@dataclass(frozen=True)
class LoginAccept:
    """Final flight FA -> MU {B, ID_FA, W1}."""

    KIND: ClassVar[str] = "login-accept"

    foreign_eph: Point = wire_field("point")
    foreign_id: bytes = wire_field("identity")
    confirm_tag: bytes = wire_field("hash")     # W1 = h(N || A || B || ID_FA || ID_HA)


@register_message(7)
@dataclass(frozen=True)
class HomeAccept:
    """HA -> MU flight {U, W1, ID_HA} for the at-home flow."""

    KIND: ClassVar[str] = "home-accept"

    home_eph: Point = wire_field("point")       # U = u * P
    confirm_tag: bytes = wire_field("hash")     # W1 = h(N || A || C || U || ID_HA)
    home_id: bytes = wire_field("identity")


@register_message(8)
@dataclass(frozen=True)
class RefreshRequest:
    KIND: ClassVar[str] = "refresh-request"

    user_eph: Point = wire_field("point")


@register_message(9)
@dataclass(frozen=True)
class RefreshResponse:
    KIND: ClassVar[str] = "refresh-response"

    responder_eph: Point = wire_field("point")
    confirm_tag: bytes = wire_field("hash")     # h(shared point || previous key)


# ---------------------------------------------------------------------------
# setup


def make_root_ca(suite: CryptoSuite, rng: random.Random) -> KeyPair:
    return suite.keygen(rng)


def setup_home_agent(
    suite: CryptoSuite, home_id: bytes, ca: KeyPair, rng: random.Random
) -> HAKeyMaterial:
    _check_identity(home_id)
    master_secret = suite.rand_bytes(rng, 32)
    dh = suite.keygen(rng)
    signer = suite.keygen(rng)
    cert = suite.issue_certificate(ca, home_id, signer.pub)
    return HAKeyMaterial(home_id, master_secret, dh, signer, cert, ca.pub)


def setup_foreign_agent(
    suite: CryptoSuite, foreign_id: bytes, ca: KeyPair, rng: random.Random
) -> FAKeyMaterial:
    _check_identity(foreign_id)
    signer = suite.keygen(rng)
    cert = suite.issue_certificate(ca, foreign_id, signer.pub)
    return FAKeyMaterial(foreign_id, signer, cert, ca.pub)


def _check_identity(identity: bytes) -> None:
    if not isinstance(identity, (bytes, bytearray)) or len(identity) != DIGEST_BYTES:
        raise ValidationError(f"identity must be {DIGEST_BYTES} bytes")


# ---------------------------------------------------------------------------
# registration


def register_request(
    suite: CryptoSuite, user_id: bytes, password: bytes, rng: random.Random
) -> tuple[RegRequest, bytes]:
    """User side of registration: fresh card salt, masked password hash.

    The password itself never leaves the user; only h(PW || salt) does.
    """
    _check_identity(user_id)
    if not password:
        raise ValidationError("password must be non-empty")
    card_salt = suite.rand_bytes(rng, CARD_SALT_BYTES)
    masked_pw = suite.hash_fields([password, card_salt])
    return RegRequest(user_id, masked_pw), card_salt


def register_issue(suite: CryptoSuite, ha: HAKeyMaterial, req: RegRequest) -> SmartCard:
    """Home-agent side: derive the card from the master secret and forget
    the user; no verification table is kept."""
    _check_identity(req.user_id)
    id_key = suite.hash_fields([req.user_id, ha.master_secret])
    masked_key = suite.xor160(id_key, req.masked_pw)
    login_verifier = suite.hash_fields([req.user_id, req.masked_pw])
    return SmartCard(masked_key, login_verifier, ha.dh.pub, ha.home_id)


def card_finalize(card: SmartCard, card_salt: bytes) -> SmartCard:
    """User writes the salt into the freshly issued card."""
    if len(card_salt) != CARD_SALT_BYTES:
        raise ValidationError(f"card salt must be {CARD_SALT_BYTES} bytes")
    return replace(card, card_salt=card_salt)


# ---------------------------------------------------------------------------
# foreign-network login


def _card_check(suite: CryptoSuite, mu: MUState,
                rejected: str = "identity/password check failed") -> bytes:
    """Card-local check of identity and password; returns h(PW || salt) or
    raises LocalVerificationError(rejected).  No network traffic."""
    card = mu.card
    if card.card_salt is None:
        raise LocalVerificationError("card has no salt installed")
    masked_pw = suite.hash_fields([mu.password, card.card_salt])
    check = suite.hash_fields([mu.user_id, masked_pw])
    if not hmac.compare_digest(check, card.login_verifier):
        raise LocalVerificationError(rejected)
    return masked_pw


def local_verify(suite: CryptoSuite, mu: MUState) -> bool:
    """Card-local check of identity and password; no network traffic."""
    try:
        _card_check(suite, mu)
    except LocalVerificationError:
        return False
    return True


def login_begin(
    suite: CryptoSuite, mu: MUState, rng: random.Random
) -> tuple[LoginRequest, UserSession]:
    """Login flight 1 (user): verify locally, then build the anonymized request."""
    card = mu.card
    masked_pw = _card_check(suite, mu)
    id_key = suite.xor160(card.masked_key, masked_pw)  # recovers h(ID || y)
    a = suite.rand_scalar(rng)
    user_eph = suite.scalar_mul(a, suite.cp.generator, precomputable=True)
    dh_point = suite.scalar_mul(a, card.home_dh_pub, precomputable=True)
    masked_id = suite.xor160(mu.user_id, suite.hash_fields([dh_point]))
    user_tag = suite.hash_fields([id_key, dh_point, card.home_id])
    msg = LoginRequest(user_eph, masked_id, card.home_dh_pub, user_tag, card.home_id)
    return msg, UserSession(a, user_eph, dh_point, id_key)


def fa_process_login(
    suite: CryptoSuite, fa: FAKeyMaterial, m1: LoginRequest, rng: random.Random
) -> tuple[ForeignChallenge, ForeignSession]:
    """Login flight 2 (foreign agent): wrap the request for the home agent and sign it."""
    b = suite.rand_scalar(rng)
    foreign_eph = suite.scalar_mul(b, suite.cp.generator, precomputable=True)
    dh_point = suite.scalar_mul(b, m1.home_dh_pub)
    sym_key = suite.kdf_point(dh_point)
    cert_bytes = fa.cert.to_bytes(suite.cp)
    enc_for_home = suite.ae_encrypt(
        sym_key,
        suite.encode([m1.user_eph, cert_bytes, m1.user_tag, m1.masked_id]),
        rng,
    )
    foreign_sig = suite.sign_over(
        fa.signer.priv, [m1.user_eph, m1.user_tag, m1.masked_id]
    )
    msg = ForeignChallenge(foreign_eph, enc_for_home, foreign_sig.to_bytes(suite.cp))
    session = ForeignSession(
        b, foreign_eph, sym_key, m1.user_eph, m1.masked_id, m1.user_tag, m1.home_id
    )
    return msg, session


def ha_process(
    suite: CryptoSuite, ha: HAKeyMaterial, m2: ForeignChallenge, rng: random.Random
) -> HomeAnswer:
    """Login flight 3 (home agent): authenticate the foreign agent (certificate
    plus signature) and the user (unmask the identity, recompute the user
    tag), then answer."""
    dh_point = suite.scalar_mul(ha.dh.priv, m2.foreign_eph)
    sym_key = suite.kdf_point(dh_point)
    try:
        plain = suite.ae_decrypt(sym_key, m2.enc_for_home)
        user_eph, cert_bytes, user_tag, masked_id = unpack(
            suite.cp, plain, ("point", "cert", "hash", "identity"), "foreign payload")
        cert = Certificate.from_bytes(suite.cp, cert_bytes)
        suite.validate_point(user_eph)
    except (AuthenticationError, EncodingError, CurveError) as exc:
        raise DecryptionFailure(f"foreign payload rejected: {exc}") from exc

    if not suite.verify_certificate(ha.ca_pub, cert):
        raise CertificateInvalid("foreign agent certificate does not verify")
    foreign_sig = Signature.from_bytes(suite.cp, m2.foreign_sig)
    if not suite.verify_over(cert.public_key, [user_eph, user_tag, masked_id], foreign_sig):
        raise SignatureInvalid("foreign agent signature does not verify")

    user_dh = suite.scalar_mul(ha.dh.priv, user_eph)
    user_id = suite.xor160(masked_id, suite.hash_fields([user_dh]))
    id_key = suite.hash_fields([user_id, ha.master_secret])
    expected_tag = suite.hash_fields([id_key, user_dh, ha.home_id])
    if not hmac.compare_digest(expected_tag, user_tag):
        raise UserAuthFailure("user tag mismatch; user not authenticated")

    foreign_id = cert.subject_id
    confirm_tag = suite.hash_fields(
        [id_key, user_eph, m2.foreign_eph, foreign_id, ha.home_id]
    )
    cert_ha_bytes = ha.cert.to_bytes(suite.cp)
    enc_for_foreign = suite.ae_encrypt(
        sym_key,
        suite.encode([foreign_id, cert_ha_bytes, user_eph, m2.foreign_eph, confirm_tag]),
        rng,
    )
    home_sig = suite.sign_over(ha.signer.priv, [cert_ha_bytes, confirm_tag])
    return HomeAnswer(enc_for_foreign, home_sig.to_bytes(suite.cp))


def fa_finish(
    suite: CryptoSuite, fa: FAKeyMaterial, session: ForeignSession, m3: HomeAnswer
) -> tuple[LoginAccept, SessionKey]:
    """Login flight 4 (foreign agent): check the home agent's answer, derive the
    session key, and
    forward the confirmation tag to the user."""
    try:
        plain = suite.ae_decrypt(session.sym_key, m3.enc_for_foreign)
        foreign_id, cert_ha_bytes, user_eph, foreign_eph, confirm_tag = unpack(
            suite.cp, plain, ("identity", "cert", "point", "point", "hash"), "home payload")
        cert_ha = Certificate.from_bytes(suite.cp, cert_ha_bytes)
    except (AuthenticationError, EncodingError) as exc:
        raise DecryptionFailure(f"home payload rejected: {exc}") from exc

    if foreign_id != fa.foreign_id or user_eph != session.user_eph or foreign_eph != session.foreign_eph:
        raise SessionMismatch("echoed session values do not match this session")
    if cert_ha.subject_id != session.home_id or not suite.verify_certificate(fa.ca_pub, cert_ha):
        raise CertificateInvalid("home agent certificate rejected")
    home_sig = Signature.from_bytes(suite.cp, m3.home_sig)
    if not suite.verify_over(cert_ha.public_key, [cert_ha_bytes, confirm_tag], home_sig):
        raise SignatureInvalid("home agent signature does not verify")

    shared = suite.scalar_mul(session.eph_priv, session.user_eph)
    session.wipe()
    key = SessionKey(suite.hash_fields([shared]))
    msg = LoginAccept(session.foreign_eph, fa.foreign_id, confirm_tag)
    return msg, key


def mu_finish(
    suite: CryptoSuite, mu: MUState, session: UserSession, m4: LoginAccept
) -> SessionKey:
    """Login completion (user): one tag check authenticates both agents, then
    derive the key."""
    expected = suite.hash_fields(
        [session.id_key, session.user_eph, m4.foreign_eph, m4.foreign_id, mu.card.home_id]
    )
    if not hmac.compare_digest(expected, m4.confirm_tag):
        raise ConfirmMismatch("confirmation tag mismatch; agents not authenticated")
    shared = suite.scalar_mul(session.eph_priv, m4.foreign_eph)
    session.wipe()
    return SessionKey(suite.hash_fields([shared]))


# ---------------------------------------------------------------------------
# session-key refresh


def key_update_init(suite: CryptoSuite, rng: random.Random) -> tuple[RefreshRequest, int]:
    a_i = suite.rand_scalar(rng)
    user_eph = suite.scalar_mul(a_i, suite.cp.generator, precomputable=True)
    return RefreshRequest(user_eph), a_i


def key_update_respond(
    suite: CryptoSuite, m: RefreshRequest, prev: SessionKey, rng: random.Random
) -> tuple[RefreshResponse, SessionKey]:
    """Responder half of a refresh round: new ECDH share plus a tag that
    proves knowledge of the previous key."""
    b_i = suite.rand_scalar(rng)
    responder_eph = suite.scalar_mul(b_i, suite.cp.generator, precomputable=True)
    shared = suite.scalar_mul(b_i, m.user_eph)
    new_key = SessionKey(suite.hash_fields([shared]), prev.epoch + 1)
    confirm = suite.hash_fields([shared, prev.value])
    return RefreshResponse(responder_eph, confirm), new_key


def key_update_confirm(
    suite: CryptoSuite, a_i: int, m: RefreshResponse, prev: SessionKey
) -> SessionKey:
    """Initiator half: accept the new key only if the tag binds the previous
    one; on mismatch the previous key stays in force."""
    shared = suite.scalar_mul(a_i, m.responder_eph)
    expected = suite.hash_fields([shared, prev.value])
    if not hmac.compare_digest(expected, m.confirm_tag):
        raise ConfirmMismatch("refresh tag mismatch; keeping previous key")
    return SessionKey(suite.hash_fields([shared]), prev.epoch + 1)


# ---------------------------------------------------------------------------
# password change (card-local)


def password_change(
    suite: CryptoSuite, mu: MUState, new_password: bytes, rng: random.Random
) -> SmartCard:
    """Re-key the card under a new password and salt without contacting the
    home agent.  Rejected outright if the old password fails locally."""
    if not new_password:
        raise ValidationError("new password must be non-empty")
    card = mu.card
    old_masked = _card_check(suite, mu, "old password rejected; card unchanged")
    new_salt = suite.rand_bytes(rng, CARD_SALT_BYTES)
    new_masked = suite.hash_fields([new_password, new_salt])
    masked_key = suite.xor160(suite.xor160(card.masked_key, old_masked), new_masked)
    login_verifier = suite.hash_fields([mu.user_id, new_masked])
    return SmartCard(masked_key, login_verifier, card.home_dh_pub, card.home_id, new_salt)


# ---------------------------------------------------------------------------
# home-network login


def home_login(
    suite: CryptoSuite, mu: MUState, rng: random.Random
) -> tuple[LoginRequest, UserSession]:
    """At-home login request; identical message shape, addressed to the HA."""
    return login_begin(suite, mu, rng)


def home_ha_respond(
    suite: CryptoSuite, ha: HAKeyMaterial, m1: LoginRequest, rng: random.Random
) -> tuple[HomeAccept, SessionKey]:
    """Home agent authenticates the user directly and answers in one flight."""
    if m1.home_id != ha.home_id:
        raise SessionMismatch("login request is addressed to another home agent")

    user_dh = suite.scalar_mul(ha.dh.priv, m1.user_eph)
    user_id = suite.xor160(m1.masked_id, suite.hash_fields([user_dh]))
    id_key = suite.hash_fields([user_id, ha.master_secret])
    expected_tag = suite.hash_fields([id_key, user_dh, ha.home_id])
    if not hmac.compare_digest(expected_tag, m1.user_tag):
        raise UserAuthFailure("user tag mismatch; user not authenticated")

    u = suite.rand_scalar(rng)
    home_eph = suite.scalar_mul(u, suite.cp.generator, precomputable=True)
    confirm_tag = suite.hash_fields(
        [id_key, m1.user_eph, m1.home_dh_pub, home_eph, ha.home_id]
    )
    shared = suite.scalar_mul(u, m1.user_eph)
    key = SessionKey(suite.hash_fields([shared]))
    return HomeAccept(home_eph, confirm_tag, ha.home_id), key


def home_mu_confirm(
    suite: CryptoSuite, mu: MUState, session: UserSession, hm2: HomeAccept
) -> SessionKey:
    if hm2.home_id != mu.card.home_id:
        raise SessionMismatch("home accept names another home agent")
    expected = suite.hash_fields(
        [session.id_key, session.user_eph, mu.card.home_dh_pub, hm2.home_eph, mu.card.home_id]
    )
    if not hmac.compare_digest(expected, hm2.confirm_tag):
        raise ConfirmMismatch("home confirmation tag mismatch")
    shared = suite.scalar_mul(session.eph_priv, hm2.home_eph)
    session.wipe()
    return SessionKey(suite.hash_fields([shared]))
