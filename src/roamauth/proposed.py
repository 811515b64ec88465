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
decoder has already checked, and whose points it has checked are finite
group elements; sealed payloads and certificates are decoded the same way.
"""

from __future__ import annotations

import hmac
import random

from .curve import CurveError, Point
from .encoding import EncodingError
from .record import Record
from .suite import (
    DIGEST_BYTES,
    AuthenticationError,
    Certificate,
    CryptoSuite,
    KeyPair,
    Signature,
)
from .wire import Message, unpack

CARD_SALT_BYTES = 16  # 128-bit card salt


class SchemeError(Exception):
    """Base class for protocol aborts; the session sends nothing after one."""


class ValidationError(SchemeError):
    """An argument check failed: identity width, empty password or card salt
    width.  Received frames are checked before a step runs: `wire.unpack`
    checks field widths and that each point is a finite group element."""


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


class HAKeyMaterial(Record, frozen=True):
    """Home-agent long-term state: identity, hashing master secret, static
    ECDH pair (the card carries its public half), and a certified signing
    key.  Deliberately contains no per-user storage."""

    home_id: bytes
    master_secret: bytes
    dh: KeyPair
    signer: KeyPair
    cert: Certificate
    ca_pub: Point


class FAKeyMaterial(Record, frozen=True):
    foreign_id: bytes
    signer: KeyPair
    cert: Certificate
    ca_pub: Point


class SmartCard(Record, frozen=True):
    """Issued credential record {Q, H, C, ID_HA} plus the user-added salt."""

    masked_key: bytes        # Q = h(ID || y) xor h(PW || salt)
    login_verifier: bytes    # H = h(ID || h(PW || salt))
    home_dh_pub: Point       # C = c * P
    home_id: bytes
    card_salt: bytes | None = None


class MUState(Record, frozen=True):
    user_id: bytes
    password: bytes
    card: SmartCard | None  # None until the user registers


class UserSession(Record):
    """Mobile-user ephemerals for one login; the finishing step wipes them."""

    eph_priv: int | None
    user_eph: Point
    id_key: bytes          # h(ID || y), recovered from the card

    def wipe(self) -> None:
        self.eph_priv = None


class ForeignSession(Record):
    """Foreign-agent ephemerals for one login; `fa_finish` wipes them."""

    eph_priv: int | None
    foreign_eph: Point
    sym_key: bytes         # derived from b * C, shared with the home agent
    user_eph: Point
    home_id: bytes

    def wipe(self) -> None:
        self.eph_priv = None


class SessionKey(Record, frozen=True):
    value: bytes
    epoch: int = 0


# ---------------------------------------------------------------------------
# messages


class RegRequest(Message, kind_id=1, kind="reg-request"):
    user_id: bytes = "identity"
    masked_pw: bytes = "hash"  # h(PW || salt)


class CardIssue(Message, kind_id=2, kind="card-issue"):
    masked_key: bytes = "hash"
    login_verifier: bytes = "hash"
    home_dh_pub: Point = "point"
    home_id: bytes = "identity"


class LoginRequest(Message, kind_id=3, kind="login-request"):
    """First flight {A, DID, C, V1, ID_HA}; carries no plaintext identity."""

    user_eph: Point = "point"       # A = a * P
    masked_id: bytes = "identity"   # DID = ID xor h(a * C)
    home_dh_pub: Point = "point"    # C, so FA can run ECDH toward HA
    user_tag: bytes = "hash"        # V1 = h(N || aC || ID_HA)
    home_id: bytes = "identity"


class ForeignChallenge(Message, kind_id=4, kind="foreign-challenge"):
    """FA -> HA flight {B, W2, V2}."""

    foreign_eph: Point = "point"    # B = b * P
    enc_for_home: bytes = "sym"     # E_{k(bC)}[A, Cert_FA, V1, DID]
    foreign_sig: bytes = "sig"      # signature over h(A, V1, DID)


class HomeAnswer(Message, kind_id=5, kind="home-answer"):
    """HA -> FA flight {W3, V3}."""

    enc_for_foreign: bytes = "sym"  # E_{k(cB)}[ID_FA, Cert_HA, A, B, W1]
    home_sig: bytes = "sig"         # signature over h(Cert_HA, W1)


class LoginAccept(Message, kind_id=6, kind="login-accept"):
    """Final flight FA -> MU {B, ID_FA, W1}."""

    foreign_eph: Point = "point"
    foreign_id: bytes = "identity"
    confirm_tag: bytes = "hash"     # W1 = h(N || A || B || ID_FA || ID_HA)


class HomeAccept(Message, kind_id=7, kind="home-accept"):
    """HA -> MU flight {U, W1, ID_HA} for the at-home flow."""

    home_eph: Point = "point"       # U = u * P
    confirm_tag: bytes = "hash"     # W1 = h(N || A || C || U || ID_HA)
    home_id: bytes = "identity"


class RefreshRequest(Message, kind_id=8, kind="refresh-request"):
    user_eph: Point = "point"


class RefreshResponse(Message, kind_id=9, kind="refresh-response"):
    responder_eph: Point = "point"
    confirm_tag: bytes = "hash"     # h(shared point || previous key)


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
    return card.replace(card_salt=card_salt)


# ---------------------------------------------------------------------------
# foreign-network login


def _card_check(suite: CryptoSuite, mu: MUState,
                rejected: str = "identity/password check failed") -> bytes:
    """Card-local check of identity and password; returns h(PW || salt) or
    raises LocalVerificationError(rejected), or raises it at once for a
    missing or unsalted card.  No network traffic."""
    card = mu.card
    if card is None or card.card_salt is None:
        raise LocalVerificationError("no card, or the card has no salt installed")
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


def mask_identity(suite: CryptoSuite, identity: bytes, dh_point: Point) -> bytes:
    """DID = ID xor h(a * C); the same call on DID with c * A unmasks ID."""
    return suite.xor160(identity, suite.hash_fields([dh_point]))


def login_key(suite: CryptoSuite, priv: int, pub: Point) -> SessionKey:
    """The login session key h(x * Y), from either end's ephemeral scalar."""
    return SessionKey(suite.hash_fields([suite.scalar_mul(priv, pub)]))


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
    masked_id = mask_identity(suite, mu.user_id, dh_point)
    user_tag = suite.hash_fields([id_key, dh_point, card.home_id])
    msg = LoginRequest(user_eph, masked_id, card.home_dh_pub, user_tag, card.home_id)
    return msg, UserSession(a, user_eph, id_key)


def foreign_wrap(suite: CryptoSuite, cert_bytes: bytes, m1: LoginRequest,
                 rng: random.Random) -> tuple[bytes, ForeignSession]:
    """The foreign agent's wrap E_{k(bC)}[A, Cert_FA, V1, DID] for the home
    agent, and the foreign session it opens.  Needs no secret of the agent."""
    b = suite.rand_scalar(rng)
    foreign_eph = suite.scalar_mul(b, suite.cp.generator, precomputable=True)
    sym_key = suite.kdf_point(suite.scalar_mul(b, m1.home_dh_pub))
    payload = suite.encode([m1.user_eph, cert_bytes, m1.user_tag, m1.masked_id])
    return suite.ae_encrypt(sym_key, payload, rng), ForeignSession(
        b, foreign_eph, sym_key, m1.user_eph, m1.home_id)


def fa_process_login(
    suite: CryptoSuite, fa: FAKeyMaterial, m1: LoginRequest, rng: random.Random
) -> tuple[ForeignChallenge, ForeignSession]:
    """Login flight 2 (foreign agent): wrap the request for the home agent and sign it."""
    enc_for_home, session = foreign_wrap(suite, fa.cert.to_bytes(suite.cp), m1, rng)
    foreign_sig = suite.sign_over(
        fa.signer.priv, [m1.user_eph, m1.user_tag, m1.masked_id]
    )
    msg = ForeignChallenge(session.foreign_eph, enc_for_home, foreign_sig.to_bytes(suite.cp))
    return msg, session


def _authenticate_user(suite: CryptoSuite, ha: HAKeyMaterial, user_eph: Point,
                       masked_id: bytes, user_tag: bytes) -> bytes:
    """Home agent's user check: unmask the identity with c * A, derive
    h(ID || y) and compare the user tag.  Returns h(ID || y)."""
    user_dh = suite.scalar_mul(ha.dh.priv, user_eph)
    user_id = mask_identity(suite, masked_id, user_dh)
    id_key = suite.hash_fields([user_id, ha.master_secret])
    expected_tag = suite.hash_fields([id_key, user_dh, ha.home_id])
    if not hmac.compare_digest(expected_tag, user_tag):
        raise UserAuthFailure("user tag mismatch; user not authenticated")
    return id_key


def open_wrap(
    suite: CryptoSuite, dh_priv: int, m2: ForeignChallenge
) -> tuple[bytes, Point, Certificate, bytes, bytes]:
    """The home agent's opening of the wrap: k(c * B), then decrypt and parse
    [A, Cert_FA, V1, DID].  Returns the key and the four fields."""
    sym_key = suite.kdf_point(suite.scalar_mul(dh_priv, m2.foreign_eph))
    try:
        plain = suite.ae_decrypt(sym_key, m2.enc_for_home)
        user_eph, cert_bytes, user_tag, masked_id = unpack(
            suite.cp, plain, ("point", "cert", "hash", "identity"), "foreign payload")
        cert = Certificate.from_bytes(suite.cp, cert_bytes)
        suite.validate_point(user_eph)
    except (AuthenticationError, EncodingError, CurveError) as exc:
        raise DecryptionFailure(f"foreign payload rejected: {exc}") from exc
    return sym_key, user_eph, cert, user_tag, masked_id


def home_answer(suite: CryptoSuite, sym_key: bytes, signer_priv: int, cert_ha_bytes: bytes,
                foreign_id: bytes, user_eph: Point, foreign_eph: Point, confirm_tag: bytes,
                rng: random.Random) -> HomeAnswer:
    """The home agent's answer: E_{k(cB)}[ID_FA, Cert_HA, A, B, W1] and a
    signature over [Cert_HA, W1]."""
    payload = suite.encode([foreign_id, cert_ha_bytes, user_eph, foreign_eph, confirm_tag])
    home_sig = suite.sign_over(signer_priv, [cert_ha_bytes, confirm_tag])
    return HomeAnswer(suite.ae_encrypt(sym_key, payload, rng), home_sig.to_bytes(suite.cp))


def ha_process(
    suite: CryptoSuite, ha: HAKeyMaterial, m2: ForeignChallenge, rng: random.Random
) -> HomeAnswer:
    """Login flight 3 (home agent): authenticate the foreign agent (certificate
    plus signature) and the user (unmask the identity, recompute the user
    tag), then answer."""
    sym_key, user_eph, cert, user_tag, masked_id = open_wrap(suite, ha.dh.priv, m2)
    if not suite.verify_certificate(ha.ca_pub, cert):
        raise CertificateInvalid("foreign agent certificate does not verify")
    foreign_sig = Signature.from_bytes(suite.cp, m2.foreign_sig)
    if not suite.verify_over(cert.public_key, [user_eph, user_tag, masked_id], foreign_sig):
        raise SignatureInvalid("foreign agent signature does not verify")

    id_key = _authenticate_user(suite, ha, user_eph, masked_id, user_tag)
    foreign_id = cert.subject_id
    confirm_tag = suite.hash_fields(
        [id_key, user_eph, m2.foreign_eph, foreign_id, ha.home_id]
    )
    return home_answer(suite, sym_key, ha.signer.priv, ha.cert.to_bytes(suite.cp),
                       foreign_id, user_eph, m2.foreign_eph, confirm_tag, rng)


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

    key = login_key(suite, session.eph_priv, session.user_eph)
    session.wipe()
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
    key = login_key(suite, session.eph_priv, m4.foreign_eph)
    session.wipe()
    return key


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

    id_key = _authenticate_user(suite, ha, m1.user_eph, m1.masked_id, m1.user_tag)
    u = suite.rand_scalar(rng)
    home_eph = suite.scalar_mul(u, suite.cp.generator, precomputable=True)
    confirm_tag = suite.hash_fields(
        [id_key, m1.user_eph, m1.home_dh_pub, home_eph, ha.home_id]
    )
    return HomeAccept(home_eph, confirm_tag, ha.home_id), login_key(suite, u, m1.user_eph)


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
    key = login_key(suite, session.eph_priv, hm2.home_eph)
    session.wipe()
    return key
