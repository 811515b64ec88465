"""Executable adversary strategies against both schemes.

Each strategy plays the same game against either scheme through a scheme
adapter: gather what an open-channel attacker could (plus any explicitly
granted capability such as a stolen card, insider registration knowledge,
long-term secrets, or a small-group discrete-log solver), try to reach the
attack goal, and return a machine-checkable outcome.  An outcome counts as
a success only with sound evidence - for key-establishment goals that means
the adversary's key is byte-equal to the key an honest party actually
derived in the same run.

Honest parties run in `harness.run_session`, and the adversary plays roles
in it (`play=`): a played party's steps are the strategy's moves, and its
frames cross the same bus as honest ones, so they are decoded, validated and
recorded.  The few honest steps no session can drive run under the harness
honest-step marker.  Either way a confinement audit can verify the adversary
code itself never touches party secrets beyond the granted view.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, get_type_hints

from . import curve as ec
from . import mun as mun_mod
from . import proposed as prop
from . import wire
from .curve import Point, brute_force_dlog
from .harness import (
    FA,
    HA,
    MU,
    MunWorld,
    ProposedWorld,
    Transcript,
    build_mun_world,
    build_proposed_world,
    honest_step,
    run_session,
    strict_record,
)
from .suite import CryptoSuite, identity_from_label


@dataclass
class AttackOutcome:
    """Verdict of one strategy against one scheme."""

    attack: str
    scheme: str
    succeeded: bool
    evidence: dict
    detail: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AttackOutcome":
        """Parse `to_json` output; any other record raises `HarnessError`."""
        return cls(**strict_record(text, get_type_hints(cls), "attack outcome"))


@dataclass
class AdversaryView:
    """Capabilities granted to the adversary.

    `transcripts` and `public_material` model the open channel (certificates
    and identities are public-key infrastructure, not secrets).  Everything
    else is an explicit grant; absent a grant the view holds no password,
    private scalar, or card content.
    """

    transcripts: list[Transcript] = field(default_factory=list)
    public_material: dict = field(default_factory=dict)
    stolen_card: prop.SmartCard | None = None
    insider_registration: dict | None = None
    long_term_secrets: dict | None = None
    cdl_oracle: Callable[[Point], int | None] | None = None


@dataclass
class AttackRun:
    """Raw result of one adversarial execution, before judging."""

    adversary_key: bytes | None
    honest_key: bytes | None
    completed: bool
    detail: str
    extra: dict = field(default_factory=dict)


def _judge_key_evidence(name: str, scheme: str, run: AttackRun) -> AttackOutcome:
    succeeded = (
        run.adversary_key is not None
        and run.honest_key is not None
        and run.adversary_key == run.honest_key
    )
    evidence = {
        "adversary_key": run.adversary_key.hex() if run.adversary_key else None,
        "honest_party_key": run.honest_key.hex() if run.honest_key else None,
        "handshake_completed": run.completed,
    }
    evidence.update(run.extra)
    return AttackOutcome(name, scheme, succeeded, evidence, run.detail)


@dataclass
class PasswordVerifier:
    """Offline predicate an attacker can evaluate per password candidate.

    `check` returns True/False when the transcript admits a verifier, or
    None when the candidate can be neither confirmed nor refuted; `missing`
    names the unknowns that block confirmation in the latter case.
    """

    check: Callable[[bytes], bool | None]
    missing: tuple[str, ...] = ()


def _played(adapter, rng: random.Random, roles: dict, detail: str,
            extra: dict | None = None) -> AttackRun:
    """One foreign-auth session in the adapter's world with `roles` played by
    the adversary.  The adversary's key is the played MU's, or else the
    played FA's; the other end's key is the honest party's, unless that end
    is played too."""
    out = run_session(adapter.suite, adapter.name, "foreign-auth", rng,
                      world=adapter.world, play=roles).outcome
    if "abort" in out:
        return AttackRun(None, None, False, f"{out['party']} aborted the session: {out['abort']}",
                         {"error": out["error"]})
    key = {p: bytes.fromhex(out[k]) if out[k] else None for p, k in ((MU, "mu_key"), (FA, "fa_key"))}
    mine, peer = (MU, FA) if MU in roles else (FA, MU)
    return AttackRun(key[mine], None if peer in roles else key[peer], True, detail, extra or {})


def _find_raw(view: AdversaryView, kind: str) -> bytes | None:
    for t in view.transcripts:
        for e in t.entries:
            if e.kind == kind and not e.secure:
                return e.payload
    return None


# ---------------------------------------------------------------------------
# scheme adapters


class ProposedAdapter:
    name = "proposed"
    login_kind = prop.LoginRequest.KIND

    def __init__(self, suite: CryptoSuite, rng: random.Random,
                 world: ProposedWorld | None = None):
        self.suite = suite
        self.world = world or build_proposed_world(suite, rng)
        self._other_mu: prop.MUState | None = None

    # -- capability grants ----------------------------------------------------

    def public_material(self) -> dict:
        cp = self.suite.cp
        return {
            "fa_cert": self.world.fa.cert.to_bytes(cp),
            "ha_cert": self.world.ha.cert.to_bytes(cp),
            "home_id": self.world.ha.home_id,
            "foreign_id": self.world.fa.foreign_id,
        }

    def steal_card(self) -> prop.SmartCard:
        return self.world.mu.card

    def insider_knowledge(self) -> dict:
        """What a registration-desk insider sees: the inbound request only
        (the password arrives pre-hashed with a salt that never transits)."""
        return {
            "user_id": self.world.mu.user_id,
            "masked_pw": self.suite.hash_fields(
                [self.world.mu.password, self.world.mu.card.card_salt]
            ),
        }

    def long_term_secrets(self) -> dict:
        w = self.world
        return {
            "password": w.mu.password,
            "card_salt": w.mu.card.card_salt,
            "master_secret": w.ha.master_secret,
            "home_dh_priv": w.ha.dh.priv,
            "fa_sign_priv": w.fa.signer.priv,
            "ha_sign_priv": w.ha.signer.priv,
        }

    def true_password(self) -> bytes:
        return self.world.mu.password

    # -- linkability ------------------------------------------------------------

    def first_flight(self, rng: random.Random, user: str = "primary") -> bytes:
        mu = self._user(rng, user)
        with honest_step():
            m1, sess = prop.login_begin(self.suite, mu, rng)
        sess.wipe()
        return wire.serialize(self.suite.cp, m1)

    def link_projection(self, raw: bytes) -> tuple:
        m1 = wire.deserialize(self.suite.cp, raw)
        cp = self.suite.cp
        return (ec.point_to_bytes(cp, m1.user_eph), m1.masked_id, m1.user_tag)

    def _user(self, rng: random.Random, user: str) -> prop.MUState:
        if user == "primary":
            return self.world.mu
        if self._other_mu is None:
            uid = identity_from_label("mu-other")
            password = b"other-password"
            req, salt = prop.register_request(self.suite, uid, password, rng)
            with honest_step():
                card = prop.register_issue(self.suite, self.world.ha, req)
            self._other_mu = prop.MUState(uid, password, prop.card_finalize(card, salt))
        return self._other_mu

    # -- impersonation ------------------------------------------------------------

    def impersonate_user(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        """Play the user with a replayed login request.  The agents serve it,
        but the session key needs the original login ephemeral, which only a
        discrete-log oracle recovers."""
        raw = _find_raw(view, self.login_kind)
        if raw is None:
            return AttackRun(None, None, False, "view holds no prior login request")
        suite, cp = self.suite, self.suite.cp
        m1 = wire.deserialize(cp, raw)
        extra: dict = {}

        def user(fn, args):
            if fn is prop.login_begin:
                return m1, None
            m4 = args[3]
            extra["login_accept"] = wire.serialize(cp, m4).hex()
            a = view.cdl_oracle(m1.user_eph) if view.cdl_oracle is not None else None
            if a is None:
                return None
            extra["recovered_ephemeral"] = a
            return prop.SessionKey(suite.hash_fields([ec.scalar_mul(cp, a, m4.foreign_eph)]))

        run = _played(self, rng, {MU: user}, (
            "agents accepted the replayed request and issued a login accept; "
            "the session key requires the original login ephemeral"), extra)
        if run.adversary_key is not None:
            run.detail = ("small-group discrete log recovered the login ephemeral; "
                          "session key derived from the replayed request")
        return run

    def impersonate_foreign(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        """Play the foreign agent toward a fresh victim login.  The wrap for
        the home agent can be built (the ECDH half is unauthenticated) but the
        signature over the request cannot: one challenge carries random
        signature bytes, and a second, played against a replay of the same
        login, a signature spliced from a captured challenge."""
        suite = self.suite
        cp = suite.cp
        fa_cert = view.public_material.get("fa_cert")
        if fa_cert is None:
            return AttackRun(None, None, False, "no public certificate material in view")
        signatures = {"random-signature": lambda: rng.randbytes(2 * cp.scalar_bytes)}
        spliced = _find_raw(view, prop.ForeignChallenge.KIND)
        if spliced is not None:
            signatures["spliced-signature"] = lambda: wire.deserialize(cp, spliced).foreign_sig
        wrap: list = []  # the victim's login, the sealed payload, the foreign session

        def foreign(fn, args):
            if fn is not prop.fa_process_login:
                return fn(*args)  # finishing takes no secret of the foreign agent
            if not wrap:
                m1 = args[2]
                b = suite.rand_scalar(rng)
                sym_key = suite.kdf_point(ec.scalar_mul(cp, b, m1.home_dh_pub))
                payload = suite.encode([m1.user_eph, fa_cert, m1.user_tag, m1.masked_id])
                wrap[:] = m1, suite.ae_encrypt(sym_key, payload, rng), prop.ForeignSession(
                    b, ec.scalar_mul(cp, b, cp.generator), sym_key, m1.user_eph,
                    m1.masked_id, m1.user_tag, m1.home_id)
            _m1, enc_for_home, fa_sess = wrap
            return prop.ForeignChallenge(fa_sess.foreign_eph, enc_for_home, signature()), fa_sess

        def replayed_user(fn, args):
            return (wrap[0], None) if fn is prop.login_begin else None

        rejections = []
        for label, signature in signatures.items():
            roles = {MU: replayed_user, FA: foreign} if wrap else {FA: foreign}
            run = _played(self, rng, roles, f"home agent accepted variant {label}")
            if run.completed:
                return run
            rejections.append(f"{label}: {run.extra['error']}")
        return AttackRun(
            None, None, False,
            "home agent rejected every forged challenge (" + "; ".join(rejections) + ")",
        )

    def impersonate_home(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        """Colluding pair: a rogue client substitutes an ECDH key its partner
        knows, so the partner can read the foreign agent's wrap - but the
        answer needs the home agent's certified signing key."""
        suite = self.suite
        cp = suite.cp
        home_id = view.public_material.get("home_id", identity_from_label("ha.example"))

        c_fake = suite.rand_scalar(rng)
        a_fake = suite.rand_scalar(rng)
        rogue_m1 = prop.LoginRequest(
            user_eph=ec.scalar_mul(cp, a_fake, cp.generator),
            masked_id=rng.randbytes(20),
            home_dh_pub=ec.scalar_mul(cp, c_fake, cp.generator),
            user_tag=rng.randbytes(20),
            home_id=home_id,
        )
        with honest_step():
            m2, fa_sess = prop.fa_process_login(suite, self.world.fa, rogue_m1, rng)

        # The fake home agent intercepts and can actually decrypt the wrap.
        sym_key = suite.kdf_point(ec.scalar_mul(cp, c_fake, m2.foreign_eph))
        try:
            plain = suite.ae_decrypt(sym_key, m2.enc_for_home)
        except Exception:  # pragma: no cover - decryption works by construction
            plain = None
        confirm_tag = rng.randbytes(20)

        rejections = []
        for label, cert_bytes, signer_priv in self._home_forgery_variants(view, rng):
            enc_for_foreign = suite.ae_encrypt(
                sym_key,
                suite.encode([
                    self.world.fa.foreign_id, cert_bytes,
                    rogue_m1.user_eph, m2.foreign_eph, confirm_tag,
                ]),
                rng,
            )
            sig = suite.sign_over(signer_priv, [cert_bytes, confirm_tag])
            m3 = prop.HomeAnswer(enc_for_foreign, sig.to_bytes(cp))
            try:
                with honest_step():
                    _, fa_key = prop.fa_finish(suite, self.world.fa, fa_sess, m3)
            except prop.SchemeError as exc:
                rejections.append(f"{label}: {type(exc).__name__}")
                continue
            # the rogue client derives the key as fa_finish does, from its own half
            rogue_key = suite.hash_fields([ec.scalar_mul(cp, a_fake, m2.foreign_eph)])
            return AttackRun(rogue_key, fa_key.value, True,
                             f"foreign agent accepted variant {label} and shares the "
                             "rogue client's session key")
        return AttackRun(
            None, None, False,
            "foreign agent rejected every forged answer ("
            + "; ".join(rejections)
            + "); decrypting the wrap did not help",
            extra={"wrap_decrypted": plain is not None},
        )

    def _home_forgery_variants(self, view: AdversaryView, rng: random.Random):
        suite = self.suite
        fake_signer = suite.keygen(rng)
        fake_cert = prop.Certificate(
            view.public_material.get("home_id", identity_from_label("ha.example")),
            fake_signer.pub,
            suite._sign_digest(fake_signer.priv, rng.randbytes(20)),
        )
        yield "self-signed-certificate", fake_cert.to_bytes(suite.cp), fake_signer.priv
        real_cert = view.public_material.get("ha_cert")
        if real_cert is not None:
            yield "real-certificate-forged-signature", real_cert, fake_signer.priv

    # -- password attacks -----------------------------------------------------

    def password_verifier(self, view: AdversaryView) -> PasswordVerifier:
        """No offline predicate exists: the card equations need the user
        identity, and the login tag needs the ephemeral ECDH point."""
        missing = ("user_id", "login_ephemeral_dh_point")

        def check(candidate: bytes) -> None:
            # With a stolen card the attacker can compute h(PW' || salt) but
            # has nothing to compare it against; candidates stay open.
            return None

        return PasswordVerifier(check, missing)

    def insider_attack(self, view: AdversaryView, dictionary: list[bytes],
                       rng: random.Random) -> AttackRun:
        reg = view.insider_registration or {}
        masked = reg.get("masked_pw")
        if masked is None:
            return AttackRun(None, None, False, "no registration knowledge granted")
        # The only password-bearing value is h(PW || salt); without the salt
        # no dictionary candidate can be confirmed, and without the card the
        # insider cannot even begin a login.
        return AttackRun(
            None, None, False,
            "registration request carries only a salted password hash; "
            f"0 of {len(dictionary)} dictionary candidates confirmable "
            "(salt never transits), and no card is held to attempt a login",
            extra={"confirmable_candidates": 0,
                   "dictionary_size": len(dictionary)},
        )

    # -- replay / forward secrecy ----------------------------------------------

    def replay_session(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        return self.impersonate_user(view, rng)

    def forward_secrecy_break(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        """Given every long-term secret and a full past transcript, try to
        reconstruct that session's key."""
        secrets = view.long_term_secrets or {}
        raw_m1 = _find_raw(view, self.login_kind)
        raw_m4 = _find_raw(view, prop.LoginAccept.KIND)
        if raw_m1 is None or raw_m4 is None or "master_secret" not in secrets:
            return AttackRun(None, None, False, "need a full transcript and the long-term secrets")
        cp = self.suite.cp
        m1 = wire.deserialize(cp, raw_m1)
        m4 = wire.deserialize(cp, raw_m4)
        # Long-term material unmasked everything identity-related, but the
        # session key is a hash of a*B and both ephemerals are gone.
        c = secrets["home_dh_priv"]
        user_dh = ec.scalar_mul(cp, c, m1.user_eph)
        user_id = self.suite.xor160(m1.masked_id, self.suite.hash_fields([user_dh]))
        extra = {"recovered_user_id": user_id.hex()}
        honest = view.public_material.get("session_key")
        if view.cdl_oracle is not None:
            a = view.cdl_oracle(m1.user_eph)
            if a is not None:
                shared = ec.scalar_mul(cp, a, m4.foreign_eph)
                return AttackRun(
                    self.suite.hash_fields([shared]), honest, True,
                    "discrete-log oracle recovered the ephemeral; past key reconstructed",
                    extra=extra,
                )
        return AttackRun(
            None, honest, True,
            "identity recovered from long-term secrets, but the past session key "
            "needs an ephemeral scalar (discrete-log hard at this size)",
            extra=extra,
        )


_FA_FOOLED = "foreign agent authenticated the adversary and shares its session key"


class MunAdapter:
    name = "mun"
    login_kind = mun_mod.MunLogin.KIND

    def __init__(self, suite: CryptoSuite, rng: random.Random,
                 world: MunWorld | None = None):
        self.suite = suite
        self.world = world or build_mun_world(suite, rng)
        self._other_cred: mun_mod.MunCredentials | None = None

    # -- capability grants ----------------------------------------------------

    def public_material(self) -> dict:
        return {
            "home_id": self.world.ha.home_id,
            "foreign_id": self.world.fa.foreign_id,
        }

    def steal_card(self) -> None:
        return None  # no card in this scheme

    def insider_knowledge(self) -> dict:
        """A home-agent insider handled the whole registration: it generated
        the password itself."""
        cred = self.world.cred
        return {
            "user_id": cred.user_id,
            "password_digest": cred.password_digest,
            "home_nonce": cred.home_nonce,
            "user_alias": cred.user_alias,
            "home_id": cred.home_id,
        }

    def long_term_secrets(self) -> dict:
        cred = self.world.cred
        return {
            "password_digest": cred.password_digest,
            "user_alias": cred.user_alias,
            "home_nonce": cred.home_nonce,
        }

    def true_password(self) -> bytes:
        return self.world.cred.password_digest

    # -- linkability ------------------------------------------------------------

    def first_flight(self, rng: random.Random, user: str = "primary") -> bytes:
        cred = self._user(rng, user)
        with honest_step():
            m1 = mun_mod.mun_login(cred)
        return wire.serialize(self.suite.cp, m1)

    def link_projection(self, raw: bytes) -> tuple:
        m1 = wire.deserialize(self.suite.cp, raw)
        return (m1.home_nonce, m1.user_alias)

    def _user(self, rng: random.Random, user: str) -> mun_mod.MunCredentials:
        if user == "primary":
            return self.world.cred
        if self._other_cred is None:
            nonce = self.suite.rand_bytes(rng, mun_mod.NONCE_BYTES)
            with honest_step():
                self._other_cred = mun_mod.mun_register(
                    self.suite, self.world.ha, identity_from_label("mu-other"), nonce, rng
                )
        return self._other_cred

    # -- impersonation ------------------------------------------------------------

    def _user_role(self, m1: mun_mod.MunLogin, rng: random.Random):
        """The user role played from wire knowledge alone: send `m1`, then
        finish: the reply bundle exposes the foreign nonce, and the key is a
        hash of an ECDH value the adversary picks half of."""
        suite = self.suite
        cp = suite.cp

        def user(fn, args):
            if fn is mun_mod.mun_login:
                return m1
            m4 = args[2]
            b = suite.rand_scalar(rng)
            client_eph = ec.scalar_mul(cp, b, cp.generator)
            shared = ec.scalar_mul(cp, b, m4.foreign_eph)
            key = prop.SessionKey(suite.hash_fields([shared]))
            mac = suite.mac160(key.value, suite.encode([m4.bundle_foreign_nonce, client_eph]))
            return mun_mod.MunClientFinish(client_eph, mac), mun_mod.MunChannel(key, shared)

        return user

    def impersonate_user(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        raw = _find_raw(view, self.login_kind)
        if raw is None:
            return AttackRun(None, None, False, "view holds no prior login message")
        suite = self.suite
        old = wire.deserialize(suite.cp, raw)
        forged = mun_mod.MunLogin(
            old.home_id, suite.rand_bytes(rng, mun_mod.NONCE_BYTES), old.user_alias
        )
        return _played(self, rng, {MU: self._user_role(forged, rng)}, _FA_FOOLED,
                       {"forged_home_nonce": forged.home_nonce.hex()})

    def impersonate_foreign(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        """Play the foreign agent toward the user's login: the home agent
        demands nothing from it, and its reply gives the adversary everything
        the real agent would have had."""
        suite = self.suite
        cp = suite.cp
        foreign_id = view.public_material.get("foreign_id", self.world.fa.foreign_id)

        def foreign(fn, args):
            if fn is mun_mod.mun_fa_forward:
                m1 = args[2]
                foreign_nonce = suite.rand_bytes(rng, mun_mod.NONCE_BYTES)
                return (mun_mod.MunForward(foreign_id, foreign_nonce, m1.user_alias),
                        (foreign_nonce, m1.home_nonce))
            if fn is mun_mod.mun_fa_respond:
                m3, (foreign_nonce, home_nonce) = args[2], args[3]
                foreign_tag = suite.hash_fields([m3.home_tag, foreign_nonce, home_nonce])
                a = suite.rand_scalar(rng)
                return mun_mod.MunForeignReply(foreign_tag, ec.scalar_mul(cp, a, cp.generator),
                                               m3.home_tag, foreign_id, foreign_nonce), a
            m5, a = args[1], args[2]
            shared = ec.scalar_mul(cp, a, m5.client_eph)
            return mun_mod.MunChannel(prop.SessionKey(suite.hash_fields([shared])), shared)

        return _played(self, rng, {FA: foreign},
                       "victim authenticated the fake foreign agent and shares its session key")

    def impersonate_home(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        """Colluding pair: a rogue client with made-up credentials and a fake
        home agent that answers the forward with a fabricated tag pair the
        foreign agent's tautological check cannot catch.

        Not applicable here: a variant where the foreign agent verified an
        actual home-agent signature - this scheme gives it no signature to
        verify, which is precisely why the fabrication lands."""
        suite = self.suite
        home_id = view.public_material.get("home_id", self.world.ha.home_id)
        rogue_nonce = suite.rand_bytes(rng, mun_mod.NONCE_BYTES)
        rogue = mun_mod.MunLogin(home_id, rogue_nonce, rng.randbytes(20))

        def home(fn, args):
            # the fake home agent fabricates the reply to the forward
            m2 = args[2]
            p_fake = rng.randbytes(20)
            s_fake = suite.xor160(
                suite.xor160(
                    suite.hash_fields([m2.foreign_id, m2.foreign_nonce]), m2.user_alias
                ),
                p_fake,
            )
            return mun_mod.MunHomeReply(s_fake, p_fake)

        return _played(self, rng, {MU: self._user_role(rogue, rng), HA: home},
                       "foreign agent accepted a fabricated home-agent reply; " + _FA_FOOLED)

    # -- password attacks -----------------------------------------------------

    def password_verifier(self, view: AdversaryView) -> PasswordVerifier:
        """The home reply leaks a clean offline predicate:
        h(ID_FA || N_FA) xor r_MU xor h(PW' || N_FA) == S_HA."""
        suite = self.suite
        raw_m1 = _find_raw(view, self.login_kind)
        raw_m2 = _find_raw(view, mun_mod.MunForward.KIND)
        raw_m3 = _find_raw(view, mun_mod.MunHomeReply.KIND)
        if raw_m1 is None or raw_m2 is None or raw_m3 is None:
            return PasswordVerifier(lambda cand: None, ("full transcript",))
        m1 = wire.deserialize(suite.cp, raw_m1)
        m2 = wire.deserialize(suite.cp, raw_m2)
        m3 = wire.deserialize(suite.cp, raw_m3)
        base = suite.xor160(suite.hash_fields([m2.foreign_id, m2.foreign_nonce]),
                            m1.user_alias)

        def check(candidate: bytes) -> bool:
            guess = suite.xor160(base, suite.hash_fields([candidate, m2.foreign_nonce]))
            return guess == m3.home_tag

        return PasswordVerifier(check)

    def insider_attack(self, view: AdversaryView, dictionary: list[bytes],
                       rng: random.Random) -> AttackRun:
        reg = view.insider_registration or {}
        if "password_digest" not in reg:
            return AttackRun(None, None, False, "no registration knowledge granted")
        cred = mun_mod.MunCredentials(
            reg["user_id"], reg["user_alias"], reg["password_digest"],
            reg["home_nonce"], reg["home_id"],
        )

        def user(fn, args):
            # full credentials in hand: the user's own steps, run with them
            return fn(*(cred if arg is self.world.cred else arg for arg in args))

        return _played(self, rng, {MU: user},
                       "insider read the password at registration and completed a full login",
                       {"recovered_password": reg["password_digest"].hex()})

    # -- replay / forward secrecy ----------------------------------------------

    def replay_session(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        raw = _find_raw(view, self.login_kind)
        if raw is None:
            return AttackRun(None, None, False, "view holds no prior login message")
        m1 = wire.deserialize(self.suite.cp, raw)  # replayed verbatim
        return _played(self, rng, {MU: self._user_role(m1, rng)},
                       "verbatim replay accepted; " + _FA_FOOLED)

    def forward_secrecy_break(self, view: AdversaryView, rng: random.Random) -> AttackRun:
        raw_m4 = _find_raw(view, mun_mod.MunForeignReply.KIND)
        raw_m5 = _find_raw(view, mun_mod.MunClientFinish.KIND)
        if raw_m4 is None or raw_m5 is None or view.long_term_secrets is None:
            return AttackRun(None, None, False, "need a full transcript and the long-term secrets")
        cp = self.suite.cp
        m4 = wire.deserialize(cp, raw_m4)
        m5 = wire.deserialize(cp, raw_m5)
        honest = view.public_material.get("session_key")
        if view.cdl_oracle is not None:
            a = view.cdl_oracle(m4.foreign_eph)
            if a is not None:
                shared = ec.scalar_mul(cp, a, m5.client_eph)
                return AttackRun(
                    self.suite.hash_fields([shared]), honest, True,
                    "discrete-log oracle recovered the ephemeral; past key reconstructed",
                )
        return AttackRun(
            None, honest, True,
            "the password and alias do not help: the past key needs an "
            "ephemeral scalar (discrete-log hard at this size)",
        )


def make_adapter(scheme: str, suite: CryptoSuite, rng: random.Random, world=None):
    if scheme == "proposed":
        return ProposedAdapter(suite, rng, world)
    if scheme == "mun":
        return MunAdapter(suite, rng, world)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# capability factory


def _observe(adapter, rng: random.Random):
    """One honest foreign-auth session in the adapter's world."""
    return run_session(adapter.suite, adapter.name, "foreign-auth", rng, world=adapter.world)


def surveil(
    adapter,
    rng: random.Random,
    *,
    sessions: int = 1,
    steal_card: bool = False,
    insider: bool = False,
    long_term: bool = False,
    cdl: bool = False,
) -> AdversaryView:
    """Build an adversary view with exactly the requested grants."""
    view = AdversaryView(public_material=adapter.public_material())
    for _ in range(sessions):
        view.transcripts.append(_observe(adapter, rng).transcript)
    if steal_card:
        view.stolen_card = adapter.steal_card()
    if insider:
        view.insider_registration = adapter.insider_knowledge()
    if long_term:
        view.long_term_secrets = adapter.long_term_secrets()
    if cdl:
        cp = adapter.suite.cp
        view.cdl_oracle = lambda pt: brute_force_dlog(cp, pt)
    return view


# ---------------------------------------------------------------------------
# strategies


def attack_mu_impersonation(adapter, view: AdversaryView, rng: random.Random) -> AttackOutcome:
    """Replay or minimally refresh an intercepted login and try to end up
    holding the key the foreign agent derives."""
    run = adapter.impersonate_user(view, rng)
    return _judge_key_evidence("mu-impersonation", adapter.name, run)


def attack_fa_impersonation(adapter, view: AdversaryView, rng: random.Random) -> AttackOutcome:
    run = adapter.impersonate_foreign(view, rng)
    return _judge_key_evidence("fa-impersonation", adapter.name, run)


def attack_ha_impersonation(adapter, view: AdversaryView, rng: random.Random) -> AttackOutcome:
    run = adapter.impersonate_home(view, rng)
    return _judge_key_evidence("ha-impersonation", adapter.name, run)


def attack_offline_guessing(
    adapter, view: AdversaryView, dictionary: list[bytes], rng: random.Random
) -> AttackOutcome:
    """Exhaust a dictionary against whatever offline predicate the captured
    material admits."""
    verifier = adapter.password_verifier(view)
    recovered = None
    confirmable = 0
    for candidate in dictionary:
        verdict = verifier.check(candidate)
        if verdict is True:
            confirmable += 1
            if recovered is None:
                recovered = candidate
    succeeded = recovered is not None
    detail = (
        f"recovered the password after testing {len(dictionary)} candidates"
        if succeeded
        else (
            f"exhausted {len(dictionary)} candidates with zero confirmable; "
            + (
                "no verifier is computable without: " + ", ".join(verifier.missing)
                if verifier.missing
                else "the true password is not in the dictionary"
            )
        )
    )
    return AttackOutcome(
        "offline-guess",
        adapter.name,
        succeeded,
        {
            "recovered_password": recovered.hex() if recovered else None,
            "dictionary_size": len(dictionary),
            "confirmable_candidates": confirmable,
            "verifier_missing_inputs": list(verifier.missing),
        },
        detail,
    )


def attack_insider(
    adapter, view: AdversaryView, dictionary: list[bytes], rng: random.Random
) -> AttackOutcome:
    """Use registration-time knowledge to steal the user's password and, if
    that works, impersonate the user outright."""
    run = adapter.insider_attack(view, dictionary, rng)
    return _judge_key_evidence("insider", adapter.name, run)


def link_pair(adapter, raw1: bytes, raw2: bytes) -> bool:
    """Field-equality linker over two first-flight messages."""
    return adapter.link_projection(raw1) == adapter.link_projection(raw2)


def attack_traceability(adapter, rng: random.Random, trials: int = 200) -> AttackOutcome:
    """Distinguishing game: the linker sees two login messages and must say
    whether they came from the same user; success means beating guessing by
    a wide margin."""
    if trials < 1:
        raise ValueError(f"traceability needs at least one trial, got {trials}")
    correct = 0
    for _ in range(trials):
        same = rng.random() < 0.5
        raw1 = adapter.first_flight(rng, "primary")
        raw2 = adapter.first_flight(rng, "primary" if same else "other")
        if link_pair(adapter, raw1, raw2) == same:
            correct += 1
    accuracy = correct / trials
    succeeded = accuracy >= 0.75
    return AttackOutcome(
        "traceability",
        adapter.name,
        succeeded,
        {"accuracy": accuracy, "trials": trials},
        f"field-equality linker decided same-vs-different user with accuracy {accuracy:.3f}",
    )


def attack_replay_session_key(adapter, view: AdversaryView, rng: random.Random) -> AttackOutcome:
    run = adapter.replay_session(view, rng)
    return _judge_key_evidence("replay", adapter.name, run)


def attack_forward_secrecy(adapter, view: AdversaryView, rng: random.Random) -> AttackOutcome:
    run = adapter.forward_secrecy_break(view, rng)
    return _judge_key_evidence("forward-secrecy", adapter.name, run)


ATTACK_NAMES = (
    "mu-impersonation",
    "fa-impersonation",
    "ha-impersonation",
    "offline-guess",
    "insider",
    "traceability",
    "replay",
    "forward-secrecy",
)


def default_dictionary(adapter, rng: random.Random, size: int = 1000) -> list[bytes]:
    """Judge-side dictionary: `size` candidates including the true password
    at a seeded position."""
    words = [b"pw-%06d" % rng.randrange(10 ** 6) for _ in range(size - 1)]
    words.insert(rng.randrange(size), adapter.true_password())
    return words


def run_attack(
    name: str,
    adapter,
    rng: random.Random,
    *,
    dictionary: list[bytes] | None = None,
    trials: int = 200,
    cdl: bool = False,
) -> AttackOutcome:
    """Run one named strategy with the view it requires.  `cdl` grants the
    discrete-log oracle, and raises `ValueError` at once on a group too large
    for it."""
    cp = adapter.suite.cp
    if cdl and cp.n > ec.DLOG_MAX_ORDER:
        raise ValueError(f"the discrete-log oracle cannot brute-force {cp.name}")
    if name == "traceability":
        return attack_traceability(adapter, rng, trials)
    if name in ("mu-impersonation", "fa-impersonation", "ha-impersonation", "replay"):
        view = surveil(adapter, rng, cdl=cdl)
        fn = {
            "mu-impersonation": attack_mu_impersonation,
            "fa-impersonation": attack_fa_impersonation,
            "ha-impersonation": attack_ha_impersonation,
            "replay": attack_replay_session_key,
        }[name]
        return fn(adapter, view, rng)
    if name == "offline-guess":
        view = surveil(adapter, rng, steal_card=True)
        words = default_dictionary(adapter, rng) if dictionary is None else dictionary
        return attack_offline_guessing(adapter, view, words, rng)
    if name == "insider":
        view = surveil(adapter, rng, sessions=0, insider=True)
        words = default_dictionary(adapter, rng) if dictionary is None else dictionary
        return attack_insider(adapter, view, words, rng)
    if name == "forward-secrecy":
        view = _forward_secrecy_view(adapter, rng, cdl=cdl)
        return attack_forward_secrecy(adapter, view, rng)
    raise ValueError(f"unknown attack {name!r}; known: {', '.join(ATTACK_NAMES)}")


def _forward_secrecy_view(adapter, rng: random.Random, *, cdl: bool) -> AdversaryView:
    """Observe one full session, then grant all long-term secrets plus the
    honest session key as the comparison target."""
    res = _observe(adapter, rng)
    view = surveil(adapter, rng, sessions=0, long_term=True, cdl=cdl)
    view.transcripts.append(res.transcript)
    key_hex = res.outcome.get("fa_key") or res.outcome.get("mu_key")
    view.public_material["session_key"] = bytes.fromhex(key_hex) if key_hex else None
    return view


def run_attack_matrix(
    suite: CryptoSuite,
    rng: random.Random,
    *,
    dictionary: list[bytes] | None = None,
    trials: int = 200,
) -> dict[str, dict[str, AttackOutcome]]:
    """Every strategy against both schemes; the expected pattern is uniform
    success against mun and uniform failure against the proposed scheme
    (except forward secrecy, which holds for both)."""
    results: dict[str, dict[str, AttackOutcome]] = {n: {} for n in ATTACK_NAMES}
    for scheme in ("proposed", "mun"):
        adapter = make_adapter(scheme, suite, rng)
        for name in ATTACK_NAMES:
            results[name][scheme] = run_attack(
                name, adapter, rng, dictionary=dictionary, trials=trials
            )
    return results
