"""Seeded workloads: the world pool, the session mix, output checks, digests.

Every input derives from the benchmark seed through SHA-256 (``derive_seed``),
never through ``hash()``, so the same seed gives the same sessions, the same
wire transcripts and the same determinism digest in any process.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from roamauth import attacks, harness
from roamauth import mun as mun_mod
from roamauth import proposed as prop
from roamauth.curve import get_profile
from roamauth.suite import CryptoSuite, identity_from_label

TRIPLES = 8  # (CA, HA, FA) agent triples per scheme
USERS = 64   # registered users per home agent

# One block of the session mix: (scheme, scenario, update rounds, sessions).
MIX = (
    ("proposed", "foreign-auth", 1, 10),
    ("proposed", "home-auth", 1, 2),
    ("proposed", "key-update", 3, 2),
    ("proposed", "password-change", 1, 1),
    ("mun", "foreign-auth", 1, 4),
    ("mun", "key-update", 3, 1),
)
BLOCK = sum(cell[3] for cell in MIX)

# Criterion 2's per-party table for a proposed foreign-auth handshake.
EXPECTED_FA_OPS = {
    "MU": {"xor": 2, "hash": 6, "mul": 3, "mul_pre": 2, "esym": 0, "dsym": 0,
           "gsign": 0, "vsign": 0},
    "FA": {"xor": 0, "hash": 1, "mul": 3, "mul_pre": 1, "esym": 1, "dsym": 1,
           "gsign": 1, "vsign": 1},
    "HA": {"xor": 1, "hash": 4, "mul": 2, "mul_pre": 0, "esym": 1, "dsym": 1,
           "gsign": 1, "vsign": 1},
}
EXPECTED_MOBILE_BITS = 3872
MATRIX_TRIALS = 200  # traceability trials; the dictionary keeps its default 1000 words


def derive_seed(*parts) -> int:
    """Stable 64-bit seed for one named part of the workload."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


# ---------------------------------------------------------------------------
# world pool


@dataclass(frozen=True)
class SessionSpec:
    scheme: str
    scenario: str
    rounds: int
    triple: int
    user: int

    @property
    def label(self) -> str:
        return f"{self.scheme}/{self.scenario}"


@dataclass
class Pool:
    proposed: list[tuple[harness.ProposedWorld, list[prop.MUState]]]
    mun: list[tuple[harness.MunWorld, list[mun_mod.MunCredentials]]]


def build_pool(suite: CryptoSuite, seed: int) -> Pool:
    """Eight agent triples per scheme, each home agent with 64 users.

    Each triple starts from the harness world builder (which registers user
    0); the other users register against the same home agent.
    """
    proposed_worlds = []
    mun_worlds = []
    for t in range(TRIPLES):
        rng = random.Random(derive_seed(seed, "pool", "proposed", t))
        world = harness.build_proposed_world(suite, rng, user_label=f"mu-{t}-0")
        users = [world.mu]
        for u in range(1, USERS):
            uid = identity_from_label(f"mu-{t}-{u}")
            password = b"pw-%d-%d-" % (t, u) + rng.randbytes(4).hex().encode()
            req, salt = prop.register_request(suite, uid, password, rng)
            card = prop.card_finalize(prop.register_issue(suite, world.ha, req), salt)
            users.append(prop.MUState(uid, password, card))
        proposed_worlds.append((world, users))

        rng = random.Random(derive_seed(seed, "pool", "mun", t))
        mworld = harness.build_mun_world(suite, rng, user_label=f"mu-{t}-0")
        creds = [mworld.cred]
        for u in range(1, USERS):
            nonce = suite.rand_bytes(rng, mun_mod.NONCE_BYTES)
            creds.append(mun_mod.mun_register(
                suite, mworld.ha, identity_from_label(f"mu-{t}-{u}"), nonce, rng))
        mun_worlds.append((mworld, creds))
    return Pool(proposed_worlds, mun_worlds)


def world_for(pool: Pool, spec: SessionSpec):
    """A fresh world object around pooled agents and one pooled user, so a
    session that replaces the user state (password change) leaves the pool
    untouched."""
    if spec.scheme == "proposed":
        world, users = pool.proposed[spec.triple]
        return harness.ProposedWorld(world.ca, world.ha, world.fa, users[spec.user])
    world, creds = pool.mun[spec.triple]
    return harness.MunWorld(world.ha, world.fa, creds[spec.user])


def block_specs(seed: int, block: int) -> list[SessionSpec]:
    """One block of the mix in seeded order, each session on a seeded
    (triple, user)."""
    rng = random.Random(derive_seed(seed, "block", block))
    cells = [(s, sc, r) for s, sc, r, n in MIX for _ in range(n)]
    rng.shuffle(cells)
    return [SessionSpec(s, sc, r, rng.randrange(TRIPLES), rng.randrange(USERS))
            for s, sc, r in cells]


# ---------------------------------------------------------------------------
# output checks and digests


def check_session(spec: SessionSpec, res: harness.SessionResult) -> list[str]:
    """Failures of one honest session: an abort, unequal keys, or (for the
    proposed foreign-auth handshake) op counts or mobile bits off the table."""
    out = res.outcome
    where = f"{spec.label} triple={spec.triple} user={spec.user}"
    if not out.get("success"):
        return [f"{where}: no success ({out.get('abort', 'unequal keys')})"]
    failures = []
    if "keys" in out:
        if any(a != b for a, b in out["keys"]) or out["epochs"] != spec.rounds:
            failures.append(f"{where}: refresh keys differ or wrong epoch count")
    else:
        peer = out.get("fa_key", out.get("ha_key"))
        if out["mu_key"] != peer:
            failures.append(f"{where}: session keys differ")
    if spec.scenario == "password-change" and not out.get("old_password_rejected"):
        failures.append(f"{where}: old password still accepted")
    rep = res.report
    if spec.scheme == "proposed" and spec.scenario == "foreign-auth":
        for party, cols in EXPECTED_FA_OPS.items():
            got = {c: rep.op_counts[party][c] for c in cols}
            if got != cols:
                failures.append(f"{where}: {party} op counts {got} != {cols}")
        if rep.mobile_bits != EXPECTED_MOBILE_BITS or rep.rounds != 4:
            failures.append(f"{where}: mobile bits {rep.mobile_bits}, rounds {rep.rounds}")
    if spec.scheme == "mun" and spec.scenario == "foreign-auth" and rep.rounds != 5:
        failures.append(f"{where}: mun rounds {rep.rounds} != 5")
    return failures


def session_digest(spec: SessionSpec, res: harness.SessionResult) -> bytes:
    """Bytes the determinism digest covers: the spec, the binary wire
    transcript and the outcome (which carries the session keys)."""
    return b"".join([
        json.dumps([spec.label, spec.rounds, spec.triple, spec.user]).encode(),
        res.transcript.to_binary(),
        json.dumps(res.outcome, sort_keys=True).encode(),
    ])


def check_matrix(results: dict) -> tuple[int, int, list[str]]:
    """(outcomes checked, outcomes failed, failures): mun must lose every
    attack but forward secrecy, the proposed scheme must resist every one,
    and every key offered as evidence must equal the honest party's key
    byte for byte."""
    failures = []
    checked = failed = 0
    for name in attacks.ATTACK_NAMES:
        for scheme in ("proposed", "mun"):
            checked += 1
            outcome = results[name][scheme]
            problems = []
            expected = scheme == "mun" and name != "forward-secrecy"
            if outcome.succeeded != expected:
                problems.append(f"succeeded={outcome.succeeded}, expected {expected}")
            ev = outcome.evidence
            if outcome.succeeded and "adversary_key" in ev:
                if ev["adversary_key"] is None or ev["adversary_key"] != ev["honest_party_key"]:
                    problems.append("key evidence is not byte-equal")
            if problems:
                failed += 1
                failures.append(f"{name}/{scheme}: " + "; ".join(problems))
    return checked, failed, failures


def matrix_digest(results: dict) -> bytes:
    return b"".join(results[name][scheme].to_json().encode()
                    for name in attacks.ATTACK_NAMES for scheme in ("proposed", "mun"))


# ---------------------------------------------------------------------------
# workloads


@dataclass
class UnitResult:
    label: str
    ns: int
    checked: int
    failed: int
    failures: list[str]
    digest: bytes


class HandshakeWorkload:
    """Closed loop of honest sessions, one client, in blocks of the mix."""

    unit = "session"
    group = BLOCK       # units per stratified block
    warmup = BLOCK      # block 0 runs untimed and feeds the digest
    digest_units = BLOCK

    def __init__(self, name: str, curve: str):
        self.name = name
        self.curve = curve
        self._plans: dict[tuple[int, int], list[SessionSpec]] = {}

    def pool_shape(self) -> dict:
        return {"triples_per_scheme": TRIPLES, "users_per_home_agent": USERS,
                "block": [list(cell) for cell in MIX], "curve": self.curve}

    def setup(self, seed: int):
        suite = CryptoSuite(get_profile(self.curve))
        return suite, build_pool(suite, seed)

    def spec(self, seed: int, i: int) -> SessionSpec:
        key = (seed, i // BLOCK)
        if key not in self._plans:
            self._plans = {key: block_specs(seed, i // BLOCK)}
        return self._plans[key][i % BLOCK]

    def run_unit(self, state, seed: int, i: int, timed, want_digest: bool) -> UnitResult:
        suite, pool = state
        spec = self.spec(seed, i)
        world = world_for(pool, spec)
        rng = random.Random(derive_seed(seed, "session", i))
        res, ns = timed(lambda: harness.run_session(
            suite, spec.scheme, spec.scenario, rng, world=world,
            update_rounds=spec.rounds))
        digest = session_digest(spec, res) if want_digest else b""
        failures = check_session(spec, res)
        return UnitResult(spec.label, ns, 1, int(bool(failures)), failures, digest)


class MatrixWorkload:
    """Repeated full attack matrices on P-256 with the acceptance settings."""

    unit = "matrix"
    group = 1
    warmup = 0
    digest_units = 1

    def __init__(self, name: str, curve: str):
        self.name = name
        self.curve = curve

    def pool_shape(self) -> dict:
        return {"adapters": ["proposed", "mun"], "dictionary_words": 1000,
                "traceability_trials": MATRIX_TRIALS, "curve": self.curve}

    def setup(self, seed: int):
        """The suite, plus one build of each attack adapter so that set-up
        time covers the adapters' worlds; ``run_attack_matrix`` still builds
        its own adapters on every call, as users of it pay for."""
        suite = CryptoSuite(get_profile(self.curve))
        for scheme in ("proposed", "mun"):
            attacks.make_adapter(scheme, suite, random.Random(derive_seed(seed, "adapter", scheme)))
        return suite

    def run_unit(self, state, seed: int, i: int, timed, want_digest: bool) -> UnitResult:
        rng = random.Random(derive_seed(seed, "matrix", i))
        results, ns = timed(lambda: attacks.run_attack_matrix(
            state, rng, trials=MATRIX_TRIALS))
        checked, failed, failures = check_matrix(results)
        digest = matrix_digest(results) if want_digest else b""
        return UnitResult("matrix", ns, checked, failed, failures, digest)


WORKLOADS = {
    "handshake-p256": HandshakeWorkload("handshake-p256", "p256"),
    "handshake-toy": HandshakeWorkload("handshake-toy", "toy"),
    "attack-matrix-p256": MatrixWorkload("attack-matrix-p256", "p256"),
}
