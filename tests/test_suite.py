"""Primitive-layer contracts: hashing, masking, key derivation, AEAD,
signatures and certificates."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamauth import suite as suite_mod
from roamauth.curve import INFINITY, P256, TOY, Point, enumerate_group, scalar_mul
from roamauth.instrument import OpCounts, counting
from roamauth.suite import (
    CERT_MEMO_CAP,
    AuthenticationError,
    Certificate,
    CryptoSuite,
    Signature,
    SignatureFormatError,
    SuiteError,
    _rfc6979_nonce,
    identity_from_label,
)

# ---------------------------------------------------------------------------
# hash160 / xor160


def test_hash_is_truncated_sha256():
    suite = CryptoSuite(TOY)
    assert suite.hash160(b"abc").hex() == "ba7816bf8f01cfea414140de5dae2223b00361a3"
    assert suite.hash160(b"abc") == hashlib.sha256(b"abc").digest()[:20]


def test_hash_length_and_determinism():
    suite = CryptoSuite(TOY)
    assert len(suite.hash160(b"")) == 20
    r = random.Random(1)
    for _ in range(50):
        m = r.randbytes(r.randrange(0, 64))
        assert suite.hash160(m) == suite.hash160(m)


def test_hash_collision_scan():
    suite = CryptoSuite(TOY)
    r = random.Random(2)
    seen = {}
    for i in range(10_000):
        m = i.to_bytes(4, "big") + r.randbytes(8)
        d = suite.hash160(m)
        assert d not in seen
        seen[d] = m


def test_xor_identities():
    suite = CryptoSuite(TOY)
    d = suite.hash160(b"probe")
    zeros = bytes(20)
    assert suite.xor160(d, zeros) == d
    assert suite.xor160(d, d) == zeros


@settings(max_examples=200)
@given(st.binary(min_size=20, max_size=20), st.binary(min_size=20, max_size=20))
def test_xor_involution(d1, d2):
    suite = CryptoSuite(TOY)
    assert suite.xor160(suite.xor160(d1, d2), d2) == d1


def test_xor_length_mismatch():
    suite = CryptoSuite(TOY)
    with pytest.raises(SuiteError):
        suite.xor160(b"\x00" * 20, b"\x00" * 16)


# ---------------------------------------------------------------------------
# kdf_point


def test_kdf_point_frozen_value():
    suite = CryptoSuite(TOY)
    assert suite.kdf_point(TOY.generator).hex() == (
        "536c4178783be7b62db197e85fb25677b233b1a46023a47b74183d99519beafd"
    )


def test_kdf_point_agreement_on_shared_point():
    suite = CryptoSuite(TOY)
    a, c = 17, 301
    ac = scalar_mul(TOY, a, scalar_mul(TOY, c, TOY.generator))
    ca = scalar_mul(TOY, c, scalar_mul(TOY, a, TOY.generator))
    assert ac == ca
    assert suite.kdf_point(ac) == suite.kdf_point(ca)


def test_kdf_point_distinct_over_whole_toy_group():
    suite = CryptoSuite(TOY)
    keys = {suite.kdf_point(pt) for pt in enumerate_group(TOY)[1:]}
    assert len(keys) == TOY.n - 1


def test_kdf_point_rejects_identity():
    suite = CryptoSuite(TOY)
    with pytest.raises(SuiteError):
        suite.kdf_point(INFINITY)


# ---------------------------------------------------------------------------
# authenticated encryption


def test_ae_roundtrip_1kib(rng):
    suite = CryptoSuite(TOY)
    key = suite.kdf_point(TOY.generator)
    msg = rng.randbytes(1024)
    assert suite.ae_decrypt(key, suite.ae_encrypt(key, msg, rng)) == msg


def test_ae_detects_single_bit_flip(rng):
    suite = CryptoSuite(TOY)
    key = suite.kdf_point(TOY.generator)
    ct = bytearray(suite.ae_encrypt(key, b"payload", rng))
    ct[-3] ^= 0x40
    with pytest.raises(AuthenticationError):
        suite.ae_decrypt(key, bytes(ct))


def test_ae_wrong_key_rejected(rng):
    suite = CryptoSuite(TOY)
    k1 = suite.kdf_point(TOY.generator)
    k2 = suite.kdf_point(scalar_mul(TOY, 2, TOY.generator))
    ct = suite.ae_encrypt(k1, b"payload", rng)
    with pytest.raises(AuthenticationError):
        suite.ae_decrypt(k2, ct)


def test_ae_mutation_scan_never_accepts(rng):
    suite = CryptoSuite(TOY)
    key = suite.kdf_point(TOY.generator)
    ct = suite.ae_encrypt(key, b"the quick brown fox", rng)
    accepted = 0
    for _ in range(10_000):
        mutated = bytearray(ct)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            suite.ae_decrypt(key, bytes(mutated))
            accepted += 1
        except AuthenticationError:
            pass
    assert accepted == 0


def test_ae_cross_party_ecdh_key(rng):
    # Encrypt under the key derived from c*B, decrypt under the one from b*C.
    suite = CryptoSuite(TOY)
    b, c = 45, 123
    B = scalar_mul(TOY, b, TOY.generator)
    C = scalar_mul(TOY, c, TOY.generator)
    k_send = suite.kdf_point(scalar_mul(TOY, c, B))
    k_recv = suite.kdf_point(scalar_mul(TOY, b, C))
    ct = suite.ae_encrypt(k_send, b"wrapped", rng)
    assert suite.ae_decrypt(k_recv, ct) == b"wrapped"


def test_ae_deterministic_under_seeded_rng():
    suite = CryptoSuite(TOY)
    key = suite.kdf_point(TOY.generator)
    c1 = suite.ae_encrypt(key, b"m", random.Random(5))
    c2 = suite.ae_encrypt(key, b"m", random.Random(5))
    assert c1 == c2


# ---------------------------------------------------------------------------
# signatures


RFC6979_PRIV = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_VECTORS = [
    (
        b"sample",
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
    ),
    (
        b"test",
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
    ),
]


@pytest.mark.parametrize("msg,exp_r,exp_s", RFC6979_VECTORS)
def test_ecdsa_deterministic_nonce_vectors(msg, exp_r, exp_s):
    suite = CryptoSuite(P256)
    sig = suite._sign_digest(RFC6979_PRIV, hashlib.sha256(msg).digest())
    assert (sig.r, sig.s) == (exp_r, exp_s)
    pub = scalar_mul(P256, RFC6979_PRIV, P256.generator)
    assert suite._verify_digest(pub, hashlib.sha256(msg).digest(), sig)


def _reference_nonce(n: int, priv: int, digest: bytes) -> tuple[int, int]:
    """RFC 6979 section 3.2 with HMAC-SHA256, written from the RFC: the nonce
    and how many candidates step h rejected."""
    qlen, rolen = n.bit_length(), (n.bit_length() + 7) // 8

    def bits2int(data: bytes) -> int:
        x = int.from_bytes(data, "big")
        return x >> (len(data) * 8 - qlen) if len(data) * 8 > qlen else x

    def mac(key: bytes, msg: bytes) -> bytes:
        return hmac.new(key, msg, hashlib.sha256).digest()

    seed = priv.to_bytes(rolen, "big") + (bits2int(digest) % n).to_bytes(rolen, "big")
    V, K = b"\x01" * 32, b"\x00" * 32
    K = mac(K, V + b"\x00" + seed)
    V = mac(K, V)
    K = mac(K, V + b"\x01" + seed)
    V = mac(K, V)
    rejected = 0
    while True:
        T = b""
        while len(T) * 8 < qlen:
            V = mac(K, V)
            T += V
        k = bits2int(T)
        if 1 <= k < n:
            return k, rejected
        rejected += 1
        K = mac(K, V + b"\x00")
        V = mac(K, V)


def test_toy_nonce_and_mac_equal_an_hmac_new_reference(toy_suite):
    # Toy digests are 20 bytes and toy n has 10 bits, so about 3 in 10
    # candidates fall outside [1, n) and the rejection loop runs.
    r = random.Random(6979)
    rejected = 0
    for _ in range(300):
        priv, digest = r.randrange(1, TOY.n), r.randbytes(20)
        k, skipped = _reference_nonce(TOY.n, priv, digest)
        assert _rfc6979_nonce(TOY, priv, digest) == k
        rejected += skipped
        key, msg = r.randbytes(r.choice([0, 20, 32, 64, 65, 100])), r.randbytes(r.randrange(200))
        assert toy_suite.mac160(key, msg) == hmac.new(key, msg, hashlib.sha256).digest()[:20]
    assert rejected > 0


def test_sign_verify_roundtrip(p256_suite, rng):
    kp = p256_suite.keygen(rng)
    sig = p256_suite.sign_over(kp.priv, [b"fields", b"to", b"sign"])
    assert p256_suite.verify_over(kp.pub, [b"fields", b"to", b"sign"], sig)
    assert not p256_suite.verify_over(kp.pub, [b"fields", b"to", b"sig n"], sig)


def test_verify_under_foreign_key_never_accepts(toy_suite):
    r = random.Random(3)
    accepted = 0
    for _ in range(1000):
        signer = toy_suite.keygen(r)
        other = toy_suite.keygen(r)
        digest = r.randbytes(20)
        sig = toy_suite._sign_digest(signer.priv, digest)
        if other.pub != signer.pub and toy_suite._verify_digest(other.pub, digest, sig):
            accepted += 1
    assert accepted == 0


def test_signature_encoding_roundtrip(p256_suite, rng):
    kp = p256_suite.keygen(rng)
    sig = p256_suite.sign_over(kp.priv, [b"x"])
    again = Signature.from_bytes(P256, sig.to_bytes(P256))
    assert again == sig
    with pytest.raises(SignatureFormatError):
        Signature.from_bytes(P256, b"\x01\x02\x03")


@pytest.mark.parametrize("cp", [TOY, P256], ids=["toy", "p256"])
def test_blinded_inverse_gives_the_plain_signature(cp, monkeypatch):
    # s = b * (k*b)^-1 * (z + r*d) must equal k^-1 * (z + r*d) for every
    # blinding factor b in [1, n-1], the ends included.
    r = random.Random(14)
    blinds = iter([1, 2, cp.n - 1, *(r.randrange(1, cp.n) for _ in range(37))])
    drawn = []

    class Blinding:
        def randrange(self, lo, hi):
            assert (lo, hi) == (1, cp.n)
            drawn.append(next(blinds))
            return drawn[-1]

    monkeypatch.setattr(suite_mod, "_BLINDING", Blinding())
    suite = CryptoSuite(cp)
    for _ in range(40):
        priv, digest = r.randrange(1, cp.n), r.randbytes(20)
        k = _rfc6979_nonce(cp, priv, digest)
        sig_r = scalar_mul(cp, k, cp.generator).x % cp.n
        plain = pow(k, -1, cp.n) * (suite_mod._bits2int(digest, cp.n) + sig_r * priv) % cp.n
        assert suite._sign_digest(priv, digest) == Signature(sig_r, plain)
    assert len(drawn) == 40


def test_a_zero_r_or_s_retries_with_the_nonce_of_the_rehashed_digest(toy_suite, monkeypatch):
    # The toy group is small enough that seeded signatures draw r or s = 0:
    # the retry takes the next nonce from the digest hashed again, and the
    # signature still verifies under the first digest.
    seen = []
    real = suite_mod._rfc6979_nonce
    monkeypatch.setattr(suite_mod, "_rfc6979_nonce",
                        lambda cp, priv, digest: seen.append(digest) or real(cp, priv, digest))
    r = random.Random(15)
    retried = 0
    for _ in range(2000):
        signer, digest = toy_suite.keygen(r), r.randbytes(20)
        seen.clear()
        sig = toy_suite._sign_digest(signer.priv, digest)
        assert toy_suite._verify_digest(signer.pub, digest, sig)
        assert seen[0] == digest
        assert seen[1:] == [hashlib.sha256(d).digest()[:20] for d in seen[:-1]]
        retried += len(seen) > 1
    assert retried


def _genuine_certificate(suite, rng):
    ca = suite.keygen(rng)
    cert = suite.issue_certificate(ca, identity_from_label("fa"), suite.keygen(rng).pub)
    digest = hashlib.sha256(suite.encode([cert.subject_id, cert.public_key])).digest()[:20]
    return ca, cert, digest


def _fresh_and_remembering(ca, cert):
    """A fresh P-256 suite, then one whose memo holds the genuine certificate."""
    yield CryptoSuite(P256)
    suite = CryptoSuite(P256)
    assert suite.verify_certificate(ca.pub, cert)
    assert (ca.pub, cert) in suite._verified_certs
    yield suite


def test_malformed_signature_values_rejected(p256_suite, rng):
    ca, cert, digest = _genuine_certificate(p256_suite, rng)
    sig, n = cert.signature, P256.n
    refused = {
        "r = 0": (ca.pub, Signature(0, sig.s)),
        "s = 0": (ca.pub, Signature(sig.r, 0)),
        "r = n": (ca.pub, Signature(n, sig.s)),
        "s = n": (ca.pub, Signature(sig.r, n)),
        "identity key": (INFINITY, sig),
        "off-curve key": (Point(ca.pub.x, (ca.pub.y + 1) % P256.p), sig),
        "wrong signature": (ca.pub, p256_suite._sign_digest(ca.priv, bytes(20))),
    }
    for suite in _fresh_and_remembering(ca, cert):
        assert suite._verify_digest(ca.pub, digest, sig)
        for case, (pub, bad) in refused.items():
            assert not suite._verify_digest(pub, digest, bad), case


def test_failed_certificate_checks_are_never_remembered(rng, monkeypatch):
    suite = CryptoSuite(P256)
    ca, cert, _ = _genuine_certificate(suite, rng)
    forged = cert.replace(subject_id=identity_from_label("evil"))
    calls = []
    verify = suite._verify_digest
    monkeypatch.setattr(suite, "_verify_digest", lambda *a: calls.append(a) or verify(*a))
    for _ in range(3):
        assert not suite.verify_certificate(ca.pub, forged)
    assert len(calls) == 3 and not suite._verified_certs
    assert suite.verify_certificate(ca.pub, cert)
    for _ in range(3):
        assert not suite.verify_certificate(ca.pub, forged)
    assert len(calls) == 7 and list(suite._verified_certs) == [(ca.pub, cert)]


def test_a_remembered_certificate_is_answered_without_verifying(rng, monkeypatch):
    suite = CryptoSuite(P256)
    ca, cert, _ = _genuine_certificate(suite, rng)
    assert suite.verify_certificate(ca.pub, cert)
    monkeypatch.setattr(suite, "_verify_digest", lambda *a: pytest.fail("memo hit verified"))
    again = Certificate.from_bytes(P256, cert.to_bytes(P256))  # equal, not the same object
    ops = OpCounts()
    with counting(ops):
        assert suite.verify_certificate(ca.pub, again)
    assert ops.as_dict() == {**OpCounts().as_dict(), "vcert": 1}


def test_the_memo_holds_at_most_its_cap_oldest_out_first(rng):
    suite = CryptoSuite(TOY)
    ca = suite.keygen(rng)
    certs = [suite.issue_certificate(ca, identity_from_label(f"fa-{i}"), ca.pub)
             for i in range(CERT_MEMO_CAP + 1)]
    for cert in certs:
        assert suite.verify_certificate(ca.pub, cert)
        assert len(suite._verified_certs) <= CERT_MEMO_CAP
    assert list(suite._verified_certs) == [(ca.pub, cert) for cert in certs[1:]]


# ---------------------------------------------------------------------------
# certificates


def test_certificate_issue_and_verify(p256_suite, rng):
    ca = p256_suite.keygen(rng)
    subject = p256_suite.keygen(rng)
    cert = p256_suite.issue_certificate(ca, identity_from_label("fa"), subject.pub)
    assert p256_suite.verify_certificate(ca.pub, cert)


def test_certificate_tamper_detected(p256_suite, rng):
    ca, cert, _ = _genuine_certificate(p256_suite, rng)
    sig = cert.signature
    refused = {
        "subject id": (ca.pub, cert.replace(subject_id=identity_from_label("evil"))),
        "public key": (ca.pub, cert.replace(public_key=ca.pub)),
        "r": (ca.pub, cert.replace(signature=Signature(sig.r + 1, sig.s))),
        "s": (ca.pub, cert.replace(signature=Signature(sig.r, sig.s + 1))),
        "CA key": (p256_suite.keygen(rng).pub, cert),
    }
    for remembered, suite in enumerate(_fresh_and_remembering(ca, cert)):
        for case, (ca_pub, forged) in refused.items():
            assert not suite.verify_certificate(ca_pub, forged), case
        assert list(suite._verified_certs) == [(ca.pub, cert)][:remembered]


def test_certificate_bytes_roundtrip(p256_suite, rng):
    ca = p256_suite.keygen(rng)
    subject = p256_suite.keygen(rng)
    cert = p256_suite.issue_certificate(ca, identity_from_label("fa"), subject.pub)
    assert Certificate.from_bytes(P256, cert.to_bytes(P256)) == cert


def test_certificate_subject_must_be_an_identity(p256_suite, rng):
    ca = p256_suite.keygen(rng)
    cert = p256_suite.issue_certificate(ca, identity_from_label("fa"), ca.pub)
    from roamauth.encoding import EncodingError

    short = p256_suite.encode([cert.subject_id[:19], cert.public_key,
                               cert.signature.to_bytes(P256)])
    with pytest.raises(EncodingError, match="identity field of 19 bytes, expected 20"):
        Certificate.from_bytes(P256, short)


# ---------------------------------------------------------------------------
# instrumentation behaviour of the public API


def test_signature_ops_do_not_bill_hashes_or_muls(p256_suite, rng):
    kp = p256_suite.keygen(rng)
    ops = OpCounts()
    with counting(ops):
        sig = p256_suite.sign_over(kp.priv, [b"data"])
        p256_suite.verify_over(kp.pub, [b"data"], sig)
    assert ops.gsign == 1 and ops.vsign == 1
    assert ops.hash == 0 and ops.mul == 0


def test_each_public_op_bills_exactly_one_counter(toy_suite, rng):
    ops = OpCounts()
    with counting(ops):
        toy_suite.hash160(b"x")
        toy_suite.xor160(bytes(20), bytes(20))
        toy_suite.scalar_mul(3, TOY.generator, precomputable=True)
        key = toy_suite.kdf_point(TOY.generator)
        ct = toy_suite.ae_encrypt(key, b"m", rng)
        toy_suite.ae_decrypt(key, ct)
        toy_suite.mac160(key, b"m")
    assert ops.as_dict() == {
        "xor": 1, "hash": 1, "mul": 1, "mul_pre": 1, "esym": 1, "dsym": 1,
        "gsign": 0, "vsign": 0, "kdf": 1, "mac": 1, "vcert": 0,
    }


def test_identity_width():
    assert len(identity_from_label("anyone")) == 20
    assert identity_from_label("a") != identity_from_label("b")
