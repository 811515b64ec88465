"""Cryptographic primitives shared by both authentication schemes.

Concrete algorithm choices are declared here, not hard-wired into the
protocol logic:

* hash: SHA-256 truncated to 160 bits,
* symmetric encryption: AES-256-GCM (authenticated),
* signatures: ECDSA over the configured curve with deterministic nonces
  (RFC 6979), signing a 160-bit digest,
* point-to-key derivation: SHA-256 of the canonical point encoding.

A `CryptoSuite` binds these to a curve profile.  All methods are pure given
their inputs plus the caller-supplied randomness source; the public methods
report into the active operation counter (see instrument.py), while private
helpers stay off the books.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ec import ECDSA
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA1, SHA256

from . import curve as ec
from . import instrument
from .curve import CurveParams, Point
from .encoding import encode_concat

DIGEST_BYTES = 20  # 160-bit digests and identities
GCM_NONCE_BYTES = 12


class SuiteError(Exception):
    """Base class for primitive-layer failures."""


class AuthenticationError(SuiteError):
    """Ciphertext failed integrity verification (wrong key or tampering)."""


class SignatureFormatError(SuiteError):
    """Signature bytes do not parse."""


@dataclass(frozen=True)
class Signature:
    r: int
    s: int

    def to_bytes(self, cp: CurveParams) -> bytes:
        w = cp.scalar_bytes
        return self.r.to_bytes(w, "big") + self.s.to_bytes(w, "big")

    @classmethod
    def from_bytes(cls, cp: CurveParams, data: bytes) -> "Signature":
        w = cp.scalar_bytes
        if len(data) != 2 * w:
            raise SignatureFormatError(f"signature must be {2 * w} bytes")
        return cls(int.from_bytes(data[:w], "big"), int.from_bytes(data[w:], "big"))


@dataclass(frozen=True)
class KeyPair:
    priv: int
    pub: Point


@dataclass(frozen=True)
class Certificate:
    """Depth-1 certificate: subject identity and public key, CA-signed."""

    subject_id: bytes
    public_key: Point
    signature: Signature

    def to_bytes(self, cp: CurveParams) -> bytes:
        return encode_concat(
            [self.subject_id, self.public_key, self.signature.to_bytes(cp)], cp
        )

    @classmethod
    def from_bytes(cls, cp: CurveParams, data: bytes) -> "Certificate":
        """Decode with the wire field check; raises `EncodingError`."""
        from .wire import unpack

        subject_id, public_key, sig = unpack(cp, data, ("identity", "point", "sig"), "certificate")
        return cls(subject_id, public_key, Signature.from_bytes(cp, sig))


# OpenSSL's prehashed ECDSA takes a digest only as long as a named hash; a
# digest of any other length is verified by the pure-Python reference.
_PREHASH = {20: SHA1(), 32: SHA256()}


def _verifiable(cp: CurveParams, pub: Point, sig: Signature) -> bool:
    """Signature scalars in [1, n-1] and a finite on-curve key."""
    return (1 <= sig.r < cp.n and 1 <= sig.s < cp.n
            and not pub.is_infinity and ec.is_on_curve(cp, pub))


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _bits2int(data: bytes, n: int) -> int:
    """RFC 6979 bits2int: leftmost qlen bits of data as an integer."""
    qlen = n.bit_length()
    x = int.from_bytes(data, "big")
    blen = len(data) * 8
    if blen > qlen:
        x >>= blen - qlen
    return x


def _int2octets(x: int, n: int) -> bytes:
    rolen = (n.bit_length() + 7) // 8
    return x.to_bytes(rolen, "big")


def _bits2octets(data: bytes, n: int) -> bytes:
    z1 = _bits2int(data, n)
    z2 = z1 - n if z1 >= n else z1
    return _int2octets(z2, n)


def _rfc6979_nonce(cp: CurveParams, priv: int, digest: bytes) -> int:
    """Deterministic ECDSA nonce (RFC 6979, HMAC-SHA256)."""
    n = cp.n
    holen = 32
    V = b"\x01" * holen
    K = b"\x00" * holen
    seed = _int2octets(priv, n) + _bits2octets(digest, n)
    K = hmac.digest(K, V + b"\x00" + seed, "sha256")
    V = hmac.digest(K, V, "sha256")
    K = hmac.digest(K, V + b"\x01" + seed, "sha256")
    V = hmac.digest(K, V, "sha256")
    while True:
        T = b""
        while len(T) * 8 < n.bit_length():
            V = hmac.digest(K, V, "sha256")
            T += V
        k = _bits2int(T, n)
        if 1 <= k < n:
            return k
        K = hmac.digest(K, V + b"\x00", "sha256")
        V = hmac.digest(K, V, "sha256")


class CryptoSuite:
    """Primitive set bound to one curve profile."""

    def __init__(self, cp: CurveParams):
        self.cp = cp

    # -- hashing and masking -------------------------------------------------

    def hash160(self, data: bytes) -> bytes:
        """160-bit one-way hash (SHA-256 truncated)."""
        instrument.record("hash")
        return _sha256(data)[:DIGEST_BYTES]

    def hash_fields(self, items: list | tuple) -> bytes:
        """hash160 over the canonical encoding of a field list."""
        return self.hash160(self.encode(items))

    def xor160(self, d1: bytes, d2: bytes) -> bytes:
        if len(d1) != len(d2):
            raise SuiteError(f"xor operands differ in length: {len(d1)} vs {len(d2)}")
        instrument.record("xor")
        return (int.from_bytes(d1, "big") ^ int.from_bytes(d2, "big")).to_bytes(len(d1), "big")

    # -- group operations ----------------------------------------------------

    def scalar_mul(self, k: int, pt: Point, *, precomputable: bool = False) -> Point:
        """Point scalar multiplication, tagged precomputable when it does not
        depend on any received message."""
        instrument.record("mul", pre=precomputable)
        return ec.scalar_mul(self.cp, k, pt)

    def validate_point(self, pt: Point) -> Point:
        return ec.validate_point(self.cp, pt)

    def encode(self, items: list | tuple) -> bytes:
        return encode_concat(items, self.cp)

    # -- randomness ----------------------------------------------------------

    def rand_scalar(self, rng: random.Random) -> int:
        return rng.randrange(1, self.cp.n)

    def rand_bytes(self, rng: random.Random, count: int) -> bytes:
        return rng.randbytes(count)

    def keygen(self, rng: random.Random) -> KeyPair:
        priv = self.rand_scalar(rng)
        return KeyPair(priv, ec.scalar_mul(self.cp, priv, self.cp.generator))

    # -- point-keyed symmetric encryption --------------------------------------

    def kdf_point(self, pt: Point) -> bytes:
        """Derive a symmetric key from a shared group point."""
        if pt.is_infinity:
            raise SuiteError("cannot derive a key from the identity point")
        instrument.record("kdf")
        return _sha256(b"roamauth-point-key" + ec.point_to_bytes(self.cp, pt))

    def ae_encrypt(self, key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        """Authenticated encryption; ciphertext = nonce || AES-GCM output, the
        nonce drawn from the caller's seeded `rng`."""
        instrument.record("esym")
        nonce = rng.randbytes(GCM_NONCE_BYTES)
        return nonce + AESGCM(key).encrypt(nonce, plaintext, None)

    def ae_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        instrument.record("dsym")
        if len(ciphertext) < GCM_NONCE_BYTES + 16:
            raise AuthenticationError("ciphertext too short")
        nonce, body = ciphertext[:GCM_NONCE_BYTES], ciphertext[GCM_NONCE_BYTES:]
        try:
            return AESGCM(key).decrypt(nonce, body, None)
        except InvalidTag as exc:
            raise AuthenticationError("ciphertext failed authentication") from exc

    # -- MAC (keyed tag used by the legacy scheme) ------------------------------

    def mac160(self, key: bytes, data: bytes) -> bytes:
        instrument.record("mac")
        return hmac.digest(key, data, "sha256")[:DIGEST_BYTES]

    # -- signatures ------------------------------------------------------------

    def _sign_digest(self, priv: int, digest: bytes) -> Signature:
        cp = self.cp
        z = _bits2int(digest, cp.n)
        while True:
            k = _rfc6979_nonce(cp, priv, digest)
            R = ec.scalar_mul(cp, k, cp.generator)
            r = R.x % cp.n
            if r == 0:
                digest = _sha256(digest)[:DIGEST_BYTES]  # pragma: no cover
                continue
            s = pow(k, -1, cp.n) * (z + r * priv) % cp.n
            if s == 0:
                digest = _sha256(digest)[:DIGEST_BYTES]  # pragma: no cover
                continue
            return Signature(r, s)

    def _verify_digest(self, pub: Point, digest: bytes, sig: Signature) -> bool:
        """ECDSA verification; on P-256 with a 20- or 32-byte digest OpenSSL
        checks the equation, otherwise `_verify_digest_ref` does."""
        prehash = _PREHASH.get(len(digest))
        if self.cp is not ec.P256 or prehash is None:
            return self._verify_digest_ref(pub, digest, sig)
        if not _verifiable(self.cp, pub, sig):
            return False
        try:
            ec.p256_public_key(pub).verify(
                encode_dss_signature(sig.r, sig.s), digest, ECDSA(Prehashed(prehash))
            )
        except InvalidSignature:
            return False
        return True

    def _verify_digest_ref(self, pub: Point, digest: bytes, sig: Signature) -> bool:
        """Textbook check: x(u1*G + u2*pub) mod n == r."""
        cp = self.cp
        if not _verifiable(cp, pub, sig):
            return False
        z = _bits2int(digest, cp.n)
        w = pow(sig.s, -1, cp.n)
        u1 = z * w % cp.n
        u2 = sig.r * w % cp.n
        R = ec.point_add(
            cp,
            ec.scalar_mul(cp, u1, cp.generator) if u1 else ec.INFINITY,
            ec.scalar_mul(cp, u2, pub),
        )
        if R.is_infinity:
            return False
        return R.x % cp.n == sig.r

    def sign_over(self, priv: int, items: list | tuple) -> Signature:
        """Signature over the 160-bit digest of a field list.  Counted as one
        signature-generation operation; the digest it embeds is not billed
        separately."""
        instrument.record("gsign")
        digest = _sha256(self.encode(items))[:DIGEST_BYTES]
        return self._sign_digest(priv, digest)

    def verify_over(self, pub: Point, items: list | tuple, sig: Signature) -> bool:
        instrument.record("vsign")
        digest = _sha256(self.encode(items))[:DIGEST_BYTES]
        return self._verify_digest(pub, digest, sig)

    # -- certificates ------------------------------------------------------------

    def issue_certificate(self, ca: KeyPair, subject_id: bytes, pub: Point) -> Certificate:
        digest = _sha256(self.encode([subject_id, pub]))[:DIGEST_BYTES]
        return Certificate(subject_id, pub, self._sign_digest(ca.priv, digest))

    def verify_certificate(self, ca_pub: Point, cert: Certificate) -> bool:
        """Root-CA check; tracked apart from protocol signature verification
        because the comparison tables do not itemize certificate handling."""
        instrument.record("vcert")
        digest = _sha256(self.encode([cert.subject_id, cert.public_key]))[:DIGEST_BYTES]
        return self._verify_digest(ca_pub, digest, cert.signature)


def identity_from_label(label: str) -> bytes:
    """Map a human-readable label to the fixed 160-bit identity width."""
    return _sha256(b"roamauth-id" + label.encode("utf-8"))[:DIGEST_BYTES]

