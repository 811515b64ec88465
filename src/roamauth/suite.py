"""Cryptographic primitives shared by both authentication schemes.

Concrete algorithm choices are declared here, not hard-wired into the
protocol logic:

* hash: SHA-256 truncated to 160 bits,
* symmetric encryption: AES-256-GCM in hashlib's libcrypto (`curve._libcrypto`),
* signatures: ECDSA over the configured curve with deterministic nonces
  (RFC 6979), signing a 160-bit digest; the nonce is inverted blinded by a
  fresh OS-random factor, so the inversion's running time does not follow
  the nonce's length,
* point-to-key derivation: SHA-256 of the canonical point encoding.

A `CryptoSuite` binds these to a curve profile.  All methods are pure given
their inputs plus the caller-supplied randomness source; the public methods
report into the active operation counter (see instrument.py), while private
helpers stay off the books.

A suite remembers the last `CERT_MEMO_CAP` (CA key, certificate) pairs whose
check succeeded, and answers a repeat check from that memo without an ECDSA
verification.  `vcert` counts the checks made, memo answers included, and a
repeat still shows up in the trace's `suite.vcert.self_ms`, as a lookup.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from functools import cache

from . import curve as ec
from . import instrument
from .curve import CurveParams, Point
from .encoding import encode_concat
from .record import Record

DIGEST_BYTES = 20  # 160-bit digests and identities
GCM_NONCE_BYTES = 12
GCM_TAG_BYTES = 16
CERT_MEMO_CAP = 64  # verified (CA key, certificate) pairs a suite remembers, oldest out first
_GET_TAG, _SET_TAG = 0x10, 0x11  # EVP_CTRL_GCM_GET_TAG, EVP_CTRL_GCM_SET_TAG


class SuiteError(Exception):
    """Base class for primitive-layer failures."""


class AuthenticationError(SuiteError):
    """Ciphertext failed integrity verification (wrong key or tampering)."""


class SignatureFormatError(SuiteError):
    """Signature bytes do not parse."""


class Signature(Record, frozen=True):
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


class KeyPair(Record, frozen=True):
    priv: int
    pub: Point


class Certificate(Record, frozen=True):
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


@cache
def _evp():
    """libcrypto, its AES-GCM ciphers by key length and `_gcm`'s ctypes helpers."""
    import ctypes

    lib = ec._libcrypto()
    ciphers = {size: getattr(lib, f"EVP_aes_{8 * size}_gcm")() for size in (16, 24, 32)}
    return lib, ciphers, ctypes.create_string_buffer, ctypes.byref, ctypes.c_int


def _gcm(key: bytes, nonce: bytes, data: bytes, tag: bytes | None = None) -> bytes:
    """AES-GCM (NIST SP 800-38D) in a fresh `EVP_CIPHER_CTX`, freed with its
    key schedule before return.  With no tag it seals data into ct || tag,
    the tag written in place after ct; with one it opens data, returning the
    plaintext only once `EVP_CipherFinal_ex` has checked the tag."""
    lib, ciphers, buffer, byref, c_int = _evp()
    if (cipher := ciphers.get(len(key))) is None:
        raise ValueError("AES-GCM key must be 128, 192 or 256 bits")
    seal, size, done = tag is None, len(data), c_int()
    out = buffer(size + GCM_TAG_BYTES)
    end = byref(out, size)
    ctx = lib.EVP_CIPHER_CTX_new()
    try:
        ok = (ctx and lib.EVP_CipherInit_ex(ctx, cipher, None, key, nonce, seal) == 1
              and lib.EVP_CipherUpdate(ctx, out, byref(done), data, size) == 1
              and (seal or lib.EVP_CIPHER_CTX_ctrl(ctx, _SET_TAG, GCM_TAG_BYTES, tag) == 1)
              and lib.EVP_CipherFinal_ex(ctx, end, byref(done)) == 1
              and (not seal or lib.EVP_CIPHER_CTX_ctrl(ctx, _GET_TAG, GCM_TAG_BYTES, end) == 1))
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
    if not ok:
        lib.ERR_clear_error()  # so that hashlib never reads a stale error
        raise SuiteError("AES-GCM seal failed") if seal else AuthenticationError(
            "ciphertext failed authentication")
    return out.raw if seal else out.raw[:size]


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


# the ECDSA nonce's blinding factor: OS entropy, never the seeded session rng
_BLINDING = random.SystemRandom()


class CryptoSuite:
    """Primitive set bound to one curve profile, shared by every party of a run.

    `verify_certificate` answers a repeat of a check that succeeded from the
    suite's memo of verified (CA key, certificate) pairs, keyed by value and
    capped at `CERT_MEMO_CAP`; it still counts one `vcert` per check."""

    def __init__(self, cp: CurveParams):
        self.cp = cp
        self._verified_certs: dict[tuple[Point, Certificate], None] = {}  # oldest first

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
        depend on any received message.  Such a pt is G or a key the caller
        holds from its own records, so the tag is also `curve.scalar_mul`'s
        `long_term`: a table may pay for it, and G never gets one."""
        instrument.record("mul", pre=precomputable)
        return ec.scalar_mul(self.cp, k, pt, long_term=precomputable)

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
        """AES-GCM under a 16-, 24- or 32-byte key; ciphertext = nonce || ct ||
        tag, the nonce drawn from the caller's seeded `rng`."""
        instrument.record("esym")
        nonce = rng.randbytes(GCM_NONCE_BYTES)
        return nonce + _gcm(key, nonce, plaintext)

    def ae_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        instrument.record("dsym")
        if len(ciphertext) < GCM_NONCE_BYTES + GCM_TAG_BYTES:
            raise AuthenticationError("ciphertext too short")
        return _gcm(key, ciphertext[:GCM_NONCE_BYTES], ciphertext[GCM_NONCE_BYTES:-GCM_TAG_BYTES],
                    ciphertext[-GCM_TAG_BYTES:])

    # -- MAC (keyed tag used by the legacy scheme) ------------------------------

    def mac160(self, key: bytes, data: bytes) -> bytes:
        instrument.record("mac")
        return hmac.digest(key, data, "sha256")[:DIGEST_BYTES]

    # -- signatures ------------------------------------------------------------

    def _sign_digest(self, priv: int, digest: bytes) -> Signature:
        """s = b * (k*b)^-1 * (z + r*d) mod n, which equals k^-1 * (z + r*d):
        the inverse is taken of k*b, whose length does not follow k's, and
        k*b is taken as (k + n)*b, whose first factor has n's bit length or
        one more, whatever k's is."""
        cp = self.cp
        z = _bits2int(digest, cp.n)
        while True:
            k = _rfc6979_nonce(cp, priv, digest)
            r = ec.scalar_mul(cp, k, cp.generator).x % cp.n
            b = _BLINDING.randrange(1, cp.n)
            s = b * pow((k + cp.n) * b % cp.n, -1, cp.n) * (z + r * priv) % cp.n
            if r and s:
                return Signature(r, s)
            digest = _sha256(digest)[:DIGEST_BYTES]

    def _verify_digest(self, pub: Point, digest: bytes, sig: Signature) -> bool:
        """Textbook check: x(u1*G + u2*pub) mod n == r, for r and s in
        [1, n-1] and a finite on-curve key; `curve.mul_add` takes the sum."""
        cp = self.cp
        if not (1 <= sig.r < cp.n and 1 <= sig.s < cp.n
                and not pub.is_infinity and ec.is_on_curve(cp, pub)):
            return False
        z = _bits2int(digest, cp.n)
        w = pow(sig.s, -1, cp.n)
        R = ec.mul_add(cp, z * w % cp.n, sig.r * w % cp.n, pub)
        return not R.is_infinity and R.x % cp.n == sig.r

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
        because the comparison tables do not itemize certificate handling.
        A pair that passed before is answered from the memo; only successes
        are remembered, so a failing check is recomputed every time."""
        instrument.record("vcert")
        verified, pair = self._verified_certs, (ca_pub, cert)
        if pair in verified:
            return True
        digest = _sha256(self.encode([cert.subject_id, cert.public_key]))[:DIGEST_BYTES]
        if not self._verify_digest(ca_pub, digest, cert.signature):
            return False
        verified[pair] = None
        if len(verified) > CERT_MEMO_CAP:
            del verified[next(iter(verified))]
        return True


def identity_from_label(label: str) -> bytes:
    """Map a human-readable label to the fixed 160-bit identity width."""
    return _sha256(b"roamauth-id" + label.encode("utf-8"))[:DIGEST_BYTES]

