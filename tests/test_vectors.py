"""Frozen test-vector files (hex fields, tab-separated, one record per line).

hash160.tsv       message -> truncated digest
ecdsa_p256.tsv    private key, message, expected (r, s) under deterministic nonces
toy_scalar_mul.tsv  k -> k*G on the toy curve, generated by iterated addition
aes_gcm.tsv       key, nonce, plaintext -> ct || tag, made with `cryptography`'s
                  AESGCM; the first four rows are test cases 1, 2, 13 and 14 of
                  McGrew and Viega's GCM specification
"""

import hashlib
from pathlib import Path

from roamauth.curve import P256, TOY, Point, _scalar_mul_ref, scalar_mul
from roamauth.suite import CryptoSuite, GCM_NONCE_BYTES

VECTOR_DIR = Path(__file__).parent / "vectors"


def load_rows(name: str) -> list[list[str]]:
    rows = []
    for line in (VECTOR_DIR / name).read_text().splitlines():
        if line.strip():
            rows.append(line.split("\t"))
    return rows


def test_hash160_vectors():
    suite = CryptoSuite(TOY)
    rows = load_rows("hash160.tsv")
    assert len(rows) >= 5
    for msg_hex, digest_hex in rows:
        assert suite.hash160(bytes.fromhex(msg_hex)).hex() == digest_hex


def test_ecdsa_vectors():
    suite = CryptoSuite(P256)
    for priv_hex, msg_hex, r_hex, s_hex in load_rows("ecdsa_p256.tsv"):
        digest = hashlib.sha256(bytes.fromhex(msg_hex)).digest()
        sig = suite._sign_digest(int(priv_hex, 16), digest)
        assert sig.r == int(r_hex, 16)
        assert sig.s == int(s_hex, 16)


def test_toy_scalar_mul_vectors():
    rows = load_rows("toy_scalar_mul.tsv")
    assert len(rows) == TOY.n - 1
    for k_hex, x_hex, y_hex in rows:
        k = int(k_hex, 16)
        expected = Point(int(x_hex, 16), int(y_hex, 16))
        assert scalar_mul(TOY, k, TOY.generator) == expected
        assert _scalar_mul_ref(TOY, k, TOY.generator) == expected


class _FixedNonce:
    """Stands in for the seeded rng: `randbytes` returns the row's nonce."""

    def __init__(self, nonce: bytes):
        self.nonce = nonce

    def randbytes(self, count: int) -> bytes:
        assert count == GCM_NONCE_BYTES
        return self.nonce


def test_aes_gcm_vectors():
    suite = CryptoSuite(TOY)
    rows = load_rows("aes_gcm.tsv")
    assert len(rows) == 20
    assert {len(key_hex) // 2 for key_hex, *_ in rows} == {16, 24, 32}
    for key_hex, nonce_hex, plain_hex, sealed_hex in rows:
        key, nonce, plain = (bytes.fromhex(h) for h in (key_hex, nonce_hex, plain_hex))
        ciphertext = nonce + bytes.fromhex(sealed_hex)
        assert suite.ae_encrypt(key, plain, _FixedNonce(nonce)) == ciphertext
        assert suite.ae_decrypt(key, ciphertext) == plain
