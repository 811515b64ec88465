"""AES-GCM through the ctypes binding on hashlib's libcrypto (`suite._gcm`):
agreement with `cryptography`'s AESGCM where that package is installed, every
single-bit flip refused, an empty OpenSSL error queue after a refused tag, the
key lengths AESGCM accepts, a fresh context freed on every call, and a failed
binding that names the library path."""

import ctypes
import random

import _hashlib
import pytest

from roamauth import cli
from roamauth import curve as ec
from roamauth import suite as suite_mod
from roamauth.curve import TOY
from roamauth.harness import run_session
from roamauth.suite import AuthenticationError, CryptoSuite

LENGTHS = [*range(34), 63, 64, 65, 255, 256, 257, 1023, 1024, 1100]


@pytest.fixture()
def suite():
    return CryptoSuite(TOY)


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_matches_the_aesgcm_reference(suite, key_size):
    aead = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead", exc_type=ImportError)
    rng = random.Random(key_size)
    for size in LENGTHS:
        key, plain = rng.randbytes(key_size), rng.randbytes(size)
        seed = rng.randrange(1 << 32)
        nonce = random.Random(seed).randbytes(12)
        reference = nonce + aead.AESGCM(key).encrypt(nonce, plain, None)
        assert suite.ae_encrypt(key, plain, random.Random(seed)) == reference, size
        assert suite.ae_decrypt(key, reference) == plain
        assert aead.AESGCM(key).decrypt(nonce, reference[12:], None) == plain


def test_every_single_bit_flip_is_refused(suite):
    key = random.Random(7).randbytes(32)
    ciphertext = suite.ae_encrypt(key, b"short", random.Random(8))
    assert len(ciphertext) == 12 + 5 + 16
    for bit in range(8 * len(ciphertext)):
        flipped = bytearray(ciphertext)
        flipped[bit // 8] ^= 1 << bit % 8
        with pytest.raises(AuthenticationError):
            suite.ae_decrypt(key, bytes(flipped))
    assert suite.ae_decrypt(key, ciphertext) == b"short"


def test_truncated_or_extended_ciphertext_is_refused(suite):
    key = bytes(16)
    ciphertext = suite.ae_encrypt(key, b"payload", random.Random(9))
    for cut in range(len(ciphertext)):
        with pytest.raises(AuthenticationError):
            suite.ae_decrypt(key, ciphertext[:cut])
    with pytest.raises(AuthenticationError):
        suite.ae_decrypt(key, ciphertext + b"\x00")


@pytest.mark.parametrize("planted", [False, True])
def test_refused_tag_leaves_no_openssl_error(suite, planted):
    """The queue is empty after a refused tag.  OpenSSL 3.0 queues no error
    for a GCM tag mismatch, so one case first plants an error (an init with
    no cipher) to show that the refusal clears the queue."""
    lib = ec._libcrypto()
    peek = lib.ERR_peek_error
    peek.restype, peek.argtypes = ctypes.c_ulong, []
    key = bytes(32)
    ciphertext = bytearray(suite.ae_encrypt(key, b"payload", random.Random(10)))
    ciphertext[-1] ^= 1
    if planted:
        ctx = lib.EVP_CIPHER_CTX_new()
        assert lib.EVP_CipherInit_ex(ctx, None, None, None, None, 1) == 0
        lib.EVP_CIPHER_CTX_free(ctx)
        assert peek() != 0
    with pytest.raises(AuthenticationError):
        suite.ae_decrypt(key, bytes(ciphertext))
    assert peek() == 0


@pytest.mark.parametrize("size", [0, 8, 15, 17, 20, 31, 33, 64])
def test_other_key_lengths_raise_value_error(suite, size):
    key = bytes(size)
    with pytest.raises(ValueError, match="128, 192 or 256 bits"):
        suite.ae_encrypt(key, b"m", random.Random(1))
    with pytest.raises(ValueError, match="128, 192 or 256 bits"):
        suite.ae_decrypt(key, bytes(40))


class _CountingLib:
    """Forwards to the real binding and tracks every cipher context from
    allocation to free."""

    def __init__(self, lib):
        self.lib = lib
        self.live: set[int] = set()
        self.allocated = 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def EVP_CIPHER_CTX_new(self):
        ctx = self.lib.EVP_CIPHER_CTX_new()
        assert ctx and ctx not in self.live
        self.live.add(ctx)
        self.allocated += 1
        return ctx

    def EVP_CIPHER_CTX_free(self, ctx):
        self.live.remove(ctx)  # KeyError: freed twice or never allocated
        self.lib.EVP_CIPHER_CTX_free(ctx)


def test_every_call_frees_a_fresh_context(monkeypatch, suite):
    lib, *rest = suite_mod._evp()
    proxy = _CountingLib(lib)
    monkeypatch.setattr(suite_mod, "_evp", lambda: (proxy, *rest))
    key = bytes(24)
    ciphertext = suite.ae_encrypt(key, b"payload", random.Random(11))
    assert suite.ae_decrypt(key, ciphertext) == b"payload"
    with pytest.raises(AuthenticationError):
        suite.ae_decrypt(key, ciphertext[:-1] + bytes([ciphertext[-1] ^ 1]))
    with pytest.raises(ValueError):
        suite.ae_encrypt(bytes(20), b"payload", random.Random(11))
    assert proxy.allocated == 3 and proxy.live == set()


def _clear_bindings():
    suite_mod._evp.cache_clear()
    ec._libcrypto.cache_clear()


def test_failed_binding_names_the_library_and_is_no_session_abort(monkeypatch, tmp_path):
    """A toy proposed session binds libcrypto only for its AEAD; a failed
    load escapes `run_session`, and the CLI, as an `ImportError` instead of
    being scored as an abort or reported as an unwritable output."""
    _clear_bindings()
    monkeypatch.setattr(_hashlib, "__file__", "/nonexistent/_hashlib.so")
    try:
        with pytest.raises(ImportError, match="/nonexistent/_hashlib.so"):
            run_session(CryptoSuite(TOY), "proposed", "foreign-auth", random.Random(1))
        with pytest.raises(ImportError, match="/nonexistent/_hashlib.so"):
            cli.main(["handshake", "--curve", "toy", "--out", str(tmp_path)])
    finally:
        monkeypatch.undo()
        _clear_bindings()
    res = run_session(CryptoSuite(TOY), "proposed", "foreign-auth", random.Random(1))
    assert res.outcome["success"], res.outcome
