"""Differential tests of the OpenSSL-backed P-256 path against the pure-Python
reference: `curve.scalar_mul` against `curve._scalar_mul_ref`, and
`CryptoSuite._verify_digest` against `_verify_digest_ref` with every scalar
multiplication forced onto the reference."""

import random

import pytest

from roamauth import curve as ec
from roamauth.curve import INFINITY, P256, TOY, Point, negate, scalar_mul
from roamauth.suite import CryptoSuite, Signature

N = P256.n
G = P256.generator
EDGE_SCALARS = (1, 2, N - 2, N - 1, N)


@pytest.fixture(scope="module")
def points():
    """Eight seeded points other than G, built on the reference path."""
    rng = random.Random(0x9256)
    return [ec._scalar_mul_ref(P256, rng.randrange(2, N - 1), G) for _ in range(8)]


def _refuse(k, pt):
    raise AssertionError(f"OpenSSL path taken for k={k}")


@pytest.fixture()
def no_openssl_mul(monkeypatch):
    monkeypatch.setattr(ec, "_p256_mul", _refuse)


def test_fixed_base_matches_reference():
    rng = random.Random(1)
    for _ in range(100):
        k = rng.randrange(2, N - 1)
        assert scalar_mul(P256, k, G) == ec._scalar_mul_ref(P256, k, G)


def test_variable_base_matches_reference(points):
    rng = random.Random(2)
    bases = points + [negate(P256, G)]  # -G shares G's x but is not G
    for i in range(100):
        k = rng.randrange(2, N - 1)
        q = bases[i % len(bases)]
        assert scalar_mul(P256, k, q) == ec._scalar_mul_ref(P256, k, q)


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_edge_scalars_match_reference(k, points):
    for q in (G, points[0]):
        assert scalar_mul(P256, k, q) == ec._scalar_mul_ref(P256, k, q)


def test_edge_inputs_take_the_reference_path(no_openssl_mul, points):
    for k in (1, N - 1, N):
        scalar_mul(P256, k, G)
        scalar_mul(P256, k, points[0])
    assert scalar_mul(P256, 5, INFINITY) == INFINITY
    assert scalar_mul(TOY, 5, TOY.generator) == ec._scalar_mul_ref(TOY, 5, TOY.generator)
    P256.validate()  # the order check n*G


def test_in_range_scalars_take_the_openssl_path(monkeypatch, points):
    calls = []
    real = ec._p256_mul
    monkeypatch.setattr(ec, "_p256_mul", lambda k, pt: calls.append(k) or real(k, pt))
    scalar_mul(P256, 2, G)
    scalar_mul(P256, N - 2, points[0])
    assert calls == [2, N - 2]


def test_off_curve_point_gives_the_reference_result(no_openssl_mul, points):
    rng = random.Random(3)
    for q in points[:4]:
        off = Point(q.x, (q.y + 1) % P256.p)
        k = rng.randrange(2, N - 1)
        assert scalar_mul(P256, k, off) == ec._scalar_mul_ref(P256, k, off)


def _verify_cases(suite, rng, keys):
    """(pub, digest, sig) triples: valid, flipped r, flipped s and wrong key
    over 20- and 32-byte digests, then malformed signatures and keys."""
    cases = []
    for i, priv in enumerate(keys):
        pub = scalar_mul(P256, priv, G)
        other = scalar_mul(P256, keys[i - 1], G)
        for size in (20, 32):
            digest = rng.randbytes(size)
            sig = suite._sign_digest(priv, digest)
            cases += [
                (pub, digest, sig),
                (pub, digest, Signature(sig.r ^ 1, sig.s)),
                (pub, digest, Signature(sig.r, sig.s ^ (1 << 100))),
                (other, digest, sig),
            ]
    pub = scalar_mul(P256, keys[0], G)
    digest = rng.randbytes(20)
    sig = suite._sign_digest(keys[0], digest)
    for r, s in ((0, sig.s), (N, sig.s), (sig.r, 0), (sig.r, N), (N + sig.r, sig.s)):
        cases.append((pub, digest, Signature(r, s)))
    cases.append((Point(pub.x, (pub.y + 1) % P256.p), digest, sig))
    cases.append((INFINITY, digest, sig))
    return cases


def test_verify_matches_reference(monkeypatch):
    suite = CryptoSuite(P256)
    rng = random.Random(4)
    keys = [rng.randrange(1, N) for _ in range(6)]
    cases = _verify_cases(suite, rng, keys)
    fast = [suite._verify_digest(pub, d, sig) for pub, d, sig in cases]
    monkeypatch.setattr(ec, "scalar_mul", ec._scalar_mul_ref)
    monkeypatch.setattr(ec, "_p256_mul", _refuse)
    ref = [suite._verify_digest_ref(pub, d, sig) for pub, d, sig in cases]
    assert fast == ref
    assert fast.count(True) == 2 * len(keys)  # exactly the untouched signatures


def test_verify_routes_by_curve_and_digest_length(monkeypatch):
    suite = CryptoSuite(P256)
    priv = 0x1234567
    pub = scalar_mul(P256, priv, G)
    routed = []
    real = CryptoSuite._verify_digest_ref
    monkeypatch.setattr(CryptoSuite, "_verify_digest_ref",
                        lambda self, *a: routed.append(len(a[1])) or real(self, *a))
    for size in (20, 32, 16, 48):
        digest = bytes(range(size))
        assert suite._verify_digest(pub, digest, suite._sign_digest(priv, digest))
    assert routed == [16, 48]
    toy = CryptoSuite(TOY)
    digest = bytes(20)
    toy_pub = scalar_mul(TOY, 5, TOY.generator)
    assert toy._verify_digest(toy_pub, digest, toy._sign_digest(5, digest))
    assert routed == [16, 48, 20]

