"""Differential tests of the OpenSSL-backed P-256 path against the pure-Python
reference: `curve.scalar_mul` against `curve._scalar_mul_ref`, `curve.mul_add`
against two reference multiplications and a `point_add`, and
`CryptoSuite._verify_digest` against itself with `mul_add` replaced by that
reference.  Then the ctypes binding itself: refused inputs, a failed load, the
lazy import, the absence of any other OpenSSL binding, a free for every
allocation and no Python point check before OpenSSL."""

import os
import random
import subprocess
import sys
from pathlib import Path

import _hashlib
import pytest

from roamauth import curve as ec
from roamauth.curve import INFINITY, P256, TOY, Point, scalar_mul
from roamauth.harness import build_mun_world, run_session
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
    bases = points + [Point(G.x, -G.y % P256.p)]  # -G shares G's x but is not G
    for i in range(100):
        k = rng.randrange(2, N - 1)
        q = bases[i % len(bases)]
        assert scalar_mul(P256, k, q) == ec._scalar_mul_ref(P256, k, q)


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_edge_scalars_match_reference(k, points):
    for q in (G, points[0]):
        assert scalar_mul(P256, k, q) == ec._scalar_mul_ref(P256, k, q)


def test_edge_inputs_take_the_reference_path(no_openssl_mul, points):
    scalar_mul(P256, N, G)
    scalar_mul(P256, N, points[0])
    assert scalar_mul(P256, 5, INFINITY) == INFINITY
    assert scalar_mul(TOY, 5, TOY.generator) == ec._scalar_mul_ref(TOY, 5, TOY.generator)


def test_in_range_scalars_take_the_openssl_path(monkeypatch, points):
    calls = []
    real = ec._p256_mul
    monkeypatch.setattr(ec, "_p256_mul", lambda k, pt: calls.append(k) or real(k, pt))
    for k in (1, 2, N - 2, N - 1):
        scalar_mul(P256, k, G)
        scalar_mul(P256, k, points[0])
    assert calls == [1, 1, 2, 2, N - 2, N - 2, N - 1, N - 1]


def _mul_add_ref(cp, u1, u2, pt):
    return ec.point_add(cp, ec._scalar_mul_ref(cp, u1, cp.generator) if u1 else INFINITY,
                        ec._scalar_mul_ref(cp, u2, pt))


def test_mul_add_matches_reference(points):
    rng = random.Random(5)
    q = points[1]
    log_q = 0x5EED  # q2 = log_q*G, so u1 = -u2*log_q makes the sum the identity
    q2 = ec._scalar_mul_ref(P256, log_q, G)
    cases = [(rng.randrange(N), rng.randrange(1, N), points[i % len(points)])
             for i in range(60)]
    cases += [
        (0, rng.randrange(1, N), q),  # u1 = 0
        (rng.randrange(1, N), N - 1, q),  # u2 = n-1
        (rng.randrange(1, N), rng.randrange(1, N), G),  # pt = G
        (0, N - 1, G),
        (1, N - 1, G),  # the identity: G - G
        (-7 * log_q % N, 7, q2),  # the identity: -7*q2 + 7*q2
    ]
    for u1, u2, pt in cases:
        assert ec.mul_add(P256, u1, u2, pt) == _mul_add_ref(P256, u1, u2, pt), (u1, u2)
    assert ec.mul_add(P256, 1, N - 1, G) == INFINITY
    assert ec.mul_add(P256, -7 * log_q % N, 7, q2) == INFINITY


def test_mul_add_on_toy_matches_the_group_table():
    rng = random.Random(6)
    n, exp = TOY.n, ec._toy_table()[0]
    for _ in range(200):
        u1, u2, log_q = rng.randrange(n), rng.randrange(1, n), rng.randrange(1, n)
        q = exp[log_q]
        assert ec.mul_add(TOY, u1, u2, q) == exp[(u1 + u2 * log_q) % n]


@pytest.mark.parametrize("bad, g", [
    (bad, g)
    for g in (0, 3)
    for bad in (
        INFINITY,
        Point(G.x, (G.y + 1) % P256.p),  # off the curve
        Point(G.x + P256.p, G.y),  # x >= p, wider than a coordinate
        Point(P256.p, 0),  # x >= p, still 32 bytes wide
    )
], ids=[f"{name}{suffix}" for suffix in ("", "-g3")
        for name in ("identity", "off-curve", "x-too-wide", "x-is-p")])
def test_binding_refuses_points_off_the_group(bad, g):
    """Both the one-scalar form (g == 0) and the two-scalar form refuse."""
    with pytest.raises(ec.CurveError):
        ec._p256_mul(5, bad, g)


def test_failed_load_raises_import_error(monkeypatch):
    """A failed load escapes `scalar_mul` and `run_session` as the binding's
    `ImportError`, as the AEAD's does, and is not scored as an abort."""
    suite = CryptoSuite(P256)
    rng = random.Random(1)
    world = build_mun_world(suite, rng)
    ec._libcrypto.cache_clear()
    monkeypatch.setattr(_hashlib, "__file__", "/nonexistent/_hashlib.so")
    try:
        with pytest.raises(ImportError, match="/nonexistent/_hashlib.so"):
            scalar_mul(P256, 5, G)
        with pytest.raises(ImportError, match="/nonexistent/_hashlib.so"):
            run_session(suite, "mun", "foreign-auth", rng, world=world)
    finally:
        monkeypatch.undo()
        ec._libcrypto.cache_clear()
    assert scalar_mul(P256, 5, G) == ec._scalar_mul_ref(P256, 5, G)


def _run_in_subprocess(code, *flags):
    path = [str(Path(ec.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_toy_session_does_not_import_ctypes():
    """A toy mun session uses no OpenSSL binding; a toy proposed session
    binds libcrypto for its AEAD."""
    _run_in_subprocess(
        "import random, sys\n"
        "from roamauth.curve import TOY\n"
        "from roamauth.harness import run_session\n"
        "from roamauth.suite import CryptoSuite\n"
        "res = run_session(CryptoSuite(TOY), 'mun', 'foreign-auth', random.Random(1))\n"
        "assert res.outcome['success'], res.outcome\n"
        "assert 'ctypes' not in sys.modules, 'ctypes imported'\n")


def test_import_loads_no_aead_binding_and_builds_no_toy_table():
    """No `cryptography` module loads on import, in a P-256 mun session or
    in a proposed session on either curve: AES-GCM runs in hashlib's
    libcrypto.  Only the toy session builds the toy table."""
    _run_in_subprocess(
        "import random, sys\n"
        "import roamauth.attacks, roamauth.cli\n"
        "from roamauth import curve\n"
        "from roamauth.harness import run_session\n"
        "from roamauth.suite import CryptoSuite\n"
        "def state():\n"
        "    return (curve._toy_table.cache_info().currsize,\n"
        "            [m for m in sys.modules if m.startswith('cryptography')])\n"
        "assert state() == (0, []), state()\n"
        "for scheme, cp in (('mun', curve.P256), ('proposed', curve.P256)):\n"
        "    res = run_session(CryptoSuite(cp), scheme, 'foreign-auth', random.Random(1))\n"
        "    assert res.outcome['success'] and state() == (0, []), (scheme, state())\n"
        "res = run_session(CryptoSuite(curve.TOY), 'proposed', 'foreign-auth', random.Random(1))\n"
        "assert res.outcome['success'] and state() == (1, []), state()\n")


def test_import_loads_no_dataclasses_inspect_or_typing():
    """The records are built without `dataclasses`, and `typing` loads only
    inside the two loaders that read type hints.  `-S` keeps out site hooks,
    which may import `typing` themselves."""
    _run_in_subprocess(
        "import sys\n"
        "import roamauth.attacks, roamauth.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]\n"
        "assert not loaded, loaded\n", "-S")


def test_p256_session_uses_no_other_ec_binding():
    """P-256 math reaches OpenSSL only through `curve`'s ctypes binding."""
    _run_in_subprocess(
        "import random, sys\n"
        "from roamauth.curve import P256\n"
        "from roamauth.harness import run_session\n"
        "from roamauth.suite import CryptoSuite\n"
        "res = run_session(CryptoSuite(P256), 'proposed', 'foreign-auth', random.Random(1))\n"
        "assert res.outcome['success'], res.outcome\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith('cryptography.hazmat.primitives.asymmetric')]\n"
        "assert loaded == [], loaded\n")


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
    monkeypatch.setattr(ec, "mul_add", _mul_add_ref)
    monkeypatch.setattr(ec, "_p256_mul", _refuse)
    ref = [suite._verify_digest(pub, d, sig) for pub, d, sig in cases]
    assert fast == ref
    assert fast.count(True) == 2 * len(keys)  # exactly the untouched signatures


@pytest.mark.parametrize("size", [16, 48])
def test_any_digest_length_verifies_on_p256(size):
    suite = CryptoSuite(P256)
    priv = 0x1234567
    pub = scalar_mul(P256, priv, G)
    digest = bytes(range(size))
    sig = suite._sign_digest(priv, digest)
    assert suite._verify_digest(pub, digest, sig)
    assert not suite._verify_digest(pub, digest, Signature(sig.r ^ 1, sig.s))


class _CountingLib:
    """Forwards to the real binding and tracks every non-NULL point and
    scalar handle from allocation to free."""

    def __init__(self, lib):
        self.lib = lib
        self.points: set[int] = set()
        self.scalars: set[int] = set()
        self.allocated = 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def EC_POINT_new(self, group):
        return self._track(self.points, self.lib.EC_POINT_new(group))

    def BN_bin2bn(self, data, size, ret):
        return self._track(self.scalars, self.lib.BN_bin2bn(data, size, ret))

    def EC_POINT_free(self, handle):
        self._release(self.points, handle)
        self.lib.EC_POINT_free(handle)

    def BN_clear_free(self, handle):
        self._release(self.scalars, handle)
        self.lib.BN_clear_free(handle)

    def BN_free(self, handle):
        raise AssertionError("a scalar freed without being cleared")

    def _track(self, live, handle):
        if handle:
            assert handle not in live
            live.add(handle)
            self.allocated += 1
        return handle

    @staticmethod
    def _release(live, handle):
        if handle:
            live.remove(handle)  # KeyError: freed twice or never allocated


@pytest.mark.parametrize("case", ["k*G", "k*Q", "mul_add", "off-curve", "off-curve-g3",
                                  "identity-sum", "x-too-wide"])
def test_binding_frees_every_object_and_clears_every_scalar(monkeypatch, points, case):
    proxy = _CountingLib(ec._libcrypto())
    monkeypatch.setattr(ec, "_libcrypto", lambda: proxy)
    q = points[2]
    off = Point(q.x, (q.y + 1) % P256.p)
    run = {
        "k*G": lambda: scalar_mul(P256, 0xC0FFEE, G),
        "k*Q": lambda: scalar_mul(P256, 0xC0FFEE, q),
        "mul_add": lambda: ec.mul_add(P256, 0x1234, 0x5678, q),
        "off-curve": lambda: ec._p256_mul(5, off),
        "off-curve-g3": lambda: ec._p256_mul(5, off, 3),
        "identity-sum": lambda: ec.mul_add(P256, 1, N - 1, G),
        "x-too-wide": lambda: ec._p256_mul(5, Point(G.x + P256.p, G.y)),
    }[case]
    if case.startswith(("off-curve", "x-too")):
        with pytest.raises(ec.CurveError):
            run()
    else:
        run()
    assert proxy.allocated >= 2
    assert proxy.points == set() and proxy.scalars == set()


def test_generator_is_one_object_and_both_forms_reach_openssl(monkeypatch, points):
    """The cached generator, an equal fresh object and any other point go to
    OpenSSL with no Python on-curve check before it: OpenSSL checks."""
    assert P256.generator is P256.generator
    fresh = Point(P256.gx, P256.gy)
    assert fresh is not P256.generator and fresh == P256.generator
    k, bases = 0xBADC0DE, (P256.generator, fresh, points[0])
    expected = [ec._scalar_mul_ref(P256, k, pt) for pt in bases]
    calls, checked = [], []
    real_mul, real_check = ec._p256_mul, ec.is_on_curve
    monkeypatch.setattr(ec, "_p256_mul", lambda k, pt: calls.append(pt) or real_mul(k, pt))
    monkeypatch.setattr(ec, "is_on_curve", lambda cp, pt: checked.append(pt) or real_check(cp, pt))
    assert [scalar_mul(P256, k, pt) for pt in bases] == expected
    assert checked == []
    assert calls == list(bases) and calls[1] is fresh
