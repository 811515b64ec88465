"""Group-law oracles: the toy curve is small enough to check everything by
brute force, and P-256 is anchored to published test vectors."""

import random

import pytest

from roamauth import curve as ec
from roamauth.curve import (
    INFINITY,
    P256,
    TOY,
    CurveError,
    Point,
    brute_force_dlog,
    enumerate_group,
    is_on_curve,
    point_add,
    point_from_bytes,
    point_to_bytes,
    scalar_mul,
    validate_point,
)


@pytest.fixture(scope="module")
def toy_table():
    """k -> k*G for the whole toy group, built by iterated addition only
    (the independent oracle scalar_mul is checked against)."""
    return enumerate_group(TOY)


def test_profiles_validate():
    """Each profile is a non-singular curve with G on it, of order n."""
    for cp in (TOY, P256):
        assert (4 * pow(cp.a, 3, cp.p) + 27 * pow(cp.b, 2, cp.p)) % cp.p != 0, cp.name
        assert is_on_curve(cp, cp.generator), cp.name
        assert scalar_mul(cp, cp.n, cp.generator) == INFINITY, cp.name


def test_toy_group_is_complete(toy_table):
    assert len(toy_table) == TOY.n
    assert len(set(toy_table)) == TOY.n
    assert toy_table[0] is INFINITY
    for pt in toy_table[1:]:
        assert is_on_curve(TOY, pt)


def test_identity_and_inverse_for_every_element(toy_table):
    for pt in toy_table:
        assert point_add(TOY, pt, INFINITY) == pt
        assert point_add(TOY, INFINITY, pt) == pt
    for pt in toy_table[1:]:
        assert point_add(TOY, pt, Point(pt.x, -pt.y % TOY.p)) == INFINITY


def test_group_law_matches_index_arithmetic_sampled(toy_table):
    # Full-pairs exhaustion lives in the acceptance suite; this samples it.
    r = random.Random(7)
    n = TOY.n
    for _ in range(4000):
        a, b = r.randrange(n), r.randrange(n)
        assert point_add(TOY, toy_table[a], toy_table[b]) == toy_table[(a + b) % n]


def test_commutativity_sampled(toy_table):
    r = random.Random(8)
    for _ in range(1000):
        p1, p2 = toy_table[r.randrange(TOY.n)], toy_table[r.randrange(TOY.n)]
        assert point_add(TOY, p1, p2) == point_add(TOY, p2, p1)


def test_associativity_sampled(toy_table):
    r = random.Random(9)
    for _ in range(1000):
        p1 = toy_table[r.randrange(TOY.n)]
        p2 = toy_table[r.randrange(TOY.n)]
        p3 = toy_table[r.randrange(TOY.n)]
        left = point_add(TOY, point_add(TOY, p1, p2), p3)
        right = point_add(TOY, p1, point_add(TOY, p2, p3))
        assert left == right


def test_scalar_mul_matches_iterated_addition_for_every_scalar(toy_table):
    for k in range(1, TOY.n):
        assert scalar_mul(TOY, k, TOY.generator) == toy_table[k]
        assert ec._scalar_mul_ref(TOY, k, TOY.generator) == toy_table[k]
    assert scalar_mul(TOY, TOY.n, TOY.generator) == INFINITY
    assert ec._scalar_mul_ref(TOY, TOY.n, TOY.generator) == INFINITY


def test_toy_table_path_matches_reference(toy_table):
    """The toy fast path (k*Q read from the group table) against the
    Jacobian reference: every k in [1, n] on four bases, and a few k on every
    finite point."""
    n = TOY.n
    r = random.Random(12)
    seeded_point = toy_table[r.randrange(2, n - 1)]
    for q in (TOY.generator, Point(TOY.gx, -TOY.gy % TOY.p), toy_table[5], seeded_point):
        for k in range(1, n + 1):
            assert scalar_mul(TOY, k, q) == ec._scalar_mul_ref(TOY, k, q), (k, q)
    seeded_k = r.randrange(3, n - 1)
    for q in toy_table[1:]:
        for k in (1, 2, n - 1, n, seeded_k):
            assert scalar_mul(TOY, k, q) == ec._scalar_mul_ref(TOY, k, q), (k, q)


def test_toy_edge_inputs_take_the_reference_path(monkeypatch):
    calls = []
    real = ec._scalar_mul_ref
    monkeypatch.setattr(ec, "_scalar_mul_ref",
                        lambda cp, k, pt: calls.append((k, pt)) or real(cp, k, pt))
    g = TOY.generator
    scalar_mul(TOY, 1, g)
    scalar_mul(TOY, TOY.n - 1, g)
    assert calls == []  # in-range scalars on a finite point read the table
    off_curve = Point(2, 3)
    scalar_mul(TOY, TOY.n, g)
    scalar_mul(TOY, 5, INFINITY)
    with pytest.raises(CurveError, match="not on the curve"):
        scalar_mul(TOY, 5, off_curve)  # no table entry: the reference refuses it
    assert calls == [(TOY.n, g), (5, INFINITY), (5, off_curve)]


def _off_curve_points(cp):
    """Finite points that are not group elements: off the curve, and with a
    coordinate >= p, wider than p or not."""
    g = cp.generator
    points = [Point(g.x, (g.y + 1) % cp.p), Point(g.x + cp.p, g.y), Point(cp.p, 0)]
    assert not any(is_on_curve(cp, pt) for pt in points)
    return points


@pytest.mark.parametrize("cp,k", [(cp, k) for cp in (TOY, P256) for k in (2, cp.n - 1, cp.n)],
                         ids=[f"{name}-{k}" for name in ("toy", "p256") for k in ("2", "n-1", "n")])
def test_off_curve_point_raises(cp, k):
    """No multiplication path computes on a point outside the group: the
    table, OpenSSL and the reference each raise `CurveError`."""
    for off in _off_curve_points(cp):
        for u1 in (0, 1):
            with pytest.raises(CurveError):
                ec.mul_add(cp, u1, k, off)
        with pytest.raises(CurveError):
            scalar_mul(cp, k, off)
        with pytest.raises(CurveError):
            ec._scalar_mul_ref(cp, k, off)


def test_scalar_mul_identity_and_order():
    pt = scalar_mul(TOY, 5, TOY.generator)
    assert scalar_mul(TOY, 1, pt) == pt
    assert scalar_mul(P256, 1, P256.generator) == P256.generator
    assert scalar_mul(P256, P256.n, P256.generator) == INFINITY


def test_scalar_mul_rejects_out_of_range():
    for bad in (0, -1, TOY.n + 1):
        with pytest.raises(CurveError):
            scalar_mul(TOY, bad, TOY.generator)
    with pytest.raises(CurveError):
        scalar_mul(TOY, 2.5, TOY.generator)


def test_ecdh_commutes_on_toy_curve(toy_table):
    r = random.Random(10)
    for _ in range(300):
        a = r.randrange(1, TOY.n)
        c = r.randrange(1, TOY.n)
        a_pub = scalar_mul(TOY, a, TOY.generator)
        c_pub = scalar_mul(TOY, c, TOY.generator)
        shared1 = scalar_mul(TOY, a, c_pub)
        shared2 = scalar_mul(TOY, c, a_pub)
        assert shared1 == shared2 == toy_table[(a * c) % TOY.n]


def test_p256_known_public_key():
    # Deterministic-ECDSA reference key: priv -> (Ux, Uy).
    priv = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
    pub = scalar_mul(P256, priv, P256.generator)
    assert pub.x == 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
    assert pub.y == 0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299


def test_p256_small_multiples_against_affine_chain():
    acc = INFINITY
    for k in range(1, 12):
        acc = point_add(P256, acc, P256.generator)
        assert scalar_mul(P256, k, P256.generator) == acc


def test_point_encoding_roundtrip(toy_table):
    for pt in list(toy_table)[:40] + [INFINITY]:
        assert point_from_bytes(TOY, point_to_bytes(TOY, pt)) == pt
    g = P256.generator
    assert point_from_bytes(P256, point_to_bytes(P256, g)) == g


def test_point_decoding_rejects_garbage():
    with pytest.raises(CurveError):
        point_from_bytes(TOY, b"\x04" + b"\x00" * 4)  # wrong length
    # valid length, but not on the curve
    w = TOY.coord_bytes
    bad = b"\x04" + (2).to_bytes(w, "big") + (3).to_bytes(w, "big")
    assert not is_on_curve(TOY, Point(2, 3))
    with pytest.raises(CurveError):
        point_from_bytes(TOY, bad)


def test_validate_point_contract():
    with pytest.raises(CurveError):
        validate_point(TOY, INFINITY)
    with pytest.raises(CurveError):
        validate_point(TOY, Point(2, 3))
    assert validate_point(TOY, TOY.generator) == TOY.generator


def test_brute_force_dlog_recovers_scalars(toy_table):
    """The oracle against the group walked by iterated addition: every
    element's log, and None for the identity and for points off the curve."""
    for k in range(1, TOY.n):
        assert brute_force_dlog(TOY, toy_table[k]) == k
    assert brute_force_dlog(TOY, INFINITY) is None
    for off in _off_curve_points(TOY):
        assert brute_force_dlog(TOY, off) is None


def test_brute_force_dlog_refuses_large_groups():
    with pytest.raises(CurveError):
        brute_force_dlog(P256, P256.generator)
    with pytest.raises(CurveError):
        enumerate_group(P256)
