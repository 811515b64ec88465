"""Short-Weierstrass elliptic curve groups over prime fields.

Two registered profiles: a tiny curve whose whole group can be enumerated
(used by brute-force oracles in tests and discrete-log demos) and NIST P-256
for full-strength runs.  Nothing here is instrumented; the crypto suite
layers accounting on top.

Which arithmetic serves which profile:

* toy: `scalar_mul` with k in [1, n-1] on a finite on-curve point is a
  table lookup, k*Q = (k * log Q mod n)*G, in a table of the whole group
  built at import by iterated addition.  Every other input (k == n, the
  identity, an off-curve point), and everything else here, is the
  pure-Python code in this module.
* P-256: `scalar_mul` hands scalars in [2, n-2] on a finite on-curve point
  to OpenSSL (through `cryptography`), and `suite` does the same for ECDSA
  verification.  Every other input, and everything else here (point
  addition, encoding, validation), stays in pure Python.

The pure-Python multiplication, `_scalar_mul_ref`, is the reference both fast
paths are tested against.  The adversary's discrete-log oracle,
`brute_force_dlog`, does not use the toy table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from cryptography.hazmat.primitives.asymmetric.ec import (
    ECDH,
    SECP256R1,
    EllipticCurvePublicKey,
    EllipticCurvePublicNumbers,
    derive_private_key,
)


class CurveError(ValueError):
    """Invalid curve parameter, point, or scalar."""


@dataclass(frozen=True)
class Point:
    """Affine point (x, y), or the group identity when both are None."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x:#x}, {self.y:#x})"


INFINITY = Point(None, None)


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + a*x + b over F_p with base point of prime order n."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @property
    def generator(self) -> Point:
        return Point(self.gx, self.gy)

    @cached_property
    def coord_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @cached_property
    def scalar_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def validate(self) -> None:
        if (4 * pow(self.a, 3, self.p) + 27 * pow(self.b, 2, self.p)) % self.p == 0:
            raise CurveError(f"curve {self.name} is singular")
        if not is_on_curve(self, self.generator):
            raise CurveError(f"base point of {self.name} is not on the curve")
        if not scalar_mul(self, self.n, self.generator).is_infinity:
            raise CurveError(f"base point of {self.name} does not have order n")


def is_on_curve(cp: CurveParams, pt: Point) -> bool:
    if pt.is_infinity:
        return True
    assert pt.x is not None and pt.y is not None
    if not (0 <= pt.x < cp.p and 0 <= pt.y < cp.p):
        return False
    return (pt.y * pt.y - (pt.x ** 3 + cp.a * pt.x + cp.b)) % cp.p == 0


def negate(cp: CurveParams, pt: Point) -> Point:
    if pt.is_infinity:
        return INFINITY
    return Point(pt.x, (-pt.y) % cp.p)


def point_add(cp: CurveParams, p1: Point, p2: Point) -> Point:
    """Chord-tangent group law in affine coordinates."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    x1, y1 = p1.x, p1.y
    x2, y2 = p2.x, p2.y
    p = cp.p
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return INFINITY
        lam = (3 * x1 * x1 + cp.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return Point(x3, y3)


def _jac_double(cp: CurveParams, X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
    p = cp.p
    if Y1 == 0 or Z1 == 0:
        return (0, 1, 0)
    XX = X1 * X1 % p
    YY = Y1 * Y1 % p
    YYYY = YY * YY % p
    ZZ = Z1 * Z1 % p
    S = 2 * ((X1 + YY) * (X1 + YY) - XX - YYYY) % p
    M = (3 * XX + cp.a * ZZ % p * ZZ) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YYYY) % p
    Z3 = ((Y1 + Z1) * (Y1 + Z1) - YY - ZZ) % p
    return (X3, Y3, Z3)


def _jac_add(
    cp: CurveParams, P1: tuple[int, int, int], P2: tuple[int, int, int]
) -> tuple[int, int, int]:
    p = cp.p
    X1, Y1, Z1 = P1
    X2, Y2, Z2 = P2
    if Z1 == 0:
        return P2
    if Z2 == 0:
        return P1
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    U2 = X2 * Z1Z1 % p
    S1 = Y1 * Z2 % p * Z2Z2 % p
    S2 = Y2 * Z1 % p * Z1Z1 % p
    if U1 == U2:
        if S1 != S2:
            return (0, 1, 0)
        return _jac_double(cp, X1, Y1, Z1)
    H = (U2 - U1) % p
    I = 4 * H * H % p
    J = H * I % p
    r = 2 * (S2 - S1) % p
    V = U1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * S1 * J) % p
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) % p * H % p
    return (X3, Y3, Z3)


def scalar_mul(cp: CurveParams, k: int, pt: Point) -> Point:
    """k-fold sum of pt; k must lie in [1, n-1] except for the explicit
    order check k == n.

    On P-256, k in [2, n-2] times a finite on-curve point runs in OpenSSL.
    On the toy curve, k in [1, n-1] times a finite on-curve point is read
    from the group table.  Every other call runs `_scalar_mul_ref`.  All
    paths give the same point for every input."""
    if (cp is P256 and isinstance(k, int) and 2 <= k <= cp.n - 2
            and not pt.is_infinity and is_on_curve(cp, pt)):
        return _p256_mul(k, pt)
    # Only finite on-curve points are in _TOY_LOG, so no is_on_curve call.
    if (cp is TOY and isinstance(k, int) and 1 <= k < cp.n
            and (j := _TOY_LOG.get(pt)) is not None):
        return _TOY_EXP[k * j % cp.n]
    return _scalar_mul_ref(cp, k, pt)


def _scalar_mul_ref(cp: CurveParams, k: int, pt: Point) -> Point:
    """Pure-Python double-and-add in Jacobian coordinates; agrees with
    iterated point_add (checked exhaustively on the toy profile)."""
    if not isinstance(k, int):
        raise CurveError("scalar must be an integer")
    if not (1 <= k <= cp.n):
        raise CurveError(f"scalar {k} outside [1, n]")
    if pt.is_infinity:
        return INFINITY
    R = (0, 1, 0)
    Q = (pt.x, pt.y, 1)
    while k:
        if k & 1:
            R = _jac_add(cp, R, Q)
        Q = _jac_double(cp, *Q)
        k >>= 1
    X, Y, Z = R
    if Z == 0:
        return INFINITY
    p = cp.p
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return Point(X * zi2 % p, Y * zi2 % p * zi % p)


_SECP256R1 = SECP256R1()


def p256_public_key(pt: Point) -> EllipticCurvePublicKey:
    """OpenSSL key object for a finite on-curve P-256 point."""
    return EllipticCurvePublicNumbers(pt.x, pt.y, _SECP256R1).public_key()


def _p256_mul(k: int, pt: Point) -> Point:
    """k*pt on P-256 through OpenSSL, for k in [2, n-2] and pt finite and on
    the curve.

    k*G is the public half of the private key k.  For any other pt, ECDH
    gives only x-coordinates: x1 of P1 = k*pt and x3 of P1 + pt = (k+1)*pt.
    With pt = (x2, y2), the chord through P1 and pt has slope
    (y2 - y1)/(x2 - x1) and x3 = slope^2 - x1 - x2, so

        2*y1*y2 = f(x1) + y2^2 - (x3 + x1 + x2)(x2 - x1)^2,  f(x) = x^3 + ax + b

    (Brier and Joye, PKC 2002).  The range of k keeps P1 away from +-pt and
    (k+1)*pt finite, and y2 != 0 because the group has odd order."""
    if pt.x == P256.gx and pt.y == P256.gy:
        pub = derive_private_key(k, _SECP256R1).public_key().public_numbers()
        return Point(pub.x, pub.y)
    peer = p256_public_key(pt)
    x1 = int.from_bytes(derive_private_key(k, _SECP256R1).exchange(ECDH(), peer), "big")
    x3 = int.from_bytes(derive_private_key(k + 1, _SECP256R1).exchange(ECDH(), peer), "big")
    p, x2, y2 = P256.p, pt.x, pt.y
    num = x1 * x1 * x1 + P256.a * x1 + P256.b + y2 * y2 - (x3 + x1 + x2) * (x2 - x1) ** 2
    return Point(x1, num * pow(2 * y2, -1, p) % p)


def point_to_bytes(cp: CurveParams, pt: Point) -> bytes:
    """Canonical encoding: 0x00 for the identity, else uncompressed
    0x04 || x || y with fixed-width coordinates."""
    if pt.is_infinity:
        return b"\x00"
    w = cp.coord_bytes
    return b"\x04" + pt.x.to_bytes(w, "big") + pt.y.to_bytes(w, "big")


def point_from_bytes(cp: CurveParams, data: bytes) -> Point:
    if data == b"\x00":
        return INFINITY
    w = cp.coord_bytes
    if len(data) != 1 + 2 * w or data[0] != 0x04:
        raise CurveError("malformed point encoding")
    x = int.from_bytes(data[1 : 1 + w], "big")
    y = int.from_bytes(data[1 + w :], "big")
    pt = Point(x, y)
    if not is_on_curve(cp, pt):
        raise CurveError("decoded point is not on the curve")
    return pt


def validate_point(cp: CurveParams, pt: Point) -> Point:
    """Ingress validation: on the curve and not the identity.  Both profiles
    have prime order n, so such a point is of order n."""
    if pt.is_infinity:
        raise CurveError("point at infinity rejected")
    if not is_on_curve(cp, pt):
        raise CurveError("point is not on the curve")
    return pt


def enumerate_group(cp: CurveParams) -> list[Point]:
    """All multiples of the generator, index k -> k*G (index 0 = identity).

    Only meaningful for small groups; refuses an order above 2**12.
    """
    if cp.n > 1 << 12:
        raise CurveError(f"group of order {cp.n} too large to enumerate")
    points = [INFINITY]
    acc = INFINITY
    g = cp.generator
    for _ in range(cp.n - 1):
        acc = point_add(cp, acc, g)
        points.append(acc)
    return points


DLOG_MAX_ORDER = 1 << 20  # the largest group order `brute_force_dlog` serves


def brute_force_dlog(cp: CurveParams, target: Point) -> int | None:
    """Exhaustive discrete log: smallest k with k*G == target, or None.

    This is the toy-profile oracle that stands in for breaking the
    discrete-log assumption; it refuses a group order above DLOG_MAX_ORDER.
    """
    if cp.n > DLOG_MAX_ORDER:
        raise CurveError(f"group of order {cp.n} too large to brute-force")
    acc = g = cp.generator
    for k in range(1, cp.n):
        if acc == target:
            return k
        acc = point_add(cp, acc, g)
    return None


# Tiny curve with a prime-order group (727 points including the identity),
# small enough for exhaustive oracles and discrete-log demos.
TOY = CurveParams(
    name="toy-751",
    p=751,
    a=1,
    b=1,
    gx=0,
    gy=1,
    n=727,
)

# NIST P-256 (secp256r1).
P256 = CurveParams(
    name="p256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

# The whole toy group, index k -> k*G, and each finite point's discrete log:
# `scalar_mul` reads toy k*Q as G times k*log(Q) mod n.
_TOY_EXP = enumerate_group(TOY)
_TOY_LOG = {pt: k for k, pt in enumerate(_TOY_EXP) if k}

PROFILES: dict[str, CurveParams] = {
    "toy": TOY,
    "p256": P256,
}


def get_profile(name: str) -> CurveParams:
    try:
        return PROFILES[name]
    except KeyError:
        raise CurveError(
            f"unknown curve profile {name!r}; expected one of {sorted(PROFILES)}"
        ) from None
