"""Short-Weierstrass elliptic curve groups over prime fields.

Two registered profiles: a tiny curve whose whole group can be enumerated
(used by brute-force oracles in tests and discrete-log demos) and NIST P-256
for full-strength runs.  Nothing here is instrumented; the crypto suite
layers accounting on top.

Which arithmetic serves which profile:

* toy: `scalar_mul` with k in [1, n-1] on a finite point is a table
  lookup, k*Q = (k * log Q mod n)*G, in a table of the whole group built by
  iterated addition on first use (`_toy_table`).  The same table's log is
  the adversary's discrete-log oracle, `brute_force_dlog`.
* P-256: `scalar_mul` hands scalars in [1, n-1] on a finite point to one
  OpenSSL `EC_POINT_mul`, bound through ctypes in the libcrypto that
  `hashlib` already loads; `_p256_mul` encodes the scalar and point itself,
  and OpenSSL refuses a point off the curve.  `mul_add`, the ECDSA
  verification sum u1*G + u2*Q, is one two-scalar `EC_POINT_mul` on the
  same binding.  No other module reaches OpenSSL for P-256 arithmetic;
  `suite`'s AES-GCM uses the same binding (`_libcrypto`), without the group.
* P-256, long-term points: a point that a caller marks `long_term` (the
  home agent's key C on the user's card) has its uses counted, by every
  k*Q on it, the foreign agent's included.  Its use that reaches
  `TABLE_BREAK_EVEN` builds a copy of the group with C as generator and
  OpenSSL's precomputed multiples of it (`_p256_table`), and from then on
  k*C is the same constant-time comb as k*G.  A point that only arrives in
  messages is never counted, and at most `TABLE_CAP` tables are held.

Every other multiplication (k == n, the identity) is `_scalar_mul_ref`, the
pure-Python reference the fast paths are tested against; on the toy curve
`mul_add` is `point_add` over two `scalar_mul` calls.  Every path refuses a
point off the curve with `CurveError`.
"""

from __future__ import annotations

import threading
from functools import cache, cached_property

from .record import Record


class CurveError(ValueError):
    """Invalid curve parameter, point, or scalar."""


class Point(Record, frozen=True):
    """Affine point (x, y), or the group identity when both are None.  Compared and
    hashed by hand (it keys the toy table)."""

    x: int | None
    y: int | None

    def __eq__(self, other) -> bool:
        if type(other) is not Point:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x:#x}, {self.y:#x})"


INFINITY = Point(None, None)


class CurveParams(Record, frozen=True):
    """y^2 = x^3 + a*x + b over F_p with base point of prime order n."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @cached_property
    def generator(self) -> Point:
        return Point(self.gx, self.gy)

    @cached_property
    def coord_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @cached_property
    def scalar_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


def is_on_curve(cp: CurveParams, pt: Point) -> bool:
    if pt.is_infinity:
        return True
    assert pt.x is not None and pt.y is not None
    if not (0 <= pt.x < cp.p and 0 <= pt.y < cp.p):
        return False
    return (pt.y * pt.y - (pt.x ** 3 + cp.a * pt.x + cp.b)) % cp.p == 0


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


def scalar_mul(cp: CurveParams, k: int, pt: Point, *, long_term: bool = False) -> Point:
    """k-fold sum of pt; k must lie in [1, n-1] except for the explicit
    order check k == n, and pt must be a group element.

    On P-256, k in [1, n-1] times a finite point runs in OpenSSL, through
    pt's fixed-base table if it has one.  `long_term` says that the caller
    holds pt from its own records, not from a message, and starts counting
    pt's uses toward a table (see `_count_use`); every k*pt on a counted
    point counts.  On the toy curve, the same inputs are read from the group
    table.  Every other call runs `_scalar_mul_ref`.  All paths give the
    same point for every element and raise `CurveError` for a point off the
    curve."""
    if cp is P256 and isinstance(k, int) and 1 <= k < cp.n and not pt.is_infinity:
        key = (pt.x, pt.y)
        with _table_lock:
            if (table := _tables.pop(key, None)) is not None:
                _tables[key] = table  # now the most recently used
                return _p256_mul(k, pt, table=table)
        product = _p256_mul(k, pt)
        if key in _table_uses or long_term and key != (cp.gx, cp.gy):
            with _table_lock:
                _count_use(key)
        return product
    if cp is TOY and isinstance(k, int) and 1 <= k < cp.n:
        exp, log = _toy_table()
        # Every finite on-curve point has a log; the reference refuses the rest.
        if (j := log.get(pt)) is not None:
            return exp[k * j % cp.n]
    return _scalar_mul_ref(cp, k, pt)


def _scalar_mul_ref(cp: CurveParams, k: int, pt: Point) -> Point:
    """Pure-Python double-and-add in Jacobian coordinates; agrees with
    iterated point_add (checked exhaustively on the toy profile).  A point
    off the curve raises `CurveError`."""
    if not isinstance(k, int):
        raise CurveError("scalar must be an integer")
    if not (1 <= k <= cp.n):
        raise CurveError(f"scalar {k} outside [1, n]")
    if pt.is_infinity:
        return INFINITY
    if not is_on_curve(cp, pt):
        raise CurveError("point is not on the curve")
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


def mul_add(cp: CurveParams, u1: int, u2: int, pt: Point) -> Point:
    """u1*G + u2*pt for public scalars u1 in [0, n-1] and u2 in [1, n-1] and
    pt a finite group element: the sum an ECDSA verifier checks.  The sum
    may be the identity; a pt off the curve raises `CurveError`.

    On P-256 it is one two-scalar OpenSSL `EC_POINT_mul`, which does not run
    in constant time, so it must never see a secret scalar.  On any other
    curve it is `point_add` over two `scalar_mul` calls."""
    if cp is P256:
        return _p256_mul(u2, pt, u1)
    return point_add(cp, scalar_mul(cp, u1, cp.generator) if u1 else INFINITY,
                     scalar_mul(cp, u2, pt))


_NID_P256 = 415  # NID_X9_62_prime256v1
_UNCOMPRESSED = 4  # POINT_CONVERSION_UNCOMPRESSED

# Fixed-base tables for long-term P-256 points.  Renting is a variable-base
# product; buying is a table, after which each product is cheaper.  Best of
# 15 runs on a shared 2-CPU x86-64 host (Python 3.11.7, OpenSSL 3.0.19): a
# build takes 29.5 ms, and a product 22.5 us through a table against 79 us
# without, a saving of 56.5 us per use.  So a table pays for itself after
# 29.5 ms / 56.5 us = 522 uses, and a point buys its table at its 520th: the
# ski-rental rule, which never spends more than about twice the best choice
# made in hindsight.
TABLE_BREAK_EVEN = 520
TABLE_CAP = 16  # tables held, 148 KiB of points each, least recently used out first
TABLE_USES_CAP = 64  # counted points without a table, least recently used out first
_table_uses: dict[tuple[int, int], int] = {}  # (x, y) -> uses so far, oldest first
_tables: dict[tuple[int, int], int] = {}  # (x, y) -> `EC_GROUP *`, oldest first
# Held by every product through a table and by every count, build and
# eviction, so no thread frees a table that another is multiplying with.
_table_lock = threading.Lock()


@cache
def _libcrypto():
    """The libcrypto that `_hashlib` links, bound through ctypes: one `CDLL`
    and one signature table, for P-256 here and AES-GCM in `suite`.

    The symbols resolve through `_hashlib`'s own libcrypto dependency, so no
    new library enters the process.  Loaded on first use, so a toy mun run
    never imports ctypes; a failed load raises `ImportError` naming the path."""
    import ctypes

    P, C, I, S = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int, ctypes.c_size_t
    signatures = {
        "EC_GROUP_new_by_curve_name": (P, [I]),
        "EC_POINT_new": (P, [P]),
        "EC_POINT_free": (None, [P]),
        "EC_POINT_oct2point": (I, [P, P, C, S, P]),
        "EC_POINT_mul": (I, [P, P, P, P, P, P]),
        "EC_POINT_point2oct": (S, [P, P, I, P, S, P]),
        "BN_bin2bn": (P, [C, I, P]),
        "BN_clear_free": (None, [P]),
        "ERR_clear_error": (None, []),
        **{f"EVP_aes_{bits}_gcm": (P, []) for bits in (128, 192, 256)},
        "EVP_CIPHER_CTX_new": (P, []),
        "EVP_CIPHER_CTX_free": (None, [P]),
        "EVP_CIPHER_CTX_ctrl": (I, [P, I, I, P]),
        "EVP_CipherInit_ex": (I, [P, P, P, C, C, I]),
        "EVP_CipherUpdate": (I, [P, P, P, C, I]),
        "EVP_CipherFinal_ex": (I, [P, P, P]),
    }
    path = "_hashlib"
    try:
        import _hashlib

        path = _hashlib.__file__
        lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError) as exc:
        raise ImportError(f"cannot bind libcrypto through {path}: {exc}") from None
    return lib


@cache
def _p256_group(lib):
    """P-256's group in `lib`, and the ctypes type of a 65-byte point buffer."""
    import ctypes

    group = lib.EC_GROUP_new_by_curve_name(_NID_P256)
    if not group:
        lib.ERR_clear_error()
        raise CurveError("libcrypto has no P-256 group")
    return group, ctypes.c_char * 65


def _p256_mul(k: int, pt: Point, g: int = 0, table: int | None = None) -> Point:
    """g*G + k*pt on P-256 with one OpenSSL `EC_POINT_mul`, for pt finite and
    on the curve.

    With g == 0 it is k*pt: a pt with G's coordinates takes OpenSSL's
    generator path and any other pt its one-point path; both run in constant
    time (nistz256 where built, else the Montgomery ladder), so k may be
    secret.  A product that is not finite raises `CurveError`.  With
    `table`, pt's group from `_p256_table`, k*pt takes that group's
    generator path, the same constant-time comb as k*G.

    With g != 0 it is the two-scalar sum behind `mul_add`.  OpenSSL computes
    it with an interleaved multi-scalar method that does not run in
    constant time, so g and k must be public.  A sum that is the identity
    returns `INFINITY`.

    Scalars cross as 32 and points as 65 bytes, encoded here.  The identity
    as pt, a point off the curve or with a coordinate >= p and a scalar that
    does not fit 32 bytes each raise `CurveError`, a failed load `ImportError`.
    Every OpenSSL object is freed, each scalar with `BN_clear_free`, and none
    outlives the call, a `BN_CTX` included."""
    if pt.is_infinity:
        raise CurveError("point at infinity rejected")
    lib = _libcrypto()
    group, Buffer = _p256_group(lib)
    if table:
        group = table
    out = Buffer()
    bn = bn_g = q = r = None
    try:
        bn = lib.BN_bin2bn(k.to_bytes(32, "big"), 32, None)
        r = lib.EC_POINT_new(group)
        if not bn or not r:
            raise CurveError("libcrypto allocation failed")
        if table or not g and pt.x == P256.gx and pt.y == P256.gy:
            ok = lib.EC_POINT_mul(group, r, bn, None, None, None)
        else:
            if g:
                bn_g = lib.BN_bin2bn(g.to_bytes(32, "big"), 32, None)
            q = lib.EC_POINT_new(group)
            if (g and not bn_g) or not q:
                raise CurveError("libcrypto allocation failed")
            encoding = b"\x04" + pt.x.to_bytes(32, "big") + pt.y.to_bytes(32, "big")
            if lib.EC_POINT_oct2point(group, q, encoding, 65, None) != 1:
                raise CurveError("point is not on the curve")
            ok = lib.EC_POINT_mul(group, r, bn_g, q, bn, None)
        if ok != 1:
            raise CurveError("EC_POINT_mul failed")
        size = lib.EC_POINT_point2oct(group, r, _UNCOMPRESSED, out, 65, None)
        if size == 1 and g:
            return INFINITY
        if size != 65:
            raise CurveError("product is not a finite point")
    except OverflowError:
        raise CurveError("scalar or coordinate does not fit P-256") from None
    except CurveError:
        lib.ERR_clear_error()
        raise
    finally:
        # OpenSSL's frees accept NULL: skipping one never allocated changes nothing
        if q:
            lib.EC_POINT_free(q)
        lib.EC_POINT_free(r)
        if bn_g:
            lib.BN_clear_free(bn_g)
        lib.BN_clear_free(bn)
    raw = out.raw
    return Point(int.from_bytes(raw[1:33], "big"), int.from_bytes(raw[33:], "big"))


def _count_use(key: tuple[int, int]) -> None:
    """One more use of the counted P-256 point `key`, which has no table.
    The use that reaches `TABLE_BREAK_EVEN` builds its table, and the point
    leaves the count; a table that cannot be built starts the count again.
    An evicted table is freed, and its point is counted again only once a
    `long_term` product starts it anew."""
    uses = _table_uses.pop(key, 0) + 1
    table = _p256_table(*key) if uses >= TABLE_BREAK_EVEN else None
    if table is None:
        _table_uses[key] = uses if uses < TABLE_BREAK_EVEN else 0
        if len(_table_uses) > TABLE_USES_CAP:
            del _table_uses[next(iter(_table_uses))]
        return
    _tables[key] = table
    if len(_tables) > TABLE_CAP:
        _libcrypto().EC_GROUP_free(_tables.pop(next(iter(_tables))))


def _p256_table(x: int, y: int) -> int | None:
    """A copy of P-256's group whose generator is the point (x, y), on the
    curve, with OpenSSL's precomputed multiples of it; or None where none can
    be built (no memory, or a libcrypto without `EC_GROUP_precompute_mult`,
    which OpenSSL 3.0 deprecates).  It holds multiples of a public point
    only; the caller frees it with `EC_GROUP_free`."""
    lib = _libcrypto()
    if not _table_calls(lib):
        return None
    group, _ = _p256_group(lib)
    table = lib.EC_GROUP_dup(group)
    gen = lib.EC_POINT_new(table) if table else None
    encoding = b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
    built = bool(gen) and (
        lib.EC_POINT_oct2point(table, gen, encoding, 65, None) == 1
        and lib.EC_GROUP_set_generator(table, gen, lib.EC_GROUP_get0_order(group),
                                       lib.EC_GROUP_get0_cofactor(group)) == 1
        and lib.EC_GROUP_precompute_mult(table, None) == 1)
    lib.EC_POINT_free(gen)
    if built:
        return table
    lib.EC_GROUP_free(table)
    lib.ERR_clear_error()
    return None


@cache
def _table_calls(lib) -> bool:
    """Whether `lib` has the calls that build and free a table, now bound."""
    import ctypes

    P, I = ctypes.c_void_p, ctypes.c_int
    signatures = {
        "EC_GROUP_dup": (P, [P]),
        "EC_GROUP_free": (None, [P]),
        "EC_GROUP_get0_order": (P, [P]),
        "EC_GROUP_get0_cofactor": (P, [P]),
        "EC_GROUP_set_generator": (I, [P, P, P, P]),
        "EC_GROUP_precompute_mult": (I, [P, P]),
    }
    try:
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except AttributeError:
        return False
    return True


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


@cache
def _toy_table() -> tuple[list[Point], dict[Point, int]]:
    """The whole toy group, index k -> k*G, and each finite point's discrete
    log: `scalar_mul` reads toy k*Q as G times k*log(Q) mod n.  Built on the
    first toy multiplication or oracle call, so a P-256 run never builds it."""
    exp = enumerate_group(TOY)
    return exp, {pt: k for k, pt in enumerate(exp) if k}


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


def brute_force_dlog(cp: CurveParams, target: Point) -> int | None:
    """Discrete log on the toy curve: the k in [1, n-1] with k*G == target,
    or None for the identity and for a point off the curve.

    This is the oracle that stands in for breaking the discrete-log
    assumption; it reads the exhaustive toy table and refuses any other curve.
    """
    if cp is not TOY:
        raise CurveError(f"group of order {cp.n} too large to brute-force")
    return _toy_table()[1].get(target)


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
