"""Message framing and nominal size accounting.

Wire format per message: kind id (1 byte) || canonically encoded field list
(see encoding.py).  Each message class subclasses `Message`, a frozen value
record (see record.py), naming its kind id in the class statement and the
cost kind of every field beside the field.  The record base gives the value
semantics; `Message` adds only the wire part.  That one declaration drives
the codec and the cost accounting: the nominal bit widths follow the
standard accounting for this protocol family (group element 1024, identity
160, hash 160, random number 128, symmetric/asymmetric encryption block
1024) regardless of the actual curve encoding in use.

Decoding is canonical: a frame must name a registered kind, carry exactly
that kind's field count with the right tags, fixed-width kinds must have
exactly their width, and a point must be a finite group element (on the
curve, not the identity).  Anything else raises `EncodingError`.  Sealed
payloads and certificates inside messages are decoded with the same checks
(`unpack`), so no protocol step rechecks a received point.
"""

from __future__ import annotations

from .curve import CurveError, CurveParams
from .encoding import EncodingError, decode_concat, encode_concat, field_bytes, field_point
from .record import Record
from .suite import DIGEST_BYTES

NONCE_BYTES = 16  # 128-bit nonces

# Nominal per-field widths in bits.
PARAM_BITS: dict[str, int] = {
    "point": 1024,
    "identity": 160,
    "hash": 160,
    "nonce": 128,
    "sym": 1024,
    "sig": 1024,
}

# Exact payload widths in bytes.  Points are checked by `unpack`, a
# "sig" is two scalars of the curve (2 * scalar_bytes) and "sym" is the only
# variable-width kind.
FIXED_BYTES: dict[str, int] = {"identity": DIGEST_BYTES, "hash": DIGEST_BYTES, "nonce": NONCE_BYTES}


_BY_ID: dict[int, type[Message]] = {}


class Message(Record, frozen=True):
    """Base of every wire message, a frozen record.  A subclass names its kind
    id and kind in the class statement and declares each field, in wire order,
    as `name: type = "kind"`, a key of PARAM_BITS (`user_eph: Point = "point"`).
    The hook takes the kinds off the class (every field is required), records
    the id byte and nominal bits and registers the class under its id; a
    duplicate id or an unknown kind is refused."""

    KIND, _prefix, _kinds, _bits = "", b"", (), 0  # set per subclass, so no field takes these names

    def __init_subclass__(cls, kind_id: int, kind: str, **kwargs) -> None:
        if kind_id in _BY_ID:
            raise ValueError(f"duplicate message kind id {kind_id} "
                             f"({kind!r} and {_BY_ID[kind_id].KIND!r})")
        names = tuple(cls.__dict__.get("__annotations__", ()))
        kinds = tuple(cls.__dict__.get(name) for name in names)
        for name, field_kind in zip(names, kinds):
            if field_kind not in PARAM_BITS:
                raise ValueError(f"{cls.__name__}.{name}: unknown wire field kind {field_kind!r}")
            delattr(cls, name)
        super().__init_subclass__(**kwargs)
        cls.KIND, cls._prefix, cls._kinds = kind, bytes([kind_id]), kinds
        cls._bits = sum(PARAM_BITS[k] for k in kinds)
        _BY_ID[kind_id] = cls


def nominal_bits(msg: Message) -> int:
    return msg._bits


def serialize(cp: CurveParams, msg: Message) -> bytes:
    return msg._prefix + encode_concat([*msg.__dict__.values()], cp)


def deserialize(cp: CurveParams, data: bytes) -> Message:
    if not data:
        raise EncodingError("empty message")
    cls = _BY_ID.get(data[0])
    if cls is None:
        raise EncodingError(f"unknown message kind id {data[0]}")
    return cls(*unpack(cp, data[1:], cls._kinds, cls.KIND))


def unpack(cp: CurveParams, data: bytes, kinds: tuple[str, ...], what: str) -> list:
    """Decode the field list `data` as exactly `kinds`: "point" is a finite
    on-curve point, "sig" is `2 * cp.scalar_bytes` bytes, other kinds are
    bytes of their FIXED_BYTES width, if any.  Anything else raises
    `EncodingError` naming `what`."""
    raw = decode_concat(data)
    if len(raw) != len(kinds):
        raise EncodingError(f"{what}: expected {len(kinds)} fields, got {len(raw)}")
    sig_width = 2 * cp.scalar_bytes
    values = []
    for kind, item in zip(kinds, raw):
        if kind == "point":
            try:
                point = field_point(item, cp)
            except CurveError as exc:
                raise EncodingError(f"{what}: {exc}") from exc
            if point.is_infinity:
                raise EncodingError(f"{what}: point at infinity rejected")
            values.append(point)
            continue
        value = field_bytes(item)
        width = sig_width if kind == "sig" else FIXED_BYTES.get(kind)
        if width is not None and len(value) != width:
            raise EncodingError(f"{what}: {kind} field of {len(value)} bytes, expected {width}")
        values.append(value)
    return values
