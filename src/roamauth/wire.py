"""Message framing and nominal size accounting.

Wire format per message: kind id (1 byte) || canonically encoded field list
(see encoding.py).  Each message class subclasses `Message`, naming its
kind id in the class statement and the cost kind of every field beside the
field.  That one declaration drives the codec and the cost accounting: the
nominal bit widths follow the standard accounting for this protocol family
(group element 1024, identity 160, hash 160, random number 128,
symmetric/asymmetric encryption block 1024) regardless of the actual curve
encoding in use.

Decoding is canonical: a frame must name a registered kind, carry exactly
that kind's field count with the right tags, and fixed-width kinds must
have exactly their width.  Anything else raises `EncodingError`.  Sealed
payloads inside messages are decoded with the same checks (`unpack`).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import ClassVar

from .curve import CurveError, CurveParams
from .encoding import EncodingError, decode_concat, encode_concat, field_bytes, field_point
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

# Exact payload widths in bytes.  Points are checked by the curve decoder, a
# "sig" is two scalars of the curve (2 * scalar_bytes) and "sym" is the only
# variable-width kind.
FIXED_BYTES: dict[str, int] = {"identity": DIGEST_BYTES, "hash": DIGEST_BYTES, "nonce": NONCE_BYTES}


_BY_ID: dict[int, type[Message]] = {}


class Message:
    """Base of every wire message: an immutable value, equal and hashed by
    its type and field values.

    A subclass names its kind id and kind in the class statement and declares
    each field, in wire order, as `name: type = "kind"`, the kind being a key
    of PARAM_BITS:

        class RefreshRequest(Message, kind_id=8, kind="refresh-request"):
            user_eph: Point = "point"

    The subclass hook records the field names, kinds and nominal bits once
    and registers the class under its id; a duplicate id or a field of
    unknown kind is refused.  Instances are built by position or keyword
    with every field, keep their fields in wire order, and refuse assignment
    with `FrozenInstanceError`; `replace` makes a changed copy."""

    KIND: ClassVar[str]
    _prefix: ClassVar[bytes]  # the kind id byte
    _names: ClassVar[tuple[str, ...]]
    _kinds: ClassVar[tuple[str, ...]]
    _bits: ClassVar[int]

    def __init_subclass__(cls, kind_id: int, kind: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if kind_id in _BY_ID:
            raise ValueError(f"duplicate message kind id {kind_id} "
                             f"({kind!r} and {_BY_ID[kind_id].KIND!r})")
        names = tuple(cls.__dict__.get("__annotations__", ()))
        kinds = tuple(cls.__dict__.get(name) for name in names)
        for name, field_kind in zip(names, kinds):
            if field_kind not in PARAM_BITS:
                raise ValueError(f"{cls.__name__}.{name}: unknown wire field kind {field_kind!r}")
            delattr(cls, name)
        cls.KIND, cls._prefix, cls._names, cls._kinds = kind, bytes([kind_id]), names, kinds
        cls._bits = sum(PARAM_BITS[k] for k in kinds)
        _BY_ID[kind_id] = cls

    def __init__(self, *args, **kwargs) -> None:
        names = self._names
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; "
                                f"got {len(args)} by position and {sorted(kwargs)} by keyword")
            args = (*args, *(kwargs[name] for name in rest))
        self.__dict__.update(zip(names, args))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes) -> Message:
        """A copy with `changes` applied; an unknown field raises `TypeError`."""
        return type(self)(**{**self.__dict__, **changes})


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


def payloads(cls: type[Message], data: bytes) -> list[bytes]:
    """The field payloads of a `cls` frame, checking only its kind id and field
    count.  Decoding is canonical: equal payloads are equal fields."""
    raw = decode_concat(data[1:]) if data[:1] == cls._prefix else None
    if raw is None or len(raw) != len(cls._kinds):
        raise EncodingError(f"not a {cls.KIND} frame of {len(cls._kinds)} fields")
    return [payload for _tag, payload in raw]


def unpack(cp: CurveParams, data: bytes, kinds: tuple[str, ...], what: str) -> list:
    """Decode the field list `data` as exactly `kinds`: "point" is an on-curve
    point, "sig" is `2 * cp.scalar_bytes` bytes, other kinds are bytes of their
    FIXED_BYTES width, if any.  Anything else raises `EncodingError` naming
    `what`."""
    raw = decode_concat(data)
    if len(raw) != len(kinds):
        raise EncodingError(f"{what}: expected {len(kinds)} fields, got {len(raw)}")
    sig_width = 2 * cp.scalar_bytes
    values = []
    for kind, item in zip(kinds, raw):
        if kind == "point":
            try:
                values.append(field_point(item, cp))
            except CurveError as exc:
                raise EncodingError(f"{what}: {exc}") from exc
            continue
        value = field_bytes(item)
        width = sig_width if kind == "sig" else FIXED_BYTES.get(kind)
        if width is not None and len(value) != width:
            raise EncodingError(f"{what}: {kind} field of {len(value)} bytes, expected {width}")
        values.append(value)
    return values
