"""Message framing and nominal size accounting.

Wire format per message: kind id (1 byte) || canonically encoded field list
(see encoding.py).  Each message class is a frozen dataclass whose fields
are all declared with `wire_field(kind)`, and is registered under an
explicit kind id.  That one declaration drives the codec and the cost
accounting: the nominal bit widths follow the standard accounting for this
protocol family (group element 1024, identity 160, hash 160, random number
128, symmetric/asymmetric encryption block 1024) regardless of the actual
curve encoding in use.

Decoding is canonical: a frame must name a registered kind, carry exactly
that kind's field count with the right tags, and fixed-width kinds must
have exactly their width.  Anything else raises `EncodingError`.  Sealed
payloads inside messages are decoded with the same checks (`unpack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

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


def wire_field(kind: str) -> Any:
    """Declare a message field and its cost kind (a key of PARAM_BITS)."""
    if kind not in PARAM_BITS:
        raise ValueError(f"unknown wire field kind {kind!r}")
    return field(metadata={"wire": kind})


@dataclass(frozen=True)
class _Spec:
    cls: type
    prefix: bytes              # the kind id byte
    names: tuple[str, ...]
    kinds: tuple[str, ...]
    bits: int


_BY_ID: dict[int, _Spec] = {}
_BY_CLASS: dict[type, _Spec] = {}


def register_message(kind_id: int):
    """Class decorator: make a message dataclass serializable under `kind_id`."""

    def register(cls: type) -> type:
        if kind_id in _BY_ID:
            raise ValueError(f"duplicate message kind id {kind_id} "
                             f"({cls.KIND!r} and {_BY_ID[kind_id].cls.KIND!r})")
        spec_fields = fields(cls)
        if any("wire" not in f.metadata for f in spec_fields):
            raise ValueError(f"{cls.__name__}: every field must be a wire_field")
        kinds = tuple(f.metadata["wire"] for f in spec_fields)
        spec = _Spec(cls, bytes([kind_id]), tuple(f.name for f in spec_fields), kinds,
                     sum(PARAM_BITS[k] for k in kinds))
        _BY_ID[kind_id] = _BY_CLASS[cls] = spec
        return cls

    return register


def nominal_bits(msg) -> int:
    return _BY_CLASS[type(msg)].bits


def serialize(cp: CurveParams, msg) -> bytes:
    spec = _BY_CLASS[type(msg)]
    return spec.prefix + encode_concat([getattr(msg, n) for n in spec.names], cp)


def deserialize(cp: CurveParams, data: bytes):
    if not data:
        raise EncodingError("empty message")
    spec = _BY_ID.get(data[0])
    if spec is None:
        raise EncodingError(f"unknown message kind id {data[0]}")
    return spec.cls(*unpack(cp, data[1:], spec.kinds, spec.cls.KIND))


def payloads(cls: type, data: bytes) -> list[bytes]:
    """The field payloads of a `cls` frame, checking only its kind id and field
    count.  Decoding is canonical: equal payloads are equal fields."""
    spec = _BY_CLASS[cls]
    raw = decode_concat(data[1:]) if data[:1] == spec.prefix else None
    if raw is None or len(raw) != len(spec.kinds):
        raise EncodingError(f"not a {cls.KIND} frame of {len(spec.kinds)} fields")
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
