"""Canonical, injective byte encoding for protocol fields.

Every field is framed as tag(1) || length(4, big-endian) || payload, so no
two distinct field sequences can serialize to the same bytes.  All hash and
cipher inputs in the protocol go through this framing; bare concatenation is
never used.
"""

from __future__ import annotations

import struct

from .curve import CurveParams, Point, point_from_bytes, point_to_bytes

TAG_BYTES = 0x01
TAG_POINT = 0x02

Field = tuple[int, bytes]

_BYTES_TAG = bytes([TAG_BYTES])
_POINT_TAG = bytes([TAG_POINT])
_HEADER = struct.Struct(">BI")  # tag, payload length


class EncodingError(ValueError):
    """Malformed field framing."""


def _frame(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def encode_field(item: object, cp: CurveParams | None = None) -> bytes:
    if isinstance(item, Point):
        if cp is None:
            raise EncodingError("encoding a point requires curve parameters")
        payload = point_to_bytes(cp, item)
        return _POINT_TAG + len(payload).to_bytes(4, "big") + payload
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], int):
        tag, payload = item
        return _frame(tag, payload)
    if isinstance(item, (bytes, bytearray)):
        return _frame(TAG_BYTES, bytes(item))
    raise EncodingError(f"cannot encode field of type {type(item).__name__}")


def encode_concat(items: list | tuple, cp: CurveParams | None = None) -> bytes:
    """Injective encoding of an ordered field list.  `bytes` items, the most
    common, are framed here; every other item goes through `encode_field`."""
    return b"".join([_BYTES_TAG + len(item).to_bytes(4, "big") + item if type(item) is bytes
                     else encode_field(item, cp) for item in items])


def decode_concat(data: bytes) -> list[Field]:
    """Inverse of encode_concat; returns (tag, payload) pairs."""
    fields: list[Field] = []
    end = len(data)
    i = 0
    while i < end:
        if i + 5 > end:
            raise EncodingError("truncated field header")
        tag, length = _HEADER.unpack_from(data, i)
        i += 5
        if i + length > end:
            raise EncodingError("truncated field payload")
        fields.append((tag, data[i : i + length]))
        i += length
    return fields


def field_bytes(field: Field) -> bytes:
    tag, payload = field
    if tag != TAG_BYTES:
        raise EncodingError(f"expected byte field, got tag {tag}")
    return payload


def field_point(field: Field, cp: CurveParams) -> Point:
    tag, payload = field
    if tag != TAG_POINT:
        raise EncodingError(f"expected point field, got tag {tag}")
    return point_from_bytes(cp, payload)
