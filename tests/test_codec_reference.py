"""The field codec against a reference written out here: every field is
tag(1) || length(4, big-endian) || payload, whatever the item's type."""

import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roamauth.curve import INFINITY, P256, TOY, Point, enumerate_group, scalar_mul
from roamauth.encoding import EncodingError, decode_concat, encode_concat, field_point

TOY_POINTS = enumerate_group(TOY)  # index 0 is the identity


def _point_payload(cp, pt: Point) -> bytes:
    if pt.x is None:
        return b"\x00"
    w = (cp.p.bit_length() + 7) // 8
    return b"\x04" + pt.x.to_bytes(w, "big") + pt.y.to_bytes(w, "big")


def reference_fields(items, cp) -> list[tuple[int, bytes]]:
    fields = []
    for item in items:
        if isinstance(item, tuple):
            fields.append((item[0], bytes(item[1])))
        elif isinstance(item, Point):
            fields.append((0x02, _point_payload(cp, item)))
        else:
            fields.append((0x01, bytes(item)))
    return fields


def reference_encode(items, cp) -> bytes:
    return b"".join(bytes([tag]) + struct.pack(">I", len(payload)) + payload
                    for tag, payload in reference_fields(items, cp))


def _points(cp):
    if cp is TOY:
        return st.sampled_from(TOY_POINTS)
    return st.one_of(
        st.just(INFINITY),
        st.integers(1, P256.n - 1).map(lambda k: scalar_mul(P256, k, P256.generator)),
    )


def _items(cp):
    return st.lists(st.one_of(
        st.binary(max_size=40),
        st.binary(max_size=40).map(bytearray),
        _points(cp),
        st.tuples(st.integers(0, 255), st.binary(max_size=40)),
    ), max_size=8)


curves_and_items = st.sampled_from([TOY, P256]).flatmap(
    lambda cp: st.tuples(st.just(cp), _items(cp)))


@settings(max_examples=200, deadline=None)
@given(curves_and_items)
def test_encode_concat_matches_the_reference(case):
    cp, items = case
    assert encode_concat(items, cp) == reference_encode(items, cp)


@settings(max_examples=200, deadline=None)
@given(curves_and_items)
def test_decode_concat_round_trips(case):
    cp, items = case
    fields = decode_concat(encode_concat(items, cp))
    assert fields == reference_fields(items, cp)
    for item, field in zip(items, fields):
        if isinstance(item, Point):
            assert field_point(field, cp) == item


@settings(max_examples=100, deadline=None)
@given(curves_and_items,
       st.sampled_from([1.5, "text", Point(TOY.gx, TOY.gy)]),
       st.integers(0, 8))
def test_an_unencodable_item_is_refused(case, bad, at):
    cp, items = case
    items = list(items)
    items.insert(min(at, len(items)), bad)
    with pytest.raises(EncodingError):
        encode_concat(items, None if isinstance(bad, Point) else cp)


@settings(max_examples=200, deadline=None)
@given(curves_and_items, st.data())
def test_a_cut_inside_a_field_is_refused(case, data):
    cp, items = case
    fields = reference_fields(items, cp)
    assume(fields)
    enc = reference_encode(items, cp)
    starts = []
    offset = 0
    for _, payload in fields:
        starts.append(offset)
        offset += 5 + len(payload)
    cut = data.draw(st.integers(1, len(enc) - 1).filter(lambda c: c not in starts))
    start = max(s for s in starts if s < cut)
    expected = "header" if cut < start + 5 else "payload"
    with pytest.raises(EncodingError, match=f"truncated field {expected}"):
        decode_concat(enc[:cut])

