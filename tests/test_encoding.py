"""Injectivity and roundtrip properties of the canonical field encoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamauth.curve import TOY, INFINITY
from roamauth.encoding import (
    TAG_BYTES,
    EncodingError,
    decode_concat,
    encode_concat,
    field_bytes,
    field_point,
)


def test_roundtrip_typed_fields():
    items = [b"alpha", TOY.generator, b"", INFINITY]
    fields = decode_concat(encode_concat(items, TOY))
    assert field_bytes(fields[0]) == b"alpha"
    assert field_point(fields[1], TOY) == TOY.generator
    assert field_bytes(fields[2]) == b""
    assert field_point(fields[3], TOY) == INFINITY


def test_injectivity_against_trailing_empty_field():
    assert encode_concat([b"x"]) != encode_concat([b"x", b""])


def test_encoding_differs_from_bare_concatenation():
    assert encode_concat([b"ab", b"c"]) != encode_concat([b"a", b"bc"])
    assert encode_concat([b"abc"]) != encode_concat([b"ab", b"c"])


def test_boundary_split_fuzz():
    # 10^4 random two-way splits of random payloads: no two distinct splits
    # may encode identically.
    r = random.Random(55)
    for _ in range(10_000):
        blob = r.randbytes(r.randrange(2, 40))
        i = r.randrange(1, len(blob))
        j = r.randrange(1, len(blob))
        enc_i = encode_concat([blob[:i], blob[i:]])
        enc_j = encode_concat([blob[:j], blob[j:]])
        assert (enc_i == enc_j) == (i == j)


@settings(max_examples=300)
@given(st.lists(st.binary(max_size=32), max_size=6))
def test_roundtrip_property(items):
    fields = decode_concat(encode_concat(items))
    assert [field_bytes(f) for f in fields] == items
    assert all(tag == TAG_BYTES for tag, _ in fields)


@settings(max_examples=300)
@given(
    st.lists(st.binary(max_size=16), max_size=5),
    st.lists(st.binary(max_size=16), max_size=5),
)
def test_injectivity_property(a, b):
    if a != b:
        assert encode_concat(a) != encode_concat(b)


def test_decode_rejects_truncation():
    good = encode_concat([b"hello", b"world"])
    with pytest.raises(EncodingError):
        decode_concat(good[:-1])
    with pytest.raises(EncodingError):
        decode_concat(good[:3])


def test_unencodable_type_rejected():
    with pytest.raises(EncodingError):
        encode_concat([3.14])


def test_point_requires_curve_params():
    with pytest.raises(EncodingError):
        encode_concat([TOY.generator])
