"""Wire-format round trips and malformed-input rejection."""

import pytest
from hypothesis import given, strategies as st

from toosign import encoding
from toosign.errors import FormatError


def test_record_round_trip():
    fields = [b"", b"a", b"hello world", bytes(range(256))]
    blob = encoding.encode_record(encoding.TAG_DESCRIPTOR, fields)
    assert blob[:4] == b"TOO1"
    tag, out = encoding.decode_record(blob)
    assert tag == encoding.TAG_DESCRIPTOR
    assert out == fields


@given(st.lists(st.binary(max_size=64), max_size=8), st.integers(0, 255))
def test_record_round_trip_property(fields, tag):
    tag_, out = encoding.decode_record(encoding.encode_record(tag, fields))
    assert (tag_, out) == (tag, fields)


def test_bad_magic_rejected():
    with pytest.raises(FormatError):
        encoding.decode_record(b"XYZ1\x01")


def test_truncated_record_rejected():
    blob = encoding.encode_record(0x01, [b"abcdef"])
    with pytest.raises(FormatError):
        encoding.decode_record(blob[:-3])


def test_wrong_tag_rejected():
    blob = encoding.encode_record(encoding.TAG_MERKLE_SIG, [b"x"])
    with pytest.raises(FormatError):
        encoding.decode_record(blob, expected_tag=encoding.TAG_DL_INSTANCE)


def test_decode_fields_returns_the_fields_of_a_record_of_that_shape():
    blob = encoding.encode_record(encoding.TAG_TRANSFORMED_SIG, [b"base", b"r"])
    assert encoding.decode_fields(blob, encoding.TAG_TRANSFORMED_SIG, 2) == [b"base", b"r"]


def test_decode_fields_refuses_a_wrong_tag():
    blob = encoding.encode_record(encoding.TAG_TRANSFORMED_SIG, [b"base", b"r"])
    with pytest.raises(FormatError):
        encoding.decode_fields(blob, encoding.TAG_TRANSFORMED_PK, 2)


@pytest.mark.parametrize("count", [1, 3])
def test_decode_fields_refuses_a_wrong_count(count):
    blob = encoding.encode_record(encoding.TAG_TRANSFORMED_SIG, [b"base", b"r"])
    with pytest.raises(FormatError, match=f"needs {count} fields, got 2"):
        encoding.decode_fields(blob, encoding.TAG_TRANSFORMED_SIG, count)


@given(st.integers(0, 2**256))
def test_int_round_trip(x):
    assert encoding.decode_int(encoding.encode_int(x)) == x


def test_int_encoding_is_minimal():
    assert encoding.encode_int(0) == b"\x00"
    assert encoding.encode_int(255) == b"\xff"
    assert encoding.encode_int(256) == b"\x01\x00"


@given(st.binary(max_size=128))
def test_armor_round_trip(blob):
    assert encoding.dearmor(encoding.armor(blob)) == blob


def test_dearmor_tolerates_whitespace():
    assert encoding.dearmor(" 54 4f\n4f31 ") == b"TOO1"
