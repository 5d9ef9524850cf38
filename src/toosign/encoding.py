"""Deterministic binary wire format used by every serialized object.

A record is: magic ``54 4F 4F 31`` ("TOO1"), one tag byte, then each field
as a 4-byte big-endian length prefix followed by the raw bytes.  The text
("armored") form is the lowercase hex of the binary form.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FormatError

MAGIC = b"TOO1"

# Record tags.  One byte each; unique across the toolkit.
TAG_DESCRIPTOR = 0x01
TAG_MERKLE_SIG = 0x02
TAG_MERKLE_PK = 0x03
TAG_MERKLE_SK = 0x04
TAG_DL_INSTANCE = 0x10
TAG_DL_TRAPDOOR = 0x11
TAG_SIS_INSTANCE = 0x12
TAG_SIS_TRAPDOOR = 0x13
TAG_RANGE_ELEMENT = 0x14
TAG_RANDOMNESS = 0x15
TAG_TRANSFORMED_SIG = 0x20
TAG_TRANSFORMED_PK = 0x21
TAG_TRANSFORMED_SK = 0x22


def encode_record(tag: int, fields: Sequence[bytes]) -> bytes:
    if not 0 <= tag <= 0xFF:
        raise FormatError(f"tag {tag} out of byte range")
    out = bytearray(MAGIC)
    out.append(tag)
    for f in fields:
        if len(f) >= 1 << 32:
            raise FormatError("field too long for 32-bit length prefix")
        out += len(f).to_bytes(4, "big")
        out += f
    return bytes(out)


def decode_record(blob: bytes, expected_tag: int | None = None) -> tuple[int, list[bytes]]:
    if len(blob) < 5 or blob[:4] != MAGIC:
        raise FormatError("bad magic")
    tag = blob[4]
    if expected_tag is not None and tag != expected_tag:
        raise FormatError(f"expected record tag {expected_tag}, got {tag}")
    fields = []
    pos = 5
    while pos < len(blob):
        if pos + 4 > len(blob):
            raise FormatError("truncated length prefix")
        n = int.from_bytes(blob[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(blob):
            raise FormatError("truncated field")
        fields.append(blob[pos : pos + n])
        pos += n
    return tag, fields


def decode_fields(blob: bytes, tag: int, count: int) -> list[bytes]:
    """The fields of a record with this tag and exactly count fields."""
    _, fields = decode_record(blob, tag)
    if len(fields) != count:
        raise FormatError(f"record {tag} needs {count} fields, got {len(fields)}")
    return fields


def encode_int(x: int) -> bytes:
    """Minimal big-endian encoding of a non-negative integer (0 -> b'\\x00')."""
    if x < 0:
        raise FormatError("negative integer")
    return x.to_bytes(max(1, (x.bit_length() + 7) // 8), "big")


def decode_int(b: bytes) -> int:
    """Inverse of encode_int; refuses every encoding encode_int does not write."""
    if not b or (b[0] == 0 and len(b) > 1):
        raise FormatError("integer encoding is empty or has a leading zero byte")
    return int.from_bytes(b, "big")


def armor(blob: bytes) -> str:
    return blob.hex()


def dearmor(text: str) -> bytes:
    try:
        return bytes.fromhex(text.strip())
    except ValueError as e:
        raise FormatError("bad hex armor") from e
