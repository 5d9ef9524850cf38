"""Scheme-agnostic signature abstraction and registry.

A base scheme is a (keygen, sign, verify) triple registered under a small
integer id.  Keys, signatures and per-key state are opaque byte strings at
this layer; each scheme module imposes its own structure.  Stateful schemes
carry explicit state in the KeyPair and signing returns the updated state;
the caller persists it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import encoding
from .errors import DomainError, FormatError
from .rng import Rng


# Every base scheme signs a fixed-width digest of the range value, and a
# descriptor's third field says so.  It is the only value the field takes.
MESSAGE_SPACE = b"fixed-width-digest"


class SchemeDescriptor(NamedTuple):
    scheme_id: int
    param_blob: bytes

    def serialize(self) -> bytes:
        return encoding.encode_record(
            encoding.TAG_DESCRIPTOR,
            [bytes([self.scheme_id]), self.param_blob, MESSAGE_SPACE],
        )

    @staticmethod
    def deserialize(blob: bytes) -> "SchemeDescriptor":
        scheme_id, param_blob, space = encoding.decode_fields(
            blob, encoding.TAG_DESCRIPTOR, 3
        )
        if len(scheme_id) != 1:
            raise FormatError("descriptor needs a one-byte scheme id")
        if space != MESSAGE_SPACE:
            raise FormatError("unknown message space kind")
        return SchemeDescriptor(scheme_id=scheme_id[0], param_blob=param_blob)


class KeyPair(NamedTuple):
    public_key: bytes
    secret_key: bytes  # holds the Merkle seed: never printed
    descriptor: SchemeDescriptor
    state: Optional[bytes] = None

    def with_state(self, state: Optional[bytes]) -> "KeyPair":
        return self._replace(state=state)

    def __repr__(self) -> str:
        return (f"KeyPair(public_key={self.public_key!r}, secret_key=<secret>, "
                f"descriptor={self.descriptor!r}, state={self.state!r})")


class Signature(NamedTuple):
    bytes: bytes  # noqa: A003 - field name fixed by the wire contract
    descriptor: SchemeDescriptor


# A dataclass, unlike the records above: the traced benchmark swaps the
# Merkle entry's functions with `dataclasses.replace`, so every process
# imports `dataclasses` until that call changes.
@dataclass(frozen=True)
class SchemeImpl:
    """Registered implementation of one base signature scheme."""

    scheme_id: int
    keygen: Callable[[SchemeDescriptor, Rng], KeyPair]
    sign: Callable[[KeyPair, bytes, Rng], tuple[Signature, Optional[bytes]]]
    verify: Callable[[bytes, bytes, Signature], bool]


_REGISTRY: dict[int, SchemeImpl] = {}


def register_scheme(impl: SchemeImpl) -> None:
    if impl.scheme_id in _REGISTRY:
        raise DomainError(f"scheme id {impl.scheme_id} already registered")
    _REGISTRY[impl.scheme_id] = impl


def get_scheme(scheme_id: int) -> SchemeImpl:
    try:
        return _REGISTRY[scheme_id]
    except KeyError:
        raise DomainError(f"unknown scheme id {scheme_id}") from None


def scheme_keygen(descriptor: SchemeDescriptor, rng: Rng) -> KeyPair:
    return get_scheme(descriptor.scheme_id).keygen(descriptor, rng)


def scheme_sign(kp: KeyPair, message: bytes, rng: Rng) -> tuple[Signature, Optional[bytes]]:
    """Sign, returning the signature and the advanced state (or None)."""
    return get_scheme(kp.descriptor.scheme_id).sign(kp, message, rng)


def scheme_verify(pk: bytes, message: bytes, sig: Signature) -> bool:
    """Total on arbitrary byte strings: malformed input rejects, never raises."""
    try:
        return get_scheme(sig.descriptor.scheme_id).verify(pk, message, sig)
    except Exception:
        return False
