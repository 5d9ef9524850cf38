"""The hash-oracle layer.

An oracle built without a seed is the production one: a domain-separated
SHAKE-256 evaluated into the chameleon message space.  An oracle built with
a seed is programmable, a test double: a lazy table filled from a
seed-derived stream, and point reprogramming.  Production signing never
reprograms; only the reduction harness does.
"""

from __future__ import annotations

import hashlib

from .chameleon import ChameleonInstance, sample_message
from .errors import DomainError, FormatError
from .rng import Rng

DEFAULT_DOMAIN_TAG = b"TOO-RO-v1"


def frame(message: bytes, sig: bytes) -> bytes:
    """Injective encoding of a (message, signature) pair for oracle input."""
    if len(message) >= 1 << 32:
        raise FormatError("message too long for 32-bit framing")
    return b"".join((len(message).to_bytes(4, "big"), message, sig))


class OracleContext:
    def __init__(
        self,
        range_instance: ChameleonInstance,  # output space = its message space
        domain_tag: bytes = DEFAULT_DOMAIN_TAG,
        seed: bytes | None = None,  # programmable exactly when set
    ):
        self.range_instance = range_instance
        self.domain_tag = domain_tag
        self.seed = seed
        self._table: dict = {}
        self._stream = None if seed is None else Rng(seed)

    def fresh_value(self):
        """Next uniform message-space element from the seed-derived stream."""
        if self._stream is None:
            raise DomainError("fresh_value needs the programmable oracle")
        return sample_message(self.range_instance, self._stream)

    # -- the oracle interface ----------------------------------------------

    def eval(self, data: bytes):
        if self._stream is None:
            xof = hashlib.shake_256(self.domain_tag)
            xof.update(data)
            return self.range_instance.message_from_xof(xof)
        if data not in self._table:
            self._table[data] = self.fresh_value()
        return self._table[data]

    def program(self, data: bytes, value) -> None:
        if self._stream is None:
            raise DomainError("cannot reprogram the production oracle")
        self._table[data] = value


def production_oracle(
    range_instance: ChameleonInstance, domain_tag: bytes = DEFAULT_DOMAIN_TAG
) -> OracleContext:
    return OracleContext(range_instance=range_instance, domain_tag=domain_tag)


def programmable_oracle(range_instance: ChameleonInstance, seed: bytes) -> OracleContext:
    return OracleContext(range_instance=range_instance, seed=seed)
