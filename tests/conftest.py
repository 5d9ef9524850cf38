"""Fixtures shared by the test modules."""

import pytest

from toosign import merkle


@pytest.fixture(autouse=True)
def no_kept_leaf_hashes():
    """Each test starts with no Merkle leaf hashes kept by keygens of an
    earlier test, so no outcome depends on which tests ran before it."""
    merkle._KEPT.clear()


def _spy_on(oracle) -> list[tuple[str, bytes]]:
    """Records ("eval" | "program", data) for each call on this oracle object.

    The oracle keeps no log of its own.  The recording wrappers are set on
    the object, so the class and every other oracle are left as they are.
    """
    events = []
    for kind in ("eval", "program"):

        def record(data, *args, kind=kind, method=getattr(oracle, kind)):
            events.append((kind, data))
            return method(data, *args)

        setattr(oracle, kind, record)
    return events


@pytest.fixture
def oracle_spy():
    """spy(oracle) -> the list its eval and program calls are appended to."""
    return _spy_on
