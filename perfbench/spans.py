"""Span recording for the traced benchmark run.

`installed(recorder)` wraps the public functions of each toosign layer where
their callers look them up: module globals (also copies imported by name into
other toosign modules), class methods, and the Merkle entry of the scheme
registry.  On exit it puts the originals back, so the untraced run executes
the program's own code.

Each span keeps a stack frame, so its self time excludes its child spans.
Spans are aggregated in memory per bucket ("setup" for key generation and
other untimed preparation, "steps" for the timed closed-loop steps) and
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import sys
import time

# span name -> layer its self time is charged to
LAYER_OF = {
    "rng.random_bytes": "rng",
    "rng.fork": "rng",
    "gaussian.sample_vector": "gaussian",
    "sis.sample_preimage": "sis",
    "sis.sample_trapdoor": "sis",
    "chameleon.hg": "chameleon",
    "chameleon.sample_message": "chameleon",
    "chameleon.sample_randomness": "chameleon",
    "chameleon.sample_range": "chameleon",
    "chameleon.ch_invert": "chameleon",
    "chameleon.ch_hash": "chameleon",
    "oracle.eval": "oracle",
    "oracle.program": "oracle",
    "oracle.fresh_value": "oracle",
    "merkle.keygen": "merkle",
    "merkle.sign": "merkle",
    "merkle.verify": "merkle",
    "encoding.encode_record": "encoding",
    "encoding.decode_record": "encoding",
    "transform.sig_serialize": "encoding",
    "transform.sig_deserialize": "encoding",
    "transform.g_prime": "transform",
    "transform.s_prime": "transform",
    "transform.v_prime": "transform",
    "games.challenger_setup": "games",
    "games.challenger_sign": "games",
    "games.challenger_verify": "games",
    "games.classify_extract": "games",
    "games.run_game": "games",
    "games.game_report": "games",
    "cli.import": "cli",
    "cli.main": "cli",
}

LAYERS = sorted(set(LAYER_OF.values()))


def _empty_bucket() -> dict:
    # self_ns: span -> self times; count: counter -> total;
    # edges: "parent>child" -> calls; values: name -> observed values
    return {"self_ns": {}, "count": {}, "edges": {}, "values": {}}


class Recorder:
    def __init__(self):
        self._stack: list[list] = []
        self.buckets = {"setup": _empty_bucket(), "steps": _empty_bucket()}
        self.bucket_name = "setup"
        self.bucket = self.buckets["setup"]

    def use(self, bucket: str) -> None:
        self.bucket_name = bucket
        self.bucket = self.buckets[bucket]

    def wrap(self, name: str, fn, note=None):
        """`fn` recorded as span `name`; `note(recorder, args)` adds counters."""
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [name, 0]  # span name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.record(name, elapsed - frame[1])
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edge = parent[0] + ">" + name
                    edges = self.bucket["edges"]
                    edges[edge] = edges.get(edge, 0) + 1
                if note is not None:
                    note(self, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self, name: str, self_ns: int) -> None:
        self.bucket["self_ns"].setdefault(name, []).append(self_ns)

    def add(self, counter: str, n: int) -> None:
        count = self.bucket["count"]
        count[counter] = count.get(counter, 0) + n

    def value(self, name: str, v) -> None:
        self.bucket["values"].setdefault(name, []).append(v)

    def merge(self, buckets: dict) -> None:
        """Adds the buckets another process recorded."""
        for key, src in buckets.items():
            dst = self.buckets[key]
            for field in ("self_ns", "values"):
                for name, xs in src[field].items():
                    dst[field].setdefault(name, []).extend(xs)
            for field in ("count", "edges"):
                for name, n in src[field].items():
                    dst[field][name] = dst[field].get(name, 0) + n


# ---------------------------------------------------------------------------
# counters attached to spans


def _note_random_bytes(rec, args):
    rec.add("rng.random_bytes.bytes", args[1])


def _note_samples(rec, args):
    rec.add("gaussian.samples", args[2])


def _note_eval(rec, args):
    rec.add("oracle.eval.bytes", len(args[1]))


def _note_encode(rec, args):
    rec.add("encoding.encode_record.bytes", 5 + sum(4 + len(f) for f in args[1]))


def _note_decode(rec, args):
    rec.add("encoding.decode_record.bytes", len(args[0]))


def _note_merkle_sign(rec, args):
    kp = args[0]
    height = kp.descriptor.param_blob[0]
    next_leaf = int.from_bytes(kp.state or bytes(8), "big")
    rec.value("merkle.leaves_left", (1 << height) - next_leaf - 1)


# ---------------------------------------------------------------------------
# installation


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wraps every layer's public functions for the duration of the block."""
    from toosign import (
        chameleon,
        encoding,
        games,
        gaussian,
        merkle,
        oracle,
        registry,
        rng,
        sis,
        transform,
    )

    restore = []

    def method(cls, attr, name, note=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, rec.wrap(name, orig, note))
        restore.append(lambda: setattr(cls, attr, orig))

    def function(module, attr, name, note=None):
        # callers that imported the function by name hold their own reference
        orig = getattr(module, attr)
        wrapped = rec.wrap(name, orig, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "toosign" and not mod_name.startswith("toosign."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    restore.append(lambda mod=mod, key=key: setattr(mod, key, orig))

    try:  # undo a partial installation too
        method(rng.Rng, "random_bytes", "rng.random_bytes", _note_random_bytes)
        method(rng.Rng, "fork", "rng.fork")
        method(gaussian.DiscreteGaussian, "sample_vector", "gaussian.sample_vector",
               _note_samples)
        function(sis, "sample_preimage", "sis.sample_preimage")
        function(sis, "sample_trapdoor", "sis.sample_trapdoor")
        for attr in ("hg", "sample_message", "sample_randomness", "sample_range",
                     "ch_invert", "ch_hash"):
            function(chameleon, attr, "chameleon." + attr)
        method(oracle.OracleContext, "eval", "oracle.eval", _note_eval)
        method(oracle.OracleContext, "program", "oracle.program")
        method(oracle.OracleContext, "fresh_value", "oracle.fresh_value")
        function(encoding, "encode_record", "encoding.encode_record", _note_encode)
        function(encoding, "decode_record", "encoding.decode_record", _note_decode)
        method(transform.TransformedSignature, "serialize", "transform.sig_serialize")
        function(transform, "deserialize_signature", "transform.sig_deserialize")
        for attr in ("g_prime", "s_prime", "v_prime"):
            function(transform, attr, "transform." + attr)
        function(games, "make_transformed_challenger", "games.challenger_setup")
        method(games.RawChallenger, "__init__", "games.challenger_setup")
        for cls in (games.RawChallenger, games.TransformedChallenger):
            method(cls, "sign", "games.challenger_sign")
            method(cls, "verify", "games.challenger_verify")
        for attr in ("classify_forgery", "case1_extract", "case2_extract"):
            function(games, attr, "games.classify_extract")
        function(games, "run_game", "games.run_game")
        function(games, "game_report", "games.game_report")

        # the registry holds its own references to the Merkle functions
        impl = registry._REGISTRY[merkle.SCHEME_ID_MERKLE]
        registry._REGISTRY[impl.scheme_id] = dataclasses.replace(
            impl,
            keygen=rec.wrap("merkle.keygen", impl.keygen),
            sign=rec.wrap("merkle.sign", impl.sign, _note_merkle_sign),
            verify=rec.wrap("merkle.verify", impl.verify),
        )
        restore.append(lambda: registry._REGISTRY.__setitem__(impl.scheme_id, impl))
        yield rec
    finally:
        for undo in reversed(restore):
            undo()


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: Recorder, steps: int, traced_ns: int) -> dict:
    """Per-layer metrics of the traced steps.

    Counts are per closed-loop step; `.us`/`.ms` are median self times per
    call over all buckets (key generation runs in "setup"); `.share` is a
    layer's self time in the steps divided by the traced step time.  A
    metric whose layer is not called on the workload reads 0.
    """
    steps_b = rec.buckets["steps"]
    self_all: dict[str, list] = {}
    for bucket in rec.buckets.values():
        for name, xs in bucket["self_ns"].items():
            self_all.setdefault(name, []).extend(xs)

    def calls(name):
        return len(steps_b["self_ns"].get(name, ()))

    def per_step(n):
        return n / steps if steps else 0.0

    def median(name, unit_ns):
        xs = self_all.get(name)
        return statistics.median(xs) / unit_ns if xs else 0.0

    def edges(parent, *children):
        return sum(steps_b["edges"].get(parent + ">" + c, 0) for c in children)

    def ratio(num, den):
        return num / den if den else 0.0

    layer_ns = dict.fromkeys(LAYERS, 0)
    for name, xs in steps_b["self_ns"].items():
        layer_ns[LAYER_OF[name]] += sum(xs)

    def share(layer):
        return ratio(layer_ns[layer], traced_ns)

    count = steps_b["count"]
    leaves = steps_b["values"].get("merkle.leaves_left")
    preimage_attempts = edges("sis.sample_preimage", "gaussian.sample_vector")
    randomness_attempts = edges(
        "chameleon.sample_randomness", "gaussian.sample_vector", "rng.random_bytes"
    )
    return {
        "rng.random_bytes.calls": per_step(calls("rng.random_bytes")),
        "rng.random_bytes.bytes": per_step(count.get("rng.random_bytes.bytes", 0)),
        "rng.share": share("rng"),
        "gaussian.sample_vector.calls": per_step(calls("gaussian.sample_vector")),
        "gaussian.samples": per_step(count.get("gaussian.samples", 0)),
        "gaussian.share": share("gaussian"),
        "sis.sample_preimage.calls": per_step(calls("sis.sample_preimage")),
        "sis.sample_preimage.attempts": per_step(preimage_attempts),
        "sis.sample_preimage.accept_ratio": ratio(
            calls("sis.sample_preimage"), preimage_attempts
        ),
        "sis.sample_preimage.us": median("sis.sample_preimage", 1e3),
        "sis.sample_trapdoor.ms": median("sis.sample_trapdoor", 1e6),
        "sis.share": share("sis"),
        "chameleon.hg.ms": median("chameleon.hg", 1e6),
        "chameleon.sample_range.us": median("chameleon.sample_range", 1e3),
        "chameleon.sample_randomness.accept_ratio": ratio(
            calls("chameleon.sample_randomness"), randomness_attempts
        ),
        "chameleon.ch_invert.us": median("chameleon.ch_invert", 1e3),
        "chameleon.ch_hash.us": median("chameleon.ch_hash", 1e3),
        "chameleon.share": share("chameleon"),
        "oracle.eval.calls": per_step(calls("oracle.eval")),
        "oracle.eval.bytes": per_step(count.get("oracle.eval.bytes", 0)),
        "oracle.eval.us": median("oracle.eval", 1e3),
        "oracle.program.calls": per_step(calls("oracle.program")),
        "oracle.share": share("oracle"),
        "merkle.keygen.ms": median("merkle.keygen", 1e6),
        "merkle.sign.us": median("merkle.sign", 1e3),
        "merkle.verify.us": median("merkle.verify", 1e3),
        "merkle.leaves_left": statistics.median(leaves) if leaves else 0,
        "merkle.share": share("merkle"),
        "encoding.encode_record.bytes": per_step(
            count.get("encoding.encode_record.bytes", 0)
        ),
        "encoding.decode_record.bytes": per_step(
            count.get("encoding.decode_record.bytes", 0)
        ),
        "transform.sig_serialize.us": median("transform.sig_serialize", 1e3),
        "transform.sig_deserialize.us": median("transform.sig_deserialize", 1e3),
        "encoding.share": share("encoding"),
        "transform.s_prime.self_us": median("transform.s_prime", 1e3),
        "transform.v_prime.self_us": median("transform.v_prime", 1e3),
        "transform.share": share("transform"),
        "games.challenger_setup.us": median("games.challenger_setup", 1e3),
        "games.challenger_sign.us": median("games.challenger_sign", 1e3),
        "games.challenger_verify.us": median("games.challenger_verify", 1e3),
        "games.classify_extract.us": median("games.classify_extract", 1e3),
        "games.run_game.self_us": median("games.run_game", 1e3),
        "games.share": share("games"),
        "cli.import.share": ratio(sum(steps_b["self_ns"].get("cli.import", ())), traced_ns),
        "cli.share": share("cli"),
        "trace.coverage": ratio(sum(layer_ns.values()), traced_ns),
    }
