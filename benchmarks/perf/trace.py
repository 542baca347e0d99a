"""Spans recorded from outside the program, at each layer's public entry points.

:class:`Tracer` swaps wrappers in around methods and module functions of
``repro`` (see :data:`TARGETS`) without editing a file under ``src/``.
Every call through a wrapper records one span - name, start, end, parent
span and the id of the operation (one statement, or one consensus batch)
that caused it - into flat in-memory arrays; nothing is written or
summarised until the run ends.  A layer's *self time* is its spans'
duration minus the part their child spans cover, so the layers of one
waterfall add up to the wall they were recorded under, and what no span
covers is reported as the unattributed remainder.

Two details make outside-in patching work:

* a function imported by name (``from ..sqlparser.parser import parse``)
  lives on in every importing module's namespace, so a function target is
  replaced wherever a loaded ``repro`` module holds that same object;
* bus handlers are bound methods captured at ``bus.register`` time, before
  a later class patch could reach them.  The few *early* targets (the
  engines' message handlers and the ack channel) are therefore installed
  before set-up builds the engines, and stay dormant - one flag test per
  call - until tracing is switched on.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Iterator, NamedTuple, Optional

_pc = time.perf_counter


class Target(NamedTuple):
    span: str            # "<layer>.<entry point>"
    module: str
    owner: Optional[str]  # class name, or None for a module function
    attr: str
    early: bool = False
    #: also add up ``len(result)`` (the encoders' output bytes)
    sized: bool = False


def _methods(layer: str, module: str, owner: str, *attrs: str,
             early: bool = False) -> list[Target]:
    return [Target(f"{layer}.{a.lstrip('_')}", module, owner, a, early) for a in attrs]


TARGETS: list[Target] = [
    *_methods("client", "repro.client.thin", "ThinClient",
              "sync_headers", "authenticated_range", "authenticated_trace",
              "authenticated_trace_two_index", "verify_transaction"),
    *_methods("node", "repro.node.fullnode", "FullNode",
              "query", "submit_transaction"),
    *_methods("node", "repro.node.auth", "AuthQueryServer",
              "range_vo", "auxiliary_digest", "inclusion_proof"),
    Target("sqlparser.tokenize", "repro.sqlparser.lexer", None, "tokenize"),
    Target("sqlparser.parse", "repro.sqlparser.parser", None, "parse"),
    Target("sqlparser.bind", "repro.sqlparser.parser", None, "bind"),
    *_methods("query", "repro.query.engine", "QueryEngine", "execute"),
    Target("query.optimizer_rank", "repro.query.optimizer.core", "Optimizer", "rank"),
    Target("query.optimizer_plan", "repro.query.optimizer.core", "Optimizer", "plan"),
    Target("index.layered_add_block", "repro.index.layered", "LayeredIndex", "add_block"),
    Target("index.block_add_block", "repro.index.block_index", "BlockIndex", "add_block"),
    Target("index.bitmap_add_block", "repro.index.table_index", "TableBitmapIndex", "add_block"),
    *_methods("index", "repro.index.layered", "LayeredIndex",
              "candidate_blocks_eq", "candidate_blocks_range",
              "search_block", "range_block"),
    *_methods("index", "repro.index.block_index", "BlockIndex",
              "by_bid", "by_tid", "by_timestamp", "window_bitmap"),
    *_methods("index", "repro.index.table_index", "TableBitmapIndex",
              "blocks_for_table", "blocks_for_sender"),
    Target("mht.mbtree_bulk_load", "repro.mht.mbtree", "MBTree", "bulk_load"),
    Target("mht.range_proof", "repro.mht.mbtree", "MBTree", "range_proof"),
    Target("mht.verify_query_vo", "repro.mht.vo", None, "verify_query_vo"),
    *_methods("storage", "repro.storage.blockstore", "BlockStore",
              "append_block", "read_block", "read_transaction"),
    Target("codec.tx_encode", "repro.model.transaction", "Transaction", "to_bytes",
           sized=True),
    Target("codec.tx_decode", "repro.model.transaction", "Transaction", "from_bytes"),
    Target("codec.block_encode", "repro.model.block", "Block", "to_bytes", sized=True),
    Target("codec.block_decode", "repro.model.block", "Block", "from_bytes"),
    *_methods("ledger", "repro.ledger.pipeline", "LedgerPipeline", "commit_batch"),
    Target("crypto.verify_batch", "repro.crypto.batch", None, "verify_batch"),
    Target("crypto.verify", "repro.crypto.schnorr", None, "verify"),
    Target("crypto.sign", "repro.crypto.schnorr", None, "sign"),
    *_methods("consensus", "repro.consensus.kafka", "KafkaOrderer", "submit", "flush"),
    *_methods("consensus", "repro.consensus.pbft", "PBFTCluster", "submit", "flush"),
    Target("consensus.handle", "repro.consensus.pbft", "_Replica", "handle", True),
    Target("consensus.handle", "repro.consensus.broker", "BrokerNode", "_on_message", True),
    Target("consensus.ack", "repro.consensus.base", "AckChannel", "_on_message", True),
    *_methods("network", "repro.network.bus", "MessageBus", "send", "step"),
    *_methods("offchain", "repro.offchain.adapter", "OffChainDatabase",
              "columns", "has_table", "fetch_all", "fetch_sorted", "min_max",
              "distinct_values", "count", "execute"),
]

#: ``MessageBus.schedule`` is patched specially: the *callback* it is
#: handed becomes a span, so a timer's work is charged to the engine that
#: armed it and not to the bus loop that happened to pop it
TIMER_SPAN = "consensus.timer"

LAYERS = (
    "crypto", "ledger", "consensus", "network", "codec", "storage", "index",
    "mht", "sqlparser", "query", "offchain", "node", "client", "harness",
)


class SpanStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Installs the wrappers and owns the span arrays."""

    def __init__(self) -> None:
        self.enabled = False
        #: the harness sets this before each operation it issues
        self.op_id = 0
        self._current = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        #: bytes returned through ``sized`` targets while tracing was on
        self.result_bytes = 0
        #: (namespace object, attribute, original, early) for every live patch
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, span: str, sized: bool = False) -> Callable:
        if sized:
            inner = fn

            def fn(*args: Any, **kwargs: Any) -> Any:
                result = inner(*args, **kwargs)
                if self.enabled:
                    self.result_bytes += len(result)
                return result

        name_id = self._name_id(span)
        names, starts, ends = self._name, self._start, self._end
        parents, ops = self._parent, self._op

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(self._current)
            ops.append(self.op_id)
            ends.append(0.0)
            outer = self._current
            self._current = index
            starts.append(_pc())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = _pc()
                self._current = outer

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, name: str) -> "_SpanContext":
        """An explicit span around harness code (``with tracer.span(...)``)."""
        return _SpanContext(self, self._name_id(name))

    # -- patching ----------------------------------------------------------

    def install(self, early_only: bool = False) -> None:
        """Swap the wrappers in; idempotent per target."""
        patched = {(id(ns), attr) for ns, attr, _orig, _early in self._patches}
        for target in TARGETS:
            if early_only and not target.early:
                continue
            module = importlib.import_module(target.module)
            if target.owner is None:
                self._patch_function(module, target, patched)
            else:
                owner = getattr(module, target.owner)
                if (id(owner), target.attr) not in patched:
                    self._patch_attr(owner, target)
        if not early_only:
            self._patch_schedule(patched)

    def _patch_attr(self, owner: Any, target: Target) -> None:
        original = vars(owner)[target.attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                self._wrap(original.__func__, target.span, target.sized))
        else:
            wrapped = self._wrap(original, target.span, target.sized)
        setattr(owner, target.attr, wrapped)
        self._patches.append((owner, target.attr, original, target.early))

    def _patch_function(self, module: Any, target: Target, patched: set) -> None:
        """Replace a function in every loaded ``repro`` namespace holding it."""
        original = vars(module)[target.attr]
        if hasattr(original, "__wrapped__"):
            return
        wrapped = self._wrap(original, target.span)
        for name, holder in list(sys.modules.items()):
            if holder is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original and (id(holder), attr) not in patched:
                    setattr(holder, attr, wrapped)
                    self._patches.append((holder, attr, original, target.early))

    def _patch_schedule(self, patched: set) -> None:
        from repro.network.bus import MessageBus

        if (id(MessageBus), "schedule") in patched:
            return
        original = MessageBus.schedule
        wrap, tracer = self._wrap, self

        def schedule(bus: Any, delay_ms: float, action: Callable[[], None]) -> None:
            original(bus, delay_ms, wrap(action, TIMER_SPAN) if tracer.enabled else action)

        MessageBus.schedule = schedule  # type: ignore[method-assign]
        self._patches.append((MessageBus, "schedule", original, False))

    def uninstall(self, keep_early: bool = False) -> None:
        """Put the originals back (all of them unless ``keep_early``)."""
        kept = []
        for owner, attr, original, early in reversed(self._patches):
            if keep_early and early:
                kept.append((owner, attr, original, early))
            else:
                setattr(owner, attr, original)
        self._patches = list(reversed(kept))

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: calls, inclusive seconds, self seconds."""
        count = len(self._start)
        child_cover = [0.0] * count
        starts, ends, parents = self._start, self._end, self._parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child_cover[parent] += ends[i] - starts[i]
        calls = [0] * len(self._names)
        total = [0.0] * len(self._names)
        own = [0.0] * len(self._names)
        names = self._name
        for i in range(count):
            duration = ends[i] - starts[i]
            name_id = names[i]
            calls[name_id] += 1
            total[name_id] += duration
            own[name_id] += duration - child_cover[i]
        return {
            name: SpanStats(calls[i], total[i], own[i])
            for i, name in enumerate(self._names)
        }

    def top_level_seconds(self) -> float:
        """Wall covered by spans that have no parent span."""
        starts, ends, parents = self._start, self._end, self._parent
        return sum(ends[i] - starts[i] for i in range(len(starts)) if parents[i] < 0)

    def iter_spans(self) -> Iterator[dict[str, Any]]:
        for i in range(len(self._start)):
            yield {
                "id": i, "name": self._names[self._name[i]],
                "start": self._start[i], "end": self._end[i],
                "parent": self._parent[i], "op": self._op[i],
            }

    def write(self, path: str) -> None:
        """Dump every span as JSON lines (run.py ``--spans FILE``)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.iter_spans():
                fh.write(json.dumps(span) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._index = -1
        self._outer = -1

    def __enter__(self) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        self._index = len(tracer._start)
        tracer._name.append(self._name_id)
        tracer._parent.append(tracer._current)
        tracer._op.append(tracer.op_id)
        tracer._end.append(0.0)
        self._outer = tracer._current
        tracer._current = self._index
        tracer._start.append(_pc())

    def __exit__(self, *exc: object) -> None:
        if self._index >= 0:
            self._tracer._end[self._index] = _pc()
            self._tracer._current = self._outer
            self._index = -1


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def layer_self_seconds(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Self time summed per layer (every layer present, zero when idle)."""
    out = {layer: 0.0 for layer in LAYERS}
    for span, stat in stats.items():
        out[layer_of(span)] = out.get(layer_of(span), 0.0) + stat.self_s
    return out
