"""Metric definitions (name, unit, direction, bound) and how each is derived.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names in
``BENCHMARK.json`` (the smoke test keeps the two in step).  Three kinds of
evidence feed them, and they are never mixed:

* **timed slices, tracing off** - every end-to-end metric, the per-kind
  latencies, and the program's own timers and ratios (``LedgerStats``
  stage times, cache hit ratios);
* **timed slices, tracing on** - span durations and self times per layer;
* **fixed work** - the warm-up every set-up ends with.  It does the same
  operations whatever the machine's speed, so counts taken over it (seeks,
  bytes written, messages per transaction, VO bytes per row, candidates per
  statement) repeat exactly for a seed, which a timed slice's cannot.
"""

# ruff: noqa: I001 - isort would file the benchmark's sibling modules as
# third-party (and ``trace`` as standard library); they are grouped last here.
from __future__ import annotations

import statistics
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from trace import LAYERS, SpanStats, Tracer, layer_self_seconds
from workloads import Check, Slice, Workload


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: bounds are about three times the widest spread (quartile distance over
#: median, ten seeds) any workload showed on the build machine - see the
#: README's repeatability table
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.15),
    Metric("op_ms_p50", "ms", "lower", 0.25),
    Metric("op_ms_p95", "ms", "lower", 0.25),
    Metric("recovery_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

_LEDGER_STAGES = ("validate", "sequence", "package", "persist", "apply", "notify")
_READ_KINDS = ("q2", "q3", "q4", "q5", "q6", "q7")
_AUTH_KINDS = ("sync", "spv", "range", "trace", "two")
MICRO = [
    Metric("calib.pyloop_ms", "ms", "lower"),
    Metric("crypto.micro.scalar_mul_us", "us", "lower"),
    Metric("crypto.micro.msm64_us", "us", "lower"),
    Metric("crypto.micro.verify_batch64_us", "us", "lower"),
    Metric("codec.micro.tx_roundtrip_us", "us", "lower"),
    Metric("storage.micro.segment_append_us", "us", "lower"),
    Metric("storage.micro.segment_read_us", "us", "lower"),
    Metric("index.micro.bptree_insert_us", "us", "lower"),
    Metric("index.micro.bptree_range_us", "us", "lower"),
    Metric("mht.micro.mbtree_proof_us", "us", "lower"),
    Metric("sqlparser.micro.tokenize_us", "us", "lower"),
    Metric("query.micro.optimizer_rank_us", "us", "lower"),
    Metric("network.micro.bus_roundtrip_us", "us", "lower"),
]

PER_LAYER = [
    # what the folded end-to-end names hide: one row per operation kind
    Metric("write.tps", "1/s", "higher"),
    Metric("write.commit_ms_p50", "ms", "lower"),
    Metric("write.commit_ms_p95", "ms", "lower"),
    Metric("read.qps", "1/s", "higher"),
    *(Metric(f"read.{kind}_ms_p50", "ms", "lower") for kind in _READ_KINDS),
    Metric("auth.qps", "1/s", "higher"),
    Metric("auth.ms_p50", "ms", "lower"),
    Metric("auth.ms_p95", "ms", "lower"),
    Metric("crypto.verify_ms_per_tx", "ms", "lower"),
    Metric("crypto.batch_calls", "count", "lower"),
    Metric("crypto.single_checks", "count", "lower"),
    Metric("crypto.sign_ms_per_tx", "ms", "lower"),
    *(Metric(f"ledger.{stage}_ms", "ms", "lower") for stage in _LEDGER_STAGES),
    Metric("ledger.txs_per_block", "count", "higher"),
    Metric("ledger.rejected", "count", "lower"),
    Metric("consensus.order_ms_per_tx", "ms", "lower"),
    Metric("consensus.submit_us", "us", "lower"),
    Metric("consensus.msgs_per_tx", "count", "lower"),
    Metric("consensus.txs_per_batch", "count", "higher"),
    Metric("consensus.view_changes", "count", "lower"),
    Metric("network.bus_msgs_sent", "count", "lower"),
    Metric("network.bus_events", "count", "lower"),
    Metric("network.deliver_us", "us", "lower"),
    Metric("codec.tx_encode_us", "us", "lower"),
    Metric("codec.tx_decode_us", "us", "lower"),
    Metric("codec.block_encode_us", "us", "lower"),
    Metric("codec.block_decode_us", "us", "lower"),
    Metric("codec.bytes_encoded", "bytes", "lower"),
    Metric("storage.append_ms_per_block", "ms", "lower"),
    Metric("storage.read_block_us", "us", "lower"),
    Metric("storage.read_tx_us", "us", "lower"),
    Metric("storage.bytes_written", "bytes", "lower"),
    Metric("storage.bytes_per_user_byte", "ratio", "lower"),
    Metric("storage.seeks", "count", "lower"),
    Metric("storage.page_transfers", "count", "lower"),
    Metric("storage.modelled_io_ms", "ms", "lower"),
    Metric("storage.block_cache_hit_ratio", "ratio", "higher"),
    Metric("storage.tx_cache_hit_ratio", "ratio", "higher"),
    Metric("storage.recovery_ms", "ms", "lower"),
    Metric("index.add_block_ms", "ms", "lower"),
    Metric("index.lookup_us", "us", "lower"),
    Metric("mht.mbtree_build_ms_per_block", "ms", "lower"),
    Metric("mht.range_proof_us", "us", "lower"),
    Metric("mht.verify_vo_ms", "ms", "lower"),
    Metric("mht.vo_bytes_per_row", "bytes", "lower"),
    Metric("sqlparser.parse_us", "us", "lower"),
    Metric("query.optimize_us", "us", "lower"),
    Metric("query.candidates_per_query", "count", "lower"),
    Metric("query.exec_ms", "ms", "lower"),
    Metric("query.operator_us_per_row", "us", "lower"),
    Metric("query.rows_examined_per_row", "ratio", "lower"),
    *(Metric(f"query.{kind}_ms_p95", "ms", "lower") for kind in _READ_KINDS),
    Metric("offchain.sqlite_ms", "ms", "lower"),
    Metric("node.query_overhead_us", "us", "lower"),
    Metric("node.range_vo_ms", "ms", "lower"),
    Metric("node.aux_digest_ms", "ms", "lower"),
    Metric("node.inclusion_proof_us", "us", "lower"),
    Metric("client.auth_self_ms", "ms", "lower"),
    Metric("client.header_sync_ms", "ms", "lower"),
    Metric("client.spv_verify_us", "us", "lower"),
    # the waterfall: each layer's self time as a share of the traced wall
    *(Metric(f"share.{layer}", "ratio", "lower") for layer in LAYERS),
    Metric("share.unattributed", "ratio", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    *MICRO,
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for an empty one)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1000.0


def _median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def primary_latencies(workload: str, measured: Slice) -> list[float]:
    """The latency sample behind ``op_ms_*`` for this workload."""
    if workload in ("write_signed", "write_pbft"):
        return measured.latencies.get("commit", [])
    kinds = _READ_KINDS if workload == "read_mix" else _AUTH_KINDS
    return [v for kind in kinds for v in measured.latencies.get(kind, [])]


def end_to_end(
    workload: str, setup_s: float, measured: Slice, check: Check, peak_rss_mb: float
) -> dict[str, float]:
    sample = primary_latencies(workload, measured)
    return {
        "setup_s": setup_s,
        "ops_per_s": measured.ops / measured.wall if measured.wall else 0.0,
        "op_ms_p50": _median_ms(sample),
        "op_ms_p95": _ms(sample, 95),
        "recovery_s": check.recovery_s,
        "peak_rss_mb": peak_rss_mb,
    }


def kind_metrics(untraced: Slice) -> dict[str, float]:
    """Per-kind throughput and latency, from the untraced slices."""
    lat = untraced.latencies
    commits = lat.get("commit", [])
    reads = [v for kind in _READ_KINDS for v in lat.get(kind, [])]
    auths = [v for kind in _AUTH_KINDS for v in lat.get(kind, [])]
    # in auth_mixed writes and reads alternate, so each kind's throughput
    # is taken over the wall its own operations occupied
    write_wall = untraced.wall - sum(auths) if auths else untraced.wall
    out = {
        "write.tps": len(commits) / write_wall if commits and write_wall > 0 else 0.0,
        "write.commit_ms_p50": _median_ms(commits),
        "write.commit_ms_p95": _ms(commits, 95),
        "read.qps": len(reads) / untraced.wall if reads else 0.0,
        "auth.qps": len(auths) / sum(auths) if auths else 0.0,
        "auth.ms_p50": _median_ms(auths),
        "auth.ms_p95": _ms(auths, 95),
    }
    for kind in _READ_KINDS:
        out[f"read.{kind}_ms_p50"] = _median_ms(lat.get(kind, []))
        out[f"query.{kind}_ms_p95"] = _ms(lat.get(kind, []), 95)
    return out


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def per_layer(
    *,
    untraced: Slice,
    traced: Slice,
    tracer: Tracer,
    span_scale: float,
    timed: Mapping[str, float],
    workload: Workload,
    check: Check,
    micro: Mapping[str, float],
    calib_ms: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run (zero where a layer idles).

    ``timed`` holds public-counter deltas over the untraced slices; the
    workload's ``fixed`` holds the same counters over its warm-up's
    ``fixed_ops`` operations.  Span durations are raw; ``span_scale`` brings
    them to the reference speed the slices are already at.
    """
    spans = tracer.stats()
    fixed, fixed_extra = workload.fixed, workload.fixed_extra
    fixed_ops = workload.fixed_ops

    def span(name: str) -> SpanStats:
        stat = spans.get(name, SpanStats(0, 0.0, 0.0))
        return SpanStats(stat.calls, stat.total_s * span_scale, stat.self_s * span_scale)

    def total_us(name: str) -> float:
        return _per(span(name).total_s, span(name).calls) * 1e6

    def self_of(*names: str) -> float:
        return sum(span(name).self_s for name in names)

    out = kind_metrics(untraced)
    txs = len(traced.latencies.get("commit", []))
    statements = sum(len(traced.latencies.get(kind, [])) for kind in _READ_KINDS)
    auth_ops = sum(len(traced.latencies.get(kind, [])) for kind in _AUTH_KINDS)

    verify_s = span("crypto.verify").total_s + span("crypto.verify_batch").total_s
    out["crypto.verify_ms_per_tx"] = _per(verify_s, txs) * 1e3
    out["crypto.batch_calls"] = span("crypto.verify_batch").calls
    out["crypto.single_checks"] = span("crypto.verify").calls
    out["crypto.sign_ms_per_tx"] = workload.sign_ms_per_tx

    for stage in _LEDGER_STAGES:
        out[f"ledger.{stage}_ms"] = _per(
            timed.get(f"stage_{stage}_ms", 0.0), timed.get(f"stage_{stage}_calls", 0.0))
    out["ledger.txs_per_block"] = _per(fixed.get("txs", 0.0), fixed.get("blocks", 0.0))
    out["ledger.rejected"] = timed.get("rejected", 0.0)

    consensus_self = self_of(*(n for n in spans if n.startswith("consensus.")))
    out["consensus.order_ms_per_tx"] = _per(consensus_self, txs) * 1e3
    out["consensus.submit_us"] = total_us("consensus.submit")
    out["consensus.msgs_per_tx"] = _per(
        fixed.get("bus_msgs_sent", 0.0), fixed.get("committed", 0.0))
    out["consensus.txs_per_batch"] = _per(
        fixed.get("committed", 0.0), fixed.get("batches", 0.0))
    out["consensus.view_changes"] = timed.get("view_changes", 0.0)

    out["network.bus_msgs_sent"] = fixed.get("bus_msgs_sent", 0.0)
    out["network.bus_events"] = float(untraced.bus_events)
    out["network.deliver_us"] = _per(
        span("network.step").self_s, span("network.step").calls) * 1e6

    for name in ("tx_encode", "tx_decode", "block_encode", "block_decode"):
        out[f"codec.{name}_us"] = _per(
            span(f"codec.{name}").self_s, span(f"codec.{name}").calls) * 1e6
    out["codec.bytes_encoded"] = float(tracer.result_bytes)

    appends = span("storage.append_block")
    out["storage.append_ms_per_block"] = _per(appends.total_s, appends.calls) * 1e3
    out["storage.read_block_us"] = total_us("storage.read_block")
    out["storage.read_tx_us"] = total_us("storage.read_transaction")
    out["storage.bytes_written"] = fixed.get("bytes_written", 0.0)
    out["storage.bytes_per_user_byte"] = _per(
        fixed.get("bytes_written", 0.0), fixed_extra.get("user_bytes", 0.0))
    out["storage.seeks"] = fixed.get("seeks", 0.0)
    out["storage.page_transfers"] = fixed.get("page_transfers", 0.0)
    out["storage.modelled_io_ms"] = fixed.get("modelled_io_ms", 0.0)
    for cache in ("block", "tx"):
        hits, misses = timed.get(f"{cache}_hits", 0.0), timed.get(f"{cache}_misses", 0.0)
        out[f"storage.{cache}_cache_hit_ratio"] = _per(hits, hits + misses)
    out["storage.recovery_ms"] = check.recovery_s * 1e3

    add_block = ("index.layered_add_block", "index.block_add_block",
                 "index.bitmap_add_block")
    out["index.add_block_ms"] = _per(
        sum(span(n).total_s for n in add_block), span("index.block_add_block").calls) * 1e3
    lookups = [n for n in spans if n.startswith("index.") and n not in add_block]
    reads = statements + auth_ops
    out["index.lookup_us"] = _per(self_of(*lookups), reads) * 1e6

    builds = span("mht.mbtree_bulk_load")
    out["mht.mbtree_build_ms_per_block"] = _per(
        builds.total_s, span("index.block_add_block").calls) * 1e3
    out["mht.range_proof_us"] = total_us("mht.range_proof")
    out["mht.verify_vo_ms"] = total_us("mht.verify_query_vo") / 1e3
    out["mht.vo_bytes_per_row"] = _per(
        fixed_extra.get("vo_bytes", 0.0), fixed_extra.get("vo_rows", 0.0))

    out["sqlparser.parse_us"] = _per(
        span("sqlparser.parse").total_s + span("sqlparser.bind").total_s,
        statements) * 1e6
    optimize = span("query.optimizer_plan")
    out["query.optimize_us"] = _per(optimize.total_s, optimize.calls) * 1e6
    out["query.candidates_per_query"] = _per(
        fixed_extra.get("candidates", 0.0), fixed_ops)
    exec_self = span("query.execute").self_s
    out["query.exec_ms"] = _per(exec_self, statements) * 1e3
    operator_rows = _per(fixed_extra.get("operator_rows", 0.0), fixed_ops)
    out["query.operator_us_per_row"] = _per(
        _per(exec_self, statements) * 1e6, operator_rows)
    out["query.rows_examined_per_row"] = _per(
        fixed_extra.get("operator_rows", 0.0), fixed_extra.get("result_rows", 0.0))
    offchain = [n for n in spans if n.startswith("offchain.")]
    out["offchain.sqlite_ms"] = _per(
        self_of(*offchain), len(traced.latencies.get("q6", []))) * 1e3

    out["node.query_overhead_us"] = _per(
        span("node.query").self_s, span("node.query").calls) * 1e6
    out["node.range_vo_ms"] = total_us("node.range_vo") / 1e3
    out["node.aux_digest_ms"] = total_us("node.auxiliary_digest") / 1e3
    out["node.inclusion_proof_us"] = total_us("node.inclusion_proof")
    client_reads = ("client.authenticated_range", "client.authenticated_trace",
                    "client.authenticated_trace_two_index")
    verified_reads = sum(
        len(traced.latencies.get(kind, [])) for kind in ("range", "trace", "two"))
    out["client.auth_self_ms"] = _per(self_of(*client_reads), verified_reads) * 1e3
    out["client.header_sync_ms"] = total_us("client.sync_headers") / 1e3
    out["client.spv_verify_us"] = _per(
        span("client.verify_transaction").self_s,
        span("client.verify_transaction").calls) * 1e6

    layer_s = layer_self_seconds(spans)
    for layer in LAYERS:
        out[f"share.{layer}"] = _per(layer_s[layer] * span_scale, traced.wall)
    out["share.unattributed"] = _per(
        traced.wall - tracer.top_level_seconds() * span_scale, traced.wall)
    out["trace.overhead_frac"] = (
        _per(untraced.ops, untraced.wall) / _per(traced.ops, traced.wall) - 1.0
        if traced.ops and traced.wall else 0.0
    )
    out["calib.pyloop_ms"] = calib_ms
    out.update(micro)
    return out


def waterfall(per_layer_values: Mapping[str, Any]) -> list[tuple[str, float]]:
    """(layer, share of traced wall) sorted by share, remainder last."""
    shares = [(layer, float(per_layer_values.get(f"share.{layer}", 0.0)))
              for layer in LAYERS]
    shares.sort(key=lambda item: item[1], reverse=True)
    shares.append(("unattributed", float(per_layer_values.get("share.unattributed", 0.0))))
    return shares
