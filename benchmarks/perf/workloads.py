"""The four workloads: set-up, one timed slice, correctness checks.

Each workload drives the system through its public API only - ``FullNode``,
``KafkaOrderer``, ``PBFTCluster``, ``MessageBus``, ``ThinClient``,
``AuthQueryServer`` - from one thread, with every node on its own on-disk
``data_dir``.  Load is closed-loop: a client submits its next operation
only after the previous one was answered.  README.md records why each
workload and each size was chosen.

A workload object lives for one run: ``setup`` builds the nodes, ``run``
measures one slice of ``seconds`` wall seconds and may be called again
(the chain keeps growing), ``check`` verifies what the run produced.
"""

# ruff: noqa: I001 - isort would file the benchmark's sibling modules as
# third-party (and ``trace`` as standard library); they are grouped last here.
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from repro import FullNode, OffChainDatabase, SebdbConfig, SebdbError, ThinClient
from repro.consensus import KafkaOrderer, PBFTCluster
from repro.consensus.base import ConsensusEngine
from repro.crypto.keys import KeyPair
from repro.mht.vo import verify_query_vo
from repro.model.genesis import make_genesis
from repro.model.transaction import Transaction
from repro.network.bus import MessageBus
from repro.node.auth import AuthQueryServer
from repro.query.result import QueryResult

import calib
import gen
from trace import Tracer

_pc = time.perf_counter
_MAX_EVENTS = 50_000_000
#: the genesis block carries one schema transaction per table, so the
#: first data transaction gets tid 3
GENESIS_TXS = len(gen.SCHEMAS)
#: node 0 is reopened from disk this many times; ``recovery_s`` is the
#: median, because a single reopen is one short lap between two calibration
#: samples and a hiccup in either throws it by a third
RECOVERY_PASSES = 3


@dataclasses.dataclass
class Slice:
    """What one timed slice measured."""

    wall: float = 0.0
    ops: int = 0
    failed: int = 0
    bus_events: int = 0
    #: operation class -> per-operation wall seconds
    latencies: dict[str, list[float]] = dataclasses.field(default_factory=dict)

    def add(self, other: "Slice") -> None:
        self.wall += other.wall
        self.ops += other.ops
        self.failed += other.failed
        self.bus_events += other.bus_events
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)

    def scaled(self, factor: float) -> "Slice":
        """This slice with every duration multiplied by ``factor``."""
        return Slice(
            wall=self.wall * factor, ops=self.ops, failed=self.failed,
            bus_events=self.bus_events,
            latencies={kind: [v * factor for v in values]
                       for kind, values in self.latencies.items()},
        )


@dataclasses.dataclass
class Check:
    """Outcome of the correctness and durability checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)
    #: seconds (at the reference speed) to reopen node 0 from disk and
    #: fully verify its chain; median of RECOVERY_PASSES
    recovery_s: float = 0.0

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def row_ids(kind: str, result: QueryResult) -> Any:
    """The identity of a result set, comparable with ``Statement.expected``."""
    if kind == "q5":
        return frozenset(zip(result.column("transfer.ts"),
                             result.column("distribute.ts")))
    if kind == "q6":
        return frozenset(zip(result.column("distribute.ts"),
                             result.column("doneeinfo.donee")))
    if kind == "q7":
        return result.block.height if result.block is not None else None
    return frozenset(result.column("ts"))


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(value * scale))


class Workload:
    """Shared plumbing; subclasses fill in the three phases."""

    name = ""
    #: how often set-up runs (the median is reported as ``setup_s``)
    setup_reps = 3

    def __init__(self, seed: int, scale: float, workdir: Path,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tracer = tracer
        self.nodes: list[FullNode] = []
        self.bus: Optional[MessageBus] = None
        self.engine: Optional[ConsensusEngine] = None
        #: client-side signing cost measured in set-up (0 when unsigned)
        self.sign_ms_per_tx = 0.0
        #: public-counter deltas over the warm-up (fixed work: exact per seed)
        self.fixed: dict[str, float] = {}
        #: primary operations the warm-up performed
        self.fixed_ops = 0
        #: workload-specific fixed-work totals (VO bytes, plan candidates ...)
        self.fixed_extra: dict[str, float] = {}
        #: called between long stretches of set-up work, so the caller's
        #: stopwatch can take a calibration sample about once a second
        self.lap: Callable[[], Any] = lambda: None

    def setup(self) -> None:
        """Build the nodes, then warm up with a fixed amount of work."""
        self.build()
        before = self.raw_counters()
        self.fixed_ops = self.warm_up()
        after = self.raw_counters()
        self.fixed = {key: after[key] - before[key] for key in after}

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> int:
        raise NotImplementedError

    def run(self, seconds: float) -> Slice:
        raise NotImplementedError

    def check(self) -> Check:
        raise NotImplementedError

    def close(self) -> None:
        for node in self.nodes:
            node.close()

    def raw_counters(self) -> dict[str, float]:
        """Cumulative public counters (node 0, the engine, the bus)."""
        node = self.nodes[0]
        cost, ledger = node.store.cost, node.ledger.stats
        out: dict[str, float] = {
            "seeks": cost.seeks,
            "page_transfers": cost.page_transfers,
            "bytes_written": cost.bytes_written,
            "modelled_io_ms": cost.elapsed_ms(),
            "block_hits": node.store.block_cache.hits,
            "block_misses": node.store.block_cache.misses,
            "tx_hits": node.store.tx_cache.hits,
            "tx_misses": node.store.tx_cache.misses,
            "blocks": ledger.blocks_committed,
            "txs": ledger.txs_committed,
            "rejected": sum(n.ledger.stats.txs_rejected for n in self.nodes),
        }
        for name, stage in ledger.stages.items():
            out[f"stage_{name}_ms"] = stage.wall_ms
            out[f"stage_{name}_calls"] = stage.calls
        if self.engine is not None:
            stats = self.engine.stats
            out.update(committed=stats.committed, batches=stats.batches,
                       view_changes=stats.view_changes)
        if self.bus is not None:
            out["bus_msgs_sent"] = self.bus.messages_sent
        return out

    # -- helpers -------------------------------------------------------------

    def _node_dir(self, index: int) -> Path:
        return self.workdir / f"node-{index}"

    def _make_nodes(self, count: int, config: Optional[dict[str, Any]] = None,
                    **node_kwargs: Any) -> None:
        genesis = make_genesis(0, gen.SCHEMAS)
        for index in range(count):
            self.nodes.append(FullNode(
                f"node-{index}",
                config=SebdbConfig(data_dir=self._node_dir(index), **(config or {})),
                consensus=self.engine,
                clock=self.bus.clock if self.bus is not None else None,
                genesis=genesis,
                **node_kwargs,
            ))

    def _create_indexes(self, authenticated: bool) -> None:
        for node in self.nodes:
            node.create_index("senid", authenticated=authenticated)
            node.create_index("tname", authenticated=authenticated)
            node.create_index("amount", table="donate", authenticated=authenticated)

    def _drain(self, outstanding: Callable[[], int]) -> int:
        """Flush partial batches until every submitted transaction is acked."""
        assert self.bus is not None and self.engine is not None
        events = self.bus.run_until_idle(max_events=_MAX_EVENTS)
        for _ in range(64):
            if not outstanding():
                break
            self.engine.flush()
            events += self.bus.run_until_idle(max_events=_MAX_EVENTS)
        return events

    def _closed_loop(
        self,
        pool: Iterator[tuple[gen.TxSpec, Transaction]],
        clients: int,
        seconds: float,
        sent: list[gen.TxSpec],
    ) -> Slice:
        """``clients`` closed-loop writers through node 0 for ``seconds``.

        Latency is wall time from ``submit_transaction`` to the engine's
        reply callback.  When the deadline passes, clients stop issuing and
        the partial batch is flushed so every submission is acknowledged
        inside the measured wall.
        """
        assert self.bus is not None and self.engine is not None
        bus, engine, tracer = self.bus, self.engine, self.tracer
        submit = self.nodes[0].submit_transaction
        latencies: list[float] = []
        state = {"outstanding": 0, "stopping": False}
        traced = tracer is not None and tracer.enabled
        client_span = (tracer.span("harness.client") if tracer is not None
                       else contextlib.nullcontext())

        def send() -> None:
            if state["stopping"]:
                return
            item = next(pool, None)
            if item is None:
                return
            spec, tx = item
            sent.append(spec)
            t0 = _pc()

            def on_reply(_commit_ms: float) -> None:
                with client_span:
                    latencies.append(_pc() - t0)
                    state["outstanding"] -= 1
                    send()

            state["outstanding"] += 1
            submit(tx, on_reply)

        events = 0
        stats = engine.stats
        t_start = _pc()
        deadline = t_start + seconds
        for _ in range(clients):
            send()
        step = bus.step
        while _pc() < deadline and step():
            events += 1
            if traced:
                tracer.op_id = stats.batches
        state["stopping"] = True
        events += self._drain(lambda: state["outstanding"])
        wall = _pc() - t_start
        return Slice(
            wall=wall, ops=len(latencies), failed=state["outstanding"],
            bus_events=events, latencies={"commit": latencies},
        )

    def _chain_checks(self, check: Check, truth: gen.GroundTruth) -> None:
        """Replicas agree, acked = on chain, and the chain survives a reopen."""
        first = self.nodes[0]
        for node in self.nodes[1:]:
            check.expect(
                node.store.height == first.store.height
                and node.store.tip_hash == first.store.tip_hash,
                f"{node.node_id} diverged from node-0",
            )
        on_chain = sum(
            first.store.transactions_in_block(h) for h in range(1, first.store.height)
        )
        check.expect(
            on_chain == len(truth.specs),
            f"{on_chain} transactions on chain, {len(truth.specs)} acknowledged",
        )
        for node in self.nodes:
            check.expect(
                node.ledger.stats.txs_rejected == 0,
                f"{node.node_id} rejected {node.ledger.stats.txs_rejected} transactions",
            )
        statements = gen.readback_statements(self.seed, truth)
        passes: list[float] = []
        reopened: Optional[FullNode] = None
        try:
            for _ in range(RECOVERY_PASSES):
                if reopened is not None:
                    reopened.close()
                watch = calib.Stopwatch()
                reopened = FullNode(
                    "reopened", config=SebdbConfig(data_dir=self._node_dir(0)))
                watch.lap()
                verified = reopened.verify_local_chain(full=True)
                watch.lap()
                passes.append(watch.seconds)
                check.expect(
                    verified == first.store.height
                    and reopened.store.tip_hash == first.store.tip_hash,
                    f"reopened node verified {verified} of {first.store.height} blocks",
                )
            check.recovery_s = statistics.median(passes)
            for node in (first, reopened):
                for stmt in statements:
                    got = row_ids(stmt.kind, node.query(stmt.sql, stmt.params))
                    check.expect(
                        got == stmt.expected,
                        f"{node.node_id}: {stmt.sql} {stmt.params} returned "
                        f"{len(got)} rows, expected {stmt.count}",
                    )
        except SebdbError as exc:
            check.expect(False, f"reopened node failed: {exc!r}")
        finally:
            if reopened is not None:
                reopened.close()


# -- the two write workloads ---------------------------------------------------


class _ClosedLoopWriters(Workload):
    """A pre-built pool of transactions drained by closed-loop clients."""

    CLIENTS = 0
    WARMUP = 0

    def _start(self, engine: ConsensusEngine, nodes: int,
               pool: Sequence[tuple[gen.TxSpec, Transaction]], **node_kwargs: Any) -> None:
        self.engine = engine
        self._make_nodes(nodes, **node_kwargs)
        self.pool = iter(pool)
        #: everything submitted so far, in submission order
        self.sent: list[gen.TxSpec] = []

    def warm_up(self) -> int:
        """``WARMUP`` transactions through the measured path, then the indexes.

        Indexing after the warm-up lets the amount histogram sample real
        values instead of an empty chain.
        """
        count = _scaled(self.WARMUP, self.scale, self.CLIENTS)
        warm = list(itertools.islice(self.pool, count))
        self._closed_loop(iter(warm), self.CLIENTS, 3600.0, self.sent)
        self.fixed_extra["user_bytes"] = user_bytes([spec for spec, _tx in warm])
        self._create_indexes(authenticated=False)
        return count

    def run(self, seconds: float) -> Slice:
        return self._closed_loop(self.pool, self.CLIENTS, seconds, self.sent)

    def check(self) -> Check:
        check = Check()
        truth = gen.GroundTruth()
        truth.add(self.sent)
        self._chain_checks(check, truth)
        assert self.engine is not None
        check.expect(
            self.engine.stats.view_changes == 0,
            f"{self.engine.stats.view_changes} view changes in a fault-free run",
        )
        return check


class WriteSigned(_ClosedLoopWriters):
    """Pre-signed transactions, 64 closed-loop clients, Kafka, one verifying node."""

    name = "write_signed"
    #: signing the pool is ~10 s of deterministic big-int work, timed in
    #: one-second laps; repeating it would only triple the run
    setup_reps = 1
    KEYPAIRS = 16
    CLIENTS = 64
    BATCH = 32
    POOL = 2560
    WARMUP = 64
    #: transactions signed between calibration samples (about a second)
    SIGN_CHUNK = 256

    def build(self) -> None:
        keypairs = [KeyPair.from_seed(name)
                    for name in gen.keypair_names(self.seed, self.KEYPAIRS)]
        # the floor keeps a one-second smoke run supplied through all four slices
        count = _scaled(self.POOL, self.scale, 6 * self.CLIENTS)
        stream = gen.signed_stream(self.seed, count, keypairs)
        pool: list[tuple[gen.TxSpec, Transaction]] = []
        t0 = _pc()
        while len(pool) < count:
            pool.extend(itertools.islice(stream, self.SIGN_CHUNK))
            self.lap()
        self.sign_ms_per_tx = (_pc() - t0) / count * 1e3
        self.bus = MessageBus(seed=self.seed)
        self._start(KafkaOrderer(self.bus, batch_txs=self.BATCH), 1, pool,
                    verify_signatures=True)


class WritePbft(_ClosedLoopWriters):
    """Unsigned transactions, 200 closed-loop clients, 4-replica PBFT."""

    name = "write_pbft"
    REPLICAS = 4
    CLIENTS = 200
    BATCH = 100
    POOL = 60_000
    WARMUP = 2_000

    def build(self) -> None:
        count = _scaled(self.POOL, self.scale, 3 * self.CLIENTS)
        specs = gen.unsigned_stream(self.seed, count, "pbft")
        self.bus = MessageBus(seed=self.seed)
        self._start(
            PBFTCluster(self.bus, n=self.REPLICAS, batch_txs=self.BATCH),
            self.REPLICAS, [(spec, gen.to_transaction(spec)) for spec in specs])


# -- read_mix -----------------------------------------------------------------


class ReadMix(Workload):
    """The BChainBench Q2-Q7 mix as SQL text against one loaded node."""

    name = "read_mix"
    BLOCKS = 400
    TXS_PER_BLOCK = 60
    #: under a fifth of the 400 x 60 chain's bytes (check() verifies the
    #: ratio instead of assuming it), and less than the rows four cycles of
    #: Q4 touch
    CACHE_BYTES = 250_000
    #: 200 buckets keep Q4's 0.4 % amount range within three buckets, so
    #: the optimizer picks the layered path for every Q4 instead of flipping
    #: to a scan whenever a range straddles a bucket bound
    HISTOGRAM_DEPTH = 200
    #: statements per shuffled cycle.  By latency the kinds order q2 ~ q3 <
    #: q7 < q4 << q6 < q5; the counts put the pooled median among the
    #: tracking statements (72 % of the cycle) and the pooled p95 in the
    #: middle of Q4's band, not on a boundary between two kinds, and keep
    #: every kind under a third of the timed wall
    MIX = {"q2": 96, "q3": 72, "q4": 16, "q5": 1, "q6": 1, "q7": 48}
    #: distinct cycles before the statement list repeats: four cycles of Q4
    #: ranges touch more rows than the cache holds, so the cache both hits
    #: (the tracked operators' rows) and misses (most range rows)
    CYCLES = 4

    def build(self) -> None:
        blocks = _scaled(self.BLOCKS, self.scale, 4 * gen.CAMPAIGN_EVERY)
        self.chain = gen.read_chain(self.seed, blocks, self.TXS_PER_BLOCK)
        self.offchain = OffChainDatabase(self.workdir / "offchain.sqlite")
        self.offchain.create_table("doneeinfo", gen.DONEEINFO_COLUMNS)
        self.offchain.insert("doneeinfo", self.chain.doneeinfo)
        self._make_nodes(
            1, offchain=self.offchain,
            config={
                "cache_mode": "transaction",
                "cache_bytes": _scaled(self.CACHE_BYTES, self.scale, 10_000),
                "histogram_depth": self.HISTOGRAM_DEPTH,
            },
        )
        node = self.nodes[0]
        for txs in self.chain.blocks:
            node.apply_batch([gen.to_transaction(spec) for spec in txs])
        self._create_indexes(authenticated=False)
        node.create_index("organization", table="transfer")
        node.create_index("organization", table="distribute")
        node.create_index("donee", table="distribute")
        self.statements = gen.read_statements(
            self.seed, self.chain, self.MIX, self.CYCLES)
        self.cursor = 0

    def warm_up(self) -> int:
        """The last cycle, cold: fills the cache, and counts plan work."""
        node = self.nodes[0]
        node.store.clear_caches()
        totals = {"candidates": 0, "operator_rows": 0, "result_rows": 0}
        warm = self.statements[-sum(self.MIX.values()):]
        for stmt in warm:
            result = node.query(stmt.sql, stmt.params)
            totals["result_rows"] += len(result.rows)
            if result.plan is not None:
                totals["candidates"] += len(result.plan.candidates)
                totals["operator_rows"] += sum(
                    op.stats.rows_out for op in result.plan.operators())
        self.fixed_extra.update(totals)
        return len(warm)

    def run(self, seconds: float) -> Slice:
        query = self.nodes[0].query
        statements, tracer = self.statements, self.tracer
        traced = tracer is not None and tracer.enabled
        latencies: dict[str, list[float]] = {kind: [] for kind in self.MIX}
        failed = ops = 0
        t_start = _pc()
        deadline = t_start + seconds
        while (t0 := _pc()) < deadline:
            stmt = statements[self.cursor % len(statements)]
            if traced:
                tracer.op_id = self.cursor
            self.cursor += 1
            try:
                result = query(stmt.sql, stmt.params)
                rows = len(result.rows)
            except SebdbError:
                failed += 1
                continue
            latencies[stmt.kind].append(_pc() - t0)
            ops += 1
            if rows != stmt.count:
                failed += 1
        return Slice(wall=_pc() - t_start, ops=ops, failed=failed,
                     latencies=latencies)

    def check(self) -> Check:
        check = Check()
        node = self.nodes[0]
        chain_bytes = sum(node.store.block_size(h) for h in range(node.store.height))
        cache = node.config.cache_bytes
        check.expect(chain_bytes >= 4 * cache,
                     f"chain of {chain_bytes} B fits the {cache} B cache too well")
        # full row identity, once per statement of the cycle
        for stmt in self.statements:
            got = row_ids(stmt.kind, node.query(stmt.sql, stmt.params))
            check.expect(
                got == stmt.expected,
                f"{stmt.sql} {stmt.params} returned the wrong rows",
            )
        self._chain_checks(check, self.chain.truth)
        return check

    def close(self) -> None:
        super().close()
        self.offchain.close()


# -- auth_mixed ---------------------------------------------------------------


class AuthMixed(Workload):
    """Write bursts alternating with verified thin-client reads, ALI on."""

    name = "auth_mixed"
    NODES = 3
    BATCH = 50
    PRELOAD_BLOCKS = 150
    BURST_BLOCKS = 8
    SENDERS = 40
    #: pre-generated rounds: about three times what a 10 s run reaches
    ROUNDS = 96
    WARM_ROUNDS = 2

    def build(self) -> None:
        self.bus = MessageBus(seed=self.seed)
        self.engine = KafkaOrderer(self.bus, batch_txs=self.BATCH)
        self._make_nodes(self.NODES)
        preload = _scaled(self.PRELOAD_BLOCKS, self.scale, 8) * self.BATCH
        self.burst = _scaled(self.BURST_BLOCKS, self.scale, 1) * self.BATCH
        rounds = _scaled(self.ROUNDS, self.scale, 64)
        specs = gen.unsigned_stream(
            self.seed, preload + rounds * self.burst, "auth", senders=self.SENDERS)
        self.preloaded = specs[:preload]
        self.pending = specs[preload:]
        for start in range(0, preload, self.BATCH):
            batch = [gen.to_transaction(s) for s in specs[start:start + self.BATCH]]
            for node in self.nodes:
                node.apply_batch(batch)
        # after the preload, so the amount histogram samples real values
        self._create_indexes(authenticated=True)
        self.client = ThinClient(self.nodes, seed=self.seed)
        self.round = 0
        #: (round, op, answer) for the replay in check()
        self.answers: list[tuple[int, gen.AuthOp, Any]] = []

    def warm_up(self) -> int:
        warm = Slice()
        for _ in range(self.WARM_ROUNDS):
            self._round(warm)
        answers = [a for _r, op, a in self.answers
                   if op.kind in ("range", "trace", "two")
                   and not isinstance(a, SebdbError)]
        self.fixed_extra.update(
            vo_bytes=sum(a.vo_size_bytes for a in answers),
            vo_rows=sum(len(a.transactions) for a in answers),
            user_bytes=user_bytes(self.pending[:self.round * self.burst]),
        )
        return warm.ops

    def _auth_op(self, op: gen.AuthOp) -> Any:
        client = self.client
        if op.kind == "sync":
            return client.sync_headers()
        if op.kind == "spv":
            return client.verify_transaction(GENESIS_TXS + op.args[0])
        if op.kind == "range":
            return client.authenticated_range(
                "amount", op.args[0], op.args[1], table="donate",
                schema=gen.DONATE, n_aux=2, m=2)
        if op.kind == "trace":
            return client.authenticated_trace(op.args[0], n_aux=2, m=2)
        return client.authenticated_trace_two_index(
            op.args[0], op.args[1], n_aux=2, m=2)

    def _round(self, out: Slice) -> None:
        """One burst of writes to commit, then the round's verified reads."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.op_id = self.round
        burst = self.pending[self.round * self.burst:(self.round + 1) * self.burst]
        written = self._closed_loop(
            iter([(s, gen.to_transaction(s)) for s in burst]), len(burst), 3600.0, [])
        written.wall = 0.0  # the caller times the whole slice
        out.add(written)
        committed = len(self.preloaded) + (self.round + 1) * self.burst
        for op in gen.auth_round(self.seed, self.round, committed, self.SENDERS):
            t0 = _pc()
            try:
                answer = self._auth_op(op)
            except SebdbError as exc:
                answer = exc
                out.failed += 1
            out.latencies.setdefault(op.kind, []).append(_pc() - t0)
            out.ops += 1
            self.answers.append((self.round, op, answer))
        self.round += 1

    def run(self, seconds: float) -> Slice:
        out = Slice()
        t_start = _pc()
        deadline = t_start + seconds
        while _pc() < deadline and (self.round + 1) * self.burst <= len(self.pending):
            self._round(out)
        out.wall = _pc() - t_start
        return out

    def check(self) -> Check:
        check = Check()
        truth = gen.GroundTruth()
        truth.add(self.preloaded)
        replayed = -1
        for round_index, op, answer in self.answers:
            while replayed < round_index:
                replayed += 1
                truth.add(self.pending[replayed * self.burst:(replayed + 1) * self.burst])
            self._check_answer(check, truth, op, answer)
        while replayed < self.round - 1:
            replayed += 1
            truth.add(self.pending[replayed * self.burst:(replayed + 1) * self.burst])
        self._tamper_probe(check)
        self._chain_checks(check, truth)
        return check

    def _check_answer(self, check: Check, truth: gen.GroundTruth,
                      op: gen.AuthOp, answer: Any) -> None:
        label = f"{op.kind}{op.args}"
        if isinstance(answer, SebdbError):
            check.expect(False, f"{label} raised {answer!r}")
        elif op.kind == "sync":
            blocks = len(truth.specs) // self.BATCH + 1
            check.expect(answer == blocks, f"{label}: {answer} headers, chain has {blocks}")
        elif op.kind == "spv":
            check.expect(answer.ts == truth.specs[op.args[0]].ts,
                         f"{label}: wrong transaction proven")
        else:
            if op.kind == "range":
                expected = truth.donate_range(*op.args)
            elif op.kind == "trace":
                expected = truth.trace(op.args[0])
            else:
                expected = truth.trace(op.args[0], op.args[1])
            got = frozenset(tx.ts for tx in answer.transactions)
            check.expect(
                got == expected and answer.digests_matched >= 2,
                f"{label}: {len(got)} verified rows, expected {len(expected)}",
            )

    def _tamper_probe(self, check: Check) -> None:
        """A VO with one flipped record byte, and one with a withheld block,
        must both fail verification; the untouched VO must pass."""
        operator = "org0"
        vo = AuthQueryServer(self.nodes[0]).range_vo("senid", operator, operator)
        digest = AuthQueryServer(self.nodes[1]).auxiliary_digest(
            "senid", operator, operator, vo.chain_height)

        def verifies(candidate: Any) -> bool:
            try:
                verify_query_vo(candidate, key_of=lambda tx: tx.senid,
                                expected_digest=digest)
            except SebdbError:
                return False
            return True

        check.expect(verifies(vo) and len(vo.blocks) > 1, "honest VO rejected")
        block = vo.blocks[0]
        record = bytearray(block.records[0])
        record[-1] ^= 0x01
        forged = dataclasses.replace(
            block, records=(bytes(record),) + block.records[1:])
        check.expect(
            not verifies(dataclasses.replace(vo, blocks=(forged,) + vo.blocks[1:])),
            "VO with a flipped record byte was accepted",
        )
        check.expect(
            not verifies(dataclasses.replace(vo, blocks=vo.blocks[1:])),
            "VO with a withheld block was accepted",
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WriteSigned, WritePbft, ReadMix, AuthMixed)
}


def user_bytes(specs: Sequence[gen.TxSpec]) -> int:
    """Application payload bytes: the values and sender a client supplied."""
    return sum(
        len(spec.sender) + sum(len(v) if isinstance(v, str) else 8 for v in spec.values)
        for spec in specs
    )
