"""Repo-wide policy the rules enforce: layer bands and allowlists.

This is the one file to edit when the package layout grows.  Keep the
tables here in sync with DESIGN.md §8.
"""

from __future__ import annotations

#: Layer bands, bottom-up.  An import must target the same band or a
#: lower one; package-level cycles are rejected even inside a band.
#: ``""`` is the repro package root (``cli.py``, ``__init__.py``,
#: ``__main__.py``), which may import anything.
LAYER_BANDS: tuple[frozenset, ...] = (
    frozenset({"common"}),
    frozenset({"model", "crypto", "sqlparser"}),
    frozenset({"storage", "index", "mht"}),
    # "query" includes the query/optimizer subpackage; inside the band
    # the import order is logical -> plan -> optimizer -> engine
    # (plan never imports optimizer - the module cycle check enforces it)
    frozenset({"query", "offchain", "ledger"}),
    frozenset({"consensus", "network"}),
    frozenset({"node"}),
    frozenset({"client", "baselines", "shard"}),
    frozenset({"faults"}),
    frozenset({"bench", "cli", ""}),
)

LAYER_OF: dict = {
    package: band for band, packages in enumerate(LAYER_BANDS) for package in packages
}

# -- determinism rule --------------------------------------------------------

#: paths (relative to src/repro) the determinism rule never inspects:
#: the benchmark layer measures real wall-clock on purpose, and
#: common/clock.py is the single sanctioned wrapper around it.
DETERMINISM_EXCLUDES: tuple = ("bench", "common/clock.py")

#: set/frozenset iteration is only policed on event-ordering paths
SET_ITERATION_SCOPE: tuple = ("consensus", "network", "faults", "ledger", "shard")

#: wall-clock entry points (module attribute calls)
WALL_CLOCK_ATTRS: frozenset = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: nondeterministic datetime constructors
DATETIME_ATTRS: frozenset = frozenset({"now", "utcnow", "today"})

#: module-level functions of ``random`` that use the shared global RNG
GLOBAL_RANDOM_ATTRS: frozenset = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "getrandbits",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "vonmisesvariate",
        "randbytes",
    }
)

#: entropy sources that can never be seeded
ENTROPY_CALLS: frozenset = frozenset(
    {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}
)

# -- fault-path exception discipline ----------------------------------------

FAULT_PATH_SCOPE: tuple = (
    "consensus", "network", "node", "client", "ledger", "shard"
)

#: builtins that must not be raised on faultable paths - callers catch
#: :class:`repro.common.errors.SebdbError`, and anything outside that
#: hierarchy sails straight past the retry/divergence machinery.
BANNED_RAISES: frozenset = frozenset(
    {
        "Exception",
        "BaseException",
        "RuntimeError",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "ArithmeticError",
        "AttributeError",
        "OSError",
        "IOError",
        "StopIteration",
        "EOFError",
    }
)

#: builtins that stay legal everywhere (contract stubs, invariants)
ALLOWED_BUILTIN_RAISES: frozenset = frozenset(
    {"NotImplementedError", "AssertionError"}
)

#: module (relative to src/repro) that defines the sanctioned hierarchy
ERRORS_MODULE: str = "common/errors.py"

# -- query boundary ----------------------------------------------------------

#: "query" is prefix-matched, so it already covers query/optimizer;
#: the explicit entry keeps the candidate search inside the boundary
#: (and the determinism scope) even if the subpackage ever moves out
QUERY_SCOPE: tuple = ("query", "query/optimizer")

#: methods that perform storage I/O and must be tracker-accounted
IO_METHODS: frozenset = frozenset(
    {"read_block", "read_transaction", "read_positions", "scan_block",
     "iter_blocks", "read_records", "read_records_at"}
)

#: receiver names that identify the scan interface
SCANNER_NAMES: frozenset = frozenset({"scanner", "_scanner"})

#: receiver names that identify a block store
STORE_NAMES: frozenset = frozenset({"store", "_store", "blockstore", "block_store"})

# -- concurrency (call-graph) ------------------------------------------------

#: packages whose modules are scanned for worker spawn sites
CONCURRENCY_SCOPE: tuple = ("ledger", "shard", "node")

#: attribute calls whose first positional argument becomes a worker
#: entry point
WORKER_SPAWN_METHODS: frozenset = frozenset({"submit", "map"})

#: external classes whose ``target=`` keyword becomes a worker entry
THREAD_CLASSES: frozenset = frozenset({"threading.Thread", "Thread"})

#: a ``with``-statement guard whose receiver name contains this token
#: (case-insensitive) counts as a lock and exempts the writes under it
LOCK_NAME_TOKEN: str = "lock"

#: function qualnames allowed to write shared state from worker-reachable
#: code (sanctioned commit points).  Prefer a line suppression with a
#: justification next to the write; reserve this table for whole
#: functions that *are* the synchronization point.
CONCURRENCY_ALLOWED_WRITERS: frozenset = frozenset()

# -- lifecycle (call-graph) --------------------------------------------------

#: packages whose modules are scanned for resource constructions
LIFECYCLE_SCOPE: tuple = (
    "ledger", "shard", "node", "network", "consensus", "storage"
)

#: external classes whose instances hold OS threads and must be released
POOLED_RESOURCE_CLASSES: frozenset = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "threading.Thread",
    }
)

#: methods that release a pooled resource when called on it
RELEASE_METHOD_NAMES: frozenset = frozenset(
    {"close", "shutdown", "stop", "join", "terminate", "cancel", "__exit__"}
)

#: method names that count as a teardown entry point on the owning class
#: (``crash`` is the fault-injection teardown on FullNode)
RELEASE_ENTRY_METHODS: frozenset = frozenset(
    {"close", "shutdown", "stop", "__exit__", "__del__", "crash"}
)

# -- determinism, interprocedural --------------------------------------------

#: excluded modules that are *sanctioned sinks*: calls into them never
#: taint in-scope callers (common/clock.py is the one blessed wrapper
#: around wall-clock time).  ``bench`` is excluded but NOT sanctioned,
#: so a src-tree module calling through a bench helper into
#: ``time.time()`` is reported at the in-scope call site.
DETERMINISM_SANCTIONED_SINKS: tuple = ("common/clock.py",)

# -- commit path -------------------------------------------------------------

#: the only package allowed to call ``append_block`` on a store: the
#: ledger pipeline's persist stage.  Everything else commits through
#: :class:`repro.ledger.LedgerPipeline`.
COMMIT_PATH_ALLOWED: tuple = ("ledger/",)

#: store methods that admit a block into the chain
COMMIT_METHODS: frozenset = frozenset({"append_block"})

# -- reachability ------------------------------------------------------------

#: directories (relative to the repo root) whose every file is a root
REACHABILITY_ROOT_DIRS: tuple = ("examples", "benchmarks", "tools", "tests")

#: src/repro modules that are entry points as a whole
REACHABILITY_ROOT_MODULES: tuple = ("cli.py", "__main__.py")

#: ``"<relpath>::<Class.method>(<param>)"`` -> why the parameter stays
#: although no call site in the repository passes it.  Only deployment
#: settings belong here: values a user sets and the repository does not.
REACHABILITY_KEEP_PARAMS: dict = {
    "node/network.py::SebdbNetwork.single_node(config)": (
        "deployment setting: where a single node keeps its chain "
        "(data_dir), its cache and block sizes"
    ),
}
