"""Configuration of the stand-off annotation representation.

The paper (Section 2) makes the representation of regions configurable via
``declare option`` pragmas in the XQuery preamble::

    declare option standoff-type   "qualified-name"
    declare option standoff-start  "qualified-name"
    declare option standoff-end    "qualified-name"
    declare option standoff-region "qualified-name"

Two representations are supported:

* **attribute form** (default): the element carries ``start``/``end``
  attributes — compact, one region per element;
* **element form** (when ``standoff-region`` is declared): the element has
  one or more ``<region><start>..</start><end>..</end></region>`` children,
  allowing *non-contiguous* multi-region areas.

:class:`StandoffConfig` captures these settings and knows how to extract
regions from a DOM element under either representation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import RegionError, UnknownKernelError, XQueryStaticError

#: Option names understood in the ``declare option`` preamble.
OPTION_TYPE = "standoff-type"
OPTION_START = "standoff-start"
OPTION_END = "standoff-end"
OPTION_REGION = "standoff-region"

STANDOFF_OPTION_NAMES = frozenset(
    {OPTION_TYPE, OPTION_START, OPTION_END, OPTION_REGION}
)

#: Position datatypes supported for region endpoints.  The paper's
#: implementation assumes 64-bit integers but notes this is not conceptual;
#: we additionally allow doubles (e.g. time offsets in seconds).
SUPPORTED_TYPES = ("xs:integer", "xs:long", "xs:double", "xs:decimal")


# ----------------------------------------------------------------------
# Join kernels (StandOff joins + Staircase axes)
# ----------------------------------------------------------------------

#: The reference kernel: row-at-a-time loop-lifted merge join
#: (paper Listing 1; ``list`` or ``heap`` active-items structure) for
#: StandOff joins, the bisect/insort loop-lifted Staircase Join
#: (``repro.staircase.loop_lifted``) for the tree axes.  The oracle and
#: the Figure 6 / ablation series; the only kernel with a trace sink.
KERNEL_LL = "ll"

#: The batched NumPy kernels (:mod:`repro.core.kernels_vec` /
#: :mod:`repro.staircase.kernels_vec`): windowed ``searchsorted``
#: pruning plus segmented prefix-max tests, building columnar results.
#: The serving kernel of both join families.
KERNEL_VECTORIZED = "vectorized"

SUPPORTED_KERNELS = (KERNEL_LL, KERNEL_VECTORIZED)

DEFAULT_KERNEL = KERNEL_VECTORIZED

#: The tree axes both staircase kernels serve on the shredded pre/size
#: encoding — the DOM walk remains only as the ``basic``-strategy oracle.
STAIRCASE_AXIS_NAMES = (
    "descendant", "ancestor", "child", "following", "preceding",
    "following-sibling", "preceding-sibling",
)


def check_kernel(name: str) -> str:
    """Return *name* if it is a join kernel.

    :raises UnknownKernelError: otherwise; the message lists the kernels.
    """
    if name not in SUPPORTED_KERNELS:
        raise UnknownKernelError(
            f"unknown join kernel {name!r}; expected one of "
            f"{list(SUPPORTED_KERNELS)}")
    return name


def check_staircase_axis(axis: str) -> str:
    """Return *axis* if the staircase kernels serve it.

    :raises UnknownKernelError: otherwise; the message lists the axes.
    """
    if axis not in STAIRCASE_AXIS_NAMES:
        raise UnknownKernelError(
            f"no staircase kernel for axis {axis!r}; expected one of "
            f"{sorted(STAIRCASE_AXIS_NAMES)}")
    return axis


# ----------------------------------------------------------------------
# Sharded fan-out execution (workers / shard sizing)
# ----------------------------------------------------------------------

#: The deterministic reference execution mode: no worker pool, a single
#: shard per kernel call — byte-identical to the unsharded pipeline.
WORKERS_SERIAL = "serial"

#: Default worker setting.  ``REPRO_WORKERS`` overrides it process-wide
#: (CI runs the tier-1 suite under ``REPRO_WORKERS=4`` so every
#: engine-level test exercises the sharded dispatch path).
DEFAULT_WORKERS = os.environ.get("REPRO_WORKERS", WORKERS_SERIAL)

#: Minimum *context rows* a shard must own before the planner fans out
#: (both join families: the plan cuts the context between iterations):
#: per-shard dispatch costs roughly a thread or process hop plus one
#: extra round of fixed NumPy call overhead (~100-200 us), so contexts
#: below a few thousand rows are faster executed as the single serial
#: call.  ``REPRO_SHARD_MIN_ROWS`` overrides it process-wide — CI pairs
#: ``REPRO_WORKERS=4`` with ``REPRO_SHARD_MIN_ROWS=1`` so the tier-1
#: rerun genuinely fans out on its small test documents instead of
#: planning single shards.
DEFAULT_SHARD_MIN_ROWS = int(os.environ.get("REPRO_SHARD_MIN_ROWS",
                                            "8192"))

#: Shard executors.  ``thread`` dispatches shard jobs onto the shared
#: :class:`~concurrent.futures.ThreadPoolExecutor`
#: (:mod:`repro.exec.sharding`); ``process`` routes them to a pool of
#: worker *processes* (:mod:`repro.exec.procpool`) that re-open the
#: same memory-mapped store file — the backend PR 4 identified for the
#: bandwidth-bound ``following``/``preceding`` axes, where threads gain
#: nothing under the GIL.  The process executor requires store-backed
#: columns (a ``store_ref``); jobs without one fall back to threads, so
#: the knob is always safe to set.  A one-shard plan runs inline under
#: either.
EXECUTOR_THREAD = "thread"
EXECUTOR_PROCESS = "process"

SUPPORTED_EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS)

#: Default shard executor.
DEFAULT_EXECUTOR = EXECUTOR_THREAD


# ----------------------------------------------------------------------
# Storage backends (in-memory columns vs memory-mapped store files)
# ----------------------------------------------------------------------

#: Shredded columns and region tables live as process-private NumPy
#: arrays rebuilt from the DOM at load time.
STORAGE_MEMORY = "memory"

#: Columns are written once to a versioned store file
#: (:mod:`repro.storage`) and mapped back with ``np.memmap`` — O(1)
#: cold start, pages shared across processes.
STORAGE_MMAP = "mmap"

SUPPORTED_STORAGE_BACKENDS = (STORAGE_MEMORY, STORAGE_MMAP)

#: Default storage backend for stored documents; ``REPRO_STORAGE``
#: overrides process-wide (CI runs a tier-1 pass under
#: ``REPRO_STORAGE=mmap`` so every engine-level test exercises the
#: store round-trip).
DEFAULT_STORAGE_BACKEND = os.environ.get("REPRO_STORAGE", STORAGE_MEMORY)


def normalize_executor(executor) -> str:
    """Normalize an ``executor`` setting (``None`` -> the default).

    :raises ValueError: for anything but ``thread`` / ``process``.
    """
    if executor is None:
        return DEFAULT_EXECUTOR
    if executor not in SUPPORTED_EXECUTORS:
        raise ValueError(
            f"invalid executor {executor!r}; expected one of "
            f"{list(SUPPORTED_EXECUTORS)}")
    return executor


def normalize_storage_backend(backend) -> str:
    """Normalize a storage-backend setting (``None`` -> the default).

    :raises ValueError: for anything but ``memory`` / ``mmap``.
    """
    if backend is None:
        return DEFAULT_STORAGE_BACKEND
    if backend not in SUPPORTED_STORAGE_BACKENDS:
        raise ValueError(
            f"invalid storage backend {backend!r}; expected one of "
            f"{list(SUPPORTED_STORAGE_BACKENDS)}")
    return backend


# ----------------------------------------------------------------------
# Concurrent query serving (repro.serve)
# ----------------------------------------------------------------------

#: Total queries a :class:`repro.serve.QueryServer` evaluates at once
#: (the size of its dispatch thread pool and general admission
#: semaphore).
DEFAULT_SERVE_CONCURRENCY = 8

#: Slots of the heavy-query lane.  Queries whose estimated pair budget
#: reaches :data:`DEFAULT_SERVE_HEAVY_PAIRS` additionally acquire this
#: (much smaller) semaphore, so a handful of scale-16 scans can never
#: occupy every general slot and starve the point lookups behind them.
DEFAULT_SERVE_HEAVY_SLOTS = 2

#: Pair-budget admission threshold: a query estimated to probe at
#: least this many (context row, candidate) pairs is classified heavy.
#: The estimate is deliberately coarse (see
#: :func:`repro.serve.estimate_pair_budget`) — it only has to separate
#: "scan of a scan" from "point lookup", not predict runtimes.
DEFAULT_SERVE_HEAVY_PAIRS = 2_000_000

#: Default per-query timeout (seconds) a server enforces when the
#: request carries none; ``0`` disables.
DEFAULT_SERVE_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Cross-query cache (compiled plans)
# ----------------------------------------------------------------------

#: Compiled-plan LRU capacity (entries) of
#: :class:`repro.xquery.engine.PlanCache`: parsed modules plus their
#: static contexts, keyed on query text + static-context fingerprint.
#: ``REPRO_PLAN_CACHE`` overrides process-wide; ``0`` disables (every
#: query re-parses — the cold-path reference CI runs tier-1 under).
DEFAULT_PLAN_CACHE_SIZE = int(os.environ.get("REPRO_PLAN_CACHE", "256"))


def normalize_workers(workers) -> int:
    """Normalize a ``workers`` setting to a worker count (``>= 1``).

    Accepts :data:`WORKERS_SERIAL` (or ``None``) for the deterministic
    serial reference, or a positive integer / integer string.

    :raises ValueError: for anything else.
    """
    if workers is None or workers == WORKERS_SERIAL:
        return 1
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid workers setting {workers!r}; expected "
            f"{WORKERS_SERIAL!r} or a positive integer") from None
    if count < 1:
        raise ValueError(
            f"invalid workers setting {workers!r}; expected "
            f"{WORKERS_SERIAL!r} or a positive integer")
    return count


@dataclass(frozen=True)
class ExecOptions:
    """The execution settings one query runs under.

    One frozen value carries them from where they are set
    (``Database.query``, the CLI session, ``QueryServer``) through
    :class:`~repro.xquery.context.DynamicContext` to the join calls.
    Every field is checked here, on construction, so a bad setting is
    refused where it is made rather than by the first query that
    reaches the code reading it; ``dataclasses.replace`` checks again.

    :param strategy: ``udf`` | ``basic`` | ``ll`` — how StandOff steps
        run (§4.6): the nested-loop join of the UDF formulation, one
        Basic MergeJoin per iteration, or the whole query loop-lifted
        (see :mod:`repro.xquery.engine`).
    :param pushdown: name-test pushdown for StandOff steps — ``always``
        (the builtin-function behaviour), ``never`` (post-filter) or
        ``auto`` (skip pushdown for non-selective tests; §3.3 (iii)).
    :param kernel: the kernel of both join families under ``ll`` —
        ``vectorized`` (batched NumPy kernels, the default) or ``ll``
        (the paper's row-at-a-time reference joins: Listing 1 for
        StandOff steps, the loop-lifted Staircase Join for the tree
        axes).  ``udf`` and ``basic`` ignore it.
    :param workers: ``"serial"`` (the deterministic single-shard
        reference) or a positive worker count; stored as the count.
        Default from ``REPRO_WORKERS``.
    :param shard_min_rows: minimum context rows per shard before a
        join call fans out (see :mod:`repro.exec.sharding`).  Default
        from ``REPRO_SHARD_MIN_ROWS``.
    :param executor: where shards run — ``thread`` or ``process``
        (see :data:`EXECUTOR_PROCESS`).
    """

    strategy: str = "basic"
    pushdown: str = "always"
    kernel: str = DEFAULT_KERNEL
    workers: int | str = DEFAULT_WORKERS
    shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS
    executor: str = DEFAULT_EXECUTOR

    def __post_init__(self) -> None:
        if self.strategy not in ("udf", "basic", "ll"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                "['basic', 'll', 'udf']")
        if self.pushdown not in ("always", "never", "auto"):
            raise ValueError(
                f"unknown pushdown policy {self.pushdown!r}; expected "
                "'always', 'never' or 'auto'")
        check_kernel(self.kernel)
        object.__setattr__(self, "workers", normalize_workers(self.workers))
        if self.shard_min_rows < 1:
            raise ValueError(
                f"shard_min_rows must be >= 1, got {self.shard_min_rows}")
        object.__setattr__(self, "executor",
                           normalize_executor(self.executor))


@dataclass(frozen=True)
class StandoffConfig:
    """Runtime settings for locating region information on elements.

    :param position_type: qualified name of the position datatype
        (default ``xs:integer``; see :data:`SUPPORTED_TYPES`).
    :param start_name: name of the start attribute *or* element.
    :param end_name: name of the end attribute *or* element.
    :param region_name: when not ``None``, the element-form representation
        is active and this is the name of the ``<region>`` child elements.
    """

    position_type: str = "xs:integer"
    start_name: str = "start"
    end_name: str = "end"
    region_name: str | None = None

    def __post_init__(self) -> None:
        if self.position_type not in SUPPORTED_TYPES:
            raise XQueryStaticError(
                f"unsupported standoff-type {self.position_type!r}; "
                f"expected one of {', '.join(SUPPORTED_TYPES)}"
            )
        if not self.start_name or not self.end_name:
            raise XQueryStaticError(
                "standoff-start and standoff-end must be non-empty names"
            )
        if self.start_name == self.end_name:
            raise XQueryStaticError(
                "standoff-start and standoff-end must differ "
                f"(both are {self.start_name!r})"
            )

    @property
    def uses_region_elements(self) -> bool:
        """True when regions are stored as ``<region>`` child elements."""
        return self.region_name is not None

    @property
    def integral_positions(self) -> bool:
        """True when the configured position type is an integer type."""
        return self.position_type in ("xs:integer", "xs:long")

    def parse_position(self, text: str):
        """Convert attribute/element text to a position value.

        :raises RegionError: if the text is not a valid literal of the
            configured position type.
        """
        text = text.strip()
        try:
            if self.integral_positions:
                return int(text)
            return float(text)
        except ValueError:
            raise RegionError(
                f"cannot parse {text!r} as {self.position_type}"
            ) from None

    @classmethod
    def from_options(cls, options: dict[str, str]) -> "StandoffConfig":
        """Build a config from ``declare option`` name/value pairs.

        Unknown ``standoff-*`` options raise; other options are the
        caller's business and must be filtered out beforehand.
        """
        unknown = set(options) - STANDOFF_OPTION_NAMES
        if unknown:
            raise XQueryStaticError(
                f"unknown standoff option(s): {', '.join(sorted(unknown))}"
            )
        return cls(
            position_type=options.get(OPTION_TYPE, "xs:integer"),
            start_name=options.get(OPTION_START, "start"),
            end_name=options.get(OPTION_END, "end"),
            region_name=options.get(OPTION_REGION),
        )


#: The paper's default configuration (attribute form, integer offsets).
DEFAULT_CONFIG = StandoffConfig()
