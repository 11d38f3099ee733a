"""The Inter-Operator Scheduler: Algorithm 1 of the paper.

``IOSScheduler`` finds, for every block of a computation graph, the sequence of
stages (with per-stage parallelisation strategies) minimising total latency
according to a :class:`~repro.core.cost_model.CostModel`.  It implements the
three functions of Algorithm 1:

* ``INTER OPERATOR SCHEDULER`` — :meth:`IOSScheduler.optimize_block`
  (entry point + schedule reconstruction from ``choice[·]``),
* ``SCHEDULER`` — the memoised recursion over operator subsets
  (:meth:`IOSScheduler._scheduler`),
* ``GENERATE STAGE`` — delegated to :meth:`CostModel.generate_stage`.

Operator subsets are represented as bitmasks over a per-block
:class:`~repro.core.endings.BlockIndex`; endings are enumerated subject to the
``(r, s)`` pruning strategy of Section 4.3.

Modern CNNs stack blocks, so — exactly as the paper does (Section 4.2) — each
block is optimised independently and the per-block schedules are concatenated.
Structurally identical blocks (e.g. repeated NasNet cells) share one search via
a block fingerprint cache; blocks that share only their wiring share the
enumerated endings.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..checks import Registry, require_int
from ..ir.graph import Block, Graph
from .cost_model import CostModel, StageChoice
from .endings import BlockIndex, PruningStrategy, enumerate_endings
from .merge import can_merge, merge_peer_masks
from .schedule import ParallelizationStrategy, Schedule, Stage
from .width import maximum_antichain_size

__all__ = [
    "SchedulerConfig",
    "BlockStats",
    "ScheduleResult",
    "IOSScheduler",
    "IOSVariant",
    "VALID_VARIANTS",
    "normalize_variant",
    "variant_label",
    "resolve_compile_jobs",
]


#: Named strategy sets corresponding to the paper's IOS variants (Section 6.1),
#: in the paper's presentation order.  Every layer that keys on a variant
#: (``SchedulerConfig.variant``, the serve registry, the CLI, the engine)
#: resolves it here, so the same variant never lands under two keys; the bare
#: suffix (``"both"``) is an alias.
IOSVariant: Registry[tuple[ParallelizationStrategy, ...]] = Registry(
    "IOS variant",
    aliases={"both": "ios-both", "parallel": "ios-parallel", "merge": "ios-merge"},
)
IOSVariant.update({
    "ios-both": (ParallelizationStrategy.CONCURRENT, ParallelizationStrategy.MERGE),
    "ios-parallel": (ParallelizationStrategy.CONCURRENT,),
    "ios-merge": (ParallelizationStrategy.MERGE,),
})

#: Canonical variant names, in the paper's presentation order.
VALID_VARIANTS = tuple(IOSVariant)

#: Resolve a variant spelling (``"BOTH"``, ``"ios_merge"``) to its canonical
#: ``ios-*`` name; raises :class:`~repro.checks.UnknownNameError`.
normalize_variant = IOSVariant.canonical


def variant_label(config: "SchedulerConfig") -> str:
    """The canonical variant name whose strategy set ``config`` uses.

    Returns ``"custom"`` when the strategy set matches none of the named
    variants (only possible by constructing :class:`SchedulerConfig` by hand).
    """
    strategies = set(config.strategies)
    for name, named in IOSVariant.items():
        if strategies == set(named):
            return name
    return "custom"


@dataclass(frozen=True)
class SchedulerConfig:
    """Configuration of one IOS search."""

    #: Pruning strategy (r, s); the paper's default is r=3, s=8.
    pruning: PruningStrategy = PruningStrategy(max_group_size=3, max_groups=8)
    #: Which parallelisation strategies GENERATE STAGE may choose between.
    strategies: tuple[ParallelizationStrategy, ...] = IOSVariant["ios-both"]
    #: Reuse search results across structurally identical blocks.
    reuse_identical_blocks: bool = True

    def __post_init__(self) -> None:
        # An empty set or a bare string would silently run the search
        # merge-only while the schedule's origin label claims another variant.
        if not self.strategies or not all(
            isinstance(strategy, ParallelizationStrategy) for strategy in self.strategies
        ):
            valid = ", ".join(
                f"ParallelizationStrategy.{member.name} ({member.value!r})"
                for member in ParallelizationStrategy
            )
            raise ValueError(
                f"SchedulerConfig.strategies must be a non-empty tuple of "
                f"ParallelizationStrategy members ({valid}); got {self.strategies!r}"
            )

    @classmethod
    def variant(cls, name: str, pruning: PruningStrategy | None = None,
                reuse_identical_blocks: bool = True) -> "SchedulerConfig":
        """Build a config for one of the named IOS variants of the paper.

        The name goes through :func:`normalize_variant`, so drifted spellings
        (``"BOTH"``, ``"ios_merge"``) resolve to the canonical variant and bad
        names raise :class:`~repro.checks.UnknownNameError` listing the valid
        ones.
        """
        return cls(
            pruning=pruning if pruning is not None else PruningStrategy(3, 8),
            strategies=IOSVariant[name],
            reuse_identical_blocks=reuse_identical_blocks,
        )


@dataclass
class BlockStats:
    """Search statistics for one block (feeds Table 1 and Figure 9).

    ``source`` records where the block's stages came from: ``"search"`` (a DP
    search ran inline), ``"parallel"`` (a worker process ran the search),
    ``"block-cache"`` (reused from an identical block of this scheduler), or
    ``"empty"`` (no schedulable operators).
    """

    block_name: str
    num_operators: int
    width: int
    num_states: int = 0
    num_transitions: int = 0
    num_measurements: int = 0
    #: Transitions whose stage the search did not price because the cost
    #: model's floor proved it could not win; zero for a reused block.
    num_pruned: int = 0
    #: Simulated device time the search spent profiling (ms); like
    #: ``num_measurements`` it is zero for a reused block.
    profiling_ms: float = 0.0
    optimized_latency_ms: float = 0.0
    elapsed_s: float = 0.0
    reused_from: str | None = None
    source: str = "search"


@dataclass
class ScheduleResult:
    """Result of optimising a whole graph."""

    schedule: Schedule
    block_stats: list[BlockStats] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: The graph the schedule refers to: the searched graph, which is the
    #: pass-rewritten one when the engine's pass stage ran.
    graph: Graph | None = None
    #: Per-pass rewrite statistics when the engine's pass stage ran, else ``None``.
    pass_stats: list | None = None

    @property
    def total_transitions(self) -> int:
        return sum(stats.num_transitions for stats in self.block_stats)

    @property
    def total_measurements(self) -> int:
        return sum(stats.num_measurements for stats in self.block_stats)

    @property
    def total_pruned(self) -> int:
        return sum(stats.num_pruned for stats in self.block_stats)

    @property
    def total_profiling_ms(self) -> float:
        return sum(stats.profiling_ms for stats in self.block_stats)

    @property
    def predicted_latency_ms(self) -> float:
        """Sum of optimal per-block stage latencies found by the DP."""
        return sum(stats.optimized_latency_ms for stats in self.block_stats)


#: A wiring's ending table, all bitmasks: the admissible endings of each
#: state in enumeration order, and one flat entry ``(ending, *group_masks)``
#: per distinct ending, keyed by the ending.  Every state's tuple references
#: the entry's ending object, so an ending met in many states is one int.
EndingTable = tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]


class IOSScheduler:
    """Dynamic-programming inter-operator scheduler (Algorithm 1).

    Block searches are reused through the per-instance ``_block_cache``, keyed
    on a structural block fingerprint (repeated blocks inside one scheduler,
    e.g. NasNet cells).  For a cold multi-block graph an optional
    multiprocessing fan-out searches independent blocks in worker processes
    (``optimize_graph(..., jobs=N)``) and seeds that cache with their results
    in deterministic block order.  Every path yields byte-identical schedules
    to the plain serial search; only wall-clock time and *where* measurements
    happen differ.  Reuse across compiles of one graph is the engine's compile
    cache, one level up.
    """

    def __init__(self, cost_model: CostModel, config: SchedulerConfig | None = None):
        self.cost_model = cost_model
        self.config = config or SchedulerConfig()
        #: Cache of per-block results keyed by structural fingerprint.
        self._block_cache: dict[tuple, tuple[list[tuple[tuple[int, ...], ParallelizationStrategy]], BlockStats]] = {}
        #: Fingerprints searched by worker processes but not yet consumed: the
        #: first block that uses one reports the worker's full search stats
        #: instead of a cache-hit stub.
        self._fresh_results: set[tuple] = set()
        #: Ending tables keyed by ``(block wiring, pruning)``; see
        #: :meth:`_ending_table`.  Same lifetime as ``_block_cache``.
        self._ending_tables: dict[tuple, EndingTable] = {}

    def _rebind(self, index: BlockIndex, cached_stages) -> list[Stage]:
        """Bind position-based cached stages to this block's operator names."""
        names = index.names
        return [
            Stage(tuple(names[i] for i in positions), strategy)
            for positions, strategy in cached_stages
        ]

    def _ending_table(self, index: BlockIndex) -> EndingTable:
        """The ending table for ``index``'s wiring under this config's pruning.

        A state's admissible endings (and their order) and each ending's
        connected groups depend only on the block's successor masks and the
        pruning strategy — never on operator names or shapes — so blocks that
        share a wiring (NasNet cells, Inception's ``mixed_*`` blocks) share
        one :data:`EndingTable`: the endings of each state, and one flat
        ``(ending, *group_masks)`` entry per distinct ending whose ending int
        every state's tuple shares.  Without ``reuse_identical_blocks`` every
        search gets a fresh table, so each block enumerates its endings from
        scratch.
        """
        if not self.config.reuse_identical_blocks:
            return {}, {}
        key = (tuple(index.succ_mask), self.config.pruning)
        table = self._ending_tables.get(key)
        if table is None:
            table = self._ending_tables[key] = ({}, {})
        return table

    # --------------------------------------------------------------- block DP
    def optimize_block(self, graph: Graph, block: Block) -> tuple[list[Stage], BlockStats]:
        """Find an optimal stage decomposition for one block.

        Returns the stages (in execution order) and the search statistics.
        """
        op_names = graph.schedulable_names(block)
        if not op_names:
            return [], BlockStats(
                block_name=block.name, num_operators=0, width=0, source="empty"
            )

        fingerprint = self._block_fingerprint(graph, op_names)
        index = BlockIndex(graph, op_names)

        if self.config.reuse_identical_blocks:
            entry = self._block_cache.get(fingerprint)
            if entry is not None:
                cached_stages, cached_stats = entry
                stages = self._rebind(index, cached_stages)
                if fingerprint in self._fresh_results:
                    # First consumption of a worker-process search: report the
                    # real search stats (the work happened, in a worker).
                    self._fresh_results.discard(fingerprint)
                    return stages, replace(cached_stats, block_name=block.name)
                stats = replace(
                    cached_stats,
                    block_name=block.name,
                    num_measurements=0,
                    num_pruned=0,
                    profiling_ms=0.0,
                    elapsed_s=0.0,
                    reused_from=cached_stats.block_name,
                    source="block-cache",
                )
                return stages, stats

        start = time.perf_counter()
        measurements_before = self.cost_model.num_measurements
        profiling_before = self.cost_model.profiling_ms

        stage_masks, optimal_latency, num_states, transitions, pruned = self._search_block_dp(
            graph, index, block.name
        )

        names_of = index.names_of
        stages = [Stage(names_of(mask), strategy) for mask, strategy in stage_masks]
        stats = BlockStats(
            block_name=block.name,
            num_operators=index.n,
            width=maximum_antichain_size(graph, op_names),
            num_states=num_states,
            num_transitions=transitions,
            num_measurements=self.cost_model.num_measurements - measurements_before,
            num_pruned=pruned,
            profiling_ms=self.cost_model.profiling_ms - profiling_before,
            optimized_latency_ms=optimal_latency,
            elapsed_s=time.perf_counter() - start,
            source="search",
        )

        cached_stages = [
            (tuple(i for i in range(index.n) if mask >> i & 1), strategy)
            for mask, strategy in stage_masks
        ]
        if self.config.reuse_identical_blocks:
            self._block_cache[fingerprint] = (cached_stages, stats)
        return stages, stats

    def _search_block_dp(
        self, graph: Graph, index: BlockIndex, block_name: str
    ) -> tuple[list[tuple[int, ParallelizationStrategy]], float, int, int, int]:
        """The DP search proper: SCHEDULER(S) over the block's subset lattice.

        Returns ``(stage_masks, optimal_latency, num_states, transitions,
        pruned)``.  Candidate endings recur across states, so their GENERATE
        STAGE result is cached per ending bitmask — the latency values (and
        hence the chosen schedule) are identical to pricing every transition
        directly.  Each state's endings come from the wiring's
        :meth:`_ending_table`, enumerated on a miss.

        The search is an exact branch-and-bound: when the cost model supplies
        :meth:`~CostModel.stage_floors`, an unpriced ending whose
        ``rest_cost + floor`` already reaches the state's best total is not
        priced.  A candidate replaces the best only when strictly below it,
        so a skipped ending could never have been chosen and the schedule is
        unchanged; ``pruned`` counts those transitions.  Endings the cost
        model could price as one merged kernel are never bounded, because a
        merged kernel can beat the streams it replaces.
        """
        config = self.config
        pruning = config.pruning
        strategies = config.strategies
        cost_model = self.cost_model
        generate_stage = cost_model.generate_stage
        names_of = index.names_of
        merge_only = ParallelizationStrategy.CONCURRENT not in strategies
        merges = ParallelizationStrategy.MERGE in strategies
        endings_of, entries = self._ending_table(index)
        floors = cost_model.stage_floors(graph, index.names)
        merge_peers = merge_peer_masks(graph, index.names) if merges else []

        cost: dict[int, float] = {0: 0.0}
        choice: dict[int, tuple[int, ParallelizationStrategy]] = {}
        #: GENERATE STAGE result per candidate ending; ``None`` marks endings
        #: skipped by the IOS-Merge variant (unmergeable multi-operator sets).
        ending_choice: dict[int, StageChoice | None] = {}
        #: Floor of each ending met unpriced, and ``can_merge`` of each
        #: ending that passed the merge-peer test.
        ending_floor: dict[int, float] = {}
        merge_checked: dict[int, bool] = {}
        transitions = 0
        pruned = 0
        inf = float("inf")

        def mergeable(ending: int) -> bool:
            """Whether GENERATE STAGE may price ``ending`` as one merged kernel."""
            peers = merge_peers[(ending & -ending).bit_length() - 1]
            if not ending & (ending - 1) or ending & ~peers:
                return False  # one operator, or operators that never merge together
            result = merge_checked.get(ending)
            if result is None:
                result = merge_checked[ending] = can_merge(graph, names_of(ending))
            return result

        def scheduler(state: int) -> float:
            """SCHEDULER(S): minimal latency over all schedules of ``state``.

            Callers read ``cost`` first; this runs once per state, on a miss.
            """
            nonlocal transitions, pruned
            best = inf
            best_choice: tuple[int, ParallelizationStrategy] | None = None
            endings = endings_of.get(state)
            if endings is None:
                shared = []
                for ending, group_masks in enumerate_endings(index, state, pruning):
                    entry = entries.get(ending)
                    if entry is None:
                        entry = entries[ending] = (ending, *group_masks)
                    shared.append(entry[0])
                endings = endings_of[state] = tuple(shared)
            for ending in endings:
                stage_choice = ending_choice.get(ending, False)
                if stage_choice is None:
                    continue
                if stage_choice is False and merge_only and ending & (ending - 1):
                    if not mergeable(ending):
                        # The IOS-Merge variant only forms multi-operator
                        # stages by merging; unmergeable endings degenerate to
                        # single-operator stages, so skip them (Section 6.1:
                        # IOS-Merge equals the sequential schedule on
                        # RandWire/NasNet).
                        ending_choice[ending] = None
                        continue
                transitions += 1
                rest = state & ~ending
                rest_cost = cost.get(rest)
                if rest_cost is None:
                    rest_cost = scheduler(rest)
                if stage_choice is False:
                    if floors is not None:
                        floor = ending_floor.get(ending)
                        if floor is None:
                            floor = ending_floor[ending] = floors.stage_ms(entries[ending][1:])
                        if rest_cost + floor >= best and not (merges and mergeable(ending)):
                            pruned += 1
                            continue
                    # The enumeration already yields the ending's connected
                    # groups (ordered and topo-sorted exactly like
                    # ``connected_groups``), so pass them through and spare
                    # the cost model a recomputation per measurement.
                    groups = [names_of(mask) for mask in entries[ending][1:]]
                    stage_choice = ending_choice[ending] = generate_stage(
                        graph, names_of(ending), strategies, groups
                    )
                total = rest_cost + stage_choice.latency_ms
                if total < best:
                    best = total
                    best_choice = (ending, stage_choice.strategy)
            if best_choice is None:
                raise RuntimeError(
                    f"no admissible ending found for a state of block {block_name!r}; "
                    "the pruning strategy is too restrictive"
                )
            cost[state] = best
            choice[state] = best_choice
            return best

        try:
            optimal_latency = scheduler(index.full_mask)
        finally:
            # ``scheduler`` calls itself through its closure cell; emptying
            # the cell lets refcounting free the search's dicts on return
            # instead of leaving them to the cycle collector.
            del scheduler

        # Schedule construction (INTER OPERATOR SCHEDULER, L6-11): walk the
        # recorded choices from the full set back to the empty set.
        reversed_stages: list[tuple[int, ParallelizationStrategy]] = []
        state = index.full_mask
        while state:
            ending, strategy = choice[state]
            reversed_stages.append((ending, strategy))
            state &= ~ending
        stage_masks = list(reversed(reversed_stages))
        return stage_masks, optimal_latency, len(cost) - 1, transitions, pruned

    # ------------------------------------------------------- parallel fan-out
    def _parallel_warm_cache(self, graph: Graph, jobs: int) -> None:
        """Search the graph's independent uncached blocks in worker processes.

        Results seed the block cache in deterministic block order,
        so the subsequent serial pass replays them exactly as an inline search
        would have produced them.  Falls back to the serial path silently when
        the cost model cannot be cloned (``spawn() is None``) and with a
        warning when the pool itself fails.
        """
        if jobs <= 1 or not self.config.reuse_identical_blocks:
            return
        spawned = self.cost_model.spawn()
        if spawned is None:
            return

        tasks: list[tuple[str, tuple]] = []
        seen: set[tuple] = set()
        for block in graph.blocks:
            op_names = graph.schedulable_names(block)
            if not op_names:
                continue
            fingerprint = self._block_fingerprint(graph, op_names)
            if fingerprint in seen or fingerprint in self._block_cache:
                continue
            seen.add(fingerprint)
            tasks.append((block.name, fingerprint))
        if len(tasks) < 2:
            return

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        try:
            # The pool lives for this one compile: leaving the block joins
            # every worker, so no process outlives the search.
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(tasks)), mp_context=context
            ) as pool:
                futures = [
                    pool.submit(_search_block_worker, (graph, name, self.config, spawned))
                    for name, _ in tasks
                ]
                for (name, fingerprint), future in zip(tasks, futures):
                    cached_stages, stats = future.result()
                    self._block_cache[fingerprint] = (cached_stages, stats)
                    self._fresh_results.add(fingerprint)
        except Exception as error:  # pragma: no cover - environment dependent
            warnings.warn(
                f"parallel block search failed ({error!r}); continuing serially",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------- whole graph
    def optimize_graph(self, graph: Graph, *, jobs: int = 1) -> ScheduleResult:
        """Optimise every block of ``graph`` and concatenate the block schedules.

        This is the search primitive :meth:`repro.engine.Engine.compile`
        builds on; rewriting the graph first is the engine's pass stage.
        """
        start = time.perf_counter()
        schedule = Schedule(graph_name=graph.name, origin=self._origin_label())
        all_stats: list[BlockStats] = []
        if jobs > 1:
            self._parallel_warm_cache(graph, jobs)
        for block in graph.blocks:
            stages, stats = self.optimize_block(graph, block)
            schedule.extend(stages)
            all_stats.append(stats)
        schedule.validate(graph)
        return ScheduleResult(
            schedule=schedule,
            block_stats=all_stats,
            elapsed_s=time.perf_counter() - start,
            graph=graph,
        )

    # ----------------------------------------------------------------- helpers
    def _origin_label(self) -> str:
        label = variant_label(self.config)
        if label == "custom":
            label = "ios-merge" if ParallelizationStrategy.MERGE in self.config.strategies else "ios-parallel"
        return f"{label} ({self.config.pruning.describe()})"

    def _block_fingerprint(self, graph: Graph, op_names: Sequence[str]) -> tuple:
        """Structural fingerprint of a block: operator configs + local wiring.

        Two blocks with identical fingerprints have isomorphic internal
        structure, identical operator attributes and identical input shapes,
        so their optimal schedules are identical up to operator renaming.
        """
        order = graph.topological_order(list(op_names))
        position = {name: i for i, name in enumerate(order)}
        entries = []
        for name in order:
            op = graph.nodes[name]
            local_inputs = tuple(
                position[p] if p in position else f"ext:{graph.nodes[p].output_shape}"
                for p in op.inputs
            )
            attrs = tuple(sorted((k, str(v)) for k, v in op.attrs().items()))
            entries.append((op.kind, attrs, local_inputs, str(op.output_shape)))
        return (
            tuple(entries),
            self.config.pruning,
            tuple(self.config.strategies),
        )


# --------------------------------------------------------------------------- #
# Parallel search workers                                                      #
# --------------------------------------------------------------------------- #
def _search_block_worker(payload: tuple) -> tuple[list, BlockStats]:
    """Search one block in a worker process.

    ``payload`` is ``(graph, block_name, config, cost_model)`` where the cost
    model is a fresh clone from :meth:`CostModel.spawn`.  Returns the
    position-based cached stages (rename-invariant, the block-cache encoding)
    and the search stats, which the parent seeds into its caches.
    """
    graph, block_name, config, cost_model = payload
    scheduler = IOSScheduler(cost_model, config)
    block = next(b for b in graph.blocks if b.name == block_name)
    _stages, stats = scheduler.optimize_block(graph, block)
    op_names = graph.schedulable_names(block)
    fingerprint = scheduler._block_fingerprint(graph, op_names)
    cached_stages, _ = scheduler._block_cache[fingerprint]
    stats.source = "parallel"
    return cached_stages, stats


def resolve_compile_jobs(jobs: int = 1) -> int:
    """Resolve a compile-parallelism setting to a concrete worker count.

    ``1`` is serial and ``0`` means "one worker per CPU"; a negative count
    is an error.
    """
    require_int("compile jobs", jobs, minimum=0)
    return jobs or max(1, os.cpu_count() or 1)
