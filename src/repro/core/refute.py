"""Refutation of candidate races by backward symbolic execution (§5).

A racy pair survives (is a *true positive*) iff **both** orderings of its
two actions admit a feasible witness:

    ordering "E before L":
      1. walk backward from the racy access αL to L's entry, collecting the
         path constraints required to reach αL (e.g. ``mIsRunning == true``);
      2. for each collected constraint set, walk backward through E from its
         exit to its entry — the path must visit αE (both accesses must
         happen) and must not contradict the constraints: a strong update in
         E that conflicts (``mIsRunning = false``) kills the path.

If every path of either ordering is contradicted, the candidate is refuted
— this is how ad-hoc guard-flag synchronization (Figure 8) is recognised
without any annotation.

On-demand constant propagation (§5) seeds ``Message`` field constants from
the send site when an action is a ``handleMessage`` body. A path-budget
overrun reports the race anyway (over-approximation, as in the paper), and
nodes visited only by refuted explorations are memoised so later queries
prune early.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs

from repro.analysis.callgraph import MethodContext
from repro.analysis.constprop import constant_message_fields
from repro.analysis.icfg import ActionICFG, ICFGNode
from repro.core.accesses import Access, Location
from repro.core.actions import Action
from repro.core.extract import Extraction
from repro.core.races import RacyPair
from repro.symbolic.executor import BackwardExecutor, SearchOutcome
from repro.symbolic.state import SymState


@dataclass
class RefutationResult:
    pair: RacyPair
    is_race: bool
    refuted_ordering: Optional[str] = None  # which ordering failed, if any
    nodes_expanded: int = 0
    budget_exceeded: bool = False
    cache_hits: int = 0


@dataclass
class RefutationSummary:
    results: List[RefutationResult] = field(default_factory=list)
    #: True when a parallel run fell back to serial (pool crash or no fork).
    #: The results are still exact — serial is the reference implementation —
    #: but the operator asked for parallelism and did not get it.
    degraded: bool = False
    degraded_reason: Optional[str] = None

    @property
    def surviving(self) -> List[RacyPair]:
        return [r.pair for r in self.results if r.is_race]

    @property
    def refuted(self) -> List[RacyPair]:
        return [r.pair for r in self.results if not r.is_race]

    def stats(self) -> Dict[str, int]:
        return {
            "candidates": len(self.results),
            "surviving": len(self.surviving),
            "refuted": len(self.refuted),
            "budget_exceeded": sum(1 for r in self.results if r.budget_exceeded),
            "nodes_expanded": sum(r.nodes_expanded for r in self.results),
            "cache_hits": sum(r.cache_hits for r in self.results),
            "degraded": int(self.degraded),
        }


class WorkerPoolError(RuntimeError):
    """The refutation worker pool crashed (worker exception or pool death).

    ``cause_traceback`` preserves the worker-side traceback so the failure
    can be diagnosed even after the fallback run succeeds.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"refutation worker pool crashed: {cause!r}")
        self.cause = cause
        self.cause_traceback = "".join(
            traceback.format_exception(type(cause), cause, cause.__traceback__)
        )


class RefutationEngine:
    def __init__(
        self,
        extraction: Extraction,
        path_budget: int = 5000,
        loop_bound: int = 2,
        memo=None,
    ) -> None:
        assert extraction.result is not None
        self.ext = extraction
        self.result = extraction.result
        self.path_budget = path_budget
        self.loop_bound = loop_bound
        #: persistent cross-run verdict memo (repro.cache.memo.RefutationMemo)
        #: or None; consulted before any symbolic execution per candidate
        self.memo = memo
        self._icfg_cache: Dict[int, ActionICFG] = {}
        self._facts_cache: Dict[int, Dict[Location, object]] = {}
        # §5 caching: ICFG nodes only ever seen on refuted explorations.
        self._refuted_nodes: Set[ICFGNode] = set()

    # ------------------------------------------------------------------
    def refute_all(
        self, pairs: List[RacyPair], parallelism: int = 1
    ) -> RefutationSummary:
        """Refute every candidate pair.

        ``parallelism > 1`` fans the pairs out over a process pool (see
        :func:`_refute_parallel`); ``parallelism=1`` is the serial path with
        a single refuted-node memo shared across all pairs. Result order is
        the input pair order in both modes.

        A crashed worker pool is retried once (transient failures: a worker
        OOM-killed, a fork raced a thread), then the run degrades to the
        serial path **loudly**: a ``degraded`` event is emitted through
        :mod:`repro.obs` and the returned summary carries ``degraded=True``
        plus the captured worker traceback in ``degraded_reason``. Serial is
        the reference implementation, so degraded results are still exact.
        """
        degraded_reason: Optional[str] = None
        if parallelism > 1 and len(pairs) > 1:
            for attempt in (1, 2):
                try:
                    summary = _refute_parallel(
                        self.ext,
                        pairs,
                        self.path_budget,
                        self.loop_bound,
                        parallelism,
                        memo=self.memo,
                    )
                except WorkerPoolError as exc:
                    degraded_reason = exc.cause_traceback
                    obs.emit_warning(
                        f"{exc} (attempt {attempt}/2)",
                        stage="refutation",
                        attempt=attempt,
                        cause=repr(exc.cause),
                    )
                    continue
                if summary is not None:
                    self._record_metrics(summary)
                    return summary
                # fork is unavailable on this platform: retrying cannot help
                degraded_reason = "fork start method unavailable"
                break
            obs.emit_degraded(
                "parallel refutation degraded to serial: " + degraded_reason.splitlines()[-1],
                stage="refutation",
                parallelism=parallelism,
                cause_traceback=degraded_reason,
            )
        summary = RefutationSummary()
        for pair in pairs:
            summary.results.append(self.refute(pair))
        if degraded_reason is not None:
            summary.degraded = True
            summary.degraded_reason = degraded_reason
        self._record_metrics(summary)
        return summary

    @staticmethod
    def _record_metrics(summary: RefutationSummary) -> None:
        """Record the run's refutation effort into the metrics registry.

        Deliberately summary-level and parent-side: pool workers never
        touch the registry, so a parallel run scrapes exactly the same
        totals as a serial one (the parallel-equivalence tests lock this).
        """
        stats = summary.stats()
        obs.metrics.counter(
            "refutation.candidates", "racy pairs fed to symbolic refutation"
        ).inc(stats["candidates"])
        obs.metrics.counter(
            "refutation.refuted", "candidates killed by backward symbolic execution"
        ).inc(stats["refuted"])
        obs.metrics.counter(
            "refutation.nodes_expanded", "ICFG nodes expanded across all candidates"
        ).inc(stats["nodes_expanded"])
        obs.metrics.counter(
            "refutation.cache_hits", "§5 refuted-node memo hits"
        ).inc(stats["cache_hits"])
        obs.metrics.counter(
            "refutation.budget_exceeded", "candidates kept because the path budget ran out"
        ).inc(stats["budget_exceeded"])
        hist = obs.metrics.histogram(
            "refutation.nodes_per_candidate", "expansion effort per candidate"
        )
        for result in summary.results:
            hist.observe(result.nodes_expanded)

    def refute(self, pair: RacyPair) -> RefutationResult:
        if self.memo is not None:
            verdict = self.memo.lookup(pair)
            if verdict is not None:
                is_race, ordering, budget = verdict
                return RefutationResult(
                    pair=pair,
                    is_race=is_race,
                    refuted_ordering=ordering,
                    budget_exceeded=budget,
                    nodes_expanded=0,
                    cache_hits=1,
                )
        result = RefutationResult(pair=pair, is_race=True)
        a1, a2 = pair.access1, pair.access2
        with obs.span(
            "refute.candidate",
            field=pair.field_name,
            actions=list(pair.actions),
        ) as sp:
            for earlier, later, tag in ((a1, a2, "1<2"), (a2, a1, "2<1")):
                outcome = self._ordering_feasible(earlier, later)
                result.nodes_expanded += outcome.nodes_expanded
                result.budget_exceeded |= outcome.budget_exceeded
                result.cache_hits += outcome.cache_hits
                if outcome.budget_exceeded:
                    # cannot decide: over-approximate (keep the race)
                    continue
                if not outcome.feasible:
                    result.is_race = False
                    result.refuted_ordering = tag
                    break
            sp.set(
                verdict="race" if result.is_race else "refuted",
                nodes_expanded=result.nodes_expanded,
            )
        return result

    # ------------------------------------------------------------------
    def _ordering_feasible(self, earlier: Access, later: Access) -> SearchOutcome:
        """Is "earlier's action completes, then later's action reaches its
        access" witnessable?"""
        combined = SearchOutcome(feasible=False)

        later_icfg = self._icfg_of(later.action)
        later_exec = self._executor(later_icfg)
        later_start = self._nodes_of_access(later_icfg, later)
        later_entries = self._entry_nodes(later_icfg, later.action)
        if not later_start or not later_entries:
            combined.feasible = True  # cannot analyse: do not refute
            return combined
        collect = later_exec.search(
            later_start,
            later_entries,
            facts=self._facts_of(later.action),
        )
        combined.nodes_expanded += collect.nodes_expanded
        combined.budget_exceeded |= collect.budget_exceeded
        combined.cache_hits += collect.cache_hits
        if collect.budget_exceeded:
            combined.feasible = True
            return combined
        if not collect.feasible:
            # αL is unreachable inside its own action under the constraints:
            # no witness in this ordering regardless of E.
            self._remember_refuted(later_icfg, collect, later_start)
            return combined

        earlier_icfg = self._icfg_of(earlier.action)
        earlier_exec = self._executor(earlier_icfg)
        earlier_entries = self._entry_nodes(earlier_icfg, earlier.action)
        earlier_exits = self._exit_nodes(earlier_icfg, earlier.action)
        must_pass = set(self._nodes_of_access(earlier_icfg, earlier))
        if not earlier_exits or not earlier_entries or not must_pass:
            combined.feasible = True
            return combined
        facts = self._facts_of(earlier.action)
        for state in collect.final_states:
            carried = SymState(regs={}, locs=dict(state.locs))
            witness = earlier_exec.search(
                earlier_exits,
                earlier_entries,
                initial=carried,
                must_pass=must_pass,
                facts=facts,
                stop_at_first=True,
            )
            combined.nodes_expanded += witness.nodes_expanded
            combined.budget_exceeded |= witness.budget_exceeded
            combined.cache_hits += witness.cache_hits
            if witness.feasible or witness.budget_exceeded:
                combined.feasible = True
                return combined
        return combined

    # ------------------------------------------------------------------
    def _executor(self, icfg: ActionICFG) -> BackwardExecutor:
        return BackwardExecutor(
            icfg,
            self.result,
            path_budget=self.path_budget,
            loop_bound=self.loop_bound,
            refuted_node_cache=self._refuted_nodes,
        )

    def _remember_refuted(
        self, icfg: ActionICFG, outcome: SearchOutcome, starts: List[ICFGNode]
    ) -> None:
        """Memoise the §5 cache: a fully-refuted collection query means no
        feasible backward path leaves these start nodes."""
        if not outcome.budget_exceeded:
            self._refuted_nodes.update(starts)

    def _icfg_of(self, action: Action) -> ActionICFG:
        icfg = self._icfg_cache.get(action.id)
        if icfg is None:
            icfg = ActionICFG(self.result.call_graph, action.members)
            self._icfg_cache[action.id] = icfg
        return icfg

    def _entry_nodes(self, icfg: ActionICFG, action: Action) -> Set[ICFGNode]:
        return {
            icfg.entry_node(mc)
            for mc in icfg.members
            if mc.method is action.entry_method
        }

    def _exit_nodes(self, icfg: ActionICFG, action: Action) -> List[ICFGNode]:
        nodes: List[ICFGNode] = []
        for mc in icfg.members:
            if mc.method is action.entry_method:
                nodes.extend(icfg.exit_nodes(mc))
        return nodes

    def _nodes_of_access(self, icfg: ActionICFG, access: Access) -> List[ICFGNode]:
        return icfg.sites_of_instruction(access.instr)

    # ------------------------------------------------------------------
    def _facts_of(self, action: Action) -> Dict[Location, object]:
        """On-demand constant propagation: Message field constants from the
        send site, keyed by the message objects' locations."""
        facts = self._facts_cache.get(action.id)
        if facts is not None:
            return facts
        facts = {}
        site = action.creation_site
        method = action.creation_method
        if (
            site is not None
            and method is not None
            and action.entry_method.name == "handleMessage"
        ):
            constants = constant_message_fields(method, site)
            if constants and site.args:
                arg = site.args[0]
                from repro.ir.instructions import Var

                if isinstance(arg, Var):
                    for mc in self.result.call_graph.contexts_of(method):
                        for msg_obj in self.result.var(mc, arg.name):
                            for fname, value in constants.items():
                                facts[Location(msg_obj, fname)] = value
        self._facts_cache[action.id] = facts
        return facts


# ----------------------------------------------------------------------
# parallel driver
# ----------------------------------------------------------------------
#: job state a forked worker inherits: (extraction, path_budget, loop_bound,
#: chunks, memo). Set only for the lifetime of the pool; never pickled.
_FORK_JOB: Optional[tuple] = None


def _refute_chunk(
    chunk_index: int,
) -> Tuple[List[Tuple[bool, Optional[str], int, bool, int]], List[Dict[str, object]]]:
    """Worker: refute one contiguous chunk of pairs with a fresh engine.

    The engine — and therefore the §5 refuted-node memo — is shared across
    the chunk's pairs, mirroring the serial path at chunk granularity.
    Returns plain tuples so the parent can reattach its own pair objects
    (pickling the pairs back would break identity-keyed caches), plus the
    worker-side obs events (chunk + per-candidate spans) as dicts. The
    fork inherited the parent's open-span stack, so those spans already
    carry parent ids pointing into the parent's tree — the parent just
    re-emits them.
    """
    assert _FORK_JOB is not None
    extraction, path_budget, loop_bound, chunks, memo = _FORK_JOB
    # the memo snapshot (keys + entries, prepared pre-fork) came over with
    # the fork; id(pair) lookups still resolve because the pair objects are
    # the parent's. Workers only read it — the parent persists post-join.
    engine = RefutationEngine(
        extraction, path_budget=path_budget, loop_bound=loop_bound, memo=memo
    )
    out = []
    with obs.Recorder() as recorder:
        with obs.span(
            "refute.chunk", chunk=chunk_index, pairs=len(chunks[chunk_index])
        ):
            for pair in chunks[chunk_index]:
                r = engine.refute(pair)
                out.append(
                    (
                        r.is_race,
                        r.refuted_ordering,
                        r.nodes_expanded,
                        r.budget_exceeded,
                        r.cache_hits,
                    )
                )
    return out, recorder.to_dicts()


def _refute_parallel(
    extraction: Extraction,
    pairs: List[RacyPair],
    path_budget: int,
    loop_bound: int,
    parallelism: int,
    memo=None,
) -> Optional[RefutationSummary]:
    """Fan candidate pairs out over a ``fork`` process pool.

    Pairs are split into ``parallelism`` contiguous chunks, one task per
    worker, so the work partition (and thus each chunk's memo contents) is a
    pure function of the input order — results are deterministic for a given
    N regardless of OS scheduling. Returns None when fork is unavailable on
    the platform (the caller degrades to serial without retrying); a pool or
    worker crash raises :class:`WorkerPoolError` carrying the worker-side
    traceback so the caller can retry once and then degrade loudly.
    """
    global _FORK_JOB
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:
        return None

    workers = min(parallelism, len(pairs))
    base, rem = divmod(len(pairs), workers)
    chunks: List[List[RacyPair]] = []
    start = 0
    for i in range(workers):
        size = base + (1 if i < rem else 0)
        chunks.append(pairs[start : start + size])
        start += size

    _FORK_JOB = (extraction, path_budget, loop_bound, chunks, memo)
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            chunk_results = list(pool.map(_refute_chunk, range(len(chunks))))
    except Exception as exc:
        # a worker raised (bugs in _refute_chunk included) or the pool died;
        # surface the cause instead of silently absorbing it (satellite 1)
        raise WorkerPoolError(exc) from exc
    finally:
        _FORK_JOB = None

    summary = RefutationSummary()
    for chunk, (results, worker_events) in zip(chunks, chunk_results):
        # replay the worker's spans into this process's hooks: their span
        # ids/parent ids/timestamps were minted worker-side and reattach to
        # the span open here at fork time (the refutation stage)
        obs.reemit(worker_events)
        for pair, (is_race, ordering, nodes, budget, hits) in zip(chunk, results):
            summary.results.append(
                RefutationResult(
                    pair=pair,
                    is_race=is_race,
                    refuted_ordering=ordering,
                    nodes_expanded=nodes,
                    budget_exceeded=budget,
                    cache_hits=hits,
                )
            )
    return summary


def refute_races(
    extraction: Extraction,
    pairs: List[RacyPair],
    parallelism: int = 1,
    **kwargs,
) -> RefutationSummary:
    """Run symbolic refutation over all candidate pairs."""
    return RefutationEngine(extraction, **kwargs).refute_all(
        pairs, parallelism=parallelism
    )
