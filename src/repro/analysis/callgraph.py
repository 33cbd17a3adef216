"""Context-sensitive call graph.

Nodes are :class:`MethodContext` (method × context) pairs; edges carry the
call-site instruction. The call graph is built on the fly by the pointer
analysis (WALA-style) and is the backbone for action extraction, in-action
reachability, and HB rule 5's ICFG domination test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.context import Context, EMPTY_CONTEXT
from repro.ir.instructions import Invoke
from repro.ir.program import Method


@dataclass(frozen=True)
class MethodContext:
    """One analysed instance of a method under a context."""

    method: Method
    context: Context = EMPTY_CONTEXT

    def __post_init__(self) -> None:
        # Node keys are hashed millions of times while the worklist drains;
        # the generated dataclass hash would re-hash the whole context string
        # on every dict probe. Compute once (instances are frozen).
        object.__setattr__(self, "_hash", hash((self.method, self.context)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # The memoised hash mixes hash(Method) (identity-based) and the
        # str-seed-dependent context hash — both meaningless in another
        # process. Recompute on load, before any containing dict restores.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def signature(self) -> str:
        return self.method.signature

    def action_id(self) -> Optional[int]:
        return self.context.action_id()

    def __repr__(self) -> str:
        return f"{self.method.signature}{self.context!r}"


#: how a call edge arises; action extraction partitions the graph on this.
#: "call"   — ordinary (synchronous) invocation
#: "post"   — asynchronous post to a looper (Handler.post/sendMessage/
#:            runOnUiThread/View.post, AsyncTask main-thread callbacks)
#: "thread" — spawns a fresh background thread (Thread.start, Executor)
#: "task"   — AsyncTask.doInBackground (background pool thread)
#: "event"  — framework-delivered event (harness lifecycle/GUI/system sites)
EdgeVia = str


@dataclass(frozen=True)
class CallEdge:
    caller: MethodContext
    site: Invoke
    callee: MethodContext
    via: EdgeVia = "call"

    @property
    def is_synchronous(self) -> bool:
        return self.via == "call"

    def __repr__(self) -> str:
        return f"{self.caller.signature} --{self.via}:{self.site.method_name}--> {self.callee!r}"


class CallGraph:
    """Mutable context-sensitive call graph with deterministic iteration."""

    def __init__(self) -> None:
        self._nodes: Dict[MethodContext, None] = {}
        self._out: Dict[MethodContext, List[CallEdge]] = {}
        self._in: Dict[MethodContext, List[CallEdge]] = {}
        self._edge_set: Set[Tuple[MethodContext, int, MethodContext]] = set()
        #: method -> its contexts, in node insertion order (derived state)
        self._by_method: Dict[Method, List[MethodContext]] = {}
        self.entries: List[MethodContext] = []

    def add_node(self, node: MethodContext) -> bool:
        if node in self._nodes:
            return False
        self._nodes[node] = None
        self._out[node] = []
        self._in[node] = []
        self._by_method.setdefault(node.method, []).append(node)
        return True

    def add_entry(self, node: MethodContext) -> None:
        self.add_node(node)
        if node not in self.entries:
            self.entries.append(node)

    def add_edge(
        self,
        caller: MethodContext,
        site: Invoke,
        callee: MethodContext,
        via: EdgeVia = "call",
    ) -> bool:
        key = (caller, id(site), callee, via)
        if key in self._edge_set:
            return False
        self.add_node(caller)
        self.add_node(callee)
        edge = CallEdge(caller, site, callee, via)
        self._out[caller].append(edge)
        self._in[callee].append(edge)
        self._edge_set.add(key)
        return True

    def __getstate__(self):
        # _edge_set keys carry id(site) — meaningless in another process.
        # Rebuild it (and the method index, which only repeats _nodes) from
        # the node and edge lists on load, so neither grows the pickle.
        state = dict(self.__dict__)
        state.pop("_edge_set", None)
        state.pop("_by_method", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._edge_set = {
            (e.caller, id(e.site), e.callee, e.via)
            for out in self._out.values()
            for e in out
        }
        self._by_method = {}
        for node in self._nodes:
            self._by_method.setdefault(node.method, []).append(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[MethodContext]:
        return list(self._nodes)

    def __contains__(self, node: MethodContext) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edge_set)

    def out_edges(self, node: MethodContext) -> List[CallEdge]:
        return list(self._out.get(node, ()))

    def in_edges(self, node: MethodContext) -> List[CallEdge]:
        return list(self._in.get(node, ()))

    def callees(self, node: MethodContext) -> List[MethodContext]:
        return [e.callee for e in self._out.get(node, ())]

    def callers(self, node: MethodContext) -> List[MethodContext]:
        return [e.caller for e in self._in.get(node, ())]

    def callees_at(self, node: MethodContext, site: Invoke) -> List[MethodContext]:
        return [e.callee for e in self._out.get(node, ()) if e.site is site]

    def contexts_of(self, method: Method) -> List[MethodContext]:
        """Every context ``method`` was analysed under, in node order."""
        return list(self._by_method.get(method, ()))

    def edges(self) -> Iterator[CallEdge]:
        for out in self._out.values():
            yield from out

    # ------------------------------------------------------------------
    def reachable_from(
        self,
        roots: List[MethodContext],
        stop: Optional[Set[MethodContext]] = None,
        synchronous_only: bool = False,
    ) -> List[MethodContext]:
        """Nodes reachable from ``roots`` without *entering* nodes in ``stop``
        (the roots themselves are always included). Deterministic order.

        ``synchronous_only`` restricts the walk to plain ``call`` edges —
        this is *in-action reachability*: the code executing as part of one
        action, excluding anything it merely posts or spawns.
        """
        stop = stop or set()
        seen: Dict[MethodContext, None] = {}
        worklist = deque(roots)
        for root in roots:
            seen[root] = None
        while worklist:
            node = worklist.popleft()
            for edge in self._out.get(node, ()):
                if synchronous_only and not edge.is_synchronous:
                    continue
                nxt = edge.callee
                if nxt in seen or nxt in stop:
                    continue
                seen[nxt] = None
                worklist.append(nxt)
        return list(seen)
