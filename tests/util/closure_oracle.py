"""The per-node Python-``set`` transitive closure, kept as a test oracle."""

from __future__ import annotations

from typing import Dict, Generic, List, Set, Tuple, TypeVar

N = TypeVar("N")


class NaiveTransitiveClosure(Generic[N]):
    """The original per-node Python-``set`` closure.

    The reference implementation: the property tests check the bitset
    :class:`~repro.util.graph.TransitiveClosure` against it (together with
    a Floyd–Warshall oracle), and ``build_shbg(ext, closure=...)`` runs
    the real rule pipeline over it. Semantically identical to the bitset
    closure.
    """

    def __init__(self) -> None:
        self._after: Dict[N, Set[N]] = {}
        self._before: Dict[N, Set[N]] = {}
        self._direct: Set[Tuple[N, N]] = set()

    def add_node(self, node: N) -> None:
        self._after.setdefault(node, set())
        self._before.setdefault(node, set())

    def add_edge(self, src: N, dst: N) -> bool:
        """Record ``src < dst``; returns True if the closure grew."""
        self.add_node(src)
        self.add_node(dst)
        self._direct.add((src, dst))
        if dst in self._after[src]:
            return False
        sources = self._before[src] | {src}
        targets = self._after[dst] | {dst}
        grew = False
        for a in sources:
            new = targets - self._after[a]
            if new:
                grew = True
                self._after[a] |= new
                for b in new:
                    self._before[b].add(a)
        return grew

    def ordered(self, a: N, b: N) -> bool:
        return b in self._after.get(a, ())

    def comparable(self, a: N, b: N) -> bool:
        return self.ordered(a, b) or self.ordered(b, a)

    def successors(self, node: N) -> Set[N]:
        return set(self._after.get(node, ()))

    def predecessors(self, node: N) -> Set[N]:
        return set(self._before.get(node, ()))

    def direct_edges(self) -> Set[Tuple[N, N]]:
        return set(self._direct)

    def edge_count(self) -> int:
        return sum(len(afters) for afters in self._after.values())

    def closure_edges(self) -> Set[Tuple[N, N]]:
        return {(a, b) for a, afters in self._after.items() for b in afters}

    def nodes(self) -> List[N]:
        return list(self._after)

    def has_cycle(self) -> bool:
        return any(node in self._after[node] for node in self._after)
