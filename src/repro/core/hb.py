"""The Static Happens-Before Graph and its seven ordering rules (§4).

The SHBG's nodes are actions; an edge ``A ≺ B`` means we can statically prove
action A completes before action B starts. The rules, numbered as in §4.3:

1. **Action invocation** — the action that posts/spawns/registers another
   happens before it.
2. **Component lifecycle** — lifecycle callback instances are ordered by CFG
   dominance between their call sites in the generated harness (Figure 5,
   including the onResume"1"/onResume"2" pre-dominator split).
3. **GUI layout/object order** — likewise for GUI events (Figure 6); plus
   the visibility refinement of §6.4: a stopped activity delivers no GUI
   events, so GUI actions precede onStop/onDestroy.
4. **Intra-procedural domination** — two posts in one method, the first
   dominating the second, posting to the same FIFO looper ⇒ ordered.
5. **Inter-procedural, intra-action domination** — same, across methods of
   one action, using de-facto domination on the action's ICFG (remove e1,
   check e2's reachability).
6. **Inter-action transitivity** — A1 ≺ A2, A1 posts A3 and A2 posts A4 to
   the same looper ⇒ A3 ≺ A4 (Figure 7; relies on looper FIFO/atomicity).
7. **Transitivity** — maintained incrementally; rule 6 is iterated with the
   closure to a fixpoint because each can feed the other.

Rules 4-6 are restricted to *direct, undelayed* posts: ``postDelayed`` and
``postAtFrontOfQueue`` break the FIFO argument, and AsyncTask completion
callbacks are enqueued at unknown times from the pool thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.icfg import ActionICFG
from repro.core.actions import Action, ActionKind
from repro.core.extract import Extraction
from repro.core.harness import HarnessSite
from repro.util.graph import TransitiveClosure

#: post APIs that preserve queue FIFO order (rules 4-6 precondition)
FIFO_POST_APIS = frozenset(
    {"post", "sendMessage", "sendEmptyMessage", "runOnUiThread"}
)


@dataclass(frozen=True)
class HBEdge:
    src: int
    dst: int
    rule: str

    def __repr__(self) -> str:
        return f"{self.src} ≺ {self.dst} [{self.rule}]"


@dataclass
class SHBG:
    """The Static Happens-Before Graph."""

    actions: List[Action]
    closure: TransitiveClosure[int] = field(default_factory=TransitiveClosure)
    direct_edges: List[HBEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        for action in self.actions:
            self.closure.add_node(action.id)

    # ------------------------------------------------------------------
    def add(self, src: int, dst: int, rule: str) -> bool:
        """Insert ``src ≺ dst`` unless degenerate, contradicting or known."""
        if src == dst:
            return False
        if self.closure.ordered(dst, src):
            # The reverse order is already proven; adding this edge would
            # make the relation cyclic (i.e. inconsistent). Keep the first
            # derivation, drop this one.
            return False
        if self.closure.ordered(src, dst):
            # Already known (directly or by transitivity): record nothing,
            # so edges_by_rule() does not double-count re-derived edges.
            return False
        self.direct_edges.append(HBEdge(src, dst, rule))
        return self.closure.add_edge(src, dst)

    def ordered(self, a: int, b: int) -> bool:
        return self.closure.ordered(a, b)

    def comparable(self, a: int, b: int) -> bool:
        return self.closure.comparable(a, b)

    # ------------------------------------------------------------------
    def hb_edge_count(self) -> int:
        """Ordered pairs in the closure (Table 3's "HB Edges" column).

        Popcount over the closure's bit-rows — ``closure_edges()`` is never
        materialized on this path.
        """
        return self.closure.edge_count()

    def ordered_fraction(self) -> float:
        """Closure edges over the theoretical max N(N-1)/2 (Table 3 col 5)."""
        n = len(self.actions)
        maximum = n * (n - 1) / 2
        return self.hb_edge_count() / maximum if maximum else 0.0

    def unordered_pairs(self) -> List[Tuple[Action, Action]]:
        out = []
        for i, a in enumerate(self.actions):
            for b in self.actions[i + 1 :]:
                if not self.comparable(a.id, b.id):
                    out.append((a, b))
        return out

    def edges_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for edge in self.direct_edges:
            counts[edge.rule] = counts.get(edge.rule, 0) + 1
        return counts

    # -- provenance queries (repro explain / report provenance blocks) --
    # Answered from two derived indices over ``direct_edges`` (successor
    # lists and per-action rule counts) and from the closure's bit-rows.
    # The indices are built on first use, rebuilt only if edges were added
    # since, and never pickled: a cached SHBG keeps its shape.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_edge_index", None)
        return state

    def _index(self) -> "_EdgeIndex":
        index = self.__dict__.get("_edge_index")
        if index is None or index.size != len(self.direct_edges):
            index = self.__dict__["_edge_index"] = _EdgeIndex(self.direct_edges)
        return index

    def incident_rules(self, action_id: int) -> Dict[str, int]:
        """Rules that produced direct edges touching this action, by name."""
        return dict(sorted(self._index().rules.get(action_id, {}).items()))

    def rule_path(self, src: int, dst: int) -> Optional[List[HBEdge]]:
        """A shortest rule-labeled derivation of ``src ≺ dst`` over the
        direct edges, or None when the pair is not so ordered.

        This is the evidence behind a closure bit: the chain of rule
        applications (BFS, so the fewest-hops chain) that proves the
        ordering.
        """
        if src == dst or not self.ordered(src, dst):
            return None
        adjacency = self._index().successors
        frontier = [src]
        came_from: Dict[int, HBEdge] = {}
        seen = {src}
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for edge in adjacency.get(node, ()):
                    if edge.dst in seen:
                        continue
                    seen.add(edge.dst)
                    came_from[edge.dst] = edge
                    if edge.dst == dst:
                        path: List[HBEdge] = []
                        cursor = dst
                        while cursor != src:
                            step = came_from[cursor]
                            path.append(step)
                            cursor = step.src
                        path.reverse()
                        return path
                    nxt.append(edge.dst)
            frontier = nxt
        return None  # ordered transitively but not derivable: should not happen

    def common_ancestors(self, a: int, b: int) -> List[int]:
        """Actions ordered before *both* a and b (the candidate fork points
        an unordered pair diverged from), in action-id order."""
        closure = self.closure
        return sorted(closure.decode(closure.row_before(a) & closure.row_before(b)))

    def fork_points(self, a: int, b: int) -> List[int]:
        """The *latest* common ancestors of a and b: common ancestors with
        no other common ancestor ordered after them. For a racy pair these
        are where control provably diverged without ever re-ordering."""
        closure = self.closure
        pool = closure.row_before(a) & closure.row_before(b)
        return sorted(c for c in closure.decode(pool) if not closure.row_after(c) & pool)


class _EdgeIndex:
    """Successor lists and per-action rule counts over a direct-edge list."""

    def __init__(self, edges: List[HBEdge]) -> None:
        self.size = len(edges)
        self.successors: Dict[int, List[HBEdge]] = {}
        self.rules: Dict[int, Dict[str, int]] = {}
        for edge in edges:
            self.successors.setdefault(edge.src, []).append(edge)
            for end in (edge.src, edge.dst):
                counts = self.rules.setdefault(end, {})
                counts[edge.rule] = counts.get(edge.rule, 0) + 1


class HBBuilder:
    """Builds the SHBG for one extraction."""

    def __init__(self, extraction: Extraction, closure=None):
        self.ext = extraction
        if closure is not None:
            # dependency injection for differential testing:
            # any object with the TransitiveClosure query interface works;
            # bit-row fast paths engage only when it provides row_after()
            self.shbg = SHBG(extraction.actions, closure=closure)
        else:
            self.shbg = SHBG(extraction.actions)
        self._site_actions: Dict[int, List[Action]] = {}
        for action in extraction.actions:
            if action.creation_site is not None:
                self._site_actions.setdefault(id(action.creation_site), []).append(action)

    # ------------------------------------------------------------------
    def build(self) -> SHBG:
        """Apply the rules in order, one obs span per rule application.

        Each span's closing event carries the number of direct edges the
        rule contributed — the per-rule breakdown a trace viewer shows
        under the ``hbg`` stage. Closure effort lands on the
        ``hb.closure_ops`` counter (the bench/driver counter vocabulary).
        """
        rules = (
            ("R1-invocation", self._rule1_action_invocation),
            ("R2+R3-harness-dominance", self._rule23_harness_dominance),
            ("R2c-launch", self._rule2c_activity_launch),
            ("R3b-visibility", self._rule3b_gui_visibility),
            ("R4-intra-dom", self._rule4_intraprocedural),
            ("R5-defacto-dom", self._rule5_interprocedural),
            ("R6-transitivity", self._rule6_fixpoint),
        )
        for rule_name, apply_rule in rules:
            with obs.span(f"hb.rule.{rule_name}") as sp:
                before = len(self.shbg.direct_edges)
                apply_rule()
                sp.set(edges_added=len(self.shbg.direct_edges) - before)
        obs.metrics.counter(
            "hb.closure_ops", "transitive-closure row merges during SHBG builds"
        ).inc(getattr(self.shbg.closure, "ops", 0))
        return self.shbg

    # ------------------------------------------------------------------
    def _rule1_action_invocation(self) -> None:
        for action in self.ext.actions:
            for parent_id in sorted(action.parents):
                self.shbg.add(parent_id, action.id, "R1-invocation")

    def _rule23_harness_dominance(self) -> None:
        """Rules 2 and 3: dominance between event sites in a harness main."""
        sites_by_harness: Dict[str, List[HarnessSite]] = {}
        for site in self.ext.harness.sites:
            sites_by_harness.setdefault(site.harness_class, []).append(site)
        mains = {m.class_name: m for m in self.ext.harness.mains.values()}
        for harness_class, sites in sites_by_harness.items():
            main = mains[harness_class]
            cfg = main.cfg
            for s1 in sites:
                a1s = self._site_actions.get(id(s1.instr), [])
                if not a1s:
                    continue
                for s2 in sites:
                    if s1 is s2:
                        continue
                    a2s = self._site_actions.get(id(s2.instr), [])
                    if not a2s:
                        continue
                    if cfg.instruction_dominates(s1.instr, s2.instr):
                        rule = (
                            "R2-lifecycle"
                            if s1.kind.name == "LIFECYCLE" and s2.kind.name == "LIFECYCLE"
                            else "R3-gui-order"
                        )
                        for a1 in a1s:
                            for a2 in a2s:
                                self.shbg.add(a1.id, a2.id, rule)

    def _rule2c_activity_launch(self) -> None:
        """Cross-component lifecycle ordering: an activity is only created
        after the activity that launches it was created, so the launcher's
        first onCreate precedes the launched activity's first onCreate
        (transitivity then orders it before the whole launched harness)."""
        creates: Dict[str, List[Action]] = {}
        for action in self.ext.actions:
            if (
                action.kind is ActionKind.LIFECYCLE
                and action.callback == "onCreate"
                and action.instance == 1
                and action.component is not None
            ):
                creates.setdefault(action.component, []).append(action)
        for src, dst in self.ext.apk.manifest.launches:
            for a1 in creates.get(src, ()):
                for a2 in creates.get(dst, ()):
                    self.shbg.add(a1.id, a2.id, "R2c-launch")

    def _rule3b_gui_visibility(self) -> None:
        """§6.4's refinement: no GUI events once the activity is stopped."""
        by_harness: Dict[str, List[Action]] = {}
        for action in self.ext.actions:
            if action.harness is not None:
                by_harness.setdefault(action.harness, []).append(action)
        for actions in by_harness.values():
            guis = [a for a in actions if a.kind is ActionKind.GUI]
            stops = [
                a
                for a in actions
                if a.kind is ActionKind.LIFECYCLE and a.callback in ("onStop", "onDestroy")
            ]
            for gui in guis:
                for stop in stops:
                    if gui.component == stop.component:
                        self.shbg.add(gui.id, stop.id, "R3b-visibility")

    # ------------------------------------------------------------------
    def _fifo_posts(self) -> List[Action]:
        out = []
        for action in self.ext.actions:
            if action.kind is not ActionKind.MESSAGE:
                continue
            site = action.creation_site
            if site is None:
                continue
            if site.method_name in FIFO_POST_APIS and action.affinity.kind != "background":
                out.append(action)
        return out

    def _rule4_intraprocedural(self) -> None:
        posts = self._fifo_posts()
        by_method: Dict[int, List[Action]] = {}
        for action in posts:
            if action.creation_method is not None:
                by_method.setdefault(id(action.creation_method), []).append(action)
        for group in by_method.values():
            if len(group) < 2:
                continue
            cfg = group[0].creation_method.cfg
            for p1 in group:
                for p2 in group:
                    if p1 is p2 or not p1.affinity.same_looper(p2.affinity):
                        continue
                    if p1.creation_site is p2.creation_site:
                        continue
                    if not (p1.parents & p2.parents):
                        # posts from *different executions* of the method
                        # (e.g. onResume"1" vs onResume"2") are only ordered
                        # by rule 6, never by site dominance
                        continue
                    if cfg.instruction_dominates(p1.creation_site, p2.creation_site):
                        self.shbg.add(p1.id, p2.id, "R4-intra-dom")

    def _rule5_interprocedural(self) -> None:
        """De-facto domination on the posting action's ICFG."""
        if self.ext.result is None:
            return
        posts = self._fifo_posts()
        # group posts by common parent action
        by_parent: Dict[int, List[Action]] = {}
        for action in posts:
            for parent_id in action.parents:
                by_parent.setdefault(parent_id, []).append(action)
        cg = self.ext.result.call_graph
        for parent_id, group in sorted(by_parent.items()):
            if len(group) < 2:
                continue
            parent = self.ext.by_id(parent_id)
            members = parent.members
            if not members:
                continue
            icfg = ActionICFG(cg, members)
            entries = [mc for mc in members if mc.method is parent.entry_method]
            if not entries:
                continue
            for p1 in group:
                for p2 in group:
                    if p1 is p2 or not p1.affinity.same_looper(p2.affinity):
                        continue
                    if p1.creation_method is p2.creation_method:
                        continue  # rule 4 territory
                    e1s = icfg.sites_of_instruction(p1.creation_site)
                    e2s = icfg.sites_of_instruction(p2.creation_site)
                    if icfg.de_facto_dominates_all(entries, e1s, e2s):
                        self.shbg.add(p1.id, p2.id, "R5-defacto-dom")

    def _rule6_fixpoint(self) -> None:
        """Iterate rule 6 with the (incremental) transitive closure."""
        posts = self._fifo_posts()
        if hasattr(self.shbg.closure, "row_after"):
            self._rule6_fixpoint_bitset(posts)
        else:
            self._rule6_fixpoint_generic(posts)

    def _rule6_fixpoint_generic(self, posts: List[Action]) -> None:
        """Reference pairwise iteration (works with any closure)."""
        changed = True
        while changed:
            changed = False
            for p3 in posts:
                for p4 in posts:
                    if p3 is p4 or not p3.affinity.same_looper(p4.affinity):
                        continue
                    if self.shbg.ordered(p3.id, p4.id):
                        continue
                    if self._posters_ordered(p3, p4):
                        if self.shbg.add(p3.id, p4.id, "R6-transitivity"):
                            changed = True

    def _rule6_fixpoint_bitset(self, posts: List[Action]) -> None:
        """Bit-row fast path, same sweep order as the generic version (so
        edge attribution is identical): the every-poster-pair-ordered test
        collapses to one subset probe — parents(p4) must all sit inside the
        intersection of the after-rows of parents(p3), with disjoint poster
        sets (an A1 = A2 pair is never ordered)."""
        closure = self.shbg.closure
        index_of = closure.index_of
        row_after = closure.row_after
        # same_looper is an equivalence on non-background affinities, so
        # grouping once replaces posts² same_looper() probes; iterating a
        # post's own group in posts order visits exactly the pairs the
        # generic sweep would, in the same order
        groups: Dict[Tuple[str, object], List[Tuple[int, Action, int, int]]] = {}
        group_of: List[List[Tuple[int, Action, int, int]]] = []
        parent_mask: List[int] = []
        for i, p in enumerate(posts):
            mask = 0
            for a in p.parents:
                idx = index_of(a)
                if idx is not None:
                    mask |= 1 << idx
            parent_mask.append(mask)
            members = groups.setdefault((p.affinity.kind, p.affinity.key), [])
            members.append((i, p, mask, index_of(p.id)))
            group_of.append(members)
        shbg_add = self.shbg.add
        changed = True
        while changed:
            changed = False
            for i3, p3 in enumerate(posts):
                members = group_of[i3]
                if len(members) < 2:
                    continue
                pm3 = parent_mask[i3]
                if not pm3:
                    continue
                # after3 / not_common are bit-rows over the closure's dense
                # indices; the sweep itself is the only writer while rule 6
                # runs, so they stay valid until one of our own adds lands —
                # growth is then observed exactly as the generic per-pair
                # probes would observe it
                stale = True
                after3 = not_common = 0
                for i4, p4, pm4, idx4 in members:
                    if i4 == i3 or not pm4 or pm3 & pm4:
                        continue
                    if stale:
                        stale = False
                        after3 = row_after(p3.id)
                        common = -1
                        for a in p3.parents:
                            common &= row_after(a)
                        not_common = ~common
                    if (after3 >> idx4) & 1:
                        continue  # already ordered
                    if pm4 & not_common:
                        continue  # some poster pair unordered
                    if shbg_add(p3.id, p4.id, "R6-transitivity"):
                        changed = True
                        stale = True

    def _posters_ordered(self, p3: Action, p4: Action) -> bool:
        """Does some A1 ∈ parents(p3) strictly precede every... — per the
        paper, it suffices that A1 ≺ A2 for posters A1 of p3 and A2 of p4;
        to stay sound when an action has several posters, require every
        poster pair to be ordered the same way."""
        if not p3.parents or not p4.parents:
            return False
        for a1 in p3.parents:
            for a2 in p4.parents:
                if a1 == a2 or not self.shbg.ordered(a1, a2):
                    return False
        return True


def build_shbg(extraction: Extraction, closure=None) -> SHBG:
    """Build the Static Happens-Before Graph for an extraction."""
    return HBBuilder(extraction, closure=closure).build()
