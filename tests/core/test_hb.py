"""The seven HB rules: Figures 5, 6, 7 and the §6.4 refinements."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.lifecycle import EXPECTED_LIFECYCLE_HB, EXPECTED_LIFECYCLE_UNORDERED
from repro.android import install_framework, Apk, Manifest
from repro.core import Sierra, SierraOptions, build_shbg, extract_actions, generate_harnesses
from repro.core.actions import ActionKind
from repro.ir.builder import ProgramBuilder
from repro.ir.types import INT


def full_lifecycle_apk():
    """An activity overriding every lifecycle callback."""
    pb = ProgramBuilder()
    install_framework(pb.program)
    act = pb.new_class("t.A", superclass="android.app.Activity")
    act.field("f", INT)
    for cb in ("onCreate", "onStart", "onResume", "onPause", "onStop", "onRestart", "onDestroy"):
        m = act.method(cb)
        m.load("v", "this", "f")
        m.ret()
    apk = Apk("lifecycle", pb.build(), Manifest("t"))
    apk.manifest.add_activity("t.A", is_main=True)
    return apk


def analyze(apk):
    harness = generate_harnesses(apk).model
    ext = extract_actions(apk, harness)
    shbg = build_shbg(ext)
    return ext, shbg


def lifecycle_action(ext, callback, instance=1):
    for a in ext.actions:
        if (
            a.kind is ActionKind.LIFECYCLE
            and a.callback == callback
            and a.instance == instance
        ):
            return a
    raise AssertionError(f"no action {callback}#{instance}")


class TestRule2LifecycleFigure5:
    """Every HB edge (and non-edge) Figure 5 derives."""

    @pytest.fixture(scope="class")
    def shbg_and_ext(self):
        ext, shbg = analyze(full_lifecycle_apk())
        return ext, shbg

    @pytest.mark.parametrize("pair", EXPECTED_LIFECYCLE_HB)
    def test_expected_edges(self, shbg_and_ext, pair):
        ext, shbg = shbg_and_ext
        (cb1, i1), (cb2, i2) = pair
        a1 = lifecycle_action(ext, cb1, i1)
        a2 = lifecycle_action(ext, cb2, i2)
        assert shbg.ordered(a1.id, a2.id), f"{cb1}#{i1} must precede {cb2}#{i2}"

    @pytest.mark.parametrize("pair", EXPECTED_LIFECYCLE_UNORDERED)
    def test_expected_unordered(self, shbg_and_ext, pair):
        ext, shbg = shbg_and_ext
        (cb1, i1), (cb2, i2) = pair
        a1 = lifecycle_action(ext, cb1, i1)
        a2 = lifecycle_action(ext, cb2, i2)
        assert not shbg.comparable(a1.id, a2.id), f"{cb1}#{i1} vs {cb2}#{i2}"

    def test_no_cycles(self, shbg_and_ext):
        _, shbg = shbg_and_ext
        assert not shbg.closure.has_cycle()


class TestRule3GuiFigure6:
    """onResume ≺ onClick1; onClick2 ≺ onClick3; onClick1 vs onClick2 free."""

    @pytest.fixture(scope="class")
    def gui_setup(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        act.field("f", INT)
        act.method("onResume").ret()
        for name in ("onClick1", "onClick2", "onClick3"):
            m = act.method(name)
            m.load("v", "this", "f")
            m.ret()
        apk = Apk("gui", pb.build(), Manifest("t"))
        decl = apk.manifest.add_activity("t.A", layout="main", is_main=True)
        layout = apk.layouts.new_layout("main")
        layout.add_view(1, "android.widget.Button", static_callbacks=(("onClick", "onClick1"),))
        layout.add_view(2, "android.widget.Button", static_callbacks=(("onClick", "onClick2"),))
        layout.add_view(3, "android.widget.Button", static_callbacks=(("onClick", "onClick3"),))
        decl.gui_flows.append(["onClick2", "onClick3"])
        ext, shbg = analyze(apk)
        by_cb = {a.callback: a for a in ext.actions if a.instance == 1}
        return shbg, by_cb

    def test_resume_precedes_clicks(self, gui_setup):
        shbg, by_cb = gui_setup
        for click in ("onClick1", "onClick2"):
            assert shbg.ordered(by_cb["onResume"].id, by_cb[click].id)

    def test_flow_orders_click2_before_click3(self, gui_setup):
        shbg, by_cb = gui_setup
        assert shbg.ordered(by_cb["onClick2"].id, by_cb["onClick3"].id)

    def test_independent_clicks_unordered(self, gui_setup):
        shbg, by_cb = gui_setup
        assert not shbg.comparable(by_cb["onClick1"].id, by_cb["onClick2"].id)


class TestRule3bVisibility:
    def test_gui_precedes_stop_and_destroy(self, quickstart_result):
        ext, shbg = quickstart_result.extraction, quickstart_result.shbg
        # quickstart has no onStop; build a richer fixture instead
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        act.field("f", INT)
        act.method("onStop").ret()
        act.method("onDestroy").ret()
        h = act.method("onTap")
        h.load("v", "this", "f")
        h.ret()
        apk = Apk("vis", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", layout="m", is_main=True)
        apk.layouts.new_layout("m").add_view(1, "android.widget.Button", static_callbacks=(("onClick", "onTap"),))
        ext2, shbg2 = analyze(apk)
        by_cb = {a.callback: a for a in ext2.actions}
        assert shbg2.ordered(by_cb["onTap"].id, by_cb["onStop"].id)
        assert shbg2.ordered(by_cb["onTap"].id, by_cb["onDestroy"].id)


class TestRule1Invocation:
    def test_poster_precedes_posted(self, opensudoku_result):
        ext, shbg = opensudoku_result.extraction, opensudoku_result.shbg
        for a in ext.actions:
            for parent in a.parents:
                assert shbg.ordered(parent, a.id)


class TestRule4And6Figure7:
    @pytest.fixture(scope="class")
    def posts_setup(self):
        """onCreate posts R1 then R2 (rule 4); onCreate ≺ onStart each post
        one runnable (rule 6: A1≺A2, A1 posts A3, A2 posts A4 ⇒ A3≺A4)."""
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        for n in (1, 2, 3, 4):
            r = pb.new_class(f"t.R{n}", interfaces=("java.lang.Runnable",))
            r.field("owner", "t.A")
            rm = r.method("run")
            rm.load("o", "this", "owner")
            rm.ret()
        act.field("f", INT)
        oc = act.method("onCreate")
        oc.new("h", "android.os.Handler")
        for n in (1, 2):
            oc.new(f"r{n}", f"t.R{n}")
            oc.store(f"r{n}", "owner", "this")
            oc.call("h", "post", f"r{n}")
        oc.ret()
        os_ = act.method("onStart")
        os_.new("h", "android.os.Handler")
        os_.new("r3", "t.R3")
        os_.store("r3", "owner", "this")
        os_.call("h", "post", "r3")
        os_.ret()
        orr = act.method("onResume")
        orr.new("h", "android.os.Handler")
        orr.new("r4", "t.R4")
        orr.store("r4", "owner", "this")
        orr.call("h", "post", "r4")
        orr.ret()
        apk = Apk("posts", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        ext, shbg = analyze(apk)
        runs = {}
        for a in ext.actions:
            if a.kind is ActionKind.MESSAGE:
                runs.setdefault(a.entry_method.class_name, a)
        return shbg, runs

    def test_rule4_orders_sequential_posts(self, posts_setup):
        shbg, runs = posts_setup
        assert shbg.ordered(runs["t.R1"].id, runs["t.R2"].id)
        assert not shbg.ordered(runs["t.R2"].id, runs["t.R1"].id)

    def test_rule6_orders_posts_of_ordered_actions(self, posts_setup):
        """Figure 7: onCreate ≺ onStart ≺ onResume, each posting to the main
        looper ⇒ their messages are ordered the same way."""
        shbg, runs = posts_setup
        assert shbg.ordered(runs["t.R1"].id, runs["t.R3"].id)
        assert shbg.ordered(runs["t.R3"].id, runs["t.R4"].id)
        assert shbg.ordered(runs["t.R2"].id, runs["t.R4"].id)


class TestRule4ParentScoping:
    def test_posts_from_different_instances_not_site_ordered(self, opensudoku_result):
        """onResume"2"'s post must not be ordered before onResume"1"'s post
        by mere site dominance (the bug rule 4's parent check prevents)."""
        ext, shbg = opensudoku_result.extraction, opensudoku_result.shbg
        pause = next(a for a in ext.actions if a.callback == "onPause")
        runs1 = [
            a
            for a in ext.actions
            if a.kind is ActionKind.MESSAGE
            and any(ext.by_id(p).instance == 1 for p in a.parents if ext.by_id(p).kind is ActionKind.LIFECYCLE)
        ]
        assert runs1
        for run in runs1:
            assert not shbg.comparable(pause.id, run.id)


class TestStatsAndEdges:
    def test_ordered_fraction_bounds(self, newsreader_result):
        frac = newsreader_result.shbg.ordered_fraction()
        assert 0.0 < frac < 1.0

    def test_edges_by_rule_nonempty(self, newsreader_result):
        rules = newsreader_result.shbg.edges_by_rule()
        assert "R2-lifecycle" in rules or "R3-gui-order" in rules
        assert rules.get("R1-invocation")

    def test_add_rejects_self_and_cycles(self, quickstart_result):
        shbg = quickstart_result.shbg
        some = shbg.actions[0].id
        assert not shbg.add(some, some, "test")
        # find an ordered pair and try to reverse it
        for a in shbg.actions:
            for b in shbg.actions:
                if shbg.ordered(a.id, b.id):
                    assert not shbg.add(b.id, a.id, "test")
                    return

    def test_unordered_pairs_symmetric_complement(self, quickstart_result):
        shbg = quickstart_result.shbg
        pairs = shbg.unordered_pairs()
        n = len(shbg.actions)
        assert len(pairs) + shbg.hb_edge_count() == n * (n - 1) // 2


class TestAddDedupe:
    """Regression: re-added or transitively-implied edges must not leave
    duplicate HBEdge records behind (the seed recorded them, inflating
    edges_by_rule and the direct-edge list)."""

    def fresh_shbg(self):
        from repro.core.hb import SHBG

        apk = full_lifecycle_apk()
        harness = generate_harnesses(apk).model
        ext = extract_actions(apk, harness)
        return SHBG(actions=ext.actions)

    def test_readded_edge_records_once(self):
        shbg = self.fresh_shbg()
        a, b = shbg.actions[0].id, shbg.actions[1].id
        assert shbg.add(a, b, "T") is True
        n = len(shbg.direct_edges)
        assert shbg.add(a, b, "T") is False
        assert len(shbg.direct_edges) == n
        assert shbg.edges_by_rule().get("T") == 1

    def test_transitively_implied_edge_not_recorded(self):
        shbg = self.fresh_shbg()
        a, b, c = (act.id for act in shbg.actions[:3])
        shbg.add(a, b, "T")
        shbg.add(b, c, "T")
        n = len(shbg.direct_edges)
        assert shbg.ordered(a, c)
        assert shbg.add(a, c, "T") is False  # already implied
        assert len(shbg.direct_edges) == n


class TestClosureImplementationEquivalence:
    """build_shbg with the naive set closure and the bitset closure must
    produce identical graphs — rule 6 takes a different code path per
    closure, so this locks the fast path to the reference sweep."""

    @pytest.mark.parametrize("builder", [full_lifecycle_apk])
    def test_generic_vs_bitset_rule_pipeline(self, builder):
        from tests.util.closure_oracle import NaiveTransitiveClosure

        apk = builder()
        harness = generate_harnesses(apk).model
        ext = extract_actions(apk, harness)
        fast = build_shbg(ext)
        slow = build_shbg(ext, closure=NaiveTransitiveClosure())
        assert fast.edges_by_rule() == slow.edges_by_rule()
        assert fast.hb_edge_count() == len(slow.closure.closure_edges())
        for a in ext.actions:
            for b in ext.actions:
                assert fast.ordered(a.id, b.id) == slow.ordered(a.id, b.id)

    def test_generic_vs_bitset_on_synthetic_app(self, small_synth):
        from tests.util.closure_oracle import NaiveTransitiveClosure

        apk, _truth = small_synth
        harness = generate_harnesses(apk).model
        ext = extract_actions(apk, harness)
        fast = build_shbg(ext)
        slow = build_shbg(ext, closure=NaiveTransitiveClosure())
        assert fast.edges_by_rule() == slow.edges_by_rule()
        assert fast.closure.closure_edges() == slow.closure.closure_edges()


# ----------------------------------------------------------------------
# provenance queries vs their brute-force definitions
# ----------------------------------------------------------------------
def _oracle_common_ancestors(shbg, a, b):
    return [
        x.id for x in shbg.actions if shbg.ordered(x.id, a) and shbg.ordered(x.id, b)
    ]


def _oracle_fork_points(shbg, a, b):
    ancestors = _oracle_common_ancestors(shbg, a, b)
    return [
        c
        for c in ancestors
        if not any(shbg.ordered(c, other) for other in ancestors if other != c)
    ]


def _oracle_incident_rules(shbg, action_id):
    counts = {}
    for edge in shbg.direct_edges:
        if edge.src == action_id or edge.dst == action_id:
            counts[edge.rule] = counts.get(edge.rule, 0) + 1
    return dict(sorted(counts.items()))


def _oracle_rule_path(shbg, src, dst):
    """BFS over an adjacency list rebuilt from the direct edges."""
    if src == dst or not shbg.ordered(src, dst):
        return None
    adjacency = {}
    for edge in shbg.direct_edges:
        adjacency.setdefault(edge.src, []).append(edge)
    frontier, came_from, seen = [src], {}, {src}
    while frontier:
        nxt = []
        for node in frontier:
            for edge in adjacency.get(node, ()):
                if edge.dst in seen:
                    continue
                seen.add(edge.dst)
                came_from[edge.dst] = edge
                if edge.dst == dst:
                    path, cursor = [], dst
                    while cursor != src:
                        path.append(came_from[cursor])
                        cursor = came_from[cursor].src
                    return path[::-1]
                nxt.append(edge.dst)
        frontier = nxt
    return None


def _random_shbg(n, edges):
    from types import SimpleNamespace

    from repro.core.hb import SHBG

    shbg = SHBG(actions=[SimpleNamespace(id=i) for i in range(n)])
    for lo, hi, rule in edges:
        shbg.add(min(lo, hi), max(lo, hi), rule)  # low -> high keeps it a DAG
    return shbg


_DAG_EDGES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from("RST")),
    max_size=40,
)


class TestProvenanceQueries:
    """The indexed / bit-row provenance queries equal the brute-force
    definitions they replaced, on random DAGs."""

    @settings(max_examples=150, deadline=None)
    @given(_DAG_EDGES)
    def test_queries_match_brute_force(self, edges):
        shbg = _random_shbg(12, edges)
        ids = range(12)
        for a in ids:
            assert shbg.incident_rules(a) == _oracle_incident_rules(shbg, a)
            for b in ids:
                assert shbg.common_ancestors(a, b) == _oracle_common_ancestors(shbg, a, b)
                assert shbg.fork_points(a, b) == _oracle_fork_points(shbg, a, b)
                assert shbg.rule_path(a, b) == _oracle_rule_path(shbg, a, b)

    @settings(max_examples=50, deadline=None)
    @given(_DAG_EDGES, _DAG_EDGES)
    def test_index_follows_later_edges(self, first, second):
        shbg = _random_shbg(12, first)
        shbg.incident_rules(0)  # builds the index
        for lo, hi, rule in second:
            shbg.add(min(lo, hi), max(lo, hi), rule)
        for a in range(12):
            assert shbg.incident_rules(a) == _oracle_incident_rules(shbg, a)
            assert shbg.rule_path(0, a) == _oracle_rule_path(shbg, 0, a)

    def test_index_stays_out_of_pickles(self):
        import pickle

        shbg = _random_shbg(4, [(0, 1, "R"), (1, 2, "S"), (2, 3, "T")])
        bare = pickle.dumps(shbg)
        assert shbg.rule_path(0, 3) is not None  # builds the index
        assert pickle.dumps(shbg) == bare
        restored = pickle.loads(bare)
        assert restored.rule_path(0, 3) == shbg.rule_path(0, 3)
