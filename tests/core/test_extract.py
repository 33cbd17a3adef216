"""Action extraction: kinds, parents, recursion collapse, affinity."""

from repro.core.actions import ActionKind
from repro.core.extract import extract_actions
from repro.core.harness import generate_harnesses


def actions_by_label(extraction):
    table = {}
    for a in extraction.actions:
        table.setdefault(a.label, []).append(a)
    return table


class TestKinds:
    def test_newsreader_action_inventory(self, newsreader_result):
        ext = newsreader_result.extraction
        kinds = {a.kind for a in ext.actions}
        assert ActionKind.LIFECYCLE in kinds
        assert ActionKind.GUI in kinds
        assert ActionKind.ASYNC_BG in kinds
        assert ActionKind.ASYNC_CB in kinds

    def test_receiver_app_has_system_action(self, receiver_result):
        kinds = {a.kind for a in receiver_result.extraction.actions}
        assert ActionKind.SYSTEM in kinds

    def test_opensudoku_message_actions(self, opensudoku_result):
        ext = opensudoku_result.extraction
        runs = [a for a in ext.actions if a.kind is ActionKind.MESSAGE]
        assert len(runs) >= 2  # per-resume-instance run actions


class TestParents:
    def test_async_task_parented_by_clicking_action(self, newsreader_result):
        ext = newsreader_result.extraction
        table = actions_by_label(ext)
        bg = next(a for a in ext.actions if a.kind is ActionKind.ASYNC_BG)
        parents = {ext.by_id(p).kind for p in bg.parents}
        assert ActionKind.GUI in parents

    def test_marker_event_parented_by_registering_action(self, receiver_result):
        ext = receiver_result.extraction
        receive = next(a for a in ext.actions if a.kind is ActionKind.SYSTEM)
        assert receive.parents
        parent = ext.by_id(next(iter(receive.parents)))
        assert parent.callback == "onCreate"

    def test_lifecycle_actions_have_no_parents(self, quickstart_result):
        ext = quickstart_result.extraction
        for a in ext.actions:
            if a.kind is ActionKind.LIFECYCLE:
                assert not a.parents

    def test_self_repost_collapses(self, opensudoku_result):
        """TimerRunnable posts itself: the chain must be finite, and the
        collapsed repost stays inside its ancestor action."""
        ext = opensudoku_result.extraction
        runs = [a for a in ext.actions if a.entry_method.name == "run"]
        # onResume"1", onResume"2" roots plus exactly one repost child each
        assert len(runs) == 4
        # chain = event ancestor + post site (+ repost site); never unbounded
        for a in runs:
            assert len(a.chain) <= 3


class TestAffinity:
    def test_event_actions_on_main(self, newsreader_result):
        for a in newsreader_result.extraction.actions:
            if a.kind.is_event:
                assert a.affinity.is_main()

    def test_async_bg_on_fresh_background(self, newsreader_result):
        ext = newsreader_result.extraction
        bgs = [a for a in ext.actions if a.kind is ActionKind.ASYNC_BG]
        keys = {a.affinity.key for a in bgs}
        assert all(a.affinity.kind == "background" for a in bgs)
        assert len(keys) == len(bgs)  # never share a thread

    def test_async_cb_on_main(self, newsreader_result):
        ext = newsreader_result.extraction
        for a in ext.actions:
            if a.kind is ActionKind.ASYNC_CB:
                assert a.affinity.is_main()

    def test_posted_runnable_on_main_looper(self, opensudoku_result):
        ext = opensudoku_result.extraction
        for a in ext.actions:
            if a.kind is ActionKind.MESSAGE:
                assert a.affinity.is_main()

    def test_same_looper_predicate(self, newsreader_result):
        from repro.core.actions import Affinity

        assert Affinity.MAIN.same_looper(Affinity.MAIN)
        assert not Affinity("background", 1).same_looper(Affinity("background", 1))
        assert not Affinity.MAIN.same_looper(Affinity("background", 2))


class TestMembership:
    def test_members_cover_entry_method(self, newsreader_result):
        for a in newsreader_result.extraction.actions:
            assert a.entry_method in a.member_methods

    def test_action_sensitive_members_tagged(self, newsreader_result):
        ext = newsreader_result.extraction
        for a in ext.actions:
            for mc in a.members:
                assert mc.action_id() == a.id

    def test_resolver_round_trip(self, newsreader_result):
        ext = newsreader_result.extraction
        for a in ext.actions:
            if a.creation_site is None or a.kind.is_event:
                continue
            parent = next(iter(a.parents), None)
            if parent is None:
                continue
            parent_action = ext.by_id(parent)
            if not parent_action.members:
                continue
            caller_mc = parent_action.members[0]
            assert ext.resolver(caller_mc, a.creation_site, a.entry_method) == a.id


class TestWithoutActionSensitivity:
    def test_hybrid_members_fall_back_to_methods(self, newsreader_apk):
        from repro.analysis.context import HybridSelector

        harness = generate_harnesses(newsreader_apk).model
        ext = extract_actions(newsreader_apk, harness, selector=HybridSelector())
        for a in ext.actions:
            assert a.members, a
            assert all(mc.action_id() is None for mc in a.members)


class TestPhaseAHandOff:
    """The harness fixpoint's final solve is extraction's phase A: no
    phase-A solve runs after the harness, and the result is the same as
    solving phase A from cold."""

    def test_cold_solves_are_harness_rounds_plus_phase_c(self):
        from repro.core import Sierra, SierraOptions
        from repro.corpus import build_newsreader_app
        from repro.obs import metrics

        for index_sensitive in (False, True):
            result = Sierra(
                SierraOptions(index_sensitive_arrays=index_sensitive)
            ).analyze(build_newsreader_app())
            assert result.harness.fixpoint_rounds >= 2
            assert metrics.registry().value("pointsto.cold_solves") == (
                result.harness.fixpoint_rounds + 1
            )

    def test_handed_over_phase_a_equals_cold_phase_a(self):
        from repro.corpus import build_newsreader_app
        from repro.obs import metrics

        for index_sensitive in (False, True):
            apk = build_newsreader_app()
            harness, phase_a = generate_harnesses(apk, index_sensitive_arrays=index_sensitive)
            cold = extract_actions(apk, harness, index_sensitive_arrays=index_sensitive)
            metrics.reset_run()
            warm = extract_actions(
                apk,
                harness,
                index_sensitive_arrays=index_sensitive,
                phase_a_seed=(phase_a, ()),
            )
            # only phase C solved from cold
            assert metrics.registry().value("pointsto.cold_solves") == 1
            assert warm.phase_a_analysis is phase_a
            assert warm.phase_a.call_graph.nodes == cold.phase_a.call_graph.nodes
            assert [
                (a.label, a.kind, sorted(a.parents), [m.signature for m in a.member_methods])
                for a in warm.actions
            ] == [
                (a.label, a.kind, sorted(a.parents), [m.signature for m in a.member_methods])
                for a in cold.actions
            ]
