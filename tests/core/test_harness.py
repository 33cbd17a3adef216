"""Harness generation (§3.2, Figure 4): structure, fixpoint, dispatch."""

from repro.android import CallbackKind
from repro.core.harness import NONDET, generate_harnesses
from repro.ir.instructions import Invoke


class TestStructure:
    def test_one_harness_per_activity(self, small_synth):
        apk, _ = small_synth
        model = generate_harnesses(apk).model
        assert model.harness_count() == len(apk.manifest.activities)

    def test_harness_main_is_static_and_valid(self, quickstart_apk):
        model = generate_harnesses(quickstart_apk).model
        main = next(iter(model.mains.values()))
        assert main.is_static
        assert main.cfg.entry is not None
        report = quickstart_apk.validate()
        assert report.ok, report.errors

    def test_lifecycle_sites_only_for_overridden(self, quickstart_apk):
        model = generate_harnesses(quickstart_apk).model
        callbacks = {s.callback for s in model.sites if s.kind is CallbackKind.LIFECYCLE}
        assert callbacks == {"onCreate"}  # only onCreate is overridden

    def test_lifecycle_instances_split(self, opensudoku_apk):
        model = generate_harnesses(opensudoku_apk).model
        resumes = [s for s in model.sites if s.callback == "onResume"]
        assert sorted(s.instance for s in resumes) == [1, 2]

    def test_gui_sites_from_static_layout(self, quickstart_apk):
        model = generate_harnesses(quickstart_apk).model
        gui = {s.callback for s in model.sites if s.kind is CallbackKind.GUI}
        assert gui == {"onClickIncrement", "onClickReset"}

    def test_nondet_markers_present(self, quickstart_apk):
        model = generate_harnesses(quickstart_apk).model
        main = next(iter(model.mains.values()))
        nondets = [
            i
            for i in main.body
            if isinstance(i, Invoke) and i.method_name == NONDET
        ]
        assert len(nondets) >= 3  # loop exit, stop, destroy choices


class TestFixpoint:
    def test_runtime_listener_discovered(self, newsreader_apk):
        model = generate_harnesses(newsreader_apk).model
        assert model.fixpoint_rounds >= 2
        markers = [s for s in model.sites if s.is_marker]
        assert markers, "scroll/click listeners should yield markers"
        assert model.dispatch_table

    def test_receiver_registration_discovered(self, receiver_apk):
        model = generate_harnesses(receiver_apk).model
        system = [s for s in model.sites if s.kind is CallbackKind.SYSTEM]
        assert system
        dispatch = system[0].dispatch
        assert dispatch is not None
        assert dispatch.callback_methods == ("onReceive",)

    def test_fixpoint_terminates_without_registrations(self, quickstart_apk):
        model = generate_harnesses(quickstart_apk).model
        assert model.fixpoint_rounds == 1

    def test_regeneration_is_stable(self, newsreader_apk):
        m1 = generate_harnesses(newsreader_apk).model
        m2 = generate_harnesses(newsreader_apk).model
        assert len(m1.sites) == len(m2.sites)
        assert set(m1.dispatch_table) == set(m2.dispatch_table)


class TestComponentsPlacement:
    def test_services_only_in_main_harness(self, small_synth):
        apk, _ = small_synth
        model = generate_harnesses(apk).model
        main_activity = apk.manifest.main_activity.class_name
        svc_sites = [
            s
            for s in model.sites
            if s.component in {d.class_name for d in apk.manifest.services}
        ]
        assert svc_sites
        main_harness = model.mains[main_activity].class_name
        assert all(s.harness_class == main_harness for s in svc_sites)

    def test_gui_flows_emitted_in_one_arm(self, small_synth):
        apk, _ = small_synth
        decl = apk.manifest.activities[0]
        if not decl.gui_flows:
            return
        model = generate_harnesses(apk).model
        flow = decl.gui_flows[0]
        sites = {
            s.callback: s for s in model.sites_of_harness(decl.class_name)
        }
        main = model.mains[decl.class_name]
        cfg = main.cfg
        first, second = sites[flow[0]], sites[flow[1]]
        assert cfg.instruction_dominates(first.instr, second.instr)
