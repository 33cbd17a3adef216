"""Race reports: the detector's user-facing output."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.races import RacyPair

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.provenance import RaceProvenance


#: hex digits kept of the sha256 race fingerprint (64 bits: collision-safe
#: for any plausible corpus, short enough to read in a diff)
FINGERPRINT_LEN = 16


def race_fingerprint(race: "RaceReport") -> str:
    """Stable identity of a race across runs.

    A canonical sha256 over what the race *is* — the racy memory cell, the
    two access sites, and the HB-rule derivation shape from provenance —
    never over how the run happened to present it (rank, priority, action
    ids, list order). Two runs that report the same race therefore agree
    on its fingerprint, which is what lets ``repro diff`` classify races
    as new/fixed/persisting between ledger runs.

    The access sites are sorted so access1/access2 order is immaterial;
    abstract-object reprs (``obj(Class@method:site)``) are allocation-site
    based and deterministic for a deterministic analysis.
    """
    pair = race.pair
    access_sites = sorted(
        f"{a.kind}|{a.field_name}|{a.method_signature}|{a.instr!r}"
        for a in (pair.access1, pair.access2)
    )
    hb_chain = (
        race.provenance.rule_chain_signature()
        if race.provenance is not None
        else "no-provenance"
    )
    canonical = "\n".join(
        (
            f"location={pair.location!r}",
            f"static={pair.location.is_static}",
            f"kind={pair.kind}",
            f"site1={access_sites[0]}",
            f"site2={access_sites[1]}",
            f"hb={hb_chain}",
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:FINGERPRINT_LEN]


@dataclass
class RaceReport:
    """One ranked race report."""

    pair: RacyPair
    priority: int
    tier: str  # "app" | "framework" | "library"
    pointer_race: bool  # reference-typed cell: NullPointerException risk
    benign_guard: bool  # guard-variable race (§6.5): true but likely benign
    rank: int = 0
    provenance: Optional["RaceProvenance"] = None  # evidence bundle (repro explain)

    @property
    def fingerprint(self) -> str:
        """Stable cross-run identity (see :func:`race_fingerprint`)."""
        return race_fingerprint(self)

    @property
    def field_name(self) -> str:
        return self.pair.field_name

    @property
    def kind(self) -> str:
        return self.pair.kind

    def describe(self) -> str:
        flags = []
        if self.pointer_race:
            flags.append("NPE-risk")
        if self.benign_guard:
            flags.append("guard-var")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"#{self.rank} ({self.tier}) {self.pair.describe()}{suffix}"


@dataclass
class SierraReport:
    """End-to-end output of one SIERRA run over one APK (one Table 3 row)."""

    app: str
    harnesses: int = 0
    actions: int = 0
    hb_edges: int = 0
    ordered_fraction: float = 0.0
    racy_pairs_no_as: Optional[int] = None  # without action sensitivity
    racy_pairs: int = 0
    races_after_refutation: int = 0
    reports: List[RaceReport] = field(default_factory=list)
    # stage timings, seconds (Table 4)
    time_cg_pa: float = 0.0
    time_hbg: float = 0.0
    time_refutation: float = 0.0
    edges_by_rule: Dict[str, int] = field(default_factory=dict)
    refutation_stats: Dict[str, int] = field(default_factory=dict)
    #: targeted query (``--only-field``): the queried field signature and
    #: how many of the enumerated racy pairs matched it. ``racy_pairs``
    #: always counts the full enumeration; only matching pairs were refuted
    #: and reported.
    only_field: Optional[str] = None
    racy_pairs_selected: Optional[int] = None

    @property
    def time_total(self) -> float:
        return self.time_cg_pa + self.time_hbg + self.time_refutation

    def stage_timings(self) -> Dict[str, float]:
        """Per-stage wall clock, rounded: the ``stages`` of BENCH and RUN
        records and the ``timings_seconds`` of :meth:`to_dict`."""
        return {
            "cg_pa": round(self.time_cg_pa, 4),
            "hbg": round(self.time_hbg, 4),
            "refutation": round(self.time_refutation, 4),
            "total": round(self.time_total, 4),
        }

    def benign_guard_count(self) -> int:
        return sum(1 for r in self.reports if r.benign_guard)

    def table3_row(self) -> Dict[str, object]:
        return {
            "App": self.app,
            "Harnesses": self.harnesses,
            "Actions": self.actions,
            "HB Edges": self.hb_edges,
            "Ordered (%)": round(100 * self.ordered_fraction, 1),
            "Racy Pairs w/o AS": self.racy_pairs_no_as,
            "Racy Pairs with AS": self.racy_pairs,
            "After refutation": self.races_after_refutation,
        }

    def table4_row(self) -> Dict[str, object]:
        return {
            "App": self.app,
            "CG+PA": round(self.time_cg_pa, 3),
            "HBG": round(self.time_hbg, 3),
            "Refutation": round(self.time_refutation, 3),
            "Total": round(self.time_total, 3),
        }

    @staticmethod
    def _report_dict(race: RaceReport) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rank": race.rank,
            "fingerprint": race.fingerprint,
            "field": race.field_name,
            "kind": race.kind,
            "tier": race.tier,
            "priority": race.priority,
            "pointer_race": race.pointer_race,
            "benign_guard": race.benign_guard,
            "location": repr(race.pair.location),
            "actions": list(race.pair.actions),
            "access1": race.pair.access1.describe(),
            "access2": race.pair.access2.describe(),
        }
        if race.provenance is not None:
            out["provenance"] = race.provenance.to_dict()
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable rendering (CLI ``--json``, CI pipelines)."""
        return {
            "app": self.app,
            "harnesses": self.harnesses,
            "actions": self.actions,
            "hb_edges": self.hb_edges,
            "ordered_fraction": round(self.ordered_fraction, 4),
            "racy_pairs_without_action_sensitivity": self.racy_pairs_no_as,
            "racy_pairs": self.racy_pairs,
            "races_after_refutation": self.races_after_refutation,
            "only_field": self.only_field,
            "racy_pairs_selected": self.racy_pairs_selected,
            "edges_by_rule": dict(self.edges_by_rule),
            "refutation": dict(self.refutation_stats),
            "timings_seconds": self.stage_timings(),
            "reports": [self._report_dict(race) for race in self.reports],
        }


#: BENCH/RUN counter vocabulary → the registry metric each one scrapes.
#: Substrates register these where the work happens (``core/hb.py``,
#: ``analysis/pointsto.py``, ``core/refute.py``, ``core/detector.py``);
#: this table is only the rename into the stable report schema.
COUNTER_METRICS: Dict[str, str] = {
    "harnesses": "sierra.harnesses",
    "actions": "sierra.actions",
    "hb_edges": "sierra.hb_edges",
    "closure_ops": "hb.closure_ops",
    "pointsto_worklist_iterations": "pointsto.worklist_iterations",
    "refutation_nodes_expanded": "refutation.nodes_expanded",
    "refutation_cache_hits": "refutation.cache_hits",
}


def collect_counters() -> Dict[str, int]:
    """Substrate effort counters of the most recent pipeline run.

    Shared by the bench suites and the ``corpus-analyze`` batch driver so
    both emit the same counter vocabulary. Values come from the
    :mod:`repro.obs.metrics` registry — ``Sierra.analyze`` opens a fresh
    scrape window (``reset_run``) per run, so the registry holds exactly
    the finished run's effort.
    """
    from repro.obs import metrics

    registry = metrics.registry()
    return {key: int(registry.value(name)) for key, name in COUNTER_METRICS.items()}


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render rows as a fixed-width text table (bench harness output)."""
    if not rows:
        return "(empty)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(str(row.get(h, ""))) for row in rows)) for h in headers
    }
    lines = [
        "  ".join(str(h).ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def median(values: List[float]) -> float:
    """Median as the paper reports it (lower middle for even counts is not
    specified; use the standard midpoint)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0
