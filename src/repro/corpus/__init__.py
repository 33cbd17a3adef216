"""App corpus: figure apps, the 20-app Table 2/3 stand-ins, and the
174-app F-Droid-style population — all synthetic and seed-stable."""

import importlib

#: public name -> the submodule defining it; resolved on first access so
#: ``import repro.corpus`` pulls in neither the batch driver nor the
#: scheduler (and their multiprocessing/platform imports) until used
_EXPORTS = {
    "build_newsreader_app": "apps",
    "build_opensudoku_app": "apps",
    "build_quickstart_app": "apps",
    "build_receiver_app": "apps",
    "AppRunRecord": "driver",
    "DEFAULT_TIMEOUT_S": "driver",
    "RunReport": "driver",
    "default_corpus": "driver",
    "run_corpus": "driver",
    "FAMILY_NAMES": "families",
    "aggregate_scores": "families",
    "corpus_manifest": "families",
    "estimate_cost": "families",
    "family_spec": "families",
    "is_family_name": "families",
    "parse_family_name": "families",
    "score_detection": "families",
    "seeded_corpus": "families",
    "synthesize_family_app": "families",
    "FDROID_APP_COUNT": "fdroid",
    "fdroid_spec": "fdroid",
    "fdroid_specs": "fdroid",
    "generate_fdroid_corpus": "fdroid",
    "ProgressLine": "scheduler",
    "WorkItem": "scheduler",
    "WorkPlan": "scheduler",
    "core_budget": "scheduler",
    "FDROID_PAPER_MEDIANS": "specs",
    "PaperAppRow": "specs",
    "SynthSpec": "specs",
    "TWENTY_APPS": "specs",
    "TWENTY_PAPER_MEDIANS": "specs",
    "estimated_actions": "specs",
    "spec_for_paper_app": "specs",
    "twenty_app_specs": "specs",
    "AppSynthesizer": "synth",
    "ELIMINATED_CATEGORIES": "synth",
    "GROUND_TRUTH_PREFIXES": "synth",
    "GroundTruth": "synth",
    "TRUE_CATEGORIES": "synth",
    "classify_field": "synth",
    "classify_report_field": "synth",
    "synthesize_app": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
