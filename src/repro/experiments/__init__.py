"""Experiment harness: variants, runner, parallel executor, and
per-figure definitions."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "checkpoint": (
        "CampaignCheckpoint",
        "ResumePlan",
        "checkpoint_path",
        "load_resume_plan",
    ),
    "config": ("ExperimentConfig", "WorkloadConfig"),
    "sweeps": ("LoadPoint", "LoadSweepResult", "load_sweep"),
    "executor": ("BatchStats", "CampaignAborted", "ExperimentExecutor", "ResultCache"),
    "variants": ("VARIANTS", "VariantSpec", "get_variant"),
    "runner": ("ExperimentResult", "RunFailure", "run_experiment"),
})
