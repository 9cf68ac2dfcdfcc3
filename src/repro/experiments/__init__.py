"""Experiment harness: variants, runner, parallel executor, and
per-figure definitions."""

from repro.experiments.checkpoint import (
    CampaignCheckpoint,
    ResumePlan,
    checkpoint_path,
    load_resume_plan,
)
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.sweeps import LoadPoint, LoadSweepResult, load_sweep
from repro.experiments.executor import (
    BatchStats,
    CampaignAborted,
    ExperimentExecutor,
    ResultCache,
)
from repro.experiments.variants import VARIANTS, VariantSpec, get_variant
from repro.experiments.runner import ExperimentResult, RunFailure, run_experiment

__all__ = [
    "ExperimentConfig",
    "WorkloadConfig",
    "LoadPoint",
    "LoadSweepResult",
    "load_sweep",
    "VARIANTS",
    "VariantSpec",
    "get_variant",
    "ExperimentResult",
    "RunFailure",
    "run_experiment",
    "ExperimentExecutor",
    "ResultCache",
    "BatchStats",
    "CampaignAborted",
    "CampaignCheckpoint",
    "ResumePlan",
    "checkpoint_path",
    "load_resume_plan",
]
