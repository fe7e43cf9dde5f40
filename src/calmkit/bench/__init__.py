"""Benchmark harness: file formats, configs, reports, runner, and the CLI."""

from .config import ExperimentConfig, ConfigError, default_config_text, parse_config
from .formats import (
    FormatError,
    load_checkpoint,
    load_credible_sets,
    load_tasks,
    save_checkpoint,
    save_credible_sets,
    save_tasks,
)
from .reports import ReportBundle, evaluate, layer_density, magnitude_overlap, write_report
from .runner import StageError, ablation_suite, run_experiment, stage_evaluate
