"""Evaluation harness: the method runner, the offline-artifact cache,
and the paper's grid (:func:`collect_all`) with its figure/table
generators."""

from repro.eval.cache import (
    ArtifactCache,
    config_fingerprint,
    default_cache_dir,
    offline_key,
)
from repro.eval.runner import (
    METHODS,
    MethodRun,
    offline_artifact,
    prepare,
    run_method,
)
from repro.eval.figures import (
    collect_all,
    fig1_motivation,
    fig8_runtime,
    fig9_cflog,
    fig10_code_size,
    format_table,
    partial_report_table,
)

__all__ = [
    "METHODS",
    "MethodRun",
    "ArtifactCache",
    "collect_all",
    "config_fingerprint",
    "default_cache_dir",
    "offline_artifact",
    "offline_key",
    "prepare",
    "run_method",
    "fig1_motivation",
    "fig8_runtime",
    "fig9_cflog",
    "fig10_code_size",
    "partial_report_table",
    "format_table",
]
