"""Benchmark-session plumbing.

A single session-scoped collection runs every workload under every
method (with full lossless verification) and caches the metrics; the
per-figure benches assert the paper's shape bands against it, print the
reproduced table, and time a representative operation with
pytest-benchmark. Tables are also written to ``benchmarks/results/``
for EXPERIMENTS.md, or to ``REPRO_RESULTS_DIR`` when it is set (a smoke
run that must not overwrite the committed tables).

The collection is the grid ``repro.eval.figures.collect_all``, in
this process; set ``REPRO_CACHE_DIR`` to relocate the offline-artifact
cache that repeated benchmark sessions reuse.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.cache import ArtifactCache, default_cache_dir
from repro.eval.figures import collect_all

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def artifact_cache():
    """Offline-phase cache shared by every bench in the session."""
    return ArtifactCache(default_cache_dir())


@pytest.fixture(scope="session")
def all_runs(artifact_cache):
    """Every workload x every method, verified, collected once."""
    return collect_all(cache=artifact_cache)


@pytest.fixture(scope="session")
def results_dir():
    path = pathlib.Path(os.environ.get("REPRO_RESULTS_DIR") or RESULTS_DIR)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_table(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
