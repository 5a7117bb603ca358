"""Generators for every table/figure in the paper's evaluation.

Each ``fig*`` function returns a list of row dicts (one per workload)
carrying the same quantities the corresponding paper figure plots;
``format_table`` renders them for the benchmark harness and
EXPERIMENTS.md. Absolute numbers differ from the paper's FPGA
prototype (DESIGN.md section 2); the comparisons — who wins, by what
factor, where the crossovers fall — are the reproduction target.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.eval.cache import ArtifactCache
from repro.eval.runner import METHODS, MethodRun, run_method

#: evaluation order (real applications first, BEEBs after — as the paper)
EVAL_WORKLOADS = (
    "ultrasonic", "geiger", "syringe", "temperature", "gps",
    "prime", "crc32", "bubblesort", "fibcall", "matmult",
    "bitcount", "insertsort", "strsearch", "dijkstra", "fir",
)

#: called after each cell as ``progress(done, total, run)``
ProgressFn = Callable[[int, int, MethodRun], None]


def collect_all(workloads: Sequence[str] = EVAL_WORKLOADS,
                cache: Optional[ArtifactCache] = None,
                progress: Optional[ProgressFn] = None
                ) -> Dict[str, Dict[str, MethodRun]]:
    """Run every workload under every method, verified, in order.

    Returns ``{workload: {method: MethodRun}}``; each cell is one
    :func:`~repro.eval.runner.run_method` call, and ``cache`` memoizes
    the offline phase across cells (and, on disk, across processes).
    A cell that raises stops the grid with a ``RuntimeError`` naming
    the cell and its error.
    """
    cells = [(name, method) for name in workloads for method in METHODS]
    runs: Dict[str, Dict[str, MethodRun]] = {name: {} for name in workloads}
    for done, (name, method) in enumerate(cells, start=1):
        try:
            run = run_method(name, method, cache=cache)
        except Exception as exc:
            raise RuntimeError(
                f"cell {name}×{method} failed: "
                f"{type(exc).__name__}: {exc}") from exc
        runs[name][method] = run
        if progress is not None:
            progress(done, len(cells), run)
    return runs


def fig1_motivation(runs: Dict[str, Dict[str, MethodRun]]) -> List[dict]:
    """Figure 1: naive-MTB CFLog blow-up (a) and instrumentation-based
    CFA runtime blow-up (b)."""
    rows = []
    for name, methods in runs.items():
        naive = methods["naive-mtb"]
        traces = methods["traces"]
        base = methods["baseline"]
        rows.append({
            "workload": name,
            "naive_cflog_B": naive.cflog_bytes,
            "instr_cflog_B": traces.cflog_bytes,
            "cflog_ratio": (naive.cflog_bytes / traces.cflog_bytes
                            if traces.cflog_bytes else float("inf")),
            "baseline_cycles": base.cycles,
            "instr_cycles": traces.cycles,
            "runtime_factor": traces.cycles / base.cycles,
        })
    return rows


def fig8_runtime(runs: Dict[str, Dict[str, MethodRun]]) -> List[dict]:
    """Figure 8: CPU cycles per method, plus the paper's two headline
    overheads (RAP-Track vs naive MTB; TRACES vs baseline)."""
    rows = []
    for name, methods in runs.items():
        base = methods["baseline"]
        naive = methods["naive-mtb"]
        rap = methods["rap-track"]
        traces = methods["traces"]
        rows.append({
            "workload": name,
            "baseline": base.cycles,
            "naive_mtb": naive.cycles,
            "rap_track": rap.cycles,
            "traces": traces.cycles,
            "rap_over_naive_pct": 100.0 * rap.overhead_vs(naive),
            "traces_over_base_pct": 100.0 * traces.overhead_vs(base),
        })
    return rows


def fig9_cflog(runs: Dict[str, Dict[str, MethodRun]]) -> List[dict]:
    """Figure 9: CFLog size (bytes) per method."""
    rows = []
    for name, methods in runs.items():
        rows.append({
            "workload": name,
            "naive_mtb_B": methods["naive-mtb"].cflog_bytes,
            "rap_track_B": methods["rap-track"].cflog_bytes,
            "traces_B": methods["traces"].cflog_bytes,
            "rap_records": methods["rap-track"].cflog_records,
            "traces_records": methods["traces"].cflog_records,
        })
    return rows


def fig10_code_size(runs: Dict[str, Dict[str, MethodRun]]) -> List[dict]:
    """Figure 10: program memory (code bytes) per method."""
    rows = []
    for name, methods in runs.items():
        base = methods["baseline"].code_size
        rap = methods["rap-track"].code_size
        traces = methods["traces"].code_size
        rows.append({
            "workload": name,
            "baseline_B": base,
            "rap_track_B": rap,
            "traces_B": traces,
            "rap_overhead_B": rap - base,
            "traces_overhead_B": traces - base,
        })
    return rows


def partial_report_table(runs: Dict[str, Dict[str, MethodRun]]) -> List[dict]:
    """Section V-B analysis: partial-report transmissions under the
    4 KB MTB limit, per method."""
    rows = []
    for name, methods in runs.items():
        rows.append({
            "workload": name,
            "naive_partials": methods["naive-mtb"].partial_reports,
            "rap_partials": methods["rap-track"].partial_reports,
            "traces_partials": methods["traces"].partial_reports,
            "rap_single_report": methods["rap-track"].partial_reports == 0,
        })
    return rows


def format_table(rows: Iterable[dict], title: str = "") -> str:
    """Render row dicts as an aligned text table."""
    rows = list(rows)
    if not rows:
        return title
    columns = list(rows[0].keys())
    rendered = [[_fmt(row[col]) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.rjust(w) if _numeric(v) else v.ljust(w)
                               for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.1f}"
    return str(value)


def _numeric(text: str) -> bool:
    return text.replace(".", "").replace("-", "").replace("inf", "0").isdigit()
