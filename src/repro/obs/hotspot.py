"""Hotspot aggregation: measured S1/S2/S3 breakdown and top spans.

The measured counterpart of :mod:`repro.kernels.steps` (which derives
the Fig. 8 decomposition from the *cost model*): instrumented runs tag
their stage spans with ``stage="S1" | "S2" | "S3"``, and this module
folds the collected records into the same three-way table, plus a
generic top-N span ranking for everything that is not an ALS stage.
The binned assembly computes S2 inside S1's gather (its S1 spans carry
``rhs_fused=True``); such runs report one "S1 (+S2)" row and no S2 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.spans import SpanRecord

__all__ = [
    "STAGES",
    "SWEEP_SPAN",
    "StageStat",
    "SpanStat",
    "stage_breakdown",
    "sweep_seconds",
    "top_spans",
    "render_hotspot_table",
    "render_top_spans",
]

#: The paper's step decomposition (§III-B): Gram assembly, RHS, solve.
STAGES: tuple[str, ...] = ("S1", "S2", "S3")

#: Span name of the parent half-sweep in the instrumented ALS driver.
SWEEP_SPAN = "als.half_sweep"


@dataclass(frozen=True)
class StageStat:
    """Aggregate of one ALS stage over a run.

    ``rhs_fused`` marks an S1 aggregate that includes the fused S2 work.
    """

    stage: str
    calls: int
    seconds: float
    rhs_fused: bool = False

    @property
    def label(self) -> str:
        return f"{self.stage} (+S2)" if self.rhs_fused else self.stage


@dataclass(frozen=True)
class SpanStat:
    """Aggregate of one span name over a run."""

    name: str
    calls: int
    seconds: float
    self_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


def stage_breakdown(records: Sequence[SpanRecord]) -> dict[str, StageStat]:
    """Measured wall-clock per stage, keyed S1/S2/S3.

    Stages always appear in the result (zero-filled when absent) so the
    table shape is stable even for runs that skipped a stage.  The S1
    entry is marked ``rhs_fused`` when any of its spans carried S2.
    """
    calls = {s: 0 for s in STAGES}
    seconds = {s: 0.0 for s in STAGES}
    fused = False
    for r in records:
        stage = r.attrs.get("stage")
        if stage in calls:
            calls[stage] += 1
            seconds[stage] += r.duration
            fused = fused or bool(r.attrs.get("rhs_fused"))
    return {
        s: StageStat(s, calls[s], seconds[s], rhs_fused=fused and s == "S1")
        for s in STAGES
    }


def sweep_seconds(records: Sequence[SpanRecord]) -> float:
    """Total wall-clock spent inside half-sweep spans (the parent scope)."""
    return sum(r.duration for r in records if r.name == SWEEP_SPAN)


def top_spans(records: Sequence[SpanRecord], n: int = 10) -> list[SpanStat]:
    """The n span names with the largest total wall-clock."""
    agg: dict[str, list[float]] = {}
    for r in records:
        entry = agg.setdefault(r.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += r.duration
        entry[2] += r.self_duration
    stats = [SpanStat(name, int(c), s, ss) for name, (c, s, ss) in agg.items()]
    stats.sort(key=lambda s: s.seconds, reverse=True)
    return stats[:n]


def render_hotspot_table(records: Sequence[SpanRecord]) -> str:
    """The measured Fig. 8-style table: per-stage seconds and shares.

    Shares are relative to the parent half-sweep time; the residual row
    shows sweep bookkeeping outside S1/S2/S3 (masking, factor copies), so
    the three stages plus the residual sum to the sweep total.  When S2
    ran fused into S1 and never on its own, its empty row is dropped.
    """
    # Imported here: pulling bench in at module scope would cycle back
    # through solvers → core → obs while repro.obs is still initializing.
    from repro.bench.report import format_table

    stages = stage_breakdown(records)
    sweep = sweep_seconds(records)
    stage_total = sum(s.seconds for s in stages.values())
    denominator = sweep if sweep > 0 else stage_total
    rows: list[tuple[object, ...]] = []
    for stat in stages.values():
        if stat.stage == "S2" and stat.calls == 0 and stages["S1"].rhs_fused:
            continue
        share = stat.seconds / denominator if denominator > 0 else 0.0
        rows.append((stat.label, stat.calls, stat.seconds, f"{share:.1%}"))
    rows.append(("S1+S2+S3", "", stage_total, _share(stage_total, denominator)))
    if sweep > 0:
        rows.append(
            ("sweep residual", "", sweep - stage_total, _share(sweep - stage_total, sweep))
        )
        rows.append(("half-sweep total", "", sweep, "100.0%"))
    return format_table(
        ["stage", "calls", "seconds", "share"],
        rows,
        title="Measured hotspot breakdown (wall-clock, all iterations)",
        float_fmt="{:.4f}",
    )


def render_top_spans(records: Sequence[SpanRecord], n: int = 10) -> str:
    """A table of the n hottest span names (total / self / mean)."""
    from repro.bench.report import format_table

    rows = [
        (s.name, s.calls, s.seconds, s.self_seconds, s.mean_seconds)
        for s in top_spans(records, n)
    ]
    return format_table(
        ["span", "calls", "total [s]", "self [s]", "mean [s]"],
        rows,
        title=f"Top {min(n, len(rows))} spans by total wall-clock",
        float_fmt="{:.4f}",
    )


def _share(value: float, total: float) -> str:
    return f"{value / total:.1%}" if total > 0 else "n/a"
