"""Measured hotspot aggregation over real instrumented training runs."""

from __future__ import annotations

import pytest

from repro.core.als import ALSConfig, train_als
from repro.datasets.planted import planted_problem
from repro.linalg.normal_equations import scatter_normal_equations
from repro.obs import hotspot
from repro.obs.spans import Tracer, capture
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def run_records():
    """Spans from a real (small) instrumented training run."""
    problem = planted_problem(m=80, n=60, rank=3, density=0.3, seed=5)
    with capture() as tracer:
        train_als(problem.ratings, ALSConfig(k=4, lam=0.05, iterations=3))
    return tuple(tracer.records)


class TestStageBreakdown:
    def test_all_stages_present_with_expected_calls(self, run_records):
        stages = hotspot.stage_breakdown(run_records)
        assert set(stages) == {"S1", "S2", "S3"}
        # 3 iterations x 2 half-sweeps, one stage span each; the binned
        # assembly computes S2 inside S1, so S2 has no spans of its own.
        assert stages["S1"].rhs_fused and stages["S1"].label == "S1 (+S2)"
        assert stages["S2"].calls == 0 and stages["S2"].seconds == 0.0
        for stage in ("S1", "S3"):
            assert stages[stage].calls == 6
            assert stages[stage].seconds > 0

    def test_scatter_keeps_all_three_stages(self, rng):
        """The scatter reference times S1 and S2 apart: no fused label."""
        R = planted_problem(m=80, n=60, rank=3, density=0.3, seed=5).ratings
        R = CSRMatrix.from_coo(R.deduplicate())
        Y = rng.standard_normal((R.ncols, 4))
        with capture() as tracer:
            for _ in range(6):
                scatter_normal_equations(R, Y, 0.05)
        stages = hotspot.stage_breakdown(tracer.records)
        assert set(stages) == {"S1", "S2", "S3"}
        assert not stages["S1"].rhs_fused and stages["S1"].label == "S1"
        for stage in ("S1", "S2"):
            assert stages[stage].calls == 6
            assert stages[stage].seconds > 0
        assert stages["S3"].calls == 0

    def test_stages_sum_to_sweep_total(self, run_records):
        """S1+S2+S3 ≈ the parent half-sweep span (small residual only)."""
        stage_total = sum(
            s.seconds for s in hotspot.stage_breakdown(run_records).values()
        )
        sweep = hotspot.sweep_seconds(run_records)
        assert 0 < stage_total <= sweep
        assert stage_total == pytest.approx(sweep, rel=0.25)

    def test_zero_filled_for_empty_records(self):
        stages = hotspot.stage_breakdown([])
        assert all(s.calls == 0 and s.seconds == 0.0 for s in stages.values())


class TestTopSpans:
    def test_sorted_by_total_and_bounded(self, run_records):
        top = hotspot.top_spans(run_records, n=3)
        assert len(top) == 3
        assert top[0].seconds >= top[1].seconds >= top[2].seconds

    def test_aggregates_calls(self, run_records):
        by_name = {s.name: s for s in hotspot.top_spans(run_records, n=50)}
        assert by_name["als.half_sweep"].calls == 6
        assert by_name["als.train"].calls == 1


class TestRendering:
    def test_hotspot_table_renders(self, run_records):
        table = hotspot.render_hotspot_table(run_records)
        for token in ("S1 (+S2)", "S3", "half-sweep total", "100.0%"):
            assert token in table
        assert "S2 " not in table.replace("S1 (+S2)", "")

    def test_top_spans_table_renders(self, run_records):
        table = hotspot.render_top_spans(run_records, n=5)
        assert "als.s1.gram" in table

    def test_tables_handle_no_records(self):
        assert "n/a" in hotspot.render_hotspot_table([])
        hotspot.render_top_spans([])  # must not raise


class TestDeterministicShares:
    def test_shares_with_fake_clock(self):
        """Stage shares computed from a fully deterministic span set."""
        t = Tracer(clock=iter(range(100)).__next__)
        with t.span("als.half_sweep"):  # start 0
            with t.span("als.s1.gram", stage="S1"):  # 1..2 → 1s
                pass
            with t.span("als.s2.rhs", stage="S2"):  # 3..4 → 1s
                pass
            with t.span("als.s3.solve", stage="S3"):  # 5..6 → 1s
                pass
        # half_sweep: 0..7 → 7s
        stages = hotspot.stage_breakdown(t.records)
        assert [stages[s].seconds for s in ("S1", "S2", "S3")] == [1.0, 1.0, 1.0]
        assert hotspot.sweep_seconds(t.records) == 7.0
