"""The ``--check`` bars of the outofcore, convergence and serving
workloads, on canned records: one that passes, and one that trips each
bar."""

from __future__ import annotations

import copy

import pytest

from repro.bench.workloads import convergence, outofcore, serving

OUTOFCORE_OK = {
    "loss_rel_err": 3.7e-16,
    "throughput_retention": 1.2,
    "rss_delta_ratio": 0.1,
    "capped": {
        "rlimit_data_enforced": True,
        "cap_bytes": 512 << 20,
        "sharded_ok": True,
    },
}

CONVERGENCE_OK = {
    "time_to_target_speedup": 1.6,
    "final_loss_rel_gap": 0.0,
    "dk_bitwise": {"als": True, "als-wr": True, "implicit": True},
    "sharded_bitwise": {"als": True, "als-wr": True, "implicit": True},
}


_LOOP = {"throughput": 900.0, "errors": 0}
SERVING_OK = {
    "batching_speedup": 3.0,
    "foldin_bitwise": {"als": True, "als-wr": True, "implicit": True},
    "update_bitwise": {"als": True, "als-wr": True, "implicit": True},
    "foldin_no_retrain": True,
    "batching": {"batched": dict(_LOOP), "unbatched": dict(_LOOP)},
    "open_loop": dict(_LOOP),
}


def _with(record: dict, path: tuple[str, ...], value) -> dict:
    out = copy.deepcopy(record)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestOutOfCoreCheck:
    def test_passing_record(self):
        assert outofcore.check_record(OUTOFCORE_OK, {"quick": True}) == []

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("loss_rel_err",), 2e-10, "loss trajectories disagree"),
            (("throughput_retention",), 0.69, "throughput retention 0.69"),
            (("rss_delta_ratio",), 0.5, "sharded RSS delta is 0.50x"),
            (("rss_delta_ratio",), float("inf"), "sharded RSS delta"),
            (("capped", "sharded_ok"), False, "died under the 512.0 MB"),
        ],
        ids=["loss", "retention", "rss", "rss-no-ram-delta", "capped"],
    )
    def test_each_bar_trips(self, path, value, message):
        failures = outofcore.check_record(
            _with(OUTOFCORE_OK, path, value), {"quick": True}
        )
        assert len(failures) == 1
        assert message in failures[0]

    def test_unenforced_cap_is_not_a_failure(self):
        record = _with(OUTOFCORE_OK, ("capped",), {
            "rlimit_data_enforced": False, "cap_bytes": 512 << 20,
        })
        assert outofcore.check_record(record, {"quick": True}) == []


class TestConvergenceCheck:
    @pytest.mark.parametrize("quick", [True, False])
    def test_passing_record(self, quick):
        assert convergence.check_record(CONVERGENCE_OK, {"quick": quick}) == []

    @pytest.mark.parametrize(
        "path, value, quick, message",
        [
            (("time_to_target_speedup",), 0.69, True, "below the required 0.70"),
            (("time_to_target_speedup",), 1.49, False, "below the required 1.50"),
            (("final_loss_rel_gap",), 2e-6, True, "misses full-k by"),
            (("dk_bitwise", "als-wr"), False, True,
             "als-wr: block_size==k is not bitwise-equal"),
            (("sharded_bitwise", "implicit"), False, True,
             "implicit: sharded subspace training diverges"),
        ],
        ids=["speedup-quick", "speedup-full", "loss-gap", "dk", "sharded"],
    )
    def test_each_bar_trips(self, path, value, quick, message):
        failures = convergence.check_record(
            _with(CONVERGENCE_OK, path, value), {"quick": quick}
        )
        assert len(failures) == 1
        assert message in failures[0]

    def test_quick_bar_is_the_default(self):
        record = _with(CONVERGENCE_OK, ("time_to_target_speedup",), 1.0)
        assert convergence.check_record(record, {}) == []
        assert convergence.check_record(record, {"quick": False})


class TestServingCheck:
    def test_passing_record(self):
        assert serving.check_record([SERVING_OK, {}], {"quick": True}) == []

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("batching_speedup",), 1.1, "below the required 1.20"),
            (("foldin_bitwise", "als-wr"), False,
             "als-wr: folded-in factors are not bitwise-equal"),
            (("update_bitwise", "implicit"), False,
             "implicit: updated factors are not bitwise-equal"),
            (("foldin_no_retrain",), False, "triggered a trainer call"),
            (("open_loop", "errors"), 2, "open loop had 2 errors"),
        ],
        ids=["batching", "foldin", "update", "retrain", "open-loop"],
    )
    def test_each_bar_trips(self, path, value, message):
        failures = serving.check_record(
            _with(SERVING_OK, path, value), {"quick": True}
        )
        assert len(failures) == 1
        assert message in failures[0]
