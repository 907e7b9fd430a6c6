"""Do two sets of benchmark runs agree within the benchmark's bounds?

Usage::

    python3 benchmarks/e2e/agree.py RUNS_A RUNS_B

Each argument is a directory of ``run.py --out`` records (or one such
file).  For every workload × end-to-end metric of ``BENCHMARK.json`` it
prints both medians, their difference and each set's quartile spread
(interquartile range over median).  The sets agree when every median
differs by at most the metric's bound and every spread, ``setup_s``
excepted, is within it.  Exit status: 0 agree, 1 disagree, 2 usage.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: Path) -> dict:
    """``{(workload, metric): [values]}`` over every record under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text())
        if record.get("trace"):
            continue
        for workload, res in record["workloads"].items():
            for metric, m in res["reported"].items():
                values[(workload, metric)].append(m["value"])
    return values


def spread(vals: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for m in spec["end_to_end"]:
        for workload in sorted({w for w, _ in a} | {w for w, _ in b}):
            va, vb = a.get((workload, m["name"]), []), b.get((workload, m["name"]), [])
            if len(va) < 2 or len(vb) < 2:
                rows.append({"workload": workload, "metric": m["name"], "ok": False,
                             "note": f"needs 2+ runs per set, has {len(va)} and {len(vb)}"})
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / abs(ma) if ma else float("inf")
            sa, sb = spread(va), spread(vb)
            spreads_ok = m["name"] == "setup_s" or (sa <= m["bound"] and sb <= m["bound"])
            rows.append({
                "workload": workload, "metric": m["name"], "median_a": ma,
                "median_b": mb, "delta": delta, "bound": m["bound"],
                "spread_a": sa, "spread_b": sb, "runs": (len(va), len(vb)),
                "ok": abs(delta) <= m["bound"] and spreads_ok,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(p) for p in argv]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    rows = compare(load_runs(paths[0]), load_runs(paths[1]), spec)
    print(f"{'workload':16} {'metric':22} {'median A':>12} {'median B':>12} "
          f"{'delta':>8} {'bound':>6} {'spread A':>8} {'spread B':>8}")
    for r in rows:
        if "delta" not in r:
            print(f"{r['workload']:16} {r['metric']:22} {r['note']}")
            continue
        print(f"{r['workload']:16} {r['metric']:22} {r['median_a']:12.5g} "
              f"{r['median_b']:12.5g} {r['delta']:+8.2%} {r['bound']:6.2%} "
              f"{r['spread_a']:8.2%} {r['spread_b']:8.2%}{'' if r['ok'] else '  DISAGREE'}")
    bad = sum(not r["ok"] for r in rows)
    print(f"{len(rows) - bad}/{len(rows)} agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
