"""Compare two sets of perfbench runs, metric by metric.

::

    python3 perfbench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is the ``--out`` record of one default pass (``--trace 0``).
``A`` is the parent (or the first set of runs of the same code), ``B``
the change. One row per workload x end-to-end metric, with both medians,
both quartile pairs and a verdict, using the bounds ``BENCHMARK.json``
records:

``ok``
    B's median is not worse than A's by more than the bound.
``regressed``
    B's median is worse than A's by more than the bound. Any increase of
    ``fail_share`` is a regression.
``unresolved``
    within the bound, but the run-to-run spread of either side (distance
    between its quartiles over its median) is wider than the bound, so
    "no change" cannot be told from noise — unless every B run reads
    better than every A run.

Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace"):
            raise SystemExit(f"{path}: a traced pass has no end-to-end metrics")
        records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse > bound:
        return "regressed"
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    if not b_wins and max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "ok"


def values_of(records: list[dict], workload: str, metric: str) -> list[float]:
    found = []
    for record in records:
        entry = record["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            found.append(entry["value"])
    return found


def fail_share(records: list[dict], workload: str) -> list[float]:
    return [
        record["workloads"][workload]["failed"]
        / max(1, record["workloads"][workload]["attempted"])
        for record in records if workload in record["workloads"]
    ]


def compare(a: list[dict], b: list[dict], spec: dict) -> list[dict]:
    rows = []
    # Every workload the records hold, the ones the driver does not run too.
    for workload in dict.fromkeys(w for r in a + b for w in r["workloads"]):
        for metric in spec["end_to_end"]:
            va = values_of(a, workload, metric["name"])
            vb = values_of(b, workload, metric["name"])
            if not va or not vb:
                continue
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "a": quartiles(va), "b": quartiles(vb),
                "verdict": verdict(va, vb, metric["better"], metric["bound"]),
            })
        fa, fb = fail_share(a, workload), fail_share(b, workload)
        if fa and fb:
            rows.append({
                "workload": workload, "metric": "fail_share", "unit": "ratio",
                "bound": 0.0, "a": quartiles(fa), "b": quartiles(fb),
                "verdict": "regressed" if max(fb) > max(fa) else "ok",
            })
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("compare: need at least one file on each side of --", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load(a_paths), load(b_paths), spec)
    print(f"{'workload':13s} {'metric':12s} {'unit':7s} "
          f"{'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
          f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'bound':>6s}  verdict")
    for row in rows:
        numbers = " ".join(f"{x:10.4g}" for x in (*row["a"], *row["b"]))
        print(f"{row['workload']:13s} {row['metric']:12s} {row['unit']:7s} "
              f"{numbers} {row['bound']:6.2f}  {row['verdict']}")
    counts = {
        name: sum(1 for row in rows if row["verdict"] == name)
        for name in ("ok", "regressed", "unresolved")
    }
    print(f"A: {len(a_paths)} run(s)  B: {len(b_paths)} run(s)  "
          + "  ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
