"""Print the results of two benchmark sides next to each other, or the
spread of one side.

    python3 bench/compare.py BASE [CHANGE]

BASE and CHANGE are result files written by run.py (.bench_out/results/)
or directories of them.  Runs are pooled per workload and mode: each run
contributes its reported median, and a side with a single run falls back to
that run's own samples.  One row is printed per (workload, metric) with the
median and quartiles of each side.

A metric with a bound in BENCHMARK.json is marked

  unresolved  when either side's quartile spread, as a share of its median,
              exceeds the bound;
  worse       when CHANGE's median is worse than BASE's by more than the bound;
  better      when it is better by more than BASE's own spread;
  same        otherwise.

With one side, each bounded metric shows its spread against the bound, and
``wide`` marks a spread above a third of it.  No combined score is printed.
Differences in the machine record of the runs (CPU, versions, pinned
environment) are listed first, because they make two sides incomparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_side(path: Path) -> tuple:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups, machines = {}, {}
    for f in files:
        rec = json.loads(f.read_text())
        key = (rec["workload"], rec["trace"])
        groups.setdefault(key, []).append(rec)
        machines.update({k: json.dumps(v, sort_keys=True)
                         for k, v in rec["machine"].items()
                         if k != "concentra_file"})
    return groups, machines


def pooled(records, metric):
    """(values, unit) for one metric across the runs of one group."""
    present = [r["metrics"][metric] for r in records if metric in r["metrics"]]
    if not present:
        return [], ""
    if len(present) == 1:
        return list(present[0]["samples"]), present[0]["unit"]
    return [m["value"] for m in present], present[0]["unit"]


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric_spec, a, b):
    bound, better = metric_spec["bound"], metric_spec["better"]
    (ma, qa1, qa3), (mb, qb1, qb3) = a, b
    sa, sb = spread(ma, qa1, qa3), spread(mb, qb1, qb3)
    if sa > bound or sb > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if change > bound:
        return "worse"
    if change < -sa:
        return "better"
    return "same"


def fmt(v):
    return f"{v:.5g}"


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load_side(Path(p)) for p in argv]

    if len(sides) == 2:
        ma, mb = sides[0][1], sides[1][1]
        diff = sorted(k for k in set(ma) | set(mb) if ma.get(k) != mb.get(k))
        for k in diff:
            print(f"machine differs: {k}: {ma.get(k)} vs {mb.get(k)}")

    keys = sorted(set().union(*(s[0] for s in sides)))
    head = f"{'workload':<16} {'metric':<32} {'unit':<6}"
    for i in range(len(sides)):
        head += f" | {'side ' + 'AB'[i] + ' median [q1, q3] n':<36}"
    print(head + " | verdict")
    for key in keys:
        metrics = []
        for groups, _ in sides:
            for rec in groups.get(key, []):
                metrics += [m for m in rec["metrics"] if m not in metrics]
        for metric in metrics:
            pools = [pooled(groups.get(key, []), metric) for groups, _ in sides]
            unit = next((u for _, u in pools if u), "")
            cells = [stats(values) if values else None for values, _ in pools]
            row = f"{key[0]:<16} {metric:<32} {unit:<6}"
            for cell, (values, _) in zip(cells, pools):
                text = "absent" if cell is None else (
                    f"{fmt(cell[0])} [{fmt(cell[1])}, {fmt(cell[2])}] "
                    f"{len(values)}")
                row += f" | {text:<36}"
            note = ""
            if metric in bounded and None not in cells:
                bound = bounded[metric]["bound"]
                if len(cells) == 2:
                    note = verdict(bounded[metric], *cells)
                else:
                    s = spread(*cells[0])
                    note = (f"spread {s:.3f} of bound {bound:g}"
                            + (" wide" if s > bound / 3 else ""))
            print(row + f" | {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
