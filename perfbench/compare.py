"""Compare two sets of benchmark results (parent and change), for local use.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one NAME.jsonl file per workload (NAME is free, e.g.
traj-long.jsonl or traj-long.trace.jsonl), one result line per run, as
printed last by run.py.  Run both sides with the same seeds in the same
order, so that line i of one file pairs with line i of the other:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload traj-long --seed $s --seconds 40 \\
        --trace 0 | tail -n 1 >> results/parent/traj-long.jsonl
    done

For every metric it prints each side's median and quartiles, how many
pairs the change wins, and a verdict under the rules of BENCHMARK.json:

* improved: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile spread, or the parent's
  spread exceeds the bound and every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the
  bound (metrics without a bound: loses 9/10 of the pairs by more than
  the parent's quartile spread);
* unresolved: the parent's own spread is wider than the bound, or a
  metric without a bound is neither improved nor worse;
* unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["metrics"] for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p3 - p1
    gain = sign * (c_med - p_med)  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0.0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0.0)
    scale = abs(p_med)
    if bound is not None and spread > bound * scale:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return "improved" if all_better else "unresolved"
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "improved"
    if bound is not None:
        return "worse" if -gain > bound * scale else "unchanged"
    if losses >= 0.9 * len(pairs) and -gain > spread:
        return "worse"
    return "unresolved"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent_dir, change_dir = Path(argv[0]), Path(argv[1])
    names = sorted(p.name for p in parent_dir.glob("*.jsonl") if (change_dir / p.name).is_file())
    if not names:
        print("no NAME.jsonl present in both directories", file=sys.stderr)
        return 2
    print(f"{'workload':<24} {'metric':<44} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7}  verdict")
    for name in names:
        parent, change = load(parent_dir / name), load(change_dir / name)
        for metric in parent[0]:
            if metric not in rules or metric not in change[0]:
                continue
            pv = [run[metric]["value"] for run in parent]
            cv = [run[metric]["value"] for run in change]
            better, bound = rules[metric]
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for p, c in zip(pv, cv) if sign * (c - p) > 0.0)
            print(f"{Path(name).stem:<24} {metric:<44} {_cell(pv):>32} {_cell(cv):>32} "
                  f"{wins:>3}/{min(len(pv), len(cv)):<3}  {verdict(pv, cv, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
