"""Run the benchmark in two sets on the same code and judge its steadiness.

    python3 perfbench/compare.py [--runs 10]

The first set runs every workload once per seed 1..runs, the second once per
seed runs+1..2*runs, each with ``--trace 0`` and the run length from
BENCHMARK.json, one workload's runs back to back.  For every end-to-end
metric on every workload it reports each set's median and spread (distance
between the first and third quartile over the median) next to the metric's
bound, and how much worse the second set's median is than the first's.
It fails when a spread exceeds its bound, when the second median is worse
by more than the bound, when the share of failed operations differs between
any two runs of a workload, or when a run reports wrong output.  Raw results
go to ``perfbench/out/compare-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from stats import median, spread, worsening

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(spec: dict, sets: list[dict]) -> bool:
    """Print the table; True when every criterion holds."""
    ok = True
    for workload in sets[0]:
        print(f"\n{workload}")
        first, second = sets[0][workload], sets[1][workload]
        shares = {Fraction(r["failed"], r["attempted"]) for r in first + second}
        share_ok = len(shares) == 1
        correct = all(r["correct"] for r in first + second)
        ok = ok and share_ok and correct
        print(f"  failed share: {', '.join(sorted(str(x) for x in shares))}"
              f"{'' if share_ok else '  DIFFERS between runs'}; outputs {'correct' if correct else 'WRONG'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in (first, second)]
            cells = []
            for v in values:
                s = spread(v)
                ok = ok and s <= bound
                cells.append(f"median {median(v):.6g} spread {s:.3f}" + (" OVER" if s > bound else ""))
            worse = worsening(values[0], values[1], metric["better"])
            ok = ok and worse <= bound
            print(f"  {name:<12} bound {bound:.2f} | " + " | ".join(cells)
                  + f" | second set worse by {worse:+.3f}" + (" OVER" if worse > bound else ""))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for index in range(SETS):
        results = {name: [] for name in names}
        for name in names:
            for seed in range(index * args.runs + 1, (index + 1) * args.runs + 1):
                results[name].append(run_once(name, seed, spec["run_seconds"]))
                print(f"set {index + 1} {name} seed {seed} done", file=sys.stderr)
        sets.append(results)
    OUT.mkdir(exist_ok=True)
    saved = OUT / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    saved.write_text(json.dumps(sets), encoding="utf-8")
    print(f"results in {saved}")
    ok = judge(spec, sets)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
