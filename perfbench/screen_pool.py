"""Rewrite pool_failures.json: the random_modes pool entries the program fails on.

Runs every pool entry through the same operation and checks as the
``random_modes`` workload and records, per failing entry, the exception
name or the first failed check.  Run it only when the pool itself changes:
the file fixes how many failing entries each round draws, and the
benchmark's inputs must not move with the program under test.

    python3 perfbench/screen_pool.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gpspectra.errors import GPSpectraError  # noqa: E402
from random_modes import FAILURES_FILE, check, operate, pool  # noqa: E402


def main() -> int:
    failures = {}
    for d in pool():
        try:
            _, _, result, deviation = operate(d)
        except GPSpectraError as exc:
            failures[str(d.index)] = type(exc).__name__
            continue
        problems = check(d, result, deviation)
        if problems:
            failures[str(d.index)] = problems[0]
    FAILURES_FILE.write_text(json.dumps(failures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    counts = {}
    for reason in failures.values():
        counts[reason] = counts.get(reason, 0) + 1
    print(json.dumps(counts, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
