"""gpspectra benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload random_modes --seed 1 --seconds 10 --trace 0

Runs from any directory; the package is imported from ``src/`` next to this
directory and nowhere else.  A run repeats whole rounds of the workload's
operations until ``--seconds`` have passed (at least the workload's minimum
number of rounds), checks every output, and prints one line per figure
followed by a last line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run first repeats the untraced rounds, then the same number of rounds
with spans recorded around the package's public functions, and the metrics
are the per-layer ones, with the tracing overhead: the traced median
operation time over the untraced one, or the workload's own ``overhead()``
where tracing cannot reach its operations.  Spans are written to
``perfbench/out/`` when the run ends.  See README.md for what each figure
means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import child
from stats import median
from tracing import Layers, Tracer, install, per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("random_modes", "power_ladder", "cli_jobs")

#: fresh set-up processes timed per untraced run, spread over the run; median reported
SETUP_REPEATS = 9

#: fresh processes timed for the import breakdown of a traced run; medians reported
IMPORT_REPEATS = 5

#: per-layer import figures: metric -> top-level module
IMPORT_METRICS = {
    "package.import_s": "gpspectra",
    "package.import_scipy_s": "scipy",
    "package.import_mpmath_s": "mpmath",
    "package.import_numpy_s": "numpy",
}

CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import the package, build the inputs and exit (timed by the parent run)",
    )
    return parser.parse_args(argv)


def import_times(text: str) -> dict[str, float]:
    """Seconds per IMPORT_METRICS module from ``python -X importtime`` output.

    A module's figure is the cumulative time of its outermost imports: the
    lines for it that no other line of the same top-level module encloses.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, int(cumulative), name.strip().split(".")[0]))
    totals = dict.fromkeys(IMPORT_METRICS.values(), 0)
    ancestors: list[tuple[int, str]] = []
    # a line is printed after the imports it encloses, so walk backwards
    for level, cumulative, top in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if top in totals and all(t != top for _, t in ancestors):
            totals[top] += cumulative
        ancestors.append((level, top))
    return {metric: totals[top] / 1e6 for metric, top in IMPORT_METRICS.items()}


class SetupProbes:
    """Fresh processes that import the package and build the inputs, timed.

    They run one at a time between operations, each due at its own step of
    the measured time, so the median covers the whole run rather than one
    spell of the host.  Their time counts toward no operation and not
    toward the run's ``--seconds``.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        self.due = [args.seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
        self.times: list[float] = []

    def _probe(self) -> float:
        start = perf_counter()
        proc = child.run(self.argv, CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        took = perf_counter() - start
        proc.check_returncode()
        self.times.append(took)
        return took

    def between(self, measured_s: float) -> float:
        """Run the probes due by ``measured_s``; returns the seconds they took."""
        took = 0.0
        while self.due and measured_s >= self.due[0]:
            self.due.pop(0)
            took += self._probe()
        return took

    def median(self) -> float:
        """Runs the probes not yet due, then gives the median of all."""
        while self.due:
            self.due.pop(0)
            self._probe()
        return median(self.times)


def measure_imports() -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gpspectra"],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        runs.append(import_times(proc.stderr))
    return {metric: median([r[metric] for r in runs]) for metric in IMPORT_METRICS}


def run_phase(workload, seconds: float, tracer=None, rounds: int | None = None, probes=None):
    """Whole rounds until ``seconds`` of operations pass, or exactly ``rounds`` rounds."""
    samples: list[tuple[bool, int, int]] = []
    start = perf_counter()
    paused = 0.0  # seconds spent in set-up probes

    def record(ok: bool, ns: int, modes: int) -> None:
        nonlocal paused
        samples.append((ok, ns, modes))
        if probes is not None:
            paused += probes.between(perf_counter() - start - paused)

    done = 0
    while True:
        workload.round(record, tracer)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= workload.min_rounds and perf_counter() - start - paused >= seconds:
            break
    return samples, done


def end_to_end(samples) -> dict[str, float]:
    ok = [ns for good, ns, _ in samples if good]
    # a failed operation counts as missing every latency limit
    latency = [ns / 1e6 if good else math.inf for good, ns, _ in samples]
    return {
        "ops_per_s": len(ok) / (sum(ns for _, ns, _ in samples) / 1e9),
        "op_ms_p50": median(latency),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gpspectra" / "__init__.py").is_file():
        print(f"perfbench: no gpspectra source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # child processes (set-up probes, importtime, CLI jobs) import the same source
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import gpspectra

    if Path(gpspectra.__file__).resolve().parent != (SRC / "gpspectra").resolve():
        print(f"perfbench: gpspectra was imported from {gpspectra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload_cls = importlib.import_module(args.workload).Workload

    workdir = BENCH / f".work-{os.getpid()}"
    workdir.mkdir()
    # the package's process pools and temporary files stay inside the checkout
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.setup_probe:
            workload_cls(args.seed, workdir)
            return 0
        return _measure(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload_cls, workdir: Path) -> int:
    probes = SetupProbes(args) if args.trace == 0 else None
    workload = workload_cls(args.seed, workdir)
    samples, rounds = run_phase(workload, args.seconds, probes=probes)
    report = workload.report()
    metrics: dict[str, tuple[float, str]] = {}
    figures = end_to_end(samples)
    if args.trace == 0:
        metrics["setup_s"] = (probes.median(), "s")
        metrics["ops_per_s"] = (figures["ops_per_s"], "1/s")
        metrics["op_ms_p50"] = (figures["op_ms_p50"], "ms")
    else:
        tracer = Tracer()
        restore = install(tracer)
        try:
            traced, _ = run_phase(workload, args.seconds, tracer=tracer, rounds=rounds)
        finally:
            restore()
        samples = samples + traced
        if hasattr(workload, "overhead"):
            overhead = workload.overhead()
        else:
            overhead = end_to_end(traced)["op_ms_p50"] / figures["op_ms_p50"] - 1.0
        metrics.update(per_layer_metrics(Layers(tracer, workload.units)))
        metrics.update({name: (value, "s") for name, value in measure_imports().items()})
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")

    problems = sorted(workload.problems)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    attempted = len(samples)
    failed = sum(1 for good, _, _ in samples if not good)
    print(f"# {args.workload} seed {args.seed}: {rounds} round(s), {attempted} operation(s), {failed} failed")
    for name, value, unit in report:
        print(f"# {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
