"""Workload ``power_ladder``: pair-only sweeps over a million-term ladder.

Each operation is one ``sweep`` job run in-process through
``gpspectra.cli.main`` on the square-root family c_k = k**-1/2, g_k = k
materialized at COUNT terms.  A round sweeps one xi in each of the three
decay regimes, each with ``--jobs 1`` and with ``--jobs 2``.  The work is
the O(COUNT) transform inside the pair solve; the real branches and the
oracle are never reached, so this workload moves only with the pair and
transform layers and with the process pool.

The inputs are fixed: the ladder runs from a = A_MIN over a bit more than two
decades in MODES points, and the constant-offset xi is the regime boundary (r + 1)/2 = 3/4
itself.  ``--seed`` sets the order in which a round runs its six jobs.  The
xi of each open regime is fixed too, because the fixed-point iteration count,
and with it the job's cost, moves in steps with xi and the frequency.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import gpspectra
import gpspectra.cli

FAMILY = {"amplitude": 1.0, "scale": 1.0, "alpha": 0.5, "beta": 1.0, "count": 10**6}
MODES = 4
A_MIN = 100.0
FACTOR = 5.0

#: one xi per decay regime: tends to the axis, constant offset, unbounded decay
XIS = (0.5, 0.75, 0.8)

#: regularity r = (alpha + beta - 1)/beta of FAMILY; the regimes meet at xi = (r + 1)/2
REGULARITY = 0.5

#: Re C(1/2) = pi/(2 sqrt 2): the decay rate the constant-offset regime levels off at
SQRT_PREFACTOR = math.pi / (2.0 * math.sqrt(2.0))

RESIDUAL_TOL = 1e-10

#: constant offset: |Re| stays within this ratio along the ladder and the last
#: point lies within this share of SQRT_PREFACTOR
LEVEL_RATIO = 1.1
PREFACTOR_TOL = 0.03


def expected_regime(xi: float) -> str:
    boundary = 0.5 * (REGULARITY + 1.0)
    if xi < boundary:
        return "tends_to_axis"
    return "constant_offset" if xi == boundary else "unbounded_decay"


def parse_sweep(text: str) -> list[dict]:
    return list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))


class _Ladder:
    """The materialized family, evaluated by the benchmark itself."""

    def __init__(self):
        k = np.arange(1, FAMILY["count"] + 1, dtype=float)
        self.c = FAMILY["amplitude"] / k ** FAMILY["alpha"]
        self.g = FAMILY["scale"] * k ** FAMILY["beta"]

    def symbol(self, a: float, xi: float, z: complex) -> complex:
        memory = complex(np.sum(self.c / (z + self.g)))
        return z * z + a * a - a ** (2.0 * xi) * memory


def check_sweep(text: str, xi: float, ladder: _Ladder) -> list[str]:
    rows = parse_sweep(text)
    regime = expected_regime(xi)
    tag = f"sweep xi={xi!r}"
    problems = []
    if len(rows) != MODES:
        return [f"{tag}: {len(rows)} rows, expected {MODES}"]
    if any(r["regime"] != regime for r in rows):
        problems.append(f"{tag}: regime column is not {regime}")
    decay = [abs(float(r["numeric_re"])) for r in rows]
    for r in rows:
        a, z = float(r["a_n"]), complex(float(r["numeric_re"]), float(r["numeric_im"]))
        residual = abs(ladder.symbol(a, xi, z))
        if not residual <= RESIDUAL_TOL * a * a:
            problems.append(f"{tag}: pair residual {residual:.3e} at a={a:.6g}")
    steps = list(zip(decay, decay[1:]))
    if regime == "tends_to_axis" and not all(b < a for a, b in steps):
        problems.append(f"{tag}: |Re| does not fall along the ladder: {decay}")
    if regime == "unbounded_decay" and not all(b > a for a, b in steps):
        problems.append(f"{tag}: |Re| does not rise along the ladder: {decay}")
    if regime == "constant_offset":
        if not max(decay) <= LEVEL_RATIO * min(decay):
            problems.append(f"{tag}: |Re| is not level along the ladder: {decay}")
        if not abs(decay[-1] - SQRT_PREFACTOR) <= PREFACTOR_TOL * SQRT_PREFACTOR:
            problems.append(f"{tag}: last |Re| {decay[-1]!r} is not near pi/(2 sqrt 2)")
    return problems


class Workload:
    units = {"op"}
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.configs = []
        for i, xi in enumerate(XIS):
            path = workdir / f"sweep_{i}.json"
            config = {
                "kernel": {"family": FAMILY},
                "xi": xi,
                "modes": {"a_min": A_MIN, "factor": FACTOR, "count": MODES},
            }
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append((xi, path))
        self.order = [(i, jobs) for i in range(len(XIS)) for jobs in (1, 2)]
        random.Random(seed).shuffle(self.order)
        self.outputs: dict[tuple[int, int], bytes] = {}
        self.checked: dict[bytes, list[str]] = {}
        self.problems: set[str] = set()
        self.job_ns: dict[int, list[int]] = {1: [], 2: []}
        self._ladder = None

    def _sweep(self, path: Path, out: Path, jobs: int) -> int:
        argv = ["sweep", "--config", str(path), "--out", str(out), "--jobs", str(jobs)]
        with contextlib.redirect_stderr(io.StringIO()):
            return gpspectra.cli.main(argv)

    def round(self, record, tracer) -> None:
        for i, jobs in self.order:
            xi, path = self.configs[i]
            out = self.workdir / f"sweep_{i}_jobs{jobs}.csv"
            start = perf_counter_ns()
            with tracer.span("op", MODES) if tracer is not None else contextlib.nullcontext():
                code = self._sweep(path, out, jobs)
            elapsed = perf_counter_ns() - start
            record(code == 0, elapsed, MODES)
            if code != 0:
                continue
            self.job_ns[jobs].append(elapsed)
            self._check(i, xi, jobs, out.read_bytes())
            if tracer is not None and jobs == 1:
                self._tail_probe(out.read_text(encoding="utf-8"))

    def _check(self, i: int, xi: float, jobs: int, data: bytes) -> None:
        first = self.outputs.setdefault((i, jobs), data)
        if data != first:
            self.problems.add(f"sweep xi={xi!r} --jobs {jobs}: rerun output differs")
        other = self.outputs.get((i, 3 - jobs))
        if other is not None and other != data:
            self.problems.add(f"sweep xi={xi!r}: --jobs 1 and --jobs 2 outputs differ")
        if data not in self.checked:
            if self._ladder is None:
                self._ladder = _Ladder()
            self.checked[data] = check_sweep(data.decode("utf-8"), xi, self._ladder)
        self.problems.update(self.checked[data])

    def _tail_probe(self, text: str) -> None:
        """Traced runs only: the analytic tail at each swept pair point."""
        family = gpspectra.PowerLawFamily(**FAMILY)
        for r in parse_sweep(text):
            gpspectra.laplace_tail(family, complex(float(r["numeric_re"]), float(r["numeric_im"])))

    def report(self) -> list[tuple[str, float, str]]:
        lines = []
        for jobs, name in ((1, "sweep_modes_per_s"), (2, "sweep_pool_modes_per_s")):
            done = self.job_ns[jobs]
            if done:
                lines.append((name, MODES * len(done) / (sum(done) / 1e9), "modes/s"))
        return lines
