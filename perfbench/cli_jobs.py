"""Workload ``cli_jobs``: each of the five CLI jobs as its own process.

Each operation runs ``python -m gpspectra <job> --config ...`` in a fresh
interpreter and waits for it, one at a time.  The solver work is negligible
on these one-mode configs, so interpreter start, imports, config parsing and
CSV assembly set the time.  Configs: the a=10 cubic (cleared polynomial
z^3 + 2z^2 + 100z + 190) for spectrum, verify and oracle-check; the cubic's
kernel on a four-point ladder for sweep, which needs a ladder; and a small
square-root family for asymptote.  The inputs are fixed; ``--seed`` sets the
order in which a round runs the jobs.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import mpmath

import child
import gpspectra.cli
from stats import median

CUBIC = {"kernel": {"coeffs": [1.0], "rates": [2.0]}, "xi": 0.5, "modes": [10.0]}
SMALL_FAMILY = {"amplitude": 1.0, "scale": 1.0, "alpha": 0.5, "beta": 1.0, "count": 64}
CONFIGS = {
    "spectrum": CUBIC,
    "verify": CUBIC,
    "oracle-check": CUBIC,
    "sweep": dict(CUBIC, modes={"a_min": 10.0, "factor": 10.0, "count": 4}),
    "asymptote": {"kernel": {"family": SMALL_FAMILY}, "xi": 0.5, "modes": [10.0]},
}
MODES = {"spectrum": 1, "verify": 1, "oracle-check": 1, "sweep": 4, "asymptote": 1}

#: relative agreement with the benchmark's own reference values
TOL = 1e-12

RESIDUAL_TOL = 1e-10

TIMEOUT_S = 120

#: traced runs: untraced/traced pairs of in-process runner calls per job and round
RUNNER_PAIRS = 4


def rows(text: str) -> list[dict]:
    return list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))


def _close(x: complex, y: complex, tol: float = TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def cubic_roots() -> list[complex]:
    with mpmath.workdps(30):
        return [complex(r) for r in mpmath.polyroots([1, 2, 100, 190], maxsteps=200, extraprec=60)]


def finite_sum_prediction(a: float, xi: float, k0: float) -> complex:
    return complex(-k0 / (2.0 * a ** (2.0 * (1.0 - xi))), a)


def power_law_prediction(a: float, xi: float, family: dict) -> complex:
    """i a - C(r) A/(beta B^(1-r)) a^-(1+r-2xi), C(r) = (pi/2) e^(i pi (1-r)/2)/sin(pi r)."""
    alpha, beta = family["alpha"], family["beta"]
    r = (alpha + beta - 1.0) / beta
    c = (math.pi / 2.0) * cmath.exp(1j * math.pi * (1.0 - r) / 2.0) / math.sin(math.pi * r)
    front = family["amplitude"] / (beta * family["scale"] ** (1.0 - r))
    return 1j * a - c * front * a ** (-(1.0 + r - 2.0 * xi))


def cubic_symbol(a: float, xi: float, z: complex) -> complex:
    return z * z + a * a - a ** (2.0 * xi) / (z + 2.0)


def check_output(job: str, text: str) -> list[str]:
    """Each job's CSV against values the benchmark computes on its own."""
    table = rows(text)
    tag = f"cli {job}"
    if job == "spectrum":
        got = sorted(
            (complex(float(r["re"]), float(r["im"])) for r in table), key=lambda z: (z.real, z.imag)
        )
        # the CSV lists each real root once and the pair by its upper root
        want = sorted(
            (complex(z.real, 0.0) if abs(z.imag) <= TOL else z for z in cubic_roots() if z.imag > -TOL),
            key=lambda z: (z.real, z.imag),
        )
        if len(got) != len(want) or not all(_close(x, y) for x, y in zip(got, want)):
            return [f"{tag}: roots {got} differ from polyroots {want}"]
        return []
    if job in ("verify", "oracle-check"):
        bad = [r for r in table if r["status"] != "pass"]
        return [f"{tag}: {len(bad)} row(s) do not pass"] if bad or not table else []
    if job == "sweep":
        problems = []
        cfg = CONFIGS["sweep"]
        for r in table:
            a = float(r["a_n"])
            want = finite_sum_prediction(a, cfg["xi"], sum(cfg["kernel"]["coeffs"]))
            got = complex(float(r["predicted_re"]), float(r["predicted_im"]))
            if not _close(got, want):
                problems.append(f"{tag}: prediction {got} at a={a:g}, closed form {want}")
            z = complex(float(r["numeric_re"]), float(r["numeric_im"]))
            if not abs(cubic_symbol(a, cfg["xi"], z)) <= RESIDUAL_TOL * a * a:
                problems.append(f"{tag}: pair residual too large at a={a:g}")
        return problems if len(table) == MODES["sweep"] else problems + [f"{tag}: row count"]
    if job == "asymptote":
        cfg = CONFIGS["asymptote"]
        problems = []
        for r in table:
            a = float(r["a_n"])
            want = power_law_prediction(a, cfg["xi"], SMALL_FAMILY)
            got = complex(float(r["predicted_re"]), float(r["predicted_im"]))
            if not _close(got, want):
                problems.append(f"{tag}: prediction {got} at a={a:g}, closed form {want}")
        return problems if table else [f"{tag}: no rows"]
    raise ValueError(job)


class Workload:
    units = {f"cli.run_{job.replace('-', '_')}" for job in CONFIGS}
    #: two rounds at least, so every job's output is compared with a rerun
    min_rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.order = random.Random(seed).sample(sorted(CONFIGS), len(CONFIGS))
        self.paths = {}
        for job, config in CONFIGS.items():
            path = workdir / f"{job}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.paths[job] = path
        self.outputs: dict[str, str] = {}
        self.problems: set[str] = set()
        self.job_ns: dict[str, list[int]] = {job: [] for job in CONFIGS}
        #: traced runs only: (job, untraced ns, traced ns) per in-process runner call
        self.runner_ns: list[tuple[str, int, int]] = []

    def round(self, record, tracer) -> None:
        for job in self.order:
            argv = [sys.executable, "-m", "gpspectra", job, "--config", str(self.paths[job])]
            start = perf_counter_ns()
            proc = child.run(argv, TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            elapsed = perf_counter_ns() - start
            # exit 1 is verify's "a check failed": the job ran, the check below reports it
            ok = proc.returncode in (0, 1)
            record(ok, elapsed, MODES[job])
            if not ok:
                continue
            self.job_ns[job].append(elapsed)
            first = self.outputs.setdefault(job, proc.stdout)
            if proc.stdout != first:
                self.problems.add(f"cli {job}: rerun output differs")
            elif len(self.job_ns[job]) == 1:
                self.problems.update(check_output(job, proc.stdout))
            if tracer is not None:
                self._in_process(job, tracer)

    def _in_process(self, job: str, tracer) -> None:
        """Traced runs only: run the same config inside this process, RUNNER_PAIRS
        times untraced and as often traced.

        The subprocess operations are out of the tracer's reach, so these
        pairs of runner calls are what ``overhead`` compares.  Which call of
        a pair goes first alternates, so that the second call's warmer
        caches favour neither side.
        """
        text = self.paths[job].read_text(encoding="utf-8")
        name = job.replace("-", "_")
        runner = getattr(gpspectra.cli, f"run_{name}")

        def plain() -> int:
            with tracer.paused():
                start = perf_counter_ns()
                runner(cfg)
                return perf_counter_ns() - start

        def traced() -> int:
            start = perf_counter_ns()
            with tracer.span(f"cli.run_{name}", MODES[job]):
                runner(cfg)
            return perf_counter_ns() - start

        with contextlib.redirect_stderr(io.StringIO()):
            cfg = gpspectra.cli.parse_config(text, job)
            if not any(j == job for j, _, _ in self.runner_ns):
                with tracer.paused():
                    runner(cfg)  # the first call pays for lazy imports and caches
            for _ in range(RUNNER_PAIRS):
                if len(self.runner_ns) % 2 == 0:
                    untraced_ns = plain()
                    traced_ns = traced()
                else:
                    traced_ns = traced()
                    untraced_ns = plain()
                self.runner_ns.append((job, untraced_ns, traced_ns))

    def overhead(self) -> float:
        """Traced over untraced time of the in-process runner calls, minus one."""
        return sum(t for _, _, t in self.runner_ns) / sum(p for _, p, _ in self.runner_ns) - 1.0

    def report(self) -> list[tuple[str, float, str]]:
        return [
            (f"cli_{job.replace('-', '_')}_s", median(ns) / 1e9, "s")
            for job, ns in sorted(self.job_ns.items())
            if ns
        ]
