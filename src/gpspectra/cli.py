"""Command-line front end: JSON job configs in, '#'-annotated CSV out.

Five job kinds share one config schema (see docs/config.md):

* ``spectrum``     — all roots of every requested mode, one row per branch.
* ``verify``       — pass/fail table of the structural checks with margins.
* ``sweep``        — numeric pair vs. asymptotic prediction along a ladder,
  with fitted error slopes appended as footer rows.
* ``oracle-check`` — solver roots against the polynomial companion oracle.
* ``asymptote``    — predictions alone (no solving), for quick regime maps.

Each runner builds its rows as plain tuples of values and one writer,
``_table``, prints them.  Every output starts with the tool version and the
effective config echoed as canonical JSON, so a result file is reproducible
from its own header; then come the column line, one comma-joined line per
row and any '#' footer lines.  The writer's cell rule: strings and ints print
as they are, every other number with 17 significant digits and never a
negative zero.  Rows come in a fixed order: reruns of the same config are
byte-identical.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import classify_regime, empirical_order, predict_finite_sum, predict_power_law
from .complex_pair import RESIDUAL_TOL, count_zeros, fixed_point_pair, spectrum_contour
from .errors import ConfigError, GPSpectraError, NumericalError
from .kernels import ExponentialKernel, PowerLawFamily, materialize, pseudo_ladder
from .oracle import ODE_MAX, aberth_roots, build_mode_system, match_roots
from .pencil import POLY_MAX, ModePencil, to_polynomial
from .solve import SpectrumResult, solve_mode

#: Cross-validation threshold shared by verify and oracle-check rows.
ORACLE_TOL = 1e-8

@dataclass(frozen=True)
class JobConfig:
    """Validated, defaults-filled job description.

    ``kernel`` is None exactly when the config used the power-law family
    form; jobs materialize the ladder on demand so that prediction-only
    runs never build a million-term kernel. ``ladder`` keeps the geometric
    form (a_min/factor/count) when that form was used, for the echo block
    and for sweep's precondition.
    """

    job: str
    kernel: ExponentialKernel | None
    family: PowerLawFamily | None
    xi: float
    modes: tuple[float, ...]
    ladder: dict | None
    residual_tol: float
    output: str | None


# --------------------------------------------------------------------------
# strict config parsing


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _kind_name(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return "null"


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected object, got {_kind_name(value)}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected number, got {_kind_name(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer past the double range
        out = math.inf
    if not math.isfinite(out):
        _fail(path, "must be finite")
    return out


def _as_positive(value, path: str) -> float:
    out = _as_number(value, path)
    if out <= 0.0:
        _fail(path, "must be positive")
    return out


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected integer, got {_kind_name(value)}")
    return value


def _as_string(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected string, got {_kind_name(value)}")
    return value


def _check_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    for key in sorted(obj):
        if key not in required and key not in optional:
            _fail(path, f"unknown key '{key}'")
    for key in sorted(required):
        if key not in obj:
            _fail(path, f"missing required key '{key}'")


def _parse_positive_array(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        _fail(path, f"expected array, got {_kind_name(value)}")
    if not value:
        _fail(path, "must not be empty")
    return tuple(_as_positive(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_kernel(node, path: str) -> tuple[ExponentialKernel | None, PowerLawFamily | None]:
    obj = _as_object(node, path)
    explicit = ("coeffs" in obj) or ("rates" in obj)
    if explicit and "family" in obj:
        _fail(path, "exactly one kernel form allowed: coeffs/rates or family")
    if "family" in obj:
        _check_keys(obj, path, {"family"})
        fam = _as_object(obj["family"], f"{path}.family")
        _check_keys(fam, f"{path}.family", {"amplitude", "scale", "alpha", "beta", "count"})
        try:
            family = PowerLawFamily(
                amplitude=_as_positive(fam["amplitude"], f"{path}.family.amplitude"),
                scale=_as_positive(fam["scale"], f"{path}.family.scale"),
                alpha=_as_positive(fam["alpha"], f"{path}.family.alpha"),
                beta=_as_positive(fam["beta"], f"{path}.family.beta"),
                count=_as_int(fam["count"], f"{path}.family.count"),
            )
        except ValueError as exc:
            _fail(f"{path}.family", str(exc))
        return None, family
    _check_keys(obj, path, {"coeffs", "rates"})
    coeffs = _parse_positive_array(obj["coeffs"], f"{path}.coeffs")
    rates = _parse_positive_array(obj["rates"], f"{path}.rates")
    try:
        kernel = ExponentialKernel(coeffs=coeffs, rates=rates)
    except ValueError as exc:
        _fail(path, str(exc))
    return kernel, None


def _parse_modes(node, path: str) -> tuple[tuple[float, ...], dict | None]:
    if isinstance(node, list):
        return _parse_positive_array(node, path), None
    if not isinstance(node, dict):
        _fail(path, f"expected array of frequencies or ladder object, got {_kind_name(node)}")
    _check_keys(node, path, {"a_min", "factor", "count"})
    a_min = _as_positive(node["a_min"], f"{path}.a_min")
    factor = _as_number(node["factor"], f"{path}.factor")
    if factor <= 1.0:
        _fail(f"{path}.factor", "must exceed 1")
    count = _as_int(node["count"], f"{path}.count")
    if count < 1:
        _fail(f"{path}.count", "must be at least 1")
    try:
        modes = tuple(a_min * factor**k for k in range(count))
    except OverflowError:  # factor**k past the double range
        modes = (math.inf,)
    if not math.isfinite(modes[-1]):
        _fail(path, "the largest frequency a_min * factor**(count-1) must be finite")
    return modes, {"a_min": a_min, "factor": factor, "count": count}


def parse_config(text: str, job: str) -> JobConfig:
    """Validate a JSON config document against the strict schema.

    Unknown keys anywhere are rejected, every error names the offending
    path, and an embedded "job" key must agree with the subcommand.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    obj = _as_object(doc, "config")
    _check_keys(obj, "config", {"kernel", "xi", "modes"}, {"job", "tolerances", "output"})

    if "job" in obj:
        declared = _as_string(obj["job"], "config.job")
        if declared not in JOB_KINDS:
            _fail("config.job", f"unknown job kind '{declared}'")
        if declared != job:
            _fail("config.job", f"config says '{declared}' but the subcommand is '{job}'")

    xi = _as_number(obj["xi"], "config.xi")
    if not 0.0 < xi < 1.0:
        _fail("config.xi", "xi must lie strictly inside (0,1)")

    kernel, family = _parse_kernel(obj["kernel"], "config.kernel")
    modes, ladder = _parse_modes(obj["modes"], "config.modes")

    residual_tol = RESIDUAL_TOL
    if "tolerances" in obj:
        tol = _as_object(obj["tolerances"], "config.tolerances")
        _check_keys(tol, "config.tolerances", set(), {"residual"})
        if "residual" in tol:
            residual_tol = _as_positive(tol["residual"], "config.tolerances.residual")

    output = _as_string(obj["output"], "config.output") if "output" in obj else None

    return JobConfig(
        job=job,
        kernel=kernel,
        family=family,
        xi=xi,
        modes=modes,
        ladder=ladder,
        residual_tol=residual_tol,
        output=output,
    )


# --------------------------------------------------------------------------
# output assembly


def _fmt(x: float) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0  # never print the sign of a negative zero
    return format(value, ".17g")


def _effective_config(cfg: JobConfig) -> str:
    if cfg.family is not None:
        kernel_spec = {
            "family": {
                "amplitude": cfg.family.amplitude,
                "scale": cfg.family.scale,
                "alpha": cfg.family.alpha,
                "beta": cfg.family.beta,
                "count": cfg.family.count,
            }
        }
    else:
        kernel_spec = {"coeffs": list(cfg.kernel.coeffs), "rates": list(cfg.kernel.rates)}
    modes_spec = dict(cfg.ladder) if cfg.ladder is not None else list(cfg.modes)
    effective = {
        "job": cfg.job,
        "kernel": kernel_spec,
        "modes": modes_spec,
        "tolerances": {"residual": cfg.residual_tol},
        "xi": cfg.xi,
    }
    return json.dumps(effective, sort_keys=True, separators=(", ", ": "))


def _table(cfg: JobConfig, columns: str, rows, footer=()) -> str:
    """The job's output: version and config header, ``columns``, ``rows``, ``footer`` lines."""
    lines = [f"# gpspectra {__version__}", f"# config {_effective_config(cfg)}", columns]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _family_ladder(build, family: PowerLawFamily, *args):
    """``build(family, *args)``; a ladder whose rates round together, or too long to allocate, is a config error."""
    try:
        return build(family, *args)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"config.kernel.family: materialized ladder refused: {exc}") from exc


def _pencils(cfg: JobConfig) -> list[ModePencil]:
    """One pencil per mode, all on the config's kernel, a family materialized whole."""
    kernel = cfg.kernel if cfg.kernel is not None else _family_ladder(materialize, cfg.family)
    return [ModePencil(frequency=a, xi=cfg.xi, kernel=kernel) for a in cfg.modes]


def _map_modes(solve, modes) -> list:
    """``solve(pencil, *args)`` for every ``(n, pencil, *args)`` of ``modes``, in order.

    A numerical failure is re-raised naming its mode ``n``.  The modes run
    one after another on the calling thread: a mode's work is a chain of
    short numpy calls, which threads did not overlap enough to gain from.
    """
    out = []
    for n, pencil, *args in modes:
        try:
            out.append(solve(pencil, *args))
        except NumericalError as exc:
            raise NumericalError(f"mode {n} (a_n={_fmt(pencil.frequency)}): {exc}") from exc
    return out


def _oracle_deviation(pencil: ModePencil, roots) -> tuple[float, np.ndarray]:
    """Largest relative deviation of ``roots`` from the polynomial oracle's, and the polynomial."""
    coeffs = to_polynomial(pencil)
    return match_roots(roots, aberth_roots(coeffs)).max_relative_deviation, coeffs


def _oracle_check_mode(pencil: ModePencil, residual_tol: float) -> tuple[float, float]:
    """Root deviation from the polynomial oracle and companion coefficient deviation."""
    result = solve_mode(pencil, residual_tol=residual_tol)
    root_dev, coeffs = _oracle_deviation(pencil, result.all_roots)
    if pencil.kernel.size + 2 <= ODE_MAX:
        companion = build_mode_system(pencil).char_coefficients()
        numeric = np.array([float(x) for x in coeffs])
        scale = np.maximum(1.0, np.abs(numeric))
        coeff_dev = float(np.max(np.abs(companion - numeric) / scale))
    else:
        coeff_dev = float("nan")
    return root_dev, coeff_dev


def _predictions(cfg: JobConfig) -> tuple[list, str]:
    """The pair's leading-term prediction at every mode, and the decay class of its kernel."""
    if cfg.family is not None:
        regime = classify_regime(cfg.xi, cfg.family.regularity)
        return [predict_power_law(a, cfg.xi, cfg.family) for a in cfg.modes], regime
    initial = cfg.kernel.initial_value
    return [predict_finite_sum(a, cfg.xi, initial) for a in cfg.modes], "tends_to_axis"


# --------------------------------------------------------------------------
# job runners: each returns (output text from _table, success flag)


def run_spectrum(cfg: JobConfig) -> tuple[str, bool]:
    """All roots of every mode, certified: N bracketed real branches plus the pair."""
    pencils = _pencils(cfg)
    results = _map_modes(
        lambda p: solve_mode(p, residual_tol=cfg.residual_tol),
        enumerate(pencils, start=1),
    )

    rows = []
    for n, (a, result) in enumerate(zip(cfg.modes, results), start=1):
        for branch in result.real_roots:
            lo, hi = branch.interval
            k = branch.index
            rows.append((n, a, cfg.xi, f"real_{k}", k, branch.value, 0.0, branch.residual, lo, hi))
        pair = result.pair_plus
        rows.append((n, a, cfg.xi, "pair", 0, pair.real, pair.imag, result.pair_residual, "", ""))
    print(f"gpspectra spectrum: {len(pencils)} mode(s) solved", file=sys.stderr)
    columns = "n,a_n,xi,kind,k,re,im,residual,interval_lo,interval_hi"
    return _table(cfg, columns, rows), True


def _mode_checks(
    pencil: ModePencil, result: SpectrumResult, residual_tol: float
) -> list[tuple[str, str, float]]:
    """(check, status, margin) rows for one solved mode."""
    a = pencil.frequency
    n = pencil.kernel.size
    rows: list[tuple[str, str, float]] = []

    margin = result.interlacing_margin
    rows.append(("interlacing", "pass" if margin > 0 else "fail", margin))

    rate_sum = math.fsum(pencil.kernel.rates)
    root_sum = math.fsum(b.value for b in result.real_roots) + 2.0 * result.pair_plus.real
    sum_dev = abs(root_sum + rate_sum) / max(1.0, rate_sum)
    rows.append(("vieta_sum", "pass" if sum_dev <= ORACLE_TOL else "fail", sum_dev))

    # product identity compared in log space so huge ladders cannot overflow;
    # only admitted modes get here, so log1p(-load) is finite
    lhs = math.fsum(math.log(abs(b.value)) for b in result.real_roots)
    lhs += 2.0 * math.log(abs(result.pair_plus))
    rhs = 2.0 * math.log(a) + math.fsum(math.log(g) for g in pencil.kernel.rates)
    rhs += math.log1p(-pencil.load)
    prod_dev = abs(lhs - rhs) / max(1.0, abs(rhs))
    rows.append(("vieta_product", "pass" if prod_dev <= ORACLE_TOL else "fail", prod_dev))

    # L(conj z) = conj L(z) bit for bit on a real kernel, so the lower root's
    # residual is the upper root's
    pair_res = result.pair_residual / pencil.frequency_squared
    rows.append(("conjugacy", "pass" if pair_res <= residual_tol else "fail", pair_res))

    # branch roots judged by their root-error gate, the pair by |L|/a**2
    worst = max([pair_res] + [b.relative_error for b in result.real_roots])
    rows.append(("residual", "pass" if worst <= residual_tol else "fail", worst))

    # the contour walk, independent of the solver's own counting certificate;
    # count_zeros refuses any defect of MAX_QUADRATURE_DEFECT or more
    cert = count_zeros(pencil, spectrum_contour(pencil))
    count_ok = cert.zeros_inferred == n + 2
    rows.append(("contour_count", "pass" if count_ok else "fail", cert.max_quadrature_defect))

    if n <= POLY_MAX:
        try:
            deviation, _ = _oracle_deviation(pencil, result.all_roots)
            rows.append(("oracle_match", "pass" if deviation <= ORACLE_TOL else "fail", deviation))
        except (GPSpectraError, ValueError):
            rows.append(("oracle_match", "fail", float("inf")))
    else:
        rows.append(("oracle_match", "skipped", float("nan")))
    return rows


def run_verify(cfg: JobConfig) -> tuple[str, bool]:
    """Structural checks with measured margins; success means zero failures.

    Modes are solved at the solver's own default residual target; the
    configured residual tolerance is what the report judges against, so a
    tightened tolerance shows up as a failed check rather than a crash.
    """
    # the theorem's gate, per mode: an overloaded mode is reported, not solved
    rows = []
    admitted = []
    for n, pencil in enumerate(_pencils(cfg), start=1):
        ok = not pencil.overloaded
        rows.append(("admissibility", f"mode_{n}", "pass" if ok else "fail", 1.0 - pencil.load))
        if ok:
            admitted.append((n, pencil))
        else:
            print(f"gpspectra verify: mode {n} is overloaded, not solved", file=sys.stderr)

    # the checks walk each mode's contour, so a failure there names its mode too
    checks = _map_modes(lambda p: _mode_checks(p, solve_mode(p), cfg.residual_tol), admitted)
    for (n, _), mode_rows in zip(admitted, checks):
        for check, status, margin in mode_rows:
            rows.append((check, f"mode_{n}", status, margin))
            if status == "fail":
                print(f"gpspectra verify: {check} failed for mode {n}", file=sys.stderr)
    failures = sum(status == "fail" for _, _, status, _ in rows)
    print(f"gpspectra verify: {len(rows) - failures}/{len(rows)} checks passed", file=sys.stderr)
    return _table(cfg, "check,scope,status,margin", rows), failures == 0


def run_sweep(cfg: JobConfig) -> tuple[str, bool]:
    """Numeric pair against its asymptotic prediction along a ladder.

    Requires the geometric ladder form with at least four points; only the
    oscillatory pair is computed (no real-branch sweep), so large kernels
    stay affordable: every mode of a family solves on the family's one
    pseudo-ladder, a few hundred poles whatever the count, and its end
    corrections (see ``pseudo_ladder``), which travel beside the mode's
    pencil into the gate and the pair solve.  Every pair comes from
    :func:`fixed_point_pair` with its proven disc, as ``spectrum``'s does,
    the corrections' error bound included, so an overdamped mode is refused
    rather than printed with a real root for its pair, and so is a mode
    whose iterate lies where that bound is not small.  An overloaded mode
    is refused before its pair solve, by the gate of the branch solve
    (:meth:`ModePencil.check_load`).  Footer rows carry the fitted log-log
    error slopes.
    """
    if cfg.ladder is None or len(cfg.modes) < 4:
        raise ConfigError("config.modes: sweep requires a geometric ladder with at least 4 points")
    if cfg.family is not None:
        kernel, ends = _family_ladder(pseudo_ladder, cfg.family)
    else:
        kernel, ends = cfg.kernel, None
    modes = [(n, ModePencil(frequency=a, xi=cfg.xi, kernel=kernel)) for n, a in enumerate(cfg.modes, start=1)]

    def pair(p: ModePencil) -> complex:
        p.check_load(ends)
        return fixed_point_pair(p, residual_tol=cfg.residual_tol, ends=ends).plus

    numeric = _map_modes(pair, modes)

    predictions, regime = _predictions(cfg)

    rows = []
    for a, z, pred in zip(cfg.modes, numeric, predictions):
        w = pred.value
        err = z - w
        rows.append((a, z.real, z.imag, w.real, w.imag, abs(err.real), abs(err.imag), regime))
    a_n, *_, err_re, err_im, _ = zip(*rows)
    footer = []
    for name, errors in (("err_re", err_re), ("err_im", err_im)):
        try:
            fit = empirical_order(list(zip(a_n, errors)))
        except ValueError as exc:
            raise ConfigError(f"config.modes: {exc}") from exc
        footer.append(
            f"# fit {name} slope {_fmt(fit.slope)} half_width {_fmt(fit.half_width)}"
            f" below_floor {int(fit.below_floor)}"
        )
    print(f"gpspectra sweep: {len(modes)} mode(s) swept", file=sys.stderr)
    columns = "a_n,numeric_re,numeric_im,predicted_re,predicted_im,err_re,err_im,regime"
    return _table(cfg, columns, rows, footer), True


def run_oracle_check(cfg: JobConfig) -> tuple[str, bool]:
    """Solver roots vs. simultaneous-iteration roots of the cleared polynomial.

    Also rebuilds the polynomial from the first-order companion system when
    the dimension allows, as an independent coefficient check.
    """
    # a family's size is its count, capped before anything is materialized
    size = cfg.kernel.size if cfg.kernel is not None else cfg.family.count
    if size > POLY_MAX:
        raise ConfigError(
            f"config.kernel: ladder size {size} exceeds polynomial oracle cap {POLY_MAX}"
        )
    pencils = _pencils(cfg)
    deviations = _map_modes(
        lambda p: _oracle_check_mode(p, cfg.residual_tol), enumerate(pencils, start=1)
    )

    rows = []
    for n, (a, (root_dev, coeff_dev)) in enumerate(zip(cfg.modes, deviations), start=1):
        ok = root_dev <= ORACLE_TOL and not coeff_dev > ORACLE_TOL
        rows.append((n, a, root_dev, coeff_dev, "pass" if ok else "fail"))
        if not ok:
            print(f"gpspectra oracle-check: mode {n} deviates", file=sys.stderr)
    print(f"gpspectra oracle-check: {len(rows)} mode(s) compared", file=sys.stderr)
    columns = "n,a_n,root_deviation,coeff_deviation,status"
    return _table(cfg, columns, rows), all(row[-1] == "pass" for row in rows)


def run_asymptote(cfg: JobConfig) -> tuple[str, bool]:
    """Leading-term predictions and regime tags only — nothing is solved.

    Useful for mapping where a family's pair is headed before paying for a
    numeric sweep; remainder columns state the declared error exponents.
    """
    predictions, regime = _predictions(cfg)

    rows = []
    for n, (a, p) in enumerate(zip(cfg.modes, predictions), start=1):
        w = p.value
        order_im = math.nan if p.imag_remainder_order is None else p.imag_remainder_order
        rows.append(
            (n, a, cfg.xi, p.regime_tag, regime, w.real, w.imag, p.remainder_order, order_im)
        )
    print(f"gpspectra asymptote: {len(rows)} prediction(s)", file=sys.stderr)
    columns = "n,a_n,xi,regime_tag,decay_class,predicted_re,predicted_im,order_re,order_im"
    return _table(cfg, columns, rows), True


#: every job: its runner and its ``--help`` line, in the order help lists them
_JOBS = {
    "spectrum": (run_spectrum, "solve every mode and list all roots"),
    "verify": (run_verify, "run structural checks and report margins"),
    "sweep": (run_sweep, "compare the pair against its asymptotic prediction"),
    "oracle-check": (run_oracle_check, "cross-validate roots against the polynomial oracle"),
    "asymptote": (run_asymptote, "emit predictions and regime tags without solving"),
}

JOB_KINDS = tuple(_JOBS)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gpspectra",
        description="Spectra of second-order modes with exponential-sum memory damping.",
    )
    sub = parser.add_subparsers(dest="job", required=True, metavar="JOB")
    for name, (_, help_line) in _JOBS.items():
        job = sub.add_parser(name, help=help_line)
        job.add_argument("--config", required=True, help="path to the JSON job config")
        job.add_argument("--out", help="output path (overrides the config's output key)")
        job.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; modes always run in order (default 1)",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config} ({exc})") from exc
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        cfg = parse_config(text, args.job)
        output, ok = _JOBS[args.job][0](cfg)
        destination = args.out or cfg.output
        if destination:
            try:
                Path(destination).write_text(output, encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write {destination} ({exc})") from exc
            print(f"gpspectra: wrote {destination}", file=sys.stderr)
        else:
            sys.stdout.write(output)
    except ConfigError as exc:
        print(f"gpspectra: config error: {exc}", file=sys.stderr)
        return 2
    except GPSpectraError as exc:
        print(f"gpspectra: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
