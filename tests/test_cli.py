"""CLI contract: schema errors, exit codes, deterministic CSV output."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gpspectra
import gpspectra.cli
import gpspectra.complex_pair
import gpspectra.kernels
from gpspectra import (
    ContourError,
    ModePencil,
    NumericalError,
    PowerLawFamily,
    count_zeros,
    fixed_point_pair,
    materialize,
    pseudo_ladder,
)
from gpspectra.kernels import FSUM_MAX
from conftest import MU_1, OVERDAMPED_ONE, PAIR, WIDE_LADDERS


def _data_rows(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


# ----------------------------------------------------------------- spectrum


def test_spectrum_happy_path(run_cli, cubic_config):
    code, out, err = run_cli("spectrum", cubic_config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# gpspectra 0.1.0"
    assert lines[1].startswith("# config {")
    assert lines[2] == "n,a_n,xi,kind,k,re,im,residual,interval_lo,interval_hi"

    rows = _data_rows(out)[1:]
    assert len(rows) == 2
    real = rows[0].split(",")
    assert real[3] == "real_1" and real[4] == "1"
    assert float(real[5]) == pytest.approx(MU_1, abs=1e-12)
    assert float(real[6]) == 0.0
    assert (float(real[8]), float(real[9])) == (-2.0, 0.0)
    pair = rows[1].split(",")
    assert pair[3] == "pair" and pair[8] == "" and pair[9] == ""
    assert float(pair[5]) == pytest.approx(PAIR.real, abs=1e-12)
    assert float(pair[6]) == pytest.approx(PAIR.imag, abs=1e-10)
    assert "1 mode(s) solved" in err


def test_spectrum_reruns_are_byte_identical(run_cli, cubic_config):
    first = run_cli("spectrum", cubic_config)
    second = run_cli("spectrum", cubic_config)
    assert first == second


def test_out_flag_writes_the_same_bytes(run_cli, cubic_config, tmp_path):
    _, streamed, _ = run_cli("spectrum", cubic_config)
    target = tmp_path / "result.csv"
    code, out, err = run_cli("spectrum", cubic_config, "--out", str(target))
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    assert target.read_text(encoding="utf-8") == streamed


@pytest.mark.parametrize("route", ["flag", "config"])
def test_an_unwritable_output_path_is_a_config_error(run_cli, cubic_config, tmp_path, route):
    target = tmp_path / "absent" / "result.csv"
    if route == "flag":
        code, out, err = run_cli("spectrum", cubic_config, "--out", str(target))
    else:
        code, out, err = run_cli("spectrum", dict(cubic_config, output=str(target)))
    assert code == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 2  # the progress line, then the error
    assert err.splitlines()[-1].startswith(f"gpspectra: config error: cannot write {target} (")


def test_table_cell_rule(cubic_config):
    # strings and ints print as they are; other numbers at 17 digits, a negative zero unsigned
    cfg = gpspectra.cli.parse_config(json.dumps(cubic_config), "spectrum")
    row = (12, "real_12", "", 0.1, -0.0, math.nan)
    text = gpspectra.cli._table(cfg, "a,b,c,d,e,f", [row], ["# end"])
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "# gpspectra 0.1.0" and lines[1].startswith("# config {")
    assert lines[2:] == ["a,b,c,d,e,f", "12,real_12,,0.10000000000000001,0,nan", "# end"]


@pytest.mark.parametrize("job", ["spectrum", "verify", "oracle-check", "sweep"])
def test_parallel_output_matches_serial(run_cli, cubic_config, job):
    config = dict(cubic_config, modes={"a_min": 10.0, "factor": 10.0, "count": 4})
    _, serial, _ = run_cli(job, config)
    code, parallel, _ = run_cli(job, config, "--jobs", "3")
    assert code == 0
    assert parallel == serial


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_numerical_failure_names_the_first_failing_mode(run_cli, cubic_config, jobs):
    config = dict(cubic_config, modes=[10.0, 20.0], tolerances={"residual": 1e-30})
    code, out, err = run_cli("spectrum", config, "--jobs", jobs)
    assert code == 3
    assert out == ""
    assert "numerical failure: mode 1 (a_n=10): " in err


# ------------------------------------------------------------ config errors


def test_xi_bound_message(run_cli, cubic_config):
    code, out, err = run_cli("spectrum", dict(cubic_config, xi=1.0))
    assert code == 2
    assert "xi must lie strictly inside (0,1)" in err
    assert out == ""


def test_config_error_catalogue(run_cli, cubic_config, tmp_path):
    both_forms = dict(
        cubic_config,
        kernel={"coeffs": [1.0], "rates": [2.0], "family": {}},
    )
    assert run_cli("spectrum", both_forms)[0] == 2

    assert run_cli("spectrum", dict(cubic_config, typo=1))[0] == 2
    assert run_cli("spectrum", dict(cubic_config, modes=[]))[0] == 2
    assert run_cli("spectrum", dict(cubic_config, modes=[-1.0]))[0] == 2

    ladder = dict(cubic_config, modes={"a_min": 10.0, "factor": 1.0, "count": 4})
    assert run_cli("spectrum", ladder)[0] == 2

    missing_xi = {k: v for k, v in cubic_config.items() if k != "xi"}
    assert run_cli("spectrum", missing_xi)[0] == 2


def test_invalid_json_and_missing_file(run_cli, cubic_config, tmp_path):
    from gpspectra.cli import main

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["spectrum", "--config", str(broken)]) == 2
    assert main(["spectrum", "--config", str(tmp_path / "absent.json")]) == 2


def test_overflowing_family_is_a_config_error(run_cli):
    family = {"amplitude": 1, "scale": 1, "alpha": 0.5, "beta": 200, "count": 100}
    code, out, err = run_cli("spectrum", {"kernel": {"family": family}, "xi": 0.5, "modes": [10.0]})
    assert code == 2
    assert out == ""
    assert err == (
        "gpspectra: config error: config.kernel.family: "
        "the largest rate scale * count**beta must be finite\n"
    )


#: families that pass their own checks but whose materialized rates collide:
#: a subnormal scale rounds neighbouring rates to one double, and so does
#: beta = 1e-12 from about k = 4500 on
COLLIDING_FAMILIES = {
    "subnormal_scale": {
        "amplitude": 1e-300, "scale": 5e-324, "alpha": 0.5, "beta": 0.75, "count": 10
    },
    "tiny_beta": {"amplitude": 1, "scale": 1, "alpha": 1, "beta": 1e-12, "count": 100000},
}


@pytest.mark.parametrize("family", COLLIDING_FAMILIES.values(), ids=COLLIDING_FAMILIES.keys())
@pytest.mark.parametrize(
    ("job", "modes"), [("spectrum", [10.0]), ("sweep", {"a_min": 10.0, "factor": 10.0, "count": 4})]
)
def test_colliding_family_rates_are_a_config_error(run_cli, family, job, modes):
    code, out, err = run_cli(job, {"kernel": {"family": family}, "xi": 0.5, "modes": modes})
    assert code == 2
    assert out == ""
    assert err == (
        "gpspectra: config error: config.kernel.family: "
        "materialized ladder refused: rates must be strictly increasing\n"
    )


#: a family whose arrays would take 8 PB each: no process can address
#: that, so the allocation is refused at once and no memory is touched
UNALLOCATABLE_FAMILY = {"amplitude": 1, "scale": 1, "alpha": 0.5, "beta": 1, "count": 10**15}


@pytest.mark.parametrize("job", ("spectrum", "verify", "oracle-check"))
def test_a_family_too_long_to_materialize_is_a_config_error(run_cli, job):
    code, out, err = run_cli(job, {"kernel": {"family": UNALLOCATABLE_FAMILY}, "xi": 0.5, "modes": [10.0]})
    assert code == 2 and out == ""
    if job == "oracle-check":
        assert err == (
            "gpspectra: config error: config.kernel: "
            "ladder size 1000000000000000 exceeds polynomial oracle cap 64\n"
        )
    else:
        assert err.startswith("gpspectra: config error: config.kernel.family: materialized ladder refused: ")


def test_oracle_check_refuses_a_long_family_before_materializing_it(run_cli, monkeypatch):
    materialized = []
    monkeypatch.setattr(gpspectra.cli, "materialize", materialized.append)
    family = {"amplitude": 1, "scale": 1, "alpha": 0.5, "beta": 1, "count": 100}
    code, out, err = run_cli("oracle-check", {"kernel": {"family": family}, "xi": 0.5, "modes": [10.0]})
    assert code == 2 and out == "" and materialized == []
    assert err == "gpspectra: config error: config.kernel: ladder size 100 exceeds polynomial oracle cap 64\n"


def test_quadrature_tolerance_is_an_unknown_key(run_cli, cubic_config):
    # no job reads a quadrature tolerance, so a config that sets one is refused
    for value in (1e-3, 0.0):
        tolerances = {"residual": 1e-10, "quadrature": value}
        code, out, err = run_cli("spectrum", dict(cubic_config, tolerances=tolerances))
        assert code == 2 and out == ""
        assert err == "gpspectra: config error: config.tolerances: unknown key 'quadrature'\n"


@pytest.mark.parametrize("job", ["spectrum", "asymptote"])
@pytest.mark.parametrize(
    "ladder",
    [{"a_min": 1, "factor": 2, "count": 2000}, {"a_min": 1e300, "factor": 1e10, "count": 2}],
    ids=["power_overflows", "product_overflows"],
)
def test_overflowing_mode_ladder_is_a_config_error(run_cli, cubic_config, job, ladder):
    code, out, err = run_cli(job, dict(cubic_config, modes=ladder))
    assert code == 2 and out == ""
    assert err == (
        "gpspectra: config error: config.modes: "
        "the largest frequency a_min * factor**(count-1) must be finite\n"
    )


def test_an_integer_past_the_double_range_is_a_config_error(run_cli, cubic_config):
    # json reads it as an exact int, which float() refuses with OverflowError
    code, out, err = run_cli("spectrum", dict(cubic_config, modes=[10**400]))
    assert code == 2 and out == ""
    assert err == "gpspectra: config error: config.modes[0]: must be finite\n"


@pytest.mark.parametrize(
    "change,message",
    [
        ({"xi": "0.5"}, "config.xi: expected number, got string"),
        ({"xi": {}}, "config.xi: expected number, got object"),
        ({"kernel": [1.0]}, "config.kernel: expected object, got array"),
        ({"kernel": {"coeffs": [True], "rates": [2.0]}}, "config.kernel.coeffs[0]: expected number, got boolean"),
        ({"kernel": {"coeffs": None, "rates": [2.0]}}, "config.kernel.coeffs: expected array, got null"),
        ({"modes": "10"}, "config.modes: expected array of frequencies or ladder object, got string"),
        ({"modes": {"a_min": 10.0, "factor": 2.0, "count": 4.0}}, "config.modes.count: expected integer, got number"),
        ({"modes": {"a_min": 10.0, "factor": 2.0, "count": 0}}, "config.modes.count: must be at least 1"),
        ({"job": 1}, "config.job: expected string, got number"),
        ({"job": "spectra"}, "config.job: unknown job kind 'spectra'"),
        ({"output": 1}, "config.output: expected string, got number"),
        ({"kernel": {"coeffs": [1.0, 1.0], "rates": [2.0, 1.0]}}, "config.kernel: rates must be strictly increasing"),
        (None, "config: expected object, got array"),
    ],
)
def test_a_value_of_the_wrong_type_is_named_with_its_path(run_cli, cubic_config, change, message):
    config = [cubic_config] if change is None else dict(cubic_config, **change)
    code, out, err = run_cli("spectrum", config)
    assert (code, out) == (2, "")
    assert err == f"gpspectra: config error: {message}\n"


def test_embedded_job_key_must_agree(run_cli, cubic_config):
    code, _, err = run_cli("spectrum", dict(cubic_config, job="verify"))
    assert code == 2
    assert "subcommand" in err

    code, _, _ = run_cli("verify", dict(cubic_config, job="verify"))
    assert code == 0


# -------------------------------------------------------------------- verify


def test_verify_clean_kernel(run_cli, cubic_config):
    code, out, err = run_cli("verify", cubic_config)
    assert code == 0
    rows = _data_rows(out)
    assert rows[0] == "check,scope,status,margin"
    assert rows[1] == "admissibility,mode_1,pass,0.94999999999999996"  # 1 - w*sum c/g
    assert len(rows) == 9  # admissibility + 7 per-mode checks
    assert ",fail," not in out
    checks = {r.split(",")[0] for r in rows[2:]}
    assert checks == {
        "interlacing", "vieta_sum", "vieta_product", "conjugacy",
        "residual", "contour_count", "oracle_match",
    }
    assert "8/8 checks passed" in err


def test_verify_rejects_overloaded_kernel(run_cli, cubic_config):
    # sum c/g = 1.5: the load w*sum c/g is 1.5 at a=1, 0.15 at a=10
    kernel = {"coeffs": [1.0, 1.0], "rates": [1.0, 2.0]}
    config = dict(cubic_config, kernel=kernel, modes=[1.0, 10.0])
    code, out, err = run_cli("verify", config)
    assert code == 1
    rows = _data_rows(out)
    assert rows[1] == "admissibility,mode_1,fail,-0.5"
    assert rows[2].startswith("admissibility,mode_2,pass,")
    # only the overloaded mode goes unsolved
    assert len(rows) == 10
    assert {r.split(",")[1] for r in rows[3:]} == {"mode_2"}
    assert ",fail," not in "\n".join(rows[2:])
    assert "mode 1 is overloaded, not solved" in err
    assert "8/9 checks passed" in err


def test_verify_reports_an_overloaded_mode_instead_of_failing_numerically(run_cli, cubic_config):
    # c=1, g=2 at a=0.3: w*sum c/g = 0.5/0.3, so the mode is reported, not solved
    code, out, err = run_cli("verify", dict(cubic_config, modes=[0.3]))
    assert code == 1
    rows = _data_rows(out)
    assert len(rows) == 2
    assert rows[1].startswith("admissibility,mode_1,fail,-0.66666666666666")
    assert "numerical failure" not in err


def test_spectrum_names_an_overloaded_mode(run_cli, cubic_config):
    # c=1, g=2 at a=0.3: refused with its load before any root is sought
    code, out, err = run_cli("spectrum", dict(cubic_config, modes=[0.3]))
    assert code == 3
    assert out == ""
    assert "numerical failure: mode 1 (a_n=0.29999999999999999): mode is overloaded" in err
    assert "no sign change" not in err


@pytest.mark.parametrize("job", ["spectrum", "verify", "sweep", "oracle-check", "asymptote"])
def test_a_memory_weight_past_the_double_range_is_an_overloaded_mode(run_cli, cubic_config, job):
    # at a = 1e-160 and xi = 0.01, w = a**-1.98 is past the double range:
    # it reads as inf, as IEEE arithmetic gives it, so the mode is
    # overloaded and every job reports it rather than raise OverflowError
    modes = {"a_min": 1e-160, "factor": 10.0, "count": 4}
    code, out, err = run_cli(job, dict(cubic_config, xi=0.01, modes=modes))
    if job == "verify":
        assert code == 1
        assert _data_rows(out)[1] == "admissibility,mode_1,fail,-inf"
    elif job == "asymptote":
        assert code == 0
        assert _data_rows(out)[1].split(",")[5] == "-inf"
    else:
        assert code == 3 and out == ""
        assert err == (
            "gpspectra: numerical failure: mode 1 (a_n=9.9999999999999999e-161): "
            "mode is overloaded: load w*sum c/g = inf is not below 1\n"
        )


def test_a_pair_that_does_not_settle_names_its_mode(run_cli, cubic_config, monkeypatch):
    monkeypatch.setattr(gpspectra.complex_pair, "PAIR_MAX_PASSES", 1)
    code, out, err = run_cli("spectrum", cubic_config)
    assert code == 3 and out == ""
    assert err == (
        "gpspectra: numerical failure: mode 1 (a_n=10): "
        "pair iteration did not settle in 1 steps\n"
    )


@pytest.mark.parametrize("job", ["spectrum", "oracle-check", "sweep"])
def test_an_overdamped_mode_is_refused_not_printed_as_a_pair(run_cli, job):
    # the pair solve lands on the real root -0.95591 (im 4.4e-16), and its
    # disc refuses it, in sweep, which solves the pair alone, as in the
    # jobs that solve the whole mode.  ROADMAP item 3 will report
    # this mode as a classified overdamped row instead, and must update
    # this test.
    coeffs, rates, a, xi = OVERDAMPED_ONE
    modes = {"a_min": a, "factor": 10.0, "count": 4} if job == "sweep" else [a]
    config = {"kernel": {"coeffs": list(coeffs), "rates": list(rates)}, "xi": xi, "modes": modes}
    code, out, err = run_cli(job, config)
    assert code == 3
    assert out == ""
    assert "numerical failure: mode 1 (a_n=1.9968933769799135): pair disc" in err
    assert "the disc reaches the real axis" in err


@pytest.mark.parametrize("ladder", WIDE_LADDERS.values(), ids=WIDE_LADDERS.keys())
def test_verify_passes_the_wide_and_clustered_ladders(run_cli, ladder):
    coeffs, rates, a, xi = ladder
    config = {"kernel": {"coeffs": list(coeffs), "rates": list(rates)}, "xi": xi, "modes": [a]}
    code, out, err = run_cli("verify", config)
    assert code == 0, err
    assert "oracle_match,mode_1,pass," in out


@pytest.mark.parametrize("job,code", [("spectrum", 3), ("verify", 3), ("oracle-check", 3), ("asymptote", 0)])
def test_a_frequency_whose_square_overflows_is_a_numerical_failure(run_cli, job, code):
    # a**2 is past the double range at a = 1e155; asymptote never forms it
    config = {"kernel": {"coeffs": [1.0, 0.5, 0.25], "rates": [2.0, 5.0, 11.0]}, "xi": 0.5, "modes": [1e155]}
    got, out, err = run_cli(job, config)
    assert got == code, err
    if code == 3:
        assert out == ""
        assert err == (
            "gpspectra: numerical failure: mode 1 (a_n=1e+155): "
            "a**2 is past the double range at a = 1e+155\n"
        )


def test_a_root_on_its_pole_is_refused_by_name(run_cli):
    # w*c = 0.1 * 5e-324 underflows to 0, so both branch-1 roots round onto
    # the pole at -2: the job names the branch before any pass divides by
    # the offset, and no warning is raised on the way
    config = {"kernel": {"coeffs": [5e-324], "rates": [2.0]}, "xi": 0.5, "modes": [10.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("spectrum", config)
    assert code == 3
    assert out == ""
    assert err == (
        "gpspectra: numerical failure: mode 1 (a_n=10): "
        "branch 1 root of the symbol lies on its pole: offset 0.0 is not above 0\n"
    )


def test_verify_passes_the_thousand_term_power_law_ladder(run_cli):
    # sum c/g = zeta(5/2) > 1, but the mode's load w*sum c/g is 0.13
    family = {"amplitude": 1.0, "scale": 1.0, "alpha": 0.5, "beta": 2.0, "count": 1000}
    code, out, err = run_cli("verify", {"kernel": {"family": family}, "xi": 0.5, "modes": [10.0]})
    assert code == 0, err
    rows = _data_rows(out)
    assert rows[1].startswith("admissibility,mode_1,pass,0.86")
    assert [r.split(",")[2] for r in rows[1:]] == ["pass"] * 7 + ["skipped"]


def test_verify_unreachable_tolerance_fails_cleanly(run_cli, cubic_config):
    config = dict(cubic_config, tolerances={"residual": 1e-30})
    code, out, _ = run_cli("verify", config)
    assert code == 1
    assert "residual,mode_1,fail," in out
    # solving itself still happened: the interlacing margin is reported
    assert "interlacing,mode_1,pass," in out


# --------------------------------------------------------------------- sweep


def test_sweep_footer_carries_decay_slopes(run_cli, cubic_config):
    config = dict(cubic_config, modes={"a_min": 10.0, "factor": 10.0, "count": 4})
    code, out, _ = run_cli("sweep", config)
    assert code == 0
    footer = [ln for ln in out.splitlines() if ln.startswith("# fit ")]
    assert len(footer) == 2
    slopes = {ln.split()[2]: float(ln.split()[4]) for ln in footer}
    assert slopes["err_re"] <= -0.9
    assert slopes["err_im"] <= -0.9
    rows = _data_rows(out)[1:]
    assert len(rows) == 4
    assert all(r.endswith(",tends_to_axis") for r in rows)


def test_sweep_past_the_square_root_of_the_double_range_warns_nothing(run_cli):
    # (z + g)**2 overflows from |z| of about 1.3e154; the transform's slope
    # terms are formed as (c/(z + g))/(z + g), so no step overflows
    config = {
        "kernel": {"coeffs": [1.0, 0.5, 0.25], "rates": [2.0, 5.0, 11.0]},
        "xi": 0.5,
        "modes": {"a_min": 1e154, "factor": 10.0, "count": 4},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("sweep", config)
    assert code == 0, err
    rows = [row.split(",") for row in _data_rows(out)[1:]]
    assert len(rows) == 4
    for row in rows:
        values = [float(v) for v in row[:7]]
        assert all(math.isfinite(v) for v in values)
        assert values[1] < 0.0 and values[2] == values[0]  # damped, Im z = a


SQRT_FAMILY = {"amplitude": 1.0, "scale": 1.0, "alpha": 0.5, "beta": 1.0}

#: sweep output of the 64-term square-root family, which is summed whole,
#: so no end corrections enter it
FAMILY_64_SWEEP = """\
# gpspectra 0.1.0
# config {"job": "sweep", "kernel": {"family": {"alpha": 0.5, "amplitude": 1.0, "beta": 1.0, "count": 64, "scale": 1.0}}, "modes": {"a_min": 10.0, "count": 4, "factor": 10.0}, "tolerances": {"residual": 1e-10}, "xi": 0.5}
a_n,numeric_re,numeric_im,predicted_re,predicted_im,err_re,err_im,regime
10,-0.28583849709424169,9.7746159587064252,-0.3512407365520363,9.648759263447964,0.065402239457794609,0.12585669525846122,tends_to_axis
100,-0.067569775896797926,99.985252159175957,-0.11107207345395916,99.888927926546046,0.043502297557161229,0.096324232629910966,tends_to_axis
1000,-0.0072943703844333503,999.99982782133907,-0.035124073655203626,999.9648759263448,0.027829703270770275,0.034951894994264876,tends_to_axis
10000,-0.00073009652418227166,9999.9999982744575,-0.011107207345395916,9999.988892792655,0.010377110821213644,0.011105481802587747,tends_to_axis
# fit err_re slope -0.25925521127698758 half_width 0.085228743404577742 below_floor 0
# fit err_im slope -0.36032815880767144 half_width 0.12647737761436145 below_floor 0
"""


def _family_sweep_config(count: int, xi: float = 0.5) -> dict:
    return {
        "kernel": {"family": dict(SQRT_FAMILY, count=count)},
        "xi": xi,
        "modes": {"a_min": 100.0, "factor": 5.0, "count": 4},
    }


def test_family_sweep_matches_the_full_ladder(run_cli):
    # every mode solves on the 233-pole pseudo-ladder and its end corrections
    code, out, _ = run_cli("sweep", _family_sweep_config(10**5))
    assert code == 0
    full = materialize(PowerLawFamily(**SQRT_FAMILY, count=10**5))
    rows = _data_rows(out)[1:]
    assert [float(r.split(",")[0]) for r in rows] == [100.0, 500.0, 2500.0, 12500.0]
    for row in rows:
        a, re, im = (float(x) for x in row.split(",")[:3])
        reference = fixed_point_pair(ModePencil(a, 0.5, full)).plus
        assert abs(complex(re, im) - reference) <= 1e-12 * abs(reference)
        assert abs(re - reference.real) <= 1e-12 * abs(reference.real)


def test_family_sweep_output_does_not_depend_on_jobs(run_cli):
    config = _family_sweep_config(10**5, xi=0.8)
    code, serial, _ = run_cli("sweep", config)
    assert code == 0
    assert run_cli("sweep", config, "--jobs", "2")[1] == serial


def test_family_sweep_pairs_are_roots_of_the_whole_ladder(run_cli):
    # each mode sums the 269-pole pseudo-ladder plus its end corrections;
    # every pair must still be a root of the symbol of all 10^6 terms
    k = np.arange(1.0, 10**6 + 1.0)
    c, g = 1.0 / np.sqrt(k), k
    for xi in (0.5, 0.75, 0.8):
        code, out, _ = run_cli("sweep", _family_sweep_config(10**6, xi=xi))
        assert code == 0
        for row in _data_rows(out)[1:]:
            a, re, im = (float(x) for x in row.split(",")[:3])
            z = complex(re, im)
            residual = abs(z * z + a * a - a ** (2.0 * xi) * complex(np.sum(c / (z + g))))
            assert residual <= 1e-10 * a * a


def test_family_sweep_pairs_lie_within_ulps_of_the_long_double_root(run_cli):
    # one Newton step in long double from each printed pair, on every term
    # of the 10^6-term family, lands on its root: Re z is within 2.5 ulps
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    k = np.arange(1, 10**6 + 1, dtype=np.longdouble)
    c, g = 1 / np.sqrt(k), k
    for xi in (0.5, 0.75, 0.8):
        code, out, _ = run_cli("sweep", _family_sweep_config(10**6, xi=xi))
        assert code == 0
        for row in _data_rows(out)[1:]:
            a, re, im = (float(x) for x in row.split(",")[:3])
            z, a2 = np.clongdouble(complex(re, im)), np.longdouble(a) ** 2
            w = np.longdouble(a) ** (2 * np.longdouble(xi))
            shifted = z + g
            root = z - (z * z + a2 - w * np.sum(c / shifted)) / (2 * z + w * np.sum(c / shifted**2))
            assert abs(np.longdouble(re) - root.real) <= 2.5 * math.ulp(re), (xi, a)
            assert abs(np.longdouble(im) - root.imag) <= 2.5 * math.ulp(im), (xi, a)


def test_family_sweep_solves_every_mode_on_one_pseudo_ladder(run_cli, monkeypatch):
    # the family's first 63 poles are the one ladder materialized, and
    # every mode's pair solve sums the same 269-pole pseudo-ladder, where
    # heads for |z| <= 1.125 a_n summed 224 to 28124 terms
    materialized, solved = [], []
    materialize = gpspectra.kernels.materialize
    solve = gpspectra.cli.fixed_point_pair

    def materialize_spy(family):
        materialized.append(family.count)
        return materialize(family)

    def solve_spy(pencil, **kwargs):
        solved.append(pencil.kernel.size)
        return solve(pencil, **kwargs)

    monkeypatch.setattr(gpspectra.kernels, "materialize", materialize_spy)
    monkeypatch.setattr(gpspectra.cli, "fixed_point_pair", solve_spy)
    for xi in (0.5, 0.75, 0.8):
        materialized.clear()
        solved.clear()
        assert run_cli("sweep", _family_sweep_config(10**6, xi=xi))[0] == 0
        assert materialized == [FSUM_MAX - 1]
        assert solved == [269] * 4


def test_a_sweep_of_a_10_to_the_8_term_family_materializes_its_first_poles_only(run_cli, monkeypatch):
    # a head for |z| <= 1.125 a_n would hold 28124 terms at a = 12500, and
    # the whole ladder 10^8; the pseudo-ladder holds 63 of them, and its
    # size grows only like ln(count)
    materialized = []
    materialize = gpspectra.kernels.materialize

    def materialize_spy(family):
        materialized.append(family.count)
        return materialize(family)

    monkeypatch.setattr(gpspectra.kernels, "materialize", materialize_spy)
    code, out, err = run_cli("sweep", _family_sweep_config(10**8))
    assert code == 0, err
    assert materialized == [FSUM_MAX - 1] and max(materialized) <= FSUM_MAX
    assert len(_data_rows(out)) == 5


def test_a_mode_whose_pseudo_ladder_bound_is_not_small_is_refused(run_cli, monkeypatch):
    # the pass refuses by name where the end corrections cannot vouch for
    # the pseudo-ladder, as near the negative real axis; the mode is not
    # solved on some wider ladder but exits 3, naming its mode
    monkeypatch.setattr(gpspectra.kernels.EndCorrections, "bound", lambda self, z, s1, s2: (1.0, 1.0))
    code, out, err = run_cli("sweep", _family_sweep_config(10**6, xi=0.8))
    assert code == 3 and out == ""
    assert err.startswith(
        "gpspectra: numerical failure: mode 1 (a_n=100): the pseudo-ladder's error bound at z = 0+100j is not small: "
    )


#: a family overloaded at every mode of a = 100 .. 12500 at xi = 0.95, with
#: loads 8.1, 6.9, 5.8 and 5.0, which sweep reads off its pseudo-ladder and
#: end corrections
STRONG_FAMILY = {"amplitude": 3.0, "scale": 1.0, "alpha": 0.5, "beta": 0.75, "count": 20000}


def test_sweep_refuses_an_overloaded_family_at_its_first_mode(run_cli, monkeypatch):
    # the pseudo-ladder's load, its own terms plus the end corrections at
    # z = 0, is the whole ladder's: sweep refuses mode 1 as spectrum does,
    # before any pair solve
    solved = []
    solve = gpspectra.cli.fixed_point_pair

    def solve_spy(pencil, **kwargs):
        solved.append(pencil)
        return solve(pencil, **kwargs)

    monkeypatch.setattr(gpspectra.cli, "fixed_point_pair", solve_spy)
    config = {
        "kernel": {"family": STRONG_FAMILY},
        "xi": 0.95,
        "modes": {"a_min": 100.0, "factor": 5.0, "count": 4},
    }
    errors = []
    for job in ("spectrum", "sweep"):
        code, out, err = run_cli(job, config)
        assert code == 3 and out == ""
        errors.append(err)
    assert errors[0] == errors[1] == (
        "gpspectra: numerical failure: mode 1 (a_n=100): mode is overloaded: "
        "load w*sum c/g = 8.061278921920325 is not below 1\n"
    )
    assert solved == []


def test_an_explicit_kernel_mode_that_fails_is_not_solved_again(run_cli, monkeypatch):
    # a mode's first error is the job's: at a = 0.1 the load w*sum c/g is
    # 50 and the overload gate
    # refuses the mode before its pair is solved; at a = 1 the load is 0.5,
    # and a failing pair solve is raised as it is, not run again
    solved = []
    solve = gpspectra.cli.fixed_point_pair

    def solve_spy(pencil, **kwargs):
        solved.append(pencil)
        return solve(pencil, **kwargs)

    monkeypatch.setattr(gpspectra.cli, "fixed_point_pair", solve_spy)
    config = {
        "kernel": {"coeffs": [0.5], "rates": [0.1]},
        "xi": 0.5,
        "modes": {"a_min": 0.1, "factor": 10.0, "count": 4},
    }
    code, out, err = run_cli("sweep", config)
    assert code == 3 and out == ""
    assert "numerical failure: mode 1 (a_n=0.10000000000000001): mode is overloaded" in err
    assert solved == []

    def failing_solve(pencil, **kwargs):
        solved.append(pencil)
        raise NumericalError("the pair solve failed")

    monkeypatch.setattr(gpspectra.cli, "fixed_point_pair", failing_solve)
    config = {
        "kernel": {"coeffs": [0.5], "rates": [1.0]},
        "xi": 0.5,
        "modes": {"a_min": 1.0, "factor": 10.0, "count": 4},
    }
    code, out, err = run_cli("sweep", config)
    assert code == 3 and out == ""
    assert err == "gpspectra: numerical failure: mode 1 (a_n=1): the pair solve failed\n"
    assert [p.frequency for p in solved] == [1.0]


def test_sweep_names_an_overloaded_mode_as_spectrum_does(run_cli):
    # the whole 30-term ladder is summed, with no end corrections, so the
    # overload gate applies; its load at a = 1 is 1.86
    family = {"amplitude": 1, "scale": 1, "alpha": 0.75, "beta": 1, "count": 30}
    config = {"kernel": {"family": family}, "xi": 0.25, "modes": {"a_min": 1, "factor": 10, "count": 5}}
    errors = []
    for job in ("spectrum", "sweep"):
        code, out, err = run_cli(job, config)
        assert code == 3 and out == ""
        errors.append(err)
    assert errors[0] == errors[1] == (
        "gpspectra: numerical failure: mode 1 (a_n=1): mode is overloaded: "
        "load w*sum c/g = 1.8595922176397173 is not below 1\n"
    )


def _imported_by_the_cli(module: str) -> bool:
    src = Path(gpspectra.__file__).resolve().parents[1]
    probe = f"import sys, gpspectra.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, encoding="utf-8", env=env, check=True
    )
    return out.stdout.strip() == "True"


def test_the_cli_imports_no_thread_pool():
    assert not _imported_by_the_cli("concurrent.futures")


def test_the_cli_imports_no_polynomial_module():
    # the quadrature rule is a table of constants, so start-up skips numpy.polynomial
    assert not _imported_by_the_cli("numpy.polynomial")


def test_jobs_is_still_validated(run_cli, cubic_config):
    code, out, err = run_cli("spectrum", cubic_config, "--jobs", "0")
    assert code == 2 and out == ""
    assert "--jobs must be at least 1" in err


JOB_HELP = (
    ("spectrum", "solve every mode and list all roots"),
    ("verify", "run structural checks and report margins"),
    ("sweep", "compare the pair against its asymptotic prediction"),
    ("oracle-check", "cross-validate roots against the polynomial oracle"),
    ("asymptote", "emit predictions and regime tags without solving"),
)


def test_help_lists_the_five_jobs_in_order(capsys):
    with pytest.raises(SystemExit) as exit_info:
        gpspectra.cli.main(["--help"])
    assert exit_info.value.code == 0
    # argparse wraps to the terminal width, so compare with whitespace collapsed
    listed = " ".join(capsys.readouterr().out.split())
    assert " JOB " + " ".join(f"{name} {line}" for name, line in JOB_HELP) + " options:" in listed
    assert gpspectra.cli.JOB_KINDS == tuple(name for name, _ in JOB_HELP)


@pytest.mark.parametrize("job", [name for name, _ in JOB_HELP])
def test_each_job_has_its_own_help(capsys, job):
    with pytest.raises(SystemExit) as exit_info:
        gpspectra.cli.main([job, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gpspectra {job} [-h] --config CONFIG")


#: prints the pseudo-ladder's transform and slope at the pair points of a sweep to a=12500
_HEAD_PROBE = """
from gpspectra import PowerLawFamily, laplace_pass, pseudo_ladder
kern, ends = pseudo_ladder(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10**5))
for z in (-3.0 + 12500j, -0.2 + 100j, 1e4 - 1e4j):
    print(*(v.hex() for w in laplace_pass(kern, z, ends)[:2] for v in (w.real, w.imag)))
"""


def test_family_sweep_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the pseudo-ladder is summed in blocks with BLAS dot products, which
    # must not split across threads; the package loads OpenBLAS with one
    # thread only when the variable is unset, so the second run really has two
    family = PowerLawFamily(**SQRT_FAMILY, count=10**5)
    assert pseudo_ladder(family)[0].size > FSUM_MAX
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_family_sweep_config(10**5, xi=0.8)), encoding="utf-8")
    src = Path(gpspectra.__file__).resolve().parents[1]
    outputs = []
    for threads in (None, "2"):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        runs = [
            subprocess.run(
                [sys.executable, *argv], capture_output=True, encoding="utf-8", env=env, check=True
            ).stdout
            for argv in (
                ["-m", "gpspectra", "sweep", "--config", str(config)],
                ["-c", _HEAD_PROBE],
            )
        ]
        outputs.append(runs)
    assert outputs[0] == outputs[1]


def test_family_sweep_with_the_whole_ladder_as_head_is_unchanged(run_cli):
    config = {
        "kernel": {"family": dict(SQRT_FAMILY, count=64)},
        "xi": 0.5,
        "modes": {"a_min": 10.0, "factor": 10.0, "count": 4},
    }
    code, out, _ = run_cli("sweep", config)
    assert code == 0
    assert out == FAMILY_64_SWEEP


def test_sweep_requires_a_real_ladder(run_cli, cubic_config):
    short = dict(cubic_config, modes={"a_min": 10.0, "factor": 10.0, "count": 3})
    assert run_cli("sweep", short)[0] == 2
    explicit = dict(cubic_config, modes=[10.0, 100.0, 1000.0, 10000.0])
    assert run_cli("sweep", explicit)[0] == 2


def test_sweep_refuses_a_ladder_too_narrow_to_fit(run_cli, cubic_config):
    narrow = dict(cubic_config, modes={"a_min": 10, "factor": 1.5, "count": 4})
    code, out, err = run_cli("sweep", narrow)
    assert (code, out) == (2, "")
    assert err == "gpspectra: config error: config.modes: scales must span at least two decades\n"


# -------------------------------------------------------------- oracle-check


def test_oracle_check_cubic(run_cli, cubic_config):
    code, out, _ = run_cli("oracle-check", cubic_config)
    assert code == 0
    rows = _data_rows(out)
    assert rows[0] == "n,a_n,root_deviation,coeff_deviation,status"
    n, a, root_dev, coeff_dev, status = rows[1].split(",")
    assert (n, a, status) == ("1", "10", "pass")
    assert float(root_dev) < 1e-8
    assert float(coeff_dev) < 1e-8


def test_oracle_check_refuses_a_ladder_past_the_polynomial_cap(run_cli):
    rates = [float(k) for k in range(1, 66)]
    config = {"kernel": {"coeffs": [1e-3] * 65, "rates": rates}, "xi": 0.5, "modes": [10.0]}
    code, out, err = run_cli("oracle-check", config)
    assert (code, out) == (2, "")
    assert err == (
        "gpspectra: config error: config.kernel: ladder size 65 exceeds polynomial oracle cap 64\n"
    )


def test_oracle_check_fails_a_mode_whose_roots_deviate(run_cli, cubic_config, monkeypatch):
    aberth_roots = gpspectra.cli.aberth_roots

    def moved(coeffs):  # the oracle's first root, moved by 1e-6 relative
        roots = np.array(aberth_roots(coeffs))
        roots[0] *= 1.0 + 1e-6
        return roots

    monkeypatch.setattr(gpspectra.cli, "aberth_roots", moved)
    code, out, err = run_cli("oracle-check", cubic_config)
    assert code == 1
    assert _data_rows(out)[1].endswith(",fail")
    assert "gpspectra oracle-check: mode 1 deviates\n" in err


def test_verify_fails_the_oracle_row_when_the_oracle_raises(run_cli, cubic_config, monkeypatch):
    def failing_oracle(coeffs):
        raise NumericalError("the oracle did not converge")

    monkeypatch.setattr(gpspectra.cli, "aberth_roots", failing_oracle)
    code, out, err = run_cli("verify", cubic_config)
    assert code == 1
    assert "oracle_match,mode_1,fail,inf" in _data_rows(out)
    assert "gpspectra verify: oracle_match failed for mode 1\n" in err


def test_oracle_check_reports_a_failed_eigensolve(run_cli, cubic_config, monkeypatch):
    def failing_eigvals(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    code, out, err = run_cli("oracle-check", cubic_config)
    assert code == 3
    assert out == ""
    assert "numerical failure: mode 1 (a_n=10): companion eigenvalues failed" in err


def test_verify_names_the_mode_whose_contour_walk_fails(run_cli, cubic_config, monkeypatch):
    def failing_count(pencil, contour):
        if pencil.frequency > 10.0:
            raise ContourError("a root sits on the contour")
        return count_zeros(pencil, contour)

    monkeypatch.setattr(gpspectra.cli, "count_zeros", failing_count)
    code, out, err = run_cli("verify", dict(cubic_config, modes=[10.0, 20.0]))
    assert code == 3
    assert out == ""
    assert "numerical failure: mode 2 (a_n=20): a root sits on the contour" in err


# ----------------------------------------------------------------- asymptote


def test_asymptote_log_family(run_cli):
    config = {
        "kernel": {"family": {
            "amplitude": 1.0, "scale": 1.0, "alpha": 1.0, "beta": 1.0, "count": 10,
        }},
        "xi": 0.5,
        "modes": [100.0],
    }
    code, out, _ = run_cli("asymptote", config)
    assert code == 0
    rows = _data_rows(out)
    fields = rows[1].split(",")
    assert fields[3] == "power_r_eq_one"
    assert fields[4] == "tends_to_axis"
    assert float(fields[5]) == pytest.approx(-0.5 * math.log(100.0) / 100.0, rel=1e-14)
    assert float(fields[6]) == 100.0
    assert math.isnan(float(fields[8]))


def test_asymptote_finite_sum_orders(run_cli, cubic_config):
    code, out, _ = run_cli("asymptote", dict(cubic_config, xi=0.25))
    assert code == 0
    fields = _data_rows(out)[1].split(",")
    assert fields[3] == "finite_sum_xi_lt_half"
    assert float(fields[7]) == 1.5  # real remainder exponent 2(1-xi)
    assert float(fields[8]) == 0.5  # imag remainder exponent 1-2xi


# ------------------------------------------------------------------ parser


def test_the_parser_is_built_once_and_parses_alike_every_time(capsys):
    from gpspectra import cli

    assert cli._parser() is cli._parser()
    seen = []
    for argv in (["spectrum"], ["spectrum"], ["--help"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        seen.append((exc.value.code, capsys.readouterr()))
    assert seen[0] == seen[1] and seen[2] == seen[3]
    assert seen[0][0] == 2 and "--config" in seen[0][1].err
    assert seen[2][0] == 0 and "oracle-check" in seen[2][1].out
