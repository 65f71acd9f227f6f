"""CLI output is byte-identical to the committed golden CSVs.

Each ``tests/data/<config>-<job>.csv`` was written by
``gpspectra <job> --config tests/data/<config>.json --out <file>``.  The
configs are the a=10 cubic, CLUSTER_TWELVE at a = 10, at its pool frequency
and at 3e5 (see conftest.py), a six-mode ladder a = 3 * 10**j on
PINCHED_FIVE, and the 164415-term square-root family c_k = k**-1/2,
g_k = k on six modes from a = 100, whose sweep solves on its
pseudo-ladder.  Every job has a file; ``asymptote`` runs on the cubic and
the two ladders, and the family's imaginary remainder order prints
``nan``.  The PINCHED_FIVE ladder also runs ``spectrum``, ``verify`` and
``oracle-check``, which pins its branch roots down to 1e-13 from their
poles.  ``spectrum``, ``verify`` and ``oracle-check`` also run on the
50-term square-root family at a = 10, 90 and 810, where the polynomial
oracle works on degree-52 polynomials.  A refactor that moves any printed
digit fails here; a change that means to move one regenerates the file
with the command above and says why.
"""

import json
from pathlib import Path

import pytest

from gpspectra.cli import main

DATA = Path(__file__).with_name("data")
README = Path(__file__).parents[1] / "README.md"

#: (config, job) of every ``<config>-<job>.csv``; the job follows the first "-"
GOLDEN = [tuple(path.stem.split("-", 1)) for path in sorted(DATA.glob("*-*.csv"))]


@pytest.mark.parametrize(("config", "job"), GOLDEN, ids=[f"{c}-{j}" for c, j in GOLDEN])
def test_cli_csv_matches_the_golden_file(config, job, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([job, "--config", str(DATA / f"{config}.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"{config}-{job}.csv").read_bytes()


def test_the_readme_spectrum_example_prints_the_cubic_golden():
    # the README's minimal config is the cubic's, and its CLI example shows
    # that golden byte for byte, so the printed digits cannot go stale
    text = README.read_text(encoding="utf-8")
    config = text.split("A minimal config:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(config) == json.loads((DATA / "cubic.json").read_text(encoding="utf-8"))
    example = text.split("$ gpspectra spectrum --config job.json\n", 1)[1].split("```", 1)[0]
    assert example.encode("utf-8") == (DATA / "cubic-spectrum.csv").read_bytes()
