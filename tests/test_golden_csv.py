"""CLI output is byte-identical to the committed golden CSVs.

Each ``tests/data/<config>-<job>.csv`` was written by
``gpspectra <job> --config tests/data/<config>.json --out <file>``.  The
configs are the a=10 cubic, CLUSTER_TWELVE at a = 10, at its pool frequency
and at 3e5 (see conftest.py), and a six-mode ladder a = 3 * 10**j on
PINCHED_FIVE.  A refactor that moves any printed digit fails here; a change
that means to move one regenerates the file with the command above and
says why.
"""

from pathlib import Path

import pytest

from gpspectra.cli import main

DATA = Path(__file__).with_name("data")

GOLDEN = [
    ("cubic", "spectrum"),
    ("cubic", "verify"),
    ("cubic", "oracle-check"),
    ("cluster_twelve", "spectrum"),
    ("cluster_twelve", "verify"),
    ("cluster_twelve", "oracle-check"),
    ("pinched_five_ladder", "sweep"),
]


@pytest.mark.parametrize(("config", "job"), GOLDEN, ids=[f"{c}-{j}" for c, j in GOLDEN])
def test_cli_csv_matches_the_golden_file(config, job, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([job, "--config", str(DATA / f"{config}.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"{config}-{job}.csv").read_bytes()
