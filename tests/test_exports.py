"""The README's list of what is reachable from Python is what the package exports."""

import re
from pathlib import Path

import gpspectra

README = Path(__file__).resolve().parents[1] / "README.md"


def _reachable_names() -> list[str]:
    """Every `name` in the README paragraph that lists what Python reaches."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Everything the CLI does is reachable from Python")
    return re.findall(r"`(\w+)`", text[start : text.index("\n\n", start)])


def test_every_name_the_readme_lists_is_exported():
    names = _reachable_names()
    assert len(names) >= 20
    assert len(set(gpspectra.__all__)) == len(gpspectra.__all__)
    for name in gpspectra.__all__:
        assert hasattr(gpspectra, name), name
    for name in names:
        assert name in gpspectra.__all__, name
