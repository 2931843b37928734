"""Smoke test: every demo runs start to finish in-process.

Each runs from a fresh working directory, so demo 04's ./demo_out lands
there and not in the repository.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
