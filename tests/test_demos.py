"""Smoke test: every demo runs start to finish in-process.

Each runs from a fresh working directory, so demo 04's ./demo_out lands
there and not in the repository.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_autodiff_and_gradients",
        "02_slot_attention_binding",
        "03_walk_losses",
        "04_train_and_segment",
        "05_metrics_tour",
    ],
)
def test_demo_runs(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
