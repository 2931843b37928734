"""Smoke test: the quick demos run start to finish in-process.

Demo 04 trains for minutes and writes ./demo_out, so it is left out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_autodiff_and_gradients", "02_slot_attention_binding", "03_walk_losses", "05_metrics_tour"],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
