"""The walkthrough scripts in demos/ run to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["fractal_nets.py", "finite_field_distances.py", "threshold_sweep.py", "extremal_numbers.py"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
