"""Smoke test: the quick demos run to completion against the current API.

Demos 03 and 06 are left out: each takes several times as long as these
four together.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_irreps_and_harmonics", "02_local_frames",
                                  "04_so2_operations", "05_hamiltonian_pipeline"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
