"""Smoke test: the quick demos run to completion against the current API.

Only demo 06 is left out: it takes several times as long as the others
together.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_irreps_and_harmonics", "02_local_frames",
                                  "03_escn_equivalence_and_cost", "04_so2_operations",
                                  "05_hamiltonian_pipeline"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
