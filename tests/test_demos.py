"""Smoke test: every demo script runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    # demos write their output files into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
