"""Every demo script and README ``python`` block runs to completion."""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_are_found():
    # an empty parametrize list would only skip
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, monkeypatch, capsys):
    # the demos parse their own command line; give them none
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_blocks_are_found():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(README_BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out.strip()
