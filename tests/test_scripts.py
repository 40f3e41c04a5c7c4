"""Smoke tests of the scripts in scripts/, each main() run in process at a small size."""

import importlib.util
import re
from pathlib import Path

import pytest

from wyinfo.curvature import scal1_shift
from wyinfo.suites import SUITES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    """(return value of main(), stdout) of scripts/<name>.py run with the given arguments."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [f"{name}.py", *argv])
    code = module.main()
    return code, capsys.readouterr().out


def test_selfduality_scan_passes_only_half(monkeypatch, capsys):
    _, out = run_script("selfduality_scan", ["--points", "7", "--trials", "20"],
                        monkeypatch, capsys)
    rows = out.splitlines()[2:]
    assert [float(r.split()[0]) for r in rows] == [-1.0, -0.5, 0.5, 1.5, 2.0]
    assert [float(r.split()[0]) for r in rows if r.endswith("<-- passes")] == [0.5]


def test_curvature_table_wy_column_is_constant(monkeypatch, capsys):
    _, out = run_script("curvature_table", ["--dims", "2", "--trials", "2"], monkeypatch, capsys)
    header, _, row = out.splitlines()
    assert header.split()[2] == "wy"
    n, constant = row.split()[:2]
    assert float(constant) == pytest.approx(scal1_shift(int(n)))
    wy_min, wy_max = map(float, re.search(r"\[\s*(\S+),\s*(\S+)\]", row).groups())
    assert wy_min == wy_max == pytest.approx(scal1_shift(2))


def test_verify_all_fast_passes_every_suite(monkeypatch, capsys):
    code, out = run_script("verify_all", ["--fast"], monkeypatch, capsys)
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.split()[0] in SUITES]
    assert [r[0] for r in rows] == list(SUITES)
    assert all(r[1] == "ok" for r in rows)
    assert out.splitlines()[-1] == "all suites passed"
