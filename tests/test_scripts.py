"""Smoke tests of the scripts in scripts/, each main() run in process at a small size."""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest
from test_report_digests import DIGESTS

from wyinfo.curvature import scal1_shift
from wyinfo.suites import SUITES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/<name>.py as a module, main() not run."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, monkeypatch, capsys):
    """(return value of main(), stdout) of scripts/<name>.py run with the given arguments."""
    module = load_script(name)
    monkeypatch.setattr("sys.argv", [f"{name}.py", *argv])
    code = module.main()
    return code, capsys.readouterr().out


def test_selfduality_scan_passes_only_half(monkeypatch, capsys):
    _, out = run_script("selfduality_scan", ["--points", "7"], monkeypatch, capsys)
    header, _, *rows = out.splitlines()
    assert "loewner-margin" in header.split()
    assert [float(r.split()[0]) for r in rows] == [-1.0, -0.5, 0.5, 1.5, 2.0]
    assert [float(r.split()[0]) for r in rows if r.endswith("<-- passes")] == [0.5]
    # the last number of a row is the symmetry residual dual_pair_check reports
    assert header.split()[-2] == "sym-residual"
    residuals = {float(r.split()[0]): float(r.split()[5]) for r in rows}
    assert residuals.pop(0.5) <= 1e-9
    assert min(residuals.values()) >= 1e-2


def test_curvature_table_wy_column_is_constant(monkeypatch, capsys):
    _, out = run_script("curvature_table", ["--dims", "2", "--trials", "2"], monkeypatch, capsys)
    header, _, row = out.splitlines()
    assert header.split()[2] == "wy"
    n, constant = row.split()[:2]
    assert float(constant) == pytest.approx(scal1_shift(int(n)))
    wy_min, wy_max = map(float, re.search(r"\[\s*(\S+),\s*(\S+)\]", row).groups())
    assert wy_min == wy_max == pytest.approx(scal1_shift(2))


def test_verify_all_fast_passes_every_suite(monkeypatch, capsys):
    code, out = run_script("verify_all", [], monkeypatch, capsys)
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.split()[0] in SUITES]
    assert [r[0] for r in rows] == list(SUITES)
    assert all(r[1] == "ok" for r in rows)
    # the script's digests are those of `wyinfo verify`'s stdout, pinned at seed 0
    assert {r[0]: r[3] for r in rows} == DIGESTS[0]
    # the worst check is the row nearest its bound: 2.86 of pi
    assert {r[0]: r[4] for r in rows}["distance-bound"] == "distance-bound:"
    # relative rows read against tolerance |expected|: 7.3e-14 off 14 is 5.2e-9 of its
    # allowance, more than n = 2's 4.2e-15 off 1.5 (2.8e-9) and n = 4's 6.4e-14 off
    # 52.5 (1.2e-9); the relative rule itself is pinned by the row-kind test below
    assert {r[0]: r[4] for r in rows}["wy-curvature"] == "scal1-constant-n3:"
    assert out.splitlines()[-1] == "all suites passed"


@pytest.mark.parametrize("check, share", [
    ({"expected": 52.5, "actual": 52.5 + 2.625e-5, "tolerance": 1e-6, "pass": True}, 0.5),
    ({"expected": 0.0, "actual": -2e-13, "tolerance": 1e-12, "pass": True}, 0.2),
    ({"expected": 1e-4, "actual": 2.5e-5, "tolerance": 1e-4, "pass": True}, 0.25),
    ({"expected": 1e-2, "actual": 40.0, "tolerance": 1e-2, "pass": True}, 2.5e-4),
    ({"expected": 0.5, "actual": float("nan"), "tolerance": 0.0, "pass": False}, math.inf),
], ids=["relative-closeness", "closeness-at-zero", "upper-bound", "lower-bound", "nan"])
def test_allowance_used_reads_each_row_kind(check, share):
    assert load_script("verify_all").allowance_used(check) == pytest.approx(share)


def _write_result(out_dir, workload, seed, pass_ref, trace=0):
    out_dir.mkdir(exist_ok=True)
    result = {"workload": workload, "seed": seed, "setup_s": 0.2, "pass_ref": pass_ref,
              "op_p50_ref": pass_ref / 10, "peak_rss_mb": 42.0, "attempted": 20, "failed": 0}
    if trace:
        result["layers"] = {"lapack.eigh_calls": int(pass_ref)}
    (out_dir / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_bench_json_pairs_runs_by_workload_and_seed(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((1, 100.0, 80.0), (2, 120.0, 90.0), (3, 110.0, 115.0)):
        _write_result(parent, "verify-suites", seed, before)
        _write_result(change, "verify-suites", seed, after)
    _write_result(parent, "verify-suites", 4, 1.0)  # no partner: left out
    _write_result(change, "cli-oneshot", 1, 1.0, trace=1)  # traced, no partner: left out
    _write_result(parent, "verify-suites", 5, 1254.0, trace=1)
    _write_result(change, "verify-suites", 5, 1101.0, trace=1)
    bench_file = tmp_path / "BENCH_1.json"
    code, _ = run_script("bench_json", [str(parent), str(change), str(bench_file),
                                        "--parent-commit", "abc123"], monkeypatch, capsys)
    assert code == 0
    bench = json.loads(bench_file.read_text())
    assert bench["parent_commit"] == "abc123"
    assert list(bench["workloads"]) == ["verify-suites"]
    entry = bench["workloads"]["verify-suites"]
    assert entry["seeds"] == [1, 2, 3]
    assert entry["runs"][0]["change"]["pass_ref"] == 80.0
    summary = entry["summary"]["pass_ref"]
    assert summary["parent"]["median"] == 110.0
    assert summary["change"]["median"] == 90.0
    assert (summary["change_wins"], summary["pairs"]) == (2, 3)
    assert set(entry["summary"]) == {"setup_s", "pass_ref", "op_p50_ref", "peak_rss_mb"}
    assert entry["traced"] == [{"seed": 5, "parent": {"lapack.eigh_calls": 1254},
                                "change": {"lapack.eigh_calls": 1101}}]
