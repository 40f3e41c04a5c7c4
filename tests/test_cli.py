import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import pullback_per_trial, save_matrix

from wyinfo import cli, matio
from wyinfo.errors import InvariantViolation
from wyinfo.geometry import wy_distance, wy_geodesic
from wyinfo.linalg import random_density, random_tangent
from wyinfo.suites import SUITES, default_config


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    # the child imports this checkout's wyinfo whether or not it is installed
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def run_cli(*argv):
    return run_python("-m", "wyinfo.cli", *argv)


def test_import_leaves_numpy_polynomial_unloaded():
    # path_length loads its Gauss-Legendre rule on first use, so a CLI child never pays that import
    code = "import sys, wyinfo, wyinfo.cli; print('numpy.polynomial' in sys.modules)"
    assert run_python("-c", code).stdout == "False\n"


def _loaded_modules(*argv):
    """The wyinfo submodules a CLI call has loaded by the time it returns."""
    code = ("import sys; from wyinfo import cli; cli.main(sys.argv[1:]); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('wyinfo.'))), "
            "file=sys.stderr)")
    res = run_python("-c", code, *argv)
    assert res.returncode == 0, res.stderr
    return set(res.stderr.split())


def test_import_wyinfo_loads_no_submodule():
    # a submodule still resolves as an attribute, loaded on that first use
    code = ("import sys, wyinfo; print([m for m in sys.modules if m.startswith('wyinfo.')]); "
            "print(wyinfo.suites.__name__)")
    assert run_python("-c", code).stdout == "[]\nwyinfo.suites\n"


@pytest.mark.parametrize("argv", [
    ["distance", "A", "B", "--metric", "wy"], ["metric-eval", "A", "X", "X"],
    ["divergence", "A", "B"], ["geodesic", "A", "B"], ["curvature", "A"]])
def test_a_command_never_loads_suites(state_files, tmp_path, argv):
    tangent = tmp_path / "x.json"
    save_matrix(tangent, np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex))
    files = {**dict(zip("AB", state_files)), "X": str(tangent)}
    assert "wyinfo.suites" not in _loaded_modules(*(files.get(arg, arg) for arg in argv))


@pytest.mark.parametrize("metric", ["wy", "bures"])
def test_distance_wy_loads_no_other_command_modules(state_files, metric):
    loaded = _loaded_modules("distance", *state_files, "--metric", metric)
    assert "wyinfo.geometry" in loaded
    assert not loaded & {"wyinfo.curvature", "wyinfo.divergence", "wyinfo.classical"}


@pytest.fixture
def state_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_matrix(a, np.diag([0.9, 0.1]).astype(complex))
    save_matrix(b, np.diag([0.1, 0.9]).astype(complex))
    return str(a), str(b)


# ---------------------------------------------------------------------------
# Matrix JSON interchange
# ---------------------------------------------------------------------------

def test_matio_roundtrip(tmp_path):
    rho = random_density(3, 0)
    path = tmp_path / "rho.json"
    save_matrix(path, rho)
    assert np.max(np.abs(matio.load_density(str(path)) - rho)) <= 1e-15


def test_matio_rejects_non_hermitian(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(InvariantViolation) as exc:
        matio.load_density(str(path))
    assert exc.value.invariant == "hermitian"


def test_matio_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(InvariantViolation) as exc:
        matio.load_density(str(path))
    assert exc.value.invariant == "schema"


@pytest.mark.parametrize("load, key, entry", [
    (matio.load_density, "re", "0.5"), (matio.load_tangent, "im", False),
    (matio.load_density, "re", 10**400)], ids=["str", "bool", "too-large"])
def test_matio_rejects_an_entry_that_is_not_a_json_number(tmp_path, load, key, entry):
    # numpy reads "0.5" as 0.5 and false as 0.0, so such a file would load;
    # 10**400 is a JSON number no float holds
    path = tmp_path / "bad.json"
    obj = {"n": 2, "re": [[0.5, 0.0], [0.0, -0.5]], "im": [[0, 0], [0, 0]]}
    obj[key][0][0] = entry
    path.write_text(json.dumps(obj))
    with pytest.raises(InvariantViolation) as exc:
        load(str(path))
    assert exc.value.invariant == "schema"


@pytest.mark.parametrize("command, key, entry", [
    ("distance", "re", ["0.5", "0"]), ("metric-eval", "im", [False, 0])])
def test_cli_rejects_an_entry_that_is_not_a_json_number(state_files, tmp_path, command, key,
                                                        entry):
    a, _ = state_files
    bad = tmp_path / "bad.json"
    obj = {"n": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}
    obj[key] = [entry, entry[::-1]]
    bad.write_text(json.dumps(obj))
    files = [str(bad), a] if command == "distance" else [a, str(bad), str(bad)]
    res = run_cli(command, *files)
    assert res.returncode == 2
    assert "schema" in res.stderr and res.stdout == ""


@pytest.mark.parametrize("n", [2.5, True, "2", 2.0])
def test_matio_rejects_a_non_integer_n(tmp_path, n):
    # int() would read 2.5 as 2 and true as 1, and 2.0 == 2, so grids of that size would load
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": n, "re": np.eye(int(n)).tolist(),
                                "im": np.zeros((int(n), int(n))).tolist()}))
    with pytest.raises(InvariantViolation) as exc:
        matio.load_density(str(path))
    assert exc.value.invariant == "schema"


def test_matio_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvariantViolation) as exc:
        matio.load_density(str(path))
    assert exc.value.invariant == "json"


def test_matio_tangent_loader(tmp_path):
    path = tmp_path / "t.json"
    save_matrix(path, random_tangent(3, 1))
    matio.load_tangent(str(path))
    save_matrix(path, np.eye(3))
    with pytest.raises(InvariantViolation):
        matio.load_tangent(str(path))


# ---------------------------------------------------------------------------
# distance / geodesic / curvature / metric-eval / divergence
# ---------------------------------------------------------------------------

def test_distance_wy(state_files):
    a, b = state_files
    res = run_cli("distance", a, b, "--metric", "wy")
    assert res.returncode == 0
    assert float(res.stdout) == pytest.approx(2.0 * math.acos(0.6), rel=1e-12)


def test_distance_identical_files(state_files):
    a, _ = state_files
    res = run_cli("distance", a, a)
    assert res.returncode == 0
    assert float(res.stdout) == pytest.approx(0.0, abs=1e-7)


def test_distance_bures(state_files):
    a, b = state_files
    res = run_cli("distance", a, b, "--metric", "bures")
    assert res.returncode == 0
    assert float(res.stdout) == pytest.approx(math.sqrt(0.8), rel=1e-12)


def test_distance_bhattacharyya(state_files):
    a, b = state_files
    res = run_cli("distance", a, b, "--metric", "bhattacharyya")
    assert res.returncode == 0
    assert float(res.stdout) == pytest.approx(2.0 * math.acos(0.6), rel=1e-12)


def test_distance_bhattacharyya_takes_any_density_the_loader_accepts(tmp_path):
    # the trace is 1 + 5e-11: inside the loader's 1e-10, outside the simplex's 1e-12
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    rho = np.diag([0.5 + 5e-11, 0.5]).astype(complex)
    save_matrix(a, rho)
    save_matrix(b, np.diag([0.5, 0.5]).astype(complex))
    save_matrix(c, np.diag([0.3, 0.7]).astype(complex))
    res = run_cli("distance", str(a), str(b), "--metric", "bhattacharyya")
    assert res.returncode == 0, res.stderr
    wy = run_cli("distance", str(a), str(b), "--metric", "wy")
    assert abs(float(res.stdout) - float(wy.stdout)) <= 1e-11
    # away from zero distance it is the wy distance of the renormalized state
    res = run_cli("distance", str(a), str(c), "--metric", "bhattacharyya")
    sigma = np.diag([0.3, 0.7]).astype(complex)
    assert abs(float(res.stdout) - wy_distance(rho / np.trace(rho).real, sigma)) <= 1e-11


@pytest.mark.parametrize("gap, want, rtol", [
    (1e-5, 1.9999950001293691e-05, 1e-6),  # 50-digit 2 arccos of the renormalized pair
    (1e-4, 1.9999995133330720e-04, 1e-8),
])
def test_distance_wy_renormalizes_near_coincident_states(tmp_path, gap, want, rtol):
    # rho's trace error of 5e-11 is inside the loader's 1e-10; unrenormalized
    # it reads as distance (1.41e-5 instead of 2.0e-5 at gap 1e-5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(a, np.diag([0.5 + 5e-11, 0.5]).astype(complex))
    save_matrix(b, np.diag([0.5 + gap, 0.5 - gap]).astype(complex))
    res = run_cli("distance", str(a), str(b), "--metric", "wy")
    assert res.returncode == 0, res.stderr
    assert abs(float(res.stdout) - want) <= rtol * want


def test_distance_json_flag(state_files):
    a, b = state_files
    res = run_cli("distance", a, b, "--json")
    payload = json.loads(res.stdout)
    assert payload["metric"] == "wy"
    assert payload["value"] == pytest.approx(2.0 * math.acos(0.6), rel=1e-12)


def test_distance_validation_failure_exit_2(tmp_path, state_files):
    a, _ = state_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "re": [[0.9, 0], [0, 0.2]], "im": [[0, 0], [0, 0]]}))
    res = run_cli("distance", a, str(bad))
    assert res.returncode == 2
    assert "unit-trace" in res.stderr


def test_distance_non_finite_state_exit_2(tmp_path, state_files):
    a, _ = state_files
    bad = tmp_path / "nan.json"
    nan = float("nan")
    bad.write_text(json.dumps({"n": 2, "re": [[0.5, nan], [nan, 0.5]], "im": [[0, 0], [0, 0]]}))
    res = run_cli("distance", str(bad), a)
    assert res.returncode == 2
    assert "finite" in res.stderr


def test_distance_malformed_file_exit_2(tmp_path, state_files):
    a, _ = state_files
    bad = tmp_path / "bad.json"
    bad.write_text("][")
    res = run_cli("distance", a, str(bad))
    assert res.returncode == 2


def test_geodesic_two_samples_are_endpoints(state_files, tmp_path):
    a, b = state_files
    res = run_cli("geodesic", a, b, "--samples", "2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["t"] == [0.0, 1.0]
    first = matio.obj_to_matrix(payload["states"][0])
    assert np.allclose(first, np.diag([0.9, 0.1]), atol=1e-10)


def test_geodesic_output_equals_per_t_samples(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_matrix(a, random_density(3, 5))
    save_matrix(b, random_density(3, 6))
    res = run_cli("geodesic", str(a), str(b), "--samples", "7")
    assert res.returncode == 0
    path = wy_geodesic(matio.load_density(str(a)), matio.load_density(str(b)))
    ts = [k / 6 for k in range(7)]
    expected = {"t": ts, "states": [matio.matrix_to_obj(path.sampler(t)) for t in ts]}
    assert res.stdout == json.dumps(expected, separators=(", ", ": ")) + "\n"


def test_geodesic_rejects_single_sample(state_files):
    a, b = state_files
    res = run_cli("geodesic", a, b, "--samples", "1")
    assert res.returncode == 2
    assert "samples" in res.stderr


def test_geodesic_samples_are_valid_densities(state_files):
    a, b = state_files
    res = run_cli("geodesic", a, b, "--samples", "9")
    payload = json.loads(res.stdout)
    assert len(payload["states"]) == 9
    for obj in payload["states"]:
        mat = matio.obj_to_matrix(obj)
        assert abs(np.trace(mat).real - 1.0) <= 1e-10


def test_curvature_constant_for_wy(state_files):
    a, _ = state_files
    res = run_cli("curvature", a, "--f", "wy")
    payload = json.loads(res.stdout)
    assert payload["scal1"] == pytest.approx(1.5, rel=1e-9)
    assert payload["n"] == 2


def test_curvature_unknown_function_lists_catalog(state_files):
    a, _ = state_files
    res = run_cli("curvature", a, "--f", "nope")
    assert res.returncode == 2
    for fid in ("wy", "sld", "bkm", "rld"):
        assert fid in res.stderr


def test_metric_eval_roundtrip(tmp_path):
    rho = random_density(2, 3)
    t1 = random_tangent(2, 4)
    t2 = random_tangent(2, 5)
    pr, p1, p2 = (tmp_path / name for name in ("rho.json", "a.json", "b.json"))
    save_matrix(pr, rho)
    save_matrix(p1, t1)
    save_matrix(p2, t2)
    res = run_cli("metric-eval", str(pr), str(p1), str(p2), "--f", "bkm")
    assert res.returncode == 0
    from wyinfo.monotone import catalog_entry, metric_eval
    assert float(res.stdout) == pytest.approx(metric_eval(catalog_entry("bkm"), rho, t1, t2),
                                              rel=1e-12)


def test_divergence_command(state_files):
    a, b = state_files
    res = run_cli("divergence", a, b, "--g", "g_wy")
    payload = json.loads(res.stdout)
    assert payload["g_id"] == "g_wy"
    assert payload["value"] == pytest.approx(4.0 * (1.0 - 0.6), rel=1e-11)


@pytest.mark.parametrize("command", [["distance"], ["geodesic"], ["metric-eval", "a"],
                                     ["divergence"]], ids=lambda c: c[0])
def test_files_of_different_n_name_shape_match(tmp_path, state_files, capsys, command):
    # the n = 3 file comes last; metric-eval reads (rho, a, b) with a tangent as a
    a, _ = state_files
    big, tangent = tmp_path / "big.json", tmp_path / "t.json"
    save_matrix(big, random_tangent(3, 1) if len(command) > 1 else random_density(3, 1))
    save_matrix(tangent, random_tangent(2, 2))
    files = [a, str(tangent), str(big)] if len(command) > 1 else [a, str(big)]
    assert cli.main([command[0], *files]) == 2
    err = capsys.readouterr().err
    assert "shape-match" in err and a in err and str(big) in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_unknown_suite_exit_2():
    res = run_cli("verify", "nonsense")
    assert res.returncode == 2
    assert "suite-name" in res.stderr
    assert all(suite in res.stderr for suite in SUITES)


def test_verify_help_exits_0():
    res = run_cli("verify", "--help")
    assert res.returncode == 0
    assert "suite" in res.stdout


def test_verify_runs_and_passes():
    res = run_cli("verify", "wy-curvature", "--n", "2,3", "--trials", "5", "--seed", "7")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"scal1-constant-n2", "scal1-constant-n3"}


def test_verify_deterministic_output():
    first = run_cli("verify", "hessian", "--trials", "3", "--seed", "7")
    second = run_cli("verify", "hessian", "--trials", "3", "--seed", "7")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_verify_tolerance_override_forces_failure():
    res = run_cli("verify", "pullback", "--trials", "5",
                  "--tolerance", "pullback-equals-wy=1e-30")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["passed"] is False


def test_verify_bad_tolerance_flag_exit_2():
    res = run_cli("verify", "alpha", "--tolerance", "oops")
    assert res.returncode == 2


def test_verify_unknown_tolerance_name_exit_2(capsys):
    assert cli.main(["verify", "alpha", "--tolerance", "alpah-g_wy=0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated: tolerance-name (no check named alpah-g_wy;" in err
    assert "checks: alpha-g_wy, alpha-g_umegaki" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_verify_bad_tolerance_value_exit_2(value, capsys):
    assert cli.main(["verify", "alpha", "--tolerance", f"alpha-g_wy={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated: tolerance-value (alpha-g_wy=" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_non_positive_trials_exit_2(trials, capsys):
    assert cli.main(["verify", "pullback", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"invariant violated: trials ({trials} < 1)" in err


@pytest.mark.parametrize("flag", ["2,x", ",", "2.5", ""])
def test_verify_bad_n_flag_names_invariant(flag, capsys):
    assert cli.main(["verify", "alpha", "--n", flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated: n-flag" in err
    assert repr(flag) in err


@pytest.mark.parametrize("suite", ["dual-pairs", "alpha"])
@pytest.mark.parametrize("flags", [["--n", "3"], ["--trials", "200"]])
def test_verify_deterministic_suite_refuses_n_and_trials(suite, flags, capsys):
    assert cli.main(["verify", suite, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated: no-draws" in err


def test_verify_repeated_n_exit_2(capsys):
    # both rows would be named scal1-constant-n2, and one --tolerance would set both
    assert cli.main(["verify", "wy-curvature", "--n", "2,2", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated: dimension" in err
    assert "repeat n=2" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_seed_outside_64_bits_exit_2(seed, capsys):
    assert cli.main(["verify", "pullback", "--trials", "2", "--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invariant violated: seed" in err


def test_verify_runs_the_dimension_it_reports(capsys):
    # n = 7 is above the cap pullback once applied silently
    assert cli.main(["verify", "pullback", "--n", "7", "--trials", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_values"] == [7]
    cfg = default_config("pullback", n_values=(7,), trials=4)
    assert payload["checks"][0]["actual"] == pullback_per_trial(cfg)
