import json

import numpy as np
import pytest

import oracles
from oracles import (
    classical_per_trial,
    distance_bound_per_pair,
    dual_pairs_per_exponent,
    geodesic_length_per_pair,
    hessian_per_trial,
    monotonicity_per_trial,
    pullback_per_trial,
    skew_identity_per_trial,
    trial_plan_per_trial,
)

from wyinfo import linalg, suites
from wyinfo.errors import InvariantViolation
from wyinfo.linalg import BLOCK_ENTRIES
from wyinfo.monotone import MonotoneFunctionEntry, catalog, contraction_check, loewner_margin
from wyinfo.suites import SUITE_DEFAULTS, SUITES, SuiteConfig, default_config, run_suite


def test_all_registered_suites_pass_at_smoke_scale():
    small = {
        "wy-curvature": dict(n_values=(2,), trials=3),
        "pullback": dict(n_values=(2, 3), trials=10),
        "hessian": dict(n_values=(2,), trials=3),
        "monotonicity": dict(n_values=(2,), trials=20),
        "geodesic-length": dict(n_values=(2,), trials=2),
        "dual-pairs": dict(),
        "classical": dict(n_values=(2, 3), trials=10),
        "skew-identity": dict(n_values=(2, 3), trials=10),
        "alpha": dict(),
        "distance-bound": dict(n_values=(2,), trials=100),
    }
    assert set(small) == set(SUITES)
    for name, kwargs in small.items():
        report = run_suite(SuiteConfig(suite=name, seed=1, **kwargs))
        assert report.passed, f"{name}: {[c.as_dict() for c in report.checks if not c.passed]}"
        assert report.suite == name


# config seeds 2^32 + 5 and 2^64 - 1 make every trial key three 32-bit words long
@pytest.mark.parametrize("seed, n_values", [(0, None), (1, None), (2, None), (0, (5,)),
                                            (2**32 + 5, None), (2**64 - 1, None)])
def test_distance_bound_equals_per_pair_reference(seed, n_values):
    # (5,) puts 200 trials in three blocks of one dimension
    cfg = default_config("distance-bound", seed=seed, n_values=n_values, trials=200)
    report = run_suite(cfg)
    assert tuple(c.actual for c in report.checks) == distance_bound_per_pair(cfg)


def _record_contractions(monkeypatch, module):
    """Collect the (g_before, g_after) of every trial that module's contraction_check sees."""
    seen = []

    def record(*args, **kwargs):
        out = contraction_check(*args, **kwargs)
        for res in out:
            seen.extend(zip(np.atleast_1d(res.g_before).tolist(),
                            np.atleast_1d(res.g_after).tolist()))
        return out

    monkeypatch.setattr(module, "contraction_check", record)
    return seen


@pytest.mark.parametrize("seed, n_values, trials",
                         [(0, None, 120), (1, None, 120), (2, None, 120), (0, (3,), 600),
                          (2**32 + 5, None, 120), (2**64 - 1, None, 120)])
def test_monotonicity_equals_per_trial_reference(monkeypatch, seed, n_values, trials):
    # (3,) with 600 trials puts the 66 trials of the 9-Kraus group in three blocks
    cfg = default_config("monotonicity", seed=seed, n_values=n_values, trials=trials)
    stacked = _record_contractions(monkeypatch, suites)
    per_trial = _record_contractions(monkeypatch, oracles)
    report = run_suite(cfg)
    assert tuple(c.actual for c in report.checks) == monotonicity_per_trial(cfg)
    # the counts are all zero, so also compare every trial's metric values
    assert len(stacked) == 4 * cfg.trials
    assert sorted(stacked) == sorted(per_trial)


def test_monotonicity_counts_a_non_monotone_metric(monkeypatch):
    # f(x) = (x^2 + 1/x) / 2 is normalized and symmetric but not operator
    # monotone (Loewner margin -99.9), so its metric expands under some channels
    heinz = MonotoneFunctionEntry("heinz", lambda x: 0.5 * (x**2 + 1.0 / x),
                                  lambda x, y: 2.0 * x * y / (x**3 + y**3))
    assert loewner_margin(heinz.f) < -99.0
    monkeypatch.setattr(suites, "catalog", lambda: catalog() + (heinz,))
    report = run_suite(default_config("monotonicity", n_values=(2,), trials=200))
    rows = {c.name: c.actual for c in report.checks}
    assert rows.pop("contraction-violations-heinz") > 0
    assert set(rows.values()) == {0.0} and len(rows) == 4
    assert not report.passed


# (2,) with 1,500 trials makes three blocks of 576; n = 7 is above the old caps
@pytest.mark.parametrize("seed, n_values, trials", [(0, None, None), (1, None, None),
                                                    (2, None, None), (0, (2,), 1500),
                                                    (0, (7,), None)])
@pytest.mark.parametrize("suite, reference", [("pullback", pullback_per_trial),
                                              ("skew-identity", skew_identity_per_trial)])
def test_stacked_suite_equals_per_trial_reference(suite, reference, seed, n_values, trials):
    cfg = default_config(suite, seed=seed, n_values=n_values, trials=trials)
    report = run_suite(cfg)
    assert [c.actual for c in report.checks] == [reference(cfg)]


# (2,) with 600 trials makes blocks of 576 and 24
@pytest.mark.parametrize("seed, n_values, trials", [(0, None, None), (1, None, None),
                                                    (2, None, None), (0, (2,), 600),
                                                    (0, (6,), None)])
def test_hessian_equals_per_trial_reference(seed, n_values, trials):
    cfg = default_config("hessian", seed=seed, n_values=n_values, trials=trials)
    report = run_suite(cfg)
    assert [c.actual for c in report.checks] == hessian_per_trial(cfg)


@pytest.mark.parametrize("n_values, trials, width", [
    ((2, 3, 4, 5), 10_000, lambda t, n: 1),
    ((3, 2, 4), 700, lambda t, n: 1 + t % (n * n)),
    ((16,), 20, lambda t, n: 1),
])
def test_trial_plan_covers_each_trial_once_at_its_dimension(n_values, trials, width):
    cfg = SuiteConfig(suite="distance-bound", n_values=n_values, trials=trials, seed=9)
    seen = []
    for block in suites._Checks(cfg).blocks(width):
        n, w = block.n, block.width
        assert (block.seed, block.suite) == (9, suites.SUITE_TAGS["distance-bound"])
        assert 1 <= len(block.trials) <= max(1, BLOCK_ENTRIES // (w * n * n))
        assert all(n == n_values[t % len(n_values)] and w == width(t, n) for t in block.trials)
        # block.start is the group index of its first trial: the earlier trials of its group
        first = block.trials[0]
        assert block.start == sum(n_values[t % len(n_values)] == n and width(t, n) == w
                                  for t in range(first))
        seen += block.trials
    assert sorted(seen) == list(range(trials))


@pytest.mark.parametrize("seed, n_values, trials", [(0, None, None), (1, None, None),
                                                    (2, None, None), (0, tuple(range(2, 9)), 37)])
def test_classical_equals_per_trial_reference(seed, n_values, trials):
    cfg = default_config("classical", seed=seed, n_values=n_values, trials=trials)
    report = run_suite(cfg)
    assert tuple(c.actual for c in report.checks) == classical_per_trial(cfg)


# (16,) with 21 trials puts the 11 random pairs in blocks of 9 and 2, the 10 commuting
# pairs in blocks of 4, 4 and 2
@pytest.mark.parametrize("seed, n_values, trials", [(0, None, None), (1, None, None),
                                                    (2, None, None), (0, (16,), 21)])
def test_geodesic_length_equals_per_pair_reference(seed, n_values, trials):
    cfg = default_config("geodesic-length", seed=seed, n_values=n_values, trials=trials)
    report = run_suite(cfg)
    assert tuple(c.actual for c in report.checks) == geodesic_length_per_pair(cfg)


def test_geodesic_length_calls_geometry_once_per_block(monkeypatch):
    # the length row makes one path and one length per block, the velocity row one path
    cfg = default_config("geodesic-length")
    length_blocks = len(list(suites._Checks(cfg).blocks(width=lambda t, n: 1 + t % 2)))
    velocity_blocks = len(list(suites._Checks(cfg).blocks(trials=3)))
    assert (length_blocks, velocity_blocks) == (2, 2)
    geodesics = _count_calls(monkeypatch, suites, "wy_geodesic")
    lengths = _count_calls(monkeypatch, suites, "path_length")
    audits = _count_calls(monkeypatch, suites, "wy_distance_audit")
    assert run_suite(cfg).passed
    assert len(lengths) == len(audits) == length_blocks
    assert len(geodesics) == length_blocks + velocity_blocks


WIDTHS = {"one": lambda t, n: 1, "kraus": lambda t, n: 1 + t % (n * n),
          "parity": lambda t, n: 1 + t % 2, "runs": lambda t, n: 1 + (t // 7) % 3,
          "by-n": lambda t, n: n + (t * t) % 5}


@pytest.mark.parametrize("trials", [None, 3], ids=["all", "first-3"])
@pytest.mark.parametrize("width", WIDTHS.values(), ids=WIDTHS.keys())
@pytest.mark.parametrize("suite", [s for s, draws in SUITE_DEFAULTS.items() if draws])
def test_trial_plan_equals_per_trial_grouping(suite, width, trials):
    checks = suites._Checks(default_config(suite, seed=7))
    assert list(checks.blocks(width, trials)) == trial_plan_per_trial(checks, width, trials)


# the suite draws nothing; the sampled oracle draws 200 pairs at n = 3 per seed where
# n_values and trials are None, and at (2, 3, 4) with 130 trials an exponent passes
# only if it passes at every n
@pytest.mark.parametrize("seed, n_values, trials", [(0, None, None), (1, None, None),
                                                    (2, None, None), (0, (2, 3, 4), 130)])
def test_dual_pairs_equals_per_exponent_reference(seed, n_values, trials):
    report = run_suite(SuiteConfig(suite="dual-pairs"))
    reference = dual_pairs_per_exponent(suites.DUAL_PAIR_GRID, n_values or (3,),
                                        trials or 200, seed)
    assert [c.actual for c in report.checks] == reference


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name from now on."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


@pytest.mark.parametrize("suite", ["dual-pairs", "alpha"])
def test_deterministic_suites_take_no_n_values_or_trials(suite):
    # they draw nothing: n_values and trials raise, and the seed leaves the report as it is
    for kwargs in (dict(n_values=(3,)), dict(trials=200), dict(n_values=(3,), trials=200)):
        with pytest.raises(InvariantViolation, match="no-draws"):
            SuiteConfig(suite=suite, **kwargs)
    reports = [run_suite(SuiteConfig(suite=suite, seed=seed)).as_dict() for seed in (0, 2**64 - 1)]
    assert reports[0] == reports[1]
    assert reports[0]["config"] == {"tolerances": {}}


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_draws_without_rng_from(monkeypatch, suite):
    # every suite draws its inputs in blocks; rng_from builds one generator per draw
    calls = _count_calls(monkeypatch, linalg, "rng_from")
    assert run_suite(SuiteConfig(suite=suite)).passed
    assert calls == []


def test_config_takes_suite_defaults():
    cfg = SuiteConfig(suite="pullback")
    assert (cfg.n_values, cfg.trials) == ((2, 3, 4, 5), 100)
    assert SuiteConfig(suite="classical", trials=3).n_values == (2, 3, 4)
    cfg = SuiteConfig(suite="alpha")
    assert (cfg.n_values, cfg.trials) == (None, None)


def test_unknown_suite_raises():
    with pytest.raises(InvariantViolation, match="suite-name"):
        SuiteConfig(suite="nope")


def test_config_validation():
    with pytest.raises(InvariantViolation, match="trials"):
        SuiteConfig(suite="skew-identity", trials=0)
    with pytest.raises(InvariantViolation, match="dimension"):
        SuiteConfig(suite="skew-identity", n_values=(1,))
    with pytest.raises(InvariantViolation, match="dimension"):
        SuiteConfig(suite="skew-identity", n_values=(17,))
    with pytest.raises(InvariantViolation, match="dimension"):
        SuiteConfig(suite="pullback", n_values=())
    with pytest.raises(InvariantViolation, match="dimension"):
        default_config("pullback", n_values=[])
    # a repeated n would run twice under one check name
    with pytest.raises(InvariantViolation, match="dimension.*repeat n=2"):
        SuiteConfig(suite="wy-curvature", n_values=(2, 3, 2))


@pytest.mark.parametrize("kwargs, invariant", [
    (dict(n_values=(2.5,)), "dimension"),
    (dict(n_values=(2, True)), "dimension"),
    (dict(trials=2.5), "trials"),
    (dict(trials=True), "trials"),
    (dict(seed=1.5), "seed"),
    (dict(seed=True), "seed"),
    (dict(n_values=3), "dimension"),
    (dict(n_values=np.int64(3)), "dimension"),
])
def test_config_rejects_non_integers(kwargs, invariant):
    with pytest.raises(InvariantViolation, match=invariant):
        SuiteConfig(suite="pullback", **kwargs)


# the streams mask the seed to 64 bits, so -1 would run as 2^64 - 1 and echo -1
@pytest.mark.parametrize("suite", ["pullback", "alpha"])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_config_rejects_a_seed_outside_64_bits(suite, seed):
    with pytest.raises(InvariantViolation, match="seed"):
        SuiteConfig(suite=suite, seed=seed)
    assert SuiteConfig(suite=suite, seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300,
                                   True, np.True_, "abc", "0.5", None])
def test_config_rejects_bad_tolerance_values(value):
    with pytest.raises(InvariantViolation, match="tolerance-value"):
        SuiteConfig(suite="alpha", tolerances={"alpha-g_wy": value})


def test_config_takes_none_tolerances_as_no_overrides():
    cfg = SuiteConfig(suite="alpha", tolerances=None)
    assert cfg.tolerances == {}
    assert run_suite(cfg).as_dict()["config"]["tolerances"] == {}


@pytest.mark.parametrize("tolerances", [[("alpha-g_wy", 0.5)], "alpha-g_wy", 0.5],
                         ids=["pairs", "str", "float"])
def test_config_rejects_non_mapping_tolerances(tolerances):
    with pytest.raises(InvariantViolation, match="tolerance-name"):
        SuiteConfig(suite="alpha", tolerances=tolerances)


@pytest.mark.parametrize("name", [1, None, ("alpha-g_wy",)], ids=["int", "none", "tuple"])
def test_config_rejects_non_str_tolerance_names(name):
    with pytest.raises(InvariantViolation, match="tolerance-name"):
        SuiteConfig(suite="alpha", tolerances={name: 0.5})


def test_config_stores_tolerances_as_floats():
    cfg = SuiteConfig(suite="dual-pairs",
                      tolerances={"passing-count": 0, "symmetry-margin-p2": np.float32(0.5)})
    assert cfg.tolerances == {"passing-count": 0.0, "symmetry-margin-p2": 0.5}
    assert all(type(v) is float for v in cfg.tolerances.values())


def test_config_numpy_integers_give_a_dumpable_report():
    cfg = SuiteConfig(suite="pullback", n_values=np.array([2, 3]), trials=np.int64(4),
                      seed=np.uint64(7))
    assert (cfg.n_values, cfg.trials, cfg.seed) == ((2, 3), 4, 7)
    assert all(type(v) is int for v in (*cfg.n_values, cfg.trials, cfg.seed))
    assert json.loads(json.dumps(run_suite(cfg).as_dict()))["config"]["seed"] == 7


def test_suite_defaults_table():
    assert list(SUITE_DEFAULTS.items()) == [
        ("wy-curvature", {"n_values": (2, 3, 4), "trials": 20}),
        ("pullback", {"n_values": (2, 3, 4, 5), "trials": 100}),
        ("hessian", {"n_values": (2, 3, 4), "trials": 50}),
        ("monotonicity", {"n_values": (2, 3), "trials": 500}),
        ("geodesic-length", {"n_values": (2, 3), "trials": 20}),
        ("dual-pairs", {}),
        ("classical", {"n_values": (2, 3, 4), "trials": 50}),
        ("skew-identity", {"n_values": (2, 3, 4, 5), "trials": 100}),
        ("alpha", {}),
        ("distance-bound", {"n_values": (2, 3, 4, 5), "trials": 10_000}),
    ]
    assert list(SUITE_DEFAULTS) == list(SUITES)


def test_suite_tags_are_distinct_16_bit_words():
    # a tag is the top 16 bits of every draw's key word
    assert list(suites.SUITE_TAGS) == list(SUITES)
    tags = list(suites.SUITE_TAGS.values())
    assert len(set(tags)) == len(tags) and all(0 < t < 2**16 for t in tags)


def test_default_config_merges_overrides():
    cfg = default_config("monotonicity", seed=5)
    assert cfg.trials == 500
    assert tuple(cfg.n_values) == (2, 3)
    cfg = default_config("monotonicity", seed=5, trials=7, n_values=(2,))
    assert cfg.trials == 7


def test_report_serialization_is_flat_and_versioned():
    report = run_suite(SuiteConfig(suite="alpha"))
    d = report.as_dict()
    assert set(d) == {"suite", "passed", "checks", "version", "config"}
    assert all(set(c) == {"name", "expected", "actual", "tolerance", "pass"}
               for c in d["checks"])
    assert "wall_time" not in d
