"""End-to-end checks of the command-line interface.

Most tests drive ``main(argv)`` in process and parse captured stdout. One
subprocess test runs the ``priverm`` entry point as a real process: the
installed console script when one is on PATH, otherwise the
``[project.scripts]`` target declared in the checkout's ``pyproject.toml``.
Another runs numpy-free commands in a fresh interpreter to check that
numpy stays unloaded.
"""

import functools
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import priverm
from priverm.bounds import BoundInputs, bound_erm, r_fast
from priverm.cli import main
from priverm.constructions import H1_PATTERNS, PHI1_PATTERNS, full_class
from priverm.core import class_to_json

H1_JSON = {
    "domain_size": 3,
    "hypotheses": sorted("".join(str(b) for b in p) for p in H1_PATTERNS),
}
PHI1_JSON = {
    "domain_size": 3,
    "hypotheses": sorted("".join(str(b) for b in p) for p in PHI1_PATTERNS),
}


def write_json(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- vc ----------------------------------------------------------------------


def test_vc_exact_known_class(tmp_path, capsys):
    path = write_json(tmp_path, "h1.json", H1_JSON)
    rc, out, _ = run_cli(capsys, ["vc", path])
    assert rc == 0
    report = json.loads(out)
    assert report["vc"] == 1
    assert report["exact"] is True
    assert len(report["witness"]) == 1


def test_vc_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc, _, err = run_cli(capsys, ["vc", str(path)])
    assert rc == 2
    assert err.startswith("invalid JSON:")
    assert "line 1" in err


def test_vc_missing_file(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["vc", str(tmp_path / "absent.json")])
    assert rc == 4
    assert "i/o error" in err


def test_vc_budget_exhausted(tmp_path, capsys):
    path = write_json(tmp_path, "full8.json", class_to_json(full_class(8)))
    rc, out, err = run_cli(capsys, ["vc", path, "--budget", "10"])
    assert rc == 3
    report = json.loads(out)
    assert report["exact"] is False
    assert "budget" in err


def test_vc_budget_exhausted_reports_nodes_and_level(tmp_path, capsys):
    path = write_json(tmp_path, "full6.json", class_to_json(full_class(6)))
    rc, out, err = run_cli(capsys, ["vc", path, "--budget", "20"])
    assert rc == 3
    assert json.loads(out) == {
        "vc": 4, "exact": False, "witness": [0, 1, 2, 3], "levels": [1, 6, 15, 20, 15]
    }
    assert err == "node budget exhausted before the exact answer (nodes=21, level=4)\n"


def test_vc_lower_bound_mode(tmp_path, capsys):
    path = write_json(tmp_path, "full8.json", class_to_json(full_class(8)))
    rc, out, _ = run_cli(capsys, ["vc", path, "--mode", "lower-bound-only"])
    assert rc == 0
    report = json.loads(out)
    assert report["vc"] == 8
    assert report["exact"] is False


# --- construct ------------------------------------------------------------------


def test_construct_theorem1(capsys):
    rc, out, _ = run_cli(capsys, ["construct", "--what", "theorem1", "--d", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["h_class"]["hypotheses"] == ["000", "001", "100", "110"]
    assert payload["phi_class"]["hypotheses"] == ["000", "001", "010", "101"]
    assert "legend_product" in payload


def test_construct_lemma1(capsys):
    rc, out, _ = run_cli(
        capsys, ["construct", "--what", "lemma1", "--d", "2", "--dstar", "1"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["domain_size"] == 4
    assert len(payload["h_class"]["hypotheses"]) == 11
    assert len(payload["j_class"]["hypotheses"]) == 5


def test_construct_theorem5(capsys):
    rc, out, _ = run_cli(capsys, ["construct", "--what", "theorem5", "--dstar", "4"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(0.4 / (1 - 8 / 256))
    assert payload["pairs"] == [[0, 1], [2, 3]]
    assert len(payload["phi_star"]) == 4
    support = payload["distribution"]["support"]
    assert len(support) == 4
    assert sum(e["p"] for e in support) == pytest.approx(1.0, abs=1e-12)


def test_construct_theorem5_writes_file(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys,
        ["--output-dir", str(tmp_path), "construct", "--what", "theorem5",
         "--dstar", "4", "--heavy-side", "10"],
    )
    assert rc == 0
    assert out.strip().endswith("theorem5.json")
    payload = json.loads((tmp_path / "theorem5.json").read_text())
    assert payload["heavy_side"] == [1, 0]


def test_construct_theorem5_rejects_trivial_class(capsys):
    # the default search class has VC 1, too small to pair up
    rc, _, err = run_cli(capsys, ["construct", "--what", "theorem5"])
    assert rc == 2
    assert "input error" in err


# --- erm --------------------------------------------------------------------------


SAMPLE_JSON = {
    "triples": [
        {"x": 0, "xstar": 0, "y": 0},
        {"x": 1, "xstar": 0, "y": 0},
        {"x": 2, "xstar": 0, "y": 1},
    ]
}


def test_erm_standard(tmp_path, capsys):
    h = write_json(tmp_path, "h.json", H1_JSON)
    s = write_json(tmp_path, "s.json", SAMPLE_JSON)
    rc, out, _ = run_cli(capsys, ["erm", "--h-class", h, "--sample", s])
    assert rc == 0
    result = json.loads(out)
    assert result["h"] == "001"
    assert result["empirical_error"] == 0.0
    assert result["minimizer_count"] == 1


def test_erm_privileged(tmp_path, capsys):
    h = write_json(tmp_path, "h.json", H1_JSON)
    p = write_json(tmp_path, "p.json", PHI1_JSON)
    s = write_json(tmp_path, "s.json", SAMPLE_JSON)
    rc, out, _ = run_cli(
        capsys,
        ["erm", "--h-class", h, "--phi-class", p, "--sample", s, "--c", "2"],
    )
    assert rc == 0
    result = json.loads(out)
    assert result["h"] == "001"
    assert result["phi"] == "000"
    assert result["objective"] == 0.0


@pytest.mark.parametrize("bad", [{"x": 3, "xstar": 0, "y": 0}, {"x": 0, "xstar": 3, "y": 1}])
def test_erm_sample_outside_domain_is_input_error(tmp_path, capsys, bad):
    h = write_json(tmp_path, "h.json", H1_JSON)
    p = write_json(tmp_path, "p.json", PHI1_JSON)
    s = write_json(tmp_path, "s.json", {"triples": SAMPLE_JSON["triples"] + [bad]})
    rc, out, err = run_cli(capsys, ["erm", "--h-class", h, "--phi-class", p, "--sample", s])
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: sample x")
    assert "outside domain of size 3" in err


def test_erm_standard_sample_outside_domain_is_input_error(tmp_path, capsys):
    h = write_json(tmp_path, "h.json", H1_JSON)
    s = write_json(tmp_path, "s.json", {"triples": [{"x": 7, "xstar": 0, "y": 0}]})
    rc, _, err = run_cli(capsys, ["erm", "--h-class", h, "--sample", s])
    assert rc == 2
    assert err.startswith("input error: sample x index 7")


# --- bounds -----------------------------------------------------------------------


def test_bounds_from_flags(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["bounds", "--m", "99", "--delta", "0.05", "--d", "2", "--dstar", "1",
         "--d-a", "3"],
    )
    assert rc == 0
    report = json.loads(out)
    assert report["r_fast_d"] == r_fast(2, 99, 0.05)
    assert report["alpha_root"] == pytest.approx(2.2469796037174667, abs=1e-12)
    assert report["d_a_interval"][0] == 0.0
    # all empirical errors default to zero, so the premise holds exactly
    assert "sufficient" in report
    assert "necessary" in report


def test_bounds_from_inputs_file(tmp_path, capsys):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3,
           "eps_erm": 0.1, "eps_ig": 0.06, "eps_u": 0.04}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 0
    report = json.loads(out)
    assert report["b_erm"] == bound_erm(BoundInputs(**raw))


def test_bounds_flag_overrides_inputs_file(tmp_path, capsys):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path, "--m", "200"])
    assert rc == 0
    report = json.loads(out)
    assert report["r_fast_d"] == r_fast(2, 200, 0.05)


@pytest.mark.parametrize(
    "change",
    [{"m": 1.5}, {"d": True}, {"d_a": 2.5}, {"dstar": 1.25}, {"m": None}],
)
def test_bounds_inputs_file_rejects_non_integers(tmp_path, capsys, change):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3, **change}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 2
    assert out == "" and "input error" in err


@pytest.mark.parametrize(
    "change",
    [{"dstar": "1"}, {"m": "99"}, {"d_a": "3"}, {"d": "2.0"},
     {"dstar": "1", "eps_erm": True}, {"m": [99]}, {"d": None}, {"d_a": {}},
     {"dstar": [1, 2]}],
    ids=str,
)
def test_bounds_inputs_file_rejects_integers_given_as_non_numbers(tmp_path, capsys, change):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3, **change}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 2
    assert out == "" and "must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "change",
    [{"eps_erm": True}, {"eps_ig": False}, {"eps_u": "0"}, {"delta": "0.05"},
     {"delta": True}, {"eps_erm": "0.1"}, {"delta": [0.05]}, {"delta": None},
     {"eps_u": {}}, {"eps_ig": None}],
    ids=str,
)
def test_bounds_inputs_file_rejects_reals_given_as_non_numbers(tmp_path, capsys, change):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3, **change}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 2
    assert out == "" and "must be a number" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["m", "d", "dstar", "d_a"])
def test_bounds_inputs_file_names_an_integer_too_large_for_a_float(tmp_path, capsys, field):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3, field: 10**400}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 2
    assert out == "" and err == f"input error: {field} is too large for a float\n"


def test_bounds_inputs_file_accepts_integral_floats(tmp_path, capsys):
    raw = {"m": 99.0, "delta": 0.05, "d": 2.0, "dstar": 1, "d_a": 3.0}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 0
    assert json.loads(out)["r_fast_d"] == r_fast(2, 99, 0.05)


def test_bounds_inputs_file_must_hold_an_object(tmp_path, capsys):
    path = write_json(tmp_path, "inputs.json", [99, 0.05, 2, 1, 3])
    rc, _, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 2
    assert "JSON object" in err


def test_bounds_missing_flags(capsys):
    rc, _, err = run_cli(capsys, ["bounds", "--m", "99"])
    assert rc == 2
    assert "missing required flags" in err


# --- sim --------------------------------------------------------------------------


def comparison_config_json(tmp_path, **extra) -> str:
    cfg = {
        "distribution": {
            "support": [
                {"x": 0, "xstar": 0, "y": 0, "p": 0.4},
                {"x": 1, "xstar": 1, "y": 1, "p": 0.35},
                {"x": 2, "xstar": 2, "y": 0, "p": 0.25},
            ]
        },
        "h_class": H1_JSON,
        "phi_class": PHI1_JSON,
        "m": 20,
        "trials": 8,
        "delta": 0.05,
        "seed": 3,
    }
    cfg.update(extra)
    return write_json(tmp_path, "config.json", cfg)


def test_sim_comparison_stdout(tmp_path, capsys):
    path = comparison_config_json(tmp_path)
    rc, out, _ = run_cli(capsys, ["sim", "--config", path])
    assert rc == 0
    summary = json.loads(out)
    assert summary["trials"] == 8
    assert summary["effective_trials"] == 8
    assert (summary["d"], summary["dstar"], summary["d_a"]) == (1, 1, 3)
    assert 0.0 <= summary["coverage_pr"] <= 1.0


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, "nan"])
def test_sim_comparison_rejects_delta_outside_unit_interval(tmp_path, capsys, delta):
    path = comparison_config_json(tmp_path, delta=float(delta))
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(capsys, ["--output-dir", str(out_dir), "sim", "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: delta must be in (0, 1)")
    assert not out_dir.exists()


def test_sim_comparison_seed_flag_wins(tmp_path, capsys):
    path = comparison_config_json(tmp_path)
    rc, out, _ = run_cli(capsys, ["--seed", "4", "sim", "--config", path])
    assert rc == 0
    assert json.loads(out)["seed"] == 4


def test_sim_comparison_persists_run(tmp_path, capsys):
    path = comparison_config_json(tmp_path)
    out_dir = tmp_path / "run"
    rc, out, _ = run_cli(
        capsys, ["--output-dir", str(out_dir), "sim", "--config", path]
    )
    assert rc == 0
    assert out.strip() == str(out_dir)
    for name in ("config.json", "trials.csv", "summary.json", "manifest.json"):
        assert (out_dir / name).exists()


def test_sim_comparison_env_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIVERM_THREADS", "2")
    path = comparison_config_json(tmp_path)
    rc, out, _ = run_cli(capsys, ["sim", "--config", path])
    assert rc == 0
    baseline_rc, baseline_out, _ = run_cli(capsys, ["sim", "--config", path])
    monkeypatch.delenv("PRIVERM_THREADS")
    assert baseline_rc == 0
    assert json.loads(out) == json.loads(baseline_out)


def test_sim_deviation(tmp_path, capsys):
    cfg = {
        "phi_class": class_to_json(full_class(4)),
        "eps": 0.1,
        "delta": 0.01,
        "m": 30,
        "trials": 50,
        "seed": 2,
    }
    path = write_json(tmp_path, "dev.json", cfg)
    rc, out, _ = run_cli(capsys, ["sim", "--config", path, "--kind", "deviation"])
    assert rc == 0
    report = json.loads(out)
    assert report["trials"] == 50
    assert 0.0 <= report["freq_claim"] <= 1.0
    assert report["p_star"] == pytest.approx((1 - report["alpha"]) / 2)


def test_sim_deviation_writes_file(tmp_path, capsys):
    cfg = {
        "phi_class": class_to_json(full_class(4)),
        "eps": 0.1,
        "delta": 0.01,
        "m": 30,
        "trials": 20,
        "seed": 2,
    }
    path = write_json(tmp_path, "dev.json", cfg)
    out_dir = tmp_path / "devrun"
    rc, out, _ = run_cli(
        capsys,
        ["--output-dir", str(out_dir), "sim", "--config", path,
         "--kind", "deviation"],
    )
    assert rc == 0
    assert out.strip().endswith("deviation.json")
    report = json.loads((out_dir / "deviation.json").read_text())
    assert report["m"] == 30


@pytest.mark.parametrize("c", [0.0, -1.5, "nan", "inf"])
def test_sim_comparison_rejects_nonpositive_or_nonfinite_c(tmp_path, capsys, c):
    path = comparison_config_json(tmp_path, c=float(c))
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(capsys, ["--output-dir", str(out_dir), "sim", "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: c must be positive and finite")
    assert not out_dir.exists()


# --- integers read from JSON ----------------------------------------------------------


def erm_files(tmp_path, h_class=None, triple=None) -> list:
    h = write_json(tmp_path, "h.json", {**H1_JSON, **(h_class or {})})
    p = write_json(tmp_path, "p.json", PHI1_JSON)
    triples = [dict(t) for t in SAMPLE_JSON["triples"]]
    triples[0].update(triple or {})
    s = write_json(tmp_path, "s.json", {"triples": triples})
    return ["erm", "--h-class", h, "--phi-class", p, "--sample", s]


@pytest.mark.parametrize(
    "h_class, triple, field",
    [
        ({}, {"x": 1.5}, "x"),
        ({}, {"xstar": 0.5}, "xstar"),
        ({}, {"y": True}, "y"),
        ({"domain_size": 3.5}, {}, "domain_size"),
    ],
    ids=["x", "xstar", "y", "domain_size"],
)
def test_erm_rejects_fractional_and_bool_integers(tmp_path, capsys, h_class, triple, field):
    rc, out, err = run_cli(capsys, erm_files(tmp_path, h_class, triple))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"input error: {field} must be an integer")


def test_erm_accepts_integral_floats(tmp_path, capsys):
    _, want, _ = run_cli(capsys, erm_files(tmp_path))
    rc, out, _ = run_cli(
        capsys, erm_files(tmp_path, {"domain_size": 3.0}, {"x": 0.0, "xstar": 0.0, "y": 0.0})
    )
    assert rc == 0
    assert out == want


def sim_config_json(tmp_path, kind: str, **extra) -> str:
    if kind == "comparison":
        return comparison_config_json(tmp_path, **extra)
    cfg = {"phi_class": class_to_json(full_class(4)), "eps": 0.1, "delta": 0.01,
           "m": 30, "trials": 5, "seed": 2, **extra}
    return write_json(tmp_path, "dev.json", cfg)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("comparison", "m", 20.5),
        ("comparison", "trials", 8.5),
        ("comparison", "seed", 3.5),
        ("comparison", "trials", True),
        ("deviation", "m", 30.5),
        ("deviation", "seed", False),
    ],
)
def test_sim_rejects_fractional_and_bool_integers(tmp_path, capsys, kind, field, value):
    path = sim_config_json(tmp_path, kind, **{field: value})
    rc, out, err = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"input error: {field} must be an integer")


def test_sim_accepts_integral_floats(tmp_path, capsys):
    _, want, _ = run_cli(capsys, ["sim", "--config", comparison_config_json(tmp_path)])
    path = comparison_config_json(tmp_path, m=20.0, trials=8.0, seed=3.0)
    rc, out, _ = run_cli(capsys, ["sim", "--config", path])
    assert rc == 0
    assert out == want


@pytest.mark.parametrize(
    "kind, field, value",
    [("comparison", "m", "20"), ("comparison", "seed", "3"), ("deviation", "trials", "5")],
)
def test_sim_rejects_integers_given_as_strings(tmp_path, capsys, kind, field, value):
    path = sim_config_json(tmp_path, kind, **{field: value})
    rc, out, err = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"input error: {field} must be an integer")


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("comparison", "delta", "0.05"),
        ("comparison", "delta", True),
        ("comparison", "c", True),
        ("comparison", "c", "1"),
        ("comparison", "c", None),
        ("deviation", "eps", "0.1"),
        ("deviation", "eps", False),
        ("deviation", "delta", "0.01"),
        ("deviation", "delta", [0.01]),
    ],
    ids=str,
)
def test_sim_rejects_reals_given_as_non_numbers(tmp_path, capsys, kind, field, value):
    path = sim_config_json(tmp_path, kind, **{field: value})
    rc, out, err = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"input error: {field} must be a number")


@pytest.mark.parametrize(
    "kind, field",
    [("comparison", "delta"), ("comparison", "c"), ("deviation", "eps"), ("deviation", "delta")],
)
def test_sim_names_a_real_too_large_for_a_float(tmp_path, capsys, kind, field):
    path = sim_config_json(tmp_path, kind, **{field: 10**400})
    rc, out, err = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert rc == 2
    assert out == ""
    assert err == f"input error: {field} is too large for a float\n"


@pytest.mark.parametrize(
    "kind, change",
    [("comparison", {"delta": 0.05, "c": 1}), ("deviation", {"eps": 0.1, "delta": 0.01})],
    ids=str,
)
def test_sim_accepts_reals_given_as_numbers(tmp_path, capsys, kind, change):
    _, want, _ = run_cli(capsys, ["sim", "--kind", kind, "--config", sim_config_json(tmp_path, kind)])
    path = sim_config_json(tmp_path, kind, **change)
    rc, out, _ = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert rc == 0
    assert out == want


@pytest.mark.parametrize("heavy", [[0, 2], [0, -1], [0, 0.5], [True, 0]], ids=str)
def test_sim_deviation_rejects_heavy_side_that_is_not_bits(tmp_path, capsys, heavy):
    cfg = {"phi_class": class_to_json(full_class(4)), "eps": 0.1, "delta": 0.01,
           "m": 30, "trials": 5, "seed": 2, "heavy_side": heavy}
    path = write_json(tmp_path, "dev.json", cfg)
    rc, out, err = run_cli(capsys, ["sim", "--kind", "deviation", "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: heavy_side bit")


# --- malformed erm and sim inputs never end in a traceback ----------------------------

DELETE = object()
# counts and indices stay small: a valid but huge m or trials is a long run, not a fault
SMALL_INT = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(-3, 40),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.just(DELETE),
)
REAL = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2, 2), st.just(10**400),
    st.text(max_size=3), st.just(DELETE),
)
ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=4),
    st.lists(st.one_of(st.integers(0, 3), st.text("01", max_size=4)), max_size=3),
    st.dictionaries(st.sampled_from(["x", "y", "p", "triples"]), st.integers(0, 2), max_size=2),
    st.just(DELETE),
)
INTS = ("domain_size", "x", "xstar", "y", "m", "trials", "seed")
REALS = ("p", "delta", "c", "eps")


def mutate(obj, path, value):
    """obj with the entry at path replaced by value (or removed)."""
    if not path:
        return {} if value is DELETE else value
    obj = dict(obj) if isinstance(obj, dict) else list(obj)
    key, rest = path[0], path[1:]
    if rest:
        obj[key] = mutate(obj[key], rest, value)
    elif value is DELETE:
        obj.pop(key, None) if isinstance(obj, dict) else obj.pop(key)
    else:
        obj[key] = value
    return obj


def junk_for(path):
    leaf = path[-1] if path else None
    return SMALL_INT if leaf in INTS else REAL if leaf in REALS else ANY


ERM_PATHS = [
    ("h", ()), ("h", ("domain_size",)), ("h", ("hypotheses",)), ("h", ("hypotheses", 0)),
    ("p", ("domain_size",)), ("p", ("hypotheses", 1)),
    ("s", ()), ("s", ("triples",)), ("s", ("triples", 0)), ("s", ("triples", 1, "x")),
    ("s", ("triples", 0, "xstar")), ("s", ("triples", 2, "y")),
]
COMPARISON_PATHS = [
    (), ("m",), ("trials",), ("seed",), ("delta",), ("c",), ("distribution",),
    ("distribution", "support"), ("distribution", "support", 0),
    ("distribution", "support", 1, "p"), ("distribution", "support", 0, "x"),
    ("distribution", "support", 2, "xstar"), ("distribution", "support", 1, "y"),
    ("h_class",), ("h_class", "hypotheses", 0), ("phi_class", "domain_size"),
]
DEVIATION_PATHS = [
    (), ("eps",), ("delta",), ("m",), ("trials",), ("seed",), ("heavy_side",),
    ("phi_class",), ("phi_class", "domain_size"), ("search",),
]


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_erm_and_sim_inputs_exit_cleanly(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(["erm", "comparison", "deviation"]))
    if command == "erm":
        files = {"h": H1_JSON, "p": PHI1_JSON, "s": SAMPLE_JSON}
        name, path = data.draw(st.sampled_from(ERM_PATHS))
        files[name] = mutate(files[name], path, data.draw(junk_for(path)))
        paths = {k: write_json(tmp_path, f"{k}.json", v) for k, v in files.items()}
        argv = ["erm", "--h-class", paths["h"], "--phi-class", paths["p"],
                "--sample", paths["s"]]
    else:
        if command == "comparison":
            cfg = json.loads(open(comparison_config_json(tmp_path), encoding="utf-8").read())
            path = data.draw(st.sampled_from(COMPARISON_PATHS))
        else:
            cfg = {"phi_class": class_to_json(full_class(4)), "eps": 0.1, "delta": 0.01,
                   "m": 30, "trials": 5, "seed": 2, "heavy_side": [0, 1]}
            path = data.draw(st.sampled_from(DEVIATION_PATHS))
        cfg = mutate(cfg, path, data.draw(junk_for(path)))
        argv = ["sim", "--kind", command, "--config", write_json(tmp_path, "cfg.json", cfg)]
    rc, _, err = run_cli(capsys, argv)
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err


BOUNDS_FIELDS = ("m", "delta", "d", "dstar", "d_a", "eps_erm", "eps_ig", "eps_u")
BOUNDS_JUNK = st.one_of(
    st.text(max_size=4), st.booleans(), st.lists(st.integers(0, 3), max_size=2),
    st.none(), st.just(10**400), st.just(DELETE),
)


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_bounds_inputs_exit_cleanly(tmp_path, capsys, data):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3,
           "eps_erm": 0.1, "eps_ig": 0.06, "eps_u": 0.04}
    for field in data.draw(st.lists(st.sampled_from(BOUNDS_FIELDS), min_size=1,
                                    max_size=3, unique=True)):
        raw = mutate(raw, (field,), data.draw(BOUNDS_JUNK))
    path = write_json(tmp_path, "inputs.json", raw)
    rc, _, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc in (0, 2), err
    assert "Traceback" not in err


# --- verify ------------------------------------------------------------------------


def test_verify_theorem1(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "theorem1", "--d", "1"])
    assert rc == 0
    assert "[PASS] vc_f" in out
    assert "REFUTED" in out
    assert out.rstrip().endswith("PASS")


def test_verify_claims(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "claims", "--d", "1"])
    assert rc == 0
    assert "additive prediction d+d* = 2; measured VC(F) = 3" in out
    assert "REFUTED" in out


def test_verify_lemma1(capsys):
    rc, out, _ = run_cli(
        capsys, ["verify", "--suite", "lemma1", "--d", "1", "--dstar", "1"]
    )
    assert rc == 0
    assert "[PASS] vc_union" in out


def test_verify_lemma2(capsys):
    rc, out, _ = run_cli(
        capsys, ["verify", "--suite", "lemma2", "--d", "2", "--dstar", "2"]
    )
    assert rc == 0
    assert "[PASS] witness_size" in out
    assert "[PASS] d_a_sandwich" in out


def test_verify_lemma2_needs_nontrivial_dims(capsys):
    rc, _, err = run_cli(capsys, ["verify", "--suite", "lemma2", "--d", "1"])
    assert rc == 2
    assert "input error" in err


def test_verify_theorem2(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "theorem2", "--d", "1"])
    assert rc == 0
    assert "[PASS] vc_f_upper" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--suite", "theorem1", "--d", "1"], "vc_f: VC(F)=0, want 3"),
        (["--suite", "claims", "--d", "1"], "claims: measured 0 matches 3d = 3"),
        (["--suite", "lemma2", "--d", "2"], "d_a_sandwich: d_a=0 in [2.0, 68.85]"),
        (["--suite", "theorem2", "--d", "1"], "vc_f_upper: VC(F)=0 <= 41.31"),
    ],
)
def test_verify_says_when_the_node_budget_ran_out(monkeypatch, capsys, argv, line):
    from priverm import cli

    monkeypatch.setattr(cli, "vc_dimension", functools.partial(cli.vc_dimension, budget=5))
    rc, out, _ = run_cli(capsys, ["verify", *argv])
    assert rc == 1
    assert f"] {line} (lower bound: node budget exhausted)\n" in out


def test_verify_exact_lines_carry_no_budget_note(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--suite", "theorem1", "--d", "2"])
    assert rc == 0
    assert "[PASS] vc_f: VC(F)=6, want 6\n" in out
    assert "budget" not in out


# --- output formats ------------------------------------------------------------------


def test_format_table(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["--format", "table", "bounds", "--m", "99", "--delta", "0.05",
         "--d", "2", "--dstar", "1", "--d-a", "3"],
    )
    assert rc == 0
    assert "b_erm" in out
    assert not out.lstrip().startswith("{")


def test_format_csv(tmp_path, capsys):
    path = write_json(tmp_path, "h1.json", H1_JSON)
    rc, out, _ = run_cli(capsys, ["--format", "csv", "vc", path])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exact,levels,vc,witness"
    assert lines[1].startswith("True,")


# --- entry point: installed script, else the checkout's [project.scripts] -------------


def _declared_entry_point_command():
    """Command running the checkout's declared ``priverm`` target as a
    console-script wrapper would, on the same source the suite imports."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts.get("priverm") == "priverm.cli:main"
    src = str(Path(priverm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys; from priverm.cli import main; sys.exit(main())"
    return [sys.executable, "-c", code], env


def test_console_script_runs():
    exe = shutil.which("priverm")
    if exe is not None:
        cmd, env = [exe], None
    else:
        cmd, env = _declared_entry_point_command()
    proc = subprocess.run(
        cmd + ["verify", "--suite", "claims", "--d", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "REFUTED" in proc.stdout
    assert proc.stdout.rstrip().endswith("PASS")
    assert "Traceback" not in proc.stderr


# --- numpy-free start ----------------------------------------------------------------


def test_cli_commands_without_numpy_never_import_it():
    # vc, construct, bounds and verify need no numpy; erm and sim import it
    src = str(Path(priverm.__file__).resolve().parents[1])
    code = (
        "import sys, priverm, priverm.cli\n"
        "assert priverm.cli.main(['verify', '--suite', 'claims']) == 0\n"
        "assert priverm.cli.main(['bounds', '--m', '9', '--delta', '0.1',"
        " '--d', '1', '--dstar', '1', '--d-a', '1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr


PACKAGE_EXPORTS = {
    "core": (
        "FiniteDomain FiniteDistribution Hypothesis HypothesisClass Triple TripleSample "
        "aux_loss composite_loss exact_true_error f_loss ignoring_loss zero_one_loss"
    ),
    "vc": (
        "VcReport build_aux_class build_f_class build_loss_class growth_function "
        "is_shattered k_fold_union sauer_bound union_class vc_dimension"
    ),
    "constructions": (
        "Theorem5Family construct_lemma1_tight construct_lemma2_witness "
        "construct_theorem1 construct_theorem5_family phi_prime_subclass"
    ),
    "erm": "ErmResult PrivilegedErmResult empirical_stats erm_privileged erm_standard",
    "bounds": (
        "BoundInputs alpha_threshold bound_erm bound_pr d_a_interval "
        "necessary_condition r_fast r_slow sufficient_condition"
    ),
    "simulate": (
        "ExperimentConfig TrialRecord persist_run run_comparison "
        "run_theorem5_experiment sample"
    ),
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_names_resolve_to_their_modules(module):
    home = importlib.import_module(f"priverm.{module}")
    for name in PACKAGE_EXPORTS[module].split():
        assert getattr(priverm, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        priverm.no_such_name
