"""End-to-end checks of the command-line interface.

Most tests drive ``main(argv)`` in process and parse captured stdout. One
subprocess test runs the ``priverm`` entry point as a real process: the
installed console script when one is on PATH, otherwise the
``[project.scripts]`` target declared in the checkout's ``pyproject.toml``.
Others run numpy-free commands, and erm and sim on bad inputs, in a fresh
interpreter to check that numpy stays unloaded.
"""

import csv
import functools
import importlib
import io
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
from priverm.bounds import (
    PREMISE_TOLERANCE,
    BoundInputs,
    bound_erm,
    r_fast,
    sufficient_condition,
)
from priverm.cli import main
from priverm.constructions import H1_PATTERNS, PHI1_PATTERNS, construct_theorem1, full_class
from priverm.core import class_to_json, distribution_from_json

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


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_vc_budget_below_one_is_input_error(tmp_path, capsys, budget):
    path = write_json(tmp_path, "h1.json", H1_JSON)
    rc, out, err = run_cli(capsys, ["vc", path, "--budget", budget])
    assert (rc, out) == (2, "")
    assert err == f"input error: node budget must be at least 1, got {budget}\n"


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


@pytest.mark.parametrize(
    "heavy, error",
    [(h, f"--heavy-side takes only 0 and 1, got {h!r}") for h in ("0x", "12", " 01")]
    # an empty --heavy-side gives no bits, not the all-zero default
    + [("", "heavy_side needs 2 bits, got 0")],
    ids=["0x", "12", " 01", "empty"],
)
def test_construct_theorem5_names_a_heavy_side_that_is_not_bits(capsys, heavy, error):
    rc, out, err = run_cli(
        capsys, ["construct", "--what", "theorem5", "--dstar", "4", "--heavy-side", heavy]
    )
    assert (rc, out, err) == (2, "", f"input error: {error}\n")


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


@pytest.mark.parametrize("scale", [-1.01, -0.99, 0.99, 1.01])
def test_bounds_prints_sufficient_exactly_when_the_library_accepts_it(
    tmp_path, capsys, scale
):
    # eps_erm off eps_ig + eps_u by just under or just over PREMISE_TOLERANCE
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3,
           "eps_erm": 0.1 + scale * PREMISE_TOLERANCE, "eps_ig": 0.06, "eps_u": 0.04}
    try:
        want = sufficient_condition(BoundInputs(**raw)).to_json()
    except ValueError:
        want = None
    assert (want is None) == (abs(scale) > 1)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", write_json(tmp_path, "in.json", raw)])
    assert rc == 0
    assert json.loads(out).get("sufficient") == want


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


@pytest.mark.parametrize(
    "extra, names",
    [({"foo": 1}, "foo"), ({"foo": 1, "eps-erm": 0.1, "C": 2}, "C, eps-erm, foo")],
)
def test_bounds_inputs_file_rejects_unknown_keys(tmp_path, capsys, extra, names):
    raw = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3, **extra}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert (rc, out, err) == (2, "", f"input error: unknown bounds inputs: {names}\n")


def test_bounds_missing_flags(capsys):
    rc, _, err = run_cli(capsys, ["bounds", "--m", "99"])
    assert rc == 2
    assert "missing required flags" in err


def test_bounds_inputs_file_missing_a_required_key_names_it(tmp_path, capsys):
    path = write_json(tmp_path, "inputs.json", {"delta": 0.05, "d": 2, "dstar": 1, "d_a": 3})
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert (rc, out, err) == (2, "", "input error: missing required flags: m\n")
    # a flag fills the key the file lacks
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path, "--m", "99"])
    assert rc == 0 and json.loads(out)["r_fast_d"] == r_fast(2, 99, 0.05)


# --- sim --------------------------------------------------------------------------


SUPPORT_JSON = [
    {"x": 0, "xstar": 0, "y": 0, "p": 0.4},
    {"x": 1, "xstar": 1, "y": 1, "p": 0.35},
    {"x": 2, "xstar": 2, "y": 0, "p": 0.25},
]


def comparison_config_json(tmp_path, **extra) -> str:
    cfg = {
        "distribution": {"support": SUPPORT_JSON},
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


@pytest.mark.parametrize("kind", ["comparison", "deviation"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sim_rejects_a_seed_outside_64_bits(tmp_path, capsys, kind, seed):
    # such a seed would replay the run of its residue mod 2**64
    path = sim_config_json(tmp_path, kind)
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys,
        ["--seed", str(seed), "--output-dir", str(out_dir), "sim", "--kind", kind,
         "--config", path],
    )
    assert (rc, out) == (2, "")
    assert err == f"input error: seed must be in [0, 2**64), got {seed}\n"
    assert not out_dir.exists()


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


@pytest.mark.parametrize("value", [5, ["run"], False])
def test_sim_comparison_rejects_a_non_string_output_dir_before_any_trial(
    tmp_path, capsys, monkeypatch, value
):
    from priverm import simulate

    def never(config):
        raise AssertionError("run_comparison ran")

    # --output-dir is the one spelling; the config key is unknown whatever its value
    monkeypatch.setattr(simulate, "run_comparison", never)
    path = comparison_config_json(tmp_path, output_dir=value)
    rc, out, err = run_cli(capsys, ["sim", "--config", path])
    assert (rc, out, err) == (2, "", "input error: unknown comparison config keys: output_dir\n")


@pytest.mark.parametrize(
    "kind, config, err",
    [
        ("comparison", {"C": 5}, "unknown comparison config keys: C"),
        ("comparison", {"output_dir": "run"}, "unknown comparison config keys: output_dir"),
        ("comparison", {"serach": 1, "C": 5}, "unknown comparison config keys: C, serach"),
        ("comparison", [{"m": 20}], "comparison config must be a JSON object"),
        ("deviation", {"serach": "full"}, "unknown deviation config keys: serach"),
        ("deviation", {"c": 1.0}, "unknown deviation config keys: c"),
        ("deviation", [{"m": 30}], "deviation config must be a JSON object"),
    ],
    ids=str,
)
def test_sim_config_keys_are_checked_before_any_class_or_trial(
    tmp_path, capsys, monkeypatch, kind, config, err
):
    from priverm import cli, simulate

    def never(*args, **kwargs):
        raise AssertionError("ran past the key check")

    for module, name in [(cli, "class_from_json"), (simulate, "run_comparison"),
                         (simulate, "run_theorem5_experiment")]:
        monkeypatch.setattr(module, name, never)
    if isinstance(config, list):
        path = write_json(tmp_path, "list.json", config)
    else:
        path = sim_config_json(tmp_path, kind, **config)
    rc, out, got = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert (rc, out, got) == (2, "", f"input error: {err}\n")


@pytest.mark.parametrize(
    "kind, config, err",
    [
        ("comparison", {"distribution": {"support": [{**SUPPORT_JSON[0], "q": 1}, *SUPPORT_JSON[1:]]}},
         "unknown support point keys: q"),
        ("comparison", {"distribution": {"support": SUPPORT_JSON, "extra": 1}},
         "unknown distribution keys: extra"),
        ("comparison", {"h_class": {**H1_JSON, "label": "Z"}}, "unknown class keys: label"),
        ("comparison", {"phi_class": {**PHI1_JSON, "oops": 0}}, "unknown class keys: oops"),
        ("deviation", {"phi_class": {**class_to_json(full_class(4)), "oops": 0}},
         "unknown class keys: oops"),
    ],
    ids=["support-point", "distribution", "h_class", "phi_class", "deviation-phi_class"],
)
def test_sim_rejects_unknown_nested_keys(tmp_path, capsys, kind, config, err):
    path = sim_config_json(tmp_path, kind, **config)
    rc, out, got = run_cli(capsys, ["sim", "--kind", kind, "--config", path])
    assert (rc, out, got) == (2, "", f"input error: {err}\n")


def test_vc_rejects_unknown_class_keys(tmp_path, capsys):
    path = write_json(tmp_path, "h.json", {**H1_JSON, "oops": 0, "label": "X"})
    rc, out, err = run_cli(capsys, ["vc", path])
    assert (rc, out, err) == (2, "", "input error: unknown class keys: label, oops\n")


@pytest.mark.parametrize(
    "h_class, triple, err",
    [
        ({"label": "Z"}, {}, "unknown class keys: label"),
        ({}, {"w": 1}, "unknown triple keys: w"),
    ],
    ids=["class", "triple"],
)
def test_erm_rejects_unknown_nested_keys(tmp_path, capsys, h_class, triple, err):
    rc, out, got = run_cli(capsys, erm_files(tmp_path, h_class, triple))
    assert (rc, out, got) == (2, "", f"input error: {err}\n")


def test_erm_rejects_unknown_sample_keys(tmp_path, capsys):
    argv = erm_files(tmp_path)
    write_json(tmp_path, "s.json", {**SAMPLE_JSON, "weights": [1]})
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out, err) == (2, "", "input error: unknown sample keys: weights\n")


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("vc", "hypotheses", {"0": 1, "1": 2}),
        ("vc", "hypotheses", "0101"),
        ("erm", "triples", {}),
        ("sim", "support", {}),
    ],
    ids=["vc-object", "vc-string", "erm-object", "sim-object"],
)
def test_list_fields_must_be_json_arrays(tmp_path, capsys, command, field, value):
    # an object or a string is not read as the sequence of its keys or characters
    if command == "vc":
        argv = ["vc", write_json(tmp_path, "h.json", {"domain_size": 1, field: value})]
    elif command == "erm":
        argv = erm_files(tmp_path)
        write_json(tmp_path, "s.json", {field: value})
    else:
        argv = ["sim", "--config",
                comparison_config_json(tmp_path, distribution={field: value})]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out, err) == (2, "", f"input error: {field} must be a JSON array\n")


@pytest.mark.parametrize(
    "member",
    [{"0": 5, "1": 7}, 5, None, True, [0, 1], ["01"], [["0"], "1"], ["0", None]],
    ids=["object", "number", "null", "bool", "list-of-numbers", "list-of-a-long-string",
         "list-of-a-list", "list-with-null"],
)
def test_class_members_must_be_bit_strings(tmp_path, capsys, member):
    # a member is read neither as the string of its keys nor by iterating it
    path = write_json(tmp_path, "h.json", {"domain_size": 2, "hypotheses": ["01", member]})
    rc, out, err = run_cli(capsys, ["vc", path])
    assert (rc, out) == (2, "")
    assert err == 'input error: hypotheses[1] must be a bit string or a list of "0"/"1" strings\n'


def test_comparison_config_keys_are_the_keys_config_json_records(tmp_path, capsys):
    from priverm.cli import SIM_CONFIG_KEYS
    from priverm.simulate import ExperimentConfig

    dist = distribution_from_json({"support": SUPPORT_JSON})
    H, Phi = construct_theorem1(1)
    cfg = ExperimentConfig(distribution=dist, H=H, Phi=Phi, m=20, trials=8, delta=0.05, seed=3)
    assert set(cfg.to_json()) == SIM_CONFIG_KEYS["comparison"]
    # so a run's config.json is a comparison config, and replays the run
    runs = [tmp_path / "run", tmp_path / "replay"]
    configs = [comparison_config_json(tmp_path, c=2.5), str(runs[0] / "config.json")]
    for config, run in zip(configs, runs):
        assert run_cli(capsys, ["--output-dir", str(run), "sim", "--config", config])[0] == 0
    for name in ("config.json", "trials.csv", "summary.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_sim_comparison_unwritable_run_directory_is_an_io_error(tmp_path, capsys):
    path = comparison_config_json(tmp_path)
    blocker = tmp_path / "plain_file"
    blocker.write_text("", encoding="utf-8")
    rc, out, err = run_cli(
        capsys, ["--output-dir", str(blocker / "run"), "sim", "--config", path]
    )
    assert (rc, out) == (4, "")
    assert err.startswith("i/o error: cannot write run directory")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("x", 7), ("xstar", 5)])
def test_sim_comparison_support_outside_a_domain_is_input_error(
    tmp_path, capsys, field, value
):
    # H and Phi both have 3 points
    support = SUPPORT_JSON[:2] + [{**SUPPORT_JSON[2], field: value}]
    path = comparison_config_json(tmp_path, distribution={"support": support})
    rc, out, err = run_cli(capsys, ["sim", "--config", path])
    assert (rc, out) == (2, "")
    assert err == f"input error: support {field} index {value} outside domain of size 3\n"


def test_missing_config_and_sample_keys_are_named(tmp_path, capsys):
    dev = {"phi_class": class_to_json(full_class(4)), "delta": 0.01, "m": 30, "trials": 5}
    path = write_json(tmp_path, "dev.json", dev)
    rc, out, err = run_cli(capsys, ["sim", "--kind", "deviation", "--config", path])
    assert (rc, out, err) == (2, "", "input error: missing key 'eps'\n")

    h = write_json(tmp_path, "h.json", H1_JSON)
    s = write_json(tmp_path, "s.json", {"triples": [{"x": 0, "y": 0}]})
    rc, out, err = run_cli(capsys, ["erm", "--h-class", h, "--sample", s])
    assert (rc, out, err) == (2, "", "input error: missing key 'xstar'\n")


def assert_usage_error(capsys, argv, error):
    # argparse rejects argv before any command runs, so no file named in it is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: priverm")
    assert error in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["vc", "h.json"], ["construct", "--what", "theorem1"], ["verify", "--suite", "claims"],
     ["erm", "--h-class", "h.json", "--sample", "s.json"], ["sim", "--config", "c.json"],
     ["bounds", "--m", "99", "--delta", "0.05", "--d", "2", "--dstar", "1", "--d-a", "3"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("threads", ["0", "-3", "2"])
def test_every_command_rejects_a_bad_thread_count(capsys, argv, threads):
    # priverm has no --threads flag: it is read where the subcommand belongs
    assert_usage_error(capsys, ["--threads", threads, *argv], "argument command: invalid choice")


@pytest.mark.parametrize(
    "argv",
    [["vc", "h.json", "--mode", "lower-bound-only"],
     ["sim", "--config", "c.json", "--mode", "lower-bound-only"]],
    ids=["vc-mode", "sim-mode"],
)
def test_retired_flags_are_usage_errors(capsys, argv):
    # priverm has no --mode: a lower bound comes only from a search cut by --budget
    assert_usage_error(capsys, argv, "unrecognized arguments: --mode lower-bound-only")


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


@pytest.mark.parametrize("search", ["primee", 7, None, ["prime"], "Prime"], ids=str)
def test_sim_deviation_accepts_only_documented_search_values(tmp_path, capsys, search):
    path = sim_config_json(tmp_path, "deviation", search=search)
    rc, out, err = run_cli(capsys, ["sim", "--kind", "deviation", "--config", path])
    assert rc == 2
    assert out == ""
    assert err == f'input error: search must be "prime" or "full", got {search!r}\n'


def test_sim_deviation_search_values_choose_the_class(tmp_path, capsys):
    reports = {}
    for search in ("prime", "full", None):
        extra = {} if search is None else {"search": search}
        path = sim_config_json(tmp_path, "deviation", trials=200, **extra)
        rc, out, _ = run_cli(capsys, ["sim", "--kind", "deviation", "--config", path])
        assert rc == 0
        reports[search] = out
    assert reports[None] == reports["prime"] != reports["full"]


@pytest.mark.parametrize(
    "kind, field, value",
    [("comparison", "m", 2**33), ("comparison", "trials", 2**40),
     ("deviation", "m", 2**33), ("deviation", "trials", 2**40)],
)
def test_sim_size_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch, kind, field, value):
    # no memory is asked of the system: every large np.empty fails as numpy's would
    import numpy as np

    real_empty = np.empty

    def empty(shape, dtype=float, **kwargs):
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        if size * np.dtype(dtype).itemsize > 2**30:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real_empty(shape, dtype, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    path = sim_config_json(tmp_path, kind, **{field: value})
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys, ["--output-dir", str(out_dir), "sim", "--kind", kind, "--config", path]
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: out of memory: Unable to allocate")
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["comparison", "deviation"])
@pytest.mark.parametrize(
    "field, value", [("m", 2**62), ("m", 10**400), ("trials", 10**400)],
    ids=["m-2**62", "m-10**400", "trials-10**400"],
)
def test_sim_size_too_large_for_an_array_names_its_field(tmp_path, capsys, kind, field, value):
    # numpy rejects these shapes before it allocates, so no memory is asked for
    path = sim_config_json(tmp_path, kind, **{field: value})
    out_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys, ["--output-dir", str(out_dir), "sim", "--kind", kind, "--config", path]
    )
    assert (rc, out) == (2, "")
    assert err.startswith(f"input error: {field} is too large for an array: ")
    assert not out_dir.exists()


def test_memory_error_without_a_message_exits_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("priverm.cli.cmd_bounds", exhausted)
    rc, out, err = run_cli(capsys, ["bounds", "--m", "99"])
    assert (rc, out, err) == (2, "", "input error: out of memory\n")


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


def erm_files(tmp_path, h_class=None, triple=None, phi=True) -> list:
    h = write_json(tmp_path, "h.json", {**H1_JSON, **(h_class or {})})
    triples = [dict(t) for t in SAMPLE_JSON["triples"]]
    triples[0].update(triple or {})
    s = write_json(tmp_path, "s.json", {"triples": triples})
    if not phi:
        return ["erm", "--h-class", h, "--sample", s]
    p = write_json(tmp_path, "p.json", PHI1_JSON)
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
        ("comparison", "p", "0.4"),
        ("comparison", "p", True),
    ],
    ids=str,
)
def test_sim_rejects_reals_given_as_non_numbers(tmp_path, capsys, kind, field, value):
    extra = {field: value}
    if field == "p":  # the probability of the first support point
        extra = {"distribution": {"support": [{**SUPPORT_JSON[0], "p": value}, *SUPPORT_JSON[1:]]}}
    path = sim_config_json(tmp_path, kind, **extra)
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
    st.sampled_from(["3", "0", "20"]), st.lists(st.integers(0, 3), max_size=2),
    st.just(DELETE),
)
REAL = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2, 2), st.just(10**400),
    st.text(max_size=3), st.sampled_from(["0.05", "0.35", "1"]), st.just(DELETE),
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


VC_PATHS = [(), ("domain_size",), ("hypotheses",), ("hypotheses", 0), ("hypotheses", 2)]
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
    command = data.draw(st.sampled_from(["vc", "erm", "comparison", "deviation"]))
    if command == "vc":
        path = data.draw(st.sampled_from(VC_PATHS))
        value = data.draw(junk_for(path))
        argv = ["vc", write_json(tmp_path, "h.json", mutate(H1_JSON, path, value))]
    elif command == "erm":
        files = {"h": H1_JSON, "p": PHI1_JSON, "s": SAMPLE_JSON}
        name, path = data.draw(st.sampled_from(ERM_PATHS))
        value = data.draw(junk_for(path))
        files[name] = mutate(files[name], path, value)
        paths = {k: write_json(tmp_path, f"{k}.json", v) for k, v in files.items()}
        argv = ["erm", "--h-class", paths["h"], "--phi-class", paths["p"],
                "--sample", paths["s"]]
    else:
        if command == "comparison":
            cfg = json.loads(Path(comparison_config_json(tmp_path)).read_text(encoding="utf-8"))
            path = data.draw(st.sampled_from(COMPARISON_PATHS))
        else:
            cfg = {"phi_class": class_to_json(full_class(4)), "eps": 0.1, "delta": 0.01,
                   "m": 30, "trials": 5, "seed": 2, "heavy_side": [0, 1]}
            path = data.draw(st.sampled_from(DEVIATION_PATHS))
        value = data.draw(junk_for(path))
        cfg = mutate(cfg, path, value)
        argv = ["sim", "--kind", command, "--config", write_json(tmp_path, "cfg.json", cfg)]
    rc, out, err = run_cli(capsys, argv)
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    number_field = bool(path) and path[-1] in INTS + REALS
    if number_field and value is not DELETE and (
        isinstance(value, bool) or not isinstance(value, (int, float))
    ):
        assert rc == 2, (path, value)
    if command == "comparison" and rc == 0:
        assert json.loads(out)["failed_trials"] == []


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


def first_budget_cut_after_3d() -> int:
    """The first node budget at which F(1)'s search has found 3 = 3d but not finished."""
    from priverm.vc import build_f_class, vc_dimension

    F = build_f_class(*construct_theorem1(1))
    return next(b for b in range(1, 10**4) if vc_dimension(F, budget=b).vc == 3)


CUT = " (lower bound: node budget exhausted)"


@pytest.mark.parametrize(
    "budget, argv, lines",
    [
        (5, ["--suite", "theorem1", "--d", "1"],
         [f"[FAIL] vc_f: VC(F)=0, want 3{CUT}",
          "additive prediction d+d* = 2; measured VC(F) = 0; undetermined"]),
        (5, ["--suite", "claims", "--d", "1"],
         [f"[FAIL] vc_f: VC(F)=0, want 3{CUT}",
          "additive prediction d+d* = 2; measured VC(F) = 0; undetermined"]),
        # a lower bound past 2d refutes the additive prediction, cut or not
        (first_budget_cut_after_3d(), ["--suite", "claims", "--d", "1"],
         [f"[FAIL] vc_f: VC(F)=3, want 3{CUT}",
          "additive prediction d+d* = 2; measured VC(F) = 3; REFUTED"]),
        (5, ["--suite", "lemma1", "--d", "2", "--dstar", "3"],
         [f"[FAIL] vc_h: VC(H)=0, want 2{CUT}", f"[FAIL] vc_j: VC(J)=0, want 3{CUT}",
          f"[FAIL] vc_union: VC(H∪J)=0, want 6{CUT}"]),
        (5, ["--suite", "lemma2", "--d", "2"],
         [f"[FAIL] d_a_sandwich: d_a=0 in [2.0, 68.85]{CUT}"]),
        (5, ["--suite", "theorem2", "--d", "1"],
         [f"[FAIL] d_a_sandwich: d_a=0 in [0.0, 41.31]{CUT}"]),
    ],
    # the budget-5 cases keep the names they had when every case ran at budget 5,
    # and claims and theorem2 those they had before they ran theorem1 and lemma2
    ids=["argv0-vc_f: VC(F)=0, want 3", "argv1-claims: measured 0 matches 3d = 3",
         "claims-found-3d", "lemma1", "argv2-d_a_sandwich: d_a=0 in [2.0, 68.85]",
         "argv3-vc_f_upper: VC(F)=0 <= 41.31"],
)
def test_verify_says_when_the_node_budget_ran_out(monkeypatch, capsys, budget, argv, lines):
    # a check whose search the budget cut fails, whatever its predicate
    from priverm import cli

    monkeypatch.setattr(cli, "vc_dimension", functools.partial(cli.vc_dimension, budget=budget))
    rc, out, _ = run_cli(capsys, ["verify", *argv])
    assert rc == 1
    for line in lines:
        assert line in out.splitlines()


VERIFY_GOLDEN = [
    (
        ["--suite", "theorem1", "--d", "1"],
        0,
        "[PASS] vc_h: VC(H)=1, want 1\n"
        "[PASS] vc_phi: VC(Phi)=1, want 1\n"
        "[PASS] vc_f: VC(F)=3, want 3\n"
        "[PASS] diagonal_witness: 3 diagonal points\n"
        "additive prediction d+d* = 2; measured VC(F) = 3; REFUTED\n"
        "PASS\n",
        "",
    ),
    (
        ["--suite", "theorem1", "--d", "2"],
        0,
        "[PASS] vc_h: VC(H)=2, want 2\n"
        "[PASS] vc_phi: VC(Phi)=2, want 2\n"
        "[PASS] vc_f: VC(F)=6, want 6\n"
        "[PASS] diagonal_witness: 6 diagonal points\n"
        "additive prediction d+d* = 4; measured VC(F) = 6; REFUTED\n"
        "PASS\n",
        "",
    ),
    (
        ["--suite", "claims", "--d", "1"],
        0,
        "[PASS] vc_h: VC(H)=1, want 1\n"
        "[PASS] vc_phi: VC(Phi)=1, want 1\n"
        "[PASS] vc_f: VC(F)=3, want 3\n"
        "[PASS] diagonal_witness: 3 diagonal points\n"
        "additive prediction d+d* = 2; measured VC(F) = 3; REFUTED\n"
        "PASS\n",
        "",
    ),
    (
        ["--suite", "lemma1", "--d", "1", "--dstar", "1"],
        0,
        "[PASS] vc_h: VC(H)=1, want 1\n"
        "[PASS] vc_j: VC(J)=1, want 1\n"
        "[PASS] vc_union: VC(H∪J)=3, want 3\n"
        "PASS\n",
        "",
    ),
    (
        ["--suite", "lemma1", "--d", "2", "--dstar", "3"],
        0,
        "[PASS] vc_h: VC(H)=2, want 2\n"
        "[PASS] vc_j: VC(J)=3, want 3\n"
        "[PASS] vc_union: VC(H∪J)=6, want 6\n"
        "PASS\n",
        "",
    ),
    (
        ["--suite", "lemma2", "--d", "2", "--dstar", "2"],
        0,
        "[PASS] witness_size: 2 triples, want 2\n"
        "[PASS] d_a_sandwich: d_a=6 in [2.0, 68.85]\n"
        "PASS\n",
        "",
    ),
    (
        # d_a_interval's lower end is 0, so there is no witness to check
        ["--suite", "lemma2", "--d", "1"],
        0,
        "[PASS] d_a_sandwich: d_a=3 in [0.0, 41.31]\nPASS\n",
        "",
    ),
    (
        ["--suite", "theorem2", "--d", "1"],
        0,
        "[PASS] d_a_sandwich: d_a=3 in [0.0, 41.31]\nPASS\n",
        "",
    ),
    (
        ["--suite", "theorem2", "--d", "2", "--dstar", "3"],
        0,
        "[PASS] witness_size: 3 triples, want 3\n"
        "[PASS] d_a_sandwich: d_a=7 in [3.0, 82.62]\n"
        "PASS\n",
        "",
    ),
]


@pytest.mark.parametrize(
    "argv, rc, out, err", VERIFY_GOLDEN, ids=["-".join(v[0][1::2]) for v in VERIFY_GOLDEN]
)
def test_verify_output_is_pinned(capsys, argv, rc, out, err):
    # every byte a suite prints is part of the CLI contract
    assert run_cli(capsys, ["verify", *argv]) == (rc, out, err)


@pytest.mark.parametrize(
    "alias, suite, dims",
    [("claims", "theorem1", ["--d", "1"]), ("claims", "theorem1", ["--d", "2"]),
     ("theorem2", "lemma2", ["--d", "1"]), ("theorem2", "lemma2", ["--d", "2", "--dstar", "3"])],
    ids=["claims-1", "claims-2", "theorem2-1", "theorem2-2-3"],
)
def test_verify_claims_and_theorem2_print_their_suites_bytes(capsys, alias, suite, dims):
    # claims checks VC(F) = 3d with theorem1, theorem2 VC(F) = d_a with lemma2
    got = run_cli(capsys, ["verify", "--suite", alias, *dims])
    assert got == run_cli(capsys, ["verify", "--suite", suite, *dims])


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
    # list and dict values print as JSON, so they read back
    rows = dict(line.split(None, 1) for line in out.splitlines())
    assert json.loads(rows["necessary"])["pr_leq_erm"] is False
    assert "holds" in json.loads(rows["sufficient"])
    assert json.loads(rows["d_a_interval"])[0] == 0.0


def test_format_csv(tmp_path, capsys):
    path = write_json(tmp_path, "h1.json", H1_JSON)
    rc, out, _ = run_cli(capsys, ["--format", "csv", "vc", path])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exact,levels,vc,witness"
    assert lines[1].startswith("True,")


@pytest.mark.parametrize("command", ["vc", "bounds"])
def test_format_csv_writes_one_field_per_key(tmp_path, capsys, command):
    if command == "vc":
        argv = ["vc", write_json(tmp_path, "h1.json", H1_JSON)]
    else:
        argv = ["bounds", "--m", "99", "--delta", "0.05", "--d", "2", "--dstar", "1",
                "--d-a", "3"]
    rc, out, _ = run_cli(capsys, ["--format", "csv", *argv])
    assert rc == 0
    header, row = csv.reader(io.StringIO(out))
    _, json_out, _ = run_cli(capsys, argv)
    want = json.loads(json_out)
    assert header == sorted(want) and len(row) == len(header)
    for key, field in zip(header, row):
        # lists and dicts come back as JSON, scalars as their text
        if isinstance(want[key], (list, dict)):
            assert json.loads(field) == want[key]
        else:
            assert field == str(want[key])


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


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on the source the suite imports."""
    src = str(Path(priverm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env=env,
    )


def test_cli_commands_without_numpy_never_import_it():
    # vc, construct, bounds and verify need no numpy; erm and sim import it
    code = (
        "import sys, priverm, priverm.cli\n"
        "assert priverm.ExperimentConfig is priverm.core.ExperimentConfig\n"
        "assert priverm.cli.main(['verify', '--suite', 'claims']) == 0\n"
        "assert priverm.cli.main(['bounds', '--m', '9', '--delta', '0.1',"
        " '--d', '1', '--dstar', '1', '--d-a', '1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_importing_simulate_leaves_numpy_random_as_numpy_left_it():
    # NumPy 2 loads numpy.random on first use, NumPy 1.24 with numpy itself
    code = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import priverm.simulate\n"
        "assert ('numpy.random' in sys.modules) == before, 'numpy.random loaded'\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_experiment_config_has_one_home_in_core():
    from priverm import core, simulate

    assert priverm.ExperimentConfig is core.ExperimentConfig is simulate.ExperimentConfig


def with_support_point(**change) -> dict:
    return {"support": SUPPORT_JSON[:2] + [{**SUPPORT_JSON[2], **change}]}


@pytest.mark.parametrize(
    "argv, err",
    [
        (lambda t: erm_files(t, triple={"x": 3}), "sample x index 3 outside domain of size 3"),
        (lambda t: erm_files(t, triple={"xstar": 3}),
         "sample xstar index 3 outside domain of size 3"),
        (lambda t: erm_files(t) + ["--c", "0"], "c must be positive and finite, got 0.0"),
        (lambda t: erm_files(t) + ["--c", "nan"], "c must be positive and finite, got nan"),
        (lambda t: erm_files(t) + ["--c", "inf"], "c must be positive and finite, got inf"),
        # the standard solver has no C, but erm checks --c all the same
        (lambda t: erm_files(t, phi=False) + ["--c", "nan"],
         "c must be positive and finite, got nan"),
        (lambda t: ["sim", "--config", comparison_config_json(t, delta=1.5)],
         "delta must be in (0, 1), got 1.5"),
        (lambda t: ["sim", "--config", comparison_config_json(t, m=0)], "m must be >= 1, got 0"),
        (lambda t: ["sim", "--config", comparison_config_json(t, seed=2**64)],
         f"seed must be in [0, 2**64), got {2**64}"),
        (lambda t: ["sim", "--config",
                    comparison_config_json(t, distribution=with_support_point(x=7))],
         "support x index 7 outside domain of size 3"),
        (lambda t: ["sim", "--kind", "deviation", "--config",
                    sim_config_json(t, "deviation", trials=0)],
         "trials must be >= 1, got 0"),
    ],
    ids=["erm-x", "erm-xstar", "erm-c-0", "erm-c-nan", "erm-c-inf", "erm-standard-c-nan",
         "sim-delta", "sim-m-0", "sim-seed-2**64", "sim-support-x", "deviation-trials-0"],
)
def test_erm_and_sim_input_faults_exit_before_numpy_loads(tmp_path, argv, err):
    # the whole of stderr is compared, so it holds no traceback and no "numpy imported"
    code = (
        "import sys, priverm.cli\n"
        "rc = priverm.cli.main(sys.argv[1:])\n"
        "sys.exit('numpy imported' if 'numpy' in sys.modules else rc)\n"
    )
    proc = run_fresh(code, *argv(tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"input error: {err}\n")


PACKAGE_EXPORTS = {
    "core": (
        "ExperimentConfig FiniteDomain FiniteDistribution Hypothesis HypothesisClass "
        "Triple TripleSample aux_loss composite_loss exact_true_error f_loss "
        "ignoring_loss zero_one_loss"
    ),
    "vc": (
        "VcReport build_aux_class build_f_class count_shattered is_shattered k_fold_union "
        "union_class vc_dimension"
    ),
    "constructions": (
        "Theorem5Family construct_lemma1_tight construct_lemma2_witness "
        "construct_theorem1 construct_theorem5_family phi_prime_subclass"
    ),
    "erm": "ErmResult PrivilegedErmResult erm_privileged erm_standard",
    "bounds": (
        "BoundInputs alpha_threshold bound_erm bound_pr d_a_interval "
        "necessary_condition r_fast r_slow sufficient_condition"
    ),
    "simulate": "TrialRecord persist_run run_comparison run_theorem5_experiment sample",
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_names_resolve_to_their_modules(module):
    home = importlib.import_module(f"priverm.{module}")
    for name in PACKAGE_EXPORTS[module].split():
        assert getattr(priverm, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        priverm.no_such_name
