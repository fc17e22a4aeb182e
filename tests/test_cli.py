"""End-to-end checks of the command-line interface.

Most tests drive ``main(argv)`` in process and parse captured stdout. One
subprocess test runs the ``priverm`` entry point as a real process: the
installed console script when one is on PATH, otherwise the
``[project.scripts]`` target declared in the checkout's ``pyproject.toml``.
Others run numpy-free commands, and erm and sim on bad inputs, in a fresh
interpreter to check that numpy stays unloaded, and each command in one to
check that it loads only the priverm modules it runs.

The input-fault contract is stated once, by
``test_every_node_of_every_input_fails_as_an_input_error``: every node of a
valid input of each kind (comparison config, deviation config, class file,
sample file, bounds inputs) is replaced by each of ``ODD_VALUES``, each key
is deleted, a key ``zz`` is added to each object, and each pair of bounds
fields is given a non-number. Every run exits 0, or 2, 3 or 4 with one
line and no traceback; where one of five rules speaks (number fields,
missing keys, unknown keys, JSON arrays, class members), ``rule_outcome``
gives the exact exit and stderr line.
"""

import ast
import csv
import functools
import importlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import priverm
from priverm.bounds import (
    PREMISE_TOLERANCE,
    BoundInputs,
    bound_erm,
    r_fast,
    sufficient_condition,
)
from priverm.cli import SUITES, main
from priverm.constructions import H1_PATTERNS, PHI1_PATTERNS, construct_theorem1, full_class
from priverm.core import (
    DeviationConfig,
    ExperimentConfig,
    InputError,
    class_to_json,
    distribution_from_json,
)

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
    assert err.startswith(f"input error: invalid JSON in {path}: ")
    assert "line 1" in err


@pytest.mark.parametrize(
    "data, detail",
    [
        # deeper than the parser's recursion limit
        (b"[" * 100_000 + b"]" * 100_000, "arrays or objects nested too deep"),
        (b'{"domain_size": ' + b"7" * 5000 + b', "hypotheses": []}',
         f"an integer has more than {sys.get_int_max_str_digits()} digits"),
        (b'\xff{"domain_size": 1, "hypotheses": []}',
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["deep", "long-integer", "not-utf-8"],
)
def test_vc_json_past_the_parser_limits_is_input_error(tmp_path, capsys, data, detail):
    path = tmp_path / "class.json"
    path.write_bytes(data)
    rc, out, err = run_cli(capsys, ["vc", str(path)])
    assert (rc, out, err) == (2, "", f"input error: invalid JSON in {path}: {detail}\n")


@pytest.mark.parametrize("exc", [KeyError("m"), TypeError("bad operand"), OverflowError("big"),
                                 RecursionError("deep"), AssertionError("engine bug")],
                         ids=lambda e: type(e).__name__)
def test_an_exception_that_is_not_an_input_fault_exits_5(tmp_path, capsys, monkeypatch, exc):
    from priverm import cli

    def broken(cls, budget):
        raise exc

    monkeypatch.setattr(cli, "vc_dimension", broken)
    rc, out, err = run_cli(capsys, ["vc", write_json(tmp_path, "h.json", H1_JSON)])
    assert (rc, out, err) == (5, "", f"internal error: {type(exc).__name__}: {exc}\n")


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
        "vc": 4, "exact": False, "witness": [0, 1, 2, 3], "levels": None
    }
    assert err == "node budget exhausted before the exact answer (nodes=21, level=4)\n"


FULL8_LEVELS = [1, 8, 28, 56, 70, 56, 28, 8, 1]


@pytest.mark.parametrize("budget, levels", [("100", None), ("298", None),
                                            ("299", FULL8_LEVELS), (None, FULL8_LEVELS)])
def test_vc_levels_count_gets_what_the_search_left(tmp_path, capsys, budget, levels):
    # full_class(8): the search takes 44 nodes and the count 255 more
    path = write_json(tmp_path, "full8.json", class_to_json(full_class(8)))
    argv = ["vc", path] + (["--budget", budget] if budget else [])
    rc, out, err = run_cli(capsys, argv)
    assert out == json.dumps(
        {"exact": True, "levels": levels, "vc": 8, "witness": list(range(8))},
        indent=2, sort_keys=True,
    ) + "\n"
    if levels is None:
        assert (rc, err) == (3, "node budget exhausted while counting levels "
                                "(nodes=44, level=8)\n")
    else:
        assert (rc, err) == (0, "")


@pytest.mark.parametrize("budget", ["2", "3", "4"])
def test_vc_zero_class_keeps_its_levels_at_any_budget(tmp_path, capsys, budget):
    # one member: no search runs, nodes stays at the domain size, and the
    # count to size 0 tests nothing, so no budget cuts it
    path = write_json(tmp_path, "one.json", {"domain_size": 3, "hypotheses": ["010"]})
    rc, out, err = run_cli(capsys, ["vc", path, "--budget", budget])
    assert (rc, json.loads(out), err) == (
        0, {"exact": True, "levels": [1], "vc": 0, "witness": []}, ""
    )


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
    argv = ["construct", "--what", "theorem5", "--dstar", "4", "--heavy-side", "10"]
    rc, printed, _ = run_cli(capsys, argv)
    assert rc == 0
    rc, out, _ = run_cli(capsys, ["--output-dir", str(tmp_path), *argv])
    assert (rc, out) == (0, f"{tmp_path / 'theorem5.json'}\n")
    # the file holds the bytes the command prints without --output-dir
    assert (tmp_path / "theorem5.json").read_bytes() == printed.encode("utf-8")
    assert json.loads(printed)["heavy_side"] == [1, 0]


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_construct_output_dir_writes_json_in_every_format(tmp_path, capsys, fmt):
    argv = ["construct", "--what", "theorem1"]
    _, printed, _ = run_cli(capsys, argv)
    rc, out, _ = run_cli(capsys, ["--format", fmt, "--output-dir", str(tmp_path), *argv])
    assert (rc, out) == (0, f"{tmp_path / 'theorem1.json'}\n")
    assert (tmp_path / "theorem1.json").read_bytes() == printed.encode("utf-8")


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
    # a search class of VC 1 is too small to pair up
    rc, out, err = run_cli(capsys, ["construct", "--what", "theorem5", "--dstar", "1"])
    assert (rc, out, err) == (2, "", "input error: need VC(Phi) >= 2, got 1\n")


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

BOUNDS_JSON = {"m": 99, "delta": 0.05, "d": 2, "dstar": 1, "d_a": 3}
EPS_JSON = {"eps_erm": 0.1, "eps_ig": 0.06, "eps_u": 0.04}


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
    raw = {**BOUNDS_JSON, **EPS_JSON, "eps_erm": 0.1 + scale * PREMISE_TOLERANCE}
    try:
        want = sufficient_condition(BoundInputs(**raw)).to_json()
    except ValueError:
        want = None
    assert (want is None) == (abs(scale) > 1)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", write_json(tmp_path, "in.json", raw)])
    assert rc == 0
    assert json.loads(out).get("sufficient") == want


def test_bounds_from_inputs_file(tmp_path, capsys):
    raw = {**BOUNDS_JSON, **EPS_JSON}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path])
    assert rc == 0
    report = json.loads(out)
    assert report["b_erm"] == bound_erm(BoundInputs(**raw))


def test_bounds_flag_overrides_inputs_file(tmp_path, capsys):
    path = write_json(tmp_path, "inputs.json", BOUNDS_JSON)
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path, "--m", "200"])
    assert rc == 0
    report = json.loads(out)
    assert report["r_fast_d"] == r_fast(2, 200, 0.05)


@pytest.mark.parametrize("field", ["m", "d", "dstar", "d_a"])
def test_bounds_inputs_file_names_an_integer_too_large_for_a_float(tmp_path, capsys, field):
    raw = {**BOUNDS_JSON, field: 10**400}
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


def test_bounds_inputs_file_rejects_unknown_keys(tmp_path, capsys):
    # several unknown keys are named in sorted order; the harness adds one
    raw = {**BOUNDS_JSON, "foo": 1, "eps-erm": 0.1, "C": 2}
    path = write_json(tmp_path, "inputs.json", raw)
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert (rc, out, err) == (2, "", "input error: unknown bounds inputs: C, eps-erm, foo\n")


def test_bounds_missing_flags(capsys):
    rc, out, err = run_cli(capsys, ["bounds", "--m", "99"])
    assert (rc, out, err) == (2, "", "input error: missing bounds inputs: d, d_a, delta, dstar\n")


def test_bounds_inputs_file_missing_a_required_key_names_it(tmp_path, capsys):
    path = write_json(tmp_path, "inputs.json", {"delta": 0.05, "d": 2, "dstar": 1, "d_a": 3})
    rc, out, err = run_cli(capsys, ["bounds", "--inputs", path])
    assert (rc, out, err) == (2, "", "input error: missing bounds inputs: m\n")
    # a flag fills the key the file lacks
    rc, out, _ = run_cli(capsys, ["bounds", "--inputs", path, "--m", "99"])
    assert rc == 0 and json.loads(out)["r_fast_d"] == r_fast(2, 99, 0.05)


# --- sim --------------------------------------------------------------------------


SUPPORT_JSON = [
    {"x": 0, "xstar": 0, "y": 0, "p": 0.4},
    {"x": 1, "xstar": 1, "y": 1, "p": 0.35},
    {"x": 2, "xstar": 2, "y": 0, "p": 0.25},
]


def comparison_config(**extra) -> dict:
    return {"distribution": {"support": SUPPORT_JSON}, "h_class": H1_JSON,
            "phi_class": PHI1_JSON, "m": 20, "trials": 8, "delta": 0.05, "seed": 3, **extra}


def deviation_config(**extra) -> dict:
    return {"phi_class": class_to_json(full_class(4)), "eps": 0.1, "delta": 0.01,
            "m": 30, "trials": 5, "seed": 2, **extra}


def comparison_config_json(tmp_path, **extra) -> str:
    return write_json(tmp_path, "config.json", comparison_config(**extra))


def sim_config_json(tmp_path, kind: str, **extra) -> str:
    if kind == "comparison":
        return comparison_config_json(tmp_path, **extra)
    return write_json(tmp_path, "dev.json", deviation_config(**extra))


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
    assert (rc, out) == (2, "")
    assert err == f"input error: delta must be in (0, 1), got {float(delta)}\n"
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


def test_vc_rejects_unknown_class_keys(tmp_path, capsys):
    path = write_json(tmp_path, "h.json", {**H1_JSON, "oops": 0, "label": "X"})
    rc, out, err = run_cli(capsys, ["vc", path])
    assert (rc, out, err) == (2, "", "input error: unknown class keys: label, oops\n")


@pytest.mark.parametrize(
    "member", [["01"], ["0", None]], ids=["list-of-a-long-string", "list-with-null"]
)
def test_class_members_must_be_bit_strings(tmp_path, capsys, member):
    # a list member holds one-bit strings only; the harness pins members that are not lists
    path = write_json(tmp_path, "h.json", {"domain_size": 2, "hypotheses": ["01", member]})
    rc, out, err = run_cli(capsys, ["vc", path])
    assert (rc, out) == (2, "")
    assert err == 'input error: hypotheses[1] must be a bit string or a list of "0"/"1" strings\n'


def test_comparison_config_keys_are_the_keys_config_json_records(tmp_path, capsys):
    dist = distribution_from_json({"support": SUPPORT_JSON})
    H, Phi = construct_theorem1(1)
    configs = {
        "comparison": ExperimentConfig(dist, H, Phi, m=20, trials=8, delta=0.05, seed=3),
        "deviation": DeviationConfig(full_class(4, "X*"), eps=0.1, delta=0.01, m=30, trials=5),
    }
    for kind, cfg in configs.items():
        # from_json accepts every key to_json writes, and no other
        doc, read = cfg.to_json(), type(cfg).from_json
        assert read(doc, f"{kind} config") == cfg
        with pytest.raises(InputError, match=f"^unknown {kind} config keys: zz$"):
            read({**doc, "zz": 0}, f"{kind} config")
    # so a run's config.json is a comparison config, and replays the run
    runs = [tmp_path / "run", tmp_path / "replay"]
    configs = [comparison_config_json(tmp_path, c=2.5), str(runs[0] / "config.json")]
    for config, run in zip(configs, runs):
        assert run_cli(capsys, ["--output-dir", str(run), "sim", "--config", config])[0] == 0
    for name in ("config.json", "trials.csv", "summary.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_sim_deviation_unwritable_run_directory_is_an_io_error(tmp_path, capsys):
    path = sim_config_json(tmp_path, "deviation")
    run = tmp_path / "plain_file" / "run"
    run.parent.write_text("", encoding="utf-8")
    rc, out, err = run_cli(
        capsys, ["--output-dir", str(run), "sim", "--kind", "deviation", "--config", path]
    )
    assert (rc, out) == (4, "")
    assert err.startswith(f"i/o error: cannot write run directory {str(run)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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


def assert_usage_error(capsys, argv, error):
    # argparse rejects argv before any command runs, so no file named in it is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: priverm")
    assert captured.err.endswith(f"\npriverm: error: {error}\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        # priverm has no --mode: a lower bound comes only from a search cut by --budget
        (["vc", "h.json", "--mode", "lower-bound-only"],
         "unrecognized arguments: --mode lower-bound-only"),
        (["sim", "--config", "c.json", "--mode", "lower-bound-only"],
         "unrecognized arguments: --mode lower-bound-only"),
    ],
    ids=["vc-mode", "sim-mode"],
)
def test_retired_flags_are_usage_errors(capsys, argv, error):
    assert_usage_error(capsys, argv, error)


def test_every_command_rejects_a_bad_thread_count(capsys):
    # priverm has no --threads; it fails where it stands, before any subcommand,
    # so one command shows it for all.  A negative value is the one argparse
    # could read as a flag of its own
    assert_usage_error(capsys, ["--threads", "-3", "vc", "h.json"],
                       "unrecognized arguments: --threads -3")


USAGE_80 = (
    "usage: priverm [-h] [--seed SEED] [--format {json,csv,table}]\n"
    "               [--output-dir OUTPUT_DIR]\n"
    "               {vc,construct,erm,bounds,sim,verify} ...\n"
)


def test_a_misspelt_global_flag_is_named(capsys, monkeypatch):
    # argparse alone reads the flag's value as the command: invalid choice: '3'
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--sead", "3", "vc", "h.json"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", USAGE_80 + "priverm: error: unrecognized arguments: --sead 3\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--sead", "3", "--seed", "x", "vc", "h.json"], "unrecognized arguments: --sead 3\n"),
        (["--sead", "3", "--format", "xml", "vc"], "unrecognized arguments: --sead 3\n"),
        # a global flag with no value leaves argv unscanned: argparse's own line stays
        (["bogus", "--seed"], "argument command: invalid choice: 'bogus' "),
    ],
    ids=["bad-seed", "bad-format", "no-value"],
)
def test_a_misspelt_global_flag_is_named_beside_a_bad_value(capsys, monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    if error.endswith("\n"):
        assert err == USAGE_80 + "priverm: error: " + error
    else:
        # how argparse lists the choices after the invalid one differs between versions
        assert err.startswith(USAGE_80 + "priverm: error: " + error)


def test_sim_deviation(tmp_path, capsys):
    path = sim_config_json(tmp_path, "deviation", trials=50)
    rc, out, _ = run_cli(capsys, ["sim", "--config", path, "--kind", "deviation"])
    assert rc == 0
    report = json.loads(out)
    assert report["trials"] == 50
    assert 0.0 <= report["freq_claim"] <= 1.0
    assert report["p_star"] == pytest.approx((1 - report["alpha"]) / 2)


def test_sim_deviation_writes_file(tmp_path, capsys):
    path = sim_config_json(tmp_path, "deviation", trials=20)
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


def test_sim_deviation_run_directory_replays(tmp_path, capsys):
    # seed, heavy_side and search left out: config.json writes their defaults
    config = {k: v for k, v in deviation_config().items() if k != "seed"}
    runs = [tmp_path / "run", tmp_path / "replay"]
    configs = [write_json(tmp_path, "dev.json", config), str(runs[0] / "config.json")]
    for path, run in zip(configs, runs):
        argv = ["--output-dir", str(run), "sim", "--kind", "deviation", "--config", path]
        assert run_cli(capsys, argv) == (0, f"{run / 'deviation.json'}\n", "")
    written = json.loads((runs[0] / "config.json").read_text(encoding="utf-8"))
    assert written == {**config, "seed": 0, "heavy_side": None, "search": "prime"}
    manifest = json.loads((runs[0] / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["files"] == {"config": "config.json", "deviation": "deviation.json"}
    assert sorted(p.name for p in runs[0].iterdir()) == sorted(manifest["files"].values()) + [
        "manifest.json"
    ]
    for name in ("config.json", "deviation.json", "manifest.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "kinds", [("comparison", "deviation"), ("deviation", "comparison")], ids="-then-".join
)
def test_sim_run_directory_holds_only_the_files_its_manifest_lists(tmp_path, capsys, kinds):
    # a run removes the outputs of the other kind that an earlier run left,
    # and leaves every other file in the directory alone
    run, fresh = tmp_path / "run", tmp_path / "fresh"
    run.mkdir()
    (run / "notes.txt").write_text("kept", encoding="utf-8")
    for kind in kinds:
        path = sim_config_json(tmp_path, kind)
        printed = run / "deviation.json" if kind == "deviation" else run
        argv = ["--output-dir", str(run), "sim", "--kind", kind, "--config", path]
        assert run_cli(capsys, argv) == (0, f"{printed}\n", "")
    argv = ["--output-dir", str(fresh), "sim", "--kind", kinds[1], "--config", path]
    assert run_cli(capsys, argv)[0] == 0
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(p.name for p in run.iterdir()) == sorted(
        [*manifest["files"].values(), "manifest.json", "notes.txt"]
    )
    assert (run / "notes.txt").read_text(encoding="utf-8") == "kept"
    for p in fresh.iterdir():
        assert (run / p.name).read_bytes() == p.read_bytes()


def test_sim_stale_output_that_cannot_be_removed_is_an_io_error(tmp_path, capsys):
    path = sim_config_json(tmp_path, "deviation")
    run = tmp_path / "run"
    (run / "summary.json").mkdir(parents=True)
    rc, out, err = run_cli(
        capsys, ["--output-dir", str(run), "sim", "--kind", "deviation", "--config", path]
    )
    assert (rc, out) == (4, "")
    assert err.startswith(f"i/o error: cannot write run directory {str(run)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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
    assert (rc, out) == (2, "")
    assert err == f"input error: c must be positive and finite, got {float(c)}\n"
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


def test_erm_accepts_integral_floats(tmp_path, capsys):
    _, want, _ = run_cli(capsys, erm_files(tmp_path))
    rc, out, _ = run_cli(
        capsys, erm_files(tmp_path, {"domain_size": 3.0}, {"x": 0.0, "xstar": 0.0, "y": 0.0})
    )
    assert rc == 0
    assert out == want


def test_sim_accepts_integral_floats(tmp_path, capsys):
    _, want, _ = run_cli(capsys, ["sim", "--config", comparison_config_json(tmp_path)])
    path = comparison_config_json(tmp_path, m=20.0, trials=8.0, seed=3.0)
    rc, out, _ = run_cli(capsys, ["sim", "--config", path])
    assert rc == 0
    assert out == want


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
    path = sim_config_json(tmp_path, "deviation", heavy_side=heavy)
    rc, out, err = run_cli(capsys, ["sim", "--kind", "deviation", "--config", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: heavy_side bit")


def test_sim_deviation_null_heavy_side_is_the_default(tmp_path, capsys):
    runs = [
        run_cli(capsys, ["sim", "--kind", "deviation", "--config",
                         sim_config_json(tmp_path, "deviation", heavy_side=heavy)])
        for heavy in ([0, 0], None)
    ]
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


# --- every choice at its defaults -----------------------------------------------------


def parser_choices(command: str, option: str) -> tuple:
    """The choices that priverm's parser gives ``command``'s ``option``."""
    from priverm import cli

    sub = next(a for a in cli._PARSER._actions if a.dest == "command")
    return tuple(next(a.choices for a in sub.choices[command]._actions if a.dest == option))


DEFAULT_RUNS = (
    [["construct", "--what", what] for what in parser_choices("construct", "what")]
    + [["verify", "--suite", suite] for suite in SUITES]
    + [["sim", "--kind", kind] for kind in parser_choices("sim", "kind")]
)


@pytest.mark.parametrize("argv", DEFAULT_RUNS, ids=lambda argv: "-".join(argv[::2]))
def test_every_choice_runs_at_its_defaults(tmp_path, capsys, argv):
    # every other option at its default; sim reads a config of its required keys alone
    if argv[0] == "sim":
        kind = argv[-1]
        config, config_type = {"comparison": (comparison_config(), ExperimentConfig),
                               "deviation": (deviation_config(), DeviationConfig)}[kind]
        # the keys of the fields that the type's __init__ gives a default
        keys = [key for key, _, _ in config_type.KEYS]
        optional = keys[len(keys) - len(config_type.__init__.__defaults__):]
        required = {k: v for k, v in config.items() if k not in optional}
        argv = [*argv, "--config", write_json(tmp_path, "config.json", required)]
    rc, _, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")


# --- the input-fault contract: every node of every input ------------------------------

DELETE = object()
ODD_VALUES = [
    None, True, False, 0, -1, 3, 1.5, -0.5, 1e400, math.nan, 10**30, 2**64, 10**400,
    "", "0", "01", "x", "0.05", [], [0], ["0"], [[]], {}, {"x": 0},
]
NON_NUMBERS = [v for v in ODD_VALUES if isinstance(v, bool) or not isinstance(v, (int, float))]
# what each input's root is called, and what an object under each key is called
ROOT_NAMES = {"comparison": "comparison config", "deviation": "deviation config",
              "class": "class", "sample": "sample", "bounds": "bounds inputs"}
OBJECT_NAMES = {"distribution": "distribution", "support": "support point",
                "h_class": "class", "phi_class": "class", "triples": "triple"}
INT_FIELDS = {"domain_size", "x", "xstar", "y", "m", "trials", "seed", "d", "dstar", "d_a"}
REAL_FIELDS = {"p", "delta", "c", "eps", "eps_erm", "eps_ig", "eps_u"}
ARRAY_FIELDS = {"hypotheses", "triples", "support", "heavy_side"}
OPTIONAL_KEYS = {"seed", "c", "heavy_side", "search", "eps_erm", "eps_ig", "eps_u"}


def mutation_inputs() -> dict:
    """A valid input of each kind, with the optional keys it mutates; each run is quick."""
    return {
        "comparison": comparison_config(c=1.0),
        "deviation": deviation_config(heavy_side=[0, 1], search="prime"),
        "class": H1_JSON,
        "sample": SAMPLE_JSON,
        "bounds": {**BOUNDS_JSON, **EPS_JSON},
    }


def mutate(obj, path, value):
    """A copy of obj with the node at path replaced by value, or deleted if value is DELETE."""
    if not path:
        return value
    obj = dict(obj) if isinstance(obj, dict) else list(obj)
    key, rest = path[0], path[1:]
    if rest:
        obj[key] = mutate(obj[key], rest, value)
    elif value is DELETE:
        del obj[key]
    else:
        obj[key] = value
    return obj


def nodes(obj, path=()):
    """The path and value of every node of a JSON document: the root, objects, arrays, leaves."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from nodes(value, path + (key,))


def fault_runs(kind: str, doc) -> list:
    """Each run's changes, as ((path, value), ...): each odd value at each node, each
    key deleted, a key zz added to each object, and for the bounds inputs each pair
    of fields, the one first in ``BoundInputs`` order first, given each non-number and
    the next one."""
    tree = list(nodes(doc))
    runs = [((path, value),) for path, _ in tree for value in ODD_VALUES]
    runs += [((path, DELETE),) for path, _ in tree if path and isinstance(path[-1], str)]
    runs += [((path + ("zz",), 0),) for path, node in tree if isinstance(node, dict)]
    if kind == "bounds":
        pairs = itertools.combinations(BoundInputs._fields, 2)
        values = list(zip(NON_NUMBERS, NON_NUMBERS[1:] + NON_NUMBERS[:1]))
        runs += [(((a,), v), ((b,), w)) for a, b in pairs for v, w in values]
    return runs


def names_on_path(kind: str, path) -> set:
    """The root's name, and each key on the path with the name of the object under it."""
    keys = [k for k in path if isinstance(k, str)]
    return {ROOT_NAMES[kind], *keys, *(OBJECT_NAMES[k] for k in keys if k in OBJECT_NAMES)}


def input_fault(line: str) -> tuple:
    return 2, f"input error: {line}\n"


def rule_outcome(kind: str, path, value):
    """The (exit, stderr) that the five input-fault rules give for value at path, or
    None where none of them speaks.

    1. An integer field given a bool, a non-number or a fractional float, or a real
       field given a bool, a non-number or an integer too large for a float.
    2. A required key deleted; an optional one deleted exits 0.
    3. An unknown key ``zz`` added to an object.
    4. A list field given a non-array; ``heavy_side: null`` is the default.
    5. A class member that is neither a 0/1 string nor a list of "0"/"1" strings.
    """
    if not path:
        return None
    key, parent = path[-1], path[:-1]
    if value is DELETE or key == "zz":
        # the object that holds key, as a key message names it
        keys = [k for k in parent if isinstance(k, str)]
        held_by = "bounds inputs" if kind == "bounds" else (
            f"{OBJECT_NAMES[keys[-1]] if keys else ROOT_NAMES[kind]} keys")
        if value is not DELETE:
            return input_fault(f"unknown {held_by}: zz")
        return (0, "") if key in OPTIONAL_KEYS else input_fault(f"missing {held_by}: {key}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in INT_FIELDS and not (number and (isinstance(value, int) or value.is_integer())):
        return input_fault(f"{key} must be an integer, got {value!r}")
    if key in REAL_FIELDS and not number:
        return input_fault(f"{key} must be a number, got {value!r}")
    if key in REAL_FIELDS and isinstance(value, int) and value.bit_length() > 1024:
        return input_fault(f"{key} is too large for a float")
    if key in ARRAY_FIELDS and not isinstance(value, list):
        if key == "heavy_side" and value is None:
            return 0, ""
        return input_fault(f"{key} must be a JSON array")
    if parent[-1:] == ("hypotheses",) and not (
        isinstance(value, str) and not value.strip("01")
        or isinstance(value, list) and all(b in ("0", "1") for b in value)
    ):
        return input_fault(f'hypotheses[{key}] must be a bit string or a list of "0"/"1" strings')
    return None


# each kind's runs, and those where a rule gives the exact line; retired per-field
# tests rest on these, so a trimmed ODD_VALUES or input document fails here
HARNESS_REACH = {"comparison": (920, 571), "deviation": (708, 458), "class": (171, 117),
                 "sample": (350, 196), "bounds": (617, 533)}


@pytest.mark.parametrize("kind", list(ROOT_NAMES))
def test_every_node_of_every_input_fails_as_an_input_error(tmp_path, capsys, kind):
    # each run is in process; it exits 0, or 2, 3 or 4 with one line naming the first
    # changed node or an object that holds it, never 1 or 5 and never a traceback;
    # exit 2 prints nothing on stdout, and where a rule speaks it gives exit and line
    h, p = write_json(tmp_path, "h.json", H1_JSON), write_json(tmp_path, "p.json", PHI1_JSON)
    command = {
        "comparison": lambda f: ["sim", "--config", f],
        "deviation": lambda f: ["sim", "--kind", "deviation", "--config", f],
        "class": lambda f: ["vc", f],
        "sample": lambda f: ["erm", "--h-class", h, "--phi-class", p, "--sample", f],
        "bounds": lambda f: ["bounds", "--inputs", f],
    }[kind]
    doc = mutation_inputs()[kind]
    runs, exits, bad = fault_runs(kind, doc), set(), []
    pinned = sum(rule_outcome(kind, *changes[0]) is not None for changes in runs)
    assert (len(runs), pinned) == HARNESS_REACH[kind]
    for changes in runs:
        mutated = doc
        for path, value in changes:
            mutated = mutate(mutated, path, value)
        rc, out, err = run_cli(capsys, command(write_json(tmp_path, "input.json", mutated)))
        exits.add(rc)
        path, value = changes[0]
        want = rule_outcome(kind, path, value)
        named = any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", err)
                    for n in names_on_path(kind, path))
        if (
            rc not in (0, 2, 3, 4)
            or "Traceback" in err
            or rc == 2 and not (out == "" and err.startswith("input error: ")
                                and err.count("\n") == 1 and named)
            or want is not None and (rc, err) != want
            or kind == "comparison" and rc == 0 and json.loads(out)["failed_trials"] != []
        ):
            bad.append((changes, rc, err))
    assert not bad, f"{len(bad)} of {len(runs)} runs: " + "".join(
        "\n" + ", ".join(f"{list(path)} = {'deleted' if value is DELETE else repr(value)}"
                         for path, value in changes) + f": exit {rc}, {err.strip()!r}"
        for changes, rc, err in bad[:40]
    )
    # the input has a change that still runs and one that is bad input
    assert {0, 2} <= exits, exits


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
    "argv, err",
    [(["--suite", "lemma2", "--d", "2", "--dstar", "0"], "dstar must be >= 1, got 0"),
     (["--suite", "theorem2", "--d", "2", "--dstar", "6"],
      "dstar capped at 5 (4^dstar members), got 6"),
     (["--suite", "lemma2", "--d", "0", "--dstar", "2"], "d must be >= 1, got 0")],
    ids=["dstar-0", "dstar-6", "d-0"],
)
def test_verify_lemma2_names_the_flag_out_of_range(capsys, argv, err):
    # both flags go through construct_theorem1, whose messages name its d
    assert run_cli(capsys, ["verify", *argv]) == (2, "", f"input error: {err}\n")


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "theorem1"], ["verify", "--suite", "claims"],
     ["construct", "--what", "theorem1"]],
    ids=lambda argv: "-".join(argv[::2]),
)
def test_theorem1_takes_only_dstar_equal_to_d(capsys, argv):
    # theorem1 builds d* = d, so any other --dstar is bad input
    assert run_cli(capsys, [*argv, "--d", "1", "--dstar", "99"]) == (
        2, "", "input error: theorem1 builds d* = d, so dstar must be 1, got 99\n")
    # and --dstar equal to --d changes no byte
    want = run_cli(capsys, [*argv, "--d", "1"])
    assert want[0] == 0
    assert run_cli(capsys, [*argv, "--d", "1", "--dstar", "1"]) == want


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


# every command that prints a result, with a choice where it takes one
RESULT_COMMANDS = (
    ["vc", "bounds", "erm"]
    + [f"construct-{what}" for what in parser_choices("construct", "what")]
    + [f"sim-{kind}" for kind in parser_choices("sim", "kind")]
)


def result_argv(tmp_path, command: str) -> list:
    name, _, choice = command.partition("-")
    if name == "vc":
        return ["vc", write_json(tmp_path, "h1.json", H1_JSON)]
    if name == "bounds":
        return ["bounds", "--m", "99", "--delta", "0.05", "--d", "2", "--dstar", "1",
                "--d-a", "3"]
    if name == "erm":
        return erm_files(tmp_path)
    if name == "construct":
        return ["construct", "--what", choice]
    return ["sim", "--kind", choice, "--config", sim_config_json(tmp_path, choice)]


def assert_reads_back(want: dict, key: str, text: str) -> None:
    # lists and dicts come back as JSON, scalars as their text
    if isinstance(want[key], (list, dict)):
        assert json.loads(text) == want[key]
    else:
        assert text == str(want[key])


@pytest.mark.parametrize("command", RESULT_COMMANDS)
def test_format_csv_writes_one_field_per_key(tmp_path, capsys, command):
    argv = result_argv(tmp_path, command)
    rc, out, err = run_cli(capsys, ["--format", "csv", *argv])
    assert (rc, err) == (0, "")
    header, row = csv.reader(io.StringIO(out))
    _, json_out, _ = run_cli(capsys, argv)
    want = json.loads(json_out)
    assert header == sorted(want) and len(row) == len(header)
    for key, field in zip(header, row):
        assert_reads_back(want, key, field)


@pytest.mark.parametrize("command", RESULT_COMMANDS)
def test_format_table_writes_one_line_per_key(tmp_path, capsys, command):
    argv = result_argv(tmp_path, command)
    rc, out, err = run_cli(capsys, ["--format", "table", *argv])
    assert (rc, err) == (0, "")
    lines = [line.split(None, 1) for line in out.splitlines()]
    _, json_out, _ = run_cli(capsys, argv)
    want = json.loads(json_out)
    assert [key for key, _ in lines] == sorted(want)
    for key, text in lines:
        assert_reads_back(want, key, text)


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


def test_package_version_is_the_declared_one():
    # persist_run writes priverm.__version__ into every manifest.json
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert priverm.__version__ == declared


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


def test_cli_commands_without_numpy_never_import_it(tmp_path):
    # vc, construct, bounds and verify need no numpy; erm and sim import it
    code = (
        "import json, sys, priverm, priverm.cli\n"
        "assert priverm.ExperimentConfig is priverm.core.ExperimentConfig\n"
        "assert priverm.cli.main(['vc', sys.argv[1]]) == 0\n"
        "for what in json.loads(sys.argv[2]):\n"
        "    assert priverm.cli.main(['construct', '--what', what]) == 0, what\n"
        "assert priverm.cli.main(['verify', '--suite', 'claims']) == 0\n"
        "assert priverm.cli.main(['bounds', '--m', '9', '--delta', '0.1',"
        " '--d', '1', '--dstar', '1', '--d-a', '1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    whats = json.dumps(parser_choices("construct", "what"))
    proc = run_fresh(code, write_json(tmp_path, "h.json", H1_JSON), whats)
    assert proc.returncode == 0, proc.stderr


# each command with its exit code and the priverm modules it loads besides the
# package, cli, core and vc: only those whose code it runs.  None loads
# dataclasses or inspect, which would add several milliseconds to its start
COMMAND_MODULES = {
    "vc": (lambda t: ["vc", write_json(t, "h.json", H1_JSON)], 0, set()),
    "bounds": (lambda t: ["bounds", "--m", "99", "--delta", "0.05", "--d", "2",
                          "--dstar", "1", "--d-a", "3"], 0, {"bounds"}),
    **{f"construct-{what}": (lambda t, w=what: ["construct", "--what", w], 0, {"constructions"})
       for what in parser_choices("construct", "what")},
    **{f"verify-{suite}": (
        lambda t, s=suite: ["verify", "--suite", s], 0,
        {"constructions", "bounds"} if suite in ("lemma2", "theorem2") else {"constructions"})
       for suite in SUITES},
    # input faults found before any command module loads
    "erm-bad-input": (lambda t: erm_files(t, triple={"x": 3}), 2, set()),
    "sim-bad-input": (lambda t: ["sim", "--config", comparison_config_json(t, delta=1.5)], 2,
                      set()),
}


@pytest.mark.parametrize("argv, rc, extra", COMMAND_MODULES.values(), ids=COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, rc, extra):
    # each in a fresh interpreter, which reports its exit code and modules last
    code = (
        "import json, sys, priverm.cli\n"
        "rc = priverm.cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'priverm')\n"
        "slow = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "sys.stderr.write(json.dumps([rc, loaded, slow]))\n"
    )
    proc = run_fresh(code, *argv(tmp_path))
    base = {"priverm", "priverm.cli", "priverm.core", "priverm.vc"}
    want = [rc, sorted(base | {f"priverm.{m}" for m in extra}), []]
    assert json.loads(proc.stderr.splitlines()[-1]) == want, proc.stderr


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
    from priverm import bounds, core, simulate

    assert priverm.ExperimentConfig is core.ExperimentConfig is simulate.ExperimentConfig
    assert priverm.BoundInputs is core.BoundInputs is bounds.BoundInputs


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
        "BoundInputs DeviationConfig ExperimentConfig FiniteDomain FiniteDistribution "
        "Hypothesis HypothesisClass Triple TripleSample aux_loss composite_loss "
        "exact_true_error f_loss ignoring_loss zero_one_loss"
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
        "alpha_threshold bound_erm bound_pr d_a_interval necessary_condition "
        "r_fast r_slow sufficient_condition"
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


def test_bare_import_loads_no_submodule_and_every_name_resolves():
    # in a fresh interpreter, against the table above; a star import gives every name
    code = (
        "import json, sys, priverm\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('priverm.') or m == 'numpy')\n"
        "assert loaded == [], loaded\n"
        "exports = json.loads(sys.argv[1])\n"
        "listed = set(dir(priverm))\n"
        "for module, names in exports.items():\n"
        "    home = getattr(priverm, module)\n"
        "    assert home is sys.modules['priverm.' + module], module\n"
        "    for name in names.split():\n"
        "        assert name in listed, name\n"
        "        assert getattr(priverm, name) is getattr(home, name), name\n"
        "star = {}\n"
        "exec('from priverm import *', star)\n"
        "assert {n for names in exports.values() for n in names.split()} <= star.keys()\n"
    )
    proc = run_fresh(code, json.dumps(PACKAGE_EXPORTS))
    assert proc.returncode == 0, proc.stderr


def test_no_check_in_the_package_raises_a_builtin_input_type():
    # every argument check raises core.InputError or a subclass, the one type
    # main reads as bad input; a bare ValueError, TypeError or KeyError would
    # read as an internal error (exit 5)
    found = []
    for path in sorted(Path(priverm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name in ("ValueError", "TypeError", "KeyError"):
                    found.append(f"{path.name}:{node.lineno} raises {name}")
    assert found == []
