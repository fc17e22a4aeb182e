"""Every step of the GitHub Actions workflow that this machine can run, one after another.

    python ci/local.py

Run from the repository root, on an interpreter with numpy, pytest and
hypothesis (Python 3.11 or later, as ``ci/smoke.py`` needs ``tomllib``).
The steps, each reported on one line as ``PASS``, ``FAIL`` or ``SKIP``:

- Tier-1 under this interpreter, plain and as the ``-X dev -W error`` leg;
- the benchmark oracle tests, the VC(F(3)) = 9 proof, ``ci/memory_ceiling.py``
  and ``ci/smoke.py``;
- under each other interpreter found (``python3.10`` to ``python3.13`` on
  PATH, and every Python 3.10+ under ``$PYENV_ROOT/versions``) that has no
  numpy, the numpy-free commands, among them a bad-input ``sim`` of each
  kind and a ``bounds --inputs`` run: each must give this interpreter's
  stdout, stderr and exit code;
- the 3.10, 3.12 and 3.13 Tier-1 legs, each under an interpreter found
  that has numpy, pytest and hypothesis; a workflow leg with no
  interpreter to run it here (such a Tier-1 leg, the NumPy 1.24 leg) is
  named with why;
- last, the clean-checkout check: no step may change ``git status``.

Exits 1 if any step fails.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
failed = False


def report(status: str, step: str, detail: str) -> None:
    global failed
    failed |= status == "FAIL"
    print(f"{status}  {step}: {detail}", flush=True)


def run(argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True, **kwargs)


def last_line(proc: subprocess.CompletedProcess) -> str:
    """The last line of output, cut to 120 characters."""
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1][:120] if lines else f"exit {proc.returncode}, no output"


def step(name: str, argv) -> None:
    proc = run(argv)
    report("PASS" if proc.returncode == 0 else "FAIL", name, last_line(proc))


def git_status() -> str | None:
    if shutil.which("git") is None:
        return None
    proc = run(["git", "status", "--porcelain"])
    return proc.stdout if proc.returncode == 0 else None


def probe(python: str) -> dict | None:
    """The interpreter's version and which test modules it has, or None if it does not run."""
    code = (
        "import importlib.util as u, json, sys; print(json.dumps({'version': "
        "sys.version_info[:2], 'prefix': sys.prefix, 'has': [m for m in "
        "('numpy', 'pytest', 'hypothesis') if u.find_spec(m)]}))"
    )
    try:
        proc = subprocess.run([python, "-c", code], capture_output=True, text=True, timeout=60)
        return json.loads(proc.stdout) if proc.returncode == 0 else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def interpreters() -> dict:
    """Each other Python 3.10+ found, by its path, with what ``probe`` reports."""
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    paths = [shutil.which(f"python3.{n}") for n in range(10, 14)]
    paths += sorted(glob.glob(os.path.join(pyenv, "versions", "3.*", "bin", "python3")))
    found, prefixes = {}, {sys.prefix}
    for path in filter(None, paths):
        info = probe(path)
        if info and info["prefix"] not in prefixes and info["version"] >= [3, 10]:
            prefixes.add(info["prefix"])
            found[path] = info
    return found


def numpy_free_commands(tmp: Path) -> list:
    """Command lines that end before numpy loads, with their input files in ``tmp``."""

    def write(name: str, obj) -> str:
        (tmp / name).write_text(json.dumps(obj), encoding="utf-8")
        return str(tmp / name)

    H = {"domain_size": 3, "hypotheses": ["000", "011", "101", "110"]}
    Phi = {"domain_size": 3, "hypotheses": ["000", "001", "010", "100"]}
    h, p = write("h.json", H), write("p.json", Phi)
    s = write("s.json", {"triples": [{"x": 3, "xstar": 0, "y": 0}]})
    bounds = {"m": 200, "delta": 0.05, "d": 1, "dstar": 1, "d_a": 3,
              "eps_erm": 0.1, "eps_ig": 0.05, "eps_u": 0.05}
    support = [{"x": 0, "xstar": 0, "y": 0, "p": 0.5}, {"x": 1, "xstar": 1, "y": 1, "p": 0.5}]
    # each bad: delta outside (0, 1), and trials 0
    comparison = {"distribution": {"support": support}, "h_class": H, "phi_class": Phi,
                  "m": 20, "trials": 8, "delta": 1.5}
    full4 = {"domain_size": 4, "hypotheses": [format(i, "04b") for i in range(16)]}
    deviation = {"phi_class": full4, "eps": 0.1, "delta": 0.01, "m": 30, "trials": 0}
    return [
        ["vc", h],
        *(["construct", "--what", what] for what in ("theorem1", "lemma1", "theorem5")),
        ["verify", "--suite", "claims"],
        ["bounds", "--m", "99", "--delta", "0.05", "--d", "2", "--dstar", "1", "--d-a", "3"],
        ["bounds", "--inputs", write("b.json", bounds), "--m", "300"],
        ["bounds", "--inputs", write("b_bad.json", {**bounds, "zz": 0})],
        ["erm", "--h-class", h, "--phi-class", p, "--sample", s],
        ["sim", "--config", write("comparison.json", comparison)],
        ["sim", "--kind", "deviation", "--config", write("deviation.json", deviation)],
        ["sim", "--kind", "deviation", "--config",
         write("search.json", {**deviation, "trials": 5, "search": "primee"})],
        ["--sead", "3", "vc", h],
        ["--sead", "3", "--seed", "x", "vc", h],
    ]


def main() -> int:
    here = "%d.%d" % sys.version_info[:2]
    before = git_status()
    tier1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    step(f"Tier-1, Python {here}", tier1)
    step(f"Tier-1, Python {here} -X dev -W error",
         [sys.executable, "-X", "dev", *tier1[1:], "-W", "error"])
    step("benchmark oracle tests", [sys.executable, "-m", "pytest", "-q", "perfbench/test_oracles.py"])
    step("VC(F(3)) = 9 proof",
         [sys.executable, "-m", "priverm.cli", "verify", "--suite", "theorem1", "--d", "3"])
    step("memory ceiling, aux(5,4)", [sys.executable, "ci/memory_ceiling.py"])
    step("benchmark smoke run", [sys.executable, "ci/smoke.py"])

    others = interpreters()
    with tempfile.TemporaryDirectory() as tmp:
        commands = numpy_free_commands(Path(tmp))
        argv = [["-m", "priverm.cli", *c] for c in commands]
        want = [run([sys.executable, *a]) for a in argv]
        for python, info in others.items():
            if "numpy" in info["has"]:
                continue
            name = "numpy-free commands, Python %d.%d (%s)" % (*info["version"], python)
            differ = []
            for a, w in zip(argv, want):
                got = run([python, *a])
                if (got.returncode, got.stdout, got.stderr) != (w.returncode, w.stdout, w.stderr):
                    differ.append(" ".join(a[2:4]))
            report("FAIL" if differ else "PASS", name,
                   f"differ from {here}: {', '.join(differ)}" if differ
                   else f"{len(argv)} commands, stdout, stderr and exit code as {here}")

    # the workflow's other Tier-1 legs, where an interpreter here can run them
    for minor in (10, 12, 13):
        python = next((path for path, info in others.items() if info["version"] == [3, minor]
                       and {"numpy", "pytest", "hypothesis"} <= set(info["has"])), None)
        if python:
            step(f"Tier-1, Python 3.{minor}", [python, *tier1[1:]])
        else:
            report("SKIP", f"Tier-1, Python 3.{minor}",
                   f"no Python 3.{minor} here has numpy, pytest and hypothesis")
    report("SKIP", "Tier-1, Python 3.10 with numpy==1.24.*",
           "it installs NumPy 1.24 first, and this script installs nothing")

    after = git_status()
    if before is None or after is None:
        report("SKIP", "the steps leave the checkout clean", "not a git checkout, or no git")
    else:
        new = sorted(set(after.splitlines()) - set(before.splitlines()))
        report("FAIL" if new else "PASS", "the steps leave the checkout clean",
               f"changed: {', '.join(new)}" if new else "git status unchanged")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
