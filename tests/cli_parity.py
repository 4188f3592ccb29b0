"""CLI parity battery: run a fixed list of commands against a checkout
and compare the results of two checkouts.

    python tests/cli_parity.py record CHECKOUT RECORD.json
    python tests/cli_parity.py compare OLD.json NEW.json

`record` runs every command of BATTERY with CHECKOUT/src as the import
path, each in its own empty directory, and writes, per command,
its arguments, exit code and the sha256 of its stdout, its stderr and
each file it left in its directory; each directory it left, empty ones
included, is recorded as "directory".  `compare` lists the commands whose
results differ, with the parts that differ, and exits 1 if any do.

The battery covers every report (`exponents`, both `lab` commands,
`lab contraction` at dim 32, the largest the lab benchmark draws, and at
dim 1 seed 0 and dim 40 seed 3, the two ends of the lab tests' range,
`scaling-test`, `simulate` with a decay fit, `decay-test`,
`spectral-bound`), the heat models with whole and partial last steps,
both integrators of the frozen quasilinear march, a march that records
every third step and one that flags on a step it does not record, a
flagged decay test and the error paths, on small inputs, among them
refusals (a decay test from zero data, an odd `grid.nx`, scaling-test
data too wide for its box) that must leave no run directory behind,
and `simulate-snapshot-storage-big-beta`, an input that breaks both the
snapshot storage rule and the `cloud.beta` overflow rule, whose error
names the rule that refuses first, and `spectral-bound-n-max-0`, the
one path whose mode stack holds mode 0 alone, a real block that the
stack casts to complex.
Not collected by pytest: it has no `test_` prefix.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SMALL_STRIP = ["--set", "grid.nx=16", "--set", "grid.ny=12"]

# label -> arguments of `mildflow`
BATTERY = {
    "exponents-semilinear": ["exponents", "semilinear", "--n", "1", "--p", "2",
                             "--kappa", "6"],
    "exponents-quasilinear": ["exponents", "quasilinear", "--n", "1",
                              "--p", "2.5", "--kappa", "4", "--tau", "0.27"],
    "exponents-bare-semilinear": ["exponents", "semilinear"],
    "exponents-quasilinear-out": ["exponents", "quasilinear", "--out", "run"],
    "exponents-quasilinear-n2": ["exponents", "quasilinear", "--n", "2"],
    "exponents-subcritical": ["exponents", "semilinear", "--kappa", "3"],
    "exponents-infinite-kappa": ["exponents", "semilinear", "--kappa", "inf"],
    "exponents-huge-n": ["exponents", "semilinear", "--n", "1" + "0" * 400],
    "exponents-out-not-a-directory": ["exponents", "semilinear",
                                      "--out", "/dev/null/run"],
    "lab-contraction": ["lab", "contraction", "--dim", "8", "--seed", "0"],
    "lab-contraction-dim-32": ["lab", "contraction", "--dim", "32",
                               "--seed", "1"],
    "lab-contraction-dim-1": ["lab", "contraction", "--dim", "1",
                              "--seed", "0"],
    "lab-contraction-dim-40": ["lab", "contraction", "--dim", "40",
                               "--seed", "3"],
    "lab-contraction-dim-0": ["lab", "contraction", "--dim", "0"],
    "lab-decay": ["lab", "decay", "--dim", "4", "--seed", "2"],
    "lab-decay-varpi": ["lab", "decay", "--dim", "6", "--seed", "3",
                        "--varpi", "0.5"],
    "lab-decay-negative-seed": ["lab", "decay", "--seed", "-1"],
    "scaling-semilinear": ["scaling-test", "--lambda", "2", "--t-end", "0.1"],
    "scaling-quasilinear": ["scaling-test", "--kind", "quasilinear",
                            "--kappa", "3.5", "--t-end", "0.1"],
    "scaling-bad-lambda": ["scaling-test", "--lambda", "inf"],
    "scaling-blowup": ["scaling-test", "--amplitude", "100", "--t-end", "0.1"],
    "scaling-wide-data": ["scaling-test", "--half-width", "3", "--t-end", "2"],
    "simulate-cloud-fit": ["simulate", *SMALL_STRIP, "--t-end", "0.05"],
    "simulate-record-every": ["simulate", *SMALL_STRIP, "--t-end", "0.05",
                              "--record-every", "3"],
    "simulate-cloud-open-snapshots": ["simulate", "--open", *SMALL_STRIP,
                                      "--t-end", "0.01", "--snapshot-every",
                                      "5", "--init", "random"],
    "simulate-heat-semilinear": ["simulate", "--model", "heat-semilinear",
                                 "--t-end", "0.2"],
    "simulate-heat-semilinear-partial-step": ["simulate", "--model",
                                              "heat-semilinear", "--dt",
                                              "0.001", "--t-end", "0.0505"],
    "simulate-heat-semilinear-blowup": ["simulate", "--model",
                                        "heat-semilinear", "--amplitude",
                                        "80", "--t-end", "0.2"],
    "simulate-heat-semilinear-record-every-blowup": [
        "simulate", "--model", "heat-semilinear", "--amplitude", "80",
        "--t-end", "0.2", "--record-every", "7"],
    "simulate-heat-quasilinear": ["simulate", "--model", "heat-quasilinear",
                                  "--t-end", "0.05"],
    "simulate-heat-quasilinear-exp-euler": ["simulate", "--model",
                                            "heat-quasilinear", "--integrator",
                                            "exp_euler", "--t-end", "0.05"],
    "simulate-heat-quasilinear-partial-step": ["simulate", "--model",
                                               "heat-quasilinear", "--dt",
                                               "0.001", "--t-end", "0.0505"],
    "simulate-heat-quasilinear-a0-floor": ["simulate", "--model",
                                           "heat-quasilinear", "--a0", "1e-9",
                                           "--t-end", "0.05"],
    "simulate-heat-quasilinear-window": ["simulate", "--model",
                                         "heat-quasilinear", "--p", "2"],
    "simulate-heat-periodic": ["simulate", "--model", "heat-periodic",
                               "--n", "128", "--half-width", "8",
                               "--t-end", "0.05", "--snapshot-every", "10"],
    "simulate-unknown-key": ["simulate", "--set", "bogus=1"],
    "simulate-missing-config": ["simulate", "--config", "missing.cfg"],
    "simulate-zero-dt": ["simulate", "--dt", "0"],
    "simulate-odd-nx": ["simulate", "--nx", "63"],
    "simulate-snapshot-storage": ["simulate", "--t-end", "50",
                                  "--snapshot-every", "1", "--out", "a/b/run"],
    "simulate-snapshot-storage-big-beta": ["simulate", "--beta", "1e308",
                                           "--t-end", "50",
                                           "--snapshot-every", "1"],
    "decay-test": ["decay-test", *SMALL_STRIP, "--t-end", "1.0"],
    "decay-test-blowup": ["decay-test", "--amplitude", "1e3", "--t-end", "0.1",
                          *SMALL_STRIP],
    "decay-test-zero-init": ["decay-test", "--init", "zero"],
    "decay-test-unstable": ["decay-test", "--eta", "12"],
    "spectral-bound": ["spectral-bound"],
    "spectral-bound-open": ["spectral-bound", "--open", *SMALL_STRIP],
    "spectral-bound-n-max-0": ["spectral-bound", "--n-max", "0"],
    "spectral-bound-out-not-a-directory": ["spectral-bound",
                                           "--out", "/dev/null/run"],
    "help-exponents": ["exponents", "--help"],
    "help-lab-contraction": ["lab", "contraction", "--help"],
    "version": ["--version"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment(checkout: pathlib.Path) -> dict:
    """The caller's environment with CHECKOUT/src as the import path, no
    MILDFLOW_* overrides and one BLAS thread."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MILDFLOW_")}
    env["PYTHONPATH"] = str(checkout / "src")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_command(argv, env) -> dict:
    """Exit code and digests of one command run in a new directory."""
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-m", "mildflow.cli", *argv],
                              cwd=work, env=env, capture_output=True,
                              timeout=600)
        root = pathlib.Path(work)
        artifacts = {
            str(path.relative_to(root)):
                "directory" if path.is_dir() else _sha256(path.read_bytes())
            for path in sorted(root.rglob("*"))}
    return {"argv": argv, "exit": done.returncode,
            "stdout": _sha256(done.stdout), "stderr": _sha256(done.stderr),
            "artifacts": artifacts}


def record(checkout: str, path: str) -> int:
    env = _environment(pathlib.Path(checkout).resolve())
    results = {}
    for label, argv in BATTERY.items():
        results[label] = run_command(argv, env)
        print(f"{label}: exit {results[label]['exit']}", file=sys.stderr)
    pathlib.Path(path).write_text(json.dumps(results, indent=2) + "\n")
    return 0


def differences(old: dict, new: dict) -> dict:
    """label -> the parts of its result that differ (a command run by
    one side only differs in every part)."""
    parts = ("argv", "exit", "stdout", "stderr", "artifacts")
    found = {}
    for label in sorted(set(old) | set(new)):
        a, b = old.get(label, {}), new.get(label, {})
        changed = [part for part in parts if a.get(part) != b.get(part)]
        if changed:
            found[label] = changed
    return found


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(pathlib.Path(old_path).read_text())
    new = json.loads(pathlib.Path(new_path).read_text())
    found = differences(old, new)
    for label, changed in found.items():
        print(f"{label}: {', '.join(changed)} differ")
    print(f"{len(found)} of {len(set(old) | set(new))} commands differ")
    return 1 if found else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "record":
        return record(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
