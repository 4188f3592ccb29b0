"""Command-line behavior: exit codes, deterministic outputs, and the
documented example invocations."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mildflow import chebyshev, cli, cloud, heat, lab, propagators
from mildflow.cli import COMMANDS, FLAG_OPTIONS, _flag, main
from mildflow.config import CHOICES, KEYS, RunConfig
from oracles import read_csv, read_snapshot


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# the key sets of the report blocks built from records: a field added to
# a record changes a report only through an edit here
EXPONENT_KEYS = {"gamma", "alpha", "beta", "xi", "q", "mu"}
FIT_KEYS = {"rate", "amplitude", "residual", "samples", "sigma", "t_min"}


# ---------- exponents ----------

def test_exponents_semilinear_example(capsys):
    code, payload = run_json(
        capsys, ["exponents", "semilinear", "--n", "1", "--p", "2",
                 "--kappa", "6"])
    assert code == 0
    assert abs(payload["s_c"] - 0.1) < 1e-12
    assert payload["exponents"]["q"] == 6.0
    assert set(payload["exponents"]) == EXPONENT_KEYS
    assert payload["version"]


def test_exponents_quasilinear_reports_window(capsys):
    code, payload = run_json(
        capsys, ["exponents", "quasilinear", "--n", "1", "--p", "2.5",
                 "--kappa", "4", "--tau", "0.27"])
    assert code == 0
    assert payload["exponents"]["beta"] is not None
    assert payload["theta_holder"] > 0.0


@pytest.mark.parametrize("kind, p", [("semilinear", "2"),
                                     ("quasilinear", "2.5")])
def test_bare_exponents_take_the_heat_defaults_of_their_kind(capsys, kind, p):
    # the quasilinear window p > 2n excludes the shared default p = 2
    assert main(["exponents", kind]) == 0
    bare = capsys.readouterr().out
    assert main(["exponents", kind, "--n", "1", "--p", p, "--kappa",
                 str(RunConfig.heat_kappa), "--tau",
                 str(RunConfig.heat_tau)]) == 0
    assert bare == capsys.readouterr().out
    assert json.loads(bare)["p"] == float(p)


def test_exponents_subcritical_rejected():
    assert main(["exponents", "semilinear", "--n", "1", "--kappa", "3"]) == 2


def test_exponents_nonpositive_p_exit_2(capsys):
    assert main(["exponents", "quasilinear", "--p", "0"]) == 2
    assert "p must exceed 2n = 2" in capsys.readouterr().err
    assert main(["exponents", "semilinear", "--kappa", "0"]) == 2
    assert "kappa must exceed" in capsys.readouterr().err


# ---------- flag and command tables ----------

def test_flag_table_names_config_keys():
    for path, spec in COMMANDS.items():
        if spec.keys is None:
            continue
        keys = spec.keys.split()
        assert set(keys) <= set(KEYS), path
        assert "run.out" in keys, path
        flags = [_flag(key) for key in keys] + [
            flag for flag, _ in spec.arguments]
        assert len(flags) == len(set(flags)), path


def test_each_command_flags_exactly_the_keys_it_reads(tmp_path, monkeypatch):
    # the configuration of every run records the keys read from it;
    # summary.json's echo, which reads every key, is left out
    attrs = {attr: key for key, attr in KEYS.items()}
    reads = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if name in attrs:
                reads.add(attrs[name])
            return object.__getattribute__(self, name)

    parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config",
                        lambda *a, **k: Recording(**vars(parse(*a, **k))))
    monkeypatch.setattr(cli, "config_echo", lambda config: {})
    open_strip = ["--set", "grid.periodic=false"]
    runs = {
        ("simulate",): [*(["--model", model] for model in CHOICES["model"]),
                        open_strip],
        ("spectral-bound",): [[], open_strip],
        ("decay-test",): [["--t-end", "0.3"]],
        ("scaling-test",): [["--t-end", "0.05"]],
    }
    assert set(runs) == set(_CONFIGURED)
    small = ["--set", "grid.nx=16", "--set", "grid.ny=12", "--set",
             "solver.t_end=0.01"]
    unflagged, unread = {}, {}
    for path, variants in runs.items():
        reads.clear()
        for argv in variants:
            assert main([*path, *small, *argv, "--out",
                         str(tmp_path / "run")]) == 0, argv
        # a command that runs one model takes it from its row; the decay
        # test reads grid.periodic only to refuse the open strip
        spec = COMMANDS[path]
        owned = {"model"} if spec.model else set()
        if path == ("decay-test",):
            owned.add("grid.periodic")
        keys = set(spec.keys.split())
        unflagged[path] = sorted(reads - owned - keys)
        unread[path] = sorted(keys - reads)
    assert unflagged == unread == {path: [] for path in runs}


@pytest.mark.parametrize("path", sorted(COMMANDS) + [("lab",), ()])
def test_every_command_path_has_help(path, capsys):
    assert main([*path, "--help"]) == 0
    assert "usage: mildflow" in capsys.readouterr().out


def test_flag_overrides_set_and_set_overrides_command_default(tmp_path):
    out = tmp_path / "run"
    # command default solver.t_end=5.0 < --set < --t-end; a --set key
    # that no flag gives applies as well
    assert main(["decay-test", "--set", "solver.t_end=0.3", "--t-end", "0.05",
                 "--set", "cloud.nu=1.5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["solver.t_end"] == 0.05
    assert summary["config"]["cloud.nu"] == 1.5


def test_config_file_beats_command_default(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("solver.t_end = 0.1\n")
    out = tmp_path / "run"
    assert main(["decay-test", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["solver.t_end"] == 0.1


def test_environment_beats_command_default(tmp_path, monkeypatch):
    monkeypatch.setenv("MILDFLOW_HEAT_KAPPA", "7")
    out = tmp_path / "run"
    assert main(["scaling-test", "--t-end", "0.05", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kappa"] == 7.0
    # the defaults the environment leaves alone still apply
    assert summary["config"]["init.amplitude"] == 0.5


# the model of a command that runs one outranks every layer, and the
# --open and --kind flags outrank --set like every other flag
@pytest.mark.parametrize("argv, environ, field, value", [
    (["decay-test", "--set", "model=heat-semilinear", "--t-end", "0.05"],
     {}, "config.model", "cloud"),
    (["decay-test", "--t-end", "0.05"], {"MILDFLOW_MODEL": "heat-semilinear"},
     "config.model", "cloud"),
    # heat.p = 2 is outside the quasilinear window; spectral-bound never
    # reads it
    (["spectral-bound", "--set", "model=heat-quasilinear", "--set", "heat.p=2"],
     {}, "config.model", "cloud"),
    (["spectral-bound", "--open", "--set", "grid.periodic=true"], {},
     "periodic", False),
    (["scaling-test", "--kind", "semilinear", "--set", "heat.kind=quasilinear",
      "--t-end", "0.01"], {}, "kind", "semilinear"),
], ids=["decay-test-set", "decay-test-env", "spectral-bound-set",
        "open-over-set", "kind-over-set"])
def test_command_model_and_flags_outrank_set_and_environment(
        tmp_path, monkeypatch, argv, environ, field, value):
    for name, text in environ.items():
        monkeypatch.setenv(name, text)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for part in field.split("."):
        summary = summary[part]
    assert summary == value


def test_scaling_test_checks_the_storage_of_its_own_model(
        tmp_path, monkeypatch, capsys):
    # a 65536-point line needs about 2^31 resampling products per transform;
    # the stubs keep a roundtrip that skips its work bound from running them
    calls = []
    for name in ("run_simulation", "scaling_transform"):
        monkeypatch.setattr(heat, name, lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "run"
    assert main(["scaling-test", "--set", "model=cloud", "--n", "65536",
                 "--out", str(out)]) == 2
    assert "grid.n" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_scaling_test_refuses_wide_data_before_any_march(
        tmp_path, monkeypatch, capsys):
    # the default Gaussian reaches the edges of a half-width-3 box
    calls = []
    monkeypatch.setattr(heat, "run_simulation",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "run"
    assert main(["scaling-test", "--half-width", "3", "--t-end", "2",
                 "--out", str(out)]) == 2
    assert "rescaled support exits box" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_odd_nx_is_refused_in_configuration(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--nx", "63", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: grid.nx: must be even, got 63\n"
    assert not out.exists()


def test_snapshots_are_refused_above_the_storage_limit(
        tmp_path, monkeypatch, capsys):
    # 501 snapshots of the default strip's 24,288-byte state take 11.6 MiB,
    # above the 8 MiB limit; its mode stacks take 5.3 MiB, below it
    monkeypatch.setattr(propagators, "MAX_PROPAGATOR_BYTES", 8 << 20)
    # the refusal comes after the run directory is made; it is removed
    # again, with the parents made for it
    for out in (tmp_path / "run", tmp_path / "a" / "b" / "run"):
        assert main(["simulate", "--t-end", "0.5", "--snapshot-every", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: solver.snapshot_every, solver.t_end: the snapshots")
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "a").exists()


def test_numerical_failure_leaves_no_run_directory(
        tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise FloatingPointError("overflow in the march")

    monkeypatch.setattr(cli, "run_simulation", fail)
    out = tmp_path / "a" / "run"
    assert main(["simulate", "--t-end", "0.01", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "numerical failure: overflow in the march\n")
    assert list(tmp_path.iterdir()) == []


def test_unmakeable_run_directory_leaves_no_parents(tmp_path, capsys):
    # makedirs makes a/ and a/b/ before the 300-character name fails
    out = tmp_path / "a" / "b" / ("x" * 300)
    assert main(["exponents", "semilinear", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["decay-test", "--eta", "12"],
    ["simulate", "--t-end", "50", "--snapshot-every", "1"],
    ["lab", "decay", "--seed", "-1"]], ids=["decay-test", "simulate", "lab"])
def test_refusal_keeps_an_existing_run_directory(tmp_path, capsys, argv):
    # a refusal removes what it made under the existing directory, never
    # the directory itself
    kept = tmp_path / "run"
    kept.mkdir()
    for out in (kept, kept / "a" / "run"):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert kept.is_dir() and list(kept.iterdir()) == []


_HUGE = "2" * 400  # too large for a float quotient


@pytest.mark.parametrize("argv, key, stubs", [
    (["simulate", "--nx", "20000"], "grid.nx", ["cloud.mode_stack"]),
    (["simulate", "--set", "grid.nx=" + _HUGE], "grid.nx", ["cloud.mode_stack"]),
    (["spectral-bound", "--set", "grid.nx=" + _HUGE], "grid.nx",
     ["cloud.mode_stack"]),
    (["simulate", "--model", "heat-quasilinear", "--set", "heat.points=100000"],
     "heat.points", ["heat.quasilinear_recipe"]),
    (["simulate", "--model", "heat-semilinear", "--set",
      "heat.intervals=1000000"], "heat.intervals", ["heat.semilinear_recipe"]),
    (["scaling-test", "--n", "16384"], "grid.n",
     ["heat.run_simulation", "heat.scaling_transform"]),
    (["simulate", "--model", "heat-periodic", "--set", "grid.n=" + _HUGE],
     "grid.n", ["cli.PeriodicHeatModel"]),
    (["simulate", "--t-end", "50", "--snapshot-every", "1"],
     "solver.snapshot_every", ["cloud.mode_stack"]),
], ids=["nx", "nx-huge", "spectral-bound-nx-huge", "points", "intervals",
        "scaling-n", "periodic-n-huge", "snapshots"])
def test_storage_is_refused_where_it_is_allocated(
        tmp_path, monkeypatch, capsys, argv, key, stubs):
    # the owner of each storage rule refuses before the call that would
    # allocate; the stubs fail the test if that call is reached
    def fail(*args, **kwargs):
        raise AssertionError("allocated past the storage rule")

    modules = {"cli": cli, "cloud": cloud, "heat": heat}
    for stub in stubs:
        module, name = stub.split(".")
        monkeypatch.setattr(modules[module], name, fail)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the resampler is bounded by its work, every other owner by storage
    limit = "resampling products" if argv[0] == "scaling-test" else "GiB"
    assert err.startswith(f"error: {key}") and limit in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # spectral-bound takes no step, so the step plan is not its rule
    ["spectral-bound", "--set", "solver.t_end=0.0001"],
    # the periodic model reads no heat.tau
    ["scaling-test", "--kind", "quasilinear", "--set", "heat.tau=1.5",
     "--t-end", "0.05"],
    # spectral-bound builds 5 mode blocks, not the propagator of 10001
    ["spectral-bound", "--nx", "20000", "--n-max", "4"],
    # simulate builds no scaling resampler
    ["simulate", "--model", "heat-periodic", "--n", "16384", "--t-end", "0.002"],
], ids=["spectral-bound-t-end", "scaling-tau", "spectral-bound-nx",
        "periodic-n"])
def test_rules_of_work_a_command_skips_do_not_refuse_it(tmp_path, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


# ---------- spectral-bound ----------

def test_spectral_bound_beta_zero_example(tmp_path):
    out = str(tmp_path / "run")
    assert main(["spectral-bound", "--nu", "1", "--eta", "0", "--beta", "0",
                 "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert abs(summary["numeric_bound"] + math.pi ** 2) < 1e-6
    assert summary["periodic"] is True
    header, columns = read_csv(str(tmp_path / "run" / "modes.csv"))
    assert header == ["n", "re_lambda_max", "im_lambda_at_max"]
    assert columns[0][0] == 0.0
    assert np.all(np.diff(columns[0]) == 1.0)


def test_spectral_bound_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MILDFLOW_CLOUD_NU", "2.0")
    out = str(tmp_path / "run")
    assert main(["spectral-bound", "--beta", "0", "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert abs(summary["numeric_bound"] + 2.0 * math.pi ** 2) < 1e-6


def test_spectral_bound_n_max_above_half_grid(tmp_path):
    out = tmp_path / "run"
    assert main(["spectral-bound", "--open", "--n-max", "70",
                 "--out", str(out)]) == 0
    _, columns = read_csv(str(out / "modes.csv"))
    assert np.array_equal(columns[0], np.arange(71.0))
    assert json.loads((out / "summary.json").read_text())["n_max"] == 70


def test_spectral_bound_negative_n_max_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["spectral-bound", "--n-max", "-1", "--out", str(out)]) == 2
    assert "--n-max" in capsys.readouterr().err
    assert not out.exists()


def test_spectral_bound_oversized_n_max_refused_before_assembly(
        tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("mode stack assembled")

    monkeypatch.setattr(cloud, "mode_stack", fail)
    out = tmp_path / "run"
    assert main(["spectral-bound", "--n-max", "1000000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n-max" in err and "GiB" in err
    assert not out.exists()


def test_spectral_bound_inverts_no_block(tmp_path, monkeypatch):
    # the per-mode records need eig and cond, never an inverse; the
    # cumulative-integration table of ny = 12 inverts the Chebyshev
    # Vandermonde matrix once, so it is cached before inv is patched
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("a block was inverted")

    chebyshev.cumulative_matrix(12)
    monkeypatch.setattr(np.linalg, "inv", fail)
    out = tmp_path / "run"
    assert main(["spectral-bound", "--open", "--nx", "16", "--ny", "12",
                 "--out", str(out)]) == 0
    _, columns = read_csv(str(out / "modes.csv"))
    assert columns[0].tolist() == list(range(9))


@pytest.mark.parametrize("argv, key", [
    (["spectral-bound", "--beta", "1e308", "--nx", "8", "--ny", "8"],
     "cloud.beta"),
    (["spectral-bound", "--beta", "1e308", "--n-max", "1"], "cloud.beta"),
    (["spectral-bound", "--nu", "1e307"], "cloud.nu"),
    (["spectral-bound", "--eta", "nan"], "cloud.eta"),
    (["decay-test", "--beta", "1e200"], "cloud.beta"),
    (["spectral-bound", "--open", "--lx", "1e-300", "--set", "grid.nx=8",
      "--set", "grid.ny=8"], "grid.lx"),
])
def test_overflowing_cloud_coefficient_exit_2(tmp_path, capsys, argv, key):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--model", "heat-periodic", "--diffusion", "inf"],
     "heat.diffusion"),
    (["simulate", "--model", "heat-quasilinear", "--set", "heat.a0=inf"],
     "heat.a0"),
    (["simulate", "--amplitude", "inf"], "init.amplitude"),
    # the whole strip at wavenumber 0; a periodic run "completed"; a numpy
    # warning and exit 1
    (["simulate", "--set", "grid.periodic=false", "--set", "grid.lx=inf"],
     "grid.lx"),
    (["simulate", "--model", "heat-periodic", "--kappa", "inf"],
     "heat.kappa"),
    (["scaling-test", "--half-width", "inf"], "grid.half_width"),
])
def test_infinite_config_value_exit_2(tmp_path, capsys, argv, key):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--t-end", "0.01", "--out", str(out)]) == 2
    assert f"{key}: must be finite" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    # the squared wavenumber of the top mode overflows
    (["simulate", "--model", "heat-periodic", "--half-width", "1e-153"],
     "grid.half_width"),
    (["scaling-test", "--half-width", "1e-300"], "grid.half_width"),
    (["simulate", "--model", "heat-periodic", "--diffusion", "1e308"],
     "heat.diffusion"),
])
def test_overflowing_periodic_generator_exit_2(tmp_path, capsys, argv, key):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--t-end", "0.01", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


# ---------- simulate ----------

def test_zero_data_gives_zero_series(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--init", "zero", "--t-end", "0.02",
                 "--dt", "0.001", "--out", out]) == 0
    header, columns = read_csv(str(tmp_path / "run" / "series.csv"))
    assert header[0] == "t"
    for name, column in zip(header[1:], columns[1:]):
        assert np.all(column == 0.0), name


def test_identical_config_gives_identical_bytes(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--init", "random", "--seed", "7",
            "--t-end", "0.02", "--dt", "0.001", "--snapshot-every", "10",
            "--out", str(out)]
    assert main(argv) == 0
    first = {p.relative_to(out): p.read_bytes()
             for p in out.rglob("*") if p.is_file()}
    assert len(first) >= 4
    assert main(argv) == 0
    for rel, blob in first.items():
        assert (out / rel).read_bytes() == blob, rel


def test_summary_embeds_config_echo_and_version(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--init", "zero", "--t-end", "0.01",
                 "--dt", "0.001", "--nu", "1.25", "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["version"]
    assert summary["config"]["cloud.nu"] == 1.25
    assert summary["config"]["run.out"] == out
    assert summary["blowup"] is None


def test_snapshots_carry_grid_metadata(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--init", "mode", "--t-end", "0.01",
                 "--dt", "0.001", "--snapshot-every", "5",
                 "--out", str(out)]) == 0
    files = sorted((out / "snapshots").iterdir())
    assert [p.name for p in files] == [
        "step_00000000.bin", "step_00000005.bin", "step_00000010.bin"]
    values, lx, flags = read_snapshot(str(files[-1]))
    assert values.shape == (64, 48)
    assert abs(lx - 2.0 * math.pi) < 1e-15
    assert flags == 1


def test_unknown_key_and_bad_value_exit_2(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--set", "bogus.key=1", "--out", out]) == 2
    assert main(["simulate", "--set", "cloud.nu=0", "--out", out]) == 2


def test_missing_subcommand_exits_2():
    assert main([]) == 2


@pytest.mark.parametrize("flags", [
    ["--t-end", "inf"], ["--dt", "inf"], ["--dt", "1", "--t-end", "0.5"],
    # a step count that overflows: refused before the march
    ["--set", "grid.nx=8", "--set", "grid.ny=8", "--dt", "1e-300",
     "--t-end", "1e300"]])
def test_nonfinite_or_oversized_step_exits_2(tmp_path, capsys, monkeypatch,
                                            flags):
    # an infinite step fails its own key's rule; a bad plan names both
    # keys, and either is refused before the model is built
    def fail(*args):
        raise AssertionError("mode stack assembled")

    monkeypatch.setattr(cloud, "mode_stack", fail)
    key = "solver.dt" if flags == ["--dt", "inf"] else "t_end"
    out = str(tmp_path / "run")
    assert main(["simulate", "--init", "zero", *flags, "--out", out]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["0", "nan", "inf"])
def test_bad_step_names_solver_dt(tmp_path, capsys, dt):
    out = tmp_path / "run"
    assert main(["simulate", "--dt", dt, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: solver.dt: ")
    assert not out.exists()


# flag values of the CLI fuzz: degenerate numbers, text, and every
# allowed value of a configuration key
_FUZZ_VALUES = ("0", "-1", "nan", "inf", "-inf", "abc", "1e300", "8", "0.01",
                *sorted({value for values in CHOICES.values()
                         for value in values}))
# tiny grids, and two steps unless a flag sets the step or the horizon
_FUZZ_BASE = ("grid.nx=8", "grid.ny=8", "grid.n=64", "grid.half_width=8",
              "heat.intervals=8", "heat.points=9", "solver.dt=0.01",
              "solver.t_end=0.02")
_CONFIGURED = {path: spec.keys for path, spec in COMMANDS.items()
               if spec.keys is not None}


@st.composite
def _command_lines(draw):
    # up to four flags, a flag that takes no value (--open) without one,
    # and perhaps a --set of the model
    path = draw(st.sampled_from(sorted(_CONFIGURED)))
    keys = [key for key in _CONFIGURED[path].split() if key != "run.out"]
    argv = list(path)
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        argv.append(_flag(key))
        if "const" not in FLAG_OPTIONS.get(key, {}):
            argv.append(draw(st.sampled_from(_FUZZ_VALUES)))
    model = draw(st.sampled_from((None, *CHOICES["model"])))
    return argv if model is None else [*argv, "--set", f"model={model}"]


@given(_command_lines())
@example(["simulate", "--dt", "0"])
# enough steps of the fuzz's dt for a decay fit
@example(["decay-test", "--set", "model=heat-semilinear", "--t-end", "0.2"])
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_0_1_or_2(argv):
    # a completed run, a named numerical failure or a named constraint
    # error; an escaping exception fails the test
    sets = [arg for pair in _FUZZ_BASE for arg in ("--set", pair)]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([*argv, *sets, "--out", f"{tmp}/run"]) in (0, 1, 2)


# lab and exponents arguments: a positional one takes one of its choices,
# --dim at most 4, and up to three others a value from _FUZZ_VALUES
_LAB_ARGUMENTS = {path: dict(spec.arguments) for path, spec in COMMANDS.items()
                  if spec.keys is None}


@st.composite
def _lab_command_lines(draw):
    path = draw(st.sampled_from(sorted(_LAB_ARGUMENTS)))
    arguments = _LAB_ARGUMENTS[path]
    argv = [*path, *(draw(st.sampled_from(options["choices"]))
                     for flag, options in arguments.items()
                     if not flag.startswith("--"))]
    if "--dim" in arguments:
        argv += ["--dim", draw(st.sampled_from(("-1", "0", "1", "2", "3", "4")))]
    others = [flag for flag in arguments
              if flag.startswith("--") and flag not in ("--dim", "--out")]
    for flag in draw(st.lists(st.sampled_from(others), max_size=3, unique=True)):
        argv += [flag] if arguments[flag].get("action") == "store_true" else \
            [flag, draw(st.sampled_from(_FUZZ_VALUES))]
    return argv


@given(_lab_command_lines())
@example(["lab", "decay", "--dim", "3", "--varpi", "1e300"])
@settings(max_examples=40, deadline=None)
def test_lab_and_exponents_fuzz_exits_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([*argv, "--out", f"{tmp}/run"]) in (0, 1, 2)


def test_lab_decay_with_an_overflowing_strength_flags_every_scale(tmp_path):
    # the xi norm stays finite but epsilon times its power does not: the
    # march flags each scale instead of raising OverflowError
    out = tmp_path / "run"
    assert main(["lab", "decay", "--dim", "1", "--seed", "0",
                 "--epsilon", "1e150", "--out", str(out)]) == 0
    scales = json.loads((out / "summary.json").read_text())["scales"]
    assert len(scales) == 4
    for scale in scales:
        assert scale["bounded"] is False
        assert scale["blowup_time"] == pytest.approx(0.00495, rel=1e-3)


@pytest.mark.parametrize("argv, named", [
    (["exponents", "semilinear", "--kappa", "inf"], "kappa must be finite"),
    (["exponents", "quasilinear", "--tau", "nan"], "tau must be finite"),
    (["exponents", "semilinear", "--p=-inf"], "p must be finite"),
    (["lab", "contraction", "--dim", "3", "--seed", "-1"], "--seed"),
    (["lab", "decay", "--dim", "3", "--seed", "-1"], "--seed"),
    (["lab", "decay", "--dim", "3", "--varpi", "1e-300"], "varpi"),
    (["exponents", "semilinear", "--n", "1" + "0" * 400],
     "n must not exceed the largest float"),
    (["exponents", "quasilinear", "--n", "1" + "0" * 400],
     "n must not exceed the largest float"),
    # the default p = 2.5 misses the window p > 2n for n = 2
    (["exponents", "quasilinear", "--n", "2"],
     "error: --p: p must exceed 2n = 4, got 2.5; --tau: tau must satisfy"),
    (["exponents", "semilinear", "--n", "0"],
     "error: --n: dimension n must be a positive integer, got 0"),
    (["exponents", "semilinear", "--kappa", "4"],
     "error: --p: p >= n(kappa-1)/2"),
])
def test_lab_and_exponents_name_the_offending_input(tmp_path, capsys, argv,
                                                     named):
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


# ---------- heat ----------

def test_heat_blowup_recorded_with_exit_zero(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--model", "heat-semilinear",
                 "--init", "mode", "--amplitude", "80", "--t-end", "1.0",
                 "--dt", "0.001", "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["blowup"] is not None
    assert summary["blowup"]["time"] < 1.0
    assert summary["fitted"] is None


def test_flagged_run_reports_the_steps_taken(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "heat-semilinear",
                 "--amplitude", "50", "--t-end", "0.5",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup"]["time"] == 0.001
    assert summary["steps"] == 1
    assert summary["final"]["time"] == 0.001


def test_off_grid_t_end_ends_with_a_partial_step(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--set", "grid.nx=16", "--set", "grid.ny=12",
                 "--dt", "0.001", "--t-end", "0.0015", "--snapshot-every", "1",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["time"] == 0.0015
    assert summary["steps"] == 2
    _, columns = read_csv(str(out / "series.csv"))
    assert columns[0].tolist() == [0.0, 0.001, 0.0015]
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        f"step_{k:08d}.bin" for k in range(3)]


def test_one_sample_blowup_writes_series_without_weighted(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "heat-semilinear",
                 "--amplitude", "1e300", "--t-end", "0.01",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup"] is not None
    header, columns = read_csv(str(out / "series.csv"))
    assert "weighted" not in header
    assert columns[0].tolist() == [0.0]


def test_heat_quasilinear_p_outside_window_exit_2(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--model", "heat-quasilinear",
                 "--p", "2", "--out", out]) == 2
    assert main(["simulate", "--model", "heat-quasilinear",
                 "--kappa", "4", "--p", "2.5", "--tau", "0.27",
                 "--t-end", "0.05", "--dt", "0.001",
                 "--amplitude", "0.05", "--out", out]) == 0


# each heat model checks its exponent window when it is built; the CLI
# names the key of every violation
@pytest.mark.parametrize("argv, message", [
    # kappa = 3 sits exactly on the subcritical floor 1 + 2/n for n = 1
    (["simulate", "--model", "heat-semilinear", "--kappa", "3"],
     "heat.kappa: kappa must exceed 1 + 2/n = 3"),
    (["simulate", "--model", "heat-semilinear", "--kappa", "0"],
     "heat.kappa: kappa must exceed"),
    (["simulate", "--model", "heat-semilinear", "--kappa", "4"],
     "heat.p: p >= n(kappa-1)/2 = 1.5"),
    (["simulate", "--model", "heat-quasilinear", "--p", "2"],
     "heat.p: p must exceed 2n = 2"),
    (["simulate", "--model", "heat-quasilinear", "--p", "1.5"],
     "heat.p: p must exceed 2n = 2, got 1.5"),
    (["simulate", "--model", "heat-quasilinear", "--p", "2.5", "--tau", "0.1"],
     "heat.tau: tau must satisfy 1/2 < 2 tau"),
    (["simulate", "--model", "heat-periodic", "--kappa", "2.5"],
     "heat.kappa: kappa must exceed 3, got 2.5"),
    (["scaling-test", "--kappa", "3"], "heat.kappa: kappa must exceed 3, got 3.0"),
], ids=["semilinear-kappa-3", "semilinear-kappa-0", "semilinear-p",
        "quasilinear-p-2", "quasilinear-p-1.5", "quasilinear-tau",
        "periodic-kappa", "scaling-kappa"])
def test_heat_window_violations_exit_2_by_key(tmp_path, capsys, argv,
                                              message):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_heat_quasilinear_nonpositive_p_exit_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--model", "heat-quasilinear", "--p", "0",
                 "--out", out]) == 2
    assert "heat.p" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_heat_quasilinear_defaults_complete(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "heat-quasilinear",
                 "--t-end", "0.05", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["heat.p"] == 2.5
    assert summary["blowup"] is None


def test_diffusivity_floor_is_refused_before_the_march(tmp_path, capsys,
                                                     monkeypatch):
    # a(u) >= a0, so a0 alone decides the floor, when the model is built
    def fail(*args, **kwargs):
        raise AssertionError("marched past the diffusivity floor")

    monkeypatch.setattr(cli, "run_simulation", fail)
    out = tmp_path / "run"
    for a0 in ("1e-9", "0"):
        assert main(["simulate", "--model", "heat-quasilinear", "--a0", a0,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: heat.a0: must exceed 1e-08, got {float(a0)!r}\n")
    # the configuration checks the floor for every key, read or not
    assert main(["spectral-bound", "--set", "heat.a0=1e-9",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: heat.a0: must exceed 1e-08, got 1e-09\n")
    assert not out.exists()


def test_heat_quasilinear_nonfinite_diffusivity_flagged(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "heat-quasilinear", "--p", "2.5",
                 "--amplitude", "1e200", "--t-end", "0.05",
                 "--out", str(out)]) == 0
    assert "blow-up flagged" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup"]["time"] == 0.0
    assert summary["blowup"]["reason"] == "nonfinite"


def test_heat_small_data_completes(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--model", "heat-semilinear",
                 "--t-end", "0.2", "--dt", "0.001", "--amplitude", "0.01",
                 "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["blowup"] is None
    assert set(summary["fitted"]) == FIT_KEYS
    assert summary["model"] == "heat-semilinear"
    assert summary["final"]["norms"]["H1"] < 0.01


@pytest.mark.parametrize("command", [["simulate", "--set", "model=heat-periodic"],
                                     ["simulate", "--model", "heat-periodic"]])
@pytest.mark.parametrize("init", ["mode", "random"])
def test_heat_periodic_runs_and_writes_line_snapshots(tmp_path, command, init):
    out = tmp_path / "run"
    assert main([*command, "--init", init, "--t-end", "0.02", "--dt", "0.001",
                 "--snapshot-every", "10", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "heat-periodic" and summary["snapshots"] == 3
    for path in sorted((out / "snapshots").iterdir()):
        values, lx, flags = read_snapshot(str(path))
        assert values.shape == (1, summary["config"]["grid.n"])
        assert lx == 2.0 * summary["config"]["grid.half_width"]
        assert flags == 1


@pytest.mark.parametrize("argv, key, value", [
    (["simulate", "--model", "heat-periodic", "--n", "32"], "grid.n", 32),
    (["simulate", "--model", "heat-periodic", "--half-width", "4"],
     "grid.half_width", 4.0),
    (["simulate", "--model", "heat-periodic", "--kappa", "5"], "heat.kappa", 5.0),
    (["simulate", "--model", "heat-periodic", "--kind", "quasilinear"],
     "heat.kind", "quasilinear"),
])
def test_heat_periodic_flags_reach_their_keys(tmp_path, argv, key, value):
    out = tmp_path / "run"
    assert main([*argv, "--t-end", "0.002", "--dt", "0.001",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"][key] == value


@pytest.mark.parametrize("argv, key, value", [
    (["--model", "heat-semilinear", "--intervals", "32"], "heat.intervals", 32),
    (["--model", "heat-quasilinear", "--points", "33"], "heat.points", 33),
    (["--model", "heat-quasilinear", "--p", "3"], "heat.p", 3.0),
    (["--set", "grid.periodic=false", "--lx", "4", "--nx", "16", "--ny", "12"],
     "grid.lx", 4.0),
])
def test_simulate_heat_and_grid_flags_reach_their_keys(tmp_path, argv, key,
                                                       value):
    out = tmp_path / "run"
    assert main(["simulate", *argv, "--t-end", "0.01", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"][key] == value


@pytest.mark.parametrize("argv", [
    ["lab", "contraction", "--dim", "8", "--seed", "0"],
    ["simulate", "--nx", "16", "--ny", "12", "--t-end", "0.01"]])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv):
    # the reader of stdout is gone before the command prints
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mildflow.cli", *argv,
             "--out", str(tmp_path / "run")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode == 1, stderr
    assert "Traceback" not in stderr
    assert stderr.startswith("broken pipe: ")


def test_unreadable_or_unwritable_path_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    (tmp_path / "file").write_text("")
    unwritable = tmp_path / "file" / "run"  # a run directory under a file
    small = ["--set", "grid.nx=8", "--set", "grid.ny=8", "--t-end", "0.01"]
    for argv, path in [
            (["simulate", "--config", str(missing)], missing),
            (["spectral-bound", "--config", str(tmp_path)], tmp_path),
            (["simulate", *small, "--out", str(unwritable)], unwritable),
            (["exponents", "semilinear", "--out", str(unwritable)], unwritable),
            (["lab", "decay", "--dim", "3", "--out", str(unwritable)],
             unwritable)]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err, err


def test_unwritable_run_directory_is_refused_before_the_march(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_simulation", lambda *a: calls.append(a))
    (tmp_path / "file").write_text("")
    unwritable = tmp_path / "file" / "run"
    for command in ("simulate", "decay-test"):
        assert main([command, "--t-end", "0.5", "--out", str(unwritable)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 20] Not a directory: {str(unwritable)!r}\n")
    assert calls == []


@pytest.mark.parametrize("argv, work", [
    (["spectral-bound", "--nx", "512"], "mode_spectra"),
    (["scaling-test"], "scaling_roundtrip_test"),
    (["lab", "decay", "--dim", "32"], "decay_experiment")],
    ids=["spectral-bound", "scaling-test", "lab-decay"])
def test_unwritable_run_directory_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, argv, work):
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    (tmp_path / "file").write_text("")
    unwritable = tmp_path / "file" / "run"
    assert main([*argv, "--out", str(unwritable)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 20] Not a directory: {str(unwritable)!r}\n")
    assert calls == []


# ---------- decay-test ----------

def test_decay_test_without_a_fit_window_exit_2(tmp_path, capsys):
    # 500 steps recorded every 1000th: two samples, no rate to report
    out = tmp_path / "run"
    assert main(["decay-test", "--record-every", "1000", "--t-end", "0.5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: solver.t_end, solver.dt, solver.record_every: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_decay_test_zero_initial_data_exit_2(tmp_path, capsys):
    # zero data has no decay rate to fit: refused before any file is written
    out = tmp_path / "run"
    assert main(["decay-test", "--init", "zero", "--set", "grid.nx=16",
                 "--set", "grid.ny=12", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: init.kind: decay test needs nonzero initial data\n")
    assert not out.exists()


def test_decay_test_unstable_coefficients_exit_2(tmp_path):
    out = str(tmp_path / "run")
    assert main(["decay-test", "--eta", "12.0", "--out", out]) == 2


def test_decay_test_default_coefficients_decay(tmp_path):
    out = str(tmp_path / "run")
    assert main(["decay-test", "--t-end", "2.0", "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["decays"] is True
    assert summary["fitted"]["rate"] > 0.0
    assert set(summary["fitted"]) == FIT_KEYS
    assert summary["stability_margin"] > 0.0
    assert summary["bound_factor"] < 10.0


def test_decay_test_status_names_a_flagged_blowup(tmp_path, capsys):
    # a flagged run has no rate: its status line gives the blow-up's time
    # and reason, not "fitted decay rate nan", and the run still exits 0
    out = tmp_path / "run"
    assert main(["decay-test", "--amplitude", "1e3", "--t-end", "0.1",
                 "--set", "grid.nx=16", "--set", "grid.ny=12",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup"] == {"reason": "norm-threshold", "time": 0.008}
    assert capsys.readouterr().out == (
        f"blow-up flagged at t = 0.008 (norm-threshold) -> {out / 'summary.json'}\n")
    assert summary["fitted"] is None and summary["decays"] is False


# ---------- scaling-test ----------

def test_scaling_test_roundtrip_small(tmp_path):
    out = str(tmp_path / "run")
    assert main(["scaling-test", "--lambda", "2", "--t-end", "0.1",
                 "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["lambda"] == 2.0
    assert summary["nonlinear"]["discrepancy"] <= 1e-3
    assert summary["linear"]["discrepancy"] <= 1e-6
    for label in ("nonlinear", "linear"):
        assert set(summary[label]) == {"discrepancy", "reference_norm"}


def test_scaling_test_blowup_is_numerical_failure_exit_1(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["scaling-test", "--amplitude", "100", "--t-end", "0.1",
                 "--out", str(out)]) == 1
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["inf", "-inf", "nan", "0"])
def test_scaling_test_bad_lambda_names_the_flag(tmp_path, capsys, lam):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scaling-test", f"--lambda={lam}", "--t-end", "0.1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --lambda: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_linalg_error_is_numerical_failure_exit_1(tmp_path, capsys,
                                                  monkeypatch):
    # LinAlgError subclasses ValueError, the constraint-error exit
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "run_simulation", fail)
    assert main(["simulate", "--t-end", "0.01", "--dt", "0.001",
                 "--out", str(tmp_path / "run")]) == 1
    assert "numerical failure: eigenvalues did not converge" in \
        capsys.readouterr().err


# ---------- lab ----------

def test_lab_contraction_cli(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, payload = run_json(
        capsys, ["lab", "contraction", "--dim", "5", "--seed", "3",
                 "--out", out])
    assert code == 0
    assert payload["converged"] is True
    assert payload["contraction_ratio"] <= 0.5
    # every flag is a JSON boolean
    assert all(rec["satisfied"] is True
               for rec in payload["inequalities"].values())
    on_disk = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert on_disk == payload
    assert set(payload["parameters"]) == {"L", "r", "T"}
    assert set(payload["constants"]) == {"omega0", "lipschitz_n"}
    assert set(payload["exponents"]) == EXPONENT_KEYS


def test_lab_picard_divergence_is_numerical_failure_exit_1(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(lab, "PICARD_CONFIG",
                        replace(lab.PICARD_CONFIG, picard_max_iter=1))
    assert main(["lab", "contraction", "--dim", "4",
                 "--out", str(tmp_path / "run")]) == 1
    assert "numerical failure: Picard iteration did not settle" in \
        capsys.readouterr().err


def test_lab_decay_cli(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, payload = run_json(
        capsys, ["lab", "decay", "--dim", "4", "--seed", "2", "--out", out])
    assert code == 0
    assert payload["m_report"] is not None
    assert payload["m_report"] < 5.0 * payload["omega0"]
    assert set(payload) == {"version", "command", "dim", "seed", "omega0",
                            "varpi", "t_end", "m_report",
                            "largest_passing_scale", "scales"}
    for entry in payload["scales"]:
        assert set(entry) == {"scale", "quotient", "bounded", "blowup_time"}


def test_lab_contraction_dim_zero_exit_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["lab", "contraction", "--dim", "0", "--out", out]) == 2
    assert "dim" in capsys.readouterr().err


def test_lab_contraction_dim_above_storage_limit_exit_2(tmp_path, capsys):
    # refused before the (dim, dim) draw is allocated
    out = str(tmp_path / "run")
    assert main(["lab", "contraction", "--dim", "100000", "--out", out]) == 2
    assert "storage limit" in capsys.readouterr().err


def test_lab_decay_bad_varpi_exit_2(tmp_path):
    out = str(tmp_path / "run")
    assert main(["lab", "decay", "--dim", "4", "--seed", "2",
                 "--varpi", "50.0", "--out", out]) == 2


def test_lab_decay_infinite_horizon_exit_2(tmp_path, capsys):
    # varpi = 5e-324 puts the horizon 20/varpi at infinity
    out = str(tmp_path / "run")
    assert main(["lab", "decay", "--dim", "4", "--seed", "2",
                 "--varpi", "5e-324", "--out", out]) == 2
    assert "t_end" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_lab_decay_nonfinite_epsilon_exit_2(tmp_path, capsys, epsilon):
    out = tmp_path / "run"
    assert main(["lab", "decay", "--dim", "3", "--epsilon", epsilon,
                 "--out", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_lab_contraction_quasilinear_flag_is_a_usage_error(tmp_path, capsys):
    # the lab takes semilinear exponent sets only; argparse refuses the
    # flag before any run directory exists
    out = tmp_path / "run"
    assert main(["lab", "contraction", "--quasilinear",
                 "--out", str(out)]) == 2
    assert "unrecognized arguments: --quasilinear" in capsys.readouterr().err
    assert not out.exists()


def test_emitted_report_prints_what_it_writes(tmp_path, capsys, monkeypatch):
    # stdout and summary.json share one encoder, numpy values included
    monkeypatch.setattr(cli, "contraction_experiment", lambda **kwargs: {
        "count": np.int64(3), "flag": np.bool_(True),
        "values": np.arange(3.0)})
    assert main(["lab", "contraction", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / "summary.json").read_text()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize("command", [
    ["contraction"], ["decay", "--varpi", "0.05"], ["decay"]])
def test_lab_battery_exits_cleanly(tmp_path, capsys, command, dim, seed):
    # a completed run or a named constraint error, never a traceback; decay
    # runs at an explicit rate and at its default of half the spectral gap
    out = tmp_path / "run"
    code = main(["lab", *command, "--dim", str(dim), "--seed", str(seed),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        payload = json.loads(captured.out)
        assert payload == json.loads((out / "summary.json").read_text())
    else:
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("t_end, steps", [("0.02", 10), ("0.021", 11)])
@pytest.mark.parametrize("grid", [
    ["grid.nx=8", "grid.ny=8"],
    ["grid.nx=10", "grid.ny=9", "grid.periodic=false"],
    ["grid.nx=16", "grid.ny=12"]], ids=["8x8", "10x9-open", "16x12"])
@pytest.mark.parametrize("command", ["simulate", "decay-test"])
def test_strip_battery_exits_cleanly(tmp_path, capsys, command, grid, t_end,
                                     steps, seed):
    # on-grid and off-grid horizons (dt 0.002) on tiny strips: a run that
    # ends at t_end, or a named error, never a traceback.  decay-test runs
    # three times as long (30 and 32 steps), so its fit window holds the
    # ten samples a rate needs
    out = tmp_path / "run"
    sets = [arg for key in grid for arg in ("--set", key)]
    if command == "decay-test":
        t_end = {"0.02": "0.06", "0.021": "0.063"}[t_end]
    code = main([command, "--init", "random", "--seed", str(seed),
                 "--t-end", t_end, "--dt", "0.002", *sets, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith(("error: ", "numerical failure: "))
        return
    _, columns = read_csv(str(out / "series.csv"))
    assert columns[0][-1] == float(t_end)
    if command == "simulate":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["time"] == float(t_end)
        assert summary["steps"] == steps
