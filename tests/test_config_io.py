"""Configuration parsing (file, environment, overrides, validation) and
the atomic CSV/JSON/snapshot writers, including exact round trips."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mildflow import cloud, heat
from mildflow.cloud import CloudCoefficients, CloudModel
from mildflow.config import (
    KEYS,
    ConfigError,
    RunConfig,
    config_echo,
    env_name,
    parse_config,
)
from mildflow.exponents import ExponentError
from mildflow.heat import (PeriodicGrid, QuasilinearHeatModel,
                          SemilinearHeatModel, scaling_roundtrip_test)
from mildflow.io import (
    _atomic_write_bytes,
    atomic_write_text,
    format_float,
    sigma_label,
    trajectory_columns,
    write_csv,
    write_json,
    write_series,
    write_snapshot,
)
from mildflow.propagators import Propagator
from mildflow.solver import SolverConfig, run_simulation
from mildflow.strip import periodic_strip
from oracles import read_csv, read_snapshot


# ---------- configuration ----------

def test_defaults_match_cloud_contract():
    cfg = parse_config()
    assert cfg.model == "cloud"
    assert cfg.cloud_nu == 1.0
    assert cfg.cloud_eta == 0.0
    assert cfg.cloud_beta == 1.0
    assert cfg.grid_nx == 64
    assert cfg.grid_ny == 48


def test_every_key_has_env_name():
    for key in KEYS:
        name = env_name(key)
        assert name.startswith("MILDFLOW_")
        assert "." not in name


def test_file_parsing_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "cloud.nu = 2.5\n"
        "\n"
        "solver.t_end = 0.25  # trailing comment\n"
        "grid.periodic = false\n"
        "grid.lx = 12.0\n"
    )
    cfg = parse_config(str(path))
    assert cfg.cloud_nu == 2.5
    assert cfg.solver_t_end == 0.25
    assert cfg.grid_periodic is False
    assert cfg.grid_lx == 12.0


def test_unknown_key_names_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("cloud.nu = 1\nwrong.key = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert f"{path}:2" in str(err.value)
    assert "wrong.key" in str(err.value)


def test_precedence_file_env_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("cloud.nu = 2.0\n")
    env = {"MILDFLOW_CLOUD_NU": "3.0"}
    assert parse_config(str(path)).cloud_nu == 2.0
    assert parse_config(str(path), environ=env).cloud_nu == 3.0
    assert parse_config(str(path), overrides=["cloud.nu=4.0"],
                        environ=env).cloud_nu == 4.0


def test_defaults_sit_between_builtin_and_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("cloud.nu = 2.0\n")
    defaults = ["cloud.nu=5.0", "cloud.eta=0.5"]
    cfg = parse_config(str(path), defaults=defaults, environ={})
    assert (cfg.cloud_nu, cfg.cloud_eta) == (2.0, 0.5)
    assert parse_config(defaults=defaults,
                        environ={"MILDFLOW_CLOUD_ETA": "0.25"}).cloud_eta == 0.25
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(defaults=["cloud.mu=1"], environ={})


def test_invalid_viscosity_names_key_and_constraint():
    with pytest.raises(ConfigError) as err:
        parse_config(overrides=["cloud.nu=0"])
    assert "cloud.nu" in str(err.value)
    assert "positive" in str(err.value)


def test_heat_windows_are_left_to_the_models():
    # a window ties keys to the model that reads them, so the model checks
    # it when it is built (the CLI cases are in test_cli)
    config = parse_config(overrides=["model=heat-quasilinear", "heat.p=2"],
                          environ={})
    assert isinstance(config, RunConfig)
    with pytest.raises(ExponentError, match="p must exceed 2n = 2"):
        QuasilinearHeatModel(p=config.heat_p)


def test_heat_p_default_resolved_per_model():
    def heat_p(*overrides):
        return parse_config(overrides=list(overrides), environ={}).heat_p

    assert heat_p("model=heat-quasilinear") == 2.5
    assert heat_p("model=heat-semilinear") == 2.0
    assert heat_p("model=heat-quasilinear", "heat.p=3") == 3.0
    from_env = parse_config(overrides=["model=heat-quasilinear"],
                            environ={"MILDFLOW_HEAT_P": "2.2"})
    assert from_env.heat_p == 2.2


def test_bad_integrator_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(overrides=["solver.integrator=rk4"])
    assert "solver.integrator" in str(err.value)


def test_bad_boolean_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(overrides=["grid.periodic=maybe"])
    assert "grid.periodic" in str(err.value)


def _fail(*args, **kwargs):
    raise AssertionError("allocated past the storage rule")


def _scaling_roundtrip(n: int):
    return scaling_roundtrip_test(np.zeros(n), 2.0, 0.5, 0.01, "etdrk2",
                                  PeriodicGrid(n=n))


@pytest.mark.parametrize("overrides, key", [
    (["grid.nx=10000000"], "grid.nx"),
    (["model=heat-quasilinear", "heat.points=100000"], "heat.points"),
    (["model=heat-semilinear", "heat.intervals=1000000"], "heat.intervals"),
    # the scaling resampler's 65536 x 32769 products: about 2^31, above 2^26
    (["model=heat-periodic", "grid.n=65536"], "grid.n"),
    # too large for a float quotient; still named, not an OverflowError
    (["grid.nx=" + "2" * 400], "grid.nx"),
])
def test_oversized_grid_rejected_before_allocation(overrides, key, monkeypatch):
    # the configuration takes the size; the owner of the storage (or, for
    # the resampler, of the work) refuses it, and the first allocating call
    # after its rule is never reached
    config = parse_config(overrides=overrides, environ={})
    limit = "resampling products" if config.model == "heat-periodic" else "GiB"
    with pytest.raises(ValueError, match=rf"{key}.*{limit}"):
        if config.model == "cloud":
            monkeypatch.setattr(cloud, "mode_stack", _fail)
            CloudModel(CloudCoefficients(),
                       periodic_strip(config.grid_nx, config.grid_ny))
        elif config.model == "heat-quasilinear":
            monkeypatch.setattr(heat, "quasilinear_recipe", _fail)
            QuasilinearHeatModel(points=config.heat_points)
        elif config.model == "heat-semilinear":
            monkeypatch.setattr(heat, "semilinear_recipe", _fail)
            SemilinearHeatModel(intervals=config.heat_intervals)
        else:
            monkeypatch.setattr(heat, "run_simulation", _fail)
            monkeypatch.setattr(heat, "scaling_transform", _fail)
            _scaling_roundtrip(config.grid_n)


def test_periodic_storage_limit_near_11_6k_points(monkeypatch):
    # the resampler's n (n/2+1) products cross 2^26 between n = 11584 and
    # n = 11586; the configuration takes both, and the scaling roundtrip
    # refuses the larger before its first run
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    parse_config(overrides=["model=heat-periodic", "grid.n=11586"], environ={})
    monkeypatch.setattr(heat, "run_simulation", reached)
    with pytest.raises(Reached):
        _scaling_roundtrip(11584)
    with pytest.raises(ValueError, match="grid.n"):
        _scaling_roundtrip(11586)


_FUZZ_VALUES = st.one_of(
    st.sampled_from(["cloud", "heat-semilinear", "heat-quasilinear",
                     "heat-periodic", "semilinear", "quasilinear", "etdrk2",
                     "zero", "random", "true", "false", "nan", "inf", "-inf",
                     "0", "-1", "", "1e400", "2" * 400]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@given(st.lists(st.tuples(st.sampled_from(sorted(KEYS)), _FUZZ_VALUES),
                max_size=6))
@example([("model", "heat-quasilinear"), ("heat.p", "0")])
@example([("model", "heat-semilinear"), ("heat.kappa", "0")])
@example([("model", "heat-periodic"), ("grid.n", "2" * 400)])
@example([("grid.ny", "2" * 400)])
@settings(max_examples=300, deadline=None)
def test_parse_config_fuzz_gives_config_or_config_error(pairs):
    overrides = [f"{key}={value}" for key, value in pairs]
    try:
        config = parse_config(overrides=overrides, environ={})
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


def test_override_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides=["cloud.nu"])


def test_echo_is_flat_sorted_and_reparses():
    cfg = parse_config(overrides=["cloud.nu=1.5", "solver.dt=0.002"])
    echo = config_echo(cfg)
    assert list(echo) == sorted(echo)
    assert echo["cloud.nu"] == 1.5
    rebuilt = parse_config(overrides=[f"{k}={v}" for k, v in echo.items()])
    assert rebuilt == cfg


# ---------- io ----------

def test_float_format_round_trips_exactly():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(60) * 10.0 ** rng.integers(-250, 250, 60)
    values = np.concatenate([values, [0.0, 1e-300, 1e300, math.pi]])
    for v in values:
        assert float(format_float(v)) == v


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    t = np.linspace(0.0, 1.0, 7)
    v = np.exp(-3.0 * t) * math.pi
    write_csv(str(path), ["t", "value"], [t, v])
    header, cols = read_csv(str(path))
    assert header == ["t", "value"]
    assert np.array_equal(cols[0], t)
    assert np.array_equal(cols[1], v)


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), ["a", "b"],
                  [np.zeros(3), np.zeros(4)])


def test_json_sorted_keys_and_numpy_types(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"b": np.float64(2.5), "a": np.int64(1),
                           "arr": np.arange(3), "flag": np.bool_(True)})
    raw = path.read_text()
    assert raw.index('"a"') < raw.index('"arr"') < raw.index('"b"')
    assert json.loads(raw) == {"a": 1, "arr": [0, 1, 2], "b": 2.5,
                               "flag": True}


def test_snapshot_round_trip(tmp_path):
    path = tmp_path / "s.bin"
    field = np.arange(12.0).reshape(3, 4) * math.pi
    write_snapshot(str(path), field, lx=2.0 * math.pi, flags=1)
    values, lx, flags = read_snapshot(str(path))
    assert np.array_equal(values, field)
    assert lx == 2.0 * math.pi
    assert flags == 1


def test_snapshot_header_layout(tmp_path):
    # int32 nx, int32 ny, float64 lx, int32 flags, then row-major float64
    import struct
    path = tmp_path / "s.bin"
    field = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    write_snapshot(str(path), field, lx=7.5, flags=3)
    blob = path.read_bytes()
    nx, ny, lx, flags = struct.unpack_from("<iidi", blob)
    assert (nx, ny, lx, flags) == (3, 2, 7.5, 3)
    payload = np.frombuffer(blob[struct.calcsize("<iidi"):], dtype="<f8")
    assert np.array_equal(payload, field.ravel())


def test_snapshot_truncated_payload_rejected(tmp_path):
    path = tmp_path / "s.bin"
    write_snapshot(str(path), np.ones((2, 2)), lx=1.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(ValueError):
        read_snapshot(str(path))


def test_sigma_labels():
    assert sigma_label(0.0) == "L2"
    assert sigma_label(1.0) == "H1"
    assert sigma_label(1.5) == "H1.5"


def test_atomic_writes_leave_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "nest" / "x.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_atomic_write_keeps_the_old_target(tmp_path, monkeypatch,
                                                  failing):
    # the temp file goes, the error propagates, the target keeps its bytes
    target = tmp_path / "x.txt"
    target.write_text("old")
    payload = b"new"
    if failing == "write":
        payload = None  # not bytes: the handle's write raises TypeError
    else:
        def fail(*args):
            raise OSError("rename refused")
        monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(TypeError if failing == "write" else OSError):
        _atomic_write_bytes(str(target), payload)
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


def test_artifacts_take_the_mode_of_a_plain_open(tmp_path):
    # mkstemp creates 0600; the rename must not carry that to the artifact
    old = os.umask(0o022)
    try:
        write_json(str(tmp_path / "s.json"), {"a": 1})
        write_csv(str(tmp_path / "s.csv"), ["a"], [np.zeros(2)])
        write_snapshot(str(tmp_path / "s.bin"), np.ones((2, 2)), lx=1.0)
        assert os.umask(0o022) == 0o022  # the writers left it as it was
    finally:
        os.umask(old)
    for name in ("s.json", "s.csv", "s.bin"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


def test_series_columns_follow_monitored_norms(tmp_path):
    class Toy:
        propagator = Propagator.from_matrix(np.diag([-1.0, -2.0]))

        def nonlinearity(self, state):
            return np.zeros_like(state)

        def norm(self, state, sigma):
            return float(np.linalg.norm(state)) * (1.0 + sigma)

    trajectory = run_simulation(Toy(), np.array([1.0, 0.5]), SolverConfig(
        dt=0.01, t_end=0.1, monitor_sigmas=(0.0, 1.0),
        weighted_sigma=1.5, weighted_mu=0.25))
    header, columns = trajectory_columns(trajectory)
    assert header == ["t", "norm_L2", "norm_H1", "weighted", "f_norm"]
    path = tmp_path / "series.csv"
    write_series(str(path), trajectory)
    header2, cols2 = read_csv(str(path))
    assert header2 == header
    for a, b in zip(columns, cols2):
        assert np.array_equal(np.asarray(a, dtype=float), b)
