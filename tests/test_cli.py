import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tbdkit
from tbdkit import cli, currents, serialize
from tbdkit.cli import (
    ConfigError,
    DEFAULTS,
    load_config,
    main,
    parse_potential,
)
from tbdkit.operators import AliasingWarning, Grid
from tbdkit.potentials import Constant, GaussianG, TanhOfG, YukawaTanh
from tbdkit.scalar_product import form_pair


# ---------------------------------------------------------------------------
# Config handling


def test_defaults_are_self_contained():
    for command in DEFAULTS:
        cfg = load_config(command, None)
        assert cfg == DEFAULTS[command]
        assert cfg is not DEFAULTS[command]


def test_config_file_overrides_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "P0": 2.5}))
    cfg = load_config("compat", p)
    assert cfg["P0"] == 2.5
    assert cfg["n_fields"] == DEFAULTS["compat"]["n_fields"]


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "unexpected": 1}))
    with pytest.raises(ConfigError):
        load_config("compat", p)


def test_config_requires_schema_tag(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"P0": 2.5}))
    with pytest.raises(ConfigError):
        load_config("compat", p)
    p.write_text(json.dumps({"schema": "tbdkit-config/2", "P0": 2.5}))
    with pytest.raises(ConfigError):
        load_config("compat", p)


def test_config_command_tag_must_match(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "command": "toy"}))
    with pytest.raises(ConfigError):
        load_config("compat", p)
    assert load_config("toy", p) == DEFAULTS["toy"]


def test_benchmark_configs_load(tmp_path, monkeypatch):
    # the benchmark's smoke run checks its result schema, not verdicts, so
    # a key it sends that load_config stopped accepting would fail only
    # the benchmark: every step config of seeds 1-50, written as
    # perfbench/run.py writes it, must load and reach the config
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written under perfbench/
    path = Path(__file__).resolve().parent.parent / "perfbench" / "certs.py"
    spec = importlib.util.spec_from_file_location("perfbench_certs", path)
    certs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(certs)
    p = tmp_path / "cfg.json"
    green_choices = set()
    for workload in certs.WORKLOADS:
        for seed in range(1, 51):
            for step in (step for cert in certs.build(workload, seed) for step in cert.steps):
                doc = {"schema": "tbdkit-config/1", "command": step.command, **step.config}
                p.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="ascii")
                cfg = load_config(step.command, p)
                assert all(cfg[key] == value for key, value in step.config.items())
                if step.command == "conserve":
                    green_choices.add(cfg["green_choice"])
    assert green_choices == {"advanced", "retarded"}


def test_config_rejects_malformed_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config("toy", p)


def test_config_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_bytes(b'{"schema": "tbdkit-config/1", "P0": \xff}')
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        load_config("compat", p)


def test_parse_potential_all_kinds():
    assert parse_potential({"kind": "constant", "v": 0.3}) == Constant(v=0.3)
    pot = parse_potential(
        {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0}}
    )
    assert pot == TanhOfG(g=GaussianG(amplitude=0.5, width=1.0))
    yuk = parse_potential({"kind": "yukawa_tanh", "g1": 1.0, "g2": 2.0, "mu": 0.5})
    assert yuk == YukawaTanh(g1=1.0, g2=2.0, mu=0.5)


def test_parse_potential_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        parse_potential({"kind": "coulomb"})
    with pytest.raises(ConfigError):
        parse_potential({"kind": "constant"})  # missing v
    with pytest.raises(ConfigError):
        parse_potential({"kind": "tanh_of_g", "g": {"kind": "spline"}})
    with pytest.raises(ConfigError):
        parse_potential({"kind": "constant", "v": 0.0, "extra": 1})


# ---------------------------------------------------------------------------
# End-to-end commands (small, fast configurations)


def test_toy_command_passes(tmp_path, capsys):
    code = main(["toy", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "toy: PASS" in out
    report = json.loads((tmp_path / "toy.json").read_text())
    assert report["schema"] == "tbdkit-report/1"
    assert report["command"] == "toy"
    assert report["passed"] is True
    assert report["report"]["sweep"]["n_survivors"] == 0


def test_quiet_flag_suppresses_summary(tmp_path, capsys):
    code = main(["toy", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_parser_is_built_once_and_each_call_parses_its_own_arguments(tmp_path, capsys):
    cli._build_parser.cache_clear()
    assert main(["toy", "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["claim1", "--out", str(tmp_path / "b")]) == 0
    assert "tbdkit claim1: PASS" in capsys.readouterr().out
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["toy.json"]
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["claim1.json"]
    assert json.loads((tmp_path / "a" / "toy.json").read_text())["command"] == "toy"
    assert json.loads((tmp_path / "b" / "claim1.json").read_text())["command"] == "claim1"


def test_reports_are_byte_identical_across_runs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["toy", "--out", str(out_a), "--quiet"]) == 0
    assert main(["toy", "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "toy.json").read_bytes() == (out_b / "toy.json").read_bytes()


def test_bad_config_exits_with_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "wrong": True}))
    code = main(["toy", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_with_usage_error(tmp_path, capsys):
    code = main(["toy", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2


def test_kernel_command_flags_expected_violation(tmp_path):
    cfg = {
        "schema": "tbdkit-config/1",
        "command": "kernel",
        "potential": {"kind": "yukawa_tanh", "g1": 3.5449077018110318, "g2": 3.5449077018110318, "mu": 1.0},
        "P2_values": [1.0],
        "grid": {"n": 8, "L": 4.0},
        "expect_positive": False,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["kernel", "--config", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "kernel.json").read_text())
    assert report["report"]["scan"]["passed"] is False
    assert report["passed"] is True
    csv_lines = (tmp_path / "kernel_min_eigenvalues.csv").read_text().splitlines()
    assert csv_lines[0] == "r,points,min_eigenvalue"
    # one row per distinct radius: the n = 8 grid has 15
    assert len(csv_lines) == 1 + 15


def _point_eigenvalues(cfg, P2, r_sq):
    """The smallest form eigenvalue A - |B| of a kernel config at each
    grid point, evaluated point by point at its squared radius r_sq: the
    oracle of the per-radius CSV."""
    A, B = form_pair(cfg["flavor"], parse_potential(cfg["potential"]), P2, -r_sq)
    return A - np.abs(B)


def _run_kernel_csv(tmp_path, grid):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "grid": grid}))
    assert main(["kernel", "--config", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "kernel.json").read_text())
    return report["config"], report["report"]["scan"]["argmin_P2"], (tmp_path / "kernel_min_eigenvalues.csv").read_text()


def test_kernel_csv_matches_cell_by_cell_reference(tmp_path, reference_csv, reference_radius_sq):
    # the rows are the grid's distinct squared radii, in increasing order,
    # each with its number of points and the value a point-by-point
    # evaluation has at every one of them
    cfg, P2, text = _run_kernel_csv(tmp_path, {"n": 8, "L": 6.0})
    r_sq = reference_radius_sq(Grid(**cfg["grid"]))
    eigs = _point_eigenvalues(cfg, P2, r_sq)
    r2, first, inverse, counts = np.unique(r_sq, return_index=True, return_inverse=True, return_counts=True)
    values = eigs.ravel()[first]
    assert np.array_equal(values[inverse].reshape(eigs.shape), eigs)
    rows = zip(np.sqrt(r2).tolist(), counts.tolist(), values.tolist())
    assert text == reference_csv(("r", "points", "min_eigenvalue"), rows)


@pytest.mark.parametrize("grid", [
    {"n": 8, "L": 6.0},
    # h = 5/24 squares inexactly: the per-point (h/2)^2 q still puts each
    # radius on one row
    {"n": 24, "L": 5.0},
    {"n": 32, "L": 10.5},
], ids=["n8", "n24", "n32"])
def test_kernel_csv_rebuilds_the_point_by_point_table(tmp_path, reference_csv, reference_radius_sq, grid):
    # the per-point table (i, j, k, r, min_eigenvalue), read back from the
    # per-radius rows through Grid.radial, is that of a point-by-point
    # evaluation
    cfg, P2, text = _run_kernel_csv(tmp_path, grid)
    grid = Grid(**cfg["grid"])
    r_sq = reference_radius_sq(grid)
    eigs = _point_eigenvalues(cfg, P2, r_sq)
    rows = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    r, points, min_eig = (np.array(c) for c in zip(*rows))
    _, index = grid.radial
    assert np.array_equal(points, np.bincount(index.ravel()))
    header = ("i", "j", "k", "r", "min_eigenvalue")
    ijk = np.indices(index.shape).reshape(3, -1).tolist()
    rebuilt = zip(*ijk, r[index].ravel().tolist(), min_eig[index].ravel().tolist())
    by_point = zip(*ijk, np.sqrt(r_sq).ravel().tolist(), eigs.ravel().tolist())
    assert reference_csv(header, rebuilt) == reference_csv(header, by_point)


def test_inexact_grid_reports_each_radius_once(tmp_path):
    # h = 5/24 squares inexactly: grouping points by the float sums of
    # their squared coordinates would split one radius into several
    # entries, 661 for the 152 radii of this grid and 19 violating
    # entries for the crater ball's 4
    grid = {"n": 24, "L": 5.0}
    report, _ = cli.run_radius({**DEFAULTS["radius"], "flavor": "crater", "grid": grid})
    radii = report["scan"].violation_radii
    assert [points for _, points, _ in radii] == [8, 24, 24, 32]
    assert report["scan"].violation_count == 88
    assert report["passed"]
    _, _, text = _run_kernel_csv(tmp_path, grid)
    r = np.array([float(line.split(",")[0]) for line in text.splitlines()[1:]])
    assert r.size == 152
    assert np.all(np.diff(r) > 0)


def test_kernel_csv_formats_each_distinct_float_once(tmp_path, monkeypatch):
    _, extras = cli.run_kernel(load_config("kernel", None))
    ((fname, (header, columns)),) = extras.items()
    assert header == ("r", "points", "min_eigenvalue")
    # one row per distinct radius of the n = 32 grid
    r, points, _ = columns
    assert all(len(c) == 276 for c in columns)
    assert np.all(np.diff(r) > 0)  # this grid's squared radii are exact sums
    assert points.sum() == 32**3
    format_float, calls = serialize._format_float, []

    def counting_format_float(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(serialize, "_format_float", counting_format_float)
    serialize.write_csv(tmp_path / fname, header, columns)
    assert len(calls) == 2 * 276


def test_kernel_command_fails_on_unexpected_violation(tmp_path):
    cfg = {
        "schema": "tbdkit-config/1",
        "potential": {"kind": "yukawa_tanh", "g1": 3.5449077018110318, "g2": 3.5449077018110318, "mu": 1.0},
        "P2_values": [1.0],
        "grid": {"n": 8, "L": 4.0},
        "expect_positive": True,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["kernel", "--config", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 1


def test_claim1_command_passes(tmp_path):
    code = main(["claim1", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "claim1.json").read_text())
    assert report["report"]["free_max_divergence"] < 1e-12
    assert report["report"]["magnitude"] > 1e-3


def test_conserve_command_passes(tmp_path):
    code = main(["conserve", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "conserve.json").read_text())
    assert report["report"]["residual"] < 1e-8


def test_radius_command_with_small_grid(tmp_path):
    cfg = {"schema": "tbdkit-config/1", "grid": {"n": 16, "L": 4.0}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["radius", "--config", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "radius.json").read_text())["report"]
    # Omega, the root of r e^r = 1, and the absolute bound the run was held to
    assert report["analytic_radius"] == 0.5671432904097838
    assert report["agreement_tolerance"] == cli.AGREEMENT_TOLERANCE * report["analytic_radius"]


def test_gauge_command_passes(tmp_path):
    code = main(["gauge", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "gauge.json").read_text())
    assert report["report"]["relative_only"]["passed"] is True
    assert report["report"]["total_dependent"]["passed"] is True
    assert report["report"]["kernel_shift_magnitude"] > 0.01


def test_gauge_reduces_each_profile_once(tmp_path, monkeypatch):
    # one gauge pass: the test field built once, the form pairs at P and
    # P + a, each built once, and the field's t = 0 profile, built from
    # its waves in one product and reduced to densities before and after
    # the relative phase multiplies it; every kernel form reads those.
    calls = dict.fromkeys(("random_band_limited_field", "gauge_check", "form_pair", "equal_time_profile", "densities"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("random_band_limited_field", "gauge_check"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    for name in ("form_pair", "equal_time_profile", "densities"):
        monkeypatch.setattr(currents, name, counted(name, getattr(currents, name)))
    assert main(["gauge", "--out", str(tmp_path), "--quiet"]) == 0
    assert calls == {"random_band_limited_field": 1, "gauge_check": 1, "form_pair": 2, "equal_time_profile": 1, "densities": 2}


def test_warnings_of_a_run_that_writes_its_report_still_show(tmp_path):
    # main holds a run's warnings until its report is written, so that a
    # config that exits 2 prints one line; the test field's waves reach
    # the top of the band of an n=4 grid
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "n_fields": 1, "grid": {"n": 4, "L": 10.5}}))
    with pytest.warns(AliasingWarning):
        assert main(["compat", "--config", str(p), "--out", str(tmp_path), "--quiet"]) == 1
    assert (tmp_path / "compat.json").exists()


def test_gauge_checks_the_rest_frame_before_any_kernel(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a kernel was built before P + a was checked")

    monkeypatch.setattr(currents, "form_pair", must_not_run)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "a": [0.5, 0.1, 0, 0]}))
    assert main(["gauge", "--config", str(p), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tbdkit gauge: invalid configuration: ")
    assert "rest frame" in lines[0]
    assert not (tmp_path / "gauge.json").exists()


def _run_config(tmp_path, command, override, timeout=None):
    """A subprocess run of command on the defaults with override applied."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", **override}))
    return subprocess.run(
        [sys.executable, "-m", "tbdkit.cli", command, "--config", str(p), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("claim1", {"p0_window": [1.0, 1.1]}, "no dispersion roots in p0_window [1.0, 1.1] at p = [0, 0, 0]"),
        ("claim1", {"p0_window": [-1.2, 0.0]}, "p0_window [-1.2, 0.0] holds 1 dispersion root"),
        ("conserve", {"p0_window": [1.0, 1.1]}, "no dispersion roots in p0_window [1.0, 1.1]"),
        ("conserve", {"p_spatial_b": [0.0, 0.0, 0.0]}, "zero momentum transfer k = [0.0, 0.0, 0.0, 0.0]"),
        ("compat", {"n_fields": 0}, "n_fields must be at least 1, got 0"),
        ("claim1", {"scan_points": 341}, "unknown keys in claim1 config: ['scan_points']"),
        (
            "kernel",
            {
                "potential": {
                    "kind": "yukawa_tanh", "g1": 3.5, "g2": 3.5, "mu": 1.0,
                    "v": 0.9, "g": {"kind": "constant", "c": 1.0},
                },
                "P2_values": [1.0],
                "grid": {"n": 8, "L": 4.0},
                "expect_positive": False,
            },
            "unknown keys in yukawa_tanh potential spec: ['g', 'v']",
        ),
        (
            "kernel",
            {
                "potential": {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": 0.9, "width": 1.0, "c": 2.0}},
                "grid": {"n": 8, "L": 4.0},
            },
            "unknown keys in gaussian g spec: ['c']",
        ),
        ("kernel", {"grid": {"n": 8}}, "missing keys in grid spec: ['L']"),
        ("claim1", {"masses": {"m1": 1.0}}, "missing keys in masses: ['m2']"),
        # the free states are closed forms at any mass; the interacting arm
        # finds no root in the window
        ("claim1", {"masses": {"m1": 1e9, "m2": 1.3}}, "no dispersion roots in p0_window [-1.2, 0.5] at p = [0, 0, 0]"),
        ("compat", {"p0_modes": []}, "unknown keys in compat config: ['p0_modes']"),
        ("compat", {"waves_per_mode": 0}, "unknown keys in compat config: ['waves_per_mode']"),
        ("conserve", {"epsilons": [1e-2, 1e-3, 1e-4]}, "unknown keys in conserve config: ['epsilons']"),
        ("toy", {"sweep_rho_points": 0}, "sweep_rho_points and sweep_phi_points must be at least 1"),
        ("toy", {"sweep_phi_points": -3}, "must be at least 1, got 100 and -3"),
        ("kernel", {"expect_positive": "false"}, "expect_positive must be true or false, got 'false'"),
        ("kernel", {"P2_values": [4.0, -1.0]}, "P2_values entries must be positive numbers, got -1.0"),
        ("kernel", {"tolerance": "x"}, "unknown keys in kernel config: ['tolerance']"),
        ("kernel", {"P2_values": 5.0}, "P2_values must be a nonempty list, got 5.0"),
        ("kernel", {"P2_values": []}, "P2_values must be a nonempty list, got []"),
        ("kernel", {"grid": {"n": 8.7, "L": 4.0}}, "grid.n must be an integer, got 8.7"),
        ("compat", {"grid": {"n": "8", "L": 4.0}}, "grid.n must be an integer, got '8'"),
        ("radius", {"grid": {"n": True, "L": 4.0}}, "grid.n must be an integer, got True"),
        ("gauge", {"grid": {"n": 8, "L": "4.0"}}, "grid.L must be a number, got '4.0'"),
        ("kernel", {"tolerance": math.nan}, "unknown keys in kernel config: ['tolerance']"),
        ("kernel", {"grid": {"n": 8, "L": math.inf}}, "grid.L must be finite, got inf"),
        # one spelling per potential: the constant 0 is a constant, and
        # tanh_of_g takes a gaussian g only
        ("kernel", {"potential": {"kind": "zero"}}, "unknown potential kind: 'zero'"),
        (
            "kernel",
            {"potential": {"kind": "tanh_of_g", "g": {"kind": "constant", "c": 0.3}}},
            "unknown potential.g kind: 'constant'",
        ),
        (
            "kernel",
            {"potential": {"kind": "tanh_of_g", "g": {"kind": "polynomial", "coeffs": [0.2, -1.0]}}},
            "unknown potential.g kind: 'polynomial'",
        ),
        # V = tanh(artanh v) bounds a constant by 1: kernel read 1 - v^2 < 0
        # as a violation and compat ran, before Constant checked |v| < 1
        (
            "kernel",
            {"potential": {"kind": "constant", "v": 1.5}, "grid": {"n": 8, "L": 4.0}},
            "invalid configuration: constant potential v = 1.5 must satisfy |v| < 1",
        ),
        (
            "compat",
            {"potential": {"kind": "constant", "v": 1.5}, "grid": {"n": 8, "L": 4.0}, "n_fields": 1},
            "invalid configuration: constant potential v = 1.5 must satisfy |v| < 1",
        ),
        ("claim1", {"v": -1.0}, "invalid configuration: constant potential v = -1.0 must satisfy |v| < 1"),
        (
            "compat",
            {"potential": {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": "0.9", "width": 1.0}}},
            "potential.g.amplitude must be a number, got '0.9'",
        ),
        ("toy", {"sweep_rho_points": True}, "sweep_rho_points must be an integer, got True"),
        ("gauge", {"seed": 7.9}, "seed must be an integer, got 7.9"),
        ("compat", {"seed": -1}, "seed must be a non-negative integer, got -1"),
        ("gauge", {"seed": -1}, "seed must be a non-negative integer, got -1"),
        ("selfcheck", {"seed": -3}, "seed must be a non-negative integer, got -3"),
        ("conserve", {"p_spatial_a": []}, "p_spatial_a must be a list of 3 numbers, got []"),
        ("conserve", {"p_spatial_b": [0.6, 0, 0, 0]}, "p_spatial_b must be a list of 3 numbers, got [0.6, 0, 0, 0]"),
        ("gauge", {"c": [0.37, 0.21, -0.4]}, "c must be a list of 4 numbers, got [0.37, 0.21, -0.4]"),
        ("gauge", {"a": [0.5]}, "a must be a list of 4 numbers, got [0.5]"),
        ("claim1", {"p0_window": [-1.2, 0.0, 0.5]}, "p0_window must be a list of 2 numbers, got [-1.2, 0.0, 0.5]"),
        # a total momentum outside the rest frame names the key that made it
        ("compat", {"P0": 0.0}, "invalid configuration: P0 = 0.0: total momentum must be timelike"),
        (
            "gauge",
            {"a": [0.5, 0.1, 0, 0]},
            "a = [0.5, 0.1, 0.0, 0.0] shifts the total momentum to P + a = [2.5, 0.1, 0.0, 0.0]: rest frame requires",
        ),
        (
            "gauge",
            {"a": [-2.0, 0, 0, 0]},
            "a = [-2.0, 0.0, 0.0, 0.0] shifts the total momentum to P + a = [0.0, 0.0, 0.0, 0.0]: total momentum must be timelike",
        ),
    ],
    ids=[
        "claim1_empty_window",
        "claim1_one_root",
        "conserve_empty_window",
        "conserve_zero_transfer",
        "compat_no_fields",
        "scan_points",
        "potential_stray_keys",
        "g_stray_key",
        "grid_missing_key",
        "masses_missing_key",
        "claim1_no_free_roots",
        "compat_no_modes",
        "compat_no_waves",
        "conserve_epsilons_key",
        "toy_no_rho_points",
        "toy_no_phi_points",
        "kernel_expect_positive_string",
        "kernel_nonpositive_P2",
        "kernel_tolerance_string",
        "kernel_P2_not_list",
        "kernel_P2_empty",
        "grid_n_fraction",
        "grid_n_string",
        "grid_n_bool",
        "grid_L_string",
        "kernel_tolerance_nan",
        "kernel_grid_L_infinity",
        "potential_kind_zero",
        "g_kind_constant",
        "g_kind_polynomial",
        "kernel_constant_beyond_1",
        "compat_constant_beyond_1",
        "claim1_constant_at_minus_1",
        "gaussian_amplitude_string",
        "toy_rho_points_bool",
        "gauge_seed_fraction",
        "compat_seed_negative",
        "gauge_seed_negative",
        "selfcheck_seed_negative",
        "conserve_p_spatial_a_empty",
        "conserve_p_spatial_b_four_entries",
        "gauge_c_three_entries",
        "gauge_a_one_entry",
        "claim1_window_three_entries",
        "compat_P0_not_timelike",
        "gauge_a_spatial",
        "gauge_a_not_timelike",
    ],
)
def test_unusable_config_exits_2_without_traceback(tmp_path, command, override, message):
    proc = _run_config(tmp_path, command, override)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"tbdkit {command}: ")
    assert message in lines[0]


_N8 = {"grid": {"n": 8, "L": 8.0}}


@pytest.mark.parametrize(
    "command, override, message",
    [
        (
            "kernel",
            {"potential": {"kind": "yukawa_tanh", "g1": 1e300, "g2": 1e300, "mu": 1.0}, "grid": {"n": 8, "L": 4.0}},
            "coupling product g1 g2 = inf is not a finite number",
        ),
        # hypot forms the free energies without m1^2; the interacting roots lie
        # far outside the window
        ("claim1", {"masses": {"m1": 1e200, "m2": 1.3}}, "no dispersion roots in p0_window [-1.2, 0.5]"),
        # near the float limit -B^-1 A itself overflows, before any eigenvalue
        ("claim1", {"masses": {"m1": 1.7e308, "m2": 1.3}}, "masses (1.7e+308, 1.3), P0 = 3.0 and v = 0.3 overflow"),
        ("conserve", {"masses": {"m1": 1.7e308, "m2": 1.3}}, "masses (1.7e+308, 1.3), P0 = 3.0 and v = 0.3 overflow"),
        ("radius", {"P0": 1e-300, "grid": {"n": 8, "L": 4.0}}, "P0 = 1e-300 must have a positive finite square"),
        ("radius", {"P0": 1e200, "grid": {"n": 8, "L": 4.0}}, "P0 = 1e+200 must have a positive finite square"),
        ("radius", {"P0": -4.5e-120, "grid": {"n": 8, "L": 4.0}}, "P^2 = 2.025e-239 is too small"),
        (
            "radius",
            {"g1": 27.4, "g2": 1.02e184, "mu": 147.5, "P0": 1.287e154, "grid": {"n": 8, "L": 4.0}},
            "not finite at every grid point for P^2 = 1.6563689999999999e+308",
        ),
        # gauge norms that overflow: each message names the inputs
        ("gauge", {**_N8, "P0": 1e200}, "the potential, grid.L and P0 = 1e+200 overflow the norm at P"),
        ("gauge", {**_N8, "a": [1e300, 0, 0, 0]}, "the potential and a = [1e+300, 0.0, 0.0, 0.0] overflow the norm at P + a"),
        ("gauge", {**_N8, "c": [0, 1e308, 1e308, 0]}, "c = [0.0, 1e+308, 1e+308, 0.0] and grid.L overflow the relative phase"),
        (
            "gauge",
            {"potential": {"kind": "yukawa_tanh", "g1": 1e154, "g2": 1e154, "mu": 1.0}, "grid": {"n": 8, "L": 0.01}},
            "the potential, grid.L and P0 = 2.0 overflow the norm at P",
        ),
        # the residual itself overflows: its message names the inputs
        (
            "compat",
            {"n_fields": 1, "grid": {"n": 8, "L": 10.5}, "P0": 1e200},
            "masses (1.0, 1.3) and P0 = 1e+200 overflow the compatibility residual",
        ),
        (
            "compat",
            {"n_fields": 1, "grid": {"n": 8, "L": 10.5}, "masses": {"m1": 1e308, "m2": 1.3}},
            "masses (1e+308, 1.3) and P0 = 3.0 overflow the compatibility residual",
        ),
        # cell volumes outside the float range
        ("radius", {"grid": {"n": 8, "L": 1e200}}, "grid.L = 1e+200 puts the cell volume (L/n)^3 outside"),
        ("compat", {"n_fields": 1, "grid": {"n": 8, "L": 1e120}}, "grid.L = 1e+120 puts the cell volume"),
        ("gauge", {"grid": {"n": 8, "L": 1e120}}, "grid.L = 1e+120 puts the cell volume"),
        ("compat", {"n_fields": 1, "grid": {"n": 8, "L": 1e-120}}, "grid.L = 1e-120 puts the cell volume"),
    ],
    ids=[
        "kernel_coupling_overflow",
        "claim1_mass_square_overflow",
        "claim1_pencil_overflow",
        "conserve_pencil_overflow",
        "radius_tiny_P0",
        "radius_huge_P0",
        "radius_P2_pow_overflow",
        "radius_inf_form",
        "gauge_huge_P0",
        "gauge_huge_a",
        "gauge_huge_c",
        "gauge_yukawa_overflow",
        "compat_huge_P0",
        "compat_huge_m1",
        "radius_huge_L",
        "compat_cell_overflow",
        "gauge_cell_overflow",
        "compat_cell_underflow",
    ],
)
def test_overflowing_config_exits_2_without_hang_or_traceback(tmp_path, command, override, message):
    # finite, well-typed values whose products overflow or underflow: the
    # coupling used to be scanned into NaNs and then bisected over [0, inf]
    # forever, P0^2 underflowed to 0 or raised OverflowError, a report
    # that held NaN failed to serialize after its file was opened, and
    # (L/n)^3 raised OverflowError or gave a zero field norm
    proc = _run_config(tmp_path, command, override, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"tbdkit {command}: invalid configuration: ")
    assert message in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_runner_out_of_memory_exits_2_in_one_line(monkeypatch, tmp_path, capsys):
    def runner(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._RUNNERS, "toy", runner)
    assert main(["toy", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["tbdkit toy: configuration too large for memory: allocation failed"]
    assert list(tmp_path.iterdir()) == []


def test_config_too_large_for_memory_exits_2(tmp_path):
    # a 10^6 x 10^6 toy sweep asks numpy for 14.6 TiB; the address space is
    # capped at 1 GiB, so the allocation fails whatever the host's
    # overcommit policy (numpy and a default toy run fit in 512 MiB)
    import resource

    cap = 2**30
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "sweep_rho_points": 10**6, "sweep_phi_points": 10**6}))
    proc = subprocess.run(
        [sys.executable, "-m", "tbdkit.cli", "toy", "--config", str(p), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "TBDKIT_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tbdkit toy: configuration too large for memory: Unable to allocate")
    assert sorted(q.name for q in tmp_path.iterdir()) == ["cfg.json"]


def test_radius_beyond_2_13_ends_without_hang_or_traceback(tmp_path):
    # r* ~ 4.9e8, where adjacent doubles are 6e-8 apart: the bisection
    # must end there. The ball covers the n = 8 grid, so the scan's
    # boundary fails the run
    override = {"g1": 1e5, "g2": 1e5, "mu": 1e-9, "grid": {"n": 8, "L": 4.0}}
    proc = _run_config(tmp_path, "radius", override, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_radius_with_repulsive_coupling_passes(tmp_path):
    # A - |B| is even in the sign of g1 g2: the scan finds the ball of
    # |g1 g2|, and all three routes give its radius
    override = {"g2": -math.sqrt(4.0 * math.pi), "grid": {"n": 32, "L": 4.0}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", **override}))
    assert main(["radius", "--config", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "radius.json").read_text())["report"]
    for key in ("analytic_radius", "sazdjian_boundary_radius", "crater_boundary_radius"):
        assert abs(report[key] - 0.5671432904097838) <= report["agreement_tolerance"]


@pytest.mark.parametrize("g", [1e-3, 1e-5], ids=["r_7.96e-11", "r_7.96e-15"])
def test_radius_with_a_ball_far_below_the_grid_passes(tmp_path, g):
    # an absolute bound on the radii would be wider than r* itself; the
    # relative one is 16 eps r*, and the three routes meet it
    override = {"g1": g, "g2": g, "mu": 100.0, "P0": 1e3, "grid": {"n": 8, "L": 4.0}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", **override}))
    assert main(["radius", "--config", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "radius.json").read_text())["report"]
    radii = [report[key] for key in ("analytic_radius", "sazdjian_boundary_radius", "crater_boundary_radius")]
    assert min(radii) > 0
    assert max(radii) - min(radii) <= report["agreement_tolerance"] == cli.AGREEMENT_TOLERANCE * radii[0]


@pytest.mark.parametrize(
    "g, code", [(1e-80, 2), (0.0, 0), (1e-75, 0)], ids=["r_7.96e-162", "no_ball", "r_7.96e-152"]
)
def test_radius_below_the_ladder_exits_2_naming_r_star(tmp_path, capsys, g, code):
    # below 2^-511 r^2 is subnormal and the flavor routes read lambda_- > 0
    # at their first rung; a ball that small is named, not failed, while
    # no ball (r* = 0) and a ball just above the floor still pass
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "g1": g, "g2": g, "mu": 1.0, "P0": 1.0}))
    assert main(["radius", "--config", str(p), "--out", str(tmp_path), "--quiet"]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 2:
        assert err == [
            "tbdkit radius: invalid configuration: the violation radius r* = 7.957747154594767e-162 "
            "is below 2^-511 (about 1.5e-154), the smallest radius the flavor routes resolve"
        ]
        assert not (tmp_path / "radius.json").exists()
    else:
        report = json.loads((tmp_path / "radius.json").read_text())["report"]
        radii = [report[key] for key in ("analytic_radius", "sazdjian_boundary_radius", "crater_boundary_radius")]
        assert max(radii) - min(radii) <= report["agreement_tolerance"]


@pytest.mark.parametrize(
    "override, checked_by",
    [
        ({"mu": 0}, ()),
        ({"P0": 1e200}, ()),
        ({"g1": 1e-80, "g2": 1e-80, "mu": 1.0, "P0": 1.0}, ("violation_radius",)),
    ],
    ids=["mu_zero", "P0_huge", "r_star_below_the_ladder"],
)
def test_radius_checks_its_inputs_before_any_route(tmp_path, monkeypatch, capsys, override, checked_by):
    # r* is a closed form and the floor check needs it; no other route runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("a radius route ran before its inputs were checked")

    for route in ("violation_radius", "flavor_boundary_radius", "scan"):
        if route not in checked_by:
            monkeypatch.setattr(cli, route, must_not_run)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", **override}))
    assert main(["radius", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "tbdkit radius: invalid configuration: " in capsys.readouterr().err


def test_compat_rejects_non_numeric_tolerance_before_any_residual(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a residual was computed before the config was checked")

    monkeypatch.setattr(cli, "compatibility_residual", must_not_run)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "tolerance": "x"}))
    assert main(["compat", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "tolerance must be a number, got 'x'" in capsys.readouterr().err


def _leaves(path, value):
    """(dotted path, default) of every typed key below path; a record's
    kind is its tag, not a typed key."""
    if not isinstance(value, dict):
        yield path, value
        return
    for key, sub in value.items():
        if key != "kind":
            yield from _leaves(f"{path}.{key}" if path else key, sub)


def _wrong_values(default):
    if isinstance(default, bool):
        return [1]
    if isinstance(default, int):
        return [0.5, True]
    if isinstance(default, str):
        return [None]
    if isinstance(default, (list, tuple)):
        return ["x", None, math.nan, [None] * len(default)]
    return ["x", None, math.nan]


# Keys that were settable and are now program constants or were never
# read, with the values they used to default to: certificate bounds, the
# compat test field and gauge's masses. A config that sets one, to any
# value, exits 2 before the run.
_REMOVED = {
    "claim1": {"free_tolerance": 1e-12, "match_tolerance": 1e-10, "magnitude_floor": 1e-3},
    "conserve": {"tolerance": 1e-12},
    "kernel": {"tolerance": 1e-12},
    "gauge": {"tolerance": 1e-10, "masses": {"m1": 1.0, "m2": 1.3}},
    "radius": {"agreement_tolerance": 1e-9},
    "compat": {"p0_modes": [0.17, -0.4, 0.33], "waves_per_mode": 6, "max_index": 2},
}


def _settable(command):
    """The defaults of command with its removed keys put back."""
    return {**DEFAULTS[command], **_REMOVED.get(command, {})}


_KEY_WALK = [
    (command, path, wrong)
    for command in DEFAULTS
    for path, default in _leaves("", _settable(command))
    for wrong in _wrong_values(default)
]


@pytest.mark.parametrize(
    "command, path, wrong", _KEY_WALK, ids=[f"{c}-{p}-{json.dumps(w)}" for c, p, w in _KEY_WALK]
)
def test_every_config_key_rejects_a_wrong_type_before_the_run(tmp_path, monkeypatch, capsys, command, path, wrong):
    def must_not_run(cfg):
        raise AssertionError("the runner was called on an unchecked config")

    monkeypatch.setitem(cli._RUNNERS, command, must_not_run)
    head, *rest = path.split(".")
    value = copy.deepcopy(_settable(command)[head])
    if rest:
        record = value
        for key in rest[:-1]:
            record = record[key]
        record[rest[-1]] = wrong
    else:
        value = wrong
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", head: value}))
    assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"tbdkit {command}: config error: ")
    if head in _REMOVED.get(command, {}):
        assert lines[0].endswith(f"unknown keys in {command} config: [{head!r}]")
    else:
        assert path in lines[0]


_REMOVED_KEYS = [(command, key, value) for command, keys in _REMOVED.items() for key, value in keys.items()]


@pytest.mark.parametrize("command, key, value", _REMOVED_KEYS, ids=[f"{c}-{k}" for c, k, _ in _REMOVED_KEYS])
def test_removed_config_key_exits_2_as_unknown(tmp_path, monkeypatch, capsys, command, key, value):
    # even the value the key used to default to: a bound is not a setting
    def must_not_run(cfg):
        raise AssertionError("the runner was called on a config with a removed key")

    monkeypatch.setitem(cli._RUNNERS, command, must_not_run)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", key: value}))
    assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"tbdkit {command}: config error: unknown keys in {command} config: [{key!r}]"]


def test_config_values_are_echoed_as_given(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "tbdkit-config/1", "P0": 3, "p_spatial_b": [0.6, 0, 0]}))
    cfg = load_config("conserve", p)
    assert type(cfg["P0"]) is int and cfg["p_spatial_b"] == [0.6, 0, 0]
    assert main(["conserve", "--config", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    echoed = json.loads((tmp_path / "conserve.json").read_text())["config"]
    assert (echoed["P0"], echoed["p_spatial_b"]) == (3, [0.6, 0, 0])


# ---------------------------------------------------------------------------
# Thread pinning

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(Path(tbdkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def test_tbdkit_threads_overrides_inherited_thread_variable():
    proc = subprocess.run(
        [sys.executable, "-c", "import os, tbdkit.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True,
        text=True,
        env=_env(OPENBLAS_NUM_THREADS="8", TBDKIT_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def _default_artifacts(tmp_path, command, threads, *flags):
    """Name -> bytes of every file a default run writes (flags: extra
    arguments, such as a --config)."""
    out = tmp_path / f"threads{threads}"
    proc = subprocess.run(
        [sys.executable, "-m", "tbdkit.cli", command, *flags, "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=_env(TBDKIT_THREADS=threads),
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_selfcheck_is_byte_identical_across_thread_counts(tmp_path):
    assert _default_artifacts(tmp_path, "selfcheck", "1") == _default_artifacts(tmp_path, "selfcheck", "2")


@pytest.mark.parametrize("command", ["claim1", "conserve", "kernel", "radius", "toy", "gauge"])
def test_default_reports_are_byte_identical_across_thread_counts(tmp_path, command):
    # kernel also writes kernel_min_eigenvalues.csv
    assert _default_artifacts(tmp_path, command, "1") == _default_artifacts(tmp_path, command, "2")


def test_compat_report_is_byte_identical_across_thread_counts(tmp_path):
    # F(V chi) is one BLAS product per mode; one field of the default n = 32
    # runs it at the benchmark's size (the default's ten take about 3 s)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "tbdkit-config/1", "n_fields": 1}))
    one = _default_artifacts(tmp_path, "compat", "1", "--config", str(cfg))
    assert list(one) == ["compat.json"]
    assert one == _default_artifacts(tmp_path, "compat", "2", "--config", str(cfg))


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing every module and running
    # selfcheck must not load it
    code = (
        "import pkgutil, sys, tbdkit\n"
        "for mod in pkgutil.iter_modules(tbdkit.__path__):\n"
        "    __import__('tbdkit.' + mod.name)\n"
        "from tbdkit.cli import main\n"
        f"status = main(['selfcheck', '--out', {str(tmp_path)!r}, '--quiet'])\n"
        "print(status, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


# ---------------------------------------------------------------------------
# Config fuzzing: any JSON value at any key ends in exit 0, 1 or 2

_HUGE_AND_TINY = [0.0, -0.0, 5e-324, 1e-308, 1e-200, 1e-120, 0.01, 1e120, 1e154, 1e200, 1e300, 1e308, -1e308]
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_HUGE_AND_TINY), st.integers(-8, 8)
)
# Integers stay small, so a grid.n drawn anywhere is at most 8.
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _record(kind, **fields):
    return st.fixed_dictionaries({"kind": st.just(kind), **fields})


_POTENTIAL = st.one_of(
    _record("constant", v=_NUMBER),
    _record("tanh_of_g", g=_record("gaussian", amplitude=_NUMBER, width=_NUMBER) | _JSON),
    _record("yukawa_tanh", g1=_NUMBER, g2=_NUMBER, mu=_NUMBER),
)
_MASSES = st.fixed_dictionaries({"m1": _NUMBER, "m2": _NUMBER})
_GAUGE_KEYS = {
    "potential": _POTENTIAL,
    "P0": _NUMBER,
    "grid": st.fixed_dictionaries({"n": st.integers(-2, 8), "L": _NUMBER}),
    "seed": st.integers(-1, 2**64),
    "c": st.lists(_NUMBER, min_size=4, max_size=4),
    "a": st.lists(_NUMBER, min_size=4, max_size=4),
    "flavor": st.sampled_from(["free", "sazdjian", "crater"]),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional={key: value | _JSON for key, value in _GAUGE_KEYS.items()}))
@example({**_N8, "P0": 1e200})
@example({**_N8, "a": [1e300, 0, 0, 0]})
@example({**_N8, "c": [0, 1e308, 1e308, 0]})
@example({"potential": {"kind": "yukawa_tanh", "g1": 1e154, "g2": 1e154, "mu": 1.0}, "grid": {"n": 8, "L": 0.01}})
@example({"grid": {"n": 8, "L": 1e120}})
@example({**_N8, "a": [0.5, 0.1, 0, 0]})
@example({**_N8, "potential": {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": 1.0, "width": 1e200}}})
def test_gauge_config_never_raises(override):
    # the defaults' grid is n=16; every drawn config runs at n <= 8
    override.setdefault("grid", {"n": 8, "L": 8.0})
    _exits_0_1_or_2("gauge", override)


def _exits_0_1_or_2(command, override):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "cfg.json"
        p.write_text(json.dumps({"schema": "tbdkit-config/1", **override}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--config", str(p), "--out", tmp, "--quiet"]) in (0, 1, 2)


_CLAIM1_KEYS = {
    "masses": _MASSES,
    "P0": _NUMBER,
    "v": _NUMBER,
    "p0_window": st.lists(_NUMBER, min_size=2, max_size=2),
}
_CONSERVE_KEYS = {
    **_CLAIM1_KEYS,
    "p_spatial_a": st.lists(_NUMBER, min_size=3, max_size=3),
    "p_spatial_b": st.lists(_NUMBER, min_size=3, max_size=3),
    "green_choice": st.sampled_from(["advanced", "retarded"]),
}


_RADIUS_KEYS = {
    "g1": _NUMBER,
    "g2": _NUMBER,
    "mu": _NUMBER,
    "P0": _NUMBER,
    "flavor": _GAUGE_KEYS["flavor"],
    "grid": st.fixed_dictionaries({"n": st.integers(-2, 16), "L": _NUMBER}),
}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional={key: value | _JSON for key, value in _RADIUS_KEYS.items()}))
@example({"g2": -math.sqrt(4.0 * math.pi)})
@example({"P0": 1e-160})
@example({"mu": 1e300})
def test_radius_config_never_raises(override):
    # the defaults' grid is n=32; every drawn config runs at n <= 16
    override.setdefault("grid", {"n": 16, "L": 4.0})
    _exits_0_1_or_2("radius", override)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional={key: value | _JSON for key, value in _CLAIM1_KEYS.items()}))
@example({"masses": {"m1": 1e200, "m2": 1.3}})
def test_claim1_config_never_raises(override):
    _exits_0_1_or_2("claim1", override)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional={key: value | _JSON for key, value in _CONSERVE_KEYS.items()}))
@example({"p_spatial_b": [0.0, 0.0, 0.0]})
def test_conserve_config_never_raises(override):
    _exits_0_1_or_2("conserve", override)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**40))
@example(10**40)
def test_selfcheck_seed_never_raises(seed):
    # each seed draws selfcheck's compat field; the report echoes it
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "cfg.json"
        p.write_text(json.dumps({"schema": "tbdkit-config/1", "seed": seed}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["selfcheck", "--config", str(p), "--out", tmp, "--quiet"])
        report = json.loads((Path(tmp) / "selfcheck.json").read_text())
    assert code in (0, 1)
    assert report["config"]["seed"] == report["report"]["seed"] == seed


_COMPAT_KEYS = {
    "potential": _POTENTIAL,
    "masses": _MASSES,
    "P0": _NUMBER,
    "grid": st.fixed_dictionaries({"n": st.integers(-2, 16), "L": _NUMBER}),
    "n_fields": st.integers(-1, 2),
    "seed": _GAUGE_KEYS["seed"],
    "realization": st.sampled_from(["analytic", "composed"]),
    "tolerance": _NUMBER,
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional={key: value | _JSON for key, value in _COMPAT_KEYS.items()}))
@example({"grid": {"n": 2, "L": 10.5}})  # every wave of the test field aliases
@example({"grid": {"n": 16, "L": 1e120}})
@example({"grid": {"n": 16, "L": 1e-100}, "n_fields": 2})
def test_compat_config_never_raises(override):
    # the defaults' grid is n=32 with ten fields; every drawn config runs
    # at n <= 16 with at most two
    override.setdefault("grid", {"n": 8, "L": 10.5})
    override.setdefault("n_fields", 1)
    _exits_0_1_or_2("compat", override)


_KERNEL_KEYS = {
    "flavor": _GAUGE_KEYS["flavor"],
    "potential": _POTENTIAL,
    "P2_values": st.lists(_NUMBER, max_size=3),
    "grid": st.fixed_dictionaries({"n": st.integers(-2, 16), "L": _NUMBER}),
    "expect_positive": st.booleans(),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({}, optional={key: value | _JSON for key, value in _KERNEL_KEYS.items()}))
@example({"potential": {"kind": "yukawa_tanh", "g1": 1e154, "g2": 1e154, "mu": 1.0}, "P2_values": [1e-300]})
def test_kernel_config_never_raises(override):
    # the defaults' grid is n=32; every drawn config runs at n <= 16
    override.setdefault("grid", {"n": 16, "L": 10.5})
    _exits_0_1_or_2("kernel", override)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.fixed_dictionaries(
        {}, optional={key: st.integers(-2, 200) | _JSON for key in ("sweep_rho_points", "sweep_phi_points")}
    )
)
def test_toy_config_never_raises(override):
    _exits_0_1_or_2("toy", override)
