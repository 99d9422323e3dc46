"""Scenario files and the command-line front end: validation paths, artifact
layout, determinism, exit codes."""

import copy
import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import concentra
from concentra import cli
from concentra.cli import main
from concentra.grid import ScalarField, build_grid, write_field_csv
from concentra.models import ConstraintInfeasibleError, ModelError
from concentra.pde import SimulationConfig, run_simulation
from concentra.scenarios import (Scenario, ScenarioError,
                                 bundled_scenario_names, load_bundled)

BASE = {
    "name": "tiny",
    "dimension": 1,
    "model": {"family": "quadratic_global",
              "params": {"k0": 0.5, "center": [0.5], "weights": [1.0]}},
    "grid": {"lower": 0.0, "upper": 1.0, "points_per_axis": 64},
    "config": {"epsilon": 0.01, "dt": 0.005, "steps": 30,
               "snapshot_every": 15},
    "u0": [{"center": [0.8], "weights": [1.0]}],
    "probes": [0, 30],
    "canonical": {"closure": "from_pde"},
    "constants": {"I_M": 0.5, "K_bar_1": 1.5, "K_under_1": 0.5},
}


def write_scenario(tmp_path, raw, fname="scen.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(raw))
    return str(path)


def variant(**edits):
    raw = copy.deepcopy(BASE)
    for dotted, value in edits.items():
        keys = dotted.split("__")
        d = raw
        for k in keys[:-1]:
            d = d[k]
        if value is None:
            d.pop(keys[-1], None)
        else:
            d[keys[-1]] = value
    return raw


# --- scenario validation ----------------------------------------------------------

def test_scenario_roundtrips_raw_json():
    sc = Scenario(copy.deepcopy(BASE))
    assert json.loads(sc.to_json()) == BASE


@pytest.mark.parametrize("edits,needle", [
    ({"name": None}, "$.name"),
    ({"dimension": 3}, "$.dimension"),
    ({"model__family": "nope"}, "$.model.family"),
    ({"config__dt": -0.1}, "$.config.dt"),
    ({"config__steps": -1}, "$.config.steps"),
    ({"config__variant": "bogus"}, "$.config.variant"),
    ({"u0": []}, "$.u0"),
    ({"u0": [{"center": [0.5, 0.5], "weights": [1.0]}]}, "$.u0[0]"),
    ({"u0": [{"center": [0.5], "weights": [-1.0]}]}, "$.u0[0].weights"),
    ({"canonical__closure": "magic"}, "$.canonical.closure"),
    ({"constants": {"K_mystery": 1.0}}, "$.constants"),
    ({"diffusion": {"type": "sine", "base": 1.0, "amp": 2.0}}, "$.diffusion"),
    ({"config__epsilon": float("nan")}, "$.config.epsilon"),
    ({"config__dt": float("inf")}, "$.config.dt"),
    ({"config__snapshot_every": "20"}, "$.config.snapshot_every"),
    ({"config__snapshot_every": -200}, "$.config.snapshot_every"),
    ({"config__snapshot_every": 0.5}, "$.config.snapshot_every"),
    ({"config__snapshot_every": True}, "$.config.snapshot_every"),
    ({"u0": [{"center": [float("nan")], "weights": [1.0]}]}, "$.u0[0].center"),
    ({"u0": [{"center": [float("inf")], "weights": [1.0]}]}, "$.u0[0].center"),
    ({"u0": [{"center": ["0.8"], "weights": [1.0]}]}, "$.u0[0].center"),
    ({"u0": [{"center": [0.8], "weights": [float("nan")]}]},
     "$.u0[0].weights"),
    ({"u0": [{"center": [0.8], "weights": ["1.0"]}]}, "$.u0[0].weights"),
    ({"u0": [{"center": [0.8], "weights": [True]}]}, "$.u0[0].weights"),
    ({"dimension": True}, "$.dimension"),
    ({"config__steps": True}, "$.config.steps"),
    ({"config__epsilon": True}, "$.config.epsilon"),
    ({"config__dt": True}, "$.config.dt"),
    ({"grid__points_per_axis": True}, "$.grid.points_per_axis"),
    ({"grid__upper": True}, "$.grid.upper"),
    ({"grid__points_per_axis": 4}, "$.grid"),
    ({"grid__lower": 3.0, "grid__upper": 2.0}, "$.grid"),
    ({"grid__lower": [0.0, 0.0]}, "$.grid"),
    ({"grid__lower": [False]}, "$.grid.lower"),
    ({"grid__upper": [True]}, "$.grid.upper"),
    ({"grid__points_per_axis": [True]}, "$.grid.points_per_axis"),
    ({"grid__points_per_axis": [64.0]}, "$.grid.points_per_axis"),
    ({"grid__lower": ["0"]}, "$.grid.lower"),
    ({"grid__upper": float("nan")}, "$.grid.upper"),
    ({"model__params__k0": True}, "$.model.params.k0"),
    ({"model__params__center": [True]}, "$.model.params.center[0]"),
    ({"model__params": [0.5]}, "$.model.params"),
    ({"canonical__dt": "0.1"}, "$.canonical.dt"),
    ({"canonical__dt": 0}, "$.canonical.dt"),
    ({"canonical__dt": -0.01}, "$.canonical.dt"),
    ({"canonical__dt": True}, "$.canonical.dt"),
    ({"canonical__T": float("nan")}, "$.canonical.T"),
    ({"canonical__T": float("inf")}, "$.canonical.T"),
    ({"probes": ["a"]}, "$.probes"),
    ({"probes": 5}, "$.probes"),
    ({"probes": [True]}, "$.probes"),
    ({"probes": [-1]}, "$.probes"),
    ({"probes": [1.0]}, "$.probes"),
    ({"config__steps": 0}, "$.config.steps"),
    ({"diffusion": {"type": "sine", "axis": 5}}, "$.diffusion.axis"),
    ({"diffusion": {"type": "sine", "axis": 1.0}}, "$.diffusion.axis"),
    ({"diffusion": {"type": "sine", "axis": -1}}, "$.diffusion.axis"),
    ({"diffusion": {"type": "sine", "axis": True}}, "$.diffusion.axis"),
    ({"diffusion": {"type": "constant", "value": True}}, "$.diffusion.value"),
    ({"diffusion": {"type": "constant", "value": "2.0"}}, "$.diffusion.value"),
    ({"diffusion": {"type": "constant", "vaule": 4.0}}, "$.diffusion.vaule"),
    ({"diffusion": {"type": "constant", "value": float("nan")}},
     "$.diffusion.value"),
    ({"diffusion": {"type": "sine", "freq": "x"}}, "$.diffusion.freq"),
    ({"diffusion": {"type": "sine", "base": float("inf")}}, "$.diffusion.base"),
    ({"diffusion": {"type": "sine", "amp": None}}, "$.diffusion.amp"),
    ({"diffusion": {"type": "sine", "value": 2.0}}, "$.diffusion.value"),
    ({"diffusion": {"type": "constant", "axis": 0}}, "$.diffusion.axis"),
    ({"diffusion": {"type": "cosine"}}, "$.diffusion.type"),
    ({"diffusion": {"type": ["sine"]}}, "$.diffusion.type"),
    ({"diffusion": [2.0]}, "$.diffusion"),
    ({"model__params__k0": "0.5"}, "$.model.params.k0"),
    ({"model__params__coef_i": 5.0}, "$.model.params.coef_i"),
    ({"model__params__center": "ab"}, "$.model.params.center"),
    ({"model__params__coef_I": "x"}, "$.model.params.coef_I"),
    ({"model__params__coef_I": 0.0}, "$.model.params.coef_I"),
    ({"model__params__weights": [1.0, 2.0]}, "$.model.params.weights"),
    # psi is one number: an object in its place is named as the field
    ({"model__params__psi": {"value": "2"}}, "$.model.params.psi"),
    ({"model__params__psi": {"type": "gaussian"}}, "$.model.params.psi"),
    ({"model__params__psi": {"value": 2.0, "width": 1.0}},
     "$.model.params.psi"),
    ({"model__params__psi": 0.0}, "psi must be positive"),
    ({"model__params__k0": float("nan")}, "$.model.params.k0"),
    ({"model__params__psi": float("inf")}, "$.model.params.psi"),
    ({"model": {"family": "scenario2", "params": {"coef_I": 2.0}}},
     "$.model.params.coef_I"),
    ({"model": {"family": "logistic_local",
                "params": {"r": {"c0": "1"}}}}, "$.model.params.r.c0"),
    ({"model": {"family": "logistic_local",
                "params": {"symmetric": 1}}}, "$.model.params.symmetric"),
    ({"model": {"family": "logistic_local",
                "params": {"kernel": {"type": "cosine"}}}},
     "$.model.params.kernel.type"),
    ({"model": {"family": "logistic_local",
                "params": {"kernel": {"type": "gaussian", "widht": 0.5}}}},
     "$.model.params.kernel.widht"),
    ({"model": {"family": "logistic_local",
                "params": {"kernel": {"type": "gaussian", "width": 0.0}}}},
     "$.model.params.kernel.width"),
    ({"model": {"family": "logistic_local",
                "params": {"kernel": {"type": "separable",
                                      "phi": {"center": [0.1, 0.2]}}}}},
     "$.model.params.kernel.phi.center"),
    # a misspelt key anywhere in the file is named, not silently ignored
    ({"config__snapshot_every": None, "config__snapshot_evry": 15},
     "$.config.snapshot_evry"),
    ({"grid": {"lower": 0.0, "upper": 1.0, "pionts": 64}}, "$.grid.pionts"),
    ({"canonical": {"clsoure": "from_pde"}}, "$.canonical.clsoure"),
    ({"u0": [{"centre": [0.8], "weights": [1.0]}]}, "$.u0[0].centre"),
    ({"probes": None, "probe": [0, 30]}, "$.probe"),
    ({"model": {"famly": "quadratic_global",
                "params": {"k0": 0.5, "center": [0.5], "weights": [1.0]}}},
     "$.model.famly"),
    ({"constants": {"K_3": "2"}}, "$.constants.K_3"),
    ({"constants": {"K_3": None}}, "$.constants.K_3"),
    ({"canonical": [1]}, "$.canonical must be an object"),
    # checks across fields
    ({"probes": [0, 30, 500]}, "$.probes[2]"),
    ({"canonical": {"closure": "frozen", "dt": 1.0, "T": 0.1}},
     "$.canonical.dt"),
    ({"canonical__dt": 0.04, "canonical__T": 0.1}, "$.canonical.dt"),
    ({"canonical__dt": 0.5}, "$.canonical.dt"),   # T = steps * dt = 0.15
    # a kernel states its own symmetry; the key is no longer read
    ({"model": {"family": "logistic_local",
                "params": {"symmetric": True}}},
     "$.model.params.symmetric is not read"),
    # assumption constants carry their signs: rho_M divides, K_bar_1 ends a
    # bracket, K_3 and L_under_0 bound from one side
    ({"constants": {"rho_M": -1.0}}, "$.constants.rho_M"),
    ({"constants": {"rho_M": 0}}, "$.constants.rho_M"),
    ({"constants": {"K_bar_1": 0.0}}, "$.constants.K_bar_1"),
    ({"constants": {"K_3": -2.0}}, "$.constants.K_3"),
    ({"constants": {"L_under_0": -1e-9}}, "$.constants.L_under_0"),
    # removed input forms: psi as an object, and constants no check reads
    ({"model__params__psi": {"type": "constant", "value": 2.0}},
     "$.model.params.psi must be a finite number"),
    ({"constants": {"I_0": 1.0}}, "$.constants.I_0 is not read"),
    ({"constants": {"K_bar_b": 1.0}}, "$.constants.K_bar_b is not read"),
    ({"constants": {"K_under_b": 1.0}}, "$.constants.K_under_b is not read"),
    ({"constants": {"K_bar_0_prime": 1.0}},
     "$.constants.K_bar_0_prime is not read"),
])
def test_scenario_validation_names_field(edits, needle):
    with pytest.raises(ScenarioError, match=needle.replace("$", r"\$")
                       .replace("[", r"\[").replace("]", r"\]")):
        Scenario(variant(**edits))


@pytest.mark.parametrize("value", ["global", "local", "variable_diffusion"])
def test_stale_variant_key_exits_2(tmp_path, capsys, value):
    scen = write_scenario(tmp_path, variant(config__variant=value))
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "$.config.variant" in err
    assert "$.model.family" in err and "$.diffusion" in err
    assert not out.exists()


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_check_passes_on_bundled_scenarios(capsys, name):
    path = os.path.join(os.path.dirname(concentra.__file__), "scenarios",
                        f"{name}.json")
    assert main(["check", path]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    for expected in ("scenario1_anisotropic", "scenario1_isotropic",
                     "scenario2", "scenario3_ellipse", "scenario3_circle",
                     "quadratic_concave", "local_logistic"):
        assert expected in names
    sc = load_bundled("quadratic_concave")
    assert sc.dimension == 1


def test_load_bundled_unknown_name():
    with pytest.raises(ScenarioError):
        load_bundled("does_not_exist")


# --- run command --------------------------------------------------------------------

def _only_artifact_dir(root):
    entries = [e for e in os.listdir(root)
               if os.path.isdir(os.path.join(root, e))]
    assert len(entries) == 1
    return os.path.join(root, entries[0])


def test_run_produces_artifacts(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    art = _only_artifact_dir(out)
    assert printed == art
    assert os.path.basename(art).startswith("tiny_")

    files = set(os.listdir(art))
    assert {"manifest.json", "series.csv", "reports.json",
            "trajectory.csv"} <= files
    assert "snap_000000.npy" in files and "snap_000030.npy" in files
    assert not any(f.startswith("snap_") and f.endswith(".csv")
                   for f in files)

    with open(os.path.join(art, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["scenario"] == BASE
    assert manifest["boundary_rule"] == "no-flux"
    assert manifest["domain"]["points_per_axis"] == [64]

    with open(os.path.join(art, "reports.json")) as f:
        reports = json.load(f)
    assert "assumptions" in reports and "regularity" in reports
    assert reports["canonical"]["closure"] == "from_pde"
    assert 0.0 <= reports["constraint_residual_post_layer"] < 1.0

    with open(os.path.join(art, "series.csv")) as f:
        header = f.readline().strip()
    assert header == "t,I,rho,J,xbar_1,H_11,residual_R,boundary_mass"


@pytest.mark.parametrize("command", ["run", "canonical"])
def test_manifest_config_takes_simulation_config_defaults(tmp_path, capsys,
                                                          command):
    """A file that omits snapshot_every and mass_target is recorded in the
    manifest with SimulationConfig's defaults, the config the run used."""
    raw = variant(config__snapshot_every=None)
    assert "mass_target" not in raw["config"]
    scen = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    args = ["--closure", "frozen"] if command == "canonical" else []
    assert main([command, scen, *args, "--out", str(out)]) == 0
    with open(os.path.join(_only_artifact_dir(out), "manifest.json")) as f:
        recorded = json.load(f)["config"]
    expected = dataclasses.asdict(Scenario(raw).build_config())
    if command == "canonical":
        expected.update(canonical_only=True, closure="frozen")
    assert recorded == expected
    defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)
                if f.name in ("snapshot_every", "mass_target")}
    assert {k: recorded[k] for k in defaults} == defaults


@pytest.mark.parametrize("command", ["run", "canonical"])
def test_trajectory_rho_is_the_dirac_weight_for_psi_2(tmp_path, capsys,
                                                     command):
    """trajectory.csv's rho is I / psi, the Dirac weight, not the multiplier
    I: on quadratic_concave with psi = 2 it is I / 2 on every row."""
    raw = load_bundled("quadratic_concave").raw
    raw["model"]["params"]["psi"] = 2.0
    raw["config"]["steps"] = 100
    raw["probes"] = [0, 100]
    scen = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    args = ["--closure", "frozen"] if command == "canonical" else []
    assert main([command, scen, *args, "--out", str(out)]) == 0
    path = os.path.join(_only_artifact_dir(out), "trajectory.csv")
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 101
    for row in rows:
        assert float(row["rho"]) == float(row["I"]) / 2.0, row


def test_run_is_deterministic_byte_for_byte(tmp_path):
    scen = write_scenario(tmp_path, BASE)
    outs = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        assert main(["run", scen, "--out", str(root)]) == 0
        art = pathlib.Path(_only_artifact_dir(root))
        outs.append({p.name: p.read_bytes() for p in art.iterdir()
                     if p.name == "series.csv" or p.suffix == ".npy"})
    assert sorted(outs[0]) == ["series.csv", "snap_000000.npy",
                               "snap_000015.npy", "snap_000030.npy"]
    assert outs[0] == outs[1]


def test_interrupted_rerun_leaves_the_earlier_run(tmp_path, monkeypatch):
    """A re-run is built beside the earlier run's directory: interrupted
    while writing trajectory.csv, it removes only its own directory and
    leaves the earlier one byte for byte; completed, it takes the earlier
    one's place with the same bytes."""
    scen = write_scenario(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 0
    art = pathlib.Path(_only_artifact_dir(out))
    before = {p.name: p.read_bytes() for p in art.iterdir()}
    assert "trajectory.csv" in before

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(cli, "write_trajectory_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", scen, "--out", str(out)])
    assert os.listdir(out) == [art.name]
    assert {p.name: p.read_bytes() for p in art.iterdir()} == before

    assert main(["run", scen, "--out", str(out)]) == 0
    assert os.listdir(out) == [art.name]
    assert {p.name: p.read_bytes() for p in art.iterdir()} == before


def test_failed_swap_puts_the_earlier_run_back(tmp_path, monkeypatch,
                                               capsys):
    """A re-run whose rename into place fails, after the earlier run was
    moved aside, moves the earlier run back: it stays byte for byte under
    its name, and no hidden directory is left."""
    scen = write_scenario(tmp_path, BASE)
    out = tmp_path / "out"
    command = ["canonical", scen, "--closure", "frozen", "--out", str(out)]
    assert main(command) == 0
    art = pathlib.Path(_only_artifact_dir(out))
    before = {p.name: p.read_bytes() for p in art.iterdir()}
    rename, calls = os.rename, []

    def second_fails(src, dst):
        calls.append((src, dst))
        if len(calls) == 2:
            raise OSError("rename failed")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", second_fails)
    assert main(command) == 2
    assert "rename failed" in capsys.readouterr().err
    assert os.listdir(out) == [art.name]
    assert {p.name: p.read_bytes() for p in art.iterdir()} == before


BASE_2D = {
    "name": "tiny2d",
    "dimension": 2,
    "model": {"family": "quadratic_global",
              "params": {"k0": 0.5, "center": [0.5, 0.5],
                         "weights": [1.0, 2.0]}},
    "grid": {"lower": [0.0, -0.5], "upper": [1.0, 1.5],
             "points_per_axis": [16, 12]},
    "config": {"epsilon": 0.02, "dt": 0.005, "steps": 10,
               "snapshot_every": 5},
    "u0": [{"center": [0.7, 0.2], "weights": [1.0, 1.0]}],
}


def test_run_2d_snapshots_are_bit_exact_npy(tmp_path):
    scen = write_scenario(tmp_path, BASE_2D)
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 0
    art = _only_artifact_dir(out)
    assert sorted(f for f in os.listdir(art) if f.startswith("snap_")) == [
        "snap_000000.npy", "snap_000005.npy", "snap_000010.npy"]

    sc = Scenario(copy.deepcopy(BASE_2D))
    result = run_simulation(sc.build_config(), sc.build_model(),
                            sc.build_grid(), sc.u0)
    with open(os.path.join(art, "manifest.json")) as f:
        dom = json.load(f)["domain"]
    grid = build_grid(len(dom["lower"]), dom["lower"], dom["upper"],
                      dom["points_per_axis"])
    assert grid == sc.build_grid()
    for step, snap in result.snapshots.items():
        loaded = np.load(os.path.join(art, f"snap_{step:06d}.npy"),
                         allow_pickle=False)
        assert loaded.dtype == np.float64 and loaded.shape == (16, 12)
        assert loaded.tobytes() == snap.values.tobytes()
        # the CSV export of a loaded snapshot is the in-memory one's
        write_field_csv(ScalarField(grid, loaded), tmp_path / "loaded.csv")
        write_field_csv(snap, tmp_path / "memory.csv")
        assert ((tmp_path / "loaded.csv").read_bytes()
                == (tmp_path / "memory.csv").read_bytes())


def test_run_string_snapshot_every_exits_2_without_artifacts(tmp_path,
                                                             capsys):
    scen = write_scenario(tmp_path, variant(config__snapshot_every="20"))
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 2
    assert "$.config.snapshot_every" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("edits,needle", [
    ({"config__steps": True}, "$.config.steps"),
    ({"config__mass_target": True}, "mass_target"),
])
def test_run_boolean_number_exits_2_without_artifacts(tmp_path, capsys, edits,
                                                      needle):
    scen = write_scenario(tmp_path, variant(**edits))
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("edits", [
    {"canonical__dt": 0}, {"canonical__T": float("nan")}, {"probes": 5},
])
def test_run_invalid_canonical_or_probes_exits_2_without_artifacts(
        tmp_path, capsys, edits):
    scen = write_scenario(tmp_path, variant(**edits))
    out = tmp_path / "out"
    assert main(["run", scen, "--out", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "canonical"])
@pytest.mark.parametrize("edits,needle", [
    ({"probes": [0, 30, 500]}, "$.probes[2]"),
    ({"canonical": {"closure": "frozen", "dt": 1.0, "T": 0.1}},
     "$.canonical.dt"),
])
def test_probe_past_the_end_or_partial_ode_step_exits_2(tmp_path, capsys,
                                                         command, edits,
                                                         needle):
    """A probe after the last step would be dropped, and an ODE step longer
    than T would run past it: both are refused before anything runs."""
    scen = write_scenario(tmp_path, variant(**edits))
    out = tmp_path / "out"
    args = [command, scen, "--out", str(out)]
    if command == "canonical":
        args += ["--closure", "frozen"]
    assert main(args) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_non_numeric_constant_exits_2_without_artifacts(tmp_path, capsys,
                                                         command):
    scen = write_scenario(tmp_path, variant(constants={"K_3": "2"}))
    out = tmp_path / "out"
    args = {"run": ["run", scen, "--out", str(out)],
            "check": ["check", scen]}[command]
    assert main(args) == 2
    assert "$.constants.K_3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    {"lower": 0.0, "upper": 1.0, "points_per_axis": 4},
    {"lower": 3.0, "upper": 2.0, "points_per_axis": 64},
], ids=["too_few_points", "inverted_box"])
@pytest.mark.parametrize("command", ["run", "sweep", "canonical", "check"])
def test_invalid_grid_exits_2_without_artifacts(tmp_path, capsys, command,
                                                grid):
    scen = write_scenario(tmp_path, variant(grid=grid))
    out = tmp_path / "out"
    args = {"run": ["run", scen, "--out", str(out)],
            "sweep": ["sweep", scen, "--epsilon", "0.02,0.01",
                      "--out", str(out)],
            "canonical": ["canonical", scen, "--closure", "frozen",
                          "--out", str(out)],
            "check": ["check", scen]}[command]
    assert main(args) == 2
    assert "$.grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_steps_exits_2_without_artifacts(tmp_path, capsys, command):
    scen = write_scenario(tmp_path, variant(config__steps=0, probes=[0]))
    out = tmp_path / "out"
    args = {"run": ["run", scen, "--out", str(out)],
            "sweep": ["sweep", scen, "--epsilon", "0.02,0.01",
                      "--out", str(out)]}[command]
    assert main(args) == 2
    assert "$.config.steps" in capsys.readouterr().err
    assert not out.exists()


def test_diffusion_block_applies_to_global_family(tmp_path, capsys):
    series = []
    for name, raw in (("plain", BASE),
                      ("varied", variant(diffusion={"type": "sine",
                                                    "base": 1.0, "amp": 0.5,
                                                    "freq": 1.0}))):
        out = tmp_path / name
        assert main(["run", write_scenario(tmp_path, raw, f"{name}.json"),
                     "--out", str(out)]) == 0
        series.append(pathlib.Path(_only_artifact_dir(out), "series.csv")
                      .read_bytes())
    assert series[0] != series[1]


def test_run_invalid_scenario_exits_2(tmp_path, capsys):
    scen = write_scenario(tmp_path, variant(config__dt=-1.0))
    assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2
    assert "validation error" in capsys.readouterr().err


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_run_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def _local_scenario(**kernel):
    raw = load_bundled("local_logistic").raw
    raw["config"]["steps"] = 2
    raw["probes"] = [0, 2]   # probes past the last step are refused
    raw["grid"]["points_per_axis"] = 32
    raw["canonical"]["T"] = 0.01
    raw["model"]["params"]["kernel"].update(kernel)
    return raw


@pytest.mark.parametrize("field,value", [
    ("width", 0.0), ("width", float("nan")), ("amp", -0.2),
    ("amp", float("inf")), ("floor", -0.1), ("floor", float("nan")),
])
@pytest.mark.parametrize("command", ["run", "check"])
def test_gaussian_kernel_params_validated(tmp_path, capsys, command, field,
                                          value):
    scen = write_scenario(tmp_path, _local_scenario(**{field: value}))
    args = [command, scen]
    if command == "run":
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"$.model.params.kernel.{field}" in err
    assert not (tmp_path / "o").exists()


def test_series_residual_matches_reported_post_layer(tmp_path):
    """series.csv's residual_R and reports.json's post-layer residual are one
    formula, |R(x̄, rho)| for the local model."""
    raw = _local_scenario()
    raw["config"]["steps"] = 40
    scen = write_scenario(tmp_path, raw)
    assert main(["run", scen, "--out", str(tmp_path / "o")]) == 0
    art = pathlib.Path(_only_artifact_dir(tmp_path / "o"))
    data = np.genfromtxt(art / "series.csv", delimiter=",", names=True)
    post = json.loads((art / "reports.json").read_text())[
        "constraint_residual_post_layer"]
    t_layer = 10 * raw["config"]["dt"]
    assert data["residual_R"][data["t"] >= t_layer].max() == post


def _run_python(*args):
    """Run `python *args` in a fresh interpreter that imports this
    checkout's package; one bare argument is code for `-c`."""
    src = os.path.dirname(os.path.dirname(concentra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = ["-c", *args] if len(args) == 1 else list(args)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_local_run_leaves_scipy_fft_unimported(tmp_path):
    """The competition convolution is one BLAS product per axis; importing
    scipy.fft would cost about 5 MB of resident memory."""
    scen = write_scenario(tmp_path, _local_scenario())
    code = ("import sys\n"
            "import concentra.cli\n"
            f"rc = concentra.cli.main(['run', {scen!r}, '--out', "
            f"{str(tmp_path / 'o')!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy.fft' not in sys.modules\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_runs_leave_scipy_unimported(tmp_path):
    """The package needs numpy only: importing scipy.sparse.linalg costs
    about a quarter second and 30 MB of resident memory per process."""
    two_d = load_bundled("scenario2").raw
    two_d["config"]["steps"] = 2
    two_d["grid"]["points_per_axis"] = 32
    two_d["probes"] = [0, 2]
    global_1d = variant(config__steps=2, probes=[0, 2])
    scenarios = [write_scenario(tmp_path, raw, f"{name}.json")
                 for name, raw in (("global_1d", global_1d),
                                   ("local_1d", _local_scenario()),
                                   ("global_2d", two_d))]
    code = ("import sys\n"
            "import concentra.cli\n"
            f"for scen in {scenarios!r}:\n"
            "    rc = concentra.cli.main(['run', scen, '--out', "
            f"{str(tmp_path / 'o')!r}])\n"
            "    assert rc == 0, (scen, rc)\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert len(os.listdir(tmp_path / "o")) == 3


def test_run_imports_no_numpy_module_past_import_numpy(tmp_path):
    """A run imports no numpy module that `import numpy` has not: the first
    call of np.unique, for one, imports numpy.ma, which cost 13-15 ms per
    process and about 22 ms in each forked sweep worker.  (numpy 1.x
    imports numpy.ma with numpy, so this holds at the declared floor.)"""
    raw = load_bundled("scenario2").raw
    raw["config"]["steps"] = 2
    raw["grid"]["points_per_axis"] = 32
    raw["probes"] = [0, 2]
    scen = write_scenario(tmp_path, raw)
    code = ("import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import concentra.cli\n"
            f"rc = concentra.cli.main(['run', {scen!r}, '--out', "
            f"{str(tmp_path / 'o')!r}])\n"
            "assert rc == 0, rc\n"
            "added = sorted(m for m in set(sys.modules) - before\n"
            "               if m.split('.')[0] == 'numpy')\n"
            "assert not added, added\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert len(os.listdir(tmp_path / "o")) == 1


def test_cli_import_leaves_process_pool_unimported(tmp_path):
    """A sweep runs its rows in this process, and artifact directories are
    named by zlib's CRC-32: neither importing the CLI nor a two-row sweep
    and a run imports multiprocessing or concurrent.futures, which cost
    about 9 ms per process, or hashlib, whose OpenSSL binding costs about
    3.5 ms and 3.6 MB of resident memory."""
    scen = write_scenario(tmp_path, BASE)
    out = str(tmp_path / "o")
    code = ("import sys\n"
            "import concentra.cli\n"
            "unwanted = ('multiprocessing', 'concurrent.futures', 'hashlib',\n"
            "            '_hashlib')\n"
            "assert not [m for m in unwanted if m in sys.modules]\n"
            f"rc = concentra.cli.main(['sweep', {scen!r}, '--epsilon', "
            f"'0.02,0.01', '--out', {out!r}])\n"
            "assert rc == 0, rc\n"
            f"rc = concentra.cli.main(['run', {scen!r}, '--out', "
            f"{out + '_run'!r}])\n"
            "assert rc == 0, rc\n"
            "loaded = [m for m in unwanted if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert len(os.listdir(out)) == 3   # sweep.csv and two row directories
    assert len(os.listdir(out + "_run")) == 1


# --- sweep command -------------------------------------------------------------------

@pytest.mark.parametrize("values", ["nan,0.01", "0.01,inf"])
def test_sweep_non_finite_epsilon_exits_2(tmp_path, capsys, values):
    scen = write_scenario(tmp_path, BASE)
    assert main(["sweep", scen, "--epsilon", values,
                 "--out", str(tmp_path / "o")]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_single_epsilon_exits_2(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    assert main(["sweep", scen, "--epsilon", "0.01",
                 "--out", str(tmp_path / "o")]) == 2
    assert "two distinct epsilon" in capsys.readouterr().err


def test_sweep_writes_sorted_table(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    out = tmp_path / "o"
    # duplicate value only warns; the sweep still has two distinct epsilons
    assert main(["sweep", scen, "--epsilon", "0.01,0.02,0.01",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "duplicate epsilon" in err
    with open(out / "sweep.csv") as f:
        lines = [ln.strip() for ln in f]
    assert lines[0] == ("epsilon,residual_post_layer,sup_distance,"
                        "monotonicity_violation,dir,status")
    eps = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert eps == sorted(eps, reverse=True) == [0.02, 0.01]
    assert all(ln.endswith("ok") for ln in lines[1:])


def test_sweep_reaction_overflow_fails_row_and_cleans_up(tmp_path):
    scen = write_scenario(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["sweep", scen, "--epsilon", "0.01,1e-6",
                 "--out", str(out)]) == 3
    with open(out / "sweep.csv") as f:
        rows = [ln.strip() for ln in f][1:]
    assert rows[0].endswith("ok")
    assert "failed: reaction update overflowed" in rows[1]
    # only the successful row keeps its artifact directory
    _only_artifact_dir(out)


def _sweep_outputs(out):
    """sweep.csv with the output root cut from `dir`, and each row's
    series.csv by directory name."""
    with open(out / "sweep.csv") as f:
        table = f.read().replace(str(out) + os.sep, "")
    series = {d: (out / d / "series.csv").read_bytes()
              for d in os.listdir(out) if (out / d).is_dir()}
    return table, series


def test_sweep_dir_column_names_a_directory_under_out(tmp_path):
    """`dir` does not depend on where --out is, so neither do sweep.csv's
    bytes."""
    out = tmp_path / "o"
    assert main(["sweep", write_scenario(tmp_path, BASE), "--epsilon",
                 "0.02,0.01", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as f:
        dirs = [row["dir"] for row in csv.DictReader(f)]
    assert len(dirs) == 2
    for d in dirs:
        assert os.sep not in d and (out / d).is_dir()


def test_sweep_workers_match_serial_run(tmp_path):
    """The rows run one after another in this process: a failed row is
    marked in sweep.csv, and a second sweep writes the same bytes."""
    scen = write_scenario(tmp_path, BASE)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sweep", scen, "--epsilon", "0.02,0.01,1e-6",
                     "--out", str(out)]) == 3
        outputs.append(_sweep_outputs(out))
    assert outputs[0] == outputs[1]
    table, series = outputs[0]
    rows = table.splitlines()[1:]
    assert [r.endswith(",ok") for r in rows] == [True, True, False]
    assert "failed: reaction update overflowed" in rows[2]
    assert len(series) == 2   # the failed row leaves no directory


def test_sweep_worker_failure_stays_in_its_row(tmp_path, monkeypatch):
    """A row whose run raises ConstraintInfeasibleError is marked failed and
    leaves no directory; the row after it still runs and keeps its own."""
    real = cli.run_simulation

    def infeasible_at_small_eps(config, *args, **kwargs):
        if config.epsilon < 0.015:
            raise ConstraintInfeasibleError([0.5], 1.0, 2.0, 3.0)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", infeasible_at_small_eps)
    out = tmp_path / "o"
    assert main(["sweep", write_scenario(tmp_path, BASE), "--epsilon",
                 "0.01,0.02", "--out", str(out)]) == 3
    with open(out / "sweep.csv") as f:
        rows = [ln.strip() for ln in f][1:]
    assert rows[0].endswith(",ok")
    assert "failed: no sign change" in rows[1]
    _only_artifact_dir(out)


# --- canonical command -----------------------------------------------------------------

def test_canonical_frozen_writes_trajectory(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["canonical", scen, "--closure", "frozen",
                 "--out", str(out)]) == 0
    art = _only_artifact_dir(out)
    with open(os.path.join(art, "trajectory.csv")) as f:
        header = f.readline()
        first = f.readline()
    assert header.startswith("source,")
    assert first.startswith("canonical_frozen,")
    with open(os.path.join(art, "reports.json")) as f:
        reports = json.load(f)
    assert reports["closure"] == "frozen"
    assert reports["approximate_closure"] is False
    assert reports["attractor"]["found"] is True


def test_canonical_command_trajectory_equals_the_run_one(tmp_path, capsys):
    """`canonical --closure frozen` on local_logistic writes, byte for
    byte, the trajectory.csv that `run` writes."""
    scen = os.path.join(os.path.dirname(concentra.__file__), "scenarios",
                        "local_logistic.json")
    assert main(["run", scen, "--out", str(tmp_path / "run")]) == 0
    assert main(["canonical", scen, "--closure", "frozen",
                 "--out", str(tmp_path / "can")]) == 0
    run_csv, can_csv = (
        pathlib.Path(_only_artifact_dir(tmp_path / sub), "trajectory.csv")
        for sub in ("run", "can"))
    assert run_csv.read_bytes() == can_csv.read_bytes()


def test_canonical_from_pde_requires_pde_dir(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    assert main(["canonical", scen, "--closure", "from_pde",
                 "--out", str(tmp_path / "o")]) == 2
    assert "--pde-dir" in capsys.readouterr().err


def test_canonical_from_pde_consumes_run_artifacts(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    run_out = tmp_path / "run"
    assert main(["run", scen, "--out", str(run_out)]) == 0
    pde_dir = _only_artifact_dir(run_out)
    capsys.readouterr()
    out = tmp_path / "can"
    assert main(["canonical", scen, "--closure", "from_pde",
                 "--pde-dir", pde_dir, "--out", str(out)]) == 0
    art = _only_artifact_dir(out)
    assert os.path.exists(os.path.join(art, "trajectory.csv"))


SERIES_1D = ("t,I,rho,J,xbar_1,H_11,residual_R,boundary_mass\n"
             "0,0.3,0.3,0,0.8,-2,0,0\n0.005,0.3,0.3,0,0.79,-2,0,0\n")
SERIES_2D = ("t,I,rho,J,xbar_1,xbar_2,H_11,H_12,H_22,residual_R,"
             "boundary_mass\n0,0.3,0.3,0,0.7,0.2,-2,0,-2,0,0\n"
             "0.005,0.3,0.3,0,0.69,0.2,-2,0,-2,0,0\n")


@pytest.mark.parametrize("raw,series,needle", [
    (BASE, "", "no column 't'"),
    (BASE, SERIES_1D.replace("xbar_1", "xbar"), "no column 'xbar_1'"),
    (BASE, SERIES_1D.splitlines()[0] + "\n", "no rows"),
    (BASE, SERIES_1D + "0.01,0.3\n", "unreadable row"),
    (BASE_2D, SERIES_1D, "dimension 1, scenario tiny2d of dimension 2"),
    (BASE, SERIES_2D, "dimension 2, scenario tiny of dimension 1"),
], ids=["empty", "no_xbar_1", "header_only", "short_row", "1d_into_2d",
        "2d_into_1d"])
def test_canonical_rejects_an_unusable_pde_series(tmp_path, capsys, raw,
                                                  series, needle):
    scen = write_scenario(tmp_path, raw)
    pde_dir = tmp_path / "pde"
    pde_dir.mkdir()
    (pde_dir / "series.csv").write_text(series)
    out = tmp_path / "can"
    assert main(["canonical", scen, "--closure", "from_pde",
                 "--pde-dir", str(pde_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(pde_dir / "series.csv") in err and needle in err
    assert not out.exists()


def test_canonical_nan_pde_hessian_names_the_matrix(tmp_path, capsys):
    """A NaN Hessian in the measured series fails the definiteness check
    and is named, instead of being integrated into a NaN point."""
    scen = write_scenario(tmp_path, BASE_2D)
    pde_dir = tmp_path / "pde"
    pde_dir.mkdir()
    (pde_dir / "series.csv").write_text(SERIES_2D.replace(",-2,0,-2,",
                                                          ",nan,nan,nan,"))
    assert main(["canonical", scen, "--closure", "from_pde",
                 "--pde-dir", str(pde_dir), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "closure matrix [[nan, nan], [nan, nan]] not negative definite" \
        in err
    assert "non-finite growth rate" not in err


def test_canonical_infeasible_start_exits_3(tmp_path, capsys):
    raw = variant(
        model__family="affine_global",
        canonical__closure="frozen")
    raw["model"]["params"] = {"a": -1.0, "slope": [0.0], "coef_I": 1.0}
    scen = write_scenario(tmp_path, raw)
    assert main(["canonical", scen, "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err
    # the partially written artifact directory is removed on failure
    assert not any(os.scandir(tmp_path / "o"))


# --- check command ---------------------------------------------------------------------

def test_check_prints_assumption_report(tmp_path, capsys):
    scen = write_scenario(tmp_path, BASE)
    assert main(["check", scen]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "tiny"
    assert payload["valid"] is True
    names = [c["name"] for c in payload["assumptions"]["checks"]]
    assert "hessian_bounds(9)" in names


# the box-truncation risks `check` names on each bundled file: (check,
# bump and cells from the wall, or the node of the growth rate's maximum)
BUNDLED_TRUNCATION_RISKS = {
    "local_logistic": [], "local_logistic_2d": [], "quadratic_concave": [],
    "scenario1_anisotropic": [("growth_max_on_ring", [0, 0])],
    "scenario1_isotropic": [("growth_max_on_ring", [0, 0])],
    "scenario2": [("growth_max_on_ring", [149, 149])],
    "scenario3_circle": [("u0_center_near_wall", 0, 0.0),
                         ("u0_center_near_wall", 1, 0.0),
                         ("growth_max_on_ring", [99, 99])],
    "scenario3_ellipse": [("u0_center_near_wall", 0, 0.0),
                          ("u0_center_near_wall", 1, 0.0),
                          ("growth_max_on_ring", [99, 99])],
}


@pytest.mark.parametrize("name", sorted(BUNDLED_TRUNCATION_RISKS))
def test_check_flags_box_truncation_risks(capsys, name):
    """`check` names u0 centres within two cells of a wall and a growth
    rate R(x, 0) whose maximum is on the two-cell ring, on stdout only:
    the assumption report a run writes is unchanged, and the exit code
    stays 0."""
    path = os.path.join(os.path.dirname(concentra.__file__), "scenarios",
                        f"{name}.json")
    assert main(["check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    got = [(r["check"], r["bump"], r["cells_from_wall"])
           if r["check"] == "u0_center_near_wall" else (r["check"], r["node"])
           for r in payload["box_truncation"]]
    assert got == BUNDLED_TRUNCATION_RISKS[name]
    assert all(r.get("rate") in (None, "R(x, 0)")
               for r in payload["box_truncation"])
    sc = load_bundled(name)
    assert payload["assumptions"] == json.loads(json.dumps(cli._jsonable(
        cli._assumption_report(sc, sc.build_model(), sc.build_diffusion()))))


def test_check_rejects_bad_scenario(tmp_path, capsys):
    scen = write_scenario(tmp_path, variant(dimension=3))
    assert main(["check", scen]) == 2


# --- exit codes ------------------------------------------------------------------------

def _command_args(command, scen, out):
    return {"run": ["run", scen, "--out", out],
            "sweep": ["sweep", scen, "--epsilon", "0.02,0.01", "--out", out],
            "canonical": ["canonical", scen, "--closure", "frozen",
                          "--out", out],
            "check": ["check", scen]}[command]


def _one_line(err, kind):
    assert err.startswith(f"{kind} error: ") and err.count("\n") == 1, err
    return err


# a valid scenario in Latin-1
NOT_UTF8 = json.dumps(variant(name="caf\u00e9"),
                      ensure_ascii=False).encode("latin-1")
# file content -> what the message names (None: the file's path)
UNUSABLE_SCENARIO_FILES = {
    "missing": (None, None),
    "not_utf8": (NOT_UTF8, None),
    "deep_nesting": (b"[" * 100000, None),
    "invalid_json": (b"{not json", None),
    "bad_field": (json.dumps(variant(config__dt=-1.0)).encode(),
                  "$.config.dt"),
}


@pytest.mark.parametrize("content,needle", UNUSABLE_SCENARIO_FILES.values(),
                         ids=UNUSABLE_SCENARIO_FILES)
@pytest.mark.parametrize("command", ["run", "sweep", "canonical", "check"])
def test_unusable_scenario_file_exits_2(tmp_path, capsys, command, content,
                                        needle):
    scen = tmp_path / "scen.json"
    if content is not None:
        scen.write_bytes(content)
    out = tmp_path / "out"
    assert main(_command_args(command, str(scen), str(out))) == 2
    err = _one_line(capsys.readouterr().err, "validation")
    assert (needle or str(scen)) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "canonical"])
def test_out_that_is_a_file_exits_2_before_running(tmp_path, capsys,
                                                   monkeypatch, command):
    def not_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_simulation", not_run)
    monkeypatch.setattr(cli.canon, "integrate_canonical", not_run)
    out = tmp_path / "out"
    out.write_text("a file")
    scen = write_scenario(tmp_path, BASE)
    assert main(_command_args(command, scen, str(out))) == 2
    assert str(out) in _one_line(capsys.readouterr().err, "validation")
    assert out.read_text() == "a file"


def test_canonical_non_utf8_pde_series_exits_2(tmp_path, capsys):
    pde_dir = tmp_path / "pde"
    pde_dir.mkdir()
    (pde_dir / "series.csv").write_bytes(SERIES_1D.encode("utf-16"))
    out = tmp_path / "can"
    assert main(["canonical", write_scenario(tmp_path, BASE), "--closure",
                 "from_pde", "--pde-dir", str(pde_dir), "--out",
                 str(out)]) == 2
    err = _one_line(capsys.readouterr().err, "validation")
    assert str(pde_dir / "series.csv") in err and "not UTF-8" in err
    assert not out.exists()


def test_sweep_non_numeric_epsilon_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep", write_scenario(tmp_path, BASE), "--epsilon",
                 "0.02,1e-2x", "--out", str(out)]) == 2
    err = _one_line(capsys.readouterr().err, "validation")
    assert "epsilon value '1e-2x' is not a number" in err
    assert not out.exists()


def test_error_tuples_are_disjoint():
    for valid in cli.VALIDATION_ERRORS:
        for numerical in cli.NUMERICAL_ERRORS:
            assert not issubclass(valid, numerical), (valid, numerical)
            assert not issubclass(numerical, valid), (valid, numerical)
    assert issubclass(ConstraintInfeasibleError, cli.NUMERICAL_ERRORS)


@pytest.mark.parametrize("error", [ModelError("no root"),
                                   np.linalg.LinAlgError("singular")])
def test_check_numerical_failure_after_loading_exits_3(tmp_path, capsys,
                                                       monkeypatch, error):
    def fails(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "check_assumptions", fails)
    assert main(["check", write_scenario(tmp_path, BASE)]) == 3
    assert str(error) in _one_line(capsys.readouterr().err, "numerical")


def _first_step_exit_scenario():
    """A growth maximum far outside the box and a start one step from its
    edge: the frozen canonical ODE leaves on its first step."""
    return variant(model__params__center=[5.0], model__params__weights=[0.01],
                   u0=[{"center": [0.99], "weights": [0.01]}],
                   canonical={"closure": "frozen", "dt": 0.15, "T": 0.15})


@pytest.mark.parametrize("command", ["run", "canonical"])
def test_canonical_first_step_domain_exit_exits_3(tmp_path, capsys, command):
    scen = write_scenario(tmp_path, _first_step_exit_scenario())
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="left the domain"):
        assert main(_command_args(command, scen, str(out))) == 3
    err = _one_line(capsys.readouterr().err, "numerical")
    assert "left the domain on its first step, at t=0.15, x=[1.54" in err
    assert not any(os.scandir(out))


def test_spec_message_shortens_a_deeply_nested_value(tmp_path):
    raw = copy.deepcopy(BASE)
    raw["probes"] = "PROBES"
    nested = "[" * 980 + "]" * 980
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(raw).replace('"PROBES"', f"[{nested}]"))
    # a fresh interpreter: the parser's recursion starts from a short stack
    proc = _run_python("-m", "concentra.cli", "check", str(scen))
    assert proc.returncode == 2, proc.stderr
    err = _one_line(proc.stderr, "validation")
    assert "field $.probes[0] must be a nonnegative integer, got [[" in err
    assert len(err) < 200, len(err)


def test_module_entry_point_exits_2_without_traceback(tmp_path):
    """`python -m concentra.cli` passes main's code to sys.exit."""
    scen = tmp_path / "scen.json"
    scen.write_bytes(NOT_UTF8)
    proc = _run_python("-m", "concentra.cli", "run", str(scen),
                       "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation error: ")
