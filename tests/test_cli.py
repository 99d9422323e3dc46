"""Scenario files and the command-line front end: validation paths, artifact
layout, determinism, exit codes."""

import copy
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
from concentra.models import ConstraintInfeasibleError
from concentra.pde import run_simulation
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


def _run_python(code):
    """Run `code` in a fresh interpreter that imports this checkout's
    package."""
    src = os.path.dirname(os.path.dirname(concentra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_local_run_leaves_scipy_fft_unimported(tmp_path):
    """The FFT convolution uses numpy.fft; importing scipy.fft as well costs
    about 5 MB of resident memory."""
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


def test_cli_import_leaves_process_pool_unimported():
    """The sweep imports its worker pool when it needs one: importing
    multiprocessing and concurrent.futures costs about 9 ms per process."""
    code = ("import sys\n"
            "import concentra.cli\n"
            "loaded = [m for m in ('multiprocessing', 'concurrent.futures')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


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


def test_sweep_writes_sorted_table(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONCENTRA_THREADS", "1")
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


def test_sweep_reaction_overflow_fails_row_and_cleans_up(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("CONCENTRA_THREADS", "1")
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


def test_sweep_workers_match_serial_run(tmp_path, monkeypatch):
    scen = write_scenario(tmp_path, BASE)
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("CONCENTRA_THREADS", workers)
        out = tmp_path / f"o{workers}"
        assert main(["sweep", scen, "--epsilon", "0.02,0.01,1e-6",
                     "--out", str(out)]) == 3
        outputs.append(_sweep_outputs(out))
    assert outputs[0] == outputs[1]
    table, series = outputs[1]
    rows = table.splitlines()[1:]
    assert [r.endswith(",ok") for r in rows] == [True, True, False]
    assert "failed: reaction update overflowed" in rows[2]
    assert len(series) == 2   # the failed row leaves no directory


def test_sweep_worker_failure_stays_in_its_row(tmp_path, monkeypatch):
    """ConstraintInfeasibleError cannot be unpickled; a worker that let it
    escape would break the whole pool."""
    real = cli.run_simulation

    def infeasible_at_small_eps(config, *args, **kwargs):
        if config.epsilon < 0.015:
            raise ConstraintInfeasibleError([0.5], 1.0, 2.0, 3.0)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", infeasible_at_small_eps)
    monkeypatch.setenv("CONCENTRA_THREADS", "2")
    out = tmp_path / "o"
    assert main(["sweep", write_scenario(tmp_path, BASE), "--epsilon",
                 "0.02,0.01", "--out", str(out)]) == 3
    with open(out / "sweep.csv") as f:
        rows = [ln.strip() for ln in f][1:]
    assert rows[0].endswith(",ok")
    assert "failed: no sign change" in rows[1]
    _only_artifact_dir(out)


def test_sweep_killed_worker_fails_its_rows(tmp_path, monkeypatch):
    parent = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)

    monkeypatch.setattr(cli, "run_simulation", killed)
    monkeypatch.setenv("CONCENTRA_THREADS", "2")
    out = tmp_path / "o"
    assert main(["sweep", write_scenario(tmp_path, BASE), "--epsilon",
                 "0.02,0.01", "--out", str(out)]) == 3
    with open(out / "sweep.csv") as f:
        rows = [ln.strip() for ln in f][1:]
    assert len(rows) == 2
    assert all("failed: A process in the process pool was terminated" in r
               for r in rows)


def test_sweep_bad_thread_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONCENTRA_THREADS", "abc")
    scen = write_scenario(tmp_path, BASE)
    assert main(["sweep", scen, "--epsilon", "0.01,0.02",
                 "--out", str(tmp_path / "o")]) == 2
    assert "CONCENTRA_THREADS" in capsys.readouterr().err


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


def test_check_rejects_bad_scenario(tmp_path, capsys):
    scen = write_scenario(tmp_path, variant(dimension=3))
    assert main(["check", scen]) == 2
