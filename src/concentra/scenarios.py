"""Scenario files: JSON-declared runs (model family, grid, time stepping,
initial bumps, optional limit-ODE settings) with validation and bundled
reference scenarios."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .canonical import CLOSURE_MODES
from .grid import GridError, TraitGrid, build_grid
from .models import (AssumptionConstants, DiffusionCoefficient,
                     MODEL_FAMILIES, ModelError, PerAxis, Required,
                     build_model, check_spec, constant_diffusion,
                     sine_diffusion)
from .pde import ConfigError, SimulationConfig


class ScenarioError(ValueError):
    """Scenario file failed validation; message names the offending field."""


# $.diffusion.type -> (constructor, spec of the keys it reads as keywords)
_DIFFUSION_TYPES = {"constant": (constant_diffusion, {"value": "number"}),
                    "sine": (sine_diffusion,
                             {"base": "number", "amp": "number",
                              "freq": "number", "axis": "axis"})}

# every key a scenario file may hold, in the spec language of
# models.check_spec; $.model.params is checked by build_model against the
# spec of its family
_BUMP = {"center": Required(PerAxis("number")),
         "weights": Required(PerAxis("positive"))}   # concave bumps
# the sign of each assumption constant: a divisor, an end of an eigenvalue
# bracket or a strict bound is positive, an additive bound nonnegative
_POSITIVE_CONSTANTS = {"I_M", "rho_M", "K_bar_1", "K_under_1", "K_bar_2",
                       "K_under_2", "L_bar_1", "L_under_1", "K_bar_1_prime",
                       "K_under_1_prime"}
_SCENARIO_SPEC = {
    "name": Required("text"),
    "dimension": Required((1, 2)),
    "model": Required({"family": Required(tuple(MODEL_FAMILIES)),
                       "params": "object"}),
    "grid": Required({"lower": Required(PerAxis("number", broadcast=True)),
                      "upper": Required(PerAxis("number", broadcast=True)),
                      "points_per_axis": Required(PerAxis("count",
                                                          broadcast=True))}),
    "config": Required({"epsilon": Required("positive"),
                        "dt": Required("positive"),
                        # the run's diagnostics need two samples
                        "steps": Required("positive count"),
                        "snapshot_every": "count",
                        "mass_target": "positive"}),
    "u0": Required([_BUMP, ...]),
    "probes": ["count"],
    "canonical": {"closure": Required(CLOSURE_MODES),
                  "dt": "positive", "T": "positive"},
    "constants": {f.name: ("positive" if f.name in _POSITIVE_CONSTANTS
                           else "nonnegative")
                  for f in fields(AssumptionConstants)},
    "diffusion": {"type": {kind: keys for kind, (_, keys)
                           in _DIFFUSION_TYPES.items()}},
}


@dataclass
class Scenario:
    """Validated scenario; `raw` is the exact parsed JSON object (bit-exact
    round-trip through to_json)."""

    raw: dict

    def __post_init__(self):
        d = self.raw
        if not isinstance(d, dict):
            raise ScenarioError("scenario root must be a JSON object")
        dim = d.get("dimension")   # the length of every per-axis list
        if type(dim) is not int or dim not in (1, 2):
            raise ScenarioError(f"field $.dimension must be 1 or 2, "
                                f"got {dim!r}")
        if isinstance(d.get("config"), dict) and "variant" in d["config"]:
            # a stale "variable_diffusion" file without a $.diffusion block
            # would otherwise run with b = 1
            raise ScenarioError("field $.config.variant is no longer read: "
                                "the variant follows from $.model.family and "
                                "$.diffusion")
        try:
            check_spec(d, _SCENARIO_SPEC, dim, "$")
        except ModelError as exc:
            raise ScenarioError(str(exc)) from exc

        # a scenario that constructs can be built; building checks the
        # model's parameters against the spec of its family
        for key, error in (("grid", GridError), ("model", ModelError),
                           ("diffusion", ModelError), ("config", ConfigError)):
            try:
                getattr(self, f"build_{key}")()
            except error as exc:
                msg = str(exc)
                raise ScenarioError(msg if msg.startswith("field $.") else
                                    f"field $.{key}: {msg}") from exc

        # checks across fields, which the spec table states one at a time
        steps = d["config"]["steps"]
        for i, probe in enumerate(self.probes):
            if probe > steps:
                raise ScenarioError(f"field $.probes[{i}] must be at most "
                                    f"$.config.steps = {steps}, got {probe}")
        can = self.canonical_settings()
        dt, T = can["dt"], can["T"]
        whole = T / dt
        if dt > T or abs(whole - round(whole)) > 1e-9 * whole:
            raise ScenarioError(f"field $.canonical.dt must divide "
                                f"$.canonical.T = {T!r} into whole steps, "
                                f"got {dt!r}")

    # --- accessors -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def dimension(self) -> int:
        return self.raw["dimension"]

    @property
    def u0(self) -> list:
        return self.raw["u0"]

    @property
    def probes(self) -> list:
        return self.raw.get("probes", [])

    def build_grid(self) -> TraitGrid:
        g = self.raw["grid"]
        return build_grid(self.dimension, g["lower"], g["upper"],
                          g["points_per_axis"])

    def build_model(self):
        return build_model(self.raw["model"], self.dimension)

    def build_config(self) -> SimulationConfig:
        """$.config; a key the file omits takes SimulationConfig's default."""
        return SimulationConfig(**self.raw["config"])

    def build_diffusion(self) -> DiffusionCoefficient:
        spec = self.raw.get("diffusion")
        if spec is None:
            return None
        params = dict(spec)
        build, _ = _DIFFUSION_TYPES[params.pop("type", "constant")]
        return build(**params)

    def build_constants(self) -> AssumptionConstants:
        return AssumptionConstants.from_dict(self.raw.get("constants", {}))

    def canonical_settings(self) -> dict:
        """Closure mode and ODE time grid; defaults mirror the PDE config."""
        can = dict(self.raw.get("canonical", {}))
        cfg = self.raw["config"]
        can.setdefault("closure", "from_pde")
        can.setdefault("dt", cfg["dt"])
        can.setdefault("T", cfg["steps"] * cfg["dt"])
        return can

    def domain(self):
        grid = self.build_grid()
        return (np.array(grid.lower), np.array(grid.upper))

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ScenarioError(f"{path}: JSON nested too deeply") from exc
    return Scenario(raw)


def bundled_scenario_names() -> list:
    base = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> Scenario:
    base = resources.files(__package__) / "scenarios"
    path = base / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(f"no bundled scenario {name!r}; available: "
                            f"{bundled_scenario_names()}")
    return Scenario(json.loads(path.read_text()))
