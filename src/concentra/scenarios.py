"""Scenario files: JSON-declared runs (model family, grid, time stepping,
initial bumps, optional limit-ODE settings) with validation and bundled
reference scenarios."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .grid import GridError, TraitGrid, build_grid
from .models import (AssumptionConstants, DiffusionCoefficient,
                     MODEL_FAMILIES, ModelError, build_model, check_spec,
                     constant_diffusion, is_finite_number, sine_diffusion)
from .pde import ConfigError, SimulationConfig


class ScenarioError(ValueError):
    """Scenario file failed validation; message names the offending field."""


def _require(d, key, types, path):
    if key not in d:
        raise ScenarioError(f"missing field {path}.{key}")
    v = d[key]
    # JSON true/false parse to bool, a subclass of int
    if not isinstance(v, types) or (isinstance(v, bool)
                                    and bool not in types):
        raise ScenarioError(f"field {path}.{key} has type "
                            f"{type(v).__name__}, expected "
                            f"{'/'.join(t.__name__ for t in types)}")
    return v


_NUM = (int, float)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# $.diffusion.type -> (constructor, spec of the keys it reads as keywords)
_DIFFUSION_TYPES = {"constant": (constant_diffusion, {"value": "number"}),
                    "sine": (sine_diffusion,
                             {"base": "number", "amp": "number",
                              "freq": "number", "axis": "axis"})}
_DIFFUSION_SPEC = {"type": {kind: keys for kind, (_, keys)
                            in _DIFFUSION_TYPES.items()}}


@dataclass
class Scenario:
    """Validated scenario; `raw` is the exact parsed JSON object (bit-exact
    round-trip through to_json)."""

    raw: dict

    def __post_init__(self):
        d = self.raw
        if not isinstance(d, dict):
            raise ScenarioError("scenario root must be a JSON object")
        _require(d, "name", (str,), "$")
        dim = _require(d, "dimension", (int,), "$")
        if dim not in (1, 2):
            raise ScenarioError(f"field $.dimension must be 1 or 2, got {dim}")

        model = _require(d, "model", (dict,), "$")
        family = _require(model, "family", (str,), "$.model")
        if family not in MODEL_FAMILIES:
            raise ScenarioError(f"field $.model.family: unknown family "
                                f"{family!r}; known: {sorted(MODEL_FAMILIES)}")

        grid = _require(d, "grid", (dict,), "$")
        for key, types, ok, what in (
                ("lower", _NUM + (list,), is_finite_number, "finite numbers"),
                ("upper", _NUM + (list,), is_finite_number, "finite numbers"),
                ("points_per_axis", (int, list), _is_int, "integers")):
            v = _require(grid, key, types, "$.grid")
            if not all(ok(x) for x in (v if isinstance(v, list) else [v])):
                raise ScenarioError(f"field $.grid.{key} must hold {what}, "
                                    f"got {v!r}")

        cfg = _require(d, "config", (dict,), "$")
        for key in ("epsilon", "dt"):
            v = _require(cfg, key, _NUM, "$.config")
            if not (math.isfinite(v) and v > 0):
                raise ScenarioError(f"field $.config.{key} must be positive "
                                    f"and finite, got {v}")
        steps = _require(cfg, "steps", (int,), "$.config")
        if steps < 1:   # the run's diagnostics need two samples
            raise ScenarioError(f"field $.config.steps must be positive, "
                                f"got {steps}")
        every = cfg.get("snapshot_every", 0)
        if not _is_int(every) or every < 0:
            raise ScenarioError(f"field $.config.snapshot_every must be a "
                                f"nonnegative integer, got {every!r}")
        if "variant" in cfg:
            # a stale "variable_diffusion" file without a $.diffusion block
            # would otherwise run with b = 1
            raise ScenarioError("field $.config.variant is no longer read: "
                                "the variant follows from $.model.family and "
                                "$.diffusion")

        u0 = _require(d, "u0", (list,), "$")
        if not u0:
            raise ScenarioError("field $.u0 must list at least one bump")
        for k, bump in enumerate(u0):
            if not isinstance(bump, dict):
                raise ScenarioError(f"field $.u0[{k}] must be an object")
            center = _require(bump, "center", (list,), f"$.u0[{k}]")
            weights = _require(bump, "weights", (list,), f"$.u0[{k}]")
            if len(center) != dim or len(weights) != dim:
                raise ScenarioError(f"field $.u0[{k}]: center/weights must "
                                    f"have length {dim}")
            for key, vals in (("center", center), ("weights", weights)):
                if not all(is_finite_number(v) for v in vals):
                    raise ScenarioError(f"field $.u0[{k}].{key} must hold "
                                        f"finite numbers, got {vals!r}")
            if any(w <= 0 for w in weights):
                raise ScenarioError(f"field $.u0[{k}].weights must be "
                                    "positive (concave bumps)")

        can = d.get("canonical")
        if can is not None:
            mode = _require(can, "closure", (str,), "$.canonical")
            if mode not in ("from_pde", "frozen", "riccati"):
                raise ScenarioError(f"field $.canonical.closure: unknown "
                                    f"mode {mode!r}")
            for key in ("dt", "T"):
                if key in can and not (is_finite_number(can[key])
                                       and can[key] > 0):
                    raise ScenarioError(f"field $.canonical.{key} must be "
                                        f"positive and finite, got "
                                        f"{can[key]!r}")

        probes = d.get("probes", [])
        if not (isinstance(probes, list)
                and all(_is_int(p) and p >= 0 for p in probes)):
            raise ScenarioError(f"field $.probes must be a list of "
                                f"nonnegative integers, got {probes!r}")

        if "constants" in d:
            try:
                AssumptionConstants.from_dict(d["constants"])
            except ModelError as exc:
                raise ScenarioError(f"field $.constants: {exc}") from exc

        # a scenario that constructs can be built; building checks the
        # model's parameters and the diffusion block against their specs
        for key, error in (("grid", GridError), ("model", ModelError),
                           ("diffusion", ModelError), ("config", ConfigError)):
            try:
                getattr(self, f"build_{key}")()
            except error as exc:
                msg = str(exc)
                raise ScenarioError(msg if msg.startswith("field $.") else
                                    f"field $.{key}: {msg}") from exc

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
        c = self.raw["config"]
        return SimulationConfig(
            epsilon=c["epsilon"], dt=c["dt"], steps=c["steps"],
            snapshot_every=c.get("snapshot_every", 0),
            mass_target=c.get("mass_target", 0.3))

    def build_diffusion(self) -> DiffusionCoefficient:
        spec = self.raw.get("diffusion")
        if spec is None:
            return None
        check_spec(spec, _DIFFUSION_SPEC, self.dimension, "$.diffusion")
        params = dict(spec)
        build, _ = _DIFFUSION_TYPES[params.pop("type", "constant")]
        return build(**params)

    def build_constants(self) -> AssumptionConstants:
        return AssumptionConstants.from_dict(self.raw.get("constants", {}))

    def canonical_settings(self) -> dict:
        """Closure mode and ODE time grid; defaults mirror the PDE config."""
        can = dict(self.raw.get("canonical") or {})
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
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
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
