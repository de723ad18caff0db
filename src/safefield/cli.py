"""Command-line front end.

Subcommands: synth (controllers.json), verify (report.json, exit 1 on a
failed certificate), simulate (trajectory CSVs, exit 1 on a safety
violation), field (vector-field CSVs), pipeline (all four in order).
Outputs are deterministic for a fixed config and seed.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import planning, simulation, synthesis, verification
from .clfcbf import LinearDynamics
from .errors import (
    ConfigError,
    DimensionMismatch,
    LeftFreeSpace,
    NumericalFailure,
    OffPlanCrossing,
    SafeFieldError,
    SafetyViolation,
    SolverFailure,
    SynthesisInfeasible,
    VerificationFailed,
)
from .geometry import environment_from_dict, integral, known_keys, real
from .measurement import GridSpec, UncertaintyBounds
from .simulation import SensorModel, SimConfig
from .synthesis import GainBasis

log = logging.getLogger("safefield")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class RunConfig:
    """Validated run description loaded from a JSON file. A key that it
    does not read is an error, so a misspelt or retired key cannot change a
    run without a word."""

    def __init__(self, raw, base_dir=".", path=None):
        self.path = path
        if not isinstance(raw, dict):
            raise ConfigError("a run config must be a JSON object", path=path)
        known_keys(raw, "", ("environment", "alpha_v", "alpha_h", "epsilon",
                             "sigma_m", "grid", "basis", "mode", "sim",
                             "starts", "field", "verify_count", "out",
                             "seed"), path)
        env_ref = raw.get("environment")
        if env_ref is None:
            raise ConfigError("missing environment", path=path, field="environment")
        env_path = path
        if isinstance(env_ref, str):
            env_path = os.path.join(base_dir, env_ref)
            if not os.path.exists(env_path):
                raise ConfigError("environment file not found",
                                  path=env_path, field="environment")
            with open(env_path) as fh:
                env_ref = _load_json(fh, env_path)
        self.environment = environment_from_dict(env_ref, env_path)
        self.environment_path = env_path  # this config, when inline

        self.alpha_v = _number(raw, "alpha_v", 1.0, float, path)
        self.alpha_h = _number(raw, "alpha_h", 100.0, float, path)
        for name in ("alpha_v", "alpha_h"):
            if not getattr(self, name) > 0:
                raise ConfigError("%s must be positive" % name,
                                  path=path, field=name)
        self.epsilon = _number(raw, "epsilon", 4.0, float, path)
        self.sigma_m = _number(raw, "sigma_m", 16.0, float, path)
        self.check_bounds()

        grid = _arguments(raw, "grid", path, n=int, width=float)
        if not all(isinstance(grid.get(key), tuple) for key in ("n", "width")):
            raise ConfigError("grid must give n and width as lists",
                              path=path, field="grid")
        self.grid = GridSpec(grid["n"], grid["width"])

        try:
            self.basis = GainBasis(raw.get("basis", GainBasis.KNOWN))
        except DimensionMismatch as exc:
            raise ConfigError(str(exc), path=path, field="basis") from None
        self.mode = str(raw.get("mode", "stabilize")).lower()
        if self.mode not in ("stabilize", "patrol"):
            raise ConfigError("mode must be stabilize or patrol",
                              path=path, field="mode")
        sim = _arguments(raw, "sim", path, dt=float, max_time=float,
                         goal_tol=float, seed=int, sensor=None)
        sensor = _arguments(raw, "sim.sensor", path, kind=str, drift=float,
                            variance=float)
        self.sim = SimConfig(sensor=SensorModel(**sensor), **sim)
        self.starts = [np.asarray(s) for s in _number(
            raw, "starts", [self.environment.start],
            lambda point: [real(v) for v in point], path)]
        for k, start in enumerate(self.starts):
            if start.shape != (self.environment.dimension,):
                raise ConfigError(
                    "start %d has %d coordinates in a %d-D environment"
                    % (k, start.size, self.environment.dimension),
                    path=path, field="starts")
        self._check_starts()
        field = _arguments(raw, "field", path, resolution=int, cells=int)
        dim = self.environment.dimension
        resolution = field.get("resolution", 12)
        if not isinstance(resolution, tuple):
            resolution = (resolution,) * dim
        if len(resolution) != dim:
            raise ConfigError("resolution has %d entries in a %d-D environment"
                              % (len(resolution), dim),
                              path=path, field="field.resolution")
        self.field_resolution = resolution
        self.field_cells = field.get("cells")
        if self.field_cells is not None and not (
                isinstance(self.field_cells, tuple)
                and set(self.field_cells) <= {c.id for c in self.environment.cells}):
            raise ConfigError("cells must be a list of the environment's cell ids",
                              path=path, field="field.cells")
        self.verify_count = _number(raw, "verify_count", 200, int, path)
        if self.verify_count < 0:
            raise ConfigError("verify_count must be non-negative",
                              path=path, field="verify_count")
        self.out = raw.get("out", "out")
        if not isinstance(self.out, str):
            raise ConfigError("out must be a directory path",
                              path=path, field="out")
        self.seed = _number(raw, "seed", 0, int, path)

    def _check_starts(self):
        """A run begins in a plan cell that holds its start: any cell in
        stabilize mode, a cycle cell in patrol mode. So a start in none, or a
        patrol run without a cycle, is rejected before any synthesis. A
        cycle that names an unknown cell is left to planning to report."""
        env = self.environment
        cell_ids = [c.id for c in env.cells]
        if self.mode == "patrol":
            cycle = env.patrol_cycle
            if not cycle:
                raise ConfigError("patrol mode requires a patrol cycle",
                                  path=self.environment_path,
                                  field="environment.patrol_cycle")
            if not set(cycle) <= set(cell_ids):
                return
            cell_ids = cycle
        for k, start in enumerate(self.starts):
            try:
                simulation.start_cell(env, self.mode, cell_ids, start)
            except ConfigError as exc:
                raise ConfigError("%s (start %d)" % (exc.reason, k),
                                  path=self.path, field="starts") from None

    def check_bounds(self):
        """The sensing bounds must be non-negative; rechecked after the
        command-line overrides."""
        for name in ("epsilon", "sigma_m"):
            if not getattr(self, name) >= 0:
                raise ConfigError("%s must be non-negative" % name,
                                  path=self.path, field=name)

    @property
    def bounds(self):
        return UncertaintyBounds(self.epsilon, self.sigma_m)


def _number(raw, key, default, kind, path):
    """raw[key] (or default) converted by kind, entry by entry for a list.
    A dotted key names an entry of a nested section. An entry read as float
    must be a number (geometry.real), so that "4" and true are refused; one
    read as int must also be integral, so that 0.7 is refused rather than
    read as 0."""
    value = raw
    for part in key.split("."):
        value = value.get(part, default) if isinstance(value, dict) else default
    convert = {int: integral, float: real}.get(kind, kind)
    try:
        if isinstance(value, (list, tuple)):
            return tuple(convert(v) for v in value)
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s must be %s" % (key, "integral" if kind is int
                                             else "numeric"),
                          path=path, field=key) from None


def _arguments(raw, name, path, **kinds):
    """Keyword arguments from the object at dotted name (absent or null:
    none), each entry converted by its kind, so that an absent entry keeps
    the constructor's default. A kind of None marks a nested object, read
    on its own; a key without a kind is rejected."""
    section = raw
    for part in name.split("."):
        section = section.get(part) or {}
    if not isinstance(section, dict):
        raise ConfigError("%s must be an object" % name, path=path, field=name)
    known_keys(section, name + ".", kinds, path)
    return {key: _number(raw, "%s.%s" % (name, key), None, kind, path)
            for key, kind in kinds.items() if kind is not None and key in section}


def _load_json(fh, path):
    try:
        return json.load(fh)
    except ValueError as exc:
        raise ConfigError("invalid JSON: %s" % exc, path=path)


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError("config file not found", path=path, field="config")
    with open(path) as fh:
        raw = _load_json(fh, path)
    return RunConfig(raw, base_dir=os.path.dirname(os.path.abspath(path)),
                     path=path)


def _apply_overrides(cfg, args):
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.sim.seed = args.seed
    if args.eps is not None:
        cfg.epsilon = args.eps
    if args.sigma is not None:
        cfg.sigma_m = args.sigma
    cfg.check_bounds()
    if args.sensor is not None:
        cfg.sim.sensor = SensorModel(args.sensor, cfg.sim.sensor.drift,
                                     cfg.sim.sensor.variance)


def _parse_cells(arg):
    if arg is None:
        return None
    try:
        return [int(tok) for tok in arg.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError("cells must be a comma-separated id list",
                          field="cells")


def _controllers_path(cfg):
    return os.path.join(cfg.out, "controllers.json")


def _load_controllers(cfg, plan):
    """The controllers of controllers.json, bound to the run's plan and
    environment (synthesis.load_controllers)."""
    path = _controllers_path(cfg)
    if not os.path.exists(path):
        raise ConfigError("controllers.json not found; run synth first",
                          path=path, field="controllers")
    return synthesis.load_controllers(path, cfg.environment, plan)


def _plan(cfg):
    """The run's plan; a plan error names the environment file."""
    env = cfg.environment
    try:
        return planning.make_plan(env, planning.build_graph(env), cfg.mode)
    except ConfigError as exc:
        raise ConfigError(exc.reason, path=cfg.environment_path,
                          field=exc.field) from None


def cmd_synth(cfg, cells=None):
    env = cfg.environment
    entries = _plan(cfg).entries
    if cells is not None:
        missing = [c for c in cells if c not in entries]
        if missing:
            raise ConfigError("unknown cell ids %s" % missing, field="cells")
        entries = {c: entries[c] for c in cells}
    dynamics = LinearDynamics.single_integrator(env.dimension)
    controllers = synthesis.synthesize_environment(
        env, entries, dynamics, cfg.grid, cfg.bounds, cfg.basis,
        cfg.alpha_v, cfg.alpha_h,
    )
    os.makedirs(cfg.out, exist_ok=True)
    synthesis.save_controllers(controllers, _controllers_path(cfg))
    for cell_id, ctrl in controllers.items():
        print("cell %d: %s, min margin %.6g, max |u| %.6g"
              % (cell_id, ctrl.status, ctrl.margins.min(),
                 ctrl.saturation["max_u_vertices"]))
    print("wrote %s" % _controllers_path(cfg))
    return EXIT_OK


def cmd_verify(cfg):
    env = cfg.environment
    controllers = _load_controllers(cfg, _plan(cfg))
    reports = verification.verify_environment(
        controllers, env, count=cfg.verify_count, seed=cfg.seed,
        raise_on_fail=False,
    )
    os.makedirs(cfg.out, exist_ok=True)
    payload = {
        "pass": all(r.passed for r in reports),
        "cells": [r.to_dict() for r in reports],
    }
    path = os.path.join(cfg.out, "report.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for rep in reports:
        worst = rep.worst()
        print("cell %d: %s (worst slack %s)"
              % (rep.cell_id, "pass" if rep.passed else "FAIL",
                 "none" if worst is None else "%.3g" % worst["worst_slack"]))
    print("wrote %s" % path)
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def cmd_simulate(cfg):
    env = cfg.environment
    plan = _plan(cfg)
    controllers = _load_controllers(cfg, plan)
    os.makedirs(cfg.out, exist_ok=True)
    code = EXIT_OK
    for k, start in enumerate(cfg.starts):
        path = os.path.join(cfg.out, "trajectory_%d.csv" % k)
        try:
            traj = simulation.run_trajectory(env, plan, controllers, cfg.sim,
                                             x0=start)
        except ConfigError as exc:
            # the simulator names a cell without a controller or a start in
            # no plan cell; the file they came from is known only here
            source = (_controllers_path(cfg) if exc.field == "controllers"
                      else cfg.path)
            raise ConfigError(exc.reason, path=source, field=exc.field) from None
        except (SafetyViolation, LeftFreeSpace, OffPlanCrossing) as exc:
            if exc.trajectory is not None:
                exc.trajectory.to_csv(path)
            print("start %d: FAIL (%s)" % (k, exc))
            code = EXIT_FAIL
            continue
        traj.to_csv(path)
        if cfg.mode == "patrol":
            print("start %d: %d crossings, wrote %s"
                  % (k, traj.crossings, path))
        else:
            print("start %d: reached=%s, wrote %s" % (k, traj.reached, path))
            if not traj.reached:
                code = EXIT_FAIL
    return code


def cmd_field(cfg, cells=None):
    env = cfg.environment
    controllers = _load_controllers(cfg, _plan(cfg))
    wanted = cells if cells is not None else cfg.field_cells
    if wanted is None:
        wanted = sorted(controllers)
    os.makedirs(cfg.out, exist_ok=True)
    for cid in wanted:
        if cid not in controllers:
            raise ConfigError("no controller for cell %d" % cid,
                              path=_controllers_path(cfg), field="controllers")
        cell = env.cell_by_id(cid)
        arr = simulation.sample_vector_field(
            cell, controllers[cid], cfg.field_resolution,
            sensor=cfg.sim.sensor, seed=cfg.seed,
        )
        path = os.path.join(cfg.out, "field_cell%d.csv" % cid)
        simulation.save_field_csv(arr, env.dimension, path)
        print("cell %d: %d lattice points, wrote %s" % (cid, len(arr), path))
    return EXIT_OK


def cmd_pipeline(cfg, cells=None):
    for step in (lambda: cmd_synth(cfg, cells), lambda: cmd_verify(cfg),
                 lambda: cmd_simulate(cfg), lambda: cmd_field(cfg, cells)):
        code = step()
        if code != EXIT_OK:
            return code
    return EXIT_OK


# beyond --config and --out, each subcommand takes only the flags it reads
FLAGS = {
    "seed": dict(type=int, help="seed override: verification sampling, "
                                "field and simulation sensor noise"),
    "cells": dict(help="comma-separated cell id subset"),
    "sensor": dict(choices=("delta", "gaussian"), help="sensor kind override"),
    "eps": dict(type=float, help="support half-width override"),
    "sigma": dict(type=float, help="deviation bound override"),
}
SUBCOMMANDS = (
    ("synth", "synthesize controllers and write controllers.json",
     ("cells", "eps", "sigma")),
    ("verify", "re-check controllers adversarially, write report.json",
     ("seed",)),
    ("simulate", "run closed-loop trajectories, write CSVs",
     ("seed", "sensor")),
    ("field", "sample per-cell vector fields, write CSVs",
     ("seed", "cells", "sensor")),
    ("pipeline", "synth, verify, simulate and field in order", tuple(FLAGS)),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="safefield",
        description="Synthesize, certify and simulate measurement-robust "
                    "per-cell feedback controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, flags in SUBCOMMANDS:
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="run config JSON")
        sp.add_argument("--out", help="output directory override")
        for flag in flags:
            sp.add_argument("--" + flag, **FLAGS[flag])
        sp.set_defaults(**{flag: None for flag in FLAGS if flag not in flags})
    return parser


def main(argv=None):
    level = os.environ.get("SAFE_FIELD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        cells = _parse_cells(args.cells)
        if args.command == "synth":
            return cmd_synth(cfg, cells)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "field":
            return cmd_field(cfg, cells)
        return cmd_pipeline(cfg, cells)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (SynthesisInfeasible, SolverFailure, NumericalFailure) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except (VerificationFailed, SafetyViolation, LeftFreeSpace) as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except SafeFieldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
