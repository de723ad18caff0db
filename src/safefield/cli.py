"""Command-line front end.

Subcommands: synth (controllers.json), verify (report.json, exit 1 on a
failed certificate), simulate (trajectory CSVs, exit 1 when a start fails
in closed loop or misses the goal), field (vector-field CSVs), pipeline
(all four in order).
Outputs are deterministic for a fixed config and seed.
"""

import argparse
import functools
import json
import logging
import os
import sys
import warnings

from . import planning, simulation
from .clfcbf import LinearDynamics
from .controller import GainBasis, load_controllers, save_controllers
from .errors import (
    ClosedLoopFailure,
    ConfigError,
    DimensionMismatch,
    GoalObservationOffGrid,
    LandmarkNotVisible,
    SafeFieldError,
    SolverError,
    VerificationFailed,
)
from .geometry import (
    environment_from_dict,
    integers,
    integral,
    known_keys,
    load_json,
    point,
    read,
    real,
    reals,
)
from .measurement import GridSpec, UncertaintyBounds
from .simulation import SensorModel, SimConfig

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
            env_ref = load_json(env_path, "environment")
        self.environment = environment_from_dict(env_ref, env_path)
        self.environment_path = env_path  # this config, when inline
        dim = self.environment.dimension

        self.alpha_v = read(raw, "alpha_v", real, path, "", 1.0)
        self.alpha_h = read(raw, "alpha_h", real, path, "", 100.0)
        self.epsilon = read(raw, "epsilon", real, path, "", 4.0)
        self.sigma_m = read(raw, "sigma_m", real, path, "", 16.0)
        self.verify_count = read(raw, "verify_count", integral, path, "", 200)
        self.seed = read(raw, "seed", integral, path, "", 0)
        for key, ok, need in (
                ("alpha_v", self.alpha_v > 0, "positive"),
                ("alpha_h", self.alpha_h > 0, "positive"),
                ("epsilon", self.epsilon >= 0, "non-negative"),
                ("sigma_m", self.sigma_m >= 0, "non-negative"),
                ("verify_count", self.verify_count >= 0, "non-negative")):
            if not ok:
                raise ConfigError("%s must be %s" % (key, need), path=path,
                                  field=key)

        grid = _arguments(raw, "grid", path, n=integers,
                          width=lambda value: list(reals(value)))
        if len(grid) != 2:
            raise ConfigError("grid must give n and width", path=path,
                              field="grid")
        try:
            self.grid = GridSpec(**grid)
        except DimensionMismatch as exc:
            raise ConfigError(str(exc), path=path, field="grid") from None
        if self.grid.dim != dim:
            raise ConfigError("grid has %d axes in a %d-D environment"
                              % (self.grid.dim, dim), path=path,
                              field="grid.n")

        try:
            self.basis = GainBasis(raw.get("basis", GainBasis.KNOWN))
        except DimensionMismatch as exc:
            raise ConfigError(str(exc), path=path, field="basis") from None
        self.mode = str(raw.get("mode", "stabilize")).lower()
        if self.mode not in ("stabilize", "patrol"):
            raise ConfigError("mode must be stabilize or patrol",
                              path=path, field="mode")
        sim = _arguments(raw, "sim", path, dt=real, max_time=real,
                         goal_tol=real, seed=integral, sensor=None)
        sensor = _arguments(raw, "sim.sensor", path, kind=str, drift=real,
                            variance=real)
        try:
            self.sim = SimConfig(sensor=SensorModel(**sensor), **sim)
        except ConfigError as exc:  # it knows the field, not the file
            raise ConfigError(exc.reason, path=path, field=exc.field) from None
        # the loop holds u for a step, so h_{k+1} >= (1 - alpha_h dt) h_k
        # + delta dt: the barrier rows carry over only while alpha_h dt <= 1
        if self.alpha_h * self.sim.dt > 1:
            warnings.warn(
                "alpha_h * sim.dt = %g * %g = %g exceeds 1: the barrier rows "
                "hold in the sampled loop only when alpha_h * sim.dt <= 1"
                % (self.alpha_h, self.sim.dt, self.alpha_h * self.sim.dt))
        to_point = point(dim)
        self.starts = read(raw, "starts", lambda v: [to_point(s) for s in v],
                           path, "", [self.environment.start])
        if not self.starts:
            raise ConfigError("starts names no start", path=path,
                              field="starts")
        field = _arguments(
            raw, "field", path, cells=integers, resolution=lambda value:
            integers(value if isinstance(value, list) else [value] * dim))
        self.field_resolution = tuple(field.get("resolution", (12,) * dim))
        if len(self.field_resolution) != dim:
            raise ConfigError("resolution has %d entries in a %d-D environment"
                              % (len(self.field_resolution), dim),
                              path=path, field="field.resolution")
        if min(self.field_resolution) < 2:
            raise ConfigError("resolution must be at least 2 per axis",
                              path=path, field="field.resolution")
        self.field_cells = field.get("cells")
        self.out = raw.get("out", "out")
        if not isinstance(self.out, str):
            raise ConfigError("out must be a directory path",
                              path=path, field="out")

    @functools.cached_property
    def plan(self):
        """The run's one plan, made when a command first reads it (loading
        a config builds no graph), before it writes a file. A planning
        refusal names the environment file; a start in no plan cell, or a
        field.cells id that the plan lacks, names this config."""
        env = self.environment
        try:
            plan = planning.make_plan(env, planning.build_graph(env),
                                      self.mode)
        except ConfigError as exc:
            raise ConfigError(exc.reason, path=self.environment_path,
                              field=exc.field) from None
        for k, start in enumerate(self.starts):
            try:
                simulation.start_cell(env, plan, start)
            except ConfigError as exc:
                raise ConfigError("%s (start %d)" % (exc.reason, k),
                                  path=self.path, field="starts") from None
        if self.field_cells is not None:
            _plan_cells(self.field_cells, env, plan, path=self.path,
                        field="field.cells")
        return plan

    @property
    def bounds(self):
        return UncertaintyBounds(self.epsilon, self.sigma_m)


def _arguments(raw, name, path, **kinds):
    """Keyword arguments from the object at dotted name (absent or null:
    none), each entry present read by its converter (geometry.read), so that
    an absent entry keeps the constructor's default. A converter of None
    marks a nested object, read on its own; a key without one is rejected."""
    section = raw
    for part in name.split("."):
        section = section.get(part)
        section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError("%s must be an object" % name, path=path, field=name)
    known_keys(section, name + ".", kinds, path)
    return {key: read(section, key, convert, path, name + ".")
            for key, convert in kinds.items()
            if convert is not None and key in section}


def load_config(path, overrides=()):
    """The run config at path, each (dotted key, value) of overrides written
    into it before RunConfig checks it, so that a flag gets its entry's
    checks. A section that is not an object is left for RunConfig to refuse."""
    raw = load_json(path, "config")
    for key, value in overrides:
        *parents, last = key.split(".")
        section = raw
        for part in parents:
            if isinstance(section, dict):
                if section.get(part) is None:
                    section[part] = {}
                section = section[part]
        if isinstance(section, dict):
            section[last] = value
    return RunConfig(raw, base_dir=os.path.dirname(os.path.abspath(path)),
                     path=path)


def _parse_cells(arg):
    if arg is None:
        return None
    try:
        cells = [int(tok) for tok in arg.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError("cells must be a comma-separated id list",
                          field="cells")
    if not cells:
        raise ConfigError("cells names no cell id", field="cells")
    return cells


def _plan_cells(cells, env, plan, path=None, field="cells"):
    """Refuse a repeated id and cells outside plan: ids the environment
    lacks, and cells it has that plan does not hold, which only a patrol
    plan leaves out. The --cells flag comes from no file."""
    repeated = sorted({c for c in cells if cells.count(c) > 1})
    if repeated:
        raise ConfigError("repeated cell ids %s" % repeated,
                          path=path, field=field)
    missing = [c for c in cells if c not in {cell.id for cell in env.cells}]
    if missing:
        raise ConfigError("unknown cell ids %s" % missing,
                          path=path, field=field)
    off = [c for c in cells if c not in plan.entries]
    if off:
        raise ConfigError("cell ids %s are not on the patrol cycle %s"
                          % (off, list(plan.entries)), path=path, field=field)


def _controllers_path(cfg):
    return os.path.join(cfg.out, "controllers.json")


def cmd_synth(cfg, cells=None):
    from . import synthesis

    env = cfg.environment
    entries = cfg.plan.entries
    if cells is not None:
        _plan_cells(cells, env, cfg.plan)
        entries = {c: entries[c] for c in cells}
    dynamics = LinearDynamics.single_integrator(env.dimension)
    try:
        controllers = synthesis.synthesize_environment(
            env, entries, dynamics, cfg.grid, cfg.bounds, cfg.basis,
            cfg.alpha_v, cfg.alpha_h,
        )
    except (LandmarkNotVisible, GoalObservationOffGrid) as exc:
        # the grid is too narrow for a landmark's offsets, seen from
        # some point of its cell or from the goal
        raise ConfigError(str(exc), path=cfg.path, field="grid.width") from None
    os.makedirs(cfg.out, exist_ok=True)
    save_controllers(controllers, _controllers_path(cfg))
    for cell_id, ctrl in controllers.items():
        print("cell %d: %s, min margin %.6g, max |u| %.6g"
              % (cell_id, ctrl.status, ctrl.margins.min(),
                 ctrl.saturation["max_u_vertices"]))
    print("wrote %s" % _controllers_path(cfg))
    return EXIT_OK


def cmd_verify(cfg):
    from . import verification

    controllers = load_controllers(_controllers_path(cfg), cfg.environment,
                                   cfg.plan)
    reports = verification.verify_environment(
        controllers, count=cfg.verify_count, seed=cfg.seed,
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
        vacuous = [r["kind"] if r["facet"] is None
                   else "%s facet %d" % (r["kind"], r["facet"])
                   for r in rep.rows if r["vacuous"]]
        print("cell %d: %s (worst slack %s)%s"
              % (rep.cell_id, "pass" if rep.passed else "FAIL",
                 "none" if worst is None else "%.3g" % worst["worst_slack"],
                 ", vacuous rows: " + ", ".join(vacuous) if vacuous else ""))
    print("wrote %s" % path)
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def cmd_simulate(cfg):
    env, plan = cfg.environment, cfg.plan
    controllers = load_controllers(_controllers_path(cfg), env, plan)
    os.makedirs(cfg.out, exist_ok=True)
    code = EXIT_OK
    # one set of step plans, and so one input bank, for all the starts:
    # a start reuses the inputs that earlier starts banked
    steps = {}
    for k, start in enumerate(cfg.starts):
        path = os.path.join(cfg.out, "trajectory_%d.csv" % k)
        try:
            traj = simulation.run_trajectory(env, plan, controllers, cfg.sim,
                                             x0=start, steps=steps)
        except ConfigError as exc:
            # the simulator names a cell without a controller; the file it
            # came from is known only here (cfg.plan has checked the starts)
            raise ConfigError(exc.reason, path=_controllers_path(cfg),
                              field=exc.field) from None
        except ClosedLoopFailure as exc:
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
    if cells is not None:
        _plan_cells(cells, env, cfg.plan)
    controllers = load_controllers(_controllers_path(cfg), env, cfg.plan)
    wanted = cells if cells is not None else cfg.field_cells
    if wanted is None:
        wanted = sorted(controllers)
    os.makedirs(cfg.out, exist_ok=True)
    for cid in wanted:
        if cid not in controllers:
            raise ConfigError("no controller for cell %d" % cid,
                              path=_controllers_path(cfg), field="controllers")
        arr = simulation.sample_vector_field(
            controllers[cid], cfg.field_resolution,
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
        cfg = load_config(args.config, [(key, value) for key, value in (
            ("out", args.out), ("seed", args.seed), ("sim.seed", args.seed),
            ("epsilon", args.eps), ("sigma_m", args.sigma),
            ("sim.sensor.kind", args.sensor)) if value is not None])
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
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except (VerificationFailed, ClosedLoopFailure) as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except SafeFieldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
