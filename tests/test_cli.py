import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import safefield
from helpers import OFF_GRID_ENV, counted_law, pushing_controller
from safefield import cli, planning, simulation, synthesis
from safefield.errors import ClosedLoopFailure, NumericalFailure, SafeFieldError
from safefield.controller import load_controllers, save_controllers

pytestmark = pytest.mark.filterwarnings("ignore:bounds")

ENV = {
    "cells": [
        {"id": 0, "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
         "landmark_ids": [0]},
        {"id": 1, "vertices": [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]],
         "landmark_ids": [1]},
        {"id": 2, "vertices": [[0.0, 1.0], [2.0, 1.0], [2.0, 2.0], [0.0, 2.0]],
         "landmark_ids": [2]},
    ],
    "landmarks": [[1.0, 1.0], [1.5, 0.5], [1.0, 1.5]],
    "start": [0.4, 1.6],
    "goal": [1.0, 1.0],
    "patrol_cycle": [0, 1],
}


def write_config(tmp, mode="stabilize", **extra):
    tmp.mkdir(parents=True, exist_ok=True)
    (tmp / "env.json").write_text(json.dumps(ENV))
    cfg = {
        "environment": "env.json",
        "alpha_v": 1.0,
        "alpha_h": 100.0,
        "epsilon": 0.05,
        "sigma_m": 0.2,
        "grid": {"n": [16, 16], "width": [6.0, 6.0]},
        "mode": mode,
        "sim": {"dt": 0.01, "max_time": 30.0, "goal_tol": 0.05},
        "starts": [[0.4, 1.6]] if mode == "stabilize" else [[0.5, 0.5]],
        "field": {"resolution": [5, 5], "cells": [0]},
        "verify_count": 8,
        "out": str(tmp / "out"),
        "seed": 0,
    }
    cfg.update(extra)
    path = tmp / "run.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp)
    assert cli.main(["pipeline", "--config", str(cfg)]) == 0
    return tmp


def test_missing_config_exits_config_code(tmp_path):
    assert cli.main(["synth", "--config", str(tmp_path / "nope.json")]) == 2


def test_missing_environment_exits_config_code(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"environment": "absent.json",
                               "grid": {"n": [4, 4], "width": [2.0, 2.0]}}))
    assert cli.main(["synth", "--config", str(cfg)]) == 2


def test_bad_sensor_kind_exits_config_code(tmp_path):
    cfg = write_config(tmp_path, sim={"sensor": {"kind": "lidar"}})
    assert cli.main(["synth", "--config", str(cfg)]) == 2


def test_negative_verify_count_exits_config_code(tmp_path):
    cfg = write_config(tmp_path, verify_count=-1)
    with pytest.raises(cli.ConfigError) as info:
        cli.load_config(str(cfg))
    assert info.value.field == "verify_count"
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    # zero samples is legal: only the cell and region vertices are audited
    assert cli.load_config(str(write_config(tmp_path, verify_count=0))).verify_count == 0


@pytest.mark.parametrize("extra, flags, field", [
    ({}, ["--eps", "-1"], "epsilon"),
    ({"sigma_m": -2}, [], "sigma_m"),
    ({"verify_count": "many"}, [], "verify_count"),
    ({"sim": {"dt": "fast"}}, [], "sim.dt"),
    ({"sim": {"max_time": -5.0}}, [], "sim.max_time"),
    ({"sim": {"seed": "s"}}, [], "sim.seed"),
    ({"sim": {"sensor": {"kind": "gaussian", "drift": "far"}}}, [],
     "sim.sensor.drift"),
    ({"grid": {"n": ["a", 4], "width": [6.0, 6.0]}}, [], "grid.n"),
    ({"grid": {"n": [20.9, 20], "width": [6.0, 6.0]}}, [], "grid.n"),
    # GridSpec's refusals, and a grid of another dimension than the
    # environment's, are found when the config loads
    ({"grid": {"n": [1, 20], "width": [6.0, 6.0]}}, [], "grid"),
    ({"grid": {"n": [16, 16], "width": [0.0, 6.0]}}, [], "grid"),
    ({"grid": {"n": [16, 16, 16], "width": [6.0, 6.0]}}, [], "grid"),
    ({"grid": {"n": [16, 16, 16], "width": [6.0, 6.0, 6.0]}}, [], "grid.n"),
    ({"grid": {"n": [16, 16], "width": 6.0}}, [], "grid.width"),
    ({"field": {"cells": [0.7]}}, [], "field.cells"),
    ({"field": {"resolution": [5, "x"]}}, [], "field.resolution"),
    ({"field": {"resolution": [10, 10, 10]}}, [], "field.resolution"),
    ({"field": {"resolution": 1}}, [], "field.resolution"),
    ({"starts": [["a", 1]]}, [], "starts"),
    ({"starts": [0.4, 1.6]}, [], "starts"),
    ({"starts": [[0.4, 1.6, 0.0]]}, [], "starts"),
    # a run that checks no start would pass without a word
    ({"starts": []}, [], "starts"),
    ({"out": 5}, [], "out"),
    # a section that is not an object, and a bad value a constructor finds
    ({"sim": 0}, [], "sim"),
    ({"sim": {"sensor": {"kind": "lidar"}}}, [], "sim.sensor.kind"),
], ids=["negative-eps-flag", "negative-sigma_m", "non-numeric-verify_count",
        "non-numeric-sim.dt", "non-positive-sim.max_time",
        "non-numeric-sim.seed",
        "non-numeric-sensor.drift", "non-numeric-grid.n",
        "non-integral-grid.n", "grid.n-below-2", "zero-grid.width",
        "grid.n-and-width-of-different-lengths", "grid-of-wrong-dimension",
        "grid.width-not-a-list", "non-integral-field.cells",
        "non-numeric-field.resolution", "field.resolution-of-wrong-length",
        "field.resolution-below-2",
        "non-numeric-starts",
        "starts-not-a-list-of-points", "start-of-wrong-dimension",
        "empty-starts",
        "non-string-out", "falsy-sim-section", "unknown-sensor-kind"])
def test_bad_number_exits_config_code(tmp_path, capsys, extra, flags, field):
    cfg = write_config(tmp_path, **extra)
    assert cli.main(["synth", "--config", str(cfg)] + flags) == 2
    assert "field %s)" % field in capsys.readouterr().err


@pytest.mark.parametrize("env, field", [
    (dict(ENV, landmarks=[["a", 1.0]] * 3), "environment.landmarks"),
    ({k: v for k, v in ENV.items() if k != "goal"}, "environment.goal"),
    (dict(ENV, cells=[{"id": 0, "landmark_ids": [0]}]),
     "environment.cells.0.vertices"),
    (dict(ENV, cells=[dict(ENV["cells"][0], id="x")] + ENV["cells"][1:]),
     "environment.cells.0.id"),
    (dict(ENV, start=[0.4, 1.6, 0.0]), "environment.start"),
    (dict(ENV, goal=[1.0, 1.0, 0.0]), "environment.goal"),
    # an entry read as an integer must be integral, not truncated
    (dict(ENV, cells=[ENV["cells"][0], dict(ENV["cells"][1], id=1.5),
                      ENV["cells"][2]]), "environment.cells.1.id"),
    (dict(ENV, cells=[dict(ENV["cells"][0], landmark_ids=[0.7])]
          + ENV["cells"][1:]), "environment.cells.0.landmark_ids"),
    (dict(ENV, patrol_cycle=[0, 1.9]), "environment.patrol_cycle"),
    (dict(ENV, cells=[ENV["cells"][0], dict(ENV["cells"][1], id=0),
                      ENV["cells"][2]]), "environment.cells.1.id"),
    # a key that nothing reads, or a dimension the landmarks do not have
    (dict(ENV, goals=[1.0, 1.0]), "environment.goals"),
    (dict(ENV, cells=[dict(ENV["cells"][0], landmark_id=[0])]
          + ENV["cells"][1:]), "environment.cells.0.landmark_id"),
    (dict(ENV, dimension=3), "environment.dimension"),
    # what ConvexCell and Environment refuse names its entry too
    (dict(ENV, cells=[dict(ENV["cells"][0], vertices=[[0.0, 0.0]] * 2
                           + ENV["cells"][0]["vertices"][1:])]
          + ENV["cells"][1:]), "environment.cells.0.vertices"),
    (dict(ENV, cells=[ENV["cells"][0], dict(
        ENV["cells"][1], vertices=ENV["cells"][1]["vertices"][::-1]),
        ENV["cells"][2]]), "environment.cells.1.vertices"),
    (dict(ENV, cells=ENV["cells"][:2] + [dict(ENV["cells"][2],
                                              landmark_ids=[5])]),
     "environment.cells.2.landmark_ids"),
    (dict(ENV, goal=[0.5, 0.5]), "environment.goal"),
], ids=["non-numeric-landmarks", "no-goal", "cell-without-vertices",
        "non-integer-cell-id", "start-of-wrong-dimension",
        "goal-of-wrong-dimension", "non-integral-cell-id",
        "non-integral-landmark_ids", "non-integral-patrol_cycle",
        "repeated-cell-id", "unknown-top-level-key", "unknown-cell-key",
        "dimension-other-than-the-landmarks", "repeated-vertex",
        "clockwise-vertices", "landmark-id-out-of-range",
        "goal-not-a-vertex"])
def test_bad_environment_exits_config_code(tmp_path, capsys, env, field):
    cfg = write_config(tmp_path, environment=env)
    assert cli.main(["synth", "--config", str(cfg)]) == 2
    assert "field %s)" % field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--cells", "9"],
    ["field", "--cells", "x"],
    # the environment has no cell 9: the flag is wrong, not controllers.json
    ["field", "--cells", "9"],
], ids=["unknown-cell", "malformed-cells", "field-unknown-cell"])
def test_flag_error_names_no_file(tmp_path, capsys, argv):
    # a flag comes from no file: the message names only the field
    cfg = write_config(tmp_path)
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "(field cells)" in err and "None" not in err


def test_synth_of_a_cell_off_the_patrol_cycle_says_so(tmp_path, capsys):
    # ENV has cells 0, 1 and 2; its patrol cycle is [0, 1]
    cfg = write_config(tmp_path, mode="patrol")
    assert cli.main(["synth", "--config", str(cfg), "--cells", "2"]) == 2
    err = capsys.readouterr().err
    assert ("cell ids [2] are not on the patrol cycle [0, 1] (field cells)"
            in err)
    assert not (tmp_path / "out" / "controllers.json").exists()


def test_field_of_a_cell_off_the_patrol_cycle_says_so(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="patrol")
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["field", "--config", str(cfg), "--cells", "2"]) == 2
    err = capsys.readouterr().err
    assert ("cell ids [2] are not on the patrol cycle [0, 1] (field cells)"
            in err)
    assert "controllers.json" not in err
    # the same cell from the config's field.cells is refused at load
    cfg = write_config(tmp_path, mode="patrol", field={"cells": [2]})
    assert cli.main(["field", "--config", str(cfg)]) == 2
    assert ("not on the patrol cycle [0, 1] (file %s, field field.cells)" % cfg
            in capsys.readouterr().err)


# a fourth cell right of cells 1 and 2, sharing no facet with cell 0
FOUR_CELLS = ENV["cells"] + [
    {"id": 3, "vertices": [[2.0, 0.0], [3.0, 0.0], [3.0, 2.0], [2.0, 2.0]],
     "landmark_ids": [1]},
]


@pytest.mark.parametrize("cells, cycle, message", [
    (ENV["cells"], [0, 7], "from cell 0 to cell 7"),
    (ENV["cells"], [0, 0], "from cell 0 to cell 0"),
    (FOUR_CELLS, [0, 3], "from cell 0 to cell 3"),
    (ENV["cells"], ["a", 1], "malformed"),
    # cell 0 borders cells 1 and 2, but one controller has one exit facet
    (ENV["cells"], [0, 1, 0, 2], "visits cell 0 twice"),
], ids=["unknown-cell", "repeated-cell", "not-adjacent", "non-integer",
        "revisited-cell"])
def test_bad_patrol_cycle_exits_config_code(tmp_path, capsys, cells, cycle,
                                            message):
    env = dict(ENV, cells=cells, patrol_cycle=cycle)
    cfg = write_config(tmp_path, mode="patrol", environment=env)
    assert cli.main(["synth", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    # the environment is inline, so the run config is its file
    assert "(file %s, field environment.patrol_cycle)" % cfg in err
    assert not (tmp_path / "out" / "controllers.json").exists()


@pytest.mark.parametrize("cycle, message", [
    ([0, 1, 0, 2], "visits cell 0 twice"),
    (None, "patrol mode requires a patrol cycle"),
    # cell 2's facet y = 1 runs to x = 2, but cell 0 holds only x <= 1 of it
    ([2, 0], "from cell 2 to cell 0 through an exit facet longer than the "
             "segment they share, which ends at the T-junction [1.0, 1.0]"),
], ids=["revisited-cell", "no-cycle", "t-junction"])
def test_patrol_cycle_error_names_the_environment_file(tmp_path, capsys,
                                                       cycle, message):
    cfg = write_config(tmp_path, mode="patrol")
    env = {k: v for k, v in ENV.items() if k != "patrol_cycle"}
    if cycle is not None:
        env["patrol_cycle"] = cycle
    (tmp_path / "env.json").write_text(json.dumps(env))
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "(file %s, field environment.patrol_cycle)" % os.path.join(
        str(tmp_path), "env.json") in err
    assert not (tmp_path / "out" / "controllers.json").exists()


# two unit squares that share no facet
APART = [ENV["cells"][0], dict(ENV["cells"][1], vertices=[
    [2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]])]
# the progress function from the goal (0, 0) toward the vertex centroid
# is negative at the vertex (-1, 1)
SLANTED = [{"id": 0, "vertices": [[0.0, 0.0], [10.0, 0.0], [10.0, 1.0],
                                  [-1.0, 1.0]], "landmark_ids": [0]}]


@pytest.mark.parametrize("cells, goal, message", [
    (APART, [1.0, 1.0],
     "cells [1] unreachable from cell 0 (file %s, field environment.cells)"),
    (SLANTED, [0.0, 0.0],
     "progress function dips to -0.89 at a vertex of goal cell 0 "
     "(file %s, field environment.goal)"),
], ids=["disconnected", "goal-progress-dips"])
def test_planning_error_names_the_environment_file(tmp_path, capsys, cells,
                                                   goal, message):
    cfg = write_config(tmp_path, starts=[[0.5, 0.5]])
    env = tmp_path / "env.json"
    env.write_text(json.dumps(dict(ENV, cells=cells, goal=goal)))
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % (message % env)
    assert not (tmp_path / "out").exists()


def test_a_run_makes_its_plan_once(tmp_path, monkeypatch):
    # loading a config builds no graph; the commands of a pipeline share
    # the plan that the first of them makes
    made = []
    make_plan = planning.make_plan
    monkeypatch.setattr(planning, "make_plan",
                        lambda *args: made.append(args) or make_plan(*args))
    cfg = cli.load_config(str(write_config(tmp_path)))
    assert made == []
    assert cli.cmd_pipeline(cfg) == 0
    assert len(made) == 1


@pytest.mark.parametrize("extra, field", [
    ({"omega": {"clf": 2.0}}, "omega"),
    ({"delta_cap": {"cbf": 1.0}}, "delta_cap"),
    ({"sim": {"integrator": "euler"}}, "sim.integrator"),
    ({"verfy_count": 8}, "verfy_count"),
    ({"grid": {"n": [16, 16], "width": [6.0, 6.0], "pitch": 0.4}},
     "grid.pitch"),
    ({"sim": {"sensor": {"kind": "gaussian", "varaince": 1.0}}},
     "sim.sensor.varaince"),
    ({"field": {"cels": [0]}}, "field.cels"),
], ids=["omega", "delta_cap", "sim.integrator", "top-level-typo",
        "grid-typo", "sensor-typo", "field-typo"])
def test_unknown_key_exits_config_code(tmp_path, capsys, extra, field):
    # a key that nothing reads would otherwise leave the run unchanged
    # without a word
    cfg = write_config(tmp_path, **extra)
    assert cli.main(["synth", "--config", str(cfg)]) == 2
    assert "unknown key (file %s, field %s)" % (cfg, field) in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--eps", "1"],
    ["simulate", "--cells", "0"],
    ["synth", "--sensor", "gaussian"],
    ["synth", "--seed", "3"],
], ids=["verify-eps", "simulate-cells", "synth-sensor", "synth-seed"])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    # verify audits each controller against its own saved bounds, and
    # synthesis draws no samples: such a flag would change nothing
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv[:1] + ["--config", str(cfg)] + argv[1:])
    assert info.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(argv[1:]) in \
        capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    (json.dumps([{"id": 0}]), "controllers.0"),
    ('[{"id": 0, "basis": ["mean"', "controllers"),
    (json.dumps({"id": 0}), "controllers"),
], ids=["entry-without-basis", "truncated", "object-not-list"])
def test_malformed_controllers_exit_config_code(tmp_path, capsys, text, field):
    cfg = write_config(tmp_path)
    path = tmp_path / "out" / "controllers.json"
    path.parent.mkdir()
    path.write_text(text)
    for command in ("verify", "simulate", "field"):
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert "(file %s, field %s)" % (path, field) in capsys.readouterr().err


def move_goal(env, ctrls):
    # a corner of cell 2 only: cell 0, the old goal cell, now exits into 2
    env["goal"] = [2.0, 2.0]


def nan_gain(env, ctrls):
    ctrls[0]["K"][0][0][0][0] = float("nan")


def unknown_barrier(env, ctrls):
    ctrls[1]["facets"][1] = 99


def unknown_cell(env, ctrls):
    ctrls[2]["id"] = 42


def repeated_cell(env, ctrls):
    # cell 2 again, pushing out of the free space
    ctrls.append(dict(ctrls[2], K_b=[50.0, 50.0]))


def moved_landmark(env, ctrls):
    # cell 0 reads landmark 0, which its saved controller still places at
    # [1.0, 1.0]
    env["landmarks"][0] = [0.5, 0.5]


@pytest.mark.parametrize("tamper, field, message", [
    (move_goal, "controllers.0", "cell 0 was synthesized for another plan"),
    (unknown_barrier, "controllers.1", "(facets differ)"),
    (unknown_cell, "controllers.2", "the run's plan has no cell 42"),
    (repeated_cell, "controllers.3", "cell 2 is listed twice"),
    (moved_landmark, "controllers.0", "(landmarks differ)"),
    (lambda env, ctrls: ctrls[0].update(basis=["mean", "mean", "quadratic"]),
     "controllers.0", "repeated feature maps ['mean']"),
    # a saved number must be a JSON number, and a count integral
    (lambda env, ctrls: ctrls[0].update(K_b=[str(v) for v in ctrls[0]["K_b"]]),
     "controllers.0.K_b", "malformed entry"),
    (lambda env, ctrls: ctrls[0].update(alpha_v=True),
     "controllers.0.alpha_v", "malformed entry"),
    (lambda env, ctrls: ctrls[0]["grid"].update(n=[30.7, 30.2]),
     "controllers.0.grid.n", "malformed entry"),
    (lambda env, ctrls: ctrls[0].update(epsilon="4"),
     "controllers.0.epsilon", "malformed entry"),
    # synthesis writes no status but Optimal, and a number as the saturation
    (lambda env, ctrls: ctrls[0].update(status=5),
     "controllers.0.status", "malformed entry"),
    (lambda env, ctrls: ctrls[0]["saturation"].update(max_u_vertices="3"),
     "controllers.0.saturation.max_u_vertices", "malformed entry"),
    # json.load reads NaN as a float
    (nan_gain, "controllers.0.K", "nan is not finite"),
], ids=["moved-goal", "unknown-barrier", "unknown-cell", "repeated-cell",
        "moved-landmark", "repeated-basis-name", "string-K_b", "boolean-alpha_v",
        "non-integral-grid.n", "string-epsilon", "numeric-status",
        "string-max_u_vertices", "nan-K"])
def test_controllers_of_another_plan_exit_config_code(
        pipeline_dir, tmp_path, capsys, tamper, field, message):
    # each reader checks every controller against its cell's plan entry and
    # the environment's landmarks: at a moved goal the old controllers
    # would run on and miss it, an unknown facet or cell would end in a
    # traceback, a repeated cell would be audited twice and driven by its
    # later copy, and a moved landmark would be sensed where it was
    env = copy.deepcopy(ENV)
    ctrls = json.loads((pipeline_dir / "out" / "controllers.json").read_text())
    tamper(env, ctrls)
    cfg = write_config(tmp_path, environment=env)
    path = tmp_path / "out" / "controllers.json"
    path.parent.mkdir()
    path.write_text(json.dumps(ctrls))
    for command in ("verify", "simulate", "field"):
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "(file %s, field %s)" % (path, field) in err


@pytest.mark.parametrize("basis, message", [
    (5, "must be a list of names"),
    ("mean", "must be a list of names"),
    (["mean", 3], "unknown feature maps [3]"),
    (["quadratic"], "the mean map is required"),
    # a second mean block would only add redundant LP columns
    (["mean", "mean", "quadratic"], "repeated feature maps ['mean']"),
], ids=["number", "string", "non-string-name", "without-mean",
        "repeated-name"])
def test_bad_basis_exits_config_code(tmp_path, capsys, basis, message):
    cfg = write_config(tmp_path, basis=basis)
    assert cli.main(["synth", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "(file %s, field basis)" % cfg in err


def test_missing_controller_names_the_controllers_file(tmp_path, capsys):
    patrol = os.path.join(os.path.dirname(cli.__file__), "data", "patrol.json")
    out = str(tmp_path / "out")
    assert cli.main(["synth", "--config", patrol, "--cells", "0",
                     "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--config", patrol, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "no controller for cell 1" in err
    assert "(file %s, field controllers)" % os.path.join(out, "controllers.json") in err


def test_field_of_a_missing_controller_names_the_controllers_file(
        tmp_path, capsys):
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    with open(os.path.join(data, "patrol.json")) as fh:
        raw = json.load(fh)
    out = str(tmp_path / "out")
    raw.update(environment=os.path.join(data, raw["environment"]),
               field={"cells": [1]}, out=out)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["synth", "--config", str(cfg), "--cells", "0"]) == 0
    capsys.readouterr()
    assert cli.main(["field", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "no controller for cell 1" in err
    assert "(file %s, field controllers)" % os.path.join(out, "controllers.json") in err


def test_patrol_start_off_the_cycle_names_starts(tmp_path, capsys):
    # cell 2 is not on the patrol cycle [0, 1]
    cfg = write_config(tmp_path, mode="patrol", starts=[[1.0, 1.6]],
                       sim={"dt": 0.01, "max_time": 1.0})
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "lies in no cell of the patrol cycle" in err
    assert "(file %s, field starts)" % cfg in err
    # rejected when the config loads, before synthesis writes anything
    assert not (tmp_path / "out" / "controllers.json").exists()


def test_stabilize_start_outside_every_cell_names_starts(tmp_path, capsys):
    # ENV covers [0, 2] x [0, 2]
    cfg = write_config(tmp_path, starts=[[0.4, 1.6], [5.0, 5.0]])
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "start [5.0, 5.0] lies in no cell (start 1)" in err
    assert "(file %s, field starts)" % cfg in err
    # rejected when the config loads, before synthesis writes anything
    assert not (tmp_path / "out" / "controllers.json").exists()


@pytest.mark.parametrize("cells", [1, [7]], ids=["not-a-list", "unknown-cell"])
def test_bad_field_cells_exit_at_load(tmp_path, capsys, cells):
    # patrol2.json has cells 0 and 1; the field stage runs last, but the
    # config is refused before synthesis writes anything
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    with open(os.path.join(data, "patrol.json")) as fh:
        raw = json.load(fh)
    raw.update(environment=os.path.join(data, raw["environment"]),
               field={"cells": cells}, out=str(tmp_path / "out"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["pipeline", "--config", str(cfg)]) == 2
    assert "(file %s, field field.cells)" % cfg in capsys.readouterr().err
    assert not (tmp_path / "out" / "controllers.json").exists()


def test_packaged_run_configs_load():
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    loaded = []
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name)) as fh:
            if "environment" in json.load(fh):
                # the plan checks the starts and field.cells
                assert cli.load_config(os.path.join(data, name)).plan.entries
                loaded.append(name)
    assert {"case_study.json", "patrol.json"} <= set(loaded)


def packaged_patrol(tmp_path, edit):
    """The packaged patrol.json with its environment inline, after
    edit(config, environment), written to tmp_path."""
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    with open(os.path.join(data, "patrol.json")) as fh:
        raw = json.load(fh)
    with open(os.path.join(data, raw["environment"])) as fh:
        raw["environment"] = json.load(fh)
    edit(raw, raw["environment"])
    path = tmp_path / "patrol.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("edit, field", [
    (lambda cfg, env: cfg["grid"].update(n=["20", 20]), "grid.n"),
    (lambda cfg, env: cfg["grid"].update(n=[True, 20]), "grid.n"),
    (lambda cfg, env: cfg.update(verify_count="40"), "verify_count"),
    (lambda cfg, env: env["cells"][1].update(id="1"),
     "environment.cells.1.id"),
    (lambda cfg, env: env["cells"][0].update(landmark_ids=[False]),
     "environment.cells.0.landmark_ids"),
    (lambda cfg, env: env.update(patrol_cycle=["0", True]),
     "environment.patrol_cycle"),
    (lambda cfg, env: env.update(dimension="2"), "environment.dimension"),
], ids=["string-grid.n", "boolean-grid.n", "string-verify_count",
        "string-cell-id", "boolean-landmark_ids", "string-patrol_cycle",
        "string-dimension"])
def test_integers_must_be_json_numbers(tmp_path, edit, field):
    path = packaged_patrol(tmp_path, edit)
    with pytest.raises(cli.ConfigError) as info:
        cli.load_config(path)
    assert info.value.field == field
    assert cli.main(["synth", "--config", path]) == 2


@pytest.mark.parametrize("edit, field", [
    (lambda cfg, env: cfg.update(epsilon="4"), "epsilon"),
    (lambda cfg, env: cfg.update(alpha_v=True), "alpha_v"),
    (lambda cfg, env: cfg["sim"].update(dt="0.01"), "sim.dt"),
    (lambda cfg, env: cfg["grid"].update(width=["60", 60.0]), "grid.width"),
    (lambda cfg, env: cfg.update(starts=[["10", 10]]), "starts"),
    (lambda cfg, env: cfg.update(starts=[[10, False]]), "starts"),
    (lambda cfg, env: env.update(landmarks=[["0", 0], [40, 0]]),
     "environment.landmarks"),
    (lambda cfg, env: env.update(start=[10, True]), "environment.start"),
    (lambda cfg, env: env["cells"][0].update(
        vertices=[["0", 0], [20, 0], [20, 20], [0, 20]]),
     "environment.cells.0.vertices"),
    (lambda cfg, env: env.update(goal=["20", 0]), "environment.goal"),
], ids=["string-epsilon", "boolean-alpha_v", "string-sim.dt",
        "string-grid.width", "string-start", "boolean-start",
        "string-landmark", "boolean-environment-start", "string-vertex",
        "string-goal"])
def test_floats_must_be_json_numbers(tmp_path, edit, field):
    path = packaged_patrol(tmp_path, edit)
    with pytest.raises(cli.ConfigError) as info:
        cli.load_config(path)
    assert info.value.field == field
    assert cli.main(["synth", "--config", path]) == 2


def nan_landmark(cfg, env):
    env["landmarks"][1] = [float("nan"), 0.5]


@pytest.mark.parametrize("command, edit, name, field", [
    ("simulate", lambda cfg, env: cfg["sim"].update(dt=float("nan")),
     "run.json", "sim.dt"),
    ("simulate", lambda cfg, env: cfg["sim"].update(max_time=float("inf")),
     "run.json", "sim.max_time"),
    ("synth", lambda cfg, env: cfg["grid"].update(width=[float("nan"), 6.0]),
     "run.json", "grid.width"),
    ("synth", nan_landmark, "env.json", "environment.landmarks"),
], ids=["nan-sim.dt", "infinite-sim.max_time", "nan-grid.width",
        "nan-landmark"])
def test_non_finite_number_exits_config_code(pipeline_dir, tmp_path, capsys,
                                             command, edit, name, field):
    # json.load reads NaN and Infinity as floats; the config refuses them
    # when it loads, before the command that would trip on them runs
    path = write_config(tmp_path)
    cfg, env = json.loads(path.read_text()), copy.deepcopy(ENV)
    edit(cfg, env)
    path.write_text(json.dumps(cfg))
    (tmp_path / "env.json").write_text(json.dumps(env))
    (tmp_path / "out").mkdir()
    shutil.copy(pipeline_dir / "out" / "controllers.json", tmp_path / "out")
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "is not finite" in err
    assert "(file %s, field %s)" % (tmp_path / name, field) in err


def test_cell_without_landmarks_exits_config_code(tmp_path, capsys):
    # a cell that reads no landmark has no controller to synthesize: the
    # environment is refused where it loads, naming its file and the cell
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    with open(os.path.join(data, "patrol2.json")) as fh:
        env = json.load(fh)
    env["cells"][0]["landmark_ids"] = []
    env_path = tmp_path / "patrol2.json"
    env_path.write_text(json.dumps(env))
    cfg = shutil.copy(os.path.join(data, "patrol.json"), tmp_path)
    assert cli.main(["synth", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "(file %s, field environment.cells.0.landmark_ids)" % env_path in err


def test_grid_too_narrow_for_a_landmark_exits_config_code(tmp_path, capsys):
    # patrol2.json's landmarks lie 20 from the far corners of their cells,
    # beyond the half-width 5 of a 10-wide grid
    path = packaged_patrol(
        tmp_path, lambda cfg, env: cfg["grid"].update(width=[10.0, 10.0]))
    assert cli.main(["synth", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "exceeds the grid half-width" in err
    assert "(file %s, field grid.width)" % path in err


def test_integers_read_as_floats(tmp_path):
    def edit(cfg, env):
        cfg.update(epsilon=4, alpha_v=1, starts=[[10, 10]])
        cfg["sim"]["dt"] = 1
        cfg["grid"]["width"] = [60, 60.0]

    # alpha_h = 100 at dt = 1 leaves the sampled-data condition
    with pytest.warns(UserWarning, match="alpha_h"):
        cfg = cli.load_config(packaged_patrol(tmp_path, edit))
    assert (cfg.epsilon, cfg.alpha_v, cfg.sim.dt) == (4.0, 1.0, 1.0)
    assert cfg.grid.width == (60.0, 60.0)
    assert np.array_equal(cfg.starts, [[10.0, 10.0]])
    assert all(type(v) is float for v in (cfg.epsilon, cfg.alpha_v)
               + cfg.grid.width)
    assert cfg.starts[0].dtype == float


def test_sampled_data_condition_at_one_is_silent(tmp_path):
    # the packaged configs sit at alpha_h * sim.dt = 100 * 0.01 = 1.0; any
    # warning would fail here, as warnings are errors in the suite
    cfg = cli.load_config(packaged_patrol(tmp_path, lambda cfg, env: None))
    assert cfg.alpha_h * cfg.sim.dt == 1.0


def test_sampled_data_condition_above_one_warns(tmp_path):
    path = packaged_patrol(tmp_path,
                           lambda cfg, env: cfg.update(alpha_h=101.0))
    with pytest.warns(UserWarning) as caught:
        cli.load_config(path)
    assert len(caught) == 1
    assert "alpha_h * sim.dt = 101 * 0.01 = 1.01 exceeds 1" in str(
        caught[0].message)


def test_integral_floats_read_as_integers(tmp_path):
    def edit(cfg, env):
        cfg["grid"]["n"] = [20.0, 20]
        env["cells"][1]["id"] = 1.0
        env["patrol_cycle"] = [0.0, 1]

    cfg = cli.load_config(packaged_patrol(tmp_path, edit))
    assert cfg.grid.n == (20, 20)
    assert [c.id for c in cfg.environment.cells] == [0, 1]
    assert cfg.environment.patrol_cycle == [0, 1]
    assert all(type(v) is int
               for v in cfg.grid.n + (cfg.environment.cells[1].id,))


def pushed_run(tmp_path, cell_id, bias, **extra):
    """A run config (written as write_config writes it, with extra) whose
    controllers.json holds only helpers.pushing_controller for cell_id,
    pushing with bias; returns the config's path."""
    cfg_path = write_config(tmp_path, **extra)
    cfg = cli.load_config(str(cfg_path))
    out = tmp_path / "out"
    out.mkdir()
    save_controllers({cell_id: pushing_controller(
        cfg.environment, cfg.plan, cfg.grid, cfg.bounds, cfg.basis, cell_id, bias)},
        str(out / "controllers.json"))
    return cfg_path


def test_an_off_grid_reading_fails_its_start_and_writes_its_csv(
        tmp_path, capsys):
    # start 0 crosses cell 0's barrier-free face at t = 1.34 and reads its
    # landmark off the grid; start 1 runs out of time before the face
    cfg_path = pushed_run(
        tmp_path, 0, (1.5, 0.0), environment=OFF_GRID_ENV,
        starts=[[1.0, 1.5], [0.5, 1.5]],
        sim={"dt": 0.01, "max_time": 1.5, "goal_tol": 0.05})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
    printed = capsys.readouterr().out
    assert "start 0: FAIL (cell 0 read a landmark off its grid" in printed
    assert "start 1: reached=False" in printed
    rows = np.loadtxt(out / "trajectory_0.csv", delimiter=",", skiprows=1)
    assert rows.shape == (134, 8)
    assert (out / "trajectory_1.csv").exists()


@pytest.mark.parametrize("bias, starts, failure, rows", [
    # up through y = 1, the face that cell 1 shares with cell 2 and one of
    # its entry's barriers: the state is in cell 2 and cell 1's controller
    # is kept, so the barrier reads below zero at the row of t = 0.34
    ((0.0, 1.5), [[1.5, 0.5], [1.5, 0.05]], "barrier 2 of cell 1 reached",
     35),
    # down through the wall y = 0, out of every cell after the row of
    # t = 0.33
    ((0.0, -1.5), [[1.5, 0.5], [1.5, 0.95]], "state [1.5, -0.01", 34),
], ids=["SafetyViolation", "LeftFreeSpace"])
def test_a_closed_loop_failure_fails_its_start_and_writes_its_csv(
        tmp_path, capsys, bias, starts, failure, rows):
    # start 0 is 0.5 from the face and crosses it at t = 0.34; start 1 is
    # 0.95 from it and runs out of time first
    cfg_path = pushed_run(tmp_path, 1, bias, starts=starts,
                          sim={"dt": 0.01, "max_time": 0.5, "goal_tol": 0.05})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
    printed = capsys.readouterr().out
    assert "start 0: FAIL (%s" % failure in printed
    assert "at t=0.340)" in printed
    assert "start 1: reached=False" in printed
    assert len((out / "trajectory_0.csv").read_text().splitlines()) == 1 + rows
    assert (out / "trajectory_1.csv").exists()


def gaussian_case_study(tmp_path, case_setup, starts):
    """case_study.json under the benchmark's Gaussian sensor (drift 3,
    variance 12, sensor seed 1) at a 60 s horizon, from starts, with
    case_setup's controllers saved where it reads them; returns the
    config's path."""
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    with open(os.path.join(data, "case_study.json")) as fh:
        raw = json.load(fh)
    raw["environment"] = os.path.join(data, raw["environment"])
    raw["sim"].update(sensor={"kind": "gaussian", "drift": 3.0,
                              "variance": 12.0}, seed=1, max_time=60.0)
    raw["starts"] = starts
    raw["out"] = str(tmp_path / "out")
    (tmp_path / "out").mkdir()
    save_controllers(case_setup["controllers"],
                     str(tmp_path / "out" / "controllers.json"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return path


def assert_each_start_runs_as_if_alone(cfg_path, tmp_path, capsys):
    """simulate's CSV and printed outcome of each start are, bit for bit,
    those of run_trajectory on that start alone, on controllers loaded
    afresh: no step plan, bank or sensor stream of another start is read.
    Returns the exit code and each start's outcome."""
    code = cli.main(["simulate", "--config", str(cfg_path)])
    printed = capsys.readouterr().out.splitlines()
    cfg = cli.load_config(str(cfg_path))
    outcomes = []
    for k, start in enumerate(cfg.starts):
        ctrls = load_controllers(os.path.join(cfg.out, "controllers.json"),
                                 cfg.environment, cfg.plan)
        try:
            traj = simulation.run_trajectory(cfg.environment, cfg.plan, ctrls,
                                             cfg.sim, x0=start)
            outcome = "reached=%s," % traj.reached
        except ClosedLoopFailure as exc:
            traj, outcome = exc.trajectory, "FAIL (%s)" % exc
        traj.to_csv(str(tmp_path / "alone.csv"))
        shared = os.path.join(cfg.out, "trajectory_%d.csv" % k)
        with open(shared, "rb") as fh:
            assert fh.read() == (tmp_path / "alone.csv").read_bytes(), k
        assert printed[k].startswith("start %d: %s" % (k, outcome))
        outcomes.append(outcome)
    return code, outcomes


def test_gaussian_starts_run_as_if_alone(tmp_path, case_setup, capsys):
    # the last start repeats the first, which reads only inputs already
    # banked, from a sensor stream of its own
    cfg_path = gaussian_case_study(
        tmp_path, case_setup, [[10.0, 50.0], [30.0, 50.0], [50.0, 50.0],
                               [10.0, 50.0]])
    code, outcomes = assert_each_start_runs_as_if_alone(cfg_path, tmp_path,
                                                         capsys)
    assert code == 0
    assert outcomes == ["reached=True,"] * 4


def test_starts_after_a_failed_start_run_as_if_alone(tmp_path, capsys):
    # start 1 reads its landmark off the grid at t = 1.34 (see
    # test_an_off_grid_reading_fails_its_start_and_writes_its_csv); the
    # starts around it run out of time before the face
    cfg_path = pushed_run(
        tmp_path, 0, (1.5, 0.0), environment=OFF_GRID_ENV,
        starts=[[0.5, 1.5], [1.0, 1.5], [0.5, 1.5]],
        sim={"dt": 0.01, "max_time": 1.5, "goal_tol": 0.05,
             "sensor": {"kind": "gaussian", "drift": 0.3, "variance": 0.05}})
    code, outcomes = assert_each_start_runs_as_if_alone(cfg_path, tmp_path,
                                                         capsys)
    assert code == 1
    assert outcomes[0] == outcomes[2] == "reached=False,"
    assert outcomes[1].startswith("FAIL (cell 0 read a landmark off its grid")


def test_a_command_banks_each_input_once_and_no_longer(tmp_path, case_setup,
                                                       monkeypatch):
    calls = counted_law(monkeypatch)
    cfg_path = gaussian_case_study(
        tmp_path, case_setup, [[10.0, 50.0], [30.0, 50.0], [50.0, 50.0]])
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    first = list(calls)
    # replay each start's readings from its CSV, with a sensor stream of
    # its own: control_input ran once per controller and readings new to
    # the command, in the order the starts first read them
    cfg = cli.load_config(str(cfg_path))
    problems = {c.problem.cell.id: c.problem for c, _ in first}
    keys, per_start = [], 0
    for k in range(len(cfg.starts)):
        read = cfg.sim.sensor.make(cfg.sim.seed)
        with open(os.path.join(cfg.out, "trajectory_%d.csv" % k)) as fh:
            lines = fh.read().splitlines()[1:]
        start_keys = []
        for line in lines:
            row = [float(v) for v in line.split(",")]
            cid, p = int(row[-3]), problems[int(row[-3])]
            start_keys.append((cid, tuple(read(p.grid, lm - np.array(row[1:3]))
                                          for lm in p.landmarks)))
        keys += start_keys
        per_start += len(set(start_keys))
    new = list(dict.fromkeys(keys))
    assert [c.problem.cell.id for c, _ in first] == [cid for cid, _ in new]
    # a bank per start would have re-sensed what earlier starts banked
    assert len(new) < per_start
    # the next command starts from an empty bank
    calls.clear()
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    assert len(calls) == len(first)


# the exit code and stderr prefix of cli.main for each error that the
# package exports, raised out of a command
EXITS = dict(
    ConfigError=(2, "config error: "),
    DisconnectedFreeSpace=(2, "config error: "),
    GoalNotVertex=(2, "config error: "),
    SolverError=(3, "solver error: "),
    SolverFailure=(3, "solver error: "),
    SynthesisInfeasible=(3, "solver error: "),
    NumericalFailure=(3, "solver error: "),
    VerificationFailed=(1, "failure: "),
    ClosedLoopFailure=(1, "failure: "),
    SafetyViolation=(1, "failure: "),
    LeftFreeSpace=(1, "failure: "),
    OffGridReading=(1, "failure: "),
    OffPlanCrossing=(1, "failure: "),
    **{name: (2, "error: ") for name in (
        "SafeFieldError", "NonConvexInput", "DegenerateInput",
        "UnboundedPolytope", "LandmarkOutOfView", "LandmarkNotVisible",
        "DimensionMismatch", "GoalObservationOffGrid",
        "InfeasibleMeasurementSet", "GridMismatch")})


def test_each_error_has_its_exit_code_and_prefix(tmp_path, capsys,
                                                 monkeypatch):
    cfg = write_config(tmp_path)
    exits = {}
    for name, kind in vars(safefield).items():
        if isinstance(kind, type) and issubclass(kind, SafeFieldError):
            def raise_it(cfg, kind=kind):
                raise kind("raised")
            monkeypatch.setattr(cli, "cmd_verify", raise_it)
            code = cli.main(["verify", "--config", str(cfg)])
            err = capsys.readouterr().err
            assert err.endswith("raised\n"), name
            exits[name] = (code, err[:-len("raised\n")])
    assert exits == EXITS


def test_a_solver_error_in_synthesis_names_its_cell(tmp_path, capsys,
                                                   monkeypatch):
    cfg = write_config(tmp_path)
    synthesize = synthesis.synthesize_cell_controller

    def failing(assembled):
        if assembled.problem.cell.id == 1:
            raise NumericalFailure("primal feasibility residual 1 exceeds "
                                   "tolerance")
        return synthesize(assembled)

    monkeypatch.setattr(synthesis, "synthesize_cell_controller", failing)
    assert cli.main(["synth", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "solver error: cell 1: primal feasibility residual 1 exceeds "
        "tolerance\n")
    assert not (tmp_path / "out" / "controllers.json").exists()


def test_an_empty_cell_list_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    saved = (out / "controllers.json").read_bytes()
    for command in ("synth", "field", "pipeline"):
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg), "--cells", ","]) == 2
        assert capsys.readouterr().err == (
            "config error: cells names no cell id (field cells)\n")
    assert (out / "controllers.json").read_bytes() == saved
    assert sorted(p.name for p in out.iterdir()) == ["controllers.json"]


@pytest.mark.parametrize("argv, field_cells, message", [
    (["synth", "--cells", "0,0"], [0], "repeated cell ids [0] (field cells)"),
    (["field", "--cells", "1,0,1"], [0], "repeated cell ids [1] (field cells)"),
    (["field"], [0, 0], "repeated cell ids [0] (file {}, field field.cells)"),
], ids=["synth-flag", "field-flag", "field.cells"])
def test_a_repeated_cell_id_exits_2_and_writes_nothing(
        pipeline_dir, tmp_path, capsys, argv, field_cells, message):
    cfg = write_config(tmp_path, field={"resolution": [5, 5],
                                        "cells": field_cells})
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(pipeline_dir / "out" / "controllers.json", out)
    saved = (out / "controllers.json").read_bytes()
    assert cli.main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message.format(cfg)
    assert (out / "controllers.json").read_bytes() == saved
    assert sorted(p.name for p in out.iterdir()) == ["controllers.json"]


def test_pipeline_outputs(pipeline_dir):
    out = pipeline_dir / "out"
    for name in ("controllers.json", "report.json", "trajectory_0.csv",
                 "field_cell0.csv"):
        assert (out / name).exists(), name
    ctrls = json.loads((out / "controllers.json").read_text())
    assert [c["id"] for c in ctrls] == [0, 1, 2]
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert [c["cell"] for c in report["cells"]] == [0, 1, 2]
    rows = (out / "trajectory_0.csv").read_text().splitlines()
    assert rows[0].startswith("t,x1,x2,")
    last = np.array([float(v) for v in rows[-1].split(",")[1:3]])
    assert np.linalg.norm(last - np.array(ENV["goal"])) <= 0.05


def test_verify_is_deterministic(pipeline_dir):
    report = pipeline_dir / "out" / "report.json"
    first = report.read_bytes()
    cfg = pipeline_dir / "run.json"
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert report.read_bytes() == first


@pytest.mark.parametrize("eps, vacuous", [
    (4.0, []), (6.5, []), (7.5, [(1, "clf")]), (12.0, [(1, "clf")]),
], ids=["eps-4", "eps-6.5", "eps-7.5", "eps-12"])
def test_verify_names_the_vacuous_rows(tmp_path, capsys, eps, vacuous):
    # the goal cell's CLF row holds where V >= v_floor, which grows with
    # eps past the cell's largest V near eps 7: there its region is empty
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    argv = ["--config", os.path.join(data, "case_study.json"),
            "--out", str(tmp_path)]
    assert cli.main(["synth", "--eps", str(eps)] + argv) == 0
    capsys.readouterr()
    assert cli.main(["verify"] + argv) == 0
    printed = capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "report.json").read_text())
    marked = [(cell["cell"], row["kind"]) for cell in report["cells"]
              for row in cell["rows"] if row["vacuous"]]
    assert marked == vacuous
    for cell in report["cells"]:
        assert all(row["evaluated"] == 0 for row in cell["rows"]
                   if row["vacuous"])
        line = next(p for p in printed if p.startswith("cell %d:" % cell["cell"]))
        assert line.endswith(", vacuous rows: clf") == ((cell["cell"], "clf")
                                                         in vacuous)


def test_tampered_controllers_fail_verify(pipeline_dir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    ctrls = json.loads(
        (pipeline_dir / "out" / "controllers.json").read_text())
    for c in ctrls:
        c["K"] = [[[[0.0] * 2] * 2] * 3] * len(c["K"])
        c["K_b"] = [-10.0, -10.0]
    (out / "controllers.json").write_text(json.dumps(ctrls))
    cfg = write_config(tmp_path, out=str(out))
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False


def test_synth_cell_subset(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg), "--cells", "0,1"]) == 0
    ctrls = json.loads((out / "controllers.json").read_text())
    assert [c["id"] for c in ctrls] == [0, 1]
    assert cli.main(["synth", "--config", str(cfg), "--cells", "9"]) == 2


def test_an_override_into_an_absent_section_creates_it(tmp_path):
    # --sensor writes sim.sensor.kind: on a config without sim it makes sim
    # and sim.sensor, and sim's other entries keep their defaults
    path = write_config(tmp_path)
    raw = json.loads(path.read_text())
    del raw["sim"]
    path.write_text(json.dumps(raw))
    cfg = cli.load_config(str(path), [("sim.sensor.kind", "gaussian")])
    assert cfg.sim.sensor.kind == "gaussian"
    default = cli.load_config(str(path)).sim
    assert default.sensor.kind == "delta"
    assert (cfg.sim.dt, cfg.sim.max_time) == (default.dt, default.max_time)


def test_bound_overrides_are_recorded(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["synth", "--config", str(cfg), "--cells", "1",
                     "--eps", "0.04", "--sigma", "0.15"]) == 0
    ctrls = json.loads((tmp_path / "out" / "controllers.json").read_text())
    assert ctrls[0]["epsilon"] == 0.04
    assert ctrls[0]["sigma_m"] == 0.15


def test_patrol_pipeline(tmp_path):
    cfg = write_config(tmp_path, mode="patrol", sim={"dt": 0.01,
                                                     "max_time": 5.0})
    assert cli.main(["pipeline", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "trajectory_0.csv").read_text().splitlines()
    cells_seen = {row.split(",")[5] for row in rows[1:]}
    assert cells_seen == {"0", "1"}


def test_pipeline_stops_at_its_first_failing_stage(tmp_path):
    # 0.05 s is too short to reach the goal: simulate exits 1, and the
    # field stage never runs
    cfg = write_config(tmp_path, sim={"dt": 0.01, "max_time": 0.05,
                                      "goal_tol": 0.05})
    assert cli.main(["pipeline", "--config", str(cfg)]) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "controllers.json", "report.json", "trajectory_0.csv"]


def test_field_without_cells_samples_every_controller(pipeline_dir, tmp_path):
    cfg = write_config(tmp_path, field={"resolution": [5, 5]})
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(pipeline_dir / "out" / "controllers.json", out)
    assert cli.main(["field", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.glob("field_cell*.csv")) == [
        "field_cell0.csv", "field_cell1.csv", "field_cell2.csv"]


@pytest.mark.parametrize("edit, message", [
    (lambda raw: [raw], "a run config must be a JSON object (file %s)"),
    (lambda raw: {k: v for k, v in raw.items() if k != "environment"},
     "missing environment (file %s, field environment)"),
    (lambda raw: dict(raw, grid={"n": [16, 16]}),
     "grid must give n and width (file %s, field grid)"),
    (lambda raw: dict(raw, mode="orbit"),
     "mode must be stabilize or patrol (file %s, field mode)"),
], ids=["not-an-object", "no-environment", "grid-without-width",
        "unknown-mode"])
def test_refused_run_config_names_its_file(tmp_path, capsys, edit, message):
    path = write_config(tmp_path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert cli.main(["synth", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % (message % path)


# every name the package exported when it imported each module eagerly
PACKAGE_NAMES = (
    "CellController", "CellGraph", "CellProblem", "ClosedLoopFailure",
    "ConfigError", "ConstraintRow", "ConvexCell", "DegenerateInput",
    "DimensionMismatch", "DisconnectedFreeSpace", "Environment", "GainBasis",
    "GoalNotVertex", "GoalObservationOffGrid", "GridMismatch", "GridSpec",
    "HalfspaceSet", "HighLevelPlan", "InfeasibleMeasurementSet",
    "LandmarkNotVisible", "LandmarkOutOfView", "LeftFreeSpace",
    "LinearDynamics", "LpSolution", "NonConvexInput", "NumericalFailure",
    "OffGridReading", "OffPlanCrossing", "PlanEntry", "PmfGrid",
    "SafeFieldError", "SafetyViolation", "SensorModel", "SimConfig",
    "SolverError", "SolverFailure", "StandardLp", "SynthesisInfeasible",
    "Trajectory", "UnboundedPolytope", "UncertaintyBounds",
    "VerificationFailed", "VerificationReport", "adversarial_pmf",
    "assemble_robust_lp", "blur_pmf", "build_cbf_rows", "build_clf_row",
    "build_expectation_kernel", "build_graph", "cell_vertices",
    "control_input", "environment_from_dict", "goal_cell_id",
    "load_controllers", "make_delta_pmf", "make_plan",
    "polygon_to_halfspaces", "run_trajectory", "sample_vector_field",
    "save_controllers", "solve_lp", "synthesize_cell_controller",
    "synthesize_environment", "verify_controller", "verify_environment",
    "worst_case_row_values", "__version__", "clfcbf", "errors", "geometry",
    "lp_core", "measurement", "planning", "simulation", "synthesis",
    "verification",
)


def test_every_name_the_package_exported_still_resolves():
    for name in PACKAGE_NAMES:
        getattr(safefield, name)
    with pytest.raises(AttributeError):
        safefield.no_such_name


@pytest.mark.parametrize("head, commands", [
    ("import safefield", ()),
    ("from safefield import cli", ("simulate", "field")),
], ids=["bare-import", "simulate-and-field"])
def test_the_closed_loop_loads_no_scipy(pipeline_dir, tmp_path, head,
                                        commands):
    # a fresh interpreter: this one has loaded SciPy to synthesize
    cfg = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    shutil.copy(pipeline_dir / "out" / "controllers.json", tmp_path / "out")
    lines = ["import sys", head] + [
        "assert cli.main([%r, '--config', %r]) == 0" % (command, str(cfg))
        for command in commands] + [
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(safefield.__file__)))
    run = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
