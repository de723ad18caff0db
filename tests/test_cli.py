import copy
import json
import os
import shutil

import numpy as np
import pytest

from safefield import cli

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
], ids=["unknown-cell", "malformed-cells"])
def test_flag_error_names_no_file(tmp_path, capsys, argv):
    # a flag comes from no file: the message names only the field
    cfg = write_config(tmp_path)
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "(field cells)" in err and "None" not in err


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
], ids=["revisited-cell", "no-cycle"])
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
], ids=["entry-without-basis", "truncated"])
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
], ids=["moved-goal", "unknown-barrier", "unknown-cell", "repeated-cell",
        "moved-landmark", "string-K_b", "boolean-alpha_v",
        "non-integral-grid.n", "string-epsilon", "numeric-status",
        "string-max_u_vertices"])
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
], ids=["number", "string", "non-string-name", "without-mean"])
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
                cli.load_config(os.path.join(data, name))
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

    cfg = cli.load_config(packaged_patrol(tmp_path, edit))
    assert (cfg.epsilon, cfg.alpha_v, cfg.sim.dt) == (4.0, 1.0, 1.0)
    assert cfg.grid.width == (60.0, 60.0)
    assert np.array_equal(cfg.starts, [[10.0, 10.0]])
    assert all(type(v) is float for v in (cfg.epsilon, cfg.alpha_v)
               + cfg.grid.width)
    assert cfg.starts[0].dtype == float


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
