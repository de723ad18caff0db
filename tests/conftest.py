import json
import os

import numpy as np
import pytest

import safefield
from safefield import planning, synthesis
from safefield.clfcbf import LinearDynamics
from safefield.geometry import environment_from_dict
from safefield.measurement import GridSpec, UncertaintyBounds
from safefield.controller import GainBasis

DATA_DIR = os.path.join(os.path.dirname(safefield.__file__), "data")


def load_env(name):
    with open(os.path.join(DATA_DIR, name)) as fh:
        return environment_from_dict(json.load(fh))


@pytest.fixture(scope="session")
def annulus_env():
    return load_env("annulus8.json")


@pytest.fixture(scope="session")
def patrol_env():
    return load_env("patrol2.json")


@pytest.fixture(scope="session")
def case_setup(annulus_env):
    """Case-study hyperparameters and the synthesized controllers."""
    env = annulus_env
    graph = planning.build_graph(env)
    plan = planning.make_plan(env, graph)
    spec = GridSpec((30, 30), (40.0, 40.0))
    bounds = UncertaintyBounds(4.0, 16.0)
    basis = GainBasis()
    dynamics = LinearDynamics.single_integrator(2)
    controllers = synthesis.synthesize_environment(
        env, plan.entries, dynamics, spec, bounds, basis,
        alpha_v=1.0, alpha_h=100.0,
    )
    return {
        "env": env,
        "graph": graph,
        "plan": plan,
        "spec": spec,
        "bounds": bounds,
        "basis": basis,
        "dynamics": dynamics,
        "alpha_v": 1.0,
        "alpha_h": 100.0,
        "controllers": controllers,
    }
