"""Property tests of the step invariants on random, non-square grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chnsopt import (
    FlowState,
    Kernel,
    ModelParams,
    Potential,
    SolverConfig,
    TorusGrid,
    relative_divergence,
    simulate,
)
from chnsopt import synth

even_resolution = st.integers(4, 24).map(lambda k: 2 * k)
box_side = st.floats(np.pi, 4.0 * np.pi)


@settings(max_examples=20, deadline=None)
@given(n_x=even_resolution, n_y=even_resolution, l_x=box_side, l_y=box_side)
def test_step_invariants_on_random_grids(n_x, n_y, l_x, l_y):
    g = TorusGrid(n_x, n_y, l_x, l_y)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
    initial = FlowState(
        synth.taylor_green(g, 0.5), synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), 0.0
    )
    forcing = synth.single_mode_velocity(g, (1, 1), 0.1)
    cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
    traj = simulate(initial, None, forcing, params, cfg)
    mass = traj.diagnostics["mass"]
    assert np.max(np.abs(mass - mass[0])) <= 1e-12
    assert max(relative_divergence(s.u) for s in traj.states) <= 1e-12
