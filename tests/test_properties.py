"""Property tests of the step invariants and of the spectral identities the
diagnostics rely on, on random, non-square grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chnsopt import (
    FlowState,
    Kernel,
    ModelParams,
    Potential,
    ScalarField,
    SolverConfig,
    TorusGrid,
    VectorField,
    convolve,
    grad,
    leray_project,
    relative_divergence,
    simulate,
)
from chnsopt import synth

even_resolution = st.integers(4, 24).map(lambda k: 2 * k)
box_side = st.floats(np.pi, 4.0 * np.pi)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=20, deadline=None)
@given(n_x=even_resolution, n_y=even_resolution, l_x=box_side, l_y=box_side)
def test_step_invariants_on_random_grids(n_x, n_y, l_x, l_y, diagnostics_reference):
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
    diagnostics_reference(traj, forcing, None, params, cfg)


def _close(a, b, scale):
    return abs(a - b) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(n_x=even_resolution, n_y=even_resolution, l_x=box_side, l_y=box_side, seed=seeds)
def test_parseval_identities(n_x, n_y, l_x, l_y, seed):
    g = TorusGrid(n_x, n_y, l_x, l_y)
    f = np.random.default_rng(seed).standard_normal(g.shape)
    power = np.abs(g.fft2(f)) ** 2
    c = g.cell_area / g.n_points
    l2 = g.cell_area * np.sum(f**2)
    assert _close(c * g.parseval_sum(power), l2, l2)
    df = grad(ScalarField(g, f))
    h1 = g.cell_area * (np.sum(df.u_x**2) + np.sum(df.u_y**2))
    assert _close(c * g.parseval_sum(g.ksq_d * power), h1, h1)


@settings(max_examples=30, deadline=None)
@given(n_x=even_resolution, n_y=even_resolution, l_x=box_side, l_y=box_side, seed=seeds)
def test_leray_projection_is_idempotent(n_x, n_y, l_x, l_y, seed):
    g = TorusGrid(n_x, n_y, l_x, l_y)
    r = np.random.default_rng(seed)
    once = leray_project(VectorField(g, r.standard_normal(g.shape), r.standard_normal(g.shape)))
    twice = leray_project(once)
    assert (twice - once).norm() <= 1e-12 * once.norm()


@settings(max_examples=30, deadline=None)
@given(n_x=even_resolution, n_y=even_resolution, l_x=box_side, l_y=box_side, seed=seeds)
def test_convolution_is_self_adjoint(n_x, n_y, l_x, l_y, seed):
    g = TorusGrid(n_x, n_y, l_x, l_y)
    kernel = Kernel("gaussian", 0.5, 5.0, g)
    r = np.random.default_rng(seed)
    f = ScalarField(g, r.standard_normal(g.shape))
    h = ScalarField(g, r.standard_normal(g.shape))
    jf = convolve(kernel.hat, f)
    jh = convolve(kernel.hat, h)
    assert _close(jf.inner(h), f.inner(jh), jf.norm() * h.norm())
