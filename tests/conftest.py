import threading

import numpy as np
import pytest

from chnsopt import (
    FlowState,
    Kernel,
    ModelParams,
    Potential,
    SolverConfig,
    TorusGrid,
    VectorField,
    chemical_potential,
    curl2d,
    grad_norm,
)
from chnsopt import AdjointMode, synth

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def g16():
    return TorusGrid(16, 16, TWO_PI, TWO_PI)


@pytest.fixture(scope="session")
def g32():
    return TorusGrid(32, 32, TWO_PI, TWO_PI)


@pytest.fixture(scope="session")
def kernel16(g16):
    return Kernel("gaussian", 0.5, 5.0, g16)


@pytest.fixture(scope="session")
def kernel32(g32):
    return Kernel("gaussian", 0.5, 5.0, g32)


@pytest.fixture(scope="session")
def double_well():
    return Potential.double_well()


@pytest.fixture(scope="session")
def params16(g16, kernel16, double_well):
    return ModelParams(g16, kernel16, double_well)


@pytest.fixture(scope="session")
def params32(g32, kernel32, double_well):
    return ModelParams(g32, kernel32, double_well)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def smooth_state32(g32):
    u = synth.taylor_green(g32, 0.5)
    phi = synth.sine_scalar(g32, (1, 1), 0.1, mean=0.2)
    return FlowState(u, phi, 0.0)


@pytest.fixture()
def smooth_state16(g16):
    u = synth.taylor_green(g16, 0.5)
    phi = synth.sine_scalar(g16, (1, 1), 0.1, mean=0.2)
    return FlowState(u, phi, 0.0)


@pytest.fixture()
def transform_counter(monkeypatch):
    """Counts of TorusGrid.fft2/ifft2 while the test runs: "calls", and
    "fields", the product of each input's leading axes, so a call on a
    stack of k fields counts k.  A test resets them by assigning 0.  The
    counts are updated under a lock, since a diagnostics sweep transforms
    on two threads."""
    counts = {"calls": 0, "fields": 0}
    lock = threading.Lock()

    def counted(method):
        def wrapper(self, array, *args, **kwargs):
            fields = int(np.prod(np.shape(array)[:-2]))
            with lock:
                counts["calls"] += 1
                counts["fields"] += fields
            return method(self, array, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(TorusGrid, "fft2", counted(TorusGrid.fft2))
    monkeypatch.setattr(TorusGrid, "ifft2", counted(TorusGrid.ifft2))
    return counts


def short_config(dt=1e-3, T=0.01, nu=0.1, **kw):
    return SolverConfig(dt=dt, T=T, nu=nu, **kw)


def step_midpoint(signal, n):
    """The force of step n as the scheme averages a signal: None, or one
    field as given, or the nodal midpoint (a + b) / 2 of a node list."""
    if not isinstance(signal, list):
        return signal
    a, b = signal[n], signal[n + 1]
    return VectorField(a.grid, 0.5 * (a.u_x + b.u_x), 0.5 * (a.u_y + b.u_y))


def reference_diagnostics(traj, forcing, control, params, config):
    """The diagnostic series of a forward trajectory from physical-space
    formulas: the energy as sums over grid points, the enstrophy through
    curl2d, and the residual through chemical_potential and grad_norm."""
    g = params.grid
    kernel, potential = params.kernel, params.potential

    def energy(s):
        phi = s.phi.values
        conv = g.ifft2(kernel.hat * g.fft2(phi))
        kinetic = 0.5 * g.cell_area * float(np.sum(s.u.u_x**2 + s.u.u_y**2))
        interaction = 0.5 * g.cell_area * float(np.sum(kernel.mass * phi * phi - conv * phi))
        return kinetic + interaction + g.cell_area * float(np.sum(potential.f(phi)))

    en = np.array([energy(s) for s in traj.states])
    residual = np.empty(traj.n_steps)
    for n in range(traj.n_steps):
        nxt = traj.states[n + 1]
        mu = chemical_potential(nxt.phi, kernel, potential)
        diss = config.nu * grad_norm(nxt.u) ** 2 + grad_norm(mu) ** 2
        forces = (step_midpoint(control, n), step_midpoint(forcing, n))
        work = sum(f.dot(nxt.u) for f in forces if f is not None)
        residual[n] = (en[n + 1] - en[n]) / config.dt + diss - work
    return {
        "energy": en,
        "kinetic": np.array([0.5 * s.u.norm() ** 2 for s in traj.states]),
        "enstrophy": np.array([0.5 * curl2d(s.u).norm() ** 2 for s in traj.states]),
        "mass": np.array([s.phi.mean() for s in traj.states]),
        "residual": residual,
    }


def assert_diagnostics_match_reference(traj, forcing, control, params, config):
    """simulate's series agree with reference_diagnostics: energy, kinetic
    and enstrophy to 1e-13 relative per node, mass bit for bit, and the
    residual to 1e-13 max|E|/dt."""
    d = traj.diagnostics
    ref = reference_diagnostics(traj, forcing, control, params, config)
    for key in ("energy", "kinetic", "enstrophy"):
        assert np.all(np.abs(d[key] - ref[key]) <= 1e-13 * np.abs(ref[key])), key
    assert np.array_equal(d["mass"], ref["mass"])
    scale = np.max(np.abs(ref["energy"])) / config.dt
    assert np.max(np.abs(d["residual"] - ref["residual"])) <= 1e-13 * scale


@pytest.fixture(scope="session")
def diagnostics_reference():
    """assert_diagnostics_match_reference, for tests in other modules."""
    return assert_diagnostics_match_reference


def reference_tracking_sources(mode, targets, state, node):
    """The adjoint's tracking sources (S_p_x, S_p_y, S_eta) at one node as
    physical fields: the state minus the node's reference (u_d/phi_d in
    the distributed mode, u_M/phi_M in the assimilation mode; a missing
    reference reads as zero, a list is indexed by node), weighted by
    track_u/track_phi, with the distributed velocity mismatch paired
    through -Lap as ifft2(k^2 fft2(u - u_d)), with k^2 = ksq_d, whose
    Nyquist derivative lines are zeroed as in the cost's gradient norm."""
    g = state.grid
    w = targets.weights
    if mode is AdjointMode.DISTRIBUTED:
        u_ref, phi_ref = targets.u_d, targets.phi_d
    else:
        u_ref, phi_ref = targets.u_M, targets.phi_M
    u_ref, phi_ref = (r[node] if isinstance(r, list) else r for r in (u_ref, phi_ref))
    dux, duy = state.u.u_x, state.u.u_y
    if u_ref is not None:
        dux, duy = dux - u_ref.u_x, duy - u_ref.u_y
    dphi = state.phi.values if phi_ref is None else state.phi.values - phi_ref.values
    if mode is AdjointMode.DISTRIBUTED:
        dux = g.ifft2(g.ksq_d * g.fft2(dux))
        duy = g.ifft2(g.ksq_d * g.fft2(duy))
    return w.track_u * dux, w.track_u * duy, w.track_phi * dphi


@pytest.fixture(scope="session")
def tracking_sources_reference():
    """reference_tracking_sources, for tests in other modules."""
    return reference_tracking_sources
