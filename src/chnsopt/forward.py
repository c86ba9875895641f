"""Time integration of the controlled two-phase flow model.

One step advances the pair (u, phi) by a first-order IMEX rule:

* momentum: viscosity implicit (diagonal per mode), advection and the
  phase-coupling force explicit and dealiased, pressure eliminated by
  projection.  The coupling force is evaluated in the rewritten form
  -(J*phi) grad(phi); the gradient-of-a term drops because the kernel
  weight a is constant on the torus.
* concentration: the stabilizing diffusion S*Lap(phi) implicit with
  S equal to the kernel mass by default, the remaining chemical
  potential terms and advection explicit.

The k = 0 mode of the concentration update is frozen, so the mean of
phi is conserved exactly.  The k = 0 velocity mode is driven only by
the mean of the applied force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, StabilityError, ValidationError
from .grid import (
    ScalarField,
    TorusGrid,
    VectorField,
    h_minus_one_norm,
    require_same_grid,
)
from .physics import Kernel, Potential


@dataclass(frozen=True)
class ModelParams:
    """Immutable physics bundle shared by every solver in the package."""

    grid: TorusGrid
    kernel: Kernel
    potential: Potential

    def __post_init__(self):
        if self.kernel.grid != self.grid:
            raise ValidationError("kernel was sampled on a different grid")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    nu: float
    stabilization: float | None = None  # None resolves to the kernel mass
    dealias: bool = True

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError("dt must be positive")
        if not self.T > 0.0 or self.dt > self.T * (1.0 + 1e-12):
            raise ValidationError("T must be positive and at least dt")
        if not self.nu > 0.0:
            raise ValidationError("nu must be positive")
        if self.stabilization is not None and self.stabilization < 0.0:
            raise ValidationError("stabilization must be nonnegative")

    @property
    def n_steps(self) -> int:
        ratio = self.T / self.dt
        if not math.isfinite(ratio):
            raise ValidationError(f"T/dt = {ratio} is not a finite number of steps")
        n = int(round(ratio))
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValidationError("T must be an integer multiple of dt")
        return n

    def stabilization_value(self, kernel: Kernel) -> float:
        return float(
            kernel.mass if self.stabilization is None else self.stabilization
        )


@dataclass
class FlowState:
    u: VectorField
    phi: ScalarField
    t: float

    def __post_init__(self):
        require_same_grid(self.u, self.phi)

    @property
    def grid(self) -> TorusGrid:
        return self.phi.grid

    def copy(self) -> "FlowState":
        return FlowState(self.u.copy(), self.phi.copy(), self.t)


@dataclass
class Trajectory:
    """Dense record of one sweep: a state per time node start_node..N.

    Forward runs hold FlowState, tangent sweeps TangentState and adjoint
    sweeps AdjointState; only a forward record has a grid.  diagnostics
    holds per-node series (t, energy, kinetic, enstrophy, mass) and the
    per-step energy-identity residual (length N, entry n belonging to
    the step from node n to n+1).
    """

    states: list
    dt: float
    start_node: int = 0
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.states)

    def at_node(self, n: int):
        return self.states[n - self.start_node]

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]

    @property
    def grid(self) -> TorusGrid:
        return self.states[0].grid


def signal_node(signal, n: int | None):
    """Value of a time-indexed signal at node n.

    Accepts None (zero), a single VectorField or ScalarField (constant in
    time), a list/tuple indexed by node, or any object with an at_node
    method.  A node-indexed signal needs an integer node.
    """
    if signal is None:
        return None
    if isinstance(signal, (VectorField, ScalarField)):
        return signal
    if not isinstance(signal, (list, tuple)) and not hasattr(signal, "at_node"):
        raise ValidationError(f"cannot read a time-indexed signal from {type(signal)!r}")
    if n is None:
        raise ValidationError("node index needed for time-indexed signals")
    if isinstance(signal, (list, tuple)):
        return signal[n]
    return signal.at_node(n)


def step_average(signal, n: int):
    """Average of the node-n and node-(n+1) values, the per-step action.

    Centering the control on the step keeps the discrete work pairing
    consistent with trapezoidal time quadrature.
    """
    if signal is None:
        return None
    if isinstance(signal, VectorField):
        return signal
    a = signal_node(signal, n)
    b = signal_node(signal, n + 1)
    return VectorField(
        a.grid, 0.5 * (a.u_x + b.u_x), 0.5 * (a.u_y + b.u_y)
    )


def _applied_force(control, forcing, n: int, grid: TorusGrid):
    """Components (f_x, f_y) of the control plus forcing acting over step
    n, each time-averaged, or (None, None) when neither is given."""
    total = None
    for f in (step_average(control, n), step_average(forcing, n)):
        if f is None:
            continue
        if f.grid != grid:
            raise ValidationError("force field grid does not match params grid")
        total = f if total is None else total + f
    if total is None:
        return None, None
    return total.u_x, total.u_y


def spectral(u: VectorField, phi: ScalarField, work: np.ndarray | None = None):
    """Half-spectrum transforms (u_x, u_y, phi) of a velocity and a scalar,
    in one call; work is a real (3, n_x, n_y) stack to gather the fields
    in, such as ``Stepper.stack(3, float)``, or None for a fresh one."""
    g = phi.grid
    return tuple(g.fft2(np.stack((u.u_x, u.u_y, phi.values), out=work)))


def physical(grid: TorusGrid, ux_h, uy_h, ph, work: np.ndarray | None = None):
    """The velocity and scalar fields whose transforms ``spectral`` gives,
    in one call; work is a complex (3, n_x, n_y // 2 + 1) stack to gather
    the transforms in, or None for a fresh one.  The fields are views of
    the one inverse-transformed stack, checked once: NumericError on
    non-finite values."""
    f = grid.ifft2(np.stack((ux_h, uy_h, ph), out=work), overwrite=True)
    if not np.isfinite(f).all():
        raise NumericError("state contains non-finite values")
    return VectorField._of(grid, f[0], f[1]), ScalarField._of(grid, f[2])


class Frame:
    """Dealiased physical fields of one spectral state (u, phi).

    ux, uy, dux, duy, phi and dphi (the gradients as (x, y) pairs) come
    out of one inverse transform, together with the extras the caller
    names up front from ``Stepper.frame_extras``: "conv" (J*phi, for the
    forward step, the tangent and control.hamiltonian), "conv_grad"
    (J*grad(phi), a pair) and "lap" (Lap(phi)), both for the adjoint.
    The tangent and adjoint sweeps build frames of their own (w, psi)
    and (p, eta) too, with the same layout.  Every field is a slice of
    one fresh array, so a frame never aliases the Stepper's work stack.
    """

    def __init__(self, st: "Stepper", ux_h, uy_h, ph, extras: tuple = ()):
        m = st.mask
        ks = [k for name in extras for k in st.frame_extras[name]]
        w = st.stack(9 + len(ks), complex)
        for i, h in enumerate((ux_h, uy_h, ph)):
            np.multiply(h, m, out=w[i])
            np.multiply(st.dkx, h, out=w[3 + 2 * i])
            np.multiply(st.dky, h, out=w[4 + 2 * i])
        for k, row in zip(ks, w[9:]):
            np.multiply(np.multiply(k, ph, out=row), m, out=row)
        f = st.grid.ifft2(w, overwrite=True)
        self.ph = ph
        self.ux, self.uy, self.phi = f[0], f[1], f[2]
        self.dux, self.duy, self.dphi = (f[3], f[4]), (f[5], f[6]), (f[7], f[8])
        rest = iter(f[9:])
        for name in extras:
            parts = tuple(next(rest) for _ in st.frame_extras[name])
            setattr(self, name, parts[0] if len(parts) == 1 else parts)


class Stepper:
    """Precomputed spectral machinery for one (params, config) pair.

    Holds the implicit denominators, dealias mask, masked derivative
    multipliers and kernel transform that the forward, tangent and
    adjoint sweeps share, and the scheme's explicit right-hand side,
    which forward_step_hat steps with and control.hamiltonian evaluates.

    It also owns the work stack that a sweep gathers each group of fields
    in before the one call that transforms the group (``stack``), as real
    fields or as half spectra.  It holds transform inputs only: each group
    overwrites the last, and every transform output is a fresh array.  It
    grows on first need to the largest group a step transforms, so it is
    allocated once per sweep; real and complex groups share its memory,
    since no two groups are gathered at once.
    """

    def __init__(self, params: ModelParams, config: SolverConfig):
        g = params.grid
        self.params = params
        self.grid = g
        dt = config.dt
        self.dt = dt
        self.kx = g.kxg_d
        self.ky = g.kyg_d
        self.ksq = g.ksq
        self.mask = (
            g.dealias_mask if config.dealias else np.ones(g.spectral_shape, dtype=bool)
        )
        # masked derivative multipliers i*k*mask of Frame's gradients
        self.dkx = 1j * self.kx * self.mask
        self.dky = 1j * self.ky * self.mask
        self.visc_den = 1.0 + config.nu * dt * g.ksq
        self.S = config.stabilization_value(params.kernel)
        self.ch_den = 1.0 + self.S * dt * g.ksq
        self.a = params.kernel.mass
        self.J_hat = params.kernel.hat
        self.cfl_length = min(g.dx, g.dy)
        # Frame extras: the multipliers of phi's transform, each product
        # masked after, in the operation order of J*phi, J*grad(phi), Lap(phi)
        self.frame_extras = {
            "conv": (self.J_hat,),
            "conv_grad": (self.J_hat * 1j * self.kx, self.J_hat * 1j * self.ky),
            "lap": (-self.ksq,),
        }
        self._work = np.empty(0, complex)

    def stack(self, k: int, dtype) -> np.ndarray:
        """The first k fields of the work stack, as real fields (dtype
        float) or half spectra (complex); see the class docstring."""
        real = np.dtype(dtype).kind == "f"
        shape = (k, *(self.grid.shape if real else self.grid.spectral_shape))
        n = math.prod(shape) // (2 if real else 1)  # in complex entries
        if self._work.size < n:
            self._work = np.empty(n, complex)
        return self._work[:n].view(dtype).reshape(shape)

    # -- spectral helpers ----------------------------------------------

    def project(self, fx_h, fy_h):
        """Leray projection in transform space; k = 0 passes through."""
        g = self.grid
        div_h = self.kx * fx_h + self.ky * fy_h
        px = fx_h - self.kx * div_h * g.inv_ksq_d
        py = fy_h - self.ky * div_h * g.inv_ksq_d
        return px, py

    def explicit_rhs(self, fr: Frame, force_x, force_y):
        """Explicit part of the scheme's right-hand side at one state.

        Returns the transforms of the projected momentum terms
        -(u.grad)u - (J*phi)grad(phi) + force and of the concentration
        terms -Lap(mu_expl) - u.grad(phi), each product dealiased; the
        implicit -nu*Lap(u) and -S*Lap(phi) are left to the caller.
        fr must carry the "conv" extra; force_x/force_y are physical
        components, or None.  The products (and the force) go through
        in one call.
        """
        m = self.mask
        w = self.stack(4 if force_x is None else 6, float)
        np.subtract(-(fr.ux * fr.dux[0] + fr.uy * fr.dux[1]), fr.conv * fr.dphi[0], out=w[0])
        np.subtract(-(fr.ux * fr.duy[0] + fr.uy * fr.duy[1]), fr.conv * fr.dphi[1], out=w[1])
        w[2] = self.params.potential.df(fr.phi)
        np.add(fr.ux * fr.dphi[0], fr.uy * fr.dphi[1], out=w[3])
        if force_x is not None:
            w[4] = force_x
            w[5] = force_y
        h = self.grid.fft2(w)
        fx_h = h[0] * m
        fy_h = h[1] * m
        if force_x is not None:
            fx_h = fx_h + h[4]
            fy_h = fy_h + h[5]
        fx_h, fy_h = self.project(fx_h, fy_h)

        ph = fr.ph
        mu_expl_h = h[2] * m - self.J_hat * ph
        if self.a != self.S:
            mu_expl_h = mu_expl_h + (self.a - self.S) * ph
        rhs = -self.ksq * mu_expl_h - h[3] * m
        rhs[0, 0] = 0.0  # exact mass conservation
        return fx_h, fy_h, rhs

    # -- one forward step, spectral in / spectral out -------------------

    def forward_step_hat(self, ux_h, uy_h, ph, extra_x, extra_y):
        """Advance (u, phi) transforms one step.

        extra_x/extra_y are the physical control-plus-forcing components
        for this step (already time-averaged), or None.
        """
        fx_h, fy_h, rhs = self.explicit_rhs(
            Frame(self, ux_h, uy_h, ph, ("conv",)), extra_x, extra_y
        )
        new_ux_h = (ux_h + self.dt * fx_h) / self.visc_den
        new_uy_h = (uy_h + self.dt * fy_h) / self.visc_den
        new_ph = (ph + self.dt * rhs) / self.ch_den
        return new_ux_h, new_uy_h, new_ph

    def check_cfl(self, ux, uy):
        speed = float(np.max(np.hypot(ux, uy)))
        if speed * self.dt / self.cfl_length > 1.0:
            raise StabilityError(
                f"advective CFL heuristic exceeded: max|u|*dt/dx = "
                f"{speed * self.dt / self.cfl_length:.3g} > 1"
            )


def step(
    state: FlowState,
    control_value: VectorField | None,
    forcing: VectorField | None,
    params: ModelParams,
    config: SolverConfig,
) -> FlowState:
    """One IMEX step from the given state.

    control_value and forcing are this step's (time-averaged) values.
    Raises StabilityError on the advective CFL heuristic and
    NumericError on non-finite output.
    """
    g = params.grid
    require_same_grid(state.u, state.phi)
    if state.grid != g:
        raise ValidationError("state grid does not match params grid")
    st = Stepper(params, config)
    st.check_cfl(state.u.u_x, state.u.u_y)
    extra_x, extra_y = _applied_force(control_value, forcing, 0, g)
    ux_h, uy_h, ph = st.forward_step_hat(
        *spectral(state.u, state.phi), extra_x, extra_y
    )
    return FlowState(*physical(g, ux_h, uy_h, ph), state.t + config.dt)


def node_terms(
    kernel: Kernel, potential: Potential, hats, state: FlowState, nu=0.0, force=(None, None)
):
    """(t, energy, kinetic, enstrophy, mass, dissipation, work) at one node.

    hats are the transforms (u_x, u_y, phi) of state.  Every term but the
    bulk sum of F(phi), the mass and the work is a Parseval sum, and the
    dissipation nu|grad u|^2 + |grad mu|^2 costs the one transform of
    F'(phi).  The interaction energy (a<phi,phi> - <J*phi,phi>)/2 equals
    the quarter double-integral of J(x-y)(phi(x)-phi(y))^2.  The work
    pairs force, the (f_x, f_y) of the step ending at the node, with its
    velocity.  Raises NumericError on a non-finite chemical potential.
    """
    g = kernel.grid
    c = g.cell_area / g.n_points
    ux_h, uy_h, ph = hats
    phi = state.phi.values
    u_sq = np.abs(ux_h) ** 2 + np.abs(uy_h) ** 2
    kinetic = 0.5 * c * g.parseval_sum(u_sq)
    enstrophy = 0.5 * c * g.parseval_sum(np.abs(g.kxg_d * uy_h - g.kyg_d * ux_h) ** 2)
    gap = kernel.mass - kernel.hat
    interaction = 0.5 * c * g.parseval_sum(gap.real * np.abs(ph) ** 2)
    energy = kinetic + interaction + g.cell_area * float(np.sum(potential.f(phi)))
    mu_h = g.fft2(potential.df(phi)) + gap * ph
    if not np.all(np.isfinite(mu_h)):
        raise NumericError("chemical potential is non-finite")
    grad_mu_sq = g.parseval_sum(g.ksq_d * np.abs(mu_h) ** 2)
    diss = c * (nu * g.parseval_sum(g.ksq_d * u_sq) + grad_mu_sq)
    fx, fy = force
    work = 0.0 if fx is None else g.inner(fx, state.u.u_x) + g.inner(fy, state.u.u_y)
    return state.t, energy, kinetic, enstrophy, state.phi.mean(), diss, work


def energy(state: FlowState, kernel: Kernel, potential: Potential) -> float:
    """Total free energy: kinetic + nonlocal interaction + potential."""
    return node_terms(kernel, potential, spectral(state.u, state.phi), state)[1]


def _diagnostic_series(rows, dt: float) -> dict:
    """Per-node series and the per-step energy-identity residual."""
    t, en, kin, ens, mass, diss, work = (np.array(col) for col in zip(*rows))
    return dict(t=t, energy=en, kinetic=kin, enstrophy=ens, mass=mass,
                residual=np.diff(en) / dt + diss[1:] - work[1:])


def energy_identity_residual(
    traj: Trajectory,
    forcing,
    control,
    params: ModelParams,
    config: SolverConfig,
) -> np.ndarray:
    """Per-step defect of the energy balance.

    r_n = (E^{n+1} - E^n)/dt + nu*|grad u|^2 + |grad mu|^2 - <h+U, u>,
    with the dissipation and work terms taken at the step's end state
    and the force at the step's time-averaged value.  First-order
    accurate, so r_n = O(dt) on smooth runs.
    """
    rows = [
        node_terms(params.kernel, params.potential, spectral(s.u, s.phi), s, config.nu,
                   _applied_force(control, forcing, n - 1, traj.grid) if n else (None, None))
        for n, s in enumerate(traj.states)
    ]
    return _diagnostic_series(rows, traj.dt)["residual"]


def simulate(
    initial: FlowState,
    control,
    forcing,
    params: ModelParams,
    config: SolverConfig,
    with_diagnostics: bool = True,
) -> Trajectory:
    """Run the IMEX scheme from t = 0 to T and record every node.

    control/forcing follow the signal_node conventions (None, constant
    VectorField, node-indexed list, or an object with at_node);
    with_diagnostics fills traj.diagnostics inside the time loop from the
    transforms the step holds, at one extra transform per node (for the
    chemical potential); the stored states do not depend on it.
    """
    g = params.grid
    if initial.grid != g:
        raise ValidationError("initial state grid does not match params grid")
    st = Stepper(params, config)

    states = [initial.copy()]
    states[0].t = 0.0
    ux_h, uy_h, ph = spectral(initial.u, initial.phi)
    terms = (params.kernel, params.potential)
    rows = [node_terms(*terms, (ux_h, uy_h, ph), states[0], config.nu)] if with_diagnostics else []

    for n in range(config.n_steps):
        st.check_cfl(states[n].u.u_x, states[n].u.u_y)
        ex, ey = _applied_force(control, forcing, n, g)
        ux_h, uy_h, ph = st.forward_step_hat(ux_h, uy_h, ph, ex, ey)
        states.append(
            FlowState(*physical(g, ux_h, uy_h, ph, st.stack(3, complex)), (n + 1) * config.dt)
        )
        if with_diagnostics:
            rows.append(node_terms(*terms, (ux_h, uy_h, ph), states[-1], config.nu, (ex, ey)))

    traj = Trajectory(states=states, dt=config.dt)
    if with_diagnostics:
        traj.diagnostics = _diagnostic_series(rows, config.dt)
    return traj


def sup_state_difference(a: Trajectory, b: Trajectory) -> float:
    """sup over nodes of sqrt(|u_a-u_b|^2 + |phi_a-phi_b|^2 in the dual norm).

    The concentration difference is measured in the discrete H^-1 norm,
    the natural topology for the continuous-dependence estimate.
    """
    if len(a) != len(b):
        raise ValidationError("trajectories have different lengths")
    worst = 0.0
    for sa, sb in zip(a.states, b.states):
        require_same_grid(sa.phi, sb.phi)
        du = sa.u + sb.u * (-1.0)
        dphi = ScalarField(sa.phi.grid, sa.phi.values - sb.phi.values)
        val = du.norm() ** 2 + h_minus_one_norm(dphi) ** 2
        worst = max(worst, val)
    return float(np.sqrt(worst))
