"""Linearized and adjoint sweeps around a stored forward trajectory.

The tangent system reuses the forward IMEX layout with coefficients
frozen at the stored states, so it is the exact derivative of the
discrete step map.  The adjoint discretizes the backward-in-time
continuous equations with the same implicit/explicit splitting; the
price is an O(dt) duality gap, measured by duality_gap.

Backward sweeps advance in the reversed time variable.  With s = T - t
the momentum adjoint reads

  dp/ds = nu*Lap(p) + (u.grad)p - (p.gradT)u - eta*grad(phi) + S_p

where (p.gradT)u has components p_i d_j u_i, and the concentration
adjoint

  deta/ds = a*Lap(eta) - J*Lap(eta) + F''(phi)*Lap(eta) + u.grad(eta)
            - J*(p.grad(phi)) + (J*grad(phi)).p + S_eta.

The phase-coupling term enters the momentum adjoint as -eta*grad(phi)
in this backward form; this is the sign that closes the integration by
parts against the tangent system, and duality_gap checks it at O(dt).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .forward import ModelParams, SolverConfig, Stepper, Trajectory, signal_node, step_average
from .grid import ScalarField, TorusGrid, VectorField, require_same_grid


class AdjointMode(enum.Enum):
    DISTRIBUTED = "distributed"
    ASSIMILATION = "assimilation"


@dataclass
class TangentState:
    w: VectorField
    psi: ScalarField
    t: float


@dataclass
class AdjointState:
    p: VectorField
    eta: ScalarField
    t: float


@dataclass
class TangentTrajectory:
    """Tangent states at nodes start_node..N of the base trajectory."""

    states: list
    dt: float
    start_node: int = 0

    def __len__(self):
        return len(self.states)

    @property
    def final(self) -> TangentState:
        return self.states[-1]

    def at_node(self, n: int) -> TangentState:
        return self.states[n - self.start_node]


@dataclass
class AdjointTrajectory:
    """Adjoint states indexed by forward time node (0..N)."""

    states: list
    dt: float
    mode: AdjointMode = AdjointMode.DISTRIBUTED

    def __len__(self):
        return len(self.states)

    def at_node(self, n: int) -> AdjointState:
        return self.states[n]

    @property
    def initial(self) -> AdjointState:
        return self.states[0]


def _unit_weights():
    class _W:
        track_u = 1.0
        track_phi = 1.0
        final_u = 1.0
        final_phi = 1.0
        control = 1.0

    return _W()


def _weights_of(targets):
    w = getattr(targets, "weights", None)
    return w if w is not None else _unit_weights()


def _hat_fields(state):
    g = state.grid
    return g.fft2(state.u.u_x), g.fft2(state.u.u_y), g.fft2(state.phi.values)


class _BaseCoeffs:
    """Masked physical fields and gradients of one base state."""

    def __init__(self, st: Stepper, state):
        m = st.mask
        g = st.grid
        ux_h, uy_h, ph = _hat_fields(state)
        self.ux = g.ifft2(ux_h * m)
        self.uy = g.ifft2(uy_h * m)
        self.phi = g.ifft2(ph * m)
        self.dux = st.masked_gradients(ux_h)
        self.duy = st.masked_gradients(uy_h)
        self.dphi = st.masked_gradients(ph)
        self.conv_phi = g.ifft2(st.J_hat * ph * m)
        # J*grad(phi), used by the concentration adjoint coupling
        self.conv_dphi = (
            g.ifft2(st.J_hat * 1j * st.kx * ph * m),
            g.ifft2(st.J_hat * 1j * st.ky * ph * m),
        )
        self.ph = ph


def tangent_solve(
    base: Trajectory,
    delta_control,
    w0: VectorField | None,
    psi0: ScalarField | None,
    params: ModelParams,
    config: SolverConfig,
    start_node: int = 0,
) -> TangentTrajectory:
    """Integrate the linearized system along the base trajectory.

    delta_control follows the forward signal conventions.  start_node
    lets a perturbation be injected mid-trajectory (the spike limit
    diagnostic); the returned states then cover nodes start_node..N.
    """
    g = params.grid
    n_total = base.n_steps
    if abs(base.dt - config.dt) > 1e-14 * max(1.0, config.dt):
        raise ValidationError("base trajectory dt does not match config dt")
    if not 0 <= start_node <= n_total:
        raise ValidationError("start_node outside the base trajectory")
    st = Stepper(params, config)

    w0 = VectorField.zeros(g) if w0 is None else w0
    psi0 = ScalarField.zeros(g) if psi0 is None else psi0
    require_same_grid(w0, psi0)
    if w0.grid != g:
        raise ValidationError("tangent initial data on wrong grid")

    wx_h = g.fft2(w0.u_x)
    wy_h = g.fft2(w0.u_y)
    psh = g.fft2(psi0.values)
    t0 = base.states[start_node].t
    states = [TangentState(w0.copy(), psi0.copy(), t0)]

    m = st.mask
    dt = st.dt
    for n in range(start_node, n_total):
        c = _BaseCoeffs(st, base.states[n])
        wx = g.ifft2(wx_h * m)
        wy = g.ifft2(wy_h * m)
        psm = g.ifft2(psh * m)
        dwx = st.masked_gradients(wx_h)
        dwy = st.masked_gradients(wy_h)
        dps = st.masked_gradients(psh)
        conv_psi = g.ifft2(st.J_hat * psh * m)

        fx = -(wx * c.dux[0] + wy * c.dux[1]) - (c.ux * dwx[0] + c.uy * dwx[1])
        fy = -(wx * c.duy[0] + wy * c.duy[1]) - (c.ux * dwy[0] + c.uy * dwy[1])
        fx = fx - conv_psi * c.dphi[0] - c.conv_phi * dps[0]
        fy = fy - conv_psi * c.dphi[1] - c.conv_phi * dps[1]
        fx_h = g.fft2(fx) * m
        fy_h = g.fft2(fy) * m
        du = step_average(delta_control, n)
        if du is not None:
            fx_h = fx_h + g.fft2(du.u_x)
            fy_h = fy_h + g.fft2(du.u_y)
        fx_h, fy_h = st.project(fx_h, fy_h)
        wx_h = (wx_h + dt * fx_h) / st.visc_den
        wy_h = (wy_h + dt * fy_h) / st.visc_den

        d2f = params.potential.d2f(c.phi)
        mu_lin_h = g.fft2(d2f * psm) * m - st.J_hat * psh
        if st.a != st.S:
            mu_lin_h = mu_lin_h + (st.a - st.S) * psh
        adv_h = g.fft2(c.ux * dps[0] + c.uy * dps[1] + wx * c.dphi[0] + wy * c.dphi[1]) * m
        rhs = -st.ksq * mu_lin_h - adv_h
        rhs[0, 0] = 0.0  # mean psi frozen, matching the forward update
        psh = (psh + dt * rhs) / st.ch_den

        states.append(
            TangentState(
                VectorField(
                    g, g.ifft2(wx_h), g.ifft2(wy_h), divergence_free=True
                ),
                ScalarField(g, g.ifft2(psh)),
                base.states[n + 1].t,
            )
        )
    return TangentTrajectory(states=states, dt=config.dt, start_node=start_node)


def _tracking_sources(mode: AdjointMode, targets, state, node: int, st: Stepper):
    """Physical-space source pair (S_p, S_eta) at one node."""
    w = _weights_of(targets)
    g = st.grid
    if mode is AdjointMode.DISTRIBUTED:
        u_ref = signal_node(getattr(targets, "u_d", None), node)
        phi_ref = _scalar_node(getattr(targets, "phi_d", None), node)
        dux = state.u.u_x - (u_ref.u_x if u_ref is not None else 0.0)
        duy = state.u.u_y - (u_ref.u_y if u_ref is not None else 0.0)
        # enstrophy tracking pairs through -Lap(u - u_d)
        spx = w.track_u * g.ifft2(st.ksq * g.fft2(dux))
        spy = w.track_u * g.ifft2(st.ksq * g.fft2(duy))
    else:
        u_ref = signal_node(getattr(targets, "u_M", None), node)
        dux = state.u.u_x - (u_ref.u_x if u_ref is not None else 0.0)
        duy = state.u.u_y - (u_ref.u_y if u_ref is not None else 0.0)
        spx = w.track_u * dux
        spy = w.track_u * duy
        phi_ref = _scalar_node(getattr(targets, "phi_M", None), node)
    dphi = state.phi.values - (phi_ref.values if phi_ref is not None else 0.0)
    seta = w.track_phi * dphi
    return spx, spy, seta


def _scalar_node(signal, n: int):
    if signal is None:
        return None
    if isinstance(signal, ScalarField):
        return signal
    if isinstance(signal, (list, tuple)):
        return signal[n]
    if hasattr(signal, "at_node"):
        return signal.at_node(n)
    raise ValidationError(f"cannot read a time-indexed signal from {type(signal)!r}")


def terminal_adjoint_data(base: Trajectory, mode: AdjointMode, targets):
    """Terminal pair (p(T), eta(T)) prescribed by the cost."""
    w = _weights_of(targets)
    g = base.grid
    last = base.final
    if mode is AdjointMode.DISTRIBUTED:
        u_ref = getattr(targets, "u_f", None)
        phi_ref = getattr(targets, "phi_f", None)
    else:
        u_ref = getattr(targets, "u_M_f", None)
        phi_ref = getattr(targets, "phi_M_f", None)
    pux = last.u.u_x - (u_ref.u_x if u_ref is not None else 0.0)
    puy = last.u.u_y - (u_ref.u_y if u_ref is not None else 0.0)
    ev = last.phi.values - (phi_ref.values if phi_ref is not None else 0.0)
    from .grid import leray_project

    p_T = leray_project(VectorField(g, w.final_u * pux, w.final_u * puy))
    eta_T = ScalarField(g, w.final_phi * ev)
    return p_T, eta_T


def adjoint_solve(
    base: Trajectory,
    mode: AdjointMode,
    targets,
    params: ModelParams,
    config: SolverConfig,
) -> AdjointTrajectory:
    """Integrate the adjoint pair (p, eta) backward from t = T to 0.

    targets supplies the tracking references, terminal references, and
    optional cost weights; the distributed mode pairs the velocity
    mismatch through -Lap (enstrophy tracking) while the assimilation
    mode pairs it in L2.
    """
    g = params.grid
    if abs(base.dt - config.dt) > 1e-14 * max(1.0, config.dt):
        raise ValidationError("base trajectory dt does not match config dt")
    st = Stepper(params, config)
    n_total = base.n_steps
    m = st.mask
    dt = st.dt

    p_T, eta_T = terminal_adjoint_data(base, mode, targets)
    px_h = g.fft2(p_T.u_x)
    py_h = g.fft2(p_T.u_y)
    eh = g.fft2(eta_T.values)

    states: list = [None] * (n_total + 1)
    states[n_total] = AdjointState(p_T, eta_T, base.final.t)

    for n in range(n_total - 1, -1, -1):
        node = n + 1  # explicit terms live at the later time level
        c = _BaseCoeffs(st, base.states[node])
        spx, spy, seta = _tracking_sources(mode, targets, base.states[node], node, st)

        px = g.ifft2(px_h * m)
        py = g.ifft2(py_h * m)
        em = g.ifft2(eh * m)
        dpx = st.masked_gradients(px_h)
        dpy = st.masked_gradients(py_h)
        deta = st.masked_gradients(eh)

        fx = (c.ux * dpx[0] + c.uy * dpx[1]) - (px * c.dux[0] + py * c.duy[0])
        fy = (c.ux * dpy[0] + c.uy * dpy[1]) - (px * c.dux[1] + py * c.duy[1])
        fx = fx - em * c.dphi[0]
        fy = fy - em * c.dphi[1]
        fx_h = g.fft2(fx) * m + g.fft2(spx)
        fy_h = g.fft2(fy) * m + g.fft2(spy)
        fx_h, fy_h = st.project(fx_h, fy_h)
        px_h = (px_h + dt * fx_h) / st.visc_den
        py_h = (py_h + dt * fy_h) / st.visc_den

        lap_eta = g.ifft2(-st.ksq * eh * m)
        d2f = params.potential.d2f(c.phi)
        r_h = g.fft2(d2f * lap_eta) * m
        r_h = r_h + st.ksq * st.J_hat * eh
        if st.a != st.S:
            r_h = r_h - st.ksq * (st.a - st.S) * eh
        r_h = r_h + g.fft2(c.ux * deta[0] + c.uy * deta[1]) * m
        pg_h = g.fft2(px * c.dphi[0] + py * c.dphi[1]) * m
        r_h = r_h - st.J_hat * pg_h
        r_h = r_h + g.fft2(c.conv_dphi[0] * px + c.conv_dphi[1] * py) * m
        r_h = r_h + g.fft2(seta)
        eh = (eh + dt * r_h) / st.ch_den

        states[n] = AdjointState(
            VectorField(g, g.ifft2(px_h), g.ifft2(py_h), divergence_free=True),
            ScalarField(g, g.ifft2(eh)),
            base.states[n].t,
        )
    return AdjointTrajectory(states=states, dt=config.dt, mode=mode)


def _trapz_weights(n_nodes: int, dt: float) -> np.ndarray:
    w = np.full(n_nodes, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    return w


def duality_gap(
    base: Trajectory,
    delta_control,
    mode: AdjointMode,
    targets,
    params: ModelParams,
    config: SolverConfig,
) -> float:
    """Normalized defect of the tangent/adjoint integration-by-parts.

    Pairs the cost sources with the tangent solution plus terminal
    pairings against the control pairing with the adjoint; both sides
    coincide for the continuous systems, so the returned gap measures
    pure time-discretization error, O(dt).
    """
    g = params.grid
    st = Stepper(params, config)
    tang = tangent_solve(base, delta_control, None, None, params, config)
    adj = adjoint_solve(base, mode, targets, params, config)
    n_nodes = len(base)
    tw = _trapz_weights(n_nodes, config.dt)

    lhs = 0.0
    for n in range(n_nodes):
        spx, spy, seta = _tracking_sources(mode, targets, base.states[n], n, st)
        ts = tang.at_node(n)
        lhs += tw[n] * (
            g.inner(spx, ts.w.u_x) + g.inner(spy, ts.w.u_y) + g.inner(seta, ts.psi.values)
        )
    p_T, eta_T = terminal_adjoint_data(base, mode, targets)
    wT = tang.final
    lhs += p_T.dot(wT.w) + eta_T.inner(wT.psi)

    rhs = 0.0
    for n in range(n_nodes):
        du = signal_node(delta_control, n)
        if du is None:
            continue
        rhs += tw[n] * adj.at_node(n).p.dot(du)

    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
