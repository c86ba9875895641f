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
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .forward import (
    Frame,
    ModelParams,
    SolverConfig,
    Stepper,
    Trajectory,
    physical,
    signal_node,
    spectral,
    step_average,
)
from .grid import ScalarField, VectorField, leray_project, require_same_grid


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


def tangent_solve(
    base: Trajectory,
    delta_control,
    w0: VectorField | None,
    psi0: ScalarField | None,
    params: ModelParams,
    config: SolverConfig,
    start_node: int = 0,
) -> Trajectory:
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

    wx_h, wy_h, psh = spectral(w0, psi0)
    t0 = base.states[start_node].t
    states = [TangentState(w0.copy(), psi0.copy(), t0)]

    m = st.mask
    dt = st.dt
    for n in range(start_node, n_total):
        # c: the base state; d: the tangent state (w, psi)
        c = Frame(st, *spectral(base.states[n].u, base.states[n].phi))
        d = Frame(st, wx_h, wy_h, psh)

        fx = -(d.ux * c.dux[0] + d.uy * c.dux[1]) - (c.ux * d.dux[0] + c.uy * d.dux[1])
        fy = -(d.ux * c.duy[0] + d.uy * c.duy[1]) - (c.ux * d.duy[0] + c.uy * d.duy[1])
        fx = fx - d.conv * c.dphi[0] - c.conv * d.dphi[0]
        fy = fy - d.conv * c.dphi[1] - c.conv * d.dphi[1]
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
        mu_lin_h = g.fft2(d2f * d.phi) * m - st.J_hat * psh
        if st.a != st.S:
            mu_lin_h = mu_lin_h + (st.a - st.S) * psh
        adv_h = g.fft2(c.ux * d.dphi[0] + c.uy * d.dphi[1] + d.ux * c.dphi[0] + d.uy * c.dphi[1]) * m
        rhs = -st.ksq * mu_lin_h - adv_h
        rhs[0, 0] = 0.0  # mean psi frozen, matching the forward update
        psh = (psh + dt * rhs) / st.ch_den

        states.append(TangentState(*physical(g, wx_h, wy_h, psh), base.states[n + 1].t))
    return Trajectory(states=states, dt=config.dt, start_node=start_node)


def mismatch(mode: AdjointMode, targets, state, node: int | None = None):
    """State minus the reference the mode tracks: (velocity, phi values).

    The distributed mode tracks u_d/phi_d at a node and u_f/phi_f at the
    end, the assimilation mode u_M/phi_M and u_M_f/phi_M_f; node=None
    selects the terminal pair.  A missing reference reads as zero.
    """
    if mode is AdjointMode.DISTRIBUTED:
        refs = (targets.u_f, targets.phi_f) if node is None else (targets.u_d, targets.phi_d)
    else:
        refs = (targets.u_M_f, targets.phi_M_f) if node is None else (targets.u_M, targets.phi_M)
    u_ref, phi_ref = (signal_node(r, node) for r in refs)
    du = state.u if u_ref is None else state.u - u_ref
    dphi = state.phi.values if phi_ref is None else state.phi.values - phi_ref.values
    return du, dphi


def _tracking_sources(mode: AdjointMode, targets, state, node: int, st: Stepper):
    """Physical-space source pair (S_p, S_eta) at one node."""
    w = targets.weights
    g = st.grid
    du, dphi = mismatch(mode, targets, state, node)
    dux, duy = du.u_x, du.u_y
    if mode is AdjointMode.DISTRIBUTED:
        # enstrophy tracking pairs through -Lap(u - u_d)
        dux = g.ifft2(st.ksq * g.fft2(dux))
        duy = g.ifft2(st.ksq * g.fft2(duy))
    return w.track_u * dux, w.track_u * duy, w.track_phi * dphi


def terminal_adjoint_data(base: Trajectory, mode: AdjointMode, targets):
    """Terminal pair (p(T), eta(T)) prescribed by the cost."""
    w = targets.weights
    g = base.grid
    du, dphi = mismatch(mode, targets, base.final)
    p_T = leray_project(VectorField(g, w.final_u * du.u_x, w.final_u * du.u_y))
    eta_T = ScalarField(g, w.final_phi * dphi)
    return p_T, eta_T


def adjoint_solve(
    base: Trajectory,
    mode: AdjointMode,
    targets,
    params: ModelParams,
    config: SolverConfig,
) -> Trajectory:
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
    px_h, py_h, eh = spectral(p_T, eta_T)

    states: list = [None] * (n_total + 1)
    states[n_total] = AdjointState(p_T, eta_T, base.final.t)

    for n in range(n_total - 1, -1, -1):
        node = n + 1  # explicit terms live at the later time level
        # c: the base state; d: the adjoint state (p, eta)
        c = Frame(st, *spectral(base.states[node].u, base.states[node].phi))
        d = Frame(st, px_h, py_h, eh)
        spx, spy, seta = _tracking_sources(mode, targets, base.states[node], node, st)
        px, py = d.ux, d.uy

        fx = (c.ux * d.dux[0] + c.uy * d.dux[1]) - (px * c.dux[0] + py * c.duy[0])
        fy = (c.ux * d.duy[0] + c.uy * d.duy[1]) - (px * c.dux[1] + py * c.duy[1])
        fx = fx - d.phi * c.dphi[0]
        fy = fy - d.phi * c.dphi[1]
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
        r_h = r_h + g.fft2(c.ux * d.dphi[0] + c.uy * d.dphi[1]) * m
        pg_h = g.fft2(px * c.dphi[0] + py * c.dphi[1]) * m
        r_h = r_h - st.J_hat * pg_h
        r_h = r_h + g.fft2(c.conv_grad[0] * px + c.conv_grad[1] * py) * m
        r_h = r_h + g.fft2(seta)
        eh = (eh + dt * r_h) / st.ch_den

        states[n] = AdjointState(*physical(g, px_h, py_h, eh), base.states[n].t)
    return Trajectory(states=states, dt=config.dt)


def _trapz_weights(n_nodes: int, dt: float) -> np.ndarray:
    w = np.full(n_nodes, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    return w


def tracking_pairing(base: Trajectory, tang: Trajectory, mode, targets, st: Stepper):
    """Derivative of the cost's tracking and terminal terms along a tangent
    solution started at node 0: the cost sources paired with the tangent
    states (trapezoidal in time) plus the terminal pairings."""
    g = st.grid
    tw = _trapz_weights(len(base), st.dt)
    val = 0.0
    for n in range(len(base)):
        spx, spy, seta = _tracking_sources(mode, targets, base.states[n], n, st)
        ts = tang.at_node(n)
        val += tw[n] * (
            g.inner(spx, ts.w.u_x) + g.inner(spy, ts.w.u_y) + g.inner(seta, ts.psi.values)
        )
    p_T, eta_T = terminal_adjoint_data(base, mode, targets)
    val += p_T.dot(tang.final.w) + eta_T.inner(tang.final.psi)
    return val


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
    tang = tangent_solve(base, delta_control, None, None, params, config)
    adj = adjoint_solve(base, mode, targets, params, config)
    lhs = tracking_pairing(base, tang, mode, targets, Stepper(params, config))
    tw = _trapz_weights(len(base), config.dt)

    rhs = 0.0
    for n in range(len(base)):
        du = signal_node(delta_control, n)
        if du is None:
            continue
        rhs += tw[n] * adj.at_node(n).p.dot(du)

    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
