"""Linearized and adjoint sweeps around a stored forward trajectory.

The tangent system reuses the forward IMEX layout, step kernel and all,
with coefficients frozen at the stored states: its products are the
forward step's products kernel (Stepper.quadratic) of the pairs
(tangent, base) and (base, tangent), the product rule by construction,
so it is the exact derivative of the discrete step map.  The adjoint
discretizes the backward-in-time continuous equations with the same
splitting and kernel but its own products and concentration operator;
the price is an O(dt) duality gap, measured by duality_gap.  Both read
their base record through one reader, _along: its checks, the sweep's
Stepper, and at each node the base state's transforms and frame beside
the sweep's own frame.

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

The cost functional of both control problems lives here beside its
derivative: running_cost is its integrand at one node, tracking_cost the
trapezoidal sum plus the terminal terms, and tracking_sources,
tracking_pairing and terminal_adjoint_data differentiate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .forward import (
    Frame,
    ModelParams,
    SolverConfig,
    Stepper,
    Trajectory,
    _applied_force,
    _sweep,
    physical,
    read_signal,
    spectral,
)
from .grid import ScalarField, VectorField, grad_norm, leray_project, require_same_grid


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


def _along(base: Trajectory, params: ModelParams, config: SolverConfig):
    """What the tangent and adjoint sweeps share about their base record:
    ValidationError unless it steps config's dt and holds every node,
    then the sweep's Stepper st and frames(n, x, base_extras, extras).
    That transforms the base state at node n into st's "base" buffer and
    returns those transforms, the base state's Frame ("frame", with
    base_extras) and the Frame of the sweep's own transforms x ("sweep
    frame", with extras); the next call overwrites all three."""
    if abs(base.dt - config.dt) > 1e-14 * max(1.0, config.dt):
        raise ValidationError("base trajectory dt does not match config dt")
    base.every_node()
    st = Stepper(params, config)

    def frames(n, x, base_extras, extras):
        b = base.states[n]
        hats = spectral(b.u, b.phi, st.buffer("work", 3, float), st.buffer("base", 3, complex))
        return hats, Frame(st, *hats, base_extras, "frame"), Frame(st, *x, extras, "sweep frame")

    return st, frames


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

    delta_control is a time signal (read_signal).  start_node
    lets a perturbation be injected mid-trajectory (the spike limit
    diagnostic); the record then holds None at nodes 0..start_node-1,
    as simulate marks the nodes its keep drops.  A step computes in its
    Stepper's buffers, as the adjoint's does, and allocates nothing
    field-sized but the three half spectra it advances to and, for a
    control given per node, its midpoint (_applied_force).
    """
    g = params.grid
    n_total = base.n_steps
    st, frames = _along(base, params, config)
    if not 0 <= start_node <= n_total:
        raise ValidationError("start_node outside the base trajectory")
    control = read_signal(delta_control, "delta_control", g, n_total + 1, dt=config.dt)

    w0 = VectorField.zeros(g) if w0 is None else w0
    psi0 = ScalarField.zeros(g) if psi0 is None else psi0
    require_same_grid(w0, psi0)
    if w0.grid != g:
        raise ValidationError("tangent initial data on wrong grid")

    def step_from(n, x):
        # c: the base state; d: the tangent state (w, psi)
        _, c, d = frames(n, x, ("conv",), ("conv",))
        force = _applied_force(n, control)
        w = st.quadratic(((d, c), (c, d)), st.products(force[0]))
        np.multiply(params.potential.d2f(c.phi, out=w[2]), d.phi, out=w[2])
        return st.advance(x, st.assemble(w, x[2], *force))

    def finish(n, x, kept):
        fields = ((w0.copy(), psi0.copy()) if n == start_node
                  else physical(g, *x, st.buffer("work", 3, complex)))
        return TangentState(*fields, base.states[n].t)

    return _sweep(range(start_node, n_total + 1), lambda: spectral(w0, psi0), step_from, finish,
                  config.dt)


def tracking_references(mode: AdjointMode, targets, grid, n_nodes: int | None = None):
    """The (velocity, phi) references the mode tracks, read by read_signal:
    u_d/phi_d or u_M/phi_M over n_nodes, or for n_nodes None the terminal
    pair of single fields u_f/phi_f or u_M_f/phi_M_f; None reads as zero."""
    tag = ("_d", "_f") if mode is AdjointMode.DISTRIBUTED else ("_M", "_M_f")
    names = [part + tag[n_nodes is None] for part in ("u", "phi")]
    return tuple(read_signal(getattr(targets, name), name, grid, n_nodes, kind)
                 for name, kind in zip(names, (VectorField, ScalarField)))


def mismatch(state, ref):
    """State minus one node's reference, as arrays ((du_x, du_y), dphi),
    with ref the node's (velocity, phi) entries of tracking_references."""
    u_ref, phi_ref = ref
    du = (state.u.u_x, state.u.u_y)
    if u_ref is not None:
        du = (du[0] - u_ref[0], du[1] - u_ref[1])
    dphi = state.phi.values if phi_ref is None else state.phi.values - phi_ref[0]
    return du, dphi


def reference_transforms(mode: AdjointMode, targets, grid, n_nodes: int) -> list:
    """Entry n is the transforms (u_x, u_y, phi) of the tracking references at
    node n, None where missing; a reference constant in time is transformed once."""

    def series(nodes, i):
        if nodes[0] is nodes[-1]:
            return [None if nodes[0] is None else grid.fft2(nodes[0][i])] * n_nodes
        return [grid.fft2(e[i]) for e in nodes]

    u, phi = tracking_references(mode, targets, grid, n_nodes)
    return list(zip(series(u, 0), series(u, 1), series(phi, 0)))


def running_cost(mode: AdjointMode, weights, state, ref, U=None) -> float:
    """The cost's integrand at one node, 0.5*(w_u |du|^2 + w_phi |dphi|^2
    + w_c |U|^2) with (du, dphi) the node's mismatch against ref (see
    mismatch), U the node's control components and no control term when
    U is None; it is the Lagrangian of the Hamiltonian.  |du| is the
    gradient norm (enstrophy tracking, Nyquist derivative lines zeroed) in
    the distributed mode and the L2 norm in the assimilation mode: the
    pairings tracking_sources differentiates."""
    g = state.grid
    du, dphi = mismatch(state, ref)
    a = (grad_norm(VectorField._of(g, *du)) ** 2 if mode is AdjointMode.DISTRIBUTED
         else sum(g.inner(x, x) for x in du))
    b = g.inner(dphi, dphi)
    c = 0.0 if U is None else weights.control * sum(g.inner(x, x) for x in U)
    return 0.5 * (weights.track_u * a + weights.track_phi * b + c)


def tracking_cost(mode: AdjointMode, targets, traj: Trajectory, control=None) -> float:
    """The running cost summed over the nodes, trapezoidal in time, with the
    control's node values when a control is given, plus the terminal L2
    mismatches.  Every signal is read once, before the sum."""
    w = targets.weights
    g = traj.grid
    refs = tracking_references(mode, targets, g, len(traj))
    U = read_signal(control, "control", g, len(traj), dt=traj.dt)
    tw = _trapz_weights(len(traj), traj.dt)
    total = 0.0
    for n, (s, *ref, U_n) in enumerate(zip(traj.every_node(), *refs, U)):
        total += tw[n] * running_cost(mode, w, s, ref, U_n)
    du, dphi = mismatch(traj.final, tracking_references(mode, targets, g))
    total += 0.5 * w.final_u * sum(g.inner(x, x) for x in du)
    total += 0.5 * w.final_phi * g.inner(dphi, dphi)
    return float(total)


def source_scale(mode: AdjointMode, weights, grid):
    """The multiplier of the velocity mismatch's transforms in
    tracking_sources: track_u k^2 with the Nyquist derivative lines zeroed
    (enstrophy tracking) in the distributed mode, as a complex half
    spectrum, which a product reads through the complex loop it takes
    anyway, with no cast; track_u in the assimilation mode."""
    if mode is not AdjointMode.DISTRIBUTED:
        return weights.track_u
    return (weights.track_u * grid.ksq_d).astype(complex)


def tracking_sources(mode: AdjointMode, weights, grid, hats, ref, out=None, scale=None):
    """Transforms (S_p_x, S_p_y, S_eta) of the tracking sources at one node,
    the derivative of running_cost in the state, from the base state's
    transforms hats and the node's reference_transforms entry ref, as a
    complex stack of three half spectra: out, or a fresh one.  The
    distributed mode pairs the velocity mismatch through -Lap (enstrophy
    tracking) with the Nyquist derivative lines zeroed, as the cost's
    gradient norm pairs it; the assimilation mode pairs it in L2.  scale
    is source_scale's multiplier, which a sweep forms once, or None to
    form it here."""
    if out is None:
        out = np.empty((3, *grid.spectral_shape), complex)
    if scale is None:
        scale = source_scale(mode, weights, grid)
    for h, r, w, o in zip(hats, ref, (scale, scale, weights.track_phi), out):
        np.multiply(w, h if r is None else np.subtract(h, r, out=o), out=o)
    return out


def terminal_adjoint_data(base: Trajectory, mode: AdjointMode, targets):
    """Terminal pair (p(T), eta(T)) prescribed by the cost."""
    w = targets.weights
    g = base.grid
    du, dphi = mismatch(base.final, tracking_references(mode, targets, g))
    p_T = leray_project(VectorField(g, w.final_u * du[0], w.final_u * du[1]))
    eta_T = ScalarField(g, w.final_phi * dphi)
    return p_T, eta_T


def adjoint_solve(
    base: Trajectory,
    mode: AdjointMode,
    targets,
    params: ModelParams,
    config: SolverConfig,
    ref_hats: list | None = None,
    keep=None,
    sink=None,
) -> Trajectory:
    """Integrate the adjoint pair (p, eta) backward from t = T to 0.

    targets supplies the tracking references, terminal references, and
    optional cost weights.  Each step forms the tracking sources in
    transform space (tracking_sources) from the base-state transforms it
    takes anyway and ref_hats, the reference_transforms of targets: a
    caller solving repeatedly against the same targets passes them in,
    None computes them here.

    keep and sink work as _sweep says: sink(n, state) is called for the
    nodes N..0, in that order, on the calling thread, with the node's
    AdjointState once it is checked.  Only a kept node's state is
    transformed back to physical space and checked for finiteness
    (NumericError), so keep=() holds p(0), all the assimilation gradient
    reads, and the sweep's memory does not grow with N.  At a node a sink
    reads and keep does not hold, the sweep transforms back p alone: eta
    is checked finite in transform space and transformed back only if the
    sink reads it.  The distributed gradient adds each p into w_c*U so and
    passes keep=(): its sweep holds no record and transforms two fields
    back a step, not three.

    A step computes in its Stepper's buffers (see Stepper), with the bits
    of the fresh-array expressions, and allocates nothing field-sized but
    the three half spectra it advances to; the distributed sources' scale
    (source_scale) is formed once per sweep.
    """
    g = params.grid
    st, frames = _along(base, params, config)
    n_total = base.n_steps
    m = st.mask
    # the concentration operator's multipliers, the same every step
    k_J = st.ksq * st.J_hat
    k_aS = st.ksq * (st.a - st.S) if st.a != st.S else None
    scale = source_scale(mode, targets.weights, g)

    terminal = None

    def start():  # the targets are read once _sweep has checked keep
        nonlocal ref_hats, terminal
        if ref_hats is None:
            ref_hats = reference_transforms(mode, targets, g, n_total + 1)
        terminal = AdjointState(*terminal_adjoint_data(base, mode, targets), base.final.t)
        return spectral(terminal.p, terminal.eta)

    def step_from(n, x):
        # c: the base state at node n, the later time level the explicit
        # terms live at; d: the adjoint state (p, eta)
        hats, c, d = frames(n, x, ("conv_grad",), ("lap",))
        src = tracking_sources(mode, targets.weights, g, hats, ref_hats[n],
                               st.buffer("sources", 3, complex), scale)
        cu, p = (c.ux, c.uy), (d.ux, d.uy)

        w = st.buffer("work", 6, float)
        a = st.buffer("products", 2, float)[0]
        for i, dd in enumerate((d.dux, d.duy)):
            # (u.grad)p_i - p_j d_i(u_j) - eta d_i(phi)
            st.dot(cu, dd, w[i])
            np.subtract(w[i], st.dot(p, (c.dux[i], c.duy[i]), a), out=w[i])
            np.subtract(w[i], np.multiply(d.phi, c.dphi[i], out=a), out=w[i])
        np.multiply(params.potential.d2f(c.phi, out=w[2]), d.lap, out=w[2])
        st.dot(cu, d.dphi, w[3])
        st.dot(p, c.dphi, w[4])
        st.dot(c.conv_grad, p, w[5])
        h = g.fft2(w, out=st.buffer("rhs", 6, complex))
        fx_h, fy_h = st.momentum(h[0], h[1], src[0], src[1])

        # r = h2 m + k^2 J^ eta^ [- k^2 (a - S) eta^] + h3 m - J^ (h4 m) + h5 m + S_eta
        r, t = h[2], st.buffer("spectra", 1, complex)[0]
        np.multiply(r, m, out=r)
        np.add(r, np.multiply(k_J, x[2], out=t), out=r)
        if k_aS is not None:
            np.subtract(r, np.multiply(k_aS, x[2], out=t), out=r)
        np.add(r, np.multiply(h[3], m, out=t), out=r)
        np.subtract(r, np.multiply(st.J_hat, np.multiply(h[4], m, out=t), out=t), out=r)
        np.add(r, np.multiply(h[5], m, out=t), out=r)
        np.add(r, src[2], out=r)
        return st.advance(x, (fx_h, fy_h, r))

    def finish(n, x, kept):
        if n == n_total:
            return terminal
        if kept:
            return AdjointState(*physical(g, *x, st.buffer("work", 3, complex)), base.states[n].t)
        return None if sink is None else _SinkState(st, x, base.states[n].t)

    return _sweep(range(n_total, -1, -1), start, step_from, finish, config.dt, keep, sink)


class _SinkState(AdjointState):
    """A node that an adjoint sweep hands to its sink but does not keep,
    from its transforms hats: p is transformed back, and eta, checked
    finite in transform space, only when it is read."""

    def __init__(self, st: Stepper, hats, t: float):
        f = st.grid.ifft2(np.stack(hats[:2], out=st.buffer("work", 2, complex)), overwrite=True)
        if not (np.isfinite(f).all() and np.isfinite(hats[2]).all()):
            raise NumericError("state contains non-finite values")
        self.p, self.t, self._eta_hat = VectorField._of(st.grid, f[0], f[1]), t, hats[2]

    @property
    def eta(self) -> ScalarField:
        values = self.p.grid.ifft2(self._eta_hat)
        if not np.isfinite(values).all():
            raise NumericError("state contains non-finite values")
        return ScalarField._of(self.p.grid, values)


def _trapz_weights(n_nodes: int, dt: float) -> np.ndarray:
    w = np.full(n_nodes, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    return w


def tracking_pairing(base: Trajectory, tang: Trajectory, mode, targets):
    """Derivative of tracking_cost's state terms along a tangent solution
    started at node 0: the cost sources paired with the tangent states
    (trapezoidal in time) plus the terminal pairings.  ValidationError
    unless both records hold every node, and as many."""
    if len(tang) != len(base):
        raise ValidationError(f"the tangent record has {len(tang)} nodes, the base {len(base)}")
    g = base.grid
    tw = _trapz_weights(len(base), base.dt)
    refs = reference_transforms(mode, targets, g, len(base))
    val = 0.0
    for n, (s, ts) in enumerate(zip(base.every_node(), tang.every_node())):
        src = tracking_sources(mode, targets.weights, g, spectral(s.u, s.phi), refs[n])
        val += tw[n] * sum(
            g.inner(g.ifft2(h), v) for h, v in zip(src, (ts.w.u_x, ts.w.u_y, ts.psi.values))
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
    lhs = tracking_pairing(base, tang, mode, targets)
    tw = _trapz_weights(len(base), config.dt)

    g = params.grid
    rhs = 0.0
    control = read_signal(delta_control, "delta_control", g, len(base), dt=config.dt)
    for n, (du, s) in enumerate(zip(control, adj.states)):
        if du is not None:
            rhs += tw[n] * (g.inner(s.p.u_x, du[0]) + g.inner(s.p.u_y, du[1]))

    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
