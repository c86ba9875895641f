"""Distributed optimal control: cost, reduced gradient, optimizer, and
the pointwise optimality instruments (Hamiltonian, spike variations,
Ekeland metric, minimum-principle residual).

The reduced gradient of the tracking cost with respect to a distributed
control is w_c*U + p with p the backward adjoint momentum; stationarity
is U = -p/w_c.

``optimize`` serves both this problem and the initial-velocity one
(assimilation.py).  Its search direction is memoryless BFGS: L-BFGS
(Nocedal & Wright, Numerical Optimization, 2nd ed., Alg. 7.4) with one
pair, s the last accepted move and y the change of the gradient over it,
and H0 = (s.y / y.y) I.  The pair is dropped, and the step is the
projected-gradient one, when s.y <= 1e-12 |s||y| or when the norm-ball
projection moved the accepted trial.  One pair reaches the same counts as
five on the benchmark problems.  A distributed control weighs 2/3 of a
forward record, so the optimizer holds only the signals its next step
reads: U, G, the direction d and the trial during a trial's sweep, and U,
s and the old gradient (in whose buffer y is formed) at a gradient.

An Armijo backtracking search along the direction keeps the cost history
strictly decreasing by construction.  Each search starts one notch above
the last accepted step, although a quasi-Newton step wants 1 and so about
one trial per iteration is rejected: the benchmark's traced runs replay
that rule from the history's ``step`` column, the accepted multiplier on
the search direction, to count the rejected trials.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import LineSearchStallError, ValidationError
from .forward import (
    FlowState,
    Frame,
    ModelParams,
    SolverConfig,
    Stepper,
    Trajectory,
    physical,
    read_signal,
    simulate,
    spectral,
)
from .grid import ScalarField, TorusGrid, VectorField, leray_project, require_same_grid
from .tangent_adjoint import (
    AdjointMode,
    adjoint_solve,
    reference_transforms,
    running_cost,
    tangent_solve,
    tracking_cost,
    tracking_pairing,
    tracking_references,
    _trapz_weights,
)


@dataclass(frozen=True)
class CostWeights:
    """Multipliers on the five cost terms; all 1 reproduces the plain sum."""

    track_u: float = 1.0
    track_phi: float = 1.0
    final_u: float = 1.0
    final_phi: float = 1.0
    control: float = 1.0

    def __post_init__(self):
        for name in ("track_u", "track_phi", "final_u", "final_phi", "control"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"cost weight {name} must be nonnegative and finite")


@dataclass
class CostTargets:
    """Tracking and terminal references for both problems.

    u_d/phi_d (node-indexed) and u_f/phi_f serve the distributed
    problem; u_M/phi_M and the terminal pair u_M_f/phi_M_f serve the
    assimilation problem.  None entries read as zero references.
    """

    u_d: object = None
    phi_d: object = None
    u_f: VectorField | None = None
    phi_f: ScalarField | None = None
    u_M: object = None
    phi_M: object = None
    u_M_f: VectorField | None = None
    phi_M_f: ScalarField | None = None
    weights: CostWeights = field(default_factory=CostWeights)


class ControlSignal:
    """A distributed control (one VectorField per time node) or a single
    initial-velocity field, with the vector-space helpers the optimizer
    needs.

    Both kinds hold one stacked array ``data`` of shape
    (n_nodes, 2, n_x, n_y), the velocity components of each node; the
    initial kind has one node.  They differ only in ``weights``, the
    time-quadrature weights of the inner product: trapezoidal for a
    distributed control and 1 for the initial kind.
    """

    DISTRIBUTED = "distributed"
    INITIAL = "initial"

    def __init__(self, kind, fields=None, dt=None, initial=None):
        if kind not in (self.DISTRIBUTED, self.INITIAL):
            raise ValidationError(f"unknown control kind {kind!r}")
        if kind == self.DISTRIBUTED:
            if not fields or len(fields) < 2:
                raise ValidationError("distributed control needs >= 2 time nodes")
            if dt is None or not 0.0 < dt < np.inf:
                raise ValidationError("distributed control needs a positive finite dt")
            dt = float(dt)
            weights = _trapz_weights(len(fields), dt)
        else:
            fields = [initial]
            dt = None
            weights = np.ones(1)
        for f in fields:
            if not isinstance(f, VectorField):
                raise ValidationError(f"{kind} control needs VectorFields, not {type(f).__name__}")
        if any(f.grid != fields[0].grid for f in fields):
            raise ValidationError("control nodes live on different grids")
        self.kind = kind
        self.grid = fields[0].grid
        self.dt = dt
        self.weights = weights
        self.data = np.array([(f.u_x, f.u_y) for f in fields])

    def _with(self, data: np.ndarray) -> "ControlSignal":
        """A signal of this kind and time grid holding ``data``."""
        out = copy.copy(self)
        out.data = data
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros_distributed(cls, grid: TorusGrid, n_nodes: int, dt: float):
        return cls.constant(VectorField.zeros(grid), n_nodes, dt)

    @classmethod
    def zeros_initial(cls, grid: TorusGrid):
        return cls(cls.INITIAL, initial=VectorField.zeros(grid))

    @classmethod
    def constant(cls, value: VectorField, n_nodes: int, dt: float):
        return cls(cls.DISTRIBUTED, fields=[value] * n_nodes, dt=dt)

    # -- signal protocol ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        if self.kind != self.DISTRIBUTED:
            raise ValidationError("initial-velocity control has no time grid")
        return len(self.data)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dt

    def at_node(self, n: int) -> VectorField:
        if self.kind != self.DISTRIBUTED:
            raise ValidationError("initial-velocity control is not time-indexed")
        return VectorField(self.grid, self.data[n, 0], self.data[n, 1])

    @property
    def initial(self) -> VectorField | None:
        """The field of an initial-velocity control; None when distributed."""
        if self.kind != self.INITIAL:
            return None
        return VectorField(self.grid, self.data[0, 0], self.data[0, 1])

    def copy(self) -> "ControlSignal":
        return self._with(self.data.copy())

    # -- vector-space helpers ----------------------------------------------

    def _check_compatible(self, other: "ControlSignal"):
        if self.kind != other.kind:
            raise ValidationError("mixed control kinds")
        require_same_grid(self, other)
        if len(self.data) != len(other.data) or self.dt != other.dt:
            raise ValidationError("control signals on different time grids")

    def axpy(self, alpha: float, other: "ControlSignal") -> "ControlSignal":
        """self + alpha * other, as a new signal."""
        self._check_compatible(other)
        out = alpha * other.data
        out += self.data  # in place: no second full-size temporary
        return self._with(out)

    def scaled(self, alpha: float) -> "ControlSignal":
        return self._with(alpha * self.data)

    def inner(self, other: "ControlSignal") -> float:
        """Time-space inner product (trapezoidal in time when distributed)."""
        self._check_compatible(other)
        per_node = np.einsum("nijk,nijk->n", self.data, other.data)
        return float(self.grid.cell_area * np.dot(self.weights, per_node))

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self), 0.0)))

    def ball_projected(self, radius: float) -> "ControlSignal":
        """Projection onto the centered ball of the given time-space radius."""
        n = self.norm()
        if not np.isfinite(radius) or n <= radius:
            return self
        return self.scaled(radius / n)


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 100
    step0: float = 1.0
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    grad_tol: float = 1e-6
    radius: float = np.inf

    def __post_init__(self):
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 0):
            raise ValidationError("max_iters must be a nonnegative integer")
        if not 0.0 < self.step0 < np.inf:
            raise ValidationError("step0 must be positive and finite")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValidationError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.armijo_shrink < 1.0:
            raise ValidationError("armijo_shrink must lie in (0, 1)")
        if not 0.0 < self.grad_tol < np.inf:
            raise ValidationError("grad_tol must be positive and finite")
        if not self.radius > 0.0:
            raise ValidationError("radius must be positive")


def cost_ocp(traj: Trajectory, control: ControlSignal, targets: CostTargets) -> float:
    """The distributed problem's cost, tracking_cost in the distributed
    mode with the control's energy in the running cost; the control must
    share the trajectory's time nodes."""
    if control.kind != ControlSignal.DISTRIBUTED or control.n_nodes != len(traj):
        raise ValidationError("control does not match the trajectory time grid")
    return tracking_cost(AdjointMode.DISTRIBUTED, targets, traj, control)


def _gradient_sum(control: ControlSignal, n_nodes: int, weights: CostWeights | None):
    """The array w_c*U of the distributed gradient over n_nodes adjoint
    nodes, and the adjoint sink that adds node n's p into its row n: the
    one assembly of w_c*U + p, from a record or during a sweep."""
    w_c = (weights or CostWeights()).control
    if control.kind != ControlSignal.DISTRIBUTED:
        raise ValidationError("distributed gradient needs a distributed control")
    if control.n_nodes != n_nodes:
        raise ValidationError("control and adjoint time grids differ")
    data = w_c * control.data

    def add(n, s):
        data[n, 0] += s.p.u_x
        data[n, 1] += s.p.u_y

    return data, add


def reduced_gradient_ocp(
    control: ControlSignal,
    adjoint_traj: Trajectory,
    weights: CostWeights | None = None,
) -> ControlSignal:
    """Nodewise gradient w_c*U + p of the reduced cost, from a full
    adjoint record."""
    data, add = _gradient_sum(control, len(adjoint_traj), weights)
    for n, s in enumerate(adjoint_traj.states):
        add(n, s)
    return control._with(data)


class DistributedControlProblem:
    """Reduced-cost oracle for the distributed problem.

    cost(U) simulates forward; gradient(U, traj) solves the adjoint and
    adds each node's p into w_c*U as the sweep gives it, holding no
    adjoint record; project is the identity (whole-space admissible
    set; the optimizer applies the optional norm ball separately).  The
    tracking references are transformed once, here, for every adjoint solve.
    """

    mode = AdjointMode.DISTRIBUTED

    def __init__(self, initial: FlowState, targets: CostTargets, forcing, params, config):
        self.initial = initial
        self.targets = targets
        self.forcing = forcing
        self.params = params
        self.config = config
        self.ref_hats = reference_transforms(self.mode, targets, params.grid, config.n_steps + 1)

    def cost(self, control: ControlSignal):
        traj = simulate(
            self.initial, control, self.forcing, self.params, self.config,
            with_diagnostics=False,
        )
        return cost_ocp(traj, control, self.targets), traj

    def gradient(self, control: ControlSignal, traj: Trajectory) -> ControlSignal:
        data, add = _gradient_sum(control, len(traj), self.targets.weights)
        adjoint_solve(traj, self.mode, self.targets, self.params, self.config, self.ref_hats,
                      keep=(), sink=add)
        return control._with(data)

    def project(self, control: ControlSignal) -> ControlSignal:
        return control

    def zero_control(self) -> ControlSignal:
        return ControlSignal.zeros_distributed(
            self.params.grid, self.config.n_steps + 1, self.config.dt
        )


def _memoryless_bfgs(G: ControlSignal, s: ControlSignal, y: ControlSignal) -> ControlSignal:
    """The search direction -H G of L-BFGS with the one pair (s, y).

    This is the two-loop recursion (Nocedal & Wright, Numerical
    Optimization, 2nd ed., Alg. 7.4) with m = 1 and H0 = (s.y / y.y) I,
    every inner product being ``ControlSignal.inner``.  When
    s.y <= 1e-12 |s||y| the pair carries no usable curvature and the
    direction is -G.  The direction is the one new signal: s and y are
    overwritten.
    """
    sy = s.inner(y)
    yy = y.inner(y)
    if not sy > 1e-12 * s.norm() * np.sqrt(yy):
        return G.scaled(-1.0)
    gamma = sy / yy
    alpha = s.inner(G) / sy
    beta = gamma * (y.inner(G) - alpha * yy) / sy
    # -H G = -gamma (G - alpha y) - (alpha - beta) s
    d = G.scaled(-gamma)
    y.data *= gamma * alpha
    d.data += y.data
    s.data *= beta - alpha
    d.data += s.data
    return d


def optimize(problem, initial_guess: ControlSignal, opt_config: OptimizerConfig):
    """Memoryless-BFGS descent with Armijo backtracking.

    The direction is -H G, with H the L-BFGS inverse Hessian of the one
    pair s = U_new - U_old (the accepted move) and y = G_new - G_old
    (``_memoryless_bfgs``).  No pair is used on the first iteration, when
    s.y <= 1e-12 |s||y|, or when the norm-ball projection moved the
    accepted trial; the direction is then -G, the projected-gradient
    step.  A trial U_try = proj(U + step d) is accepted when
    J(U_try) <= J + armijo_c <G, U_try - U> and <G, U_try - U> < 0; for
    d = -G and no projection that is J - (armijo_c / step) |U_try - U|^2.
    The sign test matters only where the ball bends a quasi-Newton trial
    uphill, and keeps every accepted cost strictly below the last.

    The trial steps follow one rule: the first search starts at step0,
    each later one at one notch (1 / armijo_shrink) above the step
    accepted before it, and each rejected trial shrinks the step by
    armijo_shrink, 40 times at most.  The ``step`` of a history row is
    the accepted multiplier on the direction d, so the rejected trials can
    be replayed from that column alone; the benchmark's traced runs check
    their cost-evaluation count that way.

    Memory: a trial's sweep meets four control signals (U, G, d and the
    trial) and one forward record: the previous trial and its record go
    before the next trial is formed, and the move U_try - U gives its norm
    and slope before the sweep and is formed again, with the same bits, as
    s when the trial is accepted.  A gradient meets three (U, s and G_prev)
    and the accepted record.  initial_guess is not held beyond U, so a
    guess the caller does not hold dies at the first accepted step.

    Returns (control, history); history rows carry iter, cost,
    grad_norm, step, wall_seconds.  When the line search exhausts its 40
    shrinks the run ends normally if the iterate is already stationary
    to roughly square-root machine precision (no decrease is resolvable
    in float64 there); otherwise LineSearchStallError is raised, which
    usually means the gradient is not a descent direction.
    """
    t_start = time.perf_counter()
    U = problem.project(initial_guess).ball_projected(opt_config.radius)
    del initial_guess  # a guess passed inline dies at the first accepted step
    J, aux = problem.cost(U)
    history = [
        {
            "iter": 0,
            "cost": J,
            "grad_norm": float("nan"),
            "step": 0.0,
            "wall_seconds": time.perf_counter() - t_start,
        }
    ]
    step = opt_config.step0
    s_pair = G_prev = None  # last accepted move and the gradient before it
    for it in range(opt_config.max_iters):
        G = problem.gradient(U, aux)
        aux = None  # the line search needs only U, J and G: the record is let go
        gn = G.norm()
        history[-1]["grad_norm"] = gn
        if gn / max(1.0, U.norm()) <= opt_config.grad_tol:
            break
        if s_pair is None:
            d = G.scaled(-1.0)
        else:
            np.subtract(G.data, G_prev.data, out=G_prev.data)  # y, in place
            d = _memoryless_bfgs(G, s_pair, G_prev)
        s_pair = G_prev = None
        accepted = False
        s = step
        max_move = 0.0
        for _ in range(40):
            U_try = aux_try = None  # a rejected trial goes before the next is formed
            V = problem.project(U.axpy(s, d))
            U_try = V.ball_projected(opt_config.radius)
            unbent = U_try is V  # the ball did not move the trial
            V = None
            dU = U_try.axpy(-1.0, U)
            move = dU.norm() ** 2
            slope = G.inner(dU)  # >= 0 only where the ball bent a quasi-Newton trial
            dU = None  # the sweep meets U, G, d and the trial only
            max_move = max(max_move, move)
            if move == 0.0:
                break  # projection pinned the iterate exactly
            J_try, aux_try = problem.cost(U_try)
            if slope < 0.0 and J_try <= J + opt_config.armijo_c * slope:
                accepted = True
                break
            s *= opt_config.armijo_shrink
        if not accepted:
            if gn / max(1.0, U.norm()) <= max(opt_config.grad_tol, 1.5e-8):
                break  # stationary to float64 resolution
            if max_move <= (1e-13 * max(1.0, U.norm())) ** 2:
                break  # projection pins every trial: constrained stationary point
            raise LineSearchStallError(
                f"line search stalled at iteration {it}: cost {J:.6e}, "
                f"gradient norm {gn:.3e}, smallest step tried {s:.3e}"
            )
        d = None  # nothing control-sized beyond U, s and G_prev meets the gradient
        if unbent:  # keep the pair, with s formed again as dU was
            s_pair, G_prev = U_try.axpy(-1.0, U), G
        U, J, aux = U_try, J_try, aux_try
        U_try = aux_try = None  # U and aux alone hold the accepted trial
        step = s / opt_config.armijo_shrink  # warm start, one notch up
        history.append(
            {
                "iter": it + 1,
                "cost": J,
                "grad_norm": float("nan"),
                "step": s,
                "wall_seconds": time.perf_counter() - t_start,
            }
        )
    return U, history


def solve_ocp(
    initial: FlowState,
    targets: CostTargets,
    forcing,
    params: ModelParams,
    config: SolverConfig,
    opt_config: OptimizerConfig,
    initial_guess: ControlSignal | None = None,
):
    """Convenience wrapper: build the distributed problem and optimize."""
    problem = DistributedControlProblem(initial, targets, forcing, params, config)
    # the zero guess is passed unbound, so optimize lets it go (see there)
    U, history = optimize(
        problem, problem.zero_control() if initial_guess is None else initial_guess, opt_config
    )
    return U, history, problem


# -- pointwise optimality instruments ------------------------------------


def spike_variation(
    control: ControlSignal, tau: float, h: float, W: VectorField
) -> ControlSignal:
    """Replace the control by W on the time window (tau - h, tau]."""
    if control.kind != ControlSignal.DISTRIBUTED:
        raise ValidationError("spike variations need a distributed control")
    T = (control.n_nodes - 1) * control.dt
    if not 0.0 < h <= tau <= T * (1.0 + 1e-12):
        raise ValidationError("need 0 < h <= tau <= T")
    require_same_grid(control, W)
    tol = 1e-9 * control.dt
    t = control.times
    data = control.data.copy()
    data[(tau - h + tol < t) & (t <= tau + tol)] = (W.u_x, W.u_y)
    return control._with(data)


def spike_limit_reference(
    base: Trajectory,
    control: ControlSignal,
    tau: float,
    W: VectorField,
    params: ModelParams,
    config: SolverConfig,
) -> VectorField:
    """Linearized terminal velocity response to a vanishing spike at tau.

    The spike replaces the control by W on (tau - h, tau]; as h shrinks
    the rescaled terminal difference (u^h(T) - u(T))/h approaches the
    tangent velocity seeded just after the spike node with the
    one-step-damped impulse P(W - U(tau)) / (1 + nu |k|^2 dt).
    """
    g = params.grid
    dt = config.dt
    j = int(round(tau / dt))
    if not 0 <= j <= config.n_steps:
        raise ValidationError("tau falls outside the control time grid")
    dW = leray_project(W - control.at_node(j))
    den = 1.0 + config.nu * g.ksq * dt
    seed = VectorField(
        g,
        g.ifft2(g.fft2(dW.u_x) / den),
        g.ifft2(g.fft2(dW.u_y) / den),
    )
    start = min(j + 1, config.n_steps)
    tan = tangent_solve(base, None, seed, None, params, config, start_node=start)
    return tan.states[-1].w


def ekeland_metric(u1: ControlSignal, u2: ControlSignal) -> float:
    """dt times the number of time nodes where the controls differ
    (beyond 1e-14 relative), the discrete measure of the disagreement
    set."""
    if u1.kind != ControlSignal.DISTRIBUTED or u2.kind != ControlSignal.DISTRIBUTED:
        raise ValidationError("the Ekeland metric compares distributed controls")
    u1._check_compatible(u2)
    axes = (1, 2, 3)
    na = np.sum(u1.data**2, axis=axes)
    nb = np.sum(u2.data**2, axis=axes)
    d = np.sum((u1.data - u2.data) ** 2, axis=axes)
    # squared norms share the cell area, so they compare without it
    count = np.count_nonzero(np.sqrt(d) > 1e-14 * np.sqrt(np.maximum(na, nb)))
    return u1.dt * int(count)


def hamiltonian(
    state: FlowState,
    U_value: VectorField,
    adjoint,
    targets: CostTargets,
    params: ModelParams,
    nu: float,
    node: int | None = None,
) -> float:
    """The Hamiltonian at one time node: the Lagrangian, running_cost in
    the distributed mode (the integrand of cost_ocp), plus the adjoint
    pairings with the state equations' right-hand sides.

    The right-hand sides are the scheme's: the dealiased explicit terms a
    forward step uses (Stepper.explicit_rhs, default stabilization) plus
    the implicit viscous and stabilization terms.  As a function of
    U_value this is (w_c/2)|U|^2 + <p, U> + const, so its minimizer over
    all fields is -p/w_c; U_value None is no control.
    node, a node index from 0, picks the tracking references; None reads
    them at node 0, which is every node for references constant in time.
    """
    g = params.grid
    n = 0 if node is None else node
    if n < 0:
        raise ValidationError(f"node {node} is not a time node")
    u_d, phi_d = tracking_references(AdjointMode.DISTRIBUTED, targets, g, n + 1)
    U = read_signal(U_value, "U_value", g)
    lagr = running_cost(AdjointMode.DISTRIBUTED, targets.weights, state, (u_d[n], phi_d[n]), U)

    # dt does not enter the right-hand side
    st = Stepper(params, SolverConfig(dt=1.0, T=1.0, nu=nu))
    ux_h, uy_h, ph = spectral(state.u, state.phi)
    fr = Frame(st, ux_h, uy_h, ph, ("conv",), "frame")
    fx_h, fy_h, rhs = st.explicit_rhs(fr, *(U or (None, None)))
    n1, n2 = physical(
        g, fx_h - nu * g.ksq * ux_h, fy_h - nu * g.ksq * uy_h, rhs - st.S * g.ksq * ph
    )
    return float(lagr + adjoint.p.dot(n1) + adjoint.eta.inner(n2))


def build_trial_controls(
    control: ControlSignal,
    adjoint_traj: Trajectory,
    rng: np.random.Generator,
    n_random_pairs: int = 7,
    weights: CostWeights | None = None,
):
    """Per-node trial set for the minimum principle: zero, the
    closed-form minimizer -p/w_c, and +-random divergence-free fields
    matched to the control's node norm (16 trials with the default
    pair count)."""
    from .synth import random_divfree_velocity

    w_c = (weights or CostWeights()).control
    g = control.grid
    randoms = [
        random_divfree_velocity(g, rng, amplitude=1.0, k_cut=4.0)
        for _ in range(n_random_pairs)
    ]

    def trials(node: int):
        Un = control.at_node(node)
        pn = adjoint_traj.states[node].p
        scale = Un.norm()
        out = [VectorField.zeros(g), pn * (-1.0 / w_c)]
        for r in randoms:
            rn = r.norm()
            s = scale / rn if rn > 0 else 0.0
            out.append(r * s)
            out.append(r * (-s))
        return out

    return trials


def minimum_principle_residual(
    control: ControlSignal,
    adjoint_traj: Trajectory,
    trial_controls,
    weights: CostWeights | None = None,
) -> np.ndarray:
    """Per-node max over trial fields W of

        [w_c/2 |U|^2 + <p,U>] - [w_c/2 |W|^2 + <p,W>].

    Nonpositive entries certify the pointwise minimum property at that
    node against the sampled trials.
    """
    w_c = (weights or CostWeights()).control
    n_nodes = control.n_nodes
    if len(adjoint_traj) != n_nodes:
        raise ValidationError("control and adjoint time grids differ")
    U = control.data
    P = np.array([(s.p.u_x, s.p.u_y) for s in adjoint_traj.states])
    base = control.grid.cell_area * np.sum(U * (0.5 * w_c * U + P), axis=(1, 2, 3))

    def lowest(n):
        # the trial sets arrive one node at a time
        trials = trial_controls(n) if callable(trial_controls) else trial_controls
        p = adjoint_traj.states[n].p
        return min((0.5 * w_c * W.dot(W) + p.dot(W) for W in trials), default=np.inf)

    return base - np.array([lowest(n) for n in range(n_nodes)])


def directional_derivative(
    base: Trajectory,
    control: ControlSignal,
    direction: ControlSignal,
    mode: AdjointMode,
    targets: CostTargets,
    params: ModelParams,
    config: SolverConfig,
) -> float:
    """Exact derivative of the discrete cost along a control direction,
    assembled from one tangent solve (no adjoint involved).

    Used to separate the O(dt) adjoint-consistency floor from the
    quadratic Taylor remainder in gradient tests.
    """
    tang = tangent_solve(base, direction, None, None, params, config)
    val = tracking_pairing(base, tang, mode, targets)
    return float(val + targets.weights.control * control.inner(direction))


def taylor_remainders(problem, U: ControlSignal, direction: ControlSignal, hs):
    """Cost remainders |J(U+hV) - J(U) - h<G,V>| over a step ladder.

    Returns (remainders, gradient_pairing, base_cost).
    """
    J0, aux = problem.cost(U)
    G = problem.gradient(U, aux)
    gv = G.inner(direction)
    rem = []
    for h in hs:
        Jh, _ = problem.cost(U.axpy(float(h), direction))
        rem.append(abs(Jh - J0 - float(h) * gv))
    return np.array(rem), gv, J0


def observed_orders(values, hs) -> np.ndarray:
    """Pairwise convergence orders of a ladder of positive values."""
    values = np.asarray(values, dtype=float)
    hs = np.asarray(hs, dtype=float)
    eps = 1e-300
    return np.log(np.maximum(values[:-1], eps) / np.maximum(values[1:], eps)) / np.log(
        hs[:-1] / hs[1:]
    )
