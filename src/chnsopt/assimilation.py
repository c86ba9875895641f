"""Initial-velocity data assimilation.

The unknown is the initial velocity U; the concentration initial datum
is fixed.  The cost penalizes the mismatch to measured velocity and
concentration histories plus terminal mismatches and a Tikhonov control
term; its gradient is w_c*U + p(0) with p the assimilation-mode adjoint.
twin_experiment generates measurements from a known truth and measures
how well optimization recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    ControlSignal,
    CostTargets,
    CostWeights,
    OptimizerConfig,
    optimize,
)
from .errors import ValidationError
from .forward import FlowState, ModelParams, SolverConfig, Trajectory, simulate
from .grid import ScalarField, VectorField, leray_project
from .tangent_adjoint import AdjointMode, adjoint_solve, reference_transforms, tracking_cost


@dataclass
class AssimilationProblem:
    """Measurement records plus the fixed pieces of the forward model."""

    measurements: CostTargets
    phi0: ScalarField
    forcing: object
    params: ModelParams
    config: SolverConfig

    def __post_init__(self):
        if self.measurements.u_M_f is None or self.measurements.phi_M_f is None:
            raise ValidationError(
                "assimilation needs terminal measurements u_M_f and phi_M_f"
            )

    def initial_state(self, U: VectorField) -> FlowState:
        return FlowState(leray_project(U), self.phi0.copy(), 0.0)


def cost_da(traj: Trajectory, U: VectorField, problem: AssimilationProblem) -> float:
    """Tikhonov term on the initial velocity plus tracking_cost in the
    assimilation mode: L2 mismatches to the measurement histories,
    trapezoidal in time, and to the terminal measurements."""
    m = problem.measurements
    tikhonov = 0.5 * m.weights.control * U.dot(U)
    return float(tikhonov + tracking_cost(AdjointMode.ASSIMILATION, m, traj))


def reduced_gradient_da(
    U: VectorField,
    adjoint_traj: Trajectory,
    weights: CostWeights | None = None,
) -> VectorField:
    """w_c*U + p(0), projected divergence-free."""
    w_c = (weights or CostWeights()).control
    p0 = adjoint_traj.initial.p
    return leray_project(
        VectorField(U.grid, w_c * U.u_x + p0.u_x, w_c * U.u_y + p0.u_y)
    )


class InitialVelocityProblem:
    """Reduced-cost oracle over the initial velocity for optimize(); the
    measurement records are transformed once, here, for every adjoint solve."""

    mode = AdjointMode.ASSIMILATION

    def __init__(self, problem: AssimilationProblem):
        self.problem = problem
        self.ref_hats = reference_transforms(
            self.mode, problem.measurements, problem.params.grid, problem.config.n_steps + 1
        )

    def cost(self, control: ControlSignal):
        if control.kind != ControlSignal.INITIAL:
            raise ValidationError("assimilation controls the initial velocity")
        traj = simulate(
            self.problem.initial_state(control.initial),
            None,
            self.problem.forcing,
            self.problem.params,
            self.problem.config,
            with_diagnostics=False,
        )
        return cost_da(traj, control.initial, self.problem), traj

    def gradient(self, control: ControlSignal, traj: Trajectory) -> ControlSignal:
        adj = adjoint_solve(
            traj,
            self.mode,
            self.problem.measurements,
            self.problem.params,
            self.problem.config,
            self.ref_hats,
            keep=(),  # the gradient reads p(0) only
        )
        g = reduced_gradient_da(
            control.initial, adj, self.problem.measurements.weights
        )
        return ControlSignal(ControlSignal.INITIAL, initial=g)

    def project(self, control: ControlSignal) -> ControlSignal:
        return ControlSignal(
            ControlSignal.INITIAL, initial=leray_project(control.initial)
        )


def record_measurements(
    traj: Trajectory,
    weights: CostWeights,
    noise_level: float = 0.0,
    rng: np.random.Generator | None = None,
) -> CostTargets:
    """Turn a trajectory into full-field measurements, optionally
    perturbed by Gaussian noise of the given relative magnitude."""
    if not 0.0 <= noise_level < np.inf:
        raise ValidationError("noise_level must be nonnegative and finite")
    if noise_level > 0.0 and rng is None:
        raise ValidationError("noisy measurements need a random generator")

    g = traj.grid

    def noisy(*parts):
        """The arrays parts plus Gaussian noise of noise_level times their joint L2 norm."""
        if noise_level == 0.0:
            return [a.copy() for a in parts]
        draws = [rng.standard_normal(g.shape) for _ in parts]
        n, gn = (np.sqrt(g.cell_area * sum(np.sum(a**2) for a in x)) for x in (parts, draws))
        s = noise_level * n / gn if gn > 0 else 0.0
        return [a + s * d for a, d in zip(parts, draws)]

    states = traj.every_node()
    u_M = [VectorField(g, *noisy(s.u.u_x, s.u.u_y)) for s in states]
    phi_M = [ScalarField(g, *noisy(s.phi.values)) for s in states]
    return CostTargets(
        u_M=u_M,
        phi_M=phi_M,
        u_M_f=u_M[-1],
        phi_M_f=phi_M[-1],
        weights=weights,
    )


def twin_experiment(
    U_true: VectorField,
    noise_level: float,
    problem_template: AssimilationProblem,
    opt_config: OptimizerConfig,
    rng: np.random.Generator | None = None,
) -> dict:
    """Generate measurements from U_true, assimilate from zero, report.

    The returned dict carries initial/final cost, their ratio, the
    relative recovery error, the recovered field, and the optimizer
    history.
    """
    tmpl = problem_template
    # the truth record lives only as long as record_measurements copies it
    measurements = record_measurements(
        simulate(tmpl.initial_state(U_true), None, tmpl.forcing, tmpl.params, tmpl.config,
                 with_diagnostics=False),
        tmpl.measurements.weights,
        noise_level,
        rng,
    )
    problem = AssimilationProblem(
        measurements=measurements,
        phi0=tmpl.phi0,
        forcing=tmpl.forcing,
        params=tmpl.params,
        config=tmpl.config,
    )
    U_rec, history = optimize(
        InitialVelocityProblem(problem), ControlSignal.zeros_initial(tmpl.params.grid), opt_config
    )

    err = (U_rec.initial - leray_project(U_true)).norm()
    scale = U_true.norm()
    return {
        "initial_cost": history[0]["cost"],
        "final_cost": history[-1]["cost"],
        "cost_ratio": history[-1]["cost"] / max(history[0]["cost"], 1e-300),
        "recovery_error": err / scale if scale > 0 else err,
        "iterations": len(history) - 1,
        "recovered": U_rec.initial,
        "history": history,
        "problem": problem,
    }
