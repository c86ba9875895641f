import tracemalloc

import numpy as np
import pytest

from chnsopt import (
    AssimilationProblem,
    ControlSignal,
    CostTargets,
    CostWeights,
    InitialVelocityProblem,
    Kernel,
    ModelParams,
    OptimizerConfig,
    Potential,
    ScalarField,
    SolverConfig,
    TorusGrid,
    ValidationError,
    VectorField,
    cost_da,
    grad,
    record_measurements,
    reduced_gradient_da,
    relative_divergence,
    simulate,
    twin_experiment,
)
from chnsopt import synth
from chnsopt.tangent_adjoint import AdjointState, Trajectory


def _measured_problem(params, phi0, cfg, U_true, weights, forcing=None):
    truth = simulate(
        FlowStateLike(params.grid, U_true, phi0), None, forcing, params, cfg,
        with_diagnostics=False,
    )
    meas = record_measurements(truth, weights)
    return (
        AssimilationProblem(
            measurements=meas, phi0=phi0, forcing=forcing, params=params, config=cfg
        ),
        truth,
    )


def FlowStateLike(grid, u, phi):
    from chnsopt import FlowState, leray_project

    return FlowState(leray_project(u), phi.copy(), 0.0)


@pytest.fixture
def phi16(g16):
    return synth.sine_scalar(g16, (1, 1), 0.1, mean=0.2)


class TestProblemSetup:
    def test_requires_terminal_measurements(self, params16, phi16):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        with pytest.raises(ValidationError):
            AssimilationProblem(
                measurements=CostTargets(),
                phi0=phi16,
                forcing=None,
                params=params16,
                config=cfg,
            )

    def test_initial_state_projects_and_copies(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        meas = CostTargets(
            u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g)
        )
        prob = AssimilationProblem(
            measurements=meas, phi0=phi16, forcing=None, params=params16, config=cfg
        )
        raw = VectorField(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        state = prob.initial_state(raw)
        assert relative_divergence(state.u) <= 1e-13
        assert state.t == 0.0
        state.phi.values[0, 0] += 1.0
        assert phi16.values[0, 0] != state.phi.values[0, 0]


class TestMeasurements:
    def test_noiseless_records_equal_the_trajectory(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        U = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=3.0)
        _, truth = _measured_problem(params16, phi16, cfg, U, CostWeights())
        meas = record_measurements(truth, CostWeights())
        assert len(meas.u_M) == len(truth)
        for n, s in enumerate(truth.states):
            assert np.array_equal(meas.u_M[n].u_x, s.u.u_x)
            assert np.array_equal(meas.phi_M[n].values, s.phi.values)
        assert np.array_equal(meas.u_M_f.u_x, truth.final.u.u_x)

    def test_noise_has_the_requested_relative_size(self, params16, phi16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        U = synth.taylor_green(g, 0.5)
        _, truth = _measured_problem(params16, phi16, cfg, U, CostWeights())
        meas = record_measurements(
            truth, CostWeights(), noise_level=0.05, rng=np.random.default_rng(7)
        )
        for n in (0, 3):
            diff = meas.u_M[n] - truth.states[n].u
            assert diff.norm() / truth.states[n].u.norm() == pytest.approx(
                0.05, rel=1e-12
            )

    def test_noise_is_reproducible_by_seed(self, params16, phi16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        U = synth.taylor_green(g, 0.5)
        _, truth = _measured_problem(params16, phi16, cfg, U, CostWeights())
        a = record_measurements(
            truth, CostWeights(), noise_level=0.05, rng=np.random.default_rng(11)
        )
        b = record_measurements(
            truth, CostWeights(), noise_level=0.05, rng=np.random.default_rng(11)
        )
        assert np.array_equal(a.u_M[2].u_x, b.u_M[2].u_x)
        assert np.array_equal(a.phi_M[2].values, b.phi_M[2].values)

    def test_noise_without_rng_rejected(self, params16, phi16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        U = synth.taylor_green(g, 0.5)
        _, truth = _measured_problem(params16, phi16, cfg, U, CostWeights())
        with pytest.raises(ValidationError):
            record_measurements(truth, CostWeights(), noise_level=0.05)
        with pytest.raises(ValidationError):
            record_measurements(truth, CostWeights(), noise_level=-1.0)


class TestCostAndGradient:
    def test_cost_at_truth_is_pure_tikhonov(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        U = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=3.0)
        weights = CostWeights(control=1e-3)
        prob, truth = _measured_problem(params16, phi16, cfg, U, weights)
        got = cost_da(truth, truth.states[0].u, prob)
        expect = 0.5 * 1e-3 * truth.states[0].u.dot(truth.states[0].u)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_gradient_at_truth_is_tikhonov_only(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        U = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=3.0)
        weights = CostWeights(control=0.25)
        prob, truth = _measured_problem(params16, phi16, cfg, U, weights)
        reduced = InitialVelocityProblem(prob)
        ctrl = ControlSignal(ControlSignal.INITIAL, initial=truth.states[0].u)
        J, traj = reduced.cost(ctrl)
        G = reduced.gradient(ctrl, traj)
        # matched measurements kill the adjoint, leaving w_c * U
        assert np.allclose(
            G.initial.u_x, 0.25 * truth.states[0].u.u_x, atol=1e-13
        )

    def test_gradient_assembly_projects(self, g16, rng):
        p = synth.random_divfree_velocity(g16, rng, amplitude=0.3, k_cut=3.0)
        adj = Trajectory(
            states=[AdjointState(p, ScalarField.zeros(g16), 0.0)], dt=1e-3
        )
        gradient_part = grad(ScalarField(g16, np.sin(g16.X)))
        U = synth.random_divfree_velocity(g16, rng, amplitude=0.5, k_cut=3.0)
        noisy_U = U + gradient_part
        G = reduced_gradient_da(noisy_U, adj, CostWeights(control=2.0))
        assert relative_divergence(G) <= 1e-13
        assert np.allclose(G.u_x, 2.0 * U.u_x + p.u_x, atol=1e-12)

    def test_gradient_matches_central_difference(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        U_true = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=3.0)
        weights = CostWeights(control=1e-2)
        prob, _ = _measured_problem(params16, phi16, cfg, U_true, weights)
        reduced = InitialVelocityProblem(prob)
        U = synth.taylor_green(g, 0.3)
        V = synth.single_mode_velocity(g, (1, 1), 1.0)
        ctrl = ControlSignal(ControlSignal.INITIAL, initial=U)
        J, traj = reduced.cost(ctrl)
        G = reduced.gradient(ctrl, traj)
        h = 1e-4
        Jp, _ = reduced.cost(ControlSignal(ControlSignal.INITIAL, initial=U + V * h))
        Jm, _ = reduced.cost(
            ControlSignal(ControlSignal.INITIAL, initial=U + V * (-h))
        )
        fd = (Jp - Jm) / (2.0 * h)
        assert G.initial.dot(V) == pytest.approx(fd, rel=1e-2)

    def test_reduced_problem_rejects_distributed_controls(self, params16, phi16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        meas = CostTargets(u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g))
        prob = AssimilationProblem(
            measurements=meas, phi0=phi16, forcing=None, params=params16, config=cfg
        )
        reduced = InitialVelocityProblem(prob)
        with pytest.raises(ValidationError):
            reduced.cost(ControlSignal.zeros_distributed(g, 6, 1e-3))

    def test_projection_step_removes_gradients(self, params16, phi16, g16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        meas = CostTargets(
            u_M_f=VectorField.zeros(g16), phi_M_f=ScalarField.zeros(g16)
        )
        prob = AssimilationProblem(
            measurements=meas, phi0=phi16, forcing=None, params=params16, config=cfg
        )
        reduced = InitialVelocityProblem(prob)
        pure_gradient = grad(ScalarField(g16, np.sin(g16.X)))
        out = reduced.project(
            ControlSignal(ControlSignal.INITIAL, initial=pure_gradient)
        )
        assert out.initial.norm() <= 1e-13


class TestTwinExperiment:
    def test_noiseless_twin_recovers_the_truth(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.05, nu=0.1)
        U_true = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=2.0)
        weights = CostWeights(control=1e-3)
        meas_stub = CostTargets(
            u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g), weights=weights
        )
        template = AssimilationProblem(
            measurements=meas_stub, phi0=phi16, forcing=None,
            params=params16, config=cfg,
        )
        opt = OptimizerConfig(max_iters=200, grad_tol=1e-7, step0=1.0)
        report = twin_experiment(U_true, 0.0, template, opt)
        assert report["recovery_error"] <= 0.05
        assert report["cost_ratio"] <= 0.05
        assert report["iterations"] <= 200
        costs = [row["cost"] for row in report["history"]]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert relative_divergence(report["recovered"]) <= 1e-12

    def test_noisy_twin_still_improves(self, params16, phi16, rng):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.02, nu=0.1)
        U_true = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=2.0)
        weights = CostWeights(control=1e-3)
        meas_stub = CostTargets(
            u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g), weights=weights
        )
        template = AssimilationProblem(
            measurements=meas_stub, phi0=phi16, forcing=None,
            params=params16, config=cfg,
        )
        opt = OptimizerConfig(max_iters=30, grad_tol=1e-6, step0=1.0)
        report = twin_experiment(
            U_true, 0.02, template, opt, rng=np.random.default_rng(5)
        )
        assert report["final_cost"] < report["initial_cost"]
        assert report["recovery_error"] <= 0.2


class TestTwinMemory:
    def test_peak_grows_by_at_most_three_and_a_half_states_per_node(self):
        """Tooling: twin_experiment holds the measurements, their transforms
        and one forward record at a time, and its gradient only p(0) of
        the adjoint; the truth record goes once measured.  Its tracemalloc
        peak then grows by 3.14 states per node at 32^2 (5.2 while the
        truth, a rejected trial and a full adjoint record stayed alive)."""
        g = TorusGrid(32, 32, 2.0 * np.pi, 2.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
        U_true = synth.random_divfree_velocity(g, np.random.default_rng(42), 0.5, 2.0)
        stub = CostTargets(
            u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g),
            weights=CostWeights(control=1e-3),
        )
        opt = OptimizerConfig(max_iters=1, grad_tol=1e-12, step0=1.0)

        def peak(n_steps):
            cfg = SolverConfig(dt=1e-3, T=n_steps * 1e-3, nu=0.1)
            phi0 = synth.sine_scalar(g, (1, 1), 0.1, mean=0.2)
            template = AssimilationProblem(stub, phi0, None, params, cfg)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                twin_experiment(U_true, 0.0, template, opt)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        peak(4)  # first-call caches stay out of the peaks
        one_state = 3 * g.n_points * 8
        assert (peak(60) - peak(20)) / 40 <= 3.5 * one_state
