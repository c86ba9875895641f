import tracemalloc
import weakref

import numpy as np
import pytest

from chnsopt import (
    AdjointMode,
    AdjointState,
    AssimilationProblem,
    Trajectory,
    ControlSignal,
    CostTargets,
    CostWeights,
    DistributedControlProblem,
    FlowState,
    InitialVelocityProblem,
    LineSearchStallError,
    OptimizerConfig,
    ScalarField,
    SolverConfig,
    TorusGrid,
    ValidationError,
    VectorField,
    adjoint_solve,
    build_trial_controls,
    cost_da,
    cost_ocp,
    curl2d,
    directional_derivative,
    duality_gap,
    ekeland_metric,
    energy_identity_residual,
    grad_norm,
    hamiltonian,
    leray_project,
    minimum_principle_residual,
    observed_orders,
    optimize,
    record_measurements,
    reduced_gradient_ocp,
    simulate,
    solve_ocp,
    spike_limit_reference,
    spike_variation,
    sup_state_difference,
    tangent_solve,
    taylor_remainders,
)
from chnsopt import grid as grid_module
from chnsopt import synth
from chnsopt.control import _memoryless_bfgs, _trapz_weights
from chnsopt.tangent_adjoint import tracking_cost


def _const_signal(grid, n_nodes, dt, amp=1.0, mode=(1, 0)):
    return ControlSignal.constant(
        synth.single_mode_velocity(grid, mode, amp), n_nodes, dt
    )


class TestControlSignal:
    def test_constant_signal_norm_matches_closed_form(self, g16):
        # trapezoidal weights sum to T, so the norm is |W| sqrt(T)
        W = synth.single_mode_velocity(g16, (1, 0), 0.7)
        U = ControlSignal.constant(W, 21, 1e-3)
        assert U.norm() == pytest.approx(W.norm() * np.sqrt(0.02), rel=1e-13)

    def test_inner_product_of_constants(self, g16):
        a = synth.single_mode_velocity(g16, (1, 0), 0.5)
        b = synth.single_mode_velocity(g16, (1, 0), 2.0)
        Ua = ControlSignal.constant(a, 11, 1e-2)
        Ub = ControlSignal.constant(b, 11, 1e-2)
        assert Ua.inner(Ub) == pytest.approx(0.1 * a.dot(b), rel=1e-13)

    def test_axpy_and_scaled(self, g16):
        a = synth.single_mode_velocity(g16, (1, 0), 1.0)
        b = synth.single_mode_velocity(g16, (0, 1), 1.0)
        Ua = ControlSignal.constant(a, 3, 1e-2)
        Ub = ControlSignal.constant(b, 3, 1e-2)
        both = Ua.axpy(-2.0, Ub)
        assert np.allclose(
            both.at_node(1).u_y, a.u_y - 2.0 * b.u_y, atol=1e-15
        )
        assert np.allclose(Ua.scaled(0.25).at_node(2).u_y, 0.25 * a.u_y, atol=1e-15)

    def test_ball_projection(self, g16):
        U = _const_signal(g16, 11, 1e-2, amp=3.0)
        r = 0.5 * U.norm()
        assert U.ball_projected(r).norm() == pytest.approx(r, rel=1e-12)
        assert U.ball_projected(2.0 * U.norm()) is U
        assert U.ball_projected(np.inf) is U

    def test_times_and_zero_constructors(self, g16):
        Z = ControlSignal.zeros_distributed(g16, 4, 0.25)
        assert np.allclose(Z.times, [0.0, 0.25, 0.5, 0.75])
        assert Z.norm() == 0.0
        assert ControlSignal.zeros_initial(g16).norm() == 0.0

    def test_initial_kind_has_no_time_grid(self, g16):
        v = synth.single_mode_velocity(g16, (1, 0), 1.0)
        U = ControlSignal(ControlSignal.INITIAL, initial=v)
        assert U.norm() == pytest.approx(v.norm(), rel=1e-14)
        with pytest.raises(ValidationError):
            U.at_node(0)
        with pytest.raises(ValidationError):
            U.n_nodes

    def test_validation(self, g16):
        v = synth.single_mode_velocity(g16, (1, 0), 1.0)
        with pytest.raises(ValidationError):
            ControlSignal(ControlSignal.DISTRIBUTED, fields=[v], dt=1e-3)
        with pytest.raises(ValidationError):
            ControlSignal(ControlSignal.DISTRIBUTED, fields=[v, v], dt=0.0)
        with pytest.raises(ValidationError):
            ControlSignal(ControlSignal.INITIAL)
        with pytest.raises(ValidationError):
            ControlSignal("weird", fields=[v, v], dt=1e-3)
        a = ControlSignal.constant(v, 3, 1e-3)
        b = ControlSignal.constant(v, 4, 1e-3)
        with pytest.raises(ValidationError):
            a.inner(b)
        with pytest.raises(ValidationError):
            a.inner(ControlSignal(ControlSignal.INITIAL, initial=v))


@pytest.mark.parametrize("make", [
    pytest.param(lambda g: ControlSignal(ControlSignal.INITIAL, initial=np.zeros(g.shape)),
                 id="initial-from-ndarray"),
    pytest.param(lambda g: ControlSignal(
        ControlSignal.DISTRIBUTED, fields=[ScalarField.zeros(g)] * 3, dt=1e-3),
                 id="distributed-from-scalar-fields"),
    pytest.param(lambda g: TorusGrid(8.0, 8), id="float-grid-resolution"),
    pytest.param(lambda g: OptimizerConfig(max_iters=True), id="bool-max-iters"),
])
def test_constructors_refuse_bad_arguments_with_validation_error(make, g16):
    with pytest.raises(ValidationError):
        make(g16)


class TestCost:
    def test_control_energy_only(self, params16):
        # zero out the tracking weights; the cost is (T/2)|W|^2 exactly
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        eq = FlowState(VectorField.zeros(g), ScalarField.constant(g, 0.2), 0.0)
        traj = simulate(eq, None, None, params16, cfg, with_diagnostics=False)
        W = synth.single_mode_velocity(g, (1, 0), 0.8)
        U = ControlSignal.constant(W, len(traj), cfg.dt)
        weights = CostWeights(track_u=0.0, track_phi=0.0, final_u=0.0, final_phi=0.0)
        targets = CostTargets(
            phi_d=eq.phi, phi_f=eq.phi, u_f=None, weights=weights
        )
        got = cost_ocp(traj, U, targets)
        assert got == pytest.approx(0.5 * 0.01 * W.dot(W), rel=1e-13)

    def test_matches_independent_quadrature(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        traj = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        g = params16.grid
        U = _const_signal(g, len(traj), cfg.dt, amp=0.3)
        w = CostWeights(track_u=2.0, track_phi=0.5, final_u=3.0, final_phi=0.7, control=1.5)
        targets = CostTargets(weights=w)
        node_vals = np.array(
            [
                0.5 * (
                    w.track_u * grad_norm(s.u) ** 2
                    + w.track_phi * g.inner(s.phi.values, s.phi.values)
                    + w.control * U.at_node(n).dot(U.at_node(n))
                )
                for n, s in enumerate(traj.states)
            ]
        )
        expect = float(np.trapezoid(node_vals, dx=cfg.dt))
        last = traj.final
        expect += 0.5 * w.final_u * last.u.dot(last.u)
        expect += 0.5 * w.final_phi * g.inner(last.phi.values, last.phi.values)
        assert cost_ocp(traj, U, targets) == pytest.approx(expect, rel=1e-12)

    def test_mismatched_control_rejected(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        traj = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        U = ControlSignal.zeros_distributed(params16.grid, len(traj) + 1, cfg.dt)
        with pytest.raises(ValidationError):
            cost_ocp(traj, U, CostTargets())


class TestReducedGradient:
    def test_exact_assembly(self, g16):
        dt = 1e-3
        n = 4
        U = _const_signal(g16, n, dt, amp=0.5, mode=(1, 0))
        p = synth.single_mode_velocity(g16, (0, 1), 0.3)
        adj = Trajectory(
            states=[
                AdjointState(p * float(k), ScalarField.zeros(g16), k * dt)
                for k in range(n)
            ],
            dt=dt,
        )
        G = reduced_gradient_ocp(U, adj, CostWeights(control=2.0))
        for k in range(n):
            expect_x = 2.0 * U.at_node(k).u_x + k * p.u_x
            assert np.allclose(G.at_node(k).u_x, expect_x, atol=1e-15), k

    def test_time_grid_mismatch_rejected(self, g16):
        U = _const_signal(g16, 4, 1e-3)
        adj = Trajectory(
            states=[
                AdjointState(VectorField.zeros(g16), ScalarField.zeros(g16), 0.0)
            ]
            * 3,
            dt=1e-3,
        )
        with pytest.raises(ValidationError):
            reduced_gradient_ocp(U, adj)


class _Quadratic:
    """cost(U) = 0.5 |U - target|^2 in the control norm."""

    def __init__(self, target, sign=1.0):
        self.target = target
        self.sign = sign

    def cost(self, U):
        d = U.axpy(-1.0, self.target)
        return 0.5 * d.norm() ** 2, None

    def gradient(self, U, aux):
        return U.axpy(-1.0, self.target).scaled(self.sign)

    def project(self, U):
        return U


class TestOptimizer:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(step0=0.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(armijo_c=1.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(armijo_shrink=0.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(grad_tol=0.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(max_iters=-1)
        with pytest.raises(ValidationError):
            OptimizerConfig(radius=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda traj: CostWeights(track_u=np.nan),
            lambda traj: SolverConfig(dt=1e-3, T=1e-2, nu=0.1, stabilization=np.nan),
            lambda traj: record_measurements(traj, CostWeights(), noise_level=np.nan),
            lambda traj: record_measurements(
                traj, CostWeights(), np.nan, np.random.default_rng(0)
            ),
            lambda traj: OptimizerConfig(step0=np.inf),
            lambda traj: OptimizerConfig(max_iters=np.nan),
            lambda traj: OptimizerConfig(max_iters=2.5),
        ],
        ids=[
            "nan-weight", "nan-stabilization", "nan-noise", "nan-noise-with-rng",
            "infinite-step0", "nan-max-iters", "fractional-max-iters",
        ],
    )
    def test_non_finite_and_non_integer_inputs_rejected(self, make, smooth_state16):
        with pytest.raises(ValidationError):
            make(Trajectory(states=[smooth_state16], dt=1e-3))

    @pytest.mark.parametrize(
        "make",
        [
            lambda traj: SolverConfig(dt=1e-3, T=1e-2, nu=np.inf),
            lambda traj: SolverConfig(dt=1e-3, T=1e-2, nu=0.1, stabilization=np.inf),
            lambda traj: SolverConfig(dt=1e-3, T=np.inf, nu=0.1),
            lambda traj: SolverConfig(dt=np.inf, T=np.inf, nu=0.1),
            lambda traj: CostWeights(track_u=np.inf),
            lambda traj: CostWeights(final_phi=np.inf),
            lambda traj: CostWeights(control=np.inf),
            lambda traj: TorusGrid(8, 8, np.inf, 1.0),
            lambda traj: TorusGrid(8, 8, 1.0, np.inf),
            lambda traj: record_measurements(
                traj, CostWeights(), np.inf, np.random.default_rng(0)
            ),
            lambda traj: ControlSignal.constant(traj.initial.u, 3, np.inf),
            lambda traj: OptimizerConfig(grad_tol=np.inf),
        ],
        ids=[
            "infinite-nu", "infinite-stabilization", "infinite-T", "infinite-dt-and-T",
            "infinite-track-u", "infinite-final-phi", "infinite-control-weight",
            "infinite-l-x", "infinite-l-y", "infinite-noise", "infinite-control-dt",
            "infinite-grad-tol",
        ],
    )
    def test_infinite_inputs_rejected(self, make, smooth_state16):
        """Large finite values stay legal; an infinite one fails at once
        rather than as NaN coordinates or a NaN step later."""
        with pytest.raises(ValidationError):
            make(Trajectory(states=[smooth_state16], dt=1e-3))

    def test_quadratic_converges_in_one_unit_step(self, g16):
        target = _const_signal(g16, 5, 1e-2, amp=1.3)
        prob = _Quadratic(target)
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        U, hist = optimize(prob, U0, OptimizerConfig(step0=1.0, grad_tol=1e-12))
        assert U.axpy(-1.0, target).norm() <= 1e-12
        assert hist[-1]["cost"] <= 1e-24

    def test_history_is_monotone(self, g16):
        target = _const_signal(g16, 5, 1e-2, amp=1.3)
        prob = _Quadratic(target)
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        U, hist = optimize(
            prob, U0, OptimizerConfig(step0=0.3, grad_tol=1e-10, max_iters=200)
        )
        costs = [row["cost"] for row in hist]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert {"iter", "cost", "grad_norm", "step", "wall_seconds"} <= set(hist[0])
        assert U.axpy(-1.0, target).norm() <= 1e-9

    def test_ascent_direction_raises(self, g16):
        target = _const_signal(g16, 5, 1e-2, amp=1.3)
        prob = _Quadratic(target, sign=-1.0)
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        with pytest.raises(LineSearchStallError):
            optimize(prob, U0, OptimizerConfig(step0=1.0))

    @pytest.mark.parametrize("ratio", [0.99, 1.01], ids=["below", "above"])
    def test_a_flat_cost_ends_normally_only_when_stationary_to_float64(self, g16, ratio):
        """A scripted oracle whose cost cannot fall: every trial reads one
        ulp above the start, so every line search exhausts its 40 shrinks.  At a relative gradient norm
        |G| / max(1, |U|) just below 1.5e-8 (about the square root of
        float64's epsilon) the run ends normally at U0, its history the
        one row of iteration 0: the cost, |G| and step 0.  Just above, it
        raises LineSearchStallError."""
        U0 = _const_signal(g16, 5, 1e-2, amp=3.0)
        G = _const_signal(g16, 5, 1e-2, mode=(1, 1))
        G = G.scaled(ratio * 1.5e-8 * U0.norm() / G.norm())
        assert U0.norm() > 1.0
        costs = []

        class Flat:
            def cost(self, U):
                costs.append(U)
                return (2.0 if len(costs) == 1 else np.nextafter(2.0, 3.0)), None

            def gradient(self, U, aux):
                return G

            def project(self, U):
                return U

        opt = OptimizerConfig(step0=1.0, grad_tol=1e-12)
        if ratio > 1.0:
            with pytest.raises(LineSearchStallError, match="stalled at iteration 0"):
                optimize(Flat(), U0, opt)
        else:
            U, hist = optimize(Flat(), U0, opt)
            assert np.array_equal(U.data, U0.data)
            assert [{k: row[k] for k in ("iter", "cost", "grad_norm", "step")}
                    for row in hist] == [{"iter": 0, "cost": 2.0, "grad_norm": G.norm(), "step": 0.0}]
        assert len(costs) == 41  # the start, then 40 rejected trials

    def test_binding_norm_ball(self, g16):
        # the unconstrained optimum sits outside the ball, so the run
        # must settle on the boundary point along the target
        target = _const_signal(g16, 5, 1e-2, amp=1.3)
        r = 0.5 * target.norm()
        prob = _Quadratic(target)
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        U, hist = optimize(
            prob, U0, OptimizerConfig(step0=1.0, max_iters=30, radius=r)
        )
        assert U.norm() == pytest.approx(r, rel=1e-10)
        assert prob.cost(U)[0] == pytest.approx(
            0.5 * (target.norm() - r) ** 2, rel=1e-9
        )

    def test_zero_iteration_budget_returns_start(self, g16):
        target = _const_signal(g16, 5, 1e-2, amp=1.3)
        prob = _Quadratic(target)
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        U, hist = optimize(prob, U0, OptimizerConfig(max_iters=0))
        assert U.norm() == 0.0
        assert len(hist) == 1


class _DiagonalQuadratic:
    """cost(U) = 0.5 <U - target, D (U - target)> in the control inner
    product, with D the pointwise multiplier ``scale``; every call is
    logged as ("cost" or "gradient", U)."""

    def __init__(self, target, scale):
        self.target = target
        self.scale = scale
        self.calls = []

    def _residual(self, U):
        d = U.axpy(-1.0, self.target)
        return d, d._with(self.scale * d.data)

    def cost(self, U):
        self.calls.append(("cost", U))
        d, Dd = self._residual(U)
        return 0.5 * d.inner(Dd), None

    def gradient(self, U, aux):
        self.calls.append(("gradient", U))
        return self._residual(U)[1]

    def project(self, U):
        return U


def _random_signal(grid, rng, n_nodes=5, dt=1e-2):
    Z = ControlSignal.zeros_distributed(grid, n_nodes, dt)
    return Z._with(rng.standard_normal(Z.data.shape))


def _ill_conditioned(grid, rng, kappa=100.0):
    """A diagonal quadratic whose multipliers span [1, kappa] geometrically,
    with a random target."""
    target = _random_signal(grid, rng)
    scale = np.geomspace(1.0, kappa, target.data.size).reshape(target.data.shape)
    return _DiagonalQuadratic(target, scale)


class TestMemorylessBFGS:
    def _curved_pair(self, grid, rng):
        s = _random_signal(grid, rng)
        y = s._with(np.geomspace(1.0, 10.0, s.data.size).reshape(s.data.shape) * s.data)
        assert s.inner(y) > 0.0
        return s, y

    def test_secant_condition(self, g16, rng):
        # H y = s: with G = y the direction is -s
        s, y = self._curved_pair(g16, rng)
        d = _memoryless_bfgs(y.copy(), s.copy(), y.copy())
        assert d.axpy(1.0, s).norm() <= 1e-12 * s.norm()

    def test_direction_descends_when_a_pair_is_used(self, g16, rng):
        for _ in range(5):
            s, y = self._curved_pair(g16, rng)
            y = y.axpy(0.3, _random_signal(g16, rng))  # curvature stays positive
            assert s.inner(y) > 1e-12 * s.norm() * y.norm()
            G = _random_signal(g16, rng)
            d = _memoryless_bfgs(G, s, y)
            assert G.inner(d) < 0.0
            assert d.axpy(1.0, G).norm() > 1e-3 * G.norm()  # not the plain -G

    def test_pair_without_curvature_gives_the_gradient_step(self, g16, rng):
        G = _random_signal(g16, rng)
        s = _const_signal(g16, 5, 1e-2, amp=1.0, mode=(1, 0))
        orthogonal = s._with(s.data[:, ::-1].copy())  # (u_x, u_y) swapped
        assert abs(s.inner(orthogonal)) <= 1e-12 * s.norm() * orthogonal.norm()
        for y in (s.scaled(-2.0), orthogonal):
            d = _memoryless_bfgs(G, s.copy(), y.copy())
            assert np.array_equal(d.data, -G.data)

    def test_binding_ball_drops_the_pair(self, g16, rng):
        prob = _ill_conditioned(g16, rng)
        r = 0.5 * prob.target.norm()
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        opt = OptimizerConfig(step0=1.0, max_iters=2, radius=r)
        _, hist = optimize(prob, U0, opt)
        grads = [i for i, (kind, _) in enumerate(prob.calls) if kind == "gradient"]
        U1 = prob.calls[grads[1]][1]
        assert U1.norm() == pytest.approx(r, rel=1e-12)  # the ball moved it
        trial = next(U for kind, U in prob.calls[grads[1]:] if kind == "cost")
        G0, G1 = prob.gradient(U0, None), prob.gradient(U1, None)
        step = hist[1]["step"] / opt.armijo_shrink
        gradient_trial = U1.axpy(-step, G1).ball_projected(r)
        assert trial.axpy(-1.0, gradient_trial).norm() <= 1e-12 * r
        # the pair would have moved the trial elsewhere
        d = _memoryless_bfgs(G1, U1.axpy(-1.0, U0), G1.axpy(-1.0, G0))
        pair_trial = U1.axpy(step, d).ball_projected(r)
        assert trial.axpy(-1.0, pair_trial).norm() > 1e-3 * r

    def test_trial_bent_uphill_by_the_ball_is_rejected(self, g16):
        # In the plane of two orthonormal constant signals: the first step
        # (-G0 = s) lands inside the unit ball, so the pair is kept; the
        # quasi-Newton trial at the warm-started step 2 leaves the ball,
        # and its projection moves along +G1.  The scripted cost does not
        # fall on the sphere, so only interior trials may be accepted.
        Z = ControlSignal.zeros_initial(g16)

        def point(x, y):
            data = np.zeros_like(Z.data)
            data[0, 0], data[0, 1] = x / (2.0 * np.pi), y / (2.0 * np.pi)
            return Z._with(data)

        U1, s = point(0.026, -0.957), point(0.888, -0.754)
        gradients = iter([s.scaled(-1.0), point(-0.04, 1.384)])
        costs = iter([1.0, 0.5])

        class Scripted:
            def cost(self, U):
                J = next(costs, None)
                if J is None:
                    J = 0.5 if U.norm() > 1.0 - 1e-9 else 0.4
                return J, None

            def gradient(self, U, aux):
                return next(gradients)

            def project(self, U):
                return U

        U, hist = optimize(
            Scripted(), U1.axpy(-1.0, s), OptimizerConfig(max_iters=2, radius=1.0)
        )
        assert [row["cost"] for row in hist] == [1.0, 0.5, 0.4]
        assert hist[2]["step"] < 1.0
        assert U.norm() < 1.0

    def test_ill_conditioned_quadratic_takes_half_the_evaluations(self, g16):
        # steepest descent (d = -G, same line search) needs 1028 cost
        # evaluations on this problem to reach grad_tol
        steepest_descent_evals = 1028
        prob = _ill_conditioned(g16, np.random.default_rng(0))
        U0 = ControlSignal.zeros_distributed(g16, 5, 1e-2)
        opt = OptimizerConfig(step0=1.0, grad_tol=1e-6, max_iters=5000)
        U, hist = optimize(prob, U0, opt)
        assert hist[-1]["grad_norm"] / max(1.0, U.norm()) <= opt.grad_tol
        evals = sum(1 for kind, _ in prob.calls if kind == "cost")
        assert evals <= steepest_descent_evals // 2


class _CountingProblem:
    """Forwards to a problem and counts its cost calls."""

    def __init__(self, problem):
        self.problem = problem
        self.cost_calls = 0

    def cost(self, U):
        self.cost_calls += 1
        return self.problem.cost(U)

    def gradient(self, U, aux):
        return self.problem.gradient(U, aux)

    def project(self, U):
        return self.problem.project(U)


def _replayed_rejections(history, opt):
    """Rejected trials read back from the history's step column: the first
    search starts at step0 and each later one a notch above the step
    accepted before it; each rejected trial shrinks the step once, and the
    shrinks must land exactly on the accepted step."""
    start, rejected = opt.step0, 0
    for row in history[1:]:
        s = start
        for _ in range(40):
            if s <= row["step"]:
                break
            s *= opt.armijo_shrink
            rejected += 1
        assert s == row["step"], row
        start = s / opt.armijo_shrink
    return rejected


class TestLineSearchReplay:
    """Cost evaluations = accepted iterations + rejected trials + 1, with
    the rejected trials replayed from the step column."""

    def _check(self, problem, U0):
        counting = _CountingProblem(problem)
        opt = OptimizerConfig(max_iters=10, grad_tol=1e-8, step0=1.0)
        U, hist = optimize(counting, U0, opt)
        iterations = len(hist) - 1
        rejected = _replayed_rejections(hist, opt)
        # every search ended in an accepted step
        stationary = hist[-1]["grad_norm"] / max(1.0, U.norm()) <= opt.grad_tol
        assert stationary or iterations == opt.max_iters
        assert rejected > 0
        assert counting.cost_calls == iterations + rejected + 1

    def test_distributed_problem(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        g = params16.grid
        U_true = _const_signal(g, cfg.n_steps + 1, cfg.dt, amp=0.2)
        truth = simulate(smooth_state16, U_true, None, params16, cfg, with_diagnostics=False)
        targets = CostTargets(
            u_d=[s.u for s in truth.states],
            phi_d=[s.phi for s in truth.states],
            u_f=truth.final.u,
            phi_f=truth.final.phi,
            weights=CostWeights(control=1e-3),
        )
        prob = DistributedControlProblem(smooth_state16, targets, None, params16, cfg)
        self._check(prob, prob.zero_control())

    def test_initial_velocity_problem(self, params16, smooth_state16, rng):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        g = params16.grid
        phi0 = smooth_state16.phi
        U_true = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=2.0)
        truth = simulate(
            FlowState(leray_project(U_true), phi0.copy(), 0.0), None, None, params16, cfg,
            with_diagnostics=False,
        )
        problem = AssimilationProblem(
            measurements=record_measurements(truth, CostWeights(control=1e-3)),
            phi0=phi0, forcing=None, params=params16, config=cfg,
        )
        self._check(InitialVelocityProblem(problem), ControlSignal.zeros_initial(g))


class _Record:
    """A stand-in for a forward record, weakly referable."""


class _RecordKeeping:
    """Forwards to a problem and hands out a fresh record with every cost;
    at each call it asserts which of its records optimize still holds:
    none when a cost is asked for, the accepted one for a gradient."""

    def __init__(self, problem):
        self.problem = problem
        self.records = []  # weak references, in the order handed out
        self.gradients = 0

    def _alive(self):
        return [r() for r in self.records if r() is not None]

    def cost(self, U):
        assert self._alive() == [], "an earlier trial's record is alive"
        J, _ = self.problem.cost(U)
        record = _Record()
        self.records.append(weakref.ref(record))
        return J, record

    def gradient(self, U, aux):
        alive = self._alive()
        assert len(alive) == 1 and alive[0] is aux, "records beside the accepted one are alive"
        self.gradients += 1
        return self.problem.gradient(U, None)

    def project(self, U):
        return self.problem.project(U)


class TestRecordLifetimes:
    def test_optimize_holds_the_accepted_record_only(self, g16):
        """A rejected trial's record is let go before the next trial's sweep,
        and the accepted one once its gradient is taken."""
        oracle = _RecordKeeping(_ill_conditioned(g16, np.random.default_rng(3)))
        opt = OptimizerConfig(max_iters=20, grad_tol=1e-10, step0=8.0)
        _, hist = optimize(oracle, _random_signal(g16, np.random.default_rng(4)), opt)
        iterations = len(hist) - 1
        assert iterations >= 3 and oracle.gradients >= iterations
        assert len(oracle.records) > iterations + 1  # some trials were rejected


class _SignalKeeping:
    """The diagonal quadratic of _ill_conditioned with its target and
    multipliers held as bare arrays.  Every ControlSignal made through
    ControlSignal._with while it is installed, and every control it is
    asked about, is watched by weak reference; each call records how many
    are still alive, and whether the first control it was asked about
    is."""

    def __init__(self, grid, monkeypatch):
        q = _ill_conditioned(grid, np.random.default_rng(3))
        self.target, self.scale = q.target.data, q.scale
        self.alive = weakref.WeakSet()
        self.at_cost, self.at_gradient, self.first_alive = [], [], []
        self.first = None
        made = ControlSignal._with

        def watched(signal, data):
            out = made(signal, data)
            self.alive.add(out)
            return out

        monkeypatch.setattr(ControlSignal, "_with", watched)

    def _count(self, U):
        self.alive.add(U)
        if self.first is None:
            self.first = weakref.ref(U)
        return len(self.alive)

    def cost(self, U):
        self.at_cost.append(self._count(U))
        r = U.data - self.target
        return 0.5 * U._with(r).inner(U._with(self.scale * r)), None

    def gradient(self, U, aux):
        self.at_gradient.append(self._count(U))
        self.first_alive.append(self.first() is not None)
        return U._with(self.scale * (U.data - self.target))

    def project(self, U):
        return U


class TestSignalLifetimes:
    """optimize holds only the control signals its next step reads: U, G,
    the direction d and the trial when a cost is asked for, U, s and the
    old gradient when a gradient is; a guess the caller does not hold is
    let go at the first accepted step."""

    # the unconstrained optimum, the target, has norm 1.76
    @pytest.mark.parametrize("radius", [np.inf, 1.0], ids=["no-ball", "binding-ball"])
    def test_four_signals_meet_a_cost_and_three_a_gradient(self, g16, monkeypatch, radius):
        oracle = _SignalKeeping(g16, monkeypatch)
        opt = OptimizerConfig(max_iters=12, grad_tol=1e-10, step0=8.0, radius=radius)
        _, hist = optimize(oracle, ControlSignal.zeros_distributed(g16, 5, 1e-2), opt)
        assert len(hist) - 1 >= 4
        assert len(oracle.at_cost) > len(hist)  # some trials were rejected
        assert max(oracle.at_cost) == 4, oracle.at_cost
        assert max(oracle.at_gradient) <= 3, oracle.at_gradient

    def test_a_guess_passed_inline_dies_at_the_first_accepted_step(self, g16, monkeypatch):
        oracle = _SignalKeeping(g16, monkeypatch)
        opt = OptimizerConfig(max_iters=4, grad_tol=1e-10, step0=8.0)
        _, hist = optimize(oracle, ControlSignal.zeros_distributed(g16, 5, 1e-2), opt)
        assert len(hist) - 1 == 4
        assert oracle.first_alive == [True, False, False, False]

    def test_solve_ocps_peak_memory_slope(self, params32):
        """Tooling: solve_ocp's tracemalloc peak grows by 4.82 states per
        node at 32^2: a forward record, the reference transforms (1.06)
        and four control signals of 2/3 of a state each.  The bound lets no
        fifth signal in (about 5.5); seven read 6.74."""
        g = params32.grid
        initial = FlowState(
            synth.taylor_green(g, 0.5), synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), 0.0
        )
        opt = OptimizerConfig(max_iters=4, grad_tol=1e-10)

        def peak(n_steps):
            cfg = SolverConfig(dt=1e-3, T=n_steps * 1e-3, nu=0.1)
            truth = simulate(initial, _const_signal(g, n_steps + 1, cfg.dt, amp=0.2), None,
                             params32, cfg, with_diagnostics=False)
            targets = CostTargets(
                u_d=[s.u for s in truth.states], phi_d=[s.phi for s in truth.states],
                u_f=truth.final.u, phi_f=truth.final.phi, weights=CostWeights(control=1e-3),
            )
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _, hist, _ = solve_ocp(initial, targets, None, params32, cfg, opt)
                assert len(hist) - 1 == opt.max_iters
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        peak(4)  # first-call caches stay out of the peaks
        one_state = 3 * g.n_x * g.n_y * 8
        assert (peak(60) - peak(20)) / (40 * one_state) <= 5.25


class TestSpikeVariation:
    def test_window_nodes_on_grid(self, g16):
        dt = 1e-3
        U = ControlSignal.zeros_distributed(g16, 21, dt)
        W = synth.single_mode_velocity(g16, (1, 0), 1.0)
        spiked = spike_variation(U, 10 * dt, 3 * dt, W)
        hit = [n for n in range(21) if spiked.at_node(n).norm() > 0.0]
        assert hit == [8, 9, 10]

    def test_window_nodes_off_grid(self, g16):
        dt = 1e-3
        U = ControlSignal.zeros_distributed(g16, 21, dt)
        W = synth.single_mode_velocity(g16, (1, 0), 1.0)
        spiked = spike_variation(U, 9.5 * dt, 2 * dt, W)
        hit = [n for n in range(21) if spiked.at_node(n).norm() > 0.0]
        assert hit == [8, 9]

    def test_validation(self, g16):
        dt = 1e-3
        U = ControlSignal.zeros_distributed(g16, 21, dt)
        W = synth.single_mode_velocity(g16, (1, 0), 1.0)
        with pytest.raises(ValidationError):
            spike_variation(U, 2 * dt, 3 * dt, W)  # h > tau
        with pytest.raises(ValidationError):
            spike_variation(U, 25 * dt, dt, W)  # tau > T
        with pytest.raises(ValidationError):
            spike_variation(
                ControlSignal(ControlSignal.INITIAL, initial=W), dt, dt, W
            )


class TestEkelandMetric:
    def test_spike_distance_equals_window_length(self, g16):
        dt = 1e-3
        U = ControlSignal.zeros_distributed(g16, 21, dt)
        W = synth.single_mode_velocity(g16, (1, 0), 1.0)
        spiked = spike_variation(U, 10 * dt, 4 * dt, W)
        assert ekeland_metric(U, spiked) == pytest.approx(4 * dt, abs=0.0)
        assert ekeland_metric(spiked, U) == pytest.approx(4 * dt, abs=0.0)

    def test_identical_controls_have_zero_distance(self, g16):
        U = _const_signal(g16, 11, 1e-3, amp=0.4)
        assert ekeland_metric(U, U.copy()) == 0.0

    def test_kind_mismatch_rejected(self, g16):
        U = _const_signal(g16, 11, 1e-3)
        W = ControlSignal.zeros_initial(g16)
        with pytest.raises(ValidationError):
            ekeland_metric(U, W)


class TestHamiltonian:
    def test_quadratic_identity_in_the_control_slot(
        self, params16, smooth_state16, rng
    ):
        # H(W) - H(-p/w_c) = (w_c/2) |W + p/w_c|^2 for any W
        g = params16.grid
        p = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=4.0)
        eta = ScalarField(g, synth.random_scalar(g, rng, amplitude=0.3, k_cut=4.0).values)
        adj = AdjointState(p, eta, 0.0)
        w_c = 2.0
        targets = CostTargets(weights=CostWeights(control=w_c))
        minimizer = p * (-1.0 / w_c)
        H_min = hamiltonian(
            smooth_state16, minimizer, adj, targets, params16, nu=0.1
        )
        for k in range(3):
            W = synth.random_divfree_velocity(g, rng, amplitude=0.8, k_cut=4.0)
            H_W = hamiltonian(smooth_state16, W, adj, targets, params16, nu=0.1)
            step = W + p * (1.0 / w_c)
            expect = 0.5 * w_c * step.dot(step)
            assert H_W - H_min == pytest.approx(expect, rel=1e-9, abs=1e-11), k

    def test_node_indexed_targets_are_read(self, params16, smooth_state16):
        g = params16.grid
        refs = [smooth_state16.u * float(k) for k in range(4)]
        targets = CostTargets(u_d=refs)
        adj = AdjointState(VectorField.zeros(g), ScalarField.zeros(g), 0.0)
        W = VectorField.zeros(g)
        vals = [
            hamiltonian(smooth_state16, W, adj, targets, params16, nu=0.1, node=k)
            for k in (0, 1, 2)
        ]
        # node 1 reference matches the state, so its tracking term vanishes
        assert vals[1] < vals[0]
        assert vals[1] < vals[2]

    def test_no_control_reads_as_the_zero_field(self, params16, smooth_state16, rng):
        g = params16.grid
        p = synth.random_divfree_velocity(g, rng, amplitude=0.5, k_cut=4.0)
        adj = AdjointState(p, synth.random_scalar(g, rng, amplitude=0.3, k_cut=4.0), 0.0)
        targets = CostTargets(u_d=smooth_state16.u * 0.5, weights=CostWeights(control=2.0))
        args = (adj, targets, params16, 0.1)
        H_none = hamiltonian(smooth_state16, None, *args)
        assert H_none == hamiltonian(smooth_state16, VectorField.zeros(g), *args)


class TestMinimumPrinciple:
    def _adjoint_of(self, p, n_nodes, dt):
        return Trajectory(
            states=[
                AdjointState(p.copy(), ScalarField.zeros(p.grid), k * dt)
                for k in range(n_nodes)
            ],
            dt=dt,
        )

    def test_zero_adjoint_residual_is_half_control_energy(self, g16, rng):
        dt = 1e-3
        U = _const_signal(g16, 6, dt, amp=0.3)
        adj = self._adjoint_of(VectorField.zeros(g16), 6, dt)
        trials = build_trial_controls(U, adj, rng)
        res = minimum_principle_residual(U, adj, trials)
        Un = U.at_node(0)
        assert np.allclose(res, 0.5 * Un.dot(Un), rtol=1e-12)

    def test_perturbed_minimizer_residual_is_half_error_energy(self, g16, rng):
        dt = 1e-3
        p = synth.single_mode_velocity(g16, (1, 0), 0.6)
        e = synth.single_mode_velocity(g16, (0, 1), 1e-2)
        U = ControlSignal.constant(p * (-1.0) + e, 6, dt)
        adj = self._adjoint_of(p, 6, dt)
        trials = build_trial_controls(U, adj, rng)
        res = minimum_principle_residual(U, adj, trials)
        assert np.allclose(res, 0.5 * e.dot(e), rtol=1e-9)

    def test_exact_minimizer_residual_is_nonpositive(self, g16, rng):
        dt = 1e-3
        w_c = 0.5
        p = synth.single_mode_velocity(g16, (1, 0), 0.6)
        U = ControlSignal.constant(p * (-1.0 / w_c), 6, dt)
        adj = self._adjoint_of(p, 6, dt)
        weights = CostWeights(control=w_c)
        trials = build_trial_controls(U, adj, rng, weights=weights)
        res = minimum_principle_residual(U, adj, trials, weights=weights)
        assert np.max(res) <= 1e-14

    def test_trial_set_contents(self, g16, rng):
        dt = 1e-3
        U = _const_signal(g16, 6, dt, amp=0.3)
        p = synth.single_mode_velocity(g16, (1, 1), 0.4)
        adj = self._adjoint_of(p, 6, dt)
        trials = build_trial_controls(U, adj, rng, n_random_pairs=7)
        batch = trials(2)
        assert len(batch) == 16
        assert batch[0].norm() == 0.0
        assert np.allclose(batch[1].u_x, -p.u_x, atol=1e-15)
        for W in batch[2:]:
            assert W.norm() == pytest.approx(U.at_node(2).norm(), rel=1e-12)

    def test_time_grid_mismatch_rejected(self, g16, rng):
        U = _const_signal(g16, 6, 1e-3)
        adj = self._adjoint_of(VectorField.zeros(g16), 5, 1e-3)
        with pytest.raises(ValidationError):
            minimum_principle_residual(U, adj, lambda n: [])


class TestDerivatives:
    def _problem(self, params, initial, cfg):
        targets = CostTargets(weights=CostWeights(control=1e-2))
        return DistributedControlProblem(initial, targets, None, params, cfg)

    def test_directional_derivative_matches_central_difference(
        self, params16, smooth_state16
    ):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        prob = self._problem(params16, smooth_state16, cfg)
        U = prob.zero_control()
        V = _const_signal(params16.grid, cfg.n_steps + 1, cfg.dt, amp=0.5, mode=(1, 1))
        J0, base = prob.cost(U)
        dd = directional_derivative(
            base, U, V, AdjointMode.DISTRIBUTED, prob.targets, params16, cfg
        )
        h = 1e-4
        Jp, _ = prob.cost(U.axpy(h, V))
        Jm, _ = prob.cost(U.axpy(-h, V))
        fd = (Jp - Jm) / (2.0 * h)
        assert dd == pytest.approx(fd, rel=1e-5)

    def test_derivatives_see_the_nyquist_lines_as_the_cost_does(self, params16):
        # the gradient norm of the cost zeroes the derivative at the Nyquist
        # frequency, so a velocity mismatch alternating along x costs
        # nothing; its tracking source must vanish there too
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        alt = np.broadcast_to((-1.0) ** np.arange(g.n_x)[:, None], g.shape).copy()
        tg = synth.taylor_green(g, 0.5)
        initial = FlowState(
            VectorField(g, tg.u_x, tg.u_y + 0.3 * alt),
            synth.sine_scalar(g, (1, 1), 0.1, mean=0.2),
            0.0,
        )
        weights = CostWeights(track_u=1.0, track_phi=0.0, final_u=0.0, final_phi=0.0, control=0.0)
        prob = DistributedControlProblem(
            initial, CostTargets(weights=weights), None, params16, cfg
        )
        U = prob.zero_control()
        V = ControlSignal.constant(
            VectorField(g, np.zeros(g.shape), alt), cfg.n_steps + 1, cfg.dt
        )
        _, base = prob.cost(U)
        h = 1e-3
        fd = (prob.cost(U.axpy(h, V))[0] - prob.cost(U.axpy(-h, V))[0]) / (2.0 * h)
        dd = directional_derivative(
            base, U, V, AdjointMode.DISTRIBUTED, prob.targets, params16, cfg
        )
        assert dd == pytest.approx(fd, abs=1e-12)
        assert prob.gradient(U, base).inner(V) == pytest.approx(fd, abs=1e-12)

    def test_adjoint_gradient_pairing_is_consistent(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        prob = self._problem(params16, smooth_state16, cfg)
        U = prob.zero_control()
        V = _const_signal(params16.grid, cfg.n_steps + 1, cfg.dt, amp=0.5, mode=(1, 1))
        J0, base = prob.cost(U)
        dd = directional_derivative(
            base, U, V, AdjointMode.DISTRIBUTED, prob.targets, params16, cfg
        )
        G = prob.gradient(U, base)
        assert G.inner(V) == pytest.approx(dd, rel=1e-2)

    def test_taylor_remainders_are_second_order(self, params16, smooth_state16):
        # the adjoint pairing carries an O(dt) defect, so the raw ladder
        # floors at h ~ dt; the coarse rungs see the quadratic regime
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        prob = self._problem(params16, smooth_state16, cfg)
        U = prob.zero_control()
        V = _const_signal(params16.grid, cfg.n_steps + 1, cfg.dt, amp=1.0, mode=(1, 1))
        hs = np.array([1e-1, 1e-2, 1e-3])
        rem, gv, J0 = taylor_remainders(prob, U, V, hs)
        assert observed_orders(rem, hs)[0] >= 1.8
        assert gv != 0.0
        assert J0 > 0.0

    def test_remainders_against_the_exact_derivative_have_no_floor(
        self, params16, smooth_state16
    ):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        prob = self._problem(params16, smooth_state16, cfg)
        U = prob.zero_control()
        V = _const_signal(params16.grid, cfg.n_steps + 1, cfg.dt, amp=1.0, mode=(1, 1))
        J0, base = prob.cost(U)
        dd = directional_derivative(
            base, U, V, AdjointMode.DISTRIBUTED, prob.targets, params16, cfg
        )
        hs = np.array([1e-1, 1e-2, 1e-3])
        rem = np.array(
            [abs(prob.cost(U.axpy(float(h), V))[0] - J0 - float(h) * dd) for h in hs]
        )
        assert np.all(observed_orders(rem, hs) >= 1.9)

    def test_observed_orders_arithmetic(self):
        got = observed_orders([1e-2, 1e-4, 1e-6], [1e-1, 1e-2, 1e-3])
        assert np.allclose(got, [2.0, 2.0])


class TestSpikeLimit:
    def test_rescaled_differences_converge_to_the_reference(
        self, params16, smooth_state16
    ):
        cfg = SolverConfig(dt=1e-3, T=0.02, nu=0.1)
        g = params16.grid
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        U = ControlSignal.zeros_distributed(g, len(base), cfg.dt)
        W = synth.single_mode_velocity(g, (1, 1), 0.8)
        tau = 0.01
        ref = spike_limit_reference(base, U, tau, W, params16, cfg)
        errs = []
        hs = [8 * cfg.dt, 4 * cfg.dt, 2 * cfg.dt]
        for h in hs:
            spiked = spike_variation(U, tau, h, W)
            pert = simulate(
                smooth_state16, spiked, None, params16, cfg, with_diagnostics=False
            )
            diff = (pert.final.u - base.final.u) * (1.0 / h) - ref
            errs.append(diff.norm() / max(ref.norm(), 1e-300))
        orders = observed_orders(errs, hs)
        assert errs[0] < 0.5
        assert np.all(orders >= 0.7)
        assert np.all(orders <= 1.3)

    def test_spike_distance_ladder(self, g16):
        dt = 1e-3
        U = ControlSignal.zeros_distributed(g16, 21, dt)
        W = synth.single_mode_velocity(g16, (1, 0), 1.0)
        for k in (8, 4, 2, 1):
            spiked = spike_variation(U, 10 * dt, k * dt, W)
            assert ekeland_metric(U, spiked) == pytest.approx(k * dt, abs=0.0)


class TestSolveOcp:
    def test_small_tracking_problem_descends(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        weights = CostWeights(control=1e-3)
        targets = CostTargets(weights=weights)
        opt = OptimizerConfig(max_iters=5, grad_tol=1e-12, step0=1.0)
        U, hist, prob = solve_ocp(
            smooth_state16, targets, None, params16, cfg, opt
        )
        assert isinstance(prob, DistributedControlProblem)
        costs = [row["cost"] for row in hist]
        assert costs[-1] < costs[0]
        assert U.norm() > 0.0
        assert len(hist) <= 6


class TestSignalChecksAtEntry:
    """The public entry points check their time signals before any work,
    with a ValidationError naming the signal."""

    @staticmethod
    def _inputs(params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
        f = synth.single_mode_velocity(params16.grid, (1, 0), 0.1)
        return cfg, f

    def test_a_control_on_another_time_step(self, params16, smooth_state16):
        cfg, f = self._inputs(params16, smooth_state16)
        coarse = ControlSignal.constant(f, 11, 2e-3)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        problem = DistributedControlProblem(smooth_state16, CostTargets(), None, params16, cfg)
        runs = [
            lambda: simulate(smooth_state16, coarse, None, params16, cfg),
            lambda: tangent_solve(base, coarse, None, None, params16, cfg),
            lambda: problem.cost(coarse),
        ]
        for run in runs:
            with pytest.raises(ValidationError, match="control steps dt = 0.002, the sweep 0.001"):
                run()

    def test_short_tracked_references(self, params16, smooth_state16):
        cfg, f = self._inputs(params16, smooth_state16)
        g = params16.grid
        with pytest.raises(ValidationError, match="u_d has 5 time nodes, the sweep reads 11"):
            DistributedControlProblem(
                smooth_state16, CostTargets(u_d=[f] * 5), None, params16, cfg
            )
        measured = CostTargets(
            u_M=[f] * 5, u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g)
        )
        with pytest.raises(ValidationError, match="u_M has 5 time nodes, the sweep reads 11"):
            InitialVelocityProblem(
                AssimilationProblem(measured, smooth_state16.phi, None, params16, cfg)
            )

    def test_a_field_of_the_wrong_kind(self, params16, smooth_state16):
        cfg, f = self._inputs(params16, smooth_state16)
        c = smooth_state16.phi
        with pytest.raises(ValidationError, match="cannot read forcing from ScalarField"):
            simulate(smooth_state16, None, c, params16, cfg)
        with pytest.raises(ValidationError, match="cannot read control from ScalarField"):
            simulate(smooth_state16, c, None, params16, cfg)
        for targets, message in (
            (CostTargets(u_d=c), "cannot read u_d from ScalarField"),
            (CostTargets(phi_d=[f] * 11), "cannot read phi_d from VectorField"),
        ):
            with pytest.raises(ValidationError, match=message):
                DistributedControlProblem(smooth_state16, targets, None, params16, cfg)

    def test_hamiltonian_reads_only_the_nodes_it_has(self, params16, smooth_state16):
        g = params16.grid
        targets = CostTargets(u_d=[smooth_state16.u * float(k) for k in range(11)])
        adj = AdjointState(VectorField.zeros(g), ScalarField.zeros(g), 0.0)
        W = VectorField.zeros(g)
        with pytest.raises(ValidationError, match="node -1 is not a time node"):
            hamiltonian(smooth_state16, W, adj, targets, params16, nu=0.1, node=-1)
        with pytest.raises(ValidationError, match="u_d has 11 time nodes, the sweep reads 12"):
            hamiltonian(smooth_state16, W, adj, targets, params16, nu=0.1, node=11)
        hamiltonian(smooth_state16, W, adj, targets, params16, nu=0.1, node=10)


_SPARSE_READERS = {
    "tangent_solve": lambda r, p, c, t: tangent_solve(r, None, None, None, p, c),
    "adjoint_solve": lambda r, p, c, t: adjoint_solve(r, AdjointMode.DISTRIBUTED, t, p, c),
    "cost_ocp": lambda r, p, c, t: cost_ocp(
        r, ControlSignal.zeros_distributed(p.grid, len(r), c.dt), t
    ),
    "cost_da": lambda r, p, c, t: cost_da(
        r, r.initial.u, AssimilationProblem(t, r.initial.phi, None, p, c)
    ),
    "duality_gap": lambda r, p, c, t: duality_gap(r, None, AdjointMode.DISTRIBUTED, t, p, c),
    "energy_identity_residual": lambda r, p, c, t: energy_identity_residual(r, None, None, p, c),
    "sup_state_difference": lambda r, p, c, t: sup_state_difference(
        simulate(r.initial, None, None, p, c), r
    ),
    "record_measurements": lambda r, p, c, t: record_measurements(r, t.weights),
}


@pytest.mark.parametrize("reader", sorted(_SPARSE_READERS))
def test_a_sparse_record_is_refused_by_readers_of_whole_records(
    reader, params16, smooth_state16
):
    """A record simulate(keep=...) thinned holds None at its dropped nodes;
    a reader of every node refuses it, naming the first dropped node."""
    g = params16.grid
    cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
    sparse = simulate(smooth_state16, None, None, params16, cfg, keep=[5])
    targets = CostTargets(u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g))
    with pytest.raises(ValidationError, match=r"no state at node 1 \(a sweep's keep"):
        _SPARSE_READERS[reader](sparse, params16, cfg, targets)


class TestFieldValidationBudget:
    """Tooling: a sweep reads its time signals as views, so the checked
    fields it builds (grid._as_grid_array calls) do not grow with N."""

    def test_flat_in_the_number_of_steps(self, params16, smooth_state16, monkeypatch):
        g = params16.grid
        calls = {"n": 0}
        checked = grid_module._as_grid_array

        def counted(*args):
            calls["n"] += 1
            return checked(*args)

        monkeypatch.setattr(grid_module, "_as_grid_array", counted)
        forcing = synth.single_mode_velocity(g, (1, 0), 0.1)
        used = {}
        for N in (10, 20):
            cfg = SolverConfig(dt=1e-3, T=N * 1e-3, nu=0.1)
            nodes = [synth.single_mode_velocity(g, (1, 1), 0.01 * (1 + n)) for n in range(N + 1)]
            U = ControlSignal(ControlSignal.DISTRIBUTED, fields=nodes, dt=cfg.dt)
            for with_diagnostics in (False, True):
                calls["n"] = 0
                traj = simulate(smooth_state16, U, forcing, params16, cfg, with_diagnostics)
                used[N, with_diagnostics] = calls["n"]
            targets = CostTargets(
                u_d=[s.u for s in traj.states], phi_d=[s.phi for s in traj.states],
                u_f=traj.final.u, phi_f=traj.final.phi,
            )
            calls["n"] = 0
            tracking_cost(AdjointMode.DISTRIBUTED, targets, traj)
            without_control = calls["n"]
            calls["n"] = 0
            cost_ocp(traj, U, targets)
            # the control term reads the rows of U.data and builds no field
            assert calls["n"] == without_control, N
        assert used[10, False] == used[20, False]
        assert used[10, True] == used[20, True]

    def test_costs_flat_in_the_number_of_steps(self, params16, smooth_state16, monkeypatch):
        """cost_ocp and cost_da read each node's mismatch as arrays, so the
        checked fields they build do not grow with N, node-indexed
        references included."""
        g = params16.grid
        calls = {"n": 0}
        checked = grid_module._as_grid_array

        def counted(*args):
            calls["n"] += 1
            return checked(*args)

        monkeypatch.setattr(grid_module, "_as_grid_array", counted)
        used = {}
        for N in (10, 20):
            cfg = SolverConfig(dt=1e-3, T=N * 1e-3, nu=0.1)
            traj = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
            u_ref = [0.5 * s.u for s in traj.states]
            phi_ref = [0.5 * s.phi for s in traj.states]
            targets = CostTargets(
                u_d=u_ref, phi_d=phi_ref, u_f=u_ref[0], phi_f=phi_ref[0],
                u_M=u_ref, phi_M=phi_ref, u_M_f=u_ref[0], phi_M_f=phi_ref[0],
            )
            U = _const_signal(g, N + 1, cfg.dt, amp=0.01)
            problem = AssimilationProblem(targets, smooth_state16.phi, None, params16, cfg)
            counts = []
            for cost in (lambda: cost_ocp(traj, U, targets),
                         lambda: cost_da(traj, smooth_state16.u, problem)):
                calls["n"] = 0
                cost()
                counts.append(calls["n"])
            used[N] = counts
        assert used[10] == used[20]
