import numpy as np
import pytest

from chnsopt import (
    ControlSignal,
    FlowState,
    Kernel,
    ModelParams,
    NumericError,
    ScalarField,
    SolverConfig,
    StabilityError,
    TorusGrid,
    ValidationError,
    VectorField,
    convolve,
    curl2d,
    energy,
    energy_identity_residual,
    grad,
    relative_divergence,
    simulate,
    step,
    sup_state_difference,
    tangent_solve,
)
from chnsopt import synth
from chnsopt.forward import Frame, Stepper, signal_node, spectral, step_average

TWO_PI = 2.0 * np.pi


class TestSolverConfig:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            SolverConfig(dt=0.0, T=1.0, nu=0.1)

    def test_rejects_horizon_below_dt(self):
        with pytest.raises(ValidationError):
            SolverConfig(dt=1e-2, T=1e-3, nu=0.1)

    def test_rejects_nonpositive_viscosity(self):
        with pytest.raises(ValidationError):
            SolverConfig(dt=1e-3, T=1.0, nu=0.0)

    def test_rejects_negative_stabilization(self):
        with pytest.raises(ValidationError):
            SolverConfig(dt=1e-3, T=1.0, nu=0.1, stabilization=-1.0)

    def test_rejects_incommensurate_horizon(self):
        cfg = SolverConfig(dt=1e-3, T=0.0105, nu=0.1)
        with pytest.raises(ValidationError):
            cfg.n_steps

    def test_step_count(self):
        assert SolverConfig(dt=1e-3, T=0.02, nu=0.1).n_steps == 20

    def test_infinite_step_count_is_a_validation_error(self):
        cfg = SolverConfig(dt=1e-10, T=1e300, nu=0.1)
        with pytest.raises(ValidationError, match="not a finite number of steps"):
            cfg.n_steps

    def test_stabilization_defaults_to_kernel_mass(self, kernel16):
        assert SolverConfig(dt=1e-3, T=1.0, nu=0.1).stabilization_value(
            kernel16
        ) == pytest.approx(5.0)
        assert SolverConfig(
            dt=1e-3, T=1.0, nu=0.1, stabilization=7.0
        ).stabilization_value(kernel16) == pytest.approx(7.0)


class TestSignals:
    def test_signal_node_conventions(self, g16):
        f = synth.taylor_green(g16, 1.0)
        assert signal_node(None, 3) is None
        assert signal_node(f, 3) is f
        assert signal_node([f, f * 2.0], 1).norm() == pytest.approx(2.0 * f.norm())
        sig = ControlSignal.constant(f, 4, 1e-3)
        assert np.array_equal(signal_node(sig, 2).u_x, f.u_x)
        c = ScalarField.constant(g16, 0.3)
        assert signal_node(c, 3) is c
        assert signal_node([c, c * 2.0], 1).mean() == pytest.approx(0.6)
        with pytest.raises(ValidationError, match="cannot read a time-indexed signal"):
            signal_node(0.3, 0)
        # a node-indexed signal read without a node (a hamiltonian call
        # with node=None) is an input error, not an index error
        for indexed in ([f, f], sig):
            with pytest.raises(ValidationError, match="node index needed"):
                signal_node(indexed, None)

    def test_step_average_is_nodal_midpoint(self, g16):
        a = synth.taylor_green(g16, 1.0)
        b = synth.taylor_green(g16, 3.0)
        avg = step_average([a, b], 0)
        assert np.allclose(avg.u_x, 2.0 * a.u_x, atol=1e-15)


class TestExactSolutions:
    def test_cellular_flow_decays_at_exact_rate(self, params16):
        # the cellular u0 is a steady Euler flow: its self-advection is
        # a pure gradient and the phase field is off, so each step is
        # division by (1 + 2 nu dt) on the |k|^2 = 2 shell
        cfg = SolverConfig(dt=1e-3, T=0.05, nu=0.1)
        u0 = synth.taylor_green(params16.grid, 0.7)
        phi0 = ScalarField.zeros(params16.grid)
        traj = simulate(FlowState(u0, phi0, 0.0), None, None, params16, cfg)
        factor = 1.0 / (1.0 + 2.0 * cfg.nu * cfg.dt)
        for n in (1, 10, 50):
            expect = factor**n
            got = traj.states[n].u.norm() / u0.norm()
            assert got == pytest.approx(expect, rel=1e-12), n

    def test_forced_from_rest_matches_geometric_sum(self, params16):
        # u = 0 and a constant single-mode force: the advective term
        # stays zero, so u^n = dt f sum_{j=1..n} (1 + nu dt)^{-j}
        cfg = SolverConfig(dt=1e-3, T=0.005, nu=0.1)
        f = synth.single_mode_velocity(params16.grid, (1, 0), 0.4)
        state = FlowState(
            VectorField.zeros(params16.grid),
            ScalarField.zeros(params16.grid),
            0.0,
        )
        traj = simulate(state, None, f, params16, cfg)
        r = 1.0 / (1.0 + cfg.nu * cfg.dt)
        for n in (1, 3, 5):
            coeff = cfg.dt * sum(r**j for j in range(1, n + 1))
            assert np.allclose(
                traj.states[n].u.u_y, coeff * f.u_y, atol=1e-15
            ), n

    def test_mean_force_drives_mean_flow_linearly(self, params16):
        # the k = 0 momentum mode is undamped and integrates the mean force
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.004, nu=0.1)
        f = VectorField(g, np.full(g.shape, 0.3), np.zeros(g.shape))
        state = FlowState(VectorField.zeros(g), ScalarField.zeros(g), 0.0)
        traj = simulate(state, None, f, params16, cfg)
        mx, my = traj.final.u.mean()
        assert mx == pytest.approx(4 * cfg.dt * 0.3, rel=1e-13)
        assert my == pytest.approx(0.0, abs=1e-15)


class TestConservation:
    def test_mass_frozen_exactly(self, params32, smooth_state32):
        cfg = SolverConfig(dt=1e-3, T=0.05, nu=0.1)
        forcing = synth.taylor_green(params32.grid, 0.2)
        traj = simulate(smooth_state32, None, forcing, params32, cfg)
        masses = traj.diagnostics["mass"]
        assert np.max(np.abs(masses - masses[0])) <= 1e-14

    def test_velocity_divergence_free_throughout(self, params32, smooth_state32):
        cfg = SolverConfig(dt=1e-3, T=0.02, nu=0.1)
        traj = simulate(smooth_state32, None, None, params32, cfg)
        assert max(relative_divergence(s.u) for s in traj.states) <= 1e-13

    def test_constant_state_is_a_fixed_point_bitwise(self, params16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.1, nu=0.1)
        eq = FlowState(VectorField.zeros(g), ScalarField.constant(g, 0.3), 0.0)
        traj = simulate(eq, None, None, params16, cfg, with_diagnostics=False)
        for s in traj.states:
            assert np.array_equal(s.phi.values, eq.phi.values)
            assert np.array_equal(s.u.u_x, eq.u.u_x)

    def test_unforced_energy_decreases(self, params32, smooth_state32):
        cfg = SolverConfig(dt=1e-3, T=0.03, nu=0.1)
        traj = simulate(smooth_state32, None, None, params32, cfg)
        en = traj.diagnostics["energy"]
        assert np.all(np.diff(en) < 0.0)


    def test_invariants_on_anisotropic_grid(self, double_well):
        g = TorusGrid(32, 48, TWO_PI, 3.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
        r = np.random.default_rng(48)
        u0 = synth.random_divfree_velocity(g, r, amplitude=0.5, k_cut=3.0)
        phi0 = synth.random_scalar(g, r, amplitude=0.3, k_cut=3.0, mean=0.1)
        forcing = synth.single_mode_velocity(g, (1, 1), 0.1)
        cfg = SolverConfig(dt=1e-3, T=0.02, nu=0.1)
        traj = simulate(FlowState(u0, phi0, 0.0), None, forcing, params, cfg)
        assert traj.n_steps == 20
        mass = traj.diagnostics["mass"]
        assert np.max(np.abs(mass - mass[0])) <= 1e-12
        assert max(relative_divergence(s.u) for s in traj.states) <= 1e-12

    def test_frozen_mean_under_compressible_velocity(self, double_well):
        # a compressible u makes the k = 0 mode of u.grad(phi) nonzero, so
        # only the frozen mean keeps mass (and the tangent's mean) fixed
        g = TorusGrid(32, 48, TWO_PI, 3.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
        x, y = TWO_PI * g.X / g.l_x, TWO_PI * g.Y / g.l_y
        u0 = VectorField(g, np.cos(x), 0.3 * np.cos(y))
        phi0 = ScalarField(g, 0.2 + 0.3 * np.sin(x) + 0.2 * np.cos(y) + 0.1 * np.sin(x + y))
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        traj = simulate(FlowState(u0, phi0, 0.0), None, None, params, cfg, with_diagnostics=False)
        assert max(abs(s.phi.mean() - phi0.mean()) for s in traj.states) <= 1e-12
        tang = tangent_solve(traj, None, None, phi0, params, cfg)
        assert max(abs(s.psi.mean() - phi0.mean()) for s in tang.states) <= 1e-12


class TestFrame:
    def test_conv_grad_per_component(self, double_well):
        g = TorusGrid(32, 48, TWO_PI, 3.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
        st = Stepper(params, SolverConfig(dt=1e-3, T=1e-3, nu=0.1))
        x, y = TWO_PI * g.X / g.l_x, TWO_PI * g.Y / g.l_y
        phi = ScalarField(g, np.sin(x) + 0.5 * np.cos(2.0 * y) + 0.3 * np.sin(x + y))
        got = Frame(st, *spectral(VectorField.zeros(g), phi), ("conv_grad",)).conv_grad
        want = grad(convolve(params.kernel.hat, phi)).dealiased()
        for a, b in zip(got, (want.u_x, want.u_y)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_frames_keep_their_own_fields(self, double_well):
        """Two frames built in a row on one Stepper, from different states:
        the second must not overwrite the first, as it would if a frame's
        fields aliased the Stepper's work stack."""
        g = TorusGrid(32, 48, TWO_PI, 3.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        r = np.random.default_rng(9)
        states = [
            (synth.random_divfree_velocity(g, r, 0.5, 4.0), synth.random_scalar(g, r, 0.3, 4.0))
            for _ in range(2)
        ]
        extras = ("conv", "conv_grad", "lap")
        st = Stepper(params, cfg)
        a, b = (Frame(st, *spectral(u, phi), extras) for u, phi in states)
        for fr, (u, phi) in zip((a, b), states):
            alone = Frame(Stepper(params, cfg), *spectral(u, phi), extras)
            for name in ("ux", "uy", "dux", "duy", "phi", "dphi", *extras):
                assert np.array_equal(getattr(fr, name), getattr(alone, name))
        assert not np.array_equal(a.phi, b.phi)


class TestEnergy:
    def test_kinetic_of_cellular_flow(self, g16, kernel16, double_well):
        state = FlowState(
            synth.taylor_green(g16, 0.8), ScalarField.zeros(g16), 0.0
        )
        # kinetic pi^2 A^2 plus bulk F(0) = 1 over the box
        expect = np.pi**2 * 0.64 + TWO_PI**2
        assert energy(state, kernel16, double_well) == pytest.approx(
            expect, rel=1e-13
        )

    def test_constant_phi_has_no_interaction_energy(self, g16, kernel16, double_well):
        state = FlowState(
            VectorField.zeros(g16), ScalarField.constant(g16, 0.5), 0.0
        )
        expect = TWO_PI**2 * double_well.f(0.5)
        assert energy(state, kernel16, double_well) == pytest.approx(
            expect, abs=1e-10
        )

    def test_interaction_energy_is_nonnegative_for_positive_kernel(
        self, g16, kernel16, double_well, rng
    ):
        # (a<phi,phi> - <J*phi,phi>)/2 >= 0 when the transform peaks at 0
        phi = ScalarField(g16, rng.standard_normal(g16.shape))
        state = FlowState(VectorField.zeros(g16), phi, 0.0)
        bulk = g16.cell_area * float(np.sum(double_well.f(phi.values)))
        assert energy(state, kernel16, double_well) >= bulk - 1e-12

    def test_residual_shrinks_linearly_with_dt(self, params32, smooth_state32):
        res = {}
        for dt in (2e-3, 1e-3, 5e-4):
            cfg = SolverConfig(dt=dt, T=0.05, nu=0.1)
            traj = simulate(
                smooth_state32.copy(), None, None, params32, cfg
            )
            res[dt] = float(np.max(np.abs(traj.diagnostics["residual"])))
        o1 = np.log(res[2e-3] / res[1e-3]) / np.log(2.0)
        o2 = np.log(res[1e-3] / res[5e-4]) / np.log(2.0)
        assert 0.85 <= o1 <= 1.15
        assert 0.85 <= o2 <= 1.15

    def test_forced_run_residual_includes_work(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        f = synth.taylor_green(params16.grid, 0.3)
        traj = simulate(smooth_state16, None, f, params16, cfg, with_diagnostics=False)
        res = energy_identity_residual(traj, f, None, params16, cfg)
        assert res.shape == (10,)
        assert np.max(np.abs(res)) < 1.0


class TestStepFunction:
    def test_single_step_matches_simulate(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        s1 = step(smooth_state16, None, None, params16, cfg)
        traj = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        assert (s1.u - traj.final.u).norm() <= 1e-13
        assert np.max(np.abs(s1.phi.values - traj.final.phi.values)) <= 1e-13
        assert s1.t == pytest.approx(1e-3)

    def test_repeated_steps_match_simulate(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        s = smooth_state16
        for _ in range(5):
            s = step(s, None, None, params16, cfg)
        traj = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        assert (s.u - traj.final.u).norm() <= 1e-12
        assert np.max(np.abs(s.phi.values - traj.final.phi.values)) <= 1e-12

    def test_control_conventions_agree(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        f = synth.single_mode_velocity(params16.grid, (1, 0), 0.2)
        as_field = simulate(smooth_state16, f, None, params16, cfg, with_diagnostics=False)
        as_list = simulate(
            smooth_state16, [f] * 6, None, params16, cfg, with_diagnostics=False
        )
        sig = ControlSignal.constant(f, 6, cfg.dt)
        as_signal = simulate(smooth_state16, sig, None, params16, cfg, with_diagnostics=False)
        assert np.array_equal(as_field.final.u.u_x, as_list.final.u.u_x)
        assert np.array_equal(as_field.final.u.u_x, as_signal.final.u.u_x)

    def test_cfl_violation_raises(self, params16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        wild = VectorField(g, np.full(g.shape, 1e4), np.zeros(g.shape))
        state = FlowState(wild, ScalarField.zeros(g), 0.0)
        with pytest.raises(StabilityError):
            step(state, None, None, params16, cfg)

    def test_blowup_raises_numeric_error(self, params16):
        g = params16.grid
        cfg = SolverConfig(dt=0.5, T=2.0, nu=0.1)
        state = FlowState(
            VectorField.zeros(g),
            ScalarField(g, 50.0 * np.sin(g.X)),
            0.0,
        )
        with pytest.raises(NumericError):
            simulate(state, None, None, params16, cfg, with_diagnostics=False)

    def test_grid_mismatch_rejected(self, params16, g32):
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        state = FlowState(VectorField.zeros(g32), ScalarField.zeros(g32), 0.0)
        with pytest.raises(ValidationError):
            step(state, None, None, params16, cfg)


class TestTrajectory:
    def test_node_bookkeeping(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.004, nu=0.1)
        traj = simulate(smooth_state16, None, None, params16, cfg)
        assert len(traj) == 5
        assert traj.n_steps == 4
        assert np.allclose(traj.times, [0.0, 1e-3, 2e-3, 3e-3, 4e-3])
        assert traj.final is traj.states[-1]
        assert traj.grid == params16.grid

    def test_diagnostics_enstrophy_oracle(self, params16):
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        A = 0.6
        state = FlowState(synth.taylor_green(g, A), ScalarField.zeros(g), 0.0)
        traj = simulate(state, None, None, params16, cfg)
        d = traj.diagnostics
        # vorticity of the cellular flow is 2A sin x sin y
        assert d["kinetic"][0] == pytest.approx(np.pi**2 * A**2, rel=1e-12)
        assert d["enstrophy"][0] == pytest.approx(2.0 * np.pi**2 * A**2, rel=1e-12)
        assert d["enstrophy"][0] == pytest.approx(
            0.5 * curl2d(state.u).norm() ** 2, rel=1e-13
        )


DIAGNOSTIC_GRIDS = [
    pytest.param((64, 64, TWO_PI, TWO_PI), id="64x64"),
    pytest.param((32, 48, TWO_PI, 3.0 * np.pi), id="32x48-anisotropic"),
]


def _forced_controlled_inputs(shape, double_well):
    """(initial, control, forcing, params, config) for 20 steps from random
    fields under a constant forcing and a node-indexed control, so the
    work term sees step averages."""
    g = TorusGrid(*shape)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
    r = np.random.default_rng(64)
    initial = FlowState(
        synth.random_divfree_velocity(g, r, amplitude=0.5, k_cut=3.0),
        synth.random_scalar(g, r, amplitude=0.3, k_cut=3.0, mean=0.1),
        0.0,
    )
    control = [synth.single_mode_velocity(g, (1, 1), 0.05 * (1 + n)) for n in range(21)]
    forcing = synth.single_mode_velocity(g, (1, 0), 0.1)
    return initial, control, forcing, params, SolverConfig(dt=1e-3, T=0.02, nu=0.1)


class TestDiagnosticsReference:
    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_series_match_physical_formulas(self, shape, double_well, diagnostics_reference):
        initial, control, forcing, params, cfg = _forced_controlled_inputs(shape, double_well)
        traj = simulate(initial, control, forcing, params, cfg)
        diagnostics_reference(traj, forcing, control, params, cfg)

    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_stored_state_entry_points_agree(self, shape, double_well):
        # energy and energy_identity_residual transform the stored states;
        # the loop uses the step's own transforms
        initial, control, forcing, params, cfg = _forced_controlled_inputs(shape, double_well)
        traj = simulate(initial, control, forcing, params, cfg)
        d = traj.diagnostics
        en = np.array([energy(s, params.kernel, params.potential) for s in traj.states])
        assert np.all(np.abs(en - d["energy"]) <= 1e-13 * np.abs(en))
        res = energy_identity_residual(traj, forcing, control, params, cfg)
        assert np.max(np.abs(res - d["residual"])) <= 1e-13 * np.max(np.abs(en)) / cfg.dt

    def test_non_finite_chemical_potential_raises(self, params16):
        # F'(phi) overflows while phi itself is finite
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        state = FlowState(VectorField.zeros(g), ScalarField.constant(g, 1e120), 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="chemical potential"):
                simulate(state, None, None, params16, cfg)


class TestTransformBudget:
    def test_diagnostics_add_at_most_one_transform_per_node(self, double_well, transform_counter):
        initial, control, forcing, params, cfg = _forced_controlled_inputs(
            (32, 48, TWO_PI, 3.0 * np.pi), double_well
        )
        used = {}
        for with_diagnostics in (False, True):
            transform_counter["fields"] = 0
            traj = simulate(initial, control, forcing, params, cfg, with_diagnostics)
            used[with_diagnostics] = transform_counter["fields"]
        assert used[False] > 0
        assert used[True] - used[False] <= len(traj)

    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    def test_at_most_three_calls_per_step(self, double_well, transform_counter, with_diagnostics):
        """A forward step transforms each group of fields in one call: its
        frame, its right-hand side (force included) and its new state; the
        diagnostics add one call per node."""
        initial, control, forcing, params, cfg = _forced_controlled_inputs(
            (32, 48, TWO_PI, 3.0 * np.pi), double_well
        )
        calls = {}
        for T in (0.01, 0.02):
            transform_counter["calls"] = 0
            short = SolverConfig(dt=cfg.dt, T=T, nu=cfg.nu)
            traj = simulate(initial, control, forcing, params, short, with_diagnostics)
            calls[traj.n_steps] = transform_counter["calls"]
        assert (calls[20] - calls[10]) / 10 <= 3 + with_diagnostics


class TestSupDifference:
    def test_identical_trajectories_have_zero_gap(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.003, nu=0.1)
        a = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        b = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        assert sup_state_difference(a, b) == 0.0

    def test_constant_offset_oracle(self, params16):
        # two constant equilibria differ by a constant phi, whose dual
        # norm equals its L2 norm: delta * 2 pi
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=0.003, nu=0.1)
        a = simulate(
            FlowState(VectorField.zeros(g), ScalarField.constant(g, 0.3), 0.0),
            None, None, params16, cfg, with_diagnostics=False,
        )
        b = simulate(
            FlowState(VectorField.zeros(g), ScalarField.constant(g, 0.31), 0.0),
            None, None, params16, cfg, with_diagnostics=False,
        )
        assert sup_state_difference(a, b) == pytest.approx(
            0.01 * TWO_PI, rel=1e-12
        )

    def test_length_mismatch_rejected(self, params16, smooth_state16):
        cfg1 = SolverConfig(dt=1e-3, T=0.003, nu=0.1)
        cfg2 = SolverConfig(dt=1e-3, T=0.004, nu=0.1)
        a = simulate(smooth_state16, None, None, params16, cfg1, with_diagnostics=False)
        b = simulate(smooth_state16, None, None, params16, cfg2, with_diagnostics=False)
        with pytest.raises(ValidationError):
            sup_state_difference(a, b)
