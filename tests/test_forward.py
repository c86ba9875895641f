import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from chnsopt import (
    ControlSignal,
    FlowState,
    Kernel,
    ModelParams,
    NumericError,
    Potential,
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
from chnsopt import forward
from chnsopt.forward import (
    Frame,
    Stepper,
    _applied_force,
    _diagnostic_series,
    node_terms,
    physical,
    read_signal,
    spectral,
)

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
    """read_signal, the one reader of a time signal, and the step force."""

    def test_signal_forms(self, g16):
        f = synth.taylor_green(g16, 1.0)
        two = f * 2.0
        assert read_signal(None, "s", g16) is None
        assert read_signal(None, "s", g16, 3) == [None] * 3
        # one field is constant in time: one entry for every node, views
        const = read_signal(f, "s", g16, 3)
        assert len(const) == 3 and const[0] is const[-1]
        assert const[0][0] is f.u_x and const[0][1] is f.u_y
        assert read_signal(f, "s", g16)[1] is f.u_y
        # a list is indexed by node
        listed = read_signal([f, two, f], "s", g16, 2)
        assert len(listed) == 2 and listed[0] is not listed[-1]
        assert listed[1][0] is two.u_x
        # a distributed ControlSignal is read as rows of its data
        sig = ControlSignal.constant(f, 4, 1e-3)
        rows = read_signal(sig, "s", g16, 3, dt=1e-3)
        assert len(rows) == 3 and rows[0] is not rows[-1]
        for n, (ux, uy) in enumerate(rows):
            assert np.shares_memory(ux, sig.data) and np.shares_memory(uy, sig.data)
            assert np.array_equal(ux, f.u_x) and np.array_equal(uy, f.u_y), n
        # a scalar signal gives (values,)
        c = ScalarField.constant(g16, 0.3)
        assert read_signal(c, "phi", g16, 3, ScalarField)[2][0] is c.values
        doubled = read_signal([c, c * 2.0], "phi", g16, 2, ScalarField)[1][0]
        assert doubled.mean() == pytest.approx(0.6)

    def test_every_check_names_the_signal(self, g16, g32):
        f = synth.taylor_green(g16, 1.0)
        c = ScalarField.constant(g16, 0.3)
        sig = ControlSignal.constant(f, 4, 1e-3)
        cases = [
            ((0.3, "forcing", g16, 3), "cannot read forcing from float"),
            ((c, "control", g16, 3), "cannot read control from ScalarField"),
            (([f, c], "u_d", g16, 2), "cannot read u_d from ScalarField"),
            ((f, "phi_d", g16, 3, ScalarField), "cannot read phi_d from VectorField"),
            ((sig, "phi_M", g16, 3, ScalarField), "cannot read phi_M from ControlSignal"),
            ((ControlSignal.zeros_initial(g16), "control", g16, 3), "cannot read control from"),
            # a node-indexed signal where one field is needed (a terminal reference)
            (([f, f], "u_f", g16), "u_f is node-indexed where one field is needed"),
            ((sig, "u_M_f", g16), "u_M_f is node-indexed where one field is needed"),
            (([f] * 3, "u_d", g16, 4), "u_d has 3 time nodes, the sweep reads 4"),
            ((sig, "control", g16, 5), "control has 4 time nodes, the sweep reads 5"),
            ((VectorField.zeros(g32), "forcing", g16, 3), "forcing grid does not match"),
            (([f, VectorField.zeros(g32)], "u_d", g16, 2), "u_d grid does not match"),
            ((sig, "control", g16, 4, VectorField, 2e-3), "steps dt = 0.001, the sweep 0.002"),
        ]
        for args, message in cases:
            with pytest.raises(ValidationError, match=re.escape(message)):
                read_signal(*args)
        # a dt within 1e-14 relative is the same step
        assert len(read_signal(sig, "control", g16, 4, dt=1e-3 * (1 + 1e-15))) == 4

    @pytest.mark.parametrize("where", ["control", "forcing"])
    @pytest.mark.parametrize("kind", ["list", "control-signal"])
    def test_a_short_signal_fails_before_the_first_step(
        self, kind, where, params16, smooth_state16, monkeypatch
    ):
        cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
        f = synth.taylor_green(params16.grid, 0.1)
        short = [f] * 5 if kind == "list" else ControlSignal.constant(f, 5, cfg.dt)
        signals = {"control": None, "forcing": None, where: short}

        def stepped(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(Stepper, "forward_step_hat", stepped)
        with pytest.raises(ValidationError, match=f"{where} has 5 time nodes, the sweep reads 11"):
            simulate(smooth_state16, signals["control"], signals["forcing"], params16, cfg)

    def test_step_force_is_the_nodal_midpoint(self, g16):
        a = synth.taylor_green(g16, 1.0)
        b = synth.taylor_green(g16, 3.0)
        fx, fy = _applied_force(0, read_signal([a, b], "control", g16, 2))
        assert np.allclose(fx, 2.0 * a.u_x, atol=1e-15)
        assert np.allclose(fy, 2.0 * a.u_y, atol=1e-15)
        # control, then forcing; a force constant in time as given
        both = _applied_force(1, read_signal([a, b, a], "control", g16, 3),
                              read_signal(a, "forcing", g16, 3))
        assert np.array_equal(both[0], 0.5 * (b.u_x + a.u_x) + a.u_x)
        assert _applied_force(0, read_signal(a, "forcing", g16, 2))[1] is a.u_y
        assert _applied_force(0, [None] * 2, [None] * 2) == (None, None)


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
        got = Frame(st, *spectral(VectorField.zeros(g), phi), ("conv_grad",), "frame").conv_grad
        want = grad(convolve(params.kernel.hat, phi)).dealiased()
        for a, b in zip(got, (want.u_x, want.u_y)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_frames_keep_their_own_fields(self, double_well):
        """Two frames built in a row on one Stepper under two names, from
        different states: the second must not overwrite the first, as it
        would if a frame's fields aliased the Stepper's work stack or the
        other name's buffer."""
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
        a, b = (Frame(st, *spectral(u, phi), extras, name)
                for (u, phi), name in zip(states, ("frame", "sweep frame")))
        for fr, (u, phi) in zip((a, b), states):
            alone = Frame(Stepper(params, cfg), *spectral(u, phi), extras, "frame")
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


GRIDS = [(32, 32, TWO_PI, TWO_PI), (32, 48, TWO_PI, 3.0 * np.pi)]


def _criteria_model(args):
    """The criteria's 32x32 set-up (Taylor-Green 0.5, sine 0.1 with mean
    0.2, gaussian kernel of mass 5) on the grid args."""
    g = TorusGrid(*args)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
    initial = FlowState(
        synth.taylor_green(g, 0.5), synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), 0.0
    )
    return params, initial


@pytest.mark.parametrize("S", [1.0, 7.0])
@pytest.mark.parametrize("args", GRIDS, ids=["32x32", "32x48"])
class TestStabilizationOffTheKernelMass:
    """S below and above the kernel mass a = 5, so the (a - S) term of
    Stepper.assemble runs with both signs, held to the bounds of
    acceptance criteria 1, 2 and 3."""

    def test_mass_and_divergence(self, args, S):
        params, initial = _criteria_model(args)
        cfg = SolverConfig(dt=1e-3, T=0.1, nu=0.1, stabilization=S)
        assert Stepper(params, cfg).a != S
        forcing = synth.single_mode_velocity(params.grid, (1, 0), 0.1)
        traj = simulate(initial, None, forcing, params, cfg)
        mass = traj.diagnostics["mass"]
        assert np.max(np.abs(mass - mass[0])) <= 1e-12
        assert max(relative_divergence(s.u) for s in traj.states) <= 1e-12

    def test_energy_residual_is_first_order(self, args, S):
        params, initial = _criteria_model(args)
        res = {}
        for dt in (2e-3, 1e-3, 5e-4):
            cfg = SolverConfig(dt=dt, T=0.1, nu=0.1, stabilization=S)
            res[dt] = float(np.max(np.abs(simulate(initial, None, None, params, cfg)
                                          .diagnostics["residual"])))
        assert np.log2(res[2e-3] / res[1e-3]) >= 0.9
        assert np.log2(res[1e-3] / res[5e-4]) >= 0.9


class TestStepFunction:
    def test_single_step_matches_simulate(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        s1 = step(smooth_state16, None, None, params16, cfg)
        traj = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        assert (s1.u - traj.final.u).norm() <= 1e-13
        assert np.max(np.abs(s1.phi.values - traj.final.phi.values)) <= 1e-13
        assert s1.t == pytest.approx(1e-3)

    @pytest.mark.parametrize("form", ["none", "control", "control-and-forcing",
                                      "two-node-list", "two-node-signal"])
    def test_step_is_a_one_step_simulate_bit_for_bit(self, form):
        g = TorusGrid(32, 48, 2.0 * np.pi, 3.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        phi = synth.sine_scalar(g, (1, 1), 0.1, mean=0.2)
        state = FlowState(synth.taylor_green(g, 0.5), phi, 0.37)
        c = synth.single_mode_velocity(g, (1, 0), 0.2)
        pair = [c, synth.single_mode_velocity(g, (0, 1), 0.3)]
        control, forcing = {
            "none": (None, None),
            "control": (c, None),
            "control-and-forcing": (c, synth.single_mode_velocity(g, (1, 1), 0.1)),
            "two-node-list": (pair, None),
            "two-node-signal": (ControlSignal(ControlSignal.DISTRIBUTED, pair, cfg.dt), None),
        }[form]
        got = step(state, control, forcing, params, cfg)
        one = SolverConfig(dt=cfg.dt, T=cfg.dt, nu=cfg.nu)
        want = simulate(state, control, forcing, params, one, with_diagnostics=False).final
        for a, b in ((got.u.u_x, want.u.u_x), (got.u.u_y, want.u.u_y),
                     (got.phi.values, want.phi.values)):
            assert a.tobytes() == b.tobytes()
        assert got.t == 0.37 + cfg.dt

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

    def test_cfl_check_of_a_speed_whose_square_overflows(self, params16):
        # (1e200)^2 overflows: the check still fails, with no warning, and
        # the message gives the true ratio
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=2e-3, nu=0.1)
        wild = VectorField(g, np.full(g.shape, 1e200), np.zeros(g.shape))
        state = FlowState(wild, ScalarField.zeros(g), 0.0)
        message = re.escape(f"= {1e200 * cfg.dt / min(g.dx, g.dy):.3g} > 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityError, match=message):
                step(state, None, None, params16, cfg)
            with pytest.raises(StabilityError, match=message):
                simulate(state, None, None, params16, cfg, with_diagnostics=False)

    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    @pytest.mark.parametrize("on_worker", [False, True], ids=["one-thread", "worker"])
    def test_a_square_that_overflows_fails_the_cfl_check_in_every_sweep(
        self, params16, with_diagnostics, on_worker, monkeypatch
    ):
        # the diagnostics row squares the same velocity; its overflow reads
        # inf quietly, so node 0's CFL check raises, not a numpy warning
        if on_worker:
            monkeypatch.setattr(forward, "_WORKER_MIN_POINTS", 0)
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=2e-3, nu=0.1)
        wild = VectorField(g, np.full(g.shape, 1e200), np.full(g.shape, -1e160))
        state = FlowState(wild, synth.sine_scalar(g, (1, 1), 0.1), 0.0)
        message = re.escape(f"= {1e200 * cfg.dt / min(g.dx, g.dy):.3g} > 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityError, match=message):
                simulate(state, None, None, params16, cfg, with_diagnostics)

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


    @pytest.mark.parametrize("constant", [True, False], ids=["constant-force", "control"])
    def test_a_constant_force_is_transformed_once_per_sweep(
        self, double_well, transform_counter, constant
    ):
        """A step transforms 17 fields in 3 calls under a force the same
        every step (its frame's 10, its products' 4, its state's 3), and 19
        under a time-varying control, whose 2 components join the
        products' call."""
        initial, control, forcing, params, cfg = _forced_controlled_inputs(
            (32, 48, TWO_PI, 3.0 * np.pi), double_well
        )
        used = {}
        for T in (0.01, 0.02):
            transform_counter["calls"] = transform_counter["fields"] = 0
            short = SolverConfig(dt=cfg.dt, T=T, nu=cfg.nu)
            traj = simulate(
                initial, None if constant else control, forcing, params, short, False
            )
            used[traj.n_steps] = dict(transform_counter)
        per_step = {key: (used[20][key] - used[10][key]) / 10 for key in ("calls", "fields")}
        assert per_step == {"calls": 3, "fields": 17 if constant else 19}


class TestStepBuffers:
    """The forward step writes into buffers its Stepper keeps and allocates
    only the three half spectra it returns."""

    @pytest.mark.parametrize("transformed", [False, True], ids=["physical", "transformed"])
    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_a_warmed_step_allocates_its_results_only(self, shape, transformed, double_well):
        initial, _, forcing, params, cfg = _forced_controlled_inputs(shape, double_well)
        st = Stepper(params, cfg)
        force = (forcing.u_x, forcing.u_y)
        if transformed:
            force = st.force_hat(*force)
        hats = spectral(initial.u, initial.phi)
        for _ in range(2):
            hats = st.forward_step_hat(*hats, *force)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hats = st.forward_step_hat(*hats, *force)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the three results plus one half spectrum of slack
        assert peak <= 4 * hats[0].nbytes

    def test_views_are_kept_and_follow_a_grown_buffer(self, params16, smooth_state16):
        """A name's view is made once and handed out again; growing the name's
        array drops its views, so a view taken after the growth lives in the
        grown array, and a step computed there has the bits of a fresh
        Stepper's."""
        cfg = SolverConfig(dt=1e-3, T=1e-3, nu=0.1)
        st = Stepper(params16, cfg)
        hats = spectral(smooth_state16.u, smooth_state16.phi)
        first = st.forward_step_hat(*hats, None, None)
        small = st.buffer("work", 3, float)
        assert st.buffer("work", 3, float) is small
        frame = st.buffer("frame", 10, float)
        grown = st.buffer("work", 64, float)
        after = st.buffer("work", 3, float)
        assert np.shares_memory(after, grown) and not np.shares_memory(after, small)
        assert st.buffer("frame", 10, float) is frame  # other names keep theirs
        again = st.forward_step_hat(*hats, None, None)
        fresh = Stepper(params16, cfg).forward_step_hat(*hats, None, None)
        for a, b, c in zip(first, again, fresh, strict=True):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_results_outlive_the_next_step(self, params16, smooth_state16):
        st = Stepper(params16, SolverConfig(dt=1e-3, T=1e-3, nu=0.1))
        forcing = synth.single_mode_velocity(params16.grid, (1, 0), 0.1)
        force = st.force_hat(forcing.u_x, forcing.u_y)
        first = st.forward_step_hat(*spectral(smooth_state16.u, smooth_state16.phi), *force)
        kept = [h.copy() for h in first]
        second = st.forward_step_hat(*first, *force)
        st.forward_step_hat(*second, *force)
        for h, want in zip(first, kept, strict=True):
            assert np.array_equal(h, want)
            assert not any(np.shares_memory(h, other) for other in second)

    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_constant_force_matches_its_node_list_bitwise(self, shape, with_diagnostics, double_well):
        # a VectorField forcing is transformed once per sweep; the same
        # field as a node list goes through each step's products call
        initial, _, forcing, params, cfg = _forced_controlled_inputs(shape, double_well)
        nodes = [forcing] * (cfg.n_steps + 1)
        a = simulate(initial, forcing, forcing, params, cfg, with_diagnostics)
        b = simulate(initial, nodes, nodes, params, cfg, with_diagnostics)
        for sa, sb in zip(a.states, b.states, strict=True):
            assert np.array_equal(sa.u.u_x, sb.u.u_x)
            assert np.array_equal(sa.u.u_y, sb.u.u_y)
            assert np.array_equal(sa.phi.values, sb.phi.values)
        assert a.diagnostics.keys() == b.diagnostics.keys()
        for key, series in a.diagnostics.items():
            assert np.array_equal(series, b.diagnostics[key]), key


def _one_thread_sweep(initial, control, forcing, params, cfg, with_diagnostics):
    """(states, rows) of simulate's loop run on one thread: for each node
    its stored state, its diagnostics row and its CFL check, then the step
    that leaves it."""
    g = params.grid
    st = Stepper(params, cfg)
    signals = [read_signal(control, "control", g, cfg.n_steps + 1),
               read_signal(forcing, "forcing", g, cfg.n_steps + 1)]
    hats, force = spectral(initial.u, initial.phi), (None, None)
    states, rows = [], []
    for n in range(cfg.n_steps + 1):
        if n == 0:
            state = FlowState(initial.u.copy(), initial.phi.copy(), 0.0)
        else:
            state = FlowState(*physical(g, *hats), n * cfg.dt)
        states.append(state)
        if with_diagnostics:
            rows.append(node_terms(params.kernel, params.potential, hats, state, cfg.nu, force))
        if n == cfg.n_steps:
            return states, rows
        st.check_cfl(state.u.u_x, state.u.u_y)
        force = _applied_force(n, *signals)
        hats = st.forward_step_hat(*hats, *force)


def _first_failure(run, dt, max_steps):
    """(N, type, message) of the error of the shortest run of N steps
    that raises one, or None."""
    for k in range(1, max_steps + 1):
        try:
            run(SolverConfig(dt=dt, T=k * dt, nu=0.1))
        except NumericError as exc:
            return k, type(exc), str(exc)
    return None


def _accelerated_flow_inputs(shape, double_well):
    """(initial, forcing, params, dt): a uniform force speeds a flow at rest
    up by the same amount each step, so max|u| dt/dx is 2/7 at node 1
    and first exceeds 1 at node 4."""
    g = TorusGrid(*shape)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
    dt = 0.01
    push = min(g.dx, g.dy) / dt / (3.5 * dt)
    forcing = VectorField(g, np.full(g.shape, push), np.zeros(g.shape))
    return FlowState(VectorField.zeros(g), ScalarField.zeros(g), 0.0), forcing, params, dt


def _fail_at_step(k, monkeypatch):
    """Make step k of every sweep raise RuntimeError, a failure that is no
    input error: each Stepper counts its own forward steps."""
    forward_step_hat = Stepper.forward_step_hat

    def failing(self, *args):
        self.steps_taken = getattr(self, "steps_taken", 0) + 1
        if self.steps_taken == k + 1:
            raise RuntimeError(f"step {k} failed")
        return forward_step_hat(self, *args)

    monkeypatch.setattr(Stepper, "forward_step_hat", failing)


def _growing_phi_inputs(shape):
    """(initial, params): phi = 1e295 sin x at rest, under the
    anti-diffusive F = -5e3 phi^2 and a zero kernel, so u stays zero and
    phi grows about tenfold a step until the transform of F'(phi)
    overflows while phi is still finite."""
    g = TorusGrid(*shape)
    params = ModelParams(g, Kernel("gaussian", 0.5, 0.0, g), Potential.polynomial((0.0, 0.0, -5e3)))
    phi = ScalarField(g, 1e295 * np.sin(g.X))
    return FlowState(VectorField.zeros(g), phi, 0.0), params


def _thread_recorder(monkeypatch):
    """{"step": ..., "node": ...}: the idents of the threads that run
    Stepper.forward_step_hat and forward.physical while the test runs."""
    seen = {"step": set(), "node": set()}

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Stepper, "forward_step_hat", recorded("step", Stepper.forward_step_hat))
    monkeypatch.setattr(forward, "physical", recorded("node", forward.physical))
    return seen


@pytest.mark.parametrize("n, on_worker", [(64, False), (96, True)])
def test_diagnostics_sweeps_use_the_worker_from_96x96(n, on_worker, double_well, monkeypatch):
    g = TorusGrid(n, n)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
    initial = FlowState(synth.taylor_green(g, 0.5), synth.sine_scalar(g, (1, 1), 0.1), 0.0)
    seen = _thread_recorder(monkeypatch)
    simulate(initial, None, None, params, SolverConfig(dt=1e-3, T=3e-3, nu=0.1))
    me = threading.get_ident()
    assert seen["step"] == {me}
    assert (me not in seen["node"]) == on_worker and len(seen["node"]) == 1


class TestNodeOverlap:
    """A diagnostics sweep finishes each node on a worker thread while the
    calling thread steps; its results and errors are a one-thread loop's.
    The worker is forced on here, since these grids are smaller than the
    ones simulate hands to it."""

    @pytest.fixture(autouse=True)
    def _worker_on_every_grid(self, monkeypatch):
        monkeypatch.setattr(forward, "_WORKER_MIN_POINTS", 0)

    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_results_match_one_thread_sweep_bitwise(self, shape, double_well):
        initial, control, forcing, params, cfg = _forced_controlled_inputs(shape, double_well)
        on = simulate(initial, control, forcing, params, cfg)
        off = simulate(initial, control, forcing, params, cfg, with_diagnostics=False)
        states, rows = _one_thread_sweep(initial, control, forcing, params, cfg, True)
        assert len(on) == len(off) == len(states) == cfg.n_steps + 1
        for a, b, ref in zip(on.states, off.states, states):
            for s in (a, b):
                assert s.t == ref.t
                assert np.array_equal(s.u.u_x, ref.u.u_x)
                assert np.array_equal(s.u.u_y, ref.u.u_y)
                assert np.array_equal(s.phi.values, ref.phi.values)
        expected = _diagnostic_series(rows, cfg.dt)
        assert on.diagnostics.keys() == expected.keys()
        for key, series in expected.items():
            assert np.array_equal(on.diagnostics[key], series), key

    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    def test_cfl_violation_at_a_later_node(self, shape, with_diagnostics, double_well):
        initial, forcing, params, dt = _accelerated_flow_inputs(shape, double_well)

        def run(sweep):
            return _first_failure(
                lambda cfg: sweep(initial, None, forcing, params, cfg, with_diagnostics), dt, 6
            )

        got = run(simulate)
        # node 4 is checked once a step leaves it, in a run of 5 steps
        assert got[:2] == (5, StabilityError)
        assert got == run(_one_thread_sweep)

    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_blowup_raises_numeric_error_with_diagnostics(self, shape, double_well):
        g = TorusGrid(*shape)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
        state = FlowState(VectorField.zeros(g), ScalarField(g, 50.0 * np.sin(g.X)), 0.0)

        def run(sweep):
            return _first_failure(lambda cfg: sweep(state, None, None, params, cfg, True), 0.5, 8)

        with np.errstate(all="ignore"):
            got = run(simulate)
            assert got is not None and issubclass(got[1], NumericError)
            assert got == run(_one_thread_sweep)

    @pytest.mark.parametrize("shape", DIAGNOSTIC_GRIDS)
    def test_non_finite_chemical_potential_at_a_later_node(self, shape):
        initial, params = _growing_phi_inputs(shape)

        def run(sweep, with_diagnostics=True):
            return _first_failure(
                lambda cfg: sweep(initial, None, None, params, cfg, with_diagnostics), 1e-3, 12
            )

        with np.errstate(all="ignore"):
            got = run(simulate)
            assert got[0] > 1
            assert got[1:] == (NumericError, "chemical potential is non-finite")
            assert got == run(_one_thread_sweep)
            # without diagnostics the overflow surfaces one node later
            assert run(simulate, False)[1:] == (NumericError, "state contains non-finite values")

    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    def test_a_nodes_error_comes_before_its_steps(self, params16, with_diagnostics, monkeypatch):
        # node 0 fails its CFL check and step 0 fails too; a one-thread
        # loop checks the node first
        g = params16.grid
        wild = VectorField(g, np.full(g.shape, 1e4), np.zeros(g.shape))
        state = FlowState(wild, ScalarField.zeros(g), 0.0)
        cfg = SolverConfig(dt=1e-3, T=2e-3, nu=0.1)
        _fail_at_step(0, monkeypatch)
        with pytest.raises(StabilityError):
            simulate(state, None, None, params16, cfg, with_diagnostics)

    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    @pytest.mark.parametrize("form", ["constant", "moved-at-node-4"])
    def test_a_foreign_grid_force_fails_before_any_step(
        self, params16, g32, form, with_diagnostics, monkeypatch
    ):
        # an input error comes before every node and step, even node 0's
        # failing CFL check
        g = params16.grid
        wild = VectorField(g, np.full(g.shape, 1e4), np.zeros(g.shape))
        state = FlowState(wild, ScalarField.zeros(g), 0.0)
        cfg = SolverConfig(dt=1e-3, T=7e-3, nu=0.1)
        f = synth.taylor_green(g, 0.1)
        other = TorusGrid(g.n_x, g.n_y, 2.0 * g.l_x, g.l_y)
        if form == "constant":
            forcing = VectorField.zeros(g32)
        else:
            forcing = [f] * 4 + [VectorField(other, f.u_x, f.u_y)] * 4

        def stepped(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(Stepper, "forward_step_hat", stepped)
        with pytest.raises(ValidationError, match="forcing grid does not match"):
            simulate(state, None, forcing, params16, cfg, with_diagnostics)

    def test_worker_keeps_the_callers_numpy_error_state(self):
        # the worker's overflows are silenced like the caller's; a warning
        # raised on the worker would surface here as a RuntimeWarning
        initial, params = _growing_phi_inputs((64, 64))
        cfg = SolverConfig(dt=1e-3, T=0.012, nu=0.1)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="chemical potential"):
                simulate(initial, None, None, params, cfg)

    def test_no_thread_outlives_the_call(self, double_well):
        before = threading.active_count()
        initial, control, forcing, params, cfg = _forced_controlled_inputs(
            (32, 48, TWO_PI, 3.0 * np.pi), double_well
        )
        simulate(initial, control, forcing, params, cfg)
        assert threading.active_count() == before
        initial, params = _growing_phi_inputs((32, 48, TWO_PI, 3.0 * np.pi))
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            simulate(initial, None, None, params, SolverConfig(dt=1e-3, T=0.012, nu=0.1))
        assert threading.active_count() == before

    def test_concurrent_sweeps_under_fast_thread_switching(self, params16, smooth_state16):
        # four sweeps and their four workers on two cores, switching threads
        # every microsecond: a lost or crossed handoff would change a result
        cfg = SolverConfig(dt=1e-3, T=0.02, nu=0.1)
        forcing = synth.single_mode_velocity(params16.grid, (1, 0), 0.1)
        states, rows = _one_thread_sweep(smooth_state16, None, forcing, params16, cfg, True)
        expected = _diagnostic_series(rows, cfg.dt)
        results = [None] * 4

        def run(i):
            results[i] = simulate(smooth_state16, None, forcing, params16, cfg)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for traj in results:
            for s, ref in zip(traj.states, states, strict=True):
                assert np.array_equal(s.u.u_x, ref.u.u_x)
                assert np.array_equal(s.phi.values, ref.phi.values)
            for key, series in expected.items():
                assert np.array_equal(traj.diagnostics[key], series), key

    def test_steps_stay_on_the_calling_thread(self, double_well, monkeypatch):
        seen = _thread_recorder(monkeypatch)
        initial, control, forcing, params, cfg = _forced_controlled_inputs(
            (32, 48, TWO_PI, 3.0 * np.pi), double_well
        )
        me = threading.get_ident()
        simulate(initial, control, forcing, params, cfg)
        assert seen["step"] == {me}
        assert len(seen["node"]) == 1 and me not in seen["node"]
        seen["node"].clear()
        simulate(initial, control, forcing, params, cfg, with_diagnostics=False)
        assert seen == {"step": {me}, "node": {me}}


KEEP_GRIDS = [
    pytest.param((16, 16, TWO_PI, TWO_PI), id="16x16"),
    pytest.param((32, 48, TWO_PI, 3.0 * np.pi), id="32x48-anisotropic"),
    pytest.param((96, 96, TWO_PI, TWO_PI), id="96x96-worker"),
]
KEEPS = [
    pytest.param((), id="ends-only"),
    pytest.param(range(0, 21, 3), id="every-third"),
    pytest.param([7, 2, 7, np.int64(11)], id="unordered-repeated"),
]


class TestKeep:
    """simulate(keep=...) holds the named nodes, 0 and N only.  Every node
    is still computed, checked and its row taken, so what the record
    holds and what the sweep raises are a full record's."""

    @pytest.mark.parametrize("keep", KEEPS)
    @pytest.mark.parametrize("shape", KEEP_GRIDS)
    def test_kept_nodes_match_a_full_record_bitwise(self, shape, keep, double_well):
        inputs = _forced_controlled_inputs(shape, double_well)
        full = simulate(*inputs)
        part = simulate(*inputs, keep=keep)
        n_steps = inputs[-1].n_steps
        kept = {0, n_steps, *map(int, keep)}
        assert len(part) == len(full) == n_steps + 1
        for n, (a, b) in enumerate(zip(part.states, full.states, strict=True)):
            if n not in kept:
                assert a is None
                continue
            assert a.t == b.t
            assert np.array_equal(a.u.u_x, b.u.u_x)
            assert np.array_equal(a.u.u_y, b.u.u_y)
            assert np.array_equal(a.phi.values, b.phi.values)
        assert part.initial is part.states[0] and part.final is part.states[-1]
        assert part.grid == full.grid and part.n_steps == full.n_steps
        assert part.diagnostics.keys() == full.diagnostics.keys()
        for key, series in full.diagnostics.items():
            assert np.array_equal(part.diagnostics[key], series), key

    def test_times_are_the_node_times_bitwise(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.007, nu=0.1)
        full = simulate(smooth_state16, None, None, params16, cfg)
        part = simulate(smooth_state16, None, None, params16, cfg, keep=())
        assert np.array_equal(full.times, [s.t for s in full.states])
        assert np.array_equal(part.times, full.times)
        tang = tangent_solve(full, None, None, None, params16, cfg, start_node=3)
        assert tang.states[:3] == [None] * 3
        assert np.array_equal(tang.times, full.times)
        assert np.array_equal(tang.times[3:], [s.t for s in tang.states[3:]])

    @pytest.mark.parametrize(
        "keep",
        [5, 2.0, "12", [1.5], [True], [-1], [11], [None], [[1]]],
        ids=["int", "float", "str", "float-node", "bool-node", "negative", "beyond-N",
             "none-node", "list-node"],
    )
    def test_a_bad_keep_fails_before_the_first_step(
        self, keep, params16, smooth_state16, monkeypatch
    ):
        def stepped(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(Stepper, "forward_step_hat", stepped)
        cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
        with pytest.raises(ValidationError, match="keep"):
            simulate(smooth_state16, None, None, params16, cfg, keep=keep)


class _SinkFailed(Exception):
    """An error of a caller's sink, no error of the package."""


class TestSink:
    """simulate(sink=...) hands each node's state to the sink once, in node
    order, from the thread that finishes the node, after its checks."""

    @pytest.mark.parametrize(
        "n, worker", [(96, True), (32, False)], ids=["96x96-worker", "32x32-one-thread"]
    )
    def test_once_per_node_in_order_on_the_finishing_thread(self, n, worker, double_well):
        inputs = _forced_controlled_inputs((n, n, TWO_PI, TWO_PI), double_well)
        calls = []

        def sink(node, state):
            calls.append((node, threading.current_thread().name, state))

        full = simulate(*inputs)
        part = simulate(*inputs, keep=(), sink=sink)
        assert [c[0] for c in calls] == list(range(len(full)))
        names = {c[1] for c in calls}
        if worker:
            assert len(names) == 1 and names.pop().startswith("chnsopt-nodes")
        else:
            assert names == {threading.current_thread().name}
        for (_, _, got), want in zip(calls, full.states, strict=True):
            assert got.t == want.t
            assert np.array_equal(got.u.u_x, want.u.u_x)
            assert np.array_equal(got.u.u_y, want.u.u_y)
            assert np.array_equal(got.phi.values, want.phi.values)
        assert part.states[1:-1] == [None] * (len(full) - 2)
        assert part.initial is calls[0][2] and part.final is calls[-1][2]
        for key, series in full.diagnostics.items():
            assert np.array_equal(part.diagnostics[key], series), key

    @pytest.mark.parametrize("worker", [False, True], ids=["one-thread", "worker"])
    def test_a_sinks_error_reaches_the_caller_with_its_type(
        self, worker, double_well, monkeypatch
    ):
        monkeypatch.setattr(forward, "_WORKER_MIN_POINTS", 0 if worker else 10**9)
        inputs = _forced_controlled_inputs((32, 48, TWO_PI, 3.0 * np.pi), double_well)
        seen = []

        def sink(node, state):
            seen.append(node)
            if node == 3:
                raise _SinkFailed(f"node {node}")

        with pytest.raises(_SinkFailed, match="node 3"):
            simulate(*inputs, keep=(), sink=sink)
        assert seen == [0, 1, 2, 3]

    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    def test_a_node_that_fails_its_check_is_not_sunk(
        self, with_diagnostics, double_well, monkeypatch
    ):
        # node 4 fails its CFL check (see _accelerated_flow_inputs)
        monkeypatch.setattr(forward, "_WORKER_MIN_POINTS", 0)
        initial, forcing, params, dt = _accelerated_flow_inputs((16, 16, TWO_PI, TWO_PI),
                                                                double_well)
        seen = []
        with pytest.raises(StabilityError):
            simulate(initial, None, forcing, params, SolverConfig(dt=dt, T=7 * dt, nu=0.1),
                     with_diagnostics, keep=(), sink=lambda n, s: seen.append(n))
        assert seen == [0, 1, 2, 3]


def _error_of(run):
    """(type, message) of the NumericError run raises, or None."""
    try:
        run()
    except NumericError as exc:
        return type(exc), str(exc)
    return None


class TestKeepErrors:
    """The node-overlap error cases in a run longer than the shortest that
    fails, so the failing node is one that keep=() drops: the error is a
    full record's, on the worker and on the calling thread."""

    @pytest.fixture(autouse=True, params=[False, True], ids=["one-thread", "worker"])
    def _worker(self, request, monkeypatch):
        monkeypatch.setattr(forward, "_WORKER_MIN_POINTS", 0 if request.param else 10**9)

    @staticmethod
    def _same_error_dropped(sweep, dt, max_steps):
        """(type, message) of the failure of a run two steps longer than the
        shortest failing one, asserted the same with keep=() as full."""
        k, *error = _first_failure(lambda cfg: sweep(cfg, None), dt, max_steps)
        cfg = SolverConfig(dt=dt, T=(k + 2) * dt, nu=0.1)
        assert _error_of(lambda: sweep(cfg, None)) == tuple(error)
        assert _error_of(lambda: sweep(cfg, ())) == tuple(error)
        return tuple(error)

    @pytest.mark.parametrize("shape", KEEP_GRIDS[:2])
    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    def test_cfl_violation_at_a_dropped_node(self, shape, with_diagnostics, double_well):
        initial, forcing, params, dt = _accelerated_flow_inputs(shape, double_well)
        error = self._same_error_dropped(
            lambda cfg, keep: simulate(
                initial, None, forcing, params, cfg, with_diagnostics, keep=keep
            ),
            dt,
            6,
        )
        assert error[0] is StabilityError

    @pytest.mark.parametrize("shape", KEEP_GRIDS[:2])
    def test_blowup_at_a_dropped_node(self, shape, double_well):
        g = TorusGrid(*shape)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), double_well)
        state = FlowState(VectorField.zeros(g), ScalarField(g, 50.0 * np.sin(g.X)), 0.0)
        with np.errstate(all="ignore"):
            error = self._same_error_dropped(
                lambda cfg, keep: simulate(state, None, None, params, cfg, keep=keep), 0.5, 8
            )
        assert issubclass(error[0], NumericError)

    @pytest.mark.parametrize("shape", KEEP_GRIDS[:2])
    def test_non_finite_chemical_potential_at_a_dropped_node(self, shape):
        initial, params = _growing_phi_inputs(shape)
        with np.errstate(all="ignore"):
            error = self._same_error_dropped(
                lambda cfg, keep: simulate(initial, None, None, params, cfg, keep=keep), 1e-3, 12
            )
        assert error == (NumericError, "chemical potential is non-finite")

    @pytest.mark.parametrize("shape", KEEP_GRIDS[:2])
    @pytest.mark.parametrize("with_diagnostics", [False, True], ids=["plain", "diagnostics"])
    def test_a_dropped_nodes_error_comes_before_its_steps(
        self, shape, with_diagnostics, double_well, monkeypatch
    ):
        # node 4 fails its CFL check and step 4 fails too
        initial, forcing, params, dt = _accelerated_flow_inputs(shape, double_well)
        cfg = SolverConfig(dt=dt, T=7 * dt, nu=0.1)
        _fail_at_step(4, monkeypatch)
        for keep in (None, ()):
            with pytest.raises(StabilityError, match="CFL"):
                simulate(initial, None, forcing, params, cfg, with_diagnostics, keep=keep)


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
