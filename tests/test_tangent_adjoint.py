import threading
import tracemalloc

import numpy as np
import pytest

from chnsopt import (
    AdjointMode,
    AssimilationProblem,
    ControlSignal,
    CostTargets,
    CostWeights,
    DistributedControlProblem,
    FlowState,
    InitialVelocityProblem,
    Kernel,
    ModelParams,
    NumericError,
    Potential,
    ScalarField,
    SolverConfig,
    TorusGrid,
    ValidationError,
    VectorField,
    adjoint_solve,
    duality_gap,
    reduced_gradient_da,
    reduced_gradient_ocp,
    relative_divergence,
    simulate,
    tangent_solve,
    terminal_adjoint_data,
)
from chnsopt import assimilation, control, synth
from chnsopt import tangent_adjoint
from chnsopt.forward import Frame, Stepper, physical, spectral
from chnsopt.tangent_adjoint import (
    reference_transforms,
    running_cost,
    tracking_pairing,
    tracking_references,
    tracking_sources,
)

TWO_PI = 2.0 * np.pi


def _rest_trajectory(params, cfg):
    g = params.grid
    state = FlowState(VectorField.zeros(g), ScalarField.zeros(g), 0.0)
    return simulate(state, None, None, params, cfg, with_diagnostics=False)


def _ramp_signal(grid, n_nodes, dt, amplitude=1.0, mode=(1, 2)):
    v = synth.single_mode_velocity(grid, mode, amplitude)
    fields = [v * (n / max(1, n_nodes - 1)) for n in range(n_nodes)]
    return ControlSignal(ControlSignal.DISTRIBUTED, fields=fields, dt=dt)


class TestTangent:
    def test_zero_data_stays_zero(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        tang = tangent_solve(base, None, None, None, params16, cfg)
        for ts in tang.states:
            assert ts.w.norm() == 0.0
            assert ts.psi.norm() == 0.0

    def test_doubling_the_input_doubles_the_output_bitwise(
        self, params16, smooth_state16
    ):
        # every update is linear in (w, psi, delta) and scaling by 2 only
        # shifts float exponents, so homogeneity holds without roundoff
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        sig = _ramp_signal(params16.grid, len(base), cfg.dt, 0.3)
        t1 = tangent_solve(base, sig, None, None, params16, cfg)
        t2 = tangent_solve(base, sig.scaled(2.0), None, None, params16, cfg)
        assert np.array_equal(t2.final.w.u_x, 2.0 * t1.final.w.u_x)
        assert np.array_equal(t2.final.psi.values, 2.0 * t1.final.psi.values)

    def test_generic_scaling_to_roundoff(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        sig = _ramp_signal(params16.grid, len(base), cfg.dt, 0.3)
        t1 = tangent_solve(base, sig, None, None, params16, cfg)
        t2 = tangent_solve(base, sig.scaled(0.3), None, None, params16, cfg)
        assert np.allclose(t2.final.w.u_x, 0.3 * t1.final.w.u_x, atol=1e-13)
        assert np.allclose(t2.final.psi.values, 0.3 * t1.final.psi.values, atol=1e-13)

    def test_difference_quotients_converge_at_first_order(
        self, params16, smooth_state16
    ):
        cfg = SolverConfig(dt=1e-3, T=0.02, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        sig = _ramp_signal(params16.grid, len(base), cfg.dt, 1.0)
        tang = tangent_solve(base, sig, None, None, params16, cfg)
        wT, psT = tang.final.w, tang.final.psi
        rems = []
        hs = (1e-1, 1e-2, 1e-3)
        for h in hs:
            pert = simulate(
                smooth_state16, sig.scaled(h), None, params16, cfg,
                with_diagnostics=False,
            )
            du = (pert.final.u - base.final.u) * (1.0 / h) - wT
            dphi = ScalarField(
                params16.grid,
                (pert.final.phi.values - base.final.phi.values) / h - psT.values,
            )
            rems.append(np.hypot(du.norm(), dphi.norm()))
        o1 = np.log(rems[0] / rems[1]) / np.log(10.0)
        o2 = np.log(rems[1] / rems[2]) / np.log(10.0)
        assert 0.8 <= o1 <= 1.2
        assert 0.8 <= o2 <= 1.2

    def test_initial_data_propagates_without_control(self, params16, smooth_state16):
        # a viscous decay check on the tangent itself: rest base, seed on
        # one transverse mode, no coupling terms survive
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = _rest_trajectory(params16, cfg)
        seed = synth.single_mode_velocity(g, (1, 0), 0.4)
        tang = tangent_solve(base, None, seed, None, params16, cfg)
        expect = seed.norm() / (1.0 + cfg.nu * cfg.dt) ** 5
        assert tang.final.w.norm() == pytest.approx(expect, rel=1e-12)
        assert tang.final.psi.norm() == 0.0

    def test_start_node_indexing(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        seed = synth.single_mode_velocity(params16.grid, (1, 0), 0.4)
        tang = tangent_solve(base, None, seed, None, params16, cfg, start_node=2)
        assert len(tang) == 6
        assert tang.states[:2] == [None, None]
        assert tang.states[2].t == pytest.approx(2e-3)
        assert tang.final.t == pytest.approx(5e-3)

    def test_rejects_bad_inputs(self, params16, smooth_state16, g32):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        other = SolverConfig(dt=2e-3, T=4e-3, nu=0.1)
        with pytest.raises(ValidationError):
            tangent_solve(base, None, None, None, params16, other)
        with pytest.raises(ValidationError, match="base trajectory dt does not match"):
            adjoint_solve(base, AdjointMode.DISTRIBUTED, CostTargets(), params16, other)
        with pytest.raises(ValidationError):
            tangent_solve(base, None, None, None, params16, cfg, start_node=9)
        with pytest.raises(ValidationError):
            tangent_solve(
                base, None, VectorField.zeros(g32), None, params16, cfg
            )
        # both on one other grid: the pair agrees, the grid does not
        with pytest.raises(ValidationError, match="tangent initial data on wrong grid"):
            tangent_solve(
                base, None, VectorField.zeros(g32), ScalarField.zeros(g32), params16, cfg
            )

    def test_overflow_raises_numeric_error(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        w0 = synth.taylor_green(params16.grid, 1e306)
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            tangent_solve(base, None, w0, None, params16, cfg)

    @pytest.mark.parametrize("kind", ["list", "control-signal"])
    def test_a_short_control_fails_before_the_first_step(
        self, kind, params16, smooth_state16, monkeypatch
    ):
        cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        f = synth.taylor_green(params16.grid, 0.1)
        short = [f] * 5 if kind == "list" else ControlSignal.constant(f, 5, cfg.dt)

        def assembled(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(Stepper, "assemble", assembled)
        for start in (0, 7):
            with pytest.raises(ValidationError, match="has 5 time nodes, the sweep reads 11"):
                tangent_solve(base, short, None, None, params16, cfg, start_node=start)


class TestAdjoint:
    def test_terminal_pair_is_projected_and_weighted(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        weights = CostWeights(final_u=2.0, final_phi=0.5)
        targets = CostTargets(weights=weights)
        p_T, eta_T = terminal_adjoint_data(base, AdjointMode.DISTRIBUTED, targets)
        assert relative_divergence(p_T) <= 1e-13
        assert np.allclose(
            eta_T.values, 0.5 * base.final.phi.values, atol=1e-15
        )

    def test_matched_references_give_identically_zero_adjoint(
        self, params16, smooth_state16
    ):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        targets = CostTargets(
            u_d=[s.u for s in base.states],
            phi_d=[s.phi for s in base.states],
            u_f=base.final.u,
            phi_f=base.final.phi,
        )
        adj = adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params16, cfg)
        for a in adj.states:
            assert a.p.norm() == 0.0
            assert a.eta.norm() == 0.0

    def test_matched_measurements_give_zero_assimilation_adjoint(
        self, params16, smooth_state16
    ):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        targets = CostTargets(
            u_M=[s.u for s in base.states],
            phi_M=[s.phi for s in base.states],
            u_M_f=base.final.u,
            phi_M_f=base.final.phi,
        )
        adj = adjoint_solve(base, AdjointMode.ASSIMILATION, targets, params16, cfg)
        for a in adj.states:
            assert a.p.norm() == 0.0
            assert a.eta.norm() == 0.0

    def test_terminal_mismatch_decays_at_the_viscous_rate(self, params16):
        # rest base, final_u reference picked so p(T) is one |k|^2 = 1 mode
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = _rest_trajectory(params16, cfg)
        v = synth.single_mode_velocity(g, (1, 0), 0.4)
        targets = CostTargets(u_f=v * (-1.0), weights=CostWeights(track_phi=0.0))
        adj = adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params16, cfg)
        for n in range(6):
            expect = v.norm() / (1.0 + cfg.nu * cfg.dt) ** (5 - n)
            assert adj.states[n].p.norm() == pytest.approx(expect, rel=1e-12), n
            assert adj.states[n].eta.norm() == 0.0

    def test_tracking_source_accumulates_geometrically(self, params16):
        # rest base again; a constant velocity reference makes the adjoint
        # momentum equation a forced viscous decay with a closed form
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = _rest_trajectory(params16, cfg)
        v = synth.single_mode_velocity(g, (2, 0), 0.5)
        targets = CostTargets(u_M=v * (-1.0), weights=CostWeights(track_phi=0.0))
        adj = adjoint_solve(base, AdjointMode.ASSIMILATION, targets, params16, cfg)
        r = 1.0 / (1.0 + 4.0 * cfg.nu * cfg.dt)
        coeff = cfg.dt * sum(r**j for j in range(1, 6))
        assert np.allclose(adj.initial.p.u_y, coeff * v.u_y, atol=1e-15)

    def test_distributed_mode_pairs_through_minus_laplacian(self, params16):
        # same construction in both modes on the |k|^2 = 4 shell: the
        # distributed source is -Lap applied to the mismatch, so the
        # whole adjoint is exactly 4 times the L2-paired one
        g = params16.grid
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = _rest_trajectory(params16, cfg)
        v = synth.single_mode_velocity(g, (2, 0), 0.5)
        w = CostWeights(track_phi=0.0)
        dist = adjoint_solve(
            base,
            AdjointMode.DISTRIBUTED,
            CostTargets(u_d=v * (-1.0), weights=w),
            params16,
            cfg,
        )
        assim = adjoint_solve(
            base,
            AdjointMode.ASSIMILATION,
            CostTargets(u_M=v * (-1.0), weights=w),
            params16,
            cfg,
        )
        assert np.allclose(
            dist.initial.p.u_y, 4.0 * assim.initial.p.u_y, atol=1e-15
        )

    def test_adjoint_velocity_stays_divergence_free(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=0.01, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        targets = CostTargets()
        adj = adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params16, cfg)
        assert max(relative_divergence(a.p) for a in adj.states) <= 1e-12

    def test_node_bookkeeping(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        adj = adjoint_solve(base, AdjointMode.DISTRIBUTED, CostTargets(), params16, cfg)
        assert len(adj) == 6
        assert adj.initial is adj.states[0]
        assert adj.states[3].t == pytest.approx(3e-3)

    def test_overflow_raises_numeric_error(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        targets = CostTargets(weights=CostWeights(track_u=1e307))
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params16, cfg)


SOURCE_GRIDS = [
    pytest.param((64, 64, TWO_PI, TWO_PI), id="64x64"),
    pytest.param((32, 48, TWO_PI, 3.0 * np.pi), id="32x48-aniso"),
]


def _tracked_run(args, refs, T=3e-3):
    """A short forward run with non-unit tracking weights and references of
    one kind ("absent", "constant" or "node-indexed") set for both modes."""
    g = TorusGrid(*args)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
    cfg = SolverConfig(dt=1e-3, T=T, nu=0.1)
    rng = np.random.default_rng(g.n_x * 100 + g.n_y)
    initial = FlowState(
        synth.random_divfree_velocity(g, rng, 0.5, 4.0),
        synth.random_scalar(g, rng, 0.1, 4.0, mean=0.2),
        0.0,
    )
    base = simulate(initial, None, None, params, cfg, with_diagnostics=False)
    targets = CostTargets(
        u_M_f=VectorField.zeros(g),
        phi_M_f=ScalarField.zeros(g),
        weights=CostWeights(track_u=2.0, track_phi=0.5),
    )
    if refs == "constant":
        targets.u_d = targets.u_M = synth.random_divfree_velocity(g, rng, 0.4, 4.0)
        targets.phi_d = targets.phi_M = synth.random_scalar(g, rng, 0.1, 4.0, mean=0.1)
    elif refs == "node-indexed":
        targets.u_d = targets.u_M = [
            synth.random_divfree_velocity(g, rng, 0.4, 4.0) for _ in base.states
        ]
        targets.phi_d = targets.phi_M = [
            synth.random_scalar(g, rng, 0.1, 4.0, mean=0.1) for _ in base.states
        ]
    return base, targets, params, cfg


class TestSweepFrames:
    @pytest.mark.parametrize("sweep", ["tangent", "adjoint"])
    def test_frames_live_in_the_buffers_they_name(
        self, sweep, params16, smooth_state16, monkeypatch
    ):
        """Every field of a tangent or adjoint frame is a view of the
        Stepper buffer the frame names, and the base state's frame and the
        sweep's own name two buffers, so neither overwrites the other."""
        steps = []

        class Recorded(Frame):
            def __init__(self, st, *args):
                super().__init__(st, *args)
                extras, name = args[-2:]
                fields = [self.ux, self.uy, self.phi, *self.dux, *self.duy, *self.dphi]
                for e in extras:
                    part = getattr(self, e)
                    fields += part if isinstance(part, tuple) else [part]
                store = st.buffer(name, len(fields), float)
                assert all(np.shares_memory(f, store) for f in fields), name
                if name == "frame":
                    steps.append([])
                steps[-1].append((name, self.phi))

        monkeypatch.setattr(tangent_adjoint, "Frame", Recorded)
        cfg = SolverConfig(dt=1e-3, T=3e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        if sweep == "tangent":
            tangent_solve(base, None, None, smooth_state16.phi, params16, cfg)
        else:
            adjoint_solve(base, AdjointMode.DISTRIBUTED, CostTargets(), params16, cfg)
        assert len(steps) == 3
        for (c_name, c_phi), (d_name, d_phi) in steps:
            assert (c_name, d_name) == ("frame", "sweep frame")
            assert not np.shares_memory(c_phi, d_phi)


class TestTrackingPairing:
    def test_a_tangent_started_late_is_refused(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        seed = synth.single_mode_velocity(params16.grid, (1, 1), 0.4)
        tang = tangent_solve(base, None, seed, None, params16, cfg, start_node=4)
        targets = CostTargets(u_f=base.final.u * 0.5)
        with pytest.raises(ValidationError, match=r"no state at node 0 \(a sweep's keep"):
            tracking_pairing(base, tang, AdjointMode.DISTRIBUTED, targets)

    def test_a_tangent_of_another_length_is_refused(self, params16, smooth_state16):
        short, long = (SolverConfig(dt=1e-3, T=T, nu=0.1) for T in (1e-2, 2e-2))
        base = simulate(smooth_state16, None, None, params16, short, with_diagnostics=False)
        longer = simulate(smooth_state16, None, None, params16, long, with_diagnostics=False)
        seed = synth.single_mode_velocity(params16.grid, (1, 1), 0.4)
        tang = tangent_solve(longer, None, seed, None, params16, long)
        targets = CostTargets(u_f=base.final.u * 0.5)
        with pytest.raises(ValidationError, match="the tangent record has 21 nodes, the base 11"):
            tracking_pairing(base, tang, AdjointMode.DISTRIBUTED, targets)


class TestTrackingSources:
    @pytest.mark.parametrize("args", SOURCE_GRIDS)
    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("refs", ["absent", "constant", "node-indexed"])
    def test_transforms_of_the_physical_sources(
        self, args, mode, refs, tracking_sources_reference
    ):
        base, targets, params, cfg = _tracked_run(args, refs)
        g = params.grid
        ref_hats = reference_transforms(mode, targets, g, len(base))
        for n, s in enumerate(base.states):
            got = tracking_sources(mode, targets.weights, g, spectral(s.u, s.phi), ref_hats[n])
            want = tracking_sources_reference(mode, targets, s, n)
            for a, b in zip(got, want):
                bh = g.fft2(b)
                assert np.max(np.abs(a - bh)) <= 1e-13 * np.max(np.abs(bh)), n

    def test_problems_precomputed_transforms_are_bit_identical(self):
        base, targets, params, cfg = _tracked_run(
            (32, 48, TWO_PI, 3.0 * np.pi), "node-indexed"
        )
        problems = [
            DistributedControlProblem(base.initial, targets, None, params, cfg),
            InitialVelocityProblem(
                AssimilationProblem(targets, base.initial.phi, None, params, cfg)
            ),
        ]
        for problem in problems:
            given = adjoint_solve(base, problem.mode, targets, params, cfg, problem.ref_hats)
            own = adjoint_solve(base, problem.mode, targets, params, cfg)
            for a, b in zip(given.states, own.states):
                assert np.array_equal(a.p.u_x, b.p.u_x)
                assert np.array_equal(a.p.u_y, b.p.u_y)
                assert np.array_equal(a.eta.values, b.eta.values)


class TestSourcesDifferentiateTheRunningCost:
    @pytest.mark.parametrize(
        "args",
        [pytest.param((16, 16, TWO_PI, TWO_PI), id="16x16"), SOURCE_GRIDS[1]],
    )
    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    def test_central_difference_of_the_running_cost(self, args, mode):
        """At every node the tracking sources paired with a direction (V, P)
        are the derivative of running_cost along it.  The state and the
        direction carry Nyquist content, where the distributed mode's
        gradient norm zeroes the derivative; the cost is quadratic in the
        state, so the central difference is exact up to rounding."""
        g = TorusGrid(*args)
        rng = np.random.default_rng(g.n_x * 100 + g.n_y)
        alt = np.broadcast_to((-1.0) ** np.arange(g.n_x)[:, None], g.shape)
        tg = synth.taylor_green(g, 0.5)
        state = FlowState(
            VectorField(g, tg.u_x, tg.u_y + 0.3 * alt),
            synth.sine_scalar(g, (1, 1), 0.1, mean=0.2),
            0.0,
        )

        def field():
            return rng.standard_normal(g.shape) + 0.3 * alt

        n_nodes = 3
        targets = CostTargets(weights=CostWeights(track_u=2.0, track_phi=0.5, control=1.5))
        targets.u_d = targets.u_M = [VectorField(g, field(), field()) for _ in range(n_nodes)]
        targets.phi_d = targets.phi_M = [ScalarField(g, field()) for _ in range(n_nodes)]
        V, P = VectorField(g, field(), field()), ScalarField(g, field())
        U = synth.taylor_green(g, 0.7)
        ref_hats = reference_transforms(mode, targets, g, n_nodes)
        u_refs, phi_refs = tracking_references(mode, targets, g, n_nodes)
        h = 1e-3
        shifted = [FlowState(state.u + V * e, state.phi + P * e, 0.0) for e in (h, -h)]
        for n in range(n_nodes):
            plus, minus = (
                running_cost(mode, targets.weights, s, (u_refs[n], phi_refs[n]), (U.u_x, U.u_y))
                for s in shifted
            )
            fd = (plus - minus) / (2.0 * h)
            src = tracking_sources(
                mode, targets.weights, g, spectral(state.u, state.phi), ref_hats[n]
            )
            paired = sum(
                g.inner(g.ifft2(a), b) for a, b in zip(src, (V.u_x, V.u_y, P.values))
            )
            assert paired == pytest.approx(fd, rel=1e-10), n


class TestTangentBuffers:
    @pytest.mark.parametrize("control", ["none", "constant"])
    @pytest.mark.parametrize("args", [(64, 64, TWO_PI, TWO_PI), (32, 48, TWO_PI, 3.0 * np.pi)],
                             ids=["64x64", "32x48"])
    def test_a_warmed_step_allocates_its_results_only(self, args, control, monkeypatch):
        """Tooling: a warmed tangent step, with no control or one constant
        in time, allocates nothing field-sized but the three half spectra
        it advances to, measured as TestAdjointSink measures the adjoint's:
        each step is cut into pieces at the calls it makes and the traced
        peak of every piece above its start is summed.  A step starts with
        the base state's transform; the node's back-transform (physical,
        the state the record holds) is counted apart.  A step that formed
        its products as fresh arrays summed to 9.1 half spectra at 64^2
        and 9.4 at 32x48 here."""
        base, _, params, cfg = _tracked_run(args, "absent", T=8e-3)
        delta = None if control == "none" else synth.single_mode_velocity(params.grid, (1, 2))
        steps, apart, start = [], [], [0]

        def cut(into):
            if into:
                into[-1] += tracemalloc.get_traced_memory()[1] - start[0]
            tracemalloc.reset_peak()
            start[0] = tracemalloc.get_traced_memory()[0]

        def piece(fn, into, opens=False):
            def wrapper(*a, **k):
                cut(steps)
                if opens:
                    into.append(0)
                out = fn(*a, **k)
                cut(into)
                return out

            return wrapper

        monkeypatch.setattr(tangent_adjoint, "spectral", piece(spectral, steps, True))
        monkeypatch.setattr(tangent_adjoint, "physical", piece(physical, apart, True))
        monkeypatch.setattr(tangent_adjoint, "Frame", piece(Frame, steps))
        for name in ("assemble", "advance"):
            monkeypatch.setattr(Stepper, name, piece(getattr(Stepper, name), steps))
        tracemalloc.start()
        try:
            tangent_solve(base, delta, None, None, params, cfg)
        finally:
            tracemalloc.stop()
        # the initial transform, then 8 steps; the first two warm the Stepper
        assert (len(steps), len(apart)) == (9, 8)
        half_spectrum = 16 * args[0] * (args[1] // 2 + 1)
        assert max(steps[3:]) <= 4 * half_spectrum


class TestAdjointTransformBudget:
    @staticmethod
    def _per_step(mode, counter, key):
        """Transform count per adjoint step, with the reference transforms
        given, from the difference of two horizons."""
        used = {}
        for T in (3e-3, 5e-3):
            base, targets, params, cfg = _tracked_run((64, 64, TWO_PI, TWO_PI), "node-indexed", T)
            ref_hats = reference_transforms(mode, targets, params.grid, len(base))
            counter[key] = 0
            adjoint_solve(base, mode, targets, params, cfg, ref_hats)
            used[base.n_steps] = counter[key]
        return (used[5] - used[3]) / 2

    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    def test_at_most_33_transforms_per_step(self, mode, transform_counter):
        """With the reference transforms given, a step transforms nothing
        it already holds (40 per distributed and 36 per assimilation step
        when the sources went through physical space)."""
        assert self._per_step(mode, transform_counter, "fields") <= 33

    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    def test_at_most_5_calls_per_step(self, mode, transform_counter):
        """A step transforms each group of fields in one call: the base
        state, the two frames, the right-hand side and the new state."""
        assert self._per_step(mode, transform_counter, "calls") <= 5


class TestAdjointKeep:
    """adjoint_solve(keep=...) holds the named nodes, 0 and N only, as
    simulate's keep does; only those are transformed back and checked, so
    the sweep's memory does not grow with N."""

    ANISO = (32, 48, TWO_PI, 3.0 * np.pi)

    @pytest.mark.parametrize(
        "keep", [5, 2.0, True, [1.5], [True], [-1], [11]],
        ids=["int", "float", "bool", "float-node", "bool-node", "negative", "beyond-N"],
    )
    def test_a_bad_keep_fails_before_the_first_step(
        self, keep, params16, smooth_state16, monkeypatch
    ):
        cfg = SolverConfig(dt=1e-3, T=1e-2, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)

        def stepped(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(tangent_adjoint, "Frame", stepped)
        with pytest.raises(ValidationError, match="keep"):
            adjoint_solve(base, AdjointMode.ASSIMILATION, CostTargets(), params16, cfg, keep=keep)

    @pytest.mark.parametrize("keep", [(), (3,), [np.int64(2), 4]], ids=["empty", "one", "two"])
    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    def test_kept_nodes_match_a_full_record_bitwise(self, mode, keep):
        base, targets, params, cfg = _tracked_run(self.ANISO, "node-indexed", T=6e-3)
        full = adjoint_solve(base, mode, targets, params, cfg)
        part = adjoint_solve(base, mode, targets, params, cfg, keep=keep)
        kept = {0, 6, *map(int, keep)}
        assert len(part) == len(full) == 7
        for n, (a, b) in enumerate(zip(part.states, full.states, strict=True)):
            if n not in kept:
                assert a is None, n
                continue
            assert a.t == b.t
            assert np.array_equal(a.p.u_x, b.p.u_x)
            assert np.array_equal(a.p.u_y, b.p.u_y)
            assert np.array_equal(a.eta.values, b.eta.values)
        assert part.initial is part.states[0] and part.final is part.states[-1]
        with pytest.raises(ValidationError, match=r"no state at node 1 \(a sweep's keep"):
            part.every_node()

    def test_the_assimilation_gradient_keeps_p0_only(self, monkeypatch):
        """InitialVelocityProblem.gradient asks adjoint_solve, by that name,
        for keep=(), and its gradient is the full record's bit for bit."""
        base, targets, params, cfg = _tracked_run(self.ANISO, "node-indexed", T=6e-3)
        problem = InitialVelocityProblem(
            AssimilationProblem(targets, base.initial.phi, None, params, cfg)
        )
        records = []

        def recorded(*args, **kwargs):
            records.append(adjoint_solve(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(assimilation, "adjoint_solve", recorded)
        U = ControlSignal(ControlSignal.INITIAL, initial=base.initial.u)
        G = problem.gradient(U, base).initial
        assert [s is None for s in records[0].states] == [False] + [True] * 5 + [False]
        full = adjoint_solve(base, problem.mode, targets, params, cfg, problem.ref_hats)
        want = reduced_gradient_da(base.initial.u, full, targets.weights)
        assert np.array_equal(G.u_x, want.u_x) and np.array_equal(G.u_y, want.u_y)

    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    def test_thirty_transforms_per_step_but_the_last(self, mode, transform_counter):
        """keep=() skips a step's inverse transform of the new state (3 of
        its 33) at every node but node 0."""
        used = {}
        for T in (3e-3, 5e-3):
            base, targets, params, cfg = _tracked_run((32, 32, TWO_PI, TWO_PI), "node-indexed", T)
            ref_hats = reference_transforms(mode, targets, params.grid, len(base))
            for keep in (None, ()):
                transform_counter["fields"] = 0
                adjoint_solve(base, mode, targets, params, cfg, ref_hats, keep=keep)
                used[base.n_steps, keep] = transform_counter["fields"]
        assert (used[5, ()] - used[3, ()]) / 2 == 30
        assert (used[5, None] - used[3, None]) / 2 == 33
        for n in (3, 5):
            assert used[n, None] - used[n, ()] == 3 * (n - 1)

    def test_peak_memory_is_flat_in_the_step_count(self):
        """Tooling: an assimilation sweep with keep=() holds no state per
        node (a full record adds three fields per node)."""
        mode = AdjointMode.ASSIMILATION
        peaks = {}
        for n_steps in (2, 10):
            base, targets, params, cfg = _tracked_run(
                (32, 32, TWO_PI, TWO_PI), "node-indexed", n_steps * 1e-3
            )
            ref_hats = reference_transforms(mode, targets, params.grid, len(base))
            adjoint_solve(base, mode, targets, params, cfg, ref_hats, keep=())  # warm caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                adjoint_solve(base, mode, targets, params, cfg, ref_hats, keep=())
                peaks[n_steps] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        half_spectrum = 16 * 32 * (32 // 2 + 1)
        assert abs(peaks[10] - peaks[2]) <= half_spectrum

    def test_overflow_raises_numeric_error(self, params16, smooth_state16):
        cfg = SolverConfig(dt=1e-3, T=5e-3, nu=0.1)
        base = simulate(smooth_state16, None, None, params16, cfg, with_diagnostics=False)
        targets = CostTargets(weights=CostWeights(track_u=1e307))
        with pytest.raises(NumericError, match="non-finite"), np.errstate(all="ignore"):
            adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params16, cfg, keep=())


class _SinkFailed(Exception):
    """An error of a caller's sink, no error of the package."""


class TestAdjointSink:
    """adjoint_solve(sink=...) hands each node's state to the sink once,
    from N down to 0, on the calling thread; the distributed gradient adds
    each p into w_c*U so and holds no adjoint record."""

    ANISO = (32, 48, TWO_PI, 3.0 * np.pi)

    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    def test_once_per_node_backward_on_the_calling_thread(self, mode):
        base, targets, params, cfg = _tracked_run(self.ANISO, "node-indexed", T=6e-3)
        calls = []

        def sink(n, state):
            calls.append((n, threading.get_ident(), state))

        full = adjoint_solve(base, mode, targets, params, cfg)
        part = adjoint_solve(base, mode, targets, params, cfg, keep=(), sink=sink)
        assert [c[0] for c in calls] == list(range(6, -1, -1))
        assert {c[1] for c in calls} == {threading.get_ident()}
        for (n, _, got), want in zip(calls, full.states[::-1], strict=True):
            assert got.t == want.t, n
            assert np.array_equal(got.p.u_x, want.p.u_x)
            assert np.array_equal(got.p.u_y, want.p.u_y)
            assert np.array_equal(got.eta.values, want.eta.values)
        assert part.states[1:-1] == [None] * 5
        assert part.final is calls[0][2] and part.initial is calls[-1][2]

    def test_a_sinks_error_reaches_the_caller_with_its_type(self):
        base, targets, params, cfg = _tracked_run(self.ANISO, "node-indexed", T=6e-3)
        seen = []

        def sink(n, state):
            seen.append(n)
            if n == 4:
                raise _SinkFailed(f"node {n}")

        with pytest.raises(_SinkFailed, match="node 4"):
            adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params, cfg, keep=(), sink=sink)
        assert seen == [6, 5, 4]

    def test_a_sink_sweep_transforms_every_node_back(self, transform_counter):
        """With a sink every node's p is transformed back, and eta at the
        nodes keep holds only: 32 transforms a step where keep=None takes
        33, unless the sink reads eta."""
        mode = AdjointMode.DISTRIBUTED
        base, targets, params, cfg = _tracked_run((32, 32, TWO_PI, TWO_PI), "node-indexed", 5e-3)
        ref_hats = reference_transforms(mode, targets, params.grid, len(base))
        used = []
        sinks = (None, lambda n, s: None, lambda n, s: s.eta)
        for keep, sink in zip((None, (), ()), sinks):
            transform_counter["fields"] = 0
            adjoint_solve(base, mode, targets, params, cfg, ref_hats, keep=keep, sink=sink)
            used.append(transform_counter["fields"])
        assert used[0] - used[1] == cfg.n_steps - 1  # nodes 1 to N - 1
        assert used[2] == used[0]

    @pytest.mark.parametrize("keep, read", [(None, False), ((), False), ((), True)],
                             ids=["keep-every-node", "keep-none", "keep-none-sink-reads-eta"])
    def test_a_non_finite_eta_fails_at_its_node(self, keep, read, monkeypatch):
        """A sink sweep checks eta at every node, kept or not: NaN in eta
        alone at node 3 raises NumericError before node 3 reaches the sink.
        A finite eta whose back-transform overflows passes that check, and
        fails as the sink reads it."""
        base, targets, params, cfg = _tracked_run((32, 32, TWO_PI, TWO_PI), "node-indexed", 6e-3)
        advance, steps = Stepper.advance, []

        def poisoned(st, *args):
            px_h, py_h, eh = advance(st, *args)
            steps.append(None)
            if len(steps) == 3 and read:  # the step from node 4 to node 3
                eh[...] = 1e308
            elif len(steps) == 3:
                eh[1, 1] = np.nan
            return px_h, py_h, eh

        def sink(n, s):
            if read:
                s.eta
            seen.append(n)

        monkeypatch.setattr(Stepper, "advance", poisoned)
        seen = []
        with pytest.raises(NumericError, match="non-finite"), np.errstate(all="ignore"):
            adjoint_solve(base, AdjointMode.DISTRIBUTED, targets, params, cfg, keep=keep,
                          sink=sink)
        assert seen == [6, 5, 4]

    @pytest.mark.parametrize("mode", list(AdjointMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("args", [(64, 64, TWO_PI, TWO_PI), ANISO], ids=["64x64", "32x48"])
    def test_a_warmed_step_allocates_its_results_only(self, args, mode, monkeypatch):
        """Tooling: a warmed step allocates nothing field-sized but the three
        half spectra it advances to (TestStepBuffers holds the forward step
        to the same bound).  Each step of a keep=() sweep is cut into pieces
        at the calls it makes, and the traced peak of every piece above its
        start is summed, so an array a piece makes and lets go still counts;
        a step starts with the base state's transform.  A step that
        transformed the base state and formed the sources' scale afresh
        would sum to 6.25 to 8.22 half spectra here."""
        base, targets, params, cfg = _tracked_run(args, "node-indexed", T=8e-3)
        ref_hats = reference_transforms(mode, targets, params.grid, len(base))
        steps, start = [], [0]

        def cut():
            if steps:
                steps[-1] += tracemalloc.get_traced_memory()[1] - start[0]
            tracemalloc.reset_peak()
            start[0] = tracemalloc.get_traced_memory()[0]

        def piece(fn, opens_a_step=False):
            def wrapper(*a, **k):
                cut()
                if opens_a_step:
                    steps.append(0)
                out = fn(*a, **k)
                cut()
                return out

            return wrapper

        monkeypatch.setattr(tangent_adjoint, "spectral", piece(spectral, True))
        for name in ("Frame", "tracking_sources"):
            monkeypatch.setattr(tangent_adjoint, name, piece(getattr(tangent_adjoint, name)))
        for name in ("momentum", "advance"):
            monkeypatch.setattr(Stepper, name, piece(getattr(Stepper, name)))
        tracemalloc.start()
        try:
            adjoint_solve(base, mode, targets, params, cfg, ref_hats, keep=())
        finally:
            tracemalloc.stop()
        # the terminal transform, then 8 steps; the first two warm the Stepper
        assert len(steps) == 9
        half_spectrum = 16 * args[0] * (args[1] // 2 + 1)
        assert max(steps[3:]) <= 4 * half_spectrum

    @pytest.mark.parametrize("args", [(32, 32, TWO_PI, TWO_PI), ANISO], ids=["32x32", "32x48"])
    def test_the_distributed_gradient_is_the_full_records_bitwise(self, args, monkeypatch):
        """DistributedControlProblem.gradient asks adjoint_solve, by that
        name, for keep=() and a sink, and its gradient is reduced_gradient_ocp
        of the full record bit for bit."""
        base, targets, params, cfg = _tracked_run(args, "node-indexed", T=6e-3)
        targets.weights = CostWeights(track_u=2.0, track_phi=0.5, control=0.3)
        problem = DistributedControlProblem(base.initial, targets, None, params, cfg)
        asked = []

        def recorded(*args, **kwargs):
            asked.append(kwargs)
            return adjoint_solve(*args, **kwargs)

        monkeypatch.setattr(control, "adjoint_solve", recorded)
        U = _ramp_signal(params.grid, len(base), cfg.dt, 0.7)
        G = problem.gradient(U, base)
        assert [sorted(k) for k in asked] == [["keep", "sink"]] and asked[0]["keep"] == ()
        full = adjoint_solve(base, problem.mode, targets, params, cfg, problem.ref_hats)
        want = reduced_gradient_ocp(U, full, targets.weights)
        assert G.kind == want.kind and G.dt == want.dt
        assert np.array_equal(G.data, want.data)

    def test_the_distributed_gradients_peak_memory_is_flat_in_the_step_count(self):
        """Tooling: beyond the gradient's own array, a distributed gradient
        holds no state per node (a full adjoint record adds three fields
        per node)."""
        peaks = {}
        for n_steps in (2, 10):
            base, targets, params, cfg = _tracked_run(
                (32, 32, TWO_PI, TWO_PI), "node-indexed", n_steps * 1e-3
            )
            problem = DistributedControlProblem(base.initial, targets, None, params, cfg)
            U = _ramp_signal(params.grid, len(base), cfg.dt, 0.7)
            problem.gradient(U, base)  # warm caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                G = problem.gradient(U, base)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1] - start - G.data.nbytes
            finally:
                tracemalloc.stop()
        half_spectrum = 16 * 32 * (32 // 2 + 1)
        assert abs(peaks[10] - peaks[2]) <= half_spectrum


class TestDualityGap:
    # the perturbation sits on the base flow's |k|^2 = 2 shell so the
    # pairings are O(1); off-shell modes barely couple over these short
    # horizons and both sides of the identity degenerate to roundoff
    def _gap(self, params, initial, dt, mode, weights=None, T=0.04):
        cfg = SolverConfig(dt=dt, T=T, nu=0.1)
        base = simulate(initial.copy(), None, None, params, cfg, with_diagnostics=False)
        sig = _ramp_signal(params.grid, len(base), dt, 0.5, mode=(1, 1))
        targets = CostTargets(weights=weights or CostWeights())
        return duality_gap(base, sig, mode, targets, params, cfg)

    def test_gap_is_small_and_shrinks_linearly(self, params16, smooth_state16):
        g1 = self._gap(params16, smooth_state16, 1e-3, AdjointMode.DISTRIBUTED)
        gh = self._gap(params16, smooth_state16, 5e-4, AdjointMode.DISTRIBUTED)
        assert g1 <= 5e-3
        assert 1.5 <= g1 / gh <= 2.5

    def test_gap_with_nonuniform_weights(self, params16, smooth_state16):
        w = CostWeights(track_u=2.0, track_phi=0.5, final_u=3.0, final_phi=0.7)
        gap = self._gap(
            params16, smooth_state16, 1e-3, AdjointMode.DISTRIBUTED, weights=w
        )
        assert gap <= 5e-3

    def test_gap_in_assimilation_mode(self, params16, smooth_state16):
        g1 = self._gap(params16, smooth_state16, 1e-3, AdjointMode.ASSIMILATION)
        gh = self._gap(params16, smooth_state16, 5e-4, AdjointMode.ASSIMILATION)
        assert g1 <= 5e-3
        assert 1.5 <= g1 / gh <= 2.5

    def test_gap_on_anisotropic_grid(self):
        # 32 x 48 on (2 pi, 3 pi): the base flow and the perturbation share
        # the |k|^2 = 1 + 4/9 shell
        g = TorusGrid(32, 48, 2.0 * np.pi, 3.0 * np.pi)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
        initial = FlowState(
            synth.taylor_green(g, 0.5), synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), 0.0
        )
        g1 = self._gap(params, initial, 1e-3, AdjointMode.DISTRIBUTED)
        gh = self._gap(params, initial, 5e-4, AdjointMode.DISTRIBUTED)
        assert g1 <= 5e-3
        assert 1.5 <= g1 / gh <= 2.5

    @pytest.mark.parametrize("S", [1.0, 7.0])
    @pytest.mark.parametrize("args", [(32, 32, TWO_PI, TWO_PI), (32, 48, TWO_PI, 3.0 * np.pi)],
                             ids=["32x32", "32x48"])
    def test_gap_with_stabilization_off_the_kernel_mass(self, args, S):
        """S below and above the kernel mass a = 5 runs the adjoint's
        k^2 (a - S) term with both signs, to criterion 7's bounds on its
        set-up but for the horizon: at T = 0.1 an adjoint with that term's
        sign flipped fails at S = 1 (gap 1.0), where at T = 0.04 it
        passes."""
        g = TorusGrid(*args)
        params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
        initial = FlowState(
            synth.taylor_green(g, 0.5), synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), 0.0
        )

        def gap(dt):
            cfg = SolverConfig(dt=dt, T=0.1, nu=0.1, stabilization=S)
            assert Stepper(params, cfg).a != S
            base = simulate(initial, None, None, params, cfg, with_diagnostics=False)
            sig = ControlSignal.constant(synth.single_mode_velocity(g, (1, 1), 0.5), len(base), dt)
            return duality_gap(base, sig, AdjointMode.DISTRIBUTED, CostTargets(), params, cfg)

        g1, gh = gap(1e-3), gap(5e-4)
        assert g1 <= 5e-3
        assert 1.7 <= g1 / gh <= 2.3
