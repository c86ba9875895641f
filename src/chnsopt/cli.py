"""Experiment runner: JSON config in, CSV/snapshot/report artifacts out.

Subcommands: simulate, optimize, assimilate, check, gradient-test.
Configs are validated fail-closed (unknown keys are errors, missing
required keys are named in the diagnostic).  Exit codes: 0 success,
2 validation failure, 3 numeric failure.  All numeric CSV output uses
17 significant digits, so reruns with the same config and seed are
bit-identical (the wall_seconds timing column excepted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import synth
from .assimilation import AssimilationProblem, twin_experiment
from .control import (
    ControlSignal,
    CostTargets,
    CostWeights,
    DistributedControlProblem,
    OptimizerConfig,
    observed_orders,
    solve_ocp,
    taylor_remainders,
)
from .errors import NumericError, ValidationError
from .forward import FlowState, ModelParams, SolverConfig, simulate
from .grid import (
    ScalarField,
    TorusGrid,
    VectorField,
    convolve,
    curl2d,
    grad,
    grad_norm,
    leray_project,
    read_snapshot,
    read_vector_snapshot,
    relative_divergence,
    write_snapshot,
    write_vector_snapshot,
)
from .physics import (
    Kernel,
    Potential,
    chemical_potential,
    kernel_weight_a,
    korteweg_force,
    validate_assumptions,
)

TWO_PI = 2.0 * np.pi

# Upper bound on the dense trajectories a subcommand keeps, estimated
# before the grid is built as (N + 1) x 3 x n_x x n_y x 8 bytes each.
TRAJECTORY_BYTES_LIMIT = 4 * 2**30

# Dense trajectories a subcommand keeps at once: the optimizing ones hold
# the targets or measurements, the current and the trial forward sweep and
# the adjoint sweep.  check steps at most _CHECK_STEPS times.
_DENSE_TRAJECTORIES = {
    "simulate": 1,
    "check": 1,
    "optimize": 4,
    "assimilate": 4,
    "gradient-test": 4,
}
_CHECK_STEPS = 30


# -- config parsing -------------------------------------------------------


def _as_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"config section {path} must be a mapping")
    return obj


def _check_keys(d: dict, allowed: set, required: set, path: str):
    for k in d:
        if k not in allowed:
            raise ValidationError(f"unknown config key {path}.{k}")
    for k in required:
        if k not in d:
            raise ValidationError(f"missing config key {path}.{k}")


def _finite(v) -> bool:
    """A number other than a bool that a float holds finitely."""
    # NaN fails the comparison too; an int beyond float range fails it exactly
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _num(d: dict, key: str, path: str, required=True, default=None):
    if key not in d or d[key] is None:
        if required:
            raise ValidationError(f"missing config key {path}.{key}")
        return default
    v = d[key]
    if not _finite(v):
        raise ValidationError(f"config key {path}.{key} must be a finite number")
    return float(v)


def _int(d: dict, key: str, path: str, required=True, default=None):
    if key not in d or d[key] is None:
        if required:
            raise ValidationError(f"missing config key {path}.{key}")
        return default
    v = d[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"config key {path}.{key} must be an integer")
    return int(v)


def _grid_args(cfg: dict) -> tuple:
    """(n_x, n_y, l_x, l_y) of the grid section, not yet checked as a grid."""
    d = _as_mapping(cfg.get("grid", {}), "grid")
    _check_keys(d, {"n", "l", "n_x", "n_y", "l_x", "l_y"}, set(), "grid")
    n = _int(d, "n", "grid", required=False, default=64)
    l = _num(d, "l", "grid", required=False, default=TWO_PI)
    n_x = _int(d, "n_x", "grid", required=False, default=n)
    n_y = _int(d, "n_y", "grid", required=False, default=n)
    l_x = _num(d, "l_x", "grid", required=False, default=l)
    l_y = _num(d, "l_y", "grid", required=False, default=l)
    return n_x, n_y, l_x, l_y


def _check_trajectory_memory(command: str, n_x: int, n_y: int, solver: SolverConfig):
    """Fail closed on dense trajectories beyond TRAJECTORY_BYTES_LIMIT,
    naming grid when not even one step fits and solver.T/solver.dt
    otherwise."""
    per_node = _DENSE_TRAJECTORIES[command] * 3 * n_x * n_y * 8
    limit = f"the limit of {TRAJECTORY_BYTES_LIMIT / 2**30:g} GiB"
    if 2 * per_node > TRAJECTORY_BYTES_LIMIT:
        raise ValidationError(
            f"config key grid: {n_x} x {n_y} points need {2 * per_node / 2**30:.3g} GiB "
            f"of trajectories for a single step, above {limit}"
        )
    steps = solver.T / solver.dt
    if command == "check":
        steps = min(steps, _CHECK_STEPS)
    if (steps + 1) * per_node > TRAJECTORY_BYTES_LIMIT:
        raise ValidationError(
            f"config keys solver.T/solver.dt: {steps:.6g} steps need "
            f"{(steps + 1) * per_node / 2**30:.3g} GiB of trajectories, above {limit}"
        )


def _build_solver(cfg: dict) -> SolverConfig:
    if "solver" not in cfg:
        raise ValidationError("missing config section solver (need solver.nu)")
    d = _as_mapping(cfg["solver"], "solver")
    _check_keys(d, {"nu", "dt", "T", "stabilization", "dealias"}, {"nu"}, "solver")
    dealias = d.get("dealias", True)
    if not isinstance(dealias, bool):
        raise ValidationError("config key solver.dealias must be a boolean")
    return SolverConfig(
        dt=_num(d, "dt", "solver", required=False, default=1e-3),
        T=_num(d, "T", "solver", required=False, default=0.5),
        nu=_num(d, "nu", "solver"),
        stabilization=_num(d, "stabilization", "solver", required=False),
        dealias=dealias,
    )


def _build_kernel(cfg: dict, grid: TorusGrid) -> Kernel:
    d = _as_mapping(cfg.get("kernel", {}), "kernel")
    _check_keys(d, {"family", "epsilon", "mass"}, set(), "kernel")
    family = d.get("family", "gaussian")
    eps = _num(d, "epsilon", "kernel", required=False, default=0.5)
    mass = _num(d, "mass", "kernel", required=False, default=5.0)
    return Kernel(family, eps, mass, grid)


def _build_potential(cfg: dict) -> Potential:
    d = _as_mapping(cfg.get("potential", {}), "potential")
    _check_keys(d, {"family", "coefficients"}, set(), "potential")
    family = d.get("family", "double-well")
    coeffs = d.get("coefficients")
    if family == "double-well":
        if coeffs is not None:
            raise ValidationError(
                "potential.coefficients only applies to user-polynomial"
            )
        return Potential.double_well()
    if coeffs is None:
        raise ValidationError("missing config key potential.coefficients")
    if not isinstance(coeffs, list) or not all(_finite(c) for c in coeffs):
        raise ValidationError("potential.coefficients must be a list of finite numbers")
    return Potential(family, tuple(float(c) for c in coeffs))


def _build_weights(cfg: dict) -> CostWeights:
    d = _as_mapping(cfg.get("cost", {}), "cost")
    allowed = {"track_u", "track_phi", "final_u", "final_phi", "control"}
    _check_keys(d, allowed, set(), "cost")
    kw = {k: _num(d, k, "cost", required=False, default=1.0) for k in allowed}
    return CostWeights(**kw)


def _build_optimizer(cfg: dict) -> OptimizerConfig:
    d = _as_mapping(cfg.get("optimizer", {}), "optimizer")
    allowed = {"max_iters", "step0", "armijo_c", "armijo_shrink", "grad_tol", "radius"}
    _check_keys(d, allowed, set(), "optimizer")
    radius = _num(d, "radius", "optimizer", required=False)
    return OptimizerConfig(
        max_iters=_int(d, "max_iters", "optimizer", required=False, default=100),
        step0=_num(d, "step0", "optimizer", required=False, default=1.0),
        armijo_c=_num(d, "armijo_c", "optimizer", required=False, default=1e-4),
        armijo_shrink=_num(
            d, "armijo_shrink", "optimizer", required=False, default=0.5
        ),
        grad_tol=_num(d, "grad_tol", "optimizer", required=False, default=1e-6),
        radius=np.inf if radius is None else radius,
    )


def _mode(d: dict, path: str, default: tuple[int, int]) -> tuple[int, int]:
    """The Fourier mode of a field description: a list of two integers."""
    if d.get("mode") is None:
        return default
    v = d["mode"]
    if not (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(m, int) and not isinstance(m, bool) for m in v)
    ):
        raise ValidationError(
            f"config key {path}.mode must be a list of two integers, got {v!r}"
        )
    return int(v[0]), int(v[1])


_VECTOR_TYPES = {"zero", "taylor-green", "single-mode", "random-divfree", "file"}
_SCALAR_TYPES = {"zero", "constant", "sine", "random", "file"}


def _field_kind(d: dict, path: str, types: set) -> str:
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in types:
        raise ValidationError(f"config key {path}.type must be one of {sorted(types)}")
    return kind


def _read_field(read, d: dict, grid: TorusGrid, path: str):
    """A field of type "file", read by ``read`` (a snapshot reader)."""
    _check_keys(d, {"type", "path"}, {"path"}, path)
    try:
        return read(str(d["path"]), grid=grid)
    except OSError as e:
        raise ValidationError(f"config key {path}.path: cannot read field file: {e}") from e


def _k_cut(d: dict, path: str) -> float:
    """Low-pass wavenumber of a random field; zero would filter out every mode."""
    k_cut = _num(d, "k_cut", path, False, 4.0)
    if not k_cut > 0.0:
        raise ValidationError(f"config key {path}.k_cut must be positive, got {k_cut!r}")
    return k_cut


def _random_field(make, grid: TorusGrid, rng, d: dict, path: str, **defaults):
    """make(grid, rng, amplitude, k_cut, then the keys of defaults), all read
    from d, naming {path}.k_cut when the filter leaves nothing of the field."""
    args = [_num(d, "amplitude", path, False, 1.0), _k_cut(d, path)]
    args += [_num(d, key, path, False, value) for key, value in defaults.items()]
    try:
        return make(grid, rng, *args)
    except ValidationError as e:
        raise ValidationError(f"config key {path}.k_cut: {e}") from e


def _vector_field(desc, grid: TorusGrid, rng, path: str) -> VectorField:
    if desc is None:
        return VectorField.zeros(grid)
    d = _as_mapping(desc, path)
    kind = _field_kind(d, path, _VECTOR_TYPES)
    if kind == "zero":
        _check_keys(d, {"type"}, set(), path)
        return VectorField.zeros(grid)
    if kind == "taylor-green":
        _check_keys(d, {"type", "amplitude"}, set(), path)
        return synth.taylor_green(grid, _num(d, "amplitude", path, False, 1.0))
    if kind == "single-mode":
        _check_keys(d, {"type", "mode", "amplitude"}, set(), path)
        return synth.single_mode_velocity(
            grid, _mode(d, path, (1, 0)), _num(d, "amplitude", path, False, 1.0)
        )
    if kind == "random-divfree":
        _check_keys(d, {"type", "amplitude", "k_cut"}, set(), path)
        return _random_field(synth.random_divfree_velocity, grid, rng, d, path)
    return _read_field(read_vector_snapshot, d, grid, path)


def _scalar_field(desc, grid: TorusGrid, rng, path: str) -> ScalarField:
    if desc is None:
        return ScalarField.zeros(grid)
    d = _as_mapping(desc, path)
    kind = _field_kind(d, path, _SCALAR_TYPES)
    if kind == "zero":
        _check_keys(d, {"type"}, set(), path)
        return ScalarField.zeros(grid)
    if kind == "constant":
        _check_keys(d, {"type", "value"}, {"value"}, path)
        return ScalarField.constant(grid, _num(d, "value", path))
    if kind == "sine":
        _check_keys(d, {"type", "mode", "amplitude", "mean"}, set(), path)
        return synth.sine_scalar(
            grid,
            _mode(d, path, (1, 1)),
            _num(d, "amplitude", path, False, 1.0),
            _num(d, "mean", path, False, 0.0),
        )
    if kind == "random":
        _check_keys(d, {"type", "amplitude", "k_cut", "mean"}, set(), path)
        return _random_field(synth.random_scalar, grid, rng, d, path, mean=0.0)
    return _read_field(read_snapshot, d, grid, path)


_TOP_KEYS = {
    "problem",
    "seed",
    "grid",
    "solver",
    "kernel",
    "potential",
    "initial",
    "forcing",
    "cost",
    "targets",
    "optimizer",
    "output",
}

_PROBLEM_OF_COMMAND = {
    "simulate": "simulate",
    "optimize": "ocp",
    "assimilate": "da",
    "check": "check",
    "gradient-test": "gradient-test",
}


class RunContext:
    """Everything a subcommand needs, built and validated from a config."""

    def __init__(self, cfg: dict, command: str, seed_override, outdir_override):
        _check_keys(_as_mapping(cfg, "config"), _TOP_KEYS, set(), "config")
        problem = cfg.get("problem")
        expected = _PROBLEM_OF_COMMAND[command]
        if problem is not None and problem != expected:
            raise ValidationError(
                f"config.problem is {problem!r} but the subcommand expects {expected!r}"
            )
        grid_args = _grid_args(cfg)
        self.solver = _build_solver(cfg)
        _check_trajectory_memory(command, grid_args[0], grid_args[1], self.solver)
        self.grid = TorusGrid(*grid_args)
        kernel = _build_kernel(cfg, self.grid)
        potential = _build_potential(cfg)
        self.report = validate_assumptions(kernel, potential)
        self.params = ModelParams(self.grid, kernel, potential)
        self.weights = _build_weights(cfg)
        self.optimizer = _build_optimizer(cfg)

        seed = _int(cfg, "seed", "config", required=False, default=0)
        if seed_override is not None:
            seed = seed_override
        if seed < 0:
            raise ValidationError(
                f"config key config.seed (or --seed) must be nonnegative, got {seed}"
            )
        self.seed = seed
        self.rng = np.random.default_rng(seed)

        out = _as_mapping(cfg.get("output", {}), "output")
        _check_keys(out, {"directory", "dump_every"}, set(), "output")
        self.outdir = outdir_override or out.get("directory", "out")
        if not isinstance(self.outdir, str) or not self.outdir:
            raise ValidationError("config key output.directory must be a path")
        self.dump_every = _int(out, "dump_every", "output", required=False, default=0)
        if self.dump_every < 0:
            raise ValidationError("output.dump_every must be nonnegative")

        init = _as_mapping(cfg.get("initial", {}), "initial")
        _check_keys(init, {"u", "phi"}, set(), "initial")
        self._init_cfg = init
        self._forcing_cfg = cfg.get("forcing")
        self._targets_cfg = cfg.get("targets")

    def initial_state(self) -> FlowState:
        u = _vector_field(
            self._init_cfg.get("u", {"type": "taylor-green", "amplitude": 0.5}),
            self.grid,
            self.rng,
            "initial.u",
        )
        phi = _scalar_field(
            self._init_cfg.get(
                "phi", {"type": "sine", "mode": [1, 1], "amplitude": 0.1}
            ),
            self.grid,
            self.rng,
            "initial.phi",
        )
        return FlowState(leray_project(u), phi, 0.0)

    def forcing(self):
        if self._forcing_cfg is None:
            return None
        return _vector_field(self._forcing_cfg, self.grid, self.rng, "forcing")

    def ensure_outdir(self) -> str:
        try:
            os.makedirs(self.outdir, exist_ok=True)
        except OSError as e:
            raise ValidationError(
                f"config key output.directory (or --output) is not a usable directory: {e}"
            ) from e
        return self.outdir


# -- CSV helpers ----------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    return "%.17g" % float(v)


def write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_history(path: str, history):
    # wall_seconds stays out of the file: artifacts must not vary across runs
    write_csv(
        path,
        ["iter", "cost", "grad_norm", "step"],
        ([h["iter"], h["cost"], h["grad_norm"], h["step"]] for h in history),
    )


def _write_report(path: str, pairs):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, value in pairs:
            f.write(f"{key}: {_fmt(value)}\n")


# -- subcommand runners ---------------------------------------------------


def _run_simulate(ctx: RunContext) -> int:
    out = ctx.ensure_outdir()
    state = ctx.initial_state()
    forcing = ctx.forcing()
    traj = simulate(state, None, forcing, ctx.params, ctx.solver)
    d = traj.diagnostics
    residual = np.append(d["residual"], 0.0)  # no step leaves the last node
    write_csv(
        os.path.join(out, "diagnostics.csv"),
        ["t", "energy", "kinetic", "enstrophy", "mass", "residual"],
        (
            [d["t"][n], d["energy"][n], d["kinetic"][n], d["enstrophy"][n], d["mass"][n], residual[n]]
            for n in range(len(traj))
        ),
    )
    if ctx.dump_every > 0:
        for n in range(0, len(traj), ctx.dump_every):
            s = traj.states[n]
            write_vector_snapshot(os.path.join(out, f"u_{n:06d}"), s.u)
            write_snapshot(os.path.join(out, f"phi_{n:06d}.fld"), s.phi)
    write_vector_snapshot(os.path.join(out, "u_final"), traj.final.u)
    write_snapshot(os.path.join(out, "phi_final.fld"), traj.final.phi)
    return 0


def _twin_targets(ctx: RunContext, initial: FlowState, forcing):
    """OCP targets generated by simulating a known true control."""
    d = _as_mapping(ctx._targets_cfg or {"mode": "twin"}, "targets")
    _check_keys(d, {"mode", "control"}, set(), "targets")
    mode = d.get("mode", "twin")
    if mode not in ("twin", "zero"):
        raise ValidationError("targets.mode must be 'twin' or 'zero'")
    n_nodes = ctx.solver.n_steps + 1
    if mode == "zero":
        return (
            CostTargets(weights=ctx.weights),
            ControlSignal.zeros_distributed(ctx.grid, n_nodes, ctx.solver.dt),
        )
    field = _vector_field(
        d.get("control", {"type": "single-mode", "mode": [1, 0], "amplitude": 0.2}),
        ctx.grid,
        ctx.rng,
        "targets.control",
    )
    U_true = ControlSignal.constant(field, n_nodes, ctx.solver.dt)
    traj = simulate(initial, U_true, forcing, ctx.params, ctx.solver, with_diagnostics=False)
    targets = CostTargets(
        u_d=[s.u for s in traj.states],
        phi_d=[s.phi for s in traj.states],
        u_f=traj.final.u,
        phi_f=traj.final.phi,
        weights=ctx.weights,
    )
    return targets, U_true


def _run_optimize(ctx: RunContext) -> int:
    out = ctx.ensure_outdir()
    initial = ctx.initial_state()
    forcing = ctx.forcing()
    targets, U_true = _twin_targets(ctx, initial, forcing)
    U, history, problem = solve_ocp(
        initial, targets, forcing, ctx.params, ctx.solver, ctx.optimizer
    )
    _write_history(os.path.join(out, "history.csv"), history)
    err = U.axpy(-1.0, U_true).norm()
    scale = max(U_true.norm(), 1e-300)
    _write_report(
        os.path.join(out, "report.txt"),
        [
            ("problem", "ocp"),
            ("iterations", len(history) - 1),
            ("initial_cost", history[0]["cost"]),
            ("final_cost", history[-1]["cost"]),
            ("cost_ratio", history[-1]["cost"] / max(history[0]["cost"], 1e-300)),
            ("control_error_vs_truth", err / scale),
        ],
    )
    index_rows = []
    for n in range(U.n_nodes):
        stem = os.path.join(out, f"control_{n:06d}")
        write_vector_snapshot(stem, U.at_node(n))
        index_rows.append([n, n * U.dt, f"control_{n:06d}"])
    write_csv(os.path.join(out, "control_index.csv"), ["node", "t", "stem"], index_rows)
    return 0


def _run_assimilate(ctx: RunContext) -> int:
    out = ctx.ensure_outdir()
    d = _as_mapping(ctx._targets_cfg or {}, "targets")
    _check_keys(d, {"truth", "noise"}, set(), "targets")
    noise = _num(d, "noise", "targets", required=False, default=0.0)
    U_true = _vector_field(
        d.get("truth", {"type": "taylor-green", "amplitude": 0.4}),
        ctx.grid,
        ctx.rng,
        "targets.truth",
    )
    initial = ctx.initial_state()
    placeholder = CostTargets(
        u_M_f=VectorField.zeros(ctx.grid),
        phi_M_f=ScalarField.zeros(ctx.grid),
        weights=ctx.weights,
    )
    template = AssimilationProblem(
        measurements=placeholder,
        phi0=initial.phi,
        forcing=ctx.forcing(),
        params=ctx.params,
        config=ctx.solver,
    )
    report = twin_experiment(U_true, noise, template, ctx.optimizer, ctx.rng)
    _write_history(os.path.join(out, "history.csv"), report["history"])
    _write_report(
        os.path.join(out, "report.txt"),
        [
            ("problem", "da"),
            ("noise_level", noise),
            ("iterations", report["iterations"]),
            ("initial_cost", report["initial_cost"]),
            ("final_cost", report["final_cost"]),
            ("cost_ratio", report["cost_ratio"]),
            ("recovery_error", report["recovery_error"]),
        ],
    )
    write_vector_snapshot(os.path.join(out, "u_recovered"), report["recovered"])
    return 0


def _run_gradient_test(ctx: RunContext) -> int:
    out = ctx.ensure_outdir()
    initial = ctx.initial_state()
    forcing = ctx.forcing()
    targets, _ = _twin_targets(ctx, initial, forcing)
    problem = DistributedControlProblem(initial, targets, forcing, ctx.params, ctx.solver)
    U = problem.zero_control()
    direction = ControlSignal.constant(
        synth.random_divfree_velocity(ctx.grid, ctx.rng, amplitude=1.0),
        U.n_nodes,
        U.dt,
    )
    hs = [1e-1, 1e-2, 1e-3]
    rem, gv, J0 = taylor_remainders(problem, U, direction, hs)
    orders = observed_orders(rem, hs)
    rows = []
    for i, h in enumerate(hs):
        rows.append([h, rem[i], orders[i - 1] if i > 0 else float("nan")])
    write_csv(os.path.join(out, "gradient_test.csv"), ["h", "remainder", "order"], rows)
    print(f"base cost {J0:.12e}, gradient pairing {gv:.12e}")
    for i, h in enumerate(hs):
        print(f"h={h:g}  remainder={rem[i]:.6e}")
    print(f"observed order {orders.min():.3f}")
    return 0


def _run_check(ctx: RunContext) -> int:
    out = ctx.ensure_outdir()
    g = ctx.grid
    rng = ctx.rng
    kernel = ctx.params.kernel
    potential = ctx.params.potential
    checks = []

    def record(name, ok, detail):
        checks.append((name, bool(ok), detail))

    v = VectorField(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    pv = leray_project(v)
    ppv = leray_project(pv)
    err = (ppv - pv).norm() / max(pv.norm(), 1e-300)
    record("leray_idempotent", err <= 1e-12, f"{err:.3e}")

    f = ScalarField(g, rng.standard_normal(g.shape))
    gf = grad(f)
    err = leray_project(gf).norm() / max(gf.norm(), 1e-300)
    record("leray_kills_gradients", err <= 1e-12, f"{err:.3e}")

    err = relative_divergence(pv)
    record("projection_divergence_free", err <= 1e-12, f"{err:.3e}")

    w = synth.random_divfree_velocity(g, rng, amplitude=1.0, k_cut=6.0)
    a2 = curl2d(w).norm() ** 2
    b2 = grad_norm(w) ** 2
    err = abs(a2 - b2) / max(b2, 1e-300)
    record("curl_equals_grad_norm", err <= 1e-10, f"{err:.3e}")

    s1 = ScalarField(g, rng.standard_normal(g.shape))
    s2 = ScalarField(g, rng.standard_normal(g.shape))
    lhs = s1.inner(s2)
    rhs = float(
        g.parseval_sum((g.fft2(s1.values) * np.conj(g.fft2(s2.values))).real)
        * g.cell_area
        / g.n_points
    )
    err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    record("parseval", err <= 1e-12, f"{err:.3e}")

    c1 = convolve(kernel.hat, s1)
    c2 = convolve(kernel.hat, s2)
    lhs = c1.inner(s2)
    rhs = s1.inner(c2)
    err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    record("convolution_self_adjoint", err <= 1e-12, f"{err:.3e}")

    aw = kernel_weight_a(kernel, g)
    err = float(np.max(np.abs(aw.values - kernel.mass))) / max(1.0, abs(kernel.mass))
    record("kernel_weight_constant", err <= 1e-10, f"{err:.3e}")

    const = ScalarField.constant(g, 0.4)
    mu = chemical_potential(const, kernel, potential)
    err = float(np.max(np.abs(mu.values - potential.df(0.4))))
    record("chemical_potential_of_constant", err <= 1e-10, f"{err:.3e}")

    # low-mode asymmetric field: cubic products stay below Nyquist, so
    # the rewriting holds to rounding; the wavenumbers are those of the
    # box, so the field is periodic on it
    kx = TWO_PI / g.l_x
    ky = TWO_PI / g.l_y
    phi = ScalarField(
        g,
        0.5 * np.sin(kx * g.X)
        + 0.3 * np.cos(2.0 * ky * g.Y)
        + 0.2 * np.sin(kx * g.X + ky * g.Y)
        + 0.1,
    )
    mu = chemical_potential(phi, kernel, potential)
    kf = korteweg_force(mu, phi)
    gp = grad(phi)
    conv = convolve(kernel.hat, phi)
    alt = leray_project(
        VectorField(g, -conv.values * gp.u_x, -conv.values * gp.u_y)
    )
    err = (kf - alt).norm() / max(alt.norm(), 1e-300)
    record("korteweg_rewritten_form", err <= 1e-10, f"{err:.3e}")

    record("assumptions_certified", ctx.report.c0 > 0.0, f"c0={ctx.report.c0:.6g}")

    short = SolverConfig(
        dt=ctx.solver.dt,
        T=min(ctx.solver.T, _CHECK_STEPS * ctx.solver.dt),
        nu=ctx.solver.nu,
        stabilization=ctx.solver.stabilization,
        dealias=ctx.solver.dealias,
    )
    traj = simulate(ctx.initial_state(), None, ctx.forcing(), ctx.params, short)
    mass = traj.diagnostics["mass"]
    drift = float(np.max(np.abs(mass - mass[0])))
    record("mass_conservation", drift <= 1e-12, f"{drift:.3e}")
    div_worst = max(relative_divergence(s.u) for s in traj.states)
    record("incompressibility", div_worst <= 1e-12, f"{div_worst:.3e}")

    eq0 = FlowState(VectorField.zeros(g), ScalarField.constant(g, 0.3), 0.0)
    eq = simulate(eq0, None, None, ctx.params, short, with_diagnostics=False)
    move = max(
        (s.u - eq0.u).norm() + (s.phi - eq0.phi).norm() for s in eq.states
    )
    record("equilibrium_fixed_point", move <= 1e-14, f"{move:.3e}")

    res = float(np.max(np.abs(traj.diagnostics["residual"])))
    record("energy_residual_finite", np.isfinite(res), f"max |r| = {res:.3e}")

    lines = []
    all_ok = True
    for name, ok, detail in checks:
        all_ok = all_ok and ok
        line = f"{'PASS' if ok else 'FAIL'} {name} ({detail})"
        lines.append(line)
        print(line)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if all_ok else 3


# -- entry point ----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"config {path} is not valid JSON: {e}") from e


_RUNNERS = {
    "simulate": _run_simulate,
    "optimize": _run_optimize,
    "assimilate": _run_assimilate,
    "check": _run_check,
    "gradient-test": _run_gradient_test,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chnsopt",
        description="Nonlocal two-phase flow control and assimilation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        ctx = RunContext(cfg, args.command, args.seed, args.output)
        return _RUNNERS[args.command](ctx)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
