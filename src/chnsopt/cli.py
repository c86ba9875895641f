"""Experiment runner: JSON config in, CSV/snapshot/report artifacts out.

Subcommands: simulate, optimize, assimilate, check, gradient-test.
Configs are checked fail-closed against one schema before anything is
written, naming the key at fault.  Exit codes: 0 success, 2 validation
failure, 3 numeric failure.  All numeric CSV output uses 17 significant
digits, so reruns with the same config and seed are bit-identical (the
wall_seconds timing column excepted).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable, NamedTuple

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
    KERNEL_FAMILIES,
    POTENTIAL_FAMILIES,
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
_CHECK_STEPS = 30


# -- config schema --------------------------------------------------------
#
# A section is a table of keys.  _walk checks a section against its table
# and returns it parsed, naming the dotted key of the first fault.  The
# parser of a section or a field description walks it in turn, so one
# walk checks the whole config before anything is built or written.

_ABSENT = object()


class _Key(NamedTuple):
    parse: Callable  # (value, dotted key) -> parsed value; raises ValidationError
    default: object = None  # what an absent key reads as, parsed; None stays None
    required: bool = False
    bound: tuple | None = None  # (test of the parsed value, what the value must be)
    null: object = _ABSENT  # what a null reads as; None hands the null to parse


def _walk(d, table: dict, path: str) -> dict:
    """The mapping d parsed key by key by table, refusing unknown keys."""
    if not isinstance(d, dict):
        raise ValidationError(f"config section {path} must be a mapping")
    for k in d:
        if k not in table:
            raise ValidationError(f"unknown config key {path}.{k}")
    out = {}
    for k, key in table.items():
        name = k if path == "config" else f"{path}.{k}"  # sections go by their own name
        v = d.get(k, _ABSENT)
        if v is None:
            v = key.null
        if v is _ABSENT:
            if key.required:
                raise ValidationError(f"missing config key {name}")
            v = key.default
            if v is None:
                out[k] = None
                continue
        v = key.parse(v, name)
        if key.bound is not None and not key.bound[0](v):
            raise ValidationError(f"config key {name} must be {key.bound[1]}, got {v!r:.80}")
        out[k] = v
    return out


def _finite(v) -> bool:
    """A number other than a bool that a float holds finitely."""
    # NaN fails the comparison too; an int beyond float range fails it exactly
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _typed(test, what: str, convert=None) -> Callable:
    """Parser refusing values that fail test, converting the others."""

    def parse(v, name: str):
        if not test(v):
            raise ValidationError(f"config key {name} must be {what}, got {v!r:.80}")
        return v if convert is None else convert(v)

    return parse


def _one_of(*choices: str) -> Callable:
    return _typed(lambda v: isinstance(v, str) and v in choices, f"one of {sorted(choices)}")


_number = _typed(_finite, "a finite number", float)
_integer = _typed(_is_int, "an integer")
_path = _typed(lambda v: isinstance(v, str) and v != "", "a path")
# the Fourier mode of a field description
_mode = _typed(
    lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
    "a list of two integers",
    tuple,
)
_coefficients = _typed(
    lambda v: isinstance(v, list) and all(map(_finite, v)),
    "a list of finite numbers",
    lambda v: tuple(map(float, v)),
)


def _section(table: dict) -> _Key:
    """A section: absent reads as empty, null is refused."""
    return _Key(lambda v, name: _walk(v, table, name), {}, null=None)


def _field(kinds: dict) -> Callable:
    """Parser of a field description.  Its type picks a row (maker, table)
    of kinds, and its other keys must fit the table.  It parses to
    (maker, keyword arguments, dotted key); RunContext.field makes it."""
    type_of = _one_of(*kinds)

    def parse(d, name: str) -> tuple:
        if not isinstance(d, dict):
            raise ValidationError(f"config section {name} must be a mapping")
        make, table = kinds[type_of(d.get("type"), f"{name}.type")]
        return make, _walk({k: v for k, v in d.items() if k != "type"}, table, name), name

    return parse


_POSITIVE = (lambda v: v > 0.0, "positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "nonnegative")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_EVEN_8 = (lambda n: n >= 8 and n % 2 == 0, "an even integer >= 8")

_AMPLITUDE = _Key(_number, 1.0)
_MEAN = _Key(_number, 0.0)
_K_CUT = _Key(_number, 4.0, bound=_POSITIVE)  # zero would filter out every mode
_FILE = {"path": _Key(_path, required=True, null=None)}
_NONZERO_MODE = _Key(_mode, [1, 0], bound=(lambda m: m != (0, 0), "nonzero"))

# Field types: the maker takes the grid, the run's rng when it is one of
# _RANDOM_MAKERS, and the keys of the table by name; a file maker takes
# the path and the grid.
_VECTOR_FIELDS = {
    "zero": (VectorField.zeros, {}),
    "taylor-green": (synth.taylor_green, {"amplitude": _AMPLITUDE}),
    "single-mode": (synth.single_mode_velocity, {"mode": _NONZERO_MODE, "amplitude": _AMPLITUDE}),
    "random-divfree": (synth.random_divfree_velocity, {"amplitude": _AMPLITUDE, "k_cut": _K_CUT}),
    "file": (read_vector_snapshot, _FILE),
}
_SCALAR_FIELDS = {
    "zero": (ScalarField.zeros, {}),
    "constant": (ScalarField.constant, {"value": _Key(_number, required=True)}),
    "sine": (
        synth.sine_scalar,
        {"mode": _Key(_mode, [1, 1]), "amplitude": _AMPLITUDE, "mean": _MEAN},
    ),
    "random": (synth.random_scalar, {"amplitude": _AMPLITUDE, "k_cut": _K_CUT, "mean": _MEAN}),
    "file": (read_snapshot, _FILE),
}
_RANDOM_MAKERS = (synth.random_divfree_velocity, synth.random_scalar)
_FILE_MAKERS = (read_vector_snapshot, read_snapshot)

_ZERO = {"type": "zero"}
_VECTOR = _field(_VECTOR_FIELDS)
_SCALAR = _field(_SCALAR_FIELDS)

_GRID = {
    "n": _Key(_integer, 64, bound=_EVEN_8),
    "l": _Key(_number, TWO_PI, bound=_POSITIVE),
    "n_x": _Key(_integer, bound=_EVEN_8),  # n when absent, and so on
    "n_y": _Key(_integer, bound=_EVEN_8),
    "l_x": _Key(_number, bound=_POSITIVE),
    "l_y": _Key(_number, bound=_POSITIVE),
}
_SOLVER = {
    "nu": _Key(_number, required=True, bound=_POSITIVE),
    "dt": _Key(_number, 1e-3, bound=_POSITIVE),
    "T": _Key(_number, 0.5, bound=_POSITIVE),
    "stabilization": _Key(_number, bound=_NONNEGATIVE),  # the kernel mass when absent
}
_KERNEL = {
    "family": _Key(_one_of(*KERNEL_FAMILIES), "gaussian", null=None),
    "epsilon": _Key(_number, 0.5),  # Kernel bounds it, naming the kernel epsilon
    "mass": _Key(_number, 5.0),
}
_POTENTIAL = {
    "family": _Key(_one_of(*POTENTIAL_FAMILIES), "double-well", null=None),
    "coefficients": _Key(_coefficients, bound=(lambda c: len(c) >= 3, "of degree >= 2")),
}
_INITIAL = {
    "u": _Key(_VECTOR, {"type": "taylor-green", "amplitude": 0.5}, null=_ZERO),
    "phi": _Key(_SCALAR, {"type": "sine", "mode": [1, 1], "amplitude": 0.1}, null=_ZERO),
}
_COST = {
    k: _Key(_number, 1.0, bound=_NONNEGATIVE)
    for k in ("track_u", "track_phi", "final_u", "final_phi", "control")
}
_OPTIMIZER = {
    "max_iters": _Key(_integer, 100, bound=_NONNEGATIVE),
    "step0": _Key(_number, 1.0, bound=_POSITIVE),
    "armijo_c": _Key(_number, 1e-4, bound=_OPEN_UNIT),
    "armijo_shrink": _Key(_number, 0.5, bound=_OPEN_UNIT),
    "grad_tol": _Key(_number, 1e-6, bound=_POSITIVE),
    "radius": _Key(_number, bound=_POSITIVE),  # unbounded when absent
}
_OUTPUT = {
    "directory": _Key(_path, "out", null=None),
    "dump_every": _Key(_integer, 0, bound=_NONNEGATIVE),
}
# The config but for problem and targets, which the subcommand's row gives.
_CONFIG = {
    "seed": _Key(_integer, 0),
    "grid": _section(_GRID),
    "solver": _section(_SOLVER),
    "kernel": _section(_KERNEL),
    "potential": _section(_POTENTIAL),
    "initial": _section(_INITIAL),
    "forcing": _Key(_VECTOR),
    "cost": _section(_COST),
    "optimizer": _section(_OPTIMIZER),
    "output": _section(_OUTPUT),
}

# targets of optimize and gradient-test: a twin control, or zero targets
_TWIN_TARGETS = {
    "mode": _Key(_one_of("twin", "zero"), "twin", null=None),
    "control": _Key(_VECTOR, {"type": "single-mode", "mode": [1, 0], "amplitude": 0.2}, null=_ZERO),
}
# targets of assimilate: the hidden initial velocity, relative measurement noise
_TRUTH_TARGETS = {
    "truth": _Key(_VECTOR, {"type": "taylor-green", "amplitude": 0.4}, null=_ZERO),
    "noise": _Key(_number, 0.0, bound=_NONNEGATIVE),
}


def _check_trajectory_memory(command: str, n_x: int, n_y: int, steps: float):
    """Fail closed on dense trajectories beyond TRAJECTORY_BYTES_LIMIT,
    naming grid when not even one step fits and solver.T/solver.dt
    otherwise."""
    per_node = _COMMANDS[command].dense * 3 * n_x * n_y * 8
    limit = f"the limit of {TRAJECTORY_BYTES_LIMIT / 2**30:g} GiB"
    if 2 * per_node > TRAJECTORY_BYTES_LIMIT:
        raise ValidationError(
            f"config key grid: {n_x} x {n_y} points need {2 * per_node / 2**30:.3g} GiB "
            f"of trajectories for a single step, above {limit}"
        )
    if command == "check":
        steps = min(steps, _CHECK_STEPS)
    if (steps + 1) * per_node > TRAJECTORY_BYTES_LIMIT:
        raise ValidationError(
            f"config keys solver.T/solver.dt: {steps:.6g} steps need "
            f"{(steps + 1) * per_node / 2**30:.3g} GiB of trajectories, above {limit}"
        )


class RunContext:
    """Everything a subcommand needs, built and validated from a config.
    Fields are made, and the rng drawn from, only when a runner asks."""

    def __init__(self, cfg: dict, command: str, seed_override, outdir_override):
        row = _COMMANDS[command]
        table = {**_CONFIG, "problem": _Key(_one_of(row.problem))}
        table["targets"] = _section(row.targets)._replace(null=_ABSENT)  # null reads as {}
        c = self.config = _walk(cfg, table, "config")

        self.seed = c["seed"] if seed_override is None else seed_override
        if self.seed < 0:
            raise ValidationError(
                f"config key config.seed (or --seed) must be nonnegative, got {self.seed}"
            )
        self.rng = np.random.default_rng(self.seed)
        self.outdir = outdir_override or c["output"]["directory"]
        self.dump_every = c["output"]["dump_every"]

        g, s = c["grid"], c["solver"]
        n_x, n_y = (g["n"] if g[k] is None else g[k] for k in ("n_x", "n_y"))
        l_x, l_y = (g["l"] if g[k] is None else g[k] for k in ("l_x", "l_y"))
        _check_trajectory_memory(command, n_x, n_y, s["T"] / s["dt"])
        try:
            self.solver = SolverConfig(**s)
            self.solver.n_steps  # raises unless T is a whole number of steps
        except ValidationError as e:
            raise ValidationError(f"config keys solver.T/solver.dt: {e}") from e
        self.grid = TorusGrid(n_x, n_y, l_x, l_y)

        p = c["potential"]
        if (p["family"] == "user-polynomial") != (p["coefficients"] is not None):
            raise ValidationError(
                "config key potential.coefficients is required by user-polynomial "
                "and refused by double-well"
            )
        try:
            potential = Potential.double_well() if p["coefficients"] is None else Potential(**p)
        except ValidationError as e:  # a derivative beyond float range
            raise ValidationError(f"config key potential.coefficients: {e}") from e
        kernel = Kernel(grid=self.grid, **c["kernel"])
        self.report = validate_assumptions(kernel, potential)
        self.params = ModelParams(self.grid, kernel, potential)
        self.weights = CostWeights(**c["cost"])
        o = c["optimizer"]
        self.optimizer = OptimizerConfig(**{**o, "radius": o["radius"] or np.inf})

    def field(self, parsed):
        """The field of a parsed description, or None for none."""
        if parsed is None:
            return None
        make, args, name = parsed
        if make in _FILE_MAKERS:
            try:
                return make(args["path"], grid=self.grid)
            except (OSError, NumericError) as e:  # a file holding a non-finite value
                raise ValidationError(f"config key {name}.path: cannot read field file: {e}") from e
        if make in _RANDOM_MAKERS:
            try:
                return make(self.grid, self.rng, **args)
            except ValidationError as e:  # the filter left nothing of the field
                raise ValidationError(f"config key {name}.k_cut: {e}") from e
        return make(self.grid, **args)

    def initial_state(self) -> FlowState:
        u = self.field(self.config["initial"]["u"])
        return FlowState(leray_project(u), self.field(self.config["initial"]["phi"]), 0.0)

    def forcing(self):
        return self.field(self.config["forcing"])

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
    every = ctx.dump_every

    def dump(n, s):
        # each dumped node is written as soon as simulate finishes it, so the
        # record holds nodes 0 and N only; a failed run leaves the dumps of
        # the nodes before the failure, and no diagnostics or final fields
        if every > 0 and n % every == 0:
            write_vector_snapshot(os.path.join(out, f"u_{n:06d}"), s.u)
            write_snapshot(os.path.join(out, f"phi_{n:06d}.fld"), s.phi)

    traj = simulate(state, None, forcing, ctx.params, ctx.solver, keep=(), sink=dump)
    d = traj.diagnostics
    residual = np.append(d["residual"], 0.0)  # no step leaves the last node
    write_csv(
        os.path.join(out, "diagnostics.csv"),
        ["t", "energy", "kinetic", "enstrophy", "mass", "residual"],
        (
            [d[k][n] for k in ("t", "energy", "kinetic", "enstrophy", "mass")] + [residual[n]]
            for n in range(len(traj))
        ),
    )
    write_vector_snapshot(os.path.join(out, "u_final"), traj.final.u)
    write_snapshot(os.path.join(out, "phi_final.fld"), traj.final.phi)
    return 0


def _twin_targets(ctx: RunContext, initial: FlowState, forcing):
    """OCP targets generated by simulating a known true control, and the
    one field that control holds at every node."""
    t = ctx.config["targets"]
    if t["mode"] == "zero":
        return CostTargets(weights=ctx.weights), VectorField.zeros(ctx.grid)
    truth = ctx.field(t["control"])
    traj = simulate(
        initial, ControlSignal.constant(truth, ctx.solver.n_steps + 1, ctx.solver.dt), forcing,
        ctx.params, ctx.solver, with_diagnostics=False,
    )
    targets = CostTargets(
        u_d=[s.u for s in traj.states],
        phi_d=[s.phi for s in traj.states],
        u_f=traj.final.u,
        phi_f=traj.final.phi,
        weights=ctx.weights,
    )
    return targets, truth


def _run_optimize(ctx: RunContext) -> int:
    out = ctx.ensure_outdir()
    initial = ctx.initial_state()
    forcing = ctx.forcing()
    targets, truth = _twin_targets(ctx, initial, forcing)
    U, history, problem = solve_ocp(
        initial, targets, forcing, ctx.params, ctx.solver, ctx.optimizer
    )
    _write_history(os.path.join(out, "history.csv"), history)
    # the truth is a signal only now: the run held it as one field
    U_true = ControlSignal.constant(truth, U.n_nodes, U.dt)
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
    noise = ctx.config["targets"]["noise"]
    U_true = ctx.field(ctx.config["targets"]["truth"])
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

    short = dataclasses.replace(ctx.solver, T=min(ctx.solver.T, _CHECK_STEPS * ctx.solver.dt))
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
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"config {path} is not valid JSON: {e}") from e


class _Command(NamedTuple):
    run: Callable[[RunContext], int]
    problem: str  # the config's problem, when it names one
    # dense trajectories kept at once: for the optimizing ones the slope in
    # N of the subcommand's tracemalloc peak, in states per node, rounded
    # up (32^2, N = 20 against 60 and 40 against 120).  optimize (5.86)
    # and gradient-test (7.89) peak in a forward sweep, which holds the
    # targets and their transforms, the sweep's record and four per-node
    # control signals (U, G, the direction and the trial, 2/3 of a state
    # each); gradient-test also holds the base record of its Taylor ladder.
    # Their gradients hold no adjoint record.  assimilate (3.16) holds the
    # measurements, their transforms and one forward record.  check steps
    # at most _CHECK_STEPS times.  simulate holds nodes 0 and N only (slope
    # 0.01) but counts one on purpose: the guard then also bounds its
    # diagnostics rows, which still grow with N.
    dense: int
    targets: dict  # the table of the targets section


_COMMANDS = {
    "simulate": _Command(_run_simulate, "simulate", 1, {}),
    "optimize": _Command(_run_optimize, "ocp", 6, _TWIN_TARGETS),
    "assimilate": _Command(_run_assimilate, "da", 4, _TRUTH_TARGETS),
    "check": _Command(_run_check, "check", 1, {}),
    "gradient-test": _Command(_run_gradient_test, "gradient-test", 8, _TWIN_TARGETS),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chnsopt",
        description="Nonlocal two-phase flow control and assimilation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        ctx = RunContext(cfg, args.command, args.seed, args.output)
        return _COMMANDS[args.command].run(ctx)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
