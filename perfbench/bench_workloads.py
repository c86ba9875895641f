"""The three benchmark workloads: inputs made from a seed, one job, its checks.

A workload's ``setup(seed)`` builds every input the program receives;
``job(inputs, workdir)`` is the timed unit; ``check(inputs, result)`` lists
what is wrong with the result (empty when correct); ``exact(result)`` gives
counts that must repeat exactly whenever the same inputs are run again.

Seeds.  On the 64x64 workloads the seed draws one lattice translation that
is applied to every input field (initial state, forcing, true control or
truth).  The periodic pseudo-spectral model is translation-equivariant, so
each seed hands the program different arrays while the optimizer meets the
same problem.  Fresh random truths would move the twin experiment between
9 and 14 iterations (measured at T = 0.05) and spread ``wall_s`` across
seeds by more than any useful bound.  The seed is also the CLI config
``seed`` of simulate-256, whose initial concentration is a random field.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Counted and traced functions are called as chnsopt.<name>, so that the
# wrappers installed on the package are the ones called.
import chnsopt
from chnsopt import (
    AssimilationProblem,
    ControlSignal,
    CostTargets,
    CostWeights,
    FlowState,
    Kernel,
    ModelParams,
    OptimizerConfig,
    Potential,
    ScalarField,
    SolverConfig,
    TorusGrid,
    VectorField,
    solve_ocp,
    twin_experiment,
)
from chnsopt import cli, synth

TWO_PI = 2.0 * np.pi


def _model(n):
    g = TorusGrid(n, n, TWO_PI, TWO_PI)
    params = ModelParams(g, Kernel("gaussian", 0.5, 5.0, g), Potential.double_well())
    return g, params


def _shift_of(seed, g):
    rng = np.random.default_rng(seed)
    return tuple(int(k) for k in rng.integers(0, (g.n_x, g.n_y)))


def _rolled(field, shift):
    if isinstance(field, VectorField):
        return VectorField(
            field.grid, np.roll(field.u_x, shift, (0, 1)), np.roll(field.u_y, shift, (0, 1))
        )
    return ScalarField(field.grid, np.roll(field.values, shift, (0, 1)))


def _desk_initial(g, shift):
    return FlowState(
        _rolled(synth.taylor_green(g, 0.5), shift),
        _rolled(synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), shift),
        0.0,
    )


def _mode(g, shift, mode, amplitude):
    return _rolled(synth.single_mode_velocity(g, mode, amplitude), shift)


def _non_increasing(history) -> bool:
    costs = [row["cost"] for row in history]
    return all(b <= a for a, b in zip(costs, costs[1:]))


def _tree_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _tree_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


class Simulate256:
    name = "simulate-256"
    n = 256
    T = 0.05  # 50 steps at dt = 1e-3
    dump_every = 10

    def __init__(self):
        self.first_digest = None

    def config(self, seed):
        return {
            "problem": "simulate",
            "seed": seed,
            "grid": {"n": self.n, "l": TWO_PI},
            "solver": {"nu": 0.1, "dt": 1e-3, "T": self.T},
            "kernel": {"family": "gaussian", "epsilon": 0.5, "mass": 5.0},
            "potential": {"family": "double-well"},
            "initial": {
                "u": {"type": "taylor-green", "amplitude": 0.5},
                "phi": {"type": "random", "amplitude": 0.3, "k_cut": 4.0, "mean": 0.2},
            },
            "forcing": {"type": "single-mode", "mode": [1, 0], "amplitude": 0.1},
            "output": {"directory": "unused", "dump_every": self.dump_every},
        }

    def setup(self, seed, workdir):
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(seed), fh)
        with open(path, encoding="utf-8") as fh:
            cli.RunContext(json.load(fh), "simulate", None, None)
        return {"config": path}

    def job(self, inputs, workdir):
        out = os.path.join(workdir, "artifacts")
        code = cli.main(["simulate", "--config", inputs["config"], "--output", out])
        return {"exit": code, "out": out}

    def check(self, inputs, result):
        if result["exit"] != 0:
            return [f"cli exit code {result['exit']}"]
        bad = []
        with open(os.path.join(result["out"], "diagnostics.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        mass_col = rows[0].split(",").index("mass")
        mass = np.array([float(r.split(",")[mass_col]) for r in rows[1:]])
        drift = float(np.max(np.abs(mass - mass[0])))
        if not drift <= 1e-12:
            bad.append(f"mass drift {drift:.2e} > 1e-12")
        digest = _tree_digest(result["out"])
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            bad.append("artifacts differ from the first job's")
        return bad

    def exact(self, result):
        return {"bytes_written": _tree_bytes(result["out"])}


class Ocp64:
    name = "ocp-64"
    T = 0.04
    grad_tol = 1e-6
    max_iters = 200
    cost_evals_are_forward_solves = True  # targets are built in set-up

    def setup(self, seed, workdir):
        g, params = _model(64)
        shift = _shift_of(seed, g)
        config = SolverConfig(dt=1e-3, T=self.T, nu=0.1)
        initial = _desk_initial(g, shift)
        forcing = _mode(g, shift, (1, 0), 0.1)
        U_true = ControlSignal.constant(
            _mode(g, shift, (1, 0), 0.2), config.n_steps + 1, config.dt
        )
        truth = chnsopt.simulate(initial, U_true, forcing, params, config, with_diagnostics=False)
        targets = CostTargets(
            u_d=[s.u for s in truth.states],
            phi_d=[s.phi for s in truth.states],
            u_f=truth.final.u,
            phi_f=truth.final.phi,
            weights=CostWeights(control=1e-3),
        )
        return {
            "initial": initial, "targets": targets, "forcing": forcing,
            "params": params, "config": config,
        }

    def job(self, inputs, workdir):
        opt = OptimizerConfig(max_iters=self.max_iters, grad_tol=self.grad_tol, step0=1.0)
        U, history, _ = solve_ocp(
            inputs["initial"], inputs["targets"], inputs["forcing"],
            inputs["params"], inputs["config"], opt,
        )
        return {"U": U, "history": history}

    def check(self, inputs, result):
        hist = result["history"]
        bad = []
        stationarity = hist[-1]["grad_norm"] / max(1.0, result["U"].norm())
        if not (len(hist) - 1 < self.max_iters and stationarity <= self.grad_tol):
            bad.append(
                f"stopped at {len(hist) - 1} iterations with relative gradient "
                f"{stationarity:.2e}, not on grad_tol {self.grad_tol:g}"
            )
        if not _non_increasing(hist):
            bad.append("cost history increases")
        return bad

    def exact(self, result):
        return {"iterations": len(result["history"]) - 1}


class DaTwin64:
    name = "da-twin-64"
    T = 0.05
    max_iters = 200

    def setup(self, seed, workdir):
        g, params = _model(64)
        shift = _shift_of(seed, g)
        config = SolverConfig(dt=1e-3, T=self.T, nu=0.1)
        phi0 = _rolled(synth.sine_scalar(g, (1, 1), 0.1, mean=0.2), shift)
        U_true = _rolled(
            synth.random_divfree_velocity(
                g, np.random.default_rng(42), amplitude=0.5, k_cut=2.0
            ),
            shift,
        )
        stub = CostTargets(
            u_M_f=VectorField.zeros(g), phi_M_f=ScalarField.zeros(g),
            weights=CostWeights(control=1e-3),
        )
        template = AssimilationProblem(
            measurements=stub, phi0=phi0, forcing=None, params=params, config=config
        )
        return {"U_true": U_true, "template": template}

    def job(self, inputs, workdir):
        opt = OptimizerConfig(max_iters=self.max_iters, grad_tol=1e-7, step0=1.0)
        return twin_experiment(inputs["U_true"], 0.0, inputs["template"], opt)

    def check(self, inputs, result):
        bad = []
        if not result["cost_ratio"] <= 1e-2:
            bad.append(f"cost ratio {result['cost_ratio']:.2e} > 1e-2")
        if not result["recovery_error"] <= 0.1:
            bad.append(f"recovery error {result['recovery_error']:.2e} > 0.1")
        if not result["iterations"] < self.max_iters:
            bad.append("stopped on max_iters")
        if not _non_increasing(result["history"]):
            bad.append("cost history increases")
        return bad

    def exact(self, result):
        return {"iterations": result["iterations"]}


WORKLOADS = {w.name: w for w in (Simulate256, Ocp64, DaTwin64)}
