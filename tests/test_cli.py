import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chnsopt
from chnsopt import ScalarField, simulate, write_snapshot, write_vector_snapshot
from chnsopt import synth
from chnsopt.cli import _COMMANDS, RunContext, main, write_csv


def base_config(outdir, problem="simulate", **sections):
    cfg = {
        "problem": problem,
        "seed": 7,
        "grid": {"n": 16},
        "solver": {"nu": 0.1, "dt": 1e-3, "T": 5e-3},
        "output": {"directory": str(outdir)},
    }
    cfg.update(sections)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    return header, rows


def column(header, rows, name):
    i = header.index(name)
    return [float(r[i]) for r in rows]


class TestErrorPaths:
    def test_unreadable_config(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        rc = main(["simulate", "--config", str(p)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_viscosity(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        del cfg["solver"]["nu"]
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "missing config key solver.nu" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["solver"]["typo_key"] = 1
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "unknown config key solver.typo_key" in capsys.readouterr().err

    def test_dealias_is_an_unknown_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["solver"]["dealias"] = True
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "unknown config key solver.dealias" in capsys.readouterr().err

    def test_problem_command_mismatch(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", problem="ocp")
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "problem" in err

    def test_model_assumption_gate(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["kernel"] = {"family": "gaussian", "epsilon": 0.5, "mass": 1.0}
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "model assumption (2) violated" in capsys.readouterr().err


MALFORMED_MODES = [
    pytest.param(3, id="scalar"),
    pytest.param(["a", 1], id="non-integer-entry"),
    pytest.param([1], id="one-entry"),
    pytest.param([1, 0, 2], id="three-entries"),
    pytest.param("xy", id="string"),
    pytest.param([True, 0], id="boolean-entry"),
]


def _set(*keys, value):
    """Config edit that sets cfg[k1][k2]... = value."""

    def edit(cfg):
        d = cfg
        for k in keys[:-1]:
            d = d.setdefault(k, {})
        d[keys[-1]] = value

    return edit


MALFORMED_CONFIGS = [
    pytest.param(_set("seed", value=-1), "config.seed", id="negative-seed"),
    pytest.param(
        _set("initial", "u", value={"type": [1]}), "initial.u.type", id="unhashable-vector-type"
    ),
    pytest.param(
        _set("initial", "phi", value={"type": [1]}),
        "initial.phi.type",
        id="unhashable-scalar-type",
    ),
    pytest.param(
        _set("initial", "u", value={"type": "file", "path": "missing"}),
        "initial.u.path",
        id="missing-vector-file",
    ),
    pytest.param(
        _set("initial", "phi", value={"type": "file", "path": "missing"}),
        "initial.phi.path",
        id="missing-scalar-file",
    ),
    pytest.param(_set("kernel", "epsilon", value=1e308), "kernel epsilon", id="huge-epsilon"),
    pytest.param(_set("solver", "T", value=float("inf")), "solver.T", id="infinite-T"),
    pytest.param(
        lambda cfg: cfg["solver"].update(dt=float("inf"), T=float("inf")),
        "solver.dt",
        id="infinite-dt-and-T",
    ),
    pytest.param(_set("kernel", "mass", value=float("nan")), "kernel.mass", id="nan-mass"),
    pytest.param(
        _set("optimizer", "radius", value=float("inf")), "optimizer.radius", id="infinite-radius"
    ),
    pytest.param(_set("grid", "l", value=10**400), "grid.l", id="int-beyond-float"),
    pytest.param(
        _set("potential", value={"family": "user-polynomial", "coefficients": [0, 10**400, 1]}),
        "potential.coefficients",
        id="coefficient-beyond-float",
    ),
    # finite coefficients whose derivatives' are not: 2 * 1e308 overflows
    pytest.param(
        _set("potential", value={"family": "user-polynomial", "coefficients": [0, 0, 1e308, 1]}),
        "potential.coefficients",
        id="coefficient-derivative-beyond-float",
    ),
    # 8 TiB of trajectory for one step; numpy would fail allocating the grid
    pytest.param(_set("grid", "n", value=2**40), "grid", id="trajectory-beyond-memory-grid"),
    pytest.param(
        _set("solver", "T", value=1e6), "solver.T/solver.dt", id="trajectory-beyond-memory-steps"
    ),
    pytest.param(
        lambda cfg: cfg["solver"].update(dt=1e-10, T=1e300),
        "solver.T/solver.dt",
        id="step-count-beyond-float",
    ),
    pytest.param(
        _set("initial", "u", value={"type": "random-divfree", "k_cut": -1}),
        "initial.u.k_cut",
        id="negative-vector-k-cut",
    ),
    pytest.param(
        _set("initial", "u", value={"type": "random-divfree", "k_cut": 0}),
        "initial.u.k_cut",
        id="zero-vector-k-cut",
    ),
    pytest.param(
        _set("initial", "phi", value={"type": "random", "k_cut": -1}),
        "initial.phi.k_cut",
        id="negative-scalar-k-cut",
    ),
    pytest.param(
        _set("initial", "phi", value={"type": "random", "k_cut": 0.0}),
        "initial.phi.k_cut",
        id="zero-scalar-k-cut",
    ),
    # positive, but the filter leaves nothing of the field on the 16^2, 2 pi box
    pytest.param(
        _set("initial", "u", value={"type": "random-divfree", "amplitude": 0.5, "k_cut": 0.05}),
        "initial.u.k_cut",
        id="vector-k-cut-filters-everything",
    ),
    pytest.param(
        _set("initial", "phi", value={"type": "random", "amplitude": 0.3, "k_cut": 0.05}),
        "initial.phi.k_cut",
        id="scalar-k-cut-filters-everything",
    ),
    # simulate reads no targets, so it takes none
    pytest.param(_set("targets", value="nonsense"), "targets", id="targets-not-a-mapping"),
    pytest.param(_set("targets", "bogus", value=1), "targets.bogus", id="targets-unknown-key"),
    pytest.param(
        _set("initial", "u", value={"type": "file", "path": 5}),
        "initial.u.path",
        id="field-path-not-a-string",
    ),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("edit, key", MALFORMED_CONFIGS)
    def test_fails_closed_naming_the_key(self, tmp_path, capsys, edit, key):
        cfg = base_config(tmp_path / "out")
        edit(cfg)
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_output_directory_naming_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        rc = main(["simulate", "--config", write_config(tmp_path, base_config(taken))])
        assert rc == 2
        assert "output.directory" in capsys.readouterr().err
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        rc = main(["simulate", "--config", cfg, "--output", str(taken)])
        assert rc == 2
        assert "--output" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--seed", "-3"])
        assert rc == 2
        assert "config.seed" in capsys.readouterr().err


PROBLEM_OF = {
    "simulate": "simulate",
    "optimize": "ocp",
    "assimilate": "da",
    "check": "check",
    "gradient-test": "gradient-test",
}

# (subcommand, config edit, the key the message names): values a constructor
# or a runner used to refuse, some after making the output directory
MALFORMED_BEFORE_OUTPUT = [
    pytest.param("check", _set("targets", value="nonsense"), "targets", id="check-targets"),
    pytest.param("check", _set("targets", "bogus", value=1), "targets.bogus", id="check-bogus"),
    pytest.param("simulate", _set("grid", "n", value=6), "grid.n", id="grid-n-small"),
    pytest.param("simulate", _set("grid", "n", value=17), "grid.n", id="grid-n-odd"),
    pytest.param("simulate", _set("grid", "l", value=-1), "grid.l", id="grid-l-negative"),
    pytest.param("simulate", _set("solver", "dt", value=-1), "solver.dt", id="dt-negative"),
    pytest.param(
        "simulate", _set("solver", "T", value=0.0055), "solver.T/solver.dt", id="T-between-steps"
    ),
    pytest.param(
        "simulate", _set("optimizer", "armijo_c", value=2), "optimizer.armijo_c", id="armijo-c"
    ),
    pytest.param("simulate", _set("cost", "control", value=-1), "cost.control", id="cost-negative"),
    pytest.param(
        "assimilate", _set("targets", "noise", value=-1), "targets.noise", id="noise-negative"
    ),
    pytest.param(
        "simulate",
        _set("initial", "u", value={"type": "single-mode", "mode": [0, 0]}),
        "initial.u.mode",
        id="zero-mode",
    ),
    pytest.param("simulate", _set("kernel", "family", value="foo"), "kernel.family", id="kernel"),
    pytest.param(
        "simulate",
        _set("potential", value={"family": "user-polynomial", "coefficients": [1, 0]}),
        "potential.coefficients",
        id="potential-degree-1",
    ),
    pytest.param(
        "simulate", _set("initial", "u", value={"type": "nope"}), "initial.u.type", id="u-type"
    ),
    pytest.param(
        "simulate",
        _set("initial", "phi", value={"type": "random", "k_cut": -1}),
        "initial.phi.k_cut",
        id="phi-k-cut",
    ),
    pytest.param("simulate", _set("forcing", value={"type": "sine"}), "forcing.type", id="forcing"),
    pytest.param("optimize", _set("targets", "mode", value="foo"), "targets.mode", id="twin-mode"),
    pytest.param(
        "gradient-test",
        _set("targets", "control", value={"type": "random-divfree", "k_cut": 0}),
        "targets.control.k_cut",
        id="control-k-cut",
    ),
    pytest.param(
        "assimilate",
        _set("targets", "truth", value={"type": "constant", "value": 1}),
        "targets.truth.type",
        id="truth-scalar-type",
    ),
]


class TestFailsBeforeOutput:
    @pytest.mark.parametrize("command, edit, key", MALFORMED_BEFORE_OUTPUT)
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, edit, key):
        cfg = base_config(tmp_path / "out", problem=PROBLEM_OF[command])
        edit(cfg)
        rc = main([command, "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_too_long_to_convert(self, tmp_path, capsys):
        p = tmp_path / "long.json"
        p.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["simulate", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


def _run_bytes(tmp_path, command, cfg, name, files):
    """The named artifact files of one run, which must succeed."""
    cfg = json.loads(json.dumps(cfg))
    cfg["output"]["directory"] = str(tmp_path / name)
    assert main([command, "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
    return [(tmp_path / name / f).read_bytes() for f in files]


class TestNullValues:
    """A null number reads as absent; a null initial field, targets.control
    or targets.truth is the zero field; a null forcing is no forcing; a null
    targets is absent; any other null section, output.directory,
    kernel.family or potential.family is refused."""

    SIMULATED = ["diagnostics.csv", "u_final_x.fld", "u_final_y.fld", "phi_final.fld"]

    def test_null_numbers_read_as_absent(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        plain = _run_bytes(tmp_path, "simulate", cfg, "plain", self.SIMULATED)
        nulls = json.loads(json.dumps(cfg))
        nulls["grid"]["l"] = None
        nulls["solver"]["stabilization"] = None
        nulls["kernel"] = {"epsilon": None, "mass": None}
        nulls["cost"] = {"control": None}
        nulls["optimizer"] = {"radius": None, "max_iters": None}
        nulls["output"]["dump_every"] = None
        nulls["targets"] = None
        nulls["problem"] = None
        assert _run_bytes(tmp_path, "simulate", nulls, "nulls", self.SIMULATED) == plain

    def test_null_required_number_is_missing(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["solver"]["nu"] = None
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "missing config key solver.nu" in capsys.readouterr().err

    def test_null_fields_are_zero_and_null_forcing_is_none(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        zero = {"type": "zero"}
        cfg["initial"] = {"u": zero, "phi": zero}
        plain = _run_bytes(tmp_path, "simulate", cfg, "plain", self.SIMULATED)
        cfg["initial"] = {"u": None, "phi": None}
        cfg["forcing"] = None
        assert _run_bytes(tmp_path, "simulate", cfg, "nulls", self.SIMULATED) == plain

    def test_null_targets(self, tmp_path):
        cfg = base_config(tmp_path / "out", problem="ocp")
        cfg["optimizer"] = {"max_iters": 1}
        files = ["history.csv", "report.txt"]
        plain = _run_bytes(tmp_path, "optimize", cfg, "plain", files)
        cfg["targets"] = None
        assert _run_bytes(tmp_path, "optimize", cfg, "null", files) == plain
        cfg["targets"] = {"control": {"type": "zero"}}
        zero = _run_bytes(tmp_path, "optimize", cfg, "zero", files)
        cfg["targets"] = {"control": None}
        assert _run_bytes(tmp_path, "optimize", cfg, "null-control", files) == zero
        cfg = base_config(tmp_path / "out", problem="da")
        cfg["optimizer"] = {"max_iters": 1}
        cfg["targets"] = {"truth": {"type": "zero"}}
        zero = _run_bytes(tmp_path, "assimilate", cfg, "zero-truth", files)
        cfg["targets"] = {"truth": None}
        assert _run_bytes(tmp_path, "assimilate", cfg, "null-truth", files) == zero

    @pytest.mark.parametrize(
        "keys",
        [
            ("grid",),
            ("solver",),
            ("kernel",),
            ("potential",),
            ("initial",),
            ("cost",),
            ("optimizer",),
            ("output",),
            ("output", "directory"),
            ("kernel", "family"),
            ("potential", "family"),
        ],
        ids=".".join,
    )
    def test_refused_nulls(self, tmp_path, keys):
        cfg = base_config(tmp_path / "out")
        _set(*keys, value=None)(cfg)
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out").exists()


class TestReadmeConfig:
    def test_complete_config_is_valid(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A complete config:\s*```json\n(.*?)```", readme, re.S)
        cfg = json.loads(block.group(1))
        ctx = RunContext(cfg, "optimize", None, None)
        assert ctx.grid.n_x == cfg["grid"]["n"]
        assert ctx.solver.n_steps == 250


class TestMalformedMode:
    @pytest.mark.parametrize("mode", MALFORMED_MODES)
    def test_single_mode_velocity(self, tmp_path, capsys, mode):
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {"u": {"type": "single-mode", "mode": mode}}
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "initial.u.mode must be a list of two integers" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MALFORMED_MODES)
    def test_sine_scalar(self, tmp_path, capsys, mode):
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {"phi": {"type": "sine", "mode": mode, "amplitude": 0.1}}
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "initial.phi.mode must be a list of two integers" in capsys.readouterr().err

    def test_well_formed_mode_runs(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {
            "u": {"type": "single-mode", "mode": [0, 2], "amplitude": 0.3},
            "phi": {"type": "sine", "mode": [2, 1], "amplitude": 0.1},
        }
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 0


class TestSimulate:
    def test_artifacts_and_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        header, rows = read_csv(out / "diagnostics.csv")
        assert header == ["t", "energy", "kinetic", "enstrophy", "mass", "residual"]
        assert len(rows) == 6
        masses = column(header, rows, "mass")
        assert np.max(np.abs(np.array(masses) - masses[0])) <= 1e-13
        energies = column(header, rows, "energy")
        assert all(b < a for a, b in zip(energies, energies[1:]))
        for name in ("u_final_x.fld", "u_final_y.fld", "phi_final.fld"):
            assert (out / name).exists()

    def test_runs_are_deterministic(self, tmp_path):
        cfg1 = base_config(tmp_path / "a")
        cfg1["initial"] = {
            "u": {"type": "random-divfree", "amplitude": 0.5, "k_cut": 3.0}
        }
        cfg2 = json.loads(json.dumps(cfg1))
        cfg2["output"]["directory"] = str(tmp_path / "b")
        rc1 = main(["simulate", "--config", write_config(tmp_path, cfg1, "a.json")])
        rc2 = main(["simulate", "--config", write_config(tmp_path, cfg2, "b.json")])
        assert rc1 == 0 and rc2 == 0
        for name in ("diagnostics.csv", "phi_final.fld", "u_final_x.fld"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_random_fields(self, tmp_path):
        cfg = base_config(tmp_path / "a")
        cfg["initial"] = {
            "u": {"type": "random-divfree", "amplitude": 0.5, "k_cut": 3.0}
        }
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--seed", "1"]) == 0
        first = (tmp_path / "a" / "u_final_x.fld").read_bytes()
        assert main(["simulate", "--config", path, "--seed", "2"]) == 0
        second = (tmp_path / "a" / "u_final_x.fld").read_bytes()
        assert first != second

    def test_output_flag_overrides_config(self, tmp_path):
        cfg = base_config(tmp_path / "ignored")
        rc = main(
            [
                "simulate",
                "--config",
                write_config(tmp_path, cfg),
                "--output",
                str(tmp_path / "chosen"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "chosen" / "diagnostics.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_snapshot_dumps(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["solver"]["T"] = 4e-3
        cfg["output"]["dump_every"] = 2
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        for n in (0, 2, 4):
            assert (out / f"u_{n:06d}_x.fld").exists()
            assert (out / f"phi_{n:06d}.fld").exists()
        assert not (out / "phi_000001.fld").exists()

    def test_initial_fields_from_files(self, tmp_path, g16, rng):
        u = synth.random_divfree_velocity(g16, rng, amplitude=0.4, k_cut=3.0)
        phi = synth.sine_scalar(g16, (1, 1), 0.1, mean=0.2)
        write_vector_snapshot(str(tmp_path / "u0"), u)
        write_snapshot(str(tmp_path / "phi0.fld"), phi)
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["initial"] = {
            "u": {"type": "file", "path": str(tmp_path / "u0")},
            "phi": {"type": "file", "path": str(tmp_path / "phi0.fld")},
        }
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        header, rows = read_csv(out / "diagnostics.csv")
        assert column(header, rows, "mass")[0] == pytest.approx(0.2, abs=1e-12)

    def test_grid_mismatch_in_field_file(self, tmp_path, g32, rng, capsys):
        u = synth.taylor_green(g32, 0.4)
        write_vector_snapshot(str(tmp_path / "u0"), u)
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {"u": {"type": "file", "path": str(tmp_path / "u0")}}
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2

    @pytest.mark.parametrize("key", ["phi", "u"])
    def test_non_finite_field_file(self, tmp_path, g16, key, capsys):
        """A field file holding a NaN cannot be read: exit 2 naming the
        key's path, as for a missing file, not a numeric error."""
        bad = np.ones(g16.shape)
        bad[3, 4] = np.nan
        path = str(tmp_path / ("phi0.fld" if key == "phi" else "u0"))
        for name in [path] if key == "phi" else [f"{path}_x.fld", f"{path}_y.fld"]:
            write_snapshot(name, ScalarField._of(g16, bad))
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {key: {"type": "file", "path": path}}
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert f"config key initial.{key}.path" in capsys.readouterr().err


def _traced_peak(argv):
    """The tracemalloc peak of one successful cli.main run above its start,
    in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _dense_artifacts(cfg, out):
    """simulate's artifacts written through the runner's own writers from
    a full record of every node, into out."""
    ctx = RunContext(cfg, "simulate", None, None)
    traj = simulate(ctx.initial_state(), None, ctx.forcing(), ctx.params, ctx.solver)
    d = traj.diagnostics
    residual = np.append(d["residual"], 0.0)
    out.mkdir()
    write_csv(
        str(out / "diagnostics.csv"),
        ["t", "energy", "kinetic", "enstrophy", "mass", "residual"],
        (
            [d[k][n] for k in ("t", "energy", "kinetic", "enstrophy", "mass")] + [residual[n]]
            for n in range(len(traj))
        ),
    )
    if ctx.dump_every > 0:
        for n in range(0, len(traj), ctx.dump_every):
            write_vector_snapshot(str(out / f"u_{n:06d}"), traj.states[n].u)
            write_snapshot(str(out / f"phi_{n:06d}.fld"), traj.states[n].phi)
    write_vector_snapshot(str(out / "u_final"), traj.final.u)
    write_snapshot(str(out / "phi_final.fld"), traj.final.phi)


class TestSimulateKeepsWhatItWrites:
    """simulate keeps only the nodes it writes: its artifacts are a full
    record's, and its memory does not grow with the step count."""

    @pytest.mark.parametrize("dump_every", [0, 1, 3])
    @pytest.mark.parametrize(
        "grid",
        [{"n": 16}, {"n_x": 32, "n_y": 48, "l_y": 3.0 * np.pi}],
        ids=["16x16", "32x48-anisotropic"],
    )
    def test_artifacts_match_a_full_record_bytewise(self, tmp_path, grid, dump_every):
        # 5 steps: the last dump of every third node is not the final node
        cfg = base_config(
            tmp_path / "run",
            grid=grid,
            initial={"phi": {"type": "random", "amplitude": 0.3, "k_cut": 3.0}},
            forcing={"type": "single-mode", "mode": [1, 1], "amplitude": 0.1},
        )
        cfg["output"]["dump_every"] = dump_every
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        _dense_artifacts(cfg, tmp_path / "full")
        names = sorted(os.listdir(tmp_path / "full"))
        assert sorted(os.listdir(tmp_path / "run")) == names
        dumped = {0: 0, 1: 6, 3: 2}[dump_every]  # nodes 0 to 5, or 0 and 3
        assert len(names) == 4 + 3 * dumped
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes(), name

    @pytest.mark.parametrize("dump_every", [0, 1])
    def test_peak_memory_does_not_grow_with_the_step_count(self, tmp_path, dump_every):
        # a full record of 120 nodes more would add 120 states, about 11 MiB;
        # with dump_every 1 every node is written, each as it is finished
        def peak(n_steps, traced=True):
            cfg = base_config(tmp_path / f"out{n_steps}", grid={"n": 64})
            cfg["solver"]["T"] = n_steps * 1e-3
            cfg["output"]["dump_every"] = dump_every
            argv = ["simulate", "--config", write_config(tmp_path, cfg, f"{n_steps}.json")]
            return _traced_peak(argv) if traced else main(argv)

        assert peak(4, traced=False) == 0  # first-call caches stay out of the peaks
        one_state = 3 * 64 * 64 * 8
        assert abs(peak(160) - peak(40)) < one_state


class TestSimulateFailure:
    """A simulate run that fails a numeric check exits with code 3 and its
    message, leaving the snapshots of the nodes finished before the failure
    and no diagnostics or final fields."""

    @pytest.mark.parametrize("n", [16, 96], ids=["16x16-one-thread", "96x96-worker"])
    def test_a_cfl_failure_leaves_the_earlier_snapshots_only(self, tmp_path, capsys, n):
        # at rest under a uniform-in-y shear force, u_y grows by about
        # dx / (3.5 dt) a step, so max|u| dt/dx first exceeds 1 at node 4
        dt = 0.01
        cfg = base_config(
            tmp_path / "out",
            grid={"n": n},
            solver={"nu": 0.1, "dt": dt, "T": 7 * dt},
            initial={"u": {"type": "zero"}, "phi": {"type": "zero"}},
            forcing={"type": "single-mode", "mode": [1, 0],
                     "amplitude": 2.0 * np.pi / n / dt / (3.5 * dt)},
        )
        cfg["output"]["dump_every"] = 1
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: advective CFL heuristic exceeded")
        written = sorted(os.listdir(tmp_path / "out"))
        assert written == sorted(
            name for k in range(4)
            for name in (f"u_{k:06d}_x.fld", f"u_{k:06d}_y.fld", f"phi_{k:06d}.fld")
        )


class TestGradientTestCommand:
    def test_orders_written_and_printed(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, problem="gradient-test")
        cfg["cost"] = {"control": 1e-2}
        rc = main(["gradient-test", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "observed order" in text
        header, rows = read_csv(out / "gradient_test.csv")
        assert header == ["h", "remainder", "order"]
        assert len(rows) == 3
        rem = column(header, rows, "remainder")
        assert rem[0] > rem[1] > rem[2]
        assert float(rows[1][2]) >= 1.7


class TestOptimizeCommand:
    def test_twin_problem_descends(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, problem="ocp")
        cfg["solver"]["T"] = 5e-3
        cfg["cost"] = {"control": 1e-3}
        cfg["optimizer"] = {"max_iters": 4, "grad_tol": 1e-10}
        rc = main(["optimize", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        header, rows = read_csv(out / "history.csv")
        costs = column(header, rows, "cost")
        assert costs[-1] < costs[0]
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "problem: ocp" in report
        assert "cost_ratio" in report
        header, rows = read_csv(out / "control_index.csv")
        assert len(rows) == 6
        assert (out / "control_000000_x.fld").exists()
        assert (out / "control_000005_y.fld").exists()

    def test_history_is_reproducible(self, tmp_path):
        cfg = base_config(tmp_path / "a", problem="ocp")
        cfg["optimizer"] = {"max_iters": 3, "grad_tol": 1e-10}
        outs = []
        for sub in ("a", "b"):
            cfg["output"]["directory"] = str(tmp_path / sub)
            rc = main(["optimize", "--config", write_config(tmp_path, cfg, f"{sub}.json")])
            assert rc == 0
            outs.append((tmp_path / sub / "history.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_peak_memory_slope_is_within_the_guards_count(self, tmp_path):
        """Tooling: the memory guard counts six dense trajectories for
        optimize, and its tracemalloc peak grows by at most six states per
        node at 32^2 (5.86 measured): the targets and their transforms, the
        sweep's record and four control signals of 2/3 of a state each.
        Seven signals, with the zero guess, the move U_try - U and the
        truth held through the run, read 8.44."""

        def peak(n_steps, traced=True):
            cfg = base_config(tmp_path / f"out{n_steps}", problem="ocp", grid={"n": 32})
            cfg["solver"]["T"] = n_steps * 1e-3
            cfg["cost"] = {"control": 1e-3}
            cfg["optimizer"] = {"max_iters": 4, "grad_tol": 1e-10}
            argv = ["optimize", "--config", write_config(tmp_path, cfg, f"{n_steps}.json")]
            return _traced_peak(argv) if traced else main(argv)

        assert peak(4, traced=False) == 0  # first-call caches stay out of the peaks
        one_state = 3 * 32 * 32 * 8
        slope = (peak(60) - peak(20)) / (40 * one_state)
        assert _COMMANDS["optimize"].dense == 6
        assert slope <= _COMMANDS["optimize"].dense


class TestAssimilateCommand:
    def test_twin_recovery_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, problem="da")
        cfg["solver"]["T"] = 0.01
        cfg["cost"] = {"control": 1e-3}
        cfg["optimizer"] = {"max_iters": 10, "grad_tol": 1e-7}
        cfg["targets"] = {"truth": {"type": "taylor-green", "amplitude": 0.4}}
        rc = main(["assimilate", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "problem: da" in report
        fields = dict(
            (k.strip(), v.strip())
            for k, v in (
                line.split(":", 1) for line in report.splitlines() if ":" in line
            )
        )
        assert float(fields["final_cost"]) < float(fields["initial_cost"])
        assert float(fields["recovery_error"]) < 0.5
        assert (out / "u_recovered_x.fld").exists()
        header, rows = read_csv(out / "history.csv")
        costs = column(header, rows, "cost")
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestCheckCommand:
    def test_step_count_beyond_float_range(self, tmp_path, capsys):
        # the check's memory estimate caps the steps, so the step count
        # itself must refuse T/dt = inf
        cfg = base_config(tmp_path / "out", problem="check")
        cfg["solver"] = {"nu": 0.1, "dt": 1e-10, "T": 1e300}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "solver.T/solver.dt" in err
        assert "not a finite number of steps" in err
        assert "cannot convert" not in err
        assert not (tmp_path / "out").exists()

    def test_all_checks_pass_on_a_sound_config(self, tmp_path, capsys):
        # the second box has sides that are not multiples of 2 pi
        grids = [
            {"n": 32},
            {"n_x": 32, "n_y": 48, "l_x": 2.0 * np.pi, "l_y": 3.0 * np.pi},
        ]
        for i, grid in enumerate(grids):
            out = tmp_path / f"out{i}"
            cfg = base_config(out, problem="check")
            cfg["grid"] = grid
            cfg["solver"] = {"nu": 0.1, "dt": 1e-3, "T": 0.01}
            rc = main(["check", "--config", write_config(tmp_path, cfg)])
            text = capsys.readouterr().out
            assert rc == 0, (grid, text)
            assert "FAIL" not in text
            assert text.count("PASS") == 14
            report = (out / "report.txt").read_text(encoding="utf-8")
            assert report.count("PASS") == 14


class TestImportCost:
    def test_import_leaves_out_thread_pools_and_logging(self):
        # concurrent.futures imports logging, several ms of every fresh start
        src = os.path.dirname(os.path.dirname(chnsopt.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = (
            "import sys, chnsopt, chnsopt.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
