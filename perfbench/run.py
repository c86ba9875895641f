"""chnsopt benchmark: run one workload in a closed loop for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One job runs at a time and the next starts when it ends, as long as it is
expected to end within ``--seconds`` (a warm-up job and at least one timed
job always run).  Set-up is repeated before every timed job and its median
is reported; each repetition counts the import of chnsopt (with numpy) in a
fresh interpreter, since a module is imported only once per process.

``--trace 0`` times jobs with only the sweep counters installed and reports
the end-to-end metrics; ``wall_s`` is the median of the timed jobs.  ``--trace 1``
runs the warm-up, then pairs of jobs, untraced then traced, checks that the
exact counts agree, and reports the per-layer metrics of the traced jobs
plus the tracing overhead; its spans are written to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
_clock = time.perf_counter

# Why a per-layer metric reads 0 on a workload that never enters the layer.
NOT_APPLICABLE = {
    "tangent_adjoint.adjoint": "no adjoint sweep",
    "control.cost_eval_s": "no distributed-control cost (cost_ocp) is evaluated",
    "control.": "no optimizer loop",
    "assimilation.": "no assimilation problem",
    "cli.": "does not go through the CLI",
    "forward.diagnostics_s": "simulate runs with diagnostics off",
    "physics.validate_s": "assumptions are validated only by the CLI",
    "physics.chemical_potential_s": "only the energy diagnostics call it",
}


def _load_program():
    """Import chnsopt from the checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chnsopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no chnsopt sources at {src}")
    sys.path.insert(0, str(src))
    import chnsopt

    if Path(chnsopt.__file__).resolve().parent != src / "chnsopt":
        raise SystemExit(f"error: chnsopt was imported from {chnsopt.__file__}")


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import chnsopt, chnsopt.cli; print(time.perf_counter() - t)"
)


def _fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import chnsopt, numpy included."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload, inputs, workdir: Path, counter):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.counter = counter
        self.jobs = []
        self.spans = []

    def run_job(self, traced: bool, warmup: bool = False) -> dict:
        job_id = len(self.jobs)
        jobdir = self.workdir / f"job-{job_id}"
        jobdir.mkdir()
        gc.collect()
        self.counter.take()
        record = {
            "job": job_id, "traced": traced, "warmup": warmup, "failures": [], "exact": None,
        }
        try:
            tracer = bench_trace.Tracer(job_id) if traced else None
            t0 = _clock()
            try:
                if tracer is None:
                    result = self.workload.job(self.inputs, str(jobdir))
                else:
                    result = tracer.call(lambda: self.workload.job(self.inputs, str(jobdir)))
            finally:
                record["wall_s"] = _clock() - t0
                if tracer is not None:
                    tracer.restore()
            counts = self.counter.take()
            record["exact"] = {
                "forward_solves": counts["forward.simulate"],
                "adjoint_solves": counts["tangent_adjoint.adjoint_solve"],
                **self.workload.exact(result),
            }
            record["failures"] = self.workload.check(self.inputs, result)
            if tracer is not None:
                self.spans.extend(tracer.spans)
                record["layers"] = bench_trace.layer_metrics(tracer.spans)
                record["layers"]["cli.bytes_written"] = record["exact"].get(
                    "bytes_written", 0
                )
                self._check_traced(record, tracer)
        except bench_trace.CountMismatch:
            raise
        except Exception as e:  # a failed job is counted, not fatal
            traceback.print_exc()
            record["failures"].append(f"{type(e).__name__}: {e}")
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        for f in record["failures"]:
            print(f"job {job_id} failed check: {f}", file=sys.stderr)
        self.jobs.append(record)
        return record

    def _check_traced(self, record, tracer):
        """The traced job's own counts must agree with each other."""
        layers = record["layers"]
        exact = record["exact"]
        sweeps = [s for s in tracer.spans if s.name == "forward.simulate"]
        sweep_steps = sum(s.info["steps"] for s in sweeps)
        problems = []
        if layers["forward.step_calls"] != sweep_steps:
            problems.append(
                f"forward.step_calls {layers['forward.step_calls']} != "
                f"{sweep_steps} steps summed over simulate sweeps"
            )
        if len(sweeps) != exact["forward_solves"]:
            problems.append(
                f"{len(sweeps)} simulate spans != {exact['forward_solves']} counted"
            )
        if layers["tangent_adjoint.adjoint_calls"] != exact["adjoint_solves"]:
            problems.append("adjoint spans differ from the adjoint count")
        if getattr(self.workload, "cost_evals_are_forward_solves", False) and (
            layers["control.cost_evals"] != exact["forward_solves"]
        ):
            problems.append(
                f"control.cost_evals {layers['control.cost_evals']} != "
                f"forward_solves {exact['forward_solves']}"
            )
        if problems:
            raise bench_trace.CountMismatch("; ".join(problems))

    def check_exact_counts(self):
        """Every job ran the same inputs, traced or not: counts must repeat."""
        seen = {json.dumps(j["exact"], sort_keys=True) for j in self.jobs if j["exact"]}
        if len(seen) > 1:
            raise bench_trace.CountMismatch(
                "exact counts differ between jobs: " + " | ".join(sorted(seen))
            )


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _load_program()
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench_workloads.WORKLOADS)}")
    workload = bench_workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    counter = bench_trace.SolveCounter()
    setup_times = []

    def set_up():
        d = workdir / f"setup-{len(setup_times)}"
        d.mkdir()
        import_s = _fresh_import_s()
        t0 = _clock()
        inputs = workload.setup(args.seed, str(d))
        setup_times.append(import_s + _clock() - t0)
        return inputs

    try:
        t_start = _clock()
        runner = Runner(workload, set_up(), workdir, counter)
        overheads = []
        # The first job of a process pays first-touch memory costs that later
        # jobs do not; it is checked and counted but its time is not used.
        runner.run_job(traced=False, warmup=True)
        while True:
            t_round = _clock()
            # Set-up is repeated between jobs, not all before them, so that its
            # median samples the machine over the same stretch as the jobs.
            set_up()
            plain = runner.run_job(traced=False)
            if args.trace:
                traced = runner.run_job(traced=True)
                overheads.append(traced["wall_s"] - plain["wall_s"])
            # Stop when one more round like this one would end after --seconds.
            now = _clock()
            if 2 * now - t_round - t_start > args.seconds:
                break
        runner.check_exact_counts()
        if args.trace:
            bench_trace.write_spans(
                runner.spans, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
    except bench_trace.CountMismatch as e:
        raise SystemExit(f"error: benchmark counts disagree: {e}") from e
    finally:
        counter.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = runner.jobs
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["failures"])
    exact = next((j["exact"] for j in jobs if j["exact"]), {})
    forward = exact.get("forward_solves", 0)
    adjoint = exact.get("adjoint_solves", 0)
    walls = [j["wall_s"] for j in jobs if not (j["traced"] or j["warmup"])]
    end_to_end = {
        "wall_s": _metric(_median(walls), "s"),
        "setup_s": _metric(_median(setup_times), "s"),
        "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
        "forward_solves": _metric(forward, "count"),
        "solves": _metric(forward + adjoint, "count"),
        "ok_share": _metric(1.0 - failed / attempted, "share"),
    }
    extra = {
        "wall_max_s": _metric(max(walls), "s"),
        "wall_first_s": _metric(jobs[0]["wall_s"], "s"),
        "adjoint_solves": _metric(adjoint, "count"),
        "failed_share": _metric(failed / attempted, "share"),
    }
    per_layer = {}
    if args.trace:
        traced = [j for j in jobs if j.get("layers")]
        units = bench_trace.LAYER_UNITS
        for name, unit in units.items():
            per_layer[name] = _metric(_median([j["layers"][name] for j in traced]), unit)
        per_layer["trace.overhead_s"] = _metric(_median(overheads), "s")

    metrics = per_layer if args.trace else end_to_end
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} jobs, {failed} failed, wall_s is the median of {len(walls)} timed")
    for name, m in {**metrics, **({} if args.trace else extra)}.items():
        note = ""
        if args.trace and m["value"] == 0:
            reason = next((r for k, r in NOT_APPLICABLE.items() if name.startswith(k)), None)
            note = f"  (n/a: {reason})" if reason else ""
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{note}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in jobs],
        "metrics": {**metrics, **extra},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
