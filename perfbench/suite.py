"""Run every workload of the chnsopt benchmark and summarise the figures.

    python3 perfbench/suite.py                      # each workload once, seed 1
    python3 perfbench/suite.py --seeds 1 2 3 4 5 --trace 0
    python3 perfbench/suite.py --seeds 1 2 ... 10 --trace 0 1 --write perfbench/baseline.json

Every workload of ``BENCHMARK.json`` runs at its ``run_seconds``, each run a
separate ``perfbench/run.py`` process started one after the other from the
root of a checkout.  For every metric the summary gives the
median over seeds, the quartiles, and the spread (interquartile distance as
a share of the median) next to the bound fixed in ``BENCHMARK.json``.
``--write`` stores the runs, the summary and the machine facts as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft, single-threaded, complex-to-complex fft2/ifft2)",
    }


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    record_path = HERE / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"seed": seed, "trace": trace, "result": result, "metrics": record["metrics"]}


def summarise(runs, bounds) -> dict:
    names = runs[0]["metrics"].keys()
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
            "runs": len(values),
        }
    return out


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    parser.add_argument("--write", help="write runs and summary to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    report = {"machine": machine_facts(), "run_seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in names:
        entry = report["workloads"][workload] = {}
        for trace in args.trace:
            runs = []
            for seed in args.seeds:
                run = run_once(workload, seed, seconds, trace)
                res = run["result"]
                all_ok = all_ok and res["correct"]
                print(f"{workload} seed {seed} trace {trace}: correct {res['correct']}, "
                      f"{res['attempted']} jobs, {res['failed']} failed", flush=True)
                runs.append(run)
            summary = summarise(runs, bounds if trace == 0 else {})
            entry[f"trace{trace}"] = {"summary": summary, "runs": runs}
            print(f"\n{workload}, trace {trace}, {len(runs)} seeds:")
            print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>7s} {'bound':>6s}  unit")
            for name, s in summary.items():
                bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
                flag = "  > bound/3" if s["bound"] and s["spread"] > s["bound"] / 3 else ""
                print(f"  {name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                      f"{s['spread']:7.3f} {bound:>6s}  {s['unit']}{flag}")
            print(flush=True)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
