"""Call counting and span tracing of the chnsopt package, applied from outside.

Nothing in the package is edited.  A function is wrapped under every name
by which a chnsopt module looks it up at call time (``simulate`` is bound by
name into ``control``, ``assimilation`` and ``cli`` as well as ``forward``);
a method is wrapped on its class; the FFT is wrapped on ``numpy.fft``, where
every module finds ``fft2``/``ifft2``.  Every wrapper is put back by
``restore``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

_clock = time.perf_counter

# Sweeps whose calls make the end-to-end solve counts.
SOLVES = {
    "forward.simulate": ("chnsopt.forward", "simulate"),
    "tangent_adjoint.adjoint_solve": ("chnsopt.tangent_adjoint", "adjoint_solve"),
}

# Public module functions traced by span name.
FUNCTIONS = {
    **SOLVES,
    "forward.energy": ("chnsopt.forward", "energy"),
    "forward.energy_identity_residual": ("chnsopt.forward", "energy_identity_residual"),
    "physics.validate_assumptions": ("chnsopt.physics", "validate_assumptions"),
    "physics.chemical_potential": ("chnsopt.physics", "chemical_potential"),
    "control.optimize": ("chnsopt.control", "optimize"),
    "control.cost_ocp": ("chnsopt.control", "cost_ocp"),
    "assimilation.cost_da": ("chnsopt.assimilation", "cost_da"),
    "assimilation.record_measurements": ("chnsopt.assimilation", "record_measurements"),
    "cli.RunContext": ("chnsopt.cli", "RunContext"),
    "cli.write_csv": ("chnsopt.cli", "write_csv"),
    "cli.write_snapshot": ("chnsopt.grid", "write_snapshot"),
    "cli.write_vector_snapshot": ("chnsopt.grid", "write_vector_snapshot"),
}

# Methods traced by span name: (module, class, attribute).
METHODS = {
    "forward.step": ("chnsopt.forward", "Stepper", "forward_step_hat"),
    "control.problem_cost": ("chnsopt.control", "DistributedControlProblem", "cost"),
    "control.problem_gradient": ("chnsopt.control", "DistributedControlProblem", "gradient"),
    "assimilation.problem_cost": ("chnsopt.assimilation", "InitialVelocityProblem", "cost"),
    "assimilation.problem_gradient": (
        "chnsopt.assimilation", "InitialVelocityProblem", "gradient",
    ),
    **{
        f"control.signal_{m}": ("chnsopt.control", "ControlSignal", m)
        for m in ("axpy", "scaled", "inner", "norm", "ball_projected", "copy")
    },
}

FFT_NAMES = ("fft2", "ifft2")


class CountMismatch(RuntimeError):
    """The benchmark's own counts contradict each other."""


def _steps_of(traj) -> int:
    """Steps a returned forward or adjoint trajectory spans."""
    return len(traj.states) - 1


def _trajectory_bytes(traj) -> int:
    """Bytes of the field arrays a dense forward trajectory holds, computed
    from array sizes."""
    s = traj.states[0]
    per_state = s.u.u_x.nbytes + s.u.u_y.nbytes + s.phi.values.nbytes
    return per_state * len(traj.states)


def _line_search_shrinks(history, opt_config) -> int:
    """Rejected line-search trials read from the history's ``step`` column.

    Each rejected trial multiplies the trial step by ``armijo_shrink``; the
    first search starts at ``step0`` and each later one one notch above the
    step accepted before it.  Replaying those float operations must land
    exactly on every accepted step.
    """
    shrink = opt_config.armijo_shrink
    start, rejected = opt_config.step0, 0
    for row in history[1:]:
        s = start
        for _ in range(40):
            if s <= row["step"]:
                break
            s *= shrink
            rejected += 1
        if s != row["step"]:
            raise CountMismatch(
                f"iteration {row['iter']} accepted step {row['step']!r}, which is not "
                f"{start!r} shrunk by {shrink} a whole number of times"
            )
        start = s / shrink
    return rejected


def _opt_config_of(problem, initial_guess, opt_config):
    """The arguments of ``chnsopt.control.optimize``, to pick one out."""
    return opt_config


def _optimize_info(result, args, kwargs):
    _, history = result
    opt_config = _opt_config_of(*args, **kwargs)
    return {
        "costs": [h["cost"] for h in history],
        "rejected": _line_search_shrinks(history, opt_config),
    }


# What a span keeps of the wrapped call's result (and arguments).
_RESULT_INFO = {
    "forward.simulate": lambda r, a, k: {"steps": _steps_of(r), "bytes": _trajectory_bytes(r)},
    "tangent_adjoint.adjoint_solve": lambda r, a, k: {"steps": _steps_of(r)},
    "control.problem_cost": lambda r, a, k: {"cost": r[0]},
    "assimilation.problem_cost": lambda r, a, k: {"cost": r[0]},
    "control.optimize": _optimize_info,
}


class _Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _chnsopt_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "chnsopt" or name.startswith("chnsopt."))
    ]


def _wrap_everywhere(patches: _Patches, module: str, attr: str, make):
    """Replace the function ``module.attr`` under every chnsopt name bound
    to it; ``make(original)`` builds the wrapper."""
    original = getattr(sys.modules[module], attr)
    wrapper = make(original)
    bound = 0
    for mod in _chnsopt_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, name, wrapper)
                bound += 1
    if bound == 0:
        raise RuntimeError(f"{module}.{attr} is bound nowhere")


class SolveCounter:
    """Counts forward and adjoint sweeps; nothing else is timed."""

    def __init__(self):
        self.counts = dict.fromkeys(SOLVES, 0)
        self._patches = _Patches()
        for span_name, (module, attr) in SOLVES.items():
            _wrap_everywhere(
                self._patches, module, attr, lambda fn, k=span_name: self._counting(k, fn)
            )

    def _counting(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> dict:
        """Counts since the last take, then reset."""
        out = dict(self.counts)
        for k in self.counts:
            self.counts[k] = 0
        return out

    def restore(self):
        self._patches.restore()


class Span:
    __slots__ = (
        "name", "job", "parent", "start", "end", "child_s", "fft_calls", "fft_s",
        "fft_bytes", "info",
    )

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.fft_calls = 0
        self.fft_s = 0.0
        self.fft_bytes = 0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time of nested spans and FFTs."""
        return self.end - self.start - self.child_s


class Tracer:
    """Records one span per call into a traced function or method during
    one job, then puts every wrapper back.

    A span holds its name, start, end, the span that caused it and the job
    id.  FFT calls are counted and timed on the innermost open span rather
    than given spans of their own, because one job makes tens of thousands
    of them.  Install a tracer after any SolveCounter, so that the counter
    keeps counting under it.
    """

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = _Patches()
        for span_name, (module, attr) in FUNCTIONS.items():
            _wrap_everywhere(
                self._patches, module, attr, lambda fn, k=span_name: self._spanning(k, fn)
            )
        for span_name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            self._patches.set(cls, attr, self._spanning(span_name, cls.__dict__[attr]))
        for name in FFT_NAMES:
            self._patches.set(np.fft, name, self._fft(getattr(np.fft, name)))

    def restore(self):
        self._patches.restore()

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.job_id, parent, _clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _spanning(self, name, fn):
        on_result = _RESULT_INFO.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                span.info = on_result(result, args, kwargs)
            return result

        return wrapper

    def _fft(self, fn):
        stack = self._stack

        def wrapper(a, *args, **kwargs):
            t0 = _clock()
            out = fn(a, *args, **kwargs)
            dt = _clock() - t0
            if stack:
                top = stack[-1]
                top.child_s += dt
                top.fft_calls += 1
                top.fft_s += dt
                top.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def call(self, fn):
        """Run ``fn()`` under the job's root span."""
        span = self._open("job")
        try:
            return fn()
        finally:
            self._close(span)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced job, from its spans.

    Times named ``*_s`` are self times: a span's duration minus its nested
    spans and FFTs.  Per-step figures include the FFTs of the step.
    """
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def of(*names):
        return [s for n in names for s in by.get(n, [])]

    def self_s(*names):
        return sum(s.self_s for s in of(*names))

    def ratio(a, b):
        return a / b if b else 0.0

    (root,) = by["job"]
    sims = of("forward.simulate")
    sim_steps = sum(s.info["steps"] for s in sims)
    steps = of("forward.step")
    diagnostics_s = sum(
        s.duration
        for s in of("forward.energy", "forward.energy_identity_residual")
        if s.parent is not None and s.parent.name == "forward.simulate"
    )
    sweep_ms = ratio(1e3 * (sum(s.duration for s in sims) - diagnostics_s), sim_steps)
    adj = of("tangent_adjoint.adjoint_solve")
    adj_steps = sum(s.info["steps"] for s in adj)
    adjoint_step_ms = ratio(1e3 * sum(s.duration for s in adj), adj_steps)

    optimizers = of("control.optimize")
    accepted = [c for s in optimizers for c in s.info["costs"]]
    evals = [s.info["cost"] for s in of("control.problem_cost", "assimilation.problem_cost")]
    matched = 0
    for c in evals:
        if matched < len(accepted) and c == accepted[matched]:
            matched += 1
    if matched != len(accepted):
        raise CountMismatch(
            f"optimizer history has {len(accepted)} accepted costs but only "
            f"{matched} appear, in order, among {len(evals)} cost evaluations"
        )
    iterations = sum(len(s.info["costs"]) - 1 for s in optimizers)
    rejected = sum(s.info["rejected"] for s in optimizers)
    if iterations + rejected + len(optimizers) != len(evals):
        raise CountMismatch(
            f"{iterations} accepted iterations + {rejected} rejected trials + "
            f"{len(optimizers)} initial costs != {len(evals)} cost evaluations"
        )

    fft_s = sum(s.fft_s for s in spans)
    return {
        "grid.fft_calls": sum(s.fft_calls for s in spans),
        "grid.fft_s": fft_s,
        "grid.fft_share": ratio(fft_s, root.duration),
        "grid.fft_bytes_computed": sum(s.fft_bytes for s in spans),
        "forward.step_calls": len(steps),
        "forward.step_ms": ratio(1e3 * sum(s.duration for s in steps), len(steps)),
        "forward.fft_per_step": ratio(sum(s.fft_calls for s in steps), len(steps)),
        "forward.simulate_self_s": self_s("forward.simulate"),
        "forward.diagnostics_s": diagnostics_s,
        "forward.trajectory_bytes_computed": max((s.info["bytes"] for s in sims), default=0),
        "tangent_adjoint.adjoint_calls": len(adj),
        "tangent_adjoint.adjoint_step_ms": adjoint_step_ms,
        "tangent_adjoint.adjoint_fft_per_step": ratio(sum(s.fft_calls for s in adj), adj_steps),
        "tangent_adjoint.adjoint_to_forward": ratio(adjoint_step_ms, sweep_ms),
        "control.iterations": iterations,
        "control.cost_evals": len(evals),
        "control.rejected_trials": rejected,
        "control.accept_ratio": ratio(iterations, iterations + rejected),
        "control.signal_algebra_s": self_s(*(n for n in by if n.startswith("control.signal_"))),
        "control.cost_eval_s": self_s("control.cost_ocp"),
        "control.gradient_assembly_s": self_s(
            "control.problem_gradient", "assimilation.problem_gradient"
        ),
        "control.optimizer_self_s": self_s("control.optimize"),
        "assimilation.cost_da_s": self_s("assimilation.cost_da"),
        "assimilation.record_measurements_s": self_s("assimilation.record_measurements"),
        "physics.validate_s": self_s("physics.validate_assumptions"),
        "physics.chemical_potential_s": self_s("physics.chemical_potential"),
        "cli.config_s": self_s("cli.RunContext"),
        "cli.write_s": self_s("cli.write_csv", "cli.write_snapshot", "cli.write_vector_snapshot"),
    }


LAYER_UNITS = {
    "grid.fft_calls": "count",
    "grid.fft_s": "s",
    "grid.fft_share": "share",
    "grid.fft_bytes_computed": "B",
    "forward.step_calls": "count",
    "forward.step_ms": "ms",
    "forward.fft_per_step": "count/step",
    "forward.simulate_self_s": "s",
    "forward.diagnostics_s": "s",
    "forward.trajectory_bytes_computed": "B",
    "tangent_adjoint.adjoint_calls": "count",
    "tangent_adjoint.adjoint_step_ms": "ms",
    "tangent_adjoint.adjoint_fft_per_step": "count/step",
    "tangent_adjoint.adjoint_to_forward": "ratio",
    "control.iterations": "count",
    "control.cost_evals": "count",
    "control.rejected_trials": "count",
    "control.accept_ratio": "share",
    "control.signal_algebra_s": "s",
    "control.cost_eval_s": "s",
    "control.gradient_assembly_s": "s",
    "control.optimizer_self_s": "s",
    "assimilation.cost_da_s": "s",
    "assimilation.record_measurements_s": "s",
    "physics.validate_s": "s",
    "physics.chemical_potential_s": "s",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
}


def write_spans(spans: list[Span], path):
    """Write spans as JSON lines; a parent is the line index of its span."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "job": s.job,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                "self_s": s.self_s,
                "fft_calls": s.fft_calls,
                "fft_s": s.fft_s,
                "info": s.info,
            }) + "\n")
