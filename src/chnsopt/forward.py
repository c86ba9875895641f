"""Time integration of the controlled two-phase flow model.

One step advances the pair (u, phi) by a first-order IMEX rule:

* momentum: viscosity implicit (diagonal per mode), advection and the
  phase-coupling force explicit and dealiased, pressure eliminated by
  projection.  The coupling force is evaluated in the rewritten form
  -(J*phi) grad(phi); the gradient-of-a term drops because the kernel
  weight a is constant on the torus.
* concentration: the stabilizing diffusion S*Lap(phi) implicit with
  S equal to the kernel mass by default, the remaining chemical
  potential terms and advection explicit.

The k = 0 mode of the concentration update is frozen, so the mean of
phi is conserved exactly.  The k = 0 velocity mode is driven only by
the mean of the applied force.

Step kernel: ``Stepper.quadratic`` forms the step's quadratic products
(advection, the coupling force and u.grad(phi)) from pairs of Frames;
the forward step takes the one pair (frame, frame) and the tangent the
two pairs of its state and the base state, the same products under the
product rule.  ``Stepper.assemble`` and ``Stepper.advance`` finish every
sweep's step.

Sweeps and threads: simulate, the tangent and the adjoint share one
node loop, ``_sweep``, and supply only their step and their node's
state.  A sweep steps on the calling thread only.  A simulate sweep
that records diagnostics on a grid of at least 96^2 points hands the
finishing of each node (its stored state, its checks, its diagnostics
row and the sink call) to one worker thread, which runs one node behind
the step; every other sweep runs in one thread (see ``_sweep``).

Time signals: the control, the forcing and the states a cost tracks are
read by ``read_signal``, the one function that knows a signal's forms.
It checks a signal once, before a sweep does any work, and gives each
node's arrays as views, so no sweep builds a field per node.

Memory: a Stepper's constants are two half spectra, the implicit
denominators; the multipliers that depend on the grid alone are formed
once per grid (see grid.py), not once per sweep.  A forward, tangent or
adjoint step computes in buffers its Stepper keeps and allocates
nothing field-sized but the three half spectra it returns.  A force
constant in time (control and forcing each None or one field) is
transformed once per simulate sweep, not with every step's products.
A simulate or adjoint sweep holds every node's state unless its caller
names the nodes to keep (``keep``), and hands each node's state to its
caller's ``sink`` as soon as the node is finished: ``chnsopt
simulate`` keeps nodes 0 and N only and writes each snapshot from its
sink, so it holds two states whatever N and ``dump_every`` are.  A
tangent sweep holds every node.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, StabilityError, ValidationError
from .grid import (
    ScalarField,
    TorusGrid,
    VectorField,
    h_minus_one_norm,
    require_same_grid,
)
from .physics import Kernel, Potential


@dataclass(frozen=True)
class ModelParams:
    """Immutable physics bundle shared by every solver in the package."""

    grid: TorusGrid
    kernel: Kernel
    potential: Potential

    def __post_init__(self):
        if self.kernel.grid != self.grid:
            raise ValidationError("kernel was sampled on a different grid")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    nu: float
    stabilization: float | None = None  # None resolves to the kernel mass

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if not 0.0 < self.T < math.inf or self.dt > self.T * (1.0 + 1e-12):
            raise ValidationError("T must be positive, finite and at least dt")
        if not 0.0 < self.nu < math.inf:
            raise ValidationError("nu must be positive and finite")
        if self.stabilization is not None and not 0.0 <= self.stabilization < math.inf:
            raise ValidationError("stabilization must be nonnegative and finite")

    @property
    def n_steps(self) -> int:
        ratio = self.T / self.dt
        if not math.isfinite(ratio):
            raise ValidationError(f"T/dt = {ratio} is not a finite number of steps")
        n = int(round(ratio))
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValidationError("T must be an integer multiple of dt")
        return n

    def stabilization_value(self, kernel: Kernel) -> float:
        return float(
            kernel.mass if self.stabilization is None else self.stabilization
        )


@dataclass
class FlowState:
    u: VectorField
    phi: ScalarField
    t: float

    def __post_init__(self):
        require_same_grid(self.u, self.phi)

    @property
    def grid(self) -> TorusGrid:
        return self.phi.grid

    def copy(self) -> "FlowState":
        return FlowState(self.u.copy(), self.phi.copy(), self.t)


@dataclass
class Trajectory:
    """Record of one sweep: a state per time node 0..N, or None at a node
    a simulate or adjoint sweep did not keep (see their keep).

    Forward runs hold FlowState, tangent sweeps TangentState and adjoint
    sweeps AdjointState; only a forward record has a grid.  diagnostics
    holds per-node series (t, energy, kinetic, enstrophy, mass) and the
    per-step energy-identity residual (length N, entry n belonging to
    the step from node n to n+1).  The tail Trajectory(base.states[j:],
    dt) of a run's record is a record too, its first state at node j.
    """

    states: list
    dt: float
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    @property
    def times(self) -> np.ndarray:
        """Node times n * dt, n = first_node..first_node + N: the bits of
        the sweeps' own state times, also where keep dropped a node."""
        return (self.first_node + np.arange(len(self.states))) * self.dt

    @property
    def first_node(self) -> int:
        """The run's node of states[0], read from its time: 0, or j for the
        tail Trajectory(base.states[j:], dt) and a tangent along it."""
        return round(self.states[0].t / self.dt)

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]

    @property
    def grid(self) -> TorusGrid:
        return self.states[0].grid

    def every_node(self) -> list:
        """The states, for a reader of whole records: ValidationError naming
        the first node the record holds no state at."""
        for n, s in enumerate(self.states):
            if s is None:
                raise ValidationError(
                    f"the record holds no state at node {n} (a sweep's keep dropped it); "
                    "this reader needs every node"
                )
        return self.states


def read_signal(signal, name: str, grid: TorusGrid, n_nodes: int | None = None,
                kind: type = VectorField, dt: float | None = None):
    """The arrays of the time signal a sweep reads at nodes 0..n_nodes-1,
    checked once, before the sweep does any work: the one function that
    knows a signal's forms.  These are None, one field (constant in time),
    a list or tuple of fields indexed by node, and a distributed
    ControlSignal, read as the rows of its data.  Fields are of kind and
    on grid, a node-indexed signal has at least n_nodes nodes, and a
    ControlSignal steps dt (when given) to 1e-14 max(1, dt); each failed
    check raises ValidationError naming the signal.  Returns n_nodes
    entries, None or the node's component arrays ((u_x, u_y), or (values,)
    of a ScalarField) as views; a signal constant in time is one entry
    n_nodes times, so nodes[0] is nodes[-1].  n_nodes None reads a signal
    that must be one field, such as a terminal reference: its entry."""
    from .control import ControlSignal  # control.py imports this module

    if signal is None:
        return None if n_nodes is None else [None] * n_nodes
    held = isinstance(signal, ControlSignal)
    one = not held and not isinstance(signal, (list, tuple))
    fields = [signal] if one or held else signal
    for f in fields:
        if not (isinstance(f, kind) or held and f.kind == f.DISTRIBUTED and kind is VectorField):
            raise ValidationError(f"cannot read {name} from {type(f).__name__}")
        if f.grid != grid:
            raise ValidationError(f"{name} grid does not match params grid")
    if held and dt is not None and abs(signal.dt - dt) > 1e-14 * max(1.0, dt):
        raise ValidationError(f"{name} steps dt = {signal.dt!r}, the sweep {dt!r}")
    nodes = list(map(tuple, signal.data)) if held else [
        (f.u_x, f.u_y) if kind is VectorField else (f.values,) for f in fields]
    if one:
        return nodes[0] if n_nodes is None else nodes * n_nodes
    if n_nodes is None:
        raise ValidationError(f"{name} is node-indexed where one field is needed")
    if len(nodes) < n_nodes:
        raise ValidationError(f"{name} has {len(nodes)} time nodes, the sweep reads {n_nodes}")
    return nodes[:n_nodes]


def _applied_force(n: int, *signals):
    """Components (f_x, f_y) acting over step n: the sum, in order, of the
    read_signal lists signals (control, then forcing), each as given when
    constant in time, else the per-component midpoint 0.5 (a + b) of nodes
    n and n + 1, which keeps the work pairing trapezoidal; or (None, None)."""
    total = None
    for a, b in (s[n : n + 2] for s in signals):
        if a is None:
            continue
        f = a if a is b else tuple(0.5 * (p + q) for p, q in zip(a, b))
        total = f if total is None else tuple(p + q for p, q in zip(total, f))
    return (None, None) if total is None else total


def spectral(u: VectorField, phi: ScalarField, work: np.ndarray | None = None,
             out: np.ndarray | None = None):
    """Half-spectrum transforms (u_x, u_y, phi) of a velocity and a scalar,
    in one call; work is a real (3, n_x, n_y) stack to gather the fields
    in, such as ``st.buffer("work", 3, float)``, and out a complex
    (3, n_x, n_y // 2 + 1) stack to transform them into, each None for a
    fresh one."""
    g = phi.grid
    return tuple(g.fft2(np.stack((u.u_x, u.u_y, phi.values), out=work), out=out))


def physical(grid: TorusGrid, ux_h, uy_h, ph, work: np.ndarray | None = None):
    """The velocity and scalar fields whose transforms ``spectral`` gives,
    in one call; work is a complex (3, n_x, n_y // 2 + 1) stack to gather
    the transforms in, or None for a fresh one.  The fields are views of
    the one inverse-transformed stack, checked once: NumericError on
    non-finite values."""
    f = grid.ifft2(np.stack((ux_h, uy_h, ph), out=work), overwrite=True)
    if not np.isfinite(f).all():
        raise NumericError("state contains non-finite values")
    return VectorField._of(grid, f[0], f[1]), ScalarField._of(grid, f[2])


class Frame:
    """Dealiased physical fields of one spectral state (u, phi).

    ux, uy, dux, duy, phi and dphi (the gradients as (x, y) pairs) come
    out of one inverse transform, together with the extras the caller
    names up front from ``Stepper.frame_extra``: "conv" (J*phi, for the
    forward step, the tangent and control.hamiltonian), "conv_grad"
    (J*grad(phi), a pair) and "lap" (Lap(phi)), both for the adjoint.
    The tangent and adjoint sweeps build frames of their own (w, psi)
    and (p, eta) too, with the same layout.  Every field is a slice of
    the real stack of 9 fields plus one per extra field that the Stepper
    keeps under name (never "work", which holds the transform's input);
    the next frame of that name overwrites it, so a sweep that holds two
    frames at once names two buffers.
    """

    def __init__(self, st: "Stepper", ux_h, uy_h, ph, extras: tuple, name: str):
        g = st.grid
        m = g.dealias_mask
        ks = [k for e in extras for k in st.frame_extra(e)]
        out = st.buffer(name, 9 + len(ks), float)
        w = st.buffer("work", len(out), complex)
        for i, h in enumerate((ux_h, uy_h, ph)):
            np.multiply(h, m, out=w[i])
            np.multiply(g.dkx, h, out=w[3 + 2 * i])
            np.multiply(g.dky, h, out=w[4 + 2 * i])
        for k, row in zip(ks, w[9:]):
            np.multiply(np.multiply(k, ph, out=row), m, out=row)
        f = g.ifft2(w, overwrite=True, out=out)
        self.ph = ph
        self.ux, self.uy, self.phi = f[0], f[1], f[2]
        self.dux, self.duy, self.dphi = (f[3], f[4]), (f[5], f[6]), (f[7], f[8])
        rest = iter(f[9:])
        for e in extras:
            parts = tuple(next(rest) for _ in st.frame_extra(e))
            setattr(self, e, parts[0] if len(parts) == 1 else parts)


class Stepper:
    """Precomputed spectral machinery for one (params, config) pair.

    Holds what depends on the pair: the implicit denominators visc_den
    and ch_den, the kernel transform and, built when a Frame first names
    it, the adjoint's "conv_grad" multipliers.  The multipliers that
    depend on the grid alone, and the Leray projection, are the grid's
    (``TorusGrid.project``).  It holds the step kernel: ``quadratic``,
    the products of the forward and tangent steps, then what the forward,
    tangent and adjoint sweeps share once they have formed their
    products, ``assemble`` (``momentum`` for the adjoint) and ``advance``.

    It also keeps the scratch arrays a step computes in, one per name
    (``buffer``), each allocated on first need and grown to the largest
    request: "work", where a sweep gathers each group of fields before the
    one call that transforms the group (transform inputs only: each group
    overwrites the last), the frames (``Frame``: the forward step's
    "frame", and a second name where a sweep holds two), two real
    "products", the right-hand side's transforms ("rhs"), two
    half-spectrum temporaries ("spectra", those of ``project``), and the
    adjoint's base-state transforms ("base") and tracking sources
    ("sources").  Each is
    complex memory, viewed as real fields or as half spectra.  Every
    operation writes into them with ufunc ``out=``, in the order the
    fresh-array expression would take, so with its bits, and a forward
    step allocates nothing field-sized but the three half spectra it
    returns.  Those stay fresh, since a caller may read one step's result
    while the next step runs.

    A Stepper belongs to the thread that steps with it.  The node work
    that ``simulate`` may run on a second thread reads its constants
    (``check_cfl``) but never its buffers.
    """

    def __init__(self, params: ModelParams, config: SolverConfig):
        g = params.grid
        self.params = params
        self.grid = g
        dt = config.dt
        self.dt = dt
        # complex, as the grid's multipliers are (see grid.py)
        self.visc_den = (1.0 + config.nu * dt * g.ksq).astype(complex)
        self.S = config.stabilization_value(params.kernel)
        self.ch_den = (1.0 + self.S * dt * g.ksq).astype(complex)
        self.a = params.kernel.mass
        self.J_hat = params.kernel.hat
        self.cfl_length = min(g.dx, g.dy)
        # Frame extras: the multipliers of phi's transform, each product
        # masked after, in the operation order of J*phi, J*grad(phi),
        # Lap(phi); frame_extra builds "conv_grad" on first use
        self._extras = {"conv": (self.J_hat,), "lap": (g.neg_ksq,)}
        self._buffers = {}
        self._views = {}

    def frame_extra(self, name: str) -> tuple:
        """The multipliers of phi's transform that give Frame's extra name.
        "conv_grad" (two half spectra J^ i k) is read by the adjoint alone,
        so a Stepper builds it when a Frame first names it."""
        if name == "conv_grad" and name not in self._extras:
            g = self.grid
            self._extras[name] = (self.J_hat * 1j * g.kxg_d, self.J_hat * 1j * g.kyg_d)
        return self._extras[name]

    def buffer(self, name: str, k: int, dtype) -> np.ndarray:
        """The first k fields of the scratch array kept under name, as real
        fields (dtype float) or half spectra (complex); see the class
        docstring.  A view is made once per (name, k, dtype) and handed out
        again; growing a name's array drops the views of the old one."""
        view = self._views.get((name, k, dtype))
        if view is not None:
            return view
        real = np.dtype(dtype).kind == "f"
        shape = (k, *(self.grid.shape if real else self.grid.spectral_shape))
        n = math.prod(shape) // (2 if real else 1)  # in complex entries
        b = self._buffers.get(name)
        if b is None or b.size < n:
            b = self._buffers[name] = np.empty(n, complex)
            self._views = {key: v for key, v in self._views.items() if key[0] != name}
        view = self._views[name, k, dtype] = b[:n].view(dtype).reshape(shape)
        return view

    def force_hat(self, force_x, force_y):
        """Half spectra (f_x, f_y) of a force, in one call, or (None, None)
        without one.  A sweep whose force is the same every step
        transforms it once and steps with these."""
        if force_x is None:
            return None, None
        w = self.buffer("work", 2, float)
        return tuple(self.grid.fft2(np.stack((force_x, force_y), out=w)))

    # -- spectral helpers ----------------------------------------------

    def project(self, fx_h, fy_h):
        """TorusGrid.project of fx_h and fy_h, in place, in the "spectra"
        buffers."""
        return self.grid.project(fx_h, fy_h, *self.buffer("spectra", 2, complex))

    def products(self, force_x) -> np.ndarray:
        """The real "work" buffer of a step's four products, with two rows
        more for a force's physical components, which ``assemble`` fills."""
        return self.buffer("work", 4 if force_x is None or np.iscomplexobj(force_x) else 6, float)

    def momentum(self, fx_h, fy_h, gx, gy):
        """Mask the momentum products' transforms, add the half spectra
        gx, gy of a force or source (or None) and project, in place."""
        for f, s in ((fx_h, gx), (fy_h, gy)):
            np.multiply(f, self.grid.dealias_mask, out=f)
            if s is not None:
                np.add(f, s, out=f)
        return self.project(fx_h, fy_h)

    def assemble(self, w, ph, force_x, force_y):
        """Explicit increments of one step from its stack w of ``products``:
        the momentum terms, then F^ and adv^ (F'(phi) and u.grad(phi) in
        the forward step, their linearizations in the tangent's), which
        are transformed with a physical force in one call.  Returns the
        momentum pair (``momentum``; the force physical, half spectra from
        ``force_hat`` or None) and the concentration increment
        -k^2 (F^ - J^ ph + (a - S) ph) - adv^ with its mean frozen, views
        of the Stepper's buffers, which the next call overwrites."""
        if len(w) == 6:
            w[4], w[5] = force_x, force_y
        h = self.grid.fft2(w, out=self.buffer("rhs", len(w), complex))
        fx_h, fy_h, rhs, adv_h = h[:4]
        self.momentum(fx_h, fy_h, *(h[4:] if len(w) == 6 else (force_x, force_y)))

        m, t = self.grid.dealias_mask, self.buffer("spectra", 1, complex)[0]
        np.multiply(rhs, m, out=rhs)
        np.subtract(rhs, np.multiply(self.J_hat, ph, out=t), out=rhs)
        if self.a != self.S:
            np.add(rhs, np.multiply(self.a - self.S, ph, out=t), out=rhs)
        np.multiply(self.grid.neg_ksq, rhs, out=rhs)
        np.subtract(rhs, np.multiply(adv_h, m, out=adv_h), out=rhs)
        rhs[0, 0] = 0.0  # exact mass conservation
        return fx_h, fy_h, rhs

    def explicit_rhs(self, fr: Frame, force_x, force_y):
        """Explicit part of the scheme's right-hand side at one state:
        ``assemble`` of the products -(u.grad)u - (J*phi)grad(phi),
        F'(phi) and u.grad(phi) of the frame fr (with the "conv" extra).
        The implicit -nu*Lap(u) and -S*Lap(phi) are left to the caller.
        """
        w = self.quadratic(((fr, fr),), self.products(force_x))
        self.params.potential.df(fr.phi, out=w[2])
        return self.assemble(w, fr.ph, force_x, force_y)

    def quadratic(self, pairs, w):
        """The step's quadratic products, summed over pairs of Frames (with
        the "conv" extra), into rows 0, 1 and 3 of w, which is returned:
        a pair (a, b) adds -(a_u.grad)b_u - (J*a_phi)grad(b_phi) to rows
        0-1 and b_u.grad(a_phi) to row 3.  The forward step's products are
        the one pair (fr, fr), the tangent's their derivative, the pairs
        (d, c) and (c, d) of its state d and the base state c.  Rows 0-1
        take every pair's convection term, in pair order, then every
        coupling term; row 3 is a running sum over pairs, then components,
        so one pair gives ``dot``'s bits."""
        t = self.buffer("products", 2, float)[0]
        for i in range(2):
            for k, (a, b) in enumerate(pairs):
                c = self.dot((a.ux, a.uy), (b.dux, b.duy)[i], t)
                if k:
                    np.subtract(w[i], c, out=w[i])
                else:
                    np.negative(c, out=w[i])
            for a, b in pairs:
                np.subtract(w[i], np.multiply(a.conv, b.dphi[i], out=t), out=w[i])
        terms = [(u, a.dphi[j]) for a, b in pairs for j, u in enumerate((b.ux, b.uy))]
        np.multiply(*terms[0], out=w[3])
        for p, q in terms[1:]:
            np.add(w[3], np.multiply(p, q, out=t), out=w[3])
        return w

    def dot(self, p, q, out):
        """p[0] q[0] + p[1] q[1] into out, the products formed in the two
        real "products" fields, so out may be the first of them."""
        a, b = self.buffer("products", 2, float)
        return np.add(np.multiply(p[0], q[0], out=a), np.multiply(p[1], q[1], out=b), out=out)

    def advance(self, hats, incs):
        """(old + dt * inc) / den for the transforms hats (u_x, u_y, phi),
        or the tangent's or adjoint's, over visc_den, visc_den and ch_den,
        into three fresh arrays; incs are overwritten."""
        new = []
        for old, inc, den in zip(hats, incs, (self.visc_den, self.visc_den, self.ch_den)):
            out = np.add(old, np.multiply(self.dt, inc, out=inc))
            new.append(np.divide(out, den, out=out))
        return tuple(new)

    # -- one forward step, spectral in / spectral out -------------------

    def forward_step_hat(self, ux_h, uy_h, ph, extra_x, extra_y):
        """Advance (u, phi) transforms one step, into three fresh arrays.

        extra_x/extra_y are the control-plus-forcing components for this
        step (already time-averaged), physical or transformed as
        explicit_rhs takes them, or None.
        """
        fr = Frame(self, ux_h, uy_h, ph, ("conv",), "frame")
        return self.advance((ux_h, uy_h, ph), self.explicit_rhs(fr, extra_x, extra_y))

    def check_cfl(self, ux, uy):
        """StabilityError when max|u|*dt/min(dx, dy) > 1, tested as
        max(u_x^2 + u_y^2) > (min(dx, dy)/dt)^2.  A square that overflows
        reads inf without a warning: a velocity's fails the test, the
        bound's (a box of side 1e154) passes every finite velocity.  The
        speed itself is taken only for the message."""
        with np.errstate(over="ignore"):
            sq = ux * ux
            sq += uy * uy
            bound = np.float64(self.cfl_length / self.dt) ** 2  # x ** 2's bits, not x * x's
        if float(sq.max()) > bound:
            speed = float(np.max(np.hypot(ux, uy)))
            raise StabilityError(
                f"advective CFL heuristic exceeded: max|u|*dt/dx = "
                f"{speed * self.dt / self.cfl_length:.3g} > 1"
            )


def step(
    state: FlowState,
    control_value: VectorField | None,
    forcing: VectorField | None,
    params: ModelParams,
    config: SolverConfig,
) -> FlowState:
    """One IMEX step from the given state, to time state.t + dt: a
    one-step ``simulate``, so with its bits and its errors (StabilityError
    on the advective CFL heuristic, NumericError on non-finite output).
    control_value and forcing are this step's (time-averaged) values."""
    final = simulate(state, control_value, forcing, params, replace(config, T=config.dt),
                     with_diagnostics=False).final
    final.t = state.t + config.dt
    return final


def node_terms(
    kernel: Kernel, potential: Potential, hats, state: FlowState, nu=0.0, force=(None, None)
):
    """(t, energy, kinetic, enstrophy, mass, dissipation, work) at one node.

    hats are the transforms (u_x, u_y, phi) of state.  Every term but the
    bulk sum of F(phi), the mass and the work is a Parseval sum, and the
    dissipation nu|grad u|^2 + |grad mu|^2 costs the one transform of
    F'(phi).  The interaction energy (a<phi,phi> - <J*phi,phi>)/2 equals
    the quarter double-integral of J(x-y)(phi(x)-phi(y))^2.  The work
    pairs force, the (f_x, f_y) of the step ending at the node, with its
    velocity.  Raises NumericError on a non-finite chemical potential.
    The velocity's squares are taken as check_cfl takes them: one that
    overflows reads inf without a warning (and the viscous dissipation
    nan, where it meets k^2 = 0), so a finite state that fails the CFL
    check fails it with diagnostics on too, not on a numpy warning
    turned error.
    """
    g = kernel.grid
    c = g.cell_area / g.n_points
    ux_h, uy_h, ph = hats
    phi = state.phi.values
    with np.errstate(over="ignore", invalid="ignore"):
        u_sq = np.abs(ux_h) ** 2 + np.abs(uy_h) ** 2
        vort_sq = np.abs(g.kxg_d * uy_h - g.kyg_d * ux_h) ** 2
        visc = g.parseval_sum(g.ksq_d * u_sq)
    kinetic = 0.5 * c * g.parseval_sum(u_sq)
    enstrophy = 0.5 * c * g.parseval_sum(vort_sq)
    gap = kernel.mass - kernel.hat
    interaction = 0.5 * c * g.parseval_sum(gap.real * np.abs(ph) ** 2)
    energy = kinetic + interaction + g.cell_area * float(np.sum(potential.f(phi)))
    mu_h = g.fft2(potential.df(phi)) + gap * ph
    if not np.all(np.isfinite(mu_h)):
        raise NumericError("chemical potential is non-finite")
    grad_mu_sq = g.parseval_sum(g.ksq_d * np.abs(mu_h) ** 2)
    diss = c * (nu * visc + grad_mu_sq)
    fx, fy = force
    work = 0.0 if fx is None else g.inner(fx, state.u.u_x) + g.inner(fy, state.u.u_y)
    return state.t, energy, kinetic, enstrophy, state.phi.mean(), diss, work


def energy(state: FlowState, kernel: Kernel, potential: Potential) -> float:
    """Total free energy: kinetic + nonlocal interaction + potential."""
    return node_terms(kernel, potential, spectral(state.u, state.phi), state)[1]


def _diagnostic_series(rows, dt: float) -> dict:
    """Per-node series and the per-step energy-identity residual."""
    t, en, kin, ens, mass, diss, work = (np.array(col) for col in zip(*rows))
    return dict(t=t, energy=en, kinetic=kin, enstrophy=ens, mass=mass,
                residual=np.diff(en) / dt + diss[1:] - work[1:])


def energy_identity_residual(
    traj: Trajectory,
    forcing,
    control,
    params: ModelParams,
    config: SolverConfig,
) -> np.ndarray:
    """Per-step defect of the energy balance.

    r_n = (E^{n+1} - E^n)/dt + nu*|grad u|^2 + |grad mu|^2 - <h+U, u>,
    with the dissipation and work terms taken at the step's end state
    and the force at the step's time-averaged value.  First-order
    accurate, so r_n = O(dt) on smooth runs.
    """
    states = traj.every_node()
    signals = [read_signal(s, name, traj.grid, len(states), dt=traj.dt)
               for s, name in ((control, "control"), (forcing, "forcing"))]
    rows = [
        node_terms(params.kernel, params.potential, spectral(s.u, s.phi), s, config.nu,
                   _applied_force(n - 1, *signals) if n else (None, None))
        for n, s in enumerate(states)
    ]
    return _diagnostic_series(rows, traj.dt)["residual"]


def _kept_nodes(keep, n_steps: int):
    """The nodes a sweep of n_steps holds (see _sweep): every node for
    keep None, else keep's nodes with 0 and n_steps.  ValidationError
    unless keep is None or a collection of node indices in 0..n_steps."""
    if keep is None:
        return range(n_steps + 1)
    try:
        nodes = list(keep)
    except TypeError as e:
        raise ValidationError(f"keep must be a collection of node indices, got {keep!r:.80}") from e
    for n in nodes:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= n_steps:
            raise ValidationError(f"keep holds {n!r:.80}, not a node index in 0..{n_steps}")
    return {0, n_steps, *map(int, nodes)}


# The smallest grid whose diagnostics sweep hands its nodes to the worker
# thread (see simulate and _sweep)
_WORKER_MIN_POINTS = 96 * 96


def _sweep(nodes: range, start, step_from, finish, dt: float, keep=None, sink=None,
           worker: bool = False) -> Trajectory:
    """The one node loop of the forward, tangent and adjoint sweeps, over
    nodes in sweep order (0..N forward, N..0 backward).  A sweep supplies
    start(), its state x at nodes[0] (called once keep is checked),
    step_from(n, x), x stepped from node n to the next node, and
    finish(n, x, kept), node n's state built from x and checked, kept
    telling whether the record holds it.  Returns the record.

    keep, None for every node or a collection of node indices in 0..N,
    names the nodes whose states the record holds; it holds nodes 0 and
    N too, so initial, final and len answer as on a full record, and None
    at every other node.  Every node is still finished, so the kept
    states and the errors have the bits of a full record.
    ValidationError before start() when keep is not such a collection.

    sink, None or a callable, is called as sink(n, state) once for each
    node, in sweep order, with what finish built, whether keep holds it
    or not: a caller that reads each state once passes keep=() and holds
    no record.  The call is the last part of finishing the node, after
    its checks, so a sweep that fails at node n has called sink for the
    nodes before n only; an error raised by sink reaches the caller with
    its type, as a failed check of that node would.

    Threads.  The calling thread does the stepping.  Finishing node n,
    which the next step never reads, is finish and then sink.  A worker
    sweep runs that on one worker thread while the calling thread
    computes step n from the same x, so the worker runs one node behind
    the step; the states are collected in node order and have the bits
    of a one-thread run.  An error of node n is raised with its type and
    message once step n returns, whose result is then dropped (numpy
    warnings that step raised on a non-finite node stay raised).  Every
    other sweep finishes node n on the calling thread, before step n, as
    a one-thread loop would.  simulate asks for the worker in a
    diagnostics sweep on a grid of at least _WORKER_MIN_POINTS = 96^2
    points: the handoffs between the threads cost about the same at every
    size, the node work they hide grows with the grid, and a diagnostics
    row adds a transform and several Parseval sums to it.  Worker against
    one thread, interleaved in one process on a 2-core machine, median of
    the paired time ratios: a 50-step diagnostics sweep, re-measured once
    the step computed in the Stepper's buffers, read 0.993 at 64^2
    (faster in 22 of 40 rounds), 0.806 at 96^2 (28 of 30), 0.693 at 128^2
    (29 of 30) and 0.656 at 256^2 (16 of 16); without diagnostics, on the
    ocp-64 inputs before that change, +18% at 64^2, +6% at 96^2 and -4%
    at 128^2 and 256^2, too little to carry a second threaded path.
    """
    n_steps = len(nodes) - 1
    kept = _kept_nodes(keep, n_steps)
    states = [None] * (n_steps + 1)

    if worker:
        # imported here: concurrent.futures loads logging, a cost of every
        # fresh start that most runs would not use
        from concurrent.futures import ThreadPoolExecutor

    def node(n, x):
        """Finish node n, then hand its state to sink.  Returns the call
        that waits for node n, with nothing left to wait for."""
        state = finish(n, x, n in kept)
        if sink is not None:
            sink(n, state)
        states[n] = state if n in kept else None
        return lambda: None

    def put(n, x):
        """Finish node n, here or on the worker, in the caller's context (so
        with its numpy error state); returns the call that waits for it."""
        if worker:
            return runner.submit(contextvars.copy_context().run, node, n, x).result
        return node(n, x)

    with (ThreadPoolExecutor(max_workers=1, thread_name_prefix="chnsopt-nodes") if worker
          else contextlib.nullcontext()) as runner:
        take = put(nodes[0], x := start())
        for n in nodes[:-1]:
            try:
                x = step_from(n, x)
            finally:
                take()  # node n's error takes precedence
            take = put(n + nodes.step, x)
        take()
    return Trajectory(states=states, dt=dt)


def simulate(
    initial: FlowState,
    control,
    forcing,
    params: ModelParams,
    config: SolverConfig,
    with_diagnostics: bool = True,
    keep=None,
    sink=None,
) -> Trajectory:
    """Run the IMEX scheme from t = 0 to T and record every node, or the
    nodes keep names, handing each node's FlowState to sink (see _sweep).

    control/forcing are time signals, read and checked by read_signal
    before the first step; when both are constant in time, their sum is
    transformed once, at step 0, and every step adds that transform (the
    bits are those of the same force given per node);
    with_diagnostics fills traj.diagnostics inside the time loop from the
    transforms the step holds, at one extra transform per node (for the
    chemical potential); the stored states do not depend on it.

    Finishing node n is its stored state (the inverse transform and its
    finiteness check), its diagnostics row and its CFL check (nodes
    0 .. N-1), then sink, in that order.  A diagnostics sweep on a grid of
    at least _WORKER_MIN_POINTS points finishes its nodes on one worker
    thread (sink included); ``chnsopt simulate`` writes its snapshots so.
    """
    g = params.grid
    if initial.grid != g:
        raise ValidationError("initial state grid does not match params grid")
    st = Stepper(params, config)
    n_steps = config.n_steps
    control, forcing = (read_signal(s, name, g, n_steps + 1, dt=config.dt)
                        for s, name in ((control, "control"), (forcing, "forcing")))
    first = FlowState(initial.u.copy(), initial.phi.copy(), 0.0)
    work = np.empty((3, *g.spectral_shape), complex)  # finish's own
    rows = []
    # a force the same every step is transformed once, at step 0, and
    # handed on with the step's x = (transforms, that force's transform)
    constant = control[0] is control[-1] and forcing[0] is forcing[-1]

    def step_from(n, x):
        held = st.force_hat(*_applied_force(0, control, forcing)) if constant and n == 0 else x[1]
        force = held if constant else _applied_force(n, control, forcing)
        return st.forward_step_hat(*x[0], *force), held

    def finish(n, x, kept):
        state = first if n == 0 else FlowState(*physical(g, *x[0], work), n * config.dt)
        if with_diagnostics:
            force = _applied_force(n - 1, control, forcing) if n else (None, None)
            rows.append(node_terms(params.kernel, params.potential, x[0], state, config.nu, force))
        if n < n_steps:
            st.check_cfl(state.u.u_x, state.u.u_y)
        return state

    traj = _sweep(range(n_steps + 1), lambda: (spectral(initial.u, initial.phi), None),
                  step_from, finish, config.dt, keep, sink,
                  worker=with_diagnostics and g.n_points >= _WORKER_MIN_POINTS)
    # rows holds a row per node with diagnostics, none without
    return replace(traj, diagnostics=_diagnostic_series(rows, config.dt) if rows else {})


def sup_state_difference(a: Trajectory, b: Trajectory) -> float:
    """sup over nodes of sqrt(|u_a-u_b|^2 + |phi_a-phi_b|^2 in the dual norm).

    The concentration difference is measured in the discrete H^-1 norm,
    the natural topology for the continuous-dependence estimate.
    """
    if len(a) != len(b):
        raise ValidationError("trajectories have different lengths")
    worst = 0.0
    for sa, sb in zip(a.every_node(), b.every_node()):
        require_same_grid(sa.phi, sb.phi)
        du = sa.u + sb.u * (-1.0)
        dphi = ScalarField(sa.phi.grid, sa.phi.values - sb.phi.values)
        val = du.norm() ** 2 + h_minus_one_norm(dphi) ** 2
        worst = max(worst, val)
    return float(np.sqrt(worst))
