"""Interaction kernels, polynomial potentials, and model assumptions.

The nonlocal coupling is a periodic convolution with an even kernel J.
On the torus the kernel weight a(x) = integral of J(x - y) dy is the
same constant everywhere, equal to the kernel mass, which simplifies
several terms downstream (its gradient vanishes identically).

The structural assumptions checked by :func:`validate_assumptions` are,
in the validator's numbering:

(1) J is even and integrable on the torus,
(2) F''(s) + a(x) >= C0 for some C0 > 0,
(3) F''(s) + a(x) >= C1 |s|^(2q) - C2 with C1 > 0,
(4) |F'(s)|^r <= C3 |F(s)| + C4 for some r in (1, 2].

Item (2) is the coercivity that makes the chemical potential monotone
enough for well-posedness; the validator rejects pairs that violate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import AssumptionError, NumericError, ValidationError
from .grid import ScalarField, TorusGrid, VectorField, convolve, grad, leray_project

KERNEL_FAMILIES = ("gaussian", "truncated-newtonian", "discrete-delta")
POTENTIAL_FAMILIES = ("double-well", "user-polynomial")


def _min_image_radius_sq(grid: TorusGrid) -> np.ndarray:
    # integer minimum-image distances keep the sample array exactly even
    ix = np.arange(grid.n_x)
    iy = np.arange(grid.n_y)
    dx = np.minimum(ix, grid.n_x - ix) * grid.dx
    dy = np.minimum(iy, grid.n_y - iy) * grid.dy
    return dx[:, None] ** 2 + dy[None, :] ** 2


@dataclass(eq=False)
class Kernel:
    """Even interaction kernel sampled on a grid, rescaled to exact mass.

    ``hat`` caches ``grid.fft2(samples) * cell_area``, the half-spectrum
    transform of shape ``grid.spectral_shape`` used by
    :func:`chnsopt.grid.convolve`; ``mass`` is then reproduced exactly
    by convolution with the constant 1.
    """

    family: str
    epsilon: float
    mass: float
    grid: TorusGrid

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValidationError(
                f"unknown kernel family {self.family!r}, "
                f"expected one of {KERNEL_FAMILIES}"
            )
        # the Gaussian divides by 2*epsilon**2, which must stay a finite,
        # nonzero float
        if self.family != "discrete-delta" and not 1e-150 <= self.epsilon <= 1e150:
            raise ValidationError(
                f"kernel epsilon must lie in [1e-150, 1e150], got {self.epsilon!r}"
            )
        if not np.isfinite(self.mass):
            raise ValidationError("kernel mass must be finite")

        g = self.grid
        if self.family == "discrete-delta":
            raw = np.zeros(g.shape)
            raw[0, 0] = 1.0
        else:
            rsq = _min_image_radius_sq(g)
            if self.family == "gaussian":
                raw = np.exp(-rsq / (2.0 * self.epsilon**2))
            else:  # truncated-newtonian
                r = np.sqrt(rsq)
                raw = -np.log(np.maximum(r, self.epsilon)) / (2.0 * np.pi)

        raw_mass = g.cell_area * float(raw.sum())
        if abs(raw_mass) < 1e-300:
            raise ValidationError(
                f"{self.family} kernel has zero raw mass on this grid"
            )
        samples = raw * (self.mass / raw_mass)
        self.samples = samples
        self.hat = g.fft2(samples) * g.cell_area

    def evenness_defect(self) -> float:
        """Max |J(x) - J(-x)| over the grid, relative to max |J|."""
        rev = self.samples[
            np.ix_(
                (-np.arange(self.grid.n_x)) % self.grid.n_x,
                (-np.arange(self.grid.n_y)) % self.grid.n_y,
            )
        ]
        scale = float(np.max(np.abs(self.samples)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.samples - rev)) / scale)


def kernel_weight_a(kernel: Kernel, grid: TorusGrid) -> ScalarField:
    """The weight a(x) = (J * 1)(x).  Constant on the torus."""
    if kernel.grid != grid:
        raise ValidationError("kernel was sampled on a different grid")
    return convolve(kernel.hat, ScalarField.constant(grid, 1.0))


def _polyval(s, c, out=None):
    """``P.polyval(s, c)``, or, into the float array out of s's shape, the
    same Horner's rule in polyval's operation order, so with its bits."""
    if out is None:
        return P.polyval(np.asarray(s, dtype=np.float64), c)
    np.add(c[-1], np.multiply(s, 0.0, out=out), out=out)
    for ci in c[-2::-1]:
        np.add(ci, np.multiply(out, s, out=out), out=out)
    return out


@dataclass(frozen=True)
class Potential:
    """Polynomial free-energy density F with derivatives up to third order.

    ``coefficients`` are power-series coefficients, lowest power first.
    The classic double well (s^2 - 1)^2 is (1, 0, -2, 0, 1).
    """

    family: str
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.family not in POTENTIAL_FAMILIES:
            raise ValidationError(
                f"unknown potential family {self.family!r}, "
                f"expected one of {POTENTIAL_FAMILIES}"
            )
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) < 3:
            raise ValidationError("potential needs degree >= 2")
        if not all(np.isfinite(coeffs)):
            raise ValidationError("potential coefficients must be finite")
        c = np.asarray(coeffs)
        with np.errstate(over="ignore"):  # an overflow is refused below
            derivatives = [P.polyder(c, m) for m in (1, 2, 3)]
        if not all(np.isfinite(d).all() for d in derivatives):
            raise ValidationError(
                "potential coefficients give derivative coefficients beyond float range"
            )
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_c0", c)
        for m, d in enumerate(derivatives, 1):
            object.__setattr__(self, f"_c{m}", d)

    @classmethod
    def double_well(cls) -> "Potential":
        return cls("double-well", (1.0, 0.0, -2.0, 0.0, 1.0))

    @classmethod
    def polynomial(cls, coefficients) -> "Potential":
        return cls("user-polynomial", tuple(coefficients))

    def f(self, s):
        return P.polyval(np.asarray(s, dtype=np.float64), self._c0)

    def df(self, s, out=None):
        """F'(s); out, a float array of s's shape, takes the values in
        place of a fresh array, by Horner's rule in ``polyval``'s
        operation order, so with its bits."""
        return _polyval(s, self._c1, out)

    def d2f(self, s, out=None):
        """F''(s); out as for ``df``."""
        return _polyval(s, self._c2, out)

    def d3f(self, s):
        return P.polyval(np.asarray(s, dtype=np.float64), self._c3)

    def degree(self) -> int:
        return len(np.trim_zeros(self._c0, "b")) - 1


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the structural assumption check.

    ``c0`` is the sampled minimum of F''(s) + a(x); the report is only
    produced when it is positive.  ``r`` and ``q`` are the exponents
    used for items (4) and (3), the ``c*`` entries the fitted constants.
    """

    c0: float
    growth_ok: bool
    coercivity_ok: bool
    s_range: tuple[float, float]
    q: float
    r: float
    c1: float
    c2: float
    c3: float
    c4: float
    derivative_defect: float = 0.0


def _derivative_defect(potential: Potential, s: np.ndarray) -> float:
    """Max relative mismatch between F', F'', F''' and centered differences."""
    h = 1e-5 * max(1.0, float(np.max(np.abs(s))))
    worst = 0.0
    for fun, dfun in (
        (potential.f, potential.df),
        (potential.df, potential.d2f),
        (potential.d2f, potential.d3f),
    ):
        fd = (fun(s + h) - fun(s - h)) / (2.0 * h)
        exact = dfun(s)
        scale = max(1.0, float(np.max(np.abs(exact))))
        worst = max(worst, float(np.max(np.abs(fd - exact)) / scale))
    return worst


def validate_assumptions(
    kernel: Kernel,
    potential: Potential,
    s_range: tuple[float, float] = (-3.0, 3.0),
    samples: int = 201,
) -> AssumptionReport:
    """Check the kernel/potential pair against the model assumptions.

    Raises :class:`AssumptionError` naming the failing item when the
    coercivity constant c0 = min F'' + min a is not positive, and
    :class:`ValidationError` for malformed requests.
    """
    if samples < 100:
        raise ValidationError(
            f"assumption check needs at least 100 sample points, got {samples}"
        )
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo < hi:
        raise ValidationError("s_range must be an increasing interval")

    if kernel.evenness_defect() > 1e-12:
        raise AssumptionError(
            "model assumption (1) violated: kernel is not even on the grid",
            item=1,
        )

    s = np.linspace(lo, hi, samples)
    defect = _derivative_defect(potential, s)
    if defect > 1e-6:
        raise ValidationError(
            f"potential derivatives disagree with finite differences "
            f"(relative defect {defect:.3g})"
        )

    a_min = float(np.min(kernel_weight_a(kernel, kernel.grid).values))
    f2 = potential.d2f(s)
    c0 = float(np.min(f2) + a_min)
    if c0 <= 0.0:
        raise AssumptionError(
            f"model assumption (2) violated: min F''(s) + a(x) = {c0:.6g} <= 0 "
            f"on s in [{lo:g}, {hi:g}]; require F'' + a >= C0 > 0",
            item=2,
            c0=c0,
        )

    # item (3): F'' + a >= C1 |s|^(2q) - C2 with the exponent read off the
    # polynomial degree; C2 is chosen first, then C1 fitted from below.
    deg_f2 = max(len(np.trim_zeros(np.atleast_1d(potential._c2), "b")) - 1, 0)
    q = deg_f2 / 2.0
    c2 = 1.0 + max(0.0, -float(np.min(f2 + a_min)))
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.maximum(np.abs(s) ** (2.0 * q), 1e-12)
        c1 = float(np.min((f2 + a_min + c2) / denom))
    growth_ok = c1 > 0.0

    # item (4): |F'|^r <= C3 |F| + C4.  For a degree-d polynomial the
    # largest admissible asymptotic exponent is r = d/(d-1).
    d = potential.degree()
    r = d / (d - 1.0)
    coercivity_ok = 1.0 < r <= 2.0
    af = np.abs(potential.f(s))
    adf = np.abs(potential.df(s)) ** r
    small = af <= 1.0
    c4 = 1.0 + (float(np.max(adf[small])) if np.any(small) else 0.0)
    big = ~small
    c3 = float(np.max((adf[big] - c4).clip(min=0.0) / af[big])) if np.any(big) else 0.0
    c3 = max(c3, 1e-12)
    coercivity_ok = coercivity_ok and bool(
        np.all(adf <= c3 * af + c4 + 1e-9 * (1.0 + np.max(adf)))
    )

    return AssumptionReport(
        c0=c0,
        growth_ok=growth_ok,
        coercivity_ok=coercivity_ok,
        s_range=(lo, hi),
        q=q,
        r=r,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        derivative_defect=defect,
    )


def chemical_potential(
    phi: ScalarField, kernel: Kernel, potential: Potential
) -> ScalarField:
    """mu = a*phi - J*phi + F'(phi), with a the constant kernel weight."""
    if kernel.grid != phi.grid:
        raise ValidationError("kernel was sampled on a different grid")
    conv = convolve(kernel.hat, phi)
    values = kernel.mass * phi.values - conv.values + potential.df(phi.values)
    if not np.all(np.isfinite(values)):
        raise NumericError("chemical potential is non-finite")
    return ScalarField(phi.grid, values)


def korteweg_force(mu: ScalarField, phi: ScalarField) -> VectorField:
    """Divergence-free part of mu * grad(phi)."""
    from .grid import require_same_grid

    require_same_grid(mu, phi)
    gp = grad(phi)
    return leray_project(
        VectorField(phi.grid, mu.values * gp.u_x, mu.values * gp.u_y)
    )
