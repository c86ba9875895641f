"""Discrete periodic torus, field containers, and spectral operators.

The torus [0, l_x) x [0, l_y) is sampled on a uniform n_x by n_y lattice
with x along axis 0 and y along axis 1.  Derivatives, the Leray
projection and periodic convolution all act mode by mode on the discrete
Fourier lattice, so they are exact for band-limited fields and commute
with one another.  Inner products use the equal-weight quadrature
dA * sum(...), which on a periodic grid is the trapezoidal rule and is
exact for resolved modes.

Conventions used throughout the package:

* a scalar field is an (n_x, n_y) float64 array of point samples,
* every field is real, so :meth:`TorusGrid.fft2` gives the bits of
  ``numpy.fft.rfft2``, by the 1-D transforms rfft2 is built from, and
  keeps only the half spectrum, an (n_x, n_y // 2 + 1) complex array
  (``TorusGrid.spectral_shape``); the dropped modes are the complex
  conjugates of the kept ones,
* ``fft2``/``ifft2`` act on the last two axes, so a stack of k fields,
  (k, n_x, n_y) <-> (k, n_x, n_y // 2 + 1), goes through in one call,
  each slice with the bits of its own transform; the step kernel
  transforms each group of fields it forms together that way,
* wavenumbers are integer multiples of 2*pi/l per axis: ``kx`` in
  ``numpy.fft.fftfreq`` order (all n_x modes), ``ky`` in
  ``numpy.fft.rfftfreq`` order (the n_y // 2 + 1 nonnegative modes, the
  last one the Nyquist mode); every spectral array on the grid
  (``ksq``, the derivative multipliers, the dealias mask, ``Kernel.hat``)
  has the half-spectrum shape,
* the grid forms its spectral multipliers once, and every sweep's
  Stepper reads them: those a product of half spectra reads (``kxg_d``,
  ``kyg_d``, ``inv_ksq_d``, ``dealias_mask``, the masked derivatives
  ``dkx``, ``dky`` and ``neg_ksq`` = -k^2) are complex; ``ksq``,
  ``ksq_d`` and ``hermitian_weight``, which the Parseval sums and the
  implicit denominators read, are real,
* :meth:`TorusGrid.project` is the one Leray projection: the step's
  pressure elimination and ``leray_project`` both call it,
* a Parseval sum over the full spectrum is a sum over the half spectrum
  weighted by ``hermitian_weight``: 1 on the first and last columns
  (k_y = 0 and the Nyquist column), which hold both members of each
  conjugate pair, and 2 on every other column, which stands for itself
  and its dropped conjugate,
* the dealias mask implements the 2/3 rule: modes with index >= n/3 on
  either axis are dropped, which makes quadratic products alias-free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NumericError, ValidationError

SNAPSHOT_MAGIC = b"CHNSFLD1"
_HEADER = struct.Struct("<8sIIdd")  # magic, n_x, n_y, l_x, l_y -> 32 bytes


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of the periodic rectangle [0, l_x) x [0, l_y).

    Resolutions must be even and at least 8 per axis.  All derived
    arrays (wavenumbers, spectral multipliers, coordinates) are
    precomputed once and shared by every field and every Stepper on the
    grid.
    """

    n_x: int
    n_y: int
    l_x: float = 2.0 * np.pi
    l_y: float = 2.0 * np.pi

    def __post_init__(self):
        for n in (self.n_x, self.n_y):
            if not isinstance(n, (int, np.integer)) or n % 2 != 0 or n < 8:
                raise ValidationError(
                    f"grid resolution must be an even integer >= 8, got {n}"
                )
        if not (0.0 < self.l_x < np.inf and 0.0 < self.l_y < np.inf):
            raise ValidationError("domain lengths must be positive and finite")

        kx = 2.0 * np.pi / self.l_x * np.fft.fftfreq(self.n_x, 1.0 / self.n_x)
        ky = 2.0 * np.pi / self.l_y * np.fft.rfftfreq(self.n_y, 1.0 / self.n_y)
        kxg = kx[:, None]
        ksq = kxg**2 + ky[None, :] ** 2
        # First derivatives of a real field must vanish at the Nyquist
        # frequency or the transform loses conjugate symmetry; kxg_d and
        # kyg_d are the derivative wavenumbers with that line zeroed.
        kx_d = kx.copy()
        ky_d = ky.copy()
        kx_d[self.n_x // 2] = 0.0
        ky_d[self.n_y // 2] = 0.0
        ksq_d = kx_d[:, None] ** 2 + ky_d[None, :] ** 2
        inv_ksq_d = np.where(ksq_d > 0.0, 1.0 / np.where(ksq_d > 0.0, ksq_d, 1.0), 0.0)

        ix = np.abs(np.fft.fftfreq(self.n_x, 1.0 / self.n_x))
        iy = np.fft.rfftfreq(self.n_y, 1.0 / self.n_y)
        mask = (ix[:, None] < self.n_x / 3.0) & (iy[None, :] < self.n_y / 3.0)

        def spectrum(a):
            # The real multipliers that half spectra are multiplied by are
            # held as C-ordered complex arrays of the half-spectrum shape: a
            # product takes the complex loop and bits it would anyway,
            # without casting or broadcasting the multiplier through a
            # temporary on every call.
            return np.broadcast_to(a, self.spectral_shape).astype(complex, order="C")

        kxg_d = spectrum(kx_d[:, None])
        kyg_d = spectrum(ky_d[None, :])
        mask = spectrum(mask)

        weight = np.full((1, self.n_y // 2 + 1), 2.0)
        weight[0, 0] = 1.0
        weight[0, -1] = 1.0

        dx = self.l_x / self.n_x
        dy = self.l_y / self.n_y
        x = dx * np.arange(self.n_x)
        y = dy * np.arange(self.n_y)

        for name, value in (
            ("kx", kx), ("ky", ky), ("kxg", kxg), ("ksq", ksq),
            ("kxg_d", kxg_d), ("kyg_d", kyg_d),
            ("ksq_d", ksq_d), ("inv_ksq_d", spectrum(inv_ksq_d)),
            ("dealias_mask", mask), ("hermitian_weight", weight),
            # the masked derivative multipliers i k mask of a Frame's
            # gradients, and -k^2 of the Laplacian
            ("dkx", 1j * kxg_d * mask), ("dky", 1j * kyg_d * mask),
            ("neg_ksq", spectrum(-ksq)),
            ("dx", dx), ("dy", dy), ("cell_area", dx * dy),
            ("x", x), ("y", y), ("X", x[:, None] + 0.0 * y[None, :]),
            ("Y", 0.0 * x[:, None] + y[None, :]),
        ):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_x, self.n_y)

    @property
    def spectral_shape(self) -> tuple[int, int]:
        """Shape of a half-spectrum transform, (n_x, n_y // 2 + 1)."""
        return (self.n_x, self.n_y // 2 + 1)

    @property
    def n_points(self) -> int:
        return self.n_x * self.n_y

    @property
    def lambda_1(self) -> float:
        """Smallest nonzero squared wavenumber magnitude."""
        return min((2.0 * np.pi / self.l_x) ** 2, (2.0 * np.pi / self.l_y) ** 2)

    def fft2(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum transform of a real field, or of a stack of them
        along the leading axes, as rfft2 over the last two axes.  out: a
        complex array of the transform's shape to write it in, or None
        for a fresh one; the bits are the same either way."""
        hat = np.fft.rfft(values, axis=-1, out=out)
        return np.fft.fft(hat, axis=-2, out=hat)

    def ifft2(
        self, hat: np.ndarray, overwrite: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Real field, or stack of fields, whose half-spectrum transform is
        ``hat``, as irfft2 over the last two axes.  overwrite: ``hat`` is
        scratch, and the first 1-D stage runs in place in it.  out: a real
        array of the result's shape to write it in, or None for a fresh
        one; the bits are the same either way."""
        h = np.fft.ifft(hat, axis=-2, out=hat if overwrite else None)
        return np.fft.irfft(h, n=self.n_y, axis=-1, out=out)

    def project(self, fx_h, fy_h, div_h, t):
        """Leray projection in transform space, in place: the half spectra
        fx_h and fy_h become the projected pair, which is returned, with
        fx_h -= (k_x (k.f)) / k^2 and likewise fy_h; k = 0, which carries
        the mean flow and has no gradient part, passes through.  div_h and
        t are half-spectrum scratch arrays of the caller's."""
        np.add(np.multiply(self.kxg_d, fx_h, out=div_h), np.multiply(self.kyg_d, fy_h, out=t),
               out=div_h)
        for k, f in ((self.kxg_d, fx_h), (self.kyg_d, fy_h)):
            np.multiply(np.multiply(k, div_h, out=t), self.inv_ksq_d, out=t)
            np.subtract(f, t, out=f)
        return fx_h, fy_h

    def parseval_sum(self, density: np.ndarray) -> float:
        """Sum over the full spectrum of a density given on the half
        spectrum and even under k -> -k, such as |hat|^2."""
        return float(np.sum(self.hermitian_weight * density))

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.cell_area * np.sum(a * b))

    def hat_norm(self, hat: np.ndarray) -> float:
        """L2 norm of the field whose transform is ``hat`` (Parseval)."""
        total = self.parseval_sum(np.abs(hat) ** 2)
        return float(np.sqrt(self.cell_area / self.n_points * total))


def _as_grid_array(grid: TorusGrid, values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != grid.shape:
        raise ValidationError(
            f"{name} has shape {arr.shape}, expected {grid.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


def require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(
            f"incompatible grids: {a.grid.shape} on "
            f"({a.grid.l_x:g}, {a.grid.l_y:g}) vs {b.grid.shape} on "
            f"({b.grid.l_x:g}, {b.grid.l_y:g})"
        )


@dataclass
class ScalarField:
    """Real scalar field sampled on a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_grid_array(self.grid, self.values, "scalar field")

    @classmethod
    def _of(cls, grid: TorusGrid, values: np.ndarray) -> "ScalarField":
        """A field over ``values`` as given, for callers that have already
        checked their shape and finiteness."""
        f = object.__new__(cls)
        f.grid, f.values = grid, values
        return f

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def mean(self) -> float:
        return float(self.values.mean())

    def norm(self) -> float:
        return float(np.sqrt(self.grid.cell_area * np.sum(self.values**2)))

    def inner(self, other: "ScalarField") -> float:
        require_same_grid(self, other)
        return self.grid.inner(self.values, other.values)

    def dealiased(self) -> "ScalarField":
        g = self.grid
        return ScalarField(g, g.ifft2(g.fft2(self.values) * g.dealias_mask))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        require_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        require_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scale: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scale))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


@dataclass
class VectorField:
    """Real two-component field sampled on a :class:`TorusGrid`."""

    grid: TorusGrid
    u_x: np.ndarray
    u_y: np.ndarray

    def __post_init__(self):
        self.u_x = _as_grid_array(self.grid, self.u_x, "vector field (x)")
        self.u_y = _as_grid_array(self.grid, self.u_y, "vector field (y)")

    @classmethod
    def _of(cls, grid: TorusGrid, u_x: np.ndarray, u_y: np.ndarray) -> "VectorField":
        """A field over ``u_x`` and ``u_y`` as given, for callers that have
        already checked their shape and finiteness."""
        f = object.__new__(cls)
        f.grid, f.u_x, f.u_y = grid, u_x, u_y
        return f

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "VectorField":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.u_x.copy(), self.u_y.copy())

    def norm(self) -> float:
        total = np.sum(self.u_x**2) + np.sum(self.u_y**2)
        return float(np.sqrt(self.grid.cell_area * total))

    def dot(self, other: "VectorField") -> float:
        require_same_grid(self, other)
        return self.grid.inner(self.u_x, other.u_x) + self.grid.inner(
            self.u_y, other.u_y
        )

    def mean(self) -> tuple[float, float]:
        return float(self.u_x.mean()), float(self.u_y.mean())

    def dealiased(self) -> "VectorField":
        g = self.grid
        m = g.dealias_mask
        return VectorField(
            g,
            g.ifft2(g.fft2(self.u_x) * m),
            g.ifft2(g.fft2(self.u_y) * m),
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        require_same_grid(self, other)
        return VectorField(self.grid, self.u_x + other.u_x, self.u_y + other.u_y)

    def __sub__(self, other: "VectorField") -> "VectorField":
        require_same_grid(self, other)
        return VectorField(self.grid, self.u_x - other.u_x, self.u_y - other.u_y)

    def __mul__(self, scale: float) -> "VectorField":
        s = float(scale)
        return VectorField(self.grid, self.u_x * s, self.u_y * s)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(self.grid, -self.u_x, -self.u_y)


# ---------------------------------------------------------------------------
# spectral operators


def grad(f: ScalarField) -> VectorField:
    """Spectral gradient.  Both components have zero mean by construction."""
    g = f.grid
    fh = g.fft2(f.values)
    return VectorField(g, g.ifft2(1j * g.kxg_d * fh), g.ifft2(1j * g.kyg_d * fh))


def div(v: VectorField) -> ScalarField:
    g = v.grid
    dh = 1j * g.kxg_d * g.fft2(v.u_x) + 1j * g.kyg_d * g.fft2(v.u_y)
    return ScalarField(g, g.ifft2(dh))


def curl2d(v: VectorField) -> ScalarField:
    """Scalar vorticity d(u_y)/dx - d(u_x)/dy."""
    g = v.grid
    ch = 1j * g.kxg_d * g.fft2(v.u_y) - 1j * g.kyg_d * g.fft2(v.u_x)
    return ScalarField(g, g.ifft2(ch))


def laplacian(f: ScalarField) -> ScalarField:
    g = f.grid
    return ScalarField(g, g.ifft2(-g.ksq * g.fft2(f.values)))


def leray_project(v: VectorField) -> VectorField:
    """The divergence-free part of ``v``: TorusGrid.project between a
    transform and its inverse, one component at a time."""
    g = v.grid
    uxh, uyh = g.fft2(v.u_x), g.fft2(v.u_y)
    g.project(uxh, uyh, np.empty_like(uxh), np.empty_like(uxh))
    return VectorField(g, g.ifft2(uxh, overwrite=True), g.ifft2(uyh, overwrite=True))


def convolve(kernel_hat: np.ndarray, f: ScalarField) -> ScalarField:
    """Periodic convolution with a kernel given by its scaled transform.

    ``kernel_hat`` must be fft2(kernel samples) * cell_area on the same
    grid, a half-spectrum array, so that the result approximates the
    integral of kernel(x - y) f(y) over the torus.
    """
    g = f.grid
    kh = np.asarray(kernel_hat)
    if kh.shape != g.spectral_shape:
        raise GridMismatchError(
            f"kernel transform has shape {kh.shape}, expected {g.spectral_shape}"
        )
    return ScalarField(g, g.ifft2(kh * g.fft2(f.values)))


def grad_norm(v) -> float:
    """Gradient norm of a scalar or vector field, computed spectrally."""
    g = v.grid
    if isinstance(v, ScalarField):
        total = g.parseval_sum(g.ksq_d * np.abs(g.fft2(v.values)) ** 2)
    else:
        total = _velocity_gradient_sum(g, g.fft2(v.u_x), g.fft2(v.u_y))
    return float(np.sqrt(g.cell_area / g.n_points * total))


def _velocity_gradient_sum(g: TorusGrid, uxh, uyh) -> float:
    return g.parseval_sum(g.ksq_d * (np.abs(uxh) ** 2 + np.abs(uyh) ** 2))


def relative_divergence(v: VectorField) -> float:
    """Spectral divergence norm relative to the velocity-gradient norm.

    Returns 0 for fields with no gradient content at all (constants).
    """
    g = v.grid
    uxh = g.fft2(v.u_x)
    uyh = g.fft2(v.u_y)
    dnorm = g.hat_norm(1j * (g.kxg_d * uxh + g.kyg_d * uyh))
    gnorm = np.sqrt(g.cell_area / g.n_points * _velocity_gradient_sum(g, uxh, uyh))
    if gnorm == 0.0:
        return 0.0
    return float(dnorm / gnorm)


def h_minus_one_norm(f: ScalarField) -> float:
    """Discrete dual-space norm, |f_hat(k)|^2 weighted by 1/(1+|k|^2)."""
    g = f.grid
    fh = g.fft2(f.values)
    total = g.parseval_sum(np.abs(fh) ** 2 / (1.0 + g.ksq))
    return float(np.sqrt(g.cell_area / g.n_points * total))


# ---------------------------------------------------------------------------
# snapshot files


def write_snapshot(path, field: ScalarField) -> None:
    """Write a scalar field as a 32-byte header plus row-major float64."""
    g = field.grid
    header = _HEADER.pack(SNAPSHOT_MAGIC, g.n_x, g.n_y, g.l_x, g.l_y)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path, grid: TorusGrid | None = None) -> ScalarField:
    """Read a scalar field snapshot.

    When ``grid`` is given, the header must describe the same grid;
    otherwise a fresh grid is built from the header.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValidationError(f"snapshot {path} is truncated")
    magic, n_x, n_y, l_x, l_y = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValidationError(f"snapshot {path} has bad magic {magic!r}")
    expected = _HEADER.size + 8 * n_x * n_y
    if len(raw) != expected:
        raise ValidationError(
            f"snapshot {path} has {len(raw)} bytes, expected {expected}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n_x, n_y)
    if grid is None:
        grid = TorusGrid(n_x, n_y, l_x, l_y)
    elif (grid.n_x, grid.n_y, grid.l_x, grid.l_y) != (n_x, n_y, l_x, l_y):
        # compared field by field: a grid forms its multipliers when built
        raise GridMismatchError(
            f"snapshot {path} was written on grid {(n_x, n_y)}, expected {grid.shape}"
        )
    return ScalarField(grid, values.copy())


def write_vector_snapshot(stem, v: VectorField) -> tuple[str, str]:
    """Write the two components as ``<stem>_x.fld`` and ``<stem>_y.fld``."""
    px = f"{stem}_x.fld"
    py = f"{stem}_y.fld"
    write_snapshot(px, ScalarField(v.grid, v.u_x))
    write_snapshot(py, ScalarField(v.grid, v.u_y))
    return px, py


def read_vector_snapshot(stem, grid: TorusGrid | None = None) -> VectorField:
    fx = read_snapshot(f"{stem}_x.fld", grid)
    fy = read_snapshot(f"{stem}_y.fld", fx.grid)
    return VectorField(fx.grid, fx.values, fy.values)
