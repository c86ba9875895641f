"""Synthetic initial data, forcings, and targets.

Everything here is deterministic given a numpy Generator, so experiment
configs that name a seed reproduce bit-identical fields.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import ScalarField, TorusGrid, VectorField, leray_project


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> VectorField:
    """Classic cellular vortex array, divergence-free by construction."""
    kx = 2.0 * np.pi / grid.l_x
    ky = 2.0 * np.pi / grid.l_y
    ux = amplitude * np.sin(kx * grid.X) * np.cos(ky * grid.Y)
    uy = -amplitude * (kx / ky) * np.cos(kx * grid.X) * np.sin(ky * grid.Y)
    return VectorField(grid, ux, uy)


def single_mode_velocity(
    grid: TorusGrid, mode: tuple[int, int] = (1, 0), amplitude: float = 1.0
) -> VectorField:
    """One transverse Fourier mode: amplitude * sin(k.x) along (-m_y, m_x)."""
    mx, my = int(mode[0]), int(mode[1])
    if mx == 0 and my == 0:
        raise ValidationError("mode must be nonzero")
    kx = 2.0 * np.pi * mx / grid.l_x
    ky = 2.0 * np.pi * my / grid.l_y
    phase = np.sin(kx * grid.X + ky * grid.Y)
    norm = np.hypot(kx, ky)
    return leray_project(
        VectorField(grid, -ky / norm * amplitude * phase, kx / norm * amplitude * phase)
    )


def sine_scalar(
    grid: TorusGrid,
    mode: tuple[int, int] = (1, 1),
    amplitude: float = 1.0,
    mean: float = 0.0,
) -> ScalarField:
    """amplitude * sin(m_x x) * sin(m_y y) + mean (factors with m = 0 drop out)."""
    mx, my = int(mode[0]), int(mode[1])
    vals = np.full(grid.shape, float(mean))
    part = np.ones(grid.shape)
    if mx != 0:
        part = part * np.sin(2.0 * np.pi * mx / grid.l_x * grid.X)
    if my != 0:
        part = part * np.sin(2.0 * np.pi * my / grid.l_y * grid.Y)
    return ScalarField(grid, vals + amplitude * part)


def _lowpass(grid: TorusGrid, k_cut: float) -> np.ndarray:
    if not k_cut > 0.0:
        raise ValidationError(f"k_cut must be positive, got {k_cut!r}")
    with np.errstate(over="ignore"):  # a square that overflows reads inf: no filter
        k_sq = np.float64(k_cut) ** 2
    return np.exp(-(grid.ksq / k_sq)) * grid.dealias_mask


def _scale(norm: float, amplitude: float, k_cut: float) -> float:
    """amplitude / norm, the factor taking a filtered field to the amplitude."""
    if amplitude == 0.0:
        return 0.0
    if norm == 0.0:
        raise ValidationError(f"k_cut {k_cut!r} filters the random field to zero")
    return amplitude / norm


def random_divfree_velocity(
    grid: TorusGrid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    k_cut: float = 4.0,
) -> VectorField:
    """Smooth random divergence-free field scaled to the requested L2 norm.

    White noise is low-pass filtered at wavenumber k_cut, projected, and
    rescaled; amplitude 0 returns the zero field, and a k_cut so small that
    the filtered field is zero raises ValidationError.
    """
    ux = rng.standard_normal(grid.shape)
    uy = rng.standard_normal(grid.shape)
    filt = _lowpass(grid, k_cut)
    ux_h = grid.fft2(ux) * filt
    uy_h = grid.fft2(uy) * filt
    ux_h[0, 0] = 0.0
    uy_h[0, 0] = 0.0
    v = leray_project(VectorField(grid, grid.ifft2(ux_h), grid.ifft2(uy_h)))
    s = _scale(v.norm(), amplitude, k_cut)
    if s == 0.0:
        return VectorField.zeros(grid)
    return VectorField(grid, v.u_x * s, v.u_y * s)


def random_scalar(
    grid: TorusGrid,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    k_cut: float = 4.0,
    mean: float = 0.0,
) -> ScalarField:
    """Smooth random scalar with prescribed mean and fluctuation L2 norm;
    k_cut as for random_divfree_velocity."""
    f = rng.standard_normal(grid.shape)
    fh = grid.fft2(f) * _lowpass(grid, k_cut)
    fh[0, 0] = 0.0
    vals = grid.ifft2(fh)
    s = _scale(ScalarField(grid, vals).norm(), amplitude, k_cut)
    return ScalarField(grid, vals * s + mean)  # s = 0 gives mean: -0.0 + 0.0 is +0.0
