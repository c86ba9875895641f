import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chnsopt import (
    GridMismatchError,
    Kernel,
    ModelParams,
    NumericError,
    Potential,
    ScalarField,
    TorusGrid,
    ValidationError,
    VectorField,
    convolve,
    curl2d,
    div,
    grad,
    h_minus_one_norm,
    laplacian,
    leray_project,
    read_snapshot,
    read_vector_snapshot,
    relative_divergence,
    write_snapshot,
    write_vector_snapshot,
)
from chnsopt.grid import SNAPSHOT_MAGIC, grad_norm
from chnsopt import synth

TWO_PI = 2.0 * np.pi


class TestTorusGrid:
    def test_rejects_odd_resolution(self):
        with pytest.raises(ValidationError):
            TorusGrid(15, 16)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValidationError):
            TorusGrid(4, 16)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValidationError):
            TorusGrid(16, 16, l_x=0.0)

    def test_wavenumbers_on_standard_box(self, g16):
        assert g16.kx[0] == 0.0
        assert g16.kx[1] == pytest.approx(1.0, abs=1e-15)
        assert g16.kx[-1] == pytest.approx(-1.0, abs=1e-15)
        assert g16.lambda_1 == pytest.approx(1.0, abs=1e-15)

    def test_nyquist_derivative_weight_is_zero(self, g16):
        assert g16.kxg_d[8, 0] == 0.0
        assert g16.kyg_d[0, 8] == 0.0
        # plain wavenumbers keep the Nyquist line for even operators
        assert g16.kxg[8, 0] != 0.0

    def test_cell_area(self, g16):
        assert g16.cell_area == pytest.approx((TWO_PI / 16) ** 2, rel=1e-15)

    def test_equality_is_by_geometry(self):
        assert TorusGrid(16, 16) == TorusGrid(16, 16)
        assert TorusGrid(16, 16) != TorusGrid(32, 32)


class TestFields:
    def test_scalar_norm_of_sine(self, g16):
        # integral of sin^2 over the box is (2 pi)^2 / 2
        f = ScalarField(g16, np.sin(g16.X))
        assert f.norm() == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)

    def test_scalar_mean(self, g16):
        f = ScalarField(g16, np.sin(g16.X) + 0.7)
        assert f.mean() == pytest.approx(0.7, abs=1e-14)

    def test_inner_is_symmetric(self, g16, rng):
        a = ScalarField(g16, rng.standard_normal(g16.shape))
        b = ScalarField(g16, rng.standard_normal(g16.shape))
        assert a.inner(b) == pytest.approx(b.inner(a), rel=1e-14)

    def test_vector_norm_taylor_green(self, g16):
        # kinetic energy of the cellular flow is pi^2 A^2, so the L2
        # norm is A sqrt(2) pi
        v = synth.taylor_green(g16, 0.8)
        assert 0.5 * v.norm() ** 2 == pytest.approx(np.pi**2 * 0.64, rel=1e-13)

    def test_shape_mismatch_rejected(self, g16):
        with pytest.raises(ValidationError):
            ScalarField(g16, np.zeros((8, 8)))

    def test_non_finite_rejected(self, g16):
        bad = np.zeros(g16.shape)
        bad[3, 3] = np.nan
        with pytest.raises(NumericError):
            ScalarField(g16, bad)

    def test_cross_grid_arithmetic_rejected(self, g16, g32):
        with pytest.raises(GridMismatchError):
            ScalarField.zeros(g16) + ScalarField.zeros(g32)

    def test_vector_arithmetic_and_flag(self, g16):
        a = synth.taylor_green(g16, 1.0)
        b = synth.taylor_green(g16, 2.0)
        c = a + b
        assert np.allclose(c.u_x, 3.0 * a.u_x)
        d = a - b
        assert np.allclose(d.u_x, -a.u_x)

    @pytest.mark.parametrize("k_cut", [0.0, -1.0])
    def test_random_fields_reject_nonpositive_k_cut(self, g16, rng, k_cut):
        with pytest.raises(ValidationError, match="k_cut"):
            synth.random_scalar(g16, rng, k_cut=k_cut)
        with pytest.raises(ValidationError, match="k_cut"):
            synth.random_divfree_velocity(g16, rng, k_cut=k_cut)

    @pytest.mark.parametrize(
        "make, amplitude",
        [(synth.random_scalar, 0.3), (synth.random_divfree_velocity, 0.5)],
        ids=["scalar", "velocity"],
    )
    def test_random_fields_reject_a_k_cut_that_filters_everything(
        self, g16, rng, make, amplitude
    ):
        # on the 2 pi box the lowest nonzero mode is damped by exp(-1/0.05^2)
        with pytest.raises(ValidationError, match="k_cut"):
            make(g16, rng, amplitude, k_cut=0.05)
        kept = make(g16, np.random.default_rng(1), amplitude, k_cut=0.1)
        assert kept.norm() == pytest.approx(amplitude, rel=1e-14)

    def test_zero_amplitude_random_fields_stay_zero_at_any_k_cut(self, g16, rng):
        f = synth.random_scalar(g16, rng, amplitude=0.0, k_cut=0.05, mean=0.2)
        assert np.array_equal(f.values, np.full(g16.shape, 0.2))
        v = synth.random_divfree_velocity(g16, rng, amplitude=0.0, k_cut=0.05)
        assert np.array_equal(v.u_x, np.zeros(g16.shape))
        assert np.array_equal(v.u_y, np.zeros(g16.shape))

    def test_dealiased_is_idempotent(self, g16, rng):
        f = ScalarField(g16, rng.standard_normal(g16.shape))
        once = f.dealiased()
        twice = once.dealiased()
        assert np.max(np.abs(once.values - twice.values)) < 1e-14


class TestDerivatives:
    def test_grad_analytic(self, g32):
        f = ScalarField(g32, np.sin(3.0 * g32.X) * np.cos(2.0 * g32.Y))
        gf = grad(f)
        assert np.allclose(
            gf.u_x, 3.0 * np.cos(3.0 * g32.X) * np.cos(2.0 * g32.Y), atol=1e-12
        )
        assert np.allclose(
            gf.u_y, -2.0 * np.sin(3.0 * g32.X) * np.sin(2.0 * g32.Y), atol=1e-12
        )

    def test_div_of_gradient_is_laplacian(self, g32, rng):
        f = ScalarField(g32, rng.standard_normal(g32.shape)).dealiased()
        lhs = div(grad(f))
        rhs = laplacian(f)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_curl_analytic(self, g32):
        # u = (0, sin x) has vorticity cos x
        v = VectorField(g32, np.zeros(g32.shape), np.sin(g32.X))
        w = curl2d(v)
        assert np.allclose(w.values, np.cos(g32.X), atol=1e-12)

    def test_laplacian_analytic(self, g32):
        f = ScalarField(g32, np.sin(2.0 * g32.X))
        assert np.allclose(laplacian(f).values, -4.0 * np.sin(2.0 * g32.X), atol=1e-11)

    def test_grad_norm_matches_curl_for_divfree(self, g32, rng):
        v = synth.random_divfree_velocity(g32, rng, amplitude=1.3)
        assert curl2d(v).norm() == pytest.approx(grad_norm(v), rel=1e-12)


class TestLeray:
    def test_projection_is_idempotent_on_noise(self, g16, rng):
        v = VectorField(
            g16, rng.standard_normal(g16.shape), rng.standard_normal(g16.shape)
        )
        pv = leray_project(v)
        ppv = leray_project(pv)
        assert (ppv - pv).norm() <= 1e-13 * max(pv.norm(), 1.0)

    def test_projection_kills_gradients(self, g16, rng):
        f = ScalarField(g16, rng.standard_normal(g16.shape))
        gf = grad(f)
        assert leray_project(gf).norm() <= 1e-13 * gf.norm()

    def test_projection_output_divergence_free(self, g16, rng):
        v = VectorField(
            g16, rng.standard_normal(g16.shape), rng.standard_normal(g16.shape)
        )
        assert relative_divergence(leray_project(v)) <= 1e-13

    def test_divergence_free_field_unchanged(self, g16):
        v = synth.taylor_green(g16, 1.0)
        pv = leray_project(v)
        assert (pv - v).norm() <= 1e-13 * v.norm()

    def test_mean_flow_passes_through(self, g16):
        v = VectorField(g16, np.full(g16.shape, 0.4), np.full(g16.shape, -0.2))
        pv = leray_project(v)
        assert np.allclose(pv.u_x, 0.4, atol=1e-14)
        assert np.allclose(pv.u_y, -0.2, atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_projection_divergence_property(self, seed):
        g = TorusGrid(16, 16)
        r = np.random.default_rng(seed)
        v = VectorField(g, r.standard_normal(g.shape), r.standard_normal(g.shape))
        assert relative_divergence(leray_project(v)) <= 1e-12


def _dense_convolution(kernel_samples, f_values, grid):
    """Direct O(N^2) periodic sum, the oracle for the spectral path."""
    n_x, n_y = grid.shape
    out = np.zeros_like(f_values)
    for i in range(n_x):
        for j in range(n_y):
            acc = 0.0
            for a in range(n_x):
                for b in range(n_y):
                    acc += kernel_samples[(i - a) % n_x, (j - b) % n_y] * f_values[a, b]
            out[i, j] = acc * grid.cell_area
    return out


class TestConvolve:
    def test_matches_dense_sum(self, g16, kernel16, rng):
        f = ScalarField(g16, rng.standard_normal(g16.shape))
        spectral = convolve(kernel16.hat, f)
        dense = _dense_convolution(kernel16.samples, f.values, g16)
        assert np.max(np.abs(spectral.values - dense)) <= 1e-12 * np.max(
            np.abs(dense)
        )

    def test_constant_reproduces_mass(self, g16, kernel16):
        c = ScalarField.constant(g16, 1.0)
        out = convolve(kernel16.hat, c)
        assert np.allclose(out.values, kernel16.mass, atol=1e-12)

    def test_wrong_grid_kernel_rejected(self, g16, g32, kernel32):
        with pytest.raises(GridMismatchError):
            convolve(kernel32.hat, ScalarField.zeros(g16))
        with pytest.raises(ValidationError, match="kernel was sampled on a different grid"):
            ModelParams(g16, kernel32, Potential.double_well())

    def test_self_adjoint(self, g16, kernel16, rng):
        a = ScalarField(g16, rng.standard_normal(g16.shape))
        b = ScalarField(g16, rng.standard_normal(g16.shape))
        lhs = convolve(kernel16.hat, a).inner(b)
        rhs = a.inner(convolve(kernel16.hat, b))
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestNorms:
    def test_h_minus_one_of_single_mode(self, g16):
        # the k = (1,0) mode is weighted by 1/(1 + 1), halving the
        # squared norm relative to L2
        f = ScalarField(g16, np.sin(g16.X))
        assert h_minus_one_norm(f) == pytest.approx(f.norm() / np.sqrt(2.0), rel=1e-13)

    def test_h_minus_one_below_l2(self, g16, rng):
        f = ScalarField(g16, rng.standard_normal(g16.shape))
        assert h_minus_one_norm(f) <= f.norm() + 1e-14

    def test_relative_divergence_of_constant_is_zero(self, g16):
        v = VectorField(g16, np.full(g16.shape, 1.0), np.full(g16.shape, 2.0))
        assert relative_divergence(v) == 0.0


HALF_SPECTRUM_GRIDS = [
    pytest.param((16, 16, TWO_PI, TWO_PI), id="16x16"),
    pytest.param((32, 48, TWO_PI, 3.0 * np.pi), id="32x48-aniso"),
    pytest.param((48, 32, TWO_PI, TWO_PI), id="48x32"),
]


class _FullSpectrum:
    """Complex-to-complex reference: the whole Fourier lattice of a grid,
    Nyquist lines of the first derivatives zeroed."""

    def __init__(self, g):
        kx = TWO_PI / g.l_x * np.fft.fftfreq(g.n_x, 1.0 / g.n_x)
        ky = TWO_PI / g.l_y * np.fft.fftfreq(g.n_y, 1.0 / g.n_y)
        self.ksq = kx[:, None] ** 2 + ky[None, :] ** 2
        kx[g.n_x // 2] = 0.0
        ky[g.n_y // 2] = 0.0
        self.kx = kx[:, None]
        self.ky = ky[None, :]
        self.ksq_d = self.kx**2 + self.ky**2
        self.scale = g.cell_area / g.n_points

    @staticmethod
    def real(hat):
        return np.fft.ifft2(hat).real

    def norm(self, density):
        return float(np.sqrt(self.scale * np.sum(density)))


def _rel(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


class TestHalfSpectrum:
    """The real-to-complex layer against full complex transforms."""

    @pytest.fixture(params=HALF_SPECTRUM_GRIDS)
    def case(self, request):
        g = TorusGrid(*request.param)
        r = np.random.default_rng(g.n_x * 1000 + g.n_y)
        f = ScalarField(g, r.standard_normal(g.shape))
        v = VectorField(g, r.standard_normal(g.shape), r.standard_normal(g.shape))
        return g, _FullSpectrum(g), f, v

    def test_round_trip_and_layout(self, case):
        g, ref, f, _ = case
        fh = g.fft2(f.values)
        assert fh.shape == g.spectral_shape == (g.n_x, g.n_y // 2 + 1)
        assert g.ksq.shape == g.dealias_mask.shape == g.spectral_shape
        assert _rel(fh, np.fft.fft2(f.values)[:, : g.n_y // 2 + 1]) <= 1e-13
        assert _rel(g.ifft2(fh), f.values) <= 1e-13

    def test_derivatives(self, case):
        g, ref, f, v = case
        fh = np.fft.fft2(f.values)
        uxh = np.fft.fft2(v.u_x)
        uyh = np.fft.fft2(v.u_y)
        gf = grad(f)
        assert _rel(gf.u_x, ref.real(1j * ref.kx * fh)) <= 1e-13
        assert _rel(gf.u_y, ref.real(1j * ref.ky * fh)) <= 1e-13
        dv = ref.real(1j * ref.kx * uxh + 1j * ref.ky * uyh)
        assert _rel(div(v).values, dv) <= 1e-13
        cv = ref.real(1j * ref.kx * uyh - 1j * ref.ky * uxh)
        assert _rel(curl2d(v).values, cv) <= 1e-13
        assert _rel(laplacian(f).values, ref.real(-ref.ksq * fh)) <= 1e-13

    def test_leray_projection(self, case):
        g, ref, _, v = case
        uxh = np.fft.fft2(v.u_x)
        uyh = np.fft.fft2(v.u_y)
        inv = np.where(ref.ksq_d > 0.0, 1.0 / np.where(ref.ksq_d > 0.0, ref.ksq_d, 1.0), 0.0)
        k_dot_u = (ref.kx * uxh + ref.ky * uyh) * inv
        pv = leray_project(v)
        assert _rel(pv.u_x, ref.real(uxh - ref.kx * k_dot_u)) <= 1e-13
        assert _rel(pv.u_y, ref.real(uyh - ref.ky * k_dot_u)) <= 1e-13

    def test_convolution(self, case):
        g, ref, f, _ = case
        kernel = Kernel("gaussian", 0.5, 5.0, g)
        assert kernel.hat.shape == g.spectral_shape
        full = np.fft.fft2(kernel.samples) * g.cell_area * np.fft.fft2(f.values)
        assert _rel(convolve(kernel.hat, f).values, ref.real(full)) <= 1e-13

    def test_norms(self, case):
        g, ref, f, v = case
        fh = np.fft.fft2(f.values)
        uxh = np.fft.fft2(v.u_x)
        uyh = np.fft.fft2(v.u_y)
        checks = [
            (g.hat_norm(g.fft2(f.values)), ref.norm(np.abs(fh) ** 2)),
            (grad_norm(f), ref.norm(ref.ksq_d * np.abs(fh) ** 2)),
            (grad_norm(v), ref.norm(ref.ksq_d * (np.abs(uxh) ** 2 + np.abs(uyh) ** 2))),
            (
                relative_divergence(v),
                ref.norm(np.abs(ref.kx * uxh + ref.ky * uyh) ** 2)
                / ref.norm(ref.ksq_d * (np.abs(uxh) ** 2 + np.abs(uyh) ** 2)),
            ),
            (h_minus_one_norm(f), ref.norm(np.abs(fh) ** 2 / (1.0 + ref.ksq))),
        ]
        for got, want in checks:
            assert got == pytest.approx(want, rel=1e-13)


COMPOSED_GRIDS = HALF_SPECTRUM_GRIDS + [
    pytest.param((64, 64, TWO_PI, TWO_PI), id="64x64"),
    pytest.param((256, 256, TWO_PI, TWO_PI), id="256x256"),
]


class TestComposedTransforms:
    @pytest.mark.parametrize("args", COMPOSED_GRIDS)
    def test_bit_identical_to_numpy_rfft2(self, args):
        """fft2/ifft2 compose 1-D transforms in rfft2/irfft2's own order."""
        g = TorusGrid(*args)
        values = np.random.default_rng(g.n_x + g.n_y).standard_normal(g.shape)
        hat = np.fft.rfft2(values)
        assert np.array_equal(g.fft2(values), hat)
        assert np.array_equal(g.ifft2(hat), np.fft.irfft2(hat, s=g.shape))

    @pytest.mark.parametrize("k", [1, 3, 10, 21])
    @pytest.mark.parametrize("args", COMPOSED_GRIDS)
    def test_stack_bit_identical_per_slice(self, args, k):
        """A stack of k fields goes through in one call, each slice with the
        bits of its own rfft2/irfft2, the in-place inverse included."""
        g = TorusGrid(*args)
        values = np.random.default_rng(g.n_x * k + g.n_y).standard_normal((k, *g.shape))
        hat = g.fft2(values)
        back = g.ifft2(hat)
        in_place = g.ifft2(hat.copy(), overwrite=True)
        for i in range(k):
            assert np.array_equal(hat[i], np.fft.rfft2(values[i]))
            want = np.fft.irfft2(hat[i], s=g.shape)
            assert np.array_equal(back[i], want)
            assert np.array_equal(in_place[i], want)


    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("args", COMPOSED_GRIDS)
    def test_out_arrays_take_the_fresh_bits(self, args, k, overwrite):
        """fft2/ifft2 write into an array the caller passes with the bits
        of a fresh result, the in-place inverse included."""
        g = TorusGrid(*args)
        values = np.random.default_rng(g.n_x * k + g.n_y + 1).standard_normal((k, *g.shape))
        hat = g.fft2(values)
        out_hat = np.full(hat.shape, np.nan, complex)
        assert g.fft2(values, out=out_hat) is out_hat
        assert np.array_equal(out_hat, hat)
        fresh = g.ifft2(hat.copy(), overwrite=overwrite)
        out = np.full(values.shape, np.nan)
        scratch = hat.copy()
        assert g.ifft2(scratch, overwrite=overwrite, out=out) is out
        assert np.array_equal(out, fresh)
        assert np.array_equal(scratch, hat) != overwrite


class TestSingleTransformLayer:
    def test_only_grid_calls_numpy_fft(self):
        """Every transform goes through TorusGrid.fft2/ifft2."""
        import chnsopt

        pattern = re.compile(r"\b(np|numpy)\.fft\b|from\s+numpy\s+import\s+[^\n]*\bfft\b")
        root = Path(chnsopt.__file__).parent
        sources = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
        assert "grid.py" in sources
        offenders = []
        for name in sources:
            if name == "grid.py":
                continue
            text = (root / name).read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{name}:{lineno}")
        assert offenders == []


class TestOneStepKernel:
    def test_only_forward_assembles_and_advances_a_step(self):
        """A module other than forward.py that steps with a Stepper leaves
        the post-transform half of the step to it: it reads no visc_den
        or ch_den, calls no Stepper's project, zeroes no [0, 0] mode."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.name == "forward.py" or "Stepper" not in text:
                continue
            tree = ast.parse(text)
            # names bound to a Stepper: st = Stepper(...) or an st: Stepper argument
            steppers = {
                t.id
                for n in ast.walk(tree)
                if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                and getattr(n.value.func, "id", None) == "Stepper"
                for t in n.targets if isinstance(t, ast.Name)
            } | {
                n.arg
                for n in ast.walk(tree)
                if isinstance(n, ast.arg) and getattr(n.annotation, "id", None) == "Stepper"
            }
            for n in ast.walk(tree):
                if isinstance(n, ast.Attribute) and n.attr in ("visc_den", "ch_den"):
                    offenders.append(f"{path.name}:{n.lineno} reads {n.attr}")
                elif (isinstance(n, ast.Attribute) and n.attr == "project"
                      and getattr(n.value, "id", None) in steppers):
                    offenders.append(f"{path.name}:{n.lineno} projects")
                elif isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Subscript) and ast.unparse(t.slice) == "(0, 0)"
                    for t in n.targets
                ) and getattr(n.value, "value", None) == 0.0:
                    offenders.append(f"{path.name}:{n.lineno} zeroes the mean")
        assert offenders == []


class TestOneProductsKernel:
    @staticmethod
    def _functions(module):
        import chnsopt

        path = Path(chnsopt.__file__).parent / module
        return _top_functions(ast.parse(path.read_text(encoding="utf-8")))

    def test_only_the_kernel_and_the_adjoint_read_velocity_gradients(self):
        """Stepper.quadratic forms the forward step's products and, under
        the product rule, the tangent's; the adjoint's step forms its own.
        No other function of forward.py or tangent_adjoint.py reads a
        Frame's dux or duy, so the tangent holds no second derivation."""
        readers = {
            f"{module}:{fn.name}"
            for module in ("forward.py", "tangent_adjoint.py")
            for fn in self._functions(module)
            for n in ast.walk(fn)
            if isinstance(n, ast.Attribute) and n.attr in ("dux", "duy")
            and isinstance(n.ctx, ast.Load)
        }
        assert readers == {"forward.py:quadratic", "tangent_adjoint.py:adjoint_solve"}

    def test_the_sweeps_read_their_base_record_through_one_reader(self):
        """tangent_solve and adjoint_solve make no spectral call of a base
        state (of a .u or .phi) and build no Frame: they take both from
        _along, the base-record reader."""
        seen = set()
        for fn in self._functions("tangent_adjoint.py"):
            if fn.name not in ("tangent_solve", "adjoint_solve", "_along"):
                continue
            for n in ast.walk(fn):
                name = getattr(n.func, "id", None) if isinstance(n, ast.Call) else None
                if name == "Frame" or name == "spectral" and any(
                        getattr(a, "attr", None) in ("u", "phi") for a in n.args):
                    seen.add((fn.name, name))
        assert seen == {("_along", "Frame"), ("_along", "spectral")}


class TestOneCostFunctional:
    def test_only_tangent_adjoint_forms_a_mismatch(self):
        """The running cost, its trapezoidal sum and its derivative live in
        tangent_adjoint.py; a module that called mismatch( would be writing
        a second copy of the cost's integrand."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.name == "tangent_adjoint.py":
                continue
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                func = getattr(n, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(n, ast.Call) and name == "mismatch":
                    offenders.append(f"{path.name}:{n.lineno}")
        assert offenders == []


class TestOneSignalReader:
    GONE = {"signal_node", "step_average", "_require_nodes"}

    @staticmethod
    def _form_test(n) -> bool:
        """n is isinstance(..., (list, tuple)) or hasattr(..., "at_node")."""
        if not isinstance(n, ast.Call) or len(n.args) != 2:
            return False
        func, what = getattr(n.func, "id", None), n.args[1]
        if func == "isinstance":
            return {"list", "tuple"} <= {getattr(e, "id", None) for e in getattr(what, "elts", ())}
        return func == "hasattr" and getattr(what, "value", None) == "at_node"

    def test_only_the_reader_tests_a_signals_form(self):
        """A time signal's forms are known to forward.read_signal alone: no
        other function of the package tests isinstance(..., (list, tuple))
        or hasattr(..., "at_node"), and the lookups it replaced
        (signal_node, step_average, _require_nodes) are bound nowhere."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        offenders, in_reader = [], 0
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reader = set()
            if path.name == "forward.py":
                (fn,) = [n for n in tree.body
                         if isinstance(n, ast.FunctionDef) and n.name == "read_signal"]
                reader = {id(n) for n in ast.walk(fn)}
            for n in ast.walk(tree):
                if self._form_test(n):
                    if id(n) in reader:
                        in_reader += 1
                    else:
                        offenders.append(f"{path.name}:{n.lineno} tests a signal's form")
                bound = (
                    getattr(n, "name", None) if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    else n.asname or n.name if isinstance(n, ast.alias)
                    else getattr(n, "id", None) or getattr(n, "attr", None)
                )
                if bound in self.GONE:
                    offenders.append(f"{path.name}:{getattr(n, 'lineno', '?')} binds {bound}")
        assert in_reader >= 1  # the scan sees the reader's own test
        assert offenders == []


def _top_functions(tree):
    """The module's functions and its classes' methods, each with every
    function nested in it, so a closure counts as the function it is in."""
    return [m for n in tree.body
            for m in ([n] if isinstance(n, ast.FunctionDef) else getattr(n, "body", []))
            if isinstance(m, ast.FunctionDef)]


class TestOneStepDriver:
    def test_simulate_drives_every_step_and_a_stepper_has_one_store(self):
        """forward.simulate, with the closures in it, is the one caller of
        Stepper.forward_step_hat (forward.step is a one-step simulate, and
        the only function named step), and a Stepper keeps its scratch
        arrays in one store, buffer: it binds no stack or _work, and no
        module asks one for a stack."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        callers, offenders, steps = set(), [], []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in _top_functions(tree):
                if any(isinstance(c, ast.Call)
                       and getattr(c.func, "attr", None) == "forward_step_hat"
                       for c in ast.walk(fn)):
                    callers.add(f"{path.name}:{fn.name}")
            for n in ast.walk(tree):
                if isinstance(n, ast.FunctionDef) and n.name == "step":
                    steps.append(f"{path.name}:{n.lineno}")
                elif isinstance(n, ast.ClassDef) and n.name == "Stepper":
                    bound = {m.name for m in n.body if isinstance(m, ast.FunctionDef)} | {
                        t.attr for m in ast.walk(n) if isinstance(m, ast.Assign)
                        for t in m.targets if isinstance(t, ast.Attribute)
                    }
                    offenders += [f"Stepper binds {name}" for name in {"stack", "_work"} & bound]
                elif (isinstance(n, ast.Attribute) and n.attr == "stack"
                      and getattr(n.value, "id", None) != "np"):
                    offenders.append(f"{path.name}:{n.lineno} reads a stack")
        assert callers == {"forward.py:simulate"}
        assert len(steps) == 1 and steps[0].startswith("forward.py:")
        assert offenders == []


class TestOneSweepDriver:
    SWEEPS = {"forward.py": ["simulate"], "tangent_adjoint.py": ["tangent_solve", "adjoint_solve"]}

    @staticmethod
    def _own_statements(fn):
        """The nodes of fn's own body, not of the functions nested in it."""
        todo = [fn]
        while todo:
            n = todo.pop()
            yield n
            todo += [c for c in ast.iter_child_nodes(n)
                     if not isinstance(c, (ast.FunctionDef, ast.Lambda))]

    def test_only_the_driver_keeps_nodes_starts_a_worker_or_calls_a_sink(self):
        """forward._sweep, with the closures in it, is the one function of
        the package that calls _kept_nodes, builds a ThreadPoolExecutor or
        calls a sink."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        seen = []
        for path in sorted(root.rglob("*.py")):
            for fn in _top_functions(ast.parse(path.read_text(encoding="utf-8"))):
                for n in ast.walk(fn):
                    name = getattr(n, "func", None)
                    name = getattr(name, "id", None) or getattr(name, "attr", None)
                    if isinstance(n, ast.Call) and name in {
                            "_kept_nodes", "ThreadPoolExecutor", "sink"}:
                        seen.append((f"{path.name}:{fn.name}", name))
        assert sorted(set(seen)) == [
            ("forward.py:_sweep", "ThreadPoolExecutor"),
            ("forward.py:_sweep", "_kept_nodes"),
            ("forward.py:_sweep", "sink"),
        ]

    def test_each_sweep_calls_the_driver_once_and_has_no_loop_of_its_own(self):
        """simulate, tangent_solve and adjoint_solve each call _sweep once
        and hold no for or while statement in their own bodies; the loops
        of the step functions nested in them are theirs."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        for module, names in self.SWEEPS.items():
            tree = ast.parse((root / module).read_text(encoding="utf-8"))
            fns = {fn.name: fn for fn in _top_functions(tree)}
            for name in names:
                calls = [n for n in ast.walk(fns[name]) if isinstance(n, ast.Call)
                         and getattr(n.func, "id", None) == "_sweep"]
                loops = [n.lineno for n in self._own_statements(fns[name])
                         if isinstance(n, (ast.For, ast.While))]
                assert (len(calls), loops) == (1, []), name

    def test_the_sweeps_keep_their_signatures(self):
        import inspect

        from chnsopt.forward import simulate, step
        from chnsopt.tangent_adjoint import adjoint_solve, tangent_solve

        flow = "params: 'ModelParams', config: 'SolverConfig'"
        sweeps = (simulate, step, tangent_solve, adjoint_solve)
        assert [str(inspect.signature(f)) for f in sweeps] == [
            f"(initial: 'FlowState', control, forcing, {flow}, with_diagnostics: 'bool' = True, "
            "keep=None, sink=None) -> 'Trajectory'",
            "(state: 'FlowState', control_value: 'VectorField | None', forcing: 'VectorField | "
            f"None', {flow}) -> 'FlowState'",
            "(base: 'Trajectory', delta_control, w0: 'VectorField | None', psi0: 'ScalarField | "
            f"None', {flow}, start_node: 'int' = 0) -> 'Trajectory'",
            f"(base: 'Trajectory', mode: 'AdjointMode', targets, {flow}, ref_hats: 'list | None' "
            "= None, keep=None, sink=None) -> 'Trajectory'",
        ]


class TestOneWayPerJob:
    GONE = {"Trajectory": {"start_node", "at_node"}, "SolverConfig": {"dealias"}}

    def test_records_start_at_node_zero_and_the_scheme_always_dealiases(self):
        """A record indexes its states from node 0 (None where a node was
        dropped or not yet reached), so Trajectory binds no start_node
        offset or at_node lookup and no module reads a .start_node; the
        2/3 mask is always on, so SolverConfig binds no dealias switch and
        no module reads a .dealias.  SolverConfig holds dt, T, nu and
        stabilization, and a Frame names its Stepper buffer: it takes no
        out, so it has no path that allocates a fresh stack."""
        import dataclasses
        import inspect

        import chnsopt
        from chnsopt.forward import Frame, SolverConfig

        root = Path(chnsopt.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for n in ast.walk(tree):
                if isinstance(n, ast.ClassDef) and n.name in self.GONE:
                    for m in ast.walk(n):
                        bound = (
                            getattr(m, "name", None) if isinstance(m, ast.FunctionDef)
                            else getattr(m, "id", None) or getattr(m, "attr", None)
                            if isinstance(getattr(m, "ctx", None), ast.Store) else None
                        )
                        if bound in self.GONE[n.name]:
                            offenders.append(f"{path.name}:{m.lineno} {n.name} binds {bound}")
                elif isinstance(n, ast.Attribute) and n.attr in {"start_node", "dealias"}:
                    offenders.append(f"{path.name}:{n.lineno} reads .{n.attr}")
        assert offenders == []
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "dt", "T", "nu", "stabilization"]
        params = inspect.signature(Frame).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (name, inspect.Parameter.empty)
            for name in ("st", "ux_h", "uy_h", "ph", "extras", "name")]


class TestSweepsHoldWhatTheirCallersRead:
    GRADIENTS = {
        "control.py": "DistributedControlProblem",
        "assimilation.py": "InitialVelocityProblem",
    }

    @staticmethod
    def _function(path, name, owner=None):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = tree if owner is None else next(
            n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == owner)
        return next(n for n in ast.walk(scope) if isinstance(n, ast.FunctionDef) and n.name == name)

    def test_simulate_streams_and_the_gradients_keep_no_adjoint_record(self):
        """chnsopt simulate writes its snapshots from simulate's sink, so
        _run_simulate reads no record's states; both problems' gradient ask
        adjoint_solve for keep=(); and Stepper.__init__ builds no
        "conv_grad" multipliers, which only the adjoint's frames read."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        run = self._function(root / "cli.py", "_run_simulate")
        assert [n.lineno for n in ast.walk(run) if isinstance(n, ast.Attribute)
                and n.attr == "states"] == []
        for module, owner in self.GRADIENTS.items():
            gradient = self._function(root / module, "gradient", owner)
            keeps = [
                ast.literal_eval(k.value) for n in ast.walk(gradient)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "adjoint_solve"
                for k in n.keywords if k.arg == "keep"
            ]
            assert keeps == [()], owner
        init = self._function(root / "forward.py", "__init__", "Stepper")
        assert [n.lineno for n in ast.walk(init)
                if "conv_grad" in (getattr(n, "value", None), getattr(n, "attr", None))] == []


class TestNoUnusedImports:
    def test_every_imported_name_is_used(self):
        """No module of the package imports a name it never reads; the
        package __init__ imports to re-export, so it is exempt."""
        import chnsopt

        root = Path(chnsopt.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        imported[a.asname or a.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for a in node.names:
                        imported[a.asname or a.name] = node.lineno
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            offenders += [
                f"{path.relative_to(root).as_posix()}:{line} {name}"
                for name, line in imported.items()
                if name not in used
            ]
        assert offenders == []


class TestLineLength:
    def test_no_line_over_100_characters(self):
        import chnsopt

        root = Path(chnsopt.__file__).parent
        offenders = [
            f"{path.relative_to(root).as_posix()}:{n} ({len(line)})"
            for path in sorted(root.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100
        ]
        assert offenders == []


class TestSnapshots:
    def test_scalar_roundtrip(self, g16, rng, tmp_path):
        f = ScalarField(g16, rng.standard_normal(g16.shape))
        path = tmp_path / "field.fld"
        write_snapshot(str(path), f)
        back = read_snapshot(str(path))
        assert back.grid.shape == g16.shape
        assert np.array_equal(back.values, f.values)

    def test_vector_roundtrip(self, g16, rng, tmp_path):
        v = synth.random_divfree_velocity(g16, rng, amplitude=1.0)
        stem = str(tmp_path / "vel")
        write_vector_snapshot(stem, v)
        back = read_vector_snapshot(stem)
        assert np.array_equal(back.u_x, v.u_x)
        assert np.array_equal(back.u_y, v.u_y)

    def test_header_magic(self, g16, tmp_path):
        path = tmp_path / "f.fld"
        write_snapshot(str(path), ScalarField.zeros(g16))
        with open(path, "rb") as fh:
            assert fh.read(8) == SNAPSHOT_MAGIC

    def test_corrupt_magic_rejected(self, g16, tmp_path):
        path = tmp_path / "f.fld"
        write_snapshot(str(path), ScalarField.zeros(g16))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            read_snapshot(str(path))

    def test_grid_mismatch_on_read(self, g16, g32, tmp_path):
        path = tmp_path / "f.fld"
        write_snapshot(str(path), ScalarField.zeros(g16))
        with pytest.raises(GridMismatchError):
            read_snapshot(str(path), grid=g32)

    def test_truncated_file_rejected(self, g16, tmp_path):
        path = tmp_path / "f.fld"
        write_snapshot(str(path), ScalarField.zeros(g16))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValidationError):
            read_snapshot(str(path))
