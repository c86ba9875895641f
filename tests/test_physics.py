import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from chnsopt import (
    AssumptionError,
    Kernel,
    Potential,
    ScalarField,
    TorusGrid,
    ValidationError,
    VectorField,
    chemical_potential,
    convolve,
    grad,
    kernel_weight_a,
    korteweg_force,
    leray_project,
    relative_divergence,
    validate_assumptions,
)


class TestKernel:
    def test_unknown_family_rejected(self, g16):
        with pytest.raises(ValidationError):
            Kernel("box", 0.5, 1.0, g16)

    def test_nonpositive_epsilon_rejected(self, g16):
        with pytest.raises(ValidationError):
            Kernel("gaussian", 0.0, 1.0, g16)

    def test_mass_is_exact(self, g16):
        for family, eps in (
            ("gaussian", 0.5),
            ("truncated-newtonian", 0.3),
            ("discrete-delta", 0.0),
        ):
            k = Kernel(family, eps if eps else 1.0, 5.0, g16)
            out = convolve(k.hat, ScalarField.constant(g16, 1.0))
            assert np.allclose(out.values, 5.0, atol=1e-12), family

    def test_all_families_even(self, g16):
        for family in ("gaussian", "truncated-newtonian", "discrete-delta"):
            k = Kernel(family, 0.4, 2.0, g16)
            assert k.evenness_defect() == 0.0, family

    def test_discrete_delta_acts_as_scaling(self, g16, rng):
        k = Kernel("discrete-delta", 1.0, 3.0, g16)
        f = ScalarField(g16, rng.standard_normal(g16.shape))
        out = convolve(k.hat, f)
        assert np.allclose(out.values, 3.0 * f.values, atol=1e-12)

    def test_gaussian_transform_peaks_at_zero_mode(self, g16):
        k = Kernel("gaussian", 0.5, 5.0, g16)
        assert k.hat[0, 0].real == pytest.approx(5.0, rel=1e-12)
        assert np.max(np.abs(k.hat)) == pytest.approx(5.0, rel=1e-12)

    def test_negative_mass_allowed_but_flagged_later(self, g16):
        # the kernel itself only normalizes; sign problems surface in
        # the assumption check
        k = Kernel("gaussian", 0.5, -1.0, g16)
        assert k.hat[0, 0].real == pytest.approx(-1.0, rel=1e-12)


class TestKernelWeight:
    def test_constant_equal_to_mass(self, g16, kernel16):
        a = kernel_weight_a(kernel16, g16)
        assert np.allclose(a.values, 5.0, atol=1e-10)

    def test_grid_mismatch_rejected(self, g16, g32, kernel16):
        with pytest.raises(ValidationError):
            kernel_weight_a(kernel16, g32)


class TestPotential:
    def test_double_well_coefficients(self, double_well):
        assert double_well.coefficients == (1.0, 0.0, -2.0, 0.0, 1.0)
        assert double_well.degree() == 4

    def test_double_well_values(self, double_well):
        # F(s) = (s^2 - 1)^2
        for s in (-1.0, 1.0):
            assert double_well.f(s) == pytest.approx(0.0, abs=1e-15)
        assert double_well.f(0.0) == pytest.approx(1.0)
        assert double_well.df(2.0) == pytest.approx(4 * 8 - 4 * 2)
        assert double_well.d2f(0.0) == pytest.approx(-4.0)
        assert double_well.d3f(1.0) == pytest.approx(24.0)

    def test_derivatives_against_finite_differences(self, double_well):
        s = np.linspace(-2.5, 2.5, 41)
        h = 1e-6
        fd = (double_well.f(s + h) - double_well.f(s - h)) / (2 * h)
        assert np.max(np.abs(fd - double_well.df(s))) < 1e-7 * np.max(
            1.0 + np.abs(fd)
        )

    def test_user_polynomial(self):
        quartic = Potential.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))
        assert quartic.f(2.0) == pytest.approx(16.0)
        assert quartic.df(2.0) == pytest.approx(32.0)

    @pytest.mark.parametrize(
        "coefficients", [(1.0, 0.0, -2.0, 0.0, 1.0), (0.1, 0.3, -1.0, 0.2, 0.5, 0.0, 0.05)]
    )
    def test_derivative_into_an_array_has_the_fresh_bits(self, coefficients):
        potential = Potential.polynomial(coefficients)
        s = 3.0 * np.random.default_rng(5).standard_normal((16, 24))
        out = np.full(s.shape, np.nan)
        assert potential.df(s, out=out) is out
        assert np.array_equal(out, potential.df(s))

    @pytest.mark.parametrize(
        "coefficients", [(1.0, 0.0, -2.0, 0.0, 1.0), (0.1, 0.3, -1.0, 0.2, 0.5, 0.0, 0.05)]
    )
    def test_second_derivative_into_an_array_has_polyvals_bits(self, coefficients):
        potential = Potential.polynomial(coefficients)
        s = 3.0 * np.random.default_rng(6).standard_normal((16, 24))
        out = np.full(s.shape, np.nan)
        assert potential.d2f(s, out=out) is out
        want = P.polyval(s, P.polyder(np.asarray(coefficients), 2))
        assert np.array_equal(out, want)
        assert np.array_equal(potential.d2f(s), want)

    def test_degenerate_degree_rejected(self):
        with pytest.raises(ValidationError):
            Potential.polynomial((1.0, 2.0))

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            Potential.polynomial((0.0, 0.0, np.inf))

    @pytest.mark.parametrize(
        "coefficients",
        [(0.0, 0.0, 1e308, 1.0), (0.0, 0.0, 0.0, 1e308), (1e308, 0.0, 0.0, 0.0, 1e308)],
    )
    def test_derivatives_beyond_float_range_rejected_without_a_warning(self, coefficients):
        # 2 * 1e308, 3 * 1e308 and 4 * 1e308 overflow, though each coefficient is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="derivative"):
                Potential.polynomial(coefficients)

    def test_large_coefficients_with_finite_derivatives_stay_legal(self):
        potential = Potential.polynomial((1e308, 0.0, 1e307, 1e300))
        assert np.isfinite([potential.df(0.5), potential.d2f(0.5), potential.d3f(0.5)]).all()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            Potential("quartic", (1.0, 0.0, 1.0))


class TestChemicalPotential:
    def test_constant_state_gives_f_prime(self, g16, kernel16, double_well):
        c = 0.4
        phi = ScalarField.constant(g16, c)
        mu = chemical_potential(phi, kernel16, double_well)
        assert np.allclose(mu.values, double_well.df(c), atol=1e-12)

    def test_disabled_kernel_reduces_to_local_potential(self, g16, double_well):
        # zero-mass kernel removes both nonlocal terms; on phi = sin x
        # the result is 4 sin x (sin^2 x - 1)
        k0 = Kernel("gaussian", 0.5, 0.0, g16)
        phi = ScalarField(g16, np.sin(g16.X))
        mu = chemical_potential(phi, k0, double_well)
        expect = 4.0 * np.sin(g16.X) * (np.sin(g16.X) ** 2 - 1.0)
        assert np.max(np.abs(mu.values - expect)) < 1e-12

    def test_grid_mismatch_rejected(self, g32, kernel16, double_well):
        with pytest.raises(ValidationError):
            chemical_potential(ScalarField.zeros(g32), kernel16, double_well)

    def test_linearity_in_nonlocal_part(self, g16, kernel16, double_well, rng):
        # mu(phi) - F'(phi) is linear in phi
        a = ScalarField(g16, rng.standard_normal(g16.shape))
        b = ScalarField(g16, rng.standard_normal(g16.shape))
        la = chemical_potential(a, kernel16, double_well).values - double_well.df(
            a.values
        )
        lb = chemical_potential(b, kernel16, double_well).values - double_well.df(
            b.values
        )
        lab = chemical_potential(a + b, kernel16, double_well).values - double_well.df(
            (a + b).values
        )
        assert np.max(np.abs(lab - la - lb)) < 1e-10


class TestKortewegForce:
    def test_divergence_free(self, g32, kernel32, double_well):
        phi = ScalarField(
            g32, 0.5 * np.sin(g32.X) + 0.3 * np.cos(2 * g32.Y) + 0.2
        )
        mu = chemical_potential(phi, kernel32, double_well)
        f = korteweg_force(mu, phi)
        assert relative_divergence(f) <= 1e-12

    def test_local_terms_drop_out(self, g32, kernel32, double_well):
        # P(mu grad phi) = P(-(J * phi) grad phi): the a*phi and F'
        # contributions are exact gradients
        phi = ScalarField(
            g32,
            0.5 * np.sin(g32.X)
            + 0.3 * np.cos(2.0 * g32.Y)
            + 0.2 * np.sin(g32.X + g32.Y)
            + 0.1,
        )
        mu = chemical_potential(phi, kernel32, double_well)
        f = korteweg_force(mu, phi)
        conv = convolve(kernel32.hat, phi)
        gp = grad(phi)
        alt = leray_project(
            VectorField(g32, -conv.values * gp.u_x, -conv.values * gp.u_y)
        )
        assert (f - alt).norm() <= 1e-12 * max(alt.norm(), 1.0)

    def test_symmetric_profile_exerts_no_force(self, g32, kernel32, double_well):
        # sin x + sin y couples to an isotropic kernel through a single
        # wavenumber, so J*phi is proportional to phi and the force is a
        # projected gradient
        phi = ScalarField(g32, np.sin(g32.X) + np.sin(g32.Y))
        mu = chemical_potential(phi, kernel32, double_well)
        assert korteweg_force(mu, phi).norm() <= 1e-12

    def test_constant_phi_exerts_no_force(self, g16, kernel16, double_well):
        phi = ScalarField.constant(g16, 0.7)
        mu = chemical_potential(phi, kernel16, double_well)
        assert korteweg_force(mu, phi).norm() <= 1e-13


class TestValidateAssumptions:
    def test_mass_five_certifies_unit_constant(self, kernel16, double_well):
        report = validate_assumptions(kernel16, double_well)
        # min F'' = -4 at s = 0, so c0 = -4 + 5
        assert report.c0 == pytest.approx(1.0, abs=1e-12)
        assert report.growth_ok and report.coercivity_ok
        assert report.q == pytest.approx(1.0)
        assert report.r == pytest.approx(4.0 / 3.0)
        assert report.derivative_defect < 1e-6

    def test_mass_one_rejected_naming_second_item(self, g16, double_well):
        weak = Kernel("gaussian", 0.5, 1.0, g16)
        with pytest.raises(AssumptionError) as exc:
            validate_assumptions(weak, double_well)
        assert exc.value.item == 2
        assert exc.value.c0 == pytest.approx(-3.0, abs=1e-12)
        assert "(2)" in str(exc.value)

    def test_marginal_mass_on_narrow_range(self, g16, double_well):
        k = Kernel("gaussian", 0.5, 4.5, g16)
        report = validate_assumptions(k, double_well, s_range=(-2.0, 2.0))
        assert report.c0 == pytest.approx(0.5, abs=1e-12)
        assert report.s_range == (-2.0, 2.0)

    def test_undersampled_request_rejected(self, kernel16, double_well):
        with pytest.raises(ValidationError):
            validate_assumptions(kernel16, double_well, samples=50)

    def test_degenerate_range_rejected(self, kernel16, double_well):
        with pytest.raises(ValidationError):
            validate_assumptions(kernel16, double_well, s_range=(1.0, 1.0))

    def test_uneven_kernel_rejected_naming_first_item(self, g16, double_well):
        k = Kernel("gaussian", 0.5, 5.0, g16)
        k.samples = k.samples.copy()
        k.samples[1, 0] *= 2.0  # break evenness by hand
        with pytest.raises(AssumptionError) as exc:
            validate_assumptions(k, double_well)
        assert exc.value.item == 1

    def test_growth_constants_bound_from_below(self, kernel16, double_well):
        rep = validate_assumptions(kernel16, double_well)
        s = np.linspace(-3.0, 3.0, 201)
        lhs = double_well.d2f(s) + 5.0
        rhs = rep.c1 * np.abs(s) ** (2 * rep.q) - rep.c2
        assert np.all(lhs >= rhs - 1e-9)

    def test_coercivity_constants_bound_from_above(self, kernel16, double_well):
        rep = validate_assumptions(kernel16, double_well)
        s = np.linspace(-3.0, 3.0, 201)
        lhs = np.abs(double_well.df(s)) ** rep.r
        rhs = rep.c3 * np.abs(double_well.f(s)) + rep.c4
        assert np.all(lhs <= rhs + 1e-6 * (1.0 + np.max(lhs)))
