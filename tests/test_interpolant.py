"""Path coefficient definitions, boundary conditions, and derivative consistency."""

import numpy as np
import pytest

from flowlag.interpolant import GvpPath, LinearPath, VpPath, make_interpolant, PATH_KINDS

ALL_PATHS = [make_interpolant(k) for k in PATH_KINDS]


def central_difference(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


class TestCoefficientValues:
    def test_linear_boundaries(self):
        p = LinearPath()
        assert p.coefficients(0.0) == (0.0, 1.0, 1.0, -1.0)
        assert p.coefficients(1.0) == (1.0, 0.0, 1.0, -1.0)

    def test_linear_interior(self):
        p = LinearPath()
        a, s, da, ds = p.coefficients(0.25)
        assert (a, s, da, ds) == (0.25, 0.75, 1.0, -1.0)

    def test_gvp_midpoint(self):
        # sin/cos path at t = 1/2; derivatives cross-checked below by FD
        a, s, da, ds = GvpPath().coefficients(0.5)
        c = np.cos(np.pi / 4)
        np.testing.assert_allclose([a, s, da, ds],
                                   [np.sin(np.pi / 4), c, 0.5 * np.pi * c, -0.5 * np.pi * np.sin(np.pi / 4)],
                                   rtol=1e-15)

    @pytest.mark.parametrize("interp", ALL_PATHS, ids=PATH_KINDS)
    def test_exact_boundary_conditions(self, interp):
        assert float(interp.alpha(0.0)) == 0.0
        assert float(interp.sigma(0.0)) == 1.0
        assert float(interp.alpha(1.0)) == 1.0
        assert float(interp.sigma(1.0)) == 0.0

    @pytest.mark.parametrize("interp", ALL_PATHS, ids=PATH_KINDS)
    def test_monotone_coefficients(self, interp):
        t = np.linspace(0.0, 1.0, 501)
        assert np.all(np.diff(interp.alpha(t)) >= 0.0)
        assert np.all(np.diff(interp.sigma(t)) <= 0.0)

    def test_domain_errors(self):
        p = LinearPath()
        with pytest.raises(ValueError):
            p.coefficients(-0.1)
        with pytest.raises(ValueError):
            p.coefficients(1.1)
        with pytest.raises(ValueError):
            p.coefficients(np.nan)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_interpolant("cosine")


class TestDerivativeConsistency:
    """d_alpha / d_sigma must match central differences of alpha / sigma."""

    @pytest.mark.parametrize("interp", ALL_PATHS, ids=PATH_KINDS)
    def test_coefficient_derivatives(self, interp):
        t = np.linspace(0.01, 0.99, 197)
        fd_a = central_difference(interp.alpha, t)
        fd_s = central_difference(interp.sigma, t)
        np.testing.assert_allclose(interp.d_alpha(t), fd_a, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(interp.d_sigma(t), fd_s, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("interp", ALL_PATHS, ids=PATH_KINDS)
    def test_velocity_is_state_derivative(self, interp):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(5)
        x1 = rng.standard_normal(5)
        for t in np.linspace(0.02, 0.98, 25):
            fd = central_difference(lambda u: interp.sample_xt(x0, x1, u), t)
            v = interp.target_velocity(x0, x1, t)
            np.testing.assert_allclose(v, fd, rtol=1e-4, atol=1e-7)


class TestStateAndVelocity:
    def test_sample_xt_boundaries(self):
        p = LinearPath()
        x0 = np.array([2.0, 0.0])
        x1 = np.array([0.0, 2.0])
        np.testing.assert_array_equal(p.sample_xt(x0, x1, 0.0), x0)
        np.testing.assert_array_equal(p.sample_xt(x0, x1, 1.0), x1)
        np.testing.assert_allclose(p.sample_xt(x0, x1, 0.5), [1.0, 1.0], rtol=1e-15)

    def test_linear_velocity_is_constant_displacement(self):
        p = LinearPath()
        x0 = np.array([1.0, 0.0])
        x1 = np.array([0.0, 1.0])
        for t in (0.0, 0.3, 0.7, 1.0):
            np.testing.assert_array_equal(p.target_velocity(x0, x1, t), x1 - x0)
        np.testing.assert_array_equal(p.target_velocity(x1, x1, 0.2), np.zeros(2))

    def test_gvp_velocity_components(self):
        p = GvpPath()
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        v = p.target_velocity(e1, e2, 0.5)
        c = 0.5 * np.pi * np.cos(np.pi / 4)
        s = -0.5 * np.pi * np.sin(np.pi / 4)
        np.testing.assert_allclose(v, c * e2 + s * e1, rtol=1e-15)

    def test_batched_times_broadcast(self):
        p = GvpPath()
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((8, 3))
        x1 = rng.standard_normal((8, 3))
        t = rng.uniform(0.0, 1.0, 8)
        xt = p.sample_xt(x0, x1, t)
        for i in range(8):
            np.testing.assert_array_equal(xt[i], p.sample_xt(x0[i], x1[i], t[i]))

    def test_shape_mismatch(self):
        p = LinearPath()
        with pytest.raises(ValueError):
            p.sample_xt(np.zeros(3), np.zeros(4), 0.5)
        with pytest.raises(ValueError):
            p.target_velocity(np.zeros((2, 3)), np.zeros(3), 0.5)


class TestVpPathShape:
    """The exponential path keeps its profile after endpoint rescaling."""

    def test_alpha_strictly_increasing_and_convexish(self):
        p = VpPath()
        t = np.linspace(0.0, 1.0, 1001)
        a = p.alpha(t)
        assert np.all(np.diff(a) > 0.0)
        assert a[500] < 0.5  # mass stays near zero until late times

    def test_d_sigma_boundary_convention(self):
        p = VpPath()
        assert float(p.d_sigma(1.0)) == 0.0
        assert float(p.d_sigma(0.0)) == 0.0  # alpha(0) = 0 kills the product
        # the product sigma * d_sigma approaches -alpha * d_alpha near t=1
        t = 1.0 - 1e-9
        prod = float(p.sigma(t) * p.d_sigma(t))
        np.testing.assert_allclose(prod, -float(p.alpha(t) * p.d_alpha(t)), rtol=1e-12)

    def test_variance_preserving(self):
        p = VpPath()
        t = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(p.alpha(t) ** 2 + p.sigma(t) ** 2, 1.0, atol=1e-14)


def _reference_coefficients(kind, t):
    """(alpha, sigma, d_alpha, d_sigma), each formula written out on its own."""
    t = np.asarray(t, dtype=np.float64)
    if kind == "linear":
        return t, 1.0 - t, np.ones_like(t), -np.ones_like(t)
    if kind == "gvp":
        sin_half = np.where(t <= 0.5, np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * (1.0 - t)))
        cos_half = np.where(t <= 0.5, np.cos(0.5 * np.pi * t), np.sin(0.5 * np.pi * (1.0 - t)))
        return sin_half, cos_half, 0.5 * np.pi * cos_half, -0.5 * np.pi * sin_half
    a_, b_ = 19.9, 0.1
    e0 = float(np.exp(-0.25 * a_ - 0.5 * b_))
    u = 1.0 - t
    raw = np.exp(-0.25 * a_ * u * u - 0.5 * b_ * u)
    alpha = (raw - e0) / (1.0 - e0)
    sigma = np.sqrt(np.maximum(1.0 - alpha * alpha, 0.0))
    d_alpha = raw * (0.5 * a_ * u + 0.5 * b_) / (1.0 - e0)
    d_sigma = np.where(sigma > 0.0, -alpha * d_alpha / np.where(sigma > 0.0, sigma, 1.0), 0.0)
    return alpha, sigma, d_alpha, d_sigma


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


HALF_ULPS = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
T_GRID = [0.0, 1.0, *HALF_ULPS, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 0.3, 1 - 1e-9]


class TestTimeCheckedOnce:
    """Each public method checks t once and returns the formulas' exact bits."""

    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("t", T_GRID + [np.array(T_GRID), np.array(HALF_ULPS)[:, None]],
                             ids=[f"{float(t)!r}" for t in T_GRID] + ["grid", "column"])
    def test_bitwise_equal_to_the_formulas(self, kind, t):
        interp = make_interpolant(kind)
        want = _reference_coefficients(kind, t)
        for got, ref in zip(interp.coefficients(t), want):
            _assert_same_bits(got, ref)
        for name, ref in zip(("alpha", "sigma", "d_alpha", "d_sigma"), want):
            _assert_same_bits(getattr(interp, name)(t), ref)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_state_and_velocity_bitwise_equal_to_the_formulas(self, kind):
        interp = make_interpolant(kind)
        rng = np.random.default_rng(4)
        t = np.array(T_GRID)
        x0, x1 = rng.standard_normal((2, t.size, 5))
        a, s, da, ds = _reference_coefficients(kind, t)
        _assert_same_bits(interp.sample_xt(x0, x1, t), a[:, None] * x1 + s[:, None] * x0)
        _assert_same_bits(interp.target_velocity(x0, x1, t), da[:, None] * x1 + ds[:, None] * x0)
        for i, ti in enumerate(T_GRID):
            a, s, da, ds = _reference_coefficients(kind, ti)
            _assert_same_bits(interp.sample_xt(x0[i], x1[i], ti), a * x1[i] + s * x0[i])
            _assert_same_bits(interp.target_velocity(x0[i], x1[i], ti), da * x1[i] + ds * x0[i])

    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("t", [np.nan, -0.1, 1.1, np.inf, -np.inf, np.nextafter(1.0, 2.0),
                                   np.array([0.2, np.nan]), np.array([0.5, 1.5])],
                             ids=["nan", "below", "above", "inf", "-inf", "1+ulp", "nan-in-array",
                                  "above-in-array"])
    def test_every_public_method_rejects_bad_times(self, kind, t):
        interp = make_interpolant(kind)
        x = np.zeros((np.size(t), 3))
        calls = [getattr(interp, name) for name in ("alpha", "sigma", "d_alpha", "d_sigma",
                                                     "coefficients")]
        calls += [lambda t: interp.sample_xt(x, x, t), lambda t: interp.target_velocity(x, x, t)]
        for call in calls:
            with pytest.raises(ValueError):
                call(t)
