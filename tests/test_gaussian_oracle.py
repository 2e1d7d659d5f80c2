"""Closed-form oracle identities against Monte Carlo and hand computations."""

import numpy as np
import pytest

from flowlag.datasets import GaussianData, make_dataset
from flowlag.errors import ConfigError
from flowlag.gaussian_oracle import (
    JensenGapResult,
    OracleField,
    conditional_means,
    conditional_pair_sample,
    conditional_target_energy,
    cross_term_expectation,
    jensen_gap,
    marginal_variance,
    oracle_velocity,
    rho_statistics,
    typical_shell_point,
    velocity_coefficient,
    velocity_variance,
)
from flowlag.interpolant import LinearPath, make_interpolant, PATH_KINDS

LINEAR = LinearPath()


class TestVelocityCoefficient:
    def test_linear_unit_std_values(self):
        spec = GaussianData(dim=4, std=1.0)
        assert float(velocity_coefficient(spec, LINEAR, 0.0)) == -1.0
        assert float(velocity_coefficient(spec, LINEAR, 1.0)) == 1.0
        assert float(velocity_coefficient(spec, LINEAR, 0.5)) == 0.0

    def test_linear_std_two_midpoint(self):
        # (0.5*4 - 0.5) / (0.25*4 + 0.25) = 1.2
        spec = GaussianData(dim=8, std=2.0)
        np.testing.assert_allclose(float(velocity_coefficient(spec, LINEAR, 0.5)), 1.2, rtol=1e-15)
        x = np.ones(8)
        np.testing.assert_allclose(oracle_velocity(spec, LINEAR, x, 0.5), 1.2 * x, rtol=1e-15)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("data_std", [0.5, 1.0, 2.0])
    def test_boundary_identities_exact(self, kind, data_std):
        """c(0) = d_sigma(0) and c(1) = d_alpha(1) to <= 1e-12 relative error."""
        interp = make_interpolant(kind)
        spec = GaussianData(dim=16, std=data_std)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16)
        for t, coeff_idx in ((0.0, 3), (1.0, 2)):
            expected = float(interp.coefficients(t)[coeff_idx]) * x
            got = oracle_velocity(spec, interp, x, t)
            err = np.linalg.norm(got - expected)
            scale = max(np.linalg.norm(expected), 1e-300)
            assert err <= 1e-12 * scale or err == 0.0

    @pytest.mark.parametrize("data_std,limit", [(1.0, 0.0), (2.0, 0.03775), (0.01, -503.26)])
    def test_vp_value_at_one_is_a_convention_beside_its_limit(self, data_std, limit):
        """On vp, c(1) = d_alpha(1) = 0.0503 at every std, while c(t) -> d_alpha(1) (1 -
        1/std^2) as t -> 1: the solver and any closed form share the one c(1)."""
        vp, spec = make_interpolant("vp"), GaussianData(dim=4, std=data_std)
        d_alpha = float(vp.d_alpha(1.0))
        assert round(d_alpha, 4) == 0.0503
        # (d_alpha std^2) / std^2 rounds to within one ulp of d_alpha
        assert abs(float(velocity_coefficient(spec, vp, 1.0)) - d_alpha) <= np.spacing(d_alpha)
        exact = d_alpha * (1.0 - 1.0 / data_std**2)
        assert exact == pytest.approx(limit, rel=1e-4, abs=0.0)
        near = float(velocity_coefficient(spec, vp, 1.0 - 1e-8))
        assert near == pytest.approx(exact, rel=1e-4, abs=1e-9)

    def test_mc_regression_recovers_coefficient(self):
        """E[v_target | x_t] estimated from conditional pairs matches c(t) x."""
        spec = GaussianData(dim=6, std=2.0)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6)
        for t in (0.2, 0.5, 0.8):
            x0, x1 = conditional_pair_sample(spec, LINEAR, x, t, 400_000, rng)
            v = x1 - x0
            est = v.mean(axis=0)
            se = v.std(axis=0, ddof=1) / np.sqrt(len(v))
            expected = float(velocity_coefficient(spec, LINEAR, t)) * x
            assert np.all(np.abs(est - expected) < 4.0 * se + 1e-12)


class TestConditionalStructure:
    def test_means_vanish_at_boundaries(self):
        spec = GaussianData(dim=5)
        x = np.arange(1.0, 6.0)
        e1, e0 = conditional_means(spec, LINEAR, x, 0.0)
        np.testing.assert_array_equal(e1, np.zeros(5))
        np.testing.assert_array_equal(e0, x)
        e1, e0 = conditional_means(spec, LINEAR, x, 1.0)
        np.testing.assert_array_equal(e0, np.zeros(5))
        np.testing.assert_array_equal(e1, x)

    def test_means_linear_midpoint(self):
        spec = GaussianData(dim=2)
        x = np.array([1.0, 0.0])
        e1, e0 = conditional_means(spec, LINEAR, x, 0.5)
        np.testing.assert_allclose(e1, x, rtol=1e-15)
        np.testing.assert_allclose(e0, x, rtol=1e-15)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_pair_sampler_hits_constraint_exactly(self, kind):
        """alpha x1 + sigma x0 must reconstruct the conditioning state."""
        interp = make_interpolant(kind)
        spec = GaussianData(dim=7, std=1.5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(7)
        for t in (0.1, 0.5, 0.9):
            x0, x1 = conditional_pair_sample(spec, interp, x, t, 256, rng)
            a, s, _, _ = interp.coefficients(t)
            np.testing.assert_allclose(float(a) * x1 + float(s) * x0,
                                       np.broadcast_to(x, x1.shape), atol=1e-12)

    def test_pair_sampler_moments(self):
        spec = GaussianData(dim=3, std=2.0)
        rng = np.random.default_rng(17)
        x = np.array([0.5, -1.0, 2.0])
        t = 0.3
        n = 500_000
        x0, x1 = conditional_pair_sample(spec, LINEAR, x, t, n, rng)
        e1, e0 = conditional_means(spec, LINEAR, x, t)
        tol = 5.0 / np.sqrt(n)
        np.testing.assert_allclose(x0.mean(axis=0), e0, atol=4 * tol)
        np.testing.assert_allclose(x1.mean(axis=0), e1, atol=8 * tol)
        # per-coordinate conditional variances from the joint Gaussian
        a, s = t, 1.0 - t
        sd2 = 4.0
        s2 = a * a * sd2 + s * s
        np.testing.assert_allclose(x0.var(axis=0, ddof=1), a * a * sd2 / s2, rtol=0.02)
        np.testing.assert_allclose(x1.var(axis=0, ddof=1), sd2 * s * s / s2, rtol=0.02)


class TestCrossTerm:
    def test_zero_at_boundaries(self):
        spec = GaussianData(dim=4)
        x = np.ones(4)
        assert cross_term_expectation(spec, LINEAR, x, 0.0) == 0.0
        assert cross_term_expectation(spec, LINEAR, x, 1.0) == 0.0

    def test_zero_on_typical_shell(self):
        spec = GaussianData(dim=16, std=1.3)
        for t in (0.25, 0.5, 0.75):
            x = typical_shell_point(spec, LINEAR, t)
            np.testing.assert_allclose(cross_term_expectation(spec, LINEAR, x, t), 0.0, atol=1e-12)

    def test_hand_computed_value(self):
        # sd=1, D=4, t=1/2, x=(1,1,1,1): s^2=1/2, value = 1/4 * 2 * (8-4) = 2
        spec = GaussianData(dim=4, std=1.0)
        val = cross_term_expectation(spec, LINEAR, np.ones(4), 0.5)
        np.testing.assert_allclose(val, 2.0, rtol=1e-15)

    def test_linear_path_bitwise_equal_to_its_own_formula(self):
        """On the linear path the general form is bit for bit the linear one,
        (1-t) t (sd^2/s^2) (||x||^2/s^2 - D)."""
        rng = np.random.default_rng(19)
        for sd in (0.5, 1.0, 2.0, 3.7):
            spec = GaussianData(dim=16, std=sd)
            for t in np.linspace(0.0, 1.0, 103):
                t = float(t)
                x = rng.standard_normal(16) * 1.3
                sd2 = sd**2
                s2 = t * t * sd2 + (1.0 - t) ** 2
                want = (1.0 - t) * t * (sd2 / s2) * (float(x @ x) / s2 - 16)
                assert cross_term_expectation(spec, LINEAR, x, t) == want, (sd, t)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_matches_conditional_monte_carlo(self, t, kind):
        """Closed form vs <x0, x1> averaged over exact conditional samples, on every path."""
        interp = make_interpolant(kind)
        spec = GaussianData(dim=16)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(16) * 1.2
        x0, x1 = conditional_pair_sample(spec, interp, x, t, 200_000, rng)
        inner = np.einsum("ij,ij->i", x0, x1)
        est, se = inner.mean(), inner.std(ddof=1) / np.sqrt(len(inner))
        assert abs(est - cross_term_expectation(spec, interp, x, t)) < 3.0 * se

    def test_population_mean_over_marginal_is_zero(self):
        """E over x_t ~ marginal of the cross-term vanishes at every t."""
        spec = GaussianData(dim=8, std=1.5)
        rng = np.random.default_rng(29)
        for t in (0.2, 0.6):
            s2 = float(marginal_variance(spec, LINEAR, t))
            xs = rng.standard_normal((200_000, 8)) * np.sqrt(s2)
            xx = np.einsum("ij,ij->i", xs, xs)
            vals = (1 - t) * t * (spec.std**2 / s2) * (xx / s2 - 8)
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean()) < 4.0 * se


class TestVelocityVariance:
    """velocity_variance is the exact E[||v||^2 | x_t] - ||v*||^2."""

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_matches_monte_carlo(self, kind):
        interp = make_interpolant(kind)
        spec = GaussianData(dim=12, std=1.5)
        rng = np.random.default_rng(59)
        x = rng.standard_normal(12)
        n = 100_000
        for t in (0.0, 0.2, 0.5, 0.8, 0.95):
            v_star = oracle_velocity(spec, interp, x, t)
            x0, x1 = conditional_pair_sample(spec, interp, x, t, n, rng)
            v = interp.target_velocity(x0, x1, np.full(n, t))
            gaps = np.einsum("ij,ij->i", v, v) - v_star @ v_star
            se = gaps.std(ddof=1) / np.sqrt(n)
            assert abs(gaps.mean() - velocity_variance(spec, interp, t)) < 4.0 * se, t

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_same_for_every_state(self, kind):
        """Given x_t the spread of v around v* does not depend on x_t: the same
        draws leave the same residuals at the origin and far from it."""
        interp = make_interpolant(kind)
        spec = GaussianData(dim=8, std=0.7)
        far = 5.0 * np.random.default_rng(61).standard_normal(8)
        for t in (0.1, 0.5, 0.9):
            residuals = []
            for x in (np.zeros(8), far):
                x0, x1 = conditional_pair_sample(spec, interp, x, t, 1000,
                                                 np.random.default_rng(67))
                v = interp.target_velocity(x0, x1, np.full(1000, t))
                residuals.append(v - oracle_velocity(spec, interp, x, t))
            np.testing.assert_allclose(residuals[1], residuals[0], rtol=0, atol=1e-11)

    @pytest.mark.parametrize("data_std", [0.5, 1.0, 2.0, 3.7])
    def test_linear_boundaries_are_the_missing_terms(self, data_std):
        """D sd^2 at t=0 (the signal v* cannot see) and D at t=1 (the noise)."""
        spec = GaussianData(dim=16, std=data_std)
        assert velocity_variance(spec, LINEAR, 0.0) == 16 * data_std**2
        assert velocity_variance(spec, LINEAR, 1.0) == 16

    def test_zero_only_at_the_vp_convention_point(self):
        """vp's d_sigma(1) = 0 makes the target deterministic at t=1; every other
        grid point on every path keeps a positive gap."""
        spec = GaussianData(dim=64)
        grid = np.linspace(0.0, 1.0, 101)
        for kind in PATH_KINDS:
            gaps = velocity_variance(spec, make_interpolant(kind), grid)
            if kind == "vp":
                assert gaps[-1] == 0.0
                gaps = gaps[:-1]
            assert np.all(gaps > 0.0), kind
        vp = make_interpolant("vp")
        assert velocity_variance(spec, vp, 0.999) > 1e3  # and unbounded as t -> 1


class TestJensenGap:
    def test_requires_mc_budget(self):
        spec = GaussianData(dim=4)
        with pytest.raises(ValueError):
            jensen_gap(spec, LINEAR, np.ones(4), 0.5, 10, np.random.default_rng(0))

    def test_strict_gap_in_interior(self):
        spec = GaussianData(dim=64)
        rng = np.random.default_rng(41)
        for t in (0.1, 0.5, 0.9):
            x = typical_shell_point(spec, LINEAR, t)
            res = jensen_gap(spec, LINEAR, x, t, 20_000, rng)
            assert res.deficit_confirmed, res
            assert res.learned_energy < res.target_energy

    def test_midpoint_learned_energy_is_zero(self):
        spec = GaussianData(dim=64)
        x = typical_shell_point(spec, LINEAR, 0.5)
        res = jensen_gap(spec, LINEAR, x, 0.5, 5_000, np.random.default_rng(2))
        assert res.learned_energy == 0.0
        assert res.target_energy > 0.0

    def test_boundary_energies_match_missing_terms(self):
        """At t=0 the gap is D sd^2 (missing signal); at t=1 it is D (missing noise)."""
        D = 32
        spec = GaussianData(dim=D, std=1.0)
        rng = np.random.default_rng(43)
        x = rng.standard_normal(D)
        r0 = jensen_gap(spec, LINEAR, x, 0.0, 100_000, rng)
        np.testing.assert_allclose(r0.learned_energy, x @ x, rtol=1e-12)
        assert abs(r0.gap - D) < 4.0 * r0.mc_stderr
        r1 = jensen_gap(spec, LINEAR, x, 1.0, 100_000, rng)
        np.testing.assert_allclose(r1.learned_energy, x @ x, rtol=1e-12)
        assert abs(r1.gap - D) < 4.0 * r1.mc_stderr

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_mc_target_matches_closed_form(self, kind):
        """The MC estimate agrees with the analytic conditional energy."""
        interp = make_interpolant(kind)
        spec = GaussianData(dim=12, std=0.8)
        rng = np.random.default_rng(47)
        x = rng.standard_normal(12)
        for t in (0.15, 0.5, 0.85):
            res = jensen_gap(spec, interp, x, t, 50_000, rng)
            exact = conditional_target_energy(spec, interp, x, t)
            assert abs(res.target_energy - exact) < 4.0 * res.mc_stderr

    def test_result_reports_inconclusive_when_underpowered(self):
        r = JensenGapResult(t=0.5, learned_energy=1.0, target_energy=1.05,
                            mc_stderr=0.1, n_mc=1000)
        assert not r.is_conclusive
        assert not r.deficit_confirmed


class TestLossMinimizer:
    """The oracle coefficient minimizes the empirical regression loss."""

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_perturbed_coefficient_increases_loss(self, t):
        spec = GaussianData(dim=16, std=1.0)
        rng = np.random.default_rng(53)
        n = 100_000
        x0 = rng.standard_normal((n, 16))
        x1 = rng.standard_normal((n, 16))
        xt = LINEAR.sample_xt(x0, x1, np.full(n, float(t)))
        v = x1 - x0
        c = float(velocity_coefficient(spec, LINEAR, t))

        def empirical_loss(coeff):
            r = coeff * xt - v
            return float(np.einsum("ij,ij->", r, r) / n)

        base = empirical_loss(c)
        for eps in (-0.1, -0.05, 0.05, 0.1):
            assert empirical_loss(c + eps) > base


class TestRhoStatistics:
    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            rho_statistics(16, 100)

    def test_deterministic_by_seed(self):
        a = rho_statistics(64, 10_000, seed=9)
        b = rho_statistics(64, 10_000, seed=9)
        assert a == b

    def test_mean_matches_analytic_high_dim(self):
        stats = rho_statistics(1024, 20_000, seed=1)
        expected = np.sqrt(2.0 / (np.pi * 1024))
        np.testing.assert_allclose(stats.mean, expected, rtol=0.03)

    def test_low_dimension_does_not_concentrate(self):
        stats = rho_statistics(1, 10_000, seed=1)
        assert stats.mean > 0.3  # order-one overlap in 1-D

    def test_quadrupling_dimension_halves_mean(self):
        lo = rho_statistics(256, 20_000, seed=4)
        hi = rho_statistics(1024, 20_000, seed=4)
        ratio = lo.mean / hi.mean
        assert abs(ratio - 2.0) < 0.2


class TestOracleField:
    def test_callable_matches_function(self):
        spec = GaussianData(dim=4, std=1.0)
        field = OracleField(spec, LINEAR)
        x = np.ones((3, 4))
        np.testing.assert_array_equal(field(x, 0.25), oracle_velocity(spec, LINEAR, x, 0.25))

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_takes_the_configured_dataset(self, kind):
        """The oracle reads the GaussianData that a config's dataset block builds."""
        interp = make_interpolant(kind)
        field = OracleField(make_dataset({"kind": "gaussian", "dim": 8, "std": 2.0}), interp)
        x = np.random.default_rng(3).standard_normal((5, 8))
        for t in (0.0, 0.3, 0.7, 1.0):
            c = velocity_coefficient(GaussianData(8, 2.0), interp, t)
            np.testing.assert_array_equal(field(x, t), c * x)

    def test_dim_check(self):
        spec = GaussianData(dim=4)
        with pytest.raises(ValueError):
            oracle_velocity(spec, LINEAR, np.ones(5), 0.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianData(dim=0)
        with pytest.raises(ValueError):
            GaussianData(dim=4, std=0.0)

    @pytest.mark.parametrize("std", [np.inf, np.nan])
    def test_non_finite_std_refused(self, std):
        """The oracle's data type refuses a non-finite std."""
        with pytest.raises(ConfigError):
            GaussianData(dim=4, std=std)

    def test_rho_statistics_refuses_dim_zero(self):
        with pytest.raises(ConfigError):
            rho_statistics(0, 10_000)
