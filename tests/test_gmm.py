"""EM mixture fitting: likelihood monotonicity, parameter recovery,
and responsibilities."""

import numpy as np
import pytest

from noisesift import GmmConfig, fit_gmm, log_likelihood, responsibilities
from noisesift.errors import ConfigurationError, DegenerateDataError


def _two_component_1d(rng, n=5000, w0=0.35):
    n0 = int(round(w0 * n))
    a = rng.normal(-2.0, 0.5, size=n0)
    b = rng.normal(2.0, 0.7, size=n - n0)
    return np.concatenate([a, b]), (-2.0, 2.0), (w0, 1 - w0)


def test_log_likelihood_is_monotone_within_tolerance(rng):
    pts, _, _ = _two_component_1d(rng, n=2000)
    model = fit_gmm(pts, GmmConfig(k=2, seed=0))
    hist = np.asarray(model.ll_history)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) >= -1e-9)


def test_known_mixture_parameter_recovery(rng):
    pts, true_means, true_weights = _two_component_1d(rng, n=5000)
    model = fit_gmm(pts, GmmConfig(k=2, seed=0))
    means = np.sort(model.means_original()[:, 0])
    order = np.argsort(model.means_original()[:, 0])
    weights = model.weights[order]
    assert abs(means[0] - true_means[0]) < 0.1
    assert abs(means[1] - true_means[1]) < 0.1
    assert abs(weights[0] - true_weights[0]) < 0.05
    assert abs(weights[1] - true_weights[1]) < 0.05


def test_2d_mixture_recovery(rng):
    n = 3000
    a = rng.normal([-3.0, 0.0], [0.6, 0.6], size=(n // 2, 2))
    b = rng.normal([3.0, 1.0], [0.8, 0.5], size=(n - n // 2, 2))
    pts = np.vstack([a, b])
    model = fit_gmm(pts, GmmConfig(k=2, seed=1))
    means = model.means_original()
    order = np.argsort(means[:, 0])
    np.testing.assert_allclose(means[order][0], [-3.0, 0.0], atol=0.15)
    np.testing.assert_allclose(means[order][1], [3.0, 1.0], atol=0.15)
    np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)


def test_responsibilities_rows_sum_to_one(rng):
    pts, _, _ = _two_component_1d(rng, n=1000)
    model = fit_gmm(pts, GmmConfig(k=2, seed=0))
    resp = responsibilities(model, pts)
    assert resp.shape == (1000, 2)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-10)
    assert np.all(resp >= 0)


def test_responsibilities_separate_well_separated_modes(rng):
    pts, _, _ = _two_component_1d(rng, n=1000)
    model = fit_gmm(pts, GmmConfig(k=2, seed=0))
    low = int(np.argmin(model.means_original()[:, 0]))
    probe = responsibilities(model, np.array([-2.0, 2.0]))
    assert probe[0, low] > 0.99
    assert probe[1, low] < 0.01


def test_final_log_likelihood_matches_history_and_helper(rng):
    pts, _, _ = _two_component_1d(rng, n=500)
    model = fit_gmm(pts, GmmConfig(k=2, seed=0))
    assert model.log_likelihood == pytest.approx(model.ll_history[-1])
    assert log_likelihood(model, pts) == pytest.approx(model.log_likelihood)


def test_fit_is_deterministic(rng):
    pts, _, _ = _two_component_1d(rng, n=800)
    m1 = fit_gmm(pts, GmmConfig(k=2, seed=7))
    m2 = fit_gmm(pts, GmmConfig(k=2, seed=7))
    np.testing.assert_array_equal(m1.means, m2.means)
    np.testing.assert_array_equal(m1.weights, m2.weights)


def test_identical_points_raise_degenerate_error():
    pts = np.ones(50)
    with pytest.raises(DegenerateDataError):
        fit_gmm(pts, GmmConfig(k=2, seed=0))


def test_too_few_points_rejected():
    with pytest.raises(ConfigurationError):
        fit_gmm(np.array([1.0]), GmmConfig(k=2))


def test_covariance_floor_keeps_fits_finite(rng):
    # One component collapses onto a near-duplicated point cloud; the
    # eigenvalue floor must keep the likelihood finite.
    tight = np.full(200, 3.0) + rng.normal(0, 1e-12, size=200)
    wide = rng.normal(-3.0, 1.0, size=200)
    model = fit_gmm(np.concatenate([tight, wide]), GmmConfig(k=2, seed=0))
    assert np.isfinite(model.log_likelihood)
    for cov in model.covariances:
        assert np.all(np.linalg.eigvalsh(cov) >= 1e-7)
