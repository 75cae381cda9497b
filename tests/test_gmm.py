"""EM mixture fitting: likelihood monotonicity, parameter recovery,
responsibilities, and equivalence with a per-component reference EM."""

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


@pytest.mark.parametrize(
    "kwargs", [{"max_iter": 0}, {"max_iter": -3}, {"cov_floor": 0.0}, {"cov_floor": -1e-6}]
)
def test_invalid_gmm_configs_are_rejected(kwargs, rng):
    with pytest.raises(ConfigurationError):
        GmmConfig(**kwargs).validate()
    x = rng.normal(size=100)
    collinear = np.column_stack([x, 2.0 * x + 1.0])
    with pytest.raises(ConfigurationError):
        fit_gmm(collinear, GmmConfig(k=2, **kwargs))


def test_more_than_two_dimensions_rejected(rng):
    pts, _, _ = _two_component_1d(rng, n=200)
    model = fit_gmm(pts, GmmConfig(k=2, seed=0))
    three_d = rng.normal(size=(100, 3))
    with pytest.raises(ConfigurationError):
        fit_gmm(three_d, GmmConfig(k=2))
    with pytest.raises(ConfigurationError):
        responsibilities(model, three_d)
    with pytest.raises(ConfigurationError):
        log_likelihood(model, three_d)


# Reference oracle: the per-component EM loop (one Cholesky solve and one
# eigenvalue floor per component per iteration) that fit_gmm's stacked
# closed form replaced.  Standardization assumes no constant column.


def _log_gauss(pts, mean, cov):
    D = pts.shape[1]
    L = np.linalg.cholesky(cov)
    sol = np.linalg.solve(L, (pts - mean).T)
    return -0.5 * D * np.log(2.0 * np.pi) - np.log(np.diag(L)).sum() - 0.5 * (sol**2).sum(axis=0)


def _reference_joint(weights, means, covs, pts):
    return np.column_stack(
        [np.log(max(w, 1e-300)) + _log_gauss(pts, m, c) for w, m, c in zip(weights, means, covs)]
    )


def _reference_floor(cov, floor):
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def _reference_logsumexp(a):
    mx = a.max(axis=1, keepdims=True)
    return mx + np.log(np.exp(a - mx).sum(axis=1, keepdims=True))


def _reference_init(pts, k, rng):
    N = len(pts)
    chosen = [int(rng.integers(N))]
    dists = np.linalg.norm(pts - pts[chosen[0]], axis=1)
    for _ in range(k - 1):
        chosen.append(int(np.argmax(dists)))
        dists = np.minimum(dists, np.linalg.norm(pts - pts[chosen[-1]], axis=1))
    means = pts[chosen].copy()
    for _ in range(5):
        assign = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        for j in range(k):
            if np.any(assign == j):
                means[j] = pts[assign == j].mean(axis=0)
    return means


def _reference_fit(points, cfg):
    """(n_iter, responsibilities) of the best restart, per-component EM."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    pts = (pts - pts.mean(axis=0)) / pts.std(axis=0)
    N, k = len(pts), cfg.k
    best = None
    for r in range(cfg.restarts):
        means = _reference_init(pts, k, np.random.default_rng([cfg.seed, r]))
        assign = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        weights = np.maximum(np.bincount(assign, minlength=k) / N, 1.0 / (10 * N))
        weights /= weights.sum()
        base = _reference_floor(np.atleast_2d(np.cov(pts.T, bias=True)), cfg.cov_floor)
        covs = np.array([base] * k)
        ll_prev = -np.inf
        for it in range(1, cfg.max_iter + 1):
            joint = _reference_joint(weights, means, covs, pts)
            log_norm = _reference_logsumexp(joint)
            ll = float(log_norm.sum())
            resp = np.exp(joint - log_norm)
            nk = np.maximum(resp.sum(axis=0), 1e-12)
            weights = nk / N
            means = (resp.T @ pts) / nk[:, None]
            for j in range(k):
                diff = pts - means[j]
                cov = (resp[:, j][:, None] * diff).T @ diff / nk[j]
                covs[j] = _reference_floor(cov, cfg.cov_floor)
            if ll - ll_prev < cfg.tol and it > 1:
                break
            ll_prev = ll
        joint = _reference_joint(weights, means, covs, pts)
        log_norm = _reference_logsumexp(joint)
        if best is None or log_norm.sum() > best[0]:
            best = (log_norm.sum(), it, np.exp(joint - log_norm))
    return best[1], best[2]


def _equivalence_data(kind, rng):
    n = 400
    if kind == "1d":
        return _two_component_1d(rng, n=n)[0]
    if kind == "2d":
        a = rng.normal([-2.0, 0.0], [0.8, 0.6], size=(n // 2, 2))
        b = rng.normal([1.5, 1.0], [0.7, 1.1], size=(n - n // 2, 2))
        return np.vstack([a, b])
    if kind == "collinear":
        x = np.concatenate([rng.normal(-2.0, 0.5, n // 2), rng.normal(2.0, 0.7, n - n // 2)])
        return np.column_stack([x, 3.0 * x - 1.0])
    # Two distinct values: with k = 3 farthest-point seeding picks one of
    # them twice, so a cluster has no members during the refinement steps.
    return np.repeat([0.0, 1.0], [n // 2 - 50, n // 2 + 50])


@pytest.mark.parametrize(
    "kind,k",
    [(kind, k) for kind in ("1d", "2d", "collinear") for k in (1, 2, 3)] + [("two-valued", 3)],
)
def test_stacked_em_matches_per_component_reference(kind, k, rng, monkeypatch):
    pts = _equivalence_data(kind, rng)
    cfg = GmmConfig(k=k, seed=k)
    eigh_calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a: eigh_calls.append(a.shape) or real_eigh(a)
    )
    model = fit_gmm(pts, cfg)
    resp = responsibilities(model, pts)
    monkeypatch.undo()
    # The eigendecomposition runs only when a covariance is below the floor.
    assert bool(eigh_calls) == (kind in ("collinear", "two-valued"))
    ref_iter, ref_resp = _reference_fit(pts, cfg)
    assert model.n_iter == ref_iter
    np.testing.assert_allclose(resp, ref_resp, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(resp.argmax(axis=1), ref_resp.argmax(axis=1))
