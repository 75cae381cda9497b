"""EM mixture fitting: likelihood monotonicity, parameter recovery,
responsibilities, input checks, and equivalence with a per-component
reference EM and with the serial restart loop."""

import numpy as np
import pytest

from noisesift import GmmConfig, fit_gmm, gmm, log_likelihood, responsibilities
from noisesift.errors import ConfigurationError, DegenerateDataError
from noisesift.metrics import HIGH_IS_NOISY
from noisesift.partition import partition_gmm


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
    with pytest.raises(ConfigurationError, match="1-D or 2-D array"):
        fit_gmm(rng.normal(size=(50, 2, 2)), GmmConfig(k=2))
    model_2d = fit_gmm(rng.normal(size=(100, 2)), GmmConfig(k=2, seed=0))
    with pytest.raises(ConfigurationError, match="dimension mismatch"):
        responsibilities(model_2d, pts)


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
    for r in range(gmm.RESTARTS):
        means = _reference_init(pts, k, np.random.default_rng([cfg.seed, r]))
        assign = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        weights = np.maximum(np.bincount(assign, minlength=k) / N, 1.0 / (10 * N))
        weights /= weights.sum()
        base = _reference_floor(np.atleast_2d(np.cov(pts.T, bias=True)), gmm.COV_FLOOR)
        covs = np.array([base] * k)
        ll_prev = -np.inf
        for it in range(1, gmm.MAX_ITER + 1):
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
                covs[j] = _reference_floor(cov, gmm.COV_FLOOR)
            if ll - ll_prev < gmm.TOL and it > 1:
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


# Reference oracle: the serial restart loop that fit_gmm's lockstep
# restarts replaced, kept as it was.  Each restart runs EM alone on the
# (D, N) points; the floor and the log-densities work on one (k, ...) stack.


def _serial_floor_cov(covs):
    a = covs[:, 0, 0]
    if covs.shape[1] == 1:
        smallest = a
    else:
        b, c = covs[:, 1, 0], covs[:, 1, 1]
        smallest = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    if np.all(smallest >= gmm.COV_FLOOR):
        return covs
    vals, vecs = np.linalg.eigh(covs)
    return (vecs * np.maximum(vals, gmm.COV_FLOOR)[:, None, :]) @ vecs.swapaxes(1, 2)


def _serial_component_logpdf(model_means, model_covs, model_weights, pts):
    D = pts.shape[0]
    diff = pts[None, :, :] - model_means[:, :, None]
    l00 = np.sqrt(model_covs[:, 0, 0])
    z0 = diff[:, 0] / l00[:, None]
    maha = z0**2
    log_det = np.log(l00)
    if D == 2:
        l10 = model_covs[:, 1, 0] / l00
        l11 = np.sqrt(model_covs[:, 1, 1] - l10**2)
        z1 = (diff[:, 1] - l10[:, None] * z0) / l11[:, None]
        maha += z1**2
        log_det += np.log(l11)
    const = np.log(np.maximum(model_weights, 1e-300)) - 0.5 * D * np.log(2.0 * np.pi) - log_det
    return const[:, None] - 0.5 * maha


def _serial_logsumexp(a):
    mx = a.max(axis=0)
    return mx + np.log(np.exp(a - mx).sum(axis=0))


def _serial_em_once(pts, cfg, rng):
    D, N = pts.shape
    k = cfg.k
    means = gmm._init_means(pts, k, rng)
    assign = gmm._nearest(pts, means)
    weights = np.maximum(np.bincount(assign, minlength=k) / N, 1.0 / (10 * N))
    weights /= weights.sum()
    base_cov = np.cov(pts, bias=True).reshape(1, D, D)
    covs = np.repeat(_serial_floor_cov(base_cov), k, axis=0)

    history = []
    ll_prev = -np.inf
    for it in range(1, gmm.MAX_ITER + 1):
        joint = _serial_component_logpdf(means, covs, weights, pts)
        log_norm = _serial_logsumexp(joint)
        ll = float(log_norm.sum())
        history.append(ll)
        resp = np.exp(joint - log_norm)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / N
        means = (resp @ pts.T) / nk[:, None]
        diff = pts[None, :, :] - means[:, :, None]
        covs = (resp[:, None, :] * diff) @ diff.swapaxes(1, 2) / nk[:, None, None]
        covs = _serial_floor_cov(covs)
        if ll - ll_prev < gmm.TOL and it > 1:
            break
        ll_prev = ll
    final_ll = float(_serial_logsumexp(_serial_component_logpdf(means, covs, weights, pts)).sum())
    history.append(final_ll)
    return weights, means, covs, final_ll, it, history


def _serial_fit(points, cfg):
    """(model, iterations of each restart) from the serial restart loop."""
    pts_raw = gmm._as_2d(points)
    mu0, sd0 = gmm._standardize_params(pts_raw)
    pts = np.ascontiguousarray(((pts_raw - mu0) / sd0).T)

    best = None
    restart_iters = []
    for r in range(gmm.RESTARTS):
        rng = np.random.default_rng([cfg.seed, r])
        weights, means, covs, ll, iters, history = _serial_em_once(pts, cfg, rng)
        restart_iters.append(iters)
        if best is None or ll > best[3]:
            best = (weights, means, covs, ll, iters, history)
    weights, means, covs, ll, iters, history = best
    # The model reads its final log-likelihood and iteration count off the
    # history, so the reference's own must agree with it.
    assert (ll, iters) == (history[-1], len(history) - 1)
    model = gmm.GmmModel(weights, means, covs, mu0, sd0, history)
    return model, restart_iters


def _assert_same_model(got, want):
    for name in ("weights", "means", "covariances", "standardize_mean", "standardize_std"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.log_likelihood == want.log_likelihood
    assert got.n_iter == want.n_iter
    assert got.ll_history == want.ll_history


def _spike_data(rng):
    # A tight spike beside a broad cloud: a component collapses onto the
    # spike at a different iteration in each restart, and the restarts
    # stop at different iterations.
    return np.concatenate([np.full(40, 3.0), rng.normal(-1.0, 1.0, 360)])


_LOCKSTEP_CASES = (
    [(kind, k) for kind in ("1d", "2d") for k in (1, 2, 3)]
    + [("collinear", 2), ("collinear", 3), ("two-valued", 3), ("spike", 2)]
)

# The cases whose restarts start from equal means, with the number of
# distinct starts; the others have RESTARTS.  With k = 1 every start is
# the mean of all points.  In "1d" (two well-separated modes) with k = 2
# all starts coincide; in "2d" with k = 2 restarts 0 and 2 do, and
# restart 1, the only other start, has the best fit.
_DISTINCT_STARTS = {
    ("1d", 1): 1,
    ("1d", 2): 1,
    ("2d", 1): 1,
    ("2d", 2): 2,
    ("collinear", 2): 1,
    ("two-valued", 3): 1,
    ("spike", 2): 2,
}


@pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "max-iter-3"])
@pytest.mark.parametrize("kind,k", _LOCKSTEP_CASES)
def test_lockstep_restarts_are_bitwise_equal_to_the_serial_loop(kind, k, cap, rng, monkeypatch):
    pts = _spike_data(rng) if kind == "spike" else _equivalence_data(kind, rng)
    if cap is not None:
        monkeypatch.setattr(gmm, "MAX_ITER", cap)
    cfg = GmmConfig(k=k, seed=0)
    want, restart_iters = _serial_fit(pts, cfg)
    if cap is not None:
        assert restart_iters == [cap] * gmm.RESTARTS or k == 1
    elif kind == "spike":
        assert len(set(restart_iters)) > 1
    # The stack holds one row per distinct start.
    rows = []
    logpdf = gmm._component_logpdf
    monkeypatch.setattr(
        gmm, "_component_logpdf", lambda diff, *args: rows.append(len(diff)) or logpdf(diff, *args)
    )
    _assert_same_model(fit_gmm(pts, cfg), want)
    assert rows[0] == _DISTINCT_STARTS.get((kind, k), gmm.RESTARTS)


def test_floor_cov_rebuilds_only_the_sets_below_the_floor(rng):
    a = rng.normal(size=(4, 3, 2, 2))
    covs = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(2)
    covs[1, 2] = [[1.0, 1.0], [1.0, 1.0]]  # singular: set 1 is below the floor
    covs[3, 0] = [[4.0, 2.0], [2.0, 1.0]]  # and so is set 3
    want = np.stack([_serial_floor_cov(c.copy()) for c in covs])
    got = gmm._floor_cov(covs.copy())
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[[0, 2]], covs[[0, 2]])


def test_fitted_models_share_no_memory(rng):
    pts = _equivalence_data("2d", rng)
    first = fit_gmm(pts, GmmConfig(k=3, seed=0))
    kept = {name: np.copy(getattr(first, name)) for name in ("weights", "means", "covariances")}
    second = fit_gmm(pts[::-1], GmmConfig(k=3, seed=1))
    names = ("weights", "means", "covariances", "standardize_mean", "standardize_std")
    for a in (getattr(first, name) for name in names):
        # A model array that owns its memory is no view into a work array.
        assert a.flags.owndata
        for name in names:
            assert not np.shares_memory(a, getattr(second, name))
    for name, value in kept.items():
        np.testing.assert_array_equal(getattr(first, name), value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dim", [1, 2])
def test_non_finite_points_are_rejected(bad, dim, rng):
    # Not DegenerateDataError: that would take the partitioners' silent
    # median fallback.
    pts = rng.normal(size=(51, dim))
    pts[17, -1] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        fit_gmm(pts.squeeze(axis=1) if dim == 1 else pts, GmmConfig(k=2, seed=0))
    if dim == 1:
        with pytest.raises(ConfigurationError, match="finite"):
            partition_gmm(np.arange(51), [pts[:, 0]], (HIGH_IS_NOISY,))
