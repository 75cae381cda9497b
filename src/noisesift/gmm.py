"""Gaussian mixture fitting by expectation-maximization for 1-D/2-D data.

Inputs are z-score standardized per dimension before fitting (the
transform is recorded on the model); initialization is farthest-point
seeding plus a few hard-assignment refinement steps, with the best of
several restarts kept by final log-likelihood.

Because D <= 2, each EM iteration works on all k components at once: the
points are held as one (D, N) array, the 1x1/2x2 Gaussian log-densities
are written out in closed form over (k, D, N), and the covariance update
is one stacked matmul.  `np.linalg` is called only when a covariance falls
below the eigenvalue floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateDataError


# EM stops after MAX_ITER iterations or once the log-likelihood gains less
# than TOL; every covariance eigenvalue is kept at or above COV_FLOOR; the
# best of RESTARTS runs is kept.
MAX_ITER = 200
TOL = 1e-6
COV_FLOOR = 1e-6
RESTARTS = 3


@dataclass(frozen=True)
class GmmConfig:
    k: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")


@dataclass
class GmmModel:
    weights: np.ndarray        # (k,)
    means: np.ndarray          # (k, D), standardized space
    covariances: np.ndarray    # (k, D, D), standardized space
    log_likelihood: float
    n_iter: int
    standardize_mean: np.ndarray
    standardize_std: np.ndarray
    ll_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def means_original(self) -> np.ndarray:
        return self.standardize_mean + self.standardize_std * self.means

    def to_json(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "log_likelihood": self.log_likelihood,
            "n_iter": self.n_iter,
            "standardize_mean": self.standardize_mean.tolist(),
            "standardize_std": self.standardize_std.tolist(),
        }


def _as_2d(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ConfigurationError("points must be a 1-D or 2-D array")
    if pts.shape[1] not in (1, 2):
        raise ConfigurationError(
            f"points must have 1 or 2 dimensions, got {pts.shape[1]}"
        )
    return pts


def _floor_cov(covs: np.ndarray) -> np.ndarray:
    """Raise every eigenvalue of each (D, D) matrix in the (k, D, D) stack
    to at least COV_FLOOR.  The smallest eigenvalue is found in closed form;
    the stack comes back unchanged when no matrix is below the floor."""
    a = covs[:, 0, 0]
    if covs.shape[1] == 1:
        smallest = a
    else:
        b, c = covs[:, 1, 0], covs[:, 1, 1]
        smallest = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    if np.all(smallest >= COV_FLOOR):
        return covs
    vals, vecs = np.linalg.eigh(covs)
    return (vecs * np.maximum(vals, COV_FLOOR)[:, None, :]) @ vecs.swapaxes(1, 2)


def _component_logpdf(model_means, model_covs, model_weights, pts) -> np.ndarray:
    """(k, N) array of log(w_j * N(x | mu_j, cov_j)) for (D, N) points.

    The 1x1/2x2 Cholesky factor L of each covariance, the triangular solve
    z = L^-1 (x - mu) and log|L| are written out elementwise over all
    components at once."""
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


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log of the sum of exp over the component axis (axis 0)."""
    mx = a.max(axis=0)
    return mx + np.log(np.exp(a - mx).sum(axis=0))


def _standardize_params(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = pts.mean(axis=0)
    sd = pts.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return mu, sd


def _nearest(pts: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Index of the nearest mean for each of the (D, N) points."""
    return ((pts[None, :, :] - means[:, :, None]) ** 2).sum(axis=1).argmin(axis=0)


def _init_means(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    first = int(rng.integers(pts.shape[1]))
    chosen = [first]
    dists = np.linalg.norm(pts - pts[:, [first]], axis=0)
    for _ in range(k - 1):
        nxt = int(np.argmax(dists))
        chosen.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(pts - pts[:, [nxt]], axis=0))
    means = pts[:, chosen].T
    # A few hard-assignment refinement steps before EM; a cluster with no
    # members keeps its previous mean.
    for _ in range(5):
        members = _nearest(pts, means) == np.arange(k)[:, None]
        counts = members.sum(axis=1)
        sums = members @ pts.T
        means = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], means)
    return means


def _em_once(
    pts: np.ndarray, cfg: GmmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, list[float]]:
    """One EM run on (D, N) standardized points."""
    D, N = pts.shape
    k = cfg.k
    means = _init_means(pts, k, rng)
    assign = _nearest(pts, means)
    weights = np.maximum(np.bincount(assign, minlength=k) / N, 1.0 / (10 * N))
    weights /= weights.sum()
    base_cov = np.cov(pts, bias=True).reshape(1, D, D)
    covs = np.repeat(_floor_cov(base_cov), k, axis=0)

    history: list[float] = []
    ll_prev = -np.inf
    for it in range(1, MAX_ITER + 1):
        joint = _component_logpdf(means, covs, weights, pts)
        log_norm = _logsumexp(joint)
        ll = float(log_norm.sum())
        history.append(ll)
        resp = np.exp(joint - log_norm)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / N
        means = (resp @ pts.T) / nk[:, None]
        diff = pts[None, :, :] - means[:, :, None]
        covs = (resp[:, None, :] * diff) @ diff.swapaxes(1, 2) / nk[:, None, None]
        covs = _floor_cov(covs)
        if ll - ll_prev < TOL and it > 1:
            break
        ll_prev = ll
    # Final likelihood under the last parameter update.
    final_ll = float(_logsumexp(_component_logpdf(means, covs, weights, pts)).sum())
    history.append(final_ll)
    return weights, means, covs, final_ll, it, history


def fit_gmm(points: np.ndarray, cfg: GmmConfig) -> GmmModel:
    """EM fit with restarts; deterministic given cfg.seed."""
    pts_raw = _as_2d(points)
    if len(pts_raw) < cfg.k:
        raise ConfigurationError(
            f"{len(pts_raw)} points cannot support {cfg.k} components"
        )
    if cfg.k > 1 and np.allclose(pts_raw, pts_raw[0]):
        raise DegenerateDataError("all points identical; cannot fit k > 1 mixture")
    mu0, sd0 = _standardize_params(pts_raw)
    pts = np.ascontiguousarray(((pts_raw - mu0) / sd0).T)

    best = None
    for r in range(RESTARTS):
        rng = np.random.default_rng([cfg.seed, r])
        weights, means, covs, ll, iters, history = _em_once(pts, cfg, rng)
        if best is None or ll > best[3]:
            best = (weights, means, covs, ll, iters, history)
    weights, means, covs, ll, iters, history = best
    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=ll,
        n_iter=iters,
        standardize_mean=mu0,
        standardize_std=sd0,
        ll_history=history,
    )


def _joint(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """(k, N) component log-densities of points given in original units."""
    pts = _as_2d(points)
    if pts.shape[1] != model.dim:
        raise ConfigurationError("dimension mismatch")
    pts = np.ascontiguousarray(((pts - model.standardize_mean) / model.standardize_std).T)
    return _component_logpdf(model.means, model.covariances, model.weights, pts)


def responsibilities(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """(N, k) posterior component probabilities; rows sum to 1."""
    joint = _joint(model, points)
    return np.exp(joint - _logsumexp(joint)).T


def log_likelihood(model: GmmModel, points: np.ndarray) -> float:
    """Sum of log mixture densities (in the model's standardized space),
    computed with log-sum-exp."""
    return float(_logsumexp(_joint(model, points)).sum())
