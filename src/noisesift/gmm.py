"""Gaussian mixture fitting by expectation-maximization for 1-D/2-D data.

Inputs are z-score standardized per dimension before fitting (the
transform is recorded on the model); initialization is farthest-point
seeding plus a few hard-assignment refinement steps, with the best of
several restarts kept by final log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateDataError


@dataclass(frozen=True)
class GmmConfig:
    k: int = 2
    max_iter: int = 200
    tol: float = 1e-6
    cov_floor: float = 1e-6
    init: str = "kmeans"        # "kmeans" (farthest-point + refinement) | "random"
    seed: int = 0
    restarts: int = 3
    standardize: bool = True

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.tol <= 0:
            raise ConfigurationError("tol must be > 0")
        if self.init not in ("kmeans", "random"):
            raise ConfigurationError(f"unknown init scheme {self.init!r}")


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

    def covariances_original(self) -> np.ndarray:
        s = np.diag(self.standardize_std)
        return np.array([s @ c @ s for c in self.covariances])

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
    return pts


def _floor_cov(cov: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _log_gauss(pts: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    D = pts.shape[1]
    L = np.linalg.cholesky(cov)
    diff = pts - mean
    sol = np.linalg.solve(L, diff.T)
    return (
        -0.5 * D * np.log(2.0 * np.pi)
        - np.log(np.diag(L)).sum()
        - 0.5 * (sol**2).sum(axis=0)
    )


def _component_logpdf(model_means, model_covs, model_weights, pts) -> np.ndarray:
    """(N, k) array of log(w_j * N(x | mu_j, cov_j))."""
    k = len(model_weights)
    out = np.empty((len(pts), k))
    for j in range(k):
        out[:, j] = np.log(max(model_weights[j], 1e-300)) + _log_gauss(
            pts, model_means[j], model_covs[j]
        )
    return out


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    mx = a.max(axis=axis, keepdims=True)
    return (mx + np.log(np.exp(a - mx).sum(axis=axis, keepdims=True))).squeeze(axis)


def _standardize_params(pts: np.ndarray, enabled: bool) -> tuple[np.ndarray, np.ndarray]:
    if not enabled:
        return np.zeros(pts.shape[1]), np.ones(pts.shape[1])
    mu = pts.mean(axis=0)
    sd = pts.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return mu, sd


def _init_means(pts: np.ndarray, k: int, cfg: GmmConfig, rng: np.random.Generator) -> np.ndarray:
    N = len(pts)
    if cfg.init == "random":
        return pts[rng.choice(N, size=k, replace=False)].copy()
    first = int(rng.integers(N))
    chosen = [first]
    dists = np.linalg.norm(pts - pts[first], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dists))
        chosen.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(pts - pts[nxt], axis=1))
    means = pts[chosen].copy()
    # A few hard-assignment refinement steps before EM.
    for _ in range(5):
        d = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for j in range(k):
            members = pts[assign == j]
            if len(members):
                means[j] = members.mean(axis=0)
    return means


def _em_once(
    pts: np.ndarray, cfg: GmmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, list[float]]:
    N, D = pts.shape
    k = cfg.k
    means = _init_means(pts, k, cfg, rng)
    d = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assign = d.argmin(axis=1)
    weights = np.maximum(np.bincount(assign, minlength=k) / N, 1.0 / (10 * N))
    weights /= weights.sum()
    base_cov = _floor_cov(np.atleast_2d(np.cov(pts.T, bias=True)), cfg.cov_floor)
    covs = np.array([base_cov.copy() for _ in range(k)])

    history: list[float] = []
    ll_prev = -np.inf
    for it in range(1, cfg.max_iter + 1):
        joint = _component_logpdf(means, covs, weights, pts)
        log_norm = _logsumexp(joint, axis=1)
        ll = float(log_norm.sum())
        history.append(ll)
        resp = np.exp(joint - log_norm[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / N
        means = (resp.T @ pts) / nk[:, None]
        for j in range(k):
            diff = pts - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            covs[j] = _floor_cov(cov, cfg.cov_floor)
        if ll - ll_prev < cfg.tol and it > 1:
            break
        ll_prev = ll
    # Final likelihood under the last parameter update.
    final_ll = float(_logsumexp(_component_logpdf(means, covs, weights, pts), axis=1).sum())
    history.append(final_ll)
    return weights, means, covs, final_ll, it, history


def fit_gmm(points: np.ndarray, cfg: GmmConfig) -> GmmModel:
    """EM fit with restarts; deterministic given cfg.seed."""
    cfg.validate()
    pts_raw = _as_2d(points)
    if len(pts_raw) < cfg.k:
        raise ConfigurationError(
            f"{len(pts_raw)} points cannot support {cfg.k} components"
        )
    if cfg.k > 1 and np.allclose(pts_raw, pts_raw[0]):
        raise DegenerateDataError("all points identical; cannot fit k > 1 mixture")
    mu0, sd0 = _standardize_params(pts_raw, cfg.standardize)
    pts = (pts_raw - mu0) / sd0

    best = None
    for r in range(max(cfg.restarts, 1)):
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


def responsibilities(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """(N, k) posterior component probabilities; rows sum to 1."""
    pts = _as_2d(points)
    if pts.shape[1] != model.dim:
        raise ConfigurationError("dimension mismatch")
    pts = (pts - model.standardize_mean) / model.standardize_std
    joint = _component_logpdf(model.means, model.covariances, model.weights, pts)
    log_norm = _logsumexp(joint, axis=1)
    return np.exp(joint - np.atleast_1d(log_norm)[:, None])


def log_likelihood(model: GmmModel, points: np.ndarray) -> float:
    """Sum of log mixture densities (in the model's standardized space),
    computed with log-sum-exp."""
    pts = _as_2d(points)
    if pts.shape[1] != model.dim:
        raise ConfigurationError("dimension mismatch")
    pts = (pts - model.standardize_mean) / model.standardize_std
    joint = _component_logpdf(model.means, model.covariances, model.weights, pts)
    return float(np.atleast_1d(_logsumexp(joint, axis=1)).sum())
