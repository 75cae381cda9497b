"""Gaussian mixture fitting by expectation-maximization for 1-D/2-D data.

Inputs are z-score standardized per dimension before fitting (the
transform is recorded on the model); initialization is farthest-point
seeding plus a few hard-assignment refinement steps, with the best of
several restarts kept by final log-likelihood.

Because D <= 2, each EM iteration works on all k components of every
restart still running at once: the points are held as one (D, N) array,
the restarts' parameters are stacked on a leading restart axis, the
1x1/2x2 Gaussian log-densities are written out in closed form over
(R, k, D, N), and the covariance update is one stacked matmul.
`np.linalg` is called only when a covariance falls below the eigenvalue
floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDataError


# EM stops after MAX_ITER iterations or once the log-likelihood gains less
# than TOL; every covariance eigenvalue is kept at or above COV_FLOOR; the
# best of RESTARTS runs is kept.
MAX_ITER = 200
TOL = 1e-6
COV_FLOOR = 1e-6
RESTARTS = 3

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmConfig:
    k: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass
class GmmModel:
    """A fitted mixture.  ll_history holds the log-likelihood before the
    first EM update and after each one, so the final log-likelihood and the
    number of updates are read off it."""

    weights: np.ndarray        # (k,)
    means: np.ndarray          # (k, D), standardized space
    covariances: np.ndarray    # (k, D, D), standardized space
    standardize_mean: np.ndarray
    standardize_std: np.ndarray
    ll_history: list[float]

    @property
    def log_likelihood(self) -> float:
        return self.ll_history[-1]

    @property
    def n_iter(self) -> int:
        return len(self.ll_history) - 1

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
    """Raise every eigenvalue of the (D, D) matrices in a (..., k, D, D)
    stack to at least COV_FLOOR, in place.  The smallest eigenvalue is found
    in closed form; each set of k matrices with one below the floor is
    rebuilt whole from its eigendecomposition, and the other sets are left
    as they are.  A NaN eigenvalue counts as below the floor."""
    a = covs[..., 0, 0]
    if covs.shape[-1] == 1:
        smallest = a
    else:
        b, c = covs[..., 1, 0], covs[..., 1, 1]
        smallest = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    above = smallest >= COV_FLOOR
    if above.all():
        return covs
    low = ~np.all(above, axis=-1)
    vals, vecs = np.linalg.eigh(covs[low])
    covs[low] = (vecs * np.maximum(vals, COV_FLOOR)[..., None, :]) @ vecs.swapaxes(-1, -2)
    return covs


def _component_logpdf(diff, covs, weights, out=None, work=None) -> np.ndarray:
    """(..., k, N) array of log(w_j * N(x | mu_j, cov_j)) from the
    (..., k, D, N) centred points x - mu_j.

    The 1x1/2x2 Cholesky factor L of each covariance, the triangular solve
    z = L^-1 (x - mu) and log|L| are written out elementwise over all
    components at once.  `out` and `work` are optional (..., k, N) arrays;
    the result is written to `out` and `work` is overwritten."""
    D = diff.shape[-2]
    l00 = np.sqrt(covs[..., 0, 0])
    z = np.divide(diff[..., 0, :], l00[..., None], out=work)
    maha = np.square(z, out=out)
    log_det = np.log(l00)
    if D == 2:
        l10 = covs[..., 1, 0] / l00
        l11 = np.sqrt(covs[..., 1, 1] - l10**2)
        np.multiply(l10[..., None], z, out=z)
        np.subtract(diff[..., 1, :], z, out=z)
        np.divide(z, l11[..., None], out=z)
        maha += np.square(z, out=z)
        log_det += np.log(l11)
    const = np.log(np.maximum(weights, 1e-300)) - 0.5 * D * _LOG_2PI - log_det
    maha *= 0.5
    return np.subtract(const[..., None], maha, out=maha)


def _logsumexp(a: np.ndarray, out=None, work=None) -> np.ndarray:
    """log of the sum of exp over the component axis (axis -2).  `out`
    (shape of the result) and `work` (shape of `a`) are optional."""
    mx = np.maximum.reduce(a, axis=-2)
    e = np.subtract(a, mx[..., None, :], out=work)
    s = np.add.reduce(np.exp(e, out=e), axis=-2, out=out)
    np.log(s, out=s)
    s += mx
    return s


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


def fit_gmm(points: np.ndarray, cfg: GmmConfig) -> GmmModel:
    """EM fit with restarts; deterministic given cfg.seed.

    The RESTARTS runs go in lockstep: their weights, means and covariances
    are stacked on a leading restart axis over the one (D, N) point array,
    and a run leaves the stack as soon as it stops.  Each run is seeded,
    stopped and scored as if it ran alone; the best final log-likelihood
    wins, the earliest run on a tie, so a run that would start from an
    earlier run's means is left out."""
    pts_raw = _as_2d(points)
    if not np.isfinite(pts_raw).all():
        raise ConfigurationError("points must be finite (no NaN or inf)")
    if len(pts_raw) < cfg.k:
        raise ConfigurationError(
            f"{len(pts_raw)} points cannot support {cfg.k} components"
        )
    if cfg.k > 1 and np.allclose(pts_raw, pts_raw[0]):
        raise DegenerateDataError("all points identical; cannot fit k > 1 mixture")
    mu0, sd0 = _standardize_params(pts_raw)
    pts = np.ascontiguousarray(((pts_raw - mu0) / sd0).T)
    D, N = pts.shape
    k = cfg.k

    # A run's arithmetic depends on its initial means alone: its weights
    # follow from them, every run starts from the same covariances, and no
    # stack row reads another.  So only the distinct starts are run, in
    # restart order.
    starts = [_init_means(pts, k, np.random.default_rng([cfg.seed, r])) for r in range(RESTARTS)]
    means = np.stack(
        [m for r, m in enumerate(starts) if not any(np.array_equal(m, s) for s in starts[:r])]
    )
    runs = len(means)
    weights = np.empty((runs, k))
    for r in range(runs):
        counts = np.bincount(_nearest(pts, means[r]), minlength=k)
        weights[r] = np.maximum(counts / N, 1.0 / (10 * N))
        weights[r] /= weights[r].sum()
    base_cov = _floor_cov(np.cov(pts, bias=True).reshape(1, D, D))
    covs = np.broadcast_to(base_cov, (runs, k, D, D)).copy()

    # Work arrays; the runs still going fill their leading rows.
    diff = np.empty((runs, k, D, N))
    weighted = np.empty_like(diff)
    joint = np.empty((runs, k, N))
    work = np.empty_like(joint)
    log_norm = np.empty((runs, N))

    active = list(range(runs))  # the run in each stack row
    histories: list[list[float]] = [[] for _ in range(runs)]
    results: dict[int, tuple] = {}
    stopped: list[int] = []  # the stack rows whose run stopped at the last update
    np.subtract(pts, means[..., None], out=diff)
    for it in range(1, MAX_ITER + 2):
        m = len(active)
        _component_logpdf(diff[:m], covs, weights, joint[:m], work[:m])
        _logsumexp(joint[:m], log_norm[:m], work[:m])
        for r, value in zip(active, np.add.reduce(log_norm[:m], axis=-1).tolist()):
            histories[r].append(value)
        if stopped:
            # A run that stopped after the last update has just had its
            # final likelihood computed under that update.
            for row in stopped:
                results[active[row]] = (weights[row].copy(), means[row].copy(), covs[row].copy())
            keep = [row for row in range(m) if row not in stopped]
            if not keep:
                break
            active = [active[row] for row in keep]
            m = len(keep)
            joint[:m] = joint[keep]
            log_norm[:m] = log_norm[keep]
            weights, means, covs = weights[keep], means[keep], covs[keep]
        resp = np.exp(np.subtract(joint[:m], log_norm[:m, None, :], out=joint[:m]), out=joint[:m])
        nk = np.maximum(np.add.reduce(resp, axis=-1), 1e-12)
        weights = nk / N
        means = (resp @ pts.T) / nk[..., None]
        np.subtract(pts, means[..., None], out=diff[:m])
        np.multiply(resp[:, :, None, :], diff[:m], out=weighted[:m])
        covs = _floor_cov(weighted[:m] @ diff[:m].swapaxes(-1, -2) / nk[..., None, None])
        stopped = [
            row
            for row, r in enumerate(active)
            if it == MAX_ITER or (it > 1 and histories[r][-1] - histories[r][-2] < TOL)
        ]

    best = max(range(runs), key=lambda r: histories[r][-1])
    weights, means, covs = results[best]
    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        standardize_mean=mu0,
        standardize_std=sd0,
        ll_history=histories[best],
    )


def _joint(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """(k, N) component log-densities of points given in original units."""
    pts = _as_2d(points)
    if pts.shape[1] != model.dim:
        raise ConfigurationError("dimension mismatch")
    pts = np.ascontiguousarray(((pts - model.standardize_mean) / model.standardize_std).T)
    return _component_logpdf(pts - model.means[:, :, None], model.covariances, model.weights)


def responsibilities(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """(N, k) posterior component probabilities; rows sum to 1."""
    joint = _joint(model, points)
    return np.exp(joint - _logsumexp(joint)).T


def log_likelihood(model: GmmModel, points: np.ndarray) -> float:
    """Sum of log mixture densities (in the model's standardized space),
    computed with log-sum-exp."""
    return float(_logsumexp(_joint(model, points)).sum())
