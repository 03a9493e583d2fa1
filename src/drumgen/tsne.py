"""Exact t-SNE for small point sets (tens of pieces, no tree approximation).

Per-point Gaussian bandwidths are calibrated by binary search to a target
perplexity; the 2-D map is fit by gradient descent with momentum and a
short early-exaggeration phase. Inputs are z-scored first and rows are
processed in a canonical order so the embedding is independent of input
ordering.
"""

from dataclasses import dataclass, field

import numpy as np

PERPLEXITY_TOL = 1e-3
MAX_CALIBRATION_ITERS = 50
EARLY_EXAGGERATION = 4.0
LEARNING_RATE = 100.0
EXAGGERATION_ITERS = 50
MOMENTUM_SWITCH_ITER = 250
_EPS = 1e-12


@dataclass
class Embedding2D:
    coords: np.ndarray
    perplexity: float
    iterations: int
    kl: float
    kl_history: list = field(default_factory=list)


def _pairwise_sq_dists(X):
    sq = (X * X).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * X @ X.T
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def conditional_probabilities(X, perplexity):
    """Row-stochastic affinities P[i, j] = p(j|i) with per-row bandwidth
    chosen so each row's perplexity matches the target within 1e-3."""
    n = len(X)
    d = _pairwise_sq_dists(X)
    P = np.zeros((n, n))
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        di = d[i][others[i]]
        beta, lo, hi = 1.0, 0.0, np.inf
        p = np.full(n - 1, 1.0 / (n - 1))
        for _ in range(MAX_CALIBRATION_ITERS):
            w = np.exp(-di * beta)
            total = w.sum()
            if total <= 0:  # bandwidth overshot into underflow
                hi = beta
                beta = (lo + hi) / 2.0
                continue
            p = w / total
            entropy = -(p * np.log(np.maximum(p, _EPS))).sum()
            perp = np.exp(entropy)
            if abs(perp - perplexity) <= PERPLEXITY_TOL:
                break
            if perp > perplexity:  # too flat: sharpen
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (lo + hi) / 2.0
            else:
                hi = beta
                beta = (lo + hi) / 2.0
        P[i][others[i]] = p
    return P


def _kl_divergence(P, Q):
    mask = P > 0
    return float((P[mask] * np.log(P[mask] / np.maximum(Q[mask], _EPS))).sum())


def tsne_embed(vectors, perplexity=5.0, iterations=500, rng=None):
    """Embed feature vectors into 2-D; returns Embedding2D with the final
    KL divergence and its per-iteration history."""
    X = np.asarray(vectors, dtype=np.float64)
    n = len(X)
    if n < 3:
        raise ValueError(f"t-SNE needs at least 3 points, got {n}")
    if not (np.isfinite(perplexity) and perplexity > 0):
        raise ValueError(f"perplexity must be positive and finite, got {perplexity}")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if perplexity >= n:
        raise ValueError(f"perplexity {perplexity} must be below point count {n}")
    if rng is None:
        rng = np.random.default_rng(0)

    # canonical row order -> embedding is invariant to input permutation
    order = np.lexsort(X.T[::-1])
    inverse = np.argsort(order)
    Xc = X[order]

    sd = Xc.std(axis=0)
    keep = sd > 0
    Z = (Xc[:, keep] - Xc[:, keep].mean(axis=0)) / sd[keep]

    Pc = conditional_probabilities(Z, perplexity)
    P = (Pc + Pc.T) / (2.0 * n)

    Y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_history = []
    for it in range(iterations):
        work_P = P * EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else P
        momentum = 0.5 if it < MOMENTUM_SWITCH_ITER else 0.8

        inv_dist = 1.0 / (1.0 + _pairwise_sq_dists(Y))
        np.fill_diagonal(inv_dist, 0.0)
        Q = inv_dist / inv_dist.sum()

        # learning rate follows the classic formulation where the constant
        # factor of the exact gradient is folded into it
        coeff = (work_P - Q) * inv_dist
        grad = (np.diag(coeff.sum(axis=1)) - coeff) @ Y

        # per-coordinate adaptive gains keep lr 100 stable
        gains = np.where((grad > 0) != (velocity > 0), gains + 0.2, gains * 0.8)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - LEARNING_RATE * gains * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        kl_history.append(_kl_divergence(P, Q))

    inv_dist = 1.0 / (1.0 + _pairwise_sq_dists(Y))
    np.fill_diagonal(inv_dist, 0.0)
    final_kl = _kl_divergence(P, inv_dist / inv_dist.sum())

    return Embedding2D(Y[inverse], float(perplexity), iterations,
                       final_kl, kl_history)
