import numpy as np
import numpy.testing as npt
import pytest

from drumgen.tsne import conditional_probabilities, tsne_embed


def three_clusters(rng, points_per_cluster=10, dim=14, spread=0.1, sep=10.0):
    # equilateral triangle of centers, pairwise `sep` apart, rotated into a
    # random dense orientation so no feature dimension is pure noise
    tri = np.array([[0.0, 0.0],
                    [sep, 0.0],
                    [sep / 2, sep * np.sqrt(3) / 2]])
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    centers = tri @ basis.T
    X = np.concatenate([c + rng.normal(scale=spread, size=(points_per_cluster, dim))
                        for c in centers])
    labels = np.repeat(np.arange(3), points_per_cluster)
    return X, labels


def knn_purity(coords, labels, k=3):
    hits = 0
    d = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    for i in range(len(coords)):
        nn = np.argsort(d[i])[:k]
        hits += (labels[nn] == labels[i]).sum()
    return hits / (k * len(coords))


def test_conditional_rows_sum_to_one():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 5))
    P = conditional_probabilities(X, 4.0)
    npt.assert_allclose(P.sum(axis=1), np.ones(12), atol=1e-9)
    assert np.all(np.diag(P) == 0.0)


def test_perplexity_calibration_within_tolerance():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 6))
    P = conditional_probabilities(X, 7.0)
    for i in range(20):
        row = P[i][P[i] > 0]
        perp = np.exp(-(row * np.log(row)).sum())
        assert abs(perp - 7.0) <= 1e-3


def test_symmetrized_joint_sums_to_one():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(9, 4))
    Pc = conditional_probabilities(X, 3.0)
    P = (Pc + Pc.T) / (2 * 9)
    npt.assert_allclose(P.sum(), 1.0, atol=1e-9)


def test_identical_points_stay_closest():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 6)) * 3
    X[7] = X[2]  # duplicate pair
    emb = tsne_embed(X, perplexity=4, iterations=300, rng=np.random.default_rng(0))
    d = ((emb.coords[:, None] - emb.coords[None]) ** 2).sum(-1)
    iu = np.triu_indices(15, 1)
    pair_rank = (d[iu] < d[2, 7]).mean()
    assert pair_rank <= 0.01  # among the very closest of all pairs


def test_cluster_benchmark_purity():
    X, labels = three_clusters(np.random.default_rng(5))
    emb = tsne_embed(X, perplexity=5, iterations=500, rng=np.random.default_rng(7))
    assert knn_purity(emb.coords, labels) >= 0.9
    assert np.all(np.isfinite(emb.coords))


def test_kl_finite_and_trending_down():
    X, _ = three_clusters(np.random.default_rng(8), points_per_cluster=8)
    emb = tsne_embed(X, perplexity=5, iterations=400, rng=np.random.default_rng(9))
    kl = np.array(emb.kl_history)
    assert np.all(np.isfinite(kl))
    # min over a trailing window keeps decreasing after early exaggeration
    for a in range(50, len(kl) - 100, 50):
        assert kl[a + 100:].min() <= kl[a:a + 100].min() + 1e-9
    assert emb.kl == pytest.approx(kl[-1], abs=1e-6) or emb.kl <= kl.min() + 1.0


def test_embedding_invariant_to_input_order():
    X, _ = three_clusters(np.random.default_rng(10), points_per_cluster=5, dim=6)
    rng_seed = 11
    emb = tsne_embed(X, perplexity=4, iterations=200,
                     rng=np.random.default_rng(rng_seed))
    perm = np.random.default_rng(12).permutation(len(X))
    emb_p = tsne_embed(X[perm], perplexity=4, iterations=200,
                       rng=np.random.default_rng(rng_seed))
    npt.assert_allclose(emb_p.coords[np.argsort(perm)][perm], emb_p.coords)
    npt.assert_array_equal(emb_p.coords, emb.coords[perm])


def test_constant_features_are_dropped():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(10, 4))
    X_padded = np.concatenate([X, np.full((10, 3), 2.5)], axis=1)
    e1 = tsne_embed(X, perplexity=3, iterations=100, rng=np.random.default_rng(1))
    e2 = tsne_embed(X_padded, perplexity=3, iterations=100,
                    rng=np.random.default_rng(1))
    npt.assert_array_equal(e1.coords, e2.coords)


def test_input_validation():
    with pytest.raises(ValueError, match="3 points"):
        tsne_embed(np.zeros((2, 4)), perplexity=1)
    for perplexity in (5, float("nan"), 0, -1):
        with pytest.raises(ValueError, match="perplexity"):
            tsne_embed(np.random.default_rng(0).normal(size=(5, 3)),
                       perplexity=perplexity)
    for iterations in (0, -5):
        with pytest.raises(ValueError, match="iterations"):
            tsne_embed(np.random.default_rng(0).normal(size=(5, 3)), perplexity=2,
                       iterations=iterations)
