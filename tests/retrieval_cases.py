"""Retrieval inputs that stress the exact ranking of ``evaluation.retrieval_recall``
and the bound of ``gaussians.LogAffinityPairs``: exact ties, S exactly 0, a
tight bound, floored variances, means from 1e-4 to 1e3, and K up to the
gallery size.

Ties must be ties for every kind, cosine and csd included, whose blocks of
rows go through a matmul that may round differently from the whole matrix's.
So the tie cases draw their means from unit vectors with four entries of
+-1/2: every product, sum and norm is exact whatever order BLAS adds in.
"""

import numpy as np

D = 8


def _unit_rows(rng, n, d=D):
    """Rows with four entries of +-1/2 and the rest 0: norm exactly 1."""
    mu = np.zeros((n, d))
    for row in mu:
        row[rng.choice(d, size=4, replace=False)] = rng.choice([-0.5, 0.5], size=4)
    return mu


def cases() -> dict:
    """``{name: (mu_q, lv_q, mu_g, lv_g, ground_truth, ks)}``."""
    rng = np.random.default_rng(2024)
    out = {}

    mu_q, lv_q = rng.normal(size=(40, D)), rng.uniform(-2, 1, (40, D))
    mu_g, lv_g = mu_q + 0.7 * rng.normal(size=(40, D)), rng.uniform(-2, 1, (40, D))
    out["random"] = (mu_q, lv_q, mu_g, lv_g, np.arange(40), (1, 5, 10))

    # Gallery rows repeat 8 distinct items; queries are some of those items.
    items, item_lv = _unit_rows(rng, 8), rng.integers(-2, 2, (8, D)).astype(float)
    pick, ask = rng.integers(0, 8, size=30), rng.integers(0, 8, size=25)
    out["duplicated-gallery"] = (
        items[ask], item_lv[ask], items[pick], item_lv[pick], rng.integers(0, 30, size=25), (1, 2, 5)
    )

    # Each item twice in the gallery and once as a query, matched to either copy:
    # the match's S is exactly 0 and so is its twin's.
    mu, lv = _unit_rows(rng, 12), rng.integers(-2, 2, (12, D)).astype(float)
    twice = np.r_[np.arange(12), np.arange(12)]
    gt = np.where(rng.random(12) < 0.5, np.arange(12), np.arange(12) + 12)
    out["identical-pairs"] = (mu, lv, mu[twice], lv[twice], gt, (1, 2, 3))

    # One variance everywhere, where the bound is tightest.
    mu_q, mu_g = rng.normal(size=(30, D)), rng.normal(size=(35, D))
    out["constant-variances"] = (mu_q, np.full((30, D), -0.5), mu_g, np.full((35, D), -0.5), np.arange(30), (1, 5))

    # Variances at the floor, 1/4 sum ln va about -221 at d = 32, and means
    # small enough that S is not saturated; then half the rows floored.
    d = 32
    mu_q = 1e-6 * rng.normal(size=(30, d))
    mu_g = mu_q + 5e-7 * rng.normal(size=(30, d))
    floored = np.full((30, d), -60.0)
    out["floored-variances"] = (mu_q, floored, mu_g, floored.copy(), np.arange(30), (1, 5))
    mixed = floored.copy()
    mixed[::2] = rng.uniform(-1, 0, (15, d))
    out["half-floored"] = (mu_q, mixed, mu_g, mixed[::-1].copy(), np.arange(30), (1, 5))

    # Means from 1e-4 to 1e3: one scale per case, then every row its own.
    for scale in (1e-4, 1.0, 1e3):
        mu_q = scale * rng.normal(size=(30, D))
        mu_g = mu_q + 0.5 * scale * rng.normal(size=(30, D))
        out[f"scale-{scale:g}"] = (mu_q, rng.uniform(-1, 1, (30, D)), mu_g, rng.uniform(-1, 1, (30, D)), np.arange(30), (1, 5))
    scales = np.logspace(-4, 3, 30)[:, None]
    mu_q = scales * rng.normal(size=(30, D))
    mu_g = mu_q + 0.3 * scales[::-1] * rng.normal(size=(30, D))
    out["mixed-scales"] = (mu_q, rng.uniform(-1, 1, (30, D)), mu_g, rng.uniform(-1, 1, (30, D)), np.arange(30), (1, 5))

    # Saturated Hellinger: far-apart means give similarity 0 to every pair,
    # so each rank is 1 + the count of gallery items before the match.
    mu_q = 1e3 * rng.normal(size=(25, D))
    mu_g = 1e3 * rng.normal(size=(30, D))
    out["saturated"] = (mu_q, np.zeros((25, D)), mu_g, np.zeros((30, D)), rng.integers(0, 30, size=25), (1, 3, 10))

    mu_q, lv_q = rng.normal(size=(20, D)), rng.uniform(-1, 1, (20, D))
    mu_g, lv_g = mu_q + rng.normal(size=(20, D)), rng.uniform(-1, 1, (20, D))
    out["k-up-to-gallery"] = (mu_q, lv_q, mu_g, lv_g, np.arange(20), (1, 2, 19, 20))
    return out
