"""Diagonal-Gaussian embeddings and closed-form similarities between them.

An embedding is a distribution N(mu, diag(sigma^2)) over the shared latent
space, parameterized by ``mu`` and ``log_var`` vectors of equal length. The
squared Hellinger distance between two such Gaussians factorizes over
dimensions; it is evaluated as a sum of per-dimension log terms with a single
final exp so the product cannot underflow at large D:

    H^2 = 1 - exp( sum_o [ 0.5*ln(2*sa*sb/(sa^2+sb^2))
                           - (mua-mub)^2 / (4*(sa^2+sb^2)) ] )

The similarity used for ranking and contrastive training is 1 - sqrt(H^2),
which is symmetric and bounded in [0, 1]. Bhattacharyya distance, the expected
squared Euclidean distance between independent samples ("csd"), and plain
cosine on the means are provided as alternatives.

The scalar functions evaluate one pair and serve as the reference the oracles
check. Batches go through one kernel per formula, shared by evaluation and
training. Hellinger and Bhattacharyya are both functions of the summed log
Bhattacharyya coefficient S (the exponent above): the Bhattacharyya
similarity is -D_B = S and the Hellinger similarity is 1 - sqrt(1 - e^S).
``_log_affinity`` computes S in blocks of rows of at most ``AFFINITY_TERMS``
(row, column, dimension) terms and, for evaluation, finishes each block into
S as soon as it is reduced, so S is the only |A| x |B| array it allocates.
``_csd_distance`` computes csd in the closed form of PCME++ through one
matmul. ``pairwise_similarity_arrays`` finishes those arrays with numpy for
evaluation, and ``pairwise_similarity_graph`` wraps each in one
:mod:`probalign.autodiff` node with an analytic backward for training, so the
two routes share their forward values. ``LogAffinityPairs`` is the pairs
entry of the same per-term code, for retrieval: it scores chosen pairs, equal
to the matrix's entries bit for bit, and bounds whole rows of S from above,
so a ranking can skip the pairs that cannot outrank its match.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Variance floor applied inside distance computations only; keeps pathological
# inputs (log_var -> -inf) from dividing by zero. The clamp gradient is zero
# only at the floor itself.
VAR_FLOOR = 1e-12

# Floor under H^2 before the sqrt in the training path; sqrt'(0) is unbounded.
_H2_FLOOR = 1e-12

# Terms (rows x |B| x D) per block of the log-affinity kernel: 256 KiB per
# float64 block buffer, so the kernel's two buffers fit one core's L2 cache.
# No result depends on it.
AFFINITY_TERMS = 32768


class SimilarityKind(str, Enum):
    """Which similarity ranks/aligns embedding pairs."""

    COSINE = "cosine"
    HELLINGER = "hellinger"
    BHATTACHARYYA = "bhattacharyya"
    CSD = "csd"


@dataclass
class GaussianEmbedding:
    """One embedding: mean vector and per-dimension log-variance."""

    mu: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.log_var = np.asarray(self.log_var, dtype=np.float64)
        if self.mu.ndim != 1 or self.log_var.ndim != 1:
            raise ValueError("GaussianEmbedding fields must be 1-D vectors")
        if self.mu.shape != self.log_var.shape:
            raise ValueError(
                f"mu and log_var lengths differ: {self.mu.shape[0]} vs {self.log_var.shape[0]}"
            )
        if not (np.isfinite(self.mu).all() and np.isfinite(self.log_var).all()):
            raise ValueError("GaussianEmbedding entries must be finite")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def var(self) -> np.ndarray:
        return np.exp(self.log_var)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianEmbedding)
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.log_var, other.log_var)
        )


def _check_dims(op: str, a: GaussianEmbedding, b: GaussianEmbedding) -> None:
    if a.dim != b.dim:
        raise ValueError(f"{op}: embedding dimensions differ ({a.dim} vs {b.dim})")


# -- scalar similarities (numpy route) ---------------------------------------


def _log_overlap(a: GaussianEmbedding, b: GaussianEmbedding) -> float:
    """Sum over dimensions of the log Hellinger-affinity terms (<= 0).

    The per-dimension ratio 2*sa*sb/(sa^2+sb^2) is formed before taking the
    log: it is bitwise symmetric in (a, b) and exactly 1 when the variances
    match (sqrt(x*x) == x in correctly-rounded IEEE-754), so identical
    distributions come out at exactly zero distance.
    """
    va = np.maximum(a.var, VAR_FLOOR)
    vb = np.maximum(b.var, VAR_FLOOR)
    s2 = va + vb
    log_term = 0.5 * np.log(2.0 * np.sqrt(va * vb) / s2)
    quad = (a.mu - b.mu) ** 2 / (4.0 * s2)
    return float(np.sum(log_term - quad))


def hellinger_sq(a: GaussianEmbedding, b: GaussianEmbedding) -> float:
    """Squared Hellinger distance in [0, 1]; 0 iff the distributions match."""
    _check_dims("hellinger_sq", a, b)
    return max(0.0, 1.0 - float(np.exp(_log_overlap(a, b))))


def hellinger_similarity(a: GaussianEmbedding, b: GaussianEmbedding) -> float:
    """1 - sqrt(H^2): a bounded, symmetric similarity with self-similarity 1."""
    return 1.0 - float(np.sqrt(hellinger_sq(a, b)))


def bhattacharyya_distance(a: GaussianEmbedding, b: GaussianEmbedding) -> float:
    """Closed-form Bhattacharyya distance between diagonal Gaussians (>= 0)."""
    _check_dims("bhattacharyya_distance", a, b)
    va = np.maximum(a.var, VAR_FLOOR)
    vb = np.maximum(b.var, VAR_FLOOR)
    s2 = va + vb
    quad = (a.mu - b.mu) ** 2 / (4.0 * s2)
    # ln( (s2/2) / (sa*sb) ), arranged independently of the Hellinger route so
    # the H^2 = 1 - exp(-D_B) identity is a genuine cross-check; exactly zero
    # per dimension when the variances match.
    log_ratio = np.log(0.5 * s2 / np.sqrt(va * vb))
    return float(np.sum(quad + 0.5 * log_ratio))


def csd(a: GaussianEmbedding, b: GaussianEmbedding) -> float:
    """Expected squared Euclidean distance between independent samples."""
    _check_dims("csd", a, b)
    diff = a.mu - b.mu
    return float(diff @ diff + np.sum(a.var + b.var))


def cosine_mu(a: GaussianEmbedding, b: GaussianEmbedding) -> float:
    """Cosine similarity of the means, ignoring the variances."""
    _check_dims("cosine_mu", a, b)
    na = float(np.linalg.norm(a.mu))
    nb = float(np.linalg.norm(b.mu))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_mu: zero-norm mean vector")
    return float(a.mu @ b.mu) / (na * nb)


def sample(e: GaussianEmbedding, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n reparameterized samples z = mu + sigma * eps, eps ~ N(0, I)."""
    if n < 1:
        raise ValueError("sample: n must be >= 1")
    sigma = np.exp(0.5 * e.log_var)
    eps = rng.standard_normal((n, e.dim))
    return e.mu + sigma * eps


# -- batched similarities (shared kernels, numpy route) -------------------------


def _variances(log_var: np.ndarray) -> np.ndarray:
    return np.maximum(np.exp(log_var), VAR_FLOOR)


def _row_terms(log_var: np.ndarray) -> np.ndarray:
    """1/4 sum_o ln var_o of each row: the separable part of S."""
    return 0.25 * np.einsum("io->i", log_var)


def _sum_terms(m, dm, log_m, quad, log_sum, quad_sum) -> None:
    """S's per-dimension terms, summed over the last axis: log_sum = sum ln m and
    quad_sum = sum dm^2 / m, from m = half_a + half_b and dm = mu_a - mu_b.

    Fills log_m = ln m and quad = dm^2 / m on the way; they may be ``m`` and
    ``dm`` themselves when the terms need not be kept. The matrix kernel and
    the pairs entry both go through here, so a pair gets the same bits
    whichever computes it.
    """
    np.multiply(dm, dm, out=quad)
    np.divide(quad, m, out=quad)
    np.log(m, out=log_m)
    np.einsum("...o->...", log_m, out=log_sum)
    np.einsum("...o->...", quad, out=quad_sum)


def _finish_log_affinity(log_sum, quad_sum, row_a, row_b) -> None:
    """S = -1/2 log_sum + row_a + row_b - 1/8 quad_sum, in place in ``log_sum``."""
    log_sum *= -0.5
    log_sum += row_a
    log_sum += row_b
    quad_sum *= 0.125
    log_sum -= quad_sum


def _hellinger_from_log_affinity(out: np.ndarray) -> None:
    """1 - sqrt(H^2) with H^2 = max(1 - e^S, 0), in place; nondecreasing in S."""
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.subtract(1.0, out, out=out)


def _log_affinity(
    mu_a: np.ndarray,
    va: np.ndarray,
    mu_b: np.ndarray,
    vb: np.ndarray,
    keep_terms: bool = False,
):
    """|A| x |B| matrix S of summed log Bhattacharyya coefficients (<= 0).

    With the per-dimension mean variance m = (va + vb) / 2,

        S_ij = 1/4 sum ln va_i + 1/4 sum ln vb_j
               - 1/2 sum ln m_ij - 1/8 sum (mua_i - mub_j)^2 / m_ij

    The first two sums are separable and formed once per call, so each pair
    costs one log and one divide per dimension. Rows of A go through
    (rows, |B|, D) blocks of at most AFFINITY_TERMS terms, or of one row when
    a row alone holds more, which keeps both block buffers in cache. When a row of A equals a row of B, m equals their
    variance bit for bit and every term is a power-of-two multiple of one
    sum, so S is exactly 0.

    By default each block is finished into S as soon as its two sums are
    reduced, so the quadratic sum lives only in a (rows, |B|) scratch and S
    is the only |A| x |B| array allocated. With ``keep_terms`` the blocks
    fill whole (|A|, |B|, D) arrays m and mua - mub, which are returned after
    S for a backward pass to reuse, and S is finished once over the whole
    matrix. Nothing else holds the two term arrays, so the caller owns them:
    :func:`_log_affinity_op`'s backward overwrites them. Both routes apply the
    same operations to each entry in the same order, so S is the same bit for
    bit, whatever the block size.
    """
    n, d = mu_a.shape
    cols = mu_b.shape[0]
    half_a, half_b = 0.5 * va, 0.5 * vb
    row_a, row_b = _row_terms(np.log(va)), _row_terms(np.log(vb))
    rows = max(1, min(n, AFFINITY_TERMS // max(1, cols * d)))
    block = (rows, cols, d)
    log_sum = np.empty((n, cols))
    quad_sum = np.empty((n if keep_terms else rows, cols))
    # keep_terms stays a route of its own because the training backward reuses the (A, B, D)
    # terms. Recomputing them in the vjp instead gave the same bytes but cost about 0.4 ms
    # per training step at batch 64 (step p50 5.55 -> 5.93 ms, 2 vCPUs).
    mean_var = np.empty((n, cols, d) if keep_terms else block)
    diff = np.empty_like(mean_var)
    log_m, quad = (np.empty(block), np.empty(block)) if keep_terms else (mean_var, diff)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        at = slice(start, stop) if keep_terms else slice(0, stop - start)
        m, dm = mean_var[at], diff[at]
        np.add(half_a[start:stop, None, :], half_b[None, :, :], out=m)
        np.subtract(mu_a[start:stop, None, :], mu_b[None, :, :], out=dm)
        _sum_terms(m, dm, log_m[: stop - start], quad[: stop - start], log_sum[start:stop], quad_sum[at])
        if not keep_terms:
            _finish_log_affinity(log_sum[start:stop], quad_sum[at], row_a[start:stop, None], row_b)
    if keep_terms:
        _finish_log_affinity(log_sum, quad_sum, row_a[:, None], row_b)
        return log_sum, mean_var, diff
    return log_sum


def _csd_distance(mu_a: np.ndarray, va: np.ndarray, mu_b: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """|A| x |B| expected squared distances, in the closed form of PCME++:

        csd_ij = |mua_i|^2 + |mub_j|^2 - 2 mua_i . mub_j + sum va_i + sum vb_j
    """
    out = ad.matmul_values(mu_a, mu_b.T)
    out *= -2.0
    out += (np.einsum("ij,ij->i", mu_a, mu_a) + va.sum(axis=1))[:, None]
    out += (np.einsum("ij,ij->i", mu_b, mu_b) + vb.sum(axis=1))[None, :]
    return out


def pairwise_similarity_arrays(
    mu_a: np.ndarray,
    lv_a: np.ndarray,
    mu_b: np.ndarray,
    lv_b: np.ndarray,
    kind: SimilarityKind,
) -> np.ndarray:
    """|A| x |B| similarity matrix from stacked parameters.

    For the distance-valued kinds (csd, bhattacharyya) the negated distance is
    returned so that larger always means more similar.
    """
    if mu_a.shape[1] != mu_b.shape[1]:
        raise ValueError(
            f"pairwise_similarity_arrays: embedding dimensions differ ({mu_a.shape[1]} vs {mu_b.shape[1]})"
        )
    kind = SimilarityKind(kind)
    if kind is SimilarityKind.COSINE:
        norms_a = np.linalg.norm(mu_a, axis=1, keepdims=True)
        norms_b = np.linalg.norm(mu_b, axis=1, keepdims=True)
        if np.any(norms_a == 0.0) or np.any(norms_b == 0.0):
            raise ValueError("pairwise_similarity_arrays: zero-norm mean vector under cosine")
        return ad.matmul_values(mu_a / norms_a, (mu_b / norms_b).T)

    va, vb = _variances(lv_a), _variances(lv_b)
    if kind is SimilarityKind.CSD:
        out = _csd_distance(mu_a, va, mu_b, vb)
        np.negative(out, out=out)
        return out
    out = _log_affinity(mu_a, va, mu_b, vb)
    if kind is SimilarityKind.HELLINGER:
        _hellinger_from_log_affinity(out)
    return out


class _Rows(NamedTuple):
    """Per-row operands of one side of :class:`LogAffinityPairs`."""

    mu: np.ndarray
    half: np.ndarray  # half the floored variance, as _log_affinity adds it
    row: np.ndarray  # 1/4 sum ln var, as _log_affinity forms it
    scaled_norm2: np.ndarray  # -(1 - 4 tol) |mu|^2
    spread: np.ndarray  # 4 max_o var_o
    slack: np.ndarray  # tol sum |ln var|, plus tol on one side


class LogAffinityPairs:
    """Hellinger or Bhattacharyya similarities of chosen (a_i, b_j) pairs, and
    upper bounds on whole rows of them, without the |A| x |B| matrix.

    ``similarity(rows, cols)`` scores the pairs (rows[p], cols[p]) through the
    per-term code of :func:`_log_affinity`, ``chunk`` pairs (at most
    AFFINITY_TERMS terms) at a time, so each value is the matching entry of
    :func:`pairwise_similarity_arrays` bit for bit.

    ``bound(block)`` is at least the similarity that ``similarity`` computes
    for every pair of the rows in ``block``. It rests on

        S_ij <= U_ij = -|mua_i - mub_j|^2 / (4 (max_o va_io + max_o vb_jo)),

    as the log terms sum to at most 0 (AM-GM) and no m_o exceeds half the
    denominator's sum. |mua_i - mub_j|^2 comes from one
    :func:`~probalign.autodiff.matmul_values`. A margin covers the rounding of
    S and of U, with tol = 8 eps (d + 8):

        tol (4 (|mua_i|^2 + |mub_j|^2) / (4 (max va + max vb)) + 1 + sum |ln va_i| + sum |ln vb_j|),

    several times the worst-case error of the sums of d terms. U plus the
    margin then goes through the kind's similarity, nondecreasing in S.
    """

    def __init__(self, mu_a, lv_a, mu_b, lv_b, kind: SimilarityKind):
        kind = SimilarityKind(kind)
        if kind not in (SimilarityKind.HELLINGER, SimilarityKind.BHATTACHARYYA):
            raise ValueError(f"LogAffinityPairs: {kind.value} is not a log-affinity similarity")
        self.kind = kind
        d = mu_a.shape[1]
        self.tol = 8.0 * np.finfo(np.float64).eps * (d + 8)
        self.chunk = max(1, AFFINITY_TERMS // max(1, d))
        self.a, self.b = self._rows(mu_a, lv_a, 1.0), self._rows(mu_b, lv_b, 0.0)

    def _rows(self, mu, lv, slack) -> _Rows:
        var = _variances(lv)
        log_var = np.log(var)
        return _Rows(
            mu,
            0.5 * var,
            _row_terms(log_var),
            (4.0 * self.tol - 1.0) * np.einsum("io,io->i", mu, mu),
            4.0 * var.max(axis=1),
            self.tol * (slack + np.abs(log_var).sum(axis=1)),
        )

    def similarity(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        out = np.empty(len(rows))
        m, dm, other = (np.empty((min(self.chunk, len(rows)), a.mu.shape[1])) for _ in range(3))
        quad_sum = np.empty(len(m))
        for start in range(0, len(rows), self.chunk):
            r, c = rows[start : start + self.chunk], cols[start : start + self.chunk]
            k, s = len(r), out[start : start + self.chunk]
            # m = half_a + half_b and dm = mu_a - mu_b as in _log_affinity, on gathered rows.
            np.take(a.half, r, axis=0, out=m[:k], mode="clip")
            np.add(m[:k], np.take(b.half, c, axis=0, out=other[:k], mode="clip"), out=m[:k])
            np.take(a.mu, r, axis=0, out=dm[:k], mode="clip")
            np.subtract(dm[:k], np.take(b.mu, c, axis=0, out=other[:k], mode="clip"), out=dm[:k])
            _sum_terms(m[:k], dm[:k], m[:k], dm[:k], s, quad_sum[:k])
            _finish_log_affinity(s, quad_sum[:k], a.row[r], b.row[c])
        if self.kind is SimilarityKind.HELLINGER:
            _hellinger_from_log_affinity(out)
        return out

    def bound(self, block: slice) -> np.ndarray:
        a, b = self.a, self.b
        # 2 mua.mub - (1 - 4 tol)(|mua|^2 + |mub|^2) = 4 tol (|mua|^2 + |mub|^2) - |mua - mub|^2
        out = ad.matmul_values(2.0 * a.mu[block], b.mu.T)
        out += a.scaled_norm2[block, None]
        out += b.scaled_norm2[None, :]
        out /= np.add(a.spread[block, None], b.spread[None, :])
        out += a.slack[block, None]
        out += b.slack[None, :]
        if self.kind is SimilarityKind.HELLINGER:
            # Every S >= 0 maps to similarity 1; clipping keeps e^S finite.
            np.minimum(out, 0.0, out=out)
            _hellinger_from_log_affinity(out)
        return out


# -- batched similarities (autodiff route) -------------------------------------


@dataclass
class GaussianBatch:
    """A batch of embeddings as (N, D) tensors, usable in loss graphs."""

    mu: Tensor
    log_var: Tensor

    def __post_init__(self):
        # Raw arrays become trainable leaves, so a batch built from arrays
        # has gradients to read.
        self.mu = self.mu if isinstance(self.mu, Tensor) else Tensor(self.mu)
        self.log_var = self.log_var if isinstance(self.log_var, Tensor) else Tensor(self.log_var)
        if self.mu.shape != self.log_var.shape or len(self.mu.shape) != 2:
            raise ValueError(
                f"GaussianBatch: mu and log_var must both be (N, D), got {self.mu.shape} and {self.log_var.shape}"
            )

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


def _variance_grad(var: np.ndarray) -> np.ndarray:
    """d var / d log_var of the floored variance: zero where exp(lv) <= VAR_FLOOR."""
    return np.where(var > VAR_FLOOR, var, 0.0)


def _log_affinity_op(a: GaussianBatch, b: GaussianBatch) -> Tensor:
    """S of :func:`_log_affinity` as one node whose backward runs once.

    The backward works in the forward's (A, B, D) terms m and mua - mub,
    overwriting them, so a training step's backward allocates no (A, B, D)
    array. A second backward through the node raises RuntimeError: its terms
    are gone.
    """
    va, vb = _variances(a.log_var.data), _variances(b.log_var.data)
    value, m, dm = _log_affinity(a.mu.data, va, b.mu.data, vb, keep_terms=True)
    spent = False

    def vjp(g):
        # With r = (mua - mub) / m:  dS/dmua = -r/4,  dS/dmub = r/4,
        # dS/dva = 1/(4 va) + (r^2 - 4/m)/16, and likewise for vb.
        nonlocal spent
        if spent:
            raise RuntimeError("log-affinity backward runs once: the first overwrote the forward's terms")
        spent = True
        r = np.divide(dm, m, out=dm)
        four_over_m = np.divide(4.0, m, out=m)
        g_r_a, g_r_b = np.einsum("ij,ijo->io", g, r), np.einsum("ij,ijo->jo", g, r)
        w = np.multiply(r, r, out=r)
        w -= four_over_m
        g_w_a, g_w_b = np.einsum("ij,ijo->io", g, w), np.einsum("ij,ijo->jo", g, w)
        live_a, live_b = _variance_grad(va), _variance_grad(vb)
        grad_lv_a = live_a * (0.25 * g.sum(axis=1)[:, None] / va + g_w_a / 16.0)
        grad_lv_b = live_b * (0.25 * g.sum(axis=0)[:, None] / vb + g_w_b / 16.0)
        return -0.25 * g_r_a, grad_lv_a, 0.25 * g_r_b, grad_lv_b

    return ad.custom(value, (a.mu, a.log_var, b.mu, b.log_var), vjp)


def _csd_op(a: GaussianBatch, b: GaussianBatch) -> Tensor:
    """-csd of :func:`_csd_distance` as one node with a matmul backward."""
    mu_a, mu_b = a.mu.data, b.mu.data
    va, vb = _variances(a.log_var.data), _variances(b.log_var.data)

    def vjp(g):
        rows, cols = g.sum(axis=1)[:, None], g.sum(axis=0)[:, None]
        return (
            -2.0 * (rows * mu_a - g @ mu_b),
            -rows * _variance_grad(va),
            -2.0 * (cols * mu_b - g.T @ mu_a),
            -cols * _variance_grad(vb),
        )

    value = _csd_distance(mu_a, va, mu_b, vb)
    np.negative(value, out=value)
    return ad.custom(value, (a.mu, a.log_var, b.mu, b.log_var), vjp)


def pairwise_similarity_graph(a: GaussianBatch, b: GaussianBatch, kind: SimilarityKind) -> Tensor:
    """Differentiable |A| x |B| similarity matrix (distances negated).

    Forward values equal :func:`pairwise_similarity_arrays`, except that the
    Hellinger route floors H^2 at _H2_FLOOR before the sqrt, where its
    gradient is zero. The variance gradient is zero where
    exp(log_var) <= VAR_FLOOR.
    """
    if a.dim != b.dim:
        raise ValueError(f"pairwise_similarity_graph: embedding dimensions differ ({a.dim} vs {b.dim})")
    kind = SimilarityKind(kind)
    if kind is SimilarityKind.COSINE:
        return ad.matmul(ad.l2_normalize(a.mu), ad.transpose(ad.l2_normalize(b.mu)))
    if kind is SimilarityKind.CSD:
        return _csd_op(a, b)
    log_affinity = _log_affinity_op(a, b)
    if kind is SimilarityKind.BHATTACHARYYA:
        return log_affinity
    h2 = 1.0 - ad.exp(log_affinity)
    return 1.0 - ad.sqrt(ad.clamp_min(h2, _H2_FLOOR))
