"""Statistical checks for a shared resolution direction in feature space.

Three analyses, each applied per LR rate:

* split-cosine: cosine similarity between the average HR-LR difference
  vectors of two disjoint identity halves;
* regularized CCA between paired HR/LR matrices, against a random-matrix
  baseline of the same shape;
* grouped Pearson correlation of group-mean difference vectors against the
  global mean shift.

All three walk the aligned lists of ``EmbeddingSet.paired_rows([rate])``,
the pairing that training uses too: the sorted identities with both HR and
LR-at-rate samples and, for each, the row indices of its HR and of its LR
samples in record order.  Means are ``matrix[rows].mean(axis=0)``; HR/LR
pairs take the first min(#HR, #LR) rows of an identity on each side.
The set keeps each rate's pairing, so ``analyze_set`` builds it once for all
three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, check_lr_rates, rate_tag
from .errors import DataError

# grouped_pearson counts the groups whose correlation exceeds this.
PEARSON_THRESHOLD = 0.4


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity a.b / (|a| |b|); rejects zero-norm inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Sample Pearson correlation coefficient of two equal-length arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pearson expects two 1-d arrays of equal length")
    if a.size < 2:
        raise ValueError("pearson needs at least two samples")
    da = a - a.mean()
    db = b - b.mean()
    va = np.dot(da, da)
    vb = np.dot(db, db)
    if va == 0.0 or vb == 0.0:
        raise DataError("pearson undefined for zero-variance input")
    return float(np.dot(da, db) / np.sqrt(va * vb))


def cca_top_k(X: np.ndarray, Y: np.ndarray, k: int = 3, eps: float = 1e-6) -> np.ndarray:
    """Top-k canonical correlations between row-aligned matrices X and Y.

    Columns are mean-centered; both auto-covariance blocks get a ridge
    ``eps * I``; the correlations are the singular values of
    ``Cxx^{-1/2} Cxy Cyy^{-1/2}``, clipped to [0, 1] and returned in
    descending order (zero-padded if fewer than k exist).
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_analysis(cca_eps=eps)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with the same number of rows")
    if X.shape[0] < 2:
        raise DataError("CCA needs at least two rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("CCA input contains non-finite values")

    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    cxx = Xc.T @ Xc / (n - 1) + eps * np.eye(X.shape[1])
    cyy = Yc.T @ Yc / (n - 1) + eps * np.eye(Y.shape[1])
    cxy = Xc.T @ Yc / (n - 1)

    m = _inv_sqrt(cxx) @ cxy @ _inv_sqrt(cyy)
    corrs = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    out = np.zeros(k)
    out[:min(k, corrs.size)] = corrs[:k]
    return out


def _inv_sqrt(c: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(c)
    if w.min() <= 0.0:
        raise DataError("covariance block is rank-deficient; use a positive regularization eps")
    return (v / np.sqrt(w)) @ v.T


def _pca_reduce(m: np.ndarray, q: int) -> np.ndarray:
    """Project the centered rows of m onto its top-q principal components."""
    centered = m - m.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:q].T


def check_analysis(cca_eps: float = 1e-6, num_identities: int = 50, group_size: int = 2,
                   seed: int = 0) -> None:
    """Refuse analysis settings that fit no set: a CCA ridge that is not finite and
    non-negative, a Pearson identity count or group size below 1, a negative seed."""
    if not 0 <= cca_eps < np.inf:  # also false for nan
        raise ValueError(f"eps must be finite and non-negative, got {cca_eps}")
    for name, value in (("num_identities", num_identities), ("group_size", group_size)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class SplitCosineEntry:
    cosine: float
    half_sizes: tuple[int, int]


@dataclass(frozen=True)
class CcaEntry:
    cross_res: tuple[float, ...]
    random_baseline: tuple[float, ...]
    rows: int
    components: int


@dataclass(frozen=True)
class PearsonEntry:
    mean_r: float
    std_r: float
    proportion_above: float
    group_count: int


@dataclass(frozen=True)
class StatsReport:
    split_cosine: dict[int, SplitCosineEntry]
    cca: dict[int, CcaEntry]
    pearson: dict[int, PearsonEntry]


def _pairs(eset: EmbeddingSet, hr: list, lrs: list) -> tuple[np.ndarray, np.ndarray]:
    """The HR and LR vectors paired by within-identity order: the first
    min(#HR, #LR) rows of each identity on both sides, identity by identity."""
    take = [min(h.size, lr.size) for h, lr in zip(hr, lrs)]
    return (eset.matrix[np.concatenate([h[:n] for h, n in zip(hr, take)])],
            eset.matrix[np.concatenate([lr[:n] for lr, n in zip(lrs, take)])])


def _means(eset: EmbeddingSet, groups: list) -> np.ndarray:
    """One row per group of row indices: the mean of its rows."""
    return np.stack([eset.matrix[rows].mean(axis=0) for rows in groups])


def split_cosine(eset: EmbeddingSet, rate: int) -> SplitCosineEntry:
    """Cosine between the mean HR-LR shifts of two disjoint identity halves.

    Identities with both resolutions are split by the sorted-ID rule; the
    shift of a half is (mean of per-identity HR means) minus (mean of
    per-identity LR means).
    """
    ids, hr, lrs = eset.paired_rows([rate])
    if len(ids) < 2:
        raise DataError(
            f"split cosine at {rate_tag(rate)} needs >= 2 identities with both resolutions, "
            f"got {len(ids)}"
        )
    cut = math.ceil(len(ids) / 2)
    hr_means, lr_means = _means(eset, hr), _means(eset, lrs)
    first, second = (hr_means[half].mean(axis=0) - lr_means[half].mean(axis=0)
                     for half in (slice(cut), slice(cut, None)))
    return SplitCosineEntry(cosine=cosine(first, second), half_sizes=(cut, len(ids) - cut))


def cca_with_random_baseline(
    eset: EmbeddingSet,
    rate: int,
    k: int = 3,
    eps: float = 1e-6,
    seed: int = 0,
    rows: str = "per_sample",
) -> CcaEntry:
    """CCA between paired HR and LR matrices plus a same-shape random baseline.

    ``rows`` selects the pairing: ``per_sample`` pairs the j-th HR record of
    each identity with its j-th LR-at-rate record; ``identity_mean`` uses one
    row of per-identity means per side.  When the column count exceeds
    rows - 1, both sides are reduced to their top rows - 1 principal
    components first (recorded in ``components``).
    """
    check_analysis(cca_eps=eps, seed=seed)
    ids, hr, lrs = eset.paired_rows([rate])
    if not ids:
        raise DataError(f"no identities with both HR and {rate_tag(rate)} records")
    if rows == "identity_mean":
        hr_mat, lr_mat = _means(eset, hr), _means(eset, lrs)
    elif rows == "per_sample":
        hr_mat, lr_mat = _pairs(eset, hr, lrs)
    else:
        raise ValueError(f"unknown row mode {rows!r}")

    n, dim = hr_mat.shape
    components = dim
    if dim > n - 1:
        components = n - 1
        hr_mat, lr_mat = _pca_reduce(hr_mat, components), _pca_reduce(lr_mat, components)

    cross = cca_top_k(hr_mat, lr_mat, k, eps)
    rng = np.random.default_rng(seed)
    rand_a = rng.standard_normal(hr_mat.shape)
    rand_b = rng.standard_normal(lr_mat.shape)
    baseline = cca_top_k(rand_a, rand_b, k, eps)
    return CcaEntry(cross_res=tuple(cross), random_baseline=tuple(baseline), rows=n,
                    components=components)


def grouped_pearson(
    eset: EmbeddingSet,
    rate: int,
    num_identities: int = 50,
    group_size: int = 2,
    seed: int = 0,
) -> PearsonEntry:
    """Correlate group-mean difference vectors with the global mean shift.

    The global shift is the mean of all sample-level HR-LR differences at
    this rate.  Difference vectors of the first ``num_identities`` sorted
    identities are pooled, shuffled with ``seed``, and chunked into
    consecutive groups of ``group_size`` (trailing remainder dropped); each
    group's mean vector is Pearson-correlated against the global shift.
    ``proportion_above`` is the share of groups whose r exceeds
    ``PEARSON_THRESHOLD`` (0.4).
    """
    check_analysis(num_identities=num_identities, group_size=group_size, seed=seed)
    ids, hr, lrs = eset.paired_rows([rate])
    if len(ids) < num_identities:
        raise DataError(
            f"grouped pearson at {rate_tag(rate)} needs {num_identities} identities with "
            f"paired samples, got {len(ids)}"
        )
    diffs = np.subtract(*_pairs(eset, hr, lrs))  # one row per pair, identity by identity
    global_shift = diffs.mean(axis=0)
    # the pairs of the first num_identities identities lead the rows
    pool = diffs[:sum(min(h.size, lr.size) for h, lr in zip(hr[:num_identities], lrs))]

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    num_groups = len(pool) // group_size
    if num_groups == 0:
        raise DataError("not enough difference vectors to form a single group")
    members = order[: num_groups * group_size].reshape(num_groups, group_size)
    rs = np.array([pearson(pool[m].mean(axis=0), global_shift) for m in members])
    return PearsonEntry(mean_r=float(rs.mean()), std_r=float(rs.std()),
                        proportion_above=float(np.mean(rs > PEARSON_THRESHOLD)),
                        group_count=num_groups)


def lr_rates(eset: EmbeddingSet) -> list[int]:
    """Sorted LR rates present in the set."""
    return [rate for rate in np.unique(eset.rate_array).tolist() if rate]


def analyze_set(
    eset: EmbeddingSet,
    rates: list[int] | None = None,
    cca_eps: float = 1e-6,
    cca_rows: str = "per_sample",
    num_identities: int = 50,
    group_size: int = 2,
    seed: int = 0,
) -> StatsReport:
    """All three analyses for every requested (or present) LR rate."""
    rates = lr_rates(eset) if rates is None else check_lr_rates(rates)
    if not rates:
        raise DataError("set contains no LR records")
    split, cca, pear = {}, {}, {}
    for rate in rates:
        split[rate] = split_cosine(eset, rate)
        cca[rate] = cca_with_random_baseline(eset, rate, eps=cca_eps, seed=seed, rows=cca_rows)
        pear[rate] = grouped_pearson(eset, rate, num_identities=num_identities,
                                     group_size=group_size, seed=seed)
    return StatsReport(split_cosine=split, cca=cca, pearson=pear)
