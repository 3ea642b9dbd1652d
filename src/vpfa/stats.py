"""Statistical checks for a shared resolution direction in feature space.

Three analyses, each applied per LR rate:

* split-cosine: cosine similarity between the average HR-LR difference
  vectors of two disjoint identity halves;
* regularized CCA between paired HR/LR matrices, against a random-matrix
  baseline of the same shape;
* grouped Pearson correlation of group-mean difference vectors against the
  global mean shift.

All three read the set's arrays through ``EmbeddingSet.rows_by_identity``:
the row indices of each identity's HR and LR-at-rate samples, in record
order.  Means are ``matrix[rows].mean(axis=0)``; HR/LR pairs take the first
min(#HR, #LR) rows of an identity on each side, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, Resolution, half_split_identities
from .errors import DataError


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


def cca_top_k(
    X: np.ndarray, Y: np.ndarray, k: int = 3, eps: float = 1e-6
) -> np.ndarray:
    """Top-k canonical correlations between row-aligned matrices X and Y.

    Columns are mean-centered; both auto-covariance blocks get a ridge
    ``eps * I``; the correlations are the singular values of
    ``Cxx^{-1/2} Cxy Cyy^{-1/2}``, clipped to [0, 1] and returned in
    descending order (zero-padded if fewer than k exist).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= eps < np.inf:  # also false for nan
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
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
    take = min(k, corrs.size)
    out[:take] = corrs[:take]
    return out


def _inv_sqrt(c: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(c)
    if w.min() <= 0.0:
        raise DataError(
            "covariance block is rank-deficient; use a positive regularization eps"
        )
    return (v / np.sqrt(w)) @ v.T


def _pca_reduce(m: np.ndarray, q: int) -> np.ndarray:
    """Project the centered rows of m onto its top-q principal components."""
    centered = m - m.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:q].T


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
    threshold: float


@dataclass(frozen=True)
class StatsReport:
    split_cosine: dict[int, SplitCosineEntry]
    cca: dict[int, CcaEntry]
    cca_eps: float
    pearson: dict[int, PearsonEntry]


def _groups(eset: EmbeddingSet, lr: Resolution) -> tuple[dict, dict, list[int]]:
    """Row indices of each identity's HR and LR-at-rate samples, in record
    order, and the sorted identities that have both."""
    hr = eset.rows_by_identity(eset.rate_array == 0)
    lrs = eset.rows_by_identity((eset.rate_array == lr.rate) & lr.is_lr)
    return hr, lrs, sorted(hr.keys() & lrs.keys())


def _paired_rows(hr: dict, lrs: dict, ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """HR and LR rows paired by within-identity order: the first
    min(#HR, #LR) rows of each identity on both sides."""
    take = [min(hr[i].size, lrs[i].size) for i in ids]
    return (np.concatenate([hr[i][:n] for i, n in zip(ids, take)]),
            np.concatenate([lrs[i][:n] for i, n in zip(ids, take)]))


def _means(eset: EmbeddingSet, groups: dict, ids: list[int]) -> np.ndarray:
    """One row per identity: the mean of its rows in ``groups``."""
    return np.stack([eset.matrix[groups[i]].mean(axis=0) for i in ids])


def split_cosine(eset: EmbeddingSet, rate: int) -> SplitCosineEntry:
    """Cosine between the mean HR-LR shifts of two disjoint identity halves.

    Identities with both resolutions are split by the sorted-ID rule; the
    shift of a half is (mean of per-identity HR means) minus (mean of
    per-identity LR means).
    """
    lr = Resolution(rate)
    hr, lrs, ids = _groups(eset, lr)
    if len(ids) < 2:
        raise DataError(
            f"split cosine at {lr} needs >= 2 identities with both resolutions, got {len(ids)}"
        )
    first, second = half_split_identities(ids)

    def shift(half: list[int]) -> np.ndarray:
        return _means(eset, hr, half).mean(axis=0) - _means(eset, lrs, half).mean(axis=0)

    value = cosine(shift(first), shift(second))
    return SplitCosineEntry(cosine=value, half_sizes=(len(first), len(second)))


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
    rows - 1, both sides are reduced to their top min(rows - 1, dim)
    principal components first (recorded in ``components``).
    """
    lr = Resolution(rate)
    hr, lrs, ids = _groups(eset, lr)
    if not ids:
        raise DataError(f"no identities with both HR and {lr} records")
    if rows == "identity_mean":
        hr_mat, lr_mat = _means(eset, hr, ids), _means(eset, lrs, ids)
    elif rows == "per_sample":
        hr_mat, lr_mat = (eset.matrix[r] for r in _paired_rows(hr, lrs, ids))
    else:
        raise ValueError(f"unknown row mode {rows!r}")

    n, dim = hr_mat.shape
    components = dim
    if dim > n - 1:
        components = min(n - 1, dim)
        hr_mat = _pca_reduce(hr_mat, components)
        lr_mat = _pca_reduce(lr_mat, components)

    cross = cca_top_k(hr_mat, lr_mat, k, eps)
    rng = np.random.default_rng(seed)
    rand_a = rng.standard_normal(hr_mat.shape)
    rand_b = rng.standard_normal(lr_mat.shape)
    baseline = cca_top_k(rand_a, rand_b, k, eps)
    return CcaEntry(
        cross_res=tuple(cross),
        random_baseline=tuple(baseline),
        rows=n,
        components=components,
    )


def grouped_pearson(
    eset: EmbeddingSet,
    rate: int,
    num_identities: int = 50,
    group_size: int = 2,
    seed: int = 0,
    threshold: float = 0.4,
) -> PearsonEntry:
    """Correlate group-mean difference vectors with the global mean shift.

    The global shift is the mean of all sample-level HR-LR differences at
    this rate.  Difference vectors of the first ``num_identities`` sorted
    identities are pooled, shuffled with ``seed``, and chunked into
    consecutive groups of ``group_size`` (trailing remainder dropped); each
    group's mean vector is Pearson-correlated against the global shift.
    """
    if num_identities < 1 or group_size < 1:
        raise ValueError("num_identities and group_size must be positive")
    lr = Resolution(rate)
    hr, lrs, ids = _groups(eset, lr)
    if len(ids) < num_identities:
        raise DataError(
            f"grouped pearson at {lr} needs {num_identities} identities with "
            f"paired samples, got {len(ids)}"
        )
    hr_rows, lr_rows = _paired_rows(hr, lrs, ids)
    diffs = eset.matrix[hr_rows] - eset.matrix[lr_rows]  # one row per pair, by identity
    global_shift = diffs.mean(axis=0)
    pool = diffs[np.isin(eset.identity_array[hr_rows], ids[:num_identities])]

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    num_groups = len(pool) // group_size
    if num_groups == 0:
        raise DataError("not enough difference vectors to form a single group")
    members = order[: num_groups * group_size].reshape(num_groups, group_size)
    rs = np.array([pearson(pool[m].mean(axis=0), global_shift) for m in members])
    return PearsonEntry(
        mean_r=float(rs.mean()),
        std_r=float(rs.std()),
        proportion_above=float(np.mean(rs > threshold)),
        group_count=num_groups,
        threshold=threshold,
    )


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
    if rates is None:
        rates = lr_rates(eset)
    if not rates:
        raise DataError("set contains no LR records")
    split = {}
    cca = {}
    pear = {}
    for rate in rates:
        split[rate] = split_cosine(eset, rate)
        cca[rate] = cca_with_random_baseline(
            eset, rate, eps=cca_eps, seed=seed, rows=cca_rows
        )
        pear[rate] = grouped_pearson(
            eset, rate, num_identities=num_identities, group_size=group_size, seed=seed
        )
    return StatsReport(split_cosine=split, cca=cca, cca_eps=cca_eps, pearson=pear)
