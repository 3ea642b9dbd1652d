"""Cross-resolution retrieval: apply panning, rank, score CMC and mAP.

Evaluation follows the usual re-identification protocol: each query ranks
the gallery by similarity; gallery items sharing both identity and camera
with the query are excluded when the camera filter is on; queries with no
remaining relevant item are skipped and counted.  Ties in similarity break
by gallery record index.  No row is sorted: a relevant item's 0-based rank
is the count of non-excluded items scoring higher plus equal scorers at a
lower index, found for all G items by a binary search over the query's m
relevant items, O(G log m) per query.  Memory: one Q x G float64 score
matrix, two Q x G bool masks and a few arrays of EVAL_BLOCK (or G) elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, Resolution
from .errors import DataError
from .vpnet import VPParams, forward

RANK_KS = (1, 5, 10)
EVAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class RetrievalReport:
    rank_k: dict[int, float]
    mean_ap: float
    num_queries: int
    num_skipped: int
    metric: str
    per_query_ap: tuple[tuple[int, int, float], ...] = ()  # (index, identity, AP)


@dataclass(frozen=True)
class CentroidRow:
    distance_before: float
    distance_after: float
    reduction: float


@dataclass(frozen=True)
class CentroidReport:
    per_identity: dict[int, CentroidRow]
    mean_reduction: float


def apply_panning(
    params: VPParams, eset: EmbeddingSet, target: str = "lr"
) -> EmbeddingSet:
    """New set with selected vectors replaced by the network output.

    ``target`` is ``lr`` (default: only LR records are panned, HR records
    are reused untouched) or ``all``.
    """
    if params.dim != eset.dim:
        raise ValueError(f"params dim {params.dim} != set dim {eset.dim}")
    if target not in ("lr", "all"):
        raise ValueError(f"unknown target {target!r}")
    selected = eset.rate_array != 0 if target == "lr" else np.ones(len(eset), dtype=bool)
    out = eset.matrix.copy()
    if selected.any():
        out[selected], _ = forward(params, eset.matrix[selected])
    # The set rejects non-finite rows, so a network that overflows fails here.
    return EmbeddingSet.from_arrays(
        out, eset.identity_array, eset.camera_array, eset.rate_array, eset.source_label
    )


def _scores(query_mat, gallery_mat, metric):
    """Q x G similarities, larger is better: cosine, or negated squared distance."""
    if metric == "cosine":
        qn = np.linalg.norm(query_mat, axis=1, keepdims=True)
        gn = np.linalg.norm(gallery_mat, axis=1, keepdims=True)
        if np.any(qn == 0) or np.any(gn == 0):
            raise DataError("cosine metric undefined for zero-norm vectors")
        return (query_mat / qn) @ (gallery_mat / gn).T
    if metric == "euclidean":
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            sq = 2.0 * query_mat @ gallery_mat.T  # sum(q^2) - 2 q.g + sum(g^2), in place
            np.subtract(np.sum(query_mat**2, axis=1, keepdims=True), sq, out=sq)
            sq += np.sum(gallery_mat**2, axis=1)
        if not np.isfinite(sq).all():
            raise DataError("euclidean distances overflow float64")
        return np.negative(sq, out=sq)
    raise ValueError(f"unknown metric {metric!r}")


def evaluate(
    query: EmbeddingSet,
    gallery: EmbeddingSet,
    metric: str = "cosine",
    cross_camera_filter: bool = True,
    ks: tuple[int, ...] = RANK_KS,
) -> RetrievalReport:
    """CMC Rank-k and mAP of ranking the gallery for every query record."""
    if query.dim != gallery.dim:
        raise ValueError(f"query dim {query.dim} != gallery dim {gallery.dim}")
    if len(gallery) == 0:
        raise DataError("gallery is empty")
    if len(query) == 0:
        raise DataError("query set is empty")

    scores = _scores(query.matrix, gallery.matrix, metric)
    num_q, num_g = scores.shape
    relevant = query.identity_array[:, None] == gallery.identity_array
    if cross_camera_filter:  # junk: same identity and camera; scores -inf, below the rest
        junk = query.camera_array[:, None] == gallery.camera_array
        junk &= relevant
        np.copyto(scores, -np.inf, where=junk)
        relevant ^= junk
    counts = np.count_nonzero(relevant, axis=1)

    # Equal-m queries share blocks: each AP sums one row as a 1-d mean does.
    first, ap = np.empty(num_q, dtype=np.intp), np.empty(num_q)  # 1-based first hit
    step = max(1, EVAL_BLOCK // num_g)
    for m in np.unique(counts[counts > 0]).tolist():
        chosen, width = np.flatnonzero(counts == m), 1 << m.bit_length()
        for qs in np.split(chosen, range(step, chosen.size, step)):
            block = scores[qs]
            # Relevant items in rank order (higher score, then lower index), then
            # sentinels ranked behind everything, up to width > m columns.
            rel_i = np.nonzero(relevant[qs])[1].reshape(len(qs), m)
            rel_s = np.take_along_axis(block, rel_i, axis=1)
            order, pad = np.argsort(-rel_s, axis=1, kind="stable"), ((0, 0), (0, width - m))
            rel_s = np.pad(np.take_along_axis(rel_s, order, 1), pad, constant_values=-np.inf)
            rel_i = np.pad(np.take_along_axis(rel_i, order, 1), pad, constant_values=num_g)
            # k: flat index of (row, number of relevant items ranked ahead), bit by bit.
            k = np.repeat(np.arange(0, rel_s.size, width), num_g).reshape(block.shape)
            bit = width
            while bit := bit // 2:
                j = k + (bit - 1)
                s = rel_s.take(j)
                ahead = s > block
                tie = np.flatnonzero(s == block)  # few: break them by gallery index
                ahead.flat[tie] = rel_i.take(j.flat[tie]) < tie % num_g
                k += ahead * bit
            # Items with k <= r rank at or ahead of relevant item r: r's 1-based rank.
            hits = np.bincount(k.ravel(), minlength=rel_s.size).reshape(-1, width)
            hits = hits[:, :m].cumsum(axis=1)
            first[qs], ap[qs] = hits[:, 0], (np.arange(1, m + 1) / hits).mean(axis=1)

    done = counts > 0
    evaluated = int(np.count_nonzero(done))
    if evaluated == 0:
        raise DataError("every query was skipped (no relevant gallery items)")
    q_index, q_ids = np.flatnonzero(done).tolist(), query.identity_array[done].tolist()
    return RetrievalReport(
        rank_k={k: int(np.count_nonzero(first[done] <= k)) / evaluated for k in ks},
        mean_ap=float(np.mean(ap[done])),
        num_queries=evaluated,
        num_skipped=num_q - evaluated,
        metric=metric,
        per_query_ap=tuple(zip(q_index, q_ids, ap[done].tolist())),
    )


def _identity_centroids(eset: EmbeddingSet) -> dict[int, np.ndarray]:
    groups = eset.rows_by_identity()
    return {i: eset.matrix[rows].mean(axis=0) for i, rows in groups.items()}


def _distances(cent_a: dict[int, np.ndarray], cent_b: dict[int, np.ndarray]) -> dict[int, float]:
    shared = sorted(set(cent_a) & set(cent_b))
    if not shared:
        raise DataError("the sets share no identities")
    return {i: float(np.linalg.norm(cent_a[i] - cent_b[i])) for i in shared}


def centroid_distances(set_a: EmbeddingSet, set_b: EmbeddingSet) -> dict[int, float]:
    """Per shared identity, Euclidean distance between the two mean vectors."""
    if set_a.dim != set_b.dim:
        raise ValueError("sets have different dimensions")
    return _distances(_identity_centroids(set_a), _identity_centroids(set_b))


def compare_centroids(
    hr_set: EmbeddingSet, before: EmbeddingSet, after: EmbeddingSet
) -> CentroidReport:
    """Centroid distances to the HR set before vs after panning."""
    if not hr_set.dim == before.dim == after.dim:
        raise ValueError("sets have different dimensions")
    hr_centroids = _identity_centroids(hr_set)
    dist_before = _distances(hr_centroids, _identity_centroids(before))
    dist_after = _distances(hr_centroids, _identity_centroids(after))
    shared = sorted(set(dist_before) & set(dist_after))
    if not shared:
        raise DataError("no identity present in both comparisons")
    rows = {}
    for i in shared:
        b = dist_before[i]
        a = dist_after[i]
        reduction = 0.0 if b == 0.0 else 1.0 - a / b
        rows[i] = CentroidRow(distance_before=b, distance_after=a, reduction=reduction)
    mean_reduction = float(np.mean([r.reduction for r in rows.values()]))
    return CentroidReport(per_identity=rows, mean_reduction=mean_reduction)


def project_2d(
    sets: list[EmbeddingSet], num_identities: int | None = None
) -> list[tuple[int, Resolution, float, float]]:
    """Top-2 principal-component coordinates of the pooled records.

    Components come from the eigendecomposition of the pooled covariance;
    each component's sign is fixed so its first loading above 1e-12 in
    magnitude is positive.  Rows are (identity, resolution, x, y) in pooled
    record order.
    """
    ids, rates, x = (np.concatenate([getattr(s, name) for s in sets])
                     for name in ("identity_array", "rate_array", "matrix"))
    if num_identities is not None:
        keep = np.isin(ids, np.unique(ids)[:num_identities])
        ids, rates, x = ids[keep], rates[keep], x[keep]
    if len(ids) < 2:
        raise DataError("2-d projection needs at least two records")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, ::-1][:, :2]
    lead, second = eigvals[::-1][:2]
    if second <= 0 or second < 1e-12 * lead:
        raise DataError("data rank < 2, cannot project to two components")
    for c in range(2):
        loadings = top[:, c]
        nonzero = np.flatnonzero(np.abs(loadings) > 1e-12)
        if nonzero.size and loadings[nonzero[0]] < 0:
            top[:, c] = -loadings
    coords = centered @ top
    return [(identity, Resolution(rate), cx, cy) for identity, rate, (cx, cy)
            in zip(ids.tolist(), rates.tolist(), coords.tolist())]
