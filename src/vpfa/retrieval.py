"""Cross-resolution retrieval: apply panning, rank, score CMC and mAP.

Evaluation follows the usual re-identification protocol: each query ranks
the gallery by similarity; gallery items sharing both identity and camera
with the query are excluded when the camera filter is on; queries with no
remaining relevant item are skipped and counted.  Ties in similarity break
by gallery record index.  No row is sorted: a relevant item's 0-based rank
is the count of non-excluded items scoring higher plus equal scorers at a
lower index.  Each query's same-identity items come from the gallery sorted
once by identity, not from a Q x G mask; each block counts its rows' junk
from the pairs it marks, and m is what is left.  Only a query's candidates,
the items scoring at or above its lowest relevant score, can rank ahead of
a relevant item; a binary search over the m relevant items places each
candidate.  Per query that is one O(G) comparison, an O(m log m) sort and
O(c log m) for c candidates.  Blocks of EVAL_BLOCK // G consecutive query
rows (at least one) are ranked in place in the score matrix, each row with
its own m; the rows' relevant scores and indices, padded with sentinels to
a power of two above the block's largest m, fill two buffers.  Memory: one
Q x G float64 score matrix and a few arrays of EVAL_BLOCK (or G) elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError
from .vpnet import ForwardTrace, VPParams, forward

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
    are reused untouched) or ``all``.  The selected rows go through one
    :func:`forward` call in a forward-only workspace, which is freed before
    the output is allocated.  When every row is selected, the set's own
    matrix is the input and the network's output becomes the new matrix, so
    neither the input rows nor the output are copied.
    """
    if params.dim != eset.dim:
        raise ValueError(f"params dim {params.dim} != set dim {eset.dim}")
    if target not in ("lr", "all"):
        raise ValueError(f"unknown target {target!r}")
    selected = eset.rate_array != 0 if target == "lr" else np.ones(len(eset), dtype=bool)
    rows = int(np.count_nonzero(selected))
    if rows == len(eset):
        out = _pan(params, eset.matrix)
    else:
        panned = _pan(params, eset.matrix[selected])
        out = eset.matrix.copy()
        out[selected] = panned
    # The set rejects non-finite rows, so a network that overflows fails here.
    return EmbeddingSet(out, eset.identity_array, eset.camera_array, eset.rate_array)


def _pan(params: VPParams, z: np.ndarray) -> np.ndarray:
    """The network's output for the rows of ``z``, from one :func:`forward`
    call (its matmul shapes fix the output bits); only the output outlives
    the workspace."""
    return forward(params, z, ForwardTrace.forward_only(len(z), params.dim, params.hidden))[0]


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
        # NaN propagates through max and min; neither allocates a Q x G mask
        if not (np.isfinite(sq.max()) and np.isfinite(sq.min())):
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
    # Gallery columns grouped by identity, each group in ascending gallery order.
    by_id = np.argsort(gallery.identity_array, kind="stable")
    sorted_ids = gallery.identity_array[by_id]
    lo = np.searchsorted(sorted_ids, query.identity_array)
    same = np.searchsorted(sorted_ids, query.identity_array, side="right") - lo
    counts = same.copy()  # relevant items per query: same identity, less the block's junk

    first, ap = np.empty(num_q, dtype=np.intp), np.empty(num_q)  # 1-based first hit
    step = max(1, EVAL_BLOCK // num_g)
    for start in range(0, num_q, step):
        # Consecutive query rows, ranked in place: each row of scores is ranked
        # once, so the junk written into it is never read again.
        qs = slice(start, start + step)
        block, m, n = scores[qs], counts[qs], same[qs]
        rows = len(block)
        # The block's same-identity (row, column) pairs, row by row.
        row = np.repeat(np.arange(rows), n)
        col = by_id[np.arange(row.size) + np.repeat(lo[qs] - np.cumsum(n) + n, n)]
        if cross_camera_filter:  # junk: same identity and camera, ranked behind the rest
            junk = gallery.camera_array[col] == query.camera_array[qs][row]
            m -= np.bincount(row[junk], minlength=rows)  # a view: this writes counts
            block[row[junk], col[junk]] = -np.inf
            row, col = row[~junk], col[~junk]
        # Relevant items in the first m columns of their row, then sentinels ranked
        # behind everything; one stable sort of each row puts them in rank order
        # (higher score, then lower index).
        sizes = set(m.tolist())
        width = 1 << max(sizes).bit_length()
        relevant = np.arange(width) < m[:, None]  # filled row by row, as the pairs come
        rel_s, rel_i = np.full((rows, width), -np.inf), np.full((rows, width), num_g)
        rel_s[relevant], rel_i[relevant] = block.take(row * num_g + col), col  # flat gather
        order = np.argsort(-rel_s, axis=1, kind="stable") + np.arange(rows)[:, None] * width
        rel_s, rel_i = rel_s.take(order), rel_i.take(order)
        # Candidates: only items scoring at least the lowest relevant score can rank
        # ahead of a relevant item; every other item ranks behind all m.  A row with
        # m = 0 (a skipped query) has none.
        lowest = np.where(relevant, rel_s, np.inf).min(axis=1, keepdims=True)
        flat = np.flatnonzero(block >= lowest)
        vals = block.take(flat)
        # k: flat index of (row, number of relevant items ranked ahead), bit by bit.
        k = flat // num_g * width
        bit = width
        while bit := bit // 2:
            j = k + (bit - 1)
            s = rel_s.take(j)
            ahead = s > vals
            tie = np.flatnonzero(s == vals)  # few: break them by gallery index
            ahead[tie] = rel_i.take(j[tie]) < flat[tie] % num_g
            k += ahead * bit
        # Items with k <= r rank at or ahead of relevant item r: r's 1-based rank.
        hits = np.bincount(k, minlength=rows * width).reshape(-1, width).cumsum(axis=1)
        first[qs] = hits[:, 0]
        # Each AP is its row's sum / m over its own m columns, as a 1-d mean; rows of
        # equal m are summed together, since zero padding would change the rounding.
        # ap[qs] is a view, so the masked assignment writes into ap.
        for size in sizes - {0}:
            r = m == size
            ap[qs][r] = (np.arange(1, size + 1) / hits[r, :size]).sum(axis=1) / size

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
) -> list[tuple[int, int, float, float]]:
    """Top-2 principal-component coordinates of the pooled records.

    Components come from the eigendecomposition of the pooled covariance;
    each component's sign is fixed so its first loading above 1e-12 in
    magnitude is positive.  Rows are (identity, rate, x, y) in pooled record
    order, the rate 0 for HR.  ``num_identities`` keeps the first N sorted
    identities.
    """
    if num_identities is not None and num_identities < 1:
        raise ValueError(f"num_identities must be at least 1, got {num_identities}")
    if len({s.dim for s in sets}) > 1:
        raise ValueError("sets have different dimensions")
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
    return [(identity, rate, cx, cy) for identity, rate, (cx, cy)
            in zip(ids.tolist(), rates.tolist(), coords.tolist())]
