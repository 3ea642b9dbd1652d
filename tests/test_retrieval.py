import tracemalloc

import numpy as np
import pytest

from vpfa import retrieval
from vpfa.embeddings import EmbeddingSet
from vpfa.errors import DataError
from vpfa.retrieval import (
    RetrievalReport,
    apply_panning,
    centroid_distances,
    compare_centroids,
    evaluate,
    project_2d,
)
from vpfa.synthgen import SynthConfig, generate
from vpfa.trainer import TrainConfig, train, training_pairs
from vpfa.vpnet import NetConfig, forward, init_params

HR, LR2 = 0, 2  # rates


def record(identity, camera, rate, vec):
    return identity, camera, rate, vec


def make_set(dim, rows=()):
    """A set over rows built by ``record``."""
    rows = list(rows)
    matrix = np.array([vec for *_, vec in rows], dtype=float).reshape(len(rows), dim)
    identity, camera, rate = ([row[k] for row in rows] for k in range(3))
    return EmbeddingSet(matrix, identity, camera, rate)


def split(eset):
    """The LR queries and the HR gallery of a set."""
    return eset.partition(eset.rate_array != 0), eset.partition(eset.rate_array == 0)


def gallery_at_distances(query_vec, distances, identities):
    """Gallery records placed at exact Euclidean distances from the query."""
    dim = len(query_vec)
    records = []
    for i, (dist, identity) in enumerate(zip(distances, identities)):
        v = np.array(query_vec, dtype=float)
        v[0] += dist
        records.append(record(identity, 1, HR, v))
    return make_set(dim, records)


class TestApplyPanning:
    def test_zero_network_is_identity(self):
        s = generate(SynthConfig(num_identities=5, seed=0))
        params = init_params(64, 16, init_std=0.0)
        out = apply_panning(params, s)
        assert len(out) == len(s)
        for a, b in zip(out.records, s.records):
            assert a.vector.tobytes() == b.vector.tobytes()

    def test_hr_records_untouched_under_lr_target(self):
        s = generate(SynthConfig(num_identities=5, seed=1))
        params = init_params(64, 16, init_std=0.5, seed=2)
        out = apply_panning(params, s, target="lr")
        changed = 0
        for a, b in zip(out.records, s.records):
            assert (a.identity, a.camera, a.resolution) == (
                b.identity, b.camera, b.resolution,
            )
            if b.resolution.is_hr:
                assert a.vector.tobytes() == b.vector.tobytes()
            else:
                changed += a.vector.tobytes() != b.vector.tobytes()
        assert changed > 0

    def test_all_target_pans_everything(self):
        s = generate(SynthConfig(num_identities=3, seed=2))
        params = init_params(64, 16, init_std=0.5, seed=3)
        out = apply_panning(params, s, target="all")
        assert all(
            a.vector.tobytes() != b.vector.tobytes()
            for a, b in zip(out.records, s.records)
        )

    def test_dim_mismatch_rejected(self):
        s = generate(SynthConfig(dim=32, num_identities=3, seed=0))
        with pytest.raises(ValueError, match="dim"):
            apply_panning(init_params(16, 8), s)

    @pytest.mark.parametrize("dim, hidden", [(8, 4), (4, 16)])
    @pytest.mark.parametrize("rows", ["lr", "all", "one_lr", "no_lr", "none"])
    def test_rows_equal_one_forward_of_the_selected_rows(self, dim, hidden, rows):
        s = generate(SynthConfig(dim=dim, num_identities=6, rates=(2, 3),
                                 shift_magnitude={2: 1.0, 3: 2.0}, seed=4))
        if rows == "one_lr":  # the HR records and the first LR record
            s = s.partition((s.rate_array == 0) | (np.arange(len(s)) == np.argmax(s.rate_array)))
        elif rows == "no_lr":
            s = s.partition(s.rate_array == 0)
        elif rows == "none":  # an empty set, every row of it selected
            s = s.partition(np.zeros(len(s), bool))
        target = "all" if rows in ("all", "none") else "lr"
        chosen = np.ones(len(s), bool) if target == "all" else s.rate_array != 0
        params = init_params(dim, hidden, init_std=0.5, seed=5)
        out = apply_panning(params, s, target=target)
        expected = s.matrix.copy()
        if chosen.any():
            zhat, trace = forward(params, s.matrix[chosen])
            assert trace.dz is not None  # the full trace that backward reads
            expected[chosen] = zhat
        assert out.matrix.tobytes() == expected.tobytes()
        for name in ("identity_array", "camera_array", "rate_array"):
            assert getattr(out, name).tobytes() == getattr(s, name).tobytes()

    @pytest.mark.parametrize("target", ["lr", "all"])
    def test_peak_memory_is_output_rows_and_a_forward_only_workspace(self, target):
        dim, hidden = 96, 256
        s = generate(SynthConfig(dim=dim, num_identities=40, samples_per_res=8, seed=8))
        assert 2 * np.count_nonzero(s.rate_array) == len(s)  # half LR
        params = init_params(dim, hidden, init_std=0.1, seed=9)
        rows = len(s) if target == "all" else int(np.count_nonzero(s.rate_array))
        tracemalloc.start()
        try:
            apply_panning(params, s, target=target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A workspace of four hidden-wide and one dim-wide buffer (a full trace
        # holds nine and three), the last of them the panned rows, and the
        # selected input rows; the output is allocated only once the workspace
        # is freed.  With every row selected, the set's matrix is the input and
        # the panned rows are the output.  The margin is one numpy ufunc buffer
        # plus a few columns and masks.
        workspace = 8 * (4 * hidden + dim) * rows
        if target == "all":
            bound = workspace
        else:
            bound = max(workspace + 8 * rows * dim, 8 * (rows + len(s)) * dim)
        assert peak <= bound + 8 * np.getbufsize() + 16384

    def test_non_finite_output_rejected(self):
        s = generate(SynthConfig(dim=4, num_identities=2, samples_per_res=2, seed=6))
        params = init_params(4, 3, init_std=0.5, seed=7)
        params.b4[...] = np.nan  # the residual, and so every panned row, is NaN
        with pytest.raises(ValueError, match="non-finite value in record 2"):
            apply_panning(params, s)  # record 2 is the first LR record

    def test_trained_panning_pulls_centroids_closer(self):
        train_set = generate(SynthConfig(num_identities=100, seed=7))
        cfg = TrainConfig(epochs=15, num_pairs=1000, seed=0)
        params, _ = train(*training_pairs(train_set, cfg), NetConfig(dim=64, hidden=64), cfg)
        fresh_cfg = SynthConfig(num_identities=50, seed=21, direction_seed=7)
        fresh = generate(fresh_cfg)
        panned = apply_panning(params, fresh)
        # direct centroid computation on both sets, per identity
        closer = 0
        total = 0
        for identity in fresh.identities():
            own = fresh.identity_array == identity  # panned keeps fresh's row labels
            hr = fresh.matrix[own & (fresh.rate_array == HR)].mean(axis=0)
            before = fresh.matrix[own & (fresh.rate_array == LR2)].mean(axis=0)
            after = panned.matrix[own & (panned.rate_array == LR2)].mean(axis=0)
            total += 1
            closer += np.linalg.norm(hr - after) < np.linalg.norm(hr - before)
        assert closer / total >= 0.9


class TestEvaluate:
    def test_self_retrieval_is_perfect(self):
        s = generate(SynthConfig(num_identities=10, seed=3))
        report = evaluate(s, s, metric="cosine", cross_camera_filter=False)
        assert report.rank_k[1] == 1.0
        assert report.num_skipped == 0

    def test_single_query_nearest_same_identity(self):
        query = make_set(2, [record(0, 0, LR2, [1.0, 0.0])])
        gallery = make_set(2, [
            record(0, 1, HR, [0.9, 0.1]),
            record(1, 1, HR, [-1.0, 0.0]),
        ])
        report = evaluate(query, gallery)
        assert report.rank_k[1] == 1.0
        assert report.mean_ap == 1.0
        assert report.num_queries == 1

    def test_hand_computed_average_precision(self):
        # two relevant items at ranks 1 and 3 of 5: AP = (1/1 + 2/3) / 2
        query = make_set(2, [record(0, 0, LR2, [0.0, 0.0])])
        gallery = gallery_at_distances(
            [0.0, 0.0], distances=[1, 2, 3, 4, 5], identities=[0, 1, 0, 1, 1]
        )
        report = evaluate(query, gallery, metric="euclidean",
                          cross_camera_filter=False)
        assert report.mean_ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert report.rank_k[1] == 1.0

    def test_cmc_monotone_and_bounded(self):
        s = generate(SynthConfig(num_identities=30, seed=4))
        lr, hr = split(s)
        report = evaluate(lr, hr)
        assert 0 <= report.rank_k[1] <= report.rank_k[5] <= report.rank_k[10] <= 1
        assert 0 <= report.mean_ap <= 1

    def test_global_scaling_leaves_report_unchanged(self):
        s = generate(SynthConfig(num_identities=20, seed=5))
        lr, hr = split(s)
        scaled = EmbeddingSet(2.5 * s.matrix, s.identity_array, s.camera_array, s.rate_array)
        slr, shr = split(scaled)
        for metric in ("cosine", "euclidean"):
            a = evaluate(lr, hr, metric=metric)
            b = evaluate(slr, shr, metric=metric)
            assert a.rank_k == b.rank_k
            assert a.mean_ap == pytest.approx(b.mean_ap, abs=1e-12)

    def test_ties_break_by_gallery_index(self):
        query = make_set(2, [record(0, 0, LR2, [1.0, 0.0])])
        twin = [1.0, 0.0]
        gallery = make_set(2, [
            record(5, 1, HR, twin),
            record(0, 1, HR, twin),
        ])
        report = evaluate(query, gallery, cross_camera_filter=False)
        # both gallery vectors tie at similarity 1; index 0 (identity 5) wins
        assert report.rank_k[1] == 0.0
        assert report.rank_k[5] == 1.0

    def test_camera_filter_excludes_same_id_same_camera(self):
        query = make_set(2, [record(0, 0, LR2, [1.0, 0.0])])
        gallery = make_set(2, [
            record(0, 0, HR, [1.0, 0.0]),    # same identity, same camera: junk
            record(1, 1, HR, [0.9, 0.1]),
            record(0, 1, HR, [0.5, 0.5]),    # the legitimate match
        ])
        filtered = evaluate(query, gallery, cross_camera_filter=True)
        unfiltered = evaluate(query, gallery, cross_camera_filter=False)
        assert unfiltered.rank_k[1] == 1.0
        assert filtered.rank_k[1] == 0.0  # match now sits at rank 2

    def test_queries_without_relevant_items_are_skipped(self):
        query = make_set(2, [
            record(0, 0, LR2, [1.0, 0.0]),
            record(9, 0, LR2, [0.0, 1.0]),  # identity absent from gallery
        ])
        gallery = make_set(2, [record(0, 1, HR, [1.0, 0.1])])
        report = evaluate(query, gallery)
        assert report.num_queries == 1
        assert report.num_skipped == 1

    def test_all_skipped_is_an_error(self):
        query = make_set(2, [record(9, 0, LR2, [1.0, 0.0])])
        gallery = make_set(2, [record(0, 1, HR, [1.0, 0.1])])
        with pytest.raises(DataError, match="skipped"):
            evaluate(query, gallery)

    def test_empty_gallery_rejected(self):
        query = make_set(2, [record(0, 0, LR2, [1.0, 0.0])])
        with pytest.raises(DataError, match="gallery"):
            evaluate(query, make_set(2))

    def test_repeated_runs_identical(self):
        s = generate(SynthConfig(num_identities=15, seed=6))
        lr, hr = split(s)
        assert evaluate(lr, hr) == evaluate(lr, hr)

    def test_per_query_table_covers_evaluated_queries(self):
        s = generate(SynthConfig(num_identities=10, seed=8))
        lr, hr = split(s)
        report = evaluate(lr, hr)
        assert len(report.per_query_ap) == report.num_queries
        assert report.mean_ap == pytest.approx(
            np.mean([ap for _, _, ap in report.per_query_ap])
        )


def reference_evaluate(query, gallery, metric="cosine", cross_camera_filter=True,
                       ks=retrieval.RANK_KS):
    """Stable argsort of every score row, then one loop iteration per query."""
    q, g = query.matrix, gallery.matrix
    if metric == "cosine":
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        order = np.argsort(-((q / qn) @ (g / gn).T), axis=1, kind="stable")
    else:
        sq = np.sum(q**2, axis=1, keepdims=True) - 2.0 * q @ g.T + np.sum(g**2, axis=1)
        order = np.argsort(sq, axis=1, kind="stable")
    g_ids, g_cams = gallery.identity_array, gallery.camera_array
    hits = {k: 0 for k in ks}
    per_query = []
    skipped = 0
    labels = zip(query.identity_array.tolist(), query.camera_array.tolist())
    for qi, (identity, camera) in enumerate(labels):
        ranked = order[qi]
        if cross_camera_filter:
            junk = (g_ids[ranked] == identity) & (g_cams[ranked] == camera)
            ranked = ranked[~junk]
        matches = g_ids[ranked] == identity
        if not matches.any():
            skipped += 1
            continue
        first = int(np.argmax(matches))
        for k in ks:
            if first < k:
                hits[k] += 1
        cum = np.cumsum(matches)
        precision_at_hits = cum[matches] / (np.flatnonzero(matches) + 1.0)
        per_query.append((qi, identity, float(precision_at_hits.mean())))
    evaluated = len(query) - skipped
    return RetrievalReport(
        rank_k={k: hits[k] / evaluated for k in ks},
        mean_ap=float(np.mean([ap for _, _, ap in per_query])),
        num_queries=evaluated,
        num_skipped=skipped,
        metric=metric,
        per_query_ap=tuple(per_query),
    )


def tied_sets(seed, dim=4):
    """Query and gallery sets whose scores tie often.

    Components are small integers, many vectors are exact duplicates, and
    the queries include identities with 17, 9 and no relevant gallery items.
    """
    rng = np.random.default_rng(seed)

    def vectors(n):
        v = rng.integers(-2, 3, size=(n, dim)).astype(float)
        v[~v.any(axis=1), 0] = 1.0  # cosine needs non-zero norms
        return v

    g_ids = np.concatenate([np.zeros(17, int), np.ones(9, int), rng.integers(2, 8, 54)])
    g_cams = np.concatenate([np.ones(26, int), rng.integers(0, 3, 54)])
    g_vecs = vectors(80)
    g_vecs[40:60] = g_vecs[rng.integers(0, 40, 20)]
    q_ids = np.concatenate([[0, 0, 1, 1, 99, 42], rng.integers(0, 8, 54)])
    q_cams = np.concatenate([[0, 2, 0, 2, 0, 1], rng.integers(0, 3, 54)])
    q_vecs = vectors(60)
    q_vecs[30:45] = g_vecs[rng.integers(0, 80, 15)]
    gallery = make_set(dim, [
        record(i, c, HR, v) for i, c, v in zip(g_ids.tolist(), g_cams.tolist(), g_vecs)
    ])
    query = make_set(dim, [
        record(i, c, LR2, v) for i, c, v in zip(q_ids.tolist(), q_cams.tolist(), q_vecs)
    ])
    return query, gallery


class TestEvaluateMatchesReference:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("camera_filter", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tied_scores_give_the_reference_report(self, metric, camera_filter, seed):
        query, gallery = tied_sets(seed)
        got = evaluate(query, gallery, metric, camera_filter, ks=(1, 2, 5, 10, 30))
        want = reference_evaluate(query, gallery, metric, camera_filter, ks=(1, 2, 5, 10, 30))
        assert got == want
        relevant = {len([r for r in gallery.records if r.identity == i]) for i in (0, 1)}
        assert relevant == {17, 9} and got.num_skipped >= 2

    @pytest.mark.parametrize("budget", [1, 100, 1000])
    def test_block_size_does_not_change_the_report(self, monkeypatch, budget):
        query, gallery = tied_sets(3)
        want = reference_evaluate(query, gallery)
        monkeypatch.setattr(retrieval, "EVAL_BLOCK", budget)
        assert evaluate(query, gallery) == want

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_synthetic_set_gives_the_reference_report(self, metric):
        s = generate(SynthConfig(dim=16, num_identities=40, samples_per_res=12, seed=4))
        lr, hr = split(s)
        for camera_filter in (True, False):
            assert evaluate(lr, hr, metric, camera_filter) == reference_evaluate(
                lr, hr, metric, camera_filter
            )

    def test_euclidean_overflow_rejected_without_warnings(self, recwarn):
        query = make_set(2, [record(0, 0, LR2, [1e200, 0.0])])
        gallery = make_set(2, [record(0, 1, HR, [-1e200, 0.0])])
        with pytest.raises(DataError, match="overflow"):
            evaluate(query, gallery, metric="euclidean")
        assert not recwarn.list

    @pytest.mark.parametrize("big", [1e200, -1e200])
    def test_one_non_finite_euclidean_entry_rejected(self, big, recwarn):
        # entry (0, 0) is inf - inf + inf = NaN (big == 1e200) or inf; (1, 1) is finite
        query = np.array([[1e200, 0.0], [1.0, 0.0]])
        gallery = np.array([[big, 0.0], [2.0, 0.0]])
        with pytest.raises(DataError, match="overflow"):
            retrieval._scores(query, gallery, "euclidean")
        assert not recwarn.list

    def test_euclidean_scores_peak_at_one_score_matrix(self):
        rng = np.random.default_rng(3)
        query, gallery = rng.standard_normal((2, 2000, 16))
        tracemalloc.start()
        try:
            retrieval._scores(query, gallery, "euclidean")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 2000 * 2000 * 8

    @pytest.mark.parametrize("m", [1, 7, 8, 15, 16, 31, 64])
    def test_relevant_counts_around_powers_of_two(self, m):
        rng = np.random.default_rng(m)
        g_vecs = rng.integers(-2, 3, size=(m + 40, 3)).astype(float)
        g_vecs[~g_vecs.any(axis=1), 0] = 1.0
        gallery = make_set(3, [
            record(int(i >= m), 1, HR, v) for i, v in enumerate(g_vecs)
        ])
        query = make_set(3, [
            record(0, c, LR2, g_vecs[i]) for c, i in zip((0, 2, 3), rng.integers(0, m + 40, 3))
        ])
        for metric in ("cosine", "euclidean"):
            got = evaluate(query, gallery, metric)
            assert got == reference_evaluate(query, gallery, metric)
            assert got.num_queries == 3

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("identities,per_res", [(200, 10), (2, 1000)])
    def test_peak_memory_is_about_one_score_matrix(self, metric, identities, per_res):
        s = generate(SynthConfig(
            dim=16, num_identities=identities, samples_per_res=per_res, seed=5
        ))
        lr, hr = split(s)
        for eset in (lr, hr):  # the sets' cached arrays are not evaluate's memory
            eset.matrix, eset.identity_array, eset.camera_array
        assert (len(lr), len(hr)) == (2000, 2000)
        tracemalloc.start()
        try:
            evaluate(lr, hr, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(lr) * len(hr) * 8


def random_sets(seed, num_q, num_g, ids, cameras=3, dim=64, id_p=None):
    """Queries and gallery of standard-normal vectors with drawn identities and cameras."""
    rng = np.random.default_rng(seed)

    def drawn(n, rate):
        return EmbeddingSet(rng.standard_normal((n, dim)), rng.choice(ids, n, p=id_p),
                            rng.integers(0, cameras, n), np.full(n, rate))

    return drawn(num_q, 2), drawn(num_g, 0)


def assert_matches_reference(query, gallery):
    for metric in ("cosine", "euclidean"):
        for camera_filter in (True, False):
            got = evaluate(query, gallery, metric, camera_filter, ks=(1, 2, 5, 10, 30))
            assert got == reference_evaluate(query, gallery, metric, camera_filter,
                                             ks=(1, 2, 5, 10, 30))


class TestPrunedSearchMatchesReference:
    """Only items scoring at least a query's lowest relevant score are searched."""

    def test_random_features_make_nearly_every_item_a_candidate(self):
        query, gallery = random_sets(0, 150, 400, ids=40)
        scores = retrieval._scores(query.matrix, gallery.matrix, "cosine")
        relevant = query.identity_array[:, None] == gallery.identity_array
        lowest = np.where(relevant, scores, np.inf).min(axis=1, keepdims=True)
        assert np.mean(scores >= lowest) > 0.8
        assert_matches_reference(query, gallery)

    @pytest.mark.parametrize("twin_index", [0, 3])
    def test_item_tied_with_the_lowest_relevant_score(self, twin_index):
        low = [1.0, 2.0, 2.0]  # the lowest-scoring relevant vector, at gallery index 2
        rows = [(1, 1, [2.0, 0.0, 1.0]), (0, 1, [2.0, 1.0, 0.0]), (0, 1, low),
                (4, 1, [0.0, 2.0, 1.0]), (0, 0, low), (5, 1, [-1.0, 0.0, 0.0])]
        rows.insert(twin_index, (7, 1, low))  # not relevant, scores exactly as index 2
        gallery = make_set(3, [record(i, c, HR, v) for i, c, v in rows])
        query = make_set(3, [record(0, 0, LR2, [1.0, 0.0, 0.0]),
                             record(0, 1, LR2, [2.0, 1.0, 0.0])])
        for metric in ("cosine", "euclidean"):
            scores = retrieval._scores(query.matrix, gallery.matrix, metric)
            rel = scores[:, [i for i, (ident, c, _) in enumerate(rows) if ident == 0 and c == 1]]
            assert (scores[:, twin_index] == rel.min(axis=1)).all()
        assert_matches_reference(query, gallery)

    def test_one_identity_makes_every_item_relevant(self):
        query, gallery = random_sets(1, 120, 300, ids=[0], dim=8)
        assert_matches_reference(query, gallery)

    def test_queries_whose_same_identity_items_are_all_junk(self):
        query, gallery = random_sets(2, 100, 200, ids=6, dim=8)
        on_camera_0 = gallery.identity_array == 3
        gallery = EmbeddingSet(gallery.matrix, gallery.identity_array,
                               np.where(on_camera_0, 0, gallery.camera_array),
                               gallery.rate_array)
        junk_only = (query.identity_array == 3) & (query.camera_array == 0)
        assert junk_only.sum() >= 3
        assert evaluate(query, gallery).num_skipped == junk_only.sum()
        assert_matches_reference(query, gallery)

    def test_one_element_blocks_with_mixed_relevant_counts(self, monkeypatch):
        query, gallery = random_sets(3, 80, 200, ids=5, dim=6,
                                     id_p=[0.5, 0.25, 0.15, 0.08, 0.02])
        monkeypatch.setattr(retrieval, "EVAL_BLOCK", 1)
        assert_matches_reference(query, gallery)

    @pytest.mark.parametrize("block", [1, retrieval.EVAL_BLOCK])
    def test_labels_at_0_and_the_largest_int64(self, monkeypatch, block):
        # an identity-and-camera key built from these raw values would overflow int64
        big = 2**63 - 1
        gallery_rows = ([(i, c) for i in (0, big) for c in (0, big, 0, big, big)]
                        + [(7, big)] * 2 + [(5, 1)] * 4)
        query_rows = [(i, c) for i in (0, big, 7) for c in (0, big)] * 2
        query, gallery = camera_sets(4, gallery_rows, query_rows)
        monkeypatch.setattr(retrieval, "EVAL_BLOCK", block)
        assert evaluate(query, gallery).num_skipped == 2  # id 7 on camera big: only junk
        assert evaluate(query, gallery, cross_camera_filter=False).num_skipped == 0
        assert_matches_reference(query, gallery)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_one_identity_peak_memory_is_under_1_3_score_matrices(self, metric):
        s = generate(SynthConfig(dim=16, num_identities=1, samples_per_res=2000, seed=5))
        lr, hr = split(s)
        for eset in (lr, hr):  # the sets' cached arrays are not evaluate's memory
            eset.matrix, eset.identity_array, eset.camera_array
        assert (len(lr), len(hr)) == (2000, 2000)
        tracemalloc.start()
        try:
            evaluate(lr, hr, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * len(lr) * len(hr) * 8


def camera_sets(seed, gallery_rows, query_rows, dim=3):
    """Sets from (identity, camera) lists, with small-integer vectors that tie
    often; the gallery rows are shuffled so no identity's columns are adjacent."""
    rng = np.random.default_rng(seed)

    def built(rows, rate):
        vecs = rng.integers(-2, 3, size=(len(rows), dim)).astype(float)
        vecs[~vecs.any(axis=1), 0] = 1.0  # cosine needs non-zero norms
        ids, cams = np.array(rows).T
        return EmbeddingSet(vecs, ids, cams, np.full(len(rows), rate))

    return built(query_rows, LR2), built(
        [gallery_rows[i] for i in rng.permutation(len(gallery_rows))], HR)


class TestBlockPaths:
    """Every block is a run of consecutive query rows, each with its own m,
    ranked inside evaluate's score matrix; each gives the reference report."""

    def check(self, monkeypatch, query, gallery):
        monkeypatch.setattr(retrieval, "EVAL_BLOCK", 3 * len(gallery))  # 3-row blocks
        def arrays():
            return [a.tobytes() for s in (query, gallery)
                    for a in (s.matrix, s.identity_array, s.camera_array, s.rate_array)]

        kept, scored, score = arrays(), [], retrieval._scores

        def kept_scores(*args):  # evaluate's own score matrix, kept for inspection
            scored.append(score(*args))
            return scored[-1]

        monkeypatch.setattr(retrieval, "_scores", kept_scores)
        for metric in ("cosine", "euclidean"):
            for camera_filter in (True, False):
                got = evaluate(query, gallery, metric, camera_filter, ks=(1, 2, 5))
                assert got == reference_evaluate(query, gallery, metric, camera_filter,
                                                 ks=(1, 2, 5))
        assert arrays() == kept
        return scored  # cosine then euclidean, camera filter on then off

    def test_one_group_of_consecutive_rows_is_ranked_in_place(self, monkeypatch):
        # two items per camera 0..2 for ids 0..5: with the filter every query keeps
        # m = 4 relevant items, without it m = 6, so all 10 queries form one group
        gallery_rows = [(i, c) for i in range(6) for c in (0, 0, 1, 1, 2, 2)] + [(9, 1)] * 5
        rng = np.random.default_rng(1)
        query_rows = list(zip(rng.integers(0, 6, 10).tolist(), rng.integers(0, 3, 10).tolist()))
        query, gallery = camera_sets(1, gallery_rows, query_rows)
        scored = self.check(monkeypatch, query, gallery)
        # junk went into evaluate's own matrix: two items per query, filter on only
        assert [np.isneginf(s).sum() for s in scored] == [20, 0, 20, 0]

    def test_interleaved_relevant_counts_are_ranked_in_place(self, monkeypatch):
        # ids 0 and 1 keep 2 and 3 relevant items (3 and 4 without the filter);
        # their queries alternate row by row, so every block mixes the two
        gallery_rows = [(0, 1), (0, 1), (0, 0), (1, 1), (1, 1), (1, 1), (1, 0)] + [(9, 2)] * 6
        query_rows = [(i % 2, 0) for i in range(10)]
        query, gallery = camera_sets(2, gallery_rows, query_rows)
        scored = self.check(monkeypatch, query, gallery)
        # junk went into evaluate's own matrix: one item per query, filter on only
        assert [np.isneginf(s).sum() for s in scored] == [10, 0, 10, 0]

    def test_blocks_that_start_with_skipped_rows(self, monkeypatch):
        # with the filter, ids 0 and 1 keep m = 2 and 3, id 2 only has junk and
        # id 5 is not in the gallery, so both are skipped (m = 0); the first block
        # starts with a skipped row and mixes m = 0, 2, 3, the second skips all three
        gallery_rows = [(0, 1), (0, 1), (0, 0), (1, 1), (1, 1), (1, 1), (1, 0),
                        (2, 0), (2, 0)] + [(9, 2)] * 6
        query_rows = [(5, 0), (0, 0), (1, 0), (2, 0), (5, 1), (2, 0), (0, 0), (1, 0),
                      (2, 0), (1, 0)]
        query, gallery = camera_sets(3, gallery_rows, query_rows)
        assert evaluate(query, gallery).num_skipped == 5
        assert evaluate(query, gallery, cross_camera_filter=False).num_skipped == 2
        scored = self.check(monkeypatch, query, gallery)
        assert [np.isneginf(s).sum() for s in scored] == [11, 0, 11, 0]

    def test_gallery_shaped_set_at_the_default_block(self):
        # three rates and 5 HR samples on cameras 0, 1, 0, 1, 0: queries on camera 0
        # keep m = 2, those on camera 1 m = 3, alternating row by row in every block
        s = generate(SynthConfig(dim=16, num_identities=100, samples_per_res=5,
                                 shift_magnitude={2: 2.0, 3: 3.0, 4: 4.0}, rates=(2, 3, 4),
                                 seed=7))
        lr, hr = split(s)
        assert (len(lr), len(hr)) == (1500, 500)
        assert lr.camera_array[:5].tolist() == [0, 1, 0, 1, 0]
        assert_matches_reference(lr, hr)


class TestCentroids:
    def test_identical_sets_have_zero_distances(self):
        s = generate(SynthConfig(num_identities=6, seed=9))
        distances = centroid_distances(s, s)
        assert all(d == 0.0 for d in distances.values())

    def test_no_shared_identities_rejected(self):
        a = make_set(2, [record(0, 0, HR, [1, 2])])
        b = make_set(2, [record(1, 0, LR2, [1, 2])])
        with pytest.raises(DataError, match="share"):
            centroid_distances(a, b)

    def test_centroids_equal_the_record_loop(self):
        rng = np.random.default_rng(13)
        ids = rng.integers(0, 9, size=80)
        s = make_set(5, [record(int(i), 0, HR, rng.standard_normal(5)) for i in ids])
        sums, counts = {}, {}
        for rec in s.records:  # the loop the vectorized sum replaced, in record order
            if rec.identity in sums:
                sums[rec.identity] = sums[rec.identity] + rec.vector
            else:
                sums[rec.identity] = rec.vector.copy()
            counts[rec.identity] = counts.get(rec.identity, 0) + 1
        got = retrieval._identity_centroids(s)
        assert sorted(got) == sorted(sums)
        for i in sums:
            assert got[i].tobytes() == (sums[i] / counts[i]).tobytes()

    def test_compare_computes_hr_centroids_once(self, monkeypatch):
        _, hr = split(generate(SynthConfig(dim=4, num_identities=5, seed=14)))
        before = generate(SynthConfig(dim=4, num_identities=5, seed=15))
        after = generate(SynthConfig(dim=4, num_identities=5, seed=16))
        seen = []
        real = retrieval._identity_centroids
        monkeypatch.setattr(retrieval, "_identity_centroids", lambda e: seen.append(e) or real(e))
        report = compare_centroids(hr, before, after)
        assert [e is hr for e in seen].count(True) == 1 and len(seen) == 3
        monkeypatch.undo()
        for i, row in report.per_identity.items():
            assert row.distance_before == centroid_distances(hr, before)[i]
            assert row.distance_after == centroid_distances(hr, after)[i]

    def test_reduction_arithmetic(self):
        hr = make_set(2, [record(0, 0, HR, [0.0, 0.0])])
        before = make_set(2, [record(0, 0, LR2, [2.0, 0.0])])
        after = make_set(2, [record(0, 0, LR2, [1.0, 0.0])])
        report = compare_centroids(hr, before, after)
        row = report.per_identity[0]
        assert row.distance_before == 2.0
        assert row.distance_after == 1.0
        assert row.reduction == pytest.approx(0.5)
        assert report.mean_reduction == pytest.approx(0.5)


class TestProject2d:
    def test_axis_aligned_plane_is_reproduced(self):
        # zero cross-covariance, larger spread on x: components are the
        # coordinate axes and the output reproduces the centered data
        pts = [(-2.0, 0.0), (2.0, 0.0), (0.0, -1.0), (0.0, 1.0)]
        s = make_set(2, [record(i, 0, HR, p) for i, p in enumerate(pts)])
        rows = project_2d([s])
        arr = np.array([[x, y] for _, _, x, y in rows])
        np.testing.assert_allclose(arr, np.array(pts), atol=1e-12)

    def test_duplicates_map_to_identical_coordinates(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (1.0, 2.0), (3.0, -1.0)]
        s = make_set(2, [record(i, 0, HR, p) for i, p in enumerate(pts)])
        rows = project_2d([s])
        assert rows[1][2:] == rows[2][2:]

    def test_rank_deficient_data_rejected(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]  # collinear
        s = make_set(2, [record(i, 0, HR, p) for i, p in enumerate(pts)])
        with pytest.raises(DataError, match="rank"):
            project_2d([s])

    def test_identity_restriction(self):
        s = generate(SynthConfig(dim=8, num_identities=20, samples_per_res=2, seed=10))
        rows = project_2d([s], num_identities=12)
        assert {identity for identity, _, _, _ in rows} == set(range(12))

    @pytest.mark.parametrize("num", [0, -1])
    def test_identity_count_below_one_rejected(self, num):
        s = generate(SynthConfig(dim=8, num_identities=3, samples_per_res=2, seed=10))
        with pytest.raises(ValueError, match=rf"num_identities must be at least 1, got {num}$"):
            project_2d([s], num_identities=num)

    def test_rows_follow_pooled_record_order_of_the_kept_identities(self):
        rng = np.random.default_rng(17)
        a = make_set(3, [record(i, 0, HR if k % 2 else LR2, rng.standard_normal(3))
                             for k, i in enumerate([5, 1, 9, 1, 3, 7, 5])])
        b = a.partition(a.identity_array != 3)
        rows = project_2d([a, b], num_identities=3)
        kept = [r for s in (a, b) for r in s.records if r.identity in (1, 3, 5)]
        assert [(i, rate) for i, rate, _, _ in rows] == [
            (r.identity, r.resolution.rate) for r in kept]
        assert all(type(v) is int for i, rate, _, _ in rows for v in (i, rate))
        assert all(type(v) is float for _, _, x, y in rows for v in (x, y))

    def test_sets_of_different_dimensions_rejected(self):
        a = generate(SynthConfig(dim=8, num_identities=3, samples_per_res=2, seed=10))
        b = generate(SynthConfig(dim=6, num_identities=3, samples_per_res=2, seed=10))
        with pytest.raises(ValueError, match="^sets have different dimensions$"):
            project_2d([a, b])

    def test_planted_gap_shrinks_after_panning_in_2d(self):
        cfg = SynthConfig(num_identities=12, seed=11)
        s = generate(cfg)
        cfg = TrainConfig(epochs=15, num_pairs=500, seed=1)
        params, _ = train(*training_pairs(s, cfg), NetConfig(dim=64, hidden=64), cfg)
        panned = apply_panning(params, s)

        def mean_2d_gap(eset):
            rows = project_2d([eset], num_identities=12)
            gaps = []
            for identity in range(12):
                hr_pts = [(x, y) for i, rate, x, y in rows
                          if i == identity and rate == 0]
                lr_pts = [(x, y) for i, rate, x, y in rows
                          if i == identity and rate != 0]
                gaps.append(np.linalg.norm(
                    np.mean(hr_pts, axis=0) - np.mean(lr_pts, axis=0)
                ))
            return float(np.mean(gaps))

        assert mean_2d_gap(panned) < 0.25 * mean_2d_gap(s)
