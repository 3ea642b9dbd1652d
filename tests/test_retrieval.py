import tracemalloc

import numpy as np
import pytest

from vpfa import retrieval
from vpfa.embeddings import EmbeddingRecord, EmbeddingSet, Resolution
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
from vpfa.trainer import TrainConfig, train
from vpfa.vpnet import NetConfig, forward, init_params

HR = Resolution(0)
LR2 = Resolution(2)


def record(identity, camera, res, vec):
    return EmbeddingRecord(identity, camera, res, np.asarray(vec, dtype=float))


def gallery_at_distances(query_vec, distances, identities):
    """Gallery records placed at exact Euclidean distances from the query."""
    dim = len(query_vec)
    records = []
    for i, (dist, identity) in enumerate(zip(distances, identities)):
        v = np.array(query_vec, dtype=float)
        v[0] += dist
        records.append(record(identity, 1, HR, v))
    return EmbeddingSet(dim, records)


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

    def test_rows_equal_one_forward_of_the_selected_rows(self):
        s = generate(SynthConfig(dim=8, num_identities=6, rates=(2, 3),
                                 shift_magnitude={2: 1.0, 3: 2.0}, seed=4))
        params = init_params(8, 4, init_std=0.5, seed=5)
        for target, chosen in (("lr", s.rate_array != 0), ("all", np.ones(len(s), bool))):
            out = apply_panning(params, s, target=target)
            expected = s.matrix.copy()
            expected[chosen] = forward(params, s.matrix[chosen])[0]
            assert out.matrix.tobytes() == expected.tobytes()
            for name in ("identity_array", "camera_array", "rate_array"):
                assert getattr(out, name).tobytes() == getattr(s, name).tobytes()

    def test_non_finite_output_rejected(self):
        s = generate(SynthConfig(dim=4, num_identities=2, samples_per_res=2, seed=6))
        params = init_params(4, 3, init_std=0.5, seed=7)
        params.b4[...] = np.nan  # the residual, and so every panned row, is NaN
        with pytest.raises(ValueError, match="non-finite value in record 2"):
            apply_panning(params, s)  # record 2 is the first LR record

    def test_trained_panning_pulls_centroids_closer(self):
        train_set = generate(SynthConfig(num_identities=100, seed=7))
        params, _ = train(
            train_set, NetConfig(dim=64, hidden=64),
            TrainConfig(epochs=15, num_pairs=1000, seed=0),
        )
        fresh_cfg = SynthConfig(num_identities=50, seed=21, direction_seed=7)
        fresh = generate(fresh_cfg)
        panned = apply_panning(params, fresh)
        # direct centroid computation on both sets, per identity
        closer = 0
        total = 0
        for identity in fresh.identities():
            own = fresh.identity_array == identity  # panned keeps fresh's row labels
            hr = fresh.matrix[own & (fresh.rate_array == HR.rate)].mean(axis=0)
            before = fresh.matrix[own & (fresh.rate_array == LR2.rate)].mean(axis=0)
            after = panned.matrix[own & (panned.rate_array == LR2.rate)].mean(axis=0)
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
        query = EmbeddingSet(2, [record(0, 0, LR2, [1.0, 0.0])])
        gallery = EmbeddingSet(2, [
            record(0, 1, HR, [0.9, 0.1]),
            record(1, 1, HR, [-1.0, 0.0]),
        ])
        report = evaluate(query, gallery)
        assert report.rank_k[1] == 1.0
        assert report.mean_ap == 1.0
        assert report.num_queries == 1

    def test_hand_computed_average_precision(self):
        # two relevant items at ranks 1 and 3 of 5: AP = (1/1 + 2/3) / 2
        query = EmbeddingSet(2, [record(0, 0, LR2, [0.0, 0.0])])
        gallery = gallery_at_distances(
            [0.0, 0.0], distances=[1, 2, 3, 4, 5], identities=[0, 1, 0, 1, 1]
        )
        report = evaluate(query, gallery, metric="euclidean",
                          cross_camera_filter=False)
        assert report.mean_ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert report.rank_k[1] == 1.0

    def test_cmc_monotone_and_bounded(self):
        s = generate(SynthConfig(num_identities=30, seed=4))
        lr = s.partition(lambda r: r.resolution.is_lr)
        hr = s.partition(lambda r: r.resolution.is_hr)
        report = evaluate(lr, hr)
        assert 0 <= report.rank_k[1] <= report.rank_k[5] <= report.rank_k[10] <= 1
        assert 0 <= report.mean_ap <= 1

    def test_global_scaling_leaves_report_unchanged(self):
        s = generate(SynthConfig(num_identities=20, seed=5))
        lr = s.partition(lambda r: r.resolution.is_lr)
        hr = s.partition(lambda r: r.resolution.is_hr)
        scaled = EmbeddingSet(
            s.dim,
            [record(r.identity, r.camera, r.resolution, 2.5 * r.vector)
             for r in s.records],
        )
        slr = scaled.partition(lambda r: r.resolution.is_lr)
        shr = scaled.partition(lambda r: r.resolution.is_hr)
        for metric in ("cosine", "euclidean"):
            a = evaluate(lr, hr, metric=metric)
            b = evaluate(slr, shr, metric=metric)
            assert a.rank_k == b.rank_k
            assert a.mean_ap == pytest.approx(b.mean_ap, abs=1e-12)

    def test_ties_break_by_gallery_index(self):
        query = EmbeddingSet(2, [record(0, 0, LR2, [1.0, 0.0])])
        twin = [1.0, 0.0]
        gallery = EmbeddingSet(2, [
            record(5, 1, HR, twin),
            record(0, 1, HR, twin),
        ])
        report = evaluate(query, gallery, cross_camera_filter=False)
        # both gallery vectors tie at similarity 1; index 0 (identity 5) wins
        assert report.rank_k[1] == 0.0
        assert report.rank_k[5] == 1.0

    def test_camera_filter_excludes_same_id_same_camera(self):
        query = EmbeddingSet(2, [record(0, 0, LR2, [1.0, 0.0])])
        gallery = EmbeddingSet(2, [
            record(0, 0, HR, [1.0, 0.0]),    # same identity, same camera: junk
            record(1, 1, HR, [0.9, 0.1]),
            record(0, 1, HR, [0.5, 0.5]),    # the legitimate match
        ])
        filtered = evaluate(query, gallery, cross_camera_filter=True)
        unfiltered = evaluate(query, gallery, cross_camera_filter=False)
        assert unfiltered.rank_k[1] == 1.0
        assert filtered.rank_k[1] == 0.0  # match now sits at rank 2

    def test_queries_without_relevant_items_are_skipped(self):
        query = EmbeddingSet(2, [
            record(0, 0, LR2, [1.0, 0.0]),
            record(9, 0, LR2, [0.0, 1.0]),  # identity absent from gallery
        ])
        gallery = EmbeddingSet(2, [record(0, 1, HR, [1.0, 0.1])])
        report = evaluate(query, gallery)
        assert report.num_queries == 1
        assert report.num_skipped == 1

    def test_all_skipped_is_an_error(self):
        query = EmbeddingSet(2, [record(9, 0, LR2, [1.0, 0.0])])
        gallery = EmbeddingSet(2, [record(0, 1, HR, [1.0, 0.1])])
        with pytest.raises(DataError, match="skipped"):
            evaluate(query, gallery)

    def test_empty_gallery_rejected(self):
        query = EmbeddingSet(2, [record(0, 0, LR2, [1.0, 0.0])])
        with pytest.raises(DataError, match="gallery"):
            evaluate(query, EmbeddingSet(2))

    def test_repeated_runs_identical(self):
        s = generate(SynthConfig(num_identities=15, seed=6))
        lr = s.partition(lambda r: r.resolution.is_lr)
        hr = s.partition(lambda r: r.resolution.is_hr)
        assert evaluate(lr, hr) == evaluate(lr, hr)

    def test_per_query_table_covers_evaluated_queries(self):
        s = generate(SynthConfig(num_identities=10, seed=8))
        lr = s.partition(lambda r: r.resolution.is_lr)
        hr = s.partition(lambda r: r.resolution.is_hr)
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
    for qi, rec in enumerate(query.records):
        ranked = order[qi]
        if cross_camera_filter:
            junk = (g_ids[ranked] == rec.identity) & (g_cams[ranked] == rec.camera)
            ranked = ranked[~junk]
        matches = g_ids[ranked] == rec.identity
        if not matches.any():
            skipped += 1
            continue
        first = int(np.argmax(matches))
        for k in ks:
            if first < k:
                hits[k] += 1
        cum = np.cumsum(matches)
        precision_at_hits = cum[matches] / (np.flatnonzero(matches) + 1.0)
        per_query.append((qi, rec.identity, float(precision_at_hits.mean())))
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
    gallery = EmbeddingSet(dim, [
        record(i, c, HR, v) for i, c, v in zip(g_ids.tolist(), g_cams.tolist(), g_vecs)
    ])
    query = EmbeddingSet(dim, [
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
        lr = s.partition(lambda r: r.resolution.is_lr)
        hr = s.partition(lambda r: r.resolution.is_hr)
        for camera_filter in (True, False):
            assert evaluate(lr, hr, metric, camera_filter) == reference_evaluate(
                lr, hr, metric, camera_filter
            )

    def test_euclidean_overflow_rejected_without_warnings(self, recwarn):
        query = EmbeddingSet(2, [record(0, 0, LR2, [1e200, 0.0])])
        gallery = EmbeddingSet(2, [record(0, 1, HR, [-1e200, 0.0])])
        with pytest.raises(DataError, match="overflow"):
            evaluate(query, gallery, metric="euclidean")
        assert not recwarn.list

    @pytest.mark.parametrize("m", [1, 7, 8, 15, 16, 31, 64])
    def test_relevant_counts_around_powers_of_two(self, m):
        rng = np.random.default_rng(m)
        g_vecs = rng.integers(-2, 3, size=(m + 40, 3)).astype(float)
        g_vecs[~g_vecs.any(axis=1), 0] = 1.0
        gallery = EmbeddingSet(3, [
            record(int(i >= m), 1, HR, v) for i, v in enumerate(g_vecs)
        ])
        query = EmbeddingSet(3, [
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
        lr = s.partition(lambda r: r.resolution.is_lr)
        hr = s.partition(lambda r: r.resolution.is_hr)
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


class TestCentroids:
    def test_identical_sets_have_zero_distances(self):
        s = generate(SynthConfig(num_identities=6, seed=9))
        distances = centroid_distances(s, s)
        assert all(d == 0.0 for d in distances.values())

    def test_no_shared_identities_rejected(self):
        a = EmbeddingSet(2, [record(0, 0, HR, [1, 2])])
        b = EmbeddingSet(2, [record(1, 0, LR2, [1, 2])])
        with pytest.raises(DataError, match="share"):
            centroid_distances(a, b)

    def test_centroids_equal_the_record_loop(self):
        rng = np.random.default_rng(13)
        ids = rng.integers(0, 9, size=80)
        s = EmbeddingSet(5, [record(int(i), 0, HR, rng.standard_normal(5)) for i in ids])
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
        hr = generate(SynthConfig(dim=4, num_identities=5, seed=14)).partition(lambda r: r.resolution.is_hr)
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
        hr = EmbeddingSet(2, [record(0, 0, HR, [0.0, 0.0])])
        before = EmbeddingSet(2, [record(0, 0, LR2, [2.0, 0.0])])
        after = EmbeddingSet(2, [record(0, 0, LR2, [1.0, 0.0])])
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
        s = EmbeddingSet(2, [record(i, 0, HR, p) for i, p in enumerate(pts)])
        rows = project_2d([s])
        arr = np.array([[x, y] for _, _, x, y in rows])
        np.testing.assert_allclose(arr, np.array(pts), atol=1e-12)

    def test_duplicates_map_to_identical_coordinates(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (1.0, 2.0), (3.0, -1.0)]
        s = EmbeddingSet(2, [record(i, 0, HR, p) for i, p in enumerate(pts)])
        rows = project_2d([s])
        assert rows[1][2:] == rows[2][2:]

    def test_rank_deficient_data_rejected(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]  # collinear
        s = EmbeddingSet(2, [record(i, 0, HR, p) for i, p in enumerate(pts)])
        with pytest.raises(DataError, match="rank"):
            project_2d([s])

    def test_identity_restriction(self):
        s = generate(SynthConfig(dim=8, num_identities=20, samples_per_res=2, seed=10))
        rows = project_2d([s], num_identities=12)
        assert {identity for identity, _, _, _ in rows} == set(range(12))

    def test_rows_follow_pooled_record_order_of_the_kept_identities(self):
        rng = np.random.default_rng(17)
        a = EmbeddingSet(3, [record(i, 0, HR if k % 2 else LR2, rng.standard_normal(3))
                             for k, i in enumerate([5, 1, 9, 1, 3, 7, 5])])
        b = a.partition(a.identity_array != 3)
        rows = project_2d([a, b], num_identities=3)
        kept = [r for s in (a, b) for r in s.records if r.identity in (1, 3, 5)]
        assert [(i, res) for i, res, _, _ in rows] == [(r.identity, r.resolution) for r in kept]
        assert all(type(v) is float for _, _, x, y in rows for v in (x, y))

    def test_planted_gap_shrinks_after_panning_in_2d(self):
        cfg = SynthConfig(num_identities=12, seed=11)
        s = generate(cfg)
        params, _ = train(
            s, NetConfig(dim=64, hidden=64),
            TrainConfig(epochs=15, num_pairs=500, seed=1),
        )
        panned = apply_panning(params, s)

        def mean_2d_gap(eset):
            rows = project_2d([eset], num_identities=12)
            gaps = []
            for identity in range(12):
                hr_pts = [(x, y) for i, res, x, y in rows
                          if i == identity and res.is_hr]
                lr_pts = [(x, y) for i, res, x, y in rows
                          if i == identity and res.is_lr]
                gaps.append(np.linalg.norm(
                    np.mean(hr_pts, axis=0) - np.mean(lr_pts, axis=0)
                ))
            return float(np.mean(gaps))

        assert mean_2d_gap(panned) < 0.25 * mean_2d_gap(s)
