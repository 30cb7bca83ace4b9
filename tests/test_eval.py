import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import kendall_tau, objective_labels, oracle_softmax, primary_labels

from moltr import data, distill, evaluation, nn
from moltr.errors import InputError


def small_dataset(num_queries=40, seed=2, **kwargs):
    config = data.GeneratorConfig(
        num_queries=num_queries, items_per_query=(4, 6), m=6, K=2, seed=seed, **kwargs
    )
    return data.generate_dataset(config)


def model_for(dataset, seed=1, epochs=3):
    config = distill.DistillConfig(
        mlp=nn.MlpConfig(layer_dims=(dataset.m, 8, 1), init_scale=0.3, seed=seed),
        alpha=1.0,
        epochs=epochs,
    )
    return distill.train_teacher(dataset, 0, config)


class TestRankOrder:
    def test_descending(self):
        order = evaluation.rank_order(np.array([0.1, 0.9, 0.5]))
        assert order.tolist() == [1, 2, 0]

    def test_tie_break_by_item_id(self):
        order = evaluation.rank_order(np.array([0.5, 0.5]), np.array([7, 3]))
        assert order.tolist() == [1, 0]

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=25), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_reference(self, int_scores, seed):
        # Few distinct scores, so most items tie and the id order decides.
        scores = np.array(int_scores, dtype=np.float64) / 2.0
        ids = np.random.default_rng(seed).permutation(100)[: len(scores)]
        want = sorted(range(len(scores)), key=lambda j: (-scores[j], ids[j]))
        assert evaluation.rank_order(scores, ids).tolist() == want


class TestNdcg:
    def test_perfect_ranking(self):
        assert evaluation.ndcg_at_k([3.0, 2.0, 1.0], [1, 0, 0], 3) == 1.0

    def test_relevant_at_rank_two(self):
        # Single relevant item at rank 2 of 3: 1/log2(3).
        out = evaluation.ndcg_at_k([2.0, 3.0, 1.0], [1, 0, 0], 3)
        assert out == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert out == pytest.approx(0.63093, abs=1e-5)

    def test_relevant_outside_cutoff(self):
        assert evaluation.ndcg_at_k([1.0, 2.0, 3.0], [1, 0, 0], 2) == 0.0

    def test_no_relevant_items(self):
        assert evaluation.ndcg_at_k([1.0, 2.0], [0, 0], None) == 0.0

    def test_k_none_is_full_list(self):
        scores = [3.0, 1.0, 2.0, 0.5]
        labels = [0, 1, 0, 0]
        assert evaluation.ndcg_at_k(scores, labels, None) == evaluation.ndcg_at_k(
            scores, labels, 4
        )

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            evaluation.ndcg_at_k([1.0], [1, 0], 1)

    @given(st.integers(2, 14), st.integers(0, 2**31), st.sampled_from([1, 3, 5, 10, None]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition_exactly(self, n, seed, k):
        # Any number of relevant items, tied scores, and cutoffs on both
        # sides of n; the sums run best rank first.
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 3, size=n).astype(float)
        labels = rng.integers(0, 2, size=n)
        order = sorted(range(n), key=lambda j: (-scores[j], j))
        cut = n if k is None else min(k, n)
        dcg = 0.0
        for pos in range(cut):
            if labels[order[pos]]:
                dcg += 1.0 / math.log2(pos + 2)
        total = int(labels.sum())
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(total, cut) + 1))
        want = dcg / ideal if total else 0.0
        assert evaluation.ndcg_at_k(scores, labels, k) == want

    @given(st.integers(2, 10), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_max_at_perfect(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = np.zeros(n)
        labels[rng.integers(n)] = 1
        val = evaluation.ndcg_at_k(scores, labels, None)
        assert 0.0 < val <= 1.0
        assert evaluation.ndcg_at_k(labels.astype(float), labels, None) == 1.0


class TestExposure:
    def test_half_flagged_top(self):
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        flags = np.array([True, False, True, False])
        assert evaluation.exposure_rate(scores, flags, 2) == 0.5
        assert evaluation.exposure_rate(scores, flags, 1) == 1.0

    def test_k_clamps_to_n(self):
        scores = np.array([1.0, 2.0])
        flags = np.array([True, True])
        assert evaluation.exposure_rate(scores, flags, 10) == 1.0

    def test_no_flags(self):
        assert evaluation.exposure_rate(np.ones(3), np.zeros(3, bool), 2) == 0.0

    def test_monotone_in_flagged_scores(self):
        flags = np.array([True, False, False, False])
        low = evaluation.exposure_rate(np.array([0.0, 3.0, 2.0, 1.0]), flags, 2)
        high = evaluation.exposure_rate(np.array([9.0, 3.0, 2.0, 1.0]), flags, 2)
        assert high > low


def sxs_tau(ranking_a, ranking_b):
    """sxs_report's mean_tau on one query of the given distinct items whose
    two score vectors rank them as ranking_a and ranking_b, best first."""
    n = len(ranking_a)
    ds = data.generate_dataset(data.GeneratorConfig(
        num_queries=1, items_per_query=(n, n), m=6, K=2, seed=0
    ))
    ds.groups = [replace(ds.groups[0], item_ids=ranking_a)]
    (g,) = ds.groups

    def scores(ranking):
        pos = {item: i for i, item in enumerate(ranking)}
        return {g.query_id: -np.array([pos[item] for item in g.item_ids.tolist()], dtype=float)}

    return evaluation.sxs_report(scores(ranking_a), scores(ranking_b), ds).mean_tau


class TestKendallTau:
    @given(st.integers(0, 2**31), st.integers(2, 30))
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_loop_exactly(self, seed, n):
        rng = np.random.default_rng(seed)
        a = list(rng.permutation(n) + 10)
        b = list(rng.permutation(a))
        assert sxs_tau(a, b) == kendall_tau(a, b)

    def test_identical(self):
        assert sxs_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed(self):
        assert sxs_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_swap(self):
        assert sxs_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0)

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        tau = sxs_tau(a, b)
        assert -1.0 <= tau <= 1.0
        assert tau == pytest.approx(sxs_tau(b, a))


class TestPredictionDifference:
    def test_identical(self):
        assert evaluation.prediction_difference([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_hand_computed(self):
        # |1 - 3| / 2 = 1 for the single pair (1, 3).
        assert evaluation.prediction_difference([1.0], [3.0]) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            evaluation.prediction_difference([0.0, 1.0], [1.0, 1.0])

    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20),
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        pd = evaluation.prediction_difference(a, b)
        assert 0.0 <= pd < 2.0
        assert pd == pytest.approx(evaluation.prediction_difference(b, a))


class TestServeWithBoost:
    def test_adds_gamma_to_matches(self):
        ds = small_dataset(num_queries=5, new_item_fraction=0.5)
        model = model_for(ds, epochs=1)
        rule = distill.BoostRule(predicate="is_new", beta=0.0)
        g = ds.groups[0]
        base = model.score_group(g)
        boosted = evaluation.serve_with_boost(model, g, rule, gamma=2.0)
        mask = rule.match_mask(g)
        assert np.allclose(boosted - base, 2.0 * mask)

    def test_zero_gamma_identity(self):
        ds = small_dataset(num_queries=5)
        model = model_for(ds, epochs=1)
        rule = distill.BoostRule(predicate="is_new", beta=0.0)
        g = ds.groups[0]
        assert np.array_equal(
            evaluation.serve_with_boost(model, g, rule, 0.0), model.score_group(g)
        )


class TestSxS:
    def test_self_comparison_is_clean(self):
        ds = small_dataset()
        model = model_for(ds)
        report = evaluation.sxs_change_rate(model, model, ds)
        assert report.change_rate == 0.0
        assert report.mean_tau == 1.0
        assert report.pd == 0.0
        assert report.query_count == len(ds)

    def test_different_models_differ(self):
        ds = small_dataset()
        report = evaluation.sxs_change_rate(
            model_for(ds, seed=1), model_for(ds, seed=2), ds
        )
        assert report.change_rate > 0.0
        assert report.pd > 0.0
        assert report.mean_tau < 1.0

    def test_threshold_sensitivity(self):
        ds = small_dataset()
        a, b = model_for(ds, seed=1), model_for(ds, seed=2)
        strict = evaluation.sxs_change_rate(a, b, ds, tau_threshold=0.0)
        loose = evaluation.sxs_change_rate(a, b, ds, tau_threshold=0.9)
        assert strict.change_rate >= loose.change_rate

    def test_models_are_compared_on_their_serving_scores(self):
        ds = small_dataset()
        a, b = model_for(ds, seed=1), model_for(ds, seed=2)
        served = [{g.query_id: m.score_group(g) for g in ds.groups} for m in (a, b)]
        want = evaluation.sxs_report(*served, ds, tau_threshold=0.1)
        assert evaluation.sxs_change_rate(a, b, ds, tau_threshold=0.1) == want

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "distinct"])
    def test_report_equals_the_kendall_tau_loop(self, tied):
        # Lists of 2 to 30 items with shuffled ids, so a tie is broken by an
        # id order that differs from the row order.
        ds = data.generate_dataset(data.GeneratorConfig(
            num_queries=60, items_per_query=(2, 30), m=6, K=2, seed=5
        ))
        rng = np.random.default_rng(3)
        ds.groups = [replace(g, item_ids=rng.permutation(g.item_ids)) for g in ds.groups]

        def draw(g):
            if tied:
                return rng.integers(0, 3, size=g.size).astype(float)
            return rng.normal(size=g.size)

        a, b = ({g.query_id: draw(g) for g in ds.groups} for _ in range(2))
        changed, taus, probs_a, probs_b = 0, [], [], []
        for g in ds.groups:
            sa, sb, ids = a[g.query_id], b[g.query_id], g.item_ids
            tau = kendall_tau(
                ids[evaluation.rank_order(sa, ids)], ids[evaluation.rank_order(sb, ids)]
            )
            taus.append(tau)
            changed += (1.0 - tau) / 2.0 > 0.1
            probs_a.append(oracle_softmax(sa))
            probs_b.append(oracle_softmax(sb))
        want = evaluation.SxSReport(
            change_rate=changed / len(ds),
            mean_tau=float(math.fsum(taus) / len(taus)),
            pd=evaluation.prediction_difference(np.concatenate(probs_a), np.concatenate(probs_b)),
            tau_threshold=0.1,
            query_count=len(ds),
        )
        assert 0 < changed < len(ds)
        got = evaluation.sxs_report(a, b, ds, tau_threshold=0.1)
        assert got == want

    def test_a_softmax_that_underflows_still_has_a_pd(self):
        # Lists of 8 to 12 items 100 apart: exp(-800) and below underflow
        # to 0, and every item but a list's top one is under PROB_FLOOR.
        ds = data.generate_dataset(data.GeneratorConfig(num_queries=3, m=6, K=2, seed=2))
        a = {g.query_id: np.arange(g.size) * 100.0 for g in ds.groups}
        b = {g.query_id: -np.arange(g.size) * 100.0 for g in ds.groups}
        report = evaluation.sxs_report(a, b, ds)
        assert (report.change_rate, report.mean_tau) == (1.0, -1.0)
        # Only each list's two ends differ, each by about 2 (1 against the floor).
        items = sum(g.size for g in ds.groups)
        assert report.pd == pytest.approx(2.0 * 2 * len(ds) / items, rel=1e-9)

    def test_empty_dataset(self):
        ds = small_dataset()
        empty = data.Dataset(
            objectives=list(ds.objectives), groups=[], m=ds.m, K=ds.K
        )
        with pytest.raises(InputError):
            evaluation.sxs_change_rate(model_for(ds), model_for(ds), empty)


class TestReport:
    def test_report_shape_and_bounds(self):
        ds = small_dataset()
        model = model_for(ds)
        scores = distill.score_dataset(model, ds)
        rule = distill.BoostRule(predicate="is_new", beta=0.0)
        report = evaluation.ranking_metrics_report(scores, ds, boost_rule=rule)
        assert report.query_count == len(ds)
        assert 0.0 <= report.ndcg_at_5 <= 1.0
        assert 0.0 <= report.ndcg_at_10 <= 1.0
        assert 0.0 <= report.ndcg_full <= 1.0
        assert len(report.objective_exposure_at_10) == ds.K
        assert 0.0 <= report.boosted_exposure_at_10 <= 1.0
        d = report.to_dict()
        assert d["query_count"] == len(ds)

    def test_trained_beats_random_ndcg(self):
        ds = small_dataset(num_queries=300)
        trained = distill.score_dataset(model_for(ds, epochs=8), ds)
        rng = np.random.default_rng(0)
        random_scores = {
            g.query_id: rng.normal(size=g.size) for g in ds.groups
        }
        assert evaluation.mean_ndcg(trained, ds) > evaluation.mean_ndcg(
            random_scores, ds
        ) + 0.05

    def test_boost_rule_none_gives_none(self):
        ds = small_dataset(num_queries=5)
        scores = distill.score_dataset(model_for(ds, epochs=1), ds)
        report = evaluation.ranking_metrics_report(scores, ds)
        assert report.boosted_exposure_at_10 is None

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "distinct"])
    @pytest.mark.parametrize("rule", [
        None,
        distill.BoostRule(predicate="is_new"),
        distill.BoostRule(predicate="rating_at_least", rho=3.0),
    ], ids=["no_rule", "is_new", "rating"])
    def test_report_equals_the_per_metric_loop(self, tied, rule):
        # Lists of 2 to 14 items, so the cutoffs 3, 5 and 10 all clamp on
        # some queries; tied scores make the id tie-break decide the order.
        ds = data.generate_dataset(data.GeneratorConfig(
            num_queries=80, items_per_query=(2, 14), m=6, K=3, seed=4, new_item_fraction=0.3
        ))
        rng = np.random.default_rng(9)
        # Secondary objectives with any number of positives, not just the
        # booked item's outcome.
        for g in ds.groups:
            g.labels[:, 1:] = rng.integers(-1, 2, size=(g.size, ds.K - 1))
        scores = {
            g.query_id: rng.integers(0, 3, size=g.size).astype(float) if tied
            else rng.normal(size=g.size)
            for g in ds.groups
        }

        def mean(metric):
            vals = [metric(scores[g.query_id], g) for g in ds.groups]
            return float(math.fsum(vals) / len(vals))

        def objective_exposure(k, exposure_k):
            def metric(s, g):
                vals, mask = objective_labels(g, k)
                return evaluation.exposure_rate(s, mask & (vals > 0), exposure_k)
            return metric

        for exposure_k in (10, 3):
            want = evaluation.RankingMetricsReport(
                ndcg_at_5=mean(lambda s, g: evaluation.ndcg_at_k(s, primary_labels(g), 5)),
                ndcg_at_10=mean(lambda s, g: evaluation.ndcg_at_k(s, primary_labels(g), 10)),
                ndcg_full=mean(lambda s, g: evaluation.ndcg_at_k(s, primary_labels(g), None)),
                objective_exposure_at_10=[
                    mean(objective_exposure(k, exposure_k)) for k in range(ds.K)
                ],
                boosted_exposure_at_10=None if rule is None else mean(
                    lambda s, g: evaluation.exposure_rate(s, rule.match_mask(g), exposure_k)
                ),
                query_count=len(ds),
            )
            assert evaluation.ranking_metrics_report(scores, ds, rule, exposure_k) == want

    def test_report_names_the_query_with_wrong_score_count(self):
        ds = small_dataset(num_queries=5)
        scores = {g.query_id: np.zeros(g.size) for g in ds.groups}
        bad = ds.groups[3].query_id
        scores[bad] = scores[bad][:-1]
        with pytest.raises(InputError, match=f"query {bad}:"):
            evaluation.ranking_metrics_report(scores, ds)

    def test_every_metric_names_a_query_without_scores(self):
        ds = small_dataset(num_queries=5)
        scores = {g.query_id: np.zeros(g.size) for g in ds.groups}
        bad = ds.groups[3].query_id
        del scores[bad]
        rule = distill.BoostRule(predicate="is_new")
        for metric in (
            lambda: evaluation.ranking_metrics_report(scores, ds),
            lambda: evaluation.mean_ndcg(scores, ds, 10),
            lambda: evaluation.mean_boosted_exposure(scores, ds, rule),
            lambda: evaluation.sxs_report(scores, scores, ds),
        ):
            with pytest.raises(InputError, match=f"^query {bad}: no scores$"):
                metric()
        full = {g.query_id: np.zeros(g.size) for g in ds.groups}
        with pytest.raises(InputError, match=f"^query {bad}: no scores$"):
            evaluation.sxs_report(full, scores, ds)

    @pytest.mark.parametrize("bucket_groups", [3, data.BUCKET_GROUPS])
    def test_means_equal_the_per_query_loop(self, monkeypatch, bucket_groups):
        # Tied scores on lists of 2 to 14 items, so the cutoffs clamp on
        # some queries; buckets of 3 groups split every length.
        monkeypatch.setattr(data, "BUCKET_GROUPS", bucket_groups)
        ds = data.generate_dataset(data.GeneratorConfig(
            num_queries=80, items_per_query=(2, 14), m=6, K=2, seed=6, new_item_fraction=0.3
        ))
        rng = np.random.default_rng(4)
        scores = {g.query_id: rng.integers(0, 3, size=g.size).astype(float) for g in ds.groups}
        rule = distill.BoostRule(predicate="is_new")
        for k in (1, 3, 10):
            vals = [evaluation.exposure_rate(scores[g.query_id], rule.match_mask(g), k)
                    for g in ds.groups]
            want = float(math.fsum(vals) / len(vals))
            assert evaluation.mean_boosted_exposure(scores, ds, rule, k) == want
        for k in (1, 5, 10, None):
            vals = [evaluation.ndcg_at_k(scores[g.query_id], primary_labels(g), k)
                    for g in ds.groups]
            assert evaluation.query_ndcg(scores, ds, k) == vals
            assert evaluation.mean_ndcg(scores, ds, k) == float(math.fsum(vals) / len(vals))

    def test_metrics_work_row_by_row(self):
        rng = np.random.default_rng(8)
        scores = rng.integers(0, 3, size=(5, 7)).astype(float)
        labels = rng.integers(0, 2, size=(5, 7))
        ndcg = evaluation.ndcg_at_k(scores, labels, 3)
        exposure = evaluation.exposure_rate(scores, labels == 1, 4)
        for row in range(5):
            assert ndcg[row] == evaluation.ndcg_at_k(scores[row], labels[row], 3)
            assert exposure[row] == evaluation.exposure_rate(scores[row], labels[row] == 1, 4)
            assert (evaluation.rank_order(scores)[row].tolist()
                    == evaluation.rank_order(scores[row]).tolist())

    def test_mean_boosted_exposure_matches_report(self):
        ds = small_dataset(new_item_fraction=0.3)
        scores = distill.score_dataset(model_for(ds, epochs=1), ds)
        rule = distill.BoostRule(predicate="is_new", beta=0.0)
        report = evaluation.ranking_metrics_report(scores, ds, boost_rule=rule)
        direct = evaluation.mean_boosted_exposure(scores, ds, rule)
        assert report.boosted_exposure_at_10 == pytest.approx(direct)
