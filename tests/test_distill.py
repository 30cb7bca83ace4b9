import json
import math
from collections import Counter

import numpy as np
import pytest
from oracles import kendall_tau, primary_labels, scalarized_steps

from moltr import data, distill, nn
from moltr.errors import ConfigError, InputError, ParseError, TrainingError
from moltr.evaluation import rank_order


def score_tau(scores_a, scores_b, item_ids):
    return kendall_tau(rank_order(scores_a, item_ids), rank_order(scores_b, item_ids))


def gen_config(**kwargs):
    defaults = dict(num_queries=80, items_per_query=(4, 6), m=6, K=3, seed=3)
    defaults.update(kwargs)
    return data.GeneratorConfig(**defaults)


def train_config(**kwargs):
    defaults = dict(
        mlp=nn.MlpConfig(layer_dims=(6, 8, 1), init_scale=0.3, seed=5),
        alpha=0.2,
        epochs=4,
        learning_rate=0.05,
    )
    defaults.update(kwargs)
    return distill.DistillConfig(**defaults)


def mixed_length_dataset():
    """Lists of 2 to 30 items: some length holds a single group, and some
    more groups than a bucket of 3 holds."""
    ds = data.generate_dataset(gen_config(num_queries=70, items_per_query=(2, 30), seed=8))
    counts = Counter(g.size for g in ds.groups).values()
    assert 1 in counts and max(counts) > 3
    return ds


def assert_bucketed_scoring_is_the_serving_path(activation, bucket_groups=3):
    """score_dataset, score_models and fuse_soft_labels, in buckets of at
    most bucket_groups groups, give each query what a loop of
    Model.score_group (the serving path) gives, bit for bit."""
    ds = mixed_length_dataset()
    mlp = nn.MlpConfig(layer_dims=(6, 8, 4, 1), activation=activation, init_scale=0.3, seed=5)
    cfg = train_config(mlp=mlp, epochs=1)
    models = distill.train_runs(ds, [distill.Run.hard_only(cfg.with_seed(s)) for s in (5, 6, 7)])
    ensemble = distill.TeacherEnsemble(models=models, fusion_weights=[0.5, 0.2, 0.3])
    saved, data.BUCKET_GROUPS = data.BUCKET_GROUPS, bucket_groups
    try:
        family = distill.score_models(models, ds)
        alone = [distill.score_dataset(m, ds) for m in models]
        fused = distill.fuse_soft_labels(ensemble, ds).scores
    finally:
        data.BUCKET_GROUPS = saved
    order = [g.query_id for g in ds.groups]
    assert all(list(scores) == order for scores in (*family, *alone, fused))
    for g in ds.groups:
        serving = [m.score_group(g) for m in models]
        for want, together, lone in zip(serving, family, alone):
            assert together[g.query_id].tobytes() == want.tobytes()
            assert lone[g.query_id].tobytes() == want.tobytes()
        want = np.zeros(g.size)
        for w, scores in zip(ensemble.fusion_weights, serving):
            want = want + w * scores
        assert fused[g.query_id].tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def dataset():
    return data.generate_dataset(gen_config())


@pytest.fixture(scope="module")
def teachers(dataset):
    return distill.train_teachers(dataset, train_config(alpha=1.0))


@pytest.fixture(scope="module")
def soft(teachers, dataset):
    return distill.fuse_soft_labels(teachers, dataset)


class TestDistillConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            train_config(alpha=-0.1)
        with pytest.raises(ConfigError):
            train_config(temperature=0.0)
        with pytest.raises(ConfigError):
            train_config(learning_rate=0.0)
        with pytest.raises(ConfigError):
            train_config(epochs=-1)

    def test_round_trip(self):
        config = train_config(teacher_temperature=2.5)
        assert distill.DistillConfig.from_dict(config.to_dict()) == config

    def test_with_seed_reseeds_mlp(self):
        config = train_config().with_seed(99)
        assert config.seed == 99
        assert config.mlp.seed == 99
        assert config.mlp.layer_dims == (6, 8, 1)


class TestModel:
    def test_save_load_round_trip(self, dataset, teachers, tmp_path):
        model = teachers.models[0]
        path = tmp_path / "teacher.json"
        model.save(path)
        loaded = distill.Model.load(path)
        assert loaded.lineage == model.lineage
        assert loaded.params == model.params
        g = dataset.groups[0]
        assert np.array_equal(loaded.score_group(g), model.score_group(g))

    def test_params_config_mismatch(self):
        config = nn.MlpConfig(layer_dims=(6, 8, 1), seed=0)
        params = nn.init_params(nn.MlpConfig(layer_dims=(6, 4, 1), seed=0))
        with pytest.raises(InputError):
            distill.Model(config=config, params=params, lineage="x")

    def test_rejects_a_stacked_set(self):
        config = nn.MlpConfig(layer_dims=(6, 8, 1), seed=0)
        one = nn.init_params(config)
        stacked = nn.ParameterSet(np.stack([one.flat, one.flat]), one.shapes)
        assert stacked.layer_dims() == config.layer_dims
        with pytest.raises(InputError, match="one run"):
            distill.Model(config=config, params=stacked, lineage="x")


class TestTeacherEnsemble:
    def test_weights_normalized(self, teachers):
        ens = distill.TeacherEnsemble(
            models=teachers.models, fusion_weights=np.array([2.0, 1.0, 1.0])
        )
        assert ens.fusion_weights.tolist() == [0.5, 0.25, 0.25]

    def test_default_uniform(self, teachers):
        assert np.allclose(teachers.fusion_weights, 1.0 / 3.0)

    def test_rejects_negative(self, teachers):
        with pytest.raises(ConfigError):
            distill.TeacherEnsemble(
                models=teachers.models, fusion_weights=np.array([1.0, -1.0, 1.0])
            )

    def test_rejects_all_zero(self, teachers):
        with pytest.raises(ConfigError):
            distill.TeacherEnsemble(
                models=teachers.models, fusion_weights=np.zeros(3)
            )

    def test_rejects_an_overflowing_sum(self, teachers):
        # The sum is inf, so normalizing would turn every weight into 0.
        with pytest.raises(ConfigError, match="fusion_weights must have a finite sum"):
            distill.TeacherEnsemble(
                models=teachers.models, fusion_weights=np.array([1e308, 1e308, 1.0])
            )


class TestTeachers:
    def test_deterministic(self, dataset):
        a = distill.train_teacher(dataset, 0, train_config(alpha=1.0))
        b = distill.train_teacher(dataset, 0, train_config(alpha=1.0))
        assert a.params == b.params
        c = distill.train_teacher(dataset, 0, train_config(alpha=1.0).with_seed(6))
        assert a.params != c.params

    def test_lineage_names_objective(self, teachers):
        assert teachers.models[0].lineage == "teacher:booking"
        assert teachers.models[1].lineage == "teacher:cancellation"
        assert teachers.models[2].lineage == "teacher:quality"

    def test_out_of_range_objective(self, dataset):
        with pytest.raises(InputError):
            distill.train_teacher(dataset, 9, train_config())

    def test_zero_coverage_raises(self):
        # Strip all secondary labels so objective 1 has no coverage.
        ds = data.generate_dataset(gen_config(num_queries=20))
        for g in ds.groups:
            g.labels[:, 1:] = data.MISSING_LABEL
        with pytest.raises(TrainingError, match="coverage"):
            distill.train_teacher(ds, 1, train_config())

    def test_teacher_learns_primary_order(self, dataset):
        # More epochs should produce a teacher that ranks the booked item
        # highly much more often than an untrained net does.
        config = train_config(alpha=1.0, epochs=12)
        model = distill.train_teacher(dataset, 0, config)
        fresh = distill.Model(
            config=config.mlp, params=nn.init_params(config.mlp), lineage="untrained"
        )

        def top1_hits(m):
            hits = total = 0
            for g in dataset.groups:
                if not g.has_labels_for(0):
                    continue
                total += 1
                booked = int(np.argmax(primary_labels(g)))
                if int(np.argmax(m.score_group(g))) == booked:
                    hits += 1
            return hits / total

        assert top1_hits(model) > top1_hits(fresh) + 0.1


class TestFusion:
    def test_weighted_sum_identity(self, teachers, dataset):
        g = dataset.groups[0]
        fused = distill.fusion_serve_scores(teachers, g)
        manual = sum(
            w * m.score_group(g)
            for w, m in zip(teachers.fusion_weights, teachers.models)
        )
        assert np.allclose(fused, manual, atol=1e-12)

    def test_two_model_hand_example(self, teachers, dataset):
        # Equal weights over scores (1, 3) and (3, 1) fuse to (2, 2).
        g = dataset.groups[0]
        m = teachers.models[0]
        ens = distill.TeacherEnsemble(models=[m, m], fusion_weights=np.array([0.5, 0.5]))
        fused = distill.fusion_serve_scores(ens, g)
        assert np.allclose(fused, m.score_group(g), atol=1e-12)

    def test_soft_labels_cover_every_group(self, soft, dataset):
        soft.check_alignment(dataset)
        assert soft.provenance == "teacher_fusion"
        assert len(soft.scores) == len(dataset)

    def test_distribution_temperature(self, soft, dataset):
        qid = dataset.groups[0].query_id
        d1 = nn.softmax(soft.scores[qid], 1.0)
        d4 = nn.softmax(soft.scores[qid], 4.0)
        assert abs(d1.sum() - 1.0) < 1e-9
        assert d4.max() <= d1.max() + 1e-12  # higher temperature flattens

    def test_misalignment_detected(self, soft):
        other = data.generate_dataset(gen_config(num_queries=90, seed=8))
        with pytest.raises(InputError, match="misaligned"):
            soft.check_alignment(other)

    def test_save_load_round_trip(self, soft, tmp_path):
        path = tmp_path / "soft.jsonl"
        soft.save(path)
        loaded = distill.SoftLabelSet.load(path)
        assert loaded.provenance == soft.provenance
        assert set(loaded.scores) == set(soft.scores)
        for qid in soft.scores:
            assert np.array_equal(loaded.scores[qid], soft.scores[qid])

    def test_load_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ParseError):
            distill.SoftLabelSet.load(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_line_separators_inside_a_string_stay_in_it(self, tmp_path, separator):
        # JSON strings may hold these raw; only LF ends a JSONL line.
        provenance = f"fused{separator}v1"
        path = tmp_path / "soft.jsonl"
        path.write_text(json.dumps({"provenance": provenance}, ensure_ascii=False) + "\n"
                        + json.dumps({"query_id": 3, "scores": [0.5, -1.0]}) + "\n",
                        encoding="utf-8")
        loaded = distill.SoftLabelSet.load(path)
        assert loaded.provenance == provenance
        assert list(loaded.scores) == [3] and loaded.scores[3].tolist() == [0.5, -1.0]

    def test_row_after_a_form_feed_is_refused_at_its_own_line(self, tmp_path):
        rows = [json.dumps({"query_id": q, "scores": [0.5, -1.0]}) for q in range(3)]
        path = tmp_path / "soft.jsonl"
        path.write_text("\n".join(['{"provenance": "fused"}', rows[0], "\f" + rows[1], rows[2]]))
        with pytest.raises(ParseError) as e:
            distill.SoftLabelSet.load(path)
        assert e.value.line == 3
        assert str(e.value).startswith(f"line 3: soft labels {path}: invalid JSON at column 1")


class TestBoostRule:
    def test_predicates(self):
        # Items: high-rated, low-rated, and new (new items carry rating 0).
        group = data.QueryGroup(
            query_id=0,
            timestamp=0,
            features=np.zeros((3, 3)),
            item_ids=[0, 1, 2],
            ratings=[4.5, 3.0, 0.0],
            is_new=[False, False, True],
            labels=[[0], [0], [0]],
        )
        rating = distill.BoostRule(predicate="rating_at_least", rho=4.0, beta=1.0)
        assert rating.match_mask(group).tolist() == [True, False, False]
        newness = distill.BoostRule(predicate="is_new", beta=1.0)
        assert newness.match_mask(group).tolist() == [False, False, True]

    def test_unknown_predicate(self):
        with pytest.raises(ConfigError):
            distill.BoostRule(predicate="price_below", beta=1.0)

    def test_boost_shifts_distribution(self, dataset):
        # Raw scores (0, 0) with beta = ln 3 on the second item give a
        # (0.25, 0.75) soft distribution.
        g = dataset.groups[0]
        base = distill.SoftLabelSet(
            scores={gr.query_id: np.zeros(gr.size) for gr in dataset.groups},
            provenance="test",
        )
        rule = distill.BoostRule(predicate="is_new", beta=math.log(3.0))
        boosted = distill.inject_boost(base, rule, dataset)
        assert boosted.provenance.startswith("boosted(")
        for gr in dataset.groups:
            mask = rule.match_mask(gr)
            expected = np.where(mask, math.log(3.0), 0.0)
            assert np.allclose(boosted.scores[gr.query_id], expected)
            if mask.sum() == 1 and gr.size == 2:
                d = nn.softmax(boosted.scores[gr.query_id], 1.0)
                assert sorted(d.tolist()) == pytest.approx([0.25, 0.75], abs=1e-12)

    @pytest.mark.parametrize("predicate", ["rating_at_least", "is_new"])
    def test_injected_by_length_bucket_as_group_by_group(self, predicate):
        # inject_boost and apply_by_query apply the rule once per length
        # bucket; each row is bit for bit the rule applied to its group alone.
        ds = mixed_length_dataset()
        rng = np.random.default_rng(4)
        labels = distill.SoftLabelSet({g.query_id: rng.normal(size=g.size) for g in ds.groups}, "t")
        rule = distill.BoostRule(predicate=predicate, rho=3.5, beta=1.7)
        saved, data.BUCKET_GROUPS = data.BUCKET_GROUPS, 3
        try:
            boosted = distill.inject_boost(labels, rule, ds).scores
            given = rule.apply_by_query(labels.scores, ds.groups, data.length_buckets(ds.groups))
        finally:
            data.BUCKET_GROUPS = saved
        assert list(boosted) == list(given) == [g.query_id for g in ds.groups]
        assert all(boosted[q].tobytes() == given[q].tobytes() for q in given)
        for g in ds.groups:
            want = rule.apply(labels.scores[g.query_id], g)
            assert boosted[g.query_id].tobytes() == want.tobytes()
        assert any(rule.match_mask(g).any() for g in ds.groups)

    def test_zero_beta_is_identity(self, soft, dataset):
        rule = distill.BoostRule(predicate="is_new", beta=0.0)
        boosted = distill.inject_boost(soft, rule, dataset)
        for qid in soft.scores:
            assert np.array_equal(boosted.scores[qid], soft.scores[qid])


class TestStudent:
    def test_deterministic(self, dataset, soft):
        a = distill.train_student(dataset, soft, train_config())
        b = distill.train_student(dataset, soft, train_config())
        assert a.params == b.params
        assert a.lineage == "student_v0"

    def test_alpha_one_matches_hard_only_bitwise(self, dataset, soft):
        # With alpha = 1 the soft term is skipped entirely, so the student
        # trainer and the hard-only baseline produce identical bits even
        # though they are distinct code paths.
        student = distill.train_student(dataset, soft, train_config(alpha=1.0))
        hard = distill.train_hard_only(dataset, train_config(alpha=1.0))
        assert student.params == hard.params

    def test_alpha_one_never_reads_the_soft_scores(self, dataset, soft):
        # A booked group's soft target would fail on the inf; alpha 1 computes none.
        qid = next(g.query_id for g in dataset.groups if g.has_labels_for(0))
        scores = {**soft.scores, qid: np.full_like(soft.scores[qid], np.inf)}
        student = distill.train_student(
            dataset, distill.SoftLabelSet(scores, "test"), train_config(alpha=1.0)
        )
        hard = distill.train_hard_only(dataset, train_config(alpha=1.0))
        assert student.params == hard.params

    def test_a_vanishing_temperature_raises_without_a_warning(self, dataset, soft):
        # scores / 1e-300 overflows, its gradient with it, and the next scores
        # overflow in the forward pass, whose check names the query.
        with pytest.raises(InputError, match=r"query \d+: forward pass produced non-finite"):
            distill.train_student(dataset, soft, train_config(temperature=1e-300))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "boosted_past_max"])
    def test_non_finite_soft_scores_name_the_query(self, dataset, soft, bad):
        qid = dataset.groups[5].query_id
        if bad == "nan":
            row = soft.scores[qid].copy()
            row[1] = np.nan
            labels = distill.SoftLabelSet({**soft.scores, qid: row}, "test")
        else:  # 1e308 + 1e308 is inf; rho 0 matches every item
            scores = {**soft.scores, qid: np.full_like(soft.scores[qid], 1e308)}
            rule = distill.BoostRule(predicate="rating_at_least", rho=0.0, beta=1e308)
            labels = distill.inject_boost(distill.SoftLabelSet(scores, "test"), rule, dataset)
        with pytest.raises(InputError, match=f"query {qid}: soft scores contain non-finite"):
            distill.train_student(dataset, labels, train_config(alpha=0.2))
        student = distill.train_student(dataset, labels, train_config(alpha=1.0))
        assert student.params == distill.train_hard_only(dataset, train_config(alpha=1.0)).params

    def test_soft_labels_change_outcome(self, dataset, soft):
        blended = distill.train_student(dataset, soft, train_config(alpha=0.2))
        hard = distill.train_hard_only(dataset, train_config(alpha=0.2))
        assert blended.params != hard.params

    def test_alpha_zero_tracks_soft_labels(self, dataset, soft):
        # Pure soft training converges to the soft-label ranking.
        config = train_config(alpha=0.0, epochs=60, learning_rate=0.08)
        model = distill.train_student(dataset, soft, config)
        taus = [
            score_tau(model.score_group(g), soft.scores[g.query_id], g.item_ids)
            for g in dataset.groups
        ]
        assert float(np.mean(taus)) > 0.9

    def test_misaligned_soft_labels(self, soft):
        other = data.generate_dataset(gen_config(num_queries=50, seed=9))
        with pytest.raises(InputError):
            distill.train_student(other, soft, train_config())

    def test_empty_dataset(self, soft, dataset):
        empty = data.Dataset(
            objectives=list(dataset.objectives), groups=[], m=dataset.m, K=dataset.K
        )
        with pytest.raises(TrainingError):
            distill.train_student(empty, distill.SoftLabelSet({}, "x"), train_config())


class TestSelfDistill:
    def test_versioning_and_freeze(self, dataset, soft):
        v0 = distill.train_student(dataset, soft, train_config())
        before = nn.ParameterSet(v0.params.flat.copy(), v0.params.shapes)
        new_data = data.generate_dataset(gen_config(num_queries=60, seed=21))
        v1 = distill.self_distill([v0], new_data, [train_config()])[0]
        assert v1.lineage == "student_v1"
        assert v0.params == before  # previous student untouched
        v2 = distill.self_distill([v1], new_data, [train_config()])[0]
        assert v2.lineage == "student_v2"

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_a_generation_is_each_student_self_distilled_alone(self, dataset, activation):
        # Two V0s and a V1, each of its own seed, and successors of other
        # seeds: the family gives each student's lone self_distill bit for bit.
        mlp = nn.MlpConfig(layer_dims=(6, 8, 1), activation=activation, init_scale=0.3, seed=5)
        cfg = train_config(mlp=mlp)
        soft = distill.fuse_soft_labels(distill.train_teachers(dataset, cfg), dataset)
        v0s = distill.train_runs(dataset, [distill.Run.student(dataset, soft, cfg.with_seed(s))
                                           for s in (5, 6, 7)])
        new_data = data.generate_dataset(gen_config(num_queries=60, seed=21))
        prev = [v0s[0], v0s[1], distill.self_distill([v0s[2]], dataset, [cfg.with_seed(8)])[0]]
        configs = [cfg.with_seed(s) for s in (15, 16, 17)]
        family = distill.self_distill(prev, new_data, configs)
        alone = [distill.self_distill([p], new_data, [c])[0] for p, c in zip(prev, configs)]
        assert [m.lineage for m in family] == [m.lineage for m in alone] == [
            "student_v1", "student_v1", "student_v2"]
        for together, lone, config in zip(family, alone, configs):
            assert together.params.flat.tobytes() == lone.params.flat.tobytes()
            assert together.config == lone.config == config.mlp

    @pytest.mark.parametrize("changed", [0, 1, 2])
    def test_freeze_checks_every_previous_student(self, dataset, soft, monkeypatch, changed):
        prev = [distill.train_student(dataset, soft, train_config().with_seed(s))
                for s in (5, 6, 7)]
        train_runs = distill.train_runs

        def tampering(ds, runs):
            prev[changed].params.flat[0] += 1.0
            return train_runs(ds, runs)

        monkeypatch.setattr(distill, "train_runs", tampering)
        with pytest.raises(TrainingError, match="previous student parameters changed"):
            distill.self_distill(prev, dataset, [train_config()] * 3)

    @pytest.mark.parametrize("students, configs", [(3, 2), (3, 4), (0, 0)])
    def test_a_config_per_previous_student(self, dataset, soft, students, configs):
        v0 = distill.train_student(dataset, soft, train_config())
        with pytest.raises(ConfigError, match=f"got {configs} configs for {students} previous"):
            distill.self_distill([v0] * students, dataset, [train_config()] * configs)

    def test_feature_dim_checked(self, dataset, soft):
        v0 = distill.train_student(dataset, soft, train_config())
        other = data.generate_dataset(gen_config(m=8, num_queries=10))
        with pytest.raises(InputError):
            distill.self_distill([v0], other, [train_config()])

    def test_stays_close_to_previous(self, dataset, soft):
        # One self-distillation round should agree with its source model
        # far more than with an unrelated model.
        v0 = distill.train_student(dataset, soft, train_config(epochs=8))
        new_data = data.generate_dataset(gen_config(num_queries=60, seed=21))
        v1 = distill.self_distill([v0], new_data, [train_config(epochs=30, alpha=0.0)])[0]
        taus = [
            score_tau(v1.score_group(g), v0.score_group(g), g.item_ids)
            for g in new_data.groups
        ]
        assert float(np.mean(taus)) > 0.7


class TestScalarized:
    def test_weight_validation(self, dataset):
        with pytest.raises(ConfigError):
            distill.train_scalarized_baseline(dataset, [1.0, 1.0], train_config())
        with pytest.raises(ConfigError):
            distill.train_scalarized_baseline(dataset, [0.0, 0.0, 0.0], train_config())
        with pytest.raises(ConfigError):
            distill.train_scalarized_baseline(dataset, [1.0, -1.0, 1.0], train_config())
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="objective_weights must be finite"):
                distill.train_scalarized_baseline(dataset, [bad, 1.0, 1.0], train_config())

    def test_sparse_objectives_take_fewer_steps(self, dataset):
        weights = [1.0, 2.0, 3.0]  # distinct, so a term's weight names its objective
        run = distill.Run.scalarized(dataset, weights, train_config())
        # Each bucket's stacked term weights, a row per group and a slot
        # per objective.
        terms = [run.terms(b)[0] for b in data.length_buckets(dataset.groups)]
        steps = [sum(int(np.count_nonzero(t == w)) for t in terms) for w in weights]
        assert steps == scalarized_steps(dataset, weights, epochs=1)
        assert steps[0] > steps[1]
        assert steps[0] > steps[2]

    def test_primary_only_matches_teacher_bitwise(self):
        # With weight only on the primary objective and every query booked,
        # the scalarized trainer and the primary teacher take identical
        # steps in the same order.
        ds = data.generate_dataset(gen_config(num_queries=50, primary_rate=1.0))
        config = train_config()
        scalarized = distill.train_scalarized_baseline(ds, [1.0, 0.0, 0.0], config)
        teacher = distill.train_teacher(ds, 0, config)
        assert scalarized.params == teacher.params

    def test_lineage(self, dataset):
        model = distill.train_scalarized_baseline(
            dataset, [1.0, 1.0, 1.0], train_config(epochs=1)
        )
        assert model.lineage == "baseline:scalarized"


class TestScoreDataset:
    def test_covers_all_groups(self, dataset, teachers):
        scores = distill.score_dataset(teachers.models[0], dataset)
        assert set(scores) == {g.query_id for g in dataset.groups}
        for g in dataset.groups:
            assert scores[g.query_id].shape == (g.size,)

    def test_dim_mismatch(self, teachers):
        other = data.generate_dataset(gen_config(m=9, num_queries=5))
        with pytest.raises(InputError):
            distill.score_dataset(teachers.models[0], other)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_buckets_give_the_serving_path_bit_for_bit(self, activation):
        assert_bucketed_scoring_is_the_serving_path(activation)

    def test_models_scored_together_share_an_architecture(self, dataset, teachers):
        other = distill.train_hard_only(
            dataset, train_config(mlp=nn.MlpConfig(layer_dims=(6, 4, 1), seed=5), epochs=1)
        )
        with pytest.raises(InputError, match="share an architecture"):
            distill.score_models([teachers.models[0], other], dataset)

    def test_overflowing_scores_name_the_query(self, dataset, teachers):
        # pyproject's filterwarnings turns a numpy overflow warning into a failure.
        model = teachers.models[0]
        huge = nn.ParameterSet(model.params.flat * 1e200, model.params.shapes)
        with pytest.raises(InputError, match=r"query \d+: forward pass produced non-finite"):
            distill.score_dataset(distill.Model(model.config, huge, model.lineage), dataset)

    def test_non_finite_features_name_the_query(self, teachers):
        ds = data.generate_dataset(gen_config(num_queries=20))
        bad = ds.groups[11]
        bad.features[0, 1] = np.inf
        with pytest.raises(InputError, match=f"query {bad.query_id}: features"):
            distill.score_dataset(teachers.models[0], ds)
        with pytest.raises(InputError, match=f"query {bad.query_id}: features"):
            distill.fuse_soft_labels(teachers, ds)
