import json
from pathlib import Path

import pytest

from moltr import nn, pipeline
from moltr.data import GeneratorConfig
from moltr.distill import DistillConfig
from moltr.errors import CalibrationError, ConfigError


def small_experiment(output_dir, **overrides):
    gen = GeneratorConfig(
        num_queries=150,
        items_per_query=(4, 6),
        m=6,
        K=3,
        seed=3,
        label_rates=[0.4, 0.4],
        num_days=10,
    )
    dc = DistillConfig(
        mlp=nn.MlpConfig(layer_dims=(6, 8, 1), init_scale=0.3, seed=5),
        alpha=0.2,
        epochs=2,
        learning_rate=0.05,
        seed=5,
        teacher_temperature=2.0,
    )
    boost = pipeline.BoostStudyConfig(
        rho=3.5,
        exposure_k=5,
        target_lift=0.05,
        exposure_tolerance=0.02,
        items_per_query=(10, 14),
        num_queries=200,
    )
    kwargs = dict(
        generator=gen,
        distill=dc,
        eval_queries=80,
        num_seeds=2,
        parity_seeds=1,
        alpha_sweep=(0.2,),
        boost=boost,
        output_dir=str(output_dir),
    )
    kwargs.update(overrides)
    return pipeline.ExperimentConfig(**kwargs)


class TestExperimentConfig:
    def test_requires_distill(self):
        with pytest.raises(ConfigError):
            pipeline.ExperimentConfig(generator=GeneratorConfig())

    def test_mlp_dim_must_match_generator(self, tmp_path):
        with pytest.raises(ConfigError):
            small_experiment(
                tmp_path,
                distill=DistillConfig(mlp=nn.MlpConfig(layer_dims=(9, 1), seed=0)),
            )

    def test_round_trip(self, tmp_path):
        config = small_experiment(tmp_path)
        clone = pipeline.ExperimentConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()

    def test_default_windows_inside_day_range(self, tmp_path):
        config = small_experiment(tmp_path)
        days = config.generator.num_days
        assert 0 < config.train_boundary_day <= days
        assert 0 <= config.shift_start_day < days

    def test_teacher_config_is_hard_only(self, tmp_path):
        config = small_experiment(tmp_path, teacher_epochs=7)
        tc = config.teacher_config
        assert tc.alpha == 1.0
        assert tc.epochs == 7

    def test_default_config_valid(self, tmp_path):
        config = pipeline.default_experiment_config(str(tmp_path))
        assert config.generator.num_queries == 5000
        assert config.distill.mlp.input_dim == config.generator.m

    def test_default_config_overrides_are_validated(self, tmp_path):
        config = pipeline.default_experiment_config(str(tmp_path), eval_queries=50)
        assert config.eval_queries == 50
        with pytest.raises(ConfigError, match="num_seeds"):
            pipeline.default_experiment_config(str(tmp_path), num_seeds=1)
        with pytest.raises(ConfigError, match="eval_querys"):
            pipeline.default_experiment_config(str(tmp_path), eval_querys=50)


class TestBisection:
    def test_linear_function(self):
        x, e, _ = pipeline._bisect_exposure(
            lambda x: 0.1 + 0.05 * x, target=0.3, tolerance=0.001, hi_max=64, max_iter=50
        )
        assert e == pytest.approx(0.3, abs=0.001)
        assert x == pytest.approx(4.0, abs=0.1)

    def test_already_at_target(self):
        x, e, _ = pipeline._bisect_exposure(
            lambda x: 0.5, target=0.4, tolerance=0.01, hi_max=64, max_iter=50
        )
        assert x == 0.0

    def test_unreachable_target(self):
        with pytest.raises(CalibrationError, match="unreachable"):
            pipeline._bisect_exposure(
                lambda x: 0.1, target=0.9, tolerance=0.01, hi_max=8, max_iter=50
            )

    def test_non_monotone_detected(self):
        # The point at x=1.5 sits above the one at x=2 by more than the
        # slack, so a successful calibration still flags the response
        # curve as non-monotone.
        values = {0.0: 0.1, 1.0: 0.4, 2.0: 0.89, 1.5: 0.92, 1.25: 0.85}
        with pytest.raises(CalibrationError, match="monotone"):
            pipeline._bisect_exposure(
                values.__getitem__, target=0.85, tolerance=0.01, hi_max=64, max_iter=50
            )


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("distill")
    return pipeline.study_distill_vs_baselines(small_experiment(out)), out


class TestStudyDistill:
    def test_arms_present(self, report):
        rep, _ = report
        names = [a["arm"] for a in rep["arms"]]
        assert names == [
            "fusion_baseline",
            "scalarized_baseline",
            "hard_only_student",
            "distilled_student",
        ]
        assert rep["alpha_sweep"][0]["alpha"] == 0.2

    def test_metrics_in_range(self, report):
        rep, _ = report
        for a in rep["arms"]:
            assert 0.0 <= a["metrics"]["ndcg_at_10"] <= 1.0
            assert a["dataset_hash"] == rep["eval_dataset_hash"]

    def test_deltas_reference_fusion(self, report):
        rep, _ = report
        assert rep["deltas_vs_fusion_ndcg10"]["fusion_baseline"] == 0.0

    def test_artifacts_written(self, report):
        rep, out = report
        assert (out / "report.json").exists()
        assert (out / "report.md").exists()
        assert (out / "metrics.csv").exists()
        checkpoints = list((out / "checkpoints").glob("*.json"))
        assert len(checkpoints) >= len(rep["arms"])
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == rep


class TestStudySelf:
    def test_report_fields(self, tmp_path):
        rep = pipeline.study_self_distillation(small_experiment(tmp_path))
        assert rep["study"] == "self_distillation"
        assert len(rep["per_seed"]) == 1
        row = rep["per_seed"][0]
        assert row["v1_lineage"] == "student_v1"
        assert rep["parity_gap"] == pytest.approx(
            abs(rep["mean_ndcg10_v1"] - rep["mean_ndcg10_retrained_v0"])
        )
        assert rep["window_a_queries"] > 0 and rep["window_b_queries"] > 0


class TestStudyRepro:
    def test_report_fields(self, tmp_path):
        rep = pipeline.study_irreproducibility(small_experiment(tmp_path))
        assert rep["study"] == "irreproducibility"
        assert len(rep["hard_only"]["models"]) == 2
        assert len(rep["distilled"]["models"]) == 2
        for fam in ("hard_only", "distilled"):
            assert 0.0 <= rep[fam]["mean_change_rate"] <= 1.0
            assert rep[fam]["mean_pd"] >= 0.0
        # Distinct seeds genuinely differ.
        seeds = {m["seed"] for m in rep["hard_only"]["models"]}
        assert len(seeds) == 2


class TestStudyBoost:
    def test_matched_exposure_arms(self, tmp_path):
        config = small_experiment(tmp_path)
        rep = pipeline.study_adhoc_boost(config)
        assert rep["study"] == "adhoc_boost"
        row = rep["per_seed"][0]
        tol = config.boost.exposure_tolerance
        assert abs(row["serve_exposure"] - row["target_exposure"]) <= tol
        assert abs(row["soft_exposure"] - row["target_exposure"]) <= tol
        assert row["exposure_gap"] <= 2 * tol
        assert row["serve_exposure"] > row["baseline_exposure"]
        # The boost study's page-size override is recorded in the config.
        assert rep["config"]["generator"]["items_per_query"] == [10, 14]


class TestDeterminism:
    def test_report_bytes_identical_across_reruns(self, tmp_path):
        out = tmp_path / "out"
        pipeline.study_distill_vs_baselines(small_experiment(out))
        first_json = (out / "report.json").read_bytes()
        first_csv = (out / "metrics.csv").read_bytes()
        pipeline.study_distill_vs_baselines(small_experiment(out))
        assert (out / "report.json").read_bytes() == first_json
        assert (out / "metrics.csv").read_bytes() == first_csv
