import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from moltr import distill, evaluation, nn, pipeline
from moltr.data import GeneratorConfig, generate_dataset, split_by_time
from moltr.distill import DistillConfig, Model
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

    def test_eval_seed_must_be_nonnegative(self, tmp_path):
        with pytest.raises(ConfigError, match="eval_seed_offset"):
            small_experiment(tmp_path, eval_seed_offset=-4)  # generator seed 3
        assert small_experiment(tmp_path, eval_seed_offset=-3).eval_seed_offset == -3

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

    def test_config_json_is_pinned(self):
        # The JSON digest was taken before the configs shared one JSON codec,
        # and re-taken once distill.seed and objective_polarities were deleted.
        config = pipeline.default_experiment_config()
        text = json.dumps(config.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2e867f9b37b07ee9974523efecc4242b4f2584b06ba71130046fad644f77007a"
        )
        assert config.distill.mlp.config_hash() == (
            "88055199f728f0626e8fa6cca88ec060efa089868d8420e037d1a60502dc9222"
        )

    def test_from_dict_converts_only_tuples(self, tmp_path):
        doc = small_experiment(tmp_path).to_dict()
        doc["distill"]["alpha"] = 1
        config = pipeline.ExperimentConfig.from_dict(doc)
        assert config.alpha_sweep == (0.2,) and config.boost.items_per_query == (10, 14)
        assert config.distill.mlp.layer_dims == (6, 8, 1)
        assert config.generator.label_rates == [0.4, 0.4]
        assert json.dumps(config.to_dict()["distill"]["alpha"]) == "1"

    @pytest.mark.parametrize(
        "edit, message",
        [
            # The offending value is spelled as JSON, as the user wrote it.
            (
                lambda d: d["distill"].update(epochs=True),
                "distill config key 'epochs' must be int, got true",
            ),
            (
                lambda d: d["generator"].update(K=3.0),
                "generator config key 'K' must be int, got 3.0",
            ),
            (
                lambda d: d.update(teacher_epochs="2"),
                "experiment config key 'teacher_epochs' must be int, got \"2\"",
            ),
            (
                lambda d: d["boost"].update(rho=None),
                "boost config key 'rho' must be float, got null",
            ),
            (
                lambda d: d["generator"].update(objective_names=["a", 1]),
                "'objective_names' must be list[str], got [\"a\", 1]",
            ),
            (lambda d: d["generator"].update(objective_weights=[1.0]), "'objective_weights'"),
            (lambda d: d.update(generator=[]), "generator config must be a JSON object"),
            (lambda d: d["distill"].pop("mlp"), "distill config requires 'mlp'"),
        ],
        ids=[
            "bool_epochs", "float_K", "str_teacher_epochs", "null_rho",
            "int_name", "flat_weights", "list_generator", "missing_mlp",
        ],
    )
    def test_from_dict_rejects_wrong_types(self, tmp_path, edit, message):
        doc = small_experiment(tmp_path).to_dict()
        edit(doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("exposure_k", 0, "boost exposure_k must be >= 1, got 0"),
            ("max_iterations", 0, "boost max_iterations must be >= 1, got 0"),
            ("exposure_tolerance", 0.0, "boost exposure_tolerance must be finite and positive"),
            ("exposure_tolerance", float("nan"), "boost exposure_tolerance must be finite"),
            ("gamma_max", -1.0, "boost gamma_max must be finite and positive, got -1.0"),
            ("gamma_max", float("inf"), "boost gamma_max must be finite and positive, got inf"),
            ("beta_max", 0.0, "boost beta_max must be finite and positive, got 0.0"),
            ("beta_max", float("nan"), "boost beta_max must be finite and positive, got nan"),
            ("target_lift", float("nan"), "boost target_lift must be finite, got nan"),
            ("target_lift", float("-inf"), "boost target_lift must be finite, got -inf"),
            ("rho", 5.5, "boost rho: rho must be in [0, 5]"),
            ("rho", -0.5, "boost rho: rho must be in [0, 5]"),
            ("rho", float("nan"), "boost rho: rho must be in [0, 5]"),
        ],
    )
    def test_from_dict_rejects_bad_boost_values(self, tmp_path, field, value, message):
        doc = small_experiment(tmp_path).to_dict()
        doc["boost"][field] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha_sweep", [0.2, 1.5], "alpha_sweep: alpha must be in [0, 1], got 1.5"),
            ("alpha_sweep", [-0.1], "alpha_sweep: alpha must be in [0, 1], got -0.1"),
            ("alpha_sweep", [float("nan")], "alpha_sweep: alpha must be in [0, 1], got nan"),
            ("teacher_epochs", -1, "teacher_epochs: epochs must be >= 0"),
        ],
    )
    def test_from_dict_rejects_bad_study_values(self, tmp_path, field, value, message):
        doc = small_experiment(tmp_path).to_dict()
        doc[field] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.ExperimentConfig.from_dict(doc)

    def test_readme_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A minimal `config.json`:", 1)[1]
        doc = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
        assert set(doc) == {"generator", "distill"}
        gen = GeneratorConfig.from_dict(doc["generator"])
        dc = DistillConfig.from_dict(doc["distill"])
        assert dc.mlp.input_dim == gen.m


class TestCheckpointStore:
    def test_truncated_checkpoint_is_rewritten(self, tmp_path):
        config = nn.MlpConfig(layer_dims=(6, 4, 1), seed=2)
        model = Model(config=config, params=nn.init_params(config), lineage="teacher:x")
        store = pipeline.CheckpointStore(str(tmp_path))
        digest = store.put_model(model)
        path = Path(store.dir) / f"{digest}.json"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        assert store.put_model(model) == digest
        assert path.read_bytes() == whole
        assert Model.load(str(path)).params.params_hash() == model.params.params_hash()
        assert sorted(p.name for p in Path(store.dir).iterdir()) == [path.name]


def batched(measure_one):
    """A batched measure from one that takes a single x."""
    return lambda xs: [measure_one(x) for x in xs]


class TestBisection:
    def test_linear_function(self):
        (x, e, _), _ = pipeline._bisect_exposure(
            batched(lambda x: (0.1 + 0.05 * x, None)),
            lift=0.2, tolerance=0.001, hi_max=64, max_iter=50,
        )
        assert e == pytest.approx(0.3, abs=0.001)
        assert x == pytest.approx(4.0, abs=0.1)

    def test_already_at_target(self):
        (x, e, _), _ = pipeline._bisect_exposure(
            batched(lambda x: (0.5, None)),
            lift=-0.1, tolerance=0.01, hi_max=64, max_iter=50,
        )
        assert x == 0.0

    def test_unreachable_target(self):
        with pytest.raises(CalibrationError, match="unreachable"):
            pipeline._bisect_exposure(
                batched(lambda x: (0.1, None)),
                lift=0.8, tolerance=0.01, hi_max=8, max_iter=50,
            )

    def test_non_monotone_detected(self):
        # The point at x=1.5 sits above the one at x=2 by more than the
        # slack, so a successful calibration still flags the response
        # curve as non-monotone. x=4 and x=1.75 are asked for alongside
        # the path but never visited.
        values = {0.0: 0.1, 1.0: 0.4, 2.0: 0.89, 1.5: 0.92, 1.25: 0.85, 4.0: 0.95, 1.75: 0.9}
        with pytest.raises(CalibrationError, match="monotone"):
            pipeline._bisect_exposure(
                batched(lambda x: (values[x], None)),
                lift=0.75, tolerance=0.01, hi_max=64, max_iter=50,
            )

    @staticmethod
    def linear(slope, at_zero=0.0):
        """A batched measure of slope * x, with exposure at_zero at x = 0."""
        requests = []

        def measure(xs):
            requests.append(list(xs))
            first = len(requests) == 1
            assert xs.count(0.0) == first and (xs[0] == 0.0) == first, (
                "x = 0 is measured exactly once, in the first request")
            return [(at_zero, "zero") if x == 0.0 else (slope * x, ("measured at", x))
                    for x in xs]
        return measure

    def test_exit_returns_the_result_measured_at_x(self):
        (x, e, result), at_zero = pipeline._bisect_exposure(
            self.linear(0.05), lift=0.2, tolerance=0.001, hi_max=64, max_iter=50
        )
        # The first midpoint within tolerance ends the search, not x=4.
        assert e == pytest.approx(0.2, abs=0.001) and x < 4.0
        assert result == ("measured at", x)
        assert at_zero == (0.0, "zero")

    def test_fallback_returns_the_result_measured_at_x(self):
        # Bracketing ends at x=4 (exposure 0.4); the one bisection step
        # measures x=3 (0.3), out of tolerance, so the best point x=4 is kept.
        (x, e, result), at_zero = pipeline._bisect_exposure(
            self.linear(0.1), lift=0.4, tolerance=0.01, hi_max=64, max_iter=3
        )
        assert (x, result) == (4.0, ("measured at", 4.0))
        assert at_zero == (0.0, "zero")

    @pytest.mark.parametrize("lift", [0.01, 0.0, -0.1])
    def test_a_lift_within_tolerance_asks_for_zero_alone(self, lift):
        requests = []

        def measure(xs):
            requests.append(list(xs))
            return [(0.1 + 0.05 * x, None) for x in xs]

        (x, e, _), at_zero = pipeline._bisect_exposure(
            measure, lift=lift, tolerance=0.01, hi_max=64, max_iter=50
        )
        assert requests == [[0.0]] and x == 0.0 and (e, None) == at_zero

    def test_zero_off_target_by_rounding_asks_for_the_first_bracket_next(self):
        # lift == tolerance, yet 0.3 >= (0.3 + 0.1) - 0.1 is false in floats.
        assert not 0.3 >= (0.3 + 0.1) - 0.1
        requests = []

        def measure(xs):
            requests.append(list(xs))
            return [(0.3 + 0.05 * x, None) for x in xs]

        (x, e, _), _ = pipeline._bisect_exposure(
            measure, lift=0.1, tolerance=0.1, hi_max=64, max_iter=50
        )
        assert requests[:2] == [[0.0], [1.0, 2.0, 4.0]]
        path = []
        assert ((x, e, None), (0.3, None)) == sequential_bisection(
            lambda x: (0.3 + 0.05 * x, None), path, 0.1, 0.1, 64, 50
        )

    def test_at_zero_is_returned_as_given(self):
        assert pipeline._bisect_exposure(
            self.linear(0.1, at_zero=0.5), lift=-0.1, tolerance=0.01, hi_max=64, max_iter=50
        ) == ((0.0, 0.5, "zero"), (0.5, "zero"))


def sequential_bisection(measure, path, lift, tolerance, hi_max, max_iter):
    """The search measuring one x at a time, as it was before requests were
    batched: ((x, exposure, result), (exposure, result) at 0), with each
    (x, exposure) it visits appended to path, x = 0 first."""

    def f(x):
        e, result = measure(x)
        path.append((x, e))
        return e, result

    at_zero = f(0.0)
    target = at_zero[0] + lift
    if at_zero[0] >= target - tolerance:
        return (0.0, *at_zero), at_zero
    iterations = 0
    lo, hi = 0.0, 1.0
    e_hi, r_hi = f(hi)
    while e_hi < target and hi < hi_max:
        iterations += 1
        if iterations > max_iter:
            raise CalibrationError("exposure bracketing did not converge")
        lo = hi
        hi *= 2.0
        e_hi, r_hi = f(hi)
    if e_hi < target - tolerance:
        raise CalibrationError(f"exposure target {target:.3f} unreachable (max {e_hi:.3f} at {hi})")
    best = (hi, e_hi, r_hi)
    while iterations < max_iter:
        iterations += 1
        mid = (lo + hi) / 2.0
        e_mid, r_mid = f(mid)
        if abs(e_mid - target) <= abs(best[1] - target):
            best = (mid, e_mid, r_mid)
        if abs(e_mid - target) <= tolerance:
            pipeline._check_monotone(path)
            return (mid, e_mid, r_mid), at_zero
        if e_mid < target:
            lo = mid
        else:
            hi = mid
    if abs(best[1] - target) <= tolerance:
        pipeline._check_monotone(path)
        return best, at_zero
    raise CalibrationError(
        f"exposure calibration did not reach {target:.3f} within {max_iter} iterations"
    )


BISECTION_CASES = {
    # curve(x) -> exposure for x > 0, exposure at 0, target, tolerance,
    # hi_max, max_iter; the search is asked for a lift of target minus the
    # exposure at 0.
    "linear": (lambda x: 0.1 + 0.05 * x, 0.1, 0.3, 0.001, 64, 50),
    "linear_past_hi_max": (lambda x: 0.02 * x, 0.0, 0.9, 0.01, 64, 50),
    "step": (lambda x: 0.2 if x < 5.3 else 0.6, 0.2, 0.6, 0.01, 64, 50),
    "steep_step": (lambda x: 0.2 if x < 2.7 else 0.9, 0.2, 0.5, 0.01, 64, 50),
    "plateau": (lambda x: min(0.1 + 0.1 * x, 0.45), 0.1, 0.45, 0.005, 64, 50),
    "unreachable": (lambda x: 0.1, 0.1, 0.9, 0.01, 8, 50),
    "unreachable_hi_max_below_one": (lambda x: 0.1 * x, 0.0, 0.9, 0.01, 0.5, 50),
    "bracketing_runs_out": (lambda x: 0.01 * x, 0.0, 0.9, 0.01, 64, 3),
    "bisection_runs_out": (lambda x: 0.1 + 0.05 * x, 0.1, 0.31, 1e-9, 64, 6),
    "fallback_to_best": (lambda x: 0.1 * x, 0.0, 0.4, 0.01, 64, 3),
    "at_zero_on_target": (lambda x: 0.5 + x, 0.5, 0.4, 0.01, 64, 50),
    "non_monotone_on_path": (lambda x: {1.0: 0.4, 2.0: 0.89, 1.5: 0.92, 1.25: 0.85}.get(x, 0.95),
                             0.1, 0.85, 0.01, 64, 50),
}


@pytest.mark.parametrize("case", sorted(BISECTION_CASES))
def test_batched_bisection_walks_the_sequential_path(case, monkeypatch):
    curve, zero, target, tolerance, hi_max, max_iter = BISECTION_CASES[case]
    args = (target - zero, tolerance, hi_max, max_iter)

    def measure_one(x):
        return (zero, "zero") if x == 0.0 else (curve(x), ("measured at", x))

    def outcome(search, *search_args):
        try:
            return search(*search_args, *args)
        except CalibrationError as e:
            return f"CalibrationError: {e}"

    checked = []
    original = pipeline._check_monotone
    monkeypatch.setattr(
        pipeline, "_check_monotone", lambda evals: (checked.append(list(evals)), original(evals))
    )
    path, requests = [], []
    expected = outcome(sequential_bisection, measure_one, path)
    checked_by_sequential = checked[:]
    checked.clear()

    def measure(xs):
        # The first request is x = 0 and the first bracket.
        assert len(xs) <= (3 if requests else 4)
        requests.append(list(xs))
        return [measure_one(x) for x in xs]

    assert outcome(pipeline._bisect_exposure, measure) == expected
    # The path, and only the path, enters the monotonicity check.
    assert checked == checked_by_sequential
    assert all(evals == path for evals in checked)
    asked = [x for xs in requests for x in xs]
    assert len(asked) == len(set(asked)), "an x was measured twice"
    assert asked[0] == 0.0, "x = 0 is measured exactly once, in the first request"
    visited = [x for x, _ in path]
    assert set(visited) <= set(asked)
    # Each request leads with the x the one-at-a-time search measures next.
    leaders = [xs[0] for xs in requests]
    assert leaders == [x for x in visited if x in leaders]
    assert visited[:1] == leaders[:1]


def test_searches_in_lockstep_give_what_each_gives_alone():
    names = sorted(BISECTION_CASES)
    cases = [BISECTION_CASES[name] for name in names]

    def measured(i, x):
        curve, zero = cases[i][:2]
        return (zero, "zero") if x == 0.0 else (curve(x), ("measured at", x))

    rounds = []

    def measure(requests):
        rounds.append([i for i, _ in requests])
        return [[measured(i, x) for x in xs] for i, xs in requests]

    searches = [pipeline._exposure_search(target - zero, tolerance, hi_max, max_iter)
                for _, zero, target, tolerance, hi_max, max_iter in cases]
    outcomes = pipeline._lockstep(searches, measure)
    for i, (case, outcome) in enumerate(zip(cases, outcomes)):
        _, zero, target, tolerance, hi_max, max_iter = case
        try:
            alone = sequential_bisection(lambda x: measured(i, x), [], target - zero, tolerance,
                                         hi_max, max_iter)
        except CalibrationError as e:
            alone = f"CalibrationError: {e}"
        if isinstance(outcome, CalibrationError):
            outcome = f"CalibrationError: {outcome}"
        assert outcome == alone, names[i]
    # Every search asks in the first round; a search that has stopped
    # asks in no later round.
    assert rounds[0] == list(range(len(cases)))
    for before, after in zip(rounds, rounds[1:]):
        assert set(after) <= set(before) and after == sorted(after)


def test_off_path_points_are_not_checked_for_monotonicity():
    # The path brackets at x=2 and bisects up towards it. x=4 (from the
    # first bracket) and x=1.25 (the sibling of the second midpoint) are
    # asked for and measured far off the curve, but never visited.
    off_path = {4.0: 0.0, 1.25: 0.9}
    requests = []

    def measure(xs):
        requests.append(list(xs))
        return [(off_path.get(x, 0.3 * x), None) for x in xs]

    (x, e, _), _ = pipeline._bisect_exposure(
        measure, lift=0.6, tolerance=0.01, hi_max=64, max_iter=50
    )
    assert abs(e - 0.6) <= 0.01 and 1.9 < x < 2.0
    asked = {x for xs in requests for x in xs}
    assert {4.0, 1.25} <= asked


@pytest.mark.parametrize("hi_max", [0.5, 8.0, 64.0])
def test_nothing_above_hi_max_is_requested_but_the_first_point(hi_max):
    requests = []

    def measure(xs):
        requests.append(list(xs))
        return [(0.001 * x, None) for x in xs]

    with pytest.raises(CalibrationError, match="unreachable"):
        pipeline._bisect_exposure(
            measure, lift=0.9, tolerance=0.01, hi_max=hi_max, max_iter=50
        )
    asked = [x for xs in requests for x in xs]
    assert asked[:2] == [0.0, 1.0]
    assert all(x <= hi_max for x in asked[2:])
    assert max(asked) == max(1.0, hi_max)


def test_a_bisection_step_asks_for_at_most_three_points():
    requests = []

    def measure(xs):
        requests.append(list(xs))
        return [(0.1 + 0.05 * x, None) for x in xs]

    pipeline._bisect_exposure(
        measure, lift=0.2, tolerance=1e-6, hi_max=64, max_iter=50
    )
    # The first request is x = 0 and the bracket 1, 2, 4; every later
    # request is a midpoint and its two children, so bisection measures
    # once every two steps.
    assert requests[0] == [0.0, 1.0, 2.0, 4.0]
    assert len(requests) > 3
    for xs in requests[1:]:
        mid, left, right = xs
        assert left < mid < right and mid - left == right - mid


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


def spy(monkeypatch, module, name, record):
    """Replace module.name by a wrapper that calls record(*args) first."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("alpha", [0.2, 1.0])
def test_distill_study_trains_each_model_once(tmp_path, monkeypatch, alpha):
    base = small_experiment(tmp_path / "out")
    config = small_experiment(
        tmp_path / "out", distill=replace(base.distill, alpha=alpha), alpha_sweep=(0.0, 0.2, 1.0)
    )
    calls = []
    spy(monkeypatch, pipeline, "train_runs",
        lambda ds, runs: calls.extend((run.lineage, run.config.alpha) for run in runs))
    rep = pipeline.study_distill_vs_baselines(config)
    # The alpha 1.0 student is the hard-only student's parameters, and the
    # distilled arm is the sweep's student at the config's alpha.
    assert sorted(calls) == [
        ("baseline:hard_only", alpha),
        ("baseline:scalarized", alpha),
        ("student_v0", 0.0),
        ("student_v0", 0.2),
    ]
    sweep = {e["arm"]: e for e in rep["alpha_sweep"]}
    arms = {a["arm"]: a for a in rep["arms"]}
    distilled, same_alpha = arms["distilled_student"], sweep[f"alpha_{alpha}"]
    assert distilled["checkpoint_hash"] == same_alpha["checkpoint_hash"]
    assert distilled["metrics"] == same_alpha["metrics"]

    ds = generate_dataset(config.generator)
    soft = distill.fuse_soft_labels(distill.train_teachers(ds, config.teacher_config), ds)
    independent = distill.train_student(ds, soft, replace(config.distill, alpha=1.0))
    digest = pipeline.CheckpointStore(str(tmp_path / "independent")).put_model(independent)
    assert sweep["alpha_1.0"]["checkpoint_hash"] == digest
    name = f"checkpoints/{digest}.json"
    assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "independent" / name).read_bytes()


def test_studies_train_runs_that_share_a_seed_together(tmp_path, monkeypatch):
    runs, scored, measured = [], [], []
    for module in (distill, pipeline):
        spy(monkeypatch, module, "train_runs", lambda ds, family: runs.append(len(family)))
    spy(monkeypatch, pipeline, "score_models",
        lambda models, ds: scored.extend(m.lineage for m in models))
    spy(monkeypatch, evaluation, "ranking_metrics_report", lambda *args: measured.append(1))
    config = small_experiment(tmp_path / "distill", alpha_sweep=(0.0, 0.2, 0.5, 1.0))
    rep = pipeline.study_distill_vs_baselines(config)
    # Three teachers one by one, then hard-only, the students at alpha 0.2,
    # 0.0 and 0.5, and the scalarized baseline as one family of five. The
    # alpha 1.0 student shares the hard-only run's scores and metrics.
    assert runs == [1, 1, 1, 5]
    assert sorted(scored) == sorted(["baseline:hard_only", "baseline:scalarized"] + ["student_v0"] * 3)
    assert len(measured) == 6
    arms = {a["arm"]: a for a in rep["arms"]}
    alpha1 = rep["alpha_sweep"][-1]
    assert alpha1["metrics"] == arms["hard_only_student"]["metrics"]
    assert alpha1["checkpoint_hash"] != arms["hard_only_student"]["checkpoint_hash"]
    assert alpha1["lineage"] == "student_v0"

    runs.clear()
    config = small_experiment(tmp_path / "repro", num_seeds=3)
    pipeline.study_irreproducibility(config)
    # Every seed's hard-only and distilled students train as one family.
    assert runs == [1, 1, 1, 2 * config.num_seeds]

    runs.clear()
    families, lone = [], []
    for module in (distill, pipeline):
        spy(monkeypatch, module, "score_models",
            lambda models, ds: families.append((len(models), ds.content_hash())))
    spy(monkeypatch, distill, "score_dataset", lambda model, ds: lone.append(model))
    spy(monkeypatch, Model, "score_group", lambda model, group: lone.append(model))
    config = small_experiment(tmp_path / "self", parity_seeds=2)
    rep = pipeline.study_self_distillation(config)
    # Three teachers one by one, then every seed's V0, V1 and retrained V0
    # as three families. The V0s score window B together, and the V1 and
    # retrained V0 models the eval split together; nothing scores alone.
    p = config.parity_seeds
    assert runs == [1, 1, 1, p, p, p]
    _, window_b = split_by_time(generate_dataset(config.generator), config.shift_start_day)
    assert families == [(p, window_b.content_hash()), (2 * p, rep["eval_dataset_hash"])]
    assert lone == []


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

    def test_each_model_is_scored_once(self, tmp_path, monkeypatch):
        calls, served = [], []
        spy(monkeypatch, pipeline, "score_models", lambda models, ds: calls.append((models, ds)))
        spy(monkeypatch, Model, "score_group", lambda model, group: served.append(model))
        config = small_experiment(tmp_path, num_seeds=3)
        rep = pipeline.study_irreproducibility(config)
        # Every student scores the eval split once, however many pairs it
        # is in: all of them in one family call, and no query on its own.
        ((models, ds),) = calls
        assert len({id(m) for m in models}) == len(models) == 2 * config.num_seeds
        assert ds.content_hash() == rep["eval_dataset_hash"]
        assert served == []


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

    def test_each_round_trains_every_seed_as_one_family(self, tmp_path, monkeypatch):
        config = small_experiment(tmp_path, parity_seeds=2)
        events, betas, applied, trained = [], [], [], set()
        spy(monkeypatch, pipeline.Run, "student",
            lambda ds, soft, cfg: events.append(("run", (cfg.seed, soft.provenance))))
        spy(monkeypatch, pipeline, "train_runs", lambda ds, runs: events.append(("train", len(runs))))
        spy(monkeypatch, pipeline, "train_student", lambda *args: events.append(("lone", None)))
        spy(monkeypatch, pipeline, "inject_boost", lambda soft, rule, ds: (
            betas.append(rule.beta), trained.update(map(id, ds.groups))))
        spy(monkeypatch, distill.BoostRule, "apply",
            lambda rule, scores, group: applied.append((rule.beta, id(group))))
        rep = pipeline.study_adhoc_boost(config)
        families, runs = [], []
        for kind, value in events:
            assert kind != "lone", "every student trains through train_runs"
            if kind == "run":
                runs.append(value)
            else:
                assert value == len(runs)
                families.append(runs)
                runs = []
        # The first round trains each seed's baseline, the unboosted
        # student, with its first bracket, beta 1, 2 and 4, in seed order.
        seeds = [row["seed"] for row in rep["per_seed"]]
        assert len(seeds) == config.parity_seeds == 2
        assert [seed for seed, _ in families[0]] == [s for s in seeds for _ in range(4)]
        assert [p for _, p in families[0]] == [
            "teacher_fusion", *(f"boosted(rating_at_least:rho=3.5:beta={b})" for b in (1.0, 2.0, 4.0))
        ] * 2
        baselines = [(s, p) for family in families for s, p in family if p == "teacher_fusion"]
        assert baselines == [(s, "teacher_fusion") for s in seeds]
        # Every later round trains each searching seed's points, one seed
        # after the other.
        for family in families:
            order = [seed for seed, _ in family]
            assert order == sorted(order, key=seeds.index)
        assert betas[:3] == [1.0, 2.0, 4.0]
        # Zero is each calibration's baseline point, already measured.
        assert betas and 0.0 not in betas
        # The serving side boosts the eval groups, the soft side the train groups.
        gammas = [beta for beta, group in applied if group not in trained]
        assert gammas and 0.0 not in gammas
        assert sum(map(len, families)) == config.parity_seeds + len(betas)

    def test_a_lift_within_tolerance_measures_zero_alone(self, tmp_path, monkeypatch):
        base = small_experiment(tmp_path)
        config = small_experiment(tmp_path, parity_seeds=2,
                                  boost=replace(base.boost, target_lift=0.01))
        assert config.boost.target_lift <= config.boost.exposure_tolerance
        families, betas, applied = [], [], []
        spy(monkeypatch, pipeline, "train_runs", lambda ds, runs: families.append(len(runs)))
        spy(monkeypatch, pipeline, "inject_boost", lambda soft, rule, ds: betas.append(rule.beta))
        spy(monkeypatch, distill.BoostRule, "apply", lambda *args: applied.append(args))
        rep = pipeline.study_adhoc_boost(config)
        # Each seed's soft side measures its baseline alone, and zero is on
        # target, so neither side boosts anything.
        assert families == [config.parity_seeds]
        assert betas == [] and applied == []
        for row in rep["per_seed"]:
            assert row["beta"] == row["gamma"] == 0.0
            assert row["soft_exposure"] == row["serve_exposure"] == row["baseline_exposure"]
            assert row["soft_boost_checkpoint"] == row["baseline_checkpoint"]


class TestDeterminism:
    def test_report_bytes_identical_across_reruns(self, tmp_path):
        out = tmp_path / "out"
        pipeline.study_distill_vs_baselines(small_experiment(out))
        first_json = (out / "report.json").read_bytes()
        first_csv = (out / "metrics.csv").read_bytes()
        pipeline.study_distill_vs_baselines(small_experiment(out))
        assert (out / "report.json").read_bytes() == first_json
        assert (out / "metrics.csv").read_bytes() == first_csv


# sha256 of each study's report files at small_experiment, taken before the
# studies shared one setup; metrics.csv is written by the distill study only.
# The four report.json and the self and boost report.md were re-taken when
# distill.seed and objective polarity were deleted (only the config and the
# dataset hashes changed), and again when content_hash came to hash arrays
# instead of JSONL text (only the dataset hashes changed). All but
# distill/metrics.csv, distill/report.md and repro/report.md were re-taken
# once more when training came to pad every group to the dataset's longest
# list, which moves every trained parameter.
GOLDEN_STUDY_BYTES = {
    "distill/metrics.csv": "02bf4029a42c406e8b85698532a865f1bdc6cf8eea55eda7d1e8051208082bbd",
    "distill/report.json": "fe38561abfe2bf25c407a23072c1898e0a85243a0af0be353891e7d25c35c96f",
    "distill/report.md": "fb85e00d555121bb7cc8f01e9f66068b772d267b707d3fce46bfdf666a537d4b",
    "self/report.json": "530727827b3af6bc09cc6c45ba30eded43b8480df49e4b2783339e94533b0bca",
    "self/report.md": "bccb7187c39d9e90a7b3e51733eefbf32dc5cb214a2a4f870f5d4042708e2868",
    "repro/report.json": "edcfd9079bb6a4fff5f604e5e083697ab93f5796939dde5e190aed698f730118",
    "repro/report.md": "66b4f31f27f460c2f8e5fd9a7e632584730b6158187be9ff3bc172581710592e",
    "boost/report.json": "958fb35e87b768474d8cc7d8e404c0b84730c86e318e571b3ee7e765bc81deb0",
    "boost/report.md": "c0f2fd113cdd4fe62250fcf8263231869b0bcf2264bcc3c7712302809ed4e354",
}


def test_study_reports_are_pinned(tmp_path, monkeypatch):
    # Reports record their output directory, so it is a fixed relative path.
    monkeypatch.chdir(tmp_path)
    digests = {}
    for key, study in pipeline.STUDIES.items():
        study(small_experiment(f"golden_{key}"))
        for path in sorted(Path(f"golden_{key}").glob("*.*")):
            digests[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_STUDY_BYTES


def test_interrupted_report_leaves_previous_files_whole(tmp_path, monkeypatch):
    config = small_experiment(tmp_path)
    pipeline.study_self_distillation(config)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def interrupted(report):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_report_markdown", interrupted)
    with pytest.raises(KeyboardInterrupt):
        pipeline.study_self_distillation(config)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
