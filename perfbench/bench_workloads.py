"""The benchmark's workloads: what one pass runs and how its outputs are checked.

Every workload is a single-process batch job driven through moltr's public
functions. A pass runs the timed work inside ``region`` (a plain context, or
the tracer's root span) and then checks what it produced; a failed check is
returned as an error string, never raised. moltr is always reached through
module or class attributes at call time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from moltr import data, distill, evaluation, pipeline

# Relative to the checkout root, which is the working directory of a run.
# Reports record their output directory, so a relative path keeps report
# digests independent of where the checkout lives.
WORK_DIR = os.path.join("perfbench", "out", "work")
# Offsets that derive each pass's data seed from the workload seed.
SUB_SEED_STRIDE = 1_000_003
SETUP_SEED_OFFSET = 500_009


@dataclass
class PassResult:
    data_seed: int
    wall_s: float = 0.0
    digest: str = ""
    params: dict[str, str] = field(default_factory=dict)
    score_us: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def data_seed(seed: int, sub: int) -> int:
    return seed + SUB_SEED_STRIDE * sub


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _check_ndcg(values, errors: list[str]) -> None:
    for label, v in values:
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            errors.append(f"NDCG {label} = {v!r} is not finite in [0, 1]")


def _check_checkpoint_roundtrip(path: str, tmp_dir: str, errors: list[str]):
    """Load a checkpoint, save it again and load that copy.

    The re-saved file must hash to the same digest and the params must be
    equal. Returns the loaded model.
    """
    model = distill.Model.load(path)
    copy = os.path.join(tmp_dir, "roundtrip.json")
    digest = model.save(copy)
    if digest != _sha256_file(path):
        errors.append(f"checkpoint {os.path.basename(path)} re-saves to another digest")
    if distill.Model.load(copy).params != model.params:
        errors.append(f"checkpoint {os.path.basename(path)} params change on reload")
    return model


def _time_scoring(model, groups, out: list[float]) -> dict[int, np.ndarray]:
    """Score each group alone, appending each call's latency in us."""
    clock = time.perf_counter_ns
    scores = {}
    for g in groups:
        t0 = clock()
        s = model.score_group(g)
        out.append((clock() - t0) / 1e3)
        scores[g.query_id] = s
    return scores


class Study:
    """One call of a ``moltr.pipeline`` study at a reduced config.

    After the timed call the pass checks the report and every checkpoint,
    then replays the serving path: the main student, loaded from its
    checkpoint, scores each eval query alone.
    """

    def __init__(self, name, study, sizes, sub_seeds, main_model):
        self.name = name
        self.study = study
        self.sizes = sizes
        self.sub_seeds = sub_seeds
        self.main_model = main_model
        self.out_dir = os.path.join(WORK_DIR, name)
        self._eval_sets = {}

    def setup(self, seed: int) -> None:
        pass

    def config(self, seed: int) -> pipeline.ExperimentConfig:
        s = self.sizes
        d = pipeline.default_experiment_config(output_dir=self.out_dir).to_dict()
        d["generator"]["num_queries"] = s["train_queries"]
        d["generator"]["seed"] = seed
        d["distill"]["epochs"] = s["epochs"]
        d["eval_queries"] = s["eval_queries"]
        d["parity_seeds"] = s["parity_seeds"]
        d["boost"]["num_queries"] = s["train_queries"]
        return pipeline.ExperimentConfig.from_dict(d)

    def eval_set(self, report: dict) -> data.Dataset:
        """The study's eval split, rebuilt from the config in its report."""
        cfg = report["config"]
        gen = cfg["generator"]
        key = gen["seed"]
        if key not in self._eval_sets:
            self._eval_sets[key] = data.generate_dataset(
                data.GeneratorConfig.from_dict(
                    {
                        **gen,
                        "num_queries": cfg["eval_queries"],
                        "seed": gen["seed"] + cfg["eval_seed_offset"],
                    }
                )
            )
        return self._eval_sets[key]

    def run_pass(self, seed: int, region, measure_scores: bool) -> PassResult:
        cfg = self.config(seed)
        _fresh_dir(self.out_dir)
        res = PassResult(data_seed=seed)
        with region:
            t0 = time.perf_counter()
            report = getattr(pipeline, self.study)(cfg)
            res.wall_s = time.perf_counter() - t0

        errors = res.errors
        report_path = os.path.join(self.out_dir, "report.json")
        res.digest = _sha256_file(report_path)
        with open(report_path) as f:
            if json.load(f) != json.loads(json.dumps(report, sort_keys=True)):
                errors.append("report.json differs from the returned report")
        _check_ndcg(_ndcg_values(report), errors)
        if "max_exposure_gap" in report:
            limit = 2 * report["config"]["boost"]["exposure_tolerance"]
            if not report["max_exposure_gap"] <= limit:
                errors.append(
                    f"exposure gap {report['max_exposure_gap']!r} exceeds {limit!r}"
                )

        ckpt_dir = os.path.join(self.out_dir, "checkpoints")
        tmp_dir = _fresh_dir(os.path.join(self.out_dir, "roundtrip"))
        models = {}
        for fname in sorted(os.listdir(ckpt_dir)):
            digest = fname.removesuffix(".json")
            model = _check_checkpoint_roundtrip(os.path.join(ckpt_dir, fname), tmp_dir, errors)
            models[digest] = model
            res.params[f"{model.lineage}@{digest[:12]}"] = model.params.params_hash()

        eval_ds = self.eval_set(report)
        if eval_ds.content_hash() != report["eval_dataset_hash"]:
            errors.append("rebuilt eval split does not match the report's hash")
        main = models.get(self.main_model(report))
        if main is None:
            errors.append("main student checkpoint is missing")
        elif measure_scores:
            _time_scoring(main, eval_ds.groups, res.score_us)
        return res


def _ndcg_values(report: dict):
    for arm in report.get("arms", []) + report.get("alpha_sweep", []):
        for key in ("ndcg_at_5", "ndcg_at_10", "ndcg_full"):
            yield f"{arm['arm']}.{key}", arm["metrics"][key]
    for i, row in enumerate(report.get("per_seed", [])):
        for key, v in row.items():
            if key.endswith("ndcg10"):
                yield f"per_seed[{i}].{key}", v


def _distilled_student(report: dict) -> str:
    return next(a["checkpoint_hash"] for a in report["arms"] if a["arm"] == "distilled_student")


def _soft_boost_student(report: dict) -> str:
    return report["per_seed"][0]["soft_boost_checkpoint"]


class IngestEval:
    """Data round trips, fusion and serving-path scoring; no training.

    The fixed teachers and the two fixed students are trained in set-up on
    a small, separately seeded dataset.
    """

    name = "ingest-eval"
    sub_seeds = 1

    def __init__(self, sizes):
        self.sizes = sizes
        self.out_dir = os.path.join(WORK_DIR, self.name)
        self.rule = distill.BoostRule(predicate="rating_at_least", rho=pipeline.BoostStudyConfig().rho)

    def _generator(self, num_queries: int, seed: int) -> data.GeneratorConfig:
        base = pipeline.default_experiment_config().generator.to_dict()
        return data.GeneratorConfig.from_dict({**base, "num_queries": num_queries, "seed": seed})

    def setup(self, seed: int) -> None:
        s = self.sizes
        ds = data.generate_dataset(
            self._generator(s["setup_queries"], seed + SETUP_SEED_OFFSET)
        )
        cfg = distill.DistillConfig.from_dict(
            {**pipeline.default_experiment_config().distill.to_dict(), "epochs": s["setup_epochs"]}
        )
        teacher_cfg = distill.DistillConfig.from_dict({**cfg.to_dict(), "alpha": 1.0})
        self.teachers = distill.train_teachers(ds, teacher_cfg)
        soft = distill.fuse_soft_labels(self.teachers, ds)
        self.student = distill.train_student(ds, soft, cfg)
        self.other = distill.train_student(ds, soft, cfg.with_seed(cfg.seed + 1))

    def fixed_params(self) -> dict[str, str]:
        out = {f"teacher{k}": m.params.params_hash() for k, m in enumerate(self.teachers.models)}
        out["student"] = self.student.params.params_hash()
        out["other_student"] = self.other.params.params_hash()
        return out

    def run_pass(self, seed: int, region, measure_scores: bool) -> PassResult:
        work = _fresh_dir(self.out_dir)
        data_path = os.path.join(work, "data.jsonl")
        soft_path = os.path.join(work, "soft.jsonl")
        gen = self._generator(self.sizes["queries"], seed)
        res = PassResult(data_seed=seed)
        score_us = res.score_us if measure_scores else []
        with region:
            t0 = time.perf_counter()
            ds = data.generate_dataset(gen)
            data.save_dataset(ds, data_path)
            loaded = data.load_dataset(data_path)
            loaded_hash = loaded.content_hash()
            soft = distill.fuse_soft_labels(self.teachers, loaded)
            soft.save(soft_path)
            soft_back = distill.SoftLabelSet.load(soft_path)
            scores = _time_scoring(self.student, loaded.groups, score_us)
            metrics = evaluation.ranking_metrics_report(scores, loaded, self.rule)
            sxs = evaluation.sxs_change_rate(self.student, self.other, loaded)
            res.wall_s = time.perf_counter() - t0

        errors = res.errors
        if ds.content_hash() != loaded_hash:
            errors.append("JSONL round trip changed content_hash")
        if soft_back.scores.keys() != soft.scores.keys() or not all(
            np.array_equal(soft.scores[q], soft_back.scores[q]) for q in soft.scores
        ):
            errors.append("soft-label round trip changed the scores")
        m = metrics.to_dict()
        _check_ndcg(((k, m[k]) for k in ("ndcg_at_5", "ndcg_at_10", "ndcg_full")), errors)
        student_path = os.path.join(work, "student.json")
        self.student.save(student_path)
        reloaded = _check_checkpoint_roundtrip(
            student_path, _fresh_dir(os.path.join(work, "roundtrip")), errors
        )
        if reloaded.params != self.student.params:
            errors.append("fixed student params change on a save/load round trip")
        summary = {
            "dataset_hash": loaded_hash,
            "soft_labels_sha256": _sha256_file(soft_path),
            "metrics": m,
            "sxs": sxs.to_dict(),
        }
        res.digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
        res.params = self.fixed_params()
        return res


WORKLOADS = {
    w.name: w
    for w in (
        Study(
            "study-distill",
            "study_distill_vs_baselines",
            {"train_queries": 1000, "eval_queries": 500, "epochs": 4, "parity_seeds": 1},
            sub_seeds=1,
            main_model=_distilled_student,
        ),
        Study(
            "study-boost",
            "study_adhoc_boost",
            {"train_queries": 280, "eval_queries": 200, "epochs": 4, "parity_seeds": 3},
            sub_seeds=4,
            main_model=_soft_boost_student,
        ),
        IngestEval({"queries": 6000, "setup_queries": 300, "setup_epochs": 2}),
    )
}
