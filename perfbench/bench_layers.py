"""The moltr layers the traced run measures, and their per-layer metrics.

Every target below is wrapped at its module attribute (or class attribute)
for the traced passes only. Span names drop the ``moltr.`` prefix, so
``moltr.distill:Model.score_group`` records spans named
``distill.Model.score_group``.
"""

from __future__ import annotations

from bench_tracer import self_times

PACKAGE = "moltr"

TARGETS = (
    "moltr.nn:mlp_forward",
    "moltr.nn:distill_loss",
    "moltr.nn:backward",
    "moltr.nn:sgd_step",
    "moltr.nn:checkpoint_document",
    "moltr.nn:save_checkpoint",
    "moltr.nn:load_checkpoint",
    "moltr.nn:checkpoint_from_document",
    "moltr.data:generate_dataset",
    "moltr.data:save_dataset",
    "moltr.data:load_dataset",
    "moltr.data:Dataset.content_hash",
    "moltr.distill:train_teacher",
    "moltr.distill:train_student",
    "moltr.distill:train_hard_only",
    "moltr.distill:train_scalarized_baseline",
    "moltr.distill:fuse_soft_labels",
    "moltr.distill:fusion_serve_scores",
    "moltr.distill:score_dataset",
    "moltr.distill:inject_boost",
    "moltr.distill:Model.score_group",
    "moltr.distill:SoftLabelSet.save",
    "moltr.distill:SoftLabelSet.load",
    "moltr.evaluation:ranking_metrics_report",
    "moltr.evaluation:mean_ndcg",
    "moltr.evaluation:mean_boosted_exposure",
    "moltr.evaluation:sxs_change_rate",
    "moltr.evaluation:serve_with_boost",
    "moltr.evaluation:rank_order",
    "moltr.pipeline:study_distill_vs_baselines",
    "moltr.pipeline:study_adhoc_boost",
    "moltr.pipeline:CheckpointStore.put_model",
)

# Stage metrics: the total time of stage calls made from outside any other
# stage, so the stages of one pass never count the same interval twice.
STAGES = {
    "data.generate_dataset": "data.generate_s",
    "data.save_dataset": "data.save_s",
    "data.load_dataset": "data.load_s",
    "data.Dataset.content_hash": "data.hash_s",
    "distill.train_teacher": "distill.teachers_s",
    "distill.train_student": "distill.students_s",
    "distill.train_hard_only": "distill.students_s",
    "distill.train_scalarized_baseline": "distill.students_s",
    "distill.fuse_soft_labels": "distill.fuse_s",
    "distill.fusion_serve_scores": "distill.score_s",
    "distill.score_dataset": "distill.score_s",
    "distill.Model.score_group": "distill.score_s",
    "distill.inject_boost": "distill.inject_boost_s",
    "distill.SoftLabelSet.save": "distill.soft_save_s",
    "distill.SoftLabelSet.load": "distill.soft_load_s",
    "evaluation.ranking_metrics_report": "evaluation.metrics_s",
    "evaluation.mean_ndcg": "evaluation.metrics_s",
    "evaluation.mean_boosted_exposure": "evaluation.metrics_s",
    "evaluation.sxs_change_rate": "evaluation.sxs_s",
    "evaluation.serve_with_boost": "evaluation.serve_boost_s",
    "pipeline.CheckpointStore.put_model": "pipeline.checkpoint_put_s",
}

# Per-call metrics: self time averaged over every call, at any depth.
PER_CALL = {
    "nn.mlp_forward": "nn.forward_us",
    "nn.distill_loss": "nn.loss_us",
    "nn.backward": "nn.backward_us",
    "nn.sgd_step": "nn.update_us",
    "evaluation.rank_order": "evaluation.rank_order_us",
}

TRAINERS = frozenset(
    name for name, metric in STAGES.items()
    if metric in ("distill.teachers_s", "distill.students_s")
)
CHECKPOINT_IO = frozenset(
    {
        "nn.checkpoint_document",
        "nn.save_checkpoint",
        "nn.load_checkpoint",
        "nn.checkpoint_from_document",
    }
)
STUDIES = frozenset({"pipeline.study_distill_vs_baselines", "pipeline.study_adhoc_boost"})

# name -> unit, in the order the benchmark reports them.
METRICS = {
    "nn.forward_us": "us",
    "nn.loss_us": "us",
    "nn.backward_us": "us",
    "nn.update_us": "us",
    "nn.forward_calls": "count",
    "nn.update_calls": "count",
    "nn.checkpoint_s": "s",
    "distill.teachers_s": "s",
    "distill.students_s": "s",
    "distill.trainer_self_s": "s",
    "distill.step_us": "us",
    "distill.useful_step_ratio": "ratio",
    "distill.fuse_s": "s",
    "distill.score_s": "s",
    "distill.inject_boost_s": "s",
    "distill.soft_save_s": "s",
    "distill.soft_load_s": "s",
    "data.generate_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "data.hash_s": "s",
    "evaluation.metrics_s": "s",
    "evaluation.sxs_s": "s",
    "evaluation.serve_boost_s": "s",
    "evaluation.rank_order_calls": "count",
    "evaluation.rank_order_us": "us",
    "pipeline.study_s": "s",
    "pipeline.self_s": "s",
    "pipeline.checkpoint_put_s": "s",
    "pipeline.calibration_retrains": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the spans under root spans (parent -1).

    Totals and counts are means per root span, that is per traced pass;
    ``*_us`` metrics are means per call. ``trace.overhead_s`` is not a
    property of the spans and is left for the caller.
    """
    roots = sum(1 for s in spans if s[3] == -1)
    if roots == 0:
        raise ValueError("no root spans: nothing was traced")
    own = self_times(spans)
    total_ns = dict.fromkeys(set(STAGES.values()), 0)
    call_ns = dict.fromkeys(PER_CALL, 0)
    calls = dict.fromkeys(PER_CALL, 0)
    in_stage = [False] * len(spans)
    trainer_ns = trainer_self_ns = checkpoint_ns = 0
    study_ns = study_self_ns = 0
    training_forwards = retrains = 0

    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            parent_name = spans[parent][0]
            in_stage[i] = in_stage[parent] or parent_name in STAGES
        else:
            parent_name = None
        stage = STAGES.get(name)
        if stage is not None and not in_stage[i]:
            total_ns[stage] += end - start
        if name in PER_CALL:
            call_ns[name] += own[i]
            calls[name] += 1
        if name in TRAINERS:
            trainer_ns += end - start
            trainer_self_ns += own[i]
        elif name in CHECKPOINT_IO:
            checkpoint_ns += own[i]
        elif name in STUDIES:
            study_ns += end - start
            study_self_ns += own[i]
        elif name == "distill.inject_boost":
            retrains += 1
        if name == "nn.mlp_forward" and parent_name in TRAINERS:
            training_forwards += 1

    def per_call_us(name):
        return call_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    updates = calls["nn.sgd_step"]
    out = {
        "nn.forward_us": per_call_us("nn.mlp_forward"),
        "nn.loss_us": per_call_us("nn.distill_loss"),
        "nn.backward_us": per_call_us("nn.backward"),
        "nn.update_us": per_call_us("nn.sgd_step"),
        "nn.forward_calls": calls["nn.mlp_forward"] / roots,
        "nn.update_calls": updates / roots,
        "nn.checkpoint_s": checkpoint_ns / 1e9 / roots,
        "distill.trainer_self_s": trainer_self_ns / 1e9 / roots,
        "distill.step_us": trainer_ns / updates / 1e3 if updates else 0.0,
        "distill.useful_step_ratio": updates / training_forwards if training_forwards else 0.0,
        "evaluation.rank_order_calls": calls["evaluation.rank_order"] / roots,
        "evaluation.rank_order_us": per_call_us("evaluation.rank_order"),
        "pipeline.study_s": study_ns / 1e9 / roots,
        "pipeline.self_s": study_self_ns / 1e9 / roots,
        "pipeline.calibration_retrains": retrains / roots,
    }
    for metric, ns in total_ns.items():
        out[metric] = ns / 1e9 / roots
    return {name: out[name] for name in METRICS if name in out}
