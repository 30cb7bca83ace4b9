"""Command-line entry point.

Subcommands cover the individual pipeline stages (gen-data, train-teacher,
fuse, inject-boost, train-student, self-distill, score, eval) and the four
studies (study-distill, study-self, study-repro, study-boost). Every
subcommand reads an optional JSON config file; explicit flags win over
config values. Errors print a diagnostic and exit nonzero (2 for usage or
config problems).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import distill, evaluation, nn, pipeline
from .data import GeneratorConfig, generate_dataset, load_dataset, save_dataset
from .distill import BoostRule, DistillConfig, Model, SoftLabelSet, TeacherEnsemble
from .errors import (
    CalibrationError, ConfigError, InputError, ParseError, TrainingError, read_json, write_atomic,
)


def _load_json(path) -> dict:
    doc = read_json(path, f"config file {path}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _section(doc, section: str) -> dict:
    """A copy of one config section, to which command-line flags are added."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} config must be a JSON object")
    return dict(doc)


def _distill_config(args) -> DistillConfig:
    doc = _load_json(args.config) if args.config else {}
    doc = _section(doc.get("distill", doc), "distill")
    for key in ("alpha", "temperature", "epochs", "learning_rate"):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    config = DistillConfig.from_dict(doc)
    return config if args.seed is None else config.with_seed(args.seed)


def _experiment_config(args) -> pipeline.ExperimentConfig:
    if args.config:
        cfg = pipeline.ExperimentConfig.from_dict(_load_json(args.config))
    else:
        cfg = pipeline.default_experiment_config()
    changes = {}
    if getattr(args, "out", None):
        changes["output_dir"] = args.out
    if getattr(args, "seeds", None) is not None:
        changes["num_seeds"] = args.seeds
    if getattr(args, "seed", None) is not None:
        changes["distill"] = cfg.distill.with_seed(args.seed)
    return replace(cfg, **changes)


def _boost_rule(args) -> BoostRule:
    return BoostRule(predicate=args.predicate, beta=args.beta, rho=args.rho)


def cmd_gen_data(args):
    doc = _load_json(args.config) if args.config else {}
    doc = _section(doc.get("generator", {}), "generator")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.num_queries is not None:
        doc["num_queries"] = args.num_queries
    config = GeneratorConfig.from_dict(doc)
    save_dataset(generate_dataset(config), args.out)
    print(f"wrote dataset to {args.out}")
    return 0


def cmd_train_teacher(args):
    config = _distill_config(args)
    dataset = load_dataset(args.data)
    model = distill.train_teacher(dataset, args.objective, config)
    model.save(args.out)
    print(f"wrote {model.lineage} checkpoint to {args.out}")
    return 0


def cmd_fuse(args):
    dataset = load_dataset(args.data)
    models = [Model.load(p) for p in args.teachers]
    weights = np.asarray(args.weights, dtype=float) if args.weights else None
    soft = distill.fuse_soft_labels(
        TeacherEnsemble(models=models, fusion_weights=weights), dataset
    )
    soft.save(args.out)
    print(f"wrote soft labels ({soft.provenance}) to {args.out}")
    return 0


def cmd_inject_boost(args):
    dataset = load_dataset(args.data)
    soft = SoftLabelSet.load(args.soft)
    boosted = distill.inject_boost(soft, _boost_rule(args), dataset)
    boosted.save(args.out)
    print(f"wrote boosted soft labels ({boosted.provenance}) to {args.out}")
    return 0


def cmd_train_student(args):
    config = _distill_config(args)
    dataset = load_dataset(args.data)
    soft = SoftLabelSet.load(args.soft)
    model = distill.train_student(dataset, soft, config)
    model.save(args.out)
    print(f"wrote {model.lineage} checkpoint to {args.out}")
    return 0


def cmd_self_distill(args):
    config = _distill_config(args)
    dataset = load_dataset(args.data)
    prev = Model.load(args.model)
    model = distill.self_distill_step(prev, dataset, config)
    model.save(args.out)
    print(f"wrote {model.lineage} checkpoint to {args.out}")
    return 0


def cmd_score(args):
    dataset = load_dataset(args.data)
    model = Model.load(args.model)
    scores = distill.score_dataset(model, dataset)
    with write_atomic(args.out) as f:
        for qid in scores:
            f.write(
                json.dumps({"query_id": qid, "scores": scores[qid].tolist()}) + "\n"
            )
    print(f"wrote scores to {args.out}")
    return 0


def cmd_eval(args):
    dataset = load_dataset(args.data)
    model = Model.load(args.model)
    scores = distill.score_dataset(model, dataset)
    report = evaluation.ranking_metrics_report(scores, dataset)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_study(study):
    def run(args):
        cfg = _experiment_config(args)
        report = pipeline.STUDIES[study](cfg)
        print(f"wrote {report['study']} report to {cfg.output_dir}/report.json")
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moltr",
        description="Multi-objective learning-to-rank via model distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        return p

    p = add("gen-data", cmd_gen_data, help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--num-queries", type=int, dest="num_queries")

    def training_flags(p, distilling=True):
        if distilling:  # a teacher's loss reads neither
            p.add_argument("--alpha", type=float)
            p.add_argument("--temperature", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--learning-rate", type=float, dest="learning_rate")
        p.add_argument("--seed", type=int)

    p = add("train-teacher", cmd_train_teacher, help="train one objective's teacher")
    p.add_argument("--data", required=True)
    p.add_argument("--objective", type=int, required=True)
    p.add_argument("--out", required=True)
    training_flags(p, distilling=False)

    p = add("fuse", cmd_fuse, help="fuse teacher scores into soft labels")
    p.add_argument("--data", required=True)
    p.add_argument("--teachers", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float)
    p.add_argument("--out", required=True)

    p = add("inject-boost", cmd_inject_boost, help="boost matching items' soft labels")
    p.add_argument("--data", required=True)
    p.add_argument("--soft", required=True)
    p.add_argument("--predicate", choices=["rating_at_least", "is_new"], required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, default=4.0)
    p.add_argument("--out", required=True)

    p = add("train-student", cmd_train_student, help="distill a student model")
    p.add_argument("--data", required=True)
    p.add_argument("--soft", required=True)
    p.add_argument("--out", required=True)
    training_flags(p)

    p = add("self-distill", cmd_self_distill, help="self-distill onto new data")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    training_flags(p)

    p = add("score", cmd_score, help="score a dataset with a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, help="ranking metrics for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)

    for study, helptext in (
        ("distill", "distilled student vs baselines"),
        ("self", "self-distillation parity"),
        ("repro", "irreproducibility across seeds"),
        ("boost", "serving boost vs soft-label boost"),
    ):
        p = add(f"study-{study}", _cmd_study(study), help=helptext)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        if study == "repro":
            p.add_argument("--seeds", type=int, help="seeds per model family")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # Every non-finite value is checked and raised as a MoltrError anyway.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (InputError, TrainingError, CalibrationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
