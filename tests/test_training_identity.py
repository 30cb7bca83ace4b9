"""Trained parameters are pinned bit for bit, and training keeps its checks.

The golden params_hash values below were taken from the per-step trainer
that called nn.mlp_forward, nn.distill_loss, nn.backward and nn.sgd_step on
every group. The fused training loop must reproduce each of them exactly,
for every trainer, both activations, alpha at 0, 0.2 and 1, and student and
teacher temperatures away from 1.
"""

import json

import numpy as np
import pytest
from oracles import scalarized_steps

from moltr import cli, data, distill, nn
from moltr.errors import ConfigError, InputError, TrainingError
from moltr.pipeline import CheckpointStore


def gen_config(label_rates=(0.4, 0.5)):
    return data.GeneratorConfig(
        num_queries=60, items_per_query=(4, 8), m=6, K=3, seed=3, label_rates=list(label_rates)
    )


def train_config(activation="relu", **kwargs):
    defaults = dict(
        mlp=nn.MlpConfig(layer_dims=(6, 8, 4, 1), activation=activation, init_scale=0.3, seed=5),
        alpha=0.2,
        epochs=3,
        learning_rate=0.05,
    )
    defaults.update(kwargs)
    return distill.DistillConfig(**defaults)


def phash(model):
    return model.params.params_hash()


STUDENT_CASES = {
    "student_relu_a0": ("relu", dict(alpha=0.0)),
    "student_relu_a0.2": ("relu", dict(alpha=0.2)),
    "student_relu_a1": ("relu", dict(alpha=1.0)),
    "student_relu_a0.2_T2": ("relu", dict(alpha=0.2, temperature=2.0, teacher_temperature=2.5)),
    "student_tanh_a0.2_T2": ("tanh", dict(alpha=0.2, temperature=2.0, teacher_temperature=0.5)),
    "student_tanh_a0_T2": ("tanh", dict(alpha=0.0, temperature=2.0, teacher_temperature=2.5)),
    "student_tanh_a1": ("tanh", dict(alpha=1.0)),
}


def trained_hashes():
    """name -> params_hash for every trainer, plus the scalarized step counts."""
    ds = data.generate_dataset(gen_config())
    out = {}
    teachers = {}
    for act in ("relu", "tanh"):
        ens = distill.train_teachers(ds, train_config(act, alpha=1.0))
        teachers[act] = ens
        for k, model in enumerate(ens.models):
            out[f"teacher{k}_{act}"] = phash(model)
        out[f"hard_only_{act}"] = phash(distill.train_hard_only(ds, train_config(act)))
    for name, (act, kw) in STUDENT_CASES.items():
        soft = distill.fuse_soft_labels(teachers[act], ds)
        out[name] = phash(distill.train_student(ds, soft, train_config(act, **kw)))
    soft = distill.fuse_soft_labels(teachers["relu"], ds)
    boosted = distill.inject_boost(soft, distill.BoostRule("rating_at_least", beta=1.5), ds)
    out["student_relu_boosted"] = phash(distill.train_student(ds, boosted, train_config()))
    v0 = distill.train_student(ds, soft, train_config())
    out["self_distill_v1"] = phash(distill.self_distill_step(v0, ds, train_config().with_seed(6)))
    for act, weights in (("relu", [1 / 3] * 3), ("tanh", [1.0, 0.0, 0.5])):
        model = distill.train_scalarized_baseline(ds, weights, train_config(act))
        out[f"scalarized_{act}"] = phash(model)
        out[f"scalarized_{act}_steps"] = scalarized_steps(ds, weights, train_config(act).epochs)
    # Every secondary label observed, so most steps sum all three terms.
    dense = data.generate_dataset(gen_config(label_rates=(1.0, 1.0)))
    model = distill.train_scalarized_baseline(dense, [0.2, 0.3, 0.5], train_config())
    out["scalarized_dense"] = phash(model)
    out["scalarized_dense_steps"] = scalarized_steps(dense, [0.2, 0.3, 0.5], train_config().epochs)
    return out


GOLDEN = {
    "hard_only_relu": "e6f85404cc4c6394acd3d3f92ed3d4b8330e3214d9cd6b79e0f0e9d76e947f0a",
    "hard_only_tanh": "448815c0db338f13a6126f33296c2f32f905a50133ee2a72ba9169389a8cbe98",
    "scalarized_dense": "10dca66bf5d428cca567888eaa1e4ffc8574904d982f50e9f4050946d9670356",
    "scalarized_dense_steps": [165, 141, 135],
    "scalarized_relu": "b83d5015b33473a52bb7ec82aa65e64033849ed41f5b4044a483961b0a5fa49c",
    "scalarized_relu_steps": [174, 57, 90],
    "scalarized_tanh": "aa8b8b10a21697bfe1042a322d9a97402fce548769e12eb77a343f028ddbea8a",
    "scalarized_tanh_steps": [174, 0, 90],
    "self_distill_v1": "6b75fd63decddd4b63d75d76612853ec2d529823ad3f5afd7a79e527c20b3ec8",
    "student_relu_a0": "99b363ad549b44c2d4fe2f6313e94d6332ffe27f1a3c178a4edbd2136fd0be07",
    "student_relu_a0.2": "abae1b33f09034500eb9bbb46dabc002780e0b275c60273a4e2c9824a9beb721",
    "student_relu_a0.2_T2": "480a5876b913bd0f2ce179cfeec6ba9595a1e88fbd4b3af4f8237d755595ad06",
    "student_relu_a1": "e6f85404cc4c6394acd3d3f92ed3d4b8330e3214d9cd6b79e0f0e9d76e947f0a",
    "student_relu_boosted": "71ad30f6493f175ae7d345715044e528bcb48fc96aab839a1e4e231afc70ec62",
    "student_tanh_a0.2_T2": "520a8beabd9989b74e5f3492919caef2f57e9b1b370b62c4614532925125a0c2",
    "student_tanh_a0_T2": "53a606281197b03d924eaa3630b3f8d7c433f4efffe76e449da6cc0e1fcf409b",
    "student_tanh_a1": "448815c0db338f13a6126f33296c2f32f905a50133ee2a72ba9169389a8cbe98",
    "teacher0_relu": "d175c07df09d0d4abea0edb7a7e70ae3abb8a07870beb846d74a56537def25d4",
    "teacher0_tanh": "a9ec6a9917a89c08a0a0b2c22a7e404c6ce48344cded56f93ee6a6b79830af4e",
    "teacher1_relu": "2825f70a773f2f19fe90590da4e4a276ef42672334b227442610ffc0a5f03eac",
    "teacher1_tanh": "c9c7743b7bd94b7ab7d60b161dca452a7178be8c4d73c4199857dec397c2cb5a",
    "teacher2_relu": "c5fb98edd67ecccbecda870930a0e77bbd21f998c297b4b939f653e92fb0bf92",
    "teacher2_tanh": "67482ac26563027449af63beb55ad40da442a63542f9d5e61600a37431f1137b",
}


@pytest.fixture(scope="module")
def hashes():
    return trained_hashes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_params_match_the_per_step_trainer(hashes, name):
    assert hashes[name] == GOLDEN[name]


def test_every_trainer_is_pinned(hashes):
    assert set(hashes) == set(GOLDEN)


def reference_train(dataset, config, target, alpha=1.0, soft=None):
    """The per-step loop over the public nn functions that the trainers fuse."""
    mlp = config.mlp
    rng = np.random.default_rng(config.seed)
    params = nn.init_params(mlp, rng)
    order = np.arange(len(dataset.groups))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for gi in order:
            group = dataset.groups[gi]
            hard = target(group)
            if hard is None and (alpha == 1.0 or soft is None):
                continue
            scores, trace = nn.mlp_forward(params, group.features, mlp.activation)
            soft_target = None
            if soft is not None:
                raw = soft.scores[group.query_id]
                soft_target = nn.listwise_softmax(raw, config.teacher_temperature)
            _, g = nn.distill_loss(scores, hard, soft_target, alpha, config.temperature)
            grads = nn.backward(trace, params, g, mlp.activation)
            params = nn.sgd_step(params, grads, config.learning_rate)
    return params


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_trainers_equal_the_public_nn_loop(activation, alpha):
    ds = data.generate_dataset(gen_config())
    primary = distill._objective_target
    cfg = train_config(activation, alpha=alpha, temperature=1.5, teacher_temperature=3.0, epochs=2)
    teachers = distill.train_teachers(ds, train_config(activation, alpha=1.0, epochs=1))
    soft = distill.fuse_soft_labels(teachers, ds)
    student = distill.train_student(ds, soft, cfg)
    assert student.params == reference_train(ds, cfg, lambda g: primary(g, 0), alpha, soft)
    hard_only = distill.train_hard_only(ds, cfg)
    assert hard_only.params == reference_train(ds, cfg, lambda g: primary(g, 0))
    teacher = distill.train_teacher(ds, 1, cfg)
    covered = [g for g in ds.groups if g.has_labels_for(1)]
    covered_ds = data.Dataset(objectives=ds.objectives, groups=covered, m=ds.m, K=ds.K)
    assert teacher.params == reference_train(covered_ds, cfg, lambda g: primary(g, 1))


# -- runs trained together ------------------------------------------------------


def family(ds, soft, act):
    """name -> Run for every pinned trainer on ds that shares
    train_config(act)'s mlp, epochs and learning rate."""
    cfg = train_config(act)
    runs = {f"hard_only_{act}": distill.Run.hard_only(cfg)}
    for name, (case_act, kw) in STUDENT_CASES.items():
        if case_act == act:
            runs[name] = distill.Run.student(ds, soft, train_config(act, **kw))
    if act == "relu":
        boosted = distill.inject_boost(soft, distill.BoostRule("rating_at_least", beta=1.5), ds)
        runs["student_relu_boosted"] = distill.Run.student(ds, boosted, cfg)
    weights = [1 / 3] * 3 if act == "relu" else [1.0, 0.0, 0.5]
    runs[f"scalarized_{act}"] = distill.Run.scalarized(ds, weights, cfg)
    return runs


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_runs_trained_together_equal_runs_trained_alone(activation):
    ds = data.generate_dataset(gen_config())
    teachers = distill.train_teachers(ds, train_config(activation, alpha=1.0))
    runs = family(ds, distill.fuse_soft_labels(teachers, ds), activation)
    # The hard-only run skips the groups without a booking; the distilled
    # students step on every group, and the scalarized run on most.
    primary = [distill._objective_target(g, 0) for g in ds.groups]
    assert 0 < sum(t is None for t in primary) < len(ds.groups)
    together = distill.train_runs(ds, list(runs.values()))
    for (name, run), model in zip(runs.items(), together):
        assert phash(model) == GOLDEN[name], name
        assert model.params == distill.train_runs(ds, [run])[0].params, name
        assert model.lineage == run.lineage and model.config == run.config.mlp


def test_dense_runs_trained_together_equal_the_goldens():
    dense = data.generate_dataset(gen_config(label_rates=(1.0, 1.0)))
    cfg = train_config()
    runs = [distill.Run.scalarized(dense, w, cfg) for w in ([0.2, 0.3, 0.5], [1.0, 0.0, 0.0])]
    scalarized, primary_only = distill.train_runs(dense, [*runs, distill.Run.hard_only(cfg)])[:2]
    assert phash(scalarized) == GOLDEN["scalarized_dense"]
    assert primary_only.params == distill.train_hard_only(dense, cfg).params


def test_runs_trained_together_must_share_the_schedule():
    ds = data.generate_dataset(gen_config())
    for other in (train_config(epochs=2), train_config(learning_rate=0.1),
                  train_config().with_seed(6)):
        with pytest.raises(ConfigError, match="must share"):
            distill.train_runs(ds, [distill.Run.hard_only(train_config()),
                                    distill.Run.hard_only(other)])
    with pytest.raises(ConfigError, match="at least one run"):
        distill.train_runs(ds, [])


def first_groups(ds, config, count):
    """The first count groups of the first epoch's shuffled order."""
    rng = np.random.default_rng(config.seed)
    nn.init_params(config.mlp, rng)
    order = np.arange(len(ds.groups))
    rng.shuffle(order)
    return [ds.groups[i] for i in order[:count]]


def blow_up_run(config, groups):
    """A run that steps only on groups, with a loss term so heavy (weight
    1e200, against target -1) that its params, still finite, score any
    later group as non-finite."""
    def terms(group):
        return [(1e200, 1.0, -1.0)] if any(group is g for g in groups) else None

    return distill.Run(config, "blow_up", terms)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_a_skipping_run_is_neither_checked_nor_updated():
    ds = data.generate_dataset(gen_config())
    cfg = train_config(epochs=1)
    first, second = first_groups(ds, cfg, 2)
    idle = distill.Run(cfg, "idle", lambda group: None)
    hard_only, blown, idle_model = distill.train_runs(
        ds, [distill.Run.hard_only(cfg), blow_up_run(cfg, [first]), idle]
    )
    # The idle run never stepped, so it holds the initial params; the
    # hard-only run is the one trained alone.
    assert idle_model.params == nn.init_params(cfg.mlp)
    assert hard_only.params == distill.train_hard_only(ds, cfg).params
    # After its one step the blown-up run scores every later group as
    # non-finite, yet skipping them raises nothing and leaves it as it was.
    assert blown.params.all_finite()
    hs = nn.layer_outputs(blown.params, second.features, True)
    assert not np.isfinite(hs[-1]).all()
    assert blown.params == distill.train_runs(ds, [blow_up_run(cfg, [first])])[0].params
    # Active on the second group, its scores there are checked.
    with pytest.raises(InputError, match=f"query {second.query_id}: forward pass"):
        distill.train_runs(ds, [distill.Run.hard_only(cfg), blow_up_run(cfg, [first, second])])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_absurd_learning_rate_names_the_layer():
    # A linear scorer, so the first update overflows before any forward pass
    # can: the params check must catch it and name the layer.
    ds = data.generate_dataset(gen_config())
    cfg = train_config(mlp=nn.MlpConfig(layer_dims=(6, 1), seed=5), learning_rate=1.7e308)
    with pytest.raises(TrainingError, match="non-finite update at layer 0"):
        distill.train_hard_only(ds, cfg)


def test_features_mutated_to_nan_name_the_query():
    ds = data.generate_dataset(gen_config())
    bad = ds.groups[7]
    bad.features[1, 2] = np.nan
    with pytest.raises(InputError, match=f"query {bad.query_id}"):
        distill.train_hard_only(ds, train_config())


# -- malformed inputs at the CLI -----------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("identity")
    ds = data.generate_dataset(gen_config())
    data_path = str(work / "data.jsonl")
    data.save_dataset(ds, data_path)
    cfg = train_config()
    config_path = str(work / "config.json")
    with open(config_path, "w") as f:
        json.dump({"distill": cfg.to_dict()}, f)
    teachers = distill.train_teachers(ds, train_config(alpha=1.0))
    soft_path = str(work / "soft.jsonl")
    distill.fuse_soft_labels(teachers, ds).save(soft_path)
    model_path = str(work / "model.json")
    teachers.models[0].save(model_path)
    return {
        "work": work,
        "data": data_path,
        "config": config_path,
        "soft": soft_path,
        "model": model_path,
    }


def run_cli(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (1, 2)
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in err[0]
    return code, err[0]


def train_student_argv(files, soft, config=None):
    return [
        "train-student", "--config", config or files["config"], "--data", files["data"],
        "--soft", soft, "--out", str(files["work"] / "student.json"),
    ]


def edit_soft(files, name, edit):
    with open(files["soft"]) as f:
        lines = f.read().splitlines()
    edit(lines)
    path = files["work"] / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_rejects_non_finite_soft_scores(files, capsys):
    def poison(lines):
        doc = json.loads(lines[3])
        doc["scores"][0] = float("nan")
        lines[3] = json.dumps(doc)

    path = edit_soft(files, "nan.jsonl", poison)
    code, err = run_cli(train_student_argv(files, path), capsys)
    assert code == 2 and "line 4" in err and "non-finite" in err


def test_cli_rejects_duplicate_soft_query(files, capsys):
    path = edit_soft(files, "dup.jsonl", lambda lines: lines.append(lines[2]))
    code, err = run_cli(train_student_argv(files, path), capsys)
    assert code == 2 and "duplicate" in err
    qid = json.loads(open(files["soft"]).read().splitlines()[2])["query_id"]
    assert f"query_id {qid}" in err


def edit_scores(line, edit):
    """The soft-label row with score i replaced by edit(i, score), so its
    length still matches the dataset."""
    doc = json.loads(line)
    return dict(doc, scores=[edit(i, v) for i, v in enumerate(doc["scores"])])


@pytest.mark.parametrize(
    "index, replace",
    [
        (0, lambda line: "[1]"),
        (0, lambda line: '"x"'),
        (0, lambda line: '{"provenance": 5}'),
        (2, lambda line: json.dumps(dict(json.loads(line), query_id=1.7))),
        (2, lambda line: json.dumps(dict(json.loads(line), query_id=True))),
        (2, lambda line: json.dumps(edit_scores(line, lambda i, v: i % 2 == 0))),
        (2, lambda line: json.dumps(edit_scores(line, lambda i, v: str(v)))),
    ],
    ids=["header_list", "header_string", "provenance_number", "query_id_float", "query_id_bool",
         "scores_bool", "scores_string"],
)
def test_cli_rejects_bad_soft_line(files, capsys, index, replace):
    def edit(lines):
        lines[index] = replace(lines[index])

    path = edit_soft(files, "bad_line.jsonl", edit)
    code, err = run_cli(train_student_argv(files, path), capsys)
    assert code == 2 and f"line {index + 1}: " in err


def test_cli_rejects_format_version_1(files, capsys):
    with open(files["data"]) as f:
        lines = f.read().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), format_version=1))
    path = files["work"] / "v1.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, err = run_cli(["eval", "--data", str(path), "--model", files["model"]], capsys)
    assert code == 2 and "line 1: unsupported format_version 1" in err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"mlp": {"layer_dims": [6, 8, 1]}, "alpah": 0.3}, "alpah"),
        ({"mlp": {"layer_dims": [6, 8, 1], "actvation": "relu"}}, "actvation"),
        ({"mlp": {"activation": "relu"}}, "layer_dims"),
        ({"mlp": {"layer_dims": [6, 8, 1]}, "epochs": "ten"}, "epochs"),
        ({"mlp": {"layer_dims": ["a", 1]}}, "layer_dims"),
        ({"mlp": {"layer_dims": [6, 8, 1]}, "epochs": 2.5}, "epochs"),
        ({"mlp": {"layer_dims": [6, 8, 1]}, "epochs": True}, "epochs"),
        ([1, 2], "distill"),
        ({"mlp": {"layer_dims": [6, 8, 1]}, "seed": 3}, "'seed'"),
    ],
)
def test_cli_rejects_bad_distill_config(files, capsys, doc, key):
    path = files["work"] / f"bad_{key}.json"
    path.write_text(json.dumps({"distill": doc}))
    code, err = run_cli(train_student_argv(files, files["soft"], str(path)), capsys)
    assert code == 2 and key in err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"generator": {"m": 6}}, "distill"),
        ({"distill": {"alpha": 0.2}}, "mlp"),
        ({"distill": {"mlp": {"layer_dims": [16, 1]}}, "num_seedz": 2}, "num_seedz"),
        ({"distill": {"mlp": {"layer_dims": [16, 1]}}, "boost": {"rhoo": 1.0}}, "rhoo"),
        ({"distill": {"mlp": {"layer_dims": [16, 1]}}, "generator": {"mm": 16}}, "mm"),
        ({"distill": {"mlp": {"layer_dims": [16, 1]}}, "num_seeds": "4"}, "num_seeds"),
        ({"distill": {"mlp": {"layer_dims": [16, 1]}}, "alpha_sweep": 0.5}, "alpha_sweep"),
        (
            {"distill": {"mlp": {"layer_dims": [16, 1]}}, "boost": {"items_per_query": 5}},
            "items_per_query",
        ),
        (
            {
                "distill": {"mlp": {"layer_dims": [16, 1]}},
                "generator": {"items_per_query": [3, 4, 5]},
            },
            "items_per_query",
        ),
        (
            {"distill": {"mlp": {"layer_dims": [16, 1]}}, "generator": {"label_rates": 0.3}},
            "label_rates",
        ),
        (
            {
                "distill": {"mlp": {"layer_dims": [16, 1]}},
                "generator": {
                    "K": 2, "label_rates": [0.3], "objective_weights": [[1.0], [1.0, 2.0]]
                },
            },
            "objective_weights",
        ),
        ([1, 2], "JSON object"),
    ],
)
def test_cli_rejects_bad_study_config(files, capsys, doc, key):
    path = files["work"] / f"study_{key}.json"
    path.write_text(json.dumps(doc))
    argv = ["study-distill", "--config", str(path), "--out", str(files["work"] / "never")]
    code, err = run_cli(argv, capsys)
    assert code == 2 and key in err


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("gen-data", {"generator": {"num_queries": "many"}}, "num_queries"),
        ("gen-data", {"generator": 5}, "generator"),
        ("train-teacher", [1, 2], None),
    ],
)
def test_cli_rejects_bad_stage_config(files, capsys, command, doc, key):
    path = files["work"] / "stage_config.json"
    path.write_text(json.dumps(doc))
    out = str(files["work"] / "never.json")
    argv = [command, "--config", str(path), "--out", out]
    if command == "train-teacher":
        argv += ["--data", files["data"], "--objective", "0"]
    code, err = run_cli(argv, capsys)
    assert code == 2 and (key or str(path)) in err


def edit_key(key, edit):
    """A mangle that replaces the checkpoint's value at key with edit(value)."""

    def mangle(text):
        doc = json.loads(text)
        doc[key] = edit(doc[key])
        return json.dumps(doc)

    return mangle


def nan_first_weight(layers):
    first = dict(layers[0], weights=[float("nan")] + layers[0]["weights"][1:])
    return [first] + layers[1:]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "layers"}),
        edit_key("layers", lambda layers: layers + layers[-1:]),
        edit_key("layers", lambda layers: []),
        edit_key("layers", lambda layers: layers[:-1]),
        edit_key("layers", nan_first_weight),
        edit_key("config", lambda config: dict(config, activation="tanh")),
        edit_key("seed", lambda seed: seed + 1),
        edit_key("layers", lambda layers: [
            dict(layers[0], weights=[str(w) for w in layers[0]["weights"]]), *layers[1:]
        ]),
        edit_key("layers", lambda layers: [*layers[:-1], dict(layers[-1], biases=[True])]),
        edit_key("lineage", lambda lineage: 5),
        edit_key("lineage", lambda lineage: ["student_v1"]),
    ],
    ids=["truncated", "no_config", "no_layers", "extra_layer", "empty_layers",
         "missing_layer", "nan_weight", "activation_edited", "seed_edited",
         "weights_string", "biases_bool", "lineage_int", "lineage_list"],
)
def test_cli_rejects_bad_checkpoint(files, capsys, mangle):
    with open(files["model"]) as f:
        text = f.read()
    path = files["work"] / "bad_model.json"
    path.write_text(mangle(text))
    argv = ["score", "--data", files["data"], "--model", str(path),
            "--out", str(files["work"] / "scores.jsonl")]
    code, err = run_cli(argv, capsys)
    assert code == 2 and str(path) in err


def test_cli_rejects_checkpoint_whose_name_is_not_its_hash(files, capsys):
    store = files["work"] / "store"
    digest = CheckpointStore(str(store)).put_model(distill.Model.load(files["model"]))
    good = store / "checkpoints" / f"{digest}.json"
    wrong = store / "checkpoints" / f"{digest[::-1]}.json"
    wrong.write_bytes(good.read_bytes())
    argv = ["score", "--data", files["data"], "--out", str(files["work"] / "scores.jsonl")]
    assert cli.main(argv + ["--model", str(good)]) == 0
    code, err = run_cli(argv + ["--model", str(wrong)], capsys)
    assert code == 2 and str(wrong) in err and "sha256" in err


def stage_argv(files, command, config, data=None):
    """argv for a training stage; data defaults to the valid dataset file."""
    argv = [command, "--config", config, "--data", data or files["data"],
            "--out", str(files["work"] / f"{command}.json")]
    if command == "train-teacher":
        return argv + ["--objective", "0"]
    if command == "train-student":
        return argv + ["--soft", files["soft"]]
    return argv + ["--model", files["model"]]


@pytest.mark.parametrize("command", ["train-teacher", "train-student", "self-distill"])
def test_cli_reports_bad_config_before_reading_data(files, capsys, command):
    path = files["work"] / "bad_epochs.json"
    path.write_text(json.dumps({"distill": {"mlp": {"layer_dims": [6, 8, 1]}, "epochs": "ten"}}))
    missing = str(files["work"] / "missing.jsonl")
    code, err = run_cli(stage_argv(files, command, str(path), missing), capsys)
    assert code == 2 and "'epochs'" in err and "missing.jsonl" not in err


@pytest.mark.parametrize(
    "weights", [["nan", "1", "1"], ["inf", "1", "1"], ["1e308", "1e308", "1"]],
    ids=["nan", "inf", "inf_sum"],
)
def test_cli_rejects_non_finite_fusion_weights(files, capsys, weights):
    out = files["work"] / "never.jsonl"
    argv = ["fuse", "--data", files["data"], "--teachers", *[files["model"]] * 3,
            "--weights", *weights, "--out", str(out)]
    code, err = run_cli(argv, capsys)
    assert code == 2 and "fusion_weights" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-teacher", "train-student", "self-distill"])
def test_cli_seed_flag_is_recorded(files, command):
    cfg = train_config(mlp=nn.MlpConfig(layer_dims=(6, 8, 4, 1), init_scale=0.3, seed=0))
    path = files["work"] / "seed0.json"
    path.write_text(json.dumps({"distill": cfg.to_dict()}))
    argv = stage_argv(files, command, str(path))
    assert cli.main(argv + ["--seed", "5"]) == 0
    with open(argv[argv.index("--out") + 1]) as f:
        doc = json.load(f)
    assert doc["seed"] == 5 and doc["config"]["seed"] == 5
    assert distill.Model.load(argv[argv.index("--out") + 1]).seed == 5
