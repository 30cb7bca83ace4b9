"""Trained parameters are pinned bit for bit, and training keeps its checks.

The golden params_hash values below were taken from the per-step trainer
that called nn.mlp_forward, nn.distill_loss, nn.backward and nn.sgd_step on
every group, and re-taken once when training came to pad every group to
the dataset's longest list (oracles.padded_train is that per-step loop,
padded). The fused training loop must reproduce each of them exactly, for
every trainer, both activations, alpha at 0, 0.2 and 1, and student and
teacher temperatures away from 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import padded_train, scalarized_steps

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
    "hard_only_relu": "266099ef5177d26c242a70683a5c18f874f1e8d31e8096077a50d98d92e8270e",
    "hard_only_tanh": "e74fe692ec6fdab20c61806a7f415ba10dc209a1114966cd1dcfbe6b89679b5b",
    "scalarized_dense": "440bb7a6b451f78d42e1bb4944158785a4da97381169c5c731cc6645a14d380e",
    "scalarized_dense_steps": [165, 141, 135],
    "scalarized_relu": "b564c98a449a97ef10d6adbf689283fbbcf32360333e5ecad58cca8670969f36",
    "scalarized_relu_steps": [174, 57, 90],
    "scalarized_tanh": "a5e2cb399e591ad03f5d63f0e4ef844fd4013044e6308009ba754a4b24643d78",
    "scalarized_tanh_steps": [174, 0, 90],
    "self_distill_v1": "cb339caf7cb04f1f1121fe3735611ac1f050eee204cd0da5fbf9c467119f633c",
    "student_relu_a0": "b3200ce36f8ee117ceebf9af1523fca27dad35c49fd504d48bab22733453ca50",
    "student_relu_a0.2": "cedb72361dcc1a1a7c33501d2821005d4127239bae52aabf59cf73bee52f3490",
    "student_relu_a0.2_T2": "dd73177b58e2327c2b1212a531c8d3785f6ec89dba3e1123bcf328cd099f9fb8",
    "student_relu_a1": "266099ef5177d26c242a70683a5c18f874f1e8d31e8096077a50d98d92e8270e",
    "student_relu_boosted": "7de53eb9311c2081fd67db300fe7ebf43180bb2d807a4d639592b59631d8262d",
    "student_tanh_a0.2_T2": "8f1b338bfe42743f4a073fed8191b833027ec790075ee9e633cd52b5396f6b16",
    "student_tanh_a0_T2": "f874db87df4ac3b2cb6538e3f61bedf8266cba1b1bf5f6d0c4ed05151e602d5c",
    "student_tanh_a1": "e74fe692ec6fdab20c61806a7f415ba10dc209a1114966cd1dcfbe6b89679b5b",
    "teacher0_relu": "d827916b0da3f42d87a720b95b07c22f6f96f0d8cb10bd6296b4e3065ff5c6ee",
    "teacher0_tanh": "0100a54bfbd322abfaede31231ca08b4c9ebbcce2e05bf06ca1a6e2db9c9e8eb",
    "teacher1_relu": "9d1cb01808fa5b05138ec941161c1ee186bac2b3650215e7b6f73ee9937a79fd",
    "teacher1_tanh": "18852d28182b7a5e509532797a0f3387c72c9076ef37891c1d54164e486b495b",
    "teacher2_relu": "1fbf2afa5289506f9f0fc5b2f44e30fc4b6068656ccd44929a9e3aee2153e835",
    "teacher2_tanh": "8766ac4bba0006881cf4533f435b1a041de5f780de65d178da9ef00c0bbfa981",
}


@pytest.fixture(scope="module")
def hashes():
    return trained_hashes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_params_match_the_per_step_trainer(hashes, name):
    assert hashes[name] == GOLDEN[name]


def test_every_trainer_is_pinned(hashes):
    assert set(hashes) == set(GOLDEN)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_trainers_equal_the_public_nn_loop(activation, alpha):
    ds = data.generate_dataset(gen_config())
    primary = distill._objective_target
    cfg = train_config(activation, alpha=alpha, temperature=1.5, teacher_temperature=3.0, epochs=2)
    teachers = distill.train_teachers(ds, train_config(activation, alpha=1.0, epochs=1))
    soft = distill.fuse_soft_labels(teachers, ds)
    student = distill.train_student(ds, soft, cfg)
    assert student.params == padded_train(ds, cfg, lambda g: primary(g, 0), alpha, soft)
    hard_only = distill.train_hard_only(ds, cfg)
    assert hard_only.params == padded_train(ds, cfg, lambda g: primary(g, 0))
    teacher = distill.train_teacher(ds, 1, cfg)
    covered = [g for g in ds.groups if g.has_labels_for(1)]
    covered_ds = data.Dataset(objectives=ds.objectives, groups=covered, m=ds.m, K=ds.K)
    assert teacher.params == padded_train(covered_ds, cfg, lambda g: primary(g, 1))


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
                  train_config(mlp=nn.MlpConfig(layer_dims=(6, 8, 1), init_scale=0.3, seed=5))):
        with pytest.raises(ConfigError, match="must share"):
            distill.train_runs(ds, [distill.Run.hard_only(train_config()),
                                    distill.Run.hard_only(other)])
    with pytest.raises(ConfigError, match="at least one run"):
        distill.train_runs(ds, [])
    # The seed is the run's own: a family of two seeds trains, and each
    # model is its run trained alone.
    runs = [distill.Run.hard_only(train_config()), distill.Run.hard_only(train_config().with_seed(6))]
    together = distill.train_runs(ds, runs)
    for run, model in zip(runs, together):
        assert model.params == distill.train_runs(ds, [run])[0].params
        assert model.seed == run.config.seed
    assert together[0].params != together[1].params


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


# -- families whose runs keep their own seeds -----------------------------------

# List lengths vary within each dataset, so most groups are padded.
SWEEP_DATASETS = {
    "short_lists": dict(num_queries=40, items_per_query=(2, 9)),
    "long_lists": dict(num_queries=25, items_per_query=(3, 30)),
}


def sweep_dataset(name):
    return data.generate_dataset(data.GeneratorConfig(
        m=6, K=3, seed=4, label_rates=[0.4, 0.5], **SWEEP_DATASETS[name]
    ))


def sweep_runs(ds, activation, epochs):
    """name -> Run over three seeds: hard-only (which skips the groups
    without a booking), students at temperature 1 and 2, scalarized, an
    idle run and, for one epoch, a run that blows up after its first step."""
    def cfg(seed, **kwargs):
        return train_config(activation, epochs=epochs, **kwargs).with_seed(seed)

    rng = np.random.default_rng(9)
    soft = distill.SoftLabelSet({g.query_id: rng.normal(size=g.size) for g in ds.groups}, "test")
    runs = {
        "hard_only_s5": distill.Run.hard_only(cfg(5)),
        "student_t1_s6": distill.Run.student(ds, soft, cfg(6)),
        "student_t2_s5": distill.Run.student(ds, soft, cfg(5, temperature=2.0)),
        "scalarized_s7": distill.Run.scalarized(ds, [0.5, 0.2, 0.3], cfg(7)),
        "idle_s6": distill.Run(cfg(6), "idle", lambda group: None),
    }
    if epochs == 1:
        runs["blow_up_s7"] = blow_up_run(cfg(7), first_groups(ds, cfg(7), 1))
    return runs


def assert_each_run_trains_as_alone(ds, runs):
    alone = {name: distill.train_runs(ds, [run])[0] for name, run in runs.items()}
    for family in (list(runs), list(reversed(runs)), list(runs)[1::2]):
        together = distill.train_runs(ds, [runs[name] for name in family])
        for name, model in zip(family, together):
            assert model.params == alone[name].params, (family, name)
            assert model.seed == runs[name].config.seed
    return alone


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("dataset", sorted(SWEEP_DATASETS))
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_families_of_mixed_seeds_equal_their_runs_trained_alone(activation, dataset, epochs):
    ds = sweep_dataset(dataset)
    assert len({g.size for g in ds.groups}) > 3
    runs = sweep_runs(ds, activation, epochs)
    alone = assert_each_run_trains_as_alone(ds, runs)
    assert alone["idle_s6"].params == nn.init_params(runs["idle_s6"].config.mlp)
    assert alone["hard_only_s5"].params == padded_train(
        ds, runs["hard_only_s5"].config, lambda g: distill._objective_target(g, 0)
    )


def smallest_mixed_family():
    """The smallest family of the sweep with two seeds, trained as a family
    and alone."""
    ds = sweep_dataset("long_lists")
    runs = sweep_runs(ds, "relu", 2)
    assert_each_run_trains_as_alone(ds, {k: runs[k] for k in ("hard_only_s5", "student_t1_s6")})


def test_a_mixed_seed_family_equals_its_runs_on_another_blas_kernel():
    # Each BLAS kernel rounds a row in its own way, and some round it by
    # the row count in every layer; one width for every step keeps each
    # run's arithmetic that of its run alone on this kernel too.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path}
    code = "import test_training_identity as t; t.smallest_mixed_family()"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


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
    qid = json.loads(Path(files["soft"]).read_text().splitlines()[2])["query_id"]
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
    assert code == 2 and f"line 1: dataset {path}: unsupported format_version 1" in err


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


@pytest.mark.parametrize(
    "encoding, message",
    [("utf-16", "not UTF-8 text"), ("utf-8-sig", "invalid JSON at column 1: Unexpected UTF-8 BOM")],
)
def test_cli_rejects_a_checkpoint_that_is_not_plain_utf8(files, capsys, encoding, message):
    path = files["work"] / f"model_{encoding}.json"
    path.write_bytes(Path(files["model"]).read_text().encode(encoding))
    argv = ["score", "--data", files["data"], "--model", str(path),
            "--out", str(files["work"] / "scores.jsonl")]
    code, err = run_cli(argv, capsys)
    assert code == 2 and f"checkpoint {path}: {message}" in err


def break_json(lines):
    lines[2] = lines[2][:-1]


def repeat_row(lines):
    lines.append(lines[2])


@pytest.mark.parametrize(
    "kind, edit, line, message",
    [
        ("dataset", break_json, 3, "invalid JSON at column"),
        ("soft labels", break_json, 3, "invalid JSON at column"),
        ("dataset", repeat_row, None, "duplicate query_id"),
        ("soft labels", repeat_row, None, "duplicate query_id"),
    ],
    ids=["dataset_json", "soft_json", "dataset_duplicate", "soft_duplicate"],
)
def test_cli_parse_errors_name_the_file(files, capsys, kind, edit, line, message):
    source = files["data" if kind == "dataset" else "soft"]
    lines = Path(source).read_text().splitlines()
    edit(lines)
    line = line or len(lines)  # a repeated row is the last
    path = files["work"] / f"broken_{source.rsplit('/', 1)[-1]}"
    path.write_text("\n".join(lines) + "\n")
    argv = train_student_argv(files, files["soft"])
    argv[argv.index(source)] = str(path)
    code, err = run_cli(argv, capsys)
    assert code == 2 and err.startswith(f"error: line {line}: {kind} {path}: {message}")


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
