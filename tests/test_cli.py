import json
import re
from pathlib import Path

import numpy as np
import pytest

from moltr import cli, distill, errors, pipeline
from moltr.data import load_dataset, save_dataset
from moltr.distill import Model, SoftLabelSet


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(workdir):
    path = workdir / "config.json"
    path.write_text(
        json.dumps(
            {
                "generator": {
                    "num_queries": 100,
                    "items_per_query": [4, 6],
                    "m": 6,
                    "K": 3,
                    "seed": 3,
                    "label_rates": [0.4, 0.4],
                },
                "distill": {
                    "mlp": {
                        "layer_dims": [6, 8, 1],
                        "init_scale": 0.3,
                        "seed": 5,
                    },
                    "alpha": 0.2,
                    "epochs": 2,
                },
            }
        )
    )
    return str(path)


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def dataset_path(workdir, config_path):
    out = str(workdir / "data.jsonl")
    assert run(["gen-data", "--config", config_path, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def teacher_paths(workdir, config_path, dataset_path):
    paths = []
    for k in range(3):
        out = str(workdir / f"teacher{k}.json")
        code = run(
            [
                "train-teacher",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--objective",
                str(k),
                "--seed",
                str(5 + k),
                "--out",
                out,
            ]
        )
        assert code == 0
        paths.append(out)
    return paths


@pytest.fixture(scope="module")
def soft_path(workdir, dataset_path, teacher_paths):
    out = str(workdir / "soft.jsonl")
    assert run(["fuse", "--data", dataset_path, "--teachers", *teacher_paths, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def student_path(workdir, config_path, dataset_path, soft_path):
    out = str(workdir / "student.json")
    code = run(
        [
            "train-student",
            "--config",
            config_path,
            "--data",
            dataset_path,
            "--soft",
            soft_path,
            "--out",
            out,
        ]
    )
    assert code == 0
    return out


class TestStageCommands:
    def test_gen_data_writes_dataset(self, dataset_path):
        ds = load_dataset(dataset_path)
        assert len(ds) == 100
        assert ds.m == 6

    def test_teachers_have_objective_lineage(self, teacher_paths):
        lineages = [Model.load(p).lineage for p in teacher_paths]
        assert lineages == ["teacher:booking", "teacher:cancellation", "teacher:quality"]

    def test_fuse_weights_flag(self, workdir, dataset_path, teacher_paths):
        out = str(workdir / "soft_w.jsonl")
        code = run(
            [
                "fuse",
                "--data",
                dataset_path,
                "--teachers",
                *teacher_paths,
                "--weights",
                "0.6",
                "0.2",
                "0.2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert SoftLabelSet.load(out).provenance == "teacher_fusion"

    def test_inject_boost(self, workdir, dataset_path, soft_path):
        out = str(workdir / "boosted.jsonl")
        code = run(
            [
                "inject-boost",
                "--data",
                dataset_path,
                "--soft",
                soft_path,
                "--predicate",
                "rating_at_least",
                "--rho",
                "4.0",
                "--beta",
                "0.5",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert SoftLabelSet.load(out).provenance.startswith("boosted(")

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_inject_boost_rejects_a_non_finite_beta(
        self, tmp_path, dataset_path, soft_path, beta, capsys
    ):
        out = tmp_path / "boosted.jsonl"
        code = run(["inject-boost", "--data", dataset_path, "--soft", soft_path,
                    "--predicate", "rating_at_least", f"--beta={beta}", "--out", str(out)])
        assert code == 2
        assert "beta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_inject_boost_refuses_to_write_an_overflowing_boost(
        self, tmp_path, dataset_path, capsys
    ):
        # 1e308 + 1e308 overflows to inf, which the soft-label reader refuses.
        groups = load_dataset(dataset_path).groups
        soft = tmp_path / "soft.jsonl"
        SoftLabelSet({g.query_id: np.full(g.size, 1e308) for g in groups}, "big").save(soft)
        out = tmp_path / "boosted.jsonl"
        out.write_text("previous\n")
        code = run(["inject-boost", "--data", dataset_path, "--soft", str(soft),
                    "--predicate", "rating_at_least", "--rho", "0", "--beta", "1e308",
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: query \d+: refusing to save non-finite soft scores\n", err)
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["boosted.jsonl", "soft.jsonl"]

    def test_student_lineage(self, student_path):
        assert Model.load(student_path).lineage == "student_v0"

    def test_self_distill(self, workdir, config_path, dataset_path, student_path):
        out = str(workdir / "student_v1.json")
        code = run(
            [
                "self-distill",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--model",
                student_path,
                "--out",
                out,
            ]
        )
        assert code == 0
        assert Model.load(out).lineage == "student_v1"

    def test_score(self, workdir, dataset_path, student_path):
        out = workdir / "scores.jsonl"
        code = run(["score", "--data", dataset_path, "--model", student_path, "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 100
        assert {"query_id", "scores"} <= set(rows[0])

    def test_eval_prints_report(self, dataset_path, student_path, capsys):
        assert run(["eval", "--data", dataset_path, "--model", student_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["ndcg_at_10"] <= 1.0
        assert report["query_count"] == 100


class TestStudyCommands:
    def study_config(self, workdir, config_path, name):
        doc = json.loads(Path(config_path).read_text())
        doc.update(
            {
                "eval_queries": 60,
                "num_seeds": 2,
                "parity_seeds": 1,
                "alpha_sweep": [0.2],
                "boost": {
                    "rho": 3.5,
                    "exposure_k": 5,
                    "target_lift": 0.05,
                    "exposure_tolerance": 0.02,
                    "items_per_query": [10, 14],
                    "num_queries": 150,
                },
                "output_dir": str(workdir / name),
            }
        )
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path), workdir / name

    @pytest.mark.parametrize("study", ["distill", "self", "repro", "boost"])
    def test_studies_write_reports(self, workdir, config_path, study):
        cfg, out = self.study_config(workdir, config_path, f"study_{study}")
        assert run([f"study-{study}", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["study"] in {
            "distill_vs_baselines",
            "self_distillation",
            "irreproducibility",
            "adhoc_boost",
        }
        assert (out / "report.md").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("boost", "exposure_k", 0, "boost exposure_k must be >= 1"),
            ("boost", "rho", 5.5, "boost rho: rho must be in [0, 5]"),
            (None, "alpha_sweep", [1.5], "alpha_sweep: alpha must be in [0, 1], got 1.5"),
            (None, "alpha_sweep", [float("nan")], "alpha_sweep: alpha must be in [0, 1], got nan"),
            (None, "teacher_epochs", -1, "teacher_epochs: epochs must be >= 0"),
            (None, "eval_queries", 0, "eval_queries: num_queries must be >= 1"),
            ("boost", "num_queries", 0, "boost: num_queries must be >= 1"),
            ("boost", "items_per_query", [1, 1], "boost: bad items_per_query range (1, 1)"),
        ],
        ids=["boost_exposure_k", "boost_rho", "alpha_sweep", "alpha_sweep_nan", "teacher_epochs",
             "eval_queries", "boost_num_queries", "boost_items_per_query"],
    )
    def test_bad_boost_config_exits_before_training(
        self, workdir, config_path, tmp_path, monkeypatch, capsys, section, key, value, message
    ):
        cfg, _ = self.study_config(workdir, config_path, "study_bad_boost")
        doc = json.loads(Path(cfg).read_text())
        (doc[section] if section else doc)[key] = value
        doc["output_dir"] = str(tmp_path / "out")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))

        def no_training(*args):
            raise AssertionError("trained before the config was checked")

        def no_data(*args):
            raise AssertionError("generated data before the config was checked")

        monkeypatch.setattr(distill, "train_runs", no_training)
        monkeypatch.setattr(pipeline, "generate_dataset", no_data)
        assert run(["study-boost", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_is_byte_identical(self, workdir, config_path):
        cfg, out = self.study_config(workdir, config_path, "study_repeat")
        assert run(["study-repro", "--config", cfg]) == 0
        first = (out / "report.json").read_bytes()
        assert run(["study-repro", "--config", cfg]) == 0
        assert (out / "report.json").read_bytes() == first


class TestErrorHandling:
    def test_missing_config_file(self, workdir):
        code = run(
            ["gen-data", "--config", str(workdir / "nope.json"), "--out", str(workdir / "x")]
        )
        assert code == 2

    def test_corrupt_dataset(self, workdir, config_path):
        bad = workdir / "bad.jsonl"
        bad.write_text("not json\n")
        code = run(
            [
                "train-teacher",
                "--config",
                config_path,
                "--data",
                str(bad),
                "--objective",
                "0",
                "--out",
                str(workdir / "t.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["config", "dataset", "soft"])
    def test_non_utf8_file_is_named(self, tmp_path, config_path, dataset_path, soft_path,
                                    kind, capsys):
        files = {"config": config_path, "dataset": dataset_path, "soft": soft_path}
        text = Path(files[kind]).read_bytes()
        if kind == "config":  # one line as written; indented, it has several
            text = json.dumps(json.loads(text), indent=1).encode()
        lines = text.splitlines(keepends=True)
        # A bad byte at the start of the file, and one at the start of line 2.
        for lineno, broken in ((1, [b"\xff" + lines[0], *lines[1:]]),
                               (2, [lines[0], b"\xff" + lines[1], *lines[2:]])):
            bad = tmp_path / f"bad_{kind}_{lineno}.json"
            bad.write_bytes(b"".join(broken))
            paths = {**files, kind: str(bad)}
            code = run(["train-student", "--config", paths["config"], "--data", paths["dataset"],
                        "--soft", paths["soft"], "--out", str(tmp_path / "student.json")])
            err = capsys.readouterr().err
            assert code == 2
            assert str(bad) in err and "not UTF-8" in err
            assert f"line {lineno}" in err
        assert not (tmp_path / "student.json").exists()

    @pytest.mark.parametrize("kind", ["config", "dataset", "soft", "checkpoint"])
    def test_deeply_nested_json_is_named(self, tmp_path, dataset_path, soft_path, student_path,
                                         kind, capsys):
        deep = "[" * 200000 + "]" * 200000
        bad, out = tmp_path / f"deep_{kind}.json", str(tmp_path / "out")
        argv = {
            "config": ["gen-data", "--config", str(bad), "--out", out],
            "dataset": ["eval", "--data", str(bad), "--model", student_path],
            "soft": ["inject-boost", "--data", dataset_path, "--soft", str(bad),
                     "--predicate", "is_new", "--beta", "0.5", "--out", out],
            "checkpoint": ["eval", "--data", dataset_path, "--model", str(bad)],
        }[kind]
        name = {"config": "config file", "soft": "soft labels"}.get(kind, kind)
        if kind in ("config", "checkpoint"):  # one JSON document, so no line
            cases = [("", deep)]
        else:  # a JSONL file: the header, then the first row
            lines = Path(dataset_path if kind == "dataset" else soft_path).read_text().splitlines()
            cases = [(f"line {i + 1}: ", "\n".join(lines[:i] + [deep] + lines[i + 1:]))
                     for i in (0, 1)]
        for where, text in cases:
            bad.write_text(text + "\n")
            assert run(argv) == 2
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert errors == [f"error: {where}{name} {bad}: JSON nested too deeply"], err
        assert not (tmp_path / "out").exists()

    def test_negative_generator_seeds_are_named(self, tmp_path, capsys):
        out = str(tmp_path / "data.jsonl")
        assert run(["gen-data", "--seed", "-1", "--num-queries", "5", "--out", out]) == 2
        assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generator": {"num_queries": 5, "weights_seed": -3}}))
        assert run(["gen-data", "--config", str(config), "--out", out]) == 2
        assert "error: weights_seed must be nonnegative, got -3" in capsys.readouterr().err
        assert not (tmp_path / "data.jsonl").exists()

    @pytest.mark.parametrize("flag", [["--alpha", "0.5"], ["--temperature", "7.5"]])
    def test_train_teacher_takes_no_distillation_flags(self, tmp_path, config_path,
                                                       dataset_path, flag):
        out = tmp_path / "teacher.json"
        argv = ["train-teacher", "--config", config_path, "--data", dataset_path,
                "--objective", "1", "--out", str(out)]
        assert run(argv) == 0
        out.unlink()
        assert run(argv + flag) == 2
        assert not out.exists()

    def test_write_into_a_missing_directory_names_the_requested_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        assert run(["gen-data", "--num-queries", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(out)) in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_command(self):
        assert run(["frobnicate"]) != 0

    def test_missing_required_flag(self):
        assert run(["gen-data"]) != 0

    @pytest.mark.parametrize("writer", ["save_dataset", "soft_labels", "checkpoint", "score"])
    def test_interrupted_write_leaves_old_file_whole(
        self, tmp_path, monkeypatch, dataset_path, soft_path, student_path, writer
    ):
        dataset, soft = load_dataset(dataset_path), SoftLabelSet.load(soft_path)
        model = Model.load(student_path)
        target = tmp_path / "out"
        target.write_bytes(b"previous contents\n")
        write = {
            "save_dataset": lambda: save_dataset(dataset, target),
            "soft_labels": lambda: soft.save(target),
            "checkpoint": lambda: model.save(target),
            "score": lambda: run(["score", "--data", dataset_path, "--model", student_path,
                                  "--out", str(target)]),
        }[writer]

        def interrupted_open(*args, **kwargs):
            f = open(*args, **kwargs)
            whole_write = f.write

            def half_write(text):
                whole_write(text[: len(text) // 2])
                raise KeyboardInterrupt

            f.write = half_write
            return f

        monkeypatch.setattr(errors, "open", interrupted_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            write()
        assert target.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_missing_model_file(self, workdir, dataset_path):
        code = run(
            ["eval", "--data", dataset_path, "--model", str(workdir / "missing.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["config", "dataset", "soft", "checkpoint"])
    def test_a_missing_input_file_is_named(self, tmp_path, config_path, dataset_path,
                                           soft_path, student_path, kind, capsys):
        missing, out = str(tmp_path / f"missing_{kind}"), str(tmp_path / "out")
        argv, name = {
            "config": (["gen-data", "--config", missing, "--out", out], "config file"),
            "dataset": (["eval", "--data", missing, "--model", student_path], "dataset"),
            "soft": (["inject-boost", "--data", dataset_path, "--soft", missing,
                      "--predicate", "is_new", "--beta", "0.5", "--out", out], "soft labels"),
            "checkpoint": (["eval", "--data", dataset_path, "--model", missing], "checkpoint"),
        }[kind]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {name} {missing}: no such file\n"

    @pytest.mark.parametrize("command", ["eval", "score", "fuse"])
    def test_a_non_finite_score_names_the_query(self, tmp_path, dataset_path, student_path,
                                                command, capsys):
        # Every weight 1e200: the parameters are finite, but the forward
        # pass overflows on most lists.
        doc = json.loads(Path(student_path).read_text())
        for layer in doc["layers"]:
            layer["weights"] = [1e200] * len(layer["weights"])
        model, out = tmp_path / "huge.json", str(tmp_path / "out")
        model.write_text(json.dumps(doc))
        argv = {
            "eval": ["eval", "--data", dataset_path, "--model", str(model)],
            "score": ["score", "--data", dataset_path, "--model", str(model), "--out", out],
            "fuse": ["fuse", "--data", dataset_path, "--teachers", str(model), "--out", out],
        }[command]
        assert run(argv) == 1
        err = capsys.readouterr().err
        named = re.fullmatch(r"error: query (\d+): forward pass produced non-finite scores\n", err)
        assert named, err
        (group,) = [g for g in load_dataset(dataset_path).groups if g.query_id == int(named[1])]
        with np.errstate(all="ignore"), pytest.raises(errors.InputError, match="non-finite"):
            Model.load(str(model)).score_group(group)
