"""Tests of the benchmark's own code: span arithmetic, wrapper removal,
seeded inputs, and a tiny pass of each workload with its checks on."""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_layers  # noqa: E402
import bench_workloads  # noqa: E402
from bench_tracer import Tracer, self_times  # noqa: E402
from moltr import data, distill, evaluation, pipeline  # noqa: E402


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- span arithmetic --------------------------------------------------------


def test_self_time_is_total_minus_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 50, 90, 0),
        ("c", 15, 25, 1),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 40, 10]


def _fake_package(monkeypatch):
    pkg = types.ModuleType("pbfake")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n"
        "class Thing:\n"
        "    def method(self, x):\n"
        "        return outer(x)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n",
        pkg.__dict__,
    )
    alias = types.ModuleType("pbfake.alias")
    alias.inner = pkg.inner  # as bound by "from pbfake import inner"
    monkeypatch.setitem(sys.modules, "pbfake", pkg)
    monkeypatch.setitem(sys.modules, "pbfake.alias", alias)
    return pkg, alias


def test_tracer_records_parents_and_self_time(monkeypatch):
    pkg, alias = _fake_package(monkeypatch)
    tracer = Tracer()
    targets = ("pbfake:inner", "pbfake:outer", "pbfake:Thing.method", "pbfake:Thing.make")
    with tracer.installed(targets, "pbfake"):
        assert alias.inner is pkg.inner and alias.inner.__wrapped__ is not None
        pkg.outer(1)  # outside a root: runs straight through
        assert tracer.spans == []
        with tracer.root("pass"):
            assert pkg.Thing.make().method(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["pass"] + ["pbfake." + n for n in ("Thing.make", "Thing.method", "outer", "inner", "inner")]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 0, 2, 3, 3]
    own = self_times(tracer.spans)
    total = [end - start for _, start, end, _ in tracer.spans]
    for i in range(len(tracer.spans)):
        children = sum(total[j] for j, p in enumerate(parents) if p == i)
        assert own[i] == total[i] - children


def test_layer_metrics_count_outermost_stages_only():
    spans = [
        ("pass", 0, 1000, -1),
        ("distill.fuse_soft_labels", 0, 400, 0),
        ("distill.Model.score_group", 0, 300, 1),  # inside fusion: not score_s
        ("nn.mlp_forward", 0, 200, 2),
        ("distill.Model.score_group", 400, 500, 0),
        ("nn.mlp_forward", 400, 450, 4),
        ("distill.train_student", 500, 900, 0),
        ("nn.mlp_forward", 500, 600, 6),
        ("nn.sgd_step", 600, 700, 6),
        ("nn.mlp_forward", 700, 800, 6),
    ]
    m = bench_layers.layer_metrics(spans)
    assert m["distill.fuse_s"] == pytest.approx(400e-9)
    assert m["distill.score_s"] == pytest.approx(100e-9)
    assert m["distill.students_s"] == pytest.approx(400e-9)
    assert m["distill.trainer_self_s"] == pytest.approx(100e-9)
    assert m["nn.forward_calls"] == 4
    assert m["nn.update_calls"] == 1
    assert m["distill.useful_step_ratio"] == pytest.approx(0.5)
    assert m["distill.step_us"] == pytest.approx(0.4)
    assert m["nn.forward_us"] == pytest.approx((200 + 50 + 100 + 100) / 4 / 1e3)
    assert set(m) == set(bench_layers.METRICS) - {"trace.overhead_s"}


# -- wrapping moltr -----------------------------------------------------------


def _moltr_namespaces():
    spaces = [m for n, m in sys.modules.items() if n == "moltr" or n.startswith("moltr.")]
    spaces += [distill.Model, distill.SoftLabelSet, data.Dataset, pipeline.CheckpointStore]
    return {id(ns): (ns, dict(vars(ns))) for ns in spaces}


def test_tracer_restores_every_wrapped_attribute():
    before = _moltr_namespaces()
    original_train = distill.train_student
    original_load = vars(distill.SoftLabelSet)["load"]
    tracer = Tracer()
    with tracer.installed(bench_layers.TARGETS, bench_layers.PACKAGE):
        # Names copied with "from .distill import ..." are wrapped too.
        assert pipeline.train_student is distill.train_student
        assert pipeline.train_student is not original_train
        assert pipeline.generate_dataset is data.generate_dataset
        assert evaluation.Model.score_group is distill.Model.score_group
        assert isinstance(vars(distill.SoftLabelSet)["load"], classmethod)
        assert vars(distill.SoftLabelSet)["load"] is not original_load
    for ns, saved in before.values():
        now = vars(ns)
        for key, value in saved.items():
            assert now[key] is value, f"{ns!r}.{key} was not restored"


# -- seeded inputs -------------------------------------------------------------


def _tiny(name, **sizes):
    workload = copy.copy(bench_workloads.WORKLOADS[name])
    workload.sizes = {**workload.sizes, **sizes}
    if hasattr(workload, "_eval_sets"):
        workload._eval_sets = {}
    return workload


TINY = {
    "study-distill": {"train_queries": 60, "eval_queries": 30, "epochs": 1},
    "study-boost": {"train_queries": 60, "eval_queries": 40, "epochs": 1, "parity_seeds": 1},
    "ingest-eval": {"queries": 40, "setup_queries": 40, "setup_epochs": 1},
}


def _dataset_hash(workload, seed):
    if isinstance(workload, bench_workloads.Study):
        gen = workload.config(seed).generator
    else:
        gen = workload._generator(workload.sizes["queries"], seed)
    return data.generate_dataset(gen).content_hash()


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_determines_the_dataset(name):
    workload = _tiny(name, **TINY[name])
    assert _dataset_hash(workload, 1) == _dataset_hash(workload, 1)
    assert _dataset_hash(workload, 1) != _dataset_hash(workload, 2)
    assert bench_workloads.data_seed(1, 0) != bench_workloads.data_seed(1, 1)


# -- tiny passes -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_checks_and_tracing(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = _tiny(name, **TINY[name])
    workload.setup(3)
    plain = workload.run_pass(3, contextlib.nullcontext(), True)
    assert plain.errors == []
    assert plain.wall_s > 0 and plain.digest and plain.params
    assert len(plain.score_us) > 0

    tracer = Tracer()
    with tracer.installed(bench_layers.TARGETS, bench_layers.PACKAGE):
        traced = workload.run_pass(3, tracer.root("pass"), False)
    assert traced.errors == []
    assert traced.digest == plain.digest  # tracing never changes outputs
    m = bench_layers.layer_metrics(tracer.spans)
    if name == "ingest-eval":
        assert m["nn.update_calls"] == 0
        assert m["data.load_s"] > 0 and m["distill.soft_load_s"] > 0
    else:
        assert m["nn.update_calls"] > 0 and m["pipeline.study_s"] > 0
    if name == "study-boost":
        assert m["pipeline.calibration_retrains"] >= 1


def test_failed_check_is_reported(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = _tiny("ingest-eval", **TINY["ingest-eval"])
    workload.setup(3)
    original = distill.SoftLabelSet.load

    def corrupt(path):
        soft = original(path)
        first = next(iter(soft.scores))
        soft.scores[first] = soft.scores[first] + 1.0
        return soft

    monkeypatch.setattr(distill.SoftLabelSet, "load", staticmethod(corrupt))
    res = workload.run_pass(3, contextlib.nullcontext(), False)
    assert any("soft-label round trip" in e for e in res.errors)


# -- the command ---------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run = _load_run_module()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(bench_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_layers.METRICS


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-distill",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
