"""Fuzz the CLI's file boundaries: one JSON value of a valid file is mangled.

Each example starts from small valid dataset, soft-label, checkpoint,
distill config and generator config files, changes one JSON value (gives
it another type, deletes its key) or truncates the file, and runs the stage
that reads that file. The stage must exit 0, or exit 1 or 2 with exactly
one "error:" line; it must never raise. Besides the random examples, a
sweep sets every value of the two config files to each of a few values and
deletes it, one at a time.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from moltr import cli, data, distill, nn


KINDS = ("dataset", "soft", "checkpoint", "config", "generator")

# Small values of every JSON type, so that no mangled value asks for a long
# run (such as a million epochs) or a huge allocation.
VALUES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([0.5, -1.5, 1e308]),
    st.sampled_from(["", "x", "relu"]),
    st.booleans(),
    st.none(),
    st.sampled_from([[], [1], ["x"], [[1.0]]]),
    st.sampled_from([{}, {"a": 1}]),
)
# (action, line, value path, new value); line and path are reduced modulo
# the file's line count and the line's value count.
INDEX = st.integers(0, 10**6)
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), INDEX, INDEX, VALUES),
    st.tuples(st.just("delete"), INDEX, INDEX, st.none()),
    st.tuples(st.just("truncate"), INDEX, st.just(0), st.none()),
)


GENERATOR = data.GeneratorConfig(num_queries=6, items_per_query=(2, 3), m=3, K=2, seed=1)
DISTILL = distill.DistillConfig(mlp=nn.MlpConfig(layer_dims=(3, 4, 1), seed=2), epochs=1)
# The config files' documents, one line each.
CONFIG_DOCS = {
    "config": {"distill": DISTILL.to_dict()},
    "generator": {"generator": GENERATOR.to_dict()},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    ds = data.generate_dataset(GENERATOR)
    teachers = distill.train_teachers(ds, DISTILL)
    paths = {kind: str(work / f"{kind}.json") for kind in KINDS}
    data.save_dataset(ds, paths["dataset"])
    distill.fuse_soft_labels(teachers, ds).save(paths["soft"])
    teachers.models[0].save(paths["checkpoint"])
    for kind, doc in CONFIG_DOCS.items():
        with open(paths[kind], "w") as f:
            json.dump(doc, f)
    texts = {kind: Path(path).read_text() for kind, path in paths.items()}
    return {"work": work, "paths": paths, "texts": texts}


def value_paths(value, prefix=()):
    """The path of value and of every value nested in it."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from value_paths(child, prefix + (key,))


def mangle(text, mutation):
    action, line, path, new = mutation
    if action == "truncate":
        return text[: line % len(text)]
    lines = text.splitlines()
    i = line % len(lines)
    doc = json.loads(lines[i])
    where = list(value_paths(doc))
    where = where[path % len(where)]
    if not where:  # the whole line
        lines[i : i + 1] = [] if action == "delete" else [json.dumps(new)]
    else:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[where[-1]]
        else:
            parent[where[-1]] = new
        lines[i] = json.dumps(doc)
    return "\n".join(lines) + "\n"


def stage_argv(kind, paths, mangled, out):
    """The stage that reads a file of this kind, reading mangled for it."""
    p = dict(paths, **{kind: mangled})
    if kind == "soft":
        return ["inject-boost", "--data", p["dataset"], "--soft", p["soft"],
                "--predicate", "is_new", "--beta", "0.5", "--out", out]
    if kind == "config":
        return ["train-student", "--config", p["config"], "--data", p["dataset"],
                "--soft", p["soft"], "--out", out]
    if kind == "generator":
        return ["gen-data", "--config", p["generator"], "--out", out]
    return ["eval", "--data", p["dataset"], "--model", p["checkpoint"]]


def check_stage(files, kind, mutation):
    """Run the stage that reads kind's file, mangled by mutation: it exits 0,
    or 1 or 2 with exactly one error line, and never raises."""
    mangled = files["work"] / f"mangled_{kind}.json"
    mangled.write_text(mangle(files["texts"][kind], mutation))
    argv = stage_argv(kind, files["paths"], str(mangled), str(files["work"] / "out.json"))
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == (0 if code == 0 else 1), err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", KINDS)
@given(mutation=MUTATIONS)
@example(mutation=("set", 0, 0, [1]))  # for soft labels, a header of [1]
@example(mutation=("set", 0, 8, -1))  # for the generator config, "seed": -1
@example(mutation=("set", 0, 15, 1e308))  # for the generator config, "utility_scale"
@settings(max_examples=50, deadline=None)
def test_one_mangled_value_never_raises(files, kind, mutation):
    check_stage(files, kind, mutation)


# Every value path of each config file set to each of these, and deleted:
# a fault tied to one key and one value is reached without luck.
SWEEP_VALUES = (-1, 0, 1e308, "x", None, [])
SWEEP = [
    pytest.param(kind, mutation, id=f"{kind}:{'/'.join(map(str, where))}:{mutation[0]}"
                 + ("" if mutation[0] == "delete" else f"={json.dumps(mutation[3])}"))
    for kind, doc in CONFIG_DOCS.items()
    for i, where in enumerate(value_paths(doc))
    for mutation in [("delete", 0, i, None), *(("set", 0, i, v) for v in SWEEP_VALUES)]
]


@pytest.mark.parametrize("kind, mutation", SWEEP)
def test_every_config_value_swept_never_raises(files, kind, mutation):
    check_stage(files, kind, mutation)
