"""Fuzz the studies over small experiment configs.

Each example draws a study and a tiny ExperimentConfig, most of whose
values are valid and some of which are extreme (a large learning rate, a
single day, a huge boost target). The study must return its report, or
raise a MoltrError; it must never raise anything else, and a numpy
RuntimeWarning fails the test too (pyproject's filterwarnings). A returned
report is the report.json the study wrote, and every NDCG in it is finite
and in [0, 1].
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from moltr import nn, pipeline
from moltr.data import GeneratorConfig
from moltr.distill import DistillConfig
from moltr.errors import MoltrError


@st.composite
def experiments(draw):
    """(study name, ExperimentConfig keyword arguments)."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    low = draw(st.integers(2, 4))
    generator = dict(
        num_queries=draw(st.integers(1, 40)),
        items_per_query=(low, low + draw(st.integers(0, 3))),
        m=m,
        K=k,
        seed=draw(st.integers(0, 9)),
        label_rates=[draw(st.sampled_from([0.05, 0.4, 1.0])) for _ in range(k - 1)],
        num_days=draw(st.integers(1, 6)),
        new_item_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    distill = dict(
        mlp=nn.MlpConfig(layer_dims=(m, *draw(st.sampled_from([(), (3,), (4, 2)])), 1),
                         activation=draw(st.sampled_from(nn.ACTIVATIONS)),
                         init_scale=draw(st.sampled_from([0.1, 0.5, 1e3])),
                         seed=draw(st.integers(0, 9))),
        alpha=draw(st.sampled_from([0.0, 0.2, 1.0])),
        temperature=draw(st.sampled_from([1e-300, 0.5, 1.0, 4.0])),
        teacher_temperature=draw(st.sampled_from([0.5, 1.0, 2.5, 1e300])),
        epochs=draw(st.integers(0, 2)),
        batch_size=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.05, 0.5, 1e6])),
    )
    boost = pipeline.BoostStudyConfig(
        rho=draw(st.sampled_from([0.0, 3.5, 5.0])),
        exposure_k=draw(st.integers(1, 5)),
        target_lift=draw(st.sampled_from([-0.1, 0.0, 0.05, 1e308])),
        exposure_tolerance=draw(st.sampled_from([1e-300, 0.02, 0.5])),
        max_iterations=draw(st.integers(1, 6)),
        gamma_max=draw(st.sampled_from([1.0, 8.0, 1e308])),
        beta_max=draw(st.sampled_from([1.0, 8.0, 1e308])),
        items_per_query=draw(st.sampled_from([None, (6, 8)])),
        num_queries=draw(st.sampled_from([None, 30])),
    )
    config = dict(
        generator=GeneratorConfig(**generator),
        distill=DistillConfig(**distill),
        eval_queries=draw(st.integers(1, 20)),
        num_seeds=draw(st.integers(2, 3)),
        parity_seeds=draw(st.integers(1, 2)),
        alpha_sweep=tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=2))),
        boost=boost,
    )
    return draw(st.sampled_from(sorted(pipeline.STUDIES))), config


def ndcgs(value, path=""):
    """(path, value) of every NDCG in a report; NDCG differences (the
    deltas and the losses) are not NDCGs."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from ndcgs(item, f"{path}.{key}")
    elif isinstance(value, list):
        for item in value:
            yield from ndcgs(item, path)
    elif "ndcg" in path and "deltas" not in path and not path.endswith("_loss"):
        yield path, value


@given(experiments())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_study_reports_or_raises_a_moltr_error(drawn):
    study, config = drawn
    with tempfile.TemporaryDirectory() as out:
        try:
            report = pipeline.STUDIES[study](pipeline.ExperimentConfig(output_dir=out, **config))
        except MoltrError:
            return
        written = (Path(out) / "report.json").read_text()
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == written
    for path, value in ndcgs(report):
        assert math.isfinite(value) and 0.0 <= value <= 1.0, (path, value)
