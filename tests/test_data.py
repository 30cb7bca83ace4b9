import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moltr import data
from moltr.errors import ConfigError, InputError, ParseError


def make_group(query_id=0, n=3, K=2, booked=0, timestamp=0, m=4, **fields):
    """A valid group of n rated items; keyword fields override its arrays."""
    ratings = np.full(n, 3.0)
    features = np.random.default_rng(query_id).normal(size=(n, m))
    features[:, data.RATING_FEATURE_INDEX] = (ratings - 2.5) / 1.5
    labels = np.full((n, K), data.MISSING_LABEL)
    labels[:, 0] = 0
    labels[booked, 0] = 1
    arrays = dict(
        features=features,
        item_ids=query_id * 100 + np.arange(n),
        ratings=ratings,
        is_new=np.zeros(n, dtype=bool),
        labels=labels,
    )
    arrays.update(fields)
    return data.QueryGroup(query_id=query_id, timestamp=timestamp, **arrays)


def tiny_config(**kwargs):
    defaults = dict(num_queries=40, items_per_query=(3, 5), m=6, K=3, seed=1)
    defaults.update(kwargs)
    return data.GeneratorConfig(**defaults)


class TestItem:
    def test_rating_out_of_range(self):
        with pytest.raises(InputError, match="item 1: review_rating 5.5"):
            make_group(ratings=[3.0, 5.5, 1.0])
        with pytest.raises(InputError):
            make_group(ratings=[3.0, np.nan, 1.0])

    def test_non_finite_features(self):
        features = np.zeros((3, 4))
        features[2, 1] = np.nan
        with pytest.raises(InputError, match="item 2: non-finite"):
            make_group(features=features)


class TestQueryGroup:
    def test_requires_two_items(self):
        with pytest.raises(InputError):
            make_group(n=1)

    def test_rejects_two_primary_positives(self):
        with pytest.raises(InputError, match="primary-positive"):
            make_group(n=3, K=1, labels=[[1], [1], [0]])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(InputError):
            make_group(n=2, K=1, labels=[[2], [0]])
        with pytest.raises(InputError):
            make_group(n=2, K=1, labels=[[0.5], [0]])

    def test_rejects_ragged_labels(self):
        with pytest.raises(InputError):
            make_group(n=2, labels=[[0, 1], [0]])

    def test_rejects_inconsistent_shapes(self):
        for fields in (
            {"item_ids": [0, 1]},
            {"ratings": [3.0] * 4},
            {"is_new": [False]},
            {"labels": [[0], [1]]},
            {"features": [[0.0, 1.0], [0.0]]},
        ):
            with pytest.raises(InputError):
                make_group(n=3, **fields)

    def test_owns_contiguous_typed_arrays(self):
        features = np.asfortranarray(np.zeros((3, 4)))
        g = make_group(features=features, labels=[[0, -1], [1, -1], [0, 1]])
        assert g.features.flags.c_contiguous and g.features.flags.owndata
        assert g.labels.dtype == np.int8 and g.item_ids.dtype == np.int64
        features[0, 0] = 1.0
        assert g.features[0, 0] == 0.0

    def test_objective_labels_mask(self):
        g = make_group(n=3, K=2, booked=1)
        g.labels[1, 1] = 1
        vals, mask = g.objective_labels(1)
        assert vals.tolist() == [0.0, 1.0, 0.0]
        assert mask.tolist() == [False, True, False]
        assert g.has_labels_for(1)
        assert not make_group(n=3, K=2).has_labels_for(1)

    def test_all_none_primary_allowed(self):
        g = make_group(n=2, K=1, labels=[[-1], [-1]])
        assert not g.has_labels_for(0)


class TestDataset:
    def test_requires_single_primary_at_zero(self):
        objectives = [
            data.ObjectiveSpec(index=0, name="a", primary=False),
            data.ObjectiveSpec(index=1, name="b", primary=True),
        ]
        with pytest.raises(ConfigError):
            data.Dataset(objectives=objectives, groups=[], m=4, K=2)

    def test_rejects_duplicate_names(self):
        objectives = [
            data.ObjectiveSpec(index=0, name="a", primary=True),
            data.ObjectiveSpec(index=1, name="a"),
        ]
        with pytest.raises(ConfigError):
            data.Dataset(objectives=objectives, groups=[], m=4, K=2)

    def test_polarity_validated(self):
        with pytest.raises(ConfigError):
            data.ObjectiveSpec(index=0, name="a", polarity="neutral")

    def test_content_hash_is_stable(self):
        # Pins the JSONL v1 bytes: the digest of a generated dataset must
        # not change while the format version stays 1.
        assert data.generate_dataset(tiny_config()).content_hash() == (
            "b6cdaf247ea6cb4c8d0f0fd2773218c2a955f3c4d822ba5f3e64f12a847128cd"
        )

    def test_content_hash_changes_with_content(self):
        a = data.generate_dataset(tiny_config())
        b = data.generate_dataset(tiny_config())
        c = data.generate_dataset(tiny_config(seed=2))
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()


class TestGeneratorConfig:
    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            tiny_config(items_per_query=(5, 3))
        with pytest.raises(ConfigError):
            tiny_config(items_per_query=(1, 3))
        with pytest.raises(ConfigError):
            tiny_config(objective_correlation=1.5)
        with pytest.raises(ConfigError):
            tiny_config(label_rates=[0.5])  # needs K-1 = 2 entries
        with pytest.raises(ConfigError):
            tiny_config(primary_rate=0.0)

    def test_round_trip_dict(self):
        config = tiny_config(objective_correlation=0.25, label_rates=[0.5, 0.1])
        assert data.GeneratorConfig.from_dict(config.to_dict()) == config
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()

    def test_explicit_weights_shape_checked(self):
        with pytest.raises(ConfigError):
            tiny_config(objective_weights=[[1.0, 0.0]])


class TestGenerator:
    def test_deterministic(self):
        a = data.generate_dataset(tiny_config())
        b = data.generate_dataset(tiny_config())
        assert len(a) == len(b) == 40
        for ga, gb in zip(a.groups, b.groups):
            assert np.array_equal(ga.labels, gb.labels)
            assert np.array_equal(ga.features, gb.features)

    def test_group_sizes_in_range(self):
        ds = data.generate_dataset(tiny_config())
        assert all(3 <= g.size <= 5 for g in ds.groups)
        assert all(0 <= g.timestamp < 20 for g in ds.groups)

    def test_primary_coverage_tracks_rate(self):
        config = tiny_config(num_queries=2000, primary_rate=0.7)
        ds = data.generate_dataset(config)
        assert data.label_coverage(ds, 0) == pytest.approx(0.7, abs=0.05)

    def test_secondary_coverage_below_primary(self):
        config = tiny_config(num_queries=2000, label_rates=[0.3, 0.05])
        ds = data.generate_dataset(config)
        c0 = data.label_coverage(ds, 0)
        c1 = data.label_coverage(ds, 1)
        c2 = data.label_coverage(ds, 2)
        assert c1 == pytest.approx(c0 * 0.3, abs=0.05)
        assert c2 == pytest.approx(c0 * 0.05, abs=0.02)
        assert c2 < c1 < c0

    def test_secondary_labels_only_on_booked_item(self):
        ds = data.generate_dataset(tiny_config(num_queries=500))
        for g in ds.groups:
            primary = g.primary_labels()
            for j, row in enumerate(g.labels):
                for k in range(1, ds.K):
                    if row[k] != data.MISSING_LABEL:
                        assert primary[j] == 1

    def test_new_items_get_sentinel(self):
        ds = data.generate_dataset(tiny_config(num_queries=300, new_item_fraction=0.5))
        saw_new = saw_old = False
        for g in ds.groups:
            for features, rating, is_new in zip(g.features, g.ratings, g.is_new):
                if is_new:
                    saw_new = True
                    assert features[data.RATING_FEATURE_INDEX] == data.NEW_ITEM_SENTINEL
                    assert rating == 0.0
                else:
                    saw_old = True
                    expected = (rating - 2.5) / 1.5
                    assert features[data.RATING_FEATURE_INDEX] == pytest.approx(expected)
        assert saw_new and saw_old

    def test_weights_shared_across_seeds(self):
        w1 = data.resolve_objective_weights(tiny_config(seed=1))
        w2 = data.resolve_objective_weights(tiny_config(seed=99))
        assert np.array_equal(w1, w2)
        w3 = data.resolve_objective_weights(tiny_config(weights_seed=5))
        assert not np.array_equal(w1, w3)

    def test_booked_item_is_better_than_chance(self):
        # The softmax draw over the primary utility should favor
        # higher-utility items far more often than uniform choice would.
        config = tiny_config(num_queries=2000, primary_rate=1.0)
        ds = data.generate_dataset(config)
        w = data.resolve_objective_weights(config)
        top_booked = 0
        for g in ds.groups:
            u0 = g.features @ w[0]
            booked = int(np.argmax(g.primary_labels()))
            if booked == int(np.argmax(u0)):
                top_booked += 1
        assert top_booked / len(ds) > 0.5  # uniform would give ~1/4


class TestSplitByTime:
    def test_partition(self):
        ds = data.generate_dataset(tiny_config(num_queries=200))
        early, late = data.split_by_time(ds, 10)
        assert len(early) + len(late) == len(ds)
        assert all(g.timestamp < 10 for g in early.groups)
        assert all(g.timestamp >= 10 for g in late.groups)

    def test_boundary_extremes(self):
        ds = data.generate_dataset(tiny_config())
        early, late = data.split_by_time(ds, 0)
        assert len(early) == 0 and len(late) == len(ds)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = data.generate_dataset(tiny_config(num_queries=30))
        path = tmp_path / "ds.jsonl"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert loaded.m == ds.m and loaded.K == ds.K
        assert loaded.objectives == ds.objectives
        assert loaded.content_hash() == ds.content_hash()
        for a, b in zip(ds.groups, loaded.groups):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.features, b.features)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 1

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format_version": 99, "m": 4, "K": 2,
                                    "objectives": []}) + "\n")
        with pytest.raises(ParseError, match="format_version"):
            data.load_dataset(path)

    def test_bad_group_line_number(self, tmp_path):
        ds = data.generate_dataset(tiny_config(num_queries=3))
        path = tmp_path / "ds.jsonl"
        lines = list(data.serialize_lines(ds))
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 3

    def test_line_endings_and_blank_lines(self, tmp_path):
        ds = data.generate_dataset(tiny_config(num_queries=4))
        lines = list(data.serialize_lines(ds))
        path = tmp_path / "ds.jsonl"
        # CRLF endings, a blank line and no final newline load as before.
        path.write_bytes("\r\n".join(lines[:2] + ["  "] + lines[2:]).encode())
        assert data.load_dataset(path).content_hash() == ds.content_hash()
        path.write_bytes("\r\n".join(lines[:2] + [""] + ["{not json"]).encode())
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("features", [[0.5] * 6, [0.5] * 5]),  # ragged rows
            ("features", [[0.5] * 5, [0.5] * 5]),  # narrower than the header's m
            ("labels", [[-1, None, None], [1, None, None]]),  # -1 is not a JSONL label
        ],
    )
    def test_bad_item_arrays_name_the_line(self, tmp_path, field, value):
        ds = data.generate_dataset(tiny_config(num_queries=3))
        lines = list(data.serialize_lines(ds))
        doc = json.loads(lines[2])
        doc["items"] = doc["items"][:2]
        doc["labels"] = doc["labels"][:2]
        if field == "features":
            for item, row in zip(doc["items"], value):
                item["features"] = row
        else:
            doc["labels"] = value
        lines[2] = json.dumps(doc)
        path = tmp_path / "ds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 3

    @given(st.integers(0, 2**31), st.integers(5, 25))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed, num_queries):
        import tempfile
        from pathlib import Path

        ds = data.generate_dataset(tiny_config(seed=seed, num_queries=num_queries))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ds.jsonl"
            data.save_dataset(ds, path)
            assert data.load_dataset(path).content_hash() == ds.content_hash()
