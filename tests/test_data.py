import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import label_coverage, objective_labels, primary_labels

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

    def test_rejects_ids_past_int64(self):
        g = make_group()
        with pytest.raises(InputError, match="rectangular numeric"):
            replace(g, item_ids=[0, 2**63, 1])
        with pytest.raises(InputError, match="int64"):
            replace(g, query_id=2**63)
        replace(g, query_id=2**63 - 1, timestamp=-(2**63))

    def test_rejects_repeated_item_ids(self):
        with pytest.raises(InputError, match="query 7: item_ids repeat"):
            make_group(query_id=7, item_ids=[700, 701, 700])

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
        vals, mask = objective_labels(g, 1)
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

    def test_content_hash_is_stable(self):
        # Pins the JSONL v2 bytes and the array digest of one generated
        # dataset: neither may change while the format version stays 2.
        ds = data.generate_dataset(tiny_config())
        text = "".join(line + "\n" for line in data.serialize_lines(ds))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ed820873d0c7737982fcf0b80bef9c3a122402eb6e2da4bbaf90f17f6c219d61"
        )
        assert ds.content_hash() == (
            "a6cc5a234ea1c97e00c02136872baf825ce765fc3f1dec2d92f2d0f899c84af7"
        )

    def test_content_hash_changes_with_content(self):
        a = data.generate_dataset(tiny_config())
        b = data.generate_dataset(tiny_config())
        c = data.generate_dataset(tiny_config(seed=2))
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    @given(
        st.integers(0, 2**31),
        st.sampled_from(["none", "negative_zero", "label", "move_item", "swap_groups", "rename"]),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_content_hash_equal_exactly_when_text_equal(self, seed, mutation, i, j):
        ds = data.generate_dataset(tiny_config(seed=seed, num_queries=6))
        ds.groups[i].features[0, 1] = 0.0
        other = replace(ds, objectives=list(ds.objectives), groups=[replace(g) for g in ds.groups])
        a, b = other.groups[i], other.groups[i + 1]
        if mutation == "negative_zero":
            a.features[0, 1] = -0.0
        elif mutation == "label":
            # Any change of a secondary label keeps the group valid.
            row, col = j % a.size, 1 + j % (ds.K - 1)
            a.labels[row, col] = (a.labels[row, col] + 2) % 3 - 1
        elif mutation == "move_item":
            # The item rows in file order stay the same; only the sizes move.
            assume(a.labels[-1, 0] != 1 or not (b.labels[:, 0] == 1).any())
            fields = ("features", "item_ids", "ratings", "is_new", "labels")
            other.groups[i] = replace(a, **{f: getattr(a, f)[:-1] for f in fields})
            other.groups[i + 1] = replace(b, **{
                f: np.concatenate([getattr(a, f)[-1:], getattr(b, f)]) for f in fields
            })
        elif mutation == "swap_groups":
            other.groups[i], other.groups[j] = other.groups[j], other.groups[i]
        elif mutation == "rename":
            other.objectives[1] = replace(other.objectives[1], name="renamed")
        same_text = list(data.serialize_lines(ds)) == list(data.serialize_lines(other))
        assert (ds.content_hash() == other.content_hash()) == same_text
        assert same_text == (mutation == "none" or (mutation == "swap_groups" and i == j))


class TestLengthBuckets:
    @pytest.mark.parametrize("bucket_groups", [1, 3, data.BUCKET_GROUPS])
    def test_buckets_cover_every_group_once_by_length(self, monkeypatch, bucket_groups):
        monkeypatch.setattr(data, "BUCKET_GROUPS", bucket_groups)
        ds = data.generate_dataset(data.GeneratorConfig(
            num_queries=50, items_per_query=(2, 9), m=4, K=2, seed=1
        ))
        buckets = data.length_buckets(ds.groups)
        sizes = [b.groups[0].size for b in buckets]
        assert sizes == sorted(sizes)
        assert sorted(np.concatenate([b.index for b in buckets]).tolist()) == list(range(50))
        for b in buckets:
            assert 1 <= len(b.index) <= bucket_groups
            assert b.index.tolist() == sorted(b.index.tolist())
            assert b.groups == [ds.groups[i] for i in b.index]
            assert {g.size for g in b.groups} == {b.groups[0].size}

    def test_a_field_reads_stacked(self):
        ds = data.generate_dataset(data.GeneratorConfig(
            num_queries=30, items_per_query=(3, 4), m=4, K=2, seed=1
        ))
        for b in data.length_buckets(ds.groups):
            assert b.labels.shape == (len(b.index), b.groups[0].size, 2)
            assert b.labels.tobytes() == b"".join(g.labels.tobytes() for g in b.groups)
            assert b.query_id.tolist() == [g.query_id for g in b.groups]
            assert b.features is b.features  # stacked once
        with pytest.raises(AttributeError):
            b.no_such_field
        assert data.length_buckets([]) == []


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

    @pytest.mark.parametrize("field", ["seed", "weights_seed"])
    def test_negative_seed_is_named(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be nonnegative, got -3"):
            tiny_config(**{field: -3})
        tiny_config(**{field: 0})

    def test_round_trip_dict(self):
        config = tiny_config(objective_correlation=0.25, label_rates=[0.5, 0.1])
        assert data.GeneratorConfig.from_dict(config.to_dict()) == config
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()

    def test_explicit_weights_shape_checked(self):
        with pytest.raises(ConfigError):
            tiny_config(objective_weights=[[1.0, 0.0]])

    def test_utility_scale_and_weights_must_be_finite(self):
        with pytest.raises(ConfigError, match="utility_scale must be positive and finite"):
            tiny_config(utility_scale=float("inf"))
        weights = np.ones((3, 4))
        weights[1, 2] = float("nan")
        with pytest.raises(ConfigError, match="objective_weights must be finite"):
            tiny_config(m=4, objective_weights=weights.tolist())

    def test_overflowing_utilities_raise_config_error(self):
        with pytest.raises(ConfigError, match="overflows the latent utilities"):
            data.generate_dataset(tiny_config(utility_scale=1e308))

    def test_sigmoid_of_a_large_negative_utility_is_zero(self):
        assert data._sigmoid(-1e6) == pytest.approx(0.0, abs=1e-300)
        assert data._sigmoid(0.0) == 0.5


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
        assert label_coverage(ds, 0) == pytest.approx(0.7, abs=0.05)

    def test_secondary_coverage_below_primary(self):
        config = tiny_config(num_queries=2000, label_rates=[0.3, 0.05])
        ds = data.generate_dataset(config)
        c0 = label_coverage(ds, 0)
        c1 = label_coverage(ds, 1)
        c2 = label_coverage(ds, 2)
        assert c1 == pytest.approx(c0 * 0.3, abs=0.05)
        assert c2 == pytest.approx(c0 * 0.05, abs=0.02)
        assert c2 < c1 < c0

    def test_secondary_labels_only_on_booked_item(self):
        ds = data.generate_dataset(tiny_config(num_queries=500))
        for g in ds.groups:
            primary = primary_labels(g)
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
            booked = int(np.argmax(primary_labels(g)))
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

    @pytest.mark.parametrize(
        "header, key",
        [
            ({"format_version": 2, "m": 4, "K": 1,
              "objectives": [{"index": 0, "name": "booking", "primary": True, "foo": 1}]},
             "foo"),
            ({"format_version": 2, "m": 4, "K": 1, "objectives": 5}, "objectives"),
            (5, None),
            ({"format_version": 2, "m": 4, "K": "3",
              "objectives": [{"index": 0, "name": "booking", "primary": True}]}, "'K'"),
            ({"format_version": 2, "m": 4, "K": 1,
              "objectives": [{"index": "0", "name": "booking", "primary": True}]}, "'index'"),
            ({"format_version": 2, "m": 4, "K": 1,
              "objectives": [{"index": 0, "name": "booking"}]}, "primary"),
            ({"format_version": True, "m": 4, "K": 1,
              "objectives": [{"index": 0, "name": "booking", "primary": True}]},
             "'format_version'"),
            ({"format_version": 2, "m": 4, "K": 2,
              "objectives": [{"index": 0, "name": "booking", "primary": True},
                             {"index": 7, "name": "cancellation", "primary": False}]},
             "index 7"),
        ],
        ids=["unknown_objective_key", "objectives_number", "number_header",
             "K_string", "index_string", "no_primary", "version_bool", "index_not_position"],
    )
    def test_bad_header_names_line_one(self, tmp_path, header, key):
        path = tmp_path / "bad.jsonl"
        # A group follows, so a header error must not wait for it.
        group = {"query_id": 0, "timestamp": 0, "labels": [[1], [0]], "items": [
            {"item_id": i, "features": [0.0] * 4, "review_rating": 3.0, "is_new": False}
            for i in range(2)]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(group) + "\n")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 1 and str(e.value).startswith("line 1: ")
        assert key is None or key in str(e.value)

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
            ("labels", [[True, None, None], [0, None, None]]),  # JSONL labels are integers
            ("labels", [[1, None, None], [False, None, None]]),
            ("labels", [[1.0, None, None], [0, None, None]]),
            ("labels", [[1, None, None], [0.0, None, None]]),
            ("features", [[True] + [0.5] * 5, [0.5] * 6]),  # JSONL features are numbers
            ("review_rating", [3.5, "3.5"]),
        ],
    )
    def test_bad_item_arrays_name_the_line(self, tmp_path, field, value):
        ds = data.generate_dataset(tiny_config(num_queries=3))
        lines = list(data.serialize_lines(ds))
        doc = json.loads(lines[2])
        doc["items"] = doc["items"][:2]
        doc["labels"] = doc["labels"][:2]
        if field == "labels":
            doc["labels"] = value
        else:
            for item, v in zip(doc["items"], value):
                item[field] = v
        lines[2] = json.dumps(doc)
        path = tmp_path / "ds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("query_id", 0),  # the query on line 2
            ("query_id", "x"),
            ("query_id", 1.5),
            ("query_id", None),
            ("timestamp", "x"),
            ("item_id", 1.5),
            ("is_new", "yes"),
            ("query_id", 2**63),
            ("timestamp", -(2**63) - 1),
        ],
        ids=["repeated_query_id", "query_id_string", "query_id_float", "query_id_null",
             "timestamp_string", "item_id_float", "is_new_string", "query_id_past_int64",
             "timestamp_past_int64"],
    )
    def test_bad_ids_name_the_line(self, tmp_path, field, value):
        ds = data.generate_dataset(tiny_config(num_queries=3))
        lines = list(data.serialize_lines(ds))
        doc = json.loads(lines[2])
        (doc if field in doc else doc["items"][0])[field] = value
        lines[2] = json.dumps(doc)
        path = tmp_path / "ds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 3 and field in str(e.value)

    def test_repeated_item_id_names_the_query_and_line(self, tmp_path):
        ds = data.generate_dataset(tiny_config(num_queries=3))
        lines = list(data.serialize_lines(ds))
        doc = json.loads(lines[2])
        doc["items"][1]["item_id"] = doc["items"][0]["item_id"]
        lines[2] = json.dumps(doc)
        path = tmp_path / "ds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as e:
            data.load_dataset(path)
        assert e.value.line == 3 and f"query {doc['query_id']}: item_ids repeat" in str(e.value)

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
