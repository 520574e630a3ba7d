import json
from datetime import datetime

import pytest

from metacomment.corpus import (
    CLASS_ORDER,
    Comment,
    DatasetError,
    LabeledDataset,
    LabelSet,
    dataset_stats,
    load_dataset,
    save_dataset,
)

from conftest import make_comment


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


GOOD_RECORDS = [
    {"id": "1", "title": "Titel", "text": "Erster Text.", "timestamp": "2016-01-04T10:00",
     "labels": ["Meta", "Media"], "department": "politik", "position": 1, "has_quote": True},
    {"id": "2", "title": "", "text": "Zweiter Text.", "timestamp": "2016-01-04T11:30",
     "labels": ["NonMeta"]},
    {"id": "3", "text": "Dritter Text ohne Titel.", "timestamp": "2016-01-05T08:15"},
]


class TestComment:
    def test_empty_text_rejected(self):
        with pytest.raises(DatasetError, match="text is empty"):
            make_comment(text="   ")

    def test_position_must_be_positive(self):
        with pytest.raises(DatasetError, match="position"):
            make_comment(position=0)

    def test_timestamp_truncated_to_minute(self):
        c = make_comment(timestamp=datetime(2016, 5, 2, 9, 30, 45, 123))
        assert c.timestamp == datetime(2016, 5, 2, 9, 30)


class TestLabelSet:
    def test_nonmeta_is_exclusive(self):
        with pytest.raises(DatasetError, match="NonMeta"):
            LabelSet.of("NonMeta", "Media")

    def test_addressee_requires_meta(self):
        with pytest.raises(DatasetError, match="Meta"):
            LabelSet.of("Media")

    def test_bare_meta_allowed(self):
        ls = LabelSet.of("Meta")
        assert ls.is_meta
        assert ls.addressees == ()

    def test_unknown_label_rejected(self):
        with pytest.raises(DatasetError, match="unknown"):
            LabelSet.of("Spam")

    def test_iteration_follows_class_order(self):
        ls = LabelSet.of("Meta", "Moderator", "Media")
        assert list(ls) == ["Media", "Moderator", "Meta"]


class TestLoadDataset:
    def test_three_record_file(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        write_jsonl(path, GOOD_RECORDS)
        ds = load_dataset(path)
        assert len(ds) == 3
        counts = ds.label_counts()
        # hand count of the fixture records above
        assert counts == {"Media": 1, "Journalist": 0, "Moderator": 0,
                          "Meta": 1, "NonMeta": 1}
        c, ls = {c.id: (c, ls) for c, ls in ds}["3"]
        assert not ls
        assert c.department is None

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(path)

    def test_exclusivity_violation_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [GOOD_RECORDS[0],
                           {"id": "9", "text": "x y.", "timestamp": "2016-01-01T00:00",
                            "labels": ["NonMeta", "Media"]}])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_duplicate_id_is_error(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [GOOD_RECORDS[0], GOOD_RECORDS[0]])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    def test_bad_timestamp_names_line_and_field(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        write_jsonl(path, [{"id": "1", "text": "ok.", "timestamp": "gestern"}])
        with pytest.raises(DatasetError, match="line 1.*timestamp"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("text", 5, "be str"), ("position", "3", "be int"), ("position", True, "be int"),
        ("title", 7, "be str"), ("has_quote", 1, "be bool"), ("department", 2, "be str"),
        ("username", [], "be str"), ("forum_id", 4, "be str"),
        ("labels", "Meta", "be list"), ("labels", [1, "Meta"], "hold strings"),
        ("labels", [["Meta"]], "hold strings"),
    ])
    def test_wrong_field_type_names_line(self, tmp_path, key, value, expected):
        path = tmp_path / "types.jsonl"
        write_jsonl(path, [GOOD_RECORDS[0], {"id": "9", "text": "ok.",
                                             "timestamp": "2020-01-01T00:00",
                                             key: value}])
        with pytest.raises(DatasetError, match=f"line 2: field '{key}' must {expected}"):
            load_dataset(path)

    def test_non_object_line_names_line(self, tmp_path):
        path = tmp_path / "array.jsonl"
        write_jsonl(path, [GOOD_RECORDS[0], ["9", "ok.", "2020-01-01T00:00"]])
        with pytest.raises(DatasetError, match="line 2: expected a JSON object"):
            load_dataset(path)

    def test_null_optional_fields_accepted(self, tmp_path):
        path = tmp_path / "nulls.jsonl"
        write_jsonl(path, [{"id": "1", "text": "ok.", "timestamp": "2020-01-01T00:00",
                            **{key: None for key in ("title", "position", "has_quote",
                                                     "department", "username",
                                                     "forum_id", "labels")}}])
        c, ls = next(iter(load_dataset(path)))
        assert (c.title, c.position, c.has_quote, ls) == ("", None, None, LabelSet())

    @pytest.mark.parametrize("key", ["id", "text", "timestamp"])
    def test_null_required_field_is_missing(self, tmp_path, key):
        record = {"id": "9", "text": "ok.", "timestamp": "2020-01-01T00:00", key: None}
        path = tmp_path / "null.jsonl"
        write_jsonl(path, [record])
        with pytest.raises(DatasetError, match=f"line 1: missing field '{key}'"):
            load_dataset(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "mf.jsonl"
        write_jsonl(path, [{"id": "1", "timestamp": "2016-01-01T00:00"}])
        with pytest.raises(DatasetError, match="text"):
            load_dataset(path)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, small_dataset):
        path = tmp_path / "rt.jsonl"
        save_dataset(small_dataset, path)
        loaded = load_dataset(path, source_tag="fixture")
        assert loaded == small_dataset

    def test_save_is_canonical(self, tmp_path, small_dataset):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(small_dataset, p1)
        save_dataset(load_dataset(p1, source_tag="fixture"), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestStats:
    def test_empty_dataset(self):
        report = dataset_stats(LabeledDataset((), "empty"))
        assert report.n_comments == 0
        assert all(v == 0 for v in report.label_counts.values())
        assert report.mean_title_words is None
        assert report.quote_share is None

    def test_quote_share(self, small_dataset):
        report = dataset_stats(small_dataset)
        assert report.quote_share == 0.5

    def test_department_counts(self, small_dataset):
        report = dataset_stats(small_dataset)
        assert report.department_counts == {"politik": 2, "wirtschaft": 1, "panorama": 1}

    def test_addressee_counts_bounded_by_meta(self, small_dataset):
        counts = small_dataset.label_counts()
        for label in ("Media", "Journalist", "Moderator"):
            assert counts[label] <= counts["Meta"]

    def test_mean_title_words(self, small_dataset):
        report = dataset_stats(small_dataset)
        # one title with 2 words, three empty titles
        assert report.mean_title_words == pytest.approx(0.5)
