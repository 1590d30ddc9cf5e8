"""Tests for dataset loading, binarization and splitting."""

import csv
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatescan.corpus import (
    HATE,
    NORMAL,
    TARGET_CLASSES,
    TARGET_CLASSES_RAW,
    LabeledExample,
    Post,
    RowError,
    SplitConfig,
    TargetExample,
    binarize,
    load_dialoconan,
    load_examples,
    load_hatexplain,
    load_parler,
    load_tap,
    load_toxigen,
    split,
)
from hatescan.errors import DataError

from helpers import DATA_DIR


def path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


# ---------------------------------------------------------------- parler


def test_load_parler_counts_and_errors() -> None:
    rows = load_parler(path("parler_mixed.jsonl"))
    assert len(rows) == 28
    assert len(rows.errors) == 3
    assert [e.row for e in rows.errors] == [20, 21, 22]
    assert "out of [1, 5]" in rows.errors[0].message


def test_load_parler_aborts_on_high_error_rate() -> None:
    with pytest.raises(DataError):
        load_parler(path("parler_broken.jsonl"))


def test_load_parler_missing_file() -> None:
    with pytest.raises(DataError):
        load_parler(path("nope_does_not_exist.jsonl"))


def test_load_parler_empty_file_warns() -> None:
    rows = load_parler(path("empty.jsonl"))
    assert list(rows) == []
    assert rows.warnings["empty_file"] == 1


def test_load_parler_csv() -> None:
    rows = load_parler(path("parler_small.csv"))
    assert len(rows) == 3
    assert rows[0].label_mean == 2.5
    assert rows[1].disputable is True
    assert rows[1].user_id == "u1"
    assert rows[2].label_mean is None


def test_load_parler_preserves_raw_text() -> None:
    rows = load_parler(path("parler_mixed.jsonl"))
    assert rows[0].text == "This is a Normal post"  # no normalization at load time


# ---------------------------------------------------------------- binarize


def test_binarize_examples() -> None:
    assert binarize(Post("a", "x y", 3.0), 3).label == HATE
    assert binarize(Post("b", "x y", 2.9), 3).label == NORMAL
    assert binarize(Post("c", "x y", 3.5), 4).label == NORMAL


def test_binarize_normalizes_text() -> None:
    example = binarize(Post("a", "SOME Text", 4.0), 3)
    assert example.text == "some text"
    assert example.origin == "parler"
    assert example.augmented is False


def test_binarize_unlabeled_post() -> None:
    with pytest.raises(DataError, match="unlabeled post"):
        binarize(Post("a", "x", None), 3)


def test_binarize_strict_flag() -> None:
    post = Post("a", "x y", 3.0)
    assert binarize(post, 3, inclusive=True).label == HATE
    assert binarize(post, 3, inclusive=False).label == NORMAL


@settings(max_examples=200, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=5.0),
    t1=st.floats(min_value=1.0, max_value=5.0),
    t2=st.floats(min_value=1.0, max_value=5.0),
)
def test_binarize_monotone_in_threshold(mean: float, t1: float, t2: float) -> None:
    lo, hi = sorted((t1, t2))
    post = Post("p", "text here", mean)
    if binarize(post, hi).label == HATE:
        assert binarize(post, lo).label == HATE


# ---------------------------------------------------------------- hatexplain


def test_load_hatexplain_majorities() -> None:
    rows = load_hatexplain(path("hatexplain_small.jsonl"))
    targets = [e.target for e in rows]
    assert targets == [
        "Jewish", "Other", "Other", "LGBT", "African", "Islam",
        "African", "LGBT", "Islam",
    ]
    assert rows.dropped_no_majority == 1
    assert len(rows.errors) == 1
    assert "3 annotations" in rows.errors[0].message


def test_hatexplain_maps_before_voting() -> None:
    # Women and Refugee both fold to Other, which then outvotes Jewish
    rows = load_hatexplain(path("hatexplain_small.jsonl"))
    by_text = {e.text: e.target for e in rows}
    assert by_text["mapped majority example"] == "Other"


@settings(max_examples=100, deadline=None)
@given(st.permutations(["Jewish", "Jewish", "Other"]))
def test_hatexplain_vote_permutation_invariant(annotations: list) -> None:
    import json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        fh.write(json.dumps({"id": "x", "text": "some text", "annotations": annotations}) + "\n")
        name = fh.name
    try:
        rows = load_hatexplain(name)
        assert [e.target for e in rows] == ["Jewish"]
    finally:
        os.unlink(name)


# ---------------------------------------------------------------- dialoconan


def test_load_dialoconan() -> None:
    rows = load_dialoconan(path("dialoconan_small.jsonl"))
    targets = [e.target for e in rows]
    assert targets == ["Islam", "Other", "Jewish", "Jewish", "LGBT", "African", "Other", "Other"]
    assert rows.warnings["unknown_target"] == 1
    assert len(rows.errors) == 1  # the narrator row


def test_dialoconan_counter_turns_skipped() -> None:
    rows = load_dialoconan(path("dialoconan_small.jsonl"))
    assert all("counter" not in e.text for e in rows)


# ---------------------------------------------------------------- toxigen


def test_load_toxigen_small_filters() -> None:
    rows = load_toxigen(path("toxigen_small_20.jsonl"), "small")
    assert len(rows) == 8
    from collections import Counter

    assert Counter(e.target for e in rows) == Counter(
        {"African": 2, "Islam": 2, "Other": 2, "Jewish": 1, "LGBT": 1}
    )


def test_load_toxigen_boundary_toxicity_kept() -> None:
    rows = load_toxigen(path("toxigen_small_20.jsonl"), "small")
    texts = {e.text for e in rows}
    assert "offensive claim about muslims 2" in texts  # toxicity exactly 4.0


def test_load_toxigen_large_keeps_all() -> None:
    rows = load_toxigen(path("toxigen_small_20.jsonl"), "large")
    assert len(rows) == 20


def test_load_toxigen_bad_variant() -> None:
    with pytest.raises(ValueError):
        load_toxigen(path("toxigen_small_20.jsonl"), "medium")


def test_load_toxigen_missing_toxicity_is_row_error() -> None:
    import json
    import tempfile

    records = [{"text": f"row {i}", "target_group": "black", "toxicity": 4.5,
                "annotators_agree": True} for i in range(10)]
    records.append({"text": "no score", "target_group": "black", "annotators_agree": True})
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
        name = fh.name
    try:
        rows = load_toxigen(name, "small")
        assert len(rows) == 10
        assert len(rows.errors) == 1
        assert "toxicity" in rows.errors[0].message
    finally:
        os.unlink(name)


# ---------------------------------------------------------------- tap


def test_load_tap_folds_politician() -> None:
    rows = load_tap(path("tap_small.jsonl"), fold_politician=True)
    assert len(rows) == 10
    assert all(e.target in TARGET_CLASSES for e in rows)
    assert sum(1 for e in rows if e.target == "Other") == 4  # 1 Other + 3 folded


def test_load_tap_raw_keeps_politician() -> None:
    rows = load_tap(path("tap_small.jsonl"), fold_politician=False)
    assert sum(1 for e in rows if e.target == "Politician") == 3
    assert all(e.target in TARGET_CLASSES_RAW for e in rows)


def test_load_tap_homosexual_maps_to_lgbt() -> None:
    rows = load_tap(path("tap_small.jsonl"), fold_politician=True)
    by_text = {e.text: e.target for e in rows}
    assert by_text["post targeting gay people"] == "LGBT"


def test_load_tap_unknown_class_is_row_error() -> None:
    rows = load_tap(path("tap_small.jsonl"), fold_politician=True)
    assert len(rows.errors) == 1
    assert "unknown class" in rows.errors[0].message


def test_load_tap_csv() -> None:
    rows = load_tap(path("tap_small.csv"), fold_politician=True)
    assert len(rows) == 6


def test_loader_outputs_stay_in_class_space() -> None:
    for rows in (
        load_hatexplain(path("hatexplain_small.jsonl")),
        load_dialoconan(path("dialoconan_small.jsonl")),
        load_toxigen(path("toxigen_small_20.jsonl"), "small"),
        load_tap(path("tap_small.jsonl"), fold_politician=True),
    ):
        for example in rows:
            assert example.target in TARGET_CLASSES


def test_loaders_deterministic() -> None:
    a = load_hatexplain(path("hatexplain_small.jsonl"))
    b = load_hatexplain(path("hatexplain_small.jsonl"))
    assert list(a) == list(b)


# ---------------------------------------------------------------- split


def _labeled(n: int, label: str, augmented: bool = False):
    return [
        LabeledExample(text=f"{label} {i}", label=label, origin="test", augmented=augmented)
        for i in range(n)
    ]


def test_split_example_arithmetic() -> None:
    data = _labeled(5, HATE) + _labeled(5, NORMAL)
    train, test = split(data, SplitConfig(train_fraction=0.8, seed=1))
    assert len(train) == 8 and len(test) == 2
    from collections import Counter

    assert Counter(e.label for e in train) == Counter({HATE: 4, NORMAL: 4})
    assert Counter(e.label for e in test) == Counter({HATE: 1, NORMAL: 1})


def test_split_deterministic() -> None:
    data = _labeled(30, HATE) + _labeled(70, NORMAL)
    a = split(data, SplitConfig(seed=42))
    b = split(data, SplitConfig(seed=42))
    assert a == b
    c = split(data, SplitConfig(seed=43))
    assert a != c  # overwhelmingly likely for 100 examples


def test_split_rounding_half_up() -> None:
    train, test = split(_labeled(10121, HATE), SplitConfig(train_fraction=0.8, seed=0))
    assert len(train) == 8097 and len(test) == 2024


def test_split_empty_dataset() -> None:
    with pytest.raises(DataError):
        split([], SplitConfig())


def test_split_tiny_class_goes_to_train() -> None:
    data = _labeled(10, NORMAL) + _labeled(1, HATE)
    train, test = split(data, SplitConfig(train_fraction=0.8, seed=5))
    assert all(e.label == NORMAL for e in test)
    assert sum(1 for e in train if e.label == HATE) == 1


def test_split_augmented_never_in_test() -> None:
    data = _labeled(20, HATE) + _labeled(20, NORMAL) + _labeled(15, HATE, augmented=True)
    train, test = split(data, SplitConfig(train_fraction=0.8, seed=3))
    assert not any(e.augmented for e in test)
    assert sum(1 for e in train if e.augmented) == 15
    # stratified arithmetic over the 40 original examples only
    assert len(test) == 8


@settings(max_examples=100, deadline=None)
@given(
    n_a=st.integers(min_value=2, max_value=40),
    n_b=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    fraction=st.floats(min_value=0.1, max_value=0.9),
)
def test_split_is_a_partition(n_a: int, n_b: int, seed: int, fraction: float) -> None:
    data = _labeled(n_a, HATE) + _labeled(n_b, NORMAL)
    train, test = split(data, SplitConfig(train_fraction=fraction, seed=seed))
    assert len(train) + len(test) == len(data)
    assert sorted(map(repr, train + test)) == sorted(map(repr, data))
    # per-class train fraction within one example of the target
    for label, n in ((HATE, n_a), (NORMAL, n_b)):
        got = sum(1 for e in train if e.label == label)
        assert abs(got - n * fraction) <= 1.0


def test_split_unstratified() -> None:
    data = _labeled(6, HATE) + _labeled(4, NORMAL)
    train, test = split(data, SplitConfig(train_fraction=0.5, seed=9, stratified=False))
    assert len(train) == 5 and len(test) == 5


def test_split_config_validation() -> None:
    with pytest.raises(ValueError):
        SplitConfig(train_fraction=1.0)
    with pytest.raises(ValueError):
        SplitConfig(train_fraction=0.0)


# ------------------------------------------------------------ save/load

def test_examples_round_trip_labeled(tmp_path) -> None:
    from hatescan.corpus import load_examples, save_examples

    rows = [
        LabeledExample("first text", HATE, "parler"),
        LabeledExample("second text", NORMAL, "parler", augmented=True),
    ]
    path = str(tmp_path / "rows.jsonl")
    save_examples(rows, path)
    back = load_examples(path)
    assert list(back) == rows


def test_examples_round_trip_target(tmp_path) -> None:
    from hatescan.corpus import load_examples, save_examples

    rows = [TargetExample("some post", "Jewish", "tap"),
            TargetExample("other post", "Islam", "tap", augmented=True)]
    path = str(tmp_path / "rows.jsonl")
    save_examples(rows, path)
    back = load_examples(path)
    assert list(back) == rows


def test_examples_mixed_kinds_rejected(tmp_path) -> None:
    from hatescan.corpus import load_examples

    path = tmp_path / "rows.jsonl"
    path.write_text(
        '{"text": "a", "label": "hate", "origin": "x", "augmented": false}\n'
        '{"text": "b", "target": "Islam", "origin": "x", "augmented": false}\n'
    )
    with pytest.raises(DataError, match="mixes label and target"):
        load_examples(str(path))


def test_examples_row_without_kind_reports_row_number(tmp_path) -> None:
    from hatescan.corpus import load_examples

    path = tmp_path / "rows.jsonl"
    path.write_text('{"text": "a", "origin": "x"}\n')
    with pytest.raises(DataError, match="row 1"):
        load_examples(str(path))


@pytest.mark.parametrize("suffix, value, want", [
    (".jsonl", True, True), (".jsonl", False, False), (".jsonl", None, False),
    (".jsonl", "maybe", None), (".jsonl", 0, None),
    (".csv", "true", True), (".csv", "False", False), (".csv", "FALSE", False),
    (".csv", None, False), (".csv", "", False), (".csv", "0", None),
    (".csv", "yes", None),
])
def test_examples_read_augmented_as_true_or_false(suffix, value, want, tmp_path) -> None:
    """A value of None means a row without the field (in CSV, an empty
    cell, as in every filler row); a want of None, a row error."""
    from hatescan.corpus import load_examples

    row = {"text": "a post", "label": "hate", "origin": "s"}
    if value is not None:
        row["augmented"] = value
    rows = [row] + [{"text": "filler", "label": "hate", "origin": "s"}] * 9
    path = tmp_path / f"rows{suffix}"
    if suffix == ".csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerows(rows)
        first_row = 2
    else:
        _write_jsonl(path, rows)
        first_row = 1
    back = load_examples(str(path))
    if want is None:
        assert len(back) == 9
        assert back.errors == [RowError(first_row, f"augmented is not true or false: {value!r}")]
    else:
        assert back.errors == [] and back[0].augmented is want
        assert not any(e.augmented for e in back[1:])


# ------------------------------------------------------ shared row policy

# Every loader: a good JSON-lines record, and a good CSV row where the record
# fits flat columns (HateXplain's annotation list and ToxiGen's agreement
# flag do not).
LOADERS = {
    "parler": (load_parler,
               {"id": "p", "text": "a post", "label_mean": 2.0},
               {"id": "p", "text": "a post", "label_mean": "2.0"}),
    "hatexplain": (load_hatexplain,
                   {"text": "a post", "annotations": ["Jewish", "Jewish", "Other"]},
                   None),
    "dialoconan": (load_dialoconan,
                   {"speaker": "hater", "target": "JEWS", "text": "a post"},
                   {"speaker": "hater", "target": "JEWS", "text": "a post"}),
    "toxigen": (lambda p: load_toxigen(p, "small"),
                {"text": "a post", "target_group": "black", "toxicity": 4.5,
                 "annotators_agree": True},
                None),
    "tap": (lambda p: load_tap(p, fold_politician=True),
            {"text": "a post", "target": "Jewish"},
            {"text": "a post", "target": "Jewish"}),
    "examples": (load_examples,
                 {"text": "a post", "label": "hate", "origin": "s", "augmented": False},
                 {"text": "a post", "label": "hate", "origin": "s"}),
}
CSV_LOADERS = [name for name, (_, _, csv_row) in LOADERS.items() if csv_row]


def _write_jsonl(path, lines) -> str:
    """Write raw lines; dicts are dumped as JSON, strings go in as they are."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write((json.dumps(line) if isinstance(line, dict) else line) + "\n")
    return str(path)


@pytest.mark.parametrize("name", list(LOADERS))
def test_loaders_report_bad_lines_with_their_row_numbers(name, tmp_path) -> None:
    load, good, _ = LOADERS[name]
    lines = [good, "", good, "not json", good, good, good, "[1, 2]"] + [good] * 16
    rows = load(_write_jsonl(tmp_path / "rows.jsonl", lines))
    assert len(rows) == 21
    assert rows.errors == [RowError(4, "invalid JSON: Expecting value"),
                           RowError(8, "record is not an object")]
    assert rows.warnings == {} and rows.dropped_no_majority == 0


@pytest.mark.parametrize("name", list(LOADERS))
def test_loaders_abort_when_more_than_a_tenth_of_rows_fail(name, tmp_path) -> None:
    load, good, _ = LOADERS[name]
    at_limit = _write_jsonl(tmp_path / "at_limit.jsonl", [good, good, "[]"] + [good] * 7)
    assert len(load(at_limit).errors) == 1  # 1 of 10 rows is not above a tenth
    over = _write_jsonl(tmp_path / "over.jsonl", [good, good, "[]"] + [good] * 6)
    with pytest.raises(DataError) as info:
        load(over)
    assert str(info.value) == (
        f"{over}: 1 of 9 rows failed to parse (first: row 3: record is not an object)")


@pytest.mark.parametrize("name", list(LOADERS))
@pytest.mark.parametrize("content", ["", "\n  \n"])
def test_loaders_warn_on_an_empty_file(name, content, tmp_path) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text(content, encoding="utf-8")
    rows = LOADERS[name][0](str(empty))
    assert list(rows) == [] and rows.errors == []
    assert rows.warnings["empty_file"] == 1


@pytest.mark.parametrize("name", list(LOADERS))
@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_loaders_turn_missing_and_undecodable_files_into_data_errors(
        name, suffix, tmp_path) -> None:
    load, good, _ = LOADERS[name]
    with pytest.raises(DataError, match="no such file"):
        load(str(tmp_path / f"absent{suffix}"))
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(b"text\n" + json.dumps(good).encode() + b"\n\xff\xfe\n")
    with pytest.raises(DataError, match="not valid UTF-8"):
        load(str(bad))


@pytest.mark.parametrize("name", CSV_LOADERS)
def test_csv_row_numbers_count_the_header_as_row_one(name, tmp_path) -> None:
    load, _, good = LOADERS[name]
    bad = dict(good, text="  ")
    rows_in = [good, good, good, bad] + [good] * 8
    target = tmp_path / "rows.csv"
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(good))
        writer.writeheader()
        writer.writerows(rows_in)
    rows = load(str(target))
    assert len(rows) == 11
    assert rows.errors == [RowError(5, "missing or empty text")]


def test_load_toxigen_rejects_a_bad_variant_before_opening_the_file(tmp_path) -> None:
    with pytest.raises(ValueError, match="variant"):
        load_toxigen(str(tmp_path / "absent.jsonl"), "medium")


def test_examples_mixed_kinds_are_rejected_before_the_error_rate(tmp_path) -> None:
    label = LOADERS["examples"][1]
    target = {"text": "b", "target": "Islam", "origin": "x"}
    mixed = _write_jsonl(tmp_path / "rows.jsonl", [label, "[]", "[]", target])
    with pytest.raises(DataError) as info:
        load_examples(mixed)
    assert str(info.value) == f"{mixed}: mixes label and target rows"
