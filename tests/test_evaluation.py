"""Tests for confusion matrices, metrics and report rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatescan.corpus import LabeledExample
from hatescan.errors import DataError
from hatescan.evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    confusion,
    evaluate,
    metrics,
    render_text_table,
    report_to_dict,
)
from hatescan.model import FeatureConfig, Hyperparams, train

from helpers import PredictOnly


def binary_cm(tp: int, fn: int, fp: int, tn: int) -> ConfusionMatrix:
    return ConfusionMatrix(
        counts=np.array([[tp, fn], [fp, tn]], dtype=np.int64),
        class_list=("hate", "normal"),
    )


def oracle_binary(tp: int, fn: int, fp: int, tn: int) -> dict:
    """Direct-formula reference, written independently of the module."""
    total = tp + fn + fp + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / total if total else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "accuracy": accuracy}


class OracleModel:
    """Predicts the gold label planted in the text."""

    def __init__(self, classes):
        self.class_list = tuple(classes)

    def predict(self, text: str):
        for c in self.class_list:
            if c in text:
                probs = np.full(len(self.class_list), 0.0)
                probs[self.class_list.index(c)] = 1.0
                return c, probs
        return self.class_list[0], np.ones(len(self.class_list)) / len(self.class_list)


# ---------------------------------------------------------------- confusion


def test_confusion_diagonal_when_perfect() -> None:
    cm = confusion(["a", "b", "a"], ["a", "b", "a"], ("a", "b"))
    assert np.array_equal(cm.counts, [[2, 0], [0, 1]])


def test_confusion_hand_count() -> None:
    cm = confusion(["hate", "hate", "normal"], ["hate", "normal", "normal"],
                   ("hate", "normal"))
    assert cm.counts[0, 0] == 1  # TP
    assert cm.counts[0, 1] == 0  # FN
    assert cm.counts[1, 0] == 1  # FP
    assert cm.counts[1, 1] == 1  # TN


def test_confusion_empty_input_rejected() -> None:
    with pytest.raises(DataError):
        confusion([], [], ("a", "b"))


def test_confusion_length_mismatch_rejected() -> None:
    with pytest.raises(DataError):
        confusion(["a"], ["a", "b"], ("a", "b"))


def test_confusion_unknown_label_rejected() -> None:
    with pytest.raises(DataError):
        confusion(["c"], ["a"], ("a", "b"))
    with pytest.raises(DataError):
        confusion(["a"], ["c"], ("a", "b"))


def test_confusion_total_counts_examples() -> None:
    cm = confusion(["a"] * 7, ["b"] * 7, ("a", "b"))
    assert cm.total == 7


# ---------------------------------------------------------------- metrics


def test_metrics_hand_example() -> None:
    report = metrics(binary_cm(tp=3, fn=2, fp=1, tn=4), positive="hate")
    assert report.precision == pytest.approx(0.75, abs=1e-12)
    assert report.recall == pytest.approx(0.6, abs=1e-12)
    assert report.f1 == pytest.approx(2 / 3, abs=1e-4)
    assert report.accuracy == pytest.approx(0.7, abs=1e-12)


def test_metrics_perfect_classifier() -> None:
    report = metrics(binary_cm(tp=5, fn=0, fp=0, tn=5), positive="hate")
    assert (report.accuracy, report.recall, report.precision, report.f1) == (1, 1, 1, 1)
    assert report.degenerate is False


def test_metrics_one_class_predictor() -> None:
    # all predicted hate, gold balanced
    report = metrics(binary_cm(tp=5, fn=0, fp=5, tn=0), positive="hate")
    assert report.accuracy == pytest.approx(0.5)
    assert report.recall == pytest.approx(1.0)
    assert report.precision == pytest.approx(0.5)
    assert report.degenerate is True  # the normal class has no predictions


def test_metrics_degenerate_zero_cases() -> None:
    report = metrics(binary_cm(tp=0, fn=0, fp=0, tn=8), positive="hate")
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    assert report.degenerate is True


def test_metrics_oracle_sample() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        tp, fn, fp, tn = (int(x) for x in rng.integers(0, 6, size=4))
        if tp + fn + fp + tn == 0:
            continue
        report = metrics(binary_cm(tp, fn, fp, tn), positive="hate")
        want = oracle_binary(tp, fn, fp, tn)
        for key, value in want.items():
            assert abs(getattr(report, key) - value) < 1e-12


def test_metrics_macro_is_mean_of_per_class() -> None:
    cm = confusion(
        ["a", "a", "b", "c", "c", "b"],
        ["a", "b", "b", "c", "a", "b"],
        ("a", "b", "c"),
    )
    report = metrics(cm)
    for name in ("precision", "recall", "f1"):
        per = [report.per_class[c][name] for c in cm.class_list]
        assert getattr(report, name) == pytest.approx(sum(per) / len(per), abs=1e-12)
        assert min(per) <= getattr(report, name) <= max(per)


def test_metrics_accuracy_is_trace_over_total_multiclass() -> None:
    cm = confusion(["a", "b", "c", "a"], ["a", "b", "a", "c"], ("a", "b", "c"))
    report = metrics(cm)
    assert report.accuracy == pytest.approx(np.trace(cm.counts) / cm.total, abs=1e-12)


def test_metrics_unknown_positive_rejected() -> None:
    with pytest.raises(DataError):
        metrics(binary_cm(1, 1, 1, 1), positive="nope")


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(8))))
def test_metrics_permutation_invariant(order: list) -> None:
    preds = ["hate", "normal", "hate", "hate", "normal", "normal", "hate", "normal"]
    golds = ["hate", "hate", "normal", "hate", "normal", "hate", "normal", "normal"]
    base = metrics(confusion(preds, golds, ("hate", "normal")), positive="hate")
    shuffled = metrics(
        confusion([preds[i] for i in order], [golds[i] for i in order],
                  ("hate", "normal")),
        positive="hate",
    )
    assert base == shuffled


def test_report_bounds_validated() -> None:
    with pytest.raises(ValueError):
        EvaluationReport(accuracy=1.2, recall=0, precision=0, f1=0,
                         per_class={}, n_examples=1)


# ---------------------------------------------------------------- evaluate


def _dataset():
    return [
        LabeledExample(text=f"hate sample {i}", label="hate", origin="t") for i in range(4)
    ] + [
        LabeledExample(text=f"normal sample {i}", label="normal", origin="t") for i in range(6)
    ]


def test_evaluate_oracle_model_all_ones() -> None:
    report = evaluate(OracleModel(("hate", "normal")), _dataset(), positive="hate")
    assert (report.accuracy, report.recall, report.precision, report.f1) == (1, 1, 1, 1)


def test_evaluate_stamps_flags_and_tags() -> None:
    report = evaluate(
        OracleModel(("hate", "normal")),
        _dataset(),
        positive="hate",
        dataset_tag="dev",
        model_tag="baseline",
        back_translation=True,
    )
    assert report.dataset == "dev"
    assert report.model == "baseline"
    assert report.back_translation is True
    assert report.topic_in_input is False


def test_evaluate_rejects_empty_and_augmented() -> None:
    with pytest.raises(DataError):
        evaluate(OracleModel(("hate", "normal")), [], positive="hate")
    augmented = [LabeledExample(text="hate x", label="hate", origin="t", augmented=True)]
    with pytest.raises(DataError):
        evaluate(OracleModel(("hate", "normal")), _dataset() + augmented)


def test_evaluate_batched_matches_the_per_text_contract() -> None:
    data = _dataset() + [
        LabeledExample(text=f"sample {w}", label=lab, origin="t")
        for w, lab in (("hate", "normal"), ("normal", "hate"), ("", "hate"))
    ]
    model = train(_dataset(), [], Hyperparams(max_epochs=2, seed=0),
                  FeatureConfig(hash_dim=2**10))
    backend = PredictOnly(model)
    for positive in ("hate", None):
        assert evaluate(model, data, positive=positive) == evaluate(
            backend, data, positive=positive)
    assert backend.texts == [e.text for e in data] * 2


# ---------------------------------------------------------------- rendering


def test_report_to_dict_round_trips_fields() -> None:
    report = metrics(binary_cm(3, 2, 1, 4), positive="hate",
                     dataset="dev", model="m1", back_translation=True)
    data = report_to_dict(report)
    assert data["dataset"] == "dev"
    assert data["back_translation"] is True
    assert data["accuracy"] == report.accuracy
    assert data["per_class"]["hate"]["support"] == 5


def test_render_text_table_layout() -> None:
    r1 = metrics(binary_cm(490, 155, 341, 1038), positive="hate", model="weighted")
    r2 = metrics(binary_cm(3, 2, 1, 4), positive="hate", model="tiny",
                 back_translation=True)
    text = render_text_table([r1, r2])
    lines = text.splitlines()
    assert lines[0].split() == [
        "Model", "Back", "Translation", "Topic", "in", "input",
        "Accuracy", "Recall", "Precision", "F1",
    ]
    row1 = lines[2]
    assert row1.startswith("weighted")
    assert row1.split()[-4:] == ["75", "76", "59", "66"]
    assert "✓" in lines[3]


def test_render_flags_checkmark_placement() -> None:
    r = metrics(binary_cm(1, 0, 0, 1), positive="hate", model="m",
                topic_in_input=True)
    text = render_text_table([r])
    data_line = text.splitlines()[2]
    cells = data_line.split("  ")
    # topic column checked, back-translation column blank
    assert "✓" in data_line
    assert r.back_translation is False


def test_evaluate_with_topic_model_feeds_concatenated_texts() -> None:
    from hatescan.topics import TOPIC_MARKER, fit_topics

    corpus = ["mosque veil imam quran", "imam veil mosque sharia",
              "quran mosque sharia veil", "veil imam quran mosque"]
    topic_model = fit_topics(corpus, grid=None)

    seen: list[str] = []

    class Recorder:
        class_list = ("hate", "normal")

        def predict(self, text):
            seen.append(text)
            return "hate", {"hate": 1.0, "normal": 0.0}

    dataset = [LabeledExample(text=t, label="hate", origin="t") for t in corpus]
    report = evaluate(Recorder(), dataset, topic_model=topic_model,
                      positive="hate")
    assert report.topic_in_input is True
    assert len(seen) == len(corpus)
    for original, fed in zip(corpus, seen):
        assert fed.startswith(original)
        if fed != original:  # outlier assignments pass through unchanged
            assert TOPIC_MARKER in fed
