"""Confusion matrices, classification metrics and report rendering.

Metrics come in two modes. With a positive class given, precision, recall and
F1 describe that class alone, which is how hate detection results read. In
multiclass mode they are macro averages of one-vs-rest values, so minority
classes count as much as common ones. Division by zero never produces NaN:
the affected metric is 0 and the report carries a degenerate flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import _example_label, predict_batch

__all__ = [
    "ConfusionMatrix",
    "EvaluationReport",
    "confusion",
    "metrics",
    "evaluate",
    "report_to_dict",
    "render_text_table",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # rows = gold, cols = predicted
    class_list: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts)
        k = len(self.class_list)
        if counts.shape != (k, k):
            raise ValueError(f"counts must be {k}x{k}")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def index(self, label) -> int:
        return self.class_list.index(label)


@dataclass(frozen=True)
class EvaluationReport:
    accuracy: float
    recall: float
    precision: float
    f1: float
    per_class: dict
    n_examples: int
    dataset: str = ""
    model: str = ""
    positive: str | None = None
    back_translation: bool = False
    topic_in_input: bool = False
    degenerate: bool = False

    def __post_init__(self):
        for name in ("accuracy", "recall", "precision", "f1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")


def confusion(preds, golds, classes) -> ConfusionMatrix:
    """Count (gold, predicted) pairs into a K x K matrix."""
    preds = list(preds)
    golds = list(golds)
    if not preds or len(preds) != len(golds):
        raise DataError("need equally many predictions and golds, at least one pair")
    class_list = tuple(classes)
    index = {c: i for i, c in enumerate(class_list)}
    counts = np.zeros((len(class_list), len(class_list)), dtype=np.int64)
    for pred, gold in zip(preds, golds):
        if gold not in index:
            raise DataError(f"unknown gold label: {gold!r}")
        if pred not in index:
            raise DataError(f"unknown predicted label: {pred!r}")
        counts[index[gold], index[pred]] += 1
    return ConfusionMatrix(counts=counts, class_list=class_list)


def _safe_div(num: float, den: float) -> tuple:
    """Return (value, was_degenerate); 0/0 style cases give (0.0, True)."""
    if den == 0:
        return 0.0, True
    return num / den, False


def metrics(cm: ConfusionMatrix, positive=None, **stamps) -> EvaluationReport:
    """Compute the report for one confusion matrix.

    ``positive`` selects binary mode with that class's precision/recall/F1 at
    the top level; otherwise the top level carries macro averages. Accuracy is
    trace/total in both modes. Keyword stamps (dataset, model, flags) are
    passed through to the report.
    """
    counts = np.asarray(cm.counts, dtype=np.float64)
    total = counts.sum()
    degenerate = False

    per_class: dict = {}
    for i, label in enumerate(cm.class_list):
        tp = counts[i, i]
        fp = counts[:, i].sum() - tp
        fn = counts[i, :].sum() - tp
        prec, d1 = _safe_div(tp, tp + fp)
        rec, d2 = _safe_div(tp, tp + fn)
        f1, d3 = _safe_div(2 * prec * rec, prec + rec)
        degenerate = degenerate or d1 or d2 or d3
        per_class[label] = {
            "precision": prec,
            "recall": rec,
            "f1": f1,
            "support": int(tp + fn),
        }

    accuracy, d = _safe_div(float(np.trace(counts)), float(total))
    degenerate = degenerate or d

    if positive is not None:
        if positive not in cm.class_list:
            raise DataError(f"positive class {positive!r} not in class list")
        stats = per_class[positive]
        precision, recall, f1 = stats["precision"], stats["recall"], stats["f1"]
    else:
        k = len(cm.class_list)
        precision = sum(v["precision"] for v in per_class.values()) / k
        recall = sum(v["recall"] for v in per_class.values()) / k
        f1 = sum(v["f1"] for v in per_class.values()) / k

    return EvaluationReport(
        accuracy=accuracy,
        recall=recall,
        precision=precision,
        f1=f1,
        per_class=per_class,
        n_examples=int(total),
        positive=positive,
        degenerate=degenerate,
        **stamps,
    )


def evaluate(
    model,
    dataset,
    topic_model=None,
    positive=None,
    dataset_tag: str = "",
    model_tag: str = "",
    back_translation: bool = False,
) -> EvaluationReport:
    """Predict every example, in one ``predict_batch`` call, and report metrics.

    When a topic model is supplied, each text gets its topic words appended
    before prediction, matching a training run that used topic concatenation.
    Augmented examples are refused: evaluation on augmented data would score
    the augmenter, not the model.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("cannot evaluate on an empty dataset")
    if any(getattr(e, "augmented", False) for e in dataset):
        raise DataError("evaluation datasets must not contain augmented examples")

    if topic_model is not None:
        from .topics import assign_topics, concat_topic

        assigned = assign_topics(topic_model, [e.text for e in dataset])
        texts = [concat_topic(e.text, topic_model, lab)
                 for e, lab in zip(dataset, assigned)]
    else:
        texts = [e.text for e in dataset]

    preds = [label for label, _ in predict_batch(model, texts)]
    golds = [_example_label(e) for e in dataset]
    classes = tuple(model.class_list)
    cm = confusion(preds, golds, classes)
    return metrics(
        cm,
        positive=positive,
        dataset=dataset_tag,
        model=model_tag,
        back_translation=back_translation,
        topic_in_input=topic_model is not None,
    )


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "dataset": report.dataset,
        "model": report.model,
        "n_examples": report.n_examples,
        "positive": report.positive,
        "back_translation": report.back_translation,
        "topic_in_input": report.topic_in_input,
        "degenerate": report.degenerate,
        "accuracy": report.accuracy,
        "recall": report.recall,
        "precision": report.precision,
        "f1": report.f1,
        "per_class": report.per_class,
    }


def render_text_table(reports) -> str:
    """Aligned table of reports, metrics as whole percents, flags as checks."""
    header = ["Model", "Back Translation", "Topic in input",
              "Accuracy", "Recall", "Precision", "F1"]
    rows = [header]
    for r in reports:
        rows.append([
            r.model or r.dataset or "-",
            "✓" if r.back_translation else "",
            "✓" if r.topic_in_input else "",
            str(round(100 * r.accuracy)),
            str(round(100 * r.recall)),
            str(round(100 * r.precision)),
            str(round(100 * r.f1)),
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for n, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
