"""Dataset ingestion, label aggregation, binarization and splitting.

Six loaders (Parler, HateXplain, DIALOCONAN, ToxiGen, TAP and the unified
examples file) read JSON lines or CSV through one reader and share one row
loop: malformed rows are collected with their row numbers instead of
aborting, unless more than 10% of rows fail, which points at a wrong file
rather than a few bad records. Loaders are pure functions of the file bytes;
splits are pure functions of (data, config).
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import random
from collections import Counter
from dataclasses import dataclass

from .errors import DataError
from .normalize import NormalizerConfig, normalize

logger = logging.getLogger(__name__)

__all__ = [
    "TARGET_CLASSES",
    "TARGET_CLASSES_RAW",
    "HATE",
    "NORMAL",
    "Post",
    "LabeledExample",
    "TargetExample",
    "SplitConfig",
    "RowError",
    "LoadedRows",
    "load_parler",
    "binarize",
    "load_hatexplain",
    "load_dialoconan",
    "load_toxigen",
    "load_tap",
    "split",
]

# the 5-class model space; Politician exists only in raw TAP records
TARGET_CLASSES = ("African", "Islam", "Jewish", "LGBT", "Other")
TARGET_CLASSES_RAW = TARGET_CLASSES + ("Politician",)

HATE = "hate"
NORMAL = "normal"

# free-form group names seen across corpora, folded onto the model space
_GROUP_MAP = {
    "african": "African",
    "african american": "African",
    "black": "African",
    "poc": "African",
    "people of color": "African",
    "islam": "Islam",
    "muslim": "Islam",
    "muslims": "Islam",
    "jewish": "Jewish",
    "jew": "Jewish",
    "jews": "Jewish",
    "homosexual": "LGBT",
    "gay": "LGBT",
    "lgbt": "LGBT",
    "lgbt+": "LGBT",
    "lgbtq": "LGBT",
    "lgbtq+": "LGBT",
}

_TAP_CLASSES = {
    "jewish": "Jewish",
    "islam": "Islam",
    "homosexual": "LGBT",
    "african": "African",
    "politician": "Politician",
    "other": "Other",
}

_KNOWN_DIALOGUE_TARGETS = {
    "jews": "Jewish",
    "lgbt+": "LGBT",
    "muslims": "Islam",
    "poc": "African",
    "people of color": "African",
    "migrants": "Other",
    "women": "Other",
}


@dataclass(frozen=True)
class Post:
    id: str
    text: str
    label_mean: float | None = None
    disputable: bool | None = None
    user_id: str | None = None


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: str
    origin: str
    augmented: bool = False


@dataclass(frozen=True)
class TargetExample:
    text: str
    target: str
    origin: str
    augmented: bool = False


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class RowError:
    row: int
    message: str


class LoadedRows(list):
    """A list of parsed examples plus per-file diagnostics."""

    def __init__(self, items=()):
        super().__init__(items)
        self.errors: list[RowError] = []
        self.warnings: Counter = Counter()
        self.dropped_no_majority = 0


class _RowProblem(Exception):
    pass


def _iter_records(path: str):
    """Yield (row_number, record) from a JSON-lines or CSV file.

    A line that is not a JSON object yields a _RowProblem as its record.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    try:
        if path.endswith(".csv"):
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                for rownum, record in enumerate(reader, start=2):  # row 1 is the header
                    yield rownum, {k: v for k, v in record.items() if k is not None}
        else:
            with open(path, encoding="utf-8") as fh:
                for rownum, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        yield rownum, _RowProblem(f"invalid JSON: {exc.msg}")
                        continue
                    if not isinstance(record, dict):
                        yield rownum, _RowProblem("record is not an object")
                        continue
                    yield rownum, record
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from exc


def _peek_keys(path: str) -> set:
    """The keys of a corpus file's first record; none if that row is malformed."""
    _, record = next(_iter_records(path), (None, None))
    return set(record) if isinstance(record, dict) else set()


def _load(path: str, parse, check=None) -> LoadedRows:
    """The row loop every loader shares.

    ``parse(rownum, record, result)`` returns the row's example, or None to
    skip it; a _RowProblem, raised by parse or yielded by the reader, becomes
    a RowError with the row number. ``check(result)`` may reject the whole
    file before the error rate is judged.
    """
    result = LoadedRows()
    total = 0
    for rownum, record in _iter_records(path):
        total += 1
        try:
            if isinstance(record, _RowProblem):
                raise record
            item = parse(rownum, record, result)
        except _RowProblem as exc:
            result.errors.append(RowError(rownum, str(exc)))
        else:
            if item is not None:
                result.append(item)
    if check is not None:
        check(result)
    if total == 0:
        result.warnings["empty_file"] += 1
    elif len(result.errors) * 10 > total:
        raise DataError(
            f"{path}: {len(result.errors)} of {total} rows failed to parse "
            f"(first: row {result.errors[0].row}: {result.errors[0].message})"
        )
    return result


def _require_text(record: dict) -> str:
    text = record.get("text")
    if not isinstance(text, str) or not text.strip():
        raise _RowProblem("missing or empty text")
    return text


def load_parler(path: str) -> LoadedRows:
    """Load posts with optional 1-5 label means.

    Accepts JSON-lines or CSV (with header). Returns raw, unnormalized posts;
    labeling happens later in ``binarize``.
    """
    def parse(rownum, record, result):
        text = _require_text(record)
        label_mean = record.get("label_mean")
        if label_mean in ("", None):
            label_mean = None
        else:
            try:
                label_mean = float(label_mean)
            except (TypeError, ValueError):
                raise _RowProblem(f"label_mean not numeric: {label_mean!r}")
            if not 1.0 <= label_mean <= 5.0:
                raise _RowProblem(f"label_mean out of [1, 5]: {label_mean}")
        disputable = record.get("disputable")
        if disputable in ("", None):
            disputable = None
        elif isinstance(disputable, str):
            disputable = disputable.strip().lower() in ("true", "1", "yes")
        else:
            disputable = bool(disputable)
        return Post(
            id=str(record.get("id", rownum)),
            text=text,
            label_mean=label_mean,
            disputable=disputable,
            user_id=record.get("user_id") or None,
        )

    return _load(path, parse)


def binarize(
    post: Post,
    threshold: float,
    config: NormalizerConfig | None = None,
    inclusive: bool = True,
) -> LabeledExample:
    """Turn a labeled post into a binary hate/normal example.

    The comparison is inclusive by default: a label mean equal to the
    threshold counts as hate. The flag exists because the boundary is a
    judgment call; flipping it must be a deliberate, visible act.
    """
    if post.label_mean is None:
        raise DataError("unlabeled post")
    if inclusive:
        hate = post.label_mean >= threshold
    else:
        hate = post.label_mean > threshold
    return LabeledExample(
        text=str(normalize(post.text, config)),
        label=HATE if hate else NORMAL,
        origin="parler",
    )


def _map_group(name: str) -> str:
    return _GROUP_MAP.get(name.strip().lower(), "Other")


def load_hatexplain(path: str) -> LoadedRows:
    """Load 3-annotator target records, resolved by strict majority.

    Each annotation is first mapped onto the 5-class space, then the mapped
    values are voted on. Records whose three mapped annotations are pairwise
    distinct have no defensible label and are dropped (counted separately,
    not treated as errors).
    """
    def parse(rownum, record, result):
        text = _require_text(record)
        annotations = record.get("annotations")
        if not isinstance(annotations, list) or len(annotations) != 3:
            raise _RowProblem("expected exactly 3 annotations")
        mapped = [_map_group(str(a)) for a in annotations]
        target, count = Counter(mapped).most_common(1)[0]
        if count == 1:
            result.dropped_no_majority += 1
            return None
        return TargetExample(text=str(normalize(text)), target=target, origin="hatexplain")

    return _load(path, parse)


def load_dialoconan(path: str) -> LoadedRows:
    """Load dialogue turns; hater turns become target examples.

    The dialogue-level target is mapped onto the 5-class space; targets
    outside the four minorities go to Other, unknown target strings too but
    with a warning counter so a schema drift is visible.
    """
    def parse(rownum, record, result):
        text = _require_text(record)
        speaker = str(record.get("speaker", "")).strip().lower()
        if speaker not in ("hater", "counter"):
            raise _RowProblem(f"unknown speaker role: {record.get('speaker')!r}")
        if speaker != "hater":
            return None
        raw_target = str(record.get("target", "")).strip().lower()
        target = _KNOWN_DIALOGUE_TARGETS.get(raw_target)
        if target is None:
            result.warnings["unknown_target"] += 1
            target = "Other"
        return TargetExample(text=str(normalize(text)), target=target, origin="dialoconan")

    return _load(path, parse)


def load_toxigen(path: str, variant: str) -> LoadedRows:
    """Load machine-generated statements with group tags.

    The small variant carries human toxicity scores and an agreement flag;
    only rows with toxicity >= 4 and full agreement are kept. The large
    variant keeps every row.
    """
    if variant not in ("small", "large"):
        raise ValueError("variant must be 'small' or 'large'")

    def parse(rownum, record, result):
        text = _require_text(record)
        if variant == "small":
            toxicity = record.get("toxicity")
            if toxicity is None:
                raise _RowProblem("missing toxicity score")
            try:
                toxicity = float(toxicity)
            except (TypeError, ValueError):
                raise _RowProblem(f"toxicity not numeric: {toxicity!r}")
            agree = record.get("annotators_agree")
            if not isinstance(agree, bool):
                raise _RowProblem("missing annotators_agree flag")
            if toxicity < 4.0 or not agree:
                return None
        target = _map_group(str(record.get("target_group", "")))
        return TargetExample(text=str(normalize(text)), target=target,
                             origin=f"toxigen_{variant}")

    return _load(path, parse)


def load_tap(path: str, fold_politician: bool) -> LoadedRows:
    """Load six-class annotated posts.

    With fold_politician the Politician class collapses into Other so the
    output fits the 5-class model space; without it the raw six classes
    survive.
    """
    def parse(rownum, record, result):
        text = _require_text(record)
        target = _TAP_CLASSES.get(str(record.get("target", "")).strip().lower())
        if target is None:
            raise _RowProblem(f"unknown class: {record.get('target')!r}")
        if fold_politician and target == "Politician":
            target = "Other"
        return TargetExample(text=str(normalize(text)), target=target, origin="tap")

    return _load(path, parse)


def save_examples(examples, path: str) -> None:
    """Write labeled or target examples as JSON lines.

    Each row carries text, origin, augmented, and either label or target
    depending on the example kind; load_examples reads the format back.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for example in examples:
            row = {"text": example.text, "origin": example.origin,
                   "augmented": example.augmented}
            if hasattr(example, "label"):
                row["label"] = example.label
            else:
                row["target"] = example.target
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def load_examples(path: str) -> LoadedRows:
    """Read a JSON-lines examples file written by save_examples.

    Rows must be homogeneous: all label rows or all target rows. A row
    without ``augmented`` (or, in CSV, with an empty cell) is not augmented;
    any value but true or false is a row error. Texts are taken as already
    normalized; loaders that produce this format normalize on the way in.
    """
    def parse(rownum, record, result):
        text = _require_text(record)
        # JSON true/false, or the text true/false in any case as CSV gives
        # it; an empty CSV cell is a missing field
        augmented = record.get("augmented")
        if isinstance(augmented, str):
            augmented = {"true": True, "false": False, "": None}.get(
                augmented.lower(), augmented)
        if augmented is None:
            augmented = False
        elif not isinstance(augmented, bool):
            raise _RowProblem(f"augmented is not true or false: {augmented!r}")
        origin = str(record.get("origin", ""))
        has_label = "label" in record
        if has_label == ("target" in record):
            raise _RowProblem("row needs exactly one of label or target")
        if has_label:
            return LabeledExample(text=text, label=str(record["label"]),
                                  origin=origin, augmented=augmented)
        return TargetExample(text=text, target=str(record["target"]),
                             origin=origin, augmented=augmented)

    def one_kind(result):
        if len({type(e) for e in result}) > 1:
            raise DataError(f"{path}: mixes label and target rows")

    return _load(path, parse, one_kind)


def _class_key(example) -> str:
    if hasattr(example, "label"):
        return example.label
    if hasattr(example, "target"):
        return example.target
    return ""


def _train_size(n: int, fraction: float) -> int:
    # round half up
    return math.floor(n * fraction + 0.5)


def split(dataset, config: SplitConfig):
    """Seeded, optionally stratified train/test partition.

    Returns (train, test). Deterministic for a fixed seed. Augmented examples
    are never allowed into the test side: they are forced into train and the
    stratified arithmetic runs over the original examples only. Classes with
    fewer than 2 original members cannot be split and go wholly to train.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("cannot split an empty dataset")

    rng = random.Random(config.seed)

    augmented = [e for e in dataset if getattr(e, "augmented", False)]
    original = [e for e in dataset if not getattr(e, "augmented", False)]
    if augmented:
        logger.warning("%d augmented examples forced into the train side", len(augmented))

    train: list = []
    test: list = []
    if config.stratified:
        groups: dict[str, list] = {}
        for example in original:
            groups.setdefault(_class_key(example), []).append(example)
        for key in sorted(groups):
            members = groups[key]
            if len(members) < 2:
                logger.warning("class %r has fewer than 2 examples; placed wholly in train", key)
                train.extend(members)
                continue
            rng.shuffle(members)
            k = _train_size(len(members), config.train_fraction)
            train.extend(members[:k])
            test.extend(members[k:])
    else:
        rng.shuffle(original)
        k = _train_size(len(original), config.train_fraction)
        train.extend(original[:k])
        test.extend(original[k:])

    train.extend(augmented)
    return train, test
