"""Two-stage orchestration: detect hate, then classify its target.

A corpus streams through the detector; only posts flagged as hateful reach
the target model, optionally with topic words appended first. Counts
aggregate into a TargetDistribution that reports both the hate rate and the
per-target makeup of the hateful slice, and can be rendered as JSON, CSV or
a monospace chart.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

from .corpus import HATE, NORMAL, TARGET_CLASSES
from .errors import DataError
from .model import TrainedClassifier
from .model import load as load_model
from .normalize import NormalizerConfig, is_english, normalize

logger = logging.getLogger(__name__)

__all__ = [
    "PipelineConfig",
    "Pipeline",
    "Classification",
    "TargetDistribution",
    "load_pipeline",
    "classify_post",
    "run_corpus",
    "render_json",
    "render_csv",
    "render_chart",
    "RENDERERS",
    "distribution_from_dict",
    "report",
]

_PROGRESS_EVERY = 10_000


@dataclass(frozen=True)
class PipelineConfig:
    detector_path: str
    target_model_path: str
    topic_model_path: str | None = None
    threshold_tag: str = ""
    batch_size: int = 256

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass(frozen=True)
class Pipeline:
    """Loaded models ready to classify; build one with load_pipeline."""

    detector: TrainedClassifier
    target_model: TrainedClassifier
    topic_model: object = None
    threshold_tag: str = ""
    batch_size: int = 256
    normalizer_config: NormalizerConfig | None = None


@dataclass(frozen=True)
class Classification:
    label: str  # "hate" or "normal"
    target: str | None = None


@dataclass(frozen=True)
class TargetDistribution:
    total_posts: int
    hateful_posts: int
    normal_posts: int
    excluded_posts: int
    failed_posts: int
    per_target: dict
    detector_tag: str = ""

    def __post_init__(self):
        parts = (self.hateful_posts + self.normal_posts
                 + self.excluded_posts + self.failed_posts)
        if parts != self.total_posts:
            raise ValueError(
                f"post counts do not add up: {parts} != {self.total_posts}")
        if sum(self.per_target.values()) != self.hateful_posts:
            raise ValueError("per-target counts must sum to the hateful count")
        if any(v < 0 for v in self.per_target.values()):
            raise ValueError("negative target count")

    @property
    def fractions(self) -> dict:
        if self.hateful_posts == 0:
            return {t: 0.0 for t in self.per_target}
        return {t: c / self.hateful_posts for t, c in self.per_target.items()}


def load_pipeline(config: PipelineConfig) -> Pipeline:
    detector = load_model(config.detector_path)
    target_model = load_model(config.target_model_path)
    topic_model = None
    if config.topic_model_path is not None:
        from .topics import load_topics

        topic_model = load_topics(config.topic_model_path)
    return Pipeline(
        detector=detector,
        target_model=target_model,
        topic_model=topic_model,
        threshold_tag=config.threshold_tag,
        batch_size=config.batch_size,
    )


def classify_post(text: str, pipeline: Pipeline) -> Classification:
    """Stage one decides hate or normal; stage two names the target.

    Normal posts never reach the target model. Posts the target model
    cannot place with a minority group come back as Other by that model's
    own training contract.
    """
    return _classify_timed(text, pipeline)[0]


def _classify_timed(text: str, pipeline: Pipeline):
    """classify_post, plus the seconds spent in the detector and the target model."""
    normalized = str(normalize(text, pipeline.normalizer_config))
    started = time.perf_counter()
    label = pipeline.detector.predict(normalized)[0]
    detect_elapsed = time.perf_counter() - started
    if label != HATE:
        return Classification(label=NORMAL), detect_elapsed, 0.0
    staged = normalized
    if pipeline.topic_model is not None:
        from .topics import assign_topic, concat_topic

        topic = assign_topic(pipeline.topic_model, normalized)
        staged = concat_topic(normalized, pipeline.topic_model, topic)
    started = time.perf_counter()
    target = pipeline.target_model.predict(staged)[0]
    target_elapsed = time.perf_counter() - started
    return Classification(label=HATE, target=target), detect_elapsed, target_elapsed


def _batches(iterable, size: int):
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def run_corpus(posts, pipeline: Pipeline, workers: int = 1) -> TargetDistribution:
    """Stream a corpus through both stages with bounded memory.

    Non-English posts are excluded up front; per-post failures are counted,
    never fatal. Aggregation is pure counting, so the result does not depend
    on batch size or worker scheduling.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    counts = Counter()
    per_target = Counter({t: 0 for t in TARGET_CLASSES})
    detect_time = 0.0
    target_time = 0.0

    def handle(text: str):
        try:
            if not is_english(text, pipeline.normalizer_config):
                return ("excluded", None, 0.0, 0.0)
            outcome, t_detect, t_target = _classify_timed(text, pipeline)
            return (outcome.label, outcome.target, t_detect, t_target)
        except Exception as exc:  # noqa: BLE001 - per-post resilience
            logger.debug("post failed: %s", exc)
            return ("failed", None, 0.0, 0.0)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for batch in _batches(posts, pipeline.batch_size):
            texts = [getattr(p, "text", p) for p in batch]
            results = pool.map(handle, texts) if pool else map(handle, texts)
            for kind, target, t_detect, t_target in results:
                counts[kind] += 1
                detect_time += t_detect
                target_time += t_target
                if kind == HATE:
                    per_target[target] += 1
            counts["total"] += len(batch)
            if counts["total"] % _PROGRESS_EVERY < pipeline.batch_size:
                logger.info("processed %d posts (%d hateful)",
                            counts["total"], counts[HATE])
    finally:
        if pool is not None:
            pool.shutdown()

    logger.info("detect stage %.2fs, target stage %.2fs over %d posts",
                detect_time, target_time, counts["total"])
    return TargetDistribution(
        total_posts=counts["total"],
        hateful_posts=counts[HATE],
        normal_posts=counts[NORMAL],
        excluded_posts=counts["excluded"],
        failed_posts=counts["failed"],
        per_target=dict(per_target),
        detector_tag=pipeline.threshold_tag,
    )


def _distribution_to_dict(dist: TargetDistribution) -> dict:
    return {
        "total_posts": dist.total_posts,
        "hateful_posts": dist.hateful_posts,
        "normal_posts": dist.normal_posts,
        "excluded_posts": dist.excluded_posts,
        "failed_posts": dist.failed_posts,
        "per_target": dict(dist.per_target),
        "fractions": dist.fractions,
        "detector_tag": dist.detector_tag,
    }


def distribution_from_dict(doc: dict) -> TargetDistribution:
    try:
        return TargetDistribution(
            total_posts=int(doc["total_posts"]),
            hateful_posts=int(doc["hateful_posts"]),
            normal_posts=int(doc["normal_posts"]),
            excluded_posts=int(doc["excluded_posts"]),
            failed_posts=int(doc["failed_posts"]),
            per_target={str(k): int(v) for k, v in doc["per_target"].items()},
            detector_tag=str(doc.get("detector_tag", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"corrupt distribution document: {exc}") from exc


def render_json(dist: TargetDistribution) -> str:
    return json.dumps(_distribution_to_dict(dist), indent=2, sort_keys=True)


def _targets_by_count(dist: TargetDistribution):
    order = {t: i for i, t in enumerate(TARGET_CLASSES)}
    return sorted(dist.per_target,
                  key=lambda t: (-dist.per_target[t], order.get(t, len(order))))


def render_csv(dist: TargetDistribution) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["target", "count", "fraction"])
    fractions = dist.fractions
    for target in _targets_by_count(dist):
        writer.writerow([target, dist.per_target[target],
                         f"{fractions[target]:.6f}"])
    return buffer.getvalue()


def render_chart(dist: TargetDistribution, width: int = 40) -> str:
    lines = [
        f"posts: {dist.total_posts} total, {dist.hateful_posts} hateful, "
        f"{dist.normal_posts} normal, {dist.excluded_posts} excluded, "
        f"{dist.failed_posts} failed"
    ]
    if dist.detector_tag:
        lines.append(f"detector: {dist.detector_tag}")
    if dist.hateful_posts == 0:
        lines.append("no hateful posts")
        return "\n".join(lines) + "\n"
    fractions = dist.fractions
    peak = max(dist.per_target.values())
    name_width = max(len(t) for t in dist.per_target)
    for target in _targets_by_count(dist):
        count = dist.per_target[target]
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"{target:<{name_width}}  {bar} {count} "
                     f"({100 * fractions[target]:.1f}%)")
    return "\n".join(lines) + "\n"


# report format name -> renderer, for report() and `hatescan report --format`
RENDERERS = {"json": render_json, "csv": render_csv, "text-chart": render_chart}


def report(dist: TargetDistribution, fmt: str, path: str) -> str:
    """Write the distribution in the requested format; returns the path."""
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; choose from {sorted(RENDERERS)}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(renderer(dist))
    return path
