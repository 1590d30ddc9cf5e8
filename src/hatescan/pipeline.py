"""Two-stage orchestration: detect hate, then classify its target.

A corpus is scanned a batch at a time. Each batch goes through one
``normalize_english`` call, which drops the non-English posts and
normalizes the rest with one memo for the batch, so a token repeated across
its posts is filtered and normalized once; the result equals
``is_english`` and ``normalize`` post by post. The English posts are
scored by the detector in one pass, and only the posts flagged as hateful
reach the target model, in a second pass. With a topic model, those posts
get their topics in one assignment call and each has its topic's words
appended first. Counts aggregate into a TargetDistribution (see
``distribution``, re-exported here) that reports both the hate rate and the
per-target makeup of the hateful slice.

Every stage of a batch (normalizing, each model's scoring, topic assignment
and topic words) goes through ``_each``: one call for the whole batch where
the stage has one, and otherwise, or if that call raises, one call per post,
so a post that raises fails alone and is counted as failed. It is the only
place where the scan catches an error.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .corpus import HATE, NORMAL, TARGET_CLASSES
from .distribution import (
    RENDERERS,
    TargetDistribution,
    distribution_from_dict,
    render_chart,
    render_csv,
    render_json,
    report,
)
from .model import TrainedClassifier, predict_batch
from .model import load as load_model
from .normalize import normalize, normalize_english

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


@dataclass(frozen=True)
class Classification:
    label: str  # "hate" or "normal"
    target: str | None = None


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
    own training contract. An exception raised by either stage propagates.
    """
    normalized = str(normalize(text))
    result = _classify_batch([normalized], pipeline)[0][0]
    if isinstance(result, Exception):
        raise result
    return result


def _each(batch_fn, one_fn, items: list) -> list:
    """``batch_fn(items)``; if that raises, or there is no ``batch_fn``,
    ``one_fn(item)`` for each item, or the exception that item raised, so
    one post fails alone. Every stage is pure, so a retry is harmless."""
    if batch_fn is not None and items:
        try:
            return batch_fn(items)
        except Exception as exc:  # noqa: BLE001 - retried item by item
            logger.debug("batch call failed, retrying item by item: %s", exc)
    results = []
    for item in items:
        try:
            results.append(one_fn(item))
        except Exception as exc:  # noqa: BLE001 - per-post resilience
            logger.debug("post failed: %s", exc)
            results.append(exc)
    return results


def _labels(model, texts: list) -> list:
    """The label ``model`` predicts for each text, or the exception it raised.

    The bundled classifier scores all the texts in one ``predict_batch``
    call; any other backend (``class_list`` plus ``predict(text)``) is asked
    text by text, each text once.
    """
    batch = ((lambda ts: [label for label, _ in predict_batch(model, ts)])
             if isinstance(model, TrainedClassifier) else None)
    return _each(batch, lambda t: model.predict(t)[0], texts)


def _staged(texts: list, topic_model) -> list:
    """The target model's input for each text: the text with its topic's
    words appended, or the exception that stopped it.

    Topics are assigned to all the texts in one ``assign_topics`` call, and
    each text then gets its topic's words on its own.
    """
    if topic_model is None:
        return list(texts)
    from .topics import assign_topic, assign_topics, concat_topic

    def stage(pair):
        text, topic = pair
        return topic if isinstance(topic, Exception) else concat_topic(text, topic_model, topic)

    topics = _each(partial(assign_topics, topic_model), partial(assign_topic, topic_model), texts)
    return _each(None, stage, list(zip(texts, topics)))


def _classify_batch(texts: list, pipeline: Pipeline):
    """Classify normalized texts with one scoring pass per stage.

    Returns the Classification of each text, or the exception that stopped
    it, in input order, plus the seconds spent in the detector and in the
    target model. Each hateful text reaches the target model exactly once.
    """
    started = time.perf_counter()
    labels = _labels(pipeline.detector, texts)
    detect_s = time.perf_counter() - started
    results = [label if isinstance(label, Exception) else Classification(label=NORMAL)
               for label in labels]
    flagged = [i for i, label in enumerate(labels) if label == HATE]
    # a flagged post holds its staged text, or the exception that stopped
    # it, until the target model labels it
    for i, text in zip(flagged, _staged([texts[i] for i in flagged], pipeline.topic_model)):
        results[i] = text
    flagged = [i for i in flagged if not isinstance(results[i], Exception)]
    started = time.perf_counter()
    targets = _labels(pipeline.target_model, [results[i] for i in flagged])
    target_s = time.perf_counter() - started
    for i, target in zip(flagged, targets):
        results[i] = (target if isinstance(target, Exception)
                      else Classification(label=HATE, target=target))
    return results, detect_s, target_s


def _scan_batch(batch: list, pipeline: Pipeline):
    """(kind, target) of each post of a batch in input order, plus the
    detector and target-model seconds; kind is hate, normal, excluded or
    failed."""
    outcomes = [("failed", None)] * len(batch)
    english, texts = [], []
    for i, text in enumerate(_each(normalize_english, lambda t: normalize_english([t])[0],
                                   [getattr(post, "text", post) for post in batch])):
        if text is None:
            outcomes[i] = ("excluded", None)
        elif not isinstance(text, Exception):
            texts.append(str(text))
            english.append(i)
    results, detect_s, target_s = _classify_batch(texts, pipeline)
    for i, result in zip(english, results):
        if not isinstance(result, Exception):
            outcomes[i] = (result.label, result.target)
    return outcomes, detect_s, target_s


def _batches(iterable, size: int):
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def run_corpus(posts, pipeline: Pipeline, workers: int = 1) -> TargetDistribution:
    """Scan a corpus a batch at a time with bounded memory.

    Each batch of ``pipeline.batch_size`` posts is scored with one pass per
    stage. With ``workers`` > 1 a thread pool scores up to ``workers``
    batches at once, so at most ``workers * batch_size`` posts are held;
    threads pay off for a backend that releases the GIL, and gain little
    for the bundled classifier, whose scoring mostly holds it. Non-English
    posts are excluded up front; per-post failures are counted, never
    fatal. Each batch's normalize memo lives for that batch only, in the
    thread that scans it, so nothing carries over between batches or runs.
    Aggregation is pure counting, so the result does not depend on batch
    size or worker scheduling.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    counts = Counter()
    per_target = Counter({t: 0 for t in TARGET_CLASSES})
    detect_time = 0.0
    target_time = 0.0
    scan = partial(_scan_batch, pipeline=pipeline)
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for group in _batches(_batches(posts, pipeline.batch_size), workers):
            scanned = pool.map(scan, group) if pool else map(scan, group)
            for outcomes, t_detect, t_target in scanned:
                for kind, target in outcomes:
                    counts[kind] += 1
                    if kind == HATE:
                        per_target[target] += 1
                detect_time += t_detect
                target_time += t_target
                counts["total"] += len(outcomes)
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
