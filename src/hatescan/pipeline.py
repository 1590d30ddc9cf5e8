"""Two-stage orchestration: detect hate, then classify its target.

A corpus is scanned a batch at a time: each batch's English posts are
normalized and scored by the detector in one pass, and only the posts
flagged as hateful reach the target model, in a second pass. With a topic
model, those posts get their topics in one assignment call and each has its
topic's words appended first. Counts aggregate into a TargetDistribution
(see ``distribution``, re-exported here) that reports both the hate rate
and the per-target makeup of the hateful slice.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
from .normalize import is_english, normalize

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


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised, so one post fails alone."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - per-post resilience
        logger.debug("post failed: %s", exc)
        return exc


def _labels(model, texts: list) -> list:
    """The label ``model`` predicts for each text, or the exception it raised.

    The bundled classifier scores all the texts in one ``predict_batch``
    call. If that call raises, the texts are scored one by one (the model
    is pure, so asking again is harmless) and only the ones that raise
    fail.
    Any other backend (``class_list`` plus ``predict(text)``) is asked text
    by text, each text once.
    """
    if not texts:
        return []
    if isinstance(model, TrainedClassifier):
        try:
            return [label for label, _ in predict_batch(model, texts)]
        except Exception as exc:  # noqa: BLE001 - rescored text by text
            logger.debug("batch scoring failed, scoring text by text: %s", exc)
    return [_attempt(lambda t: model.predict(t)[0], text) for text in texts]


def _staged(texts: list, topic_model) -> list:
    """The target model's input for each text: the text with its topic's
    words appended, or the exception that stopped it.

    Topics are assigned to all the texts in one ``assign_topics`` call. If
    that call raises, each text is assigned on its own, so only the texts
    that raise fail.
    """
    if topic_model is None or not texts:
        return list(texts)
    from .topics import assign_topic, assign_topics, concat_topic

    try:
        topics = assign_topics(topic_model, texts)
    except Exception as exc:  # noqa: BLE001 - assigned text by text
        logger.debug("batch topic assignment failed, assigning text by text: %s", exc)
        topics = [_attempt(assign_topic, topic_model, text) for text in texts]
    return [topic if isinstance(topic, Exception)
            else _attempt(concat_topic, text, topic_model, topic)
            for text, topic in zip(texts, topics)]


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
    hateful, staged = [], []
    flagged = [i for i, label in enumerate(labels) if label == HATE]
    for i, text in zip(flagged, _staged([texts[i] for i in flagged], pipeline.topic_model)):
        if isinstance(text, Exception):
            results[i] = text
        else:
            hateful.append(i)
            staged.append(text)
    started = time.perf_counter()
    targets = _labels(pipeline.target_model, staged)
    target_s = time.perf_counter() - started
    for i, target in zip(hateful, targets):
        results[i] = (target if isinstance(target, Exception)
                      else Classification(label=HATE, target=target))
    return results, detect_s, target_s


def _scan_batch(batch: list, pipeline: Pipeline):
    """(kind, target) of each post of a batch in input order, plus the
    detector and target-model seconds; kind is hate, normal, excluded or
    failed."""
    outcomes = [("failed", None)] * len(batch)
    english, texts = [], []
    for i, post in enumerate(batch):
        text = getattr(post, "text", post)
        try:
            if not is_english(text):
                outcomes[i] = ("excluded", None)
                continue
            texts.append(str(normalize(text)))
            english.append(i)
        except Exception as exc:  # noqa: BLE001 - per-post resilience
            logger.debug("post failed: %s", exc)
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
    for the bundled classifier, whose scoring mostly holds it. Non-English posts are excluded up front; per-post failures
    are counted, never fatal. Aggregation is pure counting, so the result
    does not depend on batch size or worker scheduling.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    counts = Counter()
    per_target = Counter({t: 0 for t in TARGET_CLASSES})
    detect_time = 0.0
    target_time = 0.0
    scan = partial(_scan_batch, pipeline=pipeline)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
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
