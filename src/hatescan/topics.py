"""Unsupervised topic discovery over normalized texts.

The building blocks: an embedder (TF-IDF times one seeded random matrix by
default, anything with an ``embed`` method otherwise), a density clusterer
with a minimum cluster size and an outlier label of -1, frequency-based topic
naming, and a brute-force parameter tuner that minimizes the outlier count.
A fitted TopicModel can assign topics to unseen texts by nearest centroid
and append topic words to an input text for topic-aware training.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ModelError
from .model import _groups
from .normalize import default_config

logger = logging.getLogger(__name__)

__all__ = [
    "TOPIC_MARKER",
    "OUTLIER",
    "ClusterParams",
    "TopicModel",
    "TfidfProjectionEmbedder",
    "cluster",
    "name_topics",
    "tune_params",
    "fit_topics",
    "assign_topic",
    "assign_topics",
    "concat_topic",
    "save_topics",
    "load_topics",
]

TOPIC_MARKER = "<TOPIC>"
OUTLIER = -1

# fraction of the core-distance spread a gap must exceed to count as the knee
_KNEE_GAP_FRACTION = 0.3


@dataclass(frozen=True)
class ClusterParams:
    min_cluster_size: int
    min_samples: int

    def __post_init__(self):
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be at least 2")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.min_samples > self.min_cluster_size:
            raise ValueError("min_samples cannot exceed min_cluster_size")


class TfidfProjectionEmbedder:
    """TF-IDF unigram vectors projected to a fixed dimension.

    The IDF table freezes on the first ``embed`` call or comes from a topic
    file. Its sorted term ``i`` owns row ``i`` of one matrix, rebuilt from the
    table as ``default_rng(seed).standard_normal((terms, dim)) / sqrt(dim)``.
    A text embeds as the unit-length sum of ``count * idf * row`` over its
    terms in the table, or as zero if it has none."""

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        self.dim = dim
        self.seed = seed
        self._rows: dict[str, int] | None = None

    def _freeze(self, idf: dict) -> None:
        self._rows = {term: i for i, term in enumerate(sorted(idf))}
        self._idf = np.array([idf[term] for term in self._rows], dtype=np.float64)
        self._matrix = np.random.default_rng(self.seed).standard_normal((len(idf), self.dim))
        self._matrix /= math.sqrt(self.dim)

    def embed(self, texts) -> np.ndarray:
        """A pass of texts (``model._groups``) counts its (text, term) pairs with
        one ``np.unique`` and sums their scaled rows with ``np.add.reduceat``."""
        texts = [str(t) for t in texts]
        if self._rows is None:
            df = Counter(term for text in texts for term in set(text.split()))
            self._freeze({t: math.log((1 + len(texts)) / (1 + c)) + 1.0 for t, c in df.items()})
        vocab = len(self._rows)
        out = np.zeros((len(texts), self.dim))
        first = 0
        for group in _groups(texts):
            keys = np.array([i * vocab + row for i, text in enumerate(group, first)
                             for term in text.split()
                             if (row := self._rows.get(term)) is not None], dtype=np.int64)
            first += len(group)
            if len(keys):
                keys, counts = np.unique(keys, return_counts=True)
                present, starts = np.unique(keys // vocab, return_index=True)
                keys %= vocab
                terms = self._matrix[keys]
                terms *= (counts * self._idf[keys])[:, None]
                out[present] = np.add.reduceat(terms, starts)
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        return np.divide(out, norms, out=out, where=norms > 0)

    def to_config(self) -> dict:
        if self._rows is None:
            raise ModelError("embedder not fitted yet")
        return {"kind": "tfidf_projection", "dim": self.dim, "seed": self.seed,
                "idf": dict(zip(self._rows, self._idf.tolist()))}

    @classmethod
    def from_config(cls, config: dict) -> "TfidfProjectionEmbedder":
        emb = cls(dim=int(config["dim"]), seed=int(config["seed"]))
        emb._freeze({str(k): float(v) for k, v in config["idf"].items()})
        return emb


@dataclass
class TopicModel:
    labels: tuple
    names: dict
    params: ClusterParams
    name_words: dict = field(default_factory=dict)
    centroids: dict = field(default_factory=dict)
    ceilings: dict = field(default_factory=dict)
    embedder: object = None

    def __post_init__(self):
        present = {lab for lab in self.labels if lab != OUTLIER}
        named = {lab for lab in self.names if lab != OUTLIER}
        if present != named:
            raise ValueError("names must exist exactly for the non-outlier labels present")
        if OUTLIER not in self.names:
            raise ValueError("the outlier label needs a name entry too")


def _core_distances(dist: np.ndarray, min_samples: int) -> np.ndarray:
    n = dist.shape[0]
    k = min(min_samples, n - 1)
    if k <= 0:
        return np.zeros(n)
    partitioned = np.sort(dist, axis=1)  # column 0 is the self-distance 0
    return partitioned[:, k]


def _knee_radius(core: np.ndarray) -> float:
    """Largest significant jump in the upper half of sorted core distances.

    Without a significant jump every point is dense enough, and the radius is
    the maximum core distance so nothing gets pruned by accident.
    """
    ordered = np.sort(core)
    n = len(ordered)
    spread = float(ordered[-1] - ordered[0])
    if n < 4 or spread == 0.0:
        return float(ordered[-1])
    gaps = np.diff(ordered)
    start = n // 2
    best = int(np.argmax(gaps[start - 1 :]) + start - 1)
    if gaps[best] > _KNEE_GAP_FRACTION * spread:
        return float(ordered[best])
    return float(ordered[-1])


def cluster(vectors, params: ClusterParams):
    """Density-based labels with -1 for outliers.

    Core distance is the distance to the min_samples-th neighbor. Points are
    connected when their mutual reachability distance (max of the pairwise
    and both core distances) is within a radius read off the knee of the
    sorted core-distance curve; connected components below min_cluster_size
    dissolve into outliers. Deterministic: no randomness anywhere.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n < params.min_cluster_size:
        logger.warning("only %d rows for min_cluster_size %d: everything is an outlier",
                       n, params.min_cluster_size)
        return [OUTLIER] * n

    diff = vectors[:, None, :] - vectors[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    core = _core_distances(dist, params.min_samples)
    radius = _knee_radius(core)

    reach_ok = (dist <= radius) & (core[:, None] <= radius) & (core[None, :] <= radius)

    labels = [None] * n
    next_label = 0
    for seed_point in range(n):
        if labels[seed_point] is not None:
            continue
        # breadth-first component collection
        component = [seed_point]
        labels[seed_point] = -2  # visited marker
        frontier = [seed_point]
        while frontier:
            current = frontier.pop()
            for neighbor in np.nonzero(reach_ok[current])[0]:
                if labels[neighbor] is None:
                    labels[neighbor] = -2
                    component.append(int(neighbor))
                    frontier.append(int(neighbor))
        if len(component) >= params.min_cluster_size:
            for i in component:
                labels[i] = next_label
            next_label += 1
        else:
            for i in component:
                labels[i] = OUTLIER
    return labels


def _nameable_tokens(text: str, excluded: frozenset) -> list:
    return [t for t in text.split() if t not in excluded]


def _score_topic_words(texts, labels, k: int):
    texts = list(texts)
    labels = list(labels)
    if len(texts) != len(labels):
        raise ValueError("texts and labels must align")

    config = default_config()
    excluded = frozenset(config.english_stopword_set) | frozenset(config.placeholders) | {
        TOPIC_MARKER
    }

    tf: dict[int, dict[str, int]] = {}
    for text, label in zip(texts, labels):
        bag = tf.setdefault(label, {})
        for token in _nameable_tokens(str(text), excluded):
            bag[token] = bag.get(token, 0) + 1

    n_topics = len(tf)
    topic_freq: dict[str, int] = {}
    for bag in tf.values():
        for term in bag:
            topic_freq[term] = topic_freq.get(term, 0) + 1

    names: dict[int, str] = {}
    words_by_label: dict[int, tuple] = {}
    for label in sorted(tf):
        bag = tf[label]
        scored = sorted(
            bag.items(),
            key=lambda item: (-item[1] * math.log(1 + n_topics / topic_freq[item[0]]),
                              item[0]),
        )
        words = tuple(term for term, _ in scored[:k])
        if not words:
            logger.warning("topic %d has no nameable words", label)
        names[label] = f"{label}_" + "_".join(words)
        words_by_label[label] = words
    return names, words_by_label


def name_topics(texts, labels, k: int = 4) -> dict:
    """Name every topic (outlier included) from its frequent words.

    Score = term frequency inside the topic times log(1 + T / t_f), where T
    is the number of topics and t_f the number of topics containing the term.
    That damps words shared by every topic without silencing them. Ties break
    lexicographically. Stopwords and placeholder tokens never appear in names.
    """
    names, _ = _score_topic_words(texts, labels, k)
    return names


def tune_params(vectors, grid):
    """Pick the grid point with the fewest outliers.

    The tuner is the brute force: every grid member is clustered and counted.
    Ties prefer the smaller min_cluster_size, then the smaller min_samples.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("parameter grid is empty")
    vectors = np.asarray(vectors, dtype=np.float64)

    def outliers(params: ClusterParams) -> int:
        return sum(1 for lab in cluster(vectors, params) if lab == OUTLIER)

    return min(
        grid,
        key=lambda p: (outliers(p), p.min_cluster_size, p.min_samples),
    )


def _default_grid(n: int, min_samples_floor: int = 1):
    sizes = sorted({max(2, n // 20), max(2, n // 10), max(2, n // 5)})
    grid = []
    for mcs in sizes:
        for ms in sorted({1, 2, 5, min_samples_floor}):
            if min_samples_floor <= ms <= mcs:
                grid.append(ClusterParams(mcs, ms))
    return grid or [ClusterParams(2, 1)]


def fit_topics(texts, embedder=None, grid=None, k: int = 4,
               min_samples_floor: int = 1) -> TopicModel:
    """Embed, tune, cluster and name; returns a model ready for assignment.

    ``min_samples_floor`` exists for callers that want the smallest labeled
    class size as the lower bound of the min_samples search, which is how the
    default grid gets anchored when fitting on labeled data.
    """
    texts = [str(t) for t in texts]
    if not texts:
        raise DataError("cannot fit topics on an empty corpus")
    if embedder is None:
        embedder = TfidfProjectionEmbedder()
    if grid is None:
        grid = _default_grid(len(texts), min_samples_floor)

    vectors = embedder.embed(texts)
    params = tune_params(vectors, grid)
    labels = cluster(vectors, params)
    names, name_words = _score_topic_words(texts, labels, k)
    if OUTLIER not in names:  # no outliers observed; still need the entry
        names[OUTLIER] = f"{OUTLIER}_"
        name_words[OUTLIER] = ()

    centroids: dict[int, np.ndarray] = {}
    ceilings: dict[int, float] = {}
    for label in sorted(set(labels) - {OUTLIER}):
        members = vectors[[i for i, lab in enumerate(labels) if lab == label]]
        centroid = members.mean(axis=0)
        centroids[label] = centroid
        ceilings[label] = float(np.sqrt(((members - centroid) ** 2).sum(axis=1)).max())

    return TopicModel(
        labels=tuple(labels),
        names=names,
        params=params,
        name_words=name_words,
        centroids=centroids,
        ceilings=ceilings,
        embedder=embedder,
    )


def assign_topics(model: TopicModel, texts) -> list:
    """Nearest-centroid topic for each text; -1 beyond the topic's reach.

    The ceiling is the largest member-to-centroid distance seen at fit time,
    so assignment never stretches a topic beyond its training footprint.
    """
    texts = list(texts)
    if not texts:
        return []
    if model.embedder is None:
        raise ModelError("topic model carries no embedder; cannot assign")
    if not model.centroids:
        return [OUTLIER] * len(texts)
    vectors = np.asarray(model.embedder.embed(texts), dtype=np.float64)
    topic_ids = sorted(model.centroids)
    dists = np.stack([np.sqrt(((vectors - model.centroids[t]) ** 2).sum(axis=1))
                      for t in topic_ids])
    best = dists.argmin(axis=0)
    ceilings = np.array([model.ceilings[t] for t in topic_ids])[best]
    # a text with no corpus vocabulary at all has no evidence for any topic
    near = (dists.min(axis=0) <= ceilings + 1e-12) & vectors.any(axis=1)
    return np.where(near, np.array(topic_ids)[best], OUTLIER).tolist()


def assign_topic(model: TopicModel, text: str) -> int:
    return assign_topics(model, [text])[0]


def concat_topic(text: str, model: TopicModel, label: int) -> str:
    """Append the topic's words after a marker token; outliers pass through."""
    if label == OUTLIER:
        return text
    if label not in model.names:
        raise ValueError(f"unknown topic label: {label}")
    words = model.name_words.get(label)
    if words is None:
        # fall back to splitting the display name after the id prefix
        words = tuple(w for w in model.names[label].split("_")[1:] if w)
    return f"{text} {TOPIC_MARKER} {' '.join(words)}".strip()


def save_topics(model: TopicModel, path: str) -> None:
    """Serialize the model as JSON; needs the built-in embedder."""
    if model.embedder is None or not hasattr(model.embedder, "to_config"):
        raise ModelError("only embedders exposing to_config() can be serialized")
    doc = {
        "version": 2,
        "labels": list(model.labels),
        "names": {str(k): v for k, v in model.names.items()},
        "name_words": {str(k): list(v) for k, v in model.name_words.items()},
        "params": {
            "min_cluster_size": model.params.min_cluster_size,
            "min_samples": model.params.min_samples,
        },
        "centroids": {str(k): [float(x) for x in v] for k, v in model.centroids.items()},
        "ceilings": {str(k): float(v) for k, v in model.ceilings.items()},
        "embedder": model.embedder.to_config(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)


def load_topics(path: str) -> TopicModel:
    """Read a version-2 topic file; one that could not assign raises ModelError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read topic model: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON: {exc}") from exc
    try:
        if doc["version"] == 1:
            raise ModelError(f"{path}: topic model version 1 hashed each term to a direction;"
                             " the embedder changed, so the topic model must be refit")
        if doc["version"] != 2:
            raise ModelError(f"{path}: unsupported topic model version {doc['version']}")
        for name, kind in (("labels", list), ("names", dict), ("name_words", dict),
                           ("params", dict), ("centroids", dict), ("ceilings", dict),
                           ("embedder", dict)):
            if not isinstance(doc[name], kind):
                raise ModelError(f"{path}: {name} is not a JSON "
                                 + ("array" if kind is list else "object"))
        emb_cfg = doc["embedder"]
        if emb_cfg.get("kind") != "tfidf_projection":
            raise ModelError(f"{path}: unknown embedder kind {emb_cfg.get('kind')!r}")
        if not isinstance(emb_cfg.get("idf"), dict):
            raise ModelError(f"{path}: the embedder's idf is not a JSON object")
        if not all(isinstance(words, list) and all(isinstance(w, str) and w for w in words)
                   for words in doc["name_words"].values()):
            raise ModelError(f"{path}: a topic's name words are not a list of non-empty strings")
        model = TopicModel(
            labels=tuple(int(x) for x in doc["labels"]),
            names={int(k): str(v) for k, v in doc["names"].items()},
            params=ClusterParams(**doc["params"]),
            name_words={int(k): tuple(v) for k, v in doc["name_words"].items()},
            centroids={int(k): np.array(v, dtype=np.float64)
                       for k, v in doc["centroids"].items()},
            ceilings={int(k): float(v) for k, v in doc["ceilings"].items()},
            embedder=TfidfProjectionEmbedder.from_config(emb_cfg),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: corrupt topic model: {exc}") from exc
    if any(c.shape != (model.embedder.dim,) for c in model.centroids.values()):
        raise ModelError(f"{path}: a centroid's length is not the embedder's dim"
                         f" {model.embedder.dim}")
    if model.centroids.keys() != model.ceilings.keys():
        raise ModelError(f"{path}: the centroid and ceiling topic ids differ")
    if not model.names.keys() == model.name_words.keys() == model.centroids.keys() | {OUTLIER}:
        raise ModelError(f"{path}: the names, name words and centroids cover different topic ids")
    values = [model.embedder._idf, *model.centroids.values(), [*model.ceilings.values()]]
    if not all(np.isfinite(v).all() for v in values):
        raise ModelError(f"{path}: a non-finite idf, centroid or ceiling value")
    return model
