"""Hashed n-gram featurization and class-weighted softmax training.

The built-in classifier is multinomial logistic regression over hashed word
and character n-grams, trained with mini-batch Adam (or plain SGD) on a
weighted cross-entropy loss. Anything exposing ``predict(text)`` and
``class_list`` can stand in for it downstream, so a heavier backend can be
attached without touching the rest of the pipeline.

Callers that hold a list of texts (training, evaluation, explanations, the
scan) go through ``featurize_batch`` and ``predict_batch``. They return
exactly what ``featurize`` and ``predict`` return per text. They featurize
a pass of whole texts at a time: the pass's characters are read once as code
points, and every n-gram is hashed in numpy, with no strings and no lookup
table, by a 64-bit polynomial over its code points (characters) or over its
words' hashes (words), salted per family, size and ``hash_seed``, put
through splitmix64's finalizer and masked to ``hash_dim`` (the hashing trick
of Weinberger et al., 2009). The pass counts every text's buckets with one
``np.unique``, and ``predict_batch`` scores the pass with one gather of its
weight columns.

A model file leaves out the weight columns whose every weight is ``+0.0``
and marks the rest in a bitmap. ``save`` and ``load`` handle the weights a
block of columns at a time, so neither holds a second copy of them.

Training runs on the hashed columns its texts touch, not on all ``hash_dim``
of them, and writes the result into a full-width matrix at the end. That is
exact: an untouched column has a zero gradient at every step, so Adam and
SGD leave it at ``+0.0``, and every touched element goes through the same
float operations in the same order as on full-width arrays.
"""

from __future__ import annotations

import json
import os
import random
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

__all__ = [
    "FeatureConfig",
    "Hyperparams",
    "SparseVector",
    "TrainedClassifier",
    "featurize",
    "featurize_batch",
    "class_weights",
    "weighted_ce_loss",
    "train",
    "predict",
    "predict_batch",
    "save",
    "load",
]

_MAGIC = b"HSCM"
_VERSION = 3
# the n-gram hash of versions 2 and 3, written into every header's
# feature_config
_HASH = "poly64-splitmix64"
# save and load refuse a model of more weights than this (512 MiB of
# float64): a version-3 file does not bound them, since one bitmap bit
# stands for a column of n_classes weights
_MAX_WEIGHTS = 1 << 26
# save and load handle the weight payload this many columns at a time
_BLOCK_COLS = 1 << 14
# and keep at most this many stored-column indices (256 KiB) across rows
_KEPT_COLS = 1 << 15

# a featurizing pass takes whole texts up to this many characters, counting
# one more per text; a longer text is a pass of its own. At its peak a pass
# holds about 80 bytes of numpy arrays per character (tracemalloc, one text
# of 2^16 characters).
_PASS_CHARS = 1 << 12

_M64 = (1 << 64) - 1
# polynomial bases, odd so that P has an inverse modulo 2^64: P over the code
# points of a character n-gram or of a word, Q over the word hashes of a word
# n-gram
_P = 0x9E3779B97F4A7C15
_Q = 0xC2B2AE3D27D4EB4F
_P64, _P_INV64, _Q64 = np.uint64(_P), np.uint64(pow(_P, -1, 1 << 64)), np.uint64(_Q)
# splitmix64's finalizer
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MIX64 = tuple(np.uint64(c) for c in _MIX)
_SHIFT64 = tuple(np.uint64(s) for s in (30, 27, 31))
# the code points str.split() splits on
_WHITESPACE = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 0x85, 0xA0, 0x1680,
               *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
# indexed by min(code point, 0x3001)
_IS_SPACE = np.zeros(0x3002, dtype=bool)
_IS_SPACE[list(_WHITESPACE)] = True


@dataclass(frozen=True)
class FeatureConfig:
    hash_dim: int = 2**18
    word_ngrams: tuple = (1, 2)
    char_ngrams: tuple = (3, 4, 5)
    hash_seed: int = 0

    def __post_init__(self):
        if self.hash_dim < 2**10 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError("hash_dim must be a power of two, at least 2^10")
        if not self.word_ngrams and not self.char_ngrams:
            raise ValueError("at least one n-gram family required")
        if any(not isinstance(n, int) or n < 1 for n in (*self.word_ngrams, *self.char_ngrams)):
            raise ValueError("n-gram sizes must be positive integers")
        seed = self.hash_seed
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _M64:
            raise ValueError("hash_seed must be an integer in [0, 2^64)")


@dataclass(frozen=True)
class Hyperparams:
    batch_size: int = 8
    max_epochs: int = 10
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    early_stop_patience: int = 2
    weighted_loss: bool = False
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if min(self.batch_size, self.max_epochs, self.early_stop_patience) <= 0:
            raise ValueError("batch_size, max_epochs and patience must be positive")
        if self.learning_rate <= 0 or self.adam_eps <= 0:
            raise ValueError("learning_rate and adam_eps must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")


@dataclass(frozen=True)
class SparseVector:
    """L2-normalized sparse feature vector with sorted unique indices."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        dense[self.indices] = self.values
        return dense


@dataclass
class TrainedClassifier:
    weights: np.ndarray  # (n_classes, hash_dim)
    bias: np.ndarray  # (n_classes,)
    class_list: tuple
    feature_config: FeatureConfig
    training_log: list = field(default_factory=list)

    def __post_init__(self):
        if not self.class_list:
            raise ModelError("class_list must be non-empty")
        if len(set(self.class_list)) != len(self.class_list):
            raise ModelError("class_list contains duplicates")
        # min and max carry any NaN and reach any infinity, without the
        # weight-sized temporary array that isfinite(...).all() makes
        if not all(np.isfinite(reduce(values, initial=0.0))
                   for values in (self.weights, self.bias) for reduce in (np.min, np.max)):
            raise ModelError("model weights contain NaN or Inf")

    def predict(self, text: str):
        return predict(self, text)


def _groups(texts):
    """Lists of consecutive whole texts of at most ``_PASS_CHARS``
    characters, counting one more per text; a longer text goes alone."""
    group, size = [], 0
    for text in texts:
        if group and size + len(text) + 1 > _PASS_CHARS:
            yield group
            group, size = [], 0
        group.append(text)
        size += len(text) + 1
    if group:
        yield group


def _passes(texts, config: FeatureConfig):
    """(buckets, values, bounds) of each pass of ``texts`` in turn: the
    ``featurize`` vector of the pass's text ``i`` is
    ``buckets[bounds[i]:bounds[i + 1]]`` with those ``values``.

    A pass counts the n-grams of all its texts with one ``np.unique`` over
    ``text * hash_dim + bucket``, so the memory a call holds does not grow
    with the number of texts. A text's bucket counts are small integers,
    so the sum of their squares is exact and each text's norm is the one
    ``np.linalg.norm`` gives.
    """
    dim = config.hash_dim
    for group in _groups(texts):
        keys, counts = np.unique(_pass_keys(group, config), return_counts=True)
        bounds = np.searchsorted(keys, np.arange(len(group) + 1, dtype=np.int64) * dim)
        text = keys // dim
        values = counts.astype(np.float64)
        values /= np.sqrt(np.bincount(text, values * values, len(group)))[text]
        keys &= dim - 1
        yield keys, values, bounds
        del keys, counts, text, values


def _pass_keys(texts, config: FeatureConfig) -> np.ndarray:
    """``i * hash_dim + bucket`` for every n-gram of every ``texts[i]``.

    The pass's characters are read once as code points. Its words are the
    runs of non-whitespace code points within a text, as ``str.split()``
    finds them, each hashed as ``sum(c_j * P^j)`` (modulo 2^64) from prefix
    sums of ``c_j * P^j`` over the pass, times ``P^-a`` for a word that
    starts at ``a``. Character n-grams are keyed by code point and word
    n-grams by word hash (see ``_ngram_keys``).
    """
    dim = config.hash_dim
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    codes = points.astype(np.uint64)
    total = len(codes)
    owner = np.repeat(np.arange(len(texts), dtype=np.int64) * dim, lengths)
    keys = _ngram_keys(codes, owner, config.char_ngrams, _P64, "c", config)
    if config.word_ngrams:
        space = _IS_SPACE[np.minimum(points, len(_IS_SPACE) - 1)]
        # edge[j]: no word runs on from position j - 1 to position j
        edge = np.ones(total + 1, dtype=bool)
        np.logical_or(space[:-1], space[1:], out=edge[1:-1])
        edge[np.cumsum(lengths)] = True
        word = ~space
        firsts = np.flatnonzero(edge[:-1] & word)
        ends = np.flatnonzero(edge[1:] & word) + 1
        del space, edge, word
        powers = np.full(total, _P64)
        powers[:1] = 1
        np.cumprod(powers, out=powers)
        prefix = np.zeros(total + 1, dtype=np.uint64)
        np.cumsum(codes * powers, out=prefix[1:])
        words = prefix[ends] - prefix[firsts]
        powers.fill(_P_INV64)
        powers[:1] = 1
        np.cumprod(powers, out=powers)
        words *= powers[firsts]
        del powers, prefix
        keys += _ngram_keys(words, owner[firsts], config.word_ngrams, _Q64, "w", config)
    return np.concatenate(keys)


def _ngram_keys(units, owner, sizes, base, family: str, config: FeatureConfig) -> list:
    """The ``owner + bucket`` keys of the n-grams of ``units`` (a pass's
    code points or word hashes, ``owner`` being ``i * hash_dim`` for the
    text each lies in), one array per size in ``sizes``.

    An n-gram of units ``u_0 .. u_{n-1}`` has the key
    ``sum(u_j * base^(n-1-j))`` modulo 2^64, grown a unit at a time; only
    the n-grams that end in the text they start in are kept. Its bucket is
    the key xor the salt of ``(family, n, hash_seed)``, put through
    splitmix64's finalizer and masked to ``hash_dim``. A size listed twice
    counts twice.
    """
    keys = []
    key = units.copy()
    for n in range(1, max(sizes, default=0) + 1):
        if n > 1:
            key = key[:-1]
            key *= base
            key += units[n - 1 :]
        times = sizes.count(n)
        if not times:
            continue
        m = len(key)
        inside = owner[:m] == owner[n - 1 : n - 1 + m]
        mixed = key[inside]
        mixed ^= np.uint64(_salt(family, n, config.hash_seed))
        for shift, multiplier in zip(_SHIFT64, _MIX64):
            mixed ^= mixed >> shift
            mixed *= multiplier
        mixed ^= mixed >> _SHIFT64[2]
        mixed &= np.uint64(config.hash_dim - 1)
        found = mixed.view(np.int64)
        found += owner[:m][inside]
        keys += [found] * times
    return keys


def _salt(family: str, n: int, seed: int) -> int:
    """splitmix64's finalizer of ``seed ^ (ord(family) << 32) ^ n``, in
    Python integers."""
    z = (seed ^ (ord(family) << 32) ^ n) & _M64
    z = ((z ^ (z >> 30)) * _MIX[0]) & _M64
    z = ((z ^ (z >> 27)) * _MIX[1]) & _M64
    return z ^ (z >> 31)


def featurize_batch(texts, config: FeatureConfig | None = None) -> list:
    """``featurize`` of every text, a pass of whole texts at a time."""
    config = config or FeatureConfig()
    dim = config.hash_dim
    return [SparseVector(buckets[start:stop], values[start:stop], dim)
            for buckets, values, bounds in _passes(texts, config)
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def featurize(text: str, config: FeatureConfig | None = None) -> SparseVector:
    """Hash word and character n-grams of a normalized text into counts.

    Each family and size is hashed under its own salt, so a word bigram and
    a character n-gram with the same polynomial key land in unrelated
    buckets. The count vector is L2-normalized; empty text gives the zero
    vector.
    """
    return featurize_batch([text], config)[0]


def class_weights(counts: dict) -> dict:
    """Inverse-frequency class weights w_c = N / (K * N_c).

    Rarer classes get weights above 1, common ones below 1, and the weighted
    count sum stays equal to N, so the overall loss scale is comparable with
    the unweighted case.
    """
    if not counts:
        raise ValueError("counts must be non-empty")
    if any(c <= 0 for c in counts.values()):
        raise ValueError("every class needs a positive count")
    total = sum(counts.values())
    k = len(counts)
    return {label: total / (k * counts[label]) for label in sorted(counts)}


def weighted_ce_loss(logits: np.ndarray, label: int, weights=1.0):
    """Weighted cross-entropy for one example.

    ``weights`` may be a scalar, a mapping from label index to weight, or an
    array indexed by label. Returns (loss, grad_logits) with
    loss = -w * log softmax(logits)[label] and
    grad = w * (softmax(logits) - onehot(label)). Stable for large logits via
    max subtraction.
    """
    if isinstance(weights, (int, float)):
        w = float(weights)
    elif isinstance(weights, dict):
        w = float(weights[label])
    else:
        w = float(np.asarray(weights)[label])
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    # log softmax computed from shifted logits, not log(probs), to avoid log(0)
    log_prob = shifted[label] - np.log(exp.sum())
    loss = -w * log_prob
    grad = w * probs
    grad[label] -= w
    return loss, grad


def _example_label(example):
    if hasattr(example, "label"):
        return example.label
    if hasattr(example, "target"):
        return example.target
    raise TypeError(f"not a labeled example: {example!r}")


class _EarlyStopTracker:
    """Stop when validation loss has not improved for `patience` epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = float("inf")
        self.best_epoch = 0
        self.epochs_since_best = 0

    def update(self, loss: float, epoch: int) -> bool:
        """Record one epoch's validation loss; True means stop now."""
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_epoch = epoch
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience


def _epoch_pass(model_w, model_b, features, labels, weights_vec, hp, rng=None, opt=None):
    """One pass over the data. With an optimizer, trains in place; always
    returns (mean loss, accuracy)."""
    n = len(features)
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)

    total_loss = 0.0
    correct = 0
    for start in range(0, n, hp.batch_size):
        batch = order[start : start + hp.batch_size]
        grad_w_updates = []
        grad_b = np.zeros_like(model_b)
        batch_loss = 0.0
        for i in batch:
            vec = features[i]
            logits = model_w[:, vec.indices] @ vec.values + model_b
            loss, grad = weighted_ce_loss(logits, labels[i], weights_vec[labels[i]])
            batch_loss += loss
            total_loss += loss
            if int(np.argmax(logits)) == labels[i]:
                correct += 1
            if opt is not None:
                grad_w_updates.append((vec, grad))
                grad_b += grad
        if opt is None:
            continue
        batch_size = len(batch)
        if not np.isfinite(batch_loss):
            raise ModelError(
                f"training diverged: non-finite loss in batch starting at {start}"
            )
        grad_w = np.zeros_like(model_w)
        for vec, grad in grad_w_updates:
            grad_w[:, vec.indices] += np.outer(grad, vec.values)
        grad_w /= batch_size
        grad_b /= batch_size
        opt.apply(model_w, model_b, grad_w, grad_b)

    return total_loss / n, correct / n


class _AdamState:
    def __init__(self, w, b, hp: Hyperparams):
        self.hp = hp
        self.t = 0
        self.m_w = np.zeros_like(w)
        self.v_w = np.zeros_like(w)
        self.m_b = np.zeros_like(b)
        self.v_b = np.zeros_like(b)

    def apply(self, w, b, grad_w, grad_b):
        hp = self.hp
        self.t += 1
        b1t = 1 - hp.adam_beta1**self.t
        b2t = 1 - hp.adam_beta2**self.t
        for param, grad, m, v in (
            (w, grad_w, self.m_w, self.v_w),
            (b, grad_b, self.m_b, self.v_b),
        ):
            m *= hp.adam_beta1
            m += (1 - hp.adam_beta1) * grad
            v *= hp.adam_beta2
            v += (1 - hp.adam_beta2) * grad * grad
            param -= hp.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + hp.adam_eps)


class _SgdState:
    def __init__(self, hp: Hyperparams):
        self.hp = hp

    def apply(self, w, b, grad_w, grad_b):
        w -= self.hp.learning_rate * grad_w
        b -= self.hp.learning_rate * grad_b


def train(
    train_examples,
    val_examples,
    hp: Hyperparams | None = None,
    fc: FeatureConfig | None = None,
) -> TrainedClassifier:
    """Train the baseline classifier with mini-batch updates.

    Classes are read off the training labels (sorted). With weighted_loss the
    per-class weights come from the training distribution. Validation drives
    early stopping; when it triggers, the returned weights are the snapshot
    from the best validation epoch, not the last one. An empty validation set
    disables early stopping and the final weights are returned.

    The weights and optimizer state span only the columns that some training
    or validation text touches; the rest stay exactly ``+0.0``, so the model
    is bit for bit the one a full-width optimizer would produce.
    """
    if hp is None:
        hp = Hyperparams()
    if fc is None:
        fc = FeatureConfig()
    train_examples = list(train_examples)
    val_examples = list(val_examples)
    if not train_examples:
        raise ValueError("training set is empty")

    class_list = tuple(sorted({_example_label(e) for e in train_examples}))
    class_index = {label: i for i, label in enumerate(class_list)}

    if hp.weighted_loss:
        label_counts: dict = {}
        for e in train_examples:
            label = _example_label(e)
            label_counts[label] = label_counts.get(label, 0) + 1
        by_label = class_weights(label_counts)
        weights_vec = np.array([by_label[c] for c in class_list])
    else:
        weights_vec = np.ones(len(class_list))

    feats = featurize_batch([e.text for e in train_examples + val_examples], fc)
    # train on the touched columns only; searchsorted maps each index to its
    # position in cols and keeps every vector's indices sorted and unique, so
    # each gather and matmul sees the same values in the same order as on
    # full-width weights. An in-place sort and a first-of-run mask find the
    # columns; numpy 2's np.unique hashes them instead, which left more heap
    # behind
    cols = np.concatenate([vec.indices for vec in feats])
    cols.sort()
    first = np.empty(len(cols), dtype=bool)
    first[:1] = True
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    cols = cols[first]
    feats = [SparseVector(np.searchsorted(cols, vec.indices), vec.values, len(cols))
             for vec in feats]
    train_feats, val_feats = feats[: len(train_examples)], feats[len(train_examples) :]
    train_labels = [class_index[_example_label(e)] for e in train_examples]
    val_labels = []
    for e in val_examples:
        label = _example_label(e)
        if label not in class_index:
            raise ValueError(f"validation label {label!r} never seen in training")
        val_labels.append(class_index[label])

    w = np.zeros((len(class_list), len(cols)))
    b = np.zeros(len(class_list))
    rng = random.Random(hp.seed)
    opt = _AdamState(w, b, hp) if hp.optimizer == "adam" else _SgdState(hp)
    tracker = _EarlyStopTracker(hp.early_stop_patience)
    best_snapshot = (w.copy(), b.copy())
    log: list[dict] = []

    for epoch in range(1, hp.max_epochs + 1):
        train_loss, train_acc = _epoch_pass(
            w, b, train_feats, train_labels, weights_vec, hp, rng=rng, opt=opt
        )
        entry = {
            "epoch": epoch,
            "train_loss": float(train_loss),
            "train_accuracy": float(train_acc),
            "val_loss": None,
            "val_accuracy": None,
        }
        stop = False
        if val_examples:
            val_loss, val_acc = _epoch_pass(
                w, b, val_feats, val_labels, weights_vec, hp
            )
            entry["val_loss"] = float(val_loss)
            entry["val_accuracy"] = float(val_acc)
            stop = tracker.update(val_loss, epoch)
            if tracker.best_epoch == epoch:
                best_snapshot = (w.copy(), b.copy())
        log.append(entry)
        if stop:
            break

    if val_examples:
        w, b = best_snapshot
    full = np.zeros((len(class_list), fc.hash_dim))
    full[:, cols] = w
    return TrainedClassifier(
        weights=full, bias=b, class_list=class_list, feature_config=fc, training_log=log
    )


def predict(model: TrainedClassifier, text: str):
    """Return (label, probs) for one normalized text: ``predict_batch`` of
    the one text.

    Ties in the probability vector resolve to the lowest class index, so
    prediction is deterministic even for degenerate models.
    """
    vec = featurize(text, model.feature_config)
    return _score(model, vec.indices, vec.values, np.array([0, len(vec.indices)]))[0]


def predict_batch(model, texts) -> list:
    """``predict`` of every text, as a list of (label, probs).

    The bundled classifier featurizes the texts a pass at a time (see
    ``_passes``) and scores each pass at once (see ``_score``); any other
    model (the external backend contract: ``class_list`` plus
    ``predict(text)``) is asked text by text.
    """
    if not isinstance(model, TrainedClassifier):
        return [model.predict(text) for text in texts]
    return [scored for buckets, values, bounds in _passes(texts, model.feature_config)
            for scored in _score(model, buckets, values, bounds)]


def _score(model: TrainedClassifier, buckets, values, bounds) -> list:
    """(label, probs) of each text of a pass, text ``i`` having the
    feature vector ``buckets[bounds[i]:bounds[i + 1]]`` with those
    ``values``.

    The pass's weight columns are gathered once, scaled by the values and
    summed per text with ``np.add.reduceat``; a text without n-grams, for
    which ``reduceat`` would return the element at its index, scores as the
    bias alone. A row-wise softmax follows. The sums differ from a per-text
    ``W[:, idx] @ vals`` only in the order of their additions.
    """
    logits = np.tile(model.bias, (len(bounds) - 1, 1))
    filled = np.flatnonzero(bounds[:-1] < bounds[1:])
    if len(filled):
        terms = model.weights.take(buckets, axis=1)
        terms *= values
        logits[filled] += np.add.reduceat(terms, bounds[filled], axis=1).T
        del terms
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=1, keepdims=True)
    labels = [model.class_list[i] for i in probs.argmax(axis=1).tolist()]
    return list(zip(labels, probs))


def _stored(bitmap: np.ndarray, start: int) -> np.ndarray:
    """The stored columns of the block of columns at ``start``, in order."""
    chunk = bitmap[start // 8 : (start + _BLOCK_COLS) // 8]
    cols = np.flatnonzero(np.unpackbits(chunk, bitorder="little").view(bool))
    cols += start
    return cols


def _row_blocks(bitmap: np.ndarray, rows: int):
    """(row, stored columns) of each block of columns of each row, in
    payload order.

    The columns of the first blocks are kept for the later rows while they
    number at most ``_KEPT_COLS`` in all, so a trained model, whose stored
    columns are few, unpacks each block of its bitmap once.
    """
    kept, held = {}, 0
    for row in range(rows):
        for start in range(0, len(bitmap) * 8, _BLOCK_COLS):
            cols = kept.get(start)
            if cols is None:
                cols = _stored(bitmap, start)
                if held + len(cols) <= _KEPT_COLS:
                    kept[start] = cols
                    held += len(cols)
            yield row, cols


def _read(fh, array: np.ndarray, path) -> np.ndarray:
    if fh.readinto(array) != array.nbytes:
        raise ModelError(f"{path}: truncated weight payload")
    return array


def _check_size(path, k: int, hash_dim: int) -> None:
    if k * hash_dim > _MAX_WEIGHTS:
        raise ModelError(f"{path}: {k} classes x {hash_dim} columns is {k * hash_dim}"
                         f" weights, more than the {_MAX_WEIGHTS} a model file may hold")


def save(model: TrainedClassifier, path: str) -> None:
    """Write the versioned binary model file (little-endian, checksummed).

    Only the weight columns with a nonzero bit pattern in some row are
    stored, after a bitmap of them. The payload is checksummed and then
    written a block of columns at a time, so besides the model's weights
    saving holds one block of them and the columns ``_row_blocks`` keeps.
    """
    _check_size(path, len(model.class_list), model.feature_config.hash_dim)
    weights = np.ascontiguousarray(model.weights, dtype="<f8")
    bias = np.ascontiguousarray(model.bias, dtype="<f8")
    bitmap = np.empty(weights.shape[1] // 8, dtype=np.uint8)
    for start in range(0, weights.shape[1], _BLOCK_COLS):
        nonzero = weights[:, start : start + _BLOCK_COLS].view("<u8") != 0
        bitmap[start // 8 : (start + _BLOCK_COLS) // 8] = np.packbits(
            nonzero.any(axis=0), bitorder="little")

    def payload():
        yield bitmap
        for row, cols in _row_blocks(bitmap, len(weights)):
            yield weights[row].take(cols)
        yield bias

    crc = 0
    for part in payload():
        crc = zlib.crc32(part, crc)
    header = {
        "class_list": list(model.class_list),
        "feature_config": {
            "hash_dim": model.feature_config.hash_dim,
            "word_ngrams": list(model.feature_config.word_ngrams),
            "char_ngrams": list(model.feature_config.char_ngrams),
            "hash_seed": model.feature_config.hash_seed,
            "hash": _HASH,
        },
        "n_classes": len(model.class_list),
        "payload_crc32": crc,
        "training_log": model.training_log,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for part in payload():
            fh.write(part)


def load(path: str) -> TrainedClassifier:
    """Read a model file back; bit-exact inverse of ``save``.

    Reads version 3, and version 2, which is version 3 with every column
    stored and no bitmap. The stored weights are read a block of columns at
    a time into a zero matrix, so besides that matrix loading holds one
    block of weights and the columns ``_row_blocks`` keeps.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(12)
            if len(head) < 12 or head[:4] != _MAGIC:
                raise ModelError(f"{path}: not a model file (bad magic)")
            (version,) = struct.unpack("<I", head[4:8])
            if version == 1:
                raise ModelError(f"{path}: model version 1 hashed its n-grams with the"
                                 " featurizer of an older hatescan; the featurizer changed"
                                 " in version 2, so the model must be retrained")
            if version not in (2, _VERSION):
                raise ModelError(f"{path}: unsupported model version {version}")
            (header_len,) = struct.unpack("<I", head[8:12])
            header_bytes = fh.read(header_len)
            if len(header_bytes) < header_len:
                raise ModelError(f"{path}: truncated header")
            try:
                header = json.loads(header_bytes.decode("utf-8"))
                class_list = tuple(header["class_list"])
                fc = FeatureConfig(
                    hash_dim=header["feature_config"]["hash_dim"],
                    word_ngrams=tuple(header["feature_config"]["word_ngrams"]),
                    char_ngrams=tuple(header["feature_config"]["char_ngrams"]),
                    hash_seed=header["feature_config"]["hash_seed"],
                )
                crc_expected = header["payload_crc32"]
                hash_name = header["feature_config"]["hash"]
                n_classes = header["n_classes"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ModelError(f"{path}: corrupt header: {exc}") from exc
            if hash_name != _HASH:
                raise ModelError(f"{path}: unknown n-gram hash {hash_name!r}")
            k, dim = len(class_list), fc.hash_dim
            if n_classes != k:
                raise ModelError(f"{path}: header says n_classes {n_classes!r}"
                                 f" but lists {k} classes")
            _check_size(path, k, dim)

            payload_len = os.fstat(fh.fileno()).st_size - 12 - header_len
            if version == 2:
                bitmap, crc = np.full(dim // 8, 0xFF, dtype=np.uint8), 0
            elif payload_len < dim // 8:
                raise ModelError(f"{path}: weight payload is {payload_len} bytes,"
                                 f" shorter than its {dim // 8}-byte column bitmap")
            else:
                bitmap = _read(fh, np.empty(dim // 8, dtype=np.uint8), path)
                crc = zlib.crc32(bitmap)
            step = _BLOCK_COLS // 8
            stored = sum(np.count_nonzero(np.unpackbits(bitmap[i : i + step]))
                         for i in range(0, len(bitmap), step))
            expected_len = (version - 2) * len(bitmap) + (k * stored + k) * 8
            if payload_len != expected_len:
                raise ModelError(
                    f"{path}: weight payload is {payload_len} bytes, expected {expected_len}"
                )
            weights = np.zeros((k, dim))
            block = np.empty(min(dim, _BLOCK_COLS), dtype="<f8")
            finite = True
            for row, cols in _row_blocks(bitmap, k):
                values = _read(fh, block[: len(cols)], path)
                crc = zlib.crc32(values, crc)
                finite = finite and bool(np.isfinite(values).all())
                weights[row, cols] = values
            bias = _read(fh, np.empty(k, dtype="<f8"), path)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc

    if zlib.crc32(bias, crc) != crc_expected:
        raise ModelError(f"{path}: checksum mismatch, file is corrupt")
    if not finite:
        raise ModelError(f"{path}: model weights contain NaN or Inf")
    # every stored weight is finite and the rest are +0.0, so the model is
    # built on no columns, which spares its finiteness check a pass over the
    # whole matrix, and is then given its weights
    model = TrainedClassifier(
        weights=weights[:, :0],
        bias=bias.astype(np.float64, copy=False),
        class_list=class_list,
        feature_config=fc,
        training_log=header.get("training_log", []),
    )
    model.weights = weights
    return model

