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
points, each family of character n-grams is deduplicated in numpy, and only
its distinct n-grams are built as strings. Those and the word n-grams are
looked up together in a capped memo from n-gram to bucket, the ones it
lacks are hashed in one step, and the pass counts every text's buckets with
one ``np.unique``. The scan passes one memo through both stages of a batch, and
``predict_batch`` reuses it only for a model of the feature config it was
filled under.

``save`` writes the weights from their own buffer and ``load`` reads them
into the array the model holds, so neither copies a model's weights.

Training runs on the hashed columns its texts touch, not on all ``hash_dim``
of them, and writes the result into a full-width matrix at the end. That is
exact: an untouched column has a zero gradient at every step, so Adam and
SGD leave it at ``+0.0``, and every touched element goes through the same
float operations in the same order as on full-width arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
import zlib
from dataclasses import dataclass, field
from itertools import compress, repeat

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
_VERSION = 1

# a memo holds at most this many n-grams: the new n-grams of a pass that
# would not fit clear it first. One memo serves both stages of a scan
# batch, so the target stage looks up, rather than hashes, the n-grams of
# the flagged texts that are still in it. At 2^14 the bench's long scan
# hashed 42% fewer n-grams, but in 1-second bench runs (six seeds, 2-CPU
# box) its peak RSS rose 0.65% in the median and 1.3% at most, against
# 0.26% and 0.56% at 2^13.
_MEMO_LIMIT = 1 << 13
# a featurizing pass takes whole texts up to this many characters, counting
# one more per text; a longer text is a pass of its own. A pass holds about
# 100 bytes of numpy arrays per character. In the same runs 2^12 kept the
# median peak RSS within 0.35% of featurizing text by text on both
# workloads, while 2^13 put two of six short runs 2.7% and 2.9% over.
_PASS_CHARS = 1 << 12


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


class _Memo:
    """The n-gram memo of a run of featurizing passes, for one feature config.

    ``grams`` maps a prefixed n-gram to its bucket id. A memo made without a
    config takes the config of the first model that scores through it.
    ``predict_batch`` reuses a memo only for a model of the same config,
    since bucket ids depend on the hash dimension, the seed and the n-gram
    sizes.
    """

    __slots__ = ("config", "grams")

    def __init__(self, config: FeatureConfig | None = None):
        self.config = config
        self.grams: dict[str, int] = {}


def _passes(texts):
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


def _featurize_each(texts, memo: _Memo):
    """Yield the ``featurize`` vector of each text in turn, under
    ``memo.config``.

    The texts are featurized a pass at a time (see ``_passes``), so the
    memory a call holds does not grow with the number of texts. A pass
    hashes only the n-grams ``memo.grams`` lacks: each character family is
    deduplicated in numpy first, so only its distinct n-grams are built as
    strings, and each family's n-grams are looked up together, with the
    misses hashed in one step (see ``_pass_keys`` and ``_hash_new``). The
    pass then counts the buckets of all its texts with one ``np.unique``
    over ``text * hash_dim + bucket``. A text's bucket counts are small
    integers, so counting them gives the same floats as adding ones, and
    each text's counts are normalized as a fresh array, as ``featurize``
    always did.
    """
    dim = memo.config.hash_dim
    for group in _passes(texts):
        keys, counts = np.unique(_pass_keys(group, memo), return_counts=True)
        bounds = np.searchsorted(keys, np.arange(len(group) + 1, dtype=np.int64) * dim)
        keys &= dim - 1
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if start == stop:
                yield SparseVector(np.empty(0, dtype=np.int64), np.empty(0), dim)
                continue
            values = counts[start:stop].astype(np.float64)
            values /= np.linalg.norm(values)
            yield SparseVector(keys[start:stop], values, dim)
        del keys, counts


def _hash_new(names: list, memo: _Memo) -> list:
    """The bucket ids of ``names``, distinct n-grams ``memo.grams`` lacks,
    hashed in one step and added to the memo.

    The 8-byte ``blake2b`` digests are joined and read as one array of
    little-endian integers and masked to ``hash_dim``, which gives each the
    bucket ``int.from_bytes`` would. The memo is cleared first if the new
    n-grams would not fit, and keeps at most ``_MEMO_LIMIT`` of them.
    """
    salt = memo.config.hash_seed.to_bytes(8, "little", signed=False)
    digests = b"".join([hashlib.blake2b(name.encode("utf-8"), digest_size=8, salt=salt).digest()
                        for name in names])
    buckets = (np.frombuffer(digests, "<u8") & (memo.config.hash_dim - 1)).tolist()
    grams = memo.grams
    if len(grams) + len(names) > _MEMO_LIMIT:
        grams.clear()
    grams.update(zip(names[:_MEMO_LIMIT], buckets[:_MEMO_LIMIT]))
    return buckets


def _pass_keys(texts, memo: _Memo) -> np.ndarray:
    """``i * hash_dim + bucket`` for every n-gram of every ``texts[i]``.

    The pass's word n-grams are looked up together, and so are the
    distinct n-grams of each character family; the ones the memo lacks
    are hashed in one step per family (``_hash_new``). The
    texts' characters are ranked by code point, and each window's key
    grows a character at a time as ``key * alphabet + rank``, so the
    windows of one size are equal exactly when their keys are. When a key
    would outgrow 63 bits, or the room ``_distinct`` leaves beside a
    position, every key is first replaced by its rank among the distinct
    keys, which keeps them exact for any alphabet and any n-gram size.
    """
    config = memo.config
    dim = config.hash_dim
    get = memo.grams.get
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    names, per_text = [], []
    if config.word_ngrams:
        families = [(n, f"w{n}\x00") for n in config.word_ngrams]
        for text in texts:
            words = text.split()
            before = len(names)
            for n, prefix in families:
                for i in range(len(words) - n + 1):
                    names.append(prefix + " ".join(words[i : i + n]))
            per_text.append(len(names) - before)
    keys = np.empty(len(names) + sum(int(np.maximum(lengths - n + 1, 0).sum())
                                     for n in config.char_ngrams), dtype=np.int64)
    filled = len(names)
    if names:
        words = keys[:filled]
        words[:] = np.fromiter(map(get, names, repeat(-1)), dtype=np.int64, count=filled)
        miss = words < 0
        if miss.any():  # a word n-gram can recur within a pass
            new = list(dict.fromkeys(compress(names, miss.tolist())))
            found = dict(zip(new, _hash_new(new, memo)))
            words[miss] = [found[name] for name in compress(names, miss.tolist())]
        words += np.repeat(np.arange(len(texts)) * dim, per_text)
    del names
    if filled == len(keys):
        return keys

    joined = "".join(texts)
    codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    total = len(codes)
    bits = total.bit_length()  # enough for any position in the pass
    alphabet, ranks = _distinct(codes.astype(np.int64), bits)
    width = len(alphabet)
    ranks = ranks.astype(np.int32)  # code points, and so ranks, lie below 2^21
    del alphabet, codes
    # a pass counts each text as at least one character, so text ids fit
    # in int32
    text_of = np.repeat(np.arange(len(texts), dtype=np.int32), lengths)
    key, span = ranks.astype(np.int64), width  # every key lies in [0, span)
    for n in range(1, max(config.char_ngrams) + 1):
        if n > 1:
            if span * width > 1 << 63:
                distinct, key = np.unique(key, return_inverse=True)
                span = len(distinct)
            grown = key[: max(total - n + 1, 0)]
            grown *= width
            grown += ranks[n - 1 :]
            span *= width
        times = config.char_ngrams.count(n)
        if not times:
            continue
        if span > 1 << (63 - bits):
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        # the windows that end in the text they start in
        at = np.flatnonzero(text_of[: max(total - n + 1, 0)] == text_of[n - 1 :])
        rows, inverse = _distinct(key[at], bits)
        prefix = f"c{n}\x00"
        names = [prefix + joined[i : i + n] for i in at[rows].tolist()]
        ids = np.fromiter(map(get, names, repeat(-1)), dtype=np.int64, count=len(names))
        miss = ids < 0
        if miss.any():
            ids[miss] = _hash_new(list(compress(names, miss.tolist())), memo)
        family = keys[filled : filled + len(at)]
        family[:] = text_of[at]
        family *= dim
        family += ids[inverse]
        filled += len(at)
        del at, rows, inverse, names, ids, miss
        for _ in range(1, times):  # a size listed twice counts twice
            keys[filled : filled + len(family)] = family
            filled += len(family)
    return keys


def _distinct(values: np.ndarray, bits: int):
    """(rows, inverse): the first index of each distinct value of
    ``values``, in value order, and the rank of each value among them.

    ``values`` must lie in ``[0, 2**(63 - bits))`` and number at most
    ``2**bits``. Each is shifted up with its index in the low ``bits`` and
    sorted in place, which finds both in one sort. ``np.unique``'s
    ``return_index``/``return_inverse`` would add a stable argsort, which
    was slower and held the bench's peak RSS about 0.7 MB higher.
    """
    packed = values << bits
    packed |= np.arange(len(values))
    packed.sort()
    at = packed & ((1 << bits) - 1)
    packed >>= bits
    new = np.empty(len(packed), dtype=bool)
    new[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    del packed
    inverse = np.empty(len(at), dtype=np.int64)
    inverse[at] = np.cumsum(new) - 1
    return at[new], inverse


def featurize_batch(texts, config: FeatureConfig | None = None) -> list:
    """``featurize`` of every text.

    The texts are featurized a pass of whole texts at a time, and an
    n-gram is hashed only when the memo lacks it. The memo, of at most
    ``_MEMO_LIMIT`` entries, carries bucket ids from one pass to the next;
    it is cleared when a pass's new n-grams would not fit, which bounds
    memory and changes no vector.
    """
    return list(_featurize_each(texts, _Memo(config or FeatureConfig())))


def featurize(text: str, config: FeatureConfig | None = None) -> SparseVector:
    """Hash word and character n-grams of a normalized text into counts.

    Word and character families are hashed in separate namespaces so a word
    bigram can never collide with a character trigram of the same letters.
    The count vector is L2-normalized; empty text gives the zero vector.
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


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
    """Return (label, probs) for one normalized text.

    Ties in the probability vector resolve to the lowest class index, so
    prediction is deterministic even for degenerate models.
    """
    return _predict_vector(model, featurize(text, model.feature_config))


def predict_batch(model, texts, memo: _Memo | None = None) -> list:
    """``predict`` of every text, as a list of (label, probs).

    The bundled classifier featurizes the texts a pass at a time through
    one n-gram memo (see ``_featurize_each``); any other model (the
    external backend contract: ``class_list`` plus ``predict(text)``) is
    asked text by text. A ``memo`` shared between calls carries the bucket
    ids one call worked out into the next; it is used only while its config
    matches the model's, and a fresh memo otherwise, so sharing one never
    changes a result.
    """
    if not isinstance(model, TrainedClassifier):
        return [model.predict(text) for text in texts]
    if memo is None or memo.config not in (None, model.feature_config):
        memo = _Memo(model.feature_config)
    memo.config = model.feature_config
    return [_predict_vector(model, vec) for vec in _featurize_each(texts, memo)]


def _predict_vector(model: TrainedClassifier, vec: SparseVector):
    logits = model.weights[:, vec.indices] @ vec.values + model.bias
    probs = _softmax(logits)
    return model.class_list[int(np.argmax(probs))], probs


def save(model: TrainedClassifier, path: str) -> None:
    """Write the versioned binary model file (little-endian, checksummed).

    The payload is checksummed and written from the arrays' own buffers, so
    a little-endian float64 model is saved without a copy of its weights.
    """
    weights = np.ascontiguousarray(model.weights, dtype="<f8")
    bias = np.ascontiguousarray(model.bias, dtype="<f8")
    header = {
        "class_list": list(model.class_list),
        "feature_config": {
            "hash_dim": model.feature_config.hash_dim,
            "word_ngrams": list(model.feature_config.word_ngrams),
            "char_ngrams": list(model.feature_config.char_ngrams),
            "hash_seed": model.feature_config.hash_seed,
        },
        "n_classes": len(model.class_list),
        "payload_crc32": zlib.crc32(bias, zlib.crc32(weights)),
        "training_log": model.training_log,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(weights)
        fh.write(bias)


def load(path: str) -> TrainedClassifier:
    """Read a model file back; bit-exact inverse of ``save``.

    The payload is read straight into the array that ``weights`` and
    ``bias`` are views of, so loading holds one copy of the weights.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(12)
            if len(head) < 12 or head[:4] != _MAGIC:
                raise ModelError(f"{path}: not a model file (bad magic)")
            (version,) = struct.unpack("<I", head[4:8])
            if version != _VERSION:
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
            except (ValueError, KeyError, TypeError) as exc:
                raise ModelError(f"{path}: corrupt header: {exc}") from exc

            k = len(class_list)
            payload_len = os.fstat(fh.fileno()).st_size - 12 - header_len
            expected_len = (k * fc.hash_dim + k) * 8
            if payload_len != expected_len:
                raise ModelError(
                    f"{path}: weight payload is {payload_len} bytes, expected {expected_len}"
                )
            values = np.empty(k * fc.hash_dim + k, dtype="<f8")
            if fh.readinto(values) != expected_len:
                raise ModelError(f"{path}: truncated weight payload")
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc

    if zlib.crc32(values) != crc_expected:
        raise ModelError(f"{path}: checksum mismatch, file is corrupt")
    values = values.astype(np.float64, copy=False)
    return TrainedClassifier(
        weights=values[: k * fc.hash_dim].reshape(k, fc.hash_dim),
        bias=values[k * fc.hash_dim :],
        class_list=class_list,
        feature_config=fc,
        training_log=header.get("training_log", []),
    )
