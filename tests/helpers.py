"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import random
import re

import numpy as np

from hatescan.model import (
    FeatureConfig,
    Hyperparams,
    TrainedClassifier,
    _AdamState,
    _EarlyStopTracker,
    _epoch_pass,
    _example_label,
    _SgdState,
    class_weights,
    featurize_batch,
)
from hatescan.normalize import NormalizedText, NormalizerConfig, default_config

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def unescape(fieldtext: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(fieldtext):
        ch = fieldtext[i]
        if ch == "\\" and i + 1 < len(fieldtext):
            nxt = fieldtext[i + 1]
            if nxt in "tn\\":
                out.append({"t": "\t", "n": "\n", "\\": "\\"}[nxt])
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def load_golden_pairs(filename: str = "normalize_golden.tsv") -> list[tuple[str, str]]:
    pairs = []
    with open(os.path.join(DATA_DIR, filename), encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            raw, want = line.split("\t")
            pairs.append((unescape(raw), unescape(want)))
    return pairs


_WS_SPLIT_RE = re.compile(r"(\s+)")
_TIME_RE = re.compile(r"(?<=\d)([ap]\.m\.)")


def _map_tokens(text: str, fn) -> str:
    # preserves the original whitespace between tokens
    parts = _WS_SPLIT_RE.split(text)
    return "".join(p if i % 2 else fn(p) for i, p in enumerate(parts))


def _reference_entities(text: str, config: NormalizerConfig) -> str:
    def sub(token: str) -> str:
        if len(token) > 1 and token[0] == "@":
            return config.placeholder_user
        if len(token) > 1 and token[0] == "#":
            return config.placeholder_hashtag
        if token.lower().startswith(("http://", "https://", "www.")):
            return config.placeholder_url
        return token

    return _map_tokens(text, sub)


def _reference_demojize(text: str, config: NormalizerConfig) -> str:
    table = config.emoji_table
    first_chars = frozenset(k[0] for k in table)
    max_len = max(len(k) for k in table)
    out: list[str] = []
    pending_space = False
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in first_chars:
            for length in range(min(max_len, n - i), 0, -1):
                name = table.get(text[i : i + length])
                if name is not None:
                    if out and not out[-1].isspace():
                        out.append(" ")
                    out.append(name)
                    pending_space = True
                    i += length
                    break
            else:
                if pending_space and not ch.isspace():
                    out.append(" ")
                out.append(ch)
                pending_space = False
                i += 1
        else:
            if pending_space and not ch.isspace():
                out.append(" ")
            out.append(ch)
            pending_space = False
            i += 1
    return "".join(out)


def reference_normalize(text: str, config: NormalizerConfig | None = None) -> NormalizedText:
    """Reference normalizer: the stages of ``normalize`` run one after the
    other over the whole text, each splitting and rejoining it.

    Entity replacement, lowercasing (placeholders exempt), emoji naming,
    character folding, entity replacement again, contraction splitting,
    time-expression spacing, whitespace collapse. ``normalize`` must return
    the same string for every config it accepts.
    """
    if config is None:
        config = default_config()
    placeholders = frozenset(config.placeholders)
    clitics = sorted(config.contraction_table.items(), key=lambda kv: -len(kv[0]))

    def lower(token: str) -> str:
        return token if token in placeholders else token.lower()

    def split_contraction(token: str) -> str:
        for clitic, split_form in clitics:
            if token.endswith(clitic) and len(token) > len(clitic):
                return token[: -len(clitic)] + " " + split_form
        return token

    text = _reference_entities(text, config)
    text = _map_tokens(text, lower)
    text = _reference_demojize(text, config)
    text = text.translate({ord(k): v for k, v in config.folding_table.items()})
    text = _reference_entities(text, config)
    text = _map_tokens(text, split_contraction)
    text = _TIME_RE.sub(r" \1", text)
    return NormalizedText(" ".join(text.split()))


class PredictOnly:
    """A model seen only through the external backend contract, class_list
    plus predict(text), so every consumer takes its per-text path."""

    def __init__(self, model):
        self.class_list = model.class_list
        self.texts: list[str] = []
        self._model = model

    def predict(self, text: str):
        self.texts.append(text)
        return self._model.predict(text)


def dense_train(train_examples, val_examples, hp: Hyperparams, fc: FeatureConfig):
    """Reference trainer: ``model.train`` as it ran on full-width weights.

    The same epoch loop, optimizer state, early stopping and best-epoch
    snapshot, but every array spans all ``hash_dim`` columns, so
    ``model.train`` must produce the same bytes.
    """
    class_list = tuple(sorted({_example_label(e) for e in train_examples}))
    index = {label: i for i, label in enumerate(class_list)}
    labels = [index[_example_label(e)] for e in train_examples]
    val_labels = [index[_example_label(e)] for e in val_examples]
    if hp.weighted_loss:
        counts: dict = {}
        for e in train_examples:
            counts[_example_label(e)] = counts.get(_example_label(e), 0) + 1
        by_label = class_weights(counts)
        weights_vec = np.array([by_label[c] for c in class_list])
    else:
        weights_vec = np.ones(len(class_list))
    feats = featurize_batch([e.text for e in train_examples], fc)
    val_feats = featurize_batch([e.text for e in val_examples], fc)

    w = np.zeros((len(class_list), fc.hash_dim))
    b = np.zeros(len(class_list))
    rng = random.Random(hp.seed)
    opt = _AdamState(w, b, hp) if hp.optimizer == "adam" else _SgdState(hp)
    tracker = _EarlyStopTracker(hp.early_stop_patience)
    best = (w.copy(), b.copy())
    log = []
    for epoch in range(1, hp.max_epochs + 1):
        loss, acc = _epoch_pass(w, b, feats, labels, weights_vec, hp, rng=rng, opt=opt)
        entry = {"epoch": epoch, "train_loss": float(loss), "train_accuracy": float(acc),
                 "val_loss": None, "val_accuracy": None}
        stop = False
        if val_examples:
            val_loss, val_acc = _epoch_pass(w, b, val_feats, val_labels, weights_vec, hp)
            entry["val_loss"], entry["val_accuracy"] = float(val_loss), float(val_acc)
            stop = tracker.update(val_loss, epoch)
            if tracker.best_epoch == epoch:
                best = (w.copy(), b.copy())
        log.append(entry)
        if stop:
            break
    if val_examples:
        w, b = best
    return TrainedClassifier(weights=w, bias=b, class_list=class_list,
                             feature_config=fc, training_log=log)
