"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import random

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
