"""Shared helpers for the test suite."""

from __future__ import annotations

import os

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
