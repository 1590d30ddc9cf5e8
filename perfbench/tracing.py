"""Spans recorded around the package's public functions, from outside.

``Tracer.install`` replaces each listed function with a wrapper wherever a
caller looks it up: the defining module's attribute, and every other
``hatescan`` module that imported it by name (``pipeline.normalize``,
``pipeline.load_model`` and so on). Methods are replaced on their class.
``uninstall`` puts every original back.

A span has a name, start, end, parent span and an optional tag (a small
fact read off the arguments or result, such as the class count of a model).
Spans live in memory until the benchmark writes them out. A span opened in a
worker thread with no open span of its own takes the main thread's innermost
open span as parent, so the pipeline's thread pool is charged to
``run_corpus``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# Tag functions get (args, kwargs, result) and return a JSON-able fact.
def _k(args, kwargs, result):
    return len(args[0].class_list)


def _rows(args, kwargs, result):
    return len(result)


def _texts(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["texts"])


def _first_len(args, kwargs, result):
    return len(args[0])


def _workers(args, kwargs, result):
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    return [workers, result.total_posts]


def _train(args, kwargs, result):
    hp = args[2] if len(args) > 2 else kwargs.get("hp")
    batch = hp.batch_size if hp is not None else 8
    rows = len(args[0])
    epochs = sum(1 for e in result.training_log if "epoch" in e)
    return epochs * -(-rows // batch)


def _examples(args, kwargs, result):
    return result.n_examples


# (module, attribute, tag function) for every wrapped public function
TARGETS = (
    ("normalize", "normalize", None),
    ("normalize", "is_english", None),
    ("corpus", "load_examples", _rows),
    ("corpus", "split", None),
    ("model", "featurize", None),
    ("model", "predict", _k),
    ("model", "train", _train),
    ("model", "save", None),
    ("model", "load", None),
    ("topics", "fit_topics", _first_len),
    ("topics", "tune_params", None),
    ("topics", "cluster", None),
    ("topics", "TfidfProjectionEmbedder.embed", _texts),
    ("topics", "assign_topics", _texts),
    ("topics", "save_topics", None),
    ("topics", "load_topics", None),
    ("pipeline", "load_pipeline", None),
    ("pipeline", "run_corpus", _workers),
    ("evaluation", "evaluate", _examples),
    ("explain", "lime_explain", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(next(tracer._ids), name, parent.id if parent else None,
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if tag is not None:
                span.tag = tag(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hatescan" or key.startswith("hatescan."))]
        for layer, attr, tag in TARGETS:
            module = sys.modules[f"hatescan.{layer}"]
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, tag))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children from a thread pool overlap one another, so their intervals are
    merged before subtracting; sequential children reduce to a plain sum.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span.id] = span.duration - covered
    return out
