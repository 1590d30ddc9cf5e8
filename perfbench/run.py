"""The repository benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload short --seed 1 --seconds 25 --trace 0

Every run generates its inputs from the seed, in the post shape the workload
names (``short``: 6 to 12 tokens, ``long``: 13 to 40), then drives the
package through three phases:

- train: ``hatescan train`` of a detector and of a topic-aware target model,
  then, on the first pass, ``hatescan evaluate`` of each on a held-out file;
- scan: ``hatescan run`` over each part of a plain-text corpus, at
  ``--workers 1`` and at ``--workers`` equal to the usable CPU count;
- explain: ``lime_explain`` of each post in a fixed set, for the target
  model's predicted class.

A run repeats cycles of the three phases, at least ``MIN_CYCLES`` of them,
until they have run for ``--seconds``. CLI phases call ``hatescan.cli.main``
in-process, with the package imported from ``src/`` of the checkout this
file sits in. Set-up time is measured in fresh interpreters, two per cycle,
each against a package-independent reference interpreter. Train, scan and
explain times are stated at reference speed (see probe.py). With
``--trace 1`` the run makes one untraced and one traced pass of every phase
and reports per-layer metrics from the traced pass, together with the
tracing overhead.

The last line on stdout is the result as one JSON object. The exit code is
0 when every output check passed, 1 when one failed, 2 when the package
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

# the post shape of each workload, and on which cycles each post is
# explained: on every cycle, or, for the long shape, whose sampled
# explanations take about half a second each, on every fourth
WORKLOADS = {
    "short": {"sizes": gen.SHORT, "explain_stride": 1},
    "long": {"sizes": gen.LONG, "explain_stride": 4},
}
# A run makes at least this many cycles of every phase. Each short unit (a
# train command, a scan of one corpus part, one explanation) is timed on
# every cycle it runs in, and a metric takes the unit's median.
MIN_CYCLES = 4
# fresh set-up interpreters per cycle, each paired with a reference one
SETUP_PAIRS = 2
# set-up time is stated on a machine where the reference interpreter takes
# this long
SETUP_REF_S = 0.25
# the CLI defaults are 10 epochs at 1e-3; 3 epochs at 1e-2 reach a similar
# validation loss in less than half the time, which keeps a run short
TRAIN_FLAGS = ("--epochs", "3", "--lr", "0.01")
VAL_FRACTION = 0.2  # the CLI's --val-fraction default
# measured share minus planted share, as an absolute band
HATE_SHARE_BAND = 0.06
EXCLUDED_SHARE_BAND = 0.005  # English and non-English posts are exact by construction
F1_FLOOR = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "scan_posts_per_s": "posts/s",
    "scan_par_posts_per_s": "posts/s",
    "train_examples_per_s": "example-epochs/s",
    "detect_f1": "ratio",
    "target_macro_f1": "ratio",
    "explain_p50_ms": "ms",
    "explain_p75_ms": "ms",
    "scan_hate_share": "ratio",
    "scan_excluded_share": "ratio",
}

# runs in a fresh interpreter: import the package, then load what the timed
# phases need (normalizer tables, both models, the topic model, the labeled
# training files); prints the elapsed seconds
_SETUP_SNIPPET = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hatescan import cli, corpus, evaluation, explain, pipeline, topics
from hatescan.normalize import default_config
default_config()
pipeline.load_pipeline(pipeline.PipelineConfig(
    detector_path=sys.argv[2], target_model_path=sys.argv[3],
    topic_model_path=sys.argv[4]))
for path in sys.argv[5:]:
    corpus.load_examples(path)
print(time.perf_counter() - started)
"""

# the reference for set-up: a fresh interpreter that imports numpy and the
# standard modules the package uses, and reads a file of float64 the size of
# both models; it never touches the package, so a change to the package
# moves set-up and not this
_REFERENCE_SNIPPET = """
import sys, time
started = time.perf_counter()
import argparse, csv, dataclasses, hashlib, json, logging, random, struct, urllib.request
import numpy
with open(sys.argv[1], "rb") as fh:
    weights = numpy.frombuffer(fh.read(), dtype=numpy.float64).copy()
float(weights.sum())
print(time.perf_counter() - started)
"""


class CheckFailed(Exception):
    """A CLI command exited non-zero, so the run has no metrics to report."""


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of values, linearly interpolated between
    order statistics as ``statistics.quantiles(method="inclusive")`` does.

    A percentile is only reported with at least ten samples above its
    position, so n - 1 - floor((n - 1) * q) must be at least 10.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    xs = sorted(values)
    n = len(xs)
    pos = (n - 1) * q
    lo = math.floor(pos)
    if n - 1 - lo < 10:
        raise ValueError(f"{n} samples leave fewer than 10 beyond the {q:.0%} percentile")
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def json_sha256(path: str) -> str:
    """Digest of a JSON file with its keys sorted. The topic model file
    holds the same values from one process to the next, but not always in
    the same key order."""
    with open(path, encoding="utf-8") as fh:
        return sha256(json.dumps(json.load(fh), sort_keys=True).encode())


def training_epochs(path: str) -> int:
    """Epochs recorded in a model file's header (docs/formats/model-binary.md)."""
    with open(path, "rb") as fh:
        fh.seek(8)
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len))
    return sum(1 for entry in header["training_log"] if "epoch" in entry)


def import_package():
    """Import hatescan from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import hatescan
    import hatescan.cli
    import hatescan.corpus
    import hatescan.evaluation
    import hatescan.explain
    import hatescan.model
    import hatescan.normalize
    import hatescan.pipeline
    import hatescan.topics

    if not os.path.abspath(hatescan.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hatescan came from {hatescan.__file__}, not {SRC}")
    return hatescan


class Session:
    """One run's inputs, phase passes and accumulated measurements."""

    def __init__(self, hs, seed: int, workdir: str, workload: str):
        self.hs = hs
        self.workload = workload
        self.sizes = WORKLOADS[workload]["sizes"]
        self.explain_stride = WORKLOADS[workload]["explain_stride"]
        self.nproc = len(os.sched_getaffinity(0))
        self.inputs = gen.generate(seed, os.path.join(workdir, "in"), self.sizes)
        paths = self.inputs["paths"]
        self.reference_file = os.path.join(workdir, "in", "reference.bin")
        probe.numpy.random.default_rng(0).standard_normal(7 * 2**18).tofile(
            self.reference_file)
        out = os.path.join(workdir, "out")
        os.makedirs(out)
        self.files = {
            "detector": os.path.join(out, "detector.bin"),
            "target_model": os.path.join(out, "target.bin"),
            "topic_model": os.path.join(out, "topics.json"),
            "eval_detect": os.path.join(out, "eval_detect.json"),
            "eval_target": os.path.join(out, "eval_target.json"),
        }
        self.workers = sorted({1, self.nproc})
        self.report = os.path.join(out, "report.json")
        self.train_rows = {
            task: len(hs.corpus.split(
                hs.corpus.load_examples(paths[f"{task}_train"]),
                hs.corpus.SplitConfig(train_fraction=1.0 - VAL_FRACTION, seed=0))[0])
            for task in ("detect", "target")}
        self.commands = [
            ["train", "--task", "detect", "--weighted", "--in", paths["detect_train"],
             "--out", self.files["detector"], *TRAIN_FLAGS],
            ["train", "--task", "target", "--topic", "--in", paths["target_train"],
             "--topics-out", self.files["topic_model"],
             "--out", self.files["target_model"], *TRAIN_FLAGS],
        ]
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.checks: dict = {}
        self.clock = probe.Clock()
        self.wall = {"train": 0.0, "scan": 0.0, "explain": 0.0}
        # (start, end) of every timed unit, one per pass: per train command,
        # per worker count and corpus part, per explained post
        self.train_spans = [[] for _ in self.commands]
        self.scan_spans = {w: [[] for _ in paths["corpus"]] for w in self.workers}
        self.explain_spans = [[] for _ in self.inputs["explain"]]
        self.explanations: dict = {}  # post index -> its token weights as JSON
        self.setup_pairs: list = []  # (set-up, reference) seconds
        self.example_epochs = 0  # per pass, the same on every pass
        self.part_posts = [0] * len(paths["corpus"])
        self.quality: dict = {}
        self.target_model = None
        self.explain_classes = None

    # -------------------------------------------------------------- checks

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A check made on every pass fails if it fails on any one."""
        ok = bool(ok) and self.checks.get(name, {"ok": True})["ok"]
        self.checks[name] = {"ok": ok, "detail": detail}

    def record_digest(self, name: str, digest: str) -> None:
        """The first digest of a name is the reference; any later pass,
        traced or not, must reproduce it."""
        first = self.digests.setdefault(name, digest)
        self.check(f"{name} identical on every pass", first == digest,
                   "" if first == digest else f"{first} then {digest}")

    def timed(self, phase: str, fn, *args, kind=1):
        """Returns (result, (start, end)) of one unit, probed with this kind
        of probe (see probe.Clock)."""
        result, span = self.clock.measure(fn, *args, kind=kind)
        self.wall[phase] += span[1] - span[0]
        return result, span

    def cli(self, phase: str, argv, kind=1):
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code, span = self.timed(phase, self.hs.cli.main, list(argv), kind=kind)
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"hatescan {' '.join(argv[:3])} exited with {code}")
        return span

    # -------------------------------------------------------------- phases

    def train(self, evaluate: bool = False) -> float:
        """Both train commands; with evaluate, then both evaluate commands.
        The models are identical on every pass (checked by digest), so
        their evaluation is too."""
        files = self.files
        paths = self.inputs["paths"]
        before = self.wall["train"]
        for cmd, spans in zip(self.commands, self.train_spans):
            spans.append(self.cli("train", cmd, kind="train"))
        self.example_epochs = (
            self.train_rows["detect"] * training_epochs(files["detector"])
            + self.train_rows["target"] * training_epochs(files["target_model"]))
        for name in ("detector", "target_model"):
            self.record_digest(name, file_sha256(files[name]))
        self.record_digest("topic_model", json_sha256(files["topic_model"]))
        if evaluate:
            self.cli("train", [
                "evaluate", "--model", files["detector"], "--data", paths["detect_heldout"],
                "--positive", "hate", "--format", "json", "--out", files["eval_detect"]])
            self.cli("train", [
                "evaluate", "--model", files["target_model"],
                "--data", paths["target_heldout"], "--topics", files["topic_model"],
                "--format", "json", "--out", files["eval_target"]])
            for key, name in (("detect_f1", "eval_detect"),
                              ("target_macro_f1", "eval_target")):
                with open(files[name], encoding="utf-8") as fh:
                    self.quality[key] = json.load(fh)["f1"]
        return self.wall["train"] - before

    def scan(self) -> float:
        """Each corpus part at every worker count; the reports of one part
        must match byte for byte."""
        before = self.wall["scan"]
        counts: dict = {}
        digest = hashlib.sha256()
        for part, corpus in enumerate(self.inputs["paths"]["corpus"]):
            blobs = set()
            for workers in self.workers:
                span = self.cli("scan", [
                    "run", "--corpus", corpus, "--detector", self.files["detector"],
                    "--target-model", self.files["target_model"],
                    "--topics", self.files["topic_model"],
                    "--workers", str(workers), "--out", self.report], kind=workers)
                self.scan_spans[workers][part].append(span)
                with open(self.report, "rb") as fh:
                    blobs.add(fh.read())
            self.check("scan report identical at workers 1 and nproc", len(blobs) == 1)
            blob = blobs.pop()
            digest.update(blob)
            doc = json.loads(blob)
            self.part_posts[part] = doc["total_posts"]
            for key in ("total_posts", "hateful_posts", "excluded_posts", "failed_posts"):
                counts[key] = counts.get(key, 0) + doc[key]
        self.attempted += counts["total_posts"] * len(self.workers)
        self.failed += counts["failed_posts"] * len(self.workers)
        self.record_digest("report_json", digest.hexdigest())
        self.quality["scan_hate_share"] = counts["hateful_posts"] / counts["total_posts"]
        self.quality["scan_excluded_share"] = counts["excluded_posts"] / counts["total_posts"]
        return self.wall["scan"] - before

    def load_explain_inputs(self) -> None:
        """Load the target model and pick each post's class, untimed."""
        hs = self.hs
        self.target_model = hs.model.load(self.files["target_model"])
        self.explain_classes = [
            self.target_model.predict(str(hs.normalize.normalize(post.raw)))[0]
            for post in self.inputs["explain"]]

    def explain(self, cycle: int | None = None) -> float:
        """Explain the posts due on this cycle, or every post without one.
        A post explained again must get the same token weights."""
        lime_explain = self.hs.explain.lime_explain
        before = self.wall["explain"]
        for i, (post, cls) in enumerate(zip(self.inputs["explain"], self.explain_classes)):
            if cycle is not None and i % self.explain_stride != cycle % self.explain_stride:
                continue
            self.attempted += 1
            try:
                result, span = self.timed("explain", lime_explain,
                                          self.target_model, post.raw, cls)
            except Exception as exc:  # noqa: BLE001 - counted, never fatal
                self.failed += 1
                weights = repr(exc)
            else:
                self.explain_spans[i].append(span)
                weights = json.dumps([result.target_class, result.intercept,
                                      [list(tw) for tw in result.token_weights]])
            first = self.explanations.setdefault(i, weights)
            self.check("explanations identical on every pass", first == weights,
                       "" if first == weights else f"post {i} changed")
        return self.wall["explain"] - before

    def measure_setup(self, cycle: int) -> None:
        """SETUP_PAIRS fresh set-up interpreters, each with a reference one
        next to it, in alternating order. A fresh process spends much of its
        set-up starting, importing and faulting in memory, which slows down
        with the machine in a way the in-process probe does not follow; the
        reference interpreter does the same kinds of work, so the ratio of
        the two swings far less than either."""
        paths = self.inputs["paths"]
        setup = [sys.executable, "-c", _SETUP_SNIPPET, SRC, self.files["detector"],
                 self.files["target_model"], self.files["topic_model"],
                 paths["detect_train"], paths["target_train"]]
        reference = [sys.executable, "-c", _REFERENCE_SNIPPET, self.reference_file]

        def seconds(argv):
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=120, check=True)
            return float(done.stdout)

        for pair in range(SETUP_PAIRS):
            if (cycle + pair) % 2:
                ref = seconds(reference)
                own = seconds(setup)
            else:
                own = seconds(setup)
                ref = seconds(reference)
            self.setup_pairs.append((own, ref))

    def pass_all(self, evaluate: bool = False, cycle: int | None = None) -> dict:
        """One pass of every phase; returns the wall seconds of each. The
        explanation inputs are loaded, untimed, once the first models exist.
        A cycle of an untraced run also measures set-up, untimed, after
        training; the passes of a traced run, given no cycle, skip it."""
        walls = {"train": self.train(evaluate)}
        if self.target_model is None:
            self.load_explain_inputs()
        if cycle is not None:
            self.measure_setup(cycle)
        walls["scan"] = self.scan()
        walls["explain"] = self.explain(cycle)
        return walls

    # ------------------------------------------------------------- results

    def output_checks(self, planted: dict) -> None:
        """The checks made once at the end; the explanation digest is taken
        here, once every post has been explained."""
        explained = [self.explanations.get(i) for i in range(len(self.inputs["explain"]))]
        self.digests["explanations"] = sha256(json.dumps(explained).encode())
        q = self.quality
        self.check("scan hate share within band of planted",
                   abs(q["scan_hate_share"] - planted["hate_share"]) <= HATE_SHARE_BAND,
                   f"{q['scan_hate_share']:.4f} vs {planted['hate_share']:.4f}")
        self.check("scan excluded share within band of planted",
                   abs(q["scan_excluded_share"] - planted["excluded_share"])
                   <= EXCLUDED_SHARE_BAND,
                   f"{q['scan_excluded_share']:.4f} vs {planted['excluded_share']:.4f}")
        for key in ("detect_f1", "target_macro_f1"):
            self.check(f"{key} above {F1_FLOOR}", q[key] > F1_FLOOR, f"{q[key]:.4f}")
        self.check("no operation failed", self.failed == 0,
                   f"{self.failed} of {self.attempted}")

    def unit_seconds(self) -> dict:
        """Every unit's time per pass, at reference speed. Training is
        compared with the training probe: over 74 repeats of one command,
        dividing by the CPU probe widened the quartile spread from 0.11 to
        0.18, while over 30 repeats of both commands, dividing by the
        training probe narrowed it from 0.077 to 0.046."""
        ref = self.clock.reference_seconds
        return {
            "train": [[ref(s, "train") for s in spans] for spans in self.train_spans],
            "scan": {w: [[ref(s, w) for s in spans] for spans in parts]
                     for w, parts in self.scan_spans.items()},
            "explain": [[ref(s) for s in spans] for spans in self.explain_spans],
        }

    def end_to_end(self) -> dict:
        units = self.unit_seconds()
        median = statistics.median
        serial, par = 1, self.workers[-1]
        per_post = [median(times) for times in units["explain"] if times]
        values = {
            "setup_s": SETUP_REF_S * median(own / ref for own, ref in self.setup_pairs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": (self.attempted - self.failed) / self.attempted,
            "scan_posts_per_s": sum(self.part_posts) / sum(map(median, units["scan"][serial])),
            "scan_par_posts_per_s": sum(self.part_posts) / sum(map(median, units["scan"][par])),
            "train_examples_per_s": self.example_epochs / sum(map(median, units["train"])),
            "explain_p50_ms": 1000 * percentile(per_post, 0.50),
            "explain_p75_ms": 1000 * percentile(per_post, 0.75),
            **self.quality,
        }
        return {name: values[name] for name in END_TO_END_UNITS}

    def exhaustive_share(self) -> float:
        limit = self.hs.explain.EXHAUSTIVE_TOKEN_LIMIT
        explain = self.inputs["explain"]
        return sum(len(p.normalized.split()) <= limit for p in explain) / len(explain)

    def facts(self, seed: int) -> dict:
        explain = self.inputs["explain"]
        sizes = self.sizes
        return {
            "workload": self.workload,
            "nproc": self.nproc,
            "python": platform.python_version(),
            "numpy": probe.numpy.__version__,
            "seed": seed,
            "inputs": {
                "post_tokens": list(sizes.post_tokens),
                "scan_posts": sizes.corpus_posts,
                "train_rows": {"detect": sizes.detect_rows, "target": sizes.target_rows},
                "train_split_rows": self.train_rows,
                "heldout_rows": {"detect": sizes.detect_heldout,
                                 "target": sizes.target_heldout},
                "fit_rows": self.train_rows["target"],
                "explained_posts": len(explain),
                "explanations": sum(map(len, self.explain_spans)),
                "explained_tokens_mean": statistics.fmean(
                    len(p.normalized.split()) for p in explain),
                "exhaustive_share": self.exhaustive_share(),
            },
        }


def layer_metrics(spans, untraced: dict, traced: dict, session: Session) -> dict:
    """Per-layer numbers from one traced pass of every phase."""
    own = tracing.self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name, tag=None):
        return [s for s in by_name.get(name, ()) if tag is None or s.tag == tag]

    def total(name, tag=None):
        return sum(s.duration for s in calls(name, tag))

    def per_s(name, tag=None):
        spans_ = calls(name, tag)
        return len(spans_) / total(name, tag) if spans_ else 0.0

    def self_s(layer):
        return sum(own[s.id] for s in spans if s.name.split(".")[0] == layer)

    def mean_ms(name):
        spans_ = calls(name)
        return 1000 * total(name) / len(spans_) if spans_ else 0.0

    def tagged_rate(name):
        spans_ = calls(name)
        return sum(s.tag for s in spans_) / total(name) if spans_ else 0.0

    ids = {s.id: s for s in spans}

    def inside(span, ancestor_name):
        parent = ids.get(span.parent)
        while parent is not None:
            if parent.name == ancestor_name:
                return True
            parent = ids.get(parent.parent)
        return False

    train_featurize = sum(s.duration for s in calls("model.featurize")
                          if inside(s, "model.train"))
    batches = sum(s.tag for s in calls("model.train"))
    explain_predicts = sum(1 for s in calls("model.predict") if inside(s, "explain.lime_explain"))
    def corpus_rate(workers):
        runs = [s for s in calls("pipeline.run_corpus") if s.tag[0] == workers]
        return sum(s.tag[1] for s in runs) / sum(s.duration for s in runs)

    serial_rate, par_rate = corpus_rate(1), corpus_rate(session.workers[-1])
    untraced_wall = sum(untraced.values())
    traced_wall = sum(traced.values())
    return {
        "normalize.per_s": per_s("normalize.normalize"),
        "normalize.self_s": self_s("normalize"),
        "normalize.is_english_per_s": per_s("normalize.is_english"),
        "model.featurize_per_s": per_s("model.featurize"),
        "model.featurize_calls": len(calls("model.featurize")),
        "model.predict_k2_per_s": per_s("model.predict", 2),
        "model.predict_k5_per_s": per_s("model.predict", 5),
        "model.train_ms_per_batch": 1000 * (total("model.train") - train_featurize) / batches,
        "model.train_batches": batches,
        "model.load_ms": mean_ms("model.load"),
        "model.save_ms": mean_ms("model.save"),
        "model.self_s": self_s("model"),
        "topics.fit_s": total("topics.fit_topics"),
        "topics.tune_params_s": total("topics.tune_params"),
        "topics.cluster_s": total("topics.cluster"),
        "topics.cluster_calls": len(calls("topics.cluster")),
        "topics.fit_rows": sum(s.tag for s in calls("topics.fit_topics")),
        "topics.embed_per_s": tagged_rate("topics.embed"),
        "topics.assign_per_s": tagged_rate("topics.assign_topics"),
        "topics.self_s": self_s("topics"),
        "pipeline.load_pipeline_s": total("pipeline.load_pipeline"),
        "pipeline.run_corpus_s": total("pipeline.run_corpus"),
        "pipeline.serial_posts_per_s": serial_rate,
        "pipeline.par_posts_per_s": par_rate,
        "pipeline.par_speedup": par_rate / serial_rate,
        "pipeline.self_s": self_s("pipeline"),
        "corpus.load_examples_per_s": tagged_rate("corpus.load_examples"),
        "corpus.split_s": total("corpus.split"),
        "evaluation.evaluate_per_s": tagged_rate("evaluation.evaluate"),
        "explain.lime_explain_ms": mean_ms("explain.lime_explain"),
        "explain.predict_calls_per_explanation":
            explain_predicts / len(calls("explain.lime_explain")),
        "explain.exhaustive_share": session.exhaustive_share(),
        "explain.self_s": self_s("explain"),
        "cli.self_s": self_s("cli"),
        "trace.spans": len(spans),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
    }


LAYER_UNITS = {
    "per_s": "1/s", "_calls": "count", "_batches": "count", "_rows": "count",
    "_ms": "ms", "_ms_per_batch": "ms", "_s": "s", "_speedup": "ratio",
    "_share": "ratio", "per_explanation": "count", "spans": "count",
}


def layer_unit(name: str) -> str:
    for suffix, unit in sorted(LAYER_UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def report(name: str, session: Session, metrics: dict, units: dict, facts: dict,
           spans=None) -> dict:
    """Print every check, digest and metric by name, write the results file,
    and return the result object."""
    print(f"perfbench {name}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for key, digest in sorted(session.digests.items()):
        print(f"digest {key} sha256:{digest}")
    for check, c in session.checks.items():
        print(f"check {'ok' if c['ok'] else 'FAILED'}: {check} {c['detail']}".rstrip())
    for key, value in metrics.items():
        print(f"metric {key} = {value:.6g} {units[key]}")
    result = {
        "correct": all(c["ok"] for c in session.checks.values()),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    doc = {"result": result, "facts": facts, "digests": session.digests,
           "checks": session.checks,
           "phase_wall_s": session.wall, "unit_seconds": session.unit_seconds(),
           "setup_pairs_s": session.setup_pairs}
    with open(os.path.join(WORK, f"result-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(WORK, f"spans-{name}.json"), "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in spans], fh)
    return result


def measure(session: Session, seconds: float, traced: bool):
    """Run the phases; returns (metrics, units, spans or None)."""
    if traced:
        untraced = session.pass_all(evaluate=True)
        with tracing.Tracer() as tracer:
            again = session.pass_all(evaluate=True)
        session.output_checks(session.inputs["planted"])
        metrics = layer_metrics(tracer.spans, untraced, again, session)
        return metrics, {k: layer_unit(k) for k in metrics}, tracer.spans
    spent = 0.0
    for cycle in itertools.count():
        spent += sum(session.pass_all(evaluate=cycle == 0, cycle=cycle).values())
        if cycle + 1 >= MIN_CYCLES and spent >= seconds:
            break
    session.output_checks(session.inputs["planted"])
    return session.end_to_end(), END_TO_END_UNITS, None


def run(args) -> int:
    try:
        hs = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import hatescan from {SRC}: {exc}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        session = Session(hs, args.seed, workdir, args.workload)
        try:
            metrics, units, spans = measure(session, args.seconds, bool(args.trace))
        except CheckFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result = report(name, session, metrics, units, session.facts(args.seed), spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
