"""Command line entry points.

Subcommands cover the whole workflow: ingest raw corpora into a unified
examples format, normalize text, augment a training file through back
translation, fit and apply topic models, train and evaluate classifiers,
stream a corpus through the two-stage pipeline, explain single predictions,
and re-render distribution reports.

Configuration can come from a plain key=value file (--config); explicit
flags always win. Exit codes: 0 success, 1 usage error, 2 data error,
3 model error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .corpus import (
    SplitConfig,
    _peek_keys,
    binarize,
    load_dialoconan,
    load_examples,
    load_hatexplain,
    load_parler,
    load_tap,
    load_toxigen,
    save_examples,
    split,
)
from .distribution import RENDERERS, distribution_from_dict
from .errors import DataError, ModelError
from .normalize import normalize

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ----------------------------------------------------------------- config

def _read_config(path: str) -> dict:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(action: argparse.Action, raw: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return isinstance(action, argparse._StoreTrueAction)
        if lowered in ("0", "false", "no", "off"):
            return not isinstance(action, argparse._StoreTrueAction)
        raise UsageError(f"config key {action.dest!r} expects a boolean, got {raw!r}")
    if action.choices is not None and raw not in [str(c) for c in action.choices]:
        raise UsageError(
            f"config key {action.dest!r}: {raw!r} not in {list(action.choices)}")
    if action.type is not None:
        try:
            return action.type(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(
                f"config key {action.dest!r}: cannot parse {raw!r}: {exc}") from exc
    return raw


def _apply_config(subparsers: dict, values: dict) -> None:
    """Install config values as subparser defaults; explicit flags still win."""
    for key, raw in values.items():
        matched = False
        for sub in subparsers.values():
            for action in sub._actions:
                if action.dest == key:
                    sub.set_defaults(**{key: _coerce(action, raw)})
                    matched = True
        if not matched:
            raise UsageError(f"unknown config key: {key}")


def _prescan_config(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


# ----------------------------------------------------------------- helpers

def _report_diagnostics(loaded, label: str) -> None:
    if loaded.errors:
        logger.warning("%s: %d rows rejected (first: row %d: %s)", label,
                       len(loaded.errors), loaded.errors[0].row,
                       loaded.errors[0].message)
    for kind, count in loaded.warnings.items():
        logger.warning("%s: %s x%d", label, kind, count)
    dropped = getattr(loaded, "dropped_no_majority", 0)
    if dropped:
        logger.warning("%s: %d rows dropped without a majority vote", label, dropped)


def _binarize_labeled(posts, threshold: int, path: str) -> list:
    """Binarize Parler posts at the threshold, skipping unlabeled ones."""
    rows, unlabeled = [], 0
    for post in posts:
        try:
            rows.append(binarize(post, threshold))
        except DataError:
            unlabeled += 1
    if unlabeled:
        logger.warning("%s: %d unlabeled posts skipped", path, unlabeled)
    return rows


def _load_training_rows(path: str, task: str, threshold: int,
                        keep_politician: bool):
    """Accept unified example files, raw labeled Parler, or raw TAP.

    Anything else should go through `ingest` first.
    """
    keys = _peek_keys(path)
    if task == "detect":
        if "label_mean" in keys:
            posts = load_parler(path)
            _report_diagnostics(posts, path)
            rows = _binarize_labeled(posts, threshold, path)
            if not rows:
                raise DataError(f"{path}: no labeled posts at threshold {threshold}")
            return rows
        if "label" in keys:
            loaded = load_examples(path)
            _report_diagnostics(loaded, path)
            if loaded and not hasattr(loaded[0], "label"):
                raise DataError(f"{path}: contains target rows, not labels")
            return list(loaded)
        raise DataError(
            f"{path}: not a detection dataset (need label or label_mean rows); "
            "run `ingest` first")
    # target task
    if "target" in keys and "origin" in keys:
        loaded = load_examples(path)
        _report_diagnostics(loaded, path)
        if loaded and not hasattr(loaded[0], "target"):
            raise DataError(f"{path}: contains label rows, not targets")
        return list(loaded)
    if "target" in keys:
        loaded = load_tap(path, fold_politician=not keep_politician)
        _report_diagnostics(loaded, path)
        return list(loaded)
    raise DataError(
        f"{path}: not a target dataset (need target rows); run `ingest` first")


def _make_client(args):
    if getattr(args, "script", None) and getattr(args, "url", None):
        raise UsageError("give either --script or --url, not both")
    if getattr(args, "script", None):
        from .augment import ScriptedClient

        return ScriptedClient(args.script)
    if getattr(args, "url", None):
        from .augment import HttpTranslationClient

        return HttpTranslationClient(args.url)
    raise UsageError("back translation needs --script TSV or --url endpoint")


def _parse_langs(raw: str) -> frozenset:
    langs = frozenset(x.strip() for x in raw.split(",") if x.strip())
    if not langs:
        raise UsageError("--langs must name at least one language")
    return langs


def _parse_grid(raw: str | None):
    if not raw:
        return None
    from .topics import ClusterParams

    grid = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            mcs, _, ms = chunk.partition(":")
            grid.append(ClusterParams(int(mcs), int(ms)))
        except ValueError as exc:
            raise UsageError(
                f"bad grid entry {chunk!r} (want min_cluster_size:min_samples)"
            ) from exc
    if not grid:
        raise UsageError("--grid parsed to an empty grid")
    return grid


def _read_texts(path: str):
    """Texts from a unified examples file, raw Parler, or plain lines.

    A plain-text file is opened here, so a missing file fails at once, and
    its non-blank lines are then yielded one at a time; the other formats
    come back as lists.
    """
    if path.endswith(".txt"):
        return _nonblank_lines(open(path, encoding="utf-8"))
    keys = _peek_keys(path)
    if "label_mean" in keys or "id" in keys:
        posts = load_parler(path)
        _report_diagnostics(posts, path)
        return [post.text for post in posts]
    loaded = load_examples(path)
    _report_diagnostics(loaded, path)
    return [e.text for e in loaded]


def _nonblank_lines(fh):
    with fh:
        for line in fh:
            if line.strip():
                yield line.rstrip("\n")


def _write_or_print(content: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _run_config_entry(model) -> dict:
    for entry in model.training_log:
        if isinstance(entry, dict) and "run_config" in entry:
            return entry["run_config"]
    return {}


# ----------------------------------------------------------------- commands

def cmd_ingest(args) -> int:
    loaders = {
        "parler": lambda: load_parler(args.infile),
        "hatexplain": lambda: load_hatexplain(args.infile),
        "dialoconan": lambda: load_dialoconan(args.infile),
        "toxigen-small": lambda: load_toxigen(args.infile, "small"),
        "toxigen-large": lambda: load_toxigen(args.infile, "large"),
        "tap": lambda: load_tap(args.infile, fold_politician=not args.keep_politician),
    }
    loaded = loaders[args.format]()
    _report_diagnostics(loaded, args.infile)
    if args.format == "parler":
        rows = _binarize_labeled(loaded, args.threshold, args.infile)
    else:
        rows = list(loaded)
    save_examples(rows, args.out)
    print(f"wrote {len(rows)} examples to {args.out}")
    return 0


def cmd_normalize(args) -> int:
    if args.text is not None:
        print(str(normalize(args.text)))
        return 0
    if not args.infile:
        raise UsageError("normalize needs --text or --in")
    with open(args.infile, encoding="utf-8") as fh:
        lines = [str(normalize(line.rstrip("\n"))) for line in fh]
    _write_or_print("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_augment(args) -> int:
    from .augment import AugmentConfig, augment_dataset

    client = _make_client(args)
    loaded = load_examples(args.infile)
    _report_diagnostics(loaded, args.infile)
    config = AugmentConfig(languages=_parse_langs(args.langs),
                           max_parallel=args.max_parallel)
    out = augment_dataset(list(loaded), config, client)
    save_examples(out, args.out)
    added = len(out) - len(loaded)
    print(f"wrote {len(out)} examples to {args.out} "
          f"({len(loaded)} original + {added} augmented)")
    for lang in sorted(config.languages):
        if out.failures[lang]:
            print(f"  {lang}: {out.failures[lang]} failed round trips")
    return 0


def cmd_topics_fit(args) -> int:
    from .topics import OUTLIER, TfidfProjectionEmbedder, fit_topics, save_topics

    texts = list(_read_texts(args.infile))
    embedder = TfidfProjectionEmbedder(dim=args.dim, seed=args.seed)
    model = fit_topics(texts, embedder=embedder, grid=_parse_grid(args.grid),
                       min_samples_floor=args.min_samples_floor)
    save_topics(model, args.out)
    outliers = sum(1 for lab in model.labels if lab == OUTLIER)
    print(f"fit {len(model.centroids)} topics over {len(texts)} texts "
          f"({outliers} outliers); params {model.params.min_cluster_size}:"
          f"{model.params.min_samples}")
    for topic in sorted(model.names):
        if topic != OUTLIER:
            print(f"  {model.names[topic]}")
    return 0


def cmd_topics_assign(args) -> int:
    from .topics import assign_topics, load_topics

    model = load_topics(args.model)
    texts = list(_read_texts(args.infile))
    labels = assign_topics(model, texts)
    rows = [{"text": t, "topic": lab, "topic_name": model.names.get(lab, "")}
            for t, lab in zip(texts, labels)]
    content = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)
    _write_or_print(content, args.out)
    return 0


def cmd_train(args) -> int:
    from .model import FeatureConfig, Hyperparams, save, train

    if args.topic and not args.topics_out:
        raise UsageError("--topic needs --topics-out to store the topic model")

    rows = _load_training_rows(args.infile, args.task, args.threshold,
                               args.keep_politician)
    train_rows, val_rows = split(
        rows, SplitConfig(train_fraction=1.0 - args.val_fraction, seed=args.seed))
    logger.info("split: %d train / %d val", len(train_rows), len(val_rows))

    back_translated = False
    if args.backtranslate:
        from .augment import AugmentConfig, augment_dataset

        client = _make_client(args)
        config = AugmentConfig(languages=_parse_langs(args.langs),
                               max_parallel=args.max_parallel)
        augmented = augment_dataset(train_rows, config, client)
        logger.info("augmentation: %d -> %d train rows",
                    len(train_rows), len(augmented))
        train_rows = list(augmented)
        back_translated = True

    if args.topic:
        from .topics import assign_topics, concat_topic, fit_topics, save_topics

        topic_model = fit_topics([e.text for e in train_rows])
        save_topics(topic_model, args.topics_out)
        train_rows = [
            _with_text(e, concat_topic(e.text, topic_model, lab))
            for e, lab in zip(train_rows, topic_model.labels)
        ]
        val_labels = assign_topics(topic_model, [e.text for e in val_rows])
        val_rows = [
            _with_text(e, concat_topic(e.text, topic_model, lab))
            for e, lab in zip(val_rows, val_labels)
        ]

    hp = Hyperparams(
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        learning_rate=args.lr,
        early_stop_patience=args.patience,
        weighted_loss=args.weighted,
        seed=args.seed,
        optimizer=args.optimizer,
    )
    fc = FeatureConfig(hash_dim=args.hash_dim)
    model = train(train_rows, val_rows, hp, fc)
    model.training_log.append({"run_config": {
        "task": args.task,
        "threshold": args.threshold,
        "weighted_loss": args.weighted,
        "back_translation": back_translated,
        "topic_in_input": bool(args.topic),
    }})
    save(model, args.out)
    last = next(e for e in reversed(model.training_log) if "epoch" in e)
    print(f"trained {args.task} model on {len(train_rows)} examples "
          f"({len(model.class_list)} classes), saved to {args.out}")
    print(f"last epoch: train_loss {last['train_loss']:.4f}"
          + (f", val_loss {last['val_loss']:.4f}" if last["val_loss"] is not None
             else ""))
    return 0


def _with_text(example, text: str):
    from dataclasses import replace

    return replace(example, text=text)


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate, render_text_table, report_to_dict
    from .model import load as load_model

    model = load_model(args.model)
    run_config = _run_config_entry(model)
    task = args.task or run_config.get("task") or (
        "detect" if "hate" in model.class_list else "target")
    rows = _load_training_rows(args.data, task, args.threshold,
                               args.keep_politician)
    kept = [e for e in rows if not getattr(e, "augmented", False)]
    if len(kept) < len(rows):
        logger.warning("dropped %d augmented rows from the evaluation set",
                       len(rows) - len(kept))
    rows = kept

    topic_model = None
    if args.topics:
        from .topics import load_topics

        topic_model = load_topics(args.topics)

    report = evaluate(
        model,
        rows,
        topic_model=topic_model,
        positive=args.positive,
        dataset_tag=args.dataset_tag or os.path.basename(args.data),
        model_tag=args.model_tag or os.path.basename(args.model),
        back_translation=bool(run_config.get("back_translation", False)),
    )
    if args.format == "json":
        _write_or_print(json.dumps(report_to_dict(report), indent=2,
                                   sort_keys=True) + "\n", args.out)
    else:
        _write_or_print(render_text_table([report]), args.out)
    return 0


def cmd_run(args) -> int:
    from .pipeline import (
        PipelineConfig,
        load_pipeline,
        render_chart,
        report,
        run_corpus,
    )

    config = PipelineConfig(
        detector_path=args.detector,
        target_model_path=args.target_model,
        topic_model_path=args.topics,
        threshold_tag=args.threshold_tag,
        batch_size=args.batch_size,
    )
    pipeline = load_pipeline(config)
    posts = _read_texts(args.corpus)
    dist = run_corpus(posts, pipeline, workers=args.workers)
    report(dist, "json", args.out)
    sys.stdout.write(render_chart(dist))
    print(f"distribution written to {args.out}")
    return 0


def cmd_explain(args) -> int:
    from .explain import ExplainConfig, lime_explain, render_html
    from .model import load as load_model

    model = load_model(args.model)
    config = ExplainConfig(n_samples=args.samples, n_features=args.features,
                           seed=args.seed)
    explanation = lime_explain(model, args.text, args.cls, config)
    doc = {
        "class": explanation.target_class,
        "intercept": explanation.intercept,
        "tokens": [[token, weight] for token, weight in explanation.token_weights],
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(explanation) + "\n")
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.infile, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {args.infile}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.infile}: not valid JSON: {exc}") from exc
    dist = distribution_from_dict(doc)
    _write_or_print(RENDERERS[args.format](dist), args.out)
    return 0


# ----------------------------------------------------------------- parser

def _build_parser():
    parser = _Parser(prog="hatescan", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name, handler, **kwargs):
        p = commands.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        registry[name] = p
        return p

    p = sub("ingest", cmd_ingest, help="convert a raw corpus to examples")
    p.add_argument("--format", required=True,
                   choices=["parler", "hatexplain", "dialoconan",
                            "toxigen-small", "toxigen-large", "tap"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, choices=[3, 4], default=3,
                   help="hate cut on the label mean (parler only)")
    p.add_argument("--keep-politician", action="store_true",
                   help="keep the sixth class instead of folding it to Other")

    p = sub("normalize", cmd_normalize, help="normalize text")
    p.add_argument("--text")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")

    p = sub("augment", cmd_augment, help="back-translate a training file")
    p.add_argument("--langs", default="es,de,fr")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--script", help="TSV table for the scripted client")
    p.add_argument("--url", help="HTTP translation endpoint")
    p.add_argument("--max-parallel", type=int, default=4)

    topics = sub("topics", None, help="fit or apply a topic model")
    topic_sub = topics.add_subparsers(dest="topics_command", parser_class=_Parser)
    p = topic_sub.add_parser("fit")
    p.set_defaults(handler=cmd_topics_fit)
    registry["topics fit"] = p
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", help="comma list of min_cluster_size:min_samples")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-samples-floor", type=int, default=1)
    p = topic_sub.add_parser("assign")
    p.set_defaults(handler=cmd_topics_assign)
    registry["topics assign"] = p
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub("train", cmd_train, help="train a detector or target classifier")
    p.add_argument("--task", required=True, choices=["detect", "target"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, choices=[3, 4], default=3)
    p.add_argument("--weighted", action="store_true",
                   help="class-weighted loss")
    p.add_argument("--backtranslate", action="store_true")
    p.add_argument("--topic", action="store_true",
                   help="append topic words to training inputs")
    p.add_argument("--topics-out", help="where to store the fitted topic model")
    p.add_argument("--langs", default="es,de,fr")
    p.add_argument("--script")
    p.add_argument("--url")
    p.add_argument("--max-parallel", type=int, default=4)
    p.add_argument("--keep-politician", action="store_true")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=2)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p.add_argument("--hash-dim", type=int, default=2**18)
    p.add_argument("--seed", type=int, default=0)

    p = sub("evaluate", cmd_evaluate, help="score a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--positive", help="binary positive class, e.g. hate")
    p.add_argument("--topics", help="topic model for input concatenation")
    p.add_argument("--task", choices=["detect", "target"])
    p.add_argument("--threshold", type=int, choices=[3, 4], default=3)
    p.add_argument("--keep-politician", action="store_true")
    p.add_argument("--dataset-tag", default="")
    p.add_argument("--model-tag", default="")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub("run", cmd_run, help="stream a corpus through both stages")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detector", required=True)
    p.add_argument("--target-model", required=True)
    p.add_argument("--topics")
    p.add_argument("--threshold-tag", default="")
    p.add_argument("--workers", type=int, default=1,
                   help="threads, each scoring a whole batch; they pay off "
                        "for a model backend that releases the GIL and gain "
                        "little for the bundled classifier")
    p.add_argument("--batch-size", type=int, default=256,
                   help="posts per batch; each stage scores a batch in one "
                        "pass, and at most workers x batch-size posts are "
                        "held at once")

    p = sub("explain", cmd_explain, help="explain one prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--out")
    p.add_argument("--html", help="also write a colored HTML fragment")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--features", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = sub("report", cmd_report, help="re-render a distribution file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=list(RENDERERS), default="text-chart")
    p.add_argument("--out")

    return parser, registry


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, registry = _build_parser()
        config_path = _prescan_config(argv)
        if config_path:
            _apply_config(registry, _read_config(config_path))
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
        handler = getattr(args, "handler", None)
        if handler is None:
            raise UsageError("no command given (try --help)")
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:  # a ValueError, but about the input
        print(f"data error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
