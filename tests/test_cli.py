"""End-to-end command line tests; every call goes through main()."""

import importlib.metadata
import json
import logging
import os
import random
import shutil
import subprocess
import sys

import pytest

import hatescan
from hatescan import cli
from hatescan.cli import main
from hatescan.corpus import LabeledExample, TargetExample, load_examples, save_examples
from hatescan.model import Hyperparams
from hatescan.model import load as load_model
from hatescan.model import save as save_model
from hatescan.model import train

from helpers import DATA_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRANSLATIONS = os.path.join(DATA_DIR, "translations.tsv")


def write_parler(path, n_hate=20, n_normal=20, hate_mean=4.8, normal_mean=1.2):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_hate):
            fh.write(json.dumps({
                "id": f"h{i}",
                "text": f"you are all filth and scum number {i}",
                "label_mean": hate_mean,
            }) + "\n")
        for i in range(n_normal):
            fh.write(json.dumps({
                "id": f"n{i}",
                "text": f"what a lovely day in the park number {i}",
                "label_mean": normal_mean,
            }) + "\n")


def write_target_examples(path, per_class=12):
    rng = random.Random(0)
    filler = ["day", "thing", "words", "talk", "note", "post"]
    rows = []
    for keyword, cls in (("jews", "Jewish"), ("muslim", "Islam"),
                         ("nobody", "Other")):
        for _ in range(per_class):
            words = [keyword] + rng.sample(filler, 3)
            rng.shuffle(words)
            rows.append(TargetExample(text=" ".join(words), target=cls,
                                      origin="synthetic"))
    save_examples(rows, path)


def trained_detector(tmp_path):
    rng = random.Random(1)
    filler = ["about", "the", "day", "we", "had", "some", "words"]
    rows = []
    for i in range(30):
        base = rng.sample(filler, 4)
        rows.append(LabeledExample(" ".join(["filth", "scum"] + base), "hate", "s"))
        rows.append(LabeledExample(" ".join(base + ["walk"]), "normal", "s"))
    model = train(rows, [], Hyperparams(max_epochs=6, learning_rate=0.1, seed=0))
    path = str(tmp_path / "detector.bin")
    save_model(model, path)
    return path


def trained_target_model(tmp_path):
    rng = random.Random(2)
    filler = ["about", "the", "day", "some", "words", "we"]
    rows = []
    for keyword, cls in (("jews", "Jewish"), ("muslim", "Islam"),
                         ("nobody", "Other")):
        for _ in range(25):
            words = [keyword] + rng.sample(filler, 3)
            rng.shuffle(words)
            rows.append(LabeledExample(" ".join(words), cls, "s"))
    model = train(rows, [], Hyperparams(max_epochs=6, learning_rate=0.1, seed=0))
    path = str(tmp_path / "target.bin")
    save_model(model, path)
    return path


# ---------------------------------------------------------------- usage

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["train", "--task", "detect"]) == 1


# one valid argv per command, each naming the command it runs
VALID_ARGV = {
    "ingest": ["ingest", "--format", "tap", "--in", "a.jsonl", "--out", "b.jsonl"],
    "normalize": ["--verbose", "normalize", "--text", "x"],
    "augment": ["augment", "--in", "a.jsonl", "--out", "b.jsonl", "--url", "http://x/"],
    "topics fit": ["topics", "fit", "--in", "a.txt", "--out", "t.json", "--dim", "8"],
    "topics assign": ["topics", "assign", "--model", "t.json", "--in", "a.txt"],
    "train": ["--config", "run", "train", "--task", "detect", "--in", "a.jsonl",
              "--out", "m.bin", "--weighted", "--lr", "0.5"],
    "evaluate": ["evaluate", "--model", "m.bin", "--data", "a.jsonl", "--format", "json"],
    "run": ["--config=c.cfg", "run", "--corpus", "a.txt", "--out", "d.json",
            "--detector", "d.bin", "--target-model", "t.bin", "--workers", "2"],
    "explain": ["explain", "--model", "m.bin", "--text", "x", "--class", "hate"],
    "report": ["report", "--in", "d.json", "--format", "csv"],
}


@pytest.mark.parametrize("command", list(VALID_ARGV))
def test_the_parser_of_one_command_parses_like_the_full_parser(command):
    argv = VALID_ARGV[command]
    assert cli._scan_argv(argv)[0] == command
    lean = cli._build_parser(command)[0].parse_args(argv)
    assert lean == cli._build_parser()[0].parse_args(argv)
    assert lean.handler is cli._COMMANDS[command][0]


@pytest.mark.parametrize("argv, found", [
    (["--config", "a.cfg", "normalize", "--text", "x"], ("normalize", "a.cfg")),
    (["--config=a.cfg", "--config", "b.cfg", "report"], ("report", "a.cfg")),
    (["--config", "report", "run", "--config"], ("run", "report")),
    (["topics", "--config", "a.cfg", "fit"], (None, "a.cfg")),
    (["run", "--text", "--config=", "x"], ("run", "")),
    (["--help", "--config", "a.cfg"], (None, "a.cfg")),
    (["topics"], (None, None)),
    (["--verbose", "topics", "assign"], ("topics assign", None)),
])
def test_one_walk_finds_the_command_and_the_first_config(argv, found):
    assert cli._scan_argv(argv) == found


@pytest.mark.parametrize("argv", [["--config"], ["normalize", "--text", "--config"]])
def test_a_config_flag_without_a_path_is_usage_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == "usage error: --config needs a path\n"


def test_main_builds_only_the_parser_of_the_command_it_runs(monkeypatch, capsys):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda *a: built.append(a) or build(*a))
    assert main(["normalize", "--text", "X"]) == 0
    assert main(["topics", "fit"]) == 1
    assert built == [("normalize",), ("topics fit",), ()]


@pytest.mark.parametrize("argv", [
    ["run"],
    ["topics", "fit", "--in", "a.txt"],
    ["train", "--task", "nope", "--in", "a", "--out", "b"],
    ["report", "--in", "d.json", "--format", "pdf"],
    ["run", "--corpus", "a", "--out", "b", "--detector", "c", "--target-model", "d",
     "--workers", "two"],
    ["explain", "--model", "m", "--text", "x", "--class", "hate", "--samples", "1.5"],
    ["normalize", "--text", "x", "--bogus"],
    ["--bogus", "normalize", "--text", "x"],
    ["run", "--version"],
    ["frobnicate"],
    ["topics"],
    ["topics", "bogus"],
    [],
    ["--verbose"],
    ["--help"],
    ["--version"],
    ["-h", "run"],
    ["run", "--help"],
    ["topics", "--help"],
    ["topics", "fit", "--help"],
    ["topics", "assign", "-h"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_the_parser_of_one_command_fails_like_the_full_parser(argv, monkeypatch, capsys):
    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help and --version
            code = exc.code
        return code, capsys.readouterr()

    lean = outcome()
    scan = cli._scan_argv
    monkeypatch.setattr(cli, "_scan_argv", lambda argv: (None, scan(argv)[1]))
    assert outcome() == lean
    assert lean[1].err.startswith("usage error: ") == (lean[0] == 1)


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)


def _console_script_target():
    """The declared `hatescan` entry point: installed metadata, else pyproject."""
    for ep in importlib.metadata.entry_points(group="console_scripts"):
        if ep.name == "hatescan":
            return ep.value
    return _pyproject()["project"]["scripts"]["hatescan"]


def test_console_script_reports_version(tmp_path):
    # Run the entry point in a fresh process the way pip's generated
    # wrapper does, so the test needs no install and nothing on PATH.
    package_parent = os.path.dirname(os.path.dirname(hatescan.__file__))
    pythonpath = os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hatescan.cli import main; sys.exit(main())",
         "--version"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == hatescan.__version__
    # The pyproject.toml reads come last: without tomllib (Python 3.10)
    # they skip, and the check above has still run.
    assert _console_script_target() == "hatescan.cli:main"
    assert _pyproject()["project"]["version"] == hatescan.__version__


def test_building_the_parser_imports_no_numpy(tmp_path):
    package_parent = os.path.dirname(os.path.dirname(hatescan.__file__))
    pythonpath = os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hatescan.cli import _build_parser; "
         "_build_parser('run'); print('numpy' in sys.modules); "
         "_build_parser(); print('numpy' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.skipif(shutil.which("hatescan") is None,
                    reason="hatescan console script not installed")
def test_installed_console_script_reports_version():
    out = subprocess.run(["hatescan", "--version"], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip()


# ---------------------------------------------------------------- normalize

def test_normalize_text(capsys):
    assert main(["normalize", "--text", "@Bob says WOW"]) == 0
    assert capsys.readouterr().out == "<USER> says wow\n"


def test_normalize_file(tmp_path):
    src = tmp_path / "raw.txt"
    dst = tmp_path / "norm.txt"
    src.write_text("Hello THERE\n#Tag me\n")
    assert main(["normalize", "--in", str(src), "--out", str(dst)]) == 0
    assert dst.read_text() == "hello there\n<HASHTAG> me\n"


def test_normalize_without_input_is_usage_error():
    assert main(["normalize"]) == 1


# ---------------------------------------------------------------- ingest

def test_ingest_parler(tmp_path, capsys):
    out = tmp_path / "examples.jsonl"
    code = main(["ingest", "--format", "parler",
                 "--in", os.path.join(DATA_DIR, "parler_mixed.jsonl"),
                 "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    rows = load_examples(str(out))
    assert rows and all(hasattr(e, "label") for e in rows)
    assert all(e.text == e.text.lower() for e in rows)


def test_ingest_threshold_flips_boundary_labels(tmp_path):
    raw = tmp_path / "raw.jsonl"
    write_parler(str(raw), n_hate=3, n_normal=3, hate_mean=3.5)
    low = tmp_path / "t3.jsonl"
    high = tmp_path / "t4.jsonl"
    assert main(["ingest", "--format", "parler", "--in", str(raw),
                 "--out", str(low), "--threshold", "3"]) == 0
    assert main(["ingest", "--format", "parler", "--in", str(raw),
                 "--out", str(high), "--threshold", "4"]) == 0
    labels_low = [e.label for e in load_examples(str(low))]
    labels_high = [e.label for e in load_examples(str(high))]
    assert labels_low.count("hate") == 3
    assert labels_high.count("hate") == 0


def test_ingest_tap_folds_politician(tmp_path):
    folded = tmp_path / "folded.jsonl"
    kept = tmp_path / "kept.jsonl"
    tap = os.path.join(DATA_DIR, "tap_small.jsonl")
    assert main(["ingest", "--format", "tap", "--in", tap,
                 "--out", str(folded)]) == 0
    assert main(["ingest", "--format", "tap", "--in", tap,
                 "--out", str(kept), "--keep-politician"]) == 0
    assert all(e.target != "Politician" for e in load_examples(str(folded)))
    assert any(e.target == "Politician" for e in load_examples(str(kept)))


def test_ingest_and_train_report_unlabeled_parler_posts(tmp_path, caplog):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw), n_hate=4, n_normal=4)
    with open(raw, "a", encoding="utf-8") as fh:
        for i in range(2):
            fh.write(json.dumps({"id": f"u{i}", "text": "no votes yet",
                                 "label_mean": None}) + "\n")
    caplog.set_level(logging.WARNING, logger="hatescan.cli")
    out = tmp_path / "examples.jsonl"
    assert main(["ingest", "--format", "parler", "--in", str(raw),
                 "--out", str(out)]) == 0
    assert len(load_examples(str(out))) == 8
    assert main(["train", "--task", "detect", "--in", str(raw),
                 "--out", str(tmp_path / "m.bin"), "--epochs", "1",
                 "--hash-dim", "1024"]) == 0
    skipped = [r.getMessage() for r in caplog.records if "unlabeled" in r.getMessage()]
    assert skipped == [f"{raw}: 2 unlabeled posts skipped"] * 2


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--format", "parler",
                 "--in", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------- train

def test_train_detect_end_to_end(tmp_path):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    out = tmp_path / "model.bin"
    code = main(["train", "--task", "detect", "--in", str(raw),
                 "--out", str(out), "--epochs", "4", "--lr", "0.1",
                 "--hash-dim", "4096"])
    assert code == 0
    model = load_model(str(out))
    assert model.class_list == ("hate", "normal")
    run_config = next(e["run_config"] for e in model.training_log
                      if "run_config" in e)
    assert run_config["task"] == "detect"
    assert run_config["threshold"] == 3
    assert run_config["back_translation"] is False


def test_train_target_classes(tmp_path):
    data = tmp_path / "target.jsonl"
    write_target_examples(str(data))
    out = tmp_path / "target.bin"
    assert main(["train", "--task", "target", "--in", str(data),
                 "--out", str(out), "--epochs", "3", "--lr", "0.1",
                 "--hash-dim", "4096"]) == 0
    model = load_model(str(out))
    assert model.class_list == ("Islam", "Jewish", "Other")


def test_train_weighted_flag_recorded(tmp_path):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    out = tmp_path / "model.bin"
    assert main(["train", "--task", "detect", "--in", str(raw),
                 "--out", str(out), "--epochs", "2", "--weighted",
                 "--hash-dim", "1024"]) == 0
    run_config = next(e["run_config"] for e in load_model(str(out)).training_log
                      if "run_config" in e)
    assert run_config["weighted_loss"] is True


def test_train_with_topics(tmp_path):
    data = tmp_path / "target.jsonl"
    write_target_examples(str(data), per_class=20)
    out = tmp_path / "model.bin"
    topics_out = tmp_path / "topics.json"
    assert main(["train", "--task", "target", "--in", str(data),
                 "--out", str(out), "--topic", "--topics-out", str(topics_out),
                 "--epochs", "2", "--hash-dim", "1024"]) == 0
    from hatescan.topics import load_topics

    assert load_topics(str(topics_out)).names
    run_config = next(e["run_config"] for e in load_model(str(out)).training_log
                      if "run_config" in e)
    assert run_config["topic_in_input"] is True


def test_train_topic_without_topics_out_is_usage_error(tmp_path):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    assert main(["train", "--task", "detect", "--in", str(raw),
                 "--out", str(tmp_path / "m.bin"), "--topic"]) == 1


def test_train_refuses_a_bad_hash_dim_before_fitting_topics(tmp_path, capsys):
    data = tmp_path / "target.jsonl"
    write_target_examples(str(data), per_class=20)
    out, topics_out = tmp_path / "model.bin", tmp_path / "topics.json"
    assert main(["train", "--task", "target", "--in", str(data), "--out", str(out),
                 "--topic", "--topics-out", str(topics_out), "--hash-dim", "1000"]) == 1
    assert "hash_dim must be a power of two" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["target.jsonl"]


def test_train_backtranslate_with_script(tmp_path):
    rows = [LabeledExample("hello world", "hate", "s") for _ in range(4)]
    rows += [LabeledExample(f"some other text {i}", "normal", "s")
             for i in range(4)]
    data = tmp_path / "train.jsonl"
    save_examples(rows, str(data))
    out = tmp_path / "model.bin"
    code = main(["train", "--task", "detect", "--in", str(data),
                 "--out", str(out), "--backtranslate", "--script", TRANSLATIONS,
                 "--langs", "es,de", "--epochs", "2", "--hash-dim", "1024",
                 "--val-fraction", "0.25"])
    assert code == 0
    run_config = next(e["run_config"] for e in load_model(str(out)).training_log
                      if "run_config" in e)
    assert run_config["back_translation"] is True


# ---------------------------------------------------------------- evaluate

def test_evaluate_text_table(tmp_path, capsys):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    model = tmp_path / "model.bin"
    assert main(["train", "--task", "detect", "--in", str(raw),
                 "--out", str(model), "--epochs", "4", "--lr", "0.1",
                 "--hash-dim", "4096"]) == 0
    capsys.readouterr()
    code = main(["evaluate", "--model", str(model), "--data", str(raw),
                 "--positive", "hate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Accuracy" in out and "Recall" in out


def test_evaluate_json_format(tmp_path, capsys):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    model = tmp_path / "model.bin"
    main(["train", "--task", "detect", "--in", str(raw), "--out", str(model),
          "--epochs", "4", "--lr", "0.1", "--hash-dim", "4096"])
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(raw),
                 "--positive", "hate", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"accuracy", "recall", "precision", "f1"}
    assert doc["accuracy"] >= 0.9


def test_evaluate_missing_model_is_model_error(tmp_path, capsys):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw), n_hate=2, n_normal=2)
    assert main(["evaluate", "--model", str(tmp_path / "absent.bin"),
                 "--data", str(raw)]) == 3
    assert "model error" in capsys.readouterr().err


def test_evaluate_corrupt_model_is_model_error(tmp_path):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw), n_hate=2, n_normal=2)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a model at all")
    assert main(["evaluate", "--model", str(bad), "--data", str(raw)]) == 3


# ---------------------------------------------------------------- run/report

def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    lines = []
    for i in range(6):
        lines.append(f"the jews are filth and scum says post {i}")
    for i in range(14):
        lines.append(f"we had a lovely walk in the park today {i}")
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_run_and_report(tmp_path, capsys):
    detector = trained_detector(tmp_path)
    target_model = trained_target_model(tmp_path)
    corpus = corpus_file(tmp_path)
    dist_path = tmp_path / "dist.json"
    code = main(["run", "--corpus", corpus, "--out", str(dist_path),
                 "--detector", detector, "--target-model", target_model,
                 "--threshold-tag", "threshold-3", "--workers", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "posts: 20 total" in out
    doc = json.loads(dist_path.read_text())
    assert doc["total_posts"] == 20
    assert doc["hateful_posts"] == 6
    assert doc["per_target"]["Jewish"] == 6
    assert doc["detector_tag"] == "threshold-3"

    capsys.readouterr()
    assert main(["report", "--in", str(dist_path), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("target,count,fraction")
    assert main(["report", "--in", str(dist_path),
                 "--format", "text-chart"]) == 0
    assert "#" in capsys.readouterr().out


def test_run_with_a_version_1_model_is_a_model_error(tmp_path, capsys):
    # a model file of the blake2b featurizer: version 1, otherwise well formed
    target_model = trained_target_model(tmp_path)
    with open(trained_detector(tmp_path), "rb") as fh:
        blob = bytearray(fh.read())
    blob[4:8] = (1).to_bytes(4, "little")
    old = tmp_path / "detector-v1.bin"
    old.write_bytes(bytes(blob))
    capsys.readouterr()
    code = main(["run", "--corpus", corpus_file(tmp_path), "--out", str(tmp_path / "d.json"),
                 "--detector", str(old), "--target-model", target_model])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"model error: {old}: model version 1 ")
    assert "the featurizer changed in version 2, so the model must be retrained" in err
    assert not (tmp_path / "d.json").exists()


def damaged_topic_file(tmp_path, damage):
    topics = tmp_path / "topics.json"
    assert main(["topics", "fit", "--in", topic_corpus_file(tmp_path),
                 "--out", str(topics)]) == 0
    doc = json.loads(topics.read_text(encoding="utf-8"))
    damage(doc)
    topics.write_text(json.dumps(doc), encoding="utf-8")
    return str(topics)


def run_with_topics(tmp_path, topics):
    return main(["run", "--corpus", corpus_file(tmp_path), "--out", str(tmp_path / "d.json"),
                 "--detector", trained_detector(tmp_path),
                 "--target-model", trained_target_model(tmp_path), "--topics", topics])


def test_run_with_a_cut_topic_centroid_is_a_model_error(tmp_path, capsys):
    def cut(doc):
        topic = next(iter(doc["centroids"]))
        doc["centroids"][topic] = doc["centroids"][topic][:10]

    topics = damaged_topic_file(tmp_path, cut)
    capsys.readouterr()
    assert run_with_topics(tmp_path, topics) == 3
    assert "a centroid's length is not the embedder's dim 64" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()


def test_run_with_a_version_1_topic_file_asks_for_a_refit(tmp_path, capsys):
    topics = damaged_topic_file(tmp_path, lambda doc: doc.update(version=1))
    capsys.readouterr()
    assert run_with_topics(tmp_path, topics) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"model error: {topics}: topic model version 1 ")
    assert "so the topic model must be refit" in err
    assert not (tmp_path / "d.json").exists()


@pytest.fixture(scope="module")
def scan_files(tmp_path_factory):
    """A detector, a target model, a fitted topic file and a corpus, and the
    report bytes a run over them writes."""
    tmp = tmp_path_factory.mktemp("scan")
    files = {"detector": trained_detector(tmp), "target": trained_target_model(tmp),
             "corpus": corpus_file(tmp), "topics": str(tmp / "topics.json")}
    assert main(["topics", "fit", "--in", topic_corpus_file(tmp),
                 "--out", files["topics"]]) == 0
    assert run_report(files, files["topics"], tmp / "d.json") == 0
    files["report"] = (tmp / "d.json").read_bytes()
    return files


def run_report(files, topics, out):
    return main(["run", "--corpus", files["corpus"], "--out", str(out),
                 "--detector", files["detector"], "--target-model", files["target"],
                 "--topics", topics])


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("version", "labels", "names", "name_words", "params", "centroids",
                  "ceilings", "embedder")
    for value in (None, 1, "x", [], {}, True)
] + [("name_words", {"0": [1.0]})])
def test_a_wrong_typed_topic_file_field_is_refused_or_changes_nothing(scan_files, tmp_path,
                                                                      field, value):
    with open(scan_files["topics"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = value
    topics = tmp_path / "topics.json"
    topics.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "d.json"
    code = run_report(scan_files, str(topics), out)
    assert code == 3 or (code == 0 and out.read_bytes() == scan_files["report"])


def test_plain_text_corpus_streams_after_an_eager_open(tmp_path):
    from hatescan.cli import _read_texts

    with pytest.raises(FileNotFoundError):
        _read_texts(str(tmp_path / "absent.txt"))
    path = tmp_path / "corpus.txt"
    path.write_text("first post\n\n   \nsecond post\n")
    texts = _read_texts(str(path))
    assert not isinstance(texts, list)
    assert list(texts) == ["first post", "second post"]


def test_report_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["report", "--in", str(bad), "--format", "csv"]) == 2


# ---------------------------------------------------------------- input files

@pytest.mark.parametrize("command", ["normalize", "topics fit", "train", "run"])
def test_undecodable_input_is_a_data_error(command, tmp_path, capsys):
    text = tmp_path / "bad.txt"
    text.write_bytes(b"first post\n\xff second post\n")
    examples = tmp_path / "bad.jsonl"
    examples.write_bytes(b'{"text": "a post \xff", "label": "hate", "origin": "s"}\n')
    out = str(tmp_path / "out")
    argv = {
        "normalize": ["normalize", "--in", str(text), "--out", out],
        "topics fit": ["topics", "fit", "--in", str(examples), "--out", out],
        "train": ["train", "--task", "detect", "--in", str(examples), "--out", out],
        "run": ["run", "--corpus", str(text), "--out", out,
                "--detector", trained_detector(tmp_path),
                "--target-model", trained_target_model(tmp_path)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("task, header", [("detect", "id,text,label_mean"),
                                          ("target", "id,text,target")])
def test_train_on_a_header_only_csv_asks_for_ingest(task, header, tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text(header + "\n")
    assert main(["train", "--task", task, "--in", str(data),
                 "--out", str(tmp_path / "m.bin")]) == 2
    assert "run `ingest` first" in capsys.readouterr().err


def test_train_sniffs_a_quoted_csv_header_as_the_loader_reads_it(tmp_path):
    data = tmp_path / "parler.csv"
    rows = [f'"h{i}","you are all filth and scum {i}","4.8"' for i in range(10)]
    rows += [f'"n{i}","a lovely day in the park {i}","1.2"' for i in range(10)]
    data.write_text('"id","text","label_mean"\n' + "\n".join(rows) + "\n")
    assert main(["train", "--task", "detect", "--in", str(data), "--epochs", "1",
                 "--hash-dim", "1024", "--out", str(tmp_path / "m.bin")]) == 0


# ---------------------------------------------------------------- explain

def test_explain_writes_json_and_html(tmp_path, capsys):
    model = trained_target_model(tmp_path)
    out = tmp_path / "expl.json"
    html = tmp_path / "expl.html"
    code = main(["explain", "--model", model,
                 "--text", "jews about the day", "--class", "Jewish",
                 "--out", str(out), "--html", str(html)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["class"] == "Jewish"
    assert doc["tokens"][0][0] == "jews"
    assert "<div" in html.read_text()


def test_explain_unknown_class_is_data_error(tmp_path):
    model = trained_target_model(tmp_path)
    assert main(["explain", "--model", model, "--text", "whatever words",
                 "--class", "Martian"]) == 2


# ---------------------------------------------------------------- topics

def topic_corpus_file(tmp_path):
    rng = random.Random(0)
    vocabs = [
        ["muslim", "islam", "mosque", "veil", "quran", "imam"],
        ["jews", "zionist", "synagogue", "rabbi", "kosher", "hebrew"],
        ["gay", "pride", "rainbow", "drag", "queer", "trans"],
    ]
    path = tmp_path / "texts.txt"
    lines = []
    for words in vocabs:
        for _ in range(30):
            lines.append(" ".join(rng.choice(words) for _ in range(6)))
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_topics_fit_and_assign(tmp_path, capsys):
    corpus = topic_corpus_file(tmp_path)
    topics_path = tmp_path / "topics.json"
    assert main(["topics", "fit", "--in", corpus,
                 "--out", str(topics_path)]) == 0
    summary = capsys.readouterr().out
    assert "topics over 90 texts" in summary

    out = tmp_path / "assigned.jsonl"
    assert main(["topics", "assign", "--model", str(topics_path),
                 "--in", corpus, "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 90
    assert all(isinstance(r["topic"], int) for r in rows)
    assert any(r["topic"] >= 0 for r in rows)


def test_topics_bare_subcommand_is_usage_error():
    assert main(["topics"]) == 1


def test_topics_bad_grid_is_usage_error(tmp_path):
    corpus = topic_corpus_file(tmp_path)
    assert main(["topics", "fit", "--in", corpus,
                 "--out", str(tmp_path / "t.json"), "--grid", "nope"]) == 1


# ---------------------------------------------------------------- augment

def test_augment_cli_accounting(tmp_path, capsys):
    rows = [LabeledExample("hello world", "hate", "s") for _ in range(3)]
    data = tmp_path / "train.jsonl"
    save_examples(rows, str(data))
    out = tmp_path / "aug.jsonl"
    code = main(["augment", "--langs", "es,de", "--in", str(data),
                 "--out", str(out), "--script", TRANSLATIONS])
    assert code == 0
    assert "3 original + 6 augmented" in capsys.readouterr().out
    augmented = load_examples(str(out))
    assert len(augmented) == 9
    assert sum(1 for e in augmented if e.augmented) == 6


def test_augment_needs_exactly_one_client(tmp_path):
    data = tmp_path / "train.jsonl"
    save_examples([LabeledExample("hello world", "hate", "s")], str(data))
    out = str(tmp_path / "aug.jsonl")
    assert main(["augment", "--in", str(data), "--out", out]) == 1
    assert main(["augment", "--in", str(data), "--out", out,
                 "--script", TRANSLATIONS, "--url", "http://x/"]) == 1


# ---------------------------------------------------------------- config file

def test_config_file_sets_defaults_and_flags_win(tmp_path):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    cfg = tmp_path / "hatescan.cfg"
    cfg.write_text("epochs=3\nhash-dim=1024\nlr=0.1\n")

    out_a = tmp_path / "a.bin"
    assert main(["--config", str(cfg), "train", "--task", "detect",
                 "--in", str(raw), "--out", str(out_a),
                 "--val-fraction", "0.5"]) == 0
    epochs_a = [e for e in load_model(str(out_a)).training_log if "epoch" in e]
    assert len(epochs_a) <= 3

    out_b = tmp_path / "b.bin"
    assert main(["--config", str(cfg), "train", "--task", "detect",
                 "--in", str(raw), "--out", str(out_b),
                 "--epochs", "1"]) == 0
    epochs_b = [e for e in load_model(str(out_b)).training_log if "epoch" in e]
    assert len(epochs_b) == 1


def test_config_file_boolean_key(tmp_path):
    raw = tmp_path / "parler.jsonl"
    write_parler(str(raw))
    cfg = tmp_path / "hatescan.cfg"
    cfg.write_text("weighted=true\nepochs=1\nhash-dim=1024\n")
    out = tmp_path / "m.bin"
    assert main(["--config", str(cfg), "train", "--task", "detect",
                 "--in", str(raw), "--out", str(out)]) == 0
    run_config = next(e["run_config"] for e in load_model(str(out)).training_log
                      if "run_config" in e)
    assert run_config["weighted_loss"] is True


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "hatescan.cfg"
    cfg.write_text("definitely_not_a_key=1\n")
    assert main(["--config", str(cfg), "normalize", "--text", "x"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "hatescan.cfg"
    cfg.write_text("epochs=often\n")
    assert main(["--config", str(cfg), "train", "--task", "detect",
                 "--in", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "m.bin")]) == 1
    assert "config key 'epochs': cannot parse 'often'" in capsys.readouterr().err


def test_config_key_of_another_subcommand_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "hatescan.cfg"
    cfg.write_text("epochs=5\n")
    assert main(["--config", str(cfg), "normalize", "--text", "x"]) == 1
    assert capsys.readouterr().err == "usage error: unknown config key: epochs\n"
    # a nested subcommand's keys are checked against that subcommand alone
    cfg.write_text("dim=8\n")
    assert main(["--config", str(cfg), "topics", "assign",
                 "--model", "m.json", "--in", "x.txt"]) == 1
    assert capsys.readouterr().err == "usage error: unknown config key: dim\n"
    # a value checked only against the subcommand run: ingest has no json format
    cfg.write_text("format=json\n")
    assert main(["--config", str(cfg), "evaluate", "--model", str(tmp_path / "none.bin"),
                 "--data", "x.jsonl"]) == 3


def test_config_missing_file_is_usage_error(tmp_path):
    assert main(["--config", str(tmp_path / "none.cfg"),
                 "normalize", "--text", "x"]) == 1
