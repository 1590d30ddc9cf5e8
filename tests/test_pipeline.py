"""Two-stage orchestration, distribution accounting and report rendering."""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from hatescan.corpus import TARGET_CLASSES, Post
from hatescan.errors import DataError, ModelError
from hatescan.model import Hyperparams
from hatescan.model import save as save_model
from hatescan.model import train
from hatescan.normalize import is_english
from hatescan.corpus import LabeledExample
from hatescan.pipeline import (
    Classification,
    Pipeline,
    PipelineConfig,
    TargetDistribution,
    classify_post,
    distribution_from_dict,
    load_pipeline,
    render_chart,
    render_csv,
    render_json,
    report,
    run_corpus,
)


class StubModel:
    """Scripted predictor with a call counter."""

    def __init__(self, fn, class_list=("hate", "normal")):
        self.fn = fn
        self.class_list = class_list
        self.calls = 0
        self.seen = []

    def predict(self, text):
        self.calls += 1
        self.seen.append(text)
        label = self.fn(text)
        return label, {label: 1.0}


def always(label):
    return StubModel(lambda text: label)


def marker_detector():
    return StubModel(lambda text: "hate" if "hatemark" in text.split() else "normal")


def marker_target():
    def fn(text):
        for token in text.split():
            if token.startswith("target"):
                return token[len("target"):].capitalize()
        return "Other"

    return StubModel(fn, class_list=TARGET_CLASSES)


def planted_corpus():
    """100 posts: 30 hateful split 15/9/6 African/Islam/Other, 70 normal."""
    rng = random.Random(7)
    posts = []
    for target, n in (("african", 15), ("islam", 9), ("other", 6)):
        posts += [f"hatemark target{target} is the worst of all {i}"
                  for i in range(n)]
    posts += [f"a perfectly normal sentence about the day number {i}"
              for i in range(70)]
    rng.shuffle(posts)
    return posts


# ------------------------------------------------------------ classify_post

def test_always_normal_detector_short_circuits():
    target = always("Jewish")
    pipe = Pipeline(detector=always("normal"), target_model=target)
    for text in ("one post", "another post", "third post"):
        assert classify_post(text, pipe) == Classification(label="normal")
    assert target.calls == 0


def test_always_hate_composes_with_target():
    pipe = Pipeline(detector=always("hate"), target_model=always("Jewish"))
    for text in ("one post", "another post"):
        result = classify_post(text, pipe)
        assert result == Classification(label="hate", target="Jewish")


def test_classify_normalizes_before_detection():
    detector = marker_detector()
    pipe = Pipeline(detector=detector, target_model=marker_target())
    classify_post("HATEMARK Targetafrican THING", pipe)
    assert detector.seen == ["hatemark targetafrican thing"]


def test_classify_with_topic_model_appends_words():
    from hatescan.topics import TOPIC_MARKER, fit_topics

    corpus = ["mosque veil imam quran", "imam veil mosque quran",
              "quran mosque imam veil", "veil imam quran mosque"]
    topic_model = fit_topics(corpus)
    target = marker_target()
    pipe = Pipeline(detector=always("hate"), target_model=target,
                    topic_model=topic_model)
    classify_post("mosque veil imam quran", pipe)
    assert len(target.seen) == 1
    assert TOPIC_MARKER in target.seen[0]
    assert target.seen[0].startswith("mosque veil imam quran")


# ------------------------------------------------------------ run_corpus

def planted_pipeline(batch_size=256):
    return Pipeline(detector=marker_detector(), target_model=marker_target(),
                    threshold_tag="threshold-3", batch_size=batch_size)


def test_planted_distribution_recovered_exactly():
    dist = run_corpus(planted_corpus(), planted_pipeline())
    assert dist.total_posts == 100
    assert dist.hateful_posts == 30
    assert dist.normal_posts == 70
    assert dist.per_target == {"African": 15, "Islam": 9, "Other": 6,
                               "Jewish": 0, "LGBT": 0}
    assert dist.fractions["African"] == pytest.approx(0.5)
    assert dist.fractions["Islam"] == pytest.approx(0.3)
    assert dist.fractions["Other"] == pytest.approx(0.2)
    assert dist.hateful_posts / dist.total_posts == pytest.approx(0.30)
    assert dist.detector_tag == "threshold-3"


def test_empty_corpus_all_zero():
    dist = run_corpus([], planted_pipeline())
    assert dist.total_posts == 0
    assert dist.fractions == {t: 0.0 for t in TARGET_CLASSES}


def test_stage_two_runs_exactly_once_per_hateful_post():
    pipe = planted_pipeline()
    dist = run_corpus(planted_corpus(), pipe)
    assert pipe.target_model.calls == dist.hateful_posts == 30


def test_accounting_includes_excluded_and_failed():
    def touchy(text):
        if "explode" in text:
            raise RuntimeError("boom")
        return "normal"

    pipe = Pipeline(detector=StubModel(touchy), target_model=always("Other"))
    posts = [
        "a normal english sentence with the usual words",
        "das ist doch wirklich ganz furchtbar schlimm heute",
        "please explode now thanks",
        "ceci est une phrase sans mots anglais typiques",
        "another ordinary english sentence about the weather",
    ]
    dist = run_corpus(posts, pipe)
    assert dist.total_posts == 5
    assert dist.excluded_posts == 2
    assert dist.failed_posts == 1
    assert dist.normal_posts == 2
    assert (dist.hateful_posts + dist.normal_posts + dist.excluded_posts
            + dist.failed_posts) == dist.total_posts


def test_result_independent_of_batch_size_and_workers():
    posts = planted_corpus()
    baseline = run_corpus(posts, planted_pipeline(batch_size=256))
    for batch_size in (1, 7, 100):
        assert run_corpus(posts, planted_pipeline(batch_size)) == baseline
    parallel = run_corpus(posts, planted_pipeline(batch_size=16), workers=4)
    assert parallel == baseline


def test_run_corpus_accepts_post_objects():
    posts = [Post(id="1", text="hatemark targetislam is the worst"),
             Post(id="2", text="just a normal thing to say")]
    dist = run_corpus(posts, planted_pipeline())
    assert dist.hateful_posts == 1
    assert dist.per_target["Islam"] == 1


def test_run_corpus_rejects_bad_workers():
    with pytest.raises(ValueError):
        run_corpus([], planted_pipeline(), workers=0)


# ------------------------------------------------------------ distribution

def make_dist(**overrides):
    base = dict(total_posts=10, hateful_posts=4, normal_posts=5,
                excluded_posts=1, failed_posts=0,
                per_target={"African": 2, "Islam": 1, "Jewish": 1,
                            "LGBT": 0, "Other": 0},
                detector_tag="t3")
    base.update(overrides)
    return TargetDistribution(**base)


def test_distribution_validates_totals():
    with pytest.raises(ValueError):
        make_dist(total_posts=11)
    with pytest.raises(ValueError):
        make_dist(per_target={"African": 1, "Islam": 0, "Jewish": 0,
                              "LGBT": 0, "Other": 0})


def test_fractions_sum_to_one():
    dist = make_dist()
    assert sum(dist.fractions.values()) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ rendering

def test_json_round_trip():
    dist = make_dist()
    parsed = distribution_from_dict(json.loads(render_json(dist)))
    assert parsed == dist


def test_json_rejects_corrupt_document():
    with pytest.raises(DataError):
        distribution_from_dict({"total_posts": 3})


def test_csv_rows_in_descending_count_order():
    text = render_csv(make_dist())
    lines = text.strip().splitlines()
    assert lines[0] == "target,count,fraction"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == sorted(counts, reverse=True)
    assert lines[1].startswith("African,2,0.5")


def test_csv_zero_counts_when_no_hate():
    dist = make_dist(hateful_posts=0, normal_posts=9,
                     per_target={t: 0 for t in TARGET_CLASSES})
    lines = render_csv(dist).strip().splitlines()
    assert len(lines) == 1 + len(TARGET_CLASSES)
    assert all(line.split(",")[1] == "0" for line in lines[1:])


def test_chart_shows_bars_and_tag():
    chart = render_chart(make_dist())
    assert "detector: t3" in chart
    assert "#" in chart
    assert "African" in chart.splitlines()[2]
    assert "(50.0%)" in chart


def test_chart_degenerate_no_hate():
    dist = make_dist(hateful_posts=0, normal_posts=9,
                     per_target={t: 0 for t in TARGET_CLASSES})
    assert "no hateful posts" in render_chart(dist)


def test_report_writes_all_formats(tmp_path):
    dist = make_dist()
    for fmt, name in (("json", "d.json"), ("csv", "d.csv"),
                      ("text-chart", "d.txt")):
        path = report(dist, fmt, str(tmp_path / name))
        assert (tmp_path / name).read_text() != ""
        assert path == str(tmp_path / name)
    with pytest.raises(ValueError):
        report(dist, "xml", str(tmp_path / "d.xml"))


# ------------------------------------------------------------ loading

def trained_pair(tmp_path):
    rng = random.Random(0)
    filler = ["day", "thing", "words", "talk", "post", "note"]
    detect = []
    for i in range(40):
        base = rng.sample(filler, 3)
        detect.append(LabeledExample(" ".join(["filth"] + base), "hate", "s"))
        detect.append(LabeledExample(" ".join(base), "normal", "s"))
    target = []
    for keyword, cls in (("jews", "Jewish"), ("muslim", "Islam"),
                         ("nobody", "Other")):
        for i in range(30):
            words = [keyword] + rng.sample(filler, 3)
            rng.shuffle(words)
            target.append(LabeledExample(" ".join(words), cls, "s"))
    hp = Hyperparams(max_epochs=6, learning_rate=0.1, seed=0)
    detector = train(detect, [], hp)
    target_model = train(target, [], hp)
    det_path = str(tmp_path / "detect.bin")
    tgt_path = str(tmp_path / "target.bin")
    save_model(detector, det_path)
    save_model(target_model, tgt_path)
    return det_path, tgt_path


def test_load_pipeline_end_to_end(tmp_path):
    det_path, tgt_path = trained_pair(tmp_path)
    config = PipelineConfig(detector_path=det_path, target_model_path=tgt_path,
                            threshold_tag="threshold-3")
    pipe = load_pipeline(config)
    hateful = classify_post("filth jews day thing", pipe)
    assert hateful.label == "hate"
    assert hateful.target == "Jewish"
    normal = classify_post("words talk day", pipe)
    assert normal == Classification(label="normal")


def test_load_pipeline_missing_model(tmp_path):
    config = PipelineConfig(detector_path=str(tmp_path / "absent.bin"),
                            target_model_path=str(tmp_path / "absent2.bin"))
    with pytest.raises(ModelError):
        load_pipeline(config)


def test_pipeline_config_validates_batch_size():
    with pytest.raises(ValueError):
        PipelineConfig(detector_path="a", target_model_path="b", batch_size=0)


# ------------------------------------------------------------ batched scoring

def raising_on(word, model):
    """The stub ``model``, raising on every text that holds ``word``."""
    fn = model.fn

    def scripted(text):
        if word in text.split():
            raise RuntimeError(f"{word} in {text!r}")
        return fn(text)

    model.fn = scripted
    return model


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_a_raising_text_fails_only_its_own_post(batch_size, workers):
    posts = planted_corpus()
    posts.insert(37, "hatemark detectboom targetafrican is the worst of all")
    posts.insert(64, "hatemark targetboom is the worst of all the days")
    detector = raising_on("detectboom", marker_detector())
    target = raising_on("targetboom", marker_target())
    pipe = Pipeline(detector=detector, target_model=target,
                    batch_size=batch_size)
    dist = run_corpus(posts, pipe, workers=workers)
    assert dist.total_posts == 102
    assert dist.failed_posts == 2
    assert dist.excluded_posts == 0
    assert dist.normal_posts == 70
    assert dist.per_target == {"African": 15, "Islam": 9, "Other": 6,
                               "Jewish": 0, "LGBT": 0}
    assert detector.calls == 102
    assert target.calls == 31  # 30 hateful posts and the one that raises


def test_classify_post_raises_the_failing_stage_exception():
    detector = raising_on("boom", marker_detector())
    pipe = Pipeline(detector=detector, target_model=marker_target())
    with pytest.raises(RuntimeError, match="boom"):
        classify_post("boom goes the post", pipe)
    target = raising_on("targetboom", marker_target())
    pipe = Pipeline(detector=marker_detector(), target_model=target)
    with pytest.raises(RuntimeError, match="targetboom"):
        classify_post("hatemark targetboom", pipe)


@pytest.fixture
def trained_pipeline(tmp_path):
    from hatescan.model import load as load_model
    from hatescan.topics import fit_topics

    det_path, tgt_path = trained_pair(tmp_path)
    topic_model = fit_topics(["mosque veil imam quran", "imam veil mosque quran",
                              "quran mosque imam veil", "veil imam quran mosque"])
    return Pipeline(detector=load_model(det_path),
                    target_model=load_model(tgt_path), topic_model=topic_model)


def mixed_corpus():
    """60 posts: hateful, normal and non-English, some with topic words."""
    rng = random.Random(3)
    filler = ["day", "thing", "words", "talk", "post", "note", "mosque", "imam"]
    posts = []
    for i in range(60):
        words = rng.sample(filler, 3)
        kind = i % 4
        if kind == 0:
            words += ["filth", rng.choice(["jews", "muslim", "nobody"])]
        elif kind == 3 and i % 8 == 3:
            posts.append(f"das ist doch wirklich ganz furchtbar schlimm {i}")
            continue
        rng.shuffle(words)
        posts.append("the " + " ".join(words) + " and the other")
    return posts


def tally(posts, pipe):
    """The distribution run_corpus should give, one classify_post at a time."""
    counts = Counter()
    per_target = Counter({t: 0 for t in TARGET_CLASSES})
    for text in posts:
        if not is_english(text):
            counts["excluded"] += 1
            continue
        result = classify_post(text, pipe)
        counts[result.label] += 1
        if result.label == "hate":
            per_target[result.target] += 1
    return TargetDistribution(
        total_posts=len(posts), hateful_posts=counts["hate"],
        normal_posts=counts["normal"], excluded_posts=counts["excluded"],
        failed_posts=0, per_target=dict(per_target))


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_batched_scan_equals_per_post_classification(trained_pipeline,
                                                     batch_size, workers):
    posts = mixed_corpus()
    expected = tally(posts, trained_pipeline)
    assert expected.hateful_posts and expected.normal_posts
    assert expected.excluded_posts
    assert len({t for t, n in expected.per_target.items() if n}) > 1
    pipe = replace(trained_pipeline, batch_size=batch_size)
    assert run_corpus(posts, pipe, workers=workers) == expected


def test_each_stage_scores_a_batch_in_one_predict_batch_call(trained_pipeline,
                                                             monkeypatch):
    import hatescan.pipeline as pipeline_module

    calls = []
    real = pipeline_module.predict_batch

    def spy(model, texts):
        calls.append((model, len(texts)))
        return real(model, texts)

    monkeypatch.setattr(pipeline_module, "predict_batch", spy)
    # a batch with no hateful post and one with no English post come first
    posts = ([f"the day and the talk {i}" for i in range(7)]
             + [f"das ist doch wirklich ganz furchtbar schlimm {i}"
                for i in range(7)] + mixed_corpus())
    pipe = replace(trained_pipeline, batch_size=7)
    expected = []
    for start in range(0, len(posts), 7):
        dist = tally(posts[start:start + 7], trained_pipeline)
        english = dist.hateful_posts + dist.normal_posts
        if english:
            expected.append((pipe.detector, english))
        if dist.hateful_posts:
            expected.append((pipe.target_model, dist.hateful_posts))
    assert expected[0] == (pipe.detector, 7)
    assert expected[1][0] is pipe.detector
    calls.clear()
    run_corpus(posts, pipe)
    assert [(id(m), n) for m, n in calls] == [(id(m), n) for m, n in expected]


def test_a_failed_batch_call_is_rescored_text_by_text(trained_pipeline,
                                                      monkeypatch):
    import hatescan.model as model_module
    import hatescan.pipeline as pipeline_module

    real_batch = pipeline_module.predict_batch
    real_predict = model_module.predict

    def batch(model, texts):
        if any("boom" in t.split() for t in texts):
            raise RuntimeError("boom in batch")
        return real_batch(model, texts)

    def predict(model, text):
        if "boom" in text.split():
            raise RuntimeError("boom")
        return real_predict(model, text)

    posts = mixed_corpus()
    expected = run_corpus(posts, trained_pipeline)
    monkeypatch.setattr(pipeline_module, "predict_batch", batch)
    monkeypatch.setattr(model_module, "predict", predict)
    booms = ["the boom of the day", "the filth boom jews of the day"]
    dist = run_corpus(posts[:20] + booms + posts[20:], trained_pipeline)
    assert dist.failed_posts == 2
    assert dist.total_posts == expected.total_posts + 2
    assert (dist.hateful_posts, dist.normal_posts, dist.excluded_posts,
            dist.per_target) == (expected.hateful_posts, expected.normal_posts,
                                 expected.excluded_posts, expected.per_target)


def test_topics_are_assigned_once_per_batch_with_hateful_posts(trained_pipeline,
                                                               monkeypatch):
    import hatescan.topics as topics_module

    # a batch with no hateful post comes first
    posts = [f"the day and the talk {i}" for i in range(7)] + mixed_corpus()
    hateful = [tally(posts[start:start + 7], trained_pipeline).hateful_posts
               for start in range(0, len(posts), 7)]
    assert hateful[0] == 0 and max(hateful) > 1
    calls = []
    real = topics_module.assign_topics

    def spy(model, texts):
        calls.append(len(texts))
        return real(model, texts)

    monkeypatch.setattr(topics_module, "assign_topics", spy)
    run_corpus(posts, replace(trained_pipeline, batch_size=7))
    assert calls == [n for n in hateful if n]


def test_a_failed_topic_batch_is_assigned_text_by_text(trained_pipeline,
                                                       monkeypatch):
    import hatescan.topics as topics_module

    posts = mixed_corpus()
    boom = "the filth jews topicboom of the day"
    assert classify_post(boom, trained_pipeline).label == "hate"
    expected = run_corpus(posts, trained_pipeline)
    real = topics_module.assign_topics

    def assign(model, texts):
        texts = list(texts)
        if any("topicboom" in t.split() for t in texts):
            raise RuntimeError("boom in topics")
        return real(model, texts)

    # assign_topic goes through the patched assign_topics as well
    monkeypatch.setattr(topics_module, "assign_topics", assign)
    dist = run_corpus(posts[:20] + [boom] + posts[20:], trained_pipeline)
    assert dist.failed_posts == 1
    assert (dist.hateful_posts, dist.normal_posts, dist.excluded_posts,
            dist.per_target) == (expected.hateful_posts, expected.normal_posts,
                                 expected.excluded_posts, expected.per_target)
