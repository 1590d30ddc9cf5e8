"""Tests of the benchmark's own parts: generator, percentile rule, tracing."""

from __future__ import annotations

import math
import os
import statistics

import pytest

import gen
import run
import tracing

hs = run.import_package()

SMALL = gen.Sizes(detect_rows=30, target_rows=30, detect_heldout=10,
                  target_heldout=10, corpus_posts=120, explain_lengths=(6, 7, 13))


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    a = gen.generate(7, str(tmp_path / "a"), SMALL)
    b = gen.generate(7, str(tmp_path / "b"), SMALL)
    c = gen.generate(8, str(tmp_path / "c"), SMALL)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a["explain"] == b["explain"] and a["planted"] == b["planted"]
    other = _files(tmp_path / "c")
    assert all(other[name] != data for name, data in _files(tmp_path / "a").items())
    assert c["explain"] != a["explain"]


def test_generated_posts_normalize_as_planted(tmp_path):
    out = gen.generate(3, str(tmp_path), SMALL)
    stopwords = hs.normalize.default_config().english_stopword_set
    assert set(gen.STOPWORDS) <= stopwords
    for post in out["corpus"] + out["explain"]:
        assert str(hs.normalize.normalize(post.raw)) == post.normalized
        assert hs.normalize.is_english(post.raw) == post.english
    assert [len(p.normalized.split()) for p in out["explain"]] == list(SMALL.explain_lengths)
    non_english = sum(not p.english for p in out["corpus"]) / len(out["corpus"])
    assert out["planted"]["excluded_share"] == non_english > 0


@pytest.mark.parametrize("sizes", [gen.SHORT, gen.LONG])
def test_workload_shapes_keep_their_lengths_and_lime_regime(tmp_path, sizes):
    small = gen.Sizes(detect_rows=10, target_rows=10, detect_heldout=10,
                      target_heldout=10, corpus_posts=60,
                      post_tokens=sizes.post_tokens, explain_lengths=sizes.explain_lengths)
    out = gen.generate(5, str(tmp_path), small)
    low, high = sizes.post_tokens
    assert all(low <= len(p.raw.split()) <= high for p in out["corpus"])
    limit = hs.explain.EXHAUSTIVE_TOKEN_LIMIT
    exhaustive = {len(p.normalized.split()) <= limit for p in out["explain"]}
    assert exhaustive == {sizes is gen.SHORT}
    # each reported percentile lies inside one length group, two posts from its edges
    lengths = sorted(sizes.explain_lengths)
    for q in (0.5, 0.75):
        lo = math.floor((len(lengths) - 1) * q)
        assert lengths[lo - 2] == lengths[lo + 3]


def test_every_normalizer_stage_is_exercised(tmp_path):
    raw = "\n".join(p.raw for p in gen.generate(4, str(tmp_path), SMALL)["corpus"])
    assert "@" in raw and "#" in raw and ("http" in raw or "www." in raw)
    assert any(emoji in raw for emoji, _ in gen.EMOJI)
    assert "'" in raw and "’" in raw
    assert any(word[:1].isupper() for word in raw.split())


@pytest.mark.parametrize("q", [0.5, 0.75])
@pytest.mark.parametrize("n", [40, 57, 100])
def test_percentile_matches_inclusive_quantiles(n, q):
    values = [math.sin(i) * 10 + i % 7 for i in range(n)]
    cuts = statistics.quantiles(values, n=4, method="inclusive")
    assert run.percentile(values, q) == pytest.approx(cuts[1 if q == 0.5 else 2])


@pytest.mark.parametrize("q, smallest", [(0.5, 20), (0.75, 38)])
def test_percentile_needs_ten_samples_beyond(q, smallest):
    assert run.percentile(range(smallest), q) < smallest - 10
    with pytest.raises(ValueError):
        run.percentile(range(smallest - 1), q)


def _tiny_model(tmp_path):
    rows = [hs.corpus.LabeledExample(text=f"{w} the post", label=label, origin="t")
            for w, label in (("kava", "hate"), ("zuvo", "normal")) for _ in range(4)]
    fc = hs.model.FeatureConfig(hash_dim=2**10)
    model = hs.model.train(rows, [], hs.model.Hyperparams(max_epochs=2), fc)
    path = str(tmp_path / "m.bin")
    hs.model.save(model, path)
    return model, path


def test_wrappers_leave_results_unchanged_and_are_removed(tmp_path):
    model, path = _tiny_model(tmp_path)
    pipe = hs.pipeline.Pipeline(detector=model, target_model=model)
    posts = ["@Sam the kava is it 😂", "zuvo and the thing", "lorem ipsum dolor"] * 5
    text = "Kava the post is not zuvo"

    def outputs():
        return (
            str(hs.normalize.normalize(text)),
            hs.model.predict(model, "kava the post")[1].tolist(),
            hs.model.load(path).weights.tolist(),
            hs.pipeline.run_corpus(posts, pipe, workers=2),
            hs.explain.lime_explain(model, text, "hate"),
        )

    before = outputs()
    originals = {name: getattr(hs.model, name) for name in ("featurize", "predict", "load")}
    pipeline_normalize = hs.pipeline.normalize
    with tracing.Tracer() as tracer:
        assert hs.pipeline.normalize is not pipeline_normalize
        assert hs.pipeline.load_model is hs.model.load is not originals["load"]
        during = outputs()
    assert during == before
    assert hs.pipeline.normalize is pipeline_normalize
    assert {n: getattr(hs.model, n) for n in originals} == originals
    assert "embed" in vars(hs.topics.TfidfProjectionEmbedder)
    assert not hasattr(hs.topics.TfidfProjectionEmbedder.embed, "__wrapped__")

    by_id = {s.id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"normalize.normalize", "model.predict", "model.featurize",
            "pipeline.run_corpus", "explain.lime_explain", "model.load"} <= names
    corpus_span = next(s for s in tracer.spans if s.name == "pipeline.run_corpus")
    assert corpus_span.tag == [2, len(posts)]
    # pool threads charge their spans to run_corpus
    in_corpus = [s for s in tracer.spans if s.parent == corpus_span.id]
    assert {s.name for s in in_corpus} >= {"normalize.is_english", "normalize.normalize"}
    for span in tracer.spans:
        if span.name == "model.featurize":
            assert by_id[span.parent].name == "model.predict"


def test_self_time_merges_overlapping_children():
    parent = tracing.Span(1, "a", None, 0.0, 10.0)
    kids = [tracing.Span(2, "b", 1, 1.0, 4.0), tracing.Span(3, "b", 1, 2.0, 5.0),
            tracing.Span(4, "c", 1, 7.0, 8.0), tracing.Span(5, "d", 4, 7.0, 7.5)]
    own = tracing.self_times([parent] + kids)
    assert own[1] == pytest.approx(10 - 4 - 1)
    assert own[2] == pytest.approx(3) and own[4] == pytest.approx(0.5)
