"""The topic embedder's projection matrix and the version-2 topic file."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hatescan
from hatescan import model as model_module
from hatescan.errors import ModelError
from hatescan.topics import TfidfProjectionEmbedder, fit_topics, load_topics, save_topics

from helpers import reference_embed

WORDS = ["muslim", "veil", "jews", "media", "gay", "pride", "día", "x", "the"]

texts_strategy = st.lists(
    st.lists(st.sampled_from(WORDS + ["unseen", "zzz"]), max_size=12).map(" ".join),
    max_size=30)


@settings(max_examples=60, deadline=None)
@given(fit_texts=texts_strategy, texts=texts_strategy,
       pass_chars=st.integers(1, 80), seed=st.integers(0, 2**32))
def test_embed_equals_the_per_text_reference(fit_texts, texts, pass_chars, seed):
    # a small pass size spreads the texts over many passes
    with mock.patch.object(model_module, "_PASS_CHARS", pass_chars):
        emb = TfidfProjectionEmbedder(dim=8, seed=seed)
        fitted = emb.embed(fit_texts)
        assert np.allclose(fitted, reference_embed(emb, fit_texts), rtol=0, atol=1e-12)
        vectors = emb.embed(texts)
    assert vectors.shape == (len(texts), 8)
    assert np.allclose(vectors, reference_embed(emb, texts), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_keeps_pairwise_distances_within_a_jl_bound(seed):
    """Johnson-Lindenstrauss (Dasgupta and Gupta, 2003): a Gaussian map of
    n points to k >= 4 ln n / (eps^2/2 - eps^3/3) dimensions keeps every
    squared pairwise distance within a factor 1 +- eps with probability at
    least 1 - 1/n. For n = 40 and eps = 0.5 that is k >= 177; the embedder
    maps 40 unit TF-IDF rows of 30 terms each, drawn from 3000, to 256
    dimensions. Its rows are rescaled to unit length after the map, which
    the lemma does not cover, so the bound is checked, not derived, for
    the rescaled rows (seeds 0-9 stay within 0.74 and 1.26)."""
    n, vocab, per_doc, dim, eps = 40, 3000, 30, 256, 0.5
    assert dim >= 4 * math.log(n) / (eps**2 / 2 - eps**3 / 3)
    rng = np.random.default_rng(1000 + seed)
    terms = [f"t{i}" for i in range(vocab)]
    idf = dict(zip(terms, rng.uniform(1.0, 5.0, vocab).tolist()))
    emb = TfidfProjectionEmbedder.from_config(
        {"kind": "tfidf_projection", "dim": dim, "seed": seed, "idf": idf})
    tfidf = np.zeros((n, vocab))
    texts = []
    for row in range(n):
        cols = rng.choice(vocab, per_doc, replace=False)
        counts = rng.integers(1, 4, per_doc)
        tfidf[row, cols] = counts * np.array([idf[terms[c]] for c in cols])
        texts.append(" ".join(terms[c] for c, m in zip(cols, counts) for _ in range(m)))
    unit = tfidf / np.linalg.norm(tfidf, axis=1, keepdims=True)
    vectors = emb.embed(texts)
    for i, j in itertools.combinations(range(n), 2):
        ratio = (np.sum((vectors[i] - vectors[j]) ** 2)
                 / np.sum((unit[i] - unit[j]) ** 2))
        assert 1 - eps <= ratio <= 1 + eps, (i, j, ratio)


# ---------------------------------------------------------------- topic file

def planted_texts(per_topic=25, seed=0):
    rng = random.Random(seed)
    vocabs = [["muslim", "mosque", "veil", "imam"], ["jews", "rabbi", "kosher", "shekel"],
              ["gay", "pride", "rainbow", "queer"]]
    return [" ".join(rng.choice(words) for _ in range(6))
            for words in vocabs for _ in range(per_topic)]


@pytest.fixture(scope="module")
def topic_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("topics") / "topics.json"
    save_topics(fit_topics(planted_texts()), str(path))
    return json.loads(path.read_text(encoding="utf-8"))


def cut_centroid(doc):
    topic = next(iter(doc["centroids"]))
    doc["centroids"][topic] = doc["centroids"][topic][:10]


def drop_ceiling(doc):
    del doc["ceilings"][next(iter(doc["ceilings"]))]


def nan_idf(doc):
    doc["embedder"]["idf"][next(iter(doc["embedder"]["idf"]))] = float("nan")


def infinite_centroid(doc):
    doc["centroids"][next(iter(doc["centroids"]))][0] = float("inf")


def nan_ceiling(doc):
    doc["ceilings"][next(iter(doc["ceilings"]))] = float("nan")


@pytest.mark.parametrize("damage, message", [
    (cut_centroid, "a centroid's length is not the embedder's dim 64"),
    (drop_ceiling, "the centroid and ceiling topic ids differ"),
    (nan_idf, "a non-finite idf, centroid or ceiling value"),
    (infinite_centroid, "a non-finite idf, centroid or ceiling value"),
    (nan_ceiling, "a non-finite idf, centroid or ceiling value"),
])
def test_load_refuses_a_file_that_could_not_assign(tmp_path, topic_doc, damage, message):
    doc = json.loads(json.dumps(topic_doc))
    assert doc["centroids"], "the fixture must fit at least one topic"
    damage(doc)
    path = tmp_path / "topics.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError, match=re.escape(message)):
        load_topics(str(path))


def test_load_refuses_version_1_with_a_refit_message(tmp_path, topic_doc):
    path = tmp_path / "topics.json"
    path.write_text(json.dumps({**topic_doc, "version": 1}), encoding="utf-8")
    with pytest.raises(ModelError, match="version 1 .* must be refit"):
        load_topics(str(path))


def test_save_after_load_is_byte_identical(tmp_path, topic_doc):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(topic_doc, ensure_ascii=False), encoding="utf-8")
    save_topics(load_topics(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


def test_the_same_fit_writes_the_same_bytes_under_any_string_hash_seed(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(planted_texts()), encoding="utf-8")
    package_parent = os.path.dirname(os.path.dirname(hatescan.__file__))
    pythonpath = os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"topics-{hash_seed}.json"
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, pathlib, sys; from hatescan.topics import fit_topics, save_topics; "
             "texts = json.loads(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8')); "
             "save_topics(fit_topics(texts), sys.argv[2])",
             str(corpus), str(out)],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed})
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
