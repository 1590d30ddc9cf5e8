"""Tests for featurization, weighted loss, training and persistence."""

import json
import math
import os
import random
import stat
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hatescan.model
from hatescan.corpus import LabeledExample
from hatescan.errors import ModelError
from hatescan.model import (
    FeatureConfig,
    Hyperparams,
    TrainedClassifier,
    _EarlyStopTracker,
    _epoch_pass,
    class_weights,
    featurize,
    featurize_batch,
    load,
    predict,
    predict_batch,
    save,
    train,
    weighted_ce_loss,
)

from helpers import PredictOnly, dense_classifier, dense_train

SMALL_FC = FeatureConfig(hash_dim=2**10)


def make_separable(n_per_class: int, seed: int = 0):
    """Two classes with disjoint keyword vocabularies plus shared filler."""
    import random

    rng = random.Random(seed)
    filler = [f"filler{i}" for i in range(20)]
    examples = []
    for label, stem in (("hate", "alpha"), ("normal", "beta")):
        for i in range(n_per_class):
            words = [f"{stem}{rng.randrange(8)}" for _ in range(3)]
            words += [rng.choice(filler) for _ in range(4)]
            rng.shuffle(words)
            examples.append(
                LabeledExample(text=" ".join(words), label=label, origin="synthetic")
            )
    rng.shuffle(examples)
    return examples


def perceptron_separable(examples, fc: FeatureConfig, max_passes: int = 200) -> bool:
    """Brute-force perceptron: converges to zero errors iff linearly separable."""
    classes = sorted({e.label for e in examples})
    index = {c: i for i, c in enumerate(classes)}
    feats = [featurize(e.text, fc).to_dense() for e in examples]
    labels = [index[e.label] for e in examples]
    w = np.zeros((len(classes), fc.hash_dim))
    for _ in range(max_passes):
        errors = 0
        for x, y in zip(feats, labels):
            pred = int(np.argmax(w @ x))
            if pred != y:
                errors += 1
                w[y] += x
                w[pred] -= x
        if errors == 0:
            return True
    return False


# ---------------------------------------------------------------- featurize


def test_featurize_empty_text_is_zero_vector() -> None:
    vec = featurize("", SMALL_FC)
    assert len(vec.indices) == 0
    assert np.all(vec.to_dense() == 0.0)


def test_featurize_deterministic() -> None:
    a = featurize("some normalized text here", SMALL_FC)
    b = featurize("some normalized text here", SMALL_FC)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, b.values)


def test_featurize_word_order_matters_with_bigrams() -> None:
    a = featurize("a b", SMALL_FC).to_dense()
    b = featurize("b a", SMALL_FC).to_dense()
    assert not np.array_equal(a, b)


def test_featurize_l2_normalized() -> None:
    vec = featurize("the quick brown fox jumps", SMALL_FC)
    assert math.isclose(float(np.linalg.norm(vec.values)), 1.0, rel_tol=1e-12)


def test_featurize_indices_sorted_unique() -> None:
    vec = featurize("repeat repeat repeat and more words", SMALL_FC)
    idx = vec.indices
    assert np.all(np.diff(idx) > 0)
    assert np.all(idx >= 0) and np.all(idx < SMALL_FC.hash_dim)


def test_featurize_seed_changes_hashes() -> None:
    a = featurize("same text", SMALL_FC).to_dense()
    b = featurize("same text", FeatureConfig(hash_dim=2**10, hash_seed=7)).to_dense()
    assert not np.array_equal(a, b)


M64 = 2**64 - 1
P = 0x9E3779B97F4A7C15
Q = 0xC2B2AE3D27D4EB4F


def splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_keys(text: str, fc: FeatureConfig) -> list:
    """(family, n, key) of every n-gram of the text, in text order: a
    character n-gram's key is the polynomial in P of its code points, a
    word's hash is ``sum(ord(c_j) * P^j)`` and a word n-gram's key is the
    polynomial in Q of its words' hashes, all modulo 2^64."""
    def polynomial(units, base):
        key = 0
        for unit in units:
            key = (key * base + unit) & M64
        return key

    words = [sum(ord(c) * pow(P, j, 2**64) for j, c in enumerate(word)) & M64
             for word in text.split()]
    codes = [ord(c) for c in text]
    return ([("w", n, polynomial(words[i : i + n], Q))
             for n in fc.word_ngrams for i in range(len(words) - n + 1)]
            + [("c", n, polynomial(codes[i : i + n], P))
               for n in fc.char_ngrams for i in range(len(codes) - n + 1)])


def reference_bucket(family: str, n: int, key: int, fc: FeatureConfig) -> int:
    salt = splitmix64(fc.hash_seed ^ (ord(family) << 32) ^ n)
    return splitmix64(key ^ salt) & (fc.hash_dim - 1)


def reference_featurize(text: str, fc: FeatureConfig):
    """The version-2 hash in plain Python integers, written out
    independently of the module: counts per bucket, L2-normalized."""
    counts: dict = {}
    for family, n, key in reference_keys(text, fc):
        bucket = reference_bucket(family, n, key, fc)
        counts[bucket] = counts.get(bucket, 0) + 1
    norm = math.sqrt(sum(c * c for c in counts.values()))
    indices = sorted(counts)
    return (np.array(indices, dtype=np.int64),
            np.array([counts[i] / norm for i in indices], dtype=np.float64))


def test_featurize_hashes_are_pinned() -> None:
    # Model files store weights by hash bucket, so the bucket of every n-gram
    # is part of the file format (version 2: polynomial keys, splitmix64
    # finalizer salted per family, size and seed). Recorded from the
    # version-2 featurizer; a change here needs a version bump.
    # two raw 63-bit buckets pin the reference statement of the hash
    assert reference_bucket("c", 3, 0, FeatureConfig(hash_dim=2**63)) == 3080534673961632303
    assert (reference_bucket("w", 1, 1, FeatureConfig(hash_dim=2**63, hash_seed=M64))
            == 3259330842804870005)
    vec = featurize("no no no café", FeatureConfig())
    assert vec.indices.tolist() == [
        1219, 14243, 25930, 50900, 50932, 66461, 70898, 78638, 95963,
        135326, 135937, 151620, 153998, 157925, 174397, 177375, 179019,
        191162, 194262, 208629, 218207, 226923, 227592, 242801, 244012,
    ]
    counts = np.array([2, 1, 1, 1, 2, 1, 2, 2, 3, 1, 1, 1, 2, 2, 2, 2,
                       3, 1, 1, 1, 1, 1, 1, 1, 1], dtype=np.float64)
    np.testing.assert_allclose(vec.values, counts / math.sqrt(65), rtol=0, atol=1e-15)


BATCH_TEXTS = [
    "some normalized text here",
    "",
    "some normalized text here",
    "café naïve straße 😂 ünïcode",
    "repeat repeat repeat and more words",
    "a",
    "some normalized text",
    "",
]


def assert_same_vectors(got, texts, fc) -> None:
    assert len(got) == len(texts)
    for vec, text in zip(got, texts):
        one = featurize(text, fc)
        ref_indices, ref_values = reference_featurize(text, fc)
        assert vec.dim == one.dim == fc.hash_dim
        for indices, values in ((one.indices, one.values), (ref_indices, ref_values)):
            assert vec.indices.dtype == indices.dtype == np.int64
            assert vec.values.dtype == values.dtype == np.float64
            assert np.array_equal(vec.indices, indices)
            assert np.array_equal(vec.values, values)


@pytest.mark.parametrize("fc", [SMALL_FC, FeatureConfig(hash_seed=3)])
def test_featurize_batch_matches_featurize(fc) -> None:
    assert_same_vectors(featurize_batch(BATCH_TEXTS, fc), BATCH_TEXTS, fc)


FEATURE_CONFIGS = [
    FeatureConfig(),
    FeatureConfig(hash_dim=2**10, word_ngrams=(1, 2, 3), char_ngrams=(2, 6), hash_seed=5),
    FeatureConfig(word_ngrams=(), char_ngrams=(1,)),
    FeatureConfig(char_ngrams=()),
]
# runs of spaces, tabs and newlines anywhere (leading and trailing too),
# next to ASCII, accented and emoji characters
GENERATED_TEXTS = st.lists(
    st.sampled_from([" ", "  ", "\t", "\n", " \t\n ", "a", "no", "x", "café",
                     "straße", "ünï", "😂", "🔥🔥"]),
    max_size=14,
).map("".join)


@pytest.mark.parametrize("fc", FEATURE_CONFIGS)
@settings(max_examples=60, deadline=None)
@given(st.lists(GENERATED_TEXTS, max_size=6))
def test_featurize_batch_matches_reference_on_generated_texts(fc, texts) -> None:
    assert_same_vectors(featurize_batch(texts, fc), texts, fc)


WHITESPACE = [chr(c) for c in hatescan.model._WHITESPACE]


def test_whitespace_is_what_str_split_splits_on() -> None:
    assert len(WHITESPACE) == 29
    assert WHITESPACE == [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert all(f"a{c}b".split() == ["a", "b"] for c in WHITESPACE)


# every whitespace code point, lone surrogates, emoji (some beyond the
# basic plane, some with a zero-width joiner), the NUL character and letters
AWKWARD_TEXTS = st.lists(
    st.one_of(st.sampled_from(WHITESPACE),
              st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff", "\x00"]),
              st.sampled_from(["😂", "🔥", "👩‍💻", "☺️", "\U0010ffff"]),
              st.sampled_from(["a", "no", "café", "ß", "x9"])),
    max_size=20,
).map("".join)


@pytest.mark.parametrize("fc", [
    FeatureConfig(hash_dim=2**10, word_ngrams=(1, 1, 2), char_ngrams=(3, 3), hash_seed=M64),
    FeatureConfig(hash_dim=2**12, word_ngrams=(2, 3), char_ngrams=(1, 4, 4), hash_seed=1),
])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(""), AWKWARD_TEXTS), max_size=8))
def test_featurize_batch_matches_reference_on_awkward_texts(fc, texts) -> None:
    assert_same_vectors(featurize_batch(texts, fc), texts, fc)


@pytest.mark.parametrize("fc", [FeatureConfig(),
                                FeatureConfig(word_ngrams=(1, 3), char_ngrams=(2, 4, 6),
                                              hash_seed=7)])
def test_buckets_spread_like_a_uniform_hash(fc) -> None:
    # m = 2^18 buckets take n of about 10^5 distinct n-grams; a uniform hash
    # fills m(1 - (1 - 1/m)^n) of them on average, with a standard
    # deviation of about 0.12%
    rng = random.Random(0)
    vocabulary = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9)))
                  for _ in range(4000)]
    texts = [" ".join(rng.choices(vocabulary, k=12)) for _ in range(1000)]
    grams = {(family, n, key) for text in texts for family, n, key in reference_keys(text, fc)}
    buckets = set(np.concatenate([vec.indices for vec in featurize_batch(texts, fc)]).tolist())
    m, n = fc.hash_dim, len(grams)
    expected = m * (1 - (1 - 1 / m) ** n)
    assert n > m / 4
    assert abs(len(buckets) - expected) < 0.005 * expected


def explanation_masks() -> list:
    """The texts ``lime_explain`` scores: 1000 sampled masks of 15 tokens
    and every mask of 8."""
    from hatescan.explain import _all_masks, perturb

    tokens = "the cat 😂 sat on the mat and café ünï the cat ran off again".split()
    assert len(tokens) == 15
    return ([text for _, text in perturb(tokens, 1000, seed=0)]
            + [text for _, text in _all_masks(tokens[:8])])


@pytest.mark.parametrize("fc", FEATURE_CONFIGS)
def test_featurize_batch_matches_reference_on_explanation_masks(fc) -> None:
    texts = explanation_masks()
    assert_same_vectors(featurize_batch(texts, fc), texts, fc)


@pytest.mark.parametrize("fc", [
    FeatureConfig(hash_dim=2**10, word_ngrams=(1, 2, 3), char_ngrams=(2, 6), hash_seed=5),
    FeatureConfig(),
])
def test_featurize_batch_re_ranks_keys_that_would_overflow(fc) -> None:
    # one text longer than a pass, of under 2^14 characters: the space and
    # 2^13 - 1 consecutive CJK code points. A key exact in 63 bits would
    # need re-ranking here; the polynomial keys wrap modulo 2^64 instead,
    # and the n-grams of the words below, whose first characters differ by
    # multiples of 2^11, must still land where the reference puts them.
    cjk = [chr(0x4E00 + i) for i in range(2**13 - 1)]
    tail = "".join(cjk[5000:5005])
    rest = cjk[:]
    random.Random(0).shuffle(rest)
    words = ([cjk[i] + tail for i in range(7, len(cjk), 2**11)]
             + ["".join(rest[i : i + 7]) for i in range(0, len(rest), 7)])
    text = " ".join(words)
    texts = ["short text", text, "", " ".join(words[:30])]
    assert len(set(text)) == 2**13 and hatescan.model._PASS_CHARS < len(text) < 2**14
    assert_same_vectors(featurize_batch(texts, fc), texts, fc)


@pytest.mark.parametrize("fc", FEATURE_CONFIGS)
def test_featurize_batch_matches_reference_on_a_text_longer_than_a_pass(fc) -> None:
    masks = explanation_masks()
    text = " \n".join(masks[:500])
    assert len(text) > 3 * hatescan.model._PASS_CHARS
    texts = [masks[0], text, "", masks[1], text[:200]]
    assert_same_vectors(featurize_batch(texts, fc), texts, fc)


@pytest.mark.parametrize("fc", FEATURE_CONFIGS)
def test_featurize_batch_across_many_passes_hashes_each_ngram_once(monkeypatch, fc) -> None:
    monkeypatch.setattr(hatescan.model, "_PASS_CHARS", 64)
    texts = BATCH_TEXTS + explanation_masks()[:200]
    passes = []
    real = hatescan.model._pass_keys

    def spy(group, config):
        passes.append((list(group), real(group, config)))
        return passes[-1][1]

    monkeypatch.setattr(hatescan.model, "_pass_keys", spy)
    got = featurize_batch(texts, fc)
    assert len(passes) > 10 and [t for group, _ in passes for t in group] == texts
    # each pass keys every n-gram occurrence of its texts exactly once
    for group, keys in passes:
        want = [i * fc.hash_dim + reference_bucket(*gram, fc)
                for i, text in enumerate(group) for gram in reference_keys(text, fc)]
        assert keys.dtype == np.int64 and sorted(keys.tolist()) == sorted(want)
    assert_same_vectors(got, texts, fc)


def test_featurizing_holds_memory_bounded_whatever_the_text_count() -> None:
    def generated(count):
        rng = random.Random(0)
        for _ in range(count):
            yield " ".join("".join(rng.choices("abcdefghij", k=3)) for _ in range(4))

    peaks = []
    for count in (2000, 8000):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for _ in hatescan.model._passes(generated(count), SMALL_FC):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - start)
    assert peaks[1] < 1.1 * peaks[0]


def test_predict_batch_matches_predict() -> None:
    model = train(make_separable(20), [], Hyperparams(max_epochs=3, seed=0), SMALL_FC)
    texts = [e.text for e in make_separable(5, seed=1)] + BATCH_TEXTS
    for backend in (model, PredictOnly(model)):
        got = predict_batch(backend, texts)
        assert len(got) == len(texts)
        for (label, probs), text in zip(got, texts):
            want_label, want_probs = predict(model, text)
            assert label == want_label
            assert probs.dtype == want_probs.dtype
            assert np.array_equal(probs, want_probs)


def test_predict_batch_asks_other_backends_text_by_text() -> None:
    model = train(make_separable(10), [], Hyperparams(max_epochs=1, seed=0), SMALL_FC)
    backend = PredictOnly(model)
    predict_batch(backend, BATCH_TEXTS)
    assert backend.texts == BATCH_TEXTS
    assert predict_batch(backend, []) == []


def _random_classes(k: int, fc: FeatureConfig, seed: int = 0) -> TrainedClassifier:
    rng = np.random.default_rng(seed)
    return dense_classifier(rng.normal(size=(k, fc.hash_dim)), rng.normal(size=k),
                            tuple(f"c{i}" for i in range(k)), fc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.just(""), GENERATED_TEXTS, AWKWARD_TEXTS), max_size=12),
       st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_predict_batch_scores_within_1e_15_of_the_per_text_product(texts, k, seed) -> None:
    model = _random_classes(k, SMALL_FC, seed)
    got = predict_batch(model, texts)
    assert len(got) == len(texts)
    for (label, probs), text in zip(got, texts):
        vec = featurize(text, SMALL_FC)
        logits = model.dense_weights()[:, vec.indices] @ vec.values + model.bias
        want = np.exp(logits - logits.max())
        want /= want.sum()
        assert probs.dtype == np.float64 and probs.shape == (k,)
        assert np.abs(probs - want).max() <= 1e-15
        top = np.sort(want)[-2:]
        if top[1] - top[0] > 1e-15:
            assert label == model.class_list[int(np.argmax(want))]
        if not text:  # no n-gram: the bias alone
            assert np.array_equal(probs, want)


def test_predict_scores_a_text_without_ngrams_by_its_bias_alone() -> None:
    words_only = FeatureConfig(hash_dim=2**10, char_ngrams=())
    for fc, text in ((SMALL_FC, ""), (words_only, " \t\n")):
        model = _random_classes(3, fc)
        want = np.exp(model.bias - model.bias.max())
        want /= want.sum()
        label, probs = predict(model, text)
        assert np.array_equal(probs, want)
        assert label == model.class_list[int(np.argmax(want))]
        got = predict_batch(model, [text, "some words", text, text])
        assert all(np.array_equal(probs, want) for _, probs in got[::2] + got[3:])
        assert not np.array_equal(got[1][1], want)


def test_predict_batch_scores_unstored_buckets_as_zero_weights() -> None:
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(3, SMALL_FC.hash_dim))
    weights[:, rng.random(SMALL_FC.hash_dim) < 0.5] = 0.0
    sparse = dense_classifier(weights, rng.normal(size=3), ("a", "b", "c"), SMALL_FC)
    # the same weights, every column stored
    full = TrainedClassifier(np.full(SMALL_FC.hash_dim // 8, 0xFF, dtype=np.uint8), weights,
                             sparse.bias, sparse.class_list, SMALL_FC)
    assert 0 < len(sparse.columns) < SMALL_FC.hash_dim
    texts = ["some words to score", "", "more text and more words", "x"]
    for (label, probs), (want_label, want) in zip(predict_batch(sparse, texts),
                                                  predict_batch(full, texts)):
        assert label == want_label
        assert np.array_equal(probs.view(np.uint64), want.view(np.uint64))


def test_predict_sees_weight_edits_made_after_the_first_scoring() -> None:
    model = _random_classes(3, SMALL_FC)
    before = predict(model, "some words")[1]
    model.weights *= 2.0
    assert not np.array_equal(predict(model, "some words")[1], before)
    model.weights = model.weights / 2.0
    assert np.array_equal(predict(model, "some words")[1], before)
    # the stored buckets cannot change under the table scoring built
    with pytest.raises(ValueError, match="read-only"):
        model.stored[0] = 0


def test_feature_config_validation() -> None:
    with pytest.raises(ValueError):
        FeatureConfig(hash_dim=1000)  # not a power of two
    for sizes in ((0,), (2, -1), (1.5,)):
        with pytest.raises(ValueError, match="positive integers"):
            FeatureConfig(char_ngrams=sizes)
        with pytest.raises(ValueError, match="positive integers"):
            FeatureConfig(word_ngrams=sizes)
    with pytest.raises(ValueError):
        FeatureConfig(hash_dim=2**9)  # too small
    with pytest.raises(ValueError):
        FeatureConfig(word_ngrams=(), char_ngrams=())


@pytest.mark.parametrize("seed", [-1, 2**64, True, False, 1.0, "0", None])
def test_feature_config_refuses_a_seed_outside_64_bits(seed) -> None:
    with pytest.raises(ValueError, match="hash_seed"):
        FeatureConfig(hash_seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_feature_config_takes_any_64_bit_seed(seed) -> None:
    fc = FeatureConfig(hash_dim=2**10, hash_seed=seed)
    texts = ["any seed hashes", ""]
    assert_same_vectors(featurize_batch(texts, fc), texts, fc)


# ---------------------------------------------------------------- class_weights


def test_class_weights_imbalanced_corpus_proportions() -> None:
    w = class_weights({"hate": 3185, "normal": 6815})
    assert abs(w["hate"] - 1.5699) < 1e-3
    assert abs(w["normal"] - 0.7337) < 1e-3


def test_class_weights_balanced() -> None:
    assert class_weights({"a": 50, "b": 50}) == {"a": 1.0, "b": 1.0}


def test_class_weights_three_classes_exact() -> None:
    w = class_weights({"a": 1, "b": 1, "c": 2})
    assert w["a"] == pytest.approx(4 / 3, abs=1e-15)
    assert w["b"] == pytest.approx(4 / 3, abs=1e-15)
    assert w["c"] == pytest.approx(2 / 3, abs=1e-15)


def test_class_weights_zero_count_rejected() -> None:
    with pytest.raises(ValueError):
        class_weights({"a": 0, "b": 5})
    with pytest.raises(ValueError):
        class_weights({})


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.integers(min_value=1, max_value=10_000),
        min_size=1,
    )
)
def test_class_weights_weighted_sum_is_total(counts: dict) -> None:
    w = class_weights(counts)
    total = sum(counts.values())
    assert math.isclose(sum(counts[c] * w[c] for c in counts), total, rel_tol=1e-12)
    if len(counts) > 1:
        rarest = min(counts, key=counts.get)
        commonest = max(counts, key=counts.get)
        assert w[rarest] >= w[commonest]


# ---------------------------------------------------------------- weighted_ce_loss


def test_loss_uniform_softmax() -> None:
    loss, _ = weighted_ce_loss(np.zeros(2), 0, 1.0)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_loss_linear_in_weight() -> None:
    loss1, grad1 = weighted_ce_loss(np.zeros(2), 0, 1.0)
    loss2, grad2 = weighted_ce_loss(np.zeros(2), 0, 2.0)
    assert loss2 == pytest.approx(2 * loss1, abs=1e-12)
    assert np.allclose(grad2, 2 * grad1, rtol=0, atol=1e-15)


def test_loss_accepts_weight_map_and_array() -> None:
    by_map = weighted_ce_loss(np.array([1.0, -1.0]), 1, {0: 0.5, 1: 2.5})
    by_arr = weighted_ce_loss(np.array([1.0, -1.0]), 1, np.array([0.5, 2.5]))
    assert by_map[0] == by_arr[0]
    assert np.array_equal(by_map[1], by_arr[1])


def test_loss_stable_for_large_logits() -> None:
    loss, grad = weighted_ce_loss(np.array([1e4, -1e4, 0.0]), 0, 1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))
    loss2, _ = weighted_ce_loss(np.array([1e4, -1e4, 0.0]), 1, 1.0)
    assert np.isfinite(loss2) and loss2 > 1e3


def test_loss_gradient_matches_finite_differences_sample() -> None:
    # norm-wise relative error: per-component ratios are meaningless once a
    # component sits at the finite-difference noise floor
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(10):
        k = int(rng.integers(2, 6))
        logits = rng.normal(scale=3.0, size=k)
        y = int(rng.integers(0, k))
        w = float(rng.uniform(0.2, 3.0))
        _, grad = weighted_ce_loss(logits, y, w)
        fd = np.zeros(k)
        for j in range(k):
            bump = np.zeros(k)
            bump[j] = h
            lp, _ = weighted_ce_loss(logits + bump, y, w)
            lm, _ = weighted_ce_loss(logits - bump, y, w)
            fd[j] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
        assert rel < 1e-4


# ---------------------------------------------------------------- early stopping


def test_early_stop_trace() -> None:
    tracker = _EarlyStopTracker(patience=2)
    losses = [1.0, 0.9, 0.95, 0.96]
    stops = [tracker.update(loss, epoch) for epoch, loss in enumerate(losses, start=1)]
    assert stops == [False, False, False, True]  # stop after epoch 4
    assert tracker.best_epoch == 2
    assert tracker.best_loss == 0.9


def test_early_stop_improvement_resets_patience() -> None:
    tracker = _EarlyStopTracker(patience=2)
    for epoch, loss in enumerate([1.0, 0.99, 1.1, 0.5, 0.6], start=1):
        assert tracker.update(loss, epoch) is False
    assert tracker.best_epoch == 4


# ---------------------------------------------------------------- train


def test_train_reaches_high_accuracy_on_separable_data() -> None:
    examples = make_separable(80)
    assert perceptron_separable(examples, SMALL_FC)
    hp = Hyperparams(learning_rate=0.1, seed=3)
    model = train(examples, [], hp, SMALL_FC)
    correct = sum(1 for e in examples if predict(model, e.text)[0] == e.label)
    assert correct / len(examples) >= 0.99


def test_train_deterministic_bytes(tmp_path) -> None:
    examples = make_separable(30, seed=5)
    hp = Hyperparams(learning_rate=0.05, seed=11)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save(train(examples, examples[:10], hp, SMALL_FC), p1)
    save(train(examples, examples[:10], hp, SMALL_FC), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_returns_best_validation_snapshot() -> None:
    examples = make_separable(60, seed=9)
    split_at = 90
    train_part, val_part = examples[:split_at], examples[split_at:]
    hp = Hyperparams(learning_rate=0.1, seed=2, max_epochs=8)
    model = train(train_part, val_part, hp, SMALL_FC)
    val_losses = [e["val_loss"] for e in model.training_log]
    # recompute the returned snapshot's validation loss independently
    classes = model.class_list
    index = {c: i for i, c in enumerate(classes)}
    total = 0.0
    for e in val_part:
        vec = featurize(e.text, SMALL_FC)
        logits = model.dense_weights()[:, vec.indices] @ vec.values + model.bias
        loss, _ = weighted_ce_loss(logits, index[e.label], 1.0)
        total += loss
    recomputed = total / len(val_part)
    assert recomputed <= min(val_losses) + 1e-9


def test_train_empty_training_set_rejected() -> None:
    with pytest.raises(ValueError):
        train([], [], Hyperparams(), SMALL_FC)


def test_train_unknown_validation_label_rejected() -> None:
    examples = make_separable(10)
    odd = [LabeledExample(text="strange", label="mystery", origin="t")]
    with pytest.raises(ValueError):
        train(examples, odd, Hyperparams(), SMALL_FC)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_train_divergence_raises() -> None:
    examples = make_separable(10)
    hp = Hyperparams(learning_rate=1e308, seed=0, optimizer="sgd", max_epochs=6)
    with pytest.raises(ModelError, match="diverged"):
        train(examples, [], hp, SMALL_FC)


def test_train_weighted_flag_changes_model() -> None:
    examples = make_separable(20, seed=1) + [
        LabeledExample(text=f"alpha0 extra {i}", label="hate", origin="s") for i in range(15)
    ]
    a = train(examples, [], Hyperparams(learning_rate=0.05, seed=4), SMALL_FC)
    b = train(
        examples, [], Hyperparams(learning_rate=0.05, seed=4, weighted_loss=True), SMALL_FC
    )
    assert not np.array_equal(a.dense_weights(), b.dense_weights())


def test_training_log_structure() -> None:
    examples = make_separable(20)
    model = train(examples, examples[:8], Hyperparams(max_epochs=3, learning_rate=0.05), SMALL_FC)
    assert 1 <= len(model.training_log) <= 3
    first = model.training_log[0]
    assert set(first) == {"epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"}
    assert first["val_loss"] is not None


# ---------------------------------------------------------------- compact optimizer state


def _noisy_split():
    """Every fifth label flipped, so validation loss turns up and stops training
    early; empty texts on both sides and validation n-grams unseen in training."""
    examples = make_separable(30, seed=7)
    flip = {"hate": "normal", "normal": "hate"}
    noisy = [LabeledExample(e.text, flip[e.label], e.origin) if i % 5 == 0 else e
             for i, e in enumerate(examples)]
    train_part = noisy[:45] + [LabeledExample("", "hate", "s")]
    val_part = noisy[45:] + [LabeledExample("gamma9 unseenword", "normal", "s"),
                             LabeledExample("", "hate", "s")]
    return train_part, val_part


def _saved_bytes(model, path) -> bytes:
    save(model, path)
    return path.read_bytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("optimizer,lr", [("adam", 0.1), ("sgd", 1.0)])
def test_train_matches_dense_reference_bytes(tmp_path, optimizer, lr, weighted) -> None:
    train_part, val_part = _noisy_split()
    seen = set(np.concatenate([v.indices for v in featurize_batch(
        [e.text for e in train_part], SMALL_FC)]).tolist())
    unseen = featurize("gamma9 unseenword", SMALL_FC).indices
    assert not seen.issuperset(unseen.tolist())
    hp = Hyperparams(optimizer=optimizer, learning_rate=lr, weighted_loss=weighted,
                     max_epochs=10, seed=1)
    model = train(train_part, val_part, hp, SMALL_FC)
    reference = dense_train(train_part, val_part, hp, SMALL_FC)
    # early stopping fired and the best epoch was not the last one
    val_losses = [e["val_loss"] for e in model.training_log]
    assert len(val_losses) < hp.max_epochs
    assert val_losses.index(min(val_losses)) < len(val_losses) - 1
    assert _saved_bytes(model, tmp_path / "a.bin") == _saved_bytes(reference, tmp_path / "b.bin")


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_train_matches_dense_reference_without_validation(tmp_path, optimizer) -> None:
    train_part, _ = _noisy_split()
    hp = Hyperparams(optimizer=optimizer, learning_rate=0.05, max_epochs=3, seed=2)
    fc = FeatureConfig(hash_dim=2**14)
    model = train(train_part, [], hp, fc)
    reference = dense_train(train_part, [], hp, fc)
    assert _saved_bytes(model, tmp_path / "a.bin") == _saved_bytes(reference, tmp_path / "b.bin")


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_train_on_only_empty_texts_matches_dense_reference(tmp_path, optimizer) -> None:
    empty = [LabeledExample("", label, "s") for label in ("hate", "normal") * 4]
    hp = Hyperparams(optimizer=optimizer, learning_rate=0.1, max_epochs=3, seed=0)
    model = train(empty, empty[:2], hp, SMALL_FC)
    reference = dense_train(empty, empty[:2], hp, SMALL_FC)
    assert not model.dense_weights().any()
    assert _saved_bytes(model, tmp_path / "a.bin") == _saved_bytes(reference, tmp_path / "b.bin")


def test_untouched_weight_columns_are_positive_zero() -> None:
    train_part, val_part = _noisy_split()
    model = train(train_part, val_part, Hyperparams(learning_rate=0.1, seed=1), SMALL_FC)
    touched = np.unique(np.concatenate([v.indices for v in featurize_batch(
        [e.text for e in train_part + val_part], SMALL_FC)]))
    untouched = np.setdiff1d(np.arange(SMALL_FC.hash_dim), touched)
    assert untouched.size
    assert not model.dense_weights()[:, untouched].any()
    assert not np.signbit(model.dense_weights()[:, untouched]).any()


def test_optimizer_state_spans_only_touched_columns(monkeypatch) -> None:
    widths = []
    original = hatescan.model._AdamState.__init__

    def spy(self, w, b, hp):
        original(self, w, b, hp)
        widths.append(self.m_w.shape[1])

    monkeypatch.setattr(hatescan.model._AdamState, "__init__", spy)
    train_part, val_part = _noisy_split()
    fc = FeatureConfig(hash_dim=2**14)
    train(train_part, val_part, Hyperparams(max_epochs=2), fc)
    buckets = np.unique(np.concatenate([v.indices for v in featurize_batch(
        [e.text for e in train_part + val_part], fc)]))
    assert widths == [buckets.size]
    assert buckets.size < fc.hash_dim


# ---------------------------------------------------------------- scaling property


def _tiny_problem(seed: int = 0):
    examples = make_separable(12, seed=seed)
    classes = sorted({e.label for e in examples})
    index = {c: i for i, c in enumerate(classes)}
    feats = [featurize(e.text, SMALL_FC) for e in examples]
    labels = [index[e.label] for e in examples]
    return feats, labels, len(classes)


def _run_epochs(feats, labels, k, weights_vec, hp, epochs: int):
    import random as pyrandom

    from hatescan.model import _AdamState, _SgdState

    w = np.zeros((k, SMALL_FC.hash_dim))
    b = np.zeros(k)
    rng = pyrandom.Random(hp.seed)
    opt = _AdamState(w, b, hp) if hp.optimizer == "adam" else _SgdState(hp)
    for _ in range(epochs):
        _epoch_pass(w, b, feats, labels, weights_vec, hp, rng=rng, opt=opt)
    return w, b


def test_scaling_weights_and_lr_exact_under_sgd() -> None:
    feats, labels, k = _tiny_problem()
    base = np.array([1.3, 0.7])
    c = 4.0
    hp1 = Hyperparams(learning_rate=0.08, seed=7, optimizer="sgd")
    hp2 = Hyperparams(learning_rate=0.08 / c, seed=7, optimizer="sgd")
    w1, b1 = _run_epochs(feats, labels, k, base, hp1, epochs=3)
    w2, b2 = _run_epochs(feats, labels, k, base * c, hp2, epochs=3)
    assert np.array_equal(w1, w2)
    assert np.array_equal(b1, b2)


def test_scaling_weights_near_invariant_under_adam() -> None:
    # Adam normalizes gradient scale, so scaled weights with the SAME learning
    # rate give nearly the same trajectory (eps breaks exactness)
    feats, labels, k = _tiny_problem(seed=3)
    base = np.array([1.3, 0.7])
    hp = Hyperparams(learning_rate=0.05, seed=7)
    w1, b1 = _run_epochs(feats, labels, k, base, hp, epochs=3)
    w2, b2 = _run_epochs(feats, labels, k, base * 8.0, hp, epochs=3)
    assert np.allclose(w1, w2, atol=1e-4)
    assert np.allclose(b1, b2, atol=1e-4)


def test_scaling_loss_and_grad_linear() -> None:
    rng = np.random.default_rng(5)
    logits = rng.normal(size=4)
    loss1, grad1 = weighted_ce_loss(logits, 2, 1.7)
    loss2, grad2 = weighted_ce_loss(logits, 2, 1.7 * 5.0)
    assert loss2 == pytest.approx(5.0 * loss1, rel=1e-12)
    assert np.allclose(grad2, 5.0 * grad1, rtol=1e-12, atol=0)


# ---------------------------------------------------------------- predict


def test_predict_zero_model_uniform_and_first_class() -> None:
    model = dense_classifier(np.zeros((3, SMALL_FC.hash_dim)), np.zeros(3), ("a", "b", "c"),
                             SMALL_FC)
    label, probs = predict(model, "whatever text")
    assert label == "a"
    assert np.allclose(probs, 1 / 3)


def test_predict_probs_sum_to_one_random_models() -> None:
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        model = dense_classifier(rng.normal(size=(k, SMALL_FC.hash_dim)), rng.normal(size=k),
                                 tuple(f"c{i}" for i in range(k)), SMALL_FC)
        _, probs = predict(model, "some words to score")
        assert abs(float(probs.sum()) - 1.0) < 1e-9


def test_predict_holdout_keywords() -> None:
    examples = make_separable(80, seed=21)
    model = train(examples, [], Hyperparams(learning_rate=0.1, seed=1), SMALL_FC)
    assert predict(model, "alpha1 alpha5 filler2")[0] == "hate"
    assert predict(model, "beta3 beta6 filler9")[0] == "normal"


# ---------------------------------------------------------------- persistence


def _random_model(seed: int = 0, weights=None) -> TrainedClassifier:
    """Random weights, or ``weights`` if given, and a random bias."""
    rng = np.random.default_rng(seed)
    if weights is None:
        weights = rng.normal(size=(2, SMALL_FC.hash_dim))
    return dense_classifier(weights, rng.normal(size=2), ("hate", "normal"), SMALL_FC,
                            [{"epoch": 1, "train_loss": 0.5, "train_accuracy": 0.8,
                              "val_loss": None, "val_accuracy": None}])


def test_save_load_round_trip(tmp_path) -> None:
    model = _random_model()
    path = tmp_path / "m.bin"
    save(model, path)
    back = load(path)
    assert np.array_equal(model.dense_weights(), back.dense_weights())
    assert np.array_equal(model.bias, back.bias)
    assert back.class_list == model.class_list
    assert back.feature_config == model.feature_config
    assert back.training_log == model.training_log
    for text in ("alpha text", "beta words", ""):
        assert predict(model, text)[0] == predict(back, text)[0]


def test_load_truncated_file(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelError):
        load(path)


def test_load_bad_magic(tmp_path) -> None:
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ModelError, match="magic"):
        load(path)


def test_load_wrong_version(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelError, match="version"):
        load(path)


def test_load_refuses_a_version_1_file_and_says_to_retrain(tmp_path) -> None:
    # a version-1 header, as the blake2b featurizer wrote it, before its payload
    header = json.dumps({"class_list": ["hate", "normal"], "feature_config": {
        "char_ngrams": [3, 4, 5], "hash_dim": 1024, "hash_seed": 0, "word_ngrams": [1, 2]},
        "n_classes": 2, "payload_crc32": 0, "training_log": []},
        sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "v1.bin"
    path.write_bytes(b"HSCM" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little")
                     + header + bytes(8 * (2 * 1024 + 2)))
    with pytest.raises(ModelError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "version 1" in message
    assert "featurizer changed" in message and "retrained" in message


def test_save_writes_version_3_and_the_hash_name(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    blob = path.read_bytes()
    assert blob[4:8] == (3).to_bytes(4, "little")
    header = json.loads(blob[12 : 12 + int.from_bytes(blob[8:12], "little")])
    assert header["feature_config"]["hash"] == "poly64-splitmix64"


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob.replace(b'"hash":"poly64-splitmix64"', b'"hash":"blake2b-8"'),
     "unknown n-gram hash 'blake2b-8'"),
    (lambda blob: blob.replace(b'"hash":"poly64-splitmix64",', b""), "corrupt header"),
    (lambda blob: blob.replace(b'"hash_seed":0', b'"hash_seed":-1'),
     "corrupt header: hash_seed must be"),
    (lambda blob: blob.replace(b'"hash_seed":0', b'"hash_seed":18446744073709551616'),
     "corrupt header: hash_seed must be"),
])
def test_load_refuses_a_header_of_another_hash_or_seed(tmp_path, edit, message) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    header = edit(blob[12 : 12 + header_len])
    assert header != blob[12 : 12 + header_len]
    path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header
                     + blob[12 + header_len :])
    with pytest.raises(ModelError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_load_flipped_payload_byte(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelError, match="checksum"):
        load(path)


def test_load_rejects_a_zero_ngram_size(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    blob = path.read_bytes()
    assert blob.count(b'"char_ngrams":[3,') == 1
    path.write_bytes(blob.replace(b'"char_ngrams":[3,', b'"char_ngrams":[0,'))
    with pytest.raises(ModelError, match="corrupt header"):
        load(path)


def _model_file(version: int, header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (b"HSCM" + version.to_bytes(4, "little") + len(header_bytes).to_bytes(4, "little")
            + header_bytes + payload)


def _split_model_file(blob: bytes):
    header_len = int.from_bytes(blob[8:12], "little")
    return json.loads(blob[12 : 12 + header_len]), blob[12 + header_len :]


def test_save_writes_the_little_endian_payload_and_its_crc(tmp_path) -> None:
    weights = np.random.default_rng(0).normal(size=(2, SMALL_FC.hash_dim))
    # column 1 is left out, column 2 is stored for its -0.0, column 3 for
    # its one nonzero weight
    weights[:, 1:4] = [[0.0, -0.0, 0.0], [0.0, 0.0, 1.5]]
    model = _random_model(weights=weights)
    # a Fortran-ordered matrix is saved in row-major order all the same
    model.weights = np.asfortranarray(model.weights)
    path = tmp_path / "m.bin"
    save(model, path)
    header, payload = _split_model_file(path.read_bytes())
    stored = np.ones(SMALL_FC.hash_dim, dtype=bool)
    stored[1] = False
    want = (np.packbits(stored, bitorder="little").tobytes()
            + model.dense_weights()[:, stored].astype("<f8").tobytes()
            + model.bias.astype("<f8").tobytes())
    assert payload == want
    assert payload[0] == 0b11111101
    assert header["payload_crc32"] == zlib.crc32(want)
    assert header["n_classes"] == 2


def test_save_makes_no_copy_of_the_weights(tmp_path) -> None:
    # a 10 MB target model that stores every column
    model = _random_classes(5, FeatureConfig())
    tracemalloc.start()
    try:
        save(model, tmp_path / "m.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.dense_weights().nbytes // 10


def test_load_reads_the_payload_into_writeable_weight_arrays(tmp_path) -> None:
    path = tmp_path / "m.bin"
    # a 10 MB target model that stores every column
    model = _random_classes(5, FeatureConfig())
    save(model, path)
    # the dense weights and bias, which the file holds behind a 32 KB bitmap
    payload = model.dense_weights().nbytes + model.bias.nbytes
    del model
    tracemalloc.start()
    try:
        back = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload
    for values in (back.weights, back.bias):
        assert values.dtype == np.float64
        assert values.flags.writeable and values.flags.c_contiguous
    back.weights[0, 0] += 1.0


def test_load_holds_only_the_stored_columns(tmp_path) -> None:
    path = tmp_path / "m.bin"
    # a target model that stores one column in 16, as a trained one stores few
    weights = np.zeros((5, FeatureConfig().hash_dim))
    weights[:, ::16] = np.random.default_rng(0).normal(size=(5, weights.shape[1] // 16))
    model = dense_classifier(weights, np.zeros(5), tuple("abcde"), FeatureConfig())
    save(model, path)
    held = model.stored.nbytes + model.weights.nbytes + model.bias.nbytes
    del model
    tracemalloc.start()
    try:
        back = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.columns, np.arange(0, weights.shape[1], 16))
    assert np.array_equal(back.weights, weights[:, ::16])
    # the bitmap, unpacked once, is the rest
    assert peak <= 1.1 * held + weights.shape[1]
    assert peak < weights.nbytes // 8


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob[:-1], "weight payload is {short} bytes, expected {full}"),
    (lambda blob: blob + b"\x00", "weight payload is {long} bytes, expected {full}"),
    (lambda blob: blob[:8] + (len(blob)).to_bytes(4, "little") + blob[12:],
     "truncated header"),
])
def test_load_names_a_payload_or_header_of_the_wrong_length(tmp_path, edit, message) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)  # every column stored
    full = SMALL_FC.hash_dim // 8 + (2 * SMALL_FC.hash_dim + 2) * 8
    path.write_bytes(edit(path.read_bytes()))
    want = message.format(short=full - 1, long=full + 1, full=full)
    with pytest.raises(ModelError) as info:
        load(path)
    assert str(info.value) == f"{path}: {want}"


def test_load_names_a_bitmap_longer_than_the_payload(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    header, _ = _split_model_file(path.read_bytes())
    path.write_bytes(_model_file(3, header, bytes(SMALL_FC.hash_dim // 8 - 1)))
    with pytest.raises(ModelError) as info:
        load(path)
    assert str(info.value) == (f"{path}: weight payload is {SMALL_FC.hash_dim // 8 - 1}"
                               f" bytes, shorter than its {SMALL_FC.hash_dim // 8}-byte"
                               " column bitmap")


_ODD_WEIGHTS = np.array([-0.0, 5e-324, -5e-324, 2.0**-1050, 1e-310, 1.0, -3.25])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["none", "some", "all"]),
       st.integers(0, 2**32 - 1))
def test_save_and_load_round_trip_bit_for_bit(tmp_path_factory, k, stored, seed) -> None:
    rng = np.random.default_rng(seed)
    dim = SMALL_FC.hash_dim
    columns = {"none": np.zeros(dim, dtype=bool), "all": np.ones(dim, dtype=bool),
               "some": rng.random(dim) < 0.1}[stored]
    weights = np.zeros((k, dim))
    # a stored column holds normal, subnormal and -0.0 weights, and may be
    # +0.0 in every row but one
    weights[:, columns] = rng.choice(_ODD_WEIGHTS, size=(k, int(columns.sum())))
    weights[:, columns & (rng.random(dim) < 0.3)] *= 0.0  # keeps the sign
    if columns.any():  # and one stored column holds only -0.0
        weights[:, rng.choice(np.flatnonzero(columns))] = -0.0
    model = dense_classifier(weights, rng.choice(_ODD_WEIGHTS, size=k),
                             tuple(f"c{i}" for i in range(k)), SMALL_FC)
    want = (weights.view(np.uint64) != 0).any(axis=0)
    first, again = tmp_path_factory.mktemp("rt") / "a.bin", tmp_path_factory.mktemp("rt") / "b.bin"
    save(model, first)
    back = load(first)
    save(back, again)
    assert back.columns.dtype == np.int64
    assert np.array_equal(back.columns, np.flatnonzero(want))
    assert np.array_equal(back.columns, model.columns)
    assert np.array_equal(back.stored, model.stored)
    assert np.array_equal(back.weights.view(np.uint64), model.weights.view(np.uint64))
    assert np.array_equal(back.dense_weights().view(np.uint64), weights.view(np.uint64))
    assert np.array_equal(back.bias.view(np.uint64), model.bias.view(np.uint64))
    blob = first.read_bytes()
    assert again.read_bytes() == blob
    _, payload = _split_model_file(blob)
    bitmap = np.frombuffer(payload[: dim // 8], dtype=np.uint8)
    assert np.array_equal(np.unpackbits(bitmap, bitorder="little").astype(bool), want)
    assert len(payload) == dim // 8 + (k * int(want.sum()) + k) * 8


def test_load_reads_a_version_2_file_and_saves_it_as_version_3(tmp_path) -> None:
    weights = np.random.default_rng(0).normal(size=(2, SMALL_FC.hash_dim))
    weights[:, 5] = 0.0
    model = _random_model(weights=weights)
    # version 2: the dense weights and the bias, with no bitmap
    payload = weights.astype("<f8").tobytes() + model.bias.astype("<f8").tobytes()
    header = {"class_list": ["hate", "normal"], "feature_config": {
        "char_ngrams": [3, 4, 5], "hash": "poly64-splitmix64", "hash_dim": 1024,
        "hash_seed": 0, "word_ngrams": [1, 2]}, "n_classes": 2,
        "payload_crc32": zlib.crc32(payload), "training_log": model.training_log}
    v2 = tmp_path / "v2.bin"
    v2.write_bytes(_model_file(2, header, payload))
    back = load(v2)
    # column 5, +0.0 in both rows, is left out, as a version-3 file leaves it
    assert np.array_equal(back.columns, np.delete(np.arange(SMALL_FC.hash_dim), 5))
    assert np.array_equal(back.dense_weights().view(np.uint64), weights.view(np.uint64))
    assert np.array_equal(back.bias, model.bias)
    assert back.training_log == model.training_log
    v3 = tmp_path / "v3.bin"
    save(back, v3)
    save(model, tmp_path / "direct.bin")
    assert v3.read_bytes() == (tmp_path / "direct.bin").read_bytes()
    assert v3.read_bytes()[4:8] == (3).to_bytes(4, "little")


def _one_column_model() -> TrainedClassifier:
    weights = np.zeros((2, SMALL_FC.hash_dim))
    weights[:, 0] = [0.5, -0.5]
    return dense_classifier(weights, np.zeros(2), ("hate", "normal"), SMALL_FC)


@pytest.mark.parametrize("where", ["bitmap", "values"])
def test_load_refuses_a_flipped_byte_in_the_bitmap_or_the_values(tmp_path, where) -> None:
    path = tmp_path / "m.bin"
    save(_one_column_model(), path)
    blob = bytearray(path.read_bytes())
    header, payload = _split_model_file(bytes(blob))
    at = len(blob) - len(payload)
    if where == "bitmap":
        # column 1 instead of column 0: the payload length still fits
        assert blob[at] == 0b01
        blob[at] = 0b10
    else:
        blob[at + SMALL_FC.hash_dim // 8 + 3] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelError, match="checksum"):
        load(path)


def test_load_refuses_a_stored_weight_that_is_not_finite(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_one_column_model(), path)
    header, payload = _split_model_file(path.read_bytes())
    at = SMALL_FC.hash_dim // 8 + 8  # the second row's weight
    payload = payload[:at] + np.array([np.nan], "<f8").tobytes() + payload[at + 8 :]
    header["payload_crc32"] = zlib.crc32(payload)
    path.write_bytes(_model_file(3, header, payload))
    with pytest.raises(ModelError) as info:
        load(path)
    assert str(info.value) == f"{path}: model weights contain NaN or Inf"


def test_load_refuses_a_header_whose_n_classes_disagrees(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    header, payload = _split_model_file(path.read_bytes())
    header["n_classes"] = 3
    path.write_bytes(_model_file(3, header, payload))
    with pytest.raises(ModelError) as info:
        load(path)
    assert str(info.value) == f"{path}: header says n_classes 3 but lists 2 classes"


def test_load_refuses_an_oversized_model_before_allocating(tmp_path) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(), path)
    header, _ = _split_model_file(path.read_bytes())
    header["feature_config"]["hash_dim"] = 2**40
    path.write_bytes(_model_file(3, header, bytes(64)))
    tracemalloc.start()
    try:
        with pytest.raises(ModelError) as info:
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (f"{path}: 2 classes x {2**40} columns is {2**41} weights,"
                               f" more than the {2**26} a model file may hold")
    assert peak < 2**20


def test_save_refuses_a_model_over_the_weight_cap(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(hatescan.model, "_MAX_WEIGHTS", 2 * SMALL_FC.hash_dim - 1)
    path = tmp_path / "m.bin"
    with pytest.raises(ModelError, match=f"^{path}: 2 classes x 1024 columns"):
        save(_random_model(), path)
    assert not path.exists()


def test_save_writes_through_a_symlink_and_keeps_the_file_mode(tmp_path) -> None:
    real, link = tmp_path / "real.bin", tmp_path / "link.bin"
    save(_random_model(0), real)
    os.chmod(real, 0o640)
    link.symlink_to(real)
    save(_random_model(1), link)
    assert link.is_symlink() and stat.S_IMODE(real.stat().st_mode) == 0o640
    assert np.array_equal(load(link).dense_weights(), _random_model(1).dense_weights())
    save(_random_model(2), os.fsencode(real))
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert np.array_equal(load(real).dense_weights(), _random_model(2).dense_weights())
    assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_a_failed_save_leaves_the_old_model_and_no_other_file(tmp_path, monkeypatch,
                                                              fail_at) -> None:
    path = tmp_path / "m.bin"
    save(_random_model(0), path)
    old = path.read_bytes()
    real_open = open

    def open_failing_mid_write(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        real_write, written = fh.write, []

        def write(data):
            if len(written) == 4:  # the weights, after the bitmap
                raise OSError(28, "No space left on device")
            written.append(data)
            return real_write(data)

        fh.write = write
        return fh

    def failing_replace(src, dst):
        raise OSError(13, "Permission denied")

    if fail_at == "write":
        monkeypatch.setattr(hatescan.model, "open", open_failing_mid_write, raising=False)
    else:
        monkeypatch.setattr(hatescan.model.os, "replace", failing_replace)
    with pytest.raises(OSError, match="No space left on device|Permission denied"):
        save(_random_model(1), path)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["m.bin"]
    assert path.read_bytes() == old
    assert np.array_equal(load(path).dense_weights(), _random_model(0).dense_weights())
    save(_random_model(1), path)
    assert os.listdir(tmp_path) == ["m.bin"]
    assert np.array_equal(load(path).dense_weights(), _random_model(1).dense_weights())


def test_load_missing_file(tmp_path) -> None:
    with pytest.raises(ModelError):
        load(tmp_path / "absent.bin")


def test_model_invariants_rejected() -> None:
    with pytest.raises(ModelError):
        dense_classifier(np.array([[np.nan]]), np.zeros(1), ("a",), SMALL_FC)
    with pytest.raises(ModelError):
        dense_classifier(np.zeros((2, 4)), np.zeros(2), ("a", "a"), SMALL_FC)


_ALL = np.full(128, 0xFF, dtype=np.uint8)  # every bucket of SMALL_FC stored
_TWO = np.array([0b1100] + [0] * 127, dtype=np.uint8)  # buckets 2 and 3 stored


@pytest.mark.parametrize("stored, weights, bias, message", [
    # a (2, 2048) matrix under hash_dim 1024, which save used to write and
    # load refused, with every bucket stored or with a bitmap of 2048
    (_ALL, np.ones((2, 2048)), np.zeros(2),
     r"weights have shape \(2, 2048\), expected \(2, 1024\) for 2 classes and 1024 columns"),
    (np.full(256, 0xFF, dtype=np.uint8), np.ones((2, 2048)), np.zeros(2),
     "stored must be a uint8 bitmap of 128 bytes"),
    (np.zeros(128, dtype=np.int8), np.ones((2, 0)), np.zeros(2), "stored must be a uint8 bitmap"),
    (np.zeros((1, 128), dtype=np.uint8), np.ones((2, 0)), np.zeros(2), "stored must be"),
    ([0] * 128, np.ones((2, 0)), np.zeros(2), "stored must be"),
    (_TWO, np.ones((2, 3)), np.zeros(2), r"weights have shape \(2, 3\), expected \(2, 2\)"),
    (_TWO, np.ones(2), np.zeros(2), r"weights have shape \(2,\)"),
    (_TWO, np.ones((2, 2)), np.zeros(3), r"bias has shape \(3,\), expected \(2,\)"),
    (_TWO, np.ones((2, 2)), np.zeros((2, 1)), "bias has shape"),
])
def test_model_refuses_a_shape_that_does_not_fit(stored, weights, bias, message) -> None:
    with pytest.raises(ModelError, match=message):
        TrainedClassifier(stored, weights, bias, ("hate", "normal"), SMALL_FC)


def test_model_keeps_a_read_only_copy_of_its_bitmap() -> None:
    stored = _TWO.copy()
    model = TrainedClassifier(stored, np.ones((2, 2)), np.zeros(2), ("hate", "normal"), SMALL_FC)
    stored[0] = 0xFF
    assert np.array_equal(model.columns, [2, 3]) and model.columns.dtype == np.int64
    assert not model.stored.flags.writeable
