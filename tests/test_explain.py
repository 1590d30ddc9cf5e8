"""Perturbation sampling, ridge surrogate, and explanation quality."""

import math
import random

import numpy as np
import pytest

from hatescan.corpus import LabeledExample
from hatescan.errors import DataError
from hatescan.explain import (
    EXHAUSTIVE_TOKEN_LIMIT,
    ExplainConfig,
    Explanation,
    lime_explain,
    perturb,
    render_html,
)
from hatescan.model import Hyperparams, train

from helpers import PredictOnly


class KeywordModel:
    """Probability 0.9 for the positive class iff the keyword is present."""

    class_list = ("hate", "normal")

    def __init__(self, keyword="jews"):
        self.keyword = keyword

    def predict(self, text):
        p = 0.9 if self.keyword in text.split() else 0.1
        return ("hate" if p > 0.5 else "normal"), {"hate": p, "normal": 1 - p}


class ConstantModel:
    class_list = ("hate", "normal")

    def predict(self, text):
        return "normal", {"hate": 0.25, "normal": 0.75}


def oracle_ridge(masks, y, pi, ridge_lambda):
    """Augmented least-squares formulation, independent of the module's
    normal-equations solve: stack sqrt-weighted rows plus sqrt(lambda) rows
    penalizing every coefficient except the intercept."""
    n, k = masks.shape
    design = np.hstack([np.ones((n, 1)), masks])
    top = np.sqrt(pi)[:, None] * design
    penalty_rows = np.sqrt(ridge_lambda) * np.eye(k + 1)[1:]
    stacked = np.vstack([top, penalty_rows])
    target = np.concatenate([np.sqrt(pi) * y, np.zeros(k)])
    beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return beta


# ------------------------------------------------------------- perturb

def test_perturb_first_mask_is_all_ones():
    samples = perturb(["a", "b", "c"], n=20, seed=0)
    mask, text = samples[0]
    assert mask == (1, 1, 1)
    assert text == "a b c"


def test_perturb_single_token_always_kept():
    samples = perturb(["only"], n=15, seed=3)
    assert all(mask == (1,) for mask, _ in samples)
    assert all(text == "only" for _, text in samples)


def test_perturb_fixed_seed_reproducible():
    a = perturb(["w1", "w2", "w3", "w4"], n=50, seed=9)
    b = perturb(["w1", "w2", "w3", "w4"], n=50, seed=9)
    assert a == b


def test_perturb_masks_never_empty():
    samples = perturb(list("abcdef"), n=200, seed=1)
    assert len(samples) == 200
    assert all(any(mask) for mask, _ in samples)


def test_perturb_text_matches_mask():
    tokens = ["red", "green", "blue", "gold"]
    for mask, text in perturb(tokens, n=40, seed=5):
        assert text == " ".join(t for t, bit in zip(tokens, mask) if bit)


def test_perturb_needs_tokens():
    with pytest.raises(ValueError):
        perturb([], n=10)


# ------------------------------------------------------------- config

def test_explain_config_validation():
    with pytest.raises(ValueError):
        ExplainConfig(n_samples=5)
    with pytest.raises(ValueError):
        ExplainConfig(ridge_lambda=0.0)
    with pytest.raises(ValueError):
        ExplainConfig(n_features=0)


# ------------------------------------------------------------- surrogates

def test_constant_model_gets_zero_weights():
    expl = lime_explain(ConstantModel(), "some words that change nothing here",
                        "hate")
    for _, weight in expl.token_weights:
        assert abs(weight) <= 1e-6


def test_keyword_gets_top_positive_weight_exhaustive():
    expl = lime_explain(KeywordModel(), "the jews own everything", "hate")
    token, weight = expl.token_weights[0]
    assert token == "jews"
    assert weight > 0


def test_keyword_rank_one_for_every_position():
    filler = ["one", "two", "three", "four", "five", "six", "seven"]
    for position in range(8):
        tokens = filler[:position] + ["jews"] + filler[position:]
        expl = lime_explain(KeywordModel(), " ".join(tokens), "hate")
        assert expl.token_weights[0][0] == "jews"
        assert expl.token_weights[0][1] > 0


def test_exhaustive_matches_independent_ridge_oracle():
    tokens = ["alpha", "jews", "beta", "gamma"]
    k = len(tokens)
    model = KeywordModel()
    config = ExplainConfig(ridge_lambda=1.0)
    expl = lime_explain(model, " ".join(tokens), "hate", config)

    # rebuild every non-empty mask exactly as the module defines the order
    masks = [[1] * k] + [
        [(pattern >> i) & 1 for i in range(k)]
        for pattern in range(1, 2**k)
        if pattern != 2**k - 1
    ]
    masks = np.array(masks, dtype=np.float64)
    y = np.array([
        model.predict(" ".join(t for t, b in zip(tokens, m) if b))[1]["hate"]
        for m in masks
    ])
    width = 0.75 * math.sqrt(k)
    distances = 1.0 - np.sqrt(masks.sum(axis=1) / k)
    pi = np.exp(-(distances**2) / width**2)
    beta = oracle_ridge(masks, y, pi, config.ridge_lambda)

    assert expl.intercept == pytest.approx(beta[0], abs=1e-8)
    by_token = dict(expl.token_weights)
    for i, token in enumerate(tokens):
        assert by_token[token] == pytest.approx(beta[i + 1], abs=1e-8)


def test_sampled_regime_finds_keyword():
    filler = [f"word{i}" for i in range(15)]
    tokens = filler[:7] + ["jews"] + filler[7:]
    assert len(tokens) > EXHAUSTIVE_TOKEN_LIMIT
    expl = lime_explain(KeywordModel(), " ".join(tokens), "hate",
                        ExplainConfig(n_samples=1000, seed=0))
    assert expl.token_weights[0][0] == "jews"
    assert expl.token_weights[0][1] > 0


def test_sampled_fit_reconstructs_full_text_probability():
    filler = [f"word{i}" for i in range(15)]
    tokens = filler[:4] + ["jews"] + filler[4:]
    model = KeywordModel()
    config = ExplainConfig(n_samples=1000, seed=0,
                           n_features=len(tokens))
    expl = lime_explain(model, " ".join(tokens), "hate", config)
    reconstructed = expl.intercept + sum(w for _, w in expl.token_weights)
    full_prob = model.predict(" ".join(tokens))[1]["hate"]
    assert abs(reconstructed - full_prob) <= 0.15


def test_explanation_deterministic_for_fixed_seed():
    filler = [f"tok{i}" for i in range(16)]
    text = " ".join(filler)
    config = ExplainConfig(n_samples=200, seed=42)
    a = lime_explain(KeywordModel("tok3"), text, "hate", config)
    b = lime_explain(KeywordModel("tok3"), text, "hate", config)
    assert a == b


def test_weights_sorted_by_magnitude_and_capped():
    expl = lime_explain(KeywordModel(), "the jews own every single thing now",
                        "hate", ExplainConfig(n_features=3))
    assert len(expl.token_weights) == 3
    magnitudes = [abs(w) for _, w in expl.token_weights]
    assert magnitudes == sorted(magnitudes, reverse=True)


def test_weights_only_for_input_tokens():
    text = "some short unique wording"
    expl = lime_explain(KeywordModel(), text, "hate")
    assert {t for t, _ in expl.token_weights} <= set(text.split())


def test_unknown_class_rejected():
    with pytest.raises(DataError):
        lime_explain(KeywordModel(), "some text", "Jewish")


def test_empty_after_normalization_rejected():
    with pytest.raises(DataError):
        lime_explain(KeywordModel(), "   ", "hate")


def test_forced_exhaustive_over_limit_rejected():
    text = " ".join(f"t{i}" for i in range(20))
    with pytest.raises(ValueError):
        lime_explain(KeywordModel(), text, "hate",
                     ExplainConfig(exhaustive=True))


def test_forced_sampling_on_short_text():
    expl = lime_explain(KeywordModel(), "the jews again", "hate",
                        ExplainConfig(exhaustive=False, n_samples=500))
    assert expl.token_weights[0][0] == "jews"


# ------------------------------------------------------------- integration

def synthetic_target_corpus(seed=0):
    rng = random.Random(seed)
    filler = ["have", "a", "monopoly", "on", "evil", "always", "such",
              "people", "really", "again"]
    keywords = {"Jewish": ["jews", "zionist"], "Islam": ["muslim", "islam"],
                "Other": ["everyone", "nobody"]}
    data = []
    for target in sorted(keywords):
        for _ in range(30):
            words = [rng.choice(keywords[target])] + rng.sample(filler, 4)
            rng.shuffle(words)
            data.append(LabeledExample(text=" ".join(words), label=target,
                                       origin="synthetic"))
    return data


def test_trained_target_model_blames_the_keyword():
    data = synthetic_target_corpus()
    model = train(data, [], Hyperparams(max_epochs=6, learning_rate=0.1, seed=0))
    sentence = "jews have a monopoly on evil"
    predicted, _ = model.predict(sentence)
    assert predicted == "Jewish"
    expl = lime_explain(model, sentence, "Jewish")
    assert expl.token_weights[0][0] == "jews"
    assert expl.token_weights[0][1] > 0


@pytest.mark.parametrize("sentence, config", [
    ("jews have a monopoly on evil", ExplainConfig()),
    ("jews have a monopoly on evil and muslim people always really such "
     "nobody again everyone", ExplainConfig(n_samples=200, seed=3)),
])
def test_batched_scoring_matches_the_per_text_contract(sentence, config):
    """The bundled model scores masks in one batch; a backend that only has
    predict(text) is asked mask by mask. Both must give the same explanation."""
    model = train(synthetic_target_corpus(),
                  [], Hyperparams(max_epochs=3, learning_rate=0.1, seed=0))
    backend = PredictOnly(model)
    batched = lime_explain(model, sentence, "Jewish", config)
    assert batched == lime_explain(backend, sentence, "Jewish", config)
    k = len(sentence.split())
    assert len(backend.texts) == (2**k - 1 if k <= EXHAUSTIVE_TOKEN_LIMIT
                                  else config.n_samples)


# ------------------------------------------------------------- rendering

def test_render_html_marks_signs_and_class():
    expl = Explanation(target_class="Jewish",
                       token_weights=(("jews", 0.32), ("evil", -0.05)),
                       intercept=0.4)
    html = render_html(expl)
    assert 'data-class="Jewish"' in html
    assert "jews (+0.3200)" in html
    assert "evil (-0.0500)" in html
    assert "intercept +0.4000" in html


def test_render_html_handles_empty_weights():
    html = render_html(Explanation("hate", (), 0.1))
    assert "intercept" in html


def test_render_html_escapes_tokens_and_class():
    html = render_html(Explanation('Jews"', (("<USER>", 0.5), ("<script>", -0.2)), 0.1))
    assert 'data-class="Jews&quot;"' in html
    assert "&lt;USER&gt; (+0.5000)" in html
    assert "&lt;script&gt; (-0.2000)" in html
    assert "<USER>" not in html and "<script>" not in html
