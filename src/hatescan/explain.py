"""Local explanations for single predictions.

Word-masking perturbations of the input are scored by the model in one
batch (``model.predict_batch``, so the bundled classifier featurizes and
scores them a pass of many texts at a time), and a kernel-weighted ridge
regression of those scores on the mask bits yields a signed weight per
token: how much keeping that token pushed the probability of the class
under study. Short texts skip sampling entirely and enumerate every
non-empty mask, which doubles as a brute-force reference for the sampled
path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ModelError
from .model import predict_batch
from .normalize import NormalizerConfig, normalize

__all__ = [
    "EXHAUSTIVE_TOKEN_LIMIT",
    "ExplainConfig",
    "Explanation",
    "perturb",
    "lime_explain",
    "render_html",
]

# 2^12 - 1 = 4095 masks is still cheap; beyond that, sample
EXHAUSTIVE_TOKEN_LIMIT = 12


@dataclass(frozen=True)
class ExplainConfig:
    n_samples: int = 1000
    n_features: int = 6
    kernel_width: float | None = None  # None: 0.75 * sqrt(token_count)
    ridge_lambda: float = 1.0
    seed: int = 0
    exhaustive: bool | None = None  # None: automatic for short texts

    def __post_init__(self):
        if self.n_samples < 10:
            raise ValueError("n_samples must be at least 10")
        if self.ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be positive")
        if self.n_features < 1:
            raise ValueError("n_features must be at least 1")


@dataclass(frozen=True)
class Explanation:
    target_class: str
    token_weights: tuple
    intercept: float


def perturb(tokens, n: int, seed: int = 0):
    """n (mask, text) pairs; the first mask always keeps everything.

    Each bit is kept with probability one half; an all-zero draw is
    resampled because an empty text tells the surrogate nothing.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("need at least one token")
    rng = random.Random(seed)
    k = len(tokens)
    out = [(tuple([1] * k), " ".join(tokens))]
    while len(out) < n:
        mask = tuple(1 if rng.random() < 0.5 else 0 for _ in range(k))
        if not any(mask):
            continue
        out.append((mask, " ".join(t for t, bit in zip(tokens, mask) if bit)))
    return out


def _all_masks(tokens):
    """Every non-empty mask, all-ones first, then ascending bit patterns."""
    k = len(tokens)
    masks = [tuple([1] * k)]
    for pattern in range(1, 2**k):
        mask = tuple((pattern >> i) & 1 for i in range(k))
        if all(mask):
            continue
        masks.append(mask)
    return [(m, " ".join(t for t, bit in zip(tokens, m) if bit)) for m in masks]


def lime_explain(model, text: str, cls: str,
                 config: ExplainConfig | None = None,
                 normalizer_config: NormalizerConfig | None = None) -> Explanation:
    """Explain the model's probability of cls on this text.

    Sample weight is exp(-d^2 / width^2) where d is the cosine distance
    from the mask to the all-ones mask, so perturbations that keep most of
    the text count more. The ridge fit is closed-form with an unpenalized
    intercept. Deterministic for a fixed seed; fully deterministic in the
    exhaustive regime.
    """
    if config is None:
        config = ExplainConfig()
    class_list = list(model.class_list)
    if cls not in class_list:
        raise DataError(f"unknown class {cls!r}; model knows {class_list}")
    class_index = class_list.index(cls)

    tokens = str(normalize(text, normalizer_config)).split()
    if not tokens:
        raise DataError("text is empty after normalization")
    k = len(tokens)

    exhaustive = config.exhaustive
    if exhaustive is None:
        exhaustive = k <= EXHAUSTIVE_TOKEN_LIMIT
    if exhaustive and k > EXHAUSTIVE_TOKEN_LIMIT:
        raise ValueError(f"exhaustive mode supports at most "
                         f"{EXHAUSTIVE_TOKEN_LIMIT} tokens, got {k}")
    samples = _all_masks(tokens) if exhaustive else perturb(
        tokens, config.n_samples, config.seed)

    width = config.kernel_width
    if width is None:
        width = 0.75 * math.sqrt(k)

    masks = np.array([m for m, _ in samples], dtype=np.float64)
    kept = masks.sum(axis=1)
    distances = 1.0 - np.sqrt(kept / k)
    pi = np.exp(-(distances**2) / width**2)
    # probs is a dict keyed by class or a sequence aligned with class_list
    y = np.array([float(probs[cls] if hasattr(probs, "get") else probs[class_index])
                  for _, probs in predict_batch(model, [t for _, t in samples])])

    # design matrix with the intercept column first
    design = np.hstack([np.ones((len(samples), 1)), masks])
    penalty = config.ridge_lambda * np.eye(k + 1)
    penalty[0, 0] = 0.0  # intercept stays unpenalized
    weighted = design * pi[:, None]
    lhs = design.T @ weighted + penalty
    rhs = weighted.T @ y
    try:
        beta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"ridge system is singular: {exc}") from exc

    order = sorted(range(k), key=lambda i: (-abs(beta[i + 1]), i))
    top = order[: config.n_features]
    return Explanation(
        target_class=cls,
        token_weights=tuple((tokens[i], float(beta[i + 1])) for i in top),
        intercept=float(beta[0]),
    )


def render_html(explanation: Explanation) -> str:
    """Static fragment with tokens colored by contribution sign.

    Tokens and the class name are HTML-escaped, so placeholders such as
    ``<USER>`` and any markup in a post show as text.
    """
    import html  # about 3 ms to import, so only a caller that renders pays it

    rows = []
    peak = max((abs(w) for _, w in explanation.token_weights), default=0.0)
    for token, weight in explanation.token_weights:
        hue = "0, 160, 60" if weight >= 0 else "200, 40, 40"
        alpha = 0.15 + 0.85 * (abs(weight) / peak if peak else 0.0)
        rows.append(
            f'<span style="background: rgba({hue}, {alpha:.2f}); '
            f'padding: 0 4px; margin: 2px; display: inline-block;">'
            f"{html.escape(token)} ({weight:+.4f})</span>"
        )
    return (
        f'<div class="explanation" data-class="{html.escape(explanation.target_class)}">'
        + "".join(rows)
        + f'<span style="margin-left: 8px; color: #666;">intercept '
        f"{explanation.intercept:+.4f}</span></div>"
    )
