"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of the seed: the same seed writes the
same bytes, on any platform, because only ``random.Random`` draws are used.
The package under test is never imported; it receives only the files.

A post is a list of tokens, each with a raw form (what a user typed) and the
form ``hatescan.normalize`` turns it into. The raw forms exercise every
normalizer stage (entities, casing, emoji, character folding, contractions);
the labeled training files carry the normalized forms, as the examples-JSONL
format requires. Content words follow a Zipf-like law, and English posts
always carry enough stopwords to clear the 0.15 ``is_english`` threshold,
while the planted non-English posts carry none.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass

TARGETS = ("African", "Islam", "Jewish", "LGBT", "Other")
# share of each target among hateful posts
TARGET_MIX = (0.26, 0.20, 0.20, 0.16, 0.18)

# all of these are in the package's English stopword list
STOPWORDS = (
    "the", "a", "and", "of", "to", "is", "in", "that", "it", "for", "on",
    "with", "as", "this", "was", "but", "be", "at", "by", "not", "are",
    "from", "or", "have", "they", "we", "all", "there", "would", "their",
    "when", "who", "will", "more", "no", "if", "out", "so", "what", "up",
    "about", "than", "them", "can", "some", "could", "these", "then", "my",
    "our", "over", "even", "most", "after", "before", "your", "because",
)
EMOJI = (
    ("😂", ":face_with_tears_of_joy:"),
    ("🔥", ":fire:"),
    ("🙏", ":person_with_folded_hands:"),
    ("👍", ":thumbs_up_sign:"),
    ("😡", ":pouting_face:"),
    ("😭", ":loudly_crying_face:"),
)
# (raw, normalized); the curly apostrophe exercises character folding
CONTRACTIONS = (
    ("don't", "do n't"), ("it's", "it 's"), ("they're", "they 're"),
    ("we've", "we 've"), ("i'll", "i 'll"), ("she'd", "she 'd"),
    ("i'm", "i 'm"), ("can’t", "ca n't"), ("won’t", "wo n't"),
)

# planted rates, met exactly; the scan checks measure against these
NON_ENGLISH_SHARE = 0.10
HATE_SHARE = 0.30  # of English posts, and of the detect files
LABEL_NOISE = 0.04  # share of flipped labels, in the labeled files only

_VOCAB_SIZE = 3000
_ZIPF_EXPONENT = 1.07


@dataclass(frozen=True)
class Post:
    raw: str
    normalized: str
    hateful: bool
    target: str | None
    english: bool


@dataclass(frozen=True)
class Sizes:
    detect_rows: int = 240
    target_rows: int = 200
    # held-out files are evaluated once per run, so they can be large enough
    # that the quality metrics vary little from seed to seed
    detect_heldout: int = 600
    target_heldout: int = 600
    corpus_posts: int = 600
    corpus_parts: int = 4
    # raw token counts of every generated post are drawn from this range
    post_tokens: tuple = (6, 34)
    # normalized token counts of the explained posts. lime_explain is
    # exhaustive up to 12 tokens (2^k - 1 masks) and samples 1000 masks
    # above, so sorted latencies come in length groups; the groups are sized
    # so that, of 40 posts, the median and the 75th percentile each fall
    # inside a group, away from its edges.
    explain_lengths: tuple = (6,) * 12 + (8,) * 14 + (9,) * 14


# every post of the short shape has 6 to 12 tokens, and its explanations are
# all exhaustive (median in the 255-mask group, 75th percentile in the
# 511-mask group); every post of the long shape has 13 to 40 tokens, and its
# explanations all sample (median in the 15-token group, 75th percentile in
# the 16-token group)
SHORT = Sizes(post_tokens=(6, 12))
LONG = Sizes(post_tokens=(13, 40),
             explain_lengths=(13,) * 8 + (14,) * 8 + (15,) * 10 + (16,) * 10 + (18,) * 4)


def _pseudo_words(rng: random.Random, count: int, consonants: str, syllables: int,
                  taken: set) -> list:
    """Distinct consonant-vowel words; the letter choice keeps them apart
    from English stopwords and from each other family."""
    words = []
    while len(words) < count:
        word = "".join(rng.choice(consonants) + rng.choice("aeiou")
                       for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class Generator:
    """Vocabularies fixed by the seed, and post makers drawing from them."""

    def __init__(self, seed: int, post_tokens: tuple = Sizes.post_tokens):
        self.rng = random.Random(seed)
        self.post_tokens = post_tokens
        taken: set = set()
        rng = self.rng
        self.vocab = _pseudo_words(rng, _VOCAB_SIZE, "kvzjgt", 3, taken)
        self.cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** _ZIPF_EXPONENT for rank in range(_VOCAB_SIZE)))
        self.foreign = _pseudo_words(rng, 800, "pdbnlr", 4, taken)
        self.hate_cues = _pseudo_words(rng, 6, "xq", 3, taken)
        self.markers = {t: _pseudo_words(rng, 5, "xqw", 3, taken) for t in TARGETS}
        self.topic_words = {t: _pseudo_words(rng, 12, "kvzjgt", 4, taken)
                            for t in TARGETS}

    # ------------------------------------------------------------ tokens

    def _content(self):
        word = self.rng.choices(self.vocab, cum_weights=self.cum_weights)[0]
        return (word, word)

    def _extra(self):
        """One token that needs a normalizer stage other than lowercasing."""
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:
            name = rng.choice(self.vocab).capitalize() + str(rng.randrange(100))
            return ("@" + name, "<USER>")
        if kind == 1:
            return ("#" + rng.choice(self.vocab).capitalize(), "<HASHTAG>")
        if kind == 2:
            slug = "".join(rng.choice("abcdefXYZ0123456789") for _ in range(6))
            return (rng.choice(("https://t.co/", "http://bit.ly/", "www.")) + slug, "<URL>")
        if kind == 3:
            return rng.choice(EMOJI)
        return rng.choice(CONTRACTIONS)

    def _english(self, n_tokens: int, hateful: bool, target: str | None):
        """n_tokens raw tokens (more only when hateful and n_tokens < 6), at least
        25% of them stopwords."""
        rng = self.rng
        n_stop = max(1, math.ceil(0.25 * n_tokens))
        tokens = [(w, w) for w in rng.choices(STOPWORDS, k=n_stop)]
        if hateful:
            # longer posts carry more cues, so hashed char n-grams of the
            # rest of the post do not drown the signal
            cues = rng.choices(self.hate_cues, k=max(2, n_tokens // 6))
            tokens.extend([(w, w) for w in cues])
            tokens.append((rng.choice(self.markers[target]),) * 2)
            tokens.append((rng.choice(self.topic_words[target]),) * 2)
        elif rng.random() < 0.2:
            # a group is mentioned without hate
            tokens.append((rng.choice(self.markers[rng.choice(TARGETS)]),) * 2)
        if len(tokens) < n_tokens:
            tokens.append(self._extra())
        while len(tokens) < n_tokens:
            if hateful and rng.random() < 0.15:
                tokens.append((rng.choice(self.topic_words[target]),) * 2)
            elif not hateful and rng.random() < 0.003:
                tokens.append((rng.choice(self.hate_cues),) * 2)
            else:
                tokens.append(self._content())
        rng.shuffle(tokens)
        raw, norm = tokens[0]
        if raw == norm and rng.random() < 0.3:
            tokens[0] = (raw.capitalize(), norm)
        return tokens

    def quota(self, n: int, shares: dict) -> list:
        """n keys in exactly the given shares (largest remainder), shuffled.

        Exact counts keep planted rates from varying across seeds, which
        would otherwise widen the spread of the quality metrics."""
        keys = list(shares)
        raw = [n * shares[k] for k in keys]
        counts = [int(r) for r in raw]
        short = n - sum(counts)
        for i in sorted(range(len(keys)), key=lambda i: counts[i] - raw[i])[:short]:
            counts[i] += 1
        out = [k for k, c in zip(keys, counts) for _ in range(c)]
        self.rng.shuffle(out)
        return out

    def post(self, kind: str, n_tokens: int | None = None) -> Post:
        """kind is "foreign", "normal" or the target of a hateful post."""
        rng = self.rng
        if n_tokens is None:
            n_tokens = rng.randint(*self.post_tokens)
        if kind == "foreign":
            text = " ".join(rng.choice(self.foreign) for _ in range(max(3, n_tokens)))
            return Post(text, text, False, None, False)
        target = None if kind == "normal" else kind
        tokens = self._english(n_tokens, target is not None, target)
        return Post(" ".join(r for r, _ in tokens), " ".join(n for _, n in tokens),
                    target is not None, target, True)

    def explain_post(self, target: str, normalized_tokens: int) -> Post:
        """A hateful post whose normalized form has exactly this many tokens
        (a contraction splits one raw token in two, so redraw until none does)."""
        for _ in range(1000):
            post = self.post(target, normalized_tokens)
            if len(post.normalized.split()) == normalized_tokens:
                return post
        raise ValueError(f"cannot draw a hateful post of {normalized_tokens} tokens")


def _kinds(hate_share: float, foreign_share: float = 0.0) -> dict:
    english = 1.0 - foreign_share
    shares = {"foreign": foreign_share, "normal": english * (1 - hate_share)}
    shares.update({t: english * hate_share * m for t, m in zip(TARGETS, TARGET_MIX)})
    return shares


def _labeled_rows(gen: Generator, count: int, task: str) -> list:
    hate_share = HATE_SHARE if task == "detect" else 1.0
    kinds = gen.quota(count, _kinds(hate_share))
    noisy = gen.quota(count, {True: LABEL_NOISE, False: 1 - LABEL_NOISE})
    rows = []
    for kind, flip in zip(kinds, noisy):
        post = gen.post(kind)
        row = {"text": post.normalized, "origin": "synthetic", "augmented": False}
        if task == "detect":
            row["label"] = "hate" if post.hateful != flip else "normal"
        else:
            row["target"] = (gen.rng.choice([t for t in TARGETS if t != kind])
                             if flip else kind)
        rows.append(row)
    return rows


def _write_jsonl(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def generate(seed: int, out_dir: str, sizes: Sizes = Sizes()) -> dict:
    """Write every input file for one seed; returns paths and planted facts."""
    os.makedirs(out_dir, exist_ok=True)
    gen = Generator(seed, sizes.post_tokens)
    paths = {}
    for name, count, task in (("detect_train", sizes.detect_rows, "detect"),
                              ("target_train", sizes.target_rows, "target"),
                              ("detect_heldout", sizes.detect_heldout, "detect"),
                              ("target_heldout", sizes.target_heldout, "target")):
        paths[name] = os.path.join(out_dir, name + ".jsonl")
        _write_jsonl(paths[name], _labeled_rows(gen, count, task))

    corpus = [gen.post(kind) for kind in
              gen.quota(sizes.corpus_posts, _kinds(HATE_SHARE, NON_ENGLISH_SHARE))]
    # the corpus is written in equal parts, so a scan is timed in short units
    step = -(-len(corpus) // sizes.corpus_parts)
    paths["corpus"] = []
    for start in range(0, len(corpus), step):
        paths["corpus"].append(os.path.join(out_dir, f"corpus_{start // step}.txt"))
        with open(paths["corpus"][-1], "w", encoding="utf-8") as fh:
            for post in corpus[start : start + step]:
                fh.write(post.raw + "\n")
    targets = gen.quota(len(sizes.explain_lengths), _kinds(1.0))
    explain = [gen.explain_post(t, n) for t, n in zip(targets, sizes.explain_lengths)]
    return {
        "paths": paths,
        "corpus": corpus,
        "explain": explain,
        "planted": {
            "excluded_share": sum(not p.english for p in corpus) / len(corpus),
            "hate_share": sum(p.hateful for p in corpus) / len(corpus),
        },
    }
