"""Deterministic text normalization for social media posts.

All functions are pure and byte-stable across runs: the same input and config
always produce the same output, and ``normalize`` is idempotent. Rules are
applied in a fixed order so that placeholder tokens inserted by early stages
survive the later ones.

Every stage is token-local: it maps one whitespace token to zero or more
tokens and never looks across the whitespace around it. ``NormalizerConfig``
refuses the tables that would break this (whitespace in a placeholder or an
emoji key, a whitespace folding key), so ``normalize`` splits a post once
and runs each token through all the stages in one go.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping
from weakref import WeakKeyDictionary

__all__ = [
    "NormalizerConfig",
    "NormalizedText",
    "default_config",
    "is_english",
    "replace_entities",
    "demojize",
    "normalize",
]

_TOKEN_RE = re.compile(r"\S+")
_WHITESPACE_RE = re.compile(r"\s")
_TIME_RE = re.compile(r"(?<=\d)([ap]\.m\.)")
_URL_PREFIXES = ("http://", "https://", "www.")


def _data_text(filename: str) -> str:
    return resources.files("hatescan.data").joinpath(filename).read_text(encoding="utf-8")


def _unescape(fieldtext: str) -> str:
    """Decode the \\t, \\n, \\\\ and \\uXXXX escapes used in the data files."""
    if "\\" not in fieldtext:
        return fieldtext
    out: list[str] = []
    i = 0
    while i < len(fieldtext):
        ch = fieldtext[i]
        if ch == "\\" and i + 1 < len(fieldtext):
            nxt = fieldtext[i + 1]
            if nxt == "u" and i + 6 <= len(fieldtext):
                out.append(chr(int(fieldtext[i + 2 : i + 6], 16)))
                i += 6
                continue
            if nxt in "tn\\":
                out.append({"t": "\t", "n": "\n", "\\": "\\"}[nxt])
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _load_pairs(filename: str, allow_missing_value: bool = False) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in enumerate(_data_text(filename).split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1 and allow_missing_value:
            parts.append("")
        if len(parts) != 2:
            raise ValueError(f"{filename}:{lineno}: expected 2 tab-separated fields")
        pairs.append((_unescape(parts[0]), _unescape(parts[1])))
    return pairs


@lru_cache(maxsize=1)
def _default_emoji_table() -> Mapping[str, str]:
    return MappingProxyType(dict(_load_pairs("emoji_table.tsv")))


@lru_cache(maxsize=1)
def _default_folding_table() -> Mapping[str, str]:
    table = dict(_load_pairs("char_folding.tsv", allow_missing_value=True))
    for key, value in table.items():
        if len(key) != 1:
            raise ValueError("folding table keys must be single characters")
        if any(k in value for k in table):
            raise ValueError("folding table values must not contain keys")
    return MappingProxyType(table)


@lru_cache(maxsize=1)
def _default_contraction_table() -> Mapping[str, str]:
    return MappingProxyType(dict(_load_pairs("contractions.tsv")))


@lru_cache(maxsize=1)
def _default_stopwords() -> frozenset[str]:
    words = set()
    for line in _data_text("english_stopwords.txt").split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


@dataclass(frozen=True, eq=False)
class NormalizerConfig:
    """Immutable bundle of replacement tables and thresholds.

    ``extra_placeholders`` lists additional tokens (beyond the three standard
    ones) that the lowercasing stage must leave untouched, e.g. a topic
    separator inserted downstream.
    """

    placeholder_user: str = "<USER>"
    placeholder_url: str = "<URL>"
    placeholder_hashtag: str = "<HASHTAG>"
    emoji_table: Mapping[str, str] = field(default_factory=_default_emoji_table)
    contraction_table: Mapping[str, str] = field(default_factory=_default_contraction_table)
    english_stopword_set: frozenset = field(default_factory=_default_stopwords)
    english_threshold: float = 0.15
    folding_table: Mapping[str, str] = field(default_factory=_default_folding_table)
    extra_placeholders: tuple = ()

    def __post_init__(self):
        if not self.emoji_table or not self.contraction_table:
            raise ValueError("replacement tables must be non-empty")
        if not 0.0 <= self.english_threshold <= 1.0:
            raise ValueError("english_threshold must lie in [0, 1]")
        # normalize runs each whitespace token through every stage on its
        # own, which matches running each stage over the whole text only
        # while no table or placeholder lets a stage join or split tokens
        if any(_WHITESPACE_RE.search(p) for p in self.placeholders):
            raise ValueError("placeholders must not contain whitespace")
        if _WHITESPACE_RE.search("".join(self.emoji_table)):
            raise ValueError("emoji table keys must not contain whitespace")
        if _WHITESPACE_RE.search("".join(self.folding_table)):
            raise ValueError("folding table keys must not be whitespace")
        if "" in self.contraction_table:
            raise ValueError("contraction table keys must be non-empty")

    @property
    def placeholders(self) -> tuple:
        return (
            self.placeholder_user,
            self.placeholder_url,
            self.placeholder_hashtag,
        ) + tuple(self.extra_placeholders)


class NormalizedText(str):
    """A string known to be a fixed point of ``normalize``."""

    __slots__ = ()

    @property
    def text(self) -> str:
        return str(self)


class _CompiledRules:
    """Derived lookup structures for one config, built once and reused."""

    def __init__(self, config: NormalizerConfig):
        self.user = config.placeholder_user
        self.url = config.placeholder_url
        self.hashtag = config.placeholder_hashtag
        self.placeholders = frozenset(config.placeholders)
        self.fold_map = {ord(k): v for k, v in config.folding_table.items()}
        self.emoji_table = config.emoji_table
        self.emoji_first_chars = frozenset(k[0] for k in config.emoji_table)
        self.emoji_max_len = max(len(k) for k in config.emoji_table)
        # longest clitic first so "n't" wins over a bare "'t"-style suffix.
        # A stem gets its split form's words each after one space, which is
        # what collapsing the whitespace of "stem split-form" leaves
        self.clitics = [(clitic, "".join(" " + word for word in split_form.split()))
                        for clitic, split_form in sorted(config.contraction_table.items(),
                                                         key=lambda kv: -len(kv[0]))]
        self.clitic_ends = tuple(clitic for clitic, _ in self.clitics)


_COMPILED: "WeakKeyDictionary[NormalizerConfig, _CompiledRules]" = WeakKeyDictionary()


def _compiled(config: NormalizerConfig) -> _CompiledRules:
    rules = _COMPILED.get(config)
    if rules is None:
        rules = _CompiledRules(config)
        _COMPILED[config] = rules
    return rules


@lru_cache(maxsize=1)
def default_config() -> NormalizerConfig:
    return NormalizerConfig()


def is_english(text: str, config: NormalizerConfig | None = None) -> bool:
    """Heuristic language filter based on stopword density.

    A text is kept when at least ``english_threshold`` of its whitespace
    tokens are English stopwords. Texts under 3 tokens carry too little
    signal and default to True.
    """
    if config is None:
        config = default_config()
    tokens = text.split()
    if len(tokens) < 3:
        return True
    hits = sum(
        1 for t in tokens if t.strip(string.punctuation).lower() in config.english_stopword_set
    )
    return hits / len(tokens) >= config.english_threshold


def _entity(token: str, rules: _CompiledRules) -> str:
    if len(token) > 1 and token[0] == "@":
        return rules.user
    if len(token) > 1 and token[0] == "#":
        return rules.hashtag
    if token.lower().startswith(_URL_PREFIXES):
        return rules.url
    return token


def replace_entities(text: str, config: NormalizerConfig | None = None) -> str:
    """Replace mention, hashtag and URL tokens with placeholder tokens.

    A mention is a whitespace token starting with "@", a hashtag one starting
    with "#" (both need at least one following character), and a URL any token
    with an http(s) scheme or "www." prefix, case-insensitively. The
    whitespace between tokens is kept as it is.
    """
    rules = _compiled(config or default_config())
    return _TOKEN_RE.sub(lambda m: _entity(m.group(), rules), text)


def demojize(text: str, config: NormalizerConfig | None = None) -> str:
    """Replace each known emoji sequence with its ":name:" token.

    Longest sequences match first, replacements are space-separated from
    adjacent non-space text, and unknown emoji pass through unchanged.
    """
    return _demojize(text, _compiled(config or default_config()))


def _demojize(text: str, rules: _CompiledRules) -> str:
    table = rules.emoji_table
    out: list[str] = []
    pending_space = False
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in rules.emoji_first_chars:
            for length in range(min(rules.emoji_max_len, n - i), 0, -1):
                name = table.get(text[i : i + length])
                if name is not None:
                    if out and not out[-1].isspace():
                        out.append(" ")
                    out.append(name)
                    pending_space = True
                    i += length
                    break
            else:
                if pending_space and not ch.isspace():
                    out.append(" ")
                out.append(ch)
                pending_space = False
                i += 1
        else:
            if pending_space and not ch.isspace():
                out.append(" ")
            out.append(ch)
            pending_space = False
            i += 1
    return "".join(out)


def _normalize_token(token: str, rules: _CompiledRules) -> str:
    """The normalized form of one whitespace token of a post: its stages
    in ``normalize``'s order, single-spaced, or "" if nothing is left."""
    # entity replacement, then lowercasing with placeholders exempt
    if len(token) > 1 and token[0] == "@":
        token = rules.user
    elif len(token) > 1 and token[0] == "#":
        token = rules.hashtag
    else:
        lower = token.lower()
        if lower.startswith(_URL_PREFIXES):
            token = rules.url
        elif token not in rules.placeholders:
            token = lower
    if not rules.emoji_first_chars.isdisjoint(token):
        token = _demojize(token, rules)
    token = token.translate(rules.fold_map)
    # emoji names come padded with spaces and table values may hold some,
    # so the token may now be several. Emoji padding and zero-width deletion
    # can expose mention/URL tokens that were glued to other characters;
    # resolve them now or a second run would produce a different string
    pieces = []
    for piece in token.split():
        piece = _entity(piece, rules)
        if piece.endswith(rules.clitic_ends):
            for clitic, split_form in rules.clitics:
                if piece.endswith(clitic) and len(piece) > len(clitic):
                    piece = piece[: -len(clitic)] + split_form
                    break
        if ".m." in piece:
            piece = _TIME_RE.sub(r" \1", piece)
        if piece:
            pieces.append(piece)
    return " ".join(pieces)


def normalize(text: str, config: NormalizerConfig | None = None) -> NormalizedText:
    """Run the full normalization pipeline over one text.

    Stages, in order: entity replacement, lowercasing (placeholders exempt),
    emoji naming, character folding, entity replacement again, contraction
    splitting, time-expression spacing, whitespace collapse. The result is a
    fixed point: normalizing it again returns it unchanged.

    Every stage maps one whitespace token to zero or more tokens without
    looking at its neighbours, which ``NormalizerConfig`` guarantees for any
    tables it accepts. So the text is split once, each token runs through
    all the stages in one go, and the non-empty results are joined with
    single spaces. The output is the same as running each stage over the
    whole text in turn.
    """
    rules = _compiled(config or default_config())
    return NormalizedText(" ".join(filter(None, [_normalize_token(token, rules)
                                                 for token in text.split()])))
