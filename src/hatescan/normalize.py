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

The language filter is token-local too: ``is_english`` counts the tokens
whose stripped, lowercased form is a stopword. So both functions run one
code path, a memo (``_Memo``) from each raw token to its stopword flag and
its normalized form. A call on its own gets a fresh memo and learns from its
own text only. ``normalize_english``, the batch path the scan takes, shares
one memo, private to the call, across a list of posts, so a token repeated
across posts is processed once. Its result equals
``normalize(t) if is_english(t) else None`` for each text.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

__all__ = [
    "NormalizerConfig",
    "NormalizedText",
    "default_config",
    "is_english",
    "replace_entities",
    "demojize",
    "normalize",
    "normalize_english",
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


def is_english(text: str, config: NormalizerConfig | None = None,
               _memo: "_Memo | None" = None) -> bool:
    """Heuristic language filter based on stopword density.

    A text is kept when at least ``english_threshold`` of its whitespace
    tokens are English stopwords, a token counting when its form stripped of
    punctuation and lowercased is one. Texts under 3 tokens carry too little
    signal and default to True. ``_memo`` is ``normalize_english``'s, built
    for the same config; without one the text gets a memo of its own.
    """
    if config is None:
        config = default_config()
    memo = _memo or _Memo(config)
    tokens = memo.split(text)
    if len(tokens) < 3:
        return True
    return memo.stopword_hits(tokens) / len(tokens) >= config.english_threshold


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


def normalize(text: str, config: NormalizerConfig | None = None,
              _memo: "_Memo | None" = None) -> NormalizedText:
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
    whole text in turn. ``_memo`` is ``normalize_english``'s, built for the
    same config; without one the text gets a memo of its own.
    """
    memo = _memo or _Memo(config or default_config())
    return NormalizedText(" ".join(memo.normalized_tokens(memo.split(text))))


class _Memo:
    """What one ``normalize_english`` call learns about raw tokens.

    ``stopword`` and ``normalized`` map each raw token to its stopword flag
    and to its ``_normalize_token`` form, each computed at the token's first
    lookup, and ``split`` keeps the last text's tokens, so that
    ``is_english`` and ``normalize`` split a post once between them.
    """

    __slots__ = ("stopwords", "rules", "stopword", "normalized", "_text", "_tokens")

    def __init__(self, config: NormalizerConfig):
        self.stopwords = config.english_stopword_set
        self.rules = _compiled(config)
        self.stopword: dict = {}
        self.normalized: dict = {}
        self._text = self._tokens = None

    def split(self, text: str) -> list:
        if self._tokens is None or text is not self._text:
            self._tokens = text.split()
            self._text = text
        return self._tokens

    def stopword_hits(self, tokens: list) -> int:
        flags, stopwords = self.stopword, self.stopwords
        hits = 0
        for token in tokens:
            flag = flags.get(token)
            if flag is None:
                flag = flags[token] = token.strip(string.punctuation).lower() in stopwords
            hits += flag
        return hits

    def normalized_tokens(self, tokens: list) -> list:
        """The non-empty normalized forms of ``tokens``, in order."""
        forms, rules = self.normalized, self.rules
        out = []
        for token in tokens:
            form = forms.get(token)
            if form is None:
                form = forms[token] = _normalize_token(token, rules)
            if form:
                out.append(form)
        return out


def normalize_english(texts: Iterable[str], config: NormalizerConfig | None = None
                      ) -> list[NormalizedText | None]:
    """``normalize(text, config)`` for each text that ``is_english`` keeps,
    and None for each one it excludes, in input order.

    A token's stopword flag and its normalized form depend on that token
    alone, so one memo, private to this call, holds both for every raw token.
    Each post is split once, each distinct token is tested once, and each
    distinct token of an English post is normalized once; a token found
    only in excluded posts is never normalized. The memo grows with the
    distinct tokens of ``texts`` and is gone when the call returns, so it
    needs no cap and nothing carries over to the next call. The result
    equals ``[normalize(t, config) if is_english(t, config) else None for t
    in texts]``, and an exception raised for any text propagates.
    """
    if config is None:
        config = default_config()
    memo = _Memo(config)
    # each post still goes through the public functions, so whatever wraps
    # them sees every post
    return [normalize(text, config, memo) if is_english(text, config, memo) else None
            for text in texts]
