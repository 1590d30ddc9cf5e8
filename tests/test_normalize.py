"""Unit and property tests for text normalization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatescan.normalize import (
    NormalizedText,
    NormalizerConfig,
    default_config,
    demojize,
    is_english,
    normalize,
    replace_entities,
)

from helpers import load_golden_pairs, reference_normalize


def test_is_english_examples() -> None:
    assert is_english("the cat is on the mat") is True
    assert is_english("el gato está en la alfombra") is False
    assert is_english("ok") is True


def test_is_english_threshold_boundary() -> None:
    config = NormalizerConfig(english_threshold=0.5)
    # exactly at the threshold counts as English
    assert is_english("the zzz the zzz", config) is True
    assert is_english("zzz zzz zzz the", config) is False


def test_replace_entities_examples() -> None:
    assert replace_entities("@john check https://x.co #maga") == "<USER> check <URL> <HASHTAG>"
    assert replace_entities("<USER> again") == "<USER> again"
    assert replace_entities("email a@b is not a mention") == "email a@b is not a mention"


def test_replace_entities_bare_sigils_kept() -> None:
    assert replace_entities("@ # alone") == "@ # alone"


def test_replace_entities_url_case_insensitive() -> None:
    assert replace_entities("WWW.Example.COM HTTPS://Site.io") == "<URL> <URL>"


def test_demojize_examples() -> None:
    assert demojize("\U0001F602") == ":face_with_tears_of_joy:"
    assert demojize("no emoji here") == "no emoji here"
    assert demojize("hi\U0001F602there") == "hi :face_with_tears_of_joy: there"


def test_demojize_variation_selector_consumed() -> None:
    assert demojize("❤️") == ":heavy_black_heart:"
    assert demojize("❤") == ":heavy_black_heart:"


def test_demojize_no_double_spacing() -> None:
    assert demojize("a \U0001F602 b") == "a :face_with_tears_of_joy: b"


def test_normalize_examples() -> None:
    got = normalize("@John said DON’T   go… #now")
    assert str(got) == "<USER> said do n't go... <HASHTAG>"
    assert str(normalize("")) == ""
    assert str(normalize("Meet at 5p.m. OK")) == "meet at 5 p.m. ok"


def test_normalize_golden_pairs() -> None:
    for raw, want in load_golden_pairs():
        assert str(normalize(raw)) == want


def test_normalized_text_is_str() -> None:
    out = normalize("Some TEXT")
    assert isinstance(out, str)
    assert isinstance(out, NormalizedText)
    assert out.text == "some text"


def test_contraction_requires_stem() -> None:
    assert str(normalize("n't alone")) == "n't alone"
    assert str(normalize("don't")) == "do n't"


def test_config_rejects_bad_threshold() -> None:
    with pytest.raises(ValueError):
        NormalizerConfig(english_threshold=1.5)


def test_config_rejects_empty_tables() -> None:
    with pytest.raises(ValueError):
        NormalizerConfig(emoji_table={})


def test_extra_placeholders_exempt_from_lowercase() -> None:
    config = NormalizerConfig(extra_placeholders=("<TOPIC>",))
    assert str(normalize("text <TOPIC> words", config)) == "text <TOPIC> words"
    assert str(normalize("text <TOPIC> words")) == "text <topic> words"


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_normalize_idempotent(text: str) -> None:
    once = normalize(text)
    assert str(normalize(once)) == str(once)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_normalize_whitespace_invariants(text: str) -> None:
    out = str(normalize(text))
    assert out == out.strip()
    assert "  " not in out
    assert "\t" not in out and "\n" not in out


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_normalize_no_folding_chars_remain(text: str) -> None:
    out = str(normalize(text))
    for ch in default_config().folding_table:
        assert ch not in out


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_normalize_lowercase_outside_placeholders(text: str) -> None:
    config = default_config()
    placeholders = set(config.placeholders)
    for token in str(normalize(text)).split():
        if token in placeholders:
            continue
        assert token == token.lower()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.from_regex(r"@[a-z]{1,8}", fullmatch=True),
            st.from_regex(r"[a-z]{1,8}", fullmatch=True),
        ),
        max_size=12,
    )
)
def test_placeholder_count_matches_mentions(tokens: list) -> None:
    text = " ".join(tokens)
    mentions = sum(1 for t in tokens if t.startswith("@") and len(t) > 1)
    out = str(normalize(text))
    assert out.split().count("<USER>") == mentions


# a custom-table config whose values make later stages split tokens again:
# an emoji name and a folding value with spaces (one exposing a mention, one a
# URL), multi-word and space-padded split forms, and placeholders that a
# later stage could rewrite
CUSTOM_CONFIG = NormalizerConfig(
    placeholder_user="@USER",
    placeholder_url="<Link>",
    emoji_table={"\U0001F602": ":lol: @x", "\u2764\ufe0f": ":heart:", "\u2764": "",
                 "ab": ":AB:", "\U0001F468\u200d\U0001F469": ":couple:"},
    contraction_table={"n't": " n't  ", "'s": "is", "'ll": "wi ll", "s": "S"},
    folding_table={"\u2019": "'", "\u2026": " ... ", "~": "www.", "\u200b": "", "q": "Q q"},
    extra_placeholders=("<Topic>",),
)

FRAGMENTS = [
    "@john", "@", "#maga", "#", "http://x.co", "HTTPS://Site.io", "www.Example.COM", "WWW.",
    "Hello", "WORLD", "DON'T", "don\u2019t", "it's", "We're", "I'LL", "n't", "'s", "cats",
    "5p.m.", "10a.m.", "p.m.", "5P.M.", "<USER>", "<URL>", "<HASHTAG>", "<Topic>", "@USER",
    "\U0001F602", "\u2764\ufe0f", "\u2764", "\U0001F468\u200d\U0001F469\u200d\U0001F467",
    "\U0001F44D\U0001F3FD", "\U0001F3F3\ufe0f\u200d\U0001F308", "#\ufe0f\u20e3",
    "1\ufe0f\u20e3", "\u2019", "\u201c", "\u2026", "\u2014", "\u200b", "\u200d", "\ufe0f",
    "\u00ad", "\ufeff", "`", "~", "ab", "q", "\u0130", "\u03a3", "\u0391\u03a3", "stra\u00dfe",
]
SEPARATORS = ["", "", " ", "  ", "\t", "\n", "\x1c", "\u00a0", "\u2028", "\u3000", "\u200b"]
POSTS = st.lists(st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from(SEPARATORS)),
                 max_size=16).map(lambda pairs: "".join(f + sep for f, sep in pairs))


@pytest.mark.parametrize("config", [default_config(), CUSTOM_CONFIG], ids=["default", "custom"])
@settings(max_examples=400, deadline=None)
@given(st.one_of(POSTS, st.text()))
def test_normalize_matches_staged_reference(config, text: str) -> None:
    assert str(normalize(text, config)) == str(reference_normalize(text, config))


def test_custom_config_reaches_every_stage() -> None:
    text = "Hi\U0001F602you @Jo don\u2019t ~x.org ab q it's 5p.m.\u2026ok cats <Topic>"
    want = "hi :lol: @USER you @USER do n't <Link> :AB: Q q it is 5 p.m. ... ok cat S <Topic>"
    assert str(normalize(text, CUSTOM_CONFIG)) == want
    assert str(reference_normalize(text, CUSTOM_CONFIG)) == want


@pytest.mark.parametrize("kwargs", [
    {"placeholder_user": "<A USER>"},
    {"extra_placeholders": ("<TOPIC>", "<NEW\u00a0TOPIC>")},
])
def test_config_rejects_placeholder_with_whitespace(kwargs) -> None:
    with pytest.raises(ValueError, match="placeholders"):
        NormalizerConfig(**kwargs)


def test_config_rejects_emoji_key_with_whitespace() -> None:
    with pytest.raises(ValueError, match="emoji"):
        NormalizerConfig(emoji_table={"\U0001F602": ":joy:", "\u2764 \u2764": ":hearts:"})


def test_config_rejects_whitespace_folding_key() -> None:
    with pytest.raises(ValueError, match="folding"):
        NormalizerConfig(folding_table={"\u2019": "'", "\u3000": ""})


def test_config_rejects_empty_clitic() -> None:
    with pytest.raises(ValueError, match="contraction"):
        NormalizerConfig(contraction_table={"n't": "n't", "": "x"})
