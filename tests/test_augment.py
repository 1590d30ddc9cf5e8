"""Back-translation round trips, failure gates and dataset accounting."""

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hatescan.augment import (
    AugmentConfig,
    HttpTranslationClient,
    ScriptedClient,
    TranslationClient,
    augment_dataset,
    back_translate,
    detect_failed_translation,
    remove_duplicate_words,
)
from hatescan.corpus import LabeledExample, TargetExample
from hatescan.normalize import normalize

from helpers import DATA_DIR


class IdentityClient(TranslationClient):
    def translate(self, text, source, target):
        return text


class ReversingClient(TranslationClient):
    def translate(self, text, source, target):
        return " ".join(reversed(text.split()))


class EchoTagClient(TranslationClient):
    """Forward call tags the text with the pivot; the back leg appends it."""

    def translate(self, text, source, target):
        if source == "en":
            return f"{target}|{text}"
        lang, _, rest = text.partition("|")
        return f"{rest} {lang}"


class FailingForClient(EchoTagClient):
    def __init__(self, broken_langs):
        self.broken = set(broken_langs)

    def translate(self, text, source, target):
        pivot = target if source == "en" else source
        if pivot in self.broken:
            raise RuntimeError(f"{pivot} service down")
        return super().translate(text, source, target)


class StutterClient(TranslationClient):
    def translate(self, text, source, target):
        if source == "en":
            return "whatever"
        return "great great day"


class ShoutingClient(TranslationClient):
    def translate(self, text, source, target):
        if source == "en":
            return text
        return " ".join(text.split()).upper() + "!!"


def examples(n, label="hate"):
    return [LabeledExample(text=f"sample text number {i}", label=label, origin="t")
            for i in range(n)]


# ------------------------------------------------------------ dedup

def test_dedup_adjacent_duplicate():
    assert remove_duplicate_words("the the cat") == "the cat"


def test_dedup_keeps_non_adjacent():
    assert remove_duplicate_words("the cat the") == "the cat the"


def test_dedup_empty():
    assert remove_duplicate_words("") == ""


def test_dedup_long_run():
    assert remove_duplicate_words("no no no no way") == "no way"


@given(st.lists(st.sampled_from(["a", "b", "cat", "dog"]), max_size=20))
def test_dedup_output_has_no_adjacent_repeats(tokens):
    out = remove_duplicate_words(" ".join(tokens)).split()
    assert all(x != y for x, y in zip(out, out[1:]))
    # collapsing is idempotent
    assert remove_duplicate_words(" ".join(out)) == " ".join(out)


# ------------------------------------------------------------ failure gate

def test_detect_short_roundtrip_failed():
    original = " ".join(["word"] * 10)
    assert detect_failed_translation(original, "word") is True


def test_detect_identity_failed():
    assert detect_failed_translation("same text", "same text") is True


def test_detect_healthy_roundtrip_passes():
    assert detect_failed_translation("a decent little sentence",
                                     "a fine short phrase") is False


def test_detect_empty_roundtrip_failed():
    assert detect_failed_translation("anything", "") is True
    assert detect_failed_translation("anything", "   ") is True


def test_detect_empty_original_failed():
    assert detect_failed_translation("", "something new") is True


def test_detect_ratio_bounds_inclusive():
    original = " ".join(["w"] * 10)
    exactly_lo = " ".join(["x"] * 3)       # ratio 0.3
    below_lo = " ".join(["x"] * 2)         # ratio 0.2
    exactly_hi = " ".join(["x"] * 30)      # ratio 3.0
    above_hi = " ".join(["x"] * 31)        # ratio 3.1
    assert detect_failed_translation(original, exactly_lo) is False
    assert detect_failed_translation(original, below_lo) is True
    assert detect_failed_translation(original, exactly_hi) is False
    assert detect_failed_translation(original, above_hi) is True


def test_detect_nonascii_fraction_strictly_above_threshold():
    original = "aa bbb ccc"
    at_limit = "aaa bbb éé"      # 2 of 10 chars non-ASCII
    over_limit = "aa bbb ééé"  # 3 of 10
    assert detect_failed_translation(original, at_limit) is False
    assert detect_failed_translation(original, over_limit) is True


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(length_ratio_bounds=(1.5, 3.0))
    with pytest.raises(ValueError):
        AugmentConfig(length_ratio_bounds=(0.3, 0.9))
    with pytest.raises(ValueError):
        AugmentConfig(max_parallel=0)
    with pytest.raises(ValueError):
        AugmentConfig(max_nonascii_fraction=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(languages=frozenset({"es", ""}))


# ------------------------------------------------------------ back_translate

def test_back_translate_identity_round_trip():
    assert back_translate("hello world", "es", IdentityClient()) == "hello world"


def test_back_translate_double_reverse_restores_order():
    assert back_translate("a b c", "es", ReversingClient()) == "a b c"


def test_back_translate_dedups_stutter():
    assert back_translate("nice weather", "es", StutterClient()) == "great day"


def test_back_translate_renormalizes_output():
    out = back_translate("nice little words", "es", ShoutingClient())
    assert out == "nice little words!!"
    assert str(normalize(out)) == out


def test_back_translate_client_error_propagates():
    with pytest.raises(RuntimeError):
        back_translate("text", "ru", FailingForClient({"ru"}))


# ------------------------------------------------------------ augment_dataset

def test_augment_accounting_no_failures():
    data = examples(100)
    config = AugmentConfig(languages=frozenset({"es", "de", "fr"}))
    out = augment_dataset(data, config, EchoTagClient())
    assert len(out) == 400
    assert out.attempted == 300
    assert sum(out.failures.values()) == 0


def test_augment_one_language_fully_filtered():
    data = examples(100)
    config = AugmentConfig(languages=frozenset({"es", "de", "ru"}))
    out = augment_dataset(data, config, FailingForClient({"ru"}))
    assert len(out) == 300
    assert out.failures["ru"] == 100
    assert out.failures["es"] == 0 and out.failures["de"] == 0


def test_augment_identity_client_returns_input_exactly():
    data = examples(12)
    config = AugmentConfig(languages=frozenset({"es", "de"}))
    out = augment_dataset(data, config, IdentityClient())
    assert list(out) == data
    assert out.failures["es"] == 12 and out.failures["de"] == 12


def test_augment_order_originals_then_language_blocks():
    data = examples(3)
    config = AugmentConfig(languages=frozenset({"es", "de"}))
    out = augment_dataset(data, config, EchoTagClient())
    assert list(out[:3]) == data
    de_block, es_block = out[3:6], out[6:9]
    assert all(e.text.endswith(" de") for e in de_block)
    assert all(e.text.endswith(" es") for e in es_block)
    for i, e in enumerate(de_block):
        assert e.text.startswith(data[i].text)


def test_augment_preserves_labels_and_flags():
    data = examples(4, label="normal") + examples(3, label="hate")
    out = augment_dataset(data, AugmentConfig(languages=frozenset({"es"})),
                          EchoTagClient())
    originals, augmented = out[: len(data)], out[len(data):]
    assert all(not e.augmented for e in originals)
    assert all(e.augmented for e in augmented)
    for source, copy in zip(data, augmented):
        assert copy.label == source.label
        assert copy.origin == source.origin


def test_augment_works_on_target_examples():
    data = [TargetExample(text="some words here", target="Islam", origin="x")]
    out = augment_dataset(data, AugmentConfig(languages=frozenset({"fr"})),
                          EchoTagClient())
    assert len(out) == 2
    assert out[1].target == "Islam" and out[1].augmented


def test_augment_parallelism_does_not_change_output():
    data = examples(20)
    langs = frozenset({"es", "de", "fr"})
    serial = augment_dataset(data, AugmentConfig(languages=langs, max_parallel=1),
                             EchoTagClient())
    parallel = augment_dataset(data, AugmentConfig(languages=langs, max_parallel=8),
                               EchoTagClient())
    assert list(serial) == list(parallel)
    assert serial.failures == parallel.failures


def test_augment_outputs_are_normalization_fixed_points():
    data = examples(5)
    out = augment_dataset(data, AugmentConfig(languages=frozenset({"es"})),
                          ShoutingClient())
    for e in out[len(data):]:
        assert str(normalize(e.text)) == e.text


def test_augment_empty_dataset():
    out = augment_dataset([], AugmentConfig(), IdentityClient())
    assert list(out) == [] and out.attempted == 0


def test_augment_requires_client():
    with pytest.raises(ValueError):
        augment_dataset(examples(1), AugmentConfig(), None)


# ------------------------------------------------------------ scripted client

def test_scripted_client_round_trip():
    client = ScriptedClient(os.path.join(DATA_DIR, "translations.tsv"))
    assert client.translate("hello world", "en", "es") == "hola mundo"
    assert client.translate("hola mundo", "es", "en") == "hi world"
    assert back_translate("hello world", "de", client) == "hello earth"


def test_scripted_client_unknown_pair_counts_as_failure():
    client = ScriptedClient(os.path.join(DATA_DIR, "translations.tsv"))
    with pytest.raises(LookupError):
        client.translate("hello world", "en", "fr")
    data = [LabeledExample(text="hello world", label="hate", origin="t")]
    out = augment_dataset(
        data, AugmentConfig(languages=frozenset({"es", "de", "fr"})), client
    )
    # es and de round trips resolve; fr has no script
    assert len(out) == 3
    assert out.failures["fr"] == 1


def test_scripted_client_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only two\tfields\n")
    with pytest.raises(ValueError):
        ScriptedClient(str(bad))


def test_translate_batch_keeps_order_and_captures_failures():
    client = FailingForClient({"ru"})
    requests = [("one two", "en", "es"), ("one two", "en", "ru"),
                ("three", "en", "de")]
    results = client.translate_batch(requests, max_parallel=3)
    assert results[0] == "es|one two"
    assert isinstance(results[1], RuntimeError)
    assert results[2] == "de|three"


# ------------------------------------------------------------ http client

class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if payload["target"] == "xx":
            self.send_error(500, "boom")
            return
        body = json.dumps(
            {"text": f"{payload['target']}::{payload['text']}"}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture(scope="module")
def http_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_client_posts_and_reads_json(http_url):
    client = HttpTranslationClient(http_url)
    assert client.translate("good morning", "en", "es") == "es::good morning"


def test_http_client_server_error_raises(http_url):
    client = HttpTranslationClient(http_url)
    with pytest.raises(Exception):
        client.translate("good morning", "en", "xx")
