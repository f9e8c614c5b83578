"""Item text handling, vocabulary, and encoder input assembly."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from txrec.catalog import (
    CLS_ID,
    NUM_RESERVED,
    RESERVED_TOKENS,
    TYPE_CLS,
    TYPE_KEY,
    TYPE_VALUE,
    UNK_ID,
    Catalog,
    InputLimits,
    InteractionSequence,
    Item,
    Vocabulary,
    build_model_input,
    flatten_item,
    item_input,
    load_interactions_jsonl,
    load_items_jsonl,
    tokenize,
    write_interactions_jsonl,
    write_items_jsonl,
)
from txrec import catalog as catalog_mod
from txrec.errors import CatalogError, DataError


# ---------------------------------------------------------------------------
# tokenize


@pytest.mark.parametrize("text,expected", [
    ("Dr. Seuss", ["dr", "seuss"]),
    ("  The  CAT,  in: (the) Hat!  ", ["the", "cat", "in", "the", "hat"]),
    ("don't stop", ["don't", "stop"]),
    ("...", []),
    ("", []),
    ("42-inch TV", ["42-inch", "tv"]),
])
def test_tokenize(text, expected):
    assert tokenize(text) == expected


# ---------------------------------------------------------------------------
# items and catalog


def test_item_rejects_empty_id():
    with pytest.raises(DataError):
        Item("", (("Title", "x"),))


def test_catalog_rejects_duplicates_and_reports_unknown():
    items = [Item("a", (("T", "x"),)), Item("b", (("T", "y"),))]
    cat = Catalog(items)
    assert len(cat) == 2
    assert "a" in cat and "c" not in cat
    assert cat.ids == ["a", "b"]
    assert cat.get("b").attributes == (("T", "y"),)
    with pytest.raises(CatalogError, match="unknown item id 'zz'"):
        cat.get("zz")
    with pytest.raises(DataError, match="duplicate item id 'a'"):
        Catalog(items + [Item("a", ())])


def test_interaction_sequence_rejects_empty():
    with pytest.raises(DataError):
        InteractionSequence("u1", ())


# ---------------------------------------------------------------------------
# vocabulary


def _color_items():
    return [
        Item("a", (("Color", "red"),)),
        Item("b", (("Color", "blue deep"),)),
    ]


def test_vocabulary_orders_by_count_then_token():
    vocab = Vocabulary.build(_color_items())
    # color appears twice; singletons follow alphabetically
    assert vocab.token_list() == ["color", "blue", "deep", "red"]
    assert vocab.id("color") == NUM_RESERVED
    assert vocab.id("blue") == 5
    assert vocab.id("never-seen") == UNK_ID
    assert vocab.size == NUM_RESERVED + 4
    assert vocab.ids(["red", "color"]) == [7, 4]


def test_vocabulary_min_count_filters():
    vocab = Vocabulary.build(_color_items(), min_count=2)
    assert vocab.token_list() == ["color"]


def test_vocabulary_build_needs_items():
    with pytest.raises(ValueError):
        Vocabulary.build([])


def test_vocabulary_rejects_reserved_and_duplicate_tokens():
    with pytest.raises(DataError):
        Vocabulary(["good", "[PAD]"])
    with pytest.raises(DataError):
        Vocabulary(["twice", "twice"])


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = Vocabulary.build(_color_items())
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert tuple(lines[:4]) == RESERVED_TOKENS
    assert lines[4:] == ["color", "blue", "deep", "red"]
    loaded = Vocabulary.load(path)
    assert loaded.token_list() == vocab.token_list()
    assert loaded.id("deep") == vocab.id("deep")


def test_vocabulary_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[CLS]\nwrong\n[UNK]\nfoo\n")
    with pytest.raises(DataError, match="reserved"):
        Vocabulary.load(path)


# ---------------------------------------------------------------------------
# flattening


def test_flatten_interleaves_keys_and_values():
    vocab = Vocabulary.build(_color_items())
    sent = flatten_item(Item("b", (("Color", "blue deep"),)), vocab)
    assert sent.token_ids == (vocab.id("color"), vocab.id("blue"), vocab.id("deep"))
    assert sent.token_types == (TYPE_KEY, TYPE_VALUE, TYPE_VALUE)


def test_flatten_respects_per_field_cap():
    item = Item("x", (("one two three", "a b c d e"), ("k", "v")))
    vocab = Vocabulary.build([item])
    sent = flatten_item(item, vocab, tokens_per_field=2)
    # two key tokens, two value tokens, then the second pair
    assert len(sent.token_ids) == 2 + 2 + 1 + 1
    assert sent.token_types == (TYPE_KEY, TYPE_KEY, TYPE_VALUE, TYPE_VALUE,
                                TYPE_KEY, TYPE_VALUE)


def test_flatten_unknown_tokens_map_to_unk():
    vocab = Vocabulary.build(_color_items())
    sent = flatten_item(Item("z", (("Color", "chartreuse"),)), vocab)
    assert sent.token_ids == (vocab.id("color"), UNK_ID)


def test_flatten_empty_item_warns(caplog):
    vocab = Vocabulary.build(_color_items())
    with caplog.at_level("WARNING"):
        sent = flatten_item(Item("e", ()), vocab)
    assert sent.token_ids == ()
    assert any("empty" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# model input assembly


def _setup():
    items = _color_items()
    return Catalog(items), Vocabulary.build(items)


def test_build_model_input_layout_by_hand():
    cat, vocab = _setup()
    x = build_model_input(["a", "b"], cat, vocab)  # b is the newest
    color, blue, deep, red = (vocab.id(t) for t in ("color", "blue", "deep", "red"))
    npt.assert_array_equal(x.token_ids, [CLS_ID, color, blue, deep, color, red])
    npt.assert_array_equal(x.token_types,
                           [TYPE_CLS, TYPE_KEY, TYPE_VALUE, TYPE_VALUE, TYPE_KEY, TYPE_VALUE])
    npt.assert_array_equal(x.token_positions, np.arange(6))
    npt.assert_array_equal(x.item_positions, [0, 1, 1, 1, 2, 2])
    npt.assert_array_equal(x.global_mask, [True] + [False] * 5)
    assert len(x) == 6
    assert x.token_ids.dtype == np.int64 and x.global_mask.dtype == np.bool_


def test_build_model_input_arrays_are_frozen():
    cat, vocab = _setup()
    x = build_model_input(["a"], cat, vocab)
    with pytest.raises(ValueError):
        x.token_ids[0] = 9


def test_build_model_input_truncates_token_budget():
    cat, vocab = _setup()
    x = build_model_input(["a", "b"], cat, vocab, InputLimits(max_tokens=3, max_items=6))
    assert len(x) == 4  # aggregate slot + 3 history tokens
    npt.assert_array_equal(x.token_ids[:2], [CLS_ID, vocab.id("color")])


def test_build_model_input_keeps_most_recent_items():
    cat, vocab = _setup()
    x = build_model_input(["a", "b"], cat, vocab, InputLimits(max_items=1))
    # only item b survives, so no "red" token anywhere
    assert vocab.id("red") not in x.token_ids.tolist()
    npt.assert_array_equal(x.item_positions, [0, 1, 1, 1])


def test_build_model_input_errors():
    cat, vocab = _setup()
    with pytest.raises(ValueError):
        build_model_input([], cat, vocab)
    with pytest.raises(CatalogError, match="nope"):
        build_model_input(["nope"], cat, vocab)


def test_build_model_input_matches_flatten_per_vocab_and_field_cap(monkeypatch):
    # one catalog read through two vocabularies and two field caps: each
    # (vocab, cap) gets its own sentences, and each item is flattened once
    items = [Item("p", (("Title", "red blue deep sea"), ("Brand", "acme corp"))),
             Item("q", (("Title", "green grass"),)),
             Item("r", (("Brand", "zenith deep blue"), ("Size", "xl")))]
    cat = Catalog(items)
    vocabs = [Vocabulary.build(items), Vocabulary.build(_color_items())]
    calls = []
    real_flatten = catalog_mod.flatten_item
    monkeypatch.setattr(catalog_mod, "flatten_item",
                        lambda item, vocab, cap: calls.append(item.item_id)
                        or real_flatten(item, vocab, cap))
    history = ["p", "q", "r", "p"]
    for _ in range(2):
        for vocab in vocabs:
            for cap in (1, 3):
                x = build_model_input(history, cat, vocab, InputLimits(tokens_per_field=cap))
                ids, types = [CLS_ID], [TYPE_CLS]
                for iid in reversed(history):
                    sent = real_flatten(cat.get(iid), vocab, cap)
                    ids += sent.token_ids
                    types += sent.token_types
                npt.assert_array_equal(x.token_ids, ids)
                npt.assert_array_equal(x.token_types, types)
    assert sorted(calls) == sorted(["p", "q", "r"] * 4)


def test_item_input_is_single_item_history():
    cat, vocab = _setup()
    x = item_input("a", cat, vocab)
    npt.assert_array_equal(x.token_ids, [CLS_ID, vocab.id("color"), vocab.id("red")])
    npt.assert_array_equal(x.item_positions, [0, 1, 1])


def test_input_limits_validate():
    with pytest.raises(ValueError):
        InputLimits(max_tokens=0)


# ---------------------------------------------------------------------------
# jsonl round trips


def test_items_jsonl_round_trip(tmp_path):
    items = [Item("a", (("Title", "Ünïcode thing"), ("Brand", "acme"))), Item("b", ())]
    path = tmp_path / "items.jsonl"
    write_items_jsonl(path, items)
    assert load_items_jsonl(path) == items


def test_interactions_jsonl_round_trip(tmp_path):
    seqs = [InteractionSequence("u1", ("a", "b")), InteractionSequence("u2", ("b",))]
    path = tmp_path / "inter.jsonl"
    write_interactions_jsonl(path, seqs)
    assert load_interactions_jsonl(path) == seqs


def test_jsonl_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text('{"item_id": "a", "attributes": []}\n\n  \n')
    assert len(load_items_jsonl(path)) == 1


@pytest.mark.parametrize("line,fragment", [
    ("{not json", "invalid JSON"),
    ('["list"]', "expected a JSON object"),
    ('{"attributes": []}', "expected item_id"),
    ('{"item_id": 5, "attributes": []}', "bad item record"),
    ('{"item_id": "a", "attributes": [["k"]]}', "must be"),
    pytest.param('{"item_id": "a", "attributes": [], "n": ' + "1" * 5000 + "}",
                 "unreadable JSON", id="over-long-integer"),
    pytest.param("[" * 100_000, "unreadable JSON", id="deep-nesting"),
])
def test_items_jsonl_errors_carry_line_numbers(tmp_path, line, fragment):
    path = tmp_path / "items.jsonl"
    path.write_text('{"item_id": "ok", "attributes": []}\n' + line + "\n")
    with pytest.raises(DataError, match=fragment) as exc:
        load_items_jsonl(path)
    assert ":2:" in str(exc.value)


@pytest.mark.parametrize("line,fragment", [
    ('{"user_id": "u"}', "expected user_id"),
    ('{"user_id": "u", "items": [1]}', "bad interaction record"),
    ('{"user_id": "u", "items": []}', "no interactions"),
])
def test_interactions_jsonl_errors(tmp_path, line, fragment):
    path = tmp_path / "inter.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match=fragment) as exc:
        load_interactions_jsonl(path)
    assert ":1:" in str(exc.value)


def test_jsonl_that_is_not_utf8_is_data_error(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_bytes(b'{"item_id": "a", "attributes": []}\n\x80\n')
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_items_jsonl(path)


def test_jsonl_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_items_jsonl(tmp_path / "absent.jsonl")
