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
    ids, types = flatten_item(Item("b", (("Color", "blue deep"),)), vocab)
    # the aggregate slot first, then the item sentence
    assert ids.tolist() == [CLS_ID, vocab.id("color"), vocab.id("blue"), vocab.id("deep")]
    assert types.tolist() == [TYPE_CLS, TYPE_KEY, TYPE_VALUE, TYPE_VALUE]


def test_flatten_respects_per_field_cap():
    item = Item("x", (("one two three", "a b c d e"), ("k", "v")))
    vocab = Vocabulary.build([item])
    ids, types = flatten_item(item, vocab, tokens_per_field=2)
    # the aggregate slot, two key tokens, two value tokens, then the second pair
    assert len(ids) == 1 + 2 + 2 + 1 + 1
    assert types.tolist() == [TYPE_CLS, TYPE_KEY, TYPE_KEY, TYPE_VALUE, TYPE_VALUE,
                              TYPE_KEY, TYPE_VALUE]


def test_flatten_unknown_tokens_map_to_unk():
    vocab = Vocabulary.build(_color_items())
    ids, _ = flatten_item(Item("z", (("Color", "chartreuse"),)), vocab)
    assert ids.tolist() == [CLS_ID, vocab.id("color"), UNK_ID]


def test_flatten_empty_item_warns(caplog):
    vocab = Vocabulary.build(_color_items())
    with caplog.at_level("WARNING"):
        ids, types = flatten_item(Item("e", ()), vocab)
    assert (ids.tolist(), types.tolist()) == ([CLS_ID], [TYPE_CLS])
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
    assert len(x) == 6
    assert x.token_ids.dtype == np.int64 and x.item_positions.dtype == np.int64


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
    # one catalog read through two vocabularies, two field caps and three
    # token budgets, two of which cut items: each (vocab, cap, budget) gets
    # its own item inputs, and each item is flattened once per setting
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
    budgets = (2, 5, InputLimits().max_tokens)
    for _ in range(2):
        for vocab in vocabs:
            for cap in (1, 3):
                for budget in budgets:
                    limits = InputLimits(max_tokens=budget, tokens_per_field=cap)
                    x = build_model_input(history, cat, vocab, limits)
                    # whole sentences joined newest first, then cut once
                    ids, types = [CLS_ID], [TYPE_CLS]
                    for iid in reversed(history):
                        item_ids, item_types = real_flatten(cat.get(iid), vocab, cap)
                        ids += item_ids[1:].tolist()
                        types += item_types[1:].tolist()
                    npt.assert_array_equal(x.token_ids, ids[:budget + 1])
                    npt.assert_array_equal(x.token_types, types[:budget + 1])
                    npt.assert_array_equal(x.token_positions, np.arange(len(x)))
    assert sorted(calls) == sorted(["p", "q", "r"] * 2 * 2 * len(budgets))


def test_memoized_sentences_are_read_only():
    cat, vocab = _setup()
    x = item_input("b", cat, vocab)
    assert item_input("b", cat, vocab) is x
    assert x.token_ids.dtype == np.int64 and x.token_types.dtype == np.int64
    for arr in (x.token_ids, x.token_types, *flatten_item(cat.get("b"), vocab)):
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = UNK_ID
    npt.assert_array_equal(build_model_input(["b"], cat, vocab).token_ids,
                           [CLS_ID, vocab.id("color"), vocab.id("blue"), vocab.id("deep")])


def test_item_input_is_single_item_history():
    cat, vocab = _setup()
    x = item_input("a", cat, vocab)
    npt.assert_array_equal(x.token_ids, [CLS_ID, vocab.id("color"), vocab.id("red")])
    npt.assert_array_equal(x.item_positions, [0, 1, 1])


def test_item_inputs_are_memoized_per_vocab_field_cap_and_token_budget():
    items = [Item("p", (("Title", "red blue deep sea"), ("Brand", "acme corp"))),
             Item("e", ())]
    cat = Catalog(items)
    vocabs = [Vocabulary.build(items), Vocabulary.build(_color_items())]
    settings = [(vocab, InputLimits(max_tokens=budget, tokens_per_field=cap))
                for vocab in vocabs for cap in (1, 3) for budget in (2, 5, 64)]
    for iid in ("p", "e"):
        xs = [item_input(iid, cat, vocab, limits) for vocab, limits in settings]
        assert len({id(x) for x in xs}) == len(settings)  # one entry per setting
        for x, (vocab, limits) in zip(xs, settings):
            # max_items plays no part in a one-item input
            assert item_input(iid, cat, vocab, InputLimits(limits.max_tokens, 1,
                                                           limits.tokens_per_field)) is x
            want = build_model_input([iid], cat, vocab, limits)
            for field in ("token_ids", "token_positions", "token_types", "item_positions"):
                got = getattr(x, field)
                assert got.dtype == np.int64, field
                npt.assert_array_equal(got, getattr(want, field), err_msg=field)
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 0
    assert len(item_input("p", cat, vocabs[0], InputLimits(max_tokens=2))) == 3  # cut


def test_item_input_and_sentence_share_one_token_array(monkeypatch):
    cat, vocab = _setup()
    flattened = []
    real_flatten = catalog_mod.flatten_item
    monkeypatch.setattr(catalog_mod, "flatten_item",
                        lambda *args: flattened.append(real_flatten(*args)) or flattened[-1])
    x = item_input("b", cat, vocab)
    assert item_input("b", cat, vocab) is x and len(flattened) == 1
    assert (x.token_ids[0], x.token_types[0]) == (CLS_ID, TYPE_CLS)
    # the input holds flatten_item's arrays themselves, sentence and all
    assert x.token_ids is flattened[0][0] and x.token_types is flattened[0][1]
    cut = item_input("b", cat, vocab, InputLimits(max_tokens=2))
    for part, whole in zip((cut.token_ids, cut.token_types), flattened[1]):
        npt.assert_array_equal(part, whole[:3])
        assert np.shares_memory(part, whole)  # no item's tokens are held twice
    # every input's positions are views of one array
    y = item_input("a", cat, vocab)
    assert (len(x), len(y)) == (4, 3)
    assert np.shares_memory(x.token_positions, y.token_positions)
    assert np.shares_memory(x.item_positions, y.item_positions)


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


_GOOD_ITEM = '{"item_id": "ok", "attributes": []}'
_GOOD_USER = '{"user_id": "u", "items": ["ok"]}'


@pytest.mark.parametrize("load,good,wrong", [
    (load_items_jsonl, _GOOD_ITEM, '{"attributes": []}'),
    (load_interactions_jsonl, _GOOD_USER, '{"user_id": "u"}'),
], ids=["items", "interactions"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_jsonl_errors_name_the_physical_line(tmp_path, load, good, wrong, newline):
    """Blank lines are counted: the bad record is on line 4 in every file."""
    path = tmp_path / "blank.jsonl"
    for bad, fragment in (("{bad", "invalid JSON"), (wrong, "expected")):
        path.write_bytes(newline.join([good, "", "  ", bad, good, ""]).encode())
        with pytest.raises(DataError, match=fragment) as exc:
            load(path)
        assert f"{path}:4:" in str(exc.value)
    path.write_bytes(newline.join([good, "", good, "", ""]).encode())
    assert len(load(path)) == 2


@pytest.mark.parametrize("load,good", [(load_items_jsonl, _GOOD_ITEM),
                                       (load_interactions_jsonl, _GOOD_USER)],
                         ids=["items", "interactions"])
def test_jsonl_line_numbers_in_mixed_line_endings(tmp_path, load, good):
    """"\\r\\n" ends one line, a lone "\\r" or "\\n" one each."""
    path = tmp_path / "mixed.jsonl"
    path.write_bytes((good + "\r\n\r\n\r" + good + "\n\n{bad\r\n").encode())
    with pytest.raises(DataError, match="invalid JSON") as exc:
        load(path)
    assert f"{path}:6:" in str(exc.value)


def test_jsonl_that_is_not_utf8_is_data_error(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_bytes(b'{"item_id": "a", "attributes": []}\n\x80\n')
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_items_jsonl(path)


def test_jsonl_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_items_jsonl(tmp_path / "absent.jsonl")


def test_line_separators_inside_values_round_trip(tmp_path):
    """json.dumps leaves U+2028, U+2029 and U+0085 unescaped; only "\\n" ends a line."""
    odd = "a\u2028b\u2029c\x85d"
    items = [Item(odd, ((odd, odd),)), Item("b", (("Title", "x\u2028"),))]
    path = tmp_path / "items.jsonl"
    write_items_jsonl(path, items)
    assert load_items_jsonl(path) == items
    seqs = [InteractionSequence(odd, (odd, "b"))]
    write_interactions_jsonl(tmp_path / "inter.jsonl", seqs)
    assert load_interactions_jsonl(tmp_path / "inter.jsonl") == seqs


def test_jsonl_with_crlf_or_cr_line_ends_still_loads(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_bytes(b'{"item_id": "a", "attributes": []}\r\n{"item_id": "b", "attributes": []}'
                     b'\r{"item_id": "c", "attributes": []}\r\n')
    assert [it.item_id for it in load_items_jsonl(path)] == ["a", "b", "c"]


def test_catalog_digest_is_the_written_file_hash_and_computed_once(tmp_path, monkeypatch):
    import hashlib

    items = [Item("a", (("Title", "Ünïcode thing"),)), Item("b", ())]
    path = tmp_path / "items.jsonl"
    write_items_jsonl(path, items)
    calls = []
    real = catalog_mod._items_jsonl_bytes
    monkeypatch.setattr(catalog_mod, "_items_jsonl_bytes", lambda its: calls.append(1) or real(its))
    catalog = Catalog(items)
    assert catalog.digest == catalog.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(calls) == 1
    assert Catalog(items[::-1]).digest != catalog.digest


def test_items_text_utf8_cannot_encode_has_no_digest_and_is_not_written(tmp_path):
    items = [Item("a", (("Title", "half \ud800 pair"),))]
    assert Catalog(items).digest is None
    path = tmp_path / "items.jsonl"
    with pytest.raises(DataError, match="cannot write .*UTF-8"):
        write_items_jsonl(path, items)
    assert not path.exists()


def _known_file(tmp_path, n=5):
    items = [Item(f"i{j}", (("Title", f"thing {j}"),)) for j in range(n)]
    path = tmp_path / "items.jsonl"
    write_items_jsonl(path, items)
    catalog = Catalog(items)
    return path, items, catalog.digest, {iid: j for j, iid in enumerate(catalog.ids)}


def test_a_matching_items_file_parses_only_the_wanted_lines(tmp_path, monkeypatch):
    path, items, digest, line_of = _known_file(tmp_path)
    parsed = []
    real = catalog_mod._parse_line
    monkeypatch.setattr(catalog_mod, "_parse_line",
                        lambda p, n, line: parsed.append(n) or real(p, n, line))
    got, matched = load_items_jsonl(path, digest, line_of, wanted=["i3", "i1", "i3", "absent"])
    assert matched and got == [items[3], items[1]] and sorted(parsed) == [2, 4]
    parsed.clear()
    got, matched = load_items_jsonl(path, "0" * 64, line_of, wanted=["i3"])
    assert not matched and got == items and len(parsed) == len(items)


@pytest.mark.parametrize("change,message", [
    ("swap", ":2: holds item 'i1' where the item matrix of the same digest has 'i0'"),
    ("rename", "holds item 'i0', which the matrix lacks"),
    ("drop", "6 lines for 5 items"),
])
def test_a_digest_that_does_not_describe_the_ids_is_checkpoint_error(tmp_path, change,
                                                                     message):
    from txrec.errors import CheckpointError

    path, items, digest, line_of = _known_file(tmp_path, n=6)
    if change == "swap":
        line_of = {**line_of, "i0": 1, "i1": 0}
    elif change == "rename":
        line_of = {("x" if iid == "i0" else iid): j for iid, j in line_of.items()}
    else:
        line_of = {iid: j for iid, j in line_of.items() if iid != "i5"}
    with pytest.raises(CheckpointError, match=message):
        load_items_jsonl(path, digest, line_of, wanted=["i0"])
