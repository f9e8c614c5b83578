"""Items as text, vocabularies, and the index arrays the encoder consumes.

An item is nothing but an ordered list of (attribute key, value) string
pairs. Flattening interleaves tokenized keys and values into one "item
sentence"; a user's history becomes a single token sequence with a leading
aggregate slot, newest item first.
"""

from __future__ import annotations

import json
import logging
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CatalogError, DataError

log = logging.getLogger(__name__)

PAD, CLS, MASK, UNK = "[PAD]", "[CLS]", "[MASK]", "[UNK]"
RESERVED_TOKENS = (PAD, CLS, MASK, UNK)
PAD_ID, CLS_ID, MASK_ID, UNK_ID = 0, 1, 2, 3
NUM_RESERVED = len(RESERVED_TOKENS)

# token type ids for the type embedding table
TYPE_CLS, TYPE_KEY, TYPE_VALUE = 0, 1, 2


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True)
class Item:
    item_id: str
    attributes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.item_id:
            raise DataError("item with empty id")


class Catalog:
    """Item store with stable ingestion order and id lookup."""

    def __init__(self, items: Iterable[Item]):
        self._items: dict[str, Item] = {}
        for it in items:
            if it.item_id in self._items:
                raise DataError(f"duplicate item id '{it.item_id}'")
            self._items[it.item_id] = it

    def get(self, item_id: str) -> Item:
        try:
            return self._items[item_id]
        except KeyError:
            raise CatalogError(f"unknown item id '{item_id}'") from None

    @property
    def ids(self) -> list[str]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def __iter__(self):
        return iter(self._items.values())


@dataclass(frozen=True)
class InteractionSequence:
    user_id: str
    items: tuple[str, ...]

    def __post_init__(self):
        if len(self.items) < 1:
            raise DataError(f"user '{self.user_id}' has an empty interaction list")


class Vocabulary:
    """Word-level vocabulary; ids 0..3 are reserved, real tokens follow."""

    def __init__(self, tokens: Sequence[str]):
        self._tokens = list(tokens)
        self._ids: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        for j, tok in enumerate(self._tokens):
            if tok in self._ids:
                raise DataError(f"duplicate or reserved token in vocabulary: '{tok}'")
            self._ids[tok] = NUM_RESERVED + j

    @property
    def size(self) -> int:
        return NUM_RESERVED + len(self._tokens)

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def token_list(self) -> list[str]:
        """Non-reserved tokens in id order (what gets embedded in checkpoints)."""
        return list(self._tokens)

    @classmethod
    def build(cls, items: Iterable[Item], min_count: int = 1) -> "Vocabulary":
        counts: Counter[str] = Counter()
        n = 0
        for it in items:
            n += 1
            for key, value in it.attributes:
                counts.update(tokenize(key))
                counts.update(tokenize(value))
        if n == 0:
            raise ValueError("cannot build a vocabulary from zero items")
        kept = [(tok, c) for tok, c in counts.items() if c >= min_count]
        kept.sort(key=lambda tc: (-tc[1], tc[0]))
        return cls([tok for tok, _ in kept])

    def save(self, path: str | Path) -> None:
        lines = list(RESERVED_TOKENS) + self._tokens
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as e:
            raise DataError(f"cannot read {path}: {e}") from None
        if tuple(lines[:NUM_RESERVED]) != RESERVED_TOKENS:
            raise DataError(f"vocabulary file {path} does not start with the reserved tokens")
        return cls(lines[NUM_RESERVED:])


@dataclass(frozen=True)
class ItemSentence:
    """Flattened token view of one item: ids plus key/value type markers."""

    token_ids: tuple[int, ...]
    token_types: tuple[int, ...]


@dataclass(frozen=True)
class InputLimits:
    """Sequence construction budgets; table sizes in the encoder must cover them."""

    max_tokens: int = 1024      # history tokens, not counting the aggregate slot
    max_items: int = 50
    tokens_per_field: int = 16  # per attribute key and per attribute value

    def __post_init__(self):
        if self.max_tokens < 1 or self.max_items < 1 or self.tokens_per_field < 1:
            raise ValueError(f"limits must be positive: {self}")


def flatten_item(item: Item, vocab: Vocabulary, tokens_per_field: int = 16) -> ItemSentence:
    """Interleave each attribute's key tokens and value tokens, in pair order."""
    ids: list[int] = []
    types: list[int] = []
    for key, value in item.attributes:
        for tok in tokenize(key)[:tokens_per_field]:
            ids.append(vocab.id(tok))
            types.append(TYPE_KEY)
        for tok in tokenize(value)[:tokens_per_field]:
            ids.append(vocab.id(tok))
            types.append(TYPE_VALUE)
    if not ids:
        log.warning("item '%s' flattens to an empty sentence", item.item_id)
    return ItemSentence(tuple(ids), tuple(types))


@dataclass(frozen=True, eq=False)
class ModelInput:
    """Index arrays for one encoder call; position 0 is the aggregate slot."""

    token_ids: np.ndarray       # int64 (len,)
    token_positions: np.ndarray  # int64 (len,) 0..len-1
    token_types: np.ndarray     # int64 (len,)
    item_positions: np.ndarray  # int64 (len,) 0 for the aggregate, then 1=newest item
    global_mask: np.ndarray     # bool (len,)

    def __len__(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """Right-padded index arrays for one batched encoder call.

    Slots past a sequence's length hold PAD_ID and index 0 everywhere; the
    encoder masks them as keys and never reads their rows back.
    """

    token_ids: np.ndarray        # int64 (B, len)
    token_positions: np.ndarray  # int64 (B, len)
    token_types: np.ndarray      # int64 (B, len)
    item_positions: np.ndarray   # int64 (B, len)
    lengths: np.ndarray          # int64 (B,)
    global_idx: tuple[int, ...]  # positions that are global in every sequence

    @classmethod
    def pack(cls, inputs: Sequence[ModelInput]) -> "ModelBatch":
        if not inputs:
            raise ValueError("a batch needs at least one input")
        global_idx = tuple(int(i) for i in np.flatnonzero(inputs[0].global_mask))
        lengths = np.array([len(x) for x in inputs], dtype=np.int64)
        fields = ("token_ids", "token_positions", "token_types", "item_positions")
        arrays = {f: np.zeros((len(inputs), lengths.max()), dtype=np.int64) for f in fields}
        for b, x in enumerate(inputs):
            n = lengths[b]
            if any(len(getattr(x, f)) != n for f in fields) or len(x.global_mask) != n:
                raise ValueError("model input arrays disagree on length")
            if tuple(np.flatnonzero(x.global_mask)) != global_idx:
                raise ValueError("inputs of one batch must share their global positions")
            for f in fields:
                arrays[f][b, :n] = getattr(x, f)
        return cls(lengths=lengths, global_idx=global_idx, **arrays)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_model_input(item_ids: Sequence[str], catalog: Catalog, vocab: Vocabulary,
                      limits: InputLimits = InputLimits()) -> ModelInput:
    """Assemble the encoder input for a history, newest interaction first.

    Keeps the most recent `max_items` items; if their sentences exceed
    `max_tokens`, tokens of the oldest items are dropped from the tail.
    """
    if not item_ids:
        raise ValueError("history must contain at least one item")
    kept = list(item_ids)[-limits.max_items:]
    ids: list[int] = [CLS_ID]
    types: list[int] = [TYPE_CLS]
    item_pos: list[int] = [0]
    for slot, iid in enumerate(reversed(kept), start=1):
        sent = flatten_item(catalog.get(iid), vocab, limits.tokens_per_field)
        ids.extend(sent.token_ids)
        types.extend(sent.token_types)
        item_pos.extend([slot] * len(sent.token_ids))
    cap = limits.max_tokens + 1  # plus the aggregate slot
    ids, types, item_pos = ids[:cap], types[:cap], item_pos[:cap]
    length = len(ids)
    gmask = np.zeros(length, dtype=bool)
    gmask[0] = True
    return ModelInput(
        token_ids=_freeze(np.asarray(ids, dtype=np.int64)),
        token_positions=_freeze(np.arange(length, dtype=np.int64)),
        token_types=_freeze(np.asarray(types, dtype=np.int64)),
        item_positions=_freeze(np.asarray(item_pos, dtype=np.int64)),
        global_mask=_freeze(gmask),
    )


def item_input(item_id: str, catalog: Catalog, vocab: Vocabulary,
               limits: InputLimits = InputLimits()) -> ModelInput:
    """Single-item input: how an item is encoded to get its own representation."""
    return build_model_input([item_id], catalog, vocab, limits)


# ---------------------------------------------------------------------------
# JSONL files


def load_items_jsonl(path: str | Path) -> list[Item]:
    """Each line: {"item_id": str, "attributes": [[key, value], ...]}."""
    items: list[Item] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        obj = _parse_line(path, lineno, line)
        try:
            iid = obj["item_id"]
            attrs = obj["attributes"]
        except (KeyError, TypeError):
            raise DataError(f"{path}:{lineno}: expected item_id and attributes") from None
        if not isinstance(iid, str) or not isinstance(attrs, list):
            raise DataError(f"{path}:{lineno}: bad item record types")
        pairs = []
        for pair in attrs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(x, str) for x in pair)):
                raise DataError(f"{path}:{lineno}: attribute pairs must be [str, str]")
            pairs.append((pair[0], pair[1]))
        items.append(Item(iid, tuple(pairs)))
    return items


def load_interactions_jsonl(path: str | Path) -> list[InteractionSequence]:
    """Each line: {"user_id": str, "items": [item_id, ...]} in time order."""
    seqs: list[InteractionSequence] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        obj = _parse_line(path, lineno, line)
        try:
            uid = obj["user_id"]
            its = obj["items"]
        except (KeyError, TypeError):
            raise DataError(f"{path}:{lineno}: expected user_id and items") from None
        if not isinstance(uid, str) or not isinstance(its, list) \
                or not all(isinstance(x, str) for x in its):
            raise DataError(f"{path}:{lineno}: bad interaction record types")
        if not its:
            raise DataError(f"{path}:{lineno}: user '{uid}' has no interactions")
        seqs.append(InteractionSequence(uid, tuple(its)))
    return seqs


def write_items_jsonl(path: str | Path, items: Iterable[Item]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for it in items:
            rec = {"item_id": it.item_id, "attributes": [list(p) for p in it.attributes]}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_interactions_jsonl(path: str | Path, seqs: Iterable[InteractionSequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in seqs:
            rec = {"user_id": s.user_id, "items": list(s.items)}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _read_lines(path: str | Path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    return [ln for ln in text.splitlines() if ln.strip()]


def _parse_line(path: str | Path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}:{lineno}: expected a JSON object")
    return obj
