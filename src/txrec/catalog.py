"""Items as text, vocabularies, and the index arrays the encoder consumes.

An item is nothing but an ordered list of (attribute key, value) string
pairs. Flattening interleaves tokenized keys and values into one "item
sentence"; a user's history becomes a single token sequence with a leading
aggregate slot, newest item first.
"""

from __future__ import annotations

import hashlib
import json
import logging
import string
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CatalogError, CheckpointError, DataError

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
    """Item store with stable ingestion order and id lookup.

    Single-item inputs are memoized per (vocabulary, tokens_per_field,
    max_tokens), so an item is tokenized and its input assembled once,
    however often its catalog is encoded or its histories ranked; so is the
    `digest`. Neither catalogs nor vocabularies change after construction,
    so the memo never goes stale.
    """

    def __init__(self, items: Iterable[Item]):
        self._items: dict[str, Item] = {}
        for it in items:
            if it.item_id in self._items:
                raise DataError(f"duplicate item id '{it.item_id}'")
            self._items[it.item_id] = it
        self._inputs: dict[tuple[Vocabulary, int, int], dict[str, ModelInput]] = {}
        self._positions = self._slots = np.zeros(0, dtype=np.int64)  # see _input_ranges
        self._ranges: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def get(self, item_id: str) -> Item:
        try:
            return self._items[item_id]
        except KeyError:
            raise CatalogError(f"unknown item id '{item_id}'") from None

    def item_input(self, item_id: str, vocab: Vocabulary, limits: InputLimits) -> ModelInput:
        """`build_model_input([item_id], ...)`, built on first use from
        `flatten_item`'s arrays and then remembered; read-only."""
        memo = self._inputs.setdefault((vocab, limits.tokens_per_field, limits.max_tokens), {})
        x = memo.get(item_id)
        if x is None:
            ids, types = flatten_item(self.get(item_id), vocab, limits.tokens_per_field)
            cap = limits.max_tokens + 1  # plus the aggregate slot
            if len(ids) > cap:  # cut only then, as build_model_input does
                ids, types = ids[:cap], types[:cap]
            positions, slots = self._input_ranges(len(ids))
            x = memo[item_id] = ModelInput(ids, positions, types, slots)
        return x

    def _input_ranges(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only token positions 0..n-1 and item positions [0, 1, 1, ...]:
        views of one shared `arange`, one pair per length."""
        got = self._ranges.get(n)
        if got is None:
            if n > len(self._positions):
                self._positions = _freeze(np.arange(max(n, 2 * len(self._positions)),
                                                    dtype=np.int64))
                self._slots = _freeze(np.minimum(self._positions, 1))
            got = self._ranges[n] = (self._positions[:n], self._slots[:n])
        return got

    @property
    def ids(self) -> list[str]:
        return list(self._items)

    @cached_property
    def digest(self) -> str | None:
        """sha256 of the file `write_items_jsonl` writes for this catalog; None
        when an item holds text UTF-8 cannot encode (a lone surrogate)."""
        try:
            return hashlib.sha256(_items_jsonl_bytes(self)).hexdigest()
        except UnicodeEncodeError:
            return None

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
        if isinstance(tokens, str) or not set(map(type, self._tokens)) <= {str}:
            raise DataError("vocabulary tokens must be a list of strings")
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
class InputLimits:
    """Sequence construction budgets; table sizes in the encoder must cover them."""

    max_tokens: int = 1024      # history tokens, not counting the aggregate slot
    max_items: int = 50
    tokens_per_field: int = 16  # per attribute key and per attribute value

    def __post_init__(self):
        if self.max_tokens < 1 or self.max_items < 1 or self.tokens_per_field < 1:
            raise ValueError(f"limits must be positive: {self}")


def flatten_item(item: Item, vocab: Vocabulary,
                 tokens_per_field: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Interleave each attribute's key tokens and value tokens, in pair order.

    Returns the item's single-item token ids and types, read-only int64
    arrays whose first element is the aggregate slot; the rest is the item
    sentence."""
    ids = [CLS_ID]
    types = [TYPE_CLS]
    for key, value in item.attributes:
        keys, values = tokenize(key)[:tokens_per_field], tokenize(value)[:tokens_per_field]
        ids += vocab.ids(keys + values)
        types += [TYPE_KEY] * len(keys) + [TYPE_VALUE] * len(values)
    if len(ids) == 1:
        log.warning("item '%s' flattens to an empty sentence", item.item_id)
    return _freeze(np.array(ids, dtype=np.int64)), _freeze(np.array(types, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class ModelInput:
    """Index arrays for one encoder call; position 0 is the aggregate slot."""

    token_ids: np.ndarray       # int64 (len,)
    token_positions: np.ndarray  # int64 (len,) 0..len-1
    token_types: np.ndarray     # int64 (len,)
    item_positions: np.ndarray  # int64 (len,) 0 for the aggregate, then 1=newest item

    def __len__(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """Right-padded index arrays for one batched encoder call.

    Slots past a sequence's length hold PAD_ID and index 0 everywhere; the
    encoder masks them as keys and never reads their rows back. Position 0
    of every sequence is its aggregate slot, the one row that attends, and
    is attended by, every real token.
    """

    token_ids: np.ndarray        # int64 (B, len)
    token_positions: np.ndarray  # int64 (B, len)
    token_types: np.ndarray      # int64 (B, len)
    item_positions: np.ndarray   # int64 (B, len)
    lengths: np.ndarray          # int64 (B,)

    @classmethod
    def pack(cls, inputs: Sequence[ModelInput]) -> "ModelBatch":
        if not inputs:
            raise ValueError("a batch needs at least one input")
        lengths = np.array([len(x) for x in inputs], dtype=np.int64)
        filled = np.arange(lengths.max()) < lengths[:, None]  # row-major, like a concatenation
        arrays = {}
        for f in ("token_ids", "token_positions", "token_types", "item_positions"):
            parts = [getattr(x, f) for x in inputs]
            if any(len(p) != n for p, n in zip(parts, lengths)):
                raise ValueError("model input arrays disagree on length")
            arrays[f] = np.zeros(filled.shape, dtype=np.int64)
            arrays[f][filled] = np.concatenate(parts)
        return cls(lengths=lengths, **arrays)


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
    newest_first = reversed(list(item_ids)[-limits.max_items:])
    # each item's sentence is its memoized single-item input past the
    # aggregate slot, which the newest item's input brings whole; an input's
    # own cut drops only tokens past this one's
    xs = [catalog.item_input(iid, vocab, limits) for iid in newest_first]
    ids = np.concatenate([xs[0].token_ids, *[x.token_ids[1:] for x in xs[1:]]])
    types = np.concatenate([xs[0].token_types, *[x.token_types[1:] for x in xs[1:]]])
    slots = np.repeat(np.arange(len(xs) + 1), [1] + [len(x) - 1 for x in xs])
    cap = limits.max_tokens + 1  # plus the aggregate slot
    if len(ids) > cap:  # cut only then: each view is one more array object per input
        ids, types, slots = ids[:cap], types[:cap], slots[:cap]
    return ModelInput(
        token_ids=_freeze(ids),
        token_positions=_freeze(np.arange(len(ids), dtype=np.int64)),
        token_types=_freeze(types),
        item_positions=_freeze(slots),
    )


def item_input(item_id: str, catalog: Catalog, vocab: Vocabulary,
               limits: InputLimits = InputLimits()) -> ModelInput:
    """Single-item input: how an item is encoded to get its own representation.
    Served from the catalog's memo (`Catalog.item_input`)."""
    return catalog.item_input(item_id, vocab, limits)


# ---------------------------------------------------------------------------
# JSONL files
#
# One record per line, and only "\n" ends a line: json.dumps leaves U+2028 and
# U+0085 unescaped, and str.splitlines() would split a record on them.

_ENCODER = json.JSONEncoder(ensure_ascii=False)  # what json.dumps(ensure_ascii=False) uses


def _item_line(item: Item) -> str:
    return _ENCODER.encode({"item_id": item.item_id,
                            "attributes": [list(p) for p in item.attributes]}) + "\n"


def _items_jsonl_bytes(items: Iterable[Item]) -> bytes:
    """The file `write_items_jsonl` writes, and `Catalog.digest` hashes."""
    return "".join([_item_line(it) for it in items]).encode("utf-8")


def load_items_jsonl(path: str | Path, digest: str | None = None,
                     line_of: Mapping[str, int] | None = None,
                     wanted: Iterable[str] | None = None
                     ) -> list[Item] | tuple[list[Item], bool]:
    """Each line: {"item_id": str, "attributes": [[key, value], ...]}.

    Returns the items. With `wanted`, returns (items, matched) instead. A
    file whose sha256 is `digest` is the catalog that `line_of` maps, id to
    0-based line, as `Catalog.digest` promises: only the lines of the wanted
    ids are parsed, and matched is True. Any other file is parsed whole.
    """
    raw, text = _read(path)
    if wanted is not None and digest is not None and hashlib.sha256(raw).hexdigest() == digest:
        return _known_lines(path, text, line_of, wanted), True
    items = [_parse_item(path, n, line) for n, line in _lines(text)]
    return items if wanted is None else (items, False)


def _known_lines(path: str | Path, text: str, line_of: Mapping[str, int],
                 wanted: Iterable[str]) -> list[Item]:
    """The items of the wanted ids, each read from its line in `line_of`.

    The digest vouches for the bytes, not for `line_of`: a line that holds
    another item, a line count other than len(line_of), or a wanted id the
    file holds but `line_of` lacks is a CheckpointError. A wanted id in
    neither is left out.
    """
    lines = text.split("\n")
    if lines.pop() or len(lines) != len(line_of):
        raise CheckpointError(f"{path} has the digest its item matrix records, but "
                              f"{len(lines)} lines for {len(line_of)} items")
    items = []
    for iid in dict.fromkeys(wanted):
        j = line_of.get(iid)
        if j is None:
            head = '{"item_id": ' + _ENCODER.encode(iid) + ", "
            if text.startswith(head) or "\n" + head in text:
                raise CheckpointError(f"{path} has the digest its item matrix records, "
                                      f"but holds item '{iid}', which the matrix lacks")
            continue
        item = _parse_item(path, j + 1, lines[j])
        if item.item_id != iid:
            raise CheckpointError(f"{path}:{j + 1}: holds item '{item.item_id}' where the "
                                  f"item matrix of the same digest has '{iid}'")
        items.append(item)
    return items


def _parse_item(path: str | Path, lineno: int, line: str) -> Item:
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
    return Item(iid, tuple(pairs))


def load_interactions_jsonl(path: str | Path) -> list[InteractionSequence]:
    """Each line: {"user_id": str, "items": [item_id, ...]} in time order."""
    seqs: list[InteractionSequence] = []
    for lineno, line in _lines(_read(path)[1]):
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
    try:
        raw = _items_jsonl_bytes(items)
    except UnicodeEncodeError as e:
        raise DataError(f"cannot write {path}: an item holds text UTF-8 cannot encode "
                        f"({e.reason})") from None
    Path(path).write_bytes(raw)


def write_interactions_jsonl(path: str | Path, seqs: Iterable[InteractionSequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in seqs:
            rec = {"user_id": s.user_id, "items": list(s.items)}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _read(path: str | Path) -> tuple[bytes, str]:
    """The file's bytes and their UTF-8 text."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines, each with its 1-based number in the file, blank
    lines counted; "\\r\\n" and a lone "\\r" end a line too, as in text mode."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(n, ln) for n, ln in enumerate(lines, start=1) if ln.strip()]


def _parse_line(path: str | Path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
    except (ValueError, RecursionError) as e:  # an over-long integer, deep nesting
        raise DataError(f"{path}:{lineno}: unreadable JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}:{lineno}: expected a JSON object")
    return obj
