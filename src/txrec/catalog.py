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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CatalogError, CheckpointError, DataError, write_whole

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
        self._slots = np.zeros(0, dtype=np.int64)  # [0, 1, 1, ...], grown on demand

    def get(self, item_id: str) -> Item:
        try:
            return self._items[item_id]
        except KeyError:
            raise CatalogError(f"unknown item id '{item_id}'") from None

    def item_input(self, item_id: str, vocab: Vocabulary, limits: InputLimits) -> ModelInput:
        """`build_model_input([item_id], ...)`, built on first use from
        `flatten_item`'s arrays and then remembered; read-only."""
        memo = self._memo(vocab, limits)
        x = memo.get(item_id)
        if x is None:
            ids, types = flatten_item(self.get(item_id), vocab, limits.tokens_per_field)
            cap = limits.max_tokens + 1  # plus the aggregate slot
            if len(ids) > cap:  # cut only then, as build_model_input does
                ids, types = ids[:cap], types[:cap]
            n = len(ids)
            if n > len(self._slots):  # every input's slots are a view of one array
                self._slots = _freeze(np.minimum(np.arange(2 * n, dtype=np.int64), 1))
            x = memo[item_id] = ModelInput(ids, types, self._slots[:n])
        return x

    def _memo(self, vocab: Vocabulary, limits: InputLimits) -> dict[str, ModelInput]:
        """The memoized single-item inputs of one (vocabulary, tokens_per_field,
        max_tokens), by item id."""
        key = (vocab, limits.tokens_per_field, limits.max_tokens)
        memo = self._inputs.get(key)
        if memo is None:
            memo = self._inputs[key] = {}
        return memo

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
        write_whole(path, ("\n".join(lines) + "\n").encode("utf-8"))

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
    """Index arrays for one encoder call; slot 0 is the aggregate slot. A
    token's position is its slot's index, which the encoder supplies."""

    token_ids: np.ndarray       # int64 (len,)
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

    token_ids: np.ndarray       # int64 (B, len)
    token_types: np.ndarray     # int64 (B, len)
    item_positions: np.ndarray  # int64 (B, len)
    lengths: np.ndarray         # int64 (B,)

    @classmethod
    def pack(cls, inputs: Sequence[ModelInput]) -> "ModelBatch":
        if not inputs:
            raise ValueError("a batch needs at least one input")
        lengths = np.array([len(x) for x in inputs], dtype=np.int64)
        filled = np.arange(lengths.max()) < lengths[:, None]  # row-major, like a concatenation
        arrays = {}
        for f in ("token_ids", "token_types", "item_positions"):
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
    memo = catalog._memo(vocab, limits)
    xs = [memo[iid] if iid in memo else catalog.item_input(iid, vocab, limits)
          for iid in newest_first]
    ids = np.concatenate([xs[0].token_ids, *[x.token_ids[1:] for x in xs[1:]]])
    types = np.concatenate([xs[0].token_types, *[x.token_types[1:] for x in xs[1:]]])
    slots = np.repeat(np.arange(len(xs) + 1), [1] + [len(x) - 1 for x in xs])
    cap = limits.max_tokens + 1  # plus the aggregate slot
    if len(ids) > cap:  # cut only then: each view is one more array object per input
        ids, types, slots = ids[:cap], types[:cap], slots[:cap]
    return ModelInput(token_ids=_freeze(ids), token_types=_freeze(types),
                      item_positions=_freeze(slots))


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


def _jsonl_bytes(records: Iterable[dict]) -> bytes:
    """One JSON object per line, UTF-8: the bytes both JSONL writers write."""
    return "".join([_ENCODER.encode(r) + "\n" for r in records]).encode("utf-8")


def _items_jsonl_bytes(items: Iterable[Item]) -> bytes:
    """The file `write_items_jsonl` writes, and `Catalog.digest` hashes."""
    return _jsonl_bytes({"item_id": it.item_id, "attributes": [list(p) for p in it.attributes]}
                        for it in items)


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
        return _known_lines(path, raw, text, line_of, wanted), True
    items = [_parse_item(path, n, line) for n, line in _lines(text)]
    return items if wanted is None else (items, False)


def _known_lines(path: str | Path, raw: bytes, text: str, line_of: Mapping[str, int],
                 wanted: Iterable[str]) -> list[Item]:
    """The items of the wanted ids, each read from its line in `line_of`.

    The digest vouches for the bytes, not for `line_of`: a line that holds
    another item, a line count other than len(line_of), or a wanted id the
    file holds but `line_of` lacks is a CheckpointError. A wanted id in
    neither is left out. Lines are found by byte offset in `raw` (`text` is
    its decode): "\n" is one byte in UTF-8 and never part of a longer
    character, so each wanted line is sliced from the bytes and decoded alone.
    """
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == 10)
    if raw[-1:] not in (b"", b"\n") or len(ends) != len(line_of):
        raise CheckpointError(f"{path} has the digest its item matrix records, but "
                              f"{len(ends)} lines for {len(line_of)} items")
    items = []
    for iid in dict.fromkeys(wanted):
        j = line_of.get(iid)
        if j is None:
            head = '{"item_id": ' + _ENCODER.encode(iid) + ", "
            if text.startswith(head) or "\n" + head in text:
                raise CheckpointError(f"{path} has the digest its item matrix records, "
                                      f"but holds item '{iid}', which the matrix lacks")
            continue
        start = int(ends[j - 1]) + 1 if j else 0
        item = _parse_item(path, j + 1, raw[start : ends[j]].decode("utf-8"))
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


def _write_jsonl(path: str | Path, to_bytes: Callable[[Iterable], bytes], records: Iterable) -> None:
    """Writes `to_bytes(records)` to `path`, whole or not at all. The bytes are
    built first, so a record holding text UTF-8 cannot encode is a DataError
    and writes nothing."""
    try:
        raw = to_bytes(records)
    except UnicodeEncodeError as e:
        raise DataError(f"cannot write {path}: a record holds text UTF-8 cannot encode "
                        f"({e.reason})") from None
    write_whole(path, raw)


def write_items_jsonl(path: str | Path, items: Iterable[Item]) -> None:
    _write_jsonl(path, _items_jsonl_bytes, items)


def write_interactions_jsonl(path: str | Path, seqs: Iterable[InteractionSequence]) -> None:
    _write_jsonl(path, _jsonl_bytes, ({"user_id": s.user_id, "items": list(s.items)} for s in seqs))


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
