"""Items as text, histories as token sequences, ranking by cosine.

Walks the whole inference path once, with no training involved: flatten
attribute pairs into item sentences, assemble the model input for a short
history, encode everything with a freshly initialized model, and rank the
catalog against the history representation.

Run:  python3 demos/01_encode_and_rank.py
"""

import numpy as np

from txrec.catalog import Catalog, InputLimits, Item, Vocabulary, build_model_input, flatten_item
from txrec.encoder import Encoder, EncoderConfig
from txrec.objectives import cosine_scores
from txrec.rng import stream
from txrec.trainer import encode_all_items

# ---------------------------------------------------------------------------
# A catalog is just items with textual attributes; ids never enter the model.

items = [
    Item("sku-001", (("Title", "cast iron skillet 12 inch"), ("Brand", "ferra"),
                     ("Category", "kitchen cookware"))),
    Item("sku-002", (("Title", "carbon steel wok"), ("Brand", "ferra"),
                     ("Category", "kitchen cookware"))),
    Item("sku-003", (("Title", "stand mixer 5 quart"), ("Brand", "whiskco"),
                     ("Category", "kitchen appliances"))),
    Item("sku-004", (("Title", "hand mixer compact"), ("Brand", "whiskco"),
                     ("Category", "kitchen appliances"))),
    Item("sku-005", (("Title", "chef knife 8 inch"), ("Brand", "keenedge"),
                     ("Category", "kitchen cutlery"))),
    Item("sku-006", (("Title", "paring knife set"), ("Brand", "keenedge"),
                     ("Category", "kitchen cutlery"))),
]
catalog = Catalog(items)
vocab = Vocabulary.build(items)
limits = InputLimits(max_tokens=96, max_items=8, tokens_per_field=8)

print(f"catalog: {len(catalog)} items, vocabulary: {vocab.size} ids "
      f"(4 reserved + {vocab.size - 4} words)\n")

# What one item looks like after flattening: the aggregate slot, then the
# item sentence of key/value tokens, typed. This is how an item is encoded.
ids, types = flatten_item(items[0], vocab, limits.tokens_per_field)
print("sku-001 flattened (aggregate slot first, then the item sentence):")
print("  token ids  ", ids.tolist())
print("  token types", types.tolist(), "(0 = aggregate, 1 = key, 2 = value)\n")

# ---------------------------------------------------------------------------
# A history becomes one sequence: aggregate slot first, newest item first.

history = ["sku-001", "sku-005", "sku-002"]
x = build_model_input(history, catalog, vocab, limits)
print(f"history {history} -> {len(x.token_ids)} tokens")
print("  item slots ", x.item_positions.tolist(), "(slot 0 is the aggregate)\n")

# ---------------------------------------------------------------------------
# Encode with a fresh (untrained) model and rank the full catalog.

cfg = EncoderConfig(d=32, n_layers=2, n_heads=2, window=8, ffn_dim=64,
                    vocab_size=vocab.size, max_tokens=96, max_items=8)
encoder = Encoder(cfg, stream(0, "init"))

h = encoder.sequence_repr(x)
matrix = encode_all_items(encoder, catalog, vocab, limits)
scores = cosine_scores(h[None], matrix.rows)[0]

print("cosine scores against the history (untrained weights):")
order = np.argsort(-scores)
for rank, idx in enumerate(order, start=1):
    marker = " <- in history" if matrix.ids[idx] in history else ""
    print(f"  {rank}. {matrix.ids[idx]}  {scores[idx]:+.6f}{marker}")

print(f"\nscore spread: {scores.max() - scores.min():.2e}. Untrained weights start"
      "\nnearly collapsed: every representation points the same way, so every"
      "\ncosine sits at ~1. The ranking machinery above is the whole serving"
      "\npath; training (demos 02-04) is what spreads this geometry apart.")
