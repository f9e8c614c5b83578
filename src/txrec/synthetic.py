"""Synthetic multi-domain corpora with a planted brand-affinity rule.

Each domain gets its own title/category wordstock, but brands are shared
across domains: a user mostly interacts with one brand, so a model that
reads text can carry the brand signal into a domain it never trained on.
Optionally a slice of each domain's items appears only as final (test-time)
interactions, which exercises cold-start evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import Item, InteractionSequence, write_interactions_jsonl, write_items_jsonl
from .rng import stream

BRANDS = ("acme", "zenith", "orbit", "lumen", "novex",
          "quartz", "falcon", "maple", "cedar", "ionix")

_ADJECTIVES = ("crimson", "slate", "amber", "ivory", "cobalt",
               "onyx", "coral", "jade", "umber", "pearl")

_SYLLABLES = ("ta", "ro", "mi", "zen", "kul", "ver", "pod", "lum",
              "rix", "sal", "dor", "nep", "fen", "gar", "hol", "bex")


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    n_domains: int = 4
    items_per_domain: int = 50
    users_per_domain: int = 200
    brand_affinity: float = 0.95
    cold_fraction: float = 0.0   # share of items that only ever appear last
    min_len: int = 5
    max_len: int = 9

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if self.users_per_domain < 0:
            raise ValueError(f"users_per_domain={self.users_per_domain} must be >= 0")
        if self.n_domains < 1 or self.items_per_domain < len(BRANDS):
            raise ValueError("need >= 1 domain and at least one item per brand")
        if not 0.0 <= self.brand_affinity <= 1.0 or not 0.0 <= self.cold_fraction < 1.0:
            raise ValueError("brand_affinity in [0,1], cold_fraction in [0,1)")
        if not 3 <= self.min_len <= self.max_len:
            raise ValueError("need min_len >= 3 and max_len >= min_len")


def _domain_nouns(domain: int, count: int) -> list[str]:
    """Distinct two-syllable nouns; domains draw from disjoint pair ranges."""
    n_syl = len(_SYLLABLES)
    n_pairs = n_syl * n_syl
    start = domain * count
    nouns = []
    for j in range(start, start + count):
        a, b = divmod(j % n_pairs, n_syl)
        suffix = str(j // n_pairs) if j >= n_pairs else ""
        nouns.append(_SYLLABLES[a] + _SYLLABLES[b] + suffix)
    return nouns


def generate_domain(spec: SyntheticSpec, domain: int) -> tuple[list[Item], list[InteractionSequence]]:
    """Items and user histories for one domain, deterministic in (seed, domain)."""
    rng = stream(spec.seed, f"synthetic-domain-{domain}")
    n_items = spec.items_per_domain
    nouns = _domain_nouns(domain, n_items)
    category = f"{_SYLLABLES[domain % len(_SYLLABLES)]}ware gear"

    items = []
    brands = []
    for i in range(n_items):
        brand = BRANDS[i % len(BRANDS)]
        adj = _ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))]
        title = f"{adj} {nouns[i]} mk{int(rng.integers(1, 6))}"
        items.append(Item(
            item_id=f"d{domain}_i{i:03d}",
            attributes=(("Title", title), ("Brand", brand), ("Category", category)),
        ))
        brands.append(brand)
    brands_arr = np.array(brands)

    n_cold = int(round(spec.cold_fraction * n_items))
    cold = np.zeros(n_items, dtype=bool)
    if n_cold:
        cold[rng.choice(n_items, size=n_cold, replace=False)] = True

    def draw(preferred: str, pool_mask: np.ndarray) -> int:
        same = np.flatnonzero(pool_mask & (brands_arr == preferred))
        other = np.flatnonzero(pool_mask & (brands_arr != preferred))
        if same.size and (not other.size or rng.random() < spec.brand_affinity):
            return int(same[rng.integers(same.size)])
        return int(other[rng.integers(other.size)])

    warm = ~cold
    users = []
    for u in range(spec.users_per_domain):
        preferred = BRANDS[int(rng.integers(len(BRANDS)))]
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        picks = [draw(preferred, warm) for _ in range(length - 1)]
        picks.append(draw(preferred, np.ones(n_items, dtype=bool)))  # finals may be cold
        users.append(InteractionSequence(
            user_id=f"d{domain}_u{u:04d}",
            items=tuple(items[i].item_id for i in picks),
        ))
    return items, users


def write_corpus(out_dir: str | Path, spec: SyntheticSpec) -> list[Path]:
    """Write items.jsonl + interactions.jsonl per domain; returns domain dirs."""
    root = Path(out_dir)
    dirs = []
    for dom in range(spec.n_domains):
        d = root / f"domain_{dom:02d}"
        d.mkdir(parents=True, exist_ok=True)
        items, users = generate_domain(spec, dom)
        write_items_jsonl(d / "items.jsonl", items)
        write_interactions_jsonl(d / "interactions.jsonl", users)
        dirs.append(d)
    return dirs
