"""Synthetic corpus generator: determinism, planted rule, cold items."""

from __future__ import annotations

from collections import Counter

import pytest

from txrec.catalog import load_interactions_jsonl, load_items_jsonl
from txrec.synthetic import BRANDS, SyntheticSpec, _domain_nouns, generate_domain, write_corpus


def _brand_of(item):
    return dict(item.attributes)["Brand"]


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_domains=0)
    with pytest.raises(ValueError):
        SyntheticSpec(items_per_domain=5)  # fewer items than brands
    with pytest.raises(ValueError):
        SyntheticSpec(brand_affinity=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(min_len=2)
    with pytest.raises(ValueError):
        SyntheticSpec(min_len=7, max_len=6)
    with pytest.raises(ValueError, match="users_per_domain=-1 must be >= 0"):
        SyntheticSpec(users_per_domain=-1)


def test_a_spec_with_no_users_still_generates_items():
    spec = SyntheticSpec(seed=8, n_domains=2, items_per_domain=12, users_per_domain=0)
    items, users = generate_domain(spec, 1)
    assert users == [] and len(items) == 12
    assert items == generate_domain(SyntheticSpec(seed=8, n_domains=2, items_per_domain=12,
                                                  users_per_domain=5), 1)[0]


def test_generation_is_deterministic():
    spec = SyntheticSpec(seed=42, items_per_domain=20, users_per_domain=30)
    assert generate_domain(spec, 1) == generate_domain(spec, 1)
    # a different seed moves the interactions
    other = SyntheticSpec(seed=43, items_per_domain=20, users_per_domain=30)
    assert generate_domain(other, 1)[1] != generate_domain(spec, 1)[1]


def test_domains_share_brands_but_not_nouns():
    spec = SyntheticSpec(seed=0, n_domains=3, items_per_domain=30, users_per_domain=5)
    title_words = []
    for dom in range(3):
        items, _ = generate_domain(spec, dom)
        assert {_brand_of(it) for it in items} == set(BRANDS)
        words = set()
        for it in items:
            words.update(dict(it.attributes)["Title"].split()[1:2])  # the noun slot
        title_words.append(words)
    assert title_words[0] & title_words[1] == set()
    assert title_words[1] & title_words[2] == set()
    assert title_words[0] & title_words[2] == set()


def test_domain_nouns_are_unique_even_past_the_pair_pool():
    # 16 syllables give 256 bare pairs; beyond that a numeric suffix keeps
    # nouns distinct
    a = _domain_nouns(0, 300)
    assert len(set(a)) == 300
    assert a[0].isalpha() and a[299].endswith("1")
    b = _domain_nouns(1, 300)
    assert set(a[:300]) & set(b[300:]) == set()


def test_item_ids_are_namespaced_per_domain():
    spec = SyntheticSpec(seed=1, items_per_domain=12, users_per_domain=4)
    for dom in (0, 2):
        items, users = generate_domain(spec, dom)
        assert all(it.item_id.startswith(f"d{dom}_i") for it in items)
        assert all(u.user_id.startswith(f"d{dom}_u") for u in users)
        assert len({it.item_id for it in items}) == 12


def test_history_lengths_respect_bounds():
    spec = SyntheticSpec(seed=2, items_per_domain=15, users_per_domain=80,
                         min_len=4, max_len=7)
    _, users = generate_domain(spec, 0)
    lengths = {len(u.items) for u in users}
    assert lengths <= set(range(4, 8))
    assert len(lengths) > 1  # lengths actually vary


def test_planted_rule_majority_brand_predicts_final():
    spec = SyntheticSpec(seed=3, items_per_domain=40, users_per_domain=150)
    items, users = generate_domain(spec, 0)
    brand = {it.item_id: _brand_of(it) for it in items}
    hits = 0
    for u in users:
        majority = Counter(brand[i] for i in u.items[:-1]).most_common(1)[0][0]
        hits += brand[u.items[-1]] == majority
    assert hits / len(users) > 0.85


def test_low_affinity_breaks_the_rule():
    spec = SyntheticSpec(seed=3, items_per_domain=40, users_per_domain=150,
                         brand_affinity=0.0)
    items, users = generate_domain(spec, 0)
    brand = {it.item_id: _brand_of(it) for it in items}
    hits = 0
    for u in users:
        majority = Counter(brand[i] for i in u.items[:-1]).most_common(1)[0][0]
        hits += brand[u.items[-1]] == majority
    assert hits / len(users) < 0.5


def test_cold_items_appear_only_in_final_position():
    spec = SyntheticSpec(seed=4, items_per_domain=30, users_per_domain=120,
                         cold_fraction=0.3)
    items, users = generate_domain(spec, 0)
    non_final = {iid for u in users for iid in u.items[:-1]}
    finals = {u.items[-1] for u in users}
    n_cold = round(0.3 * 30)
    assert len(non_final) <= 30 - n_cold
    assert finals - non_final  # some never-trained item really lands as a target


def test_zero_cold_fraction_uses_whole_pool():
    spec = SyntheticSpec(seed=5, items_per_domain=12, users_per_domain=200)
    items, users = generate_domain(spec, 0)
    seen = {iid for u in users for iid in u.items}
    assert seen == {it.item_id for it in items}


def test_write_corpus_round_trips(tmp_path):
    spec = SyntheticSpec(seed=6, n_domains=2, items_per_domain=10,
                         users_per_domain=8)
    dirs = write_corpus(tmp_path, spec)
    assert [d.name for d in dirs] == ["domain_00", "domain_01"]
    for dom, d in enumerate(dirs):
        items, users = generate_domain(spec, dom)
        assert load_items_jsonl(d / "items.jsonl") == items
        assert load_interactions_jsonl(d / "interactions.jsonl") == users
