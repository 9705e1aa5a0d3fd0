"""Seeded corpus generators and independent oracle scorers shared by the tests.

Everything here is deterministic under its seed arguments. The brute-force
BM25 ranker recomputes scores straight from the formula without touching the
inverted index, so it can serve as an equivalence oracle for query_top_n.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from ratkit import Bm25Params
from ratkit.corpus import SentencePair, TranslationMemory, _tokens_13a, analyze_for_index

VOCAB = [f"w{i:03d}" for i in range(200)]
_VOCAB_WEIGHTS = [1.0 / (i + 1) for i in range(len(VOCAB))]


def make_random_tm(n_pairs: int = 1000, seed: int = 0, name: str = "random-tm") -> TranslationMemory:
    """TM with Zipf-ish source vocabulary for retrieval stress tests."""
    rng = random.Random(seed)
    domains = ("news", "law", "med", "it")
    pairs = []
    for i in range(n_pairs):
        length = rng.randint(3, 12)
        tokens = rng.choices(VOCAB, weights=_VOCAB_WEIGHTS, k=length)
        pairs.append(
            SentencePair(
                id=f"p{i:05d}",
                source=" ".join(tokens),
                target="tgt " + " ".join(reversed(tokens)),
                domain=domains[i % len(domains)],
            )
        )
    return TranslationMemory(name=name, pairs=tuple(pairs))


def make_queries(tm: TranslationMemory, n_queries: int = 100, seed: int = 1) -> list[str]:
    """Query mix: perturbed TM sources, random vocabulary draws, OOV noise."""
    rng = random.Random(seed)
    queries = []
    for i in range(n_queries):
        kind = i % 4
        if i == 0:
            queries.append("zzz yyy xxx")
        elif kind < 2:
            base = analyze_for_index(rng.choice(tm.pairs).source)
            kept = [t for t in base if rng.random() > 0.3] or base[:1]
            kept.extend(rng.choices(VOCAB, k=rng.randint(0, 2)))
            rng.shuffle(kept)
            queries.append(" ".join(kept))
        elif kind == 2:
            queries.append(" ".join(rng.choices(VOCAB, k=rng.randint(2, 6))))
        else:
            queries.append(" ".join(rng.choices(VOCAB, k=3) + ["unseenterm"]))
    return queries


def brute_force_top_n(
    tm: TranslationMemory,
    query_text: str,
    n: int,
    params: Bm25Params = Bm25Params(),
    exclusions: frozenset[str] | set[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Score every document from the BM25 formula directly and rank.

    Duplicate query terms count once; only positive scores are kept; ties
    break by ascending pair id. Returns (pair_id, score) in rank order.
    """
    analyzed = [analyze_for_index(p.source) for p in tm.pairs]
    doc_count = len(analyzed)
    avg_doc_length = sum(len(t) for t in analyzed) / doc_count
    df: Counter = Counter()
    for terms in analyzed:
        for term in set(terms):
            df[term] += 1

    query_terms = sorted(set(analyze_for_index(query_text)))
    ranked = []
    for pair, terms in zip(tm.pairs, analyzed):
        if pair.id in exclusions:
            continue
        counts = Counter(terms)
        score = 0.0
        for term in query_terms:
            tf = counts[term]
            if tf == 0:
                continue
            term_idf = math.log(1.0 + (doc_count - df[term] + 0.5) / (df[term] + 0.5))
            norm = params.k1 * (1.0 - params.b + params.b * len(terms) / avg_doc_length)
            score += term_idf * tf * (params.k1 + 1.0) / (tf + norm)
        if score > 0.0:
            ranked.append((pair.id, score))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked[:n]


def postings(index) -> dict[str, list[tuple[int, int]]]:
    """An index's CSR postings as term -> [(doc, tf)], docs ascending."""
    result = {}
    for term, row in index.term_rows.items():
        start, end = index.offsets[row], index.offsets[row + 1]
        result[term] = list(zip(index.docs[start:end].tolist(), index.tfs[start:end].tolist()))
    return result


def dense_rows(index) -> dict[str, tuple[str, bytes]]:
    """An index's dense rows as term -> (dtype, the row's bytes)."""
    return {
        term: (str(index.dense_rows[row].dtype), index.dense_rows[row].tobytes())
        for term, row in index.term_rows.items()
        if row in index.dense_rows
    }


def tiny_tm() -> TranslationMemory:
    """Three-pair TM whose BM25 statistics are small enough to verify by hand."""
    return TranslationMemory(
        name="tiny",
        pairs=(
            SentencePair(id="d1", source="the cat sat", target="die Katze sass", domain="a"),
            SentencePair(id="d2", source="the dog", target="der Hund", domain="a"),
            SentencePair(id="d3", source="cat", target="Katze", domain="a"),
        ),
    )


def make_three_domain(
    seed: int = 2, tm_per_domain: int = 120, test_per_domain: int = 334
) -> tuple[TranslationMemory, dict[str, TranslationMemory]]:
    """Three single-template domains whose sources share enough common tokens
    that cross-domain retrieval always finds positive-score matches.
    """
    rng = random.Random(seed)
    domains = ("it", "law", "med")
    nouns = {d: [f"{d}term{j:02d}" for j in range(15)] for d in domains}
    tm_pairs = []
    test_sets = {}
    for d in domains:
        for i in range(tm_per_domain):
            a, b = rng.choice(nouns[d]), rng.choice(nouns[d])
            tm_pairs.append(
                SentencePair(
                    id=f"{d}-tm-{i:04d}",
                    source=f"please check the status of {a} and {b} now",
                    target=f"{d} status {a} {b} pronto",
                    domain=d,
                )
            )
        tests = []
        for i in range(test_per_domain):
            a, b = rng.choice(nouns[d]), rng.choice(nouns[d])
            tests.append(
                SentencePair(
                    id=f"{d}-test-{i:05d}",
                    source=f"please check the status of {a} and {b} today",
                    target=f"{d} status {a} {b} subito",
                    domain=d,
                )
            )
        test_sets[d] = TranslationMemory(name=f"test-{d}", pairs=tuple(tests))
    return TranslationMemory(name="three-domain-tm", pairs=tuple(tm_pairs)), test_sets


# Two-domain corpus engineered so that same-domain TM targets share most of
# each reference's n-grams while cross-domain targets share none. Source
# sides overlap only in template words (please/update/the/before), so the
# less-relevant scenario still retrieves matches, just useless ones.

_TEMPLATES = {
    "alpha": (
        "please update the {item} report before {day}",
        "alpha bericht {item_t} wird vor {day_t} aktualisiert",
        "erneuert",
    ),
    "beta": (
        "please update the {item} chart before {day}",
        "beta grafiek {item_t} wordt voor {day_t} vernieuwd",
        "ververst",
    ),
}


def make_directional(
    seed: int = 3, combos_per_domain: int = 150, tests_per_domain: int = 50
) -> tuple[TranslationMemory, dict[str, TranslationMemory]]:
    rng = random.Random(seed)
    tm_pairs = []
    test_sets = {}
    for prefix, domain in (("a", "alpha"), ("b", "beta")):
        items = [f"{prefix}item{j:02d}" for j in range(40)]
        days = [f"{prefix}day{j:02d}" for j in range(20)]
        item_t = {item: f"{prefix}ding{j:02d}" for j, item in enumerate(items)}
        day_t = {day: f"{prefix}tag{j:02d}" for j, day in enumerate(days)}
        src_tpl, tgt_tpl, varied_last = _TEMPLATES[domain]

        combos = rng.sample([(i, d) for i in items for d in days], combos_per_domain)
        for i, (item, day) in enumerate(combos):
            tm_pairs.append(
                SentencePair(
                    id=f"{domain}-tm-{i:04d}",
                    source=src_tpl.format(item=item, day=day),
                    target=tgt_tpl.format(item_t=item_t[item], day_t=day_t[day]),
                    domain=domain,
                )
            )

        tests = []
        for i, (item, day) in enumerate(rng.sample(combos, tests_per_domain)):
            target = tgt_tpl.format(item_t=item_t[item], day_t=day_t[day])
            if i % 2 == 1:
                # held-out references differ from the best TM target by one token
                target = " ".join(target.split()[:-1] + [varied_last])
            tests.append(
                SentencePair(
                    id=f"{domain}-test-{i:03d}",
                    source=src_tpl.format(item=item, day=day) + " now",
                    target=target,
                    domain=domain,
                )
            )
        test_sets[domain] = TranslationMemory(name=f"test-{domain}", pairs=tuple(tests))
    return TranslationMemory(name="directional-tm", pairs=tuple(tm_pairs)), test_sets


def ngram_type_share(references: list[str], targets: list[str]) -> float:
    """Fraction of reference n-gram types (orders 1..4 pooled) that occur
    anywhere in the target pool, on 13a tokens.
    """
    pool = set()
    for text in targets:
        tokens = list(_tokens_13a(text))
        for n in range(1, 5):
            pool.update(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    hits = total = 0
    for reference in references:
        tokens = list(_tokens_13a(reference))
        for n in range(1, 5):
            for i in range(len(tokens) - n + 1):
                total += 1
                hits += tuple(tokens[i : i + n]) in pool
    return hits / total


def make_bootstrap_systems(
    n_sentences: int = 200, a_wins: int = 180, seed: int = 5
) -> tuple[list[str], list[str], list[str]]:
    """Aligned (hyps_a, hyps_b, refs) where A matches the reference exactly on
    ``a_wins`` sentences and B on the rest, at seeded positions.
    """
    rng = random.Random(seed)
    winners = set(rng.sample(range(n_sentences), a_wins))
    refs, hyps_a, hyps_b = [], [], []
    noise = "completely unrelated words appear in this line instead"
    for i in range(n_sentences):
        ref = f"sentence number {i} mentions token z{i:03d} and ends cleanly"
        refs.append(ref)
        hyps_a.append(ref if i in winners else noise)
        hyps_b.append(noise if i in winners else ref)
    return hyps_a, hyps_b, refs
