"""Seeded synthetic inputs for the ratkit benchmark.

Everything here is a pure function of (workload, seed) and uses only the
standard library, so the inputs do not move when the package or its tests
change. Two vocabulary profiles exist:

* grid workloads: a shared head vocabulary (Zipf over 200 types for the dense
  grid_dense, 2.6k for grid_eval) mixed with per-domain tail terms. Head terms
  give every domain long postings and let less_relevant retrieval find
  matches; the tails make relevant retrieval beat less_relevant.
* augment_zipf: a natural Zipf(s=1) vocabulary of 50k types, a heavy head and
  a long tail, closer to a real translation memory.

Token streams have fixed per-type counts (the seed only decides their order),
and the augmented pairs are drawn one per stratum of postings cost (the sum
of the document frequencies of a sentence's distinct terms). Inputs stay
representative while the total work varies little from seed to seed, which
keeps run-to-run spread low.
"""

from __future__ import annotations

import json
import random
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Sizes were tuned so that one main call takes roughly 1-4 s on a 2-CPU
# machine; the shapes follow what each workload is meant to stress.
WORKLOADS = {
    "grid_dense": dict(
        kind="grid",
        domains=("it", "law", "med"),
        head_types=200,
        tail_types=100,
        tail_share=0.25,
        length=(5, 12),
        tm_per_domain=1200,
        test_per_domain=40,
        k_values=(1, 3),
        workers=2,
        bootstrap=1000,
    ),
    "grid_eval": dict(
        kind="grid",
        domains=("law", "med"),
        head_types=2600,
        tail_types=200,
        tail_share=0.25,
        length=(5, 12),
        tm_per_domain=200,
        test_per_domain=300,
        k_values=(1, 3),
        workers=1,
        bootstrap=1000,
    ),
    "augment_zipf": dict(
        kind="augment",
        domain="train",
        types=50_000,
        length=(5, 20),
        tm_pairs=8_000,
        queries=200,
        k=3,
        pool=10,
    ),
}


def analyze(text: str) -> list[str]:
    """Retrieval terms: lowercase, whitespace split, edge punctuation stripped.

    Written from the documented analyzer rules, independently of the package.
    """
    terms = []
    for token in text.lower().split():
        start, end = 0, len(token)
        while start < end and unicodedata.category(token[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(token[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            terms.append(token[start:end])
    return terms


def document_frequencies(sources) -> Counter:
    df: Counter = Counter()
    for source in sources:
        df.update(set(analyze(source)))
    return df


def postings_cost(source: str, df) -> int:
    """Postings a BM25 query visits: sum of df over its distinct terms."""
    return sum(df.get(term, 0) for term in set(analyze(source)))


@dataclass
class Pair:
    id: str
    domain: str
    src: str
    tgt: str

    def record(self) -> dict:
        return {"id": self.id, "domain": self.domain, "src": self.src, "tgt": self.tgt}


@dataclass
class Inputs:
    """Generated data plus the properties recorded about it."""

    workload: str
    params: dict
    tm: list[Pair]
    tests: dict[str, list[Pair]] = field(default_factory=dict)
    queries: list[Pair] = field(default_factory=list)

    @property
    def domain_of(self) -> dict[str, str]:
        return {pair.id: pair.domain for pair in self.tm}

    def pools(self) -> dict[str, list[Pair]]:
        """Indexed documents per retrieval pool, keyed like the spans label them."""
        if self.params["kind"] == "augment":
            return {"tm": self.tm}
        pools = {}
        for domain in self.params["domains"]:
            pools[f"{domain}/relevant"] = [p for p in self.tm if p.domain == domain]
            pools[f"{domain}/less_relevant"] = [p for p in self.tm if p.domain != domain]
        return pools

    def properties(self) -> dict:
        df = document_frequencies(p.src for p in self.tm)
        pools = self.pools()
        pool_df = {name: document_frequencies(p.src for p in docs) for name, docs in pools.items()}
        costs = []
        if self.params["kind"] == "augment":
            costs = [postings_cost(q.src, pool_df["tm"]) for q in self.queries]
        else:
            for domain, tests in self.tests.items():
                for relevance in ("relevant", "less_relevant"):
                    costs.extend(postings_cost(t.src, pool_df[f"{domain}/{relevance}"]) for t in tests)
        return {
            "tm_pairs": len(self.tm),
            "terms": len(df),
            "query_sentences": len(self.queries) or sum(len(t) for t in self.tests.values()),
            "mean_postings_per_query": sum(costs) / len(costs),
        }


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank + 1) for rank in range(n)]


def _stream(types: list[str], weights: list[float], total: int, rng: random.Random) -> list[str]:
    """Exactly ``total`` tokens, each type as often as its weight share says, in seeded order.

    Counts use largest-remainder rounding, so term frequencies (and with them
    document frequencies and postings lengths) are the same for every seed;
    the seed decides which sentences the tokens land in.
    """
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(types)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    stream = [t for t, c in zip(types, counts) for _ in range(c)]
    rng.shuffle(stream)
    return stream


def _lengths(n: int, bounds: tuple[int, int], rng: random.Random) -> list[int]:
    """Sentence lengths cycling evenly through ``bounds``, in seeded order."""
    lo, hi = bounds
    lengths = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def _translate(tokens: list[str]) -> str:
    # Token-wise "translation", so n-gram overlap on the source side carries
    # over to the suggestion targets that BLEU and overlap score.
    return " ".join("x" + token for token in tokens)


def _stratified(candidates: list[Pair], df, n: int, rng: random.Random) -> list[Pair]:
    """One candidate per postings-cost stratum, returned in candidate order."""
    order = sorted(range(len(candidates)), key=lambda i: (postings_cost(candidates[i].src, df), i))
    picked = []
    for s in range(n):
        lo, hi = s * len(order) // n, (s + 1) * len(order) // n
        picked.append(order[rng.randrange(lo, hi)])
    return [candidates[i] for i in sorted(picked)]


def _domain_sentences(p: dict, domain: str, n: int, rng: random.Random) -> list[list[str]]:
    """Sentences mixing shared head terms with the domain's own tail terms."""
    lengths = _lengths(n, p["length"], rng)
    n_tail = [round(length * p["tail_share"]) for length in lengths]
    head_types = [f"w{i:04d}" for i in range(p["head_types"])]
    tail_types = [f"{domain}{i:03d}" for i in range(p["tail_types"])]
    head = _stream(head_types, _zipf_weights(len(head_types)), sum(lengths) - sum(n_tail), rng)
    tail = _stream(tail_types, _zipf_weights(len(tail_types)), sum(n_tail), rng)
    sentences = []
    for length, tails in zip(lengths, n_tail):
        tokens = _take_distinct(head, length - tails) + _take_distinct(tail, tails)
        rng.shuffle(tokens)
        sentences.append(tokens)
    return sentences


def _take_distinct(stream: list[str], n: int) -> list[str]:
    """Up to n tokens off the stream with no term repeated; skipped ones go back.

    With every term at most once per sentence, a term's document frequency
    is (nearly) its fixed stream count, so postings lengths barely vary by seed.
    """
    tokens, held = [], []
    while len(tokens) < n and stream:
        token = stream.pop()
        (held if token in tokens else tokens).append(token)
    stream.extend(held)
    return tokens


def _grid_inputs(name: str, p: dict, rng: random.Random) -> Inputs:
    tm, tests = [], {}
    for domain in p["domains"]:
        # Separate streams, so the test set's term counts are fixed too.
        test_sents = _domain_sentences(p, domain, p["test_per_domain"], rng)
        tm_sents = _domain_sentences(p, domain, p["tm_per_domain"], rng)
        # Up to half the TM are fuzzy variants of test sentences (some tokens
        # dropped, one borrowed from the TM sentence replaced), so relevant
        # retrieval finds close matches and less_relevant does not.
        for tokens, replaced in zip(test_sents, tm_sents[: len(tm_sents) // 2]):
            variant = [t for t in tokens if rng.random() > 0.2] or tokens[:1]
            borrowed = [t for t in replaced if t not in variant]
            if borrowed:
                variant.insert(rng.randint(0, len(variant)), rng.choice(borrowed))
            replaced[:] = variant
        rng.shuffle(tm_sents)
        tm += [Pair(f"{domain}-tm-{i:05d}", domain, " ".join(t), _translate(t)) for i, t in enumerate(tm_sents)]
        tests[domain] = [
            Pair(f"{domain}-test-{i:05d}", domain, " ".join(t), _translate(t)) for i, t in enumerate(test_sents)
        ]
    return Inputs(name, p, tm, tests=tests)


def _augment_inputs(name: str, p: dict, rng: random.Random) -> Inputs:
    lengths = _lengths(p["tm_pairs"], p["length"], rng)
    types = [f"t{i:05d}" for i in range(p["types"])]
    stream = _stream(types, _zipf_weights(len(types)), sum(lengths), rng)
    tm = []
    for i, length in enumerate(lengths):
        tokens = [stream.pop() for _ in range(length)]
        tm.append(Pair(f"tm-{i:06d}", p["domain"], " ".join(tokens), _translate(tokens)))
    df = document_frequencies(pair.src for pair in tm)
    # The augmented pairs are the TM's own, one per postings-cost stratum.
    return Inputs(name, p, tm, queries=_stratified(tm, df, p["queries"], rng))


def generate(workload: str, seed: int) -> Inputs:
    p = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if p["kind"] == "grid":
        return _grid_inputs(workload, p, rng)
    return _augment_inputs(workload, p, rng)


def _write_jsonl(pairs: list[Pair], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair.record(), ensure_ascii=False) + "\n")


def write_inputs(inputs: Inputs, data_dir: Path) -> None:
    """Write the JSONL files the program reads: per-domain TMs and test sets, or TM and queries."""
    data_dir.mkdir(parents=True, exist_ok=True)
    if inputs.params["kind"] == "augment":
        _write_jsonl(inputs.tm, data_dir / "tm.jsonl")
        _write_jsonl(inputs.queries, data_dir / "queries.jsonl")
        return
    for domain in inputs.params["domains"]:
        _write_jsonl([p for p in inputs.tm if p.domain == domain], data_dir / f"tm_{domain}.jsonl")
        _write_jsonl(inputs.tests[domain], data_dir / f"test_{domain}.jsonl")


def write_manifest(inputs: Inputs, data_dir: Path, out_dir: str, seed: int) -> Path:
    """A ``ratkit run`` manifest for a grid workload; ``out_dir`` is relative to data_dir."""
    p = inputs.params
    manifest = {
        "tms": [f"tm_{d}.jsonl" for d in p["domains"]],
        "test_sets": {d: f"test_{d}.jsonl" for d in p["domains"]},
        "domains": list(p["domains"]),
        "k_values": list(p["k_values"]),
        "scenarios": ["relevant", "less_relevant"],
        "translator": {"kind": "baseline_oracle_copy"},
        "augmentation": {"mode": "topk"},
        "bootstrap": {"n": p["bootstrap"], "seed": seed},
        "out_dir": out_dir,
    }
    path = data_dir / f"manifest_{out_dir}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
