"""Correctness gates and output digests for the ratkit benchmark.

The BM25 oracle scores every document of a pool straight from the formula
documented in ``ratkit.retrieval`` (Lucene-style idf, distinct query terms),
without an inverted index, and ranks by score then pair id. Shuffle-mode
draws are replayed from the documented keying rule: a ``random.Random``
seeded with BLAKE2b(seed, pair id), sampling positions of the top pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from collections import Counter
from pathlib import Path

from gen import Inputs, Pair, analyze

K1, B = 1.2, 0.75
REL_TOL = 1e-9
QUERIES_PER_POOL = 6  # grid workloads: sampled test sentences per (domain, scenario)
AUGMENT_QUERIES = 16


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Bm25Oracle:
    def __init__(self, docs: list[Pair]):
        self.ids = [doc.id for doc in docs]
        self.counts = [Counter(analyze(doc.src)) for doc in docs]
        self.lengths = [sum(c.values()) for c in self.counts]
        self.avgdl = sum(self.lengths) / len(docs)
        self.df: Counter = Counter()
        for counts in self.counts:
            self.df.update(counts.keys())

    def ranked(self, query: str, exclusions=frozenset()) -> tuple[list[tuple[str, float]], dict[str, float]]:
        """All positive-score documents in rank order, plus their scores by id."""
        n = len(self.ids)
        terms = sorted(set(analyze(query)))
        idf = {t: math.log(1.0 + (n - self.df[t] + 0.5) / (self.df[t] + 0.5)) for t in terms}
        scores = {}
        for pair_id, counts, length in zip(self.ids, self.counts, self.lengths):
            if pair_id in exclusions:
                continue
            norm = K1 * (1.0 - B + B * length / self.avgdl)
            score = 0.0
            for term in terms:
                tf = counts.get(term, 0)
                if tf:
                    score += idf[term] * tf * (K1 + 1.0) / (tf + norm)
            if score > 0.0:
                scores[pair_id] = score
        return sorted(scores.items(), key=lambda item: (-item[1], item[0])), scores


def derive_seed(seed: int, *parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF))
    for part in parts:
        data = str(part).encode("utf-8")
        h.update(struct.pack("<I", len(data)))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def compare(where: str, got: list[dict], ranked, scores, positions: list[int]) -> list[str]:
    """Check recorded suggestions against the oracle at the expected rank positions.

    A suggestion may differ from the oracle's id at its position only when
    both true scores agree within REL_TOL (a swap among near-equal scores).
    """
    problems = []
    if len(got) != len(positions):
        return [f"{where}: {len(got)} suggestions, oracle expects {len(positions)}"]
    if len({s["id"] for s in got}) != len(got):
        problems.append(f"{where}: duplicate suggestion ids")
    for pos, s in zip(positions, got):
        if s["rank"] != pos + 1:
            problems.append(f"{where}: rank {s['rank']}, oracle expects {pos + 1}")
        elif s["id"] not in scores:
            problems.append(f"{where}: {s['id']} has no positive oracle score")
        elif not close(scores[s["id"]], ranked[pos][1]):
            problems.append(f"{where}: rank {pos + 1} is {s['id']}, oracle has {ranked[pos][0]}")
        elif not close(s["score"], scores[s["id"]]):
            problems.append(f"{where}: {s['id']} scored {s['score']!r}, oracle {scores[s['id']]!r}")
    return problems


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Gates:
    """Oracle rankings for a fixed, seeded sample of queries, and the checks over one run's outputs."""

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.params = inputs.params
        self.seed = seed
        rng = random.Random(f"oracle:{inputs.workload}:{seed}")
        pools = inputs.pools()
        self.expected: dict[tuple[str, str], tuple] = {}  # (pool, pair id) -> oracle ranking
        if self.params["kind"] == "augment":
            oracle = Bm25Oracle(pools["tm"])
            by_source: dict[str, set[str]] = {}
            for pair in inputs.tm:
                by_source.setdefault(pair.src, set()).add(pair.id)
            for pair in rng.sample(inputs.queries, AUGMENT_QUERIES):
                exclusions = {pair.id} | by_source.get(pair.src, set())
                self.expected[("tm", pair.id)] = oracle.ranked(pair.src, exclusions)
        else:
            for domain, tests in inputs.tests.items():
                sample = rng.sample(tests, QUERIES_PER_POOL)
                for relevance in ("relevant", "less_relevant"):
                    oracle = Bm25Oracle(pools[f"{domain}/{relevance}"])
                    for pair in sample:
                        self.expected[(f"{domain}/{relevance}", pair.id)] = oracle.ranked(pair.src)

    def check(self, out_dir: Path) -> list[str]:
        """Problems found in one repetition's output directory (empty when correct)."""
        if self.params["kind"] == "augment":
            return self._check_augment(out_dir)
        return self._check_grid(out_dir)

    def _check_augment(self, out_dir: Path) -> list[str]:
        records = {r["id"]: r for r in _read_jsonl(out_dir / "augmented.jsonl")}
        problems = []
        if list(records) != [q.id for q in self.inputs.queries]:
            problems.append("augmented.jsonl does not hold one record per query, in order")
        k, pool = self.params["k"], self.params["pool"]
        for (_, pair_id), (ranked, scores) in self.expected.items():
            candidates = ranked[:pool]
            draw = random.Random(derive_seed(self.seed, pair_id))
            positions = sorted(draw.sample(range(len(candidates)), min(k, len(candidates))))
            got = records.get(pair_id, {}).get("suggestions", [])
            problems += compare(f"augment {pair_id}", got, ranked, scores, positions)
        return problems

    def _check_grid(self, out_dir: Path) -> list[str]:
        problems = []
        domain_of = self.inputs.domain_of
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        if report["failed_cells"]:
            problems.append(f"failed cells: {report['failed_cells']}")
        for domain, tests in self.inputs.tests.items():
            for k in self.params["k_values"]:
                for relevance in ("relevant", "less_relevant"):
                    cell = f"{domain}__k{k}__{relevance}"
                    path = out_dir / "cells" / cell / "augmented.jsonl"
                    if not path.exists():
                        problems.append(f"{cell}: no augmented.jsonl")
                        continue
                    records = _read_jsonl(path)
                    if [r["id"] for r in records] != [t.id for t in tests]:
                        problems.append(f"{cell}: records do not match the test set")
                    for record in records:
                        for s in record["suggestions"]:
                            # Scenario exclusion, judged from the generated data.
                            if s["id"] not in domain_of:
                                problems.append(f"{cell}: suggestion {s['id']} is not a generated TM pair")
                            elif (domain_of[s["id"]] == domain) != (relevance == "relevant"):
                                problems.append(
                                    f"{cell}: suggestion {s['id']} from domain "
                                    f"{domain_of[s['id']]!r} breaks the {relevance} scenario"
                                )
                        expected = self.expected.get((f"{domain}/{relevance}", record["id"]))
                        if expected is not None:
                            ranked, scores = expected
                            positions = list(range(min(k, len(ranked))))
                            problems += compare(f"{cell} {record['id']}", record["suggestions"], ranked, scores, positions)
        return problems


def _augmented_files(out_dir: Path, kind: str) -> list[Path]:
    if kind == "augment":
        return [out_dir / "augmented.jsonl"]
    return sorted((out_dir / "cells").glob("*/augmented.jsonl"))


def tie_flips(base: Path, other: Path, kind: str) -> tuple[int, list[str]]:
    """Records whose suggestions differ between two repetitions of the same inputs.

    A difference is allowed only as a swap among scores that agree within
    REL_TOL: rank by rank, both runs must hold equal ranks and near-equal
    scores. Such swaps come from summation order that follows the process's
    string hashing; anything else is returned as a problem.
    """
    flips, problems = 0, []
    for path_a in _augmented_files(base, kind):
        path_b = other / path_a.relative_to(base)
        if not path_b.exists():
            continue  # a missing cell is reported by Gates.check
        records_a, records_b = _read_jsonl(path_a), _read_jsonl(path_b)
        if len(records_a) != len(records_b):
            problems.append(f"{path_b}: {len(records_b)} records, first repetition has {len(records_a)}")
            continue
        for a, b in zip(records_a, records_b):
            sa, sb = a["suggestions"], b["suggestions"]
            if [s["id"] for s in sa] == [s["id"] for s in sb]:
                continue
            flips += 1
            if len(sa) != len(sb) or any(
                x["rank"] != y["rank"] or not close(x["score"], y["score"]) for x, y in zip(sa, sb)
            ):
                problems.append(f"{path_b.parent.name} {a['id']}: suggestions differ beyond near-equal scores")
    return flips, problems


def digests(out_dir: Path, kind: str) -> dict[str, str | None]:
    """sha256 of report.json, of the suggestions (ids, ranks, flat text) and of the scores.

    Keeping the scores apart tells a changed ranking from last-bit score drift.
    """
    report = None  # augment_zipf writes no report.json
    if kind == "grid":
        report = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
    suggestions, scores = hashlib.sha256(), hashlib.sha256()
    for path in _augmented_files(out_dir, kind):
        label = path.parent.name if kind == "grid" else ""
        for record in _read_jsonl(path):
            ranked = [[s["id"], s["rank"]] for s in record["suggestions"]]
            suggestions.update(json.dumps([label, record["id"], ranked, record["flat"]]).encode("utf-8"))
            scores.update(json.dumps([label, record["id"], [s["score"] for s in record["suggestions"]]]).encode("utf-8"))
    return {"report": report, "suggestions": suggestions.hexdigest(), "scores": scores.hexdigest()}
