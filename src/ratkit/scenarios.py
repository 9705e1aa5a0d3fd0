"""Compose relevant vs less-relevant TM retrieval settings for a test domain.

``relevant`` indexes only the pairs whose domain matches the test set.
``less_relevant`` deliberately mismatches: it indexes the pairs of every
*other* domain, merged into a single search pool so BM25 statistics are
global and scores comparable across the contributing TMs.

Every scenario index is cut from one pool index over the pairs of all TMs
(:func:`build_pool`), so a run analyzes each pair once. A cut equals a fresh
index over the scenario's pairs, down to every score bit.

Scenario indexes must be built from training-side TMs only; never feed test
data in here, or retrieval leaks the references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augmentation import AugmentedExample
from .corpus import SentencePair, TranslationMemory, atomic_write
from .errors import ConfigurationError, ValidationError
from .retrieval import Bm25Params, TmIndex, build_index

RELEVANCES = ("relevant", "less_relevant")


@dataclass(frozen=True)
class ScenarioSpec:
    """What was indexed for one (test domain, relevance) setting."""

    test_domain: str
    relevance: str
    tm_sources: tuple[str, ...]
    resolved_domains: frozenset[str]


@dataclass(frozen=True)
class ScenarioValidation:
    """Per-origin-domain suggestion counts plus any domain-exclusion violations."""

    passed: bool
    domain_counts: dict[str, int]
    violations: tuple[tuple[str, str, str], ...]  # (example pair_id, suggestion id, domain)


def build_pool(tms: list[TranslationMemory], params: Bm25Params = Bm25Params()) -> TmIndex:
    """One index over the pairs of all TMs, concatenated in the given order.

    Every scenario index of a run is a subset of it, so each pair is analyzed
    once per run. An id repeated across TMs, or a pair that cannot be indexed,
    raises a ValidationError.
    """
    seen_ids: dict[str, str] = {}
    for tm in tms:
        for pair in tm.pairs:
            if pair.id in seen_ids:
                raise ValidationError(
                    f"pair id {pair.id!r} occurs in both {seen_ids[pair.id]!r} and {tm.name!r}; "
                    "scenario merging requires globally unique ids"
                )
            seen_ids[pair.id] = tm.name
    pairs = tuple(pair for tm in tms for pair in tm.pairs)
    return build_index(TranslationMemory(name="pool", pairs=pairs), params)


def build_scenario(
    test_domain: str,
    tms: list[TranslationMemory],
    relevance: str,
    params: Bm25Params = Bm25Params(),
    pool: TmIndex | None = None,
) -> tuple[ScenarioSpec, TmIndex]:
    """Merge the eligible pairs of all TMs and index them for one scenario.

    The index is cut from ``pool``, the :func:`build_pool` index of the same
    TMs and parameters; without one, the pool is built here. It equals a fresh
    index over the merged pairs, but for its rows, numbered in the pool's term order.
    """
    if relevance not in RELEVANCES:
        raise ConfigurationError(f"relevance must be one of {RELEVANCES}, got {relevance!r}")
    if not tms:
        raise ConfigurationError("no translation memories given")

    relevant = relevance == "relevant"
    keep: list[bool] = []
    selected: list[SentencePair] = []
    sources: list[str] = []
    for tm in tms:
        contributed = False
        for pair in tm.pairs:
            kept = (pair.domain == test_domain) == relevant
            keep.append(kept)
            if kept:
                selected.append(pair)
                contributed = True
        if contributed:
            sources.append(tm.name)

    all_domains = set().union(*(tm.domains for tm in tms))
    if not selected:
        if relevant:
            raise ConfigurationError(
                f"domain {test_domain!r} not present in any TM (domains: {sorted(all_domains)})"
            )
        raise ConfigurationError(
            f"no domain other than {test_domain!r} available for a less-relevant scenario"
        )

    if pool is None:
        pool = build_pool(tms, params)
    elif pool.params != params or pool.pairs != tuple(pair for tm in tms for pair in tm.pairs):
        raise ConfigurationError("the pool index was not built from these TMs and parameters")
    spec = ScenarioSpec(
        test_domain=test_domain,
        relevance=relevance,
        tm_sources=tuple(sources),
        resolved_domains=frozenset(pair.domain for pair in selected),
    )
    return spec, pool.subset(np.array(keep))


def validate_scenario(
    spec: ScenarioSpec, examples: list[AugmentedExample]
) -> ScenarioValidation:
    """Check that no suggestion originates from a domain the scenario excludes.

    Suggestions must carry their origin domain (i.e. come straight from
    retrieval, not from a round-tripped JSONL file).
    """
    counts: dict[str, int] = {}
    violations: list[tuple[str, str, str]] = []
    for example in examples:
        for match in example.suggestions:
            counts[match.domain] = counts.get(match.domain, 0) + 1
            if match.domain not in spec.resolved_domains:
                violations.append((example.pair_id, match.pair_id, match.domain))
    return ScenarioValidation(
        passed=not violations,
        domain_counts=dict(sorted(counts.items())),
        violations=tuple(violations),
    )


def write_scenario_sidecar(spec: ScenarioSpec, index_path: str | Path) -> Path:
    """Drop a JSON audit record next to a scenario's index file."""
    index_path = Path(index_path)
    sidecar = index_path.with_name(index_path.name + ".scenario.json")
    payload = {
        "test_domain": spec.test_domain,
        "relevance": spec.relevance,
        "tm_sources": list(spec.tm_sources),
        "resolved_domains": sorted(spec.resolved_domains),
    }
    with atomic_write(sidecar) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
