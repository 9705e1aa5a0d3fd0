"""Turn fuzzy-match retrieval results into augmented training/inference examples.

Two modes exist. ``topk`` deterministically keeps the k best matches and is
the usual inference-time setting. ``shuffle`` is the training-time setting:
k suggestions are sampled uniformly without replacement from a larger
candidate pool (the top ``pool_size`` matches), which exposes the model to less
similar suggestions and makes it more robust to irrelevant ones later.

Sampling is keyed per example by (seed, pair id), so the produced corpus does
not depend on iteration order or parallelism, and re-running with the same
seed reproduces it byte for byte. Epoch-level resampling is the trainer's
choice: re-invoke with a different seed to draw a fresh corpus.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import TranslationMemory, atomic_write, parse_json, text_lines, write_lines
from .errors import ValidationError
from .retrieval import FuzzyMatch, TmIndex, query_top_n
from .seeding import derived_rng

MODES = ("topk", "shuffle")


@dataclass(frozen=True)
class AugmentationConfig:
    """Settings for one augmentation run.

    ``pool_size`` and ``seed`` only matter in shuffle mode, so only shuffle
    mode requires ``pool_size >= k``; topk never reads the pool. Suggestions
    are always flattened in retrieval-rank order. ``exclude_self`` keeps the
    query pair itself (and exact source duplicates) out of the suggestions,
    which is required when a training corpus is augmented against its own
    index.
    """

    k: int
    pool_size: int = 10
    mode: str = "topk"
    seed: int = 0
    exclude_self: bool = False
    separator: str = "@@SEP@@"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.mode == "shuffle" and self.pool_size < self.k:
            raise ValidationError(
                f"pool_size must be >= k, got pool_size={self.pool_size} k={self.k}"
            )
        if not self.separator or any(ch.isspace() for ch in self.separator):
            raise ValidationError("separator must be non-empty and contain no whitespace")


@dataclass(frozen=True)
class AugmentedExample:
    """A source sentence with its suggestions and the flattened translator input."""

    pair_id: str
    source: str
    reference: str
    suggestions: tuple[FuzzyMatch, ...]
    flat_input: str = field(default="")


def flatten_input(source: str, suggestions: Iterable[FuzzyMatch], separator: str) -> str:
    """``source SEP target1 SEP target2 ...`` joined by single spaces."""
    parts = [source]
    for match in suggestions:
        parts.append(separator)
        parts.append(match.target)
    return " ".join(parts)


def sample_suggestions(
    matches: list[FuzzyMatch],
    k: int,
    pool_size: int,
    rng: random.Random,
) -> list[FuzzyMatch]:
    """Uniform without-replacement sample of k suggestions from the top pool,
    returned in rank order.

    The pool is the first min(pool_size, len(matches)) items; when it holds
    fewer than k candidates, all of them are returned.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    pool = matches[:pool_size]
    take = min(k, len(pool))
    picked = rng.sample(pool, take)
    picked.sort(key=lambda match: match.rank)
    return picked


def _validate_separator(separator: str, tm: TranslationMemory, index: TmIndex) -> None:
    # Suggestion targets end up inside flat inputs too, so the reserved token
    # must be absent from the index side as well as the corpus being augmented.
    for pair in tm.pairs:
        if separator in pair.source or separator in pair.target:
            raise ValidationError(
                f"separator {separator!r} occurs in corpus pair {pair.id!r}"
            )
    for pair in index.pairs:
        if separator in pair.target:
            raise ValidationError(
                f"separator {separator!r} occurs in indexed pair {pair.id!r}"
            )


def augment_corpus(
    tm: TranslationMemory,
    index: TmIndex,
    cfg: AugmentationConfig,
) -> Iterator[AugmentedExample]:
    """Yield one augmented example per pair of ``tm``, in corpus order."""
    _validate_separator(cfg.separator, tm, index)
    n = cfg.pool_size if cfg.mode == "shuffle" else cfg.k
    for pair in tm.pairs:
        exclusions: set[str] = set()
        if cfg.exclude_self:
            exclusions.add(pair.id)
            exclusions.update(index.pairs_with_source(pair.source))
        matches = query_top_n(index, pair.source, n, exclusions)
        if cfg.mode == "shuffle":
            rng = derived_rng(cfg.seed, pair.id)
            suggestions = sample_suggestions(matches, cfg.k, cfg.pool_size, rng)
        else:
            suggestions = matches
        yield AugmentedExample(
            pair_id=pair.id,
            source=pair.source,
            reference=pair.target,
            suggestions=tuple(suggestions),
            flat_input=flatten_input(pair.source, suggestions, cfg.separator),
        )


def write_augmented(
    examples: Iterable[AugmentedExample], prefix: str | Path
) -> tuple[Path, Path, Path]:
    """Write ``<prefix>.jsonl`` plus the aligned flat-input and reference files."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    jsonl_path = prefix.with_name(prefix.name + ".jsonl")
    flat_path = prefix.with_name(prefix.name + ".flat.txt")
    ref_path = prefix.with_name(prefix.name + ".ref.txt")
    examples = list(examples)
    with atomic_write(jsonl_path) as fh:
        for example in examples:
            record = {
                "id": example.pair_id,
                "src": example.source,
                "ref": example.reference,
                "suggestions": [
                    {"id": m.pair_id, "rank": m.rank, "score": m.score, "tgt": m.target}
                    for m in example.suggestions
                ],
                "flat": example.flat_input,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    write_lines((e.flat_input for e in examples), flat_path)
    write_lines((e.reference for e in examples), ref_path)
    return jsonl_path, flat_path, ref_path


def _example_from_record(record: dict) -> AugmentedExample:
    suggestions = tuple(
        FuzzyMatch(
            pair_id=s["id"],
            score=s["score"],
            rank=s["rank"],
            source="",
            target=s["tgt"],
            domain="",
        )
        for s in record["suggestions"]
    )
    return AugmentedExample(
        pair_id=record["id"],
        source=record["src"],
        reference=record["ref"],
        suggestions=suggestions,
        flat_input=record["flat"],
    )


def read_augmented(path: str | Path) -> list[AugmentedExample]:
    """Load augmented examples back from a JSONL file.

    The record format stores only (id, rank, score, tgt) per suggestion, so
    reconstructed matches carry empty source and domain fields. A line that
    is not a complete record raises a ValidationError naming path and line.
    """
    examples = []
    for lineno, line in text_lines(path, "augmented file"):
        if not line.strip():
            continue
        try:
            examples.append(_example_from_record(parse_json(line, path, lineno)))
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"{path}:{lineno}: malformed augmented record ({type(exc).__name__}: {exc})"
            ) from exc
    return examples
