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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import TranslationMemory, atomic_write, make_dirs, parse_json, text_lines, write_lines
from .corpus import _json_str  # the string encoder of json.dumps
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
    # exclude_self keeps out a pair's own id and every indexed pair with its
    # source; only the sources of ``tm`` are looked up in the index.
    ids_by_source: dict[str, list[str]] = {}
    if cfg.exclude_self:
        ids_by_source = {pair.source: [] for pair in tm.pairs}
        for indexed in index.pairs:
            ids = ids_by_source.get(indexed.source)
            if ids is not None:
                ids.append(indexed.id)
    for pair in tm.pairs:
        exclusions = {pair.id, *ids_by_source[pair.source]} if cfg.exclude_self else set()
        matches = query_top_n(index, pair.source, n, exclusions)
        yield _select(pair.id, pair.source, pair.target, matches, cfg)


def _select(
    pair_id: str,
    source: str,
    reference: str,
    matches: Sequence[FuzzyMatch],
    cfg: AugmentationConfig,
) -> AugmentedExample:
    """The example ``cfg`` makes of one pair from its retrieved ``matches``.

    topk keeps the first k matches. shuffle draws k of the first
    ``pool_size`` uniformly without replacement (all of them when the pool
    holds fewer), from ``derived_rng(cfg.seed, pair_id)``, and returns them
    in rank order. The flat input is ``source SEP target1 SEP target2 ...`` joined
    by single spaces.

    ``matches`` is a query's result at ``n = pool_size`` (shuffle) or at any
    ``n >= k`` (topk): a query at a larger n returns a longer list with the
    same prefix, so one query at the widest setting serves every k.
    """
    if cfg.mode == "shuffle":
        pool = matches[: cfg.pool_size]
        suggestions = derived_rng(cfg.seed, pair_id).sample(pool, min(cfg.k, len(pool)))
        suggestions.sort(key=lambda match: match.rank)
    else:
        suggestions = matches[: cfg.k]
    parts = [source]
    for match in suggestions:
        parts += (cfg.separator, match.target)
    return AugmentedExample(
        pair_id=pair_id,
        source=source,
        reference=reference,
        suggestions=tuple(suggestions),
        flat_input=" ".join(parts),
    )


def write_augmented(
    examples: Iterable[AugmentedExample], prefix: str | Path
) -> tuple[Path, Path, Path]:
    """Write ``<prefix>.jsonl`` plus the aligned flat-input and reference files."""
    prefix = Path(prefix)
    make_dirs(prefix.parent)
    jsonl_path = prefix.with_name(prefix.name + ".jsonl")
    flat_path = prefix.with_name(prefix.name + ".flat.txt")
    ref_path = prefix.with_name(prefix.name + ".ref.txt")
    examples = list(examples)
    with atomic_write(jsonl_path) as fh:
        fh.writelines(map(_augmented_line, examples))
    write_lines((e.flat_input for e in examples), flat_path)
    write_lines((e.reference for e in examples), ref_path)
    return jsonl_path, flat_path, ref_path


def _json_scalar(value) -> str:
    """``json.dumps(value, ensure_ascii=False)`` for a str, int or float field.

    A str goes through the encoder json.dumps uses, and an int or a finite
    float is its repr, as json.dumps writes them. Anything else, such as NaN
    or a bool, is left to json.dumps, which also raises for what JSON cannot
    encode.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


def _augmented_line(example: AugmentedExample) -> str:
    """One JSONL record line, newline included: the bytes of ``json.dumps(record,
    ensure_ascii=False)`` for the record that :func:`read_augmented` reads back."""
    suggestions = ", ".join(
        f'{{"id": {_json_scalar(m.pair_id)}, "rank": {_json_scalar(m.rank)}, '
        f'"score": {_json_scalar(m.score)}, "tgt": {_json_scalar(m.target)}}}'
        for m in example.suggestions
    )
    return (
        f'{{"id": {_json_scalar(example.pair_id)}, "src": {_json_scalar(example.source)}, '
        f'"ref": {_json_scalar(example.reference)}, "suggestions": [{suggestions}], '
        f'"flat": {_json_scalar(example.flat_input)}}}\n'
    )


_JSON_TYPES = {
    str: "a string", int: "an integer", float: "a finite number", list: "a list", dict: "an object"
}


def _checked(value, kind: type, name: str):
    """``value`` if it has the JSON type ``kind``, else a TypeError naming it.

    A bool is not an integer, and a finite number may be an int or a float.
    """
    kinds = (int, float) if kind is float else (kind,)
    if type(value) not in kinds or (type(value) is float and not math.isfinite(value)):
        raise TypeError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _example_from_record(record) -> AugmentedExample:
    """The example of a record, each field of the type :func:`_augmented_line` writes."""
    record = _checked(record, dict, "the record")
    texts = [_checked(record[key], str, f"field {key!r}") for key in ("id", "src", "ref")]
    suggestions = []
    for i, s in enumerate(_checked(record["suggestions"], list, "field 'suggestions'")):
        s = _checked(s, dict, f"field 'suggestions[{i}]'")
        pair_id, score, rank, target = (
            _checked(s[key], kind, f"field 'suggestions[{i}].{key}'")
            for key, kind in (("id", str), ("score", float), ("rank", int), ("tgt", str))
        )
        suggestions.append(FuzzyMatch(pair_id, score, rank, source="", target=target, domain=""))
    flat_input = _checked(record["flat"], str, "field 'flat'")
    return AugmentedExample(*texts, suggestions=tuple(suggestions), flat_input=flat_input)


def read_augmented(path: str | Path) -> list[AugmentedExample]:
    """Load augmented examples back from a JSONL file.

    The record format stores only (id, rank, score, tgt) per suggestion, so
    reconstructed matches carry empty source and domain fields. A line that
    is not a complete record, or holds a field of another JSON type than
    :func:`_augmented_line` writes, raises a ValidationError naming path and line.
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
