"""In-memory inverted index with Okapi BM25 scoring over TM source sentences.

The variant is the Lucene-style Okapi formulation:

    idf(t)        = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(q, d)   = sum over distinct query terms t of
                    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Duplicate query terms contribute once (set semantics), and the sum runs over
the terms in sorted order, so every score is the same float in every process
whatever its ``PYTHONHASHSEED``. The idf is strictly positive for every df in
[0, N], so exactly the documents sharing at least one term with the query
receive a positive score; zero-score documents are never returned. Ties are
broken by ascending pair id so result lists are fully deterministic.

An index holds the TM's pairs, the postings and the BM25 parameters. The
document lengths, their mean and each document's length norm are derived from
the postings once, when the index is constructed; the index file stores none
of them. An index must be treated as immutable; queries share no mutable
state and are safe to run concurrently.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .corpus import SentencePair, TranslationMemory, analyze_for_index
from .errors import ValidationError

INDEX_MAGIC = b"RATIDX2\0"


@dataclass(frozen=True)
class Bm25Params:
    """Okapi BM25 free parameters: term-frequency saturation and length normalization."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.k1 < math.inf:
            raise ValidationError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class FuzzyMatch:
    """One retrieval result; ``target`` is the translation suggestion."""

    pair_id: str
    score: float
    rank: int
    source: str
    target: str
    domain: str


class TmIndex:
    """Immutable inverted index with BM25 statistics over a translation memory.

    Attributes:
        pairs: the indexed sentence pairs; a doc id is a position in ``pairs``.
        postings: term -> list of (doc, tf), docs ascending.
        params: the BM25 parameters.
        doc_count: number of indexed documents N.
        doc_lengths: per-doc length in analyzed terms, the sum of its tfs.
        avg_doc_length: mean of ``doc_lengths``.
        norms: per-doc length norm ``k1 * (1 - b + b * dl / avgdl)``.
    """

    def __init__(
        self,
        pairs: tuple[SentencePair, ...],
        postings: dict[str, list[tuple[int, int]]],
        params: Bm25Params,
    ):
        doc_lengths = [0] * len(pairs)
        for plist in postings.values():
            for doc, tf in plist:
                doc_lengths[doc] += tf
        if 0 in doc_lengths:
            pair = pairs[doc_lengths.index(0)]
            raise ValidationError(
                f"pair {pair.id!r} has no postings; a source without terms cannot be indexed"
            )
        self.pairs = pairs
        self.postings = postings
        self.params = params
        self.doc_count = len(pairs)
        self.doc_lengths = doc_lengths
        self.avg_doc_length = sum(doc_lengths) / len(doc_lengths)
        k1, b = params.k1, params.b
        self.norms = [k1 * (1.0 - b + b * dl / self.avg_doc_length) for dl in doc_lengths]
        self._pairs_by_source: dict[str, list[str]] = {}
        for pair in pairs:
            self._pairs_by_source.setdefault(pair.source, []).append(pair.id)

    def pairs_with_source(self, source: str) -> list[str]:
        """Pair ids of indexed documents whose raw source text equals ``source``."""
        return self._pairs_by_source.get(source, [])


def build_index(tm: TranslationMemory, params: Bm25Params = Bm25Params()) -> TmIndex:
    """Index ``analyze_for_index(pair.source)`` for every pair of the TM."""
    postings: dict[str, list[tuple[int, int]]] = {}
    for doc, pair in enumerate(tm.pairs):
        counts: dict[str, int] = {}
        for term in analyze_for_index(pair.source):
            counts[term] = counts.get(term, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc, tf))
    return TmIndex(tm.pairs, postings, params)


def query_top_n(
    index: TmIndex,
    query_text: str,
    n: int,
    exclusions: frozenset[str] | set[str] = frozenset(),
) -> list[FuzzyMatch]:
    """The up-to-n best fuzzy matches for a query sentence.

    Only documents with positive score are returned; pair ids listed in
    ``exclusions`` are dropped before ranking. Ranks run 1..m with
    non-increasing scores, ties broken by ascending pair id.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    k1 = index.params.k1
    norms, pairs = index.norms, index.pairs
    scores: dict[int, float] = {}
    for term in sorted(set(analyze_for_index(query_text))):
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        term_idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        for doc, tf in plist:
            scores[doc] = scores.get(doc, 0.0) + term_idf * tf * (k1 + 1.0) / (tf + norms[doc])

    candidates = [
        (-score, pairs[doc].id, doc)
        for doc, score in scores.items()
        if score > 0.0 and pairs[doc].id not in exclusions
    ]
    candidates.sort()
    matches = []
    for rank, (neg_score, pair_id, doc) in enumerate(candidates[:n], start=1):
        pair = pairs[doc]
        matches.append(
            FuzzyMatch(
                pair_id=pair_id,
                score=-neg_score,
                rank=rank,
                source=pair.source,
                target=pair.target,
                domain=pair.domain,
            )
        )
    return matches


# --- binary persistence ------------------------------------------------------
#
# Layout (little-endian throughout; see docs/index-format.md):
#   magic           8 bytes  b"RATIDX2\0"
#   k1, b           2 x f64
#   doc_count       u64
#   per doc (doc_count times, in doc-id order):
#       pair_id, domain, source, target   4 x (u32 byte length + UTF-8 bytes)
#   term_count      u64
#   per term (sorted by codepoint, ascending):
#       term                              u32 byte length + UTF-8 bytes
#       postings_count                    u64
#       (doc u32, tf u32) x postings_count
#   sha256          32 bytes, the digest of every byte before it
#
# Terms are written in sorted order and postings in ascending doc order, so
# save -> load -> save reproduces the file byte for byte.


def _str_bytes(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise ValidationError(f"{self.path}: truncated index file")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        start = self.pos + 4
        end = start + int.from_bytes(self.data[self.pos : start], "little")
        if end > len(self.data):  # also when fewer than 4 length bytes remain
            raise ValidationError(f"{self.path}: truncated index file")
        self.pos = end
        try:
            return self.data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{self.path}: stored text is not UTF-8 ({exc})") from exc


def save_index(index: TmIndex, path: str | Path) -> None:
    """Serialize an index to the versioned binary container format."""
    digest = hashlib.sha256()
    with open(path, "wb") as out:

        def write(data: bytes) -> None:
            digest.update(data)
            out.write(data)

        write(INDEX_MAGIC + struct.pack("<ddQ", index.params.k1, index.params.b, index.doc_count))
        for pair in index.pairs:
            write(b"".join(map(_str_bytes, (pair.id, pair.domain, pair.source, pair.target))))
        write(struct.pack("<Q", len(index.postings)))
        for term in sorted(index.postings):
            plist = index.postings[term]
            write(_str_bytes(term))
            write(struct.pack(f"<Q{2 * len(plist)}I", len(plist), *chain.from_iterable(plist)))
        out.write(digest.digest())


def load_index(path: str | Path) -> TmIndex:
    """Load an index previously written by :func:`save_index`.

    A file that is not a well-formed v2 index (a v1 file, a bad magic or
    checksum, truncation, trailing bytes, text that is not UTF-8, invalid
    pairs or postings; see docs/index-format.md) raises a ValidationError
    naming it.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read index file {path}: {exc}") from exc
    if data.startswith(b"RATIDX1\0"):
        raise ValidationError(
            f"{path}: index format v1 is no longer supported; rebuild the index "
            "with `ratkit index` or `ratkit scenario`"
        )
    reader = _Reader(data, str(path))
    magic = reader.unpack("<8s")[0]
    if magic != INDEX_MAGIC:
        raise ValidationError(f"{path}: not a ratkit index file (bad magic {magic!r})")
    k1, b, doc_count = reader.unpack("<ddQ")
    fields = [[reader.read_str() for _ in range(4)] for _ in range(doc_count)]
    (term_count,) = reader.unpack("<Q")
    postings: dict[str, list[tuple[int, int]]] = {}
    previous = None
    for _ in range(term_count):
        term = reader.read_str()
        if previous is not None and term <= previous:
            raise ValidationError(f"{path}: term {term!r} is out of sorted order")
        previous = term
        (count,) = reader.unpack("<Q")
        flat = struct.unpack(f"<{2 * count}I", reader.take(8 * count))
        docs, tfs = flat[0::2], flat[1::2]
        if not docs or min(tfs) < 1 or docs[-1] >= doc_count or docs != tuple(sorted(set(docs))):
            raise ValidationError(
                f"{path}: postings of term {term!r} must be non-empty, with tf >= 1 and "
                f"doc ids strictly ascending below doc_count {doc_count}"
            )
        postings[term] = list(zip(docs, tfs))
    payload_end = reader.pos
    digest = reader.take(32)
    if reader.pos != len(data):
        raise ValidationError(f"{path}: trailing bytes after index payload")
    if hashlib.sha256(memoryview(data)[:payload_end]).digest() != digest:
        raise ValidationError(f"{path}: checksum mismatch; the index file is corrupt")
    try:
        pairs = tuple(
            SentencePair(id=pair_id, domain=domain, source=source, target=target)
            for pair_id, domain, source, target in fields
        )
        tm = TranslationMemory(name=path.name, pairs=pairs)
        return TmIndex(tm.pairs, postings, Bm25Params(k1=k1, b=b))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
