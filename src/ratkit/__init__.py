"""Retrieval-augmented translation toolkit.

Builds BM25 fuzzy-match indexes over translation memories, augments corpora
with retrieved suggestions (top-k or shuffled sampling from a larger pool),
constructs relevant / less-relevant TM scenarios, and evaluates outputs with
corpus BLEU, suggestion-usage overlap, and paired bootstrap significance.

The package root exports the README's Python API and the error types;
everything else is imported from its submodule (``ratkit.pipeline``,
``ratkit.retrieval``, ...).
"""

from __future__ import annotations

from .augmentation import AugmentationConfig, augment_corpus
from .corpus import load_corpus
from .errors import (
    ConfigurationError,
    CorpusFormatError,
    RatkitError,
    TranslatorError,
    ValidationError,
)
from .evaluation import bleu_corpus, paired_bootstrap, suggestion_overlap
from .retrieval import Bm25Params, build_index, query_top_n
from .scenarios import build_scenario

__version__ = "0.1.0"

__all__ = [
    "AugmentationConfig",
    "Bm25Params",
    "ConfigurationError",
    "CorpusFormatError",
    "RatkitError",
    "TranslatorError",
    "ValidationError",
    "augment_corpus",
    "bleu_corpus",
    "build_index",
    "build_scenario",
    "load_corpus",
    "paired_bootstrap",
    "query_top_n",
    "suggestion_overlap",
]
