"""Command-line front end.

Subcommands mirror the pipeline stages: ``index`` builds a BM25 index from a
corpus file, ``scenario`` builds a relevance-filtered index, ``augment``
attaches retrieved suggestions to a corpus, ``bleu``/``overlap``/``compare``
score outputs, ``run`` executes a whole manifest grid, and ``report``
rebuilds a run's report from the outcome record in each of its cell
directories, through the same code as ``run``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .augmentation import MODES, AugmentationConfig, augment_corpus, read_augmented, write_augmented
from .corpus import load_corpus, read_lines
from .errors import RatkitError, ValidationError
from .evaluation import BootstrapConfig, bleu_corpus, paired_bootstrap, suggestion_overlap
from .pipeline import load_manifest, report_experiment, run_experiment
from .retrieval import Bm25Params, build_index, load_index, save_index
from .scenarios import build_scenario, scenario_name, write_scenario_sidecar


def _format_bleu(score) -> str:
    precisions = "/".join(f"{100.0 * p:.1f}" for p in score.precisions)
    return (
        f"BLEU = {score.score:.2f} {precisions} "
        f"(BP = {score.brevity_penalty:.3f} hyp_len = {score.hyp_length} "
        f"ref_len = {score.ref_length})"
    )


def _cmd_index(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index(corpus, Bm25Params(k1=args.k1, b=args.b))
    save_index(index, args.out)
    print(
        f"indexed {index.doc_count} pairs, {len(index.term_rows)} terms, "
        f"avg doc length {index.avg_doc_length:.2f} -> {args.out}"
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    relevance = scenario_name(args.relevance)
    tms = [load_corpus(Path(p)) for p in args.tms.split(",") if p]
    spec, index = build_scenario(args.test_domain, tms, relevance, Bm25Params(args.k1, args.b))
    save_index(index, args.out)
    sidecar = write_scenario_sidecar(spec, args.out)
    print(
        f"{relevance} scenario for {args.test_domain!r}: {index.doc_count} pairs from "
        f"domains {sorted(spec.resolved_domains)} -> {args.out} (sidecar {sidecar})"
    )
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    corpus = load_corpus(args.corpus)
    config = AugmentationConfig(
        k=args.k,
        pool_size=args.pool,
        mode=args.mode,
        seed=args.seed,
        exclude_self=args.exclude_self,
        separator=args.separator,
    )
    paths = write_augmented(augment_corpus(corpus, index, config), args.out)
    print(f"augmented {len(corpus)} examples -> " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_bleu(args: argparse.Namespace) -> int:
    hyps, refs = read_lines(args.hyp), read_lines(args.ref)
    if len(hyps) != len(refs):
        raise ValidationError(f"--hyp {args.hyp} has {len(hyps)} lines; --ref {args.ref} has {len(refs)}")
    score = bleu_corpus(hyps, refs)
    print(_format_bleu(score))
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    examples, hyps = read_augmented(args.augmented), read_lines(args.hyp)
    if len(examples) != len(hyps):
        raise ValidationError(
            f"--augmented {args.augmented} has {len(examples)} records; --hyp {args.hyp} has {len(hyps)} lines"
        )
    result = suggestion_overlap(examples, hyps, counting=args.counting, average=args.average)
    skipped = sum(1 for f in result.fractions if f is None)
    if result.mean_pct is None:
        print(f"overlap undefined: all {len(examples)} sentences lack suggestion tokens")
    else:
        print(
            f"overlap = {result.mean_pct:.2f}% over {len(examples) - skipped} sentences "
            f"({skipped} skipped)"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    refs = read_lines(args.ref)
    hyps = {}
    for flag, path in (("--hyp-a", args.hyp_a), ("--hyp-b", args.hyp_b)):
        hyps[flag] = read_lines(path)
        if len(hyps[flag]) != len(refs):
            raise ValidationError(f"{flag} {path} has {len(hyps[flag])} lines; --ref {args.ref} has {len(refs)}")
    result = paired_bootstrap(
        bleu_corpus(hyps["--hyp-a"], refs),
        bleu_corpus(hyps["--hyp-b"], refs),
        n_samples=args.bootstrap,
        threshold=args.p_thresh,
        seed=args.seed,
    )
    verdict = "significant" if result.significant else "not significant"
    print(
        f"delta = {result.observed_delta:+.4f} p = {result.p_value:.4f} "
        f"(wins_a = {result.wins_a}, wins_b = {result.wins_b}, ties = {result.ties}, "
        f"n = {result.n_samples}): {verdict} at {args.p_thresh}"
    )
    return 0


def _summary(report, out_dir: Path) -> int:
    print(f"{len(report.cells)} cells completed, {len(report.failed)} failed -> {out_dir}")
    for key, error in sorted(report.failed.items()):
        print(f"failed {key}: {error}", file=sys.stderr)
    return 0 if not report.failed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    return _summary(report_experiment(manifest), manifest.out_dir)


def _cmd_run(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    return _summary(run_experiment(manifest, workers=args.workers), manifest.out_dir)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratkit",
        description="Retrieval-augmented translation toolkit: fuzzy-match "
        "retrieval, suggestion augmentation, and BLEU evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build a BM25 index from a corpus file")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k1", type=float, default=Bm25Params.k1)
    p.add_argument("--b", type=float, default=Bm25Params.b)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("scenario", help="build a relevance-filtered scenario index")
    p.add_argument("--test-domain", required=True)
    p.add_argument("--relevance", required=True, help="the scenario: relevant or less_relevant")
    p.add_argument("--tms", required=True, help="comma-separated corpus files")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k1", type=float, default=Bm25Params.k1)
    p.add_argument("--b", type=float, default=Bm25Params.b)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("augment", help="attach retrieved suggestions to a corpus")
    p.add_argument("--index", required=True, type=Path)
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--mode", choices=list(MODES), default=AugmentationConfig.mode)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--pool", type=int, default=AugmentationConfig.pool_size)
    p.add_argument("--seed", type=int, default=AugmentationConfig.seed)
    p.add_argument("--separator", default=AugmentationConfig.separator)
    p.add_argument(
        "--exclude-self", action=argparse.BooleanOptionalAction, default=AugmentationConfig.exclude_self
    )
    p.add_argument("--out", required=True, type=Path, help="output path prefix")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference file")
    p.add_argument("--hyp", required=True, type=Path)
    p.add_argument("--ref", required=True, type=Path)
    p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("overlap", help="suggestion token overlap of outputs")
    p.add_argument("--augmented", required=True, type=Path)
    p.add_argument("--hyp", required=True, type=Path)
    p.add_argument("--counting", choices=["type", "clipped"], default="type")
    p.add_argument("--average", choices=["sentence", "corpus"], default="sentence")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("compare", help="paired bootstrap significance between two systems")
    p.add_argument("--hyp-a", required=True, type=Path)
    p.add_argument("--hyp-b", required=True, type=Path)
    p.add_argument("--ref", required=True, type=Path)
    p.add_argument("--bootstrap", type=int, default=BootstrapConfig.n_samples)
    p.add_argument("--p-thresh", type=float, default=BootstrapConfig.threshold)
    p.add_argument("--seed", type=int, default=BootstrapConfig.seed)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="rebuild a run's report from its cell directories")
    p.add_argument("--manifest", required=True, type=Path)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="run a full experiment manifest")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run up to N (domain, scenario) groups at once, each with all of its cells, in "
        "forked processes; outputs are byte-identical for any N (default: 1)",
    )
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RatkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
