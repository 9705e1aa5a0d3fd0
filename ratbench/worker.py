"""One timed repetition of a workload, in a fresh process.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec names the workload kind, its generated data directory and an output
directory. The worker imports ratkit (from PYTHONPATH, set by run.py), does
the workload's set-up, then its main call, and writes timings, peak RSS and,
when tracing, the recorded spans to RESULT_JSON. A grid spec with
"setup_only" stops after the set-up (import ratkit, load_manifest), which
gives the short grid set-up more samples.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _grid(spec: dict) -> dict:
    from ratkit import pipeline

    manifest = pipeline.load_manifest(spec["manifest"])
    t_setup = time.perf_counter()
    if spec.get("setup_only"):
        return {"setup_end": t_setup, "run_end": t_setup, "attempted": 0, "failed": 0}
    report = pipeline.run_experiment(manifest, workers=spec["workers"])
    t_run = time.perf_counter()
    cells = len(manifest.domains) * len(manifest.k_values) * len(manifest.scenarios)
    return {"setup_end": t_setup, "run_end": t_run, "attempted": cells, "failed": len(report.failed)}


def _augment(spec: dict) -> dict:
    from ratkit import augmentation, corpus, retrieval

    data, out = Path(spec["data_dir"]), Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    index_path = out / "tm.idx"
    # Set-up, as `ratkit index`: load the TM, index it, save the index.
    tm = corpus.load_corpus(data / "tm.jsonl")
    retrieval.save_index(retrieval.build_index(tm), index_path)
    del tm  # the CLI runs index and augment in separate processes
    t_setup = time.perf_counter()
    # Main call, as `ratkit augment --mode shuffle --exclude-self`.
    index = retrieval.load_index(index_path)
    queries = corpus.load_corpus(data / "queries.jsonl")
    cfg = augmentation.AugmentationConfig(
        k=spec["k"], pool_size=spec["pool"], mode="shuffle", seed=spec["seed"], exclude_self=True
    )
    examples = list(augmentation.augment_corpus(queries, index, cfg))
    augmentation.write_augmented(examples, out / "augmented")
    t_run = time.perf_counter()
    return {
        "setup_end": t_setup,
        "run_end": t_run,
        "attempted": len(queries),
        "failed": len(queries) - len(examples),
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t_start = time.perf_counter()
    import numpy
    import ratkit

    if not Path(ratkit.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"ratkit imported from {ratkit.__file__}, not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, spec["kind"])
    outcome = _grid(spec) if spec["kind"] == "grid" else _augment(spec)
    result = {
        "setup_s": outcome["setup_end"] - t_start,
        "run_s": outcome["run_end"] - outcome["setup_end"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "numpy": numpy.__version__,
        "spans": tracer.spans if tracer else None,
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
