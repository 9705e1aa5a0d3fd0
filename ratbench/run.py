"""The ratkit benchmark: seeded workloads, end-to-end metrics, correctness gates.

Run from the repository root:

    python3 ratbench/run.py --workload grid_dense --seed 1 --seconds 20 --trace 0

Each run generates its inputs from --seed (ratbench/gen.py), then repeats the
workload in a fresh worker process per repetition (ratbench/worker.py) until
--seconds have passed: a closed loop with one client. ratkit is imported from
./src. After the loop every repetition's outputs go through the correctness
gates (ratbench/oracle.py). Each repetition runs under its own PYTHONHASHSEED,
drawn here and recorded; repetition 0 is then replayed, untimed, under its
hash seed, and its report.json, suggestions and scores must match byte for
byte.

Workloads, and why each was chosen:

* grid_dense: ``run_experiment`` as ``ratkit run`` drives it, at workers=2,
  over 3 domains x k in {1, 3} x {relevant, less_relevant} with the dense
  vocabulary. Retrieval over long postings dominates; it is the only
  workload with several k values and with workers > 1.
* augment_zipf: the training-data path on a natural Zipf vocabulary. Set-up
  is ``ratkit index`` (load_corpus, build_index, save_index); the main call
  is ``ratkit augment --mode shuffle --exclude-self --k 3 --pool 10``
  (load_index, load_corpus, augment_corpus, write_augmented). The only
  workload that reads an index from disk, and it runs no evaluation.
* grid_eval: ``run_experiment`` at workers=1 on small TMs and long test sets,
  so evaluation (bootstrap, BLEU, overlap) dominates and retrieval does not.

With --trace 0 the last line of stdout is the result with the end-to-end
metrics (medians over repetitions). With --trace 1 repetitions alternate
between untraced and traced, and the result holds the per-layer metrics from
the traced ones plus the tracing overhead. The line before it is a record of
the environment, input properties, sample counts, gates and digests. Load
timings are taken with a warm page cache: the benchmark does not drop it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 120
MIN_REPEATS = 3  # per kind of repetition (untraced, traced)
# Grid set-up is only an import and a manifest load (~0.15 s), so each
# untraced grid repetition is preceded by this many set-up-only workers.
GRID_SETUP_SAMPLES = 2
# Hash seeds vary between repetitions, as they would between user runs, but
# are drawn here so that any repetition can be replayed exactly.
_HASH_SEEDS = random.SystemRandom()

END_TO_END = {"setup_s": "s", "run_s": "s", "sent_per_s": "1/s", "peak_rss_mb": "MB"}


def _git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _sentence_cells(inputs: gen.Inputs) -> int:
    """Sentences processed by one main call: test sentences x cells, or queries."""
    p = inputs.params
    if p["kind"] == "augment":
        return len(inputs.queries)
    return sum(len(t) for t in inputs.tests.values()) * len(p["k_values"]) * 2


def _repeat(
    label: str,
    traced: bool,
    inputs: gen.Inputs,
    seed: int,
    work: Path,
    src: Path,
    env: dict,
    setup_only: bool = False,
    hash_seed: str | None = None,
) -> dict:
    """One worker process, under the given PYTHONHASHSEED or a freshly drawn one (recorded)."""
    p = inputs.params
    data = work / "data"
    spec = {"kind": p["kind"], "src": str(src), "trace": traced, "setup_only": setup_only}
    if p["kind"] == "grid":
        out_dir = data / f"out{label}"
        spec.update(manifest=str(gen.write_manifest(inputs, data, f"out{label}", seed)), workers=p["workers"])
    else:
        out_dir = work / f"out{label}"
        spec.update(data_dir=str(data), out_dir=str(out_dir), k=p["k"], pool=p["pool"], seed=seed)
    hash_seed = hash_seed or str(_HASH_SEEDS.randrange(1, 2**32))
    spec_path, result_path = work / f"spec{label}.json", work / f"result{label}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env={**env, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {label} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(traced=traced, out_dir=out_dir, hash_seed=hash_seed)
    return result


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    return {"median": q[1], "p25": q[0], "p75": q[2], "samples": len(values), "values": values}


def measure(args: argparse.Namespace, root: Path, work: Path) -> int:
    src = root / "src"
    t0 = time.perf_counter()
    inputs = gen.generate(args.workload, args.seed)
    gen.write_inputs(inputs, work / "data")
    gates = oracle.Gates(inputs, args.seed)
    kind = inputs.params["kind"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Untimed warm-up: byte-compile ratkit as an installed package has it
    # (even under PYTHONDONTWRITEBYTECODE) and load it once into the page cache.
    warm_up = "import compileall, sys; compileall.compile_dir(sys.argv[1], quiet=1); import ratkit"
    subprocess.run(
        [sys.executable, "-c", warm_up, str(src / "ratkit")], env=env, check=True, timeout=WORKER_TIMEOUT_S
    )
    prepare_s = time.perf_counter() - t0

    repeats, setup_samples = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced = sum(not r["traced"] for r in repeats)
        traced_n = len(repeats) - untraced
        if time.perf_counter() >= deadline and untraced >= MIN_REPEATS and (not args.trace or traced_n >= MIN_REPEATS):
            break
        i = len(repeats)
        traced = bool(args.trace) and i % 2 == 1
        if kind == "grid" and not traced:
            for j in range(GRID_SETUP_SAMPLES):
                extra = _repeat(f"{i}s{j}", False, inputs, args.seed, work, src, env, setup_only=True)
                setup_samples.append(extra["setup_s"])
        repeats.append(_repeat(str(i), traced, inputs, args.seed, work, src, env))

    problems, digests, flips = [], [], 0
    for r in repeats:
        problems += gates.check(r["out_dir"])
        digests.append(oracle.digests(r["out_dir"], kind))
        r_flips, r_problems = oracle.tie_flips(repeats[0]["out_dir"], r["out_dir"], kind)
        problems += r_problems
        flips += r_flips
    # Replay repetition 0, untimed, under its hash seed: its outputs
    # (report.json, suggestions, scores) must match byte for byte. Across
    # hash seeds they may differ by near-tie swaps (tie_flips, reported).
    replay = _repeat("replay", False, inputs, args.seed, work, src, env, hash_seed=repeats[0]["hash_seed"])
    replay_digests = oracle.digests(replay["out_dir"], kind)
    for key, value in replay_digests.items():
        if value != digests[0][key]:
            problems.append(f"{key} differs when repetition 0 is replayed with PYTHONHASHSEED={replay['hash_seed']}")

    plain = [r for r in repeats if not r["traced"]]
    sentences = _sentence_cells(inputs)
    samples = {
        "setup_s": [r["setup_s"] for r in plain] + setup_samples,
        "run_s": [r["run_s"] for r in plain],
        "sent_per_s": [sentences / r["run_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": repeats[0]["numpy"],
            "git": _git_state(root),
            "pythonhashseed": "drawn at random per repetition; see hash_seeds",
            "page_cache": "warm: not dropped before timing, so load timings are warm-cache",
        },
        "hash_seeds": [r["hash_seed"] for r in repeats],
        "inputs": inputs.properties(),
        "prepare_s": prepare_s,
        "end_to_end": {name: {**_quartiles(v), "unit": END_TO_END[name]} for name, v in samples.items()},
        "failed_frac": failed / attempted,
        "gates": {"passed": not problems, "problems": problems[:20]},
        "digests": digests[0],
        "digests_agreed": {key: len({d[key] for d in digests}) == 1 for key in digests[0]},
        "tie_flips": flips,
    }

    if args.trace:
        pools = {name: gen.document_frequencies(p.src for p in docs) for name, docs in inputs.pools().items()}
        per_repeat, latencies = [], []
        for r in repeats:
            if r["traced"]:
                layers, lat = spans.layer_metrics(r["spans"], kind, pools, sentences)
                per_repeat.append(layers)
                latencies += lat
        traced_run = statistics.median(r["run_s"] for r in repeats if r["traced"])
        cuts = statistics.quantiles(latencies, n=100)
        values = {name: statistics.median(m[name] for m in per_repeat) for name in per_repeat[0]}
        values.update(
            {
                "retrieval.query_top_n.p50_ms": cuts[49],
                "retrieval.query_top_n.p99_ms": cuts[98],
                "trace.overhead_frac": traced_run / statistics.median(samples["run_s"]) - 1.0,
            }
        )
        record["per_layer_samples"] = {"repetitions": len(per_repeat), "query_latencies": len(latencies)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": record["end_to_end"][name]["median"], "unit": unit} for name, unit in END_TO_END.items()
        }

    correct = not problems
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ratkit" / "__init__.py").is_file():
        print("ratbench: no ratkit sources at ./src/ratkit; run from the repository root", file=sys.stderr)
        return 2
    scratch = root / ".ratbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        return measure(args, root, work)
    except (RuntimeError, subprocess.SubprocessError, spans.LayerMissing) as exc:
        print(f"ratbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
