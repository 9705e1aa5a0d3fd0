"""End-to-end experiment runner: index, scenario, augment, translate, evaluate.

The translator boundary is file-based: flat inputs go to a temp file, an
external command produces line-aligned outputs, and misalignment is an error.
Built-in baseline translators (passthrough, copy_first, oracle_copy) make the
grid runnable without any model; oracle_copy emulates a maximally
suggestion-reliant system so that scenario quality differences show up in
BLEU without training anything.

Grid cells are independent: each gets its own artifact subdirectory with one
outcome record, and a failure never aborts the rest. report.json, which
``report_experiment`` rebuilds from those directories, is byte-stable for fixed seeds.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

from .augmentation import AugmentationConfig, AugmentedExample, augment_corpus, write_augmented
from .augmentation import _select, read_augmented
from .corpus import TranslationMemory, atomic_write, load_corpus, parse_json, read_lines, text_lines
from .corpus import _tokens_13a, make_dirs, write_lines
from .errors import ConfigurationError, CorpusFormatError, RatkitError, TranslatorError, ValidationError
from .evaluation import (
    BootstrapConfig,
    CellResult,
    EvalReport,
    GroupAverage,
    SignificanceResult,
    bleu_corpus,
    paired_bootstrap,
    report_to_markdown,
    suggestion_overlap,
)
from .retrieval import Bm25Params, TmIndex, save_index
from .scenarios import RELEVANCES, ScenarioSpec, build_pool, build_scenario, validate_scenario
from .scenarios import write_scenario_sidecar
from .seeding import derive_seed

_TRANSLATOR_KINDS = (
    "external_command",
    "baseline_passthrough",
    "baseline_copy_first",
    "baseline_oracle_copy",
)

_INPUT_PLACEHOLDER = "{input}"
_OUTPUT_PLACEHOLDER = "{output}"


@dataclass(frozen=True)
class TranslatorSpec:
    """How to turn flat augmented inputs into output translations.

    ``external_command`` runs a shell command template whose {input} and
    {output} placeholders are replaced with temp file paths; the command must
    write exactly one output line per input line. The baseline kinds are pure
    functions of the examples and need no subprocess.
    """

    kind: str
    command: str | None = None
    timeout: float = 300.0

    def __post_init__(self) -> None:
        if self.kind not in _TRANSLATOR_KINDS:
            raise ConfigurationError(
                f"unknown translator kind {self.kind!r}; expected one of {_TRANSLATOR_KINDS}"
            )
        if self.kind == "external_command":
            if not self.command or not self.command.strip():
                raise ConfigurationError("external_command requires a command template")
            if _INPUT_PLACEHOLDER not in self.command or _OUTPUT_PLACEHOLDER not in self.command:
                raise ConfigurationError(
                    "command template must contain both {input} and {output} placeholders"
                )
        if not 0 < self.timeout < math.inf:
            raise ConfigurationError(f"timeout must be positive and finite, got {self.timeout}")


def _oracle_pick(example: AugmentedExample) -> str:
    reference_types = set(_tokens_13a(example.reference))

    def containment(match) -> float:
        tokens = _tokens_13a(match.target)
        if not tokens:
            return 0.0
        return sum(map(reference_types.__contains__, tokens)) / len(tokens)

    best = max(example.suggestions, key=lambda m: (containment(m), -m.rank))
    return best.target


def _run_external(command: str, inputs: list[str], timeout: float) -> list[str]:
    # Imported here, so a run with a built-in translator never loads them.
    import shlex
    import signal
    import subprocess

    # Errors name the template and hide the temp directory, so a failed cell's
    # error text is the same in every run.
    with tempfile.TemporaryDirectory(prefix="ratkit-translate-") as tmp:
        in_path = Path(tmp) / "input.txt"
        out_path = Path(tmp) / "output.txt"
        write_lines(inputs, in_path)
        rendered = command.replace(_INPUT_PLACEHOLDER, shlex.quote(str(in_path)))
        rendered = rendered.replace(_OUTPUT_PLACEHOLDER, shlex.quote(str(out_path)))
        # A session of its own lets a timeout kill the shell's children too.
        proc = subprocess.Popen(
            rendered,
            shell=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",  # console output is never parsed; stderr feeds the error tail
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise TranslatorError(f"translator timed out after {timeout}s: {command}")
        if proc.returncode != 0:
            stderr = err.replace(tmp, "<tmp>").strip().splitlines()
            tail = " | ".join(stderr[-5:]) if stderr else "(no stderr)"
            raise TranslatorError(
                f"translator exited with code {proc.returncode}: {command}; stderr: {tail}"
            )
        if not out_path.exists():
            raise TranslatorError(f"translator produced no output file: {command}")
        try:
            outputs = read_lines(out_path)
        except ValidationError as exc:
            raise TranslatorError(f"translator output: {str(exc).replace(tmp, '<tmp>')}") from exc
    if len(outputs) != len(inputs):
        raise TranslatorError(
            f"translator output line count {len(outputs)} does not match input count {len(inputs)}"
        )
    return outputs


def translate(spec: TranslatorSpec, examples: list[AugmentedExample]) -> list[str]:
    """One output line per example, order preserved.

    passthrough copies the source; copy_first copies the first suggestion
    target (source when there are none); oracle_copy copies the suggestion
    whose 13a token types are best contained in the reference, breaking ties
    toward the lowest retrieval rank.
    """
    if not examples:
        raise TranslatorError("no examples to translate")
    if spec.kind == "baseline_passthrough":
        return [ex.source for ex in examples]
    if spec.kind == "baseline_copy_first":
        return [ex.suggestions[0].target if ex.suggestions else ex.source for ex in examples]
    if spec.kind == "baseline_oracle_copy":
        return [_oracle_pick(ex) if ex.suggestions else ex.source for ex in examples]
    assert spec.command is not None
    return _run_external(spec.command, [ex.flat_input for ex in examples], spec.timeout)


@dataclass(frozen=True)
class ExperimentManifest:
    """Declarative description of one experiment grid.

    ``tms`` are corpus files pooled into the scenario TMs; ``test_sets`` maps
    each test domain to its held-out corpus file. The grid is the cross
    product domains x k_values x scenarios, all run with one translator.
    ``augmentation`` holds the AugmentationConfig arguments other than k.
    """

    tms: tuple[Path, ...]
    test_sets: dict[str, Path]
    domains: tuple[str, ...]
    k_values: tuple[int, ...]
    scenarios: tuple[str, ...]
    translator: TranslatorSpec
    out_dir: Path
    augmentation: dict = field(default_factory=dict)
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    retrieval: Bm25Params = field(default_factory=Bm25Params)

    def __post_init__(self) -> None:
        if not self.tms:
            raise ConfigurationError("manifest lists no TM corpora")
        if not self.domains:
            raise ConfigurationError("manifest lists no test domains")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigurationError(f"k_values must be positive integers, got {self.k_values}")
        if len(set(self.k_values)) != len(self.k_values):
            raise ConfigurationError(f"duplicate k values: {self.k_values}")
        if not self.scenarios:
            raise ConfigurationError("manifest lists no scenarios")
        for scenario in self.scenarios:
            if scenario not in RELEVANCES:
                raise ConfigurationError(
                    f"unknown scenario {scenario!r}; expected one of {RELEVANCES}"
                )
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ConfigurationError(f"duplicate scenarios: {self.scenarios}")
        for domain in self.domains:
            if domain not in self.test_sets:
                raise ConfigurationError(f"domain {domain!r} has no test set in the manifest")
            if not domain or any(c in domain for c in "/\\\n\t\0"):
                raise ConfigurationError(f"domain name {domain!r} is not filesystem-safe")
        if len(set(self.domains)) != len(self.domains):
            raise ConfigurationError(f"duplicate domains: {self.domains}")
        # Every cell's augmentation settings are checked here, before any cell runs.
        for k in self.k_values:
            _config(AugmentationConfig, "augmentation", {"k": k, **self.augmentation})

    def cell_config(self, k: int) -> AugmentationConfig:
        return AugmentationConfig(k=k, **self.augmentation)

    def widest_config(self) -> AugmentationConfig:
        """The one topk run whose suggestions hold every cell's matches: the
        top max(k) for topk cells, the whole top pool for shuffle cells."""
        widest = self.cell_config(max(self.k_values))
        n = widest.pool_size if widest.mode == "shuffle" else widest.k
        return replace(widest, k=n, mode="topk")


_KINDS = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _typed(value, kind: type, name: str):
    """``value`` as ``kind`` if it has that JSON type; a float may be written
    as an integer, a bool is only a bool, and a string holds no NUL or lone
    surrogate.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"manifest field {name!r} must be {_KINDS[kind]}, got {value!r}")
    # A NUL cannot be in a file name, and a lone surrogate cannot be written as UTF-8.
    if kind is str and any(c == "\0" or "\ud800" <= c <= "\udfff" for c in value):
        raise ConfigurationError(f"manifest field {name!r} holds a NUL or a lone surrogate, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigurationError(f"manifest field {name!r} must be a finite number") from None


def _list_of(value, kind: type, name: str) -> tuple:
    return tuple(_typed(item, kind, name) for item in _typed(value, list, name))


def _resolve(base: Path, value, name: str) -> Path:
    path = Path(_typed(value, str, name))
    return path if path.is_absolute() else base / path


_REQUIRED = ("tms", "test_sets", "domains", "k_values", "scenarios", "translator", "out_dir")

# Manifest section -> {key: (config field, JSON type)}. A key left out takes
# its config type's default; a key not listed here is an error.
_SECTIONS = {
    "translator": {"kind": ("kind", str), "command": ("command", str), "timeout": ("timeout", float)},
    "augmentation": {
        "mode": ("mode", str),
        "pool": ("pool_size", int),
        "seed": ("seed", int),
        "separator": ("separator", str),
        "exclude_self": ("exclude_self", bool),
    },
    "bootstrap": {"n": ("n_samples", int), "threshold": ("threshold", float), "seed": ("seed", int)},
    "retrieval": {"k1": ("k1", float), "b": ("b", float)},
}


def _unknown_key(name: str, known) -> ConfigurationError:
    return ConfigurationError(f"manifest field {name!r} is unknown; expected one of {sorted(known)}")


def _section(data: dict, section: str) -> dict:
    """The config keyword arguments that a manifest section sets."""
    keys = _SECTIONS[section]
    fields = {}
    for key, value in _typed(data.get(section, {}), dict, section).items():
        if key not in keys:
            raise _unknown_key(f"{section}.{key}", keys)
        field_name, kind = keys[key]
        fields[field_name] = _typed(value, kind, f"{section}.{key}")
    return fields


def _config(cls: type, section: str, fields: dict):
    try:
        return cls(**fields)
    except RatkitError as exc:
        raise ConfigurationError(f"manifest field {section!r} is invalid: {exc}") from exc


def _object_with_unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads keeps the last of repeated keys; a manifest must not repeat one.
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"manifest field {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_manifest(path: str | Path) -> ExperimentManifest:
    """Parse a manifest JSON file; relative paths resolve against its parent.

    An unknown or repeated key, or a field of the wrong JSON type, raises a
    ConfigurationError naming it.
    """
    path = Path(path)
    try:
        data = _read_json(path, "manifest", object_pairs_hook=_object_with_unique_keys)
    except CorpusFormatError as exc:  # not UTF-8, or not JSON
        raise ConfigurationError(f"manifest {exc}") from exc
    except ValidationError as exc:  # cannot be opened
        raise ConfigurationError(str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"manifest {path} must be a JSON object")

    for key in _REQUIRED:
        if key not in data:
            raise ConfigurationError(f"manifest {path} is missing required field {key!r}")
    for key in data:
        if key not in _REQUIRED and key not in _SECTIONS:
            raise _unknown_key(key, {*_REQUIRED, *_SECTIONS})

    base = path.parent
    tms_field = data["tms"]
    if isinstance(tms_field, dict):
        tms_field = [v for _, v in sorted(tms_field.items())]
    tms = tuple(_resolve(base, v, "tms") for v in _typed(tms_field, list, "tms"))
    test_sets_field = _typed(data["test_sets"], dict, "test_sets")
    test_sets = {d: _resolve(base, v, "test_sets") for d, v in test_sets_field.items()}
    translator = _section(data, "translator")
    if "kind" not in translator:
        raise ConfigurationError("manifest field 'translator' must be an object with a 'kind'")

    return ExperimentManifest(
        tms=tms,
        test_sets=test_sets,
        domains=_list_of(data["domains"], str, "domains"),
        k_values=_list_of(data["k_values"], int, "k_values"),
        scenarios=tuple(s.replace("-", "_") for s in _list_of(data["scenarios"], str, "scenarios")),
        translator=_config(TranslatorSpec, "translator", translator),
        out_dir=_resolve(base, data["out_dir"], "out_dir"),
        augmentation=_section(data, "augmentation"),
        bootstrap=_config(BootstrapConfig, "bootstrap", _section(data, "bootstrap")),
        retrieval=_config(Bm25Params, "retrieval", _section(data, "retrieval")),
    )


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cell_dir(out_dir: Path, domain: str, k: int, scenario: str) -> Path:
    return out_dir / "cells" / f"{domain}__k{k}__{scenario}"


def _write_json(path: Path, data: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _score_cell(
    manifest: ExperimentManifest, domain: str, k: int, scenario: str,
    examples: list[AugmentedExample], hypotheses: list[str],
) -> CellResult:
    """One cell's BLEU, whose BleuScore keeps the per-sentence statistics, and overlap."""
    bleu = bleu_corpus(hypotheses, [ex.reference for ex in examples])
    overlap = suggestion_overlap(examples, hypotheses).mean_pct
    return CellResult(domain, k, scenario, manifest.translator.kind, bleu, overlap)


def _run_cell(
    manifest: ExperimentManifest,
    domain: str,
    k: int,
    scenario: str,
    retrieved: list[AugmentedExample],
    cell_dir: Path,
) -> CellResult:
    cfg = manifest.cell_config(k)
    examples = [
        _select(ex.pair_id, ex.source, ex.reference, ex.suggestions, cfg) for ex in retrieved
    ]
    write_augmented(examples, cell_dir / "augmented")
    hypotheses = translate(manifest.translator, examples)
    write_lines(hypotheses, cell_dir / "hyp.txt")
    cell = _score_cell(manifest, domain, k, scenario, examples, hypotheses)
    (cell_dir / "failed.json").unlink(missing_ok=True)
    _write_json(cell_dir / "cell.json", cell.to_dict())
    return cell


def _read_json(path: Path, what: str, **kwargs):
    """The JSON value of a whole file, parsed with ``kwargs`` by :func:`parse_json`;
    a fault raises a ValidationError naming the path."""
    return parse_json("".join(line for _, line in text_lines(path, what)), path, **kwargs)


def _read_outcome(cell_dir: Path, labels: dict) -> str | None:
    """The error in a cell directory's failed.json, or None when it holds a cell.json.

    The cell.json must carry ``labels``, the cell's domain, k, scenario and
    system, so that a manifest changed since the run cannot relabel its cells.
    """
    succeeded, failed = cell_dir / "cell.json", cell_dir / "failed.json"
    if succeeded.exists() == failed.exists():
        raise ValidationError(f"cell directory {cell_dir} must hold one of cell.json and failed.json")
    if succeeded.exists():
        record = _read_json(succeeded, "cell record")
        if not isinstance(record, dict):
            raise ValidationError(f"{succeeded}: malformed cell record; expected a JSON object")
        for key, value in labels.items():
            found = record.get(key)
            if type(found) is not type(value) or found != value:
                raise ValidationError(
                    f"{succeeded}: the cell record's {key} is {found!r}, not the manifest's {value!r}"
                )
        return None
    record = _read_json(failed, "failed cell record")
    if not isinstance(record, dict) or not isinstance(record.get("error"), str):
        raise ValidationError(f'{failed}: malformed failed cell record; expected {{"error": <text>}}')
    return record["error"]


def _check_domains(spec: ScenarioSpec, examples: list[AugmentedExample]) -> None:
    """Raise a ValidationError if a suggestion comes from a domain the scenario excludes."""
    validation = validate_scenario(spec, examples)
    if not validation.passed:
        pair_id, suggestion_id, domain = validation.violations[0]
        raise ValidationError(
            f"{spec.relevance} scenario for {spec.test_domain!r} suggested {suggestion_id!r} "
            f"from excluded domain {domain!r} for pair {pair_id!r}"
        )


def _run_group(
    manifest: ExperimentManifest,
    tms: list[TranslationMemory],
    pool_index: TmIndex,
    test_set: TranslationMemory | str,
    domain: str,
    scenario: str,
) -> dict[tuple[str, int, str], CellResult | str]:
    """Each cell's result or error text for one (domain, scenario) group.

    The group's scenario index is cut from ``pool_index``, saved, and queried
    once per sentence of ``test_set`` at the widest setting the grid needs;
    each of its k cells selects from those matches. A suggestion from an
    excluded domain fails the group. ``test_set`` may instead be the error
    text of the domain's test set, which comes before the group's own fault.
    """
    error = test_set if isinstance(test_set, str) else None
    try:
        spec, index = build_scenario(domain, tms, scenario, manifest.retrieval, pool_index)
        index_path = manifest.out_dir / "indexes" / f"{domain}__{scenario}.idx"
        save_index(index, index_path)
        write_scenario_sidecar(spec, index_path)
        if error is None:
            examples = list(augment_corpus(test_set, index, manifest.widest_config()))
            _check_domains(spec, examples)
    except Exception as exc:
        if error is None:
            error = _error_text(exc)
    results: dict[tuple[str, int, str], CellResult | str] = {}
    for k in manifest.k_values:
        cell = (domain, k, scenario)
        if error is not None:
            results[cell] = error
            continue
        try:
            results[cell] = _run_cell(manifest, domain, k, scenario, examples, _cell_dir(manifest.out_dir, *cell))
        except Exception as exc:
            results[cell] = _error_text(exc)
    return results


def _deal(groups: list[tuple[str, str]], costs: list[int], n: int) -> list[list[tuple[str, str]]]:
    """``groups`` dealt to ``n`` workers, costliest first, each to the least
    loaded worker; each share keeps grid order. A tie goes to the later
    worker, so worker 0, which also forks the others, collects their results
    and writes the report, ends with the lighter share."""
    loads = [0] * n
    owner = [0] * len(groups)
    for i in sorted(range(len(groups)), key=lambda i: -costs[i]):
        owner[i] = min(range(n), key=lambda w: (loads[w], -w))
        loads[owner[i]] += costs[i]
    return [[g for g, w in zip(groups, owner) if w == worker] for worker in range(n)]


def _serve_share(run_share, share: list, read_fd: int, write_fd: int) -> None:
    """A forked worker's whole life, which never returns into the caller's
    code: run its share, pickle ``{cell: result}`` to the pipe, and leave
    through ``os._exit``, with 0 only once the results are sent."""
    import pickle

    code = 1
    try:
        os.close(read_fd)
        results = run_share(share)
        with open(write_fd, "wb") as pipe:
            pickle.dump(results, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _fork_share(run_share, share: list) -> tuple[int, int] | None:
    """A child forked to serve ``share``: its pid and the read end of its
    pipe, or None, with no fd left open, where ``os.pipe`` or ``os.fork``
    fails (EAGAIN at the process limit, say)."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _serve_share(run_share, share, read_fd, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _run_forked(run_share, shares: list[list[tuple[str, str]]], k_values: tuple[int, ...]) -> dict:
    """``run_share`` over every share: shares[0] here, each other one in a
    child forked for it, whose results come back through a pipe. One share
    forks nothing; where a pipe or a fork fails, that share and every later
    one run here too.

    A child that ends before it has sent all of its results fails every
    cell of its share, with an error text that names its exit status. Any
    exception here, KeyboardInterrupt too, kills every child before it
    propagates, and every child is reaped before this returns or raises.
    """
    import pickle

    results: dict = {}
    children: list[tuple[int, int, int, list]] = []  # (pid, read end, worker, share), not yet reaped
    try:
        here = list(shares[0])
        for worker, share in enumerate(shares[1:], 1):
            child = _fork_share(run_share, share)
            if child is None:
                here += [group for rest in shares[worker:] for group in rest]
                break
            children.append((*child, worker, share))
        results.update(run_share(here))
        while children:
            pid, read_fd, worker, share = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(read_fd)
            try:
                results.update(pickle.loads(payload))
            except Exception:  # the child ended before it sent all of its results
                how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
                error = f"grid worker {worker} {how}; the results of its cells were lost"
                results.update({(d, k, s): error for d, s in share for k in k_values})
    except BaseException:
        import signal

        for pid, *_ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd, *_ in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    return results


def run_experiment(manifest: ExperimentManifest, workers: int = 1) -> EvalReport:
    """Run the full domain x k x scenario grid and persist every artifact.

    Per run: one index over all TMs, and each test set loaded once. Per
    (domain, scenario) group: a scenario index cut from it, saved, and queried
    once per test sentence at the widest setting the grid needs; a suggestion
    from an excluded domain fails the group. Per cell: augmented files (its
    k's suggestions, selected from those matches), hypothesis file, and one
    outcome record, cell.json or failed.json; a failure never aborts the rest
    of the grid. The report is built from each cell's in-memory result or
    error text as :func:`report_experiment` builds it from the cell
    directories; report.json is byte-stable for fixed seeds.

    A task is one (domain, scenario) group with all of its cells, so at most
    domains x scenarios processes run at once, whatever the translator. With
    ``workers`` N > 1 the groups are dealt, by test sentences x scenario
    pairs, to up to N processes: this one and ``os.fork`` children, which
    send their cells' results back through pipes. Where ``os.fork`` is
    missing, every group runs in this process, and where a pipe or a fork
    fails, the groups not yet handed to a child do. Every output file is
    byte-identical for any N.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    out_dir = manifest.out_dir
    make_dirs(out_dir / "cells")
    make_dirs(out_dir / "indexes")
    grid = list(product(manifest.domains, manifest.k_values, manifest.scenarios))
    # Every cell directory is made before any TM is read, so a name that the
    # file system refuses ends the run before it does the grid's work.
    for cell in grid:
        make_dirs(_cell_dir(out_dir, *cell))

    # A TM load or pool fault fails every cell, and then no test set is read.
    results: dict[tuple[str, int, str], CellResult | str] | None = None
    try:
        tms = [load_corpus(p) for p in manifest.tms]
    except Exception as exc:
        results = dict.fromkeys(grid, _error_text(exc))
    else:
        # Every scenario index is cut from one index over all TMs, so a TM set
        # that cannot be indexed together fails every cell, as a TM load fault does.
        try:
            pool_index = build_pool(tms, manifest.retrieval)
        except RatkitError as exc:
            results = dict.fromkeys(grid, _error_text(exc))

    if results is None:
        # Each domain's test set, or the error text its cells record.
        test_sets: dict[str, TranslationMemory | str] = {}
        for domain in manifest.domains:
            try:
                test_sets[domain] = load_corpus(manifest.test_sets[domain], name=f"test[{domain}]")
            except Exception as exc:
                test_sets[domain] = _error_text(exc)

        def run_share(share: list[tuple[str, str]]) -> dict:
            done = {}
            for domain, scenario in share:
                done.update(_run_group(manifest, tms, pool_index, test_sets[domain], domain, scenario))
            return done

        groups = list(product(manifest.domains, manifest.scenarios))
        n = min(workers, len(groups)) if hasattr(os, "fork") else 1
        # Retrieval, most of a group's work, grows with its queries and
        # with the pairs of its scenario index.
        in_domain = Counter(pair.domain for pair in pool_index.pairs)
        queries = {d: 0 if isinstance(t, str) else len(t) for d, t in test_sets.items()}
        costs = [
            (1 + queries[d]) * (in_domain[d] if s == "relevant" else pool_index.doc_count - in_domain[d])
            for d, s in groups
        ]
        results = _run_forked(run_share, _deal(groups, costs, n), manifest.k_values)
        results = {cell: results[cell] for cell in grid}

    for cell, result in results.items():
        if isinstance(result, str):
            cell_dir = _cell_dir(out_dir, *cell)
            for stale in ("cell.json", "hyp.txt"):  # an earlier run's outcome
                (cell_dir / stale).unlink(missing_ok=True)
            _write_json(cell_dir / "failed.json", {"error": result})

    return _write_report(manifest, results)


def report_experiment(manifest: ExperimentManifest) -> EvalReport:
    """Rebuild a run's report.json and report.md, the bytes the run wrote, from its cells.

    A cell directory's failed.json gives its error; with a cell.json instead,
    the cell is scored again from its augmented.jsonl and hyp.txt. A missing,
    doubled or malformed record or file, or a cell.json whose domain, k,
    scenario or system is not the manifest's, raises a ValidationError naming it.
    """
    system = manifest.translator.kind
    results = {}
    for cell in product(manifest.domains, manifest.k_values, manifest.scenarios):
        domain, k, scenario = cell
        cell_dir = _cell_dir(manifest.out_dir, domain, k, scenario)
        labels = {"domain": domain, "k": k, "scenario": scenario, "system": system}
        error = _read_outcome(cell_dir, labels)
        if error is not None:
            results[cell] = error
            continue
        examples = read_augmented(cell_dir / "augmented.jsonl")
        hypotheses = read_lines(cell_dir / "hyp.txt")
        try:
            results[cell] = _score_cell(manifest, domain, k, scenario, examples, hypotheses)
        except ValidationError as exc:  # say, a hyp.txt shorter than the test set
            raise ValidationError(f"cell directory {cell_dir}: {exc}") from exc
    return _write_report(manifest, results)


def _write_report(
    manifest: ExperimentManifest, results: dict[tuple[str, int, str], CellResult | str]
) -> EvalReport:
    """The grid's report, written as report.json and report.md under out_dir.

    ``results`` holds each grid cell's CellResult or error text. Per (domain, k)
    whose relevant and less_relevant cells both succeeded, a paired bootstrap
    resamples their BLEU statistics. A scenario's average is the mean of its
    cells over domains x k, summed in grid order, and is given only when every
    one of its cells succeeded.
    """
    system = manifest.translator.kind
    cells = {r.key: r for r in results.values() if isinstance(r, CellResult)}
    failed = {(*cell, system): r for cell, r in results.items() if isinstance(r, str)}
    significance: dict[tuple[str, int, str, str, str], SignificanceResult] = {}
    for domain, k in product(manifest.domains, manifest.k_values):
        side_a = cells.get((domain, k, "relevant", system))
        side_b = cells.get((domain, k, "less_relevant", system))
        if side_a is None or side_b is None:
            continue
        significance[(domain, k, system, "relevant", "less_relevant")] = paired_bootstrap(
            side_a.bleu, side_b.bleu,
            n_samples=manifest.bootstrap.n_samples,
            threshold=manifest.bootstrap.threshold,
            seed=derive_seed(manifest.bootstrap.seed, domain, k, system),
        )
    averages: dict[tuple[str, str], GroupAverage] = {}
    for scenario in manifest.scenarios:
        group = [results[(d, k, scenario)] for d, k in product(manifest.domains, manifest.k_values)]
        if any(isinstance(r, str) for r in group):
            continue
        overlaps = [r.overlap_pct for r in group if r.overlap_pct is not None]
        averages[(system, scenario)] = GroupAverage(
            bleu=sum(r.bleu.score for r in group) / len(group),
            overlap_pct=sum(overlaps) / len(overlaps) if overlaps else None,
        )
    report = EvalReport(cells=cells, averages=averages, significance=significance, failed=failed)
    _write_json(manifest.out_dir / "report.json", report.to_dict())
    with atomic_write(manifest.out_dir / "report.md") as fh:
        fh.write(report_to_markdown(report))
    return report
