"""Translator boundary, manifest parsing, and the grid runner."""

from __future__ import annotations

import errno
import json
import os
import pickle
import time
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from ratkit import AugmentationConfig, Bm25Params, ConfigurationError, TranslatorError, ValidationError
from ratkit import augmentation, evaluation, pipeline
from ratkit.augmentation import AugmentedExample, augment_corpus, write_augmented
from ratkit.cli import main
from ratkit.corpus import SentencePair, TranslationMemory, load_corpus, read_lines, save_corpus
from ratkit.evaluation import BootstrapConfig, CellResult, bleu_corpus, paired_bootstrap
from ratkit.pipeline import _SECTIONS, ExperimentManifest, TranslatorSpec, load_manifest
from ratkit.pipeline import report_experiment
from ratkit.pipeline import run_experiment, translate
from ratkit.retrieval import FuzzyMatch
from ratkit.scenarios import build_scenario
from ratkit.seeding import derive_seed

from synthetic import make_directional, make_three_domain


def aug(source: str, reference: str, targets: list[str]) -> AugmentedExample:
    suggestions = tuple(
        FuzzyMatch(pair_id=f"s{i}", score=float(len(targets) - i), rank=i + 1,
                   source=f"src {i}", target=t, domain="d")
        for i, t in enumerate(targets)
    )
    return AugmentedExample(
        pair_id="p", source=source, reference=reference, suggestions=suggestions,
        flat_input=" @@@ ".join([source, *targets]),
    )


def write_manifest(path: Path, **overrides) -> Path:
    data = {
        "tms": ["tm.jsonl"],
        "test_sets": {"it": "test_it.jsonl", "med": "test_med.jsonl"},
        "domains": ["it", "med"],
        "k_values": [1, 2],
        "scenarios": ["relevant", "less_relevant"],
        "translator": {"kind": "baseline_copy_first"},
        "out_dir": "out",
        "bootstrap": {"n": 50},
    }
    data.update(overrides)
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# The report.json and report.md that the grids of
# test_report_bytes_equal_the_golden_files gave before the report was built
# straight from the manifest's grid. They pin the report's bytes across commits.
GOLDEN = Path(__file__).parent / "data"


def leak_into_it_relevant(domain, tms, relevance, *args):
    """build_scenario, but the (it, relevant) group gets the less_relevant index."""
    spec, index = build_scenario(domain, tms, relevance, *args)
    if (domain, relevance) == ("it", "relevant"):
        _, index = build_scenario(domain, tms, "less_relevant", *args)
    return spec, index


def materialize(tmp_path: Path, tm, test_sets) -> None:
    save_corpus(tm, tmp_path / "tm.jsonl")
    for domain, tests in test_sets.items():
        save_corpus(tests, tmp_path / f"test_{domain}.jsonl")


class TestTranslatorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown translator kind"):
            TranslatorSpec(kind="mt_in_the_cloud")

    def test_external_requires_command(self):
        with pytest.raises(ConfigurationError, match="command template"):
            TranslatorSpec(kind="external_command")

    def test_external_requires_both_placeholders(self):
        with pytest.raises(ConfigurationError, match="placeholders"):
            TranslatorSpec(kind="external_command", command="cat {input}")

    def test_timeout_must_be_positive(self):
        for timeout in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="timeout"):
                TranslatorSpec(kind="baseline_passthrough", timeout=timeout)

    def test_baselines_need_no_command(self):
        spec = TranslatorSpec(kind="baseline_oracle_copy")
        assert spec.command is None


class TestTranslate:
    def test_no_examples_rejected(self):
        with pytest.raises(TranslatorError, match="no examples"):
            translate(TranslatorSpec(kind="baseline_passthrough"), [])

    def test_passthrough_copies_sources(self):
        examples = [aug("eins", "ref1", ["x"]), aug("zwei", "ref2", [])]
        assert translate(TranslatorSpec(kind="baseline_passthrough"), examples) == [
            "eins",
            "zwei",
        ]

    def test_copy_first_takes_top_suggestion_else_source(self):
        examples = [aug("src a", "ref", ["top target", "second"]), aug("src b", "ref", [])]
        assert translate(TranslatorSpec(kind="baseline_copy_first"), examples) == [
            "top target",
            "src b",
        ]

    def test_oracle_copy_prefers_best_contained_suggestion(self):
        example = aug(
            "src", "der rote Hund rennt schnell",
            ["die blaue Katze schläft tief", "der rote Hund rennt heute"],
        )
        assert translate(TranslatorSpec(kind="baseline_oracle_copy"), [example]) == [
            "der rote Hund rennt heute"
        ]

    def test_oracle_copy_breaks_ties_toward_rank_one(self):
        example = aug("src", "ganz andere worte hier", ["kandidat eins", "kandidat zwei"])
        assert translate(TranslatorSpec(kind="baseline_oracle_copy"), [example]) == [
            "kandidat eins"
        ]

    def test_external_identity_command_returns_flat_inputs(self):
        examples = [aug("a b", "r", ["t1", "t2"]), aug("c", "r", ["t3"])]
        spec = TranslatorSpec(kind="external_command", command="cat {input} > {output}")
        assert translate(spec, examples) == [ex.flat_input for ex in examples]

    def test_external_transform_applies_per_line(self):
        examples = [aug("one", "r", []), aug("two", "r", [])]
        spec = TranslatorSpec(
            kind="external_command", command="sed 's/.*/LINE/' {input} > {output}"
        )
        assert translate(spec, examples) == ["LINE", "LINE"]

    def test_external_nonzero_exit_reports_stderr_tail(self):
        spec = TranslatorSpec(
            kind="external_command",
            command="cat {input} > {output}; echo kaput >&2; exit 3",
        )
        with pytest.raises(TranslatorError, match="code 3.*kaput"):
            translate(spec, [aug("x", "r", [])])

    @pytest.mark.parametrize("stream", [">&2", ""], ids=["stderr", "stdout"])
    def test_external_non_utf8_console_output_is_not_an_error(self, stream):
        # printf writes the byte 0xe9, which is not UTF-8 on its own.
        spec = TranslatorSpec(
            kind="external_command", command=f"cat {{input}} > {{output}}; printf 'caf\\351\\n' {stream}"
        )
        examples = [aug("x", "r", ["t"])]
        assert translate(spec, examples) == [examples[0].flat_input]

    def test_external_non_utf8_stderr_tail_is_replaced(self):
        spec = TranslatorSpec(
            kind="external_command", command="printf 'caf\\351\\n' >&2; exit 3 # {input} {output}"
        )
        with pytest.raises(TranslatorError, match="code 3.*caf�"):
            translate(spec, [aug("x", "r", [])])

    def test_external_line_count_mismatch_rejected(self):
        spec = TranslatorSpec(
            kind="external_command", command="head -n 1 {input} > {output}"
        )
        with pytest.raises(TranslatorError, match="line count 1 does not match input count 2"):
            translate(spec, [aug("x", "r", []), aug("y", "r", [])])

    def test_external_missing_output_file_rejected(self):
        spec = TranslatorSpec(kind="external_command", command="true {input} {output}")
        with pytest.raises(TranslatorError, match="no output file"):
            translate(spec, [aug("x", "r", [])])

    def test_external_timeout_enforced(self):
        spec = TranslatorSpec(
            kind="external_command",
            command="sleep 5; cat {input} > {output}",
            timeout=0.2,
        )
        with pytest.raises(TranslatorError, match="timed out"):
            translate(spec, [aug("x", "r", [])])

    def test_external_timeout_kills_grandchildren(self, tmp_path):
        marker = tmp_path / "marker"
        spec = TranslatorSpec(
            kind="external_command",
            command=f"(sleep 1.5; touch {marker}) & wait; cat {{input}} > {{output}}",
            timeout=0.5,
        )
        with pytest.raises(TranslatorError, match="timed out"):
            translate(spec, [aug("x", "r", [])])
        time.sleep(2.0)
        assert not marker.exists()


class TestLoadManifest:
    def test_valid_manifest_resolves_paths_against_its_directory(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json")
        manifest = load_manifest(path)
        assert manifest.tms == (tmp_path / "tm.jsonl",)
        assert manifest.test_sets["med"] == tmp_path / "test_med.jsonl"
        assert manifest.out_dir == tmp_path / "out"
        assert manifest.domains == ("it", "med")
        assert manifest.k_values == (1, 2)
        assert manifest.translator.kind == "baseline_copy_first"
        assert manifest.bootstrap.n_samples == 50
        assert manifest.cell_config(1).mode == "topk"

    def test_tms_object_form_ordered_by_key(self, tmp_path):
        path = write_manifest(
            tmp_path / "exp.json", tms={"b-second": "t2.jsonl", "a-first": "t1.jsonl"}
        )
        manifest = load_manifest(path)
        assert manifest.tms == (tmp_path / "t1.jsonl", tmp_path / "t2.jsonl")

    def test_absolute_paths_kept_verbatim(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json", out_dir="/elsewhere/out")
        assert load_manifest(path).out_dir == Path("/elsewhere/out")

    def test_hyphenated_scenario_normalized(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json", scenarios=["less-relevant"])
        assert load_manifest(path).scenarios == ("less_relevant",)

    def test_missing_required_field_named(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json")
        data = json.loads(path.read_text())
        del data["k_values"]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="k_values"):
            load_manifest(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json", scenarios=["irrelevant"])
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            load_manifest(path)

    def test_domain_without_test_set_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json", domains=["it", "law"])
        with pytest.raises(ConfigurationError, match="'law' has no test set"):
            load_manifest(path)

    def test_unsafe_domain_name_rejected(self, tmp_path):
        for domain, error in [
            ("a/b", "filesystem-safe"),
            ("a\0b", "'domains' holds a NUL or a lone surrogate"),
            ("\ud800", "'domains' holds a NUL or a lone surrogate"),
        ]:
            path = write_manifest(tmp_path / "exp.json", domains=[domain], test_sets={domain: "t.jsonl"})
            with pytest.raises(ConfigurationError, match=error):
                load_manifest(path)
        manifest = load_manifest(write_manifest(tmp_path / "exp.json"))
        with pytest.raises(ConfigurationError, match="filesystem-safe"):
            replace(manifest, domains=("a\0b",), test_sets={"a\0b": tmp_path / "t.jsonl"})
        path = write_manifest(tmp_path / "exp.json", out_dir="g\0rid")
        with pytest.raises(ConfigurationError, match="'out_dir' holds a NUL or a lone surrogate"):
            load_manifest(path)

    def test_duplicate_k_values_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "exp.json", k_values=[1, 1])
        with pytest.raises(ConfigurationError, match="duplicate k"):
            load_manifest(path)

    def test_shuffle_pool_must_cover_max_k(self, tmp_path):
        path = write_manifest(
            tmp_path / "exp.json",
            k_values=[1, 12],
            augmentation={"mode": "shuffle", "pool": 10},
        )
        with pytest.raises(ConfigurationError, match="pool_size must be >= k"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "override, name",
        [
            ({"k_value": [1]}, "'k_value'"),
            ({"translator": {"kind": "baseline_copy_first", "timout": 5}}, "'translator.timout'"),
            ({"augmentation": {"pool_size": 3}}, "'augmentation.pool_size'"),
            ({"bootstrap": {"samples": 7}}, "'bootstrap.samples'"),
            ({"retrieval": {"k_1": 1.0}}, "'retrieval.k_1'"),
        ],
        ids=["top-level", "translator", "augmentation", "bootstrap", "retrieval"],
    )
    def test_unknown_key_rejected_by_name(self, tmp_path, override, name):
        path = write_manifest(tmp_path / "exp.json", **override)
        with pytest.raises(ConfigurationError, match=f"manifest field {name} is unknown"):
            load_manifest(path)

    def test_readme_manifest_lists_every_key_at_its_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Experiment manifests", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "exp.json").write_text(block, encoding="utf-8")
        manifest = load_manifest(tmp_path / "exp.json")
        data = json.loads(block)
        for name, keys in _SECTIONS.items():
            assert set(data[name]) == set(keys), name
        assert manifest.cell_config(1) == AugmentationConfig(k=1)
        assert manifest.bootstrap == BootstrapConfig()
        assert manifest.retrieval == Bm25Params()
        assert manifest.translator.timeout == TranslatorSpec.timeout

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=rf"manifest .*exp\.json:1: invalid JSON"):
            load_manifest(path)

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        # Python's int parser refuses more than 4300 digits with a ValueError.
        path = write_manifest(tmp_path / "exp.json", bootstrap={"threshold": 0})
        text = path.read_text(encoding="utf-8").replace('"threshold": 0', '"threshold": 1' + "0" * 5000)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigurationError, match="manifest"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_manifest(tmp_path / "absent.json")


class TestWriteReport:
    """The report built from a grid's outcomes, without running the grid."""

    SYSTEM = "baseline_copy_first"
    HYPS = ["the cat sat on the mat", "a dog ran in the park"]
    REFS = ["the cat sat on a mat", "a dog ran in the park today"]

    def cell(self, domain, k, scenario="relevant", score=50.0, overlap=80.0) -> CellResult:
        # Real sentence statistics, so that a relevant/less_relevant pair can be bootstrapped.
        bleu = replace(bleu_corpus(self.HYPS, self.REFS), score=score)
        return CellResult(domain=domain, k=k, scenario=scenario, system=self.SYSTEM, bleu=bleu,
                          overlap_pct=overlap)

    def write(self, tmp_path, outcomes, domains, k_values=(1,), scenarios=("relevant",)):
        """_write_report on a grid whose cell (domain, k, scenario) has ``outcomes``' value,
        or a default CellResult when ``outcomes`` leaves it out."""
        manifest = ExperimentManifest(
            tms=(tmp_path / "tm.jsonl",),
            test_sets={d: tmp_path / f"test_{d}.jsonl" for d in domains},
            domains=tuple(domains), k_values=tuple(k_values), scenarios=tuple(scenarios),
            translator=TranslatorSpec(kind=self.SYSTEM), out_dir=tmp_path,
            bootstrap=BootstrapConfig(n_samples=20),
        )
        results = {
            cell: outcomes[cell] if cell in outcomes else self.cell(*cell)
            for cell in product(domains, k_values, scenarios)
        }
        report = pipeline._write_report(manifest, results)
        assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == report.to_dict()
        return report

    def test_single_cell_average_is_that_cell(self, tmp_path):
        report = self.write(tmp_path, {("it", 1, "relevant"): self.cell("it", 1, score=37.5)}, ["it"])
        assert report.averages[(self.SYSTEM, "relevant")].bleu == 37.5

    def test_two_domains_average_forty_fifty(self, tmp_path):
        outcomes = {("d1", 1, "relevant"): self.cell("d1", 1, score=40.0),
                    ("d2", 1, "relevant"): self.cell("d2", 1, score=50.0)}
        report = self.write(tmp_path, outcomes, ["d1", "d2"])
        assert report.averages[(self.SYSTEM, "relevant")].bleu == 45.0

    def test_five_by_five_grid_mean_is_the_grid_order_sum(self, tmp_path):
        domains = ["d1", "d2", "d3", "d4", "d5"]
        outcomes = {
            (d, k, "relevant"): self.cell(d, k, score=20.0 + 3.0 * i + 1.7 * k)
            for i, d in enumerate(domains) for k in range(1, 6)
        }
        report = self.write(tmp_path, outcomes, domains, k_values=range(1, 6))
        assert report.averages[(self.SYSTEM, "relevant")].bleu == (
            sum(cell.bleu.score for cell in outcomes.values()) / 25
        )

    def test_failed_cell_skips_only_its_scenarios_average(self, tmp_path):
        failed = {("d2", 2, "relevant"): "TranslatorError: boom"}
        report = self.write(tmp_path, failed, ["d1", "d2"], k_values=(1, 2),
                            scenarios=("relevant", "less_relevant"))
        assert set(report.averages) == {(self.SYSTEM, "less_relevant")}
        assert len(report.cells) == 7
        assert report.failed == {("d2", 2, "relevant", self.SYSTEM): "TranslatorError: boom"}
        assert {key[:2] for key in report.significance} == {("d1", 1), ("d1", 2), ("d2", 1)}

    def test_group_whose_every_cell_of_a_domain_failed_is_left_out(self, tmp_path):
        failed = {("d2", k, "relevant"): "ValidationError: bad test set" for k in (1, 2)}
        report = self.write(tmp_path, failed, ["d1", "d2"], k_values=(1, 2),
                            scenarios=("relevant", "less_relevant"))
        assert set(report.averages) == {(self.SYSTEM, "less_relevant")}
        assert {key[0] for key in report.significance} == {"d1"}

    def test_failures_only_give_an_empty_report(self, tmp_path):
        failed = {("d2", 1, "relevant"): "TranslatorError: boom",
                  ("d1", 1, "relevant"): "TranslatorError: bang"}
        report = self.write(tmp_path, failed, ["d2", "d1"])
        assert report.cells == {} and report.averages == {} and report.significance == {}
        assert report.to_dict()["failed_cells"] == [
            {"domain": d, "k": 1, "scenario": "relevant", "system": self.SYSTEM, "error": error}
            for d, error in (("d1", "TranslatorError: bang"), ("d2", "TranslatorError: boom"))
        ]

    def test_overlap_average_skips_absent_values(self, tmp_path):
        outcomes = {("d1", 1, "relevant"): self.cell("d1", 1, overlap=60.0),
                    ("d2", 1, "relevant"): self.cell("d2", 1, overlap=None),
                    ("d1", 1, "less_relevant"): self.cell("d1", 1, "less_relevant", overlap=None),
                    ("d2", 1, "less_relevant"): self.cell("d2", 1, "less_relevant", overlap=None)}
        report = self.write(tmp_path, outcomes, ["d1", "d2"], scenarios=("relevant", "less_relevant"))
        assert report.averages[(self.SYSTEM, "relevant")].overlap_pct == 60.0
        assert report.averages[(self.SYSTEM, "less_relevant")].overlap_pct is None

    def test_averages_recomputable_from_cells(self, tmp_path):
        outcomes = {
            (d, k, s): self.cell(d, k, s, score=10.0 * k + len(d) + 0.1, overlap=k / 3)
            for d in ("alpha", "beta") for k in (1, 2) for s in ("relevant", "less_relevant")
        }
        report = self.write(tmp_path, outcomes, ["alpha", "beta"], k_values=(1, 2),
                            scenarios=("relevant", "less_relevant"))
        for (system, scenario), average in report.averages.items():
            group = [c for c in report.cells.values() if c.system == system and c.scenario == scenario]
            assert average.bleu == sum(c.bleu.score for c in group) / len(group)
            assert average.overlap_pct == sum(c.overlap_pct for c in group) / len(group)

    def test_to_dict_is_json_serializable_and_sorted(self, tmp_path):
        failed = {("d1", 2, "less_relevant"): "TranslatorError: boom"}
        report = self.write(tmp_path, failed, ["d2", "d1"], k_values=(2, 1),
                            scenarios=("relevant", "less_relevant"))
        payload = report.to_dict()
        assert [(c["domain"], c["k"], c["scenario"]) for c in payload["cells"]] == [
            ("d1", 1, "less_relevant"), ("d1", 1, "relevant"), ("d1", 2, "relevant"),
            ("d2", 1, "less_relevant"), ("d2", 1, "relevant"),
            ("d2", 2, "less_relevant"), ("d2", 2, "relevant"),
        ]
        assert [a["scenario"] for a in payload["averages"]] == ["relevant"]
        assert [(s["domain"], s["k"], s["a"]) for s in payload["significance"]] == [
            ("d1", 1, "relevant"), ("d2", 1, "relevant"), ("d2", 2, "relevant")
        ]
        assert [(f["domain"], f["k"]) for f in payload["failed_cells"]] == [("d1", 2)]


class TestRunExperiment:
    def run(self, tmp_path, out_name="out", workers=1, **overrides):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        path = write_manifest(tmp_path / "exp.json", out_dir=out_name, **overrides)
        return run_experiment(load_manifest(path), workers=workers)

    def test_full_grid_populates_every_cell(self, tmp_path):
        report = self.run(tmp_path)
        assert len(report.cells) == 8
        assert not report.failed
        assert set(report.averages) == {
            ("baseline_copy_first", "relevant"),
            ("baseline_copy_first", "less_relevant"),
        }
        assert len(report.significance) == 4
        for key in report.significance:
            assert key[2:] == ("baseline_copy_first", "relevant", "less_relevant")
        # Each average is the mean of its scenario's cells, summed in grid order.
        for (system, scenario), average in report.averages.items():
            cells = [report.cells[(d, k, scenario, system)] for d in ("it", "med") for k in (1, 2)]
            assert average.bleu == sum(cell.bleu.score for cell in cells) / 4
            assert average.overlap_pct == sum(cell.overlap_pct for cell in cells) / 4
        payload = report.to_dict()
        assert [(c["domain"], c["k"], c["scenario"]) for c in payload["cells"]] == sorted(
            key[:3] for key in report.cells
        )
        assert [a["scenario"] for a in payload["averages"]] == ["less_relevant", "relevant"]
        assert [(s["domain"], s["k"]) for s in payload["significance"]] == sorted(
            key[:2] for key in report.significance
        )

    def test_artifacts_written_per_cell(self, tmp_path):
        self.run(tmp_path)
        out = tmp_path / "out"
        assert (out / "report.json").is_file()
        assert (out / "report.md").is_file()
        cell_dir = out / "cells" / "it__k2__less_relevant"
        for name in ("augmented.jsonl", "augmented.flat.txt", "augmented.ref.txt",
                     "hyp.txt", "cell.json"):
            assert (cell_dir / name).is_file(), name
        assert (out / "indexes" / "med__relevant.idx").is_file()
        assert (out / "indexes" / "med__relevant.idx.scenario.json").is_file()

    def test_cell_json_matches_report_cell(self, tmp_path):
        report = self.run(tmp_path)
        raw = json.loads(
            (tmp_path / "out" / "cells" / "it__k1__relevant" / "cell.json").read_text()
        )
        cell = report.cells[("it", 1, "relevant", "baseline_copy_first")]
        assert raw == cell.to_dict()
        assert set(raw) == {"domain", "k", "scenario", "system", "bleu", "overlap_pct"}
        assert set(raw["bleu"]) == {
            "score", "precisions", "brevity_penalty", "hyp_length", "ref_length"
        }

    def test_missing_test_set_fails_only_that_domain(self, tmp_path):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        (tmp_path / "test_med.jsonl").unlink()
        report = run_experiment(load_manifest(write_manifest(tmp_path / "exp.json")))
        assert len(report.cells) == 4
        assert {key[0] for key in report.cells} == {"it"}
        assert len(report.failed) == 4
        assert {key[0] for key in report.failed} == {"med"}
        for error in report.failed.values():
            assert "test_med.jsonl" in error
        assert {key[0] for key in report.significance} == {"it"}
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(payload["failed_cells"]) == 4
        assert [(c["k"], c["scenario"]) for c in payload["failed_cells"]] == sorted(
            key[1:3] for key in report.failed
        )

    def test_broken_translator_fails_cells_not_run(self, tmp_path):
        report = self.run(
            tmp_path,
            translator={"kind": "external_command", "command": "exit 7 # {input} {output}"},
        )
        assert not report.cells
        assert len(report.failed) == 8
        assert all("code 7" in error for error in report.failed.values())
        assert not report.significance
        assert report.averages == {}
        assert (tmp_path / "out" / "report.json").is_file()

    def test_failed_translator_report_identical_across_workers(self, tmp_path):
        # cat fails on the missing output file and names its path on stderr.
        translator = {"kind": "external_command", "command": "cat {input} {output} >/dev/null"}
        self.run(tmp_path, out_name="out1", translator=translator)
        report = self.run(tmp_path, out_name="out2", workers=2, translator=translator)
        assert len(report.failed) == 8
        first = (tmp_path / "out1" / "report.json").read_bytes()
        assert (tmp_path / "out2" / "report.json").read_bytes() == first
        assert b"cat {input} {output}" in first
        assert b"ratkit-translate-" not in first

    def test_non_utf8_translator_output_fails_cells_byte_stably(self, tmp_path):
        # printf writes the byte 0xe9, which is not UTF-8 on its own.
        command = "printf 'caf\\351\\n' > {output} # {input}"
        translator = {"kind": "external_command", "command": command}
        self.run(tmp_path, out_name="out1", translator=translator)
        report = self.run(tmp_path, out_name="out2", translator=translator)
        assert len(report.failed) == 8
        for error in report.failed.values():
            assert "<tmp>/output.txt:1: not valid UTF-8" in error
        first = (tmp_path / "out1" / "report.json").read_bytes()
        assert (tmp_path / "out2" / "report.json").read_bytes() == first
        assert b"ratkit-translate-" not in first

    def test_translator_output_split_on_newlines_only(self, tmp_path):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=2)
        first, second = test_sets["it"].pairs
        source = first.source.replace(" and ", "\u2028and ")
        test_sets["it"] = TranslationMemory("it", (replace(first, source=source), second))
        materialize(tmp_path, tm, test_sets)
        translator = {"kind": "external_command", "command": "cp {input} {output}"}
        path = write_manifest(tmp_path / "exp.json", translator=translator, k_values=[1],
                              test_sets={"it": "test_it.jsonl"}, domains=["it"])
        report = run_experiment(load_manifest(path))
        assert not report.failed
        assert len(report.cells) == 2
        for cell_dir in (tmp_path / "out" / "cells").iterdir():
            hyp = (cell_dir / "hyp.txt").read_bytes()
            assert "\u2028".encode() in hyp
            assert hyp == (cell_dir / "augmented.flat.txt").read_bytes()

    def test_relevant_beats_less_relevant_per_cell(self, tmp_path):
        tm, test_sets = make_directional(combos_per_domain=60, tests_per_domain=24)
        materialize(tmp_path, tm, test_sets)
        path = write_manifest(
            tmp_path / "exp.json",
            test_sets={"alpha": "test_alpha.jsonl", "beta": "test_beta.jsonl"},
            domains=["alpha", "beta"],
        )
        report = run_experiment(load_manifest(path))
        system = "baseline_copy_first"
        for domain in ("alpha", "beta"):
            for k in (1, 2):
                relevant = report.cells[(domain, k, "relevant", system)]
                less = report.cells[(domain, k, "less_relevant", system)]
                assert relevant.bleu.score > less.bleu.score, (domain, k)
        assert (
            report.averages[(system, "relevant")].bleu
            > report.averages[(system, "less_relevant")].bleu
        )

    def test_whole_domain_failure_leaves_its_groups_out_of_the_averages(self, tmp_path):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        (tmp_path / "test_med.jsonl").write_text("{bad\n", encoding="utf-8")
        report = run_experiment(load_manifest(write_manifest(tmp_path / "exp.json")))
        # Averaging the surviving domain alone would pass off one domain's
        # BLEU as the grid's, so both groups are left out.
        assert {key[0] for key in report.failed} == {"med"}
        assert {key[0] for key in report.cells} == {"it"}
        assert report.averages == {}
        assert {key[0] for key in report.significance} == {"it"}
        assert report_experiment(load_manifest(tmp_path / "exp.json")) == report

    def test_average_overlap_skips_cells_without_one(self, tmp_path, monkeypatch):
        def none_for_med(examples, hypotheses):
            result = evaluation.suggestion_overlap(examples, hypotheses)
            return replace(result, mean_pct=None) if examples[0].pair_id.startswith("med") else result

        monkeypatch.setattr("ratkit.pipeline.suggestion_overlap", none_for_med)
        report = self.run(tmp_path)
        for (system, scenario), average in report.averages.items():
            cells = [report.cells[(d, k, scenario, system)] for d in ("it", "med") for k in (1, 2)]
            assert [cell.overlap_pct is None for cell in cells] == [False, False, True, True]
            assert average.overlap_pct == (cells[0].overlap_pct + cells[1].overlap_pct) / 2
            assert average.bleu == sum(cell.bleu.score for cell in cells) / 4

    @pytest.mark.parametrize("translator", [
        {"kind": "baseline_copy_first"},
        {"kind": "external_command", "command": "cp {input} {output}"},
    ])
    def test_every_output_file_identical_across_runs_and_workers(self, tmp_path, translator):
        trees = []
        for run, workers in enumerate((1, 1, 2, 3)):
            out_name = f"out{run}"
            self.run(tmp_path, out_name=out_name, workers=workers, translator=translator)
            out = tmp_path / out_name
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert len(trees[0]) == 2 + 8 * 5 + 4 * 2  # reports, cell files, indexes and sidecars
        for tree in trees[1:]:
            assert tree == trees[0]

    def record_pids(self, tmp_path, monkeypatch):
        """Each cell writes the PID it ran under to a file under tmp_path/pids."""
        (tmp_path / "pids").mkdir()
        run_cell = pipeline._run_cell

        def recording(manifest, domain, k, scenario, *args):
            (tmp_path / "pids" / f"{domain}__k{k}__{scenario}").write_text(str(os.getpid()))
            return run_cell(manifest, domain, k, scenario, *args)

        monkeypatch.setattr(pipeline, "_run_cell", recording)
        return lambda: {p.name: int(p.read_text()) for p in (tmp_path / "pids").iterdir()}

    def test_cells_run_in_two_processes_at_two_workers(self, tmp_path, monkeypatch):
        pids = self.record_pids(tmp_path, monkeypatch)
        report = self.run(tmp_path, workers=2)
        assert len(report.cells) == 8
        by_cell = pids()
        assert len(by_cell) == 8
        assert len(set(by_cell.values())) == 2
        assert os.getpid() in by_cell.values()
        # A process runs every cell of each of its (domain, scenario) groups.
        for domain, scenario in product(("it", "med"), ("relevant", "less_relevant")):
            assert by_cell[f"{domain}__k1__{scenario}"] == by_cell[f"{domain}__k2__{scenario}"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_every_cell_runs_in_this_process(self, tmp_path, monkeypatch):
        pids = self.record_pids(tmp_path, monkeypatch)
        monkeypatch.delattr(os, "fork")
        report = self.run(tmp_path, workers=2)
        assert len(report.cells) == 8
        assert set(pids().values()) == {os.getpid()}

    def test_forks_one_child_fewer_than_the_groups(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def counting():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        # One domain, so two (domain, scenario) groups for three workers.
        report = self.run(tmp_path, workers=3, domains=["it"], test_sets={"it": "test_it.jsonl"})
        assert len(report.cells) == 4
        assert len(forks) == 1

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    @pytest.mark.parametrize("workers, failing", [(2, 1), (3, 2)])
    def test_a_failed_fork_runs_the_rest_of_the_grid_here(self, tmp_path, monkeypatch, call, workers, failing):
        """The ``failing``-th os.fork or os.pipe call raises EAGAIN: that share
        and every later one run in this process, and the outputs are the same
        bytes as at one worker."""
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        assert main(["run", "--manifest", str(write_manifest(tmp_path / "one.json", out_dir="one"))]) == 0

        calls = []
        real = getattr(os, call)

        def failing_call():
            calls.append(1)
            if len(calls) == failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, call, failing_call)
        path = write_manifest(tmp_path / "forked.json", out_dir="forked")
        fds = sorted(os.listdir("/proc/self/fd"))
        assert main(["run", "--manifest", str(path), "--workers", str(workers)]) == 0
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert len(calls) == failing
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        trees = [
            {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            for out in (tmp_path / "one", tmp_path / "forked")
        ]
        assert len(trees[0]) == 2 + 8 * 5 + 4 * 2  # reports, cell files, indexes and sidecars
        assert trees[1] == trees[0]

    @pytest.mark.parametrize("fault", ["exit", "short"])
    def test_a_worker_whose_results_are_lost_fails_its_groups_cells(self, tmp_path, monkeypatch, fault):
        parent = os.getpid()
        run_cell = pipeline._run_cell
        if fault == "exit":
            def dying(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return run_cell(*args)

            monkeypatch.setattr(pipeline, "_run_cell", dying)
            text = "grid worker 1 exited with status 3; the results of its cells were lost"
        else:
            def short(obj, file, protocol):
                file.write(pickle.dumps(obj, protocol)[:10])

            monkeypatch.setattr(pickle, "dump", short)
            text = "grid worker 1 exited with status 0; the results of its cells were lost"
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        path = write_manifest(tmp_path / "exp.json")
        assert main(["run", "--manifest", str(path), "--workers", "2"]) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = {(c["domain"], c["k"], c["scenario"]): c["error"] for c in report["failed_cells"]}
        # The child's share is whole groups: both k of each of its (domain, scenario) pairs.
        assert len(failed) == 4
        assert set(failed.values()) == {text}
        assert {(d, s) for d, _, s in failed} == {(d, s) for d, k, s in failed if k == 1}
        assert len(report["cells"]) == 4
        for cell in failed:
            cell_dir = tmp_path / "out" / "cells" / "{}__k{}__{}".format(*cell)
            assert json.loads((cell_dir / "failed.json").read_text()) == {"error": text}
        assert report_experiment(load_manifest(path)).failed.keys() == {
            (*cell, "baseline_copy_first") for cell in failed
        }

    def test_keyboard_interrupt_in_the_parent_leaves_no_child(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # the child is still at work when the parent stops

        monkeypatch.setattr(pipeline, "_run_cell", interrupted)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self.run(tmp_path, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert time.perf_counter() - started < 30

    @pytest.mark.parametrize("mode", ["topk", "shuffle"])
    def test_each_cell_equals_its_own_augment_corpus_run(self, tmp_path, mode):
        settings = {"mode": mode, "pool": 4, "seed": 9, "exclude_self": True}
        report = self.run(tmp_path, k_values=[1, 2, 3], augmentation=settings)
        assert not report.failed
        manifest = load_manifest(tmp_path / "exp.json")
        tms = [load_corpus(path) for path in manifest.tms]
        for domain in manifest.domains:
            test = load_corpus(manifest.test_sets[domain], name=f"test[{domain}]")
            for scenario in manifest.scenarios:
                _, index = build_scenario(domain, tms, scenario, manifest.retrieval)
                for k in manifest.k_values:
                    name = f"{domain}__k{k}__{scenario}"
                    examples = augment_corpus(test, index, manifest.cell_config(k))
                    expected, _, _ = write_augmented(examples, tmp_path / "expected" / name)
                    cell = tmp_path / "out" / "cells" / name / "augmented.jsonl"
                    assert cell.read_bytes() == expected.read_bytes(), name

    @pytest.mark.parametrize("mode", ["topk", "shuffle"])
    def test_one_query_per_test_sentence_per_domain_and_scenario(self, tmp_path, monkeypatch, mode):
        queries = []
        query_top_n = augmentation.query_top_n

        def counting(index, query_text, *args):
            queries.append(query_text)
            return query_top_n(index, query_text, *args)

        monkeypatch.setattr("ratkit.augmentation.query_top_n", counting)
        report = self.run(tmp_path, k_values=[1, 2, 3], augmentation={"mode": mode, "pool": 4})
        assert len(report.cells) == 12
        # 20 test sentences in each of 2 domains, for each of 2 scenarios.
        assert len(queries) == 20 * 2 * 2

    def test_each_group_is_dealt_at_its_queries_times_its_scenario_index_size(self, tmp_path, monkeypatch):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        # Domains of unequal size, so that no wrong rule gives the same costs by chance.
        tm = TranslationMemory(tm.name, tuple(p for p in tm.pairs if not p.id.startswith("law-tm-000")))
        for domain, size in (("law", 5), ("med", 12)):
            test_sets[domain] = TranslationMemory(test_sets[domain].name, test_sets[domain].pairs[:size])
        materialize(tmp_path, tm, test_sets)
        domains = ["it", "law", "med"]
        path = write_manifest(tmp_path / "exp.json", domains=domains,
                              test_sets={d: f"test_{d}.jsonl" for d in domains})
        costs = {}
        deal = pipeline._deal

        def recording(groups, group_costs, n):
            costs.update(zip(groups, group_costs))
            return deal(groups, group_costs, n)

        monkeypatch.setattr(pipeline, "_deal", recording)
        run_experiment(load_manifest(path))
        assert set(costs) == set(product(domains, ("relevant", "less_relevant")))
        tms = [load_corpus(tmp_path / "tm.jsonl")]
        for (domain, scenario), cost in costs.items():
            _, index = build_scenario(domain, tms, scenario)
            assert cost == (1 + len(test_sets[domain])) * index.doc_count, (domain, scenario)

    def test_one_stats_matrix_call_per_cell_and_none_per_bootstrap(self, tmp_path, monkeypatch):
        rows = []
        stats_matrix = evaluation._stats_matrix

        def counting(hyps, refs):
            rows.append(len(refs))
            return stats_matrix(hyps, refs)

        monkeypatch.setattr("ratkit.evaluation._stats_matrix", counting)
        report = self.run(tmp_path)
        assert len(report.cells) == 8
        assert len(report.significance) == 4
        # One call per cell over its 20 test sentences; the bootstraps score none again.
        assert rows == [20] * 8

    def test_each_cell_scored_once_and_each_pair_of_cells_bootstrapped_once(self, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("bleu_corpus", "suggestion_overlap", "paired_bootstrap"):
            def counting(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)
        report = self.run(tmp_path)
        assert len(report.cells) == 8
        assert calls == {"bleu_corpus": 8, "suggestion_overlap": 8, "paired_bootstrap": 4}

    def test_significance_equals_a_bootstrap_of_the_hypothesis_files(self, tmp_path):
        # Every third test sentence is a law TM pair's, which only the
        # less_relevant TMs answer, so every comparison is contested.
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        law = [pair for pair in tm.pairs if pair.domain == "law"]
        for domain in ("it", "med"):
            pairs = list(test_sets[domain].pairs)
            for i in range(0, len(pairs), 3):
                pairs[i] = replace(pairs[i], source=law[i].source.replace(" now", " today"),
                                   target=law[i].target.replace(" pronto", " subito"))
            test_sets[domain] = TranslationMemory(domain, tuple(pairs))
        materialize(tmp_path, tm, test_sets)
        manifest = load_manifest(write_manifest(tmp_path / "exp.json", bootstrap={"n": 300, "seed": 11}))
        run_experiment(manifest)
        entries = json.loads((tmp_path / "out" / "report.json").read_text())["significance"]
        assert len(entries) == 4
        assert all(entry["wins_a"] and entry["wins_b"] for entry in entries)
        cells = tmp_path / "out" / "cells"
        for entry in entries:
            domain, k, system = entry["domain"], entry["k"], entry["system"]
            hyp_a = read_lines(cells / f"{domain}__k{k}__{entry['a']}" / "hyp.txt")
            hyp_b = read_lines(cells / f"{domain}__k{k}__{entry['b']}" / "hyp.txt")
            refs = [pair.target for pair in test_sets[domain].pairs]
            fresh = paired_bootstrap(
                bleu_corpus(hyp_a, refs), bleu_corpus(hyp_b, refs),
                n_samples=manifest.bootstrap.n_samples,
                seed=derive_seed(manifest.bootstrap.seed, domain, k, system),
            ).to_dict()
            for name in ("wins_a", "wins_b", "ties", "p_value", "observed_delta"):
                assert entry[name] == fresh[name], (domain, k, name)

    def assert_every_cell_fails_with(self, tmp_path, path, text):
        assert main(["run", "--manifest", str(path)]) == 1
        written = (tmp_path / "out" / "report.json").read_bytes()
        report = json.loads(written)
        assert not report["cells"]
        errors = [cell["error"] for cell in report["failed_cells"]]
        assert len(errors) == 8
        assert len(set(errors)) == 1
        assert text in errors[0]
        # The TM fault comes before any cell runs; each cell still records it.
        for cell in (tmp_path / "out" / "cells").iterdir():
            assert [p.name for p in cell.iterdir()] == ["failed.json"]
            assert json.loads((cell / "failed.json").read_text()) == {"error": errors[0]}
        report_experiment(load_manifest(path))
        assert (tmp_path / "out" / "report.json").read_bytes() == written

    def test_unindexable_pair_fails_every_cell(self, tmp_path):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        bad = SentencePair(id="med-tm-bad", source="!!!", target="t", domain="med")
        materialize(tmp_path, TranslationMemory(tm.name, tm.pairs + (bad,)), test_sets)
        path = write_manifest(tmp_path / "exp.json")
        self.assert_every_cell_fails_with(
            tmp_path, path, "ValidationError: pair 'med-tm-bad' has no postings"
        )

    def test_id_repeated_across_tm_files_fails_every_cell(self, tmp_path):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        law = [p for p in tm.pairs if p.domain == "law"]
        law[0] = replace(law[0], id="it-tm-0000")
        save_corpus(TranslationMemory("law", tuple(law)), tmp_path / "tm_law.jsonl")
        path = write_manifest(tmp_path / "exp.json", tms=["tm.jsonl", "tm_law.jsonl"])
        self.assert_every_cell_fails_with(
            tmp_path, path,
            "pair id 'it-tm-0000' occurs in both 'tm' and 'tm_law'; "
            "scenario merging requires globally unique ids",
        )

    @pytest.mark.parametrize("fault", ["load", "pool"])
    def test_tm_fault_comes_before_a_missing_test_set(self, tmp_path, fault):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        bad = SentencePair(id="med-tm-bad", source="!!!", target="t", domain="med")
        materialize(tmp_path, TranslationMemory(tm.name, tm.pairs + (bad,)), test_sets)
        if fault == "load":
            (tmp_path / "tm.jsonl").write_text("{bad\n", encoding="utf-8")
        (tmp_path / "test_med.jsonl").unlink()
        path = write_manifest(tmp_path / "exp.json")
        text = "tm.jsonl:1: invalid JSON" if fault == "load" else "pair 'med-tm-bad' has no postings"
        self.assert_every_cell_fails_with(tmp_path, path, text)
        assert list((tmp_path / "out" / "indexes").iterdir()) == []

    @pytest.mark.parametrize("fault", ["load", "pool"])
    def test_tm_fault_leaves_the_test_sets_unread(self, tmp_path, monkeypatch, fault):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        bad = SentencePair(id="med-tm-bad", source="!!!", target="t", domain="med")
        materialize(tmp_path, TranslationMemory(tm.name, tm.pairs + (bad,)), test_sets)
        if fault == "load":
            (tmp_path / "tm.jsonl").write_text("{bad\n", encoding="utf-8")
        path = write_manifest(tmp_path / "exp.json")
        out = tmp_path / "out"

        def outcome_files():
            return {p: p.read_bytes() for p in [out / "report.json", *out.glob("cells/*/failed.json")]}

        assert main(["run", "--manifest", str(path)]) == 1
        written = outcome_files()
        assert len(written) == 9
        opened = []

        def spy(corpus_path, *args, **kwargs):
            opened.append(Path(corpus_path).name)
            return load_corpus(corpus_path, *args, **kwargs)

        monkeypatch.setattr("ratkit.pipeline.load_corpus", spy)
        (tmp_path / "test_med.jsonl").write_bytes(b"\xff\xfe not UTF-8\n")
        assert main(["run", "--manifest", str(path)]) == 1
        assert opened == ["tm.jsonl"]
        assert outcome_files() == written

    def test_missing_test_set_comes_before_a_scenario_fault(self, tmp_path, monkeypatch):
        def faulty(domain, tms, relevance, *args):
            if (domain, relevance) == ("med", "relevant"):
                raise ValidationError("no scenario today")
            return build_scenario(domain, tms, relevance, *args)

        monkeypatch.setattr("ratkit.pipeline.build_scenario", faulty)
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        (tmp_path / "test_med.jsonl").unlink()
        path = write_manifest(tmp_path / "exp.json")
        report = run_experiment(load_manifest(path))
        assert {key[0] for key in report.cells} == {"it"}
        assert len(report.cells) == 4
        assert {key[0] for key in report.failed} == {"med"}
        assert len(report.failed) == 4
        for error in report.failed.values():
            assert "test_med.jsonl" in error and "no scenario today" not in error
        # The test set's fault leaves the domain's scenario indexes to be written.
        indexes = tmp_path / "out" / "indexes"
        assert (indexes / "med__less_relevant.idx").is_file()
        assert (indexes / "med__less_relevant.idx.scenario.json").is_file()
        assert not (indexes / "med__relevant.idx").exists()
        written = {name: (tmp_path / "out" / name).read_bytes() for name in ("report.json", "report.md")}
        assert report_experiment(load_manifest(path)) == report
        for name, data in written.items():
            assert (tmp_path / "out" / name).read_bytes() == data, name

    def test_suggestion_from_an_excluded_domain_fails_its_group(self, tmp_path, monkeypatch):
        monkeypatch.setattr("ratkit.pipeline.build_scenario", leak_into_it_relevant)
        report = self.run(tmp_path)
        assert set(report.failed) == {("it", k, "relevant", "baseline_copy_first") for k in (1, 2)}
        for error in report.failed.values():
            assert error.startswith("ValidationError: relevant scenario for 'it' suggested ")
            assert "from excluded domain" in error and "for pair 'it-test-" in error
        assert len(report.cells) == 6
        # The failed cells take out their own scenario's average only.
        assert set(report.averages) == {("baseline_copy_first", "less_relevant")}

    def test_one_failed_cell_takes_out_its_rows_and_scenarios_averages_only(self, tmp_path, monkeypatch):
        def translate_but_med_k2_relevant(spec, examples):
            suggestions = [s for ex in examples for s in ex.suggestions]
            if (
                examples[0].pair_id.startswith("med-")
                and any(len(ex.suggestions) == 2 for ex in examples)
                and all(s.domain == "med" for s in suggestions)
            ):
                raise TranslatorError("boom")
            return translate(spec, examples)

        monkeypatch.setattr("ratkit.pipeline.translate", translate_but_med_k2_relevant)
        report = self.run(tmp_path)
        system = "baseline_copy_first"
        assert set(report.failed) == {("med", 2, "relevant", system)}
        assert len(report.cells) == 7
        payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert [a["scenario"] for a in payload["averages"]] == ["less_relevant"]
        markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")

        def table_rows(title: str, scenario: str) -> dict[int, list[str]]:
            table = markdown.split(f"## {title}\n")[1].split(f"### {scenario}\n")[1].split("\n\n")[0]
            rows = [line.strip("| ").split(" | ") for line in table.strip().splitlines()[2:]]
            return {int(row[1]): row[2:] for row in rows}

        for title, value in (
            ("BLEU per domain", lambda cell: cell.bleu.score),
            ("Suggestion token overlap (%) per domain", lambda cell: cell.overlap_pct),
        ):
            for scenario, k in product(("relevant", "less_relevant"), (1, 2)):
                cells = [report.cells.get((d, k, scenario, system)) for d in ("it", "med")]
                shown = table_rows(title, scenario)[k]
                if (scenario, k) == ("relevant", 2):
                    assert shown == [f"{value(cells[0]):.2f}", "-", "-"], title
                else:
                    it, med = map(value, cells)
                    assert shown == [f"{it:.2f}", f"{med:.2f}", f"{(it + med) / 2:.2f}"], (title, scenario, k)

    @pytest.mark.parametrize("grid", ["failed", "clean"])
    def test_report_bytes_equal_the_golden_files(self, tmp_path, monkeypatch, grid):
        # Relative paths keep tmp_path out of the error texts.
        monkeypatch.chdir(tmp_path)
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, {domain: test_sets[domain] for domain in ("it", "med")})
        # The failed grid's law domain has no test set, and its (it, relevant)
        # group is handed less_relevant suggestions, which fail that group only.
        domains = ["it", "med", "law"] if grid == "failed" else ["it", "med"]
        test_set_files = {domain: f"test_{domain}.jsonl" for domain in domains}
        write_manifest(tmp_path / "exp.json", domains=domains, test_sets=test_set_files)
        if grid == "failed":
            monkeypatch.setattr("ratkit.pipeline.build_scenario", leak_into_it_relevant)
        manifest = load_manifest("exp.json")
        for build in (run_experiment, report_experiment):
            for name in ("report.json", "report.md"):
                (tmp_path / "out" / name).unlink(missing_ok=True)
            build(manifest)
            for name in ("report.json", "report.md"):
                golden = (GOLDEN / f"{grid}_grid_{name}").read_bytes()
                assert (tmp_path / "out" / name).read_bytes() == golden, (build.__name__, name)

    def test_worker_count_validated(self, tmp_path):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        materialize(tmp_path, tm, test_sets)
        manifest = load_manifest(write_manifest(tmp_path / "exp.json"))
        with pytest.raises(ConfigurationError, match="workers"):
            run_experiment(manifest, workers=0)
