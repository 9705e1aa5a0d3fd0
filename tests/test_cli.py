"""Command-line interface: every subcommand end to end over temp files."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ratkit import pipeline
from ratkit.augmentation import AugmentedExample, read_augmented, write_augmented
from ratkit.cli import main
from ratkit.corpus import load_corpus, read_lines, save_corpus, write_lines
from ratkit.retrieval import build_index, load_index, save_index

from synthetic import INDEX_HEADER, checksum_line, index_file, make_three_domain, tiny_tm


def write_corpora(root):
    tm, test_sets = make_three_domain(tm_per_domain=25, test_per_domain=15)
    save_corpus(tm, root / "tm.jsonl")
    for domain, tests in test_sets.items():
        save_corpus(tests, root / f"test_{domain}.jsonl")
    return root


@pytest.fixture()
def corpus_files(tmp_path):
    return write_corpora(tmp_path)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_manifest(root, **overrides):
    manifest = {
        "tms": ["tm.jsonl"],
        "test_sets": {"it": "test_it.jsonl", "med": "test_med.jsonl"},
        "domains": ["it", "med"],
        "k_values": [1],
        "scenarios": ["relevant", "less_relevant"],
        "translator": {"kind": "baseline_copy_first"},
        "out_dir": "out",
        "bootstrap": {"n": 50},
        **overrides,
    }
    path = root / "exp.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


# Fails every cell: a run whose cells all hold a failed.json.
FAILING = {"kind": "external_command", "command": "exit 4 # {input} {output}"}


def run_grid(root, **overrides):
    """The manifest path of a finished ``ratkit run`` over fresh corpora in ``root``."""
    path = write_manifest(write_corpora(root), **overrides)
    assert run_cli("run", "--manifest", path) in (0, 1)
    return path


class TestIndexCommand:
    def test_builds_loadable_index(self, corpus_files, capsys):
        out = corpus_files / "tm.idx"
        code = run_cli("index", "--corpus", corpus_files / "tm.jsonl", "--out", out)
        assert code == 0
        assert "indexed 75 pairs" in capsys.readouterr().out
        index = load_index(out)
        assert index.doc_count == 75
        assert index.params.k1 == 1.2

    def test_custom_bm25_params_stored(self, corpus_files):
        out = corpus_files / "tm.idx"
        run_cli("index", "--corpus", corpus_files / "tm.jsonl", "--out", out,
                "--k1", "0.9", "--b", "0.4")
        index = load_index(out)
        assert (index.params.k1, index.params.b) == (0.9, 0.4)

    def test_output_in_a_missing_directory_exits_2(self, corpus_files, capsys):
        out = corpus_files / "nodir" / "tm.idx"
        code = run_cli("index", "--corpus", corpus_files / "tm.jsonl", "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_missing_corpus_exits_2(self, corpus_files, capsys):
        code = run_cli("index", "--corpus", corpus_files / "nope.jsonl",
                       "--out", corpus_files / "x.idx")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "name, good",
        [
            ("tm.jsonl", b'{"id": "a", "domain": "d", "src": "caf", "tgt": "t"}\n'),
            ("tm.tsv", b"a\td\tcaf\tt\n"),
        ],
    )
    def test_non_utf8_corpus_exits_2_naming_the_line(self, tmp_path, capsys, name, good):
        corpus = tmp_path / name
        corpus.write_bytes(good + good.replace(b"caf", b"caf\xe9").replace(b"a", b"b", 1))
        code = run_cli("index", "--corpus", corpus, "--out", tmp_path / "x.idx")
        assert code == 2
        assert f"{corpus}:2: not valid UTF-8" in capsys.readouterr().err


    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int digit limit"
    )
    def test_integer_past_the_digit_limit_exits_2_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "tm.jsonl"
        good = '{"id": "a", "domain": "d", "src": "x", "tgt": "y"}\n'
        huge = '{"id": "b", "domain": "d", "src": "x", "tgt": "y", "n": 1%s}\n' % ("0" * 5000)
        corpus.write_text(good + huge, encoding="utf-8")
        code = run_cli("index", "--corpus", corpus, "--out", tmp_path / "x.idx")
        assert code == 2
        assert f"{corpus}:2: invalid JSON" in capsys.readouterr().err

    def test_lone_surrogate_exits_2_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "tm.jsonl"
        line = '{"id": "a", "domain": "d", "src": "click \\ud800 here", "tgt": "y"}\n'
        corpus.write_text(line, encoding="utf-8")
        code = run_cli("index", "--corpus", corpus, "--out", tmp_path / "x.idx")
        assert code == 2
        assert f"{corpus}:1: field 'src' holds a lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "x.idx").exists()

    def test_a_k1_that_overflows_a_weight_exits_2(self, tmp_path, capsys):
        # A rare term said three times: idf * tf * (k1 + 1) passes the float maximum.
        corpus = tmp_path / "tm.jsonl"
        lines = [
            json.dumps({"id": f"p{i}", "domain": "it", "src": f"common words item{i}" + " rare" * 3 * (i == 7),
                        "tgt": f"ziel {i}"})
            for i in range(50)
        ]
        write_lines(lines, corpus)
        code = run_cli("index", "--corpus", corpus, "--out", tmp_path / "x.idx", "--k1", "1e308")
        assert code == 2
        assert capsys.readouterr().err == "error: k1 = 1e+308 is too large: a BM25 weight overflows\n"
        assert not (tmp_path / "x.idx").exists()


class TestScenarioCommand:
    def test_relevant_scenario_with_sidecar(self, corpus_files, capsys):
        out = corpus_files / "it_rel.idx"
        code = run_cli("scenario", "--test-domain", "it", "--relevance", "relevant",
                       "--tms", corpus_files / "tm.jsonl", "--out", out)
        assert code == 0
        assert "relevant scenario for 'it': 25 pairs" in capsys.readouterr().out
        assert load_index(out).doc_count == 25
        sidecar = json.loads((corpus_files / "it_rel.idx.scenario.json").read_text())
        assert sidecar["test_domain"] == "it"
        assert sidecar["resolved_domains"] == ["it"]

    def test_hyphenated_relevance_accepted(self, corpus_files):
        out = corpus_files / "it_less.idx"
        code = run_cli("scenario", "--test-domain", "it", "--relevance", "less-relevant",
                       "--tms", corpus_files / "tm.jsonl", "--out", out)
        assert code == 0
        assert load_index(out).doc_count == 50
        sidecar = json.loads((corpus_files / "it_less.idx.scenario.json").read_text())
        assert sidecar["relevance"] == "less_relevant"
        assert sidecar["resolved_domains"] == ["law", "med"]

    def test_unknown_domain_exits_2(self, corpus_files, capsys):
        code = run_cli("scenario", "--test-domain", "finance", "--relevance", "relevant",
                       "--tms", corpus_files / "tm.jsonl", "--out", corpus_files / "x.idx")
        assert code == 2
        assert "finance" in capsys.readouterr().err

    def test_unknown_relevance_exits_2(self, corpus_files, capsys):
        code = run_cli("scenario", "--test-domain", "it", "--relevance", "sideways",
                       "--tms", corpus_files / "tm.jsonl", "--out", corpus_files / "x.idx")
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown scenario 'sideways'" in err
        assert "Traceback" not in err
        assert not (corpus_files / "x.idx").exists()


class TestAugmentCommand:
    def test_writes_three_aligned_files(self, corpus_files, capsys):
        idx = corpus_files / "it_rel.idx"
        run_cli("scenario", "--test-domain", "it", "--relevance", "relevant",
                "--tms", corpus_files / "tm.jsonl", "--out", idx)
        code = run_cli("augment", "--index", idx, "--corpus", corpus_files / "test_it.jsonl",
                       "--k", "2", "--out", corpus_files / "aug")
        assert code == 0
        assert "augmented 15 examples" in capsys.readouterr().out
        examples = read_augmented(corpus_files / "aug.jsonl")
        assert len(examples) == 15
        assert all(len(ex.suggestions) == 2 for ex in examples)
        flat = (corpus_files / "aug.flat.txt").read_text().splitlines()
        refs = (corpus_files / "aug.ref.txt").read_text().splitlines()
        assert len(flat) == len(refs) == 15
        assert flat == [ex.flat_input for ex in examples]

    def test_a_bad_separator_exits_2_creating_nothing(self, corpus_files, capsys):
        save_index(build_index(load_corpus(corpus_files / "tm.jsonl")), corpus_files / "tm.idx")
        target = load_corpus(corpus_files / "tm.jsonl").pairs[0].target.split()[0]
        code = run_cli("augment", "--index", corpus_files / "tm.idx", "--corpus", corpus_files / "tm.jsonl",
                       "--k", "1", "--separator", target, "--out", corpus_files / "new" / "aug")
        assert code == 2
        assert f"separator {target!r} occurs" in capsys.readouterr().err
        assert not (corpus_files / "new").exists()

    def test_shuffle_mode_seed_controls_output(self, corpus_files):
        idx = corpus_files / "it_rel.idx"
        run_cli("scenario", "--test-domain", "it", "--relevance", "relevant",
                "--tms", corpus_files / "tm.jsonl", "--out", idx)
        base = ["augment", "--index", idx, "--corpus", corpus_files / "test_it.jsonl",
                "--k", "2", "--mode", "shuffle", "--pool", "6"]
        run_cli(*base, "--seed", "1", "--out", corpus_files / "s1")
        run_cli(*base, "--seed", "1", "--out", corpus_files / "s1b")
        run_cli(*base, "--seed", "2", "--out", corpus_files / "s2")
        first = (corpus_files / "s1.jsonl").read_bytes()
        assert (corpus_files / "s1b.jsonl").read_bytes() == first
        assert (corpus_files / "s2.jsonl").read_bytes() != first


class TestBleuCommand:
    def test_identity_prints_100(self, tmp_path, capsys):
        lines = ["der Hund bellt heute laut", "die Katze schläft"]
        write_lines(lines, tmp_path / "hyp.txt")
        write_lines(lines, tmp_path / "ref.txt")
        code = run_cli("bleu", "--hyp", tmp_path / "hyp.txt", "--ref", tmp_path / "ref.txt")
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("BLEU = 100.00 100.0/100.0/100.0/100.0 (BP = 1.000")
        assert "hyp_len = 8 ref_len = 8" in out

    def test_length_mismatch_exits_2(self, tmp_path, capsys):
        write_lines(["a", "b"], tmp_path / "hyp.txt")
        write_lines(["a"], tmp_path / "ref.txt")
        code = run_cli("bleu", "--hyp", tmp_path / "hyp.txt", "--ref", tmp_path / "ref.txt")
        assert code == 2
        assert "mismatch" in capsys.readouterr().err


class TestOverlapCommand:
    def prepare(self, corpus_files):
        idx = corpus_files / "it_rel.idx"
        run_cli("scenario", "--test-domain", "it", "--relevance", "relevant",
                "--tms", corpus_files / "tm.jsonl", "--out", idx)
        run_cli("augment", "--index", idx, "--corpus", corpus_files / "test_it.jsonl",
                "--k", "1", "--out", corpus_files / "aug")
        return read_augmented(corpus_files / "aug.jsonl")

    def test_copying_the_suggestion_scores_100(self, corpus_files, capsys):
        examples = self.prepare(corpus_files)
        write_lines([ex.suggestions[0].target for ex in examples], corpus_files / "hyp.txt")
        capsys.readouterr()
        code = run_cli("overlap", "--augmented", corpus_files / "aug.jsonl",
                       "--hyp", corpus_files / "hyp.txt")
        assert code == 0
        assert "overlap = 100.00% over 15 sentences (0 skipped)" in capsys.readouterr().out

    def test_no_suggestions_reports_undefined(self, tmp_path, capsys):
        save_corpus(tiny_tm(), tmp_path / "tiny.jsonl")
        run_cli("index", "--corpus", tmp_path / "tiny.jsonl", "--out", tmp_path / "tiny.idx")
        strangers = tmp_path / "strangers.jsonl"
        strangers.write_text(
            json.dumps({"id": "q1", "domain": "a", "src": "zzzz qqqq", "tgt": "x"}) + "\n"
        )
        run_cli("augment", "--index", tmp_path / "tiny.idx", "--corpus", strangers,
                "--k", "1", "--out", tmp_path / "aug")
        write_lines(["x"], tmp_path / "hyp.txt")
        capsys.readouterr()
        code = run_cli("overlap", "--augmented", tmp_path / "aug.jsonl",
                       "--hyp", tmp_path / "hyp.txt")
        assert code == 0
        assert "overlap undefined" in capsys.readouterr().out


    def test_malformed_augmented_line_exits_2(self, corpus_files, capsys):
        self.prepare(corpus_files)
        path = corpus_files / "aug.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:-5]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_lines(["x"] * len(lines), corpus_files / "hyp.txt")
        capsys.readouterr()
        code = run_cli("overlap", "--augmented", path, "--hyp", corpus_files / "hyp.txt")
        assert code == 2
        assert f"{path}:3: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("tgt", 5, "field 'suggestions[0].tgt' must be a string, got 5"),
            ("id", None, "field 'suggestions[0].id' must be a string, got None"),
            ("rank", True, "field 'suggestions[0].rank' must be an integer, got True"),
            ("rank", 1.0, "field 'suggestions[0].rank' must be an integer, got 1.0"),
            ("score", "9.5", "field 'suggestions[0].score' must be a finite number, got '9.5'"),
            ("score", float("nan"), "field 'suggestions[0].score' must be a finite number, got nan"),
            ("score", False, "field 'suggestions[0].score' must be a finite number, got False"),
        ],
    )
    def test_wrongly_typed_suggestion_field_exits_2_naming_the_line(
        self, corpus_files, capsys, field, value, error
    ):
        self.prepare(corpus_files)
        path = corpus_files / "aug.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["suggestions"][0][field] = value
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_lines(["x"] * len(lines), corpus_files / "hyp.txt")
        capsys.readouterr()
        code = run_cli("overlap", "--augmented", path, "--hyp", corpus_files / "hyp.txt")
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:2: malformed augmented record (TypeError: {error})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, error",
        [
            ("[]", "the record must be an object, got []"),
            ('{"id": "p", "src": 5}', "field 'src' must be a string, got 5"),
            ('{"id": "p", "src": "s", "ref": "r", "suggestions": {}}',
             "field 'suggestions' must be a list, got {}"),
            ('{"id": "p", "src": "s", "ref": "r", "suggestions": ["x"]}',
             "field 'suggestions[0]' must be an object, got 'x'"),
            ('{"id": "p", "src": "s", "ref": "r", "suggestions": [], "flat": 0}',
             "field 'flat' must be a string, got 0"),
        ],
    )
    def test_wrongly_typed_record_exits_2_naming_the_line(self, tmp_path, capsys, line, error):
        path = tmp_path / "aug.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        write_lines(["x"], tmp_path / "hyp.txt")
        code = run_cli("overlap", "--augmented", path, "--hyp", tmp_path / "hyp.txt")
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:1: malformed augmented record (TypeError: {error})" in err
        assert "Traceback" not in err


class TestCompareCommand:
    def test_clear_winner_reported_significant(self, tmp_path, capsys):
        refs = [f"zeile {i} endet mit marke m{i:02d}" for i in range(60)]
        write_lines(refs, tmp_path / "a.txt")
        write_lines([""] * 60, tmp_path / "b.txt")
        write_lines(refs, tmp_path / "ref.txt")
        code = run_cli("compare", "--hyp-a", tmp_path / "a.txt", "--hyp-b", tmp_path / "b.txt",
                       "--ref", tmp_path / "ref.txt", "--bootstrap", "200")
        out = capsys.readouterr().out
        assert code == 0
        assert "p = 0.0000" in out
        assert out.rstrip().endswith("significant at 0.05")
        assert "wins_a = 200" in out

    def test_identical_systems_not_significant(self, tmp_path, capsys):
        refs = [f"zeile nummer {i}" for i in range(20)]
        write_lines(refs, tmp_path / "a.txt")
        write_lines(refs, tmp_path / "ref.txt")
        code = run_cli("compare", "--hyp-a", tmp_path / "a.txt", "--hyp-b", tmp_path / "a.txt",
                       "--ref", tmp_path / "ref.txt", "--bootstrap", "100")
        out = capsys.readouterr().out
        assert code == 0
        assert "p = 1.0000" in out
        assert "not significant" in out

    @pytest.mark.parametrize("p_thresh", ["0", "1.5"])
    def test_p_thresh_outside_unit_interval_exits_2(self, tmp_path, capsys, p_thresh):
        refs = [f"zeile nummer {i}" for i in range(20)]
        write_lines(refs, tmp_path / "a.txt")
        write_lines(refs, tmp_path / "ref.txt")
        code = run_cli("compare", "--hyp-a", tmp_path / "a.txt", "--hyp-b", tmp_path / "a.txt",
                       "--ref", tmp_path / "ref.txt", "--p-thresh", p_thresh)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "threshold must be in (0, 1)" in captured.err

    # Counts too large for any array, so none of them allocates.
    @pytest.mark.parametrize("count", [2**62, 2**63, 10**400], ids=["2**62", "2**63", "10**400"])
    def test_bootstrap_count_too_large_to_resample_exits_2(self, tmp_path, capsys, count):
        refs = [f"zeile nummer {i}" for i in range(20)]
        write_lines(refs, tmp_path / "a.txt")
        write_lines(refs, tmp_path / "ref.txt")
        code = run_cli("compare", "--hyp-a", tmp_path / "a.txt", "--hyp-b", tmp_path / "a.txt",
                       "--ref", tmp_path / "ref.txt", "--bootstrap", count)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"n_samples must be at most 57646075230342348 to resample, got {count}" in captured.err
        assert "Traceback" not in captured.err

    def test_hypothesis_file_one_line_short_exits_2(self, tmp_path, capsys):
        refs = [f"zeile nummer {i}" for i in range(20)]
        write_lines(refs, tmp_path / "full.txt")
        write_lines(refs[:-1], tmp_path / "short.txt")
        write_lines(refs, tmp_path / "ref.txt")
        full, short, ref = tmp_path / "full.txt", tmp_path / "short.txt", tmp_path / "ref.txt"
        for flag, hyp_a, hyp_b in (("--hyp-a", short, full), ("--hyp-b", full, short)):
            code = run_cli("compare", "--hyp-a", hyp_a, "--hyp-b", hyp_b, "--ref", ref)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {flag} {short} has 19 lines; --ref {ref} has 20\n"

    @pytest.mark.parametrize("short_side", ["--hyp", "--ref"])
    def test_bleu_names_both_files_on_a_length_mismatch(self, tmp_path, capsys, short_side):
        lines = [f"zeile nummer {i}" for i in range(20)]
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        write_lines(lines[:-1] if short_side == "--hyp" else lines, hyp)
        write_lines(lines[:-1] if short_side == "--ref" else lines, ref)
        code = run_cli("bleu", "--hyp", hyp, "--ref", ref)
        captured = capsys.readouterr()
        n_hyp, n_ref = (19, 20) if short_side == "--hyp" else (20, 19)
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --hyp {hyp} has {n_hyp} lines; --ref {ref} has {n_ref}\n"

    @pytest.mark.parametrize("short_side", ["--augmented", "--hyp"])
    def test_overlap_names_both_files_on_a_length_mismatch(self, tmp_path, capsys, short_side):
        lines = [f"zeile nummer {i}" for i in range(3)]
        examples = [AugmentedExample(f"p{i}", line, line, (), line) for i, line in enumerate(lines)]
        aug, hyp = tmp_path / "aug", tmp_path / "hyp.txt"
        write_augmented(examples[:-1] if short_side == "--augmented" else examples, aug)
        write_lines(lines[:-1] if short_side == "--hyp" else lines, hyp)
        code = run_cli("overlap", "--augmented", f"{aug}.jsonl", "--hyp", hyp)
        captured = capsys.readouterr()
        n_aug, n_hyp = (2, 3) if short_side == "--augmented" else (3, 2)
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --augmented {aug}.jsonl has {n_aug} records; --hyp {hyp} has {n_hyp} lines\n"


class TestReportCommand:
    """``ratkit report`` rebuilds a run's report from its cell directories."""

    def assert_reproduces_the_run(self, path, capsys, code):
        out = path.parent / "out"
        run_output = capsys.readouterr()
        written = {name: (out / name).read_bytes() for name in ("report.json", "report.md")}
        for name in written:
            (out / name).unlink()
        assert run_cli("report", "--manifest", path) == code
        assert capsys.readouterr() == run_output
        for name, data in written.items():
            assert (out / name).read_bytes() == data, name
        return json.loads(written["report.json"])

    def test_aggregates_cells_into_json_and_markdown(self, tmp_path, capsys):
        path = run_grid(tmp_path, k_values=[1, 2])
        report = self.assert_reproduces_the_run(path, capsys, 0)
        assert len(report["cells"]) == 8
        assert len(report["significance"]) == 4
        assert len(report["averages"]) == 2

    def test_reproduces_a_run_with_failed_cells(self, tmp_path, capsys):
        # Only a k=2 cell's flat inputs hold two suggestions.
        command = "grep -q '@@SEP@@.*@@SEP@@' {input} && exit 3; cp {input} {output}"
        translator = {"kind": "external_command", "command": command}
        path = run_grid(tmp_path, k_values=[1, 2], translator=translator)
        report = self.assert_reproduces_the_run(path, capsys, 1)
        assert {cell["k"] for cell in report["failed_cells"]} == {2}
        assert len(report["failed_cells"]) == 4
        assert len(report["cells"]) == 4
        assert len(report["significance"]) == 2
        assert report["averages"] == []

    def test_reproduces_a_run_whose_test_set_failed_before_its_cells(self, tmp_path, capsys):
        write_corpora(tmp_path)
        (tmp_path / "test_med.jsonl").write_text("{bad\n", encoding="utf-8")
        path = write_manifest(tmp_path)
        assert run_cli("run", "--manifest", path) == 1
        report = self.assert_reproduces_the_run(path, capsys, 1)
        assert {cell["domain"] for cell in report["failed_cells"]} == {"med"}
        for cell in ("med__k1__relevant", "med__k1__less_relevant"):
            assert sorted(p.name for p in (tmp_path / "out" / "cells" / cell).iterdir()) == [
                "failed.json"
            ]

    def test_reproduces_a_run_whose_k1_overflows_a_weight(self, tmp_path, capsys):
        # No TM set can be indexed with this k1, so every cell fails as it does
        # for a pair id found in two TMs, and no score is inf.
        path = run_grid(tmp_path, retrieval={"k1": 1e308})
        report = self.assert_reproduces_the_run(path, capsys, 1)
        assert report["cells"] == []
        assert len(report["failed_cells"]) == 4
        errors = {cell["error"] for cell in report["failed_cells"]}
        assert errors == {"ValidationError: k1 = 1e+308 is too large: a BM25 weight overflows"}

    def test_rerun_that_fails_leaves_no_earlier_outcome(self, tmp_path, capsys):
        path = run_grid(tmp_path, k_values=[1, 2], translator={"kind": "baseline_oracle_copy"})
        assert capsys.readouterr().out.startswith("8 cells completed, 0 failed")
        write_manifest(tmp_path, k_values=[1, 2], translator=FAILING)
        assert run_cli("run", "--manifest", path) == 1
        cells = list((tmp_path / "out" / "cells").iterdir())
        assert len(cells) == 8
        for cell in cells:
            assert (cell / "failed.json").is_file()
            assert not (cell / "cell.json").exists()
            assert not (cell / "hyp.txt").exists()
        report = self.assert_reproduces_the_run(path, capsys, 1)
        assert report["cells"] == []
        assert len(report["failed_cells"]) == 8

    def test_empty_cells_dir_exits_2(self, tmp_path, capsys):
        path = write_manifest(write_corpora(tmp_path))
        (tmp_path / "out" / "cells").mkdir(parents=True)
        code = run_cli("report", "--manifest", path)
        assert code == 2
        cell = tmp_path / "out" / "cells" / "it__k1__relevant"
        assert f"cell directory {cell} must hold one of cell.json and failed.json" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda text: json.dumps({"reason": json.loads(text)["error"]}),
             ': malformed failed cell record; expected {"error": <text>}'),
            (lambda text: "{" + text, ":1: invalid JSON"),
        ],
        ids=["missing-key", "not-json"],
    )
    def test_malformed_cell_exits_2_naming_the_file(self, tmp_path, capsys, corrupt, error):
        path = run_grid(tmp_path, translator=FAILING)
        record = tmp_path / "out" / "cells" / "med__k1__relevant" / "failed.json"
        record.write_text(corrupt(record.read_text(encoding="utf-8")), encoding="utf-8")
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"{record}{error}" in capsys.readouterr().err

    def test_lone_surrogate_in_a_failed_cell_error_exits_2_naming_the_file(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        cell = tmp_path / "out" / "cells" / "med__k1__relevant"
        (cell / "cell.json").unlink()
        record = cell / "failed.json"
        record.write_text('{"error": "boom \\ud800"}\n', encoding="utf-8")
        capsys.readouterr()
        code = run_cli("report", "--manifest", path)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{record}: the error text holds a lone surrogate (\\ud800)" in err
        assert "Traceback" not in err

    def test_cells_of_another_system_exit_2(self, tmp_path, capsys):
        translator = {"kind": "external_command", "command": "cp {input} {output}"}
        path = run_grid(tmp_path, translator=translator)
        write_manifest(tmp_path, translator={"kind": "baseline_oracle_copy"})
        code = run_cli("report", "--manifest", path)
        assert code == 2
        record = tmp_path / "out" / "cells" / "it__k1__relevant" / "cell.json"
        assert (
            f"{record}: the cell record's system is 'external_command', "
            "not the manifest's 'baseline_oracle_copy'"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda cells: (cells / "med__k1__relevant" / "cell.json").read_text(encoding="utf-8"),
             ": the cell record's domain is 'med', not the manifest's 'it'"),
            (lambda cells: json.dumps({**json.loads((cells / "it__k1__relevant" / "cell.json")
                                                    .read_text(encoding="utf-8")), "k": True}),
             ": the cell record's k is True, not the manifest's 1"),
            (lambda cells: json.dumps({"domain": "it", "k": 1, "scenario": "relevant"}),
             ": the cell record's system is None, not the manifest's 'baseline_copy_first'"),
            (lambda cells: "[]", ": malformed cell record; expected a JSON object"),
            (lambda cells: "{" + (cells / "it__k1__relevant" / "cell.json").read_text(encoding="utf-8"),
             ":1: invalid JSON"),
        ],
        ids=["other-domain", "bool-k", "no-system", "not-an-object", "not-json"],
    )
    def test_mislabelled_or_malformed_cell_record_exits_2(self, tmp_path, capsys, corrupt, error):
        path = run_grid(tmp_path)
        cells = tmp_path / "out" / "cells"
        record = cells / "it__k1__relevant" / "cell.json"
        record.write_text(corrupt(cells), encoding="utf-8")
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"{record}{error}" in capsys.readouterr().err

    def test_incomplete_grid_exits_2(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        cell = tmp_path / "out" / "cells" / "med__k1__less_relevant"
        shutil.rmtree(cell)
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"cell directory {cell} must hold one of" in capsys.readouterr().err

    def test_cell_holding_both_records_exits_2(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        cell = tmp_path / "out" / "cells" / "it__k1__relevant"
        (cell / "failed.json").write_text('{"error": "stale"}\n', encoding="utf-8")
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"cell directory {cell} must hold one of" in capsys.readouterr().err

    def test_malformed_augmented_file_exits_2_naming_the_line(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        augmented = tmp_path / "out" / "cells" / "it__k1__relevant" / "augmented.jsonl"
        lines = augmented.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({k: v for k, v in json.loads(lines[1]).items() if k != "ref"}) + "\n"
        augmented.write_text("".join(lines), encoding="utf-8")
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"{augmented}:2: malformed augmented record (KeyError: 'ref')" in (
            capsys.readouterr().err
        )

    def test_wrongly_typed_augmented_field_exits_2_naming_the_line(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        augmented = tmp_path / "out" / "cells" / "it__k1__relevant" / "augmented.jsonl"
        lines = augmented.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), "ref": ["x"]}) + "\n"
        augmented.write_text("".join(lines), encoding="utf-8")
        code = run_cli("report", "--manifest", path)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{augmented}:2: malformed augmented record (TypeError: field 'ref' must be a string" in err
        assert "Traceback" not in err

    def test_missing_hypotheses_exit_2_naming_the_file(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        hyp = tmp_path / "out" / "cells" / "med__k1__relevant" / "hyp.txt"
        hyp.unlink()
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"cannot read text file {hyp}" in capsys.readouterr().err

    def test_short_hypotheses_exit_2_naming_the_cell(self, tmp_path, capsys):
        path = run_grid(tmp_path)
        cell = tmp_path / "out" / "cells" / "med__k1__relevant"
        write_lines(read_lines(cell / "hyp.txt")[:-1], cell / "hyp.txt")
        code = run_cli("report", "--manifest", path)
        assert code == 2
        assert f"cell directory {cell}: hypothesis/reference length mismatch: 14 vs 15" in (
            capsys.readouterr().err
        )


class TestRunCommand:
    def test_healthy_grid_exits_0(self, corpus_files, capsys):
        code = run_cli("run", "--manifest", write_manifest(corpus_files))
        captured = capsys.readouterr()
        assert code == 0
        assert "4 cells completed, 0 failed" in captured.out
        assert captured.err == ""
        assert (corpus_files / "out" / "report.json").is_file()

    def test_failed_cells_exit_1_with_stderr(self, corpus_files, capsys):
        (corpus_files / "test_med.jsonl").unlink()
        code = run_cli("run", "--manifest", write_manifest(corpus_files))
        captured = capsys.readouterr()
        assert code == 1
        assert "2 cells completed, 2 failed" in captured.out
        assert captured.err.count("failed ('med'") == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"bootstrap": 5},
            {"retrieval": [1]},
            {"augmentation": {"pool": "ten"}},
            {"k_values": ["one"]},
            {"k_values": [1.5]},
            {"bootstrap": {"n": 2.5}},
            {"translator": {"kind": "baseline_copy_first", "timeout": "soon"}},
            {"augmentation": {"separator": 5}},
            {"augmentation": {"separator": "a b"}},
            {"augmentation": {"exclude_self": "false"}},
            {"augmentation": {"mode": 1}},
            {"augmentation": {"mode": "sideways"}},
            {"augmentation": {"mode": "shuffle", "pool": 0}},
            {"translator": {"kind": "baseline_copy_first", "timeout": float("nan")}},
            {"k_value": [1]},
            {"translator": {"kind": "baseline_copy_first", "timout": 5}},
            {"augmentation": {"pool_size": 3}},
            {"bootstrap": {"samples": 7}},
            {"retrieval": {"k_1": 1.0}},
            '"bootstrap": {"n": 5, "n": 7}',
            {"translator": {"kind": "baseline_copy_first", "timeout": 10**400}},
            {"retrieval": {"k1": 10**400}},
            {"domains": ["a\0b"], "test_sets": {"a\0b": "test_it.jsonl"}},
            {"domains": ["\ud800"], "test_sets": {"\ud800": "test_it.jsonl"}},
            {"out_dir": "g\0rid"},
            {"bootstrap": {"n": 2**62}},
            {"bootstrap": {"n": 2**63}},
            {"bootstrap": {"n": 10**400}},
        ],
        ids=["bootstrap-int", "retrieval-list", "pool-str", "k-str", "k-float", "n-float",
             "timeout-str", "separator-int", "separator-space", "exclude-self-str",
             "mode-int", "mode-unknown", "shuffle-pool-below-k", "timeout-nan",
             "unknown-top-level-key", "unknown-translator-key", "unknown-augmentation-key",
             "unknown-bootstrap-key", "unknown-retrieval-key", "duplicate-key",
             "timeout-huge-int", "k1-huge-int", "domain-nul", "domain-lone-surrogate",
             "out-dir-nul", "bootstrap-2**62", "bootstrap-2**63", "bootstrap-10**400"],
    )
    def test_malformed_manifest_field_exits_2(self, corpus_files, capsys, override):
        path = write_manifest(corpus_files)
        text = path.read_text(encoding="utf-8")
        if isinstance(override, str):  # raw JSON member: a dict cannot repeat a key
            text = text.replace('"bootstrap": {"n": 50}', override)
        else:
            text = json.dumps({**json.loads(text), **override})
        path.write_text(text, encoding="utf-8")
        code = run_cli("run", "--manifest", path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: manifest field")

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"tms": []}, "manifest lists no TM corpora"),
            ({"domains": []}, "manifest lists no test domains"),
            ({"k_values": [0]}, "k_values must be positive integers, got (0,)"),
            ({"scenarios": []}, "manifest lists no scenarios"),
            ({"scenarios": ["relevant", "relevant"]}, "duplicate scenarios: ('relevant', 'relevant')"),
            ({"domains": ["it", "it"]}, "duplicate domains: ('it', 'it')"),
            (["tm.jsonl"], "must be a JSON object"),
            ({"translator": {}}, "manifest field 'translator' must be an object with a 'kind'"),
        ],
        ids=["no-tms", "no-domains", "k-zero", "no-scenarios", "duplicate-scenarios",
             "duplicate-domains", "array", "translator-without-kind"],
    )
    def test_manifest_of_the_wrong_shape_exits_2(self, corpus_files, capsys, override, message):
        path = write_manifest(corpus_files)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        # A list is the whole manifest; an object overrides its fields.
        manifest = override if isinstance(override, list) else {**manifest, **override}
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code = run_cli("run", "--manifest", path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not (corpus_files / "out").exists()

    def test_cell_directory_name_too_long_exits_2_before_any_tm_is_read(
        self, corpus_files, capsys, monkeypatch
    ):
        loaded = []

        def recording(path, *args, **kwargs):
            loaded.append(path)
            return load_corpus(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_corpus", recording)
        domain = "d" * 300
        path = write_manifest(corpus_files, domains=[domain], test_sets={domain: "test_it.jsonl"})
        code = run_cli("run", "--manifest", path)
        cell = corpus_files / "out" / "cells" / f"{domain}__k1__relevant"
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot create directory {cell}: ")
        assert loaded == []

    def test_non_finite_bm25_parameter_exits_2(self, corpus_files, capsys):
        path = write_manifest(corpus_files)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["retrieval"] = {"k1": float("nan")}
        path.write_text(json.dumps(manifest), encoding="utf-8")  # writes the token NaN
        code = run_cli("run", "--manifest", path)
        assert code == 2
        assert "k1 must be finite" in capsys.readouterr().err
        assert not (corpus_files / "out").exists()

    def test_out_dir_that_is_a_file_exits_2(self, corpus_files, capsys):
        code = run_cli("run", "--manifest", write_manifest(corpus_files, out_dir="tm.jsonl"))
        assert code == 2
        cells = corpus_files / "tm.jsonl" / "cells"
        assert capsys.readouterr().err == f"error: cannot create directory {cells}: Not a directory\n"

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--manifest", tmp_path / "missing.json")
        assert code == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_bytes(b'{"tms": ["caf\xe9"]}')
        code = run_cli("run", "--manifest", path)
        assert code == 2
        assert f"{path}:1: not valid UTF-8" in capsys.readouterr().err


# Nested past the default recursion limit, so json.loads raises RecursionError.
DEEP = "[" * 200_000 + "]" * 200_000


def deep_corpus_line(root):
    path = root / "tm.jsonl"
    good = '{"id": "a", "domain": "d", "src": "x", "tgt": "y"}\n'
    deep = '{"id": "b", "domain": "d", "src": "x", "tgt": "y", "n": %s}\n' % DEEP
    path.write_text(good + deep, encoding="utf-8")
    return ["index", "--corpus", path, "--out", root / "x.idx"], f"{path}:2: invalid JSON"


def deep_index_header(root):
    save_corpus(tiny_tm(), root / "tm.jsonl")
    path = root / "tm.idx"
    save_index(build_index(tiny_tm()), path)
    lines = path.read_bytes().splitlines(keepends=True)
    body = b'{"deep": %s}\n' % DEEP.encode() + b"".join(lines[1:-1])
    path.write_bytes(body + checksum_line(body))
    argv = ["augment", "--index", path, "--corpus", root / "tm.jsonl", "--k", "1",
            "--out", root / "aug"]
    return argv, f"{path}:1: invalid JSON"


def deep_augmented_line(root):
    path = root / "aug.jsonl"
    good = '{"id": "a", "src": "x", "ref": "y", "suggestions": [], "flat": "x"}\n'
    path.write_text(good + '{"id": %s}\n' % DEEP, encoding="utf-8")
    write_lines(["y", "y"], root / "hyp.txt")
    return ["overlap", "--augmented", path, "--hyp", root / "hyp.txt"], f"{path}:2: invalid JSON"


def failed_record(root):
    """A failed cell's failed.json, after a run whose every cell failed."""
    manifest = run_grid(root, translator=FAILING)
    return manifest, root / "out" / "cells" / "it__k1__relevant" / "failed.json"


def deep_cell(root):
    manifest, path = failed_record(root)
    path.write_text('{"error": %s}' % DEEP, encoding="utf-8")
    return ["report", "--manifest", manifest], f"{path}:1: invalid JSON"


def directory_cell(root):
    manifest, path = failed_record(root)
    path.unlink()
    path.mkdir()
    return ["report", "--manifest", manifest], f"cannot read failed cell record {path}"


def deep_manifest(root):
    path = root / "exp.json"
    path.write_text('{\n  "tms": %s\n}\n' % DEEP, encoding="utf-8")
    return ["run", "--manifest", path], f"manifest {path}:1: invalid JSON"


def multiline_manifest_syntax_error(root):
    path = root / "exp.json"
    path.write_text('{\n  "tms": ["tm.jsonl"],\n  oops\n}\n', encoding="utf-8")
    return ["run", "--manifest", path], f"manifest {path}:3: invalid JSON"


class TestInputFaults:
    """Every unreadable or malformed input file exits 2 naming ``path[:line]``."""

    @pytest.mark.parametrize(
        "make_input",
        [deep_corpus_line, deep_index_header, deep_augmented_line, deep_cell, directory_cell,
         deep_manifest, multiline_manifest_syntax_error],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, make_input):
        argv, message = make_input(tmp_path)
        code = run_cli(*argv)
        assert code == 2
        assert message in capsys.readouterr().err


# tiny_tm in an index file: its id, domain, source and target columns on
# lines 2-5, then the terms (line 6), df (7), docs (8) and tfs (9) of TINY_POSTINGS.
TINY_RECORDS = [(p.id, p.domain, p.source, p.target) for p in tiny_tm().pairs]
TINY_POSTINGS = (["the", "cat", "sat", "dog"], [2, 2, 1, 1], [0, 1, 0, 2, 0, 1], [1] * 6)
TINY_HEADER = {**INDEX_HEADER, "doc_bytes": 2, "pairs": 3, "postings": 6, "terms": 4, "tf_bytes": 1}
V4_HEADER = b'{"b": 0.75, "format": "ratkit-index", "k1": 1.2, "version": 4}'
V5_HEADER = b'{"b": 0.75, "format": "ratkit-index", "k1": 1.2, "version": 5}'


def tiny_postings(**changes):
    terms, df, docs, tfs = TINY_POSTINGS
    sections = {"terms": terms, "df": df, "docs": docs, "tfs": tfs, **changes}
    return [sections[key] for key in ("terms", "df", "docs", "tfs")]


class TestIndexFileFaults:
    """An index file with a valid checksum but faulty content exits 2 naming ``path:line``."""

    def assert_exits_2_naming(self, tmp_path, capsys, data, where, reason):
        path = tmp_path / "bad.idx"
        path.write_bytes(data)
        save_corpus(tiny_tm(), tmp_path / "q.jsonl")
        code = run_cli("augment", "--index", path, "--corpus", tmp_path / "q.jsonl", "--k", "1",
                       "--out", tmp_path / "aug")
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}{where}: {reason}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "header, sections, where, reason",
        [
            ({}, tiny_postings(df=[2, 2, 1, 2]), ":7", "the df values sum to 7, the header says 6"),
            ({}, tiny_postings(df=[2, 2, 0, 1], docs=[0, 1, 0, 2, 1]), ":7",
             "the term 'sat' has a df of 0"),
            ({}, tiny_postings(docs=[0, 1, 0, 3, 0, 1]), ":8", "doc id 3 is not below the 3 pairs"),
            ({}, tiny_postings(docs=[0, 1, 2, 0, 0, 1]), ":8",
             "the doc ids of the term 'cat' are not ascending"),
            ({}, tiny_postings(docs=[0, 1, 2, 2, 0, 1]), ":8",
             "the doc ids of the term 'cat' are not ascending"),
            ({}, tiny_postings(tfs=[1, 1, 0, 1, 1, 1]), ":9", "a tf of 0 for the term 'cat'"),
            ({}, tiny_postings(terms=["the", "cat", "sat", "cat"]), ":6", "the term 'cat' is repeated"),
            ({}, tiny_postings(terms=b"the  cat sat"), ":6", "an empty term"),
            ({"postings": 5}, tiny_postings(df=[2, 1, 1, 1], docs=[0, 1, 0, 0, 1], tfs=[1] * 5), ":8",
             "pair 'd3' has no postings"),
            ({}, tiny_postings(df=b"AgACAAEAAQ="), ":7", "the df line is not base64"),
            ({}, tiny_postings(df=b"AgAC\xc3\xa9AAEAAQA="), ":7", "the df line is not base64"),
            ({}, tiny_postings(docs=b"AAABAAACAA=="), ":8", "the docs line holds 7 bytes, not a multiple of 2"),
            ({}, tiny_postings(docs=b"AAABAAAC"), ":8", "the docs line holds 3 values, not 6"),
            ({}, tiny_postings(tfs=None), ":8", "8 lines precede the checksum line, not 9"),
            ({}, [None] * 4, ":5", "5 lines precede the checksum line, not 9"),
            ({"doc_bytes": 4}, TINY_POSTINGS, ":1", "doc_bytes is 4, not 2 for 3 pairs"),
            ({"tf_bytes": 4}, tiny_postings(tfs=b"AQEBAQEB"), ":9",
             "the tfs line holds 6 bytes, not a multiple of 4"),
            ({"tf_bytes": 4}, TINY_POSTINGS, ":9", "tf_bytes is 4, but every tf fits in 1 byte"),
            ({"tf_bytes": 2}, TINY_POSTINGS, ":1", "tf_bytes is 2, not 1 or 4"),
            ({"terms": 5}, TINY_POSTINGS, ":6", "4 terms, the header says 5"),
            ({"postings": 7}, TINY_POSTINGS, ":7", "the df values sum to 6, the header says 7"),
            ({"pairs": 4}, TINY_POSTINGS, ":2", "the id line holds 3 values, the header says 4 pairs"),
            ({"pairs": -1}, TINY_POSTINGS, ":1", "header field 'pairs' is missing or not a count"),
            ({"postings": True}, TINY_POSTINGS, ":1", "header field 'postings' is missing or not a count"),
            (V4_HEADER, [None] * 4, ":1", "index format version 4 is not supported; rebuild the index"),
            (V5_HEADER, [None] * 4, ":1", "index format version 5 is not supported; rebuild the index"),
            ({"k1": 1.7e308}, TINY_POSTINGS, ":1", "k1 = 1.7e+308 is too large: a BM25 weight overflows"),
        ],
        ids=["df-sum", "df-zero", "doc-id-past-n", "docs-descending", "docs-repeated", "tf-zero",
             "term-repeated", "term-empty", "doc-without-posting", "bad-base64", "non-ascii-base64",
             "length-not-a-multiple-of-the-width", "docs-count", "tail-line-missing",
             "tail-missing", "doc-width", "tf-width-of-the-data", "tf-width-not-the-narrowest",
             "tf-width-unknown", "terms-count", "postings-count", "pairs-count", "pairs-negative",
             "postings-bool", "v4-file", "v5-file", "k1-overflows-a-weight"],
    )
    def test_exits_2_naming_the_line(self, tmp_path, capsys, header, sections, where, reason):
        if isinstance(header, dict):
            header = {**TINY_HEADER, **header}
        data = index_file(TINY_RECORDS, header, sections)
        self.assert_exits_2_naming(tmp_path, capsys, data, where, reason)

    @pytest.mark.parametrize(
        "columns, where, reason",
        [
            ({"source": b'{"0": "the cat sat"}'}, ":4", "the source line is not a JSON array"),
            ({"target": ["die Katze sass", 5, "Katze"]}, ":5", "the target at position 1 is not a string"),
            ({"source": b'["the cat sat", "the dog \\ud800", "cat"]'}, ":4",
             "the source at position 1 holds a lone surrogate (\\ud800)"),
            ({"domain": ["a", "a"]}, ":3", "the domain line holds 2 values, the header says 3 pairs"),
            ({"source": ["the cat sat", " ", "cat"]}, ":4", "pair 'd2': source is empty (position 1)"),
            ({"target": ["die Katze sass", "der\nHund", "Katze"]}, ":5",
             "pair 'd2': target contains a line break (position 1)"),
            ({"id": ["d1", "", "d3"]}, ":2", "sentence pair has an empty id (position 1)"),
            ({"id": ["d1", "d2", "d1"]}, ":2", "duplicate id 'd1' at positions 0 and 2"),
            ({"source": b'["the cat sat", "the dog", "cat"'}, ":4", "invalid JSON: Expecting ',' delimiter"),
        ],
        ids=["not-a-list", "non-string", "lone-surrogate", "short", "blank-source",
             "line-break", "empty-id", "repeated-id", "invalid-json"],
    )
    def test_column_fault_exits_2_naming_the_line(self, tmp_path, capsys, columns, where, reason):
        data = index_file(TINY_RECORDS, TINY_HEADER, TINY_POSTINGS, **columns)
        self.assert_exits_2_naming(tmp_path, capsys, data, where, reason)

    def test_a_v6_file_exits_2_asking_for_a_rebuild(self, tmp_path, capsys):
        # The bytes save_index wrote for tiny_tm as v6: the header's version
        # and a sha256 line are all that differ from v7.
        save_index(build_index(tiny_tm()), tmp_path / "v7.idx")
        lines = (tmp_path / "v7.idx").read_bytes().splitlines(keepends=True)
        body = lines[0].replace(b'"version": 7', b'"version": 6') + b"".join(lines[1:-1])
        data = body + b'{"sha256": "%s"}\n' % hashlib.sha256(body).hexdigest().encode()
        reason = "no checksum line; truncated or not a ratkit index of format v7; rebuild the index"
        self.assert_exits_2_naming(tmp_path, capsys, data, "", reason)

    @pytest.mark.parametrize("magic", [b"RATIDX1\0", b"RATIDX2\0", b"RATIDX3\0"])
    def test_a_v1_to_v3_file_exits_2_asking_for_a_rebuild(self, tmp_path, capsys, magic):
        reason = "no checksum line; truncated or not a ratkit index of format v7; rebuild the index"
        self.assert_exits_2_naming(tmp_path, capsys, magic + b"\0" * 64, "", reason)

    def test_the_tiny_postings_load(self, tmp_path):
        # The fault cases above differ from this valid file in one place each.
        path = tmp_path / "tiny.idx"
        path.write_bytes(index_file(TINY_RECORDS, TINY_HEADER, TINY_POSTINGS))
        save_index(build_index(tiny_tm()), tmp_path / "saved.idx")
        assert path.read_bytes() == (tmp_path / "saved.idx").read_bytes()


# Runs each argv list of the JSON array in sys.argv[1] through cli.main, then
# prints which of hashlib and _hashlib (OpenSSL's libcrypto) were imported.
NO_HASHLIB_SCRIPT = """
import json, sys
from ratkit.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


class TestNoOpenSsl:
    def test_index_augment_and_run_never_import_hashlib(self, corpus_files):
        # Importing hashlib maps OpenSSL's libcrypto, about 3.6 MB of RSS in
        # every process; seeds and index checksums use the built-in BLAKE2b.
        root = corpus_files
        commands = [
            ["index", "--corpus", root / "tm.jsonl", "--out", root / "tm.idx"],
            ["augment", "--index", root / "tm.idx", "--corpus", root / "tm.jsonl", "--k", "2",
             "--mode", "shuffle", "--exclude-self", "--out", root / "aug" / "tm"],
            ["run", "--manifest", write_manifest(root, k_values=[1, 2]), "--workers", "2"],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", NO_HASHLIB_SCRIPT, json.dumps([list(map(str, c)) for c in commands])],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert len(read_augmented(root / "aug" / "tm.jsonl")) == 75
        assert (root / "out" / "report.json").is_file()


class TestParser:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
