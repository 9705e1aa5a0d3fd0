"""Command-line interface: every subcommand end to end over temp files."""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import pytest

from ratkit import pipeline
from ratkit.augmentation import read_augmented
from ratkit.cli import main
from ratkit.corpus import load_corpus, read_lines, save_corpus, write_lines
from ratkit.retrieval import build_index, load_index, save_index

from synthetic import make_three_domain, tiny_tm


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
        ],
        ids=["bootstrap-int", "retrieval-list", "pool-str", "k-str", "k-float", "n-float",
             "timeout-str", "separator-int", "separator-space", "exclude-self-str",
             "mode-int", "mode-unknown", "shuffle-pool-below-k", "timeout-nan",
             "unknown-top-level-key", "unknown-translator-key", "unknown-augmentation-key",
             "unknown-bootstrap-key", "unknown-retrieval-key", "duplicate-key",
             "timeout-huge-int", "k1-huge-int", "domain-nul", "domain-lone-surrogate",
             "out-dir-nul"],
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
    path.write_bytes(body + b'{"sha256": "%s"}\n' % hashlib.sha256(body).hexdigest().encode())
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


class TestParser:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
