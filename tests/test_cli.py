"""End-to-end command line behavior via main(argv), and once as a process."""
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpusgen
from conftest import (
    INDEX_CORRUPTIONS,
    write_jsonl,
    write_version_1_index,
    write_version_3_index,
    write_version_4_index,
)
from ontovsm.cli import main
from ontovsm.retrieval import ALL_MODELS


@pytest.fixture
def data_dir(tmp_path):
    """Taxonomy, knowledge base, corpus, queries, and qrels on disk."""
    write_jsonl(tmp_path / "taxonomy.jsonl", corpusgen.TAXONOMY_RECORDS)
    write_jsonl(tmp_path / "kb.jsonl", corpusgen.ENTITY_RECORDS)
    write_jsonl(tmp_path / "corpus.jsonl", corpusgen.UN_DOC_RECORDS)
    write_jsonl(tmp_path / "queries.jsonl", [corpusgen.UN_QUERY_RECORD])
    (tmp_path / "qrels.txt").write_text("q1 0 d1 1\nq1 0 d2 0\nq1 0 d3 0\n")
    return tmp_path


def base_args(data_dir):
    return [
        "--taxonomy", str(data_dir / "taxonomy.jsonl"),
        "--kb", str(data_dir / "kb.jsonl"),
        "--corpus", str(data_dir / "corpus.jsonl"),
    ]


def build(data_dir):
    index_dir = data_dir / "index"
    assert main(["build-index", *base_args(data_dir), "--index", str(index_dir)]) == 0
    return index_dir


def assert_one_error_line(rc, capsys, message):
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and message in lines[0]


class TestBuildIndex:
    def test_summary_line(self, data_dir, capsys):
        rc = main(["build-index", *base_args(data_dir), "--index", str(data_dir / "ix")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "indexed 3 docs; terms: N=4, C=4, NC=8, I=2, KW=5\n"
        assert (data_dir / "ix" / "stats.json").exists()

    def test_missing_input_file(self, data_dir, capsys):
        args = base_args(data_dir)
        args[3] = str(data_dir / "nope.jsonl")
        rc = main(["build-index", *args, "--index", str(data_dir / "ix")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.jsonl" in err

    def test_duplicate_doc_id(self, data_dir, capsys):
        write_jsonl(
            data_dir / "corpus.jsonl",
            corpusgen.UN_DOC_RECORDS + [corpusgen.UN_DOC_RECORDS[0]],
        )
        rc = main(["build-index", *base_args(data_dir), "--index", str(data_dir / "ix")])
        assert rc == 2
        assert "d1" in capsys.readouterr().err

    def test_stopwords_shrink_keyword_space(self, data_dir, capsys):
        (data_dir / "stop.txt").write_text("the\nis\n")
        rc = main([
            "build-index", *base_args(data_dir),
            "--index", str(data_dir / "ix"),
            "--stopwords", str(data_dir / "stop.txt"),
        ])
        assert rc == 0
        assert "KW=3" in capsys.readouterr().out

    def test_multi_token_stopword_rejected(self, data_dir, capsys):
        (data_dir / "stop.txt").write_text("the\nnew york\n")
        rc = main([
            "build-index", *base_args(data_dir),
            "--index", str(data_dir / "ix"),
            "--stopwords", str(data_dir / "stop.txt"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 2: stopword 'new york' is not a single token" in err
        assert not (data_dir / "ix").exists()


def annotate_args(data_dir, raw):
    return [
        "annotate",
        "--taxonomy", str(data_dir / "taxonomy.jsonl"),
        "--kb", str(data_dir / "kb.jsonl"),
        "--corpus", str(raw), "--out", str(data_dir / "annotated.jsonl"),
    ]


class TestAnnotate:
    def test_gazetteer_output(self, data_dir, capsys):
        raw = data_dir / "raw.jsonl"
        write_jsonl(raw, [
            {"doc_id": "a1", "text": "the Saigon River flows"},
            {"doc_id": "a2", "text": "Saigon is busy"},
            {"doc_id": "a3", "text": "nothing to find"},
        ])
        out = data_dir / "annotated.jsonl"
        rc = main([
            "annotate",
            "--taxonomy", str(data_dir / "taxonomy.jsonl"),
            "--kb", str(data_dir / "kb.jsonl"),
            "--corpus", str(raw), "--out", str(out),
        ])
        assert rc == 0
        assert "annotated 3 docs" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]

        # Longest match wins and carries full features.
        assert rows[0]["annotations"] == [
            {"start": 4, "end": 16, "name": "Saigon River", "class": "River", "id": "e2"}
        ]
        # An alias shared by two entities yields a name-only annotation.
        assert rows[1]["annotations"] == [{"start": 0, "end": 6, "name": "Saigon"}]
        assert rows[2]["annotations"] == []

    def test_output_feeds_build_index(self, data_dir):
        raw = data_dir / "raw.jsonl"
        write_jsonl(raw, [{"doc_id": "a1", "text": "the Saigon River flows"}])
        annotated = data_dir / "annotated.jsonl"
        assert main([
            "annotate",
            "--taxonomy", str(data_dir / "taxonomy.jsonl"),
            "--kb", str(data_dir / "kb.jsonl"),
            "--corpus", str(raw), "--out", str(annotated),
        ]) == 0
        args = base_args(data_dir)
        args[5] = str(annotated)
        assert main(["build-index", *args, "--index", str(data_dir / "ix")]) == 0

    def test_duplicate_doc_id(self, data_dir, capsys):
        raw = write_jsonl(data_dir / "raw.jsonl", [
            {"doc_id": "a1", "text": "Saigon"},
            {"doc_id": "a1", "text": "Hanoi"},
        ])
        rc = main(annotate_args(data_dir, raw))
        assert_one_error_line(rc, capsys, "record 2: duplicate doc_id 'a1'")


class TestSearch:
    def test_writes_one_run_per_model(self, data_dir, capsys):
        index_dir = build(data_dir)
        out_dir = data_dir / "runs"
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(out_dir), "--models", "kw,ne-o",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out_dir / 'kw.run'}" in stdout
        assert f"wrote {out_dir / 'ne-o.run'}" in stdout
        assert sorted(p.name for p in out_dir.iterdir()) == ["kw.run", "ne-o.run"]

        kw_lines = (out_dir / "kw.run").read_text().splitlines()
        assert len(kw_lines) == 1 and kw_lines[0].startswith("q1 Q0 d1 1 ")
        ne_docs = [line.split()[2] for line in (out_dir / "ne-o.run").read_text().splitlines()]
        assert ne_docs == ["d2", "d1"]

    def test_version_1_index_rejected(self, data_dir, capsys):
        index_dir = write_version_1_index(data_dir / "ix")
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
        ])
        assert_one_error_line(rc, capsys, "unsupported index version 1")

    def test_version_3_index_rejected(self, data_dir, capsys):
        # Version 3 saved each row's doc numbers themselves; rebuild it.
        index_dir = write_version_3_index(build(data_dir))
        capsys.readouterr()
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
        ])
        assert_one_error_line(rc, capsys, "unsupported index version 3")
        assert not (data_dir / "runs").exists()

    def test_version_4_index_rejected(self, data_dir, capsys):
        # Version 4 saved one row per term, where equal lists repeat; rebuild it.
        index_dir = write_version_4_index(build(data_dir))
        capsys.readouterr()
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
        ])
        assert_one_error_line(rc, capsys, "unsupported index version 4")
        assert not (data_dir / "runs").exists()

    def test_bad_alpha_fails_before_index_io(self, data_dir, capsys):
        rc = main([
            "search", "--index", str(data_dir / "never-built"),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(data_dir / "runs"), "--alpha", "1.5",
        ])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_model_rejected_by_parser(self, data_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "search", "--index", str(data_dir / "ix"),
                "--queries", str(data_dir / "queries.jsonl"),
                "--out", str(data_dir / "runs"), "--models", "kw,bm25",
            ])
        assert excinfo.value.code == 2
        assert "bm25" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "compare"])
    def test_repeated_model_rejected_by_parser(self, data_dir, capsys, command):
        args = {
            "search": ["--index", str(data_dir / "ix")],
            "compare": [*base_args(data_dir), "--qrels", str(data_dir / "qrels.txt")],
        }[command]
        args += ["--queries", str(data_dir / "queries.jsonl")]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *args, "--out", str(data_dir / "out"), "--models", "kw,ne-o,kw"])
        assert excinfo.value.code == 2
        assert "model 'kw' listed twice" in capsys.readouterr().err
        assert not (data_dir / "out").exists()

    def test_non_numeric_weight_rejected_by_parser(self, data_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "search", "--index", str(data_dir / "ix"),
                "--queries", str(data_dir / "queries.jsonl"),
                "--out", str(data_dir / "runs"), "--weights", "a,b,c,d",
            ])
        assert excinfo.value.code == 2
        assert "non-numeric weight in 'a,b,c,d'" in capsys.readouterr().err

    def test_wrong_weight_count_rejected_by_parser(self, data_dir):
        with pytest.raises(SystemExit):
            main([
                "search", "--index", str(data_dir / "ix"),
                "--queries", str(data_dir / "queries.jsonl"),
                "--out", str(data_dir / "runs"), "--weights", "0.5,0.5",
            ])

    def test_unbalanced_weights_fail(self, data_dir, capsys):
        index_dir = build(data_dir)
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(data_dir / "runs"), "--weights", "0.5,0.5,0.5,0.5",
        ])
        assert rc == 2
        assert "sum" in capsys.readouterr().err

    def test_nan_weight_fails(self, data_dir, capsys):
        rc = main([
            "search", "--index", str(data_dir / "never-built"),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(data_dir / "runs"), "--weights", "nan,0,0,1",
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_negative_top_k_rejected_by_parser(self, data_dir):
        with pytest.raises(SystemExit):
            main([
                "search", "--index", str(data_dir / "ix"),
                "--queries", str(data_dir / "queries.jsonl"),
                "--out", str(data_dir / "runs"), "--top-k", "-1",
            ])

    def test_non_integer_top_k_rejected_by_parser(self, data_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "search", "--index", str(data_dir / "ix"),
                "--queries", str(data_dir / "queries.jsonl"),
                "--out", str(data_dir / "runs"), "--top-k", "1.5",
            ])
        assert excinfo.value.code == 2
        assert "expected an integer, got '1.5'" in capsys.readouterr().err

    def test_top_k_caps_each_query(self, data_dir):
        index_dir = build(data_dir)
        out_dir = data_dir / "runs"
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(out_dir), "--top-k", "1",
        ])
        assert rc == 0
        runs = {p.stem: p.read_text().splitlines() for p in out_dir.iterdir()}
        assert sorted(runs) == sorted(m.value for m in ALL_MODELS)
        assert all(len(lines) <= 1 for lines in runs.values())
        # Uncapped, ne-o ranks two documents for q1 (test_writes_one_run_per_model).
        assert [line.split()[2] for line in runs["ne-o"]] == ["d2"]

    def test_inexpressible_query_warns_and_is_omitted(self, data_dir, capsys):
        index_dir = build(data_dir)
        write_jsonl(data_dir / "queries.jsonl", [
            corpusgen.UN_QUERY_RECORD,
            {"query_id": "q9", "entities": [{"id": "e4"}]},
        ])
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(data_dir / "runs"), "--models", "kw",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "warning: kw:" in captured.err
        queries_in_run = {
            line.split()[0] for line in (data_dir / "runs" / "kw.run").read_text().splitlines()
        }
        assert queries_in_run == {"q1"}


class TestEval:
    def run_files(self, data_dir):
        index_dir = build(data_dir)
        out_dir = data_dir / "runs"
        assert main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--out", str(out_dir), "--models", "kw,ne-o",
        ]) == 0
        return [str(out_dir / "kw.run"), str(out_dir / "ne-o.run")]

    def test_tables_from_run_files(self, data_dir, capsys):
        runs = self.run_files(data_dir)
        report_dir = data_dir / "report"
        rc = main(["eval", *runs, "--qrels", str(data_dir / "qrels.txt"),
                   "--out", str(report_dir)])
        assert rc == 0
        assert "evaluated 2 models over 1 queries" in capsys.readouterr().out
        precision = (report_dir / "precision.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in precision] == ["model", "kw", "ne-o"]
        # d1 is the only relevant doc; kw ranks it first, ne-o second.
        assert precision[1].split(",")[1:] == ["100.00"] * 11
        assert precision[2].split(",")[1:] == ["50.00"] * 11
        assert (report_dir / "curves" / "ne-o.csv").exists()

    def test_duplicate_labels_rejected(self, data_dir, capsys):
        runs = self.run_files(data_dir)
        rc = main(["eval", runs[0], runs[0], "--qrels", str(data_dir / "qrels.txt"),
                   "--out", str(data_dir / "report")])
        assert rc == 2
        assert "label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run, message",
        [
            # The rank order puts r1 first; the line order does not.
            ("q1 Q0 n1 2 0.4 t\nq1 Q0 r1 1 0.9 t\n", "line 1: rank '2' for 'q1', expected 1"),
            ("q1 Q0 r1 one 0.9 t\n", "line 1: rank 'one' for 'q1', expected 1"),
        ],
    )
    def test_ranks_out_of_line_order_rejected(self, tmp_path, capsys, run, message):
        (tmp_path / "qrels.txt").write_text("q1 0 r1 1\nq1 0 n1 0\n")
        (tmp_path / "t.run").write_text(run)
        rc = main(["eval", str(tmp_path / "t.run"), "--qrels", str(tmp_path / "qrels.txt"),
                   "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, f"{tmp_path / 't.run'}, {message}")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("stem", ["a,b", "a b"])
    def test_label_that_breaks_the_tables_rejected(self, tmp_path, capsys, stem):
        # The label starts a CSV row, so a comma would add a column.
        (tmp_path / "qrels.txt").write_text("q1 0 r1 1\n")
        (tmp_path / f"{stem}.run").write_text("q1 Q0 r1 1 0.9 t\n")
        rc = main(["eval", str(tmp_path / f"{stem}.run"), "--qrels", str(tmp_path / "qrels.txt"),
                   "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, f"model label {stem!r}")
        assert not (tmp_path / "report").exists()

    def test_windowed_interpolation_flag(self, tmp_path):
        # Relevant docs at ranks 5 and 6: the 40% column drops from the
        # ceiling max 33.33 to the in-window 20.00.
        (tmp_path / "qrels.txt").write_text("q1 0 r1 1\nq1 0 r2 1\n")
        lines = [
            f"q1 Q0 {doc} {rank} {1.0 - rank / 10:.6f} m\n"
            for rank, doc in enumerate(["n1", "n2", "n3", "n4", "r1", "r2"], start=1)
        ]
        (tmp_path / "m.run").write_text("".join(lines))
        for mode, expected in (("standard", "33.33"), ("windowed", "20.00")):
            out = tmp_path / mode
            rc = main(["eval", str(tmp_path / "m.run"),
                       "--qrels", str(tmp_path / "qrels.txt"),
                       "--out", str(out), "--interp", mode])
            assert rc == 0
            row = (out / "precision.csv").read_text().splitlines()[1].split(",")
            assert row[5] == expected


class TestCompare:
    @pytest.mark.parametrize("command", ["build-index", "compare"])
    def test_help_describes_collection_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        # argparse wraps help text to the terminal width.
        out = " ".join(capsys.readouterr().out.split())
        for text in [
            "class taxonomy (JSONL)",
            "entity knowledge base (JSONL)",
            "annotated corpus (JSONL)",
            "optional stopword file, one word per line",
        ]:
            assert text in out

    def test_full_pipeline(self, data_dir, capsys):
        out_dir = data_dir / "cmp"
        rc = main([
            "compare", *base_args(data_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(out_dir),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "indexed 3 docs" in stdout
        assert "evaluated 8 models over 1 queries" in stdout
        assert len(list((out_dir / "runs").glob("*.run"))) == 8
        assert len(list((out_dir / "curves").glob("*.csv"))) == 8
        table = (out_dir / "precision.csv").read_text().splitlines()
        assert len(table) == 9
        labels = {line.split(",")[0] for line in table[1:]}
        assert "kw-plus-ne" in labels and "kw-or-ne-n" in labels

    def test_model_subset_and_saved_index(self, data_dir):
        out_dir = data_dir / "cmp"
        rc = main([
            "compare", *base_args(data_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(out_dir),
            "--index", str(data_dir / "saved-ix"),
            "--models", "kw,ne-n",
        ])
        assert rc == 0
        assert sorted(p.name for p in (out_dir / "runs").iterdir()) == ["kw.run", "ne-n.run"]
        assert (data_dir / "saved-ix" / "stats.json").exists()

    @pytest.mark.parametrize("interp", ["standard", "windowed"])
    def test_reports_match_eval_over_written_runs(self, data_dir, capsys, interp):
        # q2 is judged and q3 unjudged; neither has a result under any model.
        write_jsonl(data_dir / "queries.jsonl", [
            corpusgen.UN_QUERY_RECORD,
            {"query_id": "q2", "keywords": ["zzunseen"]},
            {"query_id": "q3", "keywords": ["zzalsounseen"]},
        ])
        with open(data_dir / "qrels.txt", "a", encoding="utf-8") as fh:
            fh.write("q2 0 d3 1\n")
        out_dir = data_dir / "cmp"
        assert main([
            "compare", *base_args(data_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(out_dir), "--interp", interp,
        ]) == 0
        assert "evaluated 8 models over 2 queries" in capsys.readouterr().out
        run_paths = [out_dir / "runs" / f"{m.value}.run" for m in ALL_MODELS]
        run_queries = {line.split()[0] for p in run_paths for line in p.read_text().splitlines()}
        assert run_queries == {"q1"}
        eval_dir = data_dir / "eval"
        assert main([
            "eval", *map(str, run_paths), "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(eval_dir), "--interp", interp,
        ]) == 0
        reports = [
            {str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*.csv")}
            for d in (out_dir, eval_dir)
        ]
        assert len(reports[0]) == 2 + len(ALL_MODELS)
        assert reports[0] == reports[1]

    def test_search_over_saved_index_writes_the_same_runs(self, tmp_path):
        # compare ranks on the index it built, search on that index saved and
        # loaded, whose posting lists are in another order.
        data = corpusgen.synthetic_dataset(seed=7, n_docs=200, n_queries=12)
        for name in ("taxonomy", "kb", "docs", "queries"):
            write_jsonl(tmp_path / f"{name}.jsonl", data[name])
        (tmp_path / "qrels.txt").write_text("".join(corpusgen.qrels_lines(data["qrels"])))
        queries, index_dir = str(tmp_path / "queries.jsonl"), str(tmp_path / "ix")
        assert main([
            "compare", "--taxonomy", str(tmp_path / "taxonomy.jsonl"),
            "--kb", str(tmp_path / "kb.jsonl"), "--corpus", str(tmp_path / "docs.jsonl"),
            "--queries", queries, "--qrels", str(tmp_path / "qrels.txt"),
            "--out", str(tmp_path / "cmp"), "--index", index_dir,
        ]) == 0
        assert main(["search", "--index", index_dir, "--queries", queries,
                     "--out", str(tmp_path / "search")]) == 0
        runs = [{p.name: p.read_bytes() for p in d.iterdir()}
                for d in (tmp_path / "cmp" / "runs", tmp_path / "search")]
        assert len(runs[0]) == len(ALL_MODELS)
        assert runs[0] == runs[1]

    def test_repeat_runs_are_byte_identical(self, data_dir):
        outputs = []
        for name in ("one", "two"):
            out_dir = data_dir / name
            assert main([
                "compare", *base_args(data_dir),
                "--queries", str(data_dir / "queries.jsonl"),
                "--qrels", str(data_dir / "qrels.txt"),
                "--out", str(out_dir),
            ]) == 0
            files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
            outputs.append({str(p): (out_dir / p).read_bytes() for p in files})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("qrels.txt", "q1 0 d1\n", "malformed qrels line"),
            ("queries.jsonl", json.dumps({"query_id": "q 1", "keywords": ["x"]}) + "\n", "'q 1'"),
            # The build reads the corpus; its last record fails after every
            # other document has been indexed.
            (
                "corpus.jsonl",
                "".join(
                    json.dumps(r) + "\n"
                    for r in [*corpusgen.UN_DOC_RECORDS, corpusgen.UN_DOC_RECORDS[0]]
                ),
                "duplicate doc_id 'd1'",
            ),
        ],
    )
    def test_bad_input_writes_nothing(self, data_dir, capsys, name, content, message):
        (data_dir / name).write_text(content)
        out_dir, index_dir = data_dir / "cmp", data_dir / "saved-ix"
        rc = main([
            "compare", *base_args(data_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(out_dir), "--index", str(index_dir),
        ])
        captured = capsys.readouterr()
        assert rc == 2 and "indexed" not in captured.out
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:") and message in errors[0]
        assert not (out_dir / "runs").exists() and not index_dir.exists()

    def test_queries_are_read_before_the_corpus(self, data_dir, capsys):
        write_jsonl(data_dir / "corpus.jsonl", [{"doc_id": "d 1"}])
        write_jsonl(data_dir / "queries.jsonl", [{"query_id": "q 1", "keywords": ["x"]}])
        rc = main([
            "compare", *base_args(data_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(data_dir / "cmp"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data_dir / 'queries.jsonl'}, record 1: query_id 'q 1' contains whitespace"
        ]


class TestIdsWithWhitespace:
    """Run and qrels lines split at whitespace, so ids must not contain any."""

    def write_spaced_doc_id(self, data_dir):
        records = [dict(corpusgen.UN_DOC_RECORDS[0], doc_id="d 0x"), *corpusgen.UN_DOC_RECORDS[1:]]
        write_jsonl(data_dir / "corpus.jsonl", records)

    def test_build_index(self, data_dir, capsys):
        self.write_spaced_doc_id(data_dir)
        rc = main(["build-index", *base_args(data_dir), "--index", str(data_dir / "ix")])
        assert_one_error_line(rc, capsys, repr("d 0x"))

    def test_compare(self, data_dir, capsys):
        self.write_spaced_doc_id(data_dir)
        rc = main([
            "compare", *base_args(data_dir),
            "--queries", str(data_dir / "queries.jsonl"),
            "--qrels", str(data_dir / "qrels.txt"),
            "--out", str(data_dir / "cmp"),
        ])
        assert_one_error_line(rc, capsys, repr("d 0x"))

    def test_annotate(self, data_dir, capsys):
        raw = write_jsonl(data_dir / "raw.jsonl", [{"doc_id": "d 0x", "text": "Saigon"}])
        rc = main(annotate_args(data_dir, raw))
        assert_one_error_line(rc, capsys, repr("d 0x"))

    def test_search_query_id(self, data_dir, capsys):
        index_dir = build(data_dir)
        capsys.readouterr()
        write_jsonl(data_dir / "queries.jsonl", [dict(corpusgen.UN_QUERY_RECORD, query_id="q\t1")])
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
        ])
        assert_one_error_line(rc, capsys, repr("q\t1"))

    def test_search_index_doc_id(self, data_dir, capsys):
        index_dir = build(data_dir)
        capsys.readouterr()
        path = index_dir / "stats.json"
        path.write_text(path.read_text().replace('"d1"', '"d 0x"'))
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
        ])
        assert_one_error_line(rc, capsys, repr("d 0x"))


class TestHostileInput:
    @pytest.mark.parametrize("corrupt, message", INDEX_CORRUPTIONS)
    def test_corrupt_index(self, data_dir, capsys, corrupt, message):
        index_dir = build(data_dir)
        corrupt(index_dir)
        capsys.readouterr()
        rc = main(["dump-index", "--index", str(index_dir)])
        assert_one_error_line(rc, capsys, message)

    @pytest.mark.parametrize("corrupt, message", INDEX_CORRUPTIONS)
    def test_corrupt_index_fails_verification(self, data_dir, capsys, corrupt, message):
        index_dir = build(data_dir)
        corrupt(index_dir)
        capsys.readouterr()
        rc = main(["verify-index", "--index", str(index_dir)])
        assert_one_error_line(rc, capsys, message)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("end", ["start", "end"])
    def test_bool_span_offset(self, data_dir, capsys, end):
        record = copy.deepcopy(corpusgen.UN_DOC_RECORDS[0])
        record["annotations"][0][end] = True
        write_jsonl(data_dir / "corpus.jsonl", [record])
        rc = main(["build-index", *base_args(data_dir), "--index", str(data_dir / "ix")])
        assert_one_error_line(rc, capsys, "annotation span must be integers")

    @pytest.mark.parametrize(
        "name, command",
        [
            ("taxonomy.jsonl", "build-index"),
            ("kb.jsonl", "build-index"),
            ("corpus.jsonl", "build-index"),
            ("stop.txt", "build-index"),
            ("queries.jsonl", "search"),
            ("qrels.txt", "eval"),
            ("kw.run", "eval"),
        ],
    )
    def test_non_utf8_input(self, data_dir, capsys, name, command):
        index_dir = build(data_dir)
        capsys.readouterr()
        (data_dir / "stop.txt").write_text("the\n")
        (data_dir / "kw.run").write_text("q1 Q0 d1 1 0.500000 kw\n")
        (data_dir / name).write_bytes(b"caf\xe9\n")
        argv = {
            "build-index": [
                "build-index", *base_args(data_dir), "--index", str(data_dir / "ix"),
                "--stopwords", str(data_dir / "stop.txt"),
            ],
            "search": [
                "search", "--index", str(index_dir),
                "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
            ],
            "eval": [
                "eval", str(data_dir / "kw.run"),
                "--qrels", str(data_dir / "qrels.txt"), "--out", str(data_dir / "ev"),
            ],
        }[command]
        rc = main(argv)
        assert_one_error_line(rc, capsys, f"{data_dir / name}: not valid UTF-8")

    @pytest.mark.parametrize(
        "name, record, message",
        [
            (
                "taxonomy.jsonl",
                {"class": "Company", "pareGts": ["Organization"]},
                "class 'Company' has unknown key 'pareGts'",
            ),
            (
                "kb.jsonl",
                {"id": "e9", "class": "City", "names": ["Hue"], "aliases": ["Hue City"]},
                "entity 'e9' has unknown key 'aliases'",
            ),
        ],
    )
    def test_unknown_record_key(self, data_dir, capsys, name, record, message):
        records = {"taxonomy.jsonl": corpusgen.TAXONOMY_RECORDS, "kb.jsonl": corpusgen.ENTITY_RECORDS}
        write_jsonl(data_dir / name, [*records[name], record])
        rc = main(["build-index", *base_args(data_dir), "--index", str(data_dir / "ix")])
        assert_one_error_line(rc, capsys, message)
        assert not (data_dir / "ix").exists()

    @pytest.mark.parametrize("field", ["doc_id", "text"])
    @pytest.mark.parametrize("command, output", [("build-index", "--index"), ("annotate", "--out")])
    def test_lone_surrogate_in_corpus(self, data_dir, capsys, command, output, field):
        # JSON can escape half a surrogate pair, which no UTF-8 output can hold.
        record = dict(corpusgen.UN_DOC_RECORDS[0], annotations=[], **{field: "d\ud800"})
        write_jsonl(data_dir / "corpus.jsonl", [record])
        rc = main([command, *base_args(data_dir), output, str(data_dir / "out")])
        assert_one_error_line(rc, capsys, "corpus.jsonl, line 1: 'utf-8' codec can't encode")

    @pytest.mark.parametrize("value", ["abc", 3, None, [3]], ids=repr)
    def test_annotations_not_a_list_of_objects(self, data_dir, capsys, value):
        record = dict(corpusgen.UN_DOC_RECORDS[0], annotations=value)
        write_jsonl(data_dir / "corpus.jsonl", [record])
        rc = main(["build-index", *base_args(data_dir), "--index", str(data_dir / "ix")])
        assert_one_error_line(rc, capsys, "document 'd1': annotations must be a list of objects")

    @pytest.mark.parametrize("value", ["abc", 3, None, [3]], ids=repr)
    def test_entities_not_a_list_of_objects(self, data_dir, capsys, value):
        index_dir = build(data_dir)
        capsys.readouterr()
        write_jsonl(data_dir / "queries.jsonl", [dict(corpusgen.UN_QUERY_RECORD, entities=value)])
        rc = main([
            "search", "--index", str(index_dir),
            "--queries", str(data_dir / "queries.jsonl"), "--out", str(data_dir / "runs"),
        ])
        assert_one_error_line(rc, capsys, "query 'q1': entities must be a list of objects")


class TestDumpIndex:
    def test_lists_spaces_and_postings(self, data_dir, capsys):
        index_dir = build(data_dir)
        capsys.readouterr()
        assert main(["dump-index", "--index", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "documents: 3" in out
        assert "space N: 4 terms" in out
        assert "space I: 2 terms" in out
        assert "I:e4" in out and "df=2" in out


class TestVerifyIndex:
    def test_clean_index(self, data_dir, capsys):
        index_dir = build(data_dir)
        capsys.readouterr()
        assert main(["verify-index", "--index", str(index_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "verified 3 docs; terms/postings: "
            "N=4/8, C=4/8, NC=8/16, I=2/4, KW=5/6, KW_FULL=10/13; lists: 5\n"
        )
        stats = json.loads((index_dir / "stats.json").read_text())
        counts = [f"{s}={stats['terms'][s]}/{stats['postings'][s]}" for s in stats["terms"]]
        assert captured.out.endswith(": " + ", ".join(counts) + f"; lists: {stats['lists']}\n")
        assert stats["lists"] == len((index_dir / "postings.jsonl").read_text().splitlines())


class TestProcess:
    """The module run as ``python -m ontovsm.cli``, through ``sys.exit(main())``."""

    @staticmethod
    def run_cli(*args):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "ontovsm.cli", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_error_exit_status_and_line(self, tmp_path):
        result = self.run_cli("dump-index", "--index", str(tmp_path / "missing"))
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert result.stdout == ""

    def test_build_index(self, data_dir):
        result = self.run_cli("build-index", *base_args(data_dir), "--index", str(data_dir / "ix"))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "indexed 3 docs; terms: N=4, C=4, NC=8, I=2, KW=5\n"
