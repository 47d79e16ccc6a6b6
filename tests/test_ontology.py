"""Taxonomy ancestry and knowledge base lookups."""
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import corpusgen
import oracle
from conftest import write_jsonl
from ontovsm import ontology
from ontovsm.corpus import GazetteerAnnotator
from ontovsm.errors import KnowledgeBaseError, TaxonomyError
from ontovsm.ontology import (
    ClassTaxonomy,
    knowledge_base_records,
    load_knowledge_base,
    load_taxonomy,
    read_jsonl,
    read_kb_file,
    read_taxonomy_file,
    taxonomy_records,
)


class TestTaxonomy:
    def test_fixture_size(self, taxonomy):
        # Three children under Location, two under Organization.
        assert len(taxonomy.parents) == 8
        assert sum(len(parents) for parents in taxonomy.parents.values()) == 5

    def test_contains(self, taxonomy):
        assert "City" in taxonomy
        assert "Galaxy" not in taxonomy

    def test_ancestors_single_step(self, taxonomy):
        assert taxonomy.ancestors("City") == {"City", "Location"}
        assert taxonomy.ancestors("InternationalOrganization") == {
            "InternationalOrganization",
            "Organization",
        }

    def test_ancestors_root_is_self_only(self, taxonomy):
        assert taxonomy.ancestors("Person") == {"Person"}

    def test_ancestors_unknown_class(self, taxonomy):
        with pytest.raises(KeyError):
            taxonomy.ancestors("Galaxy")

    def test_multi_parent_union(self):
        t = load_taxonomy(corpusgen.SYNTH_TAXONOMY_RECORDS)
        assert t.ancestors("PortCity") == {"PortCity", "City", "Place", "TransportHub"}

    def test_three_level_chain(self):
        t = load_taxonomy(corpusgen.SYNTH_TAXONOMY_RECORDS)
        assert t.ancestors("Politician") == {"Politician", "Person", "Agent"}

    def test_is_subclass(self, taxonomy):
        assert "Location" in taxonomy.ancestors("City")
        assert "City" in taxonomy.ancestors("City")
        assert "City" not in taxonomy.ancestors("Location")

    def test_empty_taxonomy_valid(self):
        t = load_taxonomy([])
        assert len(t.parents) == 0 and t.parents == {}

    def test_duplicate_class_rejected(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            load_taxonomy([{"class": "A"}, {"class": "A"}])

    def test_undeclared_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="undeclared"):
            load_taxonomy([{"class": "A", "parents": ["Missing"]}])

    def test_self_loop_is_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle.*involving 'City'"):
            load_taxonomy([{"class": "City", "parents": ["City"]}])

    def test_longer_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle.*involving 'A'"):
            load_taxonomy(
                [
                    {"class": "A", "parents": ["C"]},
                    {"class": "B", "parents": ["A"]},
                    {"class": "C", "parents": ["B"]},
                ]
            )

    def test_duplicate_parents_collapse(self):
        t = load_taxonomy([{"class": "A"}, {"class": "B", "parents": ["A", "A"]}])
        assert t.parents["B"] == ("A",)
        assert t.ancestors("B") == {"A", "B"}

    def test_malformed_records(self):
        with pytest.raises(TaxonomyError):
            load_taxonomy([{"parents": []}])
        with pytest.raises(TaxonomyError):
            load_taxonomy([{"class": "A", "parents": "Location"}])

    def test_unknown_key_rejected(self):
        # A misspelt "parents" would otherwise make Company a root.
        records = [{"class": "Org"}, {"class": "Company", "pareGts": ["Org"]}]
        with pytest.raises(TaxonomyError, match="class 'Company' has unknown key 'pareGts'"):
            load_taxonomy(records)

    def test_ancestors_monotone(self):
        # sub below sup implies ancestors(sup) is a subset of ancestors(sub).
        t = load_taxonomy(corpusgen.SYNTH_TAXONOMY_RECORDS)
        for sub in t.parents:
            for sup in t.ancestors(sub):
                assert t.ancestors(sup) <= t.ancestors(sub)

    def test_random_dags_close_without_error(self):
        # Parents drawn only from earlier classes, so the graph is acyclic.
        rng = random.Random(11)
        for _ in range(25):
            names = [f"c{i}" for i in range(rng.randint(1, 12))]
            records = []
            for i, name in enumerate(names):
                parents = [p for p in names[:i] if rng.random() < 0.3]
                records.append({"class": name, "parents": parents})
            t = load_taxonomy(records)
            for name in names:
                assert t.ancestors(name) == oracle.naive_ancestors(records, name)
                assert name in t.ancestors(name)
                for parent in t.parents[name]:
                    assert t.ancestors(parent) <= t.ancestors(name)


class TestKnowledgeBase:
    def test_size_and_membership(self, kb):
        assert len(kb.entities) == 5
        assert "e1" in kb
        assert "e99" not in kb

    def test_resolve(self, kb):
        record = kb.resolve("e1")
        assert record.class_id == "City"
        assert len(record.names) == 3
        assert kb.resolve("e4").canonical_name == "United Nations"

    def test_resolve_unknown(self, kb):
        with pytest.raises(KeyError, match="e99"):
            kb.resolve("e99")

    def test_name_index_inverts_names(self, kb):
        # The annotator's alias table finds every name of every entity, and
        # names the entity unless another entity shares the alias.
        annotator = GazetteerAnnotator(kb)
        for identifier, record in kb.entities.items():
            for name in record.names:
                owners = [e for e in kb.entities.values() if name.casefold() in e.folded_names]
                [annotation] = annotator.annotate(name.upper())
                assert (annotation.start, annotation.end) == (0, len(name))
                expected = identifier if len(owners) == 1 else None
                assert annotation.identifier == expected

    def test_duplicate_identifier_rejected(self, taxonomy):
        records = [
            {"id": "x", "class": "City", "names": ["A"]},
            {"id": "x", "class": "River", "names": ["B"]},
        ]
        with pytest.raises(KnowledgeBaseError, match="duplicate"):
            load_knowledge_base(records, taxonomy)

    def test_unknown_class_rejected(self, taxonomy):
        with pytest.raises(KnowledgeBaseError, match="Galaxy"):
            load_knowledge_base([{"id": "x", "class": "Galaxy", "names": ["A"]}], taxonomy)

    def test_empty_names_rejected(self, taxonomy):
        with pytest.raises(KnowledgeBaseError):
            load_knowledge_base([{"id": "x", "class": "City", "names": []}], taxonomy)

    def test_repeated_alias_within_record_rejected(self, taxonomy):
        records = [{"id": "x", "class": "City", "names": ["Hue", "HUE"]}]
        with pytest.raises(KnowledgeBaseError, match="repeats"):
            load_knowledge_base(records, taxonomy)

    def test_shared_alias_across_records_allowed(self, kb):
        # "Saigon" legitimately names both the city and the river.
        assert [e for e in kb.entities.values() if "saigon" in e.folded_names] == [
            kb.resolve("e1"),
            kb.resolve("e2"),
        ]

    def test_malformed_records(self, taxonomy):
        with pytest.raises(KnowledgeBaseError):
            load_knowledge_base([{"class": "City", "names": ["A"]}], taxonomy)
        with pytest.raises(KnowledgeBaseError):
            load_knowledge_base([{"id": "x", "class": "City", "names": "A"}], taxonomy)


    def test_unknown_key_rejected(self, taxonomy):
        record = {"id": "e9", "class": "City", "names": ["Hue"], "aliases": ["Hue City"]}
        with pytest.raises(KnowledgeBaseError, match="entity 'e9' has unknown key 'aliases'"):
            load_knowledge_base([record], taxonomy)


class TestFileLoading:
    def test_round_trip(self, tmp_path):
        taxo_path = write_jsonl(tmp_path / "taxonomy.jsonl", corpusgen.TAXONOMY_RECORDS)
        kb_path = write_jsonl(tmp_path / "kb.jsonl", corpusgen.ENTITY_RECORDS)
        taxonomy = read_taxonomy_file(taxo_path)
        kb = read_kb_file(kb_path, taxonomy)
        assert len(taxonomy.parents) == 8
        assert len(kb.entities) == 5

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "taxonomy.jsonl"
        path.write_text('{"class": "A"}\n\n{"class": "B"}\n')
        assert len(read_taxonomy_file(path).parents) == 2

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "taxonomy.jsonl"
        path.write_text('{"class": "A"}\nnot json\n')
        with pytest.raises(TaxonomyError, match="line 2"):
            read_taxonomy_file(path)

    @pytest.mark.parametrize(
        "line",
        ['{"class": ' + "1" * 5000 + "}", "[" * 100_000, '{"class": "A\\ud800"}'],
        ids=["huge-int", "deep-nesting", "lone-surrogate"],
    )
    def test_unusable_json_reports_line(self, tmp_path, line):
        path = tmp_path / "taxonomy.jsonl"
        path.write_text('{"class": "A"}\n' + line + "\n")
        with pytest.raises(TaxonomyError, match="line 2"):
            read_taxonomy_file(path)

    def test_records_are_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "taxonomy.jsonl"
        path.write_text('{"class": "A"}\nnot json\n')
        records = read_jsonl(path, TaxonomyError)
        assert next(records) == {"class": "A"}
        with pytest.raises(TaxonomyError, match="line 2"):
            next(records)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # The repeated entity id comes before a line that is not JSON.
        path = write_jsonl(tmp_path / "kb.jsonl", corpusgen.ENTITY_RECORDS[:1] * 2)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        taxonomy = load_taxonomy(corpusgen.TAXONOMY_RECORDS)
        with pytest.raises(KnowledgeBaseError, match="duplicate entity identifier"):
            read_kb_file(path, taxonomy)

    def test_written_lines_read_back_unescaped(self, tmp_path):
        rows = [{"id": "e1", "names": ["Straße"]}, {"id": "e2", "names": ["Hồ Chí Minh"]}]
        path = tmp_path / "rows.jsonl"
        ontology.write_jsonl(path, rows)
        assert list(read_jsonl(path, KnowledgeBaseError)) == rows
        assert path.read_text(encoding="utf-8") == (
            '{"id": "e1", "names": ["Straße"]}\n{"id": "e2", "names": ["Hồ Chí Minh"]}\n'
        )

    @pytest.mark.parametrize("compact, separators", [(False, None), (True, (",", ":"))])
    def test_written_lines_are_json_dumps_lines(self, tmp_path, monkeypatch, compact, separators):
        rows = [
            {"id": "e1", "names": ["Straße", "Hồ Chí Minh"], "n": [0, 7, 65536]},
            {"term": ["日本", ""], "score": 0.1, "nested": {"a": None, "b": True}},
            {"quote": 'say "hi"\n', "emoji": "\U0001f600"},
        ]
        expected = "".join(
            json.dumps(row, ensure_ascii=False, separators=separators) + "\n" for row in rows
        ).encode()
        encoders = []
        init = json.JSONEncoder.__init__
        monkeypatch.setattr(
            json.JSONEncoder,
            "__init__",
            lambda self, *args, **kwargs: encoders.append(self) or init(self, *args, **kwargs),
        )
        path = tmp_path / "rows.jsonl"
        written = ontology.write_jsonl(path, rows, compact=compact)
        monkeypatch.undo()
        assert path.read_bytes() == expected
        assert written == {"bytes": len(expected), "sha256": hashlib.sha256(expected).hexdigest()}
        # One encoder serves the whole file.
        assert len(encoders) == 1

    def test_record_writers_invert_the_loaders(self):
        # PortCity has two parents; the last entity's names are not ASCII.
        taxonomy = load_taxonomy(corpusgen.SYNTH_TAXONOMY_RECORDS)
        extra = {"id": "x", "class": "City", "names": ["Hồ"]}
        kb = load_knowledge_base([*corpusgen.SYNTH_ENTITY_RECORDS, extra], taxonomy)
        again = load_taxonomy(taxonomy_records(taxonomy))
        assert again.parents == taxonomy.parents
        assert load_knowledge_base(knowledge_base_records(kb), again).entities == kb.entities

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(KnowledgeBaseError, match="object"):
            read_kb_file(path, ClassTaxonomy({}))


# Writes a 20k-class chain (c0 the root, c19999 the leaf), loads it under
# tracemalloc, then builds and dumps an index whose mentions name c10.
DEEP_CHAIN_CHILD = """
import sys, tracemalloc
from pathlib import Path
from conftest import write_jsonl
from oracle import naive_ancestors
from ontovsm.cli import main
from ontovsm.ontology import read_taxonomy_file

out = Path(sys.argv[1])
n = 20_000
records = [{"class": "c0", "parents": []}]
records += [{"class": f"c{i}", "parents": [f"c{i - 1}"]} for i in range(1, n)]
taxo = write_jsonl(out / "taxonomy.jsonl", records)
tracemalloc.start()
taxonomy = read_taxonomy_file(taxo)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
leaf = f"c{n - 1}"
assert taxonomy.ancestors(leaf) == naive_ancestors(records, leaf)

kb = write_jsonl(out / "kb.jsonl", [{"id": "e1", "class": "c10", "names": ["Deep"]}])
corpus = write_jsonl(out / "corpus.jsonl", [
    {"doc_id": "d1", "text": "Deep here",
     "annotations": [{"start": 0, "end": 4, "id": "e1"}]},
    {"doc_id": "d2", "text": "a thing",
     "annotations": [{"start": 2, "end": 7, "class": "c10"}]},
])
index = str(out / "index")
args = ["--taxonomy", str(taxo), "--kb", str(kb), "--corpus", str(corpus)]
assert main(["build-index", *args, "--index", index]) == 0
assert main(["dump-index", "--index", index]) == 0
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_deep_chain_loads_in_linear_memory(tmp_path):
    # A chain's ancestor sets hold n²/2 classes in all, so a loader that stored
    # them would need gigabytes here. The child runs under a 1 GiB address-space
    # cap, so such a loader dies with MemoryError instead of exhausting the host.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    result = subprocess.run(
        [sys.executable, "-c", DEEP_CHAIN_CHILD, str(tmp_path)],
        env=env,
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
