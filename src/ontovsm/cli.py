"""Batch command line interface.

Subcommands cover the full experiment loop: ``build-index`` persists an index
from a taxonomy, knowledge base, and annotated corpus; ``annotate`` adds
gazetteer annotations to raw text; ``search`` writes one TREC-format run file
per model; ``eval`` scores run files against qrels; ``compare`` chains all of
it for every model; ``dump-index`` prints the term spaces; ``verify-index``
checks a saved index, file digests included. All failures exit nonzero with a
single ``error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    GazetteerAnnotator,
    document_record,
    load_corpus,
    load_queries,
    load_raw_corpus,
    load_stopword_file,
)
from .errors import EmptyQueryError, EvalError, OntoVsmError
from .evaluation import (
    InterpMode,
    evaluate_runs,
    load_qrels,
    load_run_file,
    write_report,
    write_run_file,
)
from .index import (
    STORED_SPACES,
    InvertedIndex,
    build_index,
    dump_index,
    load_index,
    save_index,
)
from .ontology import read_kb_file, read_taxonomy_file, write_jsonl
from .retrieval import ALL_MODELS, ModelConfig, ModelKind, rank
from .termspace import TERM_SPACES


def _parse_models(value: str) -> list[ModelKind]:
    models = []
    for name in value.split(","):
        name = name.strip()
        try:
            model = ModelKind(name)
        except ValueError:
            known = ", ".join(m.value for m in ALL_MODELS)
            raise argparse.ArgumentTypeError(
                f"unknown model {name!r} (expected one of: {known})"
            ) from None
        if model in models:
            raise argparse.ArgumentTypeError(f"model {name!r} listed twice")
        models.append(model)
    return models


def _parse_weights(value: str) -> tuple[float, ...]:
    parts = value.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated weights wN,wC,wNC,wI, got {value!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric weight in {value!r}") from None


def _nonnegative_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {number}")
    return number


def _model_config(args: argparse.Namespace) -> ModelConfig:
    w_n, w_c, w_nc, w_i = args.weights
    return ModelConfig(w_n=w_n, w_c=w_c, w_nc=w_nc, w_i=w_i, alpha=args.alpha)


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--models",
        type=_parse_models,
        default=list(ALL_MODELS),
        help="comma-separated model names (default: all eight)",
    )
    parser.add_argument(
        "--weights",
        type=_parse_weights,
        default=(0.25, 0.25, 0.25, 0.25),
        metavar="wN,wC,wNC,wI",
        help="entity space weights, must sum to 1 (default 0.25 each)",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.5, help="entity/keyword blend in [0,1] (default 0.5)"
    )
    parser.add_argument(
        "--top-k", type=_nonnegative_int, default=1000, help="results per query (default 1000)"
    )


def _add_collection_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--taxonomy", required=True, help="class taxonomy (JSONL)")
    parser.add_argument("--kb", required=True, help="entity knowledge base (JSONL)")
    parser.add_argument("--corpus", required=True, help="annotated corpus (JSONL)")
    parser.add_argument("--stopwords", help="optional stopword file, one word per line")


def _add_interp_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interp", choices=[m.value for m in InterpMode], default="standard")


def _read_collection(args: argparse.Namespace):
    """Read the taxonomy, knowledge base and stopwords, and return the corpus
    with them, unread: ``build_index`` reads each document as it indexes it."""
    taxonomy = read_taxonomy_file(args.taxonomy)
    kb = read_kb_file(args.kb, taxonomy)
    stopwords = load_stopword_file(args.stopwords) if args.stopwords else frozenset()
    return load_corpus(args.corpus, kb, taxonomy, stopwords), kb, taxonomy, stopwords


def _summary_line(index: InvertedIndex) -> str:
    counts = ", ".join(f"{space}={index.term_count(space)}" for space in TERM_SPACES)
    return f"indexed {index.n_docs} docs; terms: {counts}"


def _search_all(
    index: InvertedIndex,
    queries,
    models: list[ModelKind],
    config: ModelConfig,
    top_k: int,
    run_dir: Path,
) -> dict[str, dict[str, list[str]]]:
    """Search every model, write ``run_dir/<model>.run`` and return each model's run."""
    run_dir.mkdir(parents=True, exist_ok=True)
    ranked = {}
    for model in models:
        runs = {}
        for query in queries:
            try:
                runs[query.query_id] = rank(index, query, model, config, top_k)
            except EmptyQueryError as exc:
                # The model cannot express this query; its run stays empty for it.
                print(f"warning: {model.value}: {exc}", file=sys.stderr)
        ranked[model.value] = write_run_file(runs, model.value, run_dir / f"{model.value}.run")
    return ranked


def cmd_build_index(args: argparse.Namespace) -> int:
    index = build_index(*_read_collection(args))
    save_index(index, args.index)
    print(_summary_line(index))
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    taxonomy = read_taxonomy_file(args.taxonomy)
    kb = read_kb_file(args.kb, taxonomy)
    annotator = GazetteerAnnotator(kb)
    docs = load_raw_corpus(args.corpus)
    rows = (document_record(d, text, annotator.annotate(text)) for d, text in docs)
    write_jsonl(args.out, rows)
    print(f"annotated {len(docs)} docs -> {args.out}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    config = _model_config(args)  # reject bad weights before touching the index
    index = load_index(args.index)
    queries = load_queries(args.queries, index.kb, index.taxonomy, index.stopwords)
    run_dir = Path(args.out)
    _search_all(index, queries, args.models, config, args.top_k, run_dir)
    for model in args.models:
        print(f"wrote {run_dir / model.value}.run")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    qrels = load_qrels(args.qrels)
    runs_by_model = {}
    for run_path in args.runs:
        label = Path(run_path).stem
        if label in runs_by_model:
            raise EvalError(f"two run files share the label {label!r}")
        runs_by_model[label] = load_run_file(run_path)
    rep = evaluate_runs(runs_by_model, qrels, InterpMode(args.interp))
    write_report(rep, args.out)
    print(f"evaluated {len(rep.curves)} models over {rep.query_count} queries -> {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _model_config(args)
    # Every input is read and checked before anything is saved or written;
    # the corpus is read last, as the build indexes it.
    docs, kb, taxonomy, stopwords = _read_collection(args)
    queries = load_queries(args.queries, kb, taxonomy, stopwords)
    qrels = load_qrels(args.qrels)
    index = build_index(docs, kb, taxonomy, stopwords)
    if args.index:
        save_index(index, args.index)
    print(_summary_line(index))
    out_dir = Path(args.out)
    runs_by_model = _search_all(index, queries, args.models, config, args.top_k, out_dir / "runs")
    rep = evaluate_runs(runs_by_model, qrels, InterpMode(args.interp))
    write_report(rep, out_dir)
    print(f"evaluated {len(rep.curves)} models over {rep.query_count} queries -> {out_dir}")
    return 0


def cmd_dump_index(args: argparse.Namespace) -> int:
    dump_index(load_index(args.index), sys.stdout)
    return 0


def cmd_verify_index(args: argparse.Namespace) -> int:
    # load_index refuses a stats.json other than a save of the loaded index
    # writes, so the index's counts are the ones stats.json records.
    index = load_index(args.index)
    counts = ", ".join(
        f"{space}={index.term_count(space)}/{index.posting_count(space)}"
        for space in STORED_SPACES
    )
    print(f"verified {index.n_docs} docs; terms/postings: {counts}; lists: {index.list_count()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontovsm",
        description="Entity-aware vector space retrieval over taxonomies, aliases, and keywords.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="index an annotated corpus")
    _add_collection_options(p)
    p.add_argument("--index", required=True, help="output index directory")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("annotate", help="annotate raw text with gazetteer matches")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--corpus", required=True, help="raw corpus (JSONL with doc_id and text)")
    p.add_argument("--out", required=True, help="annotated corpus output file")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("search", help="run queries against a saved index")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--queries", required=True, help="query file (JSONL)")
    p.add_argument("--out", required=True, help="directory for run files")
    _add_model_options(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="score run files against relevance judgments")
    p.add_argument("runs", nargs="+", help="run files; the file stem names the model")
    p.add_argument("--qrels", required=True, help="judgments file")
    p.add_argument("--out", required=True, help="directory for report tables and curves")
    _add_interp_option(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="build, search every model, and evaluate")
    _add_collection_options(p)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="output directory (runs/ plus report files)")
    p.add_argument("--index", help="optionally persist the built index here")
    _add_interp_option(p)
    _add_model_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-index", help="print the indexed term spaces")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_dump_index)

    p = sub.add_parser("verify-index", help="check a saved index, file digests included")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_verify_index)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OntoVsmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
