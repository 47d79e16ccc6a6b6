"""Entity-aware vector space retrieval.

Documents annotated with (name, class, identifier) entity mentions are
indexed over five generalized term spaces (names, classes, name/class pairs,
identifiers, and keywords) with alias and superclass expansion on the
document side. Retrieval filters candidates with posting-set algebra and
ranks them by weighted cosine similarity under eight model variants, from a
plain keyword baseline to a fully unified entity-plus-keyword space. An
evaluation kernel scores runs with 11-point interpolated precision and
F-measure.
"""

from .corpus import (
    AnnotatedDocument,
    Annotation,
    GazetteerAnnotator,
    Query,
    ingest_document,
    load_corpus,
    load_queries,
    load_stopword_file,
    query_from_record,
    tokenize,
)
from .errors import (
    ConfigError,
    CorpusError,
    EmptyQueryError,
    EvalError,
    IndexFormatError,
    KnowledgeBaseError,
    OntoVsmError,
    TaxonomyError,
)
from .evaluation import (
    EvalReport,
    InterpMode,
    PRCurve,
    Qrels,
    average,
    evaluate_runs,
    f_measure,
    interpolate_11pt,
    load_qrels,
    load_run_file,
    write_report,
    write_run_file,
)
from .index import InvertedIndex, build_index, dump_index, load_index, save_index
from .ontology import (
    ClassTaxonomy,
    EntityRecord,
    KnowledgeBase,
    load_knowledge_base,
    load_taxonomy,
    read_kb_file,
    read_taxonomy_file,
)
from .retrieval import (
    ALL_MODELS,
    ModelConfig,
    ModelKind,
    RankedResult,
    filter_documents,
    rank,
    score,
    search,
)
from .termspace import Term, document_terms, format_term, query_terms

__version__ = "0.1.0"
