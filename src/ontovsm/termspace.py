"""Generalized terms over names, classes, name/class pairs, identifiers, keywords.

A document or query is modelled as vectors over five term spaces:

* ``N``   entity names (case-folded aliases),
* ``C``   class identifiers,
* ``NC``  name/class pairs,
* ``I``   entity identifiers,
* ``KW``  ordinary keyword tokens.

Document annotations are expanded before counting: an identifier occurrence
counts for every alias of the entity, and a class occurrence counts for the
class and all of its superclasses, so a broader query still matches a narrower
document. Query annotations are never expanded; they contribute either one
term per specified feature (overlapped) or the single most specific term
(non-overlapped). Both sides draw their terms from one rule, ``_feature_terms``.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .corpus import AnnotatedDocument, Annotation, Query
from .ontology import ClassTaxonomy, KnowledgeBase

# The five partitioned term spaces, in display order.
TERM_SPACES = ("N", "C", "NC", "I", "KW")
ENTITY_SPACES = ("N", "C", "NC", "I")


class Term(NamedTuple):
    """One dimension of a term space.

    ``secondary`` is empty except in the NC space, where ``primary`` holds the
    name and ``secondary`` the class.
    """

    space: str
    primary: str
    secondary: str = ""


def name_term(name: str) -> Term:
    return Term("N", name.casefold())


def class_term(class_id: str) -> Term:
    return Term("C", class_id)


def name_class_term(name: str, class_id: str) -> Term:
    return Term("NC", name.casefold(), class_id)


def identifier_term(identifier: str) -> Term:
    return Term("I", identifier)


def keyword_term(token: str) -> Term:
    return Term("KW", token.casefold())


def format_term(term: Term) -> str:
    if term.secondary:
        return f"{term.space}:{term.primary}/{term.secondary}"
    return f"{term.space}:{term.primary}"


def _feature_terms(
    names: Sequence[str], classes: Sequence[str], identifier: str | None
) -> list[Term]:
    """One mention's term lattice: an N term per name, then a C term per class,
    an NC term per name/class pair and an I term for the identifier."""
    # Plain loops: a query mention has at most one name and one class, and for
    # so few items a comprehension's own call costs more than its loop.
    terms: list[Term] = []
    for n in names:
        terms.append(name_term(n))
    for c in classes:
        terms.append(class_term(c))
    for n in names:
        for c in classes:
            terms.append(name_class_term(n, c))
    if identifier is not None:
        terms.append(identifier_term(identifier))
    return terms


def _given(feature: str | None) -> tuple[str, ...]:
    return () if feature is None else (feature,)


def expand_annotation(
    annotation: Annotation, kb: KnowledgeBase, taxonomy: ClassTaxonomy
) -> Counter[Term]:
    """Document-side expansion of one entity occurrence.

    With an identifier the occurrence counts once for every alias; with a class
    it counts once for the class and each superclass; NC pairs are the full
    cross product of the two sets.
    """
    names, class_id = _given(annotation.name), annotation.class_id
    if annotation.identifier is not None:
        entity = kb.resolve(annotation.identifier)
        names, class_id = sorted(entity.folded_names), entity.class_id
    classes = sorted(taxonomy.ancestors(class_id)) if class_id is not None else []
    return Counter(_feature_terms(names, classes, annotation.identifier))


def document_terms(
    doc: AnnotatedDocument,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    expansions: dict[tuple | str, tuple[Term, ...] | Term] | None = None,
) -> Counter[Term]:
    """Term frequencies of one document across the five partitioned spaces.

    ``expansions`` caches, across the documents of one build, each distinct
    mention's expanded terms under its (name, class, identifier) tuple and each
    keyword token's ``KW`` term under the token; ``None`` starts an empty cache.
    Pass only a cache that earlier calls with the same knowledge base and
    taxonomy filled.
    """
    # An expansion reads only the mention's (name, class, identifier) and names
    # each term once, so a mention occurring n times adds n to each of its terms.
    if expansions is None:
        expansions = {}
    counts: Counter[Term] = Counter()
    mentions = Counter((a.name, a.class_id, a.identifier) for a in doc.annotations)
    for mention, n in mentions.items():
        terms = expansions.get(mention)
        if terms is None:
            terms = tuple(expand_annotation(Annotation(*mention), kb, taxonomy))
            expansions[mention] = terms
        for term in terms:
            counts[term] += n
    for token, n in Counter(doc.keyword_tokens).items():
        term = expansions.get(token)
        if term is None:
            term = expansions[token] = keyword_term(token)
        counts[term] += n
    return counts


def query_terms_overlapped(annotation: Annotation, kb: KnowledgeBase) -> set[Term]:
    """One query term per feature the annotation can express.

    An identifier pins down the entity, so its canonical name and class stand
    in for features the annotation leaves unspecified.
    """
    name, class_id = annotation.name, annotation.class_id
    if annotation.identifier is not None:
        entity = kb.resolve(annotation.identifier)
        name = entity.canonical_name if name is None else name
        class_id = entity.class_id if class_id is None else class_id
    return set(_feature_terms(_given(name), _given(class_id), annotation.identifier))


def query_terms_nonoverlapped(annotation: Annotation) -> set[Term]:
    """The single most specific term: identifier, then pair, class, name."""
    terms = _feature_terms(
        _given(annotation.name), _given(annotation.class_id), annotation.identifier
    )
    if not terms:
        raise ValueError("annotation specifies no feature")
    return {terms[-1]}


def query_terms(query: Query, kb: KnowledgeBase, overlapped: bool) -> set[Term]:
    """All distinct terms of a query; every distinct term weighs tf = 1."""
    terms: set[Term] = {keyword_term(t) for t in query.keywords}
    for annotation in query.annotations:
        if overlapped:
            terms.update(query_terms_overlapped(annotation, kb))
        else:
            terms.update(query_terms_nonoverlapped(annotation))
    return terms
