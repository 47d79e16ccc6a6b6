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
(non-overlapped).
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

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


def expand_annotation(
    annotation: Annotation, kb: KnowledgeBase, taxonomy: ClassTaxonomy
) -> Counter[Term]:
    """Document-side expansion of one entity occurrence.

    With an identifier the occurrence counts once for every alias; with a class
    it counts once for the class and each superclass; NC pairs are the full
    cross product of the two sets.
    """
    if annotation.identifier is not None:
        entity = kb.resolve(annotation.identifier)
        aliases = sorted(n.casefold() for n in entity.names)
        class_id = entity.class_id
    else:
        aliases = [annotation.name.casefold()] if annotation.name is not None else []
        class_id = annotation.class_id
    classes = sorted(taxonomy.ancestors(class_id)) if class_id is not None else []

    counts: Counter[Term] = Counter()
    for alias in aliases:
        counts[name_term(alias)] += 1
    for cls in classes:
        counts[class_term(cls)] += 1
    for alias in aliases:
        for cls in classes:
            counts[name_class_term(alias, cls)] += 1
    if annotation.identifier is not None:
        counts[identifier_term(annotation.identifier)] += 1
    return counts


def document_terms(
    doc: AnnotatedDocument, kb: KnowledgeBase, taxonomy: ClassTaxonomy
) -> Counter[Term]:
    """Term frequencies of one document across the five partitioned spaces."""
    counts: Counter[Term] = Counter()
    for annotation in doc.annotations:
        counts.update(expand_annotation(annotation, kb, taxonomy))
    for token in doc.keyword_tokens:
        counts[keyword_term(token)] += 1
    return counts


def query_terms_overlapped(annotation: Annotation, kb: KnowledgeBase) -> set[Term]:
    """One query term per feature the annotation can express.

    An identifier pins down the entity, so its canonical name and class stand
    in for features the annotation leaves unspecified.
    """
    name = annotation.name
    class_id = annotation.class_id
    if annotation.identifier is not None:
        entity = kb.resolve(annotation.identifier)
        if name is None:
            name = entity.canonical_name
        if class_id is None:
            class_id = entity.class_id
    terms: set[Term] = set()
    if name is not None:
        terms.add(name_term(name))
    if class_id is not None:
        terms.add(class_term(class_id))
    if name is not None and class_id is not None:
        terms.add(name_class_term(name, class_id))
    if annotation.identifier is not None:
        terms.add(identifier_term(annotation.identifier))
    return terms


def query_terms_nonoverlapped(annotation: Annotation) -> set[Term]:
    """The single most specific term: identifier, then pair, class, name."""
    if annotation.identifier is not None:
        return {identifier_term(annotation.identifier)}
    if annotation.name is not None and annotation.class_id is not None:
        return {name_class_term(annotation.name, annotation.class_id)}
    if annotation.class_id is not None:
        return {class_term(annotation.class_id)}
    if annotation.name is not None:
        return {name_term(annotation.name)}
    raise ValueError("annotation specifies no feature")


def query_terms(query: Query, kb: KnowledgeBase, overlapped: bool) -> set[Term]:
    """All distinct terms of a query; every distinct term weighs tf = 1."""
    terms: set[Term] = {keyword_term(t) for t in query.keywords}
    for annotation in query.annotations:
        if overlapped:
            terms.update(query_terms_overlapped(annotation, kb))
        else:
            terms.update(query_terms_nonoverlapped(annotation))
    return terms
