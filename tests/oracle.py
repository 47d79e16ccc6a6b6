"""Naive reference implementation used to cross-check the engine.

Works directly on raw record dicts, never on package objects: its own
tokenizer, its own recursive ancestor walk, and brute-force vectors held as
plain dicts keyed by term tuples. Slow on purpose; correctness comes from
being too simple to get wrong. ``pr_points`` is the evaluation's reference:
one precision-recall point for every rank, where the package builds only the
points that interpolation can read.
"""
import math
import re
from collections import Counter

from ontovsm.errors import EvalError

WORD = re.compile(r"[0-9A-Za-z]+")

ENTITY_KINDS = ("N", "C", "NC", "I")


def naive_tokens(text, stopwords=()):
    return [w.lower() for w in WORD.findall(text) if w.lower() not in stopwords]


def naive_ancestors(taxonomy_records, class_id):
    parents = {r["class"]: list(r.get("parents", [])) for r in taxonomy_records}
    seen = set()
    stack = [class_id]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(parents.get(cls, []))
    return seen


def naive_entity(kb_records, identifier):
    for record in kb_records:
        if record["id"] == identifier:
            return record
    raise KeyError(identifier)


def _feature(annotation, key):
    value = annotation.get(key)
    return None if value in (None, "*") else value


def naive_doc_entity_counts(doc, kb_records, taxonomy_records):
    counts = {}

    def bump(term):
        counts[term] = counts.get(term, 0) + 1

    for annotation in doc.get("annotations", []):
        identifier = _feature(annotation, "id")
        if identifier:
            entity = naive_entity(kb_records, identifier)
            names = [n.lower() for n in entity["names"]]
            class_id = entity["class"]
        else:
            name = _feature(annotation, "name")
            names = [name.lower()] if name else []
            class_id = _feature(annotation, "class")
        classes = sorted(naive_ancestors(taxonomy_records, class_id)) if class_id else []
        for name in names:
            bump(("N", name))
        for cls in classes:
            bump(("C", cls))
        for name in names:
            for cls in classes:
                bump(("NC", name, cls))
        if identifier:
            bump(("I", identifier))
    return counts


def naive_keyword_counts(doc, stopwords=(), include_spans=False):
    spans = [(a["start"], a["end"]) for a in doc.get("annotations", [])]
    counts = {}
    for match in WORD.finditer(doc["text"]):
        if not include_spans and any(match.start() < e and s < match.end() for s, e in spans):
            continue
        word = match.group(0).lower()
        if word in stopwords:
            continue
        term = ("KW", word)
        counts[term] = counts.get(term, 0) + 1
    return counts


def naive_query_entity_terms(query, kb_records, overlapped):
    terms = set()
    for annotation in query.get("entities", []):
        name = _feature(annotation, "name")
        class_id = _feature(annotation, "class")
        identifier = _feature(annotation, "id")
        if overlapped:
            if identifier:
                entity = naive_entity(kb_records, identifier)
                name = name or entity["names"][0]
                class_id = class_id or entity["class"]
            if name:
                terms.add(("N", name.lower()))
            if class_id:
                terms.add(("C", class_id))
            if name and class_id:
                terms.add(("NC", name.lower(), class_id))
            if identifier:
                terms.add(("I", identifier))
        else:
            if identifier:
                terms.add(("I", identifier))
            elif name and class_id:
                terms.add(("NC", name.lower(), class_id))
            elif class_id:
                terms.add(("C", class_id))
            elif name:
                terms.add(("N", name.lower()))
    return terms


def naive_query_keyword_terms(query, stopwords=()):
    terms = set()
    for keyword in query.get("keywords", []):
        for word in naive_tokens(keyword, stopwords):
            terms.add(("KW", word))
    return terms


def _cosine(a, b):
    if not a or not b:
        return 0.0
    dot = 0.0
    for term in sorted(a):
        if term in b:
            dot += a[term] * b[term]
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


class Oracle:
    """Brute-force scorer over a raw corpus."""

    def __init__(self, taxonomy_records, kb_records, doc_records, stopwords=()):
        self.kb_records = kb_records
        self.stopwords = tuple(stopwords)
        self.doc_ids = [d["doc_id"] for d in doc_records]
        self.entity_counts = {}
        self.kw_counts = {}
        self.full_counts = {}
        for doc in doc_records:
            self.entity_counts[doc["doc_id"]] = naive_doc_entity_counts(
                doc, kb_records, taxonomy_records
            )
            self.kw_counts[doc["doc_id"]] = naive_keyword_counts(doc, stopwords)
            self.full_counts[doc["doc_id"]] = naive_keyword_counts(
                doc, stopwords, include_spans=True
            )
        self.merged_counts = {
            doc_id: {**self.entity_counts[doc_id], **self.kw_counts[doc_id]}
            for doc_id in self.doc_ids
        }
        self.n_docs = len(self.doc_ids)
        # Each table's document frequencies, counted once: one term per document.
        self.dfs = {
            which: Counter(term for counts in self._counts(which).values() for term in counts)
            for which in ("entity", "kw", "full", "merged")
        }

    def _counts(self, which):
        return {
            "entity": self.entity_counts,
            "kw": self.kw_counts,
            "full": self.full_counts,
            "merged": self.merged_counts,
        }[which]

    def _idf(self, term, which):
        df = self.dfs[which][term]
        if df == 0:
            return 0.0
        return math.log(1.0 + self.n_docs / df)

    def _doc_vector(self, doc_id, which, kinds=None):
        vector = {}
        for term, count in self._counts(which)[doc_id].items():
            if kinds is not None and term[0] not in kinds:
                continue
            vector[term] = count * self._idf(term, which)
        return vector

    def _query_vector(self, terms, which, kinds=None):
        vector = {}
        for term in terms:
            if kinds is not None and term[0] not in kinds:
                continue
            weight = self._idf(term, which)
            if weight > 0.0:
                vector[term] = weight
        return vector

    def _docs_with(self, term, which):
        table = self._counts(which)
        return {doc_id for doc_id in self.doc_ids if term in table[doc_id]}

    def _union(self, terms, which):
        docs = set()
        for term in terms:
            docs |= self._docs_with(term, which)
        return docs

    def _entity_sets(self, entity_terms, conjunctive):
        per_kind = []
        for kind in ENTITY_KINDS:
            kind_terms = {t for t in entity_terms if t[0] == kind}
            if kind_terms:
                per_kind.append(self._union(kind_terms, "entity"))
        if not per_kind:
            return None
        result = per_kind[0]
        for docs in per_kind[1:]:
            result = result & docs if conjunctive else result | docs
        return result

    def filter(self, query, model):
        overlapped = model in ("ne-o", "kw-and-ne-o", "kw-or-ne-o")
        entity_terms = naive_query_entity_terms(query, self.kb_records, overlapped)
        keyword_terms = naive_query_keyword_terms(query, self.stopwords)

        if model == "kw":
            return self._union(keyword_terms, "full")
        if model == "kw-plus-ne":
            docs = self._union(keyword_terms, "kw")
            return docs | self._union(entity_terms, "entity")

        entity_set = self._entity_sets(entity_terms, conjunctive=overlapped)
        if model in ("ne-o", "ne-n"):
            return entity_set if entity_set is not None else set()

        sides = []
        if keyword_terms:
            sides.append(self._union(keyword_terms, "kw"))
        if entity_set is not None:
            sides.append(entity_set)
        result = sides[0]
        for docs in sides[1:]:
            result = result & docs if "and" in model else result | docs
        return result

    def score(self, query, doc_id, model, weights=(0.25, 0.25, 0.25, 0.25), alpha=0.5):
        overlapped = model in ("ne-o", "kw-and-ne-o", "kw-or-ne-o")
        entity_terms = naive_query_entity_terms(query, self.kb_records, overlapped)
        keyword_terms = naive_query_keyword_terms(query, self.stopwords)

        if model == "kw":
            return _cosine(
                self._doc_vector(doc_id, "full"), self._query_vector(keyword_terms, "full")
            )
        if model == "kw-plus-ne":
            return _cosine(
                self._doc_vector(doc_id, "merged"),
                self._query_vector(entity_terms | keyword_terms, "merged"),
            )

        entity_score = 0.0
        for kind, weight in zip(ENTITY_KINDS, weights):
            entity_score += weight * _cosine(
                self._doc_vector(doc_id, "entity", {kind}),
                self._query_vector(entity_terms, "entity", {kind}),
            )
        if model in ("ne-o", "ne-n"):
            return entity_score
        keyword_cosine = self.keyword_cosine(query, doc_id)
        return alpha * entity_score + (1.0 - alpha) * keyword_cosine

    def keyword_cosine(self, query, doc_id):
        """The blended models' keyword component on its own."""
        keyword_terms = naive_query_keyword_terms(query, self.stopwords)
        return _cosine(
            self._doc_vector(doc_id, "kw"), self._query_vector(keyword_terms, "kw")
        )

    def search(self, query, model, weights=(0.25, 0.25, 0.25, 0.25), alpha=0.5, k=1000):
        candidates = self.filter(query, model)
        scored = [
            (doc_id, self.score(query, doc_id, model, weights, alpha))
            for doc_id in sorted(candidates)
        ]
        # Rounded as the engine rounds, so scores equal but for float error tie
        # and break by doc id, before the cut at k.
        scored.sort(key=lambda pair: (-round(pair[1], 12), pair[0]))
        return scored[:k]


def pr_points(query_id, ranked_doc_ids, qrels):
    """One (recall, precision) point per rank position, top to bottom."""
    judged = qrels.get(query_id)
    if judged is None:
        raise EvalError(f"query {query_id!r} has no relevance judgments")
    total = sum(judged.values())
    if total == 0:
        raise EvalError(f"query {query_id!r} has no relevant documents")
    points = []
    seen = 0
    for rank, doc_id in enumerate(ranked_doc_ids, start=1):
        if judged.get(doc_id, False):
            seen += 1
        points.append((seen / total, seen / rank))
    return points
