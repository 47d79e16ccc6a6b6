"""Two-stage retrieval: Boolean document filtering, then cosine ranking.

Eight model variants share the machinery:

* ``kw``          cosine over the full-text keyword space,
* ``ne-o``        weighted per-space cosines, overlapped query terms,
* ``ne-n``        the same with non-overlapped (most specific) query terms,
* ``kw-and-ne-*`` keyword filter AND entity filter, blended score,
* ``kw-or-ne-*``  keyword filter OR entity filter, blended score,
* ``kw-plus-ne``  single cosine over the unified space.

The entity score is sum_s w_s * cos(d_s, q_s) over the four entity spaces;
blended models score alpha * entity + (1 - alpha) * cos over the partitioned
keyword space. A filter side the query does not populate imposes no
constraint on an intersection and contributes nothing to a union.

Every model is thus a weighted sum of per-space cosines, so a (query, model)
pair needs only the postings and idfs of the query terms the model reads.
``_read`` is the one place that decides them: it takes the query's terms in the
model's mode, reads each once in the stored space the model reads it from, and
raises ``EmptyQueryError`` when the model reads none. ``filter_documents``,
``search``, ``rank`` and ``score`` all start from it. A query has only two
expansions, overlapped and non-overlapped, so it keeps each, sorted, per
knowledge base, on first use; the memo is not part of the ``Query``'s value.
A ``ModelConfig`` likewise builds its table of per-space weights once.
The filter unions those postings, and
``_scores`` walks them all: a document scores ``sum c * tf(d, term) / |d|_space``,
one c per read. Both work on doc numbers, which ascend with doc id, and map them
to ids only for what they return. ``score`` reads one document's entry from the
pass over the query's lists that ``search`` makes, so one call costs about one
unranked search: to score many documents of a query, use ``search`` or ``rank``.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, NamedTuple

from .corpus import Query
from .errors import ConfigError, EmptyQueryError
from .index import InvertedIndex, PostingList, idf_weight
from .termspace import ENTITY_SPACES, query_terms

WEIGHT_TOLERANCE = 1e-9
# Scores are rounded to this many decimals, so that scores equal in exact
# arithmetic but split by float rounding tie exactly and rank by doc id.
SCORE_DECIMALS = 12


class ModelKind(enum.Enum):
    """The model table, one row per model, named as on the command line.

    ``overlapped``: query annotations expand to all their feature levels, and
    the entity side intersects its per-space posting sets (else unions them).
    ``keyword_space``: the space the keyword filter side reads, or None.
    ``entity_side``: whether the filter has an entity side.
    ``conjunctive``: the filter sides combine by AND (else OR).
    ``score``: one cosine in ``KW_FULL`` or ``UNIFIED``, the weighted
    ``entity`` cosines, or their ``blend`` with the keyword cosine by alpha.
    """

    # Rows are listed in report order: ALL_MODELS and precision.csv follow it.
    #              name           overlapped keyword_space entity conjunctive score
    KW =          ("kw",          False,     "KW_FULL",    False, False,      "KW_FULL")
    NE_O =        ("ne-o",        True,      None,         True,  False,      "entity")
    NE_N =        ("ne-n",        False,     None,         True,  False,      "entity")
    KW_PLUS_NE =  ("kw-plus-ne",  False,     "KW",         True,  False,      "UNIFIED")
    KW_AND_NE_O = ("kw-and-ne-o", True,      "KW",         True,  True,       "blend")
    KW_OR_NE_O =  ("kw-or-ne-o",  True,      "KW",         True,  False,      "blend")
    KW_AND_NE_N = ("kw-and-ne-n", False,     "KW",         True,  True,       "blend")
    KW_OR_NE_N =  ("kw-or-ne-n",  False,     "KW",         True,  False,      "blend")

    def __new__(cls, value, overlapped, keyword_space, entity_side, conjunctive, score):
        member = object.__new__(cls)
        member._value_ = value
        member.overlapped = overlapped
        member.keyword_space = keyword_space
        member.entity_side = entity_side
        member.conjunctive = conjunctive
        member.score = score
        return member


ALL_MODELS = tuple(ModelKind)


@dataclass(frozen=True)
class ModelConfig:
    """Entity-space weights and the keyword blend factor. ``score_weights`` is
    computed on first use and kept; it is not part of the config's value."""

    w_n: float = 0.25
    w_c: float = 0.25
    w_nc: float = 0.25
    w_i: float = 0.25
    alpha: float = 0.5

    def __post_init__(self):
        weights = (self.w_n, self.w_c, self.w_nc, self.w_i)
        if not all(math.isfinite(v) for v in (*weights, self.alpha)):
            raise ConfigError(f"weights and alpha must be finite, got {weights}, {self.alpha!r}")
        if any(w < 0 for w in weights):
            raise ConfigError(f"entity weights must be non-negative, got {weights}")
        if abs(sum(weights) - 1.0) > WEIGHT_TOLERANCE:
            raise ConfigError(f"entity weights must sum to 1, got {sum(weights)!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha!r}")

    @property
    def space_weights(self) -> dict[str, float]:
        return {"N": self.w_n, "C": self.w_c, "NC": self.w_nc, "I": self.w_i}

    @cached_property
    def score_weights(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """For each ``ModelKind.score``, the spaces whose cosines it sums, each with its weight."""
        entity = tuple(self.space_weights.items())
        blend = (*[(s, self.alpha * w) for s, w in entity], ("KW", 1.0 - self.alpha))
        unit = {space: ((space, 1.0),) for space in ("KW_FULL", "UNIFIED")}
        return {"entity": entity, "blend": blend, **unit}


DEFAULT_CONFIG = ModelConfig()


class RankedResult(NamedTuple):
    doc_id: str
    score: float


# RankedResult._make without its Python frame: a NamedTuple is made by tuple.__new__.
_result = partial(tuple.__new__, RankedResult)


# One query term's posting list in a stored space, and its idf there.
Read = tuple[PostingList, float]


def _read(index: InvertedIndex, query: Query, model: ModelKind) -> dict[str, list[Read]]:
    """Each of the model's query terms read once, with its posting list and idf,
    in the stored space the model reads it from, grouped by that space in sorted
    term order. The only place a query meets the index.

    A space is listed when the query has a term for it, even one no document
    has, so the filter sides follow from the query's terms. A model that reads
    no term of the query raises ``EmptyQueryError``.
    """
    key = (index.kb, model.overlapped)
    terms = query._terms.get(key)
    if terms is None:
        terms = query._terms[key] = tuple(sorted(query_terms(query, index.kb, model.overlapped)))
    reads: dict[str, list[Read]] = {}
    n_docs = index.n_docs
    for term in terms:
        if term.space == "KW":
            space = model.keyword_space
        else:
            space = term.space if model.entity_side else None
        if space is not None:
            plist = index.posting_list(term, space)
            reads.setdefault(space, []).append((plist, idf_weight(n_docs, len(plist) // 2)))
    if not reads:
        if not model.entity_side:
            raise EmptyQueryError(f"query {query.query_id!r} has no keyword terms")
        if model.keyword_space is None:
            raise EmptyQueryError(f"query {query.query_id!r} has no entity annotations")
        raise EmptyQueryError(f"query {query.query_id!r} contributes no terms")
    return reads


def _candidates(reads: dict[str, list[Read]], model: ModelKind) -> set[int]:
    """The doc numbers the model may rank: each side unions its lists' doc columns."""
    sides = []
    if model.keyword_space in reads:
        sides.append(set().union(*[p[::2] for p, _ in reads[model.keyword_space]]))
    # A space the query does not touch is skipped: an absent feature expresses
    # no constraint, so it must not empty the intersection.
    entity = [set().union(*[p[::2] for p, _ in reads[s]]) for s in ENTITY_SPACES if s in reads]
    if entity:
        sides.append(set.intersection(*entity) if model.overlapped else set.union(*entity))
    return set.intersection(*sides) if model.conjunctive else set.union(*sides)


def filter_documents(index: InvertedIndex, query: Query, model: ModelKind) -> set[str]:
    """Boolean first stage: the ids of the documents the model is allowed to rank."""
    return set(map(index.ids.__getitem__, _candidates(_read(index, query, model), model)))


def _scores(
    index: InvertedIndex,
    reads: dict[str, list[Read]],
    model: ModelKind,
    config: ModelConfig,
    docs: Iterable[int],
) -> dict[int, float]:
    """Term-at-a-time scores of the doc numbers ``docs``, clamped to 1 and rounded.
    Each read adds c * tf / |d|_space, c = weight * idf_q * idf_d / |q|_space, with
    query weights tf=1 times idf; terms the index never saw drop out, and so does
    a space the query has no term in. ``UNIFIED`` takes every read in sorted term
    order: terms sort by space first, so that is the reads of each space in
    sorted space order. Every posting read adds into
    one accumulator indexed by doc number; only ``docs`` are returned."""
    acc = [0.0] * index.n_docs
    for space, weight in config.score_weights[model.score]:
        if space == "UNIFIED":
            entries = [r for s in sorted(reads) for r in reads[s]]
        elif space in reads:
            entries = reads[space]
        else:
            continue
        idfs = [(p, w) for p, w in entries if w > 0.0]
        query_norm = math.sqrt(sum([w * w for _, w in idfs]))
        norms = index.norms[space]
        for plist, w in idfs:
            c = weight * w * w / query_norm
            pairs = iter(plist)
            for doc, tf in zip(pairs, pairs):
                acc[doc] += c * tf / norms[doc]
    # A perfect match can land a float ulp above 1; clamp it to exactly 1.
    return {d: round(s, SCORE_DECIMALS) if (s := acc[d]) < 1.0 else 1.0 for d in docs}


def score(
    index: InvertedIndex,
    query: Query,
    doc_id: str,
    model: ModelKind,
    config: ModelConfig | None = None,
) -> float:
    """Similarity of one document to the query under one model, in [0, 1].

    Raises ``EmptyQueryError`` on the same (query, model) pairs as ``search``.
    """
    ids = index.ids
    doc = bisect_left(ids, doc_id)
    if doc == len(ids) or ids[doc] != doc_id:
        raise KeyError(f"unknown document {doc_id!r}")
    return _scores(index, _read(index, query, model), model, config or DEFAULT_CONFIG, (doc,))[doc]


def _ranked(
    index: InvertedIndex,
    query: Query,
    model: ModelKind,
    config: ModelConfig | None,
    top_k: int,
) -> tuple[list[int], dict[int, float]]:
    """Filter and score: the top ``top_k`` doc numbers, best first, and the scores
    of every candidate by doc number."""
    if top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    reads = _read(index, query, model)
    scores = _scores(index, reads, model, config or DEFAULT_CONFIG, _candidates(reads, model))
    # Doc numbers ascend with doc id, so the stable sort by score keeps ties in id order.
    ranked = sorted(scores)
    ranked.sort(key=scores.__getitem__, reverse=True)
    return ranked[:top_k], scores


def search(
    index: InvertedIndex,
    query: Query,
    model: ModelKind,
    config: ModelConfig | None = None,
    top_k: int = 1000,
) -> list[RankedResult]:
    """Filter, score, and rank; ties break by ascending document id."""
    ranked, scores = _ranked(index, query, model, config, top_k)
    ids = index.ids
    return [_result((ids[doc], scores[doc])) for doc in ranked]


def rank(
    index: InvertedIndex,
    query: Query,
    model: ModelKind,
    config: ModelConfig | None = None,
    top_k: int = 1000,
) -> list[tuple[str, float]]:
    """``search``'s ranking as plain ``(doc_id, score)`` tuples, for a caller that
    only writes them out: a ``RankedResult`` costs about three times as much to
    make, and the garbage collector never untracks it."""
    ranked, scores = _ranked(index, query, model, config, top_k)
    ids = index.ids
    return [(ids[doc], scores[doc]) for doc in ranked]
