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

Every model is thus a weighted sum of per-space cosines: a query compiles
once into ``(space, term, c)`` entries, and a document scores
``sum c * tf(d, term) / |d|_space`` over the postings of those terms.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping

from .corpus import Query
from .errors import ConfigError, EmptyQueryError
from .index import InvertedIndex
from .termspace import ENTITY_SPACES, Term, query_terms

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

    #              name           overlapped keyword_space entity conjunctive score
    KW =          ("kw",          False,     "KW_FULL",    False, False,      "KW_FULL")
    NE_O =        ("ne-o",        True,      None,         True,  False,      "entity")
    NE_N =        ("ne-n",        False,     None,         True,  False,      "entity")
    KW_AND_NE_O = ("kw-and-ne-o", True,      "KW",         True,  True,       "blend")
    KW_AND_NE_N = ("kw-and-ne-n", False,     "KW",         True,  True,       "blend")
    KW_OR_NE_O =  ("kw-or-ne-o",  True,      "KW",         True,  False,      "blend")
    KW_OR_NE_N =  ("kw-or-ne-n",  False,     "KW",         True,  False,      "blend")
    KW_PLUS_NE =  ("kw-plus-ne",  False,     "KW",         True,  False,      "UNIFIED")

    def __new__(cls, value, overlapped, keyword_space, entity_side, conjunctive, score):
        member = object.__new__(cls)
        member._value_ = value
        member.overlapped = overlapped
        member.keyword_space = keyword_space
        member.entity_side = entity_side
        member.conjunctive = conjunctive
        member.score = score
        return member


ALL_MODELS = (
    ModelKind.KW,
    ModelKind.NE_O,
    ModelKind.NE_N,
    ModelKind.KW_PLUS_NE,
    ModelKind.KW_AND_NE_O,
    ModelKind.KW_OR_NE_O,
    ModelKind.KW_AND_NE_N,
    ModelKind.KW_OR_NE_N,
)


@dataclass(frozen=True)
class ModelConfig:
    """Entity-space weights and the keyword blend factor."""

    w_n: float = 0.25
    w_c: float = 0.25
    w_nc: float = 0.25
    w_i: float = 0.25
    alpha: float = 0.5

    def __post_init__(self):
        weights = (self.w_n, self.w_c, self.w_nc, self.w_i)
        if any(w < 0 for w in weights):
            raise ConfigError(f"entity weights must be non-negative, got {weights}")
        if abs(sum(weights) - 1.0) > WEIGHT_TOLERANCE:
            raise ConfigError(f"entity weights must sum to 1, got {sum(weights)!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha!r}")

    @property
    def space_weights(self) -> dict[str, float]:
        return {"N": self.w_n, "C": self.w_c, "NC": self.w_nc, "I": self.w_i}


@dataclass(frozen=True)
class RankedResult:
    doc_id: str
    score: float


def _model_terms(query: Query, index: InvertedIndex, model: ModelKind) -> set[Term]:
    terms = query_terms(query, index.kb, overlapped=model.overlapped)
    if not model.entity_side and all(t.space != "KW" for t in terms):
        raise EmptyQueryError(f"query {query.query_id!r} has no keyword terms")
    if model.keyword_space is None and all(t.space == "KW" for t in terms):
        raise EmptyQueryError(f"query {query.query_id!r} has no entity annotations")
    if not terms:
        raise EmptyQueryError(f"query {query.query_id!r} contributes no terms")
    return terms


def _postings_union(index: InvertedIndex, terms: Iterable[Term], space: str) -> set[str]:
    docs: set[str] = set()
    for term in terms:
        docs.update(index.postings(term, space))
    return docs


def _candidates(index: InvertedIndex, terms: set[Term], model: ModelKind) -> set[str]:
    by_space: dict[str, list[Term]] = {}
    for term in terms:
        by_space.setdefault(term.space, []).append(term)
    sides = []
    if model.keyword_space is not None and "KW" in by_space:
        sides.append(_postings_union(index, by_space["KW"], model.keyword_space))
    # A space the query does not touch is skipped: an absent feature expresses
    # no constraint, so it must not empty the intersection.
    entity = [
        _postings_union(index, by_space[s], s)
        for s in ENTITY_SPACES
        if model.entity_side and s in by_space
    ]
    if entity:
        sides.append(set.intersection(*entity) if model.overlapped else set.union(*entity))
    if not sides:
        return set()
    return set.intersection(*sides) if model.conjunctive else set.union(*sides)


def filter_documents(index: InvertedIndex, query: Query, model: ModelKind) -> set[str]:
    """Boolean first stage: the candidate set the model is allowed to rank."""
    return _candidates(index, _model_terms(query, index, model), model)


def _space_weights(model: ModelKind, config: ModelConfig) -> dict[str, float]:
    """The vector spaces whose cosines the model sums, each with its weight."""
    if model.score == "entity":
        return config.space_weights
    if model.score == "blend":
        weights = {s: config.alpha * w for s, w in config.space_weights.items()}
        weights["KW"] = 1.0 - config.alpha
        return weights
    return {model.score: 1.0}


def _plan(
    index: InvertedIndex, terms: set[Term], model: ModelKind, config: ModelConfig
) -> list[tuple[str, Term, float]]:
    """``(space, term, c)`` entries with c = weight * idf_q * idf_d / |q|_space.

    Query weights are tf=1 times idf; terms the index never saw drop out.
    """
    plan = []
    for space, weight in _space_weights(model, config).items():
        home = "KW" if space == "KW_FULL" else space
        idfs = [
            (t, index.idf(t, space))
            for t in sorted(terms)
            if space == "UNIFIED" or t.space == home
        ]
        idfs = [(t, w) for t, w in idfs if w > 0.0]
        query_norm = math.sqrt(sum(w * w for _, w in idfs))
        plan.extend((space, t, weight * w * w / query_norm) for t, w in idfs)
    return plan


def _accumulate(
    index: InvertedIndex, plan: list[tuple[str, Term, float]], doc_ids: Iterable[str]
) -> dict[str, float]:
    """Term-at-a-time scores of ``doc_ids``, clamped to 1 and rounded."""
    scores = dict.fromkeys(doc_ids, 0.0)
    for space, term, c in plan:
        norms = index.norms[space]
        for doc_id, tf in index.postings(term, space).items():
            if doc_id in scores:
                scores[doc_id] += c * tf / norms[doc_id]
    # A perfect match can land a float ulp above 1.
    return {d: round(min(s, 1.0), SCORE_DECIMALS) for d, s in scores.items()}


def score(
    index: InvertedIndex,
    query: Query,
    doc_id: str,
    model: ModelKind,
    config: ModelConfig | None = None,
) -> float:
    """Similarity of one document to the query under one model, in [0, 1]."""
    if doc_id not in index.doc_set:
        raise KeyError(f"unknown document {doc_id!r}")
    terms = query_terms(query, index.kb, overlapped=model.overlapped)
    plan = _plan(index, terms, model, config or ModelConfig())
    return _accumulate(index, plan, (doc_id,))[doc_id]


def search(
    index: InvertedIndex,
    query: Query,
    model: ModelKind,
    config: ModelConfig | None = None,
    top_k: int = 1000,
) -> list[RankedResult]:
    """Filter, score, and rank; ties break by ascending document id."""
    if top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    terms = _model_terms(query, index, model)
    plan = _plan(index, terms, model, config or ModelConfig())
    scores = _accumulate(index, plan, _candidates(index, terms, model))
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [RankedResult(doc_id, s) for doc_id, s in ranked[:top_k]]


def write_run_file(
    runs: Mapping[str, list[RankedResult]], model_tag: str, out: IO[str] | str | Path
) -> None:
    """TREC run lines: ``<query_id> Q0 <doc_id> <rank> <score> <tag>``."""
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8") as fh:
            write_run_file(runs, model_tag, fh)
        return
    for query_id, results in runs.items():
        for rank, result in enumerate(results, start=1):
            out.write(
                f"{query_id} Q0 {result.doc_id} {rank} {result.score:.6f} {model_tag}\n"
            )
