"""Class taxonomy and entity knowledge base, and JSON Lines reading and writing.

Both structures are validated at load time and immutable afterwards, so they
are safe for unrestricted concurrent reads.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import KnowledgeBaseError, TaxonomyError


class ClassTaxonomy:
    """Subclass DAG over opaque class identifiers.

    A class may declare several parents; the parent relation must be acyclic.
    ``parents`` maps each class to the sorted tuple of its distinct parents.
    ``ancestors`` is reflexive: every class is an ancestor of itself.
    """

    def __init__(self, parents: Mapping[str, Iterable[str]]):
        self.parents = {c: tuple(sorted(set(parents[c]))) for c in sorted(parents)}
        for child, direct in self.parents.items():
            for p in direct:
                if p not in self.parents:
                    raise TaxonomyError(f"class {child!r} names undeclared parent {p!r}")
        # Sorted parents fix the class a cycle error names. Ancestors are walked
        # on demand, so a deep chain costs memory linear in its length.
        try:
            TopologicalSorter(self.parents).prepare()
        except CycleError as exc:
            cycle = exc.args[1]
            raise TaxonomyError(
                f"cycle detected in class taxonomy involving {min(cycle)!r}"
            ) from None

    def __contains__(self, class_id: str) -> bool:
        return class_id in self.parents

    def ancestors(self, class_id: str) -> frozenset[str]:
        """The class itself plus every class reachable via parent edges."""
        if class_id not in self.parents:
            raise KeyError(f"unknown class: {class_id!r}")
        seen = {class_id}
        stack = [class_id]
        while stack:
            for p in self.parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)


@dataclass(frozen=True)
class EntityRecord:
    """One entity: unique identifier, class, and ordered alias names.

    The first name is the canonical one.
    """

    identifier: str
    class_id: str
    names: tuple[str, ...]

    @property
    def canonical_name(self) -> str:
        return self.names[0]

    @cached_property
    def folded_names(self) -> frozenset[str]:
        return frozenset(n.casefold() for n in self.names)


class KnowledgeBase:
    """Entity records keyed by identifier.

    Aliases compare case-insensitively: no entity may repeat one under case
    folding, though two entities may share one.
    """

    def __init__(self, records: Iterable[EntityRecord], taxonomy: ClassTaxonomy):
        self.entities: dict[str, EntityRecord] = {}
        for rec in records:
            if rec.identifier in self.entities:
                raise KnowledgeBaseError(f"duplicate entity identifier {rec.identifier!r}")
            if rec.class_id not in taxonomy:
                raise KnowledgeBaseError(
                    f"entity {rec.identifier!r} has unknown class {rec.class_id!r}"
                )
            if not rec.names:
                raise KnowledgeBaseError(f"entity {rec.identifier!r} has no names")
            if len(rec.folded_names) != len(rec.names):
                raise KnowledgeBaseError(f"entity {rec.identifier!r} repeats an alias")
            self.entities[rec.identifier] = rec

    def __contains__(self, identifier: str) -> bool:
        return identifier in self.entities

    def resolve(self, identifier: str) -> EntityRecord:
        """Return the record for ``identifier`` or raise ``KeyError``."""
        try:
            return self.entities[identifier]
        except KeyError:
            raise KeyError(f"unknown entity identifier: {identifier!r}") from None


def load_taxonomy(records: Iterable[Mapping]) -> ClassTaxonomy:
    """Build a taxonomy from ``{"class": ..., "parents": [...]}`` records."""
    edges: dict[str, list[str]] = {}
    for rec in records:
        cid = rec.get("class")
        if not isinstance(cid, str) or not cid:
            raise TaxonomyError(f"taxonomy record without a class id: {rec!r}")
        if cid in edges:
            raise TaxonomyError(f"duplicate class id {cid!r}")
        parents = rec.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise TaxonomyError(f"class {cid!r} has a malformed parents list")
        edges[cid] = parents
    return ClassTaxonomy(edges)


def taxonomy_records(taxonomy: ClassTaxonomy) -> Iterator[dict]:
    """The records ``load_taxonomy`` builds ``taxonomy`` back from, by class."""
    return ({"class": c, "parents": list(ps)} for c, ps in taxonomy.parents.items())


def _entity_record(rec: Mapping) -> EntityRecord:
    ident = rec.get("id")
    cls = rec.get("class")
    names = rec.get("names")
    if not isinstance(ident, str) or not ident:
        raise KnowledgeBaseError(f"entity record without an id: {rec!r}")
    if not isinstance(cls, str) or not cls:
        raise KnowledgeBaseError(f"entity {ident!r} has no class")
    if not isinstance(names, list) or not all(isinstance(n, str) and n for n in names):
        raise KnowledgeBaseError(f"entity {ident!r} has a malformed names list")
    return EntityRecord(ident, cls, tuple(names))


def load_knowledge_base(records: Iterable[Mapping], taxonomy: ClassTaxonomy) -> KnowledgeBase:
    """Build a knowledge base from ``{"id", "class", "names"}`` records, one at a time."""
    return KnowledgeBase(map(_entity_record, records), taxonomy)


def knowledge_base_records(kb: KnowledgeBase) -> Iterator[dict]:
    """The records ``load_knowledge_base`` builds ``kb`` back from, in its order."""
    for e in kb.entities.values():
        yield {"id": e.identifier, "class": e.class_id, "names": list(e.names)}


# A \uXXXX escape can spell half a surrogate pair, which no UTF-8 output can hold.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str):
    """``json.loads``, also rejecting lone surrogates with a ``ValueError``."""
    value = json.loads(text)
    # The backslash test is a far cheaper scan that most lines fail.
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        json.dumps(value, ensure_ascii=False).encode("utf-8")  # UnicodeEncodeError
    return value


def read_lines(path: str | Path, error_cls: type[Exception]) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for each non-blank line of a UTF-8 file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(map(str.strip, fh), start=1):
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise error_cls(f"{path}: not valid UTF-8 ({exc.reason})") from None


def read_jsonl(path: str | Path, error_cls: type[Exception]) -> Iterator[dict]:
    """Yield one JSON object per non-blank line as it is read, raising ``error_cls``
    with context at the first bad line."""
    for lineno, line in read_lines(path, error_cls):
        try:
            rec = parse_json(line)
        except (ValueError, RecursionError) as exc:
            raise error_cls(f"{path}, line {lineno}: {exc}") from None
        if not isinstance(rec, dict):
            raise error_cls(f"{path}, line {lineno}: expected a JSON object")
        yield rec


def write_jsonl(path: str | Path, rows: Iterable[Mapping], *, compact: bool = False) -> dict:
    """Write one JSON object per line, non-ASCII text unescaped, as ``read_jsonl`` reads;
    ``compact`` drops the space after each comma and colon. Returns the file's size
    and sha256 digest, taken from the bytes as they are written."""
    separators = (",", ":") if compact else None
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as fh:
        for row in rows:
            line = (json.dumps(row, ensure_ascii=False, separators=separators) + "\n").encode()
            fh.write(line)
            digest.update(line)
            size += len(line)
    return {"bytes": size, "sha256": digest.hexdigest()}


def read_taxonomy_file(path: str | Path) -> ClassTaxonomy:
    """Load a line-delimited JSON taxonomy file."""
    return load_taxonomy(read_jsonl(path, TaxonomyError))


def read_kb_file(path: str | Path, taxonomy: ClassTaxonomy) -> KnowledgeBase:
    """Load a line-delimited JSON knowledge-base file."""
    return load_knowledge_base(read_jsonl(path, KnowledgeBaseError), taxonomy)
