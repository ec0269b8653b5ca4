"""Output checks the workloads run outside their timed regions.

Each check is small and independent of the code it checks: responses are
read with regular expressions rather than the package's parser, and search
results are recomputed from postings rather than by scanning documents.
"""

from __future__ import annotations

import re
from collections import Counter
from xml.sax.saxutils import unescape

from mdpipe.model import format_datestamp

_HEADER = re.compile(
    rb'<header( status="deleted")?><identifier>([^<]*)</identifier>'
    rb"<datestamp>([^<]*)</datestamp>")
_TOKEN = re.compile(
    rb'<resumptionToken completeListSize="(\d+)"[^>]*>([^<]*)'
    rb"</resumptionToken>")
_ERROR = re.compile(rb'<error code="([^"]*)"')
_TERMS = re.compile(r"[a-z0-9]+")


def headers(body: bytes) -> list[tuple[str, str, bool]]:
    """(identifier, datestamp, deleted) of every record header in a
    response."""
    return [(unescape(m.group(2).decode()), m.group(3).decode(),
             m.group(1) is not None) for m in _HEADER.finditer(body)]


def token(body: bytes) -> tuple[int | None, str | None]:
    """(completeListSize, resumption token or None when the list ends)."""
    match = _TOKEN.search(body)
    if match is None:
        return None, None
    return int(match.group(1)), unescape(match.group(2).decode()) or None


def error_code(body: bytes) -> str | None:
    match = _ERROR.search(body)
    return match.group(1).decode() if match else None


class SnapshotFilter:
    """The expected answer to a list request, computed directly from the
    snapshot's records; cached per (set, from, until)."""

    def __init__(self, snapshot, now):
        self.rows = [(r.repo_identifier, format_datestamp(r.served_datestamp),
                      r.served_datestamp, r.collection_id)
                     for r in snapshot.records if r.served_datestamp <= now]
        self._cache: dict[tuple, Counter] = {}

    def expected(self, set_spec, from_, until) -> Counter:
        key = (set_spec, from_, until)
        if key not in self._cache:
            self._cache[key] = Counter(
                (ident, stamp) for ident, stamp, at, coll in self.rows
                if (set_spec is None or coll == set_spec)
                and (from_ is None or at >= from_)
                and (until is None or at <= until))
        return self._cache[key]


class ReferenceSearch:
    """Conjunctive term-frequency search over an index's documents, built
    from postings: score is the summed count of the query terms, ties go to
    the smaller doc_id."""

    def __init__(self, documents):
        self.postings: dict[str, dict[str, int]] = {}
        for doc in documents:
            for term, count in Counter(
                    _TERMS.findall(doc.text.lower())).items():
                self.postings.setdefault(term, {})[doc.doc_id] = count

    def search(self, query: str, limit: int = 10) -> list[tuple[str, float]]:
        terms = _TERMS.findall(query.lower())
        if not terms:
            return []
        lists = [self.postings.get(t, {}) for t in terms]
        shortest = min(lists, key=len)
        hits = [(doc_id, float(sum(p[doc_id] for p in lists)))
                for doc_id in shortest if all(doc_id in p for p in lists)]
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:limit]
