"""Resource-centric search index.

Metadata-centric indexing produces one document per metadata record, so a
resource described by several collections appears several times in results.
The resource-centric build collapses records into resource entities in two
phases: first by normalized-URL identity (union-find), then by fetched
content hash, so mirrors and alias URLs of the same resource merge too.
A naive one-document-per-identifier mode is kept for diagnostics: it bounds
the entity count from above and demonstrates the collapse.
"""

from __future__ import annotations

import hashlib
import logging
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .errors import FetchError, UnparseableUrl
from .model import PERCENT_ESCAPE
from .repository import ServingSnapshot, StoredRecord

logger = logging.getLogger(__name__)

_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21"}
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")
# RFC 3986 appendix B, with the scheme held to its section 3.1 grammar and
# "://" required: scheme, authority, path, "?query"; the fragment is left
# unmatched
_URL_RE = re.compile(r"([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)(\?[^#]*)?")
# host, then an optional ":port"; a bracketed IP literal (RFC 3986 section
# 3.2.2) is one host, colons and all
_HOST_PORT_RE = re.compile(r"(\[[^\]]*\]|[^:]*)(?::(.*))?", re.DOTALL)
_TOKEN_RE = re.compile(r"[a-z0-9]+")


# ---------------------------------------------------------------------------
# URL normalization


def _normalize_escape(escape: re.Match) -> str:
    decoded = chr(int(escape[1], 16))
    return decoded if decoded in _UNRESERVED else escape[0].upper()


def _normalize_percent(text: str) -> str:
    """Uppercase %XX hex and decode escapes of unreserved characters."""
    return PERCENT_ESCAPE.sub(_normalize_escape, text)


def _remove_dot_segments(path: str) -> str:
    output: list[str] = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if output and output[-1]:
                output.pop()
            continue
        output.append(segment)
    # re-anchor and preserve a trailing slash implied by . or ..
    result = "/".join(output)
    if not result.startswith("/"):
        result = "/" + result
    if path.rstrip("/").endswith((".", "..")) and not result.endswith("/"):
        result += "/"
    return result


def normalize_url(url: str) -> str:
    """Canonical form under which two spellings of the same location
    compare equal. Fragments are dropped (they address a view, not a
    resource); queries are preserved verbatim apart from escaping."""
    url = url.strip()
    match = _URL_RE.match(url)
    if match is None:
        raise UnparseableUrl(url)
    scheme, authority, path, query = match.groups("")
    userinfo, at, host_port = authority.rpartition("@")
    host, port = _HOST_PORT_RE.fullmatch(host_port).groups("")
    if not host:
        raise UnparseableUrl(url)
    scheme = scheme.lower()
    if port in ("", _DEFAULT_PORTS.get(scheme)):
        host_port = host.lower()
    else:
        host_port = f"{host.lower()}:{port}"
    path = _remove_dot_segments(_normalize_percent(path))
    return (f"{scheme}://{userinfo}{at}{host_port}{path}"
            f"{_normalize_percent(query)}")


# ---------------------------------------------------------------------------
# Index documents


@dataclass(frozen=True)
class IndexSource:
    """One indexable metadata record: its identity, the resource URLs it
    claims, and its searchable text."""

    record_id: str
    urls: tuple[str, ...]
    text: str
    collection_id: str = ""


@dataclass(frozen=True)
class IndexDocument:
    doc_id: str
    member_records: tuple[str, ...]
    urls: tuple[str, ...]
    text: str


@dataclass(frozen=True)
class SearchIndex:
    """Documents searchable by conjunctive term match.

    A document matches when its text holds every query term. Its score is
    the summed count of the query terms in its text, a term repeated in the
    query counted once per occurrence. Hits are ranked by score, then by
    doc_id, and cut to ``limit``. Terms are the runs of ASCII letters and
    digits in the lowercased text.

    The first search tokenises every document once, as a full scan would,
    keeping each document's term counts and, per term, the documents that
    hold it. Later searches read only the documents on the query's
    shortest posting list, so the saving grows with the number of queries
    an index answers. The builds never tokenise, so an index that is only
    counted (``dedup_report``, ``mdpipe index``) pays nothing for it."""

    mode: str                       # metadata | resource | identifier
    documents: tuple[IndexDocument, ...]

    @cached_property
    def _counts(self) -> tuple[Counter, ...]:
        """Each document's term counts, by document position."""
        return tuple(Counter(_TOKEN_RE.findall(doc.text.lower()))
                     for doc in self.documents)

    @cached_property
    def _postings(self) -> dict[str, list[int]]:
        """term -> positions of the documents that hold it, ascending."""
        postings = defaultdict(list)
        for position, counts in enumerate(self._counts):
            for term in counts:
                postings[term].append(position)
        return postings

    def search(self, query: str, limit: int = 10) -> list[tuple[str, float]]:
        if limit < 1:
            raise ValueError(f"limit must be at least 1, not {limit}")
        terms = _TOKEN_RE.findall(query.lower())
        if not terms:
            return []
        hits = []
        # a match holds every term, so it is on the shortest posting list
        for position in min((self._postings.get(t, ()) for t in terms),
                            key=len):
            counts = self._counts[position]
            if all(t in counts for t in terms):
                hits.append((self.documents[position].doc_id,
                             float(sum(counts[t] for t in terms))))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:limit]


def sources_from_snapshot(snapshot: ServingSnapshot) -> list[IndexSource]:
    sources = []
    for rec in snapshot.records:
        if rec.deleted or rec.is_collection:
            continue
        urls = []
        texts = []
        for row in rec.normalized_rows:
            if row.name == "identifier" and "://" in row.value:
                urls.append(row.value)
            else:
                texts.append(row.value)
        sources.append(IndexSource(
            record_id=rec.repo_identifier,
            urls=tuple(urls),
            text=" ".join(texts),
            collection_id=rec.collection_id))
    return sources


def _safe_normalize(url: str) -> str | None:
    try:
        return normalize_url(url)
    except UnparseableUrl:
        logger.debug("skipping unparseable url %r", url)
        return None


# ---------------------------------------------------------------------------
# Builds


def build_metadata_centric(sources: Iterable[IndexSource]) -> SearchIndex:
    """One document per metadata record."""
    docs = []
    for src in sorted(sources, key=lambda s: s.record_id):
        urls = tuple(u for u in (_safe_normalize(v) for v in src.urls) if u)
        docs.append(IndexDocument(doc_id=src.record_id,
                                  member_records=(src.record_id,),
                                  urls=urls, text=src.text))
    return SearchIndex(mode="metadata", documents=tuple(docs))


def naive_identifier_index(sources: Iterable[IndexSource]) -> SearchIndex:
    """Diagnostic mode: one document per identifier occurrence. Shows the
    duplication ceiling the resource-centric build collapses."""
    docs = []
    for src in sorted(sources, key=lambda s: s.record_id):
        for n, raw in enumerate(src.urls):
            docs.append(IndexDocument(
                doc_id=f"{src.record_id}#{n}",
                member_records=(src.record_id,),
                urls=(raw,), text=src.text))
    return SearchIndex(mode="identifier", documents=tuple(docs))


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:      # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller key becomes the root
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


def build_resource_centric(
        sources: Iterable[IndexSource],
        content_hash: Callable[[str], str | None] | None = None
) -> SearchIndex:
    """Phase one merges records sharing a normalized URL; phase two merges
    entities whose fetched content hashes agree (mirrors and aliases)."""
    sources = sorted(sources, key=lambda s: s.record_id)
    uf = _UnionFind()
    record_urls: dict[str, list[str]] = {}
    for src in sources:
        uf.find(src.record_id)
        norm = [u for u in (_safe_normalize(v) for v in src.urls) if u]
        record_urls[src.record_id] = norm
        for url in norm:
            uf.union(src.record_id, "url:" + url)

    if content_hash is not None:
        by_hash: dict[str, str] = {}
        for src in sources:
            for url in record_urls[src.record_id]:
                digest = content_hash(url)
                if digest is None:
                    continue
                if digest in by_hash:
                    uf.union(by_hash[digest], "url:" + url)
                else:
                    by_hash[digest] = "url:" + url

    groups: dict[str, list[IndexSource]] = {}
    for src in sources:
        groups.setdefault(uf.find(src.record_id), []).append(src)

    docs = []
    for members in groups.values():
        members.sort(key=lambda s: s.record_id)
        urls = sorted({u for m in members for u in record_urls[m.record_id]})
        docs.append(IndexDocument(
            doc_id=members[0].record_id,
            member_records=tuple(m.record_id for m in members),
            urls=tuple(urls),
            text=" ".join(m.text for m in members)))
    docs.sort(key=lambda d: d.doc_id)
    return SearchIndex(mode="resource", documents=tuple(docs))


# ---------------------------------------------------------------------------
# Content fetching

#: a resource larger than this is not hashed (FetchError "too-large")
MAX_CONTENT_BYTES = 1 << 20


def fetch_content(url: str, fetcher: Callable[[str], bytes]) -> str:
    """Fetch a resource and return its MD5 content hash (hex)."""
    try:
        body = fetcher(url)
    except FetchError:
        raise
    except Exception as exc:
        raise FetchError("connection", str(exc)) from exc
    if len(body) > MAX_CONTENT_BYTES:
        raise FetchError("too-large", f"{len(body)} bytes")
    return hashlib.md5(body).hexdigest()


def content_hasher(fetcher: Callable[[str], bytes]
                   ) -> Callable[[str], str | None]:
    """Wrap a fetcher into the optional hash callback used by the
    resource-centric build; fetch failures simply skip the merge."""
    cache: dict[str, str | None] = {}

    def hash_url(url: str) -> str | None:
        if url not in cache:
            try:
                cache[url] = fetch_content(url, fetcher)
            except FetchError as exc:
                logger.debug("content fetch failed for %s: %s", url, exc)
                cache[url] = None
        return cache[url]

    return hash_url


# ---------------------------------------------------------------------------
# Reporting


def dedup_report(sources: Iterable[IndexSource],
                 content_hash: Callable[[str], str | None] | None = None
                 ) -> dict:
    sources = list(sources)
    identifier_count = sum(len(s.urls) for s in sources)
    resource = build_resource_centric(sources, content_hash)
    return {
        "identifier_occurrences": identifier_count,
        "metadata_records": len(sources),
        "resource_entities": len(resource.documents),
        "largest_entity": max(
            (len(d.member_records) for d in resource.documents), default=0),
    }
