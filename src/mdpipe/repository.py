"""Metadata repository: durable original + normalized element storage,
derived export formats, postdated served-datestamps, and staging-to-serving
snapshot promotion.

Storage is an in-process ordered map persisted as a JSON state file in the
data directory; no external database is involved. A repository is used from
one thread, and ``cli.State`` gives each state directory one writer process;
published snapshots are immutable.

Each record's five export payloads are a pure function of its normalized
elements, its original bytes, ``native_public`` and its collection record's
identifier. They are derived on first use, in memory, and never persisted:
the state file (``version`` 2) holds only what they are derived from, and a
command that never publishes never builds one. All five come from one pass
over the normalized elements:
each element is rendered and escaped once, in its qualified ``nsdl_dc`` form
and its dumbed-down ``oai_dc`` form, and the search and full-dump bundles
share one prefix; the namespace markup is rendered once per process.

A record is never changed in place, so its entry in the state file is
encoded once per record object, and ``save`` streams the cached entries
into the file: a save after a few writes re-encodes only the records they
wrote. ``save`` replaces the file atomically (temp file, fsync,
``os.replace``, then an fsync of the directory), and ``load`` upgrades a
version 1 file, which carried the exports as base64 and a ``position`` per
element row.

A serving snapshot builds its index on the first request it serves: per set
and for all sets, the records in datestamp order with their datestamps and
their OAI ``<header>`` elements as UTF-8 bytes, plus identifier maps to
records and headers. Headers are fixed per snapshot, so each is rendered
once, with each distinct served datestamp formatted once.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from xml.sax.saxutils import escape, quoteattr

from . import ingest, model
from .errors import (
    MissingCollectionRecord,
    UnknownCollection,
    UnknownIdentifier,
)
from .model import DcElement, format_datestamp

LINKS_NS = "urn:x-mdpipe:links"
SEARCH_NS = "urn:x-mdpipe:search"

EXPORT_FORMATS = ("nsdl_dc", "oai_dc", "nsdl_links", "nsdl_search", "nsdl_all")

DEFAULT_POSTDATE_OFFSET = timedelta(hours=3)

#: the ``version`` that ``Repository.save`` writes
STATE_VERSION = 2


@dataclass(frozen=True)
class StoredRecord:
    repo_identifier: str
    collection_id: str
    source_identifier: str
    original_raw: bytes
    original_format: str
    provider_datestamp: datetime
    normalized_rows: tuple[DcElement, ...]   # the normalized elements, in order
    served_datestamp: datetime
    collection_record_id: str | None   # target of an item's membership link
    deleted: bool = False
    native_public: bool = True
    is_collection: bool = False
    schema_warning: bool = False

    @cached_property
    def state_entry(self) -> bytes:
        """This record's element of the state file's ``records`` list, as
        ``json.dumps`` writes it. Every write stores a new record object,
        so the cache never goes stale."""
        return json.dumps(_record_to_json(self)).encode()

    @cached_property
    def exports(self) -> dict[str, bytes]:
        """The five export payloads, derived on first use; a tombstone has
        none. Every write stores a new record object, so the cache never
        goes stale."""
        return {} if self.deleted else _build_exports(self)


@dataclass(frozen=True)
class SnapshotManifest:
    record_count: int
    published_at: datetime
    checksum: str


class _Listing(NamedTuple):
    """Records in snapshot order and, in parallel, their served datestamps
    and their OAI ``<header>`` elements as UTF-8 bytes."""

    records: tuple[StoredRecord, ...]
    stamps: tuple[datetime, ...]
    headers: tuple[bytes, ...]


_EMPTY_LISTING = _Listing((), (), ())


@dataclass(frozen=True)
class _SnapshotIndex:
    by_identifier: dict[str, StoredRecord]
    headers: dict[str, bytes]     # repo_identifier -> OAI <header>
    everything: _Listing
    by_set: dict[str, _Listing]   # in setSpec order


@dataclass(frozen=True)
class ServingSnapshot:
    """An immutable published view of the repository.

    ``records`` is sorted by ``(served_datestamp, repo_identifier)``, so a
    datestamp window of one set is a contiguous run of that set's records.
    """

    records: tuple[StoredRecord, ...]
    snapshot_id: str
    manifest: SnapshotManifest

    @cached_property
    def _index(self) -> _SnapshotIndex:
        """Every lookup the server needs, and every record's OAI header
        rendered once, built on first use rather than at publish:
        harvest-only callers publish and never serve."""
        records = tuple(self.records)
        stamps = tuple(r.served_datestamp for r in records)
        if any(a > b for a, b in zip(stamps, stamps[1:])):
            raise ValueError("snapshot records are not in datestamp order")
        # a snapshot has few distinct served datestamps: format each once
        texts = {stamp: format_datestamp(stamp) for stamp in set(stamps)}
        headers = tuple(
            model.header_xml(r.repo_identifier, texts[r.served_datestamp],
                             (r.collection_id,), r.deleted).encode()
            for r in records)
        by_set: dict[str, list[int]] = {}
        for i, r in enumerate(records):
            by_set.setdefault(r.collection_id, []).append(i)
        return _SnapshotIndex(
            by_identifier={r.repo_identifier: r for r in records},
            headers={r.repo_identifier: h for r, h in zip(records, headers)},
            everything=_Listing(records, stamps, headers),
            by_set={spec: _Listing(tuple(records[i] for i in positions),
                                   tuple(stamps[i] for i in positions),
                                   tuple(headers[i] for i in positions))
                    for spec, positions in sorted(by_set.items())},
        )

    def by_identifier(self, repo_identifier: str) -> StoredRecord | None:
        return self._index.by_identifier.get(repo_identifier)

    def header(self, repo_identifier: str) -> bytes:
        """The record's OAI ``<header>`` element: its repository identifier,
        served datestamp, collection as setSpec, and deleted status."""
        return self._index.headers[repo_identifier]

    def set_specs(self) -> tuple[str, ...]:
        return tuple(self._index.by_set)

    def select(self, set_spec: str | None, from_: datetime | None,
               until: datetime) -> tuple[_Listing, int, int]:
        """The records of ``set_spec`` (every set when None) served within
        ``[from_, until]``, as ``records[lo:hi]`` of the returned listing,
        which is in snapshot order; ``headers[lo:hi]`` are their headers.
        Costs O(log N)."""
        if set_spec is None:
            listing = self._index.everything
        else:
            listing = self._index.by_set.get(set_spec, _EMPTY_LISTING)
        lo = 0 if from_ is None else bisect_left(listing.stamps, from_)
        hi = bisect_right(listing.stamps, until, lo)
        return listing, lo, hi


# ---------------------------------------------------------------------------
# Export payload generation

# constant markup, rendered once
_LINKS_EMPTY = f"<links xmlns={quoteattr(LINKS_NS)}/>".encode()
_LINKS_OPEN = f"<links xmlns={quoteattr(LINKS_NS)}><memberOf>"
_SEARCH_OPEN = f"<search xmlns={quoteattr(SEARCH_NS)}><nsdl_dc>".encode()


def _build_exports(r: StoredRecord) -> dict[str, bytes]:
    """All five export payloads of a live record, from one pass over its
    normalized rows: ``nsdl_dc`` and ``oai_dc`` take each element's two
    forms from one rendering, and both search bundles share one prefix.
    The membership payload holds exactly one item-to-collection relation;
    a collection-description record holds none (no self-membership)."""
    if r.is_collection:
        links = _LINKS_EMPTY
    else:
        links = (f"{_LINKS_OPEN}{escape(r.collection_record_id)}"
                 "</memberOf></links>").encode()
    nsdl, oai = [model.NSDL_DC_OPEN], [model.OAI_DC_OPEN]
    for el in r.normalized_rows:
        qualified, plain = model.dc_element_xml(el)
        nsdl.append(qualified)
        oai.append(plain)
    nsdl.append(model.NSDL_DC_CLOSE)
    oai.append(model.OAI_DC_CLOSE)
    nsdl_dc = "".join(nsdl).encode()
    oai_dc = "".join(oai).encode()
    shared = b"".join((_SEARCH_OPEN, nsdl_dc, b"</nsdl_dc><oai_dc>", oai_dc,
                       b"</oai_dc><links>", links, b"</links>"))
    if r.original_raw:
        search = b"".join((
            shared, f"<native format={quoteattr(r.original_format)}>".encode(),
            r.original_raw, b"</native></search>"))
    else:
        search = shared + b"</search>"
    return {
        "nsdl_dc": nsdl_dc,
        "oai_dc": oai_dc,
        "nsdl_links": links,
        "nsdl_search": search,
        # with public natives the full dump is the search bundle: share it
        "nsdl_all": search if r.native_public else shared + b"</search>",
    }


# ---------------------------------------------------------------------------
# Repository

class Repository:
    def __init__(self, domain: str = "mdpipe.example.org",
                 postdate_offset: timedelta = DEFAULT_POSTDATE_OFFSET):
        self.domain = domain
        self.postdate_offset = postdate_offset
        self._records: dict[str, StoredRecord] = {}
        self._collections: dict[str, str] = {}   # collection_id -> repo_id

    # -- identifiers

    def mint_identifier(self, collection_id: str, source_identifier: str) -> str:
        digest = hashlib.md5(source_identifier.encode("utf-8")).hexdigest()
        return f"oai:{self.domain}:{collection_id}/{digest}"

    # -- writes

    def register_collection_record(self, collection_id: str,
                                   elements: tuple[DcElement, ...],
                                   now: datetime) -> str:
        """Store the collection-description record; it is the target of
        membership links for every item in the collection."""
        repo_id = f"oai:{self.domain}:collections/{collection_id}"
        rows = tuple(elements)
        raw = model.serialize_dc_payload("nsdl_dc", rows)
        self._records[repo_id] = StoredRecord(
            repo_identifier=repo_id,
            collection_id=collection_id,
            source_identifier=repo_id,
            original_raw=raw,
            original_format="nsdl_dc",
            provider_datestamp=now,
            normalized_rows=rows,
            served_datestamp=now + self.postdate_offset,
            collection_record_id=repo_id,
            is_collection=True,
        )
        self._collections[collection_id] = repo_id
        return repo_id

    def insert(self, doc: ingest.DbInsertDocument, now: datetime,
               native_public: bool = True) -> list[str]:
        """Store each entry; re-insert of an existing source record replaces
        content and refreshes the served datestamp."""
        collection_record_id = self._collections.get(doc.collection_id)
        if collection_record_id is None:
            raise UnknownCollection(doc.collection_id)
        minted = []
        for entry in doc.entries:
            original = entry.original
            source_id = original.header.identifier
            repo_id = self.mint_identifier(doc.collection_id, source_id)
            violations = ingest.validate_normalized(entry.normalized)
            self._records[repo_id] = StoredRecord(
                repo_identifier=repo_id,
                collection_id=doc.collection_id,
                source_identifier=source_id,
                original_raw=original.raw_xml,
                original_format=original.format_prefix,
                provider_datestamp=original.header.datestamp,
                normalized_rows=tuple(entry.normalized.elements),
                served_datestamp=now + self.postdate_offset,
                collection_record_id=collection_record_id,
                native_public=native_public,
                schema_warning=bool(violations),
            )
            minted.append(repo_id)
        return minted

    def mark_deleted(self, repo_identifier: str, now: datetime) -> None:
        """Tombstone a record: payloads dropped, header retained forever."""
        record = self._records.get(repo_identifier)
        if record is None:
            raise UnknownIdentifier(repo_identifier)
        self._records[repo_identifier] = replace(
            record,
            deleted=True,
            served_datestamp=now + self.postdate_offset,
        )

    def delete_by_source(self, collection_id: str, source_identifier: str,
                         now: datetime) -> None:
        """Tombstone the item ``insert`` stored for this source record."""
        repo_id = self.mint_identifier(collection_id, source_identifier)
        if repo_id not in self._records:
            raise UnknownIdentifier(f"{collection_id}/{source_identifier}")
        self.mark_deleted(repo_id, now)

    # -- reads

    def get(self, repo_identifier: str) -> StoredRecord | None:
        return self._records.get(repo_identifier)

    def live_source_identifiers(self, collection_id: str) -> set[str]:
        return {
            r.source_identifier for r in self._records.values()
            if r.collection_id == collection_id and not r.deleted
            and not r.is_collection
        }

    def count(self) -> int:
        return len(self._records)

    # -- publish

    def publish(self, now: datetime) -> ServingSnapshot:
        """Promote staging to an immutable serving snapshot."""
        records = tuple(sorted(
            self._records.values(),
            key=lambda r: (r.served_datestamp, r.repo_identifier)))
        hasher = hashlib.sha256()
        for r in records:
            hasher.update(r.repo_identifier.encode())
            hasher.update(format_datestamp(r.served_datestamp).encode())
            hasher.update(b"1" if r.deleted else b"0")
            for fmt in EXPORT_FORMATS:
                hasher.update(r.exports.get(fmt, b""))
        checksum = hasher.hexdigest()
        return ServingSnapshot(
            records=records,
            snapshot_id=checksum[:16],
            manifest=SnapshotManifest(
                record_count=len(records),
                published_at=now,
                checksum=checksum,
            ),
        )

    # -- persistence

    def save(self, path: str | Path) -> None:
        """Write the state file atomically and durably: a reader, or a
        restart after a crash, sees either the previous file or the new one,
        never a torn one.

        The file is the bytes of ``json.dumps`` of the whole state, written
        as the dump of the state without records, cut before its closing
        ``]}``, then each record's cached ``state_entry``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        head = json.dumps({
            "version": STATE_VERSION,
            "domain": self.domain,
            "postdate_offset_seconds": int(
                self.postdate_offset.total_seconds()),
            "collections": self._collections,
            "records": [],
        }).encode()[:-2]
        # one temp name per process, next to the target so that the replace
        # stays on one file system
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(head)
                separator = b""
                for r in self._records.values():
                    f.write(separator)
                    f.write(r.state_entry)
                    separator = b", "
                f.write(b"]}")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            # open() may have failed before creating it
            tmp.unlink(missing_ok=True)
            raise
        # a rename is durable only once its directory is on disk
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    @classmethod
    def load(cls, path: str | Path) -> "Repository":
        """Read a state file, upgrading version 1. Exports are derived on
        first use, not here."""
        state = json.loads(Path(path).read_bytes())
        version = state.get("version")
        if version == STATE_VERSION:
            elements_of = _elements_v2
        elif version == 1:
            elements_of = _elements_v1
        else:
            raise ValueError(f"unsupported repository state version "
                             f"{version!r} in {path}")
        repo = cls(domain=state["domain"],
                   postdate_offset=timedelta(
                       seconds=state["postdate_offset_seconds"]))
        repo._collections = dict(state["collections"])
        for rec_json in state["records"]:
            record = _record_from_json(rec_json, elements_of(rec_json["rows"]),
                                       repo._collections)
            repo._records[record.repo_identifier] = record
        return repo


def _record_to_json(r: StoredRecord) -> dict:
    return {
        "repo_identifier": r.repo_identifier,
        "collection_id": r.collection_id,
        "source_identifier": r.source_identifier,
        "original_raw": base64.b64encode(r.original_raw).decode(),
        "original_format": r.original_format,
        "provider_datestamp": format_datestamp(r.provider_datestamp),
        "rows": [[el.name, el.value, el.qualifier, el.scheme, el.language]
                 for el in r.normalized_rows],
        "served_datestamp": format_datestamp(r.served_datestamp),
        "deleted": r.deleted,
        "native_public": r.native_public,
        "is_collection": r.is_collection,
        "schema_warning": r.schema_warning,
    }


def _elements_v2(rows: list) -> tuple[DcElement, ...]:
    """``[name, value, qualifier, scheme, language]`` rows, in order."""
    return tuple(DcElement(*row) for row in rows)


def _elements_v1(rows: list) -> tuple[DcElement, ...]:
    """``[name, qualifier, scheme, value, language, position]`` rows, in
    any order."""
    return tuple(
        DcElement(name=name, value=value, qualifier=qualifier,
                  scheme=scheme, language=language)
        for name, qualifier, scheme, value, language, _ in sorted(
            rows, key=lambda row: row[5]))


def _record_from_json(d: dict, elements: tuple[DcElement, ...],
                      collections: dict[str, str]) -> StoredRecord:
    """The stored record; its exports are derived on first use.
    ``collections`` maps each collection id to its record's identifier, and
    a live item of a collection without one raises
    MissingCollectionRecord."""
    collection_id = d["collection_id"]
    collection_record_id = collections.get(collection_id)
    if collection_record_id is None and not (d["deleted"]
                                             or d["is_collection"]):
        raise MissingCollectionRecord(collection_id)
    return StoredRecord(
        repo_identifier=d["repo_identifier"],
        collection_id=collection_id,
        source_identifier=d["source_identifier"],
        original_raw=base64.b64decode(d["original_raw"]),
        original_format=d["original_format"],
        provider_datestamp=model.parse_datestamp(d["provider_datestamp"]),
        normalized_rows=elements,
        served_datestamp=model.parse_datestamp(d["served_datestamp"]),
        collection_record_id=collection_record_id,
        deleted=d["deleted"],
        native_public=d["native_public"],
        is_collection=d["is_collection"],
        schema_warning=d["schema_warning"],
    )
