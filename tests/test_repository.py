import base64
import dataclasses
import hashlib
import json
import os
import stat
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from mdpipe import ingest, model, repository
from mdpipe.errors import (
    MissingCollectionRecord,
    UnknownCollection,
    UnknownIdentifier,
)
from mdpipe.ingest import build_db_insert, safe_transform
from mdpipe.model import DcElement, MetadataRecord, RecordHeader
from mdpipe.repository import Repository

UTC = timezone.utc
T0 = datetime(2006, 1, 25, 12, 0, 0, tzinfo=UTC)


def _record(ident, elements, prefix="oai_dc"):
    header = RecordHeader(identifier=ident, datestamp=T0 - timedelta(days=1))
    raw = model.serialize_dc_payload(prefix, tuple(elements))
    return MetadataRecord(header=header, format_prefix=prefix,
                          elements=tuple(elements), raw_xml=raw)


def _doc(idents_and_titles, collection="coll-1", attempt="a-1"):
    pairs = []
    for ident, title in idents_and_titles:
        rec = _record(ident, [DcElement("title", title),
                              DcElement("identifier", f"http://example.org/{title}",
                                        scheme="URI")])
        pairs.append((rec, safe_transform(rec)))
    return build_db_insert(pairs, collection, attempt)


@pytest.fixture
def repo():
    r = Repository(postdate_offset=timedelta(hours=3))
    r.register_collection_record(
        "coll-1", (DcElement("title", "Collection One"),), T0 - timedelta(days=30))
    return r


def test_insert_postdates_by_offset(repo):
    ids = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    rec = repo.get(ids[0])
    assert rec.served_datestamp == datetime(2006, 1, 25, 15, 0, 0, tzinfo=UTC)


def test_reinsert_stable_identifier_advancing_datestamp(repo):
    ids1 = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    ids2 = repo.insert(_doc([("oai:x:1", "t1v2")]), now=T0 + timedelta(hours=1))
    assert ids1 == ids2
    rec = repo.get(ids1[0])
    assert rec.served_datestamp == T0 + timedelta(hours=4)


def test_insert_unknown_collection():
    r = Repository()
    with pytest.raises(UnknownCollection):
        r.insert(_doc([("oai:x:1", "t")], collection="nope"), now=T0)


def _insert_rows(repo, rows, native_public=True, raw=None,
                 original_format="oai_dc", source="oai:x:1",
                 collection="coll-1", now=T0):
    """Store ``rows`` as the record's normalized elements, as they are:
    no transform runs. ``raw`` defaults to the rows' own oai_dc payload."""
    rows = tuple(rows)
    if raw is None:
        raw = model.serialize_dc_payload("oai_dc", rows)
    original = MetadataRecord(
        header=RecordHeader(identifier=source, datestamp=T0),
        format_prefix=original_format, elements=rows, raw_xml=raw)
    doc = ingest.DbInsertDocument(
        entries=(ingest.DbInsertEntry(
            original, ingest.NormalizedRecord(source, rows)),),
        collection_id=collection, harvest_attempt_id="a")
    [repo_id] = repo.insert(doc, now=now, native_public=native_public)
    return repo.get(repo_id)


def _dc_body(payload: bytes) -> bytes:
    """The elements of a DC payload, without its container tags."""
    return payload[payload.index(b">") + 1:payload.rindex(b"</")]


def test_oai_dc_export_erases_qualifiers_and_schemes(repo):
    rec = _insert_rows(repo, (
        DcElement("identifier", "http://x/y", scheme="URI"),
        DcElement("description", "D", qualifier="abstract")))
    assert model.parse_dc_payload(rec.exports["oai_dc"], "oai_dc") == (
        DcElement("identifier", "http://x/y"), DcElement("description", "D"))
    assert model.parse_dc_payload(rec.exports["nsdl_dc"], "nsdl_dc") == \
        rec.normalized_rows


def test_unqualified_elements_render_alike_in_both_exports(repo):
    rows = (DcElement("title", "T"), DcElement("subject", "s", language="en"))
    rec = _insert_rows(repo, rows)
    assert _dc_body(rec.exports["oai_dc"]) == _dc_body(rec.exports["nsdl_dc"])
    assert model.parse_dc_payload(rec.exports["oai_dc"], "oai_dc") == rows


def test_oai_dc_export_keeps_values_order_and_language(repo):
    rows = tuple(DcElement("subject", f"v{i}", qualifier="audience",
                           scheme="LCSH", language=f"l{i}")
                 for i in range(6))
    rec = _insert_rows(repo, rows)
    assert model.parse_dc_payload(rec.exports["oai_dc"], "oai_dc") == tuple(
        DcElement("subject", f"v{i}", language=f"l{i}") for i in range(6))


def test_export_formats_present_and_coherent(repo):
    ids = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    rec = repo.get(ids[0])
    assert set(rec.exports) == set(repository.EXPORT_FORMATS)
    # format coherence: oai_dc is nsdl_dc without qualifiers and schemes
    nsdl_elements = model.parse_dc_payload(rec.exports["nsdl_dc"], "nsdl_dc")
    oai_elements = model.parse_dc_payload(rec.exports["oai_dc"], "oai_dc")
    assert tuple(DcElement(el.name, el.value, language=el.language)
                 for el in nsdl_elements) == oai_elements


# ---------------------------------------------------------------------------
# exports against the formula they replaced

def _reference_dc_payload(format_prefix, elements):
    """DC serialization with ``xml.sax.saxutils``, one element at a time."""
    if format_prefix == "oai_dc":
        parts = [f"<oai_dc:dc xmlns:oai_dc={quoteattr(model.OAI_DC_NS)}"
                 f" xmlns:dc={quoteattr(model.DC_NS)}>"]
        close_tag = "</oai_dc:dc>"
    else:
        parts = [f"<qdc:dc xmlns:qdc={quoteattr(model.QDC_NS)}"
                 f" xmlns:dc={quoteattr(model.DC_NS)}>"]
        close_tag = "</qdc:dc>"
    for el in elements:
        attrs = ""
        if el.qualifier:
            attrs += f" qualifier={quoteattr(el.qualifier)}"
        if el.scheme:
            attrs += f" scheme={quoteattr(el.scheme)}"
        if el.language:
            attrs += f" xml:lang={quoteattr(el.language)}"
        parts.append(f"<dc:{el.name}{attrs}>{escape(el.value)}</dc:{el.name}>")
    parts.append(close_tag)
    return "".join(parts).encode("utf-8")


def _reference_exports(rows, raw, original_format, native_public,
                       collection_repo_id):
    """The five exports as two DC serializations, the second of rows
    stripped of qualifiers and schemes, and a search bundle built twice."""
    nsdl_dc = _reference_dc_payload("nsdl_dc", rows)
    oai_dc = _reference_dc_payload("oai_dc", tuple(
        DcElement(name=el.name, value=el.value, language=el.language)
        for el in rows))
    if collection_repo_id is None:
        links = f"<links xmlns={quoteattr(repository.LINKS_NS)}/>".encode()
    else:
        links = (f"<links xmlns={quoteattr(repository.LINKS_NS)}>"
                 f"<memberOf>{escape(collection_repo_id)}</memberOf></links>"
                 ).encode()

    def combined(include_native):
        parts = [f"<search xmlns={quoteattr(repository.SEARCH_NS)}>".encode(),
                 b"<nsdl_dc>" + nsdl_dc + b"</nsdl_dc>",
                 b"<oai_dc>" + oai_dc + b"</oai_dc>",
                 b"<links>" + links + b"</links>"]
        if include_native and raw:
            parts.append(f"<native format={quoteattr(original_format)}>"
                         .encode() + raw + b"</native>")
        parts.append(b"</search>")
        return b"".join(parts)

    return {"nsdl_dc": nsdl_dc, "oai_dc": oai_dc, "nsdl_links": links,
            "nsdl_search": combined(True),
            "nsdl_all": combined(native_public)}


# markup characters, both quote kinds, \n \r \t, non-ASCII and the empty
# string, in values and in attributes
_TEXT = st.text(
    alphabet=st.sampled_from("a Z0&<>\"';=\n\r\t\u00e9\u6f22\U0001f600")
    | st.characters(blacklist_categories=("Cs",)),
    max_size=10)
_ATTRIBUTE = st.none() | st.just("") | _TEXT
_ELEMENTS = st.lists(
    st.builds(DcElement, name=st.sampled_from(sorted(model.DC_ELEMENTS)),
              value=_TEXT, qualifier=_ATTRIBUTE, scheme=_ATTRIBUTE,
              language=_ATTRIBUTE),
    max_size=5).map(tuple)


@settings(max_examples=150, deadline=None)
@given(rows=_ELEMENTS, collection_rows=_ELEMENTS, collection_id=_TEXT,
       raw=st.binary(max_size=6), original_format=_TEXT,
       native_public=st.booleans())
def test_exports_match_the_reference_formula(rows, collection_rows,
                                             collection_id, raw,
                                             original_format, native_public):
    repo = Repository()
    coll_repo_id = repo.register_collection_record(
        collection_id, collection_rows, T0)
    item = _insert_rows(repo, rows, native_public=native_public, raw=raw,
                        original_format=original_format,
                        collection=collection_id)
    coll = repo.get(coll_repo_id)
    assert coll.original_raw == _reference_dc_payload("nsdl_dc",
                                                      collection_rows)
    expected = {
        coll_repo_id: _reference_exports(collection_rows, coll.original_raw,
                                         "nsdl_dc", True, None),
        item.repo_identifier: _reference_exports(
            rows, raw, original_format, native_public, coll_repo_id),
    }
    for prefix in ("oai_dc", "nsdl_dc"):
        assert model.serialize_dc_payload(prefix, rows) == \
            _reference_dc_payload(prefix, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "repository.json"
        repo.save(path)
        loaded = Repository.load(path)
    for built in (repo, loaded):
        for repo_id, exports in expected.items():
            rec = built.get(repo_id)
            assert rec.exports == exports
            assert (rec.exports["nsdl_all"] is rec.exports["nsdl_search"]) \
                == rec.native_public


# a fixed adversarial record set: markup and both quote kinds in values and
# attributes, \n \r \t in attributes, non-ASCII, empty qualifiers and
# languages, public and private natives, an empty native, and a collection
# whose identifier every membership link escapes
_PINNED_COLLECTION = "c&<\"'>"
_PINNED_RECORDS = [
    ((DcElement("title", "Tom & Jerry <b>\"q\" 's'</b>", language="en"),
      DcElement("identifier", "http://e.org/?a=1&b=<2>", scheme="URI"),
      DcElement("description", "line\nbreak\r\ttab \u00e9 \u6f22 \U0001f600",
                qualifier="abstract", language='x"y'),
      DcElement("subject", "s", qualifier="", scheme="a'b\"c"),
      DcElement("date", "2006", qualifier="created\n\r\t",
                scheme="W3CDTF", language="it's"),
      DcElement("rights", "", language="")),
     b"<raw a='&amp;'>\xc3\xa9</raw>", "oai_dc", True),
    ((DcElement("coverage", "&amp; already escaped", qualifier="spatial"),
      DcElement("creator", "'\"'", qualifier="\"'\"", scheme="\t")),
     b"<native/>", 'fo"r\'mat\n', False),
    ((), b"", "nsdl_dc", False),
    ((DcElement("type", "Text", scheme="DCMIType"),), b"", "oai_dc", True),
]
# what the five exports of every record in _pinned_repository() hashed to
# before the exports were built in one pass
_PINNED_EXPORTS_SHA256 = \
    "4468f8912bd4d5837f003c4739f6b86f6f0a709f281b8a6d6ea916873c8ec1a0"


def _pinned_repository() -> Repository:
    r = Repository(domain="pin.example")
    r.register_collection_record(
        _PINNED_COLLECTION,
        (DcElement("title", "C & <co>", qualifier="alternative",
                   language="d\u00e9"),
         DcElement("description", "'\"\n\"'", scheme="\r")), T0)
    for i, (rows, raw, original_format, public) in enumerate(_PINNED_RECORDS):
        _insert_rows(r, rows, native_public=public, raw=raw,
                     original_format=original_format, source=f"oai:p:{i}",
                     collection=_PINNED_COLLECTION)
    return r


def _exports_sha256(repo: Repository) -> str:
    hasher = hashlib.sha256()
    for repo_id in sorted(repo._records):
        hasher.update(repo_id.encode() + b"\0")
        for fmt in repository.EXPORT_FORMATS:
            payload = repo.get(repo_id).exports[fmt]
            hasher.update(b"%d:" % len(payload) + payload)
    return hasher.hexdigest()


def test_exports_pinned_bytes(tmp_path):
    repo = _pinned_repository()
    assert repo.count() == 1 + len(_PINNED_RECORDS)
    assert _exports_sha256(repo) == _PINNED_EXPORTS_SHA256
    repo.save(tmp_path / "repository.json")
    assert _exports_sha256(Repository.load(tmp_path / "repository.json")) \
        == _PINNED_EXPORTS_SHA256


# SHA-256 of the state file of _pinned_repository(), and of the file that
# the same object saved again after one insert and one tombstone, as written
# by the save that dumped the whole state with json.dumps
_PINNED_STATE_SHA256 = (
    "5858f92db712b757671038b4503079bd446b363ceec4d9c0f750bc6f7f0cebc7",
    "1a1a9fffd5e07ce851165615b9e3bb6e0608484b5087c3d9e0ddaafccfa180f0",
)


def test_state_file_pinned_bytes(tmp_path):
    repo = _pinned_repository()
    path = tmp_path / "repository.json"
    repo.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == _PINNED_STATE_SHA256[0]
    _insert_rows(repo, (DcElement("title", "Added \u00e9 <later>"),),
                 raw=b"<later/>", source="oai:p:added",
                 collection=_PINNED_COLLECTION)
    repo.delete_by_source(_PINNED_COLLECTION, "oai:p:0",
                          now=T0 + timedelta(hours=1))
    repo.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == _PINNED_STATE_SHA256[1]


def test_links_payload_membership():
    r = Repository()
    coll_id = r.register_collection_record(
        "coll-1", (DcElement("title", "C"),), T0)
    ids = r.insert(_doc([("oai:x:1", "t1")]), now=T0)
    rec = r.get(ids[0])
    assert b"memberOf" in rec.exports["nsdl_links"]
    assert coll_id.encode() in rec.exports["nsdl_links"]


def test_collection_record_has_no_self_membership():
    r = Repository()
    coll_id = r.register_collection_record(
        "coll-1", (DcElement("title", "C"),), T0)
    assert b"memberOf" not in r.get(coll_id).exports["nsdl_links"]


def test_tombstone_naming_the_collection_record_is_unknown():
    # delete_by_source finds only items: a provider tombstone whose
    # identifier is the collection record's own id names no stored item
    r = Repository()
    coll_id = r.register_collection_record(
        "coll-1", (DcElement("title", "C"),), T0)
    with pytest.raises(UnknownIdentifier):
        r.delete_by_source("coll-1", coll_id, now=T0)
    assert not r.get(coll_id).deleted


def test_nsdl_all_vs_search_native_private():
    r = Repository()
    r.register_collection_record("coll-1", (DcElement("title", "C"),), T0)
    ids = r.insert(_doc([("oai:x:1", "t1")]), now=T0, native_public=False)
    rec = r.get(ids[0])
    assert b"<native" in rec.exports["nsdl_search"]
    assert b"<native" not in rec.exports["nsdl_all"]
    ids2 = r.insert(_doc([("oai:x:2", "t2")]), now=T0, native_public=True)
    rec2 = r.get(ids2[0])
    assert rec2.exports["nsdl_all"] == rec2.exports["nsdl_search"]


def test_mark_deleted_tombstone(repo):
    ids = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    repo.mark_deleted(ids[0], now=T0 + timedelta(hours=1))
    rec = repo.get(ids[0])
    assert rec.deleted
    assert rec.exports == {}
    assert rec.served_datestamp == T0 + timedelta(hours=4)


def test_delete_then_reinsert_resurrects(repo):
    ids = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    repo.mark_deleted(ids[0], now=T0 + timedelta(hours=1))
    repo.insert(_doc([("oai:x:1", "t1back")]), now=T0 + timedelta(hours=2))
    rec = repo.get(ids[0])
    assert not rec.deleted
    assert rec.served_datestamp == T0 + timedelta(hours=5)


def test_delete_unknown_identifier(repo):
    with pytest.raises(UnknownIdentifier):
        repo.mark_deleted("oai:nope:nope/123", now=T0)


def test_publish_snapshot_isolation(repo):
    repo.insert(_doc([(f"oai:x:{i}", f"t{i}") for i in range(5)]), now=T0)
    snap = repo.publish(now=T0 + timedelta(hours=4))
    assert snap.manifest.record_count == 6  # 5 items + collection record
    repo.insert(_doc([("oai:x:99", "t99")]), now=T0 + timedelta(hours=5))
    assert snap.manifest.record_count == 6
    assert snap.by_identifier(repo.mint_identifier("coll-1", "oai:x:99")) is None


def test_snapshot_lookups_refuse_records_out_of_datestamp_order(repo):
    repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    snap = repo.publish(now=T0 + timedelta(hours=4))
    shuffled = dataclasses.replace(snap, records=snap.records[::-1])
    with pytest.raises(ValueError):
        shuffled.by_identifier(snap.records[0].repo_identifier)


def test_publish_without_writes_is_identical(repo):
    repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    s1 = repo.publish(now=T0 + timedelta(hours=4))
    s2 = repo.publish(now=T0 + timedelta(hours=4))
    assert s1 == s2
    assert s1.manifest.checksum == s2.manifest.checksum


def test_list_uri_identifiers_match_scrubbed(repo):
    ids = repo.insert(
        _doc([("oai:x:1", "t1"), ("oai:x:2", "t2"), ("oai:x:3", "t3")]),
        now=T0)
    uris = [row.value for repo_id in ids
            for row in repo.get(repo_id).normalized_rows
            if row.name == "identifier" and row.scheme == "URI"]
    assert sorted(uris) == ["http://example.org/t1", "http://example.org/t2",
                            "http://example.org/t3"]


def test_schema_warning_flag_for_invalid_records(repo):
    rec = _record("oai:x:bad", [DcElement("date", "sometime")])  # no title/identifier
    norm = safe_transform(rec)
    doc = build_db_insert([(rec, norm)], "coll-1", "a")
    ids = repo.insert(doc, now=T0)
    assert repo.get(ids[0]).schema_warning


def test_save_load_roundtrip(tmp_path, repo):
    repo.insert(_doc([("oai:x:1", "t1"), ("oai:x:2", "t2")]), now=T0)
    repo.mark_deleted(repo.mint_identifier("coll-1", "oai:x:2"), now=T0)
    repo.register_collection_record(
        "coll-2", (DcElement("title", "Private natives"),), T0)
    repo.insert(_doc([("oai:y:1", "u1"), ("oai:y:2", "u2")],
                     collection="coll-2"), now=T0, native_public=False)
    repo.delete_by_source("coll-2", "oai:y:2", now=T0 + timedelta(hours=1))
    path = tmp_path / "staging.json"
    repo.save(path)
    loaded = Repository.load(path)
    assert loaded.count() == repo.count()
    for original in repo._records.values():
        assert loaded.get(original.repo_identifier).exports == original.exports
    state = json.loads(path.read_text())
    assert state["version"] == 2
    assert not any("exports" in r for r in state["records"])
    s1 = repo.publish(now=T0)
    s2 = loaded.publish(now=T0)
    assert s1.manifest.checksum == s2.manifest.checksum


def test_save_load_keeps_a_year_below_1000(tmp_path, repo):
    rec = _record("oai:x:old", [DcElement("title", "Old")])
    rec = dataclasses.replace(rec, header=dataclasses.replace(
        rec.header, datestamp=model.parse_datestamp("0999-01-01T00:00:00Z")))
    ids = repo.insert(build_db_insert([(rec, safe_transform(rec))],
                                      "coll-1", "a"), now=T0)
    path = tmp_path / "staging.json"
    repo.save(path)
    loaded = Repository.load(path)
    assert loaded.get(ids[0]).provider_datestamp == \
        datetime(999, 1, 1, tzinfo=UTC)
    assert loaded.get(ids[0]) == repo.get(ids[0])


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


# A version 1 state file as the previous release wrote it, except that its
# base64 exports are replaced by a stale payload (load must rebuild them, not
# read them) and the item's rows are stored out of ``position`` order.
_STALE = {fmt: _b64(b"<stale/>") for fmt in repository.EXPORT_FORMATS}
_V1_STATE = {
    "version": 1, "domain": "t.example", "postdate_offset_seconds": 10800,
    "collections": {"c": "oai:t.example:collections/c"},
    "records": [
        {"repo_identifier": "oai:t.example:collections/c",
         "collection_id": "c",
         "source_identifier": "oai:t.example:collections/c",
         "original_raw": _b64(
             b'<qdc:dc xmlns:qdc="urn:x-mdpipe:qdc" '
             b'xmlns:dc="http://purl.org/dc/elements/1.1/">'
             b'<dc:title>C</dc:title></qdc:dc>'),
         "original_format": "nsdl_dc",
         "provider_datestamp": "2006-01-25T12:00:00Z",
         "rows": [["title", None, None, "C", None, 0]],
         "served_datestamp": "2006-01-25T15:00:00Z",
         "deleted": False, "native_public": True, "is_collection": True,
         "schema_warning": False, "exports": _STALE},
        {"repo_identifier": "oai:t.example:c/b7348ffd685d297e1dc2c0199372b418",
         "collection_id": "c", "source_identifier": "s:1",
         "original_raw": _b64(
             b'<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/'
             b'oai_dc/" xmlns:dc="http://purl.org/dc/elements/1.1/">'
             b'<dc:title>T</dc:title>'
             b'<dc:identifier scheme="URI">http://e/1</dc:identifier>'
             b'<dc:description qualifier="abstract" xml:lang="en">D'
             b'</dc:description></oai_dc:dc>'),
         "original_format": "oai_dc",
         "provider_datestamp": "2006-01-24T12:00:00Z",
         "rows": [["description", "abstract", None, "D", "en", 2],
                  ["title", None, None, "T", None, 0],
                  ["identifier", None, "URI", "http://e/1", None, 1]],
         "served_datestamp": "2006-01-25T15:00:00Z",
         "deleted": False, "native_public": False, "is_collection": False,
         "schema_warning": False, "exports": _STALE},
        {"repo_identifier": "oai:t.example:c/4f3d415d0e615ae7406d16be971d5620",
         "collection_id": "c", "source_identifier": "s:2",
         "original_raw": _b64(
             b'<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/'
             b'oai_dc/" xmlns:dc="http://purl.org/dc/elements/1.1/">'
             b'<dc:title>U</dc:title></oai_dc:dc>'),
         "original_format": "oai_dc",
         "provider_datestamp": "2006-01-24T12:00:00Z",
         "rows": [["title", None, None, "U", None, 0]],
         "served_datestamp": "2006-01-25T16:00:00Z",
         "deleted": True, "native_public": False, "is_collection": False,
         "schema_warning": False, "exports": {}},
    ],
}
# what the previous release's publish(T0) returned for the repository that
# wrote this file
_V1_CHECKSUM = \
    "9b15ccc73e69c8c4036f7999caace0ba2342aaeded41d9d9b28c0130b9fe9da9"


def _v1_writer() -> Repository:
    """The calls that built the repository behind ``_V1_STATE``."""
    r = Repository(domain="t.example")
    r.register_collection_record("c", (DcElement("title", "C"),), T0)
    pairs = []
    for ident, elements in [
            ("s:1", [DcElement("title", "T"),
                     DcElement("identifier", "http://e/1", scheme="URI"),
                     DcElement("description", "D", qualifier="abstract",
                               language="en")]),
            ("s:2", [DcElement("title", "U")])]:
        rec = _record(ident, elements)
        pairs.append((rec, safe_transform(rec)))
    r.insert(build_db_insert(pairs, "c", "x"), now=T0, native_public=False)
    r.delete_by_source("c", "s:2", now=T0 + timedelta(hours=1))
    return r


def test_load_upgrades_version_1(tmp_path):
    path = tmp_path / "repository.json"
    path.write_text(json.dumps(_V1_STATE))
    loaded = Repository.load(path)
    writer = _v1_writer()
    assert loaded.publish(now=T0).manifest.checksum == _V1_CHECKSUM
    assert writer.publish(now=T0).manifest.checksum == _V1_CHECKSUM
    for original in writer._records.values():
        rec = loaded.get(original.repo_identifier)
        assert rec.normalized_rows == original.normalized_rows
        assert rec.exports == original.exports
    assert loaded.get("oai:t.example:c/4f3d415d0e615ae7406d16be971d5620"
                      ).exports == {}
    loaded.save(path)
    assert json.loads(path.read_text())["version"] == 2
    assert Repository.load(path).publish(now=T0).manifest.checksum == \
        _V1_CHECKSUM


@pytest.mark.parametrize("version", [0, 3, None])
def test_load_rejects_unknown_version(tmp_path, version):
    state = dict(_V1_STATE, version=version)
    path = tmp_path / "repository.json"
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match=f"version {version!r}"):
        Repository.load(path)


def test_load_refuses_a_live_item_whose_collection_has_no_record(tmp_path,
                                                                 repo):
    repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    repo.register_collection_record(
        "coll-2", (DcElement("title", "Two"),), T0)
    repo.insert(_doc([("oai:y:1", "u1")], collection="coll-2"), now=T0)
    repo.delete_by_source("coll-2", "oai:y:1", now=T0)
    path = tmp_path / "repository.json"
    repo.save(path)
    state = json.loads(path.read_bytes())
    # coll-2 holds its collection record and a tombstone: neither links to
    # a collection record, so both load as they are
    del state["collections"]["coll-2"]
    path.write_text(json.dumps(state))
    loaded = Repository.load(path)
    tombstone = loaded.get(repo.mint_identifier("coll-2", "oai:y:1"))
    assert tombstone.deleted and tombstone.exports == {}
    assert loaded.publish(now=T0).manifest.checksum == \
        repo.publish(now=T0).manifest.checksum
    # coll-1 holds a live item, whose membership link has no target
    del state["collections"]["coll-1"]
    path.write_text(json.dumps(state))
    with pytest.raises(MissingCollectionRecord):
        Repository.load(path)


def test_exports_are_derived_on_first_use(tmp_path, repo, monkeypatch):
    built = []
    build_exports = repository._build_exports

    def counting(*args):
        built.append(args)
        return build_exports(*args)

    monkeypatch.setattr(repository, "_build_exports", counting)
    repo.insert(_doc([(f"oai:x:{i}", f"t{i}") for i in range(4)]), now=T0)
    repo.delete_by_source("coll-1", "oai:x:3", now=T0)
    repo.register_collection_record(
        "coll-2", (DcElement("title", "Two"),), T0)
    path = tmp_path / "repository.json"
    repo.save(path)
    loaded = Repository.load(path)
    assert built == []
    for r in (repo, loaded):
        r.publish(now=T0)
        assert len(built) == 5   # 3 live items and 2 collection records
        built.clear()
        r.publish(now=T0)
        assert built == []
        tombstone = r.get(r.mint_identifier("coll-1", "oai:x:3"))
        assert tombstone.deleted and tombstone.exports == {}
    assert built == []


class _TornFile:
    """A file whose write stores half of the data, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("fault", ["open", "write", "fsync", "replace"])
def test_failed_save_keeps_previous_state(tmp_path, repo, monkeypatch, fault):
    path = tmp_path / "state" / "repository.json"
    repo.save(path)
    before = path.read_bytes()
    checksum = Repository.load(path).publish(now=T0).manifest.checksum
    repo.insert(_doc([("oai:x:1", "t1")]), now=T0)

    def boom(*args, **kwargs):
        raise OSError("injected")

    def denied(*args, **kwargs):
        raise PermissionError("injected")

    # a failed open() must surface as itself, not as the cleanup's error
    expected = PermissionError if fault == "open" else OSError
    if fault == "open":
        monkeypatch.setattr(repository, "open", denied, raising=False)
    elif fault == "write":
        monkeypatch.setattr(repository, "open",
                            lambda *a, **k: _TornFile(open(*a, **k)),
                            raising=False)
    else:
        monkeypatch.setattr(repository.os, fault, boom)
    with pytest.raises(expected):
        repo.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert Repository.load(path).publish(now=T0).manifest.checksum == checksum
    assert sorted(p.name for p in path.parent.iterdir()) == ["repository.json"]
    repo.save(path)
    assert Repository.load(path).count() == repo.count()


# ---------------------------------------------------------------------------
# state file bytes against the formula they replaced

def _datestamp(instant: datetime) -> str:
    return instant.astimezone(UTC).replace(tzinfo=None).isoformat() + "Z"


def _reference_state(repo: Repository) -> dict:
    """The whole state as one dict, for one ``json.dumps``."""
    return {
        "version": 2,
        "domain": repo.domain,
        "postdate_offset_seconds": int(repo.postdate_offset.total_seconds()),
        "collections": dict(repo._collections),
        "records": [{
            "repo_identifier": r.repo_identifier,
            "collection_id": r.collection_id,
            "source_identifier": r.source_identifier,
            "original_raw": _b64(r.original_raw),
            "original_format": r.original_format,
            "provider_datestamp": _datestamp(r.provider_datestamp),
            "rows": [[el.name, el.value, el.qualifier, el.scheme, el.language]
                     for el in r.normalized_rows],
            "served_datestamp": _datestamp(r.served_datestamp),
            "deleted": r.deleted,
            "native_public": r.native_public,
            "is_collection": r.is_collection,
            "schema_warning": r.schema_warning,
        } for r in repo._records.values()],
    }


_COLLECTIONS = st.sampled_from(["c1", "c\"\u00e9\\2"])
_SOURCES = st.sampled_from(["s:0", "s:1", "s:2"])
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("register"), _COLLECTIONS, _ELEMENTS),
    st.tuples(st.just("insert"), _COLLECTIONS, _SOURCES, _ELEMENTS,
              st.booleans()),
    st.tuples(st.just("mark_deleted"), st.integers(0, 9)),
    st.tuples(st.just("delete_by_source"), _COLLECTIONS, _SOURCES),
    st.tuples(st.just("save"))), max_size=12)


@settings(max_examples=100, deadline=None)
@given(operations=_OPERATIONS)
def test_every_save_writes_the_dump_of_the_whole_state(operations):
    repo = Repository(domain="d\u00e9.example")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "repository.json"
        for minute, (op, *args) in enumerate([*operations, ("save",)]):
            now = T0 + timedelta(minutes=minute)
            if op == "register":
                repo.register_collection_record(*args, now)
            elif op == "insert":
                collection, source, rows, public = args
                if collection in repo._collections:
                    _insert_rows(repo, rows, native_public=public,
                                 source=source, collection=collection,
                                 now=now)
                else:
                    with pytest.raises(UnknownCollection):
                        _insert_rows(repo, rows, source=source,
                                     collection=collection)
            elif op == "mark_deleted" and repo.count():
                ids = list(repo._records)
                repo.mark_deleted(ids[args[0] % len(ids)], now)
            elif op == "delete_by_source":
                collection, source = args
                if repo.get(repo.mint_identifier(collection, source)):
                    repo.delete_by_source(collection, source, now)
                else:
                    with pytest.raises(UnknownIdentifier):
                        repo.delete_by_source(collection, source, now)
            elif op == "save":
                repo.save(path)
                assert path.read_bytes() == \
                    json.dumps(_reference_state(repo)).encode()
                assert Repository.load(path).publish(now).manifest.checksum \
                    == repo.publish(now).manifest.checksum


def test_save_encodes_only_the_records_written_since_the_last(
        tmp_path, repo, monkeypatch):
    repo.insert(_doc([(f"oai:x:{i}", f"t{i}") for i in range(6)]), now=T0)
    path = tmp_path / "repository.json"
    repo.save(path)
    encoded = []
    record_to_json = repository._record_to_json

    def counting(record):
        encoded.append(record.repo_identifier)
        return record_to_json(record)

    monkeypatch.setattr(repository, "_record_to_json", counting)
    later = T0 + timedelta(hours=1)
    written = [*repo.insert(_doc([("oai:x:1", "t1v2"), ("oai:x:9", "t9")]),
                            now=later),
               repo.mint_identifier("coll-1", "oai:x:4")]
    repo.delete_by_source("coll-1", "oai:x:4", now=later)
    repo.save(path)
    assert sorted(encoded) == sorted(written)
    assert path.read_bytes() == json.dumps(_reference_state(repo)).encode()
    encoded.clear()
    repo.save(path)
    assert encoded == []


def test_save_fsyncs_the_directory_after_the_rename(tmp_path, repo,
                                                   monkeypatch):
    calls = []
    replace, fsync = os.replace, os.fsync

    def recording_replace(src, dst):
        calls.append("replace")
        replace(src, dst)

    def recording_fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        calls.append("fsync directory" if is_dir else "fsync file")
        fsync(fd)

    monkeypatch.setattr(repository.os, "replace", recording_replace)
    monkeypatch.setattr(repository.os, "fsync", recording_fsync)
    repo.save(tmp_path / "repository.json")
    assert calls == ["fsync file", "replace", "fsync directory"]
