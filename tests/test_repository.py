import base64
import dataclasses
import json
import threading
from datetime import datetime, timedelta, timezone

import pytest

from mdpipe import ingest, model, repository
from mdpipe.errors import UnknownCollection, UnknownIdentifier
from mdpipe.ingest import TransformConfig, build_db_insert, safe_transform
from mdpipe.model import DcElement, MetadataRecord, RecordHeader
from mdpipe.repository import Repository, dumb_down

UTC = timezone.utc
CFG = TransformConfig.default()
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
        pairs.append((rec, safe_transform(rec, CFG)))
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


def test_dumb_down_erases_qualifiers_and_schemes():
    els = (DcElement("identifier", "http://x/y", scheme="URI"),
           DcElement("description", "D", qualifier="abstract"))
    out = dumb_down(els)
    assert out[0] == DcElement("identifier", "http://x/y")
    assert out[1] == DcElement("description", "D")


def test_dumb_down_fixed_point_on_unqualified():
    els = (DcElement("title", "T"), DcElement("subject", "s"))
    assert dumb_down(els) == els


def test_dumb_down_preserves_values_and_order():
    els = tuple(DcElement("subject", f"v{i}", qualifier="audience")
                for i in range(6))
    out = dumb_down(els)
    assert len(out) == 6
    assert [e.value for e in out] == [e.value for e in els]


def test_export_formats_present_and_coherent(repo):
    ids = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    rec = repo.get(ids[0])
    assert set(rec.exports) == set(repository.EXPORT_FORMATS)
    # format coherence: oai_dc equals dumb_down of nsdl_dc
    nsdl_elements = model.parse_dc_payload(rec.exports["nsdl_dc"], "nsdl_dc")
    oai_elements = model.parse_dc_payload(rec.exports["oai_dc"], "oai_dc")
    assert dumb_down(nsdl_elements) == oai_elements


def test_links_payload_membership(repo):
    ids = repo.insert(_doc([("oai:x:1", "t1")]), now=T0)
    rec = repo.get(ids[0])
    assert b"memberOf" in rec.exports["nsdl_links"]
    assert repo.collection_repo_id("coll-1").encode() in rec.exports["nsdl_links"]


def test_collection_record_has_no_self_membership(repo):
    coll_rec = repo.get(repo.collection_repo_id("coll-1"))
    assert b"memberOf" not in coll_rec.exports["nsdl_links"]


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


def test_concurrent_insert_never_lands_partially(repo):
    big_doc = _doc([(f"oai:y:{i}", f"u{i}") for i in range(200)])
    snapshots = []
    stop = threading.Event()

    def publisher():
        while not stop.is_set():
            snapshots.append(repo.publish(now=T0))

    t = threading.Thread(target=publisher)
    t.start()
    repo.insert(big_doc, now=T0)
    stop.set()
    t.join()
    snapshots.append(repo.publish(now=T0))
    for snap in snapshots:
        n_items = sum(1 for r in snap.records if not r.is_collection)
        assert n_items in (0, 200)


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
    norm = safe_transform(rec, CFG)
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
    ids = repo.insert(build_db_insert([(rec, safe_transform(rec, CFG))],
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
        pairs.append((rec, safe_transform(rec, CFG)))
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
