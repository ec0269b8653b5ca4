import dataclasses
import threading
from datetime import datetime, timedelta, timezone

import pytest

from mdpipe import ingest, model, repository
from mdpipe.errors import UnknownCollection, UnknownIdentifier
from mdpipe.ingest import NormalizedRecord, TransformConfig, build_db_insert, safe_transform
from mdpipe.model import DcElement, MetadataRecord, RecordHeader
from mdpipe.repository import Repository, assemble, dumb_down, shred

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


def test_shred_assemble_roundtrip():
    norm = NormalizedRecord("oai:x:1", (
        DcElement("title", "T"),
        DcElement("identifier", "http://e/x", scheme="URI"),
        DcElement("description", "D", qualifier="abstract", language="en"),
    ))
    assert assemble(shred(norm), "oai:x:1") == norm


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


def test_query_elements_min_uri_count():
    r = Repository()
    r.register_collection_record("coll-1", (DcElement("title", "C"),), T0)
    pairs = []
    for i in range(10):
        els = [DcElement("title", f"t{i}"),
               DcElement("identifier", f"http://e/{i}", scheme="URI")]
        if i < 2:
            els.append(DcElement("identifier", f"http://e/alt/{i}", scheme="URI"))
        rec = _record(f"oai:x:{i}", els)
        pairs.append((rec, safe_transform(rec, CFG)))
    r.insert(build_db_insert(pairs, "coll-1", "a"), now=T0)
    # oracle: linear scan
    assert r.count_records_with_min_uris(2) == 2
    assert r.count_records_with_min_uris(1) == 10
    assert Repository().count_records_with_min_uris(1) == 0


def test_list_uri_identifiers_match_scrubbed(repo):
    repo.insert(_doc([("oai:x:1", "t1"), ("oai:x:2", "t2"), ("oai:x:3", "t3")]),
                now=T0)
    uris = repo.list_uri_identifiers()
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
    path = tmp_path / "staging.json"
    repo.save(path)
    loaded = Repository.load(path)
    assert loaded.count() == repo.count()
    s1 = repo.publish(now=T0)
    s2 = loaded.publish(now=T0)
    assert s1.manifest.checksum == s2.manifest.checksum
