"""Provider endpoint: verbs, paging, tokens, and datestamp visibility."""

import base64
import hashlib
import hmac
import json
import re
import threading
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from mdpipe import model
from mdpipe.client import HttpTransport, OaiClient
from mdpipe.ingest import build_db_insert, safe_transform
from mdpipe.model import DcElement, MetadataRecord, RecordHeader
from mdpipe.repository import (
    EXPORT_FORMATS,
    Repository,
    ServingSnapshot,
    SnapshotManifest,
    StoredRecord,
)
from mdpipe.server import TOKEN_TTL, OaiServer, ServerConfig, serve_http

UTC = timezone.utc
T0 = datetime(2006, 3, 1, 9, 0, 0, tzinfo=UTC)
OAI = f"{{{model.OAI_NS}}}"


class MutableClock:
    def __init__(self, now):
        self.value = now

    def __call__(self):
        return self.value


def _doc(n, collection="coll-1", start=0):
    pairs = []
    for i in range(start, start + n):
        rec = MetadataRecord(
            header=RecordHeader(identifier=f"oai:src:{i:04d}",
                                datestamp=T0 - timedelta(days=2)),
            format_prefix="oai_dc",
            elements=(DcElement("title", f"Title {i}"),
                      DcElement("identifier", f"http://e.org/{i}",
                                scheme="URI")),
            raw_xml=model.serialize_dc_payload(
                "oai_dc", (DcElement("title", f"Title {i}"),)))
        pairs.append((rec, safe_transform(rec)))
    return build_db_insert(pairs, collection, "a-1")


@pytest.fixture
def server():
    repo = Repository(postdate_offset=timedelta(hours=3))
    repo.register_collection_record(
        "coll-1", (DcElement("title", "Collection One"),),
        T0 - timedelta(days=30))
    repo.insert(_doc(25), now=T0 - timedelta(days=1))
    snapshot = repo.publish(now=T0)
    clock = MutableClock(T0)
    srv = OaiServer(ServerConfig(page_size=10), snapshot, clock=clock,
                    secret=b"test-secret")
    srv.test_clock = clock
    srv.test_repo = repo
    return srv


def _root(response: bytes) -> ET.Element:
    return ET.fromstring(response)


def _error_code(response: bytes) -> str | None:
    err = _root(response).find(f"{OAI}error")
    return err.get("code") if err is not None else None


# ---------------------------------------------------------------------------
# Identify / formats / sets


def test_identify_declares_persistent_and_second_granularity(server):
    root = _root(server.handle_request("Identify", {}))
    ident = root.find(f"{OAI}Identify")
    assert ident.findtext(f"{OAI}deletedRecord") == "persistent"
    assert ident.findtext(f"{OAI}granularity") == model.GRANULARITY_SECOND
    assert ident.findtext(f"{OAI}protocolVersion") == "2.0"


def test_identify_earliest_is_min_visible_datestamp(server):
    root = _root(server.handle_request("Identify", {}))
    earliest = root.find(f"{OAI}Identify").findtext(f"{OAI}earliestDatestamp")
    visible = [r.served_datestamp for r in server.snapshot.records
               if r.served_datestamp <= T0]
    assert model.parse_datestamp(earliest) == min(visible)


def test_list_metadata_formats_exposes_all_five(server):
    root = _root(server.handle_request("ListMetadataFormats", {}))
    prefixes = [e.findtext(f"{OAI}metadataPrefix")
                for e in root.iter(f"{OAI}metadataFormat")]
    assert prefixes == ["nsdl_dc", "oai_dc", "nsdl_links", "nsdl_search",
                       "nsdl_all"]


def test_list_sets_one_set_per_collection_never_errors(server):
    root = _root(server.handle_request("ListSets", {}))
    specs = [e.findtext(f"{OAI}setSpec") for e in root.iter(f"{OAI}set")]
    assert specs == ["coll-1"]
    assert _error_code(server.handle_request("ListSets", {})) is None


# ---------------------------------------------------------------------------
# Argument validation


def test_unknown_verb(server):
    assert _error_code(server.handle_request("Frobnicate", {})) == "badVerb"


def test_illegal_argument_rejected(server):
    resp = server.handle_request("Identify", {"metadataPrefix": "oai_dc"})
    assert _error_code(resp) == "badArgument"


def test_resumption_token_must_be_exclusive(server):
    resp = server.handle_request(
        "ListRecords", {"resumptionToken": "x", "metadataPrefix": "oai_dc"})
    assert _error_code(resp) == "badArgument"


def test_unknown_format_rejected(server):
    resp = server.handle_request("ListRecords", {"metadataPrefix": "marc21"})
    assert _error_code(resp) == "cannotDisseminateFormat"


def test_malformed_window_datestamp_rejected(server):
    resp = server.handle_request(
        "ListRecords", {"metadataPrefix": "oai_dc", "from": "2006-03-01"})
    assert _error_code(resp) == "badArgument"


def test_inverted_window_rejected(server):
    resp = server.handle_request(
        "ListRecords", {"metadataPrefix": "oai_dc",
                        "from": "2006-03-01T00:00:00Z",
                        "until": "2006-02-01T00:00:00Z"})
    assert _error_code(resp) == "badArgument"


# ---------------------------------------------------------------------------
# GetRecord


def test_get_record_round_trips_payload(server):
    target = next(r for r in server.snapshot.records if not r.deleted
                  and r.collection_id == "coll-1" and r.exports)
    resp = server.handle_request(
        "GetRecord", {"identifier": target.repo_identifier,
                      "metadataPrefix": "oai_dc"})
    rec = model.parse_record(resp, "oai_dc")
    assert rec.header.identifier == target.repo_identifier
    assert rec.header.datestamp == target.served_datestamp


def test_get_record_unknown_identifier(server):
    resp = server.handle_request(
        "GetRecord", {"identifier": "oai:nowhere:1",
                      "metadataPrefix": "oai_dc"})
    assert _error_code(resp) == "idDoesNotExist"


def test_get_record_missing_arguments(server):
    resp = server.handle_request("GetRecord", {"metadataPrefix": "oai_dc"})
    assert _error_code(resp) == "badArgument"


# ---------------------------------------------------------------------------
# Paging arithmetic


def test_list_records_pages_of_ten(server):
    # 25 item records + 1 collection record = 26 visible -> 3 pages of 10,10,6
    seen = []
    resp = server.handle_request("ListRecords", {"metadataPrefix": "oai_dc"})
    pages = 0
    while True:
        pages += 1
        page = model.parse_list_response(resp, "oai_dc")
        seen.extend(r.header.identifier for r in page.records)
        if page.token is None or page.token.is_final:
            assert page.token is not None  # paged list ends with closing token
            assert page.token.complete_list_size == 26
            break
        assert page.token.complete_list_size == 26
        resp = server.handle_request(
            "ListRecords", {"resumptionToken": page.token.token})
    assert pages == 3
    assert len(seen) == 26 and len(set(seen)) == 26


def test_list_identifiers_matches_list_records(server):
    resp = server.handle_request(
        "ListIdentifiers", {"metadataPrefix": "oai_dc"})
    root = _root(resp)
    headers = root.find(f"{OAI}ListIdentifiers").findall(f"{OAI}header")
    assert len(headers) == 10
    assert all(h.findtext(f"{OAI}setSpec") for h in headers)


def test_set_filter_restricts_to_collection(server):
    server.test_repo.register_collection_record(
        "coll-2", (DcElement("title", "Two"),), T0 - timedelta(days=30))
    server.test_repo.insert(_doc(3, collection="coll-2", start=100),
                            now=T0 - timedelta(days=1))
    server.snapshot = server.test_repo.publish(now=T0)
    resp = server.handle_request(
        "ListRecords", {"metadataPrefix": "oai_dc", "set": "coll-2"})
    page = model.parse_list_response(resp, "oai_dc")
    assert len(page.records) == 4  # 3 items + the collection record
    assert all("coll" in r.header.identifier or "100" <= r.header.identifier
               for r in page.records)


def test_empty_window_is_no_records_match(server):
    resp = server.handle_request(
        "ListRecords", {"metadataPrefix": "oai_dc",
                        "from": "2020-01-01T00:00:00Z",
                        "until": "2020-01-02T00:00:00Z"})
    assert _error_code(resp) == "noRecordsMatch"


# ---------------------------------------------------------------------------
# Postdating visibility


def test_future_datestamps_hidden_until_due(server):
    # inserted now -> served_datestamp = now + 3h, invisible until then
    server.test_repo.insert(_doc(1, start=500), now=T0)
    server.snapshot = server.test_repo.publish(now=T0)
    resp = server.handle_request("ListRecords", {"metadataPrefix": "oai_dc"})
    page = model.parse_list_response(resp, "oai_dc")
    assert page.token.complete_list_size == 26

    server.test_clock.value = T0 + timedelta(hours=3)
    resp = server.handle_request("ListRecords", {"metadataPrefix": "oai_dc"})
    page = model.parse_list_response(resp, "oai_dc")
    assert page.token.complete_list_size == 27


def test_window_contents_stable_once_past(server):
    """A window strictly in the past returns identical responses even
    after new inserts, because new material is postdated beyond it."""
    window = {"metadataPrefix": "oai_dc",
              "from": "2006-02-28T00:00:00Z",
              "until": "2006-02-28T23:59:59Z"}
    before = server.handle_request("ListRecords", dict(window), now=T0)
    server.test_repo.insert(_doc(5, start=600), now=T0)
    server.snapshot = server.test_repo.publish(now=T0)
    after = server.handle_request("ListRecords", dict(window), now=T0)
    ids = lambda resp: sorted(
        r.header.identifier
        for r in model.parse_list_response(resp, "oai_dc").records)
    assert ids(before) == ids(after)


# ---------------------------------------------------------------------------
# Tokens


def test_token_round_trip(server):
    token = server.mint_token("oai_dc", None, None, None, 10)
    state = server.resolve_token(token)
    assert state["pos"] == 10 and state["prefix"] == "oai_dc"


def test_garbage_token_rejected(server):
    resp = server.handle_request(
        "ListRecords", {"resumptionToken": "not-a-token"})
    assert _error_code(resp) == "badResumptionToken"


def test_tampered_token_rejected(server):
    token = server.mint_token("oai_dc", None, None, None, 10)
    resp = server.handle_request(
        "ListRecords", {"resumptionToken": token[:-1] + "X"})
    assert _error_code(resp) == "badResumptionToken"


def test_token_expires_after_ttl(server):
    token = server.mint_token("oai_dc", None, None, None, 10)
    server.test_clock.value = T0 + timedelta(hours=2)
    resp = server.handle_request("ListRecords", {"resumptionToken": token})
    assert _error_code(resp) == "badResumptionToken"


@pytest.mark.parametrize("token", ["abc.%C3%A9", "%C3%A9.abc"])
def test_non_ascii_token_is_malformed(server, token):
    resp = server.handle_url(f"/oai?verb=ListRecords&resumptionToken={token}")
    assert _error_code(resp) == "badResumptionToken"
    assert "malformed token" in _root(resp).find(f"{OAI}error").text


@pytest.fixture(scope="module")
def token_server():
    return OaiServer(ServerConfig(), _pinned_snapshot(), clock=lambda: T0,
                     secret=b"token-secret")


# text that JSON escapes: quotes, backslashes, control characters, non-ASCII
_TOKEN_FIELD = st.text(
    st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u00e9\u2028\U0001f600a')
    | st.characters(), max_size=12)
_STAMP_TEXT = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31),
    timezones=st.just(UTC)).map(model.format_datestamp)


@settings(max_examples=300, deadline=None)
@given(prefix=_TOKEN_FIELD, set_spec=st.none() | _TOKEN_FIELD,
       from_=st.none() | _STAMP_TEXT, until=st.none() | _STAMP_TEXT,
       position=st.integers(0, 10**12))
def test_token_is_the_signed_json_dumps_of_its_state(
        token_server, prefix, set_spec, from_, until, position):
    token = token_server.mint_token(prefix, set_spec, from_, until, position)
    # the reference: the payload and signature as json.dumps and a fresh
    # HMAC build them
    payload = {"prefix": prefix, "set": set_spec, "from": from_,
               "until": until, "pos": position,
               "snap": token_server.snapshot.snapshot_id,
               "exp": model.format_datestamp(T0 + TOKEN_TTL)}
    blob = base64.urlsafe_b64encode(
        json.dumps(payload, sort_keys=True).encode()).decode().rstrip("=")
    sig = hmac.new(b"token-secret", blob.encode(),
                   hashlib.sha256).hexdigest()[:16]
    assert token == f"{blob}.{sig}"
    assert token_server.resolve_token(token) == payload


def test_publish_invalidates_outstanding_tokens(server):
    resp = server.handle_request("ListRecords", {"metadataPrefix": "oai_dc"})
    token = model.parse_list_response(resp, "oai_dc").token.token
    server.test_repo.insert(_doc(1, start=700), now=T0)
    server.snapshot = server.test_repo.publish(now=T0 + timedelta(seconds=1))
    resp = server.handle_request("ListRecords", {"resumptionToken": token})
    assert _error_code(resp) == "badResumptionToken"


# ---------------------------------------------------------------------------
# Self-harvest through the loopback transport and over HTTP


def test_client_can_harvest_this_server(server):
    client = OaiClient(transport=server.transport(), sleep=lambda s: None)
    result = client.harvest(server.config.base_url, "oai_dc")
    assert result.success
    assert len(result.records) == 26
    assert result.pages_fetched == 3


def test_serve_oai_over_http_equals_in_process_harvest(server, monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    httpd = serve_http(lambda path: (200, server.handle_url(path)), 0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}/oai"
    try:
        over_http = OaiClient(transport=HttpTransport(),
                              sleep=lambda s: None).harvest(base, "oai_dc")
    finally:
        httpd.shutdown()
        httpd.server_close()
    in_process = OaiClient(transport=server.transport(),
                           sleep=lambda s: None).harvest(base, "oai_dc")
    assert over_http.success and len(over_http.records) == 26
    assert over_http == in_process


# ---------------------------------------------------------------------------
# Request URLs: repeated and empty arguments


@pytest.mark.parametrize("query, code", [
    ("verb=Identify&verb=ListSets", "badVerb"),
    ("verb=ListRecords&metadataPrefix=oai_dc&metadataPrefix=marc21",
     "badArgument"),
    ("verb=ListRecords&metadataPrefix=oai_dc&set=coll-1&set=coll-1",
     "badArgument"),
    ("verb=ListRecords&metadataPrefix=oai_dc&from=", "badArgument"),
    ("verb=ListIdentifiers&metadataPrefix=", "badArgument"),
    ("verb=Frobnicate&metadataPrefix=a&metadataPrefix=b", "badVerb"),
    ("metadataPrefix=oai_dc", "badVerb"),
])
def test_handle_url_rejects_repeated_and_empty_arguments(server, query,
                                                         code):
    assert _error_code(server.handle_url(f"/oai?{query}")) == code


# ---------------------------------------------------------------------------
# List requests against a brute-force filter of the snapshot


def _stored(ident, coll, stamp, deleted):
    return StoredRecord(
        repo_identifier=ident, collection_id=coll, source_identifier=ident,
        original_raw=b"", original_format="oai_dc", provider_datestamp=T0,
        normalized_rows=(), served_datestamp=stamp,
        collection_record_id=f"oai:t:collections/{coll}", deleted=deleted)


@st.composite
def _snapshots(draw):
    # few distinct datestamps, so equal datestamps are common
    rows = draw(st.lists(st.tuples(st.integers(0, 12),
                                   st.sampled_from(["s1", "s2", "s3"]),
                                   st.booleans()),
                         max_size=30))
    records = sorted(
        (_stored(f"oai:t:{i:02d}", coll, T0 + timedelta(hours=h), deleted)
         for i, (h, coll, deleted) in enumerate(rows)),
        key=lambda r: (r.served_datestamp, r.repo_identifier))
    return ServingSnapshot(records=tuple(records), snapshot_id="snap",
                           manifest=SnapshotManifest(len(records), T0, "c"))


def _walk(srv, verb, args, now):
    """Follow a list's token chain: (headers, per-page (size, cursor), error
    code)."""
    headers, tokens = [], []
    resp = srv.handle_request(verb, args, now)
    while True:
        root = _root(resp)
        err = root.find(f"{OAI}error")
        if err is not None:
            return headers, tokens, err.get("code")
        for h in root.iter(f"{OAI}header"):
            headers.append((h.findtext(f"{OAI}identifier"),
                            h.findtext(f"{OAI}datestamp"),
                            h.get("status") == "deleted",
                            h.findtext(f"{OAI}setSpec")))
        token = root.find(f"{OAI}{verb}/{OAI}resumptionToken")
        if token is None:
            return headers, tokens, None
        tokens.append((int(token.get("completeListSize")),
                       int(token.get("cursor"))))
        if not token.text:
            return headers, tokens, None
        resp = srv.handle_request(verb, {"resumptionToken": token.text}, now)


_hours = st.none() | st.integers(-1, 14)


@settings(max_examples=300, deadline=None)
@given(snapshot=_snapshots(), verb=st.sampled_from(["ListRecords",
                                                    "ListIdentifiers"]),
       set_spec=st.none() | st.sampled_from(["s1", "s2", "unknown"]),
       from_h=_hours, until_h=_hours, now_h=st.integers(-1, 14),
       page_size=st.integers(1, 4))
def test_list_walk_equals_brute_force_filter(snapshot, verb, set_spec,
                                             from_h, until_h, now_h,
                                             page_size):
    at = lambda h: None if h is None else T0 + timedelta(hours=h)
    from_, until, now = at(from_h), at(until_h), at(now_h)
    srv = OaiServer(ServerConfig(page_size=page_size), snapshot,
                    clock=lambda: T0, secret=b"k")
    args = {"metadataPrefix": "oai_dc"}
    if set_spec is not None:
        args["set"] = set_spec
    if from_ is not None:
        args["from"] = model.format_datestamp(from_)
    if until is not None:
        args["until"] = model.format_datestamp(until)
    headers, tokens, code = _walk(srv, verb, args, now)

    if from_ is not None and until is not None and from_ > until:
        assert code == "badArgument"
        return
    expected = [
        (r.repo_identifier, model.format_datestamp(r.served_datestamp),
         r.deleted, r.collection_id)
        for r in snapshot.records
        if r.served_datestamp <= now
        and (from_ is None or r.served_datestamp >= from_)
        and (until is None or r.served_datestamp <= until)
        and (set_spec is None or r.collection_id == set_spec)]
    if not expected:
        assert (headers, tokens, code) == ([], [], "noRecordsMatch")
        return
    assert code is None
    assert headers == expected
    pages = range(0, len(expected), page_size)
    assert tokens == ([(len(expected), cursor) for cursor in pages]
                      if len(pages) > 1 else [])


class _CountingRecords(tuple):
    """A snapshot's records that count how often they are iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_pages_after_the_first_request_do_not_rescan_records(server):
    records = _CountingRecords(server.snapshot.records)
    server.snapshot = replace(server.snapshot, records=records)
    resp = server.handle_request("ListRecords", {"metadataPrefix": "oai_dc"})
    built = records.iterations
    assert built > 0

    pages = 1
    while (token := model.parse_list_response(resp, "oai_dc").token).token:
        resp = server.handle_request("ListRecords",
                                     {"resumptionToken": token.token})
        pages += 1
    target = records[-1].repo_identifier
    for verb, args in [
            ("ListIdentifiers", {"metadataPrefix": "oai_dc", "set": "coll-1",
                                 "from": "2006-02-28T00:00:00Z"}),
            ("GetRecord", {"identifier": target, "metadataPrefix": "oai_dc"}),
            ("ListMetadataFormats", {"identifier": target}),
            ("ListSets", {}), ("Identify", {})]:
        assert _error_code(server.handle_request(verb, args)) is None
    assert pages == 3
    assert records.iterations == built


# ---------------------------------------------------------------------------
# Served bytes, pinned


def _pinned_snapshot() -> ServingSnapshot:
    """Two collections, one with non-public natives and an identifier that
    needs escaping, revised and tombstoned records, and one record whose
    served datestamp is still in the future at T0."""
    repo = Repository(postdate_offset=timedelta(hours=3))
    for coll, title in (("coll-1", "Collection One"),
                        ("c&2", "Collection <Two>")):
        repo.register_collection_record(
            coll, (DcElement("title", title),), T0 - timedelta(days=30))
    repo.insert(_doc(14), now=T0 - timedelta(days=2))
    repo.insert(_doc(9, collection="c&2", start=100),
                now=T0 - timedelta(days=1), native_public=False)
    repo.insert(_doc(3, start=5), now=T0 - timedelta(hours=12))
    for coll, source in (("coll-1", "oai:src:0002"), ("coll-1", "oai:src:0006"),
                         ("c&2", "oai:src:0103")):
        repo.delete_by_source(coll, source, T0 - timedelta(hours=6))
    repo.insert(_doc(1, start=200), now=T0 - timedelta(hours=1))
    return repo.publish(now=T0)


_TOKEN_RE = re.compile(rb"<resumptionToken[^>]*>([^<]+)</resumptionToken>")

# SHA-256 of every response of the walk below, in order
PINNED_SHA256 = (
    "63b423190663834be234b73a65e27b32a33065253fb1ced319151c771c825706")


def test_served_bytes_pinned():
    snapshot = _pinned_snapshot()
    srv = OaiServer(ServerConfig(page_size=4), snapshot, clock=lambda: T0,
                    secret=b"pinned-secret")
    hasher = hashlib.sha256()

    def ask(verb, args):
        resp = srv.handle_request(verb, args)
        hasher.update(resp)
        return resp

    for verb in ("Identify", "ListSets", "ListMetadataFormats"):
        ask(verb, {})
    windows = ({}, {"set": "coll-1"}, {"set": "c&2"},
               {"from": "2006-02-28T06:00:00Z", "until": "2006-03-01T00:00:00Z"})
    for verb in ("ListRecords", "ListIdentifiers"):
        for prefix in EXPORT_FORMATS:
            for window in windows:
                resp = ask(verb, {"metadataPrefix": prefix, **window})
                while match := _TOKEN_RE.search(resp):
                    resp = ask(verb,
                               {"resumptionToken": match.group(1).decode()})
    for rec in snapshot.records:
        for prefix in EXPORT_FORMATS:
            ask("GetRecord", {"identifier": rec.repo_identifier,
                              "metadataPrefix": prefix})
    ask("GetRecord", {"identifier": "oai:nowhere:0", "metadataPrefix": "oai_dc"})
    ask("ListRecords", {"metadataPrefix": "marc21"})
    assert hasher.hexdigest() == PINNED_SHA256


def test_index_headers_are_serialize_header():
    snapshot = _pinned_snapshot()
    deleted = next(r for r in snapshot.records if r.deleted)
    live = next(r for r in snapshot.records
                if not r.deleted and r.collection_id == "c&2")
    for rec in (deleted, live):
        expected = model.serialize_header(RecordHeader(
            rec.repo_identifier, rec.served_datestamp, (rec.collection_id,),
            rec.deleted)).encode()
        assert snapshot.header(rec.repo_identifier) == expected
        listing, lo, hi = snapshot.select(rec.collection_id,
                                          rec.served_datestamp,
                                          rec.served_datestamp)
        assert expected in listing.headers[lo:hi]
