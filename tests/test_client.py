"""Harvest client: failure taxonomy, retries, paging, and watermarks."""

import socket
import threading
from datetime import datetime, timedelta, timezone

import pytest

from mdpipe import model, sim
from mdpipe.client import (
    HarvestResult,
    HttpTransport,
    OaiClient,
    classify_failure,
)
from mdpipe.errors import (
    FailureCategory,
    HttpStatusError,
    MalformedDatestamp,
    OaiProtocolError,
    SchemaViolation,
    TransportError,
    WellFormednessError,
)
from mdpipe.server import serve_http

UTC = timezone.utc
BASE = "http://test.invalid/oai"


class ScriptTransport:
    """Returns canned responses (or raises canned exceptions) in order,
    keyed by nothing: each get() pops the next script entry."""

    def __init__(self, script):
        self.script = list(script)
        self.urls = []

    def get(self, url):
        self.urls.append(url)
        item = self.script.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item


def _page_xml(idents, token=None, response_date="2006-01-01T00:00:00Z"):
    records = "".join(
        f"<record><header><identifier>{i}</identifier>"
        f"<datestamp>2005-06-01T00:00:0{n % 10}Z</datestamp></header>"
        "<metadata>"
        f'<oai_dc:dc xmlns:oai_dc="{model.OAI_DC_NS}" '
        f'xmlns:dc="{model.DC_NS}">'
        f"<dc:title>T {i}</dc:title></oai_dc:dc>"
        "</metadata></record>"
        for n, i in enumerate(idents))
    token_el = (f"<resumptionToken>{token}</resumptionToken>"
                if token is not None else "")
    return (
        '<?xml version="1.0"?>'
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        f"<responseDate>{response_date}</responseDate>"
        f"<request verb=\"ListRecords\">{BASE}</request>"
        f"<ListRecords>{records}{token_el}</ListRecords></OAI-PMH>"
    ).encode()


def _error_xml(code, message=""):
    return (
        '<?xml version="1.0"?>'
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        "<responseDate>2006-01-01T00:00:00Z</responseDate>"
        f"<request>{BASE}</request>"
        f'<error code="{code}">{message}</error></OAI-PMH>'
    ).encode()


def _client(script):
    return OaiClient(transport=ScriptTransport(script), sleep=lambda s: None)


# ---------------------------------------------------------------------------
# Failure taxonomy


@pytest.mark.parametrize("error,expected", [
    (TransportError("connection refused"), FailureCategory.TRANSIENT),
    (HttpStatusError(503), FailureCategory.TRANSIENT),
    (HttpStatusError(500), FailureCategory.TRANSIENT),
    (HttpStatusError(404), FailureCategory.PROTOCOL_VIOLATION),
    (HttpStatusError(400), FailureCategory.PROTOCOL_VIOLATION),
    (OaiProtocolError("badResumptionToken"),
     FailureCategory.PROTOCOL_VIOLATION),
    (OaiProtocolError("badArgument"), FailureCategory.PROTOCOL_VIOLATION),
    (WellFormednessError("bad utf-8", 12), FailureCategory.DATA_FORMAT),
    (SchemaViolation("unexpected element"), FailureCategory.DATA_FORMAT),
    (MalformedDatestamp("junk", 3), FailureCategory.DATA_FORMAT),
    (RuntimeError("anything else"), FailureCategory.PROTOCOL_VIOLATION),
])
def test_classify_failure_total_mapping(error, expected):
    assert classify_failure(error) is expected


def test_classify_failure_deterministic():
    err = HttpStatusError(503)
    assert all(classify_failure(err) is FailureCategory.TRANSIENT
               for _ in range(5))


# ---------------------------------------------------------------------------
# Retries


def test_transient_errors_retried_with_exponential_backoff():
    delays = []
    client = OaiClient(
        transport=ScriptTransport([
            TransportError("reset"), TransportError("reset"),
            _page_xml(["oai:t:1"])]),
        sleep=delays.append)
    result = client.harvest(BASE, "oai_dc")
    assert result.success
    assert [r.header.identifier for r in result.records] == ["oai:t:1"]
    assert delays == [30.0, 60.0]


def test_retries_exhausted_surfaces_transient_failure():
    transport = ScriptTransport([TransportError("refused")] * 4)
    client = OaiClient(transport=transport, sleep=lambda s: None)
    result = client.harvest(BASE, "oai_dc")
    assert not result.success
    assert result.category is FailureCategory.TRANSIENT
    assert len(transport.urls) == 4


def test_protocol_errors_not_retried():
    transport = ScriptTransport([HttpStatusError(404)])
    client = OaiClient(transport=transport, sleep=lambda s: None)
    result = client.harvest(BASE, "oai_dc")
    assert not result.success
    assert result.category is FailureCategory.PROTOCOL_VIOLATION
    assert len(transport.urls) == 1


# ---------------------------------------------------------------------------
# Paged harvesting


def test_harvest_follows_token_chain():
    idents = [f"oai:t:{i:03d}" for i in range(25)]
    result = _client([
        _page_xml(idents[:10], token="tok1"),
        _page_xml(idents[10:20], token="tok2"),
        _page_xml(idents[20:], token=None,
                  response_date="2006-01-01T00:05:00Z"),
    ]).harvest(BASE, "oai_dc")
    assert result.success
    assert result.pages_fetched == 3
    assert [r.header.identifier for r in result.records] == idents
    assert result.completed_through == datetime(2006, 1, 1, 0, 5, tzinfo=UTC)


def test_harvest_empty_closing_token_terminates():
    result = _client([
        _page_xml(["oai:t:1"], token="tok1"),
        _page_xml(["oai:t:2"], token=""),
    ]).harvest(BASE, "oai_dc")
    assert result.success and len(result.records) == 2


def test_harvest_non_integer_cursor_is_data_format():
    page = _page_xml(["oai:t:1"], token="tok1").replace(
        b"<resumptionToken>", b'<resumptionToken cursor="x">')
    result = _client([page]).harvest(BASE, "oai_dc")
    assert not result.success
    assert result.category is FailureCategory.DATA_FORMAT


def test_harvest_no_records_match_is_empty_success():
    result = _client([_error_xml("noRecordsMatch")]).harvest(BASE, "oai_dc")
    assert result.success and result.records == ()


def test_harvest_failure_mid_chain_keeps_no_watermark():
    result = _client([
        _page_xml(["oai:t:1"], token="tok1"),
        _error_xml("badResumptionToken"),
    ]).harvest(BASE, "oai_dc")
    assert not result.success
    assert result.category is FailureCategory.PROTOCOL_VIOLATION
    assert result.completed_through is None
    assert len(result.records) == 1  # partial page retained for diagnostics


def test_harvest_duplicate_identifier_last_occurrence_wins(caplog):
    result = _client([
        _page_xml(["oai:t:1", "oai:t:2"], token="tok1"),
        _page_xml(["oai:t:1"], token=None),
    ]).harvest(BASE, "oai_dc")
    assert result.success
    idents = [r.header.identifier for r in result.records]
    assert idents == ["oai:t:2", "oai:t:1"]


def test_incremental_requires_watermark():
    with pytest.raises(ValueError):
        _client([]).harvest(BASE, "oai_dc", mode="incremental")


def test_incremental_sends_from_argument():
    transport = ScriptTransport([_page_xml(["oai:t:1"])])
    client = OaiClient(transport=transport, sleep=lambda s: None)
    client.harvest(BASE, "oai_dc", mode="incremental",
                   since=datetime(2005, 6, 1, 12, 0, 0, tzinfo=UTC))
    assert "from=2005-06-01T12%3A00%3A00Z" in transport.urls[0]


def test_list_records_rejects_inverted_window():
    with pytest.raises(ValueError):
        list(_client([]).list_records(
            BASE, "oai_dc",
            from_=datetime(2006, 1, 2, tzinfo=UTC),
            until=datetime(2006, 1, 1, tzinfo=UTC)))


def test_result_invariant_failure_cannot_advance_watermark():
    with pytest.raises(ValueError):
        HarvestResult(records=(), pages_fetched=1, success=False,
                      category=FailureCategory.TRANSIENT,
                      completed_through=datetime(2006, 1, 1, tzinfo=UTC))


# ---------------------------------------------------------------------------
# HttpTransport against the simulator served on 127.0.0.1


@pytest.fixture
def serve(monkeypatch):
    """Start serving a SimProvider on a free loopback port; returns its base
    URL. Servers are shut down when the test ends."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    servers = []

    def start(provider):
        server = serve_http(provider.handle_url, 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/oai"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _sim_provider(faults=()):
    return sim.SimProvider(sim.make_scenario(25, faults=faults),
                           sim.SimClock(datetime(2005, 2, 1, tzinfo=UTC)))


def test_http_harvest_equals_sim_harvest(serve):
    base = serve(_sim_provider())
    over_http = OaiClient(transport=HttpTransport(),
                          sleep=lambda s: None).harvest(base, "oai_dc")
    in_process = OaiClient(transport=sim.SimTransport(_sim_provider()),
                           sleep=lambda s: None).harvest(base, "oai_dc")
    assert over_http.success and len(over_http.records) == 25
    assert over_http == in_process


def test_http_5xx_is_status_error(serve):
    base = serve(_sim_provider((sim.FaultSpec("Http5xx"),)))
    with pytest.raises(HttpStatusError) as info:
        HttpTransport().get(f"{base}?verb=Identify")
    assert info.value.status == 503
    assert classify_failure(info.value) is FailureCategory.TRANSIENT


def test_http_disconnect_is_transport_error(serve):
    base = serve(_sim_provider((sim.FaultSpec("Disconnect"),)))
    with pytest.raises(TransportError) as info:
        HttpTransport().get(f"{base}?verb=Identify")
    assert not isinstance(info.value, HttpStatusError)


def test_http_closed_port_is_transport_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransportError) as info:
        HttpTransport().get(f"http://127.0.0.1:{port}/oai?verb=Identify")
    assert not isinstance(info.value, HttpStatusError)


def test_http_malformed_url_is_transport_error():
    with pytest.raises(TransportError):
        HttpTransport().get("not a url")
