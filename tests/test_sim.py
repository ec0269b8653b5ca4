"""Provider simulator: ground truth, clock discipline, and every fault's
documented diagnosis."""

import hashlib
import re
from datetime import datetime, timedelta, timezone
from urllib.parse import urlencode
from xml.sax.saxutils import unescape

import pytest

from mdpipe import model, sim
from mdpipe.client import OaiClient
from mdpipe.errors import (
    FailureCategory,
    SchemaViolation,
    TimeRegression,
    TransportError,
)
from mdpipe.model import DcElement
from mdpipe.sim import (
    FaultSpec,
    SimClock,
    SimProvider,
    SimScenario,
    SimRecordScript,
    SimTransport,
    TimelineEvent,
    make_scenario,
)

UTC = timezone.utc
BASE = "http://sim.invalid/oai"
START = datetime(2005, 1, 1, tzinfo=UTC)
NOW = datetime(2005, 2, 1, tzinfo=UTC)


def _provider(scenario, now=NOW):
    return SimProvider(scenario, SimClock(now))


def _client(provider):
    return OaiClient(transport=SimTransport(provider), sleep=lambda s: None)


def _identify(provider):
    return SimTransport(provider).get(f"{BASE}?verb=Identify")


# ---------------------------------------------------------------------------
# Clean behavior and ground truth


def test_clean_harvest_matches_ground_truth():
    prov = _provider(make_scenario(25))
    result = _client(prov).harvest(BASE, "oai_dc")
    assert result.success and result.pages_fetched == 3
    harvested = {r.header.identifier for r in result.records}
    assert harvested == prov.live_identifiers()
    assert len(harvested) == 25


def test_state_folds_timeline_up_to_clock():
    script = SimRecordScript("oai:sim:x", (
        TimelineEvent(START, "insert", (DcElement("title", "v1"),)),
        TimelineEvent(START + timedelta(days=5), "update",
                      (DcElement("title", "v2"),)),
        TimelineEvent(START + timedelta(days=10), "delete"),
    ))
    scenario = SimScenario(records=(script,))
    prov = _provider(scenario, now=START + timedelta(days=6))
    rec = prov.state()["oai:sim:x"]
    assert not rec.deleted and rec.elements[0].value == "v2"
    prov.advance(START + timedelta(days=11))
    assert prov.state()["oai:sim:x"].deleted


def _ground_truth_window(provider, from_, until):
    """Identifiers of the records, live or deleted, whose latest event at
    the provider's clock falls within ``[from_, until]``."""
    return {i for i, r in provider.state().items()
            if from_ <= r.datestamp <= until}


def test_windowed_harvest_matches_ground_truth_window():
    prov = _provider(make_scenario(25))
    from_ = START + timedelta(minutes=10)
    until = START + timedelta(minutes=19)
    records = list(_client(prov).list_records(BASE, "oai_dc",
                                              from_=from_, until=until))
    assert {r.header.identifier for r in records} == \
        _ground_truth_window(prov, from_, until)
    assert len(records) == 10


def test_identify_reflects_scenario():
    prov = _provider(make_scenario(5, deleted_policy="no"))
    info = model.parse_identify(_identify(prov))
    assert info.deleted_policy == "no"
    assert model.parse_datestamp(info.earliest_datestamp) == START
    assert info.granularity == model.GRANULARITY_SECOND


def test_clock_never_goes_backwards():
    clock = SimClock(NOW)
    with pytest.raises(TimeRegression):
        clock.advance_to(NOW - timedelta(seconds=1))


def test_timeline_must_be_strictly_ordered():
    with pytest.raises(ValueError):
        SimRecordScript("oai:sim:x", (
            TimelineEvent(START, "insert", (DcElement("title", "a"),)),
            TimelineEvent(START, "update", (DcElement("title", "b"),)),
        ))


def test_scenario_json_round_trip(tmp_path):
    scenario = make_scenario(
        8, faults=(FaultSpec("Http5xx", verb="ListRecords", count=2),))
    path = tmp_path / "scenario.json"
    scenario.save(path)
    assert SimScenario.load(path) == scenario


def test_unknown_fault_name_rejected():
    with pytest.raises(ValueError):
        FaultSpec("MeltDown")


# ---------------------------------------------------------------------------
# Faults -> documented diagnosis


def _failed_harvest(faults, n=25):
    prov = _provider(make_scenario(n, faults=faults))
    return _client(prov).harvest(BASE, "oai_dc")


def test_disconnect_is_transient():
    result = _failed_harvest((FaultSpec("Disconnect"),))
    assert not result.success
    assert result.category is FailureCategory.TRANSIENT


def test_http_5xx_is_transient():
    result = _failed_harvest((FaultSpec("Http5xx"),))
    assert not result.success
    assert result.category is FailureCategory.TRANSIENT


def test_bounded_disconnect_absorbed_by_retries():
    # two failures then clean service: the client's retry loop rides it out
    prov = _provider(make_scenario(
        25, faults=(FaultSpec("Disconnect", count=2),)))
    result = _client(prov).harvest(BASE, "oai_dc")
    assert result.success and len(result.records) == 25


def test_invalid_utf8_is_data_format():
    result = _failed_harvest((FaultSpec("InvalidUtf8", verb="ListRecords"),))
    assert not result.success
    assert result.category is FailureCategory.DATA_FORMAT
    assert "utf-8" in result.failure_detail.lower()


def test_wrong_datestamp_is_data_format():
    result = _failed_harvest(
        (FaultSpec("WrongDatestamp", verb="ListRecords"),))
    assert not result.success
    assert result.category is FailureCategory.DATA_FORMAT


def test_page_targeted_fault_spares_earlier_pages():
    result = _failed_harvest(
        (FaultSpec("WrongDatestamp", verb="ListRecords", page=2),))
    assert not result.success
    assert result.pages_fetched == 1  # only the clean first page parsed
    assert len(result.records) == 10


def test_schema_invalid_record_is_data_format():
    result = _failed_harvest(
        (FaultSpec("SchemaInvalidRecord", verb="ListRecords"),))
    assert not result.success
    assert result.category is FailureCategory.DATA_FORMAT


def test_broken_token_is_protocol_violation():
    result = _failed_harvest((FaultSpec("BrokenToken", verb="ListRecords"),))
    assert not result.success
    assert result.category is FailureCategory.PROTOCOL_VIOLATION


def test_identify_missing_field_is_protocol_violation():
    # no harvest sends Identify: the validator's identify-well-formed
    # check is where this fault is diagnosed (tests/test_validator.py)
    prov = _provider(make_scenario(
        5, faults=(FaultSpec("IdentifyMissingField"),)))
    with pytest.raises(SchemaViolation, match="repositoryName"):
        model.parse_identify(_identify(prov))


def test_non_idempotent_window_drops_record_on_repeat():
    prov = _provider(make_scenario(
        25, faults=(FaultSpec("NonIdempotentWindow"),)))
    client = _client(prov)
    from_ = START
    first = {r.header.identifier
             for r in client.list_records(BASE, "oai_dc", from_=from_)}
    second = {r.header.identifier
              for r in client.list_records(BASE, "oai_dc", from_=from_)}
    assert len(first) == 25
    assert first - second  # the repeated identical window lost a record


def test_splash_page_urls_collapse_identifiers():
    prov = _provider(make_scenario(
        10, faults=(FaultSpec("SplashPageUrls"),)))
    records = list(_client(prov).list_records(BASE, "oai_dc"))
    urls = {el.value for r in records for el in r.elements
            if el.name == "identifier"}
    assert urls == {sim.SPLASH_URL}


@pytest.mark.parametrize("verb, page, splashed", [
    (None, None, (10, 10, 1)),
    ("ListRecords", None, (10, 10, 0)),
    ("ListRecords", 2, (0, 10, 0)),
    ("GetRecord", None, (0, 0, 1)),
    ("GetRecord", 2, (0, 0, 0)),
])
def test_splash_page_urls_keep_their_verb_and_page(verb, page, splashed):
    # splashed: records served with the splash URL on list pages 1 and 2,
    # and in one GetRecord
    prov = _provider(make_scenario(
        20, faults=(FaultSpec("SplashPageUrls", verb=verb, page=page),)))
    splash = sim.SPLASH_URL.encode()
    _, first = prov.handle({"verb": "ListRecords",
                            "metadataPrefix": "oai_dc"})
    token = model.parse_list_response(first, "oai_dc").token.token
    _, second = prov.handle({"verb": "ListRecords",
                             "resumptionToken": token})
    _, single = prov.handle({"verb": "GetRecord",
                             "identifier": "oai:sim:0003",
                             "metadataPrefix": "oai_dc"})
    assert (first.count(splash), second.count(splash),
            single.count(splash)) == splashed


# ---------------------------------------------------------------------------
# ForgottenDeletes: tombstones silently missing from windowed harvests


def _delete_scenario(faults=()):
    scripts = list(make_scenario(10).records)
    # record 3 is deleted after the initial inserts
    victim = scripts[3]
    scripts[3] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(START + timedelta(days=3), "delete"),))
    return SimScenario(records=tuple(scripts), deleted_policy="persistent",
                       page_size=10, faults=tuple(faults))


def test_persistent_policy_serves_tombstones():
    prov = _provider(_delete_scenario())
    records = list(_client(prov).list_records(
        BASE, "oai_dc", from_=START + timedelta(days=1)))
    assert [r.header.identifier for r in records] == ["oai:sim:0003"]
    assert records[0].header.deleted


def test_forgotten_deletes_omits_tombstones_from_windows():
    prov = _provider(_delete_scenario(
        faults=(FaultSpec("ForgottenDeletes"),)))
    windowed = list(_client(prov).list_records(
        BASE, "oai_dc", from_=START + timedelta(days=1)))
    assert windowed == []  # the delete never shows up incrementally
    full = list(_client(prov).list_records(BASE, "oai_dc"))
    tombstones = [r for r in full if r.header.deleted]
    assert [r.header.identifier for r in tombstones] == ["oai:sim:0003"]


def test_forgotten_deletes_get_record_claims_nonexistence():
    prov = _provider(_delete_scenario(
        faults=(FaultSpec("ForgottenDeletes"),)))
    status, body = prov.handle(
        {"verb": "GetRecord", "identifier": "oai:sim:0003",
         "metadataPrefix": "oai_dc"})
    assert b"idDoesNotExist" in body


# ---------------------------------------------------------------------------
# Served bytes, pinned

_TOKEN_RE = re.compile(rb"<resumptionToken[^>]*>([^<]+)</resumptionToken>")

# SHA-256 of every response of the walk below, in order
PINNED_SHA256 = (
    "92722ef1a5366f54d3462f28d94c3e13fbc2b29f4416dffa4bf8ffaa71332d7a")


def _pinned_scenario(prefix, policy, faults):
    scripts = list(make_scenario(9).records)
    victim = scripts[2]
    scripts[2] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(START + timedelta(days=2), "delete"),))
    scripts.append(SimRecordScript("oai:sim:&<\"'é", (TimelineEvent(
        START + timedelta(days=3), "insert",
        (DcElement("title", "A & <B> \"c\" 'd' é"),
         DcElement("subject", "s", qualifier="q&", scheme="<S>",
                   language="é"))),)))
    return SimScenario(records=tuple(scripts), deleted_policy=policy,
                       page_size=4, faults=faults, format_prefix=prefix,
                       repository_name="Sim & <\"Co\">")


def _pinned_walk(provider, hasher):
    transport = SimTransport(provider)

    def ask(params):
        url = f"{BASE}?{urlencode(params)}"
        try:
            body = transport.get(url)
        except TransportError as exc:
            body = repr(exc).encode()
        hasher.update(url.encode() + b"\0" + body + b"\0")
        return body

    for verb in ("Identify", "ListMetadataFormats", "ListSets", "Nope"):
        ask({"verb": verb})
    prefix = provider.scenario.format_prefix
    for window in ({}, {"from": "2005-01-01T00:04:00Z"},
                   {"from": "2030-01-01T00:00:00Z"}, {"from": "bad"}):
        body = ask({"verb": "ListRecords", "metadataPrefix": prefix,
                    **window})
        while match := _TOKEN_RE.search(body):
            body = ask({"verb": "ListRecords",
                        "resumptionToken": unescape(match.group(1).decode())})
    for ident in ("oai:sim:0000", "oai:sim:0002", "oai:sim:&<\"'é",
                  "oai:nowhere:0"):
        ask({"verb": "GetRecord", "identifier": ident,
             "metadataPrefix": prefix})


def test_sim_bytes_pinned():
    hasher = hashlib.sha256()
    fault_sets = [()] + [(FaultSpec(f),) for f in sorted(sim.FAULTS)] + [
        (FaultSpec("BrokenToken", page=2), FaultSpec("WrongDatestamp")),
        (FaultSpec("InvalidUtf8", page=2, payload=b"\xff"),
         FaultSpec("Http5xx", count=1))]
    for prefix in ("oai_dc", "nsdl_dc"):
        for policy in ("persistent", "transient"):
            for faults in fault_sets:
                provider = SimProvider(
                    _pinned_scenario(prefix, policy, faults), SimClock(NOW),
                    base_url="http://sim.invalid/oai?a=1&b=<2>")
                _pinned_walk(provider, hasher)
    assert hasher.hexdigest() == PINNED_SHA256
