"""Provider validation: each injected fault trips exactly its named check."""

import hashlib
import json
import re
from datetime import datetime, timedelta, timezone

import pytest

from mdpipe import model, sim
from mdpipe.sim import (
    FaultSpec,
    SimClock,
    SimProvider,
    SimRecordScript,
    SimScenario,
    SimTransport,
    TimelineEvent,
    make_scenario,
)
from mdpipe.validator import CHECK_IDS, validate_provider

UTC = timezone.utc
BASE = "http://sim.invalid/oai"
START = datetime(2005, 1, 1, tzinfo=UTC)
NOW = datetime(2005, 2, 1, tzinfo=UTC)


def _report(scenario):
    provider = SimProvider(scenario, SimClock(NOW))
    return validate_provider(BASE, SimTransport(provider))


def test_clean_provider_passes_all_checks():
    report = _report(make_scenario(25))
    assert report.verdict == "Pass"
    assert {c.check_id for c in report.checks} == set(CHECK_IDS)
    assert all(c.passed for c in report.checks)
    assert report.records_checked >= 25


def test_report_is_deterministic():
    a = _report(make_scenario(25)).to_dict()
    b = _report(make_scenario(25)).to_dict()
    assert a == b


def test_unreachable_provider_single_transport_failure():
    report = _report(make_scenario(25, faults=(FaultSpec("Disconnect"),)))
    assert report.verdict == "Fail"
    assert report.transport_error is not None
    assert report.checks == ()


def test_identify_missing_field_fails_identify_check():
    report = _report(make_scenario(
        25, faults=(FaultSpec("IdentifyMissingField"),)))
    assert "identify-well-formed" in report.failed_checks()


def test_invalid_utf8_fails_utf8_strict():
    report = _report(make_scenario(
        25, faults=(FaultSpec("InvalidUtf8", verb="ListRecords"),)))
    assert "utf8-strict" in report.failed_checks()


def test_schema_invalid_record_fails_schema_valid():
    report = _report(make_scenario(
        25, faults=(FaultSpec("SchemaInvalidRecord", verb="ListRecords"),)))
    assert "schema-valid" in report.failed_checks()


def test_wrong_datestamp_fails_datestamp_format():
    report = _report(make_scenario(
        25, faults=(FaultSpec("WrongDatestamp", verb="ListRecords"),)))
    assert "datestamp-format" in report.failed_checks()


def test_broken_token_fails_token_roundtrip():
    report = _report(make_scenario(
        25, faults=(FaultSpec("BrokenToken", verb="ListRecords"),)))
    assert "token-roundtrip" in report.failed_checks()


def test_non_idempotent_window_fails_window_idempotency():
    report = _report(make_scenario(
        25, faults=(FaultSpec("NonIdempotentWindow",
                              verb="ListRecords"),)))
    assert "window-idempotency" in report.failed_checks()


def test_forgotten_deletes_fails_deleted_policy():
    scripts = list(make_scenario(10).records)
    victim = scripts[3]
    scripts[3] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(START + timedelta(days=3), "delete"),))
    scenario = SimScenario(records=tuple(scripts),
                           deleted_policy="persistent", page_size=10,
                           faults=(FaultSpec("ForgottenDeletes"),))
    report = _report(scenario)
    assert "deleted-policy" in report.failed_checks()


def _tombstone_scenario(**kwargs):
    scripts = list(make_scenario(10).records)
    victim = scripts[3]
    scripts[3] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(START + timedelta(days=3), "delete"),))
    return SimScenario(records=tuple(scripts), **kwargs)


def test_honest_deletes_pass_deleted_policy():
    report = _report(_tombstone_scenario(deleted_policy="persistent",
                                         page_size=10))
    assert report.verdict == "Pass"


class _Rewriting:
    """A transport over the simulator that rewrites each response with
    ``rewrite(url, body)`` and keeps the URLs asked for."""

    def __init__(self, scenario, rewrite=lambda url, body: body):
        self.inner = SimTransport(SimProvider(scenario, SimClock(NOW)))
        self.rewrite = rewrite
        self.urls = []

    def get(self, url):
        self.urls.append(url)
        return self.rewrite(url, self.inner.get(url))


def test_get_record_denying_a_tombstone_fails_deleted_policy():
    denial = (f'<?xml version="1.0" encoding="UTF-8"?>'
              f'<OAI-PMH xmlns="{model.OAI_NS}">'
              "<responseDate>2005-02-01T00:00:00Z</responseDate>"
              f"<request>{BASE}</request>"
              '<error code="idDoesNotExist">no such record</error>'
              "</OAI-PMH>").encode()
    transport = _Rewriting(
        _tombstone_scenario(deleted_policy="persistent", page_size=10),
        lambda url, body: denial if "verb=GetRecord" in url else body)
    report = validate_provider(BASE, transport)
    assert report.failed_checks() == ("deleted-policy",)
    assert "GetRecord denies oai:sim:0003" in next(
        c.detail for c in report.checks if c.check_id == "deleted-policy")


@pytest.mark.parametrize("fault", ["Disconnect", "Http5xx"])
def test_transport_failure_in_a_probe_is_the_reports_transport_error(fault):
    # the GetRecord probe of a persistent tombstone never gets an answer
    report = _report(_tombstone_scenario(
        deleted_policy="persistent", page_size=10,
        faults=(FaultSpec(fault, verb="GetRecord"),)))
    assert report.verdict == "Fail"
    assert report.transport_error is not None


def test_non_integer_cursor_fails_schema_valid():
    transport = _Rewriting(make_scenario(25), lambda url, body: body.replace(
        b'cursor="0"', b'cursor="x"'))
    report = validate_provider(BASE, transport)
    assert "schema-valid" in report.failed_checks()


def test_bad_identifier_fails_identifier_encoding():
    from mdpipe.model import DcElement
    scenario = SimScenario(records=(
        SimRecordScript("not a uri at all", (
            TimelineEvent(START, "insert",
                          (DcElement("title", "T"),)),)),))
    report = _report(scenario)
    assert "identifier-encoding" in report.failed_checks()


@pytest.mark.parametrize("tags", [(b"datestamp",),
                                  (b"datestamp", b"earliestDatestamp")])
def test_day_granular_datestamps_fail_datestamp_format(tags):
    # legal in OAI-PMH 2.0, but the harvester's grammar rejects them, so
    # every harvest of this provider would fail
    def to_days(url, body):
        for tag in tags:
            body = re.sub(rb"<%s>(\d{4}-\d\d-\d\d)T[^<]*</%s>" % (tag, tag),
                          rb"<%s>\1</%s>" % (tag, tag), body)
        return body
    report = validate_provider(BASE, _Rewriting(make_scenario(25), to_days))
    assert report.verdict == "Fail"
    assert "datestamp-format" in report.failed_checks()


def test_empty_provider_passes():
    # noRecordsMatch is the spec's answer for an empty list, and the
    # harvester stores it as a successful harvest of 0 records
    report = _report(make_scenario(0))
    assert report.verdict == "Pass"
    assert report.records_checked == 0


def test_to_dict_round_trips_fields():
    d = _report(make_scenario(5)).to_dict()
    assert d["verdict"] == "Pass"
    assert len(d["checks"]) == len(CHECK_IDS)
    assert d["transport_error"] is None


# SHA-256 of each report's to_dict() and the URLs it asked for, over the
# matrix below
PINNED_SHA256 = (
    "307b0da77d5d007cae6482d5317de866dabcace6552ae4103d585ce870d31578")


def test_validator_reports_pinned():
    hasher = hashlib.sha256()
    fault_sets = [()] + [(FaultSpec(f),) for f in sorted(sim.FAULTS)] + [
        (FaultSpec(f, verb="ListRecords", page=2),) for f in sorted(sim.FAULTS)]
    for faults in fault_sets:
        for policy in ("persistent", "transient"):
            for max_pages in (30, 1):
                transport = _Rewriting(_tombstone_scenario(
                    deleted_policy=policy, page_size=4, faults=faults))
                report = validate_provider(BASE, transport,
                                           max_pages=max_pages)
                hasher.update(json.dumps([report.to_dict(), transport.urls],
                                         sort_keys=True).encode())
    assert hasher.hexdigest() == PINNED_SHA256
