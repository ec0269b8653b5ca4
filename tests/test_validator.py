"""Provider validation: each injected fault trips exactly its named check."""

from datetime import datetime, timedelta, timezone

import pytest

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
from mdpipe.validator import CHECK_IDS, WARNING, validate_provider

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


def test_honest_deletes_pass_deleted_policy():
    scripts = list(make_scenario(10).records)
    victim = scripts[3]
    scripts[3] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(START + timedelta(days=3), "delete"),))
    report = _report(SimScenario(records=tuple(scripts),
                                 deleted_policy="persistent", page_size=10))
    assert report.verdict == "Pass"


def test_bad_identifier_fails_identifier_encoding():
    from mdpipe.model import DcElement
    scenario = SimScenario(records=(
        SimRecordScript("not a uri at all", (
            TimelineEvent(START, "insert",
                          (DcElement("title", "T"),)),)),))
    report = _report(scenario)
    assert "identifier-encoding" in report.failed_checks()


def test_verdict_fails_only_on_error_severity():
    report = _report(make_scenario(25))
    assert report.passed
    assert not [c for c in report.checks
                if not c.passed and c.severity == WARNING]


def test_to_dict_round_trips_fields():
    d = _report(make_scenario(5)).to_dict()
    assert d["verdict"] == "Pass"
    assert len(d["checks"]) == len(CHECK_IDS)
    assert d["transport_error"] is None
