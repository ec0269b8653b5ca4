"""Pre-registration provider validation.

Runs eight named conformance checks against a live endpoint and produces a
deterministic report. A provider must earn a passing verdict before a
collection pointing at it can be registered. The walk is bounded (first
pages plus one re-probe of the start page) so validation stays cheap even
for large providers.

Every check passes or fails, and any failed check fails the verdict.
Datestamps are judged by ``parse_datestamp``, the harvester's own grammar,
so a provider whose datestamps the harvester cannot read cannot pass. Every
probe after Identify, GetRecord included, reads its response through one
``_Walker.fetch``. A page of the walk that fails to parse is filed under the
check it breaks (``_Walker.grade``); a probe that cannot read its answer
fails its own check. A transport failure in any probe is the report's
``transport_error``, not a check result.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlencode

from . import model
from .errors import (
    BadRecordDatestamp,
    OaiProtocolError,
    SchemaViolation,
    TransportError,
    WellFormednessError,
)
from .model import MetadataRecord, format_datestamp

CHECK_IDS = (
    "identify-well-formed",
    "utf8-strict",
    "schema-valid",
    "datestamp-format",
    "token-roundtrip",
    "window-idempotency",
    "identifier-encoding",
    "deleted-policy",
)

#: what a probe's answer raises; a page that fails to parse raises a ValueError
_PROBE_ERRORS = (OaiProtocolError, ValueError)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    base_url: str
    checks: tuple[CheckResult, ...]
    transport_error: str | None = None
    pages_walked: int = 0
    records_checked: int = 0

    @property
    def passed(self) -> bool:
        return (self.transport_error is None
                and all(c.passed for c in self.checks))

    @property
    def verdict(self) -> str:
        return "Pass" if self.passed else "Fail"

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(c.check_id for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "base_url": self.base_url,
            "verdict": self.verdict,
            "transport_error": self.transport_error,
            "pages_walked": self.pages_walked,
            "records_checked": self.records_checked,
            "checks": [
                {"check_id": c.check_id, "passed": c.passed,
                 "detail": c.detail}
                for c in self.checks],
        }


class _Walker:
    """Collects failures across a bounded ListRecords walk and the probes
    after it: each failed check id maps to the first detail filed for it."""

    def __init__(self, transport, base_url: str, format_prefix: str):
        self.transport = transport
        self.base_url = base_url
        self.prefix = format_prefix
        self.failures: dict[str, str] = {}
        self.records: list[MetadataRecord] = []
        self.pages = 0

    def fail(self, check_id: str, detail: str) -> None:
        self.failures.setdefault(check_id, detail)

    def fetch(self, params: dict[str, str]) -> model.ListResponse:
        """One probe: the request for ``params``, parsed."""
        raw = self.transport.get(f"{self.base_url}?{urlencode(params)}")
        return model.parse_list_response(raw, self.prefix)

    def first_page(self, params: dict[str, str]) -> list[str]:
        """The identifiers on a list's first page; none on noRecordsMatch."""
        try:
            page = self.fetch(params)
        except OaiProtocolError as exc:
            if exc.code == "noRecordsMatch":
                return []
            raise
        return [rec.header.identifier for rec in page.records]

    def grade(self, exc: ValueError) -> None:
        """File a page that failed to parse under the check it breaks.
        ``read_xml`` chains the UnicodeDecodeError of invalid UTF-8."""
        if isinstance(exc, BadRecordDatestamp):
            self.fail("datestamp-format", str(exc))
        elif isinstance(exc.__cause__, UnicodeDecodeError):
            self.fail("utf8-strict", str(exc))
        elif isinstance(exc, WellFormednessError):
            self.fail("schema-valid", f"not well-formed XML: {exc}")
        else:
            self.fail("schema-valid", str(exc))

    def walk(self, params: dict[str, str], max_pages: int) -> list[str]:
        """Follow a token chain, grading pages; returns identifiers seen."""
        seen: list[str] = []
        while self.pages < max_pages:
            try:
                page = self.fetch(params)
            except OaiProtocolError as exc:
                resuming = "resumptionToken" in params
                if resuming and exc.code in ("badResumptionToken",
                                             "badArgument"):
                    self.fail("token-roundtrip",
                              f"mid-chain token rejected with {exc.code}")
                elif exc.code != "noRecordsMatch":
                    self.fail("schema-valid",
                              f"unexpected protocol error: {exc}")
                return seen
            except (WellFormednessError, SchemaViolation) as exc:
                self.pages += 1
                self.grade(exc)
                return seen
            self.pages += 1
            for rec in page.records:
                ident = rec.header.identifier
                seen.append(ident)
                self.records.append(rec)
                if not ident or not model.is_absolute_uri(ident):
                    self.fail("identifier-encoding",
                              f"identifier {ident!r} is not an absolute URI")
                elif any(c.isspace() for c in ident) or not ident.isascii():
                    self.fail("identifier-encoding",
                              f"identifier {ident!r} contains whitespace or "
                              "non-ASCII")
            if page.token is None or page.token.is_final:
                return seen
            params = {"verb": "ListRecords",
                      "resumptionToken": page.token.token}
        return seen


def validate_provider(base_url: str, transport,
                      format_prefix: str = "oai_dc",
                      max_pages: int = 30) -> ValidationReport:
    """Run all eight checks; deterministic for a fixed provider state. An
    unreachable endpoint yields a single transport-level failure."""
    try:
        raw = transport.get(f"{base_url}?{urlencode({'verb': 'Identify'})}")
        info = model.parse_identify(raw)
    except TransportError as exc:
        return ValidationReport(base_url=base_url, checks=(),
                                transport_error=str(exc))
    except (WellFormednessError, SchemaViolation, OaiProtocolError) as exc:
        identify = CheckResult("identify-well-formed", False, str(exc))
        info = None
    else:
        identify = CheckResult("identify-well-formed", True,
                               info.repository_name)

    walker = _Walker(transport, base_url, format_prefix)
    try:
        # -- bounded walk over an un-windowed list (token chain exercises
        # token-roundtrip implicitly; explicit re-probe below)
        first_walk = walker.walk(
            {"verb": "ListRecords", "metadataPrefix": format_prefix},
            max_pages)

        # -- token-roundtrip: resume the chain again from a fresh page-1
        # token and expect the same second page
        if first_walk and not {"utf8-strict", "schema-valid",
                               "datestamp-format"} & walker.failures.keys():
            _check_token_roundtrip(walker, format_prefix)

        # -- window-idempotency: the same date window twice must list the
        # same identifiers, from an earliestDatestamp the harvester can read
        earliest = None
        if info is not None:
            try:
                earliest = model.parse_datestamp(info.earliest_datestamp)
            except ValueError as exc:
                walker.fail("datestamp-format", f"earliestDatestamp "
                            f"{info.earliest_datestamp!r}: {exc}")
        if earliest and "token-roundtrip" not in walker.failures:
            _check_window_idempotency(walker, format_prefix, earliest)

        # -- deleted-policy: tombstones visible in full lists must also be
        # reachable through windows and GetRecord
        if info is not None:
            _check_deleted_policy(walker, info, format_prefix)

        # -- re-probe: re-fetch the start page and require a
        # subset relation with the first walk (catches flapping lists)
        if first_walk and "window-idempotency" not in walker.failures:
            reprobe = walker.walk(
                {"verb": "ListRecords", "metadataPrefix": format_prefix},
                walker.pages + 1)
            if reprobe and not set(reprobe) <= set(first_walk):
                walker.fail("window-idempotency",
                            "re-probe returned identifiers absent from "
                            "the first walk")
    except TransportError as exc:
        return ValidationReport(base_url=base_url, checks=(identify,),
                                transport_error=str(exc),
                                pages_walked=walker.pages,
                                records_checked=len(walker.records))

    return ValidationReport(
        base_url=base_url,
        checks=(identify, *(CheckResult(cid, cid not in walker.failures,
                                        walker.failures.get(cid, ""))
                            for cid in CHECK_IDS[1:])),
        pages_walked=walker.pages, records_checked=len(walker.records))


def _check_token_roundtrip(walker: _Walker, prefix: str) -> None:
    try:
        page = walker.fetch({"verb": "ListRecords", "metadataPrefix": prefix})
    except _PROBE_ERRORS as exc:
        walker.fail("token-roundtrip", f"could not re-fetch page 1: {exc}")
        return
    if page.token is None or page.token.is_final:
        return  # single-page list: nothing to round-trip
    try:
        walker.fetch({"verb": "ListRecords",
                      "resumptionToken": page.token.token})
    except OaiProtocolError as exc:
        walker.fail("token-roundtrip",
                    f"fresh token rejected with {exc.code}")
    except _PROBE_ERRORS as exc:
        walker.fail("token-roundtrip", f"token resume failed: {exc}")


def _check_window_idempotency(walker: _Walker, prefix: str, earliest) -> None:
    window = {"verb": "ListRecords", "metadataPrefix": prefix,
              "from": format_datestamp(earliest)}
    try:
        first = walker.first_page(window)
        second = walker.first_page(window)
    except _PROBE_ERRORS as exc:
        walker.fail("window-idempotency", f"windowed request failed: {exc}")
        return
    if first != second:
        walker.fail("window-idempotency",
                    "identical date-window requests returned different "
                    f"record lists ({len(first)} vs {len(second)} on the "
                    "first page)")


def _check_deleted_policy(walker: _Walker, info, prefix: str) -> None:
    if info.deleted_policy != "persistent":
        return
    tombstones = [r for r in walker.records if r.header.deleted]
    if not tombstones:
        return
    ident = tombstones[0].header.identifier
    stamp = format_datestamp(tombstones[0].header.datestamp)
    try:
        windowed = walker.first_page({"verb": "ListRecords",
                                      "metadataPrefix": prefix,
                                      "from": stamp, "until": stamp})
    except _PROBE_ERRORS:
        windowed = None     # an unreadable window gives no verdict
    if windowed is not None and ident not in windowed:
        walker.fail("deleted-policy",
                    f"tombstone {ident} missing from the date window "
                    "containing its datestamp despite a persistent "
                    "deleted-record policy")
        return
    try:
        walker.fetch({"verb": "GetRecord", "identifier": ident,
                      "metadataPrefix": prefix})
    except OaiProtocolError as exc:
        if exc.code == "idDoesNotExist":
            walker.fail("deleted-policy",
                        f"GetRecord denies {ident} exists despite a "
                        "persistent deleted-record policy")
    except _PROBE_ERRORS:
        pass    # an unreadable GetRecord gives no verdict
