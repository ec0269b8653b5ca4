"""Scriptable in-memory OAI-PMH provider with fault injection.

Serves as ground truth for harvester, validator, and registry tests: the
scenario's timeline of inserts/updates/deletes is the authoritative record
set for any window, queryable directly so tests can assert completeness.
Time never comes from the wall clock; a SimClock is injected everywhere.
Responses are written with ``model``'s renderers, the ones the server
uses, and ``server.serve_http`` serves a provider over HTTP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from . import model
from .errors import HttpStatusError, TimeRegression, TransportError
from .model import DcElement, format_datestamp, parse_datestamp

UTC = timezone.utc

FAULTS = frozenset({
    "Disconnect", "Http5xx", "InvalidUtf8", "BrokenToken", "WrongDatestamp",
    "SchemaInvalidRecord", "NonIdempotentWindow", "ForgottenDeletes",
    "SplashPageUrls", "IdentifyMissingField",
})

SPLASH_URL = "http://content.sim.invalid/splash"


class SimDisconnect(ConnectionError):
    """Raised by the provider to model a dropped connection."""


@dataclass(frozen=True)
class TimelineEvent:
    at: datetime
    action: str                      # insert | update | delete
    elements: tuple[DcElement, ...] = ()

    def __post_init__(self):
        if self.action not in ("insert", "update", "delete"):
            raise ValueError(f"unknown timeline action {self.action!r}")


@dataclass(frozen=True)
class SimRecordScript:
    identifier: str
    events: tuple[TimelineEvent, ...]

    def __post_init__(self):
        instants = [e.at for e in self.events]
        if any(b <= a for a, b in zip(instants, instants[1:])):
            raise ValueError(
                f"timeline for {self.identifier!r} not strictly ordered")


@dataclass
class FaultSpec:
    fault: str
    verb: str | None = None          # None matches any verb
    page: int | None = None          # None matches any page
    count: int | None = None         # occurrences before the fault disarms
    payload: bytes | None = None

    def __post_init__(self):
        if self.fault not in FAULTS:
            raise ValueError(f"unknown fault {self.fault!r}")


@dataclass(frozen=True)
class SimScenario:
    records: tuple[SimRecordScript, ...]
    deleted_policy: str = "persistent"
    page_size: int = 10
    format_prefix: str = "oai_dc"
    faults: tuple[FaultSpec, ...] = ()
    repository_name: str = "Simulated Provider"

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "deleted_policy": self.deleted_policy,
            "page_size": self.page_size,
            "format_prefix": self.format_prefix,
            "repository_name": self.repository_name,
            "faults": [
                {"fault": f.fault, "verb": f.verb, "page": f.page,
                 "count": f.count,
                 "payload": f.payload.hex() if f.payload else None}
                for f in self.faults],
            "records": [
                {"identifier": r.identifier,
                 "events": [
                     {"at": format_datestamp(e.at), "action": e.action,
                      "elements": [
                          {"name": el.name, "value": el.value,
                           "qualifier": el.qualifier, "scheme": el.scheme,
                           "language": el.language}
                          for el in e.elements]}
                     for e in r.events]}
                for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimScenario":
        if data.get("version") != 1:
            raise ValueError(f"unsupported scenario version {data.get('version')!r}")
        records = tuple(
            SimRecordScript(
                identifier=r["identifier"],
                events=tuple(
                    TimelineEvent(
                        at=parse_datestamp(e["at"]),
                        action=e["action"],
                        elements=tuple(
                            DcElement(name=el["name"], value=el["value"],
                                      qualifier=el.get("qualifier"),
                                      scheme=el.get("scheme"),
                                      language=el.get("language"))
                            for el in e.get("elements", [])))
                    for e in r["events"]))
            for r in data["records"])
        faults = tuple(
            FaultSpec(fault=f["fault"], verb=f.get("verb"),
                      page=f.get("page"), count=f.get("count"),
                      payload=bytes.fromhex(f["payload"])
                      if f.get("payload") else None)
            for f in data.get("faults", []))
        return cls(records=records,
                   deleted_policy=data.get("deleted_policy", "persistent"),
                   page_size=data.get("page_size", 10),
                   format_prefix=data.get("format_prefix", "oai_dc"),
                   faults=faults,
                   repository_name=data.get("repository_name",
                                            "Simulated Provider"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "SimScenario":
        return cls.from_dict(json.loads(Path(path).read_bytes()))


def make_scenario(n_records: int = 25,
                  start: datetime = datetime(2005, 1, 1, tzinfo=UTC),
                  spacing: timedelta = timedelta(minutes=1),
                  deleted_policy: str = "persistent",
                  page_size: int = 10,
                  faults: tuple[FaultSpec, ...] = (),
                  format_prefix: str = "oai_dc") -> SimScenario:
    """A clean baseline scenario: n sequential inserts, one per record."""
    records = []
    for i in range(n_records):
        elements = (
            DcElement("title", f"Simulated Record {i}"),
            DcElement("description", f"Description of record number {i}."),
            DcElement("identifier", f"http://content.sim.invalid/doc/{i}"),
            DcElement("subject", "simulation"),
        )
        records.append(SimRecordScript(
            identifier=f"oai:sim:{i:04d}",
            events=(TimelineEvent(at=start + i * spacing, action="insert",
                                  elements=elements),),
        ))
    return SimScenario(records=tuple(records), deleted_policy=deleted_policy,
                       page_size=page_size, faults=faults,
                       format_prefix=format_prefix)


class SimClock:
    def __init__(self, start: datetime):
        self._now = start

    def now(self) -> datetime:
        return self._now

    def advance_to(self, to: datetime) -> None:
        if to < self._now:
            raise TimeRegression(f"{to} is before {self._now}")
        self._now = to

    def advance(self, delta: timedelta) -> None:
        self.advance_to(self._now + delta)


@dataclass(frozen=True)
class _LiveRecord:
    identifier: str
    datestamp: datetime
    deleted: bool
    elements: tuple[DcElement, ...]


class SimProvider:
    """An in-process provider endpoint driven by a scenario and a clock."""

    def __init__(self, scenario: SimScenario, clock: SimClock,
                 base_url: str = "http://sim.invalid/oai"):
        self.scenario = scenario
        self.clock = clock
        self.base_url = base_url
        self._fault_counters = [
            {"spec": f, "remaining": f.count} for f in scenario.faults]
        self._window_requests: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Ground truth

    def state(self, at: datetime | None = None) -> dict[str, _LiveRecord]:
        """Fold each record's timeline up to the given instant."""
        at = at or self.clock.now()
        out = {}
        for script in self.scenario.records:
            current = None
            for event in script.events:
                if event.at > at:
                    break
                if event.action == "delete":
                    current = _LiveRecord(script.identifier, event.at,
                                          True, ())
                else:
                    current = _LiveRecord(script.identifier, event.at,
                                          False, event.elements)
            if current is not None:
                out[script.identifier] = current
        return out

    def live_identifiers(self, at: datetime | None = None) -> set[str]:
        return {i for i, r in self.state(at).items() if not r.deleted}

    def advance(self, to: datetime) -> None:
        self.clock.advance_to(to)

    # ------------------------------------------------------------------
    # Fault machinery

    def _fault_active(self, name: str, verb: str,
                      page: int | None = None) -> FaultSpec | None:
        for entry in self._fault_counters:
            spec = entry["spec"]
            if spec.fault != name:
                continue
            if spec.verb is not None and spec.verb != verb:
                continue
            if spec.page is not None and page is not None and spec.page != page:
                continue
            if entry["remaining"] is not None:
                if entry["remaining"] <= 0:
                    continue
                entry["remaining"] -= 1
            return spec
        return None

    # ------------------------------------------------------------------
    # Request handling

    def handle_url(self, url: str) -> tuple[int, bytes]:
        """``handle`` of a request URL's query; a repeated argument counts
        with its first value."""
        query = parse_qs(urlsplit(url).query)
        return self.handle({k: v[0] for k, v in query.items()})

    def handle(self, params: dict[str, str]) -> tuple[int, bytes]:
        verb = params.get("verb", "")
        page = self._page_of(params)
        if self._fault_active("Disconnect", verb, page):
            raise SimDisconnect("connection dropped by scenario fault")
        if self._fault_active("Http5xx", verb, page):
            return 503, b"Service Unavailable"
        if verb == "Identify":
            return 200, self._identify()
        if verb == "ListMetadataFormats":
            return 200, self._list_metadata_formats()
        if verb == "ListSets":
            return 200, self._list_sets()
        if verb == "GetRecord":
            return 200, self._get_record(params, page)
        if verb == "ListRecords":
            return 200, self._list_records(params, page)
        return 200, self._error("badVerb", f"unknown verb {verb!r}")

    def _page_of(self, params: dict[str, str]) -> int:
        token = params.get("resumptionToken")
        parsed = None if token is None else self._parse_token(token)
        if parsed is None:
            return 1
        return parsed[0] // self.scenario.page_size + 1

    def _envelope(self, verb: str | None, body: str) -> bytes:
        return model.response_xml(self.clock.now(), self.base_url, verb,
                                  body.encode())

    def _error(self, code: str, message: str) -> bytes:
        return self._envelope(None, model.error_xml(code, message))

    def _identify(self) -> bytes:
        events = [e.at for s in self.scenario.records for e in s.events]
        earliest = min(events) if events else self.clock.now()
        missing = self._fault_active("IdentifyMissingField", "Identify")
        return self._envelope("Identify", model.identify_xml(
            None if missing else self.scenario.repository_name,
            self.base_url, "sim@sim.invalid", format_datestamp(earliest),
            self.scenario.deleted_policy))

    def _list_metadata_formats(self) -> bytes:
        return self._envelope("ListMetadataFormats",
                              model.list_metadata_formats_xml(
                                  ("oai_dc", "nsdl_dc"), "urn:x-sim"))

    def _list_sets(self) -> bytes:
        return self._envelope("ListSets",
                              model.list_sets_xml((("sim", "Everything"),)))

    def _forgotten_deletes(self) -> bool:
        return any(e["spec"].fault == "ForgottenDeletes"
                   for e in self._fault_counters)

    def _visible_records(self, from_: datetime | None, until: datetime | None,
                         windowed_request: bool) -> list[_LiveRecord]:
        records = []
        for rec in self.state().values():
            if rec.deleted:
                if self.scenario.deleted_policy != "persistent":
                    continue
                # a provider that forgets deletes omits tombstones from
                # date-bounded harvests despite claiming persistence
                if self._forgotten_deletes() and windowed_request:
                    continue
            if from_ is not None and rec.datestamp < from_:
                continue
            if until is not None and rec.datestamp > until:
                continue
            records.append(rec)
        records.sort(key=lambda r: (r.datestamp, r.identifier))
        return records

    def _serve_elements(self, rec: _LiveRecord, verb: str,
                        page: int) -> tuple[DcElement, ...]:
        if self._fault_active("SplashPageUrls", verb, page):
            return tuple(
                DcElement(name=el.name, value=SPLASH_URL,
                          qualifier=el.qualifier, scheme=el.scheme,
                          language=el.language)
                if el.name == "identifier" and
                el.value.startswith("http") else el
                for el in rec.elements)
        return rec.elements

    def _serialize_record(self, rec: _LiveRecord, verb: str, page: int,
                          bad_datestamp: bool = False,
                          schema_invalid: bool = False) -> str:
        stamp = ("01-08-2005" if bad_datestamp
                 else format_datestamp(rec.datestamp))
        parts = ["<record>",
                 model.header_xml(rec.identifier, stamp, (), rec.deleted)]
        if not rec.deleted:
            payload = model.serialize_dc_payload(
                self.scenario.format_prefix,
                self._serve_elements(rec, verb, page)).decode()
            if schema_invalid:
                payload = payload.replace(
                    "</oai_dc:dc>",
                    "<dc:notAnElement>bad</dc:notAnElement></oai_dc:dc>")
                payload = payload.replace(
                    "</qdc:dc>",
                    "<dc:notAnElement>bad</dc:notAnElement></qdc:dc>")
            parts.append(f"<metadata>{payload}</metadata>")
        parts.append("</record>")
        return "".join(parts)

    def _get_record(self, params: dict[str, str], page: int) -> bytes:
        ident = params.get("identifier", "")
        rec = self.state().get(ident)
        if rec is None:
            return self._error("idDoesNotExist", ident)
        if rec.deleted:
            if (self.scenario.deleted_policy != "persistent"
                    or self._forgotten_deletes()):
                return self._error("idDoesNotExist", ident)
        record = self._serialize_record(rec, "GetRecord", page)
        return self._envelope("GetRecord", f"<GetRecord>{record}</GetRecord>")

    def _list_records(self, params: dict[str, str], page: int) -> bytes:
        token = params.get("resumptionToken")
        if token is not None:
            parsed = self._parse_token(token)
            if parsed is None:
                if self._fault_active("BrokenToken", "ListRecords"):
                    # misreport garbage tokens as badArgument
                    return self._error("badArgument", "cannot parse token")
                return self._error("badResumptionToken", token)
            pos, from_, until = parsed
        else:
            pos = 0
            try:
                from_ = (parse_datestamp(params["from"])
                         if "from" in params else None)
                until = (parse_datestamp(params["until"])
                         if "until" in params else None)
            except ValueError as exc:
                return self._error("badArgument", str(exc))

        windowed = from_ is not None
        matches = self._visible_records(from_, until, windowed)

        if token is None and windowed:
            key = (params.get("from"), params.get("until"))
            seen = self._window_requests.get(key, 0)
            self._window_requests[key] = seen + 1
            if seen > 0 and self._fault_active("NonIdempotentWindow",
                                               "ListRecords"):
                matches = matches[1:]  # repeated window loses a record

        if not matches:
            return self._error("noRecordsMatch", "empty window")

        page_records = matches[pos:pos + self.scenario.page_size]
        next_pos = pos + len(page_records)

        bad_stamp = bool(self._fault_active("WrongDatestamp",
                                            "ListRecords", page))
        schema_bad = bool(self._fault_active("SchemaInvalidRecord",
                                             "ListRecords", page))
        items = []
        for i, rec in enumerate(page_records):
            items.append(self._serialize_record(
                rec, "ListRecords", page, bad_datestamp=bad_stamp and i == 0,
                schema_invalid=schema_bad and i == 0))

        token_el = ""
        if next_pos < len(matches):
            next_token = self._mint_token(next_pos, from_, until)
            if self._fault_active("BrokenToken", "ListRecords", page):
                next_token = "XX" + next_token[4:]
            token_el = model.resumption_token_xml(next_token, len(matches),
                                                  pos)
        elif pos > 0:
            token_el = model.resumption_token_xml("", len(matches), pos)

        body = f"<ListRecords>{''.join(items)}{token_el}</ListRecords>"
        response = self._envelope("ListRecords", body)

        utf8_fault = self._fault_active("InvalidUtf8", "ListRecords", page)
        if utf8_fault:
            bad = utf8_fault.payload or b"\xc0\x80"
            response = response.replace(b"<dc:title>", b"<dc:title>" + bad, 1)
        return response

    @staticmethod
    def _mint_token(pos: int, from_: datetime | None,
                    until: datetime | None) -> str:
        f = format_datestamp(from_) if from_ else ""
        u = format_datestamp(until) if until else ""
        return f"p{pos}|{f}|{u}"

    @staticmethod
    def _parse_token(token: str):
        try:
            pos_part, f, u = token.split("|")
            if not pos_part.startswith("p"):
                return None
            pos = int(pos_part[1:])
            from_ = parse_datestamp(f) if f else None
            until = parse_datestamp(u) if u else None
            return pos, from_, until
        except ValueError:
            return None


class SimTransport:
    """Client transport talking to an in-process SimProvider."""

    def __init__(self, provider: SimProvider):
        self.provider = provider

    def get(self, url: str) -> bytes:
        try:
            status, body = self.provider.handle_url(url)
        except SimDisconnect as exc:
            raise TransportError(str(exc)) from exc
        if status != 200:
            raise HttpStatusError(status, body.decode("utf-8", "replace"))
        return body
