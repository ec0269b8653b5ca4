"""Domain types and pure parse/serialize helpers for the harvesting protocol.

Everything here is immutable after construction and safe to share across
threads. Parsing is strict: invalid UTF-8 and schema-violating responses are
rejected with byte-level diagnostics rather than repaired.

The OAI-PMH wire format is known here alone, both ways: the renderers
(``response_xml`` for the envelope, ``header_xml`` and the ``*_xml`` verb
parts) write every response the server and the simulator send. One expat
reader, ``read_xml``, reads both OAI responses (here) and dbInsert batches
(``ingest``) in one pass. It hands each payload (the element child of a
wrapper such as ``<metadata>``) back as its exact source bytes. A payload
is stored and later served on its own, so it must be well-formed without
the document around it. Dublin Core payloads and Identify responses are
parsed with ElementTree.
"""

from __future__ import annotations

import calendar
import re
import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import dataclass
from datetime import datetime, timezone
from urllib.parse import urlsplit
from xml.sax.saxutils import escape, quoteattr

from .errors import (
    BadRecordDatestamp,
    ExcessPrecision,
    MalformedDatestamp,
    NonUtc,
    OaiProtocolError,
    PROTOCOL_ERROR_CODES,
    SchemaViolation,
    WellFormednessError,
)

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
DC_NS = "http://purl.org/dc/elements/1.1/"
QDC_NS = "urn:x-mdpipe:qdc"
XML_NS = "http://www.w3.org/XML/1998/namespace"

DC_ELEMENTS = frozenset({
    "title", "creator", "subject", "description", "publisher", "contributor",
    "date", "type", "format", "identifier", "source", "language", "relation",
    "coverage", "rights",
})

#: format prefixes whose payloads are parsed into DcElement lists
DC_PROFILE_PREFIXES = frozenset({"oai_dc", "nsdl_dc"})


# ---------------------------------------------------------------------------
# Datestamps

_DATESTAMP_PATTERN = "NNNN-NN-NNTNN:NN:NNZ"
# the same grammar as one pattern; re.ASCII keeps \d to the digits 0-9. The
# hour is held to 00-23 so that hour 24 always reaches the walk, whatever a
# Python version's fromisoformat makes of 24:00.
_DATESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT(?:[01]\d|2[0-3]):\d\d:\d\dZ",
                           re.ASCII)


def parse_datestamp(text: str) -> datetime:
    """Parse a second-granularity Zulu datestamp, rejecting anything else.

    Raises MalformedDatestamp / NonUtc / ExcessPrecision; the exception's
    ``position`` attribute is the first offending character index.
    """
    if _DATESTAMP_RE.fullmatch(text) is not None:
        try:
            # "+00:00", not "Z": Python 3.10's fromisoformat rejects "Z"
            return datetime.fromisoformat(text[:19] + "+00:00")
        except ValueError:
            pass   # out of range: the walk below names the field
    return _walk_datestamp(text)


def _walk_datestamp(text: str) -> datetime:
    """``parse_datestamp`` character by character, so that a rejection
    carries the first offending position."""
    for i, expected in enumerate(_DATESTAMP_PATTERN):
        if i >= len(text):
            if i == 19:
                raise NonUtc("missing Z timezone designator", i)
            raise MalformedDatestamp("datestamp truncated", i)
        ch = text[i]
        if expected == "N":
            if not ch.isascii() or not ch.isdigit():
                raise MalformedDatestamp(f"expected digit, got {ch!r}", i)
        elif i == 19:
            if ch == ".":
                raise ExcessPrecision("fractional seconds not allowed", i)
            if ch != "Z":
                raise NonUtc(f"expected Z, got {ch!r}", i)
        elif ch != expected:
            raise MalformedDatestamp(f"expected {expected!r}, got {ch!r}", i)
    if len(text) > 20:
        raise MalformedDatestamp("trailing characters after Z", 20)

    year = int(text[0:4])
    month = int(text[5:7])
    day = int(text[8:10])
    hour = int(text[11:13])
    minute = int(text[14:16])
    second = int(text[17:19])
    if year < 1:
        raise MalformedDatestamp("year 0 out of range", 0)
    if not 1 <= month <= 12:
        raise MalformedDatestamp(f"month {month} out of range", 5)
    if not 1 <= day <= calendar.monthrange(year, month)[1]:
        raise MalformedDatestamp(f"day {day} out of range", 8)
    if hour > 23:
        raise MalformedDatestamp(f"hour {hour} out of range", 11)
    if minute > 59:
        raise MalformedDatestamp(f"minute {minute} out of range", 14)
    if second > 59:
        raise MalformedDatestamp(f"second {second} out of range", 17)
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


def format_datestamp(instant: datetime) -> str:
    """The second-granularity Zulu datestamp of an aware instant, with the
    year always four digits (``strftime("%Y")`` drops leading zeros)."""
    if instant.tzinfo is None:
        raise ValueError("naive datetime cannot be formatted as a datestamp")
    t = (instant if instant.tzinfo is timezone.utc
         else instant.astimezone(timezone.utc))
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        t.year, t.month, t.day, t.hour, t.minute, t.second)


# A percent-encoded octet (RFC 3986 section 2.1); group 1 holds its two
# hex digits.
PERCENT_ESCAPE = re.compile(r"%([0-9A-Fa-f]{2})")


def is_absolute_uri(value: str) -> bool:
    """Syntactic absolute-URI check: a scheme and at least one more character."""
    try:
        parts = urlsplit(value)
    except ValueError:
        return False
    if not parts.scheme or not parts.scheme[0].isalpha():
        return False
    return bool(parts.netloc or parts.path or parts.query)


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class RecordHeader:
    identifier: str
    datestamp: datetime
    set_specs: tuple[str, ...] = ()
    deleted: bool = False

    def __post_init__(self):
        if not self.identifier:
            raise ValueError("record identifier must be non-empty")
        if self.datestamp.tzinfo is None:
            raise ValueError("datestamp must be timezone-aware UTC")


@dataclass(frozen=True)
class DcElement:
    name: str
    value: str
    qualifier: str | None = None
    scheme: str | None = None
    language: str | None = None

    def __post_init__(self):
        if self.name not in DC_ELEMENTS:
            raise ValueError(f"{self.name!r} is not a Dublin Core element")


@dataclass(frozen=True)
class MetadataRecord:
    header: RecordHeader
    format_prefix: str
    elements: tuple[DcElement, ...] = ()
    raw_xml: bytes = b""

    def __post_init__(self):
        if self.header.deleted and (self.elements or self.raw_xml):
            raise ValueError("deleted record must carry no metadata payload")


@dataclass(frozen=True)
class ResumptionToken:
    token: str
    complete_list_size: int | None = None
    cursor: int | None = None

    @property
    def is_final(self) -> bool:
        return self.token == ""


@dataclass(frozen=True)
class ListResponse:
    records: tuple[MetadataRecord, ...]
    token: ResumptionToken | None
    response_date: datetime | None


@dataclass(frozen=True)
class IdentifyInfo:
    repository_name: str
    base_url: str
    earliest_datestamp: str
    deleted_policy: str
    granularity: str
    admin_emails: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# UTF-8 strictness

def validate_utf8(data: bytes) -> None:
    """Reject any byte sequence a strict UTF-8 decoder rejects."""
    try:
        data.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise WellFormednessError(
            f"invalid UTF-8: {exc.reason}", byte_offset=exc.start
        ) from exc


# ---------------------------------------------------------------------------
# The XML reader (expat, one pass, byte-exact payload slices)

# one tag from its '<' to its '>'; a '>' inside a quoted attribute value
# does not end it
_TAG = re.compile(rb"""<(?:[^"'>]|"[^"]*"|'[^']*')*>""")


def _end_of_element(data: bytes, begin: int, at: int) -> int:
    """Index one past the element that opens at ``begin``, given where
    expat reports its end: at its end tag, or, for an empty-element tag,
    just past that tag. Expat has read both tags whole, so each match is
    found."""
    head = _TAG.match(data, begin).end()
    if data[head - 2:head] == b"/>":
        return head
    return _TAG.match(data, at).end()


def read_xml(data: bytes, wrappers, start, end, payload) -> None:
    """Read a document in one expat pass.

    Each element outside a payload is reported as ``start(local, attrs,
    depth)``, the root at depth 1, and ``end(local, text)``, where ``text``
    is all the character data inside the element except what lies inside
    a wrapper. The element children of an element named in ``wrappers``
    are payloads: the reader does not descend into one, and passes its
    exact byte range to ``payload(begin, stop)``. A callback may raise to
    reject the document. Invalid UTF-8 and broken XML raise
    WellFormednessError.
    """
    validate_utf8(data)
    parser = xml.parsers.expat.ParserCreate("utf-8", " ")
    parser.buffer_text = True
    # (local name, is a wrapper, where its text begins in ``chunks``) of
    # each open element outside payloads
    opened: list[tuple[str, bool, int]] = []
    chunks: list[str] = []
    inside = 0          # depth within the open payload; 0 outside one
    begin = 0

    def on_start(name, attrs):
        nonlocal inside, begin
        if inside:
            inside += 1
        elif opened and opened[-1][1]:
            inside = 1
            begin = parser.CurrentByteIndex
        else:
            local = name.rpartition(" ")[2]
            opened.append((local, local in wrappers, len(chunks)))
            start(local, attrs, len(opened))

    def on_end(name):
        nonlocal inside
        if inside:
            inside -= 1
            if not inside:
                payload(begin, _end_of_element(data, begin,
                                               parser.CurrentByteIndex))
        else:
            local, _, mark = opened.pop()
            end(local, "".join(chunks[mark:]))

    def on_chars(text):
        # expat reports no character data outside the root element
        if not (inside or opened[-1][1]):
            chunks.append(text)

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_chars
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise WellFormednessError(
            f"XML not well-formed: {exc}",
            byte_offset=parser.ErrorByteIndex,
        ) from exc


# ---------------------------------------------------------------------------
# Response parsing

class _Record:
    __slots__ = ("identifier", "datestamp", "set_specs", "deleted", "payload")

    def __init__(self):
        self.identifier = None
        self.datestamp = None
        self.set_specs = []
        self.deleted = False
        self.payload = None     # the slice of the last metadata child


class _ListParser:
    """The OAI consumer of ``read_xml``: each record's header fields and
    the byte range of its metadata payload, and the response's root, verb
    container, date, resumption token and error."""

    def __init__(self, data: bytes):
        self.records: list[_Record] = []
        self.current: _Record | None = None
        self.root_name: str | None = None
        self.verb_container: str | None = None
        self.response_date_text: str | None = None
        self.token_text: str | None = None
        self.token_attrs: dict[str, str] = {}
        self.error_code = ""
        self.error: tuple[str, str] | None = None
        read_xml(data, ("metadata",), self._start, self._end, self._payload)

    def _start(self, local, attrs, depth):
        if depth == 1:
            if local not in ("OAI-PMH", "record"):
                raise SchemaViolation(f"unexpected root element {local!r}")
            self.root_name = local
        if local == "record":
            self.current = _Record()
        elif local == "header":
            if attrs.get("status") == "deleted" and self.current is not None:
                self.current.deleted = True
        elif local == "metadata":
            if self.current is None:
                raise SchemaViolation("metadata element outside a record")
        elif local in ("ListRecords", "GetRecord", "ListIdentifiers"):
            self.verb_container = local
        elif local == "resumptionToken":
            self.token_attrs = attrs
        elif local == "error":
            self.error_code = attrs.get("code", "")

    def _end(self, local, text):
        rec = self.current
        if local == "record":
            if rec is not None:
                self.records.append(rec)
                self.current = None
        elif local == "identifier" and rec is not None:
            rec.identifier = text
        elif local == "datestamp" and rec is not None:
            rec.datestamp = text
        elif local == "setSpec" and rec is not None:
            rec.set_specs.append(text)
        elif local == "responseDate":
            self.response_date_text = text
        elif local == "resumptionToken":
            self.token_text = text
        elif local == "error":
            self.error = (self.error_code, text)

    def _payload(self, begin, stop):
        self.current.payload = slice(begin, stop)


def _build_record(raw: bytes, rec: _Record,
                  format_prefix: str) -> MetadataRecord:
    if not rec.identifier:
        raise SchemaViolation("record header missing identifier")
    if rec.datestamp is None:
        raise SchemaViolation("record header missing datestamp")
    try:
        stamp = parse_datestamp(rec.datestamp)
    except ValueError as exc:
        raise BadRecordDatestamp(
            f"record {rec.identifier!r} datestamp {rec.datestamp!r}: {exc}"
        ) from exc
    header = RecordHeader(
        identifier=rec.identifier,
        datestamp=stamp,
        set_specs=tuple(rec.set_specs),
        deleted=rec.deleted,
    )
    if rec.deleted:
        if rec.payload is not None:
            raise SchemaViolation(
                f"deleted record {rec.identifier!r} carries a metadata payload"
            )
        return MetadataRecord(header=header, format_prefix=format_prefix)
    if rec.payload is None:
        raise SchemaViolation(f"record {rec.identifier!r} has no metadata payload")
    payload = raw[rec.payload]
    elements: tuple[DcElement, ...] = ()
    if format_prefix in DC_PROFILE_PREFIXES:
        elements = parse_dc_payload(payload, format_prefix)
    return MetadataRecord(
        header=header, format_prefix=format_prefix,
        elements=elements, raw_xml=payload,
    )


def parse_list_response(data: bytes,
                        format_prefix: str = "oai_dc") -> ListResponse:
    """Parse a ListRecords (or GetRecord) response body.

    Raises WellFormednessError for broken XML / invalid UTF-8,
    OaiProtocolError when the server declared a protocol error, and
    SchemaViolation for structurally invalid responses.
    """
    lp = _ListParser(data)
    if lp.error is not None:
        code, message = lp.error
        if code not in PROTOCOL_ERROR_CODES:
            raise SchemaViolation(f"unknown protocol error code {code!r}")
        raise OaiProtocolError(code, message)
    if lp.root_name == "OAI-PMH" and lp.verb_container is None:
        raise SchemaViolation("response has neither a verb container nor an error")

    response_date = None
    if lp.response_date_text is not None:
        try:
            response_date = parse_datestamp(lp.response_date_text)
        except ValueError as exc:
            raise SchemaViolation(f"bad responseDate: {exc}") from exc

    records = tuple(
        _build_record(data, rec, format_prefix) for rec in lp.records
    )

    token = None
    if lp.token_text is not None:
        token = ResumptionToken(
            token=lp.token_text,
            complete_list_size=_token_count(lp.token_attrs, "completeListSize"),
            cursor=_token_count(lp.token_attrs, "cursor"),
        )
    return ListResponse(records=records, token=token, response_date=response_date)


def _token_count(attrs: dict[str, str], name: str) -> int | None:
    """An integer attribute of ``<resumptionToken>``; None when absent."""
    try:
        return None if name not in attrs else int(attrs[name])
    except ValueError:
        raise SchemaViolation(f"resumptionToken {name}={attrs[name]!r} "
                              "is not an integer") from None


def parse_record(data: bytes, format_prefix: str = "oai_dc") -> MetadataRecord:
    """Parse a standalone <record> element."""
    lp = _ListParser(data)
    if len(lp.records) != 1:
        raise SchemaViolation(f"expected one record, found {len(lp.records)}")
    return _build_record(data, lp.records[0], format_prefix)


# ---------------------------------------------------------------------------
# DC payload parse/serialize

def parse_dc_payload(payload: bytes, format_prefix: str) -> tuple[DcElement, ...]:
    """Parse an oai_dc or qualified-DC container into ordered DcElements."""
    try:
        root = ET.fromstring(payload)
    except ET.ParseError as exc:
        raise WellFormednessError(f"metadata payload not well-formed: {exc}") from exc
    if not root.tag.endswith("}dc") and root.tag != "dc":
        raise SchemaViolation(f"unexpected payload root {root.tag!r}")
    elements = []
    for child in root:
        if not isinstance(child.tag, str):
            continue
        local = child.tag.rsplit("}", 1)[-1]
        if local not in DC_ELEMENTS:
            raise SchemaViolation(
                f"{local!r} is not a Dublin Core element (in {format_prefix})"
            )
        if len(child):
            raise SchemaViolation(
                f"{local!r} holds markup, not only text (in {format_prefix})")
        elements.append(DcElement(
            name=local,
            value=child.text or "",
            qualifier=child.get("qualifier"),
            scheme=child.get("scheme"),
            language=child.get(f"{{{XML_NS}}}lang"),
        ))
    return tuple(elements)


#: the open and close tags of the two DC containers, rendered once
OAI_DC_OPEN = (f"<oai_dc:dc xmlns:oai_dc={quoteattr(OAI_DC_NS)}"
               f" xmlns:dc={quoteattr(DC_NS)}>")
OAI_DC_CLOSE = "</oai_dc:dc>"
NSDL_DC_OPEN = (f"<qdc:dc xmlns:qdc={quoteattr(QDC_NS)}"
                f" xmlns:dc={quoteattr(DC_NS)}>")
NSDL_DC_CLOSE = "</qdc:dc>"


def _quoteattr(text: str) -> str:
    """``xml.sax.saxutils.quoteattr`` without its per-call entity table:
    ``& < >`` and ``\\n \\r \\t`` escaped, then quoted with ``"``, or with
    ``'`` when the text holds ``"`` but no ``'``."""
    text = (escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def dc_element_xml(el: DcElement) -> tuple[str, str]:
    """The element as ``<dc:NAME ...>VALUE</dc:NAME>`` in two forms: with
    its ``qualifier``, ``scheme`` and ``xml:lang`` attributes, in that
    order, and with ``xml:lang`` alone, the dumbed-down form that ``oai_dc``
    exports. The value and each attribute are escaped once; an element with
    neither qualifier nor scheme returns one string as both forms."""
    name = el.name
    tail = f">{escape(el.value)}</dc:{name}>"
    lang = f" xml:lang={_quoteattr(el.language)}" if el.language else ""
    plain = f"<dc:{name}{lang}{tail}"
    if not (el.qualifier or el.scheme):
        return plain, plain
    attrs = f" qualifier={_quoteattr(el.qualifier)}" if el.qualifier else ""
    if el.scheme:
        attrs += f" scheme={_quoteattr(el.scheme)}"
    return f"<dc:{name}{attrs}{lang}{tail}", plain


def serialize_dc_payload(format_prefix: str,
                         elements: tuple[DcElement, ...]) -> bytes:
    """Serialize elements, with all their attributes, into the container
    for the given DC profile."""
    if format_prefix == "oai_dc":
        open_tag, close_tag = OAI_DC_OPEN, OAI_DC_CLOSE
    else:
        open_tag, close_tag = NSDL_DC_OPEN, NSDL_DC_CLOSE
    body = "".join([dc_element_xml(el)[0] for el in elements])
    return f"{open_tag}{body}{close_tag}".encode("utf-8")


def serialize_header(header: RecordHeader) -> str:
    return header_xml(header.identifier, format_datestamp(header.datestamp),
                      header.set_specs, header.deleted)


def header_xml(identifier: str, datestamp: str, set_specs: tuple[str, ...],
               deleted: bool = False) -> str:
    """The OAI ``<header>`` element, from an already formatted datestamp: a
    caller rendering many headers formats each distinct instant once."""
    status = ' status="deleted"' if deleted else ""
    specs = "".join([f"<setSpec>{escape(spec)}</setSpec>" for spec in set_specs])
    return (f"<header{status}><identifier>{escape(identifier)}</identifier>"
            f"<datestamp>{datestamp}</datestamp>{specs}</header>")


# ---------------------------------------------------------------------------
# Response rendering: the parts of an OAI-PMH response (section 3.2)

_RESPONSE_OPEN = ('<?xml version="1.0" encoding="UTF-8"?>'
                  f"<OAI-PMH xmlns={_quoteattr(OAI_NS)}>").encode()


def response_xml(now: datetime, base_url: str, verb: str | None,
                 body: bytes, args: tuple[tuple[str, str], ...] = ()) -> bytes:
    """A whole response: the envelope with ``now`` as its responseDate,
    then ``<request>`` with ``verb`` (left out when None) and ``args`` as
    its attributes, in that order, then ``body``."""
    if verb:
        args = (("verb", verb), *args)
    attrs = "".join([f" {name}={_quoteattr(value)}" for name, value in args])
    head = (f"<responseDate>{format_datestamp(now)}</responseDate>"
            f"<request{attrs}>{escape(base_url)}</request>")
    return b"".join((_RESPONSE_OPEN, head.encode(), body, b"</OAI-PMH>"))


def error_xml(code: str, message: str) -> str:
    return f"<error code={_quoteattr(code)}>{escape(message)}</error>"


def resumption_token_xml(token: str, complete_list_size: int,
                         cursor: int) -> str:
    """The ``<resumptionToken>`` of a list page. The empty token is the
    element that closes a paged list on its last page."""
    return (f'<resumptionToken completeListSize="{complete_list_size}"'
            f' cursor="{cursor}">{escape(token)}</resumptionToken>')


def identify_xml(repository_name: str | None, base_url: str,
                 admin_email: str, earliest: str, deleted_policy: str) -> str:
    """The ``<Identify>`` body. A None name leaves out the required
    ``repositoryName``, as a broken provider does."""
    name = ("" if repository_name is None else
            f"<repositoryName>{escape(repository_name)}</repositoryName>")
    return (f"<Identify>{name}"
            f"<baseURL>{escape(base_url)}</baseURL>"
            "<protocolVersion>2.0</protocolVersion>"
            f"<adminEmail>{escape(admin_email)}</adminEmail>"
            f"<earliestDatestamp>{earliest}</earliestDatestamp>"
            f"<deletedRecord>{escape(deleted_policy)}</deletedRecord>"
            f"<granularity>{GRANULARITY_SECOND}</granularity></Identify>")


def list_metadata_formats_xml(prefixes, urn_base: str) -> str:
    """The ``<ListMetadataFormats>`` body; each format's schema and
    namespace are URNs under ``urn_base``."""
    formats = "".join([
        f"<metadataFormat><metadataPrefix>{escape(prefix)}</metadataPrefix>"
        f"<schema>{urn_base}:schema:{escape(prefix)}</schema>"
        f"<metadataNamespace>{urn_base}:{escape(prefix)}</metadataNamespace>"
        "</metadataFormat>" for prefix in prefixes])
    return f"<ListMetadataFormats>{formats}</ListMetadataFormats>"


def list_sets_xml(sets) -> str:
    """The ``<ListSets>`` body from ``(setSpec, setName)`` pairs."""
    items = "".join([f"<set><setSpec>{escape(spec)}</setSpec>"
                     f"<setName>{escape(name)}</setName></set>"
                     for spec, name in sets])
    return f"<ListSets>{items}</ListSets>"


# ---------------------------------------------------------------------------
# Identify

_IDENTIFY_REQUIRED = ("repositoryName", "baseURL", "protocolVersion",
                      "earliestDatestamp", "deletedRecord", "granularity")

GRANULARITY_SECOND = "YYYY-MM-DDThh:mm:ssZ"


def parse_identify(data: bytes) -> IdentifyInfo:
    """Parse an Identify response; raises SchemaViolation on missing fields."""
    validate_utf8(data)
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise WellFormednessError(f"XML not well-formed: {exc}") from exc
    err = root.find(f"{{{OAI_NS}}}error")
    if err is not None:
        raise OaiProtocolError(err.get("code", ""), err.text or "")
    ident = root.find(f"{{{OAI_NS}}}Identify")
    if ident is None:
        raise SchemaViolation("response has no Identify element")
    fields = {}
    for name in _IDENTIFY_REQUIRED:
        el = ident.find(f"{{{OAI_NS}}}{name}")
        if el is None or not (el.text or "").strip():
            raise SchemaViolation(f"Identify missing required element {name!r}")
        fields[name] = el.text.strip()
    if fields["deletedRecord"] not in ("no", "transient", "persistent"):
        raise SchemaViolation(
            f"invalid deletedRecord policy {fields['deletedRecord']!r}")
    emails = tuple(
        (el.text or "").strip()
        for el in ident.findall(f"{{{OAI_NS}}}adminEmail")
    )
    return IdentifyInfo(
        repository_name=fields["repositoryName"],
        base_url=fields["baseURL"],
        earliest_datestamp=fields["earliestDatestamp"],
        deleted_policy=fields["deletedRecord"],
        granularity=fields["granularity"],
        admin_emails=emails,
    )
