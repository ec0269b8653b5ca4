import re
import random
from xml.sax import saxutils
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from mdpipe import model
from mdpipe.errors import (
    PROTOCOL_ERROR_CODES,
    ExcessPrecision,
    MalformedDatestamp,
    NonUtc,
    OaiProtocolError,
    SchemaViolation,
    WellFormednessError,
)
from mdpipe.model import (
    DcElement,
    MetadataRecord,
    RecordHeader,
    format_datestamp,
    parse_datestamp,
    parse_list_response,
    parse_record,
)

UTC = timezone.utc


# ---------------------------------------------------------------------------
# parse_datestamp

def test_parse_datestamp_valid():
    assert parse_datestamp("2005-08-01T00:00:00Z") == datetime(2005, 8, 1, tzinfo=UTC)


def test_parse_datestamp_day_granularity_rejected():
    with pytest.raises(MalformedDatestamp) as e:
        parse_datestamp("2005-08-01")
    assert e.value.position == 10


def test_parse_datestamp_fractional_seconds():
    with pytest.raises(ExcessPrecision) as e:
        parse_datestamp("2005-08-01T00:00:00.123Z")
    assert e.value.position == 19


def test_parse_datestamp_missing_z():
    with pytest.raises(NonUtc):
        parse_datestamp("2005-08-01T00:00:00")
    with pytest.raises(NonUtc):
        parse_datestamp("2005-08-01T00:00:00+01:00")


def test_parse_datestamp_calendar_bounds():
    with pytest.raises(MalformedDatestamp):
        parse_datestamp("2005-13-01T00:00:00Z")
    with pytest.raises(MalformedDatestamp):
        parse_datestamp("2005-02-29T00:00:00Z")
    with pytest.raises(MalformedDatestamp):
        parse_datestamp("2005-02-28T24:00:00Z")
    # leap year is fine
    parse_datestamp("2004-02-29T00:00:00Z")


def test_parse_datestamp_year_zero_is_malformed_at_position_0():
    with pytest.raises(MalformedDatestamp) as e:
        parse_datestamp("0000-01-01T00:00:00Z")
    assert e.value.position == 0


def test_parse_datestamp_garbage_positions():
    with pytest.raises(MalformedDatestamp) as e:
        parse_datestamp("20x5-08-01T00:00:00Z")
    assert e.value.position == 2


_ORACLE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def _oracle_accepts(text: str) -> bool:
    if not _ORACLE.match(text):
        return False
    try:
        datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return False
    return True


def test_datestamp_grammar_agrees_with_regex_oracle():
    rng = random.Random(20060125)
    alphabet = "0123456789-:TZ. abc"
    n_checked = 0
    for _ in range(100_000):
        kind = rng.random()
        if kind < 0.4:
            # structured near-misses: mutate a valid stamp
            base = list("2005-08-01T12:34:56Z")
            for _ in range(rng.randint(0, 2)):
                base[rng.randrange(len(base))] = rng.choice(alphabet)
            text = "".join(base)
        elif kind < 0.7:
            text = "%04d-%02d-%02dT%02d:%02d:%02d%s" % (
                rng.randint(0, 9999), rng.randint(0, 19), rng.randint(0, 39),
                rng.randint(0, 29), rng.randint(0, 69), rng.randint(0, 69),
                rng.choice(["Z", "", ".5Z", "+00:00"]))
        else:
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 25)))
        accepted = True
        try:
            parse_datestamp(text)
        except ValueError:
            accepted = False
        assert accepted == _oracle_accepts(text), repr(text)
        n_checked += 1
    assert n_checked == 100_000


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the datetime, or the rejection's
    class, position and message."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), getattr(exc, "position", None), str(exc)


_DATESTAMP_CHARS = "0123456789\u0660\u0663\u0669\uff10\uff19-:TZ.+ \n"


@st.composite
def _datestamp_texts(draw):
    """Datestamp-shaped strings with fields just past their ranges, one
    character swapped, cut short, or a different ending."""
    text = "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        draw(st.integers(0, 9999)), draw(st.integers(0, 13)),
        draw(st.integers(0, 32)), draw(st.integers(0, 25)),
        draw(st.integers(0, 60)), draw(st.integers(0, 61)))
    change = draw(st.sampled_from(["none", "swap", "cut", "ending"]))
    if change == "swap":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(_DATESTAMP_CHARS)) + text[i + 1:]
    elif change == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif change == "ending":
        text = text[:-1] + draw(st.sampled_from(
            ["Z\n", ".5Z", "+00:00", "ZZ", "z", ""]))
    return text


@settings(max_examples=500, deadline=None)
@given(text=_datestamp_texts() | st.text(_DATESTAMP_CHARS, max_size=22)
       | st.text(max_size=22))
def test_parse_datestamp_agrees_with_character_walk(text):
    outcome = _outcome(parse_datestamp, text)
    assert outcome == _outcome(model._walk_datestamp, text)
    if isinstance(outcome, datetime):
        assert outcome.tzinfo == UTC


@pytest.mark.parametrize("text", [
    "2005-02-29T00:00:00Z", "2004-02-30T00:00:00Z", "2005-04-31T00:00:00Z",
    "2005-13-01T00:00:00Z", "2005-08-01T24:00:00Z", "2005-08-01T23:59:60Z",
    "0000-08-01T00:00:00Z", "\u0662\u0660\u0660\u0665-08-01T00:00:00Z",
    "\uff12\uff10\uff10\uff15-08-01T00:00:00Z", "2005-08-01T00:00:00Z\n",
    "2005-08-01T00:00:00.5Z", "2005-08-01T00:00:00+00:00",
    "2005-08-01T00:00:00", "2005-08-01T00:0",
])
def test_parse_datestamp_near_misses_match_character_walk(text):
    outcome = _outcome(parse_datestamp, text)
    assert outcome == _outcome(model._walk_datestamp, text)
    assert not isinstance(outcome, datetime)


# ---------------------------------------------------------------------------
# format_datestamp

def test_format_datestamp_pads_year_to_four_digits():
    assert format_datestamp(datetime(999, 1, 1, tzinfo=UTC)) == \
        "0999-01-01T00:00:00Z"


def test_format_datestamp_rejects_naive_datetime():
    with pytest.raises(ValueError):
        format_datestamp(datetime(2005, 8, 1))


@settings(max_examples=500, deadline=None)
@given(instant=st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
    timezones=st.just(UTC)) | st.datetimes(
    # One day in from each end of the calendar, so the conversion to UTC
    # stays inside it.
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30, 23, 59, 59),
    timezones=st.integers(-1439, 1439).map(
        lambda minutes: timezone(timedelta(minutes=minutes)))))
def test_format_datestamp_round_trips_through_parse(instant):
    instant = instant.replace(microsecond=0)
    text = format_datestamp(instant)
    t = instant.astimezone(UTC)
    assert text == "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        t.year, t.month, t.day, t.hour, t.minute, t.second)
    assert parse_datestamp(text) == instant


# ---------------------------------------------------------------------------
# parse_list_response

def _wrap_list(body: str, token: str | None = None, token_attrs: str = "") -> bytes:
    token_el = ""
    if token is not None:
        token_el = f"<resumptionToken{token_attrs}>{token}</resumptionToken>"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        "<responseDate>2006-01-25T12:00:00Z</responseDate>"
        '<request verb="ListRecords">http://example.org/oai</request>'
        f"<ListRecords>{body}{token_el}</ListRecords>"
        "</OAI-PMH>"
    ).encode()


def _record_xml(ident: str, stamp: str = "2005-08-01T00:00:00Z",
                title: str = "A title", deleted: bool = False) -> str:
    if deleted:
        return (f'<record><header status="deleted"><identifier>{ident}'
                f"</identifier><datestamp>{stamp}</datestamp></header></record>")
    return (
        f"<record><header><identifier>{ident}</identifier>"
        f"<datestamp>{stamp}</datestamp><setSpec>alpha:beta</setSpec></header>"
        f'<metadata><oai_dc:dc xmlns:oai_dc="{model.OAI_DC_NS}" '
        f'xmlns:dc="{model.DC_NS}"><dc:title>{title}</dc:title>'
        f"</oai_dc:dc></metadata></record>"
    )


def test_two_record_list_no_token():
    data = _wrap_list(_record_xml("oai:x:1") + _record_xml("oai:x:2"))
    resp = parse_list_response(data)
    assert len(resp.records) == 2
    assert resp.token is None
    assert resp.response_date == datetime(2006, 1, 25, 12, tzinfo=UTC)
    assert resp.records[0].header.identifier == "oai:x:1"
    assert resp.records[0].header.set_specs == ("alpha:beta",)
    assert resp.records[0].elements[0] == DcElement("title", "A title")


def test_raw_xml_is_byte_exact_source_slice():
    data = _wrap_list(_record_xml("oai:x:1", title="T1"))
    resp = parse_list_response(data)
    raw = resp.records[0].raw_xml
    assert raw in data
    assert raw.startswith(b"<oai_dc:dc")
    assert raw.endswith(b"</oai_dc:dc>")
    assert b"T1" in raw


def test_overlong_utf8_rejected_with_byte_offset():
    data = _wrap_list(_record_xml("oai:x:1", title="MARKER"))
    bad = data.replace(b"MARKER", b"M\xc0\x80R")
    with pytest.raises(WellFormednessError) as e:
        parse_list_response(bad)
    assert e.value.byte_offset == bad.index(b"\xc0")


def test_multi_line_break_reports_byte_offset():
    # line 3 starts at byte 24; expat flags column 5 of it
    with pytest.raises(WellFormednessError) as e:
        parse_list_response(
            b"<OAI-PMH>\n<ListRecords>\n<x></y></ListRecords></OAI-PMH>")
    assert e.value.byte_offset == 29


@pytest.mark.parametrize("attrs", [' cursor="x"', ' completeListSize="1.5"',
                                   ' completeListSize="10" cursor=""'])
def test_non_integer_token_count_is_schema_violation(attrs):
    data = _wrap_list(_record_xml("oai:x:1"), token="t", token_attrs=attrs)
    with pytest.raises(SchemaViolation, match="not an integer"):
        parse_list_response(data)


def test_protocol_error_element():
    data = (
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        "<responseDate>2006-01-25T12:00:00Z</responseDate>"
        "<request>http://example.org/oai</request>"
        '<error code="noRecordsMatch">nothing here</error></OAI-PMH>'
    ).encode()
    with pytest.raises(OaiProtocolError) as e:
        parse_list_response(data)
    assert e.value.code == "noRecordsMatch"


def test_unknown_error_code_is_schema_violation():
    data = (
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        "<responseDate>2006-01-25T12:00:00Z</responseDate>"
        "<request>x</request>"
        '<error code="madeUpCode">?</error></OAI-PMH>'
    ).encode()
    with pytest.raises(SchemaViolation):
        parse_list_response(data)


def test_deleted_record_with_payload_rejected():
    bad_record = (
        '<record><header status="deleted"><identifier>oai:x:1</identifier>'
        "<datestamp>2005-08-01T00:00:00Z</datestamp></header>"
        '<metadata><oai_dc:dc xmlns:oai_dc="%s" xmlns:dc="%s">'
        "<dc:title>zombie</dc:title></oai_dc:dc></metadata></record>"
        % (model.OAI_DC_NS, model.DC_NS)
    )
    with pytest.raises(SchemaViolation):
        parse_list_response(_wrap_list(bad_record))


def test_day_granularity_header_datestamp_rejected():
    data = _wrap_list(_record_xml("oai:x:1", stamp="2005-08-01"))
    with pytest.raises(SchemaViolation):
        parse_list_response(data)


def test_non_dc_element_name_rejected():
    body = _record_xml("oai:x:1").replace("dc:title", "dc:gradeLevel")
    with pytest.raises(SchemaViolation):
        parse_list_response(_wrap_list(body))


def test_resumption_token_attributes():
    data = _wrap_list(
        _record_xml("oai:x:1"), token="abc123",
        token_attrs=' completeListSize="25" cursor="10"')
    resp = parse_list_response(data)
    assert resp.token.token == "abc123"
    assert resp.token.complete_list_size == 25
    assert resp.token.cursor == 10
    assert not resp.token.is_final


def test_empty_token_signals_completion():
    data = _wrap_list(_record_xml("oai:x:1"), token="")
    resp = parse_list_response(data)
    assert resp.token.is_final


def test_broken_xml():
    with pytest.raises(WellFormednessError):
        parse_list_response(b"<OAI-PMH><unclosed>")


def test_native_format_payload_kept_unparsed():
    body = (
        "<record><header><identifier>oai:x:9</identifier>"
        "<datestamp>2005-08-01T00:00:00Z</datestamp></header>"
        '<metadata><native xmlns="urn:x-test:native"><thing a="1">v</thing>'
        "</native></metadata></record>"
    )
    resp = parse_list_response(_wrap_list(body), format_prefix="native_fmt")
    rec = resp.records[0]
    assert rec.elements == ()
    assert rec.raw_xml.startswith(b"<native")


def test_dc_element_holding_markup_rejected():
    body = _record_xml("oai:x:1").replace(
        "<dc:title>A title</dc:title>",
        "<dc:description>Intro <b>bold</b> and the rest</dc:description>")
    with pytest.raises(SchemaViolation, match="description"):
        parse_list_response(_wrap_list(body))


def test_payload_relying_on_an_ancestor_namespace_rejected():
    # raw_xml is stored and later served on its own, so it must be
    # well-formed without the response around it
    data = _wrap_list(_record_xml("oai:x:1")).replace(
        f' xmlns:dc="{model.DC_NS}"'.encode(), b"").replace(
        f'<OAI-PMH xmlns="{model.OAI_NS}"'.encode(),
        f'<OAI-PMH xmlns="{model.OAI_NS}" xmlns:dc="{model.DC_NS}"'.encode())
    with pytest.raises(WellFormednessError):
        parse_list_response(data)


def test_self_closing_payload_ends_at_its_own_tag():
    body = (
        "<record><header><identifier>oai:x:9</identifier>"
        "<datestamp>2005-08-01T00:00:00Z</datestamp></header>"
        '<metadata><native a="x/>y"/>tail</metadata></record>'
    )
    resp = parse_list_response(_wrap_list(body), format_prefix="native_fmt")
    assert resp.records[0].raw_xml == b'<native a="x/>y"/>'


# ---------------------------------------------------------------------------
# read_xml: payload bytes under adversarial markup

_NAMES = ("x", "p:y", "metadata", "record", "header", "identifier", "error")
_ATTRS = (' a=">"', " b='>\"'", ' c="x&gt;y"', ' d="/>"', ' e="&amp;&#62;"')
_CONTENT = ("text", "&amp;&lt;&#x3e;&#169;", "<!-- > </x> -->",
            "<![CDATA[<a></b>&amp;>]]>", "<?pi > ?>", "\n  ", "")


@st.composite
def _payload_element(draw, depth=2):
    name = draw(st.sampled_from(_NAMES))
    attrs = "".join(draw(st.lists(st.sampled_from(_ATTRS), max_size=3,
                                  unique=True)))
    if name.startswith("p:"):
        attrs += ' xmlns:p="urn:x-test:p"'
    if depth == 0 or draw(st.booleans()):
        return f"<{name}{attrs}/>"
    parts = draw(st.lists(st.one_of(st.sampled_from(_CONTENT),
                                    _payload_element(depth - 1)), max_size=3))
    return f"<{name}{attrs}>{''.join(parts)}</{name}>"


_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12)
_STAMPS = st.datetimes(min_value=datetime(1, 1, 1),
                       max_value=datetime(9999, 12, 31),
                       timezones=st.just(UTC)).map(
    lambda t: t.replace(microsecond=0))


@st.composite
def _oai_record(draw):
    """A record's bytes, its header, and the payload the parser must keep
    (the last of the metadata element's children), or None if deleted."""
    header = RecordHeader(identifier=draw(_TEXT.filter(bool)),
                          datestamp=draw(_STAMPS),
                          set_specs=tuple(draw(st.lists(_TEXT, max_size=2))),
                          deleted=draw(st.booleans()))
    xml = "<record>" + model.serialize_header(header)
    payload = None
    if not header.deleted:
        children = draw(st.lists(_payload_element(), min_size=1, max_size=3))
        gaps = draw(st.lists(st.sampled_from(_CONTENT),
                             min_size=len(children) + 1,
                             max_size=len(children) + 1))
        body = "".join(g + c for g, c in zip(gaps, children)) + gaps[-1]
        xml += f"<metadata>{body}</metadata>"
        payload = children[-1].encode()
    return xml + "</record>", header, payload


@settings(max_examples=300, deadline=None)
@given(records=st.lists(_oai_record(), max_size=4),
       token=st.none() | st.tuples(_TEXT, st.integers(0, 10**6),
                                   st.integers(0, 10**6)))
def test_read_xml_keeps_exact_payload_bytes(records, token):
    body = "".join(xml for xml, _, _ in records)
    token_el, token_attrs = None, ""
    if token is not None:
        token_el = saxutils.escape(token[0])
        token_attrs = f' completeListSize="{token[1]}" cursor="{token[2]}"'
    resp = parse_list_response(_wrap_list(body, token_el, token_attrs),
                               format_prefix="native_fmt")
    assert [r.header for r in resp.records] == [h for _, h, _ in records]
    assert [r.raw_xml or None for r in resp.records] == [
        p for _, _, p in records]
    if token is None:
        assert resp.token is None
    else:
        assert resp.token == model.ResumptionToken(*token)
    for xml, header, payload in records:
        alone = parse_record(xml.encode(), format_prefix="native_fmt")
        assert (alone.header, alone.raw_xml or None) == (header, payload)


# ---------------------------------------------------------------------------
# Record serialization round trip

def _record_bytes(rec):
    """A standalone OAI <record>, assembled from the header and DC payload
    serializers."""
    metadata = b"" if rec.header.deleted else (
        b"<metadata>"
        + model.serialize_dc_payload(rec.format_prefix, rec.elements)
        + b"</metadata>")
    return (f'<record xmlns="{model.OAI_NS}">'.encode()
            + model.serialize_header(rec.header).encode()
            + metadata + b"</record>")


def _assert_same_record(back, rec):
    assert back.header == rec.header
    assert back.format_prefix == rec.format_prefix
    assert back.elements == rec.elements


def _header(ident="oai:x:1", deleted=False):
    return RecordHeader(
        identifier=ident,
        datestamp=datetime(2005, 8, 1, tzinfo=UTC),
        set_specs=("s1",) if not deleted else (),
        deleted=deleted,
    )


def test_serialize_escapes_ampersand():
    rec = MetadataRecord(
        header=_header(), format_prefix="oai_dc",
        elements=(DcElement("title", "A & B"),))
    out = _record_bytes(rec)
    assert b"A &amp; B" in out


def test_serialize_deleted_record_header_only():
    rec = MetadataRecord(header=_header(deleted=True), format_prefix="oai_dc")
    out = _record_bytes(rec)
    assert b'status="deleted"' in out
    assert b"<metadata>" not in out
    _assert_same_record(parse_record(out), rec)


def test_roundtrip_three_element_qualified_record():
    rec = MetadataRecord(
        header=_header(),
        format_prefix="nsdl_dc",
        elements=(
            DcElement("title", "T", language="en"),
            DcElement("identifier", "http://example.org/x", scheme="URI"),
            DcElement("description", "D", qualifier="abstract"),
        ),
    )
    back = parse_record(_record_bytes(rec), format_prefix="nsdl_dc")
    _assert_same_record(back, rec)


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FFF),
    min_size=0, max_size=40)
_nonempty = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1, max_size=20)

_element = st.builds(
    DcElement,
    name=st.sampled_from(sorted(model.DC_ELEMENTS)),
    value=_text,
    qualifier=st.one_of(st.none(), _nonempty),
    scheme=st.one_of(st.none(), _nonempty),
    language=st.one_of(st.none(), st.sampled_from(["en", "fr", "en-US"])),
)


@settings(max_examples=200, deadline=None)
@given(
    ident=_nonempty,
    stamp=st.datetimes(
        min_value=datetime(1990, 1, 1), max_value=datetime(2030, 1, 1)),
    sets=st.lists(_nonempty, max_size=3),
    elements=st.lists(_element, max_size=6),
    prefix=st.sampled_from(["oai_dc", "nsdl_dc"]),
)
def test_roundtrip_property(ident, stamp, sets, elements, prefix):
    header = RecordHeader(
        identifier=ident,
        datestamp=stamp.replace(microsecond=0, tzinfo=UTC),
        set_specs=tuple(sets))
    rec = MetadataRecord(header=header, format_prefix=prefix,
                         elements=tuple(elements))
    back = parse_record(_record_bytes(rec), format_prefix=prefix)
    _assert_same_record(back, rec)


def test_utf8_strictness_matches_reference_validator():
    rng = random.Random(42)
    template = _wrap_list(_record_xml("oai:x:1", title="PLACEHOLDER"))
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
        data = template.replace(b"PLACEHOLDER", blob)
        strictly_valid = True
        try:
            data.decode("utf-8", errors="strict")
        except UnicodeDecodeError:
            strictly_valid = False
        if not strictly_valid:
            with pytest.raises(WellFormednessError):
                parse_list_response(data)


# ---------------------------------------------------------------------------
# Identify

def test_parse_identify():
    data = (
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        "<responseDate>2006-01-25T12:00:00Z</responseDate><request>x</request>"
        "<Identify><repositoryName>Test Repo</repositoryName>"
        "<baseURL>http://example.org/oai</baseURL>"
        "<protocolVersion>2.0</protocolVersion>"
        "<adminEmail>admin@example.org</adminEmail>"
        "<earliestDatestamp>2002-12-01T00:00:00Z</earliestDatestamp>"
        "<deletedRecord>persistent</deletedRecord>"
        "<granularity>YYYY-MM-DDThh:mm:ssZ</granularity>"
        "</Identify></OAI-PMH>"
    ).encode()
    info = model.parse_identify(data)
    assert info.repository_name == "Test Repo"
    assert info.deleted_policy == "persistent"
    assert info.admin_emails == ("admin@example.org",)


def test_parse_identify_missing_repository_name():
    data = (
        f'<OAI-PMH xmlns="{model.OAI_NS}">'
        "<responseDate>2006-01-25T12:00:00Z</responseDate><request>x</request>"
        "<Identify><baseURL>http://example.org/oai</baseURL>"
        "<protocolVersion>2.0</protocolVersion>"
        "<earliestDatestamp>2002-12-01T00:00:00Z</earliestDatestamp>"
        "<deletedRecord>no</deletedRecord>"
        "<granularity>YYYY-MM-DDThh:mm:ssZ</granularity>"
        "</Identify></OAI-PMH>"
    ).encode()
    with pytest.raises(SchemaViolation):
        model.parse_identify(data)


# ---------------------------------------------------------------------------
# Response renderers, read back by the parser

_WIRE_TEXT = st.text(st.sampled_from("&<>\"' aZ09é€😀") | st.characters(
    blacklist_categories=("Cs", "Cc", "Cn")), max_size=12)


@settings(max_examples=300, deadline=None)
@given(token=_WIRE_TEXT, size=st.integers(0, 10**9),
       cursor=st.integers(0, 10**9), base_url=_WIRE_TEXT,
       prefix=_WIRE_TEXT, code=st.sampled_from(sorted(PROTOCOL_ERROR_CODES)),
       message=_WIRE_TEXT)
def test_rendered_responses_parse_back(token, size, cursor, base_url, prefix,
                                       code, message):
    now = datetime(2006, 1, 25, 12, tzinfo=UTC)
    body = ("<ListRecords>"
            f"{model.resumption_token_xml(token, size, cursor)}"
            "</ListRecords>").encode()
    page = parse_list_response(model.response_xml(
        now, base_url, "ListRecords", body, (("metadataPrefix", prefix),)))
    assert page.response_date == now
    assert page.token == model.ResumptionToken(token, size, cursor)
    with pytest.raises(OaiProtocolError) as e:
        parse_list_response(model.response_xml(
            now, base_url, None, model.error_xml(code, message).encode()))
    assert (e.value.code, e.value.message) == (code, message)
