import random
import re
from datetime import datetime, timezone
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from mdpipe import ingest, model
from mdpipe.errors import IdentifierMismatch, MalformedDocument
from mdpipe.ingest import (
    DbInsertDocument,
    NormalizedRecord,
    TransformConfig,
    build_db_insert,
    parse_db_insert,
    safe_transform,
    scrub_uri,
    serialize_db_insert,
    validate_normalized,
)
from mdpipe.model import DcElement, MetadataRecord, RecordHeader

UTC = timezone.utc
CFG = TransformConfig.default()


def _record(elements, ident="oai:test:1", prefix="oai_dc"):
    header = RecordHeader(identifier=ident,
                          datestamp=datetime(2005, 8, 1, tzinfo=UTC))
    raw = model.serialize_dc_payload(prefix, tuple(elements))
    return MetadataRecord(header=header, format_prefix=prefix,
                          elements=tuple(elements), raw_xml=raw)


# ---------------------------------------------------------------------------
# scrub_uri

def test_scrub_encodes_spaces():
    assert scrub_uri("http://example.org/a b.pdf") == "http://example.org/a%20b.pdf"


def test_scrub_rejects_non_http_ftp():
    assert scrub_uri("doi:10.1000/182") is None
    assert scrub_uri("mailto:x@example.org") is None
    assert scrub_uri("") is None


def test_scrub_trims_and_lowercases_scheme():
    assert scrub_uri(" HTTP://example.org/x ") == "http://example.org/x"
    assert scrub_uri("FTP://Host/File") == "ftp://Host/File"


def test_scrub_irreparable_escape():
    assert scrub_uri("ftp://host/file%ZZ") is None
    assert scrub_uri("http://host/a%2") is None


def test_scrub_keeps_valid_escapes():
    assert scrub_uri("http://host/a%20b") == "http://host/a%20b"


def test_scrub_is_idempotent_over_fuzz_corpus():
    rng = random.Random(7)
    chars = "abz%20 /:?#[]@!$&'()*+,;=~.-_ZÄ日"
    for _ in range(5000):
        s = "http://h/" + "".join(
            rng.choice(chars) for _ in range(rng.randint(0, 15)))
        once = scrub_uri(s)
        if once is not None:
            assert scrub_uri(once) == once, s


def test_scrub_refuses_a_value_utf8_cannot_encode():
    assert scrub_uri("http://host/a\ud800b") is None


_UNSAFE = set(' <>"{}|\\^`')


@settings(max_examples=500, deadline=None)
@given(prefix=st.sampled_from(["http://", "HTTP://", "fTp://", " http://",
                               "https://", "http:/", ""]),
       rest=st.text(st.one_of(st.sampled_from('%%%aF9/?#@:[]<>"{}|\\^` \t'),
                              st.characters())))
def test_scrub_result_is_none_or_fetchable(prefix, rest):
    out = scrub_uri(prefix + rest)
    if out is None:
        return
    assert all(0x21 <= ord(c) <= 0x7E and c not in _UNSAFE for c in out)
    assert all(re.match(r"%[0-9A-Fa-f]{2}", out[i:])
               for i, c in enumerate(out) if c == "%")
    assert urlsplit(out).netloc
    assert scrub_uri(out) == out


# ---------------------------------------------------------------------------
# safe_transform

def test_stop_phrase_dropped():
    rec = _record([DcElement("description", "no abstract submitted"),
                   DcElement("title", "Keep me")])
    out = safe_transform(rec)
    assert [e.name for e in out.elements] == ["title"]
    assert ingest.RULE_DROP_NO_VALUE in out.transform_log


def test_whitespace_collapse():
    rec = _record([DcElement("title", "  A\t\tB  ")])
    out = safe_transform(rec)
    assert out.elements[0].value == "A B"
    assert ingest.RULE_WHITESPACE in out.transform_log


def test_duplicate_elements_first_kept():
    rec = _record([DcElement("subject", "physics"),
                   DcElement("title", "T"),
                   DcElement("subject", "physics")])
    out = safe_transform(rec)
    assert [e.name for e in out.elements] == ["subject", "title"]
    assert ingest.RULE_DEDUP in out.transform_log


def test_identifier_qualified_as_uri():
    rec = _record([DcElement("identifier", "http://example.org/a b")])
    out = safe_transform(rec)
    el = out.elements[0]
    assert el.scheme == "URI"
    assert el.value == "http://example.org/a%20b"
    assert ingest.RULE_QUALIFY_URI in out.transform_log


def test_non_url_identifier_left_plain():
    rec = _record([DcElement("identifier", "doi:10.1000/182"),
                   DcElement("title", "T")])
    out = safe_transform(rec)
    assert out.elements[0].scheme is None


def test_dcmi_type_qualified():
    rec = _record([DcElement("type", "text"), DcElement("title", "T")])
    out = safe_transform(rec)
    assert out.elements[0].value == "Text"
    assert out.elements[0].scheme == "DCMIType"


def test_language_normalized():
    rec = _record([DcElement("language", "English"), DcElement("title", "T")])
    out = safe_transform(rec)
    assert out.elements[0].value == "en"
    rec2 = _record([DcElement("language", "EN_us"), DcElement("title", "T")])
    assert safe_transform(rec2).elements[0].value == "en-US"


def test_declared_uri_downgraded():
    for value in ("not a url", "ftp://host/file%ZZ"):
        rec = _record([DcElement("identifier", value, scheme="URI"),
                       DcElement("title", "T")], prefix="nsdl_dc")
        out = safe_transform(rec)
        assert out.elements[0] == DcElement("identifier", value), value
        assert ingest.RULE_DOWNGRADE_URI in out.transform_log, value


def test_already_normalized_record_has_empty_log():
    rec = _record([DcElement("title", "Clean Title"),
                   DcElement("identifier", "http://example.org/x", scheme="URI")],
                  prefix="nsdl_dc")
    out = safe_transform(rec)
    assert out.elements == rec.elements
    assert out.transform_log == ()


def _random_record(rng: random.Random) -> MetadataRecord:
    names = sorted(model.DC_ELEMENTS)
    values = [
        "no abstract submitted", "N/A", "  spaced   out  ", "plain value",
        "http://Example.org/a b", "doi:10.1000/1", "English", "eng", "text",
        "Text", "ftp://host/file%ZZ", "http://host/ok", "", "A & B < C",
    ]
    elements = []
    for _ in range(rng.randint(0, 8)):
        name = rng.choice(names)
        value = rng.choice(values)
        scheme = rng.choice([None, None, None, "URI"])
        elements.append(DcElement(name=name, value=value, scheme=scheme))
    return _record(elements, ident=f"oai:test:{rng.randrange(10**6)}")


def test_transform_idempotent_over_fuzz_corpus():
    rng = random.Random(1234)
    for _ in range(2000):
        rec = _random_record(rng)
        once = safe_transform(rec)
        again_input = _record(once.elements, ident=rec.header.identifier)
        twice = safe_transform(again_input)
        assert twice.elements == once.elements


def test_monotone_information_no_invented_values():
    rng = random.Random(99)
    for _ in range(500):
        rec = _random_record(rng)
        out = safe_transform(rec)
        inputs = [e.value for e in rec.elements]
        for el in out.elements:
            derivable = any(
                el.value == v
                or el.value == " ".join(v.split())
                or el.value == scrub_uri(v)
                or el.value == CFG.dcmi_types.get(v.lower())
                or el.value == ingest._normalize_language(v, CFG.languages)
                for v in inputs)
            assert derivable, el


def test_downgrade_safety_no_false_uri_claims_survive():
    rng = random.Random(5)
    for _ in range(500):
        out = safe_transform(_random_record(rng))
        for el in out.elements:
            if el.scheme == "URI":
                assert model.is_absolute_uri(el.value)


def test_uri_typed_dcmi_type_downgraded_and_qualified_in_one_application():
    rec = _record([DcElement("type", "text", scheme="URI"),
                   DcElement("title", "T")], prefix="nsdl_dc")
    out = safe_transform(rec)
    assert out.elements[0] == DcElement("type", "Text", scheme="DCMIType")
    assert out.transform_log == (ingest.RULE_DOWNGRADE_URI,
                                 ingest.RULE_QUALIFY_DCMI_TYPE)
    again = safe_transform(_record(out.elements))
    assert again.elements == out.elements
    assert again.transform_log == ()


def test_spaced_stop_phrases_dropped_in_one_application_fire_only_drop():
    # neither the collapse nor a URI downgrade or dedup of a dropped
    # element is logged
    rec = _record([DcElement("description", "not  available"),
                   DcElement("rights", "N/A\u00a0"),
                   DcElement("identifier", "Not\tAvailable", scheme="URI"),
                   DcElement("identifier", "not available", scheme="URI"),
                   DcElement("title", "T")], prefix="nsdl_dc")
    out = safe_transform(rec)
    assert out.elements == (DcElement("title", "T"),)
    assert out.transform_log == (ingest.RULE_DROP_NO_VALUE,)


# The one-application fixed point rests on these properties of the
# shipped vocabularies (see TransformConfig).

def test_language_map_values_normalize_to_themselves():
    for value in CFG.languages.values():
        assert ingest._normalize_language(value, CFG.languages) == value


def test_no_vocabulary_value_is_a_stop_phrase():
    for value in CFG.languages.values():
        assert value.lower() not in CFG.stop_phrases
    for lowered in CFG.dcmi_types:
        assert lowered not in CFG.stop_phrases


def test_stop_phrases_are_collapsed():
    for phrase in CFG.stop_phrases:
        assert " ".join(phrase.split()) == phrase


def _mangled(phrase: str):
    """The phrase with random casing, inner whitespace and padding."""
    def mangle(case_bits, gaps, pad):
        words = phrase.split(" ")
        out = gaps[0] if pad else ""
        for i, word in enumerate(words):
            out += "".join(c.upper() if (case_bits >> (n % 16)) & 1 else c
                           for n, c in enumerate(word))
            if i < len(words) - 1:
                out += gaps[i % len(gaps)]
        return out + (gaps[-1] if pad else "")
    gap = st.text(alphabet=" \t\n\u00a0", min_size=1, max_size=3)
    return st.builds(mangle, st.integers(0, 2**16 - 1),
                     st.lists(gap, min_size=1, max_size=4), st.booleans())


_WORDS = st.one_of(
    st.sampled_from(sorted(CFG.stop_phrases)),
    st.sampled_from(sorted(CFG.dcmi_types.values())),
    st.sampled_from(sorted(
        set(CFG.languages) | set(CFG.languages.values())
        | {"EN_us", "en-gb", "fre-CA", "eng_ca", "xyz-ab", "pt_BR",
           "zh-hant", "e", "english us"})))

_ADVERSARIAL_VALUES = st.one_of(
    _WORDS,
    _WORDS.flatmap(_mangled),
    st.sampled_from(["http://Example.org/a b", "HTTP://host/x%2",
                     "ftp://host/file%ZZ", "http://host/%41\u00a0",
                     "ftp://Host/ä b", "http://[", "http://", "doi:10.1/2",
                     " http://host/ok ", "urn:isbn:1"]),
    st.text(alphabet="aZé日 \t\u00a0/:%<&", max_size=12),
)


@st.composite
def _adversarial_records(draw):
    element = st.builds(
        DcElement,
        name=st.sampled_from(["identifier", "type", "language",
                              "identifier", "type", "language", "title",
                              "description"]),
        value=_ADVERSARIAL_VALUES,
        qualifier=st.sampled_from([None, None, "alternative"]),
        scheme=st.sampled_from([None, None, "URI", "URI", "DCMIType",
                                "ISO639"]),
        language=st.sampled_from([None, "en"]))
    elements = draw(st.lists(element, max_size=8))
    if elements:
        copies = draw(st.lists(st.sampled_from(elements), max_size=3))
        for el in copies:
            elements.insert(draw(st.integers(0, len(elements))), el)
    return _record(elements, prefix="nsdl_dc")


@settings(max_examples=500, deadline=None)
@given(record=_adversarial_records())
def test_transform_is_fixed_point_after_one_application(record):
    once = safe_transform(record)
    twice = safe_transform(_record(once.elements, prefix="nsdl_dc"))
    assert twice.elements == once.elements
    assert twice.transform_log == ()


# ---------------------------------------------------------------------------
# validate_normalized

def test_validate_clean_record():
    rec = NormalizedRecord("oai:x:1", (DcElement("title", "T"),))
    assert validate_normalized(rec) == []


def test_validate_unknown_qualifier():
    rec = NormalizedRecord(
        "oai:x:1",
        (DcElement("title", "T"), DcElement("subject", "9", qualifier="gradeLevel2")))
    v = validate_normalized(rec)
    assert len(v) == 1
    assert v[0].rule == "qualifier"


def test_validate_empty_record_violates_min_content():
    rec = NormalizedRecord("oai:x:1", ())
    v = validate_normalized(rec)
    assert any(x.rule == "min-content" for x in v)


# ---------------------------------------------------------------------------
# dbInsert

def _pair(ident, title="T"):
    rec = _record([DcElement("title", title)], ident=ident)
    return rec, safe_transform(rec)


def test_db_insert_roundtrip():
    doc = build_db_insert([_pair("oai:x:1"), _pair("oai:x:2", "U")],
                          "coll-1", "attempt-1")
    data = serialize_db_insert(doc)
    back = parse_db_insert(data)
    assert back.collection_id == "coll-1"
    assert back.harvest_attempt_id == "attempt-1"
    assert len(back.entries) == 2
    for orig_entry, new_entry in zip(doc.entries, back.entries):
        # header, format prefix, elements and the verbatim raw_xml bytes
        assert new_entry.original == orig_entry.original
        assert new_entry.normalized == orig_entry.normalized


def test_db_insert_preserves_original_bytes_exactly():
    rec = _record([DcElement("title", "A & B")], ident="oai:x:raw")
    doc = build_db_insert([(rec, safe_transform(rec))], "c", "a")
    back = parse_db_insert(serialize_db_insert(doc))
    assert back.entries[0].original.raw_xml == rec.raw_xml


def _db_insert_bytes():
    return serialize_db_insert(build_db_insert([_pair("oai:x:1")], "c", "a"))


def _without(data, start, end):
    """``data`` with the span from ``start`` through ``end`` cut out."""
    i = data.index(start)
    return data[:i] + data[data.index(end, i) + len(end):]


def _child_after_entry(data):
    normalized = data[data.index(b"<normalized"):data.index(b"</entry>")]
    return data.replace(b"</entry>", b"</entry>" + normalized)


@pytest.mark.parametrize("broken", [
    lambda d: d.replace(b"<dbInsert", b"<dbinsert").replace(
        b"</dbInsert>", b"</dbinsert>"),
    _child_after_entry,
    lambda d: _without(d, b"<original", b"</original>"),
    lambda d: _without(d, b"<normalized", b"</normalized>"),
    lambda d: re.sub(rb"(<normalized[^>]*>).*(</normalized>)", rb"\1\2", d),
    lambda d: d.replace(b' collection="c"', b""),
    lambda d: d.replace(b' attempt="a"', b""),
], ids=["wrong-root", "child-after-closed-entry", "no-original",
        "no-normalized", "empty-normalized", "no-collection", "no-attempt"])
def test_db_insert_malformed_document(broken):
    data = broken(_db_insert_bytes())
    assert data != _db_insert_bytes()
    with pytest.raises(MalformedDocument):
        parse_db_insert(data)


def test_db_insert_identifier_mismatch():
    rec = _record([DcElement("title", "T")], ident="oai:x:1")
    norm = NormalizedRecord("oai:x:OTHER", (DcElement("title", "T"),))
    with pytest.raises(IdentifierMismatch):
        build_db_insert([(rec, norm)], "c", "a")


def test_db_insert_scale_roundtrip():
    pairs = [_pair(f"oai:x:{i}", f"Title {i}") for i in range(2000)]
    doc = build_db_insert(pairs, "c", "a")
    back = parse_db_insert(serialize_db_insert(doc))
    assert len(back.entries) == 2000
    assert back.entries[1999].original.header.identifier == "oai:x:1999"
