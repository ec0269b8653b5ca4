"""Safe-transform normalization and dbInsert staging.

The transform applies one global rule set to every record; there are no
collection-specific branches. Each element passes the rules once, in a
fixed order, and the whole transform is a fixed point: applying it twice
changes nothing.

A dbInsert document pairs each original record, byte for byte, with its
normalized form. ``parse_db_insert`` reads it with ``model.read_xml``, the
same reader as OAI responses.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from urllib.parse import quote, urlsplit
from xml.sax.saxutils import quoteattr

from . import model
from .errors import IdentifierMismatch, MalformedDocument
from .model import PERCENT_ESCAPE, DcElement, MetadataRecord, is_absolute_uri

DBINSERT_NS = "urn:x-mdpipe:dbinsert"
#: the two children of a dbInsert <entry>, each wrapping one payload
_ENTRY_CHILDREN = ("original", "normalized")

RULE_DROP_NO_VALUE = "drop-no-value"
RULE_WHITESPACE = "whitespace"
RULE_DEDUP = "dedup"
RULE_QUALIFY_URI = "qualify-uri"
RULE_QUALIFY_DCMI_TYPE = "qualify-dcmi-type"
RULE_NORMALIZE_LANGUAGE = "normalize-language"
RULE_SCRUB_URI = "scrub-uri"
RULE_DOWNGRADE_URI = "downgrade-uri"


def _load_data(name: str) -> dict:
    with resources.files("mdpipe.data").joinpath(name).open("rb") as f:
        return json.load(f)


@dataclass(frozen=True)
class Profile:
    """A qualified-DC application profile: allowed qualifiers and schemes."""

    schemes: frozenset[str]
    qualifiers: dict[str, tuple[str, ...]]

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        return cls(
            schemes=frozenset(data.get("schemes", [])),
            qualifiers={k: tuple(v) for k, v in data.get("qualifiers", {}).items()},
        )


@functools.cache
def _profile() -> Profile:
    """The one profile every record is validated against, read once."""
    return Profile.from_dict(_load_data("profile.json"))


@dataclass(frozen=True)
class TransformConfig:
    """The safe transform's vocabularies, read once per process from the
    data files shipped in ``mdpipe.data``.

    ``safe_transform`` is a fixed point in one application only if these
    hold: every stop phrase is lowercase with single inner spaces (its own
    collapsed form); no language-map value and no lowercased DCMI type is
    a stop phrase; and every language-map value normalizes to itself.
    """

    stop_phrases: frozenset[str]
    dcmi_types: dict[str, str]          # lowercase -> canonical casing
    languages: dict[str, str]           # lowercase -> normalized tag

    @classmethod
    @functools.cache
    def default(cls) -> "TransformConfig":
        phrases = _load_data("stop_phrases.json")["phrases"]
        types = _load_data("dcmi_types.json")["types"]
        return cls(
            stop_phrases=frozenset(p.lower() for p in phrases),
            dcmi_types={t.lower(): t for t in types},
            languages=dict(_load_data("languages.json")["map"]),
        )


@dataclass(frozen=True)
class NormalizedRecord:
    source_identifier: str
    elements: tuple[DcElement, ...]
    transform_log: tuple[str, ...] = ()


@dataclass(frozen=True)
class DbInsertEntry:
    original: MetadataRecord
    normalized: NormalizedRecord


@dataclass(frozen=True)
class DbInsertDocument:
    entries: tuple[DbInsertEntry, ...]
    collection_id: str
    harvest_attempt_id: str


# ---------------------------------------------------------------------------
# URI scrubbing

_FETCHABLE_SCHEME = re.compile(r"(http|ftp)://", re.ASCII | re.IGNORECASE)
# runs of characters a URL may not carry unencoded: controls, space,
# non-ASCII and the RFC 1738 unsafe set
_UNSAFE_RUN = re.compile(r'(?:[^\x21-\x7e]|[<>"{}|\\^`])+')


def scrub_uri(value: str) -> str | None:
    """Repair an http/ftp URL value into syntactically fetchable form.

    Returns None (NotFetchable) for non-http/ftp values, for values with
    irreparable percent escapes, and for values that UTF-8 cannot encode
    (a lone surrogate).
    """
    v = value.strip()
    scheme = _FETCHABLE_SCHEME.match(v)
    # a % left once every valid escape is removed is irreparable
    if scheme is None or "%" in PERCENT_ESCAPE.sub("", v):
        return None
    try:
        result = (scheme[1].lower() + "://"
                  + _UNSAFE_RUN.sub(lambda m: quote(m[0], safe=""),
                                    v[scheme.end():]))
        netloc = urlsplit(result).netloc
    except ValueError:   # UnicodeEncodeError from quote, or a bad netloc
        return None
    return result if netloc else None


# ---------------------------------------------------------------------------
# Safe transform

_LANG_TAG = re.compile(r"^([a-z]{2,3})(?:[-_]([a-z0-9]{2,8}))?$")


def _normalize_language(value: str, table: dict[str, str]) -> str:
    key = value.strip().lower().replace("_", "-")
    if key in table:
        return table[key]
    if key.replace("-", "_") in table:
        return table[key.replace("-", "_")]
    m = _LANG_TAG.match(key)
    if m:
        primary, region = m.groups()
        primary = table.get(primary, primary)
        if region:
            return f"{primary}-{region.upper()}"
        return primary
    return value


def safe_transform(record: MetadataRecord,
                   config: TransformConfig | None = None) -> NormalizedRecord:
    """Normalize a harvested DC record into the qualified-DC profile.

    Each element is rewritten once, in this order: collapse whitespace;
    drop it if the collapsed value is a stop phrase; scrub a declared URI,
    or downgrade it to an unqualified value if it cannot be repaired;
    qualify identifiers, DCMI types and languages. Exact duplicates are
    then dropped, first occurrence wins. No step re-enables an earlier
    one, so one application is the fixed point: a second changes nothing
    and fires no rule (given the preconditions on TransformConfig).
    """
    if config is None:
        config = TransformConfig.default()
    log: list[str] = []

    def fire(rule: str):
        if rule not in log:
            log.append(rule)

    elements: list[DcElement] = []
    seen: set[DcElement] = set()
    for el in record.elements:
        el = _rewrite(el, config, fire)
        if el is None:
            continue
        if el in seen:
            fire(RULE_DEDUP)
            continue
        seen.add(el)
        elements.append(el)

    return NormalizedRecord(
        source_identifier=record.header.identifier,
        elements=tuple(elements),
        transform_log=tuple(log),
    )


def _rewrite(el: DcElement, config: TransformConfig,
             fire) -> DcElement | None:
    """Apply every per-element rule to one element; None drops it. A
    dropped element fires only the drop rule."""
    value = " ".join(el.value.split())
    if value.lower() in config.stop_phrases:
        fire(RULE_DROP_NO_VALUE)
        return None
    if value != el.value:
        fire(RULE_WHITESPACE)

    scheme = el.scheme
    if scheme == "URI":
        scrubbed = scrub_uri(value)
        if scrubbed is None:
            fire(RULE_DOWNGRADE_URI)
            scheme = None
        elif scrubbed != value:
            fire(RULE_SCRUB_URI)
            value = scrubbed

    if el.name == "identifier" and scheme is None:
        scrubbed = scrub_uri(value)
        if scrubbed is not None:
            fire(RULE_QUALIFY_URI)
            value, scheme = scrubbed, "URI"
    elif el.name == "type" and scheme is None:
        canonical = config.dcmi_types.get(value.lower())
        if canonical is not None:
            fire(RULE_QUALIFY_DCMI_TYPE)
            value, scheme = canonical, "DCMIType"
    elif el.name == "language":
        normalized = _normalize_language(value, config.languages)
        if normalized != value:
            fire(RULE_NORMALIZE_LANGUAGE)
            value = normalized

    if value == el.value and scheme == el.scheme:
        return el
    return DcElement(name=el.name, value=value, qualifier=el.qualifier,
                     scheme=scheme, language=el.language)


# ---------------------------------------------------------------------------
# Profile validation

@dataclass(frozen=True)
class Violation:
    rule: str
    message: str


def validate_normalized(record: NormalizedRecord) -> list[Violation]:
    """Check a normalized record against the qualified-DC profile.

    An empty list means clean. A record must keep at least one identifier
    or title to stay indexable.
    """
    profile = _profile()
    violations: list[Violation] = []
    for el in record.elements:
        if el.qualifier is not None:
            allowed = profile.qualifiers.get(el.name, ())
            if el.qualifier not in allowed:
                violations.append(Violation(
                    "qualifier",
                    f"qualifier {el.qualifier!r} not allowed on {el.name}"))
        if el.scheme is not None and el.scheme not in profile.schemes:
            violations.append(Violation(
                "scheme", f"unknown encoding scheme {el.scheme!r}"))
        if el.scheme == "URI" and not is_absolute_uri(el.value):
            violations.append(Violation(
                "uri-value", f"not an absolute URI: {el.value!r}"))
    if not any(el.name in ("identifier", "title") for el in record.elements):
        violations.append(Violation(
            "min-content", "record retains neither an identifier nor a title"))
    return violations


# ---------------------------------------------------------------------------
# dbInsert document

def build_db_insert(pairs: list[tuple[MetadataRecord, NormalizedRecord]],
                    collection_id: str,
                    attempt_id: str) -> DbInsertDocument:
    if not pairs:
        raise MalformedDocument("dbInsert document needs at least one entry")
    entries = []
    for original, normalized in pairs:
        if original.header.identifier != normalized.source_identifier:
            raise IdentifierMismatch(
                f"{original.header.identifier!r} != "
                f"{normalized.source_identifier!r}")
        entries.append(DbInsertEntry(original=original, normalized=normalized))
    return DbInsertDocument(entries=tuple(entries),
                            collection_id=collection_id,
                            harvest_attempt_id=attempt_id)


def _serialize_original(record: MetadataRecord) -> bytes:
    """Original records keep their harvested payload bytes verbatim."""
    parts = [b"<record>", model.serialize_header(record.header).encode()]
    if not record.header.deleted:
        parts.append(b"<metadata>")
        parts.append(record.raw_xml)
        parts.append(b"</metadata>")
    parts.append(b"</record>")
    return b"".join(parts)


def serialize_db_insert(doc: DbInsertDocument) -> bytes:
    parts = [
        (f'<dbInsert xmlns={quoteattr(DBINSERT_NS)} version="1"'
         f" collection={quoteattr(doc.collection_id)}"
         f" attempt={quoteattr(doc.harvest_attempt_id)}>").encode()
    ]
    for entry in doc.entries:
        parts.append(
            f"<entry><original format={quoteattr(entry.original.format_prefix)}>"
            .encode())
        parts.append(_serialize_original(entry.original))
        parts.append(b"</original>")
        log = ",".join(entry.normalized.transform_log)
        parts.append(f"<normalized log={quoteattr(log)}>".encode())
        parts.append(model.serialize_dc_payload("nsdl_dc",
                                                entry.normalized.elements))
        parts.append(b"</normalized></entry>")
    parts.append(b"</dbInsert>")
    return b"".join(parts)


def parse_db_insert(data: bytes) -> DbInsertDocument:
    """Read a dbInsert document: a ``<dbInsert collection= attempt=>`` root
    whose ``<entry>`` elements each hold an ``<original format=>`` wrapping
    the harvested ``<record>`` and a ``<normalized log=>`` wrapping its
    normalized DC container. Each child keeps its exact bytes. A wrong
    root, a child outside an open entry, or a missing child or root
    attribute raises MalformedDocument."""
    root_attrs: dict[str, str] = {}
    entries: list[dict] = []
    entry: dict | None = None       # the open <entry>
    wrapper = ""                    # the entry child opened last

    def start(local, attrs, depth):
        nonlocal entry, wrapper
        if depth == 1:
            if local != "dbInsert":
                raise MalformedDocument(f"unexpected root {local!r}")
            root_attrs.update(attrs)
        elif local == "entry":
            entry = {}
        elif local in _ENTRY_CHILDREN:
            if entry is None:
                raise MalformedDocument(f"{local} outside an entry")
            entry[f"{local}_attrs"] = attrs
            wrapper = local

    def end(local, text):
        nonlocal entry
        if local == "entry" and entry is not None:
            entries.append(entry)
            entry = None

    def payload(begin, stop):
        entry[wrapper] = data[begin:stop]

    model.read_xml(data, _ENTRY_CHILDREN, start, end, payload)
    collection_id = root_attrs.get("collection")
    attempt_id = root_attrs.get("attempt")
    if not collection_id or not attempt_id:
        raise MalformedDocument("dbInsert missing collection/attempt attributes")
    parsed = []
    for e in entries:
        if "original" not in e or "normalized" not in e:
            raise MalformedDocument("entry missing original or normalized child")
        fmt = e["original_attrs"].get("format", "oai_dc")
        original = model.parse_record(e["original"], format_prefix=fmt)
        log = tuple(t for t in e["normalized_attrs"].get("log", "").split(",") if t)
        parsed.append(DbInsertEntry(
            original=original,
            normalized=NormalizedRecord(
                source_identifier=original.header.identifier,
                elements=model.parse_dc_payload(e["normalized"], "nsdl_dc"),
                transform_log=log),
        ))
    return DbInsertDocument(entries=tuple(parsed),
                            collection_id=collection_id,
                            harvest_attempt_id=attempt_id)
