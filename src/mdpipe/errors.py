"""Shared error types and the harvest failure taxonomy."""

from __future__ import annotations

from enum import Enum


class FailureCategory(Enum):
    """The three broad buckets every harvest failure falls into."""

    TRANSIENT = "Transient"
    PROTOCOL_VIOLATION = "ProtocolViolation"
    DATA_FORMAT = "DataFormat"


# ---------------------------------------------------------------------------
# Datestamp parsing

class DatestampError(ValueError):
    """Base for datestamp grammar rejections; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MalformedDatestamp(DatestampError):
    pass


class NonUtc(DatestampError):
    pass


class ExcessPrecision(DatestampError):
    pass


# ---------------------------------------------------------------------------
# Response parsing

class WellFormednessError(ValueError):
    """Broken XML or invalid UTF-8; byte_offset locates the first bad byte."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class SchemaViolation(ValueError):
    """Structurally valid XML that violates the expected response schema."""


class BadRecordDatestamp(SchemaViolation):
    """A record header datestamp outside the strict second-granularity
    profile; the validator files it under datestamp-format."""


PROTOCOL_ERROR_CODES = frozenset({
    "badArgument",
    "badResumptionToken",
    "badVerb",
    "cannotDisseminateFormat",
    "idDoesNotExist",
    "noRecordsMatch",
    "noMetadataFormats",
    "noSetHierarchy",
})


class OaiProtocolError(Exception):
    """A protocol-level <error> element declared by the server."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# Transport

class TransportError(Exception):
    """Network-level failure: DNS, connection refused, timeout."""


class HttpStatusError(TransportError):
    """Non-200 HTTP response."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"HTTP {status} {detail}".strip())
        self.status = status


# ---------------------------------------------------------------------------
# Registry / repository

class ValidationRequired(ValueError):
    """Registration attempted with a failing validation report."""


class DuplicateBaseUrlSet(ValueError):
    """A collection with the same (base_url, set, format) already exists."""


class UnknownCollection(KeyError):
    pass


class UnknownIdentifier(KeyError):
    pass


class MissingCollectionRecord(KeyError):
    pass


class IdentifierMismatch(ValueError):
    """dbInsert entry pairs an original and normalized record with different ids."""


class MalformedDocument(ValueError):
    pass


class TimeRegression(ValueError):
    """Simulator clock asked to move backwards."""


class UnparseableUrl(ValueError):
    pass


class FetchError(Exception):
    """Content fetch failed; kind is one of timeout, http-status, too-large, connection."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}".rstrip(": "))
        self.kind = kind
