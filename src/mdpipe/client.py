"""Harvesting client: ListRecords resumption-token chains, full and
incremental harvests, and the three-way failure classification.

The client is stateless between calls; watermark bookkeeping lives in the
registry. Transports are pluggable so tests can harvest an in-process
provider without sockets.
"""

from __future__ import annotations

import http.client
import logging
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Iterator, Protocol
from urllib.parse import urlencode

from . import model
from .errors import (
    DatestampError,
    FailureCategory,
    HttpStatusError,
    OaiProtocolError,
    SchemaViolation,
    TransportError,
    WellFormednessError,
)
from .model import ListResponse, MetadataRecord, format_datestamp

logger = logging.getLogger(__name__)


class Transport(Protocol):
    def get(self, url: str) -> bytes: ...


HTTP_TIMEOUT_S = 30.0
USER_AGENT = "mdpipe-harvester/0.1"
#: retries of a transient failure before a request gives up
MAX_RETRIES = 3
#: the first retry waits this long; each further retry doubles it
BACKOFF_BASE_S = 30.0


class HttpTransport:
    """Live HTTP transport. Any status but 200 raises HttpStatusError; a
    refused, dropped or timed-out connection and a malformed URL raise
    TransportError."""

    def get(self, url: str) -> bytes:
        try:
            request = urllib.request.Request(
                url, headers={"User-Agent": USER_AGENT})
            with urllib.request.urlopen(request,
                                        timeout=HTTP_TIMEOUT_S) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise HttpStatusError(exc.code) from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        if status != 200:
            raise HttpStatusError(status)
        return body


def classify_failure(error: BaseException) -> FailureCategory:
    """Deterministic total mapping from any harvest-time error to one of
    the three failure categories."""
    if isinstance(error, HttpStatusError):
        if error.status >= 500:
            return FailureCategory.TRANSIENT
        return FailureCategory.PROTOCOL_VIOLATION
    if isinstance(error, TransportError):
        return FailureCategory.TRANSIENT
    if isinstance(error, (WellFormednessError, SchemaViolation,
                          DatestampError)):
        return FailureCategory.DATA_FORMAT
    return FailureCategory.PROTOCOL_VIOLATION


@dataclass(frozen=True)
class HarvestResult:
    records: tuple[MetadataRecord, ...]
    pages_fetched: int
    success: bool
    category: FailureCategory | None = None
    failure_detail: str = ""
    completed_through: datetime | None = None

    def __post_init__(self):
        if not self.success and self.completed_through is not None:
            raise ValueError("failed harvests must not advance the watermark")


class OaiClient:
    def __init__(self, transport: Transport | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.transport = transport or HttpTransport()
        self.sleep = sleep

    # ------------------------------------------------------------------

    def _fetch(self, base_url: str, params: dict[str, str]) -> bytes:
        url = f"{base_url}?{urlencode(params)}"
        attempt = 0
        while True:
            try:
                return self.transport.get(url)
            except TransportError as exc:
                if (classify_failure(exc) is not FailureCategory.TRANSIENT
                        or attempt >= MAX_RETRIES):
                    raise
                delay = BACKOFF_BASE_S * (2 ** attempt)
                logger.info("transient failure (%s), retry %d in %.0fs",
                            exc, attempt + 1, delay)
                self.sleep(delay)
                attempt += 1

    def _pages(self, base_url: str, format_prefix: str,
               set_spec: str | None = None,
               from_: datetime | None = None,
               until: datetime | None = None) -> Iterator[ListResponse]:
        """Yield successive ListRecords pages, following the token chain."""
        params = {"verb": "ListRecords", "metadataPrefix": format_prefix}
        if set_spec:
            params["set"] = set_spec
        if from_:
            params["from"] = format_datestamp(from_)
        if until:
            params["until"] = format_datestamp(until)
        first = True
        while True:
            try:
                data = self._fetch(base_url, params)
                page = model.parse_list_response(data, format_prefix)
            except OaiProtocolError as exc:
                if exc.code == "noRecordsMatch" and first:
                    return
                raise
            yield page
            first = False
            if page.token is None or page.token.is_final:
                return
            params = {"verb": "ListRecords",
                      "resumptionToken": page.token.token}

    def list_records(self, base_url: str, format_prefix: str,
                     set_spec: str | None = None,
                     from_: datetime | None = None,
                     until: datetime | None = None) -> Iterator[MetadataRecord]:
        """Stream records across all pages in server order.

        A page-level failure aborts the stream; partial results must not be
        committed by the consumer.
        """
        if from_ is not None and until is not None and from_ > until:
            raise ValueError("from must be <= until")
        for page in self._pages(base_url, format_prefix, set_spec,
                                from_, until):
            yield from page.records

    def harvest(self, base_url: str, format_prefix: str,
                set_spec: str | None = None,
                mode: str = "full",
                since: datetime | None = None) -> HarvestResult:
        """Run a full or incremental harvest and categorize any failure.

        On success, completed_through is the provider's responseDate on the
        final page (the provider's clock anchors incremental windows).
        """
        if mode == "incremental" and since is None:
            raise ValueError("incremental harvest requires a since watermark")
        from_ = since if mode == "incremental" else None
        by_identifier: dict[str, MetadataRecord] = {}
        pages = 0
        last_response_date: datetime | None = None
        try:
            for page in self._pages(base_url, format_prefix, set_spec, from_):
                pages += 1
                if page.response_date is not None:
                    last_response_date = page.response_date
                for rec in page.records:
                    ident = rec.header.identifier
                    if ident in by_identifier:
                        logger.warning(
                            "duplicate record %r across pages; keeping the "
                            "last occurrence", ident)
                        del by_identifier[ident]
                    by_identifier[ident] = rec
        except Exception as exc:
            return HarvestResult(
                records=tuple(by_identifier.values()),
                pages_fetched=pages,
                success=False,
                category=classify_failure(exc),
                failure_detail=str(exc),
            )
        return HarvestResult(
            records=tuple(by_identifier.values()),
            pages_fetched=pages,
            success=True,
            completed_through=last_response_date,
        )
