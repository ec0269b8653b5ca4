"""OAI-PMH data-provider endpoint over an immutable serving snapshot.

Read-only: the only mutation is swapping in a newly published snapshot.
Resumption tokens are stateless: the query state is signed and encoded in
the token itself, bound to the snapshot it was minted against, so a publish
invalidates outstanding tokens and harvesters restart their lists.

A token is ``<blob>.<sig>``: the blob is the unpadded urlsafe base64 of a
JSON object with a fixed key set (``exp``, ``from``, ``pos``, ``prefix``,
``set``, ``snap``, ``until``), written directly in the bytes
``json.dumps(..., sort_keys=True)`` would give; the sig is the first 16 hex
digits of its HMAC-SHA256. Each server keys one HMAC when it is built, and
every sign and verify copies it. The ``from``/``until`` window travels as
the datestamp text the request carried, so a page parses it once and never
formats it back. Every request still checks the signature, the snapshot and
the expiry.

Responses are assembled as bytes from ``model``'s renderers, which the
simulator shares. A record is the ``<header>`` its snapshot rendered once
(``ServingSnapshot.header`` and ``select``) followed by its stored export
payload, so serving a page formats, escapes and re-encodes nothing per
record.

``serve_http`` is the one HTTP front: it serves this endpoint for
``mdpipe serve-oai`` and the simulator for ``mdpipe simulate``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac
import http.server
import json
import logging
import secrets as _secrets
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from json.encoder import encode_basestring_ascii
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from . import model
from .errors import OaiProtocolError
from .model import format_datestamp, parse_datestamp
from .repository import EXPORT_FORMATS, ServingSnapshot, StoredRecord

logger = logging.getLogger(__name__)

#: how long a minted resumption token stays valid
TOKEN_TTL = timedelta(hours=1)


def _json_text(text: str | None) -> str:
    """``text`` as ``json.dumps`` writes it: ASCII-escaped, or null."""
    return "null" if text is None else encode_basestring_ascii(text)


@dataclass(frozen=True)
class ServerConfig:
    page_size: int = 10
    repository_name: str = "mdpipe aggregator"
    base_url: str = "http://localhost:8080/oai"
    admin_email: str = "admin@example.org"

    def __post_init__(self):
        if self.page_size < 1:
            raise ValueError("page_size must be >= 1")


_VERB_ARGS = {
    "Identify": set(),
    "ListMetadataFormats": {"identifier"},
    "ListSets": {"resumptionToken"},
    "ListIdentifiers": {"metadataPrefix", "from", "until", "set",
                        "resumptionToken"},
    "ListRecords": {"metadataPrefix", "from", "until", "set",
                    "resumptionToken"},
    "GetRecord": {"identifier", "metadataPrefix"},
}


class OaiServer:
    def __init__(self, config: ServerConfig, snapshot: ServingSnapshot,
                 clock: Callable[[], datetime] | None = None,
                 secret: bytes | None = None):
        self.config = config
        self.snapshot = snapshot
        self.clock = clock or (lambda: datetime.now(timezone.utc))
        self._mac = hmac.new(secret or _secrets.token_bytes(32),
                             digestmod=hashlib.sha256)

    # ------------------------------------------------------------------
    # Tokens

    def _sign(self, blob: bytes) -> bytes:
        """The first 16 hex digits of ``blob``'s HMAC. Only copies of the
        keyed MAC are updated, so request threads can share it."""
        mac = self._mac.copy()
        mac.update(blob)
        return mac.hexdigest()[:16].encode()

    def mint_token(self, prefix: str, set_spec: str | None,
                   from_: str | None, until: str | None,
                   position: int) -> str:
        """The token for ``position`` in a list. ``from_``/``until`` are
        the window's datestamp text; None leaves a bound open."""
        exp = format_datestamp(self.clock() + TOKEN_TTL)
        payload = (
            f'{{"exp": "{exp}", "from": {_json_text(from_)}, '
            f'"pos": {position}, "prefix": {_json_text(prefix)}, '
            f'"set": {_json_text(set_spec)}, '
            f'"snap": {_json_text(self.snapshot.snapshot_id)}, '
            f'"until": {_json_text(until)}}}')
        blob = base64.urlsafe_b64encode(payload.encode()).rstrip(b"=")
        return (blob + b"." + self._sign(blob)).decode()

    def resolve_token(self, token: str) -> dict:
        """Raises OaiProtocolError(badResumptionToken) for garbage, expired,
        or stale-snapshot tokens."""
        try:
            # a ValueError: no "." or a character outside ASCII
            blob, sig = token.encode("ascii").rsplit(b".", 1)
        except ValueError:
            raise OaiProtocolError("badResumptionToken", "malformed token")
        if not hmac.compare_digest(sig, self._sign(blob)):
            raise OaiProtocolError("badResumptionToken", "bad signature")
        try:
            padded = blob + b"=" * (-len(blob) % 4)
            payload = json.loads(base64.urlsafe_b64decode(padded))
        except (ValueError, binascii.Error):
            raise OaiProtocolError("badResumptionToken", "undecodable token")
        if payload.get("snap") != self.snapshot.snapshot_id:
            raise OaiProtocolError("badResumptionToken",
                                   "token from a superseded snapshot")
        try:
            expires = parse_datestamp(payload["exp"])
        except (KeyError, ValueError):
            raise OaiProtocolError("badResumptionToken", "missing expiry")
        if self.clock() > expires:
            raise OaiProtocolError("badResumptionToken", "token expired")
        return payload

    # ------------------------------------------------------------------
    # Request handling

    def handle_request(self, verb: str, args: dict[str, str],
                       now: datetime | None = None) -> bytes:
        if now is None:
            now = self.clock()
        try:
            return self._dispatch(verb, dict(args), now)
        except OaiProtocolError as exc:
            return self._error_response(verb, exc.code, exc.message)

    def _dispatch(self, verb, args, now):
        allowed = _VERB_ARGS.get(verb)
        if allowed is None:
            return self._error_response(None, "badVerb",
                                        f"unknown verb {verb!r}")
        extra = set(args) - allowed
        if extra:
            raise OaiProtocolError(
                "badArgument", f"illegal arguments: {sorted(extra)}")
        if "resumptionToken" in args and len(args) > 1:
            raise OaiProtocolError(
                "badArgument", "resumptionToken must be an exclusive argument")
        if verb == "Identify":
            return self._identify(now)
        if verb == "ListMetadataFormats":
            return self._list_metadata_formats(args, now)
        if verb == "ListSets":
            return self._list_sets(now)
        if verb == "GetRecord":
            return self._get_record(args, now)
        return self._list(verb, args, now)

    # -- envelope helpers

    def _envelope(self, verb: str | None, body: bytes, now: datetime,
                  args: tuple[tuple[str, str], ...] = ()) -> bytes:
        return model.response_xml(now, self.config.base_url, verb, body, args)

    def _error_response(self, verb, code, message) -> bytes:
        return self._envelope(verb if code != "badVerb" else None,
                              model.error_xml(code, message).encode(),
                              self.clock())

    # -- verbs

    def _identify(self, now) -> bytes:
        # records are in datestamp order: the first is the earliest
        records = self.snapshot.records
        earliest = (format_datestamp(records[0].served_datestamp)
                    if records and records[0].served_datestamp <= now
                    else "1970-01-01T00:00:00Z")
        body = model.identify_xml(
            self.config.repository_name, self.config.base_url,
            self.config.admin_email, earliest, "persistent")
        return self._envelope("Identify", body.encode(), now)

    def _list_metadata_formats(self, args, now) -> bytes:
        if "identifier" in args:
            rec = self.snapshot.by_identifier(args["identifier"])
            if rec is None or rec.served_datestamp > now:
                raise OaiProtocolError("idDoesNotExist", args["identifier"])
        body = model.list_metadata_formats_xml(EXPORT_FORMATS, "urn:x-mdpipe")
        return self._envelope("ListMetadataFormats", body.encode(), now)

    def _list_sets(self, now) -> bytes:
        body = model.list_sets_xml(
            (spec, spec) for spec in self.snapshot.set_specs())
        return self._envelope("ListSets", body.encode(), now)

    def _get_record(self, args, now) -> bytes:
        for required in ("identifier", "metadataPrefix"):
            if required not in args:
                raise OaiProtocolError("badArgument", f"missing {required}")
        prefix = args["metadataPrefix"]
        if prefix not in EXPORT_FORMATS:
            raise OaiProtocolError("cannotDisseminateFormat", prefix)
        rec = self.snapshot.by_identifier(args["identifier"])
        if rec is None or rec.served_datestamp > now:
            raise OaiProtocolError("idDoesNotExist", args["identifier"])
        body = (b"<GetRecord>" + self._serialize_record(
            rec, self.snapshot.header(rec.repo_identifier), prefix)
            + b"</GetRecord>")
        return self._envelope("GetRecord", body, now,
                              (("identifier", args["identifier"]),
                               ("metadataPrefix", prefix)))

    def _parse_window(self, state):
        """The from/until bounds of request arguments or a token's state,
        where an absent or None bound is open."""
        bounds = {}
        for key in ("from", "until"):
            if state.get(key) is not None:
                try:
                    bounds[key] = parse_datestamp(state[key])
                except ValueError as exc:
                    raise OaiProtocolError(
                        "badArgument", f"{key}: {exc}") from exc
        if ("from" in bounds and "until" in bounds
                and bounds["from"] > bounds["until"]):
            raise OaiProtocolError("badArgument", "from is after until")
        return bounds.get("from"), bounds.get("until")

    def _list(self, verb, args, now) -> bytes:
        if "resumptionToken" in args:
            state = self.resolve_token(args["resumptionToken"])
            prefix, position = state["prefix"], state["pos"]
        else:
            state, prefix, position = args, args.get("metadataPrefix"), 0
            if not prefix:
                raise OaiProtocolError("badArgument", "missing metadataPrefix")
        set_spec = state.get("set")
        from_, until = self._parse_window(state)
        if prefix not in EXPORT_FORMATS:
            raise OaiProtocolError("cannotDisseminateFormat", prefix)

        # records served after `now` are not visible yet
        visible_until = now if until is None else min(now, until)
        listing, lo, hi = self.snapshot.select(set_spec, from_, visible_until)
        if lo == hi:
            raise OaiProtocolError("noRecordsMatch", "no records in window")
        size = hi - lo

        start = lo + position
        stop = min(start + self.config.page_size, hi)
        headers = listing.headers[start:stop]
        next_pos = position + len(headers)

        if verb == "ListIdentifiers":
            items = b"".join(headers)
        else:
            items = b"".join(
                self._serialize_record(rec, header, prefix)
                for rec, header in zip(listing.records[start:stop], headers))

        token_el = ""
        if next_pos < size:
            token = self.mint_token(prefix, set_spec, state.get("from"),
                                    state.get("until"), next_pos)
            token_el = model.resumption_token_xml(token, size, position)
        elif position > 0:
            # the empty token closes the final page of a paged list
            token_el = model.resumption_token_xml("", size, position)

        body = f"<{verb}>".encode() + items + f"{token_el}</{verb}>".encode()
        echoed = (() if "resumptionToken" in args
                  else (("metadataPrefix", prefix),))
        return self._envelope(verb, body, now, echoed)

    # -- record serialization: the snapshot's header, then the export

    @staticmethod
    def _serialize_record(rec: StoredRecord, header: bytes,
                          prefix: str) -> bytes:
        if rec.deleted:
            return b"<record>" + header + b"</record>"
        payload = rec.exports.get(prefix, b"")
        return (b"<record>" + header + b"<metadata>" + payload
                + b"</metadata></record>")

    # ------------------------------------------------------------------
    # Transport adapter (in-process harvesting of this server)

    def handle_url(self, url: str) -> bytes:
        """Answer a request URL. OAI-PMH forbids repeating an argument: a
        repeated verb is badVerb, any other repeat badArgument. Empty values
        are kept, so the verb's own checks reject them."""
        pairs = parse_qsl(urlsplit(url).query, keep_blank_values=True)
        counts = Counter(key for key, _ in pairs)
        if counts["verb"] > 1:
            return self._error_response(None, "badVerb", "repeated verb")
        args = dict(pairs)
        verb = args.pop("verb", "")
        repeated = sorted(key for key, n in counts.items() if n > 1)
        if repeated and verb in _VERB_ARGS:   # else badVerb comes first
            return self._error_response(
                verb, "badArgument", f"repeated arguments: {repeated}")
        return self.handle_request(verb, args)

    def transport(self) -> "_ServerTransport":
        return _ServerTransport(self)


class _ServerTransport:
    """Loopback transport: lets the harvester and validator point at this
    process's own OAI server without a socket."""

    def __init__(self, server: OaiServer):
        self.server = server

    def get(self, url: str) -> bytes:
        return self.server.handle_url(url)


def serve_http(answer: Callable[[str], tuple[int, bytes]],
               port: int) -> http.server.ThreadingHTTPServer:
    """An HTTP server on 127.0.0.1:``port`` (0 picks a free port) that
    answers each GET with ``answer(path)``: a status and an XML body. An
    answer that raises ConnectionError drops the connection unanswered. The
    caller runs ``serve_forever`` and closes the server."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            try:
                status, body = answer(self.path)
            except ConnectionError:
                self.connection.close()
                return
            self.send_response(status)
            self.send_header("Content-Type", "text/xml; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            logger.debug(fmt, *args)

    return http.server.ThreadingHTTPServer(("127.0.0.1", port), Handler)
