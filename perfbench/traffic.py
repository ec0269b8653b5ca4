"""Pre-rendered provider traffic.

The simulator is the benchmark's load generator, not the system under test,
so its responses are rendered once during set-up and the timed path reads
them back from memory. ``Recorder`` renders: it forwards each request to a
``mdpipe.sim`` provider and keeps the bytes. ``Replay`` serves the kept bytes
to the harvester and validator; a request that was never rendered raises
``HttpStatusError(404)`` and is counted as a miss, which the workloads count
as a failed operation. ``Replay`` can also fail every Kth page once with a
503 so the client's retry path runs.
"""

from __future__ import annotations

import re
import time
from urllib.parse import parse_qsl, urlencode, urlsplit
from xml.sax.saxutils import unescape

from mdpipe.errors import HttpStatusError
from mdpipe.sim import SimProvider, SimTransport

_TOKEN = re.compile(rb"<resumptionToken[^>]*>([^<]+)</resumptionToken>")


def request_key(url: str) -> tuple:
    """The identity of a request: endpoint plus its parameters, in any
    order."""
    parts = urlsplit(url)
    return (parts.netloc + parts.path,
            tuple(sorted(parse_qsl(parts.query, keep_blank_values=True))))


class FoldOnceProvider(SimProvider):
    """A provider that folds its timelines once per clock instant.

    ``SimProvider.state`` refolds every record's timeline on each page; the
    fold's result only depends on the instant, so rendering a list of P pages
    would otherwise cost P full folds.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._folded_at = None
        self._folded = None

    def state(self, at=None):
        at = at or self.clock.now()
        if at != self._folded_at:
            self._folded = super().state(at)
            self._folded_at = at
        return self._folded


class Recorder:
    """Transport that renders provider responses and keeps them."""

    def __init__(self, provider: SimProvider):
        self.inner = SimTransport(provider)
        self.responses: dict[tuple, bytes] = {}
        self.pages = 0
        self.seconds = 0.0

    def get(self, url: str) -> bytes:
        key = request_key(url)
        if key not in self.responses:
            started = time.perf_counter()
            self.responses[key] = self.inner.get(url)
            self.seconds += time.perf_counter() - started
            self.pages += 1
        return self.responses[key]

    def take(self) -> dict[tuple, bytes]:
        """Hand over what was rendered so far and start a fresh set (the
        same URL can answer differently once the provider's clock moves)."""
        responses, self.responses = self.responses, {}
        return responses

    def render_list(self, base_url: str, params: dict[str, str]) -> None:
        """Render a whole ListRecords chain, following its tokens."""
        while True:
            body = self.get(f"{base_url}?{urlencode(params)}")
            match = _TOKEN.search(body)
            if match is None:
                return
            params = {"verb": params["verb"],
                      "resumptionToken": unescape(match.group(1).decode())}


class Replay:
    """Transport serving pre-rendered responses."""

    def __init__(self, responses: dict[tuple, bytes], fail_every: int = 0):
        self.responses = responses
        self.fail_every = fail_every
        self.requests = 0
        self.misses = 0
        self.injected = 0
        self.bytes_in = 0
        self._first_tries = 0
        self._failed_once: set[tuple] = set()

    def get(self, url: str) -> bytes:
        self.requests += 1
        key = request_key(url)
        body = self.responses.get(key)
        if body is None:
            self.misses += 1
            raise HttpStatusError(404, f"unrecorded request {url}")
        if self.fail_every and key not in self._failed_once:
            self._first_tries += 1
            if self._first_tries % self.fail_every == 0:
                self._failed_once.add(key)
                self.injected += 1
                raise HttpStatusError(503, "injected by the replay")
        self.bytes_in += len(body)
        return body
