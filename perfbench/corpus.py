"""Seeded generation of the benchmark's inputs: Dublin Core records, resource
URLs in equivalent spellings, provider timelines and search queries.

Everything here is a pure function of its ``random.Random`` argument, so one
seed always yields the same corpus. Nothing in this module calls into the
program; it only builds the value types (``DcElement``, sim scripts) that the
load generator serves.
"""

from __future__ import annotations

import random
from bisect import bisect
from datetime import datetime, timedelta, timezone
from itertools import accumulate

from mdpipe.model import DcElement
from mdpipe.sim import SimRecordScript, TimelineEvent

UTC = timezone.utc
#: the instant the steady-state workloads treat as "now" before any cycle
T0 = datetime(2006, 1, 9, 12, 0, 0, tzinfo=UTC)

# Values the safe transforms act on. Stop phrases and DCMI types mirror the
# package data files; the bench keeps its own copy so a change to those
# files does not silently change the inputs.
STOP_PHRASES = ("n/a", "None", "No abstract submitted", "unknown",
                "Not available", "no description available", "NA")
DCMI_TYPES = ("Text", "Image", "Dataset", "InteractiveResource", "Software",
              "Sound", "StillImage", "MovingImage", "Collection", "Event")
LANGUAGES = ("English", "english", "eng", "en", "en_US", "French", "fre",
             "fr", "German", "deu", "Spanish", "es-mx", "Italian", "nl",
             "Portuguese", "ru")
OTHER_TYPES = ("lesson plan", "simulation", "worksheet", "lab activity")

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "gr", "pl", "st",
           "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "nt", "rk", "st")


def _zipf_table(size: int, exponent: float) -> list[float]:
    return list(accumulate(1.0 / (rank + 1) ** exponent
                           for rank in range(size)))


def _zipf_rank(rng: random.Random, table: list[float]) -> int:
    return min(bisect(table, rng.random() * table[-1]), len(table) - 1)


class Vocabulary:
    """Distinct synthetic words ranked by popularity; ``draw`` samples a
    rank from a Zipf law, so a few words are everywhere and most are rare.

    The words themselves do not depend on the run's seed: the seed picks
    which records are written, not the language they are written in, so
    the volume of text per record does not swing from seed to seed."""

    def __init__(self, size: int, exponent: float = 1.1):
        rng = random.Random(f"vocabulary-{size}")
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(rng.choice((1, 2, 2, 3))))
            if word not in seen and len(word) > 2:
                seen.add(word)
                words.append(word)
        self.words = words
        self._table = _zipf_table(size, exponent)

    def draw(self, rng: random.Random) -> str:
        return self.words[self.rank(rng)]

    def rank(self, rng: random.Random) -> int:
        return _zipf_rank(rng, self._table)

    def phrase(self, rng: random.Random, n_words: int) -> str:
        return " ".join(self.draw(rng) for _ in range(n_words))


def long_tail(rng: random.Random, median: float, cap: int) -> int:
    """A log-normal count: most values near the median, a few far above."""
    return max(1, min(cap, int(rng.lognormvariate(0.0, 0.8) * median)))


# ---------------------------------------------------------------------------
# Resource URLs


class ResourcePool:
    """Resources with one canonical URL each. Records cite them through
    ``spelling``, which writes the same location in one of several forms
    that RFC 3986 normalization maps back to the canonical one."""

    def __init__(self, rng: random.Random, size: int, vocab: Vocabulary):
        self.urls = []
        for i in range(size):
            host = f"{vocab.words[i % 97]}{i % 13}.example.org"
            path = "/".join(vocab.words[(i * 7 + k) % len(vocab.words)]
                            for k in range(rng.randint(1, 3)))
            self.urls.append(f"http://{host}/{path}/r{i}~v")
        self._table = _zipf_table(size, 0.3)

    def draw(self, rng: random.Random) -> int:
        return _zipf_rank(rng, self._table)

    def spelling(self, rng: random.Random, index: int) -> str:
        url = self.urls[index]
        form = rng.randrange(7)
        if form == 1:                          # upper-case scheme and host
            scheme, rest = url.split("://", 1)
            host, path = rest.split("/", 1)
            return f"{scheme.upper()}://{host.upper()}/{path}"
        if form == 2:                          # explicit default port
            scheme, rest = url.split("://", 1)
            host, path = rest.split("/", 1)
            return f"{scheme}://{host}:80/{path}"
        if form == 3:                          # escaped unreserved character
            return url.replace("~", "%7E")
        if form == 4:                          # dot segments
            scheme, rest = url.split("://", 1)
            host, path = rest.split("/", 1)
            return f"{scheme}://{host}/./x/../{path}"
        if form == 5:                          # fragment addresses a view
            return url + "#top"
        if form == 6:                          # padded with whitespace
            return f"  {url} "
        return url


# ---------------------------------------------------------------------------
# Records


def record_elements(rng: random.Random, vocab: Vocabulary,
                    pool: ResourcePool | None) -> tuple[DcElement, ...]:
    """One harvested DC record with the untidiness real providers send:
    stop phrases, doubled whitespace, repeated subjects, DCMI types and
    language names in free spelling, URLs in equivalent forms. Element
    count and value length have a long tail."""
    els = [DcElement("title", vocab.phrase(rng, long_tail(rng, 6, 40)))]
    if rng.random() < 0.15:
        els.append(DcElement("title", vocab.phrase(rng, 4),
                             qualifier="alternative"))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        els.append(DcElement("creator", f"{vocab.draw(rng).title()}, "
                                        f"{vocab.draw(rng)[0].upper()}."))
    subjects = [vocab.phrase(rng, rng.choice((1, 1, 2)))
                for _ in range(long_tail(rng, 2, 12))]
    if rng.random() < 0.25:
        subjects.append(subjects[0])           # exact duplicate
    els.extend(DcElement("subject", s) for s in subjects)
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        roll = rng.random()
        if roll < 0.1:
            els.append(DcElement("description", rng.choice(STOP_PHRASES)))
        else:
            text = vocab.phrase(rng, long_tail(rng, 30, 600))
            if roll < 0.35:
                text = "  " + text.replace(" ", "  ", 3) + " \n"
            els.append(DcElement("description", text))
    roll = rng.random()
    if roll < 0.6:
        t = rng.choice(DCMI_TYPES)
        els.append(DcElement("type", rng.choice((t, t.lower(), t.upper()))))
    elif roll < 0.8:
        els.append(DcElement("type", rng.choice(OTHER_TYPES)))
    if rng.random() < 0.7:
        els.append(DcElement("language", rng.choice(LANGUAGES)))
    if pool is not None:
        # one resource, sometimes cited in several spellings; a few records
        # also cite a second resource, which links two entities
        resource = pool.draw(rng)
        for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
            els.append(DcElement("identifier", pool.spelling(rng, resource)))
        if rng.random() < 0.03:
            els.append(DcElement("identifier",
                                 pool.spelling(rng, pool.draw(rng))))
    if rng.random() < 0.2:
        els.append(DcElement("identifier", f"urn:isbn:{rng.randrange(10**9)}"))
    els.append(DcElement("date", f"{rng.randint(1990, 2005)}-"
                                 f"{rng.randint(1, 12):02d}"))
    if rng.random() < 0.3:
        els.append(DcElement("rights", rng.choice(
            ("Public domain", "n/a", "All rights reserved"))))
    if rng.random() < 0.1:
        els.append(DcElement("publisher", vocab.phrase(rng, 2) + "  Press"))
    return tuple(els)


def provider_scripts(rng: random.Random, vocab: Vocabulary,
                     pool: ResourcePool | None, prefix: str, n_records: int,
                     start: datetime, end: datetime,
                     deleted_share: float = 0.0,
                     cycles: int = 0, update_share: float = 0.0,
                     cycle_delete_share: float = 0.0
                     ) -> tuple[SimRecordScript, ...]:
    """Timelines for one provider: every record is inserted between
    ``start`` and ``end``; ``deleted_share`` of them are deleted before
    ``end``. Then, in each of ``cycles`` days after ``end``, a share of the
    live records is updated and a smaller share deleted, at instants strictly
    inside that day."""
    span = (end - start).total_seconds()
    events: list[list[TimelineEvent]] = []
    live = []
    for i in range(n_records):
        at = start + timedelta(seconds=int(span * i / n_records))
        ev = [TimelineEvent(at, "insert",
                            record_elements(rng, vocab, pool))]
        if rng.random() < deleted_share:
            ev.append(TimelineEvent(at + timedelta(seconds=30), "delete"))
        else:
            live.append(i)
        events.append(ev)
    for cycle in range(cycles):
        day = end + timedelta(days=cycle)
        picks = rng.sample(live, max(1, int(len(live) * update_share)))
        dead = set(rng.sample(live, max(1, int(len(live) *
                                                 cycle_delete_share))))
        for i in picks:
            if i in dead:
                continue
            at = day + timedelta(seconds=rng.randrange(3600, 80000))
            events[i].append(TimelineEvent(
                at, "update", record_elements(rng, vocab, pool)))
        for i in dead:
            at = day + timedelta(seconds=rng.randrange(80001, 82800))
            events[i].append(TimelineEvent(at, "delete"))
        live = [i for i in live if i not in dead]
    return tuple(SimRecordScript(f"oai:{prefix}:{i:06d}", tuple(ev))
                 for i, ev in enumerate(events))


# ---------------------------------------------------------------------------
# Queries


def queries(rng: random.Random, vocab: Vocabulary, count: int) -> list[str]:
    """Conjunctive queries of 1-3 Zipf-drawn terms; about one in ten has a
    term no record contains, so it matches nothing."""
    out = []
    for _ in range(count):
        n_terms = rng.choice((1, 1, 2, 2, 2, 3))
        terms = [vocab.words[min(vocab.rank(rng) + 5, len(vocab.words) - 1)]
                 for _ in range(n_terms)]
        if rng.random() < 0.1:
            terms[-1] = f"qqx{rng.randrange(10**6)}"
        out.append(" ".join(terms))
    return out
