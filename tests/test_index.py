"""URL normalization and the resource-centric dedup index."""

import random
import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mdpipe import resource_index
from mdpipe.errors import FetchError, UnparseableUrl
from mdpipe.resource_index import (
    IndexSource,
    SearchIndex,
    build_metadata_centric,
    build_resource_centric,
    content_hasher,
    dedup_report,
    fetch_content,
    naive_identifier_index,
    normalize_url,
)

# ---------------------------------------------------------------------------
# URL normalization: golden table


GOLDEN = [
    ("http://Example.ORG/a", "http://example.org/a"),
    ("HTTP://example.org/a", "http://example.org/a"),
    ("http://example.org", "http://example.org/"),
    ("http://example.org:80/a", "http://example.org/a"),
    ("https://example.org:443/a", "https://example.org/a"),
    ("ftp://example.org:21/a", "ftp://example.org/a"),
    ("http://example.org:8080/a", "http://example.org:8080/a"),
    ("http://example.org/a/./b", "http://example.org/a/b"),
    ("http://example.org/a/../b", "http://example.org/b"),
    ("http://example.org/a/b/../../c", "http://example.org/c"),
    ("http://example.org/a/.", "http://example.org/a/"),
    ("http://example.org/a#frag", "http://example.org/a"),
    ("http://example.org/#top", "http://example.org/"),
    ("http://example.org/%7euser", "http://example.org/~user"),
    ("http://example.org/%7Euser", "http://example.org/~user"),
    ("http://example.org/a%2fb", "http://example.org/a%2Fb"),
    ("http://example.org/a?q=X&y=2", "http://example.org/a?q=X&y=2"),
    ("http://example.org?q=1", "http://example.org/?q=1"),
    ("  http://example.org/a  ", "http://example.org/a"),
    ("http://user:pw@Example.org/a", "http://user:pw@example.org/a"),
]


@pytest.mark.parametrize("raw,expected", GOLDEN)
def test_normalize_url_golden(raw, expected):
    assert normalize_url(raw) == expected


@pytest.mark.parametrize("bad", ["", "not-a-url", "http://", "http:///path",
                                 "//missing.scheme/x", "mailto:a@b.c"])
def test_normalize_url_rejects_garbage(bad):
    with pytest.raises(UnparseableUrl):
        normalize_url(bad)


def test_normalize_url_idempotent_on_golden():
    for _, expected in GOLDEN:
        assert normalize_url(expected) == expected


def test_normalize_url_idempotent_fuzz():
    rng = random.Random(20060501)
    alphabet = string.ascii_letters + string.digits + "/._-%~?&=#:@"
    for _ in range(10_000):
        path = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 25)))
        host = "".join(rng.choice(string.ascii_letters)
                       for _ in range(rng.randrange(1, 12)))
        port = rng.choice(["", ":80", ":443", ":8080"])
        url = f"{rng.choice(['http', 'HTTP', 'https', 'ftp'])}://{host}{port}/{path}"
        try:
            once = normalize_url(url)
        except UnparseableUrl:
            continue
        assert normalize_url(once) == once, url


@pytest.mark.parametrize("raw,expected", [
    ("http://Example.org?Q=/b", "http://example.org/?Q=/b"),
    ("http://example.org/?Q=/b", "http://example.org/?Q=/b"),
    ("http://example.org?a=/b/../c", "http://example.org/?a=/b/../c"),
    ("http://u@Example.org:80?X=1/2#f/g", "http://u@example.org/?X=1/2"),
])
def test_normalize_url_authority_ends_at_query(raw, expected):
    # the authority ends at the first "/", "?" or "#": a query that holds
    # a "/" is neither part of the host nor a path
    assert normalize_url(raw) == expected


@pytest.mark.parametrize("raw,expected", [
    ("http://[::1]:80/a", "http://[::1]/a"),
    ("http://[::1]/a", "http://[::1]/a"),
    ("http://[::A]/a", "http://[::a]/a"),
    ("https://[2001:DB8::1]:443/x", "https://[2001:db8::1]/x"),
    ("http://[::1]:8080/a", "http://[::1]:8080/a"),
    ("http://u:pw@[::A]:80?Q=1", "http://u:pw@[::a]/?Q=1"),
])
def test_normalize_url_ipv6_host_is_one_unit(raw, expected):
    # a bracketed IP literal holds colons; the port starts after the "]"
    assert normalize_url(raw) == expected
    assert normalize_url(expected) == expected


# ---------------------------------------------------------------------------
# Index builds


def _src(rid, urls, text="", coll="c1"):
    return IndexSource(record_id=rid, urls=tuple(urls), text=text,
                       collection_id=coll)


def _brute_force_entities(sources):
    """Oracle: connected components over records sharing a normalized URL."""
    urls = {s.record_id: {normalize_url(u) for u in s.urls} for s in sources}
    remaining = {s.record_id for s in sources}
    components = []
    while remaining:
        seed = remaining.pop()
        component, frontier = {seed}, [seed]
        while frontier:
            current = frontier.pop()
            linked = [r for r in remaining
                      if urls[r] & urls[current]]
            for r in linked:
                remaining.discard(r)
                component.add(r)
                frontier.append(r)
        components.append(frozenset(component))
    return set(components)


def test_resource_entities_match_connected_components():
    rng = random.Random(7)
    pool = [f"http://r.org/doc/{i}" for i in range(30)]
    sources = [
        _src(f"rec-{i:03d}", rng.sample(pool, rng.randrange(1, 4)))
        for i in range(80)]
    index = build_resource_centric(sources)
    built = {frozenset(d.member_records) for d in index.documents}
    assert built == _brute_force_entities(sources)


def test_shared_url_collapses_records():
    sources = [_src("rec-a", ["http://r.org/x"], "alpha"),
               _src("rec-b", ["http://R.ORG/x"], "beta"),
               _src("rec-c", ["http://r.org/y"], "gamma")]
    index = build_resource_centric(sources)
    assert len(index.documents) == 2
    merged = next(d for d in index.documents
                  if len(d.member_records) == 2)
    assert merged.member_records == ("rec-a", "rec-b")
    assert "alpha" in merged.text and "beta" in merged.text


def test_content_hash_merges_mirrors():
    sources = [_src("rec-a", ["http://mirror1.org/doc"]),
               _src("rec-b", ["http://mirror2.org/doc"])]
    assert len(build_resource_centric(sources).documents) == 2
    same = lambda url: "d41d8cd9"  # every fetch returns identical content
    assert len(build_resource_centric(sources,
                                      content_hash=same).documents) == 1


def test_content_hash_failures_skip_merge():
    sources = [_src("rec-a", ["http://m1.org/doc"]),
               _src("rec-b", ["http://m2.org/doc"])]
    index = build_resource_centric(sources, content_hash=lambda u: None)
    assert len(index.documents) == 2


def test_unparseable_urls_skipped_not_fatal():
    sources = [_src("rec-a", ["not a url", "http://r.org/x"])]
    index = build_resource_centric(sources)
    assert index.documents[0].urls == ("http://r.org/x",)


def test_mode_counts_dominance():
    # 20 records; 5 share one URL; several records carry two identifiers
    sources = []
    for i in range(15):
        sources.append(_src(f"rec-{i:03d}",
                            [f"http://r.org/{i}", f"http://alt.org/{i}"]))
    for i in range(15, 20):
        sources.append(_src(f"rec-{i:03d}", ["http://r.org/shared"]))
    naive = naive_identifier_index(sources)
    metadata = build_metadata_centric(sources)
    resource = build_resource_centric(sources)
    assert len(naive.documents) > len(metadata.documents)
    assert len(metadata.documents) > len(resource.documents)
    report = dedup_report(sources)
    assert report["identifier_occurrences"] == len(naive.documents) == 35
    assert report["metadata_records"] == 20
    assert report["resource_entities"] == len(resource.documents) == 16


# ---------------------------------------------------------------------------
# Search


def test_search_conjunctive_and_scored():
    sources = [_src("rec-a", [], "solar energy systems"),
               _src("rec-b", [], "solar panels solar arrays"),
               _src("rec-c", [], "wind energy")]
    index = build_metadata_centric(sources)
    hits = index.search("solar")
    assert [h[0] for h in hits] == ["rec-b", "rec-a"]  # tf then doc_id
    assert index.search("solar wind") == []


def test_search_tie_break_on_doc_id():
    sources = [_src("rec-b", [], "quartz"), _src("rec-a", [], "quartz")]
    hits = build_metadata_centric(sources).search("quartz")
    assert [h[0] for h in hits] == ["rec-a", "rec-b"]


def test_duplicate_hits_collapse_in_resource_mode():
    sources = [
        _src(f"rec-{i}", ["http://r.org/lesson"], "photosynthesis lesson")
        for i in range(3)]
    metadata_hits = build_metadata_centric(sources).search("photosynthesis")
    resource_hits = build_resource_centric(sources).search("photosynthesis")
    assert len(metadata_hits) == 3
    assert len(resource_hits) == 1


def test_search_limit_below_one_rejected():
    sources = [_src("rec-a", [], "quartz"), _src("rec-b", [], "quartz quartz")]
    index = build_metadata_centric(sources)
    assert index.search("quartz", limit=1) == [("rec-b", 2.0)]
    for limit in (0, -1):
        with pytest.raises(ValueError):
            index.search("quartz", limit=limit)


_WORDS = ["solar", "Solar", "WIND", "wind", "energy", "x1", "2005"]
_GAPS = [" ", ", ", "-", "!! ", "\n"]
_URLS = ["http://r.org/1", "http://R.org:80/1", "http://r.org/2", "not a url"]
_TERMS = re.compile(r"[a-z0-9]+")


@st.composite
def _texts(draw, words):
    tokens = draw(st.lists(st.sampled_from(words), max_size=6))
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(tokens),
                         max_size=len(tokens)))
    return "".join(t + g for t, g in zip(tokens, gaps))


def _reversed_metadata_index(sources):
    # the builds order documents by doc_id; reversed, the doc_id tie-break
    # cannot come from document order
    index = build_metadata_centric(sources)
    return SearchIndex(mode=index.mode,
                       documents=tuple(reversed(index.documents)))


def _brute_force_search(documents, query, limit):
    """Oracle: count every document's terms afresh for each query."""
    terms = _TERMS.findall(query.lower())
    hits = []
    for doc in documents:
        counts = Counter(_TERMS.findall(doc.text.lower()))
        if terms and all(counts[t] for t in terms):
            hits.append((doc.doc_id, float(sum(counts[t] for t in terms))))
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:limit]


@settings(max_examples=300, deadline=None)
@given(
    sources=st.lists(
        st.builds(_src, rid=st.sampled_from([f"rec-{c}" for c in "abcdef"]),
                  urls=st.lists(st.sampled_from(_URLS), max_size=2),
                  text=_texts(_WORDS)),
        max_size=8),
    build=st.sampled_from([build_metadata_centric, build_resource_centric,
                           naive_identifier_index, _reversed_metadata_index]),
    queries=st.lists(
        st.tuples(_texts(_WORDS + ["absent", "!!", ""]),
                  st.integers(min_value=1, max_value=12)),
        min_size=1, max_size=4))
def test_search_matches_brute_force(sources, build, queries):
    # repeated and absent query terms, ties across doc_ids, mixed case,
    # punctuation-only and empty queries, limits of 1 and above the hit
    # count; several queries per index, so later ones reuse the postings
    index = build(sources)
    for query, limit in queries:
        assert index.search(query, limit) == _brute_force_search(
            index.documents, query, limit), (query, limit)


class _CountingPattern:
    """Stands in for a compiled pattern and records each text it splits."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.texts = []

    def findall(self, text):
        self.texts.append(text)
        return self.pattern.findall(text)


def test_second_search_does_not_retokenise(monkeypatch):
    sources = [_src("rec-a", [], "solar energy"),
               _src("rec-b", [], "solar wind"),
               _src("rec-c", [], "wind")]
    index = build_metadata_centric(sources)
    counting = _CountingPattern(resource_index._TOKEN_RE)
    monkeypatch.setattr(resource_index, "_TOKEN_RE", counting)
    assert index.search("solar") == [("rec-a", 1.0), ("rec-b", 1.0)]
    assert len(counting.texts) == 1 + len(sources)  # the query, each doc
    assert index.search("wind") == [("rec-b", 1.0), ("rec-c", 1.0)]
    assert counting.texts[len(sources) + 1:] == ["wind"]  # the query only


def test_builds_and_dedup_report_build_no_postings(monkeypatch):
    sources = [_src("rec-a", ["http://r.org/1"], "solar energy"),
               _src("rec-b", ["http://r.org/1"], "solar wind")]
    counting = _CountingPattern(resource_index._TOKEN_RE)
    monkeypatch.setattr(resource_index, "_TOKEN_RE", counting)
    index = build_resource_centric(sources)
    assert dedup_report(sources)["resource_entities"] == 1
    assert "_counts" not in index.__dict__
    assert "_postings" not in index.__dict__
    assert counting.texts == []
    index.search("solar")
    assert "_postings" in index.__dict__


# ---------------------------------------------------------------------------
# Content fetching


def test_fetch_content_md5():
    digest = fetch_content("http://x/", lambda u: b"hello")
    import hashlib
    assert digest == hashlib.md5(b"hello").hexdigest()


def test_fetch_content_too_large():
    with pytest.raises(FetchError) as exc:
        fetch_content("http://x/",
                      lambda u: b"a" * (resource_index.MAX_CONTENT_BYTES + 1))
    assert exc.value.kind == "too-large"


def test_fetch_content_wraps_errors():
    def boom(url):
        raise OSError("refused")
    with pytest.raises(FetchError) as exc:
        fetch_content("http://x/", boom)
    assert exc.value.kind == "connection"


def test_content_hasher_caches_and_absorbs_failures():
    calls = []

    def fetcher(url):
        calls.append(url)
        if "bad" in url:
            raise FetchError("timeout", url)
        return b"body"

    hasher = content_hasher(fetcher)
    assert hasher("http://ok/") == hasher("http://ok/")
    assert calls.count("http://ok/") == 1
    assert hasher("http://bad/") is None
