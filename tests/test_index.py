"""URL normalization and the resource-centric dedup index."""

import random
import string

import pytest

from mdpipe.errors import FetchError, UnparseableUrl
from mdpipe.resource_index import (
    IndexSource,
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


# ---------------------------------------------------------------------------
# Content fetching


def test_fetch_content_md5():
    digest = fetch_content("http://x/", lambda u: b"hello")
    import hashlib
    assert digest == hashlib.md5(b"hello").hexdigest()


def test_fetch_content_too_large():
    with pytest.raises(FetchError) as exc:
        fetch_content("http://x/", lambda u: b"a" * 2048, max_bytes=1024)
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
