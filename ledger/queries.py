"""Query texts for the workloads, each with the answer the facts predict.

A :class:`Request` is what one operation sends — query text and store
key — plus ``expected``: the cardinality of the node-set answer (or the
scalar value) computed here from :mod:`ledger.corpus` facts, without
calling the program.  The template parameter grids are fixed; the seed
only orders the stream, so every seed asks for the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, permutations, product
from random import Random
from typing import Callable, Iterable, Optional, Sequence

from ledger.corpus import (
    DEEP_TAGS,
    OPTIONAL,
    REGIONS,
    WIDE_TAGS,
    GeneratedDocument,
    Record,
)


@dataclass(frozen=True)
class Request:
    """One operation's input and the facts' prediction of its answer."""

    query: str
    key: str
    expected: Optional[float]
    scalar: bool = False


# -- Core XPath over records ---------------------------------------------------

#: Record tag -> (absolute path selecting every record, value that groups siblings).
_RECORD_PATHS = {
    "open_auction": ("/site/open_auctions/open_auction", None),
    "person": ("/site/people/person", None),
    "item": ("/site/regions/*/item", "region"),
    "interface": ("/config/interfaces/interface", None),
    "rule": ("/config/acls/acl/rule", "acl"),
}


def _count(records: Iterable[Record], predicate: Callable[[Record], bool]) -> int:
    return sum(1 for record in records if predicate(record))


def _sibling_groups(records: Sequence[Record], group_by: Optional[str]) -> list[list[Record]]:
    if group_by is None:
        return [list(records)]
    return [list(g) for _, g in groupby(records, key=lambda r: r.values[group_by])]


def _record_queries(tag: str, records: Sequence[Record]) -> list[tuple[str, int]]:
    """Every Core template over one record type, with its expected cardinality."""
    path, group_by = _RECORD_PATHS[tag]
    optional = OPTIONAL[tag]
    groups = _sibling_groups(records, group_by)
    out: list[tuple[str, int]] = []
    for a in optional:
        has_a = _count(records, lambda r: a in r.has)
        out.append((f"{path}[child::{a}]", has_a))
        out.append((f"/descendant::{a}/ancestor::{tag}", has_a))
    for a, b in permutations(optional, 2):
        both = _count(records, lambda r: a in r.has and b in r.has)
        a_before_b = optional.index(a) < optional.index(b)
        either = _count(records, lambda r: a in r.has or b in r.has)
        only_a = _count(records, lambda r: a in r.has and b not in r.has)
        later_b = 0  # records with b after the first sibling without a
        for group in groups:
            seen = False
            for record in group:
                if seen and b in record.has:
                    later_b += 1
                seen = seen or a not in record.has
        following_b = 0  # b elements after the first a in document order
        first = next((i for i, r in enumerate(records) if a in r.has), None)
        if first is not None:
            following_b = _count(records[first + 1 :], lambda r: b in r.has)
            if a_before_b and b in records[first].has:
                following_b += 1
        out += [
            (f"{path}[child::{a} and child::{b}]", both),
            (f"{path}[child::{a} or child::{b}]", either),
            (f"{path}[child::{a} and not(child::{b})]", only_a),
            (f"{path}[not(child::{a} or child::{b})]", len(records) - either),
            (f"/descendant::{a}/parent::{tag}[child::{b}]", both),
            (f"/descendant::{tag}[child::{a}]/child::{b}", both),
            (f"/descendant::{a}/following-sibling::{b}", both if a_before_b else 0),
            (f"/descendant::{b}/preceding-sibling::{a}", both if a_before_b else 0),
            (f"{path}[not(child::{a})]/following-sibling::{tag}[child::{b}]", later_b),
            (f"/descendant::{a}/following::{b}", following_b),
        ]
    return out


def _wide_queries(tags: Sequence[str]) -> list[tuple[str, int]]:
    out = []
    for a, b in permutations(WIDE_TAGS, 2):
        first_a = tags.index(a)
        last_b = len(tags) - 1 - tags[::-1].index(b)
        out += [
            (f"/wide/{a}/following-sibling::{b}", tags[first_a + 1 :].count(b)),
            (f"/wide/{a}[not(following-sibling::{b})]", tags[last_b + 1 :].count(a)),
            (f"/wide/{b}/preceding-sibling::{a}", tags[:last_b].count(a)),
        ]
    return out


def _deep_queries(chains: Sequence[Sequence[str]]) -> list[tuple[str, int]]:
    def positions(predicate: Callable[[Sequence[str], int], bool]) -> int:
        return sum(
            1 for chain in chains for i in range(len(chain)) if predicate(chain, i)
        )

    out = []
    for a, b in product(DEEP_TAGS, repeat=2):
        out += [
            (
                f"/descendant::{a}/ancestor::{b}",
                positions(lambda c, i: c[i] == b and a in c[i + 1 :]),
            ),
            (
                f"/descendant::{a}[descendant::{b}]",
                positions(lambda c, i: c[i] == a and b in c[i + 1 :]),
            ),
            (
                f"/descendant::{a}[not(ancestor::{b})]",
                positions(lambda c, i: c[i] == a and b not in c[:i]),
            ),
            (
                f"/descendant::{a}/descendant::{b}",
                positions(lambda c, i: c[i] == b and a in c[:i]),
            ),
            (
                f"/descendant::{a}/child::{b}",
                positions(lambda c, i: i > 0 and c[i] == b and c[i - 1] == a),
            ),
            (
                f"/descendant::{a}/parent::{b}",
                positions(lambda c, i: i + 1 < len(c) and c[i] == b and c[i + 1] == a),
            ),
        ]
    return out


def core_queries(document: GeneratedDocument) -> list[tuple[str, int]]:
    """Every Core XPath template instance for one document, in a fixed order."""
    facts = document.facts
    if document.kind == "wide":
        return _wide_queries(facts["tags"])
    if document.kind == "deep":
        return _deep_queries(facts["chains"])
    out = []
    for tag, records in facts.items():
        out += _record_queries(tag, records)
    return out


def _evenly(items: Sequence, count: int) -> list:
    """``count`` items at an even stride: the same pick for every seed."""
    if count > len(items):
        raise ValueError(f"need {count} queries, the templates give {len(items)}")
    return [items[(i * len(items)) // count] for i in range(count)]


def core_requests(
    documents: Sequence[GeneratedDocument], quotas: Sequence[int], seed: int
) -> list[Request]:
    """The ``embedded_core`` stream: ``sum(quotas)`` distinct Core texts, shuffled."""
    requests = [
        Request(query, document.key, expected)
        for document, quota in zip(documents, quotas)
        for query, expected in _evenly(core_queries(document), quota)
    ]
    Random(f"core/{seed}").shuffle(requests)
    return requests


# -- full XPath (context-value tables) -----------------------------------------

_PREFIXES = ("Ada", "Bo", "Cy", "Di", "Ed", "Flo", "Gus", "Hal")


def xpath_queries(
    document: GeneratedDocument, abbreviated: bool
) -> list[tuple[str, float, bool]]:
    """Parameterised full-XPath texts: ``(query, expected, scalar)``.

    ``abbreviated`` spells the same templates with XPath's short forms,
    so two documents contribute distinct texts (the plan cache is keyed
    by text) that ask for the same work.
    """
    child, attribute, auction_path = (
        ("", "@", "//open_auction")
        if abbreviated
        else ("child::", "attribute::", "/descendant::open_auction")
    )
    auctions: list[Record] = document.facts["open_auction"]
    persons: list[Record] = document.facts["person"]
    items: list[Record] = document.facts["item"]
    bidders = [r.values["bidders"] for r in auctions]
    prices = [r.values["initial"] for r in auctions]
    regions = [r.values["region"] for r in auctions]
    total = len(auctions)
    rows = range(total)
    out: list[tuple[str, float, bool]] = []

    def nodes(query: str, expected: int) -> None:
        out.append((query, expected, False))

    def scalar(query: str, expected: int) -> None:
        out.append((query, float(expected), True))

    for n in range(8):
        more_bidders = sum(1 for i in rows if bidders[i] > n)
        nodes(f"{auction_path}[count({child}bidder) > {n}]", more_bidders)
        # position() ranges over one auction's bidders: the n-th from last.
        nodes(
            f"{auction_path}/{child}bidder[position() + {n} = last()]", more_bidders
        )
    for m in range(5, 400, 3):
        above = sum(1 for i in rows if prices[i] > m)
        nodes(f"{auction_path}[{child}initial > {m}]", above)
        scalar(f"count({auction_path}[{child}initial > {m}])", above)
        nodes(
            f"{auction_path}[{child}initial > {m} and {child}initial < {m + 50}]",
            sum(1 for i in rows if m < prices[i] < m + 50),
        )
    for k in range(64):
        nodes(f"{auction_path}[position() + {k} = last()]", 1 if k < total else 0)
    for region in REGIONS:
        nodes(
            f"{auction_path}[{attribute}region = '{region}']",
            sum(1 for i in rows if regions[i] == region),
        )
    for m in range(10, 400, 10):
        for n in range(6):
            nodes(
                f"{auction_path}[count({child}bidder) > {n} and {child}initial > {m}]",
                sum(1 for i in rows if bidders[i] > n and prices[i] > m),
            )
        for region in REGIONS:
            nodes(
                f"{auction_path}[{attribute}region = '{region}' "
                f"and {child}initial > {m}]",
                sum(1 for i in rows if regions[i] == region and prices[i] > m),
            )
        above = sum(1 for i in rows if prices[i] > m)
        for k in range(8):
            nodes(
                f"{auction_path}[{child}initial > {m}][position() + {k} = last()]",
                1 if k < above else 0,
            )
    for prefix in _PREFIXES:
        named = [r for r in persons if r.values["name"].startswith(prefix)]
        person = f"/site/people/person[starts-with({child}name, '{prefix}')"
        nodes(f"{person}]", len(named))
        for n in range(4):
            nodes(
                f"{person} and count({child}watches/{child}watch) > {n}]",
                sum(1 for r in named if r.values["watches"] > n),
            )
    for n in range(3):
        nodes(
            f"/site/regions/*/item[count({child}mailbox/{child}mail) > {n}]",
            sum(1 for r in items if r.values["mails"] > n),
        )
    for n, region in product(range(8), REGIONS):
        scalar(
            f"count({auction_path}[count({child}bidder) > {n} "
            f"and {attribute}region = '{region}'])",
            sum(1 for i in rows if bidders[i] > n and regions[i] == region),
        )
    return out


def xpath_requests(
    documents: Sequence[GeneratedDocument], quotas: Sequence[int], seed: int
) -> list[Request]:
    """The ``embedded_xpath`` stream: distinct texts that plan to ``cvt``.

    Each document's texts are shuffled, then the documents are interleaved
    at an even stride: any slice of the stream holds the documents in the
    ratio of their quotas, so a round's cost does not depend on where in
    the stream it falls.
    """
    rng = Random(f"xpath/{seed}")
    placed = []
    for position, (document, quota) in enumerate(zip(documents, quotas)):
        picked = _evenly(xpath_queries(document, abbreviated=position % 2 == 1), quota)
        rng.shuffle(picked)
        placed += [
            ((rank + 0.5) / quota, position, Request(query, document.key, expected, scalar))
            for rank, (query, expected, scalar) in enumerate(picked)
        ]
    placed.sort(key=lambda item: item[:2])
    return [request for _, _, request in placed]


# -- the served hot set and the ingest probes ----------------------------------


def hot_requests(documents: Sequence[GeneratedDocument]) -> list[Request]:
    """``serve_tcp``'s 24 hot ``(query, key)`` pairs over four documents.

    The answers span 0/1, about 100, 1–3k and 8k ids plus two scalar
    counts, so the wire and the hops see small and large frames.
    """
    by_kind = {document.kind: document for document in documents}
    auction, config = by_kind["auction"], by_kind["config"]
    wide, deep = by_kind["wide"], by_kind["deep"]
    auctions: list[Record] = auction.facts["open_auction"]
    items: list[Record] = auction.facts["item"]
    interfaces: list[Record] = config.facts["interface"]
    rules: list[Record] = config.facts["rule"]
    tags: list[str] = wide.facts["tags"]
    chains = deep.facts["chains"]
    total_bidders = sum(r.values["bidders"] for r in auctions)
    bare = " and ".join(f"not(child::{t})" for t in OPTIONAL["item"])
    last_w6 = len(tags) - 1 - tags[::-1].index("w6")
    acls_missing_source = len(
        {r.values["acl"] for r in rules if "source" not in r.has}
    )

    def request(document: GeneratedDocument, query: str, expected, scalar=False):
        return Request(query, document.key, expected, scalar)

    return [
        request(auction, "/site", 1),
        request(auction, "/descendant::bidder", total_bidders),
        request(auction, "count(/descendant::bidder)", float(total_bidders), True),
        request(
            auction,
            "/site/open_auctions/open_auction[child::reserve and child::privacy]",
            _count(auctions, lambda r: {"reserve", "privacy"} <= r.has),
        ),
        request(
            auction,
            "/descendant::increase/parent::bidder/parent::open_auction",
            _count(auctions, lambda r: r.values["bidders"] > 0),
        ),
        request(
            auction,
            "/site/regions/africa/item[child::mailbox]/child::name",
            _count(items, lambda r: r.values["region"] == "africa" and "mailbox" in r.has),
        ),
        request(
            auction,
            "/descendant::seller/preceding-sibling::reserve",
            _count(auctions, lambda r: "reserve" in r.has),
        ),
        request(
            auction,
            f"/site/regions/europe/item[{bare}]",
            _count(items, lambda r: r.values["region"] == "europe" and not r.has),
        ),
        request(
            config,
            "/config/interfaces/interface[child::ipv4 and child::enabled]/child::name",
            _count(interfaces, lambda r: {"ipv4", "enabled"} <= r.has),
        ),
        request(
            config,
            "/descendant::address",
            sum(r.values["addresses"] for r in interfaces),
        ),
        request(
            config,
            "/config/acls/acl/rule[child::log or child::counter]",
            _count(rules, lambda r: "log" in r.has or "counter" in r.has),
        ),
        request(
            config,
            "/descendant::rule[not(child::source)]/parent::acl",
            acls_missing_source,
        ),
        request(
            config,
            "count(/config/interfaces/interface[child::mtu])",
            float(_count(interfaces, lambda r: "mtu" in r.has)),
            True,
        ),
        request(config, "/config/missing", 0),
        request(wide, "/wide/*", len(tags)),
        request(wide, "/wide/w3", tags.count("w3")),
        request(
            wide,
            "/wide/w0/following-sibling::w1",
            tags[tags.index("w0") + 1 :].count("w1"),
        ),
        request(
            wide,
            "/wide/w5[not(following-sibling::w6)]",
            tags[last_w6 + 1 :].count("w5"),
        ),
        request(
            wide,
            "/wide/*[self::w1 or self::w2 or self::w3]",
            sum(tags.count(t) for t in ("w1", "w2", "w3")),
        ),
        request(deep, "/descendant::d0", sum(c.count("d0") for c in chains)),
        request(
            deep,
            "/descendant::d1/ancestor::d2",
            sum(
                1
                for c in chains
                for i in range(len(c))
                if c[i] == "d2" and "d1" in c[i + 1 :]
            ),
        ),
        request(
            deep,
            "/descendant::d3[not(descendant::d4)]",
            sum(
                1
                for c in chains
                for i in range(len(c))
                if c[i] == "d3" and "d4" not in c[i + 1 :]
            ),
        ),
        request(deep, "/deep/*/*/*", len(chains)),
        # A second 8k answer: with 24 equally frequent pairs the 95th percentile
        # lies in the second-slowest pair's latencies, so the two slowest pairs
        # are made alike and p95 falls mid-population, not on one pair's tail.
        request(deep, "/descendant::*", 1 + sum(len(c) for c in chains)),
    ]


def fragment_probes(document: GeneratedDocument) -> list[Request]:
    """A few fixed Core and full-XPath requests on an auction document.

    The traced run uses them so that every workload reports both
    evaluators' times, whichever of the two its own list never reaches.
    """
    auctions: list[Record] = document.facts["open_auction"]
    bidders = sum(r.values["bidders"] for r in auctions)
    reserved = _count(auctions, lambda r: "reserve" in r.has)
    busy = _count(auctions, lambda r: r.values["bidders"] > 2)

    def request(query: str, expected, scalar: bool = False) -> Request:
        return Request(query, document.key, expected, scalar)

    return [
        request("/descendant::bidder", bidders),
        request("/site/open_auctions/open_auction[child::reserve]", reserved),
        request("/descendant::reserve/parent::open_auction", reserved),
        request("/descendant::increase/parent::bidder", bidders),
        request("count(/descendant::bidder)", float(bidders), True),
        request("/descendant::open_auction[count(child::bidder) > 2]", busy),
        request("count(/descendant::open_auction[child::reserve])", float(reserved), True),
        request("/descendant::bidder[position() = last()]", 1 if bidders else 0),
    ]


def ingest_requests(documents: Sequence[GeneratedDocument]) -> list[Request]:
    """One first-query per ingested document, cycling four Core texts."""
    probes = (
        (
            "/site/open_auctions/open_auction[child::reserve]",
            lambda f: _count(f["open_auction"], lambda r: "reserve" in r.has),
        ),
        (
            "/descendant::bidder",
            lambda f: sum(r.values["bidders"] for r in f["open_auction"]),
        ),
        (
            "/site/regions/*/item[child::mailbox]",
            lambda f: _count(f["item"], lambda r: "mailbox" in r.has),
        ),
        (
            "/site/people/person[child::phone and not(child::homepage)]",
            lambda f: _count(
                f["person"], lambda r: "phone" in r.has and "homepage" not in r.has
            ),
        ),
    )
    return [
        Request(query, document.key, expect(document.facts))
        for document, (query, expect) in zip(
            documents, (probes[i % len(probes)] for i in range(len(documents)))
        )
    ]
