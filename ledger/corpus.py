"""Seeded generators of XML *text* and the facts table of what was emitted.

The program under test only ever receives the text.  The facts are the
benchmark's own record of what it wrote (per auction: bidder count,
initial price, region, which optional children it has, …) and are what
:mod:`ledger.queries` derives expected answers from, so the correctness
check shares no code with the program.

The seed permutes, it never resizes: every seed emits the same number of
records with the same multiset of shapes and values, in a different
order and with different names.  The work a workload does is therefore
the same for every seed, and what differs between two runs is the
machine, not the input.  Nesting stays at or below 64 levels because the
program's parser and serialiser recurse once per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Mapping, Sequence

REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")

#: Optional children per record tag, in the order they are emitted (the
#: order is what makes ``following-sibling`` expectations computable).
OPTIONAL = {
    "open_auction": ("reserve", "privacy", "annotation", "quantity", "interval"),
    "item": ("location", "payment", "shipping", "description", "mailbox"),
    "person": ("emailaddress", "phone", "homepage", "creditcard", "watches"),
    "interface": ("description", "enabled", "mtu", "ipv4", "ipv6"),
    "rule": ("source", "destination", "port", "log", "counter"),
}

WIDE_TAGS = tuple(f"w{i}" for i in range(12))
DEEP_TAGS = tuple(f"d{i}" for i in range(8))
DEEP_DEPTH = 62


@dataclass(frozen=True)
class Record:
    """One emitted record: its tag, optional children, and counted values."""

    tag: str
    has: frozenset
    values: Mapping[str, object]


@dataclass(frozen=True)
class GeneratedDocument:
    """One generated document: the text the program gets, the facts it doesn't."""

    key: str
    kind: str
    xml: str
    facts: Mapping[str, object]


def _spread(rng: Random, values: Sequence, count: int) -> list:
    """``count`` items cycling through ``values``, shuffled: a fixed multiset."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def _shapes(rng: Random, tag: str, count: int) -> list[frozenset]:
    """A fixed multiset of optional-child subsets: every subset equally often."""
    optional = OPTIONAL[tag]
    subsets = [
        frozenset(t for bit, t in enumerate(optional) if mask >> bit & 1)
        for mask in range(1 << len(optional))
    ]
    return _spread(rng, subsets, count)


def _counts(rng: Random, shapes: Sequence[frozenset], tag: str, values: Sequence[int]):
    """A fixed multiset of counts, one for each shape that has ``tag``."""
    return iter(_spread(rng, values, sum(1 for has in shapes if tag in has)))


def _leaves(tag: str, has: frozenset) -> str:
    return "".join(f"<{t}/>" for t in OPTIONAL[tag] if t in has)


def auction_document(key: str, seed: int, auctions: int = 730) -> GeneratedDocument:
    """An XMark-like auction site; ``auctions=730`` gives about 24k nodes."""
    rng = Random(f"auction/{key}/{seed}")
    items_per_region = max(1, auctions // 5)
    persons = auctions

    parts = ["<site><regions>"]
    item_records = []
    for region in REGIONS:
        parts.append(f"<{region}>")
        shapes = _shapes(rng, "item", items_per_region)
        mail_counts = _counts(rng, shapes, "mailbox", (1, 2, 3))
        for has in shapes:
            serial = rng.randrange(10**6)
            mails = next(mail_counts) if "mailbox" in has else 0
            parts.append(f'<item id="i{serial}"><name>Item {serial}</name>')
            for tag in OPTIONAL["item"]:
                if tag not in has:
                    continue
                if tag == "mailbox":
                    parts.append("<mailbox>" + "<mail/>" * mails + "</mailbox>")
                else:
                    parts.append(f"<{tag}/>")
            parts.append("</item>")
            item_records.append(
                Record("item", has, {"region": region, "mails": mails})
            )
        parts.append(f"</{region}>")
    parts.append("</regions><people>")

    person_records = []
    prefixes = _spread(rng, ("Ada", "Bo", "Cy", "Di", "Ed", "Flo", "Gus", "Hal"), persons)
    shapes = _shapes(rng, "person", persons)
    watch_counts = _counts(rng, shapes, "watches", (1, 2, 3, 4))
    for has, prefix in zip(shapes, prefixes):
        name = f"{prefix} {rng.randrange(10**6)}"
        watches = next(watch_counts) if "watches" in has else 0
        parts.append(f"<person><name>{name}</name>")
        for tag in OPTIONAL["person"]:
            if tag not in has:
                continue
            if tag == "watches":
                parts.append("<watches>" + "<watch/>" * watches + "</watches>")
            else:
                parts.append(f"<{tag}/>")
        parts.append("</person>")
        person_records.append(
            Record("person", has, {"name": name, "watches": watches})
        )
    parts.append("</people><open_auctions>")

    auction_records = []
    bidders = _spread(rng, range(9), auctions)
    prices = _spread(rng, range(1, 401), auctions)
    regions = _spread(rng, REGIONS, auctions)
    for has, bids, price, region in zip(
        _shapes(rng, "open_auction", auctions), bidders, prices, regions
    ):
        parts.append(
            f'<open_auction region="{region}"><initial>{price}</initial>'
            + _leaves("open_auction", has)
            + "".join(
                f"<bidder><increase>{rng.randrange(1, 50)}</increase></bidder>"
                for _ in range(bids)
            )
            + "<seller/></open_auction>"
        )
        auction_records.append(
            Record(
                "open_auction",
                has,
                {"bidders": bids, "initial": price, "region": region},
            )
        )
    parts.append("</open_auctions></site>")
    return GeneratedDocument(
        key,
        "auction",
        "".join(parts),
        {
            "item": item_records,
            "person": person_records,
            "open_auction": auction_records,
        },
    )


def config_document(key: str, seed: int, interfaces: int = 850) -> GeneratedDocument:
    """A YANG/NETCONF-style configuration: nested keyed lists, about 10k nodes."""
    rng = Random(f"config/{key}/{seed}")
    acls = max(1, interfaces // 16)
    rules_per_acl = 16

    parts = ["<config><interfaces>"]
    interface_records = []
    shapes = _shapes(rng, "interface", interfaces)
    address_counts = _counts(rng, shapes, "ipv4", (1, 2, 3))
    for has in shapes:
        name = f"eth{rng.randrange(10**5)}"
        count = next(address_counts) if "ipv4" in has else 0
        parts.append(f"<interface><name>{name}</name>")
        for tag in OPTIONAL["interface"]:
            if tag not in has:
                continue
            if tag == "ipv4":
                parts.append("<ipv4>" + "<address/>" * count + "</ipv4>")
            elif tag == "mtu":
                parts.append("<mtu>1500</mtu>")
            else:
                parts.append(f"<{tag}/>")
        parts.append("</interface>")
        interface_records.append(
            Record(
                "interface",
                has,
                {"name": name, "addresses": count},
            )
        )
    parts.append("</interfaces><acls>")

    rule_records = []
    shapes = _shapes(rng, "rule", acls * rules_per_acl)
    for acl in range(acls):
        parts.append(f"<acl><name>acl{acl}</name>")
        for has in shapes[acl * rules_per_acl : (acl + 1) * rules_per_acl]:
            parts.append("<rule>" + _leaves("rule", has) + "<action/></rule>")
            rule_records.append(Record("rule", has, {"acl": acl}))
        parts.append("</acl>")
    parts.append("</acls></config>")
    return GeneratedDocument(
        key,
        "config",
        "".join(parts),
        {"interface": interface_records, "rule": rule_records},
    )


def wide_document(key: str, seed: int, siblings: int = 8000) -> GeneratedDocument:
    """One parent with ``siblings`` leaf children drawn from twelve tags."""
    rng = Random(f"wide/{key}/{seed}")
    tags = _spread(rng, WIDE_TAGS, siblings)
    xml = "<wide>" + "".join(f"<{tag}/>" for tag in tags) + "</wide>"
    return GeneratedDocument(key, "wide", xml, {"tags": tags})


def deep_document(key: str, seed: int, nodes: int = 8000) -> GeneratedDocument:
    """Chains of ``DEEP_DEPTH`` nested elements under one root (depth ≤ 64)."""
    rng = Random(f"deep/{key}/{seed}")
    chains = []
    parts = ["<deep>"]
    for _ in range(max(1, nodes // DEEP_DEPTH)):
        chain = _spread(rng, DEEP_TAGS, DEEP_DEPTH)
        parts.extend(f"<{tag}>" for tag in chain)
        parts.extend(f"</{tag}>" for tag in reversed(chain))
        chains.append(chain)
    parts.append("</deep>")
    return GeneratedDocument(key, "deep", "".join(parts), {"chains": chains})


def ingest_documents(seed: int, count: int, scale: float = 1.0) -> list[GeneratedDocument]:
    """``count`` distinct small auction documents of 300–900 nodes each.

    The sizes are an even ladder, shuffled, so every seed ingests the
    same total number of nodes and the slowest twentieth of a round's
    operations is always the same few largest documents.
    """
    rng = Random(f"ingest/{seed}")
    sizes = [300 + (600 * i) // max(1, count - 1) for i in range(count)]
    rng.shuffle(sizes)
    # One auction, with its share of items and persons, is about 33 nodes.
    return [
        auction_document(
            f"doc-{seed}-{i:04d}", seed, max(2, round(size * scale / 33))
        )
        for i, size in enumerate(sizes)
    ]
