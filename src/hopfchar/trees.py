"""Rooted trees, optionally node-coloured, in a canonical nested-bracket form.

Text codec: a leaf is ``B``, an inner node lists its children as
``[child,child,...]``; with more than one colour every node carries a
``:<colour>`` suffix (``B:0``, ``[B:1,B:0]:1``).  Children are stored sorted,
colour before structure, so equal trees have equal encodings.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .core import multisets


class RootedTree:
    __slots__ = ("colour", "children", "order", "key", "_hash")

    def __init__(self, children: tuple["RootedTree", ...] = (), colour: int = 0):
        # children are assumed canonical themselves; only the local sort happens here
        self._build(tuple(sorted(children, key=_sort_key)), colour)

    @classmethod
    def trusted(cls, children: tuple["RootedTree", ...], colour: int = 0) -> "RootedTree":
        """Build without sorting: children already in ``_sort_key`` order."""
        t = cls.__new__(cls)
        t._build(children, colour)
        return t

    def _build(self, children: tuple["RootedTree", ...], colour: int) -> None:
        self.children = children
        self.colour = colour
        self.order = 1 + sum(c.order for c in children)
        # the sort key (root colour, coloured text), from the children's keys
        self.key = (colour, tree_text(colour, [c.key[1] for c in children], True))
        self._hash = hash(self.key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def encode(self, coloured: bool = False) -> str:
        if coloured:
            return self.key[1]
        return tree_text(self.colour, [c.encode() for c in self.children], False)

    def __repr__(self) -> str:
        return self.encode(coloured=_max_colour(self) > 0)


def tree_text(colour: int, child_texts: list[str], coloured: bool) -> str:
    """The canonical text of a tree from its children's texts, given in
    canonical order: the one place a tree's text is written."""
    body = "[" + ",".join(child_texts) + "]" if child_texts else "B"
    return f"{body}:{colour}" if coloured else body


def _sort_key(t: RootedTree) -> tuple:
    return t.key


LEAF = RootedTree()


def parse_tree(text: str, coloured: bool = False) -> RootedTree:
    """Inverse of :meth:`RootedTree.encode`; missing colour suffixes mean 0."""
    t, pos = _parse_node(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing characters in tree text {text!r}")
    if not coloured and _max_colour(t) > 0:
        raise ValueError(f"coloured tree text {text!r} for an uncoloured alphabet")
    return t


def _parse_node(text: str, pos: int) -> tuple[RootedTree, int]:
    if pos >= len(text):
        raise ValueError(f"unexpected end of tree text {text!r}")
    children: tuple[RootedTree, ...] = ()
    if text[pos] == "B":
        pos += 1
    elif text[pos] == "[":
        pos += 1
        kids = []
        while True:
            child, pos = _parse_node(text, pos)
            kids.append(child)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            if pos < len(text) and text[pos] == "]":
                pos += 1
                break
            raise ValueError(f"expected ',' or ']' at offset {pos} in {text!r}")
        children = tuple(kids)
    else:
        raise ValueError(f"expected 'B' or '[' at offset {pos} in {text!r}")
    colour = 0
    if pos < len(text) and text[pos] == ":":
        pos += 1
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"missing colour digits at offset {pos} in {text!r}")
        colour = int(text[start:pos])
    return RootedTree(children, colour), pos


def _max_colour(t: RootedTree) -> int:
    return max([t.colour] + [_max_colour(c) for c in t.children])


# The public functions normalise their arguments before the cached ones see
# them, so trees_of_order(n), (n, 1) and (n, colours=1) share one entry.


def trees_of_order(n: int, colours: int = 1) -> tuple[RootedTree, ...]:
    """All canonical rooted trees with n nodes, deterministically ordered."""
    return _trees_of_order(n, colours)


def forests_of_order(n: int, colours: int = 1) -> tuple[tuple[RootedTree, ...], ...]:
    """All multisets of trees with total node count n, as sorted tuples."""
    return _forests_of_order(n, colours)


@lru_cache(maxsize=None)
def _trees_of_order(n: int, colours: int) -> tuple[RootedTree, ...]:
    if n < 1:
        return ()
    # forests_of_order yields its forests in _sort_key order already
    out = [RootedTree.trusted(kids, root_colour)
           for root_colour in range(colours)
           for kids in forests_of_order(n - 1, colours)]
    return tuple(sorted(out, key=_sort_key))


@lru_cache(maxsize=None)
def _forests_of_order(n: int, colours: int) -> tuple[tuple[RootedTree, ...], ...]:
    pool = [t for k in range(1, n + 1) for t in trees_of_order(k, colours)]
    pool.sort(key=_sort_key)
    return tuple(multisets(pool, [t.order for t in pool], n))


def root_cuts(t: RootedTree) -> list[tuple[RootedTree | None, tuple[RootedTree, ...]]]:
    """All (kept root part, cut forest) pairs.

    The kept part runs over the root-containing connected vertex subsets plus
    the empty set (kept = None); the forest collects the maximal subtrees
    hanging below the cut.
    """
    return [(None, (t,))] + _kept_cuts(t)


def _kept_cuts(t: RootedTree) -> list[tuple[RootedTree, tuple[RootedTree, ...]]]:
    # per child: drop it whole, or keep a nonempty root part of it
    options: list[list[tuple[RootedTree | None, tuple[RootedTree, ...]]]] = []
    for c in t.children:
        opts: list[tuple[RootedTree | None, tuple[RootedTree, ...]]] = [(None, (c,))]
        opts.extend(_kept_cuts(c))
        options.append(opts)
    out = []
    for combo in itertools.product(*options):
        kept_children = tuple(k for k, _ in combo if k is not None)
        forest = tuple(itertools.chain.from_iterable(f for _, f in combo))
        out.append((RootedTree(kept_children, t.colour), forest))
    return out


def edge_cuts(t: RootedTree) -> list[tuple[RootedTree, ...]]:
    """The forest t minus p, for every subset p of the edge set."""
    return [(root,) + loose for root, loose in _edge_cuts(t)]


def _edge_cuts(t: RootedTree) -> list[tuple[RootedTree, tuple[RootedTree, ...]]]:
    # yields (component containing the root, remaining components)
    options = []
    for c in t.children:
        child_cuts = _edge_cuts(c)
        opts = []
        for root_part, loose in child_cuts:
            opts.append((root_part, loose, True))   # keep the edge into c
            opts.append((root_part, loose, False))  # cut it
        options.append(opts)
    out = []
    for combo in itertools.product(*options):
        kept_children = tuple(rp for rp, _, keep in combo if keep)
        loose: tuple[RootedTree, ...] = ()
        for rp, lo, keep in combo:
            loose += lo if keep else (rp,) + lo
        out.append((RootedTree(kept_children, t.colour), loose))
    return out


def iter_nodes(t: RootedTree) -> Iterator[RootedTree]:
    yield t
    for c in t.children:
        yield from iter_nodes(c)
