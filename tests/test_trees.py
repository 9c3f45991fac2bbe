"""Rooted tree enumeration, canonical forms, and cut machinery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.trees import (LEAF, RootedTree, _sort_key, edge_cuts,
                            forests_of_order, iter_nodes, parse_tree, root_cuts,
                            trees_of_order)
from oracles import brute_force_tree_count, forests_by_scan, tree_text_by_recursion

TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115)
TWO_COLOUR_COUNTS = (2, 4, 14, 52, 214, 916, 4116)


def test_tree_counts_match_brute_force_oracle():
    for n, expected in enumerate(TREE_COUNTS, start=1):
        assert len(trees_of_order(n)) == expected
        assert brute_force_tree_count(n) == expected


def test_two_colour_counts_match_brute_force_oracle():
    for n, expected in enumerate(TWO_COLOUR_COUNTS[:6], start=1):
        assert len(trees_of_order(n, colours=2)) == expected
        assert brute_force_tree_count(n, colours=2) == expected
    assert len(trees_of_order(7, colours=2)) == TWO_COLOUR_COUNTS[6]


@pytest.mark.parametrize("colours", [1, 2])
def test_forest_order_matches_scanning_enumeration(colours):
    for n in range(8):
        pool = sorted((t for k in range(1, n + 1) for t in trees_of_order(k, colours)),
                      key=lambda t: (t.colour, tree_text_by_recursion(t, True)))
        assert forests_of_order(n, colours) == forests_by_scan(pool, n)


@pytest.mark.parametrize("colours", [1, 2])
def test_tree_text_matches_recursive_encoder(colours):
    for n in range(1, 9):
        for t in trees_of_order(n, colours):
            coloured = tree_text_by_recursion(t, True)
            assert t.encode(True) == coloured
            assert _sort_key(t) == (t.colour, coloured)
            assert t.encode() == tree_text_by_recursion(t, False)


@pytest.mark.parametrize("colours", [1, 2])
def test_trusted_trees_match_sorting_construction(colours):
    for n in range(1, 9):
        built = tuple(sorted((RootedTree(kids, c) for c in range(colours)
                              for kids in forests_of_order(n - 1, colours)), key=_sort_key))
        got = trees_of_order(n, colours)
        assert got == built
        assert [hash(t) for t in got] == [hash(t) for t in built]
        for t in got:
            assert list(t.children) == sorted(t.children, key=_sort_key)


def test_trees_are_distinct_and_canonical():
    for n in range(1, 8):
        ts = trees_of_order(n)
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert t.order == n


def test_children_order_is_immaterial():
    a = RootedTree((LEAF, RootedTree((LEAF,))))
    b = RootedTree((RootedTree((LEAF,)), LEAF))
    assert a == b
    assert hash(a) == hash(b)


@given(st.integers(1, 6), st.data())
def test_shuffled_children_encode_identically(n, data):
    ts = trees_of_order(n)
    t = data.draw(st.sampled_from(ts))
    perm = data.draw(st.permutations(t.children))
    assert RootedTree(tuple(perm), t.colour) == t


def test_parse_round_trip():
    for n in range(1, 7):
        for t in trees_of_order(n):
            assert parse_tree(t.encode()) == t
    for n in range(1, 6):
        for t in trees_of_order(n, colours=2):
            assert parse_tree(t.encode(coloured=True), coloured=True) == t


def test_parse_examples():
    assert parse_tree("B") == LEAF
    cherry = parse_tree("[B,B]")
    assert cherry.order == 3 and len(cherry.children) == 2
    assert parse_tree("[[B],B]") == parse_tree("[B,[B]]")


def test_parse_rejects_malformed_text():
    for bad in ("", "[B", "B]", "[]", "B,B", "[B,,B]", "x"):
        with pytest.raises(ValueError):
            parse_tree(bad)
    with pytest.raises(ValueError):
        parse_tree("B:1")            # coloured text in uncoloured mode


def test_forests_of_order():
    assert len(forests_of_order(0)) == 1
    for n in range(1, 7):
        forests = forests_of_order(n)
        assert len(set(forests)) == len(forests)
        for f in forests:
            assert sum(t.order for t in f) == n
        singles = [f for f in forests if len(f) == 1]
        assert len(singles) == len(trees_of_order(n))


def test_each_call_form_shares_one_enumeration():
    for colours in (1, 2):
        assert trees_of_order(5, colours) is trees_of_order(5, colours=colours)
        assert forests_of_order(5, colours) is forests_of_order(5, colours=colours)
    assert trees_of_order(5) is trees_of_order(5, 1) is trees_of_order(5, colours=1)
    assert forests_of_order(5) is forests_of_order(5, 1) is forests_of_order(5, colours=1)


def test_root_cuts_structure():
    t = parse_tree("[B]")
    cuts = root_cuts(t)
    assert (None, (t,)) in cuts      # the everything-pruned end
    assert sum(1 for kept, _ in cuts if kept is None) == 1
    kept_parts = sorted(k.encode() for k, _ in cuts if k is not None)
    assert kept_parts == ["B", "[B]"]


def test_root_cut_degrees_add_up():
    for n in range(1, 7):
        for t in trees_of_order(n):
            for kept, forest in root_cuts(t):
                total = sum(s.order for s in forest) + (kept.order if kept else 0)
                assert total == n


def test_edge_cuts_count_is_power_of_two():
    for n in range(1, 8):
        for t in trees_of_order(n):
            cuts = edge_cuts(t)
            assert len(cuts) == 2 ** (n - 1)
            for forest in cuts:
                assert sum(s.order for s in forest) == n


def test_cut_cardinality_bounds():
    # one-subtree cuts and edge partitions both stay under 2^order
    for n in range(1, 9):
        for t in trees_of_order(n):
            assert len(root_cuts(t)) <= 2 ** n
            assert len(edge_cuts(t)) <= 2 ** n


def test_iter_nodes_visits_every_node():
    for n in range(1, 7):
        for t in trees_of_order(n, colours=2):
            assert sum(1 for _ in iter_nodes(t)) == n
