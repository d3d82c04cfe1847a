"""Containers, enumeration order, and graph6 I/O.

The codec (codes, rows, graph6 text and the symmetry check) is compared
with per-pair reference bodies from ``helpers`` at every size up to 64.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (edge_colorings, graphs, reference_code, reference_digit_code,
                     reference_digits, reference_graph6, reference_letters,
                     reference_pairs, reference_parse_graph6, reference_positions,
                     reference_rows)
from ramseykit import (BudgetError, EdgeColoring, Graph, Graph6ParseError,
                       bits, coloring_count, enumerate_edge_colorings,
                       enumerate_labeled_graphs, graphs_in_code_range,
                       labeled_graph_count, mask_of, pair_count, parse_graph6,
                       write_graph6)
from ramseykit.graphs import _decode_adj, pair_index, pair_table


def test_pair_order_is_column_major():
    assert pair_table(4) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    for k, (i, j) in enumerate(pair_table(7)):
        assert pair_index(i, j) == k
        assert pair_index(j, i) == k


def test_bits_and_mask_helpers():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0)) == []


def test_from_edges_collapses_duplicates():
    g = Graph.from_edges(2, [(0, 1), (1, 0)])
    assert g.edge_count() == 1
    assert g.edges() == [(0, 1)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        Graph.from_edges(65, [])


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loop at 0


def test_code_bit_k_is_pair_k():
    g = Graph.from_code(4, 1)
    assert g.edges() == [(0, 1)]
    g = Graph.from_code(4, 0b100000)
    assert g.edges() == [(2, 3)]
    assert Graph.from_code(3, 7).edge_count() == 3


def test_complement_of_cycle5_is_its_own_kind():
    c5 = Graph.cycle(5)
    comp = c5.complement()
    assert all(comp.degree(v) == 2 for v in range(5))
    assert comp.complement() == c5


def test_induced_subgraph_relabels_increasing():
    c5 = Graph.cycle(5)
    sub = c5.induced_subgraph(0b00111)
    assert sub.n == 3
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        c5.induced_subgraph(0)
    with pytest.raises(ValueError):
        c5.induced_subgraph(1 << 5)


def test_clique_and_independent_checks():
    c5 = Graph.cycle(5)
    assert c5.is_clique(0)
    assert c5.is_independent(0)
    assert c5.is_clique(0b00011)
    assert not c5.is_clique(0b00101)
    assert c5.is_independent(0b00101)
    assert not c5.is_independent(0b00011)
    with pytest.raises(ValueError):
        c5.is_clique(1 << 6)


def test_enumeration_counts_and_order():
    seen = list(enumerate_labeled_graphs(3))
    assert len(seen) == 8 == labeled_graph_count(3)
    assert [g.code for g in seen] == list(range(8))
    histogram = [0] * 4
    for g in seen:
        histogram[g.edge_count()] += 1
    assert histogram == [1, 3, 3, 1]


def test_enumeration_guard_and_sharding():
    with pytest.raises(BudgetError):
        enumerate_labeled_graphs(8)
    part = list(graphs_in_code_range(4, 10, 14))
    assert [g.code for g in part] == [10, 11, 12, 13]
    with pytest.raises(ValueError):
        list(graphs_in_code_range(3, 0, 9))


def test_coloring_counts_and_guard():
    assert len(list(enumerate_edge_colorings(3, 2))) == 8
    assert len(list(enumerate_edge_colorings(2, 5))) == 5
    assert coloring_count(3, 3) == 27
    with pytest.raises(BudgetError):
        list(enumerate_edge_colorings(10, 8))


def test_coloring_class_partition():
    c = EdgeColoring(4, 3, (0, 1, 2, 0, 1, 2))
    classes = [c.color_class(i) for i in range(3)]
    assert sum(g.edge_count() for g in classes) == 6
    for k, (i, j) in enumerate(pair_table(4)):
        assert classes[c.colors[k]].has_edge(i, j)
    with pytest.raises(ValueError):
        c.color_class(3)


def test_coloring_code_roundtrip_and_text():
    c = EdgeColoring.from_code(3, 2, 5)
    assert c.colors == (1, 0, 1)
    assert c.code == 5
    assert c.to_text() == "3:bab"
    assert EdgeColoring.from_text("3:bab", 2) == c
    with pytest.raises(ValueError):
        EdgeColoring.from_text("bab", 2)
    with pytest.raises(ValueError):
        EdgeColoring.from_text("3:bac", 2)


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(3, 1, (0, 0, 0))
    with pytest.raises(ValueError):
        EdgeColoring(3, 9, (0, 0, 0))
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, (0, 0))
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, (0, 0, 2))


# --- graph6 -------------------------------------------------------------------


def test_graph6_frozen_strings():
    assert write_graph6(Graph.cycle(5)) == "Dhc"
    assert write_graph6(Graph.complete(2)) == "A_"
    assert write_graph6(Graph.empty(2)) == "A?"
    assert parse_graph6("Dhc") == Graph.cycle(5)
    assert parse_graph6("A_") == Graph.complete(2)
    assert parse_graph6(">>graph6<<Dhc") == Graph.cycle(5)
    assert parse_graph6("Dhc\n") == Graph.cycle(5)


def test_graph6_long_size_form():
    for n in (63, 64):
        g = Graph.from_edges(n, [(0, n - 1), (1, 2)])
        text = write_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("")
    assert e.value.offset == 0
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("A" + chr(30))
    assert e.value.offset == 1
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("D")  # body missing
    assert e.value.offset == 1
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("Dhcc")  # trailing byte
    assert e.value.offset == 3
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("AO")  # nonzero padding for n=2
    assert e.value.offset == 1
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("?")  # zero vertices
    assert e.value.offset == 0


def test_graph6_truncated_long_form_size():
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("~??")
    assert str(e.value) == "truncated long-form size (byte offset 3)"
    assert e.value.offset == 3


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(0, ()), "vertex count 0 outside 1..64"),
    (lambda: Graph(3, (0, 0)), "adjacency row count does not match vertex count"),
    (lambda: Graph.cycle(2), "a cycle needs at least 3 vertices"),
    (lambda: Graph.from_code(0, 0), "vertex count 0 outside 1..64"),
    (lambda: Graph.from_code(65, 0), "vertex count 65 outside 1..64"),
    (lambda: Graph.from_code(3, 8), "code 8 outside 0..2^3-1"),
    (lambda: Graph.from_code(3, -1), "code -1 outside 0..2^3-1"),
    (lambda: Graph.empty(3).is_independent(0b1000),
     "selection names vertices outside the graph"),
    (lambda: pair_index(3, 3), "loops are not representable"),
    (lambda: EdgeColoring(0, 2, ()), "vertex count 0 outside 1..64"),
    (lambda: EdgeColoring.from_code(3, 2, 8), "code 8 outside 0..2^3-1"),
    (lambda: EdgeColoring(3, 2, (0, 1.0, 0)), "pair 1 has colour 1.0 outside 0..1"),
], ids=["graph n=0", "row count", "cycle n=2", "from_code n=0", "from_code n=65",
        "from_code code=8", "from_code code=-1", "is_independent outside",
        "pair_index loop", "coloring n=0", "coloring from_code code=8",
        "coloring float colour"])
def test_constructors_reject_bad_input_with_a_message(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert type(e.value) is ValueError
    assert str(e.value) == message


@given(graphs(max_n=8))
def test_graph6_roundtrip_small(g):
    assert parse_graph6(write_graph6(g)) == g


@given(st.integers(1, 64), st.data())
def test_graph6_roundtrip_any_size(n, data):
    code = data.draw(st.integers(0, labeled_graph_count(n) - 1))
    g = Graph.from_code(n, code)
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_exhaustive_n_le_5():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


@given(graphs(max_n=8))
def test_complement_is_involution(g):
    assert g.complement().complement() == g
    assert g.edge_count() + g.complement().edge_count() == pair_count(g.n)


@given(graphs(max_n=8))
def test_code_roundtrip(g):
    assert Graph.from_code(g.n, g.code) == g


@given(graphs(min_n=2, max_n=8), st.data())
def test_induced_subgraph_keeps_edges(g, data):
    mask = data.draw(st.integers(1, g.full_mask))
    sel = list(bits(mask))
    sub = g.induced_subgraph(mask)
    assert sub.n == len(sel)
    for a in range(sub.n):
        for b in range(a + 1, sub.n):
            assert sub.has_edge(a, b) == g.has_edge(sel[a], sel[b])


@given(edge_colorings())
def test_coloring_roundtrips(c):
    assert EdgeColoring.from_code(c.n, c.m, c.code) == c
    assert EdgeColoring.from_text(c.to_text(), c.m) == c


# --- the codec against per-pair references -------------------------------------


@settings(max_examples=200)
@given(st.integers(1, 64), st.data())
def test_codec_matches_the_per_pair_reference(n, data):
    code = data.draw(st.integers(0, labeled_graph_count(n) - 1))
    rows = reference_rows(n, code)
    assert _decode_adj(n, code) == rows
    g = Graph.from_code(n, code)
    assert list(g.adj) == rows
    assert g.code == reference_code(n, rows) == code
    text = write_graph6(g)
    assert text == reference_graph6(n, code)
    assert reference_parse_graph6(text) == (n, code)
    assert list(parse_graph6(text).adj) == rows
    assert list(g.complement().adj) == reference_rows(n, code ^ (labeled_graph_count(n) - 1))


@settings(max_examples=60)
@given(st.integers(1, 64), st.integers(2, 8), st.integers(0, 2**32 - 1))
@example(64, 3, 0)
@example(1, 2, 0)
@example(2, 8, 0)
def test_color_class_matches_a_per_pair_rebuild(n, m, seed):
    rng = random.Random(seed)
    c = EdgeColoring(n, m, tuple(rng.randrange(m) for _ in range(pair_count(n))))
    # the digit codec against one step per digit
    code = reference_digit_code(c.colors, m)
    assert c.code == code
    assert EdgeColoring.from_code(n, m, code).colors == reference_digits(code, m, pair_count(n))
    assert c.to_text() == f"{n}:" + reference_letters(c.colors)
    assert EdgeColoring.from_text(c.to_text(), m) == c
    for color in range(m):
        assert c.positions(color) == reference_positions(c.colors, color)
        rows = [0] * n
        for k, (i, j) in enumerate(reference_pairs(n)):
            if c.colors[k] == color:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        assert list(c.color_class(color).adj) == rows


def _far_rows():
    """Rows of a 64-vertex graph with the edges {0,63}, {1,62} and {31,32}."""
    return reference_rows(64, sum(1 << pair_index(u, v) for u, v in ((0, 63), (1, 62), (31, 32))))


@pytest.mark.parametrize("v, change, message", [
    (63, lambda row: row ^ 1, "edge {0,63} is not symmetric"),
    (0, lambda row: row ^ 1 << 63, "edge {63,0} is not symmetric"),
    (63, lambda row: row | 1 << 63, "loop at vertex 63"),
    (63, lambda row: row | 1 << 64, "adjacency row 63 names vertices >= 64"),
    (63, lambda row: -1, "adjacency row 63 names vertices >= 64"),
])
def test_rows_rejected_at_64_vertices_name_their_fault(v, change, message):
    rows = _far_rows()
    assert Graph(64, tuple(rows)).edges() == [(31, 32), (1, 62), (0, 63)]
    rows[v] = change(rows[v])
    with pytest.raises(ValueError) as e:
        Graph(64, tuple(rows))
    assert str(e.value) == message


def _long_form(n):
    """graph6 text of the n-vertex graph with the one edge {0,1}; its last
    body character is "?", all zeros."""
    text = write_graph6(Graph(n, tuple(reference_rows(n, 1))))
    assert text[0] == "~" and text[-1] == "?"
    return text


@pytest.mark.parametrize("n, bad, message, offset", [
    (63, lambda text: text + "?", "trailing data after 63-vertex body", 330),
    (64, lambda text: text + "?", "trailing data after 64-vertex body", 340),
    # 1953 pairs leave the last character's three low bits as padding.
    (63, lambda text: text[:-1] + "@", "nonzero padding bits", 329),
])
def test_long_form_parse_errors_keep_their_offsets(n, bad, message, offset):
    text = bad(_long_form(n))
    for parse in (parse_graph6, reference_parse_graph6):
        with pytest.raises(Graph6ParseError) as e:
            parse(text)
        assert (str(e.value), e.value.offset) == (f"{message} (byte offset {offset})", offset)


def test_every_body_bit_is_a_pair_at_64_vertices():
    # 2016 pairs fill all 336 characters: the last bit is pair (62, 63).
    assert parse_graph6(_long_form(64)[:-1] + "@").has_edge(62, 63)
