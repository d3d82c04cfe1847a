"""Labeled graphs and edge colorings on at most 64 vertices, as int bitsets.

A vertex set is a plain ``int`` with bit ``v`` set for vertex ``v``; a graph
stores one adjacency mask per vertex, so every neighbourhood query is a single
AND.  Vertex pairs are ordered column-major along the upper triangle,

    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), (0,4), ...

which is exactly the bit order of the graph6 format, so a graph's integer
``code`` is both the body of its graph6 encoding and its rank in code order,
the order in which a scan reports its least failing instance.  Codes, rows, graph6 text and the symmetry check convert
with a few big-int operations per column or row, never one step per pair.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import namedtuple
from typing import Callable, Iterable, Iterator, Optional

MAX_VERTICES = 64
MAX_COLORS = 8  # the letters a..h: edge and interval colourings alike
COLOR_LETTERS = "abcdefgh"

# Hard ceiling on the size of any exhaustive instance scan.
ENUMERATION_CAP = 1 << 40


class BudgetError(RuntimeError):
    """An exhaustive scan or search would exceed its instance budget."""


def admit(total: int, budget: Optional[int], default: int, what: str) -> None:
    """Admit a scan over ``total`` instances or refuse it: a negative budget
    is a bad query (ValueError); more than ``min(budget, ENUMERATION_CAP)``
    instances, with ``default`` for a budget of None, is over the budget
    (BudgetError)."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} is negative")
    if total > min(default if budget is None else budget, ENUMERATION_CAP):
        raise BudgetError(f"{what} needs {total} instances, over the budget")


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@functools.lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All vertex pairs of an n-vertex graph in code bit order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def pair_index(u: int, v: int) -> int:
    """Position of the edge {u, v} in the code bit order."""
    if u == v:
        raise ValueError("loops are not representable")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


# The values a one-graph query builds, here and in ``exact``, are named tuples
# rather than frozen dataclasses: a cold start then neither imports
# ``dataclasses`` nor pays about a millisecond to build each class.
class Graph(namedtuple("Graph", "n adj")):
    """Undirected simple graph; ``adj[v]`` is the neighbour mask of ``v``."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        if not _is_simple(adj, n):  # name the rejected rows' first fault
            full = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~full:
                    raise ValueError(f"adjacency row {v} names vertices >= {n}")
                if row >> v & 1:
                    raise ValueError(f"loop at vertex {v}")
                for u in bits(row):
                    if not adj[u] >> v & 1:
                        raise ValueError(f"edge {{{v},{u}}} is not symmetric")
        return tuple.__new__(cls, (n, adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse."""
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {{{u},{v}}} names a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, [])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full & ~(1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    @classmethod
    def from_code(cls, n: int, code: int) -> "Graph":
        """Decode a graph from its position in the code bit order."""
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        np = pair_count(n)
        if code < 0 or code >> np:
            raise ValueError(f"code {code} outside 0..2^{np}-1")
        return cls(n, tuple(_decode_adj(n, code)))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def code(self) -> int:
        """Integer whose bit k records the k-th pair, column-major."""
        return _upper_code(self.adj, self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for (i, j) in pair_table(self.n) if self.adj[i] >> j & 1]

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(self.n, tuple((full & ~row) & ~(1 << v) for v, row in enumerate(self.adj)))

    def induced_subgraph(self, mask: int) -> "Graph":
        """Induced subgraph on ``mask``, relabeled 0..k-1 in increasing order."""
        if mask & ~self.full_mask:
            raise ValueError("selection names vertices outside the graph")
        if mask == 0:
            raise ValueError("empty vertex selection")
        sel = list(bits(mask))
        rows = [0] * len(sel)
        for a, u in enumerate(sel):
            row = self.adj[u]
            for b, v in enumerate(sel):
                if row >> v & 1:
                    rows[a] |= 1 << b
        return Graph(len(sel), tuple(rows))

    def is_clique(self, mask: int) -> bool:
        """True iff every two vertices of ``mask`` are adjacent (empty set: yes)."""
        if mask & ~self.full_mask:
            raise ValueError("selection names vertices outside the graph")
        return _mask_is_clique(self.adj, mask)

    def is_independent(self, mask: int) -> bool:
        """True iff no two vertices of ``mask`` are adjacent (empty set: yes)."""
        if mask & ~self.full_mask:
            raise ValueError("selection names vertices outside the graph")
        return _mask_is_independent(self.adj, mask)


def _mask_is_clique(adj, mask: int) -> bool:
    """Clique test on raw adjacency rows; shared by Graph, witnesses and sweeps."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if rest & ~adj[low.bit_length() - 1]:
            return False
    return True


def _mask_is_independent(adj, mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if rest & adj[low.bit_length() - 1]:
            return False
    return True


# --- codec --------------------------------------------------------------------
#
# A matrix of rows travels as one int, row v in bits [w*v, w*v + w) of a frame
# w = 8, 16 or 64 bits wide.  Transposing it takes log2(w) delta swaps, so
# decoding a code and checking rows for symmetry cost a few big-int
# operations per row, not one step per pair.


def _frame(n: int) -> tuple[int, str]:
    """(width, array typecode) of the narrowest frame that holds n columns."""
    return (8, "B") if n <= 8 else (16, "H") if n <= 16 else (64, "Q")


@functools.lru_cache(maxsize=None)
def _frame_masks(w: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The diagonal of a w x w frame, and the (shift, mask) delta swaps that
    transpose it: for each j = w/2, ..., 1, bit (r, c) with r & j == 0 and
    c & j != 0 trades places with bit (r + j, c - j), (w - 1) * j higher."""
    diagonal = sum(1 << (w + 1) * r for r in range(w))
    swaps = []
    j = w >> 1
    while j:
        cols = sum(1 << c for c in range(w) if c & j)
        swaps.append(((w - 1) * j, sum(cols << w * r for r in range(w) if not r & j)))
        j >>= 1
    return diagonal, tuple(swaps)


def _transpose(m: int, w: int) -> int:
    for shift, mask in _frame_masks(w)[1]:
        t = (m ^ m >> shift) & mask
        m ^= t ^ t << shift
    return m


def _pack(rows, frame: tuple[int, str]) -> int:
    """Rows as one matrix int; raises TypeError or OverflowError on a row
    that is not an int of at most w bits."""
    a = array(frame[1], rows)
    if sys.byteorder == "big":
        a.byteswap()
    return int.from_bytes(a, "little")


def _unpack(m: int, n: int, frame: tuple[int, str]) -> list[int]:
    a = array(frame[1], m.to_bytes(n * frame[0] >> 3, "little"))
    if sys.byteorder == "big":
        a.byteswap()
    return a.tolist()


def _upper_code(adj, n: int) -> int:
    """Graph code of the pairs above the diagonal: column v, the pairs (u, v)
    with u < v, is row v's bits below v and starts at bit v(v-1)/2."""
    code = 0
    for v in range(n - 1, 0, -1):
        code = code << v | adj[v] & ((1 << v) - 1)
    return code


def _decode_adj(n: int, code: int) -> list[int]:
    """Adjacency rows for a graph code: column v of the code is row v's
    lower half, and the transpose adds the upper halves."""
    frame = _frame(n)
    low = _pack([code >> (v * (v - 1) >> 1) & ((1 << v) - 1) for v in range(n)], frame)
    return _unpack(low | _transpose(low, frame[0]), n, frame)


def _is_simple(adj, n: int) -> bool:
    """Fast accept for Graph: n rows of ints that are in range, loop-free
    and symmetric.  A row outside the frame fails to pack; inside it, a bit
    at a column >= n would transpose into a row that is not there."""
    frame = _frame(n)
    try:
        m = _pack(adj, frame)
    except (TypeError, OverflowError):
        return False
    return not m & _frame_masks(frame[0])[0] and _transpose(m, frame[0]) == m


def labeled_graph_count(n: int) -> int:
    return 1 << pair_count(n)


# --- colourings as digit strings ------------------------------------------------


_ASCII = bytes.maketrans(bytes(range(MAX_COLORS)), b"01234567")
_LETTERS = bytes.maketrans(bytes(range(MAX_COLORS)), COLOR_LETTERS.encode())
_UNLETTERS = bytes.maketrans(COLOR_LETTERS.encode(), bytes(range(MAX_COLORS)))


def code_digits(code: int, m: int, count: int) -> tuple[int, ...]:
    """The ``count`` base-m digits of ``code``, least significant first."""
    if not 0 <= code < m**count:
        raise ValueError(f"code {code} outside 0..{m}^{count}-1")
    digits = []
    for _ in range(count):
        code, d = divmod(code, m)
        digits.append(d)
    return tuple(digits)


def text_digits(text: str, m: int) -> tuple[int, ...]:
    """Digits of letters, each among the first m of a..h."""
    raw = text.encode()
    if raw.translate(None, COLOR_LETTERS[:m].encode()):
        raise ValueError(f"colour letters in {text!r} outside the first {m} of a..h")
    return tuple(raw.translate(_UNLETTERS))


class Digits:
    """The codec of EdgeColoring and vdw.IntervalColoring: their ``colors``
    as base-m digits, least significant first (``code_digits`` and
    ``text_digits`` make them).  As bytes they convert in C: translated to
    ASCII digits and read backwards they are the code in base m, to "1"
    where one colour stands and "0" elsewhere the bitmask of that colour,
    and to letters a..h the text."""

    @property
    def code(self) -> int:
        digits = bytes(self.colors)
        return int(digits.translate(_ASCII)[::-1], self.m) if digits and self.m > 1 else 0

    def positions(self, color: int) -> int:
        """Bitmask of the digits (bit k = digit k) of one colour."""
        if not 0 <= color < self.m:
            raise ValueError(f"colour {color} outside 0..{self.m - 1}")
        ones = bytes(self.colors).translate(b"0" * color + b"1" + b"0" * (255 - color))
        return int(ones[::-1], 2) if ones else 0

    def to_text(self) -> str:
        return bytes(self.colors).translate(_LETTERS).decode()

    def _check_colors(self, place: Callable[[int], str]) -> None:
        """Raise naming the first colour, at ``place(k)``, that is not an int
        in 0..m-1."""
        m = self.m
        for k, c in enumerate(self.colors):
            if not isinstance(c, int) or not 0 <= c < m:
                raise ValueError(f"{place(k)} has colour {c} outside 0..{m - 1}")


class EdgeColoring(Digits, namedtuple("EdgeColoring", "n m colors")):
    """Colouring of all pairs of a complete graph; colors[k] colours pair k."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, colors: tuple[int, ...]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if not 2 <= m <= MAX_COLORS:
            raise ValueError(f"colour count {m} outside 2..{MAX_COLORS}")
        if len(colors) != pair_count(n):
            raise ValueError("colour vector length does not match the pair count")
        self = tuple.__new__(cls, (n, m, colors))
        self._check_colors(lambda k: f"pair {k}")
        return self

    @classmethod
    def from_code(cls, n: int, m: int, code: int) -> "EdgeColoring":
        """Decode base-m digits of ``code``, least significant digit = pair 0."""
        return cls(n, m, code_digits(code, m, pair_count(n)))

    def color_class(self, color: int) -> Graph:
        """The graph holding exactly the pairs of this colour: its pair mask
        is the class's graph code."""
        return Graph(self.n, tuple(_decode_adj(self.n, self.positions(color))))

    def to_text(self) -> str:
        """Compact text form ``"<n>:<letters>"`` with colours a..h per pair."""
        return f"{self.n}:" + super().to_text()

    @classmethod
    def from_text(cls, text: str, m: int) -> "EdgeColoring":
        head, sep, body = text.partition(":")
        if not sep:
            raise ValueError("expected '<n>:<letters>'")
        return cls(int(head), m, text_digits(body, m))


# --- graph6 ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _graph6_body(code: int, need: int) -> str:
    """The ``need`` body characters of a code: bit k of the code is bit
    5 - k % 6 of character k // 6's value."""
    # Reversed, the bit string leads with pair 0, so each pair of its octal
    # digits is one character's value.  Read as hex digits, those octal
    # digits give every character a byte; one mask then closes the gap
    # between the two digits of each byte.
    rev = int(format(code, f"0{6 * need}b")[::-1], 2)
    nibbles = int(format(rev, f"0{2 * need}o"), 16)
    ones = int.from_bytes(b"\1" * need, "big")
    values = nibbles >> 1 & 0x38 * ones | nibbles & 7 * ones
    return (values + 63 * ones).to_bytes(need, "big").decode("ascii")


def _graph6_code(body: str) -> int:
    """Inverse of ``_graph6_body`` for a body in the graph6 alphabet; any
    padding bits come back above the code's pairs."""
    need = len(body)
    ones = int.from_bytes(b"\1" * need, "big")
    values = int.from_bytes(body.encode("ascii"), "big") - 63 * ones
    nibbles = (values & 0x38 * ones) << 1 | values & 7 * ones
    rev = int(format(nibbles, f"0{2 * need}x"), 8)
    return int(format(rev, f"0{6 * need}b")[::-1], 2)


def write_graph6(g: Graph) -> str:
    """Standard graph6 string (long size form for n >= 63)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    return head + _graph6_body(g.code, (pair_count(n) + 5) // 6)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line; raises Graph6ParseError with a byte offset."""
    s, skip = text.strip(), len(text) - len(text.lstrip())  # offsets count from text[0]
    if s.startswith(_G6_HEADER):
        s, skip = s[len(_G6_HEADER):], skip + len(_G6_HEADER)
    if not s:
        raise Graph6ParseError("empty graph6 string", skip)
    if not ("?" <= min(s) and max(s) <= "~"):
        for pos, ch in enumerate(s, skip):
            if not "?" <= ch <= "~":
                raise Graph6ParseError(f"character {ch!r} outside the graph6 alphabet", pos)
    if s[0] == "~":  # long size form
        if len(s) < 4:
            raise Graph6ParseError("truncated long-form size", skip + len(s))
        n = (ord(s[1]) - 63 << 12) | (ord(s[2]) - 63 << 6) | ord(s[3]) - 63
        at = 4
    else:
        n = ord(s[0]) - 63
        at = 1
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6ParseError(f"vertex count {n} outside 1..{MAX_VERTICES}", skip)
    np = pair_count(n)
    need = (np + 5) // 6
    if len(s) - at < need:
        raise Graph6ParseError(f"body too short for {n} vertices", skip + len(s))
    if len(s) - at > need:
        raise Graph6ParseError(f"trailing data after {n}-vertex body", skip + at + need)
    code = _graph6_code(s[at:])
    if code >> np:  # padding lives in the last character only
        raise Graph6ParseError("nonzero padding bits", skip + at + need - 1)
    return Graph(n, tuple(_decode_adj(n, code)))
