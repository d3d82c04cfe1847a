"""Monochromatic arithmetic progressions in colourings of {1, ..., N}.

The quantity mirroring the clique/independent pair sum is the sum over
colours of the longest monochromatic arithmetic progression, the ``wprime``
row of ``engine.MODES``; the classical van der Waerden question (a k-term
progression in one colour) is its ``vdw`` row, which counts the best
colour only.  Both rows' thresholds are settled with certificates by one
prefix search that colours N, N-1, ... and extends only prefixes still
missing the target, instead of enumerating all m^N colourings.  It places
colours in first-use order (a colour only once every lower one is used),
and one search yields the least failing colouring at every length in turn,
so a threshold search scans once.

Positions are bitmasks, and an AP chain is grown by one term per step with
``cur &= cur >> d``: after k steps, set bits mark the starts of (k+1)-term
progressions of difference d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .certificates import SearchResult
from .graphs import MAX_COLORS, Digits, code_digits, text_digits

# A check at length N accounts for all m^N colourings of the interval.
DEFAULT_INTERVAL_BUDGET = 1 << 26


@dataclass(frozen=True)
class IntervalColoring(Digits):
    """Colouring of the integers 1..N; ``colors[i]`` colours i + 1."""

    m: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.m <= MAX_COLORS:
            raise ValueError(f"colour count {self.m} outside 1..{MAX_COLORS}")
        if not self.colors:
            raise ValueError("the interval must be nonempty")
        self._check_colors(lambda i: f"position {i + 1}")

    @property
    def length(self) -> int:
        return len(self.colors)

    @classmethod
    def from_code(cls, m: int, length: int, code: int) -> "IntervalColoring":
        """Decode base-m digits, least significant digit = position 1."""
        return cls(m, code_digits(code, m, length))

    @classmethod
    def from_text(cls, text: str, m: int) -> "IntervalColoring":
        """Parse letters a..h; two-colour strings may use 'b'/'w' instead
        (black = colour 0, white = colour 1), recognized by a 'w' present."""
        s = text.strip()
        if m <= 2 and "w" in s:  # b/w as a/b, and a stray 'a' as no letter
            s = s.translate(str.maketrans("abw", "zab"))
        return cls(m, text_digits(s, m))


def _longest_ap_mask(mask: int, length: int) -> int:
    """Longest AP within a position mask; 0 when the mask is empty."""
    if not mask:
        return 0
    best = 1
    for d in range(1, length):
        if (length - 1) // d + 1 <= best:  # no AP of difference d or more is longer
            break
        cur = mask & (mask >> d)
        ln = 1
        while cur:
            cur &= cur >> d
            ln += 1
        if ln > best:
            best = ln
    return best


def longest_mono_ap(c: IntervalColoring, color: int) -> int:
    """Longest arithmetic progression within one colour (0 if unused)."""
    return _longest_ap_mask(c.positions(color), c.length)


def ap_sum(c: IntervalColoring) -> tuple[int, tuple[int, ...]]:
    """Sum over colours of the longest monochromatic AP, plus the profile."""
    per = tuple(longest_mono_ap(c, i) for i in range(c.m))
    return sum(per), per


def _least_failing(first: int, m: int, top: int, score: str,
                   target: int) -> Iterator[Optional[int]]:
    """Codes of the least-code colourings of 1..N whose longest
    monochromatic APs miss ``target`` (in every colour when ``top`` is 1,
    in sum over all m otherwise), for N = first, first + 1, ..., then None
    at the first N where none does: ``Mode.scan``'s signature, ``score``
    unread.  Callers validate and admit the scan.

    One depth-first search serves every N.  The first position placed is
    position N, the most significant digit, so prefixes are visited in
    code order at every N, and a prefix (a sub-interval, whose AP lengths
    the whole interval can only exceed) is extended only while it misses
    the target: the first node reached at depth N is the least failing
    colouring of length N.  A colour is placed only once every lower one
    is (first-use order): the predicate is invariant under permuting
    colours, and first-use order is the least code of each permutation
    class."""
    masks = [0] * m  # bit j = the j-th placed position; AP lengths ignore reversal
    best = [0] * m   # longest AP per colour among the coloured positions
    stack = []       # (colour, its previous best) per coloured position
    total = c = 0
    reached = first - 1  # the depth whose code was yielded last
    while True:  # iterative: with m = 1 the depth is unbounded
        depth = len(stack)
        if c < m and (not c or masks[c - 1]):  # first use: colour c - 1 is placed
            grown = _longest_ap_mask(masks[c] | 1 << depth, depth + 1)
            if (grown if top == 1 else total - best[c] + grown) >= target:
                c += 1
                continue
            stack.append((c, best[c]))
            masks[c] |= 1 << depth
            total += grown - best[c]
            best[c] = grown
            if depth == reached:
                reached += 1
                yield sum(d * m**i for i, (d, _) in enumerate(reversed(stack)))
            c = 0
        elif stack:
            c, previous = stack.pop()
            masks[c] ^= 1 << len(stack)
            total += previous - best[c]
            best[c] = previous
            c += 1
        else:
            yield None
            return


def ap_sum_threshold(m: int, target: int, budget: Optional[int] = None) -> SearchResult:
    """Least interval length from which every m-colouring reaches an AP sum
    of ``target``; raises UndecidedError past the budget (no closed form)."""
    from .engine import search
    return search("wprime", target, m=m, budget=budget)


def classical_ap_check(m: int, n: int, length: int,
                       budget: Optional[int] = None) -> bool:
    """True iff every m-colouring of 1..length has an n-term progression in
    a single colour (the classical van der Waerden property)."""
    from .engine import check
    return check("vdw", n, length, m=m, budget=budget).ok
