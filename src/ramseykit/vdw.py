"""Monochromatic arithmetic progressions in colourings of {1, ..., N}.

The quantity mirroring the clique/independent pair sum is the sum over
colours of the longest monochromatic arithmetic progression.  Thresholds
("from which interval length onward does every m-colouring have AP lengths
summing to n?") are settled with certificates, alongside the classical
single-colour check.  Both are decided by a prefix search that colours
N, N-1, ... and extends only prefixes still missing the target, instead of
enumerating all m^N colourings; pruned counts are Burnside orbit counts.

Positions are bitmasks, and an AP chain is grown by one term per step with
``cur &= cur >> d``: after k steps, set bits mark the starts of (k+1)-term
progressions of difference d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .certificates import SearchResult
from .exact import CheckOutcome
from .graphs import Digits, admit, code_digits, text_digits

# A check at length N accounts for all m^N colourings of the interval.
DEFAULT_INTERVAL_BUDGET = 1 << 26

MAX_INTERVAL_COLORS = 8


@dataclass(frozen=True)
class IntervalColoring(Digits):
    """Colouring of the integers 1..N; ``colors[i]`` colours i + 1."""

    m: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.m <= MAX_INTERVAL_COLORS:
            raise ValueError(f"colour count {self.m} outside 1..{MAX_INTERVAL_COLORS}")
        if not self.colors:
            raise ValueError("the interval must be nonempty")
        for i, c in enumerate(self.colors):
            if not isinstance(c, int) or not 0 <= c < self.m:
                raise ValueError(f"position {i + 1} has colour {c} outside 0..{self.m - 1}")

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


def orbit_count(m: int, length: int) -> int:
    """m-colourings of 1..length up to reversal and colour permutation, by
    Burnside's lemma over cycle types (partitions of m): m! / prod(k^c_k c_k!)
    permutations with f fixed colours and t 2-cycles each fix f^N colourings,
    and (f + 2t)^(N // 2) * f^(N % 2) when composed with reversal."""
    half, odd = divmod(length, 2)
    total = 0
    for parts in _partitions(m, m):
        share = math.factorial(m)
        for k in set(parts):
            share //= k**parts.count(k) * math.factorial(parts.count(k))
        fix = parts.count(1)
        fix2 = fix + 2 * parts.count(2)
        total += share * (fix**length + fix2**half * fix**odd)
    return total // (2 * math.factorial(m))


def _partitions(m: int, top: int):
    """Partitions of m into parts of at most ``top``, largest first."""
    if m == 0:
        yield ()
    for k in range(min(m, top), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _least_failing(m: int, length: int, target: int, single: bool) -> Optional[int]:
    """Code of the least-code colouring of 1..length whose longest
    monochromatic APs miss ``target`` (in every colour when ``single``, in
    sum otherwise), or None.  Positions are coloured from ``length`` down,
    most significant digit first, so leaves arrive in code order; a prefix
    (a sub-interval, whose AP lengths the whole interval can only exceed) is
    extended only while it misses the target.  Callers validate and admit
    the scan."""
    masks = [0] * m  # bit j = position length - j; AP lengths ignore reversal
    best = [0] * m   # longest AP per colour among the coloured positions
    stack = []       # (colour, its previous best) per coloured position
    total = c = 0
    while True:  # iterative: with m = 1 the depth is unbounded
        depth = len(stack)
        if c < m:
            grown = _longest_ap_mask(masks[c] | 1 << depth, depth + 1)
            if (grown if single else total - best[c] + grown) >= target:
                c += 1
                continue
            stack.append((c, best[c]))
            masks[c] |= 1 << depth
            total += grown - best[c]
            best[c] = grown
            if depth + 1 == length:
                return sum(d * m**i for i, (d, _) in enumerate(reversed(stack)))
            c = 0
        elif stack:
            c, previous = stack.pop()
            masks[c] ^= 1 << len(stack)
            total += previous - best[c]
            best[c] = previous
            c += 1
        else:
            return None


def check_universal_ap_sum(target: int, length: int, m: int,
                           budget: Optional[int] = None, prune: bool = False
                           ) -> CheckOutcome:
    """Does every m-colouring of 1..length have AP lengths summing to
    ``target``?  Failures report the minimum-code colouring.  ``prune``
    changes only the exhaustive count: orbits under reversal and colour
    permutation, not all m^length."""
    from .engine import check
    return check("wprime", target, length, m=m, budget=budget, prune=prune)


def ap_sum_threshold(m: int, target: int, budget: Optional[int] = None,
                     prune: bool = False) -> SearchResult:
    """Least interval length from which every m-colouring reaches an AP sum
    of ``target``; raises UndecidedError past the budget (no closed form)."""
    from .engine import search
    return search("wprime", target, m=m, budget=budget, prune=prune)


def classical_ap_check(m: int, n: int, length: int,
                       budget: Optional[int] = None) -> bool:
    """True iff every m-colouring of 1..length has an n-term progression in
    a single colour (the classical van der Waerden property)."""
    if n < 1 or length < 1:
        raise ValueError("target and interval length must be positive")
    if not 1 <= m <= MAX_INTERVAL_COLORS:
        raise ValueError(f"colour count {m} outside 1..{MAX_INTERVAL_COLORS}")
    admit(m**length, budget, DEFAULT_INTERVAL_BUDGET, f"length {length}")
    return _least_failing(m, length, n, True) is None
