"""The interval analogue: arithmetic progressions instead of cliques.

Colour the integers 1..N and score each colour by its longest
monochromatic arithmetic progression.  The sum of the scores plays the
same role the clique/independent pair does for graphs.
"""

from ramseykit import (
    IntervalColoring,
    ap_sum,
    ap_sum_threshold,
    classical_ap_check,
    longest_mono_ap,
    search,
)

c = IntervalColoring.from_text("bbwbb", 2)  # b/w spelling also accepted
print(f"colouring {c.to_text()} of 1..5:")
for color, letter in enumerate("ab"):
    print(f"  colour {letter}: longest progression {longest_mono_ap(c, color)}")
total, profile = ap_sum(c)
print(f"  sum {total}  (profile {profile})")

print("\nthresholds: least N so every 2-colouring of 1..N has ap-sum >= t")
for t in range(1, 6):
    r = ap_sum_threshold(2, t)
    lower = r.lower.witness_coloring if r.lower else "-"
    print(f"  t={t}: N = {r.value:<3} last counterexample {lower}")

print("""
the classical question (one colour must hold a 3-term progression by
itself) needs 9 integers for two colours:
""")
print("  N=9:", classical_ap_check(2, 3, 9), "  N=8:", classical_ap_check(2, 3, 8))
w = search("vdw", 3, m=2)  # the same question as a certified threshold
print(f"  W(2,3) = {w.value}, last counterexample {w.lower.witness_coloring}")

print("""
the search extends only prefixes that still miss the target, so it reaches
lengths no enumeration of 2^N colourings could (Chvatal 1970: W(2,4) = 35):
""")
print("  N=35:", classical_ap_check(2, 4, 35, budget=1 << 35),
      "  N=34:", classical_ap_check(2, 4, 34, budget=1 << 34))
