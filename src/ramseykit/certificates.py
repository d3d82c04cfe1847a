"""Machine-checkable certificates for exhaustive scans and threshold searches.

Every exhaustive claim ("all instances of this size meet the target") and
every counterexample is wrapped in a SearchCertificate that an independent
checker can revalidate.  Serialization is canonical (sorted keys, fixed
separators, no timing data), so two runs that agree produce byte-identical
JSON regardless of thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

WITNESS = "witness"
EXHAUSTIVE = "exhaustive"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SearchCertificate:
    """Outcome record for one exhaustive scan at fixed instance size.

    kind "exhaustive": every instance described by ``parameters`` reaches
    ``value`` (the target), and ``scanned_count`` instances are accounted
    for (a search that prunes a subtree counts it without visiting it).
    kind "witness": the recorded instance scores only ``value``, below the
    target in ``parameters``; exactly one of witness_graph6 /
    witness_coloring is set.
    """

    kind: str
    parameters: dict
    value: int
    witness_graph6: Optional[str] = None
    witness_coloring: Optional[str] = None
    scanned_count: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (WITNESS, EXHAUSTIVE):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.kind == WITNESS:
            if (self.witness_graph6 is None) == (self.witness_coloring is None):
                raise ValueError("witness certificates carry exactly one instance")
        else:
            if self.witness_graph6 is not None or self.witness_coloring is not None:
                raise ValueError("exhaustive certificates carry no instance")
            if self.scanned_count is None:
                raise ValueError("exhaustive certificates record a scanned count")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "value": self.value,
            "witness_graph6": self.witness_graph6,
            "witness_coloring": self.witness_coloring,
            "scanned_count": self.scanned_count,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchCertificate":
        return cls(
            kind=d["kind"],
            parameters=dict(d["parameters"]),
            value=d["value"],
            witness_graph6=d.get("witness_graph6"),
            witness_coloring=d.get("witness_coloring"),
            scanned_count=d.get("scanned_count"),
        )


@dataclass(frozen=True)
class SearchResult:
    """A threshold value plus the certificates that pin it down.

    ``exact`` results carry a ``lower`` witness at value-1 (absent when the
    threshold is 1, where there is nothing to fail) and an ``upper``
    exhaustive certificate at the value itself; bound-only results set
    exact=False and bracket the true value instead.
    """

    kind: str
    parameters: dict
    value: int
    exact: bool
    bracket: tuple[int, int]
    lower: Optional[SearchCertificate] = None
    upper: Optional[SearchCertificate] = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "value": self.value,
            "exact": self.exact,
            "bracket": list(self.bracket),
            "lower": self.lower.to_json_dict() if self.lower else None,
            "upper": self.upper.to_json_dict() if self.upper else None,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


class UndecidedError(RuntimeError):
    """A threshold search ran out of budget; carries the best bracket."""

    def __init__(self, kind: str, parameters: dict, low: int, high: Optional[int],
                 lower: Optional[SearchCertificate] = None):
        hi = "?" if high is None else str(high)
        super().__init__(
            f"{kind} search undecided within budget: value in [{low}, {hi}]"
        )
        self.kind = kind
        self.parameters = parameters
        self.low = low
        self.high = high
        self.lower = lower


def revalidate(cert: SearchCertificate, deep: bool = False) -> bool:
    """Recheck a certificate against a fresh computation.

    Witness certificates are always fully recomputed: the recorded instance
    is parsed, rescored, and must land on the recorded value strictly below
    the target.  Exhaustive certificates must claim their target and the
    expected enumeration count; ``deep=True`` additionally reruns the scan.
    """
    from . import exact, scores, vdw
    from .graphs import (EdgeColoring, coloring_count, labeled_graph_count,
                         parse_graph6)

    p = cert.parameters
    mode = p["mode"]
    target = p["target"]

    if cert.kind == WITNESS:
        if cert.witness_graph6 is not None:
            g = parse_graph6(cert.witness_graph6)
            if g.n != p["n_vertices"]:
                return False
            value = _graph_value(exact, mode, g, target)
        elif mode == "wprime":
            c = vdw.IntervalColoring.from_text(cert.witness_coloring, p["m"])
            if c.length != p["length"]:
                return False
            value = vdw.ap_sum(c)[0]
        else:
            c = EdgeColoring.from_text(cert.witness_coloring, p["m"])
            if c.n != p["n_vertices"]:
                return False
            value = _coloring_value(exact, scores, mode, c, p, target)
        return value == cert.value and value < target

    # Exhaustive: the scanned count must match the full enumeration, or its
    # orbit count when symmetry pruning was switched on.
    if mode in ("rprime", "ramsey"):
        expected = labeled_graph_count(p["n_vertices"])
        if p.get("pruned"):  # complement pairs; only n <= 1 has a fixed point
            expected = max(1, expected // 2)
    elif mode == "wprime":
        expected = p["m"] ** p["length"]
        if p.get("pruned"):
            expected = vdw.orbit_count(p["m"], p["length"])
    else:
        expected = coloring_count(p["n_vertices"], p["m"])
    if cert.scanned_count != expected or cert.value != target:
        return False
    if not deep:
        return True
    return _rerun(cert).to_json() == cert.to_json()


def _graph_value(exact, mode: str, g, target: int) -> int:
    if mode == "rprime":
        return exact.clique_indep_pair(g).value
    if mode == "ramsey":
        return max(exact.clique_number(g), exact.independence_number(g))
    raise ValueError(f"graph witness with colouring mode {mode!r}")


def _coloring_value(exact, scores, mode: str, c, p: dict, target: int) -> int:
    if mode == "rprime_m":
        return exact.mono_clique_family(c).value
    if mode == "ramsey_m":
        return max(exact.clique_number(c.color_class(i)) for i in range(c.m))
    if mode == "score":
        return scores.score_sum(c, scores.ScoreKind(p["score"]), p["j"])[0]
    raise ValueError(f"colouring witness with mode {mode!r}")


def _rerun(cert: SearchCertificate):
    from . import exact, scores, vdw

    p = cert.parameters
    mode = p["mode"]
    if mode in ("rprime", "ramsey", "rprime_m", "ramsey_m"):
        outcome = exact.check_universal(
            p["target"], p["n_vertices"], mode, m=p.get("m", 2),
            prune=bool(p.get("pruned")),
        )
        return outcome.certificate
    if mode == "score":
        outcome = scores.check_universal_score(
            p["target"], p["n_vertices"], scores.ScoreKind(p["score"]),
            m=p["m"], j=p["j"],
        )
        return outcome.certificate
    if mode == "wprime":
        outcome = vdw.check_universal_ap_sum(
            p["target"], p["length"], p["m"], prune=bool(p.get("pruned"))
        )
        return outcome.certificate
    raise ValueError(f"cannot rerun certificates for mode {mode!r}")
