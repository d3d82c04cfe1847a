"""Machine-checkable certificates for exhaustive scans and threshold searches.

Every exhaustive claim ("all instances of this size meet the target") and
every counterexample is wrapped in a SearchCertificate that an independent
checker can revalidate.  Serialization is canonical (sorted keys, fixed
separators, no timing data), so two runs that agree produce byte-identical
JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

WITNESS = "witness"
EXHAUSTIVE = "exhaustive"
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    return _CANONICAL.encode(obj)


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
        """Every field, with the parameters copied."""
        return dict(vars(self), parameters=dict(self.parameters))

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchCertificate":
        """The certificate ``to_json_dict`` wrote; unknown keys raise TypeError."""
        return cls(**d)


@dataclass(frozen=True)
class SearchResult:
    """A threshold value plus the certificates that pin it down: a ``lower``
    witness at value-1 (absent when the threshold is 1, where there is nothing
    to fail) and an ``upper`` exhaustive certificate at the value itself.
    Every search is exact, so the serialised form writes ``"exact": true``
    and ``"bracket": [value, value]`` as constants; both are part of the
    canonical bytes that golden digests pin.
    """

    kind: str
    parameters: dict
    value: int
    lower: Optional[SearchCertificate] = None
    upper: Optional[SearchCertificate] = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "value": self.value,
            "exact": True,
            "bracket": [self.value, self.value],
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
    """Recheck a certificate by emitting it again.  It stands only if its
    canonical JSON is what ``engine.emit``, the builder of every check,
    makes of its parameters (exhaustive) or of the code its witness text
    reads as, at the recorded size (a witness, which must also score below
    the target).  ``deep=True`` reruns an exhaustive scan through
    ``engine._check``, as ``check`` runs it, under a budget of its full
    instance count.  Past the enumeration cap both checks refuse
    exhaustive certificates, and path and cycle witnesses, whose rescoring
    is exponential.  A malformed certificate is rejected (False), never
    raised on."""
    from .engine import MODES, _check, emit
    from .graphs import ENUMERATION_CAP, MAX_VERTICES

    p = cert.parameters
    try:
        mode = MODES[p["mode"]]
        target, size = p["target"], p[mode.size_key]
        m, j, score = p.get("m", 2), p.get("j", 1), p.get("score", "clique")
        params = mode.params(target, size, m, j, score, p.get("pruned", False))
        # No check accounts for more than ENUMERATION_CAP instances, and past
        # it a path or cycle rescoring can take minutes (clique and AP ones
        # take milliseconds); the size test keeps off a huge power.
        if size > MAX_VERTICES and m > 1 or (cert.kind == EXHAUSTIVE or score != "clique") \
                and mode.count(size, m) > ENUMERATION_CAP:
            return False
        code = mode.read(getattr(cert, mode.field), m).code if cert.kind == WITNESS else None
        again = emit(mode, params, code)
        emitted = again.to_json()
        if emitted != cert.to_json() or again.kind == WITNESS and again.value >= target:
            return False
    except (AttributeError, LookupError, TypeError, ValueError):
        return False
    if not deep or again.kind == WITNESS:
        return True
    return _check(mode, params, mode.count(size, m)).certificate.to_json() == emitted
