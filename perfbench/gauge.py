"""A speed gauge for a host whose cores are shared with other tenants.

The gauge times fixed jobs that do not touch the package under measurement
(``SpeedGauge``); their durations sample how fast the host runs this
process at that moment.  A timing taken between two samples is scaled to
reference speed by dividing it by the mean of the two samples.

On the 2-vCPU host where the benchmark was defined, plain wall times drifted
by up to 40% between runs minutes apart while the scaled times moved by a
few percent; see README.md.
"""

from __future__ import annotations

import random
import time

# Job sizes, and each job's duration at reference speed: about its 10th
# percentile on the 2-vCPU x86-64 host the benchmark was defined on
# (CPython 3.11.7), i.e. when the host ran it fast.
CLIQUE_GRAPHS = 8
VERTICES = 64
DECODE_CODES = 600
CLIQUE_REFERENCE_S = 0.0065
DECODE_REFERENCE_S = 0.0026


def reference_omega(adj, n: int) -> int:
    """Largest clique by plain Carraghan-Pardalos search over adjacency
    bitmasks; written apart from the package's solver."""
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand ^= 1 << v
            expand(cand & adj[v], size + 1)

    expand((1 << n) - 1, 0)
    return best


class SpeedGauge:
    """Two fixed jobs, each timed and divided by its duration at reference
    speed: the clique search (integer bit twiddling and recursion) and
    decoding random 7-vertex graph codes into row lists (small allocations).
    ``sample`` returns their mean: 1.0 at reference speed, 2.0 when the host
    runs this process half as fast.  (A job that forks would track process
    start-up too, but its children would count in the peak-RSS metric.)"""

    def __init__(self):
        rng = random.Random(0)
        self.graphs = []
        for _ in range(CLIQUE_GRAPHS):
            adj = [0] * VERTICES
            for v in range(VERTICES):
                for u in range(v):
                    if rng.getrandbits(1):
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            self.graphs.append(adj)
        self.codes = [rng.getrandbits(21) for _ in range(DECODE_CODES)]
        self.pairs = [(i, j) for j in range(1, 7) for i in range(j)]

    def _clique(self):
        for adj in self.graphs:
            reference_omega(adj, VERTICES)

    def _decode(self):
        for code in self.codes:
            rows = [0] * 7
            k = 0
            while code:
                if code & 1:
                    i, j = self.pairs[k]
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                code >>= 1
                k += 1
            {v: tuple(rows) for v in range(7)}

    def sample(self) -> float:
        """Current slowness of the host relative to reference speed."""
        total = 0.0
        for job, reference in ((self._clique, CLIQUE_REFERENCE_S),
                               (self._decode, DECODE_REFERENCE_S)):
            t0 = time.perf_counter()
            job()
            total += (time.perf_counter() - t0) / reference
        return total / 2

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between samples ``before`` and ``after``, at
        reference speed."""
        return seconds * 2 / (before + after)
