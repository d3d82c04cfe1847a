"""Frontier probes: each cell of ``ramseykit.cli.CELLS`` in a process of its
own, so that its peak RSS is its own, then the greedy guarantee sweeps.  A
cell gates its verdict, value or undecided low end, a deep ``revalidate`` of
every certificate it yields, and its RSS bound; times are printed only.

    python tools/frontier.py          # every cell, then the sweeps; exit 1 on a failure
    python tools/frontier.py CELL     # one cell, as the JSON list of its fields
"""

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ramseykit import UndecidedError, engine, greedy, revalidate  # noqa: E402
from ramseykit.cli import CELLS, Cell  # noqa: E402
from ramseykit.graphs import labeled_graph_count  # noqa: E402

# (n, the floor raised by one or None, the least code that misses the raised floor)
SWEEPS = [(7, None, None), (8, None, None), (9, None, None), (10, None, None),
          (9, "disjoint_guarantee_floor", 75), (9, "overlap_guarantee_floor", 79),
          (10, "disjoint_guarantee_floor", 1103), (10, "overlap_guarantee_floor", 1119)]


def run_cell(cell: Cell) -> bool:
    start = time.perf_counter()
    try:
        if cell.verdict in ("pass", "fail"):
            out = engine.check(cell.kind, cell.target, cell.n, budget=cell.budget, **cell.keys)
            got, certs = ("pass" if out.ok else "fail", cell.n), [out.certificate]
        else:
            out = engine.search(cell.kind, cell.target, budget=cell.budget, **cell.keys)
            got, certs = ("value", out.value), [out.lower, out.upper]
    except UndecidedError as undecided:
        got, certs = ("low", undecided.low), [undecided.lower]
    took, start = time.perf_counter() - start, time.perf_counter()
    stands = all(revalidate(cert, deep=True) for cert in certs if cert is not None)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{cell.kind} {cell.keys} t={cell.target}: {got[0]} {got[1]} ({took:.2f} s),"
          f" deep revalidate {stands} ({time.perf_counter() - start:.2f} s),"
          f" peak RSS {rss:.0f} MB", flush=True)
    return got == (cell.verdict, cell.n) and stands and (cell.rss is None or rss < cell.rss)


def run_sweep(n: int, raised, least) -> bool:
    real = {name: getattr(greedy, name) for name in
            ("disjoint_guarantee_floor", "overlap_guarantee_floor")}
    if raised:
        setattr(greedy, raised, lambda n, floor=real[raised]: floor(n) + 1)
    start = time.perf_counter()
    got = greedy.pair_guarantee_sweep(n)
    vars(greedy).update(real)
    print(f"pair_guarantee_sweep({n}) raised={raised}: {got}"
          f" ({time.perf_counter() - start:.2f} s)", flush=True)
    return got == ((labeled_graph_count(n), None) if least is None else (least + 1, least))


def main(argv: list[str]) -> int:
    if argv:
        return 0 if run_cell(Cell(*json.loads(argv[0]))) else 1
    failed = [cell for cell in CELLS
              if subprocess.run([sys.executable, __file__, json.dumps(cell)]).returncode]
    failed += [sweep for sweep in SWEEPS if not run_sweep(*sweep)]
    print("\n".join(f"FAILED: {what}" for what in failed) or "every cell and sweep holds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
