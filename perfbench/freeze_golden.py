"""Write golden.json: the value and certificate digest of every benchmark call.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/freeze_golden.py

The digests are the sha256 of canonical certificate JSON.  The CLI digests
are taken at ``--threads 1``, so the benchmark's ``--threads 2`` queries must
reproduce one-shard bytes.  The thresholds named in the benchmark's README
are asserted before anything is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import mixes  # noqa: E402


def main() -> int:
    digests = {}
    specs = [s for table in (mixes.GRAPH_SCAN, mixes.COLOR_INTERVAL)
             for size in ("full", "quick") for s in table[size]]
    specs += [mixes.sweep_spec(n, 2) for n in range(2, 8)]
    specs += [mixes.sweep_spec(n, 1) for n in mixes.SPEEDUP_N.values()]
    for s in specs:
        _, fname, kwargs = s
        digests[mixes.spec_key(s)] = mixes.digest(mixes.CALLS[fname](**kwargs))
    with tempfile.TemporaryDirectory() as tmp:
        cache = str(Path(tmp) / "results.jsonl")
        for size in ("full", "quick"):
            for argv in mixes.cli_queries(size):
                rc, rec = mixes._cli(["search"] + argv + ["--threads", "1", "--cache", cache,
                                                          "--json"])
                assert rc == 0, argv
                digests[mixes.cli_key(argv)] = mixes.record_digest(rec)

    def value(fname, **kwargs):
        return digests[mixes.spec_key(("", fname, kwargs))]["value"]

    assert [value("search_threshold", kind="rprime", target=t) for t in (2, 3, 4, 5)] == [1, 2, 3, 6]
    assert value("search_threshold", kind="ramsey", target=3) == 6
    assert mixes.exact.search_threshold("ramsey", 3).lower.witness_graph6 == "DLo"
    assert value("classical_ap_check", m=2, n=3, length=9) is True
    assert value("classical_ap_check", m=2, n=3, length=8) is False
    assert sum(value("pair_guarantee_sweep", n=n, threads=2)[0] for n in range(2, 8)) == 2_131_018
    assert all(value("pair_guarantee_sweep", n=n, threads=2)[1] is None for n in range(2, 8))
    wprime = [digests[mixes.cli_key(["wprime", "--n", str(t), "--m", "2"])]["value"]
              for t in (1, 2, 3, 4, 5)] + [value("ap_sum_threshold", m=2, target=6)]
    assert wprime == [1, 2, 3, 6, 9, 18], wprime

    (HERE / "golden.json").write_text(json.dumps(
        {"note": "frozen by perfbench/freeze_golden.py; see perfbench/README.md",
         "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
