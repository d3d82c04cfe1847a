"""Golden gate: every check and search emits the same canonical bytes.

Each case runs one public call (a check, a threshold search, a `verify`
claim, a CLI `search`, or a batch of greedy runs) and reduces its outcome to
canonical JSON: the certificate, search result or greedy traces, or the
exception it raised with the bracket an UndecidedError carries.  The sha256
of that JSON must equal the digest frozen in ``golden_certificates.json``.
Most cases run once.  The greedy sweeps at n >= 5 and the CLI searches
``rprime --n 4`` and ``rprime_m --n 3`` (m = 2, 3) run at ``threads`` 1 and
2, which both surfaces still accept and ignore; both runs must match.

Regenerate the data file only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden_certificates.py --freeze
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import random_graph
from ramseykit import cli, engine, exact, greedy, scores, vdw
from ramseykit.graphs import EdgeColoring, Graph, labeled_graph_count, pair_count
from ramseykit.certificates import SearchResult, UndecidedError, canonical_json

DATA = Path(__file__).with_name("golden_certificates.json")


def _outcome_json(thunk) -> str:
    try:
        out = thunk()
    except Exception as e:  # noqa: BLE001 - the exception type is part of the outcome
        rec = {"raises": type(e).__name__}
        if isinstance(e, UndecidedError):
            rec.update(kind=e.kind, parameters=e.parameters, low=e.low, high=e.high,
                       lower=e.lower.to_json_dict() if e.lower else None)
        return canonical_json(rec)
    if isinstance(out, exact.CheckOutcome):
        return canonical_json({"ok": out.ok, "certificate": out.certificate.to_json_dict()})
    if isinstance(out, SearchResult):
        return out.to_json()
    return canonical_json(out)


def _cli(argv: list[str]) -> dict:
    """Run the CLI in-process; the record without its wall time, plus the
    exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cache = ["--cache", str(Path(tmp) / "r.jsonl")] if argv[0] == "search" else []
            rc = cli.main(argv + cache)
    text = out.getvalue()
    rec = json.loads(text) if text else None
    if isinstance(rec, dict):
        rec.pop("wall_ms", None)
        for row in rec.get("checks", []):
            row.pop("ms", None)
    return {"rc": rc, "out": rec, "err": err.getvalue()}


# --- cases: (group, id, runs), each run a thunk with the frozen digest --------


def _both_threads(call) -> tuple:
    """Runs at threads 1 and 2 of a call that still accepts the argument."""
    return tuple(lambda t=t: call(t) for t in (1, 2))


def _check_cases():
    for mode in ("rprime", "ramsey"):
        for n in range(1, 7):
            for target in range(1, 8):
                if n == 6 and target not in (5, 6):
                    continue  # n=6 passes are 2^15-instance scans; keep two
                for prune in (False, True):
                    yield ("check_graph", f"{mode} n={n} t={target} prune={prune}",
                           (lambda mo=mode, n=n, tg=target, p=prune:
                            exact.check_universal(tg, n, mo, prune=p),))
    for m, top in ((2, 5), (3, 4), (4, 3)):
        for n in range(1, top + 1):
            for target in range(1, m + 4):
                yield ("check_coloring", f"rprime_m m={m} n={n} t={target}",
                       (lambda n=n, m=m, tg=target:
                        exact.check_universal(tg, n, "rprime_m", m=m),))
    for kind in ("clique", "cycle", "path"):
        for m, top in ((2, 5), (3, 4), (4, 3)):
            for j in range(1, m + 1):
                for n in range(1, top + 1):
                    for target in range(1, 7):
                        yield ("check_score", f"{kind} m={m} j={j} n={n} t={target}",
                               (lambda k=kind, n=n, m=m, j=j, tg=target:
                                engine.check("score", tg, n, m=m, j=j, score=k),))
    for m, top in ((1, 12), (2, 12), (3, 8), (4, 6)):
        for length in range(1, top + 1):
            for target in range(1, 2 * m + 4):  # frozen names keep "prune=False"
                yield ("check_interval", f"wprime m={m} len={length} t={target} prune=False",
                       (lambda m=m, ln=length, tg=target:
                        engine.check("wprime", tg, ln, m=m),))
    for m, n, top in ((1, 3, 4), (2, 3, 10), (2, 4, 28), (3, 3, 12)):
        for length in range(1, top + 1):
            yield ("check_interval", f"classical m={m} n={n} len={length}",
                   (lambda m=m, n=n, ln=length: vdw.classical_ap_check(m, n, ln),))
            yield ("check_interval", f"vdw m={m} n={n} len={length}",
                   (lambda m=m, n=n, ln=length: engine.check("vdw", n, ln, m=m),))


def _search_cases():
    for kind, targets in (("rprime", range(1, 6)), ("ramsey", range(1, 4))):
        for target in targets:
            for prune in (False, True):
                yield ("search_graph", f"{kind} t={target} prune={prune}",
                       (lambda k=kind, tg=target, p=prune:
                        exact.search_threshold(k, tg, prune=p),))
        for budget in (0, 1, 8, 64, 1024):
            yield ("search_graph", f"{kind} t=6 budget={budget}",
                   (lambda k=kind, b=budget: exact.search_threshold(k, 6, budget=b),))
    for m in (2, 3, 4):
        for target in range(1, 6):
            yield ("search_coloring", f"rprime_m m={m} t={target}",
                   (lambda m=m, tg=target:
                    exact.search_threshold("rprime_m", tg, m=m, budget=1 << 12),))
    for budget in (0, 1, 2, 64):
        yield ("search_coloring", f"rprime_m m=3 t=4 budget={budget}",
               (lambda b=budget: exact.search_threshold("rprime_m", 4, m=3, budget=b),))
    for kind in ("clique", "cycle", "path"):
        for m in (2, 3):
            for j in range(1, m + 1):
                for target in range(1, 6):
                    yield ("search_score", f"{kind} m={m} j={j} t={target}",
                           (lambda k=kind, m=m, j=j, tg=target:
                            scores.search_threshold_score(k, m, j, tg, budget=1 << 12),))
    for m, targets in ((1, range(1, 6)), (2, range(1, 7)), (3, range(1, 7)), (4, range(1, 6))):
        for target in targets:
            yield ("search_interval", f"wprime m={m} t={target} prune=False",
                   (lambda m=m, tg=target: vdw.ap_sum_threshold(m, tg),))
    for budget in (0, 1, 64, 1 << 10):
        yield ("search_interval", f"wprime m=2 t=6 budget={budget}",
               (lambda b=budget: vdw.ap_sum_threshold(2, 6, budget=b),))
    for m in (1, 2, 3):
        for target in range(1, 5):
            yield ("search_interval", f"vdw m={m} t={target}",
                   (lambda m=m, tg=target: engine.search("vdw", tg, m=m),))


def _invalid_cases():
    calls = {
        "rprime m=3": lambda: exact.check_universal(3, 3, "rprime", m=3),
        "ramsey t=0": lambda: exact.check_universal(0, 3, "ramsey"),
        "rprime n=8": lambda: exact.check_universal(3, 8, "rprime"),
        "rprime n=5 budget=1023": lambda: exact.check_universal(3, 5, "rprime", budget=1023),
        "rprime n=5 budget=1024": lambda: exact.check_universal(3, 5, "rprime", budget=1024),
        "ramsey n=5 prune budget=1023":
            lambda: exact.check_universal(3, 5, "ramsey", prune=True, budget=1023),
        "rprime_m prune": lambda: exact.check_universal(3, 3, "rprime_m", prune=True),
        "rprime_m m=1": lambda: exact.check_universal(3, 3, "rprime_m", m=1),
        "ramsey_m m=9": lambda: exact.check_universal(3, 3, "ramsey_m", m=9),
        "ramsey_m t=0": lambda: exact.check_universal(0, 3, "ramsey_m", m=3),
        "rprime_m n=5 m=4 budget=2^20-1":
            lambda: exact.check_universal(3, 5, "rprime_m", m=4, budget=(1 << 20) - 1),
        "rprime_m n=6 m=3": lambda: exact.check_universal(3, 6, "rprime_m", m=3),
        "check mode score": lambda: exact.check_universal(3, 3, "score"),
        "check mode wprime": lambda: exact.check_universal(3, 3, "wprime"),
        "check mode bogus": lambda: exact.check_universal(3, 3, "bogus"),
        "search kind score": lambda: exact.search_threshold("score", 3),
        "search kind wprime": lambda: exact.search_threshold("wprime", 3),
        "search rprime m=3": lambda: exact.search_threshold("rprime", 3, m=3),
        "search rprime_m m=9": lambda: exact.search_threshold("rprime_m", 3, m=9),
        "search ramsey t=0": lambda: exact.search_threshold("ramsey", 0),
        "score kind bogus": lambda: engine.check("score", 3, 3, score="bogus"),
        "score j=0": lambda: engine.check("score", 3, 3, m=2, j=0),
        "score j=3 m=2": lambda: engine.check("score", 3, 3, m=2, j=3),
        "score m=1": lambda: engine.check("score", 3, 3, m=1, j=1, score="path"),
        "score t=0": lambda: engine.check("score", 0, 3, score="cycle"),
        "score n=6 m=3": lambda: engine.check("score", 3, 6, m=3, score="path"),
        "score search j=5": lambda: scores.search_threshold_score("clique", 2, 5, 3),
        "score search j=5 budget=0":
            lambda: scores.search_threshold_score("clique", 2, 5, 3, budget=0),
        "wprime t=0": lambda: engine.check("wprime", 0, 3, m=2),
        "wprime len=0": lambda: engine.check("wprime", 3, 0, m=2),
        "wprime m=9": lambda: engine.check("wprime", 3, 3, m=9),
        "wprime len=27": lambda: engine.check("wprime", 3, 27, m=2),
        "wprime search m=9": lambda: vdw.ap_sum_threshold(9, 3),
        "wprime search m=0 budget=0": lambda: vdw.ap_sum_threshold(0, 3, budget=0),
        "wprime search t=0": lambda: vdw.ap_sum_threshold(2, 0),
        "classical len=0": lambda: vdw.classical_ap_check(2, 3, 0),
        "vdw prune": lambda: engine.check("vdw", 3, 3, prune=True),
        "vdw m=0": lambda: engine.check("vdw", 3, 3, m=0),
        "vdw m=9": lambda: engine.check("vdw", 3, 3, m=9),
    }
    for name, call in calls.items():
        yield ("invalid", name, (call,))


def _cli_cases():
    argvs = [["rprime", "--n", str(t)] for t in range(1, 6)]
    argvs += [["ramsey", "--n", str(t)] for t in range(1, 4)]
    argvs += [["rprime_m", "--n", str(t), "--m", str(m)] for m in (2, 3) for t in range(1, 6)]
    argvs += [["wprime", "--n", str(t), "--m", str(m)] for m in (1, 2, 3) for t in range(1, 6)]
    argvs += [["score", "--n", str(t), "--m", str(m), "--j", str(j), "--score", k]
              for k in ("clique", "cycle", "path") for m in (2, 3)
              for j in range(1, m + 1) for t in (2, 3, 4)]
    argvs += [["rprime", "--n", "6", "--budget", "1024"], ["score", "--n", "3"],
              ["wprime", "--n", "6", "--budget", "100"],
              ["rprime_m", "--n", "4", "--m", "3", "--budget", "10"],
              ["vdw", "--n", "3", "--m", "2"]]
    for argv in argvs:
        if argv[:3] in (["rprime", "--n", "4"], ["rprime_m", "--n", "3"]):
            runs = _both_threads(lambda t, a=argv:
                                 _cli(["search"] + a + ["--threads", str(t), "--json"]))
        else:
            runs = (lambda a=argv: _cli(["search"] + a + ["--json"]),)
        yield ("cli_search", " ".join(argv), runs)
    # The claim table's threshold checks (the greedy sweep and subset oracle
    # emit no certificates).
    for name in ("rprime4", "rprime5", "ramsey3", "rprime_m", "wprime", "inequalities"):
        yield ("cli_verify", name,
               (lambda nm=name: _cli(["verify", "--only", nm, "--json"]),))


def _greedy_cases():
    rng = random.Random(2016)
    seeded_graphs = [random_graph(rng, rng.randint(2, 64)) for _ in range(100)]
    seeded_colorings = []
    for _ in range(20):
        m = rng.randint(2, 8)
        seeded_colorings.append(EdgeColoring(64, m, tuple(rng.randrange(m) for _ in range(2016))))
    # Each seeded rule is fresh per run; "shared" reuses one rule across the
    # batch, which also pins how many picks each run draws.
    rules = [("lowest", lambda: greedy.pick_lowest),
             ("highest-degree", lambda: greedy.pick_highest_degree)]
    rules += [(f"seeded({s})", lambda s=s: greedy.seeded_pick(s)) for s in range(4)]

    def batch(run, hosts, rule, shared):
        one = rule()
        return [run(h, one if shared else rule())[1].to_json_dict() for h in hosts]

    pair_hosts = [(f"n={n}", lambda n=n: [Graph.from_code(n, c)
                                          for c in range(labeled_graph_count(n))])
                  for n in range(1, 6)]
    pair_hosts.append(("seeded", lambda: seeded_graphs))
    for variant in ("disjoint", "overlap"):
        run = getattr(greedy, f"greedy_pair_{variant}")
        for host, hosts in pair_hosts:
            for (rule_name, rule), shared in [(r, False) for r in rules] + [(rules[-1], True)]:
                name = f"{variant} {host} pick={rule_name}{' shared' if shared else ''}"
                yield ("greedy", name,
                       (lambda run=run, hosts=hosts, rule=rule, sh=shared:
                        batch(run, hosts(), rule, sh),))
    family_hosts = [(f"m={m} n={n}", lambda n=n, m=m: [EdgeColoring.from_code(n, m, c)
                                                       for c in range(m ** pair_count(n))])
                    for m, top in ((2, 4), (3, 3)) for n in range(1, top + 1)]
    family_hosts.append(("seeded n=64", lambda: seeded_colorings))
    for host, hosts in family_hosts:
        for (rule_name, rule), shared in [(r, False) for r in rules] + [(rules[-1], True)]:
            yield ("greedy", f"family {host} pick={rule_name}{' shared' if shared else ''}",
                   (lambda hosts=hosts, rule=rule, sh=shared:
                    batch(greedy.greedy_family, hosts(), rule, sh),))
    for n in range(2, 7):
        yield ("greedy", f"sweep n={n}",
               _both_threads(lambda t, n=n: greedy.pair_guarantee_sweep(n, threads=t))
               if n >= 5 else (lambda n=n: greedy.pair_guarantee_sweep(n),))


def _cases():
    for gen in (_check_cases, _search_cases, _invalid_cases, _cli_cases, _greedy_cases):
        yield from gen()


GROUPS = ("check_graph", "check_coloring", "check_score", "check_interval",
          "search_graph", "search_coloring", "search_score", "search_interval",
          "invalid", "cli_search", "cli_verify", "greedy")


def _digest(thunk) -> str:
    return hashlib.sha256(_outcome_json(thunk).encode()).hexdigest()


@pytest.mark.parametrize("group", GROUPS)
def test_golden_certificates(group):
    golden = json.loads(DATA.read_text())[group]
    seen = set()
    wrong = []
    for grp, case, runs in _cases():
        if grp != group:
            continue
        seen.add(case)
        for i, run in enumerate(runs, 1):
            if _digest(run) != golden.get(case):
                wrong.append(f"{case} (run {i} of {len(runs)})")
    assert seen == set(golden), "case list differs from the frozen data"
    assert not wrong, f"{len(wrong)} outcomes differ: {wrong[:10]}"


def _freeze():
    data = {g: {} for g in GROUPS}
    for grp, case, runs in _cases():
        assert case not in data[grp], f"duplicate case {grp}/{case}"
        data[grp][case] = _digest(runs[0])
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"froze {sum(map(len, data.values()))} digests in {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: test_golden_certificates.py --freeze")
    _freeze()
