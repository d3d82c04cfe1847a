"""Command-line front end.

Three subcommands: ``rho`` reports the clique/independent pair of one graph,
``search`` runs a certified threshold search and caches ResultRecords as JSON
lines, and ``verify`` executes the built-in claim table end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import __version__, engine, exact, greedy, scores, vdw
from .certificates import (EXHAUSTIVE, WITNESS, SearchCertificate,
                           SearchResult, UndecidedError, canonical_json,
                           revalidate)
from .graphs import (BudgetError, Graph, Graph6ParseError, bits,
                     labeled_graph_count, pair_count, parse_graph6,
                     write_graph6)

SCHEMA = 1
ENGINE = f"ramseykit {__version__}"
DEFAULT_CACHE = "results.jsonl"

SEARCH_KINDS = ("rprime", "ramsey", "rprime_m", "wprime", "score")


# --- rho ---------------------------------------------------------------------


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    edges = []
    for part in text.replace(",", " ").split():
        u, sep, v = part.partition("-")
        if not sep:
            raise ValueError(f"edge {part!r} is not of the form u-v")
        edges.append((int(u), int(v)))
    return edges


def _load_graph(args) -> Graph:
    if args.edges is not None:
        if args.graph6 is not None:
            raise ValueError("give either a graph6 string or --edges, not both")
        if args.n is None:
            raise ValueError("--edges needs --n for the vertex count")
        return Graph.from_edges(args.n, _parse_edge_list(args.edges))
    text = args.graph6
    if text is None:
        raise ValueError("give a graph6 string ('-' for stdin) or --edges/--n")
    if text == "-":
        text = sys.stdin.readline()
        if not text.strip():
            raise ValueError("no graph6 input on stdin")
    return parse_graph6(text)


def cmd_rho(args) -> int:
    try:
        g = _load_graph(args)
    except (ValueError, Graph6ParseError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    pair = exact.clique_indep_pair(g)
    out = {
        "n": g.n,
        "graph6": write_graph6(g),
        "omega": pair.a.bit_count(),
        "alpha": pair.b.bit_count(),
        "value": pair.value,
        "clique": sorted(bits(pair.a)),
        "independent": sorted(bits(pair.b)),
    }
    if args.json:
        print(canonical_json(out))
    else:
        print(f"n={out['n']} graph6={out['graph6']}")
        print(f"omega={out['omega']} clique={out['clique']}")
        print(f"alpha={out['alpha']} independent={out['independent']}")
        print(f"value={out['value']}")
    return 0


# --- search --------------------------------------------------------------------


def _search_query(args) -> dict:
    q = {"command": "search", "kind": args.kind, "target": args.n}
    given = {"m": args.m, "j": args.j, "score": args.score}
    q.update((k, given[k]) for k in engine.MODES[args.kind].keys)
    return q


def _run_search(args, query: dict):
    if args.kind == "score" and args.score is None:
        raise ValueError("kind 'score' needs --score clique|cycle|path")
    return engine.search(args.kind, args.n, budget=args.budget,
                         **{k: query[k] for k in engine.MODES[args.kind].keys})


def _find_cached(path: str, query: dict):
    if not os.path.exists(path):
        return None
    hit = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (isinstance(rec, dict) and rec.get("schema") == SCHEMA
                    and rec.get("engine") == ENGINE and rec.get("query") == query):
                hit = rec
    return hit


def _record(query: dict, result: SearchResult, wall_ms) -> dict:
    """The cache record of one search, as written and as replayed."""
    r = result.to_json_dict()
    return {
        "schema": SCHEMA,
        "query": query,
        "value": r["value"],
        "exact": r["exact"],
        "exhaustive": r["upper"] is not None,
        "bracket": r["bracket"],
        "certificates": {"lower": r["lower"], "upper": r["upper"]},
        "engine": ENGINE,
        "wall_ms": wall_ms,
    }


def _replay_ok(rec: dict, query: dict) -> bool:
    """Does a cached record stand on its certificates?  The upper one must be
    exhaustive for the query at some size v, the lower one a witness at
    v - 1 (absent at v = 1), and both must revalidate (shallow).  The record
    must then be, in canonical JSON, the one ``_record`` builds from them
    with the record's own ``wall_ms``."""
    mode = engine.MODES[query["kind"]]
    keys = {k: query[k] for k in mode.keys}
    try:
        certs = rec["certificates"]
        upper = SearchCertificate.from_json_dict(certs["upper"])
        value = upper.parameters[mode.size_key]
        lower = SearchCertificate.from_json_dict(certs["lower"]) if value != 1 else None
        for cert, kind, size in ((upper, EXHAUSTIVE, value), (lower, WITNESS, value - 1)):
            if cert is None:
                continue
            params = {"mode": query["kind"], "target": query["target"],
                      mode.size_key: size, **keys}
            if (cert.kind != kind or not revalidate(cert)
                    or canonical_json(cert.parameters) != canonical_json(params)):
                return False
        result = SearchResult(query["kind"], {}, value, lower, upper)
        return canonical_json(rec) == canonical_json(_record(query, result, rec["wall_ms"]))
    except (KeyError, TypeError, ValueError):
        return False


def _print_record(rec: dict, as_json: bool, cached: bool, cache_path: str):
    if as_json:
        print(canonical_json(rec))
        return
    q = rec["query"]
    extras = " ".join(f"{k}={q[k]}" for k in ("m", "score", "j") if k in q)
    print(f"kind={q['kind']} target={q['target']}" + (f" {extras}" if extras else ""))
    v = rec["value"]
    print(f"value={v} exact=yes bracket=[{v}, {v}]")
    lower = rec["certificates"]["lower"]
    if lower:
        inst = lower.get("witness_graph6") or lower.get("witness_coloring")
        print(f"lower: witness {inst!r} scores {lower['value']}")
    upper = rec["certificates"]["upper"]
    if upper:
        print(f"upper: exhaustive over {upper['scanned_count']} instances")
    src = "cache" if cached else f"{rec['wall_ms']} ms"
    print(f"({src}; records in {cache_path})")


def cmd_search(args) -> int:
    query = _search_query(args)
    if args.resume:
        hit = _find_cached(args.cache, query)
        if hit is not None and _replay_ok(hit, query):
            _print_record(hit, args.json, True, args.cache)
            return 0
        if hit is not None:
            print("cached record fails its certificates; recomputing", file=sys.stderr)
    t0 = time.perf_counter()
    try:
        result = _run_search(args, query)
    except (ValueError,) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except UndecidedError as e:
        hi = "null" if e.high is None else e.high
        print(f"undecided within budget: value in [{e.low}, {hi}]", file=sys.stderr)
        return 3
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    rec = _record(query, result, round((time.perf_counter() - t0) * 1000.0, 3))
    with open(args.cache, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(rec) + "\n")
    _print_record(rec, args.json, False, args.cache)
    return 0


# --- verify ----------------------------------------------------------------------

# Each check returns (expected, computed, ok); names double as --only filters.


def _check_rprime4(seed):
    r = exact.search_threshold("rprime", 4)
    ok = r.value == 3 and r.lower is not None
    return "threshold 3", f"threshold {r.value}", ok


def _is_five_cycle(g: Graph) -> bool:
    return g.n == 5 and all(g.degree(v) == 2 for v in range(5))


def _check_rprime5(seed):
    r = exact.search_threshold("rprime", 5)
    w = parse_graph6(r.lower.witness_graph6)
    ok = (r.value == 6 and _is_five_cycle(w)
          and exact.pair_sum_value(w) == 4
          and r.upper.scanned_count == labeled_graph_count(6))
    return ("threshold 6, 5-cycle witness",
            f"threshold {r.value}, witness {r.lower.witness_graph6}", ok)


def _check_ramsey3(seed):
    r = exact.search_threshold("ramsey", 3)
    w = parse_graph6(r.lower.witness_graph6)
    ok = r.value == 6 and _is_five_cycle(w)
    return ("threshold 6, 5-cycle witness",
            f"threshold {r.value}, witness {r.lower.witness_graph6}", ok)


def _check_c5(seed):
    g = Graph.cycle(5)
    pair = exact.clique_indep_pair(g)
    got = (pair.a.bit_count(), pair.b.bit_count(), pair.value)
    return "omega 2, alpha 2, value 4", f"omega {got[0]}, alpha {got[1]}, value {got[2]}", got == (2, 2, 4)


def _check_threevertex(seed):
    sizes = [exact.max_clique(Graph.from_code(3, code))[0] for code in (0, 1, 3, 7)]
    values = [exact.pair_sum_value(Graph.from_code(3, code)) for code in (0, 1, 3, 7)]
    ok = sizes == [1, 2, 2, 3] and values == [4, 4, 4, 4]
    return "clique sizes 1,2,2,3", "clique sizes " + ",".join(map(str, sizes)), ok


def _check_rprime_m(seed):
    got = {}
    for m in (2, 3):
        got[m] = [exact.search_threshold("rprime_m", m + k, m=m).value for k in (0, 1, 2)]
    ok = got[2] == [1, 2, 3] and got[3] == [1, 2, 3]
    return "thresholds 1,2,3 for m=2 and m=3", f"m=2: {got[2]}, m=3: {got[3]}", ok


def _check_wprime(seed):
    results = [vdw.ap_sum_threshold(2, n) for n in (1, 2, 3, 4)]
    vals, r4 = [r.value for r in results], results[-1]
    example = vdw.IntervalColoring.from_text("bbwbb", 2)
    s = vdw.ap_sum(example)[0]
    ok = (vals == [1, 2, 3, 6] and s == 3
          and r4.lower.witness_coloring == "aabaa")
    return ("thresholds 1,2,3,6; example sums 3",
            f"thresholds {vals}; example sums {s}", ok)


def _check_bounds(seed):
    coincide = all(exact.multicolor_ramsey_bound(n, 2) == exact.two_color_ramsey_bound(n)
                   for n in range(2, 11))
    spot = (exact.two_color_ramsey_bound(3) == 8
            and exact.pair_sum_bound(4) == 4
            and exact.family_sum_bound(3, 2) == 5
            and exact.bound_formulas(4, 2).family_sum == 4)
    ok = coincide and spot
    return "m=2 formulas coincide for n=2..10", "coincide" if coincide else "differ", ok


def _check_inequalities(seed):
    rp = {n: exact.search_threshold("rprime", n).value for n in (2, 3, 4, 5)}
    doubling = all(rp[n + 1] <= 2 * rp[n] for n in (2, 3, 4))
    ramsey3 = exact.search_threshold("ramsey", 3).value
    versus = ramsey3 <= rp[5]
    fam_ok = True
    for m in (2, 3):
        rm = {k: exact.search_threshold("rprime_m", m + k, m=m).value for k in (0, 1, 2)}
        fam_ok &= all(rm[k + 1] <= 2 + m * (rm[k] - 1) for k in (0, 1))
    w_ok = (vdw.classical_ap_check(2, 3, 9) and not vdw.classical_ap_check(2, 3, 8)
            and 9 <= vdw.ap_sum_threshold(2, 5).value)
    ok = doubling and versus and fam_ok and w_ok
    return ("all inequalities hold",
            f"doubling={doubling} pair-vs-single={versus} family={fam_ok} interval={w_ok}",
            ok)


def _check_greedy_sweep(seed):
    counts = []
    for n in range(2, 8):
        checked, violation = greedy.pair_guarantee_sweep(n)
        if violation is not None or checked != labeled_graph_count(n):
            return ("no violations on all graphs, n=2..7",
                    f"violation at n={n} code={violation}", False)
        counts.append(checked)
    return ("no violations on all graphs, n=2..7",
            f"no violations over {sum(counts)} graphs", True)


def _check_oracle(seed):
    for n in range(1, 6):
        for code in range(labeled_graph_count(n)):
            g = Graph.from_code(n, code)
            if exact.pair_sum_value(g) != exact.pair_sum_bruteforce(g):
                return "solver matches oracle", f"mismatch at n={n} code={code}", False
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randint(1, 16)
        pc = pair_count(n)
        code = rng.getrandbits(pc) if pc else 0
        g = Graph.from_code(n, code)
        if exact.pair_sum_value(g) != exact.pair_sum_bruteforce(g):
            return ("solver matches oracle",
                    f"mismatch at n={n} code={code}", False)
    return "solver matches oracle", f"exhaustive n<=5 + 1000 random (seed {seed})", True


CHECKS = [
    ("rprime4", _check_rprime4),
    ("rprime5", _check_rprime5),
    ("ramsey3", _check_ramsey3),
    ("c5", _check_c5),
    ("threevertex", _check_threevertex),
    ("rprime_m", _check_rprime_m),
    ("wprime", _check_wprime),
    ("bounds", _check_bounds),
    ("inequalities", _check_inequalities),
    ("greedy_sweep", _check_greedy_sweep),
    ("oracle", _check_oracle),
]


def cmd_verify(args) -> int:
    wanted = None
    if args.only:
        wanted = set()
        for chunk in args.only:
            wanted.update(x.strip() for x in chunk.split(",") if x.strip())
        bad = wanted - {name for name, _ in CHECKS}
        if bad or not wanted:
            print(f"unknown checks: {', '.join(sorted(bad))}" if bad
                  else "--only names no check", file=sys.stderr)
            return 2
    rows = []
    all_ok = True
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        t0 = time.perf_counter()
        expected, computed, ok = fn(args.seed)
        ms = round((time.perf_counter() - t0) * 1000.0, 1)
        rows.append({"check": name, "expected": expected, "computed": computed,
                     "ok": ok, "ms": ms})
        all_ok &= ok
    if args.json:
        print(canonical_json({"seed": args.seed, "checks": rows,
                              "ok": all_ok}))
    else:
        print(f"seed={args.seed}")
        width = max(len(r["check"]) for r in rows) if rows else 5
        for r in rows:
            status = "pass" if r["ok"] else "FAIL"
            print(f"{r['check']:<{width}}  {status}  expected: {r['expected']}"
                  f"  computed: {r['computed']}  ({r['ms']} ms)")
        print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 1


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ramseykit",
        description="Exact small-scale Ramsey-type searches with certificates.",
    )
    p.add_argument("--version", action="version", version=ENGINE)
    sub = p.add_subparsers(dest="command", required=True)

    rho = sub.add_parser("rho", help="clique/independent pair of one graph")
    rho.add_argument("graph6", nargs="?", default=None,
                     help="graph6 string, or '-' to read one line from stdin")
    rho.add_argument("--edges", help="edge list like '0-1,1-2,2-0'")
    rho.add_argument("--n", type=int, help="vertex count for --edges")
    rho.add_argument("--json", action="store_true")
    rho.set_defaults(func=cmd_rho)

    search = sub.add_parser("search", help="certified threshold search")
    search.add_argument("kind", choices=SEARCH_KINDS)
    search.add_argument("--n", type=int, required=True, help="target value")
    search.add_argument("--m", type=int, default=2, help="colour count")
    search.add_argument("--j", type=int, default=1,
                        help="class scores aggregated (score kind)")
    search.add_argument("--score", choices=[k.value for k in scores.ScoreKind],
                        help="score function for the score kind")
    search.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored (searches run in one"
                             " process); kept while perfbench/ still passes"
                             " it, see ROADMAP item 7")
    search.add_argument("--budget", type=int, default=None,
                        help="max instances per probe")
    search.add_argument("--cache", default=DEFAULT_CACHE)
    search.add_argument("--resume", action="store_true",
                        help="reuse a cached record for the same query")
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=cmd_search)

    verify = sub.add_parser("verify", help="run the built-in claim table")
    verify.add_argument("--only", action="append",
                        help="run only these checks (comma-separated, repeatable)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized oracle spot check")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
