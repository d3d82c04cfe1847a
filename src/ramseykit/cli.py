"""Command-line front end.

Three subcommands: ``rho`` reports the clique/independent pair of one graph,
``search`` runs a certified threshold search and caches ResultRecords as JSON
lines, and ``verify`` runs the claim table ``CLAIMS`` end to end.  Every
threshold a claim states comes from ``engine.search`` and has passed a deep
recheck of both its certificates (``revalidate(deep=True)``, which reruns
the scans); a certificate that fails it fails the claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

from . import __version__, engine, exact, greedy, scores, vdw
from .certificates import (EXHAUSTIVE, WITNESS, SearchCertificate,
                           SearchResult, UndecidedError, canonical_json,
                           revalidate)
from .graphs import (Graph, Graph6ParseError, bits, labeled_graph_count,
                     pair_count, parse_graph6, write_graph6)

SCHEMA = 2
ENGINE = f"ramseykit {__version__}"
DEFAULT_CACHE = "results.jsonl"


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


def _check_cache(path: str) -> None:
    """Raise OSError now if a record could not be appended to ``path`` later."""
    parent = os.path.dirname(path) or "."
    if os.path.exists(path):
        open(path, "ab").close()
    elif not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise FileNotFoundError(f"no writable directory for the cache {path}")


def _find_cached(path: str, query: dict):
    """The last record for ``query`` in the cache, read from the end so only
    the lines after it are decoded."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        for line in reversed(fh.readlines()):
            try:
                rec = json.loads(line)
            except ValueError:  # not UTF-8, or not JSON
                continue
            if (isinstance(rec, dict) and rec.get("schema") == SCHEMA
                    and rec.get("engine") == ENGINE and rec.get("query") == query):
                return rec
    return None


def _record(query: dict, result: SearchResult, wall_ms) -> dict:
    """The cache record of one search, as written and as replayed."""
    r = result.to_json_dict()
    return {
        "schema": SCHEMA,
        "query": query,
        "value": r["value"],
        "certificates": {"lower": r["lower"], "upper": r["upper"]},
        "engine": ENGINE,
        "wall_ms": wall_ms,
    }


def _stands(query: dict, result: SearchResult, deep: bool = False) -> bool:
    """Do the certificates pin ``result.value`` for the query?  The upper one
    must be exhaustive at size ``value``, the lower one a witness at
    ``value - 1`` (absent at value 1), both with the query's parameters, and
    both must revalidate (``deep`` reruns their scans)."""
    mode = engine.MODES[query["kind"]]
    keys = {k: query[k] for k in mode.keys}
    v = result.value
    for cert, kind, size in ((result.upper, EXHAUSTIVE, v), (result.lower, WITNESS, v - 1)):
        if cert is None and size == 0:
            continue
        params = {"mode": query["kind"], "target": query["target"],
                  mode.size_key: size, **keys}
        if (cert is None or cert.kind != kind
                or canonical_json(cert.parameters) != canonical_json(params)
                or not revalidate(cert, deep)):
            return False
    return True


def _replay_ok(rec: dict, query: dict) -> bool:
    """Does a cached record stand on its certificates (shallow), and is it,
    in canonical JSON, the record ``_record`` builds from them with its own
    ``wall_ms``?"""
    try:
        certs = rec["certificates"]
        upper = SearchCertificate.from_json_dict(certs["upper"])
        value = upper.parameters[engine.MODES[query["kind"]].size_key]
        lower = SearchCertificate.from_json_dict(certs["lower"]) if value != 1 else None
        result = SearchResult(query["kind"], {}, value, lower, upper)
        return _stands(query, result) and canonical_json(rec) == canonical_json(
            _record(query, result, rec["wall_ms"]))
    except (KeyError, TypeError, ValueError):
        return False


def _print_record(rec: dict, as_json: bool, cached: bool, cache_path: str):
    if as_json:
        print(canonical_json(rec))
        return
    q = rec["query"]
    extras = " ".join(f"{k}={q[k]}" for k in ("m", "score", "j") if k in q)
    print(f"kind={q['kind']} target={q['target']}" + (f" {extras}" if extras else ""))
    print(f"value={rec['value']}")
    lower = rec["certificates"]["lower"]
    if lower:
        inst = lower.get("witness_graph6") or lower.get("witness_coloring")
        print(f"lower: witness {inst!r} scores {lower['value']}")
    upper = rec["certificates"]["upper"]
    print(f"upper: exhaustive over {upper['scanned_count']} instances")
    src = "cache" if cached else f"{rec['wall_ms']} ms"
    print(f"({src}; records in {cache_path})")


def cmd_search(args) -> int:
    query = _search_query(args)
    try:
        hit = _find_cached(args.cache, query) if args.resume else None
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    if hit is not None and _replay_ok(hit, query):
        _print_record(hit, args.json, True, args.cache)
        return 0
    if hit is not None:
        print("cached record fails its certificates; recomputing", file=sys.stderr)
    try:
        _check_cache(args.cache)  # a replay writes nothing, a search appends
        t0 = time.perf_counter()
        result = _run_search(args, query)
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except UndecidedError as e:
        hi = "null" if e.high is None else e.high
        print(f"undecided within budget: value in [{e.low}, {hi}]", file=sys.stderr)
        return 3
    rec = _record(query, result, round((time.perf_counter() - t0) * 1000.0, 3))
    with open(args.cache, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(rec) + "\n")
    _print_record(rec, args.json, False, args.cache)
    return 0


# --- verify ----------------------------------------------------------------------


class _Unchecked(Exception):
    """A threshold search whose certificates fail their deep recheck."""


def _threshold(kind: str, target: int, **keys) -> SearchResult:
    """``engine.search``'s result, once both its certificates pass
    ``revalidate(deep=True)`` for this query: every threshold a claim states
    comes from here."""
    result = engine.search(kind, target, **keys)
    if not _stands({"kind": kind, "target": target, **keys}, result, deep=True):
        raise _Unchecked(f"{kind} target {target}: a certificate fails its deep recheck")
    return result


def _rprime4(seed):
    value = _threshold("rprime", 4).value
    return f"threshold {value}", value == 3


def _five_cycle_witness(kind: str, target: int):
    r = _threshold(kind, target)
    w = parse_graph6(r.lower.witness_graph6)
    ok = r.value == 6 and w.n == 5 and all(w.degree(v) == 2 for v in range(5))
    return f"threshold {r.value}, witness {r.lower.witness_graph6}", ok


def _c5(seed):
    pair = exact.clique_indep_pair(Graph.cycle(5))
    got = (pair.a.bit_count(), pair.b.bit_count(), pair.value)
    return "omega {}, alpha {}, value {}".format(*got), got == (2, 2, 4)


def _threevertex(seed):
    graphs = [Graph.from_code(3, code) for code in (0, 1, 3, 7)]
    sizes = [exact.max_clique(g)[0] for g in graphs]
    ok = sizes == [1, 2, 2, 3] and all(exact.pair_sum_value(g) == 4 for g in graphs)
    return "clique sizes " + ",".join(map(str, sizes)), ok


def _rprime_m_thresholds() -> dict:
    """rprime_m thresholds at targets m, m + 1, m + 2, for m = 2 and 3."""
    return {m: [_threshold("rprime_m", m + k, m=m).value for k in range(3)] for m in (2, 3)}


def _rprime_m(seed):
    got = _rprime_m_thresholds()
    return f"m=2: {got[2]}, m=3: {got[3]}", got[2] == got[3] == [1, 2, 3]


def _wprime(seed):
    results = [_threshold("wprime", n, m=2) for n in (1, 2, 3, 4)]
    vals = [r.value for r in results]
    s = vdw.ap_sum(vdw.IntervalColoring.from_text("bbwbb", 2))[0]
    ok = vals == [1, 2, 3, 6] and s == 3 and results[-1].lower.witness_coloring == "aabaa"
    return f"thresholds {vals}; example sums {s}", ok


def _bounds(seed):
    coincide = all(exact.multicolor_ramsey_bound(n, 2) == exact.two_color_ramsey_bound(n)
                   for n in range(2, 11))
    spot = (exact.two_color_ramsey_bound(3) == 8
            and exact.pair_sum_bound(4) == 4
            and exact.family_sum_bound(3, 2) == 5
            and exact.bound_formulas(4, 2).family_sum == 4)
    return "coincide" if coincide else "differ", coincide and spot


def _inequalities(seed):
    rp = {n: _threshold("rprime", n).value for n in (2, 3, 4, 5)}
    doubling = all(rp[n + 1] <= 2 * rp[n] for n in (2, 3, 4))
    versus = _threshold("ramsey", 3).value <= rp[5]
    rm = _rprime_m_thresholds()
    family = all(rm[m][k + 1] <= 2 + m * (rm[m][k] - 1) for m in (2, 3) for k in (0, 1))
    interval = _threshold("vdw", 3, m=2).value == 9 <= _threshold("wprime", 5, m=2).value
    return (f"doubling={doubling} pair-vs-single={versus} family={family} interval={interval}",
            doubling and versus and family and interval)


def _greedy_sweep(seed):
    total = 0
    for n in range(2, 9):
        checked, violation = greedy.pair_guarantee_sweep(n)
        if violation is not None or checked != labeled_graph_count(n):
            return f"violation at n={n} code={violation}", False
        total += checked
    return f"no violations over {total} graphs", True


def _oracle(seed):
    rng = random.Random(seed)
    sizes = (rng.randint(1, 16) for _ in range(1000))  # each drawn just before its code
    codes = [(n, code) for n in range(1, 6) for code in range(labeled_graph_count(n))]
    codes += [(n, rng.getrandbits(pair_count(n)) if n > 1 else 0) for n in sizes]
    for n, code in codes:
        g = Graph.from_code(n, code)
        if exact.pair_sum_value(g) != exact.pair_sum_bruteforce(g):
            return f"mismatch at n={n} code={code}", False
    return f"exhaustive n<=5 + 1000 random (seed {seed})", True


# (name, expected, run): ``run(seed)`` returns (computed, ok); names double as
# --only filters.
CLAIMS = [
    ("rprime4", "threshold 3", _rprime4),
    ("rprime5", "threshold 6, 5-cycle witness", lambda seed: _five_cycle_witness("rprime", 5)),
    ("ramsey3", "threshold 6, 5-cycle witness", lambda seed: _five_cycle_witness("ramsey", 3)),
    ("c5", "omega 2, alpha 2, value 4", _c5),
    ("threevertex", "clique sizes 1,2,2,3", _threevertex),
    ("rprime_m", "thresholds 1,2,3 for m=2 and m=3", _rprime_m),
    ("wprime", "thresholds 1,2,3,6; example sums 3", _wprime),
    ("bounds", "m=2 formulas coincide for n=2..10", _bounds),
    ("inequalities", "all inequalities hold", _inequalities),
    ("greedy_sweep", "no violations on all graphs, n=2..8", _greedy_sweep),
    ("oracle", "solver matches oracle", _oracle),
]


def cmd_verify(args) -> int:
    wanted = None
    if args.only:
        wanted = {x.strip() for chunk in args.only for x in chunk.split(",") if x.strip()}
        bad = wanted - {name for name, _, _ in CLAIMS}
        if bad or not wanted:
            print(f"unknown checks: {', '.join(sorted(bad))}" if bad
                  else "--only names no check", file=sys.stderr)
            return 2
    rows = []
    for name, expected, run in CLAIMS:
        if wanted is not None and name not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            computed, ok = run(args.seed)
        except _Unchecked as e:
            computed, ok = str(e), False
        ms = round((time.perf_counter() - t0) * 1000.0, 1)
        rows.append({"check": name, "expected": expected, "computed": computed,
                     "ok": ok, "ms": ms})
    all_ok = all(r["ok"] for r in rows)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    ``parse_args`` leaves it unchanged, so requests cannot leak into each
    other."""
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
    search.add_argument("kind", choices=engine.MODES)
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
    p.subcommands = sub.choices
    return p


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same output and exit on
    bad input, but a request that starts with a subcommand goes straight to
    that subcommand's parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:  # no argv, -h, --version or an unknown command
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:  # reported by the top parser, as its own pass would
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
