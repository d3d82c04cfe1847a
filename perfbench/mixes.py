"""Workload mixes, golden checks and span tracing for the ramseykit benchmark.

Import this module only after the checkout's ``src`` directory is first on
``sys.path`` (``worker.py`` and ``freeze_golden.py`` do that), so that the
package under measurement is the one imported.

A pass runs one workload's query mix in a closed loop: each call starts after
the previous one returned.  Every call is an operation: its duration is
added to the pass's wall time, and its output is then checked, untimed,
against ``golden.json`` or an independent recomputation.  An exception, a
wrong value, a wrong certificate digest or a rejected certificate counts as a
failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from gauge import SpeedGauge, reference_omega
from ramseykit import cli, exact, greedy, scores, vdw
from ramseykit.certificates import SearchCertificate, revalidate
from ramseykit.graphs import (EdgeColoring, Graph, pair_count, parse_graph6,
                              write_graph6)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("graph_scan", "color_interval", "interactive_sharded", "greedy_sweep")

CALLS = {
    "search_threshold": exact.search_threshold,
    "check_universal": exact.check_universal,
    "search_threshold_score": scores.search_threshold_score,
    "ap_sum_threshold": vdw.ap_sum_threshold,
    "classical_ap_check": vdw.classical_ap_check,
    "pair_guarantee_sweep": greedy.pair_guarantee_sweep,
}


def spec(span: str, fname: str, **kwargs) -> tuple:
    return (span, fname, kwargs)


def spec_key(s: tuple) -> str:
    _, fname, kwargs = s
    return fname + "(" + ", ".join(f"{k}={v!r}" for k, v in kwargs.items()) + ")"


# --- the query mixes (full size, and the quick size for the self-test and
# the traced layer probe) ---------------------------------------------------

GRAPH_SCAN = {
    "full": [spec("exact.scan", "search_threshold", kind="rprime", target=t)
             for t in (2, 3, 4, 5)]
    + [spec("exact.scan", "search_threshold", kind="ramsey", target=3),
       spec("exact.scan", "search_threshold", kind="rprime", target=5, prune=True),
       spec("exact.scan", "check_universal", target=6, n_vertices=7, mode="rprime")],
    "quick": [spec("exact.scan", "search_threshold", kind="rprime", target=t)
              for t in (2, 3, 4)]
    + [spec("exact.scan", "search_threshold", kind="ramsey", target=2),
       spec("exact.scan", "search_threshold", kind="rprime", target=4, prune=True),
       spec("exact.scan", "check_universal", target=5, n_vertices=5, mode="rprime")],
}
# The certificate that graph_scan revalidates with deep=True.
DEEP_TARGET = {"full": 5, "quick": 4}

COLOR_INTERVAL = {
    "full": [
        spec("exact.coloring_scan", "search_threshold", kind="rprime_m", target=5, m=2),
        spec("scores.scan", "search_threshold_score", kind="cycle", m=2, j=1, target=4),
        spec("scores.scan", "search_threshold_score", kind="path", m=3, j=3, target=6),
        spec("vdw.scan", "ap_sum_threshold", m=2, target=6),
        spec("vdw.classical", "classical_ap_check", m=2, n=3, length=9),
        spec("vdw.classical", "classical_ap_check", m=2, n=3, length=8),
    ],
    "quick": [
        spec("exact.coloring_scan", "search_threshold", kind="rprime_m", target=4, m=2),
        spec("scores.scan", "search_threshold_score", kind="cycle", m=2, j=1, target=3),
        spec("scores.scan", "search_threshold_score", kind="path", m=3, j=3, target=5),
        spec("vdw.scan", "ap_sum_threshold", m=2, target=4),
        spec("vdw.classical", "classical_ap_check", m=2, n=3, length=9),
        spec("vdw.classical", "classical_ap_check", m=2, n=3, length=8),
    ],
}

# greedy_sweep's pass sweeps n = 2..5 once and n = 6 (32,768 graphs)
# SWEEP_REPEATS times, at threads=2.  The n = 7 sweep (2,097,152 graphs) is one
# call of about 9 s, too long to scale for the host's speed drift (README.md),
# so it runs in traced runs only, at threads 2 and 1, as the speedup pair.
SWEEP_REPEATS = {"full": 8, "quick": 1}
SPEEDUP_N = {"full": 7, "quick": 6}
GREEDY_INPUTS = {"full": (64, 32), "quick": (8, 4)}  # (graphs, colourings)


def sweep_spec(n: int, threads: int) -> tuple:
    return spec("greedy.sweep", "pair_guarantee_sweep", n=n, threads=threads)


def cli_queries(size: str) -> list[list[str]]:
    """``search`` argument lists: small thresholds of every CLI kind."""
    def q(kind, n, m=None, score=None, j=None):
        argv = [kind, "--n", str(n)]
        if m is not None:
            argv += ["--m", str(m)]
        if score is not None:
            argv += ["--score", score]
        if j is not None:
            argv += ["--j", str(j)]
        return argv

    if size == "quick":
        return [q("rprime", 4), q("ramsey", 2), q("rprime_m", 3, m=2),
                q("wprime", 3, m=2), q("score", 3, m=2, score="path"),
                q("score", 3, m=2, score="cycle")]
    return ([q("rprime", t) for t in (2, 3, 4, 5)]
            + [q("ramsey", t) for t in (2, 3)]
            + [q("rprime_m", t, m=2) for t in (2, 3, 4)]
            + [q("rprime_m", t, m=3) for t in (3, 4, 5)]
            + [q("wprime", t, m=2) for t in (1, 2, 3, 4, 5)]
            + [q("wprime", t, m=3) for t in (3, 4)]
            + [q("score", t, m=2, score="path") for t in (2, 3, 4)]
            + [q("score", 3, m=2, score="cycle"),
               q("score", 4, m=3, j=2, score="path")])


RHO_BATCH = {"full": 32, "quick": 4}

# Timed calls between two speed-gauge samples.
GAUGE_EVERY_S = 0.25


def cli_key(argv: list[str]) -> str:
    return "cli search " + " ".join(argv)


# --- digests ------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(out) -> dict:
    """The golden form of a call's output: its value, plus the sha256 of the
    canonical certificate JSON where the call emits certificates."""
    if isinstance(out, exact.CheckOutcome):
        return {"value": out.ok, "sha256": sha256(out.certificate.to_json())}
    if isinstance(out, tuple):
        return {"value": list(out)}
    if isinstance(out, bool):
        return {"value": out}
    return {"value": out.value, "sha256": sha256(out.to_json())}


def record_digest(rec: dict) -> dict:
    return {"value": rec["value"],
            "sha256": sha256(json.dumps(rec["certificates"], sort_keys=True,
                                        separators=(",", ":")))}


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())["digests"]


# --- tracing ------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent and free-form attributes.

    A disabled tracer records nothing; ``span`` still yields an attribute
    dict so that callers need not branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def with_self_times(self) -> list[dict]:
        """Spans with ``self`` = duration minus the time child spans cover.
        Spans are opened by one thread, so siblings never overlap."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self=s["end"] - s["start"] - child[s["id"]])
                for s in self.spans]


# --- one pass -------------------------------------------------------------------


class Pass:
    """Runs operations, sums their timed durations and counts failures.

    With a gauge, each call's duration is also scaled to reference speed:
    the gauge is sampled before the first call and after every
    ``GAUGE_EVERY_S`` of timed calls, and the calls in between are scaled by
    the mean of the two samples around them (``SpeedGauge.scale``).
    """

    def __init__(self, tracer: Tracer, golden: dict, gauge: SpeedGauge | None = None):
        self.tracer = tracer
        self.golden = golden
        self.gauge = gauge
        self.wall = 0.0
        self.scaled: list[float] = []  # per call, at reference speed
        self._stretch: list[float] = []
        self._last_sample = gauge.sample() if gauge else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.certificates: list[SearchCertificate] = []

    def op(self, name: str, fn, check, count=None, **attrs):
        """Time ``fn()``, then check its output untimed.  ``count`` adds exact
        counts to the span, and runs only when tracing."""
        self.attempted += 1
        out = None
        try:
            with self.tracer.span(name, **attrs) as span_attrs:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
            self.wall += dt
            self._stretch.append(dt)
            if self.gauge and sum(self._stretch) >= GAUGE_EVERY_S:
                self.close_stretch()
            ok = bool(check(out))
            if count is not None and self.tracer.enabled:
                span_attrs.update(count(out))
        except Exception as e:  # noqa: BLE001 - a failing call is a failed operation
            ok = False
            attrs["error"] = repr(e)
        if not ok:
            self.failed += 1
            self.failures.append(f"{name} {attrs}")
        return out

    def close_stretch(self):
        if self.gauge and self._stretch:
            sample = self.gauge.sample()
            self.scaled += [SpeedGauge.scale(dt, self._last_sample, sample)
                            for dt in self._stretch]
            self._last_sample = sample
            self._stretch = []

    def call(self, s: tuple):
        span, fname, kwargs = s
        key = spec_key(s)
        golden = self.golden[key]

        def count(out):
            certs = _certificates(out)
            self.certificates.extend(certs)
            c = {"certificates": len(certs),
                 "instances": sum(instances(cert) for cert in certs)}
            if fname == "pair_guarantee_sweep":
                c["graphs"] = out[0]
            return c

        return self.op(span, lambda: CALLS[fname](**kwargs),
                       lambda out: digest(out) == golden, count, key=key,
                       **{k: kwargs[k] for k in ("n", "threads") if k in kwargs})

    def revalidate(self, cert: SearchCertificate, deep: bool):
        name = "certificates.revalidate_deep" if deep else "certificates.revalidate"
        return self.op(name, lambda: revalidate(cert, deep=deep),
                       lambda ok: ok is True,
                       lambda ok: {"rejected": int(ok is not True)})


def _certificates(out) -> list[SearchCertificate]:
    if isinstance(out, exact.CheckOutcome):
        return [out.certificate]
    if isinstance(out, (tuple, bool)):
        return []
    return [c for c in (out.lower, out.upper) if c is not None]


def instances(cert: SearchCertificate) -> int:
    """Instances a one-shard labeled scan visits to reach this certificate:
    the recorded count for an exhaustive one, the witness's position in scan
    order for a witness."""
    if cert.kind == "exhaustive":
        return cert.scanned_count
    p = cert.parameters
    if cert.witness_graph6 is not None:
        code = parse_graph6(cert.witness_graph6).code
        if not p.get("pruned"):
            return code + 1
        emask = (1 << pair_count(p["n_vertices"])) - 1
        return sum(1 for c in range(code + 1) if c <= emask ^ c)
    if p["mode"] == "wprime":
        return vdw.IntervalColoring.from_text(cert.witness_coloring, p["m"]).code + 1
    return EdgeColoring.from_text(cert.witness_coloring, p["m"]).code + 1


# --- seeded inputs ----------------------------------------------------------------


def random_graph(rng: random.Random, n: int) -> Graph:
    return Graph.from_code(n, rng.getrandbits(pair_count(n)))


def rho_batch(rng: random.Random, count: int) -> list[tuple[str, int, int]]:
    """(graph6, omega, alpha) for ``count`` G(n, 1/2) graphs, 32 <= n <= 64."""
    out = []
    for _ in range(count):
        g = random_graph(rng, rng.randint(32, 64))
        out.append((write_graph6(g), reference_omega(g.adj, g.n),
                    reference_omega(g.complement().adj, g.n)))
    return out


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything a pass needs, derived from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "graph_scan":
        specs = list(GRAPH_SCAN[size])
        rng.shuffle(specs)
        return {"specs": specs, "deep_key": spec_key(
            spec("exact.scan", "search_threshold", kind="rprime",
                 target=DEEP_TARGET[size]))}
    if workload == "color_interval":
        specs = list(COLOR_INTERVAL[size])
        rng.shuffle(specs)
        return {"specs": specs}
    if workload == "interactive_sharded":
        queries = cli_queries(size)
        rng.shuffle(queries)
        return {"rho": rho_batch(rng, RHO_BATCH[size]), "queries": queries}
    if workload == "greedy_sweep":
        n_graphs, n_colorings = GREEDY_INPUTS[size]
        graphs = [(random_graph(rng, 64), rng.getrandbits(32)) for _ in range(n_graphs)]
        colorings = []
        for _ in range(n_colorings):
            m = rng.choice((2, 3))
            colorings.append((EdgeColoring(64, m, tuple(
                rng.randrange(m) for _ in range(pair_count(64)))), rng.getrandbits(32)))
        return {"repeats": SWEEP_REPEATS[size],
                "speedup_n": SPEEDUP_N[size], "graphs": graphs, "colorings": colorings}
    raise ValueError(f"unknown workload {workload!r}")


# --- the passes -----------------------------------------------------------------------


def graph_scan(p: Pass, inp: dict, scratch: Path):
    results = {spec_key(s): p.call(s) for s in inp["specs"]}
    # A failed search leaves None to revalidate, which fails this operation too.
    p.revalidate(getattr(results[inp["deep_key"]], "upper", None), deep=True)


def color_interval(p: Pass, inp: dict, scratch: Path):
    for s in inp["specs"]:
        p.call(s)


def _cli(argv: list[str]) -> tuple[int, dict]:
    """Run the CLI in-process; a client reads its one line of JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


def interactive_sharded(p: Pass, inp: dict, scratch: Path):
    for g6, omega, alpha in inp["rho"]:
        def check(out, g6=g6, omega=omega, alpha=alpha):
            rc, rec = out
            g = parse_graph6(g6)
            a = sum(1 << v for v in rec["clique"])
            b = sum(1 << v for v in rec["independent"])
            return (rc == 0 and rec["graph6"] == g6
                    and (rec["omega"], rec["alpha"], rec["value"]) == (omega, alpha, omega + alpha)
                    and len(rec["clique"]) == omega and len(rec["independent"]) == alpha
                    and g.is_clique(a) and g.is_independent(b))
        p.op("cli.rho", lambda g6=g6: _cli(["rho", g6, "--json"]), check)

    cache = scratch / "results.jsonl"
    tail = ["--threads", "2", "--cache", str(cache), "--json"]
    for argv in inp["queries"]:
        p.op("cli.search", lambda a=["search"] + argv + tail: _cli(a),
             lambda out, g=p.golden[cli_key(argv)]: out[0] == 0 and record_digest(out[1]) == g,
             lambda out: {"cache_bytes": cache.stat().st_size, "certificates": sum(
                 c is not None for c in out[1]["certificates"].values())})
    # Resume: each record is read back from the cache and its certificates
    # are revalidated (shallow), as a client that trusts nothing would.
    for argv in inp["queries"]:
        out = p.op("cli.resume", lambda a=["search"] + argv + tail + ["--resume"]: _cli(a),
                   lambda out, g=p.golden[cli_key(argv)]: out[0] == 0 and record_digest(out[1]) == g)
        if out is not None:
            for d in out[1]["certificates"].values():
                if d is not None:
                    p.revalidate(SearchCertificate.from_json_dict(d), deep=False)


def greedy_sweep(p: Pass, inp: dict, scratch: Path):
    for n in range(2, 6):
        p.call(sweep_spec(n, 2))
    for _ in range(inp["repeats"]):
        p.call(sweep_spec(6, 2))
    for g, pick_seed in inp["graphs"]:
        for variant, floor, shared in (
                (greedy.greedy_pair_disjoint, greedy.disjoint_guarantee_floor, 0),
                (greedy.greedy_pair_overlap, greedy.overlap_guarantee_floor, 1)):
            out = p.op("greedy.pair", lambda v=variant, g=g, s=pick_seed: v(g, greedy.seeded_pick(s)),
                       lambda out, g=g, f=floor, k=shared: (
                           out[0].validate(g) and out[0].value >= f(g.n)
                           and (out[0].a & out[0].b).bit_count() <= k))
            if out is not None:
                p.op("greedy.replay", lambda g=g, t=out[1]: greedy.replay_pair_trace(g, t),
                     lambda w, want=out[0]: w == want)
    for c, pick_seed in inp["colorings"]:
        out = p.op("greedy.family", lambda c=c, s=pick_seed: greedy.greedy_family(c, greedy.seeded_pick(s)),
                   lambda out, c=c: (out[0].validate(c)
                                     and out[0].value >= greedy.family_guarantee_floor(c.n, c.m)))
        if out is not None:
            p.op("greedy.replay", lambda c=c, t=out[1]: greedy.replay_family_trace(c, t),
                 lambda w, want=out[0]: w == want)


PASSES = {"graph_scan": graph_scan, "color_interval": color_interval,
          "interactive_sharded": interactive_sharded, "greedy_sweep": greedy_sweep}


def run_pass(workload: str, inp: dict, tracer: Tracer, golden: dict,
             scratch_root: Path, pools=lambda: 0, gauge: SpeedGauge | None = None) -> Pass:
    """One pass of the workload's mix, with a fresh scratch directory (and so
    a fresh ``--cache`` file) that is removed afterwards.  ``pools()`` reads
    a count of process pools started; the pass span records its increase."""
    p = Pass(tracer, golden, gauge)
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        with tracer.span("pass", workload=workload) as attrs:
            before = pools()
            PASSES[workload](p, inp, scratch)
            attrs["pools"] = pools() - before
        p.close_stretch()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return p


# --- the layer probe: small fixed calls into every module ----------------------


def layer_probe(p: Pass, seed: int, certs: list[SearchCertificate]):
    """Per-call costs of the modules, on seeded inputs and on ``certs``.
    Batches are timed as one span each, with the call count as an attribute."""
    rng = random.Random(f"probe:{seed}")
    codes = [rng.getrandbits(pair_count(7)) for _ in range(5000)]
    p.op("graphs.from_code", lambda: [Graph.from_code(7, c) for c in codes],
         lambda gs: [g.code for g in gs] == codes, calls=len(codes))

    batch = rho_batch(rng, 16)
    texts = [t for t, _, _ in batch]
    parsed = p.op("graphs.parse_graph6", lambda: [parse_graph6(t) for t in texts],
                  lambda gs: [write_graph6(g) for g in gs] == texts, calls=len(texts))
    if parsed is not None:
        p.op("exact.clique_indep_pair", lambda: [exact.clique_indep_pair(g) for g in parsed],
             lambda pairs: all(w.validate(g) and (w.a.bit_count(), w.b.bit_count()) == (o, a)
                               for w, g, (_, o, a) in zip(pairs, parsed, batch)),
             calls=len(parsed))

    reps = 20
    p.op("certificates.canonical_json", lambda: [c.to_json() for _ in range(reps) for c in certs],
         lambda texts: all(json.loads(t) == c.to_json_dict() for t, c in zip(texts, certs)),
         calls=reps * len(certs))
    p.op("certificates.revalidate", lambda: [revalidate(c) for c in certs],
         lambda oks: all(ok is True for ok in oks),
         lambda oks: {"rejected": sum(ok is not True for ok in oks)}, calls=len(certs))

    # Pool start-up: a two-graph sweep at threads=2 starts a pool for two
    # one-graph chunks; at threads=1 it runs inline.
    for _ in range(5):
        for threads in (1, 2):
            p.op("parallel.sweep2", lambda t=threads: greedy.pair_guarantee_sweep(2, threads=t),
                 lambda out: out == (2, None), threads=threads)


# --- per-layer metrics from spans ---------------------------------------------------


def layer_metrics(spans: list[dict]) -> dict:
    """Per-module metrics over spans that carry self times.  A metric appears
    only when its spans exist, so callers can fall back to another source."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name, pick=lambda s: True):
        return sum(s["self"] for s in by[name] if pick(s))

    def attr(name, key, default=0, pick=lambda s: True):
        return sum(s["attrs"].get(key, default) for s in by[name] if pick(s))

    out = {}
    for metric, name, scale in (("graphs.from_code_us", "graphs.from_code", 1e6),
                                ("graphs.parse_graph6_us", "graphs.parse_graph6", 1e6),
                                ("exact.pair_ms", "exact.clique_indep_pair", 1e3),
                                ("greedy.replay_us", "greedy.replay", 1e6),
                                ("certificates.json_us", "certificates.canonical_json", 1e6),
                                ("certificates.revalidate_ms", "certificates.revalidate", 1e3),
                                ("cli.search_ms", "cli.search", 1e3),
                                ("cli.resume_ms", "cli.resume", 1e3),
                                ("cli.rho_ms", "cli.rho", 1e3)):
        if by[name]:
            out[metric] = total(name) / attr(name, "calls", 1) * scale
    for module in ("exact", "scores", "vdw"):
        name = module + ".scan"
        if by[name]:
            t, n = total(name), attr(name, "instances")
            out.update({module + ".scan_s": t, module + ".instances": n,
                        module + ".instances_per_s": n / t})
    for metric, name in (("exact.coloring_scan_s", "exact.coloring_scan"),
                         ("vdw.classical_s", "vdw.classical"),
                         ("certificates.revalidate_deep_s", "certificates.revalidate_deep")):
        if by[name]:
            out[metric] = total(name)

    def mix_sweeps(s):  # threads=1 sweeps are only the speedup base
        return s["attrs"].get("threads") == 2

    if any(mix_sweeps(s) for s in by["greedy.sweep"]):
        t = total("greedy.sweep", mix_sweeps)
        out["greedy.sweep_s"] = t
        out["greedy.graphs_per_s"] = attr("greedy.sweep", "graphs", pick=mix_sweeps) / t
    sweep_time = {(s["attrs"]["n"], s["attrs"]["threads"]): s["self"] for s in by["greedy.sweep"]}
    both = [n for n, t in sweep_time if t == 1 and (n, 2) in sweep_time]
    if both:
        n = max(both)
        out["parallel.speedup"] = sweep_time[(n, 1)] / sweep_time[(n, 2)]
    if by["parallel.sweep2"]:
        def mean_ms(threads):
            sel = [s["self"] for s in by["parallel.sweep2"] if s["attrs"]["threads"] == threads]
            return sum(sel) / len(sel) * 1e3
        out["parallel.pool_overhead_ms"] = mean_ms(2) - mean_ms(1)
    if by["pass"]:
        out["parallel.pools"] = attr("pass", "pools")
    if by["cli.search"]:
        out["cli.cache_bytes"] = max(s["attrs"].get("cache_bytes", 0) for s in by["cli.search"])
    revalidations = by["certificates.revalidate"] + by["certificates.revalidate_deep"]
    if revalidations:
        out["certificates.rejected"] = sum(s["attrs"].get("rejected", 0) for s in revalidations)
    out["certificates.built"] = sum(s["attrs"].get("certificates", 0) for s in spans)
    return out
