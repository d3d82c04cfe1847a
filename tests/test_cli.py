"""Command line interface: rho, search (with cache/resume), verify."""

import argparse
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ramseykit import Graph, cli, engine, exact, greedy, write_graph6
from ramseykit.certificates import (EXHAUSTIVE, SearchCertificate, SearchResult,
                                    canonical_json)
from ramseykit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRho:
    def test_graph6_argument(self, capsys):
        code, out, _ = run(capsys, "rho", "Dhc")
        assert code == 0
        assert "omega=2" in out
        assert "alpha=2" in out
        assert "value=4" in out

    def test_edge_list(self, capsys):
        code, out, _ = run(capsys, "rho", "--edges", "0-1,1-2,2-3,3-4,4-0", "--n", "5")
        assert code == 0
        assert "value=4" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
        code, out, _ = run(capsys, "rho", "-")
        assert code == 0
        assert "graph6=Dhc" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "rho", "Dhc", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["omega"] == 2 and rec["alpha"] == 2 and rec["value"] == 4
        assert rec["clique"] == [0, 1]
        assert rec["independent"] == [0, 2]

    def test_bad_graph6_is_input_error(self, capsys):
        code, _, err = run(capsys, "rho", "D~~~")
        assert code == 2
        assert "input error" in err
        code, _, err = run(capsys, "rho", " D!o")  # the offset counts the leading space
        assert code == 2 and "byte offset 2" in err

    def test_missing_n_for_edges(self, capsys):
        code, _, err = run(capsys, "rho", "--edges", "0-1")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("argv, stdin, message", [
        (["--edges", "0:1", "--n", "2"], None, "edge '0:1' is not of the form u-v"),
        (["Dhc", "--edges", "0-1", "--n", "2"], None,
         "give either a graph6 string or --edges, not both"),
        ([], None, "give a graph6 string ('-' for stdin) or --edges/--n"),
        (["-"], "\n", "no graph6 input on stdin"),
    ], ids=["edge token", "graph6 and edges", "no input", "empty stdin line"])
    def test_input_errors_exit_two(self, capsys, monkeypatch, argv, stdin, message):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, "rho", *argv)
        assert (code, out) == (2, "")
        assert err == f"input error: {message}\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSearch:
    def test_pair_sum_search(self, workdir, capsys):
        code, out, _ = run(capsys, "search", "rprime", "--n", "4", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == 3
        assert set(rec) == {"schema", "query", "value", "certificates", "engine", "wall_ms"}
        assert rec["schema"] == 2
        assert rec["certificates"]["upper"]["kind"] == "exhaustive"

    def test_cache_append_and_resume(self, workdir, capsys):
        code, first, _ = run(capsys, "search", "rprime", "--n", "4", "--json")
        assert code == 0
        cache = workdir / "results.jsonl"
        assert len(cache.read_text().splitlines()) == 1

        code, second, _ = run(capsys, "search", "rprime", "--n", "4",
                              "--resume", "--json")
        assert code == 0
        # replayed byte for byte, including the original wall_ms
        assert second == first
        assert len(cache.read_text().splitlines()) == 1

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.update(value=99),
        lambda rec: rec.update(bracket=[5, 5]),
        lambda rec: rec["certificates"]["lower"].update(witness_coloring="aaaaa"),
        lambda rec: rec["certificates"]["upper"].update(scanned_count=63),
        lambda rec: rec["certificates"].update(lower=None),
        lambda rec: rec.update(value=6.0, bracket=[6.0, 6.0]),
        lambda rec: rec.update(exact=False),
        lambda rec: rec.update(exhaustive=False),
        lambda rec: rec.update(note="extra"),
    ])
    def test_resume_recomputes_an_edited_record(self, workdir, capsys, edit):
        code, first, _ = run(capsys, "search", "wprime", "--n", "4", "--json")
        assert code == 0
        cache = workdir / "results.jsonl"
        rec = json.loads(cache.read_text())
        edit(rec)
        cache.write_text(json.dumps(rec) + "\n")

        code, out, err = run(capsys, "search", "wprime", "--n", "4",
                             "--resume", "--json")
        assert code == 0
        assert "recomputing" in err
        again = json.loads(out)
        assert again["value"] == 6
        assert again["certificates"] == json.loads(first)["certificates"]
        assert len(cache.read_text().splitlines()) == 2

    def test_resume_recomputes_a_schema_1_record_without_a_notice(self, workdir, capsys):
        run(capsys, "search", "rprime", "--n", "4", "--json")
        cache = workdir / "results.jsonl"
        rec = json.loads(cache.read_text())
        # the record as schema 1 wrote it: three more fields, all constants
        old = dict(rec, schema=1, exact=True, exhaustive=True, bracket=[3, 3])
        cache.write_text(canonical_json(old) + "\n")

        code, out, err = run(capsys, "search", "rprime", "--n", "4", "--resume", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["schema"] == 2
        assert cache.read_text().splitlines() == [canonical_json(old), out.rstrip("\n")]

    def test_resume_recomputes_a_boolean_value(self, workdir, capsys):
        run(capsys, "search", "rprime", "--n", "1", "--json")
        cache = workdir / "results.jsonl"
        rec = json.loads(cache.read_text())
        assert rec["value"] == 1 and rec["certificates"]["lower"] is None
        rec.update(value=True, bracket=[True, True])
        cache.write_text(json.dumps(rec) + "\n")

        code, out, err = run(capsys, "search", "rprime", "--n", "1",
                             "--resume", "--json")
        assert code == 0
        assert "recomputing" in err
        assert '"value":1,' in out
        assert len(cache.read_text().splitlines()) == 2

    def test_resume_skips_cache_lines_that_are_not_records(self, workdir, capsys):
        (workdir / "results.jsonl").write_text("[1]\n\"text\"\n")
        code, out, _ = run(capsys, "search", "rprime", "--n", "3",
                           "--resume", "--json")
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_resume_misses_on_different_query(self, workdir, capsys):
        run(capsys, "search", "rprime", "--n", "4", "--json")
        code, out, _ = run(capsys, "search", "rprime", "--n", "3",
                           "--resume", "--json")
        assert code == 0
        assert json.loads(out)["value"] == 2
        assert len((workdir / "results.jsonl").read_text().splitlines()) == 2

    def test_without_resume_recomputes(self, workdir, capsys):
        run(capsys, "search", "rprime", "--n", "4", "--json")
        run(capsys, "search", "rprime", "--n", "4", "--json")
        assert len((workdir / "results.jsonl").read_text().splitlines()) == 2

    def test_custom_cache_path(self, workdir, capsys):
        code, _, _ = run(capsys, "search", "rprime", "--n", "3",
                         "--cache", "other.jsonl")
        assert code == 0
        assert (workdir / "other.jsonl").exists()
        assert not (workdir / "results.jsonl").exists()

    def test_wprime_search(self, workdir, capsys):
        code, out, _ = run(capsys, "search", "wprime", "--n", "4", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == 6
        assert rec["certificates"]["lower"]["witness_coloring"] == "aabaa"

    def test_score_search(self, workdir, capsys):
        code, out, _ = run(capsys, "search", "score", "--n", "3", "--score",
                           "path", "--m", "2", "--j", "2", "--json")
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_score_requires_kind(self, workdir, capsys):
        code, _, err = run(capsys, "search", "score", "--n", "3")
        assert code == 2
        assert "--score" in err

    def test_budget_exhaustion_exits_three(self, workdir, capsys):
        code, _, err = run(capsys, "search", "wprime", "--n", "40",
                           "--budget", "4096")
        assert code == 3
        assert "undecided" in err

    def test_bad_target_with_zero_budget_is_input_error(self, workdir, capsys):
        code, _, err = run(capsys, "search", "rprime", "--n", "0", "--budget", "0")
        assert code == 2
        assert "input error" in err

    def test_negative_budget_is_input_error(self, workdir, capsys):
        code, out, err = run(capsys, "search", "rprime", "--n", "5", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "input error" in err and "budget" in err
        assert not (workdir / "results.jsonl").exists()

    def test_cache_in_a_missing_directory_is_input_error(self, workdir, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("searched although the cache cannot be written")

        monkeypatch.setattr(engine, "search", refuse)
        code, out, err = run(capsys, "search", "rprime", "--n", "4",
                             "--cache", "missing/r.jsonl")
        assert (code, out) == (2, "")
        assert err == "input error: no writable directory for the cache missing/r.jsonl\n"
        assert not (workdir / "missing").exists()

    def test_resume_from_a_directory_is_input_error(self, workdir, capsys):
        (workdir / "cache").mkdir()
        code, out, err = run(capsys, "search", "rprime", "--n", "4",
                             "--resume", "--cache", "cache")
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "'cache'" in err

    def test_resume_skips_cache_lines_that_are_not_utf8(self, workdir, capsys):
        run(capsys, "search", "rprime", "--n", "4", "--json")
        cache = workdir / "results.jsonl"
        record = cache.read_bytes()
        cache.write_bytes(record + b'\xff{"schema": 2}\n')
        code, out, err = run(capsys, "search", "rprime", "--n", "4", "--resume", "--json")
        assert (code, err) == (0, "")
        assert out.encode() == record

    def test_resume_replays_the_newest_record(self, workdir, capsys):
        run(capsys, "search", "rprime", "--n", "4", "--json")
        cache = workdir / "results.jsonl"
        rec = json.loads(cache.read_text())
        older, newer = dict(rec, wall_ms=1.5), dict(rec, wall_ms=2.5)
        other = dict(rec, engine="ramseykit 0.0", wall_ms=3.5)
        cache.write_text("".join(canonical_json(r) + "\n" for r in (older, newer))
                         + "\n{garbage\n" + canonical_json(other) + "\n")

        code, out, err = run(capsys, "search", "rprime", "--n", "4", "--resume", "--json")
        assert code == 0
        assert err == ""
        assert out == canonical_json(newer) + "\n"
        assert len(cache.read_text().splitlines()) == 5

    def test_unknown_kind_rejected_by_parser(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "bogus", "--n", "3"])
        assert exc.value.code == 2

    def test_threads_do_not_change_certificates(self, workdir, capsys):
        _, one, _ = run(capsys, "search", "rprime", "--n", "4", "--threads", "1",
                        "--json")
        _, two, _ = run(capsys, "search", "rprime", "--n", "4", "--threads", "2",
                        "--json")
        a, b = json.loads(one), json.loads(two)
        assert a["certificates"] == b["certificates"]
        assert a["value"] == b["value"]

    def test_human_readable_output(self, workdir, capsys):
        code, out, _ = run(capsys, "search", "rprime", "--n", "5")
        assert code == 0
        assert "value" in out and "6" in out


class TestParserReuse:
    """``main`` parses with one parser per process: no request's options may
    reach the next one."""

    def test_resume_does_not_carry_over(self, workdir, capsys):
        assert run(capsys, "search", "rprime", "--n", "4", "--resume", "--json")[0] == 0
        assert run(capsys, "search", "rprime", "--n", "4", "--json")[0] == 0
        assert len((workdir / "results.jsonl").read_text().splitlines()) == 2

    def test_budget_does_not_carry_over(self, workdir, capsys):
        code, _, err = run(capsys, "search", "rprime", "--n", "5", "--budget", "4096")
        assert code == 3 and "undecided" in err
        code, out, _ = run(capsys, "search", "rprime", "--n", "5", "--json")
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_edges_do_not_carry_over(self, capsys):
        assert run(capsys, "rho", "--edges", "0-1", "--n", "2")[0] == 0
        code, out, err = run(capsys, "rho", "Dhc")
        assert (code, err) == (0, "")
        assert "graph6=Dhc" in out

    def test_bad_argv_then_a_valid_call(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "rprime", "--n", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "search", "rprime", "--n", "3", "--json")
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_parser_is_built_once(self, workdir, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        cli.build_parser.cache_clear()
        for argv in (["rho", "Dhc"], ["search", "rprime", "--n", "3"],
                     ["verify", "--only", "c5"]):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == 4  # the top parser and its three subcommands

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--version"], ["nope"], ["nope", "--n", "3"], ["--n", "3", "rho"],
        ["rho", "--n", "x"], ["rho", "Dhc", "extra"], ["rho", "--version"], ["rho", "-h"],
        ["search", "rprime", "--n", "x"], ["search", "nope", "--n", "3"], ["search", "rprime"],
        ["search", "rprime", "--n", "3", "--bogus", "1"], ["search", "-h"],
        ["verify", "--seed", "x"], ["verify", "extra"], ["verify", "-h"],
        ["search", "--", "rprime", "--n", "3"],
    ])
    def test_direct_dispatch_exits_as_the_full_parser(self, capsys, argv):
        # main sends a request to its subcommand's parser without the top
        # parser's pass; each bad or help request must end exactly as before.
        outcomes = []
        for call in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                call(list(argv))
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("argv", [
        ["rho", "Dhc"], ["rho", "--", "Dhc"], ["rho", "--edges", "0-1", "--n", "2", "--json"],
        ["search", "score", "--n", "3", "--score", "path", "--m", "2", "--j", "2"],
        ["search", "rprime", "--n", "5", "--resume", "--cache", "r.jsonl", "--threads", "2"],
        ["verify"], ["verify", "--only", "c5", "--only", "bounds", "--seed", "3", "--json"],
    ])
    def test_direct_dispatch_parses_as_the_full_parser(self, argv):
        assert vars(cli.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_import_builds_no_parser(self):
        # The parser is built by the first ``main``, so the import alone
        # (every command's cold start) does not pay for it.
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import ramseykit.cli as c; "
                 "print(c.build_parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestVerify:
    def test_subset_passes(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--only", "c5,bounds")
        assert code == 0
        assert "pass" in out
        assert "all checks passed" in out

    def test_json_subset(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--only", "threevertex", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["ok"] is True
        assert [r["check"] for r in rec["checks"]] == ["threevertex"]
        assert rec["checks"][0]["ok"] is True

    def test_greedy_sweep_and_oracle_pass(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--only", "greedy_sweep,oracle", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["ok"] is True
        assert [(r["check"], r["ok"]) for r in rec["checks"]] == [
            ("greedy_sweep", True), ("oracle", True)]

    @pytest.mark.parametrize("claim, target, fault", [
        # a sweep that reports a violation at every size
        ("greedy_sweep", (greedy, "pair_guarantee_sweep"),
         lambda sweep: lambda n, **kw: (sweep(n, **kw)[0], 0)),
        # an oracle that is off by one
        ("oracle", (exact, "pair_sum_bruteforce"),
         lambda oracle: lambda g: oracle(g) + 1),
    ], ids=["sweep violation", "oracle off by one"])
    def test_claim_fails_under_a_fault(self, workdir, capsys, monkeypatch, claim,
                                       target, fault):
        monkeypatch.setattr(*target, fault(getattr(*target)))
        code, out, _ = run(capsys, "verify", "--only", claim, "--json")
        assert code == 1
        rec = json.loads(out)
        assert rec["ok"] is False
        assert [(r["check"], r["ok"]) for r in rec["checks"]] == [(claim, False)]

    def test_unknown_check_name(self, workdir, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonsense")
        assert code == 2
        assert "unknown checks" in err

    @pytest.mark.parametrize("only", [",", "", " , "])
    def test_only_naming_no_check_is_input_error(self, workdir, capsys, only):
        code, out, err = run(capsys, "verify", "--only", only, "--json")
        assert code == 2
        assert out == ""
        assert "names no check" in err

    def test_repeated_only_flags_accumulate(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--only", "c5", "--only", "bounds",
                           "--json")
        assert code == 0
        assert len(json.loads(out)["checks"]) == 2

    @pytest.mark.parametrize("forge", [
        # the upper certificate miscounts the graphs on 3 vertices
        lambda r: replace(r, upper=replace(r.upper, scanned_count=r.upper.scanned_count - 1)),
        # the lower witness is a triangle, which scores the target 4
        lambda r: replace(r, lower=replace(r.lower, value=4,
                                           witness_graph6=write_graph6(Graph.complete(3)))),
        # threshold 2: well-formed certificates that only a rerun of the scan refutes
        lambda r: SearchResult("rprime", r.parameters, 2,
                               lower=engine.check("rprime", 4, 1).certificate,
                               upper=SearchCertificate(EXHAUSTIVE, {
                                   "mode": "rprime", "n_vertices": 2, "target": 4},
                                   4, scanned_count=2)),
    ], ids=["upper count", "lower scores the target", "only deep refutes"])
    def test_claim_fails_when_a_certificate_fails_its_deep_recheck(
            self, workdir, capsys, monkeypatch, forge):
        search = engine.search
        monkeypatch.setattr(engine, "search", lambda *a, **kw: forge(search(*a, **kw)))
        code, out, _ = run(capsys, "verify", "--only", "rprime4", "--json")
        assert code == 1
        rec = json.loads(out)
        assert rec["ok"] is False
        assert rec["checks"][0]["ok"] is False
        assert "deep recheck" in rec["checks"][0]["computed"]
