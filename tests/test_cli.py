"""Command line interface: rho, search (with cache/resume), verify."""

import io
import json

import pytest

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

    def test_missing_n_for_edges(self, capsys):
        code, _, err = run(capsys, "rho", "--edges", "0-1")
        assert code == 2
        assert "input error" in err


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
        assert rec["exact"] is True
        assert rec["bracket"] == [3, 3]
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
