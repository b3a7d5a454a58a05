import csv
import io
import json

import pytest

from charblocks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCore:
    def test_paper_counterexample_class(self, capsys):
        code, out, _ = run(capsys, "core", "--e", "3", "10,2,1,1,1")
        assert code == 0
        assert out == "core: 4,2\nweight: 3\n"

    def test_empty_core(self, capsys):
        code, out, _ = run(capsys, "core", "--e", "2", "3,1")
        assert code == 0
        assert out == "core: -\nweight: 2\n"

    def test_four_core(self, capsys):
        code, out, _ = run(capsys, "core", "--e", "4", "2,1")
        assert code == 0
        assert out == "core: 2,1\nweight: 0\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "core", "--e", "3", "3,0")
        assert code == 2
        assert "error" in err


class TestChar:
    @pytest.mark.parametrize(
        "nu,cls,expected",
        [("4", "3,1", "1"), ("2,2", "3,1", "-1"), ("1^4", "2,2", "1")],
    )
    def test_values(self, capsys, nu, cls, expected):
        code, out, _ = run(capsys, "char", "--nu", nu, "--class", cls)
        assert code == 0
        assert out.strip() == expected

    def test_size_mismatch_exit_2(self, capsys):
        code, _, _ = run(capsys, "char", "--nu", "3", "--class", "2,2")
        assert code == 2


class TestCount:
    def test_zero_cases(self, capsys):
        code, out, _ = run(capsys, "count", "--e", "3", "--core", "6,4,2",
                           "--weight", "1", "--class", "10,2,1^3")
        assert code == 0 and out.startswith("count: 0")
        code, out, _ = run(capsys, "count", "--e", "4", "--core", "2,1",
                           "--weight", "1", "--class", "2^3,1")
        assert code == 0 and out.startswith("count: 0")

    def test_count_with_witnesses(self, capsys):
        code, out, _ = run(capsys, "count", "--e", "2", "--core", "-",
                           "--weight", "2", "--class", "3,1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 3
        assert obj["witnesses"] == ["4", "2,2", "1^4"]


class TestBlockAndExtremal:
    def test_block(self, capsys):
        code, out, _ = run(capsys, "block", "--e", "4", "--core", "2,1",
                           "--weight", "1")
        assert code == 0
        assert out.splitlines() == ["6,1", "4,3", "2^3,1", "2,1^5"]

    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "extremal", "--e", "2", "--core", "-",
                           "--weight", "2")
        assert code == 0
        assert out == "3,1\ncount: 3\n"


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["", "4", "3,1", "2,2", "2,1,1", "1^4"]
        assert rows[3][0] == "2,2" and rows[3][2] == "-1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3
        assert obj["values"] == ["1", "1", "1", "-1", "0", "2", "1", "-1", "1"]


class TestVerify:
    def test_theorem1_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--e", "2..3",
                           "--max-n", "6")
        assert code == 0
        assert out.strip().endswith("verdict: pass")

    def test_lemma1_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma1", "--max-size", "6")
        assert code == 0

    def test_json_deterministic_with_no_meta(self, capsys):
        _, out1, _ = run(capsys, "verify", "dichotomy", "--e", "2", "--max-n", "5",
                         "--format", "json", "--no-meta")
        _, out2, _ = run(capsys, "verify", "dichotomy", "--e", "2", "--max-n", "5",
                         "--format", "json", "--no-meta")
        assert out1 == out2
        assert "meta" not in json.loads(out1)

    def test_json_has_meta_by_default(self, capsys):
        _, out, _ = run(capsys, "verify", "remark2", "--max-n", "5",
                        "--format", "json")
        assert "generated" in json.loads(out)["meta"]

    def test_plain_shows_columns_of_every_row(self, capsys):
        # The first rows are near-hook rows; the block rows add columns.
        code, out, _ = run(capsys, "verify", "rowstructure", "--e", "2",
                           "--max-n", "4", "--format", "plain")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["check", "n", "ok", "e", "core", "w",
                                    "extensions_ok", "dominance_ok"]
        assert lines[2].split() == ["near_hooks", "2", "True"]
        assert lines[-2].split() == ["block", "3", "True", "2", "1", "1",
                                     "True", "True"]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "theorem1", "--max-n", "3", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == "error: jobs must be >= 1\n"


class TestUnexpectedErrors:
    @pytest.mark.parametrize("error", [RuntimeError, RecursionError])
    def test_exit_3_with_one_line(self, capsys, monkeypatch, error):
        from charblocks import cli

        def fail(args):
            raise error("invariant broken")

        monkeypatch.setitem(cli._HANDLERS, "core", fail)
        code, out, err = run(capsys, "core", "--e", "2", "1")
        assert code == 3
        assert out == ""
        assert err == f"error: {error.__name__}: invariant broken\n"


class TestRoundTrip:
    def test_printed_partitions_reparse(self, capsys):
        from charblocks.partitions import parse_partition

        code, out, _ = run(capsys, "block", "--e", "3", "--core", "-",
                           "--weight", "3")
        assert code == 0
        for line in out.splitlines():
            p = parse_partition(line)
            assert sum(p) == 9
