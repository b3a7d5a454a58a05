import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charblocks.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


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

    def test_huge_e(self, capsys):
        code, out, _ = run(capsys, "core", "--e", "1000000000", "3,1")
        assert code == 0
        assert out == "core: 3,1\nweight: 0\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "core", "--e", "3", "3,0")
        assert code == 2
        assert "error" in err

    def test_e_below_one_exit_2(self, capsys):
        code, out, err = run(capsys, "core", "--e", "0", "3")
        assert (code, out, err) == (2, "", "error: e must be >= 1\n")


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

    def test_deep_class_single_value(self, capsys):
        # 1500 class parts: the evaluation is iterative, so no depth limit.
        code, out, err = run(capsys, "char", "--nu", "1500", "--class", "1^1500")
        assert (code, out, err) == (0, "1\n", "")

    def test_json_degree_at_n_60(self, capsys):
        from charblocks.characters import char_degree

        code, out, _ = run(capsys, "char", "--nu", "30,20,7,3", "--class", "1^60",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"nu": "30,20,7,3", "class": "1^60",
                       "value": str(char_degree((30, 20, 7, 3)))}


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

    def test_extremal_needs_e_at_least_2(self, capsys):
        code, out, err = run(capsys, "extremal", "--e", "1", "--core", "-",
                             "--weight", "3")
        assert (code, out) == (2, "")
        assert err == "error: extremal construction needs e >= 2\n"


class TestSizeLimit:
    """count, block and extremal enumerate the partitions of the block's n,
    so like table they stop at n = 30."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--e", "2", "--core", "1", "--weight", "15", "--class", "31"],
            ["block", "--e", "3", "--core", "1", "--weight", "10"],
            ["extremal", "--e", "2", "--core", "1", "--weight", "15", "--format", "json"],
        ],
        ids=["count", "block", "extremal"],
    )
    def test_n_31_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: block size must be at most 30, got n = 31\n"

    def test_n_30_runs(self, capsys):
        code, out, _ = run(capsys, "extremal", "--e", "2", "--core", "-", "--weight", "15")
        assert (code, out) == (0, "29,1\ncount: 16\n")

    def test_table_keeps_its_message(self, capsys):
        code, out, err = run(capsys, "table", "--n", "31")
        assert (code, out, err) == (2, "", "error: table size must be between 0 and 30\n")


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

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_rows_are_written_as_they_are_made(self, monkeypatch, fmt):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["table", "--n", "12", "--format", fmt]) == 0
        golden = GOLDEN_DIR / f"table-{fmt}-12.out"
        assert "".join(writes).encode() == golden.read_bytes()
        # A write holds one line of plain or csv.  Of json it holds at most the
        # header, whose two label lists take 2 * p(12) + 6 lines, or one row.
        lines = 2 * 77 + 6 if fmt == "json" else 1
        longest = max(map(len, golden.read_text().splitlines()))
        assert max(map(len, writes)) <= lines * longest

    @pytest.mark.parametrize("argv", [
        ("table", "--n", "15", "--format", "plain"),
        ("table", "--n", "15", "--format", "csv"),
        ("table", "--n", "15", "--format", "json"),
        ("verify", "theorem1", "--max-n", "14", "--format", "json", "--no-meta"),
    ], ids=["table-plain", "table-csv", "table-json", "verify-json"])
    def test_closed_stdout_exits_3(self, argv):
        # Each command prints more than a 64 KB pipe holds.  stdout is block
        # buffered, as a shell pipe leaves it, so bytes are still held at exit.
        env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "charblocks.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3
        assert err == b"error: BrokenPipeError: [Errno 32] Broken pipe\n"


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorem1", "--max-n", "0"],
            ["chibar", "--max-n", "-3"],
            ["lemma1", "--max-size", "1"],
            ["rowstructure", "--max-n", "0", "--format", "json"],
        ],
    )
    def test_empty_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: nothing to verify: the range is empty\n"

    def test_remark2_range_message(self, capsys):
        code, out, err = run(capsys, "verify", "remark2", "--max-n", "2")
        assert (code, out, err) == (2, "", "error: n_max must be >= 3\n")

    @pytest.mark.parametrize("sweep,option", [
        *[(sweep, "--e") for sweep in ("lemma1", "remark2", "chibar")],
        ("lemma1", "--max-n"),
        *[(sweep, "--max-size") for sweep in ("theorem1", "dichotomy", "remark1",
                                              "remark2", "chibar", "rowstructure")],
    ])
    def test_option_the_sweep_ignores_exit_2(self, capsys, sweep, option):
        code, out, err = run(capsys, "verify", sweep, option, "4")
        assert (code, out) == (2, "")
        assert err == f"error: verify {sweep} does not read {option}\n"

    def test_reversed_range_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "theorem1", "--e", "5..2")
        assert (code, out, err) == (2, "", "error: empty range '5..2'\n")

    @pytest.mark.parametrize("e", ["2..", "a", "2,3"])
    def test_malformed_e_exit_2(self, capsys, e):
        code, out, err = run(capsys, "verify", "theorem1", "--e", e, "--max-n", "3")
        assert (code, out) == (2, "")
        assert err == f"error: --e takes an integer or a range a..b, got {e!r}\n"

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "theorem1", "--max-n", "3", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == "error: jobs must be >= 1\n"


class TestFailedVerification:
    """A failed check gives verdict "fail" and exit code 1."""

    def test_near_hook_failures(self, capsys, monkeypatch):
        from charblocks import sweeps

        monkeypatch.setattr(sweeps, "_near_hook_set", lambda n: set())
        code, out, _ = run(capsys, "verify", "rowstructure", "--e", "2", "--max-n", "5",
                           "--format", "json", "--no-meta")
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["counterexamples"] == [{"check": "near_hooks", "n": n}
                                             for n in range(2, 6)]

    def test_every_theorem1_block_fails(self, capsys, monkeypatch):
        from charblocks import sweeps

        count_matrix = sweeps.count_matrix
        monkeypatch.setattr(sweeps, "count_matrix", lambda *args: (
            (b, classes, [0] * len(counts)) for b, classes, counts in count_matrix(*args)))
        code, out, _ = run(capsys, "verify", "theorem1", "--e", "2..4", "--max-n", "7",
                           "--format", "json", "--no-meta")
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["counterexamples"] == report["rows"]
        keys = [(r["e"], r["n"], r["core"]) for r in report["rows"]]
        assert keys == sorted(keys) and len(keys) > 20

    @pytest.fixture
    def even_legs(self, monkeypatch):
        """Every single-hook removal gets leg 0, so every configuration lemma1
        checks has an even leg sum."""
        from charblocks import sweeps

        removal_map = sweeps._removal_map
        monkeypatch.setattr(sweeps, "_removal_map", lambda p: dict.fromkeys(removal_map(p), 0))

    def test_lemma1_failure(self, capsys, even_legs):
        code, out, _ = run(capsys, "verify", "lemma1", "--max-size", "2",
                           "--format", "json", "--no-meta")
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["rows"] == [{"m": 2, "checked": 1, "failures": 1}]
        assert report["counterexamples"] == [{"delta1": "2", "delta2": "1,1", "gamma1": "1",
                                              "gamma2": "-", "legs": [0, 0, 0, 0]}]

    def test_plain_prints_counterexamples(self, capsys, even_legs):
        code, out, _ = run(capsys, "verify", "lemma1", "--max-size", "2")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "COUNTEREXAMPLE: {'delta1': '2', 'delta2': '1,1', 'gamma1': '1', "
            "'gamma2': '-', 'legs': [0, 0, 0, 0]}",
            "verdict: fail",
        ]

    def test_chibar_failure(self, capsys, monkeypatch):
        from charblocks import sweeps

        # The trivial character alone: its value 1 never cancels.
        monkeypatch.setattr(sweeps, "chi_bar_coeffs", lambda phi, length, n: {(n,): 1})
        code, out, _ = run(capsys, "verify", "chibar", "--max-n", "2",
                           "--format", "json", "--no-meta")
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["rows"] == [{"n": 1, "checked": 0, "failures": 0},
                                  {"n": 2, "checked": 2, "failures": 2}]
        assert report["counterexamples"] == [
            {"n": 2, "length": 1, "phi": "1", "class": "2"},
            {"n": 2, "length": 2, "phi": "-", "class": "1,1"},
        ]


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


class TestStartup:
    """What `import charblocks.cli` and a sweep load, in a fresh interpreter."""

    # Prints the modules that the import and the run loaded, one a line, on stderr.
    PROBE = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from charblocks import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(*sorted(set(sys.modules) - before), sep='\\n', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    ARGV = ("verify", "theorem1", "--e", "2..3", "--max-n", "6", "--format", "json",
            "--no-meta")

    def probe(self, *argv):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv], env=SRC_ENV,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.split())

    def test_one_job_loads_no_pool_dataclasses_or_datetime(self):
        loaded = self.probe(*self.ARGV)
        assert "charblocks.sweeps" in loaded
        assert "json" in loaded
        unused = {"concurrent.futures.process", "multiprocessing", "dataclasses",
                  "inspect", "datetime"}
        assert not unused & loaded

    @pytest.mark.parametrize("argv", [("table", "--n", "4", "--format", "csv"),
                                      ("core", "--e", "2", "1")])
    def test_plain_output_loads_no_json_or_future(self, argv):
        loaded = self.probe(*argv)
        assert "charblocks.cli" in loaded
        assert not {"json", "__future__"} & loaded

    def test_csv_table_loads_no_csv_module(self):
        loaded = self.probe("table", "--n", "4", "--format", "csv")
        assert "charblocks.characters" in loaded
        assert "csv" not in loaded

    def test_two_jobs_load_the_process_pool(self):
        loaded = self.probe(*self.ARGV, "--jobs", "2")
        assert "concurrent.futures.process" in loaded
