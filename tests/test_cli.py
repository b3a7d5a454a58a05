import ast
import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charblocks.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(ROOT / "src")}
# stdout block buffered, as a shell pipe leaves it, so output can be held at exit.
BUFFERED_ENV = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}


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

    def test_one_core_computed(self, capsys, monkeypatch):
        # The weight is read off the core already computed, not off a second one.
        from charblocks import cli, partitions

        real, calls = partitions.e_core, []

        def counted(p, e):
            calls.append((p, e))
            return real(p, e)

        monkeypatch.setattr(partitions, "e_core", counted)
        monkeypatch.setattr(cli, "e_core", counted)
        code, out, _ = run(capsys, "core", "--e", "2", "3,1")
        assert (code, out, calls) == (0, "core: -\nweight: 2\n", [((3, 1), 2)])

    def test_huge_e(self, capsys):
        code, out, _ = run(capsys, "core", "--e", "1000000000", "3,1")
        assert code == 0
        assert out == "core: 3,1\nweight: 0\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "core", "--e", "3", "3,0")
        assert code == 2
        assert "error" in err

    def test_non_decimal_digit_exit_2(self, capsys):
        code, out, err = run(capsys, "core", "--e", "2", "²")
        assert (code, out, err) == (2, "", "error: bad integer '²' in partition literal\n")

    def test_oversized_part_exit_2(self, capsys):
        # int() refuses a string of more than 4,300 digits.
        part = "9" * 5000
        code, out, err = run(capsys, "core", "--e", "2", part)
        assert (code, out, err) == (2, "", f"error: bad integer {part!r} in partition literal\n")

    # The size is checked item by item, before k^m is expanded into m parts.
    @pytest.mark.parametrize("part", ["10000001", "9" * 40, "1^" + "9" * 40, "1^10000001",
                                      "2^5000000,1", "5000000,5000001"])
    def test_size_past_limit_exit_2(self, capsys, part):
        code, out, err = run(capsys, "core", "--e", "2", part)
        assert (code, out, err) == (2, "", "error: partition size must be at most 10000000\n")

    def test_size_at_limit_runs(self, capsys):
        code, out, err = run(capsys, "core", "--e", "2", "10000000")
        assert (code, out, err) == (0, "core: -\nweight: 5000000\n", "")

    def test_empty_partition_positional(self, capsys):
        code, out, err = run(capsys, "core", "--e", "2", "-")
        assert (code, out, err) == (0, "core: -\nweight: 0\n", "")

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

    @pytest.mark.parametrize("option", ["--nu", "--class"])
    def test_size_past_limit_exit_2(self, capsys, option):
        args = {"--nu": "3", "--class": "3", option: "9" * 40}
        code, out, err = run(capsys, "char", *[x for kv in args.items() for x in kv])
        assert (code, out, err) == (2, "", "error: partition size must be at most 10000000\n")

    @pytest.mark.parametrize("option", ["--nu", "--class"])
    def test_repeated_part_past_limit_exit_2(self, capsys, option):
        args = {"--nu": "1", "--class": "1", option: "1^" + "9" * 40}
        code, out, err = run(capsys, "char", *[x for kv in args.items() for x in kv])
        assert (code, out, err) == (2, "", "error: partition size must be at most 10000000\n")

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

    @pytest.mark.parametrize("cls", ["1^" + "9" * 40, "10000001"])
    def test_class_past_limit_exit_2(self, capsys, cls):
        code, out, err = run(capsys, "count", "--e", "2", "--core", "-", "--weight", "2",
                             "--class", cls)
        assert (code, out, err) == (2, "", "error: partition size must be at most 10000000\n")


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
        longest = max(map(len, golden.read_text().splitlines()))
        if fmt == "json":
            # A write holds at most the header, whose two label lists take
            # 2 * p(12) + 6 lines, or one row.
            assert max(map(len, writes)) <= (2 * 77 + 6) * longest
            # The header, one write per row of the p(12) = 77, and the footer.
            assert len(writes) == 77 + 2
            assert all(writes)
        else:
            # A write is one line of plain or csv and its newline.
            assert max(map(len, writes)) <= longest + 1
            assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes)

    @pytest.mark.parametrize("argv", [
        ("table", "--n", "15", "--format", "plain"),
        ("table", "--n", "15", "--format", "csv"),
        ("table", "--n", "15", "--format", "json"),
        ("verify", "theorem1", "--max-n", "14", "--format", "json", "--no-meta"),
    ], ids=["table-plain", "table-csv", "table-json", "verify-json"])
    def test_closed_stdout_exits_3(self, argv):
        # Each command prints more than a 64 KB pipe holds.  stdout is block
        # buffered, as a shell pipe leaves it, so bytes are still held at exit.
        # The reader is unbuffered: a buffered one may take 8 KB for read(10),
        # room enough for verify-json's last 3.8 KB, and the child exits 0.
        proc = subprocess.Popen([sys.executable, "-m", "charblocks.cli", *argv], env=BUFFERED_ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
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
        code, out, err = run(capsys, "verify", "nonsense")
        assert (code, out) == (2, "")
        assert err == ("error: sweep must be one of theorem1, dichotomy, lemma1, remark1, "
                       "remark2, chibar, rowstructure, got 'nonsense'\n")

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

    @pytest.mark.parametrize("argv,option", [
        (["lemma1", "--max-n", "3", "--e", "2"], "--e"),
        (["chibar", "--max-size", "3", "--max-n", "3"], "--max-size"),
        (["remark2", "--max-s=3", "--e=2"], "--e"),
    ])
    def test_first_unread_option_in_table_order_exit_2(self, capsys, argv, option):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: verify {argv[0]} does not read {option}\n"

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


_COMMANDS = "core, char, count, block, extremal, table, verify"
_BIG = "9" * 5000


class TestUsage:
    @pytest.mark.parametrize("argv,message", [
        ((), f"the command must be one of {_COMMANDS}"),
        (("tabel", "--n", "4"), f"the command must be one of {_COMMANDS}, got 'tabel'"),
        (("verify", "theorem2"), "sweep must be one of theorem1, dichotomy, lemma1, remark1, "
                                 "remark2, chibar, rowstructure, got 'theorem2'"),
        (("count", "--e", "2", "--core", "-", "--weight", "1"), "count needs --class"),
        (("core", "--e", "2"), "core needs PARTITION"),
        (("table", "--n", "four"), "--n must be an integer, got 'four'"),
        (("table", "--n", _BIG), f"--n must be an integer, got {_BIG!r}"),
        (("table", "--n", "4", "--format", "xml"),
         "--format must be one of plain, csv, json, got 'xml'"),
        (("verify", "theorem1", "--max", "4"), "--max is ambiguous: --max-n or --max-size"),
        (("table", "--n", "4", "--rows", "3"), "table does not take '--rows'"),
        (("table", "--n"), "--n needs a value"),
        (("core", "--e", "2", "3,1", "2"), "core does not take '2'"),
        (("verify", "theorem1", "--no-meta=1"), "--no-meta takes no value"),
    ], ids=["no-command", "unknown-command", "unknown-sweep", "missing-option",
            "missing-positional", "non-integer", "oversized-integer", "not-a-choice",
            "ambiguous-prefix", "unknown-option", "no-value", "extra-positional",
            "flag-with-value"])
    def test_one_error_line_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [("--help",), ("-h",), ("--he",)])
    def test_help_names_every_command(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        for command in _COMMANDS.split(", "):
            assert f"\n  {command} " in out

    @pytest.mark.parametrize("argv,names", [
        (("core", "--help"), ["PARTITION", "--e", "--format"]),
        (("char", "-h"), ["--nu", "--class", "--format"]),
        (("count", "--help"), ["--e", "--core", "--weight", "--class", "--format"]),
        (("block", "--help"), ["--e", "--core", "--weight", "--format"]),
        (("extremal", "--help"), ["--e", "--core", "--weight", "--format"]),
        (("table", "--help"), ["--n", "--format"]),
        (("verify", "--help"), ["SWEEP", "--e", "--max-n", "--max-size", "--jobs",
                                "--format", "--no-meta", "theorem1", "dichotomy", "lemma1",
                                "remark1", "remark2", "chibar", "rowstructure"]),
        # Help comes before the errors that later tokens would give.
        (("verify", "--help", "nonsense", "--jobs", "x"), ["SWEEP", "--no-meta"]),
    ])
    def test_command_help_names_every_option(self, capsys, argv, names):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: charblocks {argv[0]} ")
        for name in names:
            assert name in out


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
        from charblocks.partitions import partitions_of

        # The trivial character alone: every phi reaches only position 0 of
        # partitions_of(n), (n), with even leg, and its value 1 never cancels.
        monkeypatch.setattr(sweeps, "_table",
                            lambda size, t: (((0,), ()),) * len(partitions_of(size)))
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

        def fail(p, e):
            raise error("invariant broken")

        monkeypatch.setattr(cli, "e_core", fail)
        code, out, err = run(capsys, "core", "--e", "2", "1")
        assert code == 3
        assert out == ""
        assert err == f"error: {error.__name__}: invariant broken\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("stdout", ["stringio", "file"])
    def test_os_error_exit_3_whatever_stdout_is(self, capsys, monkeypatch, tmp_path, stdout):
        # A stdout with no descriptor is left alone; one with a descriptor is
        # pointed at devnull, and the descriptor opened for that is closed.
        from charblocks import cli

        def fail(p, e):
            raise OSError("device full")

        monkeypatch.setattr(cli, "e_core", fail)
        with open(tmp_path / "out", "w") as file:
            monkeypatch.setattr(sys, "stdout", io.StringIO() if stdout == "stringio" else file)
            fds = len(os.listdir("/proc/self/fd"))
            code = main(["core", "--e", "2", "1"])
            assert len(os.listdir("/proc/self/fd")) == fds
        assert code == 3
        assert capsys.readouterr().err == "error: OSError: device full\n"


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
        assert "json" not in loaded
        unused = {"concurrent.futures.process", "multiprocessing", "dataclasses",
                  "inspect", "datetime"}
        assert not unused & loaded

    @pytest.mark.parametrize("argv", [("table", "--n", "4", "--format", "csv"),
                                      ("core", "--e", "2", "1")])
    def test_plain_output_loads_no_json_or_future(self, argv):
        loaded = self.probe(*argv)
        assert "charblocks.cli" in loaded
        assert not {"json", "__future__", "charblocks._jsontext"} & loaded

    @pytest.mark.parametrize("argv", [("core", "--e", "2", "1", "--format", "json"),
                                      ("table", "--n", "4", "--format", "json"), ARGV],
                             ids=["core", "table", "verify"])
    def test_json_output_loads_the_writer_not_json(self, argv):
        loaded = self.probe(*argv)
        assert "charblocks._jsontext" in loaded
        assert not {"json", "__future__"} & loaded

    def test_csv_table_loads_no_csv_module(self):
        loaded = self.probe("table", "--n", "4", "--format", "csv")
        assert "charblocks.characters" in loaded
        assert "csv" not in loaded

    @pytest.mark.parametrize("argv", [("core", "--e", "2", "1"),
                                      ("table", "--n", "4", "--format", "csv"), ARGV],
                             ids=["core", "table-csv", "verify"])
    def test_loads_no_argparse_gettext_or_locale(self, argv):
        loaded = self.probe(*argv)
        assert "charblocks.cli" in loaded
        assert not {"argparse", "gettext", "locale"} & loaded

    @pytest.mark.parametrize("argv", [("table", "--n", "4", "--format", "csv"),
                                      ("core", "--e", "2", "1")], ids=["table-csv", "core"])
    def test_loads_no_block_or_sweep_module(self, argv):
        loaded = self.probe(*argv)
        assert "charblocks.partitions" in loaded
        assert not {"charblocks.blocks", "charblocks.sweeps"} & loaded

    def test_core_loads_no_character_module(self):
        assert "charblocks.characters" not in self.probe("core", "--e", "2", "1")

    def test_two_jobs_load_the_process_pool(self, monkeypatch):
        # A pool starts only on a host of two CPUs or more, so say it has two.
        monkeypatch.setattr(self, "PROBE", "import os\nos.cpu_count = lambda: 2\n" + self.PROBE)
        loaded = self.probe(*self.ARGV, "--jobs", "2")
        assert "concurrent.futures.process" in loaded


class TestRun:
    """cli.run, the process's own exit, in a fresh interpreter.  It ends with
    os._exit, yet every path gives the bytes and exit code that `sys.exit(main())`
    gives, which lets the interpreter tear down."""

    # Each setup patches the program before the run, as the in-process tests do.
    FAILED_SWEEP = "from charblocks import sweeps\nsweeps._near_hook_set = lambda n: set()"
    PRINT_THEN_FAIL = ("def fail(p, e):\n"
                       "    print('held')\n"
                       "{}"
                       "    raise RuntimeError('invariant broken')\n"
                       "cli.e_core = fail")
    # The reader has gone before the held output is flushed.
    CLOSED_PIPE = "    r, w = os.pipe()\n    os.close(r)\n    os.dup2(w, 1)\n"

    def probe(self, setup, *argv, end="cli.run()"):
        code = f"import atexit, os, sys\nfrom charblocks import cli\n{setup}\n{end}\n"
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=BUFFERED_ENV,
                              capture_output=True, timeout=60)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def same_as_teardown(self, setup, *argv):
        """The run's exit code, stdout and stderr, checked against sys.exit(main())."""
        result = self.probe(setup, *argv)
        assert result == self.probe(setup, *argv, end="sys.exit(cli.main())")
        return result

    def test_failed_sweep_exit_1_with_full_report(self):
        code, out, err = self.same_as_teardown(
            self.FAILED_SWEEP, "verify", "rowstructure", "--e", "2", "--max-n", "5",
            "--format", "json", "--no-meta")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert len(report["counterexamples"]) == 4

    def test_usage_error_exit_2(self):
        assert self.same_as_teardown("", "table", "--n", "31") == (
            2, "", "error: table size must be between 0 and 30\n")

    def test_held_output_reaches_stdout_on_exit_3(self):
        assert self.same_as_teardown(self.PRINT_THEN_FAIL.format(""), "core", "--e", "2", "1") == (
            3, "held\n", "error: RuntimeError: invariant broken\n")

    def test_failed_flush_of_held_output_exits_120(self):
        code, out, err = self.same_as_teardown(self.PRINT_THEN_FAIL.format(self.CLOSED_PIPE),
                                               "core", "--e", "2", "1")
        assert (code, out) == (120, "")
        first, ignored, broken = err.splitlines()
        assert first == "error: RuntimeError: invariant broken"
        header = ("Exception ignored on flushing sys.stdout:" if sys.version_info >= (3, 13)
                  else "Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
        assert ignored.startswith(header)
        assert broken == "BrokenPipeError: [Errno 32] Broken pipe"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command, expected", [
        ("table --n 99 2>&-", 2),
        ("table --n 99 2>/dev/full", 2),
        ("table --n 12 2>&1 | head -1", 3),
        ("table --n 3 >/dev/full 2>/dev/full", 3),
    ])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_unwritable_stderr_keeps_the_exit_code(self, command, expected, unbuffered):
        # The error line is lost, not moved to stdout, and the failed write
        # turns the code neither into 1, that of a failed verification, nor
        # into 120.
        env = {**BUFFERED_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else BUFFERED_ENV
        script = f'"$0" -m charblocks.cli {command}; exit "${{PIPESTATUS[0]}}"'
        proc = subprocess.run(["bash", "-c", script, sys.executable], env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == expected
        assert b"error" not in proc.stdout

    def test_gc_is_off_during_a_run(self):
        # main reports what it found; only run turns the collector off.
        setup = ("import gc\n"
                 "def report(p, e):\n"
                 "    print(gc.isenabled(), file=sys.stderr)\n"
                 "    return ()\n"
                 "cli.e_core = report")
        assert self.probe(setup, "core", "--e", "2", "1")[2] == "False\n"
        assert self.probe(setup, "core", "--e", "2", "1", end="sys.exit(cli.main())")[2] == "True\n"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_gc_as_it_found_it(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["verify", "theorem1", "--max-n", "4", "--format", "json"]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_atexit_handlers_do_not_run(self):
        setup = "atexit.register(print, 'atexit ran', file=sys.stderr)"
        assert self.probe(setup, "core", "--e", "2", "1") == (0, "core: 1\nweight: 0\n", "")

    def test_two_jobs_leave_no_process(self):
        argv = ("verify", "theorem1", "--e", "2..5", "--max-n", "8", "--format", "json",
                "--no-meta", "--jobs", "2")
        proc = subprocess.Popen([sys.executable, "-c", "from charblocks import cli; cli.run()",
                                 *argv], env=BUFFERED_ENV, stdout=subprocess.PIPE,
                                start_new_session=True)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert out == (GOLDEN_DIR / "verify-theorem1.out").read_bytes()
        # The run led its own session and process group, which its workers joined.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_console_script_calls_what_the_main_block_calls(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        tree = ast.parse((ROOT / "src" / "charblocks" / "cli.py").read_text())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        [call] = block.body
        assert scripts == {"charblocks": f"charblocks.cli:{ast.unparse(call.value.func)}"}
