"""Byte-identity guard: CLI stdout and exit codes against recorded goldens.

Each case runs `cli.main` in-process, and again as `python -m charblocks.cli`
in its own process, and compares the stdout bytes and exit code with
`tests/golden/<name>.out` and `tests/golden/exit_codes.json`.  The goldens
were recorded from a known-good commit; a refactor must leave every one of
them unchanged.  To re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charblocks import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
# stdout block buffered, as a shell pipe leaves it.
PROCESS_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
               "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(GOLDEN_DIR.parent.parent / "src")}

_SWEEP = ("--max-n", "8", "--format", "json", "--no-meta")
_E_SWEEP = ("--e", "2..5", *_SWEEP)
_BLOCK_PLAIN = ("--e", "4", "--core", "2,1", "--weight", "1")
_BLOCK = (*_BLOCK_PLAIN, "--format", "json")

CASES = {
    "verify-theorem1": ("verify", "theorem1", *_E_SWEEP),
    "verify-dichotomy": ("verify", "dichotomy", *_E_SWEEP),
    "verify-remark1": ("verify", "remark1", *_E_SWEEP),
    "verify-rowstructure": ("verify", "rowstructure", *_E_SWEEP),
    "verify-chibar": ("verify", "chibar", *_SWEEP),
    "verify-remark2": ("verify", "remark2", *_SWEEP),
    "verify-lemma1": ("verify", "lemma1", "--max-size", "7", "--format", "json",
                      "--no-meta"),
    "verify-theorem1-plain": ("verify", "theorem1", "--format", "plain"),
    "block": ("block", *_BLOCK),
    "count": ("count", *_BLOCK, "--class", "2^3,1"),
    "extremal": ("extremal", "--e", "2", "--core", "-", "--weight", "2",
                 "--format", "json"),
    "table-plain": ("table", "--n", "6", "--format", "plain"),
    "table-csv": ("table", "--n", "6", "--format", "csv"),
    "table-json": ("table", "--n", "6", "--format", "json"),
    # n = 12 has classes that share long prefixes of small parts.
    "table-plain-12": ("table", "--n", "12", "--format", "plain"),
    "table-csv-12": ("table", "--n", "12", "--format", "csv"),
    "table-json-12": ("table", "--n", "12", "--format", "json"),
    "verify-rowstructure-plain": ("verify", "rowstructure", "--e", "2..6",
                                  "--max-n", "11", "--format", "plain"),
    "core-plain": ("core", "--e", "3", "10,2,1,1,1"),
    "core-json": ("core", "--e", "3", "10,2,1,1,1", "--format", "json"),
    "char-plain": ("char", "--nu", "2,2", "--class", "3,1"),
    "char-json": ("char", "--nu", "2,2", "--class", "3,1", "--format", "json"),
    "count-plain": ("count", "--e", "2", "--core", "-", "--weight", "2",
                    "--class", "3,1"),
    "block-plain": ("block", *_BLOCK_PLAIN),
    "extremal-plain": ("extremal", "--e", "2", "--core", "-", "--weight", "2"),
    # Wide e ranges, where most e exceed most n and each e has its own classes.
    "verify-remark1-wide": ("verify", "remark1", "--e", "6..9", "--max-n", "10"),
    "verify-theorem1-wide": ("verify", "theorem1", "--e", "6..12", "--max-n", "10"),
    "verify-dichotomy-wide": ("verify", "dichotomy", "--e", "6..12", "--max-n", "10"),
    # Every e from 2 to n: the singleton (weight-0) blocks of e > n/2 in JSON.
    "verify-theorem1-wide-json": ("verify", "theorem1", "--e", "2..12", "--max-n", "12",
                                  "--format", "json", "--no-meta"),
    # chibar up to n = 12, where phi and the classes share long part prefixes.
    "verify-chibar-12": ("verify", "chibar", "--max-n", "12", "--format", "json",
                         "--no-meta"),
    # e = 1: the block is every partition of n.
    "block-e1": ("block", "--e", "1", "--core", "-", "--weight", "6"),
    "count-e1": ("count", "--e", "1", "--core", "-", "--weight", "6", "--class", "3,2,1"),
    # A block of S_20 on a class of repeated parts.
    "count-n20": ("count", "--e", "3", "--core", "2", "--weight", "6", "--class", "5^4"),
    # lemma1 to m = 12, where results of many sizes share their first parts.
    "verify-lemma1-12": ("verify", "lemma1", "--max-size", "12", "--format", "json",
                         "--no-meta"),
    # The command list and each command's usage.
    "help": ("--help",),
    **{f"help-{command}": (command, "--help") for command in cli._COMMANDS},
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return buf.getvalue().encode(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    out, code = run_cli(CASES[name])
    assert out == (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_makes_no_reference_cycle(name):
    # cli.run turns the cyclic collector off for the whole process, which
    # leaks nothing only while no command leaves a reference cycle behind.
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        run_cli(CASES[name])
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("name", sorted(CASES))
def test_process_matches_golden(name):
    proc = subprocess.run([sys.executable, "-m", "charblocks.cli", *CASES[name]],
                          env=PROCESS_ENV, capture_output=True, timeout=120)
    assert proc.stdout == (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert proc.returncode == json.loads(EXIT_CODES.read_text())[name]


# Other spellings of golden cases that the CLI's grammar accepts: `--opt=value`,
# unique option prefixes, options before the positional, `--` before it, a
# repeated option (the last one wins) and a non-ASCII decimal digit.
SPELLINGS = [
    ("table-csv", ("table", "--n=6", "--format=csv")),
    ("table-csv", ("table", "--n", "6", "--form", "csv")),
    ("table-csv", ("table", "--format", "csv", "--n", "6")),
    ("table-csv", ("table", "--n", "4", "--format", "json", "--n", "6", "--format", "csv")),
    ("table-csv", ("table", "--n", "\u0666", "--format", "csv")),
    ("core-plain", ("core", "10,2,1,1,1", "--e=3")),
    ("core-plain", ("core", "--e", "3", "--", "10,2,1,1,1")),
    ("count", ("count", "--cl", "2^3,1", "--w", "1", "--cor=2,1", "--e", "4", "--f", "json")),
    ("count", ("count", "--e", "4", "--core", "2,1", "--weight", "1", "--class", "1,2^3",
               "--format", "json")),
    ("verify-theorem1", ("verify", "--max-n", "8", "--e", "2..5", "theorem1", "--format",
                         "json", "--no-meta")),
    ("verify-lemma1", ("verify", "lemma1", "--max-s", "7", "--form=json", "--no-m")),
]


@pytest.mark.parametrize("name,argv", SPELLINGS, ids=[" ".join(a) for _, a in SPELLINGS])
def test_other_spellings_match_golden(name, argv):
    assert CASES[name] != argv
    out, code = run_cli(argv)
    assert out == (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


def test_every_case_has_goldens_and_every_golden_a_case():
    outs = {p.stem for p in GOLDEN_DIR.glob("*.out")}
    codes = set(json.loads(EXIT_CODES.read_text()))
    assert outs == set(CASES)
    assert codes == set(CASES)


def record() -> None:
    codes = {}
    for name, argv in sorted(CASES.items()):
        out, codes[name] = run_cli(argv)
        (GOLDEN_DIR / f"{name}.out").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
