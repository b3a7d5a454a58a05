"""README.md names every public name and every module of the package, its
Library list names exactly the public names, its CLI examples run, and its
per-sweep option table matches the CLI."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import charblocks
from charblocks import cli

ROOT = Path(__file__).resolve().parent.parent
TEXT = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of the README section headed `## title`, up to the next one."""
    start = TEXT.index(f"\n## {title}\n")
    end = TEXT.find("\n## ", start + 1)
    return TEXT[start:] if end < 0 else TEXT[start:end]


def cli_examples():
    """The lines of the first sh block of the CLI section."""
    block = section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_readme_names_every_public_name():
    assert [name for name in charblocks.__all__ if not re.search(rf"\b{name}\b", TEXT)] == []


def library_list(text: str) -> list:
    """The backquoted identifiers of the Library section's bullet list, from
    "- `partitions`:" to the blank line after it, sorted, less the CLI words
    named there in parentheses."""
    start = text.index("- `partitions`:")
    words = re.findall(r"`([A-Za-z_]\w*)`", text[start:text.index("\n\n", start)])
    return sorted(w for w in words if w not in cli._COMMANDS and w not in cli._SWEEPS)


def test_library_list_is_exactly_the_public_names():
    assert library_list(section("Library")) == charblocks.__all__


def test_library_list_check_sees_a_stale_or_missing_name():
    text = section("Library")
    assert library_list(text.replace("`partitions_of`,", "`partitions_of`, `e_weight`,")) \
        != charblocks.__all__
    assert library_list(text.replace("`count_matrix`", "count_matrix")) != charblocks.__all__
    assert library_list(text.replace("`c_mu`,", "`c_mu`, `CountReport`,")) != charblocks.__all__


def test_layout_names_every_module():
    layout = section("Layout")
    modules = sorted(path.name for path in (ROOT / "src" / "charblocks").glob("*.py"))
    assert [name for name in modules if f"`src/charblocks/{name}`" not in layout] == []


def example_id(line: str) -> str:
    words = shlex.split(line, comments=True)
    return "-".join(words[1:3] if words[1:2] == ["verify"] else words[1:2])


@pytest.mark.parametrize("line", cli_examples(), ids=example_id)
def test_cli_example_exits_0(line):
    program, *argv = shlex.split(line, comments=True)
    assert program == "charblocks"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "charblocks.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout and not done.stderr


def sweep_table():
    """The header cells and the rows of the CLI section's per-sweep option table."""
    rows = [line.strip("|").split("|") for line in section("CLI").splitlines()
            if line.startswith("| ")]
    header, *body = [[cell.strip() for cell in row] for row in rows]
    return header, body


def test_sweep_table_matches_the_sweeps():
    header, body = sweep_table()
    flags = [re.match(r"`(--[a-z-]+)`", cell).group(1) for cell in header[1:]]
    seen = []
    for first, *cells in body:
        for sweep in re.findall(r"`(\w+)`", first):
            seen.append(sweep)
            reads = cli._SWEEPS[sweep][1]
            expected = ["yes" if flag[2:].replace("-", "_") in reads else "no"
                        for flag in flags]
            assert cells == expected, sweep
    assert sorted(seen) == sorted(cli._SWEEPS)


def test_sweep_table_defaults_match_verify_help():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--help"]) == 0
    helped = dict(re.findall(r"^  (--[a-z-]+) .*\(default (.+)\)$", buf.getvalue(), re.M))
    header, _ = sweep_table()
    for cell in header[1:]:
        flag, default = re.fullmatch(r"`(--[a-z-]+)` \(default `?([^`]+)`?\)", cell).groups()
        assert helped[flag] == default, flag
