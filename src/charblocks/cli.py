"""Command-line front end.

Exit codes: 0 on success (and passing verifications), 1 when a verification
sweep fails, 2 on usage or parse errors, 3 on any other error.  Each command's
handler imports the library modules it runs, so a command loads no other.
"""

import gc
import os
import sys
from types import SimpleNamespace

from .partitions import (
    _MAX_LITERAL_SIZE,
    e_core,
    parse_partition,
    render_partition,
)


def _parse_e_range(text: str):
    """'3' or 'a..b' (inclusive) -> sorted list of ints."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ValueError(f"--e takes an integer or a range a..b, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


# Largest n of table, count, block and extremal, which enumerate partitions of n.
# core and char enumerate nothing: they take any literal that parse_partition does.
_MAX_N = 30


def _emit(args, obj, lines) -> int:
    """Print obj as one JSON line under --format json, else the lines; return 0."""
    if args.format == "json":
        from ._jsontext import dumps
        print(dumps(obj))
    else:
        for line in lines:
            print(line)
    return 0


def _block(args):
    """The block named by --e, --core and --weight, and its JSON fields."""
    from .blocks import BlockId
    b = BlockId(e=args.e, core=parse_partition(args.core), weight=args.weight)
    if b.n > _MAX_N:
        raise ValueError(f"block size must be at most {_MAX_N}, got n = {b.n}")
    return b, {"e": b.e, "core": render_partition(b.core), "weight": b.weight}


def _cmd_core(args) -> int:
    p = parse_partition(args.partition)
    core = e_core(p, args.e)
    w = (sum(p) - sum(core)) // args.e  # the e-hooks removed to reach the core
    core = render_partition(core)
    return _emit(args, {"partition": render_partition(p), "e": args.e, "core": core,
                        "weight": w}, [f"core: {core}", f"weight: {w}"])


def _cmd_char(args) -> int:
    nu = parse_partition(args.nu)
    lam = parse_partition(args.cls)
    from .characters import char_value
    value = char_value(nu, lam)
    return _emit(args, {"nu": render_partition(nu), "class": render_partition(lam),
                        "value": str(value)}, [value])


def _cmd_count(args) -> int:
    b, fields = _block(args)
    from .blocks import c_mu
    lam = parse_partition(args.cls)
    witnesses = [render_partition(w) for w in c_mu(b, lam)]
    return _emit(args, {**fields, "class": render_partition(lam),
                        "count": len(witnesses), "witnesses": witnesses},
                 [f"count: {len(witnesses)}"] + [f"  {w}" for w in witnesses])


def _cmd_block(args) -> int:
    b, fields = _block(args)
    from .blocks import block_partitions
    members = [render_partition(p) for p in block_partitions(b)]
    return _emit(args, {**fields, "n": b.n, "partitions": members}, members)


def _cmd_extremal(args) -> int:
    b, fields = _block(args)
    from .blocks import c_mu, extremal_lambda
    lam = extremal_lambda(b)
    count = len(c_mu(b, lam))
    return _emit(args, {**fields, "class": render_partition(lam), "count": count},
                 [render_partition(lam), f"count: {count}"])


def _cmd_table(args) -> int:
    if args.n < 0 or args.n > _MAX_N:
        raise ValueError(f"table size must be between 0 and {_MAX_N}")
    from . import characters
    {"plain": characters.character_table_text,
     "csv": characters.character_table_csv,
     "json": characters.character_table_json}[args.format](args.n)
    return 0


# Each sweep: its function in sweeps, and the options it reads in the order
# that function takes them, before jobs.  A sweep refuses an option that only
# other sweeps read.
_SWEEPS = {
    "theorem1": ("verify_theorem1", ("e", "max_n")),
    "dichotomy": ("verify_dichotomy", ("e", "max_n")),
    "lemma1": ("lemma1_sweep", ("max_size",)),
    "remark1": ("verify_remark1", ("e", "max_n")),
    "remark2": ("verify_remark2", ("max_n",)),
    "chibar": ("verify_chibar", ("max_n",)),
    "rowstructure": ("nonvanishing_row_structure_check", ("max_n", "e")),
}


def _cmd_verify(args) -> int:
    function, reads = _SWEEPS[args.sweep]
    for flag, (dest, _, _, _) in _COMMANDS["verify"][3].items():
        if dest in args.given and dest not in reads and any(
                dest in other for _, other in _SWEEPS.values()):
            raise ValueError(f"verify {args.sweep} does not read {flag}")
    values = [_parse_e_range(args.e) if name == "e" else getattr(args, name) for name in reads]
    from . import sweeps
    report = getattr(sweeps, function)(*values, args.jobs)
    if args.format == "json":
        print(report.to_json(meta=not args.no_meta))
    else:
        print(report.to_text())
    return 0 if report.passed() else 1


# An option's default in _COMMANDS is a value, or _REQUIRED: the command
# refuses to run without the option.
_REQUIRED = object()

_FORMAT = ("format", ("plain", "json"), "plain", "output format")
_BLOCK_OPTIONS = {
    "--e": ("e", int, _REQUIRED, "the e of the block"),
    "--core": ("core", str, _REQUIRED, "the block's e-core, a partition literal"),
    "--weight": ("weight", int, _REQUIRED, "the block's e-weight"),
}

# Each command: its handler, its help line, its positionals as (name, kind,
# help), and its options as {flag: (dest, kind, default, help)}.  A kind is int,
# str, a tuple of the values allowed, or bool for a flag that takes no value.
_COMMANDS = {
    "core": (_cmd_core, "e-core and e-weight of a partition",
             (("partition", str, f"a partition literal of size at most {_MAX_LITERAL_SIZE}"),),
             {"--e": ("e", int, _REQUIRED, "the e of the e-core"), "--format": _FORMAT}),
    "char": (_cmd_char, "irreducible character value", (), {
        "--nu": ("nu", str, _REQUIRED, f"character label, of size at most {_MAX_LITERAL_SIZE}"),
        "--class": ("cls", str, _REQUIRED, "class label of the same size"),
        "--format": _FORMAT}),
    "count": (_cmd_count, "non-zero character count of a block on a class", (), {
        **_BLOCK_OPTIONS,
        "--class": ("cls", str, _REQUIRED, "class label"),
        "--format": _FORMAT}),
    "block": (_cmd_block, "list the partitions of a block", (),
              {**_BLOCK_OPTIONS, "--format": _FORMAT}),
    "extremal": (_cmd_extremal, "constructed class attaining count w+1", (),
                 {**_BLOCK_OPTIONS, "--format": _FORMAT}),
    "table": (_cmd_table, "full character table of S_n", (), {
        "--n": ("n", int, _REQUIRED, f"the n of S_n, 0 to {_MAX_N}"),
        "--format": ("format", ("plain", "csv", "json"), "plain", "output format")}),
    "verify": (_cmd_verify, "run a verification sweep",
               (("sweep", tuple(_SWEEPS), "the sweep to run"),), {
        "--e": ("e", str, "2..5", "e value or inclusive range a..b"),
        "--max-n": ("max_n", int, 10, "largest n"),
        "--max-size": ("max_size", int, 8, "size bound for lemma1"),
        "--jobs": ("jobs", int, 1, "worker processes"),
        "--format": _FORMAT,
        "--no-meta": ("no_meta", bool, False, "omit timestamp from JSON")}),
}
# -h and --help, matched like a command's own flags.
_HELP = dict.fromkeys(("-h", "--help"), ("help", bool, False, None))


def _match(flag: str, options: dict):
    """The option that flag names, exactly or as the prefix of only one, or None."""
    if flag in options:
        return flag
    names = [name for name in options if name.startswith(flag)]
    if len(names) > 1:
        raise ValueError(f"{flag} is ambiguous: {' or '.join(names)}")
    return names[0] if names else None


def _convert(name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"{name} must be one of {', '.join(kind)}, got {text!r}")
    return text


def _help(command=None) -> str:
    """The command list, or the usage of one command."""
    if command is None:
        width = max(map(len, _COMMANDS))
        return "\n".join([
            "usage: charblocks COMMAND [OPTIONS]", "",
            "Exact character combinatorics of symmetric-group e-blocks.", "", "commands:",
            *(f"  {name:{width}}  {text}" for name, (_, text, _, _) in _COMMANDS.items()), "",
            "`charblocks COMMAND --help` lists the options of one command."])
    _, text, positionals, options = _COMMANDS[command]
    usage, rows = [], []
    for name, kind, help_text in positionals:
        usage.append(name.upper())
        rows.append((name.upper(), f"{help_text}: {', '.join(kind)}"
                     if isinstance(kind, tuple) else help_text))
    for flag, (dest, kind, default, help_text) in options.items():
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()
        label = flag if kind is bool else f"{flag} {metavar}"
        usage.append(label if default is _REQUIRED else f"[{label}]")
        if default is not _REQUIRED and kind is not bool:
            help_text += f" (default {default})"
        rows.append((label, help_text))
    rows.append(("-h, --help", "print this help"))
    width = max(len(label) for label, _ in rows)
    return "\n".join([f"usage: charblocks {command} {' '.join(usage)}", "", text, "",
                      *(f"  {label:{width}}  {help_text}" for label, help_text in rows)])


def parse_args(argv):
    """The command named by argv[0] and its arguments, as a namespace.

    Options come before or after the positionals, as `--opt value` or
    `--opt=value`, and may be shortened to a prefix that only one of the
    command's options has; the last occurrence wins.  After `--` every token
    is a positional.  `-h` or `--help` prints help on stdout and returns None.
    The namespace's `given` is the set of the dests of the options argv gave.
    A usage error raises ValueError.
    """
    if argv and (argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0])):
        print(_help())
        return None
    if not argv or argv[0] not in _COMMANDS:
        given = f", got {argv[0]!r}" if argv else ""
        raise ValueError(f"the command must be one of {', '.join(_COMMANDS)}{given}")
    command, *tokens = argv
    _, _, positionals, options = _COMMANDS[command]
    flags = {**options, **_HELP}
    args = SimpleNamespace(command=command, given=set())
    for dest, _, default, _ in options.values():
        if default is not _REQUIRED:
            setattr(args, dest, default)
    pending, unexpected, only_positionals = list(positionals), [], False
    tokens = iter(tokens)
    for token in tokens:
        if only_positionals or token == "-" or not token.startswith("-"):
            if not pending:
                unexpected.append(token)
                continue
            name, kind, _ = pending.pop(0)
            setattr(args, name, _convert(name, kind, token))
        elif token == "--":
            only_positionals = True
        else:
            given, eq, value = token.partition("=")
            flag = _match(given, flags)
            if flag is None:
                unexpected.append(token)
                continue
            dest, kind, _, _ = flags[flag]
            if kind is bool and eq:
                raise ValueError(f"{flag} takes no value")
            if dest == "help":
                print(_help(command))
                return None
            args.given.add(dest)
            if kind is bool:
                setattr(args, dest, True)
                continue
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise ValueError(f"{flag} needs a value")
            setattr(args, dest, _convert(flag, kind, value))
    if unexpected:
        raise ValueError(f"{command} does not take {unexpected[0]!r}")
    missing = [flag for flag, (dest, _, default, _) in options.items()
               if default is _REQUIRED and dest not in args.given]
    missing += [name.upper() for name, _, _ in pending]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    return args


def _to_stderr(line: str) -> None:
    """Print line on stderr.  A stderr that cannot be written loses the line
    but not the exit code, which the OSError would otherwise turn into 1.
    stderr is None if fd 2 was closed when the process started, and print
    would then write to stdout."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = 0 if args is None else _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a reader that closed stdout early shows here, not at exit
        return code
    except ValueError as exc:
        _to_stderr(f"error: {exc}")
        return 2
    except Exception as exc:
        # Anything else is a fault, not a usage error or a failed check.
        _to_stderr(f"error: {type(exc).__name__}: {exc}")
        if isinstance(exc, OSError):
            _drop_stdout()
        return 3


def _drop_stdout() -> None:
    """After an OSError, taken as a failed write to stdout (its reader gone,
    its device full): point stdout's descriptor at devnull, so that what
    stdout still holds does not fail again at the flush on exit (status
    120).  A stdout with no descriptor, as an in-process caller may set, is
    left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # None, closed, or io.UnsupportedOperation
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run() -> None:
    """The command line's entry point: main on sys.argv[1:], then os._exit, so
    neither the interpreter's teardown (which frees every module and the
    engine's kept tables) nor atexit handlers run.

    The cyclic garbage collector is off for the whole run.  The process ends
    in os._exit, which frees nothing, and the commands leave no reference
    cycles (tests/test_golden.py checks every golden command; the standard
    modules that a --jobs run imports leave a few dozen objects, once), so a
    collection would walk the heap to free next to nothing.

    First it flushes stdout as that teardown would.  main has flushed stdout
    on a normal return, so only output still held on an exit-2 or exit-3
    path is written here.  A failed flush exits 120 and is reported on
    stderr as CPython reports it.  stderr needs no flush: it is line-buffered
    (write-through under -u), and every line _to_stderr writes ends in a
    newline."""
    gc.disable()
    code = main(sys.argv[1:])
    if sys.stdout is not None:  # as at exit: fd 1 was closed when the process started
        try:
            sys.stdout.flush()
        except OSError as exc:
            # CPython 3.13 names the flush where earlier versions name the stream.
            where = ("on flushing sys.stdout:" if sys.version_info >= (3, 13)
                     else f"in: {sys.stdout!r}")
            _to_stderr(f"Exception ignored {where}\n{type(exc).__name__}: {exc}")
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
