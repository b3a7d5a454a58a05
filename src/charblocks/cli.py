"""Command-line front end.

Exit codes: 0 on success (and passing verifications), 1 when a verification
sweep fails, 2 on usage or parse errors, 3 on any other error.
"""

import argparse
import os
import sys

from . import blocks, characters, sweeps
from .partitions import (
    e_core,
    e_weight,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charblocks",
        description="Exact character combinatorics of symmetric-group e-blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core", help="e-core and e-weight of a partition")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("partition")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("char", help="irreducible character value")
    p.add_argument("--nu", required=True, help="character label")
    p.add_argument("--class", dest="cls", required=True, help="class label")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    for name, help_text in (("count", "non-zero character count of a block on a class"),
                            ("block", "list the partitions of a block"),
                            ("extremal", "constructed class attaining count w+1")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--core", required=True)
        p.add_argument("--weight", type=int, required=True)
        if name == "count":
            p.add_argument("--class", dest="cls", required=True)
        p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("table", help="full character table of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["plain", "csv", "json"], default="plain")

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("sweep", choices=list(_SWEEPS))
    p.add_argument("--e", default=argparse.SUPPRESS, help="e value or inclusive range a..b")
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-size", type=int, default=argparse.SUPPRESS,
                   help="size bound for lemma1")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.add_argument("--no-meta", action="store_true", help="omit timestamp from JSON")

    return parser


# Largest n of table, count, block and extremal, which enumerate partitions of n.
_MAX_N = 30


def _emit(args, obj, lines) -> int:
    """Print obj as one JSON line under --format json, else the lines; return 0."""
    if args.format == "json":
        import json
        print(json.dumps(obj))
    else:
        for line in lines:
            print(line)
    return 0


def _block(args):
    """The block named by --e, --core and --weight, and its JSON fields."""
    b = blocks.BlockId(e=args.e, core=parse_partition(args.core), weight=args.weight)
    if b.n > _MAX_N:
        raise ValueError(f"block size must be at most {_MAX_N}, got n = {b.n}")
    return b, {"e": b.e, "core": render_partition(b.core), "weight": b.weight}


def _cmd_core(args) -> int:
    p = parse_partition(args.partition)
    core = render_partition(e_core(p, args.e))
    w = e_weight(p, args.e)
    return _emit(args, {"partition": render_partition(p), "e": args.e, "core": core,
                        "weight": w}, [f"core: {core}", f"weight: {w}"])


def _cmd_char(args) -> int:
    nu = parse_partition(args.nu)
    lam = parse_partition(args.cls)
    value = characters.char_value(nu, lam)
    return _emit(args, {"nu": render_partition(nu), "class": render_partition(lam),
                        "value": str(value)}, [value])


def _cmd_count(args) -> int:
    b, fields = _block(args)
    report = blocks.c_mu(b, parse_partition(args.cls))
    witnesses = [render_partition(w) for w in report.witnesses]
    return _emit(args, {**fields, "class": render_partition(report.class_label),
                        "count": report.count, "witnesses": witnesses},
                 [f"count: {report.count}"] + [f"  {w}" for w in witnesses])


def _cmd_block(args) -> int:
    b, fields = _block(args)
    members = [render_partition(p) for p in blocks.block_partitions(b)]
    return _emit(args, {**fields, "n": b.n, "partitions": members}, members)


def _cmd_extremal(args) -> int:
    b, fields = _block(args)
    lam = blocks.extremal_lambda(b)
    count = blocks.c_mu(b, lam).count
    return _emit(args, {**fields, "class": render_partition(lam), "count": count},
                 [render_partition(lam), f"count: {count}"])


def _cmd_table(args) -> int:
    if args.n < 0 or args.n > _MAX_N:
        raise ValueError(f"table size must be between 0 and {_MAX_N}")
    {"plain": characters.character_table_text,
     "csv": characters.character_table_csv,
     "json": characters.character_table_json}[args.format](args.n)
    return 0


# The verify options a sweep may read, with their defaults.  They stay unset
# unless given, so that each sweep, which names the ones it reads, refuses the rest.
_SWEEP_OPTIONS = {"e": "2..5", "max_n": 10, "max_size": 8}
_SWEEPS = {
    "theorem1": (("e", "max_n"), lambda a, e: sweeps.verify_theorem1(e, a.max_n, a.jobs)),
    "dichotomy": (("e", "max_n"), lambda a, e: sweeps.verify_dichotomy(e, a.max_n, a.jobs)),
    "lemma1": (("max_size",), lambda a, e: sweeps.lemma1_sweep(a.max_size, a.jobs)),
    "remark1": (("e", "max_n"), lambda a, e: sweeps.verify_remark1(e, a.max_n, a.jobs)),
    "remark2": (("max_n",), lambda a, e: sweeps.verify_remark2(a.max_n, jobs=a.jobs)),
    "chibar": (("max_n",), lambda a, e: sweeps.verify_chibar(a.max_n, a.jobs)),
    "rowstructure": (("e", "max_n"), lambda a, e:
                     sweeps.nonvanishing_row_structure_check(a.max_n, e, a.jobs)),
}


def _cmd_verify(args) -> int:
    reads, run = _SWEEPS[args.sweep]
    for name, default in _SWEEP_OPTIONS.items():
        if name in reads:
            vars(args).setdefault(name, default)
        elif name in vars(args):
            raise ValueError(f"verify {args.sweep} does not read --{name.replace('_', '-')}")
    report = run(args, _parse_e_range(args.e) if "e" in reads else None)
    if args.format == "json":
        print(report.to_json(meta=not args.no_meta))
    else:
        print(report.to_text())
    return 0 if report.passed() else 1


_HANDLERS = {
    "core": _cmd_core,
    "char": _cmd_char,
    "count": _cmd_count,
    "block": _cmd_block,
    "extremal": _cmd_extremal,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a reader that closed stdout early shows here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a fault, not a usage error or a failed check.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # What stdout holds goes to devnull, or the flush at exit fails (status 120).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
