"""Command-line front end.

Subcommands: ``parse``, ``step``, ``bisim``, ``nonforward``, ``encode``.
Exit codes: 0 success; 1 a syntax error, another input error (a
missing, unreadable or non-UTF-8 file, a process file too few or too
many, two inputs both read from standard input, options that exclude
each other, an option that its run would ignore, a depth, budget or
count out of range, an ``--env`` name that is not an identifier) or a
standard output closed before all of it was written; 2 a
confidential-fragment violation.
Output does not depend on what ran earlier in the process, so no
setting is needed to reproduce it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bisim import check, law_suite
from .encoding import (
    SourceModeError, check_completeness, encode, encode_with_handlers,
)
from .lts import render_action, successors
from .nonforward import (
    WitnessNotCpi, check_nonforwarding, static_guarantee, witness_check,
)
from .parser import CPI, PI, CpiSyntaxError, is_identifier, parse, render
from .syntax import CpiViolation, SortError, chan, validate_cpi

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_VIOLATION = 2


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path!r} is not UTF-8: {e.reason} at byte {e.start}") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _add_common(sp: argparse.ArgumentParser, mode_default: str = CPI) -> None:
    sp.add_argument("--mode", choices=(CPI, PI), default=mode_default,
                    help="parse mode (default %(default)s)")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument("--allow-reserved", action="store_true",
                    help="accept '#'-prefixed identifiers in the input")


def _parse_file(args, path: str):
    return parse(_read_source(path), mode=args.mode,
                 allow_reserved=args.allow_reserved)


def cmd_parse(args) -> int:
    p = _parse_file(args, args.file)
    report = validate_cpi(p)
    _emit(args, {"process": render(p), "validation": report.to_json()},
          render(p))
    return EXIT_OK


def cmd_step(args) -> int:
    p = _parse_file(args, args.file)
    names = [n for n in args.env.split(",") if n]
    for n in names:
        if not is_identifier(n):
            raise ValueError(f"--env: {n!r} is not a channel name")
    env = tuple(map(chan, names))
    trans = successors(p, env, include_inputs=not args.no_inputs)
    lines = [f"{render_action(t.action):30s} -> {render(t.target)}" for t in trans]
    _emit(args, {"process": render(p),
                 "transitions": [t.to_json() for t in trans]},
          "\n".join(lines) if lines else "(no transitions)")
    return EXIT_OK


def cmd_bisim(args) -> int:
    if args.laws:
        if args.file or args.other:
            raise ValueError("bisim --laws takes no process files")
        report = law_suite(0 if args.seed is None else args.seed,
                           25 if args.instances is None else args.instances,
                           args.depth)
        text = "\n".join(
            f"{r.name:28s} {'ok' if r.ok else 'FAILED'}"
            f"{' (expected failure)' if r.should_fail else ''}"
            for r in report.results)
        _emit(args, report.to_json(), text)
        return EXIT_OK
    if (args.seed, args.instances) != (None, None):
        raise ValueError("bisim takes --seed and --instances only with --laws")
    if not args.file or not args.other:
        raise ValueError("bisim needs two process files (or --laws)")
    p = _parse_file(args, args.file)
    q = _parse_file(args, args.other)
    verdict = check(p, q, args.depth)
    _emit(args, verdict.to_json(), verdict.describe())
    return EXIT_OK


def cmd_nonforward(args) -> int:
    if args.static and (args.witness or args.depth is not None):
        raise ValueError("nonforward --static takes no --witness or --depth")
    depth = 5 if args.depth is None else args.depth
    p = _parse_file(args, args.file)
    if args.static:
        g = static_guarantee(p)
        _emit(args, g.to_json(),
              "guaranteed (confidential fragment)" if g.guaranteed
              else "not applicable: term is outside the confidential fragment")
        return EXIT_OK
    if args.witness:
        q = parse(_read_source(args.witness), mode=CPI,
                  allow_reserved=args.allow_reserved)
        ev = witness_check(p, q, depth)
        _emit(args, ev.to_json(),
              f"{'positive' if ev.positive else 'negative'} evidence at depth {ev.depth}")
        return EXIT_OK
    v = check_nonforwarding(p, depth)
    if v.satisfied:
        text = f"non-forwarding holds for all traces up to depth {v.depth}"
    else:
        steps = "; ".join(render_action(a) for a in v.violation.trace)
        text = (f"forwarding violation: channel {v.violation.channel.ident!r} "
                f"received at step {v.violation.receive_index}, "
                f"forwarded at step {v.violation.send_index} [{steps}]")
    _emit(args, v.to_json(), text)
    return EXIT_OK


def cmd_encode(args) -> int:
    if not args.verify and (args.tau, args.depth) != (None, None):
        raise ValueError("encode takes --tau and --depth only with --verify")
    p = _parse_file(args, args.file)
    if args.verify:
        report = check_completeness(
            p, tau_budget=12 if args.tau is None else args.tau,
            depth=4 if args.depth is None else args.depth)
        lines = [f"source: {render(report.source)}"]
        for r in report.results:
            if r.found:
                lines.append(f"  reduct {render(r.target)}: matched after "
                             f"{r.tau_steps} tau steps")
            else:
                lines.append(f"  reduct {render(r.target)}: NOT matched "
                             f"within budget {report.tau_budget}")
        lines.append("ok" if report.ok else "FAILED")
        _emit(args, report.to_json(), "\n".join(lines))
        return EXIT_OK
    enc = encode_with_handlers(p) if args.with_handlers else encode(p)
    _emit(args, {"source": render(p), "encoded": render(enc),
                 "validation": validate_cpi(enc).to_json()},
          render(enc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cpi",
        description="Workbench for the confidential pi-calculus: parsing, "
                    "transitions, bounded bisimilarity, non-forwarding "
                    "analysis and the forwarding-free translation.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and pretty-print a process")
    sp.add_argument("file", help="source file, or '-' for stdin")
    _add_common(sp)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("step", help="list the transitions of a process")
    sp.add_argument("file")
    sp.add_argument("--env", default="",
                    help="comma-separated extra channels for input instantiation")
    sp.add_argument("--no-inputs", action="store_true",
                    help="omit free input actions")
    _add_common(sp)
    sp.set_defaults(func=cmd_step)

    sp = sub.add_parser("bisim", help="bounded strong bisimilarity")
    sp.add_argument("file", nargs="?")
    sp.add_argument("other", nargs="?")
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--laws", action="store_true",
                    help="run the algebraic law suite instead")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--instances", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_bisim)

    sp = sub.add_parser("nonforward", help="non-forwarding analysis")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--static", action="store_true",
                    help="membership-based guarantee instead of trace search")
    sp.add_argument("--witness",
                    help="confidential witness file for bounded evidence")
    _add_common(sp, mode_default=PI)
    sp.set_defaults(func=cmd_nonforward)

    sp = sub.add_parser("encode", help="translate into the confidential fragment")
    sp.add_argument("file")
    sp.add_argument("--with-handlers", action="store_true",
                    help="compose with handlers for the free channels")
    sp.add_argument("--verify", action="store_true",
                    help="check reduction completeness instead of printing")
    sp.add_argument("--tau", type=int,
                    help="tau budget for --verify (default 12)")
    sp.add_argument("--depth", type=int,
                    help="bisimulation depth for --verify (default 4)")
    _add_common(sp, mode_default=PI)
    sp.set_defaults(func=cmd_encode)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs = [getattr(args, k, None) for k in ("file", "other", "witness")]
        if inputs.count("-") > 1:
            raise ValueError("only one input can come from standard input ('-')")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe.  Point standard output at devnull
        # so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_SYNTAX
    except CpiSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except (CpiViolation, SortError) as e:
        print(f"confidentiality violation: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (SourceModeError, WitnessNotCpi, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SYNTAX


if __name__ == "__main__":
    raise SystemExit(main())
