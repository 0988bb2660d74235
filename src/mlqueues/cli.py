"""Command-line interface: each command reads its arguments, runs the library
and prints what :mod:`documents` lays out (the law of ``mlq stationary`` too).

Exit codes: 0 success, 2 input error (a failed write to stdout, or an input
too large for memory, too), 3 model error (reducible chain, absorbing state,
bad shape, an exit rate past the float range of ``--method mc``), 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import documents, verify
from .errors import ChainError, ShapeError
from .markov import (
    MODELS,
    RateParams,
    model_chain,
    queue_law,
    ring,
    simulate_ctmc,
    stationary_exact,
)
from .mlq import count_queues, enumerate_queues, twist
from .projection import ctm_project, label_trace, project


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))  # an empty or blank entry is no integer
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc


def _parse_x(text: str | None, n: int) -> RateParams:
    """The ``--x`` site values, unit on all ``n`` sites when absent; the
    library function that takes them checks their count against its n."""
    if text is None:
        return RateParams.ones(n)
    return RateParams(tuple(documents.parse_fraction(p) for p in text.split(",")))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def cmd_project(args) -> int:
    q = documents.parse_queue(_load_json(args.infile))
    by_labels = project(q)
    by_ctm = ctm_project(q)
    if by_labels != by_ctm:
        print("projection routes disagree", file=sys.stderr)
        _emit({"label": documents.emit_word(by_labels), "ctm": documents.emit_word(by_ctm)})
        return 4
    out = documents.emit_word(by_labels)
    if args.trace:
        out = {"word": out, "trace": [documents.emit_word(w) for w in label_trace(q)]}
    _emit(out)
    return 0


def cmd_sigma(args) -> int:
    q = documents.parse_queue(_load_json(args.infile))
    image = twist(q, args.i)
    if args.check_braid:
        if twist(image, args.i) != q:
            print("twist is not an involution here", file=sys.stderr)
            return 4
        i = args.i
        if i + 1 < q.k:
            left = twist(twist(twist(q, i), i + 1), i)
            right = twist(twist(twist(q, i + 1), i), i + 1)
            if left != right:
                print("braid relation failed here", file=sys.stderr)
                return 4
    _emit(documents.emit_queue(image))
    return 0


def cmd_stationary(args) -> int:
    rates = MODELS[args.model].rates
    if args.x is not None and not rates:
        raise ValueError(f"--x does not apply to {args.model}, whose rates are all 1")
    lam, n = _parse_int_list(args.lam), args.n
    x = _parse_x(args.x, n) if rates else None
    if args.method == "mlq":
        law = queue_law(args.model, lam, n, x)
    elif args.method == "exact":
        law = stationary_exact(model_chain(args.model, lam, n, x)).probs
    else:
        law = simulate_ctmc(model_chain(args.model, lam, n, x), args.seed, args.jumps)
    _emit(documents.emit_distribution(args.model, lam, n, x, law))
    return 0


def cmd_ring(args) -> int:
    q = documents.parse_queue(_load_json(args.infile))
    if q.kind == "fermionic" and args.x is not None:
        raise ValueError("--x does not apply to a fermionic queue, whose ringing rates are all 1")
    x = None if args.x is None else _parse_x(args.x, q.n)
    image, exit_site, rate = ring(q, args.site, x, args.reverse)
    _emit(
        {
            "queue": documents.emit_queue(image),
            "exit_site": exit_site,
            "rate": documents.format_fraction(rate),
        }
    )
    return 0


def cmd_enumerate(args) -> int:
    alpha = _parse_int_list(args.alpha)
    total = count_queues(alpha, args.n, args.kind)
    if args.count_only:
        print(total)
        return 0
    try:  # a failed open, write or close of --out is an input error
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as sink:
            for q in enumerate_queues(alpha, args.n, args.kind):
                sink.write(json.dumps(documents.emit_queue(q)))
                sink.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write to {args.out or 'stdout'}: {exc}") from exc
    return 0


def _parse_bounds(text: str | None) -> dict | None:
    if not text:
        return None
    out = {}
    for pair in text.split(","):
        key, _, val = pair.partition("=")
        if not val:
            raise ValueError(f"bad bounds entry {pair!r}, expected key=value")
        try:
            out[key.strip()] = int(val)
        except ValueError as exc:
            raise ValueError(f"bad bounds value {val!r}") from exc
    return out


def cmd_verify(args) -> int:
    if args.witness:
        witness = _load_json(args.witness)
        ok = verify.replay_witness(witness)
        print("witness reproduces" if ok else "witness does NOT reproduce", file=sys.stderr)
        return 0 if ok else 4
    suites = {**verify.SUITES, "all": verify.suite_all}
    if args.suite not in suites:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(suites)}")
    report = suites[args.suite](_parse_bounds(args.bounds), args.seed)
    print(report.to_text(), file=sys.stderr)
    _emit(report.to_dict())
    return 0 if report.passed else 4


def cmd_render(args) -> int:
    doc = _load_json(args.infile)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind in ("fermionic", "bosonic"):
        print(documents.render_queue(documents.parse_queue(doc)))
    elif kind in ("fermionic_word", "bosonic_word"):
        print(documents.render_word(documents.parse_word(doc)))
    else:
        raise ValueError(f"cannot render document of kind {kind!r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mlq`` parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(prog="mlq", description="Multiline queues, projections, and ring processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a queue to a ring word")
    p.add_argument("--in", dest="infile", required=True, help="queue JSON file, or - for stdin")
    p.add_argument("--trace", action="store_true", help="include the per-row labelled words")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sigma", help="twist two adjacent rows")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--i", type=int, required=True, help="row index, 1-based from the bottom")
    p.add_argument("--check-braid", action="store_true", help="also verify the involution and braid relations here")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("stationary", help="stationary distribution of a ring process")
    p.add_argument("--model", required=True, choices=tuple(MODELS))
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated content/shape, e.g. 2,1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default=None, help="comma-separated site rates, default all ones")
    p.add_argument("--method", choices=("exact", "mlq", "mc"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jumps", type=int, default=100_000)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("ring", help="one ringing transition of a queue")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--x", default=None)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("enumerate", help="stream all queues of a given shape")
    p.add_argument("--alpha", required=True, help="comma-separated row sizes, bottom row first")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("fermionic", "bosonic"), required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bounds", default=None, help="comma-separated key=value overrides")
    p.add_argument("--witness", default=None, help="replay a witness JSON file instead of running a suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="plain-text dot diagram of a queue or word")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write shows here, not in the flush at exit
        return code
    except OSError as exc:
        # files are read in _load_json and --out is written in cmd_enumerate, so this is stdout (its
        # reader gone, its disk full); point it at devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"input error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, ChainError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, MemoryError) as exc:  # a MemoryError from one huge allocation carries no message
        print(f"input error: {str(exc) or 'too large to hold in memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
