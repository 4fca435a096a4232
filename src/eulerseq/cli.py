"""Command-line front end: generate sequences, analyze complexity, run
verification suites, and list class partitions.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.

`main` may be called any number of times in one process. The argument parser
is built on the first call and reused by every later one.

Each command imports the modules it runs when it runs, so `--help` and a
usage error load nothing past argparse, `generate` and `partition` load the
sequence builders but not the engines, and only `verify` loads the suites.
A command looks each engine up on its module at call time, so a wrapper
patched onto the module sees the call.
"""

from __future__ import annotations

import argparse
import functools
import sys


# Each kind's builder, named in `sequences` (looked up at call time, so a
# wrapper patched onto the module sees the call), and the options it reads
# after its first argument: PrimePowerModulus(p, r), or p for fermat-order.
_KINDS = {
    "class": ("binary_class_sequence", ["I"]),
    "balanced": ("balanced_class_sequence", ["I"]),
    "threshold": ("threshold_sequence", []),
    "level": ("level_sequence", ["j"]),
    "mary": ("mary_sequence", ["order"]),
    "fermat-order": ("order_i_binary_sequence", ["i", "I"]),
}

# sorted(verify.SUITES), which a test pins: the parser offers the suite names
# without importing verify and the engines under it
_SUITES = ("hh-period", "klc", "lc-p", "lemmas", "oracles", "q-r-s", "theorem-hh")


def _add_sequence_args(parser: argparse.ArgumentParser, required: bool) -> None:
    """The options that describe a generated sequence."""
    parser.add_argument("--p", type=int, required=required, help="odd prime base")
    parser.add_argument("--r", type=int, default=1, help="prime power exponent")
    parser.add_argument("--kind", required=required, choices=_KINDS)
    parser.add_argument("--I", type=int, nargs="+", help="level index set for class kinds")
    parser.add_argument("--j", type=int, help="level index for kind=level")
    parser.add_argument("--i", type=int, help="quotient order for kind=fermat-order")
    parser.add_argument("--order", type=int, help="character order for kind=mary")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every `main` call.

    Sharing is safe because parse_args keeps no state on the parser: each call
    returns a new Namespace, and help and usage text read COLUMNS and the
    terminal when they are printed, not here. What the build does read is
    frozen for the process: the kind names of _KINDS and the suite names of
    _SUITES, both module constants of this module. It imports nothing else:
    the --budget default None stands for complexity.DEFAULT_PATTERN_BUDGET,
    which _cmd_analyze reads when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="eulerseq",
        description="Euler quotient level sequences: generation and complexity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a sequence and write it to a file")
    _add_sequence_args(gen, required=True)
    gen.add_argument("--out", help="output path (default: stdout)")

    ana = sub.add_parser("analyze", help="compute linear complexity and k-error profile")
    ana.add_argument("--file", help="sequence file to analyze")
    _add_sequence_args(ana, required=False)
    ana.add_argument("--k-max", type=int, default=0, help="largest k for the k-error profile")
    ana.add_argument(
        "--budget",
        type=int,
        default=None,
        help="error-pattern budget for exhaustive k-error search, each pattern "
        "charged ceil(N^2 / 2^20) at period N, 1 up to N = 1024 "
        "(used only for periods without the structural engine)",
    )
    ana.add_argument("--format", choices=["text", "json"], default="text")

    ver = sub.add_parser("verify", help="run a named property suite")
    ver.add_argument("--suite", required=True, choices=_SUITES)
    ver.add_argument("--p", type=int, default=3)
    ver.add_argument("--r", type=int, default=2)
    ver.add_argument("--seed", type=int, default=0)

    part = sub.add_parser("partition", help="list the D_l / P class partition")
    part.add_argument("--p", type=int, required=True)
    part.add_argument("--r", type=int, required=True)
    part.add_argument("--summary", action="store_true", help="cardinalities only")
    part.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _make_sequence(args) -> tuple[sequences.PeriodicSequence, dict]:
    from . import sequences
    from .quotients import PrimePowerModulus

    if args.p is None or args.kind is None:
        raise ValueError("inline analysis needs --p and --kind (or use --file)")
    kind = args.kind
    builder, options = _KINDS[kind]
    values = [getattr(args, o) for o in options]
    if None in values:
        raise ValueError(f"kind={kind} requires " + " and ".join(f"--{o}" for o in options))
    build = getattr(sequences, builder)
    if kind == "fermat-order":  # its header records the order i as r
        return build(args.p, *values), {"p": args.p, "r": args.i, "kind": kind}
    m = PrimePowerModulus(args.p, args.r)
    return build(m, *values), {"p": args.p, "r": args.r, "kind": kind}


def _cmd_generate(args) -> int:
    from . import sequences

    seq, meta = _make_sequence(args)
    summary = f"period {seq.period} weight {seq.weight}"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                sequences.write_sequence(fh, seq, **meta)
        except OSError as exc:
            print(f"error: {args.out}: {exc}", file=sys.stderr)
            return 2
        print(summary)
    else:  # the sequence goes to stdout, so the summary goes to stderr
        sequences.write_sequence(sys.stdout, seq, **meta)
        print(summary, file=sys.stderr)
    return 0


def _theorem_modulus(meta, args) -> PrimePowerModulus | None:
    """(p, r) when the sequence is a class sequence the theorem profile covers."""
    from . import complexity
    from .quotients import PrimePowerModulus

    if meta.get("kind") != "class" or not args.I:
        return None
    m = PrimePowerModulus(meta["p"], meta["r"])
    return None if complexity.theorem_precondition_error(m, len(set(args.I))) else m


def _analyze_sequence(seq, meta, args) -> dict:
    """The analysis report as its JSON document; _print_report renders it."""
    from . import complexity, sequences

    lc, method = complexity.linear_complexity(seq)
    sequence_id = dict(meta)
    if args.I and "I" in _KINDS.get(meta["kind"], (None, []))[1]:
        sequence_id["I"] = sorted(set(args.I))
    profile = []
    if args.k_max > 0:
        m = _theorem_modulus(meta, args)
        # an inline sequence was just built from these arguments; a file may
        # hold anything under its class header, even a period not its (p, r)'s
        if m is not None and args.file and (
            seq.period != m.sequence_period
            or seq != sequences.binary_class_sequence(m, args.I)
        ):
            raise ValueError("sequence is not the binary class sequence for (p, r, I)")
        profile = complexity.kerror_lc_profile(seq, args.k_max, budget=args.budget)
        lc0 = profile[0][1]
        # on a p^n period the block recursion, or the exhaustive profile's
        # lc_binary, against the cyclotomic engine; elsewhere the exhaustive
        # profile's LC_0 is lc_binary's own
        if lc0 != lc:
            raise RuntimeError(
                f"k-error engine LC_0 = {lc0} contradicts LC = {lc} from {method}"
            )
        if m is not None:
            complexity.check_theorem_profile(profile, m, args.I, args.k_max)
    return {
        "sequence": sequence_id,
        "lc": lc,
        "method": method,
        "kerror": [{"k": k, "lc": lc_k, "exact": exact}
                   for k, lc_k, exact in complexity.profile_entries(profile, args.k_max)],
    }


def _print_report(doc: dict, fmt: str) -> None:
    """Print an analysis report as JSON or as text.

    An inexact k-error entry is an upper bound: exhaustive search ran out of
    pattern budget.
    """
    if fmt == "json":
        import json

        print(json.dumps(doc))
        return
    desc = " ".join(f"{k}={v}" for k, v in doc["sequence"].items())
    print(f"sequence: {desc}")
    print(f"linear complexity: {doc['lc']}  (method: {doc['method']})")
    if doc["kerror"]:
        print("k-error profile:")
        print("  k   lc_k  exact")
        for e in doc["kerror"]:
            print(f"  {e['k']:<3} {e['lc']:<5} {'yes' if e['exact'] else 'no'}")


def _cmd_analyze(args) -> int:
    from . import complexity, sequences

    if args.k_max < 0:
        raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
    if args.budget is None:
        args.budget = complexity.DEFAULT_PATTERN_BUDGET
    elif args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    if args.file:
        try:
            with open(args.file) as fh:
                seq, meta = sequences.read_sequence(fh)
            report = _analyze_sequence(seq, meta, args)
        except (OSError, ValueError) as exc:  # a SequenceParseError is a ValueError
            print(f"error: {args.file}: {exc}", file=sys.stderr)
            return 2
    else:
        seq, meta = _make_sequence(args)
        report = _analyze_sequence(seq, meta, args)
    _print_report(report, args.format)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    suite = verify.SUITES[args.suite]
    results = suite(args.p, args.r, seed=args.seed)
    any_fail = False
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" — {detail}"
        print(line)
        any_fail |= not passed
    return 1 if any_fail else 0


def _cmd_partition(args) -> int:
    from . import sequences
    from .quotients import PrimePowerModulus

    m = PrimePowerModulus(args.p, args.r)
    multiples = range(0, m.sequence_period, m.p)
    if args.summary:  # counted in the digits, without the classes' lists
        sizes = sequences.class_sizes(m)
    else:
        classes = sequences.class_partition(m)
    if args.format == "json":
        import json

        if args.summary:
            doc = {"p": m.p, "r": m.r, "class_sizes": sizes, "multiples_size": len(multiples)}
        else:
            doc = {"p": m.p, "r": m.r, "classes": classes, "multiples": list(multiples)}
        print(json.dumps(doc))
    elif args.summary:
        print(f"|D_l| = [{', '.join(map(str, sizes))}], |P| = {len(multiples)}")
    else:
        for l, c in enumerate(classes):
            print(f"D_{l}: {' '.join(map(str, c))}")
        print(f"P: {' '.join(map(str, multiples))}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "partition": _cmd_partition,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a period past what memory holds
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: period too large to build ({detail})", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # two engines, or an engine and the theorem, disagree
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
