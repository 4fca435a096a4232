"""Command-line front end: generate sequences, analyze complexity, run
verification suites, and list class partitions.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexity, sequences, verify
from .quotients import PrimePowerModulus


_KINDS = ["class", "balanced", "threshold", "level", "mary", "fermat-order"]


def _add_sequence_args(parser: argparse.ArgumentParser, required: bool) -> None:
    """The options that describe a generated sequence."""
    parser.add_argument("--p", type=int, required=required, help="odd prime base")
    parser.add_argument("--r", type=int, default=1, help="prime power exponent")
    parser.add_argument("--kind", required=required, choices=_KINDS)
    parser.add_argument("--I", type=int, nargs="+", help="level index set for class kinds")
    parser.add_argument("--j", type=int, help="level index for kind=level")
    parser.add_argument("--i", type=int, help="quotient order for kind=fermat-order")
    parser.add_argument("--order", type=int, help="character order for kind=mary")


def _build_parser() -> argparse.ArgumentParser:
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
        default=complexity.DEFAULT_PATTERN_BUDGET,
        help="error-pattern budget for exhaustive k-error search "
        "(used only for periods without the structural engine)",
    )
    ana.add_argument("--format", choices=["text", "json"], default="text")

    ver = sub.add_parser("verify", help="run a named property suite")
    ver.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
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
    if args.p is None or args.kind is None:
        raise ValueError("inline analysis needs --p and --kind (or use --file)")
    kind = args.kind
    meta = {"p": args.p, "r": args.r, "kind": kind}
    if kind in ("class", "balanced"):
        if not args.I:
            raise ValueError(f"kind={kind} requires --I")
        m = PrimePowerModulus(args.p, args.r)
        build = (
            sequences.binary_class_sequence
            if kind == "class"
            else sequences.balanced_class_sequence
        )
        return build(m, args.I), meta
    if kind == "threshold":
        return sequences.threshold_sequence(PrimePowerModulus(args.p, args.r)), meta
    if kind == "level":
        if args.j is None:
            raise ValueError("kind=level requires --j")
        return sequences.level_sequence(PrimePowerModulus(args.p, args.r), args.j), meta
    if kind == "mary":
        if args.order is None:
            raise ValueError("kind=mary requires --order")
        return sequences.mary_sequence(PrimePowerModulus(args.p, args.r), args.order), meta
    if args.i is None or not args.I:  # argparse's choices leave only fermat-order
        raise ValueError("kind=fermat-order requires --i and --I")
    meta["r"] = args.i
    return sequences.order_i_binary_sequence(args.p, args.i, args.I), meta


def _cmd_generate(args) -> int:
    seq, meta = _make_sequence(args)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                sequences.write_sequence(fh, seq, meta["p"], meta["r"], meta["kind"])
        except OSError as exc:
            print(f"error: {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"period {seq.period} weight {seq.weight}")
    else:
        sequences.write_sequence(sys.stdout, seq, meta["p"], meta["r"], meta["kind"])
        print(f"period {seq.period} weight {seq.weight}", file=sys.stderr)
    return 0


def _theorem_modulus(meta, args) -> PrimePowerModulus | None:
    """(p, r) when the sequence is a class sequence the theorem profile covers."""
    if meta.get("kind") != "class" or not args.I:
        return None
    m = PrimePowerModulus(meta["p"], meta["r"])
    return None if complexity.theorem_precondition_error(m, len(set(args.I))) else m


def _analyze_sequence(seq, meta, args) -> dict:
    """The analysis report as its JSON document; _print_report renders it."""
    lc, method = complexity.linear_complexity(seq)
    sequence_id = dict(meta)
    if args.I and meta["kind"] in ("class", "balanced", "fermat-order"):
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
        # two engines on a structural period; elsewhere both are lc_binary's
        if lc0 != lc:
            raise RuntimeError(
                f"k-error engine LC_0 = {lc0} contradicts LC = {lc} from {method}"
            )
        if m is not None:
            complexity.check_theorem_profile(profile, m, args.I)
    return {
        "sequence": sequence_id,
        "lc": lc,
        "method": method,
        "kerror": [{"k": k, "lc": lc_k, "exact": exact} for k, lc_k, exact in profile],
    }


def _print_report(doc: dict, fmt: str) -> None:
    """Print an analysis report as JSON or as text.

    An inexact k-error entry is an upper bound: exhaustive search ran out of
    pattern budget.
    """
    if fmt == "json":
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
    if args.k_max < 0:
        raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
    if args.budget < 0:
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
    m = PrimePowerModulus(args.p, args.r)
    classes = sequences.class_partition(m).classes
    multiples = range(0, m.sequence_period, m.p)
    if args.format == "json":
        if args.summary:
            doc = {
                "p": m.p,
                "r": m.r,
                "class_sizes": [len(c) for c in classes],
                "multiples_size": len(multiples),
            }
        else:
            doc = {"p": m.p, "r": m.r, "classes": classes, "multiples": list(multiples)}
        print(json.dumps(doc))
        return 0
    if args.summary:
        sizes = ", ".join(str(len(c)) for c in classes)
        print(f"|D_l| = [{sizes}], |P| = {len(multiples)}")
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
