"""Command-line front end: generate sequences, analyze complexity, run
verification suites, and list class partitions.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import sympy

from . import complexity, sequences, verify
from .fieldarith import PrimeField
from .quotients import PrimePowerModulus
from .sequences import SequenceParseError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerseq",
        description="Euler quotient level sequences: generation and complexity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a sequence and write it to a file")
    gen.add_argument("--p", type=int, required=True, help="odd prime base")
    gen.add_argument("--r", type=int, default=1, help="prime power exponent")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["class", "balanced", "threshold", "level", "mary", "fermat-order"],
    )
    gen.add_argument("--I", type=int, nargs="+", help="level index set for class kinds")
    gen.add_argument("--j", type=int, help="level index for kind=level")
    gen.add_argument("--i", type=int, help="quotient order for kind=fermat-order")
    gen.add_argument("--order", type=int, help="character order for kind=mary")
    gen.add_argument("--out", help="output path (default: stdout)")

    ana = sub.add_parser("analyze", help="compute linear complexity and k-error profile")
    ana.add_argument("--file", help="sequence file to analyze")
    ana.add_argument("--p", type=int, help="odd prime base (inline generation)")
    ana.add_argument("--r", type=int, default=1)
    ana.add_argument(
        "--kind",
        choices=["class", "balanced", "threshold", "level", "mary", "fermat-order"],
    )
    ana.add_argument("--I", type=int, nargs="+")
    ana.add_argument("--j", type=int)
    ana.add_argument("--i", type=int)
    ana.add_argument("--order", type=int)
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
    if kind == "fermat-order":
        if args.i is None or not args.I:
            raise ValueError("kind=fermat-order requires --i and --I")
        meta["r"] = args.i
        return sequences.order_i_binary_sequence(args.p, args.i, args.I), meta
    raise ValueError(f"unknown kind {kind!r}")


def _cmd_generate(args) -> int:
    seq, meta = _make_sequence(args)
    if args.out:
        with open(args.out, "w") as fh:
            sequences.write_sequence(fh, seq, meta["p"], meta["r"], meta["kind"])
        print(f"period {seq.period} weight {seq.weight}")
    else:
        sequences.write_sequence(sys.stdout, seq, meta["p"], meta["r"], meta["kind"])
        print(f"period {seq.period} weight {seq.weight}", file=sys.stderr)
    return 0


def _analyze_sequence(seq, meta, args) -> complexity.ComplexityReport:
    if not sympy.isprime(seq.alphabet_size):
        raise ValueError(
            f"cannot analyze over alphabet of non-prime size {seq.alphabet_size}"
        )
    fp = PrimeField(seq.alphabet_size)
    lc = complexity.berlekamp_massey(seq, fp)
    sequence_id = dict(meta)
    if getattr(args, "I", None):
        sequence_id["I"] = sorted(set(args.I))
    report = complexity.ComplexityReport(
        sequence_id=sequence_id, lc=lc, method="berlekamp_massey"
    )
    if args.k_max > 0:
        if seq.alphabet_size != 2:
            raise ValueError("k-error analysis is defined for binary sequences only")
        if (
            meta.get("kind") == "class"
            and getattr(args, "I", None)
            and meta.get("r", 1) >= 2
            and complexity.two_is_primitive_root_mod_p2(meta["p"])
        ):
            m = PrimePowerModulus(meta["p"], meta["r"])
            theorem = complexity.kerror_profile(seq, m, args.I, args.k_max)
            report.kerror_profile = theorem.kerror_profile
        else:
            report.kerror_profile = complexity.kerror_lc_profile(
                seq, args.k_max, budget=args.budget
            )
    return report


def _print_report(report: complexity.ComplexityReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict()))
        return
    sid = report.sequence_id
    desc = " ".join(f"{k}={v}" for k, v in sid.items())
    print(f"sequence: {desc}")
    print(f"linear complexity: {report.lc}  (method: {report.method})")
    if report.kerror_profile:
        print("k-error profile:")
        print("  k   lc_k  exact")
        for k, lc, exact in report.kerror_profile:
            print(f"  {k:<3} {lc:<5} {'yes' if exact else 'no'}")


def _cmd_analyze(args) -> int:
    if args.file:
        try:
            with open(args.file) as fh:
                seq, meta = sequences.read_sequence(fh)
        except SequenceParseError as exc:
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
    partition = sequences.class_partition(m)
    if args.format == "json":
        if args.summary:
            doc = {
                "p": m.p,
                "r": m.r,
                "class_sizes": [len(c) for c in partition.classes],
                "multiples_size": len(partition.multiples),
            }
        else:
            doc = {
                "p": m.p,
                "r": m.r,
                "classes": [sorted(c) for c in partition.classes],
                "multiples": sorted(partition.multiples),
            }
        print(json.dumps(doc))
        return 0
    if args.summary:
        sizes = ", ".join(str(len(c)) for c in partition.classes)
        print(f"|D_l| = [{sizes}], |P| = {len(partition.multiples)}")
    else:
        for l, c in enumerate(partition.classes):
            print(f"D_{l}: {' '.join(map(str, sorted(c)))}")
        print(f"P: {' '.join(map(str, sorted(partition.multiples)))}")
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


if __name__ == "__main__":
    sys.exit(main())
