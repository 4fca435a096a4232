"""Per-layer tracing of eulerseq by wrapping its public functions from outside.

The package's modules import each other's functions by name
(``from .quotients import new_quotient_h``), so a function is patched in
every module namespace that looks it up at call time. Nothing under
``src/`` is changed: ``Tracer.install`` swaps in wrappers and
``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper record time:

- a *span* wraps a layer-boundary call (a CLI command, a verify suite, a
  sequence generator, an LC or k-error engine). Each span is kept in memory
  with its name, start, end, parent span and request (the job index).
- a *leaf* wraps a per-element call (``new_quotient_h``, ``euler_quotient``,
  ``lc_binary``, ``poly_divrem``), which runs up to millions of times per
  pass. Leaves are aggregated into a call count and a total time.

A layer's self time is its spans' duration minus the time covered by the
spans and leaves called from inside them.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

perf = time.perf_counter

_GEN = ("level_sequence", "binary_class_sequence", "balanced_class_sequence",
        "threshold_sequence", "mary_sequence", "order_i_binary_sequence",
        "class_partition")
# (eulerseq module, function name, wrapper kind, layer)
PATCH_SITES = (
    [("sequences", f, "leaf", "quotients")
     for f in ("euler_quotient", "new_quotient_h", "fermat_quotient_order")]
    + [("verify", f, "leaf", "quotients")
       for f in ("new_quotient_h", "verify_congruence_qrs")]
    + [("sequences", f, "span", "sequences.gen") for f in _GEN]
    + [("complexity", f, "span", "sequences.gen")
       for f in ("binary_class_sequence", "class_partition")]
    + [("verify", f, "span", "sequences.gen")
       for f in ("binary_class_sequence", "level_sequence")]
    + [("sequences", f, "span", "sequences.io")
       for f in ("write_sequence", "read_sequence")]
    + [(mod, "berlekamp_massey", "span", "complexity.lc.bm")
       for mod in ("complexity", "verify")]
    + [(mod, "lc_via_gcd", "span", "complexity.lc.gcd")
       for mod in ("complexity", "verify")]
    + [("complexity", "lc_binary", "leaf", "complexity.lc.binary")]
    + [("complexity", f, "span", "complexity.kerror")
       for f in ("kerror_profile", "kerror_lc_bruteforce")]
    + [("verify", "kerror_profile", "span", "complexity.kerror")]
    + [(mod, f, "span", "complexity.lemmas")
       for mod in ("complexity", "verify")
       for f in ("check_root_group_lemmas", "check_poly_p_lemma")]
    + [(mod, "poly_gcd", "span", "fieldarith.gcd")
       for mod in ("complexity", "fieldarith")]
    + [("fieldarith", "poly_divrem", "leaf", "fieldarith.divrem")]
    + [("cli", "main", "span", "cli")]
)

# Integer per-layer metrics; two traced passes on one seed must agree on all.
COUNT_METRICS = (
    "complexity.kerror.patterns",
    "complexity.kerror.distinct_patterns",
    "complexity.kerror.inexact_entries",
    "complexity.lc.bm_symbols",
    "complexity.lc.binary_calls",
    "fieldarith.divrem_calls",
    "quotients.calls",
    "sequences.symbols",
    "sequences.io_bytes",
    "verify.checks",
    "verify.failed",
    "cli.commands",
    "cli.exit_nonzero",
)


def _file_tell(fh) -> int | None:
    try:
        return fh.tell()
    except (OSError, ValueError):
        return None


class Tracer:
    """Records spans and leaf aggregates for one traced pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [span_id, start, child_s]
        self._next_id = 0
        self._kerror_depth = 0
        self._patterns: set | None = None
        self._seen: dict[tuple, set] = {}
        self.request: int | None = None
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, kind, layer in PATCH_SITES:
            self._patch(importlib.import_module(f"eulerseq.{mod_name}"), attr, kind, layer)
        suites = getattr(importlib.import_module("eulerseq.verify"), "SUITES", {})
        for name in list(suites):
            self._patch(suites, name, "span", "verify")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            _set(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, kind, layer) -> None:
        original = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
        if original is None:
            return  # the function no longer exists; its layer reads 0
        if kind == "leaf":
            wrapper = self._leaf(layer, original)
        else:
            enter, leave = _HOOKS.get(layer, (None, None))
            wrapper = self._span(layer, original, enter, leave)
        self._patches.append((owner, key, original))
        _set(owner, key, wrapper)

    # --- wrappers ----------------------------------------------------------

    def _span(self, layer, fn, enter, leave):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            token = enter(tracer, args, kwargs) if enter else None
            frame = [span_id, perf(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                tracer.incl[layer] += duration
                tracer.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((span_id, parent, tracer.request, layer, frame[1], end))
                if leave:
                    leave(tracer, token, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, layer, fn):
        stack, incl, counts = self._stack, self.incl, self.counts
        tracer = self

        if layer == "complexity.lc.binary":
            def wrapper(mask, period):
                t = perf()
                result = fn(mask, period)
                d = perf() - t
                incl[layer] += d
                counts[layer] += 1
                if stack:
                    stack[-1][2] += d
                if tracer._kerror_depth:
                    counts["complexity.kerror.patterns"] += 1
                    tracer._patterns.add(mask)
                return result
        else:
            def wrapper(*args):
                t = perf()
                result = fn(*args)
                d = perf() - t
                incl[layer] += d
                counts[layer] += 1
                if stack:
                    stack[-1][2] += d
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass, keyed by metric name."""
        c, incl, self_s = self.counts, self.incl, self.self_s
        patterns = c["complexity.kerror.patterns"]
        distinct = sum(len(s) for s in self._seen.values())
        return {
            "complexity.kerror.self_s": self_s["complexity.kerror"],
            "complexity.kerror.patterns": patterns,
            "complexity.kerror.distinct_patterns": distinct,
            "complexity.kerror.pattern_yield": distinct / patterns if patterns else 0.0,
            "complexity.kerror.inexact_entries": c["complexity.kerror.inexact_entries"],
            "complexity.lc.bm_s": incl["complexity.lc.bm"],
            "complexity.lc.bm_symbols": c["complexity.lc.bm_symbols"],
            "complexity.lc.gcd_s": incl["complexity.lc.gcd"],
            "complexity.lc.binary_calls": c["complexity.lc.binary"],
            "complexity.lc.binary_s": incl["complexity.lc.binary"],
            "fieldarith.gcd_s": incl["fieldarith.gcd"],
            "fieldarith.divrem_calls": c["fieldarith.divrem"],
            "quotients.calls": c["quotients"],
            "quotients.self_s": incl["quotients"],
            "sequences.gen_s": incl["sequences.gen"],
            "sequences.symbols": c["sequences.symbols"],
            "sequences.io_s": incl["sequences.io"],
            "sequences.io_bytes": c["sequences.io_bytes"],
            "complexity.lemmas.self_s": self_s["complexity.lemmas"],
            "verify.self_s": self_s["verify"],
            "verify.checks": c["verify.checks"],
            "verify.failed": c["verify.failed"],
            "cli.self_s": self_s["cli"],
            "cli.commands": c["cli.commands"],
            "cli.exit_nonzero": c["cli.exit_nonzero"],
        }


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# --- per-layer hooks: enter(tracer, args, kwargs) -> token,
#     leave(tracer, token, args, kwargs, result, exc) ------------------------

def _kerror_enter(tracer, args, kwargs):
    seq = args[0] if args else kwargs["seq"]
    tracer._kerror_depth += 1
    tracer._patterns = tracer._seen.setdefault((seq.period, seq.symbols), set())


def _kerror_leave(tracer, token, args, kwargs, result, exc):
    tracer._kerror_depth -= 1
    if exc is not None and type(exc).__name__ == "PatternBudgetExceeded":
        tracer.counts["complexity.kerror.inexact_entries"] += 1
    elif result is not None and hasattr(result, "kerror_profile"):
        tracer.counts["complexity.kerror.inexact_entries"] += sum(
            1 for entry in result.kerror_profile if not entry[2]
        )


def _bm_enter(tracer, args, kwargs):
    seq = args[0] if args else kwargs["seq"]
    tracer.counts["complexity.lc.bm_symbols"] += 2 * seq.period


def _gen_leave(tracer, token, args, kwargs, result, exc):
    if result is None:
        return
    period = getattr(result, "period", None)
    if period is None:  # ClassPartition
        period = result.modulus.sequence_period
    tracer.counts["sequences.symbols"] += period


def _io_enter(tracer, args, kwargs):
    return _file_tell(args[0] if args else kwargs["fh"])


def _io_leave(tracer, token, args, kwargs, result, exc):
    fh = args[0] if args else kwargs["fh"]
    if isinstance(result, tuple):  # read_sequence: the whole file was consumed
        try:
            size = os.fstat(fh.fileno()).st_size
        except (OSError, ValueError):
            size = 0
    else:
        end = _file_tell(fh)
        size = end - token if end is not None and token is not None else 0
    tracer.counts["sequences.io_bytes"] += size


def _verify_leave(tracer, token, args, kwargs, result, exc):
    if result is None:
        return
    tracer.counts["verify.checks"] += len(result)
    tracer.counts["verify.failed"] += sum(1 for _, passed, _ in result if not passed)


def _cli_enter(tracer, args, kwargs):
    tracer.counts["cli.commands"] += 1


def _cli_leave(tracer, token, args, kwargs, result, exc):
    if exc is not None or result != 0:
        tracer.counts["cli.exit_nonzero"] += 1


_HOOKS = {
    "complexity.kerror": (_kerror_enter, _kerror_leave),
    "complexity.lc.bm": (_bm_enter, None),
    "sequences.gen": (None, _gen_leave),
    "sequences.io": (_io_enter, _io_leave),
    "verify": (None, _verify_leave),
    "cli": (_cli_enter, _cli_leave),
}
