"""Spans and counts at the package's layer boundaries, recorded from the
benchmark's side.

Each traced function is rebound, in every `bvbounds` module that holds it
by name, to a wrapper.  In the timed mode the wrapper records a span
(function, start, end, parent span, op id); in the counting mode it only
keeps the stack of open spans, and a `sys.setprofile` hook charges each
`Fraction` construction or arithmetic call to the innermost open span and
counts calls of `combinatorics.binom`.  The two modes never run together.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

TRACED = {
    "cli": ("main", "load_instance", "fmt", "grid_json"),
    "model": ("moments_from_pmf", "bonferroni_sums", "counting_pmf",
              "event_system_from_pmf"),
    "transforms": ("complementary_moment", "pmf_from_moments",
                   "tails_from_moments", "tail_table_from_moments",
                   "moments_from_tails", "pgf_eval", "moment_poly_eval"),
    "bounds": ("chung_bound", "bonferroni_pair", "frechet_gumbel_type",
               "frechet_lower", "gumbel_upper", "comparison_bound"),
    "oracle": ("validate", "random_instance", "exact_tail",
               "tail_table_from_pmf"),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
# Entry points, whose total time is reported besides their self time.
ENTRY_POINTS = ("cli.main", "cli.load_instance", "oracle.validate")
RATIONAL_CODES = frozenset(
    getattr(Fraction, name).__code__
    for name in ("__new__", "_add", "_sub", "_mul", "_div")
)


class Recorder:
    """Installs span wrappers on a set of imported `bvbounds` modules."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []   # (name index, start, end, parent span, op id)
        # open spans: span index (timed mode) or name index (counting mode)
        self.stack = []
        self.op = -1
        self._saved = []

    def _install(self, make_wrapper) -> None:
        package = [mod for name, mod in sys.modules.items()
                   if name == "bvbounds" or name.startswith("bvbounds.")]
        for idx, name in enumerate(NAMES):
            mod, fn = name.split(".")
            original = getattr(self.modules[mod], fn)
            wrapper = make_wrapper(idx, original)
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, attr, value))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()
        self.stack.clear()

    # -- timed mode ---------------------------------------------------------

    def install_timed(self) -> None:
        spans, stack = self.spans, self.stack

        def make_wrapper(idx, fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                me = len(spans)
                spans.append(None)
                stack.append(me)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[me] = (idx, start, end, parent, self.op)
            return wrapper

        self._install(make_wrapper)

    def span_stats(self, op_latency):
        """Per-function calls, self and total seconds summed over all ops,
        and the smallest share of an op's wall time its top-level spans
        cover."""
        n = len(NAMES)
        calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        top = {}
        for idx, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top[op] = top.get(op, 0.0) + end - start
        for k, (idx, start, end, parent, op) in enumerate(self.spans):
            calls[idx] += 1
            total_s[idx] += end - start
            self_s[idx] += end - start - child[k]
        coverage = min(top.get(op, 0.0) / latency
                       for op, latency in op_latency.items())
        return calls, self_s, total_s, coverage

    def write_spans(self, path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for idx, start, end, parent, op in self.spans:
                fh.write(f"{NAMES[idx]},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent},{op}\n")

    # -- counting mode ------------------------------------------------------

    def install_counting(self) -> None:
        stack = self.stack

        def make_wrapper(idx, fn):
            def wrapper(*args, **kwargs):
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapper

        self._install(make_wrapper)

    def counting(self, fn, *args):
        """Calls `fn(*args)` under the profile hook; returns its result, the
        rational ops charged to each function (the last slot: outside any
        span) and the number of `binom` calls."""
        stack = self.stack
        rational = [0] * (len(NAMES) + 1)
        binom_calls = [0]
        outside = len(NAMES)
        binom_code = self.modules["combinatorics"].binom.__code__

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code in RATIONAL_CODES:
                    rational[stack[-1] if stack else outside] += 1
                elif code is binom_code:
                    binom_calls[0] += 1

        sys.setprofile(hook)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        return result, rational, binom_calls[0]
