"""Spans and counters around the public calls into each admcalc layer.

Used only by the traced run.  ``Tracer.install`` replaces every public
layer function at each name a caller looks it up by: ``from .x import y``
binds ``y`` in the caller's module, so ``cli.hurwitz_count``,
``hodge.div``, ``hodge.sin_scaled`` and ``localization.l2_table`` are
wrapped as well as the definitions themselves.  Products and quotients of
two series go through ``TruncatedSeries.__mul__``/``__truediv__`` and are
wrapped on the class.  Nothing in the package is edited.

A span's self time is its duration minus the durations of its child spans
and the time their counters took, so the counters do not inflate the
parent.  Times are raw seconds; run.py applies the pass's speed correction.
Spans are kept in memory and returned with the pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import defaultdict

# Hurwitz profiles with more branch points than this are "long" (the thin
# profiles of the verify suites); the others are "wide".
WIDE_MAX_POINTS = 5

HODGE_SERIES = (
    "closed_form_L2", "closed_form_L3", "conjecture_series", "i_series",
    "j_series", "l_series", "p3_full_series", "p3_trans_series",
    "ode_residual_deg2", "ode_residual_deg3", "j_relation_check",
)
LOCALIZATION = ("enumerate_loci", "deg2_linA", "deg2_linB", "deg3_aux_residual",
                "j2_from_loci")


def _bits(series) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs),
        default=0,
    )


def class_size(d: int, parts: tuple[int, ...]) -> int:
    centraliser = 1
    for length in set(parts):
        m = parts.count(length)
        centraliser *= length**m * math.factorial(m)
    return math.factorial(d) // centraliser


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (request, span, parent, name, start, end)
        self._stack: list[list] = []  # open spans: [span id, bucket, child seconds]
        self._ids = itertools.count(1)
        self.request = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.n: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.bits_max = 0
        self._built: dict[int, int] = {}  # degree -> largest gmax built
        self._count = None  # hurwitz_count, whose EnumerationBoundError is a refusal
        self.wrapped: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import admcalc
        from admcalc import cli, hodge, hurwitz, localization, series

        self._count = hurwitz.hurwitz_count
        plan = {
            series.div: ("series.div", self._after_div),
            series.sin_scaled: ("series.trig", self._after_trig),
            series.cos_scaled: ("series.trig", self._after_trig),
            hodge.l2_table: ("hodge.table", self._after_table),
            hodge.l3_table: ("hodge.table", self._after_table),
            hurwitz.hurwitz_count: ("hurwitz.count", self._after_count),
            hurwitz.p2: ("hurwitz.count", None),
            hurwitz.p3_full: ("hurwitz.count", None),
            hurwitz.p3_trans: ("hurwitz.count", None),
            hurwitz.permutations_with_type: (None, self._after_class_scan),
            localization.enumerate_loci: ("localization", self._after_loci),
            cli.run: ("cli", self._after_run),
        }
        plan.update({getattr(hodge, f): ("hodge.series", self._after_hodge_series)
                     for f in HODGE_SERIES})
        plan.update({getattr(localization, f): ("localization", None)
                     for f in LOCALIZATION if f != "enumerate_loci"})
        for module in (admcalc, cli, hodge, hurwitz, localization, series):
            for name, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type) and value in plan:
                    bucket, after = plan[value]
                    short = module.__name__.rsplit(".", 1)[-1]
                    setattr(module, name, self._wrap(value, f"{short}.{name}", bucket, after))
                    self.wrapped.append(f"{short}.{name}")

        cls = series.TruncatedSeries
        mul = self._wrap_binary(cls.__mul__, "TruncatedSeries.__mul__", "series.mul",
                                self._after_mul, cls)
        cls.__mul__ = cls.__rmul__ = mul
        cls.__truediv__ = self._wrap_binary(
            cls.__truediv__, "TruncatedSeries.__truediv__", "series.div",
            self._after_div, cls)
        self.wrapped += ["TruncatedSeries.__mul__", "TruncatedSeries.__rmul__",
                         "TruncatedSeries.__truediv__"]

    def _wrap(self, fn, name, bucket, after):
        if bucket is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._span(fn, name, bucket, after, args, kwargs)
        return spanned

    def _wrap_binary(self, fn, name, bucket, after, cls):
        # Only series-by-series products and quotients are spans; scalar
        # ones stay in the caller's self time.
        @functools.wraps(fn)
        def spanned(a, b):
            if not isinstance(b, cls):
                return fn(a, b)
            return self._span(fn, name, bucket, after, (a, b), {})
        return spanned

    # -- span bookkeeping -------------------------------------------------

    def _span(self, fn, name, bucket, after, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        layer = bucket.split(".")[0]
        if parent is None or parent[1].split(".")[0] != layer:
            self.layer_calls[layer] += 1
        frame = [next(self._ids), bucket, 0.0]
        self._stack.append(frame)
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            error = exc
        end = time.perf_counter()
        self._stack.pop()
        self.self_s[bucket] += (end - start) - frame[2]
        self.spans.append((self.request, frame[0], parent[0] if parent else None,
                           name, start, end))
        if error is not None:
            if fn is self._count and type(error).__name__ == "EnumerationBoundError":
                self.n["hurwitz.bound_refusals"] += 1
        elif after is not None:
            after(args, kwargs, result)
        if parent is not None:
            parent[2] += time.perf_counter() - start
        if error is not None:
            raise error
        return result

    # -- counters ---------------------------------------------------------

    def _note_bits(self, series) -> None:
        self.bits_max = max(self.bits_max, _bits(series))

    def _after_mul(self, args, kwargs, result):
        a, b = args[0].coeffs, args[1].coeffs
        n = len(a) - 1
        nonzero_b = list(itertools.accumulate(1 if c else 0 for c in b))
        terms, slots, zeros = 0, n + 1, 0
        for i, c in enumerate(a):
            if c:
                width, hits = n - i + 1, nonzero_b[n - i]
                terms += hits
                slots += width
                zeros += width - hits
            else:
                zeros += 1
        self.n["series.mul_calls"] += 1
        self.n["series.mul_terms"] += terms
        self.n["series.slots"] += slots
        self.n["series.zero_slots"] += zeros
        self._note_bits(result)

    def _after_div(self, args, kwargs, result):
        f, g = args[0], args[1]
        n = min(f.order, g.order)
        gc = g.coeffs[: n + 1]
        v = next(k for k, c in enumerate(gc) if c)
        gc = gc[v:]
        m = n - v
        terms = zeros = 0
        for i in range(1, m + 1):
            width = m - i + 1
            if gc[i]:
                terms += width
            else:
                zeros += width
        self.n["series.div_calls"] += 1
        self.n["series.div_terms"] += terms
        self.n["series.slots"] += terms + zeros
        self.n["series.zero_slots"] += zeros
        self._note_bits(result)

    def _after_trig(self, args, kwargs, result):
        self._note_bits(result)

    def _after_table(self, args, kwargs, result):
        gmax, degree = result.gmax, result.degree
        before = self._built.get(degree, -1)
        self._built[degree] = max(before, gmax)
        self.n["hodge.table_calls"] += 1
        self.n["hodge.table_rows"] += gmax + 1
        self.n["hodge.table_reused_rows"] += min(gmax, before) + 1

    def _after_hodge_series(self, args, kwargs, result):
        self.n["hodge.series_calls"] += 1

    def _after_count(self, args, kwargs, result):
        profile = args[0] if args else kwargs["profile"]
        d = profile.degree
        types = [t.parts for t in profile.profiles]
        raw = math.prod(class_size(d, parts) for parts in types[:-1])
        self.n["hurwitz.count_calls"] += 1
        self.n["hurwitz.raw_tuples"] += raw
        self.n["hurwitz.hits"] += int(result * math.factorial(d))
        self.n["hurwitz.slots_max"] = max(self.n["hurwitz.slots_max"], len(types))
        if len(types) > WIDE_MAX_POINTS:
            self.n["hurwitz.long_calls"] += 1

    def _after_class_scan(self, args, kwargs, result):
        self.n["hurwitz.class_scan_perms"] += math.factorial(args[0])

    def _after_loci(self, args, kwargs, result):
        self.n["localization.terms"] += len(result)

    def _after_run(self, args, kwargs, result):
        self.n["cli.requests"] += 1
        if result == 2:
            self.n["cli.exit2"] += 1

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        n, s = self.n, self.self_s
        return {
            "series.mul_s": s["series.mul"],
            "series.mul_calls": n["series.mul_calls"],
            "series.mul_terms": n["series.mul_terms"],
            "series.div_s": s["series.div"],
            "series.div_calls": n["series.div_calls"],
            "series.div_terms": n["series.div_terms"],
            "series.trig_s": s["series.trig"],
            "series.coeff_bits_max": self.bits_max,
            "series.zero_coeff_ratio": _ratio(n["series.zero_slots"], n["series.slots"]),
            "hodge.table_s": s["hodge.table"],
            "hodge.table_calls": n["hodge.table_calls"],
            "hodge.table_rows": n["hodge.table_rows"],
            "hodge.table_reuse_ratio": _ratio(n["hodge.table_reused_rows"],
                                              n["hodge.table_rows"]),
            "hodge.series_s": s["hodge.series"],
            "hodge.series_calls": n["hodge.series_calls"],
            "hurwitz.count_s": s["hurwitz.count"],
            "hurwitz.count_calls": n["hurwitz.count_calls"],
            "hurwitz.raw_tuples": n["hurwitz.raw_tuples"],
            "hurwitz.class_scan_perms": n["hurwitz.class_scan_perms"],
            "hurwitz.hit_ratio": _ratio(n["hurwitz.hits"], n["hurwitz.raw_tuples"]),
            "hurwitz.slots_max": n["hurwitz.slots_max"],
            "hurwitz.bound_refusals": n["hurwitz.bound_refusals"],
            "localization.s": s["localization"],
            "localization.calls": self.layer_calls["localization"],
            "localization.terms": n["localization.terms"],
            "cli.self_s": s["cli"],
            "cli.requests": n["cli.requests"],
            "cli.render_bytes": n["cli.render_bytes"],
            "cli.exit2": n["cli.exit2"],
        }

    def properties(self) -> dict[str, float]:
        """Workload shares a later change cites; not timings."""
        n = self.n
        attempts = n["hurwitz.count_calls"] + n["hurwitz.bound_refusals"]
        return {
            "layer_calls": dict(self.layer_calls),
            "hodge.table_reuse_ratio": _ratio(n["hodge.table_reused_rows"],
                                              n["hodge.table_rows"]),
            "hurwitz.long_share": _ratio(n["hurwitz.long_calls"], attempts),
            "refused_share": _ratio(n["cli.exit2"], n["cli.requests"]),
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
