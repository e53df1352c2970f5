"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced name where its caller looks it up
(for example ``avchow.quotient.buchberger``, which ``QuotientRing`` calls,
rather than only ``avchow.groebner.buchberger``) with a wrapper that
records a span: its calls and its self time, which is the span's duration
minus the time its child spans cover.  No file of the package changes.
Spans are timed with the calling thread's CPU clock, so self time is time
busy: on the thread pool of ``avchow verify`` a check's time does not
include waiting for the interpreter lock.
A name that no longer exists is reported as absent instead of failing, so
the package's internals can be renamed without breaking the benchmark.
"""

import importlib
import statistics
import threading
from time import thread_time

# The catalog's rings, listed here rather than read from the package so that
# the per-layer metric names stay fixed while the package changes.
RING_NAMES = (
    "a1_tilde",
    "a2_tilde",
    "a2_tilde_2gen",
    "a2_partial",
    "a3_tilde",
    "a3_taut",
    "a3_partial",
    "lambda1_quartic",
    "x2_tilde",
)

# Traced layer, the names it is looked up under, and which end-to-end
# metrics on which workloads it should move.
LAYERS = (
    ("cli.main", ("avchow.cli:main",), "verify-cold op_p50_ms; with import.avchow_s, setup_s on every workload"),
    (
        "groebner.buchberger",
        ("avchow.quotient:buchberger", "avchow.groebner:buchberger"),
        "spec-load ops_per_s and op_p50_ms, verify-cold op_p50_ms; on calc-warm only setup_s",
    ),
    (
        "groebner.reduce",
        ("avchow.groebner:reduce",),
        "in_buchberger as groebner.buchberger; in_normal_form as quotient.normal_form",
    ),
    (
        "quotient.normal_form",
        ("avchow.quotient:QuotientRing.normal_form",),
        "calc-warm ops_per_s, op_p50_ms and op_tail_ms, verify-cold checks; little change on spec-load",
    ),
    (
        "poly.mul",
        ("avchow.poly:Polynomial.__mul__", "avchow.poly:Polynomial.__rmul__"),
        "as quotient.normal_form",
    ),
    (
        "quotient.standard_monomials",
        ("avchow.quotient:QuotientRing.standard_monomials",),
        "as quotient.normal_form",
    ),
    (
        "quotient.degree",
        ("avchow.quotient:DegreeFunctional.degree", "avchow.quotient:DegreeFunctional.__call__"),
        "calc-warm op_tail_ms, verify-cold op_p50_ms",
    ),
    ("quotient.pairing_matrix", ("avchow.quotient:DegreeFunctional.pairing_matrix",), "as quotient.degree"),
    ("quotient.solve_class", ("avchow.quotient:DegreeFunctional.solve_class",), "as quotient.degree"),
    ("linalg.det_exact", ("avchow.catalog:det_exact", "avchow.linalg:det_exact"), "as quotient.degree"),
    ("linalg.solve_exact", ("avchow.quotient:solve_exact", "avchow.linalg:solve_exact"), "as quotient.degree"),
    (
        "exprparse.parse_expression",
        (
            "avchow.exprparse:parse_expression",
            "avchow.ringspec:parse_expression",
            "avchow.catalog:parse_expression",
            "avchow.cli:parse_expression",
            "avchow:parse_expression",
        ),
        "calc-warm op_p50_ms, spec-load ops_per_s",
    ),
    (
        "ringspec.load_ring_spec",
        (
            "avchow.ringspec:load_ring_spec",
            "avchow.catalog:load_ring_spec",
            "avchow.cli:load_ring_spec",
            "avchow:load_ring_spec",
        ),
        "calc-warm op_p50_ms, spec-load ops_per_s",
    ),
    ("pushforward.relative", ("avchow.pushforward:RelativeRing.pushforward",), "calc-warm"),
    ("pushforward.tabulated", ("avchow.pushforward:TabulatedPushforward.push_combination",), "calc-warm"),
    ("catalog.checks", ("avchow.catalog:Catalog.checks",), "verify-cold"),
    ("verify.check", ("avchow.verify:Check.run",), "verify-cold"),
    (
        "verify.render",
        ("avchow.verify:VerificationReport.to_text", "avchow.verify:VerificationReport.to_json"),
        "verify-cold",
    ),
)

# Hooks that record context for the spans above but are no spans themselves.
HOOKS = (
    ("ring", "avchow.quotient:QuotientRing.__init__"),
    ("s_polynomial", "avchow.groebner:s_polynomial"),
)


def _lookup(site):
    """(owner, attribute, current value) for "module:Class.attr", or None if absent."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attribute, None)
    if value is None or not callable(value):
        return None
    return owner, attribute, value


class _ThreadStats(threading.local):
    """Open spans and context of one thread."""

    def __init__(self):
        self.stack = []  # child time accumulated by each open span
        self.ring = None
        self.buchberger_depth = 0
        self.last_s_polynomial = None


class Tracer:
    """In-memory span statistics; totals are merged over threads at the end."""

    def __init__(self):
        self._local = _ThreadStats()
        self._lock = threading.Lock()
        self._tables = []
        self.absent = []

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = empty_totals()
            with self._lock:
                self._tables.append(table)
        return table

    def install(self):
        """Wrap every traced name that exists; remember the absent ones."""
        for layer, sites, _ in LAYERS:
            found = [hit for hit in map(_lookup, sites) if hit is not None]
            if not found:
                self.absent.append(layer)
            for owner, attribute, value in found:
                setattr(owner, attribute, self._span(layer, value))
        for hook, site in HOOKS:
            hit = _lookup(site)
            if hit is None:
                self.absent.append(hook)
                continue
            owner, attribute, value = hit
            setattr(owner, attribute, getattr(self, "_hook_" + hook)(value))

    def _span(self, layer, function):
        local = self._local

        def wrapper(*args, **kwargs):
            table = self._table()
            name = layer
            if layer == "groebner.reduce":
                name = "groebner.reduce.in_buchberger" if local.buchberger_depth else "groebner.reduce.in_normal_form"
            elif layer == "groebner.buchberger":
                local.buchberger_depth += 1
            elif layer == "quotient.normal_form" and len(args) > 1:
                table["nf_terms_in"] += len(args[1])
            local.stack.append(0.0)
            start = thread_time()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                children = local.stack.pop()
                if local.stack:
                    local.stack[-1] += elapsed
                table["calls"][name] = table["calls"].get(name, 0) + 1
                table["self_s"][name] = table["self_s"].get(name, 0.0) + elapsed - children
                if layer == "groebner.buchberger":
                    local.buchberger_depth -= 1
                    ring = f"groebner.buchberger.{local.ring}_s"
                    table["ring_s"][ring] = table["ring_s"].get(ring, 0.0) + elapsed
                elif layer == "verify.check":
                    table["check_s"].append([elapsed, getattr(args[0], "id", "?")])
            if name == "groebner.reduce.in_buchberger" and args and args[0] is local.last_s_polynomial:
                table["s_pairs"] += 1
                table["s_pairs_zero"] += result.is_zero
            return result

        return wrapper

    def _hook_ring(self, init):
        local = self._local

        def wrapper(ring, presentation, *args, **kwargs):
            outer = local.ring
            local.ring = getattr(presentation, "name", None)
            try:
                return init(ring, presentation, *args, **kwargs)
            finally:
                local.ring = outer

        return wrapper

    def _hook_s_polynomial(self, function):
        local = self._local

        def wrapper(*args, **kwargs):
            local.last_s_polynomial = function(*args, **kwargs)
            return local.last_s_polynomial

        return wrapper

    def totals(self):
        """Merged raw statistics of every thread, as plain JSON data."""
        merged = empty_totals()
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            add_totals(merged, dict(table, absent=self.absent))
        return merged


def add_totals(into, totals):
    """Add one ``Tracer.totals()`` result into another."""
    for key in ("calls", "self_s", "ring_s"):
        for name, value in totals[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for key in ("s_pairs", "s_pairs_zero", "nf_terms_in"):
        into[key] += totals[key]
    into["check_s"].extend(totals["check_s"])
    into["absent"] = sorted(set(into.get("absent", [])) | set(totals["absent"]))
    return into


def empty_totals():
    """Statistics of no spans, in the form ``Tracer.totals()`` returns."""
    return {"calls": {}, "self_s": {}, "ring_s": {}, "s_pairs": 0, "s_pairs_zero": 0, "nf_terms_in": 0, "check_s": [], "absent": []}


def span_names():
    """Every span a run can report, in report order."""
    names = []
    for layer, _, _ in LAYERS:
        if layer == "groebner.reduce":
            names += ["groebner.reduce.in_buchberger", "groebner.reduce.in_normal_form"]
        else:
            names.append(layer)
    return names


def per_layer_metrics(totals, ops):
    """Per-layer metrics, per op of the traced loop: {name: (value, unit)}.

    Metrics of an absent layer are left out.
    """
    absent = set(totals["absent"])
    metrics = {}
    for name in span_names():
        layer = "groebner.reduce" if name.startswith("groebner.reduce.") else name
        if layer in absent:
            continue
        metrics[name + ".calls"] = (totals["calls"].get(name, 0) / ops, "calls/op")
        metrics[name + ".self_s"] = (totals["self_s"].get(name, 0.0) / ops, "s/op")
        if name == "groebner.buchberger" and "ring" not in absent:
            for ring in RING_NAMES:
                key = f"groebner.buchberger.{ring}_s"
                metrics[key] = (totals["ring_s"].get(key, 0.0) / ops, "s/op")
        elif name == "groebner.reduce.in_buchberger" and "s_polynomial" not in absent:
            pairs = totals["s_pairs"]
            metrics[name + ".zero_ratio"] = (totals["s_pairs_zero"] / pairs if pairs else 0.0, "ratio")
        elif name == "quotient.normal_form":
            calls = totals["calls"].get(name, 0)
            metrics[name + ".terms_in_mean"] = (totals["nf_terms_in"] / calls if calls else 0.0, "terms")
        elif name == "verify.check":
            checks = [elapsed for elapsed, _ in totals["check_s"]]
            metrics[name + ".p50_ms"] = (statistics.median(checks) * 1e3 if checks else 0.0, "ms")
            metrics[name + ".max_ms"] = (max(checks) * 1e3 if checks else 0.0, "ms")
    return metrics
