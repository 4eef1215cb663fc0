"""Spans and counts at the public functions of each torsionpoly module.

The tracer wraps module attributes from outside the package, so the program
under test is not edited. Every binding of a wrapped function in a loaded
``torsionpoly`` module is replaced, including names pulled in with
``from .x import name``. Spans stay in memory; ``op_records`` summarises them
per op when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions that get a span (and therefore a self time)
SPANNED = {
    "polys": ("resultant", "sylvester_matrix", "bareiss_det", "exact_div",
              "squarefree_primitive", "gcd_poly"),
    "charvar": ("trace_relation", "geometric_branch", "change_curve_sq"),
    "torsion_sym": ("eliminate_T", "transport_T", "rho0_value"),
    "numfield": ("roots_numeric", "express_in_field", "NumberField.create"),
    "torsion_num": ("riley_solve", "boundaries", "invariant_vector", "basing",
                    "torsion_numeric", "peripheral_torsions"),
    "mplinalg": ("pivot_columns", "nullspace", "det"),
    "pipelines": ("torsion_at", "branch_and_factor", "eliminated_T"),
    "records": ("ingest_knot",),
    "cli": ("make_digest", "cache_load", "cache_store", "render_text",
            "render_json"),
}
# small, very frequent helpers: counted only, their time stays in the caller
COUNTED = {"torsion_num": ("fox_derivative", "adjoint")}

ROOT = "op"
_TERM_SPLIT = re.compile(r" [+-] ")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?")


def text_size(text: str) -> dict:
    """Term count and per-variable degree of a polynomial in the canonical
    text grammar; read from the text so that it survives changes of the
    in-memory representation."""
    degrees: dict = {}
    terms = _TERM_SPLIT.split(text.lstrip("-").strip())
    for term in terms:
        for name, exp in _FACTOR.findall(term):
            degrees[name] = max(degrees.get(name, 0), int(exp or 1))
    return {"terms": len(terms), "degrees": dict(sorted(degrees.items()))}


def _digits_getter(fn):
    """Return a function reading the ``digits`` argument of a call to fn, or
    None when fn takes no such argument."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    if "digits" not in names:
        return None
    pos = names.index("digits")
    default = params[pos].default

    def get(args, kwargs):
        if "digits" in kwargs:
            return kwargs["digits"]
        return args[pos] if len(args) > pos else default
    return get


class Tracer:
    """Records spans ``[name, op, start, end, parent, digits]`` and counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(Counter)          # op -> name -> calls
        self.resultant_inputs = defaultdict(set)    # op -> distinct (p, q, var)
        self.escalations = Counter()                # op -> count
        self.cache_hits = Counter()                 # op -> count
        self.sylvester_dims = set()
        self.chain_shapes = set()
        self.eliminants = {}                        # text -> (function, size)
        self._patches = []
        self._to_text = None

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, op_id, perf_counter(), 0.0, None, None])

    def end_op(self):
        self.spans[self.stack.pop()][3] = perf_counter()
        self.op = None

    # -- wrapping ------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        tracer = self
        digits_of = _digits_getter(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, tracer.op, 0.0, 0.0, stack[-1] if stack else None,
                   digits_of(args, kwargs) if digits_of else None]
            if name == "numfield.roots_numeric":
                tracer._note_escalation(rec)
            elif name == "polys.resultant":
                tracer._note_resultant(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.op][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_escalation(self, rec):
        # nearest enclosing span that was asked for a number of digits
        parent = rec[4]
        while parent is not None and self.spans[parent][5] is None:
            parent = self.spans[parent][4]
        if parent is not None and rec[5] is not None \
                and rec[5] > self.spans[parent][5]:
            self.escalations[self.op] += 1

    def _note_resultant(self, args, kwargs):
        key = tuple(args) + tuple(sorted(kwargs.items()))
        try:
            hash(key)
        except TypeError:
            key = repr(key)
        self.resultant_inputs[self.op].add(key)

    def _after(self, name):
        if name == "polys.sylvester_matrix":
            return lambda rows: self.sylvester_dims.add(len(rows))
        if name == "torsion_num.boundaries":
            return lambda d: self.chain_shapes.add(
                tuple((m.rows, m.cols) for m in d))
        if name == "cli.cache_load":
            def hit(report):
                if report is not None:
                    self.cache_hits[self.op] += 1
            return hit
        if name in ("charvar.trace_relation", "torsion_sym.eliminate_T",
                    "torsion_sym.transport_T"):
            def size(out):
                text = self._to_text(out.poly)
                self.eliminants.setdefault(text, (name, text_size(text)))
            return size
        return None

    def install(self):
        """Wrap every target in the loaded torsionpoly package."""
        import torsionpoly.cli  # noqa: F401  (loads every traced module)
        self._to_text = sys.modules["torsionpoly.polys"].to_text
        replace = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for short, names in table.items():
                mod = sys.modules[f"torsionpoly.{short}"]
                for attr in names:
                    name = f"{short}.{attr}"
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name)
                        raw = cls.__dict__[meth]
                        wrapped = self._spanned(name, raw.__func__, self._after(name))
                        self._patches.append((cls, meth, raw))
                        setattr(cls, meth, classmethod(wrapped))
                        continue
                    fn = getattr(mod, attr)
                    replace[id(fn)] = (fn, self._spanned(name, fn, self._after(name))
                                       if spanned else self._counted(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "torsionpoly"
                                   or mod_name.startswith("torsionpoly.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- summaries -----------------------------------------------------------

    def op_records(self) -> dict:
        """Per op: calls and self time (s) per span name, the resultant's
        calls and distinct inputs, precision escalations and cache hits."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out = {}
        for i, (name, op, start, end, _, _) in enumerate(self.spans):
            rec = out.get(op)
            if rec is None:
                rec = out[op] = {"calls": Counter(), "self_s": Counter()}
            rec["calls"][name] += 1
            rec["self_s"][name] += end - start - child[i]
        for op, rec in out.items():
            rec["calls"].update(self.counts.get(op, {}))
            rec["resultant_distinct"] = len(self.resultant_inputs.get(op, ()))
            rec["escalations"] = self.escalations.get(op, 0)
            rec["cache_hits"] = self.cache_hits.get(op, 0)
        return out

    def sizes(self) -> dict:
        return {
            "sylvester_dims": sorted(self.sylvester_dims),
            "chain_matrix_shapes": [
                {"d1": f"{a[0]}x{a[1]}", "d2": f"{b[0]}x{b[1]}"}
                for a, b in sorted(self.chain_shapes)],
            "eliminants": [dict(function=fn, **size)
                           for fn, size in self.eliminants.values()],
        }

    def span_rows(self):
        """Spans as plain rows for writing out: name, op, start and end (s
        relative to the first span) and the parent's index."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [[s[0], s[1], s[2] - t0, s[3] - t0, s[4]] for s in self.spans]
