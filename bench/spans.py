"""Span tracer that wraps prymkit's public functions from outside.

Each wrapped call records a span (name, start, end, parent, op id) in memory.
A function imported elsewhere with ``from .x import y`` is rebound in every
prymkit module that holds it; methods and sympy entry points are patched on
their classes.  ``uninstall`` puts every original back; ``install`` can then run again.

Span names are ``<layer>.<function>``.  A layer's self time is the time its
spans cover minus the time their child spans cover.  Time the library spends
in code that is not wrapped (Poly arithmetic inside the Bareiss loop, sympy
expression building inside covers) counts to the nearest wrapped caller.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

FUNCTIONS = {
    "serialize": {
        "descriptor_from_json": "from_json", "spectral_from_json": "from_json",
        "element_from_json": "from_json", "cover_from_json": "from_json",
        "twisted_from_json": "from_json", "poly_to_json": "to_json",
        "spectral_to_json": "to_json", "twisted_to_json": "to_json",
    },
    "spectral": ["ambient_modulus", "prym_component_group", "pi0_prym",
                 "phi_surjection", "is_cn_cover", "endoscopy_report"],
    "abelian": ["hermite_normal_form", "smith_normal_form", "left_kernel",
                "intersect", "preimage_mul", "structure",
                "subgroup_from_generators", "dual_of_inclusion", "dual_group"],
    "polynomials": ["resultant", "yun_squarefree", "tpoly_over_ratfunc",
                    "tpoly_to_poly_coeffs"],
    "norms": ["mul_matrix", "poly_matrix_det", "norm_element",
              "norm_resultant_oracle", "spectral_mul", "spectral_pow"],
    "covers": ["squarefree_decompose", "galois_pushforward", "pullback_splits"],
}

METHODS = {
    "abelian": {"TorsionSubgroup": ["order", "contains", "is_subgroup_of", "embed"],
                "TorsionAmbient": ["full_subgroup", "trivial_subgroup",
                                   "torsion_subgroup"],
                "GroupHom": ["kernel"]},
}

LAYERS = ["cli", "serialize", "spectral", "abelian", "polynomials", "norms",
          "covers", "sympy"]


def coeff_bits(obj) -> int:
    """Largest bit size of a numerator or denominator in a result."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if isinstance(obj, (list, tuple)):
        return max((coeff_bits(o) for o in obj), default=0)
    if hasattr(obj, "num") and hasattr(obj, "den"):        # RatFunc
        return max(coeff_bits(obj.num), coeff_bits(obj.den))
    if hasattr(obj, "coeffs"):                             # Poly, TPoly
        return coeff_bits(obj.coeffs)
    return 0


def _snf_bits(result) -> int:
    u, _d, v = result
    return coeff_bits(u.entries + v.entries)


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()        # (op, counter) -> events
        self.bits: dict = defaultdict(int)      # span name -> max result bits
        self.accepted: dict[int, bool] = {}     # pullback_splits span -> witness?
        self._pending: list = []
        self._patches: list = []               # (object, attr, new, old, had)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None, sympy_entry: bool = False):
        names, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter
        pending = self._pending

        def traced(*args, **kwargs):
            # sympy calls itself a lot; only its entries from our code count
            if sympy_entry and stack and names[stack[-1]].startswith("sympy."):
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                pending.append((after, result, i))
            return result

        traced.__wrapped__ = fn
        return traced

    def finish_op(self):
        """Evaluate result sizes outside every span, once the op is over."""
        for after, result, i in self._pending:
            after(self, result, i)
        self._pending.clear()
        self.stack.clear()

    # -- installing --------------------------------------------------------

    def _set(self, obj, attr, value):
        had = attr in vars(obj)
        self._patches.append((obj, attr, value, vars(obj).get(attr), had))

    def _rebind(self, module, attr, name, after=None):
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, after)
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if (mname == "prymkit" or mname.startswith("prymkit.")) \
                    and vars(mod).get(attr) is orig:
                self._set(mod, attr, wrapped)

    def _patch_method(self, cls, attr, name, after=None, sympy_entry=False):
        orig = vars(cls).get(attr)
        if orig is None:                       # inherited: shadow it here
            orig = getattr(cls, attr)
        if isinstance(orig, property):
            new = property(self.wrap(name, orig.fget, after, sympy_entry))
        elif isinstance(orig, staticmethod):
            new = staticmethod(self.wrap(name, orig.__func__, after, sympy_entry))
        else:
            new = self.wrap(name, orig, after, sympy_entry)
        self._set(cls, attr, new)

    def _count(self, cls, attr, counter):
        orig = vars(cls)[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op_id, counter)] += 1
            return orig(*args, **kwargs)

        self._set(cls, attr, counted)

    def install(self):
        """Put the wrappers in place; the first call builds them."""
        if not self._patches:
            self._build()
        for obj, attr, new, _old, _had in self._patches:
            setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, _new, old, had in reversed(self._patches):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    def _build(self):
        import importlib

        import sympy
        from sympy.polys.domains import AlgebraicField
        from sympy.polys.polytools import Poly as SympyPoly

        afters = {
            "abelian.smith_normal_form": lambda t, r, i: t._max_bits(i, _snf_bits(r)),
            "polynomials.resultant": lambda t, r, i: t._max_bits(i, coeff_bits(r)),
            "polynomials.yun_squarefree":
                lambda t, r, i: t._max_bits(i, coeff_bits([q for q, _ in r])),
            "norms.poly_matrix_det": lambda t, r, i: t._max_bits(i, coeff_bits(r)),
            "covers.pullback_splits":
                lambda t, r, i: t.accepted.__setitem__(i, r is not None),
        }
        for layer, funcs in FUNCTIONS.items():
            module = importlib.import_module(f"prymkit.{layer}")
            groups = funcs if isinstance(funcs, dict) else {f: f for f in funcs}
            for attr, short in groups.items():
                name = f"{layer}.{short}"
                self._rebind(module, attr, name, afters.get(name))
        for layer, classes in METHODS.items():
            module = importlib.import_module(f"prymkit.{layer}")
            for cls_name, attrs in classes.items():
                for attr in attrs:
                    self._patch_method(getattr(module, cls_name), attr,
                                       f"{layer}.{cls_name}.{attr}")
        polynomials = importlib.import_module("prymkit.polynomials")
        self._count(polynomials.RatFunc, "__init__", "polynomials.RatFunc.constructed")

        for attr in ("__new__", "sqf_list", "factor_list"):
            short = "Poly" if attr == "__new__" else attr
            self._patch_method(SympyPoly, attr, f"sympy.{short}", sympy_entry=True)
        for attr in ("algebraic_field", "frac_field"):
            self._patch_method(type(sympy.QQ), attr, f"sympy.{attr}",
                               sympy_entry=True)
        self._patch_method(AlgebraicField, "from_sympy", "sympy.from_sympy",
                           sympy_entry=True)
        for attr in ("cancel", "sympify"):
            self._set(sympy, attr, self.wrap(f"sympy.{attr}", getattr(sympy, attr),
                                             sympy_entry=True))

    def _max_bits(self, i: int, bits: int):
        key = self.name[i]
        self.bits[key] = max(self.bits[key], bits)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """(inclusive, self) seconds of every span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def check_partition(self) -> str | None:
        """Every span closes inside its parent, each op has one root span,
        and the self times of an op's spans add up to its root span."""
        dur, own = self.durations()
        roots: dict[int, int] = {}
        total: dict[int, float] = defaultdict(float)
        for i, p in enumerate(self.parent):
            if self.end[i] < self.start[i]:
                return f"span {i} ({self.name[i]}) ends before it starts"
            if p < 0:
                if self.op[i] in roots:
                    return f"op {self.op[i]} has two root spans"
                roots[self.op[i]] = i
            elif not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                return f"span {i} ({self.name[i]}) leaves its parent"
            total[self.op[i]] += own[i]
        for op_id, r in roots.items():
            if abs(total[op_id] - dur[r]) > 1e-6:
                return f"op {op_id}: self times sum to {total[op_id]}, span is {dur[r]}"
        return None

    def op_counts(self) -> dict[int, Counter]:
        """Per op: calls of each span name and events of each counter."""
        out: dict[int, Counter] = defaultdict(Counter)
        for name, op_id in zip(self.name, self.op):
            out[op_id][name] += 1
        for (op_id, counter), n in self.counts.items():
            out[op_id][counter] += n
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write(json.dumps(row) + "\n")

    def summary(self, scales: list[float]) -> dict:
        """Totals per span name and per layer; the seconds of op i are
        multiplied by scales[i]."""
        dur, own = self.durations()
        dur = [d * scales[o] for d, o in zip(dur, self.op)]
        own = [d * scales[o] for d, o in zip(own, self.op)]
        calls: Counter = Counter(self.name)
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)
        layer_s: dict = defaultdict(float)
        for i, name in enumerate(self.name):
            self_s[name] += own[i]
            layer_s[name.split(".", 1)[0]] += own[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != name:
                p = self.parent[p]
            if p < 0:                     # outermost call of this name
                incl_s[name] += dur[i]
        accept_s = sum(dur[i] for i, ok in self.accepted.items() if ok)
        reject_s = sum(dur[i] for i, ok in self.accepted.items() if not ok)
        events = Counter()
        for (_op, counter), n in self.counts.items():
            events[counter] += n
        return {"calls": calls, "self_s": self_s, "incl_s": incl_s,
                "layer_s": layer_s, "bits": self.bits, "events": events,
                "accept_s": accept_s, "reject_s": reject_s}
