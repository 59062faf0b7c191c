"""JSON schemas for the toolkit's data types.

Rationals are serialized as strings "p/q" (denominator always present) so
every JSON implementation round-trips them losslessly, and are read back only
in that form, -?[0-9]+/-?[0-9]+ in ASCII digits with q != 0.  A polynomial is
read and written as integer numerators over one denominator.  All polynomials
of one field (spectral coefficients, element coordinates, twisted u/v pairs,
a cover's f) are read in one pass: one join, one pattern match, one int()
sweep.  Anything irregular goes to the per-item loaders, which only word the
refusal, formatting its message then, with the path of the offending entry.
Round-trips are bit-exact.  Each loader imports the library modules it
builds from when it runs, so the command line can import this module
without them.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from itertools import accumulate, chain, repeat
from math import gcd, lcm

# Largest genus a descriptor may have: a component kernel is at most 2g
# Hermite rows of width 2g, so g is refused up front, before any allocation.
MAX_GENUS = 64
_INT = re.compile(r"-?[0-9]+", re.ASCII)    # one part of a rational "p/q"
_FIELD = re.compile(r"-?[0-9]+/-?[0-9]+(?:,-?[0-9]+/-?[0-9]+)*", re.ASCII)  # joined by ","


class SchemaError(ValueError):
    """Malformed input document; carries the path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, message: str, *args):
    """Unless cond, raise message.format(*args), formatted only then."""
    if not cond:
        raise SchemaError(path, message.format(*args))


def _expect_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), path,
             "expected an integer, got {!r}", value)
    return value


def _expect_list(value, path: str) -> list:
    _require(isinstance(value, list), path, "expected a list, got {.__name__}", type(value))
    return value


def _expect_dict(value, path: str) -> dict:
    _require(isinstance(value, dict), path, "expected an object, got {.__name__}", type(value))
    return value


def _expect_key(obj: dict, key: str, path: str):
    _require(key in obj, path, "missing required field '{}'", key)
    return obj[key]


def _each(items: list, path: str, load) -> list:
    """[load(item, path[i]) for each item i], path[i] formatted only after a
    failure: the pure loaders then run again, each item at its own path."""
    try:
        return [load(item, path) for item in items]
    except SchemaError:
        for i, item in enumerate(items):
            load(item, f"{path}[{i}]")
        raise


# -- rationals ------------------------------------------------------------

def _ratio(value, path: str) -> tuple[int, int]:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a rational string 'p/q', got {value!r}")
    p, slash, q = value.partition("/")
    if not slash or "/" in q:
        raise SchemaError(path, f"rational {value!r} is not of the form 'p/q'")
    if not (_INT.fullmatch(p) and _INT.fullmatch(q)):
        raise SchemaError(path, f"rational {value!r} has non-integer parts")
    try:
        num, den = int(p), int(q)
    except ValueError:  # a digit string past the interpreter's limit
        raise SchemaError(path, f"rational {value!r} has non-integer parts") from None
    if not den:
        raise SchemaError(path, "rational has zero denominator")
    return num, den


@contextmanager
def any_digits():
    """Lift the interpreter's limit on the digits of an int-to-str
    conversion (Python 3.11 and later) and restore it afterwards: a report
    writes integers of any size, while input stays refused past the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


# -- polynomials ----------------------------------------------------------

def poly_to_json(p: Poly) -> list[str]:
    den = p.denom
    try:
        return [f"{c // g}/{den // g}" for c in p.ints for g in (gcd(c, den),)]
    except ValueError:      # a numerator past the interpreter's digit limit
        with any_digits():
            return poly_to_json(p)


def _rationals(value, path: str) -> list:
    """One polynomial's entries, each read by the per-item loader."""
    return _each(_expect_list(value, path), path, _ratio)


def _polys(rows: list, refuse) -> list:
    """The Poly of each row of rational strings, all rows read in one pass;
    refuse(), which runs the per-item loaders to raise, on a row that is no
    list, an entry that is no str or not of the form (the count of '/' rules
    out a comma inside one), a zero q or a digit string past the limit."""
    from . import polynomials

    _poly = polynomials._poly
    if not all(map(isinstance, rows, repeat(list))):
        return refuse()
    try:
        text = ",".join(chain.from_iterable(rows))
    except TypeError:
        return refuse()
    count = text.count("/")
    if count != sum(map(len, rows)) or count and not _FIELD.fullmatch(text):
        return refuse()
    try:
        ints = list(map(int, text.replace("/", ",").split(","))) if count else []
    except ValueError:
        return refuse()
    nums, dens = ints[::2], ints[1::2]
    ends = list(accumulate(map(len, rows)))
    spans = zip([0, *ends], ends)
    if dens.count(1) == count:      # every q is 1; lcm 1 is not enough: "3/-1" is -3
        return [_poly(nums[i:j], 1) for i, j in spans]
    if 0 in dens:
        return refuse()
    return [_poly([n * (m // e) for n, e in zip(nums[i:j], dens[i:j])], m)
            for i, j in spans for m in (lcm(*dens[i:j]),)]


def poly_from_json(value, path: str) -> Poly:
    return _polys([value], lambda: _rationals(value, path))[0]


def spectral_to_json(s: SpectralPoly) -> dict:
    return {"n": s.n, "deg_m": s.deg_m,
            "coeffs": [poly_to_json(a) for a in s.coeffs]}


def spectral_from_json(value, path: str = "$") -> SpectralPoly:
    from . import norms

    obj = _expect_dict(value, path)
    n = _expect_int(_expect_key(obj, "n", path), f"{path}.n")
    deg_m = _expect_int(_expect_key(obj, "deg_m", path), f"{path}.deg_m")
    coeffs = _expect_list(_expect_key(obj, "coeffs", path), f"{path}.coeffs")
    _require(len(coeffs) == n, f"{path}.coeffs", "expected {} coefficients", n)
    return norms.SpectralPoly(n, deg_m, tuple(
        _polys(coeffs, lambda: _each(coeffs, f"{path}.coeffs", _rationals))))


def element_from_json(parent: SpectralPoly, value, path: str = "$") -> AlgebraElement:
    from . import norms

    items = _expect_list(value, path)
    _require(len(items) == parent.n, path, "expected {} coordinates", parent.n)
    return norms.AlgebraElement(
        parent, tuple(_polys(items, lambda: _each(items, path, _rationals))))


# -- descriptors ----------------------------------------------------------

def descriptor_from_json(value, path: str = "$") -> SpectralCoverDescriptor:
    from . import abelian, spectral

    obj = _expect_dict(value, path)
    n = _expect_int(_expect_key(obj, "n", path), f"{path}.n")
    g = _expect_int(_expect_key(obj, "g", path), f"{path}.g")
    _require(1 <= g <= MAX_GENUS, f"{path}.g", "genus must lie in 1..{}", MAX_GENUS)
    comps_raw = _expect_list(_expect_key(obj, "components", path), f"{path}.components")
    rank = 2 * g

    def row_from_json(row, rp: str) -> list:
        _require(len(_expect_list(row, rp)) == rank, rp, "expected {} entries", rank)
        return _each(row, rp, _expect_int)

    def component_from_json(raw, cp: str) -> ComponentData:
        cobj = _expect_dict(raw, cp)
        degree, mult, modulus = (_expect_int(_expect_key(cobj, key, cp), f"{cp}.{key}")
                                 for key in ("degree", "multiplicity", "kernel_modulus"))
        gp = f"{cp}.kernel_generators"
        gens_raw = _expect_list(_expect_key(cobj, "kernel_generators", cp), gp)
        _require(modulus >= 1, f"{cp}.kernel_modulus", "modulus must be >= 1")
        kernel = abelian.subgroup_from_generators(abelian.TorsionAmbient(g, modulus),
                                                  _each(gens_raw, gp, row_from_json))
        return spectral.ComponentData(degree, mult, kernel)

    comps = _each(comps_raw, f"{path}.components", component_from_json)
    return spectral.SpectralCoverDescriptor(n, g, tuple(comps))


# -- double covers and twisted polynomials --------------------------------

def cover_to_json(cover: DoubleCoverData) -> dict:
    return {"f": poly_to_json(cover.f)}


def cover_from_json(value, path: str = "$", known=None) -> DoubleCoverData:
    """y^2 = f; the cover known, already checked, when its f is this f."""
    from . import covers

    obj = _expect_dict(value, path)
    f = poly_from_json(_expect_key(obj, "f", path), f"{path}.f")
    return known if known is not None and known.f == f else covers.DoubleCoverData(f)


def twisted_to_json(tw: TwistedSpectralPoly) -> dict:
    return {"m": tw.m, "deg_m": tw.deg_m, "cover": cover_to_json(tw.cover),
            "pairs": [{"u": poly_to_json(u), "v": poly_to_json(v)}
                      for u, v in tw.pairs]}


def twisted_from_json(value, path: str = "$", known=None) -> TwistedSpectralPoly:
    from . import covers

    obj = _expect_dict(value, path)
    m = _expect_int(_expect_key(obj, "m", path), f"{path}.m")
    deg_m = _expect_int(_expect_key(obj, "deg_m", path), f"{path}.deg_m")
    cover = cover_from_json(_expect_key(obj, "cover", path), f"{path}.cover", known)
    pairs_raw = _expect_list(_expect_key(obj, "pairs", path), f"{path}.pairs")
    _require(len(pairs_raw) == m, f"{path}.pairs", "expected {} coefficient pairs", m)

    def pair_from_json(raw, pp: str):
        pobj = _expect_dict(raw, pp)
        for k in "uv":
            _rationals(_expect_key(pobj, k, pp), f"{pp}.{k}")

    # a pair that is no object with u and v gives a None row, which is refused
    rows = [raw.get(k) if isinstance(raw, dict) else None for raw in pairs_raw for k in "uv"]
    polys = _polys(rows, lambda: _each(pairs_raw, f"{path}.pairs", pair_from_json))
    return covers.TwistedSpectralPoly(cover, m, deg_m, tuple(zip(polys[::2], polys[1::2])))
