"""JSON schemas for the toolkit's data types.

Rationals are serialized as strings "p/q" (denominator always present) so
every JSON implementation round-trips them losslessly, and are read back only
in that form, -?[0-9]+/-?[0-9]+ in ASCII digits with q != 0; all loaders
report failures with the path of the offending field.  Round-trips are bit-exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .abelian import IntMatrix, TorsionAmbient, subgroup_from_generators
from .covers import DoubleCoverData, TwistedSpectralPoly
from .norms import AlgebraElement, SpectralPoly
from .polynomials import Poly
from .spectral import ComponentData, SpectralCoverDescriptor

# Largest genus a descriptor may have: a component kernel is a 2g x 2g
# Hermite form, so g is refused up front instead of allocating for it.
MAX_GENUS = 64


class SchemaError(ValueError):
    """Malformed input document; carries the path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _expect_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), path,
             f"expected an integer, got {value!r}")
    return value


def _expect_list(value, path: str) -> list:
    _require(isinstance(value, list), path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_dict(value, path: str) -> dict:
    _require(isinstance(value, dict), path,
             f"expected an object, got {type(value).__name__}")
    return value


def _expect_key(obj: dict, key: str, path: str):
    _require(key in obj, path, f"missing required field '{key}'")
    return obj[key]


# -- rationals ------------------------------------------------------------

def rational_to_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def rational_from_json(value, path: str) -> Fraction:
    _require(isinstance(value, str), path,
             f"expected a rational string 'p/q', got {value!r}")
    parts = value.split("/")
    _require(len(parts) == 2, path, f"rational {value!r} is not of the form 'p/q'")
    _require(all(re.fullmatch(r"-?[0-9]+", p) for p in parts), path,
             f"rational {value!r} has non-integer parts")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:  # a digit string past the interpreter's limit
        raise SchemaError(path, f"rational {value!r} has non-integer parts") from None
    _require(den != 0, path, "rational has zero denominator")
    return Fraction(num, den)


# -- polynomials ----------------------------------------------------------

def poly_to_json(p: Poly) -> list[str]:
    return [rational_to_json(c) for c in p.coeffs]


def poly_from_json(value, path: str) -> Poly:
    items = _expect_list(value, path)
    return Poly([rational_from_json(c, f"{path}[{i}]") for i, c in enumerate(items)])


def spectral_to_json(s: SpectralPoly) -> dict:
    return {"n": s.n, "deg_m": s.deg_m,
            "coeffs": [poly_to_json(a) for a in s.coeffs]}


def spectral_from_json(value, path: str = "$") -> SpectralPoly:
    obj = _expect_dict(value, path)
    n = _expect_int(_expect_key(obj, "n", path), f"{path}.n")
    deg_m = _expect_int(_expect_key(obj, "deg_m", path), f"{path}.deg_m")
    coeffs = _expect_list(_expect_key(obj, "coeffs", path), f"{path}.coeffs")
    _require(len(coeffs) == n, f"{path}.coeffs", f"expected {n} coefficients")
    polys = tuple(poly_from_json(c, f"{path}.coeffs[{i}]")
                  for i, c in enumerate(coeffs))
    return SpectralPoly(n, deg_m, polys)


def element_to_json(u: AlgebraElement) -> list[list[str]]:
    return [poly_to_json(c) for c in u.coords]


def element_from_json(parent: SpectralPoly, value, path: str = "$") -> AlgebraElement:
    items = _expect_list(value, path)
    _require(len(items) == parent.n, path, f"expected {parent.n} coordinates")
    coords = tuple(poly_from_json(c, f"{path}[{i}]") for i, c in enumerate(items))
    return AlgebraElement(parent, coords)


# -- descriptors ----------------------------------------------------------

def descriptor_to_json(desc: SpectralCoverDescriptor) -> dict:
    comps = []
    for c in desc.components:
        comps.append({
            "degree": c.degree,
            "multiplicity": c.multiplicity,
            "kernel_modulus": c.kernel.ambient.M,
            "kernel_generators": c.kernel.generators.to_rows(),
        })
    return {"n": desc.n, "g": desc.g, "components": comps}


def descriptor_from_json(value, path: str = "$") -> SpectralCoverDescriptor:
    obj = _expect_dict(value, path)
    n = _expect_int(_expect_key(obj, "n", path), f"{path}.n")
    g = _expect_int(_expect_key(obj, "g", path), f"{path}.g")
    _require(1 <= g <= MAX_GENUS, f"{path}.g", f"genus must lie in 1..{MAX_GENUS}")
    comps_raw = _expect_list(_expect_key(obj, "components", path), f"{path}.components")
    comps = []
    for i, raw in enumerate(comps_raw):
        cp = f"{path}.components[{i}]"
        cobj = _expect_dict(raw, cp)
        degree = _expect_int(_expect_key(cobj, "degree", cp), f"{cp}.degree")
        mult = _expect_int(_expect_key(cobj, "multiplicity", cp), f"{cp}.multiplicity")
        modulus = _expect_int(_expect_key(cobj, "kernel_modulus", cp),
                              f"{cp}.kernel_modulus")
        gens_raw = _expect_list(_expect_key(cobj, "kernel_generators", cp),
                                f"{cp}.kernel_generators")
        _require(modulus >= 1, f"{cp}.kernel_modulus", "modulus must be >= 1")
        rank = 2 * g
        rows = []
        for j, row in enumerate(gens_raw):
            rp = f"{cp}.kernel_generators[{j}]"
            row = _expect_list(row, rp)
            _require(len(row) == rank, rp, f"expected {rank} entries")
            rows.append([_expect_int(e, f"{rp}[{k}]") for k, e in enumerate(row)])
        ambient = TorsionAmbient(g, modulus)
        kernel = subgroup_from_generators(
            ambient, IntMatrix.from_rows(rows) if rows else IntMatrix(0, rank, ()))
        comps.append(ComponentData(degree, mult, kernel))
    return SpectralCoverDescriptor(n, g, tuple(comps))


# -- double covers and twisted polynomials --------------------------------

def cover_to_json(cover: DoubleCoverData) -> dict:
    return {"f": poly_to_json(cover.f)}


def cover_from_json(value, path: str = "$") -> DoubleCoverData:
    obj = _expect_dict(value, path)
    f = poly_from_json(_expect_key(obj, "f", path), f"{path}.f")
    return DoubleCoverData(f)


def twisted_to_json(tw: TwistedSpectralPoly) -> dict:
    return {"m": tw.m, "deg_m": tw.deg_m, "cover": cover_to_json(tw.cover),
            "pairs": [{"u": poly_to_json(u), "v": poly_to_json(v)}
                      for u, v in tw.pairs]}


def twisted_from_json(value, path: str = "$") -> TwistedSpectralPoly:
    obj = _expect_dict(value, path)
    m = _expect_int(_expect_key(obj, "m", path), f"{path}.m")
    deg_m = _expect_int(_expect_key(obj, "deg_m", path), f"{path}.deg_m")
    cover = cover_from_json(_expect_key(obj, "cover", path), f"{path}.cover")
    pairs_raw = _expect_list(_expect_key(obj, "pairs", path), f"{path}.pairs")
    _require(len(pairs_raw) == m, f"{path}.pairs", f"expected {m} coefficient pairs")
    pairs = []
    for i, raw in enumerate(pairs_raw):
        pp = f"{path}.pairs[{i}]"
        pobj = _expect_dict(raw, pp)
        u = poly_from_json(_expect_key(pobj, "u", pp), f"{pp}.u")
        v = poly_from_json(_expect_key(pobj, "v", pp), f"{pp}.v")
        pairs.append((u, v))
    return TwistedSpectralPoly(cover, m, deg_m, tuple(pairs))
