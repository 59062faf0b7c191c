"""Tests for JSON schemas and the command-line interface."""

import argparse
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prymkit
from prymkit import cli, serialize, spectral, verify
from prymkit.abelian import AmbientMismatch
from prymkit.cli import main
from prymkit.covers import DoubleCoverData, TwistedSpectralPoly, galois_pushforward
from prymkit.norms import ParentMismatch, SpectralPoly, spectral_mul
from prymkit.polynomials import Poly
from prymkit.serialize import (
    MAX_GENUS,
    SchemaError,
    any_digits,
    cover_from_json,
    cover_to_json,
    descriptor_from_json,
    element_from_json,
    poly_from_json,
    poly_to_json,
    spectral_from_json,
    spectral_to_json,
    twisted_from_json,
    twisted_to_json,
)
from prymkit.verify import (
    cn_descriptor,
    random_descriptor,
    random_element,
    random_spectral,
    random_squarefree,
    random_twisted,
)

X = Poly.x()
# the tree that holds the prymkit under test, for fresh interpreters
SRC = str(Path(prymkit.__file__).resolve().parent.parent)

# the prymkit modules that importing the front door loads
_CLI_MODULES = {"prymkit", "prymkit.cli", "prymkit.serialize"}
_FRESH = """
import contextlib, io, json, sys
from prymkit.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = 0 if argv is None else main(argv)
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "prymkit"),
                  "argparse" in sys.modules, "sympy" in sys.modules]))
"""


def _fresh_run(argv) -> tuple:
    """(exit code, loaded prymkit modules, argparse loaded?, sympy loaded?)
    after main(argv) in a fresh interpreter; argv None only imports the cli."""
    out = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(argv)],
                         env=dict(os.environ, PYTHONPATH=SRC), check=True,
                         capture_output=True, text=True).stdout
    return tuple(json.loads(out))


# the input documents of a descriptor and of an algebra element, written
# here: the package reads them and never writes them
def descriptor_to_json(desc) -> dict:
    return {"n": desc.n, "g": desc.g, "components": [
        {"degree": c.degree, "multiplicity": c.multiplicity,
         "kernel_modulus": c.kernel.ambient.M,
         "kernel_generators": [list(r) for r in c.kernel.generators]}
        for c in desc.components]}


def element_to_json(u) -> list:
    return [poly_to_json(c) for c in u.coords]


# -- rational polynomial fields: valid entries and near misses -----------------

_DIGITS = st.text("0123456789", min_size=1, max_size=5)       # leading zeros too
_SIGN = st.sampled_from(["", "-"])
_VALID = (st.builds("{}{}/{}{}".format, _SIGN, _DIGITS, _SIGN,
                    _DIGITS.filter(lambda d: int(d)))
          | st.sampled_from(["3/-1", "1/-1", "-2/-6", "-0/5", "007/010", "1/1", "-1/1"]))
_LONG = "1" * 5000                  # past the interpreter's digit limit (3.11 and later)
_NEAR = (st.sampled_from(["+1/2", "1/2/3", "1,2/3", "1/2,3/4", "\u0661/2", "1/0", "-3/-0",
                          "", "/", "1/", "/2", " 1/2", "1/2 ", "1/2\n", "1//2", "--1/2",
                          "0x1/2", "1_0/2", "1/2,", ",1/2", f"{_LONG}/1", f"1/{_LONG}"])
         | st.none() | st.booleans() | st.integers(-3, 3) | st.just(1.5)
         | st.just(["1/2"]) | st.just({"1/2": 0}))
_NOT_A_ROW = st.sampled_from(["1/2", "", {"1/2": 0}, {}, None, 7, ("1/2",)])


@st.composite
def _fields(draw):
    """A list of rows of rational strings, now and then with one near miss:
    a bad entry, or a row that is no list."""
    rows = draw(st.lists(st.lists(_VALID, max_size=4), min_size=1, max_size=4))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        if rows[i] and draw(st.booleans()):
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(_NEAR)
        else:
            rows[i] = draw(_NOT_A_ROW)
    return rows


def _entry_by_entry(row, path):
    """One row read entry by entry by the per-item loaders."""
    return Poly([Fraction(n, d) for n, d in serialize._rationals(row, path)])


def _outcome(read):
    """read()'s Polys as canonical pairs, or its SchemaError's text and path."""
    try:
        return [(p.ints, p.denom) for p in read()]
    except SchemaError as exc:
        return str(exc), exc.path


class TestSchemas:
    @settings(max_examples=400, deadline=None)
    @given(_fields())
    @example([["1/-1"]])          # -1: the all-ones shortcut wants every q = 1
    @example([["1/2,3/4"]])       # one entry with a comma is no two entries
    @example([["1/2", "1/0"]])
    @example([[f"{_LONG}/1"]])
    @example([{"1/2": 0}])
    def test_one_pass_reader_matches_the_per_item_loaders(self, rows):
        want = _outcome(lambda: [_entry_by_entry(row, f"$.coeffs[{i}]")
                                 for i, row in enumerate(rows)])
        # the one pass declines exactly the fields the per-item loaders refuse
        assert (serialize._polys(rows, lambda: None) is None) == isinstance(want, tuple)
        n = len(rows)
        assert _outcome(lambda: spectral_from_json(
            {"n": n, "deg_m": 10 ** 6, "coeffs": rows}).coeffs) == want
        parent = SpectralPoly(n, 0, (Poly.zero(),) * n)
        assert _outcome(lambda: element_from_json(parent, rows, "$.coeffs").coords) == want
        assert _outcome(lambda: [poly_from_json(rows[0], "$.f")]) == _outcome(
            lambda: [_entry_by_entry(rows[0], "$.f")])
        if n % 2:
            return
        # the same rows as u/v pairs of a twisted polynomial
        pairs = [{"u": u, "v": v} for u, v in zip(rows[::2], rows[1::2])]
        doc = {"m": n // 2, "deg_m": 10 ** 6, "cover": {"f": ["0/1", "1/1"]}, "pairs": pairs}

        def by_pair():
            return [_entry_by_entry(pair[k], f"$.pairs[{i}].{k}")
                    for i, pair in enumerate(pairs) for k in "uv"]

        def pairs_read():
            return [p for pair in twisted_from_json(doc).pairs for p in pair]

        assert _outcome(pairs_read) == _outcome(by_pair)

    def test_rational_round_trip(self):
        for q in (Fraction(-3, 7), Fraction(5), Fraction(4, -6)):
            text = f"{q.numerator}/{q.denominator}"
            assert poly_from_json([text], "$") == Poly.constant(q)
            assert poly_to_json(Poly.constant(q)) == [text]
        assert poly_to_json(Poly.constant(5)) == ["5/1"]

    def test_rational_rejects_malformed(self):
        # int() alone would read the first four as 10/3, 2/3, 2/3 and 3/4
        for bad in ("1_0/3", " 2/3", "+2/3", "\u0663/4", "2/ 3", "2/3\n",
                    "3", "a/b", "1/0", 3, None):
            with pytest.raises(SchemaError):
                poly_from_json([bad], "$")

    def test_rational_negative_denominator_accepted(self):
        assert poly_from_json(["1/-2"], "$") == Poly.constant(Fraction(-1, 2))

    def test_poly_read_over_a_common_denominator(self):
        for items in (["2/4", "0/-3", "-6/-4"], ["1/2", "1/3", "-5/6", "0/1"],
                      ["0/-3"], ["7/-21", "10/1"], []):
            p = poly_from_json(items, "$")
            assert p == Poly([Fraction(int(a), int(b))
                              for a, b in (c.split("/") for c in items)]), items
            assert poly_from_json(poly_to_json(p), "$") == p
        assert poly_to_json(poly_from_json(["2/4", "0/-3", "-6/-4"], "$")) == [
            "1/2", "0/1", "3/2"]
        assert poly_to_json(Poly.zero()) == []

    def test_spectral_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            s = random_spectral(rng)
            assert spectral_from_json(spectral_to_json(s)) == s

    def test_element_round_trip(self):
        rng = random.Random(5)
        s = random_spectral(rng)
        u = random_element(rng, s)
        assert element_from_json(s, element_to_json(u)) == u

    def test_descriptor_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            d = random_descriptor(rng)
            assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_twisted_round_trip(self):
        rng = random.Random(9)
        cover = DoubleCoverData(random_squarefree(rng))
        tw = random_twisted(rng, cover, 2, deg_m=1)
        assert twisted_from_json(twisted_to_json(tw)) == tw
        assert cover_from_json(cover_to_json(cover)) == cover

    def test_field_path_in_errors(self):
        doc = {"n": 2, "deg_m": 1, "coeffs": [["1/1"], ["bad"]]}
        with pytest.raises(SchemaError) as exc:
            spectral_from_json(doc)
        assert "coeffs[1][0]" in str(exc.value)
        for entry, message in ((["1/1", "1/0"], "$.coeffs[1][1]: rational has zero denominator"),
                               ("x", "$.coeffs[1]: expected a list, got str")):
            with pytest.raises(SchemaError) as exc:
                spectral_from_json({"n": 2, "deg_m": 1, "coeffs": [["1/1"], entry]})
            assert str(exc.value) == message

    def test_generator_entry_path_in_errors(self):
        gp = "$.components[0].kernel_generators[1]"
        for row, message in (([0, True, 0, 0], f"{gp}[1]: expected an integer, got True"),
                             ([0, 1, 0, 1.5], f"{gp}[3]: expected an integer, got 1.5"),
                             ([0, 1], f"{gp}: expected 4 entries"),
                             ("x", f"{gp}: expected a list, got str")):
            doc = {"n": 2, "g": 2, "components": [
                {"degree": 1, "multiplicity": 2, "kernel_modulus": 2,
                 "kernel_generators": [[0, 0, 0, 0], row]}]}
            with pytest.raises(SchemaError) as exc:
                descriptor_from_json(doc)
            assert str(exc.value) == message
            assert exc.value.path == message.partition(": ")[0]

    def test_missing_field_reported(self):
        with pytest.raises(SchemaError) as exc:
            descriptor_from_json({"n": 2, "components": []})
        assert "'g'" in str(exc.value)


class TestCli:
    def _write(self, tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_pi0_cn(self, tmp_path, capsys):
        path = self._write(tmp_path, "d.json", descriptor_to_json(cn_descriptor(2, 2)))
        assert main(["pi0", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        payload = out["payload"]
        assert payload["pi0_order"] == 16
        assert payload["pi0_invariant_factors"] == [2, 2, 2, 2]
        assert payload["is_cn"] is True

    def test_pi0_schema_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["pi0", "--input", str(p)]) == 2

    def test_pi0_deeply_nested_json_exit_2(self, tmp_path, capsys):
        # the decoder recurses once per nesting level
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000 + "]" * 100000)
        assert main(["pi0", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $: invalid JSON")
        assert "Traceback" not in err

    def test_pi0_invariant_error_exit_3(self, tmp_path):
        doc = {"n": 3, "g": 1, "components": [
            {"degree": 1, "multiplicity": 2, "kernel_modulus": 1,
             "kernel_generators": []}]}
        path = self._write(tmp_path, "d.json", doc)
        assert main(["pi0", "--input", path]) == 3

    def test_pi0_phi_check_exit_3(self, tmp_path, capsys, monkeypatch):
        from prymkit.abelian import GroupHom, TorsionAmbient

        def zero_map(k_sub, n):
            small = TorsionAmbient(k_sub.ambient.g, n)
            return GroupHom(small, [[0] * small.rank] * small.rank)

        # K has order 2, the zero map's image order 1
        monkeypatch.setattr(spectral, "dual_of_inclusion", zero_map)
        doc = {"n": 2, "g": 1, "components": [
            {"degree": 2, "multiplicity": 1, "kernel_modulus": 2,
             "kernel_generators": [[1, 0]]}]}
        path = self._write(tmp_path, "d.json", doc)
        assert main(["pi0", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "character restriction has the wrong kernel" in captured.err

    def test_pi0_kernel_modulus_not_dividing_exit_3(self, tmp_path, capsys):
        # ambient modulus lcm(2, 1 * 2) = 2 is not a multiple of 3
        doc = {"n": 2, "g": 1, "components": [
            {"degree": 1, "multiplicity": 2, "kernel_modulus": 3,
             "kernel_generators": []}]}
        path = self._write(tmp_path, "d.json", doc)
        assert main(["pi0", "--input", path]) == 3
        assert "cannot embed" in capsys.readouterr().err

    def test_pi0_computes_k_once(self, tmp_path, capsys, monkeypatch):
        calls = {"intersect": 0, "preimage_mul": 0}

        def counting(name):
            orig = getattr(spectral, name)

            def wrapper(*args):
                calls[name] += 1
                return orig(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(spectral, name, counting(name))
        doc = {"n": 4, "g": 1, "components": [
            {"degree": 1, "multiplicity": 2, "kernel_modulus": 1,
             "kernel_generators": []},
            {"degree": 2, "multiplicity": 1, "kernel_modulus": 2,
             "kernel_generators": [[1, 0]]}]}
        path = self._write(tmp_path, "d.json", doc)
        assert main(["pi0", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["phi_kernel_order"] == 4 ** 2 // payload["k_order"]
        # one preimage per component, folded by one intersection per extra one
        assert calls == {"intersect": 1, "preimage_mul": 2}

    def test_pi0_huge_genus_refused_at_once(self, tmp_path, capsys):
        # a 2g x 2g kernel matrix at g = 10^6 would hold 4 * 10^12 entries
        doc = {"n": 2, "g": 10 ** 6, "components": [
            {"degree": 1, "multiplicity": 2, "kernel_modulus": 1,
             "kernel_generators": []}]}
        path = self._write(tmp_path, "d.json", doc)
        t0 = time.perf_counter()
        assert main(["pi0", "--input", path]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"genus must lie in 1..{MAX_GENUS}" in capsys.readouterr().err

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_endoscopy", broken)
        assert main(["endoscopy", "--n", "6", "--g", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: internal: ")
        assert "boom" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_key_error_inside_suite_exit_4(self, capsys, monkeypatch):
        def broken(seed):
            return {}["missing"]

        monkeypatch.setitem(verify.SUITES, "abelian", broken)
        assert main(["verify", "--suite", "abelian", "--seed", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: internal: KeyError")
        assert captured.out == ""

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "nope", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: $: unknown suite 'nope'; available: "
                                "['abelian', 'galois', 'norm', 'spectral']\n")
        assert captured.out == ""

    def test_unknown_command_exit_2(self):
        assert main(["bogus"]) == 2

    def test_help_line_of_every_command(self, capsys):
        # argparse lays help out a little differently from one Python release
        # to the next; tests/test_corpus.py pins its bytes on one release
        lines = {"pi0": "component group of the Prym variety",
                 "endoscopy": "endoscopic dimension table and bound",
                 "norm": "norm of an algebra element",
                 "factor": "squarefree multiplicity profile",
                 "galois": "degree-2 pushforward or splitting test",
                 "verify": "run a seeded verification suite"}
        assert main(["-h"]) == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert [r for r in rows if r and r[0] in lines] == [list(kv) for kv in lines.items()]

    def test_endoscopy(self, capsys):
        assert main(["endoscopy", "--n", "6", "--g", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["dims"] == {"1": 35, "2": 17, "3": 11, "6": 5}
        assert out["payload"]["c_n"] == 18
        assert out["payload"]["bound"] == 36

    def test_endoscopy_bad_args(self, capsys):
        assert main(["endoscopy", "--n", "1", "--g", "2"]) == 2

    def test_endoscopy_huge_n_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        for n in (10 ** 12 + 1, 10 ** 18):
            assert main(["endoscopy", "--n", str(n), "--g", "2"]) == 2
            assert "n <= 10^12" in capsys.readouterr().err
        assert time.perf_counter() - t0 < 1.0

    def test_import_leaves_sympy_unloaded(self):
        # nor any library module, nor argparse
        assert _fresh_run(None) == (0, sorted(_CLI_MODULES), False, False)

    @pytest.mark.parametrize("make, code, err", [
        (lambda: spectral.InvariantViolation("x"), 3, "error: x\n"),
        (lambda: RuntimeError("x"), 4, "error: internal: RuntimeError: x\n"),
        (lambda: SchemaError("$.n", "x"), 2, "error: $.n: x\n"),
        (lambda: spectral.DescriptorError("x"), 3, "error: x\n"),
        (lambda: AmbientMismatch("x"), 3, "error: x\n"),
        (lambda: ParentMismatch("x"), 3, "error: x\n"),
    ])
    def test_exception_exit_code(self, capsys, monkeypatch, make, code, err):
        def raising(args):
            raise make()

        monkeypatch.setattr(cli, "_cmd_endoscopy", raising)
        assert main(["endoscopy", "--n", "6", "--g", "2"]) == code
        assert capsys.readouterr() == ("", err)

    def test_galois_split_leaves_sympy_unloaded(self, tmp_path):
        # two conjugate pairs: q(x0) has a Q-factor of even degree that
        # splits over Q(sqrt(f(x0))), so both factoring stages run
        one = Poly.one()
        cover = DoubleCoverData(X * X + one)
        s = galois_pushforward(cover, TwistedSpectralPoly(cover, 1, 1, ((X, one),)))
        s = spectral_mul(s, galois_pushforward(cover, TwistedSpectralPoly(
            cover, 1, 1, ((Poly.constant(2), -one),))))
        path = self._write(tmp_path, "g.json", {"cover": cover_to_json(cover),
                                                "spectral": spectral_to_json(s)})
        code = ("import sys\nfrom prymkit.cli import main\n"
                f"rc = main(['galois', '--input', {path!r}])\n"
                "assert 'sympy' not in sys.modules\nsys.exit(rc)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                             check=True, capture_output=True, text=True).stdout
        assert json.loads(out)["payload"]["splits"] is True

    def test_galois_zero_v_witness(self, tmp_path, capsys):
        # y^2 = x^3 + 1 with deg_m = 0 bounds deg v_1 by -2: the witness
        # W = t of s = t^2 has v_1 = 0, which meets it
        cover = {"f": ["1/1", "0/1", "0/1", "1/1"]}
        path = self._write(tmp_path, "s.json", {"cover": cover, "spectral": {
            "n": 2, "deg_m": 0, "coeffs": [[], []]}})
        assert main(["galois", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["witness"]["pairs"] == [
            {"u": [], "v": []}]
        path = self._write(tmp_path, "w.json", {"cover": cover, "twisted": {
            "cover": cover, "m": 1, "deg_m": 0, "pairs": [{"u": [], "v": []}]}})
        assert main(["galois", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["pushforward"] == {
            "n": 2, "deg_m": 0, "coeffs": [[], []]}

    def test_norm(self, tmp_path, capsys):
        s = SpectralPoly(2, 1, (Poly.zero(), -X))
        doc = {"spectral": spectral_to_json(s),
               "element": [[], ["1/1"]]}      # t
        path = self._write(tmp_path, "n.json", doc)
        assert main(["norm", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["norm"] == ["0/1", "-1/1"]
        assert out["payload"]["resultant_oracle_agrees"] is True

    def test_factor(self, tmp_path, capsys):
        s = SpectralPoly(2, 1, (X.scale(-2), X * X))  # (t - x)^2
        path = self._write(tmp_path, "f.json", spectral_to_json(s))
        assert main(["factor", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        blocks = out["payload"]["blocks"]
        assert len(blocks) == 1
        assert blocks[0]["multiplicity"] == 2

    def test_galois_both_directions(self, tmp_path, capsys):
        cover = DoubleCoverData(X * X - 1)
        rng = random.Random(1)
        tw = random_twisted(rng, cover, 1, deg_m=1)
        pushed = galois_pushforward(cover, tw)
        path = self._write(tmp_path, "g1.json",
                           {"cover": cover_to_json(cover),
                            "twisted": twisted_to_json(tw)})
        assert main(["galois", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["pushforward"] == spectral_to_json(pushed)

        path = self._write(tmp_path, "g2.json",
                           {"cover": cover_to_json(cover),
                            "spectral": spectral_to_json(pushed)})
        assert main(["galois", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["splits"] is True

    def test_galois_readme_example(self, tmp_path, capsys):
        # t^2 - x on y^2 = x is the norm of t - y
        doc = {"cover": {"f": ["0/1", "1/1"]},
               "spectral": {"n": 2, "deg_m": 1, "coeffs": [[], ["0/1", "-1/1"]]}}
        path = self._write(tmp_path, "g2.json", doc)
        assert main(["galois", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == {
            "direction": "split",
            "splits": True,
            "witness": {"cover": {"f": ["0/1", "1/1"]}, "deg_m": 1, "m": 1,
                        "pairs": [{"u": [], "v": ["-1/1"]}]},
        }

    @pytest.mark.parametrize("name, draws, m, seed, lifts", [
        # the product of three degree-2 pushforwards from one rng
        ("galois_split_k3.json", 3, 2, 3, 1),
        # one block with three pairs at x0 = 0; the first two candidate
        # halves do not lift to a witness, the third does
        ("galois_split_three_pairs.json", 1, 3, 22, 3),
    ])
    def test_galois_split_witness_bytes(self, tmp_path, capsys, monkeypatch,
                                        name, draws, m, seed, lifts):
        # the exact report, witness included: the candidate order and the
        # lift decide which of several witnesses is printed
        from prymkit import covers, factoring
        calls = {"factors": [], "lifts": 0}
        factor, lift = factoring.factor_over_quadratic_field, covers._x_adic_lift

        def counting_factor(*args):
            out = factor(*args)
            calls["factors"].append(None if out is None else len(out))
            return out

        def counting_lift(*args):
            calls["lifts"] += 1
            return lift(*args)
        monkeypatch.setattr(factoring, "factor_over_quadratic_field", counting_factor)
        monkeypatch.setattr(covers, "_x_adic_lift", counting_lift)
        cover = DoubleCoverData(X - 3)
        rng = random.Random(seed)
        s = galois_pushforward(cover, random_twisted(rng, cover, m, 1))
        for _ in range(draws - 1):
            s = spectral_mul(s, galois_pushforward(cover, random_twisted(rng, cover, m, 1)))
        path = self._write(tmp_path, "g.json", {"cover": cover_to_json(cover),
                                                "spectral": spectral_to_json(s)})
        assert main(["galois", "--input", path]) == 0
        expected = (Path(__file__).resolve().parent / "pinned" / name).read_text()
        assert capsys.readouterr().out == expected
        assert calls["lifts"] == lifts
        if lifts > 1:
            # three pairs at x0 = 0, then one pair and no self-conjugate
            # factor at each of three further good points where the block
            # stays squarefree: at x0 = 1 it does not, and factoring says None
            assert calls["factors"] == [6, 2, None, 2, 2]

    def test_galois_never_builds_an_algebraic_field(self, tmp_path, capsys, monkeypatch):
        # the splitter factors over Q(sqrt(d)) on its own, through a prime
        # that splits there; sympy, loaded here only to watch, is not asked
        import sympy

        def refuse(*_args, **_kwargs):
            raise AssertionError("algebraic field built")
        monkeypatch.setattr(type(sympy.QQ), "algebraic_field", refuse)
        assert main(["verify", "--suite", "galois", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["all_passed"] is True
        cover = DoubleCoverData(X * X - 3)
        pushed = galois_pushforward(cover, random_twisted(random.Random(3), cover, 3, deg_m=1))
        path = self._write(tmp_path, "g.json", {"cover": cover_to_json(cover),
                                                "spectral": spectral_to_json(pushed)})
        assert main(["galois", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["splits"] is True

    def test_galois_builds_no_tpoly_of_surds(self, capsys, monkeypatch):
        # a function on the cover is one Surd of two t-polynomials over Q[x],
        # and a factor at x0 one Surd of two Polys: no t-polynomial has Surd
        # coefficients
        from prymkit.covers import Surd
        from prymkit.polynomials import TPoly
        built, init = [], TPoly.__init__

        def counting(self, coeffs, czero):
            built.append(isinstance(czero, Surd))
            init(self, coeffs, czero)
        monkeypatch.setattr(TPoly, "__init__", counting)
        assert main(["verify", "--suite", "galois", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["all_passed"] is True
        assert built and built.count(True) == 0

    def test_galois_pushforward_checks_its_cover_once(self, tmp_path, capsys, monkeypatch):
        # the twisted polynomial's cover equals the input's: it is parsed
        # but not checked squarefree a second time; a different cover fails
        checked, is_squarefree = [], Poly.is_squarefree

        def counting(p):
            checked.append(p)
            return is_squarefree(p)
        monkeypatch.setattr(Poly, "is_squarefree", counting)
        cover = DoubleCoverData(X * X - 1)
        tw = random_twisted(random.Random(1), cover, 2, deg_m=1)
        checked.clear()
        doc = {"cover": cover_to_json(cover), "twisted": twisted_to_json(tw)}
        assert main(["galois", "--input", self._write(tmp_path, "g.json", doc)]) == 0
        assert checked == [cover.f]
        doc["cover"] = cover_to_json(DoubleCoverData(X * X - 2))
        assert main(["galois", "--input", self._write(tmp_path, "g.json", doc)]) == 3
        assert "different cover" in capsys.readouterr().err

    def test_norm_past_the_digit_limit(self, tmp_path, capsys):
        # N(c + t) on Q[x][t]/(t^2 + x - 1) is c^2 + x - 1, 5,000 digits for
        # a 2,500-digit c: past the interpreter's int-to-str limit (4,300
        # digits on Python 3.11 and later), the report is written whole
        # and the limit restored; a numerator that long is still refused
        c = 10 ** 2499 + 7
        s = {"n": 2, "deg_m": 1, "coeffs": [[], ["-1/1", "1/1"]]}
        path = self._write(tmp_path, "n.json", {"spectral": s, "element": [[f"{c}/1"], ["1/1"]]})
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        with any_digits():
            want = [f"{c * c - 1}/1", "1/1"]
        assert main(["norm", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)["payload"]
        assert out == {"norm": want, "resultant_oracle_agrees": True}
        assert main(["norm", "--input", path, "--format", "table"]) == 0
        assert f"norm: {json.dumps(want)}\n" in capsys.readouterr().out
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        if limit:
            with any_digits():
                big = f"{10 ** limit}/1"
            path = self._write(tmp_path, "n.json", {"spectral": s, "element": [[big], ["1/1"]]})
            assert main(["norm", "--input", path]) == 2
            assert "has non-integer parts" in capsys.readouterr().err

    def test_pi0_past_the_digit_limit(self, tmp_path, capsys):
        # n = 10^40 at g = 64: order_bound = n^128 has 5,121 digits, and the
        # report is written whole in both formats
        n = 10 ** 40
        path = self._write(tmp_path, "d.json", {"n": n, "g": 64, "components": [
            {"degree": n, "multiplicity": 1, "kernel_modulus": 1, "kernel_generators": []}]})
        assert main(["pi0", "--input", path]) == 0
        out = capsys.readouterr().out
        with any_digits():          # reading the report back needs the limit lifted
            assert json.loads(out)["payload"]["order_bound"] == n ** 128
            want = str(n ** 128)
        assert main(["pi0", "--input", path, "--format", "table"]) == 0
        assert f"\norder_bound: {want}\n" in capsys.readouterr().out

    def test_galois_lenient_rational_exit_2(self, tmp_path, capsys):
        for bad in ("1_0/3", " 2/3", "+2/3", "\u0663/4"):
            doc = {"cover": {"f": [bad, "1/1"]},
                   "spectral": {"n": 2, "deg_m": 1, "coeffs": [[], ["0/1", "-1/1"]]}}
            path = self._write(tmp_path, "g.json", doc)
            assert main(["galois", "--input", path]) == 2, bad
            err = capsys.readouterr().err
            assert "has non-integer parts" in err and "Traceback" not in err

    def test_verify_suite(self, capsys):
        assert main(["verify", "--suite", "abelian", "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["all_passed"] is True

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_determinism(self, tmp_path, capsys):
        path = self._write(tmp_path, "d.json", descriptor_to_json(cn_descriptor(3, 1)))
        main(["pi0", "--input", path])
        first = capsys.readouterr().out
        main(["pi0", "--input", path])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PRYMKIT_SEED", "5")
        assert main(["verify", "--suite", "spectral"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["seed"] == 5

    def test_table_format(self, capsys):
        assert main(["endoscopy", "--n", "2", "--g", "2",
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "c_n: 2" in out

    def test_seed_env_not_an_integer_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PRYMKIT_SEED", "abc")
        assert main(["verify", "--suite", "abelian"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: $: PRYMKIT_SEED is not an integer: 'abc'\n"
        assert captured.out == ""

    def test_failed_verification_exit_1(self, capsys, monkeypatch):
        def failing(name, seed):
            return [{"property": "p", "passed": False, "detail": "broken"}]

        monkeypatch.setattr(verify, "run_suite", failing)
        assert main(["verify", "--suite", "abelian", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert '"all_passed": false' in out
        assert json.loads(out)["payload"]["results"][0]["detail"] == "broken"

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        # a fresh cache, and --n=6, which only argparse reads
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["endoscopy", "--n=6", "--g", "2"]) == 0
        after_first = len(built)
        assert after_first == 1 + len(cli._COMMANDS)
        assert main(["endoscopy", "--n=6", "--g", "2"]) == 0
        assert len(built) == after_first


# -- the front door's fast path -------------------------------------------------

_FLAGS = ["--input", "--n", "--g", "--suite", "--seed", "--format"]
_TOKENS = (_FLAGS + [
    "-h", "--help", "--in", "--inp", "--fo", "--su", "--se", "--input=x.json",
    "--n=6", "--format=table", "--", "-", "-5", "--5", "x.json", "", "6", " 7",
    "1_0", "0x10", "\u0663", "1.5", "10" * 30, "json", "table", "xml", "Table",
    "abelian", "pi0", "a b"])
_WELL_FORMED = {
    "pi0": [["--input", "x.json"]], "norm": [["--input", "x.json"]],
    "factor": [["--input", "x.json"]], "galois": [["--input", "x.json"]],
    "endoscopy": [["--n", "6"], ["--g", "2"]],
    "verify": [["--suite", "abelian"], ["--seed", "3"]],
}


def _parsed(argv):
    """vars() of build_parser().parse_args(argv), "exit" where argparse
    exits and "raised" where it raises anything else."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return "exit"
        except Exception:
            return "raised"


@st.composite
def _argv(draw):
    """[command, flag, value, ...] over declared, abbreviated, repeated,
    '=' and help flags, values that argparse refuses or reads, and now and
    then a non-str entry or a dropped or added token."""
    command = draw(st.sampled_from([*_WELL_FORMED, "nosuch", "-h", "--help"]))
    tokens = st.sampled_from(_TOKENS)
    argv = [command]
    for _ in range(draw(st.integers(0, 4))):
        argv += [draw(tokens), draw(tokens)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(i, draw(st.one_of(tokens, st.integers(-10, 10), st.none(),
                                          st.just(Path("x.json")))))
        else:
            del argv[i:i + 1]
    return argv


@st.composite
def _well_formed_argv(draw):
    """A command's own options (a required one always, the rest maybe), in
    any order, each once with a plain value; the fast path takes these."""
    command = draw(st.sampled_from(list(_WELL_FORMED)))
    pairs = [pair for pair in _WELL_FORMED[command]
             if pair[0] in ("--input", "--suite") or draw(st.booleans())]
    if draw(st.booleans()):
        pairs.append(["--format", draw(st.sampled_from(["json", "table"]))])
    pairs = draw(st.permutations(pairs))
    return [command] + [token for pair in pairs for token in pair]


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10 ** 40, 10 ** 40)
                | st.text() | st.text(st.characters(max_codepoint=0x20))
                | st.floats(allow_nan=True))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)
                      | st.dictionaries(st.integers(-5, 5), children, max_size=3)),
    max_leaves=30)


def _argvs(tmp_path):
    """A well-formed argv for each of the six commands."""
    files = {
        "pi0": descriptor_to_json(cn_descriptor(3, 1)),
        "norm": {"spectral": {"n": 2, "deg_m": 1, "coeffs": [[], ["0/1", "-1/1"]]},
                 "element": [[], ["1/1"]]},
        "factor": spectral_to_json(SpectralPoly(2, 1, (X.scale(-2), X * X))),
        "galois": {"cover": {"f": ["0/1", "1/1"]},
                   "spectral": {"n": 2, "deg_m": 1, "coeffs": [[], ["0/1", "-1/1"]]}},
    }
    argvs = []
    for command, doc in files.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        argvs.append([command, "--input", str(path)])
    return argvs + [["endoscopy", "--n", "6", "--g", "2", "--format", "table"],
                    ["verify", "--suite", "abelian", "--seed", "0"]]


# the library modules each command loads besides _CLI_MODULES
_LOADED = {
    "pi0": {"abelian", "spectral"},
    "endoscopy": {"abelian", "spectral"},
    "norm": {"polynomials", "norms"},
    "factor": {"polynomials", "norms", "covers"},
    "galois": {"polynomials", "norms", "covers", "factoring"},
    "verify": {"abelian", "spectral", "polynomials", "norms", "covers", "verify"},
}

_PUBLIC_NAMES = """
    AmbientMismatch FinAbGroup GroupHom TorsionAmbient TorsionSubgroup dual_group
    dual_of_inclusion hermite_normal_form intersect preimage_mul smith_normal_form
    structure subgroup_from_generators DoubleCoverData FactoredSpectral
    TwistedSpectralPoly galois_pushforward pullback_splits squarefree_decompose
    trace_translate AlgebraElement ParentMismatch SpectralPoly norm_component_law
    norm_element norm_multiplicativity_check norm_power_law norm_resultant_oracle
    spectral_mul spectral_pow Poly TPoly yun_squarefree ComponentData
    DescriptorError EndoscopyReport InvariantViolation SpectralCoverDescriptor
    ambient_modulus endoscopic_dim endoscopy_report gamma_in_k is_cn_cover
    phi_surjection pi0_prym prym_component_group variant_bound""".split()


class TestImportGraph:
    @pytest.mark.parametrize("command", sorted(_LOADED))
    def test_command_loads_only_its_modules(self, tmp_path, command):
        argv = next(a for a in _argvs(tmp_path) if a[0] == command)
        modules = sorted(_CLI_MODULES | {f"prymkit.{m}" for m in _LOADED[command]})
        # each argv takes the fast path, so argparse stays unloaded too
        assert _fresh_run(argv) == (0, modules, False, False)

    def test_exports_are_their_defining_modules_attributes(self):
        assert sorted(prymkit.__all__) == sorted(_PUBLIC_NAMES)
        for name in _PUBLIC_NAMES:
            obj = getattr(prymkit, name)
            assert obj.__module__ == f"prymkit.{prymkit._EXPORTS[name]}", name
            assert obj is getattr(sys.modules[obj.__module__], name), name
        assert set(_PUBLIC_NAMES) <= set(dir(prymkit))
        assert "__version__" in dir(prymkit)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
            prymkit.nosuch
        assert not hasattr(prymkit, "_poly")


class TestFrontDoor:
    @settings(max_examples=400, deadline=None)
    @given(_argv())
    def test_fast_args_never_accepts_what_argparse_refuses(self, argv):
        fast = cli._fast_args(argv)
        if fast is not None:
            assert vars(fast) == _parsed(argv)

    @settings(max_examples=200, deadline=None)
    @given(_well_formed_argv())
    def test_fast_args_takes_well_formed_argv(self, argv):
        fast = cli._fast_args(argv)
        assert fast is not None and vars(fast) == _parsed(argv)

    def test_fast_args_declines(self):
        # each of these parses (or exits) in argparse, which alone words it
        for argv in (["endoscopy", "--n", "-5", "--g", "2"], ["norm", "--input=x"],
                     ["norm", "--in", "x"], ["norm", "--input", "x", "--input", "y"],
                     ["norm", "--input", "x", "--format", "xml"], ["verify", "--seed", "1"],
                     ["endoscopy", "--n", "0x10", "--g", "2"], ["norm", "-h"], ["norm"],
                     ["norm", "--input", Path("x")], [], ("norm", "--input"),
                     iter(["norm", "--input", "x"]), "norm --input x"):
            assert cli._fast_args(argv) is None, argv
        assert vars(cli._fast_args(("endoscopy", "--g", "2", "--n", "1_0"))) == {
            "command": "endoscopy", "n": 10, "g": 2, "format": "json"}

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_json_writer_matches_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_json_writer_edges(self):
        for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], "\x00\u2028\U0001f600",
                      2 ** 200, -1, True, None, {"k": [1, (2, {"z": None, "a": False})]},
                      {1: [2, {3: []}]}, 1.5, [float("inf")]):
            assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2), value

    def test_well_formed_argv_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        # a fresh cache, so that a parser an earlier test built is not reused
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in _argvs(tmp_path):
            assert main(argv) == 0, argv
            assert built == [], argv
        fast = capsys.readouterr().out
        # the same argv with --flag=value take argparse, and print the same
        for argv in _argvs(tmp_path):
            assert main([argv[0], "=".join(argv[1:3]), *argv[3:]]) == 0, argv
        assert capsys.readouterr().out == fast
        assert len(built) == 1 + len(cli._COMMANDS)

    def test_console_script_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        for argv in _argvs(tmp_path) + [["endoscopy", "--n=6", "--g", "2"],
                                             ["norm", "--input", "x", "--input", "y"],
                                             ["pi0", "--help"]]:
            code = main(list(argv))
            expected = capsys.readouterr()
            monkeypatch.setattr(sys, "argv", ["prymkit", *argv])
            assert main() == code, argv
            assert capsys.readouterr() == expected, argv
