"""Tests for JSON schemas and the command-line interface."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from prymkit import cli, spectral, verify
from prymkit.cli import main
from prymkit.covers import DoubleCoverData, TwistedSpectralPoly, galois_pushforward
from prymkit.norms import SpectralPoly, spectral_mul
from prymkit.polynomials import Poly
from prymkit.serialize import (
    MAX_GENUS,
    SchemaError,
    cover_from_json,
    cover_to_json,
    descriptor_from_json,
    descriptor_to_json,
    element_from_json,
    element_to_json,
    rational_from_json,
    rational_to_json,
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


class TestSchemas:
    def test_rational_round_trip(self):
        from fractions import Fraction
        for q in (Fraction(0), Fraction(-3, 7), Fraction(5)):
            assert rational_from_json(rational_to_json(q), "$") == q
        assert rational_to_json(Fraction(5)) == "5/1"

    def test_rational_rejects_malformed(self):
        # int() alone would read the first four as 10/3, 2/3, 2/3 and 3/4
        for bad in ("1_0/3", " 2/3", "+2/3", "\u0663/4", "2/ 3", "2/3\n",
                    "3", "a/b", "1/0", 3, None):
            with pytest.raises(SchemaError):
                rational_from_json(bad, "$")

    def test_rational_negative_denominator_accepted(self):
        assert rational_from_json("1/-2", "$") == Fraction(-1, 2)

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
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c",
                        "import prymkit.cli, sys; assert 'sympy' not in sys.modules"],
                       env=env, check=True)

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
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys\nfrom prymkit.cli import main\n"
                f"rc = main(['galois', '--input', {path!r}])\n"
                "assert 'sympy' not in sys.modules\nsys.exit(rc)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
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
               "element": element_to_json(s.t())}
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
        from prymkit import covers
        calls = {"factors": [], "lifts": 0}
        factor, lift = covers._factor_over_quadratic_field, covers._x_adic_lift

        def counting_factor(*args):
            out = factor(*args)
            calls["factors"].append(len(out))
            return out

        def counting_lift(*args):
            calls["lifts"] += 1
            return lift(*args)
        monkeypatch.setattr(covers, "_factor_over_quadratic_field", counting_factor)
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
            assert calls["factors"] == [6]

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

        monkeypatch.setattr(cli, "run_suite", failing)
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

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["endoscopy", "--n", "6", "--g", "2"]) == 0
        after_first = len(built)
        assert main(["endoscopy", "--n", "6", "--g", "2"]) == 0
        assert len(built) == after_first
