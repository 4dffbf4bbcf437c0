import collections
import contextlib
import copy
import io
import json
import sys
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.cli import (
    InstanceData,
    ModuleEntry,
    dumps_instance,
    instance_to_json,
    load_instance,
    main,
    save_instance,
)
from bihomcheck import coherence, exactlin
from bihomcheck.errors import ParseError, TooLarge, UnknownName
from bihomcheck.exactlin import GF, QQ
from bihomcheck.fixtures import (
    dual_cyclic_bundle,
    example_instance,
    idempotent_monoid_bialgebra,
)
from bihomcheck import structures
from bihomcheck.structures import ALTERNATIVE, ITERATIVE, StructureBundle, delta_n, mu_n
from bihomcheck.twist import BIMONOID, COMONOID, MONOID, PlainStructure, yau_twist

F7 = GF(7)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    save_instance(str(path), example_instance())
    return str(path)


@pytest.fixture
def non_hopf_file(tmp_path):
    nh = idempotent_monoid_bialgebra(F7)
    data = InstanceData(F7, {"m2": nh.obj}, {"nohopf": nh}, {"nohopf": "m2"}, {})
    path = tmp_path / "nohopf.json"
    save_instance(str(path), data)
    return str(path)


class TestSerialization:
    def test_round_trip_bytes(self, c3_file):
        text = open(c3_file).read()
        data = load_instance(c3_file)
        assert dumps_instance(data) == text

    def test_rational_round_trip(self, tmp_path):
        nh = idempotent_monoid_bialgebra(QQ)
        data = InstanceData(QQ, {"m2": nh.obj}, {"s": nh}, {"s": "m2"}, {})
        path = tmp_path / "q.json"
        save_instance(str(path), data)
        assert dumps_instance(load_instance(str(path))) == open(path).read()

    def test_malformed_fraction_rejected(self, tmp_path):
        doc = {
            "format_version": "1",
            "field": {"kind": "rationals"},
            "objects": {"x": {"dim": 1, "alpha": ["3/0"], "beta": ["1"]}},
            "structures": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_instance(str(path))

    def test_unknown_object_reference(self, tmp_path):
        doc = {
            "format_version": "1",
            "field": {"kind": "prime_field", "modulus": 7},
            "objects": {},
            "structures": {"s": {"object": "ghost"}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnknownName):
            load_instance(str(path))

    def test_commutation_revalidated_on_load(self, tmp_path):
        doc = {
            "format_version": "1",
            "field": {"kind": "rationals"},
            "objects": {"x": {"dim": 2,
                              "alpha": ["0", "1", "0", "0"],
                              "beta": ["1", "0", "0", "2"]}},
            "structures": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        # an input error, which names the object
        with pytest.raises(ParseError, match="^object x: endomorphisms alpha and beta do not"):
            load_instance(str(path))


def _set(path, value):
    """An edit that puts value at the key path of the instance document."""
    return lambda doc: reduce(getitem, path[:-1], doc).__setitem__(path[-1], value)


def _set_modulus(value):
    return _set(("field", "modulus"), value)


def _set_mu_entry(value):
    return _set(("structures", "twisted", "mu", 0), value)


def _as_list(key):
    return lambda doc: doc.__setitem__(key, list(doc[key].values()))


class TestMalformedValues:
    """Bad values in an instance file exit 2 with one error line."""

    def _run(self, c3_file, edit, capsys):
        with open(c3_file) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(c3_file, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(["check", c3_file, "--structure", "bimonoid", "--name", "twisted"])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        _set_modulus("abc"), _set_modulus(None), _set_modulus(7.0), _set_modulus(True),
        _set_mu_entry(None), _set_mu_entry(1.5), _set_mu_entry(True), _set_mu_entry([1]),
        _set_mu_entry({"v": 1}),
        _as_list("objects"), _as_list("structures"), _as_list("modules"),
        _set(("structures", "extra"), 5), _set(("modules", "extra"), 5),
        _set(("objects", "neg"), {"dim": -2, "alpha": ["1"] * 4, "beta": ["1"] * 4}),
        _set(("objects", "c3_sq", "dim"), 3.7),
        _set(("structures", "twisted", "object"), ["c3_sq"]),
        _set(("modules", "regular", "over"), {"twisted": 1}),
    ], ids=["modulus-abc", "modulus-null", "modulus-float", "modulus-bool",
            "entry-null", "entry-float", "entry-bool", "entry-list", "entry-object",
            "objects-list", "structures-list", "modules-list", "structure-int",
            "module-int", "dim-negative", "dim-float", "object-ref-list",
            "over-ref-object"])
    def test_rejected_with_one_error_line(self, c3_file, edit, capsys):
        rc, err = self._run(c3_file, edit, capsys)
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", [_set_modulus("7"), _set_mu_entry(1), _set_mu_entry("8"),
                                      _set(("objects", "c3_sq", "dim"), "3")],
                             ids=["modulus-string", "entry-int", "entry-string", "dim-string"])
    def test_integers_and_strings_still_accepted(self, c3_file, edit, capsys):
        assert self._run(c3_file, edit, capsys)[0] == 0

    def test_first_bad_entry_is_named(self, c3_file, capsys):
        def edit(doc):
            doc["structures"]["twisted"]["mu"][3:5] = [1.5, True]
        assert self._run(c3_file, edit, capsys) == (
            2, "error: structure twisted.mu: entry 1.5 is not an integer or a string\n")

    @pytest.mark.parametrize("other, named", [(True, "true"), (1.0, "1.0")],
                             ids=["int-and-bool", "int-and-float"])
    def test_value_equal_entry_of_another_type_is_named(self, c3_file, capsys, other, named):
        def edit(doc):
            doc["structures"]["twisted"]["mu"][3:5] = [1, other]
        assert self._run(c3_file, edit, capsys) == (
            2, f"error: structure twisted.mu: entry {named} is not an integer or a string\n")

    def test_int_and_string_of_one_value_accepted(self, c3_file, capsys):
        def edit(doc):
            mu = doc["structures"]["twisted"]["mu"]
            mu[:] = [int(v) if i % 2 else v for i, v in enumerate(mu)]
            assert {1, "1"} <= set(mu)
        assert self._run(c3_file, edit, capsys)[0] == 0

    def test_wrong_type_is_named_before_a_bad_string(self, c3_file, capsys):
        def edit(doc):
            doc["structures"]["twisted"]["mu"][3:5] = ["x", None]
        assert self._run(c3_file, edit, capsys) == (
            2, "error: structure twisted.mu: entry null is not an integer or a string\n")


def _mutation_paths(node, path=()):
    """Key paths of every dict node and of the first entry of every list."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _mutation_paths(child, path + (key,))
    elif isinstance(node, list) and node:
        yield from _mutation_paths(node[0], path + (0,))


_EXAMPLE_DOC = instance_to_json(example_instance())
_REPLACEMENTS = st.one_of(
    st.none(), st.lists(st.integers(-2, 9), max_size=3), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.integers(max_value=-1), st.floats(max_value=-0.5, allow_infinity=False))


class TestFuzzedInstance:
    """Any one node of a valid instance replaced by a junk value: exit 0, 1 or 2
    with at most one line on stderr, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(list(_mutation_paths(_EXAMPLE_DOC))),
           value=_REPLACEMENTS,
           check=st.sampled_from([("bimonoid", "twisted"), ("comonoid", "plain"),
                                  ("hopf-module", "regular")]))
    def test_single_node_mutation(self, tmp_path_factory, path, value, check):
        doc = copy.deepcopy(_EXAMPLE_DOC)
        if path:
            _set(path, value)(doc)
        else:
            doc = value
        file = tmp_path_factory.getbasetemp() / "fuzzed.json"
        file.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check", str(file), "--structure", check[0], "--name", check[1]])
        assert rc in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1
        if rc == 2:
            assert err.getvalue().startswith("error: ")


class TestCheckCommand:
    def test_valid_bimonoid_exits_zero(self, c3_file, capsys):
        code = main(["check", c3_file, "--structure", "bimonoid",
                     "--name", "twisted"])
        out = capsys.readouterr().out
        assert code == 0
        assert "26/26" in out

    def test_all_kinds_on_fixture(self, c3_file):
        for kind in ("semigroup", "cosemigroup", "monoid", "comonoid",
                     "bisemigroup", "bimonoid"):
            assert main(["check", c3_file, "--structure", kind,
                         "--name", "twisted"]) == 0

    def test_module_kinds(self, c3_file):
        for kind in ("module", "comodule", "hopf-module"):
            assert main(["check", c3_file, "--structure", kind,
                         "--name", "regular"]) == 0

    def test_perturbed_mu_exits_one_and_names_diagram(self, tmp_path, capsys):
        data = example_instance()
        t = data.structures["twisted"]
        data.structures["twisted"] = t.replace(mu=t.mu.with_entry(0, 4, 5))
        path = tmp_path / "bad.json"
        save_instance(str(path), data)
        code = main(["check", str(path), "--structure", "bimonoid",
                     "--name", "twisted"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL semigroup/associativity" in out

    def test_co_side_failure_lines(self, tmp_path, capsys):
        """The full FAIL lines (name, law, counterexample) of the co-side checks."""
        data = example_instance()
        t = data.structures["twisted"]
        data.structures["bad_delta"] = t.replace(delta=t.delta.with_entry(1, 0, 2))
        data.structures["bad_epsilon"] = t.replace(epsilon=t.epsilon.with_entry(0, 2, 2))
        data.structure_objects.update(bad_delta="c3_sq", bad_epsilon="c3_sq")
        data.modules["bad_coaction"] = ModuleEntry(
            "c3_sq", "twisted", coaction=t.delta.with_entry(4, 1, 5))
        data.modules["over_bad_epsilon"] = ModuleEntry(
            "c3_sq", "bad_epsilon", coaction=t.delta)
        path = str(tmp_path / "bad.json")
        save_instance(path, data)
        expected = {
            ("comonoid", "bad_delta"): [
                "FAIL comonoid/counit-left [counit against the first leg lands on beta]"
                " at entry (1,0): 2 != 0",
                "FAIL comonoid/counit-right [counit against the second leg lands on alpha]"
                " at entry (0,0): 3 != 1",
                "FAIL cosemigroup/coassociativity [deformed coassociativity of the"
                " comultiplication] at entry (1,0): 0 != 2",
            ] + [f"FAIL cosemigroup/delta-commutes-{e} [delta intertwines the endomorphism"
                 f" {e}] at entry (1,0): 2 != 0" for e in ("alpha", "beta", "kappa", "nu")],
            ("comonoid", "bad_epsilon"): [
                "FAIL comonoid/counit-left [counit against the first leg lands on beta]"
                " at entry (2,1): 2 != 1",
                "FAIL comonoid/counit-right [counit against the second leg lands on alpha]"
                " at entry (2,1): 2 != 1",
            ] + [f"FAIL comonoid/epsilon-commutes-{e} [epsilon intertwines the endomorphism"
                 f" {e}] at entry (0,1): 2 != 1" for e in ("alpha", "beta", "kappa", "nu")],
            ("comodule", "bad_coaction"): [
                f"FAIL comodule/coaction-commutes-{e} [coaction intertwines the endomorphism"
                f" {e}] at entry (4,2): 5 != 0" for e in ("alpha", "beta", "kappa", "nu")
            ] + [
                "FAIL comodule/coassociativity [coacting then comultiplying equals coacting"
                " twice] at entry (14,1): 0 != 4",
                "FAIL comodule/counitality [coacting into the counit lands on the carrier's"
                " alpha] at entry (1,1): 5 != 0",
            ],
            ("comodule", "over_bad_epsilon"): [
                "FAIL comodule/counitality [coacting into the counit lands on the carrier's"
                " alpha] at entry (2,1): 2 != 1",
            ],
        }
        summaries = {"bad_delta": "comonoid: 4/11", "bad_epsilon": "comonoid: 5/11",
                     "bad_coaction": "comodule: 0/6", "over_bad_epsilon": "comodule: 5/6"}
        for (kind, name), lines in expected.items():
            assert main(["check", path, "--structure", kind, "--name", name]) == 1
            out = capsys.readouterr().out.splitlines()
            assert [line for line in out if line.startswith("FAIL")] == lines
            assert out[-1] == f"{summaries[name]} diagrams commute"

    def test_unknown_name_exits_two(self, c3_file, capsys):
        assert main(["check", c3_file, "--structure", "bimonoid",
                     "--name", "ghost"]) == 2

    def test_parse_failure_exits_two(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["check", str(path), "--structure", "bimonoid",
                     "--name", "x"]) == 2

    @pytest.mark.parametrize("content", [b'{"format_version": "\xff1"}',
                                         b"[" * 200_000 + b"]" * 200_000],
                             ids=["non-utf8", "nested-200k"])
    def test_undecodable_file_exits_two(self, tmp_path, content, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["check", str(path), "--structure", "bimonoid",
                     "--name", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dense_map_past_entry_budget_exits_two(self, tmp_path, capsys):
        # a unitriangular endomorphism is no permutation, so its powers stay
        # dense; the coherence morphisms act leg by leg, so the semigroup check
        # builds no 12167x12167 map, but delta_5 is a 6436343x23 map
        n = 23
        upper = [str(int(i <= j)) for i in range(n) for j in range(n)]
        doc = {"format_version": "1", "field": {"kind": "prime_field", "modulus": 7},
               "objects": {"big": {"dim": n, "alpha": upper, "beta": upper,
                                   "kappa": upper, "nu": upper}},
               "structures": {"s": {"object": "big", "mu": ["0"] * n ** 3,
                                    "delta": ["0"] * n ** 3}}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--structure", "semigroup", "--name", "s"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "semigroup: 5/5 diagrams commute"
        assert main(["delta", str(path), "--name", "s", "-n", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "6436343x23" in err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json"),
                     "--structure", "bimonoid", "--name", "x"]) == 2

    def test_classical_and_plain(self, c3_file):
        assert main(["check", c3_file, "--structure", "bimonoid",
                     "--name", "classical"]) == 0
        # untwisted maps on twisted endomorphisms are not a BiHom structure
        assert main(["check", c3_file, "--structure", "bimonoid",
                     "--name", "plain"]) == 1


class TestCoherenceCommand:
    def test_symbolic_deterministic_across_threads(self, capsys):
        outputs = []
        for _ in range(2):
            code = main(["coherence", "--level", "symbolic",
                         "--trials", "60", "--seed", "42"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_matrix_level(self, capsys):
        code = main(["coherence", "--level", "matrix", "--trials", "6",
                     "--seed", "7", "--max-dim", "2"])
        assert code == 0
        assert "6/6" in capsys.readouterr().out

    def test_large_modulus(self, capsys):
        assert main(["coherence", "--modulus", str(2 ** 61 - 1), "--trials", "3"]) == 0
        assert main(["coherence", "--modulus", str(2 ** 89 - 1), "--trials", "3"]) == 2
        assert "too large" in capsys.readouterr().err

    def test_zero_trials_exits_two(self):
        assert main(["coherence", "--trials", "0"]) == 2

    def test_bad_bounds_exit_two(self):
        assert main(["coherence", "--trials", "5", "--max-dim", "0"]) == 2

    def test_unknown_level_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["coherence", "--level", "banana"])
        assert exc.value.code == 2


def _drop(*path):
    """An edit that removes the key at the key path of the instance document."""
    return lambda doc: reduce(getitem, path[:-1], doc).pop(path[-1])


class TestModuleAndObjectErrors:
    """Missing or dangling module and object entries exit 2 with one line."""

    @pytest.mark.parametrize("edit, kind, name, message", [
        (lambda doc: None, "module", "nope", "no module named 'nope'"),
        (_drop("modules", "regular", "action"), "module", "regular",
         "module regular has no action"),
        (_drop("modules", "regular", "coaction"), "comodule", "regular",
         "module regular has no coaction"),
        (_drop("modules", "regular", "coaction"), "hopf-module", "regular",
         "module regular needs action and coaction"),
        (_set(("modules", "regular", "carrier"), "zz"), "module", "regular",
         "module regular: unknown object 'zz'"),
        (_set(("modules", "regular"), {"carrier": "c3_sq", "over": "twisted"}), "module",
         "regular", "module regular: needs an action or a coaction"),
        (_set(("objects", "c3", "dim"), "x"), "bimonoid", "twisted", "object c3: bad dim 'x'"),
        (_drop("objects", "c3", "beta"), "bimonoid", "twisted",
         "object c3: alpha and beta are required"),
    ], ids=["unknown-module", "no-action", "no-coaction", "hopf-without-coaction",
            "unknown-carrier", "no-maps", "bad-dim", "no-beta"])
    def test_one_error_line(self, c3_file, capsys, edit, kind, name, message):
        with open(c3_file) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(c3_file, "w") as fh:
            json.dump(doc, fh)
        assert main(["check", c3_file, "--structure", kind, "--name", name]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _drop_oplax_pair(doc):
    for key in ("kappa", "nu"):
        doc["objects"]["c3_sq"].pop(key)


class TestMissingMapsAndEndomorphisms:
    """A structure or object without a map that a command needs is an input
    error: exit 2 with one line, before any diagram runs."""

    @pytest.mark.parametrize("edit, argv, message", [
        (_drop("structures", "twisted", "mu"), ["check", "--structure", "bimonoid"],
         "structure has no mu"),
        (_drop("structures", "twisted", "mu"), ["antipode"], "structure has no mu"),
        (_drop("structures", "twisted", "delta"), ["delta", "-n", "3"],
         "structure has no delta"),
        (_drop_oplax_pair, ["check", "--structure", "bimonoid"],
         "object has no kappa/nu endomorphisms"),
        (_drop_oplax_pair, ["antipode"], "object has no kappa/nu endomorphisms"),
    ], ids=["check-without-mu", "antipode-without-mu", "delta-without-delta",
            "check-without-kappa-nu", "antipode-without-kappa-nu"])
    def test_one_error_line(self, c3_file, capsys, edit, argv, message):
        with open(c3_file) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(c3_file, "w") as fh:
            json.dump(doc, fh)
        assert main([argv[0], c3_file, "--name", "twisted", *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestTwistCommand:
    @pytest.mark.parametrize("maps, direction", [(("delta", "epsilon"), COMONOID),
                                                 (("mu", "eta"), MONOID)],
                             ids=["comonoid", "monoid"])
    def test_half_structure_twists_its_own_side(self, tmp_path, capsys, maps, direction):
        data = example_instance()
        plain = data.structures["plain"]
        half = StructureBundle(plain.obj, **{key: getattr(plain, key) for key in maps})
        data.structures["half"], data.structure_objects["half"] = half, "c3_sq"
        path, out = str(tmp_path / "half.json"), str(tmp_path / "out.json")
        save_instance(path, data)
        assert main(["twist", path, "--name", "half", "-o", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert load_instance(out).structures["half"] == yau_twist(PlainStructure(half), direction)
        assert set(json.load(open(out))["structures"]["half"]) == {"object", *maps}

    def test_round_trip_is_byte_identical(self, c3_file, tmp_path, capsys):
        twisted = str(tmp_path / "twisted.json")
        back = str(tmp_path / "back.json")
        assert main(["twist", c3_file, "--name", "plain",
                     "--direction", "twist", "-o", twisted]) == 0
        assert main(["twist", twisted, "--name", "plain",
                     "--direction", "untwist", "-o", back]) == 0
        assert open(back).read() == open(c3_file).read()
        original = json.load(open(c3_file))
        round_tripped = json.load(open(back))
        assert original["structures"]["plain"] == round_tripped["structures"]["plain"]

    def test_twist_output_matches_fixture(self, c3_file, tmp_path):
        out = str(tmp_path / "out.json")
        main(["twist", c3_file, "--name", "plain", "-o", out])
        doc = json.load(open(out))
        original = json.load(open(c3_file))
        assert doc["structures"]["plain"] == original["structures"]["twisted"] \
            | {"object": "c3_sq"}

    def test_untwist_singular_exits_one(self, tmp_path):
        from bihomcheck.coherence import BiHomObject
        from bihomcheck.exactlin import DenseMap
        from bihomcheck.fixtures import classical_c3
        from bihomcheck.structures import StructureBundle
        c = classical_c3()
        zero = DenseMap.zero(F7, 3, 3)
        ident = DenseMap.identity(F7, 3)
        obj = BiHomObject(3, F7, ident, ident, zero, ident)
        data = InstanceData(F7, {"o": obj},
                            {"s": StructureBundle(obj, mu=c.mu, eta=c.eta)},
                            {"s": "o"}, {})
        path = tmp_path / "sing.json"
        save_instance(str(path), data)
        assert main(["twist", str(path), "--name", "s",
                     "--direction", "untwist", "-o", str(tmp_path / "o.json")]) == 1


class TestAntipodeCommand:
    def test_twisted_prints_squaring_matrix(self, c3_file, capsys):
        assert main(["antipode", c3_file, "--name", "twisted",
                     "--method", "direct"]) == 0
        out = capsys.readouterr().out
        assert "antipode" in out
        assert "[1 0 0]" in out and "[0 0 1]" in out and "[0 1 0]" in out

    def test_both_methods_agree(self, c3_file, capsys):
        main(["antipode", c3_file, "--name", "twisted", "--method", "direct"])
        direct = capsys.readouterr().out
        main(["antipode", c3_file, "--name", "twisted", "--method", "untwist"])
        via = capsys.readouterr().out
        assert direct == via

    def test_no_antipode_exits_one(self, non_hopf_file, capsys):
        assert main(["antipode", non_hopf_file, "--name", "nohopf"]) == 1
        assert "NoAntipode" in capsys.readouterr().out

    def test_rejected_call_leaves_next_call_unchanged(self, c3_file, capsys):
        # the parser is built once per process: neither another call's options
        # nor a call that argparse rejects may change what the next call does
        argv = ["antipode", c3_file, "--name", "twisted"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv + ["--method", "untwist"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["antipode"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == first


class TestDeltaCommand:
    def test_prints_and_sweeps(self, c3_file, capsys):
        code = main(["delta", c3_file, "--name", "twisted", "-n", "3",
                     "--check-all-sequences", "--max-K", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta_3: 27x3" in out
        assert "holds for all sequences" in out

    def test_documented_full_sweep(self, c3_file):
        assert main(["delta", c3_file, "--name", "twisted", "-n", "6",
                     "--check-all-sequences", "--max-K", "5"]) == 0

    def test_perturbed_delta_sweep_exits_one(self, tmp_path, capsys):
        data = example_instance()
        t = data.structures["twisted"]
        bumped = (int(t.delta.entry(0, 0).value) + 1) % 7
        data.structures["twisted"] = t.replace(
            delta=t.delta.with_entry(0, 0, bumped))
        path = tmp_path / "bad.json"
        save_instance(str(path), data)
        code = main(["delta", str(path), "--name", "twisted", "-n", "2",
                     "--check-all-sequences", "--max-K", "3"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    @staticmethod
    def twisted_dual_file(tmp_path, order):
        b = yau_twist(PlainStructure(dual_cyclic_bundle(F7, order, 2)), BIMONOID)
        path = tmp_path / f"dual{order}.json"
        save_instance(str(path), InstanceData(F7, {"o": b.obj}, {"t": b}, {"t": "o"}, {}))
        return str(path)

    def test_sweep_on_twisted_dual_c5(self, tmp_path, capsys):
        # a dense coherence map here would be 15625 x 15625, past ENTRY_BUDGET
        code = main(["delta", self.twisted_dual_file(tmp_path, 5), "--name", "t",
                     "-n", "6", "--check-all-sequences", "--max-K", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "delta_6: 15625x5" and len(out) == 1 + 15625 + 1
        assert out[-1] == ("generalized coassociativity holds for all sequences "
                           "with K+Z <= 4")

    def test_delta_9_on_twisted_dual_c3(self, tmp_path, capsys):
        # a dense coherence map here would be 19683 x 19683, past ENTRY_BUDGET
        code = main(["delta", self.twisted_dual_file(tmp_path, 3), "--name", "t", "-n", "9"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "delta_9: 19683x3" and len(out) == 1 + 19683

    def test_sweep_without_counit_prints_then_exits_two(self, tmp_path, capsys):
        # the matrix is printed before the sweep asks for the counit
        t = example_instance().structures["twisted"].replace(epsilon=None)
        path = tmp_path / "noeps.json"
        save_instance(str(path), InstanceData(F7, {"o": t.obj}, {"t": t}, {"t": "o"}, {}))
        matrix = ("delta_2: 9x3\n  [1 0 0]\n  [0 0 0]\n  [0 0 0]\n  [0 0 0]\n  [0 0 1]\n"
                  "  [0 0 0]\n  [0 0 0]\n  [0 0 0]\n  [0 1 0]\n")
        argv = ["delta", str(path), "--name", "t", "-n", "2"]
        assert main(argv) == 0
        assert capsys.readouterr() == (matrix, "")
        assert main(argv + ["--check-all-sequences"]) == 2
        assert capsys.readouterr() == (matrix, "error: structure has no epsilon\n")

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_budget_boundary_is_the_result(self, c3_file, capsys, monkeypatch, n):
        # delta_n is built leg by leg, so its largest dense map is the a^n x a
        # result itself: with a = 3 and a budget of 3^6 entries, n = 5 fits
        # exactly and n = 6 does not (the a^n x a^2 Kronecker product decided
        # before, stopping n = 5 too)
        monkeypatch.setattr(exactlin, "ENTRY_BUDGET", 3 ** 6)
        twisted = example_instance().structures["twisted"]
        code = main(["delta", c3_file, "--name", "twisted", "-n", str(n)])
        out, err = capsys.readouterr()
        if 3 ** (n + 1) > 3 ** 6:
            with pytest.raises(TooLarge):
                delta_n(twisted, n)
            assert code == 2 and out == ""
            assert err == f"error: a dense {3 ** n}x3 map is past the budget of 729 entries\n"
        else:
            assert delta_n(twisted, n).dst_dim == 3 ** n
            assert code == 0 and err == ""
            assert out.splitlines()[0] == f"delta_{n}: {3 ** n}x3"
            assert len(out.splitlines()) == 1 + 3 ** n

    @pytest.mark.parametrize("n", [6, 9, 40])
    def test_arity_past_budget_is_refused_before_any_product(self, c3_file, capsys,
                                                             monkeypatch, n):
        # the loop alone would build arities 3..5 and then be stopped by the
        # same 729x3 product at arity 6, whatever n
        twisted = example_instance().structures["twisted"]
        monkeypatch.setattr(exactlin, "ENTRY_BUDGET", 3 ** 6)
        products = []
        monkeypatch.setattr(structures, "kron_compose", lambda *args: products.append(args))
        message = "a dense 729x3 map is past the budget of 729 entries"
        for iterated in (delta_n, mu_n):
            for variant in (ITERATIVE, ALTERNATIVE):
                with pytest.raises(TooLarge, match=f"^{message}$"):
                    iterated(twisted, n, variant)
        assert main(["delta", c3_file, "--name", "twisted", "-n", str(n)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert products == []

    def test_printed_rows_span_blocks(self, c3_file, capsys):
        # 3^10 rows of 3 entries are written as three blocks of value_blocks
        d = delta_n(example_instance().structures["twisted"], 10)
        assert main(["delta", c3_file, "--name", "twisted", "-n", "10"]) == 0
        rows = "".join("  [" + " ".join(str(v) for v in row) + "]\n" for row in d.rows())
        assert capsys.readouterr() == ("delta_10: 59049x3\n" + rows, "")

    @pytest.mark.parametrize("bounds", [["-n", "-1"],
                                        ["--check-all-sequences", "--max-K", "-2"]])
    def test_negative_bounds_exit_two(self, c3_file, capsys, bounds):
        assert main(["delta", c3_file, "--name", "twisted"] + bounds) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def kernel_call_counts(monkeypatch):
    """A Counter of the compose, kron, power and first_difference calls made
    while monkeypatch is active: each function is wrapped under every
    bihomcheck module name bound to it, as the modules import it by name."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("compose", "kron"):
        original = getattr(exactlin, name)
        for module in [m for n, m in sys.modules.items() if n.startswith("bihomcheck")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    for name in ("power", "first_difference"):
        monkeypatch.setattr(exactlin.DenseMap, name, counted(name, getattr(exactlin.DenseMap, name)))
    return counts


@pytest.mark.parametrize("argv", [
    ["check", "{c3}", "--structure", "bimonoid", "--name", "twisted"],
    ["delta", "{c3}", "--name", "twisted", "-n", "3", "--check-all-sequences", "--max-K", "4"],
    ["coherence", "--level", "matrix", "--trials", "8", "--seed", "3"],
], ids=["check", "delta-sweep", "coherence-matrix"])
def test_a_repeated_request_does_the_same_work(c3_file, capsys, monkeypatch, argv):
    """Each command is one process, so nothing a request builds may be kept for
    the next: run twice in one process, a request prints the same bytes and
    makes the same kernel calls.  The unit objects, built once per field by
    design, are cleared before each run as a new process would start."""
    counts = kernel_call_counts(monkeypatch)
    argv = [a.format(c3=c3_file) for a in argv]
    runs = []
    for _ in range(2):
        coherence.unit_object.cache_clear()
        counts.clear()
        code = main(argv)
        runs.append((code, capsys.readouterr().out, dict(counts)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and set(runs[0][2]) >= {"compose", "first_difference"}
