"""Distinct work once per request, against references that do all of it.

- check_bimonoid, check_hopf_module and yau_twist build and compare the
  diagram of each distinct endomorphism once, and give every name of a slot
  holding that map the same outcome.  Every fixture elsewhere puts one map in
  all four slots, so these objects carry distinct endomorphisms, four equal
  but distinct maps, and perturbations that break the laws of one slot only;
  each entry must equal compare_entry of its own diagram, built for that
  name alone.
- instance_from_json reads equal matrices (lists of ints and strings at one
  shape) once per document: they load as one map, lists that differ in type
  never share, errors name the first occurrence as before, round trips stay
  byte-identical, and the bench-style files parse 9 and 7 matrices, not 22
  and 14.
"""

import contextlib
import dataclasses
import io
import json
import re
from fractions import Fraction
from unittest import mock

import pytest

from bihomcheck import cli
from bihomcheck.cli import (
    InstanceData,
    ModuleEntry,
    dumps_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from bihomcheck.coherence import BiHomObject
from bihomcheck.errors import InvariantViolation, MissingEndomorphism, ParseError
from bihomcheck.exactlin import GF, QQ, DenseMap, _canonical, compose, kron
from bihomcheck.fixtures import (
    cyclic_group_bundle,
    dual_cyclic_bundle,
    example_instance,
    group_power_endo,
    sweedler_bundle,
)
from bihomcheck.report import compare_entry
from bihomcheck.structures import (
    MAP_SHAPES,
    ComoduleInst,
    ModuleInst,
    StructureBundle,
    check_bimonoid,
    check_hopf_module,
    check_module,
    induced_module_action,
    morphism_sides,
    regular_comodule,
    regular_module,
)
from bihomcheck.twist import (
    BIMONOID,
    COMONOID,
    MONOID,
    PlainStructure,
    yau_twist,
)

from conftest import direction_id

F7 = GF(7)
FIELDS = [F7, QQ]
ENDOS = ("alpha", "beta", "kappa", "nu")


def twin(m):
    """An equal map that is a distinct object, held densely."""
    return _canonical(m.field, m._num.copy(), m._den)


def with_endos(bundle, *endos):
    return bundle.replace(obj=BiHomObject(bundle.obj.dim, bundle.obj.field, *endos))


def diagonal(field, values):
    n = len(values)
    return DenseMap.from_flat(field, n, n, [values[i] if i == j else 0
                                            for i in range(n) for j in range(n)])


def basis_map(field, dst, images):
    """The 0/1 map sending source basis vector j to target basis vector images[j]."""
    return DenseMap.from_flat(field, dst, len(images), [
        int(images[j] == i) for i in range(dst) for j in range(len(images))])


def product_bundle(field, m, n):
    """k[C_m x C_n] on the basis a * n + b, with identity endomorphisms, and
    (a, b) -> (a, 0) and (a, b) -> (0, b): commuting bialgebra endomorphisms
    that are not invertible."""
    d = m * n
    cells = [(a, b) for a in range(m) for b in range(n)]
    index = {c: i for i, c in enumerate(cells)}
    one = DenseMap.identity(field, d)
    bundle = StructureBundle(
        BiHomObject(d, field, one, one, one, one),
        mu=basis_map(field, d, [index[(a + c) % m, (b + e) % n]
                                for a, b in cells for c, e in cells]),
        eta=basis_map(field, d, [0]), delta=basis_map(field, d * d, [i * d + i for i in range(d)]),
        epsilon=DenseMap.from_flat(field, 1, d, [1] * d))
    return (bundle, basis_map(field, d, [a * n for a, _ in cells]),
            basis_map(field, d, [b for _, b in cells]))


def plain_cases(field):
    """name -> classical bundle whose four endomorphism slots hold
    commuting bialgebra endomorphisms, as distinct maps or shared ones."""
    powers = [group_power_endo(field, 5, e) for e in (2, 3, 4, 1)]
    phi = group_power_endo(field, 5, 2)
    lams = (2, 3, Fraction(1, 2), -1) if field == QQ else (2, 3, 4, 6)
    product, left, right = product_bundle(field, 2, 3)
    return {
        "group C_5, powers 2 3 4 1": with_endos(cyclic_group_bundle(field, 5), *powers),
        "dual C_5, powers 2 3 4 1": with_endos(dual_cyclic_bundle(field, 5), *powers),
        "group C_5, four equal maps": with_endos(
            cyclic_group_bundle(field, 5), phi, twin(phi),
            DenseMap.permutation(field, phi._src_of_dst.copy()),
            DenseMap.from_flat(field, 5, 5, phi.flat_strings())),
        "Sweedler H_4, four scalings": with_endos(
            sweedler_bundle(field), *(diagonal(field, [1, 1, v, v]) for v in lams)),
        "C_2 x C_3, singular, alpha = kappa": with_endos(
            product, left, right, left, DenseMap.identity(field, 6)),
    }


def perturbed(bundle, slot, scale=3):
    """bundle with the endomorphism in slot scaled by `scale` on basis vector 0,
    which every invertible case fixes and no other basis vector reaches: the
    result still commutes with the other slots, but is no longer a morphism of
    the structure maps (scale^2 != scale)."""
    e = getattr(bundle.obj, slot)
    values = [scale] + [1] * (bundle.obj.dim - 1)
    return bundle.replace(obj=dataclasses.replace(
        bundle.obj, **{slot: compose(e, diagonal(bundle.obj.field, values))}))


def cases(field):
    """(name, twisted bundle) pairs: every plain case twisted, and the
    invertible ones with kappa, then alpha, perturbed after the twist."""
    out = []
    for name, plain in plain_cases(field).items():
        twisted = yau_twist(PlainStructure(plain))
        out.append((name, twisted))
        if "singular" not in name:
            out += [(f"{name}, {slot} perturbed", perturbed(twisted, slot))
                    for slot in ("kappa", "alpha")]
    return out


COMMUTES = re.compile(r"^(co)?(semigroup|monoid)/(\w+)-commutes-(\w+)$")
ACTION_COMMUTES = re.compile(r"^(co)?module/(co)?action-commutes-(\w+)$")


def reference_bimonoid_entry(b, entry):
    """compare_entry of the named diagram, built for this name alone."""
    _, _, name, ename = COMMUTES.match(entry.name).groups()
    return compare_entry(entry.name, entry.law,
                         *morphism_sides(b, name, getattr(b.obj, ename)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bimonoid_entries_against_per_name_diagrams(field):
    for name, b in cases(field):
        report = check_bimonoid(b)
        assert len(report.entries) == 26, name
        commutes = [e for e in report.entries if COMMUTES.match(e.name)]
        assert len(commutes) == 16, name
        for entry in commutes:
            assert entry == reference_bimonoid_entry(b, entry), (name, entry.name)
        if "perturbed" in name:  # the perturbed slot fails, and only that slot
            slot = name.rsplit(", ", 1)[1].split()[0]
            failing = {e.name.rsplit("-", 1)[1] for e in commutes if not e.passed}
            assert failing == {slot}, (name, failing)
        else:
            assert report.passed, (name, report.failures())


def reference_action_entry(x, b, rho, co, entry):
    """The action (co = False) or coaction diagram of the named slot, with
    the Kronecker product built densely: e_x . rho against rho . (e_x (x) e_a),
    or rho . e_x against (e_x (x) e_a) . rho."""
    ename = ACTION_COMMUTES.match(entry.name).group(3)
    ex, ea = getattr(x, ename), getattr(b.obj, ename)
    if co:
        return compare_entry(entry.name, entry.law, compose(rho, ex), compose(kron(ex, ea), rho))
    return compare_entry(entry.name, entry.law, compose(ex, rho), compose(rho, kron(ex, ea)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hopf_module_entries_against_per_name_diagrams(field):
    for name, b in cases(field):
        report = check_hopf_module(regular_module(b), regular_comodule(b))
        assert len(report.entries) == 13, name
        commutes = [e for e in report.entries if ACTION_COMMUTES.match(e.name)]
        assert len(commutes) == 8, name
        for entry in commutes:
            co = entry.name.startswith("co")
            # on the regular module these are the structure maps' own diagrams
            _, _, ename = ACTION_COMMUTES.match(entry.name).groups()
            sides = morphism_sides(b, "delta" if co else "mu", getattr(b.obj, ename))
            assert entry == compare_entry(entry.name, entry.law, *sides), (name, entry.name)
            assert entry == reference_action_entry(b.obj, b, b.delta if co else b.mu, co, entry)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_module_entries_with_carrier_endomorphisms_of_their_own(field):
    """The carrier a (x) a of an induced module holds the Kronecker squares of
    a's endomorphisms, so no (carrier, structure) pair of maps is a pair of one
    map.  With the carrier's alpha also in its kappa slot, the alpha and kappa
    pairs share their first map and differ in the second unless a holds one
    map as alpha and kappa too; then kappa's law fails where a's kappa is not
    its alpha."""
    for name, b in cases(field):
        if "perturbed" in name:
            continue  # induced modules need a bimonoid
        mod = induced_module_action([regular_module(b)] * 2)
        x = mod.carrier
        for carrier in (x, dataclasses.replace(x, kappa=twin(x.kappa)),
                        dataclasses.replace(x, kappa=x.alpha)):
            report = check_module(ModuleInst(carrier, mod.action, b))
            commutes = [e for e in report.entries if ACTION_COMMUTES.match(e.name)]
            assert len(commutes) == 4
            for entry in commutes:
                assert entry == reference_action_entry(carrier, b, mod.action, False, entry)
            assert report.passed == (carrier.kappa == x.kappa), (name, report.failures())


TWISTED_NAMES = {COMONOID: ("alpha", "beta"), MONOID: ("kappa", "nu"),
                 BIMONOID: ENDOS}
TWISTED_MAPS = {COMONOID: ("delta", "epsilon"), MONOID: ("mu", "eta"),
                BIMONOID: tuple(MAP_SHAPES)}


def reference_twist_refusal(p, direction):
    """yau_twist's refusal as (error type, message), every (slot, map) diagram
    compared alone; None when it twists.  Absent endomorphisms are refused
    before any diagram."""
    b = p.bundle
    missing = [f"{ename} missing" for ename in TWISTED_NAMES[direction]
               if ename not in b.obj.endos()]
    if missing:
        return MissingEndomorphism, "; ".join(missing)
    failures = []
    for ename in TWISTED_NAMES[direction]:
        e = b.obj.endos()[ename]
        failures += [f"{ename} is not a morphism for {m}" for m in MAP_SHAPES
                     if m in TWISTED_MAPS[direction] and getattr(b, m) is not None
                     and not compare_entry(m, "", *morphism_sides(b, m, e)).passed]
    return (InvariantViolation, "; ".join(failures)) if failures else None


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("direction", [COMONOID, MONOID, BIMONOID], ids=direction_id)
def test_twist_validation_against_per_name_diagrams(field, direction):
    plains = []
    for name, plain in plain_cases(field).items():
        plains.append((name, plain))
        if "singular" not in name:
            plains += [(f"{name}, {slot} perturbed", perturbed(plain, slot))
                       for slot in ("kappa", "alpha", "nu")]
    plains.append(("no kappa or nu", plains[0][1].replace(
        obj=dataclasses.replace(plains[0][1].obj, kappa=None, nu=None))))
    seen = set()
    for name, plain in plains:
        want = reference_twist_refusal(PlainStructure(plain), direction)
        seen.add(want and want[0])
        if want is None:
            yau_twist(PlainStructure(plain), direction)
        else:
            with pytest.raises(want[0]) as info:
                yau_twist(PlainStructure(plain), direction)
            assert type(info.value) is want[0] and str(info.value) == want[1], name
    # every outcome occurs; only the comonoid side twists without kappa and nu
    assert seen == {None, InvariantViolation} | (
        set() if direction == COMONOID else {MissingEndomorphism})


# -- ingest: equal matrices read once ---------------------------------------

def object_doc(field_doc, **endos):
    return {"format_version": "1", "field": field_doc,
            "objects": {"a": {"dim": 1, **endos}}}


F7_DOC, Q_DOC = {"kind": "prime_field", "modulus": 7}, {"kind": "rationals"}


def test_equal_lists_load_as_one_map():
    data = instance_from_json(instance_to_json(example_instance(F7)))
    c3, sq = data.objects["c3"], data.objects["c3_sq"]
    assert c3.alpha is c3.beta is c3.kappa is c3.nu
    assert sq.alpha is sq.beta is sq.kappa is sq.nu and sq.alpha is not c3.alpha
    structures, regular = data.structures, data.modules["regular"]
    assert structures["plain"].eta is structures["twisted"].eta is structures["classical"].eta
    assert structures["plain"].mu is structures["classical"].mu
    assert regular.action is structures["twisted"].mu
    assert regular.coaction is structures["twisted"].delta
    assert structures["twisted"].mu is not structures["plain"].mu


@pytest.mark.parametrize("field_doc", [F7_DOC, Q_DOC], ids=["F_7", "Q"])
def test_lists_that_differ_in_type_never_share(field_doc):
    data = instance_from_json(object_doc(field_doc, alpha=[1], beta=["1"], kappa=["01"], nu=[1]))
    a = data.objects["a"]
    assert a.alpha is a.nu
    assert len({id(a.alpha), id(a.beta), id(a.kappa)}) == 3
    assert a.alpha == a.beta == a.kappa  # equal values, read separately
    for bad, text in ((True, "true"), (1.0, "1.0")):  # == 1, and hash(1), but not read as 1
        with pytest.raises(ParseError, match=rf"^object a\.beta: entry {re.escape(text)} is not "):
            instance_from_json(object_doc(field_doc, alpha=[1], beta=[bad]))


def test_lists_that_differ_only_in_shape_never_share():
    doc = object_doc(F7_DOC, alpha=[1], beta=[1])
    doc["structures"] = {"s": {"object": "a", "eta": [1], "epsilon": [1]}}
    data = instance_from_json(doc)
    assert data.structures["s"].eta is data.objects["a"].alpha  # 1x1, the same shape
    doc["objects"]["b"] = {"dim": 2, "alpha": [1, 0, 0, 1], "beta": [1, 0, 0, 1]}
    doc["structures"]["t"] = {"object": "b", "mu": [1, 0, 0, 0, 0, 0, 0, 1],
                              "delta": [1, 0, 0, 0, 0, 0, 0, 1]}
    t = instance_from_json(doc).structures["t"]
    assert (t.mu.dst_dim, t.mu.src_dim, t.delta.dst_dim, t.delta.src_dim) == (2, 4, 4, 2)


# The text each malformed list gives, as the reader gave it before equal
# lists were shared: the first occurrence is the one named.
MALFORMED = [
    ([1.5], "object a.alpha: entry 1.5 is not an integer or a string"),
    ([None], "object a.alpha: entry null is not an integer or a string"),
    (["x"], "bad residue 'x': invalid literal for int() with base 10: 'x'"),
    ([1, 2], "object a.alpha: expected 1 entries"),
]


@pytest.mark.parametrize("entries, text", MALFORMED)
def test_a_malformed_list_twice_names_its_first_occurrence(entries, text):
    with pytest.raises(ParseError) as info:
        instance_from_json(object_doc(F7_DOC, alpha=entries, beta=entries))
    assert str(info.value) == text
    doc = object_doc(F7_DOC, alpha=[1], beta=[1])
    doc["structures"] = {"s": {"object": "a", "eta": entries},
                         "t": {"object": "a", "eta": entries}}
    with pytest.raises(ParseError) as info:
        instance_from_json(doc)
    assert str(info.value) == text.replace("object a.alpha", "structure s.eta")


def bench_style_instance(field, n, negatives):
    """What the bench writes for twisted k[C_n]: object "a", the plain and
    twisted maps, their regular Hopf module and, with negatives, one
    perturbed mu and one perturbed delta."""
    plain = cyclic_group_bundle(field, n, 2)
    twisted = yau_twist(PlainStructure(plain))
    structures = {"plain": plain, "twisted": twisted}
    if negatives:
        structures["bad_mu"] = twisted.replace(mu=twisted.mu.with_entry(1, 0, 3))
        structures["bad_delta"] = twisted.replace(delta=twisted.delta.with_entry(0, 1, 3))
    return InstanceData(field, {"a": plain.obj}, structures, dict.fromkeys(structures, "a"),
                        {"regular": ModuleEntry("a", "twisted", action=twisted.mu,
                                                coaction=twisted.delta)})


@pytest.mark.parametrize("data", [example_instance(F7), example_instance(QQ),
                                  bench_style_instance(F7, 5, True),
                                  bench_style_instance(QQ, 4, False)],
                         ids=["example F_7", "example Q", "bench F_7 C_5", "bench Q C_4"])
def test_round_trips_stay_byte_identical(tmp_path, data):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_instance(first, data)
    save_instance(second, load_instance(first))
    assert first.read_bytes() == second.read_bytes()
    assert dumps_instance(load_instance(second)) == first.read_text(encoding="utf-8")


def from_flat_calls(argv):
    calls = []
    original = DenseMap.from_flat

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    with mock.patch.object(DenseMap, "from_flat", staticmethod(counting)), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return len(calls)


def test_bench_style_files_parse_each_distinct_matrix_once(tmp_path):
    """22 matrices in the F_7 file, of which 9 are distinct (phi in four
    slots, eta and epsilon in every structure, the twisted maps in the
    module); 14 in the Q file, 7 distinct.  Nothing else in `check` or
    `antipode` reads a matrix."""
    fp, q = tmp_path / "fp.json", tmp_path / "q.json"
    save_instance(fp, bench_style_instance(F7, 5, True))
    save_instance(q, bench_style_instance(QQ, 5, False))
    doc = json.loads(fp.read_text(encoding="utf-8"))
    lists = [v for section in ("objects", "structures", "modules")
             for entry in doc[section].values() for v in entry.values() if isinstance(v, list)]
    assert (len(lists), len({tuple(v) for v in lists})) == (22, 9)
    assert from_flat_calls(["check", str(fp), "--structure", "bimonoid", "--name", "twisted"]) == 9
    assert from_flat_calls(["check", str(fp), "--structure", "hopf-module",
                            "--name", "regular"]) == 9
    assert from_flat_calls(["antipode", str(q), "--name", "twisted"]) == 7
    assert from_flat_calls(["antipode", str(q), "--name", "twisted", "--method", "untwist"]) == 7


def test_shared_maps_give_the_reports_of_separate_ones(tmp_path):
    """The same file read with sharing and with every matrix parsed on its own
    gives the same report for every structure and the Hopf module."""
    path = tmp_path / "fp.json"
    save_instance(path, bench_style_instance(F7, 5, True))
    shared = load_instance(path)
    separate = mock.patch.object(cli, "_matrix_from_json", lambda field, dst, src, data, what,
                                 read: DenseMap.from_flat(field, dst, src, data))
    with separate:
        alone = load_instance(path)
    assert alone.objects["a"].alpha is not alone.objects["a"].beta
    for name in shared.structures:
        assert check_bimonoid(shared.structures[name]) == check_bimonoid(alone.structures[name])

    def hopf_module(data):
        entry, b = data.modules["regular"], data.structures["twisted"]
        return check_hopf_module(ModuleInst(b.obj, entry.action, b),
                                 ComoduleInst(b.obj, entry.coaction, b))

    assert hopf_module(shared) == hopf_module(alone)
