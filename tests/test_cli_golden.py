"""Byte-for-byte CLI goldens.

Each case runs one `bihom` command line in process, in a directory holding
instance files built from the fixtures, and compares its exit code, stdout,
stderr and every file it writes with the recorded goldens in
data/cli_golden.json.  Record new cases with

    PYTHONPATH=src python tests/test_cli_golden.py

which runs only the cases missing from data/cli_golden.json, appends their
goldens, and leaves every recorded golden byte for byte as it is.  To
re-record a case after a deliberate output change, delete its entry from
data/cli_golden.json first.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from bihomcheck.cli import InstanceData, ModuleEntry, main, save_instance
from bihomcheck.exactlin import GF, QQ
from bihomcheck.fixtures import (
    cyclic_group_bundle,
    dual_cyclic_bundle,
    idempotent_monoid_bialgebra,
    sweedler_bundle,
)
from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# file stem -> (field, cyclic order, twisting power).  A power that is not
# coprime to the order twists along endomorphisms that are not invertible:
# the antipode is not unique, untwist is refused, and the file has no dual.
INSTANCES = {"f7_c3": (GF(7), 3, 2), "q_c3": (QQ, 3, 2), "q_c4": (QQ, 4, 3),
             "f7_c5": (GF(7), 5, 2), "q_c5": (QQ, 5, 3),
             "f7_c6": (GF(7), 6, 2), "q_c6": (QQ, 6, 2), "q_c12": (QQ, 12, 2)}

CASES = []


def _case(*argv, writes=()):
    CASES.append((list(argv), list(writes)))


for _kind in ("semigroup", "cosemigroup", "monoid", "comonoid", "bisemigroup", "bimonoid"):
    _case("check", "f7_c3.json", "--structure", _kind, "--name", "twisted")
for _kind in ("module", "comodule", "hopf-module"):
    _case("check", "f7_c3.json", "--structure", _kind, "--name", "regular")
for _stem in ("f7_c3", "q_c4"):
    for _kind, _name in (("bimonoid", "bad_mu"), ("bimonoid", "bad_delta"),
                         ("semigroup", "bad_mu"), ("cosemigroup", "bad_delta")):
        _case("check", f"{_stem}.json", "--structure", _kind, "--name", _name)
_case("check", "q_c4.json", "--structure", "hopf-module", "--name", "regular")
_case("check", "q_c4.json", "--structure", "bimonoid", "--name", "dual")
_case("check", "f7_c5.json", "--structure", "bimonoid", "--name", "classical")
_case("check", "f7_c5.json", "--structure", "bimonoid", "--name", "twisted")
_case("check", "q_c5.json", "--structure", "bimonoid", "--name", "twisted")
for _stem, _name in (("f7_c3", "twisted"), ("q_c3", "dual"), ("q_c4", "twisted"),
                     ("f7_c5", "twisted")):
    for _method in ("direct", "untwist"):
        _case("antipode", f"{_stem}.json", "--name", _name, "--method", _method)
_case("antipode", "q_nohopf.json", "--name", "nohopf")
for _stem in ("f7_c6", "q_c6"):
    for _method in ("direct", "untwist"):
        _case("antipode", f"{_stem}.json", "--name", "twisted", "--method", _method)
    _case("check", f"{_stem}.json", "--structure", "bimonoid", "--name", "twisted")
    _case("delta", f"{_stem}.json", "--name", "twisted", "-n", "2",
          "--check-all-sequences", "--max-K", "4")
# a non-unique antipode over Q whose system (288 x 145) is large enough for
# the cost of its elimination to show
for _method in ("direct", "untwist"):
    _case("antipode", "q_c12.json", "--name", "twisted", "--method", _method)
# Sweedler's H_4 twisted along x -> lam x, whose signs and entries other than
# 0 and 1 reach the antipode systems
for _stem in ("q_h4", "f7_h4"):
    for _method in ("direct", "untwist"):
        _case("antipode", f"{_stem}.json", "--name", "twisted", "--method", _method)
_case("twist", "f7_c3.json", "--name", "plain", "-o", "out.json", writes=["out.json"])
_case("twist", "q_c4.json", "--name", "twisted", "--direction", "untwist",
      "-o", "out.json", writes=["out.json"])
_case("twist", "f7_c5.json", "--name", "dual_plain", "-o", "out.json", writes=["out.json"])
_case("delta", "f7_c3.json", "--name", "twisted", "-n", "3",
      "--check-all-sequences", "--max-K", "4")
_case("delta", "q_c4.json", "--name", "dual", "-n", "2",
      "--check-all-sequences", "--max-K", "3")
_case("delta", "f7_c3.json", "--name", "bad_delta", "-n", "0",
      "--check-all-sequences", "--max-K", "3")
_case("delta", "f7_c5.json", "--name", "twisted", "-n", "3",
      "--check-all-sequences", "--max-K", "5")
_case("delta", "q_c5.json", "--name", "twisted", "-n", "2",
      "--check-all-sequences", "--max-K", "5")
_case("delta", "q_c4.json", "--name", "bad_delta", "-n", "2",
      "--check-all-sequences", "--max-K", "4")
_case("coherence", "--level", "symbolic", "--trials", "300", "--seed", "1")
_case("coherence", "--level", "matrix", "--trials", "8", "--seed", "3")
_case("coherence", "--level", "matrix", "--trials", "4", "--seed", "2", "--modulus", "11")
_case("check", "missing.json", "--structure", "bimonoid", "--name", "twisted")
_case("antipode", "f7_c3.json", "--name", "nosuch")
_case("coherence", "--trials", "0")
# the matrix bounds of the benchmark's coherence requests
_case("coherence", "--level", "matrix", "--trials", "10", "--seed", "64", "--modulus", "7",
      "--max-n", "3", "--max-m", "2", "--max-k", "1", "--max-dim", "2")
# both coherence levels over F_7 and F_2: the benchmark's matrix bounds, the same
# with two objects per slot, and the symbolic identities
for _modulus in ("7", "2"):
    for _seed in ("5", "17", "29"):
        for _max_k in ("1", "2"):
            _case("coherence", "--level", "matrix", "--trials", "10", "--seed", _seed,
                  "--modulus", _modulus, "--max-n", "3", "--max-m", "2", "--max-k", _max_k,
                  "--max-dim", "2")
        _case("coherence", "--level", "symbolic", "--trials", "240", "--seed", _seed,
              "--modulus", _modulus)


def _bumped(bundle, key, i, j):
    m = getattr(bundle, key)
    return bundle.replace(**{key: m.with_entry(i, j, m.entry(i, j) + 1)})


def _cyclic_instance(field, order, power) -> InstanceData:
    classical = cyclic_group_bundle(field, order, 1)
    plain = cyclic_group_bundle(field, order, power)
    twisted = yau_twist(PlainStructure(plain), BIMONOID)
    structures = {"classical": classical, "plain": plain, "twisted": twisted,
                  "bad_mu": _bumped(twisted, "mu", 0, 0),
                  "bad_delta": _bumped(twisted, "delta", 1, 0)}
    if math.gcd(order, power) == 1:
        dual_plain = dual_cyclic_bundle(field, order, power)
        structures.update(dual_plain=dual_plain,
                          dual=yau_twist(PlainStructure(dual_plain), BIMONOID))
    objects = {"c": classical.obj, "c_pow": plain.obj}
    structure_objects = {name: "c" if name == "classical" else "c_pow" for name in structures}
    modules = {"regular": ModuleEntry("c_pow", "twisted",
                                      action=twisted.mu, coaction=twisted.delta)}
    return InstanceData(field, objects, structures, structure_objects, modules)


def _write_instances(directory: Path):
    for stem, (field, order, power) in INSTANCES.items():
        save_instance(str(directory / f"{stem}.json"), _cyclic_instance(field, order, power))
    for stem, field, lam in (("q_h4", QQ, Fraction(2, 5)), ("f7_h4", GF(7), 3)):
        twisted = yau_twist(PlainStructure(sweedler_bundle(field, lam)), BIMONOID)
        save_instance(str(directory / f"{stem}.json"),
                      InstanceData(field, {"h4": twisted.obj}, {"twisted": twisted},
                                   {"twisted": "h4"}, {}))
    nh = idempotent_monoid_bialgebra(QQ)
    save_instance(str(directory / "q_nohopf.json"),
                  InstanceData(QQ, {"m2": nh.obj}, {"nohopf": nh}, {"nohopf": "m2"}, {}))


def _run(directory: Path, argv, writes) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for name in writes:
        path = directory / name
        files[name] = path.read_text(encoding="utf-8")
        path.unlink()
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


@contextlib.contextmanager
def _instance_dir(directory: Path):
    """Write the instance files into directory and run inside it."""
    _write_instances(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield directory
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    with _instance_dir(tmp_path_factory.mktemp("golden")) as directory:
        yield directory


@pytest.fixture(scope="module")
def goldens():
    return {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv, writes", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_cli_output_is_golden(workdir, goldens, argv, writes):
    assert _run(workdir, argv, writes) == goldens[tuple(argv)]


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(tuple(a) for a, _ in CASES)


def _record():
    """Append the goldens of the cases that have none."""
    records = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []
    recorded = {tuple(g["argv"]) for g in records}
    missing = [(argv, writes) for argv, writes in CASES if tuple(argv) not in recorded]
    if missing:
        with tempfile.TemporaryDirectory() as tmp, _instance_dir(Path(tmp)) as directory:
            records += [_run(directory, argv, writes) for argv, writes in missing]
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(missing)} new cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
