"""Command-line entry points and the JSON instance-file format.

An instance file is a UTF-8 JSON document holding a base field, named objects
(carrier dimension plus endomorphism matrices), named structures (references
to an object plus optional mu/eta/delta/epsilon), and named (co)module
instances.  Matrices are row-major arrays of scalar strings: "p/q" over the
rationals, decimal residues over a prime field, never floats.  Serialization
is canonical (sorted keys, lowest-terms scalars, two-space indent) so
round-trip tests can compare bytes.  Within one read, equal matrices (lists of
ints and strings at one shape) become one map, parsed at their first occurrence.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage, parse
or I/O failure, a missing map or endomorphism, or a dense map past
exactlin.ENTRY_BUDGET.  Randomized commands are reproducible from the seed
alone: trial i draws from its own generator seeded by (seed, i), so no trial's
outcome depends on the others or on the order they run in.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

from .coherence import (
    BiHomObject,
    check_duoidal_figure,
    check_lax_figure,
    exponent_identities,
    random_double_seq,
    random_duoidal_instance,
    random_lax_instance,
)
from .errors import BihomError, InvariantViolation, MissingEndomorphism, MissingMap, ParseError
from .errors import TooLarge, UnknownName
from .exactlin import GF, QQ, DenseMap, FieldTag, RATIONALS
from .report import CheckReport
from .structures import (
    ACTION_SHAPES,
    MAP_SHAPES,
    ComoduleInst,
    ModuleInst,
    StructureBundle,
    check_bimonoid,
    check_bisemigroup,
    check_comodule,
    check_comonoid,
    check_cosemigroup,
    check_hopf_module,
    check_module,
    check_monoid,
    check_semigroup,
    coassoc_sequences,
    delta_n,
    sweep_generalized_coassoc,
)
from .twist import (
    BIMONOID,
    COMONOID,
    DIRECT,
    FOUND,
    MONOID,
    NO_ANTIPODE,
    VIA_UNTWIST,
    PlainStructure,
    antipode_solve,
    untwist,
    yau_twist,
)

FORMAT_VERSION = "1"


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

@dataclass
class ModuleEntry:
    carrier: str
    over: str
    action: Optional[DenseMap] = None
    coaction: Optional[DenseMap] = None


@dataclass
class InstanceData:
    field: FieldTag
    objects: dict
    structures: dict        # name -> StructureBundle
    structure_objects: dict  # name -> object name (for canonical output)
    modules: dict           # name -> ModuleEntry


def _field_to_json(field: FieldTag) -> dict:
    if field.kind == RATIONALS:
        return {"kind": "rationals"}
    return {"kind": "prime_field", "modulus": field.modulus}


def _field_from_json(doc) -> FieldTag:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("field block must carry a kind")
    if doc["kind"] == "rationals":
        return QQ
    if doc["kind"] == "prime_field":
        modulus = doc.get("modulus")
        if isinstance(modulus, bool) or not isinstance(modulus, (int, str)):
            raise ParseError("prime_field needs an integer modulus")
        try:
            return GF(int(modulus))
        except ValueError as exc:
            raise ParseError(f"bad modulus {modulus!r}") from exc
    raise ParseError(f"unknown field kind {doc['kind']!r}")


def _matrix_from_json(field: FieldTag, dst: int, src: int, data, what: str,
                      read: dict) -> DenseMap:
    if not isinstance(data, list) or len(data) != dst * src:
        raise ParseError(f"{what}: expected {dst * src} entries")
    if not set(map(type, data)) <= {int, str}:  # exact types: True and 1.0 never take 1's key
        bad = next(v for v in data if type(v) not in (int, str))
        raise ParseError(f"{what}: entry {json.dumps(bad)} is not an integer or a string")
    key = (dst, src, tuple(data))
    if key not in read:  # from_flat reads each distinct entry once
        read[key] = DenseMap.from_flat(field, dst, src, data)
    return read[key]


def _maps_from_json(field: FieldTag, doc: dict, shapes: dict, what: str, read: dict) -> dict:
    """The named maps doc holds, each read at its (dst, src) shape."""
    return {key: _matrix_from_json(field, *shape, doc[key], f"{what}.{key}", read)
            for key, shape in shapes.items() if key in doc}


def _maps_to_json(doc: dict, maps: dict) -> dict:
    """doc with every present named map added as its flat entry strings."""
    doc.update((key, m.flat_strings()) for key, m in maps.items() if m is not None)
    return doc


def _object_from_json(field: FieldTag, name: str, doc, read: dict) -> BiHomObject:
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, (int, str)):
        raise ParseError(f"object {name}: dim must be an integer")
    try:
        dim = int(dim)
    except ValueError as exc:
        raise ParseError(f"object {name}: bad dim {dim!r}") from exc
    if dim < 0:
        raise ParseError(f"object {name}: negative dim {dim}")
    shapes = dict.fromkeys(("alpha", "beta", "kappa", "nu"), (dim, dim))
    maps = _maps_from_json(field, doc, shapes, f"object {name}", read)
    if "alpha" not in maps or "beta" not in maps:
        raise ParseError(f"object {name}: alpha and beta are required")
    try:
        return BiHomObject(dim, field, **maps)
    except InvariantViolation as exc:  # an input error: no check has run
        raise ParseError(f"object {name}: {exc}") from exc


def instance_to_json(data: InstanceData) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "field": _field_to_json(data.field),
        "objects": {name: _maps_to_json({"dim": o.dim}, o.endos())
                    for name, o in data.objects.items()},
        "structures": {
            name: _maps_to_json({"object": data.structure_objects[name]},
                                {key: getattr(b, key) for key in MAP_SHAPES})
            for name, b in data.structures.items()},
    }
    if data.modules:
        doc["modules"] = {
            name: _maps_to_json({"carrier": e.carrier, "over": e.over},
                                {key: getattr(e, key) for key in ACTION_SHAPES})
            for name, e in data.modules.items()}
    return doc


def dumps_instance(data: InstanceData) -> str:
    return json.dumps(instance_to_json(data), sort_keys=True, indent=2) + "\n"


def _section(doc: dict, key: str) -> dict:
    """The named block of JSON objects (absent means empty)."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ParseError(f"{key} must be a JSON object")
    for name, entry in section.items():
        if not isinstance(entry, dict):
            raise ParseError(f"{key} entry {name!r} must be a JSON object")
    return section


def instance_from_json(doc) -> InstanceData:
    if not isinstance(doc, dict):
        raise ParseError("instance file must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    field = _field_from_json(doc.get("field"))
    read = {}  # (dst, src, entries) -> the map read from them
    objects = {name: _object_from_json(field, name, od, read)
               for name, od in _section(doc, "objects").items()}
    structures, structure_objects = {}, {}
    for name, sd in _section(doc, "structures").items():
        oname = sd.get("object")
        if not isinstance(oname, str) or oname not in objects:
            raise UnknownName(f"structure {name}: unknown object {oname!r}")
        obj = objects[oname]
        shapes = {key: shape(obj.dim) for key, shape in MAP_SHAPES.items()}
        structures[name] = StructureBundle(
            obj, **_maps_from_json(field, sd, shapes, f"structure {name}", read))
        structure_objects[name] = oname
    modules = {}
    for name, md in _section(doc, "modules").items():
        cname, sname = md.get("carrier"), md.get("over")
        if not isinstance(cname, str) or cname not in objects:
            raise UnknownName(f"module {name}: unknown object {cname!r}")
        if not isinstance(sname, str) or sname not in structures:
            raise UnknownName(f"module {name}: unknown structure {sname!r}")
        x, a = objects[cname], structures[sname].obj
        shapes = {key: shape(x.dim, a.dim) for key, shape in ACTION_SHAPES.items()}
        maps = _maps_from_json(field, md, shapes, f"module {name}", read)
        if not maps:
            raise ParseError(f"module {name}: needs an action or a coaction")
        modules[name] = ModuleEntry(cname, sname, **maps)
    return InstanceData(field, objects, structures, structure_objects, modules)


def load_instance(path: str) -> InstanceData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return instance_from_json(doc)


def save_instance(path: str, data: InstanceData):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(data))


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _print_report(report: CheckReport) -> int:
    for e in report.entries:
        if e.passed:
            print(f"PASS {e.name}")
        else:
            r, c, lhs, rhs = e.counterexample
            print(f"FAIL {e.name} [{e.law}] at entry ({r},{c}): {lhs} != {rhs}")
    n_fail = len(report.failures())
    print(f"{report.kind}: {len(report.entries) - n_fail}/{len(report.entries)} "
          f"diagrams commute")
    return 0 if report.passed else 1


def _run_trials(trials: int, fn):
    """Run fn(index) for each trial, in order."""
    return [fn(i) for i in range(trials)]


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_STRUCTURE_CHECKS = {
    "semigroup": check_semigroup,
    "cosemigroup": check_cosemigroup,
    "monoid": check_monoid,
    "comonoid": check_comonoid,
    "bisemigroup": check_bisemigroup,
    "bimonoid": check_bimonoid,
}

_MODULE_KINDS = ("module", "comodule", "hopf-module")


def _named(table: dict, name: str, kind: str):
    if name not in table:
        raise UnknownName(f"no {kind} named {name!r}")
    return table[name]


def cmd_check(args) -> int:
    data = load_instance(args.file)
    kind = args.structure
    if kind in _STRUCTURE_CHECKS:
        report = _STRUCTURE_CHECKS[kind](_named(data.structures, args.name, "structure"))
    elif kind in _MODULE_KINDS:
        entry = _named(data.modules, args.name, "module")
        carrier = data.objects[entry.carrier]
        over = data.structures[entry.over]
        if kind == "module":
            if entry.action is None:
                raise ParseError(f"module {args.name} has no action")
            report = check_module(ModuleInst(carrier, entry.action, over))
        elif kind == "comodule":
            if entry.coaction is None:
                raise ParseError(f"module {args.name} has no coaction")
            report = check_comodule(ComoduleInst(carrier, entry.coaction, over))
        else:
            if entry.action is None or entry.coaction is None:
                raise ParseError(f"module {args.name} needs action and coaction")
            report = check_hopf_module(ModuleInst(carrier, entry.action, over),
                                       ComoduleInst(carrier, entry.coaction, over))
    else:
        raise ParseError(f"unknown structure kind {kind!r}")
    return _print_report(report)


def cmd_coherence(args) -> int:
    if args.trials < 1:
        raise ParseError("--trials must be positive")
    if min(args.max_n, args.max_m, args.max_k) < 0 or args.max_dim < 1:
        raise ParseError("bounds must be non-negative (max-dim positive)")
    field = GF(args.modulus)

    if args.level == "symbolic":
        def trial(i):
            rng = _trial_rng(args.seed, i)
            m, k = random_double_seq(rng, args.max_n, args.max_m, args.max_k)
            for (si, sj), flags in exponent_identities(k).items():
                if not all(flags):
                    return f"trial {i}: identities {flags} fail at "\
                           f"m={m} k={k} slot ({si},{sj})"
            return None
    else:
        def trial(i):
            rng = _trial_rng(args.seed, i)
            lax = check_lax_figure(random_lax_instance(
                rng, field, args.max_n, args.max_m, args.max_k, args.max_dim))
            if not lax.passed:
                return f"trial {i}: lax figure region {lax.failures()[0].name}"
            duo = check_duoidal_figure(random_duoidal_instance(
                rng, field, args.max_n, args.max_m, args.max_k, args.max_dim))
            if not duo.passed:
                return f"trial {i}: duoidal figure region {duo.failures()[0].name}"
            return None

    failures = [msg for msg in _run_trials(args.trials, trial) if msg]
    for msg in failures[:10]:
        print(msg)
    print(f"{args.trials - len(failures)}/{args.trials} trials passed "
          f"({args.level}, seed {args.seed})")
    return 0 if not failures else 1


def _twist_direction(bundle: StructureBundle) -> str:
    if bundle.mu is not None and bundle.delta is not None:
        return BIMONOID
    if bundle.delta is not None:
        return COMONOID
    return MONOID


def cmd_twist(args) -> int:
    data = load_instance(args.file)
    bundle = _named(data.structures, args.name, "structure")
    if args.direction == "twist":
        out = yau_twist(PlainStructure(bundle), _twist_direction(bundle))
    else:
        out = untwist(bundle).bundle
    data.structures[args.name] = out
    save_instance(args.output, data)
    print(f"wrote {args.output}")
    return 0


def _print_matrix(f: DenseMap):
    row = "  [" + " ".join(["%s"] * f.src_dim) + "]\n"
    for rows, values in f.value_blocks():
        sys.stdout.write((row * rows) % tuple(values))


def cmd_antipode(args) -> int:
    data = load_instance(args.file)
    method = DIRECT if args.method == "direct" else VIA_UNTWIST
    result = antipode_solve(_named(data.structures, args.name, "structure"), method)
    if result.status == NO_ANTIPODE:
        print("NoAntipode: the defining system is inconsistent")
        return 1
    header = "antipode" if result.status == FOUND else \
        "NonUnique: underdetermined system; one witness"
    print(header)
    _print_matrix(result.chi)
    return 0 if result.status == FOUND else 1


def cmd_delta(args) -> int:
    if args.n < 0 or args.max_K < 0:
        raise ParseError("-n and --max-K must be non-negative")
    bundle = _named(load_instance(args.file).structures, args.name, "structure")
    d = delta_n(bundle, args.n)
    print(f"delta_{args.n}: {d.dst_dim}x{d.src_dim}")
    _print_matrix(d)
    if not args.check_all_sequences:
        return 0
    ks = coassoc_sequences(args.max_K)
    bad = [k for k, rep in zip(ks, sweep_generalized_coassoc(bundle, ks)) if not rep.passed]
    if bad:
        print(f"generalized coassociativity FAILED for {len(bad)} sequences, "
              f"first: {bad[0]}")
        return 1
    print(f"generalized coassociativity holds for all sequences with "
          f"K+Z <= {args.max_K}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihom",
        description="Exact checks for BiHom-algebraic structures given as matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a named structure")
    p.add_argument("file")
    p.add_argument("--structure", required=True,
                   choices=sorted(_STRUCTURE_CHECKS) + list(_MODULE_KINDS))
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("coherence", help="randomized coherence suites")
    p.add_argument("--level", choices=("symbolic", "matrix"), default="symbolic")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--max-m", type=int, default=3, dest="max_m")
    p.add_argument("--max-k", type=int, default=4, dest="max_k")
    p.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    p.add_argument("--modulus", type=int, default=7)
    p.set_defaults(fn=cmd_coherence)

    p = sub.add_parser("twist", help="twist or untwist a named structure")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--direction", choices=("twist", "untwist"), default="twist")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("antipode", help="solve the antipode equation")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--method", choices=("direct", "untwist"), default="direct")
    p.set_defaults(fn=cmd_antipode)

    p = sub.add_parser("delta", help="iterated coproducts and coassociativity sweep")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("-n", type=int, default=2)
    p.add_argument("--check-all-sequences", action="store_true",
                   dest="check_all_sequences")
    p.add_argument("--max-K", type=int, default=5, dest="max_K")
    p.set_defaults(fn=cmd_delta)
    return parser


_PARSER = build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UnknownName, TooLarge, MissingMap, MissingEndomorphism, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BihomError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
