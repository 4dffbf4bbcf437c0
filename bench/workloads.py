"""Workload definitions: instance files, request rounds and known answers.

A request is one `bihom` command line.  Requests come in rounds; a workload
repeats one round, whose number of requests of each size class does not
depend on the seed, so neither does the cost of a run.  The seed picks the
twisting power (a unit mod n), the perturbed entries of the negative
controls and the `coherence` seeds; the order of the requests in a round
does not depend on it.

The known answers are built here, from the definitions of the fixtures, and
never from the output of the program under test:

* the twisted group algebra k[C_n] and its dual function algebra are
  BiHom-bimonoids and Hopf modules over themselves, so every diagram passes;
* their antipode is the inversion g -> g^-1 (for both families, both methods
  and both fields), i.e. the matrix with entry (i, j) = 1 iff i + j = 0 mod n;
* the n-fold twisted coproduct sends basis vector i to the classical n-fold
  coproduct of basis vector e^(n-1) i;
* a negative control perturbs one entry of mu (or delta) at a row (column)
  that the twisting automorphism moves, so the diagrams saying that mu (delta)
  commutes with the endomorphisms must fail, and every diagram not built from
  mu (delta) must pass.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

MODULUS = 7

# Diagram names of `check --structure bimonoid` and `--structure hopf-module`
# on an object carrying all four endomorphisms.
ENDOS = ("alpha", "beta", "kappa", "nu")
BIMONOID_DIAGRAMS = sorted(
    [f"semigroup/mu-commutes-{e}" for e in ENDOS] + ["semigroup/associativity"]
    + [f"cosemigroup/delta-commutes-{e}" for e in ENDOS]
    + ["cosemigroup/coassociativity"]
    + [f"monoid/eta-commutes-{e}" for e in ENDOS]
    + ["monoid/unit-left", "monoid/unit-right"]
    + [f"comonoid/epsilon-commutes-{e}" for e in ENDOS]
    + ["comonoid/counit-left", "comonoid/counit-right"]
    + ["bisemigroup/compatibility", "bimonoid/counit-multiplicative",
       "bimonoid/unit-comultiplicative", "bimonoid/unit-counit"])
HOPF_MODULE_DIAGRAMS = sorted(
    [f"module/action-commutes-{e}" for e in ENDOS]
    + ["module/associativity", "module/unitality"]
    + [f"comodule/coaction-commutes-{e}" for e in ENDOS]
    + ["comodule/coassociativity", "comodule/counitality",
       "hopf-module/compatibility"])

# Diagrams of the bimonoid check whose boundary paths use the map.
MENTIONS = {
    "mu": {d for d in BIMONOID_DIAGRAMS if d.startswith("semigroup/")}
    | {"monoid/unit-left", "monoid/unit-right", "bisemigroup/compatibility",
       "bimonoid/counit-multiplicative"},
    "delta": {d for d in BIMONOID_DIAGRAMS if d.startswith("cosemigroup/")}
    | {"comonoid/counit-left", "comonoid/counit-right",
       "bisemigroup/compatibility", "bimonoid/unit-comultiplicative"},
}
# ... and the ones a perturbation off the fixed points of phi must break.
MUST_FAIL = {
    "mu": {f"semigroup/mu-commutes-{e}" for e in ENDOS},
    "delta": {f"cosemigroup/delta-commutes-{e}" for e in ENDOS},
}

FAMILIES = ("group", "dual")


# ---------------------------------------------------------------------------
# Matrices of the fixtures, built without the program
# ---------------------------------------------------------------------------

def _dense(dst: int, src: int, ones) -> list:
    """Row-major flat 0/1 matrix with a 1 at each (row, col) in ones."""
    flat = [0] * (dst * src)
    for r, c in ones:
        flat[r * src + c] += 1
    return flat


def classical_maps(family: str, n: int) -> dict:
    """mu, eta, delta, epsilon of k[C_n] or of the functions on C_n."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if family == "group":
        return {"mu": _dense(n, n * n, [((i + j) % n, i * n + j) for i, j in pairs]),
                "eta": _dense(n, 1, [(0, 0)]),
                "delta": _dense(n * n, n, [(i * n + i, i) for i in range(n)]),
                "epsilon": _dense(1, n, [(0, i) for i in range(n)])}
    return {"mu": _dense(n, n * n, [(i, i * n + i) for i in range(n)]),
            "eta": _dense(n, 1, [(i, 0) for i in range(n)]),
            "delta": _dense(n * n, n, [(j * n + (i - j) % n, i) for i, j in pairs]),
            "epsilon": _dense(1, n, [(0, 0)])}


def twisted_maps(family: str, n: int, e: int) -> dict:
    """The Yau twist along phi: i -> e i: mu.(phi x phi) and (phi x phi).delta."""
    m = classical_maps(family, n)
    sq = n * n
    mu = [m["mu"][r * sq + (e * i % n) * n + (e * j % n)]
          for r in range(n) for i in range(n) for j in range(n)]
    delta = [0] * (sq * n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                delta[((e * a % n) * n + e * b % n) * n + c] = m["delta"][(a * n + b) * n + c]
    return {"mu": mu, "eta": m["eta"], "delta": delta, "epsilon": m["epsilon"]}


def endo_matrix(n: int, e: int) -> list:
    return _dense(n, n, [(e * i % n, i) for i in range(n)])


def inversion_rows(n: int) -> list:
    return [[1 if (i + j) % n == 0 else 0 for j in range(n)] for i in range(n)]


def delta4_columns(family: str, n: int, e: int) -> list:
    """Support of each column of the 4-fold twisted coproduct (all entries 1)."""
    cols = []
    for i in range(n):
        h = pow(e, 3, n) * i % n
        if family == "group":
            cols.append({h * (n ** 3 + n ** 2 + n + 1)})
        else:
            cols.append({((a * n + b) * n + c) * n + (h - a - b - c) % n
                         for a in range(n) for b in range(n) for c in range(n)})
    return cols


def _strings(flat) -> list:
    return [str(v) for v in flat]


# ---------------------------------------------------------------------------
# Requests and their known answers
# ---------------------------------------------------------------------------

Oracle = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Request:
    cls: str          # size class: requests of one class cost about the same
    argv: tuple
    expect: Oracle    # (exit code, stdout) -> None if correct, else a reason
    pool: bool = False  # runs the program's worker pool, one thread per CPU


def _expect_report(kind: str, names, mentions=frozenset(),
                   must_fail=frozenset()) -> Oracle:
    """All diagrams pass, or (negative control) the failures are pinned down."""
    negative = bool(must_fail)

    def check(rc, out):
        lines = out.splitlines()
        if len(lines) != len(names) + 1:
            return f"{len(lines)} lines for {len(names)} diagrams"
        failed = set()
        for name, line in zip(names, lines):
            if line == f"PASS {name}":
                continue
            if not line.startswith(f"FAIL {name} ["):
                return f"unexpected line {line!r}"
            failed.add(name)
        if not negative and failed:
            return f"diagrams failed: {sorted(failed)}"
        if negative:
            if not must_fail <= failed:
                return f"expected failures missing: {sorted(must_fail - failed)}"
            if not failed <= mentions:
                return f"diagrams failed without the perturbed map: {sorted(failed - mentions)}"
        summary = f"{kind}: {len(names) - len(failed)}/{len(names)} diagrams commute"
        if lines[-1] != summary:
            return f"summary {lines[-1]!r} != {summary!r}"
        if rc != (1 if negative else 0):
            return f"exit code {rc}"
        return None
    return check


def _expect_exact(text: str) -> Oracle:
    def check(rc, out):
        if out != text:
            return f"output differs: {out[:200]!r}"
        if rc != 0:
            return f"exit code {rc}"
        return None
    return check


def _expect_delta4(family: str, n: int, e: int, max_k: int) -> Oracle:
    cols = delta4_columns(family, n, e)
    dst = n ** 4

    def check(rc, out):
        lines = out.splitlines()
        if len(lines) != dst + 2 or lines[0] != f"delta_4: {dst}x{n}":
            return f"bad delta_4 header or row count: {lines[:1]!r}, {len(lines)}"
        for r, line in enumerate(lines[1:dst + 1]):
            want = "  [" + " ".join("1" if r in cols[c] else "0" for c in range(n)) + "]"
            if line != want:
                return f"delta_4 row {r}: {line!r} != {want!r}"
        last = f"generalized coassociativity holds for all sequences with K+Z <= {max_k}"
        if lines[-1] != last:
            return f"sweep verdict {lines[-1]!r}"
        if rc != 0:
            return f"exit code {rc}"
        return None
    return check


def _expect_written(path: str, name: str, maps: dict) -> Oracle:
    want = {k: _strings(v) for k, v in maps.items()}

    def check(rc, out):
        if out != f"wrote {path}\n" or rc != 0:
            return f"twist printed {out!r}, exit code {rc}"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        got = doc["structures"][name]
        for key, flat in want.items():
            if got.get(key) != flat:
                return f"written {name}.{key} differs from the expected twist"
        return None
    return check


def _expect_coherence(trials: int, level: str, seed: int) -> Oracle:
    return _expect_exact(f"{trials}/{trials} trials passed ({level}, seed {seed})\n")


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

def _units(n: int) -> list:
    return [u for u in range(2, n) if math.gcd(u, n) == 1]


def _moved(n: int, e: int) -> list:
    return [i for i in range(n) if e * i % n != i]


@dataclass
class Fixture:
    power: int  # phi is i -> power * i mod n
    path: str


def write_fixtures(workdir: str, field_name: str, orders, seed: int,
                   negatives: bool) -> dict:
    """Build the twisted fixtures with the program and write instance files.

    Each file holds object "a" (dim n, all four endomorphisms phi: i -> e i),
    the classical maps on it ("plain"), their twist ("twisted"), the regular
    Hopf module of the twist ("regular") and, with negatives, the two negative
    controls ("bad_mu", "bad_delta").  The twisted maps are compared with the
    independent construction above before any request runs.
    """
    from bihomcheck.cli import InstanceData, ModuleEntry, save_instance
    from bihomcheck.exactlin import GF, QQ
    from bihomcheck.fixtures import cyclic_group_bundle, dual_cyclic_bundle
    from bihomcheck.twist import BIMONOID, PlainStructure, yau_twist

    field = GF(MODULUS) if field_name == "F7" else QQ
    build = {"group": cyclic_group_bundle, "dual": dual_cyclic_bundle}
    rng = random.Random(f"fixtures:{field_name}:{seed}")
    out = {}
    for family in FAMILIES:
        for n in orders:
            e = rng.choice(_units(n))
            plain = build[family](field, n, e)
            twisted = yau_twist(PlainStructure(plain), BIMONOID)
            structures = {"plain": plain, "twisted": twisted}
            if negatives:
                moved = _moved(n, e)
                r, c = rng.choice(moved), rng.randrange(n * n)
                v = int(str(twisted.mu.entry(r, c))) + rng.randrange(1, MODULUS)
                structures["bad_mu"] = twisted.replace(mu=twisted.mu.with_entry(r, c, v))
                r, c = rng.randrange(n * n), rng.choice(moved)
                v = int(str(twisted.delta.entry(r, c))) + rng.randrange(1, MODULUS)
                structures["bad_delta"] = twisted.replace(
                    delta=twisted.delta.with_entry(r, c, v))
            data = InstanceData(
                field, {"a": plain.obj}, structures,
                {name: "a" for name in structures},
                {"regular": ModuleEntry("a", "twisted", action=twisted.mu,
                                        coaction=twisted.delta)})
            path = os.path.join(workdir, f"{field_name}-{family}-{n}.json")
            save_instance(path, data)
            out[family, n] = Fixture(e, path)
    return out


def verify_fixtures(fixtures: dict) -> list:
    """Files whose maps differ from the independent construction."""
    problems = []
    for (family, n), fx in fixtures.items():
        with open(fx.path, encoding="utf-8") as fh:
            doc = json.load(fh)
        endo = _strings(endo_matrix(n, fx.power))
        if any(doc["objects"]["a"][k] != endo for k in ENDOS):
            problems.append(f"{fx.path}: endomorphisms differ from phi")
        for name, maps in (("plain", classical_maps(family, n)),
                           ("twisted", twisted_maps(family, n, fx.power))):
            for key, flat in maps.items():
                if doc["structures"][name][key] != _strings(flat):
                    problems.append(f"{fx.path}: {name}.{key} differs")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def interleave(requests: list) -> list:
    """Spread each size class evenly over the round.

    A burst of machine slowness then hits a few requests of every class
    rather than all requests of one, so no percentile hinges on it.
    """
    total, seen = Counter(r.cls for r in requests), Counter()
    keyed = []
    for r in requests:
        keyed.append(((seen[r.cls] + 0.5) / total[r.cls], len(keyed), r))
        seen[r.cls] += 1
    return [r for _, _, r in sorted(keyed)]


class Workload:
    """Set-up plus the round of requests that a run repeats."""

    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def setup(self):
        """Import the program, build the fixtures and write the files."""
        import bihomcheck.cli  # noqa: F401  (the import is part of set-up)

    def verify_setup(self) -> list:
        """Problems with what set-up wrote."""
        return []

    def round(self) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Requests run once before timing: cheap ones that finish lazy
        set-up, then the untimed ones."""
        return self.round()[:1] + self.untimed()

    def untimed(self) -> list:
        """Requests too long to repeat in every round; they run once."""
        return []


class FixtureWorkload(Workload):
    """A workload whose requests read the instance files of write_fixtures."""

    field_name, orders, negatives = "F7", (), False

    def setup(self):
        self.fixtures = write_fixtures(self.workdir, self.field_name, self.orders,
                                       self.seed, self.negatives)

    def verify_setup(self):
        return verify_fixtures(self.fixtures)


class AxiomsFp(FixtureWorkload):
    """Every F_7 verdict: `check`, `delta` and `coherence`.

    `check --structure bimonoid|hopf-module` and `delta` run on twisted
    k[C_n] and its dual.  Orders stop at 8 because the machine has 8 GB and no
    swap: a C_8 request peaks near 300 MB, and the dense interchange alone is
    344 MB at C_9 and 3.4 GB at C_12.  `coherence` requests take their seeds
    from the workload seed.
    """

    name = "axioms-fp"
    field_name, orders, negatives = "F7", range(3, 9), True
    # check class -> (command, family) per round; families are balanced.
    # The counts put p50 inside C_5 and p90 inside C_6 (see README.md).  The
    # round is short, about 2.5 s of requests, so every command line repeats
    # 15 times or more in a run and its fastest repeat is steady; the lines
    # that set p50 and p90 repeat 30 to 100 times.
    MIX = {
        4: [("bimonoid", "group")] * 4 + [("bimonoid", "dual")] * 4
        + [("hopf-module", "group")] * 4 + [("hopf-module", "dual")] * 4
        + [("bad_mu", "group"), ("bad_mu", "dual"),
           ("bad_delta", "group"), ("bad_delta", "dual")],
        5: [("bimonoid", "group")] * 7 + [("bimonoid", "dual")] * 7
        + [("hopf-module", "group")] * 7 + [("hopf-module", "dual")] * 7
        + [("bad_mu", "dual"), ("bad_delta", "group")],
        6: [("bimonoid", "group")] * 3 + [("bimonoid", "dual")] * 3
        + [("hopf-module", "group")] * 2 + [("hopf-module", "dual")] * 2,
        7: [("bimonoid", "group")],
    }
    # The C_8 requests are untimed: each takes longer than a round of the
    # rest, so a round holding one would repeat too few times in a run for a
    # steady fastest time.  They still set peak_rss_mb and are traced.
    BIG = [(8, "bimonoid", "group"), (8, "hopf-module", "dual")]
    DELTA_ORDER, DELTA_MAX_K = 3, 5
    # level -> distinct seeds per round
    COHERENCE = {"matrix": 6, "symbolic": 1}
    MATRIX_TRIALS = 10
    # Carriers stay at dimension <= 2^6, so no trial dominates a request and
    # the largest trials are common enough that every run reaches the same
    # peak memory.  (With --max-k 2 a 256-dimensional duoidal trial turns up
    # in some runs only; with the defaults one trial can take a minute.)
    MATRIX_BOUNDS = ("--max-n", "3", "--max-m", "2", "--max-k", "1", "--max-dim", "2")
    # A symbolic request costs about twice a C_6 check, above p90.
    SYMBOLIC_TRIALS = 240

    def _check(self, n, what, family) -> Request:
        fx = self.fixtures[family, n]
        if what == "hopf-module":
            return Request(f"check-C{n}", ("check", fx.path, "--structure",
                                           "hopf-module", "--name", "regular"),
                           _expect_report("hopf-module", HOPF_MODULE_DIAGRAMS))
        if what == "bimonoid":
            return Request(f"check-C{n}", ("check", fx.path, "--structure",
                                           "bimonoid", "--name", "twisted"),
                           _expect_report("bimonoid", BIMONOID_DIAGRAMS))
        which = what[len("bad_"):]
        return Request(f"check-C{n}", ("check", fx.path, "--structure", "bimonoid",
                                       "--name", what),
                       _expect_report("bimonoid", BIMONOID_DIAGRAMS,
                                      mentions=MENTIONS[which],
                                      must_fail=MUST_FAIL[which]))

    def _delta(self, family) -> Request:
        fx = self.fixtures[family, self.DELTA_ORDER]
        return Request(f"delta-C{self.DELTA_ORDER}",
                       ("delta", fx.path, "--name", "twisted", "-n", "4",
                        "--check-all-sequences", "--max-K", str(self.DELTA_MAX_K)),
                       _expect_delta4(family, self.DELTA_ORDER, fx.power, self.DELTA_MAX_K))

    def _coherence(self, level, seed) -> Request:
        if level == "matrix":
            trials, extra = self.MATRIX_TRIALS, self.MATRIX_BOUNDS
        else:
            trials, extra = self.SYMBOLIC_TRIALS, ()
        return Request(f"coherence-{level}",
                       ("coherence", "--level", level, "--trials", str(trials),
                        "--seed", str(seed), "--modulus", str(MODULUS)) + extra,
                       _expect_coherence(trials, level, seed), pool=True)

    def round(self) -> list:
        reqs = [self._check(n, what, family)
                for n, items in self.MIX.items() for what, family in items]
        reqs += [self._delta(family) for family in FAMILIES]
        slot = 0
        for level, count in self.COHERENCE.items():
            for _ in range(count):
                reqs.append(self._coherence(level, self.seed * 64 + slot))
                slot += 1
        return interleave(reqs)

    def warmup(self) -> list:
        return [self._check(4, "bimonoid", "group"),
                self._check(4, "hopf-module", "dual"),
                self._coherence("matrix", 10 ** 12 + self.seed)] + self.untimed()

    def untimed(self) -> list:
        return [self._check(*big) for big in self.BIG]


class AntipodeQ(FixtureWorkload):
    """`antipode` (both methods) and `twist` over Q, n = 3..6."""

    name = "antipode-q"
    field_name, orders = "Q", range(3, 7)

    def _antipode(self, n, family, method) -> Request:
        fx = self.fixtures[family, n]
        text = "antipode\n" + "".join(
            "  [" + " ".join(map(str, row)) + "]\n" for row in inversion_rows(n))
        return Request(f"antipode-C{n}",
                       ("antipode", fx.path, "--name", "twisted", "--method", method),
                       _expect_exact(text))

    def _twist(self, n, family, direction) -> Request:
        fx = self.fixtures[family, n]
        out = os.path.join(self.workdir, f"out-{family}-{n}.json")
        if direction == "twist":
            source, want = "plain", twisted_maps(family, n, fx.power)
        else:
            source, want = "twisted", classical_maps(family, n)
        return Request("twist", ("twist", fx.path, "--name", source,
                                 "--direction", direction, "-o", out),
                       _expect_written(out, source, want))

    def round(self) -> list:
        reqs = []
        for n in range(3, 7):
            a, b = FAMILIES if n % 2 else FAMILIES[::-1]
            reqs.append(self._twist(n, a, "twist") if n < 5 else self._twist(n, b, "untwist"))
        reqs += [self._antipode(3, "group", "direct"), self._antipode(3, "dual", "untwist"),
                 self._antipode(4, "dual", "direct"), self._antipode(4, "group", "untwist")]
        for family in FAMILIES:
            for method in ("direct", "untwist"):
                reqs += [self._antipode(5, family, method)] * 2
                reqs.append(self._antipode(6, family, method))
        reqs += [self._antipode(5, "group", "direct"), self._antipode(5, "dual", "untwist")]
        return interleave(reqs)

    def warmup(self) -> list:
        return [self._antipode(3, "group", "direct"),
                self._twist(3, "dual", "untwist")]


WORKLOADS = {w.name: w for w in (AxiomsFp, AntipodeQ)}
