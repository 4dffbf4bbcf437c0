"""Acceptance suite: one criterion per test, exact arithmetic, zero tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them inline) and
also enforces the criterion's runtime budget.
"""

import functools
import itertools
import random
import time

from bihomcheck.cli import InstanceData, dumps_instance, main, save_instance
from bihomcheck.coherence import (
    _lax_shapes,
    check_duoidal_figure,
    check_exponent_identities,
    check_lax_figure,
    coherence_map,
    BIG_PHI,
    BIG_PSI,
    SMALL_PHI,
    SMALL_PSI,
    random_double_seq,
    random_duoidal_instance,
    random_lax_instance,
    unit_object,
)
from bihomcheck.combinat import Permutation
from bihomcheck.exactlin import GF, DenseMap, compose, compose_all, kron, kron_all
from bihomcheck.fixtures import (
    classical_c3,
    example_instance,
    group_power_endo,
    idempotent_monoid_bialgebra,
    inversion_antipode,
    plain_twisting_c3,
    twisted_c3,
)
from bihomcheck.structures import (
    ALTERNATIVE,
    ITERATIVE,
    check_bimonoid,
    check_generalized_coassoc,
    check_hopf_module,
    coassoc_sequences,
    delta_n,
    regular_comodule,
    regular_module,
)
from bihomcheck.twist import (
    DIRECT,
    FOUND,
    NO_ANTIPODE,
    VIA_UNTWIST,
    antipode_solve,
    canonical_morphism,
    untwist,
    yau_twist,
)

from conftest import flip_permutation

F7 = GF(7)


def criterion(number, title, budget_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            elapsed = time.monotonic() - start
            print(f"PASS criterion {number}: {title} ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
        return run
    return wrap


@criterion(1, "exponent-identity suite, 1000 seeded instances", 5)
def test_criterion_1_exponent_identities():
    rng = random.Random(1001)
    for _ in range(1000):
        k = random_double_seq(rng, max_n=4, max_m=3, max_k=4)
        for i, row in enumerate(k, 1):
            for j in range(1, len(row) + 1):
                flags = check_exponent_identities(k, i, j)
                assert all(flags), (k, i, j, flags)


@criterion(2, "flip-permutation identities, exhaustive to 4", 5)
def test_criterion_2_tau_identities():
    for n in range(5):
        for p in range(5):
            tau_np, tau_pn = flip_permutation(n, p), flip_permutation(p, n)
            assert tau_np.compose(tau_pn).is_identity()
            assert tau_pn.compose(tau_np).is_identity()
        assert flip_permutation(n, 1).is_identity()
        for p in range(5):
            for k in itertools.product(range(5), repeat=p):
                inner = Permutation.direct_sum([flip_permutation(n, v) for v in k])
                sizes = [v for v in k for _ in range(n)]
                outer = flip_permutation(n, p).blown_up(sizes)
                assert outer.compose(inner) == flip_permutation(n, sum(k)), (n, p, k)


@criterion(3, "padded shapes of the lax figure, 500 random double sequences", 5)
def test_criterion_3_padded_shapes():
    rng = random.Random(1003)
    for _ in range(500):
        k = random_double_seq(rng, 4, 3, 4)
        labels = itertools.count()
        objs = [[[next(labels) for _ in range(v)] for v in row] for row in k]
        prods = [[f"b{i}.{j}" for j in range(len(row))] for i, row in enumerate(k)]
        items = [x for row in objs for g in row for x in g]
        sums = [sum(row) for row in k]
        # the group lengths of each padded sequence, from its definition
        want = {
            "m": [[len(row) for row in k]],
            "rows": [list(row) for row in k],
            "tilde": [[v for row in k for v in row or (0,)]],
            "KZ": [[s + row.count(0) for s, row in zip(sums, k)]],
            "K": [sums],
            "flat": [[v for row in k for v in row]],
            "hat": [[v for s, row in zip(sums, k)
                     for v in (row if s else (1,) + (0,) * (max(len(row), 1) - 1))]],
        }
        units = {"KZ": sum(row.count(0) for row in k), "hat": sums.count(0)}
        shapes = _lax_shapes(objs, prods, "U")
        assert set(shapes) == set(want)
        for name, group_lists in shapes.items():
            assert [[len(g) for g in groups] for groups in group_lists] == want[name], (name, k)
            held = [x for groups in group_lists for g in groups for x in g]
            assert held.count("U") == units.get(name, 0), (name, k)
            if name != "m":
                assert [x for x in held if x != "U"] == items, (name, k)


@criterion(4, "lax coherence figure, 50 seeded matrix instances", 30)
def test_criterion_4_lax_figure():
    rng = random.Random(1004)
    for trial in range(50):
        inst = random_lax_instance(rng, F7, max_n=2, max_m=2, max_k=2, max_dim=2)
        report = check_lax_figure(inst)
        assert report.passed, (trial, inst.objects, report.failures())


@criterion(5, "duoidal coherence figure, 25 seeded matrix instances", 60)
def test_criterion_5_duoidal_figure():
    rng = random.Random(1005)
    for trial in range(25):
        inst = random_duoidal_instance(rng, F7, max_n=2, max_p=2, max_k=2, max_dim=2)
        report = check_duoidal_figure(inst)
        assert report.passed, (trial, inst.k, inst.objects, report.failures())


@criterion(6, "iterated coproduct equivalence and coassociativity sweep", 10)
def test_criterion_6_delta_equivalence_and_sweep():
    fixtures = (classical_c3(), twisted_c3())
    for b in fixtures:
        for n in range(7):
            assert delta_n(b, n, ITERATIVE) == delta_n(b, n, ALTERNATIVE), n
    sequences = coassoc_sequences(5)
    assert len(sequences) > 100
    for b in fixtures:
        for k in sequences:
            assert check_generalized_coassoc(b, k).passed, k
    # a seeded perturbation must be caught by some sequence of weight <= 3
    rng = random.Random(1006)
    b = twisted_c3()
    r, c = rng.randrange(9), rng.randrange(3)
    bumped = (int(b.delta.entry(r, c)) + 1) % 7
    bad = b.replace(delta=b.delta.with_entry(r, c, bumped))
    assert any(not check_generalized_coassoc(bad, k).passed
               for k in coassoc_sequences(3))


@criterion(7, "Yau-twisted cyclic fixture: bimonoid, round trip, Hopf module", 5)
def test_criterion_7_yau_twist_fixture():
    plain = plain_twisting_c3()
    twisted = yau_twist(plain)
    assert check_bimonoid(twisted).passed
    # untwisting reproduces the classical maps byte-exactly when serialized
    back = untwist(twisted).bundle
    wrap = lambda bundle: dumps_instance(InstanceData(
        F7, {"o": bundle.obj}, {"s": bundle}, {"s": "o"}, {}))
    assert wrap(back) == wrap(plain.bundle)
    report = check_hopf_module(regular_module(twisted), regular_comodule(twisted))
    assert report.passed


@criterion(8, "antipode agreement, canonical morphism, no-antipode fixture", 5)
def test_criterion_8_antipodes():
    twisted = twisted_c3()
    direct = antipode_solve(twisted, DIRECT)
    via = antipode_solve(twisted, VIA_UNTWIST)
    squarer = group_power_endo(F7, 3, 2)
    assert direct.status == via.status == FOUND
    assert direct.chi == via.chi == squarer

    # brute-force re-verification over the three basis vectors
    obj = twisted.obj
    ident = DenseMap.identity(F7, 3)
    sandwich = kron(compose(obj.beta, obj.nu), compose(obj.alpha, obj.kappa))
    rhs = compose(twisted.eta, twisted.epsilon)
    left = compose_all([twisted.mu, sandwich, kron(ident, direct.chi), twisted.delta])
    right = compose_all([twisted.mu, sandwich, kron(direct.chi, ident), twisted.delta])
    for i in range(3):
        e_i = DenseMap.from_rows(F7, [[1 if t == i else 0] for t in range(3)])
        unit_vec = DenseMap.from_rows(F7, [[1], [0], [0]])
        assert compose(left, e_i) == unit_vec
        assert compose(right, e_i) == unit_vec
    assert compose(twisted.epsilon, squarer) == twisted.epsilon  # sanity on rhs
    assert left == rhs and right == rhs

    _, invertible = canonical_morphism(regular_module(twisted), unit_object(F7))
    assert invertible

    non_hopf = idempotent_monoid_bialgebra()
    assert antipode_solve(non_hopf, DIRECT).status == NO_ANTIPODE
    _, invertible = canonical_morphism(regular_module(non_hopf), unit_object(non_hopf.obj.field))
    assert not invertible


@criterion(9, "identity endomorphisms reduce every check to the classical one", 2)
def test_criterion_9_degeneracy_gate():
    b = classical_c3()
    a = b.obj
    # every coherence morphism in the axiom diagrams degenerates to an identity
    for which in (BIG_PHI, BIG_PSI):
        assert kron_all(F7, coherence_map(which, [[a, a], [a]])).is_identity()
        assert kron_all(F7, coherence_map(which, [[a], [a, a]])).is_identity()
    for which in (SMALL_PHI, SMALL_PSI):
        assert kron_all(F7, coherence_map(which, [[], [a]])).is_identity()
        assert kron_all(F7, coherence_map(which, [[a], []])).is_identity()
    # so the deformed laws are literally the classical ones, and they hold
    ident = DenseMap.identity(F7, 3)
    assert compose_all([b.mu, kron(b.mu, ident)]) \
        == compose_all([b.mu, kron(ident, b.mu)])
    assert compose(kron(b.epsilon, ident), b.delta) == ident
    assert compose(kron(ident, b.epsilon), b.delta) == ident
    assert compose(b.mu, kron(b.eta, ident)) == ident
    assert check_bimonoid(b).passed
    res = antipode_solve(b, DIRECT)
    assert res.status == FOUND and res.chi == inversion_antipode(F7, 3)


@criterion(10, "CLI contract: round trip, exit codes, seed reproducibility", 10)
def test_criterion_10_cli_contract(tmp_path, capsys):
    path = tmp_path / "c3.json"
    save_instance(str(path), example_instance())
    text = open(path).read()
    from bihomcheck.cli import load_instance
    assert dumps_instance(load_instance(str(path))) == text

    assert main(["check", str(path), "--structure", "bimonoid",
                 "--name", "twisted"]) == 0
    assert main(["check", str(path), "--structure", "hopf-module",
                 "--name", "regular"]) == 0
    assert main(["check", str(path), "--structure", "bimonoid",
                 "--name", "ghost"]) == 2

    data = example_instance()
    t = data.structures["twisted"]
    data.structures["twisted"] = t.replace(mu=t.mu.with_entry(0, 0, 5))
    bad = tmp_path / "bad.json"
    save_instance(str(bad), data)
    assert main(["check", str(bad), "--structure", "bimonoid",
                 "--name", "twisted"]) == 1

    junk = tmp_path / "junk.json"
    junk.write_text('{"format_version": "1"')
    assert main(["check", str(junk), "--structure", "bimonoid",
                 "--name", "x"]) == 2
    assert main(["coherence", "--trials", "0"]) == 2

    twisted_out = tmp_path / "twisted.json"
    back = tmp_path / "back.json"
    assert main(["twist", str(path), "--name", "plain", "-o",
                 str(twisted_out)]) == 0
    assert main(["twist", str(twisted_out), "--name", "plain",
                 "--direction", "untwist", "-o", str(back)]) == 0
    assert open(back).read() == text

    capsys.readouterr()
    runs = []
    for _ in range(2):
        assert main(["coherence", "--level", "symbolic", "--trials", "200",
                     "--seed", "42"]) == 0
        runs.append(capsys.readouterr().out)
        assert main(["coherence", "--level", "matrix", "--trials", "8",
                     "--seed", "9"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[2] and runs[1] == runs[3]
