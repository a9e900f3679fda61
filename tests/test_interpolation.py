from __future__ import annotations

import random
from collections import Counter

import pytest

from trivalent import interpolation
from trivalent.bisequent import bisequent
from trivalent.calculus import apply_rule
from trivalent.formula import Atom, Compound, atoms
from trivalent.interpolation import (
    InterpolationError,
    LeafAtoms,
    NoSharedAtomError,
    NotContingentError,
    NotEntailedError,
    _open_leaf_atoms,
    combined_leaf_check,
    interpolate,
    interpolate_extended,
    verify_interpolant,
)
from trivalent.logics import lookup_logic
from trivalent.semantics import matrix_consequence

from conftest import random_formula
from structural import complete_tree

I1 = lookup_logic("I1")
P1 = lookup_logic("P1")


class TestInterpolate:
    def test_conjunction_to_disjunction(self):
        phi, psi = I1.parse("p & q"), I1.parse("p | q")
        inter = interpolate(I1, phi, psi)
        assert atoms(inter) <= {"p", "q"}
        assert verify_interpolant(I1, phi, psi, inter)

    def test_self_entailment(self):
        phi = I1.parse("p & q")
        inter = interpolate(I1, phi, phi)
        assert atoms(inter) <= {"p", "q"}
        assert verify_interpolant(I1, phi, phi, inter)

    def test_not_entailed(self):
        with pytest.raises(NotEntailedError):
            interpolate(P1, P1.parse("p"), P1.parse("q"))

    def test_no_shared_atom(self):
        # one designated value: anything entails a valid formula, but with
        # no shared atom the construction must refuse
        with pytest.raises(NoSharedAtomError):
            interpolate(P1, P1.parse("p"), P1.parse("q | ~q"))

    def test_not_contingent(self):
        phi = I1.parse("p & ~p")  # never designated in I1
        with pytest.raises(NotContingentError):
            interpolate(I1, phi, I1.parse("p"))

    def test_unsupported_logic(self):
        k3 = lookup_logic("K3")
        with pytest.raises(InterpolationError):
            interpolate(k3, k3.parse("p & q"), k3.parse("p | q"))

    def test_rejects_noncandidate_interpolants(self):
        phi, psi = I1.parse("p & q"), I1.parse("p | q")
        assert not verify_interpolant(I1, phi, psi, Atom("r"))
        assert not verify_interpolant(I1, phi, psi, I1.parse("q & ~q"))


    def test_shared_subtree_gives_no_repeated_disjunct(self):
        # the left tree reaches the leaf "p, q =>" along two paths
        phi, psi = I1.parse("(p | q) & (p | q)"), I1.parse("p | q")
        leaves = complete_tree(I1, bisequent(ant1=(phi,))).open_leaves()
        assert len({id(leaf) for leaf in leaves}) < len(leaves)
        inter = interpolate(I1, phi, psi)
        disjuncts, todo = [], [inter]
        while todo:
            f = todo.pop()
            if isinstance(f, Compound) and f.connective == "or_c":
                todo.extend(f.args)
            else:
                disjuncts.append(f)
        assert len(disjuncts) == len(set(disjuncts)) == 3
        assert verify_interpolant(I1, phi, psi, inter)

    @pytest.mark.parametrize(
        "name, left, right, expected",
        [("I1", "q & (p | q)", "q | q", "q"), ("K3", "~(r & p | q)", "~q", "~q")],
    )
    def test_leaves_alike_after_filtering_give_one_disjunct(self, name, left, right, expected):
        # two open leaves of the left tree keep the same atoms once
        # filtered through the right tree's leaves
        logic = lookup_logic(name)
        phi, psi = logic.parse(left), logic.parse(right)
        inter, host = interpolate_extended(logic, phi, psi)
        assert inter == host.parse(expected)
        assert verify_interpolant(host, phi, psi, inter)


class TestCombinedLeafCheck:
    def test_sharing_leaves_pass(self):
        left = [LeafAtoms(frozenset("p"), frozenset(), frozenset(), frozenset())]
        right = [LeafAtoms(frozenset(), frozenset("p"), frozenset(), frozenset())]
        assert combined_leaf_check(left, right)

    def test_disjoint_leaves_fail(self):
        left = [LeafAtoms(frozenset("p"), frozenset(), frozenset(), frozenset())]
        right = [LeafAtoms(frozenset("q"), frozenset(), frozenset(), frozenset())]
        assert not combined_leaf_check(left, right)

    def test_leaves_of_valid_entailments_pass(self):
        phi, psi = I1.parse("p & (q | r)"), I1.parse("(p | q) & (p | r)")
        assert matrix_consequence(I1, (phi,), psi)
        leaves_phi = _open_leaf_atoms(I1, bisequent(ant1=(phi,)))
        leaves_psi = _open_leaf_atoms(I1, bisequent(suc1=(psi,)))
        assert leaves_phi and leaves_psi
        assert combined_leaf_check(leaves_phi, leaves_psi)


@pytest.mark.parametrize("name", ("I1", "I2", "P1", "P2"))
def test_sampled_interpolants_verify(name):
    logic = lookup_logic(name)
    rng = random.Random(f"sampled:{name}")
    done = 0
    attempts = 0
    while done < 25 and attempts < 4000:
        attempts += 1
        phi = random_formula(rng, logic.signature, ("p", "q", "r"), rng.randint(1, 5))
        psi = random_formula(rng, logic.signature, ("p", "q", "r"), rng.randint(1, 5))
        if not atoms(phi) & atoms(psi):
            continue
        if not matrix_consequence(logic, (phi,), psi):
            continue
        try:
            inter = interpolate(logic, phi, psi)
        except NotContingentError:
            continue
        assert verify_interpolant(logic, phi, psi, inter), (
            logic.render(phi),
            logic.render(psi),
            logic.render(inter),
        )
        done += 1
    assert done == 25


@pytest.mark.parametrize("name", ("K3", "LP", "G3", "G3prime"))
def test_extended_language_interpolants_verify(name):
    logic = lookup_logic(name)
    rng = random.Random(f"extended:{name}")
    done = 0
    attempts = 0
    while done < 15 and attempts < 4000:
        attempts += 1
        phi = random_formula(rng, logic.signature, ("p", "q"), rng.randint(1, 4))
        psi = random_formula(rng, logic.signature, ("p", "q"), rng.randint(1, 4))
        if not atoms(phi) & atoms(psi):
            continue
        if not matrix_consequence(logic, (phi,), psi):
            continue
        try:
            inter, host = interpolate_extended(logic, phi, psi)
        except NotContingentError:
            continue
        assert host.signature > logic.signature
        assert verify_interpolant(host, phi, psi, inter), (
            logic.render(phi),
            logic.render(psi),
            host.render(inter),
        )
        done += 1
    assert done == 15


@pytest.mark.parametrize("name", ("I1", "I2", "P1", "P2"))
def test_one_entry_point_for_the_native_logics(name):
    logic = lookup_logic(name)
    phi, psi = logic.parse("p & q"), logic.parse("p | q")
    inter, host = interpolate_extended(logic, phi, psi)
    assert host is logic
    assert inter == interpolate(logic, phi, psi)


def test_extended_interpolant_uses_the_added_negation_only_when_needed():
    k3 = lookup_logic("K3")
    phi, psi = k3.parse("p & q"), k3.parse("p | q")
    inter, host = interpolate_extended(k3, phi, psi)
    assert host.name.startswith("K3+")
    assert verify_interpolant(host, phi, psi, inter)


@pytest.mark.parametrize("name", ("I1", "I2", "P1", "P2", "K3", "LP", "G3", "G3prime"))
def test_leaf_walk_matches_the_complete_search_reference(name, monkeypatch):
    """The walk's leaves are the distinct open leaves of the complete
    search, in the order the complete search first lists them, and the
    walk decomposes each distinct node once."""
    logic = lookup_logic(name)
    ant, suc = logic.goal_slots
    applied = []

    def counting(rule, b, occurrence):
        applied.append(b)
        return apply_rule(rule, b, occurrence)

    monkeypatch.setattr(interpolation, "apply_rule", counting)
    rng = random.Random(f"leaf-walk:{name}")
    shared = 0
    for _ in range(200):
        phi = random_formula(rng, logic.signature, ("p", "q", "r"), rng.randint(1, 5))
        psi = random_formula(rng, logic.signature, ("p", "q", "r"), rng.randint(1, 5))
        for root in (bisequent(**{ant: (phi,)}), bisequent(**{suc: (psi,)}),
                     bisequent(**{ant: (phi,), suc: (psi,)})):
            memo = {}
            leaves = complete_tree(logic, root, memo).open_leaves()
            expected = list(dict.fromkeys(
                LeafAtoms(*(frozenset(f.name for f in fs) for fs in leaf.node.slots().values()))
                for leaf in leaves
            ))
            applied.clear()
            assert _open_leaf_atoms(logic, root) == expected
            assert Counter(applied) == Counter(t.node for t in memo.values() if t.rule)
            shared += len(expected) < len(leaves)
    assert shared  # some leaf is reached twice, so the deduplication is exercised
