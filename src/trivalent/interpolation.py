"""Interpolant construction from complete proof-search decompositions.

For an entailment between contingent formulas, the open (nonaxiomatic
atomic) leaves of the full backward decompositions of the two formulas
determine an interpolant: each side's leaf atoms are filtered through
the opposite side's leaves ("primed" sets), and every leaf contributes
one disjunct whose literals all close that leaf.  ``interpolate_extended``
is the entry point for all eight host logics.  The construction is
native for I1, I2, P1 and P2; for K3, LP, G3 and G3prime the interpolant
lives in the language extended with one extra negation, and it is
validated by ``verify_interpolant`` against the extended logic rather
than trusted.  ``interpolate`` serves the four native logics alone.
"""
from __future__ import annotations

from functools import reduce
from typing import Sequence

from .bisequent import Bisequent, bisequent, clashes, designated_mode, is_axiomatic
from .calculus import apply_rule, catalog
from .formula import Atom, Compound, Formula, InputError, _resolve_generic, atoms
from .logics import SLOTS, LogicDef
from .prover import _select_occurrence, prove
from .record import Record, _set
from .semantics import DEFAULT_ATOM_CAP, matrix_consequence

__all__ = [
    "InterpolationError",
    "LeafAtoms",
    "NoSharedAtomError",
    "NotContingentError",
    "NotEntailedError",
    "combined_leaf_check",
    "interpolate",
    "interpolate_extended",
    "verify_interpolant",
]


class InterpolationError(InputError, ValueError):
    pass


class NotEntailedError(InterpolationError):
    pass


class NotContingentError(InterpolationError):
    pass


class NoSharedAtomError(InterpolationError):
    pass


class LeafAtoms(Record):
    """Atom names of one nonaxiomatic atomic leaf, slot by slot."""

    __slots__ = _fields = SLOTS

    def __init__(
        self,
        ant1: frozenset[str],
        suc1: frozenset[str],
        ant2: frozenset[str],
        suc2: frozenset[str],
    ) -> None:
        _set(self, "ant1", ant1)
        _set(self, "suc1", suc1)
        _set(self, "ant2", ant2)
        _set(self, "suc2", suc2)


def _open_leaf_atoms(logic: LogicDef, root: Bisequent) -> list[LeafAtoms]:
    """The distinct open leaves of ``root``'s full decomposition, in the
    order a depth-first walk first reaches them.  The walk applies the
    prover's rules at the prover's occurrences, but explores every premiss
    where the prover stops at the first open one, and closes axiomatic
    nodes as the prover does.  A node reached again is skipped, so every
    shared subtree is walked once; a leaf reached along two paths would
    otherwise give the interpolant a repeated disjunct.  Leaves that
    differ only in multiplicities give the same atom sets, and those are
    merged as well."""
    cat = catalog(logic)
    seen = set()
    todo = [root]
    out = []
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        if is_axiomatic(logic, node):
            continue
        if (picked := _select_occurrence(cat, node, "leftmost")) is not None:
            slot, index, rule = picked
            # reversed, so that the first premiss is walked first
            todo.extend(reversed(apply_rule(rule, node, (slot, index))))
            continue
        if not all(isinstance(f, Atom) for _, _, f in node.formulas()):
            raise InterpolationError("open leaf contains a non-atom")
        names = (frozenset(f.name for f in fs) for fs in node.slots().values())
        out.append(LeafAtoms(*names))
    return list(dict.fromkeys(out))


def combined_leaf_check(
    leaves_phi: Sequence[LeafAtoms], leaves_psi: Sequence[LeafAtoms]
) -> bool:
    """True iff gluing any left leaf with any right leaf slot by slot
    gives an axiomatic bisequent.  Holds whenever the two trees come from
    a provable entailment; checked before the primed sets are used."""
    return all(
        clashes(a.ant1 | b.ant1, a.suc1 | b.suc1, a.ant2 | b.ant2, a.suc2 | b.suc2)
        for a in leaves_phi
        for b in leaves_psi
    )


# ---------------------------------------------------------------------------
# Formula assembly

#: the logics with an interpolant construction, each with the negation its
#: interpolants add to the language (None: the logic's own suffices)
_ADDED_NEGATION = {
    "I1": None, "I2": None, "P1": None, "P2": None,
    "K3": "neg_b", "LP": "neg_h", "G3": "neg_b", "G3prime": "neg_h",
}


def _fold(tag: str, parts: Sequence[Formula]) -> Formula:
    if not parts:
        raise InterpolationError("cannot fold an empty list")
    return reduce(lambda acc, f: Compound(tag, (f, acc)), reversed(parts[:-1]), parts[-1])


def _primed_sets(
    leaves_phi: Sequence[LeafAtoms], leaves_psi: Sequence[LeafAtoms]
) -> list[LeafAtoms]:
    theta: frozenset[str] = frozenset().union(*(l.ant1 for l in leaves_psi))
    lam: frozenset[str] = frozenset().union(*(l.suc1 for l in leaves_psi))
    xi: frozenset[str] = frozenset().union(*(l.ant2 for l in leaves_psi))
    omega: frozenset[str] = frozenset().union(*(l.suc2 for l in leaves_psi))
    return [
        LeafAtoms(
            ant1=leaf.ant1 & (lam | omega),
            suc1=leaf.suc1 & theta,
            ant2=leaf.ant2 & omega,
            suc2=leaf.suc2 & (theta | xi),
        )
        for leaf in leaves_phi
    ]


def _disjunct(logic: LogicDef, primed: LeafAtoms) -> Formula:
    """One disjunct of the interpolant: a conjunction of literals that
    all close the leaf ``primed`` comes from.

    The antecedent of the goal's sequent gives plain atoms, the succedent
    of the other sequent negated atoms.  The other two slots give, in the
    native logics, one negated disjunction of the antecedent's negated
    atoms and the succedent's atoms.  With an added negation the
    succedent's atoms go under it one by one, and the antecedent's under
    it after the logic's own negation (in G3prime, under the logic's
    negation twice).  G3 instead folds its second sequent into one
    Heyting-negated formula.  Atoms appear in name order; empty parts are
    left out, and the whole is never empty when the combined-leaf check
    holds.
    """
    # the connectives that ~, & and | denote in the logic's own language
    neg, conj, disj = (_resolve_generic(t, logic.signature) for t in "~&|")
    added = _ADDED_NEGATION[logic.name]

    def literals(names: frozenset[str], *tags: str) -> list[Formula]:
        # each atom under the negations ``tags``, outermost first
        return [
            reduce(lambda f, tag: Compound(tag, (f,)), reversed(tags), Atom(a))
            for a in sorted(names)
        ]

    ant, suc = logic.goal_slots
    other_ant, other_suc = (s for s in SLOTS if s not in (ant, suc))
    pos, negd, inner_neg, inner_pos = (
        getattr(primed, s) for s in (ant, other_suc, other_ant, suc)
    )
    conjuncts = literals(pos)
    if logic.name == "G3":
        ant2, suc2 = literals(inner_neg), literals(negd)
        if ant2 and suc2:
            impl = _resolve_generic("->", logic.signature)
            body: Formula = Compound(impl, (_fold(conj, ant2), _fold(disj, suc2)))
            conjuncts.append(Compound(neg, (body,)))
        elif suc2:
            conjuncts.append(Compound(neg, (_fold(disj, suc2),)))
        elif ant2:
            # "not false" of the conjunction, expressed by a double negation
            conjuncts.append(Compound(neg, (Compound(neg, (_fold(conj, ant2),)),)))
        conjuncts += literals(inner_pos, added)
    elif added is not None:
        outer = neg if logic.name == "G3prime" else added
        conjuncts += literals(negd, neg) + literals(inner_pos, added)
        conjuncts += literals(inner_neg, outer, neg)
    else:
        conjuncts += literals(negd, neg)
        inner = literals(inner_neg, neg) + literals(inner_pos)
        if inner:
            # keep a disjunction node even for one disjunct: the disjunction
            # rule moving literals across the two sequents is what lets these
            # literals close their leaf, and or_c/or_se are not transparent to
            # the second-sequent value constraints the way a bare literal is
            body = _fold(disj, inner) if len(inner) > 1 else Compound(disj, (inner[0], inner[0]))
            conjuncts.append(Compound(neg, (body,)))
    return _fold(conj, conjuncts)


def interpolate_extended(
    logic: LogicDef,
    phi: Formula,
    psi: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> tuple[Formula, LogicDef]:
    """Interpolant for an entailment of contingent formulas in I1, I2, P1,
    P2, K3, LP, G3 or G3prime: its atoms occur in both formulas, the left
    formula entails it, and it entails the right formula.  Returns the
    interpolant together with the logic it lives in: the logic itself for
    I1, I2, P1 and P2, and for the other four the logic extended with one
    extra negation.  Callers should accept it only after
    ``verify_interpolant`` in that logic."""
    if logic.name not in _ADDED_NEGATION:
        raise InterpolationError(
            f"interpolation is supported for {', '.join(_ADDED_NEGATION)}"
        )
    if not matrix_consequence(logic, (phi,), psi, max_atoms):
        raise NotEntailedError(f"the entailment does not hold in {logic.name}")
    if not (atoms(phi) & atoms(psi)):
        raise NoSharedAtomError("the formulas share no atom")
    ant, suc = logic.goal_slots
    leaves_phi = _open_leaf_atoms(logic, bisequent(**{ant: (phi,)}))
    leaves_psi = _open_leaf_atoms(logic, bisequent(**{suc: (psi,)}))
    for side, leaves in (("left", leaves_phi), ("right", leaves_psi)):
        if not leaves:
            raise NotContingentError(
                f"{side} formula is not contingent (its proof-search tree has no open leaf)"
            )
    if not combined_leaf_check(leaves_phi, leaves_psi):
        raise InterpolationError("combined leaves are not all axiomatic")
    disjuncts = []
    # distinct leaves can filter down to the same primed sets, and those
    # give the same disjunct
    for primed in dict.fromkeys(_primed_sets(leaves_phi, leaves_psi)):
        if not (primed.ant1 or primed.suc1 or primed.ant2 or primed.suc2):
            raise InterpolationError("a leaf lost all atoms in the primed sets")
        disjuncts.append(_disjunct(logic, primed))
    added = _ADDED_NEGATION[logic.name]
    host = logic if added is None else logic.extended((added,))
    return _fold(_resolve_generic("|", logic.signature), disjuncts), host


def interpolate(
    logic: LogicDef,
    phi: Formula,
    psi: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> Formula:
    """``interpolate_extended`` for the logics whose own language holds
    their interpolants (I1, I2, P1 and P2), returning the formula alone."""
    if logic.name not in _ADDED_NEGATION or _ADDED_NEGATION[logic.name]:
        native = [name for name, added in _ADDED_NEGATION.items() if added is None]
        raise InterpolationError(
            f"interpolation in the logic's own language is supported for "
            f"{', '.join(native)}; see interpolate_extended"
        )
    return interpolate_extended(logic, phi, psi, max_atoms)[0]


def verify_interpolant(
    logic: LogicDef,
    phi: Formula,
    psi: Formula,
    candidate: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """Atom inclusion plus both entailments, each confirmed by the matrix
    oracle and by proof search independently."""
    if not atoms(candidate) <= (atoms(phi) & atoms(psi)):
        return False
    mode = designated_mode(logic)
    for left, right in ((phi, candidate), (candidate, psi)):
        if not matrix_consequence(logic, (left,), right, max_atoms):
            return False
        if not prove(logic, mode, (left,), right).proved:
            return False
    return True
