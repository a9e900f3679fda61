"""Backward proof search over bisequents.

The search runs until the verdict is settled.  A node with a clash (an
axiomatic node) is a closed leaf at once, before any rule decomposes it;
every other node is decomposed at one occurrence, and its premisses are
searched in order until the first one whose subtree is open.  Both
shortcuts keep the verdict because every rule is invertible: no
assignment falsifies an axiomatic node, so its full subtree would have
only axiomatic leaves, and the premisses after the first open one cannot
close the node again.  So a subtree's verdict is the status of its last
leaf, which each node keeps, and that leaf, if open, is the first open
leaf a complete search would list.  Interpolation, which needs every
open leaf, walks the full decomposition itself.  Every rule trades a
formula occurrence for proper subformula occurrences, so the search
terminates.  The verdict does not depend on the order of rule
applications, but the size of the search does: a node is decomposed at
the occurrence whose rule has the fewest premisses, so one-premiss (α)
rules go before branching (β) rules and are not repeated in every
branch, with ties broken in scan order.  The choice is deterministic,
which keeps proof objects and countermodels reproducible.  An open leaf
yields a countermodel that falsifies the whole branch down to the root.

A ``ProofTree`` node is one flat tuple, ``(node, rule, occurrence,
leaf_status, *children)``, read through named properties, and nodes
decomposed at equal ``(slot, index)`` occurrences share one occurrence
tuple.  A memo keeps every node it has seen alive, so each node holds no
record beyond its own tuple and its bisequent.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

# ``ModeMismatchError``, ``designated_mode`` and ``goal_bisequent`` live
# beside ``Bisequent`` and are re-exported here
from .bisequent import (
    SLOTS,
    Bisequent,
    ModeMismatchError,
    bisequent_atoms,
    clashes,
    designated_mode,
    goal_bisequent,
    is_atomic,
    is_axiomatic,
    render_bisequent,
)
from .calculus import Catalog, apply_rule, catalog
from .formula import Atom, Compound, Formula
from .logics import LogicDef, Value, check_formulas
from .record import Record, _set

__all__ = [
    "LeafError",
    "ModeMismatchError",
    "ProofTree",
    "Proved",
    "Refuted",
    "SearchResult",
    "complete_search",
    "countermodel_from_leaf",
    "designated_mode",
    "goal_bisequent",
    "prove",
    "prove_bisequent",
]

class LeafError(ValueError):
    pass


class ProofTree(tuple):
    """A search node, the tuple ``(node, rule, occurrence, leaf_status,
    *children)``: the bisequent, the rule name and the ``(slot, index)``
    occurrence it was decomposed at (both None at a leaf), the status
    ("axiomatic" or "open") of the subtree's last leaf, which is its
    verdict, and the premiss subtrees.  One flat tuple per node, so a
    memoised node keeps no separate children tuple; equality and hashing
    are the tuple's."""

    __slots__ = ()
    node = property(itemgetter(0))
    rule = property(itemgetter(1))
    occurrence = property(itemgetter(2))
    leaf_status = property(itemgetter(3))
    children = property(itemgetter(slice(4, None)))

    def __new__(
        cls,
        node: Bisequent,
        rule: str | None,
        occurrence: tuple[str, int] | None,
        children: Iterable["ProofTree"],
        leaf_status: str | None,
    ) -> "ProofTree":
        return tuple.__new__(cls, (node, rule, occurrence, leaf_status, *children))

    def __getnewargs__(self) -> tuple:
        return self[0], self[1], self[2], self[4:], self[3]

    @property
    def is_leaf(self) -> bool:
        return len(self) == 4

    def leaves(self) -> Iterator["ProofTree"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def open_leaves(self) -> list["ProofTree"]:
        return [leaf for leaf in self.leaves() if leaf.leaf_status == "open"]

    def to_text(self, signature=None, indent: str = "") -> str:
        tag = f"[{self.rule}]" if self.rule else f"[{self.leaf_status}]"
        lines = [f"{indent}{render_bisequent(self.node, signature)}   {tag}"]
        for child in self.children:
            lines.append(child.to_text(signature, indent + "  "))
        return "\n".join(lines)

    def to_dict(self, signature=None) -> dict:
        out: dict = {"bisequent": render_bisequent(self.node, signature)}
        if self.rule is not None:
            out["rule"] = self.rule
            out["children"] = [c.to_dict(signature) for c in self.children]
        else:
            out["status"] = self.leaf_status
        return out


class Proved(Record):
    __slots__ = _fields = ("tree",)

    def __init__(self, tree: ProofTree) -> None:
        _set(self, "tree", tree)

    @property
    def proved(self) -> bool:
        return True


class Refuted(Record):
    __slots__ = _fields = ("tree", "countermodel")

    def __init__(self, tree: ProofTree, countermodel: Mapping[str, Value]) -> None:
        _set(self, "tree", tree)
        _set(self, "countermodel", countermodel)

    @property
    def proved(self) -> bool:
        return False


SearchResult = Union[Proved, Refuted]


# ---------------------------------------------------------------------------
# Search

def _select_occurrence(cat: Catalog, b: Bisequent) -> tuple[str, int, object] | None:
    """The decomposable occurrence with the fewest premisses, ties broken
    in scan order (the slots ant1, suc1, ant2, suc2, each front to back):
    the first one whose rule has a single premiss (an α-rule), else the
    first among those whose rule has the fewest.  A decomposable
    occurrence is a compound that the catalog maps, with its slot, to a
    rule; a compound whose rule there has no premisses (an axiom) stays
    put, it makes the bisequent axiomatic.

    Applying α-rules before branching (β-) rules keeps a branching step
    from copying the pending one-premiss steps into each of its branches.
    Every rule is invertible, so the order cannot change a verdict."""
    best = None
    fewest = 0
    for slot in SLOTS:
        for i, f in enumerate(getattr(b, slot)):
            if f.__class__ is Compound:
                rule = cat[f[1], slot]  # by its connective, and the slot
                if rule is None:
                    continue
                n = len(rule.premisses)
                if n == 1:
                    return slot, i, rule
                if best is None or n < fewest:
                    best, fewest = (slot, i, rule), n
    return best


def complete_search(
    logic: LogicDef,
    b: Bisequent,
    strategy: str = "leftmost",
    use_memo: bool = True,
    memo: dict[Bisequent, ProofTree] | None = None,
) -> ProofTree:
    """Search ``b`` until its verdict is settled.

    A provable ``b`` gets a proof: every leaf is axiomatic.  Otherwise the
    tree is the search explored up to the first open leaf, which ends its
    rightmost path; premisses after the first open one are left out.  The
    root's ``leaf_status`` is the verdict either way.  The name dates from
    when the search built every branch, and it stays so that callers that
    reach the search by name, the benchmark's tracing wrapper among them,
    keep working.

    The search runs one way.  ``strategy`` and ``use_memo`` keep their
    names and places only because that wrapper passes all five arguments
    by position.  Each accepts only its default, "leftmost" and True, and
    any other value raises ``ValueError``: every rule is invertible and
    has the subformula property, so neither the scan order nor the sharing
    of equal subtrees can change a verdict.

    Identical sub-bisequents share one subtree (multiset equality), which
    cannot change the verdict because the rules are context independent.
    A caller running many searches in one logic may pass a shared ``memo``
    dictionary to keep the sharing across calls.  Raises
    ``EvaluationError``, as the oracle does and with its message, when
    ``b`` holds a connective outside the logic's signature, or a constant
    and the logic does not enable constants.  ``check_formulas`` checks
    both before the search starts: otherwise a clashing root would be
    proved, and a leaf holding a connective without rules would not be
    atomic.
    """
    if strategy != "leftmost" or use_memo is not True:
        raise ValueError(
            f"the search scans leftmost and memoises, not strategy={strategy!r}"
            f" with use_memo={use_memo!r}"
        )
    check_formulas(logic, (*b.ant1, *b.suc1, *b.ant2, *b.suc2))
    return _search(logic, catalog(logic), {} if memo is None else memo, b)


def _last_leaf(tree: ProofTree) -> ProofTree:
    """The leaf at the end of the rightmost path: the first open leaf of a
    refutation, whose countermodel ``prove_bisequent`` reads off."""
    while len(tree) > 4:
        tree = tree[-1]
    return tree


_tuple_new = tuple.__new__

#: one shared ``(slot, index)`` tuple per occurrence, so that the nodes
#: decomposed at equal occurrences do not each keep their own pair
_OCCURRENCES: dict[tuple[str, int], tuple[str, int]] = {}


def _search(
    logic: LogicDef, cat: Catalog, memo: dict[Bisequent, ProofTree], node: Bisequent
) -> ProofTree:
    # a module-level function rather than a closure over itself, so that no
    # reference cycle keeps the memo alive after the search returns
    if (tree := memo.get(node)) is not None:
        return tree
    # nodes are built as ``tuple.__new__(ProofTree, fields)``, which is what
    # ``ProofTree(...)`` does, without the call to ``ProofTree.__new__``
    if is_axiomatic(logic, node):
        tree = _tuple_new(ProofTree, (node, None, None, "axiomatic"))
    elif (picked := _select_occurrence(cat, node)) is None:
        tree = _tuple_new(ProofTree, (node, None, None, "open"))
    else:
        slot, index, rule = picked
        occurrence = (slot, index)
        occurrence = _OCCURRENCES.setdefault(occurrence, occurrence)
        fields = [node, rule.name, occurrence, None]
        for premiss in apply_rule(rule, node, occurrence):
            child = _search(logic, cat, memo, premiss)
            fields.append(child)
            if child[3] == "open":
                break
        fields[3] = child[3]
        tree = _tuple_new(ProofTree, fields)
    memo[node] = tree
    return tree


def countermodel_from_leaf(leaf: Bisequent) -> dict[str, Value]:
    """Falsifying assignment for an atomic, nonaxiomatic leaf, keyed by
    the leaf's atoms.

    Priority: ant1 atoms get 1 and suc2 atoms 0 (forced); atoms in both
    suc1 and ant2 get u; atoms only in suc1 get 0, only in ant2 get 1.
    Nonaxiomaticity rules out every clash, so the result meets all four
    slot constraints.
    """
    if not is_atomic(leaf):
        raise LeafError("leaf is not atomic")
    ant1, suc1, ant2, suc2 = leaf.ant1, leaf.suc1, leaf.ant2, leaf.suc2
    if clashes(set(ant1), suc1, ant2, set(suc2)):
        raise LeafError("leaf is axiomatic")
    # lowest priority first: each later slot overwrites the ones before
    in_ant2 = {f[1] for f in ant2 if f.__class__ is Atom}  # f[1]: its name
    assignment = dict.fromkeys(in_ant2, Value.ONE)
    for f in suc1:
        if f.__class__ is Atom:
            assignment[f[1]] = Value.UNDEF if f[1] in in_ant2 else Value.ZERO
    for f in suc2:
        if f.__class__ is Atom:
            assignment[f[1]] = Value.ZERO
    for f in ant1:
        if f.__class__ is Atom:
            assignment[f[1]] = Value.ONE
    return assignment


# ---------------------------------------------------------------------------
# The decision procedure

def prove_bisequent(
    logic: LogicDef,
    root: Bisequent,
    strategy: str = "leftmost",
    memo: dict[Bisequent, ProofTree] | None = None,
) -> SearchResult:
    """Decision procedure on a root bisequent: proved iff the search
    closes every branch, otherwise refuted with an assignment read off the
    first open leaf (atoms absent from that branch get u).  Raises
    ``EvaluationError`` as ``complete_search`` does, for a connective
    outside the logic as well as for a constant it does not enable.
    ``strategy``, kept with ``prove``'s for callers that pass it by
    position, goes to ``complete_search``, which accepts only "leftmost"."""
    tree = complete_search(logic, root, strategy, memo=memo)
    if tree.leaf_status == "axiomatic":
        return Proved(tree)
    # every rule has the subformula property, so the leaf's atoms are
    # among the root's
    get = countermodel_from_leaf(_last_leaf(tree).node).get
    countermodel = {name: get(name, Value.UNDEF) for name in sorted(bisequent_atoms(root))}
    return Refuted(tree, countermodel)


def prove(
    logic: LogicDef,
    mode: str,
    premisses: Iterable[Formula],
    conclusion: Formula,
    strategy: str = "leftmost",
) -> SearchResult:
    return prove_bisequent(
        logic, goal_bisequent(logic, mode, premisses, conclusion), strategy
    )
