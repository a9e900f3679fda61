from __future__ import annotations

import copy
import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent.bisequent import bisequent, bisequent_atoms, is_atomic, parse_bisequent
from trivalent.calculus import (
    RuleVerdict,
    _synthesized,
    apply_rule,
    catalog,
    verify_rule_schema,
)
from trivalent.formula import Atom, Compound, complexity, iter_formulas
from trivalent.interpolation import LeafAtoms
from trivalent.logics import SLOTS, EvaluationError, Value, lookup_logic, tables
from trivalent.prover import (
    LeafError,
    ModeMismatchError,
    ProofTree,
    Proved,
    Refuted,
    _select_occurrence,
    complete_search,
    countermodel_from_leaf,
    designated_mode,
    goal_bisequent,
    prove,
    prove_bisequent,
)
from trivalent.semantics import (
    _logic_cells,
    bisequent_valid,
    falsifies,
    matrix_consequence,
)

from conftest import (
    ALL_LOGICS,
    CORE_LOGICS,
    formulas,
    random_formula,
    run_sweep,
    with_constants,
)
from structural import (
    CutShapeError,
    add,
    admissible_cut,
    admissible_weaken,
    complete_tree,
    is_proof,
)

K3 = lookup_logic("K3")
LP = lookup_logic("LP")
ZERO, UNDEF, ONE = Value.ZERO, Value.UNDEF, Value.ONE


def bp(text, logic=K3):
    return parse_bisequent(text, logic.signature)


class TestCompleteSearch:
    def test_single_conjunction_step(self):
        tree = complete_search(K3, bp("p & q => p | =>"))
        assert tree.rule == "and.ant1"
        assert len(tree.children) == 1
        leaf = tree.children[0]
        assert leaf.node == bp("p, q => p | =>")
        assert leaf.leaf_status == "axiomatic"
        assert is_proof(tree)

    def test_atomic_root_is_a_leaf(self):
        tree = complete_search(K3, bp("=> p | =>"))
        assert tree.is_leaf and tree.leaf_status == "open"

    def test_lp_excluded_middle(self):
        tree = complete_search(LP, bp("=> | => p | ~p", LP))
        assert is_proof(tree)
        rules = {t.rule for t in _nodes(tree) if t.rule}
        assert rules == {"or.suc2", "neg.suc2"}

    def test_open_leaves_are_atomic_and_compound_leaves_axiomatic(self):
        b = bp("p -> (q | ~p) => q & p | p => ~q")
        compound = 0
        for tree in (complete_search(K3, b), complete_tree(K3, b)):
            for leaf in tree.leaves():
                if leaf.leaf_status == "open":
                    assert is_atomic(leaf.node)
                elif not is_atomic(leaf.node):
                    assert leaf.leaf_status == "axiomatic"
                    compound += 1
        assert compound  # the clash on p closes a node before it is decomposed

    def test_palasinska_axiom_leaf_may_stay_compound(self):
        pal = lookup_logic("Palasinska1")
        tree = complete_search(pal, parse_bisequent("=> | => p o1 q", pal.signature))
        assert tree.is_leaf and tree.leaf_status == "axiomatic"

    def test_children_are_exactly_the_rule_premisses(self):
        tree = complete_tree(K3, bp("p -> q => p & q | r => ~r"))
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.leaf_status in ("axiomatic", "open")
                continue
            slot, index = node.occurrence
            f = node.node.slot(slot)[index]
            rule = catalog(K3).rule_for(f.connective, slot)
            assert rule.name == node.rule
            premisses = apply_rule(rule, node.node, node.occurrence)
            assert [c.node for c in node.children] == premisses
            stack.extend(node.children)

    @pytest.mark.parametrize("name", ("K3", "L3", "PWK", "P3"))
    def test_search_stops_after_the_first_open_premiss(self, name):
        logic = lookup_logic(name)
        cat = catalog(logic)
        rng = random.Random(f"first-open:{name}")
        roots = [bp("=> p & q | =>")] if name == "K3" else []
        roots += [
            goal_bisequent(logic, designated_mode(logic),
                           (random_formula(rng, logic.signature, "pqr", 3),),
                           random_formula(rng, logic.signature, "pqr", 3))
            for _ in range(30)
        ]
        refuted = 0
        for root in roots:
            tree = complete_search(logic, root)
            refuted += _is_open(tree)
            for node in _distinct(tree):
                if node.is_leaf:
                    continue
                f = node.node.slot(node.occurrence[0])[node.occurrence[1]]
                rule = cat.rule_for(f.connective, node.occurrence[0])
                premisses = apply_rule(rule, node.node, node.occurrence)
                assert [c.node for c in node.children] == premisses[:len(node.children)]
                assert not any(_is_open(c) for c in node.children[:-1])
                if not _is_open(node.children[-1]):
                    assert len(node.children) == len(premisses)
        assert refuted

    def test_memoisation_shares_subtrees(self):
        b = bp("=> p & p | p & p =>")
        tree = complete_search(K3, b)
        assert tree.children[0] is not None
        plain = complete_search(K3, b, use_memo=False)
        assert is_proof(tree) == is_proof(plain)
        assert [l.node for l in tree.leaves()] == [l.node for l in plain.leaves()]


class TestProofTreeLayout:
    def test_equals_a_rebuilt_copy(self):
        def rebuild(t):
            return ProofTree(
                node=t.node, rule=t.rule, occurrence=t.occurrence,
                children=[rebuild(c) for c in t.children], leaf_status=t.leaf_status,
            )

        proof, refutation = (
            complete_search(K3, bp(text)) for text in ("p | q => p, q | =>", "p | q => q & p | =>")
        )
        for tree in (proof, refutation):
            twin = rebuild(tree)
            assert twin is not tree and twin == tree and hash(twin) == hash(tree)
        assert rebuild(proof) != refutation

    def test_children_are_the_premiss_subtrees_in_order(self):
        b = bp("p | q => p, q | =>")
        tree = complete_search(K3, b)
        premisses = apply_rule(catalog(K3).rule_for("or", "ant1"), b, ("ant1", 0))
        assert len(premisses) == 2
        assert tree.children == (complete_search(K3, premisses[0]),
                                 complete_search(K3, premisses[1]))
        assert all(leaf.is_leaf and leaf.children == () for leaf in tree.children)
        assert not tree.is_leaf

    def test_equal_occurrences_share_one_tuple(self):
        l3 = lookup_logic("L3")
        tree = complete_search(l3, goal_bisequent(
            l3, "designated_1", (l3.parse("(p -> q) -> r"),), l3.parse("~r -> ~(p & ~q)")))
        by_value: dict = {}
        for node in _nodes(tree):
            if node.occurrence is not None:
                by_value.setdefault(node.occurrence, set()).add(id(node.occurrence))
        assert max(len(ids) for ids in by_value.values()) == 1
        assert sum(1 for node in _nodes(tree) if node.occurrence is not None) > len(by_value)


def _roundtrips(value):
    yield pickle.loads(pickle.dumps(value))
    yield copy.copy(value)
    yield copy.deepcopy(value)


def test_formulas_bisequents_and_results_survive_pickling_and_copying():
    k3c = K3.with_constants()
    f = k3c.parse("p & ~q | T")
    proved = prove(K3, "designated_1", (K3.parse("p & q"),), K3.parse("q | r"))
    refuted = prove(K3, "designated_1", (K3.parse("p | q"),), K3.parse("q & p"))
    assert proved.proved and not refuted.proved
    for value in (f, Atom("p"), k3c.parse("U"), bp("p & q => q | r => ~p"), proved, refuted):
        for twin in _roundtrips(value):
            assert twin == value and type(twin) is type(value)
    # the records: their fields, and whether they hash (a dict field does not)
    assert k3c.signature == frozenset(K3.connectives)  # fills the cache first
    rule = catalog(K3).rule_for("or", "suc1")
    axiom = catalog(lookup_logic("Palasinska1")).rules[-1]
    assert not axiom.premisses
    # premisses carry a hash derived from their parent's, and a copy sums
    # its own from the four slots: one step moves s from ant1 to suc2
    root = bp("p & (q | r), ~s => s | ~~t => t, p")
    (premiss,) = apply_rule(catalog(K3).rule_for("and", "ant1"), root, ("ant1", 0))
    (moved,) = apply_rule(catalog(K3).rule_for("neg", "ant1"), premiss, ("ant1", 0))
    split = apply_rule(catalog(K3).rule_for("or", "ant1"), moved, ("ant1", 1))
    assert moved.suc2 == (*root.suc2, Atom("s")) and len(split) == 2
    records = [
        (K3, ("name", "connectives", "designated", "constants_enabled"), True),
        (k3c, ("name", "connectives", "designated", "constants_enabled"), True),
        (tables()["neg"], ("name", "arity", "entries"), False),
        (rule, ("name", "connective", "principal_slot", "premisses"), True),
        (rule.premisses[0], ("placements",), True),
        (rule.premisses[0].placements[0], ("slot", "arg_index"), True),
        (axiom, ("name", "connective", "principal_slot", "premisses"), True),
        (verify_rule_schema(K3, rule), ("ok", "counterexample"), True),
        (RuleVerdict(False, (Value.ONE, Value.UNDEF)), ("ok", "counterexample"), True),
        (LeafAtoms(frozenset("p"), frozenset(), frozenset("pq"), frozenset("r")), SLOTS, True),
        (bp("p & q => q | r => ~p"), SLOTS, True),
        *((b, SLOTS, True) for b in (premiss, moved, *split)),
        (proved, ("tree",), True),
        (refuted, ("tree", "countermodel"), False),
    ]
    for value, fields, hashable in records:
        for twin in _roundtrips(value):
            assert twin == value and type(twin) is type(value)
            assert [getattr(twin, n) for n in fields] == [getattr(value, n) for n in fields]
            if hashable:
                assert hash(twin) == hash(value)
            else:
                with pytest.raises(TypeError):
                    hash(twin)
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert value != tuple(getattr(value, n) for n in fields)
    premiss = rule.premisses[0]
    assert all(twin.moves == premiss.moves for twin in _roundtrips(premiss))
    assert all(twin.signature == k3c.signature for twin in _roundtrips(k3c))


def test_memo_costs_under_340_traced_bytes_per_entry():
    """One memo per logic over ``run_sweep``'s goal shapes in K3 and L3,
    with conclusions of up to 2 connectives: each entry keeps a bisequent
    (its four slot tuples and its stored multiset hash, an int below
    2**61; the sorted key is computed only when equal hashes meet) and a
    flat proof node.  With the results dropped, the memos and their roots
    are all that stays traced."""
    goals = []
    for name in ("K3", "L3"):
        logic = lookup_logic(name)
        by_count: dict[int, list] = {}
        for f in iter_formulas(logic.signature, ("p", "q"), 2):
            by_count.setdefault(complexity(f), []).append(f)
        upto = lambda n: [f for k in range(n + 1) for f in by_count.get(k, ())]
        goals += [(logic, (), f) for f in upto(2)]
        goals += [(logic, (g,), f) for g in upto(1) for f in upto(2)]
        catalog(logic).rules  # synthesise the rules before tracing starts
    memos: dict = {}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for logic, premisses, conclusion in goals:
            root = goal_bisequent(logic, designated_mode(logic), premisses, conclusion)
            prove_bisequent(logic, root, memo=memos.setdefault(logic.name, {}))
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(map(len, memos.values()))
    assert entries > 20_000
    assert used / entries <= 340, used / entries


def _nodes(tree):
    yield tree
    for c in tree.children:
        yield from _nodes(c)


def _distinct(tree):
    """Each distinct subtree of a memo-shared tree once."""
    seen, todo = {}, [tree]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t.children)
    return list(seen.values())


def _is_open(tree):
    return any(leaf.leaf_status == "open" for leaf in tree.leaves())


@pytest.mark.parametrize("name", ALL_LOGICS)
def test_early_closure_is_sound(name):
    """A node closed before decomposition has no falsifying assignment, so
    the subtree the search skips would have had no open leaf."""
    logic = lookup_logic(name)
    mode = designated_mode(logic)
    rng = random.Random(f"closure:{name}")
    closed = 0
    for _ in range(40):
        premiss = random_formula(rng, logic.signature, "pqr", rng.randint(2, 4))
        conclusion = random_formula(rng, logic.signature, "pqr", rng.randint(2, 4))
        tree = prove(logic, mode, (premiss,), conclusion).tree
        for node in _distinct(tree):
            if node.is_leaf and node.leaf_status == "axiomatic" and not is_atomic(node.node):
                assert bisequent_valid(logic, node.node)
                closed += 1
    assert closed


def _assert_nodes_keep_their_verdict(nodes):
    # checked on every node, so by induction a node marked "axiomatic" has
    # only axiomatic leaves
    for node in nodes:
        last = node
        while not last.is_leaf:
            last = last.children[-1]
        assert node.leaf_status == last.leaf_status
        assert all(c.leaf_status == "axiomatic" for c in node.children[:-1])


@pytest.mark.parametrize("name", ("K3", "L3", "PWK"))
def test_each_node_keeps_its_last_leafs_status_in_a_shared_memo(name):
    logic = lookup_logic(name)
    data = run_sweep(logic)
    assert data.proved and data.refuted and not data.disagreements
    _assert_nodes_keep_their_verdict(data.memo.values())
    for root in data.proved:
        assert data.memo[root].leaf_status == "axiomatic"
    for root, _ in data.refuted:
        assert data.memo[root].leaf_status == "open"


@pytest.mark.parametrize("name, n", (("K3", 12), ("L3", 5), ("I1", 12), ("K3w", 3), ("PWK", 3)))
def test_each_node_keeps_its_last_leafs_status_on_deep_goals(name, n):
    logic = lookup_logic(name)
    mode = designated_mode(logic)
    rng = random.Random(f"verdicts:{name}:{n}")
    verdicts = set()
    for _ in range(20):
        a = random_formula(rng, logic.signature, "pqrs", n)
        b = random_formula(rng, logic.signature, "pqrs", n)
        result = prove(logic, mode, (a,), b)
        assert result.tree.leaf_status == ("axiomatic" if result.proved else "open")
        _assert_nodes_keep_their_verdict(_distinct(result.tree))
        verdicts.add(result.proved)
    assert verdicts == {True, False}


class TestProve:
    def test_modus_ponens(self):
        result = prove(K3, "designated_1", (K3.parse("p"), K3.parse("p -> q")), K3.parse("q"))
        assert isinstance(result, Proved)

    def test_excluded_middle_countermodel(self):
        result = prove(K3, "designated_1", (), K3.parse("p | ~p"))
        assert isinstance(result, Refuted)
        assert result.countermodel == {"p": UNDEF}

    def test_lp_proves_excluded_middle(self):
        result = prove(LP, "designated_2", (), LP.parse("p | ~p"))
        assert isinstance(result, Proved)

    def test_mode_must_match_designated_set(self):
        with pytest.raises(ModeMismatchError):
            prove(K3, "designated_2", (), K3.parse("p"))
        with pytest.raises(ModeMismatchError):
            prove(LP, "designated_1", (), LP.parse("p"))

    def test_refutation_countermodel_falsifies_root(self):
        premisses = (K3.parse("p -> q"),)
        conclusion = K3.parse("q | ~p")
        result = prove(K3, "designated_1", premisses, conclusion)
        if isinstance(result, Refuted):
            root = goal_bisequent(K3, "designated_1", premisses, conclusion)
            assert falsifies(K3, result.countermodel, root)

    @pytest.mark.parametrize("goal", ("U => U | =>", "=> T | =>", "p & F => | =>"))
    def test_constants_need_opt_in_like_the_oracle(self, goal):
        from trivalent.logics import EvaluationError

        with pytest.raises(EvaluationError, match="constants are not enabled"):
            prove_bisequent(K3, bp(goal))
        assert isinstance(prove_bisequent(K3.with_constants(), bp(goal)), Proved)

    @pytest.mark.parametrize("goal", ("U => U | =>", "U => | =>"))
    def test_complete_search_rejects_constants_too(self, goal):
        # otherwise the first tree is axiomatic and the second open
        from trivalent.logics import EvaluationError

        with pytest.raises(EvaluationError, match="constants are not enabled"):
            complete_search(K3, bp(goal))

    @pytest.mark.parametrize("logic", (K3, K3.with_constants()), ids=("K3", "K3+c"))
    @pytest.mark.parametrize(
        "premiss, conclusion, named",
        (
            ("neg_h p", "neg_h p", "neg_h"),
            (None, "neg_h p", "neg_h"),
            ("p & box p", "neg_h p", "box"),
        ),
        ids=("clashing", "open", "first-in-evaluation-order"),
    )
    def test_connectives_outside_the_logic_are_rejected_like_the_oracle(
        self, logic, premiss, conclusion, named
    ):
        # otherwise the clashing goal's root is axiomatic (proved), and the
        # open goals' leaves keep a compound they cannot decompose (LeafError)
        wide = logic.extended(("neg_h", "box"))
        premisses = () if premiss is None else (wide.parse(premiss),)
        conclusion = wide.parse(conclusion)
        with pytest.raises(EvaluationError) as oracle_error:
            matrix_consequence(logic, premisses, conclusion)
        with pytest.raises(EvaluationError) as prover_error:
            prove(logic, "designated_1", premisses, conclusion)
        message = f"connective {named!r} is not in logic {logic.name}"
        assert str(prover_error.value) == str(oracle_error.value) == message

    def test_branch_local_atoms_default_to_undefined(self):
        # the first open branch never sees q; it is filled in as u
        result = prove(K3, "designated_1", (), K3.parse("p & q"))
        assert isinstance(result, Refuted)
        assert result.countermodel == {"p": ZERO, "q": UNDEF}


@pytest.mark.parametrize("first", ("G3", "K3"))
def test_caches_never_widen_a_logic(first):
    """The per-connective rules and table cells are shared between logics,
    and the per-logic catalog and oracle cells are built lazily.  However
    G3's calls for neg_h and K3's are ordered, K3 keeps rejecting neg_h,
    which K3.extended(("neg_h",)) accepts."""
    for cache in (_logic_cells, _synthesized, catalog):
        cache.cache_clear()
    g3 = lookup_logic("G3")
    neg_h_p = Compound("neg_h", (Atom("p"),))
    goals = (((neg_h_p,), neg_h_p), ((), neg_h_p))

    def g3_decides():
        for premisses, conclusion in goals:
            holds = matrix_consequence(g3, premisses, conclusion)
            assert prove(g3, "designated_1", premisses, conclusion).proved == holds

    def k3_rejects():
        for premisses, conclusion in goals:
            with pytest.raises(EvaluationError, match="connective 'neg_h' is not in logic K3"):
                matrix_consequence(K3, premisses, conclusion)
            with pytest.raises(EvaluationError, match="connective 'neg_h' is not in logic K3"):
                prove(K3, "designated_1", premisses, conclusion)

    if first == "G3":
        g3_decides()
        k3_rejects()
    else:
        k3_rejects()
        g3_decides()
        k3_rejects()
    assert catalog(g3).rule_for("neg_h", "suc1") is not None
    wide = K3.extended(("neg_h",))
    verdicts = [prove(wide, "designated_1", *goal).proved for goal in goals]
    assert verdicts == [matrix_consequence(wide, *goal) for goal in goals] == [True, False]


class TestCountermodelFromLeaf:
    def test_split_atom_goes_undefined(self):
        assert countermodel_from_leaf(bp("=> p | p =>")) == {"p": UNDEF}

    def test_policy_on_disjoint_slots(self):
        assert countermodel_from_leaf(bp("p => q | =>")) == {"p": ONE, "q": ZERO}
        assert countermodel_from_leaf(bp("p => | => r")) == {"p": ONE, "r": ZERO}

    def test_first_sequent_antecedent_dominates(self):
        assert countermodel_from_leaf(bp("p => | p =>")) == {"p": ONE}

    def test_succedent_only_and_antecedent_only(self):
        assert countermodel_from_leaf(bp("=> q | r =>")) == {"q": ZERO, "r": ONE}

    def test_rejects_axiomatic_leaves(self):
        with pytest.raises(LeafError):
            countermodel_from_leaf(bp("p => p | =>"))

    def test_rejects_compound_leaves(self):
        with pytest.raises(LeafError):
            countermodel_from_leaf(bp("p & q => | =>"))

    @given(formulas(K3.signature, atom_names=("p", "q"), max_leaves=4))
    @settings(max_examples=60)
    def test_open_leaves_yield_genuine_falsifiers(self, f):
        tree = complete_tree(K3, bisequent(suc1=(f,), ant2=(f,)))
        for leaf in tree.open_leaves():
            h = countermodel_from_leaf(leaf.node)
            assert falsifies(K3, h, leaf.node)


@pytest.mark.parametrize("constants", (False, True), ids=("plain", "constants"))
@pytest.mark.parametrize("name", ALL_LOGICS)
def test_a_refutation_assigns_exactly_the_roots_atoms(name, constants):
    """Over seeded goals, every refutation's countermodel has the root's
    atoms as its keys, in sorted order, gives u to each atom that the open
    leaf lacks, and falsifies the root."""
    logic = lookup_logic(name)
    if constants:
        logic = logic.with_constants()
    rng = random.Random(f"refutations:{name}:{constants}")
    refuted = absent = 0
    for _ in range(40):
        sides = [random_formula(rng, logic.signature, "pqrs", rng.randint(0, 5)) for _ in range(2)]
        if constants:
            sides = [with_constants(rng, f) for f in sides]
        root = goal_bisequent(logic, designated_mode(logic), sides[:1], sides[1])
        result = prove_bisequent(logic, root)
        if result.proved:
            continue
        refuted += 1
        (leaf,) = result.tree.open_leaves()
        on_leaf = bisequent_atoms(leaf.node)
        assert list(result.countermodel) == sorted(bisequent_atoms(root))
        for atom, value in result.countermodel.items():
            if atom not in on_leaf:
                absent += 1
                assert value is UNDEF, atom
        assert falsifies(logic, result.countermodel, root)
    assert refuted >= 10 and absent > 0, (refuted, absent)


@pytest.mark.parametrize("name", CORE_LOGICS)
def test_prover_agrees_with_matrix_oracle(name):
    logic = lookup_logic(name)
    mode = designated_mode(logic)

    @given(
        formulas(logic.signature, atom_names=("p", "q", "r"), max_leaves=4),
        formulas(logic.signature, atom_names=("p", "q", "r"), max_leaves=4),
    )
    @settings(max_examples=60)
    def check(premiss, conclusion):
        result = prove(logic, mode, (premiss,), conclusion)
        assert result.proved == matrix_consequence(logic, (premiss,), conclusion)

    check()


@pytest.mark.parametrize("name", ("K3", "L3", "P1", "Palasinska1"))
def test_rule_order_cannot_change_the_verdict(name):
    logic = lookup_logic(name)

    @given(
        formulas(logic.signature, atom_names=("p", "q"), max_leaves=4),
        formulas(logic.signature, atom_names=("p", "q"), max_leaves=4),
    )
    @settings(max_examples=40)
    def check(f, g):
        b = bisequent(ant1=(f,), suc1=(g,), ant2=(g,))
        left = complete_search(logic, b, strategy="leftmost")
        right = complete_search(logic, b, strategy="rightmost")
        assert is_proof(left) == is_proof(right)

    check()


def _decomposable(cat, b):
    """(slot, index, premiss count) of every decomposable occurrence, in
    leftmost scan order."""
    out = []
    for slot, index, f in b.formulas():
        if isinstance(f, Compound) and (rule := cat.rule_for(f.connective, slot)):
            out.append((slot, index, len(rule.premisses)))
    return out


class TestSelectionOrder:
    def test_alpha_rule_goes_before_an_earlier_beta_rule(self):
        cat = catalog(K3)
        assert len(cat.rule_for("or", "ant1").premisses) == 2
        assert len(cat.rule_for("and", "ant1").premisses) == 1
        tree = complete_search(K3, bp("p | q, r & s => | =>"))
        assert tree.rule == "and.ant1" and tree.occurrence == ("ant1", 1)
        assert tree.children[0].rule == "or.ant1"

    @pytest.mark.parametrize("name", ("K3", "L3", "K3w", "P3", "Palasinska1"))
    def test_pick_has_the_fewest_premisses(self, name):
        logic = lookup_logic(name)
        cat = catalog(logic)
        slot_formulas = st.lists(
            formulas(logic.signature, atom_names=("p", "q"), max_leaves=3), max_size=2)

        @given(slot_formulas, slot_formulas, slot_formulas, slot_formulas)
        @settings(max_examples=60)
        def check(ant1, suc1, ant2, suc2):
            b = bisequent(ant1, suc1, ant2, suc2)
            found = _decomposable(cat, b)
            for strategy, scan in (("leftmost", found), ("rightmost", found[::-1])):
                picked = _select_occurrence(cat, b, strategy)
                if not found:
                    assert picked is None
                    continue
                fewest = min(n for _, _, n in found)
                first = next((s, i) for s, i, n in scan if n == fewest)
                assert picked[:2] == first
                assert len(picked[2].premisses) == fewest

        check()

    def test_fewer_rule_applications_than_leftmost_first(self, monkeypatch):
        """Same verdicts as a leftmost-first selection on seeded goals in a
        branching-heavy logic and a weak-Kleene one, with strictly fewer
        rule applications in total."""
        import trivalent.prover as prover_module

        def leftmost_first(cat, b, strategy):
            for slot, index, f in b.formulas():
                if isinstance(f, Compound) and (rule := cat.rule_for(f.connective, slot)):
                    return slot, index, rule
            return None

        goals = []
        for name, n in (("L3", 5), ("K3w", 3)):
            logic = lookup_logic(name)
            rng = random.Random(f"effort:{name}")
            goals += [
                (logic, random_formula(rng, logic.signature, "pqrs", n),
                 random_formula(rng, logic.signature, "pqrs", n))
                for _ in range(100)
            ]
        calls = [0]

        def counting(rule, b, occurrence):
            calls[0] += 1
            return apply_rule(rule, b, occurrence)

        monkeypatch.setattr(prover_module, "apply_rule", counting)

        def run():
            calls[0] = 0
            verdicts = [prove(logic, designated_mode(logic), (a,), c).proved
                        for logic, a, c in goals]
            return verdicts, calls[0]

        verdicts, applied = run()
        monkeypatch.setattr(prover_module, "_select_occurrence", leftmost_first)
        old_verdicts, old_applied = run()
        assert verdicts == old_verdicts
        assert 0 < applied < old_applied


class TestGoalModes:
    def test_goal_shapes(self):
        p, q = K3.parse("p"), K3.parse("q")
        assert goal_bisequent(K3, "designated_1", (p,), q) == bp("p => q | =>")
        assert goal_bisequent(LP, "designated_2", (p,), q) == bp("=> | p => q", LP)
        assert goal_bisequent(K3, "no_counterexample", (p,), q) == bp("p => | => q")
        assert goal_bisequent(K3, "liberal", (p,), q) == bp("=> q | p =>")

    @pytest.mark.parametrize("mode", ("no_counterexample", "liberal"))
    @pytest.mark.parametrize("name", ("K3", "LP", "S3", "I1"))
    def test_nonstandard_modes_match_their_semantics(self, name, mode):
        # proofs in these modes decide validity of the mode's root shape
        logic = lookup_logic(name)
        rng = random.Random(f"modes:{name}:{mode}")
        for _ in range(40):
            premiss = random_formula(rng, logic.signature, ("p", "q"), rng.randint(0, 3))
            conclusion = random_formula(rng, logic.signature, ("p", "q"), rng.randint(0, 3))
            result = prove(logic, mode, (premiss,), conclusion)
            root = goal_bisequent(logic, mode, (premiss,), conclusion)
            assert result.proved == bisequent_valid(logic, root)

    def test_mode_mismatch_messages(self):
        p = K3.parse("p")
        golden = {
            (K3, "designated_2"): "K3 has one designated value; its consequence "
            "goals live in the first sequent (designated_1)",
            (LP, "designated_1"): "LP has two designated values; its consequence "
            "goals live in the second sequent (designated_2)",
            (K3, "designated"): "unknown goal mode 'designated'",
        }
        for (logic, mode), message in golden.items():
            with pytest.raises(ModeMismatchError) as exc:
                goal_bisequent(logic, mode, (p,), p)
            assert str(exc.value) == message

    def test_liberal_and_no_counterexample_differ_from_designated(self):
        # p & q entails p in no-counterexample mode even in LP-style logics
        # where the shapes differ; just pin one concrete separation: the
        # excluded middle has no counterexample in K3 yet is not provable
        lem = K3.parse("p | ~p")
        assert prove(K3, "no_counterexample", (), lem).proved
        assert not prove(K3, "designated_1", (), lem).proved


class TestStructuralRules:
    def _proved_pool(self, logic, rng, count=40):
        pool = []
        mode = designated_mode(logic)
        while len(pool) < count:
            premiss = random_formula(rng, logic.signature, ("p", "q"), rng.randint(0, 3))
            conclusion = random_formula(rng, logic.signature, ("p", "q"), rng.randint(0, 3))
            result = prove(logic, mode, (premiss,), conclusion)
            if result.proved:
                pool.append(result.tree.node)
        return pool

    def test_weakening_preserves_provability(self):
        rng = random.Random(5)
        for name in ("K3", "LP", "L3"):
            logic = lookup_logic(name)
            for b in self._proved_pool(logic, rng, 25):
                extra = random_formula(rng, logic.signature, ("p", "q", "s"), rng.randint(0, 2))
                slot = rng.choice(("ant1", "suc1", "ant2", "suc2"))
                assert admissible_weaken(logic, b, {slot: (extra,)}).proved

    def test_weakening_with_nothing_is_identity(self):
        b = bp("p & q => p | =>")
        assert admissible_weaken(K3, b, {}).proved

    def test_lp_weakening_example(self):
        b = bp("=> | => p | ~p", LP)
        assert prove_bisequent(LP, b).proved
        assert admissible_weaken(LP, b, {"suc1": (LP.parse("s"),)}).proved

    def test_cut_on_first_sequent(self):
        left = bp("q & p => q | =>")
        right = bp("q => q | r | =>")
        assert prove_bisequent(K3, left).proved
        assert prove_bisequent(K3, right).proved
        result = admissible_cut(K3, left, right, K3.parse("q"), "cut1")
        assert result.proved
        assert result.tree.node == bp("q & p => q | r | =>")

    def test_cut_with_axiomatic_premisses(self):
        axiom = bp("p => p | =>")
        result = admissible_cut(K3, axiom, axiom, K3.parse("p"), "cut1")
        assert result.proved
        assert result.tree.node == bp("p => p | =>")

    def test_cut_shape_is_checked(self):
        with pytest.raises(CutShapeError):
            admissible_cut(K3, bp("p => q | =>"), bp("r => s | =>"), K3.parse("q"), "cut1")
        with pytest.raises(CutShapeError):
            admissible_cut(K3, bp("p => q | =>"), bp("q => s | =>"), K3.parse("q"), "bad")

    def test_random_cuts_stay_provable(self):
        rng = random.Random(17)
        for name in ("K3", "L3", "LP"):
            logic = lookup_logic(name)
            pool = self._proved_pool(logic, rng, 12)
            for _ in range(30):
                left, right = rng.choice(pool), rng.choice(pool)
                chi = random_formula(rng, logic.signature, ("p", "q"), rng.randint(0, 2))
                variant = rng.choice(("cut1", "cut2"))
                ls, rs = ("suc1", "ant1") if variant == "cut1" else ("suc2", "ant2")
                assert admissible_cut(
                    logic, add(left, ls, chi), add(right, rs, chi), chi, variant
                ).proved

    def test_invertibility_by_reproof(self):
        rng = random.Random(23)
        for name in ("K3", "J3"):
            logic = lookup_logic(name)
            cat = catalog(logic)
            for b in self._proved_pool(logic, rng, 15):
                for slot, index, f in b.formulas():
                    if not isinstance(f, Compound):
                        continue
                    rule = cat.rule_for(f.connective, slot)
                    if rule is None:
                        continue
                    for premiss in apply_rule(rule, b, (slot, index)):
                        assert prove_bisequent(logic, premiss).proved

    def test_contraction_by_reproof(self):
        rng = random.Random(29)
        logic = lookup_logic("L3")
        for b in self._proved_pool(logic, rng, 20):
            occurrences = list(b.formulas())
            slot, _, f = rng.choice(occurrences)
            duplicated = add(b, slot, f)
            assert prove_bisequent(logic, duplicated).proved
            assert prove_bisequent(logic, b).proved


@pytest.mark.parametrize("name", ("K3", "LP", "J3", "Palasinska1"))
def test_prover_agrees_with_oracle_under_constants(name):
    from trivalent.formula import CONNECTIVES, Constant

    logic = lookup_logic(name).with_constants()
    sig = sorted(logic.signature)
    rng = random.Random(f"constants:{name}")

    def gen(n):
        if n == 0:
            if rng.random() < 0.3:
                return Constant(rng.choice(("top", "bottom", "undef")))
            return Atom(rng.choice(("p", "q")))
        cid = rng.choice(sig)
        if CONNECTIVES[cid] == 1:
            return Compound(cid, (gen(n - 1),))
        k = rng.randint(0, n - 1)
        return Compound(cid, (gen(k), gen(n - 1 - k)))

    for _ in range(120):
        slots = {
            s: tuple(gen(rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))
            for s in ("ant1", "suc1", "ant2", "suc2")
        }
        b = bisequent(**slots)
        result = prove_bisequent(logic, b)
        assert result.proved == bisequent_valid(logic, b)
        if not result.proved:
            assert falsifies(logic, result.countermodel, b)


def test_termination_measure_strictly_decreases():
    """Each rule application replaces one occurrence by proper subformulas:
    the multiset of formula complexities decreases in the multiset order
    (checked via sorted-descending lexicographic comparison)."""
    rng = random.Random(31)
    logic = lookup_logic("L3")
    cat = catalog(logic)

    def measure(b):
        return sorted((complexity(f) for _, _, f in b.formulas()), reverse=True)

    for _ in range(150):
        f = random_formula(rng, logic.signature, ("p", "q"), rng.randint(1, 4))
        slot = rng.choice(("ant1", "suc1", "ant2", "suc2"))
        rule = cat.rule_for(f.connective, slot)
        if rule is None:
            continue
        b = add(add(bisequent(), slot, f), "ant2", Atom("c"))
        for premiss in apply_rule(rule, b, (slot, 0)):
            assert measure(premiss) < measure(b)


def test_search_leaves_no_cyclic_garbage():
    """A finished search frees its memo by reference counting alone; the
    cyclic collector has nothing to reclaim."""
    l3 = lookup_logic("L3")
    premiss, conclusion = l3.parse("(p -> q) -> r"), l3.parse("~r -> ~(p & ~q)")
    gc.collect()
    gc.disable()
    try:
        result = prove(l3, "designated_1", (premiss,), conclusion)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not result.proved


#: (logic, premiss, conclusion, countermodel or None for proved), captured
#: from the search as it stood before early closure and the stop at the
#: first open leaf, and re-captured at indices 6, 7 and 19 when the search
#: began to pick the occurrence with the fewest premisses; a change of the
#: selection order shows up here as a diff
GOLDEN_COUNTERMODELS = (
    ("L3", "~((r | r) & (r | r)) | s", "~(p or_l (s & (p & s) or_l r))", 'p=1 r=0 s=u'),
    ("L3", "s or_l s & r | (p | r & p)", "s | ~(~(r or_l q) -> s)", 'p=u q=u r=1 s=u'),
    ("L3", "q -> ~(q and_l r) & (q and_l r)", "p and_l ((q and_l (q or_l p) -> p) and_l s)", 'p=0 q=0 r=u s=u'),
    ("L3", "(p -> q) and_l ~(q | r or_l r)", "(s -> r & s) | (s -> s & q)", 'p=0 q=0 r=0 s=1'),
    ("L3", "~~(s & ~r -> q)", "(p and_l (p & r) -> r) | (q | p)", None),
    ("L3", "p and_l (q | (r or_l r | ~r))", "s and_l (q | s or_l s) | (r -> q)", 'p=1 q=0 r=1 s=0'),
    ("L3", "r and_l p -> p | q | (q | p)", "~~((q | p) and_l p & s)", 'p=0 q=0 r=0 s=u'),
    ("L3", "~(p & (q and_l q)) -> ~p", "~(p | (r & r or_l p & p))", 'p=1 q=1 r=u'),
    ("PWK", "(q -> r) -> r & q", "~(q | (q -> s))", 'q=1 r=1 s=1'),
    ("PWK", "(p -> s) & (r -> p)", "q | q -> q & r", 'p=1 q=1 r=0 s=1'),
    ("PWK", "q & p -> ~s", "r -> r | r | r", None),
    ("PWK", "~(r -> p -> s)", "(p | p) & (r -> r)", 'p=0 r=1 s=u'),
    ("PWK", "~(q & s | q)", "(p -> ~q) -> r", 'p=1 q=0 r=0 s=u'),
    ("PWK", "r & p -> r -> q", "~~(s | r)", 'p=u q=1 r=0 s=0'),
    ("PWK", "q & (r -> q) & s", "r -> ~(r | p)", 'p=1 q=1 r=1 s=1'),
    ("PWK", "q | ((p -> q) -> p)", "r & s & p & s", 'p=0 q=1 r=1 s=1'),
    ("K3w", "q & q & (r -> s)", "s | (p -> p | q)", 'p=u q=1 r=1 s=1'),
    ("K3w", "(q -> r) -> r -> s", "~(q & q) & s", 'q=1 r=1 s=1'),
    ("K3w", "~((q -> p) -> s)", "(s -> q) | q & q", None),
    ("K3w", "~((q -> r) -> q)", "r | (~s -> p)", 'p=u q=0 r=1 s=0'),
    ("K3w", "~~~r", "(s | r -> p) | s", 'p=u r=0 s=1'),
    ("K3w", "q | r | q -> q", "p -> s | (q -> s)", 'p=1 q=1 r=1 s=u'),
    ("K3w", "p | s & (r & s)", "r | ~~r", 'p=1 r=0 s=1'),
    ("K3w", "p & (q | (r -> s))", "~~~s", 'p=1 q=1 r=1 s=1'),
    ("P3", "~(q | (p | ~s)) | ~q", "p | (~~~(r | r) | p)", 'p=0 q=0 r=0 s=u'),
    ("P3", "~(r | ~q) | (p | s | q)", "~s | (p | (r | ~~s))", 'p=0 q=u r=0 s=1'),
    ("P3", "r | (s | p) | ~~(r | s)", "~~(q | q | q) | ~p", 'p=1 q=1 r=1 s=u'),
    ("P3", "p | (s | s) | ~~(q | q)", "~(~q | s | ~~p)", 'p=1 q=1 s=u'),
    ("P3", "~(~s | (~q | ~q))", "~~(q | r) | ~(s | p)", 'p=u q=u r=1 s=u'),
    ("P3", "~(p | (p | (s | p) | (q | s)))", "~~(r | ~q | ~s)", 'p=0 q=0 r=1 s=0'),
    ("P3", "~~(~(~s | q) | r)", "~(q | (p | (~s | q))) | r", 'p=u q=1 r=0 s=0'),
    ("P3", "~(q | ~r | (q | (p | q)))", "~(s | ~q | ~(r | r))", 'p=0 q=0 r=u s=1'),
)


def test_golden_countermodels():
    got = []
    for name, premiss, conclusion, _ in GOLDEN_COUNTERMODELS:
        logic = lookup_logic(name)
        result = prove(logic, designated_mode(logic), (logic.parse(premiss),),
                       logic.parse(conclusion))
        model = None if result.proved else " ".join(
            f"{a}={v.value}" for a, v in result.countermodel.items())
        got.append((name, premiss, conclusion, model))
    assert got == list(GOLDEN_COUNTERMODELS)
