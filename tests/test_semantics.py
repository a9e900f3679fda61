from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent.bisequent import bisequent, parse_bisequent
from trivalent.formula import Atom, Compound, Constant, atoms, iter_formulas
from trivalent.logics import (
    SLOTS,
    EvaluationError,
    Value,
    evaluate,
    lookup_logic,
    slot_admits,
)
from trivalent.semantics import (
    AtomLimitError,
    assignments_over,
    bisequent_valid,
    falsifies,
    falsifying_assignments,
    matrix_consequence,
)

from conftest import ALL_LOGICS, DATA_DIR, formulas, random_formula
from structural import add

K3 = lookup_logic("K3")
LP = lookup_logic("LP")
ZERO, UNDEF, ONE = Value.ZERO, Value.UNDEF, Value.ONE


# --- independent reference evaluator, built from the audit transcription ---

def _audit_tables() -> dict[str, dict[tuple[str, ...], str]]:
    out: dict[str, dict[tuple[str, ...], str]] = {}
    for raw in (DATA_DIR / "tables_audit.txt").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *cells = line.split()
        out.setdefault(name, {})[tuple(cells[:-1])] = cells[-1]
    return out


AUDIT = _audit_tables()


def ref_eval(f, h: dict[str, str]) -> str:
    if isinstance(f, Atom):
        return h[f.name]
    if isinstance(f, Constant):
        return {"top": "1", "bottom": "0", "undef": "u"}[f.kind]
    return AUDIT[f.connective][tuple(ref_eval(a, h) for a in f.args)]


def ref_consequence(logic, premisses, conclusion) -> bool:
    names = sorted({a for f in premisses + (conclusion,) for a in _names(f)})
    designated = {v.value for v in logic.designated}
    for combo in itertools.product("0u1", repeat=len(names)):
        h = dict(zip(names, combo))
        if all(ref_eval(p, h) in designated for p in premisses):
            if ref_eval(conclusion, h) not in designated:
                return False
    return True


def _names(f):
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Constant):
        return set()
    return set().union(*(_names(a) for a in f.args))


# ---------------------------------------------------------------------------

class TestMatrixConsequence:
    def test_modus_ponens_holds_in_k3(self):
        prems = (K3.parse("p"), K3.parse("p -> q"))
        assert ref_consequence(K3, prems, K3.parse("q"))
        assert matrix_consequence(K3, prems, K3.parse("q"))

    def test_modus_ponens_fails_in_lp(self):
        prems = (LP.parse("p"), LP.parse("p -> q"))
        assert not ref_consequence(LP, prems, LP.parse("q"))
        assert not matrix_consequence(LP, prems, LP.parse("q"))

    def test_excluded_middle_fails_in_k3(self):
        f = K3.parse("p | ~p")
        assert not ref_consequence(K3, (), f)
        assert not matrix_consequence(K3, (), f)

    def test_atom_cap(self):
        f = K3.parse(" | ".join(f"x{i}" for i in range(13)))
        with pytest.raises(AtomLimitError):
            matrix_consequence(K3, (), f)
        assert not matrix_consequence(K3, (), f, max_atoms=13)


class TestBisequentValidity:
    def test_shared_atom_across_first_sequent(self):
        assert bisequent_valid(K3, parse_bisequent("p => p | =>", K3.signature))

    def test_undefined_falsifies_the_split_atom(self):
        b = parse_bisequent("=> p | p =>", K3.signature)
        assert not bisequent_valid(K3, b)
        assert falsifying_assignments(K3, b) == [{"p": UNDEF}]

    def test_true_contradicts_false(self):
        assert bisequent_valid(K3, parse_bisequent("p => | => p", K3.signature))

    def test_excluded_middle_witness(self):
        b = parse_bisequent("=> p | ~p | =>", K3.signature)
        assert falsifying_assignments(K3, b) == [{"p": UNDEF}]

    def test_falsifying_assignments_empty_iff_valid(self):
        for text in ("p => p | =>", "=> p | p =>", "p, q => r | =>"):
            b = parse_bisequent(text, K3.signature)
            assert bisequent_valid(K3, b) == (not falsifying_assignments(K3, b))

    def test_assignment_enumeration_is_lexicographic(self):
        got = list(assignments_over(("b", "a")))
        assert got[0] == {"a": ZERO, "b": ZERO}
        assert got[1] == {"a": ZERO, "b": UNDEF}
        assert got[-1] == {"a": ONE, "b": ONE}
        assert len(got) == 9


@pytest.mark.parametrize("name", ("K3", "LP", "PWK", "L3", "J3", "I1", "P1"))
def test_consequence_matches_goal_bisequent_validity(name):
    logic = lookup_logic(name)

    @given(
        formulas(logic.signature, atom_names=("p", "q"), max_leaves=4),
        formulas(logic.signature, atom_names=("p", "q"), max_leaves=4),
    )
    @settings(max_examples=60)
    def check(premiss, conclusion):
        if logic.goal_mode == 1:
            b = bisequent(ant1=(premiss,), suc1=(conclusion,))
        else:
            b = bisequent(ant2=(premiss,), suc2=(conclusion,))
        assert matrix_consequence(logic, (premiss,), conclusion) == bisequent_valid(
            logic, b
        )

    check()


@given(
    formulas(K3.signature, atom_names=("p", "q"), max_leaves=4),
    formulas(K3.signature, atom_names=("p", "q", "r"), max_leaves=3),
)
@settings(max_examples=60)
def test_validity_is_monotone_under_weakening(f, extra):
    b = bisequent(suc1=(f,), ant2=(f,))
    if not bisequent_valid(K3, b):
        return
    for slot in ("ant1", "suc1", "ant2", "suc2"):
        assert bisequent_valid(K3, add(b, slot, extra))


@given(formulas(LP.signature, atom_names=("p", "q"), max_leaves=5))
@settings(max_examples=60)
def test_oracle_agrees_with_reference_tables(f):
    # the production oracle and the audit-file evaluator agree on
    # designatedness everywhere
    for h in assignments_over(("p", "q")):
        ref = ref_eval(f, {k: v.value for k, v in h.items()})
        from trivalent.logics import evaluate

        assert evaluate(LP, h, f).value == ref


def test_falsifies_checks_all_four_slots(k3):
    b = parse_bisequent("p => q | r => s", k3.signature)
    good = {"p": ONE, "q": ZERO, "r": UNDEF, "s": ZERO}
    assert falsifies(k3, good, b)
    for name, bad in (("p", UNDEF), ("q", ONE), ("r", ZERO), ("s", ONE)):
        h = dict(good)
        h[name] = bad
        assert not falsifies(k3, h, b)


# --- the bit-parallel oracle against the per-assignment reference ---

CONSTANTS = (Constant("top"), Constant("bottom"), Constant("undef"))


@pytest.mark.parametrize("name", ALL_LOGICS)
def test_masks_equal_the_loop_over_two_atoms(name):
    # exhaustive over the formulas with at most two connectives over {p,q},
    # in each single-slot bisequent; with constants the pool gains T, F, U.
    # A single-slot bisequent is falsified where ``slot_admits`` holds of
    # its formula's value, so the loop evaluates each formula once.
    base = lookup_logic(name)
    pool = tuple(iter_formulas(base.signature, ("p", "q"), 2))
    for logic, extra in ((base, ()), (base.with_constants(), CONSTANTS)):
        for f in pool + extra:
            hs = list(assignments_over(atoms(f)))
            values = [evaluate(logic, h, f) for h in hs]
            for slot in SLOTS:
                b = bisequent(**{slot: (f,)})
                expected = [h for h, v in zip(hs, values) if slot_admits(slot, v)]
                assert falsifying_assignments(logic, b) == expected, (slot, f)
                assert bisequent_valid(logic, b) == (not expected), (slot, f)


#: the value condition of each slot under falsification, written out
#: independently of ``slot_admits``
_REF_ADMITS = {
    "ant1": lambda v: v == "1",
    "suc1": lambda v: v != "1",
    "ant2": lambda v: v != "0",
    "suc2": lambda v: v == "0",
}


def ref_bisequent_valid(pairs) -> bool:
    names = sorted({a for _, f in pairs for a in _names(f)})
    return not any(
        all(_REF_ADMITS[slot](ref_eval(f, dict(zip(names, combo)))) for slot, f in pairs)
        for combo in itertools.product("0u1", repeat=len(names))
    )


def _goals(logic):
    """``(slot, formula)`` pairs and a consequence goal over three to five
    atoms, constants included."""
    strategies = []
    for n in (3, 4, 5):
        fs = formulas(
            logic.signature, ("p", "q", "r", "s", "t")[:n], max_leaves=4, constants=True
        )
        pairs = st.lists(st.tuples(st.sampled_from(SLOTS), fs), max_size=5)
        strategies.append(st.tuples(pairs, st.lists(fs, max_size=2), fs))
    return st.one_of(strategies)


@pytest.mark.parametrize("name", ALL_LOGICS)
def test_oracle_agrees_with_reference_tables_on_wider_goals(name):
    logic = lookup_logic(name).with_constants()

    @given(_goals(logic))
    @settings(max_examples=10, deadline=None)
    def check(goal):
        pairs, premisses, conclusion = goal
        b = bisequent(**{slot: [f for s, f in pairs if s == slot] for slot in SLOTS})
        assert bisequent_valid(logic, b) == ref_bisequent_valid(pairs)
        assert matrix_consequence(logic, premisses, conclusion) == ref_consequence(
            logic, tuple(premisses), conclusion
        )

    check()


class TestUndeclaredConstants:
    # the premiss is never designated in K3, so the constant is the only
    # thing that can be wrong with these goals
    def test_matrix_consequence(self):
        with pytest.raises(EvaluationError, match="constants are not enabled"):
            matrix_consequence(K3, (K3.parse("p & ~p"),), Constant("undef"))
        with pytest.raises(EvaluationError, match="constants are not enabled"):
            matrix_consequence(K3, (), K3.parse("p | ~p | T"))

    def test_bisequent_valid(self):
        b = bisequent(ant1=(K3.parse("p & ~p"),), suc1=(Constant("top"),))
        with pytest.raises(EvaluationError, match="constants are not enabled"):
            bisequent_valid(K3, b)

    def test_falsifying_assignments(self):
        b = bisequent(ant1=(K3.parse("p & ~p"),), suc2=(Constant("bottom"),))
        with pytest.raises(EvaluationError, match="constants are not enabled"):
            falsifying_assignments(K3, b)

    @pytest.mark.parametrize(
        "conclusion, message",
        ((Constant("undef"), "constants are not enabled in logic K3"),
         (Compound("impl_l", (Atom("p"), Atom("q"))), "connective 'impl_l' is not in logic K3")),
    )
    def test_checked_before_the_atoms_are_counted(self, conclusion, message):
        # thirteen atoms exceed the default cap
        premisses = [Atom(f"p{i}") for i in range(13)]
        with pytest.raises(EvaluationError) as exc:
            matrix_consequence(K3, premisses, conclusion)
        assert str(exc.value) == message

    def test_enabled_constants_are_evaluated(self):
        k3c = K3.with_constants()
        b = bisequent(ant1=(K3.parse("p & ~p"),), suc1=(Constant("top"),))
        assert bisequent_valid(k3c, b)
        assert matrix_consequence(k3c, (K3.parse("p & ~p"),), Constant("undef"))


class TestEdgeCases:
    def test_no_atoms(self):
        k3c = K3.with_constants()
        T, F, U = CONSTANTS
        assert falsifying_assignments(k3c, bisequent(ant1=(T,), suc1=(U,))) == [{}]
        assert falsifying_assignments(k3c, bisequent(suc1=(T,))) == []
        assert falsifying_assignments(k3c, bisequent()) == [{}]
        assert not bisequent_valid(k3c, bisequent(ant2=(U,), suc2=(F,)))
        assert bisequent_valid(k3c, bisequent(ant2=(F,)))
        assert matrix_consequence(k3c, (F,), U)
        assert not matrix_consequence(k3c, (T,), U)

    def test_thirteen_atoms_need_a_raised_cap(self):
        # ``TestMatrixConsequence.test_atom_cap`` covers the third entry point
        names = [f"x{i}" for i in range(13)]
        b = bisequent(ant1=(K3.parse(" & ".join(names)),), suc1=(K3.parse(" | ".join(names)),))
        for check in (falsifying_assignments, bisequent_valid):
            with pytest.raises(AtomLimitError):
                check(K3, b)
        assert falsifying_assignments(K3, b, max_atoms=13) == []
        assert bisequent_valid(K3, b, max_atoms=13)


# --- the countermodel enumeration against the per-assignment reference ---

def reference_falsifiers(logic, b):
    names = {a for _, _, f in b.formulas() for a in atoms(f)}
    return [h for h in assignments_over(names) if falsifies(logic, h, b)]


def assert_same_enumeration(got, expected):
    assert got == expected
    assert [list(h) for h in got] == [list(h) for h in expected]  # key order


def _enumeration_goals(logic, n):
    """Bisequents over exactly the atoms ``x0 … x{n-1}``: two random ones,
    one that nothing falsifies (``x0`` in ant1 and suc1), and, with
    constants, the first with a constant added to three slots."""
    names = [f"x{i}" for i in range(n)]
    rng = random.Random(f"enumeration:{logic.name}:{n}")
    goals = [] if n else [bisequent()]
    while len(goals) < 2 and n:
        fs = [random_formula(rng, logic.signature, names, rng.randint(0, 3)) for _ in range(4)]
        b = bisequent(ant1=fs[:1], suc1=fs[1:2], ant2=fs[2:3], suc2=fs[3:])
        if {a for f in fs for a in atoms(f)} == set(names):
            goals.append(b)
    if n:
        goals.append(add(add(goals[0], "ant1", Atom("x0")), "suc1", Atom("x0")))
    if logic.constants_enabled:
        T, F, U = CONSTANTS
        goals.append(add(add(add(goals[0], "suc1", U), "ant2", T), "suc2", F))
    return goals


_ENUMERATION_LOGICS = ("K3", "L3", "P1", "LP", "RM3", "J3", "I1")


@pytest.mark.parametrize(
    "name, n",
    # the reference takes 0.1–0.2 s per goal at 9 atoms, so the widest
    # goals run in three logics only
    [(name, n) for n in range(10) for name in _ENUMERATION_LOGICS[: 7 if n < 8 else 3]],
)
def test_enumeration_equals_the_reference(name, n):
    logic = lookup_logic(name)
    if name == "K3":
        logic = logic.with_constants()
    for b in _enumeration_goals(logic, n):
        assert_same_enumeration(falsifying_assignments(logic, b), reference_falsifiers(logic, b))


@pytest.mark.parametrize("n", range(10))
def test_enumeration_covers_none_some_and_all(n):
    # in K3, ``x0 & ~x0`` is never 1, so a conjunction with it in suc1 is
    # falsified everywhere; ``x0`` in ant1 keeps the assignments with
    # x0 = 1, and ``x0`` in suc1 as well keeps none
    names = [Atom(f"x{i}") for i in range(n)]
    never_one = K3.parse("x0 & ~x0")
    for x in names[1:]:
        never_one = Compound("and", (never_one, x))
    every = bisequent(suc1=(never_one,)) if n else bisequent()
    some = add(every, "ant1", names[0]) if n else bisequent(suc1=(Constant("undef"),))
    nothing = add(some, "suc1", names[0]) if n else bisequent(suc1=(Constant("top"),))
    k3c = K3.with_constants()
    expected = {"every": 3**n, "some": 3 ** (n - 1) if n else 1, "nothing": 0}
    for label, b in (("every", every), ("some", some), ("nothing", nothing)):
        got = falsifying_assignments(k3c, b)
        assert len(got) == expected[label], label
        assert_same_enumeration(got, reference_falsifiers(k3c, b))


def test_enumeration_returns_fresh_dicts():
    b = parse_bisequent("=> p & q | r => s", K3.signature)
    first = falsifying_assignments(K3, b)
    assert len({id(h) for h in first}) == len(first) > 1
    for h in first:
        h["p"] = None
        h["z"] = ONE
    assert_same_enumeration(falsifying_assignments(K3, b), reference_falsifiers(K3, b))


def test_empty_mask_builds_no_assignment(monkeypatch):
    names = [f"x{i}" for i in range(13)]
    b = bisequent(ant1=(K3.parse(" & ".join(names)),), suc1=(K3.parse(" | ".join(names)),))

    def product(*args, **kwargs):
        raise AssertionError("an assignment was built")

    monkeypatch.setattr(itertools, "product", product)
    assert falsifying_assignments(K3, b, max_atoms=13) == []
