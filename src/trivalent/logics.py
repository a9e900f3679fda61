"""Logic registry: truth values, truth tables, and logic definitions.

Tables and logics are loaded from the plain-text catalog files in
``data/`` so they can be audited cell by cell.  Logics that share a
connective share the table object.
"""
from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from . import formula as fm
from .formula import Atom, Compound, Constant, Formula, InputError
from .record import Record, _set

__all__ = [
    "Value",
    "VALUES",
    "TruthTable",
    "LogicDef",
    "GOAL_SLOTS",
    "SLOTS",
    "slot_admits",
    "UnknownLogicError",
    "EvaluationError",
    "CatalogFileError",
    "available_logics",
    "check_formulas",
    "evaluate",
    "load_logics",
    "load_tables",
    "lookup_logic",
    "tables",
]

_DATA_DIR = Path(__file__).parent / "data"


class Value(enum.Enum):
    """The three truth values."""

    ZERO = "0"
    UNDEF = "u"
    ONE = "1"

    def __repr__(self) -> str:  # keeps counterexample output short
        return self.value

    def __str__(self) -> str:
        return self.value

    # members are singletons and compare by identity, so hash them by
    # identity too, in C, instead of through ``Enum.__hash__``
    __hash__ = object.__hash__


#: display/enumeration order 0 < u < 1 (no semantic weight)
VALUES = (Value.ZERO, Value.UNDEF, Value.ONE)

_VALUE_BY_SYMBOL = {v.value: v for v in VALUES}

#: the four formula positions of a bisequent
SLOTS = ("ant1", "suc1", "ant2", "suc2")

#: proof goal shapes: a goal's premiss and conclusion slots by goal mode;
#: the designated modes host matrix consequence
GOAL_SLOTS = {
    "designated_1": ("ant1", "suc1"),
    "designated_2": ("ant2", "suc2"),
    "no_counterexample": ("ant1", "suc2"),
    "liberal": ("ant2", "suc1"),
}


def slot_admits(slot: str, v: Value) -> bool:
    """Value condition a slot imposes under falsification: a homomorphism
    falsifying a bisequent makes every ant1 formula 1, every suc1 formula
    not 1, every ant2 formula not 0 and every suc2 formula 0."""
    if slot == "ant1":
        return v is Value.ONE
    if slot == "suc1":
        return v is not Value.ONE
    if slot == "ant2":
        return v is not Value.ZERO
    if slot == "suc2":
        return v is Value.ZERO
    raise ValueError(f"unknown slot {slot!r}")


class UnknownLogicError(InputError, KeyError):
    def __init__(self, name: str, known: Iterable[str]):
        super().__init__(
            f"unknown logic {name!r}; available: {', '.join(sorted(known))}"
        )
        self.name = name

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0]


class EvaluationError(InputError, ValueError):
    pass


class CatalogFileError(ValueError):
    pass


class TruthTable(Record):
    """Total map from argument tuples to values."""

    __slots__ = _fields = ("name", "arity", "entries")

    def __init__(
        self, name: str, arity: int, entries: Mapping[tuple[Value, ...], Value]
    ) -> None:
        if set(entries) != set(_tuples(arity)):
            raise CatalogFileError(f"table {name!r} is not total")
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "entries", entries)

    def __call__(self, *args: Value) -> Value:
        return self.entries[args]


def _tuples(arity: int) -> Iterable[tuple[Value, ...]]:
    if arity == 1:
        return tuple((v,) for v in VALUES)
    return tuple((a, b) for a in VALUES for b in VALUES)


class LogicDef(Record):
    """A named logic: connective ids, designated values, constants flag.
    The fields are slots; the cached properties keep their values in the
    instance ``__dict__``."""

    _fields = ("name", "connectives", "designated", "constants_enabled")
    __slots__ = (*_fields, "__dict__")

    def __init__(
        self,
        name: str,
        connectives: tuple[str, ...],
        designated: frozenset[Value],
        constants_enabled: bool = False,
    ) -> None:
        if designated not in (
            frozenset((Value.ONE,)),
            frozenset((Value.ONE, Value.UNDEF)),
        ):
            raise CatalogFileError(f"logic {name!r}: designated set must be 1 or 1,u")
        for cid in connectives:
            if cid not in tables():
                raise CatalogFileError(f"logic {name!r}: no table for {cid!r}")
        _set(self, "name", name)
        _set(self, "connectives", connectives)
        _set(self, "designated", designated)
        _set(self, "constants_enabled", constants_enabled)

    @property
    def goal_mode(self) -> int:
        """1 if consequence goals live in the first sequent, 2 otherwise."""
        return 1 if self.designated == frozenset((Value.ONE,)) else 2

    @cached_property
    def goal_slots(self) -> tuple[str, str]:
        """The premiss and conclusion slots of a consequence goal."""
        return GOAL_SLOTS[f"designated_{self.goal_mode}"]

    @cached_property
    def signature(self) -> frozenset[str]:
        return frozenset(self.connectives)

    @cached_property
    def extra_axiom_schemata(self) -> tuple[tuple[str, str], ...]:
        """(connective, slot) pairs for operations that never take the
        slot's falsification value; bisequents carrying such a formula in
        that slot are axiomatic.  These are the pairs at which ``calculus``
        synthesises a rule with no premisses."""
        return tuple(
            (cid, slot)
            for cid in self.connectives
            for slot in SLOTS
            if not any(slot_admits(slot, v) for v in tables()[cid].entries.values())
        )

    def table(self, connective: str) -> TruthTable:
        if connective not in self.signature:
            raise EvaluationError(
                f"connective {connective!r} is not in logic {self.name}"
            )
        return tables()[connective]

    def constant(self, kind: str) -> Value:
        """The value of the constant ``kind``, if the logic enables constants."""
        if not self.constants_enabled:
            raise EvaluationError(f"constants are not enabled in logic {self.name}")
        return _CONSTANT_VALUE[kind]

    def parse(self, text: str) -> Formula:
        return fm.parse_formula(text, self.signature)

    def render(self, f: Formula) -> str:
        return fm.render(f, self.signature)

    def with_constants(self) -> "LogicDef":
        if self.constants_enabled:
            return self
        return LogicDef(
            name=f"{self.name}+c",
            connectives=self.connectives,
            designated=self.designated,
            constants_enabled=True,
        )

    def extended(self, extra: Iterable[str]) -> "LogicDef":
        """The logic with extra connectives added to its signature."""
        added = tuple(c for c in extra if c not in self.signature)
        return LogicDef(
            name=self.name + "".join(f"+{c}" for c in added),
            connectives=self.connectives + added,
            designated=self.designated,
            constants_enabled=self.constants_enabled,
        )


# ---------------------------------------------------------------------------
# Catalog file loading

def _blocks(
    path: Path, header: str
) -> Iterator[tuple[str, list[str], list[tuple[str, list[str]]]]]:
    """The blocks of a catalog file in file order, each a line whose first
    word is ``header`` with the lines after it up to the next such line.
    A line comes as its place, ``file:number``, and its words; comments
    (from ``#``) and blank lines are skipped.  A line before the first
    header is reported when it is read."""
    block = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        place = f"{path.name}:{lineno}"
        if words[0] == header:
            if block is not None:
                yield block
            block = place, words, []
        elif block is None:
            raise CatalogFileError(f"{place}: unrecognised line")
        else:
            block[2].append((place, words))
    if block is not None:
        yield block


def load_tables(path: Path) -> dict[str, TruthTable]:
    """Parse a truth-table catalog file; every table must be a connective
    of ``formula.CONNECTIVES`` with the arity declared there, and neither
    a table nor a row of one may be given twice."""
    out: dict[str, TruthTable] = {}
    for place, head, body in _blocks(path, "table"):
        if len(head) != 3 or head[2] not in ("unary", "binary"):
            raise CatalogFileError(f"{place}: bad table header")
        name = head[1]
        if name in out:
            raise CatalogFileError(f"{place}: table {name!r} defined twice")
        arity = 1 if head[2] == "unary" else 2
        declared = fm.CONNECTIVES.get(name)
        if declared is None:
            raise CatalogFileError(f"{place}: table {name!r} is not a known connective")
        if declared != arity:
            raise CatalogFileError(
                f"{place}: table {name!r} contradicts its declared arity {declared}"
            )
        rows: dict[Value, tuple[Value, ...]] = {}
        for place, parts in body:
            if len(parts) < 3 or parts[1] != ":":
                raise CatalogFileError(f"{place}: unrecognised line")
            try:
                row = _VALUE_BY_SYMBOL[parts[0]]
                cells = tuple(_VALUE_BY_SYMBOL[c] for c in parts[2:])
            except KeyError as exc:
                raise CatalogFileError(f"{place}: bad value") from exc
            if len(cells) != (1 if arity == 1 else 3):
                raise CatalogFileError(f"{place}: wrong row width")
            if row in rows:
                raise CatalogFileError(f"{place}: row {parts[0]!r} given twice")
            rows[row] = cells
        if len(rows) != 3:
            raise CatalogFileError(f"table {name!r}: expected 3 rows")
        entries: dict[tuple[Value, ...], Value] = {}
        for row, cells in rows.items():
            if arity == 1:
                entries[(row,)] = cells[0]
            else:
                for col, v in zip(VALUES[::-1], cells):
                    entries[(row, col)] = v
        out[name] = TruthTable(name, arity, entries)
    return out


def load_logics(path: Path) -> dict[str, LogicDef]:
    """Parse a logic catalog file (requires tables to be loadable); neither
    a logic nor a line of one may be given twice.  A bad designated set
    and a connective without a table are reported at the logic's header
    line."""
    out: dict[str, LogicDef] = {}
    for place, head, body in _blocks(path, "logic"):
        if len(head) != 2:
            raise CatalogFileError(f"{place}: bad logic header")
        name = head[1]
        if name in out:
            raise CatalogFileError(f"{place}: logic {name!r} defined twice")
        fields: dict[str, tuple[str, ...]] = {}
        for line, parts in body:
            if parts[0] not in ("designated", "connectives"):
                raise CatalogFileError(f"{line}: unrecognised line")
            if parts[0] in fields:
                raise CatalogFileError(f"{line}: {parts[0]!r} given twice")
            fields[parts[0]] = tuple(parts[1:])
        missing = {"designated", "connectives"} - set(fields)
        if missing:
            raise CatalogFileError(f"logic {name!r}: missing {sorted(missing)}")
        # an unknown value leaves None in the set, which LogicDef rejects
        designated = frozenset(map(_VALUE_BY_SYMBOL.get, fields["designated"]))
        try:
            out[name] = LogicDef(
                name=name, connectives=fields["connectives"], designated=designated
            )
        except CatalogFileError as exc:
            raise CatalogFileError(f"{place}: {exc}") from None
    return out


@lru_cache(maxsize=None)
def tables() -> Mapping[str, TruthTable]:
    return load_tables(_DATA_DIR / "tables.txt")


@lru_cache(maxsize=None)
def _registry() -> Mapping[str, LogicDef]:
    return load_logics(_DATA_DIR / "logics.txt")


def lookup_logic(name: str) -> LogicDef:
    reg = _registry()
    try:
        return reg[name]
    except KeyError:
        raise UnknownLogicError(name, reg) from None


def available_logics() -> tuple[str, ...]:
    return tuple(sorted(_registry()))


# ---------------------------------------------------------------------------
# Evaluation

_CONSTANT_VALUE = {
    "top": Value.ONE,
    "bottom": Value.ZERO,
    "undef": Value.UNDEF,
}


def evaluate(logic: LogicDef, assignment: Mapping[str, Value], f: Formula) -> Value:
    """Homomorphic extension of ``assignment`` to ``f`` under ``logic``."""
    if isinstance(f, Atom):
        try:
            return assignment[f.name]
        except KeyError:
            raise EvaluationError(f"assignment misses atom {f.name!r}") from None
    if isinstance(f, Constant):
        return logic.constant(f.kind)
    table = logic.table(f.connective)
    args = f.args
    if len(args) == 1:
        return table(evaluate(logic, assignment, args[0]))
    return table(evaluate(logic, assignment, args[0]), evaluate(logic, assignment, args[1]))


def check_formulas(logic: LogicDef, formulas: Iterable[Formula]) -> set[str]:
    """The names of the atoms in ``formulas``, once each formula is known
    to be one ``logic`` can evaluate: its connectives are in the signature,
    and it holds constants only if the logic enables them.  Otherwise
    raises ``EvaluationError``, with ``evaluate``'s message, at the first
    offender in the order ``evaluate`` meets it: formula by formula, each
    formula before its arguments, arguments left to right."""
    signature = logic.signature
    names: set[str] = set()
    todo = list(formulas)
    todo.reverse()
    while todo:
        f = todo.pop()
        if f.__class__ is Compound:
            if f[1] not in signature:
                logic.table(f[1])  # raises EvaluationError
            todo.extend(f[:1:-1])  # the arguments, last first
        elif f.__class__ is Atom:
            names.add(f[1])  # its name
        else:
            logic.constant(f[1])  # raises unless constants are enabled
    return names
