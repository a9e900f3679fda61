"""The four benchmark workloads.

Each workload builds all of its inputs from the seed before timing
starts, runs one op at a time (a closed loop with one caller), and checks
every op's output against a reference that does not share the timed code
path: the prover against the matrix oracle, countermodels with
``falsifies``, interpolants with ``verify_interpolant`` in their host
logic, and CLI output against in-process results.

Ops reach the program through module attributes (``prover.prove``, not a
name imported once), so that the traced run's wrappers see them.
"""
from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import spans
from trivalent import formula, interpolation, prover, semantics
from trivalent.bisequent import bisequent
from trivalent.logics import Value, available_logics, lookup_logic

HERE = Path(__file__).resolve().parent


class DeadlineExceeded(Exception):
    """An op ran past the workload's per-op deadline."""


def load_random_formula(root: Path):
    """``random_formula`` from ``tests/conftest.py``, the repository's one
    seeded formula generator.  Only that function is compiled, so the
    workload process does not import pytest and hypothesis."""
    path = root / "tests" / "conftest.py"
    module = ast.parse(path.read_text(), str(path))
    (fn,) = [n for n in module.body
             if isinstance(n, ast.FunctionDef) and n.name == "random_formula"]
    namespace = {"CONNECTIVES": formula.CONNECTIVES, "Atom": formula.Atom,
                 "Compound": formula.Compound}
    exec(compile(ast.Module([fn], []), str(path), "exec"), namespace)
    return namespace["random_formula"]


def _goal(logic, premisses, conclusion):
    return prover.goal_bisequent(logic, prover.designated_mode(logic), premisses, conclusion)


def _check_refutation(logic, result, root) -> str | None:
    if not semantics.falsifies(logic, result.countermodel, root):
        return "countermodel does not falsify the goal"
    return None


class Workload:
    name = ""
    #: in-process ops get an interval timer; CLI ops a subprocess timeout
    in_process = True
    deadline_s = 10.0
    #: collect garbage between ops rather than inside them (see run_phase)
    collect_each_op = False
    #: set by the traced run
    tracer = None

    def __init__(self) -> None:
        self.items: list = []
        self.logics: set[str] = set()

    def start_pass(self) -> None:
        """Called before the first op and whenever the items wrap around."""

    def op(self, item):
        raise NotImplementedError

    def collect(self, parent_span: int) -> None:
        """Traced run: take in spans the op recorded in another process."""

    def check(self, item, out) -> str | None:
        """None if the op's output is right, else what is wrong."""
        raise NotImplementedError


class Sweep(Workload):
    """Acceptance criterion 3's goal set for every logic, in seeded order,
    with one memo per logic shared by all of its goals."""

    name = "sweep"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        for name in available_logics():
            logic = lookup_logic(name)
            by_count: dict[int, list] = {}
            for f in formula.iter_formulas(logic.signature, ("p", "q"), 3):
                by_count.setdefault(formula.complexity(f), []).append(f)
            upto = lambda k: [f for c in range(k + 1) for f in by_count.get(c, ())]
            self.items += [(logic, (), f) for f in upto(3)]
            self.items += [(logic, (g,), f) for g in upto(1) for f in upto(2)]
            self.logics.add(name)
        random.Random(f"sweep:{seed}").shuffle(self.items)

    def start_pass(self) -> None:
        self.memos: dict[str, dict] = {}

    def op(self, item):
        logic, premisses, conclusion = item
        root = _goal(logic, premisses, conclusion)
        result = prover.prove_bisequent(logic, root, memo=self.memos.setdefault(logic.name, {}))
        holds = semantics.matrix_consequence(logic, premisses, conclusion)
        falsified = result.proved or semantics.falsifies(logic, result.countermodel, root)
        return result.proved, holds, falsified

    def check(self, item, out):
        proved, holds, falsified = out
        if proved != holds:
            return f"prover says {proved}, oracle says {holds}"
        if not falsified:
            return "countermodel does not falsify the goal"
        return None


#: (logic, connectives per side).  The conftest core logics plus PWK.
#: Weak Kleene search (K3w, PWK) and L3 grow fastest with size; their
#: sizes stop where the slowest goals stay far below the deadline and the
#: tail stays steady from seed to seed (README.md has the numbers).
DEEP_CELLS = (
    ("K3", 8), ("K3", 12),
    ("LP", 8), ("LP", 12),
    ("L3", 4), ("L3", 5),
    ("J3", 8), ("J3", 12),
    ("I1", 8), ("I1", 12),
    ("P1", 8), ("P1", 12),
    ("P3", 4), ("P3", 6),
    ("Palasinska1", 3), ("Palasinska1", 4),
    ("K3w", 3),
    ("PWK", 3),
)
DEEP_ROUNDS = 800


class Deep(Workload):
    """Random single-premiss goals over p, q, r, s, one per cell in turn,
    each decided with a fresh memo (``prove``) and cross-checked by the
    oracle."""

    name = "deep"
    #: each goal's memo dies in a reference cycle; left to the automatic
    #: collector, its pauses land on about 2 % of ops and set the p99
    collect_each_op = True

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        random_formula = load_random_formula(root)
        cells = []
        for name, n in DEEP_CELLS:
            logic = lookup_logic(name)
            cells.append((logic, n, random.Random(f"deep:{seed}:{name}:{n}")))
            self.logics.add(name)
        for _ in range(DEEP_ROUNDS):
            for logic, n, rng in cells:
                a = random_formula(rng, logic.signature, "pqrs", n)
                b = random_formula(rng, logic.signature, "pqrs", n)
                self.items.append((logic, a, b))

    def op(self, item):
        logic, a, b = item
        result = prover.prove(logic, prover.designated_mode(logic), (a,), b)
        return result, semantics.matrix_consequence(logic, (a,), b)

    def check(self, item, out):
        logic, a, b = item
        result, holds = out
        if result.proved != holds:
            return f"prover says {result.proved}, oracle says {holds}"
        return None if result.proved else _check_refutation(logic, result, _goal(logic, (a,), b))


WIDE_ATOMS = tuple("pqrstuvw")
WIDE_SIZE = 4  # connectives per side: search stays around a millisecond
WIDE_ROUNDS = 30


class Wide(Workload):
    """Goals with exactly eight distinct atoms outside the weak-Kleene
    family, so the full countermodel enumeration (3^8 assignments)
    outweighs the proof search."""

    name = "wide"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        random_formula = load_random_formula(root)
        names = [n for n in available_logics() if n not in ("K3w", "PWK")]
        rng = random.Random(f"wide:{seed}")
        for _ in range(WIDE_ROUNDS):
            for name in names:
                logic = lookup_logic(name)
                while True:
                    a = random_formula(rng, logic.signature, WIDE_ATOMS, WIDE_SIZE)
                    b = random_formula(rng, logic.signature, WIDE_ATOMS, WIDE_SIZE)
                    if len(formula.atoms(a) | formula.atoms(b)) == len(WIDE_ATOMS):
                        break
                self.items.append((logic, a, b))
        self.logics.update(names)

    def op(self, item):
        logic, a, b = item
        found = semantics.falsifying_assignments(logic, _goal(logic, (a,), b))
        return found, prover.prove(logic, prover.designated_mode(logic), (a,), b)

    def check(self, item, out):
        logic, a, b = item
        found, result = out
        if result.proved:
            return None if not found else "proved, but falsifying assignments exist"
        if result.countermodel not in found:
            return "countermodel missing from the falsifying assignments"
        return _check_refutation(logic, result, _goal(logic, (a,), b))


#: goals whose proofs share nodes, so rendering walks a DAG as a tree
CLI_PROVE_CELLS = (("K3w", 3), ("PWK", 3), ("L3", 4), ("L3", 5))
#: the CLI builds extended-language interpolants for these four
CLI_EXTENDED = ("K3", "LP", "G3", "G3prime")
CLI_INTERPOLATE = ("I1", "I2", "P1", "P2") + CLI_EXTENDED
CLI_COUNTERMODEL = ("K3", "LP", "L3", "RM3", "S3", "G3", "J3", "P3")
CLI_ROUNDS = 24
_PROVE_KEYS = {"command", "logic", "mode", "premisses", "conclusion", "verdict", "proof"}
_INTERPOLATE_KEYS = {"command", "logic", "left", "right", "interpolant", "verified"}
_COUNTERMODEL_KEYS = {"command", "logic", "bisequent", "verdict", "countermodels"}


def _assignment(mapping) -> dict:
    by_symbol = {v.value: v for v in Value}
    return {a: by_symbol[v] for a, v in mapping.items()}


class Cli(Workload):
    """``python -m trivalent.cli`` invocations, one process per op, timed
    from process start to exit: ``prove`` (text and ``--json``),
    ``interpolate --json`` and ``countermodel --json``."""

    name = "cli"
    in_process = False
    deadline_s = 20.0

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        self.root = root
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.span_file = root / ".bench_out" / "cli-op.spans.gz"
        random_formula = load_random_formula(root)
        rng = random.Random(f"cli:{seed}")
        for r in range(CLI_ROUNDS):
            for i, (name, n) in enumerate(CLI_PROVE_CELLS):
                logic = lookup_logic(name)
                a = random_formula(rng, logic.signature, "pqrs", n)
                b = random_formula(rng, logic.signature, "pqrs", n)
                as_json = (r + i) % 2 == 1
                argv = ["prove", "--logic", name] + (["--json"] if as_json else [])
                holds = semantics.matrix_consequence(logic, (a,), b)
                self._add(argv + [logic.render(a), logic.render(b)], "prove", logic, a, b,
                          exit=0 if holds else 1, keys=_PROVE_KEYS if as_json else None,
                          holds=holds)
            for name in CLI_INTERPOLATE:
                self._add_interpolation(rng, random_formula, lookup_logic(name))
            for name in CLI_COUNTERMODEL:
                logic = lookup_logic(name)
                a = random_formula(rng, logic.signature, "pqr", 3)
                b = random_formula(rng, logic.signature, "pqr", 3)
                found = semantics.falsifying_assignments(logic, _goal(logic, (a,), b))
                argv = ["countermodel", "--json", "--logic", name, logic.render(a), logic.render(b)]
                self._add(argv, "countermodel", logic, a, b,
                          exit=1 if found else 0, keys=_COUNTERMODEL_KEYS,
                          models=[{k: v.value for k, v in h.items()} for h in found])

    def _add(self, argv, kind, logic, a, b, **expect) -> None:
        self.items.append({"argv": argv, "kind": kind, "logic": logic, "a": a, "b": b, **expect})
        self.logics.add(logic.name)

    def _add_interpolation(self, rng, random_formula, logic) -> None:
        """Draw entailments between contingent formulas that share an atom
        (the oracle decides all three) and keep the in-process result."""
        mode_slots = ("ant1", "suc1") if logic.goal_mode == 1 else ("ant2", "suc2")
        while True:
            a = random_formula(rng, logic.signature, "pqr", rng.randint(1, 4))
            b = random_formula(rng, logic.signature, "pqr", rng.randint(1, 4))
            if not formula.atoms(a) & formula.atoms(b):
                continue
            if not semantics.matrix_consequence(logic, (a,), b):
                continue
            if semantics.bisequent_valid(logic, bisequent(**{mode_slots[0]: (a,)})):
                continue
            if semantics.bisequent_valid(logic, bisequent(**{mode_slots[1]: (b,)})):
                continue
            break
        if logic.name in CLI_EXTENDED:
            interpolant, host = interpolation.interpolate_extended(logic, a, b)
        else:
            interpolant, host = interpolation.interpolate(logic, a, b), logic
        argv = ["interpolate", "--json", "--logic", logic.name, logic.render(a), logic.render(b)]
        self._add(argv, "interpolate", logic, a, b, exit=0, keys=_INTERPOLATE_KEYS,
                  interpolant=interpolant, host=host)

    def op(self, item):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "trivalent.cli", *item["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "cli_driver.py"), str(self.span_file), *item["argv"]]
        with subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=self.deadline_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise DeadlineExceeded() from None
        return proc.returncode, stdout, stderr

    def collect(self, parent_span):
        if self.span_file.exists():  # a process killed at the deadline leaves none
            self.tracer.absorb(spans.load_spans(self.span_file), parent_span)
            self.span_file.unlink()

    def check(self, item, out):
        code, stdout, stderr = out
        if code != item["exit"]:
            return f"exit code {code}, expected {item['exit']}: {stderr.strip()[:200]}"
        payload = None
        if item["keys"]:
            payload = json.loads(stdout)
            if not item["keys"] <= payload.keys():
                return f"--json keys missing: {sorted(item['keys'] - payload.keys())}"
        return getattr(self, f"_check_{item['kind']}")(item, payload, stdout)

    def _check_prove(self, item, payload, stdout):
        logic, a, b = item["logic"], item["a"], item["b"]
        if payload is not None:
            verdict, model = payload["verdict"], payload.get("countermodel")
        else:
            lines = stdout.splitlines()
            verdict, model = lines[0], None
            if verdict == "refuted":
                text = lines[1].removeprefix("countermodel: ")
                model = dict(part.split("=") for part in text.split(", ") if part)
        if verdict != ("proved" if item["holds"] else "refuted"):
            return f"verdict {verdict!r} disagrees with the oracle"
        if model is not None and not semantics.falsifies(
                logic, _assignment(model), _goal(logic, (a,), b)):
            return "countermodel does not falsify the goal"
        return None

    def _check_interpolate(self, item, payload, stdout):
        a, b, host = item["a"], item["b"], item["host"]
        got = host.parse(payload["interpolant"])
        if got != item["interpolant"]:
            return "interpolant differs from the in-process result"
        if "verified" not in item:  # the same item comes back when the inputs wrap
            item["verified"] = (
                formula.atoms(got) <= formula.atoms(a) & formula.atoms(b)
                and interpolation.verify_interpolant(host, a, b, got)
            )
        return None if item["verified"] else "interpolant fails verification"

    def _check_countermodel(self, item, payload, stdout):
        logic, a, b = item["logic"], item["a"], item["b"]
        if payload["countermodels"] != item["models"]:
            return "countermodels differ from the in-process enumeration"
        if "falsified" not in item:
            root = _goal(logic, (a,), b)
            item["falsified"] = all(
                semantics.falsifies(logic, _assignment(h), root) for h in item["models"]
            )
        return None if item["falsified"] else "a countermodel does not falsify the goal"


WORKLOADS = {w.name: w for w in (Sweep, Deep, Wide, Cli)}
