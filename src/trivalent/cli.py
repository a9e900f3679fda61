"""Command-line front end.

Exit codes: 0 for a positive verdict (proved, valid, interpolant found,
all rules verified), 1 for a negative verdict (refuted or invalid, with
a countermodel rendered), 2 for usage errors and for input errors (any
``InputError``), 3 for an internal error: an interpolant that fails its
own verification, or any other exception (a bug, or a recursion limit
hit on over-deep input), and 141 when the reader closes stdout before
the output is written, the status of a filter killed by SIGPIPE.

Each command imports ``calculus``, ``prover`` and ``interpolation`` only
if it uses them, so a process pays for no module its command never runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import semantics
from .bisequent import (
    designated_mode,
    goal_bisequent,
    parse_bisequent,
    parse_formula_list,
    render_bisequent,
)
from .formula import InputError, parse_formula
from .logics import _VALUE_BY_SYMBOL, GOAL_SLOTS, SLOTS, LogicDef, available_logics, lookup_logic

__all__ = ["main", "run"]


def _logic(args) -> LogicDef:
    logic = lookup_logic(args.logic)
    if getattr(args, "constants", False):
        logic = logic.with_constants()
    return logic


def _parse_goal(logic: LogicDef, premiss_text: str, conclusion_text: str):
    sig = logic.signature
    return parse_formula_list(premiss_text, sig), parse_formula(conclusion_text, sig)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


#: ``--mode`` spellings of the goal modes other than the designated ones,
#: which ``--mode designated`` picks by the logic's designated set
_MODE_BY_FLAG = {
    mode.replace("_", "-"): mode for mode in GOAL_SLOTS if not mode.startswith("designated_")
}


def _mode_for(logic: LogicDef, mode_flag: str) -> str:
    if mode_flag == "designated":
        return designated_mode(logic)
    return _MODE_BY_FLAG[mode_flag]


def _render_countermodel(cm) -> str:
    return ", ".join(f"{a}={v.value}" for a, v in sorted(cm.items()))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_prove(args) -> int:
    from . import prover

    logic = _logic(args)
    premisses, conclusion = _parse_goal(logic, args.premisses, args.conclusion)
    mode = _mode_for(logic, args.mode)
    result = prover.prove(logic, mode, premisses, conclusion)
    verdict = "proved" if result.proved else "refuted"
    # each output format renders the proof once, and only its own format
    if args.json:
        payload = {
            "command": "prove",
            "logic": logic.name,
            "mode": mode,
            "premisses": [logic.render(p) for p in premisses],
            "conclusion": logic.render(conclusion),
            "verdict": verdict,
            "proof": result.tree.to_dict(logic.signature),
        }
        if not result.proved:
            payload["countermodel"] = {
                a: v.value for a, v in result.countermodel.items()
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = [verdict]
        if not result.proved:
            lines.append(f"countermodel: {_render_countermodel(result.countermodel)}")
        lines.append(result.tree.to_text(logic.signature))
        print("\n".join(lines))
    return 0 if result.proved else 1


def _cmd_check_semantic(args) -> int:
    logic = _logic(args)
    premisses, conclusion = _parse_goal(logic, args.premisses, args.conclusion)
    holds = semantics.matrix_consequence(
        logic, premisses, conclusion, args.max_atoms
    )
    payload = {
        "command": "check-semantic",
        "logic": logic.name,
        "premisses": [logic.render(p) for p in premisses],
        "conclusion": logic.render(conclusion),
        "verdict": "valid" if holds else "invalid",
    }
    _emit(args, payload, payload["verdict"])
    return 0 if holds else 1


def _cmd_countermodel(args) -> int:
    logic = _logic(args)
    if args.conclusion is None:
        b = parse_bisequent(args.goal, logic.signature)
    else:
        premisses, conclusion = _parse_goal(logic, args.goal, args.conclusion)
        b = goal_bisequent(logic, designated_mode(logic), premisses, conclusion)
    found = semantics.falsifying_assignments(logic, b, args.max_atoms)
    payload = {
        "command": "countermodel",
        "logic": logic.name,
        "bisequent": render_bisequent(b, logic.signature),
        "verdict": "valid" if not found else "invalid",
        "countermodels": [
            {a: v.value for a, v in h.items()} for h in found
        ],
    }
    if not found:
        _emit(args, payload, "valid (no falsifying assignment)")
        return 0
    text = "invalid\n" + "\n".join(_render_countermodel(h) for h in found)
    _emit(args, payload, text)
    return 1


def _cmd_interpolate(args) -> int:
    from . import interpolation, prover

    logic = _logic(args)
    sig = logic.signature
    phi = parse_formula(args.left, sig)
    psi = parse_formula(args.right, sig)
    try:
        interpolant, host = interpolation.interpolate_extended(
            logic, phi, psi, args.max_atoms
        )
    except interpolation.NotEntailedError as exc:
        # a failed entailment is a refutation, not an input error
        result = prover.prove(logic, designated_mode(logic), (phi,), psi)
        cm = getattr(result, "countermodel", {})
        print(f"not entailed: {exc}", file=sys.stderr)
        if cm:
            print(f"countermodel: {_render_countermodel(cm)}", file=sys.stderr)
        return 1
    if not interpolation.verify_interpolant(
        host, phi, psi, interpolant, args.max_atoms
    ):
        print("internal error: interpolant failed verification", file=sys.stderr)
        return 3
    rendered = host.render(interpolant)
    payload = {
        "command": "interpolate",
        "logic": logic.name,
        "left": logic.render(phi),
        "right": logic.render(psi),
        "interpolant": rendered,
        "verified": True,
    }
    _emit(args, payload, rendered)
    return 0


def _cmd_verify_rules(args) -> int:
    from . import calculus

    logic = _logic(args)
    cat = calculus.catalog(logic)
    lines = []
    entries = []
    all_ok = True
    for rule in cat.rules:
        verdict = calculus.verify_rule_schema(logic, rule)
        all_ok &= verdict.ok
        if rule.premisses:
            lines.append(f"{rule.name}: {verdict}")
            entries.append({"rule": rule.name, "verdict": str(verdict)})
        else:
            axiom = f"{rule.connective}@{rule.principal_slot}"
            lines.append(f"axiom {axiom}: {verdict}")
            entries.append({"axiom": axiom, "verdict": str(verdict)})
    payload = {"command": "verify-rules", "logic": logic.name, "rules": entries,
               "all_verified": all_ok}
    _emit(args, payload, "\n".join(lines))
    return 0 if all_ok else 1


def _cmd_synthesize(args) -> int:
    from . import calculus

    logic = _logic(args)
    table = logic.table(args.connective)
    schema = calculus.synthesize_rules(table, args.slot)
    if not schema.premisses:
        payload = {
            "command": "synthesize",
            "connective": args.connective,
            "slot": args.slot,
            "axiom_schema": True,
        }
        _emit(args, payload, f"axiom schema: any {args.connective} formula in "
                             f"{args.slot} is axiomatic")
        return 0
    premisses = [
        " ".join(f"{pl.arg_index}@{pl.slot}" for pl in p.placements)
        for p in schema.premisses
    ]
    payload = {
        "command": "synthesize",
        "connective": args.connective,
        "slot": args.slot,
        "axiom_schema": False,
        "premisses": premisses,
    }
    _emit(args, payload, " | ".join(premisses))
    return 0


def _cmd_table(args) -> int:
    logic = _logic(args)
    table = logic.table(args.connective)
    order = ("1", "u", "0")
    if table.arity == 1:
        lines = [f"{a} : {table(_VALUE_BY_SYMBOL[a]).value}" for a in order]
    else:
        lines = [f"{table.name} | " + "  ".join(order)]
        for a in order:
            row = "  ".join(
                table(_VALUE_BY_SYMBOL[a], _VALUE_BY_SYMBOL[b]).value for b in order
            )
            lines.append(f"{a} | {row}")
    payload = {
        "command": "table",
        "connective": args.connective,
        "entries": {
            " ".join(v.value for v in k): v.value for k, v in table.entries.items()
        },
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_list_logics(args) -> int:
    rows = []
    for name in available_logics():
        logic = lookup_logic(name)
        designated = ",".join(
            v.value for v in sorted(logic.designated, key=lambda v: v.value)
        )
        rows.append(
            {
                "name": name,
                "designated": designated,
                "connectives": list(logic.connectives),
            }
        )
    text = "\n".join(
        f"{r['name']:14} designated={r['designated']:4} "
        f"connectives={' '.join(r['connectives'])}"
        for r in rows
    )
    _emit(args, {"command": "list-logics", "logics": rows}, text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivalent",
        description="decision procedure, proof search, countermodels and "
        "interpolation for three-valued logics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, constants=True):
        p.add_argument("--logic", required=True, help="logic name (see list-logics)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if constants:
            p.add_argument(
                "--constants",
                action="store_true",
                help="enable the T/F/U constants",
            )

    p = sub.add_parser("prove", help="run the proof-search decision procedure")
    common(p)
    p.add_argument(
        "--mode",
        choices=("designated", *_MODE_BY_FLAG),
        default="designated",
        help="goal shape (designated follows the logic's designated set)",
    )
    p.add_argument("premisses", help="comma-separated premisses ('' for none)")
    p.add_argument("conclusion")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check-semantic", help="matrix-consequence oracle")
    common(p)
    p.add_argument("premisses")
    p.add_argument("conclusion")
    p.set_defaults(func=_cmd_check_semantic)

    p = sub.add_parser(
        "countermodel",
        help="falsifying assignments for a bisequent or a consequence goal",
    )
    common(p)
    p.add_argument("goal", help="a bisequent 'G1 => D1 | G2 => D2', or premisses")
    p.add_argument("conclusion", nargs="?", default=None)
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("interpolate", help="construct and verify an interpolant")
    common(p, constants=False)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("verify-rules", help="check every catalogued rule of a logic")
    common(p, constants=False)
    p.set_defaults(func=_cmd_verify_rules)

    p = sub.add_parser("synthesize", help="derive a rule from a truth table")
    common(p, constants=False)
    p.add_argument("--connective", required=True)
    p.add_argument("--slot", required=True, choices=SLOTS)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("table", help="print a connective's truth table")
    common(p, constants=False)
    p.add_argument("--connective", required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("list-logics", help="list the registered logics")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_list_logics)

    # only the commands that run the exhaustive oracle on their input
    for command in ("check-semantic", "countermodel", "interpolate"):
        sub.choices[command].add_argument(
            "--max-atoms",
            type=int,
            default=semantics.DEFAULT_ATOM_CAP,
            help="cap on distinct atoms for exhaustive semantic checks",
        )

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early: end as a filter killed by SIGPIPE, with
        # stdout on the null device so that the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
