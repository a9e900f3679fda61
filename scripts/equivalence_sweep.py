#!/usr/bin/env python3
"""Exhaustive oracle-vs-prover agreement sweep at a configurable scale.

Enumerates goals over a fixed atom set and compares the proof-search
verdict with the brute-force matrix oracle on every one of them.  Useful
for soaking a single logic harder than the test suite does, e.g.:

    python3 scripts/equivalence_sweep.py --logic L3 --conclusion-size 4
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from trivalent.logics import available_logics, lookup_logic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import run_sweep  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--logic", help="one logic (default: all)")
    parser.add_argument("--atoms", default="p,q", help="comma-separated atom names")
    parser.add_argument("--premiss-size", type=int, default=1)
    parser.add_argument("--conclusion-size", type=int, default=2)
    parser.add_argument("--solo-size", type=int, default=3,
                        help="connective budget for premiss-free goals")
    args = parser.parse_args()

    atom_names = tuple(a for a in args.atoms.split(",") if a)
    names = [args.logic] if args.logic else list(available_logics())
    bad = 0
    for name in names:
        logic = lookup_logic(name)
        started = time.perf_counter()
        data = run_sweep(
            logic, atom_names, args.premiss_size, args.conclusion_size, args.solo_size
        )
        for premisses, conclusion, _, _ in data.disagreements:
            print(f"  DISAGREEMENT: {premisses} |- {conclusion}")
        bad += len(data.disagreements)
        agree = data.n_goals - len(data.disagreements)
        print(f"{name:14} {agree}/{data.n_goals} agree   "
              f"({time.perf_counter() - started:.1f}s)")
    print("no disagreements" if bad == 0 else f"{bad} DISAGREEMENTS")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
