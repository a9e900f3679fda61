#!/usr/bin/env python3
"""Sample entailments and show their constructed, verified interpolants.

    python3 scripts/interpolation_demo.py --logic I1 --count 5
    python3 scripts/interpolation_demo.py --logic K3 --count 3   # extended language
"""
from __future__ import annotations

import argparse
import random

from trivalent.formula import CONNECTIVES, Atom, Compound, atoms
from trivalent.interpolation import (
    NotContingentError,
    interpolate_extended,
    verify_interpolant,
)
from trivalent.logics import lookup_logic
from trivalent.semantics import matrix_consequence


def random_formula(rng, signature, names, n):
    if n == 0:
        return Atom(rng.choice(names))
    cid = rng.choice(sorted(signature))
    if CONNECTIVES[cid] == 1:
        return Compound(cid, (random_formula(rng, signature, names, n - 1),))
    k = rng.randint(0, n - 1)
    return Compound(cid, (random_formula(rng, signature, names, k),
                          random_formula(rng, signature, names, n - 1 - k)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--logic", default="I1")
    parser.add_argument("--count", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    logic = lookup_logic(args.logic)
    rng = random.Random(args.seed)
    shown = 0
    while shown < args.count:
        phi = random_formula(rng, logic.signature, ["p", "q", "r"], rng.randint(1, 5))
        psi = random_formula(rng, logic.signature, ["p", "q", "r"], rng.randint(1, 5))
        if not atoms(phi) & atoms(psi):
            continue
        if not matrix_consequence(logic, (phi,), psi):
            continue
        try:
            candidate, host = interpolate_extended(logic, phi, psi)
        except NotContingentError:
            continue
        status = "verified" if verify_interpolant(host, phi, psi, candidate) else "BROKEN"
        print(f"{logic.render(phi)}")
        print(f"  entails  {logic.render(psi)}")
        print(f"  through  {host.render(candidate)}   [{status}]")
        print()
        shown += 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
