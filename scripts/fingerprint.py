#!/usr/bin/env python3
"""Fingerprint the prover's and the interpolation's outputs on seeded goals.

Prints one SHA-256 per output family, so that two commits can be shown to
give byte-identical outputs by running this script at both:

- proofs: the verdict, the countermodel, ``to_text`` and ``to_dict`` of
  N seeded single-premiss goals per logic, in all 24 logics;
- interpolants: the interpolant's text and its host logic's name, or the
  error's class and message, for 10 * N seeded attempts per host logic,
  in the 8 logics with an interpolant construction.

    PYTHONPATH=src python3 scripts/fingerprint.py --goals 300
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from trivalent.interpolation import interpolate_extended
from trivalent.logics import available_logics, lookup_logic
from trivalent.prover import designated_mode, prove

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_formula  # noqa: E402

HOSTS = ("I1", "I2", "P1", "P2", "K3", "LP", "G3", "G3prime")


def proofs(n: int) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for name in available_logics():
        logic = lookup_logic(name)
        sig = logic.signature
        rng = random.Random(f"fingerprint:proofs:{name}")
        for _ in range(n):
            a = random_formula(rng, sig, "pqr", rng.randint(0, 4))
            b = random_formula(rng, sig, "pqr", rng.randint(0, 4))
            result = prove(logic, designated_mode(logic), (a,), b)
            countermodel = {k: v.value for k, v in getattr(result, "countermodel", {}).items()}
            record = (result.proved, countermodel, result.tree.to_text(sig),
                      result.tree.to_dict(sig))
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
    return count, digest.hexdigest()


def interpolants(n: int) -> tuple[int, int, str]:
    digest = hashlib.sha256()
    count = found = 0
    for name in HOSTS:
        logic = lookup_logic(name)
        rng = random.Random(f"fingerprint:interpolants:{name}")
        for _ in range(10 * n):
            a = random_formula(rng, logic.signature, "pqr", rng.randint(1, 4))
            b = random_formula(rng, logic.signature, "pqr", rng.randint(1, 4))
            try:
                inter, host = interpolate_extended(logic, a, b)
            except Exception as exc:  # the error class and text are the output
                record = [type(exc).__name__, str(exc)]
            else:
                record = [host.render(inter), host.name]
                found += 1
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
    return count, found, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--goals", type=int, default=300,
                        help="proof goals per logic; ten times as many "
                             "interpolation attempts per host logic")
    args = parser.parse_args()
    n_goals, proof_hash = proofs(args.goals)
    print(f"proofs        {n_goals:6} goals                       {proof_hash}")
    n_tries, n_found, inter_hash = interpolants(args.goals)
    print(f"interpolants  {n_tries:6} attempts, {n_found:6} interpolants  {inter_hash}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
