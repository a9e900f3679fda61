from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import trivalent
from trivalent import prover
from trivalent.bisequent import parse_formula_list
from trivalent.cli import run
from trivalent.formula import atoms
from trivalent.logics import lookup_logic
from trivalent.semantics import assignments_over, falsifies


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_provable_goal_exits_zero(self, capsys):
        code, out, _ = call(capsys, "prove", "--logic", "K3", "p, p->q", "q")
        assert code == 0
        assert out.startswith("proved")
        assert "impl.ant1" in out

    def test_refuted_goal_shows_countermodel(self, capsys):
        code, out, _ = call(capsys, "prove", "--logic", "K3", "", "p | ~p")
        assert code == 1
        assert "countermodel: p=u" in out

    def test_lp_goal_goes_to_second_sequent(self, capsys):
        code, out, _ = call(capsys, "prove", "--logic", "LP", "", "p | ~p")
        assert code == 0

    def test_nonstandard_mode(self, capsys):
        code, _, _ = call(
            capsys, "prove", "--logic", "K3", "--mode", "no-counterexample", "", "p | ~p"
        )
        assert code == 0

    def test_json_roundtrip(self, capsys):
        code, out, _ = call(capsys, "prove", "--logic", "K3", "--json", "p, p->q", "q")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "proved"
        # re-running the emitted goal reproduces the verdict
        code2, out2, _ = call(
            capsys,
            "prove",
            "--logic",
            payload["logic"],
            "--json",
            ", ".join(payload["premisses"]),
            payload["conclusion"],
        )
        assert code2 == 0
        assert json.loads(out2)["verdict"] == payload["verdict"]

    def test_output_is_stable(self, capsys):
        # deterministic rule selection makes proof renderings golden
        code, out, _ = call(capsys, "prove", "--logic", "K3", "p & q", "q | r")
        assert code == 0
        assert out == (
            "proved\n"
            "p & q => q | r |  =>   [and.ant1]\n"
            "  p, q => q | r |  =>   [or.suc1]\n"
            "    p, q => q, r |  =>   [axiomatic]\n"
        )

    def test_refutation_prints_the_search_up_to_the_first_open_leaf(self, capsys):
        code, out, _ = call(capsys, "prove", "--logic", "K3", "p | q", "q & p")
        assert code == 1
        assert out == (
            "refuted\n"
            "countermodel: p=1, q=0\n"
            "p | q => q & p |  =>   [or.ant1]\n"
            "  p => q & p |  =>   [and.suc1]\n"
            "    p => q |  =>   [open]\n"
        )

    def test_each_format_renders_the_proof_once(self, capsys, monkeypatch):
        from trivalent.prover import ProofTree

        calls = []
        for name in ("to_text", "to_dict"):
            original = getattr(ProofTree, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(ProofTree, name, counted)
        # counts include the recursive calls on subtrees
        for goal in (("p, p->q", "q"), ("", "p | ~p")):
            call(capsys, "prove", "--logic", "K3", *goal)
            assert set(calls) == {"to_text"}
            calls.clear()
            call(capsys, "prove", "--logic", "K3", "--json", *goal)
            assert set(calls) == {"to_dict"}
            calls.clear()

    def test_parse_error_exits_two(self, capsys):
        code, _, err = call(capsys, "prove", "--logic", "K3", "p &", "q")
        assert code == 2
        assert "offset 3" in err

    def test_premiss_errors_report_offsets_within_the_argument(self, capsys):
        for argv, message in (
            (("prove", "--logic", "K3", "p,   q @ r", "r"),
             "unexpected character '@' (at offset 7)"),
            (("check-semantic", "--logic", "K3", "p, q, box r", "r"),
             "connective 'box' is not in the signature (at offset 6)"),
            (("countermodel", "--logic", "K3", "q, p & (r @ s)", "r"),
             "unexpected character '@' (at offset 10)"),
        ):
            code, out, err = call(capsys, *argv)
            assert code == 2, argv
            assert not out
            assert err == f"error: {message}\n"

    def test_empty_premiss_item_is_an_input_error(self, capsys):
        for command in ("prove", "check-semantic", "countermodel"):
            for premisses, offset in (("p,,q", 2), ("p,", 2), (", p", 0)):
                code, out, err = call(capsys, command, "--logic", "K3", premisses, "q")
                assert code == 2, (command, premisses)
                assert not out
                assert err == f"error: empty formula in list (at offset {offset})\n"
        # no premisses at all is still the empty list
        assert call(capsys, "prove", "--logic", "K3", " ", "p | ~p")[0] == 1

    def test_internal_value_error_exits_three(self, capsys, monkeypatch):
        from trivalent import prover

        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(prover, "prove", broken)
        code, out, err = call(capsys, "prove", "--logic", "K3", "", "p")
        assert code == 3
        assert not out
        assert "internal error" in err

    def test_recursion_limit_is_not_a_refutation(self, capsys):
        goal = "(" * 600 + "p" + ")" * 600
        code, out, err = call(capsys, "prove", "--logic", "K3", "", goal)
        assert code == 2
        assert not out
        assert err.startswith("error: formula nested more than 100 levels deep")

    def test_internal_recursion_error_exits_three(self, capsys, monkeypatch):
        from trivalent import prover

        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(prover, "prove", too_deep)
        code, out, err = call(capsys, "prove", "--logic", "K3", "", "p")
        assert code == 3
        assert not out
        assert "internal error: RecursionError" in err

    def test_unknown_logic_exits_two(self, capsys):
        code, _, err = call(capsys, "prove", "--logic", "B4", "", "p")
        assert code == 2
        assert "K3" in err

    def test_max_atoms_only_where_the_oracle_runs_on_the_input(self, capsys):
        for argv in (
            ("prove", "--logic", "K3", "--max-atoms", "3", "", "p"),
            ("verify-rules", "--logic", "K3", "--max-atoms", "3"),
            ("synthesize", "--logic", "K3", "--max-atoms", "3", "--connective", "neg",
             "--slot", "ant1"),
            ("table", "--logic", "K3", "--max-atoms", "3", "--connective", "neg"),
        ):
            code, _, err = call(capsys, *argv)
            assert code == 2, argv
            assert "--max-atoms" in err
        for argv in (
            ("check-semantic", "--logic", "K3", "--max-atoms", "3", "", "p | ~p"),
            ("countermodel", "--logic", "K3", "--max-atoms", "3", "", "p | ~p"),
        ):
            assert call(capsys, *argv)[0] == 1, argv
        code, _, _ = call(capsys, "interpolate", "--logic", "K3", "--max-atoms", "3",
                          "p & q", "p | q")
        assert code == 0

    def test_constants_flag(self, capsys):
        code, _, _ = call(capsys, "prove", "--logic", "K3", "--constants", "", "T")
        assert code == 0

    def test_constants_without_the_flag_exit_two_like_the_oracle(self, capsys):
        for goal in (("U", "U"), ("", "T")):
            for command in ("prove", "check-semantic"):
                code, _, err = call(capsys, command, "--logic", "K3", *goal)
                assert code == 2, (command, goal)
                assert "constants are not enabled in logic K3" in err


class TestCheckSemantic:
    def test_agrees_with_prove(self, capsys):
        for goal, expected in ((("p, p->q", "q"), 0), (("", "p | ~p"), 1)):
            code_p, _, _ = call(capsys, "prove", "--logic", "K3", *goal)
            code_c, _, _ = call(capsys, "check-semantic", "--logic", "K3", *goal)
            assert code_p == code_c == expected

    def test_undeclared_constant_exits_two_whatever_the_premisses(self, capsys):
        # the premiss is never designated in K3, so only the constant is wrong
        for argv in (
            ("check-semantic", "--logic", "K3", "p & ~p", "U"),
            ("countermodel", "--logic", "K3", "p & ~p", "U"),
            ("countermodel", "--logic", "K3", "p & ~p => T | =>"),
        ):
            code, _, err = call(capsys, *argv)
            assert code == 2, argv
            assert "constants are not enabled in logic K3" in err


class TestCountermodel:
    def test_bisequent_argument(self, capsys):
        code, out, _ = call(capsys, "countermodel", "--logic", "K3", "=> p | p =>")
        assert code == 1
        assert "p=u" in out

    def test_goal_arguments(self, capsys):
        code, out, _ = call(capsys, "countermodel", "--logic", "K3", "p", "p")
        assert code == 0
        assert "valid" in out

    def test_json_lists_all_falsifiers(self, capsys):
        code, out, _ = call(
            capsys, "countermodel", "--logic", "K3", "--json", "=> p | =>"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["countermodels"] == [{"p": "0"}, {"p": "u"}]

    def test_json_countermodels_come_in_enumeration_order(self, capsys):
        # atoms in name order, values 0 < u < 1, the last atom fastest
        code, out, _ = call(capsys, "countermodel", "--logic", "K3", "--json", "p | q", "r")
        assert code == 1
        golden = ["010", "01u", "u10", "u1u", "100", "10u", "1u0", "1uu", "110", "11u"]
        assert json.loads(out)["countermodels"] == [
            dict(zip("pqr", values)) for values in golden
        ]

    def test_eight_atoms_list_the_reference_enumeration(self, capsys):
        logic = lookup_logic("L3")
        premisses, conclusion = "p & (q | ~r), s -> t", "(u | p) & (v -> w)"
        b = prover.goal_bisequent(
            logic,
            prover.designated_mode(logic),
            parse_formula_list(premisses, logic.signature),
            logic.parse(conclusion),
        )
        names = {a for _, _, f in b.formulas() for a in atoms(f)}
        assert len(names) == 8
        expected = [
            {a: v.value for a, v in h.items()}
            for h in assignments_over(names)
            if falsifies(logic, h, b)
        ]
        assert 1 < len(expected) < 3**8
        code, out, _ = call(capsys, "countermodel", "--logic", "L3", "--json", premisses, conclusion)
        assert code == 1
        assert json.loads(out)["countermodels"] == expected
        code, out, _ = call(capsys, "countermodel", "--logic", "L3", premisses, conclusion)
        assert code == 1
        assert out.splitlines() == ["invalid"] + [
            ", ".join(f"{a}={v}" for a, v in h.items()) for h in expected
        ]


class TestInterpolate:
    def test_interpolant_found(self, capsys):
        code, out, _ = call(capsys, "interpolate", "--logic", "I1", "p & q", "p | q")
        assert code == 0
        assert out.strip()

    def test_not_entailed_is_a_negative_verdict(self, capsys):
        code, _, err = call(capsys, "interpolate", "--logic", "P1", "p", "q")
        assert code == 1
        assert "not entailed" in err

    def test_extended_host_logics(self, capsys):
        code, out, _ = call(capsys, "interpolate", "--logic", "K3", "p & q", "p | q")
        assert code == 0

    def test_no_constants_flag(self, capsys):
        code, _, err = call(
            capsys, "interpolate", "--logic", "I1", "--constants", "p & q", "p | q"
        )
        assert code == 2
        assert "unrecognized arguments: --constants" in err

    def test_failed_verification_is_an_internal_error(self, capsys, monkeypatch):
        from trivalent import interpolation

        monkeypatch.setattr(interpolation, "verify_interpolant", lambda *a: False)
        code, out, err = call(capsys, "interpolate", "--logic", "I1", "p & q", "p | q")
        assert code == 3
        assert not out
        assert "failed verification" in err


class TestOtherCommands:
    def test_verify_rules(self, capsys):
        code, out, _ = call(capsys, "verify-rules", "--logic", "L3")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert all(l.endswith("sound_and_invertible") for l in lines)
        assert any(l.startswith("impl_l.ant1") for l in lines)

    def test_verify_rules_json(self, capsys):
        code, out, _ = call(capsys, "verify-rules", "--logic", "Palasinska1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_verified"]
        assert payload["rules"][-1] == {"axiom": "circ1@suc2", "verdict": "sound_and_invertible"}
        assert all("rule" in entry for entry in payload["rules"][:-1])
        code, out, _ = call(capsys, "verify-rules", "--logic", "Palasinska1")
        assert out.splitlines()[-1] == "axiom circ1@suc2: sound_and_invertible"

    def test_synthesize(self, capsys):
        code, out, _ = call(
            capsys, "synthesize", "--logic", "K3", "--connective", "neg",
            "--slot", "ant1",
        )
        assert code == 0
        assert out.strip() == "0@suc2"

    def test_synthesize_axiom(self, capsys):
        argv = ("synthesize", "--logic", "Palasinska1", "--connective", "circ1", "--slot", "suc2")
        code, out, _ = call(capsys, *argv)
        assert code == 0
        assert out == "axiom schema: any circ1 formula in suc2 is axiomatic\n"
        code, out, _ = call(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "synthesize", "connective": "circ1", "slot": "suc2", "axiom_schema": True,
        }

    def test_table(self, capsys):
        code, out, _ = call(capsys, "table", "--logic", "K3", "--connective", "neg")
        assert code == 0
        assert "u : u" in out

    def test_list_logics(self, capsys):
        code, out, _ = call(capsys, "list-logics")
        assert code == 0
        assert "K3" in out and "Palasinska2" in out

    def test_usage_error(self, capsys):
        assert call(capsys, "prove", "--logic", "K3")[0] == 2
        assert call(capsys, "no-such-command")[0] == 2

    def test_reader_closing_stdout_early_gives_141(self):
        # about 280 KB of countermodels, far more than a pipe buffers
        goal = "=> " + ", ".join(f"p{i}" for i in range(12)) + " | =>"
        env = {**os.environ, "PYTHONPATH": str(Path(trivalent.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "trivalent.cli", "countermodel", "--logic", "K3", goal],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        ) as proc:
            assert proc.stdout.readline() == "invalid\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert stderr == ""


class TestStartup:
    """What a fresh ``trivalent`` process imports for one command."""

    PROBE = (
        "import sys\n"
        "from trivalent import cli\n"
        "cli.run(sys.argv[1:])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )

    def modules(self, *argv) -> set[str]:
        env = {**os.environ, "PYTHONPATH": str(Path(trivalent.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        return set(done.stdout.splitlines()[-1].split())

    def test_each_command_loads_only_what_it_runs(self):
        countermodel = self.modules("countermodel", "--logic", "K3", "--json", "p", "q")
        prove = self.modules("prove", "--logic", "K3", "--json", "p, p -> q", "q")
        interpolate = self.modules("interpolate", "--logic", "K3", "--json", "p & q", "p | q")
        for loaded in (countermodel, prove, interpolate):
            assert not loaded & {"dataclasses", "inspect"}
        engine = {"trivalent.calculus", "trivalent.prover", "trivalent.interpolation"}
        assert not countermodel & engine
        assert "trivalent.prover" in prove and "trivalent.interpolation" not in prove
        assert engine <= interpolate

    def test_set_up_builds_catalogs_lazily(self):
        # what the benchmark's set-up probe does: every logic's catalog,
        # with no rule synthesised until a search asks for it
        probe = (
            "import sys\n"
            "import trivalent\n"
            "names = trivalent.available_logics()\n"
            "for name in names:\n"
            "    trivalent.catalog(trivalent.lookup_logic(name))\n"
            "calculus = sys.modules['trivalent.calculus']\n"
            "print(len(names), calculus._synthesized.cache_info().currsize)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('trivalent'))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(trivalent.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        counts, loaded = done.stdout.splitlines()
        assert counts == "24 0"
        assert set(loaded.split()) == {"trivalent"} | {
            f"trivalent.{m}"
            for m in ("formula", "record", "logics", "bisequent", "semantics", "calculus")
        }
