import csv
import itertools
import os
import re
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cotlearn.cli import _CONFIG_KEYS, _parse_config, main
from cotlearn.circomp import compile_circuit, eval_circuit, feature_map, format_circuit, random_normalized_circuit
from cotlearn.learning import CoTDataset, cons_cot, load_cot_dataset, save_cot_dataset, save_e2e_dataset, E2EDataset
from cotlearn.lbfamilies import E1Family, parse_family_spec
from cotlearn.linthresh import parse_threshold
from cotlearn.seqcore import BINARY, ConstantGenerator, cot, e2e
from cotlearn.turing import TMFamily, TMGenerator, TMSpec, format_tm, pre

ALWAYS_ONE = TMSpec(1, 2, ((1, 1, 1),) * 3)


def assert_one_error_line(capsys, *names: str) -> str:
    """Check stderr holds exactly one "error:" line, naming each of
    ``names``; return what went to stdout."""
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and all(n in err[0] for n in names), err
    return captured.out


@pytest.fixture
def tm_file(tmp_path):
    p = tmp_path / "machine.tm"
    p.write_text(format_tm(ALWAYS_ONE))
    return str(p)


class TestGenerate:
    def test_tm_generation_renders(self, tm_file, capsys):
        assert main(["generate", tm_file, "--kind", "tm", "--input", "0", "--T", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1:_:+1,1:0:+1,1:1:+1,1:1:+1"

    def test_single_step(self, tm_file, capsys):
        assert main(["generate", tm_file, "--kind", "tm", "--input", "", "--T", "1"]) == 0
        assert capsys.readouterr().out.strip().count(",") == 1  # prompt token + one step

    def test_threshold_generation(self, tmp_path, capsys):
        p = tmp_path / "thr.txt"
        p.write_text("2 -2 1 1\n")  # 1 iff both of the last two bits are set
        assert main(["generate", str(p), "--kind", "threshold", "--prompt", "1,0", "--T", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1,0,0,0,0"

    @pytest.mark.parametrize("kind, option, value", [
        ("threshold", "--input", "11"),
        ("tm", "--prompt", "1,0"),
    ])
    def test_option_of_the_other_kind_is_input_error(self, tmp_path, capsys, kind, option, value):
        p = tmp_path / "generator.txt"
        p.write_text("2 -1 1 1\n" if kind == "threshold" else format_tm(ALWAYS_ONE))
        # ignoring the option would generate from the empty prompt or input
        assert main(["generate", str(p), "--kind", kind, option, value, "--T", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option} does not apply") and captured.err.count("\n") == 1

    def test_bad_file_is_input_error(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope"), "--kind", "tm", "--input", "0", "--T", "1"]) == 2

    def test_malformed_machine(self, tmp_path):
        p = tmp_path / "bad.tm"
        p.write_text("1 2\n1 0 -> 1 1\n")
        assert main(["generate", str(p), "--kind", "tm", "--input", "0", "--T", "1"]) == 2

    def test_zero_denominator_threshold_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "thr.txt"
        p.write_text("2 0 1/0 1\n")
        assert main(["generate", str(p), "--kind", "threshold", "--prompt", "1", "--T", "1"]) == 2
        assert_one_error_line(capsys)

    def test_huge_exponent_threshold_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "thr.txt"
        p.write_text("2 0 1e4000000 1\n")
        assert main(["generate", str(p), "--kind", "threshold", "--prompt", "1", "--T", "1"]) == 2
        assert assert_one_error_line(capsys) == ""


class TestLearn:
    def test_learn_tm_cot(self, tmp_path, capsys):
        import random

        rng = random.Random(0)
        fam = TMFamily(2)
        spec = fam.random_spec(rng, 6)
        gen = TMGenerator(spec.S, spec.table)
        prompts = [pre([rng.randint(0, 1) for _ in range(3)], 2) for _ in range(20)]
        data = CoTDataset(tuple(cot(gen, x, 6) for x in prompts), 6)
        data_path = tmp_path / "cots.txt"
        save_cot_dataset(data_path, data)
        out_path = tmp_path / "learned.tm"
        code = main([
            "learn", "--family", "tm:S=2", "--mode", "cot", "--T", "6",
            "--data", str(data_path), "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.read_text().startswith("2 6\n")

    @pytest.mark.parametrize("family", ["tm:S=2", "linthresh:d=3", "sparse:d=4,k=1"])
    def test_learned_file_generates_the_learned_chains(self, tmp_path, capsys, family):
        """``generate`` reads what ``learn --out`` writes, and each chain it
        prints is the learned generator's chain on the same prompt."""
        fam, T = parse_family_spec(family), 5
        inputs = [bits for k in range(1, 5) for bits in itertools.product((0, 1), repeat=k)]
        if family.startswith("tm"):
            kind, option, prompts = "tm", "--input", [pre(bits, fam.S) for bits in inputs]
        else:
            kind, option, prompts = "threshold", "--prompt", [BINARY.seq(bits) for bits in inputs]
        f_star = fam.random_member(random.Random(3))
        data_path, out_path = tmp_path / "cots.txt", tmp_path / "learned.txt"
        save_cot_dataset(data_path, CoTDataset(tuple(cot(f_star, x, T) for x in prompts[::2]), T))
        assert main(["learn", "--family", family, "--mode", "cot", "--T", str(T),
                     "--data", str(data_path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        learned = cons_cot(load_cot_dataset(data_path, fam.alphabet, T), fam.cons_oracle())
        for bits, x in zip(inputs, prompts):
            value = "".join(map(str, bits)) if kind == "tm" else x.render()
            assert main(["generate", str(out_path), "--kind", kind, option, value, "--T", str(T)]) == 0
            assert capsys.readouterr().out.strip() == cot(learned, x, T).render(), (family, bits)

    def test_generator_without_a_file_format_is_internal_fault(self, tmp_path, capsys, monkeypatch):
        """A learner result of no known kind exits 1 with one "error:" line,
        and ``learn --out`` writes no file."""
        from cotlearn import cli

        monkeypatch.setattr(cli, "cons_cot", lambda data, oracle: ConstantGenerator(BINARY, 1))
        data_path, out_path = tmp_path / "cots.txt", tmp_path / "learned.txt"
        data_path.write_text("1,1\n")
        assert main(["learn", "--family", "linthresh:d=2", "--mode", "cot", "--T", "1",
                     "--data", str(data_path), "--out", str(out_path)]) == 1
        assert assert_one_error_line(capsys, "internal fault", "ConstantGenerator") == ""
        assert not out_path.exists()

    def test_learn_cot_record_with_empty_prompt(self, tmp_path, capsys):
        # a record of length T is T tokens generated from the empty prompt
        data = tmp_path / "records.txt"
        data.write_text("1,1,1\n")
        assert main(["learn", "--family", "linthresh:d=2", "--mode", "cot", "--T", "3", "--data", str(data)]) == 0
        assert capsys.readouterr().out.strip() == "2 0 0 0"

    def test_learn_e1_e2e(self, tmp_path, capsys):
        fam = E1Family(2, 2)
        f_star = fam.member(9)
        pts = fam.canonical_points()
        pairs = tuple((x, e2e(f_star, x, 2)) for x in pts)
        data_path = tmp_path / "pairs.tsv"
        save_e2e_dataset(data_path, E2EDataset(pairs, 2))
        assert main(["learn", "--family", "e1:D=2,T=2", "--mode", "e2e", "--data", str(data_path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("b=")

    def test_missing_out_directory_is_input_error(self, tmp_path, capsys):
        data_path = tmp_path / "cots.txt"
        data_path.write_text("1,1,1\n")
        code = main(["learn", "--family", "linthresh:d=1", "--mode", "cot", "--T", "1",
                     "--data", str(data_path), "--out", str(tmp_path / "missing" / "f.txt")])
        assert code == 2
        assert assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize("family, record", [
        ("tm:S=1", "1:_:+1,1:_:+1\n"),  # the label writes a blank, which no machine step does
        ("linthresh:d=-1", "1,1\n"),
    ])
    def test_learning_phase_input_error_is_one_line(self, tmp_path, capsys, family, record):
        data_path = tmp_path / "cots.txt"
        data_path.write_text(record)
        code = main(["learn", "--family", family, "--mode", "cot", "--T", "1", "--data", str(data_path)])
        assert code == 2
        assert assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize("family, message", [
        ("tm:S=2,T=9", "takes no argument 't'"),
        ("e1:D=2,T=2,D=3", "argument 'd' given twice"),
    ])
    def test_unknown_or_repeated_family_argument_is_input_error(self, tmp_path, capsys, family, message):
        data_path = tmp_path / "cots.txt"
        data_path.write_text("1,1\n")
        assert main(["learn", "--family", family, "--mode", "cot", "--data", str(data_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err

    @pytest.mark.parametrize("mode", ["cot", "e2e"])
    def test_dataset_without_examples_is_input_error(self, tmp_path, capsys, mode):
        path = tmp_path / "data.txt"
        path.write_text("\n  \n")
        assert main(["learn", "--family", "e1:D=1,T=2", "--mode", mode, "--data", str(path)]) == 2
        assert assert_one_error_line(capsys, f"dataset {path} holds no examples") == ""

    def test_unrealizable_is_failure_exit(self, tmp_path):
        data_path = tmp_path / "bad.txt"
        data_path.write_text("1,0,1,1\n1,0,0,0\n")  # same prompt, different generations
        code = main(["learn", "--family", "linthresh:d=2", "--mode", "cot", "--T", "3",
                     "--data", str(data_path)])
        assert code == 1


class TestCompileCircuit:
    def test_verify_ok(self, tmp_path, capsys):
        import random

        c = random_normalized_circuit(random.Random(1), 2, 2, 1)
        p = tmp_path / "circ.txt"
        p.write_text(format_circuit(c))
        out = tmp_path / "compiled.txt"
        assert main(["compile-circuit", str(p), "--out", str(out), "--verify"]) == 0
        text = capsys.readouterr().out
        assert "OK 4/4 inputs" in text
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and parse_threshold(lines[0]) == compile_circuit(c).generator()

    def test_failed_verification_prints_at_most_ten_failures(self, tmp_path, capsys, monkeypatch):
        """A compile whose off-schedule sentinel is zeroed fails on every
        input: exit 1, the FAILED summary, then the first ten failures."""
        from test_circomp import zero_off_schedule_sentinel

        from cotlearn import circomp

        compile_circuit = circomp.compile_circuit
        monkeypatch.setattr(circomp, "compile_circuit", lambda c: zero_off_schedule_sentinel(compile_circuit(c)))
        p = tmp_path / "circ.txt"
        p.write_text(format_circuit(random_normalized_circuit(random.Random(10), 4, 2, 2)))
        assert main(["compile-circuit", str(p), "--verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("compiled: T=")
        summary = lines[1].split()
        assert summary[0] == "FAILED" and int(summary[1]) > 10 and summary[3:6] == ["over", "16", "inputs"]
        assert len(lines) == 12 and all(line.startswith("  x=") for line in lines[2:])

    @pytest.mark.parametrize("text, message", [
        ("2 1 1\n1 1 : 1 1\n2 1 : 1 1 1\n", "gate (2,1) outside the declared 1x1 grid"),
        ("2 1 1\n1 1 : 1 1\n1 1 : 1 -1\n", "duplicate gate (1,1)"),
    ])
    def test_gate_file_error_is_input_error(self, tmp_path, capsys, text, message):
        p = tmp_path / "circ.txt"
        p.write_text(text)
        assert main(["compile-circuit", str(p)]) == 2
        assert assert_one_error_line(capsys, message) == ""

    def test_compiled_file_in_the_old_format_is_input_error(self, tmp_path, capsys):
        """A threshold line followed by a "T=" line is one weight too many."""
        circuit = tmp_path / "circ.txt"
        circuit.write_text(format_circuit(random_normalized_circuit(random.Random(1), 2, 2, 1)))
        compiled = tmp_path / "compiled.txt"
        assert main(["compile-circuit", str(circuit), "--out", str(compiled)]) == 0
        capsys.readouterr()
        compiled.write_text(compiled.read_text() + "T=4\n")
        assert main(["compile-circuit", str(circuit), "--compiled", str(compiled)]) == 2
        assert assert_one_error_line(capsys, "expected 9 weights, got 10") == ""

    def test_compiled_circuit_is_generated_and_learned_back(self, tmp_path, capsys):
        """compile -> generate -> learn -> generate at the CLI: the chains of
        the compiled file on every input are learned back as a threshold of
        the same dimension, whose last token is the circuit's output."""
        c = random_normalized_circuit(random.Random(4), 3, 2, 1)
        circuit, compiled = tmp_path / "circ.txt", tmp_path / "compiled.txt"
        circuit.write_text(format_circuit(c))
        assert main(["compile-circuit", str(circuit), "--out", str(compiled)]) == 0
        T, d, n = map(int, re.match(r"compiled: T=(\d+) d=(\d+) \(from n=(\d+),", capsys.readouterr().out).groups())
        assert n == c.n >= 2 and 2 * T == d - n + 1
        inputs = list(itertools.product((0, 1), repeat=n))

        def generate(path, x):
            prompt = feature_map(x, T).render()
            assert main(["generate", str(path), "--kind", "threshold", "--prompt", prompt, "--T", str(T)]) == 0
            return capsys.readouterr().out.strip()

        data, learned = tmp_path / "chains.txt", tmp_path / "learned.txt"
        data.write_text("".join(generate(compiled, x) + "\n" for x in inputs))
        assert main(["learn", "--family", f"linthresh:d={d}", "--mode", "cot", "--T", str(T),
                     "--data", str(data), "--out", str(learned)]) == 0
        capsys.readouterr()
        for x in inputs:
            assert int(generate(learned, x).split(",")[-1]) == eval_circuit(c, x), x

    def test_corrupted_compiled_file_detected(self, tmp_path):
        import random

        c = random_normalized_circuit(random.Random(2), 2, 2, 1)
        p = tmp_path / "circ.txt"
        p.write_text(format_circuit(c))
        out = tmp_path / "compiled.txt"
        assert main(["compile-circuit", str(p), "--out", str(out)]) == 0
        parts = out.read_text().split()
        parts[2] = "9999"  # clobber one weight
        out.write_text(" ".join(parts) + "\n")
        assert main(["compile-circuit", str(p), "--compiled", str(out)]) == 1

    def test_guard_refusal(self, tmp_path):
        import random

        c = random_normalized_circuit(random.Random(3), 13, 1, 1)
        p = tmp_path / "big.txt"
        p.write_text(format_circuit(c))
        assert main(["compile-circuit", str(p), "--verify"]) == 2

    def test_guard_refusal_writes_nothing(self, tmp_path, capsys):
        import random

        p = tmp_path / "big.txt"
        p.write_text(format_circuit(random_normalized_circuit(random.Random(3), 13, 1, 1)))
        out = tmp_path / "c.txt"
        assert main(["compile-circuit", str(p), "--out", str(out), "--verify"]) == 2
        assert assert_one_error_line(capsys) == ""
        assert not out.exists()

    def test_size_guard_refuses_deep_circuit(self, tmp_path, capsys):
        # n=1, s=1, L=40: the ladder n(s+1)^L is 2^40, so compiling would exhaust memory
        p = tmp_path / "deep.txt"
        p.write_text("1 1 40\n" + "".join(f"{l} 1 : " + " ".join(["0"] * l) + "\n" for l in range(1, 41)))
        assert len(p.read_text().splitlines()) == 41
        out = tmp_path / "c.txt"
        assert main(["compile-circuit", str(p), "--out", str(out)]) == 2
        assert assert_one_error_line(capsys) == ""
        assert not out.exists()

    def test_parse_error(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("not a circuit\n")
        assert main(["compile-circuit", str(p)]) == 2

    def test_zero_denominator_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "circ.txt"
        p.write_text("2 1 1\n1 1 : 1/0 0\n")
        assert main(["compile-circuit", str(p)]) == 2
        assert_one_error_line(capsys)

    def test_huge_exponent_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "circ.txt"
        p.write_text("2 1 1\n1 1 : 1e4000000 0\n")
        assert main(["compile-circuit", str(p)]) == 2
        assert assert_one_error_line(capsys) == ""

    def test_missing_out_directory_is_input_error(self, tmp_path, capsys):
        import random

        p = tmp_path / "circ.txt"
        p.write_text(format_circuit(random_normalized_circuit(random.Random(1), 2, 2, 1)))
        assert main(["compile-circuit", str(p), "--out", str(tmp_path / "missing" / "c.txt")]) == 2
        assert assert_one_error_line(capsys) == ""


class TestSimulateTm:
    def test_all_vias_agree(self, tm_file, capsys):
        for via in ("direct", "autoregressive", "attention"):
            assert main(["simulate-tm", tm_file, "--input", "10", "--via", via]) == 0
            assert capsys.readouterr().out.strip() == "1"

    def test_check_mode(self, tm_file, capsys):
        assert main(["simulate-tm", tm_file, "--input", "0", "--check"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("option", [["--trace"], ["--via", "direct"], ["--via", "attention"]],
                             ids=["trace", "via-direct", "via-attention"])
    def test_check_refuses_a_route_option(self, tm_file, capsys, option):
        """--check runs every route and prints one answer, so a route or a
        trace asked for beside it would be dropped."""
        assert main(["simulate-tm", tm_file, "--input", "01", "--check", *option]) == 2
        assert assert_one_error_line(capsys, f"{option[0]} does not apply to --check") == ""

    def test_check_is_the_standing_regression_gate(self, tmp_path, capsys):
        # 200 random machines through all three routes; zero disagreements
        import random

        rng = random.Random(5)
        for k in range(200):
            spec = TMFamily(rng.randint(1, 4)).random_spec(rng, rng.randint(1, 20))
            p = tmp_path / f"m{k}.tm"
            p.write_text(format_tm(spec))
            bits = "".join(str(rng.randint(0, 1)) for _ in range(rng.randint(0, 5)))
            assert main(["simulate-tm", str(p), "--input", bits, "--check"]) == 0
            capsys.readouterr()

    def test_check_reports_a_disagreement(self, tm_file, capsys, monkeypatch):
        from cotlearn import turing

        simulate = turing.simulate_tm
        monkeypatch.setattr(turing, "simulate_tm", lambda spec, omega: (1 - simulate(spec, omega)[0], None))
        assert main(["simulate-tm", tm_file, "--input", "0", "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["disagreement: {'direct': 0, 'autoregressive': 1, 'attention': 1}"]

    def test_trace_shown(self, tm_file, capsys):
        assert main(["simulate-tm", tm_file, "--input", "1", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "# t=1" in out and "head=" in out

    def test_malformed_machine_exit_two(self, tmp_path):
        p = tmp_path / "bad.tm"
        p.write_text("1 1\n1 0 -> nope\n")
        assert main(["simulate-tm", str(p), "--input", "0"]) == 2

    def test_duplicate_transition_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.tm"
        p.write_text(format_tm(ALWAYS_ONE) + "1 0 -> 1 0 0\n")
        assert main(["simulate-tm", str(p), "--input", "0"]) == 2
        assert assert_one_error_line(capsys, "duplicate transition for state 1, read 0") == ""


def _named_in_refusal(override: dict) -> list[str]:
    """What the refusal of a config override names: input_len when it is
    given, and the key and the text of each number that is no integer."""
    names = ["input_len"] if "input_len" in override else []
    for key, value in override.items():
        bad = [p for p in str(value).split(",") if not p.lstrip("-").isdigit()]
        if key != "family" and bad:
            names += [f"config key {key!r}", repr(bad[0])]
    return names


class TestVcdim:
    def test_e1_e2e(self, capsys):
        assert main(["vcdim", "--family", "e1:D=2,T=2", "--mode", "e2e"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_collapse(self, capsys):
        assert main(["vcdim", "--family", "collapse:D=3", "--mode", "e2e", "--T", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_ldim_base(self, capsys):
        assert main(["vcdim", "--family", "ldim:D=3", "--mode", "base"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_guard_exit(self, capsys):
        assert main(["vcdim", "--family", "e1:D=3,T=8", "--mode", "base"]) == 2

    @pytest.mark.parametrize("spec", ["tm:S=1", "linthresh:d=2", "sparse:d=3,k=1"])
    def test_family_without_point_pool_is_input_error(self, spec, capsys):
        assert main(["vcdim", "--family", spec]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("spec, names", [
        ("e1:D=x,T=2", ("family 'e1' argument 'd'", "'x'")),
        ("ldim:D=2.5", ("family 'ldim' argument 'd'", "'2.5'")),
    ])
    def test_non_integer_family_argument_is_named(self, spec, names, capsys):
        assert main(["vcdim", "--family", spec]) == 2
        assert_one_error_line(capsys, *names)

    def test_e2e_mode_needs_a_horizon_the_family_lacks(self, capsys):
        assert main(["vcdim", "--family", "ldim:D=3", "--mode", "e2e"]) == 2
        assert assert_one_error_line(capsys, "this family needs an explicit --T") == ""

    def test_horizon_does_not_apply_to_base_mode(self, capsys):
        # ignoring it would print the base dimension as if --T had been used
        assert main(["vcdim", "--family", "ldim:D=3", "--mode", "base", "--T", "5"]) == 2
        assert assert_one_error_line(capsys, "--T does not apply to --mode base") == ""


def _write_config(path, **overrides):
    cfg = {
        "family": "e1:D=2,T=2",
        "mode": "cot",
        "t": 2,
        "sizes": "1,2,4",
        "trials": 3,
        "seed": 5,
        "eval_n": 50,
        "out": str(path.parent / "rows.csv"),
    }
    cfg.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))


def _timeless_rows(path):
    """Experiment CSV rows without the wall_ms timing column."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r.pop("wall_ms")
    return rows


class TestExperiment:
    def test_rows_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg)
        assert main(["experiment", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "median error" in out
        with open(tmp_path / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        keys = {(r["family"], r["mode"], r["T"], r["m"], r["trial"]) for r in rows}
        assert len(keys) == 9
        assert all(r["status"] == "ok" for r in rows)
        assert all(0.0 <= float(r["error"]) <= 1.0 for r in rows)

    def test_single_cell_grid(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, sizes="3", trials=1)
        assert main(["experiment", str(cfg)]) == 0
        with open(tmp_path / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_deterministic_apart_from_wall_time(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, out=str(tmp_path / "a.csv"))
        assert main(["experiment", str(cfg)]) == 0
        _write_config(cfg, out=str(tmp_path / "b.csv"))
        assert main(["experiment", str(cfg)]) == 0

        assert _timeless_rows(tmp_path / "a.csv") == _timeless_rows(tmp_path / "b.csv")

    def test_appends_across_runs_with_one_header(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, sizes="2", trials=2)
        assert main(["experiment", str(cfg)]) == 0
        assert main(["experiment", str(cfg)]) == 0
        text = (tmp_path / "rows.csv").read_text()
        assert text.count("family,mode") == 1
        with open(tmp_path / "rows.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_validation(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, sizes="4,2")
        assert main(["experiment", str(cfg)]) == 2
        _write_config(cfg, trials=0)
        assert main(["experiment", str(cfg)]) == 2
        cfg.write_text("family=e1:D=2,T=2\n")
        assert main(["experiment", str(cfg)]) == 2

    def test_comment_and_blank_lines_are_skipped(self):
        text = "# a grid\n\nfamily=e1:D=2,T=2\n  # indented\nmode=cot\nt=2\nsizes=1\ntrials=1\nseed=5\nout=r.csv\n"
        assert _parse_config(text)["family"] == "e1:D=2,T=2"

    def test_repeated_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, t=2)
        cfg.write_text(cfg.read_text() + "T=3\n")
        assert main(["experiment", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config key 't' given twice"]
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("out", ["missing/rows.csv", "."])
    def test_unwritable_out_fails_before_any_trial(self, tmp_path, capsys, out):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, out=str(tmp_path / out))
        assert main(["experiment", str(cfg)]) == 2
        assert assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize("override", [
        {"eval_n": 0}, {"sizes": "-1,2"}, {"t": 0},
        {"family": "sparse:d=2,k=5"}, {"family": "linthresh:d=-2"}, {"family": "tm:S=0"},
        # Above the family size bounds; each would exhaust memory if built.
        {"family": "e1:D=100000,T=100000"}, {"family": "tm:S=3000000"},
        {"family": "linthresh:d=300000000"}, {"family": "sparse:d=300000000,k=1"},
        # Prompt sets too large to build or to sample.
        {"family": "tm:S=2", "input_len": 40}, {"family": "linthresh:d=2", "input_len": 1000000000},
        {"input_len": -1},
        # Grids too large to build: each size and trial is a job built up front.
        {"sizes": "1000000000"}, {"trials": 1000000000}, {"eval_n": 1000000000},
        {"sizes": ",".join(map(str, range(40))), "trials": 4096},
        # A horizon above GENERATION_MAX_T: refused before any job is built.
        {"t": 100000000},
        # Threshold prompts hold 1 to input_len bits, so 0 leaves none.
        {"family": "linthresh:d=2", "input_len": 0}, {"family": "sparse:d=2,k=1", "input_len": 0},
        # Numbers that are no integers: the error names the key and the text.
        {"sizes": "1,x"}, {"t": "two"}, {"eval_n": "1.5"}, {"trials": "3 trials"}, {"seed": "0x5"},
        {"input_len": "4.0"},
        # A lookup family's prompts are its canonical points.
        {"family": "e1:D=2,T=2", "input_len": 30}, {"family": "collapse:D=2", "input_len": 4},
    ])
    def test_rejects_unusable_config_values(self, tmp_path, capsys, monkeypatch, override):
        from cotlearn import cli

        def no_trial(*args):
            raise AssertionError("a trial ran before the config was refused")

        monkeypatch.setattr(cli, "pac_trial", no_trial)
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, **override)
        assert main(["experiment", str(cfg)]) == 2
        assert_one_error_line(capsys, *_named_in_refusal(override))
        assert not (tmp_path / "rows.csv").exists()

    @given(st.one_of(
        st.text(),
        st.lists(st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), st.text())).map(
            lambda pairs: "\n".join(f"{k}={v}" for k, v in pairs)
        ),
    ))
    def test_arbitrary_config_text_parses_or_raises_value_error(self, text):
        try:
            _parse_config(text)
        except ValueError:
            pass

    def test_input_len_defaults_to_four(self):
        """A config without input_len gives a non-lookup family the prompts of input_len=4."""
        from cotlearn.cli import _experiment_dist
        from cotlearn.learning import BitStringPrompts

        for family in ("tm:S=2", "linthresh:d=2", "sparse:d=3,k=1"):
            fam = parse_family_spec(family)
            assert _experiment_dist(fam, None) == _experiment_dist(fam, 4), family
        assert _experiment_dist(parse_family_spec("linthresh:d=2"), None) == BitStringPrompts(1, 4)

    def test_tm_family_grid(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, family="tm:S=2", t=5, sizes="2,6", trials=2, input_len=3)
        assert main(["experiment", str(cfg)]) == 0
        with open(tmp_path / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
        # input_len=0 leaves a machine the empty input alone
        _write_config(cfg, family="tm:S=2", t=5, sizes="2", trials=1, input_len=0)
        assert main(["experiment", str(cfg)]) == 0
        with open(tmp_path / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 and rows[-1]["status"] == "ok"

    def test_seed_option_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", str(cfg), "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_guard_refused_trials_are_failed_rows(self, tmp_path, capsys):
        """Answer-only learning on tm:S=2 would scan 2,985,984 tables: every
        trial is refused by the member guard and written as a failed row."""
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, family="tm:S=2", mode="e2e", t=2, sizes="1,2", trials=2, input_len=1)
        assert main(["experiment", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines() == ["m=1: no successful trials", "m=2: no successful trials"]
        rows = _timeless_rows(tmp_path / "rows.csv")
        assert len(rows) == 4
        assert all((r["status"], r["error"], r["error_frac"]) == ("failed:GuardExceededError", "", "") for r in rows)

    @pytest.mark.parametrize("family", ["linthresh:d=2", "sparse:d=3,k=1"])
    def test_threshold_rows_are_direct_trials(self, tmp_path, capsys, family):
        """Each row of a threshold grid is ``pac_trial`` on prompts of 1 to
        input_len bits, with the row's seed and its seeded target."""
        from cotlearn.learning import BitStringPrompts, pac_trial, trial_seed
        from cotlearn.lbfamilies import parse_family_spec

        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, family=family, t=3, sizes="0,2", trials=2, input_len=3)
        assert main(["experiment", str(cfg)]) == 0
        rows = _timeless_rows(tmp_path / "rows.csv")
        fam = parse_family_spec(family)
        expected = []
        for index, (m, trial) in enumerate([(0, 0), (0, 1), (2, 0), (2, 1)]):
            seed = trial_seed(5, index)
            f_star = fam.random_member(random.Random(seed ^ 0xA5A5A5A5))
            error = pac_trial(fam, f_star, BitStringPrompts(1, 3), m, 3, "cot", 50, seed).error
            expected.append({
                "family": family, "mode": "cot", "T": "3", "m": str(m), "trial": str(trial), "seed": str(seed),
                "error": f"{float(error):.6f}", "error_frac": f"{error.numerator}/{error.denominator}", "status": "ok",
            })
        assert rows == expected
        assert any(r["error"] != "0.000000" for r in rows)

    def test_worker_pool_matches_serial(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, out=str(tmp_path / "serial.csv"))
        assert main(["experiment", str(cfg)]) == 0
        monkeypatch.setenv("COTLEARN_WORKERS", "2")
        _write_config(cfg, out=str(tmp_path / "pooled.csv"))
        assert main(["experiment", str(cfg)]) == 0

        assert _timeless_rows(tmp_path / "serial.csv") == _timeless_rows(tmp_path / "pooled.csv")

    @pytest.mark.parametrize("workers", ["abc", "2.5", "0", "-3", ""])
    def test_rejects_worker_count_that_is_not_positive(self, tmp_path, capsys, monkeypatch, workers):
        from cotlearn import cli

        def no_trial(*args):
            raise AssertionError("a trial ran before COTLEARN_WORKERS was refused")

        monkeypatch.setattr(cli, "pac_trial", no_trial)
        monkeypatch.setenv("COTLEARN_WORKERS", workers)
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg)
        assert main(["experiment", str(cfg)]) == 2
        assert_one_error_line(capsys, "COTLEARN_WORKERS")
        assert not (tmp_path / "rows.csv").exists()

    def test_one_worker_runs_serially(self, tmp_path, capsys, monkeypatch):
        """COTLEARN_WORKERS=1, like leaving it unset, starts no pool."""
        from cotlearn import cli

        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("COTLEARN_WORKERS", "1")
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg)
        assert main(["experiment", str(cfg)]) == 0
        assert len(_timeless_rows(tmp_path / "rows.csv")) == 9

    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2), (None, 1)])
    def test_worker_count_is_capped(self, tmp_path, capsys, monkeypatch, cpus, expected):
        """A huge COTLEARN_WORKERS asks for at most min(jobs, CPUs) processes."""
        import os

        from cotlearn import cli

        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = tmp_path / "exp.cfg"
        _write_config(cfg, sizes="1,2,4", trials=1, out=str(tmp_path / "serial.csv"))
        assert main(["experiment", str(cfg)]) == 0
        monkeypatch.setenv("COTLEARN_WORKERS", str(10**9))
        _write_config(cfg, sizes="1,2,4", trials=1, out=str(tmp_path / "capped.csv"))
        assert main(["experiment", str(cfg)]) == 0
        assert pools == ([expected] if expected > 1 else [])

        assert _timeless_rows(tmp_path / "serial.csv") == _timeless_rows(tmp_path / "capped.csv")

    def test_learn_sparse_family(self, tmp_path, capsys):
        from cotlearn.linthresh import SparseLinearThreshold
        from fractions import Fraction

        target = SparseLinearThreshold(6, 1, (4,), (Fraction(1),), Fraction(-1, 2))
        prompts = ([1, 0, 1, 0, 1, 1], [0, 0, 0, 1, 0, 0], [1, 1, 1, 1, 1, 1])
        from cotlearn.seqcore import BINARY

        data = CoTDataset(tuple(cot(target, BINARY.seq(p), 4) for p in prompts), 4)
        data_path = tmp_path / "cots.txt"
        save_cot_dataset(data_path, data)
        assert main(["learn", "--family", "sparse:d=6,k=1", "--mode", "cot", "--T", "4",
                     "--data", str(data_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("6 ")


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cotlearn.cli", "vcdim", "--family", "e1:D=1,T=2", "--mode", "e2e"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "2"


def test_learn_cot_fits_zero_answers_after_conflicting_continuations(tmp_path):
    """Point 1 of e1:D=3,T=8, once followed by 1 and once by 0, answered 0
    both times: the all-zero member fits both, although 2^24 members are
    far above the enumeration guard."""
    data = tmp_path / "records.txt"
    data.write_text("1,0,0,0,0,0,1,0\n1,0,0,0,0,0,0,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cotlearn.cli", "learn", "--family", "e1:D=3,T=8", "--mode", "cot",
         "--T", "1", "--data", str(data)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "b=" + "0" * 24


@pytest.mark.parametrize("pairs, index", [
    ("0\t0\n1,0,0,0,0,0\t1\n", 0),
    ("1,0\t1\n", 9),
], ids=["all-zero-prompt", "partial-point"])
def test_learn_e2e_reads_prompts_that_are_not_points(tmp_path, pairs, index):
    """Answers of e1:D=3,T=8 at T = 8 on prompts that are not a point plus a
    continuation. An all-zero prompt answers 0 under every member. On 1,0
    four emitted zeros complete point 1, and the answer replays b at
    _replay_index(1, 3) = 9. Neither pins more than one bit, so the search
    answers although 2^24 members are far above the enumeration guard."""
    data = tmp_path / "pairs.tsv"
    data.write_text(pairs)
    proc = subprocess.run(
        [sys.executable, "-m", "cotlearn.cli", "learn", "--family", "e1:D=3,T=8", "--mode", "e2e",
         "--data", str(data)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "b=" + "".join("1" if j == index else "0" for j in range(24))


def test_learn_e2e_solves_label_zero_pairs_after_a_continuation(tmp_path):
    """The zero fill of e1:D=3,T=8 at T = 2 replays the second prompt's
    continuation and answers 1 there; the search counts the bits that pair
    reads upward and returns the member with bits 1 and 4 set, although
    2^24 members are far above the enumeration guard."""
    data = tmp_path / "pairs.tsv"
    data.write_text("1,0,0,0,0,1\t1\n1,0,0,1,0,0,0,1,0,0,0,0\t0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cotlearn.cli", "learn", "--family", "e1:D=3,T=8", "--mode", "e2e",
         "--T", "2", "--data", str(data)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "b=010010000000000000000000"


_HUGE_T = 100000000


@pytest.mark.parametrize("argv, content", [
    (["generate", "{}", "--kind", "threshold", "--prompt", "1", "--T", str(_HUGE_T)], "2 -2 1 1\n"),
    (["simulate-tm", "{}", "--input", "0"], format_tm(ALWAYS_ONE).replace("1 2", f"1 {_HUGE_T}", 1)),
    (["vcdim", "--family", "e1:D=2,T=2", "--mode", "e2e", "--T", str(_HUGE_T)], None),
], ids=["generate", "simulate-tm", "vcdim"])
def test_huge_horizon_exits_two_with_one_error_line(tmp_path, argv, content):
    """A horizon above GENERATION_MAX_T is refused before its tokens are
    held: exit 2 and one "error:" line, even under a 400 MB address-space
    cap, where building the generation would end in a MemoryError."""
    import resource

    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content)
    cap = 400 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "cotlearn.cli", *(str(path) if a == "{}" else a for a in argv)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in proc.stderr, proc.stderr


# A good input file for each file-reading command, and the command line
# that reads it ("{}" stands for the file).
_E1 = E1Family(1, 2)
_CONTRACT = {
    "generate-tm": (["generate", "{}", "--kind", "tm", "--input", "0", "--T", "1"], format_tm(ALWAYS_ONE)),
    "generate-threshold": (["generate", "{}", "--kind", "threshold", "--prompt", "1", "--T", "1"], "2 -2 1 1\n"),
    # prompts start with a zero, so half the first line ends in a comma: half
    # of "1,0,1,1" would be "1,0", a well-formed record with the empty prompt
    "learn-cot": (
        ["learn", "--family", "e1:D=1,T=2", "--mode", "cot", "--data", "{}"],
        "".join(cot(_E1.member(1), _E1.alphabet.seq((0, *x)), 2).render() + "\n" for x in _E1.canonical_points()),
    ),
    "learn-e2e": (
        ["learn", "--family", "e1:D=1,T=2", "--mode", "e2e", "--data", "{}"],
        "".join(f"{x.render()}\t{e2e(_E1.member(1), x, 2)}\n" for x in _E1.canonical_points()),
    ),
    "compile-circuit": (["compile-circuit", "{}"], format_circuit(random_normalized_circuit(random.Random(1), 2, 2, 1))),
    "compile-circuit-compiled": (["compile-circuit", "{circuit}", "--compiled", "{}"], None),
    "simulate-tm": (["simulate-tm", "{}", "--input", "0"], format_tm(ALWAYS_ONE)),
    "experiment": (["experiment", "{}"], None),
}


@pytest.mark.parametrize("command", sorted(_CONTRACT))
def test_malformed_input_file_exits_two_with_one_error_line(tmp_path, capsys, command):
    """Run as a process, each file-reading command turns a missing file, a
    directory, non-UTF-8 bytes, an empty file or a truncated header into
    exit 2 and one "error:" line on stderr, never a traceback."""
    argv, good = _CONTRACT[command]
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(_CONTRACT["compile-circuit"][1])
    good_path = tmp_path / "good"
    if command == "experiment":
        _write_config(good_path, sizes="1", trials=1)
    elif command == "compile-circuit-compiled":
        assert main(["compile-circuit", str(circuit), "--out", str(good_path)]) == 0
    else:
        good_path.write_text(good)

    def fill(path):
        return [str(path) if a == "{}" else str(circuit) if a == "{circuit}" else a for a in argv]

    assert main(fill(good_path)) == 0, capsys.readouterr().err
    first_line = good_path.read_text().splitlines()[0]
    bad = {
        "missing": None,
        "directory": "dir",
        "non-utf-8": b"\xff\xfe\x80 1\n",
        "empty": b"",
        "truncated-header": first_line[: len(first_line) // 2].encode(),
    }
    for name, content in bad.items():
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
    env = _src_env()
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "cotlearn.cli", *fill(tmp_path / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
        )
        for name in bad
    }
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        lines = err.strip().splitlines()
        assert proc.returncode == 2, (name, proc.returncode, err)
        assert len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err, (name, err)


# A number that is no integer in a file-reading command's input, as
# (command, good text, its replacement, what the error names).
_NON_INTEGER_FIELDS = [
    ("generate-tm", "1 2\n", "1 x\n", ("machine header '1 x'", "got 'x'")),
    ("generate-tm", "1 _ -> 1 1 +1", "1 _ -> 1 1 x", ("transition line '1 _ -> 1 1 x'", "got 'x'")),
    ("generate-tm", "1 0 -> 1 1", "one 0 -> 1 1", ("transition line 'one 0 -> 1 1 +1'", "got 'one'")),
    ("generate-threshold", "2 -2", "x -2", ("threshold dimension d", "got 'x'")),
    ("compile-circuit", "2 2 1\n", "2 2 one\n", ("circuit header '2 2 one'", "got 'one'")),
    ("compile-circuit", "1 2 :", "1 two :", ("gate line '1 two : -2 0'", "got 'two'")),
    ("compile-circuit-compiled", "9 0 0", "nine 0 0", ("threshold dimension d", "got 'nine'")),
]


@pytest.mark.parametrize("command, good, bad, names", _NON_INTEGER_FIELDS)
def test_non_integer_in_a_file_is_named(tmp_path, capsys, command, good, bad, names):
    """Exit 2 and one "error:" line that names the file line and the text."""
    argv, text = _CONTRACT[command]
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(_CONTRACT["compile-circuit"][1])
    path = tmp_path / "input.txt"
    if command == "compile-circuit-compiled":
        assert main(["compile-circuit", str(circuit), "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
    assert text.count(good) == 1
    path.write_text(text.replace(good, bad))
    assert main([str(path) if a == "{}" else str(circuit) if a == "{circuit}" else a for a in argv]) == 2
    assert_one_error_line(capsys, *names)


def test_library_fault_exits_one_with_one_error_line(tmp_path, capsys, monkeypatch):
    """A result that fails the library's own post-verification is an
    internal fault: exit 1 and one "error:" line, not a traceback."""
    from cotlearn import linthresh

    path = tmp_path / "cots.txt"
    path.write_text("1,0\n")
    monkeypatch.setattr(linthresh, "solve_feasibility", lambda constraints, num_vars: (Fraction(0),) * num_vars)
    assert main(["learn", "--family", "linthresh:d=2", "--mode", "cot", "--T", "1", "--data", str(path)]) == 1
    assert assert_one_error_line(capsys, "internal fault", "LP solution failed post-verification") == ""


# A bad line in a dataset file, as (mode, text, what the error names
# after the file and line).
_BAD_DATASET_LINES = [
    ("cot", "0,1,1\n0,x,1\n", ("line 2: ", "unknown token 'x'")),
    ("cot", "0,1,1\n\n1\n", ("line 3: ", "record of length 1 cannot carry 2 generated tokens")),
    ("e2e", "0,1\t1\n0\t2\n", ("line 2, label: ", "unknown token '2'")),
    ("e2e", "0,1\t1\n0,y\t1\n", ("line 2: ", "unknown token 'y'")),
    ("e2e", "0,1 1\n", ("line 1: ", "expected 'sequence<TAB>label'")),
]


@pytest.mark.parametrize("mode, text, names", _BAD_DATASET_LINES)
def test_bad_dataset_line_is_named(tmp_path, capsys, mode, text, names):
    path = tmp_path / "data.txt"
    path.write_text(text)
    assert main(["learn", "--family", "linthresh:d=2", "--mode", mode, "--T", "2", "--data", str(path)]) == 2
    assert_one_error_line(capsys, f"{path}, ", *names)


@pytest.mark.parametrize("command", ["generate-tm", "generate-threshold", "simulate-tm"])
def test_mutated_input_file_exits_with_a_code(tmp_path, capsys, command):
    """Seeded mutations of a good input file (characters deleted, inserted
    or copied): no exception escapes ``main``, every run exits 0, 1 or 2,
    and exit 2 prints exactly one "error:" line."""
    argv, good = _CONTRACT[command]
    path = tmp_path / "input.txt"
    argv = [str(path) if a == "{}" else a for a in argv]
    rng = random.Random(command)
    codes = set()
    for _ in range(200):
        text = list(good)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                del text[i:i + rng.randint(1, 3)]
            elif op == 1:
                text.insert(i, rng.choice("0123456789_+-:>x/. \t\n"))
            else:
                j = rng.randrange(len(text) + 1)
                text[i:i] = text[j:j + rng.randint(1, 6)]
        path.write_text("".join(text))
        code = main(argv)
        codes.add(code)
        err = capsys.readouterr().err.strip().splitlines()
        assert code in (0, 1, 2), ("".join(text), code)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error:"), ("".join(text), err)
    assert {0, 2} <= codes
