"""Each input refusal of the library, reached once, with its message.

One row per ``raise ValueError`` that no other test reaches for certain
(a hypothesis test may hit one by chance); a refusal that stops firing,
or fires with another message, fails its row.
"""

import re

import pytest
from reference_seqcore import ConstantGenerator

from cotlearn import cli
from cotlearn.attention import AttentionBatch
from cotlearn.circomp import ThresholdCircuit, feature_map
from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily, growth_count, vcdim_bruteforce
from cotlearn.learning import BitStringPrompts, CoTDataset, E2EDataset, FiniteUniformPrompts, pac_trial
from cotlearn.linthresh import SparseLinearThreshold, cons_lp, cons_sparse
from cotlearn.seqcore import BINARY, Alphabet
from cotlearn.simplex import solve_feasibility
from cotlearn.turing import TMFamily, TMSpec, cons_tm, pre, simulate_tm, tm_alphabet

AB = Alphabet(("a", "b"))
ONE_STATE = TMSpec(1, 1, ((1, 1, 1),) * 3)
BOGUS_MODE = "family=e1:D=2,T=2\nmode=bogus\nt=2\nsizes=1\ntrials=1\nseed=0\nout=rows.csv\n"


def trial(m=1, mode="cot"):
    return pac_trial(E1Family(1, 2), ConstantGenerator(BINARY, 0), BitStringPrompts(1, 2), m, 2, mode, 1, 0)


REFUSALS = {
    "value-width": (lambda: AttentionBatch(((1,), (1,)), ((1,), (1,)), ((1,), (1, 2))), "value width must be uniform"),
    "circuit-shape": (lambda: ThresholdCircuit(0, ()), "circuit needs at least one input and one gate per layer"),
    "circuit-input": (lambda: feature_map([2], 1), "inputs are bits"),
    "lookup-label": (lambda: E1Family(1, 2).find_e2e_consistent([(BINARY.seq([0]), 2)], 1), "family data must be binary"),
    "lookup-bits": (lambda: E1Family(1, 2).from_bits((1, 2)), "E1Family member needs a tuple of 2 bits"),
    "e1-shape": (lambda: E1Family(1, 0), "need D >= 1 and T >= 1"),
    "ldim-D": (lambda: LdimFamily(0), "need 1 <= D <= "),
    "collapse-D": (lambda: CollapseFamily(0), "need 1 <= D <= "),
    "e2e-without-T": (lambda: growth_count(E1Family(1, 2), [], "e2e"), "e2e mode needs a generation length T"),
    "unknown-mode": (lambda: growth_count(E1Family(1, 2), [], "both"), "unknown mode 'both'"),
    "cot-without-T": (lambda: growth_count(E1Family(1, 2), [], "cot"), "cot mode needs a generation length T"),
    "cot-short-record": (
        lambda: growth_count(E1Family(1, 2), [BINARY.seq([1])], "cot", 2),
        "record of length 1 cannot carry 2 generated tokens",
    ),
    "non-bit-labels": (
        lambda: vcdim_bruteforce(TMFamily(1), [pre([0], 1)]),
        "brute-force dimensions assume binary outputs",
    ),
    "mixed-alphabets": (lambda: CoTDataset((BINARY.seq([0, 1]), AB.seq([0, 1])), 1), "all records must share one alphabet"),
    "no-prompts": (lambda: FiniteUniformPrompts(()), "need at least one prompt"),
    "prompt-lengths": (lambda: BitStringPrompts(2, 1), "need 0 <= min_len <= max_len"),
    "trial-mode": (lambda: trial(mode="answers"), "mode must be 'cot' or 'e2e'"),
    "trial-m": (lambda: trial(m=-1), "need m >= 0 and eval_n >= 1"),
    "sparse-budget": (
        lambda: SparseLinearThreshold(3, 1, (1, 2), (1, 1), 0),
        "support exceeds sparsity budget or misaligns with weights",
    ),
    "sparse-offset": (lambda: SparseLinearThreshold(3, 1, (4,), (1,), 0), "support offsets must lie within the window"),
    "lp-prefix": (lambda: cons_lp([(AB.seq([0]), 1)], 1), "LP consistency needs binary prefixes and labels"),
    "lp-label": (lambda: cons_lp([(BINARY.seq([0]), 2)], 1), "LP consistency needs binary prefixes and labels"),
    "lp-window": (lambda: cons_lp([], -1), "window length must be nonnegative"),
    "sparse-k": (lambda: cons_sparse([], 2, 3), "need 0 <= k <= d"),
    "simplex-arity": (lambda: solve_feasibility([([1, 2], "<=", 0)], 1), "constraint arity does not match num_vars"),
    "simplex-sense": (lambda: solve_feasibility([([1], "==", 0)], 1), "unknown sense '=='"),
    "alphabet-states": (lambda: tm_alphabet(0), "need at least one state"),
    "spec-states": (lambda: TMSpec(0, 1, ()), "need S >= 1"),
    "spec-table": (lambda: TMSpec(1, 1, ()), "transition table must have 3 entries"),
    "simulate-input": (lambda: simulate_tm(ONE_STATE, [2]), "machine input must be bits"),
    "prompt-input": (lambda: pre([2], 1), "machine input must be bits"),
    "tm-label-negative": (lambda: cons_tm([(pre([1], 1), -4)], 1), "label outside the alphabet"),
    "tm-label-past-end": (lambda: cons_tm([(pre([1], 1), 9)], 1), "label outside the alphabet"),
    "e2e-label-fraction": (lambda: E2EDataset(((BINARY.seq([1, 0]), 0.5),), 2), "label outside the alphabet"),
    "cli-input-bits": (lambda: cli._parse_bits("012"), "input must be a bit string, got '012'"),
    "cli-experiment-mode": (lambda: cli._parse_config(BOGUS_MODE), "mode must be cot or e2e"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
