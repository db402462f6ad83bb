"""Reference learning trial: the ``pac_trial`` that ``cotlearn.learning``
used before a trial learned from each distinct sampled prompt once.

Kept unchanged as a test oracle. It generates ``cot(f_star, x, T)`` once
per draw, hands every duplicate record to the learner, and labels the
evaluation prompts with a fresh ``e2e`` each.
"""

from __future__ import annotations

import random

from cotlearn.learning import (
    EXACT_EVAL_SUPPORT,
    CoTDataset,
    E2EDataset,
    PacTrialResult,
    PromptDist,
    cons_cot,
    cons_e2e,
    e2e_predictor,
    zero_one_error,
)
from cotlearn.seqcore import Generator, GeneratorFamily, cot, e2e


def pac_trial(
    family: GeneratorFamily,
    f_star: Generator,
    input_dist: PromptDist,
    m: int,
    T: int,
    mode: str,
    eval_n: int,
    seed: int,
) -> PacTrialResult:
    """One learning trial: sample m prompts, learn, score held out.

    The error is exact (full support average) when the distribution
    exposes a support of at most 4096 prompts, otherwise a Monte Carlo
    estimate on eval_n fresh prompts. A fixed seed fixes the output.
    """
    if mode not in ("cot", "e2e"):
        raise ValueError("mode must be 'cot' or 'e2e'")
    if m < 0 or eval_n < 1:
        raise ValueError("need m >= 0 and eval_n >= 1")
    rng = random.Random(seed)
    prompts = [input_dist.sample(rng) for _ in range(m)]

    if mode == "cot":
        oracle = family.cons_oracle()
        if oracle is None:
            raise ValueError("family offers no next-token consistency oracle")
        data = CoTDataset(tuple(cot(f_star, x, T) for x in prompts), T)
        learned = cons_cot(data, oracle)
    else:
        pairs = tuple((x, e2e(f_star, x, T)) for x in prompts)
        learned = cons_e2e(E2EDataset(pairs, T), family)

    support = input_dist.support()
    if support is not None and len(support) <= EXACT_EVAL_SUPPORT:
        eval_pairs = tuple((x, e2e(f_star, x, T)) for x in support)
        exact = True
    else:
        eval_pairs = tuple(
            (x, e2e(f_star, x, T)) for x in (input_dist.sample(rng) for _ in range(eval_n))
        )
        exact = False
    err = zero_one_error(e2e_predictor(learned, T), E2EDataset(eval_pairs, T))
    return PacTrialResult(error=err, m=m, mode=mode, learned=learned, exact_eval=exact)
