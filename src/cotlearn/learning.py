"""Datasets, consistency learning rules, and the PAC trial harness.

Two supervision regimes share one evaluation target, the T-step answer.
Full-generation supervision reduces to a single next-token consistency
call: each length-(|x|+T) record holds T (prefix, next token) pairs, the
answer pairs at horizon 1, and any generator consistent with all of them
reproduces every record end to end. The oracle reads them as cuts of the
records (``PrefixCuts``); ``prefix_expand`` lists the same pairs as copies.
Answer-only supervision searches the family for a member whose T-step
answers match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .seqcore import (
    BINARY,
    Alphabet,
    Generator,
    GeneratorFamily,
    NotRealizableError,
    OraclePairs,
    PrefixCuts,
    TokenSeq,
    check_horizon,
    check_record,
    cot,
    e2e,
)

EXACT_EVAL_SUPPORT = 4096


@dataclass(frozen=True)
class E2EDataset:
    """(prompt, final answer) pairs for a declared generation length."""

    pairs: tuple[tuple[TokenSeq, int], ...]
    T: int

    def __post_init__(self):
        check_horizon(self.T)
        if not self.pairs:
            return
        alphabet = self.alphabet
        ids = alphabet._ids
        for x, y in self.pairs:
            if x.alphabet is not alphabet and x.alphabet != alphabet:
                raise ValueError("all prompts must share one alphabet")
            if y not in ids:
                raise ValueError("label outside the alphabet")

    @property
    def alphabet(self) -> Alphabet:
        if not self.pairs:
            raise ValueError("empty dataset has no alphabet")
        return self.pairs[0][0].alphabet

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CoTDataset:
    """Full generation records; record i is the prompt followed by its T outputs.

    A record of length exactly T has the empty prompt.
    """

    seqs: tuple[TokenSeq, ...]
    T: int

    def __post_init__(self):
        check_horizon(self.T)
        for z in self.seqs:
            check_record(z, self.T)
            if z.alphabet != self.seqs[0].alphabet:
                raise ValueError("all records must share one alphabet")

    def __len__(self) -> int:
        return len(self.seqs)

    def prompt(self, i: int) -> TokenSeq:
        z = self.seqs[i]
        return TokenSeq(z.alphabet, z.tokens[:len(z.tokens) - self.T])


def prefix_expand(dataset: CoTDataset) -> E2EDataset:
    """Expand each record into its T (prefix, next token) pairs: answer pairs at horizon 1.

    For a record z and each t = 1..T the pair is (z without its last t
    tokens, the t-th token from the end), so the output has exactly
    len(dataset) * T pairs. The reference expansion: each prefix is its
    own copy, so a record of length n costs n(n+1)/2 token references;
    ``cons_cot`` reads the same pairs in place through ``PrefixCuts``.
    """
    pairs = []
    for z in dataset.seqs:
        alphabet, toks = z.alphabet, z.tokens
        n = len(toks)
        for t in range(1, dataset.T + 1):
            pairs.append((TokenSeq(alphabet, toks[:n - t]), toks[n - t]))
    return E2EDataset(tuple(pairs), 1)


# An oracle receives cuts, read through ``seqcore.cuts``: ``cons_cot`` passes a ``PrefixCuts`` view.
ConsistencyOracle = Callable[[OraclePairs], Generator]


def cons_cot(dataset: CoTDataset, oracle: ConsistencyOracle) -> Generator:
    """Generator whose full T-step generations reproduce every record.

    Runs the family's next-token consistency procedure on the records'
    cuts, ``PrefixCuts(dataset.seqs, dataset.T)``: the pairs of
    ``prefix_expand`` in its order, with no prefix copied. Then re-verifies
    the returned generator against each record in full.
    """
    f = oracle(PrefixCuts(dataset.seqs, dataset.T))
    for i, z in enumerate(dataset.seqs):
        if cot(f, dataset.prompt(i), dataset.T).tokens != z.tokens:
            raise NotRealizableError(
                f"oracle returned a generator that fails to reproduce record {i}"
            )
    return f


def cons_e2e(dataset: E2EDataset, family: GeneratorFamily) -> Generator:
    """First family member (canonical order) matching every final answer."""
    if not dataset.pairs:
        return family.default_member()
    f = family.find_e2e_consistent(dataset.pairs, dataset.T)
    if f is None:
        raise NotRealizableError("no family member matches all the final answers")
    return f


def zero_one_error(h: Callable[[TokenSeq], int], eval_set: E2EDataset) -> Fraction:
    """Fraction of evaluation pairs the predictor gets wrong."""
    if not eval_set.pairs:
        raise ValueError("cannot score on an empty evaluation set")
    wrong = sum(1 for x, y in eval_set.pairs if h(x) != y)
    return Fraction(wrong, len(eval_set.pairs))


def e2e_predictor(f: Generator, T: int) -> Callable[[TokenSeq], int]:
    return lambda x: e2e(f, x, T)


class PromptDist:
    """A sampleable prompt distribution; uniform over ``support()`` when finite."""

    def sample(self, rng: random.Random) -> TokenSeq:
        raise NotImplementedError

    def support(self) -> tuple[TokenSeq, ...] | None:
        """All prompts when the distribution is uniform over an enumerable set."""
        return None


@dataclass(frozen=True)
class FiniteUniformPrompts(PromptDist):
    points: tuple[TokenSeq, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one prompt")

    def sample(self, rng: random.Random) -> TokenSeq:
        return self.points[rng.randrange(len(self.points))]

    def support(self) -> tuple[TokenSeq, ...]:
        return self.points


@dataclass(frozen=True)
class BitStringPrompts(PromptDist):
    """Uniform over binary strings with lengths in [min_len, max_len].

    The strings of length n are the integers in [2^n, 2^(n+1)) without
    their leading 1, so one integer drawn from [2^min_len, 2^(max_len+1))
    is one uniform string, and the support walks the same range. The
    support is reported only when small enough for exact evaluation.
    """

    min_len: int
    max_len: int

    def __post_init__(self):
        if not 0 <= self.min_len <= self.max_len:
            raise ValueError("need 0 <= min_len <= max_len")

    def sample(self, rng: random.Random) -> TokenSeq:
        return _strip_leading_one(rng.randrange(1 << self.min_len, 2 << self.max_len))

    def support(self) -> tuple[TokenSeq, ...] | None:
        lo, hi = 1 << self.min_len, 2 << self.max_len
        if hi - lo > EXACT_EVAL_SUPPORT:
            return None
        return tuple(map(_strip_leading_one, range(lo, hi)))


def _strip_leading_one(k: int) -> TokenSeq:
    """The bits of ``k`` after its leading 1."""
    return BINARY.seq(map(int, bin(k)[3:]))


@dataclass(frozen=True)
class PacTrialResult:
    error: Fraction
    m: int
    mode: str
    learned: Generator
    exact_eval: bool


def trial_seed(experiment_seed: int, trial_index: int) -> int:
    """Stable 64-bit per-trial seed so result rows are reproducible."""
    x = (experiment_seed * 0x9E3779B97F4A7C15 + trial_index * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x ^= x >> 31
    return x


class LabelledSupport:
    """f_star's T-step records and answers, each generated at most once per prompt.

    ``record(x)`` is ``cot(f_star, x, T)`` and also stores its last token
    as the answer; ``answer(x)`` returns that, or runs ``e2e`` once. One
    instance can serve every trial on the same ``(f_star, T)``, such as a
    sweep over the sample size m, and keeps every prompt it is asked about.
    """

    def __init__(self, f_star: Generator, T: int):
        check_horizon(T)
        self.f_star = f_star
        self.T = T
        self._answers: dict[TokenSeq, int] = {}
        self._records: dict[TokenSeq, TokenSeq] = {}

    def record(self, x: TokenSeq) -> TokenSeq:
        z = self._records.get(x)
        if z is None:
            z = self._records[x] = cot(self.f_star, x, self.T)
            self._answers[x] = z.tokens[-1]
        return z

    def answer(self, x: TokenSeq) -> int:
        y = self._answers.get(x)
        if y is None:
            y = self._answers[x] = e2e(self.f_star, x, self.T)
        return y


def pac_trial(
    family: GeneratorFamily,
    f_star: Generator,
    input_dist: PromptDist,
    m: int,
    T: int,
    mode: str,
    eval_n: int,
    seed: int,
    labels: LabelledSupport | None = None,
) -> PacTrialResult:
    """One learning trial: sample m prompts, learn, score held out.

    A consistency learner's output depends only on the set of distinct
    examples, so the learner sees each distinct sampled prompt once, in
    first-draw order. The error is exact (full support average, repeated
    support points weighted) when the distribution exposes a support of
    at most 4096 prompts, otherwise a Monte Carlo estimate on eval_n fresh
    prompts. f_star's records and answers come from ``labels``, built
    here when not given. A fixed seed fixes the output.
    """
    if mode not in ("cot", "e2e"):
        raise ValueError("mode must be 'cot' or 'e2e'")
    if m < 0 or eval_n < 1:
        raise ValueError("need m >= 0 and eval_n >= 1")
    if labels is None:
        labels = LabelledSupport(f_star, T)
    elif labels.f_star != f_star or labels.T != T:
        raise ValueError("labels were built for another f_star or T")
    rng = random.Random(seed)
    distinct = tuple(dict.fromkeys([input_dist.sample(rng) for _ in range(m)]))

    if mode == "cot":
        oracle = family.cons_oracle()
        learned = cons_cot(CoTDataset(tuple(map(labels.record, distinct)), T), oracle)
    else:
        pairs = tuple((x, labels.answer(x)) for x in distinct)
        learned = cons_e2e(E2EDataset(pairs, T), family)

    support = input_dist.support()
    exact = support is not None and len(support) <= EXACT_EVAL_SUPPORT
    eval_prompts = support if exact else [input_dist.sample(rng) for _ in range(eval_n)]
    eval_pairs = tuple((x, labels.answer(x)) for x in eval_prompts)
    err = zero_one_error(e2e_predictor(learned, T), E2EDataset(eval_pairs, T))
    return PacTrialResult(error=err, m=m, mode=mode, learned=learned, exact_eval=exact)


def _dataset_lines(path: str) -> Iterator[tuple[str, str]]:
    """Each nonblank line of a dataset file, after the "file, line n" that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                yield f"{path}, line {number}", line.rstrip("\n")


def _parse_at(where: str, parse, text: str):
    """``parse(text)``, or its ValueError led by ``where``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_cot_dataset(path: str, alphabet: Alphabet, T: int) -> CoTDataset:
    """One comma-separated record per line."""
    def record(line: str) -> TokenSeq:
        z = alphabet.parse_seq(line)
        check_record(z, T)
        return z

    seqs = [_parse_at(where, record, line) for where, line in _dataset_lines(path)]
    return CoTDataset(tuple(seqs), T)


def load_e2e_dataset(path: str, alphabet: Alphabet, T: int) -> E2EDataset:
    """One "sequence<TAB>label" pair per line."""
    pairs = []
    for where, line in _dataset_lines(path):
        try:
            seq_text, label_text = line.split("\t")
        except ValueError:
            raise ValueError(f"{where}: expected 'sequence<TAB>label', got {line!r}") from None
        x = _parse_at(where, alphabet.parse_seq, seq_text)
        pairs.append((x, _parse_at(f"{where}, label", alphabet.index, label_text.strip())))
    return E2EDataset(tuple(pairs), T)


def save_cot_dataset(path: str, dataset: CoTDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for z in dataset.seqs:
            fh.write(z.render() + "\n")


def save_e2e_dataset(path: str, dataset: E2EDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in dataset.pairs:
            fh.write(f"{x.render()}\t{x.alphabet.render(y)}\n")
