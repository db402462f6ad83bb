"""Time-invariant autoregressive chain-of-thought generation and learning."""

from .attention import read_tape_attention_all, tape_view_table
from .lbfamilies import growth_count
from .seqcore import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    Generator,
    GeneratorFamily,
    GuardExceededError,
    NotRealizableError,
    TokenSeq,
    cot,
    cot_time_dependent,
    e2e,
)

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "BINARY",
    "Generator",
    "GeneratorFamily",
    "GuardExceededError",
    "NotRealizableError",
    "TokenSeq",
    "cot",
    "cot_time_dependent",
    "e2e",
    "growth_count",
    "read_tape_attention_all",
    "tape_view_table",
]
