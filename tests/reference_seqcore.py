"""A generator that keeps ``Generator``'s reference ``generate`` and ``answer``.

``ConstantGenerator`` defines only ``next_token``, so every chain it makes
runs the base class's defaults: one full-history ``next_token`` call per
token, and the answer as the checked chain's last token. Tests use it as
the plainest member of a generator class and as the fixture for those
defaults; a token outside the alphabet makes it a faulty generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from cotlearn.seqcore import Alphabet, Generator, TokenSeq, _check_alphabet


@dataclass(frozen=True)
class ConstantGenerator(Generator):
    """Emits the same token regardless of the input."""

    alphabet: Alphabet
    token: int

    def next_token(self, x: TokenSeq) -> int:
        _check_alphabet(self, x)
        return self.token
