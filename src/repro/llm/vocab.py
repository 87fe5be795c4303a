"""Token vocabulary with reserved special tokens.

The synthetic tasks use small vocabularies (tens to a few hundred tokens).
Three ids are reserved at the bottom of the range:

* ``PAD`` (0) — left-padding for the fixed context window and batch padding,
* ``BOS`` (1) — beginning-of-sequence marker prepended to every prompt,
* ``EOS`` (2) — end-of-sequence; generation stops when the model emits it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import VocabularyError

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
NUM_SPECIAL_TOKENS = 3


@dataclass(frozen=True)
class Vocabulary:
    """A fixed-size token vocabulary.

    Attributes:
        size: total number of token ids, including the three special tokens.
    """

    size: int = 64

    def __post_init__(self) -> None:
        if self.size <= NUM_SPECIAL_TOKENS:
            raise VocabularyError(
                f"vocabulary size must exceed {NUM_SPECIAL_TOKENS} "
                f"(pad/bos/eos), got {self.size}"
            )

    @property
    def num_regular(self) -> int:
        """Number of non-special token ids."""
        return self.size - NUM_SPECIAL_TOKENS

    def random_regular_tokens(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Sample ``count`` uniform non-special token ids."""
        if count < 0:
            raise VocabularyError(f"count must be non-negative, got {count}")
        return rng.integers(NUM_SPECIAL_TOKENS, self.size, size=count)
