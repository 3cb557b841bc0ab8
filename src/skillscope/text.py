"""Tokenization shared by cleansing, lexicon matching and topic modeling.

A token is a case-folded run of alphanumerics, optionally joined by
intra-word hyphens ("scikit-learn", "human-in-the-loop") and optionally
carrying trailing '+' or '#' ("c++", "c#"). One tokenizer is used everywhere
so lexicon phrases and document text always segment identically.
"""

import re
from itertools import islice

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*[+#]*")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.casefold())


def has_tokens(text: str, n: int) -> bool:
    """Whether ``text`` has at least ``n`` tokens, for ``n`` >= 1; the scan
    stops at the n-th."""
    return next(islice(_TOKEN_RE.finditer(text.casefold()), n - 1, None), None) is not None
