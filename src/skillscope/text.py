"""Tokenization shared by cleansing, lexicon matching and topic modeling.

A token is a case-folded run of alphanumerics, optionally joined by
intra-word hyphens ("scikit-learn", "human-in-the-loop") and optionally
carrying trailing '+' or '#' ("c++", "c#"). One tokenizer is used everywhere
so lexicon phrases and document text always segment identically.

After case folding only ASCII letters, digits, '-', '+' and '#' can be part
of a token. So the folded text is encoded as ASCII, each other character
becoming one '?', one ``bytes.translate`` table turns every byte no token
holds into a space, and ``split()`` cuts the decoded text into chunks. A
chunk of alphanumerics alone is exactly one token; only a chunk holding '-',
'+' or '#' goes through ``_TOKEN_RE``, which finds the same tokens in it as
in the whole text, since no token spans a space.
"""

import re
import string

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*[+#]*")
# each byte a token can hold maps to itself, every other byte to a space
_TOKEN_BYTES = bytes(b if chr(b) in string.ascii_lowercase + string.digits + "-+#" else 0x20
                     for b in range(256))


def _chunks(text: str, most: int = -1) -> list[str]:
    """The runs of token characters in ``text`` case-folded; with ``most``
    >= 0, at most that many runs and then the rest of the text."""
    ascii_text = text.casefold().encode("ascii", "replace").translate(_TOKEN_BYTES)
    return ascii_text.decode("ascii").split(None, most)


def tokenize(text: str) -> list[str]:
    tokens = []
    for chunk in _chunks(text):
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            tokens += _TOKEN_RE.findall(chunk)
    return tokens


def has_tokens(text: str, n: int) -> bool:
    """Whether ``text`` has at least ``n`` tokens, for ``n`` >= 1. Only the
    first ``n`` chunks are split off, and the rest is scanned only when the
    chunks before it hold fewer than ``n`` tokens."""
    chunks = _chunks(text, n)
    count = sum(map(str.isalnum, chunks))  # one token each
    for chunk in chunks:
        if count >= n:
            return True
        if not chunk.isalnum():
            count += len(_TOKEN_RE.findall(chunk))
    return count >= n
