"""Deterministic pseudo-random draws derived from a seed and string labels.

Every random decision in the simulator (and the jar's sampling) is a pure
function of ``(seed, labels...)`` via SHA-256, so any implementation that
follows the same derivation reproduces the same streams.  The digest input is
the UTF-8 encoding of the decimal seed and the labels joined with the unit
separator ``\\x1f``.
"""

from __future__ import annotations

import hashlib

_SEP = "\x1f"


def digest(seed: int, *labels: str) -> bytes:
    message = _SEP.join([str(seed), *labels]).encode("utf-8")
    return hashlib.sha256(message).digest()


def unit_float(seed: int, *labels: str) -> float:
    """Uniform float in [0, 1) from the top 53 bits of the digest."""
    top = int.from_bytes(digest(seed, *labels)[:8], "big") >> 11
    return top / float(1 << 53)


def hex_token(seed: int, *labels: str, length: int = 16) -> str:
    """Deterministic lowercase hex string of the given length (empty for ``length <= 0``).

    Block ``i`` is the hex digest of the labels and ``block<i>``; the token
    is the first ``length`` characters of blocks ``0, 1, ...`` joined.
    """
    if 0 < length <= 64:  # one block, the usual case, without the comprehension's frame
        return digest(seed, *labels, "block0").hex()[:length]
    return "".join([digest(seed, *labels, f"block{block}").hex() for block in range(-(-length // 64))])[:length]


def digit_token(seed: int, *labels: str, length: int = 16) -> str:
    """Deterministic decimal-digit string of the given length."""
    out = []
    digits = 0
    block = 0
    while digits < length:
        raw = digest(seed, *labels, f"digits{block}")
        out.append("".join(str(byte % 10) for byte in raw))
        digits += len(raw)
        block += 1
    return "".join(out)[:length]
