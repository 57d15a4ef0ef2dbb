"""Deterministic pseudo-random draws derived from a seed and string labels.

Every random decision in the simulator is a pure function of ``(seed,
labels...)`` via SHA-256, so any implementation that follows the same
derivation reproduces the same streams.  The digest of ``(seed, labels...)``
is the SHA-256 of the UTF-8 encoding of the decimal seed and the labels
joined with the unit separator ``\\x1f``.

A caller that draws many values whose labels differ only at the end binds the
labels they share once: ``hex_tokens``, ``digit_tokens`` and ``unit_floats``
hash the seed and those labels, each followed by the separator, and each
value then costs one copy of that hash state, one update with the rest of its
labels and one digest.
"""

from __future__ import annotations

import hashlib
from typing import Callable

_SEP = "\x1f"
# Byte ``b`` of a digest is the digit ``b % 10``.
_DIGIT_OF_BYTE = bytes(b"0123456789"[byte % 10] for byte in range(256))


def _bind(seed: int, labels: tuple[str, ...]):
    """The SHA-256 state of every digest input that starts with ``seed`` and ``labels``: each, then the separator."""
    return hashlib.sha256((_SEP.join([str(seed), *labels]) + _SEP).encode("utf-8"))


def _blocks(seed: int, labels: tuple[str, ...], blocks: list[str]) -> Callable[..., bytes]:
    """The function of one or more ``rest`` labels that joins the digests of ``(seed, *labels, *rest, block)`` for
    each of ``blocks``, with ``seed`` and ``labels`` hashed once."""
    state = _bind(seed, labels)
    suffixes = [_SEP + block for block in blocks]

    def raw(*rest: str) -> bytes:
        tail = _SEP.join(rest)
        out = []
        for suffix in suffixes:
            h = state.copy()
            h.update((tail + suffix).encode("utf-8"))
            out.append(h.digest())
        return b"".join(out)

    return raw


def hex_tokens(seed: int, *labels: str, length: int = 16) -> Callable[..., str]:
    """``rest -> hex_token(seed, *labels, *rest, length=length)``, for one or more ``rest`` labels, with ``seed`` and
    ``labels`` hashed once."""
    if not 0 < length <= 64:
        raw = _blocks(seed, labels, [f"block{block}" for block in range(-(-length // 64))])
        return lambda *rest: raw(*rest).hex()[:length]
    # One block, the usual case, finished inline: one copy, one update and one digest a value.
    state = _bind(seed, labels)

    def token(*rest: str) -> str:
        h = state.copy()
        h.update((_SEP.join(rest) + "\x1fblock0").encode("utf-8"))
        return h.hexdigest()[:length]

    return token


def hex_token(seed: int, *labels: str, length: int = 16) -> str:
    """Deterministic lowercase hex string of the given length (empty for ``length <= 0``); ``labels`` are one or more.

    Block ``i`` is the hex digest of the labels and ``block<i>``; the token
    is the first ``length`` characters of blocks ``0, 1, ...`` joined.
    """
    return hex_tokens(seed, length=length)(*labels)


def digit_tokens(seed: int, *labels: str, length: int = 16) -> Callable[..., str]:
    """``rest -> digit_token(seed, *labels, *rest, length=length)``, for one or more ``rest`` labels, with ``seed`` and
    ``labels`` hashed once."""
    raw = _blocks(seed, labels, [f"digits{block}" for block in range(-(-length // 32))])
    return lambda *rest: raw(*rest).translate(_DIGIT_OF_BYTE).decode("ascii")[:length]


def digit_token(seed: int, *labels: str, length: int = 16) -> str:
    """Deterministic decimal-digit string of the given length (empty for ``length <= 0``); ``labels`` are one or more.

    Block ``i`` is the digest of the labels and ``digits<i>``, each byte ``b``
    read as the digit ``b % 10``; the token is the first ``length`` digits of
    blocks ``0, 1, ...`` joined.
    """
    return digit_tokens(seed, length=length)(*labels)


def unit_floats(seed: int, *labels: str) -> Callable[..., float]:
    """The function of one or more ``rest`` labels whose value is a uniform float in [0, 1) from the top 53 bits of
    the digest of ``(seed, *labels, *rest)``, with ``seed`` and ``labels`` hashed once."""
    state = _bind(seed, labels)

    def draw(*rest: str) -> float:
        h = state.copy()
        h.update(_SEP.join(rest).encode("utf-8"))
        return (int.from_bytes(h.digest()[:8], "big") >> 11) / float(1 << 53)

    return draw
