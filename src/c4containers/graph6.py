"""graph6 text encoding for undirected labeled graphs.

Edges are carried as a bitmask over pair indices; the pair (u, v) with u < v
gets index v(v-1)/2 + u, which enumerates pairs in exactly the column order
graph6 uses (01, 02, 12, 03, 13, 23, ...).  Encoding packs that bit vector
into 6-bit groups, most significant bit first, each offset by 63; the size
header covers n up to 258047 via the single '~' extension.  Both directions
take time linear in C(n, 2), a fixed chunk of groups at a time: encode
unpacks the mask's bytes into the preallocated text, and decode packs the
groups' bits into the preallocated bytes of the mask.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["pair_index", "pair_from_index", "pairs_from_indices", "encode", "decode"]

_GROUP_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_CHUNK_GROUPS = 1 << 16


def pair_index(u: int, v: int) -> int:
    if u == v:
        raise ValueError("no loops")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_from_index(k: int) -> tuple[int, int]:
    # v is the largest integer with v(v-1)/2 <= k, that is floor((1 + sqrt(8k+1))/2)
    v = (math.isqrt(8 * k + 1) + 1) // 2
    return (k - v * (v - 1) // 2, v)


def pairs_from_indices(ks) -> tuple[np.ndarray, np.ndarray]:
    """pair_from_index over a sequence of indices below 2**60, as int64 arrays
    (u, v).  There 8k+1 fits an int64.  Rounding is monotone, so the float64
    square root never puts v too low; once 8k+1 passes 2**53 it can put v
    one too high, and one step down corrects it."""
    k = np.asarray(ks, dtype=np.int64)
    v = ((np.sqrt(8 * k + 1) + 1) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > k
    return k - v * (v - 1) // 2, v


def _size_header(n: int) -> str:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graphs beyond 258047 vertices are not supported")


def encode(n: int, mask: int) -> str:
    npairs = n * (n - 1) // 2
    if mask >> npairs:
        raise ValueError("edge mask has bits beyond the pair range")
    header = _size_header(n).encode("ascii")
    # bit k of the mask is bit k % 8 of byte k // 8; a chunk of _CHUNK_GROUPS
    # groups is 3/4 as many bytes, so every chunk starts on a byte
    ngroups = (npairs + 5) // 6
    raw = np.frombuffer(mask.to_bytes((3 * ngroups + 3) // 4, "little"), dtype=np.uint8)
    text = np.empty(len(header) + ngroups, dtype=np.uint8)
    text[: len(header)] = list(header)
    body = text[len(header) :]
    for start in range(0, ngroups, _CHUNK_GROUPS):
        bits = np.unpackbits(raw[3 * start // 4 : 3 * (start + _CHUNK_GROUPS) // 4], bitorder="little")
        groups = bits[: 6 * (ngroups - start)].reshape(-1, 6)
        body[start : start + _CHUNK_GROUPS] = groups @ _GROUP_WEIGHTS + 63
    return str(text, "ascii")


def decode(text: str) -> tuple[int, int]:
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ValueError("unsupported graph6 size header")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        start = 4
    else:
        n = ord(s[0]) - 63
        start = 1
    if n < 0:
        raise ValueError("bad graph6 size header")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(s) - start != need:
        raise ValueError(f"graph6 body has {len(s) - start} groups, expected {need}")
    raw = np.empty((3 * need + 3) // 4, dtype=np.uint8)
    for first in range(0, need, _CHUNK_GROUPS):
        chunk = s[start + first : start + first + _CHUNK_GROUPS]
        # one code point per character, so any character can be named
        groups = np.frombuffer(chunk.encode("utf-32-le", "surrogatepass"), dtype=np.uint32) - 63
        bad = np.flatnonzero(groups >= 64)  # below 63 wraps around
        if len(bad):
            raise ValueError(f"bad graph6 character {chunk[bad[0]]!r}")
        bits = np.unpackbits(groups.astype(np.uint8)[:, None], axis=1)[:, 2:]
        raw[3 * first // 4 : 3 * (first + _CHUNK_GROUPS) // 4] = np.packbits(bits, bitorder="little")
    mask = int.from_bytes(raw, "little")
    if mask >> npairs:
        raise ValueError("nonzero padding bits")
    return n, mask
