"""Words in free monoids and their direct products.

Generators are 1-based integers; the empty tuple is the unit.  A MultiWord is
one word per factor of a product of free monoids.  Everything downstream
(basis enumeration, Toeplitz symbols, kernels) indexes by these types, so both
are frozen and hashable.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

Side = Literal["left", "right"]


class ShapeMismatchError(ValueError):
    """Operands live over different free-monoid products."""


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.n}")
        for g in self.letters:
            if not 1 <= g <= self.n:
                raise ValueError(f"generator {g} out of range 1..{self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def reverse(self) -> "Word":
        return Word(self.letters[::-1], self.n)

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters, self.n)

    def __repr__(self) -> str:
        if not self.letters:
            return "e"
        return "".join(f"g{j}" for j in self.letters)


def word(letters: Sequence[int], n: int) -> Word:
    return Word(tuple(letters), n)


def empty_word(n: int) -> Word:
    return Word((), n)


@dataclass(frozen=True)
class MultiWord:
    parts: tuple[Word, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("MultiWord needs at least one factor")

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> tuple[int, ...]:
        return tuple(w.n for w in self.parts)

    @property
    def total_length(self) -> int:
        return sum(len(w) for w in self.parts)

    @property
    def is_identity(self) -> bool:
        return all(w.is_identity for w in self.parts)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.parts)

    def reverse(self) -> "MultiWord":
        return MultiWord(tuple(w.reverse() for w in self.parts))

    def concat(self, other: "MultiWord") -> "MultiWord":
        _require_same_shape(self, other)
        return MultiWord(tuple(a.concat(b) for a, b in zip(self.parts, other.parts)))

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(w) for w in self.parts) + ")"


def multiword(parts: Sequence[Sequence[int]], n: Sequence[int]) -> MultiWord:
    if len(parts) != len(n):
        raise ShapeMismatchError(f"{len(parts)} parts for {len(n)} alphabet sizes")
    return MultiWord(tuple(Word(tuple(p), ni) for p, ni in zip(parts, n)))


def identity_multiword(n: Sequence[int]) -> MultiWord:
    return MultiWord(tuple(empty_word(ni) for ni in n))


def _require_same_shape(a: MultiWord, b: MultiWord) -> None:
    if a.n != b.n:
        raise ShapeMismatchError(f"shapes differ: {a.n} vs {b.n}")


@dataclass(frozen=True)
class ComparabilityResult:
    comparable: bool
    c_plus: MultiWord | None = None
    c_minus: MultiWord | None = None


def _strip_suffix(w: Word, suf: Word) -> Word | None:
    # w = sigma . suf  ->  sigma, else None
    m = len(suf)
    if m > len(w) or (m and w.letters[-m:] != suf.letters):
        return None
    return Word(w.letters[: len(w) - m], w.n)


def _strip_prefix(w: Word, pre: Word) -> Word | None:
    # w = pre . sigma  ->  sigma, else None
    m = len(pre)
    if m > len(w) or w.letters[:m] != pre.letters:
        return None
    return Word(w.letters[m:], w.n)


def _compare_words(side: Side, w: Word, v: Word) -> tuple[bool, Word, Word]:
    """Single-factor comparability with its (c+, c-) quotients.

    Right: v < w when w = sigma.v (v a proper tail of w), quotient sigma.
    Left:  v < w when w = v.sigma (v a proper head of w), quotient sigma.
    """
    e = empty_word(w.n)
    if w.letters == v.letters:
        return True, e, e
    strip = _strip_suffix if side == "right" else _strip_prefix
    q = strip(w, v)
    if q is not None:
        return True, q, e
    q = strip(v, w)
    if q is not None:
        return True, e, q
    return False, e, e


def compare(side: Side, w: MultiWord, v: MultiWord) -> ComparabilityResult:
    """Coordinatewise comparability of two multiwords with quotients.

    Comparable means that in every factor one word is a tail (right case) or
    head (left case) of the other, or they are equal.  On success the result
    carries the quotient pair (c+, c-); in each factor at least one of the
    two quotients is the unit.
    """
    _require_same_shape(w, v)
    plus, minus = [], []
    for wi, vi in zip(w.parts, v.parts):
        ok, p, m = _compare_words(side, wi, vi)
        if not ok:
            return ComparabilityResult(False)
        plus.append(p)
        minus.append(m)
    return ComparabilityResult(True, MultiWord(tuple(plus)), MultiWord(tuple(minus)))


def lambda_membership(a: MultiWord, b: MultiWord) -> bool:
    """True when (a, b) indexes a Fourier coefficient: per factor, at least
    one of the two words is the unit."""
    _require_same_shape(a, b)
    return all(ai.is_identity or bi.is_identity for ai, bi in zip(a.parts, b.parts))


# ---------------------------------------------------------------------------
# enumeration (graded, then lexicographic; factors row-major)

def words_of_length(n: int, p: int) -> Iterator[Word]:
    for letters in itertools.product(range(1, n + 1), repeat=p):
        yield Word(letters, n)


def words_up_to(n: int, d: int) -> list[Word]:
    """All words of length <= d in graded-lex order."""
    out: list[Word] = []
    for p in range(d + 1):
        out.extend(words_of_length(n, p))
    return out


def multiwords_up_to_total(n: Sequence[int], total: int) -> list[MultiWord]:
    """All multiwords of total length <= total, ordered by total length and
    then row-major in the per-factor graded-lex orders."""
    per_factor = [words_up_to(ni, total) for ni in n]
    out: list[MultiWord] = []
    for parts in itertools.product(*per_factor):
        if sum(len(w) for w in parts) <= total:
            out.append(MultiWord(tuple(parts)))
    out.sort(key=_mw_sort_key)
    return out


def _mw_sort_key(mw: MultiWord):
    return (mw.total_length, tuple((len(w), w.letters) for w in mw.parts))


def lambda_pairs_up_to_total(n: Sequence[int], total: int) -> list[tuple[MultiWord, MultiWord]]:
    """All pairs (a, b) with lambda_membership(a, b) and |a| + |b| <= total,
    ordered by a and then by b in the multiword order.

    The partners of a are the multiwords supported off the support of a; they
    form a prefix, bounded by total - |a|, of that support class.
    """
    mws = multiwords_up_to_total(n, total)
    support = [sum(1 << i for i, w in enumerate(mw.parts) if w.letters) for mw in mws]
    full = (1 << len(n)) - 1
    # partners[free]: the multiwords supported inside the factor set free
    partners = [[mw for mw, s in zip(mws, support) if s & ~free == 0]
                for free in range(full + 1)]
    lengths = [[mw.total_length for mw in p] for p in partners]
    out = []
    for a, s in zip(mws, support):
        free = full & ~s
        cut = bisect.bisect_right(lengths[free], total - a.total_length)
        out.extend((a, b) for b in partners[free][:cut])
    return out


def factor_lambda_pairs(n: int, d: int) -> list[tuple[Word, Word]]:
    """Single-factor lambda pairs within degree d: (w, e) for every word w,
    then (e, w) for every nonempty w, both in graded-lex order."""
    ws = words_up_to(n, d)
    e = empty_word(n)
    return [(w, e) for w in ws] + [(e, w) for w in ws if not w.is_identity]


def lambda_pairs_within_degrees(n: Sequence[int], degrees: Sequence[int]) -> list[tuple[MultiWord, MultiWord]]:
    """All lambda pairs with |a_i| <= degrees[i] and |b_i| <= degrees[i]:
    the row-major product of the per-factor ``factor_lambda_pairs``."""
    out = []
    for combo in itertools.product(*(factor_lambda_pairs(ni, di) for ni, di in zip(n, degrees))):
        a = MultiWord(tuple(p[0] for p in combo))
        b = MultiWord(tuple(p[1] for p in combo))
        out.append((a, b))
    return out
