"""The free group: words, presentations and Fox derivatives.

Exact combinatorics on the standard library alone; `torsion_num` evaluates
these objects at a representation, and `records` parses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class WordError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Words and presentations
# ---------------------------------------------------------------------------

Letter = Tuple[int, int]        # (generator index, +1 | -1)


@dataclass(frozen=True)
class Word:
    """Freely reduced word in generators a, b, c, ..."""

    letters: Tuple[Letter, ...]

    @classmethod
    def from_letters(cls, letters) -> "Word":
        out: List[Letter] = []
        for g, e in letters:
            if e not in (1, -1):
                raise WordError("exponents must be +1 or -1")
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
        return cls(tuple(out))

    def __mul__(self, other: "Word") -> "Word":
        return Word.from_letters(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def exponent_sum(self, gen: Optional[int] = None) -> int:
        return sum(e for g, e in self.letters if gen is None or g == gen)

    def to_text(self) -> str:
        return "".join(chr(ord("a") + g) if e > 0 else chr(ord("A") + g)
                       for g, e in self.letters)

    def __repr__(self):
        return f"Word({self.to_text()!r})"


EMPTY_WORD = Word(())


def parse_word(text: str, generator_count: Optional[int] = None) -> Word:
    """Parse the letter grammar: a..z generators, A..Z their inverses."""
    letters = []
    for pos, ch in enumerate(text.strip()):
        if "a" <= ch <= "z":
            g, e = ord(ch) - ord("a"), 1
        elif "A" <= ch <= "Z":
            g, e = ord(ch) - ord("A"), -1
        else:
            raise WordError(f"unknown letter {ch!r} at position {pos}")
        if generator_count is not None and g >= generator_count:
            raise WordError(
                f"letter {ch!r} at position {pos} exceeds generator count")
        letters.append((g, e))
    return Word.from_letters(letters)


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: Tuple[Word, ...]
    meridian: Word
    longitude: Word

    @classmethod
    def create(cls, generator_count: int, relators, meridian: Word,
               longitude: Word) -> "Presentation":
        if not relators:
            raise WordError("need at least one relator")
        for w in list(relators) + [meridian, longitude]:
            for g, _ in w.letters:
                if g >= generator_count:
                    raise WordError("generator index out of range")
        return cls(generator_count, tuple(relators), meridian, longitude)

    def abelianization_ok(self) -> bool:
        """H1 = Z test: the relator exponent matrix has rank s - 1 and its
        (s-1)-minors have gcd 1, whatever the number of relators; decided
        only for s = 2 and raises otherwise.  `records.parse_record`
        refuses a presentation that fails it or is not deficiency one."""
        s = self.generator_count
        rows = [[r.exponent_sum(g) for g in range(s)] for r in self.relators]
        # two generators: rank 1 when every 2-minor vanishes, and then the
        # exponent sums are the 1-minors
        if s == 2:
            return all(a * d == b * c for k, (a, b) in enumerate(rows)
                       for c, d in rows[k + 1:]) \
                and math.gcd(*(e for row in rows for e in row)) == 1
        raise WordError("abelianization check implemented for s = 2")


# ---------------------------------------------------------------------------
# Fox calculus
# ---------------------------------------------------------------------------

class GroupRingElem:
    """Finite integer combination of words."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[Word, int] = None):
        self.coeffs = {w: c for w, c in (coeffs or {}).items() if c != 0}

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElem(out)

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def left_mul(self, w: Word) -> "GroupRingElem":
        return GroupRingElem({w * v: c for v, c in self.coeffs.items()})

    def __repr__(self):
        parts = [f"{c}*{w.to_text() or '1'}" for w, c in self.coeffs.items()]
        return "GR(" + " + ".join(parts or ["0"]) + ")"


def fox_derivative(w: Word, k: int) -> GroupRingElem:
    """d(w)/d(g_k): d(g_k) = 1, d(g_k^-1) = -g_k^-1, d(uv) = du + u dv."""
    coeffs: Dict[Word, int] = {}
    prefix = EMPTY_WORD
    for g, e in w.letters:
        letter = Word(((g, e),))
        if g == k:
            key = prefix if e > 0 else prefix * letter
            coeffs[key] = coeffs.get(key, 0) + (1 if e > 0 else -1)
        prefix = prefix * letter
    return GroupRingElem(coeffs)
