"""Permutations of {0..n-1} with disjoint-cycle text notation."""

from __future__ import annotations

import re
from math import lcm
from operator import index

from .digraph import Frozen
from .errors import DegreeMismatch, ParseError, read_headed

_CYCLE_RE = re.compile(r"\(([\d\s,]*)\)")


class Permutation(Frozen):
    """An immutable bijection of {0..n-1}, keyed by its tuple of images; an
    image that is no integer raises TypeError.

    Composition is left-to-right: ``(a * b)(x) == b(a(x))``, so right actions
    ``x^g`` read in application order.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(index, images))
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images!r}")
        object.__setattr__(self, "images", images)

    def _key(self) -> tuple:
        return self.images

    def __reduce__(self):
        return self.__class__, (self.images,)

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        # Fast path for products of known bijections; skips validation.
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._unchecked(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build a permutation from an iterable of cycles (tuples of points)."""
        images = list(range(degree))
        for cycle in cycles:
            for point in cycle:
                if not 0 <= point < degree:
                    raise ValueError(f"point {point} out of range for degree {degree}")
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {cycle!r}")
            for i, point in enumerate(cycle):
                if images[point] != point:
                    raise ValueError(f"point {point} in two cycles")
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        images, o = self.images, other.images
        if len(images) != len(o):
            raise DegreeMismatch(f"degree {len(images)} vs {len(o)}")
        return Permutation._unchecked(tuple([o[i] for i in images]))

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(invert_images(self.images))

    __invert__ = inverse

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self):
        """Nontrivial cycles, each starting at its minimum point."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


def invert_images(images: tuple) -> tuple:
    """The image tuple of the inverse of the bijection with these images."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def format_cycles(perm: Permutation) -> str:
    """Render a permutation in disjoint-cycle notation; identity is ``()``."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(0 1 2)(3 4)`` into a permutation."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation text")
    consumed = _CYCLE_RE.sub("", stripped).strip()
    if consumed:
        raise ParseError(f"unexpected text in permutation: {consumed!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        points = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        if not points:
            continue
        cycles.append(tuple(int(p) for p in points))
    try:
        return Permutation.from_cycles(cycles, degree)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def read_permutations(text: str):
    """Parse the permutation file format: ``deg <n>`` then one cycle line each.

    Returns (degree, list of Permutation). ``#`` starts a comment.
    """
    degree, lines = read_headed(text, "deg", "n", "degree", 1)
    perms = []
    for lineno, line in lines:
        try:
            perms.append(parse_cycles(line, degree))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return degree, perms


def write_permutations(degree: int, perms) -> str:
    lines = [f"deg {degree}"]
    lines.extend(format_cycles(p) for p in perms)
    return "\n".join(lines) + "\n"
