"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values: a fixed number of variables, terms stored
as a map from dense exponent tuples to ``Fraction`` coefficients with no zero
coefficients kept.  The canonical term order used for printing and
serialization is graded lexicographic (higher total degree first, ties
broken by the exponent tuple).  Within the package only ``groebner``,
``cohomology`` and the CLI read this module: Chern numbers come from root
data alone (see ``chern``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has length != {nvars}")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def one(nvars: int) -> "Polynomial":
        return Polynomial.constant(nvars, 1)

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return Polynomial(nvars, {tuple(exps): Fraction(1)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = terms.get(exps, Fraction(0)) + coeff
            if c:
                terms[exps] = c
            else:
                terms.pop(exps, None)
        out = Polynomial.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        out = Polynomial.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            out = Polynomial.__new__(Polynomial)
            out.nvars = self.nvars
            out.terms = {e: k * c for e, k in self.terms.items()}
            return out
        other = self._coerce(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = terms.get(e, Fraction(0)) + c1 * c2
                if c:
                    terms[e] = c
                else:
                    terms.pop(e, None)
        out = Polynomial.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- printing and serialization ------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                      reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = _var_names(self.nvars)
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                piece = str(coeff)
            elif coeff == 1:
                piece = mono
            elif coeff == -1:
                piece = f"-{mono}"
            else:
                piece = f"{coeff}*{mono}"
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return " ".join(parts)

    __repr__ = __str__

    def to_json(self) -> list:
        return [
            [list(exps), str(coeff.numerator), str(coeff.denominator)]
            for exps, coeff in self.sorted_terms()
        ]

    @staticmethod
    def from_json(nvars: int, data: Iterable) -> "Polynomial":
        terms = {}
        for exps, num, den in data:
            terms[tuple(exps)] = Fraction(int(num), int(den))
        return Polynomial(nvars, terms)


def _var_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    if nvars == 4:
        return ["x", "y", "z", "w"]
    return [f"x{i + 1}" for i in range(nvars)]
