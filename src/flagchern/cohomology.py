"""Cohomology-presentation verification: relation families, the SO(6)
Groebner basis, projectivized-tangent presentations, and top-class
nonvanishing certificates.

A :class:`PresentationCase` packages a polynomial presentation of a
cohomology ring — ideal generators, claimed multiplicative relations, and a
claimed top-degree class.  ``verify_relations`` checks that every claimed
relation lies in the ideal; ``top_class_certificate`` produces the nonzero
scalar relating the claimed top class to the top staircase monomial (its
nonvanishing certifies that the class generates the top cohomology).  The
quotient dimension and that monomial come from one walk over the staircase
of ``groebner`` that lists no monomial below the top degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .groebner import (GroebnerBasis, MonomialOrder, borel_generators,
                       buchberger, normal_form, quotient_dimension,
                       top_staircase_monomial)
from .polyring import Polynomial


class CertificateError(ValueError):
    """Raised when a claimed top class reduces to zero in the quotient."""


class PresentationCase:
    """A presentation to verify; a value that cannot be assigned to.
    ``claimed_basis`` is the claimed reduced Groebner basis, when the
    reference prints one."""
    __slots__ = ("name", "generators", "relations", "top_class",
                 "expected_quotient_dim", "claimed_basis")

    def __init__(self, name: str, generators: tuple[Polynomial, ...],
                 relations: tuple[Polynomial, ...], top_class: Polynomial,
                 expected_quotient_dim: int,
                 claimed_basis: tuple[Polynomial, ...] = ()):
        for r in relations:
            if not r.is_homogeneous():
                raise ValueError(f"case {name}: claimed relation {r} "
                                 f"is not homogeneous")
        for field, value in zip(self.__slots__, (
                name, generators, relations, top_class,
                expected_quotient_dim, claimed_basis)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def groebner(self) -> GroebnerBasis:
        return buchberger(self.generators, MonomialOrder("lex"))


# -- relation families --------------------------------------------------------

def _complete_homogeneous(nvars: int, k: int, first_var: int,
                          square: bool = False) -> Polynomial:
    """h_k in the variables x_{first_var}..x_{nvars-1} (0-indexed), or in
    their squares when ``square`` is set."""
    terms = {}
    varset = range(first_var, nvars)
    for combo in itertools.combinations_with_replacement(varset, k):
        e = [0] * nvars
        for i in combo:
            e[i] += 2 if square else 1
        terms[tuple(e)] = Fraction(1)
    return Polynomial(nvars, terms)


def relations_a_full(n: int) -> list[Polynomial]:
    """The n claimed relations in H*(SU(n+1)/T): for p = 1..n the complete
    homogeneous polynomial of degree n-p+2 in the last p of x_1..x_n,
    expressed inside the (n+1)-variable ambient ring."""
    nvars = n + 1
    return [_complete_homogeneous(nvars, n - p + 2, n - p + 1)
            for p in range(1, n + 1)]


def relations_bc_full(n: int) -> list[Polynomial]:
    """The n claimed relations in H*(Spin(2n+1)/T) = H*(Sp(n)/T): for
    p = 1..n the complete homogeneous polynomial of degree n-p+1 in the
    squares of the last p of the n variables."""
    return [_complete_homogeneous(n, n - p + 1, n - p, square=True)
            for p in range(1, n + 1)]


# -- named cases --------------------------------------------------------------

def _monomial(nvars: int, exps) -> Polynomial:
    return Polynomial(nvars, {tuple(exps): Fraction(1)})


def _so6_claimed_basis() -> tuple[Polynomial, ...]:
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    return (x * x + y * y + z * z,
            x * y * z,
            y ** 4 + y * y * z * z + z ** 4,
            y ** 3 * z + y * z ** 3,
            z ** 5)


def int_parameter(form: str, text: str) -> int:
    """``text`` as the integer that ``form``, an option and the shape of its
    value such as ``--ideal proj-tangent:<n>``, asks for; otherwise a
    ValueError that names both."""
    try:
        return int(text)
    except ValueError:
        name = form[form.rindex("<") + 1:-1]
        raise ValueError(f"{form} needs an integer {name}; got {text!r}") \
            from None


# largest n of proj-tangent:n.  Buchberger's time grows with n: `cohomology
# verify --case proj-tangent:48` and `groebner --ideal proj-tangent:48` take
# 0.3-0.5 s, about as long as the largest ranks that ``BOREL_RANKS``
# accepts; the case verifies in 0.6-0.7 s at n = 60 and 6.8-7.5 s at
# n = 120 (child processes, 2 vCPUs, Python 3.11.7)
MAX_PROJ_TANGENT = 48


def projectivized_tangent_presentation(n: int) -> PresentationCase:
    """Two-generator presentation of F(n+2;n,1,1): x^{n+2} = 0 and
    ((x+y)^{n+2} - x^{n+2})/y = sum_{i=0}^{n+1} C(n+2, i) x^i y^{n+1-i} = 0,
    the quotient written out by the binomial theorem.  An n outside
    1..``MAX_PROJ_TANGENT`` is refused (ValueError) before any polynomial is
    built."""
    if not 1 <= n <= MAX_PROJ_TANGENT:
        raise ValueError(f"proj-tangent:{n}: n must be in "
                         f"1..{MAX_PROJ_TANGENT}")
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    r1 = x ** (n + 2)
    r2 = Polynomial.zero(2)
    for i in range(n + 2):
        r2 = r2 + x ** i * y ** (n + 1 - i) * comb(n + 2, i)
    # top cohomology class: the basis monomials are x^a y^b with
    # a <= n+1, b <= n, so the top one is x^{n+1} y^n
    return PresentationCase(
        name=f"proj-tangent:{n}",
        generators=(r1, r2), relations=(r1, r2),
        top_class=_monomial(2, (n + 1, n)),
        expected_quotient_dim=(n + 2) * (n + 1))


def presentation_case(tag: str) -> PresentationCase:
    """Build a named case: a-full:N, b-full:N, c-full:N, so6-groebner,
    proj-tangent:N."""
    kind, sep, arg = tag.partition(":")
    kind = kind.lower()
    if kind in ("a-full", "b-full", "c-full"):
        if not arg:
            raise ValueError(f"case {tag!r} needs a rank, e.g. {kind}:3")
        n = int_parameter(f"--case {kind}:<n>", arg)
        if kind == "a-full":
            gens = borel_generators("A", n)
            rels = relations_a_full(n)
            top = _monomial(n + 1, range(n + 1))
            dim = factorial(n + 1)
        else:
            family = "B" if kind != "c-full" else "C"
            gens = borel_generators(family, n)
            rels = relations_bc_full(n)
            top = _monomial(n, [2 * i - 1 for i in range(1, n + 1)])
            dim = 2 ** n * factorial(n)
        return PresentationCase(name=f"{kind}:{n}", generators=tuple(gens),
                                relations=tuple(rels), top_class=top,
                                expected_quotient_dim=dim)
    if kind == "so6-groebner":
        if sep:
            raise ValueError(f"case so6-groebner takes no parameter; "
                             f"got {tag!r}")
        gens = borel_generators("D", 3)
        y = Polynomial.variable(3, 1)
        z = Polynomial.variable(3, 2)
        # the class of SO(6)/(U(1) x U(2)) times the linear form y - z of
        # the isotropy's one positive root, in the ambient full-flag ring
        return PresentationCase(
            name="so6-groebner", generators=tuple(gens),
            relations=tuple(_so6_claimed_basis()),
            top_class=(y ** 2 * z ** 3 - y * z ** 4) * (y - z),
            expected_quotient_dim=24,
            claimed_basis=_so6_claimed_basis())
    if kind == "proj-tangent":
        if not arg:
            raise ValueError("case proj-tangent needs a parameter, "
                             "e.g. proj-tangent:2")
        return projectivized_tangent_presentation(
            int_parameter("--case proj-tangent:<n>", arg))
    raise ValueError(f"unknown presentation case {tag!r}")


CASE_EXAMPLES = ["a-full:2", "a-full:4", "b-full:2", "b-full:3", "c-full:3",
                 "so6-groebner", "proj-tangent:1", "proj-tangent:2"]


# -- verification -------------------------------------------------------------

def verify_relations(case: PresentationCase, gb: GroebnerBasis) -> bool:
    """True iff every claimed relation has normal form 0 mod the case ideal,
    whose Groebner basis is ``gb``."""
    return all(normal_form(r, gb).is_zero() for r in case.relations)


def verify_claimed_basis(case: PresentationCase, gb: GroebnerBasis) -> bool:
    """True iff the computed reduced basis ``gb`` equals the case's claimed
    one as a set."""
    return set(gb.generators) == set(case.claimed_basis)


def top_class_certificate(case: PresentationCase, gb: GroebnerBasis,
                          mono: tuple[int, ...]) -> Fraction:
    """The scalar lambda with NF(top_class) = lambda * mono, the top
    staircase monomial of ``gb``.  lambda = 0 raises
    :class:`CertificateError`."""
    r = normal_form(case.top_class, gb)
    if r.is_zero():
        raise CertificateError(
            f"case {case.name}: claimed top class reduces to 0 — it does "
            f"not generate the top cohomology")
    if set(r.terms) != {mono}:
        raise CertificateError(
            f"case {case.name}: reduced class {r} is not proportional to "
            f"the top normal monomial {mono}")
    return r.terms[mono]


def verify_case(case: PresentationCase) -> dict:
    """Run every check the case supports; returns a summary dict."""
    gb = case.groebner()
    dim = quotient_dimension(gb)
    out = {"case": case.name, "relations_ok": verify_relations(case, gb),
           "quotient_dim": dim,
           "quotient_dim_ok": dim == case.expected_quotient_dim}
    if case.claimed_basis:
        out["claimed_basis_ok"] = verify_claimed_basis(case, gb)
    try:
        lam = top_class_certificate(
            case, gb, top_staircase_monomial(gb))
        out["certificate"] = lam
        out["certificate_ok"] = True
    except CertificateError as exc:
        out["certificate"] = Fraction(0)
        out["certificate_ok"] = False
        out["certificate_error"] = str(exc)
    out["ok"] = all(v for k, v in out.items() if k.endswith("_ok"))
    return out
