"""Exact invariant almost complex geometry on generalized flag manifolds.

Subpackages compute, over exact rational arithmetic:
  * root systems, Weyl group orders and Bruhat covers (``rootsys``),
  * multivariate polynomial arithmetic (``polyring``),
  * Groebner bases and Borel presentations (``groebner``),
  * flag manifolds, isotropy decompositions, and invariant almost complex
    structures (``flagmodel``),
  * Chern numbers and the Todd genus (``chern``),
  * cohomology presentations and top-class certificates (``cohomology``),
  * reproduction of the reference Chern-number tables (``tables``).

The package has two halves that import nothing from each other: the root
data (``rootsys``, ``flagmodel``, ``chern``, ``tables``) and the
polynomials (``polyring``, ``groebner``, ``cohomology``).  Only ``cli``
joins them.
"""

from .polyring import Polynomial
from .rootsys import RootSystem, build_root_system, bruhat_covers
from .groebner import (MonomialOrder, GroebnerBasis, buchberger, normal_form,
                       quotient_dimension, borel_generators)
from .flagmodel import (FlagManifold, IsotropySummand, InvariantACS, ACSClass,
                        flag_manifold, parse_manifold, t_root_decomposition,
                        enumerate_acs, classify_acs)
from .chern import (chern_numbers, chern_numbers_many, chern_numbers_schubert,
                    todd_polynomial, todd_genus, parse_cmonomial,
                    format_cmonomial, monomials_of_weighted_degree)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "RootSystem", "build_root_system", "bruhat_covers",
    "MonomialOrder", "GroebnerBasis", "buchberger", "normal_form",
    "quotient_dimension", "borel_generators",
    "FlagManifold", "IsotropySummand", "InvariantACS", "ACSClass",
    "flag_manifold", "parse_manifold", "t_root_decomposition",
    "enumerate_acs", "classify_acs",
    "chern_numbers", "chern_numbers_many", "chern_numbers_schubert",
    "todd_polynomial", "todd_genus",
    "parse_cmonomial", "format_cmonomial", "monomials_of_weighted_degree",
    "__version__",
]
