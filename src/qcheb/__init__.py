"""Exact-arithmetic q-polynomial families and identity verification.

Constructs the q-Fibonacci, q-Lucas and q-Chebyshev polynomial families over
arbitrary-precision rationals and mechanically checks their recurrences,
determinant identities, operator-calculus expansions, moment formulas and
q-analysis relations.
"""

__version__ = "1.0.0"

from .qkernel import ParamPoint, PoleError  # noqa: F401
from .polyring import Mat2, XsPoly  # noqa: F401
from .families import FamilyId, family_poly  # noqa: F401
from .report import IdentityReport  # noqa: F401
