"""Ultra-lightweight MDS diffusion matrices over rings of binary matrices.

Library layout:

- ``gf2``         polynomials, bit matrices, quotient rings F2[x]/(p) with
                  elements as plain int residues; ``ring`` is the one shared,
                  interned ring constructor
- ``sympoly``     multivariate GF(2) polynomials and the symbolic MDS pre-check:
                  rows evaluated at one GF(2^8) point per parameter, with an
                  exact determinant for every minor that vanishes there
- ``blockmat``    k x k matrices over a ring: MDS test, branch number,
                  equivalence, involution test; ``MinorTracker`` is the one
                  all-minors tracker and ``packed_rows`` the one row
                  encoding of every search and of matrix extraction
- ``slp``         word-level linear straight-line programs, cost and depth
- ``treesearch``  exhaustive search for simplest implementation trees; a
                  minor that vanishes at the points is decided there by
                  vertex-disjoint paths
- ``instantiate`` parameter assignment, lowest-cost and involutory catalogs
- ``catalogs``    bundled reference data
- ``cli``         command-line frontend
"""

from .gf2 import (
    BitMatrix,
    FormatError,
    NonUnitError,
    QuotientRing,
    companion,
    is_invertible,
    poly_parse,
    poly_text,
    rank,
    ring,
    xor_count,
)

__all__ = [
    "BitMatrix",
    "FormatError",
    "NonUnitError",
    "QuotientRing",
    "companion",
    "is_invertible",
    "poly_parse",
    "poly_text",
    "rank",
    "ring",
    "xor_count",
]

__version__ = "0.1.0"
