"""Exact combinatorics of Tamari lattice intervals.

Binary trees under right rotation form the Tamari lattice; its intervals
are encoded here as interval-posets on {1..n}.  The package provides the
interval composition with its unique decomposition, the counting
polynomials attached to trees, the interval generating function, and the
m-Tamari generalization on ballot paths, together with naive brute-force
oracles so that every quantity can be computed along independent routes.
"""

from .compose import compose, decompose, enumerate_interval_posets
from .intervalposet import IntervalPoset, make_interval
from .mtamari import BallotPath, MAryTree, mary_tamari_poly, phi_m_series
from .poly import Polynomial, chapoton_count, delta, phi_series, tamari_poly
from .trees import BinaryTree, parse_tree

__all__ = [
    "BallotPath", "BinaryTree", "IntervalPoset", "MAryTree", "Polynomial",
    "chapoton_count", "compose", "decompose", "delta",
    "enumerate_interval_posets", "make_interval", "mary_tamari_poly",
    "parse_tree", "phi_m_series", "phi_series", "tamari_poly",
]
