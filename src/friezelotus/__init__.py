"""Exact combinatorics of friezes, triangulated polygons, lattice lotuses,
and dual resolution graphs of binomial-product plane curves."""

__version__ = "0.1.0"
