"""arborium: exact poset and polytope invariants of arbors.

An arbor is a rooted tree whose vertices carry disjoint label sets
partitioning {1, ..., n}.  Each arbor determines a lattice polytope (one
inequality per sub-tree) and the poset of its lattice points.  This
package computes, in exact rational arithmetic, the height-weighted zeta
polynomial, the K polynomial and M-triangle, the Ehrhart polynomial, and
the Laplace transform of the volume function, and verifies the four
closed generating series for the fan family t_n against brute-force
oracles.

The package binds only __version__: import each name from its module
(algebra, arbor, invariants, oracle, verify, crosscheck or cli).
"""

__version__ = "0.1.0"
