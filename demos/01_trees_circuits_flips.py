"""Walkthrough: encoding, circuits, and a first flip.

A vertex of the product of two simplices is a (row, column) pair, which is
the same thing as an edge of a complete bipartite graph.  Affinely
independent vertex sets are exactly cycle-free edge sets, so a maximal
simplex is a spanning tree and a minimal dependency is a signed cycle.
This script builds the unit square (the product of two segments), looks at
its two triangulations, and flips between them.
"""

from prodtri import (
    Circuit,
    Dims,
    Simplex,
    Triangulation,
    apply_flip,
    enumerate_flips,
    psi,
    shape,
    supports_flip,
    validate,
)

d = Dims(2, 2)

# The square has four vertices e_i x f_j and exactly one circuit: its two
# diagonals are the minus and plus sides of the signed 4-cycle below.
X = Circuit.from_edges(d, minus=[(0, 0), (1, 1)], plus=[(0, 1), (1, 0)])
print("the square's circuit:", X)

# A triangulation of the square picks one diagonal and the two triangles
# around it.  Each triangle is a spanning tree with 3 edges.
lower = Simplex.from_edges(d, [(0, 0), (1, 0), (1, 1)])
upper = Simplex.from_edges(d, [(0, 0), (0, 1), (1, 1)])
T = Triangulation(d, [lower, upper])
print("triangulation valid:", validate(T).ok)
print("shape of a triangle:", shape(lower))

# The circuit supports a flip when its minus side is the present diagonal.
# The certificate carries the link the flip happens in: here only the empty
# face, as the circuit spans the whole square.
cert = supports_flip(T, X)
print("flip supported:", cert is not None)
print("link of the flip:", cert.link)
T2 = apply_flip(T, cert)
print("flipped triangulation:", T2.maximal)
print("flips available before/after:", len(enumerate_flips(T)), len(enumerate_flips(T2)))

# The carrying map sends each old tree to a new one by a single edge swap.
for t in T.maximal:
    print(f"  {t!r}  ->  {psi(T, cert, t)!r}")

# Flipping back along the reversed circuit restores the original.
back = supports_flip(T2, cert.circuit.reverse())
print("round trip:", apply_flip(T2, back) == T)
