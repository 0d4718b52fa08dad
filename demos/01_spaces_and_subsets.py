# Finite topological spaces as minimal-neighborhood tables.
#
# A finite topology is the same data as a preorder: for each point keep the
# smallest open set containing it.  This script builds a few spaces, lists
# their open sets, and plays with closure, connectivity, and subspaces.

from idemx import (
    closure,
    discrete,
    embed,
    from_minimal_basis,
    is_connected,
    is_open,
    sierpinski,
)

# The two-point space with exactly one nontrivial open set.
S = sierpinski()
print("Sierpinski opens:", [S.ids(m) for m in S.opens])
print("is_open({'1'}):", is_open(S, {"1"}), " is_open({'0'}):", is_open(S, {"0"}))

# Closure picks up every point whose smallest neighborhood meets the set.
print("closure({'1'}):", sorted(closure(S, {"1"})))  # the point 0 adheres to 1
print("closure({'0'}):", sorted(closure(S, {"0"})))  # 0 is already closed

# Connectivity: the Sierpinski space is connected, a discrete pair is not.
print("Sierpinski connected:", is_connected(S, {"0", "1"}))
D = discrete(["p", "q"])
print("discrete pair connected:", is_connected(D, {"p", "q"}))

# The wedge: two open points hanging over a common closed point w.
W = from_minimal_basis({"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]})
print("\nwedge opens:", [W.ids(m) for m in W.opens])
print("closure({'w'}):", sorted(closure(W, {"w"})))  # w is dense from below

# Subspace topologies come from intersecting opens with the subset.  The
# pair {p, q} inherits the discrete topology even though W itself is not
# discrete; the embedding records that in subset_discrete.
E = embed(W, ["p", "q"])
X = E.subspace
print("induced opens on {p,q}:", [X.ids(m) for m in X.opens])
print("subset_discrete:", E.subset_discrete)
