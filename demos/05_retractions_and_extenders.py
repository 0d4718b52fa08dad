# Set-valued retractions and functional extenders, round trip in both
# directions.
#
# A set-valued map r from an ambient space Y onto a subspace X that fixes X
# pointwise induces an extender u(f)(y) = min (or max) of f over r(y).  The
# map can be recovered from the extender in two independent ways: through
# the supports of the pointwise functionals, and through the open-set
# extension operator.  Semicontinuity of r shows up as semicontinuity of
# the extended functions.

from idemx import (
    build_extender,
    check_open_extension_algebra,
    connectivity_analysis,
    discrete,
    embed,
    extend_open_set,
    from_mapping,
    from_minimal_basis,
    function_class,
    greatest_retraction,
    is_lsc,
    is_usc,
    retraction_from_open_sets,
    search_retraction,
    setmap,
    supports_retraction,
    verify_semicontinuity_theorem,
)

# Star instance: one extra point w whose smallest neighborhood sees all of
# the discrete subspace X = {p, q}.
Y = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["p", "q", "w"]})
E = embed(Y, ["p", "q"])
r = setmap(Y, E.subspace, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
print("r usc:", is_usc(r), " r lsc:", is_lsc(r))

# The min extender of an usc map produces lower semicontinuous functions.
u = build_extender(r, E, "min")
f = from_mapping(E.subspace, {"p": 0.0, "q": 2.0})
g = u.apply(f)
print("u(f) =", dict(zip(Y.points, g.values)), "->", function_class(g, Y).klass)

report = verify_semicontinuity_theorem(r, E, "min", sample=16)
for imp in report.implications:
    print(f"  {imp.name}: {'ok' if imp.passed else 'FAIL'} ({imp.cases} inputs)")

# Recovery route 1: classify each pointwise functional and take supports.
print("\nsupports recovery:", supports_retraction(u).as_dict())

# Recovery route 2: the open-set extension e(U) = {y : u-candidates dip
# below 1 on y}; intersecting closures of contributing opens rebuilds r.
u_max = build_extender(r, E, "max")
for m in E.subspace.opens:
    print(f"  e({E.subspace.ids(m)}) = {sorted(extend_open_set(u_max, m, 'max_usc'))}")
print("open-set recovery:", retraction_from_open_sets(u_max, "max_usc").as_dict())
print("algebra e(U&V)=e(U)&e(V):", check_open_extension_algebra(u_max, "max_usc").passed)

# Retraction search: the greatest fixed point of the pairwise rules shows
# that the wedge admits no usc retraction at all, while the isolated-point
# instance has one; the exact search below the greatest retraction then
# returns the smallest-image one.
wedge = embed(
    from_minimal_basis({"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]}), ["p", "q"]
)
print("\nwedge greatest usc retraction:", greatest_retraction(wedge, "usc"))
print("wedge usc retraction:", search_retraction(wedge, "usc"))
print("wedge lsc retraction:", search_retraction(wedge, "lsc").as_dict())
iso = embed(discrete(["p", "q", "w"]), ["p", "q"])
print("isolated usc retraction:", search_retraction(iso, "usc").as_dict())

# Extenders preserving both min and max are rigid: their recovered values
# are singletons on a discrete subspace (hence connected).
r1 = setmap(iso.ambient, iso.subspace, {"p": ["p"], "q": ["q"], "w": ["q"]})
rep = connectivity_analysis(build_extender(r1, iso, "min"))
print("\nconnectivity analysis:", rep.values, "connected:", rep.connected_values)
