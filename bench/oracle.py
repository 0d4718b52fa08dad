"""Known answers computed from the definitions, with no call into idemx.

Spaces are minimal-neighbourhood tables: ``nbhd[i]`` is the bitmask of the
smallest open set containing point ``i``.  Set-valued maps are tuples of
image bitmasks.  Everything here is plain Python over those integers, so a
change to the library cannot change the answers it is checked against.
"""

from __future__ import annotations

NEG_INF = float("-inf")


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def closure(nbhd, mask: int) -> int:
    """Points whose minimal neighbourhood meets the set."""
    return sum(1 << i for i, m in enumerate(nbhd) if m & mask)


def hull(nbhd, mask: int) -> int:
    """Smallest open set containing the set: union of minimal neighbourhoods."""
    out = 0
    for i in bits(mask):
        out |= nbhd[i]
    return out


def subspace_nbhd(nbhd, subset_idx) -> tuple[int, ...]:
    """Induced topology on the points ``subset_idx`` (ambient order kept)."""
    pos = {a: k for k, a in enumerate(subset_idx)}
    out = []
    for a in subset_idx:
        out.append(sum(1 << pos[b] for b in bits(nbhd[a]) if b in pos))
    return tuple(out)


# -- semicontinuity, pairwise on a finite (Alexandrov) space -----------------


def is_usc(dom, cod, images) -> bool:
    """usc iff r(y') is inside hull(r(y)) for every y' in minN(y)."""
    for y, ny in enumerate(dom):
        h = hull(cod, images[y])
        for y2 in bits(ny):
            if images[y2] & ~h:
                return False
    return True


def is_lsc(dom, cod, images) -> bool:
    """lsc iff r(y') meets minN(x) for every x in r(y) and y' in minN(y)."""
    for y, ny in enumerate(dom):
        for x in bits(images[y]):
            nx = cod[x]
            for y2 in bits(ny):
                if not images[y2] & nx:
                    return False
    return True


PREDICATES = {
    "usc": is_usc,
    "lsc": is_lsc,
    "continuous": lambda d, c, im: is_usc(d, c, im) and is_lsc(d, c, im),
}


def _assignments(slots: int, total: int, full: int):
    """Tuples of nonempty masks <= full with popcounts summing to ``total``,
    in lexicographic order of the mask values."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    width = popcount(full)
    for m in range(1, full + 1):
        rest = total - popcount(m)
        if rest < slots - 1 or rest > (slots - 1) * width:
            continue
        for tail in _assignments(slots - 1, rest, full):
            yield (m,) + tail


def first_retraction(nbhd, subset_idx, prop: str):
    """Brute force: the first retraction with ``prop`` in (total image
    cardinality, lexicographic) order, as a tuple of image masks over the
    subspace points, or None when no candidate has it."""
    subset_idx = sorted(subset_idx)
    sub = subspace_nbhd(nbhd, subset_idx)
    k = len(subset_idx)
    pos = {a: j for j, a in enumerate(subset_idx)}
    outside = [i for i in range(len(nbhd)) if i not in pos]
    full = (1 << k) - 1
    pred = PREDICATES[prop]
    images = [1 << pos[i] if i in pos else 0 for i in range(len(nbhd))]
    for total in range(len(outside), len(outside) * k + 1):
        for assign in _assignments(len(outside), total, full):
            for i, m in zip(outside, assign):
                images[i] = m
            if pred(nbhd, sub, images):
                return tuple(images)
    return None


def candidate_count(k_in: int, k_out: int) -> int:
    return ((1 << k_in) - 1) ** k_out


# -- functionals -----------------------------------------------------------------
#
# A functional is described by a spec dict; its known answers follow from the
# closed forms below.  Density weights lie in {0, -0.5, -inf}: with every
# finite weight above -1, each lattice identity a density or its dual breaks
# is broken on indicator inputs with values in {-1, 0, 1} and the clipping
# constants of the structured sweep, which the library runs at every n.

AXIOMS = (
    "normed",
    "weakly_additive",
    "preserves_max",
    "preserves_min",
    "weakly_preserves_max",
    "weakly_preserves_min",
)

# expected-true axioms by profile, as in the campaign's axioms_fuzz suite
PROFILE_TRUE = {
    "support_min": ("normed", "weakly_additive", "preserves_min",
                    "weakly_preserves_max", "weakly_preserves_min"),
    "support_max": ("normed", "weakly_additive", "preserves_max",
                    "weakly_preserves_min", "weakly_preserves_max"),
    "density": ("normed", "weakly_additive", "preserves_max"),
    "mean": ("normed", "weakly_additive"),
}


def _density_sets(lam):
    finite = [i for i, v in enumerate(lam) if v != NEG_INF]
    zero = sum(1 << i for i in finite if lam[i] == 0.0)
    neg = sum(1 << i for i in finite if lam[i] != 0.0)
    return sum(1 << i for i in finite), zero, neg


def axiom_profile(spec) -> dict[str, bool]:
    """Verdict of every axiom, from the functional's closed form."""
    t = spec["type"]
    if t in ("smin", "smax"):
        single = popcount(spec["F"]) == 1
        prof = {a: True for a in PROFILE_TRUE["support_" + t[1:]]}
        other = "preserves_max" if t == "smin" else "preserves_min"
        prof[other] = single
        return prof
    if t in ("density", "dual_density"):
        s, _, neg = _density_sets(spec["lam"])
        single = popcount(s) == 1
        prof = {a: True for a in PROFILE_TRUE["density"]}
        prof["preserves_min"] = single
        prof["weakly_preserves_max"] = True
        prof["weakly_preserves_min"] = neg == 0
        if t == "dual_density":
            prof = {_DUAL[a]: v for a, v in prof.items()}
        return prof
    if t in ("mean", "dual_mean"):
        prof = {a: False for a in AXIOMS}
        prof.update({a: True for a in PROFILE_TRUE["mean"]})
        return prof
    if t in ("table_min", "table_max", "table_mean"):
        single = popcount(spec.get("F", 0)) == 1
        return {
            "normed": True,
            "preserves_min": t == "table_min" or (t == "table_max" and single),
            "preserves_max": t == "table_max" or (t == "table_min" and single),
        }
    raise ValueError(t)


_DUAL = {
    "normed": "normed",
    "weakly_additive": "weakly_additive",
    "preserves_max": "preserves_min",
    "preserves_min": "preserves_max",
    "weakly_preserves_max": "weakly_preserves_min",
    "weakly_preserves_min": "weakly_preserves_max",
}


def classification(spec):
    """(kind, support mask or None, density weights or None)."""
    t = spec["type"]
    if t == "smin":
        return "R_min", spec["F"], None
    if t == "smax":
        return ("R_min" if popcount(spec["F"]) == 1 else "R_max"), spec["F"], None
    if t == "density":
        _, zero, neg = _density_sets(spec["lam"])
        if neg:
            return "idempotent_measure", None, tuple(spec["lam"])
        return ("R_min" if popcount(zero) == 1 else "R_max"), zero, None
    if t == "dual_density":
        _, zero, neg = _density_sets(spec["lam"])
        if neg:
            return "none", None, None
        return "R_min", zero, None
    if t in ("mean", "dual_mean"):
        return "none", None, None
    raise ValueError(t)


def table_values(spec, n: int) -> tuple[float, ...]:
    """Values on {0,1} inputs, indexed by the bitmask of the 1-entries."""
    t = spec["type"]
    if t == "table_min":
        return tuple(1.0 if not (spec["F"] & ~m) else 0.0 for m in range(1 << n))
    if t == "table_max":
        return tuple(1.0 if m & spec["F"] else 0.0 for m in range(1 << n))
    return tuple(popcount(m) / n for m in range(1 << n))


def _separates(spec, v: int) -> bool:
    """Whether the functional is nonzero on -1 over ``v`` and 0 elsewhere."""
    t = spec["type"]
    if t == "smin":
        return bool(spec["F"] & v)
    if t == "smax":
        return not (spec["F"] & ~v)
    if t == "density":
        _, zero, _ = _density_sets(spec["lam"])
        return not (zero & ~v)
    if t == "dual_density":
        s, _, _ = _density_sets(spec["lam"])
        return bool(s & v)
    return v != 0  # mean and its dual


def essential_family(spec, nbhd) -> tuple[int, ...]:
    """Nonempty A such that every test function pinned at -1 on a closed
    neighbourhood of A is separated from zero.

    For a monotone functional vanishing at 0, the hardest test function for
    a given -1 region V is -1 on V and 0 elsewhere; it is admissible for A
    when A lies inside the union of the minimal neighbourhoods whose closure
    stays inside V.
    """
    n = len(nbhd)
    full = (1 << n) - 1
    cl = [closure(nbhd, m) for m in nbhd]
    anchors = []
    for v in range(full + 1):
        anchor = 0
        for i in range(n):
            if not (cl[i] & ~v):
                anchor |= nbhd[i]
        if anchor:
            anchors.append((anchor, _separates(spec, v)))
    return tuple(
        a for a in range(1, full + 1)
        if all(sep for anchor, sep in anchors if not (a & ~anchor))
    )
