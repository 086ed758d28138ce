"""Rational fans: validation, faces, completeness, subfans, multiplicities.

A fan is stored as a primitive integer ray list plus the ray-index sets
of its maximal cones.  All derived structure (face lattice, facet
pairing, subfans) is computed exactly.  Validation checks strong
convexity and extreme rays by exact LP only on cones whose generators
are dependent (independent generators settle both with one rank), and
solves one relative-interior LP per pair of maximal cones to check that
they meet in a common face; face tests of non-simplicial cones are
exact LP feasibility too.

Fan objects are immutable after validation and every operation here is
a pure function, so values may be shared freely between threads.  The
per-fan memo is only ever filled with idempotently recomputable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidFanError, NotSimplicialError
from .linalg import det, rank
from .lp import cone_contains, is_face_subset, is_pointed, relative_interior_functional


def primitivize(vector) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    vec = tuple(int(v) for v in vector)
    g = math.gcd(*(abs(v) for v in vec)) if any(vec) else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v // g for v in vec)


@dataclass(frozen=True)
class Cone:
    """A cone of a fan, identified by the indices of its extreme rays."""

    ray_indices: frozenset[int]
    dim: int

    def __repr__(self):
        return f"Cone({sorted(self.ray_indices)}, dim={self.dim})"


class Fan:
    """A validated fan.  Build through :func:`validate_fan` or :func:`make_fan`."""

    def __init__(self, dim: int, rays, max_cones):
        self.dim = dim
        self.rays: tuple[tuple[int, ...], ...] = tuple(tuple(int(v) for v in r) for r in rays)
        self.max_cones: tuple[frozenset[int], ...] = tuple(
            sorted((frozenset(c) for c in max_cones), key=sorted)
        )
        self._memo: dict = {}

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    def memo(self, key, compute):
        """Write-once cache; concurrent duplicate computes are benign."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _intersection_faces(rays, c1, c2) -> tuple[set[int], set[int]]:
    """The faces of two cones that a separating functional cuts out.

    The cone of functionals that are >= 0 on the rays of ``c1`` and
    <= 0 on those of ``c2`` vanishes identically on some of the rays
    (its implicit rows); these span the face of each cone that holds
    their intersection.  The two cones meet in a common face exactly when
    both ray sets are equal.
    """
    g1, g2 = sorted(c1), sorted(c2)
    _, implicit = relative_interior_functional(
        [rays[i] for i in g1] + [tuple(-v for v in rays[i]) for i in g2]
    )
    gens = g1 + g2
    return {gens[j] for j in implicit if j < len(g1)}, {gens[j] for j in implicit if j >= len(g1)}


def fan_diagnostics(dim: int, rays, max_cones) -> tuple[list[str], Fan | None]:
    """Validate raw fan data.

    Returns the diagnostic list together with the Fan built from the
    (primitivized) data when no hard violation was found.  Non-primitive
    input rays are reported but repaired; everything else is fatal.
    """
    diags: list[str] = []
    fatal = False
    clean_rays: list[tuple[int, ...]] = []
    for i, ray in enumerate(rays):
        ray = tuple(int(v) for v in ray)
        if len(ray) != dim:
            diags.append(f"ray {i} has length {len(ray)}, expected {dim}")
            fatal = True
            clean_rays.append(ray)
            continue
        if not any(ray):
            diags.append(f"ray {i} is zero")
            fatal = True
            clean_rays.append(ray)
            continue
        prim = primitivize(ray)
        if prim != ray:
            diags.append(f"ray {i} not primitive")
        clean_rays.append(prim)
    if fatal:
        return diags, None

    seen: dict[tuple[int, ...], int] = {}
    for i, ray in enumerate(clean_rays):
        if ray in seen:
            diags.append(f"ray {i} duplicates ray {seen[ray]}")
            fatal = True
        else:
            seen[ray] = i

    cones = []
    for j, raw in enumerate(max_cones):
        indices = [int(i) for i in raw]
        cone = frozenset(indices)
        cones.append(cone)
        if not cone:
            diags.append(f"cone {j} is empty")
            fatal = True
        for i in sorted(cone):
            if indices.count(i) > 1:
                diags.append(f"cone {j} repeats ray {i}")
                fatal = True
        for i in cone:
            if not 0 <= i < len(clean_rays):
                diags.append(f"cone {j} references unknown ray {i}")
                fatal = True
    if fatal:
        return diags, None

    for j, cone in enumerate(cones):
        gens = [clean_rays[i] for i in sorted(cone)]
        if rank(gens) == len(gens):
            # Independent generators: pointed, and each one extreme.
            continue
        if not is_pointed(gens):
            diags.append(f"cone {j} is not strongly convex")
            fatal = True
            continue
        for i in sorted(cone):
            others = [clean_rays[k] for k in cone if k != i]
            if others and cone_contains(others, clean_rays[i]):
                diags.append(f"ray {i} is not an extreme ray of cone {j}")
                fatal = True
    if fatal:
        return diags, None

    used = set().union(*cones) if cones else set()
    for i in range(len(clean_rays)):
        if i not in used:
            diags.append(f"ray {i} not used by any cone")
            fatal = True

    for a, b in combinations(range(len(cones)), 2):
        if cones[a] == cones[b]:
            diags.append(f"cone {b} duplicates cone {a}")
            fatal = True
            continue
        fa, fb = _intersection_faces(clean_rays, cones[a], cones[b])
        if fa != fb:
            diags.append(f"improper intersection of cone {a} and cone {b}")
            fatal = True
        elif fb == cones[b]:
            diags.append(f"cone {b} is contained in cone {a}")
            fatal = True
        elif fa == cones[a]:
            diags.append(f"cone {a} is contained in cone {b}")
            fatal = True
    if fatal:
        return diags, None
    return diags, Fan(dim, clean_rays, cones)


def validate_fan(dim: int, rays, max_cones) -> Fan:
    """Validated Fan from raw data; raises InvalidFanError on violations.

    Rays that are merely non-primitive are repaired (the diagnostic is
    downgraded to a warning) rather than rejected.
    """
    diags, fan = fan_diagnostics(dim, rays, max_cones)
    if fan is None:
        raise InvalidFanError(diags)
    if diags:
        import warnings

        for d in diags:
            warnings.warn(f"fan input repaired: {d}", stacklevel=2)
    return fan


def make_fan(dim: int, rays, max_cones) -> Fan:
    """Shorthand used by fixtures and tests; identical to validate_fan."""
    return validate_fan(dim, rays, max_cones)


def _faces_of_cone(fan: Fan, cone_rays: frozenset[int]) -> set[frozenset[int]]:
    gens = {i: fan.rays[i] for i in cone_rays}
    idx = sorted(cone_rays)
    vectors = [gens[i] for i in idx]
    if rank(vectors) == len(idx):
        # Simplicial: every subset of the rays spans a face.
        return {frozenset(s) for r in range(len(idx) + 1) for s in combinations(idx, r)}
    faces = {frozenset()}
    for r in range(1, len(idx) + 1):
        for sub in combinations(idx, r):
            rest = [gens[i] for i in idx if i not in sub]
            if is_face_subset([gens[i] for i in sub], rest, fan.dim):
                faces.add(frozenset(sub))
    return faces


def all_cones(fan: Fan) -> tuple[tuple[Cone, ...], ...]:
    """Every face of every maximal cone, grouped by dimension."""

    def compute():
        found: dict[frozenset[int], Cone] = {}
        for mc in fan.max_cones:
            for face in _faces_of_cone(fan, mc):
                if face not in found:
                    vecs = [fan.rays[i] for i in sorted(face)]
                    found[face] = Cone(face, rank(vecs) if vecs else 0)
        grouped: list[list[Cone]] = [[] for _ in range(fan.dim + 1)]
        for cone in found.values():
            grouped[cone.dim].append(cone)
        for bucket in grouped:
            bucket.sort(key=lambda c: sorted(c.ray_indices))
        return tuple(tuple(bucket) for bucket in grouped)

    return fan.memo("all_cones", compute)


def is_complete(fan: Fan) -> bool:
    """Support equals the whole space, tested by exact facet pairing."""

    def compute():
        if not fan.max_cones:
            return False
        cones = all_cones(fan)
        for mc in fan.max_cones:
            vecs = [fan.rays[i] for i in mc]
            if rank(vecs) != fan.dim:
                return False
        for facet in cones[fan.dim - 1]:
            owners = sum(1 for mc in fan.max_cones if facet.ray_indices <= mc)
            if owners != 2:
                return False
        return True

    return fan.memo("is_complete", compute)


def is_simplicial(fan: Fan) -> bool:
    def compute():
        for mc in fan.max_cones:
            if rank([fan.rays[i] for i in mc]) != len(mc):
                return False
        return True

    return fan.memo("is_simplicial", compute)


class Subfan:
    """The cones of a fan whose rays all lie in a fixed ray subset."""

    def __init__(self, dim: int, weak_rays: frozenset[int], cones_by_dim):
        self.weak_rays = weak_rays
        self.cones_by_dim: tuple[tuple[Cone, ...], ...] = cones_by_dim
        self.dim = dim

    def cone_counts(self) -> tuple[int, ...]:
        return tuple(len(bucket) for bucket in self.cones_by_dim)

    def __repr__(self):
        return f"Subfan(rays={sorted(self.weak_rays)}, counts={self.cone_counts()})"


def subfan(fan: Fan, ray_subset) -> Subfan:
    """All cones of the fan whose ray set lies inside ``ray_subset``."""
    subset = frozenset(ray_subset)

    def compute():
        grouped = tuple(
            tuple(c for c in bucket if c.ray_indices <= subset)
            for bucket in all_cones(fan)
        )
        return Subfan(fan.dim, subset, grouped)

    return fan.memo(("subfan", subset), compute)


def chi_of_fan(fan_or_subfan) -> int:
    """Alternating sum over dimensions of the number of cones."""
    if isinstance(fan_or_subfan, Fan):
        buckets = all_cones(fan_or_subfan)
    else:
        buckets = fan_or_subfan.cones_by_dim
    return sum((-1) ** j * len(bucket) for j, bucket in enumerate(buckets))


def cone_multiplicity(fan: Fan, cone: Cone) -> int:
    """Index of the lattice spanned by the cone's rays in its saturation.

    Equals the gcd of the maximal minors of the ray matrix; for a
    full-dimensional simplicial cone this is |det| of the rays.
    """
    idx = sorted(cone.ray_indices)
    if not idx:
        return 1
    vectors = [fan.rays[i] for i in idx]
    k = len(vectors)
    if rank(vectors) != k:
        raise NotSimplicialError(f"cone {sorted(cone.ray_indices)} is not simplicial")
    g = 0
    for cols in combinations(range(fan.dim), k):
        minor = det([[v[c] for c in cols] for v in vectors])
        g = math.gcd(g, abs(int(minor)))
    return g
