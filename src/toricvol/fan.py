"""Rational fans: validation, faces, completeness, subfans, multiplicities.

A fan is stored as a primitive integer ray list plus the ray-index sets
of its maximal cones.  All derived structure (face lattice, facet
pairing, subfans) is computed exactly.  Validation checks strong
convexity and extreme rays by exact LP only on cones whose generators
are dependent (independent generators settle both with one rank).
Every LP here is one capped-gap LP of ``lp`` (``gap_lp``: a functional
with some rows at or above a gap t <= 1 and the rest at or above 0),
solved in one phase from the slack basis.  A cone list that passes
``_glued_cover_once`` (full-dimensional simplicial cones glued facet
to facet on opposite sides, covering one generic point exactly once)
is a complete simplicial fan by the proof in that docstring and needs
no further test, which is how every complete simplicial fan is
validated with no LP and no rank: the test runs first, and the fan it
accepts starts with ``Fan.complete`` and ``Fan.simplicial`` set, so its
faces are every subset of its cones' rays, each of dimension its ray
count.  Every other cone list ranks each cone and solves one
relative-interior LP per pair of maximal cones to check that they meet
in a common face; a face test of a non-simplicial cone is one LP
too, the candidate face's rays held at 0 and the others sharing one
gap.

A fan's own facts have one holder each, a field computed on first read:
``Fan.faces`` (every face with its dimension), ``Fan.complete`` and
``Fan.simplicial``.  ``all_cones``, ``is_complete`` and
``is_simplicial`` return them.  ``Fan.complete`` ranks every maximal
cone before it builds a face, so a list with a lower-dimensional cone
solves no face LP.

Every divisor-free table of a ray or normal set lives on its one
``_Configuration``, each built on first read: the kernel direction of
every (n - 1)-subset, read by the glued test, in validation and in the
chamber search, and by the cocircuit patterns; the integer inverse of
every basis, for the region vertices, the Cartier data and the chamber
systems of the modules above; the cocircuit patterns, for the
boundedness of ``regions``; and per basis the coordinates of every
vector in it with the mask of those in its cone, for the chamber
search.  A fan owns the configuration of its rays from construction
(``Fan.configuration``), and validation's glued test fills its kernels,
so each ``_kernel_direction`` runs at most once per subset and fan.  A
region of its own normals gets its configuration from its memo
(``_configuration``).

Fan objects are immutable after validation and every operation here is
a pure function, so values may be shared freely between threads; two
threads that read a fact first compute the same value.  The per-fan
memo (``Fan.memo``) is only ever filled with idempotently recomputable
values; one of them, the last-divisor slot of ``regions.region_sum``,
is a mutable entry that a new divisor replaces in one assignment, and
the type cells of ``regions`` are added to and filled in once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import InvalidFanError, NotSimplicialError
from .linalg import _adjugate, _kernel_direction, det, dot, rank
from .lp import cone_contains, is_face_subset, is_pointed, relative_interior_functional


def _is_int(value) -> bool:
    """Whether the value is an int and not a bool, the one spelling of an integer input."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rays(fan: Fan, rays) -> frozenset[int]:
    """The entries as a frozenset; ValueError unless each is a ray index 0..k-1 of the fan.

    Ints only: True and 1.0 equal 1 but are no ray index.
    """
    rays = tuple(rays)
    odd = [i for i in rays if not _is_int(i)]
    if odd:
        raise ValueError(f"ray indices {odd!r} are not integers")
    bad = sorted({i for i in rays if not 0 <= i < len(fan.rays)})
    if bad:
        raise ValueError(f"ray indices {bad} are not among the fan's {len(fan.rays)} rays")
    return frozenset(rays)


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
        # The configuration of its rays binds the memo to them (``_configuration``).
        self._memo: dict = {"configuration": _Configuration(self.rays, dim)}

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    @property
    def configuration(self) -> _Configuration:
        """The ``_Configuration`` of the rays, there from construction; validation fills its kernels."""
        return self._memo["configuration"]

    @cached_property
    def faces(self) -> tuple[tuple[Cone, ...], ...]:
        """Every face of every maximal cone, grouped by dimension, each bucket sorted by rays."""
        found: dict[frozenset[int], Cone] = {}
        for mc in self.max_cones:
            for face, dim in _faces_of_cone(self, mc).items():
                if face not in found:
                    found[face] = Cone(face, dim)
        grouped: list[list[Cone]] = [[] for _ in range(self.dim + 1)]
        for cone in found.values():
            grouped[cone.dim].append(cone)
        for bucket in grouped:
            bucket.sort(key=lambda c: sorted(c.ray_indices))
        return tuple(tuple(bucket) for bucket in grouped)

    @cached_property
    def complete(self) -> bool:
        """Whether the support is the whole space, by exact facet pairing.

        Every maximal cone must have full rank, checked before any face
        is built, and every facet must lie in exactly two of them.
        """
        if not self.max_cones or any(rank([self.rays[i] for i in mc]) != self.dim for mc in self.max_cones):
            return False
        for facet in self.faces[self.dim - 1]:
            if sum(facet.ray_indices <= mc for mc in self.max_cones) != 2:
                return False
        return True

    @cached_property
    def simplicial(self) -> bool:
        """Whether the rays of every maximal cone are linearly independent."""
        return all(rank([self.rays[i] for i in mc]) == len(mc) for mc in self.max_cones)

    def memo(self, key, compute):
        """Write-once cache of divisor-free tables; concurrent duplicate computes are benign.

        The fan's own facts are not kept here but as its fields
        (``faces``, ``complete``, ``simplicial``).  A key is a kind, or a
        tuple whose first entry is the kind, and there are eleven kinds:
        ``"configuration"`` and ``"arrangement"``, the one
        ``_Configuration`` and ``regions._Arrangement`` of the rays (the
        first there from the start and binding the memo to the rays,
        ``_configuration``; the second keeping the type cells, each weak
        mask's boundedness and the held divisor of
        ``regions._held_slot``); ``"triangulation"``, ``"profile"`` and
        ``"euler"`` of ``homology`` and ``cohomology``; ``"cech_cover"``
        and ``"cech"`` of the Čech oracle; and ``"gkz_system"``,
        ``"nef_plan"``, ``"maximal_chambers"`` and ``"sigma_fan"`` of
        ``gkz``.  Each is read again by the calls of one fan, or costs
        much to recompute.  Every key is written once; the two
        containers above are filled later.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class _Configuration:
    """The divisor-free tables of one vector set (a fan's rays, or a region's normals), each built on first read.

    ``kernel`` gives the kernel direction of a sorted (dim - 1)-index
    tuple, ``linalg._kernel_direction`` of its vectors (a nonzero integer
    u orthogonal to them all, or None when they are dependent), kept in
    ``kernels``.  ``table`` is (common, inverses, sizes): ``inverses``
    maps each sorted index tuple whose dim vectors are independent, in
    lexicographic order, to the integer matrix A with A / common the
    inverse of the matrix whose rows are those vectors
    (``linalg._adjugate``, rescaled), common > 0 the lcm of the basis
    determinants, so A . b / common is the point u with <u, v_i> = b_i on
    the basis; ``sizes`` maps each tuple to |det| of its matrix.
    ``patterns`` are the cocircuit sign patterns.  ``coordinates`` gives
    each vector's coordinates in a basis and ``inside`` the vectors in
    its closed cone, kept per basis in ``frames``.  Concurrent duplicate
    computes are benign.
    """

    def __init__(self, vectors, dim: int):
        self.vectors, self.dim = vectors, dim
        self.kernels: dict = {}
        self.frames: dict = {}

    def kernel(self, combo):
        """The kernel direction of the vectors at the sorted (dim - 1)-index tuple, computed once."""
        if combo not in self.kernels:
            self.kernels[combo] = _kernel_direction([self.vectors[i] for i in combo], self.dim)
        return self.kernels[combo]

    @cached_property
    def table(self):
        """(common, inverses, sizes) of every invertible dim-subset of the vectors."""
        found = {}
        for combo in combinations(range(len(self.vectors)), self.dim):
            inverse = _adjugate([self.vectors[i] for i in combo])
            if inverse is not None:
                found[combo] = inverse
        common = math.lcm(*(size for _, size in found.values()))
        inverses = {
            combo: tuple(tuple(x * (common // size) for x in row) for row in adjugate)
            for combo, (adjugate, size) in found.items()
        }
        return common, inverses, {combo: size for combo, (_, size) in found.items()}

    @cached_property
    def patterns(self) -> tuple[tuple[int, int], ...]:
        """The sign patterns (pos, neg) of the vectors' cocircuits, as bitmasks.

        Each kernel line u of dim - 1 independent vectors (``kernel``)
        gives the rows with <u, v> > 0 (pos) and < 0 (neg), once for u
        and once for -u.  The vectors span the space exactly when some
        pattern is not (0, 0): an independent dim-subset gives one, and
        if they span less, every u is orthogonal to them all.  Then the
        single pattern (0, 0) stands for every pattern.
        """
        patterns = set()
        for combo in combinations(range(len(self.vectors)), self.dim - 1):
            u = self.kernel(combo)
            if u is None:
                continue
            pos = neg = 0
            for i, vector in enumerate(self.vectors):
                value = sum(map(mul, u, vector))
                if value > 0:
                    pos |= 1 << i
                elif value < 0:
                    neg |= 1 << i
            patterns.add((pos, neg))
            patterns.add((neg, pos))
        return tuple(sorted(patterns - {(0, 0)})) or ((0, 0),)

    def coordinates(self, basis) -> tuple[tuple[int, ...], ...]:
        """Per vector, its coordinates in the basis times ``common``: column j of A dotted with it.

        Entry j is the coefficient of basis vector j, so the vector is
        sum_j x_j v_(basis[j]) / common.  KeyError unless ``table`` holds
        the basis.
        """
        return self._frame(basis)[0]

    def inside(self, basis) -> int:
        """The bitmask of the vectors in the closed cone of the basis, every coordinate >= 0; 0 for no basis."""
        return self._frame(basis)[1] if basis in self.table[1] else 0

    def _frame(self, basis):
        """(coordinates, inside) of a basis, computed once."""
        frame = self.frames.get(basis)
        if frame is None:
            columns = tuple(zip(*self.table[1][basis]))
            coordinates = tuple(tuple(sum(map(mul, column, v)) for column in columns) for v in self.vectors)
            inside = sum(1 << i for i, x in enumerate(coordinates) if min(x) >= 0)
            frame = self.frames[basis] = (coordinates, inside)
        return frame


def _configuration(vectors, dim: int, memo) -> _Configuration:
    """The memo's ``_Configuration``, made on the vectors on first use; ValueError if it serves others.

    One memo serves one vector set: its configuration and its
    ``regions._Arrangement`` are kept under their kind alone.  A fan's
    memo starts with the configuration of its rays, so a region given it
    with other normals is refused before anything is built on them.
    """
    configuration = memo("configuration", lambda: _Configuration(vectors, dim))
    if (configuration.vectors, configuration.dim) != (vectors, dim):
        raise ValueError("the memo holds the facts of other normals; pass a memo of its own")
    return configuration


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


def _glued_cover_once(configuration: _Configuration, cones) -> bool:
    """Whether the cones pass a combinatorial test that makes them a complete fan.

    The test, in integers only, accepts when

    (a) every cone has ``dim`` linearly independent rays;
    (b) every facet F (the cone's rays less one) is a facet of exactly
        two cones;
    (c) the two rays opposite F lie strictly on opposite sides of the
        hyperplane <nu_F, x> = 0, nu_F the integer kernel vector of F's
        rays, read off the rays' configuration (``_Configuration.kernel``);
    (d) the point g = (1, t, ..., t^(dim-1)), t = 1 + max |nu_F entry|,
        lies in exactly one cone.

    g lies on no facet hyperplane: <nu_F, g> is a nonzero integer
    polynomial in t whose leading coefficient is at least 1 and whose
    other coefficients are at most t - 1, all in absolute value, so by
    Cauchy's bound all its roots are smaller than t in absolute value.
    Hence g is in a cone exactly when each <nu_F, g> has the sign of
    <nu_F, r> for the ray r opposite F.

    Proof that an accepted list is a complete fan (dim >= 1, dim = 1
    included: there the only facet is the empty set, nu = (1,) and its
    hyperplane is {0}).

    1. One count.  Off the facet hyperplanes let c(x) be the number of
       cones that contain x.  Every cone boundary lies in these
       hyperplanes, so c is constant on each open cell they cut out.
       Two cells with a common wall in a hyperplane H meet at points x
       of H on no other facet hyperplane and in no span of dim - 2 rays
       of a cone (finitely many subspaces of dimension at most dim - 2;
       none for dim = 1).  A cone with such an x on its boundary has x
       in the relative interior of exactly one of its facets F, and F
       spans H.  By (b) and (c) F has one cone on each side of H, so
       crossing H at x enters one cone for each cone it leaves, and c
       agrees on the two cells.  A generic segment crosses the
       hyperplanes one at a time at such points, so every cell is
       reached from every other: c is constant, and c = 1 by (d).
    2. Union and interiors.  The closed cones cover the dense set of
       points off the hyperplanes, so their union is R^dim.  Two cones
       of the list (or two copies of one) with a common interior point
       share an open set, hence a point off the hyperplanes counted
       twice; so their interiors are disjoint and no cone repeats.
    3. Common faces.  Disjoint interiors alone do not give these: a
       cone could meet another in part of a facet.  Gluing facet to
       facet does.  Take x in a cone sigma and let S be the rays with a
       positive coefficient in x, so x is in the relative interior of
       the face cone(S).  Modulo span(S) the cones whose rays contain
       S become full-dimensional simplicial cones, whose facets are the
       images of the facets F that contain S; both cones of such an F
       contain S, and nu_F vanishes on span(S), so (b) and (c) hold
       for them and step 1 gives them a constant count c_S >= 1
       (sigma is one of them; with dim rays in S the quotient is a
       point and c_S counts the cones on S).  Since the coefficients
       on S stay positive near x, a point y near x lies in such a cone
       exactly when its image lies in that cone's image.  So the cones
       on S already cover every point near x off the hyperplanes c_S
       times; as c = 1, c_S = 1 and no other cone holds such a point.
       A cone tau that contains x has interior points, hence points off
       the hyperplanes, in every neighbourhood of x, so tau's rays
       contain S; they are independent, so S is tau's support of x as
       well.  Hence every point of sigma & tau lies in the cone over
       the common rays, and sigma & tau is that cone: a common face,
       equal to neither cone by step 2.

    So every pair of cones meets in a common proper face, and the pair
    loop of ``fan_diagnostics`` would report nothing.  By (a) the fan is
    simplicial too, and its faces are the subsets of its cones.
    """
    dim, rays = configuration.dim, configuration.vectors
    normals: dict[frozenset[int], list[int]] = {}
    sides: dict[frozenset[int], list[bool]] = {}
    for cone in cones:
        if len(cone) != dim:
            return False
        for i in cone:
            facet = cone - {i}
            if facet not in normals:
                normal = configuration.kernel(tuple(sorted(facet)))
                if normal is None:
                    return False
                normals[facet], sides[facet] = normal, []
            side = dot(normals[facet], rays[i])
            if side == 0:
                return False
            sides[facet].append(side > 0)
    if any(sorted(s) != [False, True] for s in sides.values()):
        return False
    t = 1 + max((abs(x) for normal in normals.values() for x in normal), default=0)
    g = [t**j for j in range(dim)]

    def above(cone, i, x):
        return dot(normals[cone - {i}], x) > 0

    return sum(all(above(c, i, g) == above(c, i, rays[i]) for i in c) for c in cones) == 1


def fan_diagnostics(dim: int, rays, max_cones) -> tuple[list[str], Fan | None]:
    """Validate raw fan data.

    Returns the diagnostic list together with the Fan built from the
    (primitivized) data when no hard violation was found.  Non-primitive
    input rays are reported but repaired; everything else is fatal,
    starting with a dimension that is not an int of at least 1, which
    ends the checks at once.  A ray entry or cone index that is not an
    int (bools included) is fatal too, never rounded or parsed.

    After the checks on rays and cone indices, cones that pass
    ``_glued_cover_once`` form a complete simplicial fan, so no single
    cone or pair of them can be reported: the per-cone rank and LP
    checks and the pair loop are skipped, and such a fan is validated
    with no LP and no rank.  Its ``Fan.complete`` and ``Fan.simplicial``
    are set to True, and its configuration starts with the kernels the
    test read.  Every other cone list
    (incomplete, non-simplicial or invalid) runs the per-cone checks
    and the pair loop, one relative-interior LP per pair of cones, with
    its diagnostics in the same order.
    """
    if not _is_int(dim):
        return [f"dimension {dim!r} is not an integer"], None
    if dim < 1:
        return [f"dimension {dim} is not positive"], None
    diags: list[str] = []
    fatal = False
    clean_rays: list[tuple[int, ...]] = []
    for i, ray in enumerate(rays):
        ray = tuple(ray)
        odd = [v for v in ray if not _is_int(v)]
        if odd:
            problem = f"has entries {odd!r} that are not integers"
        elif len(ray) != dim:
            problem = f"has length {len(ray)}, expected {dim}"
        elif not any(ray):
            problem = "is zero"
        else:
            problem = None
        if problem:
            diags.append(f"ray {i} {problem}")
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
        indices = list(raw)
        odd = [i for i in indices if not _is_int(i)]
        if odd:
            diags.append(f"cone {j} has indices {odd!r} that are not integers")
            fatal = True
            indices = [i for i in indices if _is_int(i)]
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

    fan = Fan(dim, clean_rays, cones)
    glued = _glued_cover_once(fan.configuration, cones)
    for j, cone in enumerate(() if glued else cones):
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

    for a, b in () if glued else combinations(range(len(cones)), 2):
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
    if glued:
        fan.complete = fan.simplicial = True
    return diags, fan


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


def _faces_of_cone(fan: Fan, cone_rays: frozenset[int]) -> dict[frozenset[int], int]:
    """Every face of a maximal cone with its dimension.

    The rays of a simplicial fan (``Fan.simplicial``) or of a cone of
    full rank are independent, so every subset spans a face whose
    dimension is its ray count; only the faces of a dependent cone are
    tested by LP and ranked.
    """
    gens = {i: fan.rays[i] for i in cone_rays}
    idx = sorted(cone_rays)
    if fan.simplicial or rank([gens[i] for i in idx]) == len(idx):
        return {frozenset(s): r for r in range(len(idx) + 1) for s in combinations(idx, r)}
    faces = {frozenset(): 0}
    for r in range(1, len(idx) + 1):
        for sub in combinations(idx, r):
            rest = [gens[i] for i in idx if i not in sub]
            if is_face_subset([gens[i] for i in sub], rest, fan.dim):
                faces[frozenset(sub)] = rank([gens[i] for i in sub])
    return faces


def all_cones(fan: Fan) -> tuple[tuple[Cone, ...], ...]:
    """Every face of every maximal cone, grouped by dimension: ``Fan.faces``."""
    return fan.faces


def is_complete(fan: Fan) -> bool:
    """Whether the support is the whole space: ``Fan.complete``."""
    return fan.complete


def is_simplicial(fan: Fan) -> bool:
    """Whether every maximal cone has independent rays: ``Fan.simplicial``."""
    return fan.simplicial


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
    """All cones of the fan whose ray set lies inside ``ray_subset``.

    Built afresh on each call and not memoized: the one production
    caller, ``cohomology._euler_weight``, reads ``_subfan`` and keeps
    its own integer result.  Raises ValueError on an entry that is no
    ray index of the fan, checked on the raw entries on every call: a
    frozenset would merge True into 1.
    """
    return _subfan(fan, _check_rays(fan, ray_subset))


def _subfan(fan: Fan, subset: frozenset[int]) -> Subfan:
    """``subfan`` of a frozenset of ray indices; no check."""
    grouped = tuple(
        tuple(c for c in bucket if c.ray_indices <= subset) for bucket in fan.faces
    )
    return Subfan(fan.dim, subset, grouped)


def chi_of_fan(fan_or_subfan) -> int:
    """Alternating sum over dimensions of the number of cones."""
    if isinstance(fan_or_subfan, Fan):
        buckets = fan_or_subfan.faces
    else:
        buckets = fan_or_subfan.cones_by_dim
    return sum((-1) ** j * len(bucket) for j, bucket in enumerate(buckets))


def cone_multiplicity(fan: Fan, cone: Cone) -> int:
    """Index of the lattice spanned by the cone's rays in its saturation.

    Equals the gcd of the maximal minors of the ray matrix; for a
    full-dimensional simplicial cone this is |det| of the rays.  Raises
    ValueError unless every index of the cone is a ray index of the fan.
    """
    idx = sorted(_check_rays(fan, cone.ray_indices))
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
