"""LP formulations the library no longer runs: test-only referees.

The library decides region boundedness from cocircuit sign patterns
(``toricvol.regions``), finds relative-interior functionals with a
2k-row capped-gap LP (``toricvol.lp``), skips the
pointedness and extreme-ray LPs on cones with independent generators
and skips the pair LPs on complete simplicial fans (``toricvol.fan``),
certifies dimension-3 chamber candidates with the same integer test,
and decides each candidate's projectivity, and its sample divisor, by
one LP over the candidate's own chamber condition system
(``toricvol.gkz``).  This module keeps each older LP formulation once,
so that tests can check the production answers against it, on the
general two-phase LP of ``general_lp``, which shares no kernel with the
library's one-form simplex:

* ``gordan_is_bounded``: one Gordan-alternative LP per weak set;
* ``relative_interior_3k``: the 3k-row LP on free (w, t);
* ``all_lp_diagnostics``: ``fan_diagnostics`` with every cone checked by
  LP and every pair separated by ``relative_interior_3k``;
* ``max_over_cone_is_zero``: boundedness of one objective over a cone;
* ``pairwise_lp_fans_on_rays_3d``: the dimension-3 facet-matching
  search that keeps a partial fan only while every pair of its cones
  meets in a common face by ``relative_interior_3k``;
* ``projective_sample``: the projectivity LP on one functional per
  cone and one value per used ray (cones·n + k variables), with the
  sample divisor built from its point.
"""

from fractions import Fraction
from itertools import combinations

from toricvol.errors import ToricError
from toricvol.fan import Fan, primitivize
from toricvol.linalg import det, dot, rank
from general_lp import OPTIMAL, cone_contains, feasible_point, is_pointed, solve_lp


def gordan_is_bounded(normals, weak, dim) -> bool:
    """Whether {u : <u, r> >= 0} is {0} for r = v on weak rows, -v off them.

    By Gordan's alternative it is {0} exactly when the rows span the
    space and some lambda >= 1 has sum lambda_i r_i = 0; one exact LP
    decides the latter.
    """
    rows = [v if is_weak else tuple(-x for x in v) for v, is_weak in zip(normals, weak)]
    if not rows or rank(rows) < dim:
        return False
    # lambda = 1 + mu with mu >= 0: sum mu_i r_i = -sum r_i.
    a_eq = [[r[j] for r in rows] for j in range(dim)]
    b_eq = [-sum(r[j] for r in rows) for j in range(dim)]
    return feasible_point(a_eq=a_eq, b_eq=b_eq, nonneg=True) is not None


def max_over_cone_is_zero(objective, rows) -> bool:
    """Whether sup of ``objective . w`` over ``{w : row.w >= 0}`` is 0.

    Over a cone the supremum is either 0 or +infinity, so this reports
    boundedness of the objective.
    """
    if not rows:
        return all(v == 0 for v in objective)
    a_ub = [[-v for v in r] for r in rows]
    b_ub = [0] * len(rows)
    res = solve_lp(objective, a_ub, b_ub, maximize=True)
    return res.status == OPTIMAL


def relative_interior_3k(rows):
    """Relative-interior point of {w : row . w >= 0}, by the 3k-row LP.

    Variables (w, t), both free: maximize sum t_i under
    t_i - row_i . w <= 0, t_i <= 1 and -t_i <= 0.  Returns (w, implicit).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return (), []
    dim = len(rows[0])
    k = len(rows)
    a_ub = []
    b_ub = []
    for i, r in enumerate(rows):
        row = [-v for v in r] + [0] * k
        row[dim + i] = 1
        a_ub.append(row)
        b_ub.append(0)
        cap = [0] * (dim + k)
        cap[dim + i] = 1
        a_ub.append(cap)
        b_ub.append(1)
        low = [0] * (dim + k)
        low[dim + i] = -1
        a_ub.append(low)
        b_ub.append(0)
    res = solve_lp([0] * dim + [1] * k, a_ub, b_ub, maximize=True)
    if res.status != OPTIMAL:
        raise ToricError(f"relative-interior LP ended {res.status}")
    w = res.point[:dim]
    return w, [i for i, r in enumerate(rows) if dot(r, w) == 0]


def _intersection_faces_3k(rays, c1, c2):
    g1, g2 = sorted(c1), sorted(c2)
    w, _ = relative_interior_3k(
        [rays[i] for i in g1] + [tuple(-v for v in rays[i]) for i in g2]
    )
    return {i for i in g1 if dot(rays[i], w) == 0}, {i for i in g2 if dot(rays[i], w) == 0}


def all_lp_diagnostics(dim, rays, max_cones):
    """``fan_diagnostics`` as it was: an LP for every cone and every pair.

    Returns (diagnostics, (rays, max_cones) or None), the Fan's data in
    place of the Fan.  Repeated ray indices inside a cone are reported
    as in the library, since the old code dropped them silently.
    """
    diags = []
    fatal = False
    clean_rays = []
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
    seen = {}
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
        fa, fb = _intersection_faces_3k(clean_rays, cones[a], cones[b])
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
    fan = Fan(dim, clean_rays, cones)
    return diags, (fan.rays, fan.max_cones)


def pairwise_lp_fans_on_rays_3d(rays, subset):
    """The complete simplicial fans on exactly the rays of ``subset``, in dim 3.

    Grows cone sets from the cones on the smallest ray, always filling
    the least open facet (a facet of one chosen cone only) with a cone
    whose opposite ray is strictly on the other side; a cone joins only
    if it meets every chosen cone in a common face, one LP per pair.  A
    set with no open facet that uses every ray of the subset is a fan.
    """
    idx = sorted(subset)
    candidates = [frozenset(c) for c in combinations(idx, 3) if rank([rays[i] for i in c]) == 3]

    def side(facet, other):
        f = sorted(facet)
        return det([rays[f[0]], rays[f[1]], rays[other]])

    results = set()
    visited = set()

    def grow(chosen):
        if chosen in visited:
            return
        visited.add(chosen)
        counts = {}
        for cone in chosen:
            for x in cone:
                counts[cone - {x}] = counts.get(cone - {x}, 0) + 1
        if any(v > 2 for v in counts.values()):
            return
        opens = [f for f, c in counts.items() if c == 1]
        if not opens:
            if set().union(*chosen) == set(idx):
                results.add(chosen)
            return
        facet = min(opens, key=sorted)
        owner = next(c for c in chosen if facet < c)
        old_side = side(facet, next(iter(owner - facet)))
        for cand in candidates:
            if not facet < cand or cand in chosen:
                continue
            new_side = side(facet, next(iter(cand - facet)))
            if new_side == 0 or (new_side > 0) == (old_side > 0):
                continue
            faces = (_intersection_faces_3k(rays, cand, c) for c in chosen)
            if all(f1 == f2 for f1, f2 in faces):
                grow(chosen | {cand})

    for seed in candidates:
        if idx[0] in seed:
            grow(frozenset({seed}))
    return results


def projective_sample(fan, cones):
    """A divisor strictly inside the candidate's chamber, by the functional LP, or None.

    One linear functional u_s per maximal cone and one value psi_rho per
    used ray: <u_s, v_rho> = psi_rho on the cone's own rays and
    <u_s, v_rho> >= psi_rho + 1 on every other used ray.  The unit gap
    loses no generality since strict feasibility is scale-invariant.
    The sample is -psi on the used rays and 1 - <u_s, v_rho> on every
    other ray, with s a cone whose span holds it.
    """
    cones = [sorted(c) for c in cones]
    ray_list = sorted({i for c in cones for i in c})
    pos = {rho: k for k, rho in enumerate(ray_list)}
    n = fan.dim
    nvars = len(cones) * n + len(ray_list)
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for s, cone in enumerate(cones):
        for rho in ray_list:
            row = [Fraction(0)] * nvars
            for j in range(n):
                row[s * n + j] = Fraction(fan.rays[rho][j])
            if rho in cone:
                row[len(cones) * n + pos[rho]] = Fraction(-1)
                a_eq.append(row)
                b_eq.append(Fraction(0))
            else:
                neg = [-v for v in row]
                neg[len(cones) * n + pos[rho]] = Fraction(1)
                a_ub.append(neg)  # psi_rho + 1 - <u_s, v_rho> <= 0
                b_ub.append(Fraction(-1))
    point = feasible_point(a_ub, b_ub, a_eq, b_eq, nvars=nvars)
    if point is None:
        return None
    us = [point[s * n : (s + 1) * n] for s in range(len(cones))]
    coeffs = []
    for rho, ray in enumerate(fan.rays):
        if rho in pos:
            coeffs.append(-point[len(cones) * n + pos[rho]])
        else:
            s = next(s for s, c in enumerate(cones) if cone_contains([fan.rays[i] for i in c], ray))
            coeffs.append(1 - dot(us[s], ray))
    return tuple(coeffs)
