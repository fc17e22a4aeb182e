"""Shattering checks, exact VC dimension, unions, and product loss classes.

The engine works on integer bit columns: for each domain point j,
``cls.columns[j]`` has bit i set iff member i labels point j with 1; a
class builds them on first read and keeps them.  A subset is shattered iff
progressively splitting the member set by each column leaves every cell
nonempty.  ``vc_dimension`` finds the exact VC dimension by the
branch-and-bound search its docstring states, and a node budget degrades
its answer to a verified lower bound instead of running forever.
``count_shattered`` counts the shattered sets of each size up to a given
one by a second depth-first search, which passes only the extending points
down; it is a separate call, costlier than the search, with a node budget
of its own, and a report holds only the search's answer.

The two product loss classes are one class up to relabelling.  Let sigma
swap the label of every product point, (x, x*, y) to (x, x*, 1-y).  Read
through sigma, each member of ``build_f_class(H, Phi)`` is the complement
of the ``build_aux_class(H, Phi)`` member of the same (h, phi): h errs at
1-y iff it is right at y, and phi's flag ignores y.  Complements and point
permutations keep shattering, so sigma maps the shattered sets of F onto
those of aux: VC(F) = d_a, ``count_shattered`` gives equal counts, and
|F| = |aux| for every H and Phi.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import or_
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (
    DomainMismatchError,
    Hypothesis,
    HypothesisClass,
    InputError,
    product_domain,
    product_index,
    product_points,
)

DEFAULT_NODE_BUDGET = 10_000_000


class VcReport(NamedTuple):
    """Outcome of a VC computation.

    ``exact`` is False only when the search stopped at the node budget;
    ``vc`` is then a verified lower bound.  ``witness`` is the
    lexicographically first shattered set of size ``vc``.  ``nodes`` counts
    the candidates the search tested, plus one per domain point for the
    columns, built or not.  Orbit drops move ``nodes``, and where a budgeted
    search stops, only on classes that carry symmetries; ``vc`` and
    ``witness`` of an exact search never depend on them.  A named tuple:
    two reports are equal, and hash alike, iff these four fields are, and a
    report also equals the plain tuple of its fields; the shattered-set
    counts are not part of a report (see ``count_shattered``).
    """

    vc: int
    exact: bool
    witness: tuple[int, ...]
    nodes: int

    def to_json(self) -> dict:
        return {"vc": self.vc, "exact": self.exact, "witness": list(self.witness)}


class _BudgetExhausted(Exception):
    """A search or a count passed its node budget."""


def _split(cells: list[int], col: int, floor: int) -> Optional[list[int]]:
    """Both halves of every cell split by ``col``, or None if one is too small."""
    out = []
    for c in cells:
        a = c & col
        if a.bit_count() < floor:
            return None
        b = c ^ a
        if b.bit_count() < floor:
            return None
        out.append(a)
        out.append(b)
    return out


def _active(cls: HypothesisClass) -> tuple[int, list[int]]:
    """The member set and the points whose column is non-constant.

    Only these points can join a shattered set.
    """
    if len(cls) == 0:
        raise InputError("class must be nonempty")
    full = (1 << len(cls)) - 1
    return full, [p for p, col in enumerate(cls.columns) if col != 0 and col != full]


def vc_dimension(
    cls: HypothesisClass, budget: Optional[int] = DEFAULT_NODE_BUDGET
) -> VcReport:
    """VC dimension by branch-and-bound search for shattered sets.

    The search runs over the points whose column is non-constant, in
    increasing order, for target sizes k = 1, 2, ... up to the smaller of
    log2 |class| and the number of those points.  Depth first, it carries
    the cell partition of the members by the points chosen so far; the
    first k-set it reaches is the lex-first shattered one, and it ends at
    the first k with none.  Adding a point with ``need`` points still to
    place (itself included) needs both halves of every cell to hold
    2^(need-1) members.  A point that fails this at a node fails it at
    every descendant, whose cells refine the node's while the floor at most
    halves per added point.  So a node walks its candidates once: it splits
    them lazily up to its first descent, and if that descent fails, it
    tests each later candidate once, keeps the halves of those that pass,
    and walks on over them alone, handing each survivor just the survivors
    after it (forward checking).  The last point (``need`` 1) is a plain
    scan: the first later candidate whose column cuts every cell in two
    completes the set, and its halves are never built.

    On a class with symmetries, ``cls.orbits[p]`` lists the points in the
    orbit of point p, or is () when p's orbit is p alone; a class without
    them runs the search above.  When root p's descent fails at size k,
    every earlier root has failed too, so no shattered k-set contains p; by
    symmetry none contains an image of p, and no larger set does either.
    p's whole orbit is then dropped from the remaining roots and from every
    later size.

    ``nodes`` starts at the number of domain points and counts one per
    candidate tested after that, by a split or by the last-point scan.
    Passing the node budget returns the largest set found so far as a lower
    bound with ``exact=False``; ``is_shattered`` verifies a claimed set.  A
    budget below 1 is an ``InputError``; ``None`` means no limit.
    """
    if budget is not None and budget < 1:
        raise InputError(f"node budget must be at least 1, got {budget}")
    full, active = _active(cls)
    cols = cls.columns
    orbits = cls.orbits if cls.symmetries else None
    limit = math.inf if budget is None else budget
    nodes = cls.domain.size
    chosen: list[int] = []
    # points whose orbit held a failed root; stays empty without orbits
    dead: set[int] = set()

    def extend(cands: Sequence[int], start: int, cells: list[int], need: int) -> bool:
        nonlocal nodes
        if need == 1:
            # the last point only has to cut every cell in two: no cells are built
            for p in cands[start:]:
                nodes += 1
                if nodes > limit:
                    raise _BudgetExhausted
                col = cols[p]
                for c in cells:
                    a = c & col
                    if not a or a == c:
                        break
                else:
                    chosen.append(p)
                    return True
            return False
        floor = 1 << (need - 1)
        # the forward check's survivors and their halves, in candidate order
        halves: dict[int, list[int]] = {}
        while start <= len(cands) - need:
            p = cands[start]
            start += 1
            if halves:
                nxt = halves[p]
            else:
                nodes += 1
                if nodes > limit:
                    raise _BudgetExhausted
                nxt = _split(cells, cols[p], floor)
                if nxt is None:
                    continue
            chosen.append(p)
            if extend(cands, start, nxt, need - 1):
                return True
            chosen.pop()
            if not chosen and orbits and orbits[p]:
                dead.update(orbits[p])
                cands, start = [q for q in cands[start:] if q not in dead], 0
            if halves:
                continue
            # forward check: each later candidate is tested once, here;
            # ``spare`` counts the failures that still leave ``need`` of them
            spare = len(cands) - start - need
            if spare < 0:
                return False
            for q in cands[start:]:
                nodes += 1
                if nodes > limit:
                    raise _BudgetExhausted
                nxt = _split(cells, cols[q], floor)
                if nxt is not None:
                    halves[q] = nxt
                elif spare:
                    spare -= 1
                else:
                    return False
            cands, start = list(halves), 0
        return False

    best: tuple[int, ...] = ()
    try:
        for k in range(1, min(len(cls).bit_length() - 1, len(active)) + 1):
            if not extend([p for p in active if p not in dead], 0, [full], k):
                break
            best = tuple(chosen)
            chosen.clear()
    except _BudgetExhausted:
        return VcReport(len(best), False, best, nodes)
    return VcReport(len(best), True, best, nodes)


def count_shattered(
    cls: HypothesisClass, top: int, budget: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Number of shattered sets of each size 0..top, each set visited once.

    Counts over the class's non-constant columns in point order; sizes past
    the VC dimension count 0.  A shattered set extends by a later point iff
    that point's column cuts every cell of the set's partition in two.  A
    point that fails to extend a set fails for all its supersets, so each
    set hands its children only the points that extend it.  Sets of size
    ``top`` are counted without building their cells.

    The count takes one node per candidate tested against a visited set's
    cells, added once per set before its tests, and returns None as soon as
    they pass ``budget``.  A budget below 1 is an ``InputError``; ``None``
    means no limit.
    """
    if top < 0:
        raise InputError(f"top must be >= 0, got {top}")
    if budget is not None and budget < 1:
        raise InputError(f"node budget must be at least 1, got {budget}")
    full, active = _active(cls)
    limit = math.inf if budget is None else budget
    nodes = 0
    counts = [0] * (top + 1)

    def visit(cells: list[int], cands: Sequence[int], size: int) -> None:
        nonlocal nodes
        counts[size] += 1
        if size == top:
            return
        nodes += len(cands)
        if nodes > limit:
            raise _BudgetExhausted
        last = size + 1 == top
        kept: list[int] = []
        splits: list[list[int]] = []
        for col in cands:
            nxt = []
            for c in cells:
                a = c & col
                if not a or a == c:
                    break
                if not last:
                    nxt.append(a)
                    nxt.append(c ^ a)
            else:
                kept.append(col)
                splits.append(nxt)
        if last:
            counts[top] += len(kept)
            return
        for j, nxt in enumerate(splits):
            visit(nxt, kept[j + 1 :], size + 1)

    try:
        visit([full], [cls.columns[p] for p in active], 0)
    except _BudgetExhausted:
        return None
    return tuple(counts)


def is_shattered(cls: HypothesisClass, subset: Sequence[int]) -> bool:
    """True iff the class realizes all 2^|subset| labelings on the subset."""
    pts = tuple(subset)
    if len(set(pts)) != len(pts):
        raise InputError(f"subset has duplicate indices: {pts}")
    for p in pts:
        if not 0 <= p < cls.domain.size:
            raise DomainMismatchError(
                f"index {p} outside domain of size {cls.domain.size}"
            )
    if len(cls) < (1 << len(pts)):
        return False
    cols = cls.columns
    cells = [(1 << len(cls)) - 1]
    for p in pts:
        cells = _split(cells, cols[p], 1)
        if cells is None:
            return False
    return True


def union_class(a: HypothesisClass, b: HypothesisClass) -> HypothesisClass:
    """Deduplicated union of two classes over the same domain."""
    if a.domain != b.domain:
        raise DomainMismatchError(
            f"cannot union classes over {a.domain} and {b.domain}"
        )
    return HypothesisClass.from_hypotheses(a.domain, (*a.members, *b.members))


def k_fold_union(r: HypothesisClass, k: int) -> HypothesisClass:
    """Class of pointwise ORs of all k-multisets of members."""
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    masks = [h.mask for h in r.members]
    ors = set()
    for combo in combinations_with_replacement(masks, k):
        m = 0
        for x in combo:
            m |= x
        ors.add(m)
    return HypothesisClass.from_hypotheses(
        r.domain, (Hypothesis.from_mask(r.domain, m) for m in ors)
    )


# --- derived loss classes ---------------------------------------------------


def aux_mask(e: int, g: int) -> int:
    """The aux member's mask: the points where h errs and phi does not flag."""
    return e & ~g


def product_patterns(
    H: HypothesisClass, Phi: HypothesisClass, points: Sequence[tuple[int, int, int]],
    combine: Callable[[int, int], int],
) -> set[int]:
    """The masks ``combine(e, g)`` of all (h, phi) pairs on ``points``.

    ``points`` are (x, x*, y) in ``core.product_points``' layout, and bit i
    of a mask labels ``points[i]``.  e has bit i set iff h(x) != y, g iff
    phi(x*) = 1: one pair per distinct e and g makes every mask.
    """
    n_x, n_xs = H.domain.size, Phi.domain.size
    # e sums err_at[x][h(x)] over every x, g sums flag_at[x*] over the x* phi flags
    err_at = [[0, 0] for _ in range(n_x)]
    flag_at = [0] * n_xs
    on_x, on_xs = range(n_x), range(n_xs)
    for i, (x, xs, y) in enumerate(points):
        if x not in on_x or xs not in on_xs or y not in (0, 1):
            raise DomainMismatchError(f"point {i} (x, x*, y) = {(x, xs, y)} outside "
                                      f"domains of size {n_x}, {n_xs} and labels 0, 1")
        err_at[x][1 - y] |= 1 << i
        flag_at[xs] |= 1 << i
    errs = {sum([err_at[x][b] for x, b in enumerate(h.bits)]) for h in H}
    flags = {sum([flag_at[s] for s, b in enumerate(phi.bits) if b]) for phi in Phi}
    return {combine(e, g) for e in errs for g in flags}


def _product_class(
    H: HypothesisClass, Phi: HypothesisClass, combine: Callable[[int, int], int]
) -> HypothesisClass:
    """Class of ``combine(e, g)`` over all (h, phi) pairs, on product points.

    Its members are ``product_patterns`` on every product point.  Each
    generator of H, then of Phi, is lifted to the product points: g of H
    maps ((x, x*), y) to ((g x, x*), y), g of Phi to ((x, g x*), y).
    """
    if len(H) == 0 or len(Phi) == 0:
        raise InputError("both classes must be nonempty")
    n_x, n_xs = H.domain.size, Phi.domain.size
    dom = product_domain(n_x, n_xs)
    points = product_points(n_x, n_xs)
    members = product_patterns(H, Phi, points, combine)
    lifted = [
        tuple(product_index(g[x], xs, y, n_xs) for x, xs, y in points)
        for g in H.symmetries
    ]
    lifted += [
        tuple(product_index(x, g[xs], y, n_xs) for x, xs, y in points)
        for g in Phi.symmetries
    ]
    return HypothesisClass.from_hypotheses(
        dom, (Hypothesis.from_mask(dom, m) for m in members), tuple(lifted)
    )


def build_f_class(H: HypothesisClass, Phi: HypothesisClass) -> HypothesisClass:
    """Class of triple labelings max(h errs, phi flags) over all (h, phi).

    The symmetries of H and Phi are lifted to product points.  Read with
    every label swapped, each member is the complement of the aux member of
    the same (h, phi) (see the module docstring), so this class has the
    size, the VC dimension and the shattered-set counts of
    ``build_aux_class(H, Phi)``.
    """
    return _product_class(H, Phi, or_)


def build_aux_class(H: HypothesisClass, Phi: HypothesisClass) -> HypothesisClass:
    """Class of triple labelings (h errs AND phi does not flag).

    The symmetries of H and Phi are lifted to product points.  Complemented
    and read with every label swapped, it is ``build_f_class(H, Phi)``
    member for member (see the module docstring), so d_a = VC(F).
    """
    return _product_class(H, Phi, aux_mask)
