"""Shattering, exact VC dimension, per-class caches, unions, loss classes."""

import hashlib
import math
import random
import re
from itertools import combinations
from operator import or_
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priverm import (
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    build_aux_class,
    build_f_class,
    count_shattered,
    f_loss,
    aux_loss,
    Triple,
    VcReport,
    ignoring_loss,
    is_shattered,
    k_fold_union,
    union_class,
    vc_dimension,
    zero_one_loss,
)
from priverm.constructions import H1_PATTERNS, PHI1_PATTERNS, construct_theorem1, full_class
from priverm.core import (
    DomainMismatchError,
    class_from_json,
    class_to_json,
    product_index,
    product_points,
)
from priverm.vc import aux_mask, product_patterns

from conftest import (
    check_matrices_match_the_per_label_definitions,
    check_views_match_the_per_label_definitions,
    rand_class,
)


def h1() -> HypothesisClass:
    return HypothesisClass.from_patterns(FiniteDomain(3, "X"), H1_PATTERNS)


def phi1() -> HypothesisClass:
    return HypothesisClass.from_patterns(FiniteDomain(3, "X*"), PHI1_PATTERNS)


# --- shattering ---------------------------------------------------------------


def test_is_shattered_single_and_pair():
    cls = h1()
    assert is_shattered(cls, [0])
    assert is_shattered(cls, [1])
    assert not is_shattered(cls, [0, 1])
    assert not is_shattered(cls, [0, 2])
    assert not is_shattered(cls, [1, 2])


def test_is_shattered_validates_subset():
    cls = h1()
    with pytest.raises(ValueError):
        is_shattered(cls, [0, 0])
    with pytest.raises(DomainMismatchError):
        is_shattered(cls, [0, 9])


def test_full_class_shatters_everything():
    cls = full_class(4)
    for k in range(1, 5):
        for pts in combinations(range(4), k):
            assert is_shattered(cls, pts)


def test_empty_subset_is_shattered():
    assert is_shattered(h1(), [])


# --- vc_dimension -------------------------------------------------------------


def test_vc_singleton_is_zero():
    dom = FiniteDomain(4)
    cls = HypothesisClass.from_patterns(dom, [(0, 1, 0, 1)])
    report = vc_dimension(cls)
    assert report.vc == 0 and report.exact
    assert report.witness == ()


def test_vc_h1_phi1():
    for cls in (h1(), phi1()):
        report = vc_dimension(cls)
        assert report.vc == 1 and report.exact


def test_vc_full_class():
    report = vc_dimension(full_class(5))
    assert report.vc == 5 and report.exact
    assert report.witness == (0, 1, 2, 3, 4)


def test_vc_report_shape():
    report = vc_dimension(full_class(3))
    levels = count_shattered(full_class(3), report.vc)
    assert len(levels) == report.vc + 1
    assert levels[0] == 1
    assert all(c > 0 for c in levels)
    assert is_shattered(full_class(3), report.witness)
    assert report.to_json() == {"vc": 3, "exact": True, "witness": [0, 1, 2]}
    assert levels == (1, 3, 3, 1)


def test_vc_f_class_d1_shatters_its_diagonal():
    """The joint loss class of the d=1 pair over all 18 product points."""
    F = build_f_class(h1(), phi1())
    report = vc_dimension(F)
    assert report.vc == 3 and report.exact
    assert is_shattered(F, report.witness)
    # the diagonal triple ((x_i, x*_i), 0) is one of the shattered sets
    diag = [product_index(i, i, 0, 3) for i in range(3)]
    assert is_shattered(F, diag)


# --- differential check against a brute-force oracle -------------------------


def shattered_subsets(cls: HypothesisClass, k: int) -> Iterator[tuple]:
    """Every k-subset the class shatters, in lex order, by counting patterns.

    The one VC oracle of the tests: it reads labels only, never the engine.
    """
    return (
        pts
        for pts in combinations(range(cls.domain.size), k)
        if len({tuple(h.bits[p] for p in pts) for h in cls.members}) == 1 << k
    )


def assert_matches_oracle(cls: HypothesisClass) -> None:
    """vc, exact, lex-first witness and every levels count equal brute force."""
    counts, first = [], ()
    for k in range(cls.domain.size + 1):
        found = list(shattered_subsets(cls, k))
        if not found:
            break
        counts.append(len(found))
        first = found[0]
    report = vc_dimension(cls)
    assert report.exact
    assert report.vc == len(counts) - 1
    assert report.witness == first
    assert count_shattered(cls, report.vc) == tuple(counts)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 60))
def test_vc_report_matches_oracle_on_random_classes(seed, size, members):
    assert_matches_oracle(rand_class(random.Random(seed), size, members))


@pytest.mark.parametrize("n", range(1, 7))
def test_vc_report_matches_oracle_on_full_classes(n):
    assert_matches_oracle(full_class(n))


def test_vc_report_matches_oracle_on_named_classes():
    H, Phi = construct_theorem1(1)
    assert_matches_oracle(build_f_class(H, Phi))
    assert_matches_oracle(build_aux_class(H, Phi))
    assert_matches_oracle(HypothesisClass.from_patterns(FiniteDomain(3), [(1, 0, 1)]))


def _golden_patterns(rng: random.Random, n: int, k: int) -> list:
    return sorted({tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)})


def _golden_classes():
    """Criterion-4-shaped aux classes of 4-point classes, then random classes."""
    rng = random.Random(20261018)
    for _ in range(300):
        H = HypothesisClass.from_patterns(
            FiniteDomain(4, "X"), _golden_patterns(rng, 4, rng.randint(4, 16))
        )
        Phi = HypothesisClass.from_patterns(
            FiniteDomain(4, "X*"), _golden_patterns(rng, 4, rng.randint(4, 16))
        )
        yield build_aux_class(H, Phi)
    for _ in range(1000):
        n = rng.randint(6, 10)
        yield HypothesisClass.from_patterns(
            FiniteDomain(n), _golden_patterns(rng, n, rng.randint(8, 80))
        )


def test_vc_reports_match_golden_digest():
    # pins every report field on 1300 classes, so a change to the search
    # that alters any answer, witness or count fails here
    rows = []
    for cls in _golden_classes():
        r = vc_dimension(cls)
        rows.append((r.vc, r.witness, r.exact, count_shattered(cls, r.vc)))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "b01e88e33660423757f183fb179dfe4001b12ff8054727f1b8bc2aa60f819523"


def test_vc_node_counts_match_golden_digest():
    # classes that carry no symmetry generators run the search node for node
    # as before; the digest was taken on the engine without orbit drops
    nodes = [vc_dimension(cls).nodes for cls in _golden_classes()]
    digest = hashlib.sha256(repr(nodes).encode()).hexdigest()
    assert digest == "e9dfc895013829d0e36783df3441ae89d6d8e9a8ae0291bc72cc629dca39ba74"


def test_vc_witnesses_of_named_d2_classes():
    H, Phi = construct_theorem1(2)
    assert vc_dimension(build_f_class(H, Phi)).witness == (0, 14, 24, 42, 56, 66)
    assert vc_dimension(build_aux_class(H, Phi)).witness == (0, 13, 27, 42, 55, 69)


def test_vc_orbit_drops_cut_named_d2_searches():
    # without the orbit drops these searches take 11,798 and 11,599 nodes,
    # and 46,457 and 43,969 nodes without forward checking; the exact reports
    # pin the orbit path node for node
    H, Phi = construct_theorem1(2)
    assert vc_dimension(build_f_class(H, Phi)) == VcReport(
        vc=6, exact=True, witness=(0, 14, 24, 42, 56, 66), nodes=4360
    )
    assert vc_dimension(build_aux_class(H, Phi)) == VcReport(
        vc=6, exact=True, witness=(0, 13, 27, 42, 55, 69), nodes=4130
    )
    _, Phi3 = construct_theorem1(3)
    assert vc_dimension(build_aux_class(H, Phi3)) == VcReport(
        vc=7, exact=True, witness=(0, 2, 25, 45, 66, 85, 105), nodes=198299
    )


def _at_most_one_one(n: int) -> list[str]:
    return ["0" * n] + ["0" * j + "1" + "0" * (n - 1 - j) for j in range(n)]


@pytest.mark.parametrize(
    "h_rows, n_phi, vcs, report",
    [
        # the smallest pair whose d_a passes d + d* + min(d, d*) = 3
        (["00", "01", "10"], 3, (1, 1), VcReport(3, True, (1, 3, 11), 28)),
        # a VC-(2, 1) pair with d_a = 5, where the theorem-1 product gives 4
        ("00110 01000 01001 01010 01110 10011 10101 10110 10111 11000 11001 11011 "
         "11101 11110 11111".split(), 5, (2, 1), VcReport(5, True, (0, 12, 22, 34, 46), 3220)),
    ],
    ids=["smallest-1-1", "pair-2-1"],
)
def test_vc_of_pairs_that_beat_the_theorem1_product(h_rows, n_phi, vcs, report):
    # ROADMAP item 21's fixtures: no symmetries, so the plain search, node for node
    H = class_from_json({"domain_size": len(h_rows[0]), "hypotheses": h_rows})
    Phi = class_from_json({"domain_size": n_phi, "hypotheses": _at_most_one_one(n_phi)})
    aux = build_aux_class(H, Phi)
    assert aux.symmetries == ()
    assert (vc_dimension(H).vc, vc_dimension(Phi).vc) == vcs
    assert vc_dimension(aux, budget=None) == report


# --- symmetry generators ------------------------------------------------------


def _report_key(cls: HypothesisClass) -> tuple:
    report = vc_dimension(cls)
    return (report.vc, report.witness, report.exact, count_shattered(cls, report.vc))


def _stripped(cls: HypothesisClass) -> HypothesisClass:
    return HypothesisClass(cls.domain, cls.members)


def _symmetric_class(rng: random.Random, n: int, k: int, n_gens: int) -> HypothesisClass:
    """Random patterns closed under the group of n_gens random permutations."""
    gens = []
    for _ in range(n_gens):
        g = list(range(n))
        rng.shuffle(g)
        gens.append(tuple(g))
    patterns = {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)}
    frontier = list(patterns)
    while frontier:
        row = frontier.pop()
        for g in gens:
            image = [0] * n
            for p in range(n):
                image[g[p]] = row[p]
            image = tuple(image)
            if image not in patterns:
                patterns.add(image)
                frontier.append(image)
    dom = FiniteDomain(n)
    return HypothesisClass.from_hypotheses(
        dom, (Hypothesis(dom, p) for p in patterns), tuple(gens)
    )


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 12), st.integers(1, 2))
def test_vc_with_symmetries_matches_stripped_class_and_oracle(seed, size, members, n_gens):
    cls = _symmetric_class(random.Random(seed), size, members, n_gens)
    assert _report_key(cls) == _report_key(_stripped(cls))
    assert_matches_oracle(cls)


@pytest.mark.parametrize("d, dstar", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_vc_named_classes_match_their_stripped_copies(d, dstar):
    H, _ = construct_theorem1(d)
    _, Phi = construct_theorem1(dstar)
    for cls in (build_f_class(H, Phi), build_aux_class(H, Phi)):
        assert len(cls.symmetries) == d + dstar - 2
        assert _report_key(cls) == _report_key(_stripped(cls))
        if d == dstar == 1:
            assert vc_dimension(cls).nodes == vc_dimension(_stripped(cls)).nodes


def test_vc_orbit_dropped_at_one_size_is_filtered_at_the_next():
    # 00xyz0 and two rows on points 0 and 1, which the symmetry swaps: at
    # size 2 root 0 fails and drops its orbit {0, 1}, so the size-3 roots
    # start without either point
    dom = FiniteDomain(6)
    rows = [(0, 0, x, y, z, 0) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    rows += [(1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 1)]
    cls = HypothesisClass.from_hypotheses(
        dom, (Hypothesis(dom, r) for r in rows), ((1, 0, 2, 3, 4, 5),)
    )
    assert vc_dimension(cls) == VcReport(vc=3, exact=True, witness=(2, 3, 4), nodes=21)
    assert vc_dimension(_stripped(cls)) == VcReport(
        vc=3, exact=True, witness=(2, 3, 4), nodes=27
    )
    assert _report_key(cls) == _report_key(_stripped(cls))
    assert_matches_oracle(cls)
    # the same class behind one constant point, its symmetry shifted with it:
    # orbits name points, so the dropped orbit is {1, 2}, not positions 1, 2
    # of the active points (read that way, the search returns (4, 5))
    dom = FiniteDomain(7)
    shifted = HypothesisClass.from_hypotheses(
        dom, (Hypothesis(dom, (0, *r)) for r in rows), ((0, 2, 1, 3, 4, 5, 6),)
    )
    assert vc_dimension(shifted) == VcReport(vc=3, exact=True, witness=(3, 4, 5), nodes=22)
    assert vc_dimension(_stripped(shifted)) == VcReport(
        vc=3, exact=True, witness=(3, 4, 5), nodes=28
    )
    assert_matches_oracle(shifted)


def test_symmetries_stay_out_of_equality_and_json():
    H, _ = construct_theorem1(3)
    assert len(H.symmetries) == 2
    assert H == _stripped(H) and hash(H) == hash(_stripped(H))
    assert "symmetries" not in repr(H)
    assert class_to_json(H) == class_to_json(_stripped(H))
    assert class_from_json(class_to_json(H)).symmetries == ()


def test_vc_rejects_bad_symmetries():
    H, _ = construct_theorem1(2)
    for bad in ((0, 0, 2, 3, 4, 5), (0, 1, 2), (1, 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="not a permutation"):
            vc_dimension(HypothesisClass(H.domain, H.members, (bad,)))
    # swapping two points inside a triplet does not map H onto itself
    with pytest.raises(ValueError, match="onto itself"):
        vc_dimension(HypothesisClass(H.domain, H.members, ((1, 0, 2, 3, 4, 5),)))


# --- per-class columns and orbits ----------------------------------------------


def test_bad_symmetry_raises_on_every_search():
    # a read that raises keeps nothing, so the check runs again
    H, _ = construct_theorem1(2)
    bad = HypothesisClass(H.domain, H.members, ((1, 0, 2, 3, 4, 5),))
    for _ in range(2):
        with pytest.raises(ValueError, match="onto itself"):
            vc_dimension(bad)
        assert "orbits" not in vars(bad)


def test_cached_class_answers_as_a_fresh_one():
    H, Phi = construct_theorem1(2)
    diag = [product_index(i, i, 0, Phi.domain.size) for i in range(6)]
    for build in (build_f_class, build_aux_class):
        cached = build(H, Phi)
        first = vc_dimension(cached)
        levels = count_shattered(cached, first.vc)
        assert "columns" in vars(cached) and "orbits" in vars(cached)
        assert count_shattered(build(H, Phi), first.vc) == levels
        for c in (cached, build(H, Phi)):
            assert vc_dimension(c) == first
        for pts in (first.witness, diag, diag[:3], (0, 1), ()):
            assert is_shattered(cached, pts) == is_shattered(build(H, Phi), pts)


def test_cached_reads_stay_out_of_equality_hash_and_repr():
    H, Phi = construct_theorem1(2)
    cached, fresh = build_f_class(H, Phi), build_f_class(H, Phi)
    vc_dimension(cached)
    assert "columns" in vars(cached) and "orbits" in vars(cached)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert "columns" not in vars(fresh)


@pytest.mark.parametrize("budget", [20, 60, 200, 600])
def test_vc_budget_on_symmetric_class_stops_at_lex_first_lower_bound(budget):
    H, _ = construct_theorem1(2)
    _, Phi = construct_theorem1(1)
    aux = build_aux_class(H, Phi)
    assert aux.symmetries
    report = vc_dimension(aux, budget=budget)
    assert not report.exact and report.nodes > budget
    assert report.witness == next(shattered_subsets(aux, report.vc))


def test_vc_report_equality_and_witness_levels():
    a, b = vc_dimension(full_class(4)), vc_dimension(full_class(4))
    assert a == b and hash(a) == hash(b)
    assert a != vc_dimension(full_class(3))
    assert count_shattered(full_class(4), a.vc) == (1, 4, 6, 4, 1)


def test_vc_report_is_its_four_fields():
    assert VcReport._fields == ("vc", "exact", "witness", "nodes")
    a = VcReport(vc=2, exact=True, witness=(0, 1), nodes=9)
    b = VcReport(vc=2, exact=True, witness=(0, 1), nodes=9)
    assert a == b and hash(a) == hash(b) == hash((2, True, (0, 1), 9))
    assert a == (2, True, (0, 1), 9)
    assert repr(a) == "VcReport(vc=2, exact=True, witness=(0, 1), nodes=9)"
    for change in ({"vc": 1}, {"exact": False}, {"witness": (0, 2)}, {"nodes": 10}):
        assert a != a._replace(**change)


def test_count_shattered_sizes():
    cls = h1()
    assert count_shattered(cls, 0) == (1,)
    assert count_shattered(cls, 1) == (1, 3)
    # past the VC dimension the counts are 0
    assert count_shattered(cls, 4) == (1, 3, 0, 0, 0)
    assert count_shattered(full_class(3), 5) == (1, 3, 3, 1, 0, 0)
    with pytest.raises(ValueError, match="top must be >= 0"):
        count_shattered(cls, -1)
    with pytest.raises(ValueError, match="nonempty"):
        count_shattered(HypothesisClass(FiniteDomain(3), ()), 1)


def test_count_shattered_on_constant_columns_is_the_empty_set_only():
    cls = HypothesisClass.from_patterns(FiniteDomain(3), [(0, 1, 0)])
    assert count_shattered(cls, 0) == (1,)
    assert count_shattered(cls, 2) == (1, 0, 0)


def test_vc_budget_stops_at_largest_size_found():
    report = vc_dimension(full_class(6), budget=20)
    assert (report.vc, report.exact, report.witness) == (4, False, (0, 1, 2, 3))
    assert report.nodes > 20
    assert count_shattered(full_class(6), report.vc) == (1, 6, 15, 20, 15)


def test_vc_budget_runs_out_inside_the_forward_check():
    # the 203rd node falls in the forward check that follows a failed descent
    H, Phi = construct_theorem1(2)
    report = vc_dimension(build_aux_class(H, Phi), budget=202)
    assert report == VcReport(vc=4, exact=False, witness=(0, 2, 19, 33), nodes=203)


@pytest.mark.parametrize("budget", [0, -5])
def test_vc_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match=f"node budget must be at least 1, got {budget}"):
        vc_dimension(full_class(3), budget=budget)
    # None means no limit; 1 is the smallest budget
    assert vc_dimension(full_class(3), budget=None).exact
    assert not vc_dimension(full_class(3), budget=1).exact


def test_vc_budget_degrades_to_lower_bound():
    report = vc_dimension(full_class(6), budget=20)
    assert not report.exact
    assert report.vc < 6
    assert len(report.witness) == report.vc
    assert is_shattered(full_class(6), report.witness)


def test_vc_lower_bound_mode_with_witness():
    # a claimed set is verified by is_shattered, in any order, and its size
    # is then a lower bound on the VC dimension
    assert is_shattered(full_class(3), [2, 0])
    assert not is_shattered(h1(), [0, 1])


def test_vc_rejects_empty_class():
    with pytest.raises(ValueError, match="class must be nonempty"):
        vc_dimension(HypothesisClass.from_patterns(FiniteDomain(3, "X"), []))


# --- Sauer's lemma -------------------------------------------------------------


def growth(cls: HypothesisClass, m: int) -> int:
    """Most distinct labelings the class makes on any m points, by enumeration."""
    return max(
        len({tuple(h.bits[p] for p in pts) for h in cls.members})
        for pts in combinations(range(cls.domain.size), m)
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.integers(2, 7), st.integers(1, 32))
def test_sauer_lemma_on_random_classes(seed, size, members):
    rng = random.Random(seed)
    cls = rand_class(rng, size, members)
    d = vc_dimension(cls).vc
    for m in range(size + 1):
        g = growth(cls, m)
        assert g <= sum(math.comb(m, i) for i in range(min(d, m) + 1))
        if g < 2**m:
            assert d < m


# --- unions -------------------------------------------------------------------


def test_union_class_idempotent_and_validated():
    cls = h1()
    assert union_class(cls, cls) == cls
    with pytest.raises(DomainMismatchError):
        union_class(cls, full_class(4))


def test_union_vc_bound_on_random_pairs():
    rng = random.Random(3)
    for _ in range(60):
        size = rng.randint(2, 8)
        a = rand_class(rng, size, rng.randint(1, 20))
        b = rand_class(rng, size, rng.randint(1, 20))
        va = vc_dimension(a).vc
        vb = vc_dimension(b).vc
        vu = vc_dimension(union_class(a, b)).vc
        assert vu <= va + vb + 1


def test_k_fold_union_example():
    dom = FiniteDomain(3)
    r = HypothesisClass.from_patterns(dom, [(1, 0, 0), (0, 1, 0)])
    u = k_fold_union(r, 2)
    assert {tuple(h.bits) for h in u} == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_k_fold_union_fixed_points():
    dom = FiniteDomain(3)
    zeros = HypothesisClass.from_patterns(dom, [(0, 0, 0)])
    assert k_fold_union(zeros, 3) == zeros
    with pytest.raises(ValueError):
        k_fold_union(zeros, 1)


def test_k_fold_union_vc_bound():
    rng = random.Random(11)
    for _ in range(20):
        size = rng.randint(2, 7)
        r = rand_class(rng, size, rng.randint(1, 8))
        vr = vc_dimension(r).vc
        for k in (2, 3):
            vu = vc_dimension(k_fold_union(r, k)).vc
            assert vu <= vr * 2 * k * math.log2(2 * math.e * k)


# --- derived loss classes -----------------------------------------------------


def test_f_class_reduces_when_phi_never_flags():
    domx, doms = FiniteDomain(2, "X"), FiniteDomain(2, "X*")
    H = HypothesisClass.from_patterns(domx, [(0, 1)])
    Phi = HypothesisClass.from_patterns(doms, [(0, 0)])
    F = build_f_class(H, Phi)
    assert len(F) == 1
    # the lone member is exactly h's error indicator on every product point
    h = H[0]
    bits = F[0].bits
    p = 0
    for x in range(2):
        for _ in range(2):
            for y in range(2):
                assert bits[p] == int(h.bits[x] != y)
                p += 1


def test_f_class_members_match_pointwise_loss():
    """Every (h, phi) pair's pointwise f-loss labeling appears in the class."""
    rng = random.Random(5)
    H = rand_class(rng, 3, 5, "X")
    Phi = rand_class(rng, 2, 3, "X*")
    F = build_f_class(H, Phi)
    A = build_aux_class(H, Phi)
    fbits = {tuple(h.bits) for h in F}
    abits = {tuple(h.bits) for h in A}
    for h in H:
        for phi in Phi:
            fb, ab = [], []
            for x in range(3):
                for xs in range(2):
                    for y in range(2):
                        t = Triple(x, xs, y)
                        fb.append(f_loss(h, phi, t))
                        ab.append(aux_loss(h, phi, t))
            assert tuple(fb) in fbits
            assert tuple(ab) in abits
    assert len(F) <= len(H) * len(Phi)


def test_f_class_all_labelings_on_restricted_triple():
    F = build_f_class(h1(), phi1())
    diag = [product_index(i, i, 0, 3) for i in range(3)]
    assert len({tuple(h.bits[p] for p in diag) for h in F}) == 8


def test_aux_class_degenerate_phis():
    domx, doms = FiniteDomain(3, "X"), FiniteDomain(3, "X*")
    H = HypothesisClass.from_patterns(domx, [(0, 1, 0), (1, 1, 0)])
    always = HypothesisClass.from_patterns(doms, [(1, 1, 1)])
    never = HypothesisClass.from_patterns(doms, [(0, 0, 0)])
    aux_all = build_aux_class(H, always)
    assert len(aux_all) == 1 and aux_all[0].mask == 0
    # with no flags the auxiliary labelings are the plain error labelings
    aux_none = build_aux_class(H, never)
    f_none = build_f_class(H, never)
    assert {h.bits for h in aux_none} == {h.bits for h in f_none}


def _product_class_pairs():
    """Theorem-1 pairs, then seeded random pairs whose classes carry symmetries."""
    for d, dstar in [(1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (2, 3), (3, 2)]:
        yield construct_theorem1(d)[0], construct_theorem1(dstar)[1]
    rng = random.Random(20261019)
    for _ in range(200):
        yield tuple(
            _symmetric_class(rng, rng.randint(1, 4), rng.randint(1, 6), rng.randint(0, 2))
            for _ in range(2)
        )


def test_product_classes_match_golden_digest():
    # pins the domain, member bits and lifted symmetries of 414 F and aux
    # classes, so a builder that reorders points or members fails here
    rows = []
    for H, Phi in _product_class_pairs():
        for cls in (build_f_class(H, Phi), build_aux_class(H, Phi)):
            rows.append((cls.domain, [tuple(h.bits) for h in cls.members], cls.symmetries))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "18a1f5b2fece5988dbd5d2d7765183c08e5ad31db1e8ec12304f9a4f0989571a"


@pytest.mark.parametrize(
    "combine, build, loss",
    [(or_, build_f_class, f_loss), (aux_mask, build_aux_class, aux_loss)],
    ids=["F", "aux"],
)
def test_product_patterns_are_the_built_class_on_any_points(combine, build, loss):
    # random point lists, out of product order, with repeats and with both y
    # at one (x, x*), against the built class read at the same points and
    # against the per-pair losses
    rng = random.Random(26)
    outcomes, kinds = set(), set()
    for _ in range(300):
        H = rand_class(rng, rng.randint(1, 3), rng.randint(1, 8), "X")
        Phi = rand_class(rng, rng.randint(1, 3), rng.randint(1, 8), "X*")
        cls = build(H, Phi)
        n_xs = Phi.domain.size
        points = rng.choices(product_points(H.domain.size, n_xs), k=rng.randint(0, 5))
        idx = [product_index(*p, n_xs) for p in points]
        got = product_patterns(H, Phi, points, combine)
        assert got == {sum(h.bits[p] << j for j, p in enumerate(idx)) for h in cls}
        triples = [Triple(*p) for p in points]
        assert got == {
            sum(loss(h, phi, t) << j for j, t in enumerate(triples)) for h in H for phi in Phi
        }
        if len(set(idx)) < len(idx):
            kinds.add("repeat")
            assert len(got) < 1 << len(points)
            continue
        kinds.add("both y" if len({p[:2] for p in points}) < len(points) else "distinct")
        kinds.add("unordered" if idx != sorted(idx) else "ordered")
        shattered = is_shattered(cls, idx)
        assert shattered == (len(got) == 1 << len(points))
        outcomes.add(shattered)
    assert outcomes == {True, False}
    assert kinds == {"repeat", "both y", "distinct", "unordered", "ordered"}


@pytest.mark.parametrize(
    "point",
    [(3, 0, 0), (0, 2, 1), (-1, 0, 0), (0, -1, 1), (0, 0, 2), (0, 0, -1)],
    ids=["x-off", "xstar-off", "x-negative", "xstar-negative", "y-2", "y-negative"],
)
def test_product_patterns_name_a_point_off_the_domains(point):
    H, Phi = full_class(3, "X"), full_class(2, "X*")
    want = f"point 1 (x, x*, y) = {point} outside domains of size 3, 2 and labels 0, 1"
    for combine in (or_, aux_mask):
        with pytest.raises(DomainMismatchError, match=re.escape(want)):
            product_patterns(H, Phi, [(0, 0, 0), point], combine)


def test_product_views_and_matrices_match_the_per_label_definitions():
    # every product point as a triple, in product order
    for H, Phi in _product_class_pairs():
        points = [Triple(*p) for p in product_points(H.domain.size, Phi.domain.size)]
        check_matrices_match_the_per_label_definitions(H, Phi, points)
        for cls in (H, Phi, build_f_class(H, Phi), build_aux_class(H, Phi)):
            check_views_match_the_per_label_definitions(cls)


def test_f_class_is_aux_complemented_and_read_with_y_swapped():
    # f(h, phi) at (x, x*, y) is 1 - aux(h, phi) at (x, x*, 1-y), so F is
    # {sigma(~a) : a in aux} member for member, with the same lifted symmetries
    for H, Phi in _product_class_pairs():
        F, A = build_f_class(H, Phi), build_aux_class(H, Phi)
        assert F.domain == A.domain
        assert len(F) == len(A)
        full = (1 << A.domain.size) - 1
        even = full // 3  # the y = 0 points, bits 0, 2, 4, ...

        def sigma(c: int) -> int:
            return ((c & even) << 1) | ((c >> 1) & even)

        assert {h.mask for h in F} == {sigma(full ^ a.mask) for a in A}
        assert F.symmetries == A.symmetries
        assert len(F.symmetries) == len(H.symmetries) + len(Phi.symmetries)


@pytest.mark.parametrize(
    "d, dstar, levels",
    [
        (1, 1, (1, 18, 69, 22)),
        (1, 2, (1, 36, 354, 896, 144)),
        (2, 1, (1, 36, 462, 1520, 204)),
        (2, 2, (1, 72, 2004, 21808, 73674, 24840, 1480)),
    ],
    ids=["1-1", "1-2", "2-1", "2-2"],
)
def test_vc_search_and_counts_agree_on_f_and_aux(d, dstar, levels):
    # F and aux are one class up to complement and sigma, so each search and
    # count checks the other on classes too large for the brute-force oracle
    H, _ = construct_theorem1(d)
    _, Phi = construct_theorem1(dstar)
    F, A = build_f_class(H, Phi), build_aux_class(H, Phi)
    rf, ra = vc_dimension(F), vc_dimension(A)
    assert rf.exact and ra.exact
    assert rf.vc == ra.vc == len(levels) - 1
    # sigma maps product point p to p ^ 1 (y is the last bit of the index);
    # the lex-first witnesses need not be sigma-images of each other
    assert is_shattered(A, [p ^ 1 for p in rf.witness])
    assert is_shattered(F, [p ^ 1 for p in ra.witness])
    assert count_shattered(F, rf.vc) == count_shattered(A, ra.vc) == levels


def test_build_classes_reject_empty():
    with pytest.raises(ValueError):
        build_f_class(h1(), HypothesisClass(FiniteDomain(3, "X*"), ()))


def test_loss_class_preserves_vc():
    # the loss classes over (point, y) pairs, from the per-point losses, have
    # the VC dimension of the class they come from
    for cls in (h1(), phi1(), full_class(3)):
        n = cls.domain.size
        # (point, y) pairs, point-major, y-last
        dom = FiniteDomain(2 * n, f"{cls.domain.label}×Y")
        for loss in (zero_one_loss, ignoring_loss):
            lifted = HypothesisClass.from_patterns(
                dom, ([loss(h(x), y) for x in range(n) for y in (0, 1)] for h in cls)
            )
            assert vc_dimension(lifted).vc == vc_dimension(cls).vc




def test_f_member_is_or_of_lifted_members():
    """Joint loss labelings decompose as error-part OR flag-part."""
    rng = random.Random(19)
    H = rand_class(rng, 2, 3, "X")
    Phi = rand_class(rng, 2, 3, "X*")
    F = build_f_class(H, Phi)
    fbits = {tuple(h.bits) for h in F}
    for h in H:
        for phi in Phi:
            combo = []
            for x in range(2):
                for xs in range(2):
                    for y in range(2):
                        err = int(h.bits[x] != y)
                        flag = phi.bits[xs]
                        combo.append(err | flag)
            assert tuple(combo) in fbits
