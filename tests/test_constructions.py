"""The named class constructions and the paired-mass distribution family."""

import random

import pytest

from priverm import (
    FiniteDomain,
    HypothesisClass,
    Triple,
    VcReport,
    build_aux_class,
    construct_lemma1_tight,
    construct_lemma2_witness,
    construct_theorem1,
    construct_theorem5_family,
    is_shattered,
    phi_prime_subclass,
    union_class,
    vc_dimension,
)
from priverm import constructions, vc
from priverm.constructions import H1_PATTERNS, MAX_FOLD, PHI1_PATTERNS, full_class
from priverm.core import InputError, product_index

from conftest import rand_class


# --- triplet-product classes ----------------------------------------------------


def test_theorem1_d1_exact_members():
    H, Phi = construct_theorem1(1)
    assert tuple(tuple(h.bits) for h in H) == H1_PATTERNS
    assert tuple(tuple(p.bits) for p in Phi) == PHI1_PATTERNS
    assert H.domain.size == Phi.domain.size == 3
    assert H.domain.label == "X" and Phi.domain.label == "X*"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_theorem1_sizes(d):
    H, Phi = construct_theorem1(d)
    assert len(H) == len(Phi) == 4**d
    assert H.domain.size == 3 * d


@pytest.mark.parametrize("d", [1, 2])
def test_theorem1_vc(d):
    H, Phi = construct_theorem1(d)
    assert vc_dimension(H).vc == d
    assert vc_dimension(Phi).vc == d


def test_theorem1_rejects_bad_d():
    with pytest.raises(ValueError):
        construct_theorem1(0)
    with pytest.raises(ValueError):
        construct_theorem1(6)


def test_full_class_basics():
    cls = full_class(3)
    assert len(cls) == 8
    assert vc_dimension(cls).vc == 3
    with pytest.raises(ValueError):
        full_class(0)
    with pytest.raises(ValueError):
        full_class(13)


# --- union-tight classes ----------------------------------------------------------


def test_lemma1_tight_sizes_and_vc():
    H, J = construct_lemma1_tight(1, 1)
    assert H.domain.size == 3
    assert len(H) == 4 and len(J) == 4
    assert vc_dimension(H).vc == 1
    assert vc_dimension(J).vc == 1
    assert vc_dimension(union_class(H, J)).vc == 3


def test_lemma1_degenerate():
    H, J = construct_lemma1_tight(0, 0)
    assert len(H) == len(J) == 1
    assert vc_dimension(union_class(H, J)).vc == 1


def test_lemma1_rejects_oversize():
    with pytest.raises(ValueError):
        construct_lemma1_tight(10, 10)
    with pytest.raises(ValueError):
        construct_lemma1_tight(-1, 0)


# --- auxiliary-class witness -------------------------------------------------------


def test_lemma2_witness_sizes():
    # every theorem-1 pair up to MAX_FOLD, past the aux classes any test can
    # build: aux(5,5) has 1,048,576 members
    folds = range(2, MAX_FOLD + 1)
    classes = {d: construct_theorem1(d) for d in folds}
    for d in folds:
        for dstar in folds:
            w = construct_lemma2_witness(classes[d][0], classes[dstar][1])
            assert len(w) == d + dstar - 2


def test_lemma2_witness_shattered_by_aux_class():
    H, Phi = construct_theorem1(2)
    w = construct_lemma2_witness(H, Phi)
    aux = build_aux_class(H, Phi)
    idx = [product_index(t.x, t.xstar, t.y, Phi.domain.size) for t in w]
    assert is_shattered(aux, idx)
    assert all(t.y == 0 for t in w)


def test_lemma2_witness_random_classes():
    rng = random.Random(23)
    built = 0
    while built < 5:
        H = rand_class(rng, 4, 12, "X")
        Phi = rand_class(rng, 4, 12, "X*")
        if vc_dimension(H).vc <= 1 or vc_dimension(Phi).vc <= 1:
            continue
        w = construct_lemma2_witness(H, Phi)  # raises if not shattered
        assert len(w) == vc_dimension(H).vc + vc_dimension(Phi).vc - 2
        built += 1


def test_lemma2_witness_builds_no_product_class(monkeypatch):
    def refuse(*args):
        raise AssertionError("product class built")

    monkeypatch.setattr(vc, "_product_class", refuse)
    assert construct_lemma2_witness(*construct_theorem1(2)) == (
        Triple(0, 3, 0), Triple(3, 0, 0),
    )


def _claim(witnesses):
    """A stand-in for vc_dimension: the claimed witness of each domain label."""
    return lambda cls, budget: VcReport(
        vc=len(witnesses[cls.domain.label]), exact=True,
        witness=witnesses[cls.domain.label], nodes=0,
    )


def test_lemma2_rejects_a_witness_the_aux_class_does_not_shatter(monkeypatch):
    # H misses (1, 1) on its claimed witness, so no pair makes the aux
    # pattern (1, 1) on the two triples
    H = HypothesisClass.from_patterns(FiniteDomain(2, "X"), [(0, 0), (0, 1), (1, 0)])
    Phi = full_class(2, "X*")
    assert not is_shattered(H, (0, 1))
    monkeypatch.setattr(constructions, "vc_dimension", _claim({"X": (0, 1), "X*": (0, 1)}))
    with pytest.raises(AssertionError, match="not shattered"):
        construct_lemma2_witness(H, Phi)


def test_lemma2_check_accepts_what_the_built_aux_class_shatters(monkeypatch):
    rng = random.Random(29)
    outcomes = set()
    for _ in range(200):
        H = rand_class(rng, 4, rng.randint(2, 12), "X")
        Phi = rand_class(rng, 4, rng.randint(2, 12), "X*")
        xs = tuple(sorted(rng.sample(range(4), rng.randint(2, 4))))
        xss = tuple(sorted(rng.sample(range(4), rng.randint(2, 4))))
        monkeypatch.setattr(constructions, "vc_dimension", _claim({"X": xs, "X*": xss}))
        want = tuple(
            [Triple(x, xss[-1], 0) for x in xs[:-1]] + [Triple(xs[-1], x, 0) for x in xss[:-1]]
        )
        idx = [product_index(t.x, t.xstar, t.y, 4) for t in want]
        shattered = is_shattered(build_aux_class(H, Phi), idx)
        outcomes.add(shattered)
        if shattered:
            assert construct_lemma2_witness(H, Phi) == want
        else:
            with pytest.raises(AssertionError, match="not shattered"):
                construct_lemma2_witness(H, Phi)
    assert outcomes == {True, False}


def test_lemma2_requires_dimensions_above_one():
    H1, Phi1 = construct_theorem1(1)
    with pytest.raises(ValueError):
        construct_lemma2_witness(H1, Phi1)


# --- paired-mass family --------------------------------------------------------------


def test_family_alpha_and_star_rate():
    Phi = full_class(8, "X*")
    family, dist = construct_theorem5_family(Phi, eps=0.05, delta=1 / 256)
    assert family.alpha == 8 * 0.05 / (1 - 8 / 256)
    assert family.alpha == pytest.approx(0.4 / 0.96875)
    # alpha is derived from eps and delta, not stored beside them
    assert "alpha" not in family._fields
    with pytest.raises(AttributeError):
        family.alpha = 0.5
    assert sum(p for _, p in dist.support) == pytest.approx(1.0, abs=1e-12)
    star_rate = family.true_flag_rate(family.phi_star)
    assert star_rate == pytest.approx((1 - family.alpha) / 2, abs=1e-12)


def test_family_flag_rate_identity():
    """P[flag] = (1-a)/2 + (2a/D) * disagreements with the light-flagging member."""
    Phi = full_class(6, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    D = family.n_points
    prime = phi_prime_subclass(Phi, family.pairs)
    star = family.phi_star
    pair_points = [p for ab in family.pairs for p in ab]
    for phi in prime:
        k = sum(phi.bits[p] != star.bits[p] for p in pair_points) // 2
        want = (1 - family.alpha) / 2 + (2 * family.alpha / D) * k
        assert family.true_flag_rate(phi) == pytest.approx(want, abs=1e-12)


def test_family_heavy_side_moves_mass():
    Phi = full_class(4, "X*")
    fam0, dist0 = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    fam1, dist1 = construct_theorem5_family(Phi, eps=0.1, delta=0.01,
                                            heavy_side=(1, 1))
    assert fam0.pairs == fam1.pairs
    heavy = (1 + fam0.alpha) / fam0.n_points
    (a, b) = fam0.pairs[0]
    assert dist0.probability(Triple(0, a, 0)) == pytest.approx(heavy)
    assert dist1.probability(Triple(0, b, 0)) == pytest.approx(heavy)
    # phi_star tracks the light elements, so the two stars flag opposite sides
    assert fam0.phi_star.bits[a] == 0 and fam0.phi_star.bits[b] == 1
    assert fam1.phi_star.bits[a] == 1 and fam1.phi_star.bits[b] == 0


def test_family_trims_odd_dimension():
    Phi = full_class(5, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    assert family.n_points == 4
    assert len(family.pairs) == 2


def test_family_input_validation():
    Phi = full_class(4, "X*")
    with pytest.raises(ValueError):
        construct_theorem5_family(Phi, eps=0.2, delta=0.1)  # alpha = 8
    with pytest.raises(ValueError):
        construct_theorem5_family(Phi, eps=0.01, delta=0.5)  # delta past 1/8
    with pytest.raises(ValueError):
        construct_theorem5_family(full_class(1, "X*"), eps=0.1, delta=0.01)
    with pytest.raises(ValueError):
        construct_theorem5_family(Phi, eps=0.1, delta=0.01, heavy_side=(0,))


@pytest.mark.parametrize("heavy", [5, 1.5, True, {0: 1, 1: 0}], ids=repr)
def test_family_heavy_side_must_be_a_sequence(heavy):
    with pytest.raises(InputError, match=r"^heavy_side must be a sequence of bits, got "):
        construct_theorem5_family(full_class(4, "X*"), eps=0.1, delta=0.01, heavy_side=heavy)


def test_phi_prime_subclass():
    Phi = full_class(8, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.005)
    prime = phi_prime_subclass(Phi, family.pairs)
    assert len(prime) == 2 ** len(family.pairs)
    for phi in prime:
        for a, b in family.pairs:
            assert phi.bits[a] != phi.bits[b]
    assert any(phi.bits == family.phi_star.bits for phi in prime)


def test_phi_prime_subclass_empty_raises():
    Phi = full_class(2, "X*")
    assert len(phi_prime_subclass(Phi, [(0, 1)])) == 2
    flat = HypothesisClass.from_patterns(FiniteDomain(2, "X*"), [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        phi_prime_subclass(flat, [(0, 1)])
