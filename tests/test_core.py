"""Core types, loss functions, exact error, and JSON interchange."""

import array
import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priverm import (
    BoundInputs,
    DeviationConfig,
    ExperimentConfig,
    FiniteDistribution,
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    Triple,
    TripleSample,
    aux_loss,
    composite_loss,
    exact_true_error,
    f_loss,
    ignoring_loss,
    zero_one_loss,
)
from priverm.core import (
    DomainMismatchError,
    InputError,
    InvalidDistributionError,
    class_from_json,
    class_to_json,
    distribution_from_json,
    distribution_to_json,
    product_domain,
    product_index,
    product_legend,
    sample_from_json,
    sample_to_json,
)
from priverm.constructions import construct_theorem1, full_class
from priverm.vc import (
    build_aux_class,
    build_f_class,
    count_shattered,
    is_shattered,
    k_fold_union,
    vc_dimension,
)

from conftest import (
    check_matrices_match_the_per_label_definitions,
    check_views_match_the_per_label_definitions,
    rand_class,
)

bits_strategy = st.lists(st.integers(0, 1), min_size=1, max_size=16)


# --- domains and hypotheses --------------------------------------------------


def test_domain_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        FiniteDomain(0)
    with pytest.raises(ValueError):
        FiniteDomain(-3)


def test_product_domain_size_and_index():
    dom = product_domain(2, 3)
    assert dom.size == 2 * 3 * 2
    # enumeration is x-major, x*-minor, y-last
    seen = [product_index(x, xs, y, 3) for x in range(2) for xs in range(3) for y in range(2)]
    assert seen == list(range(dom.size))
    legend = product_legend(2, 3)
    assert len(legend) == dom.size
    assert legend[product_index(1, 2, 0, 3)] == "(x=1,x*=2,y=0)"


def test_hypothesis_validation():
    dom = FiniteDomain(3)
    with pytest.raises(ValueError):
        Hypothesis(dom, (0, 1))
    with pytest.raises(ValueError):
        Hypothesis(dom, (0, 1, 2))
    h = Hypothesis(dom, (1, 0, 1))
    assert h(0) == 1 and h(1) == 0 and h(2) == 1
    with pytest.raises(DomainMismatchError):
        h(3)
    assert h.mask == 0b101


@given(bits_strategy)
def test_hypothesis_round_trips(bits):
    dom = FiniteDomain(len(bits))
    h = Hypothesis(dom, tuple(bits))
    assert Hypothesis.from_bitstring(dom, h.to_bitstring()) == h
    assert Hypothesis.from_mask(dom, h.mask) == h


def test_bitstring_rejects_junk():
    dom = FiniteDomain(3)
    # a bad character is named before a bad length
    for s, err in [
        ("01x", "bit string may contain only 0/1: '01x'"),
        ("0x", "bit string may contain only 0/1: '0x'"),
        ("01", "bit pattern length 2 != domain size 3"),
        ("0110", "bit pattern length 4 != domain size 3"),
    ]:
        with pytest.raises(ValueError) as exc:
            Hypothesis.from_bitstring(dom, s)
        assert str(exc.value) == err
    assert Hypothesis.from_bitstring(dom, ["0", "1", "1"]) == Hypothesis(dom, (0, 1, 1))


def test_class_dedup_and_canonical_order():
    dom = FiniteDomain(2)
    cls = HypothesisClass.from_patterns(dom, [(1, 0), (0, 1), (1, 0)])
    assert len(cls) == 2
    assert [tuple(h.bits) for h in cls] == [(0, 1), (1, 0)]
    # the raw constructor enforces what from_patterns produces
    with pytest.raises(ValueError):
        HypothesisClass(dom, (Hypothesis(dom, (1, 0)), Hypothesis(dom, (0, 1))))
    with pytest.raises(DomainMismatchError):
        HypothesisClass(dom, (Hypothesis(FiniteDomain(3), (0, 0, 0)),))


# --- construction against the per-element checks it replaced --------------------


def _old_bits_ok(bits) -> bool:
    return not any(b not in (0, 1) for b in bits)


def _old_class_fault(domain, members):
    """(type, message) the member checks raised before the one-pass check, or None."""
    for h in members:
        if h.domain != domain:
            return DomainMismatchError, "all members must share the class domain"
    if len({h.bits for h in members}) != len(members):
        return InputError, "members must be deduplicated"
    if list(members) != sorted(members, key=lambda h: h.bits):
        return InputError, "members must be in canonical (lexicographic) order"
    return None


def _class_fault(domain, members):
    try:
        HypothesisClass(domain, tuple(members))
    except ValueError as e:
        return type(e), str(e)
    return None


@settings(max_examples=400)
@given(st.data())
def test_from_mask_matches_the_per_bit_formula(data):
    n = data.draw(st.integers(1, 200))
    mask = data.draw(st.integers(-(1 << (n + 2)), (1 << (n + 2)) - 1))
    h = Hypothesis.from_mask(FiniteDomain(n), mask)
    assert tuple(h.bits) == tuple((mask >> i) & 1 for i in range(n))
    assert all(type(b) is int for b in h.bits)


@pytest.mark.parametrize("bad", [2, -1, "1", 0.5, None, "0", [1]])
def test_hypothesis_rejects_values_that_are_not_bits(bad):
    with pytest.raises(ValueError, match="bits must all be 0 or 1"):
        Hypothesis(FiniteDomain(3), (0, bad, 1))


@pytest.mark.parametrize("good", [True, False, 1.0, 0.0])
def test_hypothesis_accepts_values_equal_to_a_bit(good):
    h = Hypothesis(FiniteDomain(2), (1, good))
    twin = Hypothesis(FiniteDomain(2), (1, int(good)))
    assert h == twin and hash(h) == hash(twin)
    assert all(type(b) is int for b in h.bits)
    assert h.to_bitstring() == twin.to_bitstring() == f"1{int(good)}"


@pytest.mark.parametrize(
    "labels", [np.array([0, 1]), array.array("q", [0, 1])], ids=["numpy", "array"]
)
def test_hypothesis_from_an_int64_buffer_equals_its_int_twin(labels):
    # the labels are read one by one, never as the container's 16-byte buffer
    h, twin = Hypothesis(FiniteDomain(2), labels), Hypothesis(FiniteDomain(2), (0, 1))
    assert h == twin and hash(h) == hash(twin)
    assert h.bits == b"\x00\x01" and h.to_bitstring() == "01"


def test_class_of_bits_equal_to_ints_searches_and_serialises_like_its_twin():
    dom = FiniteDomain(3)
    loose = [(1.0, 0, True), (0.0, True, 1), (False, 0.0, 0)]
    exact = [tuple(int(b) for b in p) for p in loose]
    cls, twin = (HypothesisClass.from_patterns(dom, ps) for ps in (loose, exact))
    assert cls == twin
    assert class_to_json(cls) == class_to_json(twin)
    assert class_to_json(cls)["hypotheses"] == ["000", "011", "101"]
    report = vc_dimension(cls)
    assert report == vc_dimension(twin)
    assert count_shattered(cls, report.vc) == count_shattered(twin, report.vc)
    for points in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        assert is_shattered(cls, points) == is_shattered(twin, points)


@given(st.lists(
    st.one_of(st.integers(-2, 3), st.booleans(), st.floats(-1, 2), st.sampled_from("01x")),
    min_size=1, max_size=8,
))
def test_bit_check_matches_the_per_element_check(bits):
    try:
        Hypothesis(FiniteDomain(len(bits)), tuple(bits))
        ok = True
    except ValueError:
        ok = False
    assert ok == _old_bits_ok(bits)


def test_every_path_stores_one_bytes_labeling():
    dom = FiniteDomain(3)
    pattern = (1, 0, 1)
    made = [
        Hypothesis(dom, pattern),
        Hypothesis(dom, (True, False, True)),
        Hypothesis(dom, (1.0, 0.0, 1.0)),
        Hypothesis(dom, bytes(pattern)),
        Hypothesis.from_mask(dom, 0b101),
        Hypothesis.from_bitstring(dom, "101"),
        class_from_json({"domain_size": 3, "hypotheses": ["101"]})[0],
    ]
    for h in made:
        assert type(h.bits) is bytes and h.bits == b"\x01\x00\x01"
        assert tuple(h.bits) == pattern and h.bits != pattern
        assert h == made[0] and hash(h) == hash(made[0])
        # a member is slotted: reading mask keeps nothing on it
        assert h.mask == 0b101 and not hasattr(h, "__dict__")
    cls = HypothesisClass.from_hypotheses(dom, made)
    assert len(cls) == 1 and cls[0] == made[0]
    # the builders' members too, on every member
    H = HypothesisClass.from_patterns(FiniteDomain(2, "X"), [(0, 1), (1, 1)])
    Phi = HypothesisClass.from_patterns(FiniteDomain(2, "X*"), [(0, 0), (1, 0)])
    built = (*construct_theorem1(1), full_class(3), k_fold_union(H, 2))
    for c in built:
        assert not any(hasattr(h, "__dict__") for h in c)
    for product in (build_f_class(H, Phi), build_aux_class(H, Phi)):
        assert all(type(h.bits) is bytes for h in product)
        assert not any(hasattr(h, "__dict__") for h in product)
        # the same labelings made from their bit strings are the same members
        twin = class_from_json(class_to_json(product), label=product.domain.label)
        assert twin == product and hash(twin.members) == hash(product.members)
        both = HypothesisClass.from_hypotheses(product.domain, (*twin, *product))
        assert both == product


def test_views_and_matrices_match_the_per_label_definitions_on_random_classes():
    rng = random.Random(20261019)
    for n in [1, 2, 3, 7, 8, 9, 63, 64, 65, 150, 299, 300]:
        for members in (1, 2, 33):
            H = rand_class(rng, n, members, "X")
            Phi = rand_class(rng, rng.randint(1, 300), members, "X*")
            check_views_match_the_per_label_definitions(H)
            points = [
                Triple(rng.randrange(n), rng.randrange(Phi.domain.size), rng.randint(0, 1))
                for _ in range(rng.randint(1, 40))
            ]
            check_matrices_match_the_per_label_definitions(H, Phi, points)


def test_class_faults_keep_their_type_and_message():
    dom, other = FiniteDomain(2), FiniteDomain(2, "X*")
    a, b, c = (Hypothesis(dom, p) for p in [(0, 0), (0, 1), (1, 0)])
    cases = {
        "member on another domain": (a, Hypothesis(other, (0, 1)), c),
        "adjacent duplicate": (a, b, b, c),
        "non-adjacent duplicate, unsorted": (c, a, b, a),
        "unsorted": (a, c, b),
    }
    want = {
        "member on another domain": (DomainMismatchError, "all members must share the class domain"),
        "adjacent duplicate": (InputError, "members must be deduplicated"),
        "non-adjacent duplicate, unsorted": (InputError, "members must be deduplicated"),
        "unsorted": (InputError, "members must be in canonical (lexicographic) order"),
    }
    for name, members in cases.items():
        assert _class_fault(dom, members) == _old_class_fault(dom, members) == want[name], name
    assert _class_fault(dom, (a, b, c)) is None


@settings(max_examples=300)
@given(st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 1), min_size=3, max_size=3)),
                max_size=8))
def test_class_check_matches_the_three_member_checks(raw):
    dom, other = FiniteDomain(3), FiniteDomain(3, "X*")
    members = [Hypothesis(other if off else dom, tuple(bits)) for off, bits in raw]
    assert _class_fault(dom, members) == _old_class_fault(dom, members)


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(0, 0, 2)
    with pytest.raises(ValueError):
        Triple(-1, 0, 0)
    s = TripleSample((Triple(0, 0, 0), Triple(1, 2, 1)))
    assert s.m == len(s) == 2


# --- frozen values -------------------------------------------------------------


def test_values_are_frozen_and_compare_by_their_fields():
    H, Phi = construct_theorem1(1)
    dist = FiniteDistribution(((Triple(0, 0, 0), 0.5), (Triple(1, 2, 1), 0.5)))
    values = [
        H.domain, H[0], H, Triple(1, 2, 1), TripleSample((Triple(0, 0, 0),)), dist,
        ExperimentConfig(dist, H, Phi, m=5, trials=2, delta=0.1, seed=3),
        BoundInputs(m=9, delta=0.1, d=1, dstar=1, d_a=2, eps_u=0.5),
        DeviationConfig(Phi, eps=0.1, delta=0.01, m=5, trials=2, heavy_side=[1]),
    ]
    for v in values:
        with pytest.raises(AttributeError):
            setattr(v, v._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(v, v._fields[0])
        # a copy or an unpickled value is built again through __init__
        for twin in (copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert twin is not v and twin == v and hash(twin) == hash(v)
        fields = tuple(getattr(v, name) for name in v._fields)
        assert v != fields and v.__eq__(fields) is NotImplemented
    assert pickle.loads(pickle.dumps(H)).symmetries == H.symmetries
    assert repr(FiniteDomain(3)) == "FiniteDomain(size=3, label='X')"
    assert repr(Triple(1, 2, 1)) == "Triple(x=1, xstar=2, y=1)"


def test_class_hash_is_kept_after_the_first_call(monkeypatch):
    H, _ = construct_theorem1(2)
    bare = HypothesisClass(H.domain, H.members)
    rebuilt = HypothesisClass.from_patterns(H.domain, [tuple(h.bits) for h in H])
    assert H.symmetries and not bare.symmetries
    for twin in (bare, rebuilt, pickle.loads(pickle.dumps(H))):
        assert twin is not H and twin == H and hash(twin) == hash(H)
    calls = []
    member_hash = Hypothesis.__hash__

    def counted(h):
        calls.append(h)
        return member_hash(h)

    monkeypatch.setattr(Hypothesis, "__hash__", counted)
    fresh = HypothesisClass(H.domain, H.members)
    assert hash(fresh) == hash(H) and len(calls) == len(H)
    calls.clear()
    assert hash(fresh) == hash(H) and hash(bare) == hash(H) and not calls


# --- distributions ------------------------------------------------------------


def test_distribution_validation():
    t0, t1 = Triple(0, 0, 0), Triple(1, 0, 1)
    FiniteDistribution(((t0, 0.25), (t1, 0.75)))
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution(((t0, 0.25), (t1, 0.7)))
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution(((t0, 0.5), (t0, 0.5)))
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution(((t0, 1.5), (t1, -0.5)))


def test_distribution_total_is_taken_exactly():
    # a plain left-to-right sum gives 1.0000000000009999 (within 1e-12) on
    # Python 3.11 and 1.000000000001 on 3.12; the exactly rounded total is
    # the latter on every version, so the table is rejected everywhere
    probs = [0.1] * 9 + [0.10000000000099993]
    support = tuple((Triple(i, 0, 0), p) for i, p in enumerate(probs))
    with pytest.raises(InvalidDistributionError, match="sum to 1.000000000001,"):
        FiniteDistribution(support)


def test_distribution_cumulative_and_lookup():
    t0, t1, t2 = Triple(0, 0, 0), Triple(1, 0, 1), Triple(2, 0, 0)
    d = FiniteDistribution(((t0, 0.2), (t1, 0.3), (t2, 0.5)))
    assert d.cumulative == pytest.approx((0.2, 0.5, 1.0))
    assert d.probability(t1) == 0.3
    assert d.probability(Triple(5, 5, 1)) == 0.0


# --- loss functions -----------------------------------------------------------


def test_zero_one_loss_values():
    assert zero_one_loss(1, 1) == 0
    assert zero_one_loss(0, 1) == 1
    assert zero_one_loss(1, 0) == 1
    with pytest.raises(ValueError):
        zero_one_loss(2, 0)


def test_ignoring_loss_ignores_label():
    assert ignoring_loss(1, 0) == 1
    assert ignoring_loss(1, 1) == 1
    assert ignoring_loss(0, 1) == 0
    for z in (0, 1):
        assert ignoring_loss(z, 0) == ignoring_loss(z, 1)


def test_composite_loss_values():
    assert composite_loss(1, 1, 1) == 1
    assert composite_loss(0, 0, 1) == 0
    assert composite_loss(0, 1, 2) == 0.5
    with pytest.raises(ValueError):
        composite_loss(0, 1, 0)
    with pytest.raises(ValueError):
        composite_loss(0, 1, -2.0)


def test_composite_loss_is_max_at_unit_cost():
    for l in (0, 1):
        for lstar in (0, 1):
            assert composite_loss(l, lstar, 1) == max(l, lstar)


def test_f_equals_ignoring_plus_aux_pointwise():
    """On binary losses the two event indicators partition the f event.

    Also f at (x, x*, y) is 1 - aux at (x, x*, 1-y): F is aux complemented
    and read with the label swapped.
    """
    domx, doms = FiniteDomain(2, "X"), FiniteDomain(2, "X*")
    hs = [Hypothesis(domx, b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    ps = [Hypothesis(doms, b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    for h in hs:
        for phi in ps:
            for x in range(2):
                for xs in range(2):
                    for y in range(2):
                        t = Triple(x, xs, y)
                        assert f_loss(h, phi, t) == ignoring_loss(
                            phi(xs), y
                        ) + aux_loss(h, phi, t)
                        assert f_loss(h, phi, t) == 1 - aux_loss(
                            h, phi, Triple(x, xs, 1 - y)
                        )


def test_f_loss_cases():
    domx, doms = FiniteDomain(1, "X"), FiniteDomain(1, "X*")
    h = Hypothesis(domx, (1,))
    flag = Hypothesis(doms, (1,))
    noflag = Hypothesis(doms, (0,))
    assert f_loss(h, noflag, Triple(0, 0, 1)) == 0  # correct, not flagged
    assert f_loss(h, flag, Triple(0, 0, 1)) == 1  # correct but flagged
    assert f_loss(h, noflag, Triple(0, 0, 0)) == 1  # plain error
    assert aux_loss(h, noflag, Triple(0, 0, 0)) == 1
    assert aux_loss(h, flag, Triple(0, 0, 0)) == 0
    assert aux_loss(h, noflag, Triple(0, 0, 1)) == 0


# --- exact true error ---------------------------------------------------------


def test_exact_true_error_two_point_support():
    dom = FiniteDomain(2)
    h = Hypothesis(dom, (0, 0))
    d = FiniteDistribution(((Triple(0, 0, 0), 0.25), (Triple(1, 0, 1), 0.75)))
    assert exact_true_error(h, d) == 0.75


def test_exact_true_error_extremes():
    dom = FiniteDomain(2)
    d = FiniteDistribution(((Triple(0, 0, 0), 0.5), (Triple(1, 0, 1), 0.5)))
    assert exact_true_error(Hypothesis(dom, (0, 1)), d) == 0.0
    assert exact_true_error(Hypothesis(dom, (1, 0)), d) == 1.0


def test_exact_true_error_domain_mismatch():
    h = Hypothesis(FiniteDomain(1), (0,))
    d = FiniteDistribution(((Triple(3, 0, 0), 1.0),))
    with pytest.raises(
        DomainMismatchError, match=r"^support x index 3 outside domain of size 1$"
    ):
        exact_true_error(h, d)


def test_exact_true_error_permutation_invariant():
    rng = random.Random(7)
    dom = FiniteDomain(5)
    pts = [(Triple(i, 0, rng.randint(0, 1)), p) for i, p in enumerate((0.1, 0.2, 0.3, 0.25, 0.15))]
    h = Hypothesis(dom, tuple(rng.randint(0, 1) for _ in range(5)))
    base = exact_true_error(h, FiniteDistribution(tuple(pts)))
    for _ in range(10):
        rng.shuffle(pts)
        assert exact_true_error(h, FiniteDistribution(tuple(pts))) == pytest.approx(
            base, abs=1e-15
        )


# --- JSON interchange ---------------------------------------------------------


def test_class_json_round_trip():
    dom = FiniteDomain(3)
    cls = HypothesisClass.from_patterns(dom, [(0, 1, 1), (1, 0, 0)])
    obj = class_to_json(cls)
    assert obj == {"domain_size": 3, "hypotheses": ["011", "100"]}
    assert class_from_json(obj) == cls


def test_class_json_reads_a_member_written_as_a_list_of_bit_strings():
    obj = {"domain_size": 3, "hypotheses": [["0", "1", "1"], "100"]}
    want = {"domain_size": 3, "hypotheses": ["011", "100"]}
    assert class_from_json(obj) == class_from_json(want)


def test_distribution_json_round_trip():
    d = FiniteDistribution(((Triple(0, 1, 0), 0.25), (Triple(1, 0, 1), 0.75)))
    assert distribution_from_json(distribution_to_json(d)) == d


def test_sample_json_round_trip():
    s = TripleSample((Triple(0, 1, 0), Triple(2, 2, 1)))
    assert sample_from_json(sample_to_json(s)) == s


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1)),
                max_size=12))
def test_sample_json_round_trip_random(raw):
    s = TripleSample(tuple(Triple(*r) for r in raw))
    assert sample_from_json(sample_to_json(s)) == s


def test_probabilities_off_by_more_than_tolerance_rejected():
    t0, t1 = Triple(0, 0, 0), Triple(1, 0, 1)
    # 1e-13 under the tolerance passes, 1e-11 over does not
    FiniteDistribution(((t0, 0.5), (t1, 0.5 - 1e-13)))
    with pytest.raises(InvalidDistributionError):
        FiniteDistribution(((t0, 0.5), (t1, 0.5 - 1e-11)))


def test_loss_values_reject_nonbinary():
    assert math.isfinite(composite_loss(1, 0, 3.5))
    with pytest.raises(ValueError):
        ignoring_loss(0, 2)
    with pytest.raises(ValueError):
        composite_loss(2, 0, 1)
