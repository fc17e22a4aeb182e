"""Domains, hypotheses, samples, finite distributions, and loss functions.

All domains are finite and indexed densely by 0..size-1.  A hypothesis is a
total binary labeling of one domain, stored as a bit tuple; a hypothesis
class is a deduplicated, canonically ordered set of such labelings.  Losses
are pure functions on {0,1} values, so every quantity downstream (empirical
risk, true error, VC dimension) is computed exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

PROB_TOLERANCE = 1e-12

# ASCII base-2 digits to and from the byte values 0 and 1
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# any value equal to a bit (1.0, True), looked up as that bit's int
_BIT = {0: 0, 1: 1}


class DomainMismatchError(ValueError):
    """An index or hypothesis was used against the wrong domain."""


class InvalidDistributionError(ValueError):
    """A probability table failed validation."""


@dataclass(frozen=True)
class FiniteDomain:
    """An indexed finite set of points, 0..size-1."""

    size: int
    label: str = "X"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"domain size must be >= 1, got {self.size}")


def product_domain(n_x: int, n_xstar: int) -> FiniteDomain:
    """Domain of ((x, x*), y) points, enumerated x-major, x*-minor, y-last."""
    return FiniteDomain(size=n_x * n_xstar * 2, label="X×X*×Y")


def product_index(x: int, xstar: int, y: int, n_xstar: int) -> int:
    """Dense index of ((x, x*), y) in the product domain."""
    return (x * n_xstar + xstar) * 2 + y


def product_points(n_x: int, n_xstar: int) -> list[tuple[int, int, int]]:
    """The (x, x*, y) of each product point, in enumeration order."""
    return [(x, xs, y) for x in range(n_x) for xs in range(n_xstar) for y in (0, 1)]


def product_legend(n_x: int, n_xstar: int) -> list[str]:
    """Index-to-name map for a product domain, in enumeration order."""
    return [f"(x={x},x*={xs},y={y})" for x, xs, y in product_points(n_x, n_xstar)]


def labeled_domain(n: int, label: str = "X") -> FiniteDomain:
    """Domain of (point, y) pairs, enumerated point-major, y-last."""
    return FiniteDomain(size=n * 2, label=f"{label}×Y")


def labeled_index(point: int, y: int) -> int:
    return point * 2 + y


@dataclass(frozen=True)
class Hypothesis:
    """A total binary labeling of a finite domain.

    ``bits[i]`` is the label of point ``i``.  Any value equal to 0 or 1 is
    accepted as a bit (``True``, ``1.0``) and stored as the int 0 or 1, so
    a hypothesis equals, hashes and serialises like its int twin.
    Hypotheses are immutable and hashable; the integer ``mask`` view (bit i
    = label of point i) is cached for fast projections.
    """

    domain: FiniteDomain
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.domain.size:
            raise ValueError(
                f"bit pattern length {len(self.bits)} != domain size {self.domain.size}"
            )
        try:
            # ints and bools in one pass; a float, a string or None raises
            raw = bytes(self.bits)
        except (TypeError, ValueError):
            raw = None
        if raw is None or raw.translate(None, b"\x00\x01"):
            try:
                raw = bytes(map(_BIT.__getitem__, self.bits))
            except KeyError:
                raise ValueError("bits must all be 0 or 1") from None
        object.__setattr__(self, "bits", tuple(raw))

    @cached_property
    def mask(self) -> int:
        """Integer view with bit i set iff point i is labeled 1."""
        m = 0
        for i, b in enumerate(self.bits):
            if b:
                m |= 1 << i
        return m

    def __call__(self, i: int) -> int:
        if not 0 <= i < self.domain.size:
            raise DomainMismatchError(
                f"point {i} outside domain of size {self.domain.size}"
            )
        return self.bits[i]

    def to_bitstring(self) -> str:
        """Point-0-first bit string, e.g. '0110'."""
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_bitstring(cls, domain: FiniteDomain, s: str) -> "Hypothesis":
        if set(s) - {"0", "1"}:
            raise ValueError(f"bit string may contain only 0/1: {s!r}")
        return cls(domain, tuple(int(c) for c in s))

    @classmethod
    def from_mask(cls, domain: FiniteDomain, mask: int) -> "Hypothesis":
        """Bit i of ``mask`` labels point i; bits past the domain are ignored."""
        n = domain.size
        digits = format(mask & ((1 << n) - 1), f"0{n}b")[::-1]
        # n ints, each 0 or 1, by construction: nothing for __post_init__ to check
        h = object.__new__(cls)
        object.__setattr__(h, "domain", domain)
        object.__setattr__(h, "bits", tuple(digits.encode().translate(_FROM_DIGITS)))
        return h


@dataclass(frozen=True)
class HypothesisClass:
    """A deduplicated finite set of hypotheses over one shared domain.

    Members are kept in canonical order (lexicographic by bit tuple, i.e.
    the order in which the patterns read as point-0-first bit strings), so
    "smallest member index" is well defined for tie-breaking.

    ``symmetries`` optionally lists point permutations that map the member
    set onto itself, each as a tuple whose entry p is the image of point p.
    They generate a group the exact VC search uses to drop whole orbits of
    points (see ``orbits``, which checks them once per class, on first
    read).  Only the named constructions set them: the triplet products of
    ``construct_theorem1`` and the loss classes that ``build_f_class`` and
    ``build_aux_class`` lift from those.  Every other class, including one
    read from JSON, carries none.  The field takes no part in equality,
    hashing, ``repr`` or ``class_to_json``.

    ``columns`` and ``orbits`` are computed on first read and kept with the
    class, which is frozen; like the field above, they take no part in
    equality, hashing or ``repr``.
    """

    domain: FiniteDomain
    members: tuple[Hypothesis, ...]
    symmetries: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # one pass accepts a valid class: each member on the class domain,
        # with bits strictly after the previous member's (sorted, no repeats)
        dom, prev = self.domain, ()
        for h in self.members:
            if h.domain != dom or h.bits <= prev:
                break
            prev = h.bits
        else:
            return
        # on a fault, a foreign member is named before a repeat and a repeat
        # before misorder, wherever in the members each one sits
        for h in self.members:
            if h.domain != dom:
                raise DomainMismatchError("all members must share the class domain")
        if len({h.bits for h in self.members}) != len(self.members):
            raise ValueError("members must be deduplicated")
        raise ValueError("members must be in canonical (lexicographic) order")

    @classmethod
    def from_hypotheses(
        cls,
        domain: FiniteDomain,
        hypotheses: Iterable[Hypothesis],
        symmetries: tuple[tuple[int, ...], ...] = (),
    ) -> "HypothesisClass":
        unique = {h.bits: h for h in hypotheses}
        ordered = tuple(unique[b] for b in sorted(unique))
        return cls(domain, ordered, symmetries)

    @classmethod
    def from_patterns(
        cls, domain: FiniteDomain, patterns: Iterable[Sequence[int]]
    ) -> "HypothesisClass":
        return cls.from_hypotheses(
            domain, (Hypothesis(domain, tuple(p)) for p in patterns)
        )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.members[i]

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Bit column of each point: bit i is member i's label there.

        Rows are read last member first, so member i lands on bit i of the
        base-2 parse.
        """
        rows = [h.bits for h in reversed(self.members)]
        return tuple([int(bytes(col).translate(_TO_DIGITS), 2) for col in zip(*rows)])

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit of each point under ``symmetries``, () for a point they all fix.

        Each generator is checked first: it must permute the domain and map
        the member set onto itself, else ``ValueError``.  A read that raises
        keeps nothing, so a class with a bad generator raises on every read.
        Orbits come from union-find over the generators; the group is never
        enumerated.
        """
        n = self.domain.size
        identity = list(range(n))
        rows = {h.bits for h in self.members}
        for g in self.symmetries:
            if sorted(g) != identity:
                raise ValueError(f"symmetry {tuple(g)} is not a permutation of {n} points")
            inverse = [0] * n
            for p, q in enumerate(g):
                inverse[q] = p
            image = itemgetter(*inverse)
            # one point has only the identity, and there itemgetter returns a bit
            if n > 1 and any(image(r) not in rows for r in rows):
                raise ValueError(f"symmetry {tuple(g)} does not map the class onto itself")
        parent = list(range(n))

        def find(p: int) -> int:
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for g in self.symmetries:
            for p in range(n):
                a, b = find(p), find(g[p])
                if a != b:
                    parent[a] = b
        roots = [find(p) for p in range(n)]
        groups: dict[int, list[int]] = {}
        for p, r in enumerate(roots):
            groups.setdefault(r, []).append(p)
        return tuple([tuple(groups[r]) if len(groups[r]) > 1 else () for r in roots])


@dataclass(frozen=True)
class Triple:
    """One training example: (x index, x* index, label)."""

    x: int
    xstar: int
    y: int

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")
        if self.x < 0 or self.xstar < 0:
            raise ValueError("indices must be nonnegative")


@dataclass(frozen=True)
class TripleSample:
    """An ordered sequence of training triples."""

    triples: tuple[Triple, ...]

    @property
    def m(self) -> int:
        return len(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability table over (x, x*, y) triples.

    Probabilities must sum to 1 within ``PROB_TOLERANCE`` and support triples
    must be distinct.  Expectations over the support are therefore exact up
    to float summation, with summation order fixed by the support order.
    """

    support: tuple[tuple[Triple, float], ...]

    def __post_init__(self) -> None:
        triples = [t for t, _ in self.support]
        if len(set(triples)) != len(triples):
            raise InvalidDistributionError("duplicate triples in support")
        for t, p in self.support:
            if not 0.0 <= p <= 1.0:
                raise InvalidDistributionError(f"probability {p} outside [0,1] for {t}")
        total = sum(p for _, p in self.support)
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise InvalidDistributionError(
                f"probabilities sum to {total!r}, not 1 within {PROB_TOLERANCE}"
            )

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        """Running totals over the support, for inverse-CDF sampling."""
        acc, out = 0.0, []
        for _, p in self.support:
            acc += p
            out.append(acc)
        return tuple(out)

    def probability(self, t: Triple) -> float:
        for u, p in self.support:
            if u == t:
                return p
        return 0.0


# --- loss functions -------------------------------------------------------


def _check_binary(*values: int) -> None:
    for v in values:
        if v not in (0, 1):
            raise ValueError(f"expected a binary value, got {v!r}")


def zero_one_loss(yhat: int, y: int) -> int:
    """1 iff the prediction disagrees with the label."""
    _check_binary(yhat, y)
    return int(yhat != y)


def ignoring_loss(z: int, y: int) -> int:
    """1 iff the correcting value flags the example; the label is ignored."""
    _check_binary(z, y)
    return int(z == 1)


def composite_loss(l: int, lstar: int, C: float) -> float:
    """Joint loss (1/C)*lstar + max(l - lstar, 0) for binary loss values."""
    _check_binary(l, lstar)
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    return lstar / C + max(l - lstar, 0)


def f_loss(h: Hypothesis, phi: Hypothesis, t: Triple) -> int:
    """Composite zero-one loss max(error of h, flag of phi) on one triple."""
    return max(zero_one_loss(h(t.x), t.y), ignoring_loss(phi(t.xstar), t.y))


def aux_loss(h: Hypothesis, phi: Hypothesis, t: Triple) -> int:
    """1 iff h errs on the triple and phi does not flag it."""
    return int(h(t.x) != t.y and phi(t.xstar) == 0)


def exact_true_error(h: Hypothesis, dist: FiniteDistribution) -> float:
    """Probability mass of support triples misclassified by h."""
    total = 0.0
    for t, p in dist.support:
        if not 0 <= t.x < h.domain.size:
            raise DomainMismatchError(
                f"support point x={t.x} outside domain of size {h.domain.size}"
            )
        if h.bits[t.x] != t.y:
            total += p
    return total


# --- JSON interchange ------------------------------------------------------
#
# Class files:        {"domain_size": n, "hypotheses": ["0110...", ...]}
# Distribution files: {"support": [{"x": i, "xstar": j, "y": b, "p": v}, ...]}
# Sample files:       {"triples": [{"x": i, "xstar": j, "y": b}, ...]}


def class_to_json(cls: HypothesisClass) -> dict:
    return {
        "domain_size": cls.domain.size,
        "hypotheses": [h.to_bitstring() for h in cls.members],
    }


def strict_int(value, what: str) -> int:
    """An integer read from JSON; bools, fractional numbers and non-numbers are rejected.

    Integral floats such as 3.0 are accepted.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def strict_real(value, what: str) -> float:
    """A number read from JSON, as a float; anything else, bools included, is rejected.

    An integer too large for a float is rejected with a message naming the field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _triple_from_json(e: dict) -> Triple:
    return Triple(
        strict_int(e["x"], "x"), strict_int(e["xstar"], "xstar"), strict_int(e["y"], "y")
    )


def class_from_json(obj: dict, label: str = "X") -> HypothesisClass:
    domain = FiniteDomain(size=strict_int(obj["domain_size"], "domain_size"), label=label)
    return HypothesisClass.from_hypotheses(
        domain, (Hypothesis.from_bitstring(domain, s) for s in obj["hypotheses"])
    )


def distribution_to_json(dist: FiniteDistribution) -> dict:
    return {
        "support": [
            {"x": t.x, "xstar": t.xstar, "y": t.y, "p": p} for t, p in dist.support
        ]
    }


def distribution_from_json(obj: dict) -> FiniteDistribution:
    return FiniteDistribution(
        tuple((_triple_from_json(e), strict_real(e["p"], "p")) for e in obj["support"])
    )


def sample_to_json(s: TripleSample) -> dict:
    return {"triples": [{"x": t.x, "xstar": t.xstar, "y": t.y} for t in s.triples]}


def sample_from_json(obj: dict) -> TripleSample:
    return TripleSample(tuple(_triple_from_json(e) for e in obj["triples"]))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
