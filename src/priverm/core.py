"""Domains, hypotheses, samples, finite distributions, and loss functions.

All domains are finite and indexed densely by 0..size-1.  A hypothesis is a
total binary labeling of one domain, stored as one ``bytes`` object whose
items are the ints 0 and 1 (so ``h.bits == (0, 1)`` is False: compare
``tuple(h.bits)``); a hypothesis class is a deduplicated, canonically
ordered set of such labelings.  Losses are pure functions on {0,1} values,
so every quantity downstream (empirical risk, true error, VC dimension) is
computed exactly.  The checks of a run's parameters (the cost C, a seed,
m and trials, a comparison's ``ExperimentConfig``, a deviation run's
``DeviationConfig`` and the bounds' ``BoundInputs``) live here too, so they
run before numpy, or the module that uses them, is loaded.  Each of those
three states its JSON keys once, in its ``KEYS``.

The value types here are plain slotted classes on one frozen mix-in,
``_Frozen``, and each lists its fields once, in ``_fields``; the package's
unchecked result records are named tuples.  So importing this module, and
running any numpy-free command, loads neither the dataclass module nor
``inspect``, and builds no dataclass.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

PROB_TOLERANCE = 1e-12
PREMISE_TOLERANCE = 1e-9

# ASCII base-2 digits to and from the byte values 0 and 1
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# any value equal to a bit (1.0, True), looked up as that bit's int
_BIT = {0: 0, 1: 1}


class InputError(ValueError):
    """Bad input: an argument, a file or a value in one fails a check.

    Every argument check in the package raises this type or a subclass, so
    the CLI reads it, and only it, as bad input (exit 2).
    """


class DomainMismatchError(InputError):
    """An index or hypothesis was used against the wrong domain."""


class InvalidDistributionError(InputError):
    """A probability table failed validation."""


# sets a field of a frozen value, past its __setattr__; only __init__ and the
# unchecked constructors call it
_set = object.__setattr__


class _Frozen:
    """A frozen value whose fields are its class's ``_fields``.

    ``__init__`` checks its arguments and sets each field once, through
    ``_set``; assigning or deleting an attribute afterwards raises
    ``AttributeError``.  Two values are equal when they are of one type and
    their fields are equal, and the hash is that of the fields; ``repr``
    reads ``Name(field=value, ...)``.  Any other slot (``symmetries``, a
    ``__dict__`` of cached reads) takes no part in either.  A copy or an
    unpickled value is built again through ``__init__``, so it passes the
    same checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # every field in one C call, for equality and hashing
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # __init__ takes the slots in their order, cached reads aside
        return type(self), tuple([getattr(self, n) for n in self.__slots__ if n != "__dict__"])


class FiniteDomain(_Frozen):
    """An indexed finite set of points, 0..size-1."""

    __slots__ = _fields = ("size", "label")

    def __init__(self, size: int, label: str = "X") -> None:
        if size < 1:
            raise InputError(f"domain_size must be >= 1, got {size}")
        _set(self, "size", size)
        _set(self, "label", label)


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


class Hypothesis(_Frozen):
    """A total binary labeling of a finite domain.

    ``bits[i]`` is the label of point ``i``.  The labels are stored as one
    ``bytes`` object whose items are the ints 0 and 1: indexing and
    iteration give ints, but ``h.bits == (0, 1)`` is False, so compare
    ``tuple(h.bits)`` with a tuple.  Any sequence of values equal to 0 or 1
    is accepted (``True``, ``1.0``, NumPy integers), so a hypothesis
    equals, hashes and serialises like its int twin.  Hypotheses are
    immutable, hashable and slotted (no ``__dict__``); the integer ``mask``
    view (bit i = label of point i) is computed on each read, for
    ``k_fold_union``, which ORs members.
    """

    __slots__ = _fields = ("domain", "bits")

    def __init__(self, domain: FiniteDomain, bits: Sequence[int]) -> None:
        _check_length(bits, domain)
        try:
            raw = bytes(map(_BIT.__getitem__, bits))
        except (KeyError, TypeError):
            # a value not equal to 0 or 1, or one that cannot be hashed
            raise InputError("bits must all be 0 or 1") from None
        _set(self, "domain", domain)
        _set(self, "bits", raw)

    @property
    def mask(self) -> int:
        """Integer view with bit i set iff point i is labeled 1."""
        return int(self.bits[::-1].translate(_TO_DIGITS), 2)

    def __call__(self, i: int) -> int:
        if not 0 <= i < self.domain.size:
            raise DomainMismatchError(
                f"point {i} outside domain of size {self.domain.size}"
            )
        return self.bits[i]

    def to_bitstring(self) -> str:
        """Point-0-first bit string, e.g. '0110'."""
        return self.bits.translate(_TO_DIGITS).decode()

    @classmethod
    def from_bitstring(cls, domain: FiniteDomain, s: str) -> "Hypothesis":
        if set(s) - {"0", "1"}:
            raise InputError(f"bit string may contain only 0/1: {s!r}")
        # a sequence of "0" and "1" strings reads like the string they join to
        bits = "".join(s).encode().translate(_FROM_DIGITS)
        _check_length(bits, domain)
        return cls._from_bytes(domain, bits)

    @classmethod
    def from_mask(cls, domain: FiniteDomain, mask: int) -> "Hypothesis":
        """Bit i of ``mask`` labels point i; bits past the domain are ignored."""
        n = domain.size
        digits = format(mask & ((1 << n) - 1), f"0{n}b")[::-1]
        return cls._from_bytes(domain, digits.encode().translate(_FROM_DIGITS))

    @classmethod
    def _from_bytes(cls, domain: FiniteDomain, bits: bytes) -> "Hypothesis":
        """A hypothesis on ``bits``, one byte 0 or 1 per point: nothing is checked."""
        h = object.__new__(cls)
        _set(h, "domain", domain)
        _set(h, "bits", bits)
        return h


def _check_length(bits, domain: FiniteDomain) -> None:
    if len(bits) != domain.size:
        raise InputError(f"bit pattern length {len(bits)} != domain size {domain.size}")



class HypothesisClass(_Frozen):
    """A deduplicated finite set of hypotheses over one shared domain.

    Members are kept in canonical order (lexicographic by ``bits``, i.e.
    the order in which the patterns read as point-0-first bit strings), so
    "smallest member index" is well defined for tie-breaking.

    ``symmetries`` optionally lists point permutations that map the member
    set onto itself, each as a tuple whose entry p is the image of point p.
    They generate a group the exact VC search uses to drop whole orbits of
    points (see ``orbits``, which checks them once per class, on first
    read).  Only the named constructions set them: the triplet products of
    ``construct_theorem1`` and the loss classes that ``build_f_class`` and
    ``build_aux_class`` lift from those.  Every other class, including one
    read from JSON, carries none.  The slot takes no part in equality,
    hashing, ``repr`` or ``class_to_json``.

    ``columns`` and ``orbits`` are computed on first read and kept in the
    class's ``__dict__``, as the class is frozen; like ``symmetries``, they
    take no part in equality, hashing or ``repr``.
    """

    _fields = ("domain", "members")
    __slots__ = _fields + ("symmetries", "__dict__")

    def __init__(
        self, domain: FiniteDomain, members: tuple[Hypothesis, ...],
        symmetries: tuple[tuple[int, ...], ...] = (),
    ) -> None:
        _set(self, "domain", domain)
        _set(self, "members", members)
        _set(self, "symmetries", symmetries)
        # one pass accepts a valid class: each member on the class domain,
        # with bits strictly after the previous member's (sorted, no repeats)
        prev = b""
        for h in members:
            if h.domain is not domain and h.domain != domain or h.bits <= prev:
                break
            prev = h.bits
        else:
            return
        # on a fault, a foreign member is named before a repeat and a repeat
        # before misorder, wherever in the members each one sits
        for h in members:
            if h.domain != domain:
                raise DomainMismatchError("all members must share the class domain")
        if len({h.bits for h in members}) != len(members):
            raise InputError("members must be deduplicated")
        raise InputError("members must be in canonical (lexicographic) order")

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

        The rows are joined last member first, so point p's labels are every
        n-th byte from p, and member i lands on bit i of the base-2 parse.
        """
        n = self.domain.size
        rows = b"".join([h.bits for h in reversed(self.members)])
        return tuple([int(rows[p::n].translate(_TO_DIGITS), 2) for p in range(n)])

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit of each point under ``symmetries``, () for a point they all fix.

        Each generator is checked first: it must permute the domain and map
        the member set onto itself, else ``InputError``.  A read that raises
        keeps nothing, so a class with a bad generator raises on every read.
        Orbits come from union-find over the generators; the group is never
        enumerated.
        """
        n = self.domain.size
        identity = list(range(n))
        rows = {h.bits for h in self.members}
        for g in self.symmetries:
            if sorted(g) != identity:
                raise InputError(f"symmetry {tuple(g)} is not a permutation of {n} points")
            inverse = [0] * n
            for p, q in enumerate(g):
                inverse[q] = p
            image = itemgetter(*inverse)
            # one point has only the identity, and there itemgetter returns a bit
            if n > 1 and any(bytes(image(r)) not in rows for r in rows):
                raise InputError(f"symmetry {tuple(g)} does not map the class onto itself")
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


class Triple(_Frozen):
    """One training example: (x index, x* index, label)."""

    __slots__ = _fields = ("x", "xstar", "y")

    def __init__(self, x: int, xstar: int, y: int) -> None:
        for name, v in (("x", x), ("xstar", xstar)):
            if v < 0:
                raise InputError(f"{name} must be >= 0, got {v}")
        if y not in (0, 1):
            raise InputError(f"y must be 0 or 1, got {y}")
        _set(self, "x", x)
        _set(self, "xstar", xstar)
        _set(self, "y", y)


def check_domain(
    triples: Iterable[Triple], index: str, cls: HypothesisClass | Hypothesis, what: str
) -> None:
    """Reject triples whose ``index`` field (x or xstar) leaves ``cls.domain``.

    ``cls`` is anything with a ``domain``: a class or a single hypothesis.
    """
    top = max((getattr(t, index) for t in triples), default=-1)
    if top >= cls.domain.size:
        raise DomainMismatchError(
            f"{what} {index} index {top} outside domain of size {cls.domain.size}"
        )


class TripleSample(_Frozen):
    """An ordered sequence of training triples; nothing is checked.

    It iterates over its triples, so it is no named tuple, whose own
    methods read its fields by iterating.
    """

    __slots__ = _fields = ("triples",)

    def __init__(self, triples: tuple[Triple, ...]) -> None:
        _set(self, "triples", triples)

    @property
    def m(self) -> int:
        return len(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


class FiniteDistribution(_Frozen):
    """A probability table over (x, x*, y) triples.

    Probabilities must sum to 1 within ``PROB_TOLERANCE``, summed with
    ``math.fsum``, and support triples must be distinct.  Expectations over the support are therefore exact up
    to float summation, with summation order fixed by the support order.
    ``cumulative`` is computed on first read and kept in the ``__dict__``.
    """

    _fields = ("support",)
    __slots__ = _fields + ("__dict__",)

    def __init__(self, support: tuple[tuple[Triple, float], ...]) -> None:
        triples = [t for t, _ in support]
        if len(set(triples)) != len(triples):
            raise InvalidDistributionError("duplicate triples in support")
        for t, p in support:
            if not 0.0 <= p <= 1.0:
                raise InvalidDistributionError(f"p must be in [0, 1], got {p} for {t}")
        # correctly rounded, so the verdict does not depend on the Python version
        total = math.fsum(p for _, p in support)
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise InvalidDistributionError(
                f"support probabilities sum to {total!r}, not 1 within {PROB_TOLERANCE}"
            )
        _set(self, "support", support)

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
            raise InputError(f"expected a binary value, got {v!r}")


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
    check_cost(C)
    return lstar / C + max(l - lstar, 0)


def f_loss(h: Hypothesis, phi: Hypothesis, t: Triple) -> int:
    """Composite zero-one loss max(error of h, flag of phi) on one triple."""
    return max(zero_one_loss(h(t.x), t.y), ignoring_loss(phi(t.xstar), t.y))


def aux_loss(h: Hypothesis, phi: Hypothesis, t: Triple) -> int:
    """1 iff h errs on the triple and phi does not flag it."""
    return int(h(t.x) != t.y and phi(t.xstar) == 0)


def exact_true_error(h: Hypothesis, dist: FiniteDistribution) -> float:
    """Probability mass of support triples misclassified by h."""
    check_domain((t for t, _ in dist.support), "x", h, "support")
    total = 0.0
    for t, p in dist.support:
        if h.bits[t.x] != t.y:
            total += p
    return total


# --- JSON interchange ------------------------------------------------------
#
# Class files:        {"domain_size": n, "hypotheses": ["0110...", ...]}
# Distribution files: {"support": [{"x": i, "xstar": j, "y": b, "p": v}, ...]}
# Sample files:       {"triples": [{"x": i, "xstar": j, "y": b}, ...]}
#
# Every object read, nested ones included, must carry only the keys shown.

_TRIPLE_KEYS = frozenset({"x", "xstar", "y"})
_POINT_KEYS = _TRIPLE_KEYS | {"p"}


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
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def strict_real(value, what: str) -> float:
    """A number read from JSON, as a float; anything else, bools included, is rejected.

    An integer too large for a float is rejected by ``check_float``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    check_float(value, what)
    return float(value)


def check_keys(raw, known, what: str, optional=frozenset(), keys: str | None = None) -> None:
    """Raise unless ``raw`` is a JSON object with only ``known`` keys, and
    with every known key outside ``optional``.

    Stray or missing keys are named under ``keys`` if given, else under
    "``what`` keys", as in ``missing class keys: domain_size``.
    """
    if not isinstance(raw, dict):
        raise InputError(f"{what} must be a JSON object")
    keys = keys or what + " keys"
    extra = sorted(raw.keys() - known)
    if extra:
        raise InputError(f"unknown {keys}: {', '.join(extra)}")
    missing = sorted(known - optional - raw.keys())
    if missing:
        raise InputError(f"missing {keys}: {', '.join(missing)}")


def _triple_from_json(e: dict, known=_TRIPLE_KEYS, what: str = "triple") -> Triple:
    check_keys(e, known, what)
    return Triple(
        strict_int(e["x"], "x"), strict_int(e["xstar"], "xstar"), strict_int(e["y"], "y")
    )


def json_array(value, key: str) -> list:
    """``value``, which must be a JSON array; the error names its ``key``."""
    if not isinstance(value, list):
        raise InputError(f"{key} must be a JSON array")
    return value


def class_from_json(obj: dict, label: str = "X") -> HypothesisClass:
    check_keys(obj, {"domain_size", "hypotheses"}, "class")
    domain = FiniteDomain(size=strict_int(obj["domain_size"], "domain_size"), label=label)
    members = json_array(obj["hypotheses"], "hypotheses")
    for i, s in enumerate(members):
        if not (
            isinstance(s, str) and not s.strip("01")
            or isinstance(s, list) and all(b in ("0", "1") for b in s)
        ):
            raise InputError(f'hypotheses[{i}] must be a bit string or a list of "0"/"1" strings')
        if len(s) != domain.size:
            raise InputError(f"hypotheses[{i}] has {len(s)} bits, not domain_size {domain.size}")
    return HypothesisClass.from_hypotheses(
        domain, (Hypothesis.from_bitstring(domain, s) for s in members)
    )


def distribution_to_json(dist: FiniteDistribution) -> dict:
    return {
        "support": [
            {"x": t.x, "xstar": t.xstar, "y": t.y, "p": p} for t, p in dist.support
        ]
    }


def distribution_from_json(obj: dict) -> FiniteDistribution:
    check_keys(obj, {"support"}, "distribution")
    return FiniteDistribution(
        tuple(
            (_triple_from_json(e, _POINT_KEYS, "support point"), strict_real(e["p"], "p"))
            for e in json_array(obj["support"], "support")
        )
    )


def sample_to_json(s: TripleSample) -> dict:
    return {"triples": [{"x": t.x, "xstar": t.xstar, "y": t.y} for t in s.triples]}


def sample_from_json(obj: dict) -> TripleSample:
    check_keys(obj, {"triples"}, "sample")
    return TripleSample(tuple(_triple_from_json(e) for e in json_array(obj["triples"], "triples")))


def load_json(path: str):
    """The JSON document in the file ``path``.

    A file that is not JSON, nests too deep for the parser, holds an integer
    past Python's digit limit or is not UTF-8 raises ``InputError`` naming it.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            detail = f"{exc.msg} at line {exc.lineno} column {exc.colno}"
        except RecursionError:
            detail = "arrays or objects nested too deep"
        except UnicodeDecodeError as exc:
            detail = str(exc)
        except ValueError:
            # the one other fault the parser raises: an integer past the digit limit
            detail = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    raise InputError(f"invalid JSON in {path}: {detail}")


def json_text(obj: dict) -> str:
    """The one JSON output format: keys sorted, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(obj))


# --- run parameters --------------------------------------------------------
#
# Checked here, without numpy, so the CLI can reject a bad run before it
# loads the solvers; the numpy-backed functions check them again.


def check_cost(C: int | float | Fraction) -> None:
    """The one rule for the cost C: positive and finite, else ``InputError``."""
    if not 0 < C < math.inf:
        raise InputError(f"c must be positive and finite, got {C}")


def positive_cost(C: int | float | Fraction) -> Fraction:
    """C, checked by ``check_cost``, as an exact fraction; floats are read through their repr."""
    check_cost(C)
    # imported here: only the commands that solve with a C need it
    from fractions import Fraction

    return Fraction(str(C)) if isinstance(C, float) else Fraction(C)


def check_erm_inputs(
    H: HypothesisClass,
    S: TripleSample,
    Phi: HypothesisClass | None = None,
    C: int | float | Fraction = 1,
) -> Fraction | None:
    """Check one minimization's inputs; return C as a fraction, None without Phi.

    The classes are nonempty, C is positive and finite, and the sample's x
    and xstar lie on the domains of H and Phi.
    """
    if Phi is None:
        if len(H) == 0:
            raise InputError("class must be nonempty")
        check_cost(C)
        check_domain(S.triples, "x", H, "sample")
        return None
    if len(H) == 0 or len(Phi) == 0:
        raise InputError("both classes must be nonempty")
    Cf = positive_cost(C)
    check_domain(S.triples, "x", H, "sample")
    check_domain(S.triples, "xstar", Phi, "sample")
    return Cf


def check_seed(seed: int) -> int:
    """The seed as an int, if it lies in [0, 2**64); else ``InputError``."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def check_delta(delta: float) -> None:
    """The one rule for the confidence parameter delta: in (0, 1), else ``InputError``."""
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")


def check_m(m: int) -> None:
    """The one rule for the sample size m: at least 1, else ``InputError``."""
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")


def check_float(value: int | float, what: str) -> None:
    """The one rule for a number read as a float, an input field or an integer
    a rate reads: ``float`` of it must not overflow, else ``InputError`` naming
    the field, as in ``m is too large for a float``."""
    try:
        float(value)
    except OverflowError:
        raise InputError(f"{what} is too large for a float") from None


def premise_holds(eps_erm: float, eps_ig: float, eps_u: float) -> bool:
    """The one test of the decomposition premise: eps_erm = eps_ig + eps_u
    within PREMISE_TOLERANCE."""
    return abs(eps_erm - (eps_ig + eps_u)) <= PREMISE_TOLERANCE


def check_sizes(m: int, trials: int) -> None:
    """Raise unless the sample size m and the number of trials are each at least 1."""
    check_m(m)
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")


def _as_is(value, key=None):
    return value


class _Config:
    """A run's input object, read from and written to one JSON object.

    ``KEYS`` states the format once: for each field, in ``_fields``' order,
    its JSON key, the reader of its value (called with the value and the
    key, which its errors name) and the writer back.  The keys of the fields
    that ``__init__`` gives a default may be left out.
    """

    __slots__ = ()
    KEYS: tuple

    @classmethod
    def from_json(cls, raw, what: str, given: dict | None = None, keys: str | None = None):
        """The value ``raw`` holds, each key of ``given`` winning over raw's.

        ``check_keys`` checks every key, under ``what`` and ``keys``, before
        any value is read in field order and the constructor checks them.
        """
        given = given or {}
        names = [key for key, _, _ in cls.KEYS]
        optional = {*names[len(names) - len(cls.__init__.__defaults__):], *given}
        check_keys(raw, set(names), what, optional, keys)
        raw = {**raw, **given}
        return cls(**{
            field: read(raw[key], key)
            for field, (key, read, _) in zip(cls._fields, cls.KEYS) if key in raw
        })

    def to_json(self) -> dict:
        """The JSON object that ``from_json`` reads back to this value."""
        return {key: write(getattr(self, field))
                for field, (key, _, write) in zip(self._fields, self.KEYS)}


# the reader and writer of an integer field, and of a real one
_INT, _REAL = (strict_int, _as_is), (strict_real, _as_is)


class ExperimentConfig(_Config, _Frozen):
    """Everything a comparison run depends on; the unit of reproducibility.

    Every input is checked here, once, so a run never starts on a value
    that would fail its trials: m and trials are at least 1, delta lies in
    (0, 1), C is positive and finite, the seed lies in [0, 2**64), and
    every support point's x and xstar lie in the domains of H and Phi.
    """

    __slots__ = _fields = ("distribution", "H", "Phi", "m", "trials", "delta", "seed", "C")
    KEYS = (
        ("distribution", lambda v, k: distribution_from_json(v), distribution_to_json),
        ("h_class", lambda v, k: class_from_json(v, label="X"), class_to_json),
        ("phi_class", lambda v, k: class_from_json(v, label="X*"), class_to_json),
        ("m", *_INT), ("trials", *_INT), ("delta", *_REAL), ("seed", *_INT), ("c", *_REAL),
    )

    def __init__(
        self, distribution: FiniteDistribution, H: HypothesisClass, Phi: HypothesisClass,
        m: int, trials: int, delta: float, seed: int = 0, C: float = 1.0,
    ) -> None:
        check_sizes(m, trials)
        check_delta(delta)
        check_cost(C)
        check_seed(seed)
        points = [t for t, _ in distribution.support]
        check_domain(points, "x", H, "support")
        check_domain(points, "xstar", Phi, "support")
        for name, value in zip(self._fields, (distribution, H, Phi, m, trials, delta, seed, C)):
            _set(self, name, value)


class DeviationConfig(_Config, _Frozen):
    """Everything a deviation run depends on: the Theorem 5 family on Phi
    with its eps, delta and ``heavy_side`` (one 0/1 bit per pair, None for
    all 0), m, trials, the seed, and the searched class, ``search``:
    "prime" for the members that flag one point of each pair, "full" for Phi.

    ``__init__`` checks search, m, trials and the seed; building the family
    checks eps, delta and heavy_side.
    """

    __slots__ = _fields = ("Phi", "eps", "delta", "m", "trials", "seed", "heavy_side", "search")
    KEYS = (
        ("phi_class", lambda v, k: class_from_json(v, label="X*"), class_to_json),
        ("eps", *_REAL), ("delta", *_REAL), ("m", *_INT), ("trials", *_INT), ("seed", *_INT),
        ("heavy_side", lambda v, k: v if v is None else json_array(v, k), _as_is),
        ("search", _as_is, _as_is),
    )

    def __init__(
        self, Phi: HypothesisClass, eps: float, delta: float, m: int, trials: int,
        seed: int = 0, heavy_side: Sequence[int] | None = None, search: str = "prime",
    ) -> None:
        if search not in ("prime", "full"):
            raise InputError(f'search must be "prime" or "full", got {search!r}')
        check_sizes(m, trials)
        check_seed(seed)
        heavy = None if heavy_side is None else tuple(heavy_side)
        for name, value in zip(self._fields, (Phi, eps, delta, m, trials, seed, heavy, search)):
            _set(self, name, value)


class BoundInputs(_Config, _Frozen):
    """Inputs shared by every bound and condition check in ``priverm.bounds``.

    The CLI reads its ``bounds`` flags from ``KEYS`` too, each of the type
    its reader reads.
    """

    KEYS = (("m", *_INT), ("delta", *_REAL), ("d", *_INT), ("dstar", *_INT), ("d_a", *_INT),
            ("eps_erm", *_REAL), ("eps_ig", *_REAL), ("eps_u", *_REAL))
    __slots__ = _fields = tuple(key for key, _, _ in KEYS)

    def __init__(
        self, m: int, delta: float, d: int, dstar: int, d_a: int,
        eps_erm: float = 0.0, eps_ig: float = 0.0, eps_u: float = 0.0,
    ) -> None:
        check_m(m)
        check_delta(delta)
        for name, v in (("d", d), ("dstar", dstar), ("d_a", d_a)):
            if v < 0:
                raise InputError(f"{name} must be >= 0, got {v}")
        for name, v in (("m", m), ("d", d), ("dstar", dstar), ("d_a", d_a)):
            check_float(v, name)
        for name, v in (("eps_erm", eps_erm), ("eps_ig", eps_ig), ("eps_u", eps_u)):
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must be in [0,1], got {v}")
        for name, value in zip(self._fields, (m, delta, d, dstar, d_a, eps_erm, eps_ig, eps_u)):
            _set(self, name, value)

    @property
    def premise_holds(self) -> bool:
        """eps_erm = eps_ig + eps_u within PREMISE_TOLERANCE, by ``premise_holds``.

        ``sufficient_condition`` is defined, and callers evaluate it, only
        when this holds.
        """
        return premise_holds(self.eps_erm, self.eps_ig, self.eps_u)
