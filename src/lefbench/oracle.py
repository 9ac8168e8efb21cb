"""Fiber-level Floer rank oracle.

Floer cohomology ranks between the named vanishing cycles of a fiber are
inputs here, not things we compute: the oracle is an explicit assumption
ledger holding the classical facts a scenario relies on (sphere self-rank
two, disjointness giving rank zero, isotopy substitution, witness-based
non-isomorphism).  Every fact carries a provenance note saying whether it is
a cited classical computation or a scenario assumption.

All coefficients are Z/2 and everything is ungraded; the optional parity
data is a certificate that a generator set carries a single mod-2 grading
(killing the differential), never a Z-grading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import (Inconsistent, InvalidWitness, LefbenchError,
                     MissingParity, UnknownPair)
from .minpos import intersection_profile, shared_ends

if TYPE_CHECKING:  # pragma: no cover
    from .fibration import Fibration, MatchingObject

ALL_SAME = "all-same"
MIXED = "mixed"


class Provenance(NamedTuple):
    kind: str            # "cited" | "assumed"
    slug: str

    def render(self) -> str:
        return f"{self.kind}:{self.slug}"


class LabelDecl(NamedTuple):
    name: str
    sphere: bool = False


# Each kind of fact, in report order, and its printed form over the fact's
# labels {0} {1} (and the witness {2}) and its value.
KINDS = {
    "rank": "rank({0},{1}) = {value}",
    "disjoint": "disjoint({0},{1})",
    "isotopic": "isotopic({0},{1})",
    "witness": "not-isomorphic({0},{1}; witness {2})",
    "parity": "parity({0},{1}) = {value}",
}


class Fact(NamedTuple):
    """One declared fact: labels (i, j), or (i, j, w) for a witness w with
    rank(i, w) = 0 and rank(j, w) > 0 that certifies NotIsomorphic(i, j);
    value is the rank, the parity (ALL_SAME | MIXED), or None."""
    kind: str
    labels: tuple[str, ...]
    value: int | str | None
    provenance: Provenance


def _pair(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class FiberOracle:
    label_decls: tuple[LabelDecl, ...]
    facts: tuple[Fact, ...] = ()          # in file order

    # ------------------------------------------------------------------
    # load-time closure
    # ------------------------------------------------------------------

    def __post_init__(self):
        names = [d.name for d in self.label_decls]
        labels = frozenset(names)
        by_kind: dict[str, list[Fact]] = {kind: [] for kind in KINDS}
        for fact in self.facts:
            by_kind.setdefault(fact.kind, []).append(fact)

        def of_kind(kind: str):
            """The facts of one kind, each one's labels checked just before
            it is processed."""
            for fact in by_kind[kind]:
                for label in fact.labels:
                    if label not in labels:
                        raise LefbenchError(
                            f"undeclared cycle label {label!r}")
                yield fact

        # union-find over isotopy facts, then each label's representative
        parent = {n: n for n in names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for fact in of_kind("isotopic"):
            i, j = fact.labels
            parent[find(i)] = find(j)
        rep = {n: find(n) for n in names}

        table: dict[tuple[str, str], tuple[int, str]] = {}

        def record(i: str, j: str, value: int, why: str) -> None:
            key = _pair(rep[i], rep[j])
            old = table.get(key)
            if old is not None and old[0] != value:
                raise Inconsistent(
                    f"rank({i},{j}) forced to both {old[0]} ({old[1]}) and"
                    f" {value} ({why})")
            table[key] = (value, why)

        for fact in of_kind("rank"):
            if fact.value < 0:
                raise LefbenchError("ranks are nonnegative")
            record(*fact.labels, fact.value,
                   f"declared [{fact.provenance.render()}]")
        for fact in of_kind("disjoint"):
            record(*fact.labels, 0,
                   f"disjointness [{fact.provenance.render()}]")
        for d in self.label_decls:
            if d.sphere:
                record(d.name, d.name, 2, "sphere self-rank")

        parity: dict[tuple[str, str], str] = {}
        for fact in of_kind("parity"):
            if fact.value not in (ALL_SAME, MIXED):
                raise LefbenchError(
                    f"parity must be {ALL_SAME!r} or {MIXED!r}")
            i, j = fact.labels
            key = _pair(rep[i], rep[j])
            if parity.setdefault(key, fact.value) != fact.value:
                raise Inconsistent(
                    f"conflicting parity declarations for ({i},{j})")

        not_iso: set[tuple[str, str]] = set()
        for fact in of_kind("witness"):
            i, j, _ = fact.labels
            if rep[i] == rep[j]:
                raise Inconsistent(
                    f"labels {i!r}, {j!r} declared both isotopic"
                    " and non-isomorphic")
            not_iso.add(_pair(rep[i], rep[j]))

        self.__dict__.update(_rep_of=rep, _table=table, _parity=parity,
                             _not_iso=not_iso, _labels=labels)
        for fact in by_kind["witness"]:
            self._check_witness(*fact.labels)

    def _check_witness(self, i: str, j: str, w: str) -> None:
        try:
            dead = self.rank_of(i, w)
            alive = self.rank_of(j, w)
        except UnknownPair as exc:
            raise InvalidWitness(
                f"witness {w!r} for ({i},{j}) has"
                f" undetermined ranks: {exc}") from exc
        if dead != 0 or alive <= 0:
            raise InvalidWitness(
                f"witness {w!r} for ({i},{j}) needs rank({i},{w}) = 0 and"
                f" rank({j},{w}) > 0; got {dead} and {alive}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def labels(self) -> frozenset:
        return self._labels

    def _rep(self, label: str) -> str:
        try:
            return self._rep_of[label]
        except KeyError:
            raise UnknownPair(f"undeclared cycle label {label!r}") from None

    def rank_of(self, i: str, j: str) -> int:
        key = _pair(self._rep(i), self._rep(j))
        hit = self._table.get(key)
        if hit is None:
            raise UnknownPair(
                f"rank({i},{j}) is determined by no declared fact")
        return hit[0]

    def rank_known(self, i: str, j: str) -> bool:
        return _pair(self._rep(i), self._rep(j)) in self._table

    def parity_of(self, i: str, j: str) -> str | None:
        return self._parity.get(_pair(self._rep(i), self._rep(j)))

    def isomorphic_objects(self, i: str, j: str) -> str:
        """'yes', 'no' (a witnessed non-isomorphism) or 'unknown'."""
        ri, rj = self._rep(i), self._rep(j)
        if ri == rj:
            return "yes"
        return "no" if _pair(ri, rj) in self._not_iso else "unknown"

    def fact_lines(self) -> tuple[str, ...]:
        """Deterministic rendering of every declared fact, for reports:
        labels by name, then facts by kind (KINDS order), unordered label
        pair and printed text."""
        order = list(KINDS)
        facts = sorted(
            (order.index(f.kind), _pair(*f.labels[:2]),
             KINDS[f.kind].format(*f.labels, value=f.value)
             + f"  [{f.provenance.render()}]") for f in self.facts)
        return (tuple([f"label {d.name}" + (" (sphere)" if d.sphere else "")
                       for d in sorted(self.label_decls,
                                       key=lambda d: d.name)])
                + tuple([line for _, _, line in facts]))


# --------------------------------------------------------------------------
# geometric rank of a pair of presented objects
# --------------------------------------------------------------------------

def matching_floer_rank(f: "Fibration", x: "MatchingObject",
                        y: "MatchingObject", o: FiberOracle) -> int:
    """Exact Floer rank between two objects presented over base paths.

    Puts the two paths in minimal position, then counts one generator block
    per interior crossing (of size rank_of on the objects' cycle labels) and
    one generator per shared critical endpoint.  The count is the rank when
    the differential provably vanishes: no generators at all, a single
    nonzero block (the block computes a fiber Floer group on its own), or an
    all-same parity certificate covering the pair.  Otherwise the count only
    bounds the rank, and MissingParity is raised.
    """
    n = intersection_profile(x.path, y.path, f.disc)
    # intersection_profile refuses a shared boundary end: each is a puncture
    shared = len(shared_ends(x.path, y.path))
    block = o.rank_of(x.left_cycle, y.left_cycle) if n else 0
    count = n * block + shared
    nonzero_blocks = (n if block else 0) + shared

    if not (count == 0 or nonzero_blocks == 1
            or o.parity_of(x.left_cycle, y.left_cycle) == ALL_SAME):
        raise MissingParity(
            f"promoting the generator count for ({x.name},{y.name}) to an"
            " exact rank needs an all-same parity certificate for"
            f" ({x.left_cycle},{y.left_cycle})")
    return count
