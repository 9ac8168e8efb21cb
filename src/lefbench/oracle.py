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
from typing import TYPE_CHECKING

from .errors import (Inconsistent, InvalidWitness, LefbenchError,
                     MissingParity, UnknownPair)
from .minpos import intersection_profile

if TYPE_CHECKING:  # pragma: no cover
    from .fibration import Fibration, MatchingObject

ALL_SAME = "all-same"
MIXED = "mixed"


@dataclass(frozen=True)
class Provenance:
    kind: str            # "cited" | "assumed"
    slug: str

    def render(self) -> str:
        return f"{self.kind}:{self.slug}"


@dataclass(frozen=True)
class LabelDecl:
    name: str
    sphere: bool = False


@dataclass(frozen=True)
class RankFact:
    i: str
    j: str
    value: int
    provenance: Provenance


@dataclass(frozen=True)
class DisjointFact:
    i: str
    j: str
    provenance: Provenance


@dataclass(frozen=True)
class IsotopicFact:
    i: str
    j: str
    provenance: Provenance


@dataclass(frozen=True)
class WitnessFact:
    """NotIsomorphic(i, j) certified by a witness label w with
    rank(i, w) = 0 and rank(j, w) > 0."""
    i: str
    j: str
    witness: str
    provenance: Provenance


Relation = DisjointFact | IsotopicFact | WitnessFact


@dataclass(frozen=True)
class ParityFact:
    i: str
    j: str
    parity: str          # ALL_SAME | MIXED
    provenance: Provenance


def _pair(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class FiberOracle:
    label_decls: tuple[LabelDecl, ...]
    rank_facts: tuple[RankFact, ...] = ()
    relations: tuple[Relation, ...] = ()
    parity_facts: tuple[ParityFact, ...] = ()

    # ------------------------------------------------------------------
    # load-time closure
    # ------------------------------------------------------------------

    def __post_init__(self):
        names = [d.name for d in self.label_decls]
        labels = frozenset(names)

        def need(label: str) -> None:
            if label not in labels:
                raise LefbenchError(f"undeclared cycle label {label!r}")

        # union-find over isotopy facts
        parent = {n: n for n in names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for rel in self.relations:
            if isinstance(rel, IsotopicFact):
                need(rel.i), need(rel.j)
                parent[find(rel.i)] = find(rel.j)

        table: dict[tuple[str, str], tuple[int, str]] = {}

        def record(i: str, j: str, value: int, why: str) -> None:
            key = _pair(find(i), find(j))
            old = table.get(key)
            if old is not None and old[0] != value:
                raise Inconsistent(
                    f"rank({i},{j}) forced to both {old[0]} ({old[1]}) and"
                    f" {value} ({why})")
            table[key] = (value, why)

        for fact in self.rank_facts:
            need(fact.i), need(fact.j)
            if fact.value < 0:
                raise LefbenchError("ranks are nonnegative")
            record(fact.i, fact.j, fact.value,
                   f"declared [{fact.provenance.render()}]")
        for rel in self.relations:
            if isinstance(rel, DisjointFact):
                need(rel.i), need(rel.j)
                record(rel.i, rel.j, 0,
                       f"disjointness [{rel.provenance.render()}]")
        for d in self.label_decls:
            if d.sphere:
                record(d.name, d.name, 2, "sphere self-rank")

        parity: dict[tuple[str, str], tuple[str, Provenance]] = {}
        for fact in self.parity_facts:
            need(fact.i), need(fact.j)
            if fact.parity not in (ALL_SAME, MIXED):
                raise LefbenchError(
                    f"parity must be {ALL_SAME!r} or {MIXED!r}")
            key = _pair(find(fact.i), find(fact.j))
            old = parity.get(key)
            if old is not None and old[0] != fact.parity:
                raise Inconsistent(
                    f"conflicting parity declarations for ({fact.i},{fact.j})")
            parity[key] = (fact.parity, fact.provenance)

        not_iso: set[tuple[str, str]] = set()
        for rel in self.relations:
            if isinstance(rel, WitnessFact):
                need(rel.i), need(rel.j), need(rel.witness)
                if find(rel.i) == find(rel.j):
                    raise Inconsistent(
                        f"labels {rel.i!r}, {rel.j!r} declared both isotopic"
                        " and non-isomorphic")
                not_iso.add(_pair(find(rel.i), find(rel.j)))

        object.__setattr__(self, "_rep_of", {n: find(n) for n in names})
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_parity", parity)
        object.__setattr__(self, "_not_iso", not_iso)
        object.__setattr__(self, "_labels", labels)

        for rel in self.relations:
            if isinstance(rel, WitnessFact):
                self._check_witness(rel)

    def _check_witness(self, rel: WitnessFact) -> None:
        try:
            dead = self.rank_of(rel.i, rel.witness)
            alive = self.rank_of(rel.j, rel.witness)
        except UnknownPair as exc:
            raise InvalidWitness(
                f"witness {rel.witness!r} for ({rel.i},{rel.j}) has"
                f" undetermined ranks: {exc}") from exc
        if dead != 0 or alive <= 0:
            raise InvalidWitness(
                f"witness {rel.witness!r} for ({rel.i},{rel.j}) needs"
                f" rank({rel.i},{rel.witness}) = 0 and"
                f" rank({rel.j},{rel.witness}) > 0; got"
                f" {dead} and {alive}")

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
        hit = self._parity.get(_pair(self._rep(i), self._rep(j)))
        return hit[0] if hit else None

    def isomorphic_objects(self, i: str, j: str) -> str:
        """'yes', 'no' (a witnessed non-isomorphism) or 'unknown'."""
        ri, rj = self._rep(i), self._rep(j)
        if ri == rj:
            return "yes"
        return "no" if _pair(ri, rj) in self._not_iso else "unknown"

    def fact_lines(self) -> tuple[str, ...]:
        """Deterministic rendering of every declared fact, for reports."""
        out = []
        for d in sorted(self.label_decls, key=lambda d: d.name):
            out.append(f"label {d.name}" + (" (sphere)" if d.sphere else ""))
        for f in sorted(self.rank_facts, key=lambda f: _pair(f.i, f.j)):
            out.append(f"rank({f.i},{f.j}) = {f.value}"
                       f"  [{f.provenance.render()}]")
        keyed = []
        for rel in self.relations:
            if isinstance(rel, DisjointFact):
                keyed.append((0, _pair(rel.i, rel.j),
                              f"disjoint({rel.i},{rel.j})"
                              f"  [{rel.provenance.render()}]"))
            elif isinstance(rel, IsotopicFact):
                keyed.append((1, _pair(rel.i, rel.j),
                              f"isotopic({rel.i},{rel.j})"
                              f"  [{rel.provenance.render()}]"))
            else:
                keyed.append((2, _pair(rel.i, rel.j),
                              f"not-isomorphic({rel.i},{rel.j};"
                              f" witness {rel.witness})"
                              f"  [{rel.provenance.render()}]"))
        out.extend(line for _, _, line in sorted(keyed))
        for p in sorted(self.parity_facts, key=lambda p: _pair(p.i, p.j)):
            out.append(f"parity({p.i},{p.j}) = {p.parity}"
                       f"  [{p.provenance.render()}]")
        return tuple(out)


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
    shared = len(x.path.puncture_names() & y.path.puncture_names())
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
