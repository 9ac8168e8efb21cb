"""Scenario configuration files: parsing.

A config is a line-oriented text document. Blank lines and lines starting
with ``#`` are ignored.  Every other line belongs to the most recent
bracketed section header and has the form ``key = value``.  All numbers are
exact rationals written as ``p/q`` (or plain integers); floating point is
rejected.  Points are ``x y`` pairs; vertex lists separate points with
``;``.  Oracle facts end with a mandatory provenance note ``!cited slug``
or ``!assumed slug``.  Whitespace inside a key counts as one space; a key
(``relation`` aside), a homology degree and a tower appear once each.  The
wrap delta lies above wrapping.BEND and below the least boundary angle gap.

Sections::

    [disc NAME]        puncture P = x y
                       resolution = N
    [fiber NAME]       dim = N
                       homology D = FREE [TORSION ...]
                       class LABEL = c1 c2 ...
    [fibration NAME]   disc = DISCNAME
                       fiber = FIBERNAME  |  total-space FIBRATIONNAME
                       reference-angle = p/q
                       crit P = LABEL | ANGLE [| x y ; x y ...]
    [objects NAME]     matching M = P Q [| x y ; x y ...]
                       thimble T = crit P
    [oracle NAME]      label L = sphere|plain
                       rank I J = V !cited SLUG
                       relation = disjoint I J !PROV SLUG
                       relation = isotopic I J !PROV SLUG
                       relation = witness I J W !PROV SLUG
                       parity I J = all-same|mixed !PROV SLUG
    [wrap]             delta = p/q
                       levels = 0 1 2 3
    [run]              fibration = NAME
                       towers = x:y [x:y ...]

A ``total-space`` fiber reference must name a fibration declared earlier in
the same file.  Matching objects take their two cycle labels from the
critical values at their endpoints; a thimble object borrows the whole
path of its critical value.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from .errors import ConfigError, LefbenchError
from .exactgeom import Hpt, Pt, min_angular_gap, reduced
from .fibration import (AbstractFiber, Crit, Fibration, HomologyTable,
                        MatchingObject, TotalSpaceFiber)
from .oracle import (DisjointFact, FiberOracle, IsotopicFact, LabelDecl,
                     ParityFact, Provenance, RankFact, WitnessFact)
from .wrapping import BEND, WrapParams

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?\Z")


@dataclass(frozen=True)
class ScenarioConfig:
    fibration: Fibration
    wrap: WrapParams = WrapParams()
    towers: tuple[tuple[str, str], ...] = ()

    @property
    def name(self) -> str:
        return self.fibration.name


# --------------------------------------------------------------------------
# low-level line structure
# --------------------------------------------------------------------------

@dataclass
class _Section:
    lineno: int
    kind: str
    name: str
    lines: list[tuple[int, str, str]] = field(default_factory=list)


def _split_sections(text: str, source: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{no}: unterminated section header")
            words = line[1:-1].split()
            if len(words) not in (1, 2):
                raise ConfigError(
                    f"{source}:{no}: section header needs a kind and at most"
                    " one name")
            kind = words[0]
            if kind in ("wrap", "run"):
                if len(words) != 1:
                    raise ConfigError(
                        f"{source}:{no}: [{kind}] takes no name")
                name = ""
            else:
                if kind not in ("disc", "fiber", "fibration", "objects",
                                "oracle"):
                    raise ConfigError(
                        f"{source}:{no}: unknown section kind {kind!r}")
                if len(words) != 2:
                    raise ConfigError(
                        f"{source}:{no}: [{kind}] needs a name")
                name = words[1]
            current = _Section(no, kind, name)
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(
                f"{source}:{no}: content before the first section header")
        if "=" not in line:
            raise ConfigError(f"{source}:{no}: expected 'key = value'")
        key, _, value = line.partition("=")
        current.lines.append((no, " ".join(key.split()), value.strip()))
    return sections


def _ratio(token: str, loc: str) -> tuple[int, int]:
    """The integers p and q > 0 of a rational token p/q (q = 1 alone)."""
    if not _RATIONAL.fullmatch(token):
        raise ConfigError(
            f"{loc}: {token!r} is not an exact rational (use p/q integers;"
            " no floating point)")
    num, _, den = token.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:
        raise _overlong(token, loc) from None
    if not q:
        raise ConfigError(f"{loc}: zero denominator in {token!r}")
    return p, q


def _rational(token: str, loc: str) -> Fraction:
    return Fraction(*_ratio(token, loc))


def _hpoint(tokens: list[str], loc: str) -> Hpt:
    """The reduced triple of a point 'x y' (exactgeom.homog of it)."""
    if len(tokens) != 2:
        raise ConfigError(f"{loc}: a point is two rationals 'x y'")
    (p, q), (r, s) = _ratio(tokens[0], loc), _ratio(tokens[1], loc)
    return reduced(p * s, r * q, q * s)


def _hpoints(text: str, loc: str) -> tuple[Hpt, ...]:
    if not text.strip():
        return ()
    return tuple(_hpoint(part.split(), loc) for part in text.split(";"))


def _provenance(value: str, loc: str) -> tuple[str, Provenance]:
    """Split '<payload> !kind slug' and build the provenance."""
    payload, bang, note = value.rpartition("!")
    if not bang:
        raise ConfigError(
            f"{loc}: oracle facts need a provenance note"
            " ('!cited slug' or '!assumed slug')")
    words = note.split()
    if len(words) != 2 or words[0] not in ("cited", "assumed"):
        raise ConfigError(
            f"{loc}: malformed provenance {('!' + note)!r}")
    return payload.strip(), Provenance(words[0], words[1])


def _int(token: str, loc: str) -> int:
    if not re.fullmatch(r"[+-]?\d+", token):
        raise ConfigError(f"{loc}: {token!r} is not an integer")
    try:
        return int(token)
    except ValueError:
        raise _overlong(token, loc) from None


def _overlong(token: str, loc: str) -> ConfigError:
    """The error for a token with a part beyond int()'s digit limit."""
    digits = max(len(part.lstrip("+-")) for part in token.split("/"))
    return ConfigError(f"{loc}: a number of {digits} digits is beyond the"
                       f" limit of {sys.get_int_max_str_digits()} digits")


def _located(loc: str, err: LefbenchError) -> LefbenchError:
    return type(err)(f"{loc}: {err}")


# --------------------------------------------------------------------------
# section interpreters
# --------------------------------------------------------------------------

def _check_duplicates(sec: _Section, source: str) -> None:
    seen: set[str] = set()
    for no, key, _ in sec.lines:
        if key == "relation":
            continue
        if key in seen:
            raise ConfigError(f"{source}:{no}: duplicate key {key!r}")
        seen.add(key)


def _parse_disc(sec: _Section, source: str) -> DiscModel:
    punctures: list[tuple[str, Pt]] = []
    resolution = 16
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        words = key.split()
        if words[0] == "puncture" and len(words) == 2:
            x, y, w = _hpoint(value.split(), loc)
            punctures.append((words[1], Pt(Fraction(x, w), Fraction(y, w))))
        elif key == "resolution":
            resolution = _int(value, loc)
        else:
            raise ConfigError(f"{loc}: unknown disc key {key!r}")
    try:
        return DiscModel(tuple(punctures), resolution)
    except LefbenchError as e:
        raise _located(f"{source}:{sec.lineno}", e) from None


def _parse_fiber(sec: _Section, source: str) -> AbstractFiber:
    dim = None
    homology: list[tuple[str, int, int, tuple[int, ...]]] = []
    classes: list[tuple[str, tuple[int, ...]]] = []
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        words = key.split()
        if key == "dim":
            dim = _int(value, loc)
        elif words[0] == "homology" and len(words) == 2:
            deg = _int(words[1], loc)
            nums = [_int(t, loc) for t in value.split()]
            if not nums:
                raise ConfigError(f"{loc}: homology line needs a free rank")
            homology.append((loc, deg, nums[0], tuple(nums[1:])))
        elif words[0] == "class" and len(words) == 2:
            classes.append((words[1],
                            tuple(_int(t, loc) for t in value.split())))
        else:
            raise ConfigError(f"{loc}: unknown fiber key {key!r}")
    if dim is None:
        raise ConfigError(f"{source}:{sec.lineno}: fiber needs 'dim'")
    for loc, deg, _, _ in homology:
        if dim >= 0 and not 0 <= deg <= dim:  # AbstractFiber refuses dim < 0
            raise ConfigError(f"{loc}: homology degree {deg} is outside"
                              f" 0..{dim}, the dimension range of the fiber")
    try:
        return AbstractFiber(sec.name, dim, HomologyTable(
            tuple(h[1:] for h in homology)), tuple(classes))
    except LefbenchError as e:
        raise _located(f"{source}:{sec.lineno}", e) from None


@dataclass
class _RawFibration:
    lineno: int
    name: str
    disc: str | None = None
    fiber: str | None = None                 # "name" or "total-space name"
    reference_angle: Fraction | None = None
    crits: list[tuple[int, str, str, Fraction, tuple[Hpt, ...]]] = \
        field(default_factory=list)          # (line, puncture, label, angle, mids)


def _parse_fibration(sec: _Section, source: str) -> _RawFibration:
    raw = _RawFibration(sec.lineno, sec.name)
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        words = key.split()
        if key == "disc":
            raw.disc = value
        elif key == "fiber":
            raw.fiber = value
        elif key == "reference-angle":
            raw.reference_angle = _rational(value, loc)
        elif words[0] == "crit" and len(words) == 2:
            parts = [p.strip() for p in value.split("|")]
            if len(parts) not in (2, 3):
                raise ConfigError(
                    f"{loc}: crit value is 'LABEL | ANGLE' with optional"
                    " '| mid points'")
            mids = _hpoints(parts[2], loc) if len(parts) == 3 else ()
            raw.crits.append((no, words[1], parts[0],
                              _rational(parts[1], loc), mids))
        else:
            raise ConfigError(f"{loc}: unknown fibration key {key!r}")
    for want in ("disc", "fiber"):
        if getattr(raw, want) is None:
            raise ConfigError(
                f"{source}:{sec.lineno}: fibration {sec.name!r} needs"
                f" {want!r}")
    if raw.reference_angle is None:
        raise ConfigError(
            f"{source}:{sec.lineno}: fibration {sec.name!r} needs"
            " 'reference-angle'")
    return raw


def _parse_objects(sec: _Section, source: str) \
        -> list[tuple[int, str, str, tuple[str, ...], tuple[Hpt, ...]]]:
    """Raw object rows: (line, kind, name, anchors, mids)."""
    rows = []
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        words = key.split()
        if len(words) != 2 or words[0] not in ("matching", "thimble"):
            raise ConfigError(f"{loc}: unknown objects key {key!r}")
        kind, name = words
        if kind == "matching":
            parts = [p.strip() for p in value.split("|")]
            anchors = tuple(parts[0].split())
            if len(anchors) != 2 or len(parts) > 2:
                raise ConfigError(
                    f"{loc}: matching value is 'P Q' with optional"
                    " '| mid points'")
            mids = _hpoints(parts[1], loc) if len(parts) == 2 else ()
        else:
            words = value.split()
            if len(words) != 2 or words[0] != "crit":
                raise ConfigError(f"{loc}: thimble value is 'crit P'")
            anchors, mids = (words[1],), ()
        rows.append((no, kind, name, anchors, mids))
    return rows


def _parse_oracle(sec: _Section, source: str) -> FiberOracle:
    labels: list[LabelDecl] = []
    ranks: list[RankFact] = []
    relations: list = []
    parities: list[ParityFact] = []
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        words = key.split()
        if words[0] == "label" and len(words) == 2:
            if value not in ("sphere", "plain"):
                raise ConfigError(
                    f"{loc}: label value is 'sphere' or 'plain'")
            labels.append(LabelDecl(words[1], value == "sphere"))
            continue
        payload, prov = _provenance(value, loc)
        if words[0] == "rank" and len(words) == 3:
            ranks.append(RankFact(words[1], words[2],
                                  _int(payload, loc), prov))
        elif key == "relation":
            parts = payload.split()
            if parts and parts[0] == "disjoint" and len(parts) == 3:
                relations.append(DisjointFact(parts[1], parts[2], prov))
            elif parts and parts[0] == "isotopic" and len(parts) == 3:
                relations.append(IsotopicFact(parts[1], parts[2], prov))
            elif parts and parts[0] == "witness" and len(parts) == 4:
                relations.append(WitnessFact(parts[1], parts[2], parts[3],
                                             prov))
            else:
                raise ConfigError(
                    f"{loc}: relation is 'disjoint I J', 'isotopic I J' or"
                    " 'witness I J W'")
        elif words[0] == "parity" and len(words) == 3:
            parities.append(ParityFact(words[1], words[2], payload, prov))
        else:
            raise ConfigError(f"{loc}: unknown oracle key {key!r}")
    try:
        return FiberOracle(tuple(labels), tuple(ranks), tuple(relations),
                           tuple(parities))
    except LefbenchError as e:
        raise _located(f"{source}:{sec.lineno}", e) from None


# --------------------------------------------------------------------------
# whole-document assembly
# --------------------------------------------------------------------------

def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    sections = _split_sections(text, source)
    for sec in sections:
        _check_duplicates(sec, source)

    discs: dict[str, DiscModel] = {}
    fibers: dict[str, AbstractFiber] = {}
    raw_fibs: list[_RawFibration] = []
    raw_objects: dict[str, tuple[int, list]] = {}
    oracles: dict[str, tuple[int, FiberOracle]] = {}
    wrap = WrapParams()
    run_fibration: str | None = None
    towers: tuple[tuple[str, str], ...] = ()
    run_line = None
    wrap_line = None
    delta_line = None

    def _unique(table: dict, name: str, lineno: int, what: str):
        if name in table:
            raise ConfigError(
                f"{source}:{lineno}: duplicate {what} {name!r}")

    for sec in sections:
        if sec.kind == "disc":
            _unique(discs, sec.name, sec.lineno, "disc")
            discs[sec.name] = _parse_disc(sec, source)
        elif sec.kind == "fiber":
            _unique(fibers, sec.name, sec.lineno, "fiber")
            fibers[sec.name] = _parse_fiber(sec, source)
        elif sec.kind == "fibration":
            if any(r.name == sec.name for r in raw_fibs):
                raise ConfigError(
                    f"{source}:{sec.lineno}: duplicate fibration"
                    f" {sec.name!r}")
            raw_fibs.append(_parse_fibration(sec, source))
        elif sec.kind == "objects":
            _unique(raw_objects, sec.name, sec.lineno, "objects section for")
            raw_objects[sec.name] = (sec.lineno, _parse_objects(sec, source))
        elif sec.kind == "oracle":
            _unique(oracles, sec.name, sec.lineno, "oracle section for")
            oracles[sec.name] = (sec.lineno, _parse_oracle(sec, source))
        elif sec.kind == "wrap":
            if wrap_line is not None:
                raise ConfigError(
                    f"{source}:{sec.lineno}: duplicate [wrap] section")
            wrap_line = sec.lineno
            wrap = _parse_wrap(sec, source)
            delta_line = next((no for no, key, _ in sec.lines
                               if key == "delta"), None)
        elif sec.kind == "run":
            if run_line is not None:
                raise ConfigError(
                    f"{source}:{sec.lineno}: duplicate [run] section")
            run_line = sec.lineno
            run_fibration, towers = _parse_run(sec, source)

    built: dict[str, Fibration] = {}
    for raw in raw_fibs:
        built[raw.name] = _build_fibration(
            raw, discs, fibers, built, raw_objects, oracles, source)

    for name, (lineno, _) in raw_objects.items():
        if name not in built:
            raise ConfigError(
                f"{source}:{lineno}: objects section names unknown"
                f" fibration {name!r}")
    for name, (lineno, _) in oracles.items():
        if name not in built:
            raise ConfigError(
                f"{source}:{lineno}: oracle section names unknown"
                f" fibration {name!r}")

    if run_fibration is None:
        raise ConfigError(f"{source}: missing [run] section with 'fibration'")
    if run_fibration not in built:
        raise ConfigError(
            f"{source}:{run_line}: [run] names unknown fibration"
            f" {run_fibration!r}")
    for raw in raw_fibs:
        _check_delta_gap(built[raw.name], wrap,
                         f"{source}:{delta_line or raw.lineno}")
    return ScenarioConfig(built[run_fibration], wrap, towers)


def _check_delta_gap(f: Fibration, wrap: WrapParams, loc: str) -> None:
    """The wrap offset must stay below the smallest gap between declared
    boundary angles, a full turn if there is one.  loc cites the delta
    line, or the fibration's header when delta is the default."""
    gap = min_angular_gap([c.path.end.angle for c in f.crits]
                          + [f.reference_angle.angle])
    if wrap.delta >= gap:
        raise ConfigError(
            f"{loc}: wrap delta {wrap.delta} reaches the angular gap"
            f" {gap} between declared boundary endpoints of {f.name!r}")


def _parse_wrap(sec: _Section, source: str) -> WrapParams:
    delta, levels = WrapParams.delta, WrapParams.levels
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        if key == "delta":
            delta = _rational(value, loc)
            if delta <= BEND:
                raise ConfigError(
                    f"{loc}: wrap delta {delta} must exceed {BEND}, the"
                    " offset of a self-tower's bent copy")
        elif key == "levels":
            levels = tuple(_int(t, loc) for t in value.split())
            if not levels or any(m < 0 for m in levels) \
                    or len(set(levels)) != len(levels):
                raise ConfigError(
                    f"{loc}: levels are distinct nonnegative integers")
        else:
            raise ConfigError(f"{loc}: unknown wrap key {key!r}")
    return WrapParams(delta, levels)


def _parse_run(sec: _Section, source: str) \
        -> tuple[str, tuple[tuple[str, str], ...]]:
    fibration = None
    towers: tuple[tuple[str, str], ...] = ()
    for no, key, value in sec.lines:
        loc = f"{source}:{no}"
        if key == "fibration":
            fibration = value
        elif key == "towers":
            pairs = []
            for token in value.split():
                x, sep, y = token.partition(":")
                if not sep or not x or not y:
                    raise ConfigError(
                        f"{loc}: tower {token!r} is not of the form x:y")
                if (x, y) in pairs:
                    raise ConfigError(f"{loc}: duplicate tower {token!r}")
                pairs.append((x, y))
            towers = tuple(pairs)
        else:
            raise ConfigError(f"{loc}: unknown run key {key!r}")
    if fibration is None:
        raise ConfigError(
            f"{source}:{sec.lineno}: [run] needs 'fibration'")
    return fibration, towers


def _build_fibration(raw, discs, fibers, built, raw_objects, oracles,
                     source: str) -> Fibration:
    loc = f"{source}:{raw.lineno}"
    if raw.disc not in discs:
        raise ConfigError(f"{loc}: unknown disc {raw.disc!r}")
    disc = discs[raw.disc]

    if raw.fiber.startswith("total-space"):
        words = raw.fiber.split()
        if len(words) != 2:
            raise ConfigError(f"{loc}: fiber is 'total-space NAME'")
        if words[1] not in built:
            raise ConfigError(
                f"{loc}: total-space fiber names {words[1]!r}, which is not"
                " a fibration declared earlier in the file")
        fiber = TotalSpaceFiber(built[words[1]])
    elif raw.fiber in fibers:
        fiber = fibers[raw.fiber]
    else:
        raise ConfigError(f"{loc}: unknown fiber {raw.fiber!r}")

    crits = []
    for no, punc, label, angle, mids in raw.crits:
        cloc = f"{source}:{no}"
        try:
            start = disc.hpoint_of(punc)
        except LefbenchError as e:
            raise _located(cloc, e) from None
        end = BoundaryAngle(angle)
        path = PlanarArc((start, *mids, end.hpoint),
                         Puncture(punc), end)
        crits.append(Crit(punc, path, label))
    by_puncture = {c.puncture: c for c in crits}

    objects = []
    for no, kind, name, anchors, mids in raw_objects.get(raw.name, (0, []))[1]:
        oloc = f"{source}:{no}"
        if any(o.name == name for o in objects):
            raise ConfigError(f"{oloc}: duplicate object name {name!r}")
        missing = [p for p in anchors if p not in by_puncture]
        if missing:
            raise ConfigError(
                f"{oloc}: no critical value over puncture {missing[0]!r}")
        if kind == "thimble":
            crit = by_puncture[anchors[0]]
            objects.append(MatchingObject(name, crit.path, crit.cycle_label,
                                          crit.cycle_label))
            continue
        p, q = anchors
        arc = PlanarArc((disc.hpoint_of(p), *mids,
                         disc.hpoint_of(q)), Puncture(p), Puncture(q))
        objects.append(MatchingObject(name, arc, by_puncture[p].cycle_label,
                                      by_puncture[q].cycle_label))

    oracle = oracles.get(raw.name)
    try:
        return Fibration(
            name=raw.name, disc=disc, fiber=fiber, crits=tuple(crits),
            reference_angle=BoundaryAngle(raw.reference_angle),
            oracle=oracle[1] if oracle else None, objects=tuple(objects))
    except LefbenchError as e:
        raise _located(loc, e) from None


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read config ({e})") from None
    return parse_config(text, source=str(path))

