"""Scenario configuration files: parsing.

A config is a line-oriented text document. Blank lines and lines starting
with ``#`` are ignored.  Every other line belongs to the most recent
bracketed section header and has the form ``key = value``.  All numbers are
exact rationals ``p/q`` or integers: an optional sign, Unicode decimal
digits (category Nd, the digits int() reads) and an optional ``/digits``;
floating point is rejected.  Points are ``x y`` pairs; vertex lists
separate points with ``;``.  Oracle facts end with a mandatory provenance
note ``!cited slug`` or ``!assumed slug``.  Whitespace inside a key counts
as one space; a key (``relation`` aside), a homology degree and a tower
appear once each, and so does a section of one kind and name (``[wrap]``
and ``[run]`` take no name).  An empty key is an unknown key of its
section.  The wrap delta lies above wrapping.BEND and below the least
boundary angle gap.  Errors come in this order: a malformed line or header
anywhere in the file, the first duplicate key in the file, then each
section in file order.

Sections::

    [disc NAME]        puncture P = x y
                       resolution = N     (the run disc's: the wrap grid)
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
the same file; such fibers nest at most NESTING_LIMIT (32) deep, since each
derivation recurses once per level.  Matching objects take their two cycle
labels from the critical values at their endpoints; a thimble object
borrows the whole path of its critical value.  Each puncture a tower names
carries a critical value of the run fibration, and the tower is read as
the pair of those two Crits, once, here.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from .errors import ConfigError, LefbenchError
from .exactgeom import Hpt, min_angular_gap, reduced
from .fibration import (AbstractFiber, Crit, Fibration, HomologyTable,
                        MatchingObject, TotalSpaceFiber)
from .oracle import KINDS as FACT_KINDS
from .oracle import Fact, FiberOracle, LabelDecl, Provenance
from .wrapping import BEND, WrapParams, grid_resolution

NESTING_LIMIT = 32
_DEFAULT_WRAP = WrapParams()


class ScenarioConfig(NamedTuple):
    """The run fibration, the wrap parameters on its disc's grid, and each
    [run] tower as the pair of the run fibration's Crits at its punctures."""
    fibration: Fibration
    wrap: WrapParams
    towers: tuple[tuple[Crit, Crit], ...]

    @property
    def name(self) -> str:
        return self.fibration.name


# --------------------------------------------------------------------------
# low-level line structure
# --------------------------------------------------------------------------

class _Section(NamedTuple):
    loc: str                                 # "file:line" of the header
    kind: str
    name: str                                # "" for [wrap] and [run]
    # (loc, key, its words, value) of each line of the section
    lines: list[tuple[str, str, list[str], str]]


def _split_sections(text: str, source: str) -> list[_Section]:
    """text's sections in one scan, which refuses a duplicate key at its end."""
    sections: list[_Section] = []
    lines, seen = None, set()          # the current section's lines and keys
    duplicate = None
    # universal newlines: str.splitlines also breaks at "\x0c", U+2028, ...
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        loc = f"{source}:{no}"
        if line[0] == "[":
            if not line.endswith("]"):
                raise ConfigError(f"{loc}: unterminated section header")
            words = line[1:-1].split()
            if len(words) not in (1, 2):
                raise ConfigError(
                    f"{loc}: section header needs a kind and at most one"
                    " name")
            kind = words[0]
            if kind not in _KINDS:
                raise ConfigError(f"{loc}: unknown section kind {kind!r}")
            named = _KINDS[kind][1] is not None
            if (len(words) == 2) != named:
                raise ConfigError(f"{loc}: [{kind}] "
                                  + ("needs a name" if named
                                     else "takes no name"))
            lines, seen = [], set()
            sections.append(_Section(loc, kind, words[1] if named else "",
                                     lines))
            continue
        if lines is None:
            raise ConfigError(
                f"{loc}: content before the first section header")
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{loc}: expected 'key = value'")
        words = key.split()
        key = " ".join(words)
        if key in seen and key != "relation" and duplicate is None:
            duplicate = f"{loc}: duplicate key {key!r}"
        seen.add(key)
        lines.append((loc, key, words, value.strip()))
    if duplicate:
        raise ConfigError(duplicate)
    return sections


def _ratio(token: str, loc: str) -> tuple[int, int]:
    """The integers p and q > 0 of a rational token p/q (q = 1 alone)."""
    num, slash, den = token.partition("/")
    # a sign is num[:1] in "+-"; "" passes that test, then fails isdecimal
    if not ((num.isdecimal() or num[:1] in "+-" and num[1:].isdecimal())
            and (den.isdecimal() or not slash)):
        raise ConfigError(
            f"{loc}: {token!r} is not an exact rational (use p/q integers;"
            " no floating point)")
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
    """The reduced triple of a point 'x y' (exactgeom.reduced)."""
    if len(tokens) != 2:
        raise ConfigError(f"{loc}: a point is two rationals 'x y'")
    (p, q), (r, s) = _ratio(tokens[0], loc), _ratio(tokens[1], loc)
    return reduced(p * s, r * q, q * s)


def _hpoints(text: str, loc: str) -> tuple[Hpt, ...]:
    if not text.strip():
        return ()
    return tuple([_hpoint(part.split(), loc) for part in text.split(";")])


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
    if not (token.isdecimal()
            or token[:1] in "+-" and token[1:].isdecimal()):
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

def _parse_disc(sec: _Section) -> tuple[DiscModel, int]:
    punctures: list[tuple[str, Hpt]] = []
    resolution = _DEFAULT_WRAP.resolution
    for loc, key, words, value in sec.lines:
        if len(words) == 2 and words[0] == "puncture":
            punctures.append((words[1], _hpoint(value.split(), loc)))
        elif key == "resolution":
            resolution = _int(value, loc)
        else:
            raise ConfigError(f"{loc}: unknown disc key {key!r}")
    try:
        return DiscModel(tuple(punctures)), grid_resolution(resolution)
    except LefbenchError as e:
        raise _located(sec.loc, e) from None


def _parse_fiber(sec: _Section) -> AbstractFiber:
    dim = None
    homology: list[tuple[str, int, int, tuple[int, ...]]] = []
    classes: list[tuple[str, tuple[int, ...]]] = []
    for loc, key, words, value in sec.lines:
        if key == "dim":
            dim = _int(value, loc)
        elif len(words) == 2 and words[0] == "homology":
            deg = _int(words[1], loc)
            nums = [_int(t, loc) for t in value.split()]
            if not nums:
                raise ConfigError(f"{loc}: homology line needs a free rank")
            homology.append((loc, deg, nums[0], tuple(nums[1:])))
        elif len(words) == 2 and words[0] == "class":
            classes.append((words[1],
                            tuple([_int(t, loc) for t in value.split()])))
        else:
            raise ConfigError(f"{loc}: unknown fiber key {key!r}")
    if dim is None:
        raise ConfigError(f"{sec.loc}: fiber needs 'dim'")
    for loc, deg, _, _ in homology:
        if dim >= 0 and not 0 <= deg <= dim:  # AbstractFiber refuses dim < 0
            raise ConfigError(f"{loc}: homology degree {deg} is outside"
                              f" 0..{dim}, the dimension range of the fiber")
    try:
        return AbstractFiber(sec.name, dim, HomologyTable(
            tuple([h[1:] for h in homology])), tuple(classes))
    except LefbenchError as e:
        raise _located(sec.loc, e) from None


class _RawFibration(NamedTuple):
    loc: str
    name: str
    disc: str
    fiber: str                               # "name" or "total-space name"
    reference_angle: Fraction
    # (loc, puncture, label, angle, mids) of each crit line
    crits: list[tuple[str, str, str, Fraction, tuple[Hpt, ...]]]


def _parse_fibration(sec: _Section) -> _RawFibration:
    disc, fiber, ref, crits = None, None, None, []
    for loc, key, words, value in sec.lines:
        if key == "disc":
            disc = value
        elif key == "fiber":
            fiber = value
        elif key == "reference-angle":
            ref = _rational(value, loc)
        elif len(words) == 2 and words[0] == "crit":
            parts = value.split("|")
            if len(parts) not in (2, 3):
                raise ConfigError(
                    f"{loc}: crit value is 'LABEL | ANGLE' with optional"
                    " '| mid points'")
            mids = _hpoints(parts[2], loc) if len(parts) == 3 else ()
            crits.append((loc, words[1], parts[0].strip(),
                          _rational(parts[1].strip(), loc), mids))
        else:
            raise ConfigError(f"{loc}: unknown fibration key {key!r}")
    for want, got in (("disc", disc), ("fiber", fiber),
                      ("reference-angle", ref)):
        if got is None:
            raise ConfigError(
                f"{sec.loc}: fibration {sec.name!r} needs {want!r}")
    return _RawFibration(sec.loc, sec.name, disc, fiber, ref, crits)


def _parse_objects(sec: _Section) \
        -> list[tuple[str, str, str, tuple[str, ...], tuple[Hpt, ...]]]:
    """Raw object rows: (loc, kind, name, anchors, mids)."""
    rows = []
    for loc, key, words, value in sec.lines:
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
        rows.append((loc, kind, name, anchors, mids))
    return rows


def _parse_oracle(sec: _Section) -> FiberOracle:
    labels: list[LabelDecl] = []
    facts: list[Fact] = []
    for loc, key, words, value in sec.lines:
        if len(words) == 2 and words[0] == "label":
            if value not in ("sphere", "plain"):
                raise ConfigError(
                    f"{loc}: label value is 'sphere' or 'plain'")
            labels.append(LabelDecl(words[1], value == "sphere"))
            continue
        payload, prov = _provenance(value, loc)
        if len(words) == 3 and words[0] in ("rank", "parity"):
            value = _int(payload, loc) if words[0] == "rank" else payload
            facts.append(Fact(words[0], tuple(words[1:]), value, prov))
        elif key == "relation":
            # a relation kind prints no value, and as many labels as it takes
            kind, *names = payload.split() or [""]
            form = FACT_KINDS.get(kind, "{value}")
            if "{value}" in form or len(names) != form.count("{"):
                raise ConfigError(
                    f"{loc}: relation is 'disjoint I J', 'isotopic I J' or"
                    " 'witness I J W'")
            facts.append(Fact(kind, tuple(names), None, prov))
        else:
            raise ConfigError(f"{loc}: unknown oracle key {key!r}")
    try:
        return FiberOracle(tuple(labels), tuple(facts))
    except LefbenchError as e:
        raise _located(sec.loc, e) from None


def _parse_wrap(sec: _Section) -> tuple[WrapParams, str | None]:
    """The [wrap] parameters and the loc of the delta line, if any."""
    delta, levels, _ = _DEFAULT_WRAP
    delta_loc = None
    for loc, key, _, value in sec.lines:
        if key == "delta":
            delta, delta_loc = _rational(value, loc), loc
            if delta <= BEND:
                raise ConfigError(
                    f"{loc}: wrap delta {delta} must exceed {BEND}, the"
                    " offset of a self-tower's bent copy")
        elif key == "levels":
            levels = tuple([_int(t, loc) for t in value.split()])
            if not levels or any(m < 0 for m in levels) \
                    or len(set(levels)) != len(levels):
                raise ConfigError(
                    f"{loc}: levels are distinct nonnegative integers")
        else:
            raise ConfigError(f"{loc}: unknown wrap key {key!r}")
    return WrapParams(delta, levels), delta_loc


def _parse_run(sec: _Section
               ) -> tuple[str, tuple[tuple[str, str], ...], str | None]:
    """The run fibration's name, its towers and the towers line's loc."""
    fibration = None
    towers: tuple[tuple[str, str], ...] = ()
    towers_loc = None
    for loc, key, _, value in sec.lines:
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
            towers, towers_loc = tuple(pairs), loc
        else:
            raise ConfigError(f"{loc}: unknown run key {key!r}")
    if fibration is None:
        raise ConfigError(f"{sec.loc}: [run] needs 'fibration'")
    return fibration, towers, towers_loc


# Each section kind: its interpreter, and the noun a repeated section is
# reported with; None marks the kinds that take no name and appear once.
_KINDS = {
    "disc": (_parse_disc, "disc"),
    "fiber": (_parse_fiber, "fiber"),
    "fibration": (_parse_fibration, "fibration"),
    "objects": (_parse_objects, "objects section for"),
    "oracle": (_parse_oracle, "oracle section for"),
    "wrap": (_parse_wrap, None),
    "run": (_parse_run, None),
}


# --------------------------------------------------------------------------
# whole-document assembly
# --------------------------------------------------------------------------

def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    # kind -> name -> (header loc, interpreted section), in file order
    parsed: dict[str, dict] = {kind: {} for kind in _KINDS}
    for sec in _split_sections(text, source):
        interpret, noun = _KINDS[sec.kind]
        if sec.name in parsed[sec.kind]:
            what = f"{noun} {sec.name!r}" if noun else f"[{sec.kind}] section"
            raise ConfigError(f"{sec.loc}: duplicate {what}")
        parsed[sec.kind][sec.name] = (sec.loc, interpret(sec))

    built: dict[str, Fibration] = {}
    for _, raw in parsed["fibration"].values():
        built[raw.name] = _build_fibration(raw, parsed, built)
    for kind in ("objects", "oracle"):
        for name, (loc, _) in parsed[kind].items():
            if name not in built:
                raise ConfigError(f"{loc}: {kind} section names unknown"
                                  f" fibration {name!r}")

    if not parsed["run"]:
        raise ConfigError(f"{source}: missing [run] section with 'fibration'")
    run_loc, (run_fibration, names, towers_loc) = parsed["run"][""]
    if run_fibration not in built:
        raise ConfigError(f"{run_loc}: [run] names unknown fibration"
                          f" {run_fibration!r}")
    f = built[run_fibration]
    towers = []
    for x, y in names:
        pair = f.crit_for(x), f.crit_for(y)
        for p, c in zip((x, y), pair):
            if c is None:
                raise ConfigError(f"{towers_loc}: tower {x}:{y} names puncture"
                                  f" {p!r}, which has no critical value")
        towers.append(pair)
    _, (wrap, delta_loc) = parsed["wrap"].get("", ("", (_DEFAULT_WRAP, None)))
    for _, raw in parsed["fibration"].values():
        _check_delta_gap(built[raw.name], wrap, delta_loc or raw.loc)
    _, (_, res) = parsed["disc"][parsed["fibration"][run_fibration][1].disc]
    return ScenarioConfig(f, WrapParams(*wrap[:2], res), tuple(towers))


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


def _build_fibration(raw: _RawFibration, parsed: dict,
                     built: dict[str, Fibration]) -> Fibration:
    """raw's fibration, from the parsed discs, fibers, objects and oracles
    and the fibrations built before it."""
    if raw.disc not in parsed["disc"]:
        raise ConfigError(f"{raw.loc}: unknown disc {raw.disc!r}")
    disc = parsed["disc"][raw.disc][1][0]

    words = raw.fiber.split()
    if words[:1] == ["total-space"]:
        if len(words) != 2:
            raise ConfigError(f"{raw.loc}: fiber is 'total-space NAME'")
        if words[1] not in built:
            raise ConfigError(
                f"{raw.loc}: total-space fiber names {words[1]!r}, which is"
                " not a fibration declared earlier in the file")
        inner, depth = built[words[1]], 1
        while isinstance(inner.fiber, TotalSpaceFiber):
            inner, depth = inner.fiber.fibration, depth + 1
        if depth > NESTING_LIMIT:
            raise ConfigError(f"{raw.loc}: total-space fibers nest {depth}"
                              f" deep, more than the limit of {NESTING_LIMIT}")
        fiber = TotalSpaceFiber(built[words[1]])
    elif raw.fiber in parsed["fiber"]:
        fiber = parsed["fiber"][raw.fiber][1]
    else:
        raise ConfigError(f"{raw.loc}: unknown fiber {raw.fiber!r}")

    crits = []
    for loc, punc, label, angle, mids in raw.crits:
        try:
            start = disc.hpoint_of(punc)
        except LefbenchError as e:
            raise _located(loc, e) from None
        end = BoundaryAngle(angle)
        path = PlanarArc((start, *mids, end.hpoint),
                         Puncture(punc), end)
        crits.append(Crit(punc, path, label))
    by_puncture = {c.puncture: c for c in crits}

    objects = []
    for loc, kind, name, anchors, mids in \
            parsed["objects"].get(raw.name, ("", []))[1]:
        if any(o.name == name for o in objects):
            raise ConfigError(f"{loc}: duplicate object name {name!r}")
        missing = [p for p in anchors if p not in by_puncture]
        if missing:
            raise ConfigError(
                f"{loc}: no critical value over puncture {missing[0]!r}")
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

    return Fibration(
        name=raw.name, disc=disc, fiber=fiber, crits=tuple(crits),
        reference_angle=BoundaryAngle(raw.reference_angle),
        oracle=parsed["oracle"].get(raw.name, ("", None))[1],
        objects=tuple(objects))


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        with open(path, "rb") as f:     # as given: "a/" is no file "a"
            text = f.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read config ({e})") from None
    return parse_config(text, source=str(path))
