"""Scenario diagrams as minimal SVG: every visible element is a plain
``<path>``; the y axis is flipped in the coordinates themselves so no
transforms are needed.  Coordinates come from the homogeneous integer
points of arcs and punctures: x / w is correctly rounded, as float() of the
Fraction x/w is, so the printed digits do not depend on the form of the
point.  Drawing only: stage_svg draws a spiral its caller has wrapped
(cli._render_svgs), which wrap returns only once it has proved it legal."""

from __future__ import annotations

from .disc import DiscModel, PlanarArc
from .exactgeom import Hpt
from .fibration import Fibration, TotalSpaceFiber

_HEADER = ('<?xml version="1.0" encoding="UTF-8"?>\n'
           '<svg xmlns="http://www.w3.org/2000/svg" '
           'viewBox="-1.08 -1.08 2.16 2.16" width="480" height="480">')

_BOUNDARY = "#777777"
_CRIT = "#1f4e79"
_OBJECT = "#b5541c"
_WRAPPED = "#2e7d32"
_MARK = "#000000"


def _xy(p: Hpt) -> str:
    x, y, w = p
    return f"{x / w:.6f} {-y / w:.6f}"


def _path(d: str, stroke: str, width: str = "0.012") -> str:
    return (f'<path d="{d}" fill="none" stroke="{stroke}"'
            f' stroke-width="{width}"/>')


def _polyline_d(pts) -> str:
    head, *rest = pts
    return "M " + _xy(head) + "".join(f" L {_xy(p)}" for p in rest)


def _circle_d() -> str:
    return "M 1 0 A 1 1 0 0 0 -1 0 A 1 1 0 0 0 1 0 Z"


def _cross_d(p: Hpt, r: float = 1 / 50) -> str:
    x, y = p[0] / p[2], -p[1] / p[2]
    return (f"M {x - r:.6f} {y:.6f} L {x + r:.6f} {y:.6f} "
            f"M {x:.6f} {y - r:.6f} L {x:.6f} {y + r:.6f}")


def _disc_scene(disc: DiscModel, arcs: list[tuple[PlanarArc, str]]) -> str:
    body = [_HEADER, _path(_circle_d(), _BOUNDARY, "0.008")]
    body.extend(_path(_polyline_d(a.hverts), color) for a, color in arcs)
    for p in disc.hpoints:
        body.append(_path(_cross_d(p), _MARK, "0.008"))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def scenario_svg(f: Fibration) -> str:
    """The fibration's disc with its vanishing paths and declared objects."""
    arcs = [(c.path, _CRIT) for c in f.crits]
    crit_paths = {c.path for c in f.crits}
    arcs.extend((mo.path, _OBJECT) for mo in f.objects
                if mo.path not in crit_paths)
    return _disc_scene(f.disc, arcs)


def stage_svg(disc: DiscModel, fixed: PlanarArc, spiral: PlanarArc) -> str:
    """One wrapped thimble path against its fixed partner."""
    return _disc_scene(disc, [(fixed, _CRIT), (spiral, _WRAPPED)])


def diagram_files(f: Fibration) -> list[tuple[str, str]]:
    """(filename, contents) for the scenario's discs, innermost last."""
    out = [(f"{f.name}-base.svg", scenario_svg(f))]
    fiber = f.fiber
    while isinstance(fiber, TotalSpaceFiber):
        inner = fiber.fibration
        out.append((f"{f.name}-fiber-{inner.name}.svg", scenario_svg(inner)))
        fiber = inner.fiber
    return out
