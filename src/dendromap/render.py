"""Deterministic SVG pictures of finite skeletons.

Geometry is illustrative only: arcs are straight segments, children leave
their parent at alternating 45-degree headings, and drawn lengths follow the
length table.  Floats are fine here; no metric claim is derived from a picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, DomainError
from .rationals import dyadic_grid
from .space import LengthTable, CutPoint, PointRep, arcs_of_skeleton
from .words import QWord

_PALETTE = ["#111827", "#1d4ed8", "#047857", "#b45309", "#6d28d9"]


@dataclass(frozen=True)
class Segment:
    word: QWord
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def depth(self) -> int:
        return len(self.word)


def skeleton_layout(table: LengthTable, m: int, letter_exponent: int = 2) -> dict:
    if m < 0:
        raise DomainError("skeleton depth must be nonnegative")
    letters = dyadic_grid(letter_exponent)
    segments: dict[QWord, Segment] = {}
    headings: dict[QWord, float] = {(): 0.0}
    segments[()] = Segment((), 0.0, 0.0, 1.0, 0.0)
    for word in arcs_of_skeleton(m, letters):
        if not word:
            continue
        parent = segments[word[:-1]]
        r = float(word[-1])
        px = parent.x0 + r * (parent.x1 - parent.x0)
        py = parent.y0 + r * (parent.y1 - parent.y0)
        turn = math.pi / 4 if len(word) % 2 == 1 else -math.pi / 4
        heading = headings[word[:-1]] + turn
        headings[word] = heading
        try:
            length = float(table.lambda_of(word))
        except BudgetExceeded:
            # Arcs the engines cannot settle within budget are drawn at the
            # universal depth bound; the figure stays illustrative either way.
            length = float(LengthTable.universal_bound(len(word)))
        segments[word] = Segment(
            word,
            px,
            py,
            px + length * math.cos(heading),
            py + length * math.sin(heading),
        )
    return segments


def locate(layout: dict, point: PointRep):
    """Planar position of a cut point, or None if its arc is not drawn."""
    if not isinstance(point, CutPoint):
        return None
    seg = layout.get(point.word)
    if seg is None:
        return None
    t = float(point.t)
    return (seg.x0 + t * (seg.x1 - seg.x0), seg.y0 + t * (seg.y1 - seg.y0))


def render_svg(
    table: LengthTable,
    m: int,
    letter_exponent: int = 2,
    orbit=(),
) -> str:
    layout = skeleton_layout(table, m, letter_exponent)
    xs = [v for s in layout.values() for v in (s.x0, s.x1)]
    ys = [v for s in layout.values() for v in (s.y0, s.y1)]
    pad = 0.06 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="900" '
        f'height="{900 * h / w:.0f}" '
        f'viewBox="{x0:.6f} {y0:.6f} {w:.6f} {h:.6f}">'
    ]
    ordered = sorted(layout.values(), key=lambda s: (s.depth, s.word))
    for seg in ordered:
        color = _PALETTE[seg.depth % len(_PALETTE)]
        width = 0.012 / (seg.depth + 1)
        lines.append(
            f'<line x1="{seg.x0:.6f}" y1="{seg.y0:.6f}" '
            f'x2="{seg.x1:.6f}" y2="{seg.y1:.6f}" '
            f'stroke="{color}" stroke-width="{width:.6f}" '
            f'stroke-linecap="round"/>'
        )
    for point in orbit:
        pos = locate(layout, point)
        if pos is None:
            continue
        lines.append(
            f'<circle cx="{pos[0]:.6f}" cy="{pos[1]:.6f}" r="0.009" '
            f'fill="#dc2626"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
