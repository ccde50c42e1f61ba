"""Overlay arc diagrams: a partition and its image on one strip.

Image vertices 1..n+1 sit on the baseline at even abscissas 2(j-1); source
vertices 1..n sit one unit up at odd abscissas 2i-1, interleaved.  Arcs are
integer tent polylines with apex height equal to half the arc width, so the
tent of every nontrivial source arc (x, y) meets the tent of its image arc
(x, y+1) at the exact same apex: extending the source arc's lines yields
the image arc.  Loops are drawn as unit tents over their vertex.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .arcs import arcs_enhanced
from .bijection import image_n
from .errors import OutOfRange
from .partition import PartialPartition

#: A colour goes into the SVG's <style> as is, so only these forms pass.
_COLOR = re.compile(r"#[0-9A-Fa-f]+|[A-Za-z]+")

#: Most SVG frames ``render_overlay`` keeps, least recently used first out.
#: A frame is about 6 kB at n = 19, and the ~100 (n, top) pairs that
#: partitions on [12..19] reach at one scale and colour pair fit.
_FRAME_CACHE_SIZE = 128

@lru_cache(maxsize=_FRAME_CACHE_SIZE, typed=True)
def _frame(
    n: int, top: int, scale: int, source_color: str, image_color: str
) -> tuple[str, tuple[str, ...], tuple[str, ...], str]:
    """What an overlay SVG holds besides its polylines, for a partition on
    [n] whose highest tent is top - 1: (head, X, Y, tail).

    Strip point (x, y) is drawn at ((x + 1) * scale, (top + 1 - y) * scale),
    a margin of one scale all round; X and Y hold that map as text.  The
    head is the XML declaration, the <svg> tag and the style; the tail is
    the vertices, their labels and the closing tag.  The scale and colours
    are checked first, so a frame with a bad one is never cached.
    """
    if scale < 1:
        raise OutOfRange(f"scale must be >= 1, got {scale}")
    for color in (source_color, image_color):
        if not _COLOR.fullmatch(color):
            raise OutOfRange(f"colour must be # plus hex digits or a name, got {color!r}")
    n1 = n + 1
    width = 2 * n1 * scale
    height = (top + 2) * scale
    X = tuple([str((x + 1) * scale) for x in range(2 * n1 - 1)])
    Y = tuple([str((top + 1 - y) * scale) for y in range(top + 1)])
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<style>.source-arc{{stroke:{source_color};stroke-width:2;'
        f'stroke-dasharray:6 4;fill:none}}'
        f'.image-arc{{stroke:{image_color};stroke-width:2;fill:none}}'
        f'.baseline-vertex{{fill:{image_color}}}'
        f'.source-vertex{{fill:{source_color}}}'
        f".label{{font:italic {max(scale // 2, 1)}px serif;text-anchor:middle}}</style>\n"
    )
    # Labels sit scale // 2 + 8 below the baseline, or at the bottom edge
    # where that would pass it (scales below 16).
    label_y = (top + 1) * scale + min(scale // 2 + 8, scale)
    lines = []
    for j in range(1, n1 + 1):
        cx = X[2 * j - 2]
        lines.append(f'<circle class="baseline-vertex" cx="{cx}" cy="{Y[0]}" r="4"/>\n')
        lines.append(f'<text class="label" x="{cx}" y="{label_y}">{j}</text>\n')
    for i in range(1, n + 1):
        lines.append(f'<circle class="source-vertex" cx="{X[2 * i - 1]}" cy="{Y[1]}" r="4"/>\n')
    lines.append("</svg>\n")
    return head, X, Y, "".join(lines)


def render_overlay(
    p: PartialPartition,
    scale: int = 24,
    source_color: str = "#2b6cb0",
    image_color: str = "#000000",
) -> str:
    """Standalone SVG overlay of p and forward(p); byte-stable per input.

    The scale is at least 1 and a colour is ``#`` plus hex digits or a
    colour name.  All but the polylines comes from a frame cached per
    (n, top, scale, colours), so each is checked when its frame is built.
    """
    source = arcs_enhanced(p).arcs
    # A loop's tent is 2 high, the tent of an arc (x, y) y - x + 1.
    top = max([2 if x == y else y - x + 1 for x, y in source], default=1) + 1
    # The frame is taken before the tents, so a bad scale or colour is
    # reported before an image past MAX_N.
    head, X, Y, tail = _frame(p.n, top, scale, source_color, image_color)
    image_n(p)  # raises as forward(p) would when the image passes MAX_N
    lines = [head]
    for x, y in source:
        if x == y:
            points = f"{X[2 * x - 2]},{Y[1]} {X[2 * x - 1]},{Y[2]} {X[2 * x]},{Y[1]}"
        else:
            points = f"{X[2 * x - 1]},{Y[1]} {X[x + y - 1]},{Y[y - x + 1]} {X[2 * y - 1]},{Y[1]}"
        lines.append(f'<polyline class="source-arc" points="{points}"/>\n')
    # The image arc of source arc (x, y) is (x, y+1), the paper's
    # statement, so no forward image is built.
    for x, y in source:
        lines.append(
            f'<polyline class="image-arc" '
            f'points="{X[2 * x - 2]},{Y[0]} {X[x + y - 1]},{Y[y - x + 1]} {X[2 * y]},{Y[0]}"/>\n'
        )
    lines.append(tail)
    return "".join(lines)
