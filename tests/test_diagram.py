import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest

from crossmap.arcs import Arc, arcs_classical, arcs_enhanced
from crossmap.bijection import forward
from crossmap.errors import OutOfRange
from crossmap.diagram import render_overlay
from crossmap.partition import MAX_N, enumerate_partial, from_blocks, parse_text

PAPER_PI = "9:1,4,7,9/2,5/3/6"

#: sha256 over the SVGs of every partial partition with n <= 5, in
#: enumeration order, per (scale, colours), as the renderer wrote them
#: before it formatted every element in one pass; the scale-1 and scale-7
#: entries as it wrote them once labels stayed inside the viewBox.
SVG_DIGESTS = {
    (1, ()): "e81b080924fec1b3f755623b1b7ddd9c588f19fe085fb167774f5b0333ac0da1",
    (1, ("orange", "navy")): "94e85a21a350df2710f2d8d102bbbac432c6c9510a5984d0f3da44b6ec17cceb",
    (7, ()): "42c7c263d48fb5cf5360c85174813b3e439e6cbfb495c2511ff0f3dcdf47e041",
    (7, ("orange", "navy")): "51848cb5dc934b28dc790a3f31284138f443c0b1a4e07906250f0c57f7d6ceb5",
    (24, ()): "aa849b050543d321aa2f7927376e7e872d6f44e8f3544ca0d18a1721aea71407",
    (24, ("orange", "navy")): "b142dc2109e70527427d4f89468adbb9119aa3d546ffdf85c076850537f34700",
}


#: sha256 over the SVGs of ``_witness_sized(200)``, per (scale, colours),
#: as the renderer wrote them before it drew through one strip-to-screen
#: table (scale 7: once labels stayed inside the viewBox).  Tents here
#: reach heights the n <= 5 digests never see.
WITNESS_SVG_DIGESTS = {
    (24, ()): "e857b0ee024606ea59bff972becd575d6924d70f440c543b4ef17d332efc35b4",
    (7, ("orange", "navy")): "9c4ed3c46d6d546f63df4adcdbe4d29f8f844c40fa912be52588eb7ad4373203",
}


def _witness_sized(count):
    """``count`` seeded partitions of subsets of [n], n in 12..19: each
    element is absent with probability 1/4, else joins a uniformly chosen
    block so far or opens a new one."""
    rng = random.Random(18)
    out = []
    for _ in range(count):
        n = rng.randint(12, 19)
        blocks = []
        for e in range(1, n + 1):
            if rng.random() < 0.25:
                continue
            i = rng.randint(0, len(blocks))
            if i == len(blocks):
                blocks.append([])
            blocks[i].append(e)
        out.append(from_blocks(n, blocks))
    return out


def _svg_elements(svg, tag, cls):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [e for e in root.iter(f"{ns}{tag}") if e.get("class") == cls]


def _decode_overlay(p, scale=24):
    """The tents ``render_overlay(p, scale)`` draws, read back in strip
    units: (source, image), each a list of (arc, points) in the order of
    ``arcs_enhanced(p).arcs``.

    The strip is ``height / scale - 2`` high, and screen point (a, b) is
    strip point (a / scale - 1, top + 1 - b / scale).  A source tent is
    named by the enhanced arc it is drawn for; an image tent by its ends,
    since baseline vertex j sits at (2j - 2, 0): ends (2x - 2, 0) and
    (2y, 0) make the arc (x, y + 1), the image of source arc (x, y).
    """
    root = ET.fromstring(render_overlay(p, scale))
    top = int(root.get("height")) // scale - 2

    def strip(point):
        a, b = (int(v) for v in point.split(","))
        assert a % scale == b % scale == 0, point
        return a // scale - 1, top + 1 - b // scale

    tents = {"source-arc": [], "image-arc": []}
    for e in root.iter("{http://www.w3.org/2000/svg}polyline"):
        tents[e.get("class")].append(tuple(strip(point) for point in e.get("points").split()))
    source = list(zip(arcs_enhanced(p).arcs, tents["source-arc"], strict=True))
    image = []
    for points in tents["image-arc"]:
        (a, a_y), _, (c, c_y) = points
        assert a % 2 == c % 2 == a_y == c_y == 0, points
        image.append((Arc(a // 2 + 1, c // 2 + 1), points))
    return source, image


class TestGeometry:
    def test_shared_apex_example(self):
        source, image = map(dict, _decode_overlay(parse_text(PAPER_PI)))
        assert source[Arc(1, 4)][1] == image[Arc(1, 5)][1] == (4, 4)

    def test_loop_tent(self):
        source, _ = _decode_overlay(parse_text(PAPER_PI))
        assert dict(source)[Arc(3, 3)] == ((4, 1), (5, 2), (6, 1))

    def test_empty_input(self):
        assert _decode_overlay(parse_text("0:")) == ([], [])

    def test_shared_apex_exhaustive(self):
        for p in enumerate_partial(5):
            source, image = _decode_overlay(p)
            img = {arc: points[1] for arc, points in image}
            for arc, points in source:
                if not arc.is_loop:
                    assert points[1] == img[Arc(arc.left, arc.right + 1)]

    @pytest.mark.parametrize("n", range(7))
    def test_image_layer_is_the_classical_arcs_of_forward(self, n):
        # The image arcs are drawn from the source's enhanced arcs, shifted.
        for p in enumerate_partial(n):
            _, image = _decode_overlay(p)
            assert tuple(arc for arc, _ in image) == arcs_classical(forward(p)).arcs

    def test_image_past_the_cap(self):
        # forward of a partition on [MAX_N] would lie on [MAX_N + 1].
        message = f"n must be in 0..{MAX_N - 1}, got {MAX_N}"
        with pytest.raises(OutOfRange, match=re.escape(message)):
            render_overlay(from_blocks(MAX_N, [[1]]))
        _, image = _decode_overlay(from_blocks(MAX_N - 1, [[MAX_N - 1]]))
        assert image[-1][0] == (MAX_N - 1, MAX_N)

    def test_vertex_grid(self):
        # source vertex i sits between baseline vertices i and i+1, one unit up
        [(loop, loop_points)], [(image_arc, image_points)] = _decode_overlay(parse_text("1:1"))
        assert loop == (1, 1) and loop_points == ((0, 1), (1, 2), (2, 1))
        assert image_arc == (1, 2) and image_points == ((0, 0), (1, 1), (2, 0))

    def test_render_builds_no_forward_image(self, monkeypatch):
        # The image layer comes from the source's own arcs, so drawing it
        # never calls forward, even for an image on [MAX_N].
        inputs = [parse_text(PAPER_PI), from_blocks(MAX_N - 1, [[1, MAX_N - 1]])]
        expected = [render_overlay(p) for p in inputs]

        def no_forward(p):
            raise AssertionError("render_overlay built a forward image")

        monkeypatch.setattr("crossmap.bijection.forward", no_forward)
        monkeypatch.setattr("crossmap.diagram.forward", no_forward, raising=False)
        assert [render_overlay(p) for p in inputs] == expected


class TestSvg:
    def test_paper_example_contents(self):
        svg = render_overlay(parse_text(PAPER_PI))
        assert len(_svg_elements(svg, "polyline", "source-arc")) == 6
        assert len(_svg_elements(svg, "polyline", "image-arc")) == 6
        assert len(_svg_elements(svg, "circle", "baseline-vertex")) == 10

    def test_empty_partition(self):
        # the empty partition has no arcs at all; only the vertex grid remains
        svg = render_overlay(parse_text("3:"))
        assert len(_svg_elements(svg, "polyline", "source-arc")) == 0
        assert len(_svg_elements(svg, "polyline", "image-arc")) == 0
        assert len(_svg_elements(svg, "circle", "baseline-vertex")) == 4

    def test_all_singletons(self):
        svg = render_overlay(parse_text("3:1/2/3"))
        assert len(_svg_elements(svg, "polyline", "source-arc")) == 3
        assert len(_svg_elements(svg, "polyline", "image-arc")) == 3
        assert len(_svg_elements(svg, "circle", "baseline-vertex")) == 4

    def test_single_element(self):
        svg = render_overlay(parse_text("1:1"))
        assert len(_svg_elements(svg, "polyline", "source-arc")) == 1
        assert len(_svg_elements(svg, "polyline", "image-arc")) == 1
        assert len(_svg_elements(svg, "circle", "baseline-vertex")) == 2

    @pytest.mark.parametrize("scale", range(1, 25))
    def test_labels_inside_the_view(self, scale):
        # Baseline vertex j is labelled j, below it and inside the viewBox,
        # in a font of at least 1px.
        for text in ("0:", "1:1", PAPER_PI, "19:1,19"):
            svg = render_overlay(parse_text(text), scale)
            height = int(ET.fromstring(svg).get("height"))
            vertices = _svg_elements(svg, "circle", "baseline-vertex")
            labels = _svg_elements(svg, "text", "label")
            assert [l.text for l in labels] == [str(j) for j in range(1, len(vertices) + 1)]
            for vertex, label in zip(vertices, labels):
                assert label.get("x") == vertex.get("cx")
                assert int(vertex.get("cy")) < int(label.get("y")) <= height
            font = re.search(r"\.label\{font:italic (\d+)px ", svg)
            assert int(font.group(1)) >= 1

    def test_byte_stable(self):
        a = render_overlay(parse_text(PAPER_PI))
        b = render_overlay(parse_text(PAPER_PI))
        assert a == b

    def test_valid_xml(self):
        ET.fromstring(render_overlay(parse_text("5:1,3,5/2,4")))

    def test_colors_configurable(self):
        svg = render_overlay(parse_text("2:1,2"), source_color="#ff0000")
        assert "#ff0000" in svg

    @pytest.mark.parametrize("scale, colors", list(SVG_DIGESTS))
    def test_bytes_match_snapshot(self, scale, colors):
        digest = hashlib.sha256()
        for n in range(6):
            for p in enumerate_partial(n):
                digest.update(render_overlay(p, scale, *colors).encode())
        assert digest.hexdigest() == SVG_DIGESTS[scale, colors]

    @pytest.mark.parametrize("scale, colors", list(WITNESS_SVG_DIGESTS))
    def test_witness_sized_bytes_match_snapshot(self, scale, colors):
        digest = hashlib.sha256()
        for p in _witness_sized(200):
            digest.update(render_overlay(p, scale, *colors).encode())
        assert digest.hexdigest() == WITNESS_SVG_DIGESTS[scale, colors]

    def test_interleaved_settings_match_snapshots(self):
        # Frames are cached per (n, top, scale, colours): rendering each
        # input under settings A, B, A in turn must give every digest, so
        # no frame of one setting is served for another.
        a, b = list(WITNESS_SVG_DIGESTS)
        digests = [hashlib.sha256() for _ in range(3)]
        for p in _witness_sized(200):
            for digest, (scale, colors) in zip(digests, (a, b, a)):
                digest.update(render_overlay(p, scale, *colors).encode())
        assert [d.hexdigest() for d in digests] == [WITNESS_SVG_DIGESTS[s] for s in (a, b, a)]

    def test_scale_type_is_part_of_the_frame(self):
        # 24 and 24.0 compare equal but print differently.
        p = parse_text(PAPER_PI)
        assert 'width="480"' in render_overlay(p, 24)
        assert 'width="480.0"' in render_overlay(p, 24.0)
        assert 'width="480"' in render_overlay(p, 24)

    @pytest.mark.parametrize("scale", [0, -3])
    def test_scale_below_1_is_refused(self, scale):
        # Checked with the colours, on a frame's first build, so a bad
        # scale is never cached.
        for _ in range(2):
            with pytest.raises(OutOfRange, match=f"^scale must be >= 1, got {scale}$"):
                render_overlay(parse_text("2:1"), scale)
