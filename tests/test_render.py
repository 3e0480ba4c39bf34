import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from colsym.census import Scope, TilingKind, census
from colsym.errors import DomainError, MergeInconsistency
from colsym.geometry import generate_patch
from colsym.render import colour_patch, emit_svg, palette, verify_perfect_on_patch
from colsym.words import A, B, C
from oracle import colour_histogram


def rep_table(provider, p, q, kind, scope, k, pick=0):
    report = census(p, q, kind, scope, k, classes_provider=provider)
    for e in report.entries:
        if e.colours == k:
            return e.representatives[pick].table
    raise AssertionError(f"no entry with {k} colours")


@pytest.fixture(scope="module")
def board(provider):
    t = rep_table(provider, 4, 4, TilingKind.PQ, Scope.FULL, 2)
    return colour_patch(generate_patch(4, 4, 4), t, TilingKind.PQ)


def test_board_colours(board):
    assert board.k == 2
    assert set(board.colours) == {1, 2}
    assert board.polygon_size == 8  # 2p triangles per square
    # triangle 0 and its a-neighbour lie in different squares
    assert board.colours[0] == 1


def test_board_polygons_partition(board):
    seen = set()
    for poly in board.polygons:
        cols = {board.colours[i] for i in poly}
        assert len(cols) == 1  # merged tiles are monochrome
        assert len(poly) <= board.polygon_size
        seen.update(poly)
    assert seen == set(range(len(board.patch.tiles)))


def test_verify_perfect_words(board):
    for w in ((A,), (B,), (C,), (A, B), (B, C), (A, C), (A, B, C), (C, B, A, B)):
        assert verify_perfect_on_patch(board, w)


def test_verify_detects_scrambled_colours(board):
    bad_colours = list(board.colours)
    # recolour the tile containing triangle 0 inconsistently
    poly = next(p for p in board.polygons if 0 in p)
    for i in poly:
        bad_colours[i] = 3 - bad_colours[i]
    bad = replace(board, colours=tuple(bad_colours))
    assert not all(
        verify_perfect_on_patch(bad, w) for w in ((A,), (B,), (C,), (A, B))
    )


def test_wrong_kind_merge_fails(provider):
    # a subgroup containing a, b (a vertex colouring) cannot colour the
    # face tiling: triangles merged across the b, c mirrors clash
    t = rep_table(provider, 4, 4, TilingKind.QP, Scope.FULL, 2)
    with pytest.raises(MergeInconsistency):
        colour_patch(generate_patch(4, 4, 3), t, TilingKind.PQ)


def test_histogram(board):
    hist = colour_histogram(board)
    assert set(hist) == {1, 2}
    # the checkerboard has equally many complete squares of each colour
    assert hist[1] + hist[2] == sum(
        1 for p in board.polygons if len(p) == board.polygon_size
    )
    total = colour_histogram(board, complete_only=False)
    assert sum(total.values()) == len(board.polygons)


def test_rotation_scope_colouring(provider):
    t = rep_table(provider, 7, 3, TilingKind.PQ, Scope.ROTATION, 8)
    cp = colour_patch(generate_patch(7, 3, 5), t, TilingKind.PQ, Scope.ROTATION)
    assert cp.k == 8
    assert verify_perfect_on_patch(cp, (A, B))
    assert verify_perfect_on_patch(cp, (B, C))
    assert verify_perfect_on_patch(cp, (A, B, C, B))
    # odd words reverse orientation and are not colour symmetries here
    assert not verify_perfect_on_patch(cp, (A,))
    assert not verify_perfect_on_patch(cp, (A, B, C))


def test_rotation_scope_needs_orientation_subgroup(provider):
    t = rep_table(provider, 7, 3, TilingKind.PQ, Scope.FULL, 8)
    with pytest.raises(DomainError):
        colour_patch(generate_patch(7, 3, 3), t, TilingKind.PQ, Scope.ROTATION)


def test_svg_well_formed_and_deterministic(board):
    data = emit_svg(board)
    assert data == emit_svg(board)
    assert data.startswith(b"<svg")
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    fills = {f for el in paths if (f := el.get("fill")) and f != "none"}
    assert len(fills) == 2  # two colours on the board
    # a square's boundary is the a-side of each of its triangles, plus
    # the b- and c-sides that the patch rim cuts off
    rim = sum(links[g] < 0 for links in board.patch.neighbours for g in (B, C))
    strokes = [el for el in paths if el.get("fill") == "none"]
    assert len(strokes) == len(board.patch.tiles) + rim
    assert emit_svg(board, palette_seed=3) != data
    assert emit_svg(board, subdivision=2) != data


def test_svg_projections(provider):
    sphere = colour_patch(
        generate_patch(4, 3, 12),
        rep_table(provider, 4, 3, TilingKind.PQ, Scope.FULL, 3),
        TilingKind.PQ,
    )
    assert emit_svg(sphere, projection="stereographic") != emit_svg(
        sphere, projection="orthographic"
    )
    with pytest.raises(DomainError):
        emit_svg(sphere, projection="disk")

    hyp = colour_patch(
        generate_patch(7, 3, 4),
        rep_table(provider, 7, 3, TilingKind.PQ, Scope.FULL, 8),
        TilingKind.PQ,
    )
    emit_svg(hyp)  # disk is the default and only choice
    with pytest.raises(DomainError):
        emit_svg(hyp, projection="identity")
    with pytest.raises(DomainError):
        emit_svg(hyp, subdivision=0)


def test_svg_write_to_path(tmp_path, board):
    out = tmp_path / "board.svg"
    data = emit_svg(board, out=str(out))
    assert out.read_bytes() == data


def test_palette():
    assert palette(1) == palette(1)
    assert len(palette(12)) == 12
    assert len(set(palette(12))) == 12
    assert all(c.startswith("#") and len(c) == 7 for c in palette(5))
    assert palette(5, seed=1) != palette(5, seed=2)
