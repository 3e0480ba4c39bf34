"""Acceptance gate: the ten headline checks, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL
lines; each line states the check and a timing or count detail.  The
frozen expected values live in colsym.goldens.
"""
import pathlib
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from colsym import goldens
from colsym.census import (
    Scope,
    TilingKind,
    census,
    colour_permutation,
    required_words,
)
from colsym.cli import GENERATORS
from colsym.geometry import fundamental_triangle, generate_patch
from colsym.lowindex import low_index_classes
from colsym.presentations import triangle_group
from colsym.render import colour_patch, emit_svg, verify_perfect_on_patch
from colsym.words import A, B, C
from oracle import (
    COLOURING_SPECIFICATION,
    class_counts,
    fixed_cosets,
    colours_transitive,
    oracle_classes,
    oracle_seeded_count,
    permutation_homomorphism_check,
    random_words,
    word_matrix,
)

HYPERBOLIC = ((7, 3), (8, 3), (5, 4))
KINDS = (TilingKind.PQ, TilingKind.LAVES, TilingKind.QP)


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_reports(provider):
    return {
        (p, q, kind): census(
            p, q, kind, Scope.FULL, goldens.FULL_BOUNDS[(p, q, kind)],
            classes_provider=provider,
        )
        for p, q in HYPERBOLIC
        for kind in KINDS
    }


@pytest.fixture(scope="module")
def rotation_reports(provider):
    return {
        (p, q, kind): census(
            p, q, kind, Scope.ROTATION, goldens.ROTATION_BOUNDS[(p, q, kind)],
            strategy="a", classes_provider=provider,
        )
        for p, q in HYPERBOLIC
        for kind in KINDS
    }


@pytest.fixture(scope="module")
def spherical_reports(provider):
    return {
        (p, q): census(p, q, TilingKind.PQ, Scope.FULL, 30, classes_provider=provider)
        for p, q in ((4, 3), (3, 5))
    }


@pytest.fixture(scope="module")
def checkerboard_report(provider):
    return census(4, 4, TilingKind.PQ, Scope.FULL, 2, classes_provider=provider)


def test_c01_full_scope_hyperbolic_censuses(full_reports):
    bad = []
    for key, report in full_reports.items():
        row, last = goldens.FULL_ROWS[key]
        ok, why = goldens.matches_row(report, row, last)
        if not ok:
            bad.append(f"{key}: {why}")
    elapsed = sum(r.elapsed for r in full_reports.values())
    check(
        "full-scope hyperbolic censuses match the frozen rows",
        not bad,
        f"9 rows, {elapsed:.1f}s" + ("; " + "; ".join(bad) if bad else ""),
    )
    assert elapsed < 3600.0


def test_c02_rotation_scope_hyperbolic_censuses(rotation_reports):
    bad = []
    for key, report in rotation_reports.items():
        assert report.strategy == "a"
        row, last = goldens.ROTATION_ROWS[key]
        ok, why = goldens.matches_row(report, row, last)
        if not ok:
            bad.append(f"{key}: {why}")
    elapsed = sum(r.elapsed for r in rotation_reports.values())
    check(
        "rotation-scope hyperbolic censuses match the frozen rows",
        not bad,
        f"9 rows, {elapsed:.1f}s" + ("; " + "; ".join(bad) if bad else ""),
    )
    assert elapsed < 4500.0


def test_c03_spherical_complete_censuses(spherical_reports):
    cube = spherical_reports[(4, 3)].multiplicities()
    icosa = spherical_reports[(3, 5)].multiplicities()
    elapsed = sum(r.elapsed for r in spherical_reports.values())
    ok = cube == goldens.CUBE_FULL_PQ and icosa == goldens.ICOSAHEDRON_FULL_PQ
    check(
        "spherical censuses are exactly {1,3,6} and {1,10,20}",
        ok,
        f"cube {cube}, icosahedron {icosa}, {elapsed:.1f}s",
    )
    assert elapsed < 30.0


def test_c04_checkerboard_colouring(checkerboard_report):
    started = time.perf_counter()
    two = [e for e in checkerboard_report.entries if e.colours == 2]
    ok = len(two) == 1 and two[0].count == 1
    detail = ""
    if ok:
        t = two[0].representatives[0].table
        perms = {w: colour_permutation(t, (w,)) for w in (A, B, C)}
        ok = perms[A] == (1, 0) and perms[B] == (0, 1) and perms[C] == (0, 1)
        detail = f"perms a:{perms[A]} b:{perms[B]} c:{perms[C]}"
    if ok:
        patch = generate_patch(4, 4, 4)
        cp = colour_patch(patch, t, TilingKind.PQ)
        for i, links in enumerate(patch.neighbours):
            for g, same in ((A, False), (B, True), (C, True)):
                j = links[g]
                if j >= 0 and (cp.colours[i] == cp.colours[j]) != same:
                    ok = False
        svg = emit_svg(cp)
        root = ET.fromstring(svg)
        fills = {
            f
            for el in root.iter()
            if el.tag.endswith("path") and (f := el.get("fill")) and f != "none"
        }
        ok = ok and len(fills) == 2
        detail += f", svg {len(svg)}b with {len(fills)} tile fills"
    elapsed = time.perf_counter() - started
    check(
        "two-coloured square tiling: census, permutations, alternation",
        ok,
        f"{detail}, {elapsed:.1f}s",
    )
    assert elapsed < 10.0


def test_c05_search_agrees_with_brute_force(provider):
    # the unseeded search against every class, and the provider's classes
    # against those that meet the six-way colouring specification
    started = time.perf_counter()
    bad = []
    for p, q in ((4, 3), (4, 4), (7, 3), (5, 4)):
        G = triangle_group(p, q)
        counts = class_counts(low_index_classes(G, 6))
        colouring = class_counts(provider(G, 6))
        for k in range(1, 7):
            oracle = oracle_classes(G, k)
            left, right = counts.get(k, 0), oracle.count
            if left != right:
                bad.append(f"({p},{q}) index {k}: search {left}, oracle {right}")
            left = colouring.get(k, 0)
            right = oracle_seeded_count(G, oracle, COLOURING_SPECIFICATION)
            if left != right:
                bad.append(f"({p},{q}) index {k}: seeded search {left}, oracle {right}")
    elapsed = time.perf_counter() - started
    check(
        "subgroup search equals the brute-force oracle to index 6",
        not bad,
        f"4 groups, {elapsed:.1f}s" + ("; " + "; ".join(bad) if bad else ""),
    )
    assert elapsed < 120.0


def test_c06_rotation_strategies_agree(provider, rotation_reports):
    started = time.perf_counter()
    bad = []
    for p, q in ((7, 3), (8, 3)):
        for kind in KINDS:
            bound = goldens.ROTATION_BOUNDS[(p, q, kind)]
            via_a = rotation_reports[(p, q, kind)].multiplicities()
            via_b = census(
                p, q, kind, Scope.ROTATION, bound,
                strategy="b", classes_provider=provider,
            ).multiplicities()
            if via_a != via_b:
                bad.append(f"({p},{q},{kind.value}): a={via_a} b={via_b}")
    elapsed = time.perf_counter() - started
    check(
        "both rotation-scope routes produce identical censuses",
        not bad,
        f"6 tilings, {elapsed:.1f}s" + ("; " + "; ".join(bad) if bad else ""),
    )
    assert elapsed < 1800.0


def test_c07_property_suite_on_every_representative(
    full_reports, rotation_reports, spherical_reports, checkerboard_report
):
    started = time.perf_counter()
    labelled = []
    for (p, q, kind), rep in full_reports.items():
        labelled.append((p, q, kind, Scope.FULL, rep))
    for (p, q, kind), rep in rotation_reports.items():
        labelled.append((p, q, kind, Scope.ROTATION, rep))
    for (p, q), rep in spherical_reports.items():
        labelled.append((p, q, TilingKind.PQ, Scope.FULL, rep))
    labelled.append((4, 4, TilingKind.PQ, Scope.FULL, checkerboard_report))

    patches = {}
    rng = random.Random(20260819)
    reps_seen = 0
    bad = []

    for p, q, kind, scope, report in labelled:
        mult = report.multiplicities()
        if mult.get(1) != 1:
            bad.append(f"({p},{q},{kind.value},{scope.value}): no unique 1-colouring")
            continue
        words = required_words(kind, scope)
        if (p, q) not in patches:
            patches[(p, q)] = generate_patch(p, q, 10)
        patch = patches[(p, q)]
        for entry in report.entries:
            for rec in entry.representatives:
                reps_seen += 1
                t = rec.table
                label = f"({p},{q},{kind.value},{scope.value},k={entry.colours})"
                if 0 not in fixed_cosets(t, words):
                    bad.append(f"{label}: base coset not fixed")
                    continue
                if not colours_transitive(t):
                    bad.append(f"{label}: colours not transitive")
                    continue
                pairs = random_words(rng, Scope.FULL, 10, 400)
                homo_ok = all(
                    permutation_homomorphism_check(t, u, v)
                    for u, v in zip(pairs[::2], pairs[1::2])
                )
                if not homo_ok:
                    bad.append(f"{label}: permutation map is not a homomorphism")
                    continue
                cp = colour_patch(patch, t, kind, scope)
                if any(
                    len({cp.colours[i] for i in poly}) != 1 for poly in cp.polygons
                ):
                    bad.append(f"{label}: merged polygon not monochrome")
                    continue
                # exact: l(g.x) = l(x) +- 1, so the generators checked on
                # every triangle check every word as far as the patch allows
                if not all(verify_perfect_on_patch(cp, g) for g in GENERATORS[scope]):
                    bad.append(f"{label}: a generator failed the patch check")
    elapsed = time.perf_counter() - started
    check(
        "property suite holds on every census representative",
        not bad,
        f"{reps_seen} representatives, {elapsed:.1f}s"
        + ("; " + "; ".join(bad[:4]) if bad else ""),
    )


def test_c08_full_scope_contained_in_rotation_scope(full_reports, rotation_reports):
    bad = []
    for p, q in HYPERBOLIC:
        for kind in KINDS:
            full = full_reports[(p, q, kind)]
            rot = rotation_reports[(p, q, kind)]
            overlap = min(full.max_colours, rot.max_colours)
            mr = rot.multiplicities()
            for k, c in full.multiplicities().items():
                if k <= overlap and mr.get(k, 0) < c:
                    bad.append(
                        f"({p},{q},{kind.value}) k={k}: full {c} > rotation "
                        f"{mr.get(k, 0)}"
                    )
    check(
        "every full-scope colouring also appears in the rotation census",
        not bad,
        "9 tiling pairs" + ("; " + "; ".join(bad) if bad else ""),
    )


def test_c09_geometric_realization_is_faithful():
    started = time.perf_counter()
    worst_relator = 0.0
    for p, q in ((4, 3), (3, 5), (4, 4), (7, 3), (8, 3), (5, 4)):
        tri = fundamental_triangle(p, q)
        for rel in triangle_group(p, q).relators:
            resid = float(np.max(np.abs(word_matrix(tri, rel) - np.eye(3))))
            worst_relator = max(worst_relator, resid)

    worst_drift = 0.0
    for p, q in ((7, 3), (5, 4)):
        patch = generate_patch(p, q, 10)
        tri = patch.triangle
        for w, M in zip(patch.tiles, patch.matrices):
            drift = float(np.max(np.abs(word_matrix(tri, w) - M)))
            worst_drift = max(worst_drift, drift)

    cube_tiles = len(generate_patch(4, 3, 40).tiles)
    elapsed = time.perf_counter() - started
    ok = worst_relator < 1e-9 and worst_drift < 1e-6 and cube_tiles == 48
    check(
        "matrix realization: relators close, no drift, sphere closes up",
        ok,
        f"relator residual {worst_relator:.1e}, depth-10 drift {worst_drift:.1e}, "
        f"(4,3) patch {cube_tiles} tiles, {elapsed:.1f}s",
    )


SELFTEST_FULL = pathlib.Path(__file__).parents[1] / "perfbench" / "expected" / "selftest_full.txt"


def test_c10_selftest_transcript_is_pinned_cold_and_warm(tmp_path):
    # the first run searches and fills the cache, the second reads it back
    expected = SELFTEST_FULL.read_bytes()
    started = time.perf_counter()
    outs = []
    for _ in ("cold", "warm"):
        res = subprocess.run(
            [
                sys.executable, "-m", "colsym.cli", "selftest",
                "--level", "full", "--cache-dir", str(tmp_path),
            ],
            capture_output=True, timeout=1800,
        )
        assert res.returncode == 0, res.stdout.decode() + res.stderr.decode()
        outs.append(res.stdout)
    elapsed = time.perf_counter() - started
    check(
        "selftest transcript, cold and warm, is the expected one byte for byte",
        outs == [expected, expected],
        f"{len(expected)} bytes, {elapsed:.1f}s",
    )
