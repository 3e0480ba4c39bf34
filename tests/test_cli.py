import errno
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import colsym
import colsym.cli
from colsym import goldens
from colsym.cache import cached_provider
from colsym.census import (
    Scope, TilingKind, census, colouring_seeds, format_census,
)
from colsym.cli import main
from colsym.coset import canonical_table
from colsym.errors import ResourceLimit
from colsym.geometry import generate_patch
from colsym.lowindex import _search
from colsym.presentations import MIRROR_TWIST, triangle_group, von_dyck_group
from colsym.subgroups import fixed_cosets, transform_subgroup
from colsym.words import A, ZGEN


@pytest.fixture()
def cache_dir(tmp_path_factory):
    # module-local disk cache so CLI invocations stay fast and isolated
    return str(tmp_path_factory.mktemp("clicache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_plain_output(capsys, cache_dir):
    code, out, err = run_cli(
        capsys, "census", "--p", "7", "--q", "3", "--tiling", "pq",
        "--max-colours", "36", "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out.strip() == "(7^3) full <= 36: 1, 8, 15, 22, 24, 30, 36^{2}"
    assert err.startswith("#")


def test_census_json_and_csv(capsys, cache_dir):
    code, out, _ = run_cli(
        capsys, "census", "--p", "4", "--q", "3", "--max-colours", "10",
        "--format", "json", "--cache-dir", cache_dir,
    )
    assert code == 0
    doc = json.loads(out)
    assert [e["colours"] for e in doc["entries"]] == [1, 3, 6]

    code, out, _ = run_cli(
        capsys, "census", "--p", "4", "--q", "3", "--max-colours", "10",
        "--format", "csv", "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out.splitlines()[0] == "p,q,tiling,scope,colours,count"


def test_census_to_file(tmp_path, capsys, cache_dir):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        capsys, "census", "--p", "4", "--q", "3", "--max-colours", "6",
        "--out", str(target), "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "(4^3) full <= 6: 1, 3, 6"


def test_census_rotation_strategies(capsys, cache_dir):
    provider = cached_provider(cache_dir)
    lines = {format_census(census(7, 3, TilingKind.LAVES, Scope.ROTATION, 15, strategy=s,
                                  classes_provider=provider)) for s in ("a", "b", "both")}
    code, out, _ = run_cli(
        capsys, "census", "--p", "7", "--q", "3", "--tiling", "laves",
        "--scope", "rotation", "--max-colours", "15", "--cache-dir", cache_dir,
    )
    assert code == 0 and lines == {out.strip()}
    assert out.strip() == "[3.7.3.7] rotation <= 15: 1, 7, 9, 14^{6}, 15^{2}"


def test_census_rotation_defaults_to_route_b(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ["census", "--p", "7", "--q", "3", "--tiling", "laves",
            "--scope", "rotation", "--max-colours", "15"]
    code, out, err = run_cli(capsys, *args, "--cache-dir", cache)
    assert code == 0 and err.endswith("strategy b\n")
    # route b searches the rotation group only
    assert sorted(os.listdir(cache)) == ["vondyck-7-3.json"]
    _, doc, _ = run_cli(capsys, *args, "--format", "json", "--cache-dir", cache)
    assert json.loads(doc)["strategy"] == "b"


def test_domain_error_exit_code(capsys, cache_dir):
    code, _, err = run_cli(
        capsys, "census", "--p", "7", "--q", "3", "--max-colours", "0",
        "--cache-dir", cache_dir,
    )
    assert code == 2
    assert "error" in err

    code, _, err = run_cli(
        capsys, "census", "--p", "2", "--q", "3", "--max-colours", "4",
        "--cache-dir", cache_dir,
    )
    assert code == 2

    # no generator fits a patch of depth 0, nor a rotation one of depth 1
    for scope, depth in (("full", "0"), ("full", "-2"), ("rotation", "1")):
        code, out, err = run_cli(
            capsys, "verify", "--p", "7", "--q", "3", "--colours", "8",
            "--scope", scope, "--depth", depth, "--cache-dir", cache_dir,
        )
        assert (code, out) == (2, "")
        assert "--depth" in err

    for size in ("0", "-5"):
        code, out, err = run_cli(
            capsys, "render", "--p", "4", "--q", "3", "--colours", "3",
            "--size", size, "--cache-dir", cache_dir,
        )
        assert (code, out) == (2, "")
        assert "size" in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, cache_dir):
    target = str(tmp_path / "missing" / "x.out")
    for argv in (
        ("census", "--p", "4", "--q", "3", "--max-colours", "6"),
        ("render", "--p", "4", "--q", "3", "--colours", "3"),
    ):
        code, out, err = run_cli(capsys, *argv, "--out", target, "--cache-dir", cache_dir)
        assert (code, out) == (2, "")
        assert f"error: cannot write {target}: No such file or directory" in err


def test_resource_limit_exit_code(capsys, cache_dir):
    code, _, err = run_cli(
        capsys, "census", "--p", "7", "--q", "3", "--max-colours", "20",
        "--max-nodes", "40",
    )
    assert code == 3
    assert "resource" in err


def test_budget_bounds_each_of_the_two_searches(capsys):
    # a full-scope (4^3) census to 24 searches the mirror walks to 24 in 23
    # nodes and the rotation half to 12 in 24: 23 stops the second search,
    # and 24, short of the two searches' sum, lets both run
    G, V = triangle_group(4, 3), von_dyck_group(4, 3)
    _search(G, 24, colouring_seeds(G), node_budget=23)
    with pytest.raises(ResourceLimit):
        _search(V, 12, colouring_seeds(V), node_budget=23)
    _search(V, 12, colouring_seeds(V), node_budget=24)
    census = ("census", "--p", "4", "--q", "3", "--max-colours", "24")
    code, out, err = run_cli(capsys, *census, "--max-nodes", "23")
    assert (code, out) == (3, "")
    assert "resource" in err
    code, out, _ = run_cli(capsys, *census, "--max-nodes", "24")
    assert (code, out) == run_cli(capsys, *census)[:2]
    assert code == 0


def test_selftest_takes_no_search_budget():
    # the selftest always searches to the frozen bounds, so a node budget
    # it would not apply is refused as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--max-nodes", "1", "--level", "fast"])
    assert exc.value.code == 2


def test_jobs_below_one_is_refused_on_a_warm_cache(capsys, cache_dir):
    args = ["census", "--p", "4", "--q", "3", "--max-colours", "6", "--cache-dir", cache_dir]
    assert run_cli(capsys, *args)[0] == 0
    code, out, err = run_cli(capsys, *args, "--jobs", "0")
    assert (code, out) == (2, "")
    assert "jobs" in err


def test_negative_max_nodes_is_refused_cold_and_warm(capsys, cache_dir):
    args = ["census", "--p", "4", "--q", "3", "--max-colours", "6"]
    for where in ([], ["--cache-dir", cache_dir]):  # cold
        code, out, err = run_cli(capsys, *args, *where, "--max-nodes", "-1")
        assert (code, out) == (2, "")
        assert "node_budget" in err
    assert run_cli(capsys, *args, "--cache-dir", cache_dir)[0] == 0
    code, out, err = run_cli(capsys, *args, "--cache-dir", cache_dir, "--max-nodes", "-1")
    assert (code, out) == (2, "")
    assert "node_budget" in err
    # a budget of 0 is valid; the warm cache needs no search
    code, out, _ = run_cli(capsys, *args, "--cache-dir", cache_dir, "--max-nodes", "0")
    assert (code, out) == (0, "(4^3) full <= 6: 1, 3, 6\n")


def test_usage_error_exit_code(cache_dir):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "7", "--q", "3"])  # missing --max-colours
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["census", "--p", "7", "--q", "3", "--max-colours", "9",
              "--tiling", "heptagonal"])


def test_strategy_is_no_census_option(cache_dir):
    # rotation scope takes route b; selftest runs both routes
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "7", "--q", "3", "--scope", "rotation", "--max-colours", "9",
              "--strategy", "b", "--cache-dir", cache_dir])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("census", "--p", "7", "--q", "3", "--max-colours", "8", "--no-cache"),
    ("selftest", "--no-cache"),
    ("cache", "ls"),
    ("cache", "clear"),
])
def test_the_cache_switch_and_subcommand_are_gone(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_a_run_without_cache_dir_writes_no_file(capsys, tmp_path, monkeypatch):
    # nothing lands in the home directory, the working directory or a
    # directory the environment names: only --out is written
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("COLSYM_CACHE_DIR", str(tmp_path / "env-cache"))
    monkeypatch.chdir(tmp_path)
    for argv in (
        ("census", "--p", "7", "--q", "3", "--scope", "rotation", "--max-colours", "22"),
        ("render", "--p", "4", "--q", "4", "--colours", "2", "--depth", "4", "--out", "board.svg"),
        ("verify", "--p", "7", "--q", "3", "--colours", "8", "--depth", "6"),
        ("selftest",),
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert [(d, sorted(fs)) for d, _, fs in os.walk(tmp_path)] == [(str(tmp_path), ["board.svg"])]


def test_render_and_determinism(tmp_path, capsys, cache_dir):
    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    for target in (svg1, svg2):
        code, _, _ = run_cli(
            capsys, "render", "--p", "4", "--q", "4", "--colours", "2",
            "--depth", "4", "--out", str(target), "--cache-dir", cache_dir,
        )
        assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_bytes().startswith(b"<svg")


def test_render_to_stdout(cache_dir, tmp_path):
    # stdout.buffer is not capturable by capsys; use a subprocess
    res = subprocess.run(
        [sys.executable, "-m", "colsym.cli", "render", "--p", "4", "--q", "3",
         "--colours", "6", "--cache-dir", cache_dir],
        capture_output=True, timeout=120,
    )
    assert res.returncode == 0
    assert res.stdout.startswith(b"<svg")


def test_render_rejects_missing_colouring(capsys, cache_dir):
    code, _, err = run_cli(
        capsys, "render", "--p", "4", "--q", "3", "--colours", "5",
        "--cache-dir", cache_dir,
    )
    assert code == 2
    assert "no perfect colouring" in err

    code, _, err = run_cli(
        capsys, "render", "--p", "4", "--q", "3", "--colours", "6",
        "--pick", "9", "--cache-dir", cache_dir,
    )
    assert code == 2
    assert "out of range" in err


def test_verify_command(capsys, cache_dir):
    # the six rotations gh are each two letters long, so each is checked at
    # least on the triangles within depth - 2 of the centre
    for depth, tiles, inner, n in (("4", 9, 9, 25), ("14", 111, 246, 370)):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "7", "--q", "3", "--tiling", "laves",
            "--scope", "rotation", "--colours", "14", "--pick", "2",
            "--depth", depth, "--cache-dir", cache_dir,
        )
        assert code == 0
        assert out == (
            f"PASS [3.7.3.7] rotation k=14: 6/6 generators consistent on {tiles} "
            f"tiles, each checked on at least {inner} of {n} triangles\n"
        )
        patch = generate_patch(7, 3, int(depth))
        assert inner == sum(len(w) <= int(depth) - 2 for w in patch.tiles)
        assert n == len(patch.tiles)

    code, out, _ = run_cli(
        capsys, "verify", "--p", "7", "--q", "3", "--tiling", "qp",
        "--scope", "rotation", "--colours", "14", "--pick", "3", "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out == (
        "PASS (3^7) rotation k=14: 6/6 generators consistent on 117 tiles, "
        "each checked on at least 370 of 540 triangles\n"
    )


def test_verify_default_depth_checks_more_than_the_centre(capsys, cache_dir):
    # at the default depth the mirrors are checked on every triangle within
    # 16 - 1 = 15 of the centre, not on the centre alone
    code, out, _ = run_cli(
        capsys, "verify", "--p", "7", "--q", "3", "--colours", "8",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out == (
        "PASS (7^3) full k=8: 3/3 generators consistent on 68 tiles, "
        "each checked on at least 448 of 540 triangles\n"
    )


def test_selftest_fast(capsys, cache_dir, monkeypatch):
    searched = []
    search = colsym.cache.low_index_classes

    def counted(pres, max_index, **kw):
        searched.append(pres.name)
        return search(pres, max_index, **kw)

    monkeypatch.setattr(colsym.cache, "low_index_classes", counted)
    code, out, err = run_cli(
        capsys, "selftest", "--level", "fast", "--cache-dir", cache_dir,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("selftest fast: PASS")
    assert all(not l.startswith("FAIL") for l in lines)
    assert "wall time" in err
    # on an empty cache each group is searched once, to its largest bound
    assert sorted(searched) == sorted(set(searched))


def doctor_rotation_classes(monkeypatch, edit):
    """Serve the CLI and selftest every von Dyck class list with its tables passed through edit."""
    real = colsym.cache.cached_provider

    def factory(*args, **kwargs):
        provider = real(*args, **kwargs)

        def doctored(pres, max_index):
            cl = provider(pres, max_index)
            return replace(cl, tables=edit(cl.tables)) if pres.name.startswith("vondyck") else cl

        return doctored

    for module in (colsym.cli, colsym.selftest):
        monkeypatch.setattr(module, "cached_provider", factory)


ROTATION_CENSUS = ("census", "--p", "7", "--q", "3", "--scope", "rotation", "--max-colours", "24")


def test_rotation_routes_that_disagree_exit_1(capsys, cache_dir, monkeypatch):
    # both of a twin pair go, so route b stays consistent but counts no 22;
    # selftest runs the rotation rows by both routes
    doctor_rotation_classes(monkeypatch, lambda ts: tuple(t for t in ts if t.n != 22))
    code, out, err = run_cli(capsys, "selftest", "--level", "fast", "--cache-dir", cache_dir)
    assert (code, out) == (1, "")
    assert "rotation strategies disagree" in err


def test_twist_outside_the_class_list_exits_1(capsys, cache_dir, monkeypatch):
    def drop_one_twin(tables):
        i = next(i for i, t in enumerate(tables) if fixed_cosets(t, ((ZGEN,),))
                 and canonical_table(transform_subgroup(t, MIRROR_TWIST)) != t)
        return tables[:i] + tables[i + 1:]

    doctor_rotation_classes(monkeypatch, drop_one_twin)
    code, out, err = run_cli(capsys, *ROTATION_CENSUS, "--cache-dir", cache_dir)
    assert (code, out) == (1, "")
    assert "mirror twist left the qualifying class list" in err


def test_twist_that_is_no_involution_exits_1(capsys, cache_dir, monkeypatch):
    # a class listed twice: both copies twist to the second
    doctor_rotation_classes(monkeypatch, lambda ts: ts + ts[:1])
    code, out, err = run_cli(capsys, *ROTATION_CENSUS, "--cache-dir", cache_dir)
    assert (code, out) == (1, "")
    assert "mirror twist does not act as an involution" in err


def test_selftest_prints_fail_for_a_mismatched_row(capsys, cache_dir, monkeypatch):
    row, last = goldens.FULL_ROWS[(7, 3, TilingKind.PQ)]
    monkeypatch.setitem(goldens.FULL_ROWS, (7, 3, TilingKind.PQ), ({**row, 8: 2}, last))
    code, out, _ = run_cli(capsys, "selftest", "--level", "fast", "--cache-dir", cache_dir)
    assert code == 1
    lines = out.splitlines()
    assert "FAIL full (7^3): at 8 colours: expected 2, computed 1" in lines
    assert sum(l.startswith("FAIL ") for l in lines) == 1
    assert lines[-1].startswith("selftest fast: FAIL")


def test_verify_prints_fail_for_an_inconsistent_word(capsys, cache_dir, monkeypatch):
    monkeypatch.setattr(colsym.cli, "verify_perfect_on_patch", lambda cp, w: w[0] != A)
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--q", "3", "--colours", "8",
                           "--depth", "6", "--cache-dir", cache_dir)
    assert code == 1
    assert out.splitlines() == [
        "FAIL generator (0,) does not permute colours consistently",
        "FAIL (7^3) full k=8: 2/3 generators consistent on 9 tiles, "
        "each checked on at least 37 of 53 triangles",
    ]

    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--q", "3", "--colours", "8",
                           "--scope", "rotation", "--depth", "6", "--cache-dir", cache_dir)
    assert code == 1
    assert out.splitlines() == [
        "FAIL generator (0, 1) does not permute colours consistently",
        "FAIL generator (0, 2) does not permute colours consistently",
        "FAIL (7^3) rotation k=8: 4/6 generators consistent on 9 tiles, "
        "each checked on at least 25 of 53 triangles",
    ]


class _FullStream:
    """A stdout or stderr on a full disk: every write fails."""

    def write(self, *_):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    flush = write

    @property
    def buffer(self):
        return self


def test_a_failed_write_to_stdout_is_a_one_line_error(capsys, cache_dir, monkeypatch):
    # exit 1 means a verification failed, so a write that fails is exit 2,
    # as with --out, and the error names stdout
    monkeypatch.setattr(sys, "stdout", _FullStream())
    for argv in (
        ("census", "--p", "7", "--q", "3", "--max-colours", "8"),
        ("render", "--p", "4", "--q", "4", "--colours", "2"),
        ("verify", "--p", "7", "--q", "3", "--colours", "8"),
        ("selftest",),
    ):
        code, _, err = run_cli(capsys, *argv, "--cache-dir", cache_dir)
        assert (code, err.splitlines()[-1]) == (
            2, "error: cannot write stdout: No space left on device"
        ), argv
        assert "Traceback" not in err


def test_a_failed_write_to_stderr_keeps_stdout_and_the_exit_code(
        capsys, cache_dir, monkeypatch, tmp_path):
    # stderr carries only notes and error messages: losing them loses no
    # output, and exit 1 still means only a failed check
    monkeypatch.setattr(sys, "stderr", _FullStream())
    census_args = ("census", "--q", "3", "--max-colours", "10", "--cache-dir", cache_dir)
    assert run_cli(capsys, *census_args, "--p", "7")[:2] == (0, "(7^3) full <= 10: 1, 8\n")
    assert run_cli(capsys, *census_args, "--p", "2")[:2] == (2, "")
    code, out, _ = run_cli(capsys, "selftest", "--level", "fast", "--cache-dir", cache_dir)
    assert code == 0 and out.splitlines()[-1].startswith("selftest fast: PASS")
    svg = tmp_path / "board.svg"
    code, out, _ = run_cli(capsys, "render", "--p", "4", "--q", "4", "--colours", "2",
                           "--depth", "4", "--out", str(svg), "--cache-dir", cache_dir)
    assert (code, out) == (0, "") and svg.read_bytes().startswith(b"<svg")


def test_other_os_errors_are_not_write_errors(capsys, cache_dir, monkeypatch):
    # an OSError from the work itself, say a failed fork under --jobs, is
    # no usage error and keeps its traceback
    def no_fork(*args, **kwargs):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(colsym.cli, "census", no_fork)
    with pytest.raises(OSError):
        main(["census", "--p", "7", "--q", "3", "--max-colours", "8", "--cache-dir", cache_dir])


def test_installed_entry_point(cache_dir, tmp_path):
    # Runs the `colsym` command that pyproject.toml declares, loaded the way an
    # installer's wrapper script loads it, from the colsym under test: its
    # directory goes first on PYTHONPATH and the child runs in an empty
    # directory, so no other install or working copy can stand in for it.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["colsym"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'colsym'\n"
        f"sys.exit(EntryPoint('colsym', {spec!r}, 'console_scripts').load()())\n"
    )
    package_root = str(Path(colsym.__file__).resolve().parents[1])
    pythonpath = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def run_colsym(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
        )

    res = run_colsym("census", "--p", "4", "--q", "3", "--max-colours", "6",
                     "--cache-dir", cache_dir)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "(4^3) full <= 6: 1, 3, 6"
    # a failing census must reach the shell as main()'s exit code, not as 0
    res = run_colsym("census", "--p", "2", "--q", "3", "--max-colours", "4",
                     "--cache-dir", cache_dir)
    assert res.returncode == 2, res.stderr
