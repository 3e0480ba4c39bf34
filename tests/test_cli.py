import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colsym
from colsym.cli import main
from colsym.geometry import generate_patch


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
    args = [
        "census", "--p", "7", "--q", "3", "--tiling", "laves",
        "--scope", "rotation", "--max-colours", "15", "--cache-dir", cache_dir,
    ]
    _, out_a, _ = run_cli(capsys, *args, "--strategy", "a")
    _, out_b, _ = run_cli(capsys, *args, "--strategy", "b")
    _, out_both, _ = run_cli(capsys, *args, "--strategy", "both")
    assert out_a == out_b == out_both
    assert out_a.strip() == "[3.7.3.7] rotation <= 15: 1, 7, 9, 14^{6}, 15^{2}"


def test_census_rotation_defaults_to_route_b(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ["census", "--p", "7", "--q", "3", "--tiling", "laves",
            "--scope", "rotation", "--max-colours", "15"]
    code, out, err = run_cli(capsys, *args, "--cache-dir", cache)
    assert code == 0 and err.endswith("strategy b\n")
    # route b searches the rotation group only
    assert sorted(os.listdir(cache)) == ["vondyck-7-3.json"]
    assert run_cli(capsys, *args, "--strategy", "a", "--cache-dir", cache)[1] == out
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

    for words in ("-3", "0"):
        code, out, err = run_cli(
            capsys, "verify", "--p", "4", "--q", "3", "--colours", "3",
            "--words", words, "--cache-dir", cache_dir,
        )
        assert (code, out) == (2, "")
        assert "--words" in err

    # no word fits a patch of depth 0, nor an even one a patch of depth 1
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
        "--max-nodes", "40", "--no-cache",
    )
    assert code == 3
    assert "resource" in err


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
    for where in (["--no-cache"], ["--cache-dir", cache_dir]):  # cold
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
    code, out, _ = run_cli(
        capsys, "verify", "--p", "7", "--q", "3", "--tiling", "laves",
        "--scope", "rotation", "--colours", "14", "--pick", "2",
        "--depth", "4", "--words", "25", "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out.startswith("PASS")
    assert "25/25" in out
    # words are at most depth letters long, so each is checked at least on
    # the triangles within depth - (longest word) of the centre
    assert out.rstrip().endswith("each checked on at least 1 of 25 triangles")

    code, out, _ = run_cli(
        capsys, "verify", "--p", "7", "--q", "3", "--tiling", "laves",
        "--scope", "rotation", "--colours", "14", "--pick", "2",
        "--depth", "14", "--words", "25", "--cache-dir", cache_dir,
    )
    assert code == 0
    assert "25/25" in out
    patch = generate_patch(7, 3, 14)
    inner = sum(len(t.word) <= 14 - 12 for t in patch.tiles)
    assert inner == 9
    assert out.rstrip().endswith(
        f"each checked on at least {inner} of {len(patch.tiles)} triangles"
    )


def test_verify_default_depth_checks_more_than_the_centre(capsys, cache_dir):
    # at the default depth every word is checked on the triangles within
    # 16 - 12 = 4 of the centre, not on the centre alone
    code, out, _ = run_cli(
        capsys, "verify", "--p", "7", "--q", "3", "--colours", "8",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out.startswith("PASS")
    assert out.rstrip().endswith("each checked on at least 25 of 540 triangles")


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


def test_cache_subcommands(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    for bound in ("6", "8"):
        run_cli(capsys, "census", "--p", "4", "--q", "3", "--max-colours", bound,
                "--cache-dir", cache_dir)
    code, out, _ = run_cli(capsys, "cache", "ls", "--cache-dir", cache_dir)
    assert code == 0
    # the search to 8 replaced the one to 6: one file for the group, with
    # the 11 of the cube group's 17 classes to index 8 that colour a tiling
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "triangle-4-3   max_index=  8 classes=11"
    ]
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir)
    assert code == 0
    assert "removed 1" in out
    code, out, _ = run_cli(capsys, "cache", "ls", "--cache-dir", cache_dir)
    assert "# empty" in out


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
