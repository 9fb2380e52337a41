import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack import cli, montecarlo
from cubepack.canon import canonical_key
from cubepack.constructions import one_dim_tiling, rod_tiling
from cubepack.model import dumps, loads, make_packing

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def run(argv):
    out = io.StringIO()
    code = cli.run(argv, out)
    return code, out.getvalue()


def test_golden_enumerate_torus_dim3():
    code, text = run(["enumerate", "--space", "torus", "--dim", "3"])
    assert code == 0
    assert text == (GOLDEN / "enumerate_torus_dim3.csv").read_text()
    rows = text.splitlines()
    assert rows[0] == "# schema_version=1"
    assert rows[1] == "key,m,nparams,prob,extensible,aut"
    assert [r.split(",")[3] for r in rows[2:]] == ["1/3", "1/3", "5/18", "1/18"]


@pytest.mark.parametrize(
    "order, dims, expected",
    [
        ("2", "1..4", "C_2 = 4n^2-8n\n"),
        ("4", "1..6", "C_4 = (2016n^4-21436n^3+58701n^2-40721n)/90\n"),
        ("5", "1..7", "C_5 = (208724n^5-3516724n^4+18627854n^3-35643809n^2"
                      "+20444915n)/3780\n"),
    ],
    ids=["order2", "order4", "order5"],
)
def test_golden_expand(order, dims, expected):
    # orders above 4 need the long flag
    long = ["--long-running"] if int(order) > 4 else []
    code, text = run(["expand", "--order", order, "--dims", dims, *long])
    assert code == 0
    assert text == (GOLDEN / f"expand_order{order}.txt").read_text()
    assert text == expected


def test_golden_verify_dim6():
    code, text = run(["verify", "--fixtures", "dim6"])
    assert code == 0
    assert text == (GOLDEN / "verify_dim6.txt").read_text()
    lines = text.splitlines()
    assert len(lines) == 9
    assert all("non-extensible, params=" in ln and "aut=" in ln
               for ln in lines)


def test_enumerate_json_format():
    code, text = run(["enumerate", "--space", "torus", "--dim", "2",
                      "--format", "json"])
    assert code == 0
    rows = json.loads(text)
    assert [r["prob"] for r in rows] == ["1"]
    assert rows[0]["m"] == 4


def test_enumerate_finite_regime():
    code, text = run(["enumerate", "--space", "torus", "--dim", "2",
                      "--regime", "finite", "--N", "2"])
    assert code == 0
    probs = [ln.split(",")[3] for ln in text.splitlines()[2:]]
    assert probs == ["5/7", "2/7"]


def test_enumerate_checkpoint(tmp_path):
    ck = tmp_path / "sweep.json"
    argv = ["enumerate", "--space", "torus", "--dim", "3",
            "--checkpoint", str(ck)]
    code, text = run(argv)
    assert code == 0 and ck.is_file()
    again_code, again_text = run(argv)
    assert again_code == 0 and again_text == text


def test_simulate_deterministic(monkeypatch):
    argv = ["simulate", "--space", "torus", "--dim", "3", "--N", "50",
            "--trials", "200", "--seed", "9", "--track-lamination",
            "--emit-histogram"]
    code, text = run(argv)
    assert code == 0
    report = json.loads(text)
    assert report["trials"] == 200 and 4 <= report["mean"] <= 8
    assert 0 <= report["lamination_frequency"] <= 1
    assert sum(c for _, c in report["histogram"]) == 200
    again_code, again_text = run(argv)
    assert again_code == 0 and again_text == text
    # the trials split into one chunk per CPU; the text does not depend on it
    for cpus in (1, 2):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        assert run(argv) == (0, text)


def test_construct_roundtrip():
    code, text = run(["construct", "--rod", "3"])
    assert code == 0
    assert canonical_key(loads(text)) == canonical_key(rod_tiling(3))
    code, text = run(["construct", "--rod", "6"])
    assert code == 0 and loads(text) == rod_tiling(6)


def test_construct_long_running_lifts_rod_guard():
    assert run(["construct", "--rod", "13"]) == (2, "")
    code, text = run(["construct", "--rod", "13", "--long-running"])
    assert code == 0 and len(json.loads(text)["cubes"]) == 2 ** 13


def test_expand_long_running_lifts_dimension_guard():
    assert run(["expand", "--order", "0", "--dims", "10..11"]) == (2, "")
    assert run(["expand", "--order", "0", "--dims", "10..11",
                "--long-running"]) == (0, "C_0 = 1\n")


def test_construct_factorization():
    code, text = run(["construct", "--one-factorization", "6"])
    assert code == 0
    p = loads(text)
    assert p.dim == 5 and p.m == 6 and p.nparams == 15


def test_construct_product(tmp_path):
    line = tmp_path / "line.json"
    code, text = run(["construct", "--fixture", "minimal-packing"])
    assert code == 0
    tile = one_dim_tiling()
    line.write_text(dumps(tile))
    code, text = run(["construct", "--product", str(line), str(line)])
    assert code == 0
    p = loads(text)
    assert p.dim == 2 and p.m == 4 and p.nparams == 3


def test_construct_hmatrix_and_hn():
    code, text = run(["construct", "--hmatrix", "3"])
    assert code == 0
    assert loads(text).m == 3
    code, text = run(["construct", "--hn-tiling", "3"])
    assert code == 0
    p = loads(text)
    assert p.m == 8 and p.nparams == 6


def test_canon_subcommand():
    path = cli.fixtures.__module__  # silence unused-import style checks
    assert path
    code, text = run(["canon", "--in",
                      "fixtures/figure2/minimal-packing.json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["m"] == 4 and payload["aut"] == 24
    assert not payload["extensible"] and not payload["tiling"]


def _invalid_copy(tmp_path, edit):
    """A copy of the minimal-packing fixture, changed by edit(obj)."""
    source = Path(__file__).parents[1] / "fixtures/figure2/minimal-packing.json"
    obj = json.loads(source.read_text())
    edit(obj)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_canon_rejects_overlapping_cubes(tmp_path, capsys):
    path = _invalid_copy(tmp_path, lambda o: o["cubes"].append(o["cubes"][0]))
    code, text = run(["canon", "--in", path])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == f"{path}: cubes 0 and 4 overlap\n"


def test_canon_rejects_boundary_code_on_torus(tmp_path, capsys):
    def edit(obj):
        obj["cubes"][0][0] = 0

    path = _invalid_copy(tmp_path, edit)
    code, text = run(["canon", "--in", path])
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "cube 0, coordinate 0" in err and "invalid for torus" in err


def test_verify_rejects_invalid_fixture(monkeypatch, capsys):
    p = cli.load_fixture("minimal-packing")
    bad = make_packing(p.space, p.dim, p.cubes + p.cubes[:1])
    monkeypatch.setattr(cli, "load_fixture", lambda name: bad)
    code, text = run(["verify", "--fixtures", "minimal-packing"])
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert err == "minimal-packing: invalid: cubes 0 and 4 overlap\n"


def test_verify_single_fixture():
    code, text = run(["verify", "--fixtures", "h5"])
    assert code == 0
    assert text == "h5: extensible, params=15, aut=20\n"


def test_verify_fixture_reports():
    report = cli.verify_fixture("dim4-1over480")
    assert report["m"] == 6 and report["nparams"] == 10
    assert report["positive"] and not report["extensible"]


def test_verify_detects_drift(monkeypatch, capsys):
    patched = dict(cli._FIXTURE_EXPECTATIONS["h5"], aut=21)
    monkeypatch.setitem(cli._FIXTURE_EXPECTATIONS, "h5", patched)
    code, text = run(["verify", "--fixtures", "h5"])
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert "expected 21, derived 20" in err


# Arguments "json:TEXT" of test_exit_codes stand for a file holding TEXT.
_LITERAL_WITHOUT_S = 'json:{"space": "torus", "dim": 1, "cubes": [[{"p": 0}]]}'
_DIM_NOT_INT = 'json:{"space": "torus", "dim": "x", "cubes": []}'
# two copies of one 1-D torus cube, which overlap
_OVERLAPPING = ('json:{"space": "torus", "dim": 1, '
                '"cubes": [[{"p": 0, "s": 0}], [{"p": 0, "s": 0}]]}')


def _empty_torus_json(dim):
    return 'json:{"space": "torus", "dim": %d, "cubes": []}' % dim


# each file is within the construction cap; their product of 2^14 cubes in
# dimension 14 is 4.7 times over it
_ROD7 = "json:" + dumps(rod_tiling(7))

_CHECKPOINT_WITHOUT_LEVEL = (
    'json:{"regime": "limit", "n": 2, "include_zero_prob": false, '
    '"track_paths": false}'
)


def _checkpoint(**fields):
    blob = {"regime": "limit", "n": 2, "include_zero_prob": False,
            "track_paths": False, "level": 1, "frontier": [], "records": []}
    return "json:" + json.dumps({**blob, **fields})


def _torus_state(dim, cubes=()):
    return {"space": "torus", "dim": dim, "cubes": list(cubes)}


_CUBE2 = [{"p": 0, "s": 0}, {"p": 1, "s": 0}]

_DIM3_CHECKPOINT = _checkpoint(frontier=[[_torus_state(3), "1", None]])

# one broken rule each, besides the dimension-3 state above: a non-triple,
# no mass, a non-integer and a negative level, paths in an untracked
# census, overlapping cubes, a probability that is no number
_MALFORMED_CHECKPOINTS = [
    dict(frontier=[1]),
    dict(),
    dict(level=1.5, frontier=[[_torus_state(2), "1", None]]),
    dict(level=-1, frontier=[[_torus_state(2), "1", None]]),
    dict(frontier=[[_torus_state(2), "1", []]]),
    dict(frontier=[[_torus_state(2, [_CUBE2, _CUBE2]), "1", None]]),
    dict(frontier=[[_torus_state(2), "one", None]]),
]


def _with_json_files(argv, tmp_path):
    """argv with each json:TEXT argument replaced by the path of a file
    holding TEXT and each dir: argument by the path of a directory."""
    out = []
    for i, arg in enumerate(argv):
        if arg.startswith("json:"):
            path = tmp_path / f"arg{i}.json"
            path.write_text(arg[len("json:"):])
            arg = str(path)
        elif arg == "dir:":
            arg = str(tmp_path)
        out.append(arg)
    return out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], 1),
        (["enumerate", "--bogus"], 1),
        (["enumerate", "--space", "cube", "--dim", "2"], 1),
        (["enumerate", "--space", "torus", "--dim", "5"], 2),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--regime", "finite"], 1),
        (["expand", "--order", "2", "--dims", "1..2"], 1),
        (["construct", "--rod", "2"], 1),
        (["construct", "--fixture", "nope"], 1),
        (["construct", "--rod", "3", "--hmatrix", "3"], 1),
        (["verify", "--fixtures", "nope"], 1),
        (["canon", "--in", "no/such/file.json"], 1),
        (["bench"], 1),
        (["expand", "--order", "-1", "--dims", "1..3"], 1),
        (["enumerate", "--space", "torus", "--dim", "-1"], 1),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--regime", "finite", "--N", "0"], 1),
        (["simulate", "--space", "torus", "--dim", "-1", "--N", "5",
          "--trials", "3", "--seed", "1"], 1),
        (["construct", "--rod", "100000"], 2),
        (["enumerate", "--space", "torus", "--dim", "2", "--regime", "finite",
          "--N", "2", "--checkpoint", "no/such/dir/ck.json"], 1),
        (["enumerate", "--space", "torus", "--dim", "2", "--regime", "finite",
          "--N", "2", "--include-zero-prob"], 1),
        (["enumerate", "--space", "torus", "--dim", "2", "--N", "2"], 1),
        (["expand", "--order", "2", "--dims", "1,2,3,3"], 1),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--checkpoint", _DIM3_CHECKPOINT], 1),
        (["canon", "--in", "json:{}"], 1),
        (["canon", "--in", "json:[]"], 1),
        (["canon", "--in", _LITERAL_WITHOUT_S], 1),
        (["canon", "--in", _DIM_NOT_INT], 1),
        (["construct", "--product", "json:{}", "json:{}"], 1),
        (["construct", "--product", "json:[]", "json:[]"], 1),
        (["construct", "--product", _LITERAL_WITHOUT_S, _LITERAL_WITHOUT_S], 1),
        (["construct", "--product", _DIM_NOT_INT, _DIM_NOT_INT], 1),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--checkpoint", "json:[]"], 1),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--checkpoint", _CHECKPOINT_WITHOUT_LEVEL], 1),
        (["construct", "--hmatrix", "20001"], 2),
        (["construct", "--one-factorization", "20000"], 2),
        (["construct", "--product", _OVERLAPPING, _OVERLAPPING], 1),
        (["canon", "--in", _empty_torus_json(cli.CANON_MAX_DIM + 1)], 2),
        (["canon", "--in", _empty_torus_json(2000)], 2),
        (["simulate", "--space", "torus", "--dim", "2", "--N", "5",
          "--trials", "3", "--seed", "-1"], 1),
        (["simulate", "--space", "torus", "--dim", "2", "--N", "5",
          "--trials", "3", "--seed", str(2 ** 70)], 1),
        (["simulate", "--space", "torus", "--dim", "7", "--N", "5",
          "--trials", "1", "--seed", "1"], 2),
        (["construct", "--product", _ROD7, _ROD7], 2),
        *[(["enumerate", "--space", "torus", "--dim", "2",
            "--checkpoint", _checkpoint(**fields)], 1)
          for fields in _MALFORMED_CHECKPOINTS],
        (["expand", "--order", "1", "--dims=-2,-1,0"], 1),
        (["expand", "--order", "1", "--dims", "1..20"], 2),
        (["canon", "--in", "dir:"], 1),
        (["construct", "--product", "dir:", "dir:"], 1),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--checkpoint", "dir:"], 1),
    ],
)
def test_exit_codes(argv, expected, capsys, tmp_path):
    code, _ = run(_with_json_files(argv, tmp_path))
    assert code == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected == 1 and any(a.startswith(("json:", "dir:")) or a == "--seed"
                             for a in argv):
        assert err.count("\n") == 1
    if expected == 2:
        assert err.startswith("refused: ") and err.count("\n") == 1


def test_construct_size_guard_matches_rod_tiling_cap():
    # h_matrix(n) holds n^2 codes and a 1-factorization of K_v v(v-1), so
    # n = 221 and v = 222 are the largest under the 2^12 * 12 codes of the
    # largest default rod tiling
    assert run(["construct", "--hmatrix", "223"]) == (2, "")
    code, text = run(["construct", "--hmatrix", "223", "--long-running"])
    assert code == 0 and loads(text).m == 223
    code, text = run(["construct", "--one-factorization", "222"])
    assert code == 0 and loads(text).m == 222


def _invalid_packing_json(data):
    """Minimal-packing JSON with one change that always leaves it invalid:
    a dropped field, or a value of the wrong type or range in its place."""
    source = ROOT / "fixtures/figure2/minimal-packing.json"
    obj = json.loads(source.read_text())
    literal = obj["cubes"][data.draw(st.integers(0, 3))][
        data.draw(st.integers(0, 2))]
    kind = data.draw(st.sampled_from(
        ["top", "space", "dim", "cubes", "row", "coordinate", "p", "s",
         "drop-top", "drop-literal"]))
    if kind == "top":
        return data.draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    if kind == "drop-top":
        del obj[data.draw(st.sampled_from(["space", "dim", "cubes"]))]
    elif kind == "drop-literal":
        del literal[data.draw(st.sampled_from(["p", "s"]))]
    elif kind == "space":
        obj["space"] = data.draw(
            _JSON.filter(lambda v: v not in ("torus", "cube")))
    elif kind == "dim":
        obj["dim"] = data.draw(_JSON.filter(lambda v: v != 3))
    elif kind == "cubes":
        obj["cubes"] = data.draw(_JSON.filter(lambda v: not isinstance(v, list)))
    elif kind == "row":
        obj["cubes"][data.draw(st.integers(0, 3))] = data.draw(
            _JSON.filter(lambda v: not isinstance(v, list)))
    elif kind == "coordinate":
        row = obj["cubes"][data.draw(st.integers(0, 3))]
        row[data.draw(st.integers(0, 2))] = data.draw(
            _JSON.filter(lambda v: not isinstance(v, dict)))
    elif kind == "p":
        literal["p"] = data.draw(_JSON.filter(
            lambda v: not (type(v) is int and v >= 0)))
    else:
        literal["s"] = data.draw(_JSON.filter(lambda v: v not in (0, 1)))
    return obj


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_canon_rejects_mutated_packing_json(data):
    obj = _invalid_packing_json(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["canon", "--in", str(path)])
    assert code == 1 and text == ""
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == 1


def test_closed_stdout_exits_1_without_traceback():
    # The read end is closed before the child starts, so its first write to
    # stdout fails however fast it runs.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cubepack", "construct", "--rod", "6"],
            cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    # run passes BrokenPipeError on to main, which prints nothing
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_python_m_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cubepack", "verify", "--fixtures", "rod"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rod: tiling, params=6, aut=32\n"
