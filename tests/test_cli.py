import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubepack import cli
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
    ],
    ids=["order2", "order4"],
)
def test_golden_expand(order, dims, expected):
    code, text = run(["expand", "--order", order, "--dims", dims])
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
            "--checkpoint", str(ck), "--checkpoint-interval", "2"]
    code, text = run(argv)
    assert code == 0 and ck.is_file()
    again_code, again_text = run(argv)
    assert again_code == 0 and again_text == text


def test_simulate_deterministic():
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
        (["enumerate", "--space", "torus", "--dim", "2",
          "--checkpoint-interval", "2"], 1),
        (["enumerate", "--space", "torus", "--dim", "2",
          "--checkpoint", "no/such/dir/ck.json",
          "--checkpoint-interval", "0"], 1),
    ],
)
def test_exit_codes(argv, expected, capsys):
    code, _ = run(argv)
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err


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
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_python_m_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cubepack", "verify", "--fixtures", "rod"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rod: tiling, params=6, aut=32\n"
