"""tools/same_outputs.py: the comparison of two checkouts' answers."""

import importlib.util
import json
import pathlib
import tempfile

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def _side(root, files, records):
    root.mkdir()
    queries = [{"id": f"q{k:03d}", "argv": ["validate", f"f{k}.txt"]} for k in range(len(records))]
    (root / "manifest.json").write_text(json.dumps(queries))
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return str(root), {"queries": records}


def _record(code=0, stdout="ok\n", stderr="", error=None):
    return {"code": code, "stdout": stdout, "stderr": stderr, "error": error}


def test_identical_sides_report_nothing(tmp_path):
    files = {"f0.txt": "dim 0\n", "out/q000.txt": "x\n"}
    records = [_record(), _record(code=3, stderr="error: line 1: bad\n")]
    parent = _side(tmp_path / "p", files, records)
    change = _side(tmp_path / "c", files, records)
    assert same_outputs.compare(parent, change) == []


def test_every_kind_of_difference_is_reported(tmp_path):
    parent = _side(
        tmp_path / "p",
        {"f0.txt": "dim 0\n", "out/q000.txt": "x\n", "gone.txt": ""},
        [_record(stdout="a\nb\n"), _record(), _record()],
    )
    change = _side(
        tmp_path / "c",
        {"f0.txt": "dim 1\n", "out/q000.txt": "x\n", "new.txt": ""},
        [
            _record(stdout="a\nbound: 3\nb\n"),
            _record(code=None, error={"type": "KeyError", "message": "'c'"}),
            _record(),
        ],
    )
    report = same_outputs.compare(parent, change)
    assert report[0] == "q000 (validate f0.txt): stdout differ"
    assert report[1] == "  stdout +bound: 3"
    assert report[2] == "q001 (validate f1.txt): code, error differ"
    assert report[3:5] == ["  code: 0 -> None", "  error: None -> \"KeyError: 'c'\""]
    assert report[5:8] == [
        "file f0.txt: bytes differ",
        "file gone.txt: only in the parent's corpus",
        "file new.txt: only in the change's corpus",
    ]
    assert report[8:] == ["changed output lines, with the number of queries:", "     1  stdout +bound: 3"]


FAKE_WORKER = """import json, os, sys
if sys.argv[1] == {fail!r}:
    sys.exit("broken checkout")
if sys.argv[1] == "setup":
    os.makedirs(sys.argv[4])
    with open(os.path.join(sys.argv[4], "manifest.json"), "w") as fh:
        json.dump([], fh)
else:
    with open(sys.argv[3], "w") as fh:
        json.dump({{"queries": []}}, fh)
"""


def _checkout(root, fail=None):
    """A checkout whose worker answers an empty corpus, or exits non-zero
    at the named step."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "worker.py").write_text(FAKE_WORKER.format(fail=fail))
    return str(root)


@pytest.mark.parametrize(
    "parent_fails, change_fails, line",
    [
        ("setup", None, "failed: the parent checkout's worker setup exited 1"),
        (None, "pass", "failed: the change checkout's worker pass exited 1"),
    ],
)
def test_a_failing_worker_is_exit_2_naming_the_side_and_step(
    tmp_path, monkeypatch, capfd, parent_fails, change_fails, line
):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    parent = _checkout(tmp_path / "p", parent_fails)
    change = _checkout(tmp_path / "c", change_fails)
    argv = [parent, change, "--workload", "construct", "--seed", "1"]
    assert same_outputs.main(argv) == 2
    err = capfd.readouterr().err.splitlines()
    assert err[-1] == line
    assert "broken checkout" in err
    assert list((tmp_path / "tmp").iterdir()) == []  # the temporary directory is gone
    work = tmp_path / "work"
    assert same_outputs.main(argv + ["--work", str(work)]) == 2
    assert (work / "construct-seed1" / "parent").is_dir()  # a named work directory is kept


def test_fake_checkouts_that_answer_alike_are_identical(tmp_path, capsys):
    argv = [_checkout(tmp_path / "p"), _checkout(tmp_path / "c"), "--workload", "w", "--seed", "0"]
    assert same_outputs.main(argv) == 0
    assert capsys.readouterr().out.startswith("identical: w seed 0, 0 queries")


def test_runs_share_a_work_directory_and_a_repeated_run_is_refused(tmp_path, capsys):
    checkouts = [_checkout(tmp_path / "p"), _checkout(tmp_path / "c")]
    work = tmp_path / "work"
    for workload, seed in (("rlp-enum", "1"), ("construct", "7")):
        argv = [*checkouts, "--workload", workload, "--seed", seed, "--work", str(work)]
        assert same_outputs.main(argv) == 0
    assert sorted(p.name for p in work.iterdir()) == ["construct-seed7", "rlp-enum-seed1"]
    assert sorted(p.name for p in (work / "rlp-enum-seed1").iterdir()) == ["change", "parent"]
    capsys.readouterr()
    before = sorted(str(p) for p in work.rglob("*"))
    argv = [*checkouts, "--workload", "rlp-enum", "--seed", "1", "--work", str(work)]
    assert same_outputs.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"refused: {work / 'rlp-enum-seed1'} exists from an earlier run\n"
    assert sorted(str(p) for p in work.rglob("*")) == before
