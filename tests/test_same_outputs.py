"""tools/same_outputs.py: the comparison of two checkouts' answers."""

import importlib.util
import json
import pathlib

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
