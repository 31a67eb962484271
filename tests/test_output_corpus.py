"""``tools/output_corpus.py`` records the same bytes on every run of one
tree, and every benchmark op it records exits 0 without a crash."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "output_corpus", ROOT / "tools" / "output_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_block_records_the_same_bytes_twice(tmp_path, capsys):
    tool = _tool()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, second):
        assert tool.main([str(ROOT), str(out), "--seed", "77", "--blocks", "1"]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    records = json.loads(first.read_text())["ops"]
    assert {r["workload"] for r in records} == {
        "transport_exact", "transport_float", "certify", "cellsets"
    }
    for r in records:  # a crash is recorded as an exit of "crash: ..."
        assert r["exit"] == 0, (r["argv"], r["exit"], r["stderr"])
