"""The summary and the JSON record of tools/bench_pairs.py, on synthetic paired runs.

The tool is loaded by path; it runs no benchmark here.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = [
    {"name": "op_p50_s", "better": "lower"},
    {"name": "verified_frac", "better": "higher"},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pair, p50=None, frac=None, attempted=24, failed=0, **extra):
    metrics = {}
    if p50 is not None:
        metrics["op_p50_s"] = {"value": p50, "unit": "s"}
    if frac is not None:
        metrics["verified_frac"] = {"value": frac, "unit": "frac"}
    run = {"side": side, "pair": pair, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {**run, **extra}


def test_order_alternates(tool):
    assert [tool.order(i) for i in range(3)] == [
        ("base", "change"),
        ("change", "base"),
        ("base", "change"),
    ]


def test_summary_of_ten_pairs(tool):
    base = [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37, 0.38, 0.39]
    change = [0.25, 0.26, 0.27, 0.28, 0.29, 0.30, 0.31, 0.32, 0.33, 0.40]
    runs = [_run("base", i, b, 1.0) for i, b in enumerate(base)]
    runs += [_run("change", i, c, 1.0 if i else 0.9) for i, c in enumerate(change)]
    s = tool.summarize(runs, METRICS)
    p50 = s["metrics"]["op_p50_s"]
    assert p50["base"]["median"] == pytest.approx(0.345)
    assert p50["base"]["q1"] == pytest.approx(0.3225)
    assert p50["base"]["q3"] == pytest.approx(0.3675)
    assert p50["change"]["median"] == pytest.approx(0.295) and p50["change"]["n"] == 10
    # the last pair is lost, and a lower value is the better one
    assert (p50["wins"], p50["pairs"]) == (9, 10)
    assert p50["gap"] == pytest.approx(0.05)
    assert p50["base_iqr"] == pytest.approx(0.045)
    # no bound given, no verdict
    assert p50["verdict"] is None
    frac = s["metrics"]["verified_frac"]
    # equal values win for neither side; higher is better here
    assert frac["wins"] == 0 and str(frac["gap"]) == "0.0"
    clean = {"runs": 10, "no_result": 0, "incorrect": 0, "attempted": 240, "failed": 0}
    assert s["ops"] == {"base": clean, "change": clean}
    lines = tool.format_summary(s)
    assert "wins 9/10" in lines[0]
    assert lines[-1] == (
        "change: 0 of 240 operations failed; of 10 runs 0 gave no result and 0 were not correct"
    )


def test_summary_with_a_failed_run(tool):
    runs = [
        _run("base", 0, 0.5, 1.0, failed=1, returncode=0, correct=True),
        _run("change", 0, 0.4, 1.0, returncode=0, correct=False),  # a wrong result
        _run("base", 1, 0.5, 1.0, returncode=0, correct=True),
        _run("change", 1, attempted=0, returncode=0),  # exit 0 but no metrics
        _run("base", 2, 0.5, 1.0, returncode=1, correct=True),  # metrics, then a crash
        _run("change", 2, attempted=0, returncode=-9),  # killed before any result
    ]
    s = tool.summarize(runs, METRICS)
    p50 = s["metrics"]["op_p50_s"]
    assert (p50["wins"], p50["pairs"]) == (1, 3)
    assert p50["change"] == {"median": 0.4, "q1": 0.4, "q3": 0.4, "n": 1}
    assert s["ops"]["base"] == {"runs": 3, "no_result": 1, "incorrect": 0, "attempted": 72, "failed": 1}
    assert s["ops"]["change"] == {"runs": 3, "no_result": 2, "incorrect": 1, "attempted": 24, "failed": 0}
    lines = tool.format_summary(s)
    assert lines[-2] == (
        "base: 1 of 72 operations failed; of 3 runs 1 gave no result and 0 were not correct"
    )
    assert lines[-1] == (
        "change: 0 of 24 operations failed; of 3 runs 2 gave no result and 1 were not correct"
    )
    empty = tool.summarize([_run("base", 0), _run("change", 0)], METRICS)
    assert empty["metrics"]["op_p50_s"]["base"] is None
    assert empty["metrics"]["op_p50_s"]["gap"] is None
    assert "base -" in tool.format_summary(empty)[0]


def _verdict(tool, base, change, better="lower"):
    """The verdict on op_p50_s for runs with these values, under a 0.25 bound."""
    runs = [_run("base", i, b) for i, b in enumerate(base)]
    runs += [_run("change", i, c) for i, c in enumerate(change)]
    s = tool.summarize(runs, [{"name": "op_p50_s", "better": better, "bound": 0.25}])
    verdict = s["metrics"]["op_p50_s"]["verdict"]
    assert tool.format_summary(s)[0].endswith("  " + verdict)
    return verdict


def test_verdict_against_the_bound(tool):
    tight = [1.0] * 5
    # the bound is relative to the base median: 1.26 is worse, 1.24 within
    assert _verdict(tool, tight, [1.26] * 5) == "worse"
    assert _verdict(tool, tight, [1.24] * 5) == "within bound"
    assert _verdict(tool, tight, [0.74] * 5, better="higher") == "worse"
    assert _verdict(tool, tight, [0.76, 1.3, 0.8, 0.9, 1.2], better="higher") == "within bound"
    # base IQR 1.0 over a median of 2.0 exceeds the bound: no verdict of
    # "within bound" unless every change run beats every base run
    wide = [1.0, 1.5, 2.0, 2.5, 3.0]
    assert _verdict(tool, wide, [1.9] * 5) == "unresolved"
    assert _verdict(tool, wide, [2.4] * 5) == "unresolved"
    assert _verdict(tool, wide, [0.9] * 5) == "within bound"
    assert _verdict(tool, wide, [3.1] * 5, better="higher") == "within bound"
    assert _verdict(tool, wide, [2.6] * 5) == "worse"


def test_machine_block_names_the_blas_threads(tool, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    block = tool.machine()
    assert block["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert block["blas_env"]["OMP_NUM_THREADS"] is None
    assert set(block["blas_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert block["numpy"] and block["python"]
    assert block["affinity_cpus"] is None or 1 <= block["affinity_cpus"] <= block["cpus"]


def test_each_set_keeps_its_own_machine_block(tool, tmp_path):
    out = tmp_path / "bench.json"
    # a file written before the block moved into the sets keeps its old one
    out.write_text('{"machine": {"cpus": 2}, "sets": [{"workload": "old"}]}')
    tool.append_set(out, {"workload": "a", "machine": {"cpus": 4}})
    tool.append_set(out, {"workload": "b", "machine": {"cpus": 8}})
    data = json.loads(out.read_text())
    assert data["machine"] == {"cpus": 2}
    assert [s["workload"] for s in data["sets"]] == ["old", "a", "b"]
    assert [s.get("machine") for s in data["sets"]] == [None, {"cpus": 4}, {"cpus": 8}]
    fresh = tmp_path / "new.json"
    tool.append_set(fresh, {"workload": "c", "machine": {"cpus": 1}})
    assert json.loads(fresh.read_text()) == {"sets": [{"workload": "c", "machine": {"cpus": 1}}]}


def test_commit_is_null_outside_a_git_work_tree(tool, tmp_path):
    assert tool.head_commit(tmp_path) is None
    # a plain tree inside another repo's work tree has no commit of its own
    repo, plain = tmp_path / "repo", tmp_path / "repo" / "plain"
    plain.mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "c"], check=True)
    assert tool.head_commit(repo) is not None
    assert tool.head_commit(plain) is None


def _src_tree(root):
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "a.py").write_bytes(b"x = 1\n")
    (root / "src" / "pkg" / "b.py").write_bytes(b"y = 2\n")
    (root / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"cache")
    return root


def test_src_hash_names_the_code_outside_git(tool, tmp_path):
    # a tree that is not a git work tree has no commit but a hash of its src/
    tree = _src_tree(tmp_path / "tree")
    assert tool.head_commit(tree) is None
    digest = tool.src_sha256(tree)
    assert isinstance(digest, str) and len(digest) == 64
    # a copy hashes the same; bytecode caches do not count
    copy = _src_tree(tmp_path / "copy")
    (copy / "src" / "pkg" / "__pycache__" / "b.cpython-311.pyc").write_bytes(b"other")
    assert tool.src_sha256(copy) == digest
    # one changed byte, or a renamed file, changes it
    (copy / "src" / "pkg" / "b.py").write_bytes(b"y = 3\n")
    assert tool.src_sha256(copy) != digest
    (copy / "src" / "pkg" / "b.py").write_bytes(b"y = 2\n")
    assert tool.src_sha256(copy) == digest
    (copy / "src" / "pkg" / "b.py").rename(copy / "src" / "pkg" / "c.py")
    assert tool.src_sha256(copy) != digest
    assert tool.src_sha256(tmp_path) is None
