"""``tools/trajectory.py``: one run of one input, its figures' schema, and
the refusal of a report whose digest differs from the known one."""
import hashlib
import json
import pathlib
import subprocess
import sys

from test_golden_records import _curvature_text

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "trajectory.py"


def _trajectory(tmp_path, digest: str):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"photon": digest}))
    out = tmp_path / "bench.json"
    p = subprocess.run([sys.executable, str(TOOL), "--out", str(out),
                        "--runs", "1", "--input", "curvature ansatz=photon",
                        "--golden", str(golden)],
                       capture_output=True, text=True, timeout=60)
    return p, out


def test_one_run_gives_quartiles_and_another_digest_is_refused(tmp_path):
    digest = hashlib.sha256(_curvature_text("photon", ()).encode())
    p, out = _trajectory(tmp_path, digest.hexdigest())
    assert p.returncode == 0, p.stderr
    rep = json.loads(out.read_text())
    assert rep["runs"] == 1 and rep["inputs"] == ["curvature ansatz=photon"]
    assert set(rep["commits"]) == set(rep["results"]) == {"change"}
    assert len(rep["commits"]["change"]["src_kk6_sha256"]) == 64
    figures = rep["results"]["change"]["curvature ansatz=photon"]
    assert {"wall_s", "wall_ref_s", "peak_rss_mb", "timing.seconds",
            *(f"timing.stages.{s}" for s in ("inverse", "ricci",
                                              "ricci_scalar", "einstein"))
            } == set(figures)
    for row in figures.values():
        assert set(row) == {"unit", "runs", "median", "q1", "q3"}
        assert len(row["runs"]) == 1
        assert row["q1"] == row["median"] == row["q3"] == row["runs"][0]
    assert figures["peak_rss_mb"]["median"] > 0
    out.unlink()
    p, out = _trajectory(tmp_path, "0" * 64)
    assert p.returncode == 1
    assert p.stderr.startswith("error[refused]: ")
    assert not out.exists()
