import json
import os
import random

import pytest

from zeckvec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq(capsys):
    code, out, _ = run(capsys, "seq", "--c", "2,1,1", "--from", "1", "--to", "6")
    assert code == 0
    assert out.splitlines() == ["1", "3", "8", "20", "51", "130"]


def test_vec(capsys):
    code, out, _ = run(capsys, "vec", "--c", "2,1,1", "--from", "-9", "--to", "-8")
    assert code == 0
    assert out.splitlines() == ["(-38,-7)", "(9,16)"]


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--c", "2,1,1", "--v", "-2,1")
    assert code == 0
    assert out.strip() == "0,2,1"


def test_decompose_large_vector(capsys):
    from zeckvec import RecurrenceVector, evaluate
    rng = random.Random(2400)
    v = tuple(rng.randrange(10 ** 2399, 10 ** 2400) for _ in range(2))
    code, out, _ = run(capsys, "decompose", "--c", "1,1,1", "--v", "%d,%d" % v)
    assert code == 0
    a = tuple(int(x) for x in out.strip().split(","))
    assert evaluate(RecurrenceVector((1, 1, 1)), a) == v


def test_decompose_zero_prints_empty(capsys):
    code, out, _ = run(capsys, "decompose", "--c", "2,1,1", "--v", "0,0")
    assert code == 0
    assert out == "\n"


def test_decompose_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, "decompose", "--c", "2,1,1", "--v", "-4,0",
                       "--trace", str(path))
    assert code == 0
    assert out.strip() == "1,0,0,1,1,1"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records, "trace should not be empty"
    assert set(records[0]) == {"op", "pos", "string", "G", "count"}
    assert records[-1]["string"] == "1,0,0,1,1,1"


def test_verify_satisfying(capsys):
    code, out, _ = run(capsys, "verify", "--c", "4,2,1", "--a", "2,4,2,0,1")
    assert code == 0
    assert "kind: SR" in out
    assert "value:" in out


def test_verify_rejects_oversized_element(capsys):
    # not satisfying because the 3 exceeds its slot; decrementing position 2
    # restores a satisfying string, so the classification is NSR
    code, out, _ = run(capsys, "verify", "--c", "4,2,1", "--a", "2,4,3")
    assert code == 0
    assert "kind: NSR" in out
    assert "too large" in out


def test_verify_other(capsys):
    code, out, _ = run(capsys, "verify", "--c", "2,1,1", "--a", "2,1,3")
    assert code == 0
    assert "kind: Other" in out


def test_verify_nearly_satisfying(capsys):
    code, out, _ = run(capsys, "verify", "--c", "2,1,1", "--a", "2,1,1")
    assert code == 0
    assert "kind: NSR" in out
    assert "end_complete: true" in out


def test_verify_relaxed_flag(capsys):
    code, _, err = run(capsys, "verify", "--c", "1,3,1", "--a", "2")
    assert code == 1
    code, out, _ = run(capsys, "verify", "--c", "1,3,1", "--relaxed", "--a", "2")
    assert code == 0
    assert "kind: NSR" in out


def test_regions_outputs_are_deterministic(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    svg1 = tmp_path / "a.svg"
    csv2 = tmp_path / "b.csv"
    svg2 = tmp_path / "b.svg"
    assert run(capsys, "regions", "--c", "2,1,1", "--n", "5",
               "--csv", str(csv1), "--svg", str(svg1))[0] == 0
    assert run(capsys, "regions", "--c", "2,1,1", "--n", "5",
               "--csv", str(csv2), "--svg", str(svg2))[0] == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_regions_svg_notice_for_higher_dimension(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    svg = tmp_path / "c.svg"
    code, _, err = run(capsys, "regions", "--c", "1,1,1,1", "--n", "4",
                       "--csv", str(csv), "--svg", str(svg))
    assert code == 0
    assert csv.exists()
    assert not svg.exists()
    assert "planar" in err


def test_stats_json_reproducible(tmp_path, capsys):
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    args = ["stats", "--c", "1,1", "--n-min", "8", "--n-max", "12",
            "--sample", "500", "--seed", "42"]
    assert run(capsys, *args, "--json", str(p1))[0] == 0
    assert run(capsys, *args, "--json", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    records = json.loads(p1.read_text())
    assert len(records) == 5
    assert records[0]["mode"] == "sampled"


def test_stats_exact_with_series(tmp_path, capsys):
    series = tmp_path / "series.csv"
    code, out, _ = run(capsys, "stats", "--c", "2,1,1", "--n-min", "4",
                       "--n-max", "8", "--csv", str(series))
    assert code == 0
    assert "mean fit:" in out
    assert series.read_text().splitlines()[0] == "n,mean,variance"


def test_minimality_report(capsys):
    code, out, _ = run(capsys, "minimality", "--c", "2,1,1", "--n", "2", "--bound", "5")
    assert code == 0
    assert out.strip().splitlines()[-1] == "summary: 8/8 minimal"


def test_probe_budget_exceeded_is_success(capsys):
    code, out, _ = run(capsys, "probe", "--c", "1,3,1", "--a", "2", "--budget", "10000")
    assert code == 0
    assert "outcome: budget_exceeded" in out
    assert "intermediate_1: 1,1,3,1" in out
    assert "intermediate_2: 1,1,1,3,6,2" in out
    assert "intermediate_3: 1,2,0,0,5,2" in out


def test_probe_terminating(capsys):
    code, out, _ = run(capsys, "probe", "--c", "1,2,1", "--a", "2")
    assert code == 0
    assert "outcome: terminated" in out
    assert "final: 1,2,0,0,1,1" in out


def test_cover(capsys):
    code, out, _ = run(capsys, "cover", "--c", "2,1,1", "--r", "1")
    assert code == 0
    assert out.strip() == "4"


def test_invalid_recurrence_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "--c", "1,3,1", "--v", "1,1")
    assert code == 1
    assert "weakly decreasing" in err


def test_invalid_argv_exit_code(capsys):
    assert run(capsys, "seq", "--c", "2,1,1", "--from", "5", "--to", "1")[0] == 1


def test_cap_exceeded_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ZECKVEC_CAP", "10")
    code, _, err = run(capsys, "regions", "--c", "2,1,1", "--n", "8", "--csv", "unused.csv")
    assert code == 2
    assert not os.path.exists("unused.csv")
