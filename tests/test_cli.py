import argparse
import contextlib
import errno
import hashlib
import json
import os
import random
import sys
import tracemalloc

import pytest

from zeckvec import RecurrenceVector, cli, support_region
from zeckvec.cli import main
from zeckvec.fileio import atomic_write_text


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


def digit_limit():
    """The interpreter's int <-> str digit limit, None where there is none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


@contextlib.contextmanager
def no_digit_limit():
    saved = digit_limit()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_seq_prints_terms_past_the_digit_limit(capsys):
    # X_21000 of (1,1) has 4389 digits, past CPython's default limit of 4300
    from zeckvec.recurrence import scalar_window
    code, out, _ = run(capsys, "seq", "--c", "1,1", "--from", "21000", "--to", "21000")
    assert code == 0
    with no_digit_limit():
        assert out == "%d\n" % scalar_window((1, 1), 21000, 1)[0]


def test_decompose_reads_coordinates_past_the_digit_limit(capsys):
    from zeckvec import RecurrenceVector, evaluate
    rng = random.Random(4400)
    text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(4399))
    code, out, _ = run(capsys, "decompose", "--c", "1,1,1", "--v", text + ",-1")
    assert code == 0
    a = tuple(int(x) for x in out.strip().split(","))
    with no_digit_limit():
        v = (int(text), -1)
    assert evaluate(RecurrenceVector((1, 1, 1)), a) == v


@pytest.mark.parametrize("argv,expected", [
    (("seq", "--c", "1,1", "--from", "1", "--to", "2"), 0),
    (("seq", "--c", "2,1,1", "--from", "5", "--to", "1"), 1),
    # a far window beyond the cap: CapExceededError, not a failed conversion
    (("regions", "--c", "1,1,1", "--n", "80000"), 2),
])
def test_main_leaves_the_digit_limit_as_it_was(capsys, argv, expected):
    before = digit_limit()
    code, _, err = run(capsys, *argv)
    assert code == expected, err
    assert digit_limit() == before


@pytest.mark.parametrize("entry", [None, 640, 5000, 0])
def test_a_command_runs_under_the_digit_limit_main_was_called_with(capsys, monkeypatch, entry):
    # a handler in place of seq's reads the limit while the command runs
    seen = []

    def handler(c, args):
        seen.append(digit_limit())
        return 0

    help_text, _, mode, extra = cli._COMMANDS["seq"]
    monkeypatch.setitem(cli._COMMANDS, "seq", (help_text, handler, mode, extra))
    saved = digit_limit()
    if entry is not None and saved is not None:
        sys.set_int_max_str_digits(entry)
    try:
        before = digit_limit()
        code, _, _ = run(capsys, "seq", "--c", "1,1", "--from", "1", "--to", "1")
        assert (code, seen, digit_limit()) == (0, [before], before)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_a_refusal_names_a_number_past_the_digit_limit_by_its_bits(capsys):
    # |D_80000| = X_80001 of (1,1,1) has 21,173 digits; the refusal names it
    # by its bit length instead of writing them all
    code, out, err = run(capsys, "regions", "--c", "1,1,1", "--n", "80000")
    assert (code, out, err) == (2, "", "error: region of at least 2^70331 points exceeds cap\n")


@pytest.mark.parametrize("c,want", [
    ("1," + "9" * 5000, "ck must equal 1, got at least 2^16609"),
    ("-" + "9" * 5000 + ",1", "c1 must be positive, got at most -2^16609"),
    ("-" + "9" * 50 + ",1", "c1 must be positive, got -" + "9" * 50),
    ("1,-" + "9" * 5000 + ",1",
     "all coefficients must be nonnegative: (1, at most -2^16609, 1)"),
    ("1," + "9" * 5000 + ",1", "strict mode requires weakly decreasing coefficients; "
     "construct with relaxed=True for probe use: (1, at least 2^16609, 1)"),
    ("1,2,1", "strict mode requires weakly decreasing coefficients; "
     "construct with relaxed=True for probe use: (1, 2, 1)"),
])
def test_a_recurrence_refusal_names_a_coefficient_past_the_digit_limit_by_its_bits(capsys, c, want):
    # 10^5000 - 1 has 16,610 bits; the refusal keeps its typed text
    code, out, err = run(capsys, "seq", "--c=" + c, "--from", "1", "--to", "1")
    assert (code, out, err) == (1, "", "error: %s\n" % want)


def test_verify_prints_an_element_past_the_digit_limit(capsys):
    # the string 7...7 of 5000 digits is X_{-1} = e_1 taken 7...7 times
    text = "7" * 5000
    code, out, _ = run(capsys, "verify", "--c", "2,1,1", "--a", text)
    assert (code, out) == (0, "kind: Other\nvalue: %s,0\n"
                              "reason: element %s at position 1 is too large (limit 2)\n"
                           % (text, text))


def test_probe_writes_a_trace_past_the_digit_limit(tmp_path, capsys):
    # with c1 = 10^4400 - 1, resolving the string (c1 + 1) writes masses
    # and digits of 4400 digits to the trace
    c1, path = "9" * 4400, tmp_path / "t.jsonl"
    code, out, _ = run(capsys, "probe", "--c", c1 + ",1", "--a", "1" + "0" * 4400,
                       "--trace", str(path))
    assert (code, out.splitlines()[:2]) == (0, ["outcome: terminated", "steps: 2"])
    with no_digit_limit():
        steps = [json.loads(line) for line in path.read_text().splitlines()]
        assert [step["G"] for step in steps] == \
            [sum(map(int, step["string"].split(","))) for step in steps]
    assert [(step["op"], step["G"] > 10 ** 4399) for step in steps] == \
        [("borrow", True), ("carry", True)]


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


# sha256 of stdout and of the --trace file; the second run has 3867 unit
# steps in 1028 entries, so it covers thinning and collapsed borrow runs
TRACE_RUN_HASHES = {
    ("decompose", "--c", "2,1,1", "--v", "-4,0"):
        ("bb303f086777c751d485ac520b4b5509638881b866a1e94cddf1dcd8ed8c0901",
         "2a83e77ec977f910ee46a2b9ab431defd96d25215967cba9e18bbe4417a199fe"),
    ("decompose", "--c", "1,1,1", "--v", "700,-650"):
        ("fc4dfd49e8d4543068f3ea59bd09801e9bf5349153af2f94870f9859da70504d",
         "070a26ce98e77f824cbcbbe23040cecfb805336f1c1fa14f5d6b8eb5c4eeff5a"),
    ("probe", "--c", "1,3,1", "--a", "2", "--budget", "10000"):
        ("3a83b75b9c1160046f40110e810d1a7d3844729a977e1cc0bfd8613ab817b0e5",
         "a16b24c242ce9159259bda853e657aa146f1a7c98467eb7df1471ec56efa17d8"),
    ("probe", "--c", "1,4,2,1", "--a", "2", "--budget", "1000"):
        ("029f722e15afd6258cc1c63e562d2b4b38295c00e053e1616f1e2a05b18ecc88",
         "2bccd7a0059b8109ee9dd15092a58d2b654e6761d0906ce0e5a4bc17ab457244"),
}


@pytest.mark.parametrize("argv", sorted(TRACE_RUN_HASHES))
def test_trace_outputs_are_pinned(tmp_path, capsys, argv):
    path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, *argv, "--trace", str(path))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest()) == TRACE_RUN_HASHES[argv]


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


@pytest.mark.parametrize("argv, message", [
    (("verify", "--c", "2,1,1", "--a", "1,-1"), "coefficient strings are nonnegative: (1, -1)"),
    (("verify", "--c", "2,1,1", "--a", "1,x"), "invalid literal for int() with base 10: 'x'"),
    (("probe", "--c", "1,3,1", "--a", "2,y"), "invalid literal for int() with base 10: 'y'"),
])
def test_an_invalid_string_is_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", "error: %s\n" % message)


def test_verify_validates_the_string_once(capsys, monkeypatch):
    # parse_coefficients checks the string; classification and evaluation
    # take its canonical tuple
    from zeckvec import representation
    calls = []
    check = representation.canonical
    monkeypatch.setattr(representation, "canonical", lambda a: calls.append(a) or check(a))
    for a in ("2,4,2,0,1", "2,4,3", "0,0"):
        calls.clear()
        assert run(capsys, "verify", "--c", "4,2,1", "--a", a)[0] == 0
        assert len(calls) == 1


def test_verify_scans_the_string_from_position_1_once(capsys, monkeypatch):
    # the reason line resumes the classification's scan at its last chunk
    # start; each string fails in a chunk after the first
    from zeckvec import representation
    scans = []
    scan_from = representation._scan_from

    def counted(coeffs, k, b, starts, p):
        if p == 1 and tuple(b) == a:
            scans.append(p)
        return scan_from(coeffs, k, b, starts, p)

    monkeypatch.setattr(representation, "_scan_from", counted)
    for coeffs, a in [("4,2,1", (2, 4, 3)), ("2,1,1", (0, 2, 2)),
                      ("3,3,2,1", (1, 3, 3, 2, 1, 0, 2)), ("2,1,1", (0, 2, 1, 3))]:
        scans.clear()
        argv = ("verify", "--c", coeffs, "--a", ",".join(map(str, a)))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "reason: " in out
        assert len(scans) == 1, argv


def test_verify_relaxed_flag(capsys):
    code, _, err = run(capsys, "verify", "--c", "1,3,1", "--a", "2")
    assert code == 1
    code, out, _ = run(capsys, "verify", "--c", "1,3,1", "--relaxed", "--a", "2")
    assert code == 0
    assert "kind: NSR" in out


# sha256 of the stdout of `verify`: satisfying, other, both reason lines,
# trailing zeros in the input, and a relaxed witness before the failing chunk
VERIFY_STDOUT_HASHES = {
    ("verify", "--c", "4,2,1", "--a", "2,4,2,0,1"):
        "d225e63b9f16aa3505acd0d7d3db83952c438711b0f18be0afb64c4b7ef963d7",
    ("verify", "--c", "4,2,1", "--a", "2,4,3"):
        "928fc8e082a3cecdcf14039aa35798002d435e0255ad456ed350d503535a4661",
    ("verify", "--c", "2,1,1", "--a", "2,1,3"):
        "e1d49757afd1956f9780faf08afbd62fef2e80a65f46853d78b71bdef7f4a37a",
    ("verify", "--c", "2,1,1", "--a", "2,1,1"):
        "5b9ec99c30d0d602804b1cf08e4ccca3d6e7c0445226fb9062ca4e37018d0421",
    ("verify", "--c", "2,1,1", "--a", "0,2,2,0,0"):
        "13344b3da9fde1a1fefb502aefc54d545a0fe8bd00aa05433d58a4e79a7ebe94",
    ("verify", "--c", "3,3,2,1", "--a", "1,3,3,2,1,0,2"):
        "7de6d7520721b1d8401b0d50720e8dc3218cf24fced2d9c0337f7f3e27a8a2f4",
    ("verify", "--c", "1,3,1", "--relaxed", "--a", "1,1,2"):
        "9cf3e8db532aa783631f1eddb50373f0b1bc5d67f29636980cc9e8320136d142",
    ("verify", "--c", "1,0,1", "--relaxed", "--a", "1,0,1,1"):
        "d78ce47eadd5b7c5a102d4fb88126e7ab24d2747d4fa4bc3a02a35fe1afd3047",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_STDOUT_HASHES))
def test_verify_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_HASHES[argv]


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


# sha256 of the files `regions --csv --svg` writes; svg is None where k != 3
REGION_FILE_HASHES = {
    ("2,1,1", 8): ("de0fb373f263c8096bb8fbb096db8638e3226c476743dd040553254a5733f330",
                   "899d81e9d13a4f4e68214e2fcf13fd481f85b34f0845e7c6f052954d57c34ce0"),
    ("1,1,1", 9): ("ee1179d57a69c7403010e3ef5d1a5365028ddc1c3165bfe1259ec3d848bd0641",
                   "3eeaf67889fc58260fad3b0db1392f0123c2f182e664cabe5bb27993d434dd4e"),
    ("4,2,1", 5): ("1d9a01ee22c5442045348635c70e116af106a1b48cfd6dfd3fd60d1fd4c8bdc6",
                   "a4dd7bf22298f9548c72aa56cc30502901962505e28db636b3eee2820e136bee"),
    ("1,1,1,1", 8): ("7a178cc7c213fde1afc183f5193c8f2171a701ad29007c6244dcbed9440e57f4",
                     None),
}


@pytest.mark.parametrize("c,n", sorted(REGION_FILE_HASHES))
def test_regions_files_are_pinned(tmp_path, capsys, c, n):
    csv = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    assert run(capsys, "regions", "--c", c, "--n", str(n),
               "--csv", str(csv), "--svg", str(svg))[0] == 0
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    svg_digest = hashlib.sha256(svg.read_bytes()).hexdigest() if svg.exists() else None
    assert (digest, svg_digest) == REGION_FILE_HASHES[c, n]


# sha256 of the stdout of `cover --r 0`, ..., `cover --r 4`, one run after another
COVER_STDOUT_HASHES = {
    "2,1,1": "00484a688c08cc54d56ad766fcfa3e1cbfb809ad1819da10cc57bbf17ffabc66",
    "1,1,1": "82f250707f25c5b5d04ca123a28db4fef8a63c951ca2a9602b4b29a75fef0b4d",
    "4,2,1": "96eef36a900dbb6947b6bc12c896cc98b67c5e72c95e9c4f7ed5f59bdefdfe8e",
    "1,1,1,1": "a8613d46e75b93706bada72a91dfe5f86b7182725eacea745adf4d28d7d1910c",
}


@pytest.mark.parametrize("c", sorted(COVER_STDOUT_HASHES))
def test_cover_stdout_is_pinned(capsys, c):
    out = ""
    for r in range(5):
        code, text, _ = run(capsys, "cover", "--c", c, "--r", str(r))
        assert code == 0
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == COVER_STDOUT_HASHES[c]


# sha256 of the stdout of `minimality --n N`: the region's vectors in lex
# order, each with its string's mass and the oracle's minimum
MINIMALITY_STDOUT_HASHES = {
    "2,1,1": (5, "554cb3073b324c5fca8d6dcf596c1195bcf5e37b725a2b27004beb1dc35449f5"),
    "1,1,1": (7, "8768574e5eab2a9ccd35b186c6e8c67cb67f1096f79b5f75b3ffa600edb317fa"),
    "4,2,1": (3, "fc30b5373b132292f150ed347a98caddcfe5c90dcbd52578606dac257fe04f41"),
    "3,2,1": (3, "a0dcc597bb7e94cf4eb0b0bc1157e76905d4f925f9918cf7db111bab219ed2ab"),
    "1,1,1,1": (7, "df9916df6b2e53f580dbb68e3c96e26f8809bda176c8bc3e414ef2fe93290b0a"),
}


@pytest.mark.parametrize("c", sorted(MINIMALITY_STDOUT_HASHES))
def test_minimality_stdout_is_pinned(capsys, c):
    n, digest = MINIMALITY_STDOUT_HASHES[c]
    code, out, _ = run(capsys, "minimality", "--c", c, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_minimality_prints_the_lines_before_an_unreachable_vector(capsys):
    # support bound 1 reaches only multiples of X_-1: the second vector of
    # D_2 raises after the first vector's line, as its own search does
    code, out, err = run(capsys, "minimality", "--c", "2,1,1", "--n", "2", "--bound", "1")
    assert code == 2
    assert out == "v=(0,0) sr_count=0 oracle_min=0 minimal=true\n"
    assert err == "error: no representation with support <= 1 found within 1 summands\n"


def test_regions_svg_notice_for_higher_dimension(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    svg = tmp_path / "c.svg"
    code, _, err = run(capsys, "regions", "--c", "1,1,1,1", "--n", "4",
                       "--csv", str(csv), "--svg", str(svg))
    assert code == 0
    assert csv.exists()
    assert not svg.exists()
    assert "planar" in err


@pytest.mark.parametrize("c, files, builds", [
    ("2,1,1", ("--csv", "--svg"), 1), ("2,1,1", ("--svg",), 1), ("2,1,1", (), 0),
    ("1,1,1,1", ("--csv", "--svg"), 0), ("1,1,1,1", ("--svg",), 0),
    ("2,1,1", ("--csv",), 0), ("1,1", ("--csv",), 0),
])
def test_regions_builds_one_region_per_command(tmp_path, capsys, monkeypatch, c, files, builds):
    # the csv comes from the walk and the point count is X_{n+1}; only the
    # svg builds a region, and a lone svg that is skipped (k != 3) builds none
    from zeckvec import bridge
    calls = []
    build = bridge.support_region
    monkeypatch.setattr(bridge, "support_region", lambda *a, **kw: calls.append(a) or build(*a, **kw))
    argv = ["regions", "--c", c, "--n", "4"]
    for flag in files:
        argv += [flag, str(tmp_path / ("r" + flag[1:].replace("-", ".")))]
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == builds


@pytest.mark.parametrize("c, n", [("1,1", 0), ("1,1", 9), ("2,1,1", 6), ("1,1,1", 8),
                                  ("4,2,1", 4), ("3,3,2,1", 3), ("1,1,1,1", 7)])
def test_bare_regions_prints_the_size_of_the_region(capsys, c, n):
    code, out, _ = run(capsys, "regions", "--c", c, "--n", str(n))
    region = support_region(RecurrenceVector(tuple(map(int, c.split(",")))), n)
    assert (code, out) == (0, "points: %d\n" % len(region))


def test_bare_regions_counts_a_large_region_without_building_it(capsys):
    # D_14 of (2,1,1) has 585,893 points; a dict of them would hold hundreds
    # of MB, the count needs the first 16 terms
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "regions", "--c", "2,1,1", "--n", "14")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "points: 585893\n")
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("argv, env, expected", [
    (("--n", "-1"), None, (1, "error: support bound must be >= 0\n")),
    (("--n", "12"), "90327", (2, "error: region of 90328 points exceeds cap\n")),
    (("--n", "12"), "90328", (0, "")),
])
def test_bare_regions_keeps_the_refusals_of_the_region(capsys, monkeypatch, argv, env, expected):
    if env is not None:
        monkeypatch.setenv("ZECKVEC_CAP", env)
    code, out, err = run(capsys, "regions", "--c", "2,1,1", *argv)
    assert (code, err) == expected
    assert out == ("points: 90328\n" if code == 0 else "")


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


# sha256 of stdout, the --json file and the --csv file of exact `stats` runs
EXACT_STATS_HASHES = {
    ("stats", "--c", "2,1,1", "--n-min", "3", "--n-max", "12"):
        ("cea6fe7cd4393f3c3043f1a8d0007c2cb8afd3cb64c453ab78f10b5883838e23",
         "a8f55bc240b802e731ce79a7acdf548d2841207836e27c945aca65fa4a8f9444",
         "975e2db393b78050da1e856a1dfee83965083c38d6ce37e9c72394315c946362"),
    ("stats", "--c", "1,1", "--n-min", "5", "--n-max", "24"):
        ("2807b26836467e030937b70bcbf70a42e5e5414ada1b1278406ef69b70dba5cf",
         "4ef3f0927e13de400b7d2647f5c737bb812fb6980ce21dfcaa918b0613b1e778",
         "49bfb4e88afb1b2f9bc14bcd39c56ad747b447272c3c80a9ac89ecaf0341dcaa"),
    ("stats", "--c", "3,3,2,1", "--n-min", "2", "--n-max", "9"):
        ("6ff736f510c6424665260af5fcd43a0c9f73b7845cbc10e2c1813ec3b95fc323",
         "ec1240d46b54f715d142a70e5d330b5d57212989547dcbe66318b0803dcba6cc",
         "7166ea40733d4410d336560af33786863d6738bcbe3ab58a12312b478d16ac87"),
}


@pytest.mark.parametrize("argv", sorted(EXACT_STATS_HASHES))
def test_exact_stats_outputs_are_pinned(tmp_path, monkeypatch, capsys, argv):
    # stdout names the files, so they are written under the same names
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv, "--json", "s.json", "--csv", "s.csv")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest(),
            hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest()) \
        == EXACT_STATS_HASHES[argv]


# sha256 of stdout, the --json file and the --csv file of sampled `stats` runs
SAMPLED_STATS_HASHES = {
    ("stats", "--c", "1,1", "--n-min", "20", "--n-max", "30", "--sample", "300", "--seed", "5"):
        ("3aceb42494c9d8c8fa9881409cb86e75ab5325ce9588eccfd9b881e55695038a",
         "29997098577004a2a48dd43e89a0dc4378d8737035636647eebdce38347ce08d",
         "2a842c42ae96f422073c928914fa5180895ac9d484b4910569d75aea3d269906"),
    ("stats", "--c", "2,1,1", "--n-min", "300", "--n-max", "304", "--sample", "200",
     "--seed", "11"):
        ("72b532408decbd13c7c7832298b52469b7bc1d6e18e4eca0301e061aea408ebd",
         "8ffc7abd011fa9f8a725b156d75122d869071909f53d472c65eda03ff45caaa3",
         "e426cb4bd203298ccea697e7a16d9d9a7c4d764359c3ed49449831ee1dfca659"),
    ("stats", "--c", "4,2,1", "--n-min", "900", "--n-max", "902", "--sample", "100",
     "--seed", "20261017"):
        ("fb302ccda4cb5125453546e728d23854efdf001162c7d1e3848c6594678416c6",
         "437aefaab2a778ba25b483d22dfc5385660ff3783de43302a9e72e31efd4ae8e",
         "6cc36e868969f49a7eb87446305eea30658829544bd2e6c12195de3403d6f432"),
}


@pytest.mark.parametrize("argv", sorted(SAMPLED_STATS_HASHES))
def test_sampled_stats_outputs_are_pinned(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv, "--json", "s.json", "--csv", "s.csv")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest(),
            hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest()) \
        == SAMPLED_STATS_HASHES[argv]


def test_stats_beyond_the_cap_exits_2_after_the_windows_within_it(capsys):
    code, out, err = run(capsys, "stats", "--c", "1,1", "--n-min", "32", "--n-max", "36")
    assert code == 2
    assert [line.split()[0] for line in out.splitlines()] == ["n=32", "n=33"]
    assert err == "error: exact window 34 needs X_35 = 14930352, which exceeds cap 10000000\n"


@pytest.mark.parametrize("size", ["0", "-3"])
def test_stats_sample_size_below_one_is_invalid(capsys, size):
    code, out, err = run(capsys, "stats", "--c", "2,1,1", "--n-min", "3", "--n-max", "4",
                         "--sample", size, "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: sampled mode needs a positive size\n"


def test_minimality_report(capsys):
    code, out, _ = run(capsys, "minimality", "--c", "2,1,1", "--n", "2", "--bound", "5")
    assert code == 0
    assert out.strip().splitlines()[-1] == "summary: 8/8 minimal"


def test_minimality_bound_zero_is_invalid(capsys):
    code, out, err = run(capsys, "minimality", "--c", "2,1,1", "--n", "2", "--bound", "0")
    assert code == 1
    assert out == ""
    assert err == "error: support bound must be >= 1\n"


def test_minimality_negative_bound_is_invalid(capsys):
    code, out, err = run(capsys, "minimality", "--c", "2,1,1", "--n", "2", "--bound", "-3")
    assert code == 1
    assert out == ""
    assert err == "error: support bound must be >= 1\n"


def test_probe_budget_exceeded_is_success(capsys):
    code, out, _ = run(capsys, "probe", "--c", "1,3,1", "--a", "2", "--budget", "10000")
    assert code == 0
    assert "outcome: budget_exceeded" in out
    assert "intermediate_1: 1,1,3,1" in out
    assert "intermediate_2: 1,1,1,3,6,2" in out
    assert "intermediate_3: 1,2,0,0,5,2" in out


def test_probe_negative_budget_is_invalid(capsys):
    code, out, err = run(capsys, "probe", "--c", "1,3,1", "--a", "2", "--budget", "-5")
    assert code == 1
    assert out == ""
    assert err == "error: budget must be >= 0\n"


def test_probe_terminating(capsys):
    code, out, _ = run(capsys, "probe", "--c", "1,2,1", "--a", "2")
    assert code == 0
    assert "outcome: terminated" in out
    assert "final: 1,2,0,0,1,1" in out


def test_cover(capsys):
    code, out, _ = run(capsys, "cover", "--c", "2,1,1", "--r", "1")
    assert code == 0
    assert out.strip() == "4"


def test_cover_refuses_a_ball_of_more_than_cap_points(capsys):
    code, out, err = run(capsys, "cover", "--c", "2,1,1", "--r", "1000000")
    assert (code, out) == (2, "")
    assert err == "error: ball not covered below the enumeration cap\n"


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


@pytest.mark.parametrize("name,expected", [
    ("ZeckvecError", 1), ("InvalidRecurrenceError", 1), ("NotSatisfyingError", 1),
    ("NotNearlySatisfyingError", 1), ("NotEndCompleteError", 1),
    ("CarryBlockedError", 1), ("BorrowBlockedError", 1), ("BridgeDomainError", 1),
    ("CapExceededError", 2), ("OracleExhaustedError", 2), ("NonTerminationError", 2),
])
def test_error_class_exit_codes(capsys, monkeypatch, name, expected):
    import zeckvec
    from zeckvec import cli

    def fail(c, n):
        raise getattr(zeckvec, name)("raised by the test")

    monkeypatch.setattr(cli, "scalar_term", fail)
    code, out, err = run(capsys, "seq", "--c", "1,1", "--from", "1", "--to", "1")
    assert (code, out, err) == (expected, "", "error: raised by the test\n")


COMMANDS = ["seq", "vec", "decompose", "verify", "regions", "stats", "minimality",
            "probe", "cover"]

# argv whose parse ends in help or in an error: the top level's usage, help
# and errors list every command, a named command's come from its own parser
PARSE_ONLY_ARGV = [(name, "--help") for name in COMMANDS] + [
    ("--help",), (), ("bogus",), ("-h", "stats"), ("stats", "--c", "1,1"),
    ("seq", "--c", "1,1", "--from", "x", "--to", "3"),
    ("seq", "--c", "1,1", "--from", "1", "--to", "3", "--extra"),
    ("decompose",), ("stats", "--n-m", "3", "--c", "1,1", "--n-max", "4"),
]


def outcome(capsys, argv):
    """Exit code (or the SystemExit of --help), stdout and stderr of main."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_ONLY_ARGV, ids=" ".join)
def test_parse_output_is_that_of_the_full_build(capsys, monkeypatch, argv):
    got = outcome(capsys, argv)
    assert got[0] in (("SystemExit", 0), 1)
    full_build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_build())
    assert outcome(capsys, argv) == got


@pytest.mark.parametrize("argv, built", [
    *[((name, "--help"), [name]) for name in COMMANDS],
    (("seq", "--c", "1,1", "--from", "1", "--to", "2"), ["seq"]),
    (("--help",), COMMANDS), ((), COMMANDS), (("bogus",), COMMANDS),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(len(x)))
def test_a_named_command_builds_only_its_parser(capsys, monkeypatch, argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    outcome(capsys, argv)
    assert names == built


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["zeckvec", "seq", "--c", "2,1,1", "--from", "1", "--to", "3"])
    assert main() == 0
    assert capsys.readouterr().out == "1\n3\n8\n"


# argv whose last argument, still missing, is an output file
OUTPUT_ARGV = [
    ("regions", "--c", "1,1", "--n", "3", "--csv"),
    ("regions", "--c", "2,1,1", "--n", "3", "--svg"),
    ("stats", "--c", "1,1", "--n-min", "3", "--n-max", "5", "--json"),
    ("stats", "--c", "2,1,1", "--n-min", "3", "--n-max", "5", "--sample", "8", "--csv"),
    ("decompose", "--c", "2,1,1", "--v", "-4,0", "--trace"),
    ("probe", "--c", "1,3,1", "--a", "2", "--budget", "50", "--trace"),
]


@pytest.mark.parametrize("target", ["directory", "missing parent"])
@pytest.mark.parametrize("argv", OUTPUT_ARGV, ids=" ".join)
def test_an_output_file_that_cannot_be_written_exits_1(tmp_path, capsys, argv, target):
    # one error line and exit 1, no temp file left behind, and what the
    # command printed before the write stays on stdout
    good = tmp_path / "good"
    code, want, _ = run(capsys, *argv, str(good))
    assert code == 0
    if target == "directory":
        bad = tmp_path / "taken"
        bad.mkdir()
    else:
        bad = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 1
    assert out == want.replace("wrote %s\n" % good, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1 and err.endswith("\n")
    # the line names the path given on the command line, not the temp file
    assert err.endswith(": %r\n" % str(bad)) and ".tmp." not in err
    assert [p.name for p in tmp_path.rglob("*") if ".tmp." in p.name] == []


def test_a_failed_atomic_write_names_the_callers_path(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    missing = tmp_path / "missing" / "out"
    for path, kind, code in [(taken, IsADirectoryError, errno.EISDIR),
                             (missing, FileNotFoundError, errno.ENOENT)]:
        with pytest.raises(OSError) as info:
            atomic_write_text(str(path), "text\n")
        assert type(info.value) is kind and info.value.errno == code
        assert info.value.filename == str(path) and info.value.filename2 is None
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]
    atomic_write_text(str(tmp_path / "good"), "text\n")
    assert (tmp_path / "good").read_bytes() == b"text\n"
