import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from theta2 import boxprod, twocat
from theta2.anodyne import lift_check, oury_from_alt, replay, upsilon_vertical
from theta2.cellset import representable
from theta2.cli import main
from theta2.delta import SimplicialOperator
from theta2.grammar import (
    ParseError,
    _parse_values,
    parse_cellular,
    parse_hyperface_label,
    parse_shape,
    parse_shuffle,
)
from theta2.theta import ThetaShape, cellular_ops, hyperfaces, shapes_upto

ROOT = Path(__file__).resolve().parents[1]


def parse_simplicial(text, src=None, dst=None):
    text = text.strip()
    if ":" in text:
        body, arrow = text.split(":", 1)
        m = re.match(r"^\[(\d+)\]->\[(\d+)\]$", arrow.strip())
        if not m:
            raise ParseError(f"bad operator endpoints: {arrow!r}")
        src, dst = int(m.group(1)), int(m.group(2))
    else:
        body = text
    vals = _parse_values(body)
    if dst is None:
        dst = max(vals)
    if src is not None and len(vals) != src + 1:
        raise ParseError(f"operator {text!r} has source [{len(vals) - 1}], expected [{src}]")
    return SimplicialOperator(vals, dst)


# -- grammar round trips -------------------------------------------------------


def test_shape_roundtrip():
    for text in ["[0]", "[1;0]", "[2;0,2]", "[3;1,0,2]"]:
        assert str(parse_shape(text)) == text
    with pytest.raises(ParseError):
        parse_shape("[2;0]")
    with pytest.raises(ParseError):
        parse_shape("[1]")


def test_operator_roundtrip_exhaustive_small():
    for a in shapes_upto(3):
        for b in shapes_upto(3):
            for f in cellular_ops(a, b):
                assert parse_cellular(str(f)) == f


def test_simplicial_parse():
    f = parse_simplicial("{0,2}:[1]->[2]")
    assert f.values == (0, 2) and f.dst == 2
    g = parse_simplicial("{0,2}", dst=3)
    assert g.dst == 3
    with pytest.raises(ParseError):
        parse_simplicial("{}")


def test_shuffle_parse_validates():
    s = parse_shuffle("<{0,0,1,2,2,3},{0,1,1,1,2,2}>")
    assert str(s) == "<{0,0,1,2,2,3},{0,1,1,1,2,2}>"
    with pytest.raises(ParseError):
        parse_shuffle("<{0,0},{0,0}>")


def test_label_roundtrip():
    for qs in [(0, 2), (1, 1), (2,)]:
        s = ThetaShape(qs)
        for lbl, _ in hyperfaces(s):
            assert parse_hyperface_label(str(lbl), s) == lbl


# -- CLI ------------------------------------------------------------------------


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_hyperfaces():
    code, out = run_cli("hyperfaces", "[2;0,2]")
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "dv^{2;1}" in out


def test_cli_shuffles_count_and_dot():
    code, out = run_cli("shuffles", "2", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    code, out = run_cli("--format", "dot", "shuffles", "2", "2")
    assert code == 0
    # the six cover edges of the square-grid shuffle lattice
    assert out.startswith("digraph") and out.count("->") == 6


def test_cli_shuffles_rejects_dot_option(capsys):
    # --format dot prints the Hasse diagram; there is no second spelling
    with pytest.raises(SystemExit) as exc:
        main(["shuffles", "2", "2", "--dot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("hyperfaces", "[1;1]"), ("verify", "spine-anodyne", "--shape", "[1;1]")],
    ids=["hyperfaces", "verify"],
)
def test_cli_dot_format_only_for_shuffles(argv, capsys):
    # only shuffles has a diagram to draw; elsewhere dot used to print an empty line
    assert main(["--format", "dot", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --format dot")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_verify_all_reports_no_bound():
    # no replay that verify all runs takes a truncation bound
    code, out = run_cli("--format", "json", "verify", "all", "--max-dim", "1")
    assert code == 0
    doc = json.loads(out)
    assert "bound" not in doc
    assert doc["shapes"] == 2 and doc["failures"] == []


def test_cli_verify_all_negative_max_dim_replays_nothing(capsys):
    # an empty verification certifies nothing, so it exits 2 as lift does
    assert main(["--format", "json", "verify", "all", "--max-dim", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dimension <= -1" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [("--max-n", "1"), ("--max-q", "-1")],
    ids=["max-n-1", "max-q-negative"],
)
def test_cli_verify_claims_empty_grid_exit_2(argv, capsys):
    assert main(["verify", "claims", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no claim to check")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "[{1,0};!]:[1;0]->[1;0]"),
        ("classify", "[{0,2};!,!]:[1;0]->[1;0]"),
        ("classify", "[{0,1};!]:[1;0]->[1;1]"),
        ("classify", "[{0,1};{0,2}]:[1;1]->[1;1]"),
        ("shuffles", "-1", "2"),
        ("verify", "alt-trivial", "--shape", "[2;1,1]", "--k", "1", "--shuffle", "<{0,0},{0,1}>"),
        ("lambda-s", "[1;2]", "--set", "dv^{7;7}"),
        ("sigma-s", "[1;2]", "--set", "dh^0"),
        ("verify", "sigma-s", "--shape", "[1;2]", "--set", "dv^{1;1}"),
        ("verify", "oury-from-alt", "--shape", "[1;2]", "--set", "dv^{7;7}"),
        ("verify", "alt-trivial", "--shape", "[2;1,1]", "--k", "3", "--shuffle", "<{0,0,1},{0,1,1}>"),
    ],
    ids=[
        "non-monotone-operator",
        "horizontal-out-of-range",
        "bang-into-nonterminal",
        "component-out-of-range",
        "negative-grid",
        "shuffle-of-other-grid",
        "label-out-of-range",
        "label-not-a-hyperface",
        "sigma-s-inner-label",
        "oury-label-out-of-range",
        "alt-trivial-k-out-of-range",
    ],
)
def test_cli_malformed_operator_or_shuffle_exit_2(capsys, argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_cli_classify_json():
    code, out = run_cli(
        "--format", "json", "classify", "[{1,2};{0,1,2}]:[1;2]->[2;0,2]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["face"] and doc["flags"]["outer"]


def test_cli_verify_success_and_failure_paths():
    code, out = run_cli("verify", "spine-anodyne", "--shape", "[1;2]")
    assert code == 0
    assert "status: certified" in out
    code, out = run_cli("verify", "vert-equiv", "--shape", "[1;0]", "--bound", "3")
    assert code == 0


@pytest.mark.parametrize("bound", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "vert-equiv", "--shape", "[2;0,0]", "--k", "1"),
        ("verify", "horiz-equiv", "--shape", "[1;0]"),
    ],
    ids=["vert-equiv", "horiz-equiv"],
)
def test_cli_equiv_bound_below_1_exit_2(argv, bound, capsys):
    assert main([*argv, "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    err = captured.err
    assert err.startswith("error: ") and "bound >= 1" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_verify_claims_small():
    code, out = run_cli(
        "--format", "json", "verify", "claims", "--max-n", "2", "--max-q", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []


def test_cli_lift():
    code, out = run_cli("lift", "--x", "J", "--family", "inner-h", "--bound", "3")
    assert code == 0
    assert "unfilled: 0" in out


@pytest.mark.parametrize(
    "family, bound",
    [("inner", "0"), ("inner", "1"), ("inner", "2"), ("inner-v", "3")],
    ids=["inner-0", "inner-1", "inner-2", "inner-v-3"],
)
def test_cli_lift_without_instances_exit_2(family, bound, capsys):
    # no horn of the family lies below the bound, so the search checks nothing
    assert main(["lift", "--x", "J", "--family", family, "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and family in err and f"bound {bound}" in err
    assert len(err.strip().splitlines()) == 1


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("theta2 ")]


def test_readme_cli_examples(capsys):
    # every example in the README's CLI block runs and exits 0
    lines = _readme_cli_lines()
    assert len(lines) == 15
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_cli_boundary_spine():
    code, out = run_cli("boundary", "[1;1]")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    code, out = run_cli("spine", "[2;0,2]")
    assert code == 0


def test_cli_usage_error():
    code, out = run_cli("classify", "not-an-operator")
    assert code == 2


def test_cli_determinism():
    _, a = run_cli("--format", "json", "hyperfaces", "[2;1,1]")
    _, b = run_cli("--format", "json", "hyperfaces", "[2;1,1]")
    assert a == b


def test_cli_report_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("THETA2_REPORT_DIR", str(tmp_path))
    code, _ = run_cli("hyperfaces", "[1;1]")
    assert code == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["count"] == 2


def test_cli_named_sets_and_equivs():
    code, out = run_cli("sigma-s", "[2;1,1]", "--set", "dv^{1;0}")
    assert code == 0 and out.strip()
    code, out = run_cli("upsilon-s", "[2;1,1]")
    assert code == 0
    code, out = run_cli("lambda-s", "[2;0,2]", "--set", "dv^{2;1}")
    assert code == 0
    code, out = run_cli("equiv-v", "[1;0]", "--k", "1", "--bound", "3")
    assert code == 0
    code, out = run_cli("equiv-h", "[1;0]", "--bound", "3")
    assert code == 0


def test_cli_nerve_builtin_and_file(tmp_path):
    code, out = run_cli("nerve", "free", "--shape", "[1;1]", "--bound", "2")
    assert code == 0
    assert "[1;1]: 5 cells" in out
    from theta2.twocat import chaotic_2cat, format_2cat

    path = tmp_path / "chaotic.2cat"
    path.write_text(format_2cat(chaotic_2cat()))
    code, out = run_cli("nerve", str(path), "--bound", "2")
    assert code == 0
    assert "[1;0]: 4 cells" in out


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read 2-category file"),
        ("onecell f a b\n", "line 1: cannot parse 'onecell f a b'"),
        ("objects a\n", "no table entry for 'a'"),
    ],
    ids=["missing-file", "bad-line", "missing-entry"],
)
@pytest.mark.parametrize("command", ["nerve", "lift"])
def test_cli_bad_2cat_file_exit_2(tmp_path, capsys, text, message, command):
    path = tmp_path / "cat.2cat"
    if text is not None:
        path.write_text(text)
    argv = [str(path)] if command == "nerve" else ["--x", f"nerve:{path}"]
    assert main([command, *argv, "--bound", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _domain_twin(inc):
    return {
        "inclusion": inc.name,
        "generators": [str(c.payload) for c in inc.domain.iter_nd()],
        "nd_count": inc.domain.nd_count(),
    }


def _nerve_twin(cat, bound):
    nv = twocat.nerve(cat, bound)
    return {"levels": [{"shape": str(s), "cells": len(nv.cells(s))} for s in shapes_upto(bound)]}


def _replay_twin(script, qs, texts):
    s = ThetaShape(qs)
    return replay(script(s, {parse_hyperface_label(t, s) for t in texts}))


@pytest.mark.parametrize(
    "argv, twin",
    [
        (
            ("horn", "[2;0,0]", "--family", "h", "--k", "1"),
            lambda: _domain_twin(boxprod.horn_h(ThetaShape((0, 0)), 1)),
        ),
        (
            ("horn", "[2;1,1]", "--family", "h-alt", "--k", "1", "--shuffle", "<{0,0,1},{0,1,1}>"),
            lambda: _domain_twin(
                boxprod.horn_h_alt(ThetaShape((1, 1)), 1, parse_shuffle("<{0,0,1},{0,1,1}>"))
            ),
        ),
        (("nerve", "chaotic"), lambda: _nerve_twin(twocat.chaotic_2cat(), 4)),
        (("nerve", "suspension"), lambda: _nerve_twin(twocat.suspension_of_chaotic(), 4)),
        (
            ("lift", "--x", "representable:[2;0,0]", "--family", "inner-h", "--bound", "3"),
            lambda: lift_check(representable(ThetaShape((0, 0)), 3), "inner-h", 3),
        ),
        (
            ("lift", "--x", "nerve:{file}"),
            lambda: lift_check(twocat.nerve(twocat.chaotic_2cat(), 4), "inner", 4),
        ),
        (
            ("verify", "upsilon-vertical", "--shape", "[1;3]", "--set", "dv^{1;1}"),
            lambda: _replay_twin(upsilon_vertical, (3,), ["dv^{1;1}"]),
        ),
        (
            ("verify", "oury-from-alt", "--shape", "[1;3]")
            + ("--set", "dv^{1;1}", "--set", "dv^{1;2}"),
            lambda: _replay_twin(oury_from_alt, (3,), ["dv^{1;1}", "dv^{1;2}"]),
        ),
        (
            ("verify", "oury-from-alt", "--shape", "[2;1,1]", "--set", "dh^{1;<{0,1,1},{0,0,1}>}"),
            lambda: _replay_twin(oury_from_alt, (1, 1), ["dh^{1;<{0,1,1},{0,0,1}>}"]),
        ),
    ],
    ids=[
        "horn-h",
        "horn-h-alt",
        "nerve-chaotic",
        "nerve-suspension",
        "lift-representable",
        "lift-nerve-file",
        "verify-upsilon-vertical",
        "verify-oury-from-alt-v",
        "verify-oury-from-alt-h",
    ],
)
def test_cli_branch_matches_library(tmp_path, argv, twin):
    path = tmp_path / "chaotic.2cat"
    path.write_text(twocat.format_2cat(twocat.chaotic_2cat()))
    argv = [a.replace("{file}", str(path)) for a in argv]
    code, _ = run_cli(*argv)
    assert code == 0
    code, out = run_cli("--format", "json", *argv)
    assert code == 0
    doc, want = json.loads(out), json.loads(json.dumps(twin()))
    assert {key: doc[key] for key in want} == want


def test_cli_lift_text_keeps_horn_tag_key_order():
    # the text report prints each horn tag as a dict: family, k, then i or shuffle
    _, out = run_cli("lift", "--x", "J", "--family", "inner", "--bound", "4")
    assert out.splitlines()[:2] == [
        "[2;0,0] {'family': 'horn-h', 'k': 1}: 8/8 filled",
        "[1;2] {'family': 'horn-v', 'k': 1, 'i': 1}: 4/4 filled",
    ]
    _, out = run_cli("lift", "--x", "J", "--family", "alt-h", "--bound", "3")
    assert out.splitlines()[0] == (
        "[2;0,0] {'family': 'horn-h-alt', 'k': 1, 'shuffle': '<{0},{0}>'}: 8/8 filled"
    )


def test_cli_closed_pipe_keeps_exit_status():
    # the report (632,626 bytes) outgrows the pipe buffer, so printing it
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "theta2.cli", "enumerate"]
        + ["--shape", "[3;2,2,2]", "--at", "[3;2,2,2]"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    )
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 0 and err == b""


def test_cli_bad_script_params_exit_2():
    code, _ = run_cli("verify", "vert-equiv", "--shape", "[1;1]", "--bound", "3")
    assert code == 2


def test_cli_verify_rejects_i_option(capsys):
    # no replay script takes a vertical horn index
    with pytest.raises(SystemExit) as exc:
        main(["verify", "spine-anodyne", "--shape", "[1;1]", "--i", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --i" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("horn", "[2;0,2]", "--family", "v", "--k", "2"), "--i"),
        (("horn", "[2;1,1]", "--family", "h-alt", "--k", "1"), "--shuffle"),
        (("verify", "alt-trivial", "--shape", "[2;1,1]"), "--shuffle"),
        (("verify", "sigma-s"), "--shape"),
    ],
)
def test_cli_missing_option_exit_2(argv, option, capsys):
    assert main(list(argv)) == 2
    assert f"error: missing {option}" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "theta2.cli", "hyperfaces", "[1;2]"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 3
