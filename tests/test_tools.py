"""Tests of tools/same_behaviour.py's comparison, on records made up here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_behaviour.py"
_SPEC = importlib.util.spec_from_file_location("same_behaviour", _PATH)
same_behaviour = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_behaviour)


def _record(key, **changes):
    record = {"key": key, "exit": 0, "verdicts": ["verdict: PASS"], "stdout": "aa",
              "stderr": "bb", "files": {"w/synth.csv": "cc"}}
    record.update(changes)
    return record


def _compare(monkeypatch, base, head):
    trees = {"BASE": base, "HEAD": head}

    def records(tree, perfbench):
        return {r["key"]: r for r in trees[tree]}, [r["key"] for r in trees[tree]]

    monkeypatch.setattr(same_behaviour, "_records", records)
    return same_behaviour.compare("BASE", "HEAD")


@pytest.mark.parametrize("change, code", [
    ({}, 0),
    ({"files": {"w/synth.csv": "dd"}}, 0),            # a digest alone is printed
    ({"stdout": "dd"}, 0),
    ({"exit": 1}, 1),
    ({"verdicts": ["verdict: FAIL"]}, 1),
    ({"verdicts": []}, 1),
])
def test_only_an_exit_code_or_a_verdict_fails(monkeypatch, capsys, change, code):
    base = [{"key": "inputs set-up", "files": {"in.csv": "ee"}}, _record("a synth"),
            _record("b verify")]
    head = base[:2] + [_record("b verify", **change)]
    assert _compare(monkeypatch, base, head) == code
    out = capsys.readouterr().out
    assert ("head!" in out or "base!" in out) == bool(change)
    assert out.splitlines()[-1].startswith(f"{1 if change else 2} of 2 commands byte-identical")


@pytest.mark.parametrize("cmd, code", [("rect", 1), ("extend", 1), ("figure1", 1),
                                       ("synth", 0), ("verify", 0)])
def test_a_differing_file_fails_for_the_closed_form_commands(monkeypatch, capsys, cmd, code):
    # rect, extend and figure1 files must stay byte-identical; a synth file may move
    base = [_record(f"a {cmd}"), _record("b verify")]
    head = [_record(f"a {cmd}", files={"w/synth.csv": "dd"}), base[1]]
    assert _compare(monkeypatch, base, head) == code
    out = capsys.readouterr().out
    assert "head!   w/synth.csv dd" in out and "base!   w/synth.csv cc" in out
    assert out.splitlines()[-1].endswith("exact file differs" if code else "exact files agree")


def test_a_command_missing_from_one_tree_fails(monkeypatch, capsys):
    assert _compare(monkeypatch, [_record("a synth")], [_record("a synth"),
                                                         _record("b verify")]) == 1
    assert "missing at base" in capsys.readouterr().out


def test_a_differing_stdout_prints_the_lines_that_differ(monkeypatch, capsys):
    lines = ["fitted lambda         -1", "fit rms residual      2.264e-14  (tol 0.001)"]
    base = [_record("a verify", out=lines + [f"extra {i}" for i in range(6)])]
    head = [_record("a verify", stdout="dd",
                    out=[lines[0], "fit rms residual      2.249e-14  (tol 0.001)"])]
    assert _compare(monkeypatch, base, head) == 0
    out = capsys.readouterr().out.splitlines()
    assert "base!   | fit rms residual      2.264e-14  (tol 0.001)" in out
    assert "head!   | fit rms residual      2.249e-14  (tol 0.001)" in out
    # the shared line is not repeated, and each tree shows at most SHOWN_LINES
    assert not any("fitted lambda" in ln for ln in out)
    assert sum(ln.startswith("base!   |") for ln in out) == same_behaviour.SHOWN_LINES
