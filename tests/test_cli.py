"""Command line interface: JSON contracts, exit codes, determinism."""

import io
import json
import sys

import pytest

from krenergy.birational import RationalPoint
from krenergy.cli import main
from krenergy.crystal import TensorElement
from krenergy.lsym import ColoredPoly


def run_cli(argv, stdin_text="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_energy_worked_example(capsys, monkeypatch):
    payload = json.dumps({"n": 4, "rows": ["13", "1224", "123"]})
    code, out, err = run_cli(["energy"], payload, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"intrinsic": 5, "staircase": 5, "equal": True}


def test_energy_single_factor(capsys, monkeypatch):
    payload = json.dumps({"n": 3, "rows": ["112"]})
    code, out, _ = run_cli(["energy"], payload, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"intrinsic": 0, "staircase": 0, "equal": True}


def test_energy_empty_rows(capsys, monkeypatch):
    payload = json.dumps({"n": 3, "factors": [[0, 0, 0], [0, 0, 0]]})
    code, out, _ = run_cli(["energy"], payload, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"intrinsic": 0, "staircase": 0, "equal": True}


def test_energy_malformed_input(capsys, monkeypatch):
    code, out, err = run_cli(["energy"], "not json", capsys, monkeypatch)
    assert code == 2
    assert "error" in err


def test_energy_bad_schema(capsys, monkeypatch):
    code, _, err = run_cli(["energy"], '{"n": 3}', capsys, monkeypatch)
    assert code == 2


def test_energy_from_file(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"n": 2, "rows": ["1", "2", "1"]}))
    code = main(["energy", str(path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["intrinsic"] == 2


def test_rmatrix_worked_example(capsys, monkeypatch):
    payload = json.dumps({"n": 4, "rows": ["13", "1224"]})
    code, out, _ = run_cli(["rmatrix", "--check"], payload, capsys, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == ["1123", "24"]
    assert data["factors"] == [[2, 1, 1, 0], [0, 1, 0, 1]]


def test_rmatrix_oracle_flag(capsys, monkeypatch):
    payload = json.dumps({"n": 4, "rows": ["13", "1224"]})
    code, out, _ = run_cli(["rmatrix", "--oracle"], payload, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["rows"] == ["1123", "24"]


def test_rmatrix_equal_factors_unchanged(capsys, monkeypatch):
    payload = json.dumps({"n": 3, "rows": ["12", "12"]})
    code, out, _ = run_cli(["rmatrix", "--check"], payload, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["rows"] == ["12", "12"]


def test_rmatrix_wrong_arity(capsys, monkeypatch):
    payload = json.dumps({"n": 3, "rows": ["12"]})
    code, _, err = run_cli(["rmatrix"], payload, capsys, monkeypatch)
    assert code == 2


def test_emit_formula_eight_terms(capsys):
    code = main(["emit-formula", "--n", "2", "--m", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [2, 1]
    assert len(data["terms"]) == 8
    monomials = sorted(tuple(tuple(v) for v in t["monomial"]) for t in data["terms"])
    # the displayed eight-term minimum, as exponent triples [i, r, e]
    expected = sorted(
        [
            ((1, 0, 1), (1, 1, 1), (2, 1, 1)),
            ((1, 0, 1), (1, 1, 1), (3, 1, 1)),
            ((1, 0, 1), (2, 1, 2)),
            ((1, 0, 1), (2, 1, 1), (3, 1, 1)),
            ((1, 0, 1), (2, 1, 1), (3, 1, 1)),
            ((1, 0, 1), (3, 1, 2)),
            ((2, 0, 1), (2, 1, 1), (3, 1, 1)),
            ((2, 0, 1), (3, 1, 2)),
        ]
    )
    assert monomials == expected


def test_emit_formula_single_factor(capsys):
    code = main(["emit-formula", "--n", "3", "--m", "1"])
    out, _ = capsys.readouterr()
    data = json.loads(out)
    assert data["shape"] == []
    assert len(data["terms"]) == 1
    assert data["terms"][0]["monomial"] == []


def _forbid_enumeration(monkeypatch):
    """Make every krenergy namespace's enumerate_ssyt fail if called."""
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a staircase over the guard was enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("krenergy") and hasattr(module, "enumerate_ssyt"):
            monkeypatch.setattr(module, "enumerate_ssyt", refuse)


def test_energy_over_guard_refused_up_front(capsys, monkeypatch):
    # n=3, m=6: 3^15 > 10^7 staircase tableaux
    payload = json.dumps({"n": 3, "rows": ["1", "2", "3", "12", "23", "11"]})
    _forbid_enumeration(monkeypatch)
    code, out, err = run_cli(["energy"], payload, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert "KR_ENERGY_GUARD" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["emit-formula", "--n", "3", "--m", "6"],
        ["verify", "--suites", "birational", "--n", "3", "--m", "6", "--trials", "1"],
    ],
)
def test_staircase_over_guard_refused_up_front(argv, capsys, monkeypatch):
    _forbid_enumeration(monkeypatch)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "KR_ENERGY_GUARD" in err


def test_tableau_sums_skip_the_ssyt_checks(capsys, monkeypatch):
    """The tableau sums and emit-formula read enumerate_ssyt's tableaux,
    which are semistandard by construction, without the checks of Ssyt."""
    from krenergy import lsym, tableaux

    box = lsym.loop_schur_tableaux((3, 3), 1, 4, n=3)
    stair = lsym.staircase_loop_schur(3, 3)
    assert main(["emit-formula", "--n", "2", "--m", "3"]) == 0
    emitted, _ = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("an enumerated tableau was checked again")

    monkeypatch.setattr(tableaux.Ssyt, "__init__", refuse)
    lsym.staircase_loop_schur.cache_clear()
    assert lsym.loop_schur_tableaux((3, 3), 1, 4, n=3) == box
    assert lsym.staircase_loop_schur(3, 3) == stair
    assert main(["emit-formula", "--n", "2", "--m", "3"]) == 0
    assert capsys.readouterr()[0] == emitted


def test_verify_samples_large_pair_space(capsys):
    # 18,564^2 = C(18, 6)^2 pairs at n=6, capacity cap 12: above the cell limit, so sampled
    code = main([
        "verify", "--suites", "rmatrix", "--n", "6", "--m", "2", "--capacity-cap", "12",
        "--mode", "exhaustive", "--trials", "3", "--json",
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["suites"]["rmatrix"]["checks"] == 3


def test_verify_small_run_and_determinism(capsys):
    argv = [
        "verify", "--suites", "rmatrix,coenergy", "--n", "2", "--m", "2",
        "--capacity-cap", "2", "--trials", "2", "--seed", "5", "--json",
    ]
    code1 = main(argv)
    out1, err1 = capsys.readouterr()
    code2 = main(argv)
    out2, err2 = capsys.readouterr()
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    assert err1 == ""  # --json silences the human summary
    report = json.loads(out1)
    assert report["total"]["failures"] == 0


def test_verify_human_summary_on_stderr(capsys):
    code = main(["verify", "--suites", "coenergy", "--n", "2", "--capacity-cap", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "coenergy" in err


def test_verify_rejects_zero_trials(capsys):
    code = main(["verify", "--trials", "0", "--suites", "rmatrix"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "config error" in err


def test_verify_rejects_unknown_suite(capsys):
    code = main(["verify", "--suites", "nonsense"])
    _, err = capsys.readouterr()
    assert code == 2


def test_verify_rejects_bad_range(capsys):
    code = main(["verify", "--n", "7"])
    _, err = capsys.readouterr()
    assert code == 2
    code = main(["verify", "--n", "2:3:4"])
    _, err = capsys.readouterr()
    assert code == 2


def test_verify_rejects_duplicate_suite(capsys):
    code = main(["verify", "--suites", "rmatrix,rmatrix", "--n", "2", "--m", "1"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "cls, doc",
    [
        (TensorElement, {"n": 4, "factors": [[1.7, 0, 0, 0], [1, 0, 0, 0]]}),
        (TensorElement, {"n": "4", "rows": ["13"]}),
        (TensorElement, {"n": 2, "factors": [[1e30, 0]]}),
        (TensorElement, {"n": 2, "factors": [[True, 0]]}),
        (TensorElement, {"n": 2, "factors": [[1, 0]], "rows": ["1"]}),
        (TensorElement, {"n": 2, "rows": ["1"], "extra": 0}),
        (ColoredPoly, {"m": 1, "n": 2.9, "terms": []}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": "1", "exps": [[1, 0, 1.7]]}]}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": 1.7, "exps": [[1, 0, 1]]}]}),
        (RationalPoint, {"m": 1, "n": 2, "values": [[1.5, "1"], ["1", "1"]]}),
        (RationalPoint, {"m": 1, "n": 2, "values": [[True, "1"], ["1", "1"]]}),
        (RationalPoint, {"m": True, "n": 2, "values": [["1", "1"], ["1", "1"]]}),
        (TensorElement, {"n": 3, "rows": "13"}),
        (TensorElement, {"n": 3, "rows": ["1", 3]}),
        (RationalPoint, {"m": 1, "n": 2, "values": [["1", "0"], ["1", "1"]]}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": "1", "exps": [[1, 0, 1], [1, 0, 2]]}]}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": "1", "exps": [[1, 0, 0]]}]}),
    ],
)
def test_json_input_is_strict(cls, doc, capsys, monkeypatch):
    """Floats, bools, numeric strings, extra keys, rows given as a string,
    zero denominators, a variable listed twice in one monomial and a zero
    exponent are rejected, not truncated or merged; the energy command
    exits 2 on such a tensor."""
    with pytest.raises(ValueError):
        cls.from_jsonable(doc)
    if cls is TensorElement:
        code, out, _ = run_cli(["energy"], json.dumps(doc), capsys, monkeypatch)
        assert (code, out) == (2, "")
