"""Command line interface: JSON contracts, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from krenergy.birational import RationalPoint
from krenergy.cli import main
from krenergy.crystal import CrystalElement, TensorElement
from krenergy.lsym import ColoredPoly, mono_factors, tableau_monomials
from krenergy.tableaux import energy_staircase_shape
from krenergy import verify
from krenergy.verify import CAPACITY_CAP_MAX, ConfigError, VerifyConfig, run_verify


def run_cli(argv, stdin_text="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_public_names_resolve():
    """Every name in ``krenergy.__all__`` resolves, and ``from krenergy
    import *`` binds them all."""
    import krenergy

    assert [name for name in krenergy.__all__ if not hasattr(krenergy, name)] == []
    namespace = {}
    exec("from krenergy import *", namespace)
    assert set(krenergy.__all__) <= set(namespace)


def test_energy_worked_example(capsys, monkeypatch):
    payload = json.dumps({"n": 4, "rows": ["13", "1224", "123"]})
    code, out, err = run_cli(["energy"], payload, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"intrinsic": 5, "staircase": 5, "equal": True}


# the CLI in a fresh interpreter in which the test dependencies cannot be imported
RUNTIME_ONLY = """
import sys
for name in ("sympy", "hypothesis", "pytest"):
    sys.modules[name] = None
from krenergy.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["energy"], '{"n":4,"rows":["13","1224","123"]}'),
        (["verify", "--n", "2", "--m", "1:2", "--capacity-cap", "1", "--json"], ""),
    ],
    ids=["energy", "verify"],
)
def test_cli_imports_no_test_dependency(argv, stdin):
    """``krenergy energy`` and a small ``krenergy verify`` run with sympy,
    hypothesis and pytest unimportable, as on an install without the
    ``test`` extra."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_ONLY, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)


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


def test_emit_formula_thousand_cell_row(capsys):
    """The one-row staircase of 1,000 cells (n = 1001, m = 2) is far under
    the guard and is walked without one recursion per cell: 1,001 terms,
    the i-th taking entry 2 in its last i cells."""
    code = main(["emit-formula", "--n", "1001", "--m", "2"])
    out, err = capsys.readouterr()
    assert code == 0, err
    data = json.loads(out)
    assert data["shape"] == [1000]
    assert len(data["terms"]) == 1001
    assert [sum(e for i, _, e in t["monomial"] if i == 2) for t in data["terms"]] == list(
        range(1001)
    )


@pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (2, 4), (5, 2), (3, 1)])
def test_emit_formula_streams_the_whole_documents_bytes(n, m, capsys):
    """The terms are written as they are enumerated, and the output is
    byte for byte the one ``json.dumps`` of the whole document."""
    shape = energy_staircase_shape(n, m)
    terms = [{"tableau": [list(row) for row in t.rows],
              "monomial": [list(f) for f in mono_factors(mono, n)]}
             for t, mono in tableau_monomials(shape, 0, m, n=n)]
    doc = {"n": n, "m": m, "shape": list(shape.parts), "terms": terms}
    assert main(["emit-formula", "--n", str(n), "--m", str(m)]) == 0
    out, _ = capsys.readouterr()
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


def test_energy_over_guard_refused_before_intrinsic(capsys, monkeypatch):
    # n=3, m=6 is over the guard: the refusal comes before any energy
    payload = json.dumps({"n": 3, "rows": ["1", "2", "3", "12", "23", "11"]})
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)

    def refuse(tensor):
        raise AssertionError("intrinsic_energy ran on a tensor over the guard")

    monkeypatch.setattr("krenergy.cli.intrinsic_energy", refuse)
    code, out, err = run_cli(["energy"], payload, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert "KR_ENERGY_GUARD" in err


def test_energy_over_the_slot_guard_refused_up_front(capsys, monkeypatch):
    # n=200, m=3: 8 * 10^6 tableaux, under the guard, of 600 exponent slots each
    payload = json.dumps({"n": 200, "factors": [[1] + [0] * 199] * 3})
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)

    def refuse(*args):
        raise AssertionError("the staircase DP ran over the guard")

    monkeypatch.setattr("krenergy.lsym._colors", refuse)
    code, out, err = run_cli(["energy"], payload, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert "exponent slots" in err and "KR_ENERGY_GUARD" in err


# (3, 6) is over the guard in tableaux; the others only in tableaux times
# the m * n exponent slots of a term
@pytest.mark.parametrize(
    "argv",
    [["emit-formula", "--n", str(n), "--m", str(m)]
     for n, m in [(3, 6), (4, 5), (2, 7), (43, 3), (9, 4), (2237, 2)]],
)
def test_staircase_over_guard_refused_up_front(argv, capsys, monkeypatch):
    _forbid_enumeration(monkeypatch)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "exponent slots" in err and "KR_ENERGY_GUARD" in err


@pytest.mark.parametrize("n, m", [(3, 5), (2, 6)])
def test_emit_formula_admits_the_staircases_within_the_guard(n, m, capsys, monkeypatch):
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)
    monkeypatch.setattr("krenergy.cli.tableau_monomials", lambda *args, **kwargs: ())
    assert main(["emit-formula", "--n", str(n), "--m", str(m)]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)["shape"] == [(n - 1) * k for k in range(m - 1, 0, -1)]


def test_energy_of_two_hundred_factors_refused_without_the_count(capsys, monkeypatch):
    """2^19900 tableaux: the refusal exits 2 without printing the count's
    5,991 digits, past Python's limit on int-to-string conversion."""
    payload = json.dumps({"n": 2, "factors": [[1, 0]] * 200})
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)
    code, out, err = run_cli(["energy"], payload, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert "2^19900 tableaux" in err and "KR_ENERGY_GUARD" in err


@pytest.mark.parametrize("guard", ["abc", "0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["energy"],
        ["verify", "--suites", "rmatrix", "--n", "2", "--m", "2"],
        ["emit-formula", "--n", "2", "--m", "2"],
    ],
    ids=["energy", "verify", "emit-formula"],
)
def test_malformed_guard_is_a_config_error(argv, guard, capsys, monkeypatch):
    """A KR_ENERGY_GUARD that is not a positive integer exits 2 with one
    error line, not 1 (a failed property) with a traceback."""
    monkeypatch.setenv("KR_ENERGY_GUARD", guard)
    payload = json.dumps({"n": 3, "rows": ["12", "3"]})
    code, out, err = run_cli(argv, payload, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: KR_ENERGY_GUARD") and err.count("\n") == 1, err


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


def test_verify_refuses_an_oracle_pair_over_the_guard(capsys, monkeypatch):
    """At capacity cap 100 the seed-0 pair at n=4 has work 1.4 * 10^9 and
    ran past 60 s; now it is refused, exit 2, after the 67 rectifications
    of the smaller cells' pairs."""
    from krenergy import crystal

    calls = []
    real = crystal.rectified_pair

    def budgeted(*args):
        calls.append(args)
        if len(calls) > 500:
            raise AssertionError("the oracle rectified past its guard")
        return real(*args)

    monkeypatch.setattr(crystal, "rectified_pair", budgeted)
    code = main([
        "verify", "--suites", "rmatrix", "--n", "2:6", "--m", "2:3", "--capacity-cap", "100",
        "--mode", "randomized", "--trials", "1",
    ])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "R-matrix oracle" in err and len(calls) == 67


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--suites", "section4", "--n", "2", "--m", "1"],
        ["--suites", "lsym-identities", "--n", "4:6", "--m", "5:6", "--mode", "exhaustive"],
    ],
    ids=["section4-needs-m2", "no-symbolic-cell"],
)
def test_verify_human_summary_names_a_suite_that_checked_nothing(argv, capsys):
    """section4 has no instance at m = 1, and exhaustive identity cells
    outside n <= 3, m <= 4 get no symbolic run: the summary says so, not
    ok, while the report and the exit code are unchanged."""
    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["total"] == {"checks": 0, "failures": 0}
    suite, total = err.splitlines()
    assert suite.startswith(argv[1]) and total.startswith("total")
    for line in (suite, total):
        assert " 0 checks  no instance in the configured cells  (" in line, line


@pytest.mark.parametrize(
    "config, digest",
    [
        (
            VerifyConfig(seed=0, n_range=(2, 3), m_range=(1, 3), capacity_cap=2, trials=5,
                         mode="exhaustive"),
            "151d4f11fc81a6b5fb3b288a0dbf269f21f8a14e06b05f536349a11e6f4dd1de",
        ),
        (VerifyConfig(seed=0), "30b25908d437669097289b6bb778d6c7bfed0863f8fd4b47556ac06c4f895a7a"),
    ],
    ids=["benchmark-config", "default"],
)
def test_verify_report_matches_its_golden_hash(config, digest):
    """The canonical reports of the benchmark's config and of the default
    config keep their SHA-256: a memo or a shared kernel that changed one
    check, witness or count would change the digest."""
    assert hashlib.sha256(run_verify(config).to_json().encode()).hexdigest() == digest


def test_verify_birational_runs_where_the_staircase_is_over_the_guard(capsys, monkeypatch):
    """At n = 3, m = 6 the staircase has 3^15 tableaux, over the guard; the
    all-ones check compares with their closed-form count, enumerates
    nothing, and the suite runs and passes."""
    _forbid_enumeration(monkeypatch)
    code = main(["verify", "--suites", "birational", "--n", "3", "--m", "6", "--trials", "2",
                 "--json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["suites"]["birational"] == {"checks": 5, "failures": 0, "witnesses": []}


def test_verify_refuses_a_capacity_cap_above_the_bound(capsys, monkeypatch):
    """A capacity cap of 10^8 used to draw letters for minutes; now it is a
    config error, exit 2, before any element is drawn."""

    def refuse(*args):
        raise AssertionError("an element was drawn")

    monkeypatch.setattr(verify, "random_element", refuse)
    code = main([
        "verify", "--suites", "coenergy", "--n", "2", "--capacity-cap", "100000000",
        "--mode", "randomized", "--trials", "1",
    ])
    _, err = capsys.readouterr()
    assert code == 2
    assert "capacity cap" in err and str(CAPACITY_CAP_MAX) in err
    with pytest.raises(ConfigError):
        VerifyConfig(capacity_cap=CAPACITY_CAP_MAX + 1)
    VerifyConfig(capacity_cap=CAPACITY_CAP_MAX)


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": True},
        {"trials": 2.5},
        {"capacity_cap": True},
        {"capacity_cap": 2.0},
        {"seed": "3"},
        {"seed": False},
        {"n_range": (2.0, 2)},
        {"n_range": (2, True)},
        {"m_range": (1, 1.5)},
        {"m_range": ("1", 2)},
        {"m_range": (1, 2, 3)},
        {"n_range": [2, 3]},
    ],
)
def test_verify_config_takes_only_integers(kwargs):
    """A bool, float or string where an integer belongs is refused up front;
    these used to run to completion, or raise TypeError mid-run."""
    with pytest.raises(ConfigError):
        VerifyConfig(suites=("rmatrix",), **kwargs)


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


# Strict decimal strings: int() alone would read spaces, underscores, a '+'
# and the digits of other scripts ("١" is ARABIC-INDIC DIGIT ONE).


@pytest.mark.parametrize(
    "cls, doc",
    [
        (RationalPoint, {"m": 1, "n": 2, "values": [[" 3", "1_0"], ["1", "1"]]}),
        (RationalPoint, {"m": 1, "n": 2, "values": [["+3", "1"], ["1", "1"]]}),
        (RationalPoint, {"m": 1, "n": 2, "values": [["٣", "1"], ["1", "1"]]}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": "١", "exps": []}]}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": "1 ", "exps": []}]}),
        (ColoredPoly, {"m": 1, "n": 2, "terms": [{"coef": "-1_0", "exps": []}]}),
    ],
)
def test_json_decimals_are_ascii_digits(cls, doc):
    with pytest.raises(ValueError, match="ASCII digits"):
        cls.from_jsonable(doc)


def test_json_decimals_keep_their_sign():
    doc = {"m": 1, "n": 2, "terms": [{"coef": "-10", "exps": []}]}
    assert ColoredPoly.from_jsonable(doc) == ColoredPoly.one(1, 2) * -10


@pytest.mark.parametrize("word", ["١٢", "1²", "+1", " 1"])
def test_row_words_are_ascii_digits(word, capsys, monkeypatch):
    with pytest.raises(ValueError):
        CrystalElement.from_row(3, word)
    code, out, _ = run_cli(["energy"], json.dumps({"n": 3, "rows": [word]}), capsys, monkeypatch)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("guard", ["١٠", " 10", "1_0", "+10"])
def test_guard_is_ascii_digits(guard, capsys, monkeypatch):
    monkeypatch.setenv("KR_ENERGY_GUARD", guard)
    code, out, err = run_cli(["emit-formula", "--n", "2", "--m", "2"], "", capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: KR_ENERGY_GUARD") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["٢", "+2", " 2", "2:٣", "2: 3", "2_0"])
def test_verify_ranges_are_ascii_digits(text, capsys):
    code = main(["verify", "--suites", "rmatrix", "--n", text, "--m", "1", "--capacity-cap", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "--n must be N or LO:HI" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suites", "rmatrix", "--trials", "٣"],
        ["verify", "--suites", "rmatrix", "--trials", "+3"],
        ["verify", "--suites", "rmatrix", "--capacity-cap", " 1"],
        ["verify", "--suites", "rmatrix", "--seed", "1_0"],
        ["emit-formula", "--n", "٢", "--m", "2"],
        ["emit-formula", "--n", "2", "--m", "2.0"],
    ],
)
def test_integer_flags_are_ascii_digits(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "ASCII digits" in capsys.readouterr()[1]


def test_integer_flags_keep_their_sign(capsys):
    argv = ["verify", "--suites", "rmatrix", "--n", "2", "--m", "1", "--capacity-cap", "1"]
    assert main(argv + ["--seed", "-3", "--json"]) == 0
    capsys.readouterr()
    assert main(["emit-formula", "--n", "-2", "--m", "2"]) == 2
    assert "need n >= 2" in capsys.readouterr()[1]


def test_verify_refuses_an_over_guard_energy_cell_before_any_suite(capsys, monkeypatch):
    """The (4, 5) staircase is over the guard, so a config with that
    energy-equivalence cell exits 2 before the braid suite, or any energy
    cell before it, runs."""
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)

    def never(config, result):
        raise AssertionError("a suite ran before the guard refused the config")

    for name in ("braid", "energy-equivalence"):
        monkeypatch.setitem(verify.SUITE_RUNNERS, name, never)
    args = ["--suites", "braid,energy-equivalence", "--n", "2:4", "--m", "1:5",
            "--capacity-cap", "2"]
    code = main(["verify", *args])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "n=4, m=5" in err, err
