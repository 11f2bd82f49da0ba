import cmath
import csv
import io
import json
import math
import warnings
from collections import OrderedDict

import pytest

from qpcoherent import cli, qnumbers
from qpcoherent.cli import main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_qnum_quon_table(tmp_path):
    code, text = run_cli(["qnum", "--q", "0.5", "--p", "1", "--nmax", "3"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    last = rows[-1]
    assert last["n"] == "3"
    assert float(last["number_re"]) == pytest.approx(1.75)
    assert float(last["factorial_re"]) == pytest.approx(2.625)
    assert float(last["abs_factorial"]) == pytest.approx(2.625)


def test_qnum_overflow_is_not_a_zero(tmp_path):
    # 3**647 overflows; that is no root-of-unity cancellation, so [647] is
    # not printed as 0
    code, text = run_cli(["qnum", "--q", "3", "--p", "1", "--nmax", "650"], tmp_path)
    assert code == 0
    assert parse_csv(text)[647]["number_re"] == "inf"


def test_qnum_classical_factorials(tmp_path):
    code, text = run_cli(["qnum", "--q", "1", "--p", "1", "--nmax", "4"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert [float(r["factorial_re"]) for r in rows] == [1, 1, 2, 6, 24]


def test_qnum_zero_p_is_usage_error(capsys):
    code = main(["qnum", "--p", "0", "--q", "1"])
    assert code == 2
    assert "p must be nonzero" in capsys.readouterr().err


def test_exp_classical(tmp_path):
    code, text = run_cli(["exp", "--which", "1", "--x", "1", "--q", "1", "--p", "1"],
                         tmp_path)
    assert code == 0
    row = parse_csv(text)[0]
    assert float(row["value_re"]) == pytest.approx(math.e, abs=1e-10)
    assert row["verdict"] == "Converged"


def test_exp_divergent_input(tmp_path):
    code, text = run_cli(["exp", "--which", "1", "--x", "3", "--q", "0.5",
                          "--p", "1"], tmp_path)
    assert code == 0
    assert parse_csv(text)[0]["verdict"] == "DivergentInput"


def test_exp2_at_zero(tmp_path):
    code, text = run_cli(["exp", "--which", "2", "--x", "0", "--q", "0.5",
                          "--p", "1"], tmp_path)
    assert code == 0
    assert float(parse_csv(text)[0]["value_re"]) == 1.0


def test_coherent_summary(tmp_path):
    code, text = run_cli(["coherent", "--z", "0.6", "--q", "0.5", "--p", "1"],
                         tmp_path)
    assert code == 0
    row = parse_csv(text)[0]
    assert float(row["norm_sq"]) == pytest.approx(1.0, abs=1e-10)
    assert float(row["annihilator_residual"]) <= 1e-12


def test_coherent_out_of_disk_is_computational_error(capsys):
    code = main(["coherent", "--z", "1.5", "--q", "0.5", "--p", "1"])
    assert code == 1
    assert "convergence radius" in capsys.readouterr().err


def test_coherent_divergent_normalization_is_error(tmp_path, capsys):
    # inside R = 6, but the normalization series leaves double range
    code, text = run_cli(["coherent", "--q", "0.5", "--p", "1.5", "--z", "1"],
                         tmp_path)
    assert code == 1 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: normalization series")


def test_fock_check(tmp_path):
    code, text = run_cli(["fock-check", "--q", "0.5", "--p", "1", "--dim", "12"],
                         tmp_path)
    assert code == 0
    row = parse_csv(text)[0]
    for key in ("residual_qmutation", "residual_delta_comm",
                "residual_adag_comm", "residual_qp"):
        assert float(row[key]) <= 1e-12


def test_weight_classical_physical_column(tmp_path):
    code, text = run_cli(["weight", "--q", "1", "--p", "1"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert set(rows[0]) == {"x", "wtilde", "w_physical"}
    for row in rows:
        assert float(row["w_physical"]) == pytest.approx(1 / math.pi, abs=1e-6)


def test_weight_fourier_has_imag_diagnostic(tmp_path):
    code, text = run_cli(["weight", "--q", "0.5", "--p", "1", "--method",
                          "fourier", "--ycut", "12", "--damping", "1e-2",
                          "--grid-points", "24"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert "wtilde_imag" in rows[0]
    assert max(abs(float(r["wtilde_imag"])) for r in rows) <= 1e-12


@pytest.mark.parametrize("extra", [
    ["--q", "0.5", "--grid-points", "0"],
    ["--q", "0.5", "--grid-points", "-3"],
    ["--q", "0.5", "--grid-points", "0", "--method", "fourier"],
    ["--q", "1", "--xmax", "0"],
    ["--q", "1", "--xmax", "-2"],
    ["--q", "0.5", "--xmax", "3"],                        # R = 2 is the span
    ["--q", "0.5", "--xmax", "3", "--method", "fourier"],
    ["--q", "1", "--xmax", "5", "--method", "fourier"],   # Fourier span is 20
], ids=" ".join)
def test_weight_bad_grid_is_usage_error(tmp_path, capsys, extra):
    code, text = run_cli(["weight", "--p", "1", *extra], tmp_path)
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --")


@pytest.mark.parametrize("q, decay", [("0.5", 5.2e-2), ("0.9", 9.2e-2)])
def test_weight_fourier_default_ycut_follows_the_radius(tmp_path, capsys, q,
                                                        decay):
    # ln(1e-2/2.3e-16)/R: 15.70 at R = 2 and 3.14 at R = 10, where 60 raised
    # on the Wbar cancellation gate. The window still cuts the integrand
    # where it is large, so the default result is smoothed, not verified.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["weight", "--q", q, "--p", "1", "--method",
                              "fourier", "--format", "json"], tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    radius = 1.0 / (1.0 - float(q))
    diagnostics = json.loads(text)["diagnostics"]
    assert float(diagnostics["y_cut"]) == math.log(1e-2 / 2.3e-16) / radius
    assert float(diagnostics["window_decay"]) == pytest.approx(decay, rel=0.05)


@pytest.mark.parametrize("extra", [["--q", "5"], ["--p", "1"], ["--p", "7"]],
                         ids=" ".join)
def test_regimes_takes_no_parameters(extra):
    # --p is no abbreviation of --prop
    with pytest.raises(SystemExit) as err:
        main(["regimes", *extra])
    assert err.value.code == 2


def test_weight_unknown_method_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["weight", "--q", "1", "--p", "1", "--method", "pade"])
    assert err.value.code == 2


@pytest.mark.parametrize("q, p, reason", [("0.3", "2", "diverges"),
                                           ("0.5", "2", "radius is 0")])
def test_weight_divergent_series_is_error(tmp_path, capsys, q, p, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no raw numpy RuntimeWarning
        code, text = run_cli(["weight", "--q", q, "--p", p], tmp_path)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]
    assert "inf" not in text


def test_exp_zero_radius(tmp_path):
    # q p = 1 with |q| < 1: the disk is empty, but x = 0 still sums to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["exp", "--q", "0.5", "--p", "2", "--x", "0.1"],
                             tmp_path)
        assert code == 0
        assert parse_csv(text)[0]["verdict"] == "DivergentInput"
        code, text = run_cli(["exp", "--q", "0.5", "--p", "2", "--x", "0"],
                             tmp_path, name="zero.csv")
    assert code == 0
    assert float(parse_csv(text)[0]["value_re"]) == 1.0


def test_verify_zero_radius_is_error(tmp_path, capsys):
    # q p = 1 with |q| < 1: no label lies in the empty disk and no weight
    # exists, so those checks fail as rows; the Fock relations still hold
    code, text = run_cli(["verify", "--q", "0.5", "--p", "2"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == ""
    rows = parse_csv(text)
    assert [(r["check"], r["passed"]) for r in rows] == [
        ("regime", "true"), ("fock_relations", "true"),
        ("normalization", "false"), ("annihilator", "false"),
        ("continuity", "false"), ("overlap_consistency", "false"),
        ("moment_residuals", "false"), ("resolution_residual", "false")]
    assert rows[0]["note"] == "Degenerate"
    assert all(r["note"].startswith("LabelOutOfDiskError: ") for r in rows[2:6])
    assert all(r["note"].startswith("SeriesDivergenceError: convergence radius is 0")
               for r in rows[6:])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weight_fourier_at_a_root_of_unity_is_error(tmp_path, capsys, fmt):
    # (q p)**2 = 1, so [2] vanishes and no Wbar series exists
    code, text = run_cli(["weight", "--q", "1j", "--p", "1j", "--method", "fourier",
                          "--ycut", "10", "--damping", "1e-2", "--grid-points", "5",
                          "--format", fmt], tmp_path)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: deformed number [2] vanishes; division by [2]! undefined"]


FOURIER = ["weight", "--method", "fourier", "--grid-points", "5"]


@pytest.mark.parametrize("ycut, damping", [("10", "inf"), ("nan", "1e-3"),
                                           ("inf", "1e-3"), ("10", "nan")])
def test_weight_fourier_non_finite_window_is_usage_error(capsys, ycut, damping):
    # these gave an all-zero weight, 4 000 Wbar terms and then "not
    # converged", a raw numpy RuntimeWarning, and a quadrature failure
    code = main([*FOURIER, "--q", "0.5", "--p", "1", "--ycut", ycut,
                 "--damping", damping])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: y_cut and damping must be positive and finite"]


@pytest.mark.parametrize("q, p, ycut, reason", [
    ("0.9", "1", "60", "Wbar cancellation: terms pass 1e+140 at |y| up to 60; "
                       "reduce y_cut"),
    ("2", "1", "5", "Wbar series diverges"),
    ("2", "0.5", "5", "Wbar series diverges"),
])
def test_weight_fourier_guard_names_cancellation_or_divergence(capsys, q, p, ycut,
                                                               reason):
    # at (0.9, 1) |[n]| stays bounded, so Wbar converges for every y, but its
    # terms peak near exp(R y) = e**600; at (2, 1) and (2, 0.5) |[n]| grows
    # like 2**n and the series diverges
    code = main([*FOURIER, "--q", q, "--p", p, "--ycut", ycut])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {reason}")


def test_verify_classical_passes(tmp_path):
    code, text = run_cli(["verify", "--q", "1", "--p", "1", "--dim", "20"],
                         tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert all(r["passed"] == "true" for r in rows)
    res = [r for r in rows if r["check"] == "resolution_residual"][0]
    assert float(res["value"]) <= 1e-8


def test_verify_quon_passes(tmp_path):
    code, text = run_cli(["verify", "--q", "0.5", "--p", "1", "--dim", "16",
                          "--degree", "12"], tmp_path)
    assert code == 0


def test_verify_reports_a_raising_check_as_a_failed_row(tmp_path, capsys):
    # at q = 0.99 the resolution audit's quadrature cannot settle; that is one
    # failed row, and every check still runs
    code, text = run_cli(["verify", "--q", "0.99", "--p", "1"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == ""
    rows = parse_csv(text)
    assert [r["check"] for r in rows] == [
        "regime", "fock_relations", "normalization", "annihilator",
        "continuity", "overlap_consistency", "moment_residuals",
        "resolution_residual"]
    assert all(r["passed"] == "true" for r in rows[:6])
    last = rows[-1]
    assert last["passed"] == "false" and last["value"] == ""
    assert last["note"].startswith("QuadratureError: moment ratios did not "
                                   "stabilize")


def test_verify_outside_regime_fails_with_diagnosis(tmp_path):
    code, text = run_cli(["verify", "--q", "2", "--p", "1"], tmp_path)
    assert code == 1
    rows = parse_csv(text)
    assert rows[0]["check"] == "regime"
    assert "Outside Proposition 2" in rows[0]["note"]


def test_regimes_prop2_sweep(tmp_path):
    code, text = run_cli(["regimes", "--prop", "2"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert len(rows) == 100
    assert set(rows[0]) == {"q_re", "q_im", "p_re", "p_im", "regime",
                            "v_exp1", "v_exp2", "v_wbar", "ratio_estimates"}
    code, text = run_cli(["regimes", "--prop", "2", "--format", "json"],
                         tmp_path, name="out.json")
    assert code == 0
    assert all(r["contradiction"] is False for r in json.loads(text))


def test_json_output_format(tmp_path):
    code, text = run_cli(["qnum", "--q", "0.5", "--p", "1", "--nmax", "2",
                          "--format", "json"], tmp_path, name="out.json")
    assert code == 0
    payload = json.loads(text)
    assert payload[2]["n"] == "2"
    assert float(payload[2]["number_re"]) == pytest.approx(1.5)


@pytest.mark.parametrize("args", [
    ["qnum", "--q", "0.5", "--p", "1.2"],
    ["exp", "--q", "0.5", "--p", "1", "--x", "0.7", "--format", "json"],
    ["coherent", "--q", "0.5", "--p", "1", "--z", "0.4"],
    ["fock-check", "--q", "1j", "--p", "1.5", "--dim", "8"],
    ["weight", "--q", "0.5", "--p", "1", "--grid-points", "17"],
    ["weight", "--q", "0.5", "--p", "1", "--grid-points", "17",
     "--format", "json"],
    ["verify", "--q", "0.5", "--p", "1", "--dim", "8"],
    ["regimes", "--prop", "1", "--format", "json"],
])
def test_out_file_matches_stdout(args, tmp_path, capsys):
    code = main(args)
    printed = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().out == ""
    assert (tmp_path / "o").read_bytes() == printed.encode()


@pytest.mark.parametrize("q, p", [
    (0.5, 1.0),                                      # regime I, real
    (cmath.rect(0.6, 0.5), cmath.rect(1.0, -1.1)),   # regime I
    (cmath.rect(1.0, 0.3), cmath.rect(1.8, 0.4)),    # regime II
])
def test_verify_builds_its_sequence_at_most_twice(q, p, monkeypatch, capsys):
    monkeypatch.setattr(qnumbers, "_store", OrderedDict())
    builds = []
    build = qnumbers._build

    def counting(params, count):
        builds.append((params.q, params.p))
        return build(params, count)

    monkeypatch.setattr(qnumbers, "_build", counting)
    assert main(["verify", "--q", repr(complex(q)), "--p", repr(complex(p)),
                 "--dim", "20"]) == 0
    assert "false" not in capsys.readouterr().out
    assert 1 <= builds.count((q, p)) <= 2, builds


def test_verify_builds_operators_once_per_dimension(monkeypatch, capsys):
    # the 12 label states have 3 dimensions here: 20, 44 and 134
    dims = []
    build = cli.build_operators

    def counting(dim, params):
        dims.append(dim)
        return build(dim, params)

    monkeypatch.setattr(cli, "build_operators", counting)
    assert main(["verify", "--q", repr(cmath.rect(0.6, 0.5)),
                 "--p", repr(cmath.rect(1.0, -1.1))]) == 0
    assert "false" not in capsys.readouterr().out
    assert len(dims) <= 4 and len(set(dims)) == len(dims), dims
