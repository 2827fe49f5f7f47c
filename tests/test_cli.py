import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import hodgeform
from hodgeform.cli import main, parse_zoo_identifier
from hodgeform.complexes import load_complex
from hodgeform.formality import SearchConfig, search_formal_weights
from hodgeform.hodge import unit_weights


def run(args):
    return main([str(a) for a in args])


def summaries_dir():
    return resources.files("hodgeform.data").joinpath("summaries")


# ---------------------------------------------------------------------------
# generate


def test_generate_sphere_three_has_five_facets(tmp_path):
    out = tmp_path / "s3.json"
    assert run(["generate", "sphere:3", "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["facets"]) == 5


def test_generate_torus_two(tmp_path):
    out = tmp_path / "t2.json"
    assert run(["generate", "torus:2", "-o", out]) == 0
    assert len(json.loads(out.read_text())["facets"]) == 18


def test_generate_surface_two_records_negative_euler(tmp_path):
    out = tmp_path / "g2.json"
    assert run(["generate", "surface:2", "-o", out]) == 0
    from hodgeform.complexes import load_complex
    from hodgeform.homology import euler_characteristic

    assert euler_characteristic(load_complex(out)) == -2


def test_generate_unknown_identifier(tmp_path):
    assert run(["generate", "octahedron:1", "-o", tmp_path / "x.json"]) == 2


def test_generate_nested_expressions(tmp_path):
    out = tmp_path / "prod.json"
    assert run(["generate", "product:sphere:1,sphere:1", "-o", out]) == 0
    assert len(json.loads(out.read_text())["facets"]) == 18


def test_generate_and_analyze_connected_sum_above_dimension_four(tmp_path):
    s1s4, summed = tmp_path / "s1s4.json", tmp_path / "sum.json"
    assert run(["generate", "product:sphere:1,sphere:4", "-o", s1s4]) == 0
    assert run(["generate", f"connsum:{s1s4},{s1s4}", "-o", summed]) == 0
    report_path = tmp_path / "report.json"
    assert run(["analyze", summed, "--all", "-o", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["obstructions"]["verdict"] == "passes-elementary-tests"


def test_parse_zoo_identifier_file_path(tmp_path):
    out = tmp_path / "c.json"
    run(["generate", "sphere:2", "-o", out])
    K = parse_zoo_identifier(str(out))
    assert K.f_vector == (4, 6, 4)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_full_pipeline(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    report_path = tmp_path / "report.json"
    assert run(["analyze", complex_path, "--all", "-o", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["homology"]["betti"] == [1, 2, 1]
    assert report["formality"]["aggregate"] >= 0.0
    assert report["obstructions"]["verdict"] == "passes-elementary-tests"
    assert report["hodge"]["intersection"]["skew_rank"] == 2


def test_analyze_obstructed_exit_code(tmp_path):
    complex_path = tmp_path / "g2.json"
    run(["generate", "surface:2", "-o", complex_path])
    report_path = tmp_path / "report.json"
    assert run(["analyze", complex_path, "--obstructions", "-o", report_path]) == 1
    report = json.loads(report_path.read_text())
    fired = [f["rule"] for f in report["obstructions"]["fired"]]
    assert fired == ["R1", "R5"]


def test_analyze_formality_only_on_sphere(tmp_path):
    complex_path = tmp_path / "s2.json"
    run(["generate", "sphere:2", "-o", complex_path])
    report_path = tmp_path / "report.json"
    assert run(["analyze", complex_path, "--formality", "-o", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["formality"]["aggregate"] == 0.0
    assert "homology" not in report


def test_analyze_reports_are_byte_stable(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["analyze", complex_path, "--all", "-o", a])
    run(["analyze", complex_path, "--all", "-o", b])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timings"), rb.pop("timings")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_analyze_with_weights_file(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    weights_path = tmp_path / "w.json"
    weights_path.write_text(
        json.dumps({"weights": [[2.0] * 9, [0.5] * 27, [1.0] * 18]})
    )
    report_path = tmp_path / "report.json"
    assert (
        run(
            [
                "analyze",
                complex_path,
                "--weights",
                weights_path,
                "--betti",
                "--hodge",
                "-o",
                report_path,
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    dims = [d["dimension"] for d in report["hodge"]["degrees"]]
    assert dims == [1, 2, 1]


def test_analyze_rejects_schema_invalid_weights(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    weights_path = tmp_path / "w.json"
    ones = [[1] * 9, [1] * 27, [1] * 18]  # the face counts of torus:2
    not_numbers = [
        [["1"] + ones[0][1:], *ones[1:]],
        [[True] * 9, *ones[1:]],
        [[None] + ones[0][1:], *ones[1:]],
        [[[2]] + ones[0][1:], *ones[1:]],
        [[float("inf")] + ones[0][1:], *ones[1:]],
    ]
    for weights in (None, 5, *not_numbers):
        weights_path.write_text(json.dumps({"weights": weights}))
        assert run(["analyze", complex_path, "--weights", weights_path]) == 2, weights


def test_weights_beyond_float_range_are_usage_errors(tmp_path, capsys):
    # 10**400 is a JSON integer that no float64 holds; it fails like 1e400
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    weights_path = tmp_path / "w.json"
    weights_path.write_text(
        json.dumps({"weights": [[10**400] + [1] * 8, [1] * 27, [1] * 18]})
    )
    out = tmp_path / "best.json"
    for args in (
        ["analyze", complex_path, "--weights", weights_path],
        ["search", complex_path, "--init", "file", "--weights", weights_path, "-o", out],
    ):
        assert run(args) == 2, args
        err = capsys.readouterr().err
        assert err == "error: degree-0 weights must be finite and strictly positive\n", err
    assert not out.exists()


_CHILD = """
import contextlib, io, json, sys
from hodgeform.cli import main
results = []
for args in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results.append([main(args), err.getvalue()])
print(json.dumps(results))
"""


def run_with_warnings_as_errors(cases) -> list:
    """[exit code, stderr] of ``main`` for each argument list, all in one
    child process that runs with warnings as errors, so that a warning
    inside the library escapes as a traceback instead."""
    argv = json.dumps([[str(a) for a in case] for case in cases])
    env = dict(os.environ, PYTHONPATH=str(Path(hodgeform.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", _CHILD, argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_tiny_weights_fail_with_their_documented_exit_code(tmp_path):
    # a subnormal weight has an infinite reciprocal: a usage error (exit 2);
    # a tiny normal one fails the residual certificate (exit 3).  Run with
    # warnings as errors, so that an overflow inside the library would
    # escape as a traceback instead
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    cases, want = [], []
    for value in (1e-320, 1e-300, 1e-200):
        weights_path = tmp_path / f"w{value}.json"
        weights_path.write_text(json.dumps({"weights": [[1] * 9, [value] + [1] * 26, [1] * 18]}))
        report = tmp_path / f"r{value}.json"
        given = ["--weights", weights_path, "-o"]
        cases.append(["analyze", complex_path, "--all", *given, report])
        cases.append(["search", complex_path, "--init", "file", *given, tmp_path / "s.json"])
        want += [(value, report), (value, None)]
    results = run_with_warnings_as_errors(cases)
    assert len(results) == len(want)
    for (value, report), (code, err) in zip(want, results):
        if value < np.finfo(np.float64).tiny:
            assert code == 2, (value, report, err)
            assert err == "error: degree-1 weights must be finite and strictly positive\n", err
            continue
        assert code == 3, (value, report, err)
        failure = "degree-1 harmonic basis has residual"
        if report is None:
            assert err.startswith(f"numerical failure: {failure}"), err
        else:
            errors = json.loads(report.read_text())["errors"]
            assert set(errors) == {"hodge", "formality"}, errors
            assert all(e.startswith(failure) for e in errors.values()), errors
    assert not (tmp_path / "s.json").exists()


def test_far_apart_weights_fail_with_their_documented_exit_code(tmp_path):
    # weights 10**U(-span, span) on T^3 # T^3 make the 49-row normal matrix
    # N_1 numerically singular.  Each is a numerical failure (exit 3) that
    # names its degree, with no warning or traceback; which certificate
    # catches it first may depend on the LAPACK build
    complex_path = tmp_path / "sum.json"
    assert run(["generate", "connsum:torus:3,torus:3", "-o", complex_path]) == 0
    K = parse_zoo_identifier(str(complex_path))
    draws = ((2, 150), (7, 150), (3, 300))
    cases = []
    for seed, span in draws:
        rng = np.random.default_rng(seed)
        weights = [list(10.0 ** rng.uniform(-span, span, f)) for f in K.f_vector]
        weights_path = tmp_path / f"w{seed}.json"
        weights_path.write_text(json.dumps({"weights": weights}))
        given = ["--weights", weights_path, "-o"]
        cases.append(["analyze", complex_path, "--all", *given, tmp_path / f"r{seed}.json"])
        cases.append(["search", complex_path, "--init", "file", *given, tmp_path / "s.json"])
    results = run_with_warnings_as_errors(cases)
    assert len(results) == 2 * len(draws)
    for i, (seed, _) in enumerate(draws):
        (analyze_code, analyze_err), (search_code, search_err) = results[2 * i : 2 * i + 2]
        assert analyze_code == 3 and analyze_err == "", (seed, analyze_err)
        errors = json.loads((tmp_path / f"r{seed}.json").read_text())["errors"]
        assert set(errors) == {"hodge", "formality"}, errors
        assert all(e.startswith("degree-1 ") for e in errors.values()), (seed, errors)
        assert search_code == 3, (seed, search_err)
        assert search_err.startswith("numerical failure: degree-1 "), (seed, search_err)
        assert "Traceback" not in search_err
    assert not (tmp_path / "s.json").exists()


def test_analyze_tolerance_must_be_finite_and_positive(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    for tol in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", complex_path, "--betti", f"--tolerance={tol}"])
        assert exc.value.code == 2, tol


def test_analyze_stage_error_exit_code(tmp_path, rp2):
    # obstruction stage needs an orientable complex; the failure lands in the
    # report and the run exits with the input-error code
    from hodgeform.complexes import save_complex

    complex_path = tmp_path / "rp2.json"
    save_complex(rp2, complex_path)
    report_path = tmp_path / "report.json"
    assert run(["analyze", complex_path, "--obstructions", "-o", report_path]) == 2
    report = json.loads(report_path.read_text())
    assert "obstructions" in report["errors"]


def test_analyze_numerical_failure_outranks_an_inapplicable_stage(tmp_path, rp2):
    from hodgeform.complexes import save_complex

    complex_path = tmp_path / "rp2.json"
    save_complex(rp2, complex_path)
    report_path = tmp_path / "report.json"
    args = ["analyze", complex_path, "--hodge", "--obstructions", "--tolerance", "0.5"]
    assert run([*args, "-o", report_path]) == 3
    errors = json.loads(report_path.read_text())["errors"]
    assert errors["hodge"].startswith("spectral gap of Delta_1 is 9.549e-02"), errors
    assert errors["obstructions"] == "summaries require an orientable complex"


# ---------------------------------------------------------------------------
# check


def test_check_k3_summary(tmp_path):
    report_path = tmp_path / "k3.json"
    code = run(["check", summaries_dir() / "k3.json", "-o", report_path])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert [f["rule"] for f in report["fired"]] == ["R1", "R2", "R11"]


def test_check_passing_summary_with_model(tmp_path):
    report_path = tmp_path / "out.json"
    code = run(["check", summaries_dir() / "s3xs1.json", "-o", report_path])
    assert code == 0
    assert json.loads(report_path.read_text())["model"] == "S^3 x S^1"


def test_check_first_betti_gap(tmp_path):
    summary = tmp_path / "gap.json"
    summary.write_text(
        json.dumps(
            {
                "name": "gap",
                "dimension": 4,
                "betti": [1, 3, 4, 3, 1],
                "orientable": True,
                "b_plus": 2,
                "b_minus": 2,
            }
        )
    )
    report_path = tmp_path / "out.json"
    assert run(["check", summary, "-o", report_path]) == 1
    fired = [f["rule"] for f in json.loads(report_path.read_text())["fired"]]
    assert fired == ["R3", "R7"]


def test_analyze_rejects_boolean_vertex_ids(tmp_path, capsys):
    complex_path = tmp_path / "b.json"
    facets = [[True, False, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    complex_path.write_text(json.dumps({"name": "b", "facets": facets}))
    assert run(["analyze", complex_path, "--betti"]) == 2
    assert "non-integer vertex id" in capsys.readouterr().err


def test_check_rejects_schema_violation(tmp_path):
    summary = tmp_path / "bad.json"
    summary.write_text(json.dumps({"dimension": 4}))
    assert run(["check", summary]) == 2
    bad_form = {"dimension": 4, "betti": [1, 0, 2, 0, 1], "b_plus": [1], "b_minus": 1}
    summary.write_text(json.dumps(bad_form))
    assert run(["check", summary]) == 2
    coerced = {"dimension": 2, "betti": [1, 2.7, 1], "orientable": "false"}
    summary.write_text(json.dumps(coerced))
    assert run(["check", summary]) == 2


def test_check_rejects_unknown_summary_keys(tmp_path, capsys):
    # dropping the misspelt "b+" and "b-" would leave R2, R10 and R11
    # unevaluated and let the summary pass
    summary = tmp_path / "typo.json"
    typo = {"name": "x", "dimension": 4, "betti": [1, 0, 2, 0, 1], "orientable": True}
    summary.write_text(json.dumps({**typo, "b+": 1, "b-": 1}))
    assert run(["check", summary]) == 2
    assert "unknown summary keys 'b+', 'b-'" in capsys.readouterr().err


def test_check_refuses_middle_data_outside_dimensions_divisible_by_four(tmp_path):
    summary = tmp_path / "t2.json"
    payload = {"dimension": 2, "betti": [1, 2, 1], "orientable": True, "b_plus": 2, "b_minus": 0}
    summary.write_text(json.dumps(payload))
    assert run(["check", summary]) == 2


def test_check_agrees_with_analyze(tmp_path, pinched_torus_squared):
    from hodgeform.complexes import save_complex

    pinched_path = tmp_path / "pinched.json"
    save_complex(pinched_torus_squared, pinched_path)
    for source in ("product:sphere:2,sphere:2", "torus:2", "surface:2", pinched_path):
        complex_path = tmp_path / "complex.json"
        run(["generate", source, "-o", complex_path])
        analyze_path = tmp_path / "analyze.json"
        analyze_code = run(["analyze", complex_path, "--obstructions", "-o", analyze_path])
        analyzed = json.loads(analyze_path.read_text())["obstructions"]
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(analyzed["summary"]))
        check_path = tmp_path / "check.json"
        check_code = run(["check", summary_path, "-o", check_path])
        assert json.loads(check_path.read_text()) == analyzed, source
        assert check_code == analyze_code, source


def test_check_keeps_non_orientable_summaries_apart(tmp_path):
    summary = tmp_path / "summary.json"
    report_path = tmp_path / "out.json"
    # every model of the classification is orientable
    summary.write_text(json.dumps({"dimension": 2, "betti": [1, 2, 1], "orientable": False}))
    assert run(["check", summary, "-o", report_path]) == 0
    assert json.loads(report_path.read_text())["model"] is None
    # b+ and b- are not defined without an orientation
    for plus, minus in ((1, 1), (2, 0)):
        payload = {
            "dimension": 4,
            "betti": [1, 0, 2, 0, 1],
            "orientable": False,
            "b_plus": plus,
            "b_minus": minus,
        }
        summary.write_text(json.dumps(payload))
        assert run(["check", summary]) == 2, payload


# ---------------------------------------------------------------------------
# search


def test_search_writes_deterministic_trace(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out_one = tmp_path / "w1.json"
    out_two = tmp_path / "w2.json"
    args = ["--init", "random", "--seed", "3", "--max-iterations", "1"]
    assert (
        run(["search", complex_path, *args, "-o", out_one, "--trace", tmp_path / "t1.csv"])
        == 0
    )
    assert (
        run(["search", complex_path, *args, "-o", out_two, "--trace", tmp_path / "t2.csv"])
        == 0
    )
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert out_one.read_bytes() == out_two.read_bytes()


def test_search_on_sphere_trace_is_zero(tmp_path):
    complex_path = tmp_path / "s4.json"
    run(["generate", "sphere:4", "-o", complex_path])
    out = tmp_path / "w.json"
    trace = tmp_path / "trace.csv"
    assert run(["search", complex_path, "-o", out, "--trace", trace]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines == ["iteration,aggregate", "0,0.0"]


def test_search_weights_file_feeds_analyze(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    weights_path = tmp_path / "w.json"
    run(
        [
            "search",
            complex_path,
            "--max-iterations",
            "1",
            "-o",
            weights_path,
            "--trace",
            tmp_path / "t.csv",
        ]
    )
    report_path = tmp_path / "r.json"
    assert (
        run(
            [
                "analyze",
                complex_path,
                "--weights",
                weights_path,
                "--hodge",
                "-o",
                report_path,
            ]
        )
        == 0
    )


def test_invalid_seed_is_usage_error(tmp_path, capsys):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    with pytest.raises(SystemExit) as exc:
        run(["search", complex_path, "--seed", "pi", "-o", tmp_path / "w.json"])
    assert exc.value.code == 2


def test_search_rejects_weights_file_without_init_file(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    weights_path = tmp_path / "w.json"
    weights_path.write_text(
        json.dumps({"weights": [[2.0] * 9, [0.5] * 27, [1.0] * 18]})
    )
    out = tmp_path / "best.json"
    for init in ("unit", "random"):
        args = ["search", complex_path, "--init", init, "--weights", weights_path]
        assert run([*args, "-o", out]) == 2, init
    assert not out.exists()


def test_search_init_file_requires_weights(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out = tmp_path / "best.json"
    assert run(["search", complex_path, "--init", "file", "-o", out]) == 2
    assert not out.exists()


def test_analyze_tolerance_certifies_bases_only(tmp_path):
    complex_path = tmp_path / "s2s2.json"
    run(["generate", "product:sphere:2,sphere:2", "-o", complex_path])
    report_path = tmp_path / "report.json"
    args = ["analyze", complex_path, "--tolerance", "10", "-o", report_path]
    # the obstructions stage is exact and takes no tolerance
    assert run([*args, "--obstructions"]) == 0
    summary = json.loads(report_path.read_text())["obstructions"]["summary"]
    assert (summary["b_plus"], summary["b_minus"]) == (1, 1)
    # the hodge stage still certifies its bases against it
    assert run([*args, "--hodge"]) == 3
    assert "hodge" in json.loads(report_path.read_text())["errors"]


def test_analyze_reports_degenerate_pairing(tmp_path, pinched_torus, pinched_torus_squared):
    from hodgeform.complexes import save_complex

    cases = (
        (pinched_torus, {"skew_rank": 0}, ["R3", "R5"], []),
        (pinched_torus_squared, {"b_zero": 1, "b_plus": 1, "b_minus": 1}, ["R4"], ["R2", "R8"]),
    )
    for K, middle, fired, not_evaluated in cases:
        complex_path = tmp_path / f"{K.name}.json"
        save_complex(K, complex_path)
        report_path = tmp_path / "report.json"
        assert run(["analyze", complex_path, "--all", "-o", report_path]) == 1, K.name
        report = json.loads(report_path.read_text())
        assert "errors" not in report, K.name
        form = report["hodge"]["intersection"]
        assert {key: form[key] for key in middle} == middle, K.name
        obstructions = report["obstructions"]
        assert [rule["rule"] for rule in obstructions["fired"]] == fired, K.name
        assert obstructions["not_evaluated"] == not_evaluated, K.name
        assert "b_plus" not in obstructions["summary"], K.name


def test_analyze_checks_topology_once(tmp_path, monkeypatch):
    from hodgeform import complexes

    complex_path = tmp_path / "s2s2.json"
    run(["generate", "product:sphere:2,sphere:2", "-o", complex_path])
    calls = []
    original = complexes._ridge_incidence

    def counted(K):
        calls.append(K)
        return original(K)

    monkeypatch.setattr(complexes, "_ridge_incidence", counted)
    assert run(["analyze", complex_path, "--all", "-o", tmp_path / "r.json"]) == 0
    assert len(calls) == 1


def test_analyze_refuses_a_small_spectral_gap(tmp_path):
    # the bases certify (smallest Gram rcond 0.864), but the gap of Delta_0
    # (0.204) is below the tolerance
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    report_path = tmp_path / "report.json"
    args = ["analyze", complex_path, "--hodge", "--tolerance", "0.5", "-o", report_path]
    assert run(args) == 3
    error = json.loads(report_path.read_text())["errors"]["hodge"]
    assert error.startswith("spectral gap of Delta_0 is 2.042e-01 <= tolerance"), error


def test_search_numerical_failure_exits_3(tmp_path, capsys):
    # a 1e12 weight spread leaves the degree-1 basis uncertified
    import numpy as np

    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    rng = np.random.default_rng(1)
    weights = [(10.0 ** rng.uniform(-6, 6, count)).tolist() for count in (9, 27, 18)]
    weights_path = tmp_path / "bad.json"
    weights_path.write_text(json.dumps({"weights": weights}))
    out = tmp_path / "best.json"
    args = ["search", complex_path, "--init", "file", "--weights", weights_path]
    assert run([*args, "-o", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: degree-1 harmonic basis has residual"), err
    assert not out.exists()


def test_search_writes_trace_next_to_output_by_default(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out = tmp_path / "best.json"
    args = ["search", complex_path, "--degrees", "1,2", "--max-iterations", "1"]
    assert run([*args, "-o", out]) == 0
    lines = (tmp_path / "best.trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,aggregate"
    assert len(lines) >= 2
    assert len(json.loads(out.read_text())["weights"]) == 3


def test_generate_dash_writes_the_file_bytes_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["generate", "torus:2", "-o", "t2.json"]) == 0
    capsys.readouterr()
    assert run(["generate", "torus:2", "-o", "-"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "t2.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t2.json"]


def test_search_dash_writes_the_weights_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(["generate", "torus:2", "-o", "t2.json"])
    args = ["search", "t2.json", "--max-iterations", "1"]
    assert run([*args, "-o", "best.json", "--trace", "best.csv"]) == 0
    capsys.readouterr()
    assert run([*args, "-o", "-", "--trace", "dash.csv"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "best.json").read_bytes()
    assert (tmp_path / "dash.csv").read_bytes() == (tmp_path / "best.csv").read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["best.csv", "best.json", "dash.csv", "t2.json"]


def test_search_trace_dash_writes_the_csv_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(["generate", "torus:2", "-o", "t2.json"])
    capsys.readouterr()
    args = ["search", "t2.json", "--max-iterations", "1", "-o", "w.json"]
    assert run([*args, "--trace", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "iteration,aggregate"
    K = load_complex("t2.json")
    _, trace = search_formal_weights(K, SearchConfig(max_iterations=1), unit_weights(K))
    assert lines[1:] == [f"{i},{value!r}" for i, value in enumerate(trace)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t2.json", "w.json"]


@pytest.mark.parametrize(
    "outputs, streamed, written",
    [
        (["-o", "./-", "--trace", "-"], "best.csv", "best.json"),
        (["-o", "-", "--trace", "./-"], "best.json", "best.csv"),
    ],
)
def test_search_streams_to_stdout_beside_a_file_named_dash(
    tmp_path, monkeypatch, capsys, outputs, streamed, written
):
    # ./- names a file called -, which is not the stdout stream -
    monkeypatch.chdir(tmp_path)
    run(["generate", "torus:2", "-o", "t2.json"])
    args = ["search", "t2.json", "--max-iterations", "1"]
    assert run([*args, "-o", "best.json", "--trace", "best.csv"]) == 0
    capsys.readouterr()
    assert run([*args, *outputs]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / streamed).read_bytes()
    assert (tmp_path / "-").read_bytes() == (tmp_path / written).read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["-", "best.csv", "best.json", "t2.json"]


@pytest.mark.parametrize(
    "outputs",
    [
        # the default trace path of stdout would be a file named -.trace.csv
        ["-o", "-"],
        # the trace would overwrite the weights
        ["-o", "best.json", "--trace", "./best.json"],
        # both would go to stdout
        ["-o", "-", "--trace", "-"],
    ],
)
def test_search_refuses_a_trace_path_it_cannot_write(tmp_path, monkeypatch, capsys, outputs):
    # refused before the complex is read: the missing file is never reported
    monkeypatch.chdir(tmp_path)
    assert run(["search", "missing.json", *outputs]) == 2
    captured = capsys.readouterr()
    assert "--trace" in captured.err and "missing.json" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_search_rejects_a_non_integer_degree(tmp_path):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out = tmp_path / "best.json"
    assert run(["search", complex_path, "--degrees", "1,x", "-o", out]) == 2
    assert not out.exists()


def test_search_error_names_the_degrees_flag(tmp_path, capsys):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    assert run(["search", complex_path, "--degrees", "1,x", "-o", tmp_path / "b.json"]) == 2
    assert "--degrees" in capsys.readouterr().err


def test_search_error_names_the_seed_flag(tmp_path, capsys):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out = tmp_path / "b.json"
    assert run(["search", complex_path, "--seed", "-1", "-o", out]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_search_error_names_the_max_iterations_flag(tmp_path, capsys):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out = tmp_path / "b.json"
    assert run(["search", complex_path, "--max-iterations", "-1", "-o", out]) == 2
    assert "--max-iterations" in capsys.readouterr().err
    assert not out.exists()


def test_search_error_names_the_degrees_flag_for_a_degree_out_of_range(tmp_path, capsys):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    out = tmp_path / "b.json"
    for degrees in ("7", "1,1"):
        assert run(["search", complex_path, "--degrees", degrees, "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --degrees must list distinct degrees in 0..2"), err
    assert not out.exists()


def test_json_errors_name_the_file(tmp_path, capsys):
    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    bad = tmp_path / "notjson.txt"
    bad.write_text("notjson\n")
    for args in (
        ["analyze", complex_path, "--weights", bad],
        ["analyze", bad],
        ["check", bad],
    ):
        assert run(args) == 2, args
        assert f"{bad}: not valid JSON" in capsys.readouterr().err, args


def test_analyze_exits_2_when_duality_fails(tmp_path, suspended_torus3):
    from hodgeform.complexes import save_complex

    complex_path = tmp_path / "st3.json"
    save_complex(suspended_torus3, complex_path)
    report_path = tmp_path / "report.json"
    assert run(["analyze", complex_path, "--all", "-o", report_path]) == 2
    report = json.loads(report_path.read_text())
    assert report["homology"]["poincare_duality"] is False
    assert report["hodge"]["intersection"] is None
    assert report["errors"] == {
        "obstructions": "intersection form requires the duality check to pass"
    }


def test_analyze_arpack_failure_exits_3(tmp_path, monkeypatch):
    import scipy.sparse.linalg

    def failing(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0))
        )

    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
    report_path = tmp_path / "report.json"
    assert run(["analyze", complex_path, "--all", "-o", report_path]) == 3
    error = json.loads(report_path.read_text())["errors"]["hodge"]
    assert error.startswith("degree-1 pencil eigensolve failed"), error


def test_analyze_tolerance_reaches_the_spectral_gap_bases(tmp_path, monkeypatch):
    # every Gram matrix reads 1e-10, which certifies at 1e-12 and not at
    # the default 1e-9, also for the bases the spectral gaps project with
    from hodgeform import hodge

    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    monkeypatch.setattr(hodge, "_rcond", lambda gram: 1e-10)
    report_path = tmp_path / "report.json"
    args = ["analyze", complex_path, "--hodge", "-o", report_path]
    assert run([*args, "--tolerance", "1e-12"]) == 0
    assert "errors" not in json.loads(report_path.read_text())
    assert run([*args, "--tolerance", "1e-9"]) == 3
    error = json.loads(report_path.read_text())["errors"]["hodge"]
    assert "reciprocal condition 1.000e-10 <= tolerance 1.000e-09" in error, error


# ---------------------------------------------------------------------------
# interpreter exit


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    # main only registers gc.freeze to run at exit: collection stays on and
    # nothing is frozen while a command runs, whatever its exit code
    import gc

    complex_path = tmp_path / "t2.json"
    run(["generate", "torus:2", "-o", complex_path])
    weights_path = tmp_path / "w.json"
    weights_path.write_text(json.dumps({"weights": [[1] * 9, [1e-300] + [1] * 26, [1] * 18]}))
    report = ["-o", tmp_path / "r.json"]
    cases = (
        (["analyze", complex_path, "--all", *report], 0),
        (["analyze", tmp_path / "missing.json", *report], 2),
        # a tiny weight fails the residual certificate
        (["analyze", complex_path, "--hodge", "--weights", weights_path, *report], 3),
    )
    for args, code in cases:
        before = gc.isenabled(), gc.get_freeze_count()
        assert run(args) == code, args
        assert (gc.isenabled(), gc.get_freeze_count()) == before, args


_EXIT_PROBE = """
import atexit, gc, sys
from hodgeform import cli
freezes = []
freeze = gc.freeze
def counted():
    freezes.append(gc.get_freeze_count())
    freeze()
gc.freeze = counted
# registered before main, so it runs after main's registration at exit
atexit.register(lambda: print(len(freezes), freezes[0], gc.get_freeze_count()))
for _ in range(2):
    assert cli.main(["generate", "torus:2", "-o", sys.argv[1]]) == 0
"""


def test_exit_freezes_the_heap_once(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(hodgeform.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", _EXIT_PROBE, str(tmp_path / "t2.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    calls, frozen_before, frozen_after = map(int, child.stdout.split())
    assert (calls, frozen_before) == (1, 0)
    assert frozen_after > 0


def run_console_script(args, cwd) -> subprocess.CompletedProcess:
    """A fresh process that runs ``main`` as the ``hodgeform`` console
    script does, exit included."""
    env = dict(os.environ, PYTHONPATH=str(Path(hodgeform.__file__).parents[1]))
    entry = "import sys; from hodgeform.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", entry, *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_fresh_processes_flush_their_output_and_exit_codes(tmp_path):
    assert run_console_script(["generate", "torus:2", "-o", "t2.json"], tmp_path).returncode == 0
    analyzed = run_console_script(["analyze", "t2.json", "--all", "-o", "-"], tmp_path)
    assert analyzed.returncode == 0, analyzed.stderr
    assert json.loads(analyzed.stdout)["homology"]["betti"] == [1, 2, 1]
    checked = run_console_script(["check", summaries_dir() / "k3.json"], tmp_path)
    assert checked.returncode == 1, checked.stderr
    assert json.loads(checked.stdout)["verdict"] == "obstructed"
    args = ["search", "t2.json", "-o", "w.json", "--trace", "-", "--max-iterations", "1"]
    searched = run_console_script(args, tmp_path)
    assert searched.returncode == 0, searched.stderr
    lines = searched.stdout.splitlines()
    assert lines[0] == "iteration,aggregate" and len(lines) >= 2
    assert "weights" in json.loads((tmp_path / "w.json").read_text())
