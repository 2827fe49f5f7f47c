import itertools
from importlib import resources

import pytest

from hodgeform.obstructions import (
    CohomologySummary,
    check_obstructions,
    classify_symmetric_model,
    load_summary,
    summarize,
    summary_to_dict,
)


def bundled(name):
    return resources.files("hodgeform.data").joinpath(f"summaries/{name}.json")


# ---------------------------------------------------------------------------
# summaries


def test_summarize_three_torus(tori):
    s = summarize(tori[3])
    assert s.dimension == 3
    assert s.betti == (1, 3, 3, 1)
    assert not s.has_middle_data


def test_summarize_product_of_spheres(s2xs2):
    s = summarize(s2xs2)
    assert s.dimension == 4
    assert (s.b_plus, s.b_minus, s.signature) == (1, 1, 0)


def test_summarize_genus_two(surfaces):
    s = summarize(surfaces[2])
    assert s.betti == (1, 4, 1)
    assert not s.has_middle_data
    assert s.euler_characteristic == -2


def test_summarize_rejects_non_orientable(rp2):
    with pytest.raises(ValueError):
        summarize(rp2)


def test_summary_validation():
    with pytest.raises(ValueError):
        CohomologySummary(2, (1, 0))  # wrong length
    with pytest.raises(ValueError):
        CohomologySummary(4, (1, 0, 2, 0, 1), b_plus=2, b_minus=1)  # sum mismatch
    with pytest.raises(ValueError):
        CohomologySummary(3, (1, 1, 1, 1), b_plus=1, b_minus=0)  # odd dimension
    with pytest.raises(ValueError):
        CohomologySummary(2, (1, -1, 1))
    with pytest.raises(ValueError):
        CohomologySummary(4, (1, 0, 1, 0, 1), b_plus=1)  # one-sided middle data


def test_middle_data_needs_dimension_divisible_by_four():
    # the middle pairing in dimension 4m + 2 is skew: it has no b+ or b-
    with pytest.raises(ValueError, match="divisible by four"):
        CohomologySummary(2, (1, 2, 1), b_plus=2, b_minus=0)
    with pytest.raises(ValueError, match="divisible by four"):
        CohomologySummary(6, (1, 0, 0, 2, 0, 0, 1), b_plus=1, b_minus=1)
    CohomologySummary(0, (2,), b_plus=1, b_minus=1)
    CohomologySummary(8, (1, 0, 0, 0, 2, 0, 0, 0, 1), b_plus=1, b_minus=1)


def test_list_betti_vector_reads_as_tuple():
    as_list = CohomologySummary(4, [1, 0, 2, 0, 1], b_plus=1, b_minus=1)
    as_tuple = CohomologySummary(4, (1, 0, 2, 0, 1), b_plus=1, b_minus=1)
    assert as_list.betti == as_tuple.betti == (1, 0, 2, 0, 1)
    assert check_obstructions(as_list).to_dict() == check_obstructions(as_tuple).to_dict()
    assert check_obstructions(as_list).model == "S^2 x S^2"


# ---------------------------------------------------------------------------
# rule corpus


def test_genus_two_fires_exactly_r1_and_r5(surfaces):
    report = check_obstructions(summarize(surfaces[2]))
    assert report.verdict == "obstructed"
    assert report.fired_ids == ("R1", "R5")


def test_k3_summary_fires_r1_r2_r11():
    report = check_obstructions(load_summary(bundled("k3")))
    assert report.verdict == "obstructed"
    assert report.fired_ids == ("R1", "R2", "R11")


def test_k3_verdict_payload():
    assert check_obstructions(load_summary(bundled("k3"))).to_dict() == {
        "verdict": "obstructed",
        "fired": [
            {
                "rule": "R1",
                "citation": "every degree-k Betti number is bounded by the k-th binomial "
                "coefficient C(n, k), the value attained by the n-torus",
                "violation": "b_2 = 22 > 6 = C(4,2)",
            },
            {
                "rule": "R2",
                "citation": "in dimension 4m the middle self-dual and anti-self-dual ranks "
                "are bounded by their torus values C(n, n/2)/2",
                "violation": "b- = 19 > 3",
            },
            {
                "rule": "R11",
                "citation": "dimension 4 with b_1 = 0: b+ = 3 and b- = 3 are impossible "
                "(the characteristic-number count 4 + 5*b+ - b- cannot vanish), "
                "leaving only the values 0 and 1",
                "violation": "b+ = 3",
            },
        ],
        "not_evaluated": [],
        "model": None,
    }


def test_four_torus_passes(tori):
    report = check_obstructions(summarize(tori[4]))
    assert report.verdict == "passes-elementary-tests"
    assert report.fired_ids == ()
    assert report.model == "T^4"


def test_first_betti_gap_rule():
    s = CohomologySummary(4, (1, 3, 4, 3, 1), b_plus=2, b_minus=2)
    report = check_obstructions(s)
    assert report.fired_ids == ("R3", "R7")


def test_euler_rule_in_dimension_three():
    s = CohomologySummary(3, (1, 1, 0, 1))
    report = check_obstructions(s)
    assert "R4" in report.fired_ids


def test_dimension_two_owned_by_r5_not_r4():
    s = CohomologySummary(2, (1, 4, 1))
    report = check_obstructions(s)
    assert "R5" in report.fired_ids
    assert "R4" not in report.fired_ids


def test_dimension_four_b1_one_requires_vanishing_b2():
    s = CohomologySummary(4, (1, 1, 2, 1, 1), b_plus=1, b_minus=1)
    report = check_obstructions(s)
    assert "R9" in report.fired_ids


def test_dimension_four_b1_two_requires_hyperbolic_middle():
    s = CohomologySummary(4, (1, 2, 2, 2, 1), b_plus=2, b_minus=0)
    report = check_obstructions(s)
    assert "R8" in report.fired_ids


def test_even_nonzero_middle_rank_fires_r10():
    s = CohomologySummary(4, (1, 0, 2, 0, 1), b_plus=2, b_minus=0)
    report = check_obstructions(s)
    assert "R10" in report.fired_ids


def test_missing_middle_data_is_marked():
    s = CohomologySummary(4, (1, 0, 22, 0, 1))
    report = check_obstructions(s)
    assert report.fired_ids == ("R1",)
    assert report.not_evaluated == ["R10", "R11", "R2"]


def test_rules_report_every_violation():
    s = CohomologySummary(4, (1, 8, 8, 8, 1), b_plus=4, b_minus=4)
    report = check_obstructions(s)
    fired = set(report.fired_ids)
    assert {"R1", "R2", "R7"} <= fired
    r1 = next(r for r in report.fired if r.rule == "R1")
    assert "b_1" in r1.violation and "b_2" in r1.violation


def test_checker_is_pure():
    s1 = CohomologySummary(4, (1, 0, 22, 0, 1), b_plus=3, b_minus=19)
    s2 = CohomologySummary(4, (1, 0, 22, 0, 1), b_plus=3, b_minus=19)
    assert check_obstructions(s1).to_dict() == check_obstructions(s2).to_dict()


def test_adding_middle_data_only_adds_fired_rules():
    cases = [
        ((1, 0, 22, 0, 1), 3, 19),
        ((1, 2, 2, 2, 1), 2, 0),
        ((1, 0, 2, 0, 1), 1, 1),
        ((1, 4, 6, 4, 1), 3, 3),
    ]
    for betti, plus, minus in cases:
        without = check_obstructions(CohomologySummary(4, betti))
        with_data = check_obstructions(
            CohomologySummary(4, betti, b_plus=plus, b_minus=minus)
        )
        assert set(without.fired_ids) <= set(with_data.fired_ids)


# (summary, fired (rule, violation) pairs, rules not evaluated)
PINNED_REPORTS = [
    (
        (4, (1, 8, 8, 8, 1), 4, 4),
        [
            ("R1", "b_1 = 8 > 4 = C(4,1); b_2 = 8 > 6 = C(4,2); b_3 = 8 > 4 = C(4,3)"),
            ("R2", "b+ = 4 > 3; b- = 4 > 3"),
            ("R4", "b_1 = 8 != 0 but chi = -6 != 0"),
            ("R7", "b_1 = 8 not in {0, 1, 2, 4}"),
        ],
        [],
    ),
    (
        (4, (1, 3, 4, 3, 1), 2, 2),
        [("R3", "b_1 = 3 = n - 1"), ("R7", "b_1 = 3 not in {0, 1, 2, 4}")],
        [],
    ),
    ((3, (1, 1, 0, 1), None, None), [("R4", "b_1 = 1 != 0 but chi = -1 != 0")], []),
    (
        (2, (1, 4, 1), None, None),
        [("R1", "b_1 = 4 > 2 = C(2,1)"), ("R5", "b_1 * chi = 4 * -2 = -8 != 0")],
        [],
    ),
    (
        (3, (1, 2, 2, 1), None, None),
        [("R3", "b_1 = 2 = n - 1"), ("R6", "b_1 = 2 not in {0, 1, 3}")],
        [],
    ),
    ((4, (1, 2, 2, 2, 1), 2, 0), [("R8", "(b+, b-) = (2, 0) != (1, 1)")], []),
    ((4, (1, 2, 2, 2, 1), None, None), [], ["R2", "R8"]),
    (
        (4, (1, 1, 2, 1, 1), None, None),
        [("R4", "b_1 = 1 != 0 but chi = 2 != 0"), ("R9", "b_2 = 2 != 0")],
        ["R2"],
    ),
    (
        (4, (1, 0, 4, 0, 1), 2, 2),
        [("R10", "b+ = 2 is even and nonzero; b- = 2 is even and nonzero")],
        [],
    ),
    (
        (4, (1, 0, 22, 0, 1), 3, 19),
        [("R1", "b_2 = 22 > 6 = C(4,2)"), ("R2", "b- = 19 > 3"), ("R11", "b+ = 3")],
        [],
    ),
    (
        (4, (1, 0, 22, 0, 1), None, None),
        [("R1", "b_2 = 22 > 6 = C(4,2)")],
        ["R10", "R11", "R2"],
    ),
    ((4, (1, 0, 6, 0, 1), 3, 3), [("R11", "b+ = 3; b- = 3")], []),
    (
        (8, (1, 0, 0, 0, 72, 0, 0, 0, 1), 36, 36),
        [("R1", "b_4 = 72 > 70 = C(8,4)"), ("R2", "b+ = 36 > 35; b- = 36 > 35")],
        [],
    ),
    ((0, (2,), 1, 1), [("R1", "b_0 = 2 > 1 = C(0,0)")], []),
    (
        (1, (2, 0), None, None),
        [("R1", "b_0 = 2 > 1 = C(1,0)"), ("R3", "b_1 = 0 = n - 1")],
        [],
    ),
]


def test_every_rule_fires_with_its_pinned_violation():
    fired_rules = set()
    for (n, betti, plus, minus), fired, not_evaluated in PINNED_REPORTS:
        report = check_obstructions(
            CohomologySummary(n, betti, b_plus=plus, b_minus=minus)
        )
        assert [(r.rule, r.violation) for r in report.fired] == fired, betti
        assert report.not_evaluated == not_evaluated, betti
        assert report.verdict == ("obstructed" if fired else "passes-elementary-tests")
        assert report.model is None
        fired_rules.update(rule for rule, _ in fired)
    assert fired_rules == {f"R{i}" for i in range(1, 12)}


# ---------------------------------------------------------------------------
# classification


MODEL_ROWS = [
    ((0, (1,), None, None), "point"),
    ((1, (1, 1), None, None), "S^1"),
    ((2, (1, 0, 1), None, None), "S^2"),
    ((2, (1, 2, 1), None, None), "T^2"),
    ((3, (1, 0, 0, 1), None, None), "S^3 (rational)"),
    ((3, (1, 1, 1, 1), None, None), "S^2 x S^1"),
    ((3, (1, 3, 3, 1), None, None), "T^3"),
    ((4, (1, 0, 0, 0, 1), None, None), "S^4 (rational)"),
    ((4, (1, 1, 0, 1, 1), None, None), "S^3 x S^1"),
    ((4, (1, 0, 1, 0, 1), 1, 0), "CP^2"),
    ((4, (1, 0, 1, 0, 1), 0, 1), "reversed CP^2"),
    ((4, (1, 0, 2, 0, 1), 1, 1), "S^2 x S^2"),
    ((4, (1, 2, 2, 2, 1), 1, 1), "S^2 x T^2"),
    ((4, (1, 4, 6, 4, 1), 3, 3), "T^4"),
]


def test_every_model_row_is_matched():
    for (n, betti, plus, minus), model in MODEL_ROWS:
        s = CohomologySummary(n, betti, b_plus=plus, b_minus=minus)
        assert classify_symmetric_model(s) == model
        report = check_obstructions(s)
        assert report.verdict == "passes-elementary-tests"
        assert report.model == model
    unmatched = [
        CohomologySummary(2, (1, 2, 1), orientable=False),
        CohomologySummary(4, (1, 0, 2, 0, 1)),
        CohomologySummary(4, (1, 0, 2, 0, 1), b_plus=2, b_minus=0),
        CohomologySummary(3, (1, 0, 1, 1)),
    ]
    for s in unmatched:
        assert classify_symmetric_model(s) is None, summary_to_dict(s)


def test_model_labels_for_bundled_summaries():
    expected = {
        "s2xt2": "S^2 x T^2",
        "s3xs1": "S^3 x S^1",
        "t4": "T^4",
        "cp2": "CP^2",
        "s2xs2": "S^2 x S^2",
    }
    for stem, model in expected.items():
        report = check_obstructions(load_summary(bundled(stem)))
        assert report.verdict == "passes-elementary-tests"
        assert report.model == model


def test_reversed_complex_plane_label():
    s = CohomologySummary(4, (1, 0, 1, 0, 1), b_plus=0, b_minus=1)
    assert classify_symmetric_model(s) == "reversed CP^2"


def test_low_dimensional_labels():
    assert classify_symmetric_model(CohomologySummary(2, (1, 0, 1))) == "S^2"
    assert classify_symmetric_model(CohomologySummary(2, (1, 2, 1))) == "T^2"
    assert (
        classify_symmetric_model(CohomologySummary(3, (1, 1, 1, 1))) == "S^2 x S^1"
    )
    assert classify_symmetric_model(CohomologySummary(1, (1, 1))) == "S^1"


def test_classification_rejects_high_dimension():
    with pytest.raises(ValueError):
        classify_symmetric_model(CohomologySummary(5, (1, 0, 0, 0, 0, 1)))


def enumerate_consistent_summaries(max_entry):
    """All duality-symmetric summaries with n <= 4, b_0 = b_n = 1 and full
    middle data when the middle form is symmetric."""
    yield CohomologySummary(1, (1, 1))
    for b1 in range(max_entry + 1):
        yield CohomologySummary(2, (1, b1, 1))
    for b1 in range(max_entry + 1):
        yield CohomologySummary(3, (1, b1, b1, 1))
    for b1 in range(max_entry + 1):
        for b2 in range(max_entry + 1):
            for plus in range(b2 + 1):
                yield CohomologySummary(
                    4, (1, b1, b2, b1, 1), b_plus=plus, b_minus=b2 - plus
                )


def test_passing_summaries_always_classify():
    examined = passing = 0
    for s in enumerate_consistent_summaries(5):
        examined += 1
        report = check_obstructions(s)
        if report.verdict == "passes-elementary-tests":
            passing += 1
            assert report.model is not None, summary_to_dict(s)
    assert examined == 139  # 1 + 6 + 6 + 6*6*(mean splittings)
    assert passing >= 10


# ---------------------------------------------------------------------------
# file format


def test_load_summary_roundtrip(tmp_path):
    import json

    payload = {
        "name": "demo",
        "dimension": 4,
        "betti": [1, 0, 2, 0, 1],
        "orientable": True,
        "b_plus": 1,
        "b_minus": 1,
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(payload))
    s = load_summary(path)
    assert summary_to_dict(s) == payload


def test_load_summary_rejects_bad_files(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValueError):
        load_summary(path)
    path.write_text("[not, a, summary]")
    with pytest.raises(ValueError):
        load_summary(path)
    good = {"name": "T^2", "dimension": 2, "betti": [1, 2, 1], "orientable": True}
    bad_fields = [
        {"dimension": 2.0},
        {"dimension": "2"},
        {"dimension": True},
        {"dimension": None},
        {"betti": [1, 2.7, 1]},
        {"betti": [1, "2", 1]},
        {"betti": [1, True, 1]},
        {"betti": "121"},
        {"orientable": "false"},
        {"orientable": 0},
        {"name": 7},
    ]
    middle = {"dimension": 4, "betti": [1, 0, 2, 0, 1], "b_plus": 1, "b_minus": 1}
    bad_middle = [{"b_plus": 1.0}, {"b_minus": "1"}, {"b_plus": False, "b_minus": 2}]
    for payload in (good, {**good, **middle}):
        path.write_text(json.dumps(payload))
        load_summary(path)
    payloads = [{**good, **bad} for bad in bad_fields]
    payloads += [{**good, **middle, **bad} for bad in bad_middle]
    for payload in payloads:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_summary(path)
        # the constructor refuses the same fields from a library caller
        with pytest.raises(ValueError):
            CohomologySummary(**payload)


def test_load_summary_names_unknown_keys(tmp_path):
    import json

    # a misspelt key is named, not dropped
    path = tmp_path / "typo.json"
    payload = {"dimension": 4, "betti": [1, 0, 2, 0, 1], "b+": 1, "b-": 1}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown summary keys 'b\\+', 'b-'"):
        load_summary(path)


def test_suspended_torus_fails_duality(suspended_torus3):
    from hodgeform.cup import intersection_form
    from hodgeform.homology import betti_numbers, poincare_duality_check

    K = suspended_torus3
    assert K.f_vector == (29, 243, 702, 810, 324)
    assert betti_numbers(K) == (1, 0, 3, 3, 1)
    assert poincare_duality_check(K) is False
    with pytest.raises(ValueError, match="requires the duality check to pass"):
        intersection_form(K)
    with pytest.raises(ValueError, match="requires the duality check to pass"):
        summarize(K)
