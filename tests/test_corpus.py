import copy

import pytest

from corpus import ABS_FLOOR, EXPECTED, REL_TOL, build_corpus, differences, load_expected, mask


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("corpus"))


def test_corpus_matches_expected(fresh):
    # A deliberate change of a verdict or a number rewrites the expected file
    # with `python tests/corpus.py --write`, so that the diff shows it.
    assert differences(load_expected(), fresh) == []


def test_expected_file_stays_small():
    assert EXPECTED.stat().st_size < 200_000


def test_differences_flag_moved_verdicts_and_numbers():
    expected = load_expected()
    assert differences(expected, copy.deepcopy(expected)) == []

    moved = copy.deepcopy(expected)
    moved["reference-2"]["certify"]["fields"]["verdict"] = "refuted"
    moved["reference-2"]["certify"]["exit"] = 1
    t1 = moved["reference-2"]["simulate"]["fields"]["t1_bell_value"]
    moved["reference-2"]["simulate"]["fields"]["t1_bell_value"] = t1 * (1 + 10 * REL_TOL)
    moved["seesaw-2,2,2"]["seesaw"]["fields"]["restart_values[0]"] += 1e-11
    del moved["scramble-6,5"]["certify"]["fields"]["state.residual"]
    assert [line.split(":")[0] for line in differences(expected, moved)] == [
        "reference-2 certify exit",
        "reference-2 certify verdict",
        "reference-2 simulate t1_bell_value",
        "scramble-6,5 certify state.residual",
        "seesaw-2,2,2 seesaw restart_values[0]",
    ]

    within = copy.deepcopy(expected)
    within["reference-2"]["simulate"]["fields"]["t1_bell_value"] = t1 * (1 + REL_TOL / 2)
    within["scramble-6,5"]["certify"]["fields"]["state.residual"] += ABS_FLOOR / 2
    assert differences(expected, within) == []


def test_mask_keeps_integers_and_hides_decimals():
    line = "conditioning event (0, 1) has 1.5e-13 <= 1e-10 of 2.0, nan"
    assert mask(line) == "conditioning event (0, 1) has # <= # of #, #"
