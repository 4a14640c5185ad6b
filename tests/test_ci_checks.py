"""The two tolerance rules of scripts/ci_checks.py, on synthetic rows."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci_checks.py"
_spec = importlib.util.spec_from_file_location("ci_checks", _SCRIPT)
ci_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_checks)

EST = 1e-9


def verify_json(moved=0.0, series=0.25, quadrature=0.25, all_passed=True):
    """A `verify --json` document; `moved` shifts the var_phi quadrature value."""
    return {"all_passed": all_passed, "rows": [
        {"name": "norm", "series": 1.0, "quadrature": 1.0, "est_error": 1e-12},
        {"name": "var_phi", "series": series, "quadrature": quadrature + moved, "est_error": EST},
    ]}


RING = {"cutoff": 1703, "tail_bound": 3.0e-9, "tail_err": 1e-13, "norm_tail": 5.0e-13}


class TestVerifyRule:
    def test_the_same_document_passes(self):
        assert ci_checks.verify_problems(verify_json(), verify_json()) == []

    @pytest.mark.parametrize("factor, passes", [(0.99, True), (-0.99, True), (1.01, False)])
    def test_a_value_may_move_by_its_est_error(self, factor, passes):
        problems = ci_checks.verify_problems(verify_json(), verify_json(moved=factor * EST))
        assert (problems == []) is passes

    @pytest.mark.parametrize(
        "base, head, passes", [(None, 0.25, False), (0.25, None, False), (None, None, True)]
    )
    def test_none_matches_only_none(self, base, head, passes):
        problems = ci_checks.verify_problems(verify_json(series=base), verify_json(series=head))
        assert (problems == []) is passes

    def test_all_passed_must_agree(self):
        assert ci_checks.verify_problems(verify_json(), verify_json(all_passed=False))

    def test_the_rows_must_agree(self):
        head = verify_json()
        head["rows"].pop(0)
        assert ci_checks.verify_problems(verify_json(), head) == ["the rows differ"]


class TestRingRule:
    def test_the_same_state_passes(self):
        assert ci_checks.ring_problems(RING, dict(RING)) == []

    def test_another_cutoff_fails(self):
        assert ci_checks.ring_problems(RING, dict(RING, cutoff=RING["cutoff"] + 1))

    @pytest.mark.parametrize("factor, passes", [(0.99, True), (1.01, False)])
    def test_tail_bound_may_move_by_the_base_tail_err(self, factor, passes):
        head = dict(RING, tail_bound=RING["tail_bound"] + factor * RING["tail_err"])
        assert (ci_checks.ring_problems(RING, head) == []) is passes

    @pytest.mark.parametrize("relative, passes", [(0.5e-6, True), (2e-6, False)])
    def test_norm_tail_may_move_by_a_millionth(self, relative, passes):
        head = dict(RING, norm_tail=RING["norm_tail"] * (1.0 + relative))
        assert (ci_checks.ring_problems(RING, head) == []) is passes
