"""Family metadata, built-in rules, and the custom-family JSON interface."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unclab import (
    InvalidParameter,
    build_spectrum,
    exponential_family,
    family_from_dict,
    load_family,
    polynomial_family,
    single_mode_family,
    table_family,
    two_mode_family,
)


class TestBuiltins:
    def test_exponential_rule(self):
        fam = exponential_family()
        n = np.array([-3, -1, 0, 2, 5])
        got = fam.coefficients(n, 0.7)
        np.testing.assert_allclose(got, np.exp(-0.7 * np.abs(n)), rtol=0, atol=0)
        assert fam.is_real and fam.is_symmetric

    def test_polynomial_rule_zeroes_origin(self):
        fam = polynomial_family()
        got = fam.coefficients(np.array([-2, 0, 3]), 1.7)
        assert got[1] == 0.0
        np.testing.assert_allclose(got[0], 2.0**-1.7)
        np.testing.assert_allclose(got[2], 3.0**-1.7)

    def test_symmetry_metadata_holds_on_samples(self):
        for fam in (exponential_family(), polynomial_family(), two_mode_family()):
            assert fam.is_symmetric
            n = np.arange(1, 30)
            for a in (0.3, 1.0, 4.0):
                cp = np.abs(fam.coefficients(n, a))
                cm = np.abs(fam.coefficients(-n, a))
                np.testing.assert_array_equal(cp, cm)

    def test_real_metadata(self):
        fam = table_family("cplx", {0: 1.0, 1: 1j})
        assert not fam.is_real
        assert table_family("re", {0: 1.0, 2: -0.5}).is_real

    def test_table_index_at_int64_min_is_rejected(self):
        # np.abs(-2^63) wraps to -2^63, which would drop the mode from the support
        with pytest.raises(InvalidParameter, match="entry n=-9223372036854775808"):
            table_family("t", {0: 1.0, -2**63: 1.0})

    def test_single_mode_support(self):
        fam = single_mode_family(3)
        assert fam.support_hint == 3
        got = fam.coefficients(np.array([2, 3, 4]), 1.0)
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])

    def test_builtins_are_shared_values(self):
        assert exponential_family() is exponential_family()
        assert polynomial_family() is polynomial_family()
        assert exponential_family() != polynomial_family()

    @pytest.mark.parametrize(
        "m, is_symmetric", [(-3, False), (0, True), (2, False)]
    )
    def test_single_mode_pinned(self, m, is_symmetric):
        fam = single_mode_family(m)
        assert fam.name == f"mode{m}"
        assert fam.is_real
        assert fam.is_symmetric == is_symmetric
        assert fam.support_hint == abs(m)
        n = np.arange(-6, 7)
        for alpha in (0.1, 1.0, 30.0):
            got = fam.coefficients(n, alpha)
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, (n == m).astype(float))

    def test_exponential_rule_clamp_changes_no_amplitude(self):
        # past alpha ~ 745.2 every |n| >= 1 amplitude is already exactly 0.0
        fam = exponential_family()
        n = np.arange(-16, 17)
        alphas = np.concatenate(
            (np.geomspace(1e-300, 1e308, 400), np.linspace(744.0, 748.0, 401))
        )
        for alpha in alphas.tolist():
            with np.errstate(over="ignore"):
                want = np.exp(-alpha * np.abs(n))
            np.testing.assert_array_equal(fam.coefficients(n, alpha), want)

    def test_exponential_infinite_alpha_is_the_delta_state(self):
        got = exponential_family().coefficients(np.arange(-3, 4), math.inf)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        s = build_spectrum(exponential_family(), math.inf)
        assert s.cutoff == 0
        np.testing.assert_array_equal(s.coeffs, [1.0])

    def test_alpha_domain(self):
        with pytest.raises(InvalidParameter):
            exponential_family().coefficients(np.array([0]), 0.0)
        with pytest.raises(InvalidParameter):
            exponential_family().coefficients(np.array([0]), -1.0)


class TestJsonInterface:
    def spec_single_mode(self):
        return {
            "name": "single",
            "symmetric": True,
            "real": True,
            "entries": [{"n": 0, "expr": "exp"}],
        }

    def test_single_mode_spec(self):
        fam = family_from_dict(self.spec_single_mode())
        got = fam.coefficients(np.array([-1, 0, 1]), 2.0)
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])
        assert fam.support_hint == 0

    def test_exp_and_poly_entries_with_scale(self):
        fam = family_from_dict(
            {
                "name": "mix",
                "symmetric": False,
                "real": True,
                "entries": [
                    {"n": 1, "expr": "exp", "scale": 2.0},
                    {"n": -2, "expr": "poly"},
                ],
            }
        )
        got = fam.coefficients(np.array([-2, 1]), 1.5)
        np.testing.assert_allclose(got[0], 2.0**-1.5)
        np.testing.assert_allclose(got[1], 2.0 * math.exp(-1.5))

    def test_table_entries(self):
        fam = family_from_dict(
            {
                "name": "tab",
                "symmetric": True,
                "real": False,
                "entries": [{"n": 1, "expr": "table"}, {"n": -1, "expr": "table"}],
                "table": {
                    "0.5": [[1, 0.25, 0.5], [-1, 0.25, -0.5]],
                    "1.0": [[1, 0.1, 0.0], [-1, 0.1, 0.0]],
                },
            }
        )
        got = fam.coefficients(np.array([-1, 1]), 0.5)
        np.testing.assert_allclose(got, [0.25 - 0.5j, 0.25 + 0.5j])
        got = fam.coefficients(np.array([1]), 1.0)
        np.testing.assert_allclose(got, [0.1])
        with pytest.raises(InvalidParameter):
            fam.coefficients(np.array([1]), 0.75)  # alpha not tabulated

    def test_load_family_roundtrip(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(self.spec_single_mode()))
        fam = load_family(path)
        assert fam.name == "single"

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("name"),
            lambda d: d.pop("entries"),
            lambda d: d.update(entries=[]),
            lambda d: d.update(entries=[{"n": 0, "expr": "nope"}]),
            lambda d: d.update(entries=[{"n": 0, "expr": "poly"}]),
            lambda d: d.update(entries=[{"n": 0, "expr": "exp"}, {"n": 0, "expr": "exp"}]),
            lambda d: d.update(entries=[{"n": 1, "expr": "table"}]),
        ],
    )
    def test_schema_violations(self, mutation):
        spec = self.spec_single_mode()
        mutation(spec)
        with pytest.raises(InvalidParameter):
            family_from_dict(spec)

    def test_malformed_document_names_the_field(self, malformed_spec):
        spec, field = malformed_spec
        with pytest.raises(InvalidParameter, match=field):
            family_from_dict(spec)

    def test_numpy_flags_and_scales_are_accepted(self):
        spec = dict(
            self.spec_single_mode(),
            symmetric=np.bool_(True),
            real=np.bool_(True),
            entries=[{"n": -1, "expr": "exp", "scale": np.int64(2)},
                     {"n": 1, "expr": "exp", "scale": np.float64(2.0)}],
        )
        fam = family_from_dict(spec)
        assert fam.is_symmetric is True and fam.is_real is True
        got = fam.coefficients(np.array([-1, 1]), 1.0)
        np.testing.assert_array_equal(got, [2.0 * math.exp(-1.0)] * 2)

    def test_real_flag_contradicting_table(self):
        with pytest.raises(InvalidParameter):
            family_from_dict(
                {
                    "name": "bad",
                    "symmetric": True,
                    "real": True,
                    "entries": [{"n": 1, "expr": "table"}],
                    "table": {"1.0": [[1, 0.0, 0.3]]},
                }
            )

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidParameter):
            load_family(path)

    def test_unreadable_file_names_the_path(self, unreadable_document):
        path, reason = unreadable_document
        with pytest.raises(InvalidParameter) as info:
            load_family(path)
        assert str(info.value).startswith(f"{path}: not valid UTF-8 JSON (")
        assert reason in str(info.value)


_INDEX = st.integers(-40, 40)


@given(
    entries=st.dictionaries(
        _INDEX, st.complex_numbers(max_magnitude=1e3, allow_nan=False), max_size=12
    ),
    queries=st.lists(_INDEX, max_size=60),
)
@example(entries={}, queries=[0, 0, -1])
@example(entries={-2: 1.0, 0: 2j, 5: -1.0}, queries=[-2, -2, 0, 5, 7, -9, 1])
def test_finite_support_rule_matches_a_dict_lookup(entries, queries):
    # negative, zero, repeated and out-of-support queries, and empty tables
    fam = table_family("t", entries)
    got = fam.coefficients(np.array(queries, dtype=np.int64), 1.0)
    want = np.array([entries.get(k, 0.0) for k in queries], dtype=np.complex128)
    assert got.tolist() == want.tolist()
    assert fam.support_hint == max(map(abs, entries), default=0)
