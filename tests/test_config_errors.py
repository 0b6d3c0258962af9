"""Tests for StandoffConfig and the error hierarchy."""

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    OPTION_END,
    OPTION_REGION,
    OPTION_START,
    OPTION_TYPE,
    StandoffConfig,
)
from repro import errors


class TestStandoffConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.position_type == "xs:integer"
        assert DEFAULT_CONFIG.start_name == "start"
        assert DEFAULT_CONFIG.end_name == "end"
        assert DEFAULT_CONFIG.region_name is None
        assert not DEFAULT_CONFIG.uses_region_elements

    def test_from_options(self):
        config = StandoffConfig.from_options({
            OPTION_TYPE: "xs:double",
            OPTION_START: "b",
            OPTION_END: "e",
            OPTION_REGION: "span",
        })
        assert config.position_type == "xs:double"
        assert config.uses_region_elements
        assert config.region_name == "span"

    def test_from_options_defaults(self):
        config = StandoffConfig.from_options({})
        assert config == DEFAULT_CONFIG

    def test_unknown_option_rejected(self):
        with pytest.raises(errors.XQueryStaticError):
            StandoffConfig.from_options({"standoff-oops": "x"})

    def test_bad_type_rejected(self):
        with pytest.raises(errors.XQueryStaticError):
            StandoffConfig(position_type="xs:duration")

    def test_equal_names_rejected(self):
        with pytest.raises(errors.XQueryStaticError):
            StandoffConfig(start_name="pos", end_name="pos")

    def test_empty_name_rejected(self):
        with pytest.raises(errors.XQueryStaticError):
            StandoffConfig(start_name="")

    def test_parse_position_integer(self):
        assert DEFAULT_CONFIG.parse_position(" 42 ") == 42
        assert isinstance(DEFAULT_CONFIG.parse_position("42"), int)

    def test_parse_position_double(self):
        config = StandoffConfig(position_type="xs:double")
        assert config.parse_position("2.5") == 2.5
        assert not config.integral_positions

    def test_parse_position_garbage(self):
        with pytest.raises(errors.RegionError):
            DEFAULT_CONFIG.parse_position("two")
        with pytest.raises(errors.RegionError):
            DEFAULT_CONFIG.parse_position("2.5")  # not an integer

    def test_hashable_for_cache_keys(self):
        a = StandoffConfig()
        b = StandoffConfig()
        assert hash(a) == hash(b)
        assert a == b
        assert len({a, b}) == 1


class TestErrorHierarchy:
    def test_everything_is_reproerror(self):
        leaf_types = [
            errors.RegionError,
            errors.XMLSyntaxError,
            errors.ShredError,
            errors.XQuerySyntaxError,
            errors.XQueryStaticError,
            errors.XQueryTypeError,
            errors.XQueryDynamicError,
            errors.UnsupportedFeatureError,
        ]
        for exc_type in leaf_types:
            assert issubclass(exc_type, errors.ReproError), exc_type
        # The DNF interrupt is raised from a SIGALRM handler at arbitrary
        # bytecode boundaries; it must escape broad `except Exception`
        # clauses, so it sits outside the library error hierarchy.
        assert issubclass(errors.BenchmarkTimeout, BaseException)
        assert not issubclass(errors.BenchmarkTimeout, Exception)

    def test_xquery_errors_carry_codes(self):
        error = errors.XQueryTypeError("bad")
        assert error.code == "err:XPTY0004"
        assert "[err:XPTY0004]" in str(error)

    def test_syntax_error_position(self):
        error = errors.XQuerySyntaxError("oops", line=3, column=7)
        assert error.line == 3
        assert "line 3" in str(error)

    def test_xml_error_position(self):
        error = errors.XMLSyntaxError("oops", line=2, column=5)
        assert "line 2" in str(error)

    def test_benchmark_timeout_budget(self):
        error = errors.BenchmarkTimeout("slow", 30.0)
        assert error.budget_seconds == 30.0

    def test_one_except_clause_catches_all(self):
        try:
            raise errors.XQueryDynamicError("x")
        except errors.ReproError:
            pass
