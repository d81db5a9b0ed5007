"""Tests for the experiment registry: schema, validation, lookup."""

import pytest

from repro.experiments.registry import (
    REGISTRY,
    DuplicateExperimentError,
    ExperimentRegistry,
    ExperimentSpec,
    Param,
    ParameterError,
    UnknownExperimentError,
    experiment,
)


class TestParam:
    def test_int_coercion(self):
        param = Param("count", "int", 5)
        assert param.coerce(7) == 7
        with pytest.raises(ParameterError):
            param.coerce(7.5)
        with pytest.raises(ParameterError):
            param.coerce(True)
        with pytest.raises(ParameterError):
            param.coerce("7")

    def test_float_widens_int(self):
        param = Param("distance", "float", 1.0)
        assert param.coerce(3) == 3.0
        assert isinstance(param.coerce(3), float)
        with pytest.raises(ParameterError):
            param.coerce("3.0")

    def test_bool_strictness(self):
        param = Param("flag", "bool", False)
        assert param.coerce(True) is True
        with pytest.raises(ParameterError):
            param.coerce(1)

    def test_float_seq_accepts_scalar_and_sequences(self):
        param = Param("axis", "float_seq", (1.0, 2.0))
        assert param.coerce(3) == (3.0,)
        assert param.coerce([1, 2.5]) == (1.0, 2.5)
        assert param.coerce((4,)) == (4.0,)
        with pytest.raises(ParameterError):
            param.coerce(["a"])
        with pytest.raises(ParameterError):
            param.coerce(True)

    def test_defaults_are_canonicalised(self):
        param = Param("axis", "float_seq", [1, 2])
        assert param.default == (1.0, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Param("x", "complex", 0)

    def test_parse_cli_strings(self):
        assert Param("n", "int", 1).parse("12") == 12
        assert Param("d", "float", 1.0).parse("2.5") == 2.5
        assert Param("f", "bool", False).parse("true") is True
        assert Param("f", "bool", False).parse("OFF") is False
        assert Param("s", "str", "a").parse("directional") == "directional"
        assert Param("axis", "float_seq", (1.0,)).parse("1,2.5,3") == \
            (1.0, 2.5, 3.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            Param("n", "int", 1).parse("twelve")
        with pytest.raises(ParameterError):
            Param("f", "bool", False).parse("maybe")
        with pytest.raises(ParameterError):
            Param("axis", "float_seq", (1.0,)).parse("1,banana")


class TestExperimentSpec:
    def _spec(self, **kwargs):
        defaults = dict(name="demo", title="Demo", function=lambda value=1: value,
                        params=(Param("value", "int", 1),), tags=("figure",))
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_resolve_applies_defaults_then_overrides(self):
        spec = self._spec()
        assert spec.resolve({}) == {"value": 1}
        assert spec.resolve({"value": 3}) == {"value": 3}

    def test_resolve_smoke_profile_then_overrides(self):
        spec = self._spec(smoke={"value": 9})
        assert spec.resolve({}, smoke=True) == {"value": 9}
        assert spec.resolve({"value": 2}, smoke=True) == {"value": 2}

    def test_unknown_override_rejected(self):
        with pytest.raises(ParameterError, match="no parameter"):
            self._spec().resolve({"bogus": 1})

    def test_ill_typed_override_rejected(self):
        with pytest.raises(ParameterError):
            self._spec().resolve({"value": "three"})

    def test_tags_required(self):
        with pytest.raises(ValueError, match="tags"):
            self._spec(tags=())

    def test_unknown_axis_scenario_module_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            self._spec(axes=("sideways",))
        with pytest.raises(ValueError, match="scenario"):
            self._spec(scenarios=("underwater",))
        with pytest.raises(ValueError, match="module"):
            self._spec(modules=("kernel",))

    def test_bad_smoke_profile_rejected_at_registration(self):
        with pytest.raises(ParameterError):
            self._spec(smoke={"bogus": 1})

    def test_describe_names_every_param(self):
        text = self._spec(smoke={"value": 2}).describe()
        assert "demo" in text
        assert "value (int) = 1" in text
        assert "[smoke: 2]" in text


class TestRegistry:
    def test_register_and_get(self):
        registry = ExperimentRegistry()

        @experiment("one", title="One", tags=("figure",), registry=registry)
        def _one():
            return 1

        assert "one" in registry
        assert registry.get("one").function() == 1

    def test_duplicate_rejected(self):
        registry = ExperimentRegistry()

        @experiment("dup", title="Dup", tags=("figure",), registry=registry)
        def _first():
            return 1

        with pytest.raises(DuplicateExperimentError):
            @experiment("dup", title="Dup again", tags=("figure",),
                        registry=registry)
            def _second():
                return 2

    def test_unknown_lookup_names_known_experiments(self):
        registry = ExperimentRegistry()
        with pytest.raises(UnknownExperimentError, match="unknown experiment"):
            registry.get("nope")

    def test_tag_filtering(self):
        registry = ExperimentRegistry()

        @experiment("a", title="A", tags=("figure",), registry=registry)
        def _a():
            return None

        @experiment("b", title="B", tags=("table", "network"),
                    registry=registry)
        def _b():
            return None

        assert registry.names("figure") == ("a",)
        assert registry.names("table") == ("b",)
        assert registry.names() == ("a", "b")
        assert registry.tags() == ("figure", "network", "table")
        assert len(registry) == 2


class TestCatalogue:
    """The registered catalogue covers the whole paper evaluation."""

    def test_every_figure_and_table_is_registered(self):
        names = set(REGISTRY.names())
        assert {"fig02", "fig08_10", "fig11", "table1", "fig12", "fig15",
                "fig16", "fig17", "fig18_19", "fig20", "fig21", "fig22",
                "fig23", "gain_surface", "coverage_map", "sec7_scheduling",
                "sec7_access", "iot_families"} <= names

    def test_paper_panels_are_registered_once_each(self):
        panels = [spec.name for spec in REGISTRY
                  if {"figure", "table"} & set(spec.tags)]
        assert len(panels) == len(set(panels))
        assert len(panels) >= 16

    def test_acceptance_fig15_distance_override(self):
        spec = REGISTRY.get("fig15")
        params = spec.resolve({"distance_cm": 30})
        assert params["distance_cm"] == (30.0,)

    def test_every_spec_has_summary_and_check(self):
        """Hooks, coverage metadata and, with params, a smoke profile —
        what CI's suite-wide smoke run and coverage audit rely on."""
        assert len(REGISTRY) >= 25
        for spec in REGISTRY:
            assert spec.summarize is not None, spec.name
            assert spec.check is not None, spec.name
            assert spec.scenarios or spec.axes or spec.modules, spec.name
            if spec.params:
                assert spec.smoke, spec.name

    def test_iot_families_covers_all_three_families(self):
        spec = REGISTRY.get("iot_families")
        assert set(spec.scenarios) == {"iot_wifi", "iot_ble", "iot_zigbee"}
