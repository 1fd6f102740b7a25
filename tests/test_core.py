import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab.core import (
    _CONFIG_KEYS,
    ConfigError,
    ProtocolParams,
    load_config,
    paper_defaults,
    parse_config,
    require_valid,
    validate,
)


def test_paper_defaults_values():
    p = paper_defaults()
    assert p.eta_p == 0.9
    assert p.eta_s == 0.9
    assert p.eta_e1 == 0.05
    assert p.eta_e2 == 0.9
    assert p.eta_d == 0.9
    assert p.r == 39.2e6
    assert p.L == 1280.0
    assert p.L_att == 22.0
    assert p.c == 2.0e5
    assert p.n == 4
    assert p.p_d == 5e-6


def test_defaults_validate():
    assert validate(paper_defaults()).ok


def test_validate_names_offending_fields():
    bad = paper_defaults().with_overrides(eta_d=1.3)
    result = validate(bad)
    assert not result.ok
    assert result.violations == ("eta_d",)


def test_validate_reports_every_violation():
    bad = paper_defaults().with_overrides(eta_p=-0.1, r=0.0, p_d=1.0)
    result = validate(bad)
    assert set(result.violations) == {"eta_p", "r", "p_d"}


def test_degenerate_single_link_chain_is_valid():
    p = paper_defaults().with_overrides(n=0)
    assert validate(p).ok
    assert p.l0 == 1280.0


@pytest.mark.parametrize("field,value,ok", [
    ("eta_p", 0.0, True),
    ("eta_p", 1.0, True),
    ("p_d", 0.0, True),
    ("p_d", 0.999, True),
    ("p_d", 1.0, False),
    ("n", -1, False),
    ("L_att", -2.0, False),
])
def test_boundary_values(field, value, ok):
    p = paper_defaults().with_overrides(**{field: value})
    assert validate(p).ok == ok


def test_load_empty_document_gives_defaults():
    assert load_config("") == paper_defaults()
    assert load_config("  \n ") == paper_defaults()
    assert load_config("{}") == paper_defaults()


def test_load_partial_override():
    p = load_config('{"n": 6}')
    assert p == paper_defaults().with_overrides(n=6)
    assert p.l0 == 20.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="eta_q"):
        load_config('{"eta_q": 0.5}')


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        load_config('{"n": 6,\n "x" }')


@pytest.mark.parametrize("document, match", [
    ("[" * 100_000 + "]" * 100_000, "recursion"),
    ('{"n": 1' + "0" * 5000 + "}", "digits"),
    ('{"l_km": 1' + "0" * 400 + "}", "l_km"),
], ids=["deep-nesting", "5001-digit-n", "401-digit-l_km"])
def test_unparseable_numbers_and_nesting_rejected(document, match):
    with pytest.raises(ConfigError, match=match):
        load_config(document)


_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(doc=st.dictionaries(st.sampled_from(list(_CONFIG_KEYS)) | st.text(max_size=8),
                           _SCALARS | st.lists(_SCALARS, max_size=3), max_size=4))
def test_load_config_returns_valid_params_or_config_error(doc):
    # Any flat JSON object either loads to accepted parameters or is refused as a config error.
    try:
        params = load_config(json.dumps(doc))
    except ConfigError:
        return
    assert validate(params).ok


def test_non_integer_n_rejected():
    with pytest.raises(ConfigError, match="integer"):
        load_config('{"n": 4.0}')
    with pytest.raises(ConfigError, match="integer"):
        load_config('{"n": true}')


def test_invalid_value_rejected_with_field_name():
    with pytest.raises(ConfigError, match="eta_d"):
        load_config('{"eta_d": 1.5}')


def test_parse_config_checks_keys_and_types_not_ranges():
    # The range check is require_valid's, so that values can still be
    # overridden after parsing.
    params = parse_config('{"eta_d": 2, "n": -1}')
    assert (params.eta_d, params.n) == (2.0, -1)
    with pytest.raises(ConfigError, match="invalid parameter values for: eta_d, n"):
        require_valid(params)
    assert require_valid(params.with_overrides(eta_d=0.9, n=4)) == paper_defaults()
    for document, match in (('{"eta_q": 1}', "eta_q"), ('{"n": 4.0}', "integer"), ('{"eta_d": "x"}', "number")):
        with pytest.raises(ConfigError, match=match):
            parse_config(document)


def test_scientific_notation_accepted():
    p = load_config('{"p_d": 5e-7, "r_hz": 1.2e6}')
    assert p.p_d == 5e-7
    assert p.r == 1.2e6


def test_config_keys_name_every_field():
    # A config document can set every field, each through one key.
    assert sorted(_CONFIG_KEYS.values()) == sorted(ProtocolParams._fields)


def test_l0_times_2n_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = paper_defaults().with_overrides(
            L=float(rng.uniform(1, 5000)), n=int(rng.integers(0, 16))
        )
        assert p.l0 * 2**p.n == p.L


def test_l0_shrinks_with_n():
    p = paper_defaults()
    assert p.l0 == 80.0
    assert p.with_overrides(n=6).l0 == 20.0


def test_params_immutable():
    p = paper_defaults()
    with pytest.raises(AttributeError):
        p.eta_d = 0.5


def test_rate_report_record_keys():
    from repeaterlab.rates import t_total

    rec = t_total(paper_defaults()).to_record()
    assert list(rec) == ["eta_t", "p_l", "p_0", "p_swap", "t_l", "t_0", "t_total", "delta_f"]
    assert all(isinstance(v, float) for v in rec.values())


def test_config_must_be_object():
    with pytest.raises(ConfigError, match="flat JSON object"):
        load_config("[1, 2]")
