from __future__ import annotations

import pytest

from forumcast.config import (
    PipelineConfig,
    from_dict,
    load_config,
    save_config,
    to_dict,
    validate,
    validate_paths,
)
from forumcast.econometrics import ModelSpec, ModelTerm
from forumcast.errors import ConfigError


def valid_config(tmp_path) -> PipelineConfig:
    for name in ("messages.jsonl", "price.csv", "control.csv", "lexicon.csv"):
        (tmp_path / name).write_text("placeholder\n")
    return PipelineConfig(
        messages_path=str(tmp_path / "messages.jsonl"),
        price_path=str(tmp_path / "price.csv"),
        control_path=str(tmp_path / "control.csv"),
        lexicon_path=str(tmp_path / "lexicon.csv"),
        horizon_start="2020-01-06T00:00:00Z",
        focal_word="acme",
    )


def test_defaults_pass_validation(tmp_path):
    validate(valid_config(tmp_path))


def test_round_trip(tmp_path):
    config = valid_config(tmp_path)
    config.workers = 4
    config.correlation_lags = (0, 2)
    config.models = (ModelSpec("only", (ModelTerm("activity", 1),)),)
    path = tmp_path / "config.yaml"
    save_config(config, str(path))
    assert load_config(str(path)) == config

    # and a second save of the reloaded config is byte-identical
    again = tmp_path / "config2.yaml"
    save_config(load_config(str(path)), str(again))
    assert path.read_bytes() == again.read_bytes()


def test_dict_round_trip_preserves_tuples(tmp_path):
    config = valid_config(tmp_path)
    rebuilt = from_dict(to_dict(config))
    assert rebuilt == config
    assert isinstance(rebuilt.correlation_lags, tuple)
    assert isinstance(rebuilt.models[0].terms, tuple)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: focal_wrd"):
        from_dict({"focal_wrd": "x"})


def test_missing_required_fields(tmp_path):
    config = valid_config(tmp_path)
    config.focal_word = ""
    with pytest.raises(ConfigError, match="focal_word"):
        validate(config)


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("messages_format", "xml", "messages_format"),
        ("horizon_start", "last tuesday", "horizon_start"),
        ("horizon_weeks", 0, "horizon_weeks"),
        ("window_size", 0, "window_size"),
        ("betweenness_mode", "montecarlo", "betweenness_mode"),
        ("betweenness_samples", 0, "betweenness_samples"),
        ("workers", 0, "workers"),
        ("granger_max_lag", 0, "granger_max_lag"),
        ("correlation_lags", (-1,), "correlation_lags"),
        ("language", "klingon", "stopword"),
        ("granger_conditioning", ("bogus",), "bogus"),
    ],
)
def test_field_validation(tmp_path, field, value, fragment):
    config = valid_config(tmp_path)
    setattr(config, field, value)
    with pytest.raises(ConfigError, match=fragment):
        validate(config)


@pytest.mark.parametrize(
    "start,weeks", [("9999-12-01T00:00:00Z", 10), ("2020-01-06T00:00:00Z", 10**9)]
)
def test_horizon_end_must_be_representable(tmp_path, start, weeks):
    config = valid_config(tmp_path)
    config.horizon_start = start
    config.horizon_weeks = weeks
    with pytest.raises(ConfigError, match="ends past the last representable instant"):
        validate(config)


def test_sentiment_backend_exactly_one(tmp_path):
    config = valid_config(tmp_path)
    config.precomputed_sentiment_path = str(tmp_path / "scores.csv")
    with pytest.raises(ConfigError, match="not both"):
        validate(config)

    config.lexicon_path = None
    config.precomputed_sentiment_path = None
    with pytest.raises(ConfigError, match="required"):
        validate(config)


def test_model_validation(tmp_path):
    config = valid_config(tmp_path)

    config.models = ()
    with pytest.raises(ConfigError, match="at least one"):
        validate(config)

    config.models = (
        ModelSpec("m", (ModelTerm("activity"),)),
        ModelSpec("m", (ModelTerm("control"),)),
    )
    with pytest.raises(ConfigError, match="duplicate model"):
        validate(config)

    config.models = (ModelSpec("m", ()),)
    with pytest.raises(ConfigError, match="no terms"):
        validate(config)

    config.models = (ModelSpec("m", (ModelTerm("mystery"),)),)
    with pytest.raises(ConfigError, match="mystery"):
        validate(config)

    config.models = (ModelSpec("m", (ModelTerm("activity", -1),)),)
    with pytest.raises(ConfigError, match="negative lag"):
        validate(config)


def test_custom_stopwords_allow_any_language(tmp_path):
    config = valid_config(tmp_path)
    config.language = "klingon"
    config.stopwords_path = str(tmp_path / "stop.txt")
    validate(config)


def test_validate_paths_names_missing_file(tmp_path):
    config = valid_config(tmp_path)
    validate_paths(config)
    config.price_path = str(tmp_path / "gone.csv")
    with pytest.raises(ConfigError, match="price_path"):
        validate_paths(config)


def test_models_parse_errors():
    with pytest.raises(ConfigError, match="must be a list"):
        from_dict({"models": {"name": "m"}})
    with pytest.raises(ConfigError, match="'name' and 'terms'"):
        from_dict({"models": [{"name": "m"}]})
    with pytest.raises(ConfigError, match="needs 'column'"):
        from_dict({"models": [{"name": "m", "terms": [{"lag": 1}]}]})


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("messages_path: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(str(path))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))


def test_empty_file_yields_defaults_then_fails_validation(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="required"):
        load_config(str(path))
