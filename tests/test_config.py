import json

import pytest

from depcoder.config import ConfigError, RunConfig


def test_desk_defaults():
    cfg = RunConfig()
    assert cfg.max_len == 512
    assert cfg.r_max == 8
    assert (cfg.layers, cfg.hidden, cfg.heads) == (2, 64, 4)
    assert (cfg.lr, cfg.warmup, cfg.steps, cfg.batch_size) == (3e-4, 100, 500, 8)
    assert cfg.flags_dep is False


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: bogus"):
        RunConfig.from_dict({"bogus": 1})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"hidden": 10, "heads": 4})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"max_len": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"on_unknown": "panic"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"dropout": 1.0})


@pytest.mark.parametrize("key, value", [("mdm_node_frac", 1.5), ("mdm_node_frac", -0.2),
                                        ("pool_k", 0)])
def test_sampling_and_pooling_values_out_of_range_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict({key: value})


def test_sampling_and_pooling_bounds_accepted():
    for frac in (0.0, 1.0):
        assert RunConfig.from_dict({"mdm_node_frac": frac}).mdm_node_frac == frac
    assert RunConfig.from_dict({"pool_k": 1}).pool_k == 1


def test_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"hidden": 32, "heads": 2, "seed": 9}))
    cfg = RunConfig.from_file(path)
    assert cfg.hidden == 32 and cfg.seed == 9
    assert cfg.steps == 500  # untouched defaults remain


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_unsupported_mnemonic_error_names_function(tmp_path):
    from depcoder.dependence import DependenceError, dependence_graph
    from depcoder.frontend import parse_listing

    fn = parse_listing(".func weird\ncpuid\n")[0]
    with pytest.raises(DependenceError, match="weird"):
        dependence_graph(fn)
