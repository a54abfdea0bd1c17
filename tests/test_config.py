import json
import math
import re
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcsr.aggregation import MabConfig
from mcsr.cli import main
from mcsr.config import ModelConfig, default_config, from_json, to_json
from mcsr.errors import InputError
from mcsr.imageio import write_image
from mcsr.losses import LossWeights
from mcsr.matching import MatchConfig
from mcsr.swin import StgConfig
from test_pipeline import TINY


class TestDefaults:
    def test_golden_default_serialization(self):
        payload = json.loads(to_json(default_config()))
        assert payload == {
            "uf": 4,
            "channels": 32,
            "stg": {
                "num_rstb": 4,
                "stl_per_rstb": 6,
                "embed_dim": 32,
                "num_heads": 4,
                "window": 8,
                "mlp_ratio": 2.0,
            },
            "match": {
                "patch_size": 13,
                "center_size": 7,
                "region_size": 3,
            },
            "sab_stats_source": "pre",
            "global_residual": True,
            "loss": {
                "lambda_rec": 1.0,
                "lambda_dc": 0.0001,
                "noise_level": "infinity",
            },
            "seed": 0,
        }

    def test_readme_config_block_is_the_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == json.loads(to_json(default_config()))

    def test_round_trip(self):
        cfg = ModelConfig(
            uf=2,
            channels=16,
            stg=StgConfig(num_rstb=2, stl_per_rstb=3, embed_dim=16, num_heads=4,
                          window=4, mlp_ratio=1.5),
            match=MatchConfig(patch_size=9, center_size=5, region_size=2),
            sab_stats_source="post",
            global_residual=False,
            loss=LossWeights(lambda_rec=0.9, lambda_dc=0.002, noise_level=3.0),
            seed=11,
        )
        assert from_json(to_json(cfg)) == cfg

    def test_partial_json_fills_defaults(self):
        cfg = from_json('{"uf": 2}')
        assert cfg.uf == 2
        assert cfg.match.patch_size == 13
        assert cfg.stg.num_rstb == 4


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(InputError):
            from_json('{"ufx": 4}')

    def test_unknown_nested_key(self):
        with pytest.raises(InputError):
            from_json('{"stg": {"layers": 3}}')

    def test_invalid_json(self):
        with pytest.raises(InputError):
            from_json("{not json")

    def test_bad_uf(self):
        with pytest.raises(InputError):
            from_json('{"uf": 3}')

    def test_channels_must_match_embed(self):
        with pytest.raises(InputError):
            from_json('{"channels": 16}')

    def test_noise_level_string(self):
        assert math.isinf(from_json('{"loss": {"noise_level": "infinity"}}').loss.noise_level)
        assert from_json('{"loss": {"noise_level": 2.5}}').loss.noise_level == 2.5

    def test_negative_noise_level(self):
        with pytest.raises(InputError):
            from_json('{"loss": {"noise_level": -1}}')

    def test_bad_noise_string(self):
        with pytest.raises(InputError):
            from_json('{"loss": {"noise_level": "lots"}}')

    def test_bad_stats_source(self):
        with pytest.raises(InputError):
            from_json('{"sab_stats_source": "mid"}')

    def test_seed_beyond_64_bits_rejected(self):
        # the weight LCG keeps 64 bits, so a larger seed would alias seed mod 2**64
        for text in ('{"seed": 1e30}', '{"seed": 18446744073709551616}'):
            with pytest.raises(InputError, match="seed"):
                from_json(text)
        assert from_json('{"seed": 18446744073709551615}').seed == 2**64 - 1

    @pytest.mark.parametrize("kwargs", [
        {"seed": 7.5},  # would give seed 7's weights
        {"seed": "3"},
        {"seed": True},
        {"uf": 4.0},  # would reach run_forward and fail there
        {"channels": 32.0},
        {"stg.num_rstb": 1.0},  # these three ended in a raw TypeError in run_forward
        {"stg.window": 4.0},
        {"match.patch_size": 8.0},
        {"stg.window": True},  # would run as window 1
        {"stg.mlp_ratio": "2"},  # would repeat the string: 32 twos as the hidden width
        {"loss.lambda_dc": True},
    ], ids=repr)
    def test_python_built_config_takes_only_ints(self, kwargs):
        (key, value), = kwargs.items()
        section, _, name = key.rpartition(".")
        cls = {"": ModelConfig, "stg": StgConfig, "match": MatchConfig,
               "loss": LossWeights}[section]
        kind = "a number" if get_type_hints(cls)[name] is float else "an int"
        with pytest.raises(InputError, match=re.escape(f"{name} must be {kind}, got {value!r}")):
            cls(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("global_residual", "no"),  # ran as global_residual=True
        ("global_residual", 0),
        ("global_residual", None),
        ("sab_stats_source", None),
        ("upsample", "yes"),
        ("stats_source", b"pre"),
    ])
    def test_python_built_config_takes_only_bools_and_strings(self, name, value):
        cls, args = ((MabConfig, {"level": 2, "upsample": True, "channels": 8})
                     if name in ("upsample", "stats_source") else (ModelConfig, {}))
        kind = "a bool" if get_type_hints(cls)[name] is bool else "a string"
        with pytest.raises(InputError, match=re.escape(f"{name} must be {kind}, got {value!r}")):
            cls(**{**args, name: value})

    @pytest.mark.parametrize("name, value", [
        ("stg", True),  # raised a raw AttributeError
        ("match", 3),  # built, and failed only in run_forward
        ("loss", None),  # built
    ])
    def test_python_built_config_takes_only_its_sections(self, name, value):
        kind = get_type_hints(ModelConfig)[name].__name__
        with pytest.raises(InputError, match=re.escape(f"{name} must be a {kind}, got {value!r}")):
            ModelConfig(**{name: value})

    def test_num_levels(self):
        assert default_config().num_levels == 3
        assert from_json('{"uf": 2}').num_levels == 2


class TestValueRules:
    @pytest.mark.parametrize("text,key", [
        ('{"stg": 3}', "stg"),
        ('{"loss": 5}', "loss"),
        ('{"match": [1]}', "match"),
        ('[1]', "file"),
        ('{"stg": {"num_rstb": "a"}}', "stg.num_rstb"),
        ('{"stg": {"window": 4.5}}', "stg.window"),
        ('{"uf": true}', "uf"),
        ('{"seed": 7.5}', "seed"),
        ('{"seed": null}', "seed"),
        ('{"global_residual": "no"}', "global_residual"),
        ('{"sab_stats_source": 1}', "sab_stats_source"),
        ('{"loss": {"lambda_rec": NaN}}', "loss.lambda_rec"),
        ('{"loss": {"lambda_dc": Infinity}}', "loss.lambda_dc"),
        ('{"loss": {"lambda_dc": "0.1"}}', "loss.lambda_dc"),
        ('{"loss": {"noise_level": NaN}}', "loss.noise_level"),
        ('{"stg": {"mlp_ratio": 1e999}}', "stg.mlp_ratio"),
    ])
    def test_wrong_type_names_the_key(self, text, key):
        with pytest.raises(InputError, match=rf"\b{key}\b"):
            from_json(text)

    # retired fields are unknown keys, with no alias: clamp_similarity, and the two
    # sides of the one match patch size, alone and as a config file of theirs wrote them
    @pytest.mark.parametrize("section, named", [
        pytest.param({"clamp_similarity": False}, "clamp_similarity", id="clamp_similarity"),
        pytest.param({"patch_w": 13}, "patch_w", id="patch_w"),
        pytest.param({"patch_h": 13}, "patch_h", id="patch_h"),
        pytest.param({"patch_w": 8, "patch_h": 8, "center_size": 5, "region_size": 3},
                     "patch_h, patch_w", id="patch_w and patch_h"),
    ])
    def test_retired_key_is_unknown(self, section, named, tmp_path, capsys):
        text = json.dumps({"match": section})
        with pytest.raises(InputError, match=f"unknown config keys in match: {named}$"):
            from_json(text)
        (tmp_path / "config.json").write_text(text)
        assert main(["forward", "lr.mcimg", "ref.mcimg", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "sr.mcimg")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"stg": {"num_heads": 0}}', '{"stg": {"window": 0}}', '{"stg": {"mlp_ratio": 0}}',
    ])
    def test_degenerate_swin_shape(self, text):
        with pytest.raises(InputError):
            from_json(text)

    def test_numbers_take_the_field_type(self):
        cfg = from_json('{"seed": 7.0, "stg": {"mlp_ratio": 2}, "loss": {"lambda_rec": 1}}')
        assert cfg.seed == 7 and type(cfg.seed) is int
        assert cfg.stg.mlp_ratio == 2.0 and type(cfg.stg.mlp_ratio) is float
        assert cfg.loss.lambda_rec == 1.0 and type(cfg.loss.lambda_rec) is float

    def test_deeply_nested_json(self):
        with pytest.raises(InputError):
            from_json('{"stg": ' * 3000 + "1" + "}" * 3000)

    def test_invalid_utf8_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"uf": "\xff"}')
        assert main(["metrics", str(path), str(path), "--config", str(path)]) == 2


def assert_typed(obj):
    """Every field of a loaded config is an instance of its annotated type
    (exactly: a bool is not an int, an int is not a float)."""
    kinds = get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        assert type(value) is kinds[f.name], f"{f.name} = {value!r}"
        if is_dataclass(value):
            assert_typed(value)
        elif isinstance(value, float):
            assert not math.isnan(value), f.name


SCALARS = st.one_of(
    st.integers(-2, 40), st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["pre", "post", "infinity", "inf"]), st.text(max_size=6),
)
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
)


# values of the right type that often pass the range checks too
TYPICAL = {
    int: st.sampled_from([2, 4, 8, 32]), float: st.sampled_from([0.5, 1.0, 2, 4.0]),
    bool: st.booleans(), str: st.sampled_from(["pre", "post"]),
}


def json_objects(cls, typed):
    """JSON objects over the real keys of ``cls``, each optional. ``typed``
    objects hold only values of the annotated types; the others also hold
    any JSON value under any key, and a stray key."""
    kinds = get_type_hints(cls)
    optional = {}
    for f in fields(cls):
        kind = kinds[f.name]
        value = json_objects(kind, typed) if is_dataclass(kind) else TYPICAL[kind]
        optional[f.name] = value if typed else st.one_of(value, VALUES)
    if not typed:
        optional["stray"] = VALUES
    return st.fixed_dictionaries({}, optional=optional)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(json_objects(ModelConfig, True), json_objects(ModelConfig, False)))
def test_from_json_returns_typed_config_or_raises_typed(payload):
    try:
        cfg = from_json(json.dumps(payload))
    except InputError as exc:
        event(type(exc).__name__)
        return
    event("loaded")
    assert_typed(cfg)


def leaf_keys(cls, prefix=""):
    """Dotted key and annotated type of every field, sections included."""
    for f in fields(cls):
        kind = get_type_hints(cls)[f.name]
        yield prefix + f.name, kind
        if is_dataclass(kind):
            yield from leaf_keys(kind, f"{prefix}{f.name}.")


NOT_INTEGRAL = st.floats().filter(lambda x: not x.is_integer())
NOT_INFINITY = st.text(max_size=6).filter(lambda t: t.lower() not in ("inf", "infinity"))
WRONG_TYPE = {
    int: st.one_of(st.booleans(), NOT_INTEGRAL, st.text(max_size=6), st.none(),
                   st.lists(st.integers())),
    float: st.one_of(st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]), NOT_INFINITY,
                     st.none(), st.lists(st.floats())),
    bool: st.one_of(st.integers(), st.floats(), st.text(max_size=6), st.none()),
    str: st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.text())),
}
OUT_OF_RANGE = {
    "uf": 3, "channels": 0, "sab_stats_source": "mid", "seed": -1,
    "stg.num_rstb": 0, "stg.stl_per_rstb": 0, "stg.embed_dim": 0, "stg.num_heads": 0,
    "stg.window": 0, "stg.mlp_ratio": 0, "match.patch_size": 0,
    "match.center_size": 99, "match.region_size": 0, "loss.noise_level": -1,
}


@st.composite
def bad_configs(draw):
    """The small config with one key set to a wrong type, an out-of-range
    value, or a stray key added."""
    payload = json.loads(to_json(TINY))
    key, kind = draw(st.sampled_from(list(leaf_keys(ModelConfig)) + [("stray", None)]))
    if kind is None:
        value = draw(VALUES)
    elif is_dataclass(kind):
        value = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)))
    elif key in OUT_OF_RANGE and draw(st.booleans()):
        value = OUT_OF_RANGE[key]
    else:
        value = draw(WRONG_TYPE[kind])
    *sections, leaf = key.split(".")
    target = payload
    for section in sections:
        target = target[section]
    target[leaf] = value
    return key, payload


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bad_configs())
def test_cli_forward_exits_2_on_a_bad_config(case):
    key, payload = case
    event(key)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(payload))
        write_image(tmp / "lr.mcimg", np.full((16, 16), 0.5))
        write_image(tmp / "ref.mcimg", np.full((32, 32), 0.5))
        out = tmp / "sr.mcimg"
        code = main(["forward", str(tmp / "lr.mcimg"), str(tmp / "ref.mcimg"),
                     "--config", str(tmp / "config.json"), "--out", str(out)])
        assert code == 2, f"{key} = {payload}"
        assert not out.exists()
