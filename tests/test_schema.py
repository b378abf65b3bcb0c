"""The config schema is the dataclass fields: loading, canonical form, digest, layering.

The config loader reads each section into its dataclass, and
scenario_to_dict writes the same fields back, so the canonical form of any
scenario loads back to that scenario. Malformed shapes exit 2 naming the
key, and knobs the engine never read are unknown keys.
"""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from railwarn.antenna import AntennaPattern
from railwarn.cli import main
from railwarn.config import ConfigError, load_config, parse_config
from railwarn.engine import (
    EMPIRICAL_UNREAD,
    Scenario,
    TrainRun,
    scenario_digest,
    scenario_to_dict,
)
from railwarn.geometry import CrossingScene, Placement
from railwarn.link import (
    LatencyModel,
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    friis_reference_loss_db,
)
from railwarn.logio import AnalysisDefaults
from railwarn.protocol import TriggerPolicy

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SUBURBAN = CONFIGS / "suburban_rsu_10mph.json"


def config_with(tmp_path, edit) -> Path:
    data = json.loads(SUBURBAN.read_text())
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def set_key(path: str, value):
    """An edit that sets one dotted key of a config."""

    def edit(data):
        *parents, key = path.split(".")
        node = data
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value

    return edit


def empirical(**channel):
    return set_key("channel", {"mode": "empirical", **channel})


def open_track(edit):
    """An edit applied to the open-track config in place of the suburban one."""

    def replace(data):
        data.clear()
        data.update(json.loads((CONFIGS / "open_track_20mph.json").read_text()))
        data["channel"]["per_table"] = str(CONFIGS / "open_track_per.csv")
        edit(data)

    return replace


def receiver0(key: str, value):
    def edit(data):
        data["scene"]["receivers"][0][key] = value

    return edit


def antenna(**entry):
    def edit(data):
        data["antennas"] = {"mine": entry}
        data["radio"]["tx_antenna"] = "mine"

    return edit


@pytest.mark.parametrize(
    "edit, key",
    [
        (set_key("scene.obstructions", 5), "scene.obstructions"),
        (set_key("scene.receivers", 5), "scene.receivers"),
        (set_key("scene.receivers", [5]), "scene.receivers[0]"),
        (empirical(bins=5), "channel.bins"),
        (empirical(bins=[5]), "channel.bins"),
        (empirical(bins=[[-10, 10]]), "channel.bins"),
        (empirical(bins=[[-10, 10, [0]]]), "channel.bins[0]"),
        (empirical(bins=[[-10, 10, 0.1], [10, 20, "x"]]), "channel.bins[1][2]"),
        (empirical(per_table=5), "channel.per_table"),
        (empirical(per_table="per.csv", bins=[[-10, 10, float("nan")]]), "channel: give"),
        (antenna(azimuth=5, elevation=[[0, 1]]), "antennas.mine.azimuth"),
        (antenna(azimuth=[[0, "1"]], elevation=[[0, 1]]), "antennas.mine.azimuth[0]"),
        (antenna(azimuth=[[0, 1]], elevation=[[0, 1], [True, 1]]), "antennas.mine.elevation[1][0]"),
        (antenna(azimuth_csv=5, elevation_csv="el.csv"), "antennas.mine.azimuth_csv"),
        (
            antenna(azimuth_csv="az.csv", elevation_csv="el.csv", azimuth=[[0, float("nan")]]),
            "antennas.mine: give",
        ),
        (set_key("antennas", 5), "antennas"),
        (set_key("version", True), "version"),
        (set_key("radio.tx_power_dbm", True), "radio.tx_power_dbm"),
        (set_key("policy.reliability_threshold", 5.5), "policy.reliability_threshold"),
        (set_key("radio.modulation", None), "radio.modulation"),
        # A slant range too long for a float.
        (receiver0("offset_from_crossing_m", 1e200), "scene.receivers[0]: receiver 'rsu0'"),
        (receiver0("height_m", 1e200), "scene.receivers[0]: receiver 'rsu0'"),
        (open_track(receiver0("offset_from_crossing_m", 1e200)), "scene.receivers[0]: receiver"),
        (open_track(receiver0("height_m", 1e200)), "scene.receivers[0]: receiver 'obu0'"),
    ],
)
def test_malformed_shape_exits_2_naming_the_key(tmp_path, capsys, edit, key):
    log_path = tmp_path / "x.jsonl"
    assert main(["simulate", str(config_with(tmp_path, edit)), "-o", str(log_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key}")
    assert err.count("\n") == 1
    assert not log_path.exists()


@pytest.mark.parametrize(
    "key", ["latency.relay_hops", "radio.packet_size_bytes", "radio.channel_number"]
)
def test_knobs_the_engine_ignored_are_unknown(tmp_path, capsys, key):
    config = config_with(tmp_path, set_key(key, 1))
    assert main(["simulate", str(config), "-o", str(tmp_path / "x.jsonl")]) == 2
    section, name = key.split(".")
    assert capsys.readouterr().err == f"error: config: {section}: unknown key(s) ['{name}']\n"


def test_shipped_config_digests():
    # sha256 of the canonical JSON, which holds every field of the scenario
    # but the analysis settings.
    assert scenario_digest(load_config(CONFIGS / "open_track_20mph.json").scenario) == (
        "813e840ed1c808555ef0615a71d6374fc92dc541e375733903a81a2cf17d3b97"
    )
    assert scenario_digest(load_config(SUBURBAN).scenario) == (
        "2ad7df8b085163e585f9d69ce2ca87f14de3ce6efc4f694f2f914d6a66c4bc12"
    )


def test_digest_excludes_the_analysis_settings():
    scenario = load_config(SUBURBAN).scenario
    other = dataclasses.replace(scenario, analysis=AnalysisDefaults(7.5, 2))
    assert scenario_to_dict(other)["analysis"] != scenario_to_dict(scenario)["analysis"]
    assert scenario_digest(other) == scenario_digest(scenario)


# One valid instance of each dataclass whose __post_init__ checks the fields
# annotated float or float | None for finiteness (units.require_finite_fields).
FINITE_CHECKED = [
    TrainRun(speed_mps=4.0),
    Placement(id="rsu0", kind="RSU", offset_from_crossing_m=5.0, height_m=3.0),
    CrossingScene(),
    RadioConfig(),
    SyntheticChannel(),
    ObstructionSegment(d_start_m=-50.0, d_end_m=50.0, excess_loss_db=10.0),
    LatencyModel(),
    TriggerPolicy(),
    AnalysisDefaults(),
    AntennaPattern("flat", ((0.0, 6.0),), ((0.0, 6.0),), 6.0),
]


@pytest.mark.parametrize("instance", FINITE_CHECKED, ids=lambda instance: type(instance).__name__)
def test_every_float_field_rejects_nan(instance):
    names = [f.name for f in dataclasses.fields(instance) if f.type in (float, float | None)]
    # Annotations turned into strings would match no field here, nor in the check.
    assert names
    for name in names:
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got nan$"):
            dataclasses.replace(instance, **{name: math.nan})


def imported_names(tree):
    """Every module, and every name imported from one, as dotted paths."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["analysis.py", "logio.py"])
def test_log_and_analysis_do_not_import_the_engine(module):
    tree = ast.parse((ROOT / "src" / "railwarn" / module).read_text())
    assert [name for name in imported_names(tree) if "engine" in name.split(".")] == []


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


names = st.text(alphabet="abcxyz019_", min_size=1, max_size=6)


@st.composite
def placements(draw):
    return Placement(
        id=draw(names),
        kind=draw(st.sampled_from(["RSU", "OBU"])),
        offset_from_crossing_m=draw(floats(-200, 200)),
        height_m=draw(floats(0.5, 10)),
        boresight_deg=draw(st.none() | floats(-360, 360)),
    )


@st.composite
def obstructions(draw):
    start = draw(floats(-1000, 900))
    gapped = draw(st.booleans())
    width = draw(floats(0.5, 10)) if gapped else 0.0
    return ObstructionSegment(
        d_start_m=start,
        d_end_m=start + draw(floats(1, 500)),
        excess_loss_db=draw(floats(0, 40)),
        gap_width_m=width,
        gap_period_m=width + draw(floats(0.5, 30)) if gapped else 0.0,
    )


@st.composite
def synthetic_channels(draw, frequency_hz):
    """A channel whose reference loss is drawn apart from the carrier, or is
    the free-space loss at it."""
    qpsk = draw(floats(0, 12))
    return SyntheticChannel(
        path_loss_exponent=draw(floats(2, 4)),
        reference_loss_db=draw(floats(20, 60) | st.just(friis_reference_loss_db(frequency_hz))),
        shadowing_sigma_db=draw(floats(0, 6)),
        noise_floor_dbm=draw(floats(-110, -80)),
        snr_threshold_qpsk_db=qpsk,
        snr_threshold_16qam_db=qpsk + draw(floats(0.5, 10)),
        transition_width_db=draw(floats(0.5, 4)),
    )


@st.composite
def per_profiles(draw):
    edges = draw(st.lists(floats(-1000, 1000), min_size=2, max_size=6, unique=True))
    edges.sort()
    bins = tuple((low, high, draw(floats(0, 1))) for low, high in zip(edges, edges[1:]))
    return PerProfile(bins=bins, out_of_range=draw(st.sampled_from(["zero", "error"])))


@st.composite
def patterns(draw, name):
    def cut(low, high):
        angles = sorted(draw(st.lists(floats(low, high), min_size=1, max_size=5, unique=True)))
        return tuple((angle, draw(floats(-20, 20))) for angle in angles)

    azimuth, elevation = cut(0, 359), cut(-90, 90)
    peak = max(gain for _, gain in azimuth + elevation) + draw(floats(0, 3))
    return AntennaPattern(name, azimuth, elevation, peak, draw(floats(-30, 0)))


@st.composite
def scenarios(draw):
    """A Scenario's keyword arguments. Radio, antenna and obstruction
    settings are drawn whatever the channel, and a synthetic channel's
    reference loss apart from the carrier, so some draws set a key their
    channel does not read and build no Scenario."""
    # In name order, as the loader gives them.
    custom = tuple(draw(patterns(name)) for name in sorted(draw(st.sets(names, max_size=2))))
    antennas = st.sampled_from(["omni6", "omni12", "bidir23", *(p.name for p in custom)])
    track = draw(floats(-180, 180))
    base = draw(floats(1, 20))
    frequency = draw(st.just(RadioConfig.center_frequency_hz) | floats(1e9, 6e9))
    return dict(
        scene=CrossingScene(
            track_heading_deg=track,
            road_heading_deg=track + draw(floats(10, 170)),
            tx_height_m=draw(floats(0.5, 10)),
            receivers=tuple(
                draw(st.lists(placements(), min_size=1, max_size=3, unique_by=lambda p: p.id))
            ),
            obstructions=tuple(draw(st.lists(obstructions(), max_size=2))),
        ),
        radio=RadioConfig(
            center_frequency_hz=frequency,
            tx_power_dbm=draw(st.sampled_from([11.0, 23.0])),
            modulation=draw(st.sampled_from(["QPSK", "16QAM"])),
            tx_period_ms=draw(floats(10, 200)),
            tx_antenna=draw(antennas),
            rx_antenna=draw(antennas),
        ),
        channel=draw(synthetic_channels(frequency) | per_profiles()),
        latency=LatencyModel(processing_base_ms=base, processing_jitter_ms=draw(floats(0, base))),
        train=TrainRun(
            speed_mps=draw(floats(1, 50)),
            start_d_t_m=draw(floats(-1000, -1)),
            end_d_t_m=draw(floats(1, 1000)),
        ),
        policy=TriggerPolicy(
            reliability_threshold=draw(st.integers(1, 20)),
            trigger_distance_m=draw(floats(1, 1000)),
            window_s=draw(st.none() | floats(0.01, 10)),
        ),
        seed=draw(st.integers(0, 2**63)),
        custom_patterns=custom,
        analysis=AnalysisDefaults(
            window_width_m=draw(floats(0.1, 500)), coverage_threshold=draw(st.integers(1, 50))
        ),
    )


# What scenario_to_dict writes for a key left unset.
UNSET = scenario_to_dict(parse_config({"train": {"speed_mps": 1.0}}, Path(".")).scenario)


def places(data: dict, key: str) -> list:
    """(key, value) at each place an EMPIRICAL_UNREAD key names in a
    canonical form, [i] standing for each receiver; None where it is absent."""
    head, _, rest = key.partition("[i].")
    if rest:
        entries = places(data, head)[0][1]
        return [(f"{head}[{i}].{rest}", entry[rest]) for i, entry in enumerate(entries)]
    value = data
    for part in key.split("."):
        value = value.get(part) if value is not None else None
    return [(key, value)]


def canonical_form(parts: dict) -> dict:
    """scenario_to_dict of a Scenario of these keyword arguments, its fields
    set unchecked, so a form that breaks the Scenario's read rule is written
    as a config could give it."""
    scenario = object.__new__(Scenario)
    for name, value in parts.items():
        object.__setattr__(scenario, name, value)
    return scenario_to_dict(scenario)


@settings(max_examples=150, deadline=None)
@given(parts=scenarios())
def test_canonical_form_loads_back(parts):
    data = canonical_form(parts)
    assert all("name" not in entry for entry in data.get("antennas", {}).values())
    carrier = data["radio"]["center_frequency_hz"]
    if isinstance(parts["channel"], PerProfile):
        unread = [
            place
            for key in EMPIRICAL_UNREAD
            for place, value in places(data, key)
            if value != places(UNSET, key)[0][1]
        ]
    elif carrier != UNSET["radio"]["center_frequency_hz"] and (
        data["channel"]["reference_loss_db"] != friis_reference_loss_db(carrier)
    ):
        # A reference loss other than the free-space one leaves the carrier unread.
        unread = ["radio.center_frequency_hz"]
    else:
        unread = []
    mode = data["channel"]["mode"]
    event(f"{mode}: {'rejected, naming the first unread key' if unread else 'loaded back'}")
    if unread:
        # The first one set is named, by the loader and by the Scenario alike.
        with pytest.raises(ConfigError, match=f"^{re.escape(unread[0])}: "):
            parse_config(data, Path("."))
        with pytest.raises(ValueError, match=f"^{re.escape(unread[0])}: "):
            Scenario(**parts)
    else:
        assert parse_config(data, Path(".")).scenario == Scenario(**parts)
