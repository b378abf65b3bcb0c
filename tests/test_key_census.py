"""Every config key reaches the pass: a census of the keys.

The keys are the leaves of scenario_to_dict's canonical form, which writes
every field of the config dataclasses, so a future field joins the census
by itself; a list of objects is entered at its first entry. Each key is
changed, one at a time, on a few short base scenarios: QPSK and 16QAM,
directional antennas, an obstruction, and the empirical open track. Each
change must move the log that simulate writes (its header's digest aside,
which moves with any setting) or its exit code in at least one base.

A pair census sets one key that a synthetic base leaves unset at the
value it loads to, and changes another: the change must still move the
log or the exit code in some base, so no key goes dead while another is
set (a carrier is not read while a reference loss is given, so there the
Scenario rejects the carrier).

An empirical channel reads none of engine.EMPIRICAL_UNREAD, so there each
of those keys, set to other than its unset value, exits 2 naming itself and
writes no log, and every other key must move the log or the exit code in
that base alone.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from railwarn.cli import main
from railwarn.config import ConfigError, parse_config
from railwarn.engine import EMPIRICAL_UNREAD, scenario_to_dict

TRAIN = {"speed_mps": 30.0, "start_d_t_m": -120.0, "end_d_t_m": 120.0}
RECEIVERS = [
    {"id": "rsu0", "kind": "RSU", "offset_from_crossing_m": 6.0, "height_m": 3.0},
    {"id": "obu0", "kind": "OBU", "offset_from_crossing_m": 42.0, "height_m": 1.7},
]
SYNTHETIC = {
    "seed": 7,
    "train": TRAIN,
    "scene": {"receivers": RECEIVERS},
    "channel": {"path_loss_exponent": 3.5, "shadowing_sigma_db": 3.0, "noise_floor_dbm": -95.0},
    "policy": {"reliability_threshold": 5, "trigger_distance_m": 60.0},
    "analysis": {"window_width_m": 20.0, "coverage_threshold": 5},
}
# A panel whose combined gain falls below its floor off the main lobe.
PANEL = {
    "azimuth": [[0, 10], [90, -20], [180, 10], [270, -20]],
    "elevation": [[-90, -20], [0, 10], [90, -20]],
    "peak_gain_dbi": 10.0,
    "floor_dbi": -10.0,
}
OBSTRUCTION = {
    "d_start_m": -100.0,
    "d_end_m": 20.0,
    "excess_loss_db": 20.0,
    "gap_width_m": 2.0,
    "gap_period_m": 12.0,
}
BASES = {
    "QPSK": SYNTHETIC,
    # The reliability threshold, not the trigger distance, sets the warning.
    "16QAM": {
        **SYNTHETIC,
        "radio": {"modulation": "16QAM", "tx_power_dbm": 11},
        "policy": {"reliability_threshold": 5, "trigger_distance_m": 200.0},
    },
    "directional": {
        **SYNTHETIC,
        "radio": {"tx_antenna": "panel", "rx_antenna": "panel"},
        "antennas": {"panel": PANEL},
    },
    "obstruction": {**SYNTHETIC, "scene": {"receivers": RECEIVERS, "obstructions": [OBSTRUCTION]}},
    # The bins stop short of the pass, so out_of_range decides its ends. The
    # warning comes as the train enters the trigger distance with the
    # reliability threshold just met, so a change of either moves it.
    "empirical": {
        "seed": 42,
        "train": TRAIN,
        "scene": {"receivers": [RECEIVERS[1]]},
        "channel": {"mode": "empirical", "bins": [[-100, 0, 0.2], [0, 100, 0.4]]},
        "policy": {"reliability_threshold": 5, "trigger_distance_m": 90.0},
        "analysis": {"window_width_m": 20.0, "coverage_threshold": 5},
    },
}

# A changed value for a key of this name, where the rule by type below
# would not give a valid one.
CHANGED = {
    "tx_power_dbm": lambda power: 11.0 if power == 23.0 else 23.0,
    "modulation": lambda name: "16QAM" if name == "QPSK" else "QPSK",
    "tx_antenna": lambda name: "omni12" if name == "bidir23" else "bidir23",
    "rx_antenna": lambda name: "omni12" if name == "bidir23" else "bidir23",
    "kind": lambda kind: "OBU" if kind == "RSU" else "RSU",
    "mode": lambda mode: "empirical" if mode == "synthetic" else "synthetic",
    "out_of_range": lambda policy: "error" if policy == "zero" else "zero",
    "bins": lambda bins: [[start, end, 1.0 - per] for start, end, per in bins],
    "azimuth": lambda cut: [[angle, gain - 5.0] for angle, gain in cut],
    "elevation": lambda cut: [[angle, gain - 5.0] for angle, gain in cut],
    "obstructions": lambda segments: [*segments, OBSTRUCTION],
    "antennas": lambda antennas: {**(antennas or {}), "panel": PANEL},
}


def changed(path: tuple, value):
    """Another valid value for the key at path: by its name, else by its type."""
    if path[-1] in CHANGED:
        return CHANGED[path[-1]](value)
    if value is None:
        return 0.1
    if isinstance(value, str):
        return value + "x"
    assert isinstance(value, (int, float)) and not isinstance(value, bool), path
    return type(value)(value * 1.5 + 1)


def leaves(node, path=()):
    """(path, value) of each key of a canonical form; a list of objects at its first entry."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        yield from leaves(node[0], (*path, 0))
    else:
        yield path, node


def name(path: tuple) -> str:
    return ".".join(str(part) for part in path).replace(".0.", "[0].")


def path_of(name: str) -> tuple:
    return tuple(int(part) if part.isdigit() else part for part in re.findall(r"\w+", name))


def with_value(config: dict, path: tuple, value) -> dict:
    config = copy.deepcopy(config)
    node = config
    for part in path[:-1]:
        node = node.setdefault(part, {}) if isinstance(part, str) else node[part]
    node[path[-1]] = value
    return config


def canonical(config: dict) -> dict:
    return scenario_to_dict(parse_config(config, Path(".")).scenario)


class Simulate:
    """simulate on a config: its exit code, its stderr and its log's bytes
    with the header's digest taken out, or None where it wrote no log."""

    def __init__(self, tmp_path, capsys):
        self.config, self.log, self.capsys = tmp_path / "c.json", tmp_path / "c.log.jsonl", capsys

    def __call__(self, config: dict) -> tuple:
        self.config.write_text(json.dumps(config))
        self.log.unlink(missing_ok=True)
        code = main(["simulate", str(self.config), "-o", str(self.log)])
        err = self.capsys.readouterr().err
        if not self.log.exists():
            return code, err, None
        return code, err, re.sub(rb'"digest": "[0-9a-f]*", ', b"", self.log.read_bytes(), count=1)


@pytest.fixture
def simulate(tmp_path, capsys):
    return Simulate(tmp_path, capsys)


@pytest.fixture
def outcomes(simulate):
    outcomes = {base: simulate(config) for base, config in BASES.items()}
    assert all(code == 0 for code, _, _ in outcomes.values()), outcomes
    return outcomes


def test_every_key_moves_the_log_or_the_exit_code(simulate, outcomes):
    holders = {}  # each key's path: the synthetic bases that hold it, with its value
    for base, config in BASES.items():
        for path, value in leaves(canonical(config)) if base != "empirical" else ():
            holders.setdefault(path, []).append((base, value))
    silent = [
        name(path)
        for path, held in holders.items()
        if not any(
            simulate(with_value(BASES[base], path, changed(path, value))) != outcomes[base]
            for base, value in held
        )
    ]
    assert silent == []


def loaded(config: dict):
    """The scenario a config loads to, or its error."""
    try:
        return parse_config(config, Path(".")).scenario
    except ConfigError as exc:
        return str(exc)


def test_no_key_is_dead_while_another_is_set(simulate, outcomes):
    dead = []
    for base, config in BASES.items():
        form = dict(leaves(canonical(config))) if base != "empirical" else {}
        alone = {path: with_value(config, path, changed(path, form[path])) for path in form}
        loads = {path: loaded(change) for path, change in alone.items()}
        for set_path, set_value in form.items():
            given = with_value(config, set_path, set_value)
            for path in (path for path in form if path != set_path):
                pair = with_value(given, path, changed(path, form[path]))
                # A pair that loads as the change alone does moves what that change moves.
                if pair == alone[path] or loaded(pair) == loads[path]:
                    continue
                if simulate(pair) == outcomes[base] != simulate(alone[path]):
                    dead.append(f"{name(path)} with {name(set_path)} set, in {base}")
    assert dead == []


def test_an_empirical_channel_rejects_each_key_it_does_not_read(simulate, outcomes):
    base = BASES["empirical"]
    values = dict(leaves(canonical(base)))
    # A receiver's key at its first receiver.
    unread = {path_of(key): key for key in (k.replace("[i]", "[0]") for k in EMPIRICAL_UNREAD)}
    silent = []
    for path in [*values, *(path for path in unread if path not in values)]:
        code, err, written = simulate(with_value(base, path, changed(path, values.get(path))))
        if path in unread:
            assert (code, written) == (2, None), name(path)
            assert err.startswith(f"error: config: {unread[path]}: ") and err.count("\n") == 1, err
        elif (code, err, written) == outcomes["empirical"]:
            silent.append(name(path))
    assert silent == []
    # At the values scenario_to_dict writes when they are unset, they load
    # and give the plain config's log, digest and all.
    simulate(base)
    plain = simulate.log.read_bytes()
    assert simulate(canonical(base))[0] == 0
    assert simulate.log.read_bytes() == plain
