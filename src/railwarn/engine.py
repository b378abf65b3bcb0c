"""Deterministic pass simulator.

A pass advances the train at constant speed from its start to its end
distance, transmitting one message per radio period. Each receiver draws
packet outcomes from its own random streams, derived only from (seed,
receiver id, purpose), so adding receivers or changing unrelated
configuration never perturbs existing streams and rerunning a scenario with
the same seed is bit-for-bit reproducible.

For each receiver, geometry (geometry.link_geometry), antenna gain
(antenna.pattern_gain), obstruction excess, path loss and the SNR before
shadowing (link.mean_snr_db) are numpy arrays over all ticks. The engine
calls each layer through its name in this module, so a caller can wrap one
layer's function to count or time it. The random draws are blocks of one
value per tick, each from its own keyed Philox stream (receiver_stream):
shadowing normals when sigma > 0, decode uniforms, and processing jitter
uniforms when the jitter is > 0 (link.latency_sample), drawn for every
tick whether or not it decodes. An RSU's relay delay is one draw from a
fourth stream. This layout is the log format's random layout
(logio.LOG_VERSION 2): any engine that keeps it writes byte-identical logs.
The warning comes from the decodes as arrays (protocol.first_warning).
The log's header carries the scenario's analysis settings (Scenario.analysis).

A LinkHolder carries the link arrays that the transmit power and
modulation leave alone (geometry, antenna gain, the shadowing and decode
draws, arrival times) from one pass to the next of its train run and seed;
a sweep keeps one per share, so a traced sweep counts fewer link_geometry,
pattern_gain and receiver_stream calls than it runs passes.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import groupby, product
from pathlib import Path

import numpy as np

from . import analysis, geometry, logio
from .antenna import AntennaPattern, builtin_pattern, pattern_gain
from .geometry import CrossingScene, TrainRun, link_geometry
from .link import (
    LatencyModel,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    friis_reference_loss_db,
    latency_sample,
    mean_snr_db,
    profile_success_probability,
    snr_success_probability,
)
from .logio import AnalysisDefaults, PacketColumns, SimLog, pass_packets
from .protocol import TriggerPolicy, first_warning, rsu_relay
from .units import child_process, fork_cpus, require_finite_fields

# The version field of a scenario config; scenario_to_dict writes it.
CONFIG_VERSION = 1

# Upper bounds, checked before anything is allocated: transmit ticks per pass
# (the most in a shipped, tested or benchmarked input is 64,001) and packets
# per sweep (87,696); units.MAX_PACKETS bounds the packets of a pass.
MAX_TICKS = 1_000_000
MAX_SWEEP_PACKETS = 20_000_000

# The settings an empirical channel (PerProfile) never reads, since its table
# alone gives each tick's decode probability: config key paths, in the order
# a config gives them, [i] standing for each receiver. Scenario requires
# each to keep its default under such a channel.
EMPIRICAL_UNREAD = (
    "radio.center_frequency_hz", "radio.tx_power_dbm", "radio.modulation", "radio.tx_antenna",
    "radio.rx_antenna", "scene.receivers[i].boresight_deg", "scene.obstructions", "antennas"
)


def _changed(owner, key: str, where: str = "") -> list:
    """The path of each setting that a config key path names in owner ([i]
    for each entry; antennas are custom_patterns) and that is not its field
    default."""
    head, _, rest = key.partition(".")
    name = head.removesuffix("[i]")
    field = "custom_patterns" if name == "antennas" else name
    value = getattr(owner, field)
    if head != name:
        return [p for i, e in enumerate(value) for p in _changed(e, rest, f"{where}{name}[{i}].")]
    if rest:
        return _changed(value, rest, f"{where}{name}.")
    return [where + name] if value != getattr(type(owner), field) else []


@dataclass(frozen=True)
class Scenario:
    scene: CrossingScene
    radio: RadioConfig
    channel: "PerProfile | SyntheticChannel"
    latency: LatencyModel
    train: TrainRun
    policy: TriggerPolicy
    seed: int = 0
    custom_patterns: tuple[AntennaPattern, ...] = ()
    analysis: AnalysisDefaults = AnalysisDefaults()

    def __post_init__(self) -> None:
        # Each setting the channel does not read keeps its default.
        radio, channel, scene = self.radio, self.channel, self.scene
        keys = ()
        if isinstance(channel, PerProfile):
            keys, reason = EMPIRICAL_UNREAD, "an empirical channel does not read it"
        elif channel.reference_loss_db != friis_reference_loss_db(radio.center_frequency_hz):
            keys = ("radio.center_frequency_hz",)
            reason = "channel.reference_loss_db, not the free-space loss at it, sets the path loss"
        unread = [path for key in keys for path in _changed(self, key)]
        if unread:
            raise ValueError(f"{unread[0]}: {reason}; keep its default")
        check_seed(self.seed)
        if not scene.receivers:
            raise ValueError("scenario needs at least one receiver")
        # The engine adds the two patterns' gains, each clamped below at its floor.
        tx, rx = (self.resolve_pattern(name) for name in (radio.tx_antenna, radio.rx_antenna))
        sums = zip(tx.cut_sums_dbi, rx.cut_sums_dbi)
        gains = [max(tx_sum, tx.floor_dbi) + max(rx_sum, rx.floor_dbi) for tx_sum, rx_sum in sums]
        if not np.isfinite(gains).all():
            raise ValueError("radio.rx_antenna: its gain plus radio.tx_antenna's overflows")
        excess = sum(segment.excess_loss_db for segment in scene.obstructions)
        if not np.isfinite(excess):
            raise ValueError("scene.obstructions: the summed excess_loss_db overflows")
        # A pass is farthest from a receiver at an end (the squared distance to a
        # straight track is convex), and no nearer than where the track passes it.
        # Called through geometry, so wrappers of link_geometry see only passes.
        ends = np.array([self.train.start_d_t_m, self.train.end_d_t_m])
        sine = math.sin(math.radians(scene.road_heading_deg - scene.track_heading_deg))
        ranges = []
        for index, placement in enumerate(scene.receivers):
            with np.errstate(over="ignore"):
                far = geometry.link_geometry(ends, placement, scene).range_m
            if not np.isfinite(far).all():
                raise ValueError(
                    f"scene.receivers[{index}]: receiver {placement.id!r} is too far from the "
                    "train for a finite slant range; reduce offset_from_crossing_m or height_m"
                )
            across = sine * placement.offset_from_crossing_m
            ranges += [*far.tolist(), math.hypot(across, placement.height_m - scene.tx_height_m)]
        # mean_snr_db is monotone in gain, range and obstruction loss, so finite at their
        # extremes means finite over the pass (a tick's range is 0, degenerate, or >= 5e-324).
        if isinstance(channel, SyntheticChannel):
            terms = [10.0 * channel.path_loss_exponent * math.log10(max(r, 5e-324)) for r in ranges]
            for gain, term, excess_db in product(gains, terms, {0.0, excess}):
                loss = channel.reference_loss_db + term + excess_db
                if not math.isfinite(radio.tx_power_dbm + gain - loss - channel.noise_floor_dbm):
                    raise ValueError(
                        "channel: the SNR before shadowing overflows over the pass; bound "
                        "reference_loss_db, path_loss_exponent and noise_floor_dbm"
                    )
        ticks = self.train.duration_s / self.radio.tx_period_s + 1
        if not ticks <= MAX_TICKS:
            raise ValueError(
                f"pass needs {ticks:.0f} transmit ticks, more than the limit of {MAX_TICKS}; "
                "shorten the pass, raise the train speed or lengthen the transmit period"
            )
        self.packet_count  # raises for a pass over units.MAX_PACKETS

    @property
    def packet_count(self) -> int:
        """Packet records the pass writes: one per transmit tick and receiver."""
        return pass_packets(
            self.train.duration_s, self.radio.tx_period_s, len(self.scene.receivers)
        )

    def resolve_pattern(self, name: str) -> AntennaPattern:
        for pattern in self.custom_patterns:
            if pattern.name == name:
                return pattern
        return builtin_pattern(name)


# The keyed random streams of one receiver, by purpose; the index is the
# third word of the stream's seed.
STREAM_PURPOSES = {"shadowing": 0, "decode": 1, "jitter": 2, "relay": 3}


def check_seed(seed, name: str = "seed") -> None:
    """Raise ValueError naming `name` unless seed is a non-negative int."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def receiver_stream(seed: int, receiver_id: str, purpose: str) -> np.random.Generator:
    """Random stream for one (seed, receiver, purpose), stable across runs."""
    if purpose not in STREAM_PURPOSES:
        raise ValueError(f"purpose must be one of {sorted(STREAM_PURPOSES)}, got {purpose!r}")
    rid = int.from_bytes(hashlib.sha256(receiver_id.encode()).digest()[:8], "big")
    key = np.random.SeedSequence([seed, rid, STREAM_PURPOSES[purpose]])
    return np.random.Generator(np.random.Philox(key))


def _plain(value):
    """A dataclass as a dict of its fields, and tuples as lists, all the way down."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form of a scenario (config file layout).

    Each section holds its dataclass's fields under their own names, which
    are the config keys; the channel adds its mode, and custom antennas are
    inline tables keyed by name.
    """
    result = _plain(scenario)
    del result["custom_patterns"]
    result["version"] = CONFIG_VERSION
    mode = "empirical" if isinstance(scenario.channel, PerProfile) else "synthetic"
    result["channel"]["mode"] = mode
    if scenario.custom_patterns:
        result["antennas"] = {
            pattern.name: {
                "azimuth": _plain(pattern.azimuth_cut),
                "elevation": _plain(pattern.elevation_cut),
                "peak_gain_dbi": pattern.peak_gain_dbi,
                "floor_dbi": pattern.floor_dbi,
            }
            for pattern in scenario.custom_patterns
        }
    return result


def scenario_digest(scenario: Scenario) -> str:
    """sha256 of the canonical form without analysis: the inputs that fix the packets."""
    inputs = {key: v for key, v in scenario_to_dict(scenario).items() if key != "analysis"}
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class LinkHolder:
    """Link arrays that run_pass computes for one pass and reuses in the next,
    which a caller keeps across the passes it runs: run is the (train run,
    tx_period_s, seed) they were computed for, and arrays holds (inputs,
    array) pairs. An array is reused only while its inputs compare equal
    with ==, so what is held changes no byte; all are dropped when run
    changes."""

    __slots__ = ("run", "arrays")

    def __init__(self):
        self.run, self.arrays = None, []

    def keep(self, run) -> None:
        """Hold arrays of this (train run, tx_period_s, seed) only."""
        if self.run != run:
            self.run, self.arrays = run, []

    def get(self, inputs, compute):
        """The array held for inputs, or compute() of them, held."""
        for held_inputs, array in self.arrays:
            if held_inputs == inputs:
                return array
        array = compute()
        self.arrays.append((inputs, array))
        return array


def run_pass(
    scenario: Scenario, seed: int | None = None, holder: LinkHolder | None = None
) -> SimLog:
    """Simulate one pass; a pure function of (scenario, seed). holder, a
    LinkHolder the caller keeps, carries link arrays from one pass to the
    next; without it the pass uses a fresh one."""
    effective_seed = scenario.seed if seed is None else seed
    check_seed(effective_seed)
    scene = scenario.scene
    train = scenario.train
    period_s = scenario.radio.tx_period_s
    holder = LinkHolder() if holder is None else holder
    holder.keep((train, period_s, effective_seed))
    patterns = (
        scenario.resolve_pattern(scenario.radio.tx_antenna),
        scenario.resolve_pattern(scenario.radio.rx_antenna),
    )
    seq, times, positions = train.ticks(period_s)
    profile_success = None
    if isinstance(scenario.channel, PerProfile):
        profile_success = profile_success_probability(scenario.channel, positions)
        outside = np.flatnonzero(np.isnan(profile_success))
        if outside.size:
            # Raise what the first receiver meets first: each tick checks
            # its geometry, then the profile.
            first = int(outside[0])
            link_geometry(positions[: first + 1], scene.receivers[0], scene)
            raise ValueError(f"train distance {positions[first]:g} m outside the PER profile")

    records: dict = {}
    events: list = []
    for placement in scene.receivers:
        records[placement.id], event = _receiver_pass(
            scenario,
            placement,
            effective_seed,
            (seq, times, positions),
            patterns,
            profile_success,
            holder,
        )
        if event is not None:
            events.append(event)

    return SimLog(
        digest=scenario_digest(scenario),
        seed=effective_seed,
        train_speed_mps=train.speed_mps,
        tx_period_s=period_s,
        start_d_t_m=train.start_d_t_m,
        end_d_t_m=train.end_d_t_m,
        duration_s=train.duration_s,
        receivers=scene.receivers,
        records=records,
        events=events,
        analysis_window_m=scenario.analysis.window_width_m,
        coverage_threshold=scenario.analysis.coverage_threshold,
    )


def _receiver_pass(scenario, placement, seed, ticks, patterns, success, holder) -> tuple:
    """One receiver's packet columns and warning event.

    ticks holds the pass's seq, tx_time_s and train_d_t_m columns
    (TrainRun.ticks). success holds the per-tick decode probability of an
    empirical channel and is None for a synthetic one. Each draw is one
    block over all ticks from the receiver's stream for its purpose. The
    geometry, combined antenna gain, shadowing normals, decode uniforms and
    arrival times come from holder, keyed by every input they depend on.
    """
    scene, radio, channel = scenario.scene, scenario.radio, scenario.channel
    latency = scenario.latency
    seq, times, positions = ticks
    count = len(seq)
    inputs = ("geometry", scenario.train, radio.tx_period_s, scene, placement)
    geo = holder.get(inputs, lambda: link_geometry(positions, placement, scene))
    if success is None:
        tx_pattern, rx_pattern = patterns
        gain = holder.get(
            ("gain", tx_pattern, rx_pattern, inputs),
            lambda: pattern_gain(tx_pattern, geo.tx_azimuth_deg, geo.tx_elevation_deg)
            + pattern_gain(rx_pattern, geo.rx_azimuth_deg, geo.rx_elevation_deg),
        )
        snr_db = mean_snr_db(positions, geo.range_m, gain, radio, channel, scene.obstructions)
        sigma = channel.shadowing_sigma_db
        if sigma > 0:
            shadow = holder.get(
                ("shadowing", seed, placement.id, sigma, count),
                lambda: receiver_stream(seed, placement.id, "shadowing").normal(0.0, sigma, count),
            )
            snr_db = snr_db - shadow
        success = snr_success_probability(snr_db, radio, channel)
    uniforms = holder.get(
        ("decode", seed, placement.id, count),
        lambda: receiver_stream(seed, placement.id, "decode").random(count),
    )
    decoded = uniforms < success
    arrival = holder.get(
        ("arrival", seed, placement.id, latency, inputs),
        lambda: times
        + latency_sample(geo.range_m, latency, receiver_stream(seed, placement.id, "jitter")),
    )
    rx_time_s = np.where(decoded, arrival, np.nan)
    packets = PacketColumns(seq, times, positions, rx_time_s)
    event = first_warning(
        placement.id,
        placement.kind,
        rx_time_s[decoded],
        np.flatnonzero(decoded),
        positions[decoded],
        scenario.policy,
    )
    if event is not None and placement.kind == "RSU":
        relay = receiver_stream(seed, placement.id, "relay")
        event = dataclasses.replace(event, relay_delivery_time_s=rsu_relay(event, latency, relay))
    return packets, event


@dataclass(frozen=True)
class SweepPoint:
    speed_mps: float
    tx_power_dbm: float
    modulation: str
    tx_antenna: str
    seed: int


class SweepPointError(ValueError):
    """A sweep grid, or one of its points, that does not validate."""


def _scenario_for_point(base: Scenario, point: SweepPoint) -> Scenario:
    try:
        return dataclasses.replace(
            base,
            train=dataclasses.replace(base.train, speed_mps=point.speed_mps),
            radio=dataclasses.replace(
                base.radio,
                tx_power_dbm=point.tx_power_dbm,
                modulation=point.modulation,
                tx_antenna=point.tx_antenna,
            ),
            seed=point.seed,
        )
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        values = ", ".join(f"{key}={value!r}" for key, value in dataclasses.asdict(point).items())
        raise SweepPointError(f"sweep point {values}: {message}") from None


def _log_name(index: int, point: SweepPoint) -> str:
    return (
        f"point{index:03d}_v{point.speed_mps:g}_p{point.tx_power_dbm:g}"
        f"_{point.modulation}_{point.tx_antenna}_s{point.seed}.log.jsonl"
    )


def _train_run(job) -> tuple:
    """What fixes a job's tick columns: its train run and transmit period."""
    return job[1].train, job[1].radio.tx_period_s


def _run_points(jobs: list):
    """Each grid point's pass, written to its log path and analysed in the
    process that ran it: yield one (log name, point, packets, decoded,
    events, warning range in m) row per job, run in the jobs' order through
    one LinkHolder and one logio.TextHolder. So consecutive points of one train
    run (_shares puts them in seed order) format its ticks once, and those
    of one train run and seed, whose geometry, draws and arrival times are
    alike whatever the link budget, compute those once and format each
    decoded row's head once."""
    links, text = LinkHolder(), logio.TextHolder()
    for point, scenario, path in jobs:
        log = run_pass(scenario, None, links)
        logio.write_log(log, path, text)
        counts = (log.packet_count(), log.decoded_count(), len(log.events))
        yield (path.name, point, *counts, analysis.coverage_report(log).warning_range_m)


def _deal(pieces: list, packets: list, workers: int) -> list:
    """pieces dealt into one share per worker, or per piece where there are
    fewer, as [packets, job indices]: largest first, each to the first share
    with the fewest packets."""
    shares = [[0, []] for _ in pieces[:workers]]
    weights = [sum(packets[i] for i in piece) for piece in pieces]
    for weight, piece in sorted(zip(weights, pieces), key=lambda pair: pair[0], reverse=True):
        lightest = min(shares, key=lambda share: share[0])
        lightest[0] += weight
        lightest[1] += piece
    return shares


def _heaviest(shares: list) -> int:
    return max(share[0] for share in shares)


def _shares(jobs: list, workers: int) -> list:
    """The job indices dealt (_deal) into one share per worker, or per piece
    where there are fewer. The lightest share comes first.

    Each train run is one piece: its consecutive jobs with one train run and
    transmit period, in seed order, which _run_points keeps. A process that runs
    part of a train run formats its ticks' text again, and part of one seed
    computes its link arrays and decoded rows' heads again, so the largest
    piece of more than one job is halved only while that lowers the heaviest
    share's packets; the cut falls between seeds where that deals a heaviest
    share as light as a cut in the middle."""
    packets = [job[1].packet_count for job in jobs]
    runs = groupby(range(len(jobs)), lambda i: _train_run(jobs[i]))
    pieces = [sorted(run, key=lambda i: jobs[i][0].seed) for _, run in runs]
    shares = _deal(pieces, packets, workers)
    while halvable := [piece for piece in pieces if len(piece) > 1]:
        piece = max(halvable, key=lambda piece: sum(packets[i] for i in piece))
        seeds = [jobs[i][0].seed for i in piece]
        between = [cut for cut in range(1, len(piece)) if seeds[cut] != seeds[cut - 1]]
        cuts = [min(between, key=lambda cut: abs(2 * cut - len(piece)))] if between else []
        rest = [other for other in pieces if other is not piece]
        # The cut between seeds first: min keeps it where the middle deals no lighter.
        tries = [rest + [piece[:cut], piece[cut:]] for cut in [*cuts, len(piece) // 2]]
        dealt = [(_deal(tried, packets, workers), tried) for tried in tries]
        cut_shares, cut_pieces = min(dealt, key=lambda pair: _heaviest(pair[0]))
        if _heaviest(cut_shares) >= _heaviest(shares):
            break
        pieces, shares = cut_pieces, cut_shares
    return [indices for _, indices in sorted(shares, key=lambda share: share[0])]


def run_sweep(
    base: Scenario,
    speeds_mps=None,
    powers_dbm=None,
    modulations=None,
    antennas=None,
    seeds=None,
    max_workers: int | None = None,
    *,
    out_dir,
) -> list:
    """Run the cartesian grid of configurations around a base scenario into out_dir.

    An axis left as None keeps the base scenario's value; an empty one
    raises ValueError. Each point is an independent pass whose outcome
    depends only on its own configuration and seed, never on grid order or
    parallel schedule. Every point's scenario is built before any pass runs;
    a point that does not validate, or a grid whose passes together exceed
    MAX_SWEEP_PACKETS, raises SweepPointError and touches no file.

    Then out_dir is made and its summary.csv removed, and the process that
    runs each pass writes its log there as point<index>_v<speed>_p<power>
    _<modulation>_<antenna>_s<seed>.log.jsonl and computes its coverage.
    The points are dealt into shares (_shares), at most units.fork_cpus(),
    of whole train runs unless cutting one lowers the heaviest share's
    packets. Each share is a stream of rows (_run_points): the lightest runs
    here, each other one in a child (units.child_process), so which process
    runs a point changes no byte. The result is one row per point, in grid
    order: (log name, SweepPoint, packets, decoded, events, warning_range_m),
    and summary.csv, written last through logio.commit, lists them. A failed
    sweep kills its children, deletes the files at its log names and writes
    no summary.csv.
    """
    speeds = [base.train.speed_mps] if speeds_mps is None else list(speeds_mps)
    powers = [base.radio.tx_power_dbm] if powers_dbm is None else list(powers_dbm)
    mods = [base.radio.modulation] if modulations is None else list(modulations)
    ants = [base.radio.tx_antenna] if antennas is None else list(antennas)
    seed_list = [base.seed] if seeds is None else list(seeds)
    if not (speeds and powers and mods and ants and seed_list):
        raise ValueError("sweep grid must be non-empty")
    points = [SweepPoint(*values) for values in product(speeds, powers, mods, ants, seed_list)]
    scenarios = [_scenario_for_point(base, point) for point in points]
    packets = sum(scenario.packet_count for scenario in scenarios)
    if packets > MAX_SWEEP_PACKETS:
        raise SweepPointError(
            f"sweep of {len(points)} points needs {packets} packets, more than the limit of "
            f"{MAX_SWEEP_PACKETS}; use fewer or shorter points"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "summary.csv"
    summary.unlink(missing_ok=True)
    paths = [out_dir / _log_name(i, point) for i, point in enumerate(points)]
    jobs = list(zip(points, scenarios, paths))
    shares = _shares(jobs, min(max_workers or 1, len(jobs), fork_cpus()))
    try:
        with contextlib.ExitStack() as children:
            here, *rest = ([jobs[i] for i in share] for share in shares)
            forked = [children.enter_context(child_process(_run_points, run)) for run in rest]
            rows = [*_run_points(here), *(row for values in forked for row in values)]
        results = [row for _, row in sorted(zip(sum(shares, []), rows))]
        keys = [field.name for field in dataclasses.fields(SweepPoint)]
        header = ["log", *keys, "packets", "decoded", "events", "warning_range_m"]
        rows = [[row[0], *dataclasses.astuple(row[1]), *row[2:]] for row in results]
        logio.commit([analysis.csv_output(summary, header, rows)])
    except BaseException:
        # A directory at a log's name was never the sweep's, so it stays.
        for path in paths:
            if not path.is_dir():
                path.unlink(missing_ok=True)
        raise
    finally:
        # A child killed inside logio.commit leaves a temp file at its log's name.
        names = {path.name for path in paths}
        for tmp in out_dir.iterdir():
            if tmp.name.rpartition(".tmp")[0] in names and not tmp.is_dir():
                tmp.unlink(missing_ok=True)
    return results
