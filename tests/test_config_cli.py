"""Config parsing and the batch CLI: strictness, overrides, exit codes,
per-scenario outputs, and byte-level reproducibility."""

import ast
import builtins
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import jpatomo
from jpatomo import cli, config, detection, tomography
from jpatomo.cli import main, run_scenario
from jpatomo.config import (
    SCENARIOS,
    SCHEMA_VERSION,
    ExperimentConfig,
    default_config,
    dumps_config,
    load_config,
    parse_config,
    save_config,
)
from jpatomo.detection import RecordBatch, measure
from jpatomo.device import GAIN_BANDWIDTH_CONST, gain, gain_profile
from jpatomo.errors import ConfigError, NumericsError
from jpatomo.gaussian import tms_theory_covariance
from jpatomo.tomography import PAIR_LABELS, WignerGrid, estimate_state, wigner_marginals

pytestmark = pytest.mark.filterwarnings(
    "ignore:estimated covariance marginally unphysical"
)


def small_run(**overrides) -> ExperimentConfig:
    cfg = default_config()
    base = dict(n_records=20_000, prefix_records=2_000, seed=99)
    base.update(overrides)
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **base))


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


# ---------------------------------------------------------------- config


def test_default_config_round_trip_is_idempotent():
    cfg = default_config()
    text = dumps_config(cfg)
    again = dumps_config(parse_config(json.loads(text)))
    assert text == again


def _asdict_dumps(cfg) -> str:
    """dumps_config as it was written through dataclasses.asdict."""
    out = {"schema_version": SCHEMA_VERSION}
    for section in ("device", "pump", "filter", "detection", "run"):
        value = dataclasses.asdict(getattr(cfg, section))
        for name, item in value.items():
            if isinstance(item, tuple):
                value[name] = list(item)
        out[section] = value
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_dumps_config_equals_the_asdict_form():
    cfg = default_config()
    changed = dataclasses.replace(
        cfg,
        run=dataclasses.replace(cfg.run, gain_map_powers_dbm=(-85.0, -84.5, -82.25)),
        filter=dataclasses.replace(cfg.filter, span_hz=3.0e7),
    )
    for config in (cfg, changed):
        assert dumps_config(config) == _asdict_dumps(config)
    assert '"gain_map_powers_dbm": [\n      -85.0,' in dumps_config(changed)


def test_default_config_values():
    cfg = default_config()
    assert cfg.run.n_records == 10_000_000
    assert cfg.run.r_true == 1.78
    assert cfg.detection.n_noise == 69.0
    assert cfg.detection.gain_ch2 == 1.02
    assert cfg.filter.shape == "raised-cosine-notch"
    assert cfg.pump.critical_power_dbm == -80.6


def test_save_and_load_config(tmp_path):
    cfg = small_run()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_saved_config_hashes_to_its_runs_config_sha256(tmp_path, monkeypatch):
    def crlf_text_open(file, mode="r", *args, **kwargs):
        # a text-mode write translates newlines, as on Windows
        if "b" not in mode:
            kwargs.setdefault("newline", "\r\n")
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(config, "open", crlf_text_open, raising=False)
    cfg = small_run(seed=7)
    save_config(cfg, tmp_path / "cfg.json")
    manifest = run_scenario("flux-sweep", cfg, tmp_path / "run")
    digest = hashlib.sha256((tmp_path / "cfg.json").read_bytes()).hexdigest()
    assert digest == manifest["config_sha256"]


def test_builders_convert_hz_to_angular():
    cfg = default_config()
    device = cfg.device.build()
    assert device.omega_r_max == pytest.approx(2 * math.pi * 6.9e9, rel=1e-15)
    filt = cfg.filter.build()
    # the default span is offset + 3 width
    assert filt.grid[-1] == pytest.approx(2 * math.pi * (5e6 + 3 * 4e6), rel=1e-15)


def test_every_config_field_has_a_handled_type():
    # _coerce dispatches on these six annotations; str fields list their choices
    handled = [float, int, bool, str, float | None, tuple[float, ...]]
    names = []
    for section, cls in config._SECTION_TYPES.items():
        for name, kind in typing.get_type_hints(cls).items():
            assert kind in handled, f"{section}.{name}: {kind}"
            assert (kind is str) == ((section, name) in config._STRING_FIELDS)
            names.append(name)
    assert len(names) == 46


def test_missing_sections_get_defaults():
    cfg = parse_config({"schema_version": 1})
    assert cfg == ExperimentConfig()


# Keys that every config.json written before they were dropped carries, with
# the values of the packaged default then; they fed no computation.
_RETIRED = {
    "device": {"e_j_max_hz": 6.1e12, "kerr_hz": -1932.0},
    "detection": {"sample_period_s": 1e-08, "lo_offset_hz": 5.0e6},
}


def _with_retired_keys() -> dict:
    data = json.loads(dumps_config(default_config()))
    for section, keys in _RETIRED.items():
        data[section].update(keys)
    return data


def test_retired_keys_of_earlier_configs_load_and_are_ignored(tmp_path):
    path = tmp_path / "earlier.json"
    path.write_text(json.dumps(_with_retired_keys()))
    assert load_config(path) == default_config()
    changed = _with_retired_keys()
    changed["device"]["kerr_hz"] = "any value"  # ignored, not even type-checked
    assert parse_config(changed) == default_config()
    out = tmp_path / "o"
    assert main(["--config", str(path), "--scenario", "flux-sweep", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text()) == json.loads(
        dumps_config(default_config())
    )


@pytest.mark.parametrize(
    ("section", "key"),
    [("device", "kerr"), ("detection", "kerr_hz")],
)
def test_unknown_key_beside_the_retired_ones_returns_2(tmp_path, capsys, section, key):
    # a retired key is accepted only in its own section
    data = _with_retired_keys()
    data[section][key] = 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["--config", str(path), "--scenario", "flux-sweep", "--out", str(tmp_path)]) == 2
    assert f"unknown key(s) in '{section}': ['{key}']" in capsys.readouterr().err


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config({"schema_version": 1, "detectin": {}})
    # a root or a section that is no JSON object
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        parse_config([])
    with pytest.raises(ConfigError, match="run: expected a JSON object"):
        parse_config({"run": []})


def test_unknown_key_reports_section_path():
    with pytest.raises(ConfigError, match=r"'run'.*n_record"):
        parse_config({"run": {"n_record": 5}})


def test_schema_version_mismatch_rejected():
    # True == 1.0 == 1 in Python, but neither is the integer version
    for version in (SCHEMA_VERSION + 1, True, 1.0):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"schema_version": version})


def test_bool_rejected_for_numeric_field():
    with pytest.raises(ConfigError, match="device.kappa_hz"):
        parse_config({"device": {"kappa_hz": True}})
    # and a number for a true/false field
    with pytest.raises(ConfigError, match="run.save_records: expected true/false"):
        parse_config({"run": {"save_records": 1}})


def test_float_rejected_for_integer_field():
    with pytest.raises(ConfigError, match="run.n_records"):
        parse_config({"run": {"n_records": 1e5}})


def test_bad_enum_value_rejected():
    with pytest.raises(ConfigError, match="filter.shape"):
        parse_config({"filter": {"shape": "brick-wall"}})
    # fields that nothing but the choice check guards
    with pytest.raises(ConfigError, match="run.method"):
        parse_config({"run": {"method": "maximum-likelihood"}})
    with pytest.raises(ConfigError, match="run.state_source"):
        parse_config({"run": {"state_source": "oracle"}})


@pytest.mark.parametrize(
    ("section", "key", "edge", "beyond"),
    [
        ("run", "n_records", 0, -1),
        ("run", "seed", 0, -1),
        ("run", "bins", 2, 1),
        ("run", "bin_sigmas", 5e-324, 0.0),
        ("run", "prefix_records", 2, 1),
        ("run", "r_true", 0.0, -5e-324),
        ("run", "n_add_true", 0.0, -5e-324),
        ("run", "input_thermal", 0.0, -5e-324),
        ("run", "wigner_extent", 5e-324, 0.0),
        ("run", "wigner_points", 2, 1),
        ("run", "psd_noise_sigma", 0.0, -5e-324),
        ("run", "psd_points", 10, 9),
        ("run", "psd_seed_offset", 0, -1),
        ("run", "flux_points", 2, 1),
        ("run", "flux_min", 0.0, -5e-324),
        ("run", "flux_max", 0.49999999999999994, 0.5),
        ("run", "reflection_span_hz", 5e-324, 0.0),
        ("run", "reflection_points", 2, 1),
        ("run", "gain_span_hz", 5e-324, 0.0),
        ("run", "gain_points", 2, 1),
        ("pump", "anchor_power_dbm", -80.60000000000001, -80.6),  # critical: -80.6
    ],
)
def test_each_bound_accepts_its_edge_and_rejects_beyond(section, key, edge, beyond):
    assert getattr(getattr(parse_config({section: {key: edge}}), section), key) == edge
    with pytest.raises(ConfigError, match=key):
        parse_config({section: {key: beyond}})


def test_bad_flux_range_rejected():
    with pytest.raises(ConfigError, match="flux range"):
        parse_config({"run": {"flux_min": 0.3, "flux_max": 0.2}})
    with pytest.raises(ConfigError, match="flux range"):
        parse_config({"run": {"flux_min": 0.2, "flux_max": 0.2}})


def test_powers_list_must_hold_numbers():
    with pytest.raises(ConfigError, match=r"gain_map_powers_dbm\[1\]"):
        parse_config({"run": {"gain_map_powers_dbm": [-84.0, "loud"]}})
    with pytest.raises(ConfigError, match="gain_map_powers_dbm"):
        parse_config({"run": {"gain_map_powers_dbm": []}})


def test_optional_fields_accept_null_and_values():
    cfg = parse_config({"detection": {"n_noise_ch2": None}})
    assert cfg.detection.n_noise_ch2 is None
    cfg = parse_config({"detection": {"n_noise_ch2": 42.0}})
    assert cfg.detection.build().noise_pair == (69.0, 42.0)


def test_invalid_json_file_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_unbuildable_physics_rejected_at_parse():
    with pytest.raises(ConfigError):
        parse_config({"device": {"kappa_hz": -1.0}})
    with pytest.raises(ConfigError):
        parse_config({"filter": {"grid_points": 1}})
    with pytest.raises(ConfigError, match="anchor g0 must be >= 1"):
        parse_config({"pump": {"anchor_g0": 0.5}})
    # an anchor gain whose model gain at a power past the anchor overflows
    with pytest.raises(ConfigError, match="peak gain inf overflows float64"):
        parse_config({"pump": {"anchor_g0": 1e308, "power_dbm": -80.7}})


# ---------------------------------------------------------------- scenarios


def test_flux_sweep_outputs(tmp_path):
    manifest = run_scenario("flux-sweep", default_config(), tmp_path)
    header, data = read_csv(tmp_path / "flux_sweep.csv")
    assert header == ["phi", "omega_r_hz"]
    assert data.shape == (91, 2)
    assert data[0, 1] == 6.9e9
    assert np.all(np.diff(data[:, 1]) < 0)
    assert manifest["results"]["monotone_decreasing"] is True
    assert set(manifest["outputs"]) == {"config.json", "flux_sweep.csv"}
    # two fluxes whose frequencies float64 cannot part: not decreasing
    cfg = default_config()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, flux_max=1e-9, flux_points=2))
    manifest = run_scenario("flux-sweep", cfg, tmp_path / "close")
    assert manifest["results"]["monotone_decreasing"] is False


def _csv_module_bytes(path, header, rows) -> bytes:
    """What `cli._write_csv` wrote through the csv module, row by row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


def test_write_csv_bytes_equal_the_csv_module(tmp_path):
    values = np.array(
        [-1.5, 1e-300, -6.02e23, np.nan, np.inf, -np.inf, 3.0, -0.0, 0.1 + 0.2, 2.0**60]
    )
    columns = (values, values[::-1].copy(), np.arange(values.size, dtype=np.float64))
    header = ("delta_hz", "s_true", "gain")
    cli._write_csv(cli._Outputs(tmp_path), "new.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "old.csv", header, zip(*columns)
    )


def test_gain_map_csv_bytes_equal_the_csv_module(tmp_path):
    # the old rows mixed a config power (a Python number) with numpy values
    cfg = small_run(gain_map_powers_dbm=(-84, -82.5, -81.25))
    run_scenario("gain-map", cfg, tmp_path)
    run = cfg.run
    device, anchor, base = cfg.device.build(), cfg.pump.build_anchor(), cfg.pump.build()
    span = 2.0 * np.pi * run.gain_span_hz
    delta = np.linspace(-span / 2, span / 2, run.gain_points)
    rows = []
    for power in run.gain_map_powers_dbm:
        profile = gain_profile(dataclasses.replace(base, power_dbm=power), device, anchor)
        rows.extend((power, d, g) for d, g in zip(delta / (2.0 * np.pi), gain(delta, profile)))
    want = _csv_module_bytes(tmp_path / "old.csv", ("power_dbm", "delta_hz", "gain"), rows)
    assert (tmp_path / "gain_map.csv").read_bytes() == want


def test_reflection_outputs(tmp_path):
    manifest = run_scenario("reflection", default_config(), tmp_path)
    header, data = read_csv(tmp_path / "reflection.csv")
    assert header == ["delta_hz", "re", "im", "abs"]
    mid = data.shape[0] // 2
    assert data[mid, 1] == pytest.approx(-23 / 27, abs=1e-12)
    assert data[mid, 2] == 0.0
    assert np.all(data[:, 3] <= 1.0 + 1e-12)
    assert manifest["results"]["gamma_on_resonance_re"] == pytest.approx(
        -23 / 27, abs=1e-12
    )


def test_gain_map_outputs(tmp_path):
    manifest = run_scenario("gain-map", default_config(), tmp_path)
    header, data = read_csv(tmp_path / "gain_map.csv")
    assert header == ["power_dbm", "delta_hz", "gain"]
    profiles = manifest["results"]["profiles"]
    assert len(profiles) == 5
    kappa_hz = 25e6
    couplings = {
        math.sqrt(p["g0"]) * p["bandwidth_hz"] / kappa_hz for p in profiles.values()
    }
    assert max(couplings) - min(couplings) < 1e-9
    # higher pump power -> higher peak gain
    g0s = [profiles[repr(float(p))]["g0"] for p in (-84.0, -83.0, -82.0, -81.5, -81.0)]
    assert g0s == sorted(g0s)


def test_psd_outputs(tmp_path):
    manifest = run_scenario("psd", default_config(), tmp_path)
    header, data = read_csv(tmp_path / "psd.csv")
    assert header == ["delta_hz", "s_true", "s_noisy", "s_fit"]
    assert data.shape[0] == default_config().run.psd_points
    fit = json.loads((tmp_path / "psd_fit.json").read_text())
    assert fit["g0"] == pytest.approx(100.0, abs=2.0)
    assert fit["n_noise"] == pytest.approx(69.0, abs=0.5)
    assert manifest["results"]["true_g0"] == 100.0


def test_psd_without_a_peak_writes_a_finite_flat_fit(tmp_path, monkeypatch):
    # a spectrum rising away from delta = 0: the best fit has no peak
    real_fit = cli.fit_psd

    def rising_fit(samples):
        deltas = samples[:, 0]
        return real_fit(np.column_stack([deltas, 69.0 + (deltas / deltas.max()) ** 2]))

    monkeypatch.setattr(cli, "fit_psd", rising_fit)
    run_scenario("psd", default_config(), tmp_path)
    _, data = read_csv(tmp_path / "psd.csv")
    fit, manifest = (
        _strict_json(tmp_path / name) for name in ("psd_fit.json", "manifest.json")
    )
    assert fit["g0"] == 1.0
    assert fit["bandwidth_hz"] is None and fit["bandwidth_hz_stderr"] is None
    assert manifest["results"] == fit
    assert (data[:, 3] == fit["n_noise"]).all()


def _strict_json(path):
    """Parse a file as strict JSON: NaN and Infinity tokens raise."""

    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_every_json_output_is_strict(tmp_path):
    for scenario in SCENARIOS:
        run_scenario(scenario, small_run(), tmp_path / scenario)
    written = sorted(tmp_path.rglob("*.json"))
    assert {(p.parent.name, p.name) for p in written} >= {
        ("tomography", "covariance.json"),
        ("tomography", "histograms.json"),
        ("psd", "psd_fit.json"),
    }
    assert sum(p.name == "manifest.json" for p in written) == len(SCENARIOS)
    for path in written:
        _strict_json(path)



def test_tomography_outputs(tmp_path):
    cfg = small_run()
    manifest = run_scenario("tomography", cfg, tmp_path)
    names = set(manifest["outputs"])
    expected = {"config.json", "covariance.json", "histograms.json"}
    expected |= {
        f"hist_{setting}_{pair}.csv"
        for setting in ("on", "off")
        for pair in ("x1_p1", "x2_p2", "x1_p2", "x2_p1", "x1_x2", "p1_p2")
    }
    expected |= {
        "wigner_x1_p1.csv",
        "wigner_x1_p1_ideal.csv",
        "wigner_x1_x2.csv",
        "wigner_x1_x2_ideal.csv",
    }
    assert names == expected

    cov = json.loads((tmp_path / "covariance.json").read_text())
    v = np.array(cov["v"]).reshape(4, 4)
    assert np.allclose(v, v.T)
    assert cov["r_fit_pure"] == pytest.approx(1.78, abs=0.05)
    assert manifest["results"]["predicted_r"] == pytest.approx(1.75, abs=1e-9)
    # the manifest repeats covariance.json's fit fields, equal to the bit
    fits = ("r_fit", "r_fit_pure", "n_add_fit", "residual", "residual_pure", "witness_d")
    for key in fits + ("scale_factors",):
        assert manifest["results"][key] == cov[key], key
    assert set(cov) == set(fits) | {"v", "scale_factors", "n_records"}
    assert cov["n_records"] == [cfg.run.n_records] * 2

    envelope = json.loads((tmp_path / "histograms.json").read_text())
    assert envelope["bins"] == cfg.run.bins
    assert set(envelope["pump_on"]) == set(envelope["pump_off"])
    one = envelope["pump_on"]["x1_x2"]
    assert one["n_total"] == cfg.run.n_records
    assert (tmp_path / one["file"]).exists()


def test_tomography_streaming_method_skips_histograms(tmp_path):
    cfg = small_run(method="streaming")
    manifest = run_scenario("tomography", cfg, tmp_path)
    assert not any(n.startswith("hist") for n in manifest["outputs"])
    assert "covariance.json" in manifest["outputs"]


def test_tomography_save_records_round_trip(tmp_path):
    # vacuum truth: paired pump-on/off draws cancel exactly, so any record
    # count reconstructs cleanly
    cfg = small_run(n_records=500, save_records=True, r_true=0.0)
    run_scenario("tomography", cfg, tmp_path)
    batch = RecordBatch.load_binary(tmp_path / "records_on.bin")
    assert len(batch) == 500


# Small enough that the 10^4-record binning prefix spans three chunks.
_SMALL_CHUNK = 4096


def _two_call_estimate(cfg):
    """The reference path: measure each pump setting, then estimate_state."""
    run = cfg.run
    state = tms_theory_covariance(run.r_true, run.n_add_true)
    det = cfg.detection.build()
    return estimate_state(
        measure(state, det, run.n_records, run.seed, pump_on=True),
        measure(state, det, run.n_records, run.seed, pump_on=False),
        det.noise_pair,
        method=run.method,
        bins=run.bins,
        bin_sigmas=run.bin_sigmas,
        prefix_records=run.prefix_records,
    )


@pytest.mark.parametrize("method", ["histogram", "streaming"])
@pytest.mark.parametrize("n", [2, 10_000 - 1, 3 * _SMALL_CHUNK + 7])
def test_fused_tomography_equals_two_call_path(tmp_path, monkeypatch, method, n):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    cfg = small_run(n_records=n, method=method, prefix_records=10_000, seed=20260814)
    fused = []
    core = cli.estimate_from_blocks
    monkeypatch.setattr(
        cli, "estimate_from_blocks", lambda *a, **k: fused.append(core(*a, **k)) or fused[-1]
    )
    try:
        ref = _two_call_estimate(cfg)
    except NumericsError as exc:
        # two records cannot be reconstructed: both paths fail the same way
        assert n == 2
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            run_scenario("tomography", cfg, tmp_path / "cli")
        return
    run_scenario("tomography", cfg, tmp_path / "cli")
    (est,) = fused
    assert est.binning == ref.binning
    if method == "histogram":
        for setting in ("histograms_on", "histograms_off"):
            for pair in PAIR_LABELS:
                got, want = getattr(est, setting)[pair], getattr(ref, setting)[pair]
                assert np.array_equal(got.counts, want.counts)
                assert (got.n_total, got.overflow) == (want.n_total, want.overflow)
    else:
        assert est.histograms_on is None and ref.histograms_on is None
    for setting in ("moments_on", "moments_off"):
        got, want = getattr(est, setting), getattr(ref, setting)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)
        assert got.n == want.n == n
    ref_out = cli._Outputs(tmp_path)
    cli._write_json(ref_out, "ref.json", cli._covariance_payload(ref))
    assert (tmp_path / "cli" / "covariance.json").read_bytes() == (
        tmp_path / "ref.json"
    ).read_bytes()
    grid = WignerGrid(extent=cfg.run.wigner_extent, points=cfg.run.wigner_points)
    m = wigner_marginals(ref.tomography, grid)["x1_x2"]
    cli._write_wigner_csv(ref_out, "ref.csv", m, m.ideal)
    assert (tmp_path / "cli" / "wigner_x1_x2_ideal.csv").read_bytes() == (
        tmp_path / "ref.csv"
    ).read_bytes()


def test_wigner_marginals_are_evaluated_only_for_the_files(tmp_path, monkeypatch):
    points = []
    wigner = tomography.wigner

    def counted(state, pts):
        density = wigner(state, pts)
        points.append(density.size)
        return density

    monkeypatch.setattr(tomography, "wigner", counted)
    for method in ("histogram", "streaming"):
        _two_call_estimate(small_run(method=method))
    assert points == []
    cfg = small_run(wigner_points=21)
    run_scenario("tomography", cfg, tmp_path)
    assert sum(points) == 4 * 21**2


def test_tomography_saved_records_equal_measured_store(tmp_path, monkeypatch):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    n = 3 * _SMALL_CHUNK + 7
    cfg = small_run(n_records=n, save_records=True, prefix_records=10_000, seed=20260814)
    run_scenario("tomography", cfg, tmp_path)
    state = tms_theory_covariance(cfg.run.r_true, cfg.run.n_add_true)
    det = cfg.detection.build()
    for setting, pump_on in (("on", True), ("off", False)):
        batch = measure(state, det, n, cfg.run.seed, pump_on=pump_on)
        raw = (tmp_path / f"records_{setting}.bin").read_bytes()
        assert raw == batch.quadratures().astype("<f8").tobytes()
        loaded = RecordBatch.load_binary(tmp_path / f"records_{setting}.bin")
        assert np.array_equal(loaded.s1, batch.s1) and np.array_equal(loaded.s2, batch.s2)


@pytest.mark.parametrize("save_records", [False, True])
@pytest.mark.parametrize("method", ["histogram", "streaming"])
def test_scenario_draws_its_records_in_one_pass(
    tmp_path, monkeypatch, draws, method, save_records
):
    # a pump-on/pump-off pair that fell back to reading each side would
    # make two passes and draw every record twice
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    cfg = small_run(method=method, save_records=save_records)
    run_scenario("tomography", cfg, tmp_path)
    assert draws == [math.ceil(cfg.run.n_records / detection._MEASURE_CHUNK)]


def test_pump_off_histogram_failure_closes_files_and_joins_workers(tmp_path, monkeypatch):
    cfg = small_run(save_records=True)
    update = tomography.HistogramAccumulator.update

    def failing(hists, block):
        # the pump-off histograms are filled off the main thread
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("pump-off histogram failed")
        return update(hists, block)

    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tomography.HistogramAccumulator, "update", failing)
    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="pump-off histogram failed"):
        run_scenario("tomography", cfg, tmp_path / "failed")
    assert threading.active_count() == threads
    assert {Path(fh.name).name for fh in opened} >= {"records_on.bin", "records_off.bin"}
    assert all(fh.closed for fh in opened)

    monkeypatch.undo()
    run_scenario("tomography", cfg, tmp_path / "again")
    assert threading.active_count() == threads
    save_config(cfg, tmp_path / "cfg.json")
    src = str(Path(jpatomo.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-m", "jpatomo", "--config", str(tmp_path / "cfg.json"),
         "--out", str(tmp_path / "fresh")],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    for name in ("covariance.json", "records_on.bin", "records_off.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (
            tmp_path / "fresh" / name
        ).read_bytes()


class _ConsumerFailed(RuntimeError):
    pass


@pytest.mark.parametrize("fail", [None, "on", "off"])
@pytest.mark.parametrize("method", ["histogram", "streaming"])
@pytest.mark.parametrize("path", ["estimate_state", "scenario"])
def test_a_record_pass_owns_one_worker_thread(tmp_path, monkeypatch, path, method, fail):
    # the pump-on blocks are added on the calling thread, the pump-off blocks
    # on the pass's one worker, which also draws the noise and builds the
    # pump-off blocks; `fail` raises in the consumer of the second block
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    cfg = small_run(method=method, save_records=True)
    caller = threading.active_count()
    sampled, calls, raised = [], {"on": 0, "off": 0}, []

    def watched(add):
        def consumer(*args, **kwargs):
            setting = "on" if threading.current_thread() is threading.main_thread() else "off"
            if setting == "on":
                sampled.append(threading.active_count())
            calls[setting] += 1
            if setting == fail and calls[setting] == 2:
                raised.append(_ConsumerFailed(setting))
                raise raised[-1]
            return add(*args, **kwargs)

        return consumer

    if method == "histogram":
        accumulator = tomography.HistogramAccumulator
    else:
        accumulator = tomography.MomentAccumulator
    monkeypatch.setattr(accumulator, "update", watched(accumulator.update))
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)

    def run_pass():
        if path == "scenario":
            run_scenario("tomography", cfg, tmp_path)
            return
        run = cfg.run
        state = tms_theory_covariance(run.r_true, run.n_add_true)
        det = cfg.detection.build()
        estimate_state(
            measure(state, det, run.n_records, run.seed),
            measure(state, det, run.n_records, run.seed, pump_on=False),
            det.noise_pair,
            method=method,
            prefix_records=run.prefix_records,
        )

    if fail is None:
        run_pass()
        assert calls == {"on": 5, "off": 5}  # 20000 records in blocks of 4096
    else:
        with pytest.raises(_ConsumerFailed) as failed:
            run_pass()
        assert failed.value is raised[0] and calls[fail] == 2
    assert sampled and max(sampled) <= caller + 1
    assert threading.active_count() == caller
    if path == "scenario":
        assert {Path(fh.name).name for fh in opened} >= {"records_on.bin", "records_off.bin"}
    assert all(fh.closed for fh in opened)


def test_tomography_device_state_source(tmp_path):
    cfg = small_run(state_source="device")
    manifest = run_scenario("tomography", cfg, tmp_path)
    results = manifest["results"]
    # squeezing estimate should land near the chain's predicted value
    assert results["r_fit_pure"] == pytest.approx(results["predicted_r"], abs=0.05)


def test_run_scenario_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_scenario("fluxsweep", default_config(), tmp_path)


def test_manifest_fields(tmp_path):
    started = time.perf_counter()
    manifest = run_scenario("flux-sweep", default_config(), tmp_path)
    assert manifest["wall_clock_s"] <= time.perf_counter() - started
    assert manifest["scenario"] == "flux-sweep"
    assert manifest["seed"] == default_config().run.seed
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["versions"]) == {"package", "numpy", "python"}
    assert manifest["wall_clock_s"] > 0
    for digest in manifest["outputs"].values():
        assert len(digest) == 64
    disk = json.loads((tmp_path / "manifest.json").read_text())
    assert disk == manifest


def test_manifest_lists_only_the_files_its_scenario_wrote(tmp_path):
    flux = run_scenario("flux-sweep", default_config(), tmp_path)
    psd_run = run_scenario("psd", default_config(), tmp_path)
    tomo = run_scenario("tomography", small_run(save_records=True), tmp_path)
    assert set(flux["outputs"]) == {"config.json", "flux_sweep.csv"}
    assert set(psd_run["outputs"]) == {"config.json", "psd.csv", "psd_fit.json"}
    assert "flux_sweep.csv" not in tomo["outputs"] and "psd.csv" not in tomo["outputs"]
    assert {"records_on.bin", "records_off.bin", "covariance.json"} <= set(tomo["outputs"])
    # each digest is that of the bytes on disk, and the config's is config_sha256
    for name, digest in tomo["outputs"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    assert tomo["config_sha256"] == tomo["outputs"]["config.json"]


def test_every_public_name_resolves():
    assert [name for name in jpatomo.__all__ if not hasattr(jpatomo, name)] == []
    assert "wigner_marginals" in jpatomo.__all__
    assert jpatomo.wigner_marginals is tomography.wigner_marginals


def test_import_loads_no_scipy_optimize():
    # scipy is no runtime dependency: importing the package loads none of it
    src = str(Path(jpatomo.__file__).resolve().parents[1])
    code = (
        "import sys, jpatomo, jpatomo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def test_every_scenario_runs_without_scipy(tmp_path):
    src = str(Path(jpatomo.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from jpatomo.cli import main\n"
        f"codes = [main(['--scenario', s, '--records', '20000', '--out', {str(tmp_path)!r} + '/' + s])"
        f" for s in {SCENARIOS!r}]\n"
        "print(codes)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip().splitlines()[-1] == str([0] * len(SCENARIOS))
    assert {path.name for path in tmp_path.iterdir()} == set(SCENARIOS)


# ---------------------------------------------------------------- CLI


def test_cli_defaults_to_tomography(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--out", str(out), "--records", "20000", "--seed", "42"])
    assert code == 0
    assert (out / "covariance.json").exists()
    printed = capsys.readouterr().out
    assert "tomography" in printed
    assert f"wrote {len(list(out.iterdir()))} files" in printed  # manifest.json too


def test_cli_seed_and_records_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_run(r_true=0.0), cfg_path)
    out = tmp_path / "run"
    code = main(
        ["--config", str(cfg_path), "--out", str(out), "--records", "3000", "--seed", "123"]
    )
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["seed"] == 123
    assert manifest["results"]["n_records"] == 3000
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["run"]["seed"] == 123
    assert cfg["run"]["n_records"] == 3000


def test_cli_explicit_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_run(n_records=1500, r_true=0.0), cfg_path)
    out = tmp_path / "run"
    code = main(["--config", str(cfg_path), "--scenario", "tomography", "--out", str(out)])
    assert code == 0
    assert read_manifest(out)["results"]["n_records"] == 1500


def test_cli_bad_config_returns_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"run": {"n_record": 5}}')
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_negative_seed_returns_2(tmp_path):
    assert main(["--seed", "-1", "--out", str(tmp_path / "o")]) == 2


def test_cli_negative_records_returns_2(tmp_path, capsys, draws):
    # the override is checked where the config file's own value would be
    out = tmp_path / "o"
    assert main(["--records", "-1", "--out", str(out)]) == 2
    assert "config error: run.n_records must be >= 0" in capsys.readouterr().err
    assert draws == [] and not out.exists()


@pytest.mark.parametrize(
    ("section", "key", "value", "scenario"),
    [
        ("run", "wigner_extent", "Infinity", "tomography"),
        ("run", "bin_sigmas", "Infinity", "tomography"),
        ("run", "psd_noise_sigma", "Infinity", "psd"),
        ("run", "r_true", "Infinity", "tomography"),
        ("run", "psd_seed_offset", "-1", "psd"),
        ("detection", "n_noise", "Infinity", "tomography"),
        ("run", "gain_map_powers_dbm", "[-84.0, NaN]", "gain-map"),
        ("run", "gain_span_hz", "1" + "0" * 400, "gain-map"),
        ("pump", "anchor_power_dbm", "-80.0", "psd"),  # above the critical power
        # pump values the gain model cannot evaluate in float64
        ("pump", "omega_p_hz", "1e300", "psd"),
        ("pump", "critical_omega_p_hz", "1e300", "gain-map"),
        ("pump", "anchor_omega_p_hz", "1e300", "tomography"),
        ("pump", "critical_power_dbm", "1e15", "psd"),
        ("pump", "critical_power_dbm", "1e300", "tomography"),
        ("pump", "anchor_freq_scale_hz", "5e-324", "gain-map"),
        ("pump", "anchor_freq_scale_hz", "1e-300", "psd"),
    ],
    ids=lambda v: v if len(v) < 40 else "int-beyond-float",
)
def test_cli_non_finite_or_negative_config_returns_2(
    tmp_path, capsys, section, key, value, scenario
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
    out = tmp_path / "o"
    args = ["--config", str(cfg_path), "--scenario", scenario, "--records", "2000"]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {section}.{key}" in err
    assert not out.exists()


def test_cli_unstable_pump_returns_3(tmp_path, capsys):
    data = json.loads(dumps_config(default_config()))
    data["pump"]["power_dbm"] = -80.0  # above the critical power
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code = main(["--config", str(cfg_path), "--scenario", "psd", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("override", "scenario", "cause"),
    [
        ('{"run": {"psd_noise_sigma": 1e200}}', "psd", "sum of squares"),
        ('{"run": {"psd_noise_sigma": 1e308}}', "psd", "noisy spectrum"),
        ('{"run": {"r_true": 400.0}}', "tomography", "overflow the covariance"),
        ('{"run": {"bin_sigmas": 1e308}}', "tomography", "squared bin range"),
        ('{"run": {"bin_sigmas": 1e300}}', "tomography", "squared bin range"),
        ('{"run": {"bin_sigmas": 5e-324}}', "tomography", "edges coincide"),
        # a record spread below 1, so the binning range itself rounds to 0
        (
            '{"run": {"bin_sigmas": 5e-324}, "detection": {"gain_ch1": 0.01, "gain_ch2": 0.01}}',
            "tomography",
            "binning half-width",
        ),
        # bin centres up to +-half, whose squares leave float64
        ('{"run": {"bin_sigmas": 1e155}}', "tomography", "squared bin range"),
        # a pump-off variance so small that its scale factor overflows
        (
            '{"detection": {"gain_ch1": 1e-160}, "run": {"method": "streaming"}}',
            "tomography",
            "channel 1, 3.396e-319, is too small",
        ),
        (
            '{"detection": {"gain_ch2": 1e-160}, "run": {"method": "streaming"}}',
            "tomography",
            "channel 2, 3.397e-319, is too small",
        ),
        (
            '{"detection": {"gain_ch1": 1e-160, "gain_ch2": 1e-160}}',
            "tomography",
            "channel 1, 3.394e-319, is too small",
        ),
        # records whose squares leave float64
        ('{"detection": {"gain_ch1": 1e155}}', "tomography", "spread overflows"),
        ('{"detection": {"gain_ch1": 1e300}}', "tomography", "spread overflows"),
        (
            '{"detection": {"gain_ch1": 1e155}, "run": {"method": "streaming"}}',
            "tomography",
            "moment sums are not finite",
        ),
        # an estimate too large for the fits and the Wigner densities to square
        (
            '{"run": {"n_add_true": 1e155, "method": "streaming"}}',
            "tomography",
            "covariance entry 5.291e+154 is too large",
        ),
    ],
    ids=[
        "psd-fit",
        "psd-spectrum",
        "tomography-covariance",
        "tomography-binning",
        "tomography-bin-width",
        "tomography-bin-edges",
        "tomography-bin-range",
        "tomography-bin-centres",
        "tiny-gain-ch1",
        "tiny-gain-ch2",
        "tiny-gains",
        "huge-gain-histogram",
        "huge-gain-1e300-histogram",
        "huge-gain-streaming",
        "huge-excess-noise",
    ],
)
def test_cli_overflowing_config_returns_3(tmp_path, capsys, override, scenario, cause):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(override)
    args = ["--config", str(cfg_path), "--scenario", scenario, "--records", "2000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns of nothing on the way
        assert main([*args, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and cause in err


def _unbuilt(*args, **kwargs):
    raise AssertionError("built past the memory bound")


def test_cli_config_beyond_memory_returns_2(tmp_path, capsys, monkeypatch, draws):
    # on a machine that reports 1 GiB: 10^7 or 10^18 bins per axis ask for
    # PiB of histogram counts, 10^7 Wigner points per axis for 800 TB of
    # grid, and each other count a few GiB of arrays, CSV lines or buffered
    # prefix records (the prefix of 10^8 records, once --records sets 10^8);
    # each is refused at load, before anything is built, drawn or written
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    # the histogram method alone buffers the prefix
    streaming = {"prefix_records": 10**8, "n_records": 10**8, "method": "streaming"}
    assert parse_config({"run": streaming}).run.prefix_records == 10**8
    monkeypatch.setattr(config, "design_filter", _unbuilt)
    monkeypatch.setattr(cli, "run_scenario", _unbuilt)
    for k, (section, key, value, records) in enumerate(
        [
            ("run", "bins", 10**7, 2000),
            ("run", "bins", 10**18, 2000),
            ("run", "wigner_points", 10**7, 2000),
            ("filter", "grid_points", 2 * 10**7, 2000),
            ("run", "psd_points", 10**7, 2000),
            ("run", "flux_points", 10**7, 2000),
            ("run", "reflection_points", 10**7, 2000),
            ("run", "gain_points", 10**6, 2000),  # times 5 gain-map powers
            ("run", "prefix_records", 10**8, 10**8),
        ]
    ):
        cfg_path = tmp_path / f"cfg{k}.json"
        cfg_path.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
        out = tmp_path / f"o{k}"
        args = ["--config", str(cfg_path), "--records", str(records), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error: the configuration does not fit in memory" in err
        assert f"{section}.{key} = {value}" in err
        assert draws == [] and not out.exists()


def test_memory_bound_accepts_its_edge_and_rejects_beyond(monkeypatch):
    # 1000 bins per axis need 96 * 1001^2 bytes of histogram cells: on a
    # machine of exactly that many bytes 1000 bins fit and 1001 do not
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 96 * 1001**2}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert parse_config({"run": {"bins": 1000}}).run.bins == 1000
    with pytest.raises(ConfigError, match="run.bins = 1001 needs"):
        parse_config({"run": {"bins": 1001}})


def test_memory_bound_is_skipped_without_posix_sysconf(monkeypatch):
    # the allocation then fails in the run, as the next test's does
    monkeypatch.delattr(os, "sysconf")
    assert parse_config({"run": {"bins": 10**7}}).run.bins == 10**7


def test_cli_allocation_beyond_memory_returns_2(tmp_path, capsys, monkeypatch):
    # without POSIX sysconf 10^18 flux points pass load; numpy's MemoryError
    # reaches cli.main
    monkeypatch.delattr(os, "sysconf")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"run": {"flux_points": 1000000000000000000}}')
    args = ["--config", str(cfg_path), "--scenario", "flux-sweep", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "config error: the configuration does not fit in memory (" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize(
    ("override", "names"),
    [
        ('{"filter": {"width_hz": 1e300}}', ["filter", "width"]),
        ('{"filter": {"width_hz": 5e-324}}', ["filter", "width"]),
        ('{"device": {"kappa_hz": 5e-324}}', ["device.kappa_hz", "bandwidth"]),
        ('{"device": {"kappa_hz": 1e-300}}', ["device.kappa_hz", "bandwidth"]),
        # above the bandwidth floor at the pump power, below it at a gain-map power
        (
            '{"device": {"kappa_hz": 3.5e-146}, "run": {"gain_map_powers_dbm": [-80.65]}}',
            ["device.kappa_hz, run.gain_map_powers_dbm", "bandwidth"],
        ),
        # a psd span of +-3 B whose doubled detunings float64 cannot square
        ('{"device": {"kappa_hz": 1e155}}', ["device.kappa_hz", "bandwidth", "above"]),
        (
            '{"device": {"gain_bandwidth_const": 1e155}}',
            ["device.gain_bandwidth_const", "bandwidth", "above"],
        ),
    ],
    ids=[
        "wide-filter",
        "narrow-filter",
        "kappa-5e-324",
        "kappa-1e-300",
        "gain-map-kappa",
        "kappa-1e155",
        "gain-bandwidth-const-1e155",
    ],
)
def test_cli_config_float64_cannot_evaluate_returns_2(
    tmp_path, capsys, draws, override, names, scenario
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(override)
    out = tmp_path / "o"
    args = ["--config", str(cfg_path), "--scenario", scenario, "--records", "2000"]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert all(name in err for name in names)
    assert "Warning" not in err and "Traceback" not in err
    assert draws == [] and not out.exists()


def test_gain_model_error_names_every_key_set_away_from_its_default():
    # the device keys round the gain bandwidth to 0, and the valid pump key
    # set next to them is named too
    data = {
        "pump": {"power_dbm": -81.0},
        "device": {"kappa_hz": 5e-324, "gain_bandwidth_const": 1e-3},
    }
    keys = r"pump\.power_dbm, device\.kappa_hz, device\.gain_bandwidth_const"
    with pytest.raises(ConfigError, match=rf"^{keys}: bandwidth must be > 0"):
        parse_config(data)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_filter_that_overlaps_its_mirror_returns_2(tmp_path, capsys, draws, scenario):
    # a 4 MHz band at 1 MHz offset reaches 1 MHz past the pump into its
    # mirror: the two channels share frequencies, and no scenario runs on it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"filter": {"offset_hz": 1e6, "width_hz": 4e6}}')
    out = tmp_path / "o"
    args = ["--config", str(cfg_path), "--scenario", scenario, "--records", "2000"]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: filter: the signal band overlaps its mirror" in err
    assert draws == [] and not out.exists()


@pytest.mark.parametrize("shape", ["boxcar-notch", "raised-cosine-notch"])
def test_cli_filter_at_half_its_width_from_the_pump_runs(tmp_path, shape):
    # offset = width / 2: the band touches its mirror only at the notched
    # pump bin, so the device state exists
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "filter": {"shape": shape, "offset_hz": 2e6, "width_hz": 4e6},
                "run": {"state_source": "device", "method": "streaming"},
            }
        )
    )
    out = tmp_path / "o"
    assert main(["--config", str(cfg_path), "--records", "200000", "--out", str(out)]) == 0
    assert read_manifest(out)["results"]["predicted_r"] > 1.0


# Boundary values as the config file can spell them: random finite floats
# besides, but no mid-size count that numpy would really allocate
_FLOATS = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e-160, 1e15, 1e155, 1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_INTS = st.sampled_from([0, 1, 2, 3, -1, 10**18])


def _values_of(section: str, name: str):
    kind = config._FIELD_TYPES[section][name]
    if kind is str:
        return st.sampled_from([*config._STRING_FIELDS[(section, name)], "unknown"])
    if kind is bool:
        return st.booleans()
    if kind is int:
        return _INTS
    if kind == float | None:
        return st.none() | _FLOATS
    if kind == tuple[float, ...]:
        return st.lists(_FLOATS, max_size=3)
    return _FLOATS


_FIELDS = [(section, name) for section, hints in config._FIELD_TYPES.items() for name in hints]
# one or two fields changed at a time, as ((section, name), value) pairs
_CHANGES = st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=2, unique=True).flatmap(
    lambda keys: st.tuples(*(st.tuples(st.just(key), _values_of(*key)) for key in keys))
)


@given(changes=_CHANGES, scenario=st.sampled_from(SCENARIOS))
# the inputs that once exited 1 with a traceback, and a filter band that
# overlaps its mirror
@example(changes=((("pump", "omega_p_hz"), 1e300),), scenario="psd")
@example(changes=((("pump", "critical_omega_p_hz"), 1e300),), scenario="tomography")
@example(changes=((("pump", "anchor_omega_p_hz"), 1e300),), scenario="gain-map")
@example(changes=((("pump", "critical_power_dbm"), 1e15),), scenario="psd")
@example(changes=((("pump", "critical_power_dbm"), 1e300),), scenario="gain-map")
@example(changes=((("pump", "anchor_freq_scale_hz"), 5e-324),), scenario="psd")
@example(changes=((("pump", "anchor_freq_scale_hz"), 1e-300),), scenario="tomography")
@example(changes=((("run", "bin_sigmas"), 1e300),), scenario="tomography")
@example(changes=((("run", "bin_sigmas"), 5e-324),), scenario="tomography")
@example(changes=((("run", "bins"), 10**18),), scenario="tomography")
@example(
    changes=((("filter", "offset_hz"), 1e6), (("filter", "width_hz"), 4e6)),
    scenario="psd",
)
# values whose squares, or whose scale factors, leave float64
@example(changes=((("detection", "gain_ch1"), 1e-160), (("run", "method"), "streaming")),
         scenario="tomography")
@example(changes=((("detection", "gain_ch2"), 1e-160), (("run", "method"), "streaming")),
         scenario="tomography")
@example(changes=((("detection", "gain_ch1"), 1e-160), (("detection", "gain_ch2"), 1e-160)),
         scenario="tomography")
@example(changes=((("detection", "gain_ch1"), 1e155),), scenario="tomography")
@example(changes=((("detection", "gain_ch1"), 1e300),), scenario="tomography")
@example(changes=((("detection", "gain_ch1"), 1e155), (("run", "method"), "streaming")),
         scenario="tomography")
@example(changes=((("device", "kappa_hz"), 1e155),), scenario="psd")
@example(changes=((("device", "gain_bandwidth_const"), 1e155),), scenario="psd")
@example(changes=((("run", "bin_sigmas"), 1e155),), scenario="tomography")
@example(changes=((("run", "n_add_true"), 1e155), (("run", "method"), "streaming")),
         scenario="tomography")
# channel gains so far apart that the shared histogram range cannot resolve
# the smaller channel
@example(changes=((("detection", "gain_ch1"), 22.0),), scenario="tomography")
@example(changes=((("detection", "gain_ch2"), 1e6), (("detection", "n_noise"), 0.0)),
         scenario="tomography")
@example(changes=((("detection", "gain_ch1"), 1e145),), scenario="tomography")
@example(changes=((("detection", "gain_ch1"), 10.0), (("run", "bins"), 16)),
         scenario="tomography")
@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_exits_0_2_3_or_4_on_any_config(tmp_path, capsys, draws, changes, scenario):
    data: dict = {}
    for (section, name), value in changes:
        data.setdefault(section, {})[name] = value
    draws.clear()
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch, warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        cfg_path = Path(scratch) / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        args = ["--config", str(cfg_path), "--scenario", scenario, "--records", "3000"]
        code = main([*args, "--out", str(Path(scratch) / "o")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    # numpy warns of nothing: a value float64 cannot hold is reported as an
    # error; the one warning left is the estimate's own physicality margin
    unexpected = [
        str(w.message) for w in caught if "marginally unphysical" not in str(w.message)
    ]
    assert unexpected == []
    if code == 2:  # a config error stops the run before its record pass
        assert draws == []


@pytest.mark.parametrize(
    ("override", "channel"),
    [
        ('{"detection": {"gain_ch1": 22}}', 2),
        ('{"detection": {"gain_ch2": 1e6, "n_noise": 0}}', 1),
        ('{"detection": {"gain_ch1": 1e145}}', 2),
        ('{"detection": {"gain_ch1": 10}, "run": {"bins": 16}}', 2),
    ],
    ids=["gain-22", "gain-1e6-ch2-no-noise", "gain-1e145", "gain-10-16-bins"],
)
def test_cli_histogram_names_the_channel_its_range_cannot_resolve(
    tmp_path, capsys, override, channel
):
    # the square range follows the wider channel; the other one's spread is
    # below half a bin, which the estimate would otherwise report as an
    # unphysical covariance, a degenerate reference or a pair histogram too
    # few to resolve
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(override)
    args = ["--config", str(cfg_path), "--records", "100000", "--out", str(tmp_path / "o")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert f"of channel {channel} spreads" in err and "below half a bin width" in err
    assert '"streaming"' in err


@pytest.mark.parametrize("n_noise", ["1e30", "1e40", "1e300"])
def test_cli_unresolvable_signal_returns_3(tmp_path, capsys, n_noise):
    # the pump-on and pump-off records round to the same numbers, which
    # would deconvolve to an exact vacuum whatever the signal
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"detection": {{"n_noise": {n_noise}}}}}')
    args = ["--config", str(cfg_path), "--records", "200000", "--out", str(tmp_path / "o")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "resolve the vacuum quarter" in err
    assert "Warning" not in err


@pytest.mark.parametrize("method", ["histogram", "streaming"])
def test_cli_vacuum_run_gives_exactly_a_quarter_and_exits_0(tmp_path, method):
    # with r_true = 0 both pump settings draw the same records: v = I/4 is
    # the right answer, not an unresolved one
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"run": {{"r_true": 0.0, "method": "{method}"}}}}')
    out = tmp_path / "o"
    args = ["--config", str(cfg_path), "--records", "200000", "--out", str(out)]
    assert main(args) == 0
    v = json.loads((out / "covariance.json").read_text())["v"]
    assert v == (np.eye(4) / 4.0).reshape(-1).tolist()


@pytest.mark.parametrize("method", ["histogram", "streaming"])
@pytest.mark.parametrize("records", [0, 1])
def test_cli_too_few_records_returns_3(tmp_path, capsys, method, records):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_run(method=method), cfg_path)
    code = main(
        ["--config", str(cfg_path), "--records", str(records), "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "need at least 2 records" in capsys.readouterr().err


def test_cli_two_record_histogram_run_is_unresolved_not_unphysical(tmp_path, capsys):
    # each pair histogram of two records has a rank-1 2x2, which Sheppard's
    # correction leaves with variances below the covariance
    cfg_path = tmp_path / "cfg.json"
    save_config(small_run(method="histogram"), cfg_path)
    code = main(["--config", str(cfg_path), "--records", "2", "--out", str(tmp_path / "o")])
    assert code == 3
    assert (
        "numerical failure: histogram X1-P1 holds 2 in-range records, too few to "
        "resolve: its covariance exceeds the Sheppard-corrected variances"
    ) in capsys.readouterr().err


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _script_main(name):
    return _script(name).main


def test_mutation_audit_mutates_a_site_in_a_raised_expression():
    audit = _script("mutation_audit")
    source = 'def f(k):\n    raise ValueError(f"channel {k + 1}")\n'
    sites = audit.sites(ast.parse(source))
    mutants = {site.what: audit.mutant_source(source, site) for site in sites}
    assert set(mutants) == {"raise -> pass", "+ -> -"}
    assert "pass" in mutants["raise -> pass"] and "raise" not in mutants["raise -> pass"]
    assert "{k - 1}" in mutants["+ -> -"] and "raise" in mutants["+ -> -"]


@pytest.mark.parametrize(
    ("override", "code", "message"),
    [
        (["--records", "1"], 3, "numerical failure"),
        (["--records", "-1"], 2, "config error"),
        (["--seed", "-1"], 2, "config error"),
    ],
    ids=["one-record", "negative-records", "negative-seed"],
)
def test_run_all_scenarios_exits_like_the_cli(tmp_path, capsys, override, code, message):
    assert _script_main("run_all_scenarios")(["--out", str(tmp_path), *override]) == code
    assert message in capsys.readouterr().err
    # an override the CLI rejects stops the script before any scenario runs
    assert (code == 2) == (not any(tmp_path.iterdir()))


def test_calibrate_defaults_reproduces_the_device_constant(capsys):
    # the script root-finds the constant that device.py hard-codes
    _script_main("calibrate_defaults")()
    out = capsys.readouterr().out
    assert f"gain_bandwidth_const = {GAIN_BANDWIDTH_CONST!r}\n" in out


def test_cli_unwritable_out_returns_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["--scenario", "flux-sweep", "--out", str(blocker / "sub")])
    assert code == 4
    assert "i/o failure" in capsys.readouterr().err


def test_rerun_reproduces_data_files_byte_for_byte(tmp_path):
    args = ["--scenario", "tomography", "--records", "20000", "--seed", "42"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    man_a, man_b = read_manifest(out_a), read_manifest(out_b)
    assert man_a["outputs"] == man_b["outputs"]
    for name in man_a["outputs"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# SHA-256 of the histogram and Wigner CSVs of the default run at 2e5 records,
# seed 7: a change of any byte of them is a change of the output format or
# of the numbers
_GOLDEN_SEED7 = {
    "hist_off_p1_p2.csv": "3261c6a2eb982b2af4608440b77e6c9134d3c3c428da46f31811404ef0cba5ec",
    "hist_off_x1_p1.csv": "a94af3dc4eeef6142323f23e63aaf67e5c38458f67789b3dd0c24a2626ce0c1a",
    "hist_off_x1_p2.csv": "a3574aaf6b5ad132f2d2bcbc7056ac149ef106176ecfd26534d023c8e7272adb",
    "hist_off_x1_x2.csv": "f0cd4f970eac020621a61d6f2cda1e7145525f463c121cb963181904829b3836",
    "hist_off_x2_p1.csv": "f56af4d1675af83e4006730bb5e70d0c293cd6080990a174a41a8ae2bf626f1e",
    "hist_off_x2_p2.csv": "5a3a544648319105930ba1b92eb6539ec314f0c92e9fdb5ae3b5bc27042adca6",
    "hist_on_p1_p2.csv": "f66a9c7abc3146c11c87dacdebee4b0d5a3b8c103dad9230f5d89107a4322aec",
    "hist_on_x1_p1.csv": "361547ee06cdc6aa592c52b57c52212d06c0d6a8370c0be9a81c9ae3a5a13dbb",
    "hist_on_x1_p2.csv": "466214bf62b87c0adbe0094c4479853ee2605f5b1def7643f0b09c6c34319385",
    "hist_on_x1_x2.csv": "e87ba1452fe52ee5cf018b4803bcdbec2782e5e75f5eb838a30bfc6add43bde8",
    "hist_on_x2_p1.csv": "7109469074ba04e1d32c9417bfb18e3dbf7148791b8b49908921e6d7dd2e80a0",
    "hist_on_x2_p2.csv": "735856b1306abbca524c96ed2fcc4f43f18ea19b0a115c5653697cd65bd927bc",
    "wigner_x1_p1.csv": "590d784a64db9e987a617eb0bf4a678414c9c67e9a9971f7a95f29b50d95079a",
    "wigner_x1_p1_ideal.csv": "6801f0d7420ea8d4098de30c7e4fceaecff8f11c0eba2a4d6399262e96879324",
    "wigner_x1_x2.csv": "f6e68867bfdc3ef7f531ec6571ae38e490eaaea0b83f9b0d485cf9c2aeea0ad0",
    "wigner_x1_x2_ideal.csv": "d057ad70ece3d52f2615fcfde5e68eac15d11b75f83a2d16435f7390d6876483",
}


def test_default_run_csvs_keep_their_golden_digests(tmp_path):
    cfg = default_config()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, n_records=200_000, seed=7))
    outputs = run_scenario("tomography", cfg, tmp_path)["outputs"]
    for name, digest in _GOLDEN_SEED7.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        assert outputs[name] == digest, name


# SHA-256 of the streaming estimate of the same records and of the default
# psd run: the moment path and the fit, which no histogram CSV pins; then
# every other file no golden test pins: the default config.json, the device
# scenarios' CSVs, the JSON files of the histogram run above, and the record
# files of a 20,000-record save_records run
_GOLDEN_STREAMING_SEED7 = {
    "covariance.json": "a7689c4476ddb0a75b4dad508e25ae901d067d80c555f889132ec0571d07c2e7",
}
_GOLDEN_PSD = {
    "psd.csv": "7e3121f108c47da2e06e9a377a80fa7c908d7f8352426896c3ed94e6a9f8e42b",
    "psd_fit.json": "8c8b15924c6408fe56f500ae31ce34ff0350aa94d28eb69611adf47d0e0d9e68",
}
_GOLDEN_FLUX_SWEEP = {
    "config.json": "703bb921d4b92e60dd4f9ed814826bc3ccbdb31d0f8ed2bb3a88ba8a555db93c",
    "flux_sweep.csv": "97b2f3f77096faa95d6258c30004b31a600339a7902c3d01816d8bc13511630d",
}
_GOLDEN_REFLECTION = {
    "reflection.csv": "3c62da2459b25b174ae87f07e689d1fa9bd38c9f5380e239a25385c6fee3f93d",
}
_GOLDEN_GAIN_MAP = {
    "gain_map.csv": "e22f34e0801483c39123581a74a7686b60ed193cce98c4b105e24125df38c215",
}
_GOLDEN_HISTOGRAM_SEED7 = {
    "covariance.json": "a670ae0ebc10a87416fb15ab989fae7421ba12ef80c149ff435ee11979df2404",
    "histograms.json": "e2c430c5d164e4cdf700003b7995e72cf28c5998742eb65439e35a7af1f41ba9",
}
_GOLDEN_RECORDS_SEED7 = {
    "records_on.bin": "cb82b871ec1fd4edd6ead0c6a5a3212e1bd172b7b8dc1caa0c9841437da56ca6",
    "records_off.bin": "c86e7114ccad44e14e71f9295e6e985d92633f1fb8797220bf174bb430143349",
}


@pytest.mark.parametrize(
    ("scenario", "run", "golden"),
    [
        ("tomography", {"n_records": 200_000, "seed": 7, "method": "streaming"},
         _GOLDEN_STREAMING_SEED7),
        ("psd", {}, _GOLDEN_PSD),
        ("flux-sweep", {}, _GOLDEN_FLUX_SWEEP),
        ("reflection", {}, _GOLDEN_REFLECTION),
        ("gain-map", {}, _GOLDEN_GAIN_MAP),
        ("tomography", {"n_records": 200_000, "seed": 7}, _GOLDEN_HISTOGRAM_SEED7),
        ("tomography", {"n_records": 20_000, "seed": 7, "save_records": True},
         _GOLDEN_RECORDS_SEED7),
    ],
    ids=["streaming", "psd", "flux-sweep", "reflection", "gain-map", "histogram",
         "save-records"],
)
def test_streaming_and_psd_runs_keep_their_golden_digests(tmp_path, scenario, run, golden):
    cfg = default_config()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **run))
    outputs = run_scenario(scenario, cfg, tmp_path)["outputs"]
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        assert outputs[name] == digest, name
