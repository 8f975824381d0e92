import json

import pytest

import addcomb.bohr
import addcomb.fourier
import addcomb.sets
import addcomb.spectrum
from addcomb.cli import main
from addcomb.serialize import dumps


@pytest.fixture
def set_file(tmp_path):
    path = tmp_path / "A.json"
    path.write_text(dumps({"group": {"cycles": [256]}, "interval": 2}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze(set_file, capsys):
    code, payload = run_cli(capsys, "analyze", set_file, "--d", "1.0")
    assert code == 0
    rows = payload["growth_profile"]["rows"]
    assert rows[0]["mu"] == 5
    assert all(r["satisfied"] for r in rows)


def test_spectrum(set_file, capsys):
    code, payload = run_cli(capsys, "spectrum", set_file, "--delta", "0.5")
    assert code == 0
    assert len(payload["elements"]) == 21
    assert payload["delta"] == 0.5


def test_bohr(tmp_path, capsys):
    freqs = tmp_path / "freqs.json"
    freqs.write_text(dumps({"group": {"cycles": [16]}, "elements": [[1]]}))
    code, payload = run_cli(capsys, "bohr", "--freqs", str(freqs), "--radius", "0.125")
    assert code == 0
    members = sorted(c[0] for c in payload["members"]["elements"])
    assert members == [0, 1, 2, 14, 15]


def no_work(*args, **kwargs):
    raise AssertionError("work started before the parameters were checked")


@pytest.mark.parametrize("d,flags,config,message", [
    ("1.0", ["--n-max", "1"], None, "integer n_max >= 2"),
    ("1.0", ["--n-max", "0"], None, "integer n_max >= 2"),
    ("1.0", [], {"n_max": 2.5}, "integer n_max >= 2"),
    ("1.0", [], {"n_max": "x"}, "integer n_max >= 2"),
    ("1.0", [], {"n_max": True}, "integer n_max >= 2"),
    ("nan", [], None, "finite d > 0"),
    ("inf", [], None, "finite d > 0"),
    ("0", [], None, "finite d > 0"),
    ("-1", [], None, "finite d > 0"),
])
def test_bad_analyze_parameters_are_usage_errors(set_file, tmp_path, capsys, monkeypatch,
                                                 d, flags, config, message):
    monkeypatch.setattr(addcomb.sets, "sumset", no_work)
    argv = ["analyze", set_file, f"--d={d}"] + flags
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf"])
def test_bohr_non_finite_radius_is_usage_error(tmp_path, capsys, monkeypatch, radius):
    monkeypatch.setattr(addcomb.bohr, "bohr_distance_table", no_work)
    freqs = tmp_path / "freqs.json"
    freqs.write_text(dumps({"group": {"cycles": [16]}, "elements": [[1]]}))
    code = main(["bohr", "--freqs", str(freqs), f"--radius={radius}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite delta >= 0" in captured.err


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_spectrum_non_finite_delta_is_usage_error(set_file, capsys, monkeypatch, delta):
    for module in (addcomb.fourier, addcomb.spectrum):
        monkeypatch.setattr(module, "transform", no_work)
    code = main(["spectrum", set_file, f"--delta={delta}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite delta >= 0" in captured.err


def test_cover_chang(tmp_path, capsys):
    B = tmp_path / "B.json"
    B.write_text(dumps({"group": {"cycles": [64]}, "interval": 4}))
    Bp = tmp_path / "Bp.json"
    Bp.write_text(dumps({"group": {"cycles": [64]}, "interval": 8}))
    code, payload = run_cli(capsys, "cover", str(B), "--mode", "chang",
                            "--bprime", str(Bp), "--k", "3")
    assert code == 0
    assert payload["containment_verified"] is True
    assert payload["parameters"]["mu_kB_plus_Bp"] == 41


def test_cover_ruzsa(tmp_path, capsys):
    B = tmp_path / "B.json"
    B.write_text(dumps({"group": {"cycles": [32]}, "interval": 2}))
    code, payload = run_cli(capsys, "cover", str(B), "--mode", "ruzsa")
    assert code == 0
    assert payload["T"] == [[0], [5], [24]]


def test_birkhoff_interval_system(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(dumps(
        {"d": 1.25, "interval": {"group": {"cycles": [64]}, "scale": 16.0}}))
    code, payload = run_cli(capsys, "birkhoff", "--system", str(system))
    assert code == 0
    assert payload["factor2_ok"] is True
    assert payload["system"]["audit"]["growth_ok"] is True
    assert all((v["left_ok"] is not False) and v["right_ok"]
               for v in payload["sandwich"])


def test_birkhoff_levels_system(tmp_path, capsys):
    # the step interpolation rounds down, so every audited radius needs a level
    levels = [
        {"radius": r, "set": {"group": {"cycles": [16]}, "interval": int(4 * r)}}
        for r in (2.0, 1.0, 2 / 3, 1 / 3, 2 / 9, 1 / 9)
    ]
    system = tmp_path / "system.json"
    system.write_text(dumps({"d": 2.0, "levels": levels}))
    code, payload = run_cli(capsys, "birkhoff", "--system", str(system))
    assert code == 0
    assert payload["metric"] is not None


@pytest.mark.parametrize("fields,config,message", [
    ({"K": 2.5}, None, "needs an integer K"),
    ({"d": -1}, None, "needs a finite d >= 0"),
    ({"K": 40}, None, "needs 1 <= K <= 31"),
    ({}, {"bourgain_depth_cap": 32}, "needs 1 <= cap <= 31"),
])
def test_birkhoff_bad_system_parameters_are_usage_errors(tmp_path, capsys, fields,
                                                         config, message):
    system = tmp_path / "system.json"
    system.write_text(dumps({"d": 1.25, **fields,
                             "interval": {"group": {"cycles": [64]}, "scale": 16.0}}))
    argv = ["birkhoff", "--system", str(system)]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


_C64 = '{"cycles": [64]}'


@pytest.mark.parametrize("text,message", [
    # JSON reads 1e400 as inf
    ('{"interval": {"group": %s, "scale": 1e400}}' % _C64, "needs a finite scale >= 0"),
    ('{"interval": {"group": %s, "scale": -3}}' % _C64, "needs a finite scale >= 0"),
    ('{"levels": [{"radius": 1.0, "set": {"group": %s, "interval": 4}},'
     ' {"radius": NaN, "set": {"group": %s, "interval": 0}}]}' % (_C64, _C64),
     "needs each level radius finite and >= 0"),
], ids=["scale-inf", "scale-negative", "radius-nan"])
def test_birkhoff_bad_system_values_are_usage_errors(tmp_path, capsys, text, message):
    system = tmp_path / "system.json"
    system.write_text(text)
    code = main(["birkhoff", "--system", str(system)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_birkhoff_failed_audit_reports_without_metric(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(dumps(
        {"d": 1.0, "constant": {"group": {"cycles": [16]}, "elements": [[0], [1]]}}))
    code, payload = run_cli(capsys, "birkhoff", "--system", str(system))
    assert code == 0
    assert payload["metric"] is None
    assert payload["system"]["audit"]["symmetric_ok"] is False


def test_freiman(set_file, capsys):
    code, payload = run_cli(capsys, "freiman", set_file, "--d", "1.0",
                            "--epsilon", "0.5")
    assert code == 0
    assert payload["containment"] is True
    assert payload["empirical_dim"] <= 4.0
    assert payload["measure_ratio"] == 51.2


def test_freiman_failing_containment_exits_1(set_file, capsys):
    code, payload = run_cli(capsys, "freiman", set_file, "--d", "1.0",
                            "--epsilon", "0.5", "--radius", "0.0625")
    assert code == 1
    assert payload["containment"] is False


def test_freiman_paper_mode(set_file, capsys):
    code, payload = run_cli(capsys, "freiman", set_file, "--d", "1.0",
                            "--mode", "paper")
    assert code == 0
    assert payload["degenerate"] is True


def test_out_writes_file(set_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload = run_cli(capsys, "spectrum", set_file, "--delta", "0.5",
                            "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == payload


def test_verify_suite(capsys):
    code = main(["verify", "--suite", "covering", "--seed", "3"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 0
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 1
    assert "[PASS]" in captured.err


def test_config_file(set_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps({"dim_grid_cap": 5, "max_retries": 1}))
    code, payload = run_cli(capsys, "--config", str(cfg), "freiman", set_file,
                            "--d", "1.0", "--epsilon", "0.5")
    assert code == 0
    assert payload["config"]["dim_grid_cap"] == 5
    assert payload["config"]["max_retries"] == 1
    assert payload["epsilon_retries"] == [0.5, 1.0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])  # missing required arguments
    assert exc.value.code == 2


def test_chang_without_bprime_is_usage_error(tmp_path):
    B = tmp_path / "B.json"
    B.write_text(dumps({"group": {"cycles": [64]}, "interval": 4}))
    with pytest.raises(SystemExit) as exc:
        main(["cover", str(B), "--mode", "chang"])
    assert exc.value.code == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["spectrum", "/nonexistent.json", "--delta", "0.5"]) == 2


def test_seed_changes_nothing_for_deterministic_commands(set_file, capsys):
    code1, p1 = run_cli(capsys, "freiman", set_file, "--d", "1.0", "--epsilon", "0.5")
    code2, p2 = run_cli(capsys, "freiman", set_file, "--d", "1.0", "--epsilon", "0.5")
    assert (code1, p1) == (code2, p2)


def test_chang_without_k_prints_error(tmp_path, capsys):
    B = tmp_path / "B.json"
    B.write_text(dumps({"group": {"cycles": [64]}, "interval": 4}))
    with pytest.raises(SystemExit) as exc:
        main(["cover", str(B), "--mode", "chang", "--bprime", str(B)])
    assert exc.value.code == 2
    assert "error: cover --mode chang needs --bprime and --k" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["0.6", "3.0"])
def test_freiman_epsilon_above_half_is_usage_error(set_file, capsys, monkeypatch, epsilon):
    monkeypatch.setattr(addcomb.sets, "sumset", no_work)
    code = main(["freiman", set_file, "--d", "1.0", "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "epsilon must be <= 1/2" in captured.err


@pytest.mark.parametrize("config,message", [
    ({"dim_grid_cap": "abc"}, "dim_grid_cap must be an integer >= 0"),
    ({"max_retries": "x"}, "max_retries must be an integer >= 0"),
    ({"ratio_bound": None}, "ratio_bound must be a finite number >= 1"),
    ({"n_max": 2.5}, "n_max must be an integer >= 2"),
    ({"C": "a"}, "C must be a finite number >= 0"),
    ({"max_retries": -3}, "max_retries must be an integer >= 0"),
])
def test_bad_freiman_config_is_usage_error(set_file, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["--config", str(cfg), "freiman", set_file, "--d", "1.0",
                 "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_unknown_config_key_is_usage_error(set_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps({"dim_grid_cap": 5, "max_retrys": 1}))
    code = main(["--config", str(cfg), "freiman", set_file, "--d", "1.0",
                 "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: unknown config key 'max_retrys'" in captured.err
