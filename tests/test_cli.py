import json
import math

import numpy as np
import pytest

from lambda_capacity import cli, sweep
from lambda_capacity.channel import ChannelMap
from lambda_capacity.cli import main
from lambda_capacity.lambda_system import channel_map

FULL_TURN = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_defaults(capsys):
    code, out, err = run(capsys, "compute")
    assert code == 0
    assert "I_c                0.688722" in out
    assert "S_out              1.500000" in out
    assert "S_e                0.811278" in out
    assert "0.750000 0.250000" in out


def test_compute_without_pulse(capsys):
    code, out, _ = run(capsys, "compute", "--theta", "0")
    assert code == 0
    assert "I_c                -1.000000" in out


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["Ic"] == pytest.approx(0.6887218755408672, abs=1e-12)
    assert doc["S_out"] == pytest.approx(1.5, abs=1e-12)
    assert doc["rho_out_spectrum"] == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)


def test_compute_rejects_bad_angle(capsys):
    code, _, err = run(capsys, "compute", "--chi", "6.28")
    assert code == 2
    assert "chi" in err


def test_compute_rejects_bad_gamma_t(capsys):
    code, _, err = run(capsys, "compute", "--gamma-t", "soon")
    assert code == 2


def test_compute_accepts_inf_gamma_t(capsys):
    code, out, _ = run(capsys, "compute", "--gamma-t", "inf")
    assert code == 0
    assert "0.688722" in out


def test_gamma_t_flag_matches_config_file(capsys, tmp_path):
    for flag, value in (("3.27", 3.27), ("inf", "inf")):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"params": {"gamma_t": value}}))
        code, from_file, _ = run(capsys, "compute", "--config", str(config))
        assert code == 0
        code, from_flag, _ = run(capsys, "compute", "--gamma-t", flag)
        assert code == 0
        assert from_flag == from_file


def test_validate_passes_for_valid_params(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "validate", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert "result                 PASS" in text
    assert "trace deviation" in text


def test_validate_failure_exits_5(capsys, monkeypatch):
    # half of every transfer operator: positive and Hermitian, but the trace is 1/2
    monkeypatch.setattr(cli, "channel_map", lambda params: ChannelMap(channel_map(params).s * 0.5))
    code, out, err = run(capsys, "validate", "--theta", "1.1", "--chi", "0.4")
    assert code == 5
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "trace deviation        5.000e-01"
    assert lines[1] == "hermiticity deviation  0.000e+00"
    assert lines[2].startswith("min Choi eigenvalue    ")
    assert float(lines[2].split()[-1]) >= -1e-8
    assert lines[3] == "result                 FAIL"
    assert len(lines) == 4


def test_sweep_single_axis_csv(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "sweep": {"axes": [{"name": "theta", "start": 0.0, "stop": FULL_TURN, "points": 3}]},
    }))
    code, out, _ = run(capsys, "sweep", "--config", str(config))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,Ic"
    assert len(lines) == 5  # header + 3 rows + max comment
    first = lines[1].split(",")[1]
    last = lines[3].split(",")[1]
    assert first == last == "-1.000000"
    assert lines[4].startswith("# max Ic=0.688722 at theta=3.141593")
    assert out.endswith("\n")


def test_sweep_json_grid(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "sweep": {
            "axes": [
                {"name": "theta", "start": 0.0, "stop": FULL_TURN, "points": 5},
                {"name": "gamma_t", "start": 0.0, "stop": "inf", "points": 3},
            ]
        },
    }))
    code, out, _ = run(capsys, "sweep", "--config", str(config), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [axis["name"] for axis in doc["axes"]] == ["theta", "gamma_t"]
    assert doc["axes"][1]["values"][-1] == "inf"
    values = np.array(doc["values"])
    assert values.shape == (5, 3)
    assert doc["max"]["Ic"] == pytest.approx(0.6887218755408672, abs=1e-9)
    assert doc["max"]["at"]["gamma_t"] == "inf"


def test_sweep_requires_axes(capsys):
    code, _, err = run(capsys, "sweep")
    assert code == 2
    assert "axes" in err


def test_sweep_rejects_unknown_config_key(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweeps": {}}))
    code, _, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert "sweeps" in err


def test_sweep_rejects_gamma13_fixed(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "params": {"gamma13": 2.0},
        "sweep": {"axes": [{"name": "theta", "start": 0.0, "stop": 1.0, "points": 3}]},
    }))
    code, _, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert "asym" in err


def test_unwritable_output_path(capsys, tmp_path):
    code, _, err = run(capsys, "compute", "--out", str(tmp_path / "missing" / "x.txt"))
    assert code == 3


def test_figure_unknown_id(capsys):
    code, _, err = run(capsys, "figure", "--figure", "fig7q")
    assert code == 2
    assert "fig7q" in err


def test_figure_requires_id(capsys):
    code, _, err = run(capsys, "figure")
    assert code == 2


def test_figure_preset_runs(capsys):
    code, out, _ = run(capsys, "figure", "--figure", "fig2b")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "asym,chi,Ic"
    assert len(lines) == 1 + 41 * 41 + 1
    assert lines[-1].startswith("# max Ic=1.000000 at asym=0.000000, chi=1.570796")


def test_optimize_single_parameter(capsys, tmp_path):
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({
        "optimize": {"free": ["theta"], "bounds": {"theta": [0.0, FULL_TURN]}},
    }))
    code, out, _ = run(capsys, "optimize", "--config", str(config))
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert float(lines["theta*"]) == pytest.approx(math.pi, abs=1e-3)
    assert float(lines["I_c*"]) == pytest.approx(0.6887, abs=5e-4)
    assert int(lines["iterations"]) > 0


def test_optimize_rejects_all_unphysical_bounds(capsys, tmp_path):
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({
        "input_state": {"rho11": 0.1},
        "optimize": {"free": ["re_rho12"], "bounds": {"re_rho12": [0.6, 0.9]}},
    }))
    code, out, err = run(capsys, "optimize", "--config", str(config))
    assert code == 2
    assert out == ""
    assert "unphysical" in err


def test_optimize_rejects_unphysical_pinned_point(capsys, tmp_path):
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({
        "input_state": {"rho11": 0.1},
        "optimize": {"free": ["re_rho12"], "bounds": {"re_rho12": [0.6, 0.6]}},
    }))
    code, out, err = run(capsys, "optimize", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err == "error: every free parameter is pinned, at the unphysical point re_rho12=0.6\n"


def test_optimize_iteration_cap_exits_4_with_best_point(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "MAX_ITERATIONS", 3)
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({
        "optimize": {"free": ["theta"], "bounds": {"theta": [0.0, FULL_TURN]}},
    }))
    code, out, err = run(capsys, "optimize", "--config", str(config))
    assert code == 4
    assert err == "error: simplex search stopped after 3 iterations without converging\n"
    # the coarse seed already sits on the optimum theta = pi
    assert out == "theta*             3.141593\nI_c*               0.688722\niterations         3\n"


def test_optimize_requires_free_section(capsys):
    code, _, err = run(capsys, "optimize")
    assert code == 2
    assert "free" in err


def test_dump_config_round_trip(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code, _, _ = run(
        capsys, "compute",
        "--theta", "1.25", "--rho11", "0.3", "--gamma-t", "inf",
        "--dump-config", str(first),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "compute", "--config", str(first), "--dump-config", str(second)
    )
    assert code == 0
    assert json.loads(first.read_text()) == json.loads(second.read_text())


def test_dumped_config_reproduces_output(capsys, tmp_path):
    dump = tmp_path / "cfg.json"
    code, direct, _ = run(capsys, "compute", "--theta", "2.2", "--chi", "0.8", "--dump-config", str(dump))
    assert code == 0
    code, replayed, _ = run(capsys, "compute", "--config", str(dump))
    assert code == 0
    assert direct == replayed
