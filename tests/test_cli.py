import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambda_capacity import cli, sweep
from lambda_capacity.channel import ChannelMap, DimensionMismatch
from lambda_capacity.cli import _fmt, main
from lambda_capacity.lambda_system import channel_map
from oracle import POINT_NAMES, apply_channel, entropy, joint_output, oracle_points, spectrum

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


def test_compute_rejects_unphysical_state(capsys):
    # |rho12| = 0.6 lies outside the disc |rho12| <= 0.3 that rho11 = 0.1 allows
    code, out, err = run(capsys, "compute", "--rho11", "0.1", "--re-rho12", "0.6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: negative eigenvalue")


def test_validate_rejects_unphysical_state(capsys):
    # validate checks the input state as compute does, though its report does not use it
    argv = ["--rho11", "0.1", "--re-rho12", "0.6"]
    code, out, err = run(capsys, "validate", *argv)
    assert (code, out, err) == run(capsys, "compute", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: negative eigenvalue")


def test_compute_rejects_bad_gamma_t(capsys):
    code, _, err = run(capsys, "compute", "--gamma-t", "soon")
    assert code == 2


def test_compute_accepts_inf_gamma_t(capsys):
    code, out, _ = run(capsys, "compute", "--gamma-t", "inf")
    assert code == 0
    assert "0.688722" in out


def _flag(name, value):
    return f"--{name.replace('_', '-')}={value}"


EDGE_VALUES = (
    "0", "-0.0", "5e-324", "1e300", "1.7976931348623157e308", "inf", "-inf", "nan",
    repr(math.nextafter(math.pi / 2, 0.0)), repr(math.nextafter(math.pi / 2, 4.0)), "-1",
)


# the commands that take the edge values, a third of the draws each: compute or validate, a figure
# preset in either format, and optimize with the config of the fixture below
EDGE_COMMANDS = st.one_of(
    st.sampled_from([("compute",), ("validate",)]),
    st.builds(lambda name, fmt: ("figure", "--figure", name, "--format", fmt),
              st.sampled_from(sorted(sweep.FIGURES)), st.sampled_from(["csv", "json"])),
    st.just(("optimize",)),
)


@pytest.fixture(scope="module")
def optimize_config(tmp_path_factory):
    config = tmp_path_factory.mktemp("edge") / "optimize.json"
    config.write_text(json.dumps({
        "optimize": {"free": ["theta", "chi"], "bounds": {"theta": [0.0, FULL_TURN], "chi": [0.0, math.pi / 2]}},
    }))
    return str(config)


@settings(max_examples=900, deadline=None, derandomize=True)
@given(
    EDGE_COMMANDS,
    st.lists(st.tuples(st.sampled_from(sweep.PARAM_NAMES), st.sampled_from(EDGE_VALUES)), min_size=1, max_size=3),
)
def test_edge_values_end_in_documented_exit_codes(optimize_config, command, flags):
    if command == ("optimize",):
        command += ("--config", optimize_config)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, *(_flag(name, value) for name, value in flags)])
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    if code in (0, 5):
        assert out.getvalue() and not err.getvalue()
    elif code == 4:  # the search's best point, and why it stopped
        assert out.getvalue() and err.getvalue().startswith("error: ")
    else:
        assert not out.getvalue() and err.getvalue().startswith("error: ")
    # an error message may echo a nan it was given; a report may not print one
    assert "nan" not in out.getvalue().lower()


def test_compute_report_matches_purification_route(capsys):
    for values in oracle_points():
        point = dict(zip(POINT_NAMES, values))
        flags = [_flag(name, repr(value)) for name, value in point.items()]
        params, rho = sweep._point_objects(point)
        channel = channel_map(params)
        rho_out, joint = apply_channel(channel, rho), joint_output(channel, rho)
        s_out, s_e = entropy(rho_out), entropy(joint)
        out_spectrum, joint_spectrum = spectrum(rho_out), spectrum(joint)

        code, out, err = run(capsys, "compute", *flags)
        assert (code, err) == (0, "")
        assert out == "\n".join([
            f"I_c                {_fmt(s_out - s_e)}",
            f"S_out              {_fmt(s_out)}",
            f"S_e                {_fmt(s_e)}",
            "rho_out spectrum   " + " ".join(_fmt(v) for v in out_spectrum),
            "rho_alpha spectrum " + " ".join(_fmt(v) for v in joint_spectrum),
        ]) + "\n", point

        code, out, err = run(capsys, "compute", "--format", "json", *flags)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert sorted(doc) == ["Ic", "S_e", "S_out", "rho_alpha_spectrum", "rho_out_spectrum"]
        assert abs(doc["Ic"] - (s_out - s_e)) <= 1e-13, point
        assert abs(doc["S_out"] - s_out) <= 1e-13, point
        assert abs(doc["S_e"] - s_e) <= 1e-13, point
        assert np.abs(np.array(doc["rho_out_spectrum"]) - out_spectrum).max() <= 1e-13, point
        assert np.abs(np.array(doc["rho_alpha_spectrum"]) - joint_spectrum).max() <= 1e-13, point
        # the 6x6 field-mirror state has rank 3 at most
        assert doc["rho_alpha_spectrum"][3:] == [0.0, 0.0, 0.0]


def test_parameter_flags_match_config_file(capsys, tmp_path):
    # a point at which the report depends on every parameter: at asym = 1 with
    # the maximally mixed input, I_c depends on neither chi nor phi
    values = {
        "theta": 1.1, "chi": 0.4, "phi": -0.7, "gamma_t": 3.27, "asym": 0.3,
        "rho11": 0.3, "re_rho12": 0.2, "im_rho12": -0.1,
    }
    assert sorted(values) == sorted(sweep.PARAM_NAMES)
    cases = [(name, repr(value), value) for name, value in values.items()] + [("gamma_t", "inf", "inf")]
    config = tmp_path / "params.json"
    for name, flag, value in cases:
        rest = [_flag(other, repr(v)) for other, v in values.items() if other != name]
        section = "input_state" if name in sweep.STATE_NAMES else "params"
        config.write_text(json.dumps({section: {name: value}}))
        code, from_file, _ = run(capsys, "compute", "--config", str(config), *rest)
        assert code == 0
        code, from_flag, _ = run(capsys, "compute", *rest, _flag(name, flag))
        assert code == 0
        assert from_flag == from_file
        if flag != "inf":  # inf is the default gamma_t
            assert from_flag != run(capsys, "compute", *rest)[1], name


def test_rate_keys_set_the_decay_rates(capsys, tmp_path):
    config = tmp_path / "rates.json"
    config.write_text(json.dumps({"params": {"gamma13": 0, "gamma23": 1}}))
    code, from_rates, _ = run(capsys, "compute", "--config", str(config))
    assert code == 0
    assert from_rates == run(capsys, "compute", "--asym", "0")[1]
    # gamma23 = 0, a single 3->1 decay path, lies beyond any finite asym
    config.write_text(json.dumps({"params": {"gamma13": 1, "gamma23": 0}}))
    code, out, _ = run(capsys, "compute", "--config", str(config), "--chi", "0")
    assert code == 0
    assert "I_c                1.000000" in out
    code, out, _ = run(capsys, "validate", "--config", str(config))
    assert code == 0
    assert "result                 PASS" in out
    # a given asym overrides both rates
    for command in ("compute", "validate"):
        with_rates = run(capsys, command, "--config", str(config), "--asym", "0.5")
        assert with_rates == run(capsys, command, "--asym", "0.5")
        assert with_rates[0] == 0

    def run_rates(command, gamma13, gamma23):
        config.write_text(json.dumps({"params": {"gamma13": gamma13, "gamma23": gamma23}}))
        return run(capsys, command, "--config", str(config))

    # rates near the float limit: their sum overflows, their ratio must not
    code, out, _ = run_rates("compute", 1e308, 1e308)
    assert code == 0
    assert "I_c                0.688722" in out
    for command in ("compute", "validate"):
        assert run_rates(command, 1e308, 1e308) == run_rates(command, 1, 1)
    # 1e308 / 1e307 is 10 only to within an ulp, which the validate residuals show
    assert run_rates("compute", 1e308, 1e307) == run_rates("compute", 10, 1)


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
        "optimize": {"free": ["theta"], "bounds": {"theta": [0.0, 1.0]}},
    }))
    for argv in (["sweep"], ["figure", "--figure", "fig1b"], ["optimize"]):
        code, _, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert "asym" in err


def test_sweep_rejects_negative_gamma_t_axis_start(capsys, tmp_path):
    # below a start of about -709, e^(-start) overflows a float
    config = tmp_path / "sweep.json"
    for start in (-1, -1000):
        config.write_text(json.dumps({
            "sweep": {"axes": [{"name": "gamma_t", "start": start, "stop": "inf", "points": 3}]},
        }))
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == f"error: gamma_t must lie in [0, inf], got {float(start)}\n"


def test_sweep_gamma_t_axis_to_inf_starts_at_its_start(capsys, tmp_path):
    config = tmp_path / "sweep.json"

    def gamma_t_sweep(start, fmt):
        config.write_text(json.dumps({
            "sweep": {"axes": [{"name": "gamma_t", "start": start, "stop": "inf", "points": 4}]},
        }))
        code, out, err = run(capsys, "sweep", "--config", str(config), "--format", fmt)
        assert (code, err) == (0, "")
        return out

    # a late start once rounded 1 - e^(-start) to 1 and sampled nothing but inf
    assert gamma_t_sweep(40, "csv").splitlines()[1] == "40.000000,0.688722"
    with np.errstate(divide="ignore"):
        want = 40.0 - np.log1p(-np.linspace(0.0, 1.0, 4))
    assert json.loads(gamma_t_sweep(40, "json"))["axes"][0]["values"] == want[:-1].tolist() + ["inf"]
    assert json.loads(gamma_t_sweep(20, "json"))["axes"][0]["values"][0] == 20.0


@pytest.mark.parametrize("axes", [[2 ** 62], [10 ** 30], [2 ** 31, 2 ** 31]])
def test_sweep_rejects_grid_too_large_to_allocate(capsys, tmp_path, monkeypatch, axes):
    monkeypatch.setattr(cli, "grid_sweep", lambda spec: pytest.fail("the grid reached grid_sweep"))
    config = tmp_path / "sweep.json"
    names = ("theta", "chi")
    config.write_text(json.dumps({
        "sweep": {"axes": [{"name": name, "start": 0, "stop": 1, "points": n} for name, n in zip(names, axes)]},
    }))
    code, out, err = run(capsys, "sweep", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: a grid of {math.prod(axes)} points is too large to allocate\n"


def test_sweep_out_of_memory_exits_3(capsys, tmp_path, monkeypatch):
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 4.00 EiB for an array")

    monkeypatch.setattr(cli, "grid_sweep", out_of_memory)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "sweep": {"axes": [{"name": "theta", "start": 0, "stop": 1, "points": 3}]},
    }))
    code, out, err = run(capsys, "sweep", "--config", str(config))
    assert (code, out, err) == (3, "", "error: Unable to allocate 4.00 EiB for an array\n")


BEYOND_FLOAT = 10 ** 400  # a JSON integer that no float can hold


def test_compute_rejects_integer_beyond_float_range(capsys, tmp_path):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"params": {"theta": BEYOND_FLOAT}}))
    code, out, err = run(capsys, "compute", "--config", str(config))
    assert (code, out, err) == (2, "", "error: theta: integer out of float range\n")
    # past Python's 4300-digit limit the JSON decoder itself refuses the literal
    config.write_text('{"params": {"theta": 1%s}}' % ("0" * 5000))
    code, out, err = run(capsys, "compute", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config {config} is not valid JSON: Exceeds the limit")


def test_optimize_rejects_bound_beyond_float_range(capsys, tmp_path):
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({"optimize": {"free": ["theta"], "bounds": {"theta": [0, BEYOND_FLOAT]}}}))
    code, out, err = run(capsys, "optimize", "--config", str(config))
    assert (code, out, err) == (2, "", "error: theta: integer out of float range\n")


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


def test_optimize_rejects_bounds_of_parameters_not_free(capsys, tmp_path):
    config = tmp_path / "opt.json"
    for extra in ("tehta", "chi"):
        config.write_text(json.dumps({
            "optimize": {"free": ["theta"], "bounds": {"theta": [0.0, 6.28], extra: [0.0, 0.1]}},
        }))
        code, out, err = run(capsys, "optimize", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == f"error: bounds given for {extra!r}, which is not a free parameter\n"


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


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_dump_config_writes_sections_in_order(capsys, tmp_path):
    # sections and their keys out of order, integers where floats go, and the
    # non-finite spellings; flags replace what they name in place
    config = tmp_path / "every.json"
    config.write_text(json.dumps({
        "format": "csv",
        "output": "from-file.txt",
        "figure": "fig1a",
        "optimize": {"bounds": {"chi": ["-inf", 1]}, "free": ["chi"]},
        "sweep": {
            "fixed": {"phi": "nan", "gamma_t": "inf"},
            "axes": [{"points": 3, "stop": "inf", "start": 0, "name": "gamma_t"}],
        },
        "input_state": "maximally_mixed",
        "params": {"gamma_t": 2, "asym": 0.5},
    }))
    report, dump = tmp_path / "report.json", tmp_path / "dump.json"
    code, out, err = run(
        capsys, "validate", "--config", str(config), "--theta", "1.5", "--gamma-t", "inf",
        "--format", "json", "--out", str(report), "--dump-config", str(dump),
    )
    assert (code, out, err) == (0, "", "")
    assert report.read_text().endswith("result                 PASS\n")
    assert dump.read_text() == """{
  "params": {
    "gamma_t": "inf",
    "asym": 0.5,
    "theta": 1.5
  },
  "input_state": "maximally_mixed",
  "sweep": {
    "axes": [
      {
        "name": "gamma_t",
        "start": 0.0,
        "stop": "inf",
        "points": 3
      }
    ],
    "fixed": {
      "phi": "nan",
      "gamma_t": "inf"
    }
  },
  "optimize": {
    "free": [
      "chi"
    ],
    "bounds": {
      "chi": [
        "-inf",
        1.0
      ]
    }
  },
  "figure": "fig1a",
  "output": %s,
  "format": "json"
}
""" % json.dumps(str(report))


def test_dump_config_round_trip(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    sweep_config = tmp_path / "sweep.json"
    sweep_config.write_text(json.dumps({
        "sweep": {
            "axes": [{"name": "theta", "start": 0.0, "stop": FULL_TURN, "points": 3}],
            "fixed": {"gamma_t": "inf"},
        },
    }))
    optimize_config = tmp_path / "optimize.json"
    optimize_config.write_text(json.dumps({
        "params": {"chi": 0.4, "asym": 0.5},
        "input_state": {"rho11": 0.3, "im_rho12": 0.2},
        "optimize": {"free": ["theta"], "bounds": {"theta": [0.0, FULL_TURN]}},
    }))
    for argv, want in (
        (["compute", "--theta", "1.25", "--rho11", "0.3", "--gamma-t", "inf"], 0),
        (["sweep", "--config", str(sweep_config)], 0),
        (["figure", "--figure", "fig2b", "--format", "json"], 0),
        (["optimize", "--config", str(optimize_config), "--phi", "0.7"], 0),
        (["validate", "--theta", "1.1", "--asym", "0.3", "--rho11", "0.2"], 0),
        # rejected values replay to the same rejection
        (["compute", "--gamma-t=-inf"], 2),
        (["compute", "--theta=-inf"], 2),
        (["compute", "--theta=nan"], 2),
    ):
        direct = run(capsys, *argv, "--dump-config", str(first))
        assert direct[0] == want
        replayed = run(capsys, argv[0], "--config", str(first), "--dump-config", str(second))
        assert replayed[0] == want
        assert replayed == direct
        assert _strict_json(first.read_text()) == _strict_json(second.read_text())


def test_dumped_config_reproduces_output(capsys, tmp_path):
    dump = tmp_path / "cfg.json"
    code, direct, _ = run(capsys, "compute", "--theta", "2.2", "--chi", "0.8", "--dump-config", str(dump))
    assert code == 0
    code, replayed, _ = run(capsys, "compute", "--config", str(dump))
    assert code == 0
    assert direct == replayed


def test_cached_parser_carries_no_state(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "sweep": {"axes": [{"name": "theta", "start": 0.0, "stop": FULL_TURN, "points": 3}]},
    }))
    calls = [
        ["compute", "--theta", "0"],
        ["compute"],
        ["compute", "--help"],
        ["compute", "--rho11", "0.3"],
        ["compute", "--theta"],
        ["compute", "--chi", "0.4", "--format", "json"],
        ["figure", "--figure", "fig1a"],
        ["compute"],
        ["sweep", "--config", str(config), "--format", "json"],
        ["--help"],
        ["compute", "--bogus"],
        ["validate"],
    ]
    fresh = []
    for argv in calls:
        cli._make_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cli._make_parser() is cli._make_parser()
    assert [run(capsys, *argv) for argv in calls] == fresh
    # the call without --theta prints the default report, not the theta = 0 one
    assert fresh[1][1] == fresh[7][1]
    assert "I_c                0.688722" in fresh[1][1]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0]


THETA_AXIS = {"name": "theta", "start": 0, "stop": 1, "points": 3}

# (command, config, message): the command exits 2 with this message and no output;
# a config of None names a file that does not exist.  (call, error, message): the
# library call raises this error with this message.
ERROR_MESSAGES = [
    ("compute", {"params": {"theta": [1]}}, "theta: expected a number, got [1]"),
    ("compute", {"params": {"theta": "pi"}}, "theta: expected a number or \"inf\", got 'pi'"),
    ("compute", {"params": []}, "params must be an object"),
    ("compute", [1, 2], "config root must be an object"),
    ("compute", {"input_state": "pure"}, "input_state must be \"maximally_mixed\" or an object, got 'pure'"),
    ("compute", {"format": "xml"}, "format must be csv or json, got 'xml'"),
    ("compute", None, "cannot read config {path}: [Errno 2] No such file or directory: '{path}'"),
    ("sweep", {"sweep": {"axes": {}}}, "sweep.axes must be a list"),
    ("sweep", {"sweep": {"axes": [{"name": "theta", "start": 0, "stop": 1}]}}, "sweep.axes[0] is missing 'points'"),
    ("sweep", {"sweep": {"axes": [dict(THETA_AXIS, points=2.5)]}}, "sweep.axes[0].points must be an integer"),
    ("sweep", {"sweep": {"axes": [THETA_AXIS], "fixed": {"bogus": 1}}}, "unknown fixed parameter 'bogus'"),
    ("optimize", {"optimize": {"free": "theta"}}, "optimize.free must be a list of parameter names"),
    (
        "optimize",
        {"optimize": {"free": ["theta"], "bounds": {"theta": [0]}}},
        "optimize.bounds['theta'] must be a [lo, hi] pair",
    ),
    (
        "optimize",
        {"optimize": {"free": ["theta", "theta"], "bounds": {"theta": [0, 1]}}},
        "duplicate free parameter",
    ),
    ("figure", {"figure": 1}, "figure must be a string"),
    # a coherence at and beyond the float limit's reach: the lowest eigenvalue prints a number, never nan
    ("compute", {"input_state": {"re_rho12": 1e308, "im_rho12": 1e308}}, "negative eigenvalue -1.414e+308"),
    ("compute", {"input_state": {"re_rho12": sys.float_info.max, "im_rho12": sys.float_info.max}},
     "negative eigenvalue -inf"),
    # an infinite coherence is rejected without a numpy warning on the way
    ("sweep", {"input_state": {"im_rho12": "inf"}, "sweep": {"axes": [THETA_AXIS]}},
     "invalid input state at theta=0: matrix contains NaN or Inf entries"),
    ("optimize", {"input_state": {"im_rho12": "inf"}, "optimize": {"free": ["theta"], "bounds": {"theta": [0, 1]}}},
     "every coarse-grid point over theta is unphysical"),
    # finite ends whose distance overflows a float
    ("sweep", {"sweep": {"axes": [dict(THETA_AXIS, start=-1e308, stop=1e308)]}},
     "axis 'theta' needs a finite width stop - start"),
    ("optimize", {"optimize": {"free": ["theta"], "bounds": {"theta": [-1e308, 1e308]}}},
     "bounds for 'theta' need a finite width hi - lo"),
    # a value for a free parameter, as a flag would give it, is not silently dropped
    ("optimize", {"params": {"theta": 1.0}, "optimize": {"free": ["theta"], "bounds": {"theta": [0, 1]}}},
     "parameter 'theta' is both free and fixed"),
    (
        lambda: sweep.maximize_ic(["theta"], {"theta": (0.0, 1.0)}, fixed={"bogus": 1.0}),
        sweep.InvalidSpec,
        "unknown fixed parameter 'bogus'",
    ),
    (lambda: ChannelMap(np.zeros((2, 2, 3))), DimensionMismatch, "expected (din, din, dout, dout), got (2, 2, 3)"),
    (
        lambda: ChannelMap(np.full((2, 2, 3, 3), np.nan)),
        DimensionMismatch,
        "transfer operators contain NaN or Inf entries",
    ),
]


@pytest.mark.parametrize("target, source, message", ERROR_MESSAGES)
def test_error_messages(capsys, tmp_path, target, source, message):
    if callable(target):
        with pytest.raises(source) as info:
            target()
        assert str(info.value) == message
        return
    config = tmp_path / "config.json"
    if source is not None:
        config.write_text(json.dumps(source))
    code, out, err = run(capsys, target, "--config", str(config))
    assert (code, out, err) == (2, "", f"error: {message.format(path=config)}\n")
