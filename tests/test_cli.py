"""Command-line interface: exit codes, file formats, determinism."""

import json

import pytest

from plshoot.cli import run

CANONICAL = {
    "p": 2.0,
    "n": 3.0,
    "weight": {"family": "matukuma", "params": {"sigma": 2.0}},
    "nonlinearity": {"family": "power_diff", "params": {"q1": 3.0, "q2": 0.5}},
}

AB_CONFIG = {
    "p": 2.0,
    "N": 3.0,
    "pair": {"family": "matukuma", "params": {"n": 3.0, "sigma": 2.0}},
    "nonlinearity": {"family": "power_diff", "params": {"q1": 3.0, "q2": 0.5}},
    "grid": {"lo": 1e-4, "hi": 1e4, "points": 120},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(CANONICAL))
    return str(path)


def test_check_passing_model(config_path, capsys):
    assert run(["check", "--config", config_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["K1"]["pass"] is True
    assert out["f"]["pass"] is True


def test_check_failing_weight(tmp_path, capsys):
    cfg = dict(CANONICAL)
    cfg["weight"] = {"family": "matukuma", "params": {"sigma": 3.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["check", "--config", str(path)]) == 0  # the run succeeds
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False
    failing = [c for c in out["K1"]["checks"] if not c["pass"]]
    assert failing and failing[0]["witness"] is not None


def test_classify_single_record(config_path, capsys):
    assert run(["classify", "--config", config_path, "--alpha", "5.0"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["kind"] == "Crossing"
    assert rec["crossing_measure"] > 0.0


def test_classify_rejects_alpha_below_u0(config_path, capsys):
    code = run(["classify", "--config", config_path, "--alpha", "0.5"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "DomainError"
    assert err["witness"]["alpha"] == 0.5


def test_usage_errors_exit_2(config_path, capsys):
    assert run(["bogus-subcommand"]) == 2
    capsys.readouterr()
    assert run(["classify", "--config", config_path]) == 2  # no alpha given
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "config_error"


def test_config_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({**CANONICAL, "surprise": 1}))
    assert run(["classify", "--config", str(path), "--alpha", "5.0"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "config_error"


def test_transform_pair_params_not_object_exit_2(tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({**AB_CONFIG,
                                "pair": {"family": "matukuma", "params": 5}}))
    assert run(["transform", "--config", str(path),
                "--out", str(tmp_path / "model.json")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "config_error"


def _with(cfg, path, value):
    """A deep copy of cfg with the entry at the key path set to value."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("transform", _with(AB_CONFIG, ["grid"], 5)),
        ("transform", _with(AB_CONFIG, ["grid"], {"points": "many"})),
        ("transform", _with(AB_CONFIG, ["pair", "params", "sigma"], "two")),
        ("transform", _with(AB_CONFIG, ["p"], "two")),
        ("classify", _with(CANONICAL, ["p"], "two")),
        ("classify", _with(CANONICAL, ["weight", "params", "sigma"], "two")),
        ("classify", _with(CANONICAL, ["nonlinearity", "params", "q1"], None)),
        # log_gaussian checks nothing when built; theta would fail on use
        ("classify", _with(CANONICAL, ["weight"],
                           {"family": "log_gaussian", "params": {"theta": "x"}})),
    ],
)
def test_malformed_values_are_config_errors(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    extra = (["--out", str(tmp_path / "out.json")] if command == "transform"
             else ["--alpha", "5.0"])
    assert run([command, "--config", str(path), *extra]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "config_error"


def test_integrate_csv_and_sidecar(config_path, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run(["integrate", "--config", config_path, "--alpha", "5.0",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,u,du,m,E"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "5"
    # 17 significant digits on a non-trivial float
    assert len(lines[2].split(",")[1].replace(".", "").replace("-", "").lstrip("0")) >= 16
    sidecar = json.loads((tmp_path / "traj.json").read_text())
    assert sidecar["stop_event"] == "u_hit_zero"
    assert sidecar["r0"] is not None


def test_sweep_csv_columns(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["classify", "--config", config_path, "--alpha-range", "2:8:5",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,kind,R,u_R,du_R,E_R,r0,crossing_measure"
    assert len(lines) == 6
    assert "Positive" in lines[1] and "Crossing" in lines[-1]


def test_determinism_across_runs_and_threads(config_path, tmp_path):
    paths = [tmp_path / f"s{i}.csv" for i in range(3)]
    for path, threads in zip(paths, ("1", "4", "2")):
        assert run(["classify", "--config", config_path,
                    "--alpha-range", "2:10:6", "--threads", threads,
                    "--out", str(path)]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_transform_round_trip_config(tmp_path, capsys):
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps(AB_CONFIG))
    model_out = tmp_path / "transformed.json"
    map_out = tmp_path / "map.csv"
    assert run(["transform", "--config", str(ab), "--out", str(model_out),
                "--map-out", str(map_out)]) == 0
    lines = map_out.read_text().splitlines()
    assert lines[0] == "r,t,h,Ktilde"
    # the emitted config is accepted by the other subcommands
    assert run(["check", "--config", str(model_out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["K1"]["pass"] is True
    assert run(["classify", "--config", str(model_out), "--alpha", "5.0"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["kind"] == "Crossing"


def test_ground_state_and_dirichlet(config_path, capsys):
    assert run(["ground-state", "--config", config_path,
                "--bracket", "3.0", "6.0", "--tol", "1e-6"]) == 0
    br = json.loads(capsys.readouterr().out)
    assert br["width"] < 1e-6
    assert 4.2 < br["alpha_lo"] < 4.4

    assert run(["dirichlet", "--config", config_path, "--radius", "1.5",
                "--seed", "8.0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert abs(rec["u_at_target"]) < 1e-8


def test_variational_with_fd_check(config_path, tmp_path, capsys):
    out = tmp_path / "var.csv"
    assert run(["variational", "--config", config_path, "--alpha", "5.0",
                "--out", str(out), "--fd-check", "5e-6"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,phi,dphi,theta"
    assert lines[1].split(",")[1] == "1"  # phi(0)
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["max_rel_error"] < 1e-4


def test_fd_check_is_relative_to_the_largest_sensitivity(tmp_path, capsys):
    # phi passes through zero on this shot; the figure must not be set
    # by the samples near that zero
    cfg = dict(CANONICAL, weight={"family": "log_gaussian",
                                  "params": {"theta": 0.0}})
    path = tmp_path / "log_gaussian.json"
    path.write_text(json.dumps(cfg))
    assert run(["variational", "--config", str(path), "--alpha", "5.0",
                "--out", str(tmp_path / "var.csv"), "--fd-check", "1e-4"]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["max_rel_error"] < 2e-6


def test_verify_exit_codes(config_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run(["verify", "--config", config_path, "--suite", "all",
                "--sweep-count", "16", "--tol-alpha", "1e-6",
                "--samples", "2", "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["suite"]["pass"] is True
    assert payload["bracket"]["width"] < 1e-6
    capsys.readouterr()
