import json

from robustsvm import cli
from robustsvm import NormSpec, SolverConfig, gaussian_blobs, train_regularized
from robustsvm.cli import main
from robustsvm.data import save_dataset, save_model


def run_cli(args, out_path):
    code = main([*args, "--out", str(out_path)])
    lines = out_path.read_text().strip().split("\n")
    return code, [json.loads(line) for line in lines]


def result_records(records):
    return [r for r in records if r["record"] not in ("header", "footer")]


def test_train_subcommand_report(tmp_path):
    out = tmp_path / "report.jsonl"
    code, records = run_cli(
        ["train", "--synthetic", "gaussian-blobs", "--m", "12", "--c", "0.4",
         "--seed", "3"],
        out,
    )
    assert code == 0
    assert records[0]["record"] == "header"
    assert records[0]["config"]["c"] == 0.4
    assert records[-1]["record"] == "footer" and records[-1]["complete"]
    body = result_records(records)
    assert len(body) == 1 and body[0]["record"] == "train_result"
    assert body[0]["objective"] <= 12.0


def test_report_determinism(tmp_path):
    args = ["train", "--synthetic", "gaussian-blobs", "--m", "10", "--c", "0.3",
            "--seed", "9"]
    _, rec_a = run_cli(args, tmp_path / "a.jsonl")
    _, rec_b = run_cli(args, tmp_path / "b.jsonl")
    body_a = [json.dumps(r, sort_keys=True) for r in result_records(rec_a)]
    body_b = [json.dumps(r, sort_keys=True) for r in result_records(rec_b)]
    assert body_a == body_b


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synthetic=gaussian-blobs\nm=10\nc=0.25\nseed=2\n")
    out1 = tmp_path / "o1.jsonl"
    code, records = run_cli(["train", "--config", str(cfg)], out1)
    assert code == 0
    assert records[0]["config"]["c"] == 0.25
    # explicit flag wins over the config value
    out2 = tmp_path / "o2.jsonl"
    code, records = run_cli(["train", "--config", str(cfg), "--c", "0.75"], out2)
    assert code == 0
    assert records[0]["config"]["c"] == 0.75


def test_config_unknown_key_errors(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery=1\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_invalid_dataset_label_fails(tmp_path):
    data = tmp_path / "bad.libsvm"
    data.write_text("+1 1:1\n5 1:2\n")
    out = tmp_path / "r.jsonl"
    code, records = run_cli(["train", "--data", str(data)], out)
    assert code == 1
    assert records[-1]["record"] == "footer" and not records[-1]["complete"]
    assert any(r["record"] == "error" and "line 2" in r["message"] for r in records)


def test_zero_one_mapping_flagged_in_header(tmp_path):
    data = tmp_path / "zo.libsvm"
    data.write_text("0 1:1.0 2:0.5\n1 1:-1.0 2:0.25\n")
    out = tmp_path / "r.jsonl"
    code, records = run_cli(["train", "--data", str(data)], out)
    assert code == 0
    assert records[0]["data"]["zero_one_labels_mapped"] is True


def test_equivalence_check_gap_small(tmp_path):
    out = tmp_path / "eq.jsonl"
    code, records = run_cli(
        ["equivalence-check", "--instances", "8", "--resolution", "200", "--seed", "1"],
        out,
    )
    assert code == 0
    summary = [r for r in records if r["record"] == "equivalence_summary"]
    assert len(summary) == 1
    assert summary[0]["max_abs_gap"] <= 1e-2
    assert summary[0]["max_lower_upper_gap"] <= 1e-9


def test_calibrate_bayes_point_mass_trains_at_c(tmp_path):
    data = tmp_path / "train.libsvm"
    save_dataset(gaussian_blobs(10, 6), data)
    out = tmp_path / "cal.jsonl"
    code, records = run_cli(
        ["calibrate", "--mode", "bayes", "--prior", "point:0.7", "--train", "true",
         "--data", str(data), "--seed", "0"],
        out,
    )
    assert code == 0
    cal = [r for r in records if r["record"] == "calibration"][0]
    assert cal["c_bar"] == 0.7
    trained = [r for r in records if r["record"] == "train_result"][0]
    direct = train_regularized(
        gaussian_blobs(10, 6), NormSpec.l2(), 0.7, SolverConfig()
    )
    assert trained["objective"] == direct.objective
    assert trained["w"] == direct.classifier.w.tolist()


def test_calibrate_chance_mode(tmp_path):
    out = tmp_path / "cc.jsonl"
    code, records = run_cli(
        ["calibrate", "--mode", "chance", "--m", "1", "--dim", "2", "--eta", "0.1",
         "--n-draws", "20000", "--seed", "4"],
        out,
    )
    assert code == 0
    cal = [r for r in records if r["record"] == "calibration"][0]
    assert abs(cal["c_star"] - 0.9) < 0.03


def test_calibrate_requires_mode(tmp_path):
    code = main(["calibrate", "--out", str(tmp_path / "x.jsonl")])
    assert code == 1


def test_robust_eval_subcommand(tmp_path):
    ds = gaussian_blobs(8, 2, separation=0.5)
    data = tmp_path / "d.libsvm"
    save_dataset(ds, data)
    model = tmp_path / "m.json"
    result = train_regularized(ds, NormSpec.l2(), 0.3, SolverConfig())
    save_model(model, result.classifier)
    out = tmp_path / "re.jsonl"
    code, records = run_cli(
        ["robust-eval", "--data", str(data), "--model", str(model),
         "--atomic-norm", "l2", "--radius", "0.3", "--resolution", "100"],
        out,
    )
    assert code == 0
    body = [r for r in records if r["record"] == "robust_eval"][0]
    assert body["worst_case_lower"] <= body["worst_case_upper"] + 1e-9
    assert body["brute_force"] <= body["worst_case_upper"] + 1e-9
    assert body["conservatism_gap"] >= -1e-12


def test_kernel_train_subcommand(tmp_path):
    out = tmp_path / "kt.jsonl"
    code, records = run_cli(
        ["kernel-train", "--synthetic", "gaussian-blobs", "--m", "10", "--kernel", "rbf",
         "--gamma", "0.8", "--c", "0.2", "--seed", "5"],
        out,
    )
    assert code == 0
    body = [r for r in records if r["record"] == "kernel_train_result"][0]
    assert len(body["alphas"]) == 10
    assert body["objective"] <= 10.0 + 1e-9


def test_consistency_exp_subcommand(tmp_path):
    out = tmp_path / "ce.jsonl"
    code, records = run_cli(
        ["consistency-exp", "--sizes", "20,60", "--trials", "3",
         "--seed", "0"],
        out,
    )
    assert code == 0
    summary = [r for r in records if r["record"] == "consistency_summary"][0]
    assert summary["bound_violations"] == 0
    trials = [r for r in records if r["record"] == "consistency_trial"]
    assert len(trials) == 6
    # canonical ordering: sorted by (m, trial)
    keys = [(r["m"], r["trial"]) for r in trials]
    assert keys == sorted(keys)


def test_pathological_demo_subcommand(tmp_path):
    out = tmp_path / "pd.jsonl"
    code, records = run_cli(
        ["pathological-demo", "--m", "60", "--trials", "2",
         "--seed", "0"],
        out,
    )
    assert code == 0
    summary = [r for r in records if r["record"] == "pathological_summary"][0]
    assert summary["median_train_hinge"] < 0.1
    assert 0.4 <= summary["median_test_error"] <= 0.6


def test_stdout_output(capsys):
    code = main(["calibrate", "--mode", "bayes", "--prior", "uniform:0,1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.strip().split("\n")]
    assert lines[0]["record"] == "header"
    assert any(r.get("c_bar") == 0.5 for r in lines)


def test_unexpected_command_failure_still_writes_error_and_footer(tmp_path, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "train", broken)
    code, records = run_cli(["train", "--synthetic", "gaussian-blobs", "--m", "6"],
                            tmp_path / "report.jsonl")
    assert code == 1
    assert records[-2] == {"record": "error", "message": "boom"}
    assert records[-1] == {"record": "footer", "complete": False}
