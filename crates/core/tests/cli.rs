//! Integration tests of the `bci` CLI binary: every subcommand runs, prints
//! what it promises, and bad invocations fail with usage help.

use std::process::Command;

fn bci(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bci"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn disj_subcommand_prints_all_three_protocols() {
    let out = bci(&["disj", "--n", "512", "--k", "8", "--seed", "3"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("naive"));
    assert!(stdout.contains("batched (Thm 2)"));
    assert!(stdout.contains("coordinate-wise AND"));
    assert!(stdout.contains("disjoint = true"));
}

#[test]
fn cic_subcommand_reports_the_ratio() {
    let out = bci(&["cic", "--k", "64"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("CIC_mu(sequential AND_64)"));
    assert!(stdout.contains("CIC / log2(k)"));
}

#[test]
fn gap_subcommand_reports_both_sides() {
    let out = bci(&["gap", "--k", "256"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("external information"));
    assert!(stdout.contains("communication bound"));
}

#[test]
fn sample_subcommand_respects_lemma7() {
    let out = bci(&[
        "sample",
        "--universe",
        "64",
        "--sharpness",
        "0.5",
        "--trials",
        "50",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("agreement     = 50/50"), "{stdout}");
}

#[test]
fn sparse_and_amortize_and_union_run() {
    for args in [
        vec!["sparse", "--n", "65536", "--s", "32", "--trials", "5"],
        vec!["amortize", "--k", "8", "--copies", "16", "--trials", "3"],
        vec!["union", "--n", "256", "--k", "4"],
    ] {
        let out = bci(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
}

#[test]
fn help_prints_usage() {
    let out = bci(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .expect("utf8")
        .contains("USAGE"));
}

#[test]
fn zero_workers_is_rejected_with_a_clear_error() {
    // `--workers 0` would deadlock a pool; both pooled entry points must
    // refuse it up front instead of hanging.
    for args in [
        vec!["fabric", "--sessions", "4", "--workers", "0"],
        vec!["experiments", "run", "e2", "--workers", "0"],
        vec!["experiments", "run", "all", "--workers", "0"],
        vec!["trace", "--workers", "0"],
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("--workers") && stderr.contains("positive"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn degenerate_one_point_inputs_are_rejected_with_a_clear_error() {
    // Zero players or zero trials used to panic inside the library or
    // print `mean bits = NaN`; each command's validation refuses them.
    for args in [
        vec!["disj", "--n", "16", "--k", "0"],
        vec!["union", "--n", "16", "--k", "0"],
        vec!["gap", "--k", "0"],
        vec!["amortize", "--k", "4", "--copies", "4", "--trials", "0"],
        vec![
            "sample",
            "--universe",
            "4",
            "--sharpness",
            "0.5",
            "--trials",
            "0",
        ],
        vec!["sparse", "--n", "64", "--s", "4", "--trials", "0"],
    ] {
        let out = bci(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

/// A fresh temp directory for one test's output files.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bci-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn experiments_run_writes_bench_json() {
    let dir = temp_dir("experiments-json");
    let one = dir.join("e2.json");
    let out = bci(&[
        "experiments",
        "run",
        "e2",
        "--json",
        one.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&one).expect("json written");
    assert!(
        doc.starts_with("{\"schema\":\"bci.bench.v1\",\"experiment\":\"e2\","),
        "{doc}"
    );

    let suite = dir.join("suite.json");
    let out = bci(&[
        "experiments",
        "run",
        "all",
        "--workers",
        "2",
        "--json",
        suite.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("=== E1 ===\n\n"), "{stdout}");
    let doc = std::fs::read_to_string(&suite).expect("json written");
    assert!(
        doc.starts_with("{\"schema\":\"bci.bench.suite.v1\",\"count\":20,"),
        "{doc}"
    );
    // Registry order: e1, e2, …, e20, each once.
    let ids: Vec<&str> = doc
        .split("\"experiment\":\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    let expected: Vec<String> = (1..=20).map(|i| format!("e{i}")).collect();
    assert_eq!(ids, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_run_all_takes_only_workers_and_json() {
    // `all` runs every experiment under its canonical seed and all of its
    // models, so a per-experiment option fails before any work.
    let dir = temp_dir("experiments-all-opts");
    let json = dir.join("suite.json");
    let json_path = json.to_str().expect("utf8 path");
    for (option, value) in [("--topology", "star"), ("--seed", "3")] {
        let out = bci(&[
            "experiments",
            "run",
            "all",
            option,
            value,
            "--json",
            json_path,
        ]);
        assert_eq!(out.status.code(), Some(1), "{option}: {out:?}");
        assert!(out.stdout.is_empty(), "{option} did work");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown option '{option}'")),
            "{option}: {stderr}"
        );
        assert!(!json.exists(), "rejected run wrote {json_path}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_ids_are_rejected() {
    // `fabric` named a bench table, never a registry experiment.
    for id in ["e21", "fabric"] {
        let out = bci(&["experiments", "run", id]);
        assert_eq!(out.status.code(), Some(1), "{id}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown experiment '{id}'")),
            "{id}: {stderr}"
        );
    }
}

#[test]
fn netrun_verifies_transcripts_and_writes_bench_json() {
    let dir = std::env::temp_dir().join(format!("bci-netrun-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("netrun.json");
    let json_path = json.to_str().expect("utf8 path");
    let out = bci(&[
        "netrun",
        "--points",
        "64x3,96x4",
        "--sessions",
        "2",
        "--seed",
        "9",
        "--json",
        json_path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("overhead x"), "{stdout}");
    assert!(stdout.contains("match"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"schema\":\"bci.bench.v1\""), "{doc}");
    assert!(doc.contains("\"experiment\":\"netrun\""), "{doc}");
    assert!(doc.contains("transcript bits"), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn netrun_rejects_bad_point_specs() {
    for bad in ["64", "64x0", "0x4", "64xfour", "64x4,,"] {
        let out = bci(&["netrun", "--points", bad]);
        assert!(!out.status.success(), "--points {bad} should fail");
    }
}

#[test]
fn load_runs_the_mux_harness_and_writes_bench_json() {
    let dir = std::env::temp_dir().join(format!("bci-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("load.json");
    let json_path = json.to_str().expect("utf8 path");
    let out = bci(&[
        "load",
        "--sessions",
        "60",
        "--players",
        "3",
        "--n",
        "48",
        "--seed",
        "4",
        "--compare",
        "--json",
        json_path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("mux"), "{stdout}");
    assert!(stdout.contains("thread-per-conn"), "{stdout}");
    assert!(stdout.contains("match"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"schema\":\"bci.bench.v1\""), "{doc}");
    assert!(doc.contains("\"experiment\":\"load\""), "{doc}");
    assert!(doc.contains("\"mux\""), "{doc}");
    assert!(doc.contains("\"thread-per-conn\""), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_and_serve_reject_unusable_limits() {
    // Zero / absurd heartbeat miss limits and frame caps must be refused
    // up front (NetConfig::validate), not discovered mid-run.
    for bad in [
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--miss-limit",
            "0",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--miss-limit",
            "100000",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--max-frame-len",
            "3",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--max-frame-len",
            "2000000000",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--inflight",
            "0",
        ],
        vec!["load", "--sessions", "0", "--players", "2"],
        vec![
            "serve",
            "--port",
            "0",
            "--players",
            "2",
            "--mux",
            "--miss-limit",
            "0",
        ],
        vec![
            "serve",
            "--port",
            "0",
            "--players",
            "2",
            "--mux",
            "--max-frame-len",
            "1",
        ],
        vec![
            "serve",
            "--port",
            "0",
            "--players",
            "2",
            "--mux",
            "--inflight",
            "0",
        ],
    ] {
        let out = bci(&bad);
        assert!(!out.status.success(), "{bad:?} should be rejected");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("error"), "{bad:?}: {stderr}");
    }
}

#[test]
fn load_coordinator_flag_is_validated() {
    let out = bci(&[
        "load",
        "--sessions",
        "2",
        "--players",
        "2",
        "--coordinator",
        "carrier-pigeon",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown coordinator"), "{stderr}");
}

#[test]
fn bad_invocations_fail_with_usage() {
    for args in [
        vec![],                                    // no command
        vec!["frobnicate"],                        // unknown command
        vec!["disj"],                              // missing required options
        vec!["disj", "--n", "banana", "--k", "4"], // unparsable value
        vec!["disj", "--n"],                       // dangling option
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    // A key the subcommand does not read fails before any work, naming
    // the key, instead of silently running with the defaults.
    let dir = std::env::temp_dir().join(format!("bci-unknown-opt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("out.json");
    let json_path = json.to_str().expect("utf8 path");
    for (args, key) in [
        (
            vec![
                "experiments",
                "run",
                "e2",
                "--json",
                json_path,
                "--bogus",
                "1",
            ],
            "--bogus",
        ),
        (vec!["fabric", "--sessions", "4", "--bogus", "3"], "--bogus"),
        (vec!["disj", "--n", "64", "--k", "4", "--nn", "5"], "--nn"),
        (
            vec!["disj", "--n", "64", "--k", "4", "--seeed", "5"],
            "--seeed",
        ),
        (vec!["cic", "--k", "4", "--mux"], "--mux"),
        (vec!["top", "127.0.0.1:1", "--bogus", "1"], "--bogus"),
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} did work");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown option '{key}'")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    assert!(!json.exists(), "rejected run wrote {json_path}");
    std::fs::remove_dir_all(&dir).ok();
}
