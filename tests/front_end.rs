//! The `ckptsim` front end: every table study renders, `figure all`
//! writes every figure, `list` names exactly the figures `figure`
//! accepts, every command refuses (exit 2) the flags it cannot
//! honour, and every duration flag refuses (exit 2) a value no
//! simulated time can hold.

use ckpt_bench::{figures, runner, studies, RunOptions};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Small enough for a debug build: one short replication per point.
fn tiny(extra: &str) -> RunOptions {
    let args = argv(&format!(
        "--reps 1 --hours 50 --transient 5 --jobs 1 {extra}"
    ));
    RunOptions::parse(args).expect("valid run options")
}

#[test]
fn every_study_renders_its_header_and_rows() {
    // (study, the line its rows follow, rows)
    let table3_rule = "=".repeat(63);
    let cases = [
        ("ablate", "ablation,useful_work_fraction,ci", 15),
        (
            "baselines",
            "interval_mins,simulated,simulated_ci,young,daly,vaidya",
            5,
        ),
        ("sensitivity", "parameter,f_minus20,f_plus20,elasticity", 8),
        (
            "compare-engines",
            "config,direct,direct_ci,san,san_ci,delta",
            7,
        ),
        ("table3", table3_rule.as_str(), 17),
    ];
    assert_eq!(cases.len(), studies::STUDIES.len());
    for ((name, header, rows), (command, study)) in cases.into_iter().zip(studies::STUDIES) {
        assert_eq!(name, command);
        let out = study(&tiny("--csv")).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut lines = out.lines().skip_while(|l| *l != header);
        assert_eq!(lines.next(), Some(header), "{name}:\n{out}");
        let body = lines.take_while(|l| !l.is_empty()).count();
        assert_eq!(body, rows, "{name}:\n{out}");
    }
}

#[test]
fn figure_all_writes_every_figure_into_the_directory() {
    let dir = std::env::temp_dir().join(format!("ckptsim_front_end_all_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    runner::run_all(&dir, &tiny("")).expect("figure all");
    for (id, _) in figures::all_figures() {
        for ext in ["csv", "svg", "manifest.json"] {
            assert!(dir.join(format!("{id}.{ext}")).is_file(), "{id}.{ext}");
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3 * 14);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_names_exactly_the_ids_figure_accepts() {
    let list = ckpt_cli::commands::figure_list();
    let listed: Vec<&str> = list.lines().filter_map(|l| l.split(' ').next()).collect();
    let mut expected: Vec<&str> = figures::catalog().iter().map(|(id, _)| *id).collect();
    expected.push("all");
    assert_eq!(listed, expected);
    assert!(listed.contains(&"ext_spatial"));
    // A listed id gets past the lookup to the journal, which does not
    // exist (exit 3); an unlisted one is a usage error (exit 2).
    let resume =
        |id: &str| ckpt_cli::run(argv(&format!("figure {id} --resume no_such_dir/s.json")));
    for id in listed.iter().filter(|id| **id != "all") {
        assert_eq!(resume(id), 3, "{id}");
    }
    assert_eq!(resume("fig99"), 2);
}

#[test]
fn every_command_refuses_the_flags_it_cannot_honour() {
    let mut refused = Vec::new();
    for flag in ["--trace", "--metrics", "--histograms", "--prom"] {
        for cmd in ["figure fig5", "figure all", "optimize", "submit"] {
            refused.push(format!("{cmd} {flag} f"));
        }
    }
    for flag in ["--manifest", "--snapshot", "--resume", "--progress"] {
        refused.push(format!("figure all {flag} f"));
        refused.push(format!("submit {flag} f"));
    }
    refused.push("submit --warmup 1".into());
    refused.push("optimize --manifest f".into());
    // A service job is one unit: `serve` has no sharding knobs, and
    // refuses them before it binds anything.
    refused.push("serve --shards 2".into());
    refused.push("serve --batch 1".into());
    for (study, _) in studies::STUDIES {
        for flag in ckpt_bench::args::OPTIONAL_FLAGS {
            // `--engine san` carries its value; the others take one.
            let value = if flag.contains(' ') { "" } else { " 1" };
            refused.push(format!("{study} {flag}{value}"));
        }
        // The direct-only studies refuse a SAN-only run option at spec
        // validation, before anything runs.
        if study != "table3" {
            refused.push(format!("{study} --quick --reactivation lazy"));
        }
    }
    for args in refused {
        assert_eq!(ckpt_cli::run(argv(&args)), 2, "{args}");
    }
}

#[test]
fn every_duration_flag_refuses_values_no_time_can_hold() {
    // Negative, NaN, infinite, and 1e308, which overflows in conversion
    // (hours, minutes, years) or exceeds the longest accepted duration
    // (seconds).
    for flag in ["--hours", "--transient"] {
        for value in ["-1", "nan", "inf", "1e308"] {
            let args = argv(&format!("{flag} {value}"));
            let err = RunOptions::parse(args).expect_err(value).to_string();
            assert!(
                err.starts_with(&format!("{flag}: ")),
                "{flag} {value}: {err}"
            );
        }
    }
    let config_flags = [
        "--interval-mins",
        "--mttf-years",
        "--mttr-mins",
        "--mttq-secs",
        "--timeout-secs",
    ];
    for flag in config_flags {
        for value in ["-1", "nan", "inf", "1e308"] {
            let args = argv(&format!("{flag} {value}"));
            let err = ckpt_cli::config_flags::parse_config(args)
                .expect_err(value)
                .to_string();
            assert!(
                err.starts_with(&format!("{flag}: ")),
                "{flag} {value}: {err}"
            );
        }
    }
    for flag in ["--hours", "--transient"].into_iter().chain(config_flags) {
        for value in ["-1", "nan", "inf", "1e308"] {
            let args = format!("run --quick --reps 1 {flag} {value}");
            assert_eq!(ckpt_cli::run(argv(&args)), 2, "{args}");
        }
    }
}
