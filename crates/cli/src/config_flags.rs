//! Shared configuration-flag parsing for `run` and `analytic`.

/// The shared `--snapshot/--snapshot-every/--resume/--progress/--quiet`
/// execution switches, re-exported from the harness: every command
/// (run, figure, optimize, submit, and the table studies)
/// parses and validates them through this one type instead of
/// duplicating the plumbing.
pub use ckpt_harness::ExecFlags;

use ckpt_bench::args::duration;
use ckpt_core::config::{CoordinationMode, ErrorPropagation, GenericCorrelated, SystemConfig};
use ckpt_core::PolicySpec;
use ckpt_des::SimTime;
use ckpt_harness::CkptError;

/// Parses a `--policy` value: a bare policy name, or
/// `adaptive:WINDOW,FLOOR_SECS,CEIL_SECS` to override the adaptive
/// defaults.
fn parse_policy(v: &str) -> Result<PolicySpec, CkptError> {
    match v {
        "fixed" => Ok(PolicySpec::Fixed),
        "daly" => Ok(PolicySpec::DalyOptimal),
        "adaptive" => Ok(PolicySpec::load_adaptive_default()),
        other => {
            if let Some(params) = other.strip_prefix("adaptive:") {
                let parts: Vec<&str> = params.split(',').collect();
                if parts.len() != 3 {
                    return Err(CkptError::Usage(
                        "--policy adaptive:WINDOW,FLOOR_SECS,CEIL_SECS".into(),
                    ));
                }
                let bad = |e| CkptError::Usage(format!("--policy adaptive: {e}"));
                return Ok(PolicySpec::LoadAdaptive {
                    window: parts[0].parse().map_err(bad)?,
                    floor_secs: parts[1]
                        .parse()
                        .map_err(|e| CkptError::Usage(format!("--policy adaptive: {e}")))?,
                    ceil_secs: parts[2]
                        .parse()
                        .map_err(|e| CkptError::Usage(format!("--policy adaptive: {e}")))?,
                });
            }
            Err(CkptError::Usage(format!(
                "--policy: unknown policy '{other}' (fixed|daly|adaptive[:W,F,C])"
            )))
        }
    }
}

/// Splits `args` into configuration flags (consumed here) and the rest
/// (returned for the run-option parser), and builds the [`SystemConfig`].
///
/// # Errors
///
/// Returns [`CkptError::Usage`] on malformed values and
/// [`CkptError::Config`] on an invalid resulting configuration. Unrecognized flags are passed through untouched.
pub fn parse_config(args: Vec<String>) -> Result<(SystemConfig, Vec<String>), CkptError> {
    let mut b = SystemConfig::builder();
    let mut rest = Vec::new();
    let mut it = args.into_iter().peekable();

    fn value(
        it: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
        flag: &str,
    ) -> Result<String, CkptError> {
        it.next()
            .ok_or_else(|| CkptError::Usage(format!("{flag} expects a value")))
    }

    fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, CkptError>
    where
        T::Err: std::fmt::Display,
    {
        v.parse()
            .map_err(|e| CkptError::Usage(format!("{flag}: {e}")))
    }

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--processors" => {
                let v = value(&mut it, "--processors")?;
                b = b.processors(parse_num(&v, "--processors")?);
            }
            "--procs-per-node" => {
                let v = value(&mut it, "--procs-per-node")?;
                b = b.procs_per_node(parse_num(&v, "--procs-per-node")?);
            }
            "--interval-mins" => {
                let v = value(&mut it, "--interval-mins")?;
                b = b.checkpoint_interval(duration("--interval-mins", v, SimTime::try_from_mins)?);
            }
            "--mttf-years" => {
                let v = value(&mut it, "--mttf-years")?;
                b = b.mttf_per_node(duration("--mttf-years", v, SimTime::try_from_years)?);
            }
            "--mttr-mins" => {
                let v = value(&mut it, "--mttr-mins")?;
                b = b.mttr_system(duration("--mttr-mins", v, SimTime::try_from_mins)?);
            }
            "--mttq-secs" => {
                let v = value(&mut it, "--mttq-secs")?;
                b = b.mttq(duration("--mttq-secs", v, SimTime::try_from_secs)?);
            }
            "--compute-fraction" => {
                let v = value(&mut it, "--compute-fraction")?;
                b = b.compute_fraction(parse_num(&v, "--compute-fraction")?);
            }
            "--coordination" => {
                let v = value(&mut it, "--coordination")?;
                let mode = match v.as_str() {
                    "fixed" => CoordinationMode::FixedQuiesce,
                    "exp" => CoordinationMode::SystemExponential,
                    "maxofn" => CoordinationMode::MaxOfN,
                    other => {
                        return Err(CkptError::Usage(format!(
                            "--coordination: unknown mode '{other}' (fixed|exp|maxofn)"
                        )))
                    }
                };
                b = b.coordination(mode);
            }
            "--timeout-secs" => {
                let v = value(&mut it, "--timeout-secs")?;
                b = b.timeout(Some(duration("--timeout-secs", v, SimTime::try_from_secs)?));
            }
            "--error-propagation" => {
                let v = value(&mut it, "--error-propagation")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    return Err(CkptError::Usage(
                        "--error-propagation expects 'probability,factor'".into(),
                    ));
                }
                b = b.error_propagation(Some(ErrorPropagation {
                    probability: parse_num(parts[0], "--error-propagation probability")?,
                    factor: parse_num(parts[1], "--error-propagation factor")?,
                    window: 180.0,
                }));
            }
            "--generic-correlated" => {
                let v = value(&mut it, "--generic-correlated")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    return Err(CkptError::Usage(
                        "--generic-correlated expects 'alpha,factor'".into(),
                    ));
                }
                b = b.generic_correlated(Some(GenericCorrelated {
                    coefficient: parse_num(parts[0], "--generic-correlated alpha")?,
                    factor: parse_num(parts[1], "--generic-correlated factor")?,
                }));
            }
            "--spatial" => {
                let v = value(&mut it, "--spatial")?;
                b = b.spatial_correlation(Some(parse_num(&v, "--spatial")?));
            }
            "--jitter" => {
                let v = value(&mut it, "--jitter")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    return Err(CkptError::Usage("--jitter expects 'lo,hi'".into()));
                }
                b = b.compute_fraction_jitter(Some((
                    parse_num(parts[0], "--jitter lo")?,
                    parse_num(parts[1], "--jitter hi")?,
                )));
            }
            "--policy" => {
                let v = value(&mut it, "--policy")?;
                b = b.policy(parse_policy(&v)?);
            }
            "--no-failures" => {
                b = b.failures_enabled(false);
            }
            _ => rest.push(arg),
        }
    }

    let cfg = b.build().map_err(CkptError::from)?;
    Ok((cfg, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let (cfg, rest) = parse_config(vec![]).unwrap();
        assert_eq!(cfg.processors(), 65_536);
        assert!(rest.is_empty());
    }

    #[test]
    fn full_flag_set_builds() {
        let (cfg, rest) = parse_config(argv(&[
            "--processors",
            "131072",
            "--procs-per-node",
            "16",
            "--interval-mins",
            "15",
            "--mttf-years",
            "3",
            "--mttr-mins",
            "20",
            "--mttq-secs",
            "2",
            "--compute-fraction",
            "0.9",
            "--coordination",
            "maxofn",
            "--timeout-secs",
            "100",
            "--error-propagation",
            "0.1,800",
            "--generic-correlated",
            "0.0025,400",
        ]))
        .unwrap();
        assert_eq!(cfg.processors(), 131_072);
        assert_eq!(cfg.procs_per_node(), 16);
        assert_eq!(cfg.checkpoint_interval().as_mins(), 15.0);
        assert!((cfg.mttf_per_node().as_years() - 3.0).abs() < 1e-9);
        assert_eq!(cfg.coordination(), CoordinationMode::MaxOfN);
        assert_eq!(cfg.timeout(), Some(SimTime::from_secs(100.0)));
        assert!(cfg.error_propagation().is_some());
        assert!(cfg.generic_correlated().is_some());
        assert!(rest.is_empty());
    }

    #[test]
    fn unknown_flags_pass_through() {
        let (_, rest) =
            parse_config(argv(&["--processors", "8192", "--reps", "5", "--csv"])).unwrap();
        assert_eq!(rest, argv(&["--reps", "5", "--csv"]));
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse_config(argv(&["--processors", "lots"])).is_err());
        assert!(parse_config(argv(&["--coordination", "psychic"])).is_err());
        assert!(parse_config(argv(&["--error-propagation", "0.1"])).is_err());
        assert!(parse_config(argv(&["--processors"])).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        // 100 processors is not a multiple of 8 per node.
        assert!(parse_config(argv(&["--processors", "100"])).is_err());
    }

    #[test]
    fn extension_flags() {
        let (cfg, _) = parse_config(argv(&["--spatial", "0.3", "--jitter", "0.88,1.0"])).unwrap();
        assert_eq!(cfg.spatial_correlation(), Some(0.3));
        assert_eq!(cfg.compute_fraction_jitter(), Some((0.88, 1.0)));
        assert!(parse_config(argv(&["--jitter", "0.9"])).is_err());
        assert!(parse_config(argv(&["--spatial", "2.0"])).is_err());
    }

    #[test]
    fn no_failures_switch() {
        let (cfg, _) = parse_config(argv(&["--no-failures"])).unwrap();
        assert!(!cfg.failures_enabled());
    }

    #[test]
    fn policy_flag() {
        let (cfg, _) = parse_config(vec![]).unwrap();
        assert_eq!(cfg.policy(), PolicySpec::Fixed);
        let (cfg, _) = parse_config(argv(&["--policy", "fixed"])).unwrap();
        assert_eq!(cfg.policy(), PolicySpec::Fixed);
        let (cfg, _) = parse_config(argv(&["--policy", "daly"])).unwrap();
        assert_eq!(cfg.policy(), PolicySpec::DalyOptimal);
        let (cfg, _) = parse_config(argv(&["--policy", "adaptive"])).unwrap();
        assert_eq!(cfg.policy(), PolicySpec::load_adaptive_default());
        let (cfg, _) = parse_config(argv(&["--policy", "adaptive:4,120,7200"])).unwrap();
        assert_eq!(
            cfg.policy(),
            PolicySpec::LoadAdaptive {
                window: 4,
                floor_secs: 120.0,
                ceil_secs: 7200.0,
            }
        );
        assert!(parse_config(argv(&["--policy", "psychic"])).is_err());
        assert!(parse_config(argv(&["--policy", "adaptive:1,2"])).is_err());
        // Parameter validation still runs: window 1 is rejected.
        assert!(parse_config(argv(&["--policy", "adaptive:1,60,120"])).is_err());
    }
}
