//! The service-facing subcommands: `ckptsim serve` runs the simulation
//! server; `submit`, `status`, and `result` are thin clients for it.
//!
//! `submit` accepts the same configuration and run flags as
//! `ckptsim run`, builds the identical [`ckpt_harness::ExperimentSpec`],
//! and posts its canonical JSON — so a spec submitted over the wire has
//! the same fingerprint (and therefore the same cached result) as one
//! run locally against the same store. `result` prints the stored
//! bytes verbatim: two fetches of the same job are `cmp`-equal.

use crate::config_flags::parse_config;
use ckpt_bench::{experiment_spec, RunOptions};
use ckpt_harness::CkptError;
use ckpt_svc::{Client, JobStore, Scheduler, Server, Tuning};
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// Default server address for `serve` and the client subcommands.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7070";
/// Default job-store directory for `serve`.
pub const DEFAULT_STORE: &str = ".ckptsim-store";
/// Default `--wait` timeout.
const DEFAULT_WAIT_SECS: u64 = 600;

fn usage(msg: String) -> CkptError {
    CkptError::Usage(msg)
}

fn io_err(context: &str, e: &std::io::Error) -> CkptError {
    CkptError::Io {
        path: context.to_string(),
        message: e.to_string(),
    }
}

/// `ckptsim serve`: bind the HTTP listener in front of a scheduler and
/// a content-addressed job store, and serve forever.
pub fn serve(args: Vec<String>) -> Result<(), CkptError> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut store_dir = DEFAULT_STORE.to_string();
    let mut tuning = Tuning {
        workers: std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
        ..Tuning::default()
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| {
            it.next()
                .ok_or_else(|| usage(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value_for("--addr")?,
            "--store" => store_dir = value_for("--store")?,
            "--workers" => {
                tuning.workers = value_for("--workers")?
                    .parse()
                    .map_err(|e| usage(format!("--workers: {e}")))?;
            }
            "--snapshot-every" => {
                tuning.snapshot_every = value_for("--snapshot-every")?
                    .parse()
                    .map_err(|e| usage(format!("--snapshot-every: {e}")))?;
            }
            other => return Err(usage(format!("unknown flag '{other}' for serve"))),
        }
    }
    let store = JobStore::open(Path::new(&store_dir))?;
    let sched = Scheduler::new(store, tuning);
    let server = Server::bind(addr.as_str(), sched).map_err(|e| io_err(&addr, &e))?;
    let local = server.local_addr().map_err(|e| io_err(&addr, &e))?;
    // The resolved address (port 0 becomes a real port) goes out before
    // the accept loop so wrapper scripts can parse it.
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| io_err(&addr, &e))
}

struct ClientFlags {
    server: String,
    tenant: String,
    wait: bool,
    wait_secs: u64,
    rest: Vec<String>,
}

/// Peels `--server/--tenant/--wait/--wait-secs` off `args`, leaving
/// everything else for the config/run parsers.
fn client_flags(args: Vec<String>) -> Result<ClientFlags, CkptError> {
    let mut flags = ClientFlags {
        server: DEFAULT_ADDR.to_string(),
        tenant: "default".to_string(),
        wait: false,
        wait_secs: DEFAULT_WAIT_SECS,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| {
            it.next()
                .ok_or_else(|| usage(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--server" => flags.server = value_for("--server")?,
            "--tenant" => flags.tenant = value_for("--tenant")?,
            "--wait" => flags.wait = true,
            "--wait-secs" => {
                flags.wait = true;
                flags.wait_secs = value_for("--wait-secs")?
                    .parse()
                    .map_err(|e| usage(format!("--wait-secs: {e}")))?;
            }
            _ => flags.rest.push(arg),
        }
    }
    Ok(flags)
}

/// `ckptsim submit`: build the spec exactly as `run` would and post it.
/// Prints the accepted job id (one JSON line); with `--wait`, polls to
/// completion and prints the result bytes verbatim instead.
pub fn submit(args: Vec<String>) -> Result<(), CkptError> {
    let flags = client_flags(args)?;
    let (cfg, rest) = parse_config(flags.rest)?;
    // The job executes on the server, so no local file is written.
    let opts = RunOptions::parse(rest)?.refuse_unhonoured("submit", &["--engine san"])?;
    let spec = experiment_spec(cfg, opts.engine, &opts)?;
    let client = Client::new(&flags.server, &flags.tenant);
    let reply = client.submit(&spec.to_json())?;
    if flags.wait {
        let body = client.wait_result(&reply.id, Duration::from_secs(flags.wait_secs))?;
        print!("{body}");
    } else {
        println!(
            "{{\"kind\":\"job_accepted\",\"id\":\"{}\",\"cached\":{},\"deduplicated\":{}}}",
            reply.id, reply.cached, reply.deduplicated
        );
    }
    Ok(())
}

fn job_id(flags: &ClientFlags, what: &str) -> Result<String, CkptError> {
    match flags.rest.as_slice() {
        [id] => Ok(id.clone()),
        [] => Err(usage(format!("{what} expects a job id"))),
        more => Err(usage(format!(
            "{what} expects exactly one job id, got {:?}",
            more
        ))),
    }
}

/// `ckptsim status <id>`: print the job's status document.
pub fn job_status(args: Vec<String>) -> Result<(), CkptError> {
    let flags = client_flags(args)?;
    let id = job_id(&flags, "status")?;
    let client = Client::new(&flags.server, &flags.tenant);
    print!("{}", client.status(&id)?);
    Ok(())
}

/// `ckptsim result <id>`: print the stored result bytes verbatim; with
/// `--wait`, poll until the job finishes first.
pub fn job_result(args: Vec<String>) -> Result<(), CkptError> {
    let flags = client_flags(args)?;
    let id = job_id(&flags, "result")?;
    let client = Client::new(&flags.server, &flags.tenant);
    let body = if flags.wait {
        client.wait_result(&id, Duration::from_secs(flags.wait_secs))?
    } else {
        client.result(&id)?.ok_or_else(|| CkptError::Io {
            path: format!("http://{}", flags.server),
            message: format!("job {id} has no result yet (use --wait to poll)"),
        })?
    };
    print!("{body}");
    Ok(())
}
