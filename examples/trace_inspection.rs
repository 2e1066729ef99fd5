//! Trace inspection: watch the model's event sequence directly.
//!
//! Part 1 attaches a bounded [`TraceBuffer`] to the direct simulator as
//! its observer under an aggressive failure regime and prints the last
//! stretch of model events: checkpoint lifecycles, rollbacks,
//! interrupted recoveries, correlated windows, and reboots.
//!
//! Part 2 attaches the *same* [`TraceBuffer`] type to both engines on
//! one seed (failure-free, so both sample paths are deterministic) and
//! diffs the traces entry by entry — the engine-agnostic event
//! vocabulary makes the two executables directly comparable.
//!
//! ```sh
//! cargo run --release --example trace_inspection
//! ```

use ckptsim::des::SimTime;
use ckptsim::model::config::ErrorPropagation;
use ckptsim::model::direct::DirectSimulator;
use ckptsim::model::san_model::CheckpointSan;
use ckptsim::model::trace::TraceEvent;
use ckptsim::model::SystemConfig;
use ckptsim::obs::TraceBuffer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::builder()
        .processors(262_144)
        .mttf_per_node(SimTime::from_years(0.5))
        .severe_failure_threshold(3)
        .error_propagation(Some(ErrorPropagation {
            probability: 0.3,
            factor: 800.0,
            window: 180.0,
        }))
        .build()?;

    let mut trace = TraceBuffer::new(60);
    let mut sim = DirectSimulator::new(&cfg, 2024);
    sim.set_observer(&mut trace);
    sim.run(SimTime::from_hours(500.0));
    let m = sim.metrics();

    println!("Last {} model events (of a 500-hour run):\n", trace.len());
    print!("{trace}");

    println!("\nSummary: {m}");
    println!(
        "Checkpoint aborts: {} timeout, {} master, {} I/O; correlated windows: {}",
        m.counters.checkpoints_aborted_timeout,
        m.counters.checkpoints_aborted_master,
        m.counters.checkpoints_aborted_io,
        m.counters.correlated_windows,
    );

    let buffered_recoveries = trace
        .filter(|e| matches!(e, TraceEvent::Rollback { from_buffer: true }))
        .count();
    let fs_recoveries = trace
        .filter(|e| matches!(e, TraceEvent::Rollback { from_buffer: false }))
        .count();
    println!(
        "Rollbacks in the trace window: {buffered_recoveries} from the I/O buffers, \
         {fs_recoveries} from the file system"
    );

    // --- Part 2: diff the two engines event by event ------------------
    //
    // Failure-free, fixed quiesce: every delay is deterministic, so the
    // direct simulator and the SAN executor must march through the very
    // same checkpoint lifecycle. The shared observer layer lets us
    // attach the same TraceBuffer to both and compare.
    let cfg = SystemConfig::builder()
        .processors(65_536)
        .failures_enabled(false)
        .build()?;
    let horizon = SimTime::from_hours(4.0);

    let mut direct_trace = TraceBuffer::new(4096);
    let mut sim = DirectSimulator::new(&cfg, 7);
    sim.set_observer(&mut direct_trace);
    sim.run(horizon);

    let (_, san_trace) = CheckpointSan::build(&cfg)?.run_traced(7, horizon, 4096)?;

    println!(
        "\nEngine diff over {} h (failure-free): direct {} events, SAN {} events",
        horizon.as_hours(),
        direct_trace.len(),
        san_trace.len()
    );
    let mismatch = direct_trace
        .iter()
        .zip(san_trace.iter())
        .position(|(a, b)| a.event != b.event || (a.at - b.at).as_secs().abs() > 1e-6);
    match mismatch {
        None if direct_trace.len() == san_trace.len() => {
            println!("traces are identical, entry for entry");
        }
        None => println!(
            "traces agree on the common prefix; lengths differ ({} vs {})",
            direct_trace.len(),
            san_trace.len()
        ),
        Some(i) => {
            let d = direct_trace.iter().nth(i).expect("index in range");
            let s = san_trace.iter().nth(i).expect("index in range");
            println!("first divergence at entry {i}:\n  direct: {d}\n  san:    {s}");
        }
    }
    Ok(())
}
