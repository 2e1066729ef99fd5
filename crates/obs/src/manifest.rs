//! Run provenance: the manifest emitted next to results.

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Wall-clock cost of one replication, as recorded in the manifest:
/// how long it took and how many simulation events (direct-engine
/// events or SAN activity firings) it processed, its transient
/// included.
///
/// Wall-clock values live only here (provenance); nothing in the
/// simulation-semantics path ever reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationProfile {
    /// Wall-clock seconds the replication took.
    pub wall_secs: f64,
    /// Simulation events the replication processed.
    pub events: u64,
}

impl ReplicationProfile {
    /// Events per wall-clock second (0 over an empty measurement).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Provenance for one experiment or sweep: everything needed to rerun
/// it and to judge how it performed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Producing tool, e.g. `ckptsim`.
    pub tool: String,
    /// Crate version of the producing tool.
    pub version: String,
    /// Simulation engine (`direct` or `san`).
    pub engine: String,
    /// Estimation procedure; always `replications`, the one procedure.
    pub estimation: String,
    /// Base RNG seed; replication `k` draws from `base_seed + k`.
    pub base_seed: u64,
    /// Discarded transient, in simulated hours.
    pub transient_hours: f64,
    /// Measurement window, in simulated hours.
    pub horizon_hours: f64,
    /// Number of replications run.
    pub replications: usize,
    /// Worker faults the supervisor intervened on (panicked
    /// replications that were retried); 0 for a clean run.
    pub faults: usize,
    /// Worker threads requested (`--jobs`).
    pub jobs: usize,
    /// `std::thread::available_parallelism` on the producing host.
    pub host_parallelism: usize,
    /// Active checkpoint-interval policy (e.g. `fixed`,
    /// `daly_optimal`), as rendered by `PolicySpec`'s `Display`.
    /// Schema v2; empty in manifests parsed from v1 documents.
    pub policy: String,
    /// Model configuration as ordered key/value pairs.
    pub config: Vec<(String, String)>,
    /// Per-replication wall/events profiles, in replication order.
    pub profiles: Vec<ReplicationProfile>,
}

/// Manifest schema emitted by [`RunManifest::to_json`]. History:
/// v1 (PR 2) — base fields; v2 (this PR) — adds `policy`.
pub const MANIFEST_SCHEMA_VERSION: u64 = 2;

impl RunManifest {
    /// The manifest as one pretty-ish JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"schema_version\": {MANIFEST_SCHEMA_VERSION},\n");
        s.push_str(&format!("  \"tool\": \"{}\",\n", json_escape(&self.tool)));
        s.push_str(&format!(
            "  \"version\": \"{}\",\n",
            json_escape(&self.version)
        ));
        s.push_str(&format!(
            "  \"engine\": \"{}\",\n",
            json_escape(&self.engine)
        ));
        s.push_str(&format!(
            "  \"estimation\": \"{}\",\n",
            json_escape(&self.estimation)
        ));
        s.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        s.push_str(&format!(
            "  \"transient_hours\": {:.6},\n",
            self.transient_hours
        ));
        s.push_str(&format!(
            "  \"horizon_hours\": {:.6},\n",
            self.horizon_hours
        ));
        s.push_str(&format!("  \"replications\": {},\n", self.replications));
        s.push_str(&format!("  \"faults\": {},\n", self.faults));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        s.push_str(&format!(
            "  \"policy\": \"{}\",\n",
            json_escape(&self.policy)
        ));
        s.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": \"{}\"",
                json_escape(k),
                json_escape(v)
            ));
        }
        if !self.config.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"profiles\": [");
        for (i, p) in self.profiles.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rep\": {i}, \"wall_secs\": {:.6}, \"events\": {}, \"events_per_sec\": {:.1}}}",
                p.wall_secs,
                p.events,
                p.events_per_sec()
            ));
        }
        if !self.profiles.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn manifest_json_contains_all_fields() {
        let m = RunManifest {
            tool: "ckptsim".into(),
            version: "0.1.0".into(),
            engine: "direct".into(),
            estimation: "replications".into(),
            base_seed: 0x5eed,
            transient_hours: 1000.0,
            horizon_hours: 20000.0,
            replications: 2,
            faults: 0,
            jobs: 4,
            host_parallelism: 8,
            policy: "fixed".into(),
            config: vec![("processors".into(), "65536".into())],
            profiles: vec![
                ReplicationProfile {
                    wall_secs: 0.5,
                    events: 1000,
                },
                ReplicationProfile {
                    wall_secs: 0.6,
                    events: 1001,
                },
            ],
        };
        let j = m.to_json();
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"engine\": \"direct\""));
        assert!(j.contains("\n  \"estimation\": \"replications\",\n"));
        assert!(j.contains("\"policy\": \"fixed\""));
        assert!(j.contains("\"base_seed\": 24301"));
        assert!(j.contains("\"processors\": \"65536\""));
        assert!(j.contains(
            "\"rep\": 1, \"wall_secs\": 0.600000, \"events\": 1001, \"events_per_sec\": 1668.3"
        ));
        assert!(j.ends_with("]\n}\n"));
    }

    #[test]
    fn empty_collections_stay_valid() {
        let m = RunManifest {
            tool: "t".into(),
            version: "v".into(),
            engine: "san".into(),
            estimation: "replications".into(),
            base_seed: 0,
            transient_hours: 0.0,
            horizon_hours: 1.0,
            replications: 0,
            faults: 1,
            jobs: 1,
            host_parallelism: 1,
            policy: String::new(),
            config: vec![],
            profiles: vec![],
        };
        let j = m.to_json();
        assert!(j.contains("\"config\": {},"));
        assert!(j.contains("\"profiles\": []"));
        assert!(j.contains("\"faults\": 1"));
    }
}
