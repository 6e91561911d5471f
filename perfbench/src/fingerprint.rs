//! Correctness fingerprints: what the simulator computed, reduced to one
//! line per point, compared across the runs of one invocation and, for
//! the pinned seed, against the values stored in `pinned.txt`.

use std::fmt;

use xds_core::RunReport;
use xds_scenario::SweepResults;

/// The seed whose fingerprints are pinned. Any other seed runs only the
/// repeat-determinism check, so a claim can be re-checked on a seed that
/// was not used while writing it.
pub const PINNED_SEED: u64 = 1;

/// `workload point events ocs_bytes eps_bytes decisions hash` lines for
/// [`PINNED_SEED`], as [`Fingerprint`]'s `Display` prints them.
const PINNED: &str = include_str!("../pinned.txt");

/// One point's simulated output, reduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Point name, or `sweep` for a whole campaign.
    label: String,
    /// Events processed.
    events: u64,
    /// Bytes delivered over the OCS.
    ocs_bytes: u64,
    /// Bytes delivered over the EPS.
    eps_bytes: u64,
    /// Scheduler decisions.
    decisions: u64,
    /// FNV-1a of `RunReport::trace_json` (a single point) or of the
    /// sweep JSON with counters (a campaign; thread-count invariant).
    hash: u64,
}

impl Fingerprint {
    /// Fingerprints one point's report.
    pub fn of_report(label: &str, r: &RunReport) -> Self {
        Fingerprint {
            label: label.to_string(),
            events: r.events,
            ocs_bytes: r.delivered_ocs_bytes,
            eps_bytes: r.delivered_eps_bytes,
            decisions: r.decisions,
            hash: fnv1a(r.trace_json().as_bytes()),
        }
    }

    /// Fingerprints a whole sweep: totals over its points plus a hash of
    /// its JSON artifact.
    pub fn of_sweep(results: &SweepResults, json: &str) -> Self {
        let mut f = Fingerprint {
            label: "sweep".into(),
            events: 0,
            ocs_bytes: 0,
            eps_bytes: 0,
            decisions: 0,
            hash: fnv1a(json.as_bytes()),
        };
        for (_, r) in results.ok_reports() {
            f.events += r.events;
            f.ocs_bytes += r.delivered_ocs_bytes;
            f.eps_bytes += r.delivered_eps_bytes;
            f.decisions += r.decisions;
        }
        f
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {:016x}",
            self.label, self.events, self.ocs_bytes, self.eps_bytes, self.decisions, self.hash
        )
    }
}

/// The pinned lines for `workload`, each without its workload column.
fn pinned(workload: &str) -> Vec<&'static str> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.strip_prefix(workload)?.strip_prefix(' '))
        .collect()
}

/// Checks a run's fingerprint against the pinned values. `Ok` when they
/// match or the seed is not the pinned one; `Err` names the first
/// mismatching point.
pub fn check_pinned(workload: &str, seed: u64, got: &[Fingerprint]) -> Result<(), String> {
    if seed != PINNED_SEED {
        return Ok(());
    }
    let want = pinned(workload);
    let got: Vec<String> = got.iter().map(|f| f.to_string()).collect();
    if want.is_empty() {
        return Err(format!("no pinned fingerprint for {workload}"));
    }
    if want.len() != got.len() {
        return Err(format!(
            "{workload}: {} points pinned, {} ran",
            want.len(),
            got.len()
        ));
    }
    match want.iter().zip(&got).find(|(w, g)| **w != g.as_str()) {
        None => Ok(()),
        Some((w, g)) => Err(format!("{workload}: pinned `{w}`, got `{g}`")),
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_workload_has_pinned_lines() {
        for w in crate::workload::Workload::ALL {
            assert!(!pinned(w.name()).is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn a_mismatch_fails_only_on_the_pinned_seed() {
        let wrong = [Fingerprint {
            label: "x".into(),
            events: 1,
            ocs_bytes: 2,
            eps_bytes: 3,
            decisions: 4,
            hash: 5,
        }];
        assert!(check_pinned("campaign-n16", PINNED_SEED, &wrong).is_err());
        assert!(check_pinned("campaign-n16", PINNED_SEED + 1, &wrong).is_ok());
    }
}
