//! The benchmark's workloads, as scenario specs derived from the library
//! catalogue, and the one code path that runs them.
//!
//! Every host-time number the benchmark reports comes from a span the
//! benchmark records around a public call: `ScenarioSpec::build`,
//! `SimBuilder::build` and `HybridSim::run` for a single point,
//! `SweepExecutor::run` and `SweepResults::to_json_with`/`to_csv_with`
//! for the campaign. Simulated statistics only feed the correctness
//! fingerprint and the regime record.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xds_core::{HybridSim, RunReport, SimBuilder};
use xds_scenario::{
    library, EstimatorKind, InstrProfile, PlacementKind, ScenarioSpec, SchedulerKind, SwModelKind,
    SweepExecutor, SweepGrid, SyncSpec,
};
use xds_sim::{SimDuration, SimTime};

use crate::fingerprint::Fingerprint;
use crate::host;

/// Executor threads of the campaign. Fixed rather than read from the
/// host, so the work a run measures is the same everywhere.
pub const CAMPAIGN_THREADS: usize = 2;

/// Wall-clock budget per campaign point; an overrun is a failed point.
const POINT_TIMEOUT: Duration = Duration::from_secs(60);

/// Library entries the campaign crosses with its scheduler, placement
/// and estimator axes. `datamining` is left out: at 16 ports and 5 ms a
/// single 0.1–1 GB flow is packetized whole at injection (527 k packets
/// live at once), so the process's peak memory swung from 40 to 316 MB
/// between seeds, more than any bound can hold.
const CAMPAIGN_ENTRIES: [&str; 11] = [
    "uniform",
    "permutation",
    "hotspot",
    "incast",
    "shuffle",
    "websearch",
    "voip-mix",
    "skewed-zipf",
    "churn",
    "fault-storm",
    "flaky-links",
];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 1024-port multi-ring fabric on the sharded core: ingress-bound
    /// by design (the grant path stays nearly idle).
    Kilofabric,
    /// A 176-point study sweep at 16 ports under full observation.
    Campaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Kilofabric, Workload::Campaign];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kilofabric => "kilofabric-n1024",
            Workload::Campaign => "campaign-n16",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The instrumentation profile the workload runs under.
    pub fn profile(self) -> InstrProfile {
        match self {
            Workload::Kilofabric => InstrProfile::Lean,
            Workload::Campaign => InstrProfile::Full,
        }
    }

    /// The workload's points for `seed`, observed under `profile`.
    pub fn specs(self, seed: u64, profile: InstrProfile) -> Vec<ScenarioSpec> {
        match self {
            Workload::Kilofabric => vec![library::scenario("scale-stress")
                .expect("catalogue entry")
                .with_name("scale-stress-n1024")
                .with_ports(1024)
                .with_shards(1024)
                .with_load(0.4)
                .with_seed(seed)
                .with_profile(profile)
                .with_duration(SimDuration::from_millis(4))],
            // Each point draws its own traffic (seed `1000 × seed + i`), so
            // a pass averages many draws instead of repeating one per entry.
            Workload::Campaign => CAMPAIGN_ENTRIES
                .iter()
                .flat_map(|name| {
                    let base = library::scenario(name)
                        .expect("catalogue entry")
                        .with_ports(16)
                        .with_profile(profile);
                    SweepGrid::new(base)
                        .schedulers(
                            ["islip", "solstice", "greedy_lqf", "tdma"]
                                .iter()
                                .map(|s| SchedulerKind::from_name(s).expect("known scheduler"))
                                .collect(),
                        )
                        .placements(vec![
                            PlacementKind::Hardware,
                            PlacementKind::Software {
                                model: SwModelKind::TunedUserspace,
                                sync: SyncSpec::Ptp,
                            },
                        ])
                        .estimators(vec![
                            EstimatorKind::Mirror,
                            EstimatorKind::Ewma { alpha: 0.3 },
                        ])
                        .specs()
                })
                .enumerate()
                .map(|(i, spec)| spec.with_seed(seed.wrapping_mul(1000).wrapping_add(i as u64)))
                .collect(),
        }
    }
}

/// Host seconds of the two set-up calls of one point.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTime {
    /// `ScenarioSpec::build`.
    pub spec_build_s: f64,
    /// `SimBuilder::build`.
    pub sim_build_s: f64,
}

impl SetupTime {
    /// Both calls together.
    pub fn total(&self) -> f64 {
        self.spec_build_s + self.sim_build_s
    }
}

/// Materializes one point exactly as `ScenarioSpec::run` does, timing
/// the spec build and the simulator build separately.
fn build(spec: &ScenarioSpec) -> Result<(HybridSim, SetupTime), String> {
    let t0 = Instant::now();
    let (cfg, workload, scheduler, estimator) = spec.build()?;
    let t1 = Instant::now();
    let sim = SimBuilder::new(cfg)
        .workload(workload)
        .scheduler(scheduler)
        .estimator(estimator)
        .instrumentation(spec.profile.instrumentation())
        .trace(spec.trace)
        .faults(spec.faults.clone())
        .shards(spec.shards)
        .build()
        .map_err(|e| format!("scenario {}: {e}", spec.name))?;
    let t2 = Instant::now();
    let setup = SetupTime {
        spec_build_s: (t1 - t0).as_secs_f64(),
        sim_build_s: (t2 - t1).as_secs_f64(),
    };
    Ok((sim, setup))
}

/// Set-up samples, each building every point of the workload and
/// dropping the simulators: at least `min`, and more until `budget` is
/// spent, so sub-millisecond set-ups still get a steady median.
pub fn setup_samples(
    specs: &[ScenarioSpec],
    min: usize,
    budget: Duration,
) -> Result<Vec<SetupTime>, String> {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min || t0.elapsed() < budget {
        let mut sum = SetupTime::default();
        for spec in specs {
            let (sim, t) = guarded(&spec.name, || build(spec))?;
            drop(sim);
            sum.spec_build_s += t.spec_build_s;
            sum.sim_build_s += t.sim_build_s;
        }
        samples.push(sum);
    }
    Ok(samples)
}

/// Replays each point's own flow generator to its horizon (the
/// `traffic` layer alone): host seconds and flows generated.
pub fn replay_flows(specs: &[ScenarioSpec]) -> Result<(f64, u64), String> {
    let mut secs = 0.0;
    let mut flows = 0u64;
    for spec in specs {
        let (_, workload, _, _) = spec.build()?;
        let Some(mut gen) = workload.flows else {
            continue;
        };
        let t0 = Instant::now();
        let got = gen.flows_until(SimTime::ZERO + spec.duration);
        secs += t0.elapsed().as_secs_f64();
        flows += got.len() as u64;
    }
    Ok((secs, flows))
}

/// One pass over every point of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Host wall seconds of the run phase (`HybridSim::run` summed over
    /// points, or the whole `SweepExecutor::run`).
    pub run_s: f64,
    /// User + system CPU seconds of the run phase, every thread.
    pub cpu_s: f64,
    /// Simulated microseconds advanced, summed over completed points.
    pub sim_us: f64,
    /// Host seconds serializing the sweep to JSON and CSV (campaign).
    pub output_s: f64,
    /// Points attempted.
    pub attempted: usize,
    /// Points that errored, panicked or timed out.
    pub failed: usize,
    /// The completed points' reports, in point order.
    pub reports: Vec<(ScenarioSpec, RunReport)>,
    /// The pass's correctness fingerprint, one line per point (one for
    /// the whole sweep on the campaign).
    pub fingerprint: Vec<Fingerprint>,
}

impl Rep {
    /// Simulated µs per host second of the run phase.
    pub fn sim_us_per_s(&self) -> f64 {
        self.sim_us / self.run_s
    }
}

/// Runs every point once. Single-point workloads go through the three
/// set-up and run calls directly; the campaign goes through the sweep
/// executor and its serializers, as studies run it.
pub fn run_rep(w: Workload, specs: &[ScenarioSpec]) -> Rep {
    if w == Workload::Campaign {
        return run_sweep(specs);
    }
    let mut rep = Rep {
        run_s: 0.0,
        cpu_s: 0.0,
        sim_us: 0.0,
        output_s: 0.0,
        attempted: specs.len(),
        failed: 0,
        reports: Vec::new(),
        fingerprint: Vec::new(),
    };
    for spec in specs {
        let ran = guarded(&spec.name, || {
            let (sim, _) = build(spec)?;
            let cpu0 = host::cpu_seconds();
            let t0 = Instant::now();
            let report = sim.run(SimTime::ZERO + spec.duration);
            let run_s = t0.elapsed().as_secs_f64();
            Ok((report, run_s, host::cpu_seconds() - cpu0))
        });
        match ran {
            Ok((report, run_s, cpu_s)) => {
                rep.run_s += run_s;
                rep.cpu_s += cpu_s;
                rep.sim_us += spec.duration.as_nanos() as f64 / 1e3;
                rep.fingerprint
                    .push(Fingerprint::of_report(&spec.name, &report));
                rep.reports.push((spec.clone(), report));
            }
            Err(e) => {
                eprintln!("point failed: {e}");
                rep.failed += 1;
            }
        }
    }
    rep
}

fn run_sweep(specs: &[ScenarioSpec]) -> Rep {
    let exec =
        SweepExecutor::with_threads(CAMPAIGN_THREADS).with_point_timeout(Some(POINT_TIMEOUT));
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let results = exec.run(specs.to_vec());
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let t1 = Instant::now();
    let json = results.to_json_with(true);
    let csv = results.to_csv_with(true);
    let output_s = t1.elapsed().as_secs_f64();
    let fingerprint = vec![Fingerprint::of_sweep(&results, &json)];
    std::hint::black_box(csv);
    let mut rep = Rep {
        run_s,
        cpu_s,
        sim_us: 0.0,
        output_s,
        attempted: results.points.len(),
        failed: 0,
        reports: Vec::new(),
        fingerprint,
    };
    for p in results.points {
        match p.report {
            Ok(r) => {
                rep.sim_us += p.spec.duration.as_nanos() as f64 / 1e3;
                rep.reports.push((p.spec, r));
            }
            Err(e) => {
                eprintln!("point failed: {e}");
                rep.failed += 1;
            }
        }
    }
    rep
}

/// Runs `f`, turning a panic into a per-point error like the sweep
/// executor does.
fn guarded<T>(name: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(format!("scenario {name}: panicked")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_scenario::TrafficPattern;

    #[test]
    fn workloads_have_the_documented_shape() {
        let spec = &Workload::Kilofabric.specs(1, InstrProfile::Lean)[0];
        assert!(matches!(spec.pattern, TrafficPattern::MultiRing { .. }));
        assert_eq!((spec.n_ports, spec.shards), (1024, 1024));
        assert_eq!(Workload::Campaign.specs(1, InstrProfile::Full).len(), 176);
    }
}
