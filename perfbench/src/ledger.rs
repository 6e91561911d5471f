//! The traced pass: per-layer host time and work counts, each printed
//! with the end-to-end metric it should move and the workloads it moves
//! on.
//!
//! Three kinds of pass interleave until the time is up: the workload as
//! measured end to end (tracing off), the same with the flight recorder
//! on, and the same under the other instrumentation profile. Host-time
//! layer numbers are medians over passes; counts are the simulator's own
//! deterministic counters. `core.*` phase times come from the untraced
//! passes (`RunReport::phases`), `trace.*` from the recorder's spans, and
//! the gap between traced and untraced run time is `trace.overhead_frac`.

use std::time::{Duration, Instant};

use xds_core::report::EpochPhaseNs;
use xds_core::{CounterSet, RunReport};
use xds_scenario::InstrProfile;

use crate::host::{median, quantile_sorted};
use crate::workload::{self, Rep, SetupTime, Workload, CAMPAIGN_THREADS};
use crate::{Gate, Metric};

/// Flight-recorder span families, as the runtime names them.
const FAMILIES: [&str; 8] = [
    "epoch",
    "estimate",
    "decompose",
    "apply",
    "probe",
    "match_hk",
    "match_memo",
    "grant_burst",
];

/// Flow-generator replays per traced invocation.
const REPLAYS: usize = 5;

/// Set-up samples per traced invocation: at least this many, and more
/// until [`SETUP_BUDGET`] is spent.
const SETUP_MIN_SAMPLES: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// What each layer metric should move, and where. A name ending in `*`
/// covers every metric with that prefix.
const TARGETS: [(&[&str], &str, &str, &str); 11] = [
    (
        &[
            "core.run_s",
            "core.unattributed_s",
            "core.attributed_frac",
            "sim.*",
        ],
        "sim_us_per_s",
        "kilofabric-n1024, campaign-n16",
        "-",
    ),
    (
        &[
            "core.apply_s",
            "switch.grant_bursts",
            "switch.grant_pkts_max",
            "switch.ocs_reconfigs",
            "trace.apply.*",
            "trace.grant_burst.*",
        ],
        "sim_us_per_s",
        "campaign-n16",
        "kilofabric-n1024",
    ),
    (
        &[
            "core.decompose_s",
            "sched.*",
            "trace.decompose.*",
            "trace.probe.*",
            "trace.match_hk.*",
            "trace.match_memo.*",
        ],
        "sim_us_per_s",
        "campaign-n16",
        "kilofabric-n1024 (small share)",
    ),
    (
        &["core.estimate_s", "trace.estimate.*", "trace.epoch.*"],
        "sim_us_per_s",
        "campaign-n16 (ewma)",
        "kilofabric-n1024 (mirror)",
    ),
    (
        &["scenario.build_s", "core.build_s"],
        "setup_s",
        "kilofabric-n1024",
        "-",
    ),
    (
        &["pool.*"],
        "peak_rss_mb, sim_us_per_s",
        "kilofabric-n1024",
        "-",
    ),
    (
        &["metrics.*"],
        "sim_us_per_s",
        "campaign-n16",
        "kilofabric-n1024 (lean)",
    ),
    (
        &["scenario.*"],
        "sim_us_per_s, cpu_s",
        "campaign-n16",
        "kilofabric-n1024 (single point)",
    ),
    (&["traffic.*"], "sim_us_per_s", "kilofabric-n1024", "-"),
    (
        &["fault.*", "switch.drops", "switch.eps_bytes"],
        "ok_frac, sim_us_per_s",
        "campaign-n16",
        "kilofabric-n1024",
    ),
    (
        &["trace.overhead_frac"],
        "none (cost of tracing itself)",
        "-",
        "-",
    ),
];

/// The first target row covering `name`.
fn target(name: &str) -> (&'static str, &'static str, &'static str) {
    TARGETS
        .iter()
        .find(|(names, ..)| {
            names.iter().any(|p| match p.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == *p,
            })
        })
        .map(|&(_, moves, on, not_on)| (moves, on, not_on))
        .unwrap_or(("-", "-", "-"))
}

/// Host time the core spent running points: the run-phase wall time of a
/// single-point pass; for the campaign, the executor's CPU time, which
/// sums the points its worker threads ran side by side.
fn core_time(w: Workload, rep: &Rep) -> f64 {
    if w == Workload::Campaign {
        rep.cpu_s
    } else {
        rep.run_s
    }
}

/// One traced pass reduced to per-family span statistics.
#[derive(Default, Clone)]
struct FamilyStats {
    count: u64,
    self_s: f64,
    p50_us: f64,
    p99_us: f64,
}

/// A complete span of a Chrome trace: family index, start, duration (ns).
struct Span {
    family: Option<usize>,
    start: u64,
    dur: u64,
}

/// Parses the `"ph": "X"` events the flight recorder writes, one per
/// line, with timestamps in microseconds to the nanosecond.
fn parse_spans(json: &str) -> Vec<Span> {
    fn value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '"', '}'])?])
    }
    fn ns(micros: &str) -> Option<u64> {
        let (whole, frac) = micros.split_once('.').unwrap_or((micros, "0"));
        let frac = format!("{frac:0<3}");
        Some(whole.parse::<u64>().ok()? * 1000 + frac.get(..3)?.parse::<u64>().ok()?)
    }
    json.lines()
        .filter(|l| l.contains("\"ph\": \"X\""))
        .filter_map(|l| {
            let name = value(l, "\"name\": \"")?;
            Some(Span {
                family: FAMILIES.iter().position(|f| *f == name),
                start: ns(value(l, "\"ts\": ")?)?,
                dur: ns(value(l, "\"dur\": ")?)?,
            })
        })
        .collect()
}

/// Per-family count, self time (duration minus the part of it that
/// nested spans cover) and duration percentiles over every trace of one
/// pass.
fn family_stats(rep: &Rep) -> Vec<FamilyStats> {
    let mut stats = vec![FamilyStats::default(); FAMILIES.len()];
    let mut durs: Vec<Vec<f64>> = vec![Vec::new(); FAMILIES.len()];
    for (_, r) in &rep.reports {
        let Some(json) = &r.chrome_trace else {
            continue;
        };
        let mut spans = parse_spans(json);
        // Parents first: earlier start, then longer duration.
        spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.dur)));
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if spans[top].start + spans[top].dur > s.start {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                self_ns[parent] = self_ns[parent].saturating_sub(s.dur);
            }
            open.push(i);
        }
        for (s, own) in spans.iter().zip(self_ns) {
            if let Some(f) = s.family {
                stats[f].count += 1;
                stats[f].self_s += own as f64 / 1e9;
                durs[f].push(s.dur as f64 / 1e3);
            }
        }
    }
    for (st, d) in stats.iter_mut().zip(&mut durs) {
        d.sort_by(f64::total_cmp);
        st.p50_us = quantile_sorted(d, 0.50);
        st.p99_us = quantile_sorted(d, 0.99);
    }
    stats
}

/// The host times one untraced pass leaves behind.
struct PassTimes {
    core_s: f64,
    run_s: f64,
    cpu_s: f64,
    output_s: f64,
    estimate_s: f64,
    decompose_s: f64,
    apply_s: f64,
}

impl PassTimes {
    fn of(w: Workload, rep: &Rep) -> PassTimes {
        let phase = |f: fn(&EpochPhaseNs) -> u64| {
            rep.reports.iter().map(|(_, r)| f(&r.phases)).sum::<u64>() as f64 / 1e9
        };
        PassTimes {
            core_s: core_time(w, rep),
            run_s: rep.run_s,
            cpu_s: rep.cpu_s,
            output_s: rep.output_s,
            estimate_s: phase(|p| p.estimate),
            decompose_s: phase(|p| p.decompose),
            apply_s: phase(|p| p.apply),
        }
    }

    /// Run time the epoch phases (and the spans that mirror them) cover.
    fn phases_s(&self) -> f64 {
        self.estimate_s + self.decompose_s + self.apply_s
    }
}

/// Checks the profile-invariance contract: the other profile's pass
/// simulated the same events and delivered the same bytes, point by
/// point.
fn same_simulation(a: &Rep, b: &Rep) -> bool {
    let key = |r: &Rep| -> Vec<(String, u64, u64)> {
        r.reports
            .iter()
            .map(|(s, r)| (s.name.clone(), r.events, r.delivered_bytes()))
            .collect()
    };
    key(a) == key(b)
}

/// Everything a traced invocation measured, before it is reduced to
/// metrics.
struct Samples {
    workload: Workload,
    /// The workload's own instrumentation profile.
    native: InstrProfile,
    /// The first untraced pass, kept for its deterministic counters.
    first: Rep,
    setup: Vec<SetupTime>,
    /// Host seconds of each flow-generator replay, and the flows one
    /// replay generates.
    flowgen: Vec<f64>,
    flows: u64,
    /// Untraced passes.
    plain: Vec<PassTimes>,
    /// Core time of each traced pass and of each pass under the other
    /// profile.
    lit: Vec<f64>,
    alts: Vec<f64>,
    /// Span statistics of each traced pass.
    families: Vec<Vec<FamilyStats>>,
}

impl Samples {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    fn metrics(&self) -> Vec<Metric> {
        let (w, first, plain) = (self.workload, &self.first, &self.plain);
        let med = |f: fn(&PassTimes) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        let run_s = med(|p| p.core_s);
        let traced_s = median(&self.lit);
        let (full_s, lean_s) = match self.native {
            InstrProfile::Full => (run_s, median(&self.alts)),
            _ => (median(&self.alts), run_s),
        };

        let mut c = CounterSet::default();
        for (_, r) in &first.reports {
            c.merge(&r.counters);
        }
        let sum =
            |f: fn(&RunReport) -> u64| first.reports.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
        let events = sum(|r| r.events);
        let is_sweep = w == Workload::Campaign;
        let setup =
            |f: fn(&SetupTime) -> f64| median(&self.setup.iter().map(f).collect::<Vec<_>>());
        let sweep_only = |v: f64| if is_sweep { v } else { 0.0 };

        let mut out = vec![
            Metric::new("core.run_s", run_s, "s"),
            Metric::new("core.estimate_s", med(|p| p.estimate_s), "s"),
            Metric::new("core.decompose_s", med(|p| p.decompose_s), "s"),
            Metric::new("core.apply_s", med(|p| p.apply_s), "s"),
            Metric::new("core.unattributed_s", med(|p| p.core_s - p.phases_s()), "s"),
            Metric::new(
                "core.attributed_frac",
                med(|p| p.phases_s() / p.core_s),
                "ratio",
            ),
            Metric::new("core.build_s", setup(|t| t.sim_build_s), "s"),
            Metric::new("scenario.build_s", setup(|t| t.spec_build_s), "s"),
            Metric::new("scenario.exec_s", sweep_only(med(|p| p.run_s)), "s"),
            Metric::new(
                "scenario.exec_busy_frac",
                sweep_only(med(|p| p.cpu_s / (CAMPAIGN_THREADS as f64 * p.run_s))),
                "ratio",
            ),
            Metric::new("scenario.output_s", sweep_only(med(|p| p.output_s)), "s"),
            Metric::new("scenario.points", first.attempted as f64, "count"),
            Metric::new("traffic.flowgen_s", median(&self.flowgen), "s"),
            Metric::new("traffic.flows", self.flows as f64, "count"),
            Metric::new("sim.events", events, "count"),
            Metric::new("sim.events_per_s", events / run_s, "1/s"),
            Metric::new("sim.queue_spreads", c.queue_spreads as f64, "count"),
            Metric::new("sim.queue_spills", c.queue_spills as f64, "count"),
            Metric::new(
                "sim.queue_direct_sorts",
                c.queue_direct_sorts as f64,
                "count",
            ),
            Metric::new("sched.hk_runs", c.sched_hk_runs as f64, "count"),
            Metric::new("sched.memo_hits", c.sched_memo_hits as f64, "count"),
            Metric::new(
                "sched.memo_hit_ratio",
                match c.sched_memo_hits + c.sched_hk_runs {
                    0 => 0.0,
                    n => c.sched_memo_hits as f64 / n as f64,
                },
                "ratio",
            ),
            Metric::new("sched.probes", c.sched_probes as f64, "count"),
            Metric::new("sched.worklist_peak", c.sched_worklist_peak as f64, "count"),
            Metric::new("switch.grant_bursts", c.grant_bursts as f64, "count"),
            Metric::new("switch.grant_pkts_max", c.grant_pkts_max as f64, "count"),
            Metric::new(
                "switch.ocs_reconfigs",
                sum(|r| r.ocs.reconfigurations),
                "count",
            ),
            Metric::new("switch.drops", sum(|r| r.drops.total()), "count"),
            Metric::new("switch.eps_bytes", sum(|r| r.delivered_eps_bytes), "B"),
            Metric::new("pool.allocs", c.pool_allocs as f64, "count"),
            Metric::new("pool.frees", c.pool_frees as f64, "count"),
            Metric::new(
                "pool.live_end",
                (c.pool_allocs - c.pool_frees) as f64,
                "count",
            ),
            Metric::new("pool.live_peak", c.pool_live_peak as f64, "count"),
            Metric::new("pool.chunk_growths", c.pool_chunk_growths as f64, "count"),
            Metric::new("metrics.sink_s", full_s - lean_s, "s"),
            Metric::new(
                "metrics.delivery_batches",
                c.delivery_batches as f64,
                "count",
            ),
            Metric::new("fault.events", c.fault_events_injected as f64, "count"),
            Metric::new("fault.failover_bytes", c.fault_failover_bytes as f64, "B"),
            Metric::new("trace.overhead_frac", (traced_s - run_s) / run_s, "ratio"),
        ];

        for (f, family) in FAMILIES.iter().enumerate() {
            let of = |g: fn(&FamilyStats) -> f64| {
                median(&self.families.iter().map(|p| g(&p[f])).collect::<Vec<_>>())
            };
            out.push(Metric::new(
                format!("trace.{family}.count"),
                of(|s| s.count as f64),
                "count",
            ));
            out.push(Metric::new(
                format!("trace.{family}.self_s"),
                of(|s| s.self_s),
                "s",
            ));
            out.push(Metric::new(
                format!("trace.{family}.p50_us"),
                of(|s| s.p50_us),
                "us",
            ));
            out.push(Metric::new(
                format!("trace.{family}.p99_us"),
                of(|s| s.p99_us),
                "us",
            ));
        }

        out
    }
}

/// Runs the traced pass and returns the per-layer metrics.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: Duration,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    let native = w.profile();
    let other = match native {
        InstrProfile::Full => InstrProfile::Lean,
        _ => InstrProfile::Full,
    };
    let specs = w.specs(seed, native);
    let traced: Vec<_> = specs.iter().map(|s| s.clone().with_trace(true)).collect();
    let alt = w.specs(seed, other);

    let setup = workload::setup_samples(&specs, SETUP_MIN_SAMPLES, SETUP_BUDGET)?;
    let (mut flowgen, mut flows) = (Vec::new(), 0);
    for _ in 0..REPLAYS {
        let (secs, n) = workload::replay_flows(&specs)?;
        flowgen.push(secs);
        flows = n;
    }

    // The first untraced pass is kept for its counters; every other pass
    // is reduced to times as soon as it ends, so traces never pile up.
    let first = workload::run_rep(w, &specs);
    gate.admit(&first);
    let mut plain: Vec<PassTimes> = vec![PassTimes::of(w, &first)];
    let (mut lit, mut alts, mut families) = (Vec::new(), Vec::new(), Vec::new());
    let mut sink_contract = true;
    let t0 = Instant::now();
    while lit.len() < 2 || t0.elapsed() < seconds {
        let t = workload::run_rep(w, &traced);
        gate.admit(&t);
        lit.push(core_time(w, &t));
        families.push(family_stats(&t));
        drop(t);
        let a = workload::run_rep(w, &alt);
        sink_contract &= same_simulation(&first, &a);
        alts.push(core_time(w, &a));
        drop(a);
        let p = workload::run_rep(w, &specs);
        gate.admit(&p);
        plain.push(PassTimes::of(w, &p));
    }
    if !sink_contract {
        gate.errors.push(format!(
            "{} and {} runs simulated different events or bytes",
            native.label(),
            other.label()
        ));
    }
    println!(
        "passes {} untraced, {} traced, {} under the {} profile",
        plain.len(),
        lit.len(),
        alts.len(),
        other.label()
    );

    let samples = Samples {
        workload: w,
        native,
        first,
        setup,
        flowgen,
        flows,
        plain,
        lit,
        alts,
        families,
    };
    let out = samples.metrics();

    println!(
        "{:<28} {:>16} {:<6} | {:<30} | {:<32} | should not move on",
        "layer metric", "value", "unit", "moves", "mostly on"
    );
    for m in &out {
        let (moves, on, not_on) = target(&m.name);
        println!(
            "{:<28} {:>16.6} {:<6} | {moves:<30} | {on:<32} | {not_on}",
            m.name, m.value, m.unit
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{listed, printed};

    #[test]
    fn spans_parse_and_trace_families_have_targets() {
        let json = "{\"traceEvents\": [\n  {\"name\": \"process_name\", \"ph\": \"M\"},\n  \
                    {\"name\": \"epoch\", \"cat\": \"epoch\", \"ph\": \"X\", \"ts\": 1.5, \
                    \"dur\": 2.250, \"pid\": 1, \"tid\": 1}\n]}";
        let spans = parse_spans(json);
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].family, spans[0].start, spans[0].dur),
            (Some(0), 1500, 2250)
        );
        for f in FAMILIES {
            assert_ne!(target(&format!("trace.{f}.count")).0, "-");
        }
    }

    #[test]
    fn benchmark_json_lists_the_layer_metrics() {
        let first = Rep {
            run_s: 0.0,
            cpu_s: 0.0,
            sim_us: 0.0,
            output_s: 0.0,
            attempted: 0,
            failed: 0,
            reports: Vec::new(),
            fingerprint: Vec::new(),
        };
        let samples = Samples {
            workload: Workload::Kilofabric,
            native: InstrProfile::Lean,
            first,
            setup: Vec::new(),
            flowgen: Vec::new(),
            flows: 0,
            plain: Vec::new(),
            lit: Vec::new(),
            alts: Vec::new(),
            families: Vec::new(),
        };
        let metrics = samples.metrics();
        assert_eq!(listed("per_layer"), printed(&metrics));
        for m in &metrics {
            assert_ne!(target(&m.name).0, "-", "{} has no target", m.name);
        }
    }
}
