//! `perfbench`: host-time benchmark of the hybrid EPS/OCS simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced pass and prints the per-layer ledger. Both
//! check every run's simulated output against the first run's and, for
//! the pinned seed, against `pinned.txt`.
//!
//! End-to-end host times are reported in calibrated seconds: host seconds
//! times [`host::REFERENCE_NOMINAL_S`] over the median time of a fixed
//! reference kernel run between the passes, so a shared host's minutes
//! of co-tenant load shift them less. The plain host-second medians are
//! printed beside them on a `raw` line. Human-readable lines go to
//! stdout first; the last line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits 1 when the output was incorrect and 2 on a usage or
//! set-up error (without a result line).

mod fingerprint;
mod host;
mod ledger;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fingerprint::Fingerprint;
use host::Reference;
use workload::{Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <kilofabric-n1024|campaign-n16> --seed <n> \
     --seconds <s> --trace <0|1>";

/// Fewest measured passes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Host time spent sampling set-up after each measured pass (at least
/// one sample). Spreading the samples over the whole run, instead of one
/// burst, keeps a minute of host slowdown from moving their median.
const SETUP_SLICE: Duration = Duration::from_millis(20);

/// Threads the reference kernel runs on: every vCPU of the calibration
/// host, which both workloads keep busy (sharded windows, executor).
const REFERENCE_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A printed metric: name, value, unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The correctness gate: every run of one invocation must reproduce the
/// first run's fingerprint, which must match the pinned one for the
/// pinned seed.
pub struct Gate {
    workload: Workload,
    seed: u64,
    first: Option<Vec<Fingerprint>>,
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Gate {
    fn new(workload: Workload, seed: u64) -> Gate {
        Gate {
            workload,
            seed,
            first: None,
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one pass and counts its points. The first pass also prints
    /// the fingerprint and the regime record.
    pub fn admit(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        match &self.first {
            Some(first) if *first != rep.fingerprint => {
                self.errors
                    .push("fingerprint differs between runs of one invocation".into());
            }
            Some(_) => {}
            None => {
                let name = self.workload.name();
                for f in &rep.fingerprint {
                    println!("fingerprint {name} {f}");
                }
                if let Err(e) = fingerprint::check_pinned(name, self.seed, &rep.fingerprint) {
                    self.errors.push(e);
                }
                self.regime(rep);
                self.first = Some(rep.fingerprint.clone());
            }
        }
    }

    /// Prints the regime the pass ran in.
    fn regime(&self, rep: &Rep) {
        let name = self.workload.name();
        if self.workload == Workload::Kilofabric {
            println!("regime {name}: ingress-bound by design (grant path nearly idle)");
        }
        let mut goodputs: Vec<f64> = Vec::new();
        let (mut decisions, mut bursts, mut live_end) = (0u64, 0u64, 0u64);
        for (spec, r) in &rep.reports {
            let c = &r.counters;
            let live = c.pool_allocs - c.pool_frees;
            goodputs.push(r.goodput_fraction());
            decisions += r.decisions;
            bursts += c.grant_bursts;
            live_end += live;
            if rep.reports.len() == 1 {
                println!(
                    "regime {name} {}: goodput {:.4}, decisions {}, grant_bursts {}, \
                     pool.live_end {live}",
                    spec.name,
                    r.goodput_fraction(),
                    r.decisions,
                    c.grant_bursts
                );
            }
        }
        if rep.reports.len() > 1 {
            goodputs.sort_by(f64::total_cmp);
            println!(
                "regime {name}: {} points, goodput min {:.4} median {:.4}, decisions {decisions}, \
                 grant_bursts {bursts}, pool.live_end {live_end}",
                rep.reports.len(),
                goodputs.first().copied().unwrap_or(0.0),
                host::median(&goodputs),
            );
        }
    }

    fn correct(&self) -> bool {
        self.first.is_some() && self.errors.is_empty()
    }
}

/// What the untraced invocation measured.
struct EndToEnd {
    /// Set-up samples, host seconds.
    setup: Vec<f64>,
    /// Per measured pass: simulated µs per host second of the run phase,
    /// and CPU seconds of the run phase.
    speed: Vec<f64>,
    cpu: Vec<f64>,
    /// Reference-kernel seconds, one after each measured pass.
    reference: Vec<f64>,
    peak_rss_mb: f64,
    ok_frac: f64,
}

impl EndToEnd {
    /// Host seconds per calibrated second: the median reference time over
    /// its nominal time.
    fn slowdown(&self) -> f64 {
        host::median(&self.reference) / host::REFERENCE_NOMINAL_S
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Host times are
    /// in calibrated seconds.
    fn metrics(&self) -> Vec<Metric> {
        let k = self.slowdown();
        vec![
            Metric::new("setup_s", host::median(&self.setup) / k, "s"),
            Metric::new("sim_us_per_s", host::median(&self.speed) * k, "us/s"),
            Metric::new("cpu_s", host::median(&self.cpu) / k, "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new("ok_frac", self.ok_frac, "ratio"),
        ]
    }

    /// The same medians in plain host seconds, and the host's speed.
    fn print_raw(&self) {
        println!(
            "raw setup_s = {} s, sim_us_per_s = {} us/s, cpu_s = {} s; reference {} s \
             (nominal {} s, {} runs)",
            host::median(&self.setup),
            host::median(&self.speed),
            host::median(&self.cpu),
            host::median(&self.reference),
            host::REFERENCE_NOMINAL_S,
            self.reference.len()
        );
    }
}

/// The end-to-end pass: tracing off. The warm-up pass runs first in the
/// fresh process, so the peak resident set read after it is that of one
/// run of the workload; repeated passes only add allocator
/// fragmentation. Each measured pass is followed by one run of the
/// reference kernel and a slice of set-up samples.
fn end_to_end(args: &Args, gate: &mut Gate) -> Result<EndToEnd, String> {
    let w = args.workload;
    let specs = w.specs(args.seed, w.profile());
    gate.admit(&workload::run_rep(w, &specs));
    let peak_rss_mb = host::peak_rss_mb();
    let reference = Reference::new(REFERENCE_THREADS);
    reference.time();
    let (mut setup, mut speed, mut cpu, mut refs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while speed.len() < MIN_REPS || t0.elapsed() < args.seconds {
        let rep = workload::run_rep(w, &specs);
        gate.admit(&rep);
        speed.push(rep.sim_us_per_s());
        cpu.push(rep.cpu_s);
        refs.push(reference.time());
        let samples = workload::setup_samples(&specs, 1, SETUP_SLICE)?;
        setup.extend(samples.iter().map(|t| t.total()));
    }
    println!(
        "passes {} measured after 1 warm-up, {} set-up samples; failed points {}/{}",
        speed.len(),
        setup.len(),
        gate.failed,
        gate.attempted
    );
    Ok(EndToEnd {
        setup,
        speed,
        cpu,
        reference: refs,
        peak_rss_mb,
        ok_frac: (gate.attempted - gate.failed) as f64 / gate.attempted as f64,
    })
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::new(args.workload, args.seed);
    let measured = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds, &mut gate)
    } else {
        end_to_end(&args, &mut gate).map(|e| {
            e.print_raw();
            e.metrics()
        })
    };
    let metrics = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        for m in &metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
    }
    for e in &gate.errors {
        println!("INCORRECT: {e}");
    }
    let correct = gate.correct();
    println!(
        "{}",
        result_json(correct, gate.attempted, gate.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `(name, unit)` of each metric in one list of `BENCHMARK.json`,
    /// which is written one entry per line.
    pub fn listed(section: &str) -> Vec<(String, String)> {
        let field = |line: &str, key: &str| -> String {
            let pat = format!("\"{key}\": \"");
            let rest = &line[line.find(&pat).expect("entry has the key") + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        };
        include_str!("../../BENCHMARK.json")
            .lines()
            .skip_while(|l| !l.trim_start().starts_with(&format!("\"{section}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    /// The `(name, unit)` pairs of printed metrics.
    pub fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_end_to_end_metrics() {
        let e = EndToEnd {
            setup: vec![],
            speed: vec![],
            cpu: vec![],
            reference: vec![],
            peak_rss_mb: 0.0,
            ok_frac: 1.0,
        };
        assert_eq!(listed("end_to_end"), printed(&e.metrics()));
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let m = [Metric::new("setup_s", 0.5, "s")];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
