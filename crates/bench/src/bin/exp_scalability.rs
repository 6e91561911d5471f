//! **E7**: scalability of the scheduling logic with port count.
//!
//! Two views of §3's feasibility question:
//! 1. the *hardware* model — cycles and wall-clock latency per decision at
//!    the NetFPGA-SUME's 200 MHz, plus whether the design still fits the
//!    Virtex-7 690T;
//! 2. the *software* reality — measured wall-clock of each algorithm on
//!    this machine's CPU (the honest "software scheduler" data point).
//!
//! ```sh
//! cargo run --release -p xds-bench --bin exp_scalability
//! ```

use std::time::Instant;

use xds_bench::{banner, emit};
use xds_core::demand::DemandMatrix;
use xds_core::sched::*;
use xds_hw::{resources, ClockDomain, HwAlgo, SUME_CAPACITY};
use xds_metrics::Table;
use xds_sim::{BitRate, SimDuration, SimRng, SimTime};

const PORTS: [usize; 6] = [8, 16, 32, 64, 128, 256];

fn hotspot_demand(n: usize, seed: u64) -> DemandMatrix {
    let mut rng = SimRng::new(seed);
    let mut d = DemandMatrix::zero(n);
    for i in 0..n {
        // a hot ring plus random background
        d.set(i, (i + 1) % n, 1_000_000 + rng.below(1_000_000));
        for _ in 0..4 {
            let j = rng.below_usize(n);
            if j != i {
                d.add(i, j, rng.below(100_000));
            }
        }
    }
    d
}

fn ctx(n: usize) -> ScheduleCtx {
    let _ = n;
    ScheduleCtx {
        now: SimTime::ZERO,
        line_rate: BitRate::GBPS_10,
        reconfig: SimDuration::from_micros(1),
        epoch: SimDuration::from_micros(100),
        max_entries: 4,
    }
}

fn make(name: &str, n: usize) -> Box<dyn Scheduler> {
    match name {
        "islip_i3" => Box::new(IslipScheduler::new(n, 3)),
        "wavefront" => Box::new(WavefrontScheduler::new(n)),
        "greedy_lqf" => Box::new(GreedyLqfScheduler::new()),
        "hungarian" => Box::new(HungarianScheduler::new()),
        "solstice_p4" => Box::new(SolsticeScheduler::new(4)),
        other => panic!("unknown {other}"),
    }
}

const ALGOS: [&str; 5] = [
    "islip_i3",
    "wavefront",
    "greedy_lqf",
    "hungarian",
    "solstice_p4",
];

fn main() {
    banner(
        "E7",
        "scheduling-logic scalability with port count",
        "hardware cycle model @ 200 MHz + SUME fit check, and measured\n\
         software wall-clock per decision on this host.",
    );

    // --- Hardware model table. ---
    let mut hw = Table::new(
        "E7a: hardware decision latency @ 200 MHz (cycles | ns) and SUME fit (1KB VOQs @ 64p)",
        &[
            "algo",
            "n=8",
            "n=16",
            "n=32",
            "n=64",
            "n=128",
            "n=256",
            "fits SUME @64",
        ],
    );
    let hw_algos: Vec<(&str, HwAlgo)> = vec![
        ("tdma", HwAlgo::Tdma),
        ("islip_i3", HwAlgo::Islip { iterations: 3 }),
        ("wavefront", HwAlgo::Wavefront),
        ("greedy_lqf", HwAlgo::GreedyLqf),
        ("bvn_p4", HwAlgo::Bvn { perms: 4 }),
        ("hungarian", HwAlgo::Hungarian),
    ];
    for (name, algo) in &hw_algos {
        let mut row = vec![name.to_string()];
        for &n in &PORTS {
            let cyc = algo.schedule_cycles(n);
            let ns = ClockDomain::NETFPGA_SUME.cycles_to_time(cyc);
            row.push(format!("{cyc}cy|{ns}"));
        }
        // 1 KB per VOQ: the nanosecond-switching buffering regime of
        // Figure 1 (a millisecond regime needs ~MB per VOQ — see the
        // resources module's tests for that contrast).
        let est = resources::full_design(*algo, 64, 1_024);
        row.push(format!(
            "{} ({:.0}%)",
            if est.fits(SUME_CAPACITY) { "yes" } else { "NO" },
            est.worst_utilization(SUME_CAPACITY) * 100.0
        ));
        hw.row(row);
    }
    emit("exp_scalability_hw", &hw);

    // --- Software wall-clock table (measured on this CPU). ---
    let mut sw = Table::new(
        "E7b: measured software schedule() wall-clock per decision (us, this host)",
        &["algo", "n=8", "n=16", "n=32", "n=64", "n=128", "n=256"],
    );
    for name in ALGOS {
        let mut row = vec![name.to_string()];
        for &n in &PORTS {
            let demand = hotspot_demand(n, 17);
            let c = ctx(n);
            let mut s = make(name, n);
            // Warm up, then measure.
            for _ in 0..3 {
                let _ = s.schedule(&demand, &c);
            }
            let iters = if n >= 128 { 20 } else { 200 };
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(s.schedule(std::hint::black_box(&demand), &c));
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
            row.push(format!("{us:.1}"));
        }
        sw.row(row);
    }
    emit("exp_scalability_sw", &sw);

    println!(
        "expected shape: hardware iSLIP grows logarithmically (islip_i3: 24 ->\n\
         54 cycles over 8 -> 256 ports: well under a microsecond) while\n\
         Hungarian's n^3 blows past line-rate budgets by 64 ports — and the\n\
         measured software wall-clock is orders of magnitude above the\n\
         hardware model even for the friendly algorithms, which is the\n\
         paper's entire point."
    );
}
