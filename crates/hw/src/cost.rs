//! Hardware cycle-cost models per scheduling algorithm.
//!
//! These are engineering estimates of what each algorithm costs when
//! synthesized as gateware, with the parallelism hardware actually offers.
//! They drive experiment E7 (scalability) and explain *why* the
//! hardware-friendly algorithms (iSLIP, wavefront, TDMA) are the ones
//! proposed for on-switch scheduling while optimal matchings (Hungarian)
//! stay in software:
//!
//! | algorithm | model | rationale |
//! |---|---|---|
//! | TDMA | 1 cycle | a counter |
//! | iSLIP/PIM/RRM | `iters × (2·⌈log₂n⌉ + 2)` | all N grant + accept arbiters run in parallel; each is a `⌈log₂n⌉`-deep priority-encoder tree, one cycle of pointer update each phase |
//! | wavefront | `2n − 1` | one diagonal of the crossbar per cycle |
//! | greedy LQF | `n·⌈log₂n⌉` | iterative max-selection over a comparator tree, one row/column eliminated per pick |
//! | Hungarian | `n³ / 4` | textbook O(n³) with modest 4-way ILP — *not* line-rate feasible beyond small n |
//! | BvN/TMS | `perms × (n·⌈log₂n⌉ + n)` | one augmenting-path matching per extracted permutation |
//! | Solstice | `perms × (n·⌈log₂n⌉ + n)` | same engine, threshold-halving selection |

/// Scheduling algorithms with hardware cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwAlgo {
    /// Static rotation — a slot counter.
    Tdma,
    /// iSLIP with the given iteration count.
    Islip {
        /// Number of request–grant–accept iterations.
        iterations: u32,
    },
    /// Parallel iterative matching (random arbiters).
    Pim {
        /// Number of iterations.
        iterations: u32,
    },
    /// Round-robin matching (single-pointer arbiters).
    Rrm {
        /// Number of iterations.
        iterations: u32,
    },
    /// Wavefront arbiter (diagonal sweep of the crossbar).
    Wavefront,
    /// Greedy longest-queue-first maximal matching.
    GreedyLqf,
    /// Hungarian maximum-weight matching (software-class algorithm).
    Hungarian,
    /// Birkhoff–von-Neumann / TMS decomposition extracting `perms`
    /// permutations.
    Bvn {
        /// Number of permutations extracted.
        perms: u32,
    },
    /// Solstice-style greedy hybrid decomposition extracting `perms`
    /// configurations.
    Solstice {
        /// Number of configurations extracted.
        perms: u32,
    },
}

fn ceil_log2(n: usize) -> u64 {
    debug_assert!(n > 0);
    (usize::BITS - (n - 1).leading_zeros()) as u64
}

impl HwAlgo {
    /// Estimated cycles to compute one schedule for an `n_ports` switch.
    pub fn schedule_cycles(self, n_ports: usize) -> u64 {
        assert!(n_ports >= 2, "need at least 2 ports");
        let n = n_ports as u64;
        let log = ceil_log2(n_ports).max(1);
        match self {
            HwAlgo::Tdma => 1,
            HwAlgo::Islip { iterations }
            | HwAlgo::Pim { iterations }
            | HwAlgo::Rrm { iterations } => iterations as u64 * (2 * log + 2),
            HwAlgo::Wavefront => 2 * n - 1,
            HwAlgo::GreedyLqf => n * log,
            HwAlgo::Hungarian => (n * n * n) / 4,
            HwAlgo::Bvn { perms } | HwAlgo::Solstice { perms } => perms as u64 * (n * log + n),
        }
    }

    /// Whether the algorithm is considered synthesizable at line-rate
    /// decision cadence (the paper's "hardware may not be fast by default"
    /// point: only parallel-friendly algorithms earn their place on the
    /// FPGA).
    pub fn is_hw_friendly(self) -> bool {
        !matches!(self, HwAlgo::Hungarian)
    }

    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            HwAlgo::Tdma => "tdma".into(),
            HwAlgo::Islip { iterations } => format!("islip_i{iterations}"),
            HwAlgo::Pim { iterations } => format!("pim_i{iterations}"),
            HwAlgo::Rrm { iterations } => format!("rrm_i{iterations}"),
            HwAlgo::Wavefront => "wavefront".into(),
            HwAlgo::GreedyLqf => "greedy_lqf".into(),
            HwAlgo::Hungarian => "hungarian".into(),
            HwAlgo::Bvn { perms } => format!("bvn_p{perms}"),
            HwAlgo::Solstice { perms } => format!("solstice_p{perms}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn tdma_is_one_cycle() {
        assert_eq!(HwAlgo::Tdma.schedule_cycles(64), 1);
    }

    #[test]
    fn islip_scales_logarithmically() {
        let a = HwAlgo::Islip { iterations: 1 }.schedule_cycles(16); // 2*4+2 = 10
        let b = HwAlgo::Islip { iterations: 1 }.schedule_cycles(256); // 2*8+2 = 18
        assert_eq!(a, 10);
        assert_eq!(b, 18);
        // 16× more ports < 2× more cycles — the hardware-parallelism story.
        assert!(b < 2 * a);
        // Iterations scale linearly.
        assert_eq!(HwAlgo::Islip { iterations: 4 }.schedule_cycles(16), 4 * a);
        // The E7 (`exp_scalability`) table's islip_i3 column: 3 * (2*3+2)
        // at 8 ports, 3 * (2*8+2) at 256.
        let i3 = HwAlgo::Islip { iterations: 3 };
        assert_eq!(i3.schedule_cycles(8), 24);
        assert_eq!(i3.schedule_cycles(256), 54);
    }

    #[test]
    fn hungarian_explodes_cubically() {
        let small = HwAlgo::Hungarian.schedule_cycles(8);
        let big = HwAlgo::Hungarian.schedule_cycles(64);
        assert_eq!(small, 128);
        assert_eq!(big, 65_536);
        assert!(!HwAlgo::Hungarian.is_hw_friendly());
        assert!(HwAlgo::Islip { iterations: 3 }.is_hw_friendly());
    }

    #[test]
    fn wavefront_is_linear_in_ports() {
        assert_eq!(HwAlgo::Wavefront.schedule_cycles(64), 127);
    }

    #[test]
    fn decomposition_cost_scales_with_perms() {
        let one = HwAlgo::Bvn { perms: 1 }.schedule_cycles(32);
        let four = HwAlgo::Bvn { perms: 4 }.schedule_cycles(32);
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn labels_distinguish_parameters() {
        assert_eq!(HwAlgo::Islip { iterations: 3 }.label(), "islip_i3");
        assert_eq!(HwAlgo::Bvn { perms: 8 }.label(), "bvn_p8");
    }

    /// The headline comparison the paper's §2 implies: at 64 ports and
    /// 200 MHz, a hardware iSLIP decision is ~100 ns while a software
    /// scheduler is ~milliseconds — five orders of magnitude.
    #[test]
    fn hw_decision_for_64_ports_is_sub_microsecond() {
        use crate::clock::ClockDomain;
        let cycles = HwAlgo::Islip { iterations: 3 }.schedule_cycles(64);
        let latency = ClockDomain::NETFPGA_SUME.cycles_to_time(cycles);
        assert!(
            latency < xds_sim::SimDuration::from_micros(1),
            "latency {latency}"
        );
    }
}
