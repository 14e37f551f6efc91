//! The inputs each workload hands the program, made from `--seed`.
//!
//! The seed reaches the program only as generated inputs: the generator
//! seed (`WorkloadSpec::seed`) of the offline workloads, and the order in
//! which serve-plans submits its workloads. Seed 0 is the default and
//! leaves the suite's own generator seeds in place.

use swip_workloads::{cvp1_suite, WorkloadSpec};

use crate::util::mix;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// Dynamic instructions per paper-sweep and serve-plans workload.
pub const SWEEP_INSTRUCTIONS: u64 = 200_000;
/// Every n-th workload of the 48-trace suite.
pub const SWEEP_STRIDE: usize = 8;
/// Dynamic instructions per trace-replay workload.
pub const REPLAY_INSTRUCTIONS: u64 = 2_000_000;

/// The modelled L1-I capacity the workloads' footprints are set against.
pub const L1I_BYTES: u64 = 32 * 1024;

/// Re-seeds `spec`'s generator from the benchmark seed, keeping every
/// structural parameter (and so the workload's family and footprint).
fn reseed(mut spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    if seed != DEFAULT_SEED {
        spec.seed ^= mix(seed ^ mix(spec.seed));
    }
    spec
}

/// The paper-sweep workloads: the suite at `instructions`, stride
/// [`SWEEP_STRIDE`], re-seeded.
pub fn sweep_specs(seed: u64, instructions: u64) -> Vec<WorkloadSpec> {
    cvp1_suite(instructions)
        .into_iter()
        .step_by(SWEEP_STRIDE)
        .map(|s| reseed(s, seed))
        .collect()
}

/// The trace-replay workloads: the suite's three crypto kernels at
/// `instructions`, re-seeded.
pub fn replay_specs(seed: u64, instructions: u64) -> Vec<WorkloadSpec> {
    cvp1_suite(instructions)
        .into_iter()
        .filter(|s| s.name.contains("crypto"))
        .map(|s| reseed(s, seed))
        .collect()
}

/// The order in which serve-plans submits the served session's workloads
/// (`names`, in suite order): a seeded Fisher–Yates shuffle, so every
/// round still covers each workload once.
pub fn serve_rotation(seed: u64, names: &[String]) -> Vec<String> {
    let mut order = names.to_vec();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_workloads::Family;

    #[test]
    fn default_seed_keeps_the_suite() {
        let stock: Vec<_> = cvp1_suite(1_000)
            .into_iter()
            .step_by(SWEEP_STRIDE)
            .collect();
        assert_eq!(sweep_specs(DEFAULT_SEED, 1_000), stock);
    }

    #[test]
    fn other_seeds_change_only_the_generator_seed() {
        let a = sweep_specs(DEFAULT_SEED, 1_000);
        let b = sweep_specs(7, 1_000);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed);
            let mut y = y.clone();
            y.seed = x.seed;
            assert_eq!(*x, y);
        }
        assert_eq!(sweep_specs(7, 1_000), b, "same seed, same inputs");
        let servers = b.iter().filter(|s| s.family == Family::Server).count();
        assert_eq!(servers, 5);
    }

    #[test]
    fn replay_is_the_three_crypto_kernels() {
        let r = replay_specs(3, 1_000);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|s| s.family == Family::Crypto));
    }

    #[test]
    fn rotation_is_a_seeded_permutation() {
        let names: Vec<String> = (0..6).map(|i| format!("w{i}")).collect();
        let a = serve_rotation(1, &names);
        assert_eq!(a, serve_rotation(1, &names));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, names);
    }
}
