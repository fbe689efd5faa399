//! Host-speed yardsticks for the sequential workloads.
//!
//! The benchmark shares its host with other guests, and the host's speed
//! drifts, in CPU time as well as on the wall clock (a busy sibling
//! hyperthread or a lower clock slows compute; a neighbour's memory traffic
//! slows cache misses; no steal shows in `/proc/stat`). It switches between
//! a fast and a slow state every few seconds, in proportions that differ
//! from run to run, so no statistic of a run's repetitions removes it.
//!
//! So a run also times a fixed kernel between its repetitions, and reports
//! its bounded timings in *reference milliseconds*: the repetitions' mean
//! CPU time times the kernel's reference time over the kernel's mean
//! reading in the same run. The kernels live here and depend on none of the
//! repository's crates. A change to the program moves the scaled figure as
//! it moves the CPU time; a drift that slows kernel and program alike
//! cancels out. Each workload uses the kernel that leans on what it leans
//! on. Over ten 20-second runs per workload on the tuning host, the
//! quartile spread (as a share of the median) of the run figures went, from
//! the median repetition's plain CPU time to the scaled mean: 2-D sweep
//! 0.199 to 0.030 and 3-D sweep 0.239 to 0.088 (compute kernel), traffic
//! sweep 0.174 to 0.050 (memory kernel), routing's delivered-pair sweeps
//! 0.238 to 0.079 and whole passes 0.049 to 0.021 (compute kernel). Means
//! track better than medians because a run's repetitions fall into the two
//! states and a median jumps between them. Neither kernel steadied the
//! fleet's multi-threaded wall-clock passes, which stay unscaled. The plain
//! CPU medians are printed beside the scaled figures.

use crate::{cpu_ms, stats};

/// What a workload leans on, and so which kernel tracks the host for it.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    /// Flood fill and sort on a seeded 192² grid: integer work and branches
    /// in a few hundred kB, like the constructions and the router.
    Compute,
    /// A dependent walk along a random cycle through 16 MB: a cache miss
    /// per step, like the simulator's per-cycle sweep over a 512² mesh.
    Memory,
}

impl Kernel {
    /// The kernel's mean CPU time (ms) on the tuning host, which the
    /// reference milliseconds are scaled to.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Compute => 10.0,
            Kernel::Memory => 33.0,
        }
    }
}

/// Side of the compute kernel's grid.
const SIDE: usize = 192;
/// Entries (u32) of the memory kernel's cycle: 16 MB.
const CYCLE: usize = 4 << 20;
/// Steps of one memory-kernel reading.
const STEPS: usize = 200_000;

/// One run of the compute kernel: labels the 4-connected open cells of a
/// seeded random grid (a third blocked) three times with a queue-driven
/// flood fill, and sorts the cells by label. Returns a checksum.
fn compute() -> u64 {
    let mut sum = 0u64;
    for round in 0..3u64 {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ round;
        let blocked: Vec<bool> = (0..SIDE * SIDE)
            .map(|_| xorshift(&mut state) % 3 == 0)
            .collect();
        let mut label = vec![u32::MAX; SIDE * SIDE];
        let mut queue = std::collections::VecDeque::new();
        let mut labels = 0u32;
        for start in 0..SIDE * SIDE {
            if blocked[start] || label[start] != u32::MAX {
                continue;
            }
            label[start] = labels;
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                let (x, y) = (c % SIDE, c / SIDE);
                let neighbours = [
                    (x > 0).then(|| c - 1),
                    (x + 1 < SIDE).then(|| c + 1),
                    (y > 0).then(|| c - SIDE),
                    (y + 1 < SIDE).then(|| c + SIDE),
                ];
                for n in neighbours.into_iter().flatten() {
                    if !blocked[n] && label[n] == u32::MAX {
                        label[n] = labels;
                        queue.push_back(n);
                    }
                }
            }
            labels += 1;
        }
        let mut keyed: Vec<(u32, u64)> = label
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)))
            .collect();
        keyed.sort_unstable();
        sum = sum
            .wrapping_add(u64::from(labels))
            .wrapping_add(keyed[SIDE * SIDE / 2].1);
    }
    sum
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A single random cycle through `CYCLE` entries (Sattolo's shuffle).
fn random_cycle() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CYCLE as u32).collect();
    let mut state = 12345u64;
    for i in (1..CYCLE).rev() {
        let j = (xorshift(&mut state) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// A kernel with its readings of one run.
pub struct Yardstick {
    kernel: Kernel,
    cycle: Vec<u32>,
    readings: Vec<f64>,
}

impl Yardstick {
    /// Prepares `kernel` and warms it up (that reading is not kept).
    pub fn new(kernel: Kernel) -> Yardstick {
        let cycle = match kernel {
            Kernel::Compute => Vec::new(),
            Kernel::Memory => random_cycle(),
        };
        let mut yard = Yardstick {
            kernel,
            cycle,
            readings: Vec::new(),
        };
        yard.read();
        yard.readings.clear();
        yard
    }

    /// Takes one reading: the kernel's CPU time, ms.
    pub fn read(&mut self) {
        let ms = match self.kernel {
            Kernel::Compute => cpu_ms(compute).1,
            Kernel::Memory => {
                let cycle = &self.cycle;
                cpu_ms(|| (0..STEPS).fold(0u32, |p, _| cycle[p as usize])).1
            }
        };
        self.readings.push(ms);
    }

    /// Mean reading, ms, with the number of readings.
    pub fn mean_ms(&self) -> (f64, usize) {
        (stats::mean(&self.readings), self.readings.len())
    }

    /// A mean CPU time (ms) of the run in reference milliseconds (see the
    /// module docs).
    pub fn scale(&self, cpu_ms: f64) -> f64 {
        cpu_ms * self.kernel.reference_ms() / self.mean_ms().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_memory_kernel_walks_one_cycle_through_every_entry() {
        let cycle = random_cycle();
        let mut seen = vec![false; CYCLE];
        let mut p = 0u32;
        for _ in 0..CYCLE {
            assert!(!seen[p as usize], "entry {p} visited twice");
            seen[p as usize] = true;
            p = cycle[p as usize];
        }
        assert_eq!(p, 0, "the walk returns to its start after CYCLE steps");
    }

    #[test]
    fn scaling_divides_by_the_mean_reading() {
        let yard = Yardstick {
            kernel: Kernel::Compute,
            cycle: Vec::new(),
            readings: vec![20.0, 5.0, 35.0],
        };
        assert_eq!(yard.mean_ms(), (20.0, 3));
        assert_eq!(
            yard.scale(100.0),
            100.0 * Kernel::Compute.reference_ms() / 20.0
        );
    }
}
