//! Bank-level command scheduling.
//!
//! The perf models approximate wall-clock as `serial_time / chains` with an
//! issue cap. This module computes the ground truth that abstraction
//! approximates: given per-sub-array command queues, the makespan of a
//! schedule under the two real constraints —
//!
//! 1. each sub-array executes its own commands serially (its rows/SA are
//!    occupied for the command's full latency), and
//! 2. the shared command bus issues at most one command every `issue_ns`
//!    (DDR command-bus bandwidth).
//!
//! The scheduler is greedy earliest-ready-first, which is optimal for this
//! two-resource model with equal-length commands per queue.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One command queue: a sub-array's serial work, `commands` commands of
/// `latency_ns` nanoseconds each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandQueue {
    /// Commands in the queue.
    pub commands: u64,
    /// Latency of each command (ns).
    pub latency_ns: f64,
}

/// Result of scheduling a set of queues.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Total makespan (ns).
    pub makespan_ns: f64,
    /// Sum of all command latencies (the serial time, ns).
    pub serial_ns: f64,
    /// Effective parallelism: `serial / makespan`.
    pub effective_parallelism: f64,
    /// Commands issued.
    pub commands: usize,
}

/// Schedules `queues` under per-sub-array serialization and a shared
/// command bus issuing one command per `issue_ns`.
///
/// Each step issues the next command of the queue whose sub-array frees
/// earliest; at equal `free_at` (compared with [`f64::total_cmp`]) the
/// lowest queue index wins. The queues wait in a min-heap keyed by
/// `(free_at, index)`, so the cost is O(commands · log queues) and the
/// memory is one 16-byte key per queue.
///
/// # Examples
///
/// ```
/// use pim_dram::schedule::{schedule, CommandQueue};
///
/// // Two sub-arrays with two 47 ns commands each, fast bus: runs in ~94 ns.
/// let q = CommandQueue { commands: 2, latency_ns: 47.0 };
/// let s = schedule(&[q, q], 1.0);
/// assert!((s.makespan_ns - 96.0).abs() < 3.0);
/// assert!(s.effective_parallelism > 1.9);
/// ```
pub fn schedule(queues: &[CommandQueue], issue_ns: f64) -> Schedule {
    // Summed one command at a time, in queue order, so the serial time is
    // the same float as summing a per-command latency list.
    let serial_ns: f64 =
        queues.iter().flat_map(|q| std::iter::repeat_n(q.latency_ns, q.commands as usize)).sum();
    let commands = queues.iter().map(|q| q.commands as usize).sum();
    // Per-queue state: commands left and the time the sub-array frees.
    let mut left: Vec<u64> = queues.iter().map(|q| q.commands).collect();
    let mut free_at = vec![0f64; queues.len()];
    let mut ready: BinaryHeap<Reverse<u128>> =
        (0..queues.len()).filter(|&q| left[q] > 0).map(|q| Reverse(ready_key(0.0, q))).collect();
    let mut bus_free = 0f64;
    let mut makespan = 0f64;
    // A command is ready when its sub-array is free; it starts when both
    // the sub-array and the bus are free.
    while let Some(mut top) = ready.peek_mut() {
        // The key's low 64 bits are the queue index.
        let q = top.0 as u64 as usize;
        let start = free_at[q].max(bus_free);
        bus_free = start + issue_ns;
        free_at[q] = start + queues[q].latency_ns;
        makespan = makespan.max(free_at[q]);
        left[q] -= 1;
        if left[q] == 0 {
            PeekMut::pop(top);
        } else {
            // Re-key the top in place; the heap sifts it down on drop.
            top.0 = ready_key(free_at[q], q);
        }
    }
    Schedule {
        makespan_ns: makespan,
        serial_ns,
        effective_parallelism: if makespan > 0.0 { serial_ns / makespan } else { 0.0 },
        commands,
    }
}

/// Heap key of queue `q` freeing at `free_at`: the high 64 bits order
/// like [`f64::total_cmp`] when compared unsigned, the low 64 bits are
/// the index, so the least key is the earliest queue with ties to the
/// lowest index.
fn ready_key(free_at: f64, q: usize) -> u128 {
    let bits = free_at.to_bits();
    // Negative floats reverse their order, so flip every bit; positive
    // ones only need to sort above every negative.
    let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    (u128::from(ordered) << 64) | q as u128
}

/// Builds one queue per sub-array from measured `(commands, busy_ns)`
/// totals — the shape returned by
/// [`crate::controller::Controller::subarray_command_totals`] — modeling
/// each sub-array's traffic as `commands` equal-length commands of
/// `busy_ns / commands` each. Feeding the result to [`schedule`]
/// estimates the makespan (and effective parallelism) the recorded traffic
/// would achieve if the sub-arrays ran concurrently under the shared
/// command bus.
pub fn queues_from_totals(totals: &[(u64, f64)]) -> Vec<CommandQueue> {
    totals
        .iter()
        .filter(|&&(commands, _)| commands > 0)
        .map(|&(commands, busy_ns)| CommandQueue {
            commands,
            latency_ns: busy_ns / commands as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn uniform(subarrays: usize, commands: u64, latency_ns: f64) -> Vec<CommandQueue> {
        vec![CommandQueue { commands, latency_ns }; subarrays]
    }

    #[test]
    fn single_queue_is_fully_serial() {
        let s = schedule(&uniform(1, 10, 47.0), 1.0);
        assert!((s.makespan_ns - 470.0).abs() < 10.0);
        assert!((s.effective_parallelism - 1.0).abs() < 0.05);
    }

    #[test]
    fn parallelism_scales_until_the_bus_saturates() {
        // AAP ≈ 47 ns, command issue ≈ 2.8 ns (three DDR commands at tCK):
        // at most ~16.8 sub-arrays can be kept busy.
        let t = TimingParams::ddr4_2133();
        let issue = 3.0 * t.t_ck_ns;
        let aap = t.aap_ns();
        let p8 = schedule(&uniform(8, 50, aap), issue).effective_parallelism;
        let p16 = schedule(&uniform(16, 50, aap), issue).effective_parallelism;
        let p64 = schedule(&uniform(64, 50, aap), issue).effective_parallelism;
        assert!((p8 - 8.0).abs() < 0.5, "8 queues: {p8}");
        assert!((p16 - 16.0).abs() < 1.0, "16 queues: {p16}");
        // Beyond the bus limit, adding sub-arrays cannot raise parallelism.
        let cap = aap / issue;
        assert!(p64 < cap + 1.0, "64 queues: {p64} exceeds bus cap {cap}");
        assert!(p64 > cap - 2.0, "64 queues: {p64} far below bus cap {cap}");
    }

    #[test]
    fn bus_cap_justifies_the_perf_model_chain_cap() {
        // The assembly perf model clamps chains at 22 per replica set; the
        // scheduled ground truth for AAP-class commands lands in the same
        // regime (tens, not hundreds).
        let t = TimingParams::ddr4_2133();
        let s = schedule(&uniform(256, 20, t.aap_ns()), 3.0 * t.t_ck_ns);
        assert!(
            s.effective_parallelism > 10.0 && s.effective_parallelism < 25.0,
            "effective parallelism {}",
            s.effective_parallelism
        );
    }

    #[test]
    fn mixed_latencies_schedule_correctly() {
        // One long queue dominates the makespan.
        let mut queues = uniform(4, 2, 10.0);
        queues.push(CommandQueue { commands: 5, latency_ns: 100.0 });
        let s = schedule(&queues, 0.5);
        assert!(s.makespan_ns >= 500.0);
        assert_eq!(s.commands, 4 * 2 + 5);
    }

    #[test]
    fn empty_input() {
        let s = schedule(&[], 1.0);
        assert_eq!(s.makespan_ns, 0.0);
        assert_eq!(s.commands, 0);
    }

    #[test]
    fn ready_keys_order_like_total_cmp_then_index() {
        let times =
            [f64::NEG_INFINITY, -47.0, -f64::MIN_POSITIVE, -0.0, 0.0, 1e-310, 2.8, 47.0, f64::NAN];
        for a in times {
            for b in times {
                assert_eq!(ready_key(a, 3).cmp(&ready_key(b, 3)), a.total_cmp(&b), "{a} vs {b}");
            }
            assert!(ready_key(a, 2) < ready_key(a, 3));
        }
    }

    #[test]
    fn totals_build_average_latency_queues() {
        let queues = queues_from_totals(&[(4, 188.0), (0, 0.0), (2, 20.0)]);
        assert_eq!(
            queues,
            [
                CommandQueue { commands: 4, latency_ns: 47.0 },
                CommandQueue { commands: 2, latency_ns: 10.0 }
            ]
        );
        // Two independent sub-arrays overlap under a fast bus.
        let s = schedule(&queues, 0.5);
        assert!(s.effective_parallelism > 1.05);
        assert_eq!(s.commands, 6);
    }
}
