//! The out-of-order instruction window timing model.
//!
//! [`Window`] models the latency-tolerance behaviour of the paper's
//! 4-wide, 64-entry-RUU core analytically:
//!
//! * instructions dispatch in program order, `width` per cycle, while the
//!   window has space;
//! * each instruction carries a completion cycle (1 cycle after dispatch
//!   for ALU work, memory-system-determined for loads);
//! * retirement is in order, `width` per cycle, and cannot pass an
//!   incomplete instruction — so a long-latency load blocks retirement,
//!   and dispatch stalls once the window fills behind it;
//! * independent loads dispatched before the window fills overlap their
//!   latencies (memory-level parallelism).
//!
//! The model is *batch-based*: runs of compute instructions are kept as a
//! single window entry, making replay cost proportional to the number of
//! trace events rather than instructions. Lazy retirement (entries drain
//! when space is needed or at [`Window::finish`]) computes the same
//! schedule as eager retirement because the retire schedule depends only
//! on program order, completion times, and retire width.

use std::collections::VecDeque;

/// Core width/window geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Dispatch and retire width in instructions per cycle (paper: 4).
    pub width: u64,
    /// Window (RUU) capacity in instructions (paper: 64).
    pub capacity: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            width: 4,
            capacity: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Batch {
    count: u32,
    // Completion cycle of the batch's *first* instruction. Later
    // instructions in a compute batch complete at dispatch rate, which is
    // the retire rate, so pegging the batch to its first completion and
    // draining at `width`/cycle reproduces the eager schedule.
    complete_at: u64,
}

/// The analytic out-of-order window. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Window {
    cfg: WindowConfig,
    // `width` as a shift amount when it is a power of two (the paper's
    // core is 4-wide): turns the per-event slot→cycle divisions into
    // shifts. `None` falls back to division — identical arithmetic.
    width_shift: Option<u32>,
    entries: VecDeque<Batch>,
    occupancy: usize,
    dispatch_cycle: u64,
    slots_used: u64,
    // Next free retirement slot, in absolute slot units
    // (cycle * width + slot-within-cycle).
    retire_slot_next: u64,
    last_retire_cycle: u64,
    retired: u64,
    dispatched: u64,
}

impl Window {
    /// Creates an empty window.
    ///
    /// # Panics
    ///
    /// Panics if width or capacity is zero.
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(cfg.width > 0 && cfg.capacity > 0);
        Self {
            cfg,
            width_shift: cfg
                .width
                .is_power_of_two()
                .then(|| cfg.width.trailing_zeros()),
            entries: VecDeque::new(),
            occupancy: 0,
            dispatch_cycle: 0,
            slots_used: 0,
            retire_slot_next: 0,
            last_retire_cycle: 0,
            retired: 0,
            dispatched: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Current dispatch cycle: when the next instruction would dispatch.
    pub fn now(&self) -> u64 {
        self.dispatch_cycle
    }

    /// Instructions dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Instructions retired so far (lazy; see [`Window::finish`]).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current window occupancy in instructions.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Retires the oldest batch, returning the cycle at which its last
    /// instruction has left the window.
    fn retire_head(&mut self) -> u64 {
        let b = self
            .entries
            .pop_front()
            .expect("retire_head on empty window");
        // Retirement of this batch cannot start before its first
        // instruction completes, and consumes `count` retire slots.
        let start_slot = self.retire_slot_next.max(b.complete_at * self.cfg.width);
        self.retire_slot_next = start_slot + b.count as u64;
        let end = self.div_width(self.retire_slot_next - 1);
        self.last_retire_cycle = self.last_retire_cycle.max(end);
        self.occupancy -= b.count as usize;
        self.retired += b.count as u64;
        end
    }

    #[inline]
    fn div_width(&self, slots: u64) -> u64 {
        match self.width_shift {
            Some(s) => slots >> s,
            None => slots / self.cfg.width,
        }
    }

    fn advance_dispatch_to(&mut self, cycle: u64) {
        if cycle > self.dispatch_cycle {
            self.dispatch_cycle = cycle;
            self.slots_used = 0;
        }
    }

    /// Ensures the window has room for `n` more instructions, stalling
    /// dispatch until enough older instructions retire, and returns the
    /// cycle at which the first of the `n` will dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the window capacity (callers chunk larger
    /// batches) or is zero.
    pub fn prepare_dispatch(&mut self, n: u32) -> u64 {
        assert!(n > 0 && (n as usize) <= self.cfg.capacity);
        while self.occupancy + n as usize > self.cfg.capacity {
            let freed_at = self.retire_head();
            self.advance_dispatch_to(freed_at);
        }
        self.dispatch_cycle
    }

    /// Inserts `n` instructions completing at `complete_at`, consuming
    /// dispatch slots. Call [`Window::prepare_dispatch`] first.
    ///
    /// # Panics
    ///
    /// Panics if the batch does not fit (missing `prepare_dispatch`).
    pub fn push(&mut self, n: u32, complete_at: u64) {
        assert!(
            self.occupancy + n as usize <= self.cfg.capacity,
            "push without prepare_dispatch"
        );
        self.entries.push_back(Batch {
            count: n,
            complete_at,
        });
        self.occupancy += n as usize;
        self.dispatched += n as u64;
        self.slots_used += n as u64;
        let carry = self.div_width(self.slots_used);
        self.dispatch_cycle += carry;
        self.slots_used -= carry * self.cfg.width;
    }

    /// Dispatches `n` single-cycle (compute) instructions, chunking to the
    /// window capacity.
    pub fn dispatch_compute(&mut self, mut n: u64) {
        while n > 0 {
            let chunk = n.min(self.cfg.capacity as u64) as u32;
            let d = self.prepare_dispatch(chunk);
            // First instruction of the chunk completes one cycle after it
            // dispatches; the rest complete at dispatch rate behind it.
            self.push(chunk, d + 1);
            n -= chunk as u64;
        }
    }

    /// Drains the window and returns the cycle at which the final
    /// instruction retired — the program's execution time.
    pub fn finish(&mut self) -> u64 {
        while !self.entries.is_empty() {
            self.retire_head();
        }
        self.last_retire_cycle.max(self.dispatch_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Window {
        Window::new(WindowConfig::default())
    }

    #[test]
    fn pure_compute_throughput_is_width() {
        let mut win = w();
        win.dispatch_compute(4000);
        let cycles = win.finish();
        // 4000 instructions at width 4 ≈ 1000 cycles (+ small pipeline tail).
        assert!(cycles >= 1000, "cycles = {cycles}");
        assert!(cycles <= 1020, "cycles = {cycles}");
        assert_eq!(win.retired(), 4000);
    }

    #[test]
    fn single_long_load_blocks_retirement() {
        let mut win = w();
        let d = win.prepare_dispatch(1);
        assert_eq!(d, 0);
        win.push(1, 200); // load completing at cycle 200
        win.dispatch_compute(63); // fill the window behind it
                                  // Window is now full; the next instruction waits for the load.
        let d2 = win.prepare_dispatch(1);
        assert!(
            d2 >= 200,
            "dispatch stalled until the load retires, got {d2}"
        );
        win.push(1, d2 + 1);
        let total = win.finish();
        assert!(total >= 200);
    }

    #[test]
    fn independent_loads_overlap() {
        // Two misses of 200 cycles each, 10 compute instructions apart:
        // with a 64-entry window both dispatch long before either
        // completes, so the total is ~200, not ~400.
        let mut win = w();
        let d1 = win.prepare_dispatch(1);
        win.push(1, d1 + 200);
        win.dispatch_compute(10);
        let d2 = win.prepare_dispatch(1);
        assert!(d2 < 10, "second load dispatches early");
        win.push(1, d2 + 200);
        let total = win.finish();
        assert!(total < 250, "latencies overlapped: {total}");
    }

    #[test]
    fn dependent_loads_serialize_when_caller_chains_completion() {
        // The caller (simulator) models an address dependency by issuing
        // the second load at the first one's completion time.
        let mut win = w();
        let d1 = win.prepare_dispatch(1);
        let c1 = d1 + 200;
        win.push(1, c1);
        let d2 = win.prepare_dispatch(1);
        let issue2 = d2.max(c1);
        win.push(1, issue2 + 200);
        let total = win.finish();
        assert!(total >= 400, "chained loads serialize: {total}");
    }

    #[test]
    fn window_capacity_limits_mlp() {
        // Loads 64 instructions apart cannot overlap: the window fills
        // before the next load is reached.
        let mut win = w();
        let mut last_dispatch = 0;
        for _ in 0..4 {
            let d = win.prepare_dispatch(1);
            win.push(1, d + 200);
            win.dispatch_compute(63);
            last_dispatch = d;
        }
        // Each iteration occupies the full window; successive loads
        // dispatch roughly one load-latency apart.
        assert!(last_dispatch >= 3 * 200, "got {last_dispatch}");
    }

    #[test]
    fn retire_width_bounds_drain_rate() {
        let mut win = w();
        win.dispatch_compute(64);
        let total = win.finish();
        // 64 instructions retire at 4/cycle => at least 16 cycles.
        assert!(total >= 16);
        assert!(total <= 18);
    }

    #[test]
    fn now_advances_with_dispatch() {
        let mut win = w();
        assert_eq!(win.now(), 0);
        win.dispatch_compute(8);
        assert_eq!(win.now(), 2);
        win.dispatch_compute(1);
        assert_eq!(win.now(), 2); // partial cycle: 1 of 4 slots used
        win.dispatch_compute(3);
        assert_eq!(win.now(), 3);
    }

    #[test]
    fn occupancy_and_counts() {
        let mut win = w();
        win.dispatch_compute(10);
        assert_eq!(win.occupancy(), 10);
        assert_eq!(win.dispatched(), 10);
        assert_eq!(win.retired(), 0);
        win.finish();
        assert_eq!(win.retired(), 10);
        assert_eq!(win.occupancy(), 0);
    }

    #[test]
    fn finish_is_idempotent_on_empty() {
        let mut win = w();
        assert_eq!(win.finish(), 0);
        win.dispatch_compute(4);
        let t = win.finish();
        assert_eq!(win.finish(), t);
    }

    #[test]
    #[should_panic(expected = "push without prepare_dispatch")]
    fn push_requires_space() {
        let mut win = Window::new(WindowConfig {
            width: 4,
            capacity: 4,
        });
        win.push(4, 10);
        win.push(1, 10);
    }

    #[test]
    fn store_like_entries_do_not_block() {
        // Entries completing at dispatch+1 (stores via write buffer)
        // retire at full width.
        let mut win = w();
        for _ in 0..100 {
            let d = win.prepare_dispatch(1);
            win.push(1, d + 1);
        }
        let total = win.finish();
        assert!(total <= 30, "stores stream through: {total}");
    }
}
