//! Deterministic, seeded fault injection for the memory system.
//!
//! A [`FaultPlan`] is a reproducible list of timed fault events —
//! transient DRAM channel stalls, a full channel outage window, delayed
//! and dropped prefetch fills, an MSHR-capacity squeeze, and region-queue
//! back-pressure bursts — generated from a single seed via the testkit
//! RNG. The plan is *data*: installing it on a
//! [`MemSystem`](crate::MemSystem) (or mirroring it into the
//! [`OracleSystem`](crate::OracleSystem)) arms narrow seams in the DRAM,
//! MSHR, and engine models; an empty plan is behaviourally inert, so a
//! zero-fault run is bit-identical to an unfaulted one.
//!
//! The degradation contract the plan verifies (see DESIGN.md §11):
//! under any plan the simulator never panics, demand correctness is
//! preserved (a faulted no-prefetch run still passes the oracle
//! differential when the oracle mirrors the same plan), lifecycle
//! conservation holds with explicit `dropped`/`delayed` legs, and
//! prefetch schemes degrade toward the no-prefetch baseline.

use grp_testkit::proptest::Arbitrary;
use grp_testkit::Rng;

/// What goes wrong, and for how long. Durations are relative to the
/// event's [`FaultEvent::at`] cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient stall: the channel's data bus is busy until
    /// `at + duration` for prefetches and writebacks; demands still
    /// preempt through at the usual `t_preempt` penalty.
    ChannelStall {
        /// Channel index (reduced modulo the configured channel count).
        channel: u8,
        /// Stall length in cycles.
        duration: u64,
    },
    /// Full outage: the channel serves *nothing* — demands included —
    /// until `at + duration`.
    ChannelOutage {
        /// Channel index (reduced modulo the configured channel count).
        channel: u8,
        /// Outage length in cycles.
        duration: u64,
    },
    /// Every prefetch issued inside the window lands `extra` cycles
    /// later than the DRAM timing says it should.
    DelayFills {
        /// Window length in cycles.
        duration: u64,
        /// Added fill latency in cycles.
        extra: u64,
    },
    /// Every prefetch issued inside the window loses its data: the MSHR
    /// register is released on schedule but no line is installed.
    DropFills {
        /// Window length in cycles.
        duration: u64,
    },
    /// The L2 MSHR file loses `amount` registers for the window
    /// (floored at one usable register).
    MshrSqueeze {
        /// Registers withheld.
        amount: u8,
        /// Window length in cycles.
        duration: u64,
    },
    /// The prefetch queue loses `amount` entries of capacity for the
    /// window; over-capacity entries are dropped off the tail exactly
    /// like ordinary §3.1 back-pressure.
    QueuePressure {
        /// Queue entries withheld.
        amount: u8,
        /// Window length in cycles.
        duration: u64,
    },
}

/// One timed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault takes effect.
    pub at: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A reproducible schedule of fault events. The empty plan is inert.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The events, in no particular order (application is by timestamp).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan over the given events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// The inert plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A fully reproducible random plan: same seed, same plan, on every
    /// build and machine (xoshiro256** seeded through splitmix64).
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self::arbitrary(&mut rng)
    }

    /// The named built-in plans the correctness gate sweeps: one plan
    /// per fault class plus a combined "storm". Windows are sized to
    /// cover test-scale runs from (near) cycle zero.
    pub fn builtin() -> Vec<(&'static str, FaultPlan)> {
        // Long enough to outlast any test-scale run.
        const WHOLE_RUN: u64 = 1 << 40;
        vec![
            (
                "channel-stall",
                FaultPlan::new(vec![
                    FaultEvent {
                        at: 1_000,
                        kind: FaultKind::ChannelStall {
                            channel: 0,
                            duration: 30_000,
                        },
                    },
                    FaultEvent {
                        at: 40_000,
                        kind: FaultKind::ChannelStall {
                            channel: 2,
                            duration: 30_000,
                        },
                    },
                ]),
            ),
            (
                "channel-outage",
                FaultPlan::new(vec![FaultEvent {
                    at: 5_000,
                    kind: FaultKind::ChannelOutage {
                        channel: 1,
                        duration: 200_000,
                    },
                }]),
            ),
            (
                "delayed-fills",
                FaultPlan::new(vec![FaultEvent {
                    at: 0,
                    kind: FaultKind::DelayFills {
                        duration: WHOLE_RUN,
                        extra: 600,
                    },
                }]),
            ),
            (
                "dropped-fills",
                FaultPlan::new(vec![FaultEvent {
                    at: 0,
                    kind: FaultKind::DropFills {
                        duration: WHOLE_RUN,
                    },
                }]),
            ),
            (
                "mshr-squeeze",
                FaultPlan::new(vec![FaultEvent {
                    at: 0,
                    kind: FaultKind::MshrSqueeze {
                        amount: 6,
                        duration: WHOLE_RUN,
                    },
                }]),
            ),
            (
                "queue-pressure",
                FaultPlan::new(vec![
                    FaultEvent {
                        at: 2_000,
                        kind: FaultKind::QueuePressure {
                            amount: 30,
                            duration: 50_000,
                        },
                    },
                    FaultEvent {
                        at: 100_000,
                        kind: FaultKind::QueuePressure {
                            amount: 30,
                            duration: 50_000,
                        },
                    },
                ]),
            ),
            (
                "storm",
                FaultPlan::new(vec![
                    FaultEvent {
                        at: 500,
                        kind: FaultKind::ChannelOutage {
                            channel: 3,
                            duration: 60_000,
                        },
                    },
                    FaultEvent {
                        at: 1_000,
                        kind: FaultKind::DelayFills {
                            duration: 80_000,
                            extra: 300,
                        },
                    },
                    FaultEvent {
                        at: 20_000,
                        kind: FaultKind::DropFills { duration: 40_000 },
                    },
                    FaultEvent {
                        at: 10_000,
                        kind: FaultKind::MshrSqueeze {
                            amount: 5,
                            duration: 120_000,
                        },
                    },
                    FaultEvent {
                        at: 15_000,
                        kind: FaultKind::QueuePressure {
                            amount: 28,
                            duration: 90_000,
                        },
                    },
                ]),
            ),
        ]
    }
}

impl Arbitrary for FaultEvent {
    fn arbitrary(rng: &mut Rng) -> Self {
        let at = rng.gen_range(0u64..1 << 17);
        let kind = match rng.gen_range(0u32..6) {
            0 => FaultKind::ChannelStall {
                channel: rng.gen_range(0u8..8),
                duration: rng.gen_range(64u64..=16_384),
            },
            1 => FaultKind::ChannelOutage {
                channel: rng.gen_range(0u8..8),
                duration: rng.gen_range(64u64..=16_384),
            },
            2 => FaultKind::DelayFills {
                duration: rng.gen_range(256u64..=32_768),
                extra: rng.gen_range(16u64..=4_096),
            },
            3 => FaultKind::DropFills {
                duration: rng.gen_range(256u64..=32_768),
            },
            4 => FaultKind::MshrSqueeze {
                amount: rng.gen_range(1u8..=7),
                duration: rng.gen_range(256u64..=32_768),
            },
            _ => FaultKind::QueuePressure {
                amount: rng.gen_range(1u8..=31),
                duration: rng.gen_range(256u64..=32_768),
            },
        };
        Self { at, kind }
    }

    fn shrink_value(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.at > 0 {
            out.push(Self {
                at: self.at / 2,
                kind: self.kind,
            });
        }
        let halved = match self.kind {
            FaultKind::ChannelStall { channel, duration } if duration > 64 => {
                Some(FaultKind::ChannelStall {
                    channel,
                    duration: duration / 2,
                })
            }
            FaultKind::ChannelOutage { channel, duration } if duration > 64 => {
                Some(FaultKind::ChannelOutage {
                    channel,
                    duration: duration / 2,
                })
            }
            FaultKind::DelayFills { duration, extra } if duration > 256 || extra > 16 => {
                Some(FaultKind::DelayFills {
                    duration: (duration / 2).max(256),
                    extra: (extra / 2).max(16),
                })
            }
            FaultKind::DropFills { duration } if duration > 256 => Some(FaultKind::DropFills {
                duration: duration / 2,
            }),
            FaultKind::MshrSqueeze { amount, duration } if amount > 1 || duration > 256 => {
                Some(FaultKind::MshrSqueeze {
                    amount: (amount / 2).max(1),
                    duration: (duration / 2).max(256),
                })
            }
            FaultKind::QueuePressure { amount, duration } if amount > 1 || duration > 256 => {
                Some(FaultKind::QueuePressure {
                    amount: (amount / 2).max(1),
                    duration: (duration / 2).max(256),
                })
            }
            _ => None,
        };
        if let Some(kind) = halved {
            out.push(Self { at: self.at, kind });
        }
        out
    }
}

impl Arbitrary for FaultPlan {
    fn arbitrary(rng: &mut Rng) -> Self {
        let n = rng.gen_range(0usize..=4);
        Self::new((0..n).map(|_| FaultEvent::arbitrary(rng)).collect())
    }

    fn shrink_value(&self) -> Vec<Self> {
        if self.events.is_empty() {
            return Vec::new();
        }
        // Structure first — an empty plan is the single most diagnostic
        // simplification (it separates fault bugs from plan bugs) — then
        // fewer events, then smaller events.
        let mut out = vec![FaultPlan::none()];
        if self.events.len() > 1 {
            out.push(FaultPlan::new(
                self.events[..self.events.len() / 2].to_vec(),
            ));
            out.push(FaultPlan::new(self.events[1..].to_vec()));
            out.push(FaultPlan::new(
                self.events[..self.events.len() - 1].to_vec(),
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            for shrunk in ev.shrink_value() {
                let mut events = self.events.clone();
                events[i] = shrunk;
                out.push(FaultPlan::new(events));
            }
        }
        out
    }
}

/// A fault the runtime has just armed — what the observer layer sees via
/// [`Observer::fault_injected`](crate::Observer::fault_injected), and
/// what the memory system applies to its components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Hold a DRAM channel's bus busy until the given cycle.
    StallChannel {
        /// Channel index (already reduced by the DRAM model if needed).
        channel: usize,
        /// Cycle at which the bus frees again.
        until: u64,
        /// True for an outage (demands blocked too).
        demands_too: bool,
    },
    /// Set the L2 MSHR capacity squeeze to this many withheld registers
    /// (zero restores full capacity).
    SetMshrSqueeze(usize),
    /// Set the prefetch-queue capacity pressure to this many withheld
    /// entries (zero restores full capacity).
    SetQueuePressure(usize),
}

/// Raw timed action before window bookkeeping: squeeze windows expand
/// into a begin/end delta pair so overlapping windows compose.
#[derive(Debug, Clone, Copy)]
enum RawAction {
    Stall {
        channel: usize,
        until: u64,
        demands_too: bool,
    },
    MshrDelta(i64),
    QueueDelta(i64),
}

/// Runtime cursor over a [`FaultPlan`]: timed one-shot actions (channel
/// stalls, squeeze window edges) popped in timestamp order, plus pure
/// window queries for the per-prefetch fill faults. Cloneable so the
/// oracle side of a differential run can mirror the same plan.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Timed actions, sorted by cycle (stable, so plan order breaks ties).
    actions: Vec<(u64, RawAction)>,
    next: usize,
    mshr_squeeze: i64,
    queue_pressure: i64,
    /// `(from, to, extra)` delayed-fill windows.
    delay_windows: Vec<(u64, u64, u64)>,
    /// `(from, to)` dropped-fill windows.
    drop_windows: Vec<(u64, u64)>,
}

impl FaultState {
    /// Compiles `plan` into its runtime form.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut actions: Vec<(u64, RawAction)> = Vec::new();
        let mut delay_windows = Vec::new();
        let mut drop_windows = Vec::new();
        for ev in &plan.events {
            let end = |d: u64| ev.at.saturating_add(d);
            match ev.kind {
                FaultKind::ChannelStall { channel, duration } => actions.push((
                    ev.at,
                    RawAction::Stall {
                        channel: channel as usize,
                        until: end(duration),
                        demands_too: false,
                    },
                )),
                FaultKind::ChannelOutage { channel, duration } => actions.push((
                    ev.at,
                    RawAction::Stall {
                        channel: channel as usize,
                        until: end(duration),
                        demands_too: true,
                    },
                )),
                FaultKind::DelayFills { duration, extra } => {
                    delay_windows.push((ev.at, end(duration), extra));
                }
                FaultKind::DropFills { duration } => {
                    drop_windows.push((ev.at, end(duration)));
                }
                FaultKind::MshrSqueeze { amount, duration } => {
                    actions.push((ev.at, RawAction::MshrDelta(amount as i64)));
                    actions.push((end(duration), RawAction::MshrDelta(-(amount as i64))));
                }
                FaultKind::QueuePressure { amount, duration } => {
                    actions.push((ev.at, RawAction::QueueDelta(amount as i64)));
                    actions.push((end(duration), RawAction::QueueDelta(-(amount as i64))));
                }
            }
        }
        actions.sort_by_key(|(at, _)| *at);
        Self {
            actions,
            next: 0,
            mshr_squeeze: 0,
            queue_pressure: 0,
            delay_windows,
            drop_windows,
        }
    }

    /// Pops the next action due at or before `now`, folding squeeze
    /// window edges into the running totals so overlapping windows
    /// compose (the reported level is the sum of active amounts).
    pub fn next_action(&mut self, now: u64) -> Option<FaultAction> {
        let &(at, raw) = self.actions.get(self.next)?;
        if at > now {
            return None;
        }
        self.next += 1;
        Some(match raw {
            RawAction::Stall {
                channel,
                until,
                demands_too,
            } => FaultAction::StallChannel {
                channel,
                until,
                demands_too,
            },
            RawAction::MshrDelta(d) => {
                self.mshr_squeeze += d;
                FaultAction::SetMshrSqueeze(self.mshr_squeeze.max(0) as usize)
            }
            RawAction::QueueDelta(d) => {
                self.queue_pressure += d;
                FaultAction::SetQueuePressure(self.queue_pressure.max(0) as usize)
            }
        })
    }

    /// Extra latency a prefetch fill issued at `now` suffers: the
    /// largest `extra` among active delayed-fill windows, zero outside.
    pub fn fill_delay(&self, now: u64) -> u64 {
        self.delay_windows
            .iter()
            .filter(|(from, to, _)| *from <= now && now < *to)
            .map(|(_, _, extra)| *extra)
            .max()
            .unwrap_or(0)
    }

    /// True when a prefetch issued at `now` will lose its fill data.
    pub fn fill_dropped(&self, now: u64) -> bool {
        self.drop_windows
            .iter()
            .any(|(from, to)| *from <= now && now < *to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(0x5eed_fa01);
        let b = FaultPlan::generate(0x5eed_fa01);
        assert_eq!(a, b);
        // Different seeds give different plans (with overwhelming odds
        // over the tiny set of tried seeds).
        let plans: Vec<FaultPlan> = (0..16)
            .map(|i| FaultPlan::generate(0x5eed_fa00 + i))
            .collect();
        assert!(plans.iter().any(|p| !p.is_empty()));
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn empty_plan_state_is_inert() {
        let mut st = FaultState::new(&FaultPlan::none());
        assert!(st.next_action(u64::MAX).is_none());
        assert_eq!(st.fill_delay(123), 0);
        assert!(!st.fill_dropped(123));
    }

    #[test]
    fn squeeze_windows_compose_and_expire() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 10,
                kind: FaultKind::MshrSqueeze {
                    amount: 3,
                    duration: 90,
                },
            },
            FaultEvent {
                at: 50,
                kind: FaultKind::MshrSqueeze {
                    amount: 2,
                    duration: 10,
                },
            },
        ]);
        let mut st = FaultState::new(&plan);
        assert!(st.next_action(5).is_none());
        assert_eq!(st.next_action(10), Some(FaultAction::SetMshrSqueeze(3)));
        assert!(st.next_action(10).is_none());
        assert_eq!(st.next_action(55), Some(FaultAction::SetMshrSqueeze(5)));
        assert_eq!(st.next_action(60), Some(FaultAction::SetMshrSqueeze(3)));
        assert_eq!(st.next_action(1_000), Some(FaultAction::SetMshrSqueeze(0)));
        assert!(st.next_action(u64::MAX).is_none());
    }

    #[test]
    fn fill_windows_are_half_open() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 100,
                kind: FaultKind::DelayFills {
                    duration: 50,
                    extra: 7,
                },
            },
            FaultEvent {
                at: 120,
                kind: FaultKind::DropFills { duration: 10 },
            },
        ]);
        let st = FaultState::new(&plan);
        assert_eq!(st.fill_delay(99), 0);
        assert_eq!(st.fill_delay(100), 7);
        assert_eq!(st.fill_delay(149), 7);
        assert_eq!(st.fill_delay(150), 0);
        assert!(!st.fill_dropped(119));
        assert!(st.fill_dropped(120));
        assert!(st.fill_dropped(129));
        assert!(!st.fill_dropped(130));
    }

    #[test]
    fn stall_actions_carry_their_windows() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 40,
            kind: FaultKind::ChannelOutage {
                channel: 2,
                duration: 100,
            },
        }]);
        let mut st = FaultState::new(&plan);
        assert_eq!(
            st.next_action(40),
            Some(FaultAction::StallChannel {
                channel: 2,
                until: 140,
                demands_too: true,
            })
        );
    }

    #[test]
    fn shrinking_reaches_the_empty_plan() {
        let plan = FaultPlan::generate(0x5eed_fa11);
        if plan.is_empty() {
            return;
        }
        let shrinks = plan.shrink_value();
        assert_eq!(shrinks[0], FaultPlan::none(), "empty plan offered first");
        for s in &shrinks {
            assert!(
                s.events.len() < plan.events.len()
                    || s.events.iter().zip(plan.events.iter()).any(|(a, b)| a != b),
                "every shrink differs from the original"
            );
        }
    }

    #[test]
    fn builtin_plans_cover_every_fault_kind() {
        let plans = FaultPlan::builtin();
        assert!(plans.len() >= 6);
        let all: Vec<FaultKind> = plans
            .iter()
            .flat_map(|(_, p)| p.events.iter().map(|e| e.kind))
            .collect();
        assert!(all
            .iter()
            .any(|k| matches!(k, FaultKind::ChannelStall { .. })));
        assert!(all
            .iter()
            .any(|k| matches!(k, FaultKind::ChannelOutage { .. })));
        assert!(all
            .iter()
            .any(|k| matches!(k, FaultKind::DelayFills { .. })));
        assert!(all.iter().any(|k| matches!(k, FaultKind::DropFills { .. })));
        assert!(all
            .iter()
            .any(|k| matches!(k, FaultKind::MshrSqueeze { .. })));
        assert!(all
            .iter()
            .any(|k| matches!(k, FaultKind::QueuePressure { .. })));
    }
}
