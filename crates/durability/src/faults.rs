//! Deterministic disk-fault injection for the durability layer.
//!
//! The chaos suite already injects transport faults
//! (`bda_net::serve_with_faults`) and provider faults
//! (`bda_federation::fault`); this module adds the *disk* failure modes
//! recovery must survive, keyed off a seed like the other two so a
//! failing run replays bit-for-bit:
//!
//! * **Torn tail** — a crash mid-append leaves the final WAL record half
//!   written. Injected by writing only the first half of one record's
//!   bytes and then poisoning the writer (the simulated process is dead).
//! * **ENOSPC-style append failure** — appends past a budget fail
//!   cleanly; the mutation is refused *before* it is acknowledged.
//! * **Truncated snapshot** — the snapshot file loses its tail after
//!   being renamed into place, as a misbehaving disk would; recovery
//!   must refuse it loudly instead of serving partial data.

use bda_obs::splitmix64;

/// Which disk faults to inject, and when. `Default` injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaults {
    /// The 1-based WAL append that is torn: half its bytes reach disk,
    /// the append reports failure, and every later append fails too
    /// (the "process" died mid-write). Recovery must truncate the torn
    /// record and keep everything before it.
    pub torn_append_at: Option<u64>,
    /// Appends after this many successes fail with an ENOSPC-style
    /// error. The failed mutation is never acknowledged.
    pub append_fail_after: Option<u64>,
    /// Truncate every written snapshot file to half its length after it
    /// is renamed into place. Recovery must detect the damage and fail
    /// loudly rather than replay partial state.
    pub truncate_snapshot: bool,
}

impl DiskFaults {
    /// Derive a fault plan from a chaos seed: a torn append at a small
    /// seed-dependent position. Combine with the other fields as the
    /// test requires.
    pub fn torn_tail_from_seed(seed: u64) -> DiskFaults {
        DiskFaults {
            // 2..=9: always after at least one durable record, so
            // recovery has something to keep.
            torn_append_at: Some(2 + splitmix64(seed) % 8),
            ..DiskFaults::default()
        }
    }

    /// Derive an append-budget fault plan from a chaos seed.
    pub fn enospc_from_seed(seed: u64) -> DiskFaults {
        DiskFaults {
            append_fail_after: Some(1 + splitmix64(seed ^ 0xD15C) % 8),
            ..DiskFaults::default()
        }
    }

    /// One full fault plan per chaos seed, rotating across the three
    /// disk failure modes so the CI seed matrix covers all of them.
    pub fn plan_from_seed(seed: u64) -> DiskFaults {
        match splitmix64(seed ^ 0xD15C_FA17) % 3 {
            0 => DiskFaults::torn_tail_from_seed(seed),
            1 => DiskFaults::enospc_from_seed(seed),
            _ => DiskFaults {
                truncate_snapshot: true,
                ..DiskFaults::default()
            },
        }
    }
}

/// Mutable injection state carried by the WAL writer.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    pub(crate) faults: DiskFaults,
    /// Appends attempted so far (1-based at decision time).
    pub(crate) appends: u64,
    /// Set once a torn append fired: the writer is dead.
    pub(crate) poisoned: bool,
}

/// What the injector decided for one append.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AppendFate {
    /// Write the record normally.
    Write,
    /// Write only the first half of the record's bytes, then poison.
    Tear,
    /// Refuse the append with an ENOSPC-style error.
    Refuse,
}

impl FaultState {
    pub(crate) fn new(faults: DiskFaults) -> FaultState {
        FaultState {
            faults,
            ..FaultState::default()
        }
    }

    pub(crate) fn decide(&mut self) -> AppendFate {
        if self.poisoned {
            return AppendFate::Refuse;
        }
        self.appends += 1;
        if self.faults.torn_append_at == Some(self.appends) {
            self.poisoned = true;
            return AppendFate::Tear;
        }
        if let Some(budget) = self.faults.append_fail_after {
            if self.appends > budget {
                return AppendFate::Refuse;
            }
        }
        AppendFate::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_write() {
        let mut s = FaultState::new(DiskFaults::default());
        for _ in 0..64 {
            assert_eq!(s.decide(), AppendFate::Write);
        }
    }

    #[test]
    fn torn_append_fires_once_then_poisons() {
        let mut s = FaultState::new(DiskFaults {
            torn_append_at: Some(3),
            ..DiskFaults::default()
        });
        assert_eq!(s.decide(), AppendFate::Write);
        assert_eq!(s.decide(), AppendFate::Write);
        assert_eq!(s.decide(), AppendFate::Tear);
        assert_eq!(s.decide(), AppendFate::Refuse);
        assert_eq!(s.decide(), AppendFate::Refuse);
    }

    #[test]
    fn append_budget_refuses_after_n() {
        let mut s = FaultState::new(DiskFaults {
            append_fail_after: Some(2),
            ..DiskFaults::default()
        });
        assert_eq!(s.decide(), AppendFate::Write);
        assert_eq!(s.decide(), AppendFate::Write);
        assert_eq!(s.decide(), AppendFate::Refuse);
        assert_eq!(s.decide(), AppendFate::Refuse);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        for seed in 0..32 {
            let a = DiskFaults::torn_tail_from_seed(seed);
            assert_eq!(a, DiskFaults::torn_tail_from_seed(seed));
            let at = a.torn_append_at.unwrap();
            assert!((2..=9).contains(&at), "torn at {at}");
            let b = DiskFaults::enospc_from_seed(seed);
            let after = b.append_fail_after.unwrap();
            assert!((1..=8).contains(&after), "budget {after}");
        }
    }

    #[test]
    fn seed_rotation_covers_every_failure_mode() {
        let mut torn = 0;
        let mut enospc = 0;
        let mut snap = 0;
        for seed in 0..64 {
            let p = DiskFaults::plan_from_seed(seed);
            assert_eq!(p, DiskFaults::plan_from_seed(seed), "deterministic");
            if p.torn_append_at.is_some() {
                torn += 1;
            } else if p.append_fail_after.is_some() {
                enospc += 1;
            } else {
                assert!(p.truncate_snapshot);
                snap += 1;
            }
        }
        assert!(torn > 0 && enospc > 0 && snap > 0, "{torn}/{enospc}/{snap}");
    }
}
