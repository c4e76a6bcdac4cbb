//! The three workloads and their seeded operation sequences.

use byzreg_store::workload::{bogus_value_of, sample_key, value_of};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Verifiable,
    Authenticated,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `LocalFactory`: in-process shared-memory cells.
    Shm,
    /// `MpFactory` over `NetConfig::instant()`, reactor workers = nproc.
    Mp,
}

/// One workload: what runs, over what, and how many operations.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub backend: Backend,
    pub keys: u64,
    /// Zipf-like key skew of `byzreg_store::workload::sample_key`.
    pub skew: f64,
    /// Write / read / verify shares, in percent.
    pub mix: [u64; 3],
    /// Checks per `verify_many` call; 1 sends each check through `verify`.
    pub batch: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Operation items per second of `--seconds`: the sequence length is
    /// `rate × seconds ÷ reps`, sized so an untraced run's windows take
    /// about `--seconds` on a 2-vCPU Xeon host. The sequence, not a
    /// wall-clock window, fixes the state a run reaches.
    pub rate: u64,
    /// Set-ups per untraced run; their median is `setup_s`.
    pub setups: usize,
    /// Timed windows per untraced run, each replaying the sequence on its
    /// own set-up, after one warm-up window.
    pub reps: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "shm-verify-batch",
        family: Family::Verifiable,
        backend: Backend::Shm,
        keys: 1024,
        skew: 0.8,
        mix: [20, 20, 60],
        batch: 16,
        clients: 1,
        rate: 2100,
        setups: 40,
        reps: 6,
    },
    Spec {
        name: "shm-auth-hot",
        family: Family::Authenticated,
        backend: Backend::Shm,
        keys: 256,
        skew: 0.95,
        mix: [40, 30, 30],
        batch: 1,
        clients: 1,
        rate: 9000,
        setups: 40,
        reps: 25,
    },
    Spec {
        name: "mp-scale",
        family: Family::Verifiable,
        backend: Backend::Mp,
        keys: 4096,
        skew: 0.0,
        mix: [30, 35, 35],
        batch: 1,
        clients: 2,
        rate: 1800,
        setups: 10,
        reps: 7,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One client call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Write (and sign) `value_of(key)`.
    Write(u64),
    /// Read `key`.
    Read(u64),
    /// Check `(key, value)` pairs: half genuine `value_of(key)`, half the
    /// never-written `bogus_value_of(key)`.
    Verify(Vec<(u64, u64)>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Write = 0,
    Read = 1,
    Verify = 2,
}

pub const OP_KINDS: [OpKind; 3] = [OpKind::Write, OpKind::Read, OpKind::Verify];

impl OpKind {
    pub fn label(self) -> &'static str {
        ["write", "read", "verify"][self as usize]
    }
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Write(_) => OpKind::Write,
            Op::Read(_) => OpKind::Read,
            Op::Verify(_) => OpKind::Verify,
        }
    }

    /// Operation items this call counts for: one per check in a batch.
    pub fn items(&self) -> usize {
        match self {
            Op::Verify(checks) => checks.len(),
            _ => 1,
        }
    }
}

/// The value every write of `key` stores, so reads must return it.
pub fn expected_read(key: u64) -> u64 {
    value_of(key)
}

/// Whether a check must succeed: only the written value verifies.
pub fn expected_verify(key: u64, v: u64) -> bool {
    v == value_of(key)
}

/// Client `client`'s operation sequence of `items` items for `seed`.
///
/// The write/read/verify counts are exactly `spec.mix` of `items`
/// (rounded down, remainder to verify), in seeded random order, so every
/// seed yields the same number of samples of each kind. Writes go to the
/// client's own key partition (`key ≡ client mod clients`), so clients
/// never write one key concurrently; reads and checks range over every
/// key. Checks are grouped into calls of `spec.batch` in draw order; a
/// trailing partial batch is sent as drawn.
pub fn sequence(spec: &Spec, seed: u64, client: usize, items: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5045_5246_0000 + client as u64));
    let [writes, reads] = [0, 1].map(|i| items * spec.mix[i] / 100);
    let mut kinds: Vec<OpKind> = (0..items)
        .map(|i| match i {
            i if i < writes => OpKind::Write,
            i if i < writes + reads => OpKind::Read,
            _ => OpKind::Verify,
        })
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.random_range(0..i + 1));
    }
    let clients = spec.clients as u64;
    let mut ops = Vec::new();
    let mut pending = Vec::with_capacity(spec.batch);
    for kind in kinds {
        let key = sample_key(&mut rng, spec.keys, spec.skew);
        match kind {
            OpKind::Write => {
                let own = key - key % clients + client as u64;
                ops.push(Op::Write(if own < spec.keys { own } else { client as u64 }));
            }
            OpKind::Read => ops.push(Op::Read(key)),
            OpKind::Verify => {
                let v = if rng.random_bool(0.5) { value_of(key) } else { bogus_value_of(key) };
                pending.push((key, v));
                if pending.len() == spec.batch {
                    ops.push(Op::Verify(std::mem::take(&mut pending)));
                }
            }
        }
    }
    if !pending.is_empty() {
        ops.push(Op::Verify(pending));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_seeded_and_sized() {
        let spec = find("shm-verify-batch").unwrap();
        let a = sequence(spec, 3, 0, 500);
        assert_eq!(a, sequence(spec, 3, 0, 500), "same seed, same sequence");
        assert_ne!(a, sequence(spec, 4, 0, 500), "another seed, another sequence");
        assert_eq!(a.iter().map(Op::items).sum::<usize>(), 500);
        let count =
            |k: OpKind| -> usize { a.iter().filter(|op| op.kind() == k).map(Op::items).sum() };
        assert_eq!(
            [count(OpKind::Write), count(OpKind::Read), count(OpKind::Verify)],
            [100, 100, 300]
        );
        assert!(a.iter().any(|op| matches!(op, Op::Verify(c) if c.len() == 16)));
    }

    #[test]
    fn every_repetition_supports_its_tail_percentiles() {
        let json = include_str!("../../BENCHMARK.json");
        let seconds: u64 = json
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("run_seconds in BENCHMARK.json");
        for spec in &WORKLOADS {
            assert!(spec.setups > spec.reps, "{}: a warm-up set-up precedes the reps", spec.name);
            let items = spec.rate * seconds / (spec.reps * spec.clients) as u64;
            let seqs: Vec<Vec<Op>> =
                (0..spec.clients).map(|c| sequence(spec, 1, c, items)).collect();
            for kind in [OpKind::Read, OpKind::Verify] {
                let n: usize =
                    seqs.iter().flatten().filter(|op| op.kind() == kind).map(Op::items).sum();
                assert!(
                    crate::stats::beyond(n, 99) >= crate::stats::MIN_BEYOND,
                    "{}: {n} {} samples per repetition leave too few beyond p99",
                    spec.name,
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn writes_stay_in_the_clients_partition() {
        let spec = find("mp-scale").unwrap();
        for client in 0..spec.clients {
            for op in sequence(spec, 9, client, 2000) {
                if let Op::Write(key) = op {
                    assert_eq!(key % spec.clients as u64, client as u64);
                    assert!(key < spec.keys);
                }
            }
        }
    }

    #[test]
    fn checks_are_half_genuine() {
        let spec = find("shm-auth-hot").unwrap();
        let checks: Vec<(u64, u64)> = sequence(spec, 5, 0, 4000)
            .into_iter()
            .filter_map(|op| match op {
                Op::Verify(c) => Some(c),
                _ => None,
            })
            .flatten()
            .collect();
        let genuine = checks.iter().filter(|(k, v)| expected_verify(*k, *v)).count();
        let share = genuine as f64 / checks.len() as f64;
        assert!((0.4..0.6).contains(&share), "genuine share {share}");
    }
}
