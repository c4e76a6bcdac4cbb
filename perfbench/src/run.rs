//! Passes: build a system, prepopulate every key, replay the clients'
//! operation sequences closed-loop, check every outcome.

use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use byzreg_core::api::{SignatureRegister, SignatureSigner, SignatureVerifier};
use byzreg_runtime::{ProcessId, RegisterFactory, Result, System};
use byzreg_store::workload::value_of;
use byzreg_store::{ByzStore, StoreConfig};

use crate::workload::{expected_read, expected_verify, Op, OpKind, Spec};
use crate::{stats, trace};

/// What a workload client calls: the store, or handles installed directly.
pub trait Target: Sync {
    fn write(&self, key: u64) -> Result<()>;
    fn read(&self, pid: ProcessId, key: u64) -> Result<Option<u64>>;
    /// One check goes through the per-key path, more through the batch one.
    fn verify(&self, pid: ProcessId, checks: &[(u64, u64)]) -> Result<Vec<bool>>;
}

impl<R: SignatureRegister<u64>, F: RegisterFactory> Target for ByzStore<'_, u64, u64, R, F> {
    fn write(&self, key: u64) -> Result<()> {
        ByzStore::write(self, key, value_of(key))
    }

    fn read(&self, pid: ProcessId, key: u64) -> Result<Option<u64>> {
        ByzStore::read(self, pid, &key)
    }

    fn verify(&self, pid: ProcessId, checks: &[(u64, u64)]) -> Result<Vec<bool>> {
        match checks {
            [(key, v)] => Ok(vec![ByzStore::verify(self, pid, key, v)?]),
            _ => self.verify_many(pid, checks),
        }
    }
}

/// Registers installed with `install_in_shard` and driven through their
/// signer/verifier handles, with no store in between.
pub struct Direct<R: SignatureRegister<u64>> {
    keys: Vec<DirectKey<R>>,
}

struct DirectKey<R: SignatureRegister<u64>> {
    _register: R,
    signer: Mutex<R::Signer>,
    /// Indexed by reader pid − 2.
    verifiers: Vec<Mutex<R::Verifier>>,
}

impl<R: SignatureRegister<u64>> Direct<R> {
    /// Installs `keys` registers, key `k` on help shard `k mod shards`, and
    /// takes verifier handles for `readers`.
    pub fn install<F: RegisterFactory>(
        system: &System,
        factory: &F,
        keys: u64,
        readers: &[ProcessId],
    ) -> Self {
        let shards: Vec<_> =
            (0..StoreConfig::default().shards).map(|_| system.new_help_shard()).collect();
        let keys = (0..keys)
            .map(|key| {
                let shard = &shards[key as usize % shards.len()];
                factory.open_group(shard.id() as u64);
                let register = R::install_in_shard(system, 0, factory, shard);
                factory.close_group();
                DirectKey {
                    signer: Mutex::new(register.signer()),
                    verifiers: readers.iter().map(|&p| Mutex::new(register.verifier(p))).collect(),
                    _register: register,
                }
            })
            .collect();
        Direct { keys }
    }

    fn verifier(&self, pid: ProcessId, key: u64) -> std::sync::MutexGuard<'_, R::Verifier> {
        self.keys[key as usize].verifiers[pid.index() - 2].lock().expect("no client panicked")
    }
}

impl<R: SignatureRegister<u64>> Target for Direct<R> {
    fn write(&self, key: u64) -> Result<()> {
        let mut signer = self.keys[key as usize].signer.lock().expect("no client panicked");
        let v = value_of(key);
        signer.write_value(v)?;
        signer.sign_value(&v)?;
        Ok(())
    }

    fn read(&self, pid: ProcessId, key: u64) -> Result<Option<u64>> {
        self.verifier(pid, key).read_value()
    }

    /// The per-key loop a store batch replaces: each key's distinct values
    /// go through that key's own `verify_many`, one key after another.
    fn verify(&self, pid: ProcessId, checks: &[(u64, u64)]) -> Result<Vec<bool>> {
        if let [(key, v)] = checks {
            return Ok(vec![self.verifier(pid, *key).verify_value(v)?]);
        }
        let mut by_key: Vec<(u64, Vec<u64>)> = Vec::new();
        for &(key, v) in checks {
            match by_key.iter_mut().find(|(k, _)| *k == key) {
                Some((_, vs)) if vs.contains(&v) => {}
                Some((_, vs)) => vs.push(v),
                None => by_key.push((key, vec![v])),
            }
        }
        let mut answers = HashMap::new();
        for (key, vs) in by_key {
            let got = self.verifier(pid, key).verify_many(&vs)?;
            answers.extend(vs.into_iter().zip(got).map(|(v, ok)| ((key, v), ok)));
        }
        Ok(checks.iter().map(|c| answers[c]).collect())
    }
}

/// One client operation as seen from outside the library.
#[derive(Clone, Debug)]
pub struct Span {
    pub client: usize,
    pub op: OpKind,
    pub items: usize,
    /// Since the clients were started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Base-register accesses this client thread made inside the op, and
    /// their nanoseconds (traced passes only).
    pub base_accesses: u64,
    pub base_ns: u64,
}

/// Everything one client thread saw.
#[derive(Default)]
pub struct ClientLog {
    /// Latency samples per op kind, one per item: a check in a batch
    /// records its whole batch's latency.
    pub samples: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub spans: Vec<Span>,
}

/// The merged outcome of one timed window.
#[derive(Default)]
pub struct Window {
    pub samples: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub spans: Vec<Span>,
    pub window_ns: u64,
    /// Share of the window's CPU time the hypervisor stole.
    pub steal_share: f64,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / (self.window_ns as f64 / 1e9)
    }
}

/// What a call returned, checked only after its latency was taken.
enum Got {
    Written,
    Read(Option<u64>),
    Checked(Vec<bool>),
}

/// How `got` differs from what `op` must return, if it does.
fn mismatch(op: &Op, got: Got) -> Option<String> {
    match (op, got) {
        (Op::Read(key), Got::Read(got)) => {
            let want = Some(expected_read(*key));
            (got != want).then(|| format!("read key {key}: {got:?} != {want:?}"))
        }
        (Op::Verify(checks), Got::Checked(got)) if got.len() != checks.len() => {
            Some(format!("verify of {} checks returned {} answers", checks.len(), got.len()))
        }
        (Op::Verify(checks), Got::Checked(got)) => checks
            .iter()
            .zip(got)
            .find(|((k, v), ok)| expected_verify(*k, *v) != *ok)
            .map(|((k, v), ok)| format!("verify key {k} value {v}: got {ok}")),
        _ => None,
    }
}

fn drive(
    target: &dyn Target,
    client: usize,
    pid: ProcessId,
    ops: &[Op],
    epoch: &Instant,
    traced: bool,
) -> ClientLog {
    trace::enter_client();
    let mut log = ClientLog::default();
    for op in ops {
        let items = op.items();
        let base0 = trace::client_base();
        let t0 = Instant::now();
        let got = match op {
            Op::Write(key) => target.write(*key).map(|()| Got::Written),
            Op::Read(key) => target.read(pid, *key).map(Got::Read),
            Op::Verify(checks) => target.verify(pid, checks).map(Got::Checked),
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        log.attempted += items as u64;
        match got {
            Ok(got) => log.wrong.extend(mismatch(op, got)),
            Err(_) => log.failed += items as u64,
        }
        log.samples[op.kind() as usize].extend(std::iter::repeat_n(ns.max(1), items));
        if traced {
            let base1 = trace::client_base();
            log.spans.push(Span {
                client,
                op: op.kind(),
                items,
                start_ns: (t0 - *epoch).as_nanos() as u64,
                end_ns: (t1 - *epoch).as_nanos() as u64,
                base_accesses: base1.0 - base0.0,
                base_ns: base1.1 - base0.1,
            });
        }
    }
    log
}

/// Runs every client's sequence on its own thread against `target` and
/// merges what they saw. Client `c` reads and checks as reader
/// `readers[c]`; the window runs from the common start to the last finish.
pub fn window(
    target: &dyn Target,
    readers: &[ProcessId],
    seqs: &[Vec<Op>],
    traced: bool,
) -> Window {
    let start = Barrier::new(seqs.len() + 1);
    let ticks = stats::cpu_ticks();
    let epoch = Instant::now();
    let (logs, window_ns) = std::thread::scope(|scope| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (start, epoch, pid) = (&start, &epoch, readers[c]);
                scope.spawn(move || {
                    start.wait();
                    drive(target, c, pid, ops, epoch, traced)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, t0.elapsed().as_nanos() as u64)
    });
    let steal_share = stats::steal_share(ticks, stats::cpu_ticks());
    let mut w = Window { window_ns, steal_share, ..Window::default() };
    for log in logs {
        for (all, mine) in w.samples.iter_mut().zip(log.samples) {
            all.extend(mine);
        }
        w.attempted += log.attempted;
        w.failed += log.failed;
        w.wrong.extend(log.wrong);
        w.spans.extend(log.spans);
    }
    for s in &mut w.samples {
        s.sort_unstable();
    }
    w
}

/// The system every workload runs in: n = 4 with p4 declared Byzantine, so
/// p4 runs no helping and every quorum forms with f = 1 process missing.
pub fn system() -> System {
    System::builder(4).byzantine(ProcessId::new(4)).build()
}

/// Reader pids of the clients: client `c` reads as `p(c + 2)`.
pub fn readers(spec: &Spec) -> Vec<ProcessId> {
    (0..spec.clients).map(|c| ProcessId::new(c + 2)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_store::workload::bogus_value_of;

    #[test]
    fn mismatch_flags_every_wrong_outcome() {
        let (key, good, bogus) = (3, value_of(3), bogus_value_of(3));
        assert_eq!(mismatch(&Op::Read(key), Got::Read(Some(good))), None);
        assert!(mismatch(&Op::Read(key), Got::Read(Some(bogus))).is_some());
        assert!(mismatch(&Op::Read(key), Got::Read(None)).is_some(), "sticky ⊥ after a write");
        let checks = Op::Verify(vec![(key, good), (key, bogus)]);
        assert_eq!(mismatch(&checks, Got::Checked(vec![true, false])), None);
        assert!(mismatch(&checks, Got::Checked(vec![true, true])).is_some(), "forged value");
        assert!(mismatch(&checks, Got::Checked(vec![false, false])).is_some(), "denied value");
        assert!(mismatch(&checks, Got::Checked(vec![true])).is_some(), "missing answer");
        assert_eq!(mismatch(&Op::Write(key), Got::Written), None);
    }
}
