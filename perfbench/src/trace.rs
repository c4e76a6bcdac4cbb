//! Per-layer tracing from outside the library.
//!
//! [`TracingFactory`] wraps any [`RegisterFactory`] and hands the register
//! families ports whose [`CellBackend`] delegates to the inner factory's
//! ports, counting and timing every base-register access. Accesses are
//! split three ways:
//!
//! * by register kind, classified from the `create` name: `C[k]` is a
//!   reader's asker counter, `R[j,k]` a §5.1 reply register, anything else
//!   family state (`R*`, `R[i]`, `R1`, `E[i]`, ...);
//! * by access (load, store, owner read-modify-write);
//! * by thread role: a thread that called [`enter_client`] runs workload
//!   operations, every other thread (help engines) is a helper.
//!
//! The wrapper ports use a private pass-through gate that no thread
//! participates in, so each access is still exactly one step of the
//! system's own gate (taken by the inner port).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use byzreg_runtime::{
    custom_swmr, CellBackend, Env, FreeGate, ProcessId, ReadPort, RegisterFactory, StepGate, Value,
    WritePort,
};

/// Register kind, classified from the name the family gives `create`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `C[k]`: reader `k`'s §5.1 round counter.
    Asker = 0,
    /// `R[j,k]`: helper `j`'s reply to reader `k`.
    Reply = 1,
    /// Any other register (the family's own state).
    State = 2,
}

impl Kind {
    pub fn of(name: &str) -> Kind {
        if name.starts_with("C[") {
            Kind::Asker
        } else if name.starts_with("R[") && name.contains(',') {
            Kind::Reply
        } else {
            Kind::State
        }
    }
}

/// A base-register access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Load = 0,
    Store = 1,
    Rmw = 2,
}

/// Thread role an access ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Client = 0,
    Helper = 1,
}

thread_local! {
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    /// Base accesses and their nanoseconds on this client thread so far.
    static CLIENT_BASE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Marks the calling thread as a workload client for the rest of its life.
pub fn enter_client() {
    IS_CLIENT.with(|c| c.set(true));
}

/// `(accesses, ns)` of base-register work this client thread has done so
/// far; an operation's share is the difference around it.
pub fn client_base() -> (u64, u64) {
    CLIENT_BASE.with(Cell::get)
}

fn role() -> Role {
    if IS_CLIENT.with(Cell::get) {
        Role::Client
    } else {
        Role::Helper
    }
}

const KINDS: usize = 3;
const ACCESSES: usize = 3;
const ROLES: usize = 2;
const SLOTS: usize = KINDS * ACCESSES * ROLES;

/// Log-linear latency histogram: 8 sub-buckets per power of two of
/// nanoseconds, so a bucket spans at most 12.5% of its floor.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

const SUB: u32 = 8;

impl Histogram {
    fn new() -> Self {
        Histogram { buckets: (0..64 * SUB as usize).map(|_| AtomicU64::new(0)).collect() }
    }

    fn bucket(ns: u64) -> usize {
        if ns < u64::from(SUB) {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - 3)) & u64::from(SUB - 1);
        (exp * SUB + sub as u32) as usize
    }

    /// Lower edge of bucket `b` in nanoseconds.
    fn floor(b: usize) -> u64 {
        let (exp, sub) = (b as u32 / SUB, b as u64 % u64::from(SUB));
        if exp < 3 {
            return b as u64;
        }
        (u64::from(SUB) + sub) << (exp - 3)
    }

    fn record(&self, ns: u64) {
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.buckets.iter().for_each(|b| b.store(0, Ordering::Relaxed));
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank quantile `q` (in percent) in nanoseconds, interpolated
    /// linearly within its bucket; 0 if empty.
    pub fn quantile_ns(&self, q: u64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (n * q).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, count) in self.buckets.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            if seen + count >= rank {
                let (lo, hi) = (Self::floor(b) as f64, Self::floor(b + 1) as f64);
                return lo + (hi - lo) * (rank - seen) as f64 / count as f64;
            }
            seen += count;
        }
        unreachable!("rank {rank} exceeds the {n} recorded samples")
    }
}

/// Access counters of one traced run, shared by every wrapped port.
pub struct Counters {
    count: [AtomicU64; SLOTS],
    ns: [AtomicU64; SLOTS],
    /// Per-access latency of loads, and of stores and owner updates.
    pub load: Histogram,
    pub store: Histogram,
    /// Registers created and the nanoseconds `create` took.
    pub created: AtomicU64,
    pub create_ns: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            count: std::array::from_fn(|_| AtomicU64::new(0)),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            load: Histogram::new(),
            store: Histogram::new(),
            created: AtomicU64::new(0),
            create_ns: AtomicU64::new(0),
        }
    }

    /// Forgets every access so far (set-up's), keeping `created` and
    /// `create_ns`.
    pub fn reset(&self) {
        self.count.iter().chain(&self.ns).for_each(|c| c.store(0, Ordering::Relaxed));
        self.load.reset();
        self.store.reset();
    }

    fn slot(role: Role, kind: Kind, access: Access) -> usize {
        (role as usize * KINDS + kind as usize) * ACCESSES + access as usize
    }

    /// Accesses of `kind` by `role` threads, for the given access types.
    pub fn count(&self, role: Role, kind: Kind, accesses: &[Access]) -> u64 {
        accesses
            .iter()
            .map(|&a| self.count[Self::slot(role, kind, a)].load(Ordering::Relaxed))
            .sum()
    }

    /// Nanoseconds `role` threads spent in accesses of `kind`.
    pub fn ns(&self, role: Role, kind: Option<Kind>, accesses: &[Access]) -> u64 {
        let kinds: &[Kind] = match kind {
            Some(ref k) => std::slice::from_ref(k),
            None => &[Kind::Asker, Kind::Reply, Kind::State],
        };
        kinds
            .iter()
            .flat_map(|&k| accesses.iter().map(move |&a| Self::slot(role, k, a)))
            .map(|s| self.ns[s].load(Ordering::Relaxed))
            .sum()
    }

    fn record(&self, kind: Kind, access: Access, ns: u64) {
        let role = role();
        let slot = Self::slot(role, kind, access);
        self.count[slot].fetch_add(1, Ordering::Relaxed);
        self.ns[slot].fetch_add(ns, Ordering::Relaxed);
        if role == Role::Client {
            CLIENT_BASE.with(|c| {
                let (n, t) = c.get();
                c.set((n + 1, t + ns));
            });
        }
    }
}

pub const ALL: &[Access] = &[Access::Load, Access::Store, Access::Rmw];
pub const WRITES: &[Access] = &[Access::Store, Access::Rmw];

/// A [`RegisterFactory`] that wraps every register `inner` creates in a
/// counting, timing [`CellBackend`].
pub struct TracingFactory<F> {
    inner: F,
    counters: Arc<Counters>,
    passthrough: Arc<dyn StepGate>,
}

impl<F: RegisterFactory> TracingFactory<F> {
    pub fn new(inner: F) -> Self {
        TracingFactory {
            inner,
            counters: Arc::new(Counters::new()),
            passthrough: Arc::new(FreeGate::new()),
        }
    }

    /// The counters every wrapped port records into; they outlive the
    /// factory.
    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }
}

struct TracedCell<T> {
    write: WritePort<T>,
    read: ReadPort<T>,
    kind: Kind,
    counters: Arc<Counters>,
}

impl<T: Clone + Send + Sync + 'static> TracedCell<T> {
    fn timed<R>(&self, access: Access, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.counters.record(self.kind, access, ns);
        match access {
            Access::Load => self.counters.load.record(ns),
            Access::Store | Access::Rmw => self.counters.store.record(ns),
        }
        out
    }
}

impl<T: Clone + Send + Sync + 'static> CellBackend<T> for TracedCell<T> {
    fn load(&self) -> T {
        self.timed(Access::Load, || self.read.read())
    }

    fn store(&self, v: T) {
        self.timed(Access::Store, || self.write.write(v));
    }

    fn rmw(&self, f: Box<dyn FnOnce(&mut T) + '_>) -> T {
        self.timed(Access::Rmw, || {
            self.write.update(|v| {
                f(v);
                v.clone()
            })
        })
    }
}

impl<F: RegisterFactory> RegisterFactory for TracingFactory<F> {
    fn create<T: Value>(
        &self,
        env: &Env,
        owner: ProcessId,
        name: String,
        init: T,
    ) -> (WritePort<T>, ReadPort<T>) {
        let kind = Kind::of(&name);
        let t0 = Instant::now();
        let (write, read) = self.inner.create(env, owner, name.clone(), init);
        self.counters.create_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.created.fetch_add(1, Ordering::Relaxed);
        let cell = TracedCell { write, read, kind, counters: Arc::clone(&self.counters) };
        custom_swmr(Arc::clone(&self.passthrough), owner, name, Box::new(cell))
    }

    fn open_group(&self, label: u64) {
        self.inner.open_group(label);
    }

    fn close_group(&self) {
        self.inner.close_group();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_classify_into_kinds() {
        assert_eq!(Kind::of("C[3]"), Kind::Asker);
        assert_eq!(Kind::of("R[1,2]"), Kind::Reply);
        assert_eq!(Kind::of("R[2]"), Kind::State);
        assert_eq!(Kind::of("R*"), Kind::State);
        assert_eq!(Kind::of("R1"), Kind::State);
        assert_eq!(Kind::of("E[4]"), Kind::State);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(50);
        let p99 = h.quantile_ns(99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.05, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.05, "p99 {p99}");
        for ns in [0, 1, 7, 8, 9, 15, 16, 1 << 20, u64::MAX / 2] {
            let b = Histogram::bucket(ns);
            assert!(Histogram::floor(b) <= ns, "{ns} below its bucket floor");
            assert!(Histogram::floor(b + 1) > ns, "{ns} above its bucket");
        }
    }
}
