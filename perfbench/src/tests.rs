//! The benchmark's own checks: the tracing wrapper changes no outcome,
//! counts where it should, and every run emits exactly the declared
//! metrics.

use byzreg_core::api::SignatureRegister;
use byzreg_core::{AuthenticatedRegister, StickyRegister, VerifiableRegister};
use byzreg_mp::MpFactory;
use byzreg_runtime::{LocalFactory, ProcessId, RegisterFactory};
use byzreg_store::workload::value_of;
use byzreg_store::{ByzStore, StoreConfig};

use crate::run::{self, Target};
use crate::trace::{self, Access, Kind, Role, TracingFactory, ALL, WRITES};
use crate::workload::{self, Backend, Family, Op, Spec};
use crate::{metrics, Args};

/// A small single-client workload over 8 keys.
fn tiny(family: Family, backend: Backend) -> Spec {
    Spec {
        name: "tiny",
        family,
        backend,
        keys: 8,
        skew: 0.0,
        mix: [30, 30, 40],
        batch: 4,
        clients: 1,
        rate: 60,
        setups: 2,
        reps: 1,
    }
}

/// Runs `ops` on a fresh store that starts empty (nothing prepopulated),
/// so outcomes depend on the order of writes, reads and checks.
fn outcomes<R: SignatureRegister<u64>, F: RegisterFactory>(factory: F, ops: &[Op]) -> Vec<String> {
    trace::enter_client();
    let system = run::system();
    let store: ByzStore<'_, u64, u64, R, F> =
        ByzStore::new(&system, factory, 0, StoreConfig::default());
    let p2 = ProcessId::new(2);
    let out = ops
        .iter()
        .map(|op| match op {
            Op::Write(key) => format!("{:?}", store.write(*key, value_of(*key))),
            Op::Read(key) => format!("{:?}", store.read(p2, key)),
            Op::Verify(checks) => format!("{:?}", Target::verify(&store, p2, checks)),
        })
        .collect();
    system.shutdown();
    out
}

/// Bare and wrapped factories give the same outcomes on one seeded
/// sequence, and the wrapper saw every register kind from both roles.
fn transparent<R: SignatureRegister<u64>, F: RegisterFactory>(make: impl Fn() -> F) {
    let spec = tiny(Family::Verifiable, Backend::Shm);
    let ops = workload::sequence(&spec, 11, 0, spec.rate);
    let bare = outcomes::<R, _>(make(), &ops);
    let inner = make();
    let tracing = TracingFactory::new(&inner);
    let traced = outcomes::<R, _>(&tracing, &ops);
    assert_eq!(bare, traced, "{}: the wrapper changed an outcome", R::FAMILY);
    assert!(bare.iter().any(|o| o.contains("true")), "{}: some check succeeds", R::FAMILY);
    assert!(bare.iter().any(|o| o.contains("false")), "{}: some check fails", R::FAMILY);

    let c = tracing.counters();
    let family = R::FAMILY;
    assert!(c.count(Role::Client, Kind::Asker, WRITES) > 0, "{family}: client C[k] writes");
    assert!(c.count(Role::Client, Kind::Reply, &[Access::Load]) > 0, "{family}: R[j,k] spins");
    assert!(c.count(Role::Client, Kind::State, ALL) > 0, "{family}: state accesses");
    assert!(c.count(Role::Helper, Kind::Asker, &[Access::Load]) > 0, "{family}: helper polls");
    assert!(c.count(Role::Helper, Kind::Reply, WRITES) > 0, "{family}: helper replies");
    assert!(c.created.load(std::sync::atomic::Ordering::Relaxed) > 0, "{family}: creates");
    assert!(c.load.count() > 0 && c.store.count() > 0, "{family}: access latencies");
}

fn mp() -> MpFactory {
    crate::mp_factory()
}

#[test]
fn wrapper_is_transparent_for_every_family_on_shm() {
    transparent::<VerifiableRegister<u64>, _>(|| LocalFactory);
    transparent::<AuthenticatedRegister<u64>, _>(|| LocalFactory);
    transparent::<StickyRegister<u64>, _>(|| LocalFactory);
}

#[test]
fn wrapper_is_transparent_for_verifiable_on_mp() {
    transparent::<VerifiableRegister<u64>, _>(mp);
}

/// A workload small enough for a test that still has ten samples beyond
/// every p99.
fn leaked(family: Family, backend: Backend) -> &'static Spec {
    let spec = Spec { keys: 16, mix: [10, 45, 45], batch: 1, rate: 2400, ..tiny(family, backend) };
    Box::leak(Box::new(spec))
}

fn names(v: &metrics::Values) -> Vec<&'static str> {
    let mut n = v.names();
    n.sort_unstable();
    n
}

fn declared(list: &[(&'static str, &str)]) -> Vec<&'static str> {
    let mut n: Vec<_> = list.iter().map(|(n, _)| *n).collect();
    n.sort_unstable();
    n
}

#[test]
fn runs_emit_exactly_the_declared_metrics() {
    for backend in [Backend::Shm, Backend::Mp] {
        let spec = leaked(Family::Verifiable, backend);
        for trace in [false, true] {
            let args = Args { spec, seed: 5, seconds: 1, trace };
            let seqs = vec![workload::sequence(spec, 5, 0, spec.rate)];
            let outcome = crate::dispatch::<VerifiableRegister<u64>>(&args, &seqs)
                .expect("the run completes");
            assert!(outcome.correct, "{backend:?} trace {trace}: every outcome checks");
            assert_eq!(outcome.failed, 0);
            let want = if trace { &metrics::PER_LAYER[..] } else { &metrics::END_TO_END[..] };
            assert_eq!(names(&outcome.values), declared(want), "{backend:?} trace {trace}");
            assert_eq!(outcome.spans.is_empty(), !trace, "spans only from traced runs");
        }
    }
}
