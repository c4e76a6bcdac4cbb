//! The repository benchmark: three seeded store workloads over register
//! families × backends, driven through the public `ByzStore` API.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload runs n = 4 processes with p4 declared Byzantine,
//! `StoreConfig::default()`, all keys prepopulated with `value_of(key)`
//! before the timed window, and closed-loop clients replaying a sequence
//! of `rate × seconds ÷ reps` operation items drawn from `--seed`. Every
//! read and every check is compared with the value it must return; a mismatch fails
//! the run, naming workload, key and seed.
//!
//! `--trace 0` reports the end-to-end metrics: it sets up `Spec::setups`
//! times and reports the median set-up time. `Spec::reps + 1` of those
//! set-ups, spread evenly over the run, each replay the sequence, the first
//! of them as an unreported warm-up (it pays first-touch costs such as
//! fresh heap pages).
//! Each timing metric is the median of its value over the repetitions.
//! `--trace 1` replays the same sequence three times: untraced through the
//! store, traced through the store (a counting `RegisterFactory` wrapper),
//! and untraced on directly installed handles. It reports the per-layer
//! metrics, prints the traced pass's own end-to-end metrics and the
//! tracing overhead, and writes per-op spans to
//! `.bench_out/<workload>-seed<seed>-spans.jsonl`.
//!
//! Lines before the last start with `#` and are for people; the last line
//! is the JSON result. `perfbench/METRICS.md` defines every metric.

mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::collections::BTreeSet;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use byzreg_core::api::SignatureRegister;
use byzreg_core::{AuthenticatedRegister, VerifiableRegister};
use byzreg_mp::{MpFactory, NetConfig};
use byzreg_runtime::{LocalFactory, RegisterFactory};
use byzreg_store::workload::value_of;
use byzreg_store::{ByzStore, StoreConfig};

use metrics::{Values, END_TO_END, PER_LAYER, TAILS};
use run::{Direct, Window};
use trace::{Access, Counters, Kind, Role, TracingFactory, ALL, WRITES};
use workload::{Backend, Family, Op, OpKind, Spec, OP_KINDS};

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    let spec = spec.ok_or(format!("--workload is required: one of {}", names.join(", ")))?;
    Ok(Args { spec, seed, seconds, trace })
}

/// A backend's factory, with the message-passing counters if it has them.
trait Backendish: RegisterFactory {
    /// `(registers, groups, workers)` of an `MpFactory`.
    fn mp_counts(&self) -> Option<[usize; 3]>;
}

impl Backendish for LocalFactory {
    fn mp_counts(&self) -> Option<[usize; 3]> {
        None
    }
}

impl Backendish for MpFactory {
    fn mp_counts(&self) -> Option<[usize; 3]> {
        Some([self.spawned(), self.group_count(), self.worker_count()])
    }
}

/// One set-up of the store, and its timed window if it ran one.
struct StorePass {
    setup_s: f64,
    /// Per-key first-write latencies of the prepopulation, sorted.
    install_ns: Vec<u64>,
    window: Option<Window>,
    steps_per_op: f64,
    help_threads: usize,
    /// Mean distinct keys and shards per verify call, and checks per
    /// distinct check.
    batch: [f64; 3],
}

/// Builds a system and a store over `factory`, prepopulates every key and,
/// given `seqs`, runs them as the timed window. `t0` is when set-up began;
/// `reset` is cleared when the window starts.
fn store_pass<R: SignatureRegister<u64>, F: RegisterFactory>(
    spec: &Spec,
    factory: F,
    t0: Instant,
    seqs: Option<&[Vec<Op>]>,
    reset: Option<&Counters>,
) -> StorePass {
    let system = run::system();
    let store: ByzStore<'_, u64, u64, R, F> =
        ByzStore::new(&system, factory, 0, StoreConfig::default());
    let mut install_ns = Vec::with_capacity(spec.keys as usize);
    for key in 0..spec.keys {
        let t = Instant::now();
        store.write(key, value_of(key)).expect("prepopulation write");
        install_ns.push(t.elapsed().as_nanos() as u64);
    }
    install_ns.sort_unstable();
    let setup_s = t0.elapsed().as_secs_f64();
    let mut pass = StorePass {
        setup_s,
        install_ns,
        window: None,
        steps_per_op: 0.0,
        help_threads: 0,
        batch: [0.0; 3],
    };
    if let Some(seqs) = seqs {
        if let Some(counters) = reset {
            counters.reset();
        }
        let gate = system.env().gate();
        let steps0 = gate.steps();
        let window = run::window(&store, &run::readers(spec), seqs, reset.is_some());
        pass.steps_per_op = (gate.steps() - steps0) as f64 / window.attempted as f64;
        pass.help_threads = system.help_engine_threads();
        pass.batch = batch_shape(seqs, |k| store.shard_of(k));
        pass.window = Some(window);
        println!("# window done, rss {:.1} MiB", stats::rss_mb());
    }
    system.shutdown();
    pass
}

fn batch_shape(seqs: &[Vec<Op>], shard_of: impl Fn(&u64) -> usize) -> [f64; 3] {
    let (mut calls, mut keys, mut shards, mut checks, mut distinct) = (0, 0, 0, 0, 0);
    for checks_of_call in seqs.iter().flatten().filter_map(|op| match op {
        Op::Verify(c) => Some(c),
        _ => None,
    }) {
        calls += 1;
        keys += checks_of_call.iter().map(|(k, _)| k).collect::<BTreeSet<_>>().len();
        shards += checks_of_call.iter().map(|(k, _)| shard_of(k)).collect::<BTreeSet<_>>().len();
        checks += checks_of_call.len();
        distinct += checks_of_call.iter().collect::<BTreeSet<_>>().len();
    }
    let calls = f64::from(calls.max(1));
    [keys as f64 / calls, shards as f64 / calls, checks as f64 / distinct.max(1) as f64]
}

/// The same sequences on registers installed without a store.
fn direct_pass<R: SignatureRegister<u64>, F: RegisterFactory>(
    spec: &Spec,
    factory: &F,
    seqs: &[Vec<Op>],
) -> Window {
    let system = run::system();
    let readers = run::readers(spec);
    let direct = Direct::<R>::install(&system, factory, spec.keys, &readers);
    for key in 0..spec.keys {
        run::Target::write(&direct, key).expect("prepopulation write");
    }
    let window = run::window(&direct, &readers, seqs, false);
    system.shutdown();
    window
}

fn p50_us(sorted: &[u64]) -> f64 {
    stats::nearest_rank(sorted, 50).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// End-to-end metrics of a window (all but `setup_s`/`peak_rss_mb`).
fn end_to_end(w: &Window, into: &mut Values) -> Result<(), String> {
    into.set("ops_per_s", w.ops_per_s());
    for (kind, tail) in [(OpKind::Write, false), (OpKind::Read, true), (OpKind::Verify, true)] {
        let samples = &w.samples[kind as usize];
        let label = kind.label();
        let p50 = stats::nearest_rank(samples, 50).ok_or(format!("no {label} samples"))?;
        into.set(metric_name(&format!("{label}_p50_us")), p50 as f64 / 1e3);
        if tail {
            let p99 = stats::reportable(samples, 99).ok_or(format!(
                "{label}_p99_us needs {} samples beyond it, {} {label} samples give {}",
                stats::MIN_BEYOND,
                samples.len(),
                stats::beyond(samples.len(), 99)
            ))?;
            into.set(metric_name(&format!("{label}_p99_us")), p99 as f64 / 1e3);
        }
    }
    Ok(())
}

/// The declared `'static` name equal to `name`.
fn metric_name(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&TAILS)
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .expect("declared")
}

fn describe(w: &Window) -> String {
    let counts: Vec<String> = OP_KINDS
        .iter()
        .map(|k| format!("{}={}", k.label(), w.samples[*k as usize].len()))
        .collect();
    format!(
        "items {} failed {} error_rate {:.6} ratio, window {:.3} s, steal {:.1}%, samples {}",
        w.attempted,
        w.failed,
        w.failed as f64 / w.attempted.max(1) as f64,
        w.window_ns as f64 / 1e9,
        w.steal_share * 100.0,
        counts.join(" ")
    )
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
    /// The traced pass's per-op spans (empty when untraced).
    spans: Vec<run::Span>,
}

fn check(args: &Args, w: &Window) -> bool {
    for wrong in w.wrong.iter().take(5) {
        println!("# WRONG OUTCOME: workload {} seed {}: {wrong}", args.spec.name, args.seed);
    }
    w.wrong.is_empty()
}

fn untraced<R: SignatureRegister<u64>, F: Backendish>(
    args: &Args,
    seqs: &[Vec<Op>],
    make: impl Fn() -> F,
) -> Result<Outcome, String> {
    let spec = args.spec;
    let mut setups = Vec::with_capacity(spec.setups);
    let mut reps = Vec::with_capacity(spec.reps);
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut warmed = false;
    for i in 0..spec.setups {
        let t0 = Instant::now();
        let factory = make();
        // The reps + 1 timed set-ups are spread evenly over the run, the
        // last set-up always timed, so the set-up-only ones sample the whole
        // run's host conditions rather than its first second.
        let windows = spec.reps + 1;
        let timed = ((i + 1) * windows / spec.setups > i * windows / spec.setups).then_some(seqs);
        let pass = store_pass::<R, _>(spec, &factory, t0, timed, None);
        setups.push(pass.setup_s);
        if let Some(w) = &pass.window {
            correct &= check(args, w);
            attempted += w.attempted;
            failed += w.failed;
            if !warmed {
                println!("# untraced store, warm-up: {}", describe(w));
                warmed = true;
                continue;
            }
            println!("# untraced store, repetition {}: {}", reps.len() + 1, describe(w));
            let mut values = Values::default();
            end_to_end(w, &mut values)?;
            reps.push(values);
        }
    }
    println!("# setup_s of each set-up: {setups:?}");
    let (mut values, mut tails) = (Values::default(), Values::default());
    for (name, _) in END_TO_END[..4].iter().chain(&TAILS) {
        let per_rep: Vec<f64> = reps.iter().map(|r| r.get(name).expect("measured")).collect();
        println!("# {name} of each repetition: {per_rep:?}");
        let into = if TAILS.iter().any(|(t, _)| t == name) { &mut tails } else { &mut values };
        into.set(name, stats::median(&per_rep));
    }
    print!("{}", prefixed(&tails.table(&TAILS)));
    values.set("setup_s", stats::median(&setups));
    values.set("peak_rss_mb", stats::peak_rss_mb());
    Ok(Outcome { correct, attempted, failed, values, spans: Vec::new() })
}

fn traced<R: SignatureRegister<u64>, F: Backendish>(
    args: &Args,
    seqs: &[Vec<Op>],
    make: impl Fn() -> F,
) -> Result<Outcome, String> {
    let spec = args.spec;

    // A: untraced, through the store.
    let t0 = Instant::now();
    let factory = make();
    let a = store_pass::<R, _>(spec, &factory, t0, Some(seqs), None);
    let mp = factory.mp_counts();
    drop(factory);
    let aw = a.window.as_ref().expect("timed");
    println!("# pass A, untraced store: {}", describe(aw));

    // B: traced, through the store.
    let t0 = Instant::now();
    let factory = make();
    let tracing = TracingFactory::new(&factory);
    let c = tracing.counters();
    let b = store_pass::<R, _>(spec, &tracing, t0, Some(seqs), Some(&c));
    drop(tracing);
    drop(factory);
    let bw = b.window.as_ref().expect("timed");
    println!("# pass B, traced store: {}", describe(bw));

    // C: untraced, directly installed handles.
    let direct_factory = make();
    let cw = direct_pass::<R, _>(spec, &direct_factory, seqs);
    drop(direct_factory);
    println!("# pass C, direct handles: {}", describe(&cw));

    let mut traced_e2e = Values::default();
    end_to_end(bw, &mut traced_e2e)?;
    println!("# traced pass end-to-end metrics:");
    print!("{}", prefixed(&traced_e2e.table(&END_TO_END)));
    print!("{}", prefixed(&traced_e2e.table(&TAILS)));
    let overhead = 1.0 - bw.ops_per_s() / aw.ops_per_s();
    println!("# tracing overhead: {:.1}% of untraced ops/s", overhead * 100.0);

    let mut v = Values::default();
    per_layer(&a, bw, &cw, &c, mp, &mut v);
    v.set("trace.overhead_share", overhead);
    let correct = [aw, bw, &cw].iter().all(|w| check(args, w));
    let attempted = aw.attempted + bw.attempted + cw.attempted;
    let failed = aw.failed + bw.failed + cw.failed;
    let spans = b.window.map(|w| w.spans).unwrap_or_default();
    Ok(Outcome { correct, attempted, failed, values: v, spans })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(
    a: &StorePass,
    bw: &Window,
    cw: &Window,
    c: &Counters,
    mp: Option<[usize; 3]>,
    v: &mut Values,
) {
    let aw = a.window.as_ref().expect("timed");
    let ops = bw.attempted as f64;
    for kind in OP_KINDS {
        let (store, direct) =
            (p50_us(&aw.samples[kind as usize]), p50_us(&cw.samples[kind as usize]));
        v.set(metric_name(&format!("store.self_us.{}", kind.label())), store - direct);
        v.set(metric_name(&format!("core.{}_us", kind.label())), direct);
    }
    v.set("store.batch.keys", a.batch[0]);
    v.set("store.batch.shards", a.batch[1]);
    v.set("store.batch.dedupe", a.batch[2]);
    v.set("store.install_us", p50_us(&a.install_ns));

    let rounds = c.count(Role::Client, Kind::Asker, WRITES) as f64;
    let spins = c.count(Role::Client, Kind::Reply, &[Access::Load]) as f64;
    let op_ns: f64 = bw.spans.iter().map(|s| (s.end_ns - s.start_ns) as f64).sum();
    v.set("quorum.rounds_per_op", rounds / ops);
    v.set("quorum.spins_per_round", ratio(spins, rounds));
    v.set(
        "quorum.wait_share",
        ratio(c.ns(Role::Client, Some(Kind::Reply), &[Access::Load]) as f64, op_ns),
    );

    // Client-thread base accesses per op item, from the spans.
    let mut per_kind = [[0.0f64; 3]; 3]; // [kind] -> [items, accesses, base_ns]
    let mut read_ns = 0.0;
    for s in &bw.spans {
        let k = &mut per_kind[s.op as usize];
        k[0] += s.items as f64;
        k[1] += s.base_accesses as f64;
        k[2] += s.base_ns as f64;
        if s.op == OpKind::Read {
            read_ns += (s.end_ns - s.start_ns) as f64;
        }
    }
    for kind in OP_KINDS {
        let k = per_kind[kind as usize];
        let per_op = ratio(k[1], k[0]);
        v.set(metric_name(&format!("register.accesses_per_op.{}", kind.label())), per_op);
        let mp_per_op = if mp.is_some() { per_op } else { 0.0 };
        v.set(metric_name(&format!("mp.accesses_per_op.{}", kind.label())), mp_per_op);
    }
    v.set("register.time_share.read", ratio(per_kind[OpKind::Read as usize][2], read_ns));
    v.set("gate.steps_per_op", a.steps_per_op);

    let polls = c.count(Role::Helper, Kind::Asker, &[Access::Load]) as f64;
    let replies = c.count(Role::Helper, Kind::Reply, WRITES) as f64;
    let busy = c.ns(Role::Helper, None, ALL) as f64;
    v.set("help.polls_per_op", polls / ops);
    v.set("help.useful_ratio", ratio(replies, polls));
    v.set("help.busy_share", ratio(busy, a.help_threads as f64 * bw.window_ns as f64));
    v.set("help.threads", a.help_threads as f64);

    v.set("register.load_us.p50", c.load.quantile_ns(50) / 1e3);
    v.set("register.load_us.p99", c.load.quantile_ns(99) / 1e3);
    v.set("register.store_us.p50", c.store.quantile_ns(50) / 1e3);
    v.set("register.store_us.p99", c.store.quantile_ns(99) / 1e3);
    let created = c.created.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let create_ns = c.create_ns.load(std::sync::atomic::Ordering::Relaxed) as f64;
    v.set("register.create_us", ratio(create_ns / 1e3, created));
    let [registers, groups, workers] = mp.unwrap_or([0; 3]);
    v.set("mp.registers", registers as f64);
    v.set("mp.groups", groups as f64);
    v.set("mp.workers", workers as f64);
}

fn prefixed(table: &str) -> String {
    table.lines().map(|l| format!("#   {l}\n")).collect()
}

/// Writes the traced pass's spans as JSON lines under `.bench_out/`.
fn write_spans(args: &Args, spans: &[run::Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}-spans.jsonl", args.spec.name, args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            writeln!(
                out,
                "{{\"workload\": \"{}\", \"client\": {}, \"op\": \"{}\", \"items\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"base_accesses\": {}, \"base_ns\": {}}}",
                args.spec.name,
                s.client,
                s.op.label(),
                s.items,
                s.start_ns,
                s.end_ns,
                s.base_accesses,
                s.base_ns
            )?;
        }
        out.flush()
    });
    match written {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
}

fn dispatch<R: SignatureRegister<u64>>(args: &Args, seqs: &[Vec<Op>]) -> Result<Outcome, String> {
    match (args.spec.backend, args.trace) {
        (Backend::Shm, false) => untraced::<R, _>(args, seqs, || LocalFactory),
        (Backend::Shm, true) => traced::<R, _>(args, seqs, || LocalFactory),
        (Backend::Mp, false) => untraced::<R, _>(args, seqs, mp_factory),
        (Backend::Mp, true) => traced::<R, _>(args, seqs, mp_factory),
    }
}

fn mp_factory() -> MpFactory {
    MpFactory::with_workers(NetConfig::instant(), stats::nproc())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let items = spec.rate * args.seconds / (spec.reps * spec.clients) as u64;
    let seqs: Vec<Vec<Op>> =
        (0..spec.clients).map(|c| workload::sequence(spec, args.seed, c, items)).collect();
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"family\": \"{:?}\", \"backend\": \"{:?}\", \"keys\": {}, \"skew\": {}, \
         \"mix_wrv_pct\": {:?}, \"batch\": {}, \"clients\": {}, \"items_per_client\": {}, \
         \"n\": 4, \"byzantine\": [4], \"shards\": {}, \"nproc\": {}, \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.family,
        spec.backend,
        spec.keys,
        spec.skew,
        spec.mix,
        spec.batch,
        spec.clients,
        items,
        StoreConfig::default().shards,
        stats::nproc(),
        stats::cpu_model(),
        stats::rustc_version(),
        stats::git_commit()
    );
    let outcome = match spec.family {
        Family::Verifiable => dispatch::<VerifiableRegister<u64>>(&args, &seqs),
        Family::Authenticated => dispatch::<AuthenticatedRegister<u64>>(&args, &seqs),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        write_spans(&args, &outcome.spans);
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", prefixed(&outcome.values.table(declared)));
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.values.json(declared)
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
