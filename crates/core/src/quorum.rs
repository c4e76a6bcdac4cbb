//! The shared §5.1 quorum machinery of Algorithms 1–3.
//!
//! All three register families are built from the same skeleton:
//!
//! * a matrix of SWSR *reply* registers `R_{j,k}` (helper `p_j` → asker
//!   `p_k`) and per-reader *asker* round counters `C_k` — installed by
//!   [`QuorumFabric`];
//! * the `set0`/`set1` voting loop a reader runs over its reply column —
//!   the generic engine [`quorum_rounds`], instantiated as
//!   [`verify_quorum`] by the `Verify(−)` of Algorithms 1–2 and by the
//!   sticky `Read` of Algorithm 3;
//! * the helper-side asker/`prev_ck` handshake — [`AskerTracker`].
//!
//! §5.1 explains the voting mechanism: a reader proceeds in rounds; in each
//! round it bumps its asker register `C_k` and waits for *one* fresh reply
//! from any process outside `set0 ∪ set1`. An affirmative reply moves the
//! helper into `set1` **and resets `set0`**, giving dissenters the
//! opportunity to re-check; a dissent adds the helper to `set0`. `set1` is
//! non-decreasing, which is what makes the relay property stick.

use std::collections::BTreeSet;

use byzreg_runtime::{Env, ProcessId, ReadPort, RegisterFactory, Result, Roles, Value, WritePort};

use parking_lot::Mutex;

/// A reply payload tagged with the asker round it answers (`⟨−, c_j⟩`).
pub type Tagged<W> = (W, u64);

/// A helper's reply register content for Algorithms 1–2: the set of values
/// it currently witnesses, tagged with the asker round (`⟨r_j, c_j⟩`).
pub type Reply<V> = Tagged<BTreeSet<V>>;

/// How the voting engine classifies one reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ballot {
    /// The reply supports the asker's hypothesis: the helper joins `set1`
    /// and `set0` is reset (Alg. 1 lines 18–20).
    Affirm,
    /// The reply opposes it: the helper joins `set0` (lines 21–22).
    Dissent,
}

/// The §5.1 round engine shared by every quorum decision in this crate.
///
/// Runs rounds of: bump `C_k`, wait for one *fresh* reply from a process
/// outside `set0 ∪ set1`, classify it with `tally`, then let `decide`
/// inspect the updated tallies `(n1, n0)` — the sizes of `set1` and `set0`.
/// `Ballot::Affirm` resets `set0`, so dissenters are re-asked after every
/// affirmation; `set1` only ever grows.
///
/// `replies` is the asker's reply column `R_{j,k}` over all processes `p_j`.
///
/// [`quorum_rounds_many`] is this loop's batched sibling; it is kept as a
/// separate copy so this single-item path stays annotated line-by-line
/// against Algorithm 1 and pays no extra reply clone. **Any change to the
/// round protocol here must be mirrored there** (the
/// `quorum_rounds_many_matches_single_engine_outcomes` test compares the
/// two).
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn quorum_rounds<W: Value, T>(
    env: &Env,
    ck: &WritePort<u64>,
    replies: &[ReadPort<Tagged<W>>],
    mut tally: impl FnMut(usize, W) -> Ballot,
    mut decide: impl FnMut(usize, usize) -> Option<T>,
) -> Result<T> {
    let n = env.n();
    debug_assert_eq!(replies.len(), n);
    let mut set1 = vec![false; n];
    let mut set0 = vec![false; n];
    let mut n1 = 0usize;
    let mut n0 = 0usize;

    // Alg. 1 line 12: while true (each iteration is a "round").
    loop {
        env.check_running()?;
        // Line 13: Ck <- Ck + 1 (owner increment; see register::update docs).
        let my_ck = ck.update(|c| {
            *c += 1;
            *c
        });
        // Lines 14-17: repeat reading R_{j,k} of every p_j not in
        // set1 ∪ set0 until one of them carries a timestamp >= Ck.
        let (j, r_j) = 'fresh: loop {
            env.check_running()?;
            for (j, port) in replies.iter().enumerate() {
                if set1[j] || set0[j] {
                    continue;
                }
                let (r_j, c_j) = port.read();
                if c_j >= my_ck {
                    break 'fresh (j, r_j);
                }
            }
        };
        match tally(j, r_j) {
            Ballot::Affirm => {
                // Lines 18-20: set1 <- set1 ∪ {pj}; set0 <- ∅.
                set1[j] = true;
                n1 += 1;
                set0 = vec![false; n];
                n0 = 0;
            }
            Ballot::Dissent => {
                // Lines 21-22: set0 <- set0 ∪ {pj}.
                set0[j] = true;
                n0 += 1;
            }
        }
        // Lines 23-24 (and Alg. 3 lines 20-22): the decision rule.
        if let Some(outcome) = decide(n1, n0) {
            return Ok(outcome);
        }
    }
}

/// The batched §5.1 round engine: runs `items` independent voting loops in
/// one round sequence, sharing the asker counter `C_k` and the reply reads
/// across the whole batch.
///
/// Each item keeps its own `set1`/`set0`; a reply fresh for the current
/// round is tallied against **every** still-undecided item whose sets do
/// not yet classify the helper. Each item therefore observes a subsequence
/// of the shared rounds that is, on its own, a valid execution of
/// [`quorum_rounds`]: freshness only requires a reply to answer a `C_k`
/// bump issued after the item's previous transition, and extra bumps in
/// between are indistinguishable from scheduling delay. The per-item
/// safety and termination arguments of §5.1 carry over unchanged, while a
/// batch of `m` values costs one round sequence instead of `m`.
///
/// `tally` receives `(item, helper, reply)`, `decide` receives
/// `(item, n1, n0)`; the returned vector is indexed by item.
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn quorum_rounds_many<W: Value, T>(
    env: &Env,
    ck: &WritePort<u64>,
    replies: &[ReadPort<Tagged<W>>],
    items: usize,
    mut tally: impl FnMut(usize, usize, &W) -> Ballot,
    mut decide: impl FnMut(usize, usize, usize) -> Option<T>,
) -> Result<Vec<T>> {
    let n = env.n();
    debug_assert_eq!(replies.len(), n);
    let mut set1 = vec![vec![false; n]; items];
    let mut set0 = vec![vec![false; n]; items];
    let mut n1 = vec![0usize; items];
    let mut n0 = vec![0usize; items];
    let mut outcome: Vec<Option<T>> = (0..items).map(|_| None).collect();
    let mut pending = items;

    while pending > 0 {
        env.check_running()?;
        let my_ck = ck.update(|c| {
            *c += 1;
            *c
        });
        // A helper is relevant while some undecided item has not yet
        // classified it. Computed once per round — the sets and outcomes
        // only change after a reply is processed — so the wait below costs
        // O(n) per spin instead of O(n·items).
        let relevant: Vec<bool> = (0..n)
            .map(|j| (0..items).any(|i| outcome[i].is_none() && !set1[i][j] && !set0[i][j]))
            .collect();
        // Wait for one fresh reply from a relevant helper (the batched
        // form of lines 14-17; an undecided item always has one, cf.
        // `quorum_rounds`).
        let (j, r_j) = 'fresh: loop {
            env.check_running()?;
            for (j, port) in replies.iter().enumerate() {
                if !relevant[j] {
                    continue;
                }
                let (r_j, c_j) = port.read();
                if c_j >= my_ck {
                    break 'fresh (j, r_j);
                }
            }
        };
        // One physical reply feeds every item that would still accept it.
        for i in 0..items {
            if outcome[i].is_some() || set1[i][j] || set0[i][j] {
                continue;
            }
            match tally(i, j, &r_j) {
                Ballot::Affirm => {
                    set1[i][j] = true;
                    n1[i] += 1;
                    set0[i] = vec![false; n];
                    n0[i] = 0;
                }
                Ballot::Dissent => {
                    set0[i][j] = true;
                    n0[i] += 1;
                }
            }
            if let Some(t) = decide(i, n1[i], n0[i]) {
                outcome[i] = Some(t);
                pending -= 1;
            }
        }
    }
    Ok(outcome.into_iter().map(|t| t.expect("all items decided")).collect())
}

/// Runs the `Verify(v)` procedure of Algorithms 1 and 2 (lines 11–24 /
/// 10–23) for the reader owning `ck`: `|set1| ≥ n − f` decides `true`,
/// `|set0| > f` decides `false`.
///
/// `replies` is the reader's column of SWSR registers `R_{j,k}`, one per
/// process `p_j` (including the writer and the reader itself).
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn verify_quorum<V: Value>(
    env: &Env,
    ck: &WritePort<u64>,
    replies: &[ReadPort<Reply<V>>],
    v: &V,
) -> Result<bool> {
    let n = env.n();
    let f = env.f();
    quorum_rounds(
        env,
        ck,
        replies,
        |_, r_j| if r_j.contains(v) { Ballot::Affirm } else { Ballot::Dissent },
        |n1, n0| {
            if n1 >= n - f {
                Some(true)
            } else if n0 > f {
                Some(false)
            } else {
                None
            }
        },
    )
}

/// Batched `Verify`: decides every value of `vs` in one shared round
/// sequence (see [`quorum_rounds_many`]), with the same per-value decision
/// rule as [`verify_quorum`]. Returns one outcome per value, in order.
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn verify_quorum_many<V: Value>(
    env: &Env,
    ck: &WritePort<u64>,
    replies: &[ReadPort<Reply<V>>],
    vs: &[V],
) -> Result<Vec<bool>> {
    let n = env.n();
    let f = env.f();
    quorum_rounds_many(
        env,
        ck,
        replies,
        vs.len(),
        |i, _, r_j| if r_j.contains(&vs[i]) { Ballot::Affirm } else { Ballot::Dissent },
        |_, n1, n0| {
            if n1 >= n - f {
                Some(true)
            } else if n0 > f {
                Some(false)
            } else {
                None
            }
        },
    )
}

/// Tracks the asker/`prev_ck` handshake of the `Help()` procedures
/// (Alg. 1 lines 25–28/36, Alg. 2 lines 24–27/38, Alg. 3 lines 23/31–32/40).
#[derive(Debug)]
pub struct AskerTracker {
    prev_ck: Vec<u64>,
}

impl AskerTracker {
    /// Creates a tracker for `readers` readers, with every `prev_ck = 0`.
    #[must_use]
    pub fn new(readers: usize) -> Self {
        AskerTracker { prev_ck: vec![0; readers] }
    }

    /// Reads every `C_k` and returns `(ck, askers)`: the sampled counters and
    /// the (0-based) reader indices whose counter increased since the last
    /// acknowledged round.
    pub fn poll(&self, c: &[ReadPort<u64>]) -> (Vec<u64>, Vec<usize>) {
        let ck: Vec<u64> = c.iter().map(ReadPort::read).collect();
        let askers =
            ck.iter().enumerate().filter(|(k, v)| **v > self.prev_ck[*k]).map(|(k, _)| k).collect();
        (ck, askers)
    }

    /// Acknowledges that reader `k` was helped at round `ck` (line 36/38/40:
    /// `prev_ck <- ck`).
    pub fn acknowledge(&mut self, k: usize, ck: u64) {
        self.prev_ck[k] = ck;
    }

    /// Answers every pending asker with `reply` and acknowledges the served
    /// rounds (the lines 34–36 / 36–38 / 38–40 epilogue of every `Help()`).
    pub fn serve<W: Value>(
        &mut self,
        replies_w: &[WritePort<Tagged<W>>],
        ck: &[u64],
        askers: &[usize],
        reply: &W,
    ) {
        for &k in askers {
            replies_w[k].write((reply.clone(), ck[k]));
            self.acknowledge(k, ck[k]);
        }
    }
}

/// The reply-and-asker register fabric every register family installs: the
/// SWSR reply matrix `R_{j,k}` (initially `⟨init, 0⟩`) and the reader round
/// counters `C_k` (initially 0), with owners assigned through `roles`.
pub struct QuorumFabric<W: Value> {
    reply_w: Vec<Vec<WritePort<Tagged<W>>>>,
    reply_r: Vec<Vec<ReadPort<Tagged<W>>>>,
    asker_w: Vec<WritePort<u64>>,
    asker_r: Vec<ReadPort<u64>>,
}

impl<W: Value> QuorumFabric<W> {
    /// Installs the fabric for the `roles.n()` processes of `env`, sourcing
    /// base registers from `factory`.
    pub fn install<F: RegisterFactory>(env: &Env, factory: &F, roles: &Roles, init: W) -> Self {
        let n = roles.n();
        let mut reply_w = Vec::with_capacity(n);
        let mut reply_r = Vec::with_capacity(n);
        for j in 1..=n {
            let mut row_w = Vec::with_capacity(n - 1);
            let mut row_r = Vec::with_capacity(n - 1);
            for k in 2..=n {
                let (w, r) = factory.create(
                    env,
                    roles.actual(j),
                    format!("R[{j},{k}]"),
                    (init.clone(), 0u64),
                );
                row_w.push(w);
                row_r.push(r);
            }
            reply_w.push(row_w);
            reply_r.push(row_r);
        }
        let mut asker_w = Vec::with_capacity(n - 1);
        let mut asker_r = Vec::with_capacity(n - 1);
        for k in 2..=n {
            let (w, r) = factory.create(env, roles.actual(k), format!("C[{k}]"), 0u64);
            asker_w.push(w);
            asker_r.push(r);
        }
        QuorumFabric { reply_w, reply_r, asker_w, asker_r }
    }

    /// The full reply matrix, read side (`[j][k]`, both 0-based).
    #[must_use]
    pub fn reply_matrix(&self) -> Vec<Vec<ReadPort<Tagged<W>>>> {
        self.reply_r.clone()
    }

    /// The asker counters, read side (index `role - 2`).
    #[must_use]
    pub fn asker_ports(&self) -> Vec<ReadPort<u64>> {
        self.asker_r.clone()
    }

    /// Helper `role`'s row of reply write ports (`R_{role,k}` for all `k`).
    #[must_use]
    pub fn reply_row(&self, role: usize) -> Vec<WritePort<Tagged<W>>> {
        self.reply_w[role - 1].clone()
    }

    /// Reader `role`'s asker write port (`C_role`); `None` for the writer.
    #[must_use]
    pub fn asker_port(&self, role: usize) -> Option<WritePort<u64>> {
        (role >= 2).then(|| self.asker_w[role - 2].clone())
    }
}

/// One-shot per-process port bundles with the "taken at most once" rule all
/// register families enforce on their writer/reader/attack handles.
pub(crate) struct Endpoints<P>(Mutex<Vec<Option<P>>>);

impl<P> Endpoints<P> {
    pub(crate) fn new(ports: Vec<P>) -> Self {
        Endpoints(Mutex::new(ports.into_iter().map(Some).collect()))
    }

    /// Takes role `role`'s bundle.
    ///
    /// # Panics
    ///
    /// Panics if the bundle was taken before.
    pub(crate) fn take(&self, role: usize) -> P {
        self.0.lock()[role - 1]
            .take()
            .unwrap_or_else(|| panic!("ports of role {role} already taken"))
    }

    /// Takes the bundle of the process with the given pid-shaped message.
    ///
    /// # Panics
    ///
    /// Panics if the bundle was taken before.
    pub(crate) fn take_pid(&self, pid: ProcessId) -> P {
        self.0.lock()[pid.zero_based()]
            .take()
            .unwrap_or_else(|| panic!("ports of {pid} already taken"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_runtime::{register, LocalFactory, ProcessId, System};

    #[test]
    fn asker_tracker_detects_increases_only() {
        let sys = System::builder(4).build();
        let env = sys.env();
        let mut ports = Vec::new();
        let mut writers = Vec::new();
        for k in 2..=4 {
            let (w, r) = register::swmr(env.gate(), ProcessId::new(k), format!("C{k}"), 0u64);
            writers.push(w);
            ports.push(r);
        }
        let mut t = AskerTracker::new(3);
        let (ck, askers) = t.poll(&ports);
        assert!(askers.is_empty());
        assert_eq!(ck, vec![0, 0, 0]);

        writers[1].write(3);
        let (ck, askers) = t.poll(&ports);
        assert_eq!(askers, vec![1]);
        t.acknowledge(1, ck[1]);
        let (_, askers) = t.poll(&ports);
        assert!(askers.is_empty(), "acknowledged rounds are not re-reported");

        writers[1].write(4);
        writers[0].write(1);
        let (_, askers) = t.poll(&ports);
        assert_eq!(askers, vec![0, 1]);
    }

    #[test]
    fn verify_quorum_true_with_full_witness_sets() {
        // n = 4, f = 1: all four reply registers already carry the value with
        // a huge timestamp, so the loop should return true without helpers.
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, _) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let mut cols = Vec::new();
        for j in 1..=4 {
            let mut set = BTreeSet::new();
            set.insert(7u32);
            let (_w, r) =
                register::swmr(env.gate(), ProcessId::new(j), format!("R{j}2"), (set, u64::MAX));
            cols.push(r);
        }
        let got = verify_quorum(&env, &ck_w, &cols, &7).unwrap();
        assert!(got);
    }

    #[test]
    fn verify_quorum_false_when_enough_fresh_noes() {
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, _) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let mut cols = Vec::new();
        for j in 1..=4 {
            let (_w, r) = register::swmr(
                env.gate(),
                ProcessId::new(j),
                format!("R{j}2"),
                (BTreeSet::<u32>::new(), u64::MAX),
            );
            cols.push(r);
        }
        let got = verify_quorum(&env, &ck_w, &cols, &7).unwrap();
        assert!(!got, "f + 1 = 2 empty replies suffice for false");
    }

    #[test]
    fn verify_quorum_aborts_on_shutdown() {
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, _) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let mut cols = Vec::new();
        for j in 1..=4 {
            // Stale timestamps: nobody ever replies.
            let (_w, r) = register::swmr(
                env.gate(),
                ProcessId::new(j),
                format!("R{j}2"),
                (BTreeSet::<u32>::new(), 0u64),
            );
            cols.push(r);
        }
        sys.shutdown();
        let got = verify_quorum(&env, &ck_w, &cols, &7);
        assert!(got.is_err());
    }

    #[test]
    fn quorum_rounds_supports_non_boolean_decisions() {
        // A sticky-style decision: count per-value affirmations.
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, _) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let mut cols = Vec::new();
        for j in 1..=4 {
            let (_w, r) = register::swmr(
                env.gate(),
                ProcessId::new(j),
                format!("R{j}2"),
                (Some(9u32), u64::MAX),
            );
            cols.push(r);
        }
        let n = env.n();
        let f = env.f();
        let votes = std::cell::RefCell::new(std::collections::BTreeMap::new());
        let got: Option<u32> = quorum_rounds(
            &env,
            &ck_w,
            &cols,
            |_, slot: Option<u32>| match slot {
                Some(v) => {
                    *votes.borrow_mut().entry(v).or_insert(0usize) += 1;
                    Ballot::Affirm
                }
                None => Ballot::Dissent,
            },
            |_n1, n0| {
                if let Some((v, _)) = votes.borrow().iter().find(|(_, c)| **c >= n - f) {
                    return Some(Some(*v));
                }
                (n0 > f).then_some(None)
            },
        )
        .unwrap();
        assert_eq!(got, Some(9));
    }

    #[test]
    fn verify_quorum_many_decides_each_value_independently() {
        // Replies witness {3, 7} everywhere: 3 and 7 decide true, 9 decides
        // false, all in one shared round sequence.
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, ck_r) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let mut cols = Vec::new();
        for j in 1..=4 {
            let mut set = BTreeSet::new();
            set.insert(3u32);
            set.insert(7u32);
            let (_w, r) =
                register::swmr(env.gate(), ProcessId::new(j), format!("R{j}2"), (set, u64::MAX));
            cols.push(r);
        }
        let got = verify_quorum_many(&env, &ck_w, &cols, &[3, 9, 7]).unwrap();
        assert_eq!(got, vec![true, false, true]);
        assert!(ck_r.read() >= 1, "the batch bumped the shared asker counter");
    }

    #[test]
    fn verify_quorum_many_on_empty_batch_takes_no_steps() {
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, ck_r) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let cols: Vec<ReadPort<Reply<u32>>> = (1..=4)
            .map(|j| {
                register::swmr(
                    env.gate(),
                    ProcessId::new(j),
                    format!("R{j}2"),
                    (BTreeSet::new(), 0u64),
                )
                .1
            })
            .collect();
        let got = verify_quorum_many::<u32>(&env, &ck_w, &cols, &[]).unwrap();
        assert!(got.is_empty());
        assert_eq!(ck_r.read(), 0, "no rounds were run");
    }

    #[test]
    fn quorum_rounds_many_matches_single_engine_outcomes() {
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let mut cols = Vec::new();
        for j in 1..=4 {
            let mut set = BTreeSet::new();
            set.insert(5u32);
            let (_w, r) =
                register::swmr(env.gate(), ProcessId::new(j), format!("R{j}2"), (set, u64::MAX));
            cols.push(r);
        }
        let (ck_a, _) = register::swmr(env.gate(), ProcessId::new(2), "Ca", 0u64);
        let batched = verify_quorum_many(&env, &ck_a, &cols, &[5u32, 6]).unwrap();
        let (ck_b, _) = register::swmr(env.gate(), ProcessId::new(2), "Cb", 0u64);
        let singles = vec![
            verify_quorum(&env, &ck_b, &cols, &5u32).unwrap(),
            verify_quorum(&env, &ck_b, &cols, &6u32).unwrap(),
        ];
        assert_eq!(batched, singles);
    }

    #[test]
    fn quorum_rounds_many_aborts_on_shutdown() {
        let sys = System::builder(4).build();
        let env = sys.env().clone();
        let (ck_w, _) = register::swmr(env.gate(), ProcessId::new(2), "C2", 0u64);
        let mut cols = Vec::new();
        for j in 1..=4 {
            // Stale timestamps: nobody ever replies.
            let (_w, r) = register::swmr(
                env.gate(),
                ProcessId::new(j),
                format!("R{j}2"),
                (BTreeSet::<u32>::new(), 0u64),
            );
            cols.push(r);
        }
        sys.shutdown();
        assert!(verify_quorum_many(&env, &ck_w, &cols, &[7]).is_err());
    }

    #[test]
    fn fabric_wires_owners_and_names() {
        let sys = System::builder(4).build();
        let roles = Roles::identity(4);
        let fabric =
            QuorumFabric::install(sys.env(), &LocalFactory, &roles, BTreeSet::<u32>::new());
        let matrix = fabric.reply_matrix();
        assert_eq!(matrix.len(), 4);
        assert_eq!(matrix[0].len(), 3);
        assert_eq!(matrix[2][0].owner(), ProcessId::new(3));
        assert_eq!(matrix[2][0].name(), "R[3,2]");
        assert_eq!(fabric.asker_ports().len(), 3);
        assert!(fabric.asker_port(1).is_none(), "the writer has no C_k");
        let c3 = fabric.asker_port(3).unwrap();
        assert_eq!(c3.owner(), ProcessId::new(3));
        // Reply rows answer through the owning helper.
        let row = fabric.reply_row(2);
        assert_eq!(row.len(), 3);
        row[1].write((BTreeSet::new(), 5));
        assert_eq!(matrix[1][1].read().1, 5);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn endpoints_enforce_single_take() {
        let eps = Endpoints::new(vec![1, 2, 3]);
        let _ = eps.take(2);
        let _ = eps.take(2);
    }
}
