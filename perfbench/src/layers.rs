//! Per-call costs of single layers, replayed on inputs taken from a
//! workload: runtime dispatch, the model checker's public stepping and
//! canonicalization entry points, and the serve mailboxes.

use protogen_mc::{fingerprint_bytes, Canonicalizer, ModelChecker, Step, SysState};
use protogen_runtime::{
    apply_into, select_arc_indexed, ApplyOutcome, CacheBlock, DirEntry, FsmIndex, MachineCtx,
    MachineTag, Msg, NodeId, StateEventPair,
};
use protogen_serve::mailbox::{Envelope, Fabric, Ring};
use protogen_spec::{Event, Fsm, MsgId};
use std::hint::black_box;
use std::time::Instant;

/// Minimum measured time per per-call figure.
const MIN_SECONDS: f64 = 0.15;

/// Calls `f` on every item, over and over, until `MIN_SECONDS` have
/// passed; returns nanoseconds per call.
pub fn per_call_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    assert!(!items.is_empty(), "no inputs to time");
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for it in items {
            f(black_box(it));
        }
        calls += items.len() as u64;
        let t = start.elapsed().as_secs_f64();
        if t >= MIN_SECONDS {
            return t * 1e9 / calls as f64;
        }
    }
}

/// One `(machine state, event)` dispatch as a workload performs it.
#[derive(Debug, Clone)]
pub struct DispatchCtx {
    dir: bool,
    block: CacheBlock,
    entry: DirEntry,
    event: Event,
    msg: Option<Msg>,
    self_id: NodeId,
    dir_id: NodeId,
}

impl DispatchCtx {
    /// The coverage pair this dispatch records.
    pub fn pair(&self) -> StateEventPair {
        if self.dir {
            (MachineTag::DIRECTORY, self.entry.state, self.event)
        } else {
            (MachineTag::CACHE, self.block.state, self.event)
        }
    }
}

/// The dispatches the checker would attempt from each corpus state.
pub fn dispatch_contexts(mc: &ModelChecker<'_>, corpus: &[SysState]) -> Vec<DispatchCtx> {
    let mut out = Vec::new();
    for s in corpus {
        let n = s.n_caches();
        for step in mc.steps(s) {
            let (dst, event, msg) = match step {
                Step::Deliver { src, dst, idx } => {
                    let m = s.channels[src as usize][dst as usize][idx as usize];
                    (dst as usize, Event::Msg(m.mtype), Some(m))
                }
                Step::IssueAccess { cache, access } => {
                    (cache as usize, Event::Access(access), None)
                }
            };
            let dir = dst == n;
            out.push(DispatchCtx {
                dir,
                block: if dir { CacheBlock::new() } else { s.caches[dst].clone() },
                entry: s.dir.clone(),
                event,
                msg,
                self_id: if dir { s.dir_id() } else { NodeId(dst as u8) },
                dir_id: s.dir_id(),
            });
        }
    }
    out
}

/// `select_arc_indexed` + `apply_into` per call over `ctxs`, each applied
/// to a scratch copy of its machine. Contexts with no arc are skipped.
pub fn dispatch_ns(cache: &Fsm, dir: &Fsm, ctxs: &[DispatchCtx]) -> Option<f64> {
    let (cache_idx, dir_idx) = (FsmIndex::new(cache), FsmIndex::new(dir));
    let live: Vec<&DispatchCtx> = ctxs
        .iter()
        .filter(|c| {
            let (fsm, idx, state) = pick(c, cache, dir, &cache_idx, &dir_idx);
            let (cb, de) = guards_of(c);
            select_arc_indexed(fsm, idx, state, c.event, c.msg.as_ref(), cb, de).is_some()
        })
        .collect();
    if live.is_empty() {
        return None;
    }
    let mut block = CacheBlock::new();
    let mut entry = live[0].entry.clone();
    let mut out = ApplyOutcome::default();
    Some(per_call_ns(&live, |c| {
        let (fsm, idx, state) = pick(c, cache, dir, &cache_idx, &dir_idx);
        let (cb, de) = guards_of(c);
        let arc = select_arc_indexed(fsm, idx, state, c.event, c.msg.as_ref(), cb, de)
            .expect("filtered to dispatchable contexts");
        let machine = if c.dir {
            entry.clone_from(&c.entry);
            MachineCtx::Dir { entry: &mut entry, self_id: c.self_id }
        } else {
            block.clone_from(&c.block);
            MachineCtx::Cache { block: &mut block, self_id: c.self_id, dir_id: c.dir_id }
        };
        let _ = black_box(apply_into(fsm, arc, c.msg.as_ref(), machine, 1, &mut out));
    }))
}

fn pick<'f>(
    c: &DispatchCtx,
    cache: &'f Fsm,
    dir: &'f Fsm,
    cache_idx: &'f FsmIndex,
    dir_idx: &'f FsmIndex,
) -> (&'f Fsm, &'f FsmIndex, protogen_spec::FsmStateId) {
    if c.dir {
        (dir, dir_idx, c.entry.state)
    } else {
        (cache, cache_idx, c.block.state)
    }
}

fn guards_of(c: &DispatchCtx) -> (Option<&CacheBlock>, Option<&DirEntry>) {
    if c.dir {
        (None, Some(&c.entry))
    } else {
        (Some(&c.block), None)
    }
}

/// Per-call costs of the model checker's public entry points.
#[derive(Debug, Clone, Copy)]
pub struct McCosts {
    /// `ModelChecker::steps` per state.
    pub steps_ns: f64,
    /// `ModelChecker::successor_state` per enabled step (clones the
    /// state, so an upper bound on the explorer's in-place stepping).
    pub successor_ns: f64,
    /// `Canonicalizer::canonical_fp` per successor.
    pub canon_ns: f64,
    /// Mean permutations the pruned canonicalizer enumerates.
    pub canon_candidates: f64,
    /// `fingerprint_bytes` per canonical encoding.
    pub fingerprint_ns: f64,
    /// `SysState::decode_into` per encoding.
    pub decode_ns: f64,
}

/// Replays each entry point over `corpus`, reachable states of `mc`.
pub fn mc_costs(mc: &ModelChecker<'_>, corpus: &[SysState], symmetry: bool) -> McCosts {
    let n = corpus[0].n_caches();
    let steps_ns = per_call_ns(corpus, |s| {
        black_box(mc.steps(s));
    });
    let enabled: Vec<(&SysState, Step)> = corpus
        .iter()
        .flat_map(|s| mc.steps(s).into_iter().map(move |st| (s, st)))
        .filter(|(s, st)| matches!(mc.successor_state(s, *st), Ok(Some(_))))
        .collect();
    let successor_ns = per_call_ns(&enabled, |(s, st)| {
        let _ = black_box(mc.successor_state(s, *st));
    });
    let succs: Vec<SysState> =
        enabled.iter().filter_map(|(s, st)| mc.successor_state(s, *st).ok().flatten()).collect();
    let mut canon = Canonicalizer::new(n, symmetry);
    let canon_ns = per_call_ns(&succs, |s| {
        black_box(canon.canonical_fp(s));
    });
    let canon_candidates =
        succs.iter().map(|s| canon.pruned_candidates(s) as f64).sum::<f64>() / succs.len() as f64;
    let encodings: Vec<Vec<u8>> = corpus.iter().map(SysState::encode).collect();
    let fingerprint_ns = per_call_ns(&encodings, |e| {
        black_box(fingerprint_bytes(e));
    });
    let mut scratch = SysState::initial(n);
    let decode_ns = per_call_ns(&encodings, |e| {
        scratch.decode_into(e, n);
        black_box(&scratch);
    });
    McCosts { steps_ns, successor_ns, canon_ns, canon_candidates, fingerprint_ns, decode_ns }
}

fn envelope(i: u32) -> Envelope {
    Envelope {
        addr: i,
        msg: Msg {
            mtype: MsgId(3),
            src: NodeId(0),
            dst: NodeId(1),
            req: NodeId(0),
            ack_count: Some(1),
            data: Some((i & 0xff) as u8),
        },
    }
}

/// `Ring::push` + `Ring::pop` on one thread, per pair.
pub fn ring_push_pop_ns() -> f64 {
    let ring = Ring::new(1024);
    let batch: Vec<Envelope> = (0..512).map(envelope).collect();
    per_call_ns(&batch, |e| {
        ring.push(*e).expect("ring has room");
        black_box(ring.pop().expect("ring holds the envelope"));
    })
}

/// One-way `Fabric::try_send` → `take_ready` + pop latency between two
/// threads, half of a measured ping-pong round trip.
pub fn fabric_handoff_ns(rounds: u32) -> f64 {
    let fabric = Fabric::new(2, 64);
    let recv = |me: usize| {
        let mut spins = 0u32;
        loop {
            if fabric.take_ready(me) != 0 {
                if let Some(e) = fabric.ring(1 - me, me).pop() {
                    return e;
                }
            }
            spins += 1;
            if spins % 4096 == 0 {
                // Lets the peer run when both threads share one core.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    };
    std::thread::scope(|s| {
        let echo = s.spawn(|| {
            for _ in 0..rounds {
                let e = recv(1);
                fabric.try_send(1, 0, e).expect("one envelope in flight");
            }
        });
        let start = Instant::now();
        for i in 0..rounds {
            fabric.try_send(0, 1, envelope(i)).expect("one envelope in flight");
            black_box(recv(0));
        }
        let t = start.elapsed().as_secs_f64();
        echo.join().expect("echo thread panicked");
        t * 1e9 / (2.0 * f64::from(rounds))
    })
}
