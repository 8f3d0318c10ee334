//! The hedged engine: race two solvers, keep the first acceptable
//! answer, cancel the loser.
//!
//! The replication-queueing literature (Sun/Koksal/Shroff; Wang/Joshi/
//! Wornell) shows that for latency distributions with heavy tails the
//! serving layer itself should replicate work: start redundant
//! attempts, take whichever finishes first, kill the rest. Our comm-
//! aware traffic is exactly that shape — `comm-bb` proves optimality in
//! milliseconds on most instances but occasionally burns its whole
//! node/time budget, while `comm-heuristic` is uniformly fast but never
//! proven. [`HedgedEngine`] races the two (the pair is configurable)
//! and settles by a simple policy:
//!
//! 1. **A proven-optimal result wins immediately** — nothing can beat
//!    it, so the race settles and the loser's [`CancelToken`] is
//!    cancelled.
//! 2. **A heuristic result opens a grace window** of
//!    [`Budget::hedge_delay_ms`]: if the other racer delivers a proven
//!    result inside the window, the proof is preferred even though it
//!    finished second. When the window expires the heuristic answer is
//!    taken and the still-running racer is cancelled.
//! 3. **A failed racer defers** to the other one unconditionally (no
//!    window).
//!
//! Cancellation uses the registry's existing semantics: the token is a
//! pre-start gate (a racer still queued fails fast with
//! [`SolveError::Cancelled`]), and a `comm-bb` racer that already
//! started remains bounded by its own `bb_node_limit` /
//! `bb_time_limit_ms` — the race never leaks unbounded work.
//!
//! **Determinism and caching.** Which racer wins is timing-dependent,
//! so a hedged result is only deterministic when it is proven (the
//! proven answer is unique-valued and `comm-bb` itself is
//! deterministic). A non-proven hedged winner therefore carries
//! [`SearchStats`] with `completed == false`, which makes the serving
//! layer's no-cache-on-incomplete rule skip the write-back — a
//! load-dependent answer is never frozen into the solve cache.
//!
//! The racers run on the engine's own small [`WorkerPool`] (spawned
//! lazily on the first hedged solve), not the service pool: a race must
//! never compete with the foreground requests it is trying to
//! accelerate, and keeping the pools separate also rules out the
//! deadlock where a race waits on a pool whose workers wait on the
//! race.
//!
//! [`Budget::hedge_delay_ms`]: crate::Budget::hedge_delay_ms
//! [`SearchStats`]: crate::SearchStats

use crate::engine::{Engine, EngineRun};
use crate::engines::{CommBbEngine, HeuristicEngine};
use crate::pool::WorkerPool;
use crate::report::SolveError;
use crate::request::{Budget, CancelToken};
use repliflow_core::instance::{CostModel, ProblemInstance};
use repliflow_sync::sync::atomic::{AtomicU64, Ordering};
use repliflow_sync::sync::mpsc::{self, RecvTimeoutError};
use repliflow_sync::sync::{Arc, OnceLock};
use std::time::Duration;

/// Lifetime counters of a [`HedgedEngine`] (exposed through
/// `ServiceStats::hedge` and the daemon's `stats` verb).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HedgeStats {
    /// Races run (one per hedged solve that actually raced).
    pub races: u64,
    /// Races settled with the primary racer's result (`comm-bb` in the
    /// default pair).
    pub primary_wins: u64,
    /// Races settled with the secondary racer's result
    /// (`comm-heuristic` in the default pair).
    pub secondary_wins: u64,
    /// Losing racers that were still outstanding when the race settled
    /// and had their [`CancelToken`] cancelled (a loser that had
    /// already finished is not counted — there was nothing to cancel).
    pub losers_cancelled: u64,
    /// Races where the proven result arrived *inside the grace window*
    /// and overtook an earlier heuristic result.
    pub window_rescues: u64,
}

/// An engine that races a primary solver against a secondary one and
/// settles per the module-level policy. The default pair is
/// [`CommBbEngine`] (primary, can prove optimality) vs
/// [`HeuristicEngine::COMM`] (secondary, uniformly fast); any two
/// engines can be raced via [`HedgedEngine::with_pair`].
pub struct HedgedEngine {
    primary: Arc<dyn Engine + Send + Sync>,
    secondary: Arc<dyn Engine + Send + Sync>,
    pool: OnceLock<WorkerPool>,
    races: AtomicU64,
    primary_wins: AtomicU64,
    secondary_wins: AtomicU64,
    losers_cancelled: AtomicU64,
    window_rescues: AtomicU64,
}

impl std::fmt::Debug for HedgedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HedgedEngine")
            .field("primary", &self.primary.name())
            .field("secondary", &self.secondary.name())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for HedgedEngine {
    fn default() -> Self {
        HedgedEngine::with_pair(Arc::new(CommBbEngine), Arc::new(HeuristicEngine::COMM))
    }
}

impl HedgedEngine {
    /// A hedged engine racing an explicit pair. `primary` is the racer
    /// whose wins count as [`HedgeStats::primary_wins`] — by convention
    /// the one that can prove optimality.
    pub fn with_pair(
        primary: Arc<dyn Engine + Send + Sync>,
        secondary: Arc<dyn Engine + Send + Sync>,
    ) -> HedgedEngine {
        HedgedEngine {
            primary,
            secondary,
            pool: OnceLock::new(),
            races: AtomicU64::new(0),
            primary_wins: AtomicU64::new(0),
            secondary_wins: AtomicU64::new(0),
            losers_cancelled: AtomicU64::new(0),
            window_rescues: AtomicU64::new(0),
        }
    }

    /// Snapshot of the race counters.
    pub fn stats(&self) -> HedgeStats {
        HedgeStats {
            // relaxed: independent monotone stat counters — the
            // snapshot is advisory and needs no cross-counter
            // consistency.
            races: self.races.load(Ordering::Relaxed),
            primary_wins: self.primary_wins.load(Ordering::Relaxed),
            // relaxed: as above — advisory stat counters.
            secondary_wins: self.secondary_wins.load(Ordering::Relaxed),
            losers_cancelled: self.losers_cancelled.load(Ordering::Relaxed),
            window_rescues: self.window_rescues.load(Ordering::Relaxed),
        }
    }

    /// The racer pool: two jobs per race, sized to the machine so
    /// concurrent hedged requests still race in parallel.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| {
            let workers = repliflow_sync::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .max(2);
            WorkerPool::new(workers)
        })
    }

    /// Records a win for racer `index` and, when the loser is still
    /// outstanding, cancels it.
    fn settle(&self, index: usize, loser_outstanding: bool, loser_token: &CancelToken) {
        // relaxed: stat counters only — no other memory is published
        // through them; winner selection is decided by the mpsc
        // channel, not these counts.
        match index {
            0 => self.primary_wins.fetch_add(1, Ordering::Relaxed),
            _ => self.secondary_wins.fetch_add(1, Ordering::Relaxed),
        };
        if loser_outstanding {
            loser_token.cancel();
            // relaxed: stat counter only (see above).
            self.losers_cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks a non-proven race outcome as non-cacheable: the winner is
    /// timing-dependent, so the serving layer's no-cache-on-incomplete
    /// rule must apply (see the module docs).
    fn guard_nondeterminism(mut run: EngineRun) -> EngineRun {
        if !run.optimal {
            let mut search = run.search.unwrap_or_default();
            search.completed = false;
            run.search = Some(search);
        }
        run
    }
}

impl Engine for HedgedEngine {
    fn name(&self) -> &'static str {
        "hedged"
    }

    fn solve(&self, instance: &ProblemInstance, budget: &Budget) -> Result<EngineRun, SolveError> {
        if !matches!(instance.cost_model, CostModel::WithComm { .. }) {
            // Simplified-model cells have a cheap proven route already;
            // racing would only burn a worker.
            return Err(SolveError::Unsupported {
                engine: self.name(),
                variant: instance.variant(),
            });
        }
        let (tx, rx) = mpsc::channel::<(usize, Result<EngineRun, SolveError>)>();
        let tokens = [CancelToken::new(), CancelToken::new()];
        for (i, engine) in [Arc::clone(&self.primary), Arc::clone(&self.secondary)]
            .into_iter()
            .enumerate()
        {
            let tx = tx.clone();
            let token = tokens[i].clone();
            let instance = instance.clone();
            let budget = *budget;
            self.pool().submit(move || {
                // The pre-start cancellation gate — a racer whose race
                // already settled while it sat in the queue never runs.
                let result = if token.is_cancelled() {
                    Err(SolveError::Cancelled)
                } else {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.solve(&instance, &budget)
                    }))
                    .unwrap_or(Err(SolveError::EnginePanicked))
                };
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        // relaxed: stat counter only — nothing synchronizes on it.
        self.races.fetch_add(1, Ordering::Relaxed);

        let Ok((first_i, first)) = rx.recv() else {
            return Err(SolveError::EnginePanicked);
        };
        let loser_i = 1 - first_i;
        match first {
            // A proven result is unbeatable: settle immediately. The
            // loser counts as cancelled only when it has not already
            // reported (nothing to cancel otherwise).
            Ok(run) if run.optimal => {
                let loser_finished = rx.try_recv().is_ok();
                self.settle(first_i, !loser_finished, &tokens[loser_i]);
                Ok(run)
            }
            // A heuristic result opens the grace window for a proof.
            Ok(run) => {
                let window = Duration::from_millis(budget.hedge_delay_ms);
                match rx.recv_timeout(window) {
                    Ok((second_i, Ok(second))) if second.optimal => {
                        self.settle(second_i, false, &tokens[first_i]);
                        // relaxed: stat counter only (see settle).
                        self.window_rescues.fetch_add(1, Ordering::Relaxed);
                        Ok(second)
                    }
                    // The loser finished inside the window without a
                    // proof (or failed): first acceptable result wins.
                    Ok(_) => {
                        self.settle(first_i, false, &tokens[loser_i]);
                        Ok(Self::guard_nondeterminism(run))
                    }
                    // Window expired with the loser still running.
                    Err(RecvTimeoutError::Timeout) => {
                        self.settle(first_i, true, &tokens[loser_i]);
                        Ok(Self::guard_nondeterminism(run))
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        self.settle(first_i, false, &tokens[loser_i]);
                        Ok(Self::guard_nondeterminism(run))
                    }
                }
            }
            // The first racer failed: the race rides on the other one.
            Err(first_err) => match rx.recv() {
                Ok((second_i, Ok(run))) => {
                    self.settle(second_i, false, &tokens[first_i]);
                    Ok(Self::guard_nondeterminism(run))
                }
                // Both racers failed: prefer the primary's error (the
                // authoritative engine of the pair).
                Ok((_, Err(second_err))) => Err(if first_i == 0 { first_err } else { second_err }),
                Err(_) => Err(first_err),
            },
        }
    }
}
