//! `attack`: a seeded adversarial search through the security harness.
//!
//! Randomized combined bursts — each a random hammer count at a random row-open
//! time between tRAS and the refresh-postponement cap, in the spirit of the
//! combined RowHammer + RowPress characterization — plus rotating-aggressor
//! and threshold-straddling churn are replayed at α = 1 against every tracker
//! × defense pair `ProtectionConfig::validate` accepts. Tracker eviction and the
//! charge-loss model do the work; DRAM timing, the controller and the system
//! simulator do none.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use impress_attacks::{
    AttackPattern, CombinedPattern, RotatingAggressorPattern, ThresholdStraddlingPattern,
};
use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_core::{
    AggressorAccess, Alpha, BankMitigationEngine, ChargeLossModel, SecurityHarness, SecurityReport,
};
use impress_dram::timing::{Cycle, DramTimings};
use impress_exec::par_map_with;
use impress_trackers::Eact;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::{SpanId, Tracer};
use crate::{
    guarded, ns_per, signed_ns_per, timed, Digest, Layers, Piece, Size, Summary, Workload,
    EXEC_WORKERS, WORKERS,
};

/// The CLM α the harness uses as ground truth (the paper's worst case).
pub const ALPHA: f64 = 1.0;

/// Trackers searched, in report order.
pub const TRACKERS: [TrackerChoice; 5] = [
    TrackerChoice::Graphene,
    TrackerChoice::Para,
    TrackerChoice::Mithril,
    TrackerChoice::Mint,
    TrackerChoice::Prac,
];

/// Accesses the CLM batch kernel evaluates per call (the harness's chunk).
const CLM_CHUNK: usize = 128;

/// One seeded adversarial pattern, kept as its generators so the traced run
/// can time generation alone.
#[derive(Debug, Clone)]
pub enum PatternSpec {
    /// Combined bursts: `(pattern, hammer count)` in order.
    Bursts(Vec<(CombinedPattern, u64)>),
    /// Rotating-aggressor churn for the given number of accesses.
    Rotating(RotatingAggressorPattern, u64),
    /// Threshold-straddling churn for the given number of accesses.
    Straddling(ThresholdStraddlingPattern, u64),
}

impl PatternSpec {
    /// The pattern's accesses.
    pub fn generate(&self) -> Vec<AggressorAccess> {
        match self {
            PatternSpec::Bursts(bursts) => bursts.iter().flat_map(|(p, n)| p.iter(*n)).collect(),
            PatternSpec::Rotating(p, n) => p.iter(*n).collect(),
            PatternSpec::Straddling(p, n) => p.iter(*n).collect(),
        }
    }

    /// Seeded patterns: `bursts` randomized combined-burst patterns, then
    /// `churn` rotating and `churn` straddling churn patterns, each `length`
    /// accesses. Bursts are short (1–256 accesses) so every pattern averages
    /// over many open times and a round's cost does not hinge on a few draws.
    pub fn seeded(
        seed: u64,
        bursts: usize,
        churn: usize,
        length: u64,
        timings: &DramTimings,
    ) -> Vec<Self> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xa77a);
        let cap = (1 + u64::from(timings.max_postponed_ref)) * timings.t_refi;
        let k_max = (cap - timings.t_ras) / timings.t_rc;
        let mut out = Vec::new();
        for _ in 0..bursts {
            let hot: Vec<u32> = (0..3).map(|_| rng.gen_range(1_024..=60_000)).collect();
            let mut spec = Vec::new();
            let mut total = 0;
            while total < length {
                let row = hot[rng.gen_range(0..hot.len())];
                let count = rng.gen_range(1..=256).min(length - total);
                // Half the bursts stay near pure hammering, half press up to the cap.
                let k = if rng.gen_bool(0.5) {
                    rng.gen_range(0..=4)
                } else {
                    rng.gen_range(0..=k_max)
                };
                spec.push((CombinedPattern::new(row, k, timings), count));
                total += count;
            }
            out.push(PatternSpec::Bursts(spec));
        }
        // Churn stays near pure hammering: its job is tracker eviction.
        let short_press =
            |rng: &mut SmallRng| timings.t_ras + rng.gen_range(0..=4u64) * timings.t_rc;
        for _ in 0..churn {
            let rotating = RotatingAggressorPattern::new(
                rng.gen_range(100..=30_000),
                rng.gen_range(1_024..=4_096),
                rng.gen_range(3..=8),
            )
            .with_press(short_press(&mut rng));
            out.push(PatternSpec::Rotating(rotating, length));
        }
        for _ in 0..churn {
            let straddling = ThresholdStraddlingPattern::new(
                rng.gen_range(100..=60_000),
                rng.gen_range(2..=8),
                rng.gen_range(50..=500),
                rng.gen_range(1..=16),
            )
            .with_press(short_press(&mut rng));
            out.push(PatternSpec::Straddling(straddling, length));
        }
        out
    }
}

/// Every tracker × defense pair `ProtectionConfig::validate` accepts.
pub fn pairs(timings: &DramTimings) -> Vec<ProtectionConfig> {
    let defenses = [
        DefenseKind::NoRp,
        DefenseKind::express_paper_baseline(timings),
        DefenseKind::ImpressN {
            alpha: Alpha::Conservative,
        },
        DefenseKind::impress_p_default(),
    ];
    TRACKERS
        .iter()
        .flat_map(|&t| {
            defenses
                .iter()
                .map(move |&d| ProtectionConfig::paper_default(t, d))
        })
        .filter(|c| c.validate().is_ok())
        .collect()
}

/// The attack workload's inputs.
#[derive(Debug)]
pub struct Attack {
    seed: u64,
    timings: DramTimings,
    specs: Vec<PatternSpec>,
    patterns: Vec<Vec<AggressorAccess>>,
    pairs: Vec<ProtectionConfig>,
    /// `(pattern, pair)` per operation, pattern-major.
    ops: Vec<(usize, usize)>,
}

/// One round: every operation's security report, in operation order.
#[derive(Debug)]
pub struct AttackRound {
    /// Report (or failure) of every pattern × pair.
    pub reports: Vec<Result<SecurityReport, String>>,
    /// Wall time of every pattern × pair.
    pub walls: Vec<Duration>,
}

impl Attack {
    fn replay(&self, op: usize) -> SecurityReport {
        let (p, c) = self.ops[op];
        SecurityHarness::new(&self.pairs[c], ALPHA, &self.timings)
            .run(self.patterns[p].iter().copied(), u64::MAX)
    }

    /// Replays every operation on `workers`, each inside a span `name`.
    fn run_ops(
        &self,
        workers: usize,
        tracer: &Tracer,
        name: &'static str,
        parent: Option<SpanId>,
    ) -> AttackRound {
        let indices: Vec<usize> = (0..self.ops.len()).collect();
        let (reports, walls) = par_map_with(workers, &indices, |&i| {
            timed(|| tracer.span(name, i, parent, |_| guarded(|| Ok(self.replay(i)))))
        })
        .into_iter()
        .unzip();
        AttackRound { reports, walls }
    }

    /// The open time the harness replays for `t_on` under `max_open` (its
    /// clamp: at least tRAS, at most the postponement cap and any tMRO).
    fn clamp(&self, t_on: Cycle, max_open: Option<Cycle>) -> Cycle {
        let t = &self.timings;
        let t_on = t_on.clamp(t.t_ras, (1 + u64::from(t.max_postponed_ref)) * t.t_refi);
        max_open.map_or(t_on, |m| t_on.min(m))
    }

    fn tracker_name(tracker: TrackerChoice) -> &'static str {
        match tracker {
            TrackerChoice::Graphene => "graphene",
            TrackerChoice::Para => "para",
            TrackerChoice::Mithril => "mithril",
            TrackerChoice::Mint => "mint",
            TrackerChoice::Prac => "prac",
        }
    }
}

impl Workload for Attack {
    type Round = AttackRound;

    fn setup(seed: u64, size: Size) -> Self {
        let timings = DramTimings::ddr5();
        let (bursts, churn, length) = match size {
            Size::Full => (24, 6, 3_000),
            Size::Tiny => (1, 1, 400),
        };
        let specs = PatternSpec::seeded(seed, bursts, churn, length, &timings);
        let patterns = specs.iter().map(PatternSpec::generate).collect::<Vec<_>>();
        let pairs = pairs(&timings);
        let ops = (0..patterns.len())
            .flat_map(|p| (0..pairs.len()).map(move |c| (p, c)))
            .collect();
        Self {
            seed,
            timings,
            specs,
            patterns,
            pairs,
            ops,
        }
    }

    fn round(&self, tracer: &Tracer, parent: Option<SpanId>) -> AttackRound {
        self.run_ops(WORKERS, tracer, "core::security", parent)
    }

    fn summary(&self, round: &AttackRound) -> Summary {
        let mut digest = Digest::default();
        let mut pieces = Vec::new();
        let mut failed = 0;
        for (report, &wall) in round.reports.iter().zip(&round.walls) {
            let items = match report {
                Ok(r) => {
                    digest.add(r);
                    r.accesses
                }
                Err(e) => {
                    failed += 1;
                    digest.add(e);
                    0
                }
            };
            pieces.push(Piece { items, wall });
        }
        Summary {
            pieces,
            attempted: round.reports.len() as u64,
            failed,
            digest: digest.value(),
        }
    }

    fn check(&self, round: &AttackRound) -> Vec<String> {
        let mut failures = Vec::new();
        for (report, &(p, c)) in round.reports.iter().zip(&self.ops) {
            match report {
                Ok(r) if r.accesses == self.patterns[p].len() as u64 => {}
                Ok(r) => failures.push(format!(
                    "pattern {p} vs pair {c}: {} accesses replayed of {}",
                    r.accesses,
                    self.patterns[p].len()
                )),
                Err(e) => failures.push(format!("pattern {p} vs pair {c} failed: {e}")),
            }
        }
        let i = (self.seed % self.ops.len() as u64) as usize;
        let (p, c) = self.ops[i];
        let scalar = guarded(|| {
            let mut h = SecurityHarness::new(&self.pairs[c], ALPHA, &self.timings);
            for &access in &self.patterns[p] {
                h.apply(access);
            }
            Ok(h.report())
        });
        match (&round.reports[i], scalar) {
            (Ok(a), Ok(b))
                if *a == b
                    && a.max_unmitigated_charge.to_bits() == b.max_unmitigated_charge.to_bits() => {
            }
            (Ok(_), Ok(_)) => failures.push(format!(
                "pattern {p} vs pair {c}: per-access replay differs from SecurityHarness::run"
            )),
            (_, Err(e)) => failures.push(format!("per-access replay failed: {e}")),
            (Err(_), _) => {}
        }
        failures
    }

    fn layers(&self, round: &AttackRound, tracer: &Tracer, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let ops = tracer.named("core::security");

        // The pool: the same operations on two workers, which must also
        // reproduce the round's reports.
        let pooled = tracer.span("exec", 0, None, |stage| {
            self.run_ops(EXEC_WORKERS, tracer, "exec.op", stage)
        });
        let pooled_busy = tracer.total("exec.op").as_secs_f64();
        let stage_wall = tracer.total("exec").as_secs_f64();
        out.set(
            "exec.idle_frac",
            1.0 - pooled_busy / (EXEC_WORKERS as f64 * stage_wall),
        );
        if pooled.reports != round.reports {
            failures.push(format!(
                "attack reports on {EXEC_WORKERS} workers differ from the round's"
            ));
        }

        let generated: u64 = self
            .specs
            .iter()
            .enumerate()
            .map(|(p, spec)| {
                tracer.span("attacks", p, None, |_| {
                    black_box(spec.generate()).len() as u64
                })
            })
            .sum();
        out.set(
            "attacks.ns_per_access",
            ns_per(tracer.total("attacks"), generated),
        );

        // The CLM and tracker stages decompose each harness replay, so they
        // are recorded as its children; the harness's self time is the rest.
        // The tracker stage replays only `record`, at k·tRC rather than the
        // harness's clock, so that rest also holds `BankMitigationEngine` and
        // the tracker's RFM and refresh-window calls.
        let clm = ChargeLossModel::new(ALPHA, &self.timings);
        let mut charge = vec![0.0f64; CLM_CHUNK];
        // Per tracker: (accesses, tracker ns, harness self ns).
        let mut per_tracker: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, &(p, c)) in self.ops.iter().enumerate() {
            let parent = ops.get(i).map(|s| s.id);
            let config = &self.pairs[c];
            let max_open = BankMitigationEngine::new(config, &self.timings).max_row_open();
            let open: Vec<Cycle> = self.patterns[p]
                .iter()
                .map(|a| self.clamp(a.t_on, max_open))
                .collect();
            tracer.span("core::clm", i, parent, |_| {
                for chunk in open.chunks(CLM_CHUNK) {
                    clm.charge_loss_batch(chunk, &mut charge[..chunk.len()]);
                    black_box(&charge);
                }
            });
            let frac_bits = config.defense.tracker_frac_bits();
            let eacts: Vec<Eact> = open
                .iter()
                .map(|&t_on| {
                    if frac_bits > 0 {
                        Eact::from_open_time(t_on, self.timings.t_pre, self.timings.t_rc, frac_bits)
                    } else {
                        Eact::ONE
                    }
                })
                .collect();
            let mut tracker = config.build_tracker(&self.timings);
            let start = Instant::now();
            tracer.span("trackers", i, parent, |_| {
                for (k, (access, &eact)) in self.patterns[p].iter().zip(&eacts).enumerate() {
                    black_box(tracker.record(access.row, eact, k as Cycle * self.timings.t_rc));
                }
            });
            let tracker_ns = start.elapsed().as_nanos() as f64;
            let e = per_tracker
                .entry(Self::tracker_name(config.tracker))
                .or_default();
            e.0 += self.patterns[p].len() as u64;
            e.1 += tracker_ns;
            e.2 += parent.map_or(0.0, |id| tracer.self_ns(id));
        }
        let accesses: u64 = per_tracker.values().map(|e| e.0).sum();
        out.set(
            "clm.ns_per_access",
            ns_per(tracer.total("core::clm"), accesses),
        );
        for (name, &(n, tracker_ns, harness_ns)) in &per_tracker {
            out.set(
                &format!("tracker.ns_per_record.{name}"),
                signed_ns_per(tracker_ns, n),
            );
            out.set(
                &format!("security.ns_per_access.{name}"),
                signed_ns_per(harness_ns, n),
            );
        }

        let mut mitigations = 0u64;
        let mut max_charge = 0.0f64;
        let mut violations = 0u64;
        for (report, &(_, c)) in round.reports.iter().zip(&self.ops) {
            let Ok(r) = report else { continue };
            mitigations += r.mitigations;
            if matches!(self.pairs[c].defense, DefenseKind::ImpressP { .. }) {
                max_charge = max_charge.max(r.max_unmitigated_charge);
                violations += u64::from(r.bit_flipped());
            }
        }
        out.set("security.mitigations", mitigations as f64);
        out.set("security.max_charge", max_charge);
        out.set("security.bound_violations", violations as f64);
        failures
    }
}
