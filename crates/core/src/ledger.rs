//! The cost ledger: every modeled cost an [`Engine`](crate::engine::Engine)
//! run accrues, and the one schedule walk that prices it.
//!
//! The engine's device side (crossbars, fault recovery, buffers) executes
//! operations; the ledger records what they cost. It holds the committed
//! [`BlockCost`]s in stream order, the open block, the out-of-block
//! controller extras, per-phase operation counts, the useful-work count
//! and the rows-per-MAC histogram.
//!
//! Timing is a function of the ledger alone. [`Ledger::walk`] replays the
//! controller's block schedule (paper §III-B) under the configured
//! [`SchedulePolicy`] — double-buffered waves through a
//! [`PipelineClock`], or event-driven dispatch through a
//! [`BankScheduler`] — and hands every block's bank and compute start to
//! a visitor. The makespan, the per-bank dispatch events and the
//! bank-occupancy timeline all consume that one walk, and the wave
//! overlap ratio shares its per-wave stage times.
//!
//! Ledgers compose. The sharded layer drains each shard's committed
//! costs as a [`Segment`], appends the segments to the primary's ledger
//! in stream order, and [`merge`](Ledger::merge)s each worker's counters,
//! so the merged walk is the serial one.

use gaasx_sim::des::{BankScheduler, SchedulePolicy};
use gaasx_sim::pipeline::{pipelined_makespan, serial_makespan, PhasePipe, PipelineClock};
use gaasx_sim::timeline::{COMPUTE_LANE, LOAD_LANE, SEARCH_LANE};
use gaasx_sim::{
    attribute_makespan, Histogram, Nanos, Phase, PhaseBreakdown, Timeline, Tracer, CONTROLLER_BANK,
};

use crate::config::GaasXConfig;

/// The modeled cost of one block: its load, and its compute split by
/// phase.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCost {
    stream_bytes: u64,
    program_ns: Nanos,
    compute_ns: Nanos,
    /// Partition of `compute_ns` by [`Phase`] (indexed by `Phase::index`).
    /// Scheduling consumes the total; phase attribution the split.
    compute_phase_ns: [Nanos; 7],
    /// Per-operation `(phase, ns)` ledger in issue order, kept only when
    /// the attached tracer observes timeline intervals. Timeline
    /// construction replays it to lay each compute op on its bank's
    /// occupancy track; summing the entries per phase reproduces
    /// `compute_phase_ns` bit-exactly (same accumulation order).
    ops: Vec<(Phase, Nanos)>,
    /// Intra-block search/MAC overlap clock, fed one op at a time as the
    /// ledger accrues. Its makespan is the block's *pipelined* compute
    /// time, which scheduling consumes; `compute_ns` stays the serial sum
    /// so phase attribution and busy conservation are untouched by the
    /// overlap model.
    pipe: PhasePipe,
}

impl BlockCost {
    fn add_phase(&mut self, phase: Phase, ns: Nanos, record_op: bool) {
        self.compute_ns += ns;
        self.compute_phase_ns[phase.index()] += ns;
        if phase == Phase::CamSearch {
            self.pipe.search(ns.ns());
        } else {
            self.pipe.compute(ns.ns());
        }
        if record_op {
            self.ops.push((phase, ns));
        }
    }

    /// The block's compute time under the search/MAC overlap pipeline.
    /// For blocks without CAM searches this equals `compute_ns` bit-for-
    /// bit (the pipe accumulates the same f64 sum in the same order).
    fn pipelined_compute_ns(&self) -> Nanos {
        Nanos::from_ns(self.pipe.makespan())
    }

    /// Stream plus row-programming time: the block's load, as one sum.
    fn load_ns(&self, config: &GaasXConfig) -> Nanos {
        config.stream_ns(self.stream_bytes) + self.program_ns
    }
}

/// Committed block costs drained from one ledger, in stream order.
pub(crate) type Segment = Vec<BlockCost>;

/// Where the schedule placed one committed block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    /// Position in the committed stream.
    pub(crate) block: usize,
    /// The block's wave under [`SchedulePolicy::Waves`].
    pub(crate) wave: Option<usize>,
    /// The bank that ran the block.
    pub(crate) bank: u32,
    /// When the bank starts computing the block; its load ends here.
    pub(crate) compute_start: Nanos,
}

/// One wave's pipeline stage times. Streaming is serial within a wave and
/// row programming bank-parallel, so the load stage is the longer of the
/// summed streams and the slowest program; the slowest bank's compute
/// paces the compute stage.
struct WaveStage {
    load: Nanos,
    /// Slowest search/MAC-pipelined compute: what the schedule bills.
    compute: Nanos,
    /// Slowest serial compute: the no-overlap reference.
    serial_compute: Nanos,
}

impl WaveStage {
    fn of(wave: &[BlockCost], config: &GaasXConfig) -> Self {
        let stream: Nanos = wave.iter().map(|b| config.stream_ns(b.stream_bytes)).sum();
        let slowest = |f: fn(&BlockCost) -> Nanos| wave.iter().map(f).fold(Nanos::ZERO, Nanos::max);
        WaveStage {
            load: stream.max(slowest(|b| b.program_ns)),
            compute: slowest(BlockCost::pipelined_compute_ns),
            serial_compute: slowest(|b| b.compute_ns),
        }
    }
}

/// Every modeled cost of a run (see the module docs).
#[derive(Debug)]
pub(crate) struct Ledger {
    costs: Vec<BlockCost>,
    /// The block being loaded or computed. Searches and edge-array MACs
    /// bill it even before the first load opens it (they then join the
    /// next block).
    open: BlockCost,
    in_block: bool,
    /// Controller work outside any block: serial time, and its split by
    /// phase.
    extra_ns: Nanos,
    extra_phase_ns: [Nanos; 7],
    /// Attribute-row loading the crossbar stats never see.
    extra_aux_row_writes: u64,
    extra_aux_cells: u64,
    phase_counts: [u64; 7],
    compute_items: u64,
    rows_per_mac: Histogram,
}

impl Ledger {
    /// An empty ledger whose rows-per-MAC histogram spans bursts of up to
    /// `max_active_rows` rows.
    pub(crate) fn new(max_active_rows: usize) -> Self {
        Ledger {
            costs: Vec::new(),
            open: BlockCost::default(),
            in_block: false,
            extra_ns: Nanos::ZERO,
            extra_phase_ns: [Nanos::ZERO; 7],
            extra_aux_row_writes: 0,
            extra_aux_cells: 0,
            phase_counts: [0; 7],
            compute_items: 0,
            rows_per_mac: Histogram::new(max_active_rows),
        }
    }

    /// Commits any open block and opens the next one (a block load).
    pub(crate) fn open_block(&mut self) {
        self.end_block();
        self.in_block = true;
    }

    /// Sets the open block's load: bytes streamed and row-programming
    /// time.
    pub(crate) fn set_load(&mut self, stream_bytes: u64, program_ns: Nanos) {
        self.open.stream_bytes = stream_bytes;
        self.open.program_ns = program_ns;
    }

    /// Commits the open block, if any, to the schedule.
    pub(crate) fn end_block(&mut self) {
        if self.in_block {
            self.costs.push(std::mem::take(&mut self.open));
            self.in_block = false;
        }
    }

    /// Bills one compute operation to the open block; `record_op` keeps
    /// it in the block's per-operation ledger for the timeline.
    pub(crate) fn charge_block(&mut self, phase: Phase, ns: Nanos, record_op: bool) {
        self.open.add_phase(phase, ns, record_op);
    }

    /// Bills one compute operation to the open block, or to the
    /// controller extras when no block is open.
    pub(crate) fn charge(&mut self, phase: Phase, ns: Nanos, record_op: bool) {
        if self.in_block {
            self.open.add_phase(phase, ns, record_op);
        } else {
            self.extra_ns += ns;
            self.extra_phase_ns[phase.index()] += ns;
        }
    }

    /// Bills row programming to the open block's load, or to the
    /// controller's loading when no block is open.
    pub(crate) fn charge_program(&mut self, ns: Nanos) {
        if self.in_block {
            self.open.program_ns += ns;
        } else {
            self.extra_ns += ns;
            self.extra_phase_ns[Phase::LoadBlock.index()] += ns;
        }
    }

    /// Counts one operation of `phase`.
    pub(crate) fn count_op(&mut self, phase: Phase) {
        let count = &mut self.phase_counts[phase.index()];
        *count = count.saturating_add(1);
    }

    /// Records one MAC burst over `rows` activated rows: that many useful
    /// edge computations, and one histogram sample (at least one row).
    pub(crate) fn mac_burst(&mut self, rows: usize) {
        self.rows_per_mac.record(rows.max(1));
        self.compute_items = self.compute_items.saturating_add(rows as u64);
    }

    /// Records attribute-row loading of `rows` rows and `cells` cells.
    pub(crate) fn aux_writes(&mut self, rows: u64, cells: u64) {
        self.extra_aux_row_writes = self.extra_aux_row_writes.saturating_add(rows);
        self.extra_aux_cells = self.extra_aux_cells.saturating_add(cells);
    }

    /// Drains the committed block costs, committing any open block first.
    pub(crate) fn take_segment(&mut self) -> Segment {
        self.end_block();
        std::mem::take(&mut self.costs)
    }

    /// Appends a segment drained from another ledger after the committed
    /// blocks.
    pub(crate) fn append(&mut self, segment: Segment) {
        debug_assert!(!self.in_block, "commit the open block first");
        self.costs.extend(segment);
    }

    /// Adds a drained ledger's counters and controller extras to these.
    pub(crate) fn merge(&mut self, other: &Ledger) {
        debug_assert!(
            !other.in_block && other.costs.is_empty(),
            "drain the ledger's segment before merging it"
        );
        self.extra_ns += other.extra_ns;
        for (acc, v) in self.extra_phase_ns.iter_mut().zip(&other.extra_phase_ns) {
            *acc += *v;
        }
        self.aux_writes(other.extra_aux_row_writes, other.extra_aux_cells);
        for (acc, v) in self.phase_counts.iter_mut().zip(&other.phase_counts) {
            *acc = acc.saturating_add(*v);
        }
        self.compute_items = self.compute_items.saturating_add(other.compute_items);
        self.rows_per_mac.merge(&other.rows_per_mac);
    }

    /// Useful edge computations so far.
    pub(crate) fn compute_items(&self) -> u64 {
        self.compute_items
    }

    /// Attribute rows loaded outside the crossbar stats.
    pub(crate) fn aux_row_writes(&self) -> u64 {
        self.extra_aux_row_writes
    }

    /// Attribute cells programmed outside the crossbar stats.
    pub(crate) fn aux_cells(&self) -> u64 {
        self.extra_aux_cells
    }

    /// The rows-per-MAC histogram.
    pub(crate) fn rows_per_mac(&self) -> &Histogram {
        &self.rows_per_mac
    }

    /// Per-phase busy totals (serial time per phase) over the committed
    /// blocks plus the controller extras. `LoadBlock` busy is each
    /// block's stream time plus its row-programming time.
    pub(crate) fn phase_busy_ns(&self, config: &GaasXConfig) -> [Nanos; 7] {
        let mut busy = self.extra_phase_ns;
        for b in &self.costs {
            busy[Phase::LoadBlock.index()] += b.load_ns(config);
            for (acc, ns) in busy.iter_mut().zip(b.compute_phase_ns.iter()) {
                *acc += *ns;
            }
        }
        busy
    }

    /// Attributes `makespan` to the pipeline phases in proportion to
    /// their `busy` time; the shares sum to `makespan` exactly.
    pub(crate) fn attribute(&self, makespan: Nanos, busy: &[Nanos; 7]) -> Vec<PhaseBreakdown> {
        let tallies: Vec<(Phase, Nanos, u64)> = Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Dispatch)
            .map(|&p| (p, busy[p.index()], self.phase_counts[p.index()]))
            .collect();
        attribute_makespan(makespan, &tallies)
    }

    /// The schedule walk: places every committed block under
    /// `config.scheduler`, calls `visit` with each block and its
    /// placement in stream order, and returns the makespan (the
    /// schedule plus the serial controller extras). It allocates no
    /// per-block state.
    ///
    /// Waves fill the `num_banks` banks with consecutive blocks (bank =
    /// position in the wave) and overlap each wave's load with the
    /// previous wave's compute; a wave's blocks all start computing when
    /// its compute stage does. Event-driven dispatch streams blocks one
    /// at a time to the earliest-free bank, which programs then computes
    /// each.
    pub(crate) fn walk(
        &self,
        config: &GaasXConfig,
        mut visit: impl FnMut(&BlockCost, Placement),
    ) -> Nanos {
        let banks = config.num_banks.max(1);
        let schedule = match config.scheduler {
            SchedulePolicy::Waves => {
                let mut clock = PipelineClock::new();
                for (w, wave) in self.costs.chunks(banks).enumerate() {
                    let stage = WaveStage::of(wave, config);
                    let done = clock.advance(stage.load.ns(), stage.compute.ns());
                    let compute_start = Nanos::from_ns(done) - stage.compute;
                    for (i, b) in wave.iter().enumerate() {
                        let placement = Placement {
                            block: w * banks + i,
                            wave: Some(w),
                            bank: i as u32,
                            compute_start,
                        };
                        visit(b, placement);
                    }
                }
                Nanos::from_ns(clock.makespan())
            }
            SchedulePolicy::EventDriven => {
                let mut sched = BankScheduler::new(banks);
                for (block, b) in self.costs.iter().enumerate() {
                    let compute = b.pipelined_compute_ns();
                    let d = sched.dispatch(config.stream_ns(b.stream_bytes), b.program_ns, compute);
                    let placement = Placement {
                        block,
                        wave: None,
                        bank: d.bank,
                        compute_start: d.done_ns - compute,
                    };
                    visit(b, placement);
                }
                sched.makespan()
            }
        };
        schedule + self.extra_ns
    }

    /// The scheduled makespan of the committed blocks plus the controller
    /// extras.
    pub(crate) fn makespan_ns(&self, config: &GaasXConfig) -> Nanos {
        self.walk(config, |_, _| {})
    }

    /// Emits one [`Phase::Dispatch`] span per block on the *scheduled*
    /// time axis (operation spans live on the serial functional axis):
    /// the block's bank occupancy, from the start of its row programming
    /// to the end of its pipelined compute.
    pub(crate) fn emit_dispatch_events(&self, config: &GaasXConfig, tracer: &Tracer) {
        self.walk(config, |b, p| {
            let start = (p.compute_start - b.program_ns).ns().max(0.0);
            let mut span = tracer
                .span(Phase::Dispatch, start)
                .bank(p.bank)
                .attr("block", p.block);
            if let Some(wave) = p.wave {
                span = span.attr("wave", wave);
            }
            span.end((p.compute_start + b.pipelined_compute_ns()).ns());
        });
    }

    /// Replays the schedule into a bank-occupancy [`Timeline`] of the
    /// given makespan: controller extras first (one interval per phase on
    /// the synthetic controller track), then each block's load and
    /// compute intervals at its placement. Folding the result per phase
    /// reproduces [`Ledger::phase_busy_ns`] bit-exactly.
    ///
    /// Per block, a single load interval (the same one-term sum the busy
    /// fold uses) ends where compute starts; the per-operation ledger is
    /// then replayed through a fresh [`PhasePipe`], CAM searches on
    /// [`SEARCH_LANE`] and everything else on [`COMPUTE_LANE`], each at
    /// the start the pipe assigned — the same overlap the makespan
    /// billed. Intervals are pushed in op order and each lane's starts
    /// are monotone, so [`Timeline::push`]'s cursor clamp shifts nothing.
    pub(crate) fn timeline(&self, config: &GaasXConfig, makespan: Nanos) -> Timeline {
        let mut tl = Timeline::new(makespan);
        for phase in Phase::ALL {
            let ns = self.extra_phase_ns[phase.index()];
            tl.push(CONTROLLER_BANK, LOAD_LANE, phase, Nanos::ZERO, ns, None);
        }
        self.walk(config, |b, p| {
            let block = Some(p.block as u32);
            let load_ns = b.load_ns(config);
            let load_start = p.compute_start - load_ns;
            tl.push(
                p.bank,
                LOAD_LANE,
                Phase::LoadBlock,
                load_start,
                load_ns,
                block,
            );
            let mut pipe = PhasePipe::new();
            for &(phase, ns) in &b.ops {
                let (lane, start) = if phase == Phase::CamSearch {
                    (SEARCH_LANE, pipe.search(ns.ns()))
                } else {
                    (COMPUTE_LANE, pipe.compute(ns.ns()))
                };
                let start = p.compute_start + Nanos::from_ns(start);
                tl.push(p.bank, lane, phase, start, ns, block);
            }
        });
        tl
    }

    /// How much of the fully serial wave makespan the pipelines hide:
    /// `(serial − pipelined) / serial`, 0 when there is nothing to
    /// overlap. The serial side sums unpipelined loads and *serial*
    /// per-wave compute; the pipelined side double-buffers the loads
    /// against the waves' search/MAC-overlapped compute, so the ratio
    /// captures both overlap mechanisms (and is positive even for a
    /// single wave whose blocks overlapped searches with MACs). Always
    /// evaluated on the wave stages, whatever the configured scheduler,
    /// so it is comparable across policies.
    pub(crate) fn wave_overlap_ratio(&self, config: &GaasXConfig) -> f64 {
        let stages: Vec<WaveStage> = self
            .costs
            .chunks(config.num_banks.max(1))
            .map(|wave| WaveStage::of(wave, config))
            .collect();
        let ns = |f: fn(&WaveStage) -> Nanos| stages.iter().map(|s| f(s).ns()).collect::<Vec<_>>();
        let loads = ns(|s| s.load);
        let serial = serial_makespan(&loads, &ns(|s| s.serial_compute));
        if serial <= 0.0 {
            return 0.0;
        }
        (serial - pipelined_makespan(&loads, &ns(|s| s.compute))) / serial
    }
}
