//! The static model: task nodes, endpoints, barriers — and the
//! [`Recorder`] that captures the tasks through the [`Submitter`] seam
//! and the barriers from the loop that drives it.

use taskrt::{Access, CommIntent, Region, Submitter, TaskSpec};

/// Where in the modeled schedule an event was recorded. Purely
/// diagnostic — the passes derive ordering from the graph, not from
/// this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCtx {
    /// Mesh epoch (0 = initial mesh, +1 per modeled regrid).
    pub epoch: u32,
    /// Modeled stage counter (monotonic across timesteps).
    pub stage: u32,
    /// Variable group within the stage.
    pub group: u32,
}

/// A blocking point in a rank's recorded stream, issued by the loop that
/// drives the elaboration.
#[derive(Debug, Clone)]
pub enum BarrierKind {
    /// `taskwait`: the submitting thread blocks until every previously
    /// submitted task has released its dependencies.
    Taskwait,
    /// `taskwait_on`: blocks only until the listed regions are quiescent
    /// (implemented by the runtime as a max-priority `inout` waiter
    /// task, so statically it behaves like one).
    TaskwaitOn(Vec<Region>),
}

/// One recorded event of a rank's submission stream.
#[derive(Debug, Clone)]
pub enum Event<W> {
    /// A task specification, in spawn order.
    Task(TaskSpec<W>, SchedCtx),
    /// A main-thread barrier.
    Barrier(BarrierKind, SchedCtx),
}

/// The static consumer of the submission seam: records specs and
/// barriers verbatim; executes nothing.
#[derive(Debug)]
pub struct Recorder<W> {
    /// Scheduling context stamped onto subsequent events; the elaborator
    /// updates it between phases.
    pub ctx: SchedCtx,
    /// The recorded stream.
    pub stream: Vec<Event<W>>,
}

impl<W> Default for Recorder<W> {
    fn default() -> Self {
        Recorder {
            ctx: SchedCtx::default(),
            stream: Vec::new(),
        }
    }
}

impl<W> Recorder<W> {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a barrier issued by the submitting thread.
    pub fn barrier(&mut self, kind: BarrierKind) {
        self.stream.push(Event::Barrier(kind, self.ctx));
    }
}

impl<W> Submitter<W> for Recorder<W> {
    fn submit(&mut self, spec: TaskSpec<W>) {
        self.stream.push(Event::Task(spec, self.ctx));
    }
}

/// How a node behaves in the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular task: ordered only by conflicting declared accesses.
    Task,
    /// `taskwait`: waits for *every* prior task of the rank; everything
    /// submitted later is ordered after it (main thread blocked).
    TaskwaitAll,
    /// `taskwait_on`: waits only for conflicting prior tasks (its
    /// accesses are the waited regions, `inout` — exactly how the
    /// runtime implements it); everything submitted later is still
    /// ordered after it.
    TaskwaitOn,
}

/// One node of the model (task or barrier).
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// Owning rank.
    pub rank: usize,
    /// Per-rank program (spawn) order.
    pub seq: usize,
    /// Graph behavior.
    pub kind: NodeKind,
    /// Task label (`"recv"`, `"pack"`, `"taskwait"`, ...).
    pub label: &'static str,
    /// Scheduling priority (diagnostic only).
    pub priority: i32,
    /// Declared accesses (for barriers: the waited regions).
    pub accesses: Vec<Access>,
    /// Message endpoint, if the task communicates.
    pub comm: Option<CommIntent>,
    /// Actual accesses the body is known to perform, when the elaborator
    /// can derive them independently (comm-path buffer footprints).
    /// Checked for coverage against `accesses`; empty = trust declared.
    pub footprint: Vec<Access>,
    /// Scheduling context (diagnostics).
    pub ctx: SchedCtx,
    /// Human site description ("msg 3 xdir chunk 1", block id, ...).
    pub detail: String,
}

/// Aggregate model statistics (reported, and used for budget checks).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelStats {
    /// Number of ranks modeled.
    pub ranks: usize,
    /// Total nodes (tasks + barriers).
    pub nodes: usize,
    /// Intra-rank dependency/barrier edges (filled after graph build).
    pub edges: usize,
    /// Message endpoints (sends + receives).
    pub endpoints: usize,
    /// Mesh epochs modeled.
    pub epochs: usize,
}

/// The whole-scenario model: every rank's node list, globally indexed.
#[derive(Debug, Default)]
pub struct Model {
    /// All nodes; a node's global id is its index here.
    pub nodes: Vec<TaskNode>,
    /// Node ids per rank, in program order.
    pub by_rank: Vec<Vec<usize>>,
    /// Mesh epochs folded into this model.
    pub epochs: usize,
}

impl Model {
    /// Ingests one rank's recorded stream. `describe` renders the
    /// variant-specific work payload into a human site description, and
    /// `touches` derives what a task's body touches: its footprint.
    pub fn ingest<W>(
        &mut self,
        rank: usize,
        stream: Vec<Event<W>>,
        describe: &dyn Fn(&W) -> String,
        touches: &dyn Fn(&TaskSpec<W>, &SchedCtx) -> Vec<Access>,
    ) {
        while self.by_rank.len() <= rank {
            self.by_rank.push(Vec::new());
        }
        for ev in stream {
            let seq = self.by_rank[rank].len();
            let node = match ev {
                Event::Task(spec, ctx) => TaskNode {
                    rank,
                    seq,
                    kind: NodeKind::Task,
                    footprint: touches(&spec, &ctx),
                    detail: describe(&spec.work),
                    label: spec.label,
                    priority: spec.priority,
                    accesses: spec.accesses.into_vec(),
                    comm: spec.comm,
                    ctx,
                },
                Event::Barrier(kind, ctx) => {
                    let (kind, label, accesses) = match kind {
                        BarrierKind::Taskwait => (NodeKind::TaskwaitAll, "taskwait", Vec::new()),
                        BarrierKind::TaskwaitOn(regions) => (
                            NodeKind::TaskwaitOn,
                            "taskwait_on",
                            regions.into_iter().map(Access::read_write).collect(),
                        ),
                    };
                    TaskNode {
                        rank,
                        seq,
                        kind,
                        label,
                        priority: i32::MAX,
                        accesses,
                        comm: None,
                        footprint: Vec::new(),
                        ctx,
                        detail: String::new(),
                    }
                }
            };
            self.by_rank[rank].push(self.nodes.len());
            self.nodes.push(node);
        }
    }

    /// Current aggregate statistics (edge count filled by [`crate::check`]).
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            ranks: self.by_rank.len(),
            nodes: self.nodes.len(),
            edges: 0,
            endpoints: self.nodes.iter().filter(|n| n.comm.is_some()).count(),
            epochs: self.epochs,
        }
    }
}
