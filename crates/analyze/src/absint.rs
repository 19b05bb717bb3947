//! Abstract interpretation: constant/interval register tracking to a
//! fixpoint over the control-flow graph.
//!
//! The domain is deliberately small — `Const` (exact value), `Range`
//! (unsigned interval, no wraparound), `Unknown` — because the facts
//! the verdicts need are exactly the loader contract's shape: anchor
//! registers hold constants, the data pointer is a base plus a masked
//! offset (an interval), and everything else may be arbitrary. Joins
//! widen a changed interval straight to `Unknown`, so the fixpoint
//! converges in at most three visits per register per site.
//!
//! The traversal doubles as reachability: verdicts that need values
//! (window containment, self-modifying stores) are only claimed on
//! statically-reached instructions, and an indirect jump the value
//! analysis cannot resolve simply ends the traversal of that path —
//! facts beyond it are counted as unknown, never flagged. Because the
//! abstract start state *is* the concrete entry state (the loader
//! contract pins every register), every concrete execution path is
//! contained in the traversed graph, which is what makes the loop-free
//! dynamic-length bound sound.

use crate::cfg::static_target;
use crate::{ExitModel, ProgramSpec, Violation};
use meek_isa::exec::{alu, alu_imm};
use meek_isa::inst::{AluImmOp, AluOp, BranchOp, Inst};
use meek_isa::meek::MeekOp;
use meek_isa::{Reg, SYS_EXIT};
use std::collections::VecDeque;

/// An abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Any value.
    Unknown,
    /// Exactly this value.
    Const(u64),
    /// An unsigned interval `lo..=hi` (`lo < hi`, no wraparound).
    Range {
        /// Smallest possible value.
        lo: u64,
        /// Largest possible value.
        hi: u64,
    },
}

impl AbsVal {
    /// The value as an interval, if bounded.
    pub fn span(self) -> Option<(u64, u64)> {
        match self {
            AbsVal::Const(v) => Some((v, v)),
            AbsVal::Range { lo, hi } => Some((lo, hi)),
            AbsVal::Unknown => None,
        }
    }

    fn from_span(lo: u64, hi: u64) -> AbsVal {
        if lo == hi {
            AbsVal::Const(lo)
        } else {
            AbsVal::Range { lo, hi }
        }
    }

    /// Largest possible value, if bounded above.
    fn upper(self) -> Option<u64> {
        self.span().map(|(_, hi)| hi)
    }
}

/// Join for the fixpoint: equal values stay, two bounded values hull,
/// and a range that would have to grow widens straight to `Unknown`.
fn join(old: AbsVal, new: AbsVal) -> AbsVal {
    if old == new {
        return old;
    }
    let (Some((alo, ahi)), Some((blo, bhi))) = (old.span(), new.span()) else {
        return AbsVal::Unknown;
    };
    let hull = AbsVal::from_span(alo.min(blo), ahi.max(bhi));
    match old {
        AbsVal::Range { .. } if hull != old => AbsVal::Unknown,
        _ => hull,
    }
}

type State = [AbsVal; 32];

fn val(st: &State, r: Reg) -> AbsVal {
    if r == Reg::X0 {
        AbsVal::Const(0)
    } else {
        st[r.index() as usize]
    }
}

fn set(st: &mut State, r: Reg, v: AbsVal) {
    if r != Reg::X0 {
        st[r.index() as usize] = v;
    }
}

/// `a + d` with the interval preserved only when nothing wraps
/// (constants wrap exactly, like the executor).
fn add_signed(a: AbsVal, d: i64) -> AbsVal {
    match a {
        AbsVal::Const(v) => AbsVal::Const(v.wrapping_add(d as u64)),
        AbsVal::Range { lo, hi } => span_from_i128(lo as i128 + d as i128, hi as i128 + d as i128),
        AbsVal::Unknown => AbsVal::Unknown,
    }
}

fn span_from_i128(lo: i128, hi: i128) -> AbsVal {
    if lo >= 0 && hi <= u64::MAX as i128 {
        AbsVal::from_span(lo as u64, hi as u64)
    } else {
        AbsVal::Unknown
    }
}

fn abs_alu_imm(op: AluImmOp, a: AbsVal, imm: i32) -> AbsVal {
    if let AbsVal::Const(v) = a {
        return AbsVal::Const(alu_imm(op, v, imm));
    }
    match op {
        AluImmOp::Addi => add_signed(a, imm as i64),
        // `x & m` with a non-negative mask is bounded by the mask for
        // any `x` — the repoint idiom's masked offset.
        AluImmOp::Andi if imm >= 0 => AbsVal::from_span(0, imm as u64),
        AluImmOp::Slti | AluImmOp::Sltiu => AbsVal::from_span(0, 1),
        _ => AbsVal::Unknown,
    }
}

fn abs_alu(op: AluOp, a: AbsVal, b: AbsVal) -> AbsVal {
    if let (AbsVal::Const(x), AbsVal::Const(y)) = (a, b) {
        return AbsVal::Const(alu(op, x, y));
    }
    match op {
        AluOp::Add => match (a.span(), b.span()) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                span_from_i128(alo as i128 + blo as i128, ahi as i128 + bhi as i128)
            }
            _ => AbsVal::Unknown,
        },
        AluOp::Sub => match (a.span(), b) {
            (Some((alo, ahi)), AbsVal::Const(c)) => {
                span_from_i128(alo as i128 - c as i128, ahi as i128 - c as i128)
            }
            _ => AbsVal::Unknown,
        },
        // Unsigned AND is bounded by either operand's upper bound.
        AluOp::And => match (a.upper(), b.upper()) {
            (Some(x), Some(y)) => AbsVal::from_span(0, x.min(y)),
            (Some(x), None) => AbsVal::from_span(0, x),
            (None, Some(y)) => AbsVal::from_span(0, y),
            _ => AbsVal::Unknown,
        },
        AluOp::Slt | AluOp::Sltu => AbsVal::from_span(0, 1),
        _ => AbsVal::Unknown,
    }
}

/// The converged flow analysis of one program.
#[derive(Debug, Clone, Default)]
pub struct Flow {
    /// Value-dependent violations (window containment, self-mod).
    pub violations: Vec<Violation>,
    /// Basic blocks among reached instructions.
    pub blocks: usize,
    /// CFG edges among reached instructions.
    pub edges: usize,
    /// Instructions reached from the entry.
    pub reachable: usize,
    /// Reached indirect jumps without a provable target.
    pub indeterminate_jumps: usize,
    /// Reached indirect jumps resolved to a static target or the exit.
    pub resolved_jumps: usize,
    /// Reached accesses with a provable address interval.
    pub resolved_accesses: usize,
    /// Reached accesses with unresolvable addresses.
    pub unknown_accesses: usize,
    /// Whether the reached CFG contains a cycle.
    pub has_loops: bool,
    /// Retired-instruction upper bound for loop-free programs.
    pub straightline_bound: Option<u64>,
}

#[derive(Default)]
struct Stats {
    violations: Vec<Violation>,
    indeterminate_jumps: usize,
    resolved_jumps: usize,
    resolved_accesses: usize,
    unknown_accesses: usize,
}

struct Ctx<'a> {
    decoded: &'a [Option<Inst>],
    spec: &'a ProgramSpec,
    os_touched: bool,
    n: usize,
    code_hi: u64,
    exit_pc: u64,
}

/// Runs the fixpoint and produces the converged [`Flow`].
pub fn run(decoded: &[Option<Inst>], spec: &ProgramSpec, os_touched: bool) -> Flow {
    let n = decoded.len();
    if n == 0 {
        return Flow::default();
    }
    let ctx = Ctx {
        decoded,
        spec,
        os_touched,
        n,
        code_hi: spec.code_base + 4 * n as u64,
        exit_pc: match spec.exit {
            ExitModel::FallsOffEnd => spec.code_base + 4 * n as u64,
            ExitModel::HaltPc(h) => h,
        },
    };

    let mut entry: State = [AbsVal::Unknown; 32];
    for (r, slot) in entry.iter_mut().enumerate() {
        *slot = AbsVal::Const(if r == 0 { 0 } else { spec.entry_regs[r] });
    }

    let mut in_states: Vec<Option<Box<State>>> = vec![None; n];
    in_states[0] = Some(Box::new(entry));
    let mut on_list = vec![false; n];
    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    on_list[0] = true;

    while let Some(i) = worklist.pop_front() {
        on_list[i] = false;
        let mut st = **in_states[i].as_ref().expect("worklist entries have a state");
        let succs = transfer(&ctx, i, &mut st, None);
        for s in succs {
            let changed = match &mut in_states[s] {
                Some(cur) => {
                    let mut any = false;
                    for r in 1..32 {
                        let j = join(cur[r], st[r]);
                        if j != cur[r] {
                            cur[r] = j;
                            any = true;
                        }
                    }
                    any
                }
                slot @ None => {
                    *slot = Some(Box::new(st));
                    true
                }
            };
            if changed && !on_list[s] {
                on_list[s] = true;
                worklist.push_back(s);
            }
        }
    }

    // Final deterministic pass over the converged states: successor
    // sets, verdicts, and counters all come from the fixpoint states,
    // never from intermediate iterations.
    let mut stats = Stats::default();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut reachable = 0usize;
    for i in 0..n {
        if in_states[i].is_none() {
            continue;
        }
        reachable += 1;
        let mut st = **in_states[i].as_ref().expect("checked");
        succs[i] = transfer(&ctx, i, &mut st, Some(&mut stats));
    }

    // Cycle detection + topological (finish) order, iteratively.
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut finish: Vec<usize> = Vec::with_capacity(reachable);
    let mut has_loops = false;
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = 1;
    while let Some((node, k)) = stack.pop() {
        if k < succs[node].len() {
            stack.push((node, k + 1));
            let t = succs[node][k];
            match color[t] {
                0 => {
                    color[t] = 1;
                    stack.push((t, 0));
                }
                1 => has_loops = true,
                _ => {}
            }
        } else {
            color[node] = 2;
            finish.push(node);
        }
    }

    // Longest entry-to-terminal path over the reached DAG: each node
    // retires at most once on any concrete path the graph contains.
    let straightline_bound = if !has_loops && stats.indeterminate_jumps == 0 {
        let mut longest = vec![0u64; n];
        for &i in &finish {
            let best = succs[i].iter().map(|&t| longest[t]).max().unwrap_or(0);
            longest[i] = 1 + best;
        }
        Some(longest[0])
    } else {
        None
    };

    // Block/edge counts (cosmetic structure stats): a reached leader is
    // the entry, a jump target, or the instruction after control flow.
    let mut leader = vec![false; n];
    leader[0] = true;
    let mut edges = 0usize;
    for i in 0..n {
        if in_states[i].is_none() {
            continue;
        }
        edges += succs[i].len();
        for &t in &succs[i] {
            if t != i + 1 {
                leader[t] = true;
                if i + 1 < n && in_states[i + 1].is_some() {
                    leader[i + 1] = true;
                }
            }
        }
        if succs[i].is_empty() && i + 1 < n && in_states[i + 1].is_some() {
            leader[i + 1] = true;
        }
    }
    let blocks = (0..n).filter(|&i| leader[i] && in_states[i].is_some()).count();

    Flow {
        violations: stats.violations,
        blocks,
        edges,
        reachable,
        indeterminate_jumps: stats.indeterminate_jumps,
        resolved_jumps: stats.resolved_jumps,
        resolved_accesses: stats.resolved_accesses,
        unknown_accesses: stats.unknown_accesses,
        has_loops,
        straightline_bound,
    }
}

/// Applies instruction `i` to `st` and returns its in-bounds
/// successors (reaching the exit or an unfollowable jump contributes no
/// successor). With `stats`, also records verdicts and counters — only
/// the final pass does that.
fn transfer(ctx: &Ctx<'_>, i: usize, st: &mut State, mut stats: Option<&mut Stats>) -> Vec<usize> {
    let Some(inst) = ctx.decoded[i] else {
        if let Some(s) = stats.as_deref_mut() {
            if !ctx.spec.contiguous {
                // Contiguous programs flag every bad word syntactically;
                // padded images only flag reached ones.
                s.violations.push(Violation::Undecodable { index: i, word: 0 });
            }
        }
        return Vec::new();
    };
    let pc = ctx.spec.code_base + 4 * i as u64;
    let n = ctx.n;
    let mut succ = Vec::with_capacity(2);
    let push = |succ: &mut Vec<usize>, t: usize| {
        if t < n && !succ.contains(&t) {
            succ.push(t);
        }
    };

    match inst {
        Inst::Lui { rd, imm } => {
            set(st, rd, AbsVal::Const(((imm as i64) << 12) as u64));
            push(&mut succ, i + 1);
        }
        Inst::Auipc { rd, imm } => {
            set(st, rd, AbsVal::Const(pc.wrapping_add(((imm as i64) << 12) as u64)));
            push(&mut succ, i + 1);
        }
        Inst::Jal { rd, offset } => {
            set(st, rd, AbsVal::Const(pc.wrapping_add(4)));
            if offset % 4 == 0 {
                let t = static_target(i, offset);
                if (0..=n as i64).contains(&t) {
                    push(&mut succ, t as usize);
                }
            }
        }
        Inst::Jalr { rd, rs1, offset } => {
            let target = val(st, rs1);
            set(st, rd, AbsVal::Const(pc.wrapping_add(4)));
            match target {
                AbsVal::Const(v) => {
                    let t = v.wrapping_add(offset as i64 as u64) & !1;
                    if t == ctx.exit_pc {
                        if let Some(s) = stats.as_deref_mut() {
                            s.resolved_jumps += 1;
                        }
                    } else if (ctx.spec.code_base..ctx.code_hi).contains(&t)
                        && (t - ctx.spec.code_base).is_multiple_of(4)
                    {
                        if let Some(s) = stats.as_deref_mut() {
                            s.resolved_jumps += 1;
                        }
                        push(&mut succ, ((t - ctx.spec.code_base) / 4) as usize);
                    } else if let Some(s) = stats.as_deref_mut() {
                        s.indeterminate_jumps += 1;
                    }
                }
                _ => {
                    if let Some(s) = stats.as_deref_mut() {
                        s.indeterminate_jumps += 1;
                    }
                }
            }
        }
        Inst::Branch { op, rs1, rs2, offset } => {
            let taken = match (val(st, rs1), val(st, rs2)) {
                (AbsVal::Const(a), AbsVal::Const(b)) => Some(match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i64) < (b as i64),
                    BranchOp::Bge => (a as i64) >= (b as i64),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                }),
                _ => None,
            };
            let t = if offset % 4 == 0 { Some(static_target(i, offset)) } else { None };
            if taken != Some(true) {
                push(&mut succ, i + 1);
            }
            if taken != Some(false) {
                if let Some(t) = t {
                    if (0..=n as i64).contains(&t) {
                        push(&mut succ, t as usize);
                    }
                }
            }
        }
        Inst::Load { op, rd, rs1, offset } => {
            check_access(ctx, i, val(st, rs1), offset, op.size() as u64, false, &mut stats);
            set(st, rd, AbsVal::Unknown);
            push(&mut succ, i + 1);
        }
        Inst::Store { op, rs1, offset, .. } => {
            check_access(ctx, i, val(st, rs1), offset, op.size() as u64, true, &mut stats);
            push(&mut succ, i + 1);
        }
        Inst::Fld { rs1, offset, .. } => {
            check_access(ctx, i, val(st, rs1), offset, 8, false, &mut stats);
            push(&mut succ, i + 1);
        }
        Inst::Fsd { rs1, offset, .. } => {
            check_access(ctx, i, val(st, rs1), offset, 8, true, &mut stats);
            push(&mut succ, i + 1);
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let v = abs_alu_imm(op, val(st, rs1), imm);
            set(st, rd, v);
            push(&mut succ, i + 1);
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            let v = abs_alu(op, val(st, rs1), val(st, rs2));
            set(st, rd, v);
            push(&mut succ, i + 1);
        }
        Inst::MulDiv { rd, .. } => {
            set(st, rd, AbsVal::Unknown);
            push(&mut succ, i + 1);
        }
        Inst::FpCmp { rd, .. } => {
            set(st, rd, AbsVal::from_span(0, 1));
            push(&mut succ, i + 1);
        }
        Inst::FcvtLD { rd, .. } | Inst::FmvXD { rd, .. } => {
            set(st, rd, AbsVal::Unknown);
            push(&mut succ, i + 1);
        }
        Inst::Csr { rd, .. } => {
            set(st, rd, AbsVal::Unknown);
            push(&mut succ, i + 1);
        }
        Inst::Ecall => {
            // With the gate CSR untouched by the text, the OS surface
            // state is the spec's; otherwise both behaviours are
            // possible and the exit edge is implicit (no successor).
            let os_on = ctx.spec.os_enabled && !ctx.os_touched;
            let os_off = !ctx.spec.os_enabled && !ctx.os_touched;
            if os_off {
                push(&mut succ, i + 1);
            } else if os_on && val(st, Reg::X17) == AbsVal::Const(SYS_EXIT) {
                // Guaranteed exit syscall: the only successor is the
                // halt PC.
            } else {
                push(&mut succ, i + 1);
            }
        }
        Inst::Meek(op) => {
            match op {
                MeekOp::LRslt { rd } => set(st, rd, AbsVal::Const(1)),
                _ => {
                    if let Some(rd) = inst.int_dest() {
                        set(st, rd, AbsVal::Unknown);
                    }
                }
            }
            if let MeekOp::LJal { .. } = op {
                if let Some(s) = stats {
                    s.indeterminate_jumps += 1;
                }
            } else {
                push(&mut succ, i + 1);
            }
        }
        Inst::Fp { .. }
        | Inst::FmaddD { .. }
        | Inst::FcvtDL { .. }
        | Inst::FmvDX { .. }
        | Inst::Fence
        | Inst::Ebreak => push(&mut succ, i + 1),
    }
    succ
}

/// Records one reached memory access and flags the provable breaches:
/// an interval entirely outside the window (strict specs) or a store
/// interval entirely inside the code span.
fn check_access(
    ctx: &Ctx<'_>,
    i: usize,
    base: AbsVal,
    offset: i32,
    size: u64,
    is_store: bool,
    stats: &mut Option<&mut Stats>,
) {
    let Some(s) = stats.as_deref_mut() else { return };
    let addr = add_signed(base, offset as i64);
    let Some((lo, hi)) = addr.span() else {
        s.unknown_accesses += 1;
        return;
    };
    s.resolved_accesses += 1;
    // The executor masks addresses to natural alignment.
    let lo = lo & !(size - 1);
    let hi = (hi & !(size - 1)) + size - 1;
    if ctx.spec.strict_window {
        if let Some(w) = ctx.spec.window {
            if w.disjoint(lo, hi) {
                s.violations.push(Violation::OutOfWindow { index: i, lo, hi });
            }
        }
    }
    if is_store && lo >= ctx.spec.code_base && hi < ctx.code_hi {
        s.violations.push(Violation::SelfModifyingStore { index: i, lo, hi });
    }
}
