//! Control-flow graph construction and natural-loop detection.
//!
//! Loop-wise pruning (Section III-D of the paper) needs to know which
//! dynamic instructions belong to which loop iteration. The static half of
//! that analysis lives here: basic blocks, dominators, back edges, and
//! natural loop bodies.

use std::collections::BTreeMap;

use crate::instr::Opcode;
use crate::program::KernelProgram;

/// A basic block: a maximal straight-line instruction range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the index of the last instruction.
    pub end: usize,
    /// Successor block indices.
    pub successors: Vec<usize>,
}

impl BasicBlock {
    /// Instruction indices covered by this block.
    #[must_use]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// A natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Loop id (index into [`LoopForest::loops`]).
    pub id: usize,
    /// Instruction index of the loop header.
    pub header: usize,
    /// Instruction indices of the back-edge branches (latches).
    pub latches: Vec<usize>,
    /// All instruction indices in the loop body (sorted, includes header and
    /// latches).
    pub body: Vec<usize>,
    /// Enclosing loop id, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl Loop {
    /// Whether `pc` belongs to this loop's body.
    #[must_use]
    pub fn contains(&self, pc: usize) -> bool {
        self.body.binary_search(&pc).is_ok()
    }
}

/// All natural loops of a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopForest {
    /// The loops, outer loops before inner ones.
    pub loops: Vec<Loop>,
    /// Innermost loop id per instruction index (`usize::MAX` = not in a
    /// loop). Private encoding; use [`LoopForest::innermost`].
    innermost: Vec<usize>,
}

impl LoopForest {
    /// Innermost loop containing `pc`, if any.
    #[must_use]
    pub fn innermost(&self, pc: usize) -> Option<&Loop> {
        let id = *self.innermost.get(pc)?;
        self.loops.get(id)
    }

    /// Number of static instructions that belong to at least one loop.
    #[must_use]
    pub fn instructions_in_loops(&self) -> usize {
        self.innermost
            .iter()
            .filter(|&&id| id != usize::MAX)
            .count()
    }

    /// Whether the program contains any loop.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Number of loops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loops.len()
    }
}

/// Control-flow graph over basic blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// Block index per instruction.
    block_of: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    #[must_use]
    pub fn build(program: &KernelProgram) -> Self {
        let n = program.len();
        let mut leader = vec![false; n + 1];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, instr) in program.instructions().iter().enumerate() {
            match instr.opcode {
                Opcode::Bra => {
                    if let Some(t) = instr.target {
                        leader[t] = true;
                    }
                    leader[pc + 1] = true;
                }
                Opcode::Ret | Opcode::Retp | Opcode::Exit | Opcode::Trap => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        // Collect block boundaries.
        let mut starts: Vec<usize> = (0..n).filter(|&pc| leader[pc]).collect();
        starts.push(n);
        let mut blocks = Vec::with_capacity(starts.len().saturating_sub(1));
        let mut block_of = vec![0usize; n];
        let mut start_to_block = BTreeMap::new();
        for w in starts.windows(2) {
            let (start, end) = (w[0], w[1]);
            start_to_block.insert(start, blocks.len());
            block_of[start..end].fill(blocks.len());
            blocks.push(BasicBlock {
                start,
                end,
                successors: Vec::new(),
            });
        }
        // Successors.
        let succs: Vec<Vec<usize>> = blocks
            .iter()
            .map(|blk| {
                let last = blk.end - 1;
                let instr = program.instr(last);
                let mut succ = Vec::new();
                match instr.opcode {
                    Opcode::Bra => {
                        if let Some(t) = instr.target {
                            succ.push(start_to_block[&t]);
                        }
                        // A guarded branch falls through.
                        if instr.guard.is_some() {
                            if let Some(&b) = start_to_block.get(&blk.end) {
                                succ.push(b);
                            }
                        }
                    }
                    Opcode::Exit | Opcode::Ret | Opcode::Trap => {}
                    Opcode::Retp => {
                        // Guarded return falls through; unguarded ends the
                        // thread.
                        if instr.guard.is_some() {
                            if let Some(&b) = start_to_block.get(&blk.end) {
                                succ.push(b);
                            }
                        }
                    }
                    _ => {
                        if let Some(&b) = start_to_block.get(&blk.end) {
                            succ.push(b);
                        }
                    }
                }
                succ.dedup();
                succ
            })
            .collect();
        for (block, succ) in blocks.iter_mut().zip(succs) {
            block.successors = succ;
        }
        Cfg { blocks, block_of }
    }

    /// The basic blocks in program order.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing instruction `pc`.
    #[must_use]
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Computes immediate dominators with the classic iterative algorithm
    /// (Cooper-Harvey-Kennedy). Entry block dominates itself.
    #[must_use]
    pub fn dominators(&self) -> Vec<usize> {
        let n = self.blocks.len();
        if n == 0 {
            return Vec::new();
        }
        // Predecessors + reverse post-order.
        let mut preds = vec![Vec::new(); n];
        for (b, block) in self.blocks.iter().enumerate() {
            for &s in &block.successors {
                preds[s].push(b);
            }
        }
        let rpo = self.reverse_post_order();
        let mut order_of = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            order_of[b] = i;
        }
        let mut idom = vec![usize::MAX; n];
        idom[rpo[0]] = rpo[0];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &preds[b] {
                    if idom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &order_of, p, new_idom)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    fn reverse_post_order(&self) -> Vec<usize> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS from block 0.
        let mut stack = vec![(0usize, 0usize)];
        visited[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < self.blocks[b].successors.len() {
                let s = self.blocks[b].successors[*i];
                *i += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Computes immediate *post*-dominators: for each block, the first
    /// block control must pass through on every path to thread exit, or
    /// `None` when the only common point is the exit itself.
    ///
    /// This is the reconvergence-point analysis SIMT execution needs: a
    /// divergent branch's warp re-converges at the immediate post-dominator
    /// of its block (GPGPU-Sim derives the same points from `ssy`
    /// annotations).
    #[must_use]
    pub fn post_dominators(&self) -> Vec<Option<usize>> {
        let n = self.blocks.len();
        if n == 0 {
            return Vec::new();
        }
        // Reverse CFG with a virtual exit (index n) as the entry; edges of
        // the reverse graph: virtual-exit -> every block without
        // successors, and succ -> pred for every real edge.
        let total = n + 1;
        let mut succ_rev: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (b, block) in self.blocks.iter().enumerate() {
            if block.successors.is_empty() {
                succ_rev[n].push(b);
            }
            for &s in &block.successors {
                succ_rev[s].push(b);
            }
        }
        // Reverse post-order of the reverse graph from the virtual exit.
        let mut visited = vec![false; total];
        let mut post = Vec::with_capacity(total);
        let mut stack = vec![(n, 0usize)];
        visited[n] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succ_rev[b].len() {
                let s = succ_rev[b][*i];
                *i += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        let mut order_of = vec![usize::MAX; total];
        for (i, &b) in post.iter().enumerate() {
            order_of[b] = i;
        }
        // Predecessors in the reverse graph = successors in the real one
        // (plus block -> virtual exit for exit blocks).
        let mut preds_rev: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (b, targets) in succ_rev.iter().enumerate() {
            for &t in targets {
                preds_rev[t].push(b);
            }
        }
        let mut ipdom = vec![usize::MAX; total];
        ipdom[n] = n;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in post.iter().filter(|&&b| b != n) {
                let mut new_idom = usize::MAX;
                for &p in &preds_rev[b] {
                    if ipdom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&ipdom, &order_of, p, new_idom)
                    };
                }
                if new_idom != usize::MAX && ipdom[b] != new_idom {
                    ipdom[b] = new_idom;
                    changed = true;
                }
            }
        }
        (0..n)
            .map(|b| match ipdom[b] {
                x if x == n || x == usize::MAX => None,
                x => Some(x),
            })
            .collect()
    }

    /// The reconvergence pc of a (potentially divergent) branch at `pc`:
    /// the first instruction of the branch block's immediate
    /// post-dominator, or `None` when the paths only rejoin at thread
    /// exit.
    #[must_use]
    pub fn reconvergence_pc(&self, pc: usize) -> Option<usize> {
        let ipdom = self.post_dominators();
        ipdom[self.block_of(pc)].map(|b| self.blocks[b].start)
    }

    /// Whether block `a` dominates block `b`.
    fn dominates(idom: &[usize], a: usize, mut b: usize) -> bool {
        loop {
            if a == b {
                return true;
            }
            if idom[b] == usize::MAX || idom[b] == b {
                return false;
            }
            b = idom[b];
        }
    }

    /// Detects all natural loops of `program`.
    #[must_use]
    pub fn loops(&self, program: &KernelProgram) -> LoopForest {
        let idom = self.dominators();
        let n = self.blocks.len();
        let mut preds = vec![Vec::new(); n];
        for (b, block) in self.blocks.iter().enumerate() {
            for &s in &block.successors {
                preds[s].push(b);
            }
        }
        // Back edges: latch block L with successor H where H dominates L.
        // Merge loops sharing a header. Unreachable latches (no dominator
        // entry) are skipped: dominance — and thus the natural-loop
        // definition — only applies to reachable blocks.
        let mut header_latches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (l, block) in self.blocks.iter().enumerate() {
            if idom[l] == usize::MAX {
                continue;
            }
            for &h in &block.successors {
                if Self::dominates(&idom, h, l) {
                    header_latches.entry(h).or_default().push(l);
                }
            }
        }
        let mut loops = Vec::new();
        for (header, latches) in header_latches {
            // Natural loop body: header + all blocks that reach a latch
            // without passing through the header.
            let mut in_body = vec![false; n];
            in_body[header] = true;
            let mut stack = latches.clone();
            while let Some(b) = stack.pop() {
                if in_body[b] {
                    continue;
                }
                in_body[b] = true;
                for &p in &preds[b] {
                    // Unreachable predecessors jumping into the body are
                    // not part of the natural loop.
                    if !in_body[p] && idom[p] != usize::MAX {
                        stack.push(p);
                    }
                }
            }
            let mut body = Vec::new();
            for (b, present) in in_body.iter().enumerate() {
                if *present {
                    body.extend(self.blocks[b].range());
                }
            }
            body.sort_unstable();
            let latch_pcs = latches.iter().map(|&l| self.blocks[l].end - 1).collect();
            loops.push(Loop {
                id: 0, // fixed below after sorting
                header: self.blocks[header].start,
                latches: latch_pcs,
                body,
                parent: None,
                depth: 1,
            });
        }
        // Sort outer-to-inner (bigger bodies first), fix ids, link parents.
        loops.sort_by(|a, b| {
            b.body
                .len()
                .cmp(&a.body.len())
                .then(a.header.cmp(&b.header))
        });
        for (id, l) in loops.iter_mut().enumerate() {
            l.id = id;
        }
        for i in 0..loops.len() {
            // Parent = smallest enclosing strictly-larger loop.
            let mut parent = None;
            for j in 0..i {
                if loops[j].body.len() > loops[i].body.len() && loops[j].contains(loops[i].header) {
                    parent = Some(j);
                }
            }
            loops[i].parent = parent;
            loops[i].depth = parent.map_or(1, |p| loops[p].depth + 1);
        }
        let mut innermost = vec![usize::MAX; program.len()];
        for l in &loops {
            // Later loops are inner (sorted by body size descending), so a
            // plain overwrite leaves the innermost id.
            for &pc in &l.body {
                innermost[pc] = l.id;
            }
        }
        LoopForest { loops, innermost }
    }
}

fn intersect(idom: &[usize], order_of: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order_of[a] > order_of[b] {
            a = idom[a];
        }
        while order_of[b] > order_of[a] {
            b = idom[b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use crate::asm::assemble;

    #[test]
    fn straight_line_has_one_block_no_loops() {
        let p = assemble("t", "mov.u32 $r1, $r2\nadd.u32 $r1, $r1, $r1\nexit").unwrap();
        let cfg = p.cfg();
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.loops(&p).is_empty());
    }

    #[test]
    fn single_loop_detected() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0
            loop:
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, 0xA
            @$p0.ne bra loop
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        let loops = cfg.loops(&p);
        assert_eq!(loops.len(), 1);
        let l = &loops.loops[0];
        assert_eq!(l.header, 1);
        assert_eq!(l.latches, vec![3]);
        assert_eq!(l.body, vec![1, 2, 3]);
        assert_eq!(l.depth, 1);
        assert!(loops.innermost(2).is_some());
        assert!(loops.innermost(0).is_none());
        assert!(loops.innermost(4).is_none());
        assert_eq!(loops.instructions_in_loops(), 3);
    }

    #[test]
    fn nested_loops() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0
            outer:
            mov.u32 $r2, 0x0
            inner:
            add.u32 $r2, $r2, 0x1
            set.ne.u32.u32 $p0/$o127, $r2, 0x4
            @$p0.ne bra inner
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, 0x3
            @$p0.ne bra outer
            exit
            "#,
        )
        .unwrap();
        let loops = p.cfg().loops(&p);
        assert_eq!(loops.len(), 2);
        let outer = &loops.loops[0];
        let inner = &loops.loops[1];
        assert!(outer.body.len() > inner.body.len());
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 2);
        // Innermost assignment: the inner add belongs to the inner loop.
        assert_eq!(loops.innermost(3).unwrap().id, inner.id);
        // The outer increment belongs to the outer loop only.
        assert_eq!(loops.innermost(6).unwrap().id, outer.id);
    }

    #[test]
    fn if_then_is_not_a_loop() {
        let p = assemble(
            "t",
            r#"
            set.eq.u32.u32 $p0/$o127, $r1, $r2
            @$p0.eq bra skip
            add.u32 $r3, $r3, 0x1
            skip:
            exit
            "#,
        )
        .unwrap();
        assert!(p.cfg().loops(&p).is_empty());
        // Guarded branch block has two successors.
        let cfg = p.cfg();
        let b = cfg.block_of(1);
        assert_eq!(cfg.blocks()[b].successors.len(), 2);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use crate::asm::assemble;

    #[test]
    fn unreachable_block_is_undominated() {
        let p = assemble(
            "t",
            r#"
            bra done
            add.u32 $r1, $r1, 0x1
            done:
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        let idom = cfg.dominators();
        let entry = cfg.block_of(0);
        let dead = cfg.block_of(1);
        let done = cfg.block_of(2);
        assert_eq!(idom[entry], entry, "entry dominates itself");
        assert_eq!(idom[dead], usize::MAX, "unreachable block has no idom");
        // `done`'s only *reachable* predecessor is the entry; the
        // unreachable block's fallthrough edge must not perturb dominance.
        assert_eq!(idom[done], entry);
        // The unreachable block still has a post-dominator: control leaving
        // it reaches `done` and then the exit.
        let ipdom = cfg.post_dominators();
        assert_eq!(ipdom[dead], Some(done));
        assert!(cfg.loops(&p).is_empty());
    }

    #[test]
    fn unreachable_self_loop_is_not_a_natural_loop() {
        let p = assemble(
            "t",
            r#"
            bra done
            dead:
            add.u32 $r1, $r1, 0x1
            bra dead
            done:
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        // The back edge lives entirely in unreachable code: dominance does
        // not apply there, so no natural loop may be reported.
        assert!(cfg.loops(&p).is_empty());
        assert_eq!(cfg.dominators()[cfg.block_of(1)], usize::MAX);
    }

    #[test]
    fn unreachable_jump_into_loop_body_is_excluded() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0
            bra loop
            stray:
            add.u32 $r2, $r2, 0x1
            loop:
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, 0x8
            @$p0.ne bra loop
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        let loops = cfg.loops(&p);
        assert_eq!(loops.loops.len(), 1);
        let l = &loops.loops[0];
        // `stray` (pc 2) falls through into the loop header but is
        // unreachable; the natural loop body must not absorb it.
        assert!(!l.contains(2), "unreachable pc 2 in body {:?}", l.body);
        assert_eq!(l.header, 3);
    }

    #[test]
    fn single_block_self_loop() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0
            loop:
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, 0x8
            @$p0.ne bra loop
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        let loops = cfg.loops(&p);
        assert_eq!(loops.loops.len(), 1);
        let l = &loops.loops[0];
        // Header block is its own latch: body = exactly that block.
        assert_eq!(l.header, 1);
        assert_eq!(l.latches, vec![3]);
        assert_eq!(l.body, vec![1, 2, 3]);
        assert_eq!(l.depth, 1);
        assert_eq!(l.parent, None);
        assert_eq!(loops.innermost(2).unwrap().id, l.id);
        assert!(loops.innermost(4).is_none());
    }

    #[test]
    fn multiple_back_edges_merge_into_one_loop() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0
            loop:
            add.u32 $r1, $r1, 0x1
            set.eq.u32.u32 $p0/$o127, $r1, 0x4
            @$p0.eq bra loop
            add.u32 $r2, $r2, 0x1
            set.ne.u32.u32 $p1/$o127, $r1, 0x8
            @$p1.ne bra loop
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        let loops = cfg.loops(&p);
        // Two back edges to the same header form ONE natural loop with two
        // latches, not two loops.
        assert_eq!(loops.loops.len(), 1);
        let l = &loops.loops[0];
        assert_eq!(l.header, 1);
        assert_eq!(l.latches, vec![3, 6]);
        assert_eq!(l.body, (1..=6).collect::<Vec<_>>());
        assert_eq!(l.depth, 1);
        // Every body pc maps back to this single loop.
        for pc in 1..=6 {
            assert_eq!(loops.innermost(pc).unwrap().id, l.id, "pc {pc}");
        }
    }
}

#[cfg(test)]
mod postdom_tests {
    use crate::asm::assemble;

    #[test]
    fn if_then_reconverges_at_join() {
        let p = assemble(
            "t",
            r#"
            set.eq.u32.u32 $p0/$o127, $r1, $r2
            @$p0.eq bra skip
            add.u32 $r3, $r3, 0x1
            skip:
            exit
            "#,
        )
        .unwrap();
        let cfg = p.cfg();
        // The branch at pc 1 reconverges at `skip` (pc 3).
        assert_eq!(cfg.reconvergence_pc(1), Some(3));
    }

    #[test]
    fn if_else_reconverges_after_both_arms() {
        let p = assemble(
            "t",
            r#"
            set.eq.u32.u32 $p0/$o127, $r1, $r2
            @$p0.eq bra other
            add.u32 $r3, $r3, 0x1
            bra join
            other:
            add.u32 $r3, $r3, 0x2
            join:
            exit
            "#,
        )
        .unwrap();
        assert_eq!(p.cfg().reconvergence_pc(1), Some(5));
    }

    #[test]
    fn loop_exit_branch_reconverges_at_loop_exit() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0
            loop:
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, 0x8
            @$p0.ne bra loop
            exit
            "#,
        )
        .unwrap();
        assert_eq!(p.cfg().reconvergence_pc(3), Some(4));
    }

    #[test]
    fn separate_exits_never_reconverge() {
        let p = assemble(
            "t",
            r#"
            set.eq.u32.u32 $p0/$o127, $r1, $r2
            @$p0.eq bra other
            exit
            other:
            exit
            "#,
        )
        .unwrap();
        assert_eq!(p.cfg().reconvergence_pc(1), None);
    }
}
