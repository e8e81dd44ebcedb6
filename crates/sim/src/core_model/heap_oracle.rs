//! The heap-window core model the sorted window replaced, kept as a test
//! oracle: a `BinaryHeap` of resolved completions, a `VecDeque` of pending
//! bounds scanned on every read, and `f64::ceil` on every front-end query.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use impress_dram::timing::Cycle;

use super::IssueBound;

#[derive(Debug)]
pub(super) struct HeapCoreModel {
    think_gap: f64,
    mlp: usize,
    outstanding: BinaryHeap<Reverse<Cycle>>,
    pending_lbs: VecDeque<Cycle>,
    front_end_ready: f64,
    issued: u64,
    last_completion: Cycle,
}

impl HeapCoreModel {
    pub(super) fn new(think_gap: f64, mlp: usize) -> Self {
        Self {
            think_gap,
            mlp,
            outstanding: BinaryHeap::new(),
            pending_lbs: VecDeque::new(),
            front_end_ready: 0.0,
            issued: 0,
            last_completion: 0,
        }
    }

    pub(super) fn issued(&self) -> u64 {
        self.issued
    }

    pub(super) fn next_issue_time(&self) -> Cycle {
        let front_end = self.front_end_ready.ceil() as Cycle;
        if self.outstanding.len() >= self.mlp {
            let oldest = self.outstanding.peek().map(|Reverse(t)| *t).unwrap_or(0);
            front_end.max(oldest)
        } else {
            front_end
        }
    }

    pub(super) fn on_issue(&mut self, now: Cycle, completes_at: Cycle) {
        while let Some(Reverse(t)) = self.outstanding.peek() {
            if *t <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        self.outstanding.push(Reverse(completes_at));
        self.issued += 1;
        self.last_completion = self.last_completion.max(completes_at);
        self.front_end_ready = (now as f64).max(self.front_end_ready) + self.think_gap;
    }

    pub(super) fn finish_time(&self) -> Cycle {
        self.last_completion
            .max(self.front_end_ready.ceil() as Cycle)
    }

    pub(super) fn pending(&self) -> usize {
        self.pending_lbs.len()
    }

    pub(super) fn pending_completion_lower_bound(&self) -> Cycle {
        self.pending_lbs.iter().copied().min().unwrap_or(Cycle::MAX)
    }

    pub(super) fn next_issue_bound(&self) -> IssueBound {
        let front_end = self.front_end_ready.ceil() as Cycle;
        if self.outstanding.len() + self.pending_lbs.len() < self.mlp {
            return IssueBound::Exact(front_end);
        }
        let pending_lb = self.pending_completion_lower_bound();
        match self.outstanding.peek() {
            Some(Reverse(oldest)) if *oldest <= pending_lb => {
                IssueBound::Exact(front_end.max(*oldest))
            }
            _ => IssueBound::NotBefore(front_end.max(pending_lb)),
        }
    }

    pub(super) fn on_issue_pending(&mut self, now: Cycle, completion_lb: Cycle) {
        while let Some(Reverse(t)) = self.outstanding.peek() {
            if *t <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        self.pending_lbs.push_back(completion_lb);
        self.issued += 1;
        self.front_end_ready = (now as f64).max(self.front_end_ready) + self.think_gap;
    }

    pub(super) fn resolve_pending(&mut self, completes_at: Cycle) {
        let lb = self
            .pending_lbs
            .pop_front()
            .expect("resolve_pending without a pending issue");
        assert!(completes_at >= lb);
        self.outstanding.push(Reverse(completes_at));
        self.last_completion = self.last_completion.max(completes_at);
    }
}
