//! A memory model that records the full access trace — the debugging and
//! analysis companion to the timing model in `asap-sim`.
//!
//! Traces are how we validated the prefetch semantics during bring-up:
//! e.g. asserting that every demand gather address was prefetched exactly
//! `distance` iterations earlier, or extracting the address stream that a
//! hardware-prefetcher model sees.

use crate::ops::OpId;
use crate::MemoryModel;

/// One recorded memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    Load {
        pc: OpId,
        addr: u64,
        bytes: u8,
    },
    Store {
        pc: OpId,
        addr: u64,
        bytes: u8,
    },
    Prefetch {
        pc: OpId,
        addr: u64,
        locality: u8,
        write: bool,
    },
}

impl TraceEvent {
    pub fn addr(&self) -> u64 {
        match *self {
            TraceEvent::Load { addr, .. }
            | TraceEvent::Store { addr, .. }
            | TraceEvent::Prefetch { addr, .. } => addr,
        }
    }

    pub fn pc(&self) -> OpId {
        match *self {
            TraceEvent::Load { pc, .. }
            | TraceEvent::Store { pc, .. }
            | TraceEvent::Prefetch { pc, .. } => pc,
        }
    }

    pub fn is_prefetch(&self) -> bool {
        matches!(self, TraceEvent::Prefetch { .. })
    }
}

/// Records every access (and instruction counts) in order.
#[derive(Debug, Default, Clone)]
pub struct TraceModel {
    pub events: Vec<TraceEvent>,
    pub instructions: u64,
    /// Optional cap: stop recording (but keep counting) beyond this many
    /// events, to bound memory on long runs.
    pub max_events: Option<usize>,
    /// Total events seen (recorded or not).
    pub total_events: u64,
}

impl TraceModel {
    pub fn new() -> TraceModel {
        TraceModel::default()
    }

    pub fn with_capacity_limit(max_events: usize) -> TraceModel {
        TraceModel {
            max_events: Some(max_events),
            ..TraceModel::default()
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        self.total_events += 1;
        self.instructions += 1;
        if self.max_events.is_none_or(|m| self.events.len() < m) {
            self.events.push(ev);
        }
    }

    /// Addresses of demand loads issued by a given static op.
    pub fn load_addrs_of(&self, pc: OpId) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Load { pc: p, addr, .. } if *p == pc => Some(*addr),
                _ => None,
            })
            .collect()
    }

    /// Cache lines touched by demand loads that were covered by an
    /// earlier prefetch (any distance).
    pub fn prefetch_coverage(&self) -> f64 {
        use std::collections::HashSet;
        let mut prefetched: HashSet<u64> = HashSet::new();
        let mut covered = 0usize;
        let mut demand = 0usize;
        for e in &self.events {
            match e {
                TraceEvent::Prefetch { addr, .. } => {
                    prefetched.insert(addr / 64);
                }
                TraceEvent::Load { addr, .. } => {
                    demand += 1;
                    if prefetched.contains(&(addr / 64)) {
                        covered += 1;
                    }
                }
                TraceEvent::Store { .. } => {}
            }
        }
        if demand == 0 {
            0.0
        } else {
            covered as f64 / demand as f64
        }
    }
}

impl MemoryModel for TraceModel {
    fn load(&mut self, pc: OpId, addr: u64, bytes: u8) {
        self.push(TraceEvent::Load { pc, addr, bytes });
    }

    fn store(&mut self, pc: OpId, addr: u64, bytes: u8) {
        self.push(TraceEvent::Store { pc, addr, bytes });
    }

    fn prefetch(&mut self, pc: OpId, addr: u64, locality: u8, write: bool) {
        self.push(TraceEvent::Prefetch {
            pc,
            addr,
            locality,
            write,
        });
    }

    fn retire(&mut self, n: u64) {
        self.instructions += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::interp::interpret;
    use crate::mem::{BufferData, Buffers, V};
    use crate::types::Type;

    fn streaming_func() -> crate::Function {
        let mut b = FuncBuilder::new("t");
        let x = b.arg(Type::memref(Type::F64));
        let n = b.arg(Type::Index);
        let c0 = b.const_index(0);
        let c1 = b.const_index(1);
        let c4 = b.const_index(4);
        b.for_loop(c0, n, c1, &[], |b, i, _| {
            let pi = b.addi(i, c4);
            b.prefetch_read(x, pi, 2);
            let v = b.load(x, i);
            b.store(v, x, i);
            vec![]
        });
        b.finish()
    }

    #[test]
    fn records_ordered_events() {
        let f = streaming_func();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![0.0; 16]));
        let mut t = TraceModel::new();
        interpret(&f, &[V::Mem(bx), V::Index(8)], &mut bufs, &mut t).unwrap();
        let pf: Vec<&TraceEvent> = t.events.iter().filter(|e| e.is_prefetch()).collect();
        let lds: Vec<&TraceEvent> = t
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Load { .. }))
            .collect();
        assert_eq!(pf.len(), 8);
        assert_eq!(lds.len(), 8);
        // Prefetch of iteration i targets addr of load at i+4.
        assert_eq!(pf[0].addr(), lds[4].addr());
    }

    #[test]
    fn coverage_counts_prefetched_lines() {
        let f = streaming_func();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![0.0; 64]));
        let mut t = TraceModel::new();
        interpret(&f, &[V::Mem(bx), V::Index(64)], &mut bufs, &mut t).unwrap();
        // 8 f64 per line, distance 4: the first half-line is uncovered,
        // everything else shares a line with some prefetch.
        assert!(t.prefetch_coverage() > 0.9);
    }

    #[test]
    fn capacity_limit_keeps_counting() {
        let f = streaming_func();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![0.0; 32]));
        let mut t = TraceModel::with_capacity_limit(5);
        interpret(&f, &[V::Mem(bx), V::Index(32)], &mut bufs, &mut t).unwrap();
        assert_eq!(t.events.len(), 5);
        assert_eq!(t.total_events, 3 * 32);
    }

    #[test]
    fn load_addrs_of_filters_by_pc() {
        let f = streaming_func();
        let mut bufs = Buffers::new();
        let bx = bufs.add(BufferData::F64(vec![0.0; 8]));
        let mut t = TraceModel::new();
        interpret(&f, &[V::Mem(bx), V::Index(4)], &mut bufs, &mut t).unwrap();
        let load_pc = t
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Load { pc, .. } => Some(*pc),
                _ => None,
            })
            .unwrap();
        let addrs = t.load_addrs_of(load_pc);
        assert_eq!(addrs.len(), 4);
        assert!(addrs.windows(2).all(|w| w[1] == w[0] + 8));
    }
}
