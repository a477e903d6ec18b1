//! Intrusive FIFO queues over packet ids.
//!
//! The simulator keeps one input queue per `(link, vc)` — about 96k on
//! RRG(720,24,19) — and inspects the head of every occupied one each
//! cycle. A `VecDeque` per queue costs a heap block each and a pointer
//! hop per head read. Here every queue is a `head`/`tail`/`len` triple
//! in flat arrays, and the packets are chained through one `next` array
//! indexed by packet id. That works because a packet sits in at most one
//! of these queues at a time, so one link word per packet serves them
//! all.

use crate::sim::PacketId;

/// End-of-chain marker in `head`, `tail` and `next`.
const NIL: PacketId = PacketId::MAX;

/// Many FIFO queues sharing one per-packet link array.
#[derive(Debug)]
pub(crate) struct Fifos {
    head: Vec<PacketId>,
    tail: Vec<PacketId>,
    len: Vec<u32>,
    /// Successor of each queued packet in its queue (`NIL` at the tail).
    next: Vec<PacketId>,
}

impl Fifos {
    /// `queues` empty queues.
    pub(crate) fn new(queues: usize) -> Self {
        Self {
            head: vec![NIL; queues],
            tail: vec![NIL; queues],
            len: vec![0; queues],
            next: Vec::new(),
        }
    }

    #[cfg_attr(not(feature = "audit"), allow(dead_code))] // auditor only
    /// Number of queues.
    pub(crate) fn num_queues(&self) -> usize {
        self.head.len()
    }

    /// Appends packet `id` to queue `q`. The packet must not sit in any
    /// queue of this set already.
    #[inline]
    pub(crate) fn push_back(&mut self, q: usize, id: PacketId) {
        let i = id as usize;
        if i >= self.next.len() {
            self.next.resize(i + 1, NIL);
        }
        self.next[i] = NIL;
        match self.tail[q] {
            NIL => self.head[q] = id,
            t => self.next[t as usize] = id,
        }
        self.tail[q] = id;
        self.len[q] += 1;
    }

    /// The head of queue `q`, if any.
    #[inline]
    pub(crate) fn front(&self, q: usize) -> Option<PacketId> {
        match self.head[q] {
            NIL => None,
            h => Some(h),
        }
    }

    /// Removes and returns the head of queue `q`.
    #[inline]
    pub(crate) fn pop_front(&mut self, q: usize) -> Option<PacketId> {
        let h = self.front(q)?;
        let n = self.next[h as usize];
        self.head[q] = n;
        if n == NIL {
            self.tail[q] = NIL;
        }
        self.len[q] -= 1;
        Some(h)
    }

    #[inline]
    pub(crate) fn is_empty(&self, q: usize) -> bool {
        self.head[q] == NIL
    }

    #[cfg_attr(not(feature = "audit"), allow(dead_code))] // auditor only
    #[inline]
    pub(crate) fn len(&self, q: usize) -> usize {
        self.len[q] as usize
    }

    #[cfg_attr(not(feature = "audit"), allow(dead_code))] // auditor only
    /// Packets queued over all queues.
    pub(crate) fn total_len(&self) -> u64 {
        self.len.iter().map(|&n| u64::from(n)).sum()
    }

    #[cfg_attr(not(feature = "audit"), allow(dead_code))] // auditor only
    /// Queue `q` from head to tail.
    pub(crate) fn iter(&self, q: usize) -> impl Iterator<Item = PacketId> + '_ {
        std::iter::successors(self.front(q), move |&id| match self.next[id as usize] {
            NIL => None,
            n => Some(n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    enum Op {
        Push(usize),
        Pop(usize),
        Check(usize),
    }

    fn op(queues: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..queues).prop_map(Op::Push),
            (0..queues).prop_map(Op::Pop),
            (0..queues).prop_map(Op::Check),
        ]
    }

    fn assert_agrees(f: &Fifos, model: &[VecDeque<u32>], q: usize) {
        let got: Vec<u32> = f.iter(q).collect();
        let want: Vec<u32> = model[q].iter().copied().collect();
        prop_assert_eq!(got, want, "queue {} order", q);
        prop_assert_eq!(f.len(q), model[q].len());
        prop_assert_eq!(f.is_empty(q), model[q].is_empty());
        prop_assert_eq!(f.front(q), model[q].front().copied());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push/pop/inspect sequences over many queues, with
        /// packet ids recycled through a free list exactly as the
        /// simulator's arena does, agree with a `VecDeque` per queue.
        #[test]
        fn matches_a_vecdeque_model(
            ops in (1usize..12).prop_flat_map(|queues| {
                (Just(queues), proptest::collection::vec(op(queues), 0..400))
            })
        ) {
            let (queues, ops) = ops;
            let mut f = Fifos::new(queues);
            let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); queues];
            let mut free: Vec<u32> = Vec::new();
            let mut fresh = 0u32;
            for op in ops {
                match op {
                    Op::Push(q) => {
                        let id = free.pop().unwrap_or_else(|| {
                            fresh += 1;
                            fresh - 1
                        });
                        f.push_back(q, id);
                        model[q].push_back(id);
                    }
                    Op::Pop(q) => {
                        let got = f.pop_front(q);
                        prop_assert_eq!(got, model[q].pop_front());
                        free.extend(got);
                    }
                    Op::Check(q) => assert_agrees(&f, &model, q),
                }
            }
            for q in 0..queues {
                assert_agrees(&f, &model, q);
            }
            let total: usize = model.iter().map(VecDeque::len).sum();
            prop_assert_eq!(f.total_len(), total as u64);
        }
    }
}
