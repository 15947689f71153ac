//! Point-to-point message matching and communication statistics.
//!
//! The paper's case study B reads communication health off the timeline:
//! "increased MPI wait time — more red areas — and higher message
//! transfer times — longer black lines — indicate this behavior". This
//! module provides the programmatic counterpart: it matches send/receive
//! endpoints (FIFO per `(src, dst, tag)`, the MPI ordering guarantee),
//! yielding per-message transfer times, a process×process communication
//! matrix, and slow-transfer outliers.
//!
//! The endpoints come from the chart fold ([`crate::activity`]), per rank
//! in stream order; [`MessageAnalysis::match_endpoints`] sorts them by
//! `(from, to, tag, stream position)` and merge-joins sends with
//! receives, so the k-th receive of a key takes the k-th send of it.

use crate::activity::Activity;
use perfvar_trace::{DurationTicks, ProcessId, Timestamp, Trace};
use serde::{Deserialize, Serialize};

/// One message endpoint of a rank's stream: a send (the peer is the
/// receiver) or a receive (the peer is the sender).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The other side of the message.
    pub peer: ProcessId,
    /// Message tag.
    pub tag: u32,
    /// Payload size.
    pub bytes: u64,
    /// Event timestamp.
    pub time: Timestamp,
}

/// The message endpoints of one rank, each kind in stream order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankEndpoints {
    /// `MsgSend` events.
    pub sends: Vec<Endpoint>,
    /// `MsgRecv` events.
    pub recvs: Vec<Endpoint>,
}

/// One matched point-to-point message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchedMessage {
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// Message tag.
    pub tag: u32,
    /// Payload size.
    pub bytes: u64,
    /// Send-event timestamp.
    pub send_time: Timestamp,
    /// Receive-event timestamp.
    pub recv_time: Timestamp,
}

impl MatchedMessage {
    /// Transfer time: receive minus send (the length of the paper's
    /// "black line").
    pub fn transfer_time(&self) -> DurationTicks {
        self.recv_time.saturating_since(self.send_time)
    }
}

/// The result of message matching over a trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MessageAnalysis {
    /// All matched messages, in receive order per process.
    pub messages: Vec<MatchedMessage>,
    /// Send events with no matching receive.
    pub unmatched_sends: usize,
    /// Receive events with no matching send.
    pub unmatched_recvs: usize,
}

/// The sort key of an endpoint: `(from, to, tag)` above its position in
/// the concatenation of every rank's endpoints of its kind, which orders
/// each key's endpoints as its one sending (or receiving) stream does.
fn sort_key(from: ProcessId, to: ProcessId, tag: u32, position: usize) -> u128 {
    let position = u32::try_from(position).expect("fewer than 2^32 endpoints");
    (from.0 as u128) << 96 | (to.0 as u128) << 64 | (tag as u128) << 32 | position as u128
}

impl MessageAnalysis {
    /// Matches the messages of `trace`: the chart fold's endpoints
    /// ([`Activity::of_trace`]) through [`match_endpoints`](Self::match_endpoints).
    pub fn match_trace(trace: &Trace) -> MessageAnalysis {
        Self::match_endpoints(&Activity::of_trace(trace, None, 1).endpoints)
    }

    /// Matches the endpoints of every rank (`ranks[p]` holds process
    /// `p`'s). Sends and receives are sorted by `(from, to, tag, stream
    /// position)` and merge-joined, FIFO per key; the matched messages
    /// come out in receive order: by receiving rank, then by the
    /// receive's position in its stream.
    pub fn match_endpoints(ranks: &[RankEndpoints]) -> MessageAnalysis {
        let mut send_times = Vec::new();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (p, rank) in ranks.iter().enumerate() {
            let me = ProcessId::from_index(p);
            for s in &rank.sends {
                sends.push(sort_key(me, s.peer, s.tag, send_times.len()));
                send_times.push(s.time);
            }
            for r in &rank.recvs {
                recvs.push(sort_key(r.peer, me, r.tag, recvs.len()));
            }
        }
        let total_sends = sends.len();
        sends.sort_unstable();
        let mut matched: Vec<Option<Timestamp>> = vec![None; recvs.len()];
        recvs.sort_unstable();
        let (mut i, mut j) = (0, 0);
        while i < sends.len() && j < recvs.len() {
            match (sends[i] >> 32).cmp(&(recvs[j] >> 32)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let send = sends[i] as u32 as usize;
                    matched[recvs[j] as u32 as usize] = Some(send_times[send]);
                    i += 1;
                    j += 1;
                }
            }
        }
        drop((sends, recvs, send_times));
        let mut messages = Vec::new();
        let mut matched = matched.into_iter();
        for (p, rank) in ranks.iter().enumerate() {
            for (r, send_time) in rank.recvs.iter().zip(matched.by_ref()) {
                if let Some(send_time) = send_time {
                    messages.push(MatchedMessage {
                        from: r.peer,
                        to: ProcessId::from_index(p),
                        tag: r.tag,
                        bytes: r.bytes,
                        send_time,
                        recv_time: r.time,
                    });
                }
            }
        }
        let total_recvs: usize = ranks.iter().map(|r| r.recvs.len()).sum();
        let matched = messages.len();
        MessageAnalysis {
            messages,
            unmatched_sends: total_sends - matched,
            unmatched_recvs: total_recvs - matched,
        }
    }

    /// Number of matched messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether no messages matched.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Mean transfer time, if any message matched.
    pub fn mean_transfer(&self) -> Option<f64> {
        if self.messages.is_empty() {
            return None;
        }
        Some(
            self.messages
                .iter()
                .map(|m| m.transfer_time().0 as f64)
                .sum::<f64>()
                / self.messages.len() as f64,
        )
    }

    /// The `n` slowest transfers, descending.
    pub fn slowest(&self, n: usize) -> Vec<MatchedMessage> {
        let mut sorted = self.messages.clone();
        sorted.sort_by_key(|m| std::cmp::Reverse(m.transfer_time()));
        sorted.truncate(n);
        sorted
    }

    /// Builds the process×process communication matrix.
    pub fn comm_matrix(&self, num_processes: usize) -> CommMatrix {
        let mut pairs: Vec<(ProcessId, ProcessId, u64)> = self
            .messages
            .iter()
            .map(|m| (m.from, m.to, m.bytes))
            .collect();
        pairs.sort_unstable_by_key(|&(from, to, _)| (from, to));
        let mut cells: Vec<CommCell> = Vec::new();
        for (from, to, bytes) in pairs {
            assert!(
                from.index() < num_processes && to.index() < num_processes,
                "message {from:?} → {to:?} outside a {num_processes}-process matrix"
            );
            match cells.last_mut() {
                Some(cell) if (cell.from, cell.to) == (from, to) => {
                    cell.count += 1;
                    cell.bytes += bytes;
                }
                _ => cells.push(CommCell {
                    from,
                    to,
                    count: 1,
                    bytes,
                }),
            }
        }
        CommMatrix {
            dim: num_processes,
            cells,
        }
    }
}

/// One sender→receiver pair with traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommCell {
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// Number of messages (at least one).
    pub count: u64,
    /// Payload bytes.
    pub bytes: u64,
}

/// A process×process communication matrix, stored sparsely: only the
/// pairs that exchanged messages, sender-major. A run's traffic usually
/// fills a few cells per row (FD4: 200 of 40,000), so nothing scales
/// with the square of the rank count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommMatrix {
    dim: usize,
    /// Cells with traffic, in row-major `(from, to)` order.
    cells: Vec<CommCell>,
}

impl CommMatrix {
    /// Number of processes (matrix dimension).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cells with traffic, in row-major `(from, to)` order; every
    /// other cell is empty.
    pub fn cells(&self) -> &[CommCell] {
        &self.cells
    }

    /// The cell `from → to`, if the pair exchanged messages.
    pub fn cell(&self, from: ProcessId, to: ProcessId) -> Option<&CommCell> {
        self.cells
            .binary_search_by_key(&(from, to), |c| (c.from, c.to))
            .ok()
            .map(|i| &self.cells[i])
    }

    /// The heaviest sender→receiver pair by bytes, if any traffic exists;
    /// the first in row-major order on ties.
    pub fn heaviest_pair(&self) -> Option<(ProcessId, ProcessId, u64)> {
        let mut best: Option<&CommCell> = None;
        for cell in &self.cells {
            if cell.bytes > 0 && best.is_none_or(|b| cell.bytes > b.bytes) {
                best = Some(cell);
            }
        }
        best.map(|c| (c.from, c.to, c.bytes))
    }

    /// Total messages sent by `p`.
    pub fn sent_by(&self, p: ProcessId) -> u64 {
        let start = self.cells.partition_point(|c| c.from < p);
        self.cells[start..]
            .iter()
            .take_while(|c| c.from == p)
            .map(|c| c.count)
            .sum()
    }

    /// Total messages received by `p`.
    pub fn received_by(&self, p: ProcessId) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.to == p)
            .map(|c| c.count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_trace::{Clock, Event, TraceBuilder};
    use std::collections::HashMap;

    /// The `HashMap`-of-`Vec`s matcher the sort-merge join replaced,
    /// kept as its oracle.
    fn match_trace_oracle(trace: &Trace) -> MessageAnalysis {
        let mut sends: HashMap<(u32, u32, u32), Vec<(Timestamp, u64)>> = HashMap::new();
        let mut total_sends = 0usize;
        for stream in trace.streams() {
            for r in stream.records() {
                if let Event::MsgSend { to, tag, bytes } = r.event {
                    sends
                        .entry((stream.process.0, to.0, tag))
                        .or_default()
                        .push((r.time, bytes));
                    total_sends += 1;
                }
            }
        }
        let mut cursors: HashMap<(u32, u32, u32), usize> = HashMap::new();
        let mut messages = Vec::new();
        let mut unmatched_recvs = 0usize;
        for stream in trace.streams() {
            for r in stream.records() {
                if let Event::MsgRecv { from, tag, bytes } = r.event {
                    let key = (from.0, stream.process.0, tag);
                    let cursor = cursors.entry(key).or_insert(0);
                    match sends.get(&key).and_then(|v| v.get(*cursor)) {
                        Some(&(send_time, _)) => {
                            *cursor += 1;
                            messages.push(MatchedMessage {
                                from,
                                to: stream.process,
                                tag,
                                bytes,
                                send_time,
                                recv_time: r.time,
                            });
                        }
                        None => unmatched_recvs += 1,
                    }
                }
            }
        }
        let matched = messages.len();
        MessageAnalysis {
            messages,
            unmatched_sends: total_sends - matched,
            unmatched_recvs,
        }
    }

    fn messaging_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let p0 = b.define_process("p0");
        let p1 = b.define_process("p1");
        let p2 = b.define_process("p2");
        // p0 → p1: two messages tag 0 (FIFO), one message tag 7.
        let w = b.process_mut(p0);
        w.send(Timestamp(0), p1, 0, 100).unwrap();
        w.send(Timestamp(10), p1, 0, 200).unwrap();
        w.send(Timestamp(20), p1, 7, 50).unwrap();
        // p2 → p0: one message.
        let w = b.process_mut(p2);
        w.send(Timestamp(5), p0, 0, 1000).unwrap();
        // Receives.
        let w = b.process_mut(p1);
        w.recv(Timestamp(4), p0, 0, 100).unwrap();
        w.recv(Timestamp(30), p0, 0, 200).unwrap();
        w.recv(Timestamp(31), p0, 7, 50).unwrap();
        let w = b.process_mut(p0);
        w.recv(Timestamp(50), p2, 0, 1000).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fifo_matching_per_channel() {
        let t = messaging_trace();
        let a = MessageAnalysis::match_trace(&t);
        assert_eq!(a.len(), 4);
        assert_eq!(a.unmatched_sends, 0);
        assert_eq!(a.unmatched_recvs, 0);
        // The first tag-0 receive pairs with the first tag-0 send.
        let first = a
            .messages
            .iter()
            .find(|m| m.to == ProcessId(1) && m.tag == 0 && m.bytes == 100)
            .unwrap();
        assert_eq!(first.send_time, Timestamp(0));
        assert_eq!(first.recv_time, Timestamp(4));
        assert_eq!(first.transfer_time(), DurationTicks(4));
    }

    #[test]
    fn slowest_transfers_ranked() {
        let t = messaging_trace();
        let a = MessageAnalysis::match_trace(&t);
        let slowest = a.slowest(2);
        // p2→p0 takes 45, second tag-0 message takes 20.
        assert_eq!(slowest[0].transfer_time(), DurationTicks(45));
        assert_eq!(slowest[1].transfer_time(), DurationTicks(20));
        assert!(a.mean_transfer().unwrap() > 0.0);
        assert_eq!(a.total_bytes(), 1350);
    }

    #[test]
    fn comm_matrix_aggregates() {
        let t = messaging_trace();
        let a = MessageAnalysis::match_trace(&t);
        let m = a.comm_matrix(3);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.cells().len(), 2);
        let cell = m.cell(ProcessId(0), ProcessId(1)).unwrap();
        assert_eq!((cell.count, cell.bytes), (3, 350));
        assert_eq!(m.cell(ProcessId(2), ProcessId(0)).unwrap().count, 1);
        assert_eq!(m.cell(ProcessId(1), ProcessId(0)), None);
        assert_eq!(m.heaviest_pair(), Some((ProcessId(2), ProcessId(0), 1000)));
        assert_eq!(m.sent_by(ProcessId(0)), 3);
        assert_eq!(m.received_by(ProcessId(1)), 3);
        assert_eq!(m.received_by(ProcessId(2)), 0);
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The dense `counts[from][to]` and `bytes[from][to]` matrices
        /// [`CommMatrix`] replaced, kept as its oracle.
        fn dense(messages: &[MatchedMessage], n: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
            let mut counts = vec![vec![0u64; n]; n];
            let mut bytes = vec![vec![0u64; n]; n];
            for m in messages {
                counts[m.from.index()][m.to.index()] += 1;
                bytes[m.from.index()][m.to.index()] += m.bytes;
            }
            (counts, bytes)
        }

        fn dense_heaviest_pair(bytes: &[Vec<u64>]) -> Option<(ProcessId, ProcessId, u64)> {
            let mut best: Option<(usize, usize, u64)> = None;
            for (i, row) in bytes.iter().enumerate() {
                for (j, &b) in row.iter().enumerate() {
                    if b > 0 && best.is_none_or(|(_, _, bb)| b > bb) {
                        best = Some((i, j, b));
                    }
                }
            }
            best.map(|(i, j, b)| (ProcessId::from_index(i), ProcessId::from_index(j), b))
        }

        /// A trace of `ranks` processes from per-rank endpoint lists:
        /// `(op, tag, bytes, gap)` sends when `op` is even, else receives,
        /// with peer `op / 2` modulo the rank count (so self-sends occur),
        /// `gap` ticks after the previous endpoint.
        fn endpoint_trace(ranks: usize, ops: &[Vec<(usize, u32, u64, u64)>]) -> Trace {
            let mut b = TraceBuilder::new(Clock::microseconds());
            let pids: Vec<ProcessId> = (0..ranks)
                .map(|p| b.define_process(format!("p{p}")))
                .collect();
            for (p, ops) in ops.iter().enumerate().take(ranks) {
                let w = b.process_mut(pids[p]);
                let mut t = 0;
                for &(op, tag, bytes, gap) in ops {
                    t += gap;
                    let peer = pids[op / 2 % ranks];
                    if op % 2 == 0 {
                        w.send(Timestamp(t), peer, tag, bytes).unwrap();
                    } else {
                        w.recv(Timestamp(t), peer, tag, bytes).unwrap();
                    }
                }
            }
            b.finish().unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Few ranks and tags: keys repeat, self-sends occur, and
            /// sends and receives of a key rarely balance, so both sides
            /// leave unmatched ends.
            #[test]
            fn sort_merge_matcher_matches_the_hashmap_oracle(
                ranks in 1usize..5,
                ops in vec(vec((0usize..10, 0u32..3, 0u64..4, 0u64..3), 0..24), 0..5),
            ) {
                let trace = endpoint_trace(ranks, &ops);
                let oracle = match_trace_oracle(&trace);
                let sorted = MessageAnalysis::match_trace(&trace);
                prop_assert_eq!(&sorted.messages, &oracle.messages);
                prop_assert_eq!(sorted.unmatched_sends, oracle.unmatched_sends);
                prop_assert_eq!(sorted.unmatched_recvs, oracle.unmatched_recvs);
            }

            /// Few ranks and payloads of 0–3 bytes: repeated pairs,
            /// zero-byte cells and tied heaviest pairs are common.
            #[test]
            fn sparse_matrix_matches_the_dense_oracle(
                n in 1usize..7,
                raw in vec((0usize..7, 0usize..7, 0u64..4), 0..40),
            ) {
                let messages: Vec<MatchedMessage> = raw
                    .iter()
                    .map(|&(from, to, bytes)| MatchedMessage {
                        from: ProcessId::from_index(from % n),
                        to: ProcessId::from_index(to % n),
                        tag: 0,
                        bytes,
                        send_time: Timestamp(0),
                        recv_time: Timestamp(1),
                    })
                    .collect();
                let (counts, bytes) = dense(&messages, n);
                let m = MessageAnalysis {
                    messages,
                    unmatched_sends: 0,
                    unmatched_recvs: 0,
                }
                .comm_matrix(n);
                prop_assert_eq!(m.dim(), n);
                let mut cells = Vec::new();
                for i in 0..n {
                    for j in 0..n {
                        if counts[i][j] > 0 {
                            cells.push((i, j, counts[i][j], bytes[i][j]));
                        }
                    }
                }
                let sparse: Vec<_> = m
                    .cells()
                    .iter()
                    .map(|c| (c.from.index(), c.to.index(), c.count, c.bytes))
                    .collect();
                prop_assert_eq!(sparse, cells);
                prop_assert_eq!(m.heaviest_pair(), dense_heaviest_pair(&bytes));
                for p in 0..n {
                    let p_id = ProcessId::from_index(p);
                    prop_assert_eq!(m.sent_by(p_id), counts[p].iter().sum::<u64>());
                    prop_assert_eq!(m.received_by(p_id), counts.iter().map(|r| r[p]).sum::<u64>());
                }
            }
        }
    }

    #[test]
    fn unmatched_endpoints_counted() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let p0 = b.define_process("p0");
        let p1 = b.define_process("p1");
        b.process_mut(p0).send(Timestamp(0), p1, 0, 8).unwrap();
        b.process_mut(p0).send(Timestamp(1), p1, 0, 8).unwrap();
        b.process_mut(p1).recv(Timestamp(5), p0, 0, 8).unwrap();
        // A receive that no send matches (wrong tag).
        b.process_mut(p1).recv(Timestamp(6), p0, 9, 8).unwrap();
        let t = b.finish().unwrap();
        let a = MessageAnalysis::match_trace(&t);
        assert_eq!(a.len(), 1);
        assert_eq!(a.unmatched_sends, 1);
        assert_eq!(a.unmatched_recvs, 1);
    }

    #[test]
    fn empty_trace_has_no_messages() {
        let t = TraceBuilder::new(Clock::microseconds()).finish().unwrap();
        let a = MessageAnalysis::match_trace(&t);
        assert!(a.is_empty());
        assert_eq!(a.mean_transfer(), None);
        assert_eq!(a.comm_matrix(0).heaviest_pair(), None);
    }
}
