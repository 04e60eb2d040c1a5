//! Bounded queues linking pipeline threads.
//!
//! Tuples are handed between threads in batches (§4: "reduce the overhead of queue
//! synchronization by having each thread retrieve or deposit tuples in batches") over
//! bounded channels, which gives the pipeline natural back-pressure: a slow stage
//! blocks its producer instead of letting queues grow without bound.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, SendError, Sender};
use std::time::Duration;

use crate::tuple::Message;

/// Error returned by [`TupleQueue::recv_timeout`] when every sender has been
/// dropped (the pipeline is tearing down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// A bounded, multi-producer multi-consumer queue of pipeline messages.
#[derive(Debug, Clone)]
pub struct TupleQueue {
    tx: Sender<Message>,
    rx: Receiver<Message>,
}

impl TupleQueue {
    /// Creates a queue that holds at most `capacity` messages (batches).
    pub fn new(capacity: usize) -> Self {
        let (tx, rx) = bounded(capacity.max(1));
        Self { tx, rx }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Sends a message, blocking while the queue is full.
    ///
    /// # Errors
    /// Returns the message back if every receiver has been dropped.
    pub fn send(&self, msg: Message) -> Result<(), SendError<Message>> {
        self.tx.send(msg)
    }

    /// Receives the next message, blocking up to `timeout`.
    ///
    /// Returns `Ok(None)` on timeout, and `Err(Disconnected)` when every sender
    /// has been dropped (the pipeline is tearing down).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, Disconnected> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => Ok(Some(msg)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    /// Receives the next message, blocking indefinitely. Returns `None` when every
    /// sender has been dropped.
    pub fn recv(&self) -> Option<Message> {
        self.rx.recv().ok()
    }

    /// A clone of the sending half (e.g. for each scan worker feeding the Stage).
    pub fn sender(&self) -> Sender<Message> {
        self.tx.clone()
    }

    /// A clone of the receiving half (e.g. for each worker thread of a Stage).
    pub fn receiver(&self) -> Receiver<Message> {
        self.rx.clone()
    }
}

/// One bounded queue per Distributor shard.
///
/// Two sides feed these queues. The Stage workers *dispatch* data: each
/// filtered batch goes, whole, to exactly one shard. The scan front-end
/// *broadcasts* control tuples: every shard owns partial aggregation state for
/// every query, so each must observe the query's start and end. Because each
/// shard's queue is FIFO, a broadcast control tuple can never overtake — or be
/// overtaken by — data enqueued on that shard's queue before or after it.
///
/// `ShardQueues` is a construction-time handle: the engine hands each shard
/// worker its [`receiver`](TupleQueue::receiver), hands the Stage workers, the
/// scan workers and the pipeline core sender-only [`ShardSenders`], and then
/// drops this struct — leaving each worker as the *sole* receiver of its
/// queue, so a dead shard surfaces to its producers as a send error instead
/// of a silently blocked queue.
#[derive(Debug)]
pub struct ShardQueues {
    queues: Vec<TupleQueue>,
}

impl ShardQueues {
    /// Creates `shards` queues, each holding at most `capacity` messages.
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self {
            queues: (0..shards.max(1))
                .map(|_| TupleQueue::new(capacity))
                .collect(),
        }
    }

    /// The queue feeding shard `shard`.
    pub fn shard(&self, shard: usize) -> &TupleQueue {
        &self.queues[shard]
    }

    /// The sending halves of every shard queue, in shard order.
    pub fn senders(&self) -> ShardSenders {
        self.queues.iter().map(TupleQueue::sender).collect()
    }
}

/// A sender-only handle to the per-shard queues (see [`ShardQueues`]), in
/// shard order. Collecting a single sender gives the one-shard handle.
#[derive(Debug, Clone)]
pub struct ShardSenders {
    txs: Vec<Sender<Message>>,
}

impl FromIterator<Sender<Message>> for ShardSenders {
    fn from_iter<I: IntoIterator<Item = Sender<Message>>>(iter: I) -> Self {
        Self {
            txs: iter.into_iter().collect(),
        }
    }
}

impl ShardSenders {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.txs.len()
    }

    /// Sends a message to one shard, blocking while its queue is full.
    ///
    /// # Errors
    /// Returns the message back if the shard's receiver has been dropped (the
    /// shard exited or died).
    pub fn send_to(&self, shard: usize, msg: Message) -> Result<(), SendError<Message>> {
        self.txs[shard].send(msg)
    }

    /// Broadcasts a control tuple to every shard (in shard order). Send errors are
    /// ignored: a dropped receiver means the shard is gone.
    pub fn broadcast_control(&self, control: &crate::tuple::ControlTuple) {
        for tx in &self.txs {
            let _ = tx.send(Message::Control(control.clone()));
        }
    }

    /// Broadcasts a shutdown message to every shard.
    pub fn broadcast_shutdown(&self) {
        for tx in &self.txs {
            let _ = tx.send(Message::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{ControlTuple, InFlightTuple};
    use cjoin_common::{QueryId, QuerySet};
    use cjoin_storage::{Row, RowId, Value};

    fn data_message(n: usize) -> Message {
        Message::Data(
            (0..n)
                .map(|i| {
                    InFlightTuple::new(
                        RowId(i as u64),
                        Row::new(vec![Value::int(i as i64)]),
                        QuerySet::new(4),
                        0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn fifo_order_is_preserved() {
        let q = TupleQueue::new(4);
        q.send(data_message(1)).unwrap();
        q.send(Message::Control(ControlTuple::QueryEnd(QueryId(7))))
            .unwrap();
        q.send(data_message(2)).unwrap();

        assert!(matches!(q.recv().unwrap(), Message::Data(b) if b.len() == 1));
        assert!(matches!(
            q.recv().unwrap(),
            Message::Control(ControlTuple::QueryEnd(QueryId(7)))
        ));
        assert!(matches!(q.recv().unwrap(), Message::Data(b) if b.len() == 2));
    }

    #[test]
    fn len_and_is_empty() {
        let q = TupleQueue::new(3);
        assert!(q.is_empty());
        q.send(data_message(1)).unwrap();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn recv_timeout_returns_none_when_empty() {
        let q = TupleQueue::new(2);
        let r = q.recv_timeout(Duration::from_millis(5)).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn send_blocks_until_consumer_drains() {
        let q = TupleQueue::new(1);
        q.send(data_message(1)).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            // This send blocks until the main thread drains one message.
            q2.send(data_message(2)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.len(), 1, "second send is still blocked");
        let _ = q.recv().unwrap();
        producer.join().unwrap();
        assert!(matches!(q.recv().unwrap(), Message::Data(b) if b.len() == 2));
    }

    #[test]
    fn shutdown_flows_through() {
        let q = TupleQueue::new(2);
        q.send(Message::Shutdown).unwrap();
        assert!(matches!(q.recv().unwrap(), Message::Shutdown));
    }

    #[test]
    fn shard_queues_broadcast_control_and_route_data() {
        let shards = ShardQueues::new(3, 4);
        let senders = shards.senders();
        assert_eq!(senders.num_shards(), 3);
        senders.send_to(1, data_message(2)).unwrap();
        senders.broadcast_control(&ControlTuple::QueryEnd(QueryId(5)));
        senders.broadcast_shutdown();
        for s in 0..3 {
            if s == 1 {
                assert!(matches!(
                    shards.shard(s).recv().unwrap(),
                    Message::Data(b) if b.len() == 2
                ));
            }
            assert!(matches!(
                shards.shard(s).recv().unwrap(),
                Message::Control(ControlTuple::QueryEnd(QueryId(5)))
            ));
            assert!(matches!(shards.shard(s).recv().unwrap(), Message::Shutdown));
        }
    }

    #[test]
    fn shard_queues_preserve_per_shard_fifo_between_data_and_control() {
        let shards = ShardQueues::new(1, 4);
        let senders = shards.senders();
        senders.send_to(0, data_message(1)).unwrap();
        senders.broadcast_control(&ControlTuple::QueryEnd(QueryId(0)));
        senders.send_to(0, data_message(2)).unwrap();
        assert!(matches!(shards.shard(0).recv().unwrap(), Message::Data(b) if b.len() == 1));
        assert!(matches!(
            shards.shard(0).recv().unwrap(),
            Message::Control(ControlTuple::QueryEnd(QueryId(0)))
        ));
        assert!(matches!(shards.shard(0).recv().unwrap(), Message::Data(b) if b.len() == 2));
    }

    #[test]
    fn dropping_the_sole_receiver_makes_sends_fail() {
        // The failure mode the sender-only handle exists for: once the shard
        // worker (sole receiver) is gone, its producers see an error, not a block.
        let shards = ShardQueues::new(1, 1);
        let senders = shards.senders();
        let rx = shards.shard(0).receiver();
        drop(shards);
        drop(rx);
        assert!(senders.send_to(0, data_message(1)).is_err());
    }

    #[test]
    fn mpmc_usage_across_threads() {
        let q = TupleQueue::new(64);
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        q.send(data_message(1)).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut count = 0usize;
                    while let Ok(Some(_)) = q.recv_timeout(Duration::from_millis(100)) {
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }

    /// Documents a channel property the engine's failure handling depends on:
    /// messages already queued when the last receiver drops are RETAINED (kept
    /// alive by the remaining sender handles), not destroyed. Anything owned by
    /// a queued message — e.g. the ack sender inside an `Install` command —
    /// therefore never drops just because its consumer died, so waiting on such
    /// an ack must poll and probe (see `CjoinEngine::submit`) instead of
    /// relying on a disconnect error that will never come.
    #[test]
    fn queued_messages_survive_receiver_drop() {
        use crossbeam::channel::{unbounded, RecvTimeoutError};
        struct Payload(#[allow(dead_code)] Sender<()>);
        let (tx, rx) = unbounded::<Payload>();
        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<()>(1);
        tx.send(Payload(ack_tx)).unwrap();
        drop(rx);
        // The queued payload (and the ack sender in it) is still alive: the ack
        // receiver times out instead of observing a disconnect.
        assert_eq!(
            ack_rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
