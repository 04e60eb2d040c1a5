//! Bounded queues linking pipeline threads.
//!
//! Tuples are handed between threads in batches (§4: "reduce the overhead of queue
//! synchronization by having each thread retrieve or deposit tuples in batches") over
//! bounded channels, which gives the pipeline natural back-pressure: a slow stage
//! blocks its producer instead of letting queues grow without bound.

use crossbeam::channel::{bounded, Receiver, SendError, Sender};

use crate::tuple::Message;

/// One bounded queue — a *lane* — per Distributor shard.
///
/// The scan workers feed these lanes from one side. Each *dispatches* data:
/// every batch it flushes goes, whole, to exactly one shard. Each also
/// *broadcasts* control tuples: every shard owns partial aggregation state for
/// every query, so each must observe the query's start and end. Because each
/// lane is FIFO, a broadcast control tuple can never overtake — or be
/// overtaken by — data enqueued on that lane before or after it.
///
/// `ShardQueues` is a construction-time handle: the engine hands each shard
/// worker its [`receiver`](ShardQueues::receiver), hands the scan workers and
/// the pipeline core sender-only [`ShardSenders`], and then
/// drops this struct — leaving each worker as the *sole* receiver of its
/// queue, so a dead shard surfaces to its producers as a send error instead
/// of a silently blocked queue.
#[derive(Debug)]
pub struct ShardQueues {
    lanes: Vec<(Sender<Message>, Receiver<Message>)>,
}

impl ShardQueues {
    /// Creates `shards` lanes, each holding at most `capacity` messages.
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self {
            lanes: (0..shards.max(1))
                .map(|_| bounded(capacity.max(1)))
                .collect(),
        }
    }

    /// The receiving half of shard `shard`'s lane.
    pub fn receiver(&self, shard: usize) -> Receiver<Message> {
        self.lanes[shard].1.clone()
    }

    /// The sending halves of every lane, in shard order.
    pub fn senders(&self) -> ShardSenders {
        self.lanes.iter().map(|(tx, _)| tx.clone()).collect()
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

    /// Messages waiting in the lanes, summed over every shard: zero once the
    /// pipeline is quiesced.
    pub fn queued(&self) -> usize {
        self.txs.iter().map(Sender::len).sum()
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
    use std::time::Duration;

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

    /// A full lane blocks its producer until the shard drains one message:
    /// the back-pressure that bounds the batches in flight.
    #[test]
    fn send_blocks_until_the_shard_drains() {
        let lanes = ShardQueues::new(1, 1);
        let senders = lanes.senders();
        let rx = lanes.receiver(0);
        senders.send_to(0, data_message(1)).unwrap();
        let producer = {
            let senders = senders.clone();
            // This send blocks until the main thread drains one message.
            std::thread::spawn(move || senders.send_to(0, data_message(2)).unwrap())
        };
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(senders.queued(), 1, "second send is still blocked");
        let _ = rx.recv().unwrap();
        producer.join().unwrap();
        assert!(matches!(rx.recv().unwrap(), Message::Data(b) if b.len() == 2));
    }

    #[test]
    fn shard_queues_broadcast_control_and_route_data() {
        let shards = ShardQueues::new(3, 4);
        let senders = shards.senders();
        assert_eq!(senders.num_shards(), 3);
        senders.send_to(1, data_message(2)).unwrap();
        senders.broadcast_control(&ControlTuple::QueryEnd(QueryId(5)));
        senders.broadcast_shutdown();
        assert_eq!(senders.queued(), 7);
        for s in 0..3 {
            let rx = shards.receiver(s);
            if s == 1 {
                assert!(matches!(rx.recv().unwrap(), Message::Data(b) if b.len() == 2));
            }
            assert!(matches!(
                rx.recv().unwrap(),
                Message::Control(ControlTuple::QueryEnd(QueryId(5)))
            ));
            assert!(matches!(rx.recv().unwrap(), Message::Shutdown));
        }
        assert_eq!(senders.queued(), 0, "every lane drained");
    }

    #[test]
    fn shard_queues_preserve_per_shard_fifo_between_data_and_control() {
        let shards = ShardQueues::new(1, 4);
        let senders = shards.senders();
        let rx = shards.receiver(0);
        senders.send_to(0, data_message(1)).unwrap();
        senders.broadcast_control(&ControlTuple::QueryEnd(QueryId(0)));
        senders.send_to(0, data_message(2)).unwrap();
        assert!(matches!(rx.recv().unwrap(), Message::Data(b) if b.len() == 1));
        assert!(matches!(
            rx.recv().unwrap(),
            Message::Control(ControlTuple::QueryEnd(QueryId(0)))
        ));
        assert!(matches!(rx.recv().unwrap(), Message::Data(b) if b.len() == 2));
    }

    #[test]
    fn dropping_the_sole_receiver_makes_sends_fail() {
        // The failure mode the sender-only handle exists for: once the shard
        // worker (sole receiver) is gone, its producers see an error, not a block.
        let shards = ShardQueues::new(1, 1);
        let senders = shards.senders();
        let rx = shards.receiver(0);
        drop(shards);
        drop(rx);
        assert!(senders.send_to(0, data_message(1)).is_err());
    }

    /// Documents a channel property the engine's failure handling depends on:
    /// messages already queued when the last receiver drops are RETAINED (kept
    /// alive by the remaining sender handles), not destroyed. Anything owned by
    /// a queued message — e.g. the query runtime inside an `Install` command,
    /// which owns the query's result sender — therefore never drops just
    /// because its consumer died, so a query stranded on a dead worker is
    /// resolved explicitly (the supervisor does, see `crate::engine`) instead
    /// of by a disconnect error that will never come.
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
