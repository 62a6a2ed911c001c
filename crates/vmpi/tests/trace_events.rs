//! Traced message lifecycle on a sub-communicator. Lives in its own
//! integration-test binary: enabling the event bus is process-global and
//! sticky, so it must not leak into other tests.

use obs::EventData;
use vmpi::{NetworkModel, World};

const AT_SEND: i32 = 11;
const AT_RECV: i32 = 12;

/// `MsgMatched.src` is communicator-local wherever the match happens.
/// World ranks 1 and 2 form a sub-communicator as local ranks 0 and 1;
/// local 1 sends to local 0 once with the receive already posted and
/// once before it is. Both matches must name the sender as local rank 1
/// (the send-side copy used to report world rank 2) and carry the comm
/// and match id of their `SendPosted`.
#[test]
fn matched_src_is_communicator_local_on_both_sides() {
    let bus = obs::enable();
    World::new(3, NetworkModel::instant()).run(|comm| {
        let sub = comm
            .split((comm.rank() > 0) as i64, comm.rank() as i64)
            .unwrap();
        if comm.rank() == 0 {
            return;
        }
        if sub.rank() == 0 {
            let early = sub.irecv(1, AT_SEND).unwrap();
            sub.barrier().unwrap();
            early.wait();
            sub.barrier().unwrap();
            sub.recv::<u8>(1, AT_RECV).unwrap();
        } else {
            sub.barrier().unwrap();
            sub.send(&[1u8], 0, AT_SEND).unwrap();
            sub.send(&[2u8], 0, AT_RECV).unwrap();
            sub.barrier().unwrap();
        }
    });
    let events = bus.drain().events;
    let mut comms = Vec::new();
    for (tag, matched_at_send) in [(AT_SEND, true), (AT_RECV, false)] {
        let posted: Vec<_> = events
            .iter()
            .filter_map(|e| match e.data {
                EventData::SendPosted {
                    tag: t,
                    comm,
                    match_id,
                    ..
                } if t == tag => Some((comm, match_id)),
                _ => None,
            })
            .collect();
        let matched: Vec<_> = events
            .iter()
            .filter_map(|e| match e.data {
                EventData::MsgMatched {
                    src,
                    tag: t,
                    comm,
                    at_send,
                    match_id,
                    ..
                } if t == tag => Some((src, at_send, comm, match_id)),
                _ => None,
            })
            .collect();
        assert_eq!(posted.len(), 1, "tag {tag}: {posted:?}");
        let (comm, match_id) = posted[0];
        assert_ne!(match_id, 0, "traced sends carry a match id");
        assert_eq!(matched, vec![(1, matched_at_send, comm, match_id)]);
        comms.push(comm);
    }
    assert_eq!(comms[0], comms[1], "both sends ran on the sub-communicator");
}
