//! The watchdog's view of a task whose body bound a receive and returned:
//! the body no longer counts, so the one outstanding event hold is the
//! receive's, and the stall dump must show it and start the blocked chain
//! there.
//!
//! Its own test binary: enabling observability is process-global and
//! sticky.

use std::sync::Arc;
use std::time::Duration;
use taskrt::{ObjId, Region, Runtime};
use vmpi::{NetworkModel, SharedBuffer, World};

#[test]
fn stall_dump_counts_the_hold_of_a_returned_body() {
    obs::enable();
    World::new(2, NetworkModel::instant()).run(|comm| {
        let comm = Arc::new(comm);
        if comm.rank() == 0 {
            // The peer sends nothing until rank 1 has looked at the dump.
            comm.barrier().unwrap();
            comm.send(&[3.0f64; 4], 1, 9).unwrap();
            return;
        }
        let rt = Runtime::new(1);
        let buf = SharedBuffer::<f64>::new(4);
        let section = Region::new(ObjId::fresh(), 0..4);
        let (c, slice) = (Arc::clone(&comm), buf.full());
        rt.task()
            .label("recv")
            .out(section.clone())
            .body(move || tampi::irecv_into(&c, slice, 0, 9).unwrap())
            .spawn();
        rt.task().label("unpack").input(section).body(|| {}).spawn();
        let mut dump = String::new();
        for _ in 0..5000 {
            dump = obs::diagnostics().dump();
            if dump.contains("pending recv from src 0 tag 9") && dump.contains("event_holds=1") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let the message go before judging the dump, so that a failed
        // check fails the test instead of hanging both ranks.
        comm.barrier().unwrap();
        rt.taskwait();
        assert!(
            dump.contains("'recv' pending_preds=0 event_holds=1 "),
            "the dump does not count the receive's hold:\n{dump}"
        );
        assert!(
            dump.contains("'recv' [awaiting 1 event hold(s)] -> task"),
            "the blocked chain does not start at the receive:\n{dump}"
        );
        assert!(dump.contains("'unpack'"), "{dump}");
        assert!(obs::diagnostics().dump().is_empty());
    });
}
