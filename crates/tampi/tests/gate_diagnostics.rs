//! The watchdog's view of a receive that never comes: a consumer waiting
//! for its on-ready gate holds no event and counts no predecessor but the
//! gate, and the stall dump must still name it as the head of the blocked
//! chain.
//!
//! Its own test binary: enabling observability is process-global and
//! sticky.

use std::sync::Arc;
use std::time::Duration;
use taskrt::{ObjId, Region, Runtime};
use vmpi::{NetworkModel, SharedBuffer, World};

#[test]
fn stall_dump_names_the_unpack_awaiting_its_gate() {
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
        let block = Region::new(ObjId::fresh(), 0..8);
        let (c, slice) = (Arc::clone(&comm), buf.full());
        rt.task()
            .label("unpack")
            .inout(Region::new(ObjId::fresh(), 0..4))
            .inout(block.clone())
            .on_ready(move |gate| tampi::irecv_on_ready(&c, slice.clone(), 0, 9, gate).unwrap())
            .body(|| {})
            .spawn();
        rt.task().label("stencil").inout(block).body(|| {}).spawn();
        // The receive the gate posts is what the dump waits for.
        let mut dump = String::new();
        for _ in 0..5000 {
            dump = obs::diagnostics().dump();
            if dump.contains("pending recv from src 0 tag 9") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let the message go before judging the dump, so that a failed
        // check fails the test instead of hanging both ranks.
        comm.barrier().unwrap();
        rt.taskwait();
        assert!(dump.contains("pending recv from src 0 tag 9"), "{dump}");
        assert!(
            dump.contains("'unpack' [awaiting gate] -> task"),
            "the dump does not name the gated unpack:\n{dump}"
        );
        assert!(dump.contains("'stencil'"), "{dump}");
        assert!(obs::diagnostics().dump().is_empty());
    });
}
