//! A coordinator restarted from its journal reaches the state the live
//! one had: the journaled `RESULT` records replay to the outcomes the
//! live coordinator applied, failures included (DESIGN.md §15).

use std::time::{Duration, Instant};

use bgr_core::RouteError;
use bgr_io::JournalWriter;
use bgr_net::{decode_frame, encode_frame, Coordinator, Message};
use bgr_serve::{JobQueue, SessionState, SliceOutcome};

fn queue() -> JobQueue {
    let mut queue = JobQueue::new();
    let params = bgr_gen::GenParams::small(3);
    let design = bgr_gen::generate(&params);
    let placement = bgr_gen::place_design(&design, &params, bgr_gen::PlacementStyle::EvenFeed);
    queue.submit(
        "job0",
        design.circuit,
        placement,
        design.constraints,
        bgr_core::RouterConfig::default(),
        Some(4),
    );
    queue
}

/// `msg` as the coordinator receives it: encoded into a frame and
/// decoded again.
fn over_the_wire(msg: &Message) -> Message {
    let bytes = encode_frame(msg.kind(), &msg.encode_payload());
    let (frame, _) = decode_frame(&bytes).unwrap();
    Message::decode(&frame).unwrap()
}

#[test]
fn replayed_remote_failure_keeps_the_live_error() {
    let dir = std::env::temp_dir().join(format!("bgr-net-journal-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drain.bgrj");
    let mut live = Coordinator::new(queue(), Duration::from_secs(10))
        .with_journal(JournalWriter::create(&path).unwrap());
    let spec = live.next_lease(Instant::now()).unwrap();
    // A worker whose slice failed sends the error's message.
    let sent = Message::Result {
        job: spec.job as u64,
        slice: spec.slice,
        outcome: SliceOutcome::Failed {
            error: RouteError::Checkpoint {
                message: "boom".into(),
            },
        },
    };
    let Message::Result {
        job,
        slice,
        outcome,
    } = over_the_wire(&sent)
    else {
        panic!("a RESULT decodes as a RESULT");
    };
    assert!(live.apply_result(job as usize, slice, outcome));
    let live_job = live.queue().job(spec.job);
    assert_eq!(live_job.state(), SessionState::Failed);
    assert_eq!(
        live_job.error(),
        Some(&RouteError::Internal {
            phase: "remote",
            message: "checkpoint rejected: boom".into(),
        })
    );

    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut restarted = Coordinator::new(queue(), Duration::from_secs(10));
    let stats = restarted.replay_journal(&bytes).unwrap();
    assert_eq!((stats.applied, stats.stale), (1, 0));
    let replayed = restarted.queue().job(spec.job);
    assert_eq!(replayed.state(), live_job.state());
    assert_eq!(replayed.error(), live_job.error());
    assert_eq!(replayed.stream(), live_job.stream());
}
