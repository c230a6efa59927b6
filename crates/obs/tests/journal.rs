//! Journal subscriber-protocol semantics: a subscriber that joins with a
//! snapshot and then follows deltas must converge on the same state as
//! one that watched from the start.

use std::collections::BTreeMap;

use mpt_obs::journal::{cell_scope, normalized_replay};
use mpt_obs::{Counter, JournalKind, Recorder};

/// Folds `CounterDelta` events into a counter-name -> total map the way a
/// live subscriber does: reconcile on the carried `total` (idempotent
/// under snapshot/delta overlap), not by summing deltas.
fn apply_deltas(state: &mut BTreeMap<String, u64>, events: &[mpt_obs::JournalEvent]) {
    for ev in events {
        if let JournalKind::CounterDelta { counter, total, .. } = &ev.kind {
            let slot = state.entry(counter.name().to_owned()).or_insert(0);
            *slot = (*slot).max(*total);
        }
    }
}

#[test]
fn snapshot_plus_delta_replay_equals_direct_observation() {
    let rec = Recorder::new();
    let journal = rec.journal();

    // Phase 1: activity before the subscriber joins.
    rec.add(Counter::Ticks, 100);
    rec.add(Counter::ThrottleEvents, 3);
    journal.sample_counters(&rec);
    journal.emit(None, JournalKind::CampaignStarted { cells: 2 });

    // The subscriber joins: snapshot first, then deltas from its cursor.
    let snap = journal.snapshot(&rec);
    let mut follower: BTreeMap<String, u64> = snap
        .metrics
        .counters
        .iter()
        .filter(|(_, v)| *v > 0)
        .cloned()
        .collect();

    // Phase 2: activity after the join.
    rec.add(Counter::Ticks, 50);
    rec.add(Counter::Migrations, 7);
    journal.sample_counters(&rec);

    let delta = journal.poll(snap.cursor);
    assert_eq!(delta.dropped, 0, "nothing overwritten in a fresh ring");
    apply_deltas(&mut follower, &delta.events);

    // Direct observation: read the recorder itself at the end.
    let direct: BTreeMap<String, u64> = rec
        .snapshot()
        .counters
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .collect();
    assert_eq!(follower, direct, "snapshot+delta replay must converge");

    // And the full event stream from zero is the snapshot-prefix plus
    // the post-cursor delta, with no seam.
    let all = journal.poll(0);
    let suffix: Vec<_> = all
        .events
        .iter()
        .filter(|e| e.seq >= snap.cursor)
        .cloned()
        .collect();
    assert_eq!(suffix, delta.events);
}

#[test]
fn ring_lap_dropped_counts_are_exact_across_polls() {
    // Any capacity of at least one, not only powers of two.
    for cap in [1u64, 3, 10, 16] {
        let rec = Recorder::with_journal_capacity(usize::try_from(cap).unwrap());
        let journal = rec.journal();
        for i in 0..40 {
            journal.emit(None, JournalKind::CampaignStarted { cells: i });
        }
        // A reader starting from 0 lost exactly the evicted prefix.
        let d = journal.poll(0);
        assert_eq!(d.dropped, 40 - cap, "capacity {cap}");
        assert_eq!(d.events.len() as u64, cap, "capacity {cap}");
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (40 - cap..40).collect::<Vec<_>>(), "capacity {cap}");
        assert_eq!(d.next_cursor, 40, "capacity {cap}");
    }

    // A reader that kept pace drops nothing.
    let mut cursor = 0;
    let rec2 = Recorder::with_journal_capacity(16);
    let j2 = rec2.journal();
    let mut seen = 0u64;
    let mut dropped = 0u64;
    for i in 0..40 {
        j2.emit(None, JournalKind::CampaignStarted { cells: i });
        if i % 8 == 7 {
            let d = j2.poll(cursor);
            seen += d.events.len() as u64;
            dropped += d.dropped;
            cursor = d.next_cursor;
        }
    }
    assert_eq!(seen + dropped, 40);
    assert_eq!(dropped, 0, "a keeping-pace reader never gets lapped");
}

#[test]
#[should_panic(expected = "journal capacity must be at least 1")]
fn enabled_journal_rejects_zero_capacity() {
    let _ = Recorder::with_journal_capacity(0);
}

#[test]
fn dropped_plus_delivered_is_conserved_under_concurrency() {
    let rec = std::sync::Arc::new(Recorder::with_journal_capacity(32));
    let total: u64 = 4 * 400;
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let rec = std::sync::Arc::clone(&rec);
            s.spawn(move || {
                let _scope = cell_scope(t);
                for i in 0..400u64 {
                    rec.journal().emit(
                        None,
                        JournalKind::StageRollup {
                            passes: i,
                            stage_runs: 0,
                            wall_us: 0,
                        },
                    );
                }
            });
        }
    });
    let d = rec.journal().poll(0);
    assert_eq!(
        d.events.len() as u64 + d.dropped,
        total,
        "every emitted sequence number is either delivered or counted dropped"
    );
    assert_eq!(d.next_cursor, total);
}

#[test]
fn snapshot_progress_tracks_cells_and_eta() {
    let rec = Recorder::new();
    let journal = rec.journal();
    journal.emit(None, JournalKind::CampaignStarted { cells: 4 });
    {
        let _s = cell_scope(0);
        journal.emit(
            None,
            JournalKind::CellStarted {
                label: "trips=70".into(),
            },
        );
        journal.emit(
            None,
            JournalKind::CellFinished {
                label: "trips=70".into(),
                peak_temp_c: 71.5,
            },
        );
    }
    {
        let _s = cell_scope(1);
        journal.emit(
            None,
            JournalKind::CellStarted {
                label: "trips=75".into(),
            },
        );
    }
    rec.add(Counter::Ticks, 1000);
    let snap = journal.snapshot(&rec);
    assert_eq!((snap.cells_total, snap.cells_done), (4, 1));
    assert_eq!(snap.in_flight.len(), 1);
    assert_eq!(snap.in_flight[0].cell, 1);
    assert_eq!(snap.in_flight[0].label, "trips=75");
    assert_eq!(snap.ticks_total, 1000);
    let eta = snap.eta_s.expect("1 of 4 done yields an ETA");
    assert!(eta >= 0.0);
    let json = snap.to_json();
    assert!(json.contains("\"cells_total\": 4"));
    assert!(json.contains("\"cells_done\": 1"));
    assert!(json.contains("\"label\": \"trips=75\""));
    assert!(json.contains("\"mpt_ticks_total\": 1000"));
}

#[test]
fn normalized_replay_is_stable_under_interleaving() {
    // Emit the same logical per-cell streams in two different global
    // interleavings (what different --jobs schedules produce) and
    // require the normalized replay to be bit-identical.
    let render = |order: &[(u32, u64)]| {
        let rec = Recorder::new();
        let journal = rec.journal();
        journal.emit(None, JournalKind::CampaignStarted { cells: 2 });
        for &(cell, step) in order {
            let _s = cell_scope(cell);
            journal.emit(
                Some(step * 1000),
                JournalKind::AlertFired {
                    rule: "temp_above".into(),
                    message: format!("cell {cell} step {step}"),
                },
            );
        }
        // Sampler noise must not leak into the deterministic replay.
        rec.add(Counter::Ticks, u64::from(order.len() as u32));
        journal.sample_counters(&rec);
        normalized_replay(&journal.poll(0).events)
    };
    let sequential = render(&[(0, 1), (0, 2), (1, 1), (1, 2)]);
    let interleaved = render(&[(1, 1), (0, 1), (1, 2), (0, 2)]);
    assert_eq!(sequential, interleaved);
    assert!(!sequential.contains("counter_delta"));
}

#[test]
fn null_recorder_journal_is_free_and_inert() {
    let rec = Recorder::null();
    let journal = rec.journal();
    assert!(!journal.is_enabled());
    assert_eq!(journal.capacity(), 0);
    assert_eq!(
        journal.emit(None, JournalKind::CampaignStarted { cells: 9 }),
        None
    );
    journal.sample_counters(&rec);
    let d = journal.poll(0);
    assert!(d.events.is_empty() && d.dropped == 0);
    let snap = journal.snapshot(&rec);
    assert_eq!((snap.cells_total, snap.cursor), (0, 0));
}
