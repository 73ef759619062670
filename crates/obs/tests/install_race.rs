//! First-install-wins under real concurrency: `profile::install`
//! promises that when N threads race to install, exactly one wins and
//! every subsequent frame lands in the winner's profiler. The test owns
//! the process-global state, so it lives in its own integration binary
//! (the in-crate lifecycle tests install their own globals and would
//! collide).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use psdacc_obs::{profile, Profiler};

const RACERS: usize = 16;

/// Races `profile::install` from many threads through a barrier: exactly
/// one call returns `true`, and frames from every thread aggregate into
/// the winner's call tree.
#[test]
fn profile_install_race_has_exactly_one_winner() {
    let barrier = Arc::new(Barrier::new(RACERS));
    let wins = Arc::new(AtomicUsize::new(0));
    let profilers: Vec<Arc<Profiler>> = (0..RACERS).map(|_| Arc::new(Profiler::new())).collect();
    let threads: Vec<_> = profilers
        .iter()
        .map(|prof| {
            let prof = Arc::clone(prof);
            let barrier = Arc::clone(&barrier);
            let wins = Arc::clone(&wins);
            std::thread::spawn(move || {
                barrier.wait();
                if profile::install(prof) {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
                drop(profile::frame("race"));
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one install wins");
    let winner = profile::profiler().expect("a profiler is installed after the race");
    let winner_idx =
        profilers.iter().position(|p| Arc::ptr_eq(p, winner)).expect("winner is one of ours");
    let snap = winner.snapshot();
    let race = snap.frames.iter().find(|f| f.path == "race").expect("race frames landed");
    assert!(
        (1..=RACERS as u64).contains(&race.count),
        "winner received {} frames (expected 1..={RACERS})",
        race.count
    );
    for (i, prof) in profilers.iter().enumerate() {
        if i != winner_idx {
            assert!(prof.snapshot().is_empty(), "loser {i} received frames");
        }
    }
}
