//! The contract of the host fan-out (`rayon::fan_out` in the vendored
//! stub, and `for_each` / `map` over it), as properties: every
//! item runs exactly once, every caller-built state is held by one thread
//! for the whole call, `map` keeps item order, a nested call runs inline,
//! a panicking item reaches the caller and leaves the pool usable, and a
//! `GZKP_THREADS` above the core count still completes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The pool and `GZKP_THREADS` are process-global, and a pool worker only
/// ever joins the newest call: every test here runs under this guard, one
/// at a time, at the thread count it names.
struct Threads {
    _pool: MutexGuard<'static, ()>,
}

fn with_threads(threads: usize) -> Threads {
    static POOL: Mutex<()> = Mutex::new(());
    let guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("GZKP_THREADS", threads.to_string());
    Threads { _pool: guard }
}

impl Drop for Threads {
    fn drop(&mut self) {
        std::env::remove_var("GZKP_THREADS");
    }
}

fn rand_vec(len: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// What one participant of a fan-out owns in these tests.
#[derive(Default)]
struct Held {
    busy: AtomicBool,
    holder: Option<ThreadId>,
    items: usize,
}

impl Held {
    /// Runs `f` as one item on this state, failing if another item is on
    /// it at the same time or another thread ever was.
    fn run(&mut self, f: impl FnOnce()) {
        assert!(!self.busy.swap(true, Ordering::SeqCst), "state shared");
        let me = std::thread::current().id();
        assert_eq!(*self.holder.get_or_insert(me), me, "state changed hands");
        f();
        self.items += 1;
        self.busy.store(false, Ordering::SeqCst);
    }
}

fn held(n: usize) -> Vec<Held> {
    (0..n).map(|_| Held::default()).collect()
}

/// Distinct threads that took part in a fan-out of `threads` items over
/// `threads` states whose items wait for each other (up to ten seconds):
/// `threads` only if that many participants really ran at once.
fn participants(threads: usize) -> usize {
    let arrived = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut states = held(threads);
    rayon::fan_out(0..threads, &mut states, |state, _| {
        state.run(|| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < threads && Instant::now() < deadline {
                std::thread::yield_now();
            }
        })
    });
    let holders: HashSet<_> = states.iter().filter_map(|s| s.holder).collect();
    holders.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fold_partials_cover_every_item_once(
        len in 0usize..200,
        seed in 0u64..1000,
        states in 1usize..6,
        threads in 1usize..5,
    ) {
        let _pool = with_threads(threads);
        // The states are the fold's accumulators: every item lands in
        // exactly one, and no state is ever on two threads.
        let xs = rand_vec(len, seed);
        let mut visits = vec![0u8; len];
        let mut partials: Vec<(Held, u64)> = held(states).into_iter().map(|h| (h, 0)).collect();
        rayon::fan_out(xs.iter().zip(&mut visits), &mut partials, |(state, sum), (x, visit)| {
            state.run(|| {
                *visit += 1;
                *sum = sum.wrapping_add(*x);
            })
        });
        prop_assert!(visits.iter().all(|&v| v == 1));
        prop_assert_eq!(partials.iter().map(|p| p.0.items).sum::<usize>(), len);
        let total = partials.iter().fold(0u64, |a, p| a.wrapping_add(p.1));
        prop_assert_eq!(total, xs.iter().fold(0u64, |a, x| a.wrapping_add(*x)));
    }

    #[test]
    fn par_chunks_partition_the_slice(
        len in 0usize..300,
        seed in 0u64..1000,
        chunk in 1usize..40,
        threads in 1usize..5,
    ) {
        let _pool = with_threads(threads);
        // Chunks handed out as items: chunk `c` is `[c·n, (c+1)·n)`, the
        // last one shorter, and together they are the whole slice.
        let mut xs = rand_vec(len, seed);
        let expect: Vec<u64> = (0..len).map(|i| xs[i] ^ (i / chunk) as u64).collect();
        let seen = AtomicUsize::new(0);
        rayon::for_each(xs.chunks_mut(chunk).enumerate(), |(c, vals)| {
            assert!(!vals.is_empty() && vals.len() <= chunk);
            assert!(vals.len() == chunk || (c + 1) * chunk > len);
            seen.fetch_add(vals.len(), Ordering::Relaxed);
            vals.iter_mut().for_each(|v| *v ^= c as u64);
        });
        prop_assert_eq!(seen.into_inner(), len);
        prop_assert_eq!(xs, expect);
    }

    #[test]
    fn indexed_map_preserves_order(
        len in 0usize..200,
        seed in 0u64..1000,
        threads in 1usize..5,
    ) {
        let _pool = with_threads(threads);
        let xs = rand_vec(len, seed);
        let got = rayon::map(xs.iter().enumerate(), |(i, x)| (i, x.wrapping_mul(2)));
        let expect: Vec<(usize, u64)> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (i, x.wrapping_mul(2)))
            .collect();
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn items_are_claimed_in_list_order_at_one_thread() {
    let _pool = with_threads(1);
    let mut order = vec![Vec::new(); 3];
    rayon::fan_out(0..50, &mut order, |seen, i| seen.push(i));
    assert_eq!(order[0], (0..50).collect::<Vec<_>>());
    assert!(order[1].is_empty() && order[2].is_empty());
}

#[test]
fn nested_call_runs_inline_on_the_item_s_thread() {
    let _pool = with_threads(2);
    let mut outer = held(2);
    rayon::fan_out(0..8, &mut outer, |state, _| {
        state.run(|| {
            let me = std::thread::current().id();
            let mut inner = held(2);
            rayon::fan_out(0..8, &mut inner, |state, _| state.run(|| ()));
            assert_eq!(inner[0].holder, Some(me));
            assert_eq!((inner[0].items, inner[1].items), (8, 0));
        })
    });
    assert_eq!(outer.iter().map(|s| s.items).sum::<usize>(), 8);
}

#[test]
fn empty_input_needs_no_state_and_calls_nothing() {
    let _pool = with_threads(2);
    rayon::fan_out(0..0, &mut [(); 0], |(), _| panic!("no item"));
    assert!(rayon::map(Vec::<u32>::new(), |x| x + 1).is_empty());
}

#[test]
fn a_panicking_item_reaches_the_caller_and_the_next_call_fans_out() {
    let _pool = with_threads(2);
    let caught = std::panic::catch_unwind(|| {
        rayon::fan_out(0..64, &mut held(2), |state, i| {
            state.run(|| assert_ne!(i, 40, "item 40"))
        });
    });
    let after = participants(2);
    let payload = caught.expect_err("the item's panic is re-thrown");
    let message = payload.downcast_ref::<String>().expect("assert message");
    assert!(message.contains("item 40"), "{message}");
    assert_eq!(after, 2, "the pool no longer joins");
}

#[test]
fn more_threads_than_cores_or_states_still_completes() {
    // The pool keeps at least three workers, so four participants run at
    // once on any machine; asking for more must not wait for them.
    let _pool = with_threads(4);
    let four = participants(4);
    std::env::set_var("GZKP_THREADS", "64");
    let mut states = held(64);
    let mut visits = vec![0u8; 1000];
    rayon::fan_out(visits.iter_mut(), &mut states, |state, visit| {
        state.run(|| *visit += 1)
    });
    // Fewer states than threads: the states bound the participants.
    let two = participants(2);
    assert_eq!((four, two), (4, 2));
    assert!(visits.iter().all(|&v| v == 1));
    assert_eq!(states.iter().map(|s| s.items).sum::<usize>(), 1000);
}

#[test]
#[ignore = "a measurement, not a check: run with --release -- --ignored --nocapture"]
fn empty_fan_out_latency() {
    // What one fan-out/fan-in of two items over two states costs at two
    // threads. Back to back the items do nothing and the caller usually
    // claims both before a worker arrives; after a pause the pool is
    // parked and each item waits for the other, so a worker must be woken,
    // run one and be joined.
    let _pool = with_threads(2);
    let mut states = [(); 2];
    let report = |name: &str, mut ns: Vec<u128>| {
        ns.sort_unstable();
        let at = |q: usize| ns[ns.len() * q / 100];
        let (n, p50, p10, p90) = (ns.len(), at(50), at(10), at(90));
        println!("empty fan-out, {name}, {n} calls: median {p50} ns (p10 {p10}, p90 {p90})");
    };
    let back_to_back = (0..20_000).map(|_| {
        let t0 = Instant::now();
        rayon::fan_out(0..2, &mut states, |(), _| ());
        t0.elapsed().as_nanos()
    });
    report("back to back", back_to_back.collect());
    let joined = (0..2_000).map(|_| {
        std::thread::sleep(Duration::from_micros(200));
        let arrived = AtomicUsize::new(0);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(1);
        rayon::fan_out(0..2, &mut states, |(), _| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::hint::spin_loop();
            }
        });
        t0.elapsed().as_nanos()
    });
    report("parked pool, both participants run", joined.collect());
}
