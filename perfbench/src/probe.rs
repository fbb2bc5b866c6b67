//! Benchmark-owned reference probes, timed between every two lane calls.
//!
//! The host this benchmark runs on is shared: memory-bound code drifts by
//! tens of percent over seconds while a pure ALU loop holds within a few
//! percent. The DES probe imitates the simulators' access pattern (boxed
//! closures in a slab, a binary heap of timestamps, a hash map of state)
//! without calling any `ppc` code, so a change to the program never moves
//! it; only the host does. Dividing a lane's rate by the probe's rate
//! measured next to it removes the drift both share. Both probes are timed
//! in thread CPU time ([`thread_cpu_s`]).
//!
//! Blind spot: build-wide changes (a `#[global_allocator]` in a library
//! crate, codegen flags) speed up the probe too, and the correction then
//! hides the gain. Read the traced run's `raw.*` rates for such changes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// This thread's CPU time in seconds. Unlike host (wall) time it leaves
/// out time the hypervisor steals from the virtual CPU, which on the
/// shared host this benchmark was tuned on took 5–12% of a run and varied
/// from run to run.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The DES probe's fixed nominal rate, in probe operations per second.
/// Corrected lane rates are "the rate on a host where the probe runs at
/// this speed". It is a constant of the benchmark: never retune it, or
/// every corrected figure shifts against its history.
pub const NOMINAL_DES_PER_S: f64 = 1.0e6;

/// Pending events the probe keeps in flight.
const POPULATION: u64 = 1 << 16;
/// Distinct hash-map keys the events touch (the map's working set).
const KEYS: u64 = 1 << 18;
/// Operations timed per probe call.
const OPS_PER_CALL: u32 = 4_000;
/// ALU loop iterations per probe call.
const ALU_ITERS: u64 = 1 << 18;

type ProbeFn = Box<dyn FnOnce(&mut HashMap<u64, u64>, u64) -> u64>;

/// A hold model: pop the earliest event, run its closure against the
/// state map, schedule a replacement.
pub struct DesProbe {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slab: Vec<Option<ProbeFn>>,
    free: Vec<u32>,
    map: HashMap<u64, u64>,
    seq: u64,
    rng: u64,
}

impl DesProbe {
    /// A probe with its full population scheduled and its map warmed, so
    /// every call measures the steady state.
    pub fn new() -> DesProbe {
        let mut p = DesProbe {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            map: HashMap::new(),
            seq: 0,
            rng: 0x0005_EED0_FDE5,
        };
        for _ in 0..POPULATION {
            let at = p.next_rand() % 4096;
            p.push(at);
        }
        for _ in 0..200 {
            p.rate();
        }
        p
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: fixed stream, independent of the workload seed.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn push(&mut self, at: u64) {
        let key = self.next_rand() % KEYS;
        let f: ProbeFn = Box::new(move |map, now| {
            let v = map.entry(key).or_insert(0);
            *v = v.wrapping_add(now ^ key);
            (*v % 4093) + 1
        });
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = Some(f);
                idx
            }
            None => {
                self.slab.push(Some(f));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    fn step(&mut self) {
        let Reverse((at, _, idx)) = self.heap.pop().expect("the hold model never drains");
        let f = self.slab[idx as usize].take().expect("live slot");
        self.free.push(idx);
        let delta = f(&mut self.map, at);
        self.push(at + delta);
    }

    /// Time one probe call; returns operations per CPU second.
    pub fn rate(&mut self) -> f64 {
        let start = thread_cpu_s();
        for _ in 0..OPS_PER_CALL {
            self.step();
        }
        black_box(&self.map);
        OPS_PER_CALL as f64 / (thread_cpu_s() - start)
    }
}

impl Default for DesProbe {
    fn default() -> Self {
        DesProbe::new()
    }
}

/// The CPU-bound probe: a register-only mixing loop. Returns iterations
/// per CPU second.
pub fn alu_rate() -> f64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let start = thread_cpu_s();
    for _ in 0..ALU_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    ALU_ITERS as f64 / (thread_cpu_s() - start)
}
