// parallel_for.h — the execution subsystem's one way to run work on
// threads: a fork-join loop over an index range for the
// embarrassingly-parallel layers (campaign workers, bench grids).
//
// Design constraints, in order:
//   1. Determinism — parallel_for never owns random state and never
//      decides WHAT runs, only WHERE. Callers pre-draw any stochastic
//      inputs serially and index into them, so `threads=N` is
//      bit-identical to `threads=1` (see docs/THREADING.md).
//   2. No surprises — exceptions thrown by `fn` are captured and the
//      first one is rethrown on the calling thread after every thread
//      has joined; a nested parallel_for from inside a worker degrades
//      to a serial loop instead of multiplying threads.
//   3. Zero cost when off — width 1 (or a 1-element range) runs inline
//      on the caller and starts no thread.
//
// Thread count resolution: explicit argument > OTEM_THREADS environment
// variable > std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>

namespace otem::exec {

/// Worker count the library defaults to: `OTEM_THREADS` when set to a
/// positive integer, else std::thread::hardware_concurrency(), else 1.
size_t default_concurrency();

/// Run `fn(i)` for every i in [0, n) and return once all complete.
/// `threads == 0` resolves to default_concurrency(). Spawns
/// min(threads, n) - 1 threads for this call; the caller works too.
/// Indices are claimed dynamically, so per-index cost may vary freely.
/// Every index runs even when one throws; the first exception is
/// rethrown here after all threads join.
void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads = 0);

}  // namespace otem::exec
