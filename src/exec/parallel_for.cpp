#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace otem::exec {

namespace {
/// Set while a thread works a parallel_for range; a nested call on such
/// a thread runs serially instead of spawning a second layer.
thread_local bool t_in_parallel_for = false;

size_t env_threads() {
  const char* raw = std::getenv("OTEM_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return 0;  // not a clean integer
  // Cap to something sane so a typo cannot fork-bomb the process.
  return static_cast<size_t>(v > 1024 ? 1024 : v);
}
}  // namespace

size_t default_concurrency() {
  const size_t env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads) {
  if (threads == 0) threads = default_concurrency();
  const size_t width = std::min(threads, n);
  if (width <= 1 || t_in_parallel_for) {
    // Serial path: inline on the caller, exceptions propagate directly.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    t_in_parallel_for = true;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
    t_in_parallel_for = false;
  };

  std::vector<std::thread> workers;
  workers.reserve(width - 1);
  try {
    while (workers.size() + 1 < width) workers.emplace_back(work);
  } catch (const std::system_error&) {
    // Could not spawn the full complement (resource limits): the caller
    // and whatever came up share the range.
  }
  work();
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace otem::exec
