#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace vp::util {

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return std::min(requested, 256u);
}

void run_shards(unsigned shards, const std::function<void(unsigned)>& body) {
  if (shards <= 1) {
    body(0);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto guarded = [&](unsigned shard) {
    try {
      body(shard);
    } catch (...) {
      std::lock_guard lock{error_mutex};
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(shards - 1);
  for (unsigned s = 1; s < shards; ++s)
    threads.emplace_back(guarded, s);
  guarded(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  const unsigned shards = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, threads), std::max<std::size_t>(count, 1)));
  run_shards(shards, [&](unsigned shard) {
    const std::size_t begin = count * shard / shards;
    const std::size_t end = count * (shard + 1) / shards;
    if (begin < end) body(begin, end);
  });
}

}  // namespace vp::util
