#include "sim/replica_runner.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace tmesh {

ReplicaRunner::ReplicaRunner(int threads)
    : threads_(threads > 0 ? threads : HardwareThreads()) {}

int ReplicaRunner::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ReplicaRunner::Dispatch(int runs,
                             const std::function<void(Replica&)>& task) const {
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  auto worker = [&](int w) {
    Simulator sim;  // one per worker; arenas persist
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= runs) return;
      sim.Reset();
      Replica r{i, w, sim};
      try {
        task(r);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const int pool_size = threads_ < runs ? threads_ : runs;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(pool_size - 1));
  for (int w = 1; w < pool_size; ++w) pool.emplace_back(worker, w);
  worker(0);  // the calling thread is worker 0
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace tmesh
