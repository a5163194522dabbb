// wb_loadgen: runs one shim workload against the process's own malloc.
//
// It links no wsc library, so the same binary measures glibc when run
// bare and libwscmalloc.so when run with LD_PRELOAD; the difference is the
// allocator alone.
//
//   wb_loadgen --workload=local_churn|cross_thread|phase_lifecycle
//              --seed=N [--inject=corrupt|overlap]
//
// Prints one JSON line: timings, a TSC-sampled latency summary (one call
// in ~16), RSS, the realised op mix and the outcome of every correctness
// check. With the shim preloaded it also checks that the shim's
// allocations - frees delta (wscmalloc_stats_json) is the same before and
// after the run, and it releases memory with wscmalloc_release_memory;
// on glibc, malloc_trim(0) takes that role.

#include <dlfcn.h>
#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "harness.h"

namespace wscbench {
namespace {

// The shim's introspection exports; all null on plain glibc.
struct ShimHooks {
  int (*is_active)() = nullptr;
  size_t (*release_memory)(size_t) = nullptr;
  size_t (*stats_json)(char*, size_t) = nullptr;

  static ShimHooks Discover() {
    ShimHooks h;
    h.is_active =
        reinterpret_cast<int (*)()>(dlsym(RTLD_DEFAULT, "wscmalloc_is_active"));
    h.release_memory = reinterpret_cast<size_t (*)(size_t)>(
        dlsym(RTLD_DEFAULT, "wscmalloc_release_memory"));
    h.stats_json = reinterpret_cast<size_t (*)(char*, size_t)>(
        dlsym(RTLD_DEFAULT, "wscmalloc_stats_json"));
    return h;
  }
  bool active() const { return is_active != nullptr && is_active() != 0; }
};

// Reads one integer field of the shim's stats JSON; -1 when missing.
double StatsField(const char* json, const char* key) {
  std::string pat = std::string("\"") + key + "\":";
  const char* at = std::strstr(json, pat.c_str());
  return at == nullptr ? -1 : std::strtod(at + pat.size(), nullptr);
}

class LibcApi {
 public:
  static constexpr uint64_t kSampleEvery = 16;

  LibcApi(const ShimHooks& shim, uint64_t seed) : shim_(shim), seed_(seed) {
    // Samples live outside the allocator under test, in lazily touched
    // pages, so they add nothing to its heap and little to RSS.
    void* mem = mmap(nullptr, kSampleCap * sizeof(uint32_t),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    samples_ = mem == MAP_FAILED ? nullptr : static_cast<uint32_t*>(mem);
  }
  ~LibcApi() {
    if (samples_ != nullptr) munmap(samples_, kSampleCap * sizeof(uint32_t));
  }
  LibcApi(const LibcApi&) = delete;
  LibcApi& operator=(const LibcApi&) = delete;

  struct Thread {
    Rng rng;
    uint64_t countdown;
    uint32_t* buf;
    uint32_t* end;
  };

  Thread Enter(int tid) {
    Thread t{Rng(seed_ ^ (0x7a3ull << 32) ^ static_cast<uint64_t>(tid)), 0,
             nullptr, nullptr};
    t.countdown = Gap(t.rng);
    return t;
  }
  void Leave(Thread&) {}

  void* Malloc(Thread& t, size_t size) {
    return Timed(t, [&] { return std::malloc(size); });
  }
  void* Calloc(Thread& t, size_t n, size_t size) {
    return Timed(t, [&] { return std::calloc(n, size); });
  }
  void* Realloc(Thread& t, void* p, size_t size) {
    return Timed(t, [&] { return std::realloc(p, size); });
  }
  int Memalign(Thread& t, void** out, size_t align, size_t size) {
    return Timed(t, [&] { return posix_memalign(out, align, size); });
  }
  void Free(Thread& t, void* p) {
    Timed(t, [&] {
      std::free(p);
      return 0;
    });
  }
  size_t UsableSize(void* p) { return malloc_usable_size(p); }

  void BeginOp(Thread&, uint64_t) {}
  void EndOp(Thread&) {}

  void Release() {
    if (shim_.active()) {
      shim_.release_memory(~size_t{0});
    } else {
      malloc_trim(0);
    }
  }

  void Mark(const char* what) {
    if (std::strcmp(what, "timed_begin") == 0) {
      sampling_.store(true, std::memory_order_relaxed);
    } else if (std::strcmp(what, "timed_end") == 0) {
      sampling_.store(false, std::memory_order_relaxed);
    }
  }

  // Sampled latencies in ticks, sorted.
  std::vector<uint32_t> Samples() const {
    std::vector<uint32_t> out;
    const size_t used = std::min(next_.load(), kSampleCap);
    for (size_t i = 0; i < used && samples_ != nullptr; ++i) {
      if (samples_[i] != 0) out.push_back(samples_[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr size_t kSampleCap = size_t{4} << 20;
  static constexpr size_t kChunk = 1024;

  static uint64_t Gap(Rng& rng) { return 1 + rng.Below(2 * kSampleEvery - 1); }

  template <class F>
  std::invoke_result_t<F> Timed(Thread& t, F f) {
    if (--t.countdown != 0) return f();
    t.countdown = Gap(t.rng);
    const uint64_t t0 = Ticks();
    auto r = f();
    const uint64_t t1 = Ticks();
    if (sampling_.load(std::memory_order_relaxed)) Record(t, t1 - t0);
    return r;
  }

  void Record(Thread& t, uint64_t ticks) {
    if (t.buf == t.end) {
      const size_t at = next_.fetch_add(kChunk, std::memory_order_relaxed);
      if (samples_ == nullptr || at + kChunk > kSampleCap) return;
      t.buf = samples_ + at;
      t.end = t.buf + kChunk;
    }
    *t.buf++ = static_cast<uint32_t>(
        std::clamp<uint64_t>(ticks, 1, UINT32_MAX));
  }

  const ShimHooks& shim_;
  uint64_t seed_;
  uint32_t* samples_ = nullptr;
  std::atomic<size_t> next_{0};
  std::atomic<bool> sampling_{false};
};

uint32_t Percentile(const std::vector<uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  Inject inject = Inject::kNone;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--workload=", 11) == 0) {
      workload = a + 11;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strcmp(a, "--inject=corrupt") == 0) {
      inject = Inject::kCorrupt;
    } else if (std::strcmp(a, "--inject=overlap") == 0) {
      inject = Inject::kOverlap;
    } else {
      std::fprintf(stderr, "wb_loadgen: unknown argument %s\n", a);
      return 2;
    }
  }

  const ShimHooks shim = ShimHooks::Discover();
  LibcApi api(shim, seed);
  // Warm glibc's thread-stack cache before the first stats snapshot: a
  // fresh stack's TLS block is malloc'd once and then kept with the cached
  // stack, which would read as an allocation that is never freed.
  RunInWaves(4, 4, [](int) {});

  char before[2048] = "", after[2048] = "";
  if (shim.active()) shim.stats_json(before, sizeof(before));
  RunResult r;
  if (!RunWorkload(workload, api, seed, inject, &r)) {
    std::fprintf(stderr, "wb_loadgen: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  if (shim.active()) shim.stats_json(after, sizeof(after));

  // Every object the run allocated is freed by its end, so the shim's
  // live-object count must be unchanged.
  bool balanced = true;
  std::string balance = "null";
  if (shim.active()) {
    const double d_allocs = StatsField(after, "allocations") -
                            StatsField(before, "allocations");
    const double d_frees =
        StatsField(after, "frees") - StatsField(before, "frees");
    balanced = d_allocs == d_frees && d_allocs > 0;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "{\"allocations\":%.0f,\"frees\":%.0f}",
                  d_allocs, d_frees);
    balance = buf;
  }

  const std::vector<uint32_t> lat = api.Samples();
  const uint64_t attempted = r.counts.Attempted();
  const uint64_t failed = r.counts.failed + (balanced ? 0 : 1);
  std::printf(
      "{\"workload\":\"%s\",\"allocator\":\"%s\",\"seed\":%" PRIu64
      ",\"t_first_call\":%.9f,\"timed_s\":%.9f,\"cpu_s\":%.6f,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"align16_misses\":%" PRIu64 ",\"lat_samples\":%zu,"
      "\"lat_p50_ns\":%.4f,\"lat_p99_ns\":%.4f,\"rss_peak_kb\":%" PRIu64
      ",\"rss_end_kb\":%" PRIu64 ",\"threads_created\":%" PRIu64
      ",\"shim_bootstrap_bytes\":%.0f,\"shim_threads\":%.0f,"
      "\"balance\":%s,\"mix\":%s}\n",
      workload.c_str(), shim.active() ? "wscmalloc" : "system", seed,
      r.t_first_call, r.timed_s, r.cpu_s, attempted, failed,
      r.counts.align16_misses, lat.size(),
      Percentile(lat, 0.50) * r.ns_per_tick,
      Percentile(lat, 0.99) * r.ns_per_tick, r.rss_peak_kb, r.rss_end_kb,
      r.threads_created,
      shim.active() ? StatsField(after, "bootstrap_bytes") : 0.0,
      shim.active() ? StatsField(after, "threads") : 0.0, balance.c_str(),
      r.counts.MixJson().c_str());
  return 0;
}

}  // namespace
}  // namespace wscbench

int main(int argc, char** argv) { return wscbench::Main(argc, argv); }
