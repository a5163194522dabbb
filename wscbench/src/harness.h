// Shared load-generator core: the three shim workloads, their correctness
// checks, and the small clock/RNG/proc helpers they need.
//
// Every workload is a template over an allocator API so one op stream can
// be replayed through three targets with identical inputs:
//
//   loadgen.cc  LibcApi     malloc & friends (glibc, or the preloaded shim)
//   traced.cc   RtaApi      RealThreadsAllocator, every call timed
//   traced.cc   ShimApi     wsc::shim::Shim*, every call timed
//
// An Api provides
//
//   struct Thread;                         per-generator-thread state
//   Thread Enter(int tid);  void Leave(Thread&);
//   void* Malloc(Thread&, size_t);
//   void* Calloc(Thread&, size_t n, size_t size);
//   void* Realloc(Thread&, void*, size_t);
//   int   Memalign(Thread&, void** out, size_t align, size_t size);
//   void  Free(Thread&, void*);
//   size_t UsableSize(void*);
//   void  BeginOp(Thread&, uint64_t op);  void EndOp(Thread&);
//   void  Release();                       hand freed memory back to the OS
//   void  Mark(const char* what);          phase boundaries, peaks, timing
//
// This header depends on nothing but libc and the C++ standard library:
// the load generator that includes it must link no wsc library.

#ifndef WSCBENCH_HARNESS_H_
#define WSCBENCH_HARNESS_H_

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace wscbench {

// ---------------------------------------------------------------------------
// Clocks and process counters.
// ---------------------------------------------------------------------------

inline uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Cycle counter for per-call timing (converted to ns with a TickClock
// calibrated over the timed phase). Falls back to the monotonic clock where
// there is no TSC.
inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return MonoNs();
#endif
}

// Pairs a tick reading with a monotonic-clock reading at two points, which
// gives the tick rate without a separate calibration sleep.
struct TickClock {
  uint64_t ticks0 = 0, ns0 = 0, ticks1 = 0, ns1 = 0;
  void Start() { ns0 = MonoNs(); ticks0 = Ticks(); }
  void Stop() { ns1 = MonoNs(); ticks1 = Ticks(); }
  double NsPerTick() const {
    return ticks1 > ticks0 ? static_cast<double>(ns1 - ns0) /
                                 static_cast<double>(ticks1 - ticks0)
                           : 1.0;
  }
  double Seconds() const { return static_cast<double>(ns1 - ns0) * 1e-9; }
};

// User plus system CPU time of the whole process, exited threads included.
inline double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

// A "Vm...:" field of /proc/self/status in KiB (VmHWM, VmRSS); 0 if absent.
inline uint64_t ProcStatusKb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kb = std::strtoull(line + len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

inline int UsableCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// ---------------------------------------------------------------------------
// Deterministic inputs.
// ---------------------------------------------------------------------------

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// splitmix64: tiny, seedable, identical on every target.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(Mix64(seed ^ 0x5bd1e9955bd1e995ull)) {}
  uint64_t Next() { return Mix64(state += 0x9e3779b97f4a7c15ull); }
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Log-uniform integer in [lo, hi).
  size_t LogUniform(size_t lo, size_t hi) {
    double v = std::exp(std::log(static_cast<double>(lo)) +
                        Unit() * std::log(static_cast<double>(hi) /
                                          static_cast<double>(lo)));
    size_t s = static_cast<size_t>(v);
    return std::min(std::max(s, lo), hi - 1);
  }
};

// ---------------------------------------------------------------------------
// The realised op mix.
// ---------------------------------------------------------------------------

enum Call : int { kMalloc, kCalloc, kRealloc, kMemalign, kFree, kNumCalls };
inline constexpr const char* kCallNames[kNumCalls] = {
    "malloc", "calloc", "realloc", "posix_memalign", "free"};

// Request-size bands; frees are not banded.
inline constexpr int kNumBands = 7;
inline constexpr size_t kBandUpper[kNumBands - 1] = {64,   256,  1024,
                                                     4096, 16384, 262144};
inline constexpr const char* kBandNames[kNumBands] = {
    "16-64", "65-256", "257-1K", "1K-4K", "4K-16K", "16K-256K", "large"};

inline int BandOf(size_t size) {
  for (int b = 0; b < kNumBands - 1; ++b) {
    if (size <= kBandUpper[b]) return b;
  }
  return kNumBands - 1;
}

// Per-thread outcome counters, summed over threads at the end.
struct Counts {
  uint64_t calls[kNumCalls] = {};
  uint64_t bands[kNumBands] = {};
  uint64_t failed = 0;          // NULL returns and failed object checks
  uint64_t align16_misses = 0;  // see Client::Adopt

  uint64_t Attempted() const {
    uint64_t n = 0;
    for (uint64_t c : calls) n += c;
    return n;
  }
  void Add(const Counts& o) {
    for (int i = 0; i < kNumCalls; ++i) calls[i] += o.calls[i];
    for (int i = 0; i < kNumBands; ++i) bands[i] += o.bands[i];
    failed += o.failed;
    align16_misses += o.align16_misses;
  }
  std::string MixJson() const {
    std::string out = "{\"calls\":{";
    for (int i = 0; i < kNumCalls; ++i) {
      out += (i ? ",\"" : "\"") + std::string(kCallNames[i]) +
             "\":" + std::to_string(calls[i]);
    }
    out += "},\"size_bands\":{";
    for (int i = 0; i < kNumBands; ++i) {
      out += (i ? ",\"" : "\"") + std::string(kBandNames[i]) +
             "\":" + std::to_string(bands[i]);
    }
    out += "}}";
    return out;
  }
};

// ---------------------------------------------------------------------------
// Correctness checks.
// ---------------------------------------------------------------------------

// A live object as the generator sees it. `id` is unique per run, so the
// seed-derived tags written into the first and last word of the object
// identify it: a tag that changed between allocation and free means the
// allocator handed the memory (or part of it) to someone else.
struct Obj {
  char* p = nullptr;
  uint32_t size = 0;
  uint64_t id = 0;
};

// Deliberate faults for the benchmark's own tests (local_churn only):
// corrupt one object's tail word, or hand out a block that overlaps a live
// one. Either must surface as a failed check.
enum class Inject { kNone, kCorrupt, kOverlap };

inline constexpr uint64_t kInjectAtOp = 1000;

template <class Api>
class Client {
 public:
  Client(Api& api, uint64_t seed, int tid)
      : api_(api),
        th_(api.Enter(tid)),
        seed_(seed),
        next_id_((static_cast<uint64_t>(tid) + 1) << 40) {}

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  typename Api::Thread& thread() { return th_; }
  Counts& counts() { return counts_; }
  // Hands the thread's API state back; call once, on the owning thread.
  void Finish() { api_.Leave(th_); }

  bool Malloc(Obj& o, size_t size) {
    Count(kMalloc, size);
    void* p = api_.Malloc(th_, size);
    return Adopt(o, p, size, 0, false);
  }

  bool Calloc(Obj& o, size_t size) {
    Count(kCalloc, size);
    void* p = api_.Calloc(th_, 1, size);
    return Adopt(o, p, size, 0, true);
  }

  bool Memalign(Obj& o, size_t align, size_t size) {
    Count(kMemalign, size);
    void* p = nullptr;
    if (api_.Memalign(th_, &p, align, size) != 0) p = nullptr;
    return Adopt(o, p, size, align, false);
  }

  // Grows or shrinks a live object; the prefix must survive.
  bool Realloc(Obj& o, size_t size) {
    Count(kRealloc, size);
    CheckTags(o);
    const uint64_t head = Head(o.id);
    const uint64_t tail = Tail(o.id);
    const size_t old_size = o.size;
    void* p = api_.Realloc(th_, o.p, size);
    if (p == nullptr) {
      ++counts_.failed;
      Free(o);  // the old block is still ours on failure
      return false;
    }
    char* c = static_cast<char*>(p);
    uint64_t w;
    std::memcpy(&w, c, sizeof(w));
    bool ok = w == head;
    if (size >= old_size) {
      std::memcpy(&w, c + old_size - 8, sizeof(w));
      ok = ok && w == tail;
    }
    if (!ok) ++counts_.failed;
    o.p = nullptr;
    return Adopt(o, p, size, 0, false);
  }

  void Free(Obj& o) {
    Count(kFree, 0);
    CheckTags(o);
    api_.Free(th_, o.p);
    o.p = nullptr;
  }

  // Checks an object's tags without freeing it (injected fake blocks).
  void Forget(Obj& o) {
    CheckTags(o);
    o.p = nullptr;
  }

  // Tags `p` as a fresh block of `size` bytes without a call (the overlap
  // fault's fake block).
  void AdoptFake(Obj& o, char* p, size_t size) {
    o.p = p;
    o.size = static_cast<uint32_t>(size);
    o.id = next_id_++;
    WriteTags(o);
  }

  void CorruptTail(Obj& o) {
    if (o.p != nullptr) o.p[o.size - 1] ^= 0x5a;
  }

 private:
  void Count(Call c, size_t size) {
    ++counts_.calls[c];
    if (c != kFree) ++counts_.bands[BandOf(size)];
  }

  uint64_t Head(uint64_t id) const { return Mix64(seed_ ^ id); }
  uint64_t Tail(uint64_t id) const { return ~Mix64(seed_ + id); }

  void WriteTags(const Obj& o) {
    uint64_t h = Head(o.id), t = Tail(o.id);
    std::memcpy(o.p, &h, sizeof(h));
    std::memcpy(o.p + o.size - 8, &t, sizeof(t));
  }

  void CheckTags(const Obj& o) {
    uint64_t h, t;
    std::memcpy(&h, o.p, sizeof(h));
    std::memcpy(&t, o.p + o.size - 8, sizeof(t));
    if (h != Head(o.id) || t != Tail(o.id)) ++counts_.failed;
  }

  // Checks a block fresh from the allocator and takes ownership of it.
  // Requests are always >= 16 bytes, so both tags fit. `align` is the
  // alignment requested from posix_memalign, or 0 for the malloc family,
  // which must give at least 8. Blocks that miss glibc's 16-byte guarantee
  // (alignof(max_align_t)) are counted apart, as a finding, not a failure:
  // the shim's size classes are 8-byte spaced.
  bool Adopt(Obj& o, void* p, size_t size, size_t align, bool zeroed) {
    if (p == nullptr) {
      ++counts_.failed;
      o.p = nullptr;
      return false;
    }
    const uintptr_t a = reinterpret_cast<uintptr_t>(p);
    const size_t promised = align != 0 ? align : 8;
    bool ok = a % promised == 0 && api_.UsableSize(p) >= size;
    if (a % 16 != 0) ++counts_.align16_misses;
    if (zeroed) {
      const char* c = static_cast<const char*>(p);
      for (size_t i = 0; i < size; ++i) {
        if (c[i] != 0) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) ++counts_.failed;
    o.p = static_cast<char*>(p);
    o.size = static_cast<uint32_t>(size);
    o.id = next_id_++;
    WriteTags(o);
    return true;
  }

  Api& api_;
  typename Api::Thread th_;
  uint64_t seed_;
  uint64_t next_id_;
  Counts counts_;
};

// ---------------------------------------------------------------------------
// Workload plumbing.
// ---------------------------------------------------------------------------

// What one run of a workload measured. Times are monotonic-clock readings
// (seconds) so the caller can relate them to its own spawn time.
struct RunResult {
  Counts counts;
  double t_first_call = 0;  // monotonic seconds at the first timed call
  double timed_s = 0;       // wall time of the timed phase
  double cpu_s = 0;         // process CPU time over the timed phase
  double ns_per_tick = 1;
  uint64_t rss_peak_kb = 0;  // VmHWM at the end of the timed phase
  uint64_t rss_end_kb = 0;   // VmRSS after every object is freed + release
  uint64_t threads_created = 0;
};

// Brackets the timed phase: clocks, CPU time, and the peak RSS.
class TimedPhase {
 public:
  explicit TimedPhase(RunResult& r) : r_(r) {}
  void Begin() {
    cpu0_ = ProcessCpuSeconds();
    clock_.Start();
    r_.t_first_call = static_cast<double>(clock_.ns0) * 1e-9;
  }
  void End() {
    clock_.Stop();
    r_.cpu_s = ProcessCpuSeconds() - cpu0_;
    r_.timed_s = clock_.Seconds();
    r_.ns_per_tick = clock_.NsPerTick();
    r_.rss_peak_kb = ProcStatusKb("VmHWM:");
  }

 private:
  RunResult& r_;
  TickClock clock_;
  double cpu0_ = 0;
};

// One-shot barrier. Waiters block in the kernel, so the coordinating main
// thread takes no CPU from the generator threads while they run.
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  void Arrive() {
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      released_.store(1, std::memory_order_release);
      released_.notify_all();
    }
  }
  bool Passed() const { return released_.load(std::memory_order_acquire) != 0; }
  void Wait() {
    Arrive();
    while (!Passed()) released_.wait(0);
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<int> released_{0};
};

// Lock-free single-producer single-consumer ring of objects in flight
// between two generator threads.
class SpscRing {
 public:
  explicit SpscRing(size_t capacity_pow2) : slots_(capacity_pow2) {}
  bool Push(const Obj& o) {
    const size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ == slots_.size()) return false;
    }
    slots_[t & (slots_.size() - 1)] = o;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool Pop(Obj& o) {
    const size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return false;
    }
    o = slots_[h & (slots_.size() - 1)];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<Obj> slots_;
  alignas(64) std::atomic<size_t> head_{0};
  size_t tail_cache_ = 0;  // consumer's view of tail_
  alignas(64) std::atomic<size_t> tail_{0};
  size_t head_cache_ = 0;  // producer's view of head_
};

// ---------------------------------------------------------------------------
// local_churn: one thread, a rotating window of ~4K live small objects.
// Nearly every call hits the thread cache, so the fast path and the shim's
// entry code dominate.
// ---------------------------------------------------------------------------

inline constexpr size_t kChurnWindow = 4096;
inline constexpr uint64_t kChurnWarmupOps = 200000;
inline constexpr uint64_t kChurnOps = 3000000;

template <class Api>
void ChurnStep(Client<Api>& c, Rng& rng, std::vector<Obj>& window) {
  Obj& o = window[rng.Below(window.size())];
  const uint64_t u = rng.Below(1000);
  const size_t size = rng.LogUniform(16, 4097);
  if (o.p != nullptr && u < 20) {  // 2% realloc in place of free+malloc
    c.Realloc(o, size);
    return;
  }
  if (o.p != nullptr) c.Free(o);
  if (u < 50) {  // 3% calloc
    c.Calloc(o, size);
  } else if (u < 60) {  // 1% posix_memalign, 16 B .. 4 KiB alignment
    c.Memalign(o, size_t{16} << rng.Below(9), size);
  } else {
    c.Malloc(o, size);
  }
}

template <class Api>
RunResult RunLocalChurn(Api& api, uint64_t seed, Inject inject) {
  RunResult r;
  TimedPhase timed(r);
  std::vector<Obj> window(kChurnWindow);
  Obj fake;
  Rng rng(seed);
  Client<Api> c(api, seed, 0);
  for (Obj& o : window) c.Malloc(o, rng.LogUniform(16, 4097));
  for (uint64_t i = 0; i < kChurnWarmupOps; ++i) ChurnStep(c, rng, window);

  api.Mark("timed_begin");
  timed.Begin();
  for (uint64_t i = 0; i < kChurnOps; ++i) {
    api.BeginOp(c.thread(), i);
    ChurnStep(c, rng, window);
    api.EndOp(c.thread());
    if (inject != Inject::kNone && i == kInjectAtOp) {
      Obj& victim = *std::find_if(
          window.begin(), window.end(),
          [](const Obj& o) { return o.p != nullptr && o.size >= 32; });
      if (inject == Inject::kCorrupt) {
        c.CorruptTail(victim);
      } else {
        // A block inside a live one: its tail tag lands on the victim's.
        c.AdoptFake(fake, victim.p + 8, victim.size - 8);
      }
    }
  }
  timed.End();
  api.Mark("timed_end");

  if (fake.p != nullptr) c.Forget(fake);
  for (Obj& o : window) {
    if (o.p != nullptr) c.Free(o);
  }
  api.Release();
  r.rss_end_kb = ProcStatusKb("VmRSS:");
  r.counts = c.counts();
  r.threads_created = 1;
  c.Finish();
  return r;
}

// ---------------------------------------------------------------------------
// cross_thread: min(nproc, 4) threads in a ring. Each allocates from its
// own band of small classes and frees three quarters of its objects on the
// next thread over a lock-free SPSC ring, so allocating caches underflow
// and freeing caches overflow all the time: batches flow thread cache ->
// transfer shard -> CFL shard (with steals) under contention.
// ---------------------------------------------------------------------------

inline constexpr size_t kCrossWindow = 1024;
inline constexpr uint64_t kCrossWarmupOps = 50000;
inline constexpr uint64_t kCrossOps = 1000000;  // per thread
inline constexpr size_t kCrossRing = 4096;
inline constexpr uint64_t kHandoffPerMille = 750;

inline int CrossThreads() { return std::max(2, std::min(4, UsableCpus())); }

// Thread t of n draws log-uniformly from the t-th slice of [16, 4096).
inline size_t CrossSize(Rng& rng, int t, int n) {
  const double lo = std::log2(16.0), hi = std::log2(4096.0);
  const double a = lo + (hi - lo) * t / n, b = lo + (hi - lo) * (t + 1) / n;
  return rng.LogUniform(static_cast<size_t>(std::exp2(a)),
                        static_cast<size_t>(std::exp2(b)) + 1);
}

template <class Api>
RunResult RunCrossThread(Api& api, uint64_t seed) {
  RunResult r;
  TimedPhase timed(r);
  const int n = CrossThreads();
  std::vector<std::unique_ptr<SpscRing>> inbox;
  std::vector<std::vector<Obj>> windows(n, std::vector<Obj>(kCrossWindow));
  std::vector<Counts> counts(n);
  for (int t = 0; t < n; ++t) {
    inbox.push_back(std::make_unique<SpscRing>(kCrossRing));
  }
  std::vector<std::atomic<bool>> produced(n);
  for (auto& p : produced) p.store(false);
  Barrier start(n + 1), stop(n + 1), teardown(n + 1);

  auto worker = [&](int t) {
    Client<Api> c(api, seed, t);
    Rng rng(seed * 1000003ull + static_cast<uint64_t>(t));
    std::vector<Obj>& window = windows[t];
    SpscRing& mine = *inbox[t];
    SpscRing& next = *inbox[(t + 1) % n];
    Obj in;
    auto drain = [&](int max) {
      for (int k = 0; k < max && mine.Pop(in); ++k) c.Free(in);
    };
    auto step = [&] {
      drain(8);
      Obj& o = window[rng.Below(window.size())];
      if (o.p != nullptr) {
        if (rng.Below(1000) < kHandoffPerMille) {
          while (!next.Push(o)) drain(64);  // our consumer is draining too
          o.p = nullptr;
        } else {
          c.Free(o);
        }
      }
      if (rng.Below(100) < 2) {
        c.Calloc(o, CrossSize(rng, t, n));
      } else {
        c.Malloc(o, CrossSize(rng, t, n));
      }
    };
    for (uint64_t i = 0; i < kCrossWarmupOps; ++i) step();
    // Keep draining while the others warm up: a producer blocks on a full
    // ring until its consumer frees.
    start.Arrive();
    while (!start.Passed()) drain(64);
    for (uint64_t i = 0; i < kCrossOps; ++i) {
      api.BeginOp(c.thread(), i);
      step();
      api.EndOp(c.thread());
    }
    produced[t].store(true, std::memory_order_release);
    const int prev = (t + n - 1) % n;
    for (;;) {
      const bool done = produced[prev].load(std::memory_order_acquire);
      drain(1 << 30);
      if (done) break;
    }
    drain(1 << 30);  // anything pushed between the drain and the flag load
    stop.Wait();
    teardown.Wait();
    for (Obj& o : window) {
      if (o.p != nullptr) c.Free(o);
    }
    counts[t] = c.counts();
    c.Finish();
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) threads.emplace_back(worker, t);
  start.Wait();
  api.Mark("timed_begin");
  timed.Begin();
  stop.Wait();
  timed.End();
  api.Mark("timed_end");
  teardown.Wait();
  for (std::thread& th : threads) th.join();
  api.Release();
  r.rss_end_kb = ProcStatusKb("VmRSS:");
  for (const Counts& c : counts) r.counts.Add(c);
  r.threads_created = static_cast<uint64_t>(n);
  return r;
}

// ---------------------------------------------------------------------------
// phase_lifecycle: phases of growth then full decay, each on fresh
// short-lived threads (at most min(nproc, 4) alive at a time). Each phase
// uses its own size band; ~3% of its phase objects are large (256 KiB -
// 1 MiB). The survivors are freed by other threads after their allocators
// exited, and each phase ends with a release call. Span carve, the large
// first-fit path, release and thread registration do the work here.
// ---------------------------------------------------------------------------

struct PhaseBand {
  size_t lo, hi;     // small request sizes, log-uniform in [lo, hi)
  uint64_t objects;  // small allocations in the phase
};

// Up to ~24 MiB of small survivors per phase, at most 24K allocations.
// Larger phases multiply the transient large objects (3% of allocations):
// at 200K allocations a phase, the shim's walk of its pending large list
// made ~1% of calls take 0.1-2 ms, so p99 flipped between the two modes
// from run to run. The per-layer large.* metrics still show that path.
inline constexpr PhaseBand kPhases[] = {
    {16, 64, 24000},     {64, 256, 24000},    {256, 1024, 24000},
    {1024, 4096, 11000}, {4096, 16384, 2800}, {16384, 65536, 700},
};
inline constexpr int kGrowthThreads = 16;
inline constexpr int kDecayThreads = 16;
inline constexpr uint64_t kLargePerMille = 30;
// Short-lived temporaries of the phase's band around each phase object,
// freed at once (most allocations die young, as in Fig. 8). Without them
// ~4% of calls carve a fresh span and fault its pages inside the call, so
// p99 lands among page faults, whose cost on a shared host varies 20x
// from minute to minute; with them p99 lands on the slow path itself.
inline constexpr int kTempsPerObject = 8;
inline constexpr uint64_t kLocalFreePerMille = 200;
inline constexpr int kLargeHeld = 2;  // large objects a thread keeps live

// Runs `count` short-lived threads, at most `alive` at a time.
template <class Fn>
void RunInWaves(int count, int alive, Fn fn) {
  for (int first = 0; first < count; first += alive) {
    std::vector<std::thread> wave;
    for (int k = first; k < std::min(count, first + alive); ++k) {
      wave.emplace_back(fn, k);
    }
    for (std::thread& th : wave) th.join();
  }
}

template <class Api>
RunResult RunPhaseLifecycle(Api& api, uint64_t seed) {
  RunResult r;
  TimedPhase timed(r);
  const int alive = std::min(4, UsableCpus());
  constexpr int kNumPhases = static_cast<int>(std::size(kPhases));
  uint64_t max_objects = 0;
  for (const PhaseBand& b : kPhases) {
    max_objects = std::max(max_objects, b.objects);
  }
  // Survivor slices, one per growth thread, sized up front so the timed
  // phase allocates nothing for the harness.
  std::vector<std::vector<Obj>> slices(kGrowthThreads);
  for (auto& s : slices) {
    s.reserve(max_objects / kGrowthThreads + 2 * kLargeHeld + 64);
  }
  std::vector<Counts> counts(kGrowthThreads + kDecayThreads);

  api.Mark("timed_begin");
  timed.Begin();
  for (int ph = 0; ph < kNumPhases; ++ph) {
    const PhaseBand band = kPhases[ph];
    api.Mark("phase_begin");
    RunInWaves(kGrowthThreads, alive, [&](int g) {
      const int tid = 1 + ph * (kGrowthThreads + kDecayThreads) + g;
      Client<Api> c(api, seed, tid);
      Rng rng(seed * 7919ull + static_cast<uint64_t>(tid));
      std::vector<Obj>& mine = slices[g];
      Obj held[kLargeHeld];
      const uint64_t ops = band.objects / kGrowthThreads;
      for (uint64_t i = 0; i < ops; ++i) {
        api.BeginOp(c.thread(), i);
        if (rng.Below(1000) < kLargePerMille) {
          Obj& h = held[i % kLargeHeld];
          if (h.p != nullptr) c.Free(h);
          c.Malloc(h, rng.LogUniform(256 << 10, (1 << 20) + 1));
        }
        for (int k = 0; k < kTempsPerObject; ++k) {
          Obj tmp;
          if (c.Malloc(tmp, rng.LogUniform(band.lo, band.hi))) c.Free(tmp);
        }
        Obj o;
        if (c.Malloc(o, rng.LogUniform(band.lo, band.hi))) mine.push_back(o);
        if (!mine.empty() && rng.Below(1000) < kLocalFreePerMille) {
          const size_t k = rng.Below(mine.size());
          c.Free(mine[k]);
          mine[k] = mine.back();
          mine.pop_back();
        }
        api.EndOp(c.thread());
      }
      for (Obj& h : held) {
        if (h.p != nullptr) mine.push_back(h);
      }
      counts[g].Add(c.counts());
      c.Finish();
    });
    api.Mark("phase_peak");
    RunInWaves(kDecayThreads, alive, [&](int d) {
      const int tid = 1 + ph * (kGrowthThreads + kDecayThreads) +
                      kGrowthThreads + d;
      Client<Api> c(api, seed, tid);
      uint64_t op = 0;
      for (auto& slice : slices) {
        for (size_t i = static_cast<size_t>(d); i < slice.size();
             i += kDecayThreads) {
          api.BeginOp(c.thread(), op++);
          c.Free(slice[i]);
          api.EndOp(c.thread());
        }
      }
      counts[kGrowthThreads + d].Add(c.counts());
      c.Finish();
    });
    for (auto& slice : slices) slice.clear();
    api.Release();
    api.Mark("phase_end");
  }
  timed.End();
  api.Mark("timed_end");
  r.rss_end_kb = ProcStatusKb("VmRSS:");
  for (const Counts& c : counts) r.counts.Add(c);
  r.threads_created = static_cast<uint64_t>(kNumPhases) *
                      (kGrowthThreads + kDecayThreads);
  return r;
}

// ---------------------------------------------------------------------------
// probe: a short fixed call mix, not a benchmark workload. The traced run
// uses it to time the allocator layers a workload never reaches (large
// calls on local_churn, every allocator layer on sim_fleet), so those
// per-layer times are a flat reference instead of a constant zero. A small
// window over 16 B - 64 KiB makes the big classes under- and overflow.
// ---------------------------------------------------------------------------

inline constexpr size_t kProbeWindow = 256;
inline constexpr uint64_t kProbeOps = 200000;
inline constexpr uint64_t kProbeLargeEvery = 1024;

template <class Api>
RunResult RunProbe(Api& api, uint64_t seed) {
  RunResult r;
  TimedPhase timed(r);
  std::vector<Obj> window(kProbeWindow);
  Obj held[kLargeHeld];
  Rng rng(seed);
  Client<Api> c(api, seed, 0);
  api.Mark("timed_begin");
  timed.Begin();
  for (uint64_t i = 0; i < kProbeOps; ++i) {
    api.BeginOp(c.thread(), i);
    Obj& o = window[rng.Below(window.size())];
    if (o.p != nullptr) c.Free(o);
    c.Malloc(o, rng.LogUniform(16, 65537));
    if (i % kProbeLargeEvery == 0) {
      Obj& h = held[(i / kProbeLargeEvery) % kLargeHeld];
      if (h.p != nullptr) c.Free(h);
      c.Malloc(h, rng.LogUniform(256 << 10, (1 << 20) + 1));
    }
    api.EndOp(c.thread());
  }
  timed.End();
  api.Mark("timed_end");
  for (Obj& o : window) {
    if (o.p != nullptr) c.Free(o);
  }
  for (Obj& h : held) {
    if (h.p != nullptr) c.Free(h);
  }
  api.Release();
  r.rss_end_kb = ProcStatusKb("VmRSS:");
  r.counts = c.counts();
  r.threads_created = 1;
  c.Finish();
  return r;
}

// Dispatches a shim workload (or the probe) by name; false for an unknown
// name.
template <class Api>
bool RunWorkload(const std::string& name, Api& api, uint64_t seed,
                 Inject inject, RunResult* out) {
  if (name == "local_churn") {
    *out = RunLocalChurn(api, seed, inject);
  } else if (name == "cross_thread") {
    *out = RunCrossThread(api, seed);
  } else if (name == "phase_lifecycle") {
    *out = RunPhaseLifecycle(api, seed);
  } else if (name == "probe") {
    *out = RunProbe(api, seed);
  } else {
    return false;
  }
  return true;
}

}  // namespace wscbench

#endif  // WSCBENCH_HARNESS_H_
