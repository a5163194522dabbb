// wb_traced: the traced per-layer run of a shim workload.
//
//   wb_traced --workload=W --seed=N [--trace-out=FILE]
//
// Replays W's op stream (same generator code, same seed) twice in one
// process, timing every call from outside the allocator:
//
//   1. through a RealThreadsAllocator built WithRealMemory(), classifying
//      each call as a thread-cache hit, a slow (transfer/CFL) call or a
//      large call by the change in the calling thread's own RealThreadCache
//      counters; shard counters come from TelemetrySnapshot() once the
//      threads have joined;
//   2. through the wsc::shim::Shim* entry points.
//
// The difference between the two streams' mean call times is the shim's
// own cost. Prints one JSON line of per-layer values, each ratio with its
// numerator and base, and writes sampled spans (generator op -> allocator
// call, phase, release) to FILE as a Chrome trace. Per-call times cover the
// timed phase only; allocator counters cover the whole replay (warm-up and
// teardown included).

#include <errno.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "shim/shim_core.h"
#include "spans.h"
#include "tcmalloc/config.h"
#include "tcmalloc/real_threads.h"
#include "telemetry/registry.h"
#include "telemetry/sketch.h"

namespace wscbench {
namespace {

using wsc::tcmalloc::RealThreadCache;
using wsc::tcmalloc::RealThreadsAllocator;
using wsc::telemetry::QuantileSketch;

constexpr uint64_t kSpanEvery = 1024;  // generator ops per recorded op span
constexpr double kMiB = 1024.0 * 1024.0;

// Call-time distributions (in ticks) of one replay target.
struct LayerTimes {
  QuantileSketch alloc, free;          // every malloc-family / free call
  QuantileSketch hit;                  // thread-cache hits, both directions
  QuantileSketch slow_alloc, slow_free;
  QuantileSketch large_alloc, large_free;
  uint64_t ticks = 0;  // sum over timed calls
  uint64_t calls = 0;

  void Merge(const LayerTimes& o) {
    alloc.MergeFrom(o.alloc);
    free.MergeFrom(o.free);
    hit.MergeFrom(o.hit);
    slow_alloc.MergeFrom(o.slow_alloc);
    slow_free.MergeFrom(o.slow_free);
    large_alloc.MergeFrom(o.large_alloc);
    large_free.MergeFrom(o.large_free);
    ticks += o.ticks;
    calls += o.calls;
  }
};

// Timing and span bookkeeping shared by both replay targets.
class Recorder {
 public:
  explicit Recorder(int pid) : pid_(pid) {}

  struct ThreadBase {
    int tid = 0;
    LayerTimes times;
    std::vector<Span> spans;
    uint64_t countdown = 1;
    uint64_t op_span = 0;  // open op span, 0 when this op is not sampled
    uint64_t op = 0;
    uint64_t op_t0 = 0;
  };

  void BeginOp(ThreadBase& t, uint64_t op) {
    if (--t.countdown != 0) return;
    t.countdown = kSpanEvery;
    t.op_span = next_span_.fetch_add(1, std::memory_order_relaxed);
    t.op = op;
    t.op_t0 = Ticks();
  }
  void EndOp(ThreadBase& t) {
    if (t.op_span == 0) return;
    t.spans.push_back(Span{t.op_span, parent_.load(std::memory_order_relaxed),
                           t.op, t.op_t0, Ticks(), "generator.op", pid_,
                           t.tid});
    t.op_span = 0;
  }

  // Files one call's time under `sketch` and, inside a sampled op, as a
  // child span named `name`.
  void Call(ThreadBase& t, QuantileSketch* sketch, QuantileSketch* all,
            const char* name, uint64_t t0, uint64_t t1) {
    if (timing_.load(std::memory_order_relaxed)) {
      const double d = static_cast<double>(t1 - t0);
      all->Record(d);
      if (sketch != nullptr) sketch->Record(d);
      t.times.ticks += t1 - t0;
      ++t.times.calls;
    }
    if (t.op_span != 0) {
      t.spans.push_back(Span{next_span_.fetch_add(1, std::memory_order_relaxed),
                             t.op_span, t.op, t0, t1, name, pid_, t.tid});
    }
  }

  void Leave(ThreadBase& t) {
    std::lock_guard<std::mutex> lock(mu_);
    times_.Merge(t.times);
    spans_.insert(spans_.end(), t.spans.begin(), t.spans.end());
  }

  // Phase and timed-phase spans from the coordinating thread.
  void MarkSpan(const char* what) {
    const std::string w = what;
    if (w == "timed_begin") {
      timing_.store(true);
      Open(timed_, "timed_phase");
    } else if (w == "timed_end") {
      timing_.store(false);
      Close(timed_);
    } else if (w == "phase_begin") {
      Open(phase_, "phase");
      parent_.store(phase_.id);
    } else if (w == "phase_end") {
      Close(phase_);
      parent_.store(timed_.id);
    }
  }

  // Times one release call.
  template <class F>
  void TimedRelease(F release) {
    const uint64_t t0 = Ticks();
    release();
    const uint64_t t1 = Ticks();
    std::lock_guard<std::mutex> lock(mu_);
    release_ticks_.push_back(t1 - t0);
    spans_.push_back(Span{next_span_.fetch_add(1), parent_.load(), 0, t0, t1,
                          "backing.release", pid_, 0});
  }

  const LayerTimes& times() const { return times_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<uint64_t>& release_ticks() const { return release_ticks_; }

 protected:
  const int pid_;

 private:
  struct OpenSpan {
    uint64_t id = 0, t0 = 0;
    const char* name = "";
  };
  void Open(OpenSpan& s, const char* name) {
    s.id = next_span_.fetch_add(1);
    s.t0 = Ticks();
    s.name = name;
  }
  void Close(OpenSpan& s) {
    const uint64_t parent = &s == &timed_ ? 0 : timed_.id;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{s.id, parent, 0, s.t0, Ticks(), s.name, pid_, 0});
  }

  std::atomic<bool> timing_{false};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> parent_{0};
  OpenSpan timed_, phase_;
  std::mutex mu_;
  LayerTimes times_;
  std::vector<Span> spans_;
  std::vector<uint64_t> release_ticks_;
};

// Replay target 1: RealThreadsAllocator, called directly.
class RtaApi : public Recorder {
 public:
  explicit RtaApi(RealThreadsAllocator& a) : Recorder(1), a_(a) {}

  struct Thread : ThreadBase {
    RealThreadCache* tc = nullptr;
  };

  Thread Enter(int tid) {
    Thread t;
    t.tid = tid;
    t.tc = a_.RegisterThread();
    return t;
  }

  void* Malloc(Thread& t, size_t size) {
    return TimedAlloc(t, [&] { return a_.Allocate(t.tc, size); });
  }
  void* Calloc(Thread& t, size_t n, size_t size) {
    return TimedAlloc(t, [&] {
      uintptr_t p = a_.Allocate(t.tc, n * size);
      if (p != 0) std::memset(reinterpret_cast<void*>(p), 0, n * size);
      return p;
    });
  }
  // The shim's realloc policy: in place while the block fits with at most
  // 2x slack, else allocate, copy, free.
  void* Realloc(Thread& t, void* p, size_t size) {
    const uintptr_t old = reinterpret_cast<uintptr_t>(p);
    const size_t usable = a_.UsableSize(old);
    return TimedAlloc(t, [&]() -> uintptr_t {
      if (size <= usable && size >= usable / 2) return old;
      uintptr_t fresh = a_.Allocate(t.tc, size);
      if (fresh == 0) return 0;
      std::memcpy(reinterpret_cast<void*>(fresh), p, std::min(usable, size));
      a_.FreeAddr(t.tc, old);
      return fresh;
    });
  }
  int Memalign(Thread& t, void** out, size_t align, size_t size) {
    void* p = TimedAlloc(
        t, [&] { return a_.AllocateAligned(t.tc, size, align); });
    if (p == nullptr) return ENOMEM;
    *out = p;
    return 0;
  }
  void Free(Thread& t, void* p) {
    RealThreadCache* tc = t.tc;
    const uint64_t hits = tc->fast_free_hits, over = tc->overflows,
                   large = tc->large_frees;
    const uint64_t t0 = Ticks();
    a_.FreeAddr(tc, reinterpret_cast<uintptr_t>(p));
    const uint64_t t1 = Ticks();
    if (tc->fast_free_hits != hits) {
      Call(t, &t.times.hit, &t.times.free, "thread_cache.free_hit", t0, t1);
    } else if (tc->overflows != over) {
      Call(t, &t.times.slow_free, &t.times.free, "slow_free", t0, t1);
    } else if (tc->large_frees != large) {
      Call(t, &t.times.large_free, &t.times.free, "large.free", t0, t1);
    } else {
      Call(t, nullptr, &t.times.free, "free", t0, t1);
    }
  }
  size_t UsableSize(void* p) {
    return a_.UsableSize(reinterpret_cast<uintptr_t>(p));
  }

  void Release() {
    TimedRelease([&] { a_.ReleaseMemoryToSystem(~size_t{0}); });
  }

  // Footprint over live bytes at each peak: each phase peak, or the end of
  // the timed phase for workloads without phases. Both points are
  // quiescent (phase threads joined; ring threads parked).
  void Mark(const char* what) {
    MarkSpan(what);
    const std::string w = what;
    if (w == "phase_peak" || w == "timed_end") {
      const wsc::telemetry::Snapshot s = a_.TelemetrySnapshot();
      const wsc::telemetry::MetricSample* fp =
          s.Find("allocator", "footprint_bytes");
      const wsc::telemetry::MetricSample* live =
          s.Find("allocator", "live_bytes");
      if (fp != nullptr && live != nullptr && live->ScalarValue() > 0) {
        (w == "phase_peak" ? phase_peaks_ : end_peak_)
            .push_back(fp->ScalarValue() / live->ScalarValue());
      }
    }
  }

  // Mean footprint/live over the peaks seen.
  double FootprintOverLive() const {
    const std::vector<double>& v =
        phase_peaks_.empty() ? end_peak_ : phase_peaks_;
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  }
  size_t Peaks() const {
    return phase_peaks_.empty() ? end_peak_.size() : phase_peaks_.size();
  }

 private:
  template <class F>
  void* TimedAlloc(Thread& t, F f) {
    RealThreadCache* tc = t.tc;
    const uint64_t hits = tc->fast_alloc_hits, under = tc->underflows,
                   large = tc->large_allocations;
    const uint64_t t0 = Ticks();
    const uintptr_t p = f();
    const uint64_t t1 = Ticks();
    if (tc->fast_alloc_hits != hits) {
      Call(t, &t.times.hit, &t.times.alloc, "thread_cache.alloc_hit", t0, t1);
    } else if (tc->underflows != under) {
      Call(t, &t.times.slow_alloc, &t.times.alloc, "slow_alloc", t0, t1);
    } else if (tc->large_allocations != large) {
      Call(t, &t.times.large_alloc, &t.times.alloc, "large.alloc", t0, t1);
    } else {
      Call(t, nullptr, &t.times.alloc, "alloc", t0, t1);
    }
    return reinterpret_cast<void*>(p);
  }

  RealThreadsAllocator& a_;
  std::vector<double> phase_peaks_, end_peak_;
};

// Replay target 2: the shim's entry points, linked in directly.
class ShimApi : public Recorder {
 public:
  ShimApi() : Recorder(2) {}

  struct Thread : ThreadBase {};

  Thread Enter(int tid) {
    Thread t;
    t.tid = tid;
    return t;
  }

  void* Malloc(Thread& t, size_t size) {
    return Timed(t, true, [&] { return wsc::shim::ShimMalloc(size); });
  }
  void* Calloc(Thread& t, size_t n, size_t size) {
    return Timed(t, true, [&] { return wsc::shim::ShimCalloc(n, size); });
  }
  void* Realloc(Thread& t, void* p, size_t size) {
    return Timed(t, true, [&] { return wsc::shim::ShimRealloc(p, size); });
  }
  int Memalign(Thread& t, void** out, size_t align, size_t size) {
    return Timed(t, true, [&] {
      return wsc::shim::ShimPosixMemalign(out, align, size);
    });
  }
  void Free(Thread& t, void* p) {
    Timed(t, false, [&] {
      wsc::shim::ShimFree(p);
      return 0;
    });
  }
  size_t UsableSize(void* p) { return wsc::shim::ShimUsableSize(p); }
  void Release() {
    TimedRelease([] { wsc::shim::ShimReleaseMemory(~size_t{0}); });
  }
  void Mark(const char* what) { MarkSpan(what); }

 private:
  template <class F>
  std::invoke_result_t<F> Timed(Thread& t, bool alloc, F f) {
    const uint64_t t0 = Ticks();
    auto r = f();
    const uint64_t t1 = Ticks();
    Call(t, nullptr, alloc ? &t.times.alloc : &t.times.free,
         alloc ? "shim.malloc" : "shim.free", t0, t1);
    return r;
  }
};

// Collects "name":value pairs and "name":{"value","num","base"} ratios.
class Report {
 public:
  void Add(const char* name, double v) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6f",
                  metrics_.empty() ? "" : ",", name, v);
    metrics_ += buf;
  }
  // A ratio, its numerator and its base; the base is also a metric.
  void Ratio(const char* name, double num, const char* base_name, double base) {
    Add(name, base > 0 ? num / base : 0.0);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"num\":%.0f,\"base\":%.0f,\"base_name\":\"%s\"}",
                  ratios_.empty() ? "" : ",", name, num, base, base_name);
    ratios_ += buf;
  }
  const std::string& metrics() const { return metrics_; }
  const std::string& ratios() const { return ratios_; }

 private:
  std::string metrics_, ratios_;
};

double Get(const wsc::telemetry::Snapshot& s, const char* c, const char* n) {
  const wsc::telemetry::MetricSample* m = s.Find(c, n);
  return m != nullptr ? m->ScalarValue() : 0.0;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--workload=", 11) == 0) {
      workload = a + 11;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      trace_out = a + 12;
    } else {
      std::fprintf(stderr, "wb_traced: unknown argument %s\n", a);
      return 2;
    }
  }

  RunInWaves(4, 4, [](int) {});
  auto config = wsc::tcmalloc::AllocatorConfig::Builder()
                    .WithRealMemory()
                    .WithRealMemoryReserve(0)
                    .TryBuild();
  if (!config.has_value()) {
    std::fprintf(stderr, "wb_traced: cannot build a real-memory config\n");
    return 1;
  }

  // Stream 1: RealThreadsAllocator, sized like the shim sizes it.
  RealThreadsAllocator rta(*config, UsableCpus());
  RtaApi rapi(rta);
  RunResult rr;
  if (!RunWorkload(workload, rapi, seed, Inject::kNone, &rr)) {
    std::fprintf(stderr, "wb_traced: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const wsc::telemetry::Snapshot snap = rta.TelemetrySnapshot();

  // Stream 2: the shim entry points.
  ShimApi sapi;
  RunResult sr;
  RunWorkload(workload, sapi, seed, Inject::kNone, &sr);

  const double ns = rr.ns_per_tick;
  const LayerTimes& rt = rapi.times();
  const LayerTimes& st = sapi.times();
  auto q = [&](const QuantileSketch& s, double p) {
    return s.Quantile(p) * ns;
  };
  auto mean = [&](const LayerTimes& t) {
    return t.calls > 0 ? static_cast<double>(t.ticks) * ns /
                             static_cast<double>(t.calls)
                       : 0.0;
  };
  Report out;
  out.Add("shim.malloc_ns_p50", q(st.alloc, 0.50));
  out.Add("shim.malloc_ns_p99", q(st.alloc, 0.99));
  out.Add("shim.free_ns_p50", q(st.free, 0.50));
  out.Add("shim.free_ns_p99", q(st.free, 0.99));
  out.Add("shim.self_ns_per_op", mean(st) - mean(rt));

  out.Ratio("thread_cache.alloc_hit_ratio",
            Get(snap, "thread_cache", "fast_alloc_hits"),
            "thread_cache.allocations", Get(snap, "allocator", "allocations"));
  out.Add("thread_cache.allocations", Get(snap, "allocator", "allocations"));
  out.Ratio("thread_cache.free_hit_ratio",
            Get(snap, "thread_cache", "fast_free_hits"), "thread_cache.frees",
            Get(snap, "allocator", "frees"));
  out.Add("thread_cache.frees", Get(snap, "allocator", "frees"));
  out.Add("thread_cache.hit_ns_p50", q(rt.hit, 0.50));
  out.Add("thread_cache.cached_mb_end",
          Get(snap, "thread_cache", "cached_bytes") / kMiB);
  out.Add("thread_cache.registered_threads",
          Get(snap, "thread_cache", "registered_threads"));
  out.Add("thread_cache.threads_created",
          static_cast<double>(rr.threads_created));

  const double removes = Get(snap, "sharded_transfer", "removes");
  const double inserts = Get(snap, "sharded_transfer", "inserts");
  const double t_acq = Get(snap, "contention", "transfer_lock_acquisitions");
  out.Ratio("transfer_shard.remove_hit_ratio",
            removes - Get(snap, "sharded_transfer", "remove_misses"),
            "transfer_shard.removes", removes);
  out.Add("transfer_shard.removes", removes);
  out.Ratio("transfer_shard.insert_overflow_ratio",
            Get(snap, "sharded_transfer", "insert_overflows"),
            "transfer_shard.inserts", inserts);
  out.Add("transfer_shard.inserts", inserts);
  out.Ratio("transfer_shard.lock_contended_ratio",
            Get(snap, "contention", "transfer_lock_contended"),
            "transfer_shard.lock_acquisitions", t_acq);
  out.Add("transfer_shard.lock_acquisitions", t_acq);
  out.Add("transfer_shard.cached_objects_end",
          Get(snap, "sharded_transfer", "cached_objects"));

  out.Add("slow_alloc.ns_p50", q(rt.slow_alloc, 0.50));
  out.Add("slow_alloc.ns_p99", q(rt.slow_alloc, 0.99));
  out.Add("slow_alloc.calls", static_cast<double>(rt.slow_alloc.count()));
  out.Add("slow_free.ns_p50", q(rt.slow_free, 0.50));
  out.Add("slow_free.ns_p99", q(rt.slow_free, 0.99));
  out.Add("slow_free.calls", static_cast<double>(rt.slow_free.count()));

  const double refills = Get(snap, "sharded_cfl", "refills");
  const double probes = Get(snap, "contention", "steal_probes");
  const double c_acq = Get(snap, "contention", "cfl_lock_acquisitions");
  out.Add("cfl_shard.refills", refills);
  out.Ratio("cfl_shard.refill_stall_ratio",
            Get(snap, "contention", "refill_stalls"), "cfl_shard.refills",
            refills);
  out.Ratio("cfl_shard.steal_success_ratio",
            Get(snap, "contention", "work_steals"), "cfl_shard.steal_probes",
            probes);
  out.Add("cfl_shard.steal_probes", probes);
  out.Ratio("cfl_shard.lock_contended_ratio",
            Get(snap, "contention", "cfl_lock_contended"),
            "cfl_shard.lock_acquisitions", c_acq);
  out.Add("cfl_shard.lock_acquisitions", c_acq);
  out.Add("cfl_shard.carves", Get(snap, "sharded_cfl", "carves"));
  out.Add("cfl_shard.free_objects_end",
          Get(snap, "sharded_cfl", "free_objects"));

  out.Add("large.alloc_ns_p50", q(rt.large_alloc, 0.50));
  out.Add("large.alloc_ns_p99", q(rt.large_alloc, 0.99));
  out.Add("large.free_ns_p50", q(rt.large_free, 0.50));
  out.Add("large.free_ns_p99", q(rt.large_free, 0.99));
  out.Add("large.allocs", Get(snap, "allocator", "large_allocations"));
  out.Add("large.pending_mb_end",
          Get(snap, "allocator", "large_pending_bytes") / kMiB);

  std::vector<uint64_t> rel = rapi.release_ticks();
  std::sort(rel.begin(), rel.end());
  out.Add("backing.release_call_ms",
          rel.empty() ? 0.0
                      : static_cast<double>(rel[rel.size() / 2]) * ns * 1e-6);
  out.Add("backing.release_calls", static_cast<double>(rel.size()));
  out.Add("backing.released_mb", Get(snap, "system", "released_bytes") / kMiB);
  out.Add("backing.recommitted_mb",
          Get(snap, "system", "recommitted_bytes") / kMiB);
  out.Add("backing.footprint_over_live", rapi.FootprintOverLive());
  out.Add("backing.peaks", static_cast<double>(rapi.Peaks()));
  out.Add("backing.footprint_mb_end",
          Get(snap, "allocator", "footprint_bytes") / kMiB);

  out.Add("trace.ops_per_s_traced",
          rr.timed_s > 0
              ? static_cast<double>(rr.counts.Attempted()) / rr.timed_s
              : 0.0);
  out.Add("trace.spans",
          static_cast<double>(rapi.spans().size() + sapi.spans().size()));

  const uint64_t attempted = rr.counts.Attempted() + sr.counts.Attempted();
  const uint64_t failed = rr.counts.failed + sr.counts.failed;
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"metrics\":{%s},\"ratios\":{%s}}\n",
              workload.c_str(), seed, attempted, failed, out.metrics().c_str(),
              out.ratios().c_str());

  if (!trace_out.empty()) {
    std::vector<Span> all = rapi.spans();
    all.insert(all.end(), sapi.spans().begin(), sapi.spans().end());
    uint64_t base = UINT64_MAX;
    for (const Span& s : all) base = std::min(base, s.t0);
    if (!WriteFile(trace_out,
                   RenderSpans(all, {{1, "RealThreadsAllocator"}, {2, "shim"}},
                               base, ns))) {
      std::fprintf(stderr, "wb_traced: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace wscbench

int main(int argc, char** argv) { return wscbench::Main(argc, argv); }
