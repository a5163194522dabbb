// wb_sim: the sim_fleet workload, driving the deterministic simulator.
//
//   wb_sim --seed=N --reference=FILE
//       Untraced: builds a small fleet with fig03's shape, runs it once to
//       warm up and once timed, with Fleet::Run(1) (one worker thread;
//       results are bit-identical for any count). Checks both runs' merged
//       telemetry digests against FILE and prints one JSON line.
//   wb_sim --seed=N --trace --trace-out=FILE
//       Traced: steps the first process of machine 0 through its own
//       Allocator and Driver, timing every Driver::Step, then reads the
//       allocator's telemetry. Prints one JSON line of per-layer values and
//       writes sampled step spans to FILE as a Chrome trace.
//   wb_sim --seed=N --print-digest
//       Prints the digest line the reference file holds.
//
// The fleet is fixed (fig03's seed) whatever --seed is: a fleet's binaries,
// and with them its speed and footprint, change with its seed, so seeded
// fleets would measure a different workload on every run.

#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/machine.h"
#include "harness.h"
#include "hw/topology.h"
#include "spans.h"
#include "tcmalloc/allocator.h"
#include "telemetry/sketch.h"
#include "telemetry/statsz.h"
#include "workload/driver.h"

namespace wscbench {
namespace {

using namespace wsc;

constexpr uint64_t kFleetSeed = 20240427;  // fig03's seed
constexpr uint64_t kSpanEvery = 64;        // steps per recorded span

// fig03's fleet shape, cut to a few machines so one Run takes about a
// second on one thread.
fleet::FleetConfig SimFleetConfig() {
  fleet::FleetConfig config;
  config.num_machines = 2;
  config.num_binaries = 150;
  config.zipf_exponent = 0.8;
  config.min_colocated = 2;
  config.max_colocated = 4;
  config.duration = Seconds(2);
  config.max_requests_per_process = 5000;
  config.num_threads = 1;
  return config;
}

uint64_t Fnv1a(const std::string& s, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

double Metric(const telemetry::Snapshot& snap, const char* component,
              const char* name) {
  const telemetry::MetricSample* m = snap.Find(component, name);
  return m != nullptr ? m->ScalarValue() : 0.0;
}

// The digest line for `fleet_seed` in the reference file, or "".
std::string ReferenceDigest(const std::string& path, uint64_t fleet_seed) {
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  const std::string text = body.str();
  const std::string key = "\"" + std::to_string(fleet_seed) + "\": \"";
  const size_t at = text.find(key);
  if (at == std::string::npos) return "";
  const size_t end = text.find('"', at + key.size());
  return end == std::string::npos ? ""
                                  : text.substr(at + key.size(),
                                                end - at - key.size());
}

// Digest of one run's output: the merged statsz JSON plus the simulated
// call count.
std::string Digest(const fleet::Fleet& f, uint64_t calls) {
  const std::string statsz =
      telemetry::RenderStatszJson(fleet::MergedTelemetry(f.observations()));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                Fnv1a(std::to_string(calls), Fnv1a(statsz)));
  return hex;
}

uint64_t SimCalls(const fleet::Fleet& f) {
  uint64_t calls = 0;
  for (const fleet::FleetObservation& obs : f.observations()) {
    calls += obs.result.driver.allocations + obs.result.driver.frees;
  }
  return calls;
}

// Runs the fleet once untimed (warm-up: the heap the simulator needs is
// faulted in, so the timed run measures simulation rather than page
// faults), then once timed. Both runs must match the reference digest.
int RunUntraced(uint64_t seed, const std::string& reference, bool print) {
  std::string warm_digest;
  {
    fleet::Fleet warm(SimFleetConfig(), tcmalloc::AllocatorConfig(),
                      kFleetSeed);
    warm.Run(1);
    warm_digest = Digest(warm, SimCalls(warm));
  }
  uint64_t calls = 0;
  std::string digest;
  double t_first_call = 0, timed_s = 0, cpu_s = 0;
  uint64_t rss_peak_kb = 0;
  size_t processes = 0;
  {
    fleet::Fleet f(SimFleetConfig(), tcmalloc::AllocatorConfig(), kFleetSeed);
    const double cpu0 = ProcessCpuSeconds();
    TickClock clock;
    clock.Start();
    t_first_call = static_cast<double>(clock.ns0) * 1e-9;
    f.Run(1);
    clock.Stop();
    cpu_s = ProcessCpuSeconds() - cpu0;
    timed_s = clock.Seconds();
    rss_peak_kb = ProcStatusKb("VmHWM:");
    processes = f.observations().size();
    calls = SimCalls(f);
    digest = Digest(f, calls);
  }
  malloc_trim(0);
  const uint64_t rss_end_kb = ProcStatusKb("VmRSS:");
  if (print) {
    std::printf("    \"%" PRIu64 "\": \"%s\"\n", kFleetSeed, digest.c_str());
    return 0;
  }
  const std::string want = ReferenceDigest(reference, kFleetSeed);
  const int failed = (want.empty() || want != digest ? 1 : 0) +
                     (want.empty() || want != warm_digest ? 1 : 0);
  std::printf(
      "{\"workload\":\"sim_fleet\",\"seed\":%" PRIu64 ",\"fleet_seed\":%" PRIu64
      ",\"t_first_call\":%.9f,\"timed_s\":%.9f,\"cpu_s\":%.6f,"
      "\"sim_calls\":%" PRIu64 ",\"processes\":%zu,\"digest\":\"%s\","
      "\"reference\":\"%s\",\"attempted\":2,\"failed\":%d,"
      "\"rss_peak_kb\":%" PRIu64 ",\"rss_end_kb\":%" PRIu64 "}\n",
      seed, kFleetSeed, t_first_call, timed_s, cpu_s, calls, processes,
      digest.c_str(), want.c_str(), failed, rss_peak_kb, rss_end_kb);
  return 0;
}

// One simulated process, as Machine builds it, minus the LLC/TLB models.
struct SimProcess {
  hw::CpuTopology topology;
  tcmalloc::Allocator allocator;
  workload::Driver driver;

  static tcmalloc::AllocatorConfig Config(const hw::CpuTopology& topo,
                                          const workload::WorkloadSpec& spec) {
    tcmalloc::AllocatorConfig config =
        fleet::ResolveTopology(tcmalloc::AllocatorConfig(), topo);
    config.num_vcpus = std::max(1, std::min(spec.max_threads, topo.num_cpus()));
    return config;
  }
  static std::vector<int> AllCpus(const hw::CpuTopology& topo) {
    std::vector<int> cpus(static_cast<size_t>(topo.num_cpus()));
    for (int i = 0; i < topo.num_cpus(); ++i) cpus[static_cast<size_t>(i)] = i;
    return cpus;
  }
  SimProcess(const fleet::Fleet::MachinePlan& plan)
      : topology(plan.platform),
        allocator(Config(topology, plan.workloads[0])),
        driver(plan.workloads[0], &allocator, &topology, AllCpus(topology),
               nullptr, nullptr, plan.machine_seed) {}
};

bool Done(const workload::Driver& d, const fleet::FleetConfig& config) {
  return d.now() >= config.duration ||
         d.metrics().requests >= config.max_requests_per_process;
}

int RunTraced(uint64_t seed, const std::string& trace_out) {
  const fleet::FleetConfig config = SimFleetConfig();
  const fleet::Fleet f(config, tcmalloc::AllocatorConfig(), kFleetSeed);
  const fleet::Fleet::MachinePlan plan = f.PlanMachines()[0];

  // Untraced pass first, for the tracing-overhead ratio.
  double untraced_s = 0;
  {
    SimProcess p(plan);
    const uint64_t t0 = MonoNs();
    while (!Done(p.driver, config)) p.driver.Step();
    untraced_s = static_cast<double>(MonoNs() - t0) * 1e-9;
  }

  SimProcess p(plan);
  telemetry::QuantileSketch step_ticks;
  std::vector<Span> spans;
  TickClock clock;
  clock.Start();
  uint64_t steps = 0;
  while (!Done(p.driver, config)) {
    const uint64_t t0 = Ticks();
    p.driver.Step();
    const uint64_t t1 = Ticks();
    step_ticks.Record(static_cast<double>(t1 - t0));
    if (steps % kSpanEvery == 0) {
      spans.push_back(Span{spans.size() + 1, 0, steps, t0, t1,
                           "sim.driver_step", 3, 0});
    }
    ++steps;
  }
  clock.Stop();
  const double ns_per_tick = clock.NsPerTick();
  const workload::DriverMetrics& m = p.driver.metrics();
  const double calls = static_cast<double>(m.allocations + m.frees);
  const telemetry::Snapshot snap = p.allocator.TelemetrySnapshot();

  const double allocs = Metric(snap, "allocator", "allocations");
  const double tc_lookups = Metric(snap, "transfer_cache", "shard_hits") +
                            Metric(snap, "transfer_cache", "central_hits") +
                            Metric(snap, "transfer_cache", "misses");
  auto ratio = [](double num, double base) {
    return base > 0 ? num / base : 0.0;
  };
  std::printf(
      "{\"workload\":\"sim_fleet\",\"seed\":%" PRIu64 ",\"metrics\":{"
      "\"sim.step_ns_p50\":%.4f,\"sim.step_ns_p99\":%.4f,\"sim.steps\":%" PRIu64
      ",\"sim.cpu_cache_hit_ratio\":%.6f,\"sim.allocations\":%.0f,"
      "\"sim.transfer_cache_miss_ratio\":%.6f,"
      "\"sim.transfer_cache_lookups\":%.0f,\"sim.cfl_fetched_spans\":%.0f,"
      "\"sim.page_heap_spans_created\":%.0f,\"sim.filler_hugepages\":%.0f,"
      "\"sim.hugepage_coverage\":%.6f,"
      "\"trace.ops_per_s_traced\":%.4f,\"trace.ops_per_s_untraced\":%.4f,"
      "\"trace.spans\":%zu}}\n",
      seed, step_ticks.Quantile(0.50) * ns_per_tick,
      step_ticks.Quantile(0.99) * ns_per_tick, steps,
      ratio(Metric(snap, "allocator", "alloc_hits_cpu_cache"), allocs), allocs,
      ratio(Metric(snap, "transfer_cache", "misses"), tc_lookups), tc_lookups,
      Metric(snap, "central_free_list", "fetched_spans"),
      Metric(snap, "page_heap", "spans_created"),
      Metric(snap, "huge_page_filler", "hugepages"),
      Metric(snap, "allocator", "hugepage_coverage"), calls / clock.Seconds(),
      untraced_s > 0 ? calls / untraced_s : 0.0, spans.size());
  if (!trace_out.empty() &&
      !WriteFile(trace_out, RenderSpans(spans, {{3, "simulator"}},
                                        clock.ticks0, ns_per_tick))) {
    std::fprintf(stderr, "wb_sim: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  uint64_t seed = 1;
  bool trace = false, print_digest = false;
  std::string reference, trace_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--seed=", 7) == 0) {
      seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--reference=", 12) == 0) {
      reference = a + 12;
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      trace_out = a + 12;
    } else if (std::strcmp(a, "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(a, "--print-digest") == 0) {
      print_digest = true;
    } else {
      std::fprintf(stderr, "wb_sim: unknown argument %s\n", a);
      return 2;
    }
  }
  if (trace) return RunTraced(seed, trace_out);
  return RunUntraced(seed, reference, print_digest);
}

}  // namespace
}  // namespace wscbench

int main(int argc, char** argv) { return wscbench::Main(argc, argv); }
