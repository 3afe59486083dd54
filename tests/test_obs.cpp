// Observability layer tests: metrics registry semantics, Perfetto
// trace_event export (byte-determinism + format validity), counter ground
// truth against the fault engine, the C-API introspection
// surface with its handle-liveness checks, and the virtual-time neutrality
// oracle (observability on vs off must not move a single virtual result).
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/himeno/himeno.hpp"
#include "clmpi/capi.h"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "ocl/platform.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  return o;
}

/// Saves and restores the process-wide obs switches around a test.
struct ObsFlagGuard {
  bool metrics = obs::metrics_enabled();
  bool trace = obs::trace_enabled();
  ~ObsFlagGuard() {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
  }
};

/// Per-rank C-API session (same shape as the capi suites).
struct Session {
  explicit Session(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        cxx_ctx(platform.device()),
        runtime(rank, platform.device()),
        binding(rank, runtime) {
    ctx = clmpiCreateContext(cxx_ctx);
    cl_int err = CL_SUCCESS;
    cmd = clCreateCommandQueue(ctx, &err);
    EXPECT_EQ(err, CL_SUCCESS);
  }
  ~Session() {
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  }

  ocl::Platform platform;
  ocl::Context cxx_ctx;
  rt::Runtime runtime;
  capi::ThreadBinding binding;
  cl_context ctx{nullptr};
  cl_command_queue cmd{nullptr};
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- minimal JSON validator --------------------------------------------------
// Enough of RFC 8259 to reject structurally broken output: balanced
// containers, quoted/escaped strings, numbers, literals, nothing trailing.

bool skip_json_value(const char*& p, const char* end);

void skip_json_ws(const char*& p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
}

bool skip_json_string(const char*& p, const char* end) {
  if (p >= end || *p != '"') return false;
  ++p;
  while (p < end) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"') {
      ++p;
      return true;
    }
    if (c == '\\') {
      ++p;
      if (p >= end) return false;
      if (*p == 'u') {
        for (int i = 0; i < 4; ++i) {
          ++p;
          if (p >= end || std::isxdigit(static_cast<unsigned char>(*p)) == 0) return false;
        }
      } else if (std::strchr("\"\\/bfnrt", *p) == nullptr) {
        return false;
      }
      ++p;
    } else if (c < 0x20) {
      return false;  // unescaped control character
    } else {
      ++p;
    }
  }
  return false;
}

bool skip_json_number(const char*& p, const char* end) {
  const char* start = p;
  if (p < end && *p == '-') ++p;
  while (p < end && std::isdigit(static_cast<unsigned char>(*p)) != 0) ++p;
  if (p < end && *p == '.') {
    ++p;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p)) != 0) ++p;
  }
  if (p < end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p < end && (*p == '+' || *p == '-')) ++p;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p)) != 0) ++p;
  }
  return p > start && std::isdigit(static_cast<unsigned char>(p[-1])) != 0;
}

bool skip_json_container(const char*& p, const char* end, char open, char close) {
  if (p >= end || *p != open) return false;
  ++p;
  skip_json_ws(p, end);
  if (p < end && *p == close) {
    ++p;
    return true;
  }
  for (;;) {
    skip_json_ws(p, end);
    if (open == '{') {
      if (!skip_json_string(p, end)) return false;
      skip_json_ws(p, end);
      if (p >= end || *p != ':') return false;
      ++p;
    }
    if (!skip_json_value(p, end)) return false;
    skip_json_ws(p, end);
    if (p >= end) return false;
    if (*p == ',') {
      ++p;
      continue;
    }
    if (*p == close) {
      ++p;
      return true;
    }
    return false;
  }
}

bool skip_json_literal(const char*& p, const char* end, const char* lit) {
  const std::size_t n = std::strlen(lit);
  if (static_cast<std::size_t>(end - p) < n || std::strncmp(p, lit, n) != 0) return false;
  p += n;
  return true;
}

bool skip_json_value(const char*& p, const char* end) {
  skip_json_ws(p, end);
  if (p >= end) return false;
  switch (*p) {
    case '{': return skip_json_container(p, end, '{', '}');
    case '[': return skip_json_container(p, end, '[', ']');
    case '"': return skip_json_string(p, end);
    case 't': return skip_json_literal(p, end, "true");
    case 'f': return skip_json_literal(p, end, "false");
    case 'n': return skip_json_literal(p, end, "null");
    default: return skip_json_number(p, end);
  }
}

bool json_valid(const std::string& text) {
  const char* p = text.data();
  const char* end = p + text.size();
  if (!skip_json_value(p, end)) return false;
  skip_json_ws(p, end);
  return p == end;
}

TEST(JsonValidator, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid(R"({"a":[1,2.5,-3e2],"b":"x\n","c":{},"d":[true,false,null]})"));
  EXPECT_FALSE(json_valid(R"({"a":1)"));
  EXPECT_FALSE(json_valid(R"([1,])"));
  EXPECT_FALSE(json_valid("{\"a\":\"\x01\"}"));
  EXPECT_FALSE(json_valid(R"({"a":1} trailing)"));
}

// --- metrics registry --------------------------------------------------------

TEST(ObsRegistry, CounterGaugeSnapshotAndReset) {
  auto& reg = obs::Registry::instance();
  reg.reset();
  reg.counter("t.reg.count").add();
  reg.counter("t.reg.count").add(41);
  reg.gauge("t.reg.depth").record(9);
  reg.gauge("t.reg.depth").record(4);

  std::uint64_t v = 0;
  EXPECT_TRUE(reg.value("t.reg.count", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(reg.value("t.reg.depth", v));
  EXPECT_EQ(v, 4u);  // current level
  EXPECT_TRUE(reg.value("t.reg.depth.hwm", v));
  EXPECT_EQ(v, 9u);  // high-water mark is monotone
  EXPECT_FALSE(reg.value("t.reg.absent", v));

  const auto snap = reg.snapshot();
  ASSERT_GE(snap.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                             [](const auto& a, const auto& b) { return a.name < b.name; }));

  reg.reset();
  EXPECT_TRUE(reg.value("t.reg.count", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(reg.value("t.reg.depth.hwm", v));
  EXPECT_EQ(v, 0u);
}

TEST(ObsRegistry, StableReferencesAcrossLookups) {
  auto& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("t.reg.stable");
  for (int i = 0; i < 100; ++i) reg.counter("t.reg.filler" + std::to_string(i));
  EXPECT_EQ(&a, &reg.counter("t.reg.stable"));
}

// --- Perfetto export ---------------------------------------------------------

TEST(ObsTrace, CategoriesAreSpelledOut) {
  EXPECT_STREQ(obs::category(vt::SpanKind::compute), "compute");
  EXPECT_STREQ(obs::category(vt::SpanKind::host_to_device), "h2d");
  EXPECT_STREQ(obs::category(vt::SpanKind::device_to_host), "d2h");
  EXPECT_STREQ(obs::category(vt::SpanKind::wire), "wire");
  EXPECT_STREQ(obs::category(vt::SpanKind::wait), "wait");
  EXPECT_STREQ(obs::category(vt::SpanKind::other), "other");
}

TEST(ObsTrace, ExportIsIndependentOfRecordOrder) {
  // Tracer records in real-time interleaving order; the exporter must not.
  vt::Tracer fwd, rev;
  fwd.record("host0", "k", vt::SpanKind::compute, vt::TimePoint{0.0}, vt::TimePoint{1.0});
  fwd.record("net0->1", "w", vt::SpanKind::wire, vt::TimePoint{0.5}, vt::TimePoint{2.0});
  rev.record("net0->1", "w", vt::SpanKind::wire, vt::TimePoint{0.5}, vt::TimePoint{2.0});
  rev.record("host0", "k", vt::SpanKind::compute, vt::TimePoint{0.0}, vt::TimePoint{1.0});
  EXPECT_EQ(obs::perfetto_json(fwd), obs::perfetto_json(rev));
}

TEST(ObsTrace, EscapesLabelsAndStaysValidJson) {
  vt::Tracer tr;
  tr.record("lane\"x", "a\"b\\c\nd\te", vt::SpanKind::other, vt::TimePoint{0.0},
            vt::TimePoint{1.0});
  const std::string json = obs::perfetto_json(tr);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(ObsTrace, HimenoExportIsByteIdenticalAcrossRuns) {
  apps::himeno::Config cfg = apps::himeno::Config::size_s();
  cfg.iterations = 2;
  cfg.variant = apps::himeno::Variant::clmpi;
  auto export_once = [&] {
    vt::Tracer tracer;
    (void)apps::himeno::run_cluster(sys::cichlid(), 2, cfg, &tracer);
    return obs::perfetto_json(tracer);
  };
  const std::string first = export_once();
  const std::string second = export_once();
  EXPECT_TRUE(json_valid(first));
  EXPECT_EQ(first, second);  // byte-identical despite racy record order
  // trace_event skeleton.
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(first.find("\"thread_name\""), std::string::npos);
}

// --- C API introspection -----------------------------------------------------

TEST(ObsCapi, DumpTraceCoversEveryCategoryFromHimeno) {
  const std::string path = testing::TempDir() + "clmpi_obs_himeno_trace.json";
  apps::himeno::Config serial = apps::himeno::Config::size_s();
  serial.iterations = 2;
  serial.variant = apps::himeno::Variant::serial;
  apps::himeno::Config clmpi_cfg = serial;
  clmpi_cfg.variant = apps::himeno::Variant::clmpi;

  vt::Tracer tracer;
  mpi::Cluster::Options o = opts(2);
  o.profile = &sys::cichlid();
  o.tracer = &tracer;
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    (void)apps::himeno::run_rank(rank, serial);
    (void)apps::himeno::run_rank(rank, clmpi_cfg);
    if (rank.rank() == 0) {
      Session s(rank);
      EXPECT_EQ(clmpiDumpTrace(path.c_str()), CL_SUCCESS);
    }
  });

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(json_valid(json));
  for (const char* cat : {"\"cat\":\"compute\"", "\"cat\":\"h2d\"", "\"cat\":\"d2h\"",
                          "\"cat\":\"wire\"", "\"cat\":\"wait\""}) {
    EXPECT_NE(json.find(cat), std::string::npos) << "missing category " << cat;
  }
}

TEST(ObsCapi, DumpTraceFailurePaths) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(false);
  const std::string path = testing::TempDir() + "clmpi_obs_unused.json";
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    EXPECT_EQ(clmpiDumpTrace(nullptr), CL_INVALID_VALUE);
    // No tracer attached anywhere (flag off, no Options::tracer).
    EXPECT_EQ(clmpiDumpTrace(path.c_str()), CL_INVALID_OPERATION);
  });

  vt::Tracer tracer;
  mpi::Cluster::Options o = opts(1);
  o.tracer = &tracer;
  mpi::Cluster::run(o, [](mpi::Rank& rank) {
    Session s(rank);
    EXPECT_EQ(clmpiDumpTrace("/nonexistent-clmpi-dir/trace.json"), CL_INVALID_VALUE);
  });
}

TEST(ObsCapi, TraceFlagAttachesEnvTracer) {
  // CLMPI_TRACE=1 semantics, driven through the programmatic switch: a
  // cluster without an explicit tracer still traces, so clmpiDumpTrace works.
  ObsFlagGuard guard;
  obs::set_trace_enabled(true);
  const std::string path = testing::TempDir() + "clmpi_obs_env_trace.json";
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    EXPECT_NE(rank.tracer(), nullptr);
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 4096, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    std::vector<std::byte> host(4096);
    EXPECT_EQ(clEnqueueWriteBuffer(s.cmd, buf, CL_TRUE, 0, 4096, host.data(), 0, nullptr,
                                   nullptr),
              CL_SUCCESS);
    EXPECT_EQ(clmpiDumpTrace(path.c_str()), CL_SUCCESS);
    clReleaseMemObject(buf);
  });
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(json_valid(json));
}

TEST(ObsCapi, StaleAndNullHandlesAreRejected) {
  mpi::Cluster::run(opts(1), [](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 256, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    EXPECT_NE(clmpiGetBuffer(buf), nullptr);
    EXPECT_EQ(clReleaseMemObject(buf), CL_SUCCESS);

    // Stale mem handle: every entry point reports instead of dereferencing.
    err = CL_SUCCESS;
    EXPECT_EQ(clmpiGetBuffer(buf, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_MEM_OBJECT);
    std::vector<std::byte> host(256);
    EXPECT_EQ(clEnqueueReadBuffer(s.cmd, buf, CL_TRUE, 0, 256, host.data(), 0, nullptr,
                                  nullptr),
              CL_INVALID_MEM_OBJECT);
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, 256, 0, 1, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CL_INVALID_MEM_OBJECT);
    EXPECT_EQ(clReleaseMemObject(buf), CL_INVALID_MEM_OBJECT);  // double release

    // Stale queue handle.
    cl_command_queue q2 = clCreateCommandQueue(s.ctx, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    EXPECT_NE(clmpiGetQueue(q2), nullptr);
    EXPECT_EQ(clReleaseCommandQueue(q2), CL_SUCCESS);
    err = CL_SUCCESS;
    EXPECT_EQ(clmpiGetQueue(q2, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_QUEUE);
    EXPECT_EQ(clFinish(q2), CL_INVALID_COMMAND_QUEUE);
    EXPECT_EQ(clReleaseCommandQueue(q2), CL_INVALID_COMMAND_QUEUE);  // double release

    // Null handles go through the same reporting paths.
    err = CL_SUCCESS;
    EXPECT_EQ(clmpiGetBuffer(nullptr, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_MEM_OBJECT);
    EXPECT_EQ(clmpiGetQueue(nullptr), nullptr);
    EXPECT_EQ(clFinish(nullptr), CL_INVALID_COMMAND_QUEUE);
  });
}

TEST(ObsCapi, CounterIntrospection) {
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  auto& reg = obs::Registry::instance();
  reg.reset();
  reg.counter("t.capi.count").add(42);
  reg.gauge("t.capi.depth").record(7);
  reg.gauge("t.capi.depth").record(3);

  cl_ulong v = 0;
  EXPECT_EQ(clmpiGetCounter("t.capi.count", &v), CL_SUCCESS);
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(clmpiGetCounter("t.capi.depth", &v), CL_SUCCESS);
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(clmpiGetCounter("t.capi.depth.hwm", &v), CL_SUCCESS);
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(clmpiGetCounter("t.capi.absent", &v), CL_INVALID_VALUE);
  EXPECT_EQ(clmpiGetCounter(nullptr, &v), CL_INVALID_VALUE);
  EXPECT_EQ(clmpiGetCounter("t.capi.count", nullptr), CL_INVALID_VALUE);

  // Two-call listing: size query, then fill.
  std::size_t needed = 0;
  EXPECT_EQ(clmpiListCounters(nullptr, 0, &needed), CL_SUCCESS);
  ASSERT_GT(needed, 1u);
  std::vector<char> names(needed);
  EXPECT_EQ(clmpiListCounters(names.data(), names.size(), nullptr), CL_SUCCESS);
  const std::string list(names.data());
  EXPECT_NE(list.find("t.capi.count\n"), std::string::npos);
  EXPECT_NE(list.find("t.capi.depth\n"), std::string::npos);
  EXPECT_NE(list.find("t.capi.depth.hwm\n"), std::string::npos);
  // Truncation: the fill is bounded by cap, cut at the last complete name,
  // and the true required size is still reported (the registry may have
  // grown between the two calls — the classic TOCTOU of this pattern).
  std::size_t still_needed = 0;
  std::vector<char> tiny(names.size(), '#');
  EXPECT_EQ(clmpiListCounters(tiny.data(), 1, &still_needed), CLMPI_TRUNCATED);
  EXPECT_EQ(still_needed, needed);
  EXPECT_EQ(tiny[0], '\0');  // NUL-terminated, nothing past cap touched
  EXPECT_EQ(tiny[1], '#');
  const std::size_t mid = list.find('\n') + 5;  // inside the second name
  ASSERT_LT(mid, needed);
  EXPECT_EQ(clmpiListCounters(tiny.data(), mid, &still_needed), CLMPI_TRUNCATED);
  const std::string partial(tiny.data());
  EXPECT_EQ(partial, list.substr(0, list.find('\n') + 1));  // whole names only
  EXPECT_EQ(clmpiListCounters(tiny.data(), 0, nullptr), CLMPI_TRUNCATED);
}

// --- counters vs ground truth ------------------------------------------------

TEST(ObsCounters, MatchFaultEngineGroundTruth) {
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();

  mpi::Cluster::Options o = opts(2);
  o.faults.seed = 0xFEEDu;
  o.faults.duplicate_rate = 0.4;
  o.faults.latency_spike_rate = 0.4;
  const mpi::RunResult res = mpi::Cluster::run(o, [](mpi::Rank& rank) {
    std::vector<std::byte> buf(4096, std::byte{0x11});
    for (int i = 0; i < 32; ++i) {
      if (rank.rank() == 0) {
        rank.world().send(buf, 1, i, rank.clock());
      } else {
        rank.world().recv(buf, 0, i, rank.clock());
      }
    }
  });
  ASSERT_GT(res.faults.messages, 0u);

  std::uint64_t v = 0;
  ASSERT_TRUE(obs::Registry::instance().value("fault.messages", v));
  EXPECT_EQ(v, res.faults.messages);
  ASSERT_TRUE(obs::Registry::instance().value("fault.duplicates", v));
  EXPECT_EQ(v, res.faults.duplicates);
  ASSERT_TRUE(obs::Registry::instance().value("fault.delays", v));
  EXPECT_EQ(v, res.faults.delays);
  EXPECT_GT(res.faults.duplicates + res.faults.delays, 0u);
  if (obs::Registry::instance().value("fault.drops", v)) {
    EXPECT_EQ(v, res.faults.drops);
  }
}

TEST(ObsCounters, ProducersPopulateTheCatalog) {
  // One traced device workload lights up the mailbox, selection and
  // dispatcher counters; spot-check that the names documented in
  // docs/OBSERVABILITY.md actually appear.
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();

  mpi::Cluster::run(opts(2), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(64_KiB);
    for (int i = 0; i < 4; ++i) {
      if (rank.rank() == 0) {
        runtime.enqueue_send_buffer(*queue, buf, true, 0, 64_KiB, 1, i, rank.world(), {});
      } else {
        runtime.enqueue_recv_buffer(*queue, buf, true, 0, 64_KiB, 0, i, rank.world(), {});
      }
    }
  });

  std::uint64_t v = 0;
  EXPECT_TRUE(obs::Registry::instance().value("rt.dispatcher.jobs", v));
  EXPECT_GT(v, 0u);
  EXPECT_TRUE(obs::Registry::instance().value("rt.dispatcher.batches", v));
  EXPECT_GT(v, 0u);
  // Strategy selection ran at least once.
  bool selected = false;
  for (const auto& s : obs::Registry::instance().snapshot()) {
    if (s.name.rfind("xfer.select.", 0) == 0 && s.value > 0) selected = true;
  }
  EXPECT_TRUE(selected);
  // The mailbox moved messages (wire sub-messages land as shard hits or
  // unexpected arrivals depending on timing; their sum is the traffic).
  std::uint64_t shard = 0, unexpected = 0;
  (void)obs::Registry::instance().value("simmpi.mailbox.shard_hit", shard);
  (void)obs::Registry::instance().value("simmpi.mailbox.unexpected", unexpected);
  EXPECT_GT(shard + unexpected, 0u);
}

// --- neutrality oracle -------------------------------------------------------

TEST(ObsNeutrality, ObservabilityOnDoesNotPerturbVirtualTime) {
  ObsFlagGuard guard;

  auto run_once = [] {
    vt::Tracer tracer;
    mpi::Cluster::Options o = opts(2);
    o.tracer = &tracer;
    o.faults.seed = 0xC0FFEEu;
    o.faults.duplicate_rate = 0.3;
    o.faults.reorder_rate = 0.3;
    o.faults.latency_spike_rate = 0.3;
    const mpi::RunResult res = mpi::Cluster::run(o, [](mpi::Rank& rank) {
      ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
      ocl::Context ctx(platform.device());
      rt::Runtime runtime(rank, platform.device());
      auto queue = ctx.create_queue();
      ocl::BufferPtr buf = ctx.create_buffer(128_KiB);
      for (int i = 0; i < 6; ++i) {
        if (rank.rank() == 0) {
          runtime.enqueue_send_buffer(*queue, buf, true, 0, 128_KiB, 1, i, rank.world(),
                                      {});
        } else {
          runtime.enqueue_recv_buffer(*queue, buf, true, 0, 128_KiB, 0, i, rank.world(),
                                      {});
        }
      }
    });
    return std::tuple{tracer.hash(), res.makespan_s, res.faults.messages,
                      res.faults.duplicates, res.faults.delays};
  };

  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const auto off = run_once();
  const auto off_again = run_once();
  EXPECT_EQ(off, off_again);  // the workload itself is seed-deterministic

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const auto on = run_once();
  EXPECT_EQ(off, on);  // counting and tracing are bit-neutral
}

}  // namespace
}  // namespace clmpi
