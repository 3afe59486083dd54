// perfbench_runner: runs one benchmark workload in this process and prints
// its raw samples as one JSON line. perfbench/run.py builds it, starts one
// fresh process per measurement and turns the samples into metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S --mode MODE
//
// Modes:
//   timed     set up, then time runs for S seconds (metrics and tracing off);
//             also reports the process's set-up time and peak memory
//   count     simulated wire messages of one run
//   traced    S/2 seconds untraced, then S/2 with layer timers, obs counters
//             and tracing on, then the per-layer probes
//   fidelity  the Fig. 9 Cichlid-4 point (run under CLMPI_SCHED=fibers
//             CLMPI_FIBER_WORKERS=1); the workload is ignored
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i > 0 ? "," : "") + num(v[i]);
  return out + "]";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double median_wall(const Report& r) {
  std::vector<double> walls;
  for (const Run& run : r.runs) walls.push_back(run.wall_s);
  return median(std::move(walls));
}

std::string report_json(const Report& r) {
  std::ostringstream out;
  out << "{\"setup_s\":" << num(r.setup_s) << ",\"job_latency_s\":" << array(r.job_latency_s)
      << ",\"runs\":[";
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const Run& run = r.runs[i];
    out << (i > 0 ? "," : "") << "{\"wall_s\":" << num(run.wall_s) << ",\"cpu_s\":"
        << num(run.cpu_s) << ",\"jobs\":" << num(run.jobs) << "}";
  }
  out << "],\"makespans\":" << r.makespans << ",\"makespans_agree\":" << r.makespans_agree
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) out << (i > 0 ? "," : "") << str(r.failures[i]);
  out << "],\"values\":{";
  bool first = true;
  for (const auto& [name, value] : r.values) {
    out << (first ? "" : ",") << str(name) << ":" << num(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string layers_json(const Layers& l) {
  const std::pair<const char*, const CallTimer*> timers[] = {
      {"launch_ns", &l.launch},           {"allreduce_ns", &l.allreduce},
      {"plan_create_ns", &l.plan_create}, {"halo_start_ns", &l.halo_start},
      {"halo_complete_ns", &l.halo_complete}, {"ocl_enqueue_ns", &l.ocl_enqueue},
      {"ocl_finish_ns", &l.ocl_finish},   {"rt_finish_ns", &l.rt_finish},
      {"svc_submit_ns", &l.svc_submit},
  };
  std::ostringstream out;
  out << "{";
  for (const auto& [name, timer] : timers) {
    out << str(name) << ":" << num(median(timer->samples())) << ",";
  }
  out << "\"svc_queue_delay_s\":" << num(median(l.svc_queue_delay_s))
      << ",\"svc_run_wall_s\":" << num(median(l.svc_run_wall_s))
      << ",\"svc_rejected\":" << l.svc_rejected << "}";
  return out.str();
}

std::string counters_json() {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& s : clmpi::obs::Registry::instance().snapshot()) {
    if (s.name.rfind("job.", 0) == 0) continue;  // per-job service series
    out << (first ? "" : ",") << str(s.name) << ":" << s.value;
    first = false;
  }
  out << "}";
  return out.str();
}

Report run(const std::string& workload, const Options& opt) {
  if (workload == "himeno_cichlid4") return run_himeno(opt);
  if (workload == "halo_small") return run_halo(opt);
  return run_service(opt);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload himeno_cichlid4|halo_small|service_mixed --seed N "
               "--seconds S --mode timed|count|traced|fidelity\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0 ||
      (workload != "himeno_cichlid4" && workload != "halo_small" && workload != "service_mixed") ||
      (mode != "timed" && mode != "count" && mode != "traced" && mode != "fidelity")) {
    return usage(argv[0]);
  }

  try {
    std::string line;
    if (mode == "fidelity") {
      line = report_json(run_fidelity());
    } else if (mode == "count") {
      Report r;
      r.values["msgs_per_run"] = messages_per_run(workload, opt);
      line = report_json(r);
    } else if (mode == "traced") {
      Options half = opt;
      half.seconds = opt.seconds / 2.0;
      const Report untraced = run(workload, half);

      clmpi::obs::Registry::instance().reset();
      clmpi::obs::set_metrics_enabled(true);
      Layers layers;
      half.layers = &layers;
      Report traced = run(workload, half);
      const std::string counters = counters_json();
      clmpi::obs::set_metrics_enabled(false);

      probe_layers(workload, half, traced);
      traced.values["trace.overhead_s"] = median_wall(traced) - median_wall(untraced);
      traced.attempted += untraced.attempted;
      traced.failed += untraced.failed;
      traced.failures.insert(traced.failures.end(), untraced.failures.begin(),
                             untraced.failures.end());
      traced.makespans += untraced.makespans;
      traced.makespans_agree += untraced.makespans_agree;
      line = report_json(traced);
      line.pop_back();
      line += ",\"layers\":" + layers_json(layers) + ",\"counters\":" + counters + "}";
    } else {
      line = report_json(run(workload, opt));
    }
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
