// lwbench: the lightweb benchmark.
//
//   lwbench --workload <paper_get|paper_publish|browse> --seed <n>
//           --seconds <s> --trace <0|1> [--out <dir>]
//
// Stands the real servers up in this process on host-loopback TCP, drives
// them closed-loop through the public client API for --seconds, checks every
// reply, and prints one JSON line as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics instead: half the window runs untraced, half with timing
// decorators on the client transports and browser channels, then the
// window's own inputs are replayed through each layer's public calls. The
// traced run also writes its span dump and the page's blocking-path table
// into --out (default .bench_out), beside a result file that records the
// host fingerprint.
//
// Metric notes: a failed, refused or wrong page counts at +inf in the page
// percentiles, and its GETs in `failed`; setup_s is the median of three full
// set-ups, each until the client sessions are up. Per-layer metrics a
// workload does not exercise read 0.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "pir/xor_kernel.h"
#include "util/alloc.h"

namespace lwbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lwbench: %s\nusage: lwbench --workload "
               "<paper_get|paper_publish|browse> --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

std::string CpuInfoField(const char* field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const auto colon = line.find(':');
    return colon == std::string::npos ? "" : line.substr(colon + 2);
  }
  return "";
}

bool HasCpuFlag(const std::string& flags, const char* flag) {
  return (" " + flags + " ").find(" " + std::string(flag) + " ") !=
         std::string::npos;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return "1e308";  // a failed page misses every limit
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Fingerprint() {
  const std::string flags = CpuInfoField("flags");
  std::ostringstream out;
  out << "{\"nproc\": " << HostThreads()
      << ", \"cpu_model\": " << JsonString(CpuInfoField("model name"))
      << ", \"xor_tier\": "
      << JsonString(lw::pir::XorTierName(lw::pir::ActiveXorTier()))
      << ", \"aes_ni\": " << (HasCpuFlag(flags, "aes") ? "true" : "false")
      << ", \"vaes\": " << (HasCpuFlag(flags, "vaes") ? "true" : "false")
      << ", \"build_type\": " << JsonString(LWBENCH_BUILD_TYPE)
      << ", \"hugepage_advised_bytes\": " << lw::HugepageAdvisedBytes()
      << "}";
  return out.str();
}

std::string ResultJson(const WorkloadResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << JsonString(m.name)
        << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) std::fprintf(stderr, "lwbench: cannot write %s\n", path.c_str());
}

std::string SpanDump(const std::vector<Span>& spans) {
  std::ostringstream out;
  for (const Span& s : spans) {
    out << "{\"name\": " << JsonString(s.name) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"page\": " << s.page
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return out.str();
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir = ".bench_out";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::map<std::string, WorkloadFn> workloads = {
      {"paper_get", RunPaperGet},
      {"paper_publish", RunPaperPublish},
      {"browse", RunBrowse},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) Usage("unknown workload");

  const WorkloadResult result = it->second(options);
  const std::string fingerprint = Fingerprint();
  const std::string result_json = ResultJson(result);
  std::fprintf(stderr, "lwbench: host %s\n", fingerprint.c_str());

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem = options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  WriteFile(std::filesystem::path(out_dir) / (stem + ".json"),
            "{\"workload\": " + JsonString(options.workload) +
                ", \"seed\": " + std::to_string(options.seed) +
                ", \"seconds\": " + JsonNumber(options.seconds) +
                ", \"host\": " + fingerprint + ", \"result\": " + result_json +
                "}\n");
  if (options.trace) {
    WriteFile(std::filesystem::path(out_dir) / (stem + "-spans.jsonl"),
              SpanDump(Tracer::Get().spans()));
    WriteFile(std::filesystem::path(out_dir) / (stem + "-layers.txt"),
              result.layer_table);
    std::fprintf(stderr, "%s", result.layer_table.c_str());
  }
  std::printf("%s\n", result_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace lwbench

int main(int argc, char** argv) { return lwbench::Main(argc, argv); }
